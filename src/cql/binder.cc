#include "cql/binder.h"

#include <cmath>
#include <numeric>
#include <optional>
#include <unordered_set>
#include <utility>

#include "algebra/complexity.h"
#include "algebra/validate.h"
#include "checkpoint/checkpoint.h"
#include "shard/sharded_db.h"

namespace chronicle {
namespace cql {

namespace {

Result<Schema> SchemaFromColumns(const std::vector<ColumnDef>& columns) {
  std::vector<Field> fields;
  fields.reserve(columns.size());
  for (const ColumnDef& def : columns) {
    fields.push_back(Field{def.name, def.type});
  }
  return Schema::Make(std::move(fields));
}

// Collects the payload column names referenced by an expression.
void CollectColumnNames(const ScalarExpr& expr,
                        std::unordered_set<std::string>* out) {
  if (expr.kind() == ExprKind::kColumn) out->insert(expr.column_name());
  for (size_t i = 0; i < expr.num_children(); ++i) {
    CollectColumnNames(expr.child(i), out);
  }
}

Result<AggSpec> MakeAggSpec(const SelectItem& item) {
  const std::string alias = item.alias;
  switch (item.agg_kind) {
    case AggKind::kCount:
      return alias.empty() ? AggSpec::Count() : AggSpec::Count(alias);
    case AggKind::kSum:
      return AggSpec::Sum(item.column, alias);
    case AggKind::kMin:
      return AggSpec::Min(item.column, alias);
    case AggKind::kMax:
      return AggSpec::Max(item.column, alias);
    case AggKind::kAvg:
      return AggSpec::Avg(item.column, alias);
    case AggKind::kFirst:
      return AggSpec::First(item.column, alias);
    case AggKind::kLast:
      return AggSpec::Last(item.column, alias);
    case AggKind::kTieredDiscount: {
      CHRONICLE_ASSIGN_OR_RETURN(TieredSchedule schedule,
                                 TieredSchedule::Make(item.tiers));
      return AggSpec::TieredDiscount(item.column, std::move(schedule), alias);
    }
    case AggKind::kCustom:
      return Status::PlanError("custom aggregates are not expressible in CQL");
  }
  return Status::Internal("unreachable aggregate kind");
}

Result<ExecResult> ExecCreateChronicle(ChronicleDatabase* db,
                                       const CreateChronicleStmt& stmt) {
  CHRONICLE_ASSIGN_OR_RETURN(Schema schema, SchemaFromColumns(stmt.columns));
  CHRONICLE_RETURN_NOT_OK(
      db->CreateChronicle(stmt.name, std::move(schema), stmt.retention).status());
  ExecResult result;
  result.message = "chronicle " + stmt.name + " created";
  return result;
}

Result<ExecResult> ExecCreateRelation(ChronicleDatabase* db,
                                      const CreateRelationStmt& stmt) {
  CHRONICLE_ASSIGN_OR_RETURN(Schema schema, SchemaFromColumns(stmt.columns));
  CHRONICLE_RETURN_NOT_OK(
      db->CreateRelation(stmt.name, std::move(schema), stmt.key_column).status());
  ExecResult result;
  result.message = "relation " + stmt.name + " created";
  return result;
}

Result<ExecResult> ExecCreateView(ChronicleDatabase* db,
                                  const CreateViewStmt& stmt) {
  CHRONICLE_ASSIGN_OR_RETURN(BoundView bound, BindViewQuery(db, stmt.query));
  CaExprPtr plan = std::move(bound.plan);
  std::optional<SummarySpec> spec = std::move(bound.spec);
  std::vector<ComputedColumn> computed = std::move(bound.computed);
  const std::string classification = std::move(bound.classification);

  ExecResult result;
  switch (stmt.target.kind) {
    case ViewTarget::Kind::kPersistent:
      CHRONICLE_RETURN_NOT_OK(
          db->CreateView(stmt.name, plan, std::move(*spec), std::move(computed))
              .status());
      result.message = "view " + stmt.name + " created (" + classification + ")";
      break;
    case ViewTarget::Kind::kPeriodic:
      if (!computed.empty()) {
        return Status::PlanError(
            "computed select items are not supported on periodic views");
      }
      {
      CHRONICLE_ASSIGN_OR_RETURN(
          std::shared_ptr<PeriodicCalendar> calendar,
          PeriodicCalendar::Make(stmt.target.origin, stmt.target.period));
      PeriodicViewOptions options;
      options.expire_after = stmt.target.expire_after;
      CHRONICLE_RETURN_NOT_OK(db->CreatePeriodicView(
          stmt.name, plan, std::move(*spec), calendar, options));
      result.message = "periodic view " + stmt.name + " created over " +
                       calendar->ToString() + " (" + classification + ")";
      break;
    }
    case ViewTarget::Kind::kSliding:
      if (!computed.empty()) {
        return Status::PlanError(
            "computed select items are not supported on sliding views");
      }
      CHRONICLE_RETURN_NOT_OK(db->CreateSlidingView(
          stmt.name, plan, std::move(*spec), stmt.target.origin,
          stmt.target.pane_width, stmt.target.num_panes));
      result.message = "sliding view " + stmt.name + " created (" +
                       std::to_string(stmt.target.num_panes) + " panes of " +
                       std::to_string(stmt.target.pane_width) + ", " +
                       classification + ")";
      break;
  }
  return result;
}

// Appends a Definition 4.1 conformance note: the engine accepts richer
// selection predicates than the paper's strict grammar; flag divergence.
void AppendStrictnessNote(const CaExpr& plan, std::string* message) {
  Status strict = ValidateStrictPredicates(plan);
  if (!strict.ok()) {
    *message += "\nnote: " + strict.message() +
                " — accepted by this engine (still O(1) per tuple)";
  }
}

Result<ExecResult> ExecExplain(ChronicleDatabase* db, const ExplainStmt& stmt) {
  ExecResult result;
  Result<PersistentView*> persistent = db->view_manager().FindView(stmt.view);
  if (persistent.ok()) {
    const PersistentView* view = *persistent;
    result.message = "view " + view->name() + "\n" + view->plan()->ToString() +
                     "summarize: " + view->spec().ToString() + "\n" +
                     "complexity: " + view->complexity().ToString() + "\n" +
                     "groups: " + std::to_string(view->size()) +
                     ", ticks applied: " +
                     std::to_string(view->ticks_applied()) +
                     ", delta rows applied: " +
                     std::to_string(view->delta_rows_applied());
    Result<const LatencyHistogram*> latency =
        db->view_manager().GetViewLatency(stmt.view);
    if (latency.ok() && (*latency)->count() > 0) {
      result.message += "\nmaintenance latency: " + (*latency)->ToString();
    }
    AppendStrictnessNote(*view->plan(), &result.message);
    return result;
  }
  Result<const PeriodicViewSet*> periodic = db->GetPeriodicView(stmt.view);
  if (periodic.ok()) {
    const PeriodicViewSet* set = *periodic;
    result.message =
        "periodic view " + set->name() + " over " + set->calendar().ToString() +
        "\n" + set->plan()->ToString() +
        "complexity: " + AnalyzeComplexity(*set->plan()).ToString() + "\n" +
        "active instances: " + std::to_string(set->num_active_instances()) +
        " (created " + std::to_string(set->instances_created()) + ", expired " +
        std::to_string(set->instances_expired()) + ")";
    AppendStrictnessNote(*set->plan(), &result.message);
    return result;
  }
  Result<const SlidingWindowView*> sliding = db->GetSlidingView(stmt.view);
  if (sliding.ok()) {
    const SlidingWindowView* view = *sliding;
    result.message =
        "sliding view " + view->name() + ": " +
        std::to_string(view->num_panes()) + " panes of " +
        std::to_string(view->pane_width()) + " (window " +
        std::to_string(view->window()) + ")\n" + view->plan()->ToString() +
        "complexity: " + AnalyzeComplexity(*view->plan()).ToString() + "\n" +
        "current pane: " + std::to_string(view->current_pane());
    AppendStrictnessNote(*view->plan(), &result.message);
    return result;
  }
  return Status::NotFound("no view named '" + stmt.view + "'");
}

Result<ExecResult> ExecShow(ChronicleDatabase* db, const ShowStmt& stmt) {
  ExecResult result;
  switch (stmt.what) {
    case ShowStmt::What::kChronicles: {
      CHRONICLE_ASSIGN_OR_RETURN(
          result.schema,
          Schema::Make({{"name", DataType::kString},
                        {"schema", DataType::kString},
                        {"total_appended", DataType::kInt64},
                        {"retained", DataType::kInt64}}));
      const ChronicleGroup& group = db->group();
      for (ChronicleId id = 0; id < group.num_chronicles(); ++id) {
        const Chronicle* chron = group.GetChronicle(id).value();
        result.rows.push_back(
            Tuple{Value(chron->name()), Value(chron->schema().ToString()),
                  Value(static_cast<int64_t>(chron->total_appended())),
                  Value(static_cast<int64_t>(chron->retained().size()))});
      }
      break;
    }
    case ShowStmt::What::kRelations: {
      CHRONICLE_ASSIGN_OR_RETURN(
          result.schema, Schema::Make({{"name", DataType::kString},
                                       {"schema", DataType::kString},
                                       {"rows", DataType::kInt64}}));
      db->ForEachRelation([&](const Relation& rel) {
        result.rows.push_back(Tuple{Value(rel.name()),
                                    Value(rel.schema().ToString()),
                                    Value(static_cast<int64_t>(rel.size()))});
      });
      break;
    }
    case ShowStmt::What::kViews: {
      CHRONICLE_ASSIGN_OR_RETURN(
          result.schema, Schema::Make({{"name", DataType::kString},
                                       {"kind", DataType::kString},
                                       {"class", DataType::kString},
                                       {"groups", DataType::kInt64}}));
      ViewManager& views = db->view_manager();
      for (ViewId id = 0; id < views.num_views(); ++id) {
        Result<PersistentView*> live = views.GetView(id);
        if (!live.ok()) continue;  // dropped view
        const PersistentView* view = *live;
        result.rows.push_back(
            Tuple{Value(view->name()), Value("persistent"),
                  Value(ImClassToString(view->complexity().im_class)),
                  Value(static_cast<int64_t>(view->size()))});
      }
      db->ForEachPeriodicView([&](const PeriodicViewSet& set) {
        result.rows.push_back(
            Tuple{Value(set.name()), Value("periodic"), Value("per-interval"),
                  Value(static_cast<int64_t>(set.num_active_instances()))});
      });
      db->ForEachSlidingView([&](const SlidingWindowView& view) {
        result.rows.push_back(
            Tuple{Value(view.name()), Value("sliding"), Value("pane-ring"),
                  Value(view.num_panes())});
      });
      break;
    }
  }
  result.message = std::to_string(result.rows.size()) + " row(s)";
  return result;
}

Result<ExecResult> ExecDrop(ChronicleDatabase* db, const DropStmt& stmt) {
  ExecResult result;
  if (stmt.what == DropStmt::What::kView) {
    CHRONICLE_RETURN_NOT_OK(db->DropView(stmt.name));
    result.message = "view " + stmt.name + " dropped";
  } else {
    CHRONICLE_RETURN_NOT_OK(db->DropRelation(stmt.name));
    result.message = "relation " + stmt.name + " dropped";
  }
  return result;
}

Result<ExecResult> ExecCheckpoint(ChronicleDatabase* db,
                                  const CheckpointStmt& stmt) {
  (void)db->DrainSeals();  // settle the tiers before imaging the hot rows
  CHRONICLE_RETURN_NOT_OK(checkpoint::SaveDatabaseToFile(*db, stmt.path));
  ExecResult result;
  result.message = "checkpoint written to " + stmt.path;
  return result;
}

Result<ExecResult> ExecRestore(ChronicleDatabase* db, const RestoreStmt& stmt) {
  CHRONICLE_RETURN_NOT_OK(checkpoint::RestoreDatabaseFromFile(stmt.path, db));
  ExecResult result;
  result.message = "database restored from " + stmt.path;
  return result;
}

Result<ExecResult> ExecInsert(ChronicleDatabase* db, const InsertStmt& stmt) {
  ExecResult result;
  if (db->group().FindChronicle(stmt.target).ok()) {
    Result<AppendResult> appended =
        stmt.at.has_value()
            ? db->Append(stmt.target, stmt.rows, *stmt.at)
            : db->Append(stmt.target, stmt.rows);
    CHRONICLE_RETURN_NOT_OK(appended.status());
    result.message = std::to_string(stmt.rows.size()) + " row(s) appended to " +
                     stmt.target + " at sn=" +
                     std::to_string(appended->event.sn) + " (" +
                     std::to_string(appended->maintenance.views_updated) +
                     " view(s) maintained)";
    return result;
  }
  if (stmt.at.has_value()) {
    return Status::PlanError("AT <chronon> applies only to chronicles");
  }
  for (const Tuple& row : stmt.rows) {
    CHRONICLE_RETURN_NOT_OK(db->InsertInto(stmt.target, row));
  }
  result.message = std::to_string(stmt.rows.size()) + " row(s) inserted into " +
                   stmt.target;
  return result;
}

Result<ExecResult> ExecUpdate(ChronicleDatabase* db, const UpdateStmt& stmt) {
  CHRONICLE_ASSIGN_OR_RETURN(Relation * rel, db->GetRelation(stmt.relation));
  if (!rel->has_key() ||
      rel->schema().field(rel->key_index()).name != stmt.where_column) {
    return Status::PlanError("UPDATE requires WHERE on the key column of '" +
                             stmt.relation + "'");
  }
  CHRONICLE_ASSIGN_OR_RETURN(const Tuple* current,
                             rel->LookupByKey(stmt.where_value));
  Tuple next = *current;
  for (const auto& [column, value] : stmt.sets) {
    CHRONICLE_ASSIGN_OR_RETURN(size_t idx, rel->schema().IndexOf(column));
    next[idx] = value;
  }
  CHRONICLE_RETURN_NOT_OK(rel->UpdateByKey(stmt.where_value, std::move(next)));
  ExecResult result;
  result.message = "1 row updated in " + stmt.relation +
                   " (proactive: affects future sequence numbers only)";
  return result;
}

Result<ExecResult> ExecDelete(ChronicleDatabase* db, const DeleteStmt& stmt) {
  CHRONICLE_ASSIGN_OR_RETURN(Relation * rel, db->GetRelation(stmt.relation));
  if (!rel->has_key() ||
      rel->schema().field(rel->key_index()).name != stmt.where_column) {
    return Status::PlanError("DELETE requires WHERE on the key column of '" +
                             stmt.relation + "'");
  }
  CHRONICLE_RETURN_NOT_OK(db->DeleteFrom(stmt.relation, stmt.where_value));
  ExecResult result;
  result.message = "1 row deleted from " + stmt.relation;
  return result;
}

// --- interactive SELECT: key probe or scan ---

// One `column = literal` conjunct of a WHERE.
struct Pin {
  const std::string* column;
  const Value* literal;
};

// Appends the `column = literal` conjuncts of `expr` (either operand
// order) to `pins`; false when any conjunct has another shape.
bool CollectPins(const ScalarExpr& expr, std::vector<Pin>* pins) {
  if (expr.kind() == ExprKind::kAnd) {
    return CollectPins(expr.child(0), pins) && CollectPins(expr.child(1), pins);
  }
  if (expr.kind() != ExprKind::kCompare ||
      expr.compare_op() != CompareOp::kEq) {
    return false;
  }
  const ScalarExpr* column = &expr.child(0);
  const ScalarExpr* literal = &expr.child(1);
  if (column->kind() == ExprKind::kLiteral) std::swap(column, literal);
  if (column->kind() != ExprKind::kColumn ||
      literal->kind() != ExprKind::kLiteral) {
    return false;
  }
  pins->push_back(Pin{&column->column_name(), &literal->literal()});
  return true;
}

// The value to probe a key column of `type` with when the WHERE pins it
// to `literal`, or nullopt to scan. A view finalizes the probed row from
// the probe key, not from the stored one, so the probe must carry the
// exact value a matching stored key holds: an integral double pinned on
// an INT64 key becomes that int64. Any other literal either is that value
// or equals no value of the column (NULL never satisfies `=`, and the
// WHERE re-check drops a NULL group). DOUBLE keys always scan: -0.0 and
// NaN compare equal to values that print differently.
std::optional<Value> ProbeValue(const Value& literal, DataType type) {
  if (type == DataType::kDouble) return std::nullopt;
  if (type == DataType::kInt64 && literal.is_double()) {
    const double d = literal.dbl();
    // From 2^53 on, one double compares equal to several int64 values.
    if (!(std::fabs(d) < 9007199254740992.0)) return std::nullopt;
    if (d == std::trunc(d)) return Value(static_cast<int64_t>(d));
  }
  return literal;
}

}  // namespace

Result<BoundView> BindViewQuery(ChronicleDatabase* db,
                                const SelectQuery& query) {
  CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr plan, db->ScanChronicle(query.from));
  const Schema chronicle_schema = plan->schema();

  // Push the WHERE below the join when it only touches chronicle columns —
  // this is what lets the ViewManager use it as a routing guard (§5.2).
  ScalarExprPtr where_above_join;
  if (query.where != nullptr) {
    std::unordered_set<std::string> referenced;
    CollectColumnNames(*query.where, &referenced);
    bool chronicle_only = true;
    for (const std::string& name : referenced) {
      if (!chronicle_schema.Contains(name)) {
        chronicle_only = false;
        break;
      }
    }
    if (chronicle_only) {
      CHRONICLE_ASSIGN_OR_RETURN(plan,
                                 CaExpr::Select(plan, query.where->Clone()));
    } else {
      where_above_join = query.where->Clone();
    }
  }

  if (query.join.kind == JoinClause::Kind::kKey) {
    CHRONICLE_ASSIGN_OR_RETURN(Relation * rel,
                               db->GetRelation(query.join.relation));
    if (!rel->has_key() ||
        rel->schema().field(rel->key_index()).name != query.join.right_column) {
      return Status::PlanError(
          "JOIN must be on the key of relation '" + query.join.relation +
          "': the chronicle model admits only joins with at most one "
          "matching relation tuple per chronicle tuple (Definition 4.2, "
          "CA_join); '" + query.join.right_column + "' is not its key");
    }
    CHRONICLE_ASSIGN_OR_RETURN(
        plan, CaExpr::RelKeyJoin(plan, rel, query.join.left_column));
  } else if (query.join.kind == JoinClause::Kind::kCross) {
    CHRONICLE_ASSIGN_OR_RETURN(Relation * rel,
                               db->GetRelation(query.join.relation));
    CHRONICLE_ASSIGN_OR_RETURN(plan, CaExpr::RelCross(plan, rel));
  }

  if (where_above_join != nullptr) {
    CHRONICLE_ASSIGN_OR_RETURN(plan,
                               CaExpr::Select(plan, std::move(where_above_join)));
  }

  // Summarization.
  bool has_aggregate = false;
  for (const SelectItem& item : query.items) {
    if (item.is_aggregate) has_aggregate = true;
  }
  if (query.select_star) {
    return Status::PlanError(
        "CREATE VIEW requires an explicit select list (views summarize away "
        "the sequencing attribute; '*' would keep it)");
  }

  // Computed items become finalizer columns over the summarized output row
  // (e.g. premier status from a miles total); they never affect
  // maintenance.
  BoundView bound;
  if (has_aggregate) {
    std::vector<std::string> keys = query.group_by;
    std::vector<AggSpec> aggs;
    for (const SelectItem& item : query.items) {
      if (item.is_aggregate) {
        CHRONICLE_ASSIGN_OR_RETURN(AggSpec agg, MakeAggSpec(item));
        aggs.push_back(std::move(agg));
      } else if (item.expr != nullptr) {
        bound.computed.push_back(ComputedColumn{item.alias, item.expr->Clone()});
      } else {
        bool in_group = false;
        for (const std::string& g : query.group_by) {
          if (g == item.column) in_group = true;
        }
        if (!in_group) {
          return Status::PlanError("column '" + item.column +
                                   "' must appear in GROUP BY or be aggregated");
        }
      }
    }
    CHRONICLE_ASSIGN_OR_RETURN(
        SummarySpec group_spec,
        SummarySpec::GroupBy(plan->schema(), std::move(keys), std::move(aggs)));
    bound.spec.emplace(std::move(group_spec));
  } else {
    if (!query.group_by.empty()) {
      return Status::PlanError("GROUP BY without aggregates; add an aggregate "
                               "or drop the GROUP BY");
    }
    std::vector<std::string> columns;
    for (const SelectItem& item : query.items) {
      if (item.expr != nullptr) {
        bound.computed.push_back(ComputedColumn{item.alias, item.expr->Clone()});
      } else {
        columns.push_back(item.column);
      }
    }
    if (columns.empty()) {
      return Status::PlanError(
          "a view needs at least one plain column or aggregate");
    }
    CHRONICLE_ASSIGN_OR_RETURN(
        SummarySpec proj_spec,
        SummarySpec::DistinctProjection(plan->schema(), columns));
    bound.spec.emplace(std::move(proj_spec));
  }

  const ComplexityReport report = AnalyzeComplexity(*plan);
  bound.classification = std::string(CaClassToString(report.ca_class)) + " / " +
                         ImClassToString(report.im_class);
  bound.plan = std::move(plan);
  return bound;
}

Result<ExecResult> ProjectSelect(const SelectQuery& query,
                                 const Schema& source_schema,
                                 std::vector<Tuple> rows, bool where_applied) {
  // WHERE.
  if (where_applied) {
    // already evaluated inside the window plan
  } else if (query.where != nullptr) {
    ScalarExprPtr predicate = query.where->Clone();
    CHRONICLE_RETURN_NOT_OK(predicate->Bind(source_schema));
    std::vector<Tuple> kept;
    for (Tuple& row : rows) {
      EvalRow eval{&row, 0, 0};
      CHRONICLE_ASSIGN_OR_RETURN(bool pass, predicate->EvalBool(eval));
      if (pass) kept.push_back(std::move(row));
    }
    rows = std::move(kept);
  }

  // Projection: plain columns by index, computed items by evaluation.
  ExecResult result;
  if (query.select_star) {
    result.schema = source_schema;
    result.rows = std::move(rows);
  } else {
    struct OutputItem {
      size_t index = 0;            // plain column
      const ScalarExpr* expr = nullptr;  // computed (bound below)
    };
    std::vector<OutputItem> outputs;
    std::vector<Field> fields;
    std::vector<ScalarExprPtr> bound_exprs;  // keep clones alive
    for (const SelectItem& item : query.items) {
      if (item.expr != nullptr) {
        ScalarExprPtr expr = item.expr->Clone();
        CHRONICLE_RETURN_NOT_OK(expr->Bind(source_schema));
        outputs.push_back(OutputItem{0, expr.get()});
        bound_exprs.push_back(std::move(expr));
        // Computed output type is dynamic; surface as INT64 by convention.
        fields.push_back(Field{item.alias, DataType::kInt64});
      } else {
        CHRONICLE_ASSIGN_OR_RETURN(size_t idx,
                                   source_schema.IndexOf(item.column));
        outputs.push_back(OutputItem{idx, nullptr});
        Field field = source_schema.field(idx);
        if (!item.alias.empty()) field.name = item.alias;
        fields.push_back(std::move(field));
      }
    }
    CHRONICLE_ASSIGN_OR_RETURN(result.schema, Schema::Make(std::move(fields)));
    result.rows.reserve(rows.size());
    for (const Tuple& row : rows) {
      Tuple projected;
      projected.reserve(outputs.size());
      for (const OutputItem& output : outputs) {
        if (output.expr != nullptr) {
          EvalRow eval{&row, 0, 0};
          CHRONICLE_ASSIGN_OR_RETURN(Value v, output.expr->Eval(eval));
          projected.push_back(std::move(v));
        } else {
          projected.push_back(row[output.index]);
        }
      }
      result.rows.push_back(std::move(projected));
    }
  }
  result.message = std::to_string(result.rows.size()) + " row(s)";
  return result;
}

// A column pinned twice probes with its first literal; the WHERE re-check
// in ProjectSelect drops the row if the other literal disagrees.
std::optional<Tuple> PinnedKey(const ScalarExpr* where, const Schema& schema,
                               const std::vector<size_t>& key_columns) {
  std::vector<Pin> pins;
  if (where == nullptr || !CollectPins(*where, &pins)) return std::nullopt;
  std::vector<const Value*> pinned(key_columns.size(), nullptr);
  for (const Pin& pin : pins) {
    size_t i = 0;
    while (i < key_columns.size() &&
           schema.field(key_columns[i]).name != *pin.column) {
      ++i;
    }
    if (i == key_columns.size()) return std::nullopt;
    if (pinned[i] == nullptr) pinned[i] = pin.literal;
  }
  Tuple key;
  key.reserve(key_columns.size());
  for (size_t i = 0; i < key_columns.size(); ++i) {
    if (pinned[i] == nullptr) return std::nullopt;
    std::optional<Value> value =
        ProbeValue(*pinned[i], schema.field(key_columns[i]).type);
    if (!value.has_value()) return std::nullopt;
    key.push_back(std::move(*value));
  }
  return key;
}

Result<ExecResult> ExecuteSelect(ChronicleDatabase* engine,
                                 const shard::ShardedDatabase* sharded,
                                 const SelectQuery& query) {
  if (query.join.kind != JoinClause::Kind::kNone || !query.group_by.empty()) {
    return Status::PlanError(
        "interactive SELECT supports only persistent views and relations "
        "(define a VIEW for joins/aggregation — that is the point of the "
        "chronicle model)");
  }
  for (const SelectItem& item : query.items) {
    if (item.is_aggregate) {
      return Status::PlanError(
          "aggregates in interactive SELECT are not supported; define a "
          "persistent view instead");
    }
  }

  // Source: a persistent view, a relation, or a chronicle (in which case
  // this is a §2.2 detail query over the retained window).
  std::vector<Tuple> rows;
  Result<const PersistentView*> view = engine->GetView(query.from);
  if (view.ok()) {
    // Output rows start with the group key columns, in spec order.
    const Schema& schema = (*view)->output_schema();
    std::vector<size_t> key_columns((*view)->spec().key_columns().size());
    std::iota(key_columns.begin(), key_columns.end(), size_t{0});
    if (std::optional<Tuple> key =
            PinnedKey(query.where.get(), schema, key_columns)) {
      Result<Tuple> row = sharded != nullptr
                              ? sharded->QueryView(query.from, *key)
                              : engine->QueryView(query.from, *key);
      if (row.ok()) {
        rows.push_back(std::move(*row));
      } else if (!row.status().IsNotFound()) {
        return row.status();
      }
    } else {
      CHRONICLE_ASSIGN_OR_RETURN(rows, sharded != nullptr
                                           ? sharded->ScanView(query.from)
                                           : engine->ScanView(query.from));
    }
    return ProjectSelect(query, schema, std::move(rows),
                         /*where_applied=*/false);
  }
  if (engine->group().FindChronicle(query.from).ok()) {
    if (sharded != nullptr) {
      return Status::FailedPrecondition(
          "detail queries over chronicles are not merged across shards; "
          "SELECT from a view or relation on a sharded session");
    }
    CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr plan,
                               engine->ScanChronicle(query.from));
    bool where_applied = false;
    if (query.where != nullptr) {
      // Pushing the WHERE into the plan lets it see $sn / $chronon.
      CHRONICLE_ASSIGN_OR_RETURN(plan,
                                 CaExpr::Select(plan, query.where->Clone()));
      where_applied = true;
    }
    CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> window,
                               engine->QueryRecentWindow(*plan));
    rows.reserve(window.size());
    for (ChronicleRow& row : window) rows.push_back(std::move(row.values));
    return ProjectSelect(query, plan->schema(), std::move(rows),
                         where_applied);
  }
  CHRONICLE_ASSIGN_OR_RETURN(const Relation* rel,
                             engine->GetRelation(query.from));
  std::optional<Tuple> key;
  if (rel->has_key()) {
    key = PinnedKey(query.where.get(), rel->schema(), {rel->key_index()});
  }
  if (key.has_value()) {
    if (const Tuple* row = rel->FindByKey((*key)[0])) rows.push_back(*row);
  } else {
    rows = rel->rows();
  }
  return ProjectSelect(query, rel->schema(), std::move(rows),
                       /*where_applied=*/false);
}

Result<ExecResult> Execute(ChronicleDatabase* db, const Statement& statement) {
  if (db == nullptr) return Status::InvalidArgument("null database");
  if (const auto* s = std::get_if<CreateChronicleStmt>(&statement)) {
    return ExecCreateChronicle(db, *s);
  }
  if (const auto* s = std::get_if<CreateRelationStmt>(&statement)) {
    return ExecCreateRelation(db, *s);
  }
  if (const auto* s = std::get_if<CreateViewStmt>(&statement)) {
    return ExecCreateView(db, *s);
  }
  if (const auto* s = std::get_if<InsertStmt>(&statement)) {
    return ExecInsert(db, *s);
  }
  if (const auto* s = std::get_if<UpdateStmt>(&statement)) {
    return ExecUpdate(db, *s);
  }
  if (const auto* s = std::get_if<DeleteStmt>(&statement)) {
    return ExecDelete(db, *s);
  }
  if (const auto* s = std::get_if<SelectStmt>(&statement)) {
    return ExecuteSelect(db, /*sharded=*/nullptr, s->query);
  }
  if (const auto* s = std::get_if<ExplainStmt>(&statement)) {
    return ExecExplain(db, *s);
  }
  if (const auto* s = std::get_if<ShowStmt>(&statement)) {
    return ExecShow(db, *s);
  }
  if (const auto* s = std::get_if<DropStmt>(&statement)) {
    return ExecDrop(db, *s);
  }
  if (const auto* s = std::get_if<CheckpointStmt>(&statement)) {
    return ExecCheckpoint(db, *s);
  }
  if (const auto* s = std::get_if<RestoreStmt>(&statement)) {
    return ExecRestore(db, *s);
  }
  return Status::Internal("unreachable statement type");
}

Result<ExecResult> Execute(ChronicleDatabase* db, const std::string& sql) {
  CHRONICLE_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return Execute(db, stmt);
}

Result<ExecResult> ExecuteScript(ChronicleDatabase* db, const std::string& sql) {
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseScript(sql));
  if (stmts.empty()) return Status::InvalidArgument("empty script");
  ExecResult last;
  for (const Statement& stmt : stmts) {
    CHRONICLE_ASSIGN_OR_RETURN(last, Execute(db, stmt));
  }
  return last;
}

}  // namespace cql
}  // namespace chronicle
