#include "views/persistent_view.h"

#include "algebra/validate.h"

namespace chronicle {

PersistentView::PersistentView(ViewId id, std::string name, CaExprPtr plan,
                               SummarySpec spec, IndexMode index_mode)
    : id_(id),
      name_(std::move(name)),
      plan_(std::move(plan)),
      spec_(std::move(spec)),
      index_mode_(index_mode),
      table_(index_mode) {}

Result<std::unique_ptr<PersistentView>> PersistentView::Make(
    ViewId id, std::string name, CaExprPtr plan, SummarySpec spec,
    std::vector<ComputedColumn> computed, IndexMode index_mode) {
  if (plan == nullptr) {
    return Status::InvalidArgument("persistent view requires a plan");
  }
  CHRONICLE_RETURN_NOT_OK(ValidateChronicleAlgebra(*plan));
  auto view = std::unique_ptr<PersistentView>(new PersistentView(
      id, std::move(name), std::move(plan), std::move(spec), index_mode));
  view->complexity_ = AnalyzeComplexity(*view->plan_);

  // The query schema appends computed columns to the summarized schema.
  std::vector<Field> fields = view->spec_.output_schema().fields();
  view->computed_ = std::move(computed);
  for (ComputedColumn& cc : view->computed_) {
    if (cc.expr == nullptr) {
      return Status::InvalidArgument("computed column '" + cc.name +
                                     "' has no expression");
    }
    CHRONICLE_RETURN_NOT_OK(cc.expr->Bind(view->spec_.output_schema()));
    // Computed expressions are dynamically typed; surface them as DOUBLE
    // when arithmetic, else INT64. Without full type inference we default
    // to INT64 and document that Lookup returns the runtime type.
    fields.push_back(Field{cc.name, DataType::kInt64});
  }
  CHRONICLE_ASSIGN_OR_RETURN(view->query_schema_, Schema::Make(std::move(fields)));
  return view;
}

Status PersistentView::ApplyDelta(const std::vector<Tuple>& delta) {
  ++ticks_applied_;
  delta_rows_applied_ += delta.size();
  for (const Tuple& row : delta) {
    Tuple key = spec_.KeyOf(row);
    Group* group = table_.Find(key);
    if (group == nullptr) {
      group = &table_.GetOrCreate(std::move(key));
      if (spec_.kind() == SummarySpec::Kind::kGroupBy) {
        group->states.reserve(spec_.aggregates().size());
        for (const AggSpec& agg : spec_.aggregates()) {
          group->states.push_back(agg.Init());
        }
      }
    }
    if (spec_.kind() == SummarySpec::Kind::kGroupBy) {
      for (size_t i = 0; i < spec_.aggregates().size(); ++i) {
        spec_.aggregates()[i].Update(&group->states[i], row);
      }
    } else {
      ++group->multiplicity;
    }
  }
  return Status::OK();
}

Result<Tuple> PersistentView::FinalizeRow(const Tuple& key,
                                          const Group& group) const {
  return FinalizeGroupStates(key, group.states);
}

Result<Tuple> PersistentView::FinalizeGroupStates(
    const Tuple& key, const std::vector<AggState>& states) const {
  if (spec_.kind() == SummarySpec::Kind::kGroupBy &&
      states.size() != spec_.aggregates().size()) {
    return Status::InvalidArgument(
        "group has " + std::to_string(states.size()) +
        " aggregate states, view '" + name_ + "' expects " +
        std::to_string(spec_.aggregates().size()));
  }
  Tuple row = key;
  if (spec_.kind() == SummarySpec::Kind::kGroupBy) {
    for (size_t i = 0; i < spec_.aggregates().size(); ++i) {
      row.push_back(spec_.aggregates()[i].Finalize(states[i]));
    }
  }
  for (const ComputedColumn& cc : computed_) {
    EvalRow eval{&row, 0, 0};
    CHRONICLE_ASSIGN_OR_RETURN(Value v, cc.expr->Eval(eval));
    row.push_back(std::move(v));
  }
  return row;
}

Result<Tuple> PersistentView::Lookup(const Tuple& key) const {
  const Group* group = table_.Find(key);
  if (group == nullptr) {
    return Status::NotFound("view '" + name_ + "' has no group " +
                            TupleToString(key));
  }
  return FinalizeRow(key, *group);
}

Status PersistentView::Scan(const std::function<void(const Tuple&)>& fn) const {
  Status status;  // first error encountered during the scan
  table_.ForEach([&](const Tuple& key, const Group& group) {
    if (!status.ok()) return;
    Result<Tuple> row = FinalizeRow(key, group);
    if (!row.ok()) {
      status = row.status();
      return;
    }
    fn(*row);
  });
  return status;
}

void PersistentView::VisitGroups(
    const std::function<void(const Tuple&, const std::vector<AggState>&,
                             int64_t)>& fn) const {
  table_.ForEach([&](const Tuple& key, const Group& group) {
    fn(key, group.states, group.multiplicity);
  });
}

Status PersistentView::RestoreGroup(Tuple key, std::vector<AggState> states,
                                    int64_t multiplicity) {
  if (table_.Find(key) != nullptr) {
    return Status::AlreadyExists("group " + TupleToString(key) +
                                 " already present in view '" + name_ + "'");
  }
  if (spec_.kind() == SummarySpec::Kind::kGroupBy &&
      states.size() != spec_.aggregates().size()) {
    return Status::InvalidArgument(
        "checkpointed group has " + std::to_string(states.size()) +
        " aggregate states, view '" + name_ + "' expects " +
        std::to_string(spec_.aggregates().size()));
  }
  Group& group = table_.GetOrCreate(std::move(key));
  group.states = std::move(states);
  group.multiplicity = multiplicity;
  return Status::OK();
}

size_t PersistentView::MemoryFootprint() const {
  // Approximation: per group, the key values plus aggregate states.
  size_t per_group = sizeof(Tuple) + spec_.key_columns().size() * sizeof(Value) +
                     spec_.aggregates().size() * sizeof(AggState) + 48;
  return table_.size() * per_group;
}

}  // namespace chronicle
