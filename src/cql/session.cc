#include "cql/session.h"

#include <utility>

#include "common/strings.h"
#include "obs/export.h"
#include "storage/chronicle.h"
#include "storage/chronicle_group.h"

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

// Statements hold ScalarExprPtr (move-only); the sharded CreateView path
// needs the query to outlive the statement — the router re-binds it per
// shard and again for merged-read scratch rebuilds — so it deep-copies.
SelectQuery CloneSelectQuery(const SelectQuery& q) {
  SelectQuery out;
  out.select_star = q.select_star;
  out.from = q.from;
  out.join = q.join;
  out.group_by = q.group_by;
  if (q.where != nullptr) out.where = q.where->Clone();
  out.items.reserve(q.items.size());
  for (const SelectItem& item : q.items) {
    SelectItem copy;
    copy.is_aggregate = item.is_aggregate;
    copy.agg_kind = item.agg_kind;
    copy.tiers = item.tiers;
    if (item.expr != nullptr) copy.expr = item.expr->Clone();
    copy.column = item.column;
    copy.alias = item.alias;
    out.items.push_back(std::move(copy));
  }
  return out;
}

}  // namespace

std::string ErrorJson(const Status& status) {
  return std::string("{\"error\":{\"code\":\"") +
         StatusCodeToString(status.code()) + "\",\"message\":\"" +
         JsonEscape(status.message()) + "\"}}";
}

Result<std::unique_ptr<Session>> Session::Open(DatabaseOptions options) {
  auto session = std::unique_ptr<Session>(new Session());
  const obs::ObservabilityOptions& obs_opts = options.observability;
  if (obs_opts.request_trace_capacity > 0) {
    session->tracer_ = std::make_unique<obs::RequestTracer>(
        obs_opts.request_trace_capacity, obs_opts.request_sample_rate,
        obs_opts.slow_request_budget_ns);
  }
  if (options.sharding.num_shards > 1) {
    CHRONICLE_ASSIGN_OR_RETURN(session->sharded_,
                               shard::ShardedDatabase::Open(std::move(options)));
    if (!session->sharded_->options().sharding.wal_dir.empty()) {
      // A fresh session has no DDL to recover into; directories with
      // history go through ShardedDatabase::RecoverFromWal directly.
      CHRONICLE_RETURN_NOT_OK(session->sharded_->AttachWals());
    }
  } else {
    session->db_ = ChronicleDatabase::Open(std::move(options));
    session->db_->set_request_tracer(session->tracer_.get());
    session->InstallEnricherHook();
  }
  if (session->tracer_ != nullptr &&
      session->tracer_->slow_budget_ns() > 0) {
    // Slow-request capture: snapshot + span tree through engine0's flight
    // recorder. Fired by the wire service OUTSIDE its own stats mutex, so
    // CollectStats (which runs the net enricher) cannot deadlock.
    Session* raw = session.get();
    session->tracer_->set_slow_capture(
        [raw](uint64_t trace_hi, uint64_t trace_lo, int64_t total_ns) {
          const obs::StatsSnapshot snap = raw->CollectStats();
          const std::string snapshot_json = obs::RenderJson(snap);
          const std::string tree_json =
              raw->tracer_->RenderTraceTreeJson(trace_hi, trace_lo);
          raw->engine0()
              .RecordSlowRequest(trace_hi, trace_lo, total_ns,
                                 raw->tracer_->slow_budget_ns(), snapshot_json,
                                 tree_json)
              .status()
              .ok();  // capture is best-effort; failures drop the dump
        });
  }
  return session;
}

Session::~Session() {
  // Monitoring threads call the enricher chain; join them while the
  // session is fully alive, then close the WAL.
  if (db_ != nullptr) db_->StopMonitoring();
  DetachWal().ok();
}

Result<Schema> Session::ChronicleSchema(const std::string& chronicle) {
  std::lock_guard<FifoMutex> lock(exec_mu_);
  ChronicleGroup& group = engine0().group();
  CHRONICLE_ASSIGN_OR_RETURN(ChronicleId id, group.FindChronicle(chronicle));
  CHRONICLE_ASSIGN_OR_RETURN(Chronicle * chron, group.GetChronicle(id));
  return chron->schema();
}

Status Session::Flush() {
  std::lock_guard<FifoMutex> lock(exec_mu_);
  if (sharded_ != nullptr) return sharded_->Flush();
  return Status::OK();
}

void Session::InstallEnricherHook() {
  db_->set_stats_enricher(
      [this](obs::StatsSnapshot* snap) { RunEnrichers(snap); });
}

void Session::RunEnrichers(obs::StatsSnapshot* snap) const {
  // The session's own WAL section is filled first so registered enrichers
  // can see a complete snapshot.
  if (wal_ != nullptr) {
    snap->wal.attached = true;
    static_cast<obs::WalCounters&>(snap->wal) = wal_->stats();
  }
  snap->wal.recovered = recovered_;
  snap->wal.recovery_records_applied = recovery_records_applied_;
  snap->wal.recovery_records_skipped = recovery_records_skipped_;
  // The req section lives here (not in a registered enricher) so a WAL
  // detach/attach cycle — which tears down registered enrichers' hook on
  // the unsharded engine — cannot drop it.
  if (tracer_ != nullptr) tracer_->Fill(&snap->req);

  std::lock_guard<std::mutex> lock(enricher_mu_);
  for (const auto& [token, fn] : enrichers_) fn(snap);
}

obs::StatsSnapshot Session::CollectStats() const {
  if (sharded_ != nullptr) {
    obs::StatsSnapshot snap = sharded_->CollectStats();
    RunEnrichers(&snap);
    return snap;
  }
  return db_->CollectStats();  // runs the chain via the installed hook
}

size_t Session::AddStatsEnricher(
    std::function<void(obs::StatsSnapshot*)> enricher) {
  std::lock_guard<std::mutex> lock(enricher_mu_);
  const size_t token = next_enricher_token_++;
  enrichers_.emplace_back(token, std::move(enricher));
  return token;
}

void Session::RemoveStatsEnricher(size_t token) {
  std::lock_guard<std::mutex> lock(enricher_mu_);
  for (auto it = enrichers_.begin(); it != enrichers_.end(); ++it) {
    if (it->first == token) {
      enrichers_.erase(it);
      return;
    }
  }
}

Status Session::StartMonitoring(uint16_t port) {
  if (sharded_ != nullptr) {
    return Status::FailedPrecondition(
        "per-engine monitoring is not merged across shards; serve the "
        "sharded session through the wire service instead");
  }
  return db_->StartMonitoring(port);
}

void Session::StopMonitoring() {
  if (db_ != nullptr) db_->StopMonitoring();
}

uint16_t Session::monitoring_port() const {
  return db_ != nullptr ? db_->monitoring_port() : 0;
}

void Session::ReconfigureMaintenance(const MaintenanceOptions& options) {
  std::lock_guard<FifoMutex> lock(exec_mu_);
  if (sharded_ != nullptr) {
    for (size_t k = 0; k < sharded_->num_shards(); ++k) {
      sharded_->engine(k).ReconfigureMaintenance(options);
    }
  } else {
    db_->ReconfigureMaintenance(options);
  }
}

// --- durability ---

Status Session::AttachWal(const std::string& dir) {
  std::lock_guard<FifoMutex> lock(exec_mu_);
  return AttachWalLocked(dir);
}

Status Session::AttachWalLocked(const std::string& dir) {
  if (sharded_ != nullptr) {
    return Status::FailedPrecondition(
        "a sharded session keeps one WAL per shard; set "
        "ShardingOptions::wal_dir at open instead of attaching one log");
  }
  CHRONICLE_RETURN_NOT_OK(DetachWalLocked());
  CHRONICLE_ASSIGN_OR_RETURN(wal_, wal::Wal::Open(dir));
  log_ = std::make_unique<wal::WalMutationLog>(wal_.get(), db_.get());
  db_->AttachMutationLog(log_.get());
  return Status::OK();
}

Status Session::DetachWal() {
  std::lock_guard<FifoMutex> lock(exec_mu_);
  return DetachWalLocked();
}

Status Session::DetachWalLocked() {
  if (db_ == nullptr || wal_ == nullptr) return Status::OK();
  db_->DetachMutationLog();
  // Re-installing the enricher hook waits out any in-flight snapshot, so
  // no other thread can still be reading the Wal we are about to close.
  db_->set_stats_enricher(nullptr);
  const Status closed = wal_->Close();
  log_.reset();
  wal_.reset();
  InstallEnricherHook();
  return closed;
}

Status Session::WriteCheckpoint() {
  std::lock_guard<FifoMutex> lock(exec_mu_);
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "no wal attached (use AttachWal / \\wal <dir> first)");
  }
  // Settle the tiers first, so the image carries no batch in flight.
  (void)db_->DrainSeals();
  return wal_->WriteCheckpoint(*db_);
}

Result<wal::RecoveryReport> Session::Recover(const std::string& dir) {
  std::lock_guard<FifoMutex> lock(exec_mu_);
  if (sharded_ != nullptr) {
    return Status::FailedPrecondition(
        "sharded recovery goes through per-shard WALs "
        "(ShardedDatabase::RecoverFromWal)");
  }
  // Recovery needs a detached log; re-attach to the same dir on success so
  // the session keeps logging where it left off.
  CHRONICLE_RETURN_NOT_OK(DetachWalLocked());
  CHRONICLE_ASSIGN_OR_RETURN(wal::RecoveryReport report,
                             wal::Recover(dir, db_.get()));
  recovered_ = true;
  recovery_records_applied_ = report.replay.records_applied;
  recovery_records_skipped_ = report.replay.records_skipped;
  CHRONICLE_RETURN_NOT_OK(AttachWalLocked(dir));
  return report;
}

// --- statement execution ---

Result<ExecResult> Session::ExecuteSql(const std::string& sql) {
  CHRONICLE_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return ExecuteStatement(stmt);
}

Result<ExecResult> Session::ExecuteScript(const std::string& sql) {
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseScript(sql));
  return ExecuteStatements(stmts);
}

Result<ExecResult> Session::ExecuteStatements(
    const std::vector<Statement>& statements) {
  if (statements.empty()) return Status::InvalidArgument("empty script");
  // One lock for the whole script: statements from other threads never
  // interleave inside it.
  std::lock_guard<FifoMutex> lock(exec_mu_);
  ExecResult last;
  for (const Statement& stmt : statements) {
    CHRONICLE_ASSIGN_OR_RETURN(last, ExecuteStatementLocked(stmt));
  }
  return last;
}

Result<ExecResult> Session::ExecuteStatement(const Statement& statement) {
  std::lock_guard<FifoMutex> lock(exec_mu_);
  return ExecuteStatementLocked(statement);
}

Result<ExecResult> Session::ExecuteStatementLocked(const Statement& statement) {
  if (sharded_ != nullptr) return ExecuteSharded(statement);
  return Execute(db_.get(), statement);
}

Result<uint64_t> Session::AppendRows(const std::string& chronicle,
                                     std::vector<std::vector<Tuple>> batches) {
  std::lock_guard<FifoMutex> lock(exec_mu_);
  uint64_t rows = 0;
  for (const std::vector<Tuple>& batch : batches) rows += batch.size();
  if (sharded_ != nullptr) {
    CHRONICLE_RETURN_NOT_OK(
        sharded_->AppendMany(chronicle, std::move(batches)).status());
  } else {
    CHRONICLE_RETURN_NOT_OK(
        db_->AppendMany(chronicle, std::move(batches)).status());
  }
  return rows;
}

// --- sharded dispatch ---

Result<ExecResult> Session::ExecuteSharded(const Statement& statement) {
  ExecResult result;
  if (const auto* s = std::get_if<CreateChronicleStmt>(&statement)) {
    CHRONICLE_ASSIGN_OR_RETURN(Schema schema, SchemaFromColumns(s->columns));
    CHRONICLE_RETURN_NOT_OK(
        sharded_->CreateChronicle(s->name, std::move(schema), s->retention)
            .status());
    result.message = "chronicle " + s->name + " created";
    return result;
  }
  if (const auto* s = std::get_if<CreateRelationStmt>(&statement)) {
    CHRONICLE_ASSIGN_OR_RETURN(Schema schema, SchemaFromColumns(s->columns));
    CHRONICLE_RETURN_NOT_OK(
        sharded_->CreateRelation(s->name, std::move(schema), s->key_column)
            .status());
    result.message = "relation " + s->name + " created";
    return result;
  }
  if (const auto* s = std::get_if<CreateViewStmt>(&statement)) {
    return ShardedCreateView(*s);
  }
  if (const auto* s = std::get_if<InsertStmt>(&statement)) {
    return ShardedInsert(*s);
  }
  if (const auto* s = std::get_if<UpdateStmt>(&statement)) {
    // Compute the post-image against the replicated copy on shard 0, then
    // broadcast the keyed update so every shard's plans see the same row.
    ChronicleDatabase& engine = engine0();
    CHRONICLE_ASSIGN_OR_RETURN(Relation * rel, engine.GetRelation(s->relation));
    if (!rel->has_key() ||
        rel->schema().field(rel->key_index()).name != s->where_column) {
      return Status::PlanError("UPDATE requires WHERE on the key column of '" +
                               s->relation + "'");
    }
    CHRONICLE_ASSIGN_OR_RETURN(const Tuple* current,
                               rel->LookupByKey(s->where_value));
    Tuple next = *current;
    for (const auto& [column, value] : s->sets) {
      CHRONICLE_ASSIGN_OR_RETURN(size_t idx, rel->schema().IndexOf(column));
      next[idx] = value;
    }
    CHRONICLE_RETURN_NOT_OK(
        sharded_->UpdateRelation(s->relation, s->where_value, std::move(next)));
    result.message = "1 row updated in " + s->relation +
                     " (proactive: affects future sequence numbers only)";
    return result;
  }
  if (const auto* s = std::get_if<DeleteStmt>(&statement)) {
    ChronicleDatabase& engine = engine0();
    CHRONICLE_ASSIGN_OR_RETURN(Relation * rel, engine.GetRelation(s->relation));
    if (!rel->has_key() ||
        rel->schema().field(rel->key_index()).name != s->where_column) {
      return Status::PlanError("DELETE requires WHERE on the key column of '" +
                               s->relation + "'");
    }
    CHRONICLE_RETURN_NOT_OK(sharded_->DeleteFrom(s->relation, s->where_value));
    result.message = "1 row deleted from " + s->relation;
    return result;
  }
  if (const auto* s = std::get_if<SelectStmt>(&statement)) {
    return ExecuteSelect(&engine0(), sharded_.get(), s->query);
  }
  if (std::get_if<ExplainStmt>(&statement) != nullptr ||
      std::get_if<ShowStmt>(&statement) != nullptr) {
    // Plans and registered objects are identical on every shard; counters
    // in SHOW output are shard 0's (merged counters live in \stats /
    // /stats.json).
    return Execute(&engine0(), statement);
  }
  if (const auto* s = std::get_if<DropStmt>(&statement)) {
    if (s->what == DropStmt::What::kView) {
      return Status::NotImplemented(
          "DROP VIEW on a sharded session (the router's merged-read "
          "registry has no removal path yet)");
    }
    for (size_t k = 0; k < sharded_->num_shards(); ++k) {
      CHRONICLE_RETURN_NOT_OK(sharded_->engine(k).DropRelation(s->name));
    }
    result.message = "relation " + s->name + " dropped";
    return result;
  }
  if (std::get_if<CheckpointStmt>(&statement) != nullptr ||
      std::get_if<RestoreStmt>(&statement) != nullptr) {
    return Status::NotImplemented(
        "CHECKPOINT/RESTORE on a sharded session; per-shard durability "
        "goes through ShardingOptions::wal_dir");
  }
  return Status::Internal("unreachable statement type");
}

Result<ExecResult> Session::ShardedCreateView(const CreateViewStmt& stmt) {
  // Bind once against shard 0 for validation, the summarization spec, and
  // the complexity label; the factories re-bind per engine because plans
  // hold engine-local scan nodes and relation pointers.
  CHRONICLE_ASSIGN_OR_RETURN(BoundView bound,
                             BindViewQuery(&engine0(), stmt.query));
  ExecResult result;
  if (stmt.target.kind == ViewTarget::Kind::kPersistent) {
    auto query = std::make_shared<SelectQuery>(CloneSelectQuery(stmt.query));
    shard::ShardedDatabase::PlanFactory plan_factory =
        [query](ChronicleDatabase& engine) -> Result<CaExprPtr> {
      CHRONICLE_ASSIGN_OR_RETURN(BoundView per_engine,
                                 BindViewQuery(&engine, *query));
      return std::move(per_engine.plan);
    };
    shard::ShardedDatabase::ComputedFactory computed_factory = nullptr;
    if (!bound.computed.empty()) {
      computed_factory =
          [query](ChronicleDatabase& engine) -> std::vector<ComputedColumn> {
        Result<BoundView> per_engine = BindViewQuery(&engine, *query);
        if (!per_engine.ok()) return {};
        return std::move(per_engine->computed);
      };
    }
    CHRONICLE_RETURN_NOT_OK(sharded_
                                ->CreateView(stmt.name, plan_factory,
                                             std::move(*bound.spec),
                                             computed_factory)
                                .status());
    result.message = "view " + stmt.name + " created (" +
                     bound.classification + ", " +
                     std::to_string(sharded_->num_shards()) + " shards)";
    return result;
  }

  // Periodic and sliding views maintain shard-local instances: relations
  // are replicated and chronicle rows are partitioned, so each engine's
  // view covers exactly its slice. Merged reads of these views are not
  // supported (SELECT routes through the persistent merge layer only).
  if (!bound.computed.empty()) {
    return Status::PlanError(
        "computed select items are not supported on periodic views");
  }
  for (size_t k = 0; k < sharded_->num_shards(); ++k) {
    ChronicleDatabase& engine = sharded_->engine(k);
    CHRONICLE_ASSIGN_OR_RETURN(BoundView per_engine,
                               BindViewQuery(&engine, stmt.query));
    if (stmt.target.kind == ViewTarget::Kind::kPeriodic) {
      CHRONICLE_ASSIGN_OR_RETURN(
          std::shared_ptr<PeriodicCalendar> calendar,
          PeriodicCalendar::Make(stmt.target.origin, stmt.target.period));
      PeriodicViewOptions options;
      options.expire_after = stmt.target.expire_after;
      CHRONICLE_RETURN_NOT_OK(
          engine.CreatePeriodicView(stmt.name, per_engine.plan,
                                    std::move(*per_engine.spec), calendar,
                                    options));
    } else {
      CHRONICLE_RETURN_NOT_OK(engine.CreateSlidingView(
          stmt.name, per_engine.plan, std::move(*per_engine.spec),
          stmt.target.origin, stmt.target.pane_width, stmt.target.num_panes));
    }
  }
  result.message =
      std::string(stmt.target.kind == ViewTarget::Kind::kPeriodic ? "periodic"
                                                                  : "sliding") +
      " view " + stmt.name + " created (" + bound.classification +
      ", shard-local on " + std::to_string(sharded_->num_shards()) + " shards)";
  return result;
}

Result<ExecResult> Session::ShardedInsert(const InsertStmt& stmt) {
  ExecResult result;
  if (engine0().group().FindChronicle(stmt.target).ok()) {
    Result<shard::ShardAppendResult> appended =
        stmt.at.has_value() ? sharded_->Append(stmt.target, stmt.rows, *stmt.at)
                            : sharded_->Append(stmt.target, stmt.rows);
    CHRONICLE_RETURN_NOT_OK(appended.status());
    result.message = std::to_string(stmt.rows.size()) +
                     " row(s) appended to " + stmt.target + " at chronon=" +
                     std::to_string(appended->chronon) + " (" +
                     std::to_string(appended->shards_touched) + " shard(s))";
    return result;
  }
  if (stmt.at.has_value()) {
    return Status::PlanError("AT <chronon> applies only to chronicles");
  }
  for (const Tuple& row : stmt.rows) {
    CHRONICLE_RETURN_NOT_OK(sharded_->InsertInto(stmt.target, row));
  }
  result.message = std::to_string(stmt.rows.size()) +
                   " row(s) inserted into " + stmt.target;
  return result;
}

}  // namespace cql
}  // namespace chronicle
