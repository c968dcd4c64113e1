#include "db/database.h"

#include <algorithm>
#include <chrono>

#include "baseline/naive_engine.h"
#include "common/strings.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/history.h"
#include "obs/http_server.h"
#include "obs/request_trace.h"

namespace chronicle {

ChronicleDatabase::ChronicleDatabase(DatabaseOptions options)
    : options_(std::move(options)), views_(options_.routing) {
  views_.set_maintenance_options(options_.maintenance);
  durability_ = options_.durability;
  if (options_.observability.metrics) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    m_append_batch_ticks_ = metrics_->AddHistogram(
        "append_batch_ticks", "Ticks per AppendMany batch");
    // Storage counters are registered up front even though the store is
    // created lazily: the registry only accepts registrations before
    // sampling starts, and the counters just sit at zero until a kTiered
    // chronicle attaches.
    store_metric_ids_ = store::TieredStore::RegisterMetrics(metrics_.get());
  }
  if (options_.observability.trace_capacity > 0) {
    trace_ = std::make_unique<obs::TraceRing>(
        options_.observability.trace_capacity);
  }
  views_.set_observability(metrics_.get(), trace_.get());
  if (options_.observability.profile_view_latency) views_.set_profiling(true);
  if (options_.observability.profile_plan_slots) {
    views_.set_plan_profiling(true, options_.observability.slot_sample_period);
  }
  // The flight recorder serves two capture paths: slow maintenance ticks
  // (which need tick timings, i.e. metrics) and slow traced requests
  // (which need neither).
  if ((options_.observability.metrics &&
       options_.observability.slow_tick_budget_ns > 0) ||
      options_.observability.slow_request_budget_ns > 0) {
    obs::FlightRecorderOptions rec;
    rec.dir = options_.observability.flight_recorder_dir;
    rec.max_dumps = options_.observability.flight_recorder_max_dumps;
    recorder_ = std::make_unique<obs::FlightRecorder>(std::move(rec));
  }
}

ChronicleDatabase::~ChronicleDatabase() { StopMonitoring(); }

ChronicleDatabase::ChronicleDatabase(RoutingMode routing)
    : ChronicleDatabase(DatabaseOptions().set_routing(routing)) {}

std::unique_ptr<ChronicleDatabase> ChronicleDatabase::Open(
    DatabaseOptions options) {
  return std::make_unique<ChronicleDatabase>(std::move(options));
}

Result<ChronicleId> ChronicleDatabase::CreateChronicle(const std::string& name,
                                                       Schema schema) {
  return CreateChronicle(name, std::move(schema), options_.default_retention);
}

Result<ChronicleId> ChronicleDatabase::CreateChronicle(
    const std::string& name, Schema schema, RetentionPolicy retention) {
  if (relations_by_name_.count(name) != 0) {
    return Status::AlreadyExists("'" + name + "' already names a relation");
  }
  if (retention.kind == RetentionPolicy::Kind::kTiered &&
      retention.window_rows == 0) {
    retention.window_rows = options_.storage.hot_rows;
  }
  CHRONICLE_ASSIGN_OR_RETURN(
      ChronicleId id, group_.CreateChronicle(name, std::move(schema),
                                             retention));
  if (retention.kind == RetentionPolicy::Kind::kTiered) {
    CHRONICLE_RETURN_NOT_OK(
        AttachTieredChronicle(id, name, retention.window_rows));
  }
  return id;
}

Status ChronicleDatabase::AttachTieredChronicle(ChronicleId id,
                                                const std::string& name,
                                                size_t hot_rows) {
  (void)hot_rows;
  if (store_ == nullptr) {
    if (options_.storage.data_dir.empty()) {
      return Status::InvalidArgument(
          "chronicle '" + name +
          "' wants tiered retention but DatabaseOptions::storage.data_dir "
          "is empty");
    }
    CHRONICLE_ASSIGN_OR_RETURN(store_,
                               store::TieredStore::Open(options_.storage));
    if (metrics_ != nullptr) {
      store_->AttachMetrics(metrics_.get(), store_metric_ids_);
    }
    // Write-ahead rule: a seal may not outrun the durable log, or a crash
    // would recover warm rows the replayed WAL (and every view) never saw.
    // The sealer never syncs the log itself (the log has one writer); a
    // wait on this thread forces it through the barrier.
    store_->SetDurabilityBarrier([this]() {
      MutationLog* log = durability_.mutation_log;
      if (log != nullptr) CHRONICLE_RETURN_NOT_OK(log->Sync());
      PublishDurableSn();
      return Status::OK();
    });
    published_durable_sn_ = std::numeric_limits<SeqNum>::max();
    PublishDurableSn();
  }
  // Attach adopts any segments a previous run sealed (recovery).
  CHRONICLE_RETURN_NOT_OK(store_->AttachChronicle(id, name));
  CHRONICLE_ASSIGN_OR_RETURN(Chronicle * chron, group_.GetChronicle(id));
  chron->AttachTierSink(store_.get(), options_.storage.segment_rows);
  return Status::OK();
}

Result<RelationId> ChronicleDatabase::CreateRelation(
    const std::string& name, Schema schema, const std::string& key_column,
    IndexMode index_mode) {
  if (relations_by_name_.count(name) != 0) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  if (group_.FindChronicle(name).ok()) {
    return Status::AlreadyExists("'" + name + "' already names a chronicle");
  }
  CHRONICLE_ASSIGN_OR_RETURN(
      Relation rel, Relation::Make(name, std::move(schema), key_column, index_mode));
  RelationId id = static_cast<RelationId>(relations_.size());
  relations_.push_back(std::make_unique<Relation>(std::move(rel)));
  relations_by_name_[name] = id;
  return id;
}

Result<ViewId> ChronicleDatabase::CreateView(const std::string& name,
                                             CaExprPtr plan, SummarySpec spec,
                                             std::vector<ComputedColumn> computed,
                                             IndexMode index_mode) {
  CHRONICLE_ASSIGN_OR_RETURN(
      std::unique_ptr<PersistentView> view,
      PersistentView::Make(static_cast<ViewId>(views_.num_views()), name,
                           std::move(plan), std::move(spec),
                           std::move(computed), index_mode));
  // Registry mutation is serialized against the monitoring readers.
  std::lock_guard<std::mutex> lock(obs_mutex_);
  return views_.AddView(std::move(view));
}

namespace {

// RAII flag flip for the relations-frozen-during-maintenance invariant.
class ScopedFlag {
 public:
  explicit ScopedFlag(bool* flag) : flag_(flag) { *flag_ = true; }
  ~ScopedFlag() { *flag_ = false; }
  ScopedFlag(const ScopedFlag&) = delete;
  ScopedFlag& operator=(const ScopedFlag&) = delete;

 private:
  bool* flag_;
};

// One chronicle's retained row stream for the backfill merge: warm
// segments and batches in flight first (pull cursor), then the hot deque.
struct BackfillStream {
  ChronicleId id = 0;
  store::TieredStore::WarmCursor warm;
  bool warm_done = true;
  ChronicleRow warm_row;
  const std::deque<ChronicleRow>* hot = nullptr;
  size_t hot_pos = 0;

  Status Init(const store::TieredStore* store, const Chronicle* chron) {
    id = chron->id();
    hot = &chron->retained();
    if (store != nullptr && chron->tier_sink() != nullptr) {
      warm = store->OpenWarmCursor(id);
      CHRONICLE_ASSIGN_OR_RETURN(bool more, warm.Next(&warm_row));
      warm_done = !more;
    }
    return Status::OK();
  }
  bool done() const { return warm_done && hot_pos >= hot->size(); }
  SeqNum peek_sn() const {
    return !warm_done ? warm_row.sn : (*hot)[hot_pos].sn;
  }
  Status Pop(ChronicleRow* out) {
    if (!warm_done) {
      *out = std::move(warm_row);
      CHRONICLE_ASSIGN_OR_RETURN(bool more, warm.Next(&warm_row));
      warm_done = !more;
      return Status::OK();
    }
    *out = (*hot)[hot_pos++];  // copy; the chronicle keeps its rows
    return Status::OK();
  }
};

}  // namespace

Result<BackfillReport> ChronicleDatabase::RegisterViewWithBackfill(
    const std::string& name, CaExprPtr plan, SummarySpec spec,
    std::vector<ComputedColumn> computed, IndexMode index_mode) {
  CHRONICLE_ASSIGN_OR_RETURN(
      ViewId id, CreateView(name, std::move(plan), std::move(spec),
                            std::move(computed), index_mode));
  BackfillReport report;
  report.view = id;
  // Replay from the settled tiers; a batch whose seal failed is still read
  // from memory.
  (void)DrainSeals();

  // The replay holds the stats mutex end to end: monitoring snapshots see
  // either the pre-backfill or the converged view, never a torn middle.
  std::lock_guard<std::mutex> lock(obs_mutex_);
  ScopedFlag in_maintenance(&maintenance_in_progress_);

  CHRONICLE_ASSIGN_OR_RETURN(const std::set<ChronicleId>* bases,
                             views_.ViewChronicles(id));
  std::vector<BackfillStream> streams;
  streams.reserve(bases->size());
  for (ChronicleId cid : *bases) {
    CHRONICLE_ASSIGN_OR_RETURN(const Chronicle* chron,
                               group_.GetChronicle(cid));
    if (chron->total_appended() != chron->num_retained()) {
      return Status::FailedPrecondition(
          "cannot backfill '" + name + "': chronicle '" + chron->name() +
          "' retains " + std::to_string(chron->num_retained()) + " of " +
          std::to_string(chron->total_appended()) +
          " appended rows; the view stays registered and is maintained "
          "from now on");
    }
    BackfillStream stream;
    CHRONICLE_RETURN_NOT_OK(stream.Init(store_.get(), chron));
    streams.push_back(std::move(stream));
  }

  // K-way merge by SN: rows sharing one sequence number — across
  // chronicles — are replayed as ONE event, exactly as they were appended
  // (the SN-equijoin depends on it). Chronons are not persisted with
  // retained rows, so replayed events carry chronon == sn.
  MaintenanceReport mreport;
  while (true) {
    SeqNum sn = 0;
    bool any = false;
    for (const BackfillStream& s : streams) {
      if (s.done()) continue;
      if (!any || s.peek_sn() < sn) sn = s.peek_sn();
      any = true;
    }
    if (!any) break;
    AppendEvent event;
    event.sn = sn;
    event.chronon = static_cast<Chronon>(sn);
    for (BackfillStream& s : streams) {
      if (s.done() || s.peek_sn() != sn) continue;
      std::vector<Tuple> tuples;
      ChronicleRow row;
      while (!s.done() && s.peek_sn() == sn) {
        CHRONICLE_RETURN_NOT_OK(s.Pop(&row));
        tuples.push_back(std::move(row.values));
      }
      report.rows_replayed += tuples.size();
      event.inserts.emplace_back(s.id, std::move(tuples));
    }
    mreport.views.clear();  // per-event outcomes would grow unbounded
    mreport.batches.clear();
    CHRONICLE_RETURN_NOT_OK(views_.BackfillView(id, event, &mreport));
    ++report.events_replayed;
  }
  report.delta_rows_applied = mreport.delta_rows_applied;
  ++backfill_views_;
  backfill_rows_ += report.rows_replayed;
  return report;
}

Status ChronicleDatabase::CreatePeriodicView(
    const std::string& name, CaExprPtr plan, SummarySpec spec,
    std::shared_ptr<const Calendar> calendar, PeriodicViewOptions options) {
  if (periodic_by_name_.count(name) != 0) {
    return Status::AlreadyExists("periodic view '" + name + "' already exists");
  }
  CHRONICLE_ASSIGN_OR_RETURN(
      std::unique_ptr<PeriodicViewSet> set,
      PeriodicViewSet::Make(name, std::move(plan), std::move(spec),
                            std::move(calendar), options));
  periodic_by_name_[name] = periodic_.size();
  periodic_.push_back(std::move(set));
  return Status::OK();
}

Status ChronicleDatabase::CreateSlidingView(const std::string& name,
                                            CaExprPtr plan, SummarySpec spec,
                                            Chronon origin, Chronon pane_width,
                                            int64_t num_panes,
                                            IndexMode index_mode) {
  if (sliding_by_name_.count(name) != 0) {
    return Status::AlreadyExists("sliding view '" + name + "' already exists");
  }
  CHRONICLE_ASSIGN_OR_RETURN(
      std::unique_ptr<SlidingWindowView> view,
      SlidingWindowView::Make(name, std::move(plan), std::move(spec), origin,
                              pane_width, num_panes, index_mode));
  sliding_by_name_[name] = sliding_.size();
  sliding_.push_back(std::move(view));
  return Status::OK();
}

Status ChronicleDatabase::DropView(const std::string& name) {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  if (views_.FindView(name).ok()) return views_.DropView(name);
  auto periodic_it = periodic_by_name_.find(name);
  if (periodic_it != periodic_by_name_.end()) {
    periodic_[periodic_it->second].reset();  // tombstone
    periodic_by_name_.erase(periodic_it);
    return Status::OK();
  }
  auto sliding_it = sliding_by_name_.find(name);
  if (sliding_it != sliding_by_name_.end()) {
    sliding_[sliding_it->second].reset();  // tombstone
    sliding_by_name_.erase(sliding_it);
    return Status::OK();
  }
  return Status::NotFound("no view named '" + name + "'");
}

Status ChronicleDatabase::DropRelation(const std::string& name) {
  auto it = relations_by_name_.find(name);
  if (it == relations_by_name_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  const Relation* target = relations_[it->second].get();
  // Plans hold borrowed Relation pointers: refuse while referenced.
  std::set<const Relation*> referenced;
  for (ViewId id = 0; id < views_.num_views(); ++id) {
    Result<const PersistentView*> view =
        static_cast<const ViewManager&>(views_).GetView(id);
    if (view.ok()) (*view)->plan()->CollectRelations(&referenced);
  }
  ForEachPeriodicView([&](const PeriodicViewSet& set) {
    set.plan()->CollectRelations(&referenced);
  });
  ForEachSlidingView([&](const SlidingWindowView& view) {
    view.plan()->CollectRelations(&referenced);
  });
  if (referenced.count(target) != 0) {
    return Status::FailedPrecondition(
        "relation '" + name +
        "' is still referenced by a view; drop the view(s) first");
  }
  relations_[it->second].reset();  // tombstone: addresses stay stable
  relations_by_name_.erase(it);
  return Status::OK();
}

void ChronicleDatabase::PublishDurableSn() {
  if (store_ == nullptr) return;
  MutationLog* log = durability_.mutation_log;
  const SeqNum durable =
      log == nullptr ? std::numeric_limits<SeqNum>::max()
                     : std::max(log_attached_at_sn_, log->durable_sn());
  if (durable == published_durable_sn_) return;
  published_durable_sn_ = durable;
  store_->SetDurableSn(durable);
}

void ChronicleDatabase::AttachMutationLog(MutationLog* log) {
  (void)DrainSeals();  // a failed seal keeps its rows in flight
  options_.durability.mutation_log = log;
  durability_.mutation_log = log;
  log_attached_at_sn_ = group_.last_sn();
  PublishDurableSn();
}

Status ChronicleDatabase::DrainSeals() {
  return store_ != nullptr ? store_->Drain() : Status::OK();
}

Result<CaExprPtr> ChronicleDatabase::ScanChronicle(
    const std::string& name) const {
  CHRONICLE_ASSIGN_OR_RETURN(ChronicleId id, group_.FindChronicle(name));
  auto it = scan_cache_.find(id);
  if (it != scan_cache_.end()) return it->second;
  CHRONICLE_ASSIGN_OR_RETURN(const Chronicle* chron, group_.GetChronicle(id));
  CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr scan, CaExpr::Scan(*chron));
  scan_cache_[id] = scan;
  return scan;
}

Result<Relation*> ChronicleDatabase::GetRelation(const std::string& name) {
  auto it = relations_by_name_.find(name);
  if (it == relations_by_name_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return relations_[it->second].get();
}

Result<const Relation*> ChronicleDatabase::GetRelation(
    const std::string& name) const {
  auto it = relations_by_name_.find(name);
  if (it == relations_by_name_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return static_cast<const Relation*>(relations_[it->second].get());
}

Result<AppendResult> ChronicleDatabase::Maintain(Result<AppendEvent> event) {
  if (!event.ok()) return event.status();
  AppendResult result;
  result.event = std::move(event).value();
  // The monitoring endpoint and the history sampler read stats from their
  // own threads; holding the stats mutex across the fold makes every
  // snapshot a between-ticks cut.
  std::lock_guard<std::mutex> lock(obs_mutex_);
  // Delta workers read relations lock-free; proactive updates must never
  // overlap maintenance (enforced by the guard in the relation DML paths).
  ScopedFlag in_maintenance(&maintenance_in_progress_);
  obs::RequestScopeState* req_scope = obs::RequestScope::Current();
  const int64_t maintain_start =
      req_scope != nullptr ? req_scope->tracer->NowNanos() : 0;
  CHRONICLE_ASSIGN_OR_RETURN(result.maintenance,
                             views_.ProcessAppend(result.event));
  for (const auto& set : periodic_) {
    if (set != nullptr) CHRONICLE_RETURN_NOT_OK(set->ProcessAppend(result.event));
  }
  for (const auto& view : sliding_) {
    if (view != nullptr) {
      CHRONICLE_RETURN_NOT_OK(view->ProcessAppend(result.event));
    }
  }
  if (req_scope != nullptr) {
    // One maintain span per tick, stamped with this engine's shard so the
    // merged tree attributes fan-out work (detail = delta rows folded).
    req_scope->tracer->Emit(
        req_scope->ctx, req_scope->tracer->NewSpanId(), req_scope->root_span,
        obs::ReqStage::kMaintain, trace_shard_, req_scope->worker,
        maintain_start, req_scope->tracer->NowNanos() - maintain_start,
        result.maintenance.delta_rows_applied);
  }
  ++appends_processed_;
  if (recorder_ != nullptr &&
      options_.observability.slow_tick_budget_ns > 0 &&
      result.maintenance.tick_ns >
          options_.observability.slow_tick_budget_ns) {
    RecordSlowTick(result);
  }
  return result;
}

Status ChronicleDatabase::ValidateAppendForLog(
    const std::vector<std::pair<ChronicleId, std::vector<Tuple>>>& inserts,
    Chronon chronon) const {
  if (chronon < group_.last_chronon()) {
    return Status::OutOfRange("chronon " + std::to_string(chronon) +
                              " regresses below " +
                              std::to_string(group_.last_chronon()));
  }
  if (inserts.empty()) {
    return Status::InvalidArgument("append event has no inserts");
  }
  for (const auto& [id, tuples] : inserts) {
    CHRONICLE_ASSIGN_OR_RETURN(const Chronicle* target,
                               group_.GetChronicle(id));
    if (tuples.empty()) {
      return Status::InvalidArgument("empty tuple batch for chronicle '" +
                                     target->name() + "'");
    }
    for (const Tuple& t : tuples) {
      CHRONICLE_RETURN_NOT_OK(ValidateTuple(target->schema(), t));
    }
  }
  return Status::OK();
}

Result<AppendResult> ChronicleDatabase::AppendInternal(
    std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts,
    Chronon chronon) {
  obs::RequestScopeState* req_scope = obs::RequestScope::Current();
  const int64_t wal_start =
      req_scope != nullptr ? req_scope->tracer->NowNanos() : 0;
  if (durability_.mutation_log != nullptr) {
    // Write-ahead: validate (so the log never records a tick that fails to
    // apply), then log under the sequence number the tick will receive.
    CHRONICLE_RETURN_NOT_OK(ValidateAppendForLog(inserts, chronon));
    CHRONICLE_RETURN_NOT_OK(durability_.mutation_log->LogAppend(
        group_.last_sn() + 1, chronon, inserts));
    PublishDurableSn();
  }
  if (req_scope != nullptr) {
    // Emitted even with no log attached (~0ns) so every sampled append's
    // tree carries the full fixed stage set.
    req_scope->tracer->Emit(
        req_scope->ctx, req_scope->tracer->NewSpanId(), req_scope->root_span,
        obs::ReqStage::kWalCommit, trace_shard_, req_scope->worker, wal_start,
        req_scope->tracer->NowNanos() - wal_start,
        durability_.mutation_log != nullptr ? 1 : 0);
  }
  // With a log attached, ValidateAppendForLog already checked every tuple.
  return Maintain(group_.AppendMulti(std::move(inserts), chronon,
                                     durability_.mutation_log != nullptr));
}

Result<AppendResult> ChronicleDatabase::Append(const std::string& chronicle,
                                               std::vector<Tuple> tuples) {
  return Append(chronicle, std::move(tuples), group_.last_chronon() + 1);
}

Result<AppendResult> ChronicleDatabase::Append(const std::string& chronicle,
                                               std::vector<Tuple> tuples,
                                               Chronon chronon) {
  CHRONICLE_ASSIGN_OR_RETURN(ChronicleId id, group_.FindChronicle(chronicle));
  std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts;
  inserts.emplace_back(id, std::move(tuples));
  return AppendInternal(std::move(inserts), chronon);
}

Result<AppendResult> ChronicleDatabase::AppendMulti(
    std::vector<std::pair<std::string, std::vector<Tuple>>> inserts,
    Chronon chronon) {
  std::vector<std::pair<ChronicleId, std::vector<Tuple>>> resolved;
  resolved.reserve(inserts.size());
  for (auto& [name, tuples] : inserts) {
    CHRONICLE_ASSIGN_OR_RETURN(ChronicleId id, group_.FindChronicle(name));
    resolved.emplace_back(id, std::move(tuples));
  }
  return AppendInternal(std::move(resolved), chronon);
}

Result<std::vector<AppendResult>> ChronicleDatabase::AppendMany(
    const std::string& chronicle, std::vector<std::vector<Tuple>> batches) {
  if (batches.empty()) {
    return Status::InvalidArgument("AppendMany with no batches");
  }
  CHRONICLE_ASSIGN_OR_RETURN(ChronicleId id, group_.FindChronicle(chronicle));
  std::vector<std::vector<std::pair<ChronicleId, std::vector<Tuple>>>> ticks;
  ticks.reserve(batches.size());
  for (auto& tuples : batches) {
    std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts;
    inserts.emplace_back(id, std::move(tuples));
    ticks.push_back(std::move(inserts));
  }
  const Chronon first_chronon = group_.last_chronon() + 1;
  obs::RequestScopeState* req_scope = obs::RequestScope::Current();
  const int64_t wal_start =
      req_scope != nullptr ? req_scope->tracer->NowNanos() : 0;
  if (durability_.mutation_log != nullptr) {
    // Write-ahead, batch-wide: validate EVERY tick against the SN/chronon
    // sequence it will receive, then log the whole batch (one group-commit
    // sync) before the first tick is applied. Nothing is logged — and
    // nothing applied — if any tick would fail.
    std::vector<PendingAppend> pending;
    pending.reserve(ticks.size());
    for (size_t i = 0; i < ticks.size(); ++i) {
      const Chronon chronon = first_chronon + static_cast<Chronon>(i);
      CHRONICLE_RETURN_NOT_OK(ValidateAppendForLog(ticks[i], chronon));
      pending.push_back(PendingAppend{
          group_.last_sn() + 1 + static_cast<SeqNum>(i), chronon, &ticks[i]});
    }
    CHRONICLE_RETURN_NOT_OK(durability_.mutation_log->LogAppendMany(pending));
    PublishDurableSn();
  }
  if (req_scope != nullptr) {
    // One wal_commit span for the whole group-committed batch (emitted even
    // with no log attached — see AppendInternal). detail = ticks covered.
    req_scope->tracer->Emit(
        req_scope->ctx, req_scope->tracer->NewSpanId(), req_scope->root_span,
        obs::ReqStage::kWalCommit, trace_shard_, req_scope->worker, wal_start,
        req_scope->tracer->NowNanos() - wal_start,
        durability_.mutation_log != nullptr ? ticks.size() : 0);
  }
  std::vector<AppendResult> results;
  results.reserve(ticks.size());
  for (size_t i = 0; i < ticks.size(); ++i) {
    CHRONICLE_ASSIGN_OR_RETURN(
        AppendResult result,
        Maintain(group_.AppendMulti(std::move(ticks[i]),
                                    first_chronon + static_cast<Chronon>(i),
                                    durability_.mutation_log != nullptr)));
    results.push_back(std::move(result));
  }
  if (metrics_ != nullptr) {
    metrics_->Observe(m_append_batch_ticks_,
                      static_cast<int64_t>(results.size()));
  }
  return results;
}

obs::StatsSnapshot ChronicleDatabase::CollectStats() const {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  return CollectStatsLocked();
}

obs::StatsSnapshot ChronicleDatabase::CollectStatsLocked() const {
  obs::StatsSnapshot snap;
  snap.appends_processed = appends_processed_;
  snap.live_views = views_.num_live_views();
  snap.delta_cache_hits = views_.delta_cache_hits();
  snap.delta_cache_misses = views_.delta_cache_misses();
  if (metrics_ != nullptr) metrics_->Snapshot(&snap.metrics);
  views_.SnapshotViewStats(&snap.views);
  if (trace_ != nullptr) {
    snap.trace_emitted = trace_->total_emitted();
    snap.trace_capacity = trace_->capacity();
  }
  if (store_ != nullptr) {
    snap.storage.attached = true;
    snap.storage.data_dir = store_->options().data_dir;
    static_cast<obs::StoreCounters&>(snap.storage) = store_->counters();
    snap.storage.backfill_views = backfill_views_;
    snap.storage.backfill_rows = backfill_rows_;
    for (ChronicleId id = 0; id < group_.num_chronicles(); ++id) {
      const Chronicle* chron = group_.GetChronicle(id).value();
      if (chron->tier_sink() == nullptr) continue;
      const store::WarmTierInfo warm = store_->TierOf(id);
      obs::ChronicleTierSnapshot tier;
      tier.name = chron->name();
      tier.hot_rows = chron->retained().size() + warm.in_flight_rows;
      tier.hot_bytes = chron->MemoryFootprint() + warm.in_flight_bytes;
      tier.warm_segments = warm.segments;
      tier.warm_rows = warm.rows;
      tier.warm_bytes = warm.bytes;
      tier.warm_raw_bytes = warm.raw_bytes;
      tier.last_sealed_sn = warm.last_sealed_sn;
      snap.storage.chronicles.push_back(std::move(tier));
    }
  }
  if (stats_enricher_) stats_enricher_(&snap);
  return snap;
}

void ChronicleDatabase::set_stats_enricher(
    std::function<void(obs::StatsSnapshot*)> enricher) {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  stats_enricher_ = std::move(enricher);
}

Status ChronicleDatabase::StartMonitoring(uint16_t port) {
  if (http_ != nullptr) {
    return Status::FailedPrecondition("monitoring endpoint already active");
  }
  if (options_.observability.history_capacity > 0 && history_ == nullptr) {
    history_ = std::make_unique<obs::StatsHistory>(
        options_.observability.history_capacity);
  }
  auto server = std::make_unique<obs::HttpServer>();
  CHRONICLE_RETURN_NOT_OK(server->Start(
      port,
      [this](const obs::HttpRequest& req) { return HandleHttpRequest(req); }));
  http_ = std::move(server);
  if (history_ != nullptr) {
    sampler_ = std::make_unique<obs::StatsSampler>(
        history_.get(), [this] { return CollectStats(); },
        options_.observability.history_interval_ms);
  }
  return Status::OK();
}

void ChronicleDatabase::StopMonitoring() {
  http_.reset();     // joins the accept thread; no more handler callbacks
  sampler_.reset();  // joins the sampler; history_ (the data) survives
}

bool ChronicleDatabase::monitoring_active() const {
  return http_ != nullptr && http_->running();
}

uint16_t ChronicleDatabase::monitoring_port() const {
  return http_ != nullptr ? http_->port() : 0;
}

void ChronicleDatabase::SampleStatsNow() {
  if (history_ == nullptr) {
    history_ = std::make_unique<obs::StatsHistory>(
        options_.observability.history_capacity);
  }
  if (sampler_ != nullptr) {
    sampler_->SampleNow();
    return;
  }
  const int64_t t_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count();
  history_->Push(t_ns, CollectStats());
}

Result<std::string> ChronicleDatabase::ExplainView(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  return views_.ExplainView(name);
}

Result<std::string> ChronicleDatabase::ExplainViewJson(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  return views_.ExplainViewJson(name);
}

void ChronicleDatabase::SetPlanProfiling(bool enabled) {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  options_.observability.profile_plan_slots = enabled;
  views_.set_plan_profiling(enabled, options_.observability.slot_sample_period);
}

uint64_t ChronicleDatabase::flight_recorder_dumps() const {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  return recorder_ != nullptr ? recorder_->dumps_written() : 0;
}

Result<std::string> ChronicleDatabase::RecordSlowRequest(
    uint64_t trace_hi, uint64_t trace_lo, int64_t total_ns, int64_t budget_ns,
    const std::string& snapshot_json, const std::string& trace_json) {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  if (recorder_ == nullptr) {
    return Status::FailedPrecondition(
        "no flight recorder (set slow_request_budget_ns at open)");
  }
  return recorder_->RecordSlowRequest(trace_hi, trace_lo, total_ns, budget_ns,
                                      snapshot_json, trace_json);
}

void ChronicleDatabase::RecordSlowTick(const AppendResult& result) {
  // Called under obs_mutex_. Best-effort: a dump failure must never fail
  // the append that triggered it.
  const std::string snapshot_json = obs::RenderJson(CollectStatsLocked());
  std::string trace_json = "null";
  if (trace_ != nullptr && trace_->enabled()) {
    trace_json = obs::RenderTraceJson(trace_->Snapshot(),
                                      trace_->total_emitted(),
                                      trace_->capacity());
  }
  // The offending view: most delta rows this tick (a heuristic, but the
  // dominant cost on the slow path is folding delta rows).
  std::string explain_json = "null";
  const MaintenanceViewOutcome* worst = nullptr;
  for (const MaintenanceViewOutcome& outcome : result.maintenance.views) {
    if (worst == nullptr || outcome.delta_rows > worst->delta_rows) {
      worst = &outcome;
    }
  }
  if (worst != nullptr) {
    Result<const PersistentView*> view =
        static_cast<const ViewManager&>(views_).GetView(worst->view);
    if (view.ok()) {
      Result<std::string> explain = views_.ExplainViewJson((*view)->name());
      if (explain.ok()) explain_json = *std::move(explain);
    }
  }
  Result<std::string> dumped = recorder_->RecordSlowTick(
      result.event.sn, result.maintenance.tick_ns,
      options_.observability.slow_tick_budget_ns, snapshot_json, trace_json,
      explain_json);
  (void)dumped;
}

obs::HttpResponse ChronicleDatabase::HandleHttpRequest(
    const obs::HttpRequest& request) const {
  obs::HttpResponse response;
  if (request.path == "/metrics") {
    // Prometheus scrapers want the version-suffixed content type.
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::RenderPrometheus(CollectStats());
    return response;
  }
  if (request.path == "/stats.json") {
    response.content_type = "application/json";
    response.body = obs::RenderJson(CollectStats());
    return response;
  }
  if (request.path == "/trace.json") {
    response.content_type = "application/json";
    if (trace_ != nullptr && trace_->enabled()) {
      response.body = obs::RenderTraceJson(
          trace_->Snapshot(), trace_->total_emitted(), trace_->capacity());
    } else {
      response.body = "{\"emitted\":0,\"capacity\":0,\"spans\":[]}";
    }
    return response;
  }
  if (request.path == "/requests.json") {
    response.content_type = "application/json";
    if (request_tracer_ != nullptr && request_tracer_->enabled()) {
      response.body = request_tracer_->RenderRequestsJson();
    } else {
      response.body =
          "{\"emitted\":0,\"capacity\":0,\"sample_rate\":0,\"traces\":[]}";
    }
    return response;
  }
  if (request.path == "/history.json") {
    response.content_type = "application/json";
    if (history_ != nullptr) {
      response.body = obs::RenderHistoryJson(
          history_->Windows(), history_->total_samples(), history_->capacity());
    } else {
      response.body = "{\"samples\":0,\"capacity\":0,\"windows\":[]}";
    }
    return response;
  }
  if (request.path == "/healthz") {
    const obs::StatsSnapshot snap = CollectStats();
    response.content_type = "application/json";
    response.body =
        "{\"status\":\"ok\",\"appends_processed\":" +
        std::to_string(snap.appends_processed) +
        ",\"live_views\":" + std::to_string(snap.live_views) +
        ",\"wal_attached\":" + (snap.wal.attached ? "true" : "false") + "}";
    return response;
  }
  // /views/<name>/explain.json
  const std::string prefix = "/views/";
  const std::string suffix = "/explain.json";
  if (request.path.size() > prefix.size() + suffix.size() &&
      request.path.compare(0, prefix.size(), prefix) == 0 &&
      request.path.compare(request.path.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
    const std::string name = request.path.substr(
        prefix.size(), request.path.size() - prefix.size() - suffix.size());
    Result<std::string> explain = ExplainViewJson(name);
    if (!explain.ok()) {
      response.status = 404;
      response.content_type = "application/json";
      response.body = "{\"error\":\"" +
                      JsonEscape(explain.status().message()) + "\"}";
      return response;
    }
    response.content_type = "application/json";
    response.body = *std::move(explain);
    return response;
  }
  response.status = 404;
  response.body = "not found: " + request.path + "\n";
  return response;
}

Status ChronicleDatabase::InsertInto(const std::string& relation, Tuple row) {
  if (maintenance_in_progress_) {
    return Status::FailedPrecondition(
        "relation mutated during append maintenance; relations are "
        "proactive-only (§2.3) and delta workers read them lock-free");
  }
  CHRONICLE_ASSIGN_OR_RETURN(Relation * rel, GetRelation(relation));
  if (durability_.mutation_log != nullptr) {
    // Mirror Relation::Insert's checks so the log only records inserts
    // that will apply.
    CHRONICLE_RETURN_NOT_OK(ValidateTuple(rel->schema(), row));
    if (rel->has_key()) {
      const Value& key = row[rel->key_index()];
      if (key.is_null()) {
        return Status::InvalidArgument("NULL key in relation '" + relation +
                                       "'");
      }
      if (rel->LookupByKey(key).ok()) {
        return Status::AlreadyExists("duplicate key " + key.ToString() +
                                     " in relation '" + relation + "'");
      }
    }
    CHRONICLE_RETURN_NOT_OK(
        durability_.mutation_log->LogRelationInsert(relation, row));
  }
  return rel->Insert(std::move(row));
}

Status ChronicleDatabase::UpdateRelation(const std::string& relation,
                                         const Value& key, Tuple new_row) {
  if (maintenance_in_progress_) {
    return Status::FailedPrecondition(
        "relation mutated during append maintenance; relations are "
        "proactive-only (§2.3) and delta workers read them lock-free");
  }
  CHRONICLE_ASSIGN_OR_RETURN(Relation * rel, GetRelation(relation));
  if (durability_.mutation_log != nullptr) {
    CHRONICLE_RETURN_NOT_OK(ValidateTuple(rel->schema(), new_row));
    if (!rel->has_key()) {
      return Status::FailedPrecondition("relation '" + relation +
                                        "' has no key");
    }
    CHRONICLE_RETURN_NOT_OK(rel->LookupByKey(key).status());
    const Value& new_key = new_row[rel->key_index()];
    if (new_key.is_null()) {
      return Status::InvalidArgument("NULL key in relation '" + relation +
                                     "'");
    }
    if (new_key != key && rel->LookupByKey(new_key).ok()) {
      return Status::AlreadyExists("duplicate key " + new_key.ToString() +
                                   " in relation '" + relation + "'");
    }
    CHRONICLE_RETURN_NOT_OK(
        durability_.mutation_log->LogRelationUpdate(relation, key, new_row));
  }
  return rel->UpdateByKey(key, std::move(new_row));
}

Status ChronicleDatabase::DeleteFrom(const std::string& relation,
                                     const Value& key) {
  if (maintenance_in_progress_) {
    return Status::FailedPrecondition(
        "relation mutated during append maintenance; relations are "
        "proactive-only (§2.3) and delta workers read them lock-free");
  }
  CHRONICLE_ASSIGN_OR_RETURN(Relation * rel, GetRelation(relation));
  if (durability_.mutation_log != nullptr) {
    if (!rel->has_key()) {
      return Status::FailedPrecondition("relation '" + relation +
                                        "' has no key");
    }
    CHRONICLE_RETURN_NOT_OK(rel->LookupByKey(key).status());
    CHRONICLE_RETURN_NOT_OK(
        durability_.mutation_log->LogRelationDelete(relation, key));
  }
  return rel->DeleteByKey(key);
}

Result<Tuple> ChronicleDatabase::QueryView(const std::string& view,
                                           const Tuple& key) const {
  CHRONICLE_ASSIGN_OR_RETURN(const PersistentView* v, views_.FindView(view));
  return v->Lookup(key);
}

Result<std::vector<Tuple>> ChronicleDatabase::ScanView(
    const std::string& view) const {
  CHRONICLE_ASSIGN_OR_RETURN(const PersistentView* v, views_.FindView(view));
  std::vector<Tuple> rows;
  CHRONICLE_RETURN_NOT_OK(v->Scan([&](const Tuple& row) { rows.push_back(row); }));
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    return TupleCompare(a, b) < 0;
  });
  return rows;
}

Result<const PersistentView*> ChronicleDatabase::GetView(
    const std::string& name) const {
  return views_.FindView(name);
}

Result<const PeriodicViewSet*> ChronicleDatabase::GetPeriodicView(
    const std::string& name) const {
  auto it = periodic_by_name_.find(name);
  if (it == periodic_by_name_.end()) {
    return Status::NotFound("no periodic view named '" + name + "'");
  }
  return static_cast<const PeriodicViewSet*>(periodic_[it->second].get());
}

void ChronicleDatabase::ForEachRelation(
    const std::function<void(const Relation&)>& fn) const {
  for (const auto& rel : relations_) {
    if (rel != nullptr) fn(*rel);
  }
}

void ChronicleDatabase::ForEachPeriodicView(
    const std::function<void(const PeriodicViewSet&)>& fn) const {
  for (const auto& set : periodic_) {
    if (set != nullptr) fn(*set);
  }
}

void ChronicleDatabase::ForEachSlidingView(
    const std::function<void(const SlidingWindowView&)>& fn) const {
  for (const auto& view : sliding_) {
    if (view != nullptr) fn(*view);
  }
}

Result<PeriodicViewSet*> ChronicleDatabase::GetPeriodicViewMutable(
    const std::string& name) {
  auto it = periodic_by_name_.find(name);
  if (it == periodic_by_name_.end()) {
    return Status::NotFound("no periodic view named '" + name + "'");
  }
  return periodic_[it->second].get();
}

Result<SlidingWindowView*> ChronicleDatabase::GetSlidingViewMutable(
    const std::string& name) {
  auto it = sliding_by_name_.find(name);
  if (it == sliding_by_name_.end()) {
    return Status::NotFound("no sliding view named '" + name + "'");
  }
  return sliding_[it->second].get();
}

Result<std::vector<ChronicleRow>> ChronicleDatabase::QueryRecentWindow(
    const CaExpr& plan) const {
  NaiveEngine engine(&group_, nullptr, ScanScope::kRetainedWindow);
  return engine.Evaluate(plan);
}

Result<std::vector<Tuple>> ChronicleDatabase::QueryRecentWindowSummary(
    const CaExpr& plan, const SummarySpec& spec) const {
  NaiveEngine engine(&group_, nullptr, ScanScope::kRetainedWindow);
  return engine.EvaluateSummary(plan, spec);
}

Result<const SlidingWindowView*> ChronicleDatabase::GetSlidingView(
    const std::string& name) const {
  auto it = sliding_by_name_.find(name);
  if (it == sliding_by_name_.end()) {
    return Status::NotFound("no sliding view named '" + name + "'");
  }
  return static_cast<const SlidingWindowView*>(sliding_[it->second].get());
}

}  // namespace chronicle
