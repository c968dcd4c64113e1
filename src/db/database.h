// ChronicleDatabase: the user-facing facade of the chronicle data model —
// the quadruple (C, R, L, V) of Definition 2.1 plus the maintenance driver.
//
//   C — a chronicle group (shared sequence-number domain);
//   R — relations, updated proactively;
//   L — view definitions: chronicle-algebra plans + SCA summarization
//       (built directly through CaExpr/SummarySpec, or declaratively via
//       CQL, see cql/);
//   V — persistent views, periodic view sets, and sliding-window views,
//       all maintained automatically on every append.
//
// A single Append() call performs the transaction-recording step the paper
// targets: assign a fresh sequence number, store (per retention policy),
// and incrementally maintain every affected view before returning.

#ifndef CHRONICLE_DB_DATABASE_H_
#define CHRONICLE_DB_DATABASE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "periodic/periodic_view.h"
#include "periodic/sliding_window.h"
#include "storage/chronicle_group.h"
#include "storage/relation.h"
#include "store/tiered_store.h"
#include "views/view_manager.h"

namespace chronicle {

namespace obs {
// Monitoring machinery (obs/http_server.h, obs/history.h,
// obs/flight_recorder.h), forward-declared so the facade header stays
// light; the out-of-line destructor below keeps unique_ptr happy.
class HttpServer;
class StatsHistory;
class StatsSampler;
class FlightRecorder;
class RequestTracer;
struct HttpRequest;
struct HttpResponse;
}  // namespace obs

class ChronicleDatabase;

namespace checkpoint {
// Declared here so checkpoint restore — and nothing else — can be granted
// friend access to the append-counter rewind below.
Status RestoreDatabase(const std::string& image, ChronicleDatabase* db);
}  // namespace checkpoint

// Result of one Append: the event that was recorded plus what maintenance
// it triggered.
struct AppendResult {
  AppendEvent event;
  MaintenanceReport maintenance;
};

// Durability hook (implemented by src/wal): each DML entry point calls
// exactly one Log* method after the operation has been validated and
// BEFORE it is applied, so the log never records an operation that fails
// and never misses one that succeeds. A non-OK status from the hook aborts
// the operation. `inserts` carry chronicle ids; resolve them to names (the
// durable identity) through the database's group().
// One not-yet-applied append tick of an AppendMany batch, with the SN and
// chronon it WILL receive. `inserts` is borrowed from the caller and only
// valid for the duration of the LogAppendMany call.
struct PendingAppend {
  SeqNum sn = 0;
  Chronon chronon = 0;
  const std::vector<std::pair<ChronicleId, std::vector<Tuple>>>* inserts =
      nullptr;
};

class MutationLog {
 public:
  virtual ~MutationLog() = default;
  virtual Status LogAppend(
      SeqNum sn, Chronon chronon,
      const std::vector<std::pair<ChronicleId, std::vector<Tuple>>>&
          inserts) = 0;
  // Logs a whole AppendMany batch. Ticks must be recorded in order (their
  // SNs are consecutive); the write-ahead contract is per BATCH: every
  // tick is logged before the FIRST one is applied, so a crash can never
  // leave the log missing a tick that was applied. The default simply
  // loops LogAppend; implementations override to amortize one group-commit
  // sync across the batch.
  virtual Status LogAppendMany(const std::vector<PendingAppend>& ticks) {
    for (const PendingAppend& tick : ticks) {
      CHRONICLE_RETURN_NOT_OK(LogAppend(tick.sn, tick.chronon, *tick.inserts));
    }
    return Status::OK();
  }
  // Forces everything logged so far to stable storage. The tiered store
  // calls this (through the database's pre-seal barrier) before writing a
  // segment, upholding the write-ahead rule: rows never become durable in
  // the store before their log records are. Default: nothing to sync.
  virtual Status Sync() { return Status::OK(); }
  virtual Status LogRelationInsert(const std::string& relation,
                                   const Tuple& row) = 0;
  virtual Status LogRelationUpdate(const std::string& relation,
                                   const Value& key, const Tuple& row) = 0;
  virtual Status LogRelationDelete(const std::string& relation,
                                   const Value& key) = 0;
};

struct DurabilityOptions {
  // Borrowed write-ahead hook; must outlive the database. nullptr runs the
  // database without durability (the seed behavior).
  MutationLog* mutation_log = nullptr;
};

// Horizontal partitioning (src/shard/sharded_db.h). ChronicleDatabase
// itself ignores this block — it always runs a single engine.
// shard::ShardedDatabase::Open consumes it to decide how many per-shard
// engines to spin up and which column routes each row. num_shards == 1 is
// the equivalence oracle: the router forwards every call verbatim to one
// engine, so results are bit-identical to an unsharded database.
struct ShardingOptions {
  // Number of shards (per-shard engines). 1 = unsharded passthrough.
  size_t num_shards = 1;
  // Column that routes rows to shards. Every chronicle must have a column
  // with this name. Empty = each chronicle's first column.
  std::string partition_key;
  // Capacity (rounded up to a power of two) of each producer->shard SPSC
  // ring used by the async ingest pipeline.
  size_t queue_capacity = 1024;
  // When non-empty, ShardedDatabase owns one WAL per shard under
  // <wal_dir>/shard-<k> and recovery replays each shard independently.
  // Empty = no router-owned durability (callers may still attach their
  // own per-engine logs).
  std::string wal_dir;
};

// The single configuration entry point for a ChronicleDatabase. Every knob
// that used to be scattered across the constructor (routing), post-hoc
// setters (long removed), and per-call default arguments (retention) lives
// here, next to the new ObservabilityOptions. Runtime reconfiguration goes
// through ReconfigureMaintenance / AttachMutationLog only.
// Builder-style: each set_* returns *this, so construction reads as one
// expression:
//
//   ChronicleDatabase db(DatabaseOptions()
//                            .set_routing(RoutingMode::kEqIndex)
//                            .set_num_threads(4)
//                            .set_trace_capacity(1024));
//
// Plain aggregate access (options.maintenance.num_threads = 4) works too;
// the setters are sugar, not gatekeepers.
struct DatabaseOptions {
  RoutingMode routing = RoutingMode::kEqIndex;
  MaintenanceOptions maintenance;
  DurabilityOptions durability;
  // Retention applied by CreateChronicle calls that do not pass their own
  // policy.
  RetentionPolicy default_retention = RetentionPolicy::All();
  obs::ObservabilityOptions observability;
  // Tiered storage (src/store): chronicles created with kTiered retention
  // spill rows past their hot window into segment files under
  // storage.data_dir. An empty data_dir leaves the store detached and
  // makes kTiered chronicles an error.
  store::StorageOptions storage;
  // Horizontal partitioning, consumed by shard::ShardedDatabase::Open
  // (ignored by a directly-constructed ChronicleDatabase).
  ShardingOptions sharding;

  DatabaseOptions& set_routing(RoutingMode mode) {
    routing = mode;
    return *this;
  }
  DatabaseOptions& set_maintenance(const MaintenanceOptions& m) {
    maintenance = m;
    return *this;
  }
  DatabaseOptions& set_num_threads(size_t n) {
    maintenance.num_threads = n;
    return *this;
  }
  DatabaseOptions& set_use_columnar_kernels(bool on) {
    maintenance.use_columnar_kernels = on;
    return *this;
  }
  DatabaseOptions& set_mutation_log(MutationLog* log) {
    durability.mutation_log = log;
    return *this;
  }
  DatabaseOptions& set_default_retention(RetentionPolicy policy) {
    default_retention = policy;
    return *this;
  }
  DatabaseOptions& set_observability(const obs::ObservabilityOptions& o) {
    observability = o;
    return *this;
  }
  DatabaseOptions& set_metrics(bool on) {
    observability.metrics = on;
    return *this;
  }
  DatabaseOptions& set_trace_capacity(size_t slots) {
    observability.trace_capacity = slots;
    return *this;
  }
  DatabaseOptions& set_profile_view_latency(bool on) {
    observability.profile_view_latency = on;
    return *this;
  }
  DatabaseOptions& set_profile_plan_slots(bool on) {
    observability.profile_plan_slots = on;
    return *this;
  }
  DatabaseOptions& set_slot_sample_period(size_t period) {
    observability.slot_sample_period = period;
    return *this;
  }
  DatabaseOptions& set_history(size_t capacity, int64_t interval_ms) {
    observability.history_capacity = capacity;
    observability.history_interval_ms = interval_ms;
    return *this;
  }
  DatabaseOptions& set_slow_tick_budget_ns(int64_t budget_ns) {
    observability.slow_tick_budget_ns = budget_ns;
    return *this;
  }
  DatabaseOptions& set_flight_recorder(std::string dir, size_t max_dumps) {
    observability.flight_recorder_dir = std::move(dir);
    observability.flight_recorder_max_dumps = max_dumps;
    return *this;
  }
  DatabaseOptions& set_request_trace(size_t capacity, double sample_rate) {
    observability.request_trace_capacity = capacity;
    observability.request_sample_rate = sample_rate;
    return *this;
  }
  DatabaseOptions& set_slow_request_budget_ns(int64_t budget_ns) {
    observability.slow_request_budget_ns = budget_ns;
    return *this;
  }
  DatabaseOptions& set_storage(const store::StorageOptions& s) {
    storage = s;
    return *this;
  }
  DatabaseOptions& set_data_dir(std::string dir) {
    storage.data_dir = std::move(dir);
    return *this;
  }
  DatabaseOptions& set_sharding(const ShardingOptions& s) {
    sharding = s;
    return *this;
  }
  DatabaseOptions& set_num_shards(size_t n) {
    sharding.num_shards = n;
    return *this;
  }
  DatabaseOptions& set_partition_key(std::string column) {
    sharding.partition_key = std::move(column);
    return *this;
  }
};

// What RegisterViewWithBackfill replayed to bring the late view current.
struct BackfillReport {
  ViewId view = 0;
  uint64_t events_replayed = 0;      // synthetic ticks fed to the view
  uint64_t rows_replayed = 0;        // chronicle rows streamed (warm + hot)
  uint64_t delta_rows_applied = 0;   // rows folded into the view
};

class ChronicleDatabase {
 public:
  // The one real constructor: everything is configured through options.
  explicit ChronicleDatabase(DatabaseOptions options = DatabaseOptions());

  // Legacy routing-only construction; forwards to the options constructor.
  // Prefer ChronicleDatabase(DatabaseOptions().set_routing(...)).
  explicit ChronicleDatabase(RoutingMode routing);

  // Heap-allocating convenience for callers that keep the database behind
  // a pointer (the shell, benches): Open(options) reads better than
  // make_unique at every such site and is the natural place for future
  // open-time work (e.g. attaching recovery).
  static std::unique_ptr<ChronicleDatabase> Open(
      DatabaseOptions options = DatabaseOptions());

  ChronicleDatabase(const ChronicleDatabase&) = delete;
  ChronicleDatabase& operator=(const ChronicleDatabase&) = delete;

  // Out-of-line: stops the monitoring endpoint and sampler (their threads
  // call back into this object) before any member is destroyed.
  ~ChronicleDatabase();

  // --- DDL ---

  // Without an explicit policy, the chronicle gets
  // options().default_retention.
  Result<ChronicleId> CreateChronicle(const std::string& name, Schema schema);
  Result<ChronicleId> CreateChronicle(const std::string& name, Schema schema,
                                      RetentionPolicy retention);

  Result<RelationId> CreateRelation(const std::string& name, Schema schema,
                                    const std::string& key_column = "",
                                    IndexMode index_mode = IndexMode::kHash);

  // Registers a persistent view over `plan` (validated as chronicle
  // algebra) with summarization `spec`.
  Result<ViewId> CreateView(const std::string& name, CaExprPtr plan,
                            SummarySpec spec,
                            std::vector<ComputedColumn> computed = {},
                            IndexMode index_mode = IndexMode::kHash);

  // Late view registration with replayable backfill (docs/STORAGE.md):
  // registers the view exactly like CreateView, then rebuilds its state by
  // streaming every retained row of its base chronicles — warm segments
  // first, then the hot window — through the normal maintenance path, so
  // the result is byte-identical to a view registered at SN 0. Requires
  // every base chronicle to have retained its full history (kAll, or
  // kTiered with no evictions); fails with FailedPrecondition otherwise,
  // leaving the view registered but only maintained from now on. Replayed
  // events carry chronon == sn (retained rows do not persist chronons), so
  // plans must not select on chronons — persistent CA views never do.
  Result<BackfillReport> RegisterViewWithBackfill(
      const std::string& name, CaExprPtr plan, SummarySpec spec,
      std::vector<ComputedColumn> computed = {},
      IndexMode index_mode = IndexMode::kHash);

  // Registers a periodic view set V<D> (§5.1).
  Status CreatePeriodicView(const std::string& name, CaExprPtr plan,
                            SummarySpec spec,
                            std::shared_ptr<const Calendar> calendar,
                            PeriodicViewOptions options = {});

  // Registers a pane-optimized sliding-window view (§5.1).
  Status CreateSlidingView(const std::string& name, CaExprPtr plan,
                           SummarySpec spec, Chronon origin, Chronon pane_width,
                           int64_t num_panes,
                           IndexMode index_mode = IndexMode::kHash);

  // Drops a view of any kind (persistent, periodic, or sliding) by name:
  // its materialized state is discarded and maintenance stops.
  Status DropView(const std::string& name);

  // Drops a relation. Refused with FailedPrecondition while any live view's
  // plan still joins against it (plans hold borrowed pointers).
  Status DropRelation(const std::string& name);

  // --- plan building bound to this database's objects ---

  // Scan node over a chronicle by name. The node is cached per chronicle,
  // so every view built through this call shares one scan node and the
  // maintenance path computes its delta once per tick (DAG sharing).
  Result<CaExprPtr> ScanChronicle(const std::string& name) const;
  // Borrowed relation pointer (stable for the database's lifetime).
  Result<Relation*> GetRelation(const std::string& name);
  Result<const Relation*> GetRelation(const std::string& name) const;

  // --- DML ---

  // Appends tuples to a chronicle under a fresh sequence number (chronon
  // advances by 1) and maintains every affected view.
  Result<AppendResult> Append(const std::string& chronicle,
                              std::vector<Tuple> tuples);
  // Same with an explicit chronon (must be non-decreasing).
  Result<AppendResult> Append(const std::string& chronicle,
                              std::vector<Tuple> tuples, Chronon chronon);
  // Multi-chronicle tick: one sequence number across several chronicles.
  Result<AppendResult> AppendMulti(
      std::vector<std::pair<std::string, std::vector<Tuple>>> inserts,
      Chronon chronon);
  // Batched ingest: each element of `batches` becomes one tick (fresh SN,
  // chronon advancing by 1 per tick), maintained in order. Amortizes two
  // per-tick costs across the batch: the WAL sync (all ticks are validated
  // up front and logged with ONE group commit before the first applies)
  // and, under parallel maintenance, pool dispatch against a warm pool.
  // With no WAL attached a mid-batch validation failure behaves like a
  // failing Append in a loop: earlier ticks stay applied.
  Result<std::vector<AppendResult>> AppendMany(
      const std::string& chronicle, std::vector<std::vector<Tuple>> batches);

  // Proactive relation updates (§2.3). They take effect for all FUTURE
  // sequence numbers; the model forbids retroactive updates by design.
  Status InsertInto(const std::string& relation, Tuple row);
  Status UpdateRelation(const std::string& relation, const Value& key,
                        Tuple new_row);
  Status DeleteFrom(const std::string& relation, const Value& key);

  // --- queries ---

  // Summary query: point lookup on a persistent view — the subsecond path.
  Result<Tuple> QueryView(const std::string& view, const Tuple& key) const;
  // All finalized rows of a view, sorted by key.
  Result<std::vector<Tuple>> ScanView(const std::string& view) const;

  Result<const PeriodicViewSet*> GetPeriodicView(const std::string& name) const;
  Result<const SlidingWindowView*> GetSlidingView(const std::string& name) const;

  // Borrowed const view pointer by name (stable while the view is live) —
  // the facade-level twin of GetRelation.
  Result<const PersistentView*> GetView(const std::string& name) const;

  // Detail query over the RETAINED window of the plan's base chronicles
  // (§2.2): evaluates `plan` against whatever the retention policies kept.
  // This is the one query path that reads chronicle storage; summary
  // queries should use persistent views instead.
  Result<std::vector<ChronicleRow>> QueryRecentWindow(const CaExpr& plan) const;
  // Same, with a summarization step applied (rows sorted by key).
  Result<std::vector<Tuple>> QueryRecentWindowSummary(
      const CaExpr& plan, const SummarySpec& spec) const;

  // --- introspection ---

  ChronicleGroup& group() { return group_; }
  const ChronicleGroup& group() const { return group_; }
  ViewManager& view_manager() { return views_; }
  const ViewManager& view_manager() const { return views_; }
  uint64_t appends_processed() const { return appends_processed_; }

  // The tiered segment store, or nullptr until the first kTiered chronicle
  // is created. Borrowed; owned by the database.
  store::TieredStore* tiered_store() { return store_.get(); }
  const store::TieredStore* tiered_store() const { return store_.get(); }

  // The options this database was opened with (durability/maintenance kept
  // in sync by ReconfigureMaintenance / AttachMutationLog below).
  const DatabaseOptions& options() const { return options_; }

  // --- observability ---

  // The metrics registry / trace ring, or nullptr when disabled by
  // options().observability. Borrowed; owned by the database.
  obs::MetricsRegistry* metrics() { return metrics_.get(); }
  const obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  obs::TraceRing* trace() { return trace_.get(); }
  const obs::TraceRing* trace() const { return trace_.get(); }

  // Assembles the full statistics snapshot (metrics, per-view stats, trace
  // accounting, the attached enricher's sections). Thread-safe: serialized
  // against appends by the stats mutex, so the monitoring endpoint and the
  // history sampler may call it while appends flow.
  obs::StatsSnapshot CollectStats() const;

  // Merges owner-side sections into every snapshot CollectStats assembles
  // (the shell uses this to mirror its Wal into obs::WalStatsSnapshot).
  // Swapped under the stats mutex: after this returns, no in-flight
  // snapshot still runs the previous enricher. Pass nullptr to clear.
  void set_stats_enricher(std::function<void(obs::StatsSnapshot*)> enricher);

  // --- live monitoring (tentpole of docs/OBSERVABILITY.md) ---

  // Starts the HTTP/1.1 monitoring endpoint on 127.0.0.1:`port` (0 picks
  // an ephemeral port — read it back with monitoring_port()) and, when
  // options().observability.history_capacity > 0, the periodic stats
  // sampler behind /history.json. Routes: /metrics (Prometheus),
  // /stats.json, /trace.json, /history.json, /healthz,
  // /views/<name>/explain.json. Fails if already active.
  Status StartMonitoring(uint16_t port);
  // Joins the endpoint and sampler threads. The history ring survives so
  // a later StartMonitoring resumes the time-series. Idempotent.
  void StopMonitoring();
  bool monitoring_active() const;
  // The bound port (0 when not active).
  uint16_t monitoring_port() const;

  // The stats-history ring, or nullptr before the first StartMonitoring.
  const obs::StatsHistory* history() const { return history_.get(); }
  // Takes one off-schedule history sample (shell `\history`, tests);
  // creates the ring if monitoring was never started.
  void SampleStatsNow();

  // Plan EXPLAIN for one persistent view: the compiled program annotated
  // with sampled per-slot time shares (see ObservabilityOptions::
  // profile_plan_slots). Thread-safe.
  Result<std::string> ExplainView(const std::string& name) const;
  Result<std::string> ExplainViewJson(const std::string& name) const;
  // Toggles per-slot sampling at runtime (shell `\profile plan on|off`).
  void SetPlanProfiling(bool enabled);

  // Slow-tick dumps written so far (0 when the recorder is disabled).
  uint64_t flight_recorder_dumps() const;

  // --- request tracing (obs/request_trace.h) ---

  // Borrowed request tracer, owned by the cql::Session that opened this
  // engine (null when request tracing is disabled). The engine only reads
  // it to serve /requests.json; span EMISSION inside the append path goes
  // through the thread-local obs::RequestScope, so an engine never needs
  // the tracer to attribute work to a sampled request.
  void set_request_tracer(obs::RequestTracer* tracer) {
    request_tracer_ = tracer;
  }
  obs::RequestTracer* request_tracer() { return request_tracer_; }

  // Which shard's engine this is, stamped onto maintain/wal_commit spans
  // (-1 = unsharded). Set once by shard::ShardedDatabase::Open before any
  // traffic flows.
  void set_trace_shard(int shard) { trace_shard_ = shard; }
  int trace_shard() const { return trace_shard_; }

  // Writes one slow-request dump through the flight recorder (created at
  // open when observability.slow_request_budget_ns > 0). Serialized under
  // the stats mutex like the slow-tick path; callers treat failures as
  // best-effort.
  Result<std::string> RecordSlowRequest(uint64_t trace_hi, uint64_t trace_lo,
                                        int64_t total_ns, int64_t budget_ns,
                                        const std::string& snapshot_json,
                                        const std::string& trace_json);

  // --- runtime reconfiguration ---

  // Reconfigures the maintenance path between appends: the blessed
  // runtime counterpart of DatabaseOptions::maintenance (shell \threads).
  void ReconfigureMaintenance(const MaintenanceOptions& options) {
    options_.maintenance = options;
    views_.set_maintenance_options(options);
  }
  // Attaches/detaches the write-ahead hook between appends: the runtime
  // counterpart of DatabaseOptions::durability (shell \wal).
  void AttachMutationLog(MutationLog* log) {
    options_.durability.mutation_log = log;
    durability_.mutation_log = log;
  }
  void DetachMutationLog() { AttachMutationLog(nullptr); }

  const MaintenanceOptions& maintenance_options() const {
    return views_.maintenance_options();
  }

  // Iteration over registered objects (used by checkpointing and SHOW).
  void ForEachRelation(const std::function<void(const Relation&)>& fn) const;
  void ForEachPeriodicView(
      const std::function<void(const PeriodicViewSet&)>& fn) const;
  void ForEachSlidingView(
      const std::function<void(const SlidingWindowView&)>& fn) const;
  // Mutable lookups used by checkpoint restore.
  Result<PeriodicViewSet*> GetPeriodicViewMutable(const std::string& name);
  Result<SlidingWindowView*> GetSlidingViewMutable(const std::string& name);

  // --- durability ---

  const DurabilityOptions& durability() const { return durability_; }

 private:
  // Rewinding the append counter is only legal during checkpoint restore;
  // the friend grant keeps every other caller out (see docs/DURABILITY.md).
  friend Status checkpoint::RestoreDatabase(const std::string& image,
                                            ChronicleDatabase* db);
  void RestoreAppendsProcessed(uint64_t n) { appends_processed_ = n; }

  // Common append path: logs the tick (when a mutation log is attached),
  // then applies and maintains it.
  Result<AppendResult> AppendInternal(
      std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts,
      Chronon chronon);
  // Mirrors ChronicleGroup's append validation so a logged tick cannot
  // fail to apply.
  Status ValidateAppendForLog(
      const std::vector<std::pair<ChronicleId, std::vector<Tuple>>>& inserts,
      Chronon chronon) const;

  Result<AppendResult> Maintain(Result<AppendEvent> event);

  // Lazily opens the tiered store (first kTiered chronicle) and attaches
  // chronicle `id` to it.
  Status AttachTieredChronicle(ChronicleId id, const std::string& name,
                               size_t hot_rows);

  // CollectStats body without taking obs_mutex_ (callers hold it).
  obs::StatsSnapshot CollectStatsLocked() const;
  // Routes one monitoring request (runs on the HTTP server's thread).
  obs::HttpResponse HandleHttpRequest(const obs::HttpRequest& request) const;
  // Dumps trace + snapshot + the offending view's EXPLAIN for a tick that
  // blew the slow-tick budget. Called under obs_mutex_; best-effort.
  void RecordSlowTick(const AppendResult& result);

  // Declared before views_: the constructor initializes views_ from
  // options_.routing.
  DatabaseOptions options_;
  // Observability sinks, created per options_.observability and wired into
  // views_ at construction (null when disabled).
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::TraceRing> trace_;
  obs::MetricId m_append_batch_ticks_ = 0;  // histogram: AppendMany sizes

  ChronicleGroup group_;
  // The warm tier (segment files). Created lazily by the first kTiered
  // CreateChronicle; metric ids are pre-registered at construction so the
  // registry is never mutated after sampling may have started.
  std::unique_ptr<store::TieredStore> store_;
  store::StoreMetricIds store_metric_ids_;
  uint64_t backfill_views_ = 0;
  uint64_t backfill_rows_ = 0;
  mutable std::unordered_map<ChronicleId, CaExprPtr> scan_cache_;
  std::vector<std::unique_ptr<Relation>> relations_;
  std::unordered_map<std::string, RelationId> relations_by_name_;
  ViewManager views_;
  std::vector<std::unique_ptr<PeriodicViewSet>> periodic_;
  std::unordered_map<std::string, size_t> periodic_by_name_;
  std::vector<std::unique_ptr<SlidingWindowView>> sliding_;
  std::unordered_map<std::string, size_t> sliding_by_name_;
  uint64_t appends_processed_ = 0;
  DurabilityOptions durability_;
  // Serializes the maintenance fold against the monitoring readers (the
  // HTTP thread and the history sampler call CollectStats while appends
  // flow). Appends themselves stay single-driver; this mutex only makes
  // the snapshot a consistent cut.
  mutable std::mutex obs_mutex_;
  std::function<void(obs::StatsSnapshot*)> stats_enricher_;
  // Monitoring machinery (null until StartMonitoring / first slow tick;
  // the history ring outlives StopMonitoring so the series continues).
  std::unique_ptr<obs::StatsHistory> history_;
  std::unique_ptr<obs::StatsSampler> sampler_;
  std::unique_ptr<obs::HttpServer> http_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  // Request tracing (borrowed from the owning session; see the accessors).
  obs::RequestTracer* request_tracer_ = nullptr;
  int trace_shard_ = -1;
  // True while Maintain is folding deltas into views. Relations are
  // updated proactively — never during an append (§2.3) — and the parallel
  // maintenance path depends on that: workers read relations lock-free.
  // The relation DML entry points assert this invariant.
  bool maintenance_in_progress_ = false;
};

}  // namespace chronicle

#endif  // CHRONICLE_DB_DATABASE_H_
