// Observability data model: per-view maintenance statistics, the WAL/
// ingest statistics mirror, and the whole-database snapshot the exporters
// (obs/export.h) render.
//
// Everything in this header is plain data. The structs are filled by the
// components that own the live counters — ViewManager (per-view stats),
// ChronicleDatabase (appends, metrics registry, trace), and the shell or
// bench that owns a Wal (WAL stats are mirrored field-by-field so obs does
// not depend on src/wal) — and the exporters only ever see the snapshot.

#ifndef CHRONICLE_OBS_STATS_H_
#define CHRONICLE_OBS_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chronicle {
namespace obs {

// Knobs for the observability layer, owned by DatabaseOptions. The layer
// is designed to stay on in production (bench E13 bounds the overhead at
// <= 5%); the flags exist for apples-to-apples baselines, not for normal
// operation.
struct ObservabilityOptions {
  // Per-view ViewStats, the metrics registry, and MaintenanceReport batch
  // timings. Off: the maintenance path takes no clocks and touches no
  // counters beyond the seed's MaintenanceReport.
  bool metrics = true;
  // Span slots in the trace ring (rounded up to a power of two); 0
  // disables tracing.
  size_t trace_capacity = 256;
  // Per-view latency histograms (two extra clock reads per view per
  // tick). Equivalent to ViewManager::set_profiling(true) at open.
  bool profile_view_latency = false;
  // Per-slot plan profiling for EXPLAIN (\explain, /views/<name>/
  // explain.json). When on, every slot_sample_period-th tick of each
  // compiled view is executed with per-instruction clocks; the samples
  // are folded into a per-view slot profile. Bounded by the same <= 5%
  // E13 overhead gate as the rest of the layer.
  bool profile_plan_slots = false;
  // Sample every Nth tick when profile_plan_slots is on (clamped >= 1).
  // 1 profiles every tick (tests); 16 keeps the amortized cost low.
  size_t slot_sample_period = 16;
  // Samples retained by the stats history ring (0 disables history even
  // when monitoring is started).
  size_t history_capacity = 128;
  // Sampler cadence for the history ring while monitoring is active.
  int64_t history_interval_ms = 1000;
  // Flight recorder: a maintenance tick slower than this budget dumps
  // trace + snapshot + the offending view's EXPLAIN to a JSON file.
  // 0 disables the recorder.
  int64_t slow_tick_budget_ns = 0;
  // Where slow-tick dumps land (created on first dump) and how many are
  // retained (oldest deleted beyond the cap).
  std::string flight_recorder_dir = "flight-recorder";
  size_t flight_recorder_max_dumps = 8;
  // Request tracing (obs::RequestTracer, owned by cql::Session): span
  // slots in the request-trace ring (rounded up to a power of two; 0
  // disables request tracing entirely).
  size_t request_trace_capacity = 256;
  // Head-sampling probability in [0,1]. 0 records no spans on the
  // server's own initiative — but a client-supplied traceparent header
  // with the sampled flag still forces a full span tree, so 0 is the
  // production default (RED counters are recorded for every request
  // regardless).
  double request_sample_rate = 0.0;
  // A sampled request slower than this budget dumps its span tree + a
  // stats snapshot through the flight recorder. 0 disables the capture.
  int64_t slow_request_budget_ns = 0;
};

// Per-view maintenance statistics, accumulated inside MaintainOne /
// DeltaPlan execution. Single-writer: each view is touched by exactly one
// fan-out task per tick, so these are plain counters (same discipline as
// the per-view latency histogram).
struct ViewStats {
  uint64_t ticks = 0;              // deltas computed for this view
  uint64_t updates = 0;            // ticks that produced >= 1 delta row
  uint64_t delta_rows = 0;         // total rows folded into the view
  uint64_t compiled_ticks = 0;     // ticks served by the compiled DeltaPlan
  uint64_t interpreted_ticks = 0;  // always 0; kept for existing readers
  uint64_t relation_lookups = 0;   // index probes (the log|R|/O(1) term)
  uint64_t max_intermediate_rows = 0;  // high-water across all ticks
  // Compiled-execution pressure gauges.
  uint32_t plan_slots = 0;         // instructions in the view's plan (static)
  uint64_t arena_hwm_bytes = 0;    // per-tick arena high-water mark
  double max_dedupe_load = 0.0;    // dedupe-set load factor high-water
};

// One view's row in the snapshot.
struct ViewStatsSnapshot {
  std::string name;
  ViewStats stats;
  bool profiled = false;       // latency histogram is populated
  LatencyHistogram latency;    // empty unless profiling was on
};

// WAL/ingest statistics, mirrored from wal::Wal by whoever owns it (the
// db does not — durability is an attachment). `attached` false means the
// whole section is absent from exports.
struct WalStatsSnapshot {
  bool attached = false;
  uint64_t records_logged = 0;
  uint64_t bytes_logged = 0;
  uint64_t syncs = 0;
  uint64_t segments_created = 0;
  uint64_t segments_removed = 0;
  uint64_t checkpoints_written = 0;
  uint64_t group_commits = 0;        // LogAppendGroup calls
  uint64_t group_commit_ticks = 0;   // ticks covered by those calls
  LatencyHistogram fsync_latency;
  // Filled after a wal::Recover, from the RecoveryReport.
  bool recovered = false;
  uint64_t recovery_records_applied = 0;
  uint64_t recovery_records_skipped = 0;
};

// One chronicle's hot/warm tier breakdown in the storage section.
struct ChronicleTierSnapshot {
  std::string name;
  uint64_t hot_rows = 0;
  uint64_t hot_bytes = 0;        // ApproxTupleBytes footprint of the deque
  uint64_t warm_segments = 0;
  uint64_t warm_rows = 0;
  uint64_t warm_bytes = 0;       // on-disk encoded bytes
  uint64_t warm_raw_bytes = 0;   // in-memory-equivalent of the warm rows
  uint64_t last_sealed_sn = 0;
};

// Tiered-store statistics, mirrored from store::TieredStore by the
// database (obs does not depend on src/store). `attached` false means the
// section renders as absent/null.
struct StorageStatsSnapshot {
  bool attached = false;
  std::string data_dir;
  uint64_t segments_sealed = 0;
  uint64_t segments_evicted = 0;
  uint64_t segments_quarantined = 0;
  uint64_t rows_sealed = 0;
  uint64_t rows_evicted = 0;
  uint64_t bytes_written = 0;
  uint64_t seal_failures = 0;
  // Late-view backfill totals (db-level; the per-event metrics live in the
  // registry as backfill_events_total / backfill_rows_total).
  uint64_t backfill_views = 0;
  uint64_t backfill_rows = 0;
  std::vector<ChronicleTierSnapshot> chronicles;  // tiered chronicles only
};

// One shard's row in the sharding section: the router-side queue gauges
// plus the shard engine's own append/tick accounting.
struct ShardStatsSnapshot {
  size_t shard = 0;
  uint64_t appends_processed = 0;   // ticks applied by this shard's engine
  uint64_t queue_depth = 0;         // rows of all this shard's SPSC lanes
  uint64_t enqueued_batches = 0;    // batches handed to this shard so far
  uint64_t routed_rows = 0;         // rows routed to this shard so far
  bool tick_latency_populated = false;
  LatencyHistogram tick_latency;    // this shard's maintenance_tick_ns
};

// Sharding statistics, filled by shard::ShardedDatabase::CollectStats
// (obs does not depend on src/shard). `attached` false (a plain
// ChronicleDatabase) renders the section as absent/null.
struct ShardingStatsSnapshot {
  bool attached = false;
  size_t num_shards = 1;
  std::string partition_key;        // effective routing column ("" = mixed)
  std::vector<ShardStatsSnapshot> shards;
};

// One wire-service session's row in the net section.
struct NetSessionSnapshot {
  std::string id;
  uint64_t statements = 0;             // /v1/sql statements executed
  uint64_t append_rows_accepted = 0;   // rows accepted into the queue
  uint64_t append_rows_applied = 0;    // rows the ingest worker applied
  uint64_t queue_rows = 0;             // rows waiting in the bounded queue
  uint64_t rejected_backpressure = 0;  // 429s from a full queue
  uint64_t rejected_quota = 0;         // 429s from a spent row quota
  uint64_t row_quota = 0;              // configured quota (0 = unlimited)
};

// Network front-end statistics, filled by net::WireService through the
// session's stats-enricher chain (obs does not depend on src/net).
// `attached` false (no wire service running) renders the section as
// absent/null.
struct NetStatsSnapshot {
  bool attached = false;
  uint16_t port = 0;
  uint64_t requests_total = 0;         // HTTP requests routed
  uint64_t http_errors_total = 0;      // responses with status >= 400
  uint64_t sessions_opened = 0;
  uint64_t active_sessions = 0;
  uint64_t sql_statements_total = 0;
  uint64_t append_batches_total = 0;   // ticks accepted across sessions
  uint64_t append_rows_total = 0;      // rows accepted across sessions
  uint64_t rows_applied_total = 0;     // rows the ingest worker applied
  uint64_t queue_rows = 0;             // rows currently queued, all sessions
  uint64_t rejected_backpressure_total = 0;
  uint64_t rejected_quota_total = 0;
  uint64_t rejected_auth_total = 0;    // 401s (bad token / unknown session)
  std::vector<NetSessionSnapshot> sessions;
};

// One fixed request stage's latency histogram in the req section
// ("parse", "queue_wait", "append", "wal_commit", "maintain", "merge",
// "respond" — the chronicle_req_stage_* families).
struct ReqStageStatsSnapshot {
  std::string stage;
  LatencyHistogram latency;
};

// One endpoint's RED (rate/error/duration) row in the req section.
struct ReqEndpointStatsSnapshot {
  std::string endpoint;
  uint64_t requests = 0;
  uint64_t errors = 0;
  LatencyHistogram duration;
};

// Request-tracing statistics, filled by obs::RequestTracer::Fill through
// the session's stats-enricher chain. `attached` false (no tracer)
// renders the section as absent/null.
struct ReqStatsSnapshot {
  bool attached = false;
  double sample_rate = 0.0;
  uint64_t sampled_requests = 0;
  uint64_t unsampled_requests = 0;
  uint64_t spans_emitted = 0;
  uint64_t capacity = 0;
  uint64_t slow_captures = 0;
  int64_t slow_budget_ns = 0;
  std::vector<ReqStageStatsSnapshot> stages;        // the 7 fixed stages
  std::vector<ReqEndpointStatsSnapshot> endpoints;  // RED per endpoint
};

// The whole-database snapshot: everything the exporters render and the
// benches assert against. Built by ChronicleDatabase::CollectStats();
// the WAL section is merged in by the Wal's owner.
struct StatsSnapshot {
  uint64_t appends_processed = 0;
  uint64_t live_views = 0;
  // Shared-slot reuse (ViewManager::delta_cache_hits/misses): plan
  // instructions served from a slot already computed this tick / executed.
  uint64_t delta_cache_hits = 0;
  uint64_t delta_cache_misses = 0;
  std::vector<MetricSample> metrics;     // registry, registration order
  std::vector<ViewStatsSnapshot> views;  // live views, registration order
  WalStatsSnapshot wal;
  StorageStatsSnapshot storage;
  ShardingStatsSnapshot sharding;
  NetStatsSnapshot net;
  ReqStatsSnapshot req;
  uint64_t trace_emitted = 0;
  uint64_t trace_capacity = 0;
};

}  // namespace obs
}  // namespace chronicle

#endif  // CHRONICLE_OBS_STATS_H_
