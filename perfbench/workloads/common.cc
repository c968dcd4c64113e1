#include "workloads/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "workload/call_records.h"

namespace perfbench {

using chronicle::LatencyHistogram;
using chronicle::obs::StatsSnapshot;

double IngestRowsPerSecond(const PassResult& pass) {
  constexpr int64_t kWindowNs = 1'000'000'000;
  std::map<int64_t, std::pair<double, double>> windows;  // rows, busy ns
  if (!pass.units.empty()) {
    const int64_t start = pass.units.front().end_ns - pass.units.front().busy_ns;
    for (const IngestUnit& u : pass.units) {
      auto& w = windows[(u.end_ns - start) / kWindowNs];
      w.first += static_cast<double>(u.rows);
      w.second += static_cast<double>(u.busy_ns);
    }
  }
  if (windows.size() < 2) {
    return pass.ingest_s > 0 ? static_cast<double>(pass.rows) / pass.ingest_s
                             : 0.0;
  }
  std::vector<double> rates;
  for (const auto& [index, w] : windows) {
    if (w.second > 0) rates.push_back(w.first / (w.second / 1e9));
  }
  return Median(rates);
}

void AddUnit(PassResult* pass, int64_t end_ns, int64_t busy_ns, uint64_t rows) {
  pass->units.push_back(IngestUnit{end_ns, busy_ns, rows});
  pass->rows += rows;
  pass->ingest_s += static_cast<double>(busy_ns) / 1e9;
}

bool EndToEndMetrics(const PassResult& pass, double setup_s,
                     std::vector<Metric>* out) {
  const auto a50 = Percentile(pass.append_us, 0.50);
  const auto a99 = Percentile(pass.append_us, 0.99);
  const auto q50 = Percentile(pass.query_us, 0.50);
  const auto q99 = Percentile(pass.query_us, 0.99);
  if (!a50 || !a99 || !q50 || !q99) {
    return Fail("too few samples for p99: " +
                std::to_string(pass.append_us.size()) + " appends, " +
                std::to_string(pass.query_us.size()) + " queries");
  }
  *out = {
      {"ingest_rows_per_s", "rows/s", IngestRowsPerSecond(pass)},
      {"append_p50_us", "us", *a50},
      {"append_p99_us", "us", *a99},
      {"query_p50_us", "us", *q50},
      {"query_p99_us", "us", *q99},
      {"setup_s", "s", setup_s},
      {"peak_rss_mb", "MiB", pass.peak_rss_mb},
  };
  return true;
}

const std::vector<LayerMetricDef>& LayerCatalog() {
  static const std::vector<LayerMetricDef> catalog = {
      {"gen.query_lag_p99_us", "us"},
      {"gen.appends_sent", "count"},
      {"gen.queries_sent", "count"},
      {"net.requests", "count"},
      {"net.http_errors", "count"},
      {"net.rejected_429", "count"},
      {"net.body_bytes_per_row", "B/row"},
      {"net.stage_parse_p50_us", "us"},
      {"net.stage_queue_wait_p50_us", "us"},
      {"net.stage_queue_wait_p99_us", "us"},
      {"net.stage_respond_p50_us", "us"},
      {"net.drain_p50_us", "us"},
      {"net.sql_rtt_idle_p50_us", "us"},
      {"cql.append_rows_p50_us", "us"},
      {"cql.exec_sql_p50_us", "us"},
      {"cql.exec_sql_p99_us", "us"},
      {"cql.query_idle_p50_us", "us"},
      {"cql.query_useful_ratio", "ratio"},
      {"wal.records", "count"},
      {"wal.bytes_per_row", "B/row"},
      {"wal.syncs", "count"},
      {"wal.fsync_p50_us", "us"},
      {"wal.fsync_p99_us", "us"},
      {"wal.ticks_per_group_commit", "ticks"},
      {"wal.stage_commit_p50_us", "us"},
      {"wal.log_group_ns_per_row", "ns/row"},
      {"shard.split_ns_per_row", "ns/row"},
      {"shard.enqueue_p50_us", "us"},
      {"shard.enqueue_p99_us", "us"},
      {"shard.flush_p50_us", "us"},
      {"shard.route_skew", "ratio"},
      {"shard.queue_depth_max", "rows"},
      {"shard.tick_p50_us", "us"},
      {"shard.worker_busy_ratio", "ratio"},
      {"shard.speedup_vs_1shard", "x"},
      {"shard.merge_scan_p50_us", "us"},
      {"shard.merge_query_p50_us", "us"},
      {"db.appends", "count"},
      {"db.ticks_per_append_many", "ticks"},
      {"db.apply_ns_per_row", "ns/row"},
      {"views.tick_p50_us", "us"},
      {"views.tick_p99_us", "us"},
      {"views.routing_p50_us", "us"},
      {"views.considered_per_tick", "views"},
      {"views.skipped_per_tick", "views"},
      {"views.useful_ratio", "ratio"},
      {"views.delta_rows_per_tick", "rows"},
      {"views.parallel_ticks", "count"},
      {"views.worker_batch_p50_us", "us"},
      {"views.pool_busy_ratio", "ratio"},
      {"views.parallel_speedup", "x"},
      {"views.delta_cache_hit_ratio", "ratio"},
      {"views.state_mb", "MiB"},
      {"exec.compiled_tick_ratio", "ratio"},
      {"exec.interpreted_ticks", "count"},
      {"exec.columnar_slot_share", "ratio"},
      {"exec.max_intermediate_rows", "rows"},
      {"exec.arena_hwm_kb", "KiB"},
      {"exec.relation_lookups_per_row", "lookups/row"},
      {"periodic.ns_per_tick", "ns"},
      {"store.rows_sealed", "count"},
      {"store.segments_sealed", "count"},
      {"store.bytes_per_row", "B/row"},
      {"store.seal_failures", "count"},
      {"store.hot_rows_max", "rows"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.spans_emitted", "count"},
  };
  return catalog;
}

std::vector<Metric> LayerMetrics(const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const LayerMetricDef& def : LayerCatalog()) {
    auto it = values.find(def.name);
    out.push_back({def.name, def.unit, it == values.end() ? 0.0 : it->second});
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

LatencyHistogram HistDelta(const LatencyHistogram& after,
                           const LatencyHistogram& before) {
  std::array<uint64_t, LatencyHistogram::kBuckets> buckets{};
  uint64_t count = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    const uint64_t a = after.bucket(i);
    const uint64_t b = before.bucket(i);
    buckets[static_cast<size_t>(i)] = a > b ? a - b : 0;
    count += buckets[static_cast<size_t>(i)];
  }
  LatencyHistogram out;
  out.AccumulateRaw(buckets, count, after.SumNanos() - before.SumNanos(),
                    after.MinNanos(), after.MaxNanos());
  return out;
}

LatencyHistogram SnapshotHist(const StatsSnapshot& snap,
                              const std::string& name) {
  for (const auto& m : snap.metrics) {
    if (m.is_histogram && m.name == name) return m.histogram;
  }
  return LatencyHistogram();
}

uint64_t SnapshotCounter(const StatsSnapshot& snap, const std::string& name) {
  for (const auto& m : snap.metrics) {
    if (!m.is_histogram && m.name == name) return m.value;
  }
  return 0;
}

const LatencyHistogram* ReqStage(const StatsSnapshot& snap,
                                 const std::string& stage) {
  for (const auto& s : snap.req.stages) {
    if (s.stage == stage) return &s.latency;
  }
  return nullptr;
}

double HistPercentileUs(const LatencyHistogram& h, double q) {
  return h.count() == 0 ? 0.0
                        : static_cast<double>(h.PercentileNanos(q)) / 1e3;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

LatencyHistogram MetricDelta(const StatsSnapshot& after,
                             const StatsSnapshot& before,
                             const std::string& name) {
  return HistDelta(SnapshotHist(after, name), SnapshotHist(before, name));
}

LatencyHistogram StageDelta(const StatsSnapshot& after,
                            const StatsSnapshot& before,
                            const std::string& stage) {
  const LatencyHistogram* a = ReqStage(after, stage);
  const LatencyHistogram* b = ReqStage(before, stage);
  if (a == nullptr) return LatencyHistogram();
  return b == nullptr ? *a : HistDelta(*a, *b);
}

}  // namespace

void SnapshotLayerMetrics(const StatsSnapshot& before,
                          const StatsSnapshot& after, uint64_t rows,
                          double ingest_s, size_t maintenance_threads,
                          std::map<std::string, double>* layer) {
  auto& m = *layer;
  const double appends =
      static_cast<double>(after.appends_processed - before.appends_processed);
  m["db.appends"] = appends;
  {
    const LatencyHistogram batch =
        MetricDelta(after, before, "append_batch_ticks");
    m["db.ticks_per_append_many"] =
        Ratio(batch.SumNanos(), static_cast<double>(batch.count()));
  }

  const LatencyHistogram tick = MetricDelta(after, before, "maintenance_tick_ns");
  const LatencyHistogram worker =
      MetricDelta(after, before, "maintenance_worker_ns");
  m["views.tick_p50_us"] = HistPercentileUs(tick, 0.50);
  m["views.tick_p99_us"] = HistPercentileUs(tick, 0.99);
  m["views.routing_p50_us"] = HistPercentileUs(
      MetricDelta(after, before, "maintenance_routing_ns"), 0.50);
  m["views.worker_batch_p50_us"] = HistPercentileUs(worker, 0.50);
  m["views.pool_busy_ratio"] =
      Ratio(worker.SumNanos(),
            static_cast<double>(maintenance_threads) * tick.SumNanos());
  m["views.parallel_ticks"] = static_cast<double>(
      SnapshotCounter(after, "maintenance_parallel_ticks_total") -
      SnapshotCounter(before, "maintenance_parallel_ticks_total"));
  m["views.delta_rows_per_tick"] = Ratio(
      static_cast<double>(SnapshotCounter(after, "maintenance_delta_rows_total") -
                          SnapshotCounter(before, "maintenance_delta_rows_total")),
      appends);
  {
    const double hits =
        static_cast<double>(after.delta_cache_hits - before.delta_cache_hits);
    const double misses = static_cast<double>(after.delta_cache_misses -
                                              before.delta_cache_misses);
    m["views.delta_cache_hit_ratio"] = Ratio(hits, hits + misses);
  }

  double ticks = 0, updates = 0, compiled = 0, interpreted = 0, lookups = 0;
  double max_inter = 0, arena_hwm = 0;
  for (const auto& v : after.views) {
    chronicle::obs::ViewStats prev;
    for (const auto& b : before.views) {
      if (b.name == v.name) prev = b.stats;
    }
    ticks += static_cast<double>(v.stats.ticks - prev.ticks);
    updates += static_cast<double>(v.stats.updates - prev.updates);
    compiled += static_cast<double>(v.stats.compiled_ticks - prev.compiled_ticks);
    interpreted +=
        static_cast<double>(v.stats.interpreted_ticks - prev.interpreted_ticks);
    lookups +=
        static_cast<double>(v.stats.relation_lookups - prev.relation_lookups);
    max_inter = std::max(max_inter,
                         static_cast<double>(v.stats.max_intermediate_rows));
    arena_hwm =
        std::max(arena_hwm, static_cast<double>(v.stats.arena_hwm_bytes));
  }
  const double considered = Ratio(ticks, appends);
  m["views.considered_per_tick"] = considered;
  m["views.skipped_per_tick"] =
      appends > 0
          ? std::max(0.0, static_cast<double>(after.views.size()) - considered)
          : 0.0;
  m["views.useful_ratio"] = Ratio(updates, ticks);
  m["exec.compiled_tick_ratio"] = Ratio(compiled, ticks);
  m["exec.interpreted_ticks"] = interpreted;
  m["exec.max_intermediate_rows"] = max_inter;
  m["exec.arena_hwm_kb"] = arena_hwm / 1024.0;
  m["exec.relation_lookups_per_row"] =
      Ratio(lookups, static_cast<double>(rows));

  if (after.wal.attached) {
    const auto& a = after.wal;
    const auto& b = before.wal;
    m["wal.records"] = static_cast<double>(a.records_logged - b.records_logged);
    m["wal.bytes_per_row"] = Ratio(
        static_cast<double>(a.bytes_logged - b.bytes_logged),
        static_cast<double>(rows));
    m["wal.syncs"] = static_cast<double>(a.syncs - b.syncs);
    const LatencyHistogram fsync =
        b.attached ? HistDelta(a.fsync_latency, b.fsync_latency)
                   : a.fsync_latency;
    m["wal.fsync_p50_us"] = HistPercentileUs(fsync, 0.50);
    m["wal.fsync_p99_us"] = HistPercentileUs(fsync, 0.99);
    m["wal.ticks_per_group_commit"] =
        Ratio(static_cast<double>(a.group_commit_ticks - b.group_commit_ticks),
              static_cast<double>(a.group_commits - b.group_commits));
  }

  if (after.req.attached) {
    m["net.stage_parse_p50_us"] =
        HistPercentileUs(StageDelta(after, before, "parse"), 0.50);
    const LatencyHistogram wait = StageDelta(after, before, "queue_wait");
    m["net.stage_queue_wait_p50_us"] = HistPercentileUs(wait, 0.50);
    m["net.stage_queue_wait_p99_us"] = HistPercentileUs(wait, 0.99);
    m["net.stage_respond_p50_us"] =
        HistPercentileUs(StageDelta(after, before, "respond"), 0.50);
    m["wal.stage_commit_p50_us"] =
        HistPercentileUs(StageDelta(after, before, "wal_commit"), 0.50);
    m["obs.spans_emitted"] +=
        static_cast<double>(after.req.spans_emitted - before.req.spans_emitted);
  }

  if (after.net.attached) {
    const auto& a = after.net;
    const auto& b = before.net;
    m["net.requests"] = static_cast<double>(a.requests_total - b.requests_total);
    m["net.http_errors"] =
        static_cast<double>(a.http_errors_total - b.http_errors_total);
    m["net.rejected_429"] = static_cast<double>(
        (a.rejected_backpressure_total - b.rejected_backpressure_total) +
        (a.rejected_quota_total - b.rejected_quota_total));
  }

  if (after.storage.attached) {
    const auto& a = after.storage;
    const auto& b = before.storage;
    const double sealed = static_cast<double>(a.rows_sealed - b.rows_sealed);
    m["store.rows_sealed"] = sealed;
    m["store.segments_sealed"] =
        static_cast<double>(a.segments_sealed - b.segments_sealed);
    m["store.bytes_per_row"] =
        Ratio(static_cast<double>(a.bytes_written - b.bytes_written), sealed);
    m["store.seal_failures"] =
        static_cast<double>(a.seal_failures - b.seal_failures);
    double hot_max = 0;
    for (const auto& c : a.chronicles) {
      hot_max = std::max(hot_max, static_cast<double>(c.hot_rows));
    }
    m["store.hot_rows_max"] = hot_max;
  }

  if (after.sharding.attached && !after.sharding.shards.empty()) {
    double routed_max = 0, routed_sum = 0, busy_ns = 0;
    LatencyHistogram shard_tick;
    for (size_t k = 0; k < after.sharding.shards.size(); ++k) {
      const auto& a = after.sharding.shards[k];
      const bool has_before = k < before.sharding.shards.size();
      const double routed = static_cast<double>(
          a.routed_rows -
          (has_before ? before.sharding.shards[k].routed_rows : 0));
      routed_max = std::max(routed_max, routed);
      routed_sum += routed;
      const LatencyHistogram t =
          has_before ? HistDelta(a.tick_latency,
                                 before.sharding.shards[k].tick_latency)
                     : a.tick_latency;
      busy_ns += t.SumNanos();
      shard_tick.Merge(t);
    }
    const double shards = static_cast<double>(after.sharding.shards.size());
    m["shard.route_skew"] = Ratio(routed_max, routed_sum / shards);
    m["shard.tick_p50_us"] = HistPercentileUs(shard_tick, 0.50);
    m["shard.worker_busy_ratio"] = Ratio(busy_ns, shards * ingest_s * 1e9);
  }
}

namespace {

// Columnar share of one EXPLAIN JSON: adds slot self-time (when sampled)
// and slot counts, split by engine.
void ScanExplain(const std::string& json, double* columnar_ns, double* all_ns,
                 double* columnar_slots, double* all_slots) {
  static const std::string kEngine = "\"engine\":\"";
  static const std::string kSelf = "\"self_ns\":";
  size_t pos = 0;
  while ((pos = json.find(kEngine, pos)) != std::string::npos) {
    pos += kEngine.size();
    const bool columnar = json.compare(pos, 8, "columnar") == 0;
    const size_t end = json.find('}', pos);
    const size_t self = json.find(kSelf, pos);
    double ns = 0;
    if (self != std::string::npos && self < end) {
      ns = std::strtod(json.c_str() + self + kSelf.size(), nullptr);
    }
    *all_ns += ns;
    *all_slots += 1;
    if (columnar) {
      *columnar_ns += ns;
      *columnar_slots += 1;
    }
  }
}

}  // namespace

void PlanLayerMetrics(chronicle::cql::Session* session,
                      std::map<std::string, double>* layer) {
  std::vector<chronicle::ChronicleDatabase*> engines;
  if (session->sharded()) {
    for (size_t k = 0; k < session->num_shards(); ++k) {
      engines.push_back(&session->sharded_db()->engine(k));
    }
  } else {
    engines.push_back(session->db());
  }
  double bytes = 0, col_ns = 0, all_ns = 0, col_slots = 0, all_slots = 0;
  for (chronicle::ChronicleDatabase* db : engines) {
    const chronicle::ViewManager& views = db->view_manager();
    for (chronicle::ViewId id = 0; id < views.num_views(); ++id) {
      auto view = views.GetView(id);
      if (!view.ok()) continue;
      bytes += static_cast<double>((*view)->MemoryFootprint());
      auto explain = db->ExplainViewJson((*view)->name());
      if (explain.ok()) {
        ScanExplain(*explain, &col_ns, &all_ns, &col_slots, &all_slots);
      }
    }
    db->ForEachPeriodicView([&](const chronicle::PeriodicViewSet& set) {
      bytes += static_cast<double>(set.MemoryFootprint());
    });
  }
  (*layer)["views.state_mb"] = bytes / (1024.0 * 1024.0);
  // Time-weighted when plan-slot profiling sampled any tick, else the share
  // of slots compiled to columnar kernels.
  (*layer)["exec.columnar_slot_share"] =
      all_ns > 0 ? col_ns / all_ns : Ratio(col_slots, all_slots);
}

Fingerprint FingerprintRows(const std::vector<chronicle::Tuple>& rows) {
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const chronicle::Tuple& row : rows) {
    rendered.push_back(chronicle::TupleToString(row));
  }
  std::sort(rendered.begin(), rendered.end());
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const std::string& s : rendered) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ull;
    h = (h ^ 0x1e) * 1099511628211ull;  // row separator
  }
  return Fingerprint{rows.size(), h};
}

std::string CustomerInsertSql(uint64_t seed) {
  chronicle::CallRecordOptions options;
  options.seed = seed;
  const chronicle::CallRecordGenerator gen(options);
  std::string sql = "INSERT INTO cust VALUES ";
  bool first = true;
  for (const chronicle::Tuple& row : gen.CustomerRows()) {
    if (!first) sql += ",";
    first = false;
    sql += '(';
    sql += std::to_string(row[0].int64());
    sql += ",'";
    sql += row[1].str();
    sql += "','";
    sql += row[2].str();
    sql += "')";
  }
  return sql + ";";
}

bool Fail(const std::string& what) {
  std::cerr << "perfbench: " << what << "\n";
  return false;
}

}  // namespace perfbench
