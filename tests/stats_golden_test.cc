// Byte-for-byte goldens for the three stats exporters and the shard merge.
//
// Snapshot() builds a snapshot in which every field of every section holds
// a distinct nonzero value. The goldens under tests/golden/stats/ pin
// RenderText, RenderPrometheus and RenderJson of that snapshot, of the
// snapshot passed alone through MergeShardSnapshots (the 1-shard case),
// and of the merge of four such snapshots. A format change shows up here
// as a diff against the checked-in file; the test then writes what it got
// to <golden>.actual in its working directory, for review and copying.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/stats.h"
#include "obs/stats_table.h"

namespace chronicle {
namespace obs {
namespace {

LatencyHistogram Hist(uint64_t* n) {
  LatencyHistogram h;
  for (int i = 1; i <= 3; ++i) h.Record(static_cast<int64_t>(*n * 100 * i));
  ++*n;
  return h;
}

// `base` offsets every number, so four shards carry different values
// under the same names (views merge by name; chronicles get prefixed).
StatsSnapshot Snapshot(uint64_t base) {
  uint64_t n = base;
  StatsSnapshot s;
  s.appends_processed = n++;
  s.live_views = n++;
  s.delta_cache_hits = n++;
  s.delta_cache_misses = n++;
  s.trace_emitted = n++;
  s.trace_capacity = n++;

  MetricSample counter;
  counter.name = "appends_total";
  counter.help = "Appends seen";
  counter.value = n++;
  s.metrics.push_back(counter);
  MetricSample tick;
  tick.name = "maintenance_tick_ns";
  tick.help = "Tick latency";
  tick.is_histogram = true;
  tick.histogram = Hist(&n);
  s.metrics.push_back(tick);

  for (const char* name : {"clicks_by_user", "minutes_by_caller"}) {
    ViewStatsSnapshot v;
    v.name = name;
    v.stats.ticks = n++;
    v.stats.updates = n++;
    v.stats.delta_rows = n++;
    v.stats.compiled_ticks = n++;
    v.stats.interpreted_ticks = n++;
    v.stats.relation_lookups = n++;
    v.stats.max_intermediate_rows = n++;
    v.stats.plan_slots = static_cast<uint32_t>(n++);
    v.stats.arena_hwm_bytes = n++;
    v.stats.max_dedupe_load = static_cast<double>(n++) / 1000.0;
    v.profiled = true;
    v.latency = Hist(&n);
    s.views.push_back(v);
  }

  WalStatsSnapshot& w = s.wal;
  w.attached = true;
  w.records_logged = n++;
  w.bytes_logged = n++;
  w.syncs = n++;
  w.segments_created = n++;
  w.segments_removed = n++;
  w.checkpoints_written = n++;
  w.group_commits = n++;
  w.group_commit_ticks = n++;
  w.fsync_latency = Hist(&n);
  w.recovered = true;
  w.recovery_records_applied = n++;
  w.recovery_records_skipped = n++;

  StorageStatsSnapshot& st = s.storage;
  st.attached = true;
  st.data_dir = "data-" + std::to_string(n++);
  st.segments_sealed = n++;
  st.segments_evicted = n++;
  st.segments_quarantined = n++;
  st.rows_sealed = n++;
  st.rows_evicted = n++;
  st.bytes_written = n++;
  st.seal_failures = n++;
  st.seal_latency = Hist(&n);
  st.cap_wait = Hist(&n);
  st.backfill_views = n++;
  st.backfill_rows = n++;
  for (const char* name : {"calls", "trades"}) {
    ChronicleTierSnapshot c;
    c.name = name;
    c.hot_rows = n++;
    c.hot_bytes = n++;
    c.warm_segments = n++;
    c.warm_rows = n++;
    c.warm_bytes = n++;
    c.warm_raw_bytes = n++;
    c.last_sealed_sn = n++;
    st.chronicles.push_back(c);
  }

  ShardingStatsSnapshot& sh = s.sharding;
  sh.attached = true;
  sh.num_shards = n++;
  sh.partition_key = "caller";
  for (int k = 0; k < 2; ++k) {
    ShardStatsSnapshot row;
    row.shard = n++;
    row.appends_processed = n++;
    row.queue_depth = n++;
    row.enqueued_batches = n++;
    row.routed_rows = n++;
    row.tick_latency_populated = true;
    row.tick_latency = Hist(&n);
    sh.shards.push_back(row);
  }

  NetStatsSnapshot& net = s.net;
  net.attached = true;
  net.port = static_cast<uint16_t>(n++);
  net.requests_total = n++;
  net.http_errors_total = n++;
  net.sessions_opened = n++;
  net.active_sessions = n++;
  net.sql_statements_total = n++;
  net.append_batches_total = n++;
  net.append_rows_total = n++;
  net.rows_applied_total = n++;
  net.queue_rows = n++;
  net.rejected_backpressure_total = n++;
  net.rejected_quota_total = n++;
  net.rejected_auth_total = n++;
  for (const char* id : {"s1", "s2"}) {
    NetSessionSnapshot ses;
    ses.id = id;
    ses.statements = n++;
    ses.append_rows_accepted = n++;
    ses.append_rows_applied = n++;
    ses.queue_rows = n++;
    ses.rejected_backpressure = n++;
    ses.rejected_quota = n++;
    ses.row_quota = n++;
    net.sessions.push_back(ses);
  }

  ReqStatsSnapshot& r = s.req;
  r.attached = true;
  r.sample_rate = static_cast<double>(n++) / 10000.0;
  r.sampled_requests = n++;
  r.unsampled_requests = n++;
  r.spans_emitted = n++;
  r.capacity = n++;
  r.slow_captures = n++;
  r.slow_budget_ns = static_cast<int64_t>(n++);
  for (const char* stage : {"parse", "append"}) {
    r.stages.push_back({stage, Hist(&n)});
  }
  for (const char* endpoint : {"sql", "append"}) {
    ReqEndpointStatsSnapshot e;
    e.endpoint = endpoint;
    e.requests = n++;
    e.errors = n++;
    e.duration = Hist(&n);
    r.endpoints.push_back(e);
  }
  return s;
}

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(CHRONICLE_GOLDEN_DIR) + "/stats/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void ExpectGolden(const std::string& got, const std::string& name) {
  if (got == ReadGolden(name)) return;
  std::ofstream(name + ".actual", std::ios::binary) << got;
  ADD_FAILURE() << name << " differs from its golden; wrote " << name
                << ".actual";
}

void ExpectGoldens(const StatsSnapshot& snap, const std::string& stem) {
  ExpectGolden(RenderText(snap), stem + ".txt");
  ExpectGolden(RenderPrometheus(snap), stem + ".prom");
  const std::string json = RenderJson(snap);
  ExpectGolden(json, stem + ".json");
  EXPECT_TRUE(ValidateJson(json).ok());
}

TEST(StatsGoldenTest, EveryFieldSet) { ExpectGoldens(Snapshot(1), "a"); }

TEST(StatsGoldenTest, OneShardMerge) {
  ExpectGoldens(MergeShardSnapshots({Snapshot(1)}), "merge1");
}

TEST(StatsGoldenTest, FourShardMerge) {
  std::vector<StatsSnapshot> shards;
  for (uint64_t k = 0; k < 4; ++k) shards.push_back(Snapshot(1 + 1000 * k));
  ExpectGoldens(MergeShardSnapshots(shards), "merge4");
}

}  // namespace
}  // namespace obs
}  // namespace chronicle
