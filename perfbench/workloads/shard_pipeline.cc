// shard_pipeline: the sharded engine. A 4-shard ShardedDatabase with a WAL
// per shard and a RETAIN HOT chronicle (so segments seal to disk) takes
// slabs from one producer on the async path (StartIngest, EnqueueAppend,
// Flush). After each slab the benchmark reads the views: point lookups on
// the shard-aligned by_caller and a scan of by_region, whose groups span
// shards so every read pays the merge. This is the E15 scaling path with
// the durable configuration.

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "shard/partitioner.h"
#include "workload/call_records.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using chronicle::Tuple;
using chronicle::cql::Session;
using Slab = std::vector<std::vector<Tuple>>;

constexpr size_t kShards = 4;
constexpr size_t kRowsPerBatch = 256;
constexpr size_t kBatchesPerSlab = 16;
constexpr size_t kRowsPerSlab = kRowsPerBatch * kBatchesPerSlab;
constexpr size_t kPoolSlabs = 32;
constexpr size_t kWarmupSlabs = 2;
constexpr size_t kPointQueries = 8;
constexpr size_t kDepthSampleEvery = 8;  // traced run: queue-depth probe

constexpr char kDdl[] =
    "CREATE CHRONICLE calls (caller INT64, region STRING, minutes INT64, "
    "charge DOUBLE) RETAIN HOT 16384;"
    "CREATE RELATION cust (acct INT64, name STRING, state STRING) KEY acct;"
    "CREATE VIEW by_caller AS SELECT caller, SUM(minutes) AS m, COUNT(*) AS n "
    "FROM calls GROUP BY caller;"
    "CREATE VIEW by_region AS SELECT region, SUM(minutes) AS m, COUNT(*) AS n "
    "FROM calls GROUP BY region;"
    "CREATE VIEW by_state AS SELECT state, SUM(minutes) AS m, COUNT(*) AS n "
    "FROM calls JOIN cust ON caller = acct GROUP BY state;";
const char* const kViews[] = {"by_caller", "by_region", "by_state"};

struct Inputs {
  std::vector<Slab> slabs;
  std::string cust_sql;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  chronicle::CallRecordOptions options;
  options.seed = seed;
  chronicle::CallRecordGenerator gen(options);
  for (size_t s = 0; s < kPoolSlabs; ++s) {
    Slab slab;
    for (size_t b = 0; b < kBatchesPerSlab; ++b) {
      slab.push_back(gen.NextBatch(kRowsPerBatch));
    }
    in.slabs.push_back(std::move(slab));
  }
  in.cust_sql = CustomerInsertSql(seed);
  return in;
}

std::unique_ptr<Session> OpenSession(const Inputs& in, const std::string& dir,
                                     size_t shards, SpanStore* spans) {
  std::filesystem::create_directories(dir);
  chronicle::DatabaseOptions options;
  options.set_num_shards(shards);
  options.set_data_dir(dir + "/data");
  if (shards > 1) options.sharding.wal_dir = dir + "/wal";
  std::unique_ptr<Session> session;
  {
    ScopedSpan span(spans, "cql.Session.Open");
    auto opened = Session::Open(std::move(options));
    if (!opened.ok()) {
      Fail("Session::Open: " + opened.status().ToString());
      return nullptr;
    }
    session = std::move(*opened);
  }
  ScopedSpan span(spans, "cql.Session.ExecuteScript");
  if (!session->ExecuteScript(kDdl).ok() ||
      !session->ExecuteSql(in.cust_sql).ok()) {
    Fail("DDL or relation load failed");
    return nullptr;
  }
  return session;
}

struct SlabTiming {
  std::vector<double> enqueue_us;
  std::vector<double> flush_us;
};

// Enqueues one slab on producer 0 and flushes; returns the slab's time in
// microseconds, or a negative value on failure.
double IngestSlab(chronicle::shard::ShardedDatabase* db, Slab slab,
                  SpanStore* spans, SlabTiming* timing, uint64_t* depth_max) {
  const uint64_t op = spans->NewOp();
  ScopedSpan slab_span(spans, "slab", 0, op);
  const int64_t t0 = NowNs();
  for (auto& batch : slab) {
    const int64_t e0 = NowNs();
    ScopedSpan span(spans, "shard.ShardedDatabase.EnqueueAppend",
                    slab_span.id(), op);
    if (!db->EnqueueAppend(0, "calls", std::move(batch)).ok()) return -1.0;
    if (timing != nullptr) {
      timing->enqueue_us.push_back(static_cast<double>(NowNs() - e0) / 1e3);
    }
  }
  if (depth_max != nullptr) {
    uint64_t depth = 0;
    for (const auto& shard : db->CollectStats().sharding.shards) {
      depth += shard.queue_depth;
    }
    *depth_max = std::max(*depth_max, depth);
  }
  const int64_t f0 = NowNs();
  {
    ScopedSpan span(spans, "shard.ShardedDatabase.Flush", slab_span.id(), op);
    if (!db->Flush().ok()) return -1.0;
  }
  const int64_t done = NowNs();
  if (timing != nullptr) {
    timing->flush_us.push_back(static_cast<double>(done - f0) / 1e3);
  }
  return static_cast<double>(done - t0) / 1e3;
}

// Digest of every view; false if any scan fails, so that an error on both
// sides of the oracle can never compare equal.
bool ViewFingerprints(
    const std::function<chronicle::Result<std::vector<Tuple>>(const char*)>&
        scan,
    std::map<std::string, Fingerprint>* out) {
  for (const char* view : kViews) {
    auto rows = scan(view);
    if (!rows.ok()) {
      return Fail(std::string("ScanView(") + view +
                  "): " + rows.status().ToString());
    }
    (*out)[view] = FingerprintRows(*rows);
  }
  return true;
}

}  // namespace

bool RunShardPipeline(const PassConfig& config, PassResult* pass,
                      double* setup_s) {
  const Options& opts = *config.options;
  SpanStore* spans = config.spans;
  const Inputs in = MakeInputs(opts.seed);
  const std::string dir = opts.work_dir + "/shard_pipeline";

  std::unique_ptr<Session> session;
  std::vector<double> setup_times;
  for (int k = 0; k < config.setups; ++k) {
    // The previous set-up's files are deleted outside the timed window.
    session.reset();
    std::filesystem::remove_all(dir);
    const int64_t t0 = NowNs();
    session = OpenSession(in, dir, kShards, spans);
    if (session == nullptr) return false;
    {
      ScopedSpan span(spans, "shard.ShardedDatabase.StartIngest");
      if (!session->sharded_db()->StartIngest(1).ok()) {
        return Fail("StartIngest failed");
      }
    }
    for (size_t s = 0; s < kWarmupSlabs; ++s) {
      if (IngestSlab(session->sharded_db(), in.slabs[s], spans, nullptr,
                     nullptr) < 0) {
        return Fail("warm-up slab failed");
      }
      (void)session->sharded_db()->ScanView("by_region");
    }
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  *setup_s = Median(setup_times);
  chronicle::shard::ShardedDatabase* db = session->sharded_db();

  std::vector<uint32_t> applied;
  for (size_t s = 0; s < kWarmupSlabs; ++s) {
    applied.push_back(static_cast<uint32_t>(s));
  }
  // The WAL section of a sharded snapshot is only filled while the
  // pipeline is stopped, so both snapshots are taken with ingest stopped.
  if (!db->StopIngest().ok()) return Fail("StopIngest failed");
  const auto before = session->CollectStats();
  if (!db->StartIngest(1).ok()) return Fail("StartIngest failed");
  SlabTiming timing;
  std::vector<double> point_us, scan_us;
  uint64_t depth_max = 0, failed = 0, attempted = 0;
  const int64_t end = NowNs() + static_cast<int64_t>(opts.seconds * 1e9);
  size_t next = kWarmupSlabs;
  while (NowNs() < end) {
    const uint32_t index = static_cast<uint32_t>(next % kPoolSlabs);
    const bool probe = config.traced && next % kDepthSampleEvery == 0;
    ++next;
    const Slab& slab = in.slabs[index];
    const double us = IngestSlab(db, slab, spans, config.traced ? &timing : nullptr,
                                 probe ? &depth_max : nullptr);
    ++attempted;
    if (us < 0) {
      ++failed;
      break;  // a failed async slab leaves the shards in an unknown state
    }
    applied.push_back(index);
    AddUnit(pass, NowNs(), static_cast<int64_t>(us * 1e3), kRowsPerSlab);
    pass->append_us.push_back(us);

    for (size_t q = 0; q <= kPointQueries; ++q) {
      const uint64_t op = spans->NewOp();
      const int64_t t0 = NowNs();
      bool ok;
      if (q < kPointQueries) {
        ScopedSpan span(spans, "shard.ShardedDatabase.QueryView", 0, op);
        const Tuple& row = slab[q % kBatchesPerSlab][(q * 31) % kRowsPerBatch];
        ok = db->QueryView("by_caller", Tuple{row[0]}).ok();
      } else {
        ScopedSpan span(spans, "shard.ShardedDatabase.ScanView", 0, op);
        ok = db->ScanView("by_region").ok();
      }
      const double q_us = static_cast<double>(NowNs() - t0) / 1e3;
      pass->query_us.push_back(q_us);
      (q < kPointQueries ? point_us : scan_us).push_back(q_us);
      ++attempted;
      if (!ok) ++failed;
    }
  }
  pass->attempted = attempted;
  pass->failed = failed;
  pass->peak_rss_mb = PeakRssMb();

  if (!db->Flush().ok() || !db->StopIngest().ok()) return Fail("StopIngest");
  auto& layer = pass->layer;
  if (config.traced) {
    const auto after = session->CollectStats();
    SnapshotLayerMetrics(before, after, pass->rows, pass->ingest_s,
                         session->maintenance_options().num_threads, &layer);
    PlanLayerMetrics(session.get(), &layer);
    layer["gen.appends_sent"] = static_cast<double>(applied.size() - kWarmupSlabs);
    layer["gen.queries_sent"] = static_cast<double>(pass->query_us.size());
    layer["shard.enqueue_p50_us"] =
        Percentile(timing.enqueue_us, 0.5).value_or(0);
    layer["shard.enqueue_p99_us"] =
        Percentile(timing.enqueue_us, 0.99).value_or(0);
    layer["shard.flush_p50_us"] = Percentile(timing.flush_us, 0.5).value_or(0);
    layer["shard.queue_depth_max"] = static_cast<double>(depth_max);
    layer["shard.merge_query_p50_us"] = Percentile(point_us, 0.5).value_or(0);
    layer["shard.merge_scan_p50_us"] = Percentile(scan_us, 0.5).value_or(0);

    // Split alone: Partitioner::Split over every pool slab.
    auto partitioner = chronicle::shard::Partitioner::Make(
        chronicle::CallRecordGenerator::RecordSchema(), "caller", kShards);
    if (partitioner.ok()) {
      int64_t split_ns = 0;
      for (const Slab& slab : in.slabs) {
        for (const auto& batch : slab) {
          std::vector<Tuple> copy = batch;
          const int64_t t0 = NowNs();
          auto parts = partitioner->Split(std::move(copy));
          split_ns += NowNs() - t0;
        }
      }
      layer["shard.split_ns_per_row"] =
          static_cast<double>(split_ns) /
          static_cast<double>(kPoolSlabs * kRowsPerSlab);
    }
  }

  // Oracle: a num_shards=1 replay of the same slabs gives identical views.
  std::map<std::string, Fingerprint> measured, expected;
  const bool measured_ok = ViewFingerprints(
      [&](const char* v) { return db->ScanView(v); }, &measured);
  session.reset();
  std::filesystem::remove_all(dir);
  const std::string oracle_dir = opts.work_dir + "/shard_oracle";
  std::filesystem::remove_all(oracle_dir);
  auto oracle = OpenSession(in, oracle_dir, 1, spans);
  if (oracle == nullptr) return false;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(spans, "oracle.Session.AppendRows");
    for (uint32_t index : applied) {
      if (!oracle->AppendRows("calls", in.slabs[index]).ok()) {
        return Fail("num_shards=1 replay failed");
      }
    }
  }
  const double replay_s = static_cast<double>(NowNs() - t0) / 1e9;
  const bool expected_ok = ViewFingerprints(
      [&](const char* v) { return oracle->db()->ScanView(v); }, &expected);
  pass->correct = measured_ok && expected_ok &&
                  (measured == expected ||
                   Fail("shard_pipeline: views differ from the num_shards=1 "
                        "replay"));
  if (config.traced && replay_s > 0) {
    const double serial_rate =
        static_cast<double>(applied.size() * kRowsPerSlab) / replay_s;
    layer["shard.speedup_vs_1shard"] = IngestRowsPerSecond(*pass) / serial_rate;
  }
  oracle.reset();
  std::filesystem::remove_all(oracle_dir);
  return true;
}

}  // namespace perfbench
