// Tests for the observability subsystem (src/obs) and the DatabaseOptions
// facade: registry sharding and merge-on-read, trace-ring wraparound, the
// thread-count invariance of maintenance metrics (1/2/8 workers must agree
// with the serial run), batch-report alignment (every fan-out task reports
// a batch entry, even an empty one), and the exporter round-trip — the
// per-view counters in the snapshot must be reconstructable from the
// per-tick MaintenanceReports.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "db/database.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace chronicle {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

Tuple Call(int64_t caller, const std::string& region, int64_t minutes) {
  return Tuple{Value(caller), Value(region), Value(minutes)};
}

// --- MetricsRegistry ---

TEST(MetricsRegistryTest, CountersMergeAcrossShards) {
  obs::MetricsRegistry registry;
  obs::MetricId ticks = registry.AddCounter("ticks", "test counter");
  obs::MetricId rows = registry.AddCounter("rows", "another counter");
  // Spread increments over more worker indexes than there are shards; the
  // wrap (& kShards-1) must lose nothing.
  for (size_t worker = 0; worker < 3 * obs::MetricsRegistry::kShards;
       ++worker) {
    registry.Count(ticks, 2, worker);
  }
  registry.Count(rows, 7);
  EXPECT_EQ(registry.CounterValue(ticks),
            2 * 3 * obs::MetricsRegistry::kShards);
  EXPECT_EQ(registry.CounterValue(rows), 7u);

  std::vector<obs::MetricSample> samples;
  registry.Snapshot(&samples);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "ticks");
  EXPECT_FALSE(samples[0].is_histogram);
  EXPECT_EQ(samples[0].value, registry.CounterValue(ticks));
}

TEST(MetricsRegistryTest, HistogramsMergeAcrossShards) {
  obs::MetricsRegistry registry;
  obs::MetricId lat = registry.AddHistogram("lat_ns", "test histogram");
  registry.Observe(lat, 100, /*worker=*/0);
  registry.Observe(lat, 200, /*worker=*/1);
  registry.Observe(lat, 300, /*worker=*/5);
  LatencyHistogram merged = registry.MergedHistogram(lat);
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_DOUBLE_EQ(merged.SumNanos(), 600.0);
  EXPECT_EQ(merged.MinNanos(), 100);
  EXPECT_EQ(merged.MaxNanos(), 300);
}

TEST(MetricsRegistryTest, ConcurrentCountsAreLossless) {
  obs::MetricsRegistry registry;
  obs::MetricId id = registry.AddCounter("c", "concurrent counter");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, id, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        registry.Count(id, 1, static_cast<size_t>(t));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.CounterValue(id), kThreads * kPerThread);
}

// --- TraceRing ---

TEST(TraceRingTest, WrapsAroundKeepingNewestSpans) {
  obs::TraceRing ring(4);  // already a power of two
  ASSERT_TRUE(ring.enabled());
  ASSERT_EQ(ring.capacity(), 4u);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.Emit(obs::SpanKind::kAppendTick, /*worker=*/0, /*sn=*/i,
              /*start_ns=*/static_cast<int64_t>(i * 10),
              /*duration_ns=*/5, /*detail0=*/i);
  }
  EXPECT_EQ(ring.total_emitted(), 10u);
  std::vector<obs::TraceSpan> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first window over the last 4 emissions (seq 6..9).
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].seq, 6 + i);
    EXPECT_EQ(spans[i].sn, 6 + i);
    EXPECT_EQ(spans[i].detail0, 6 + i);
  }
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  obs::TraceRing ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
}

TEST(TraceRingTest, ZeroCapacityDisables) {
  obs::TraceRing ring(0);
  EXPECT_FALSE(ring.enabled());
  ring.Emit(obs::SpanKind::kMerge, 0, 1, 0, 0);  // must be a no-op
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.total_emitted(), 0u);
}

TEST(TraceRingTest, SnapshotRacesEmissionWithoutTearing) {
  // The monitoring endpoint snapshots the ring while appends keep emitting;
  // the per-slot seqlock must hand the reader only coherent spans. Writers
  // stamp every payload field of span i with i, so any cross-slot or
  // mid-overwrite mix is detectable. Run under TSan via the obs_test CI
  // regex, this is also the data-race proof for the seqlock itself.
  obs::TraceRing ring(16);  // small ring = constant overwriting
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const obs::TraceSpan& span : ring.Snapshot()) {
        const uint64_t i = span.sn;
        if (span.detail0 != i || span.detail1 != i ||
            span.start_ns != static_cast<int64_t>(i) ||
            span.duration_ns != static_cast<int64_t>(i)) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        ring.Emit(obs::SpanKind::kAppendTick, static_cast<uint16_t>(w),
                  /*sn=*/i, /*start_ns=*/static_cast<int64_t>(i),
                  /*duration_ns=*/static_cast<int64_t>(i),
                  /*detail0=*/i, /*detail1=*/i);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(ring.total_emitted(), kWriters * kPerWriter);
  // Quiescent snapshot: full window, globally ordered oldest-first.
  std::vector<obs::TraceSpan> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), ring.capacity());
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i - 1].seq, spans[i].seq);
  }
}

// --- DatabaseOptions facade ---

TEST(DatabaseOptionsTest, BuilderChainsAndAggregateAccessAgree) {
  DatabaseOptions options = DatabaseOptions()
                                .set_routing(RoutingMode::kGuards)
                                .set_num_threads(4)
                                .set_use_columnar_kernels(false)
                                .set_trace_capacity(32)
                                .set_profile_view_latency(true);
  EXPECT_EQ(options.routing, RoutingMode::kGuards);
  EXPECT_EQ(options.maintenance.num_threads, 4u);
  EXPECT_FALSE(options.maintenance.use_columnar_kernels);
  EXPECT_EQ(options.observability.trace_capacity, 32u);
  EXPECT_TRUE(options.observability.profile_view_latency);

  ChronicleDatabase db(options);
  EXPECT_EQ(db.options().maintenance.num_threads, 4u);
  EXPECT_EQ(db.maintenance_options().num_threads, 4u);
  ASSERT_NE(db.trace(), nullptr);
  EXPECT_EQ(db.trace()->capacity(), 32u);
}

TEST(DatabaseOptionsTest, ObservabilityCanBeFullyDisabled) {
  ChronicleDatabase db(
      DatabaseOptions().set_metrics(false).set_trace_capacity(0));
  EXPECT_EQ(db.metrics(), nullptr);
  EXPECT_EQ(db.trace(), nullptr);
  ASSERT_TRUE(db.CreateChronicle("calls", CallSchema()).ok());
  AppendResult result = db.Append("calls", {Call(1, "NJ", 5)}).value();
  // Without observability the report carries only the seed's aggregate
  // counters; the per-view/per-batch vectors stay empty (zero cost).
  EXPECT_TRUE(result.maintenance.views.empty());
  EXPECT_TRUE(result.maintenance.batches.empty());
  obs::StatsSnapshot snap = db.CollectStats();
  EXPECT_TRUE(snap.metrics.empty());
  EXPECT_EQ(snap.trace_capacity, 0u);
}

TEST(DatabaseOptionsTest, LegacyRoutingCtorAndRuntimeReconfigure) {
  ChronicleDatabase db(RoutingMode::kCheckAll);
  EXPECT_EQ(db.options().routing, RoutingMode::kCheckAll);
  MaintenanceOptions m;
  m.num_threads = 2;
  // The runtime reconfiguration entry points must keep options() in sync —
  // the contract the removed set_* forwarders used to delegate to.
  db.ReconfigureMaintenance(m);
  EXPECT_EQ(db.options().maintenance.num_threads, 2u);
  EXPECT_EQ(db.maintenance_options().num_threads, 2u);
  db.DetachMutationLog();
  EXPECT_EQ(db.options().durability.mutation_log, nullptr);
}

TEST(DatabaseOptionsTest, OpenReturnsConfiguredDatabase) {
  std::unique_ptr<ChronicleDatabase> db =
      ChronicleDatabase::Open(DatabaseOptions().set_num_threads(2));
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->maintenance_options().num_threads, 2u);
  ASSERT_TRUE(db->CreateChronicle("calls", CallSchema()).ok());
  EXPECT_TRUE(db->Append("calls", {Call(1, "NJ", 5)}).ok());
}

// --- maintenance metrics ---

// Builds a database with `num_views` single-select views over one
// chronicle and appends `ticks` batches; returns the final snapshot.
obs::StatsSnapshot RunMaintenance(size_t num_threads, size_t num_views,
                                  uint64_t ticks,
                                  std::vector<MaintenanceReport>* reports) {
  DatabaseOptions options;
  options.set_num_threads(num_threads);
  options.maintenance.min_views_per_task = 1;  // force the fan-out
  ChronicleDatabase db(options);
  EXPECT_TRUE(db.CreateChronicle("calls", CallSchema()).ok());
  CaExprPtr scan = db.ScanChronicle("calls").value();
  for (size_t v = 0; v < num_views; ++v) {
    CaExprPtr plan =
        CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(static_cast<int64_t>(
                                 v % 3)))))
            .value();
    SummarySpec spec = SummarySpec::GroupBy(plan->schema(), {"caller"},
                                            {AggSpec::Sum("minutes", "m")})
                           .value();
    std::string name = "v";
    name += std::to_string(v);
    EXPECT_TRUE(db.CreateView(name, plan, spec).ok());
  }
  for (uint64_t i = 0; i < ticks; ++i) {
    AppendResult result =
        db.Append("calls", {Call(static_cast<int64_t>(i % 7), "NJ", 10)})
            .value();
    if (reports != nullptr) reports->push_back(std::move(result.maintenance));
  }
  return db.CollectStats();
}

uint64_t CounterByName(const obs::StatsSnapshot& snap,
                       const std::string& name) {
  for (const obs::MetricSample& m : snap.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric named " << name;
  return 0;
}

TEST(MaintenanceMetricsTest, CountersInvariantAcrossThreadCounts) {
  constexpr size_t kViews = 12;
  constexpr uint64_t kTicks = 40;
  obs::StatsSnapshot serial = RunMaintenance(1, kViews, kTicks, nullptr);
  obs::StatsSnapshot two = RunMaintenance(2, kViews, kTicks, nullptr);
  obs::StatsSnapshot eight = RunMaintenance(8, kViews, kTicks, nullptr);

  for (const obs::StatsSnapshot* snap : {&serial, &two, &eight}) {
    EXPECT_EQ(snap->appends_processed, kTicks);
    EXPECT_EQ(snap->live_views, kViews);
    EXPECT_EQ(CounterByName(*snap, "maintenance_view_ticks_total"),
              kViews * kTicks);
    ASSERT_EQ(snap->views.size(), kViews);
  }
  // Per-view stats must agree exactly: same deltas regardless of the
  // worker count (determinism), and the counters must not lose increments
  // to sharding or concurrency.
  for (size_t v = 0; v < kViews; ++v) {
    EXPECT_EQ(serial.views[v].name, two.views[v].name);
    EXPECT_EQ(serial.views[v].stats.ticks, kTicks);
    EXPECT_EQ(two.views[v].stats.ticks, kTicks);
    EXPECT_EQ(eight.views[v].stats.ticks, kTicks);
    EXPECT_EQ(serial.views[v].stats.delta_rows, two.views[v].stats.delta_rows);
    EXPECT_EQ(serial.views[v].stats.delta_rows,
              eight.views[v].stats.delta_rows);
    EXPECT_EQ(serial.views[v].stats.updates, eight.views[v].stats.updates);
  }
  EXPECT_EQ(CounterByName(serial, "maintenance_delta_rows_total"),
            CounterByName(eight, "maintenance_delta_rows_total"));
  EXPECT_EQ(CounterByName(serial, "maintenance_parallel_ticks_total"), 0u);
  EXPECT_GT(CounterByName(eight, "maintenance_parallel_ticks_total"), 0u);
}

TEST(MaintenanceMetricsTest, BatchesAlignWithWorkersEvenWhenEmpty) {
  std::vector<MaintenanceReport> reports;
  RunMaintenance(/*num_threads=*/4, /*num_views=*/6, /*ticks=*/5, &reports);
  ASSERT_FALSE(reports.empty());
  for (const MaintenanceReport& report : reports) {
    ASSERT_FALSE(report.batches.empty());
    size_t batch_views = 0;
    for (size_t i = 0; i < report.batches.size(); ++i) {
      // Entry i must describe fan-out task i — including zero-view tasks,
      // which older reports silently dropped, shifting every later
      // worker's timing onto the wrong slot.
      EXPECT_EQ(report.batches[i].worker, i);
      EXPECT_GE(report.batches[i].nanos, 0);
      batch_views += report.batches[i].views;
    }
    EXPECT_EQ(batch_views, report.views_considered);
    EXPECT_EQ(report.views.size(), report.views_considered);
  }
}

TEST(MaintenanceMetricsTest, TraceRecordsTickRoutingAndMerge) {
  DatabaseOptions options;
  options.set_num_threads(2).set_trace_capacity(128);
  options.maintenance.min_views_per_task = 1;
  ChronicleDatabase db(options);
  ASSERT_TRUE(db.CreateChronicle("calls", CallSchema()).ok());
  CaExprPtr scan = db.ScanChronicle("calls").value();
  for (int v = 0; v < 4; ++v) {
    SummarySpec spec = SummarySpec::GroupBy(scan->schema(), {"caller"},
                                            {AggSpec::Count("n")})
                           .value();
    std::string name = "v";
    name += std::to_string(v);
    ASSERT_TRUE(db.CreateView(name, scan, spec).ok());
  }
  ASSERT_TRUE(db.Append("calls", {Call(1, "NJ", 5)}).ok());

  ASSERT_NE(db.trace(), nullptr);
  std::vector<obs::TraceSpan> spans = db.trace()->Snapshot();
  std::set<obs::SpanKind> kinds;
  size_t worker_batches = 0;
  for (const obs::TraceSpan& span : spans) {
    kinds.insert(span.kind);
    if (span.kind == obs::SpanKind::kWorkerBatch) ++worker_batches;
    EXPECT_EQ(span.sn, 1u);
    EXPECT_GE(span.duration_ns, 0);
  }
  EXPECT_TRUE(kinds.count(obs::SpanKind::kAppendTick));
  EXPECT_TRUE(kinds.count(obs::SpanKind::kRouting));
  EXPECT_TRUE(kinds.count(obs::SpanKind::kMerge));
  EXPECT_EQ(worker_batches, 2u);  // one span per fan-out task
}

TEST(MaintenanceMetricsTest, ProfilingOptionPopulatesLatencyHistograms) {
  DatabaseOptions options;
  options.set_profile_view_latency(true);
  ChronicleDatabase db(options);
  ASSERT_TRUE(db.CreateChronicle("calls", CallSchema()).ok());
  CaExprPtr scan = db.ScanChronicle("calls").value();
  SummarySpec spec = SummarySpec::GroupBy(scan->schema(), {"caller"},
                                          {AggSpec::Count("n")})
                         .value();
  ASSERT_TRUE(db.CreateView("v", scan, spec).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db.Append("calls", {Call(i, "NJ", 5)}).ok());
  }
  obs::StatsSnapshot snap = db.CollectStats();
  ASSERT_EQ(snap.views.size(), 1u);
  EXPECT_TRUE(snap.views[0].profiled);
  EXPECT_EQ(snap.views[0].latency.count(), 3u);
}

// --- exporter round-trip ---

// The acceptance criterion for the exporters: in a deterministic
// single-threaded run, the per-view counters in the final snapshot must be
// exactly reconstructable from the per-tick MaintenanceReports.
TEST(ExporterRoundTripTest, SnapshotMatchesAccumulatedReports) {
  constexpr size_t kViews = 5;
  constexpr uint64_t kTicks = 30;
  std::vector<MaintenanceReport> reports;
  obs::StatsSnapshot snap = RunMaintenance(1, kViews, kTicks, &reports);

  // Reconstruct per-view ticks / delta_rows / compiled_ticks from the
  // reports. ViewIds are registration-ordered, matching snap.views.
  std::map<ViewId, obs::ViewStats> rebuilt;
  for (const MaintenanceReport& report : reports) {
    for (const MaintenanceViewOutcome& outcome : report.views) {
      obs::ViewStats& s = rebuilt[outcome.view];
      s.ticks += 1;
      s.delta_rows += outcome.delta_rows;
      if (outcome.delta_rows > 0) s.updates += 1;
      s.compiled_ticks += 1;  // every tick runs a compiled plan
    }
  }
  ASSERT_EQ(rebuilt.size(), kViews);
  ASSERT_EQ(snap.views.size(), kViews);
  size_t i = 0;
  uint64_t total_rows = 0;
  for (const auto& [view_id, stats] : rebuilt) {
    SCOPED_TRACE(snap.views[i].name);
    EXPECT_EQ(stats.ticks, snap.views[i].stats.ticks);
    EXPECT_EQ(stats.updates, snap.views[i].stats.updates);
    EXPECT_EQ(stats.delta_rows, snap.views[i].stats.delta_rows);
    EXPECT_EQ(stats.compiled_ticks, snap.views[i].stats.compiled_ticks);
    total_rows += stats.delta_rows;
    ++i;
  }
  // The registry's aggregate counters agree with the same reconstruction.
  EXPECT_EQ(CounterByName(snap, "maintenance_view_ticks_total"),
            kViews * kTicks);
  EXPECT_EQ(CounterByName(snap, "maintenance_delta_rows_total"), total_rows);
}

TEST(ExporterRoundTripTest, RenderersProduceParsableOutput) {
  obs::StatsSnapshot snap = RunMaintenance(2, 3, 10, nullptr);
  snap.wal.attached = true;  // exercise the WAL section too
  snap.wal.records_logged = 10;
  snap.wal.fsync_latency.Record(1500);

  const std::string json = obs::RenderJson(snap);
  EXPECT_TRUE(obs::ValidateJson(json).ok()) << json;

  const std::string prom = obs::RenderPrometheus(snap);
  EXPECT_NE(prom.find("# TYPE chronicle_view_ticks_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("chronicle_view_ticks_total{view=\"v0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("chronicle_appends_processed_total 10"),
            std::string::npos);
  // Histogram series must end with the +Inf bucket equal to _count.
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  const std::string text = obs::RenderText(snap);
  EXPECT_NE(text.find("v0"), std::string::npos);
  EXPECT_NE(text.find("wal"), std::string::npos);
}

TEST(ExporterRoundTripTest, ValidateJsonRejectsMalformedInput) {
  EXPECT_TRUE(obs::ValidateJson("{\"a\": [1, 2.5e3, \"x\\n\", null]}").ok());
  EXPECT_TRUE(obs::ValidateJson("-0.5").ok());
  EXPECT_FALSE(obs::ValidateJson("").ok());
  EXPECT_FALSE(obs::ValidateJson("{").ok());
  EXPECT_FALSE(obs::ValidateJson("{\"a\": 1,}").ok());
  EXPECT_FALSE(obs::ValidateJson("[1 2]").ok());
  EXPECT_FALSE(obs::ValidateJson("01").ok());
  EXPECT_FALSE(obs::ValidateJson("\"unterminated").ok());
  EXPECT_FALSE(obs::ValidateJson("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(obs::ValidateJson("nul").ok());
}

}  // namespace
}  // namespace chronicle
