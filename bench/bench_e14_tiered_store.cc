// Experiment E14 — the tiered chronicle store (src/store).
//
// Three questions, one CDR workload:
//   * SpillThroughput — how fast can appends flow through a tiered
//     chronicle while rows age out of the hot window into sealed segment
//     files? Reports the warm tier's on-disk footprint against the
//     in-memory-equivalent bytes of the same rows: the acceptance bound is
//     disk <= 1/3 of in-memory (varint SN deltas + length-prefixed serde
//     vs. deque-of-Tuple overhead).
//   * Backfill — RegisterViewWithBackfill over a mostly-on-disk history:
//     rows/sec streamed through the k-way merge into view maintenance.
//     Acceptance: >= 1M rows/sec.
//   * WarmScan — the merged ScanRetained path (segments then hot deque)
//     that window queries and the naive baseline ride.
//
// Smoke runs write BENCH_E14.json; CI checks both acceptance counters.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>

#include "bench_common.h"
#include "db/database.h"
#include "workload/call_records.h"

namespace chronicle {
namespace bench {
namespace {

namespace fs = std::filesystem;

// Every bench instance gets a private scratch directory under /tmp.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() /
               ("chronicle_e14_" + name + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

DatabaseOptions TieredOptions(const std::string& dir, size_t hot_rows) {
  DatabaseOptions options;
  options.storage.data_dir = dir;
  options.storage.hot_rows = hot_rows;
  options.storage.segment_rows = 4096;
  options.observability.metrics = false;  // measure the store, not obs
  return options;
}

// --- SpillThroughput: timed append loop; most rows end up on disk.
void SpillThroughput(benchmark::State& state) {
  const int64_t batch = state.range(0);
  ScratchDir dir("spill");
  ChronicleDatabase db(TieredOptions(dir.path(), /*hot_rows=*/8192));
  Check(db.CreateChronicle("calls", CallRecordGenerator::RecordSchema(),
                           RetentionPolicy::Tiered(8192))
            .status());
  CallRecordGenerator gen;
  uint64_t rows = 0;
  for (auto _ : state) {
    Check(db.Append("calls", gen.NextBatch(static_cast<size_t>(batch)))
              .status());
    rows += static_cast<uint64_t>(batch);
  }
  state.counters["rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsRate);

  const store::TieredStore* store = db.tiered_store();
  if (store != nullptr && store->WarmRows(0) > 0) {
    const store::WarmTierInfo warm = store->TierOf(0);
    state.counters["warm_rows"] = static_cast<double>(warm.rows);
    state.counters["warm_disk_bytes"] = static_cast<double>(warm.bytes);
    state.counters["warm_raw_bytes"] = static_cast<double>(warm.raw_bytes);
    // Acceptance: <= 0.3333 (on-disk bytes vs in-memory footprint).
    state.counters["disk_over_memory"] =
        static_cast<double>(warm.bytes) / static_cast<double>(warm.raw_bytes);
  }
}
BENCHMARK(SpillThroughput)->ArgNames({"batch"})->Args({16})->Args({256});

// --- Backfill: a late view over a mostly-on-disk history. Each iteration
// registers a fresh view with backfill (full replay), then drops it.
void Backfill(benchmark::State& state) {
  ScratchDir dir("backfill");
  ChronicleDatabase db(TieredOptions(dir.path(), /*hot_rows=*/4096));
  Check(db.CreateChronicle("calls", CallRecordGenerator::RecordSchema(),
                           RetentionPolicy::Tiered(4096))
            .status());
  CallRecordGenerator gen;
  const int64_t total_rows = Scaled(512000, 16000);
  const int64_t batch = 64;
  for (int64_t appended = 0; appended < total_rows; appended += batch) {
    Check(db.Append("calls", gen.NextBatch(static_cast<size_t>(batch)))
              .status());
  }

  CaExprPtr scan = Unwrap(db.ScanChronicle("calls"));
  SummarySpec spec = Unwrap(SummarySpec::GroupBy(
      scan->schema(), {"caller"},
      {AggSpec::Sum("minutes", "m"), AggSpec::Count("n")}));

  uint64_t rows_replayed = 0;
  int view = 0;
  for (auto _ : state) {
    const std::string name = "late_" + std::to_string(view++);
    BackfillReport report =
        Unwrap(db.RegisterViewWithBackfill(name, scan, spec));
    rows_replayed += report.rows_replayed;
    state.PauseTiming();
    Check(db.DropView(name));
    state.ResumeTiming();
  }
  // Acceptance: >= 1e6.
  state.counters["backfill_rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows_replayed), benchmark::Counter::kIsRate);
  state.counters["history_rows"] = static_cast<double>(total_rows);
}
BENCHMARK(Backfill);

// --- WarmScan: the merged warm+hot ScanRetained visitor path.
void WarmScan(benchmark::State& state) {
  ScratchDir dir("scan");
  ChronicleDatabase db(TieredOptions(dir.path(), /*hot_rows=*/4096));
  Check(db.CreateChronicle("calls", CallRecordGenerator::RecordSchema(),
                           RetentionPolicy::Tiered(4096))
            .status());
  CallRecordGenerator gen;
  const int64_t total_rows = Scaled(512000, 16000);
  for (int64_t appended = 0; appended < total_rows; appended += 64) {
    Check(db.Append("calls", gen.NextBatch(64)).status());
  }
  const Chronicle* chron = Unwrap(db.group().GetChronicle(0));
  uint64_t rows = 0;
  for (auto _ : state) {
    uint64_t n = 0;
    int64_t minutes = 0;
    Check(chron->ScanRetained([&](const ChronicleRow& row) {
      ++n;
      minutes += row.values[2].int64();
    }));
    benchmark::DoNotOptimize(minutes);
    rows += n;
  }
  state.counters["scan_rows_per_sec"] = benchmark::Counter(
      static_cast<double>(rows), benchmark::Counter::kIsRate);
}
BENCHMARK(WarmScan);

}  // namespace
}  // namespace bench
}  // namespace chronicle

CHRONICLE_BENCH_MAIN();
