// Experiment E8 — Theorem 4.2 / 4.4 space claims.
//
// Memory accounting after streaming N records:
//   * chronicle_bytes — what the chronicle itself retains, per retention
//     policy (None / last-1k window / All). The relational baseline NEEDS
//     the All column; the chronicle model works with the None column.
//   * view_bytes      — the persistent view: proportional to the number of
//     groups |V|, NOT to N.
//   * delta_peak_rows — the maintenance working set: bounded by the batch
//     size, independent of N.
//
// This bench reports counters rather than timing curves; the numbers are
// the experiment.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.h"
#include "db/database.h"
#include "exec/plan_compiler.h"
#include "workload/call_records.h"

namespace chronicle {
namespace bench {
namespace {

void RunSpace(benchmark::State& state, RetentionPolicy retention) {
  const int64_t stream_size = state.range(0);
  for (auto _ : state) {
    ChronicleDatabase db;
    Check(db.CreateChronicle("calls", CallRecordGenerator::RecordSchema(),
                             retention)
              .status());
    CaExprPtr scan = Unwrap(db.ScanChronicle("calls"));
    SummarySpec spec = Unwrap(SummarySpec::GroupBy(
        scan->schema(), {"caller"}, {AggSpec::Sum("minutes", "total")}));
    Check(db.CreateView("minutes", scan, spec).status());

    CallRecordOptions options;
    options.num_accounts = 4096;  // |V| saturates at 4096 groups
    CallRecordGenerator gen(options);
    exec::DeltaPlanPtr probe = Unwrap(exec::CompileDeltaPlan(scan));
    exec::PlanScratch scratch;
    size_t delta_peak = 0;
    Chronon chronon = 0;
    int64_t remaining = stream_size;
    while (remaining > 0) {
      const size_t n = remaining < 64 ? static_cast<size_t>(remaining) : 64;
      AppendResult result =
          Unwrap(db.Append("calls", gen.NextBatch(n), ++chronon));
      DeltaStats stats;
      auto delta = probe->Execute(result.event, &scratch, &stats);
      benchmark::DoNotOptimize(delta);
      delta_peak = std::max(delta_peak, stats.max_intermediate_rows);
      remaining -= static_cast<int64_t>(n);
    }

    state.counters["stream_records"] = static_cast<double>(stream_size);
    state.counters["chronicle_bytes"] =
        static_cast<double>(db.group().MemoryFootprint());
    state.counters["view_bytes"] =
        static_cast<double>(db.view_manager().MemoryFootprint());
    state.counters["view_groups"] = static_cast<double>(
        Unwrap(db.view_manager().FindView("minutes"))->size());
    state.counters["delta_peak_rows"] = static_cast<double>(delta_peak);
  }
}

void RetentionNone(benchmark::State& state) {
  RunSpace(state, RetentionPolicy::None());
}
BENCHMARK(RetentionNone)->RangeMultiplier(8)->Range(1 << 12, Scaled(1 << 18, 1 << 13))
    ->Iterations(1);

void RetentionWindow1k(benchmark::State& state) {
  RunSpace(state, RetentionPolicy::Window(1024));
}
BENCHMARK(RetentionWindow1k)->RangeMultiplier(8)->Range(1 << 12, Scaled(1 << 18, 1 << 13))
    ->Iterations(1);

void RetentionAll(benchmark::State& state) {
  RunSpace(state, RetentionPolicy::All());
}
BENCHMARK(RetentionAll)->RangeMultiplier(8)->Range(1 << 12, Scaled(1 << 18, 1 << 13))
    ->Iterations(1);

}  // namespace
}  // namespace bench
}  // namespace chronicle

CHRONICLE_BENCH_MAIN();
