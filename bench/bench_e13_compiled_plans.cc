// Experiment E13 — row-compiled vs columnar delta plans.
//
// Reruns the E6 expression shapes (key-join chains, union fan-ins, group-by
// summaries) through both kernel modes on identical append streams:
//   * engine=1 Compiled (row) — DeltaPlan::ExecuteToRows over one
//     PlanScratch reused across ticks (slot buffers cleared not freed,
//     arena reset, retained dedupe/group tables), relation probes through
//     the status-free Relation::FindByKey, columnar kernels disabled;
//   * engine=2 Columnar — same plan, vectorizable slots run the typed
//     column kernels (exec/vector_kernels.h) and only materialize rows at
//     the root.
// Both engines produce byte-identical deltas (enforced by
// tests/plan_equivalence_fuzz_test.cc), so the gap between the curves is
// pure execution overhead — the constant factor Theorem 4.2 does not see.
// (The engine numbers are the report keys the columnar gate reads.) Pass
// criterion
// (EXPERIMENTS.md): columnar >= 2x row-compiled on UnionFan
// u=64/batch=256 and GroupedSummary batch=256 (CI derates via the cores
// counter, tools/check_columnar_speedup.py).

#include <benchmark/benchmark.h>

#include <fstream>
#include <thread>

#include "bench_common.h"
#include "common/random.h"
#include "db/database.h"
#include "exec/plan_compiler.h"
#include "obs/export.h"
#include "storage/chronicle_group.h"

namespace chronicle {
namespace bench {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

Schema RelSchema() {
  return Schema({{"acct", DataType::kInt64}, {"state", DataType::kString}});
}

struct Setup {
  ChronicleGroup group;
  ChronicleId calls;
  std::unique_ptr<Relation> rel;
  Rng rng{17};

  explicit Setup(int64_t rel_rows) {
    calls = Unwrap(group.CreateChronicle("calls", CallSchema(),
                                         RetentionPolicy::None()));
    rel = std::make_unique<Relation>(
        Unwrap(Relation::Make("cust", RelSchema(), "acct")));
    for (int64_t i = 0; i < rel_rows; ++i) {
      Check(rel->Insert(Tuple{Value(i), Value("NJ")}));
    }
  }

  CaExprPtr Scan() {
    return Unwrap(CaExpr::Scan(*Unwrap(group.GetChronicle(calls))));
  }

  AppendEvent NextEvent(int64_t key_bound, int64_t batch) {
    std::vector<Tuple> tuples;
    tuples.reserve(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i) {
      tuples.push_back(Tuple{Value(static_cast<int64_t>(rng.Uniform(
                                 static_cast<uint64_t>(key_bound)))),
                             Value("NJ"),
                             Value(static_cast<int64_t>(rng.Uniform(100)))});
    }
    return Unwrap(group.Append(calls, std::move(tuples)));
  }
};

// Drives one plan through the selected engine (1 = row compiled, 2 =
// columnar compiled) on identical event streams. `batch` tuples per
// append: the executors are batch-at-a-time, so larger ticks amortize
// fixed costs — and give the columnar kernels enough rows per loop to
// matter.
void RunEngine(benchmark::State& state, Setup* setup, CaExprPtr plan,
               int64_t engine_kind, int64_t key_bound, int64_t batch) {
  exec::DeltaPlanPtr compiled_plan = Unwrap(exec::CompileDeltaPlan(plan));
  exec::PlanScratch scratch;
  scratch.set_columnar_enabled(engine_kind == 2);
  // Pre-append the event pool outside timing: the measured region is the
  // delta execution the engines differ on, not row generation + storage
  // append (identical for both and re-executable per event).
  constexpr size_t kPool = 64;
  std::vector<AppendEvent> events;
  events.reserve(kPool);
  for (size_t i = 0; i < kPool; ++i) {
    events.push_back(setup->NextEvent(key_bound, batch));
  }
  size_t next = 0;
  size_t rows = 0;
  for (auto _ : state) {
    const AppendEvent& event = events[next];
    next = (next + 1) % kPool;
    const std::vector<ChronicleRow>* delta =
        Unwrap(compiled_plan->ExecuteToRows(event, &scratch, nullptr));
    rows += delta->size();
    benchmark::DoNotOptimize(delta);
  }
  state.counters["appends_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["rows_per_delta"] =
      static_cast<double>(rows) / static_cast<double>(state.iterations());
  state.counters["engine"] = static_cast<double>(engine_kind);
  state.counters["cores"] =
      static_cast<double>(std::thread::hardware_concurrency());
}

// --- UnionFan(u): the acceptance shape. u guarded selections over one
// shared scan, unioned; the compiler lowers the scan once.
CaExprPtr UnionFanPlan(Setup* setup, int64_t u) {
  CaExprPtr scan = setup->Scan();
  CaExprPtr plan =
      Unwrap(CaExpr::Select(scan, Eq(Col("region"), Lit(Value("NJ")))));
  for (int64_t i = 1; i < u; ++i) {
    CaExprPtr branch =
        Unwrap(CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(i % 90)))));
    plan = Unwrap(CaExpr::Union(plan, branch));
  }
  return plan;
}

void UnionFan(benchmark::State& state) {
  Setup setup(16);
  RunEngine(state, &setup, UnionFanPlan(&setup, state.range(0)),
            /*engine_kind=*/state.range(1), /*key_bound=*/16,
            /*batch=*/state.range(2));
  state.counters["u"] = static_cast<double>(state.range(0));
  state.counters["batch"] = static_cast<double>(state.range(2));
}
BENCHMARK(UnionFan)
    ->ArgNames({"u", "engine", "batch"})
    ->Args({4, 1, 4})
    ->Args({4, 2, 4})
    ->Args({16, 1, 4})
    ->Args({16, 2, 4})
    ->Args({64, 1, 4})
    ->Args({64, 2, 4})
    ->Args({64, 1, 256})
    ->Args({64, 2, 256});

// --- KeyJoinChain(j): j stacked relation key joins (the CA_join fast
// path); both engines take the status-free miss path and reuse their
// slot vectors.
void KeyJoinChain(benchmark::State& state) {
  const int64_t j = state.range(0);
  Setup setup(Scaled(100000, 1000));
  CaExprPtr plan = setup.Scan();
  for (int64_t i = 0; i < j; ++i) {
    plan = Unwrap(CaExpr::RelKeyJoin(plan, setup.rel.get(), "caller"));
  }
  // Half the probes miss: key_bound = 2x relation size.
  RunEngine(state, &setup, plan, /*engine_kind=*/state.range(1),
            /*key_bound=*/Scaled(200000, 2000), /*batch=*/4);
  state.counters["j"] = static_cast<double>(j);
}
BENCHMARK(KeyJoinChain)
    ->ArgNames({"j", "engine"})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({4, 1})
    ->Args({4, 2});

// --- GroupedSummary(batch): selection + group-by over growing tick sizes;
// exercises the retained group table, the reused key probe, and the arena
// that carries the group output order.
void GroupedSummary(benchmark::State& state) {
  Setup setup(16);
  CaExprPtr plan = Unwrap(CaExpr::GroupBySeq(
      Unwrap(CaExpr::Select(setup.Scan(),
                            Gt(Col("minutes"), Lit(Value(10))))),
      {"caller"}, {AggSpec::Sum("minutes", "m"), AggSpec::Count("n")}));
  RunEngine(state, &setup, plan, /*engine_kind=*/state.range(1),
            /*key_bound=*/64, /*batch=*/state.range(0));
  state.counters["batch"] = static_cast<double>(state.range(0));
}
BENCHMARK(GroupedSummary)
    ->ArgNames({"batch", "engine"})
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({256, 1})
    ->Args({256, 2});

// --- DbUnionFan(obs): the acceptance shape driven through the full
// ChronicleDatabase append path (routing, compiled execution, view fold),
// at three instrumentation levels: obs=0 none, obs=1 metrics + tracing,
// obs=2 metrics + tracing + the per-slot plan profiler (sampled ticks pay
// two clock reads per instruction). The obs/ subsystem's acceptance bound
// is that each instrumented curve stays within 5% of the one below it;
// tools/check_obs_overhead.py asserts both ratios from this bench's smoke
// JSON report. The obs>=1 runs also validate the JSON exporter against its
// own grammar checker and, in smoke mode, dump the snapshot to
// STATS_E13.json for CI to parse.
void DbUnionFan(benchmark::State& state) {
  const int64_t u = 64;
  const int64_t obs = state.range(0);
  ChronicleDatabase db(DatabaseOptions()
                           .set_metrics(obs != 0)
                           .set_trace_capacity(obs != 0 ? 256 : 0)
                           .set_profile_plan_slots(obs >= 2));
  Check(db.CreateChronicle("calls", CallSchema(), RetentionPolicy::None())
            .status());
  CaExprPtr scan = Unwrap(db.ScanChronicle("calls"));
  CaExprPtr plan =
      Unwrap(CaExpr::Select(scan, Eq(Col("region"), Lit(Value("NJ")))));
  for (int64_t i = 1; i < u; ++i) {
    CaExprPtr branch =
        Unwrap(CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(i % 90)))));
    plan = Unwrap(CaExpr::Union(plan, branch));
  }
  SummarySpec spec = Unwrap(SummarySpec::GroupBy(
      plan->schema(), {"caller"}, {AggSpec::Sum("minutes", "m")}));
  Check(db.CreateView("fan", plan, spec).status());

  Rng rng{17};
  Chronon chronon = 0;
  for (auto _ : state) {
    std::vector<Tuple> tuples;
    tuples.reserve(4);
    for (int64_t i = 0; i < 4; ++i) {
      tuples.push_back(Tuple{Value(static_cast<int64_t>(rng.Uniform(16))),
                             Value("NJ"),
                             Value(static_cast<int64_t>(rng.Uniform(100)))});
    }
    Check(db.Append("calls", std::move(tuples), ++chronon).status());
  }
  state.counters["appends_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["obs"] = static_cast<double>(obs);

  if (obs != 0) {
    const std::string json = obs::RenderJson(db.CollectStats());
    Check(obs::ValidateJson(json));
    if (obs >= 2) {
      // The profiler must actually have sampled: a silent no-op would make
      // the overhead gate vacuous.
      const std::string explain = Unwrap(db.ExplainViewJson("fan"));
      Check(obs::ValidateJson(explain));
      if (explain.find("\"sampled_ticks\":0") != std::string::npos) {
        std::fprintf(stderr, "E13: profiler enabled but no sampled ticks\n");
        std::abort();
      }
    }
    if (SmokeMode()) {
      std::ofstream out(SmokeArtifactFile("STATS_E13.json"));
      out << json << "\n";
    }
  }
}
BENCHMARK(DbUnionFan)->ArgNames({"obs"})->Args({0})->Args({1})->Args({2});

}  // namespace
}  // namespace bench
}  // namespace chronicle

CHRONICLE_BENCH_MAIN();
