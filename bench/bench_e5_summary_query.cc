// Experiment E5 — the §1 "subsecond summary queries" claim.
//
// Latency of the dollar_balance summary query. Series:
//   * ViewLookupHash    — point lookup on the persistent view, hash index;
//     flat as |C| grows (and as |V| grows).
//   * ViewLookupOrdered — same with the ordered index: O(log |V|).
//   * ChronicleScan     — answering the query the relational way, by
//     scanning the stored chronicle: O(|C|) and impossible once the
//     chronicle is discarded.
//   * CqlPointLookup    — the ViewLookupHash query through the front door:
//     `SELECT * FROM balance WHERE acct = k` via cql::Session::ExecuteSql
//     (parse, session lock, plan, read, projection).

#include <benchmark/benchmark.h>

#include "baseline/naive_engine.h"
#include "bench_common.h"
#include "cql/session.h"
#include "db/database.h"
#include "workload/banking.h"

namespace chronicle {
namespace bench {
namespace {

// Loads `size` banking transactions into `db` under the `balance` view.
void Load(ChronicleDatabase& db, int64_t size, RetentionPolicy retention,
          IndexMode view_mode) {
  Check(db.CreateChronicle("txns", BankingGenerator::RecordSchema(), retention)
            .status());
  CaExprPtr scan = Unwrap(db.ScanChronicle("txns"));
  SummarySpec spec = Unwrap(SummarySpec::GroupBy(
      scan->schema(), {"acct"}, {AggSpec::Sum("amount", "balance")}));
  Check(db.CreateView("balance", scan, spec, {}, view_mode).status());

  BankingGenerator gen(BankingOptions{});
  Chronon chronon = 0;
  int64_t remaining = size;
  while (remaining > 0) {
    const size_t n = remaining < 256 ? static_cast<size_t>(remaining) : 256;
    Check(db.Append("txns", gen.NextBatch(n), ++chronon).status());
    remaining -= static_cast<int64_t>(n);
  }
}

struct Setup {
  ChronicleDatabase db;

  Setup(int64_t size, RetentionPolicy retention, IndexMode view_mode) {
    Load(db, size, retention, view_mode);
  }
};

void RunViewLookup(benchmark::State& state, IndexMode mode) {
  Setup setup(state.range(0), RetentionPolicy::None(), mode);
  Rng rng(3);
  for (auto _ : state) {
    // Query a random hot account (Zipf head guarantees presence).
    Result<Tuple> row = setup.db.QueryView(
        "balance", {Value(static_cast<int64_t>(rng.Uniform(16)))});
    benchmark::DoNotOptimize(row);
  }
  state.counters["chronicle_size"] = static_cast<double>(state.range(0));
}

void ViewLookupHash(benchmark::State& state) {
  RunViewLookup(state, IndexMode::kHash);
}
BENCHMARK(ViewLookupHash)->RangeMultiplier(8)->Range(1 << 10, Scaled(1 << 20, 1 << 12));

void ViewLookupOrdered(benchmark::State& state) {
  RunViewLookup(state, IndexMode::kOrdered);
}
BENCHMARK(ViewLookupOrdered)->RangeMultiplier(8)->Range(1 << 10, Scaled(1 << 20, 1 << 12));

void ChronicleScan(benchmark::State& state) {
  Setup setup(state.range(0), RetentionPolicy::All(), IndexMode::kHash);
  CaExprPtr scan = Unwrap(setup.db.ScanChronicle("txns"));
  NaiveEngine engine(&setup.db.group());
  Rng rng(3);
  for (auto _ : state) {
    // SELECT SUM(amount) FROM txns WHERE acct = ?
    CaExprPtr filtered = Unwrap(CaExpr::Select(
        scan, Eq(Col("acct"), Lit(Value(static_cast<int64_t>(rng.Uniform(16)))))));
    SummarySpec spec = Unwrap(SummarySpec::GroupBy(
        filtered->schema(), {}, {AggSpec::Sum("amount", "balance")}));
    std::vector<Tuple> rows = Unwrap(engine.EvaluateSummary(*filtered, spec));
    benchmark::DoNotOptimize(rows);
  }
  state.counters["chronicle_size"] = static_cast<double>(state.range(0));
}
BENCHMARK(ChronicleScan)->RangeMultiplier(8)->Range(1 << 10, Scaled(1 << 17, 1 << 12));

void CqlPointLookup(benchmark::State& state) {
  std::unique_ptr<cql::Session> session =
      Unwrap(cql::Session::Open(DatabaseOptions{}));
  Load(*session->db(), state.range(0), RetentionPolicy::None(),
       IndexMode::kHash);
  Rng rng(3);
  for (auto _ : state) {
    Result<cql::ExecResult> result = session->ExecuteSql(
        "SELECT * FROM balance WHERE acct = " +
        std::to_string(rng.Uniform(16)));
    Check(result.status());
    benchmark::DoNotOptimize(result);
  }
  state.counters["chronicle_size"] = static_cast<double>(state.range(0));
}
BENCHMARK(CqlPointLookup)->RangeMultiplier(8)->Range(1 << 10, Scaled(1 << 20, 1 << 12));

}  // namespace
}  // namespace bench
}  // namespace chronicle

CHRONICLE_BENCH_MAIN();
