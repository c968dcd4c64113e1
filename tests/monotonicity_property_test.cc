// Property tests for Theorem 4.1 (monotonicity) and the Theorem 4.2
// independence claims:
//
//   * Every delta row of a tick carries exactly the tick's fresh SN.
//   * A CA view only GROWS under appends: eval(after) = eval(before) ∪ Δ,
//     and Δ is disjoint from eval(before).
//   * Delta computation never touches the chronicle: results are identical
//     whether the chronicle retains everything or nothing, and the
//     engine's working set does not grow with the number of past ticks.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "baseline/naive_engine.h"
#include "common/random.h"
#include "exec/plan_compiler.h"

namespace chronicle {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

Schema CustSchema() {
  return Schema({{"acct", DataType::kInt64}, {"state", DataType::kString}});
}

const char* kRegions[] = {"NJ", "NY", "CA", "TX"};

struct RowKey {
  SeqNum sn;
  std::string repr;
  bool operator<(const RowKey& other) const {
    return sn != other.sn ? sn < other.sn : repr < other.repr;
  }
  bool operator==(const RowKey& other) const {
    return sn == other.sn && repr == other.repr;
  }
};

std::string PlanName(const ::testing::TestParamInfo<size_t>& info) {
  static const char* const kNames[] = {"Scan",       "Select",     "Project",
                                       "Union",      "Difference", "SeqJoin",
                                       "GroupBySeq", "RelKeyJoin", "RelCross"};
  return kNames[info.param];
}

std::set<RowKey> ToSet(const std::vector<ChronicleRow>& rows) {
  std::set<RowKey> out;
  for (const ChronicleRow& row : rows) {
    out.insert(RowKey{row.sn, TupleToString(row.values)});
  }
  return out;
}

// Builds a family of CA plans over the scans and relation.
std::vector<CaExprPtr> Plans(CaExprPtr a, CaExprPtr b, const Relation* rel) {
  std::vector<CaExprPtr> plans;
  plans.push_back(a);
  plans.push_back(CaExpr::Select(a, Gt(Col("minutes"), Lit(Value(50)))).value());
  plans.push_back(CaExpr::Project(a, {"region"}).value());
  plans.push_back(
      CaExpr::Union(
          CaExpr::Select(a, Eq(Col("region"), Lit(Value("NJ")))).value(),
          CaExpr::Select(a, Gt(Col("minutes"), Lit(Value(100)))).value())
          .value());
  plans.push_back(
      CaExpr::Difference(
          a, CaExpr::Select(a, Eq(Col("region"), Lit(Value("NJ")))).value())
          .value());
  plans.push_back(CaExpr::SeqJoin(a, b).value());
  plans.push_back(
      CaExpr::GroupBySeq(a, {"region"}, {AggSpec::Sum("minutes", "m")}).value());
  plans.push_back(CaExpr::RelKeyJoin(a, rel, "caller").value());
  plans.push_back(CaExpr::RelCross(a, rel).value());
  return plans;
}

class MonotonicityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MonotonicityTest, DeltasOnlyAddRowsWithTheNewSn) {
  ChronicleGroup group;
  ChronicleId ca = group.CreateChronicle("a", CallSchema()).value();
  ChronicleId cb = group.CreateChronicle("b", CallSchema()).value();
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple{Value(i), Value("NJ")}).ok());
  }

  CaExprPtr scan_a = CaExpr::Scan(*group.GetChronicle(ca).value()).value();
  CaExprPtr scan_b = CaExpr::Scan(*group.GetChronicle(cb).value()).value();
  CaExprPtr plan = Plans(scan_a, scan_b, &rel)[GetParam()];

  exec::DeltaPlanPtr compiled = exec::CompileDeltaPlan(plan).value();
  exec::PlanScratch scratch;
  NaiveEngine oracle(&group);
  Rng rng(GetParam() * 7919 + 13);

  std::set<RowKey> materialized = ToSet(oracle.Evaluate(*plan).value());

  for (int tick = 0; tick < 120; ++tick) {
    std::vector<std::pair<ChronicleId, std::vector<Tuple>>> inserts;
    auto random_call = [&]() {
      return Tuple{Value(static_cast<int64_t>(rng.Uniform(8))),
                   Value(kRegions[rng.Uniform(4)]),
                   Value(static_cast<int64_t>(rng.Uniform(150)))};
    };
    inserts.emplace_back(ca, std::vector<Tuple>{random_call(), random_call()});
    if (rng.Bernoulli(0.5)) {
      inserts.emplace_back(cb, std::vector<Tuple>{random_call()});
    }
    AppendEvent event =
        group.AppendMulti(std::move(inserts), static_cast<Chronon>(tick))
            .value();

    std::vector<ChronicleRow> delta =
        *compiled->ExecuteToRows(event, &scratch, nullptr).value();

    // (1) Every delta row carries exactly the tick's fresh SN.
    for (const ChronicleRow& row : delta) {
      ASSERT_EQ(row.sn, event.sn);
    }

    // (2) Monotonic growth: after = before ∪ Δ, Δ disjoint from before.
    std::set<RowKey> delta_set = ToSet(delta);
    for (const RowKey& key : delta_set) {
      ASSERT_EQ(materialized.count(key), 0u)
          << "delta re-derived an existing row at tick " << tick;
    }
    std::set<RowKey> after = ToSet(oracle.Evaluate(*plan).value());
    std::set<RowKey> expected = materialized;
    expected.insert(delta_set.begin(), delta_set.end());
    ASSERT_EQ(after, expected) << "tick " << tick;
    materialized = std::move(after);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPlans, MonotonicityTest,
                         ::testing::Range<size_t>(0, 9), PlanName);

TEST(ChronicleIndependenceTest, DeltaIdenticalWithoutStoredChronicle) {
  // Two groups fed the same stream — one retains everything, one nothing.
  // The delta engine must produce identical results on both, because it
  // never reads the chronicle.
  ChronicleGroup stored, stream;
  ChronicleId cs =
      stored.CreateChronicle("calls", CallSchema(), RetentionPolicy::All())
          .value();
  ChronicleId cn =
      stream.CreateChronicle("calls", CallSchema(), RetentionPolicy::None())
          .value();

  CaExprPtr plan_s =
      CaExpr::Select(CaExpr::Scan(*stored.GetChronicle(cs).value()).value(),
                     Gt(Col("minutes"), Lit(Value(10))))
          .value();
  CaExprPtr plan_n =
      CaExpr::Select(CaExpr::Scan(*stream.GetChronicle(cn).value()).value(),
                     Gt(Col("minutes"), Lit(Value(10))))
          .value();

  exec::DeltaPlanPtr compiled_s = exec::CompileDeltaPlan(plan_s).value();
  exec::DeltaPlanPtr compiled_n = exec::CompileDeltaPlan(plan_n).value();
  exec::PlanScratch scratch_s, scratch_n;
  Rng rng(55);
  for (int tick = 0; tick < 100; ++tick) {
    Tuple call{Value(static_cast<int64_t>(rng.Uniform(5))),
               Value(kRegions[rng.Uniform(4)]),
               Value(static_cast<int64_t>(rng.Uniform(30)))};
    AppendEvent es = stored.Append(cs, {call}).value();
    AppendEvent en = stream.Append(cn, {call}).value();
    const std::vector<Tuple>* ds =
        compiled_s->Execute(es, &scratch_s, nullptr).value();
    const std::vector<Tuple>* dn =
        compiled_n->Execute(en, &scratch_n, nullptr).value();
    EXPECT_EQ(*ds, *dn);
  }
  // The streaming group really stored nothing.
  EXPECT_EQ(stream.GetChronicle(cn).value()->retained().size(), 0u);
}

TEST(ChronicleIndependenceTest, WorkingSetIndependentOfHistoryLength) {
  // Theorem 4.2 space claim: the engine's intermediate sizes depend on the
  // batch and |R|, not on how many ticks happened before.
  ChronicleGroup group;
  ChronicleId calls = group.CreateChronicle("calls", CallSchema(),
                                            RetentionPolicy::None())
                          .value();
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  for (int64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple{Value(i), Value("NJ")}).ok());
  }
  CaExprPtr plan =
      CaExpr::RelKeyJoin(CaExpr::Scan(*group.GetChronicle(calls).value()).value(),
                         &rel, "caller")
          .value();

  exec::DeltaPlanPtr compiled = exec::CompileDeltaPlan(plan).value();
  exec::PlanScratch scratch;
  size_t early_peak = 0, late_peak = 0;
  for (int tick = 0; tick < 2000; ++tick) {
    AppendEvent event =
        group.Append(calls, {Tuple{Value(tick % 16), Value("NJ"), Value(1)}})
            .value();
    DeltaStats stats;
    ASSERT_TRUE(compiled->Execute(event, &scratch, &stats).ok());
    if (tick < 100) {
      early_peak = std::max(early_peak, stats.max_intermediate_rows);
    }
    if (tick >= 1900) {
      late_peak = std::max(late_peak, stats.max_intermediate_rows);
    }
  }
  EXPECT_EQ(early_peak, late_peak);  // no dependence on history length
  EXPECT_LE(late_peak, 1u);          // one row in, at most one row out
}

TEST(ChronicleIndependenceTest, KeyJoinLookupCountMatchesBatchNotRelation) {
  // CA_join: one index lookup per delta tuple, regardless of |R|.
  ChronicleGroup group;
  ChronicleId calls = group.CreateChronicle("calls", CallSchema()).value();
  for (size_t rel_size : {10u, 10000u}) {
    Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
    for (size_t i = 0; i < rel_size; ++i) {
      ASSERT_TRUE(
          rel.Insert(Tuple{Value(static_cast<int64_t>(i)), Value("NJ")}).ok());
    }
    CaExprPtr plan =
        CaExpr::RelKeyJoin(
            CaExpr::Scan(*group.GetChronicle(calls).value()).value(), &rel,
            "caller")
            .value();
    AppendEvent event =
        group
            .Append(calls, {Tuple{Value(1), Value("NJ"), Value(1)},
                            Tuple{Value(2), Value("NJ"), Value(2)},
                            Tuple{Value(3), Value("NJ"), Value(3)}})
            .value();
    exec::PlanScratch scratch;
    DeltaStats stats;
    ASSERT_TRUE(exec::CompileDeltaPlan(plan).value()->Execute(event, &scratch,
                                                              &stats).ok());
    EXPECT_EQ(stats.relation_lookups, 3u) << "|R|=" << rel_size;
    EXPECT_EQ(stats.relation_rows_scanned, 0u);
  }
}

}  // namespace
}  // namespace chronicle
