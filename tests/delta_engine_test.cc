// Per-operator delta rules of the incremental maintenance engine
// (Theorems 4.1/4.2): the delta each chronicle-algebra operator produces
// for one append tick, checked on both the row and the columnar kernels
// of the compiled DeltaPlan.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/plan_compiler.h"
#include "storage/relation.h"

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

CaExprPtr ScanCalls() { return CaExpr::Scan(0, "calls", CallSchema()).value(); }

AppendEvent Event(SeqNum sn, std::vector<Tuple> tuples, ChronicleId id = 0) {
  AppendEvent event;
  event.sn = sn;
  event.chronon = static_cast<Chronon>(sn);
  event.inserts.emplace_back(id, std::move(tuples));
  return event;
}

Tuple Call(int64_t caller, const std::string& region, int64_t minutes) {
  return Tuple{Value(caller), Value(region), Value(minutes)};
}

std::vector<Tuple> Payloads(const std::vector<ChronicleRow>& rows) {
  std::vector<Tuple> out;
  for (const ChronicleRow& row : rows) out.push_back(row.values);
  std::sort(out.begin(), out.end(),
            [](const Tuple& a, const Tuple& b) { return TupleCompare(a, b) < 0; });
  return out;
}

// Per-operator delta semantics, parameterized over the kernel mode
// (false = row engine, true = columnar where the shape qualifies).
class DeltaOperatorTest : public ::testing::TestWithParam<bool> {
 protected:
  // Runs `plan` (compiled once, on first use) for one tick.
  Result<std::vector<ChronicleRow>> Delta(const exec::DeltaPlan& plan,
                                          const AppendEvent& event,
                                          DeltaStats* stats = nullptr) {
    scratch_.set_columnar_enabled(GetParam());
    CHRONICLE_ASSIGN_OR_RETURN(const std::vector<ChronicleRow>* rows,
                               plan.ExecuteToRows(event, &scratch_, stats));
    return *rows;
  }
  Result<std::vector<ChronicleRow>> Delta(const CaExprPtr& expr,
                                          const AppendEvent& event,
                                          DeltaStats* stats = nullptr) {
    CHRONICLE_ASSIGN_OR_RETURN(exec::DeltaPlanPtr plan,
                               exec::CompileDeltaPlan(expr));
    return Delta(*plan, event, stats);
  }

  exec::PlanScratch scratch_;
};

TEST_P(DeltaOperatorTest, ScanPassesThroughAppendedTuples) {
  auto delta = Delta(ScanCalls(), Event(5, {Call(1, "NJ", 10)})).value();
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].sn, 5u);
  EXPECT_EQ(delta[0].values, Call(1, "NJ", 10));
}

TEST_P(DeltaOperatorTest, ScanIgnoresOtherChronicles) {
  auto delta =
      Delta(ScanCalls(), Event(5, {Call(1, "NJ", 10)}, /*id=*/3)).value();
  EXPECT_TRUE(delta.empty());
}

TEST_P(DeltaOperatorTest, ScanDeduplicatesWithinTick) {
  // Set semantics: the same (sn, payload) row appears once.
  auto delta = Delta(ScanCalls(), Event(5, {Call(1, "NJ", 10),
                                            Call(1, "NJ", 10),
                                            Call(2, "NY", 3)}))
                   .value();
  EXPECT_EQ(delta.size(), 2u);
}

TEST_P(DeltaOperatorTest, SelectFiltersByPredicate) {
  CaExprPtr plan =
      CaExpr::Select(ScanCalls(), Ge(Col("minutes"), Lit(Value(10)))).value();
  auto delta =
      Delta(plan, Event(5, {Call(1, "NJ", 10), Call(2, "NY", 3)})).value();
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].values[0], Value(1));
}

TEST_P(DeltaOperatorTest, SelectOnSeqNum) {
  exec::DeltaPlanPtr plan =
      exec::CompileDeltaPlan(
          CaExpr::Select(ScanCalls(),
                         Ge(ScalarExpr::SeqNumRef(), Lit(Value(100))))
              .value())
          .value();
  EXPECT_TRUE(Delta(*plan, Event(99, {Call(1, "NJ", 1)})).value().empty());
  EXPECT_EQ(Delta(*plan, Event(100, {Call(1, "NJ", 1)})).value().size(), 1u);
}

TEST_P(DeltaOperatorTest, ProjectMapsAndDedupes) {
  CaExprPtr plan = CaExpr::Project(ScanCalls(), {"region"}).value();
  auto delta = Delta(plan, Event(7, {Call(1, "NJ", 10), Call(2, "NJ", 20),
                                     Call(3, "NY", 5)}))
                   .value();
  EXPECT_EQ(delta.size(), 2u);  // NJ collapses
}

TEST_P(DeltaOperatorTest, UnionDedupesAcrossBranches) {
  CaExprPtr scan = ScanCalls();
  CaExprPtr nj = CaExpr::Select(scan, Eq(Col("region"), Lit(Value("NJ")))).value();
  CaExprPtr big = CaExpr::Select(scan, Ge(Col("minutes"), Lit(Value(10)))).value();
  CaExprPtr plan = CaExpr::Union(nj, big).value();
  // (1,NJ,15) satisfies both branches but must appear once.
  auto delta =
      Delta(plan, Event(9, {Call(1, "NJ", 15), Call(2, "NY", 20)})).value();
  EXPECT_EQ(delta.size(), 2u);
}

TEST_P(DeltaOperatorTest, DifferenceWithinTick) {
  CaExprPtr scan = ScanCalls();
  CaExprPtr nj = CaExpr::Select(scan, Eq(Col("region"), Lit(Value("NJ")))).value();
  CaExprPtr plan = CaExpr::Difference(scan, nj).value();  // non-NJ calls
  auto delta =
      Delta(plan, Event(3, {Call(1, "NJ", 5), Call(2, "NY", 7)})).value();
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].values[1], Value("NY"));
}

TEST_P(DeltaOperatorTest, SeqJoinPairsWithinTick) {
  // Two chronicles receiving tuples under one SN join pairwise.
  Schema left_schema({{"x", DataType::kInt64}});
  Schema right_schema({{"y", DataType::kInt64}});
  CaExprPtr left = CaExpr::Scan(0, "l", left_schema).value();
  CaExprPtr right = CaExpr::Scan(1, "r", right_schema).value();
  CaExprPtr plan = CaExpr::SeqJoin(left, right).value();

  AppendEvent event;
  event.sn = 4;
  event.chronon = 4;
  event.inserts.emplace_back(
      0, std::vector<Tuple>{Tuple{Value(1)}, Tuple{Value(2)}});
  event.inserts.emplace_back(1, std::vector<Tuple>{Tuple{Value(10)}});

  auto delta = Delta(plan, event).value();
  ASSERT_EQ(delta.size(), 2u);
  std::vector<Tuple> payloads = Payloads(delta);
  EXPECT_EQ(payloads[0], (Tuple{Value(1), Value(10)}));
  EXPECT_EQ(payloads[1], (Tuple{Value(2), Value(10)}));
}

TEST_P(DeltaOperatorTest, SeqJoinEmptyWhenOneSideSilent) {
  Schema s({{"x", DataType::kInt64}});
  CaExprPtr plan = CaExpr::SeqJoin(CaExpr::Scan(0, "l", s).value(),
                                   CaExpr::Scan(1, "r", s).value())
                       .value();
  // Only chronicle 0 receives data: the join delta must be empty.
  auto delta = Delta(plan, Event(4, {Tuple{Value(1)}})).value();
  EXPECT_TRUE(delta.empty());
}

TEST_P(DeltaOperatorTest, GroupBySeqAggregatesWithinTick) {
  CaExprPtr plan =
      CaExpr::GroupBySeq(ScanCalls(), {"region"},
                         {AggSpec::Sum("minutes", "total"), AggSpec::Count()})
          .value();
  auto delta = Delta(plan, Event(11, {Call(1, "NJ", 5), Call(2, "NJ", 7),
                                      Call(3, "NY", 1)}))
                   .value();
  std::vector<Tuple> payloads = Payloads(delta);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], (Tuple{Value("NJ"), Value(12), Value(2)}));
  EXPECT_EQ(payloads[1], (Tuple{Value("NY"), Value(1), Value(1)}));
}

TEST_P(DeltaOperatorTest, RelKeyJoinLooksUpCurrentVersion) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  ASSERT_TRUE(rel.Insert(Tuple{Value(1), Value("NJ")}).ok());
  exec::DeltaPlanPtr plan =
      exec::CompileDeltaPlan(
          CaExpr::RelKeyJoin(ScanCalls(), &rel, "caller").value())
          .value();

  DeltaStats stats;
  auto delta =
      Delta(*plan, Event(2, {Call(1, "x", 5), Call(9, "x", 5)}), &stats)
          .value();
  // caller 9 has no customer row: inner join drops it.
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].values, (Tuple{Value(1), Value("x"), Value(5), Value(1),
                                    Value("NJ")}));
  EXPECT_EQ(stats.relation_lookups, 2u);

  // Proactive update: future ticks of the same compiled plan see the new
  // state.
  ASSERT_TRUE(rel.UpdateByKey(Value(1), Tuple{Value(1), Value("CA")}).ok());
  auto delta2 = Delta(*plan, Event(3, {Call(1, "x", 5)})).value();
  ASSERT_EQ(delta2.size(), 1u);
  EXPECT_EQ(delta2[0].values[4], Value("CA"));
}

TEST_P(DeltaOperatorTest, RelCrossExpandsByRelationSize) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(rel.Insert(Tuple{Value(i), Value("S")}).ok());
  }
  CaExprPtr plan = CaExpr::RelCross(ScanCalls(), &rel).value();
  DeltaStats stats;
  auto delta =
      Delta(plan, Event(2, {Call(1, "x", 5), Call(2, "y", 6)}), &stats)
          .value();
  EXPECT_EQ(delta.size(), 8u);  // 2 tuples × |R| = 4
  EXPECT_EQ(stats.relation_rows_scanned, 8u);
  EXPECT_GE(stats.max_intermediate_rows, 8u);
}

TEST_P(DeltaOperatorTest, ComplexPlanEndToEnd) {
  // σ(minutes>0) → key-join cust → groupby(region-of-customer) per tick.
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  ASSERT_TRUE(rel.Insert(Tuple{Value(1), Value("NJ")}).ok());
  ASSERT_TRUE(rel.Insert(Tuple{Value(2), Value("NJ")}).ok());
  ASSERT_TRUE(rel.Insert(Tuple{Value(3), Value("NY")}).ok());

  CaExprPtr plan =
      CaExpr::GroupBySeq(
          CaExpr::RelKeyJoin(
              CaExpr::Select(ScanCalls(), Gt(Col("minutes"), Lit(Value(0))))
                  .value(),
              &rel, "caller")
              .value(),
          {"state"}, {AggSpec::Sum("minutes", "mins")})
          .value();

  auto delta = Delta(plan, Event(6, {Call(1, "x", 5), Call(2, "x", 6),
                                     Call(3, "x", 7), Call(1, "x", 0)}))
                   .value();
  std::vector<Tuple> payloads = Payloads(delta);
  ASSERT_EQ(payloads.size(), 2u);
  EXPECT_EQ(payloads[0], (Tuple{Value("NJ"), Value(11)}));
  EXPECT_EQ(payloads[1], (Tuple{Value("NY"), Value(7)}));
}

TEST_P(DeltaOperatorTest, StatsTrackIntermediateSizes) {
  CaExprPtr plan = CaExpr::Project(ScanCalls(), {"region"}).value();
  DeltaStats stats;
  ASSERT_TRUE(
      Delta(plan, Event(1, {Call(1, "NJ", 1), Call(2, "NY", 2)}), &stats).ok());
  EXPECT_EQ(stats.max_intermediate_rows, 2u);
  EXPECT_EQ(stats.total_rows_produced, 4u);  // scan(2) + project(2)
}

TEST_P(DeltaOperatorTest, BoundedJoinViolationIsIntegrityError) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  ASSERT_TRUE(rel.CreateSecondaryIndex("state").ok());
  ASSERT_TRUE(rel.Insert(Tuple{Value(int64_t{1}), Value("NJ")}).ok());
  ASSERT_TRUE(rel.Insert(Tuple{Value(int64_t{2}), Value("NJ")}).ok());

  CaExprPtr scan =
      CaExpr::Scan(0, "calls",
                   Schema({{"state", DataType::kString},
                           {"minutes", DataType::kInt64}}))
          .value();
  // Declared bound 1, but "NJ" matches two relation rows.
  CaExprPtr join =
      CaExpr::RelBoundedJoin(scan, &rel, "state", "state", 1).value();
  Status st =
      Delta(join, Event(1, {Tuple{Value("NJ"), Value(int64_t{5})}})).status();
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(st.message(),
            "bounded join matched 2 relation tuples, declared bound is 1 "
            "(Definition 4.2)");
}

INSTANTIATE_TEST_SUITE_P(Kernels, DeltaOperatorTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "columnar" : "row";
                         });

}  // namespace
}  // namespace chronicle
