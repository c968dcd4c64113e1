#include "views/persistent_view.h"

#include <gtest/gtest.h>

namespace chronicle {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

CaExprPtr ScanCalls() { return CaExpr::Scan(0, "calls", CallSchema()).value(); }

std::unique_ptr<PersistentView> MinutesView(IndexMode mode = IndexMode::kHash) {
  SummarySpec spec =
      SummarySpec::GroupBy(CallSchema(), {"caller"},
                           {AggSpec::Sum("minutes", "total"), AggSpec::Count("n")})
          .value();
  return PersistentView::Make(0, "minutes", ScanCalls(), spec, {}, mode).value();
}

class PersistentViewModeTest : public ::testing::TestWithParam<IndexMode> {};

TEST_P(PersistentViewModeTest, AccumulatesAcrossTicks) {
  auto view = MinutesView(GetParam());
  ASSERT_TRUE(view->ApplyDelta(std::vector<Tuple>({Tuple{Value(1), Value("NJ"), Value(5)},
                                        Tuple{Value(2), Value("NY"), Value(3)}}))
                  .ok());
  ASSERT_TRUE(
      view->ApplyDelta(std::vector<Tuple>({Tuple{Value(1), Value("NJ"), Value(7)}})).ok());

  EXPECT_EQ(view->size(), 2u);
  Tuple row = view->Lookup(Tuple{Value(1)}).value();
  EXPECT_EQ(row, (Tuple{Value(1), Value(12), Value(2)}));
  EXPECT_EQ(view->Lookup(Tuple{Value(2)}).value(),
            (Tuple{Value(2), Value(3), Value(1)}));
  EXPECT_EQ(view->ticks_applied(), 2u);
  EXPECT_EQ(view->delta_rows_applied(), 3u);
}

TEST_P(PersistentViewModeTest, LookupMissingGroupIsNotFound) {
  auto view = MinutesView(GetParam());
  EXPECT_TRUE(view->Lookup(Tuple{Value(99)}).status().IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(BothModes, PersistentViewModeTest,
                         ::testing::Values(IndexMode::kHash, IndexMode::kOrdered),
                         [](const ::testing::TestParamInfo<IndexMode>& info) {
                           return info.param == IndexMode::kHash ? "Hash"
                                                                 : "Ordered";
                         });

TEST(PersistentViewTest, MakeValidatesPlan) {
  SummarySpec spec =
      SummarySpec::GroupBy(CallSchema(), {}, {AggSpec::Count()}).value();
  CaExprPtr bad = CaExpr::ChronicleCross(ScanCalls(), ScanCalls()).value();
  SummarySpec bad_spec =
      SummarySpec::GroupBy(bad->schema(), {}, {AggSpec::Count()}).value();
  EXPECT_FALSE(PersistentView::Make(0, "v", bad, bad_spec).ok());
  EXPECT_FALSE(PersistentView::Make(0, "v", nullptr, spec).ok());
}

TEST(PersistentViewTest, ComplexityReportAttached) {
  auto view = MinutesView();
  EXPECT_EQ(view->complexity().ca_class, CaClass::kCa1);
  EXPECT_EQ(view->complexity().im_class, ImClass::kImConstant);
}

TEST(PersistentViewTest, ScanVisitsFinalizedRows) {
  auto view = MinutesView();
  ASSERT_TRUE(view->ApplyDelta(std::vector<Tuple>({Tuple{Value(1), Value("NJ"), Value(5)},
                                        Tuple{Value(2), Value("NY"), Value(3)}}))
                  .ok());
  int64_t total = 0;
  ASSERT_TRUE(view->Scan([&](const Tuple& row) { total += row[1].int64(); }).ok());
  EXPECT_EQ(total, 8);
}

TEST(PersistentViewTest, OrderedScanSortsByKey) {
  auto view = MinutesView(IndexMode::kOrdered);
  ASSERT_TRUE(view->ApplyDelta(std::vector<Tuple>({Tuple{Value(3), Value("x"), Value(1)},
                                        Tuple{Value(1), Value("x"), Value(1)},
                                        Tuple{Value(2), Value("x"), Value(1)}}))
                  .ok());
  std::vector<int64_t> keys;
  ASSERT_TRUE(
      view->Scan([&](const Tuple& row) { keys.push_back(row[0].int64()); }).ok());
  EXPECT_EQ(keys, (std::vector<int64_t>{1, 2, 3}));
}

TEST(PersistentViewTest, ComputedColumnAppended) {
  // Premier status from a miles total (the Example 2.1 scenario).
  SummarySpec spec =
      SummarySpec::GroupBy(CallSchema(), {"caller"},
                           {AggSpec::Sum("minutes", "total")})
          .value();
  std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> branches;
  branches.emplace_back(Ge(Col("total"), Lit(Value(100))), Lit(Value("gold")));
  branches.emplace_back(Ge(Col("total"), Lit(Value(10))), Lit(Value("silver")));
  std::vector<ComputedColumn> computed;
  computed.push_back(ComputedColumn{
      "status", ScalarExpr::Case(std::move(branches), Lit(Value("bronze")))});
  auto view = PersistentView::Make(0, "status", ScanCalls(), spec,
                                   std::move(computed))
                  .value();
  ASSERT_TRUE(
      view->ApplyDelta(std::vector<Tuple>({Tuple{Value(1), Value("x"), Value(150)},
                                Tuple{Value(2), Value("x"), Value(50)},
                                Tuple{Value(3), Value("x"), Value(5)}}))
          .ok());
  EXPECT_EQ(view->Lookup(Tuple{Value(1)}).value()[2], Value("gold"));
  EXPECT_EQ(view->Lookup(Tuple{Value(2)}).value()[2], Value("silver"));
  EXPECT_EQ(view->Lookup(Tuple{Value(3)}).value()[2], Value("bronze"));
  EXPECT_EQ(view->output_schema().num_fields(), 3u);
}

TEST(PersistentViewTest, DistinctProjectionViewTracksDistinctRows) {
  SummarySpec spec =
      SummarySpec::DistinctProjection(CallSchema(), {"region"}).value();
  auto view = PersistentView::Make(0, "regions", ScanCalls(), spec).value();
  ASSERT_TRUE(view->ApplyDelta(std::vector<Tuple>({Tuple{Value(1), Value("NJ"), Value(5)},
                                        Tuple{Value(2), Value("NJ"), Value(3)}}))
                  .ok());
  ASSERT_TRUE(
      view->ApplyDelta(std::vector<Tuple>({Tuple{Value(3), Value("NY"), Value(1)}})).ok());
  EXPECT_EQ(view->size(), 2u);
  EXPECT_EQ(view->Lookup(Tuple{Value("NJ")}).value(), (Tuple{Value("NJ")}));
}

TEST(PersistentViewTest, GlobalGroupView) {
  SummarySpec spec =
      SummarySpec::GroupBy(CallSchema(), {}, {AggSpec::Count("n")}).value();
  auto view = PersistentView::Make(0, "total", ScanCalls(), spec).value();
  ASSERT_TRUE(view->ApplyDelta(std::vector<Tuple>({Tuple{Value(1), Value("x"), Value(1)},
                                        Tuple{Value(2), Value("x"), Value(1)}}))
                  .ok());
  EXPECT_EQ(view->Lookup(Tuple{}).value(), (Tuple{Value(2)}));
}

TEST(PersistentViewTest, MemoryFootprintGrowsWithGroups) {
  auto view = MinutesView();
  size_t empty = view->MemoryFootprint();
  ASSERT_TRUE(view->ApplyDelta(std::vector<Tuple>({Tuple{Value(1), Value("x"), Value(1)},
                                        Tuple{Value(2), Value("x"), Value(1)}}))
                  .ok());
  EXPECT_GT(view->MemoryFootprint(), empty);
}

}  // namespace
}  // namespace chronicle
