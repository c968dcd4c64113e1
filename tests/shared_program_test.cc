// Tests for cross-plan slot sharing: every plan compiled through one
// PlanCompiler joins one slot program, and a PlanScratch computes a shared
// slot once per tick (see exec/delta_plan.h, "Shared-slot contract").
// ViewManager compiles all of its views into one such program.

#include <gtest/gtest.h>

#include <string>

#include "cql/session.h"
#include "exec/plan_compiler.h"
#include "views/view_manager.h"

namespace chronicle {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

AppendEvent Event(SeqNum sn, std::vector<Tuple> tuples) {
  AppendEvent event;
  event.sn = sn;
  event.chronon = static_cast<Chronon>(sn);
  event.inserts.emplace_back(0, std::move(tuples));
  return event;
}

Tuple Call(int64_t caller, const std::string& region, int64_t minutes) {
  return Tuple{Value(caller), Value(region), Value(minutes)};
}

TEST(SharedProgramTest, SharedNodeComputedOncePerTick) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr filtered =
      CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(0)))).value();
  // Two plans sharing `filtered` (and the scan under it).
  CaExprPtr proj_a = CaExpr::Project(filtered, {"caller"}).value();
  CaExprPtr proj_b = CaExpr::Project(filtered, {"region"}).value();

  exec::PlanCompiler compiler;
  exec::DeltaPlanPtr plan_a = compiler.Compile(proj_a).value();
  exec::DeltaPlanPtr plan_b = compiler.Compile(proj_b).value();
  // scan, select, project_a, project_b: one slot per distinct node.
  EXPECT_EQ(compiler.num_slots(), 4u);
  // Each plan still lists every instruction its root needs...
  ASSERT_EQ(plan_b->num_slots(), 3u);
  // ...and maps the shared ones onto the same program slots.
  EXPECT_EQ(plan_a->program_slot(0), plan_b->program_slot(0));
  EXPECT_EQ(plan_a->program_slot(1), plan_b->program_slot(1));
  EXPECT_NE(plan_a->program_slot(2), plan_b->program_slot(2));

  exec::PlanScratch scratch;
  AppendEvent event = Event(1, {Call(1, "NJ", 5), Call(2, "NY", 7)});
  scratch.BeginTick();
  const std::vector<Tuple>* a =
      plan_a->ExecuteInTick(event, &scratch, nullptr).value();
  EXPECT_EQ(*a, (std::vector<Tuple>{{Value(1)}, {Value(2)}}));
  EXPECT_EQ(scratch.shared_misses(), 3u);  // scan, select, project_a
  EXPECT_EQ(scratch.shared_hits(), 0u);

  DeltaStats stats;
  const std::vector<Tuple>* b =
      plan_b->ExecuteInTick(event, &scratch, &stats).value();
  EXPECT_EQ(*b, (std::vector<Tuple>{{Value("NJ")}, {Value("NY")}}));
  // plan_b was served scan and select; only its projection ran, and only
  // it recorded rows.
  EXPECT_EQ(scratch.shared_misses(), 4u);
  EXPECT_EQ(scratch.shared_hits(), 2u);
  EXPECT_EQ(stats.total_rows_produced, 2u);
}

TEST(SharedProgramTest, RepeatedPlanIsFullyShared) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr expr =
      CaExpr::GroupBySeq(scan, {"region"}, {AggSpec::Sum("minutes", "m")})
          .value();
  exec::PlanCompiler compiler;
  exec::DeltaPlanPtr first = compiler.Compile(expr).value();
  exec::DeltaPlanPtr second = compiler.Compile(expr).value();
  EXPECT_EQ(compiler.num_slots(), 2u);  // the repeat added nothing
  EXPECT_EQ(first->program_slot(1), second->program_slot(1));

  exec::PlanScratch scratch;
  AppendEvent event = Event(1, {Call(1, "NJ", 5), Call(2, "NJ", 3)});
  scratch.BeginTick();
  const std::vector<Tuple> a =
      *first->ExecuteInTick(event, &scratch, nullptr).value();
  const std::vector<Tuple>* b =
      second->ExecuteInTick(event, &scratch, nullptr).value();
  EXPECT_EQ(a, *b);
  EXPECT_EQ(a, (std::vector<Tuple>{{Value("NJ"), Value(8)}}));
  // Every instruction of the repeat was served shared.
  EXPECT_EQ(scratch.shared_misses(), 2u);
  EXPECT_EQ(scratch.shared_hits(), 2u);
}

TEST(SharedProgramTest, SlotFromThePreviousTickIsNeverServed) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr select =
      CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(0)))).value();
  exec::PlanCompiler compiler;
  exec::DeltaPlanPtr scan_plan = compiler.Compile(scan).value();
  exec::DeltaPlanPtr select_plan = compiler.Compile(select).value();

  exec::PlanScratch scratch;
  scratch.BeginTick();
  ASSERT_TRUE(
      scan_plan->ExecuteInTick(Event(1, {Call(1, "NJ", 5)}), &scratch, nullptr)
          .ok());
  // A new tick invalidates every stamp: the shared scan is recomputed
  // from the new event rather than served from tick 1.
  scratch.BeginTick();
  const std::vector<Tuple>* delta =
      select_plan->ExecuteInTick(Event(2, {Call(9, "TX", 1)}), &scratch,
                                 nullptr)
          .value();
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_EQ((*delta)[0][0], Value(9));
  EXPECT_EQ(scratch.shared_hits(), 0u);

  // Execute is a tick of its own, so it never serves a stale slot either.
  delta = select_plan->Execute(Event(3, {Call(7, "CA", 2)}), &scratch, nullptr)
              .value();
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_EQ((*delta)[0][0], Value(7));

  // ExecuteToRows moves its root's tuples out and un-stamps the root, so
  // a plan reading that slot later in the same tick recomputes it.
  AppendEvent event = Event(4, {Call(4, "NJ", 3)});
  const std::vector<ChronicleRow>* rows =
      scan_plan->ExecuteToRows(event, &scratch, nullptr).value();
  ASSERT_EQ(rows->size(), 1u);
  delta = select_plan->ExecuteInTick(event, &scratch, nullptr).value();
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_EQ((*delta)[0], Call(4, "NJ", 3));
}

// prefix + i, built by appending (GCC 12 misreports -Wrestrict on
// const char* + std::string&&).
std::string Numbered(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

std::unique_ptr<PersistentView> GroupByCaller(const CaExprPtr& plan, int i) {
  SummarySpec spec =
      SummarySpec::GroupBy(plan->schema(), {"caller"},
                           {AggSpec::Sum("minutes", Numbered("m", i))})
          .value();
  return PersistentView::Make(static_cast<ViewId>(i), Numbered("v", i), plan,
                              spec)
      .value();
}

TEST(SharedProgramTest, ViewManagerSharesScanAcrossViews) {
  // Views registered over the SAME scan node share its slot inside
  // ProcessAppend.
  ViewManager manager(RoutingMode::kCheckAll);
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(manager.AddView(GroupByCaller(scan, i)).ok());
  }
  EXPECT_EQ(manager.program_slots(), 1u);
  ASSERT_TRUE(manager.ProcessAppend(Event(1, {Call(1, "NJ", 5)})).ok());
  // 4 views over 1 shared scan: 1 miss, 3 hits.
  EXPECT_EQ(manager.delta_cache_misses(), 1u);
  EXPECT_EQ(manager.delta_cache_hits(), 3u);

  // Each tick starts fresh: counts accumulate but stay correct.
  ASSERT_TRUE(manager.ProcessAppend(Event(2, {Call(2, "NY", 7)})).ok());
  EXPECT_EQ(manager.delta_cache_misses(), 2u);
  EXPECT_EQ(manager.delta_cache_hits(), 6u);
  // And the views saw both ticks.
  PersistentView* v0 = manager.FindView("v0").value();
  EXPECT_EQ(v0->ticks_applied(), 2u);
  EXPECT_EQ(v0->size(), 2u);
}

TEST(SharedProgramTest, ParallelFanOutSharesWithinEachWorkerBatch) {
  ViewManager manager(RoutingMode::kCheckAll);
  MaintenanceOptions options;
  options.num_threads = 2;
  options.min_views_per_task = 1;
  manager.set_maintenance_options(options);
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(manager.AddView(GroupByCaller(scan, i)).ok());
  }
  ASSERT_TRUE(manager.ProcessAppend(Event(1, {Call(1, "NJ", 5)})).ok());
  // Two contiguous batches of two views, one scratch each: every worker
  // computes the scan once and serves it once.
  EXPECT_EQ(manager.delta_cache_misses(), 2u);
  EXPECT_EQ(manager.delta_cache_hits(), 2u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(manager.FindView(Numbered("v", i)).value()->size(), 1u);
  }
}

TEST(SharedProgramTest, CreateDropChurnKeepsProgramBoundedByLiveViews) {
  auto opened = cql::Session::Open(DatabaseOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<cql::Session> session = std::move(opened).value();
  ASSERT_TRUE(session
                  ->ExecuteSql("CREATE CHRONICLE calls (caller INT64, "
                               "region STRING, minutes INT64);")
                  .ok());
  ASSERT_TRUE(session
                  ->ExecuteSql("CREATE VIEW keep AS SELECT caller, "
                               "SUM(minutes) AS m FROM calls GROUP BY caller;")
                  .ok());
  const ViewManager& manager = session->engine0().view_manager();
  const size_t baseline = manager.program_slots();
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(session
                    ->ExecuteSql("CREATE VIEW churn AS SELECT region, "
                                 "COUNT(*) AS n FROM calls WHERE minutes > " +
                                 std::to_string(round) + " GROUP BY region;")
                    .ok())
        << "round " << round;
    ASSERT_EQ(manager.program_slots(), baseline + 1) << "round " << round;
    ASSERT_TRUE(session->ExecuteSql("DROP VIEW churn;").ok())
        << "round " << round;
    ASSERT_EQ(manager.program_slots(), baseline) << "round " << round;
  }
  // The surviving view still maintains, over the rebuilt program.
  ASSERT_TRUE(
      session->ExecuteSql("INSERT INTO calls VALUES (1, 'NJ', 5);").ok());
  auto rows = session->ExecuteSql("SELECT * FROM keep;");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0], (Tuple{Value(1), Value(5)}));
}

}  // namespace
}  // namespace chronicle
