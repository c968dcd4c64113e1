// Unit tests for the DeltaPlan compiler (src/exec): post-order slot
// assignment, DAG sharing by construction, Theorem 4.3 rejection, scratch
// reuse, and the Arena allocator. The per-operator delta rules live in
// delta_engine_test; cross-plan slot sharing lives in shared_program_test.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/arena.h"
#include "exec/plan_compiler.h"

namespace chronicle {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

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

TEST(PlanCompilerTest, PostOrderSlotAssignment) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr select =
      CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(10)))).value();
  CaExprPtr project = CaExpr::Project(select, {"caller"}).value();

  exec::DeltaPlanPtr plan = exec::CompileDeltaPlan(project).value();
  ASSERT_EQ(plan->instructions().size(), 3u);
  EXPECT_EQ(plan->num_slots(), 3u);

  // Children are compiled before parents; slot i is written by
  // instruction i.
  const auto& instrs = plan->instructions();
  EXPECT_EQ(instrs[0].op, exec::PlanOp::kScan);
  EXPECT_EQ(instrs[0].out, 0u);
  EXPECT_EQ(instrs[1].op, exec::PlanOp::kSelect);
  EXPECT_EQ(instrs[1].out, 1u);
  EXPECT_EQ(instrs[1].in0, 0u);
  EXPECT_EQ(instrs[2].op, exec::PlanOp::kProject);
  EXPECT_EQ(instrs[2].out, 2u);
  EXPECT_EQ(instrs[2].in0, 1u);
  EXPECT_EQ(plan->root_slot(), 2u);
  EXPECT_EQ(plan->shared_subexpressions(), 0u);
  // Payload access goes through the original nodes.
  EXPECT_EQ(instrs[2].node, project.get());
}

TEST(PlanCompilerTest, SharedSubexpressionLoweredOnce) {
  // Two projections over one shared selection: the compiler resolves the
  // second edge to the already-assigned slot.
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr select =
      CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(0)))).value();
  CaExprPtr left = CaExpr::Project(select, {"caller"}).value();
  CaExprPtr right = CaExpr::Project(select, {"caller"}).value();
  CaExprPtr plan_expr = CaExpr::Union(left, right).value();

  exec::DeltaPlanPtr plan = exec::CompileDeltaPlan(plan_expr).value();
  // scan, select, project_l, project_r, union — the shared select (and the
  // scan under it) appear exactly once.
  EXPECT_EQ(plan->instructions().size(), 5u);
  EXPECT_EQ(plan->shared_subexpressions(), 1u);
  const auto& instrs = plan->instructions();
  // Both projections read the same slot.
  EXPECT_EQ(instrs[2].in0, instrs[3].in0);
  EXPECT_EQ(instrs[4].op, exec::PlanOp::kUnion);
  EXPECT_EQ(instrs[4].in0, 2u);
  EXPECT_EQ(instrs[4].in1, 3u);

  // Sharing the whole operand (SeqJoin of a node with itself) also counts.
  CaExprPtr self_join = CaExpr::SeqJoin(select, select).value();
  exec::DeltaPlanPtr join_plan = exec::CompileDeltaPlan(self_join).value();
  EXPECT_EQ(join_plan->instructions().size(), 3u);
  EXPECT_EQ(join_plan->shared_subexpressions(), 1u);
  EXPECT_EQ(join_plan->instructions()[2].in0,
            join_plan->instructions()[2].in1);
}

TEST(PlanCompilerTest, Theorem43OpsRejected) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  std::vector<CaExprPtr> illegal = {
      CaExpr::ProjectDropSn(scan, {"caller"}).value(),
      CaExpr::GroupByNoSn(scan, {"region"}, {AggSpec::Count("n")}).value(),
      CaExpr::ChronicleCross(scan, scan).value(),
      CaExpr::SeqThetaJoin(scan, scan, CompareOp::kLt).value(),
  };

  for (const CaExprPtr& expr : illegal) {
    SCOPED_TRACE(CaOpToString(expr->op()));
    Result<exec::DeltaPlanPtr> compiled = exec::CompileDeltaPlan(expr);
    ASSERT_FALSE(compiled.ok());
    EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(compiled.status().message(),
              std::string("operator ") + CaOpToString(expr->op()) +
                  " is outside chronicle algebra and cannot be maintained "
                  "incrementally without chronicle access (Theorem 4.3)");
  }
}

TEST(PlanCompilerTest, NullRootRejected) {
  EXPECT_FALSE(exec::CompileDeltaPlan(nullptr).ok());
}

TEST(PlanCompilerTest, ToStringRendersProgram) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr select =
      CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(10)))).value();
  exec::DeltaPlanPtr plan = exec::CompileDeltaPlan(select).value();
  const std::string text = plan->ToString();
  EXPECT_NE(text.find("s0 = Scan"), std::string::npos) << text;
  EXPECT_NE(text.find("s1 = Select(s0)"), std::string::npos) << text;
  EXPECT_NE(text.find("root: s1"), std::string::npos) << text;
}

TEST(DeltaPlanTest, ExecuteToRowsStampsTheTickSn) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr plan_expr =
      CaExpr::GroupBySeq(CaExpr::Select(scan, Ge(Col("minutes"), Lit(Value(3))))
                             .value(),
                         {"region"}, {AggSpec::Sum("minutes", "m")})
          .value();
  exec::DeltaPlanPtr plan = exec::CompileDeltaPlan(plan_expr).value();

  exec::PlanScratch scratch;
  exec::PlanScratch reference;  // plain Execute on a second scratch
  for (SeqNum sn = 1; sn <= 3; ++sn) {
    AppendEvent event = Event(
        sn, {Call(1, "NJ", 2 + static_cast<int64_t>(sn)), Call(2, "NJ", 9),
             Call(3, "NY", 1)});
    const std::vector<Tuple>* tuples =
        plan->Execute(event, &reference, nullptr).value();
    const std::vector<ChronicleRow>* rows =
        plan->ExecuteToRows(event, &scratch, nullptr).value();
    ASSERT_EQ(tuples->size(), rows->size());
    ASSERT_EQ(rows->size(), 1u);  // NJ only: the NY call fails the select
    for (size_t i = 0; i < rows->size(); ++i) {
      EXPECT_EQ((*tuples)[i], (*rows)[i].values);
      EXPECT_EQ((*rows)[i].sn, sn);
    }
    EXPECT_EQ((*rows)[0].values,
              (Tuple{Value("NJ"), Value(11 + static_cast<int64_t>(sn))}));
  }
}

TEST(DeltaPlanTest, ScratchIsReusedAcrossTicksAndPlans) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr small = CaExpr::Select(scan, Gt(Col("minutes"), Lit(Value(0))))
                        .value();
  CaExprPtr big =
      CaExpr::Union(CaExpr::Project(small, {"caller"}).value(),
                    CaExpr::Project(small, {"caller"}).value())
          .value();
  exec::DeltaPlanPtr small_plan = exec::CompileDeltaPlan(small).value();
  exec::DeltaPlanPtr big_plan = exec::CompileDeltaPlan(big).value();

  exec::PlanScratch scratch;
  ASSERT_TRUE(
      small_plan->Execute(Event(1, {Call(1, "NJ", 5)}), &scratch, nullptr)
          .ok());
  EXPECT_EQ(scratch.num_slots(), small_plan->num_slots());
  // A larger plan grows the slot array; a smaller one reuses it as-is.
  ASSERT_TRUE(
      big_plan->Execute(Event(2, {Call(2, "NY", 7)}), &scratch, nullptr).ok());
  EXPECT_EQ(scratch.num_slots(), big_plan->num_slots());
  const std::vector<Tuple>* delta =
      small_plan->Execute(Event(3, {Call(3, "CA", 9)}), &scratch, nullptr)
          .value();
  EXPECT_EQ(scratch.num_slots(), big_plan->num_slots());
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_EQ((*delta)[0][0], Value(3));
}

TEST(ArenaTest, AllocationsAreAlignedAndReset) {
  Arena arena;
  void* a = arena.Allocate(3, 1);
  void* b = arena.Allocate(8, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  int64_t* xs = arena.AllocateArray<int64_t>(16);
  xs[15] = 42;
  EXPECT_GE(arena.bytes_allocated(), 3 + 8 + 16 * sizeof(int64_t));

  const size_t reserved = arena.bytes_reserved();
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // Clear-don't-free: the blocks survive the reset...
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  // ...and are handed out again.
  void* c = arena.Allocate(3, 1);
  EXPECT_EQ(c, a);
}

TEST(ArenaTest, LargeAllocationsDroppedOnReset) {
  Arena arena;
  // Far beyond max_block_bytes: served by a dedicated oversized block.
  void* big = arena.Allocate(1u << 20, 8);
  ASSERT_NE(big, nullptr);
  const size_t reserved_with_big = arena.bytes_reserved();
  arena.Reset();
  // The oversized block is released so one outlier tick does not pin a
  // high-water footprint forever.
  EXPECT_LT(arena.bytes_reserved(), reserved_with_big);
}

TEST(ArenaTest, ArenaVectorUsesArenaStorage) {
  Arena arena;
  ArenaVector<int> v{ArenaAllocator<int>(&arena)};
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v[99], 99);
  EXPECT_GT(arena.bytes_allocated(), 0u);
}

}  // namespace
}  // namespace chronicle
