// Unit tests for the vectorized kernels (exec/vector_kernels.{h,cc}) and
// the columnar batch plumbing (exec/column_batch.{h,cc}): empty batches,
// all-selected / none-selected filters (a zero-row selection must NOT
// degenerate into the identity view), string columns, NULL cells, the
// engine-decision rules, and arena block spill on batches far larger than
// the initial arena block.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/ca_expr.h"
#include "common/arena.h"
#include "exec/column_batch.h"
#include "exec/plan_compiler.h"
#include "exec/vector_kernels.h"
#include "storage/relation.h"

namespace chronicle {
namespace exec {
namespace {

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"score", DataType::kDouble}});
}

// Transposes `rows` against `schema` into an arena-backed batch; the
// source vector must outlive the batch (string cells are pointers).
ColumnBatch MakeBatch(const std::vector<Tuple>& rows, const Schema& schema,
                      Arena* arena) {
  ColumnBatch b;
  EXPECT_TRUE(TransposeRows(rows, schema, arena, &b));
  return b;
}

std::vector<Tuple> Rows(const ColumnBatch& b) {
  std::vector<Tuple> out;
  MaterializeRows(b, &out);
  return out;
}

// A predicate bound against `schema` and compiled to column form.
std::unique_ptr<VecPred> Compile(ScalarExprPtr e, const Schema& schema) {
  EXPECT_TRUE(e->Bind(schema).ok());
  return CompileVecPred(*e, schema);
}

TEST(CompileVecPredTest, SupportedShapes) {
  const Schema schema = CallSchema();
  EXPECT_NE(Compile(Eq(Col("caller"), Lit(Value(int64_t{3}))), schema),
            nullptr);
  EXPECT_NE(Compile(Eq(Col("region"), Lit(Value("NJ"))), schema), nullptr);
  EXPECT_NE(Compile(Gt(Col("score"), Lit(Value(1.5))), schema), nullptr);
  EXPECT_NE(Compile(Le(Col("caller"), ScalarExpr::SeqNumRef()), schema),
            nullptr);
  EXPECT_NE(Compile(ScalarExpr::And(
                        Eq(Col("caller"), Lit(Value(int64_t{1}))),
                        ScalarExpr::Not(Ne(Col("region"), Lit(Value("CA"))))),
                    schema),
            nullptr);
  // Int64 column vs double literal: both numeric, widened like
  // Value::Compare.
  EXPECT_NE(Compile(Lt(Col("caller"), Lit(Value(2.5))), schema), nullptr);
}

TEST(CompileVecPredTest, UnsupportedShapesStayOnRowEngine) {
  const Schema schema = CallSchema();
  // Mixed string/numeric comparison: the type-tag ordering arm.
  EXPECT_EQ(Compile(Lt(Col("region"), Lit(Value(int64_t{1}))), schema),
            nullptr);
  // Arithmetic operand.
  EXPECT_EQ(Compile(Eq(ScalarExpr::Arith(ArithOp::kAdd, Col("caller"),
                                         Lit(Value(int64_t{1}))),
                       Lit(Value(int64_t{2}))),
            schema),
            nullptr);
  // Bare column truthiness (no comparison at all).
  ScalarExprPtr bare = Col("caller");
  EXPECT_TRUE(bare->Bind(schema).ok());
  EXPECT_EQ(CompileVecPred(*bare, schema), nullptr);
}

TEST(CompileVecPredTest, NullLiteralIsConstantFalse) {
  const Schema schema = CallSchema();
  auto pred = Compile(Ne(Col("caller"), Lit(Value())), schema);
  ASSERT_NE(pred, nullptr);
  EXPECT_EQ(pred->kind, VecPred::Kind::kConstFalse);
}

TEST(VecSelectTest, EmptyBatch) {
  Arena arena;
  const Schema schema = CallSchema();
  std::vector<Tuple> rows;
  ColumnBatch in = MakeBatch(rows, schema, &arena);
  auto pred = Compile(Eq(Col("caller"), Lit(Value(int64_t{1}))), schema);
  ColumnBatch out;
  VecSelect(*pred, in, 1, 1, &arena, &out);
  EXPECT_EQ(out.size(), 0u);
  EXPECT_TRUE(Rows(out).empty());
}

TEST(VecSelectTest, NoneSelectedIsNotIdentity) {
  Arena arena;
  const Schema schema = CallSchema();
  std::vector<Tuple> rows = {
      Tuple{Value(int64_t{1}), Value("NJ"), Value(1.0)},
      Tuple{Value(int64_t{2}), Value("NY"), Value(2.0)},
  };
  ColumnBatch in = MakeBatch(rows, schema, &arena);
  auto pred = Compile(Eq(Col("caller"), Lit(Value(int64_t{99}))), schema);
  ColumnBatch out;
  VecSelect(*pred, in, 1, 1, &arena, &out);
  // Regression: an empty selection must keep a non-null sel pointer —
  // sel == nullptr means identity and would resurrect every physical row.
  EXPECT_NE(out.sel, nullptr);
  EXPECT_EQ(out.size(), 0u);

  // And a select chained onto the empty result stays empty.
  ColumnBatch out2;
  VecSelect(*pred, out, 1, 1, &arena, &out2);
  EXPECT_EQ(out2.size(), 0u);
}

TEST(VecSelectTest, AllSelectedKeepsOrderWithoutCopying) {
  Arena arena;
  const Schema schema = CallSchema();
  std::vector<Tuple> rows = {
      Tuple{Value(int64_t{5}), Value("NJ"), Value(0.5)},
      Tuple{Value(int64_t{6}), Value("NY"), Value(0.25)},
      Tuple{Value(int64_t{7}), Value("CA"), Value(0.125)},
  };
  ColumnBatch in = MakeBatch(rows, schema, &arena);
  auto pred = Compile(Ge(Col("caller"), Lit(Value(int64_t{0}))), schema);
  ColumnBatch out;
  VecSelect(*pred, in, 1, 1, &arena, &out);
  EXPECT_EQ(Rows(out), rows);
  // Zero data movement: the output shares the input's column arrays.
  EXPECT_EQ(out.cols[0].i64, in.cols[0].i64);
}

TEST(VecSelectTest, StringAndNullSemantics) {
  Arena arena;
  const Schema schema = CallSchema();
  std::vector<Tuple> rows = {
      Tuple{Value(int64_t{1}), Value("NJ"), Value(1.0)},
      Tuple{Value(int64_t{2}), Value(), Value(2.0)},  // NULL region
      Tuple{Value(int64_t{3}), Value("NJ"), Value(3.0)},
      Tuple{Value(int64_t{4}), Value("NY"), Value(4.0)},
  };
  ColumnBatch in = MakeBatch(rows, schema, &arena);

  ColumnBatch eq;
  VecSelect(*Compile(Eq(Col("region"), Lit(Value("NJ"))), schema), in, 1, 1,
            &arena, &eq);
  EXPECT_EQ(Rows(eq), (std::vector<Tuple>{rows[0], rows[2]}));

  // A comparison involving NULL is false for EVERY operator, kNe included
  // (the row engine's SQL-ish rule) — so NOT(region != "NJ") keeps the
  // NULL row that region == "NJ" drops.
  ColumnBatch ne;
  VecSelect(*Compile(Ne(Col("region"), Lit(Value("NJ"))), schema), in, 1, 1,
            &arena, &ne);
  EXPECT_EQ(Rows(ne), (std::vector<Tuple>{rows[3]}));
  ColumnBatch not_ne;
  VecSelect(*Compile(ScalarExpr::Not(Ne(Col("region"), Lit(Value("NJ")))),
                     schema),
            in, 1, 1, &arena, &not_ne);
  EXPECT_EQ(Rows(not_ne), (std::vector<Tuple>{rows[0], rows[1], rows[2]}));
}

TEST(VecSelectTest, SnAndChrononOperands) {
  Arena arena;
  const Schema schema = CallSchema();
  std::vector<Tuple> rows = {
      Tuple{Value(int64_t{3}), Value("NJ"), Value(1.0)},
      Tuple{Value(int64_t{8}), Value("NY"), Value(2.0)},
  };
  ColumnBatch in = MakeBatch(rows, schema, &arena);
  ScalarExprPtr e = Lt(Col("caller"), ScalarExpr::SeqNumRef());
  ColumnBatch out;
  VecSelect(*Compile(std::move(e), schema), in, /*sn=*/5, /*chronon=*/9,
            &arena, &out);
  EXPECT_EQ(Rows(out), (std::vector<Tuple>{rows[0]}));
}

TEST(VecProjectTest, FirstSeenDedupeOverProjectedColumns) {
  Arena arena;
  VecScratch vs;
  const Schema schema = CallSchema();
  std::vector<Tuple> rows = {
      Tuple{Value(int64_t{1}), Value("NJ"), Value(1.0)},
      Tuple{Value(int64_t{1}), Value("NY"), Value(2.0)},  // same caller
      Tuple{Value(int64_t{2}), Value("NJ"), Value(3.0)},
      Tuple{Value(int64_t{1}), Value("CA"), Value(4.0)},  // dup again
  };
  ColumnBatch in = MakeBatch(rows, schema, &arena);
  ColumnBatch out;
  VecProject(in, {0}, &vs, &arena, &out);
  EXPECT_EQ(Rows(out), (std::vector<Tuple>{Tuple{Value(int64_t{1})},
                                           Tuple{Value(int64_t{2})}}));

  // Empty input: still a valid (non-identity) empty batch.
  std::vector<Tuple> none;
  ColumnBatch empty_in = MakeBatch(none, schema, &arena);
  ColumnBatch empty_out;
  VecProject(empty_in, {0, 1}, &vs, &arena, &empty_out);
  EXPECT_EQ(empty_out.size(), 0u);
}

TEST(VecUnionTest, DedupesAcrossSidesWithNulls) {
  Arena arena;
  VecScratch vs;
  const Schema schema = CallSchema();
  std::vector<Tuple> lrows = {
      Tuple{Value(int64_t{1}), Value("NJ"), Value(1.0)},
      Tuple{Value(int64_t{2}), Value(), Value(2.0)},
  };
  std::vector<Tuple> rrows = {
      Tuple{Value(int64_t{2}), Value(), Value(2.0)},  // dup of lrows[1]
      Tuple{Value(int64_t{3}), Value("TX"), Value(3.0)},
  };
  ColumnBatch left = MakeBatch(lrows, schema, &arena);
  ColumnBatch right = MakeBatch(rrows, schema, &arena);
  ColumnBatch out;
  VecUnion(left, right, &vs, &arena, &out);
  EXPECT_EQ(Rows(out),
            (std::vector<Tuple>{lrows[0], lrows[1], rrows[1]}));
}

TEST(VecSeqJoinTest, LeftMajorOrderAndEmptySides) {
  Arena arena;
  const Schema schema({{"a", DataType::kInt64}});
  std::vector<Tuple> lrows = {Tuple{Value(int64_t{1})},
                              Tuple{Value(int64_t{2})}};
  std::vector<Tuple> rrows = {Tuple{Value(int64_t{10})},
                              Tuple{Value(int64_t{20})}};
  ColumnBatch left = MakeBatch(lrows, schema, &arena);
  ColumnBatch right = MakeBatch(rrows, schema, &arena);
  ColumnBatch out;
  ASSERT_TRUE(VecSeqJoin(left, right, &arena, &out));
  EXPECT_EQ(Rows(out),
            (std::vector<Tuple>{
                Tuple{Value(int64_t{1}), Value(int64_t{10})},
                Tuple{Value(int64_t{1}), Value(int64_t{20})},
                Tuple{Value(int64_t{2}), Value(int64_t{10})},
                Tuple{Value(int64_t{2}), Value(int64_t{20})}}));

  std::vector<Tuple> none;
  ColumnBatch empty = MakeBatch(none, schema, &arena);
  ColumnBatch empty_out;
  ASSERT_TRUE(VecSeqJoin(left, empty, &arena, &empty_out));
  EXPECT_EQ(empty_out.size(), 0u);
}

// Group-by through the compiled decision path: build the CaExpr node so
// group columns, aggregates, and the output schema come from the same
// factory the executor uses.
TEST(VecGroupByTest, SumCountMinMaxWithNullInputs) {
  Arena arena;
  VecScratch vs;
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr gb =
      CaExpr::GroupBySeq(scan, {"region"},
                         {AggSpec::Sum("caller", "s"),
                          AggSpec::Count("n"),
                          AggSpec::Min("score", "lo"),
                          AggSpec::Max("score", "hi")})
          .value();
  auto info = PlanVectorInstr(*gb);
  ASSERT_NE(info, nullptr);
  ASSERT_EQ(info->aggs.size(), 4u);

  std::vector<Tuple> rows = {
      Tuple{Value(int64_t{4}), Value("NJ"), Value(2.0)},
      Tuple{Value(), Value("NJ"), Value(8.0)},   // NULL caller: SUM skips
      Tuple{Value(int64_t{1}), Value("NY"), Value()},  // NULL score
      Tuple{Value(int64_t{2}), Value("NJ"), Value(1.0)},
      Tuple{Value(), Value("TX"), Value()},  // all-NULL inputs
  };
  ColumnBatch in = MakeBatch(rows, CallSchema(), &arena);
  ColumnBatch out;
  VecGroupBy(in, gb->group_columns(), info->aggs, gb->aggregates(),
             gb->schema(), &vs, &arena, &out);
  // Groups in first-seen order; SUM/MIN/MAX of no non-NULL inputs is NULL,
  // COUNT counts every row.
  EXPECT_EQ(Rows(out),
            (std::vector<Tuple>{
                Tuple{Value("NJ"), Value(int64_t{6}), Value(int64_t{3}),
                      Value(1.0), Value(8.0)},
                Tuple{Value("NY"), Value(int64_t{1}), Value(int64_t{1}),
                      Value(), Value()},
                Tuple{Value("TX"), Value(), Value(int64_t{1}), Value(),
                      Value()}}));
}

TEST(VecGroupByTest, AvgKeepsGroupByOnRowEngine) {
  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr gb = CaExpr::GroupBySeq(scan, {"region"},
                                    {AggSpec::Avg("score", "a")})
                     .value();
  EXPECT_EQ(PlanVectorInstr(*gb), nullptr);
}

TEST(VecRelKeyJoinTest, NumericProbesAndNullKeys) {
  Arena arena;
  Relation rel = Relation::Make("cust", Schema({{"acct", DataType::kInt64},
                                                {"state", DataType::kString}}),
                                "acct")
                     .value();
  ASSERT_TRUE(rel.Insert(Tuple{Value(int64_t{1}), Value("NJ")}).ok());
  ASSERT_TRUE(rel.Insert(Tuple{Value(int64_t{2}), Value("NY")}).ok());

  CaExprPtr scan = CaExpr::Scan(0, "calls", CallSchema()).value();
  CaExprPtr join = CaExpr::RelKeyJoin(scan, &rel, "caller").value();
  ASSERT_NE(PlanVectorInstr(*join), nullptr);

  std::vector<Tuple> rows = {
      Tuple{Value(int64_t{2}), Value("x"), Value(0.0)},
      Tuple{Value(int64_t{9}), Value("y"), Value(0.0)},  // miss drops out
      Tuple{Value(), Value("z"), Value(0.0)},            // NULL key misses
      Tuple{Value(int64_t{1}), Value("w"), Value(0.0)},
  };
  ColumnBatch in = MakeBatch(rows, CallSchema(), &arena);
  ColumnBatch out;
  ASSERT_TRUE(
      VecRelKeyJoin(in, &rel, join->join_column(), join->schema(), &arena,
                    &out));
  EXPECT_EQ(Rows(out),
            (std::vector<Tuple>{
                Tuple{Value(int64_t{2}), Value("x"), Value(0.0),
                      Value(int64_t{2}), Value("NY")},
                Tuple{Value(int64_t{1}), Value("w"), Value(0.0),
                      Value(int64_t{1}), Value("NJ")}}));

  // String join keys stay on the row engine (whether or not the factory
  // admits the expression at all).
  Result<CaExprPtr> sjoin = CaExpr::RelKeyJoin(scan, &rel, "region");
  if (sjoin.ok()) {
    EXPECT_EQ(PlanVectorInstr(*sjoin.value()), nullptr);
  }
}

TEST(TransposeTest, TypeMismatchFails) {
  Arena arena;
  const Schema schema({{"a", DataType::kInt64}});
  std::vector<Tuple> rows = {Tuple{Value("not an int")}};
  ColumnBatch out;
  EXPECT_FALSE(TransposeRows(rows, schema, &arena, &out));
  // NULL matches any column type (ValidateTuple's rule).
  std::vector<Tuple> nulls = {Tuple{Value()}};
  EXPECT_TRUE(TransposeRows(nulls, schema, &arena, &out));
}

TEST(VecScratchTest, ClearIsGenerational) {
  VecScratch vs;
  auto never = [](uint32_t) { return false; };
  EXPECT_EQ(vs.FindOrInsert(42, 7, never), VecScratch::kNotFound);
  auto always = [](uint32_t) { return true; };
  EXPECT_EQ(vs.FindOrInsert(42, 8, always), 7u);
  vs.Clear();  // O(1): nothing is scanned, the generation advances
  EXPECT_EQ(vs.size(), 0u);
  EXPECT_EQ(vs.FindOrInsert(42, 9, always), VecScratch::kNotFound);
  EXPECT_EQ(vs.FindOrInsert(42, 10, always), 9u);
}

TEST(VecScratchTest, GrowRehashesLiveEntriesOnly) {
  VecScratch vs;
  auto never = [](uint32_t) { return false; };
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(vs.FindOrInsert(i * 0x9e3779b9u, i, never),
              VecScratch::kNotFound);
  }
  EXPECT_EQ(vs.size(), 100u);
  auto always = [](uint32_t) { return true; };
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(vs.FindOrInsert(i * 0x9e3779b9u, 0, always), i);
  }
}

TEST(ArenaSpillTest, BatchLargerThanInitialBlockSpillsAndReuses) {
  // Tiny blocks force every column array onto a dedicated spill block;
  // correctness must not depend on batch-fits-in-block.
  Arena arena(/*initial_block_bytes=*/64, /*max_block_bytes=*/256);
  VecScratch vs;
  const Schema schema({{"a", DataType::kInt64}, {"s", DataType::kString}});
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 4096; ++i) {
    rows.push_back(Tuple{Value(i % 512), Value(std::string(1 + i % 3, 'x'))});
  }
  ColumnBatch in = MakeBatch(rows, schema, &arena);
  ColumnBatch out;
  VecProject(in, {0, 1}, &vs, &arena, &out);
  // (i%512, i%3) cycles with period lcm(512,3) = 1536, and 4096 inputs
  // cover a full cycle: 1536 distinct pairs survive the dedupe.
  EXPECT_EQ(out.size(), 1536u);
  const size_t high_water = arena.bytes_allocated();
  EXPECT_GT(high_water, 64u);  // spilled past the initial block

  // Reset + rerun: same answer through recycled blocks.
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  ColumnBatch in2 = MakeBatch(rows, schema, &arena);
  ColumnBatch out2;
  VecProject(in2, {0, 1}, &vs, &arena, &out2);
  EXPECT_EQ(out2.size(), 1536u);
}

}  // namespace
}  // namespace exec
}  // namespace chronicle
