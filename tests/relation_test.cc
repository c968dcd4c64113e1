#include "storage/relation.h"

#include <gtest/gtest.h>

namespace chronicle {
namespace {

Schema CustSchema() {
  return Schema({{"acct", DataType::kInt64},
                 {"name", DataType::kString},
                 {"state", DataType::kString}});
}

Tuple Cust(int64_t acct, const std::string& name, const std::string& state) {
  return Tuple{Value(acct), Value(name), Value(state)};
}

class RelationModeTest : public ::testing::TestWithParam<IndexMode> {};

TEST_P(RelationModeTest, InsertLookupDelete) {
  Relation rel =
      Relation::Make("cust", CustSchema(), "acct", GetParam()).value();
  ASSERT_TRUE(rel.Insert(Cust(1, "ann", "NJ")).ok());
  ASSERT_TRUE(rel.Insert(Cust(2, "bob", "NY")).ok());
  EXPECT_EQ(rel.size(), 2u);

  const Tuple* row = rel.LookupByKey(Value(1)).value();
  EXPECT_EQ((*row)[1], Value("ann"));

  ASSERT_TRUE(rel.DeleteByKey(Value(1)).ok());
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.LookupByKey(Value(1)).status().IsNotFound());
  // The surviving row is still reachable after the swap-remove.
  EXPECT_EQ((*rel.LookupByKey(Value(2)).value())[1], Value("bob"));
}

TEST_P(RelationModeTest, DuplicateKeyRejected) {
  Relation rel =
      Relation::Make("cust", CustSchema(), "acct", GetParam()).value();
  ASSERT_TRUE(rel.Insert(Cust(1, "ann", "NJ")).ok());
  Status st = rel.Insert(Cust(1, "imposter", "CA"));
  EXPECT_TRUE(st.IsAlreadyExists());
  EXPECT_EQ(rel.size(), 1u);
}

TEST_P(RelationModeTest, UpdateReplacesRow) {
  Relation rel =
      Relation::Make("cust", CustSchema(), "acct", GetParam()).value();
  ASSERT_TRUE(rel.Insert(Cust(1, "ann", "NJ")).ok());
  uint64_t v0 = rel.version();
  ASSERT_TRUE(rel.UpdateByKey(Value(1), Cust(1, "ann", "CA")).ok());
  EXPECT_GT(rel.version(), v0);
  EXPECT_EQ((*rel.LookupByKey(Value(1)).value())[2], Value("CA"));
}

TEST_P(RelationModeTest, UpdateCanChangeKey) {
  Relation rel =
      Relation::Make("cust", CustSchema(), "acct", GetParam()).value();
  ASSERT_TRUE(rel.Insert(Cust(1, "ann", "NJ")).ok());
  ASSERT_TRUE(rel.UpdateByKey(Value(1), Cust(9, "ann", "NJ")).ok());
  EXPECT_TRUE(rel.LookupByKey(Value(1)).status().IsNotFound());
  EXPECT_TRUE(rel.LookupByKey(Value(9)).ok());
}

TEST_P(RelationModeTest, UpdateToCollidingKeyRejectedAtomically) {
  Relation rel =
      Relation::Make("cust", CustSchema(), "acct", GetParam()).value();
  ASSERT_TRUE(rel.Insert(Cust(1, "ann", "NJ")).ok());
  ASSERT_TRUE(rel.Insert(Cust(2, "bob", "NY")).ok());
  Status st = rel.UpdateByKey(Value(1), Cust(2, "ann", "NJ"));
  EXPECT_TRUE(st.IsAlreadyExists());
  // Row 1 untouched.
  EXPECT_EQ((*rel.LookupByKey(Value(1)).value())[1], Value("ann"));
  EXPECT_EQ(rel.size(), 2u);
}

TEST_P(RelationModeTest, SwapRemoveKeepsIndexConsistent) {
  Relation rel =
      Relation::Make("cust", CustSchema(), "acct", GetParam()).value();
  for (int64_t i = 0; i < 50; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    ASSERT_TRUE(rel.Insert(Cust(i, name, "NJ")).ok());
  }
  // Delete in a scattered order, checking every survivor after each delete.
  for (int64_t victim : {0, 25, 49, 10, 1, 48}) {
    ASSERT_TRUE(rel.DeleteByKey(Value(victim)).ok());
  }
  EXPECT_EQ(rel.size(), 44u);
  for (int64_t i = 0; i < 50; ++i) {
    bool deleted = i == 0 || i == 25 || i == 49 || i == 10 || i == 1 || i == 48;
    if (deleted) {
      EXPECT_TRUE(rel.LookupByKey(Value(i)).status().IsNotFound()) << i;
    } else {
      ASSERT_TRUE(rel.LookupByKey(Value(i)).ok()) << i;
      EXPECT_EQ((*rel.LookupByKey(Value(i)).value())[0], Value(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BothModes, RelationModeTest,
                         ::testing::Values(IndexMode::kHash, IndexMode::kOrdered),
                         [](const ::testing::TestParamInfo<IndexMode>& info) {
                           return info.param == IndexMode::kHash ? "Hash"
                                                                 : "Ordered";
                         });

TEST(RelationTest, MakeRejectsUnknownKeyColumn) {
  EXPECT_FALSE(Relation::Make("r", CustSchema(), "missing").ok());
}

TEST(RelationTest, KeylessRelationForbidsKeyOps) {
  Relation rel = Relation::Make("heap", CustSchema()).value();
  EXPECT_FALSE(rel.has_key());
  ASSERT_TRUE(rel.Insert(Cust(1, "a", "NJ")).ok());
  ASSERT_TRUE(rel.Insert(Cust(1, "a", "NJ")).ok());  // duplicates allowed
  EXPECT_TRUE(rel.LookupByKey(Value(1)).status().IsFailedPrecondition());
  EXPECT_TRUE(rel.DeleteByKey(Value(1)).IsFailedPrecondition());
}

TEST(RelationTest, NullKeyRejected) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  Status st = rel.Insert(Tuple{Value(), Value("x"), Value("NJ")});
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(rel.size(), 0u);
}

TEST(RelationTest, SchemaViolationRejected) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  EXPECT_FALSE(rel.Insert(Tuple{Value(1), Value(2), Value(3)}).ok());
  EXPECT_FALSE(rel.Insert(Tuple{Value(1)}).ok());
}

TEST(RelationTest, SecondaryIndexLookup) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  ASSERT_TRUE(rel.Insert(Cust(1, "ann", "NJ")).ok());
  ASSERT_TRUE(rel.Insert(Cust(2, "bob", "NJ")).ok());
  ASSERT_TRUE(rel.Insert(Cust(3, "cyd", "NY")).ok());
  ASSERT_TRUE(rel.CreateSecondaryIndex("state").ok());
  EXPECT_TRUE(rel.HasSecondaryIndex(2));

  Result<std::vector<const Tuple*>> rows = rel.LookupBySecondary(2, Value("NJ"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  rows = rel.LookupBySecondary(2, Value("TX"));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST(RelationTest, SecondaryIndexTracksMutations) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  ASSERT_TRUE(rel.CreateSecondaryIndex("state").ok());
  ASSERT_TRUE(rel.Insert(Cust(1, "ann", "NJ")).ok());
  ASSERT_TRUE(rel.Insert(Cust(2, "bob", "NJ")).ok());
  ASSERT_TRUE(rel.DeleteByKey(Value(1)).ok());

  Result<std::vector<const Tuple*>> rows = rel.LookupBySecondary(2, Value("NJ"));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*(*rows)[0])[0], Value(2));

  // Update moves bob to NY.
  ASSERT_TRUE(rel.UpdateByKey(Value(2), Cust(2, "bob", "NY")).ok());
  rows = rel.LookupBySecondary(2, Value("NJ"));
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  rows = rel.LookupBySecondary(2, Value("NY"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST(RelationTest, LookupWithoutSecondaryIndexFails) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  EXPECT_TRUE(
      rel.LookupBySecondary(2, Value("NJ")).status().IsFailedPrecondition());
}

TEST(RelationTest, ScanAllVisitsEveryRow) {
  Relation rel = Relation::Make("cust", CustSchema(), "acct").value();
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(rel.Insert(Cust(i, "n", "NJ")).ok());
  }
  int count = 0;
  rel.ScanAll([&](const Tuple&) { ++count; });
  EXPECT_EQ(count, 5);
}

}  // namespace
}  // namespace chronicle
