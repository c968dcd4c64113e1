// Interactive SELECT answers a key-pinned WHERE with one key probe and
// every other WHERE with a scan (cql::ExecuteSelect). These tests hold the
// probe to the scan: for each query, the session's answer must equal
// ProjectSelect over the full ScanView (or the full relation) — same rows,
// same value types, same schema, same message, same error — at 1 and 4
// shards. PinnedKeyTest pins down which WHERE shapes probe at all.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cql/binder.h"
#include "cql/parser.h"
#include "cql/session.h"

namespace chronicle {
namespace {

using cql::ExecResult;
using cql::SelectQuery;
using cql::SelectStmt;
using cql::Session;

constexpr char kDdl[] =
    "CREATE CHRONICLE calls (caller INT64, region STRING, minutes INT64, "
    "charge DOUBLE) RETAIN NONE;"
    "CREATE RELATION cust (acct INT64, name STRING, state STRING) KEY acct;"
    // Aligned on the partition column at 4 shards.
    "CREATE VIEW by_caller AS SELECT caller, SUM(minutes) AS m, "
    "COUNT(*) AS n FROM calls GROUP BY caller;"
    // Two keys.
    "CREATE VIEW by_pair AS SELECT caller, region, SUM(minutes) AS m "
    "FROM calls GROUP BY caller, region;"
    // A STRING key that is not the partition column: reads merge.
    "CREATE VIEW by_region AS SELECT region, COUNT(*) AS n, "
    "MAX(charge) AS top FROM calls GROUP BY region;"
    // Distinct projection: the key is the whole row.
    "CREATE VIEW pairs AS SELECT caller, region FROM calls;"
    // A computed column, finalized from the probed key.
    "CREATE VIEW tiers AS SELECT caller, SUM(minutes) AS m, "
    "caller * 10 + m AS score, "
    "CASE WHEN m >= 20 THEN 'big' ELSE 'small' END AS size "
    "FROM calls GROUP BY caller;"
    // A DOUBLE key: always scans.
    "CREATE VIEW by_charge AS SELECT charge, COUNT(*) AS n FROM calls "
    "GROUP BY charge;";

constexpr char kData[] =
    "INSERT INTO calls VALUES (1, 'NJ', 10, 2.0), (2, 'NY', 3, 0.5) AT 1;"
    "INSERT INTO calls VALUES (1, 'NJ', 45, 9.0), (7, 'CA', 1, 0.25) AT 2;"
    "INSERT INTO calls VALUES (2, 'NY', 8, 2.0), (3, 'CA', 6, 1.0) AT 3;"
    "INSERT INTO calls VALUES (NULL, 'NJ', 4, 1.5), (3, NULL, 2, 0.0) AT 4;"
    "INSERT INTO calls VALUES (1, 'TX', 5, 3.0), (9007199254740993, 'NY', "
    "1, 1.0) AT 5;"
    "INSERT INTO cust VALUES (1, 'ann', 'NJ'), (2, 'bob', 'NY'), "
    "(3, 'cy', 'CA');";

std::unique_ptr<Session> OpenLoaded(size_t shards) {
  DatabaseOptions options;
  options.sharding.num_shards = shards;
  Result<std::unique_ptr<Session>> session = Session::Open(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  Result<ExecResult> ddl = (*session)->ExecuteScript(kDdl);
  EXPECT_TRUE(ddl.ok()) << ddl.status().ToString();
  Result<ExecResult> data = (*session)->ExecuteScript(kData);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return std::move(*session);
}

// Type-tagged rendering: 5 and 5.0 compare equal as Values but must not
// pass for each other here.
std::string Render(const Value& v) {
  if (v.is_null()) return "null";
  if (v.is_int64()) return "i:" + v.ToString();
  if (v.is_double()) return "d:" + v.ToString();
  return "s:" + v.ToString();
}

std::string Render(const Result<ExecResult>& result) {
  if (!result.ok()) return "error " + result.status().ToString();
  std::string out = result->message + " " + result->schema.ToString() + "\n";
  for (const Tuple& row : result->rows) {
    for (const Value& v : row) out += Render(v) + " ";
    out += "\n";
  }
  return out;
}

// The oracle: the whole source, filtered and projected by ProjectSelect.
Result<ExecResult> ScanOracle(Session& session, const SelectQuery& query) {
  ChronicleDatabase& engine = session.engine0();
  Result<const PersistentView*> view = engine.GetView(query.from);
  if (view.ok()) {
    Result<std::vector<Tuple>> rows =
        session.sharded() ? session.sharded_db()->ScanView(query.from)
                          : engine.ScanView(query.from);
    if (!rows.ok()) return rows.status();
    return cql::ProjectSelect(query, (*view)->output_schema(),
                              std::move(*rows), /*where_applied=*/false);
  }
  CHRONICLE_ASSIGN_OR_RETURN(const Relation* rel,
                             engine.GetRelation(query.from));
  return cql::ProjectSelect(query, rel->schema(), rel->rows(),
                            /*where_applied=*/false);
}

cql::Statement ParseSelect(const std::string& sql) {
  Result<cql::Statement> parsed = cql::ParseStatement(sql);
  EXPECT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
  return std::move(*parsed);
}

SelectQuery& QueryOf(cql::Statement& stmt) {
  return std::get<SelectStmt>(stmt).query;
}

class SelectProbeTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { session_ = OpenLoaded(GetParam()); }

  // Runs `stmt` through the session and through the oracle; both must
  // render identically. Returns the session's answer.
  Result<ExecResult> ExpectSameAsScan(cql::Statement stmt,
                                      const std::string& label) {
    Result<ExecResult> got = session_->ExecuteStatement(stmt);
    Result<ExecResult> want = ScanOracle(*session_, QueryOf(stmt));
    EXPECT_EQ(Render(got), Render(want)) << label;
    return got;
  }

  Result<ExecResult> ExpectSameAsScan(const std::string& sql) {
    return ExpectSameAsScan(ParseSelect(sql), sql);
  }

  size_t Rows(const std::string& sql) {
    Result<ExecResult> got = ExpectSameAsScan(sql);
    return got.ok() ? got->rows.size() : size_t{999};
  }

  std::unique_ptr<Session> session_;
};

TEST_P(SelectProbeTest, KeyPinnedInEitherOperandOrder) {
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 1"), 1u);
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE 1 = caller"), 1u);
  EXPECT_EQ(Rows("SELECT m FROM by_caller WHERE caller = 2"), 1u);
  EXPECT_EQ(Rows("SELECT n AS calls, caller FROM by_caller WHERE 3 = caller"),
            1u);
  EXPECT_EQ(Rows("SELECT * FROM by_region WHERE region = 'NJ'"), 1u);
  EXPECT_EQ(Rows("SELECT * FROM by_region WHERE 'CA' = region"), 1u);
  // A key beyond 2^53 probes exactly (int64 literal on an INT64 key).
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 9007199254740993"),
            1u);
}

TEST_P(SelectProbeTest, LiteralTypesAgainstAnInt64Key) {
  // Integral double: equal to the INT64 key, and the row keeps its INT64.
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 1.0"), 1u);
  EXPECT_EQ(Rows("SELECT * FROM tiers WHERE caller = 3.0"), 1u);
  // Fractional double and string: equal to no INT64 value.
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 1.5"), 0u);
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = '1'"), 0u);
  // A double from 2^53 on compares equal to more than one int64: scans.
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 9007199254740992.0"),
            1u);
  // A number against a STRING key.
  EXPECT_EQ(Rows("SELECT * FROM by_region WHERE region = 1"), 0u);
}

TEST_P(SelectProbeTest, NullLiteralAgainstANullGroup) {
  // The views hold a NULL caller group and a NULL region group, but `=`
  // with NULL is never true.
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = NULL"), 0u);
  EXPECT_EQ(Rows("SELECT * FROM by_pair WHERE caller = 3 AND NULL = region"),
            0u);
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = null"), 0u);
}

TEST_P(SelectProbeTest, TwoKeyView) {
  // Both keys pinned: probe, in any conjunct order.
  EXPECT_EQ(Rows("SELECT * FROM by_pair WHERE caller = 1 AND region = 'NJ'"),
            1u);
  EXPECT_EQ(Rows("SELECT * FROM by_pair WHERE 'TX' = region AND caller = 1"),
            1u);
  EXPECT_EQ(Rows("SELECT * FROM by_pair WHERE caller = 1 AND region = 'NY'"),
            0u);
  // One key pinned: scan, every matching group.
  EXPECT_EQ(Rows("SELECT * FROM by_pair WHERE caller = 1"), 2u);
  EXPECT_EQ(Rows("SELECT * FROM by_pair WHERE region = 'NY'"), 2u);
}

TEST_P(SelectProbeTest, SameKeyPinnedTwice) {
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 2 AND caller = 2"),
            1u);
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 2 AND 2.0 = caller"),
            1u);
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 2 AND caller = 3"),
            0u);
  EXPECT_EQ(Rows("SELECT * FROM by_pair WHERE caller = 1 AND region = 'NJ' "
                 "AND caller = 7"),
            0u);
}

TEST_P(SelectProbeTest, OtherShapesScan) {
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 1 AND m > 100"), 0u);
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 1 AND n = 3"), 1u);
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 1 OR caller = 2"),
            2u);
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller != 1"), 4u);
  EXPECT_EQ(Rows("SELECT * FROM by_caller"), 6u);
  EXPECT_EQ(Rows("SELECT * FROM by_charge WHERE charge = 2"), 1u);
  EXPECT_EQ(Rows("SELECT * FROM by_charge WHERE charge = 0.0"), 1u);
}

TEST_P(SelectProbeTest, AbsentKeyAndUnknownColumns) {
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 404"), 0u);
  EXPECT_EQ(Rows("SELECT * FROM by_region WHERE region = 'ZZ'"), 0u);
  // Errors match the scan's, whether the probe hits or misses.
  EXPECT_EQ(Rows("SELECT nope FROM by_caller WHERE caller = 1"), 999u);
  EXPECT_EQ(Rows("SELECT nope FROM by_caller WHERE caller = 404"), 999u);
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE nope = 1"), 999u);
  EXPECT_EQ(Rows("SELECT * FROM by_caller WHERE caller = 1 AND nope = 1"),
            999u);
}

TEST_P(SelectProbeTest, DistinctProjectionAndComputedColumns) {
  EXPECT_EQ(Rows("SELECT * FROM pairs WHERE caller = 1 AND region = 'TX'"),
            1u);
  EXPECT_EQ(Rows("SELECT region FROM pairs WHERE region = 'CA' AND "
                 "caller = 7"),
            1u);
  EXPECT_EQ(Rows("SELECT * FROM pairs WHERE caller = 2 AND region = 'NJ'"),
            0u);
  EXPECT_EQ(Rows("SELECT * FROM pairs WHERE caller = 1"), 2u);
  EXPECT_EQ(Rows("SELECT * FROM tiers WHERE caller = 1"), 1u);
  EXPECT_EQ(Rows("SELECT size, score, score * 2 AS twice FROM tiers "
                 "WHERE caller = 2"),
            1u);
  EXPECT_EQ(Rows("SELECT * FROM tiers WHERE caller = 404"), 0u);
}

TEST_P(SelectProbeTest, RelationKeyAndNonKeyPredicates) {
  EXPECT_EQ(Rows("SELECT * FROM cust WHERE acct = 2"), 1u);
  EXPECT_EQ(Rows("SELECT name FROM cust WHERE 3 = acct"), 1u);
  EXPECT_EQ(Rows("SELECT * FROM cust WHERE acct = 2.0"), 1u);
  EXPECT_EQ(Rows("SELECT * FROM cust WHERE acct = 2.5"), 0u);
  EXPECT_EQ(Rows("SELECT * FROM cust WHERE acct = 'ann'"), 0u);
  EXPECT_EQ(Rows("SELECT * FROM cust WHERE acct = 404"), 0u);
  EXPECT_EQ(Rows("SELECT * FROM cust WHERE acct = 1 AND acct = 2"), 0u);
  // Non-key predicates scan.
  EXPECT_EQ(Rows("SELECT * FROM cust WHERE state = 'NY'"), 1u);
  EXPECT_EQ(Rows("SELECT * FROM cust WHERE acct = 1 AND state = 'NY'"), 0u);
  EXPECT_EQ(Rows("SELECT * FROM cust WHERE acct = 1 OR acct = 2"), 2u);
  EXPECT_EQ(Rows("SELECT * FROM cust WHERE acct != 1"), 2u);
  EXPECT_EQ(Rows("SELECT nope FROM cust WHERE acct = 1"), 999u);
}

INSTANTIATE_TEST_SUITE_P(Shards, SelectProbeTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "shards" + std::to_string(info.param);
                         });

// Which WHERE shapes the planner turns into a probe key.
class PinnedKeyTest : public ::testing::Test {
 protected:
  std::optional<Tuple> Pinned(const std::string& where,
                              const std::vector<size_t>& keys = {0, 1}) {
    cql::Statement stmt = ParseSelect("SELECT * FROM v WHERE " + where);
    return cql::PinnedKey(QueryOf(stmt).where.get(), schema_, keys);
  }

  Schema schema_ = Schema::Make({{"k", DataType::kInt64},
                                 {"s", DataType::kString},
                                 {"d", DataType::kDouble},
                                 {"x", DataType::kInt64}})
                       .value();
};

TEST_F(PinnedKeyTest, EveryKeyPinnedByEqualityProbes) {
  std::optional<Tuple> key = Pinned("k = 5 AND s = 'a'");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(Render((*key)[0]), "i:5");
  EXPECT_EQ(Render((*key)[1]), "s:\"a\"");
  key = Pinned("'a' = s AND 5.0 = k");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(Render((*key)[0]), "i:5");  // coerced to the column's INT64
  key = Pinned("k = 5.5 AND s = 1", {0, 1});
  ASSERT_TRUE(key.has_value());  // probes, and misses
  EXPECT_EQ(Render((*key)[0]), "d:5.5");
  key = Pinned("k = 1 AND k = 2 AND s = 'a'");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(Render((*key)[0]), "i:1");
  // A negative number is a literal, equal to what 0 - n evaluates to.
  key = Pinned("k = -5 AND s = 'a'");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(Render((*key)[0]), "i:-5");
  key = Pinned("k = -9223372036854775807 AND s = 'a'");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(Render((*key)[0]), "i:-9223372036854775807");
  key = Pinned("k = -2.0 AND s = 'a'");
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(Render((*key)[0]), "i:-2");  // coerced to the column's INT64
}

TEST_F(PinnedKeyTest, NegativeLiteralsFoldToWhatSubtractionGives) {
  for (const char* text : {"-5", "-0", "-9223372036854775807", "-2.5",
                           "-0.0", "-1e308"}) {
    Result<cql::Statement> folded =
        cql::ParseStatement(std::string("SELECT * FROM v WHERE k = ") + text);
    Result<cql::Statement> subtracted = cql::ParseStatement(
        std::string("SELECT * FROM v WHERE k = 0 - ") + (text + 1));
    ASSERT_TRUE(folded.ok() && subtracted.ok()) << text;
    const ScalarExpr& lit = QueryOf(*folded).where->child(1);
    const ScalarExpr& sub = QueryOf(*subtracted).where->child(1);
    EXPECT_EQ(lit.kind(), ExprKind::kLiteral) << text;
    const Tuple empty;
    Result<Value> want = sub.Eval(EvalRow{&empty});
    Result<Value> got = lit.Eval(EvalRow{&empty});
    ASSERT_TRUE(want.ok() && got.ok()) << text;
    EXPECT_EQ(Render(*got), Render(*want)) << text;
    EXPECT_EQ(got->is_double() && std::signbit(got->dbl()),
              want->is_double() && std::signbit(want->dbl()))
        << text;
  }
}

TEST_F(PinnedKeyTest, OtherShapesScan) {
  EXPECT_FALSE(Pinned("k = 5").has_value());  // partial key
  EXPECT_FALSE(Pinned("k = 5 AND s = 'a' AND x = 1").has_value());  // non-key
  EXPECT_FALSE(Pinned("k = 5 AND s = 'a' AND x > 1").has_value());
  EXPECT_FALSE(Pinned("k = 5 OR s = 'a'").has_value());
  EXPECT_FALSE(Pinned("k != 5 AND s = 'a'").has_value());
  EXPECT_FALSE(Pinned("k = x AND s = 'a'").has_value());  // no literal
  EXPECT_FALSE(Pinned("k = 2 + 3 AND s = 'a'").has_value());
  EXPECT_FALSE(Pinned("k = -(5) AND s = 'a'").has_value());  // arithmetic
  // 2^53 and up: one double equals several int64 values.
  EXPECT_FALSE(Pinned("k = 9007199254740992.0 AND s = 'a'").has_value());
  EXPECT_FALSE(Pinned("d = 1.5", {2}).has_value());  // DOUBLE key
  EXPECT_FALSE(Pinned("k = 5", {}).has_value());  // no key
  EXPECT_FALSE(cql::PinnedKey(nullptr, schema_, {0}).has_value());
}

}  // namespace
}  // namespace chronicle
