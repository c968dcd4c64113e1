// Sharding equivalence fuzz: a ShardedDatabase must be observably
// indistinguishable from one unsharded ChronicleDatabase fed the same
// workload — byte-identical ScanView contents and QueryView answers — for
// every num_shards in {1, 2, 8} and both kernel modes of the compiled
// delta plans (row and columnar) on the shards. With num_shards == 1 the
// router forwards verbatim, so the match must extend to engine counters
// (appends_processed, last SN): that is the bit-identical oracle the CI
// gate relies on.
//
// The generator only draws plans from the shard-safe subset (see
// docs/SHARDING.md): per-row operators plus replicated-relation joins,
// always retaining the partition column ("caller") in the output so rows
// that must collide — per-tick dedupe, Difference matching, group
// membership — are guaranteed to colocate. SeqJoin and caller-dropping
// projections are deliberately absent; they do not commute with hash
// partitioning.
//
// Seeded through the CHRONICLE_FUZZ_SEED replay scheme.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "db/database.h"
#include "shard/sharded_db.h"

namespace chronicle {
namespace {

using shard::ShardedDatabase;

constexpr int64_t kAccounts = 16;
const char* const kStrings[] = {"NJ", "NY", "CA", "TX"};

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

Schema CustSchema() {
  return Schema({{"acct", DataType::kInt64}, {"state", DataType::kString}});
}

// A comparison drawn up front as plain data, so the same predicate can be
// rebuilt per engine (the sharded router instantiates one plan per shard).
struct PredParam {
  std::string column;
  int op = 0;  // 0 Eq, 1 Ne, 2 Gt, 3 Le
  Value lit;
};

PredParam RandomPred(Rng* rng) {
  PredParam p;
  switch (rng->Uniform(3)) {
    case 0:
      p.column = "caller";
      p.lit = Value(static_cast<int64_t>(rng->Uniform(kAccounts)));
      p.op = static_cast<int>(rng->Uniform(4));
      break;
    case 1:
      p.column = "region";
      p.lit = Value(kStrings[rng->Uniform(4)]);
      p.op = static_cast<int>(rng->Uniform(2));  // Eq / Ne only
      break;
    default:
      p.column = "minutes";
      p.lit = Value(static_cast<int64_t>(rng->Uniform(20)));
      p.op = static_cast<int>(rng->Uniform(4));
      break;
  }
  return p;
}

ScalarExprPtr BuildPred(const PredParam& p) {
  switch (p.op) {
    case 0: return Eq(Col(p.column), Lit(p.lit));
    case 1: return Ne(Col(p.column), Lit(p.lit));
    case 2: return Gt(Col(p.column), Lit(p.lit));
    default: return Le(Col(p.column), Lit(p.lit));
  }
}

struct AggParam {
  int kind = 0;  // 0 Sum, 1 Count, 2 Min, 3 Max, 4 Avg
  std::string in;
  std::string out;
};

AggSpec BuildAgg(const AggParam& a) {
  switch (a.kind) {
    case 0: return AggSpec::Sum(a.in, a.out);
    case 1: return AggSpec::Count(a.out);
    case 2: return AggSpec::Min(a.in, a.out);
    case 3: return AggSpec::Max(a.in, a.out);
    default: return AggSpec::Avg(a.in, a.out);
  }
}

// One randomized shard-safe view shape, as data: enough to rebuild the
// identical logical plan + spec against any engine.
struct ViewShape {
  std::string name;
  int plan_kind = 0;  // 0 scan, 1 select, 2 rel-key-join, 3 union,
                      // 4 difference, 5 inner GroupBySeq
  PredParam p1, p2;
  int key_kind = 0;    // 0 {caller}, 1 {caller,region}, 2 {region}
  bool distinct = false;  // DistinctProjection instead of GroupBy
  std::vector<AggParam> aggs;
};

ViewShape RandomShape(Rng* rng, int index) {
  ViewShape s;
  s.name = "v" + std::to_string(index);
  s.plan_kind = static_cast<int>(rng->Uniform(6));
  s.p1 = RandomPred(rng);
  s.p2 = RandomPred(rng);
  s.key_kind = static_cast<int>(rng->Uniform(3));
  // DistinctProjection only over the raw-schema shapes; its "plan" is the
  // projection itself, keyed on every output column.
  s.distinct = s.plan_kind <= 1 && rng->Bernoulli(0.25);
  if (!s.distinct) {
    const char* numeric = s.plan_kind == 5 ? "t" : "minutes";
    const size_t n = 1 + rng->Uniform(2);
    for (size_t a = 0; a < n; ++a) {
      AggParam agg;
      agg.kind = static_cast<int>(rng->Uniform(5));
      agg.in = numeric;
      agg.out = "z" + std::to_string(a);
      s.aggs.push_back(agg);
    }
  }
  return s;
}

Result<CaExprPtr> BuildPlan(ChronicleDatabase& db, const ViewShape& s) {
  CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr scan, db.ScanChronicle("calls"));
  switch (s.plan_kind) {
    case 0:
      return scan;
    case 1:
      return CaExpr::Select(scan, BuildPred(s.p1));
    case 2: {
      // cust is replicated on every shard, so the join is shard-local.
      CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr guarded,
                                 CaExpr::Select(scan, BuildPred(s.p1)));
      CHRONICLE_ASSIGN_OR_RETURN(Relation * rel, db.GetRelation("cust"));
      return CaExpr::RelKeyJoin(guarded, rel, "caller");
    }
    case 3: {
      CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr left,
                                 CaExpr::Select(scan, BuildPred(s.p1)));
      CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr right,
                                 CaExpr::Select(scan, BuildPred(s.p2)));
      return CaExpr::Union(left, right);
    }
    case 4: {
      // Matching rows are full-tuple-equal, hence same caller, hence the
      // same shard: Difference commutes with the partitioning.
      CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr left,
                                 CaExpr::Select(scan, BuildPred(s.p1)));
      CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr right,
                                 CaExpr::Select(scan, BuildPred(s.p2)));
      return CaExpr::Difference(left, right);
    }
    default: {
      // Per-tick grouping whose group columns include the partition
      // column: every group's rows share one caller and colocate.
      CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr sel,
                                 CaExpr::Select(scan, BuildPred(s.p1)));
      std::vector<AggSpec> inner;
      inner.push_back(AggSpec::Sum("minutes", "t"));
      return CaExpr::GroupBySeq(sel, {"caller", "region"}, std::move(inner));
    }
  }
}

Result<SummarySpec> BuildSpec(const Schema& plan_schema, const ViewShape& s) {
  if (s.distinct) {
    return SummarySpec::DistinctProjection(plan_schema, {"caller", "region"});
  }
  std::vector<std::string> keys;
  switch (s.key_kind) {
    case 0: keys = {"caller"}; break;
    case 1: keys = {"caller", "region"}; break;
    default: keys = {"region"}; break;
  }
  std::vector<AggSpec> aggs;
  for (const AggParam& a : s.aggs) aggs.push_back(BuildAgg(a));
  return SummarySpec::GroupBy(plan_schema, std::move(keys), std::move(aggs));
}

size_t KeyWidth(const ViewShape& s) {
  if (s.distinct) return 2;
  return s.key_kind == 1 ? 2 : 1;
}

void ApplyBaseDdl(ChronicleDatabase* db) {
  ASSERT_TRUE(db->CreateChronicle("calls", CallSchema()).ok());
  ASSERT_TRUE(db->CreateRelation("cust", CustSchema(), "acct").ok());
}

void ApplyBaseDdl(ShardedDatabase* db) {
  ASSERT_TRUE(db->CreateChronicle("calls", CallSchema()).ok());
  ASSERT_TRUE(db->CreateRelation("cust", CustSchema(), "acct").ok());
}

void ApplyShapes(ChronicleDatabase* db, const std::vector<ViewShape>& shapes) {
  for (const ViewShape& s : shapes) {
    Result<CaExprPtr> plan = BuildPlan(*db, s);
    ASSERT_TRUE(plan.ok()) << s.name << ": " << plan.status().ToString();
    Result<SummarySpec> spec = BuildSpec(plan.value()->schema(), s);
    ASSERT_TRUE(spec.ok()) << s.name << ": " << spec.status().ToString();
    ASSERT_TRUE(
        db->CreateView(s.name, plan.value(), std::move(spec).value()).ok());
  }
}

void ApplyShapes(ShardedDatabase* db, const std::vector<ViewShape>& shapes) {
  for (const ViewShape& s : shapes) {
    // Probe the logical schema once against shard 0, then hand the router
    // a factory that rebuilds the identical plan per engine.
    Result<CaExprPtr> probe = BuildPlan(db->engine(0), s);
    ASSERT_TRUE(probe.ok()) << s.name << ": " << probe.status().ToString();
    Result<SummarySpec> spec = BuildSpec(probe.value()->schema(), s);
    ASSERT_TRUE(spec.ok()) << s.name << ": " << spec.status().ToString();
    ViewShape copy = s;
    ASSERT_TRUE(db->CreateView(
                      s.name,
                      [copy](ChronicleDatabase& engine) {
                        return BuildPlan(engine, copy);
                      },
                      std::move(spec).value())
                    .ok());
  }
}

std::vector<Tuple> RandomBatch(Rng* rng, uint64_t max_tuples) {
  std::vector<Tuple> out;
  const uint64_t n = rng->Uniform(max_tuples + 1);
  for (uint64_t i = 0; i < n; ++i) {
    out.push_back(Tuple{Value(static_cast<int64_t>(rng->Uniform(kAccounts))),
                        Value(kStrings[rng->Uniform(4)]),
                        Value(static_cast<int64_t>(rng->Uniform(20)))});
  }
  return out;
}

// One deterministic workload step list: append ticks interleaved with
// proactive relation updates, derived from the seed so every engine
// configuration replays the exact same mutations.
struct Step {
  std::vector<Tuple> batch;  // append when non-sentinel
  bool relation_update = false;
  int64_t acct = 0;
  std::string state;
};

std::vector<Step> MakeWorkload(uint64_t seed) {
  Rng rng(seed);
  std::vector<Step> steps;
  for (int64_t acct = 0; acct < kAccounts; ++acct) {
    Step s;
    s.relation_update = true;
    s.acct = acct;
    s.state = kStrings[rng.Uniform(4)];
    steps.push_back(std::move(s));
  }
  for (int tick = 0; tick < 30; ++tick) {
    if (tick > 0 && rng.Bernoulli(0.2)) {
      Step s;
      s.relation_update = true;
      s.acct = static_cast<int64_t>(rng.Uniform(kAccounts));
      s.state = kStrings[rng.Uniform(4)];
      steps.push_back(std::move(s));
    }
    Step s;
    s.batch = RandomBatch(&rng, 6);
    // At least one row per tick so every shape sees delta traffic.
    s.batch.push_back(Tuple{Value(int64_t{tick % kAccounts}),
                            Value(kStrings[tick % 4]), Value(int64_t{tick})});
    steps.push_back(std::move(s));
  }
  return steps;
}

template <typename Db>
void Drive(Db* db, const std::vector<Step>& steps) {
  Chronon chronon = 0;
  bool seeded = false;
  for (const Step& step : steps) {
    if (step.relation_update) {
      // The first kAccounts steps seed the relation; later draws update.
      Tuple row{Value(step.acct), Value(step.state)};
      Status st = seeded ? db->UpdateRelation("cust", Value(step.acct),
                                              std::move(row))
                         : db->InsertInto("cust", std::move(row));
      ASSERT_TRUE(st.ok()) << st.ToString();
      if (!seeded && step.acct == kAccounts - 1) seeded = true;
      continue;
    }
    auto r = db->Append("calls", step.batch, ++chronon);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

TEST(ShardedEquivalenceFuzzTest, ShardedMatchesUnshardedAcrossEngines) {
  const uint64_t seed = FuzzSeed(20260809);
  SCOPED_TRACE(testing::Message() << "CHRONICLE_FUZZ_SEED=" << seed);
  Rng rng(seed);

  std::vector<ViewShape> shapes;
  for (int v = 0; v < 12; ++v) shapes.push_back(RandomShape(&rng, v));
  const std::vector<Step> steps = MakeWorkload(seed ^ 0x9e3779b97f4a7c15ull);

  // Reference: one unsharded engine, serial, row kernels.
  ChronicleDatabase reference;
  ApplyBaseDdl(&reference);
  ApplyShapes(&reference, shapes);
  {
    MaintenanceOptions row;
    row.num_threads = 1;
    row.use_columnar_kernels = false;
    reference.ReconfigureMaintenance(row);
  }
  Drive(&reference, steps);
  std::vector<std::vector<Tuple>> expected;
  for (const ViewShape& s : shapes) {
    expected.push_back(reference.ScanView(s.name).value());
  }

  for (size_t num_shards : {1u, 2u, 8u}) {
    for (bool columnar : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "num_shards=" << num_shards << " columnar=" << columnar);
      DatabaseOptions options;
      options.sharding.num_shards = num_shards;
      auto sharded = ShardedDatabase::Open(options).value();
      ApplyBaseDdl(sharded.get());
      ApplyShapes(sharded.get(), shapes);
      for (size_t k = 0; k < sharded->num_shards(); ++k) {
        MaintenanceOptions engine_options;
        engine_options.num_threads = 1;
        engine_options.use_columnar_kernels = columnar;
        sharded->engine(k).ReconfigureMaintenance(engine_options);
      }
      Drive(sharded.get(), steps);

      for (size_t v = 0; v < shapes.size(); ++v) {
        SCOPED_TRACE(shapes[v].name);
        std::vector<Tuple> got = sharded->ScanView(shapes[v].name).value();
        ASSERT_EQ(got, expected[v]);
        // Point lookups agree too — both the aligned single-shard route
        // and the merged multi-shard fold.
        const size_t width = KeyWidth(shapes[v]);
        for (size_t i = 0; i < got.size(); i += 3) {
          Tuple key(got[i].begin(), got[i].begin() + width);
          EXPECT_EQ(sharded->QueryView(shapes[v].name, key).value(), got[i]);
        }
      }

      if (num_shards == 1) {
        // The bit-identical oracle: with one shard the router IS the
        // unsharded engine, down to its counters.
        EXPECT_EQ(sharded->engine(0).appends_processed(),
                  reference.appends_processed());
        EXPECT_EQ(sharded->engine(0).group().last_sn(),
                  reference.group().last_sn());
        EXPECT_EQ(sharded->engine(0).group().last_chronon(),
                  reference.group().last_chronon());
      }
    }
  }
}

}  // namespace
}  // namespace chronicle
