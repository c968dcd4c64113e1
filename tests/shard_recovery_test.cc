// Per-shard durability: a ShardedDatabase with ShardingOptions::wal_dir
// writes one WAL segment stream per shard. After a crash (dropping the
// router), a fresh router replaying DDL -> RecoverFromWal -> AttachWals
// must converge to the exact state of an uncrashed run — merged view
// reads, per-shard engine counters, and continued ingest after recovery.
// A tiered-store variant checks the per-shard <data_dir>/shard-<k>
// directory split survives the same cycle.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "db/database.h"
#include "obs/export.h"
#include "shard/sharded_db.h"

namespace chronicle {
namespace {

namespace fs = std::filesystem;

using shard::ShardedDatabase;

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() /
              ("chronicle_shard_recovery_" + name + "_" +
               std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

Schema CallSchema() {
  return Schema({{"caller", DataType::kInt64},
                 {"region", DataType::kString},
                 {"minutes", DataType::kInt64}});
}

void ApplyDdl(ShardedDatabase* db) {
  ASSERT_TRUE(db->CreateChronicle("calls", CallSchema()).ok());
  ASSERT_TRUE(db->CreateRelation("cust",
                                 Schema({{"acct", DataType::kInt64},
                                         {"state", DataType::kString}}),
                                 "acct")
                  .ok());
  ASSERT_TRUE(
      db->CreateView("minutes",
                     [](ChronicleDatabase& e) { return e.ScanChronicle("calls"); },
                     SummarySpec::GroupBy(CallSchema(), {"caller"},
                                          {AggSpec::Sum("minutes", "m"),
                                           AggSpec::Count("n")})
                         .value())
          .ok());
  ASSERT_TRUE(
      db->CreateView("regions",
                     [](ChronicleDatabase& e) { return e.ScanChronicle("calls"); },
                     SummarySpec::GroupBy(CallSchema(), {"region"},
                                          {AggSpec::Sum("minutes", "m"),
                                           AggSpec::Max("minutes", "hi")})
                         .value())
          .ok());
}

// Same mutation for the same step index on any router, so crashed and
// uncrashed runs replay tick-for-tick.
void ApplyStep(ShardedDatabase* db, int step) {
  if (step % 7 == 3) {
    ASSERT_TRUE(
        db->InsertInto("cust", Tuple{Value(step), Value("NJ")}).ok());
    return;
  }
  std::vector<Tuple> batch;
  for (int i = 0; i <= step % 4; ++i) {
    batch.push_back(Tuple{Value((step * 5 + i * 3) % 13),
                          Value(i % 2 ? "NJ" : "CA"),
                          Value((step + i) % 9)});
  }
  auto r = db->Append("calls", std::move(batch));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

DatabaseOptions ShardedOptions(size_t num_shards, const std::string& wal_dir,
                               const std::string& data_dir = "") {
  DatabaseOptions options;
  options.sharding.num_shards = num_shards;
  options.sharding.wal_dir = wal_dir;
  if (!data_dir.empty()) {
    options.storage.data_dir = data_dir;
    options.storage.hot_rows = 4;  // tiny hot window: force spills
    options.storage.segment_rows = 4;
  }
  return options;
}

// Runs `steps` with per-shard WALs attached, then drops everything — the
// crash. Only the directories survive.
void RunAndCrash(const DatabaseOptions& options, int steps) {
  auto db = ShardedDatabase::Open(options).value();
  ApplyDdl(db.get());
  ASSERT_TRUE(db->AttachWals().ok());
  for (int step = 0; step < steps; ++step) ApplyStep(db.get(), step);
  ASSERT_TRUE(db->CloseWals().ok());
}

// The uncrashed reference: same options minus durability.
std::unique_ptr<ShardedDatabase> ReferenceAfter(size_t num_shards, int steps) {
  DatabaseOptions options;
  options.sharding.num_shards = num_shards;
  auto db = ShardedDatabase::Open(options).value();
  ApplyDdl(db.get());
  for (int step = 0; step < steps; ++step) ApplyStep(db.get(), step);
  return db;
}

TEST(ShardRecoveryTest, PerShardReplayConvergesWithUncrashedRun) {
  constexpr size_t kShards = 4;
  constexpr int kSteps = 40;
  ScratchDir dir("replay");
  RunAndCrash(ShardedOptions(kShards, dir.path), kSteps);

  // Each shard left its own segment stream behind.
  for (size_t k = 0; k < kShards; ++k) {
    EXPECT_TRUE(fs::exists(dir.path + "/shard-" + std::to_string(k)))
        << "missing WAL dir for shard " << k;
  }

  auto recovered =
      ShardedDatabase::Open(ShardedOptions(kShards, dir.path)).value();
  ApplyDdl(recovered.get());
  auto reports = recovered->RecoverFromWal();
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), kShards);
  ASSERT_TRUE(recovered->AttachWals().ok());

  auto reference = ReferenceAfter(kShards, kSteps);
  EXPECT_EQ(recovered->ScanView("minutes").value(),
            reference->ScanView("minutes").value());
  EXPECT_EQ(recovered->ScanView("regions").value(),
            reference->ScanView("regions").value());
  uint64_t replayed = 0;
  for (size_t k = 0; k < kShards; ++k) {
    SCOPED_TRACE(testing::Message() << "shard=" << k);
    // Shard k replayed exactly its own tick stream: SN and counters match
    // the uncrashed run's shard k.
    EXPECT_EQ(recovered->engine(k).group().last_sn(),
              reference->engine(k).group().last_sn());
    EXPECT_EQ(recovered->engine(k).appends_processed(),
              reference->engine(k).appends_processed());
    replayed += (*reports)[k].replay.records_applied;
  }
  EXPECT_GT(replayed, 0u);

  // The recovered router keeps working — and keeps logging: further steps
  // land in the per-shard WALs and both runs stay identical.
  for (int step = kSteps; step < kSteps + 10; ++step) {
    ApplyStep(recovered.get(), step);
    ApplyStep(reference.get(), step);
  }
  EXPECT_EQ(recovered->ScanView("minutes").value(),
            reference->ScanView("minutes").value());
  ASSERT_TRUE(recovered->CloseWals().ok());

  // Second crash/recover cycle over the longer history.
  auto recovered2 =
      ShardedDatabase::Open(ShardedOptions(kShards, dir.path)).value();
  ApplyDdl(recovered2.get());
  ASSERT_TRUE(recovered2->RecoverFromWal().ok());
  EXPECT_EQ(recovered2->ScanView("minutes").value(),
            reference->ScanView("minutes").value());
}

TEST(ShardRecoveryTest, SingleShardRecoveryIsBitIdenticalToUnsharded) {
  ScratchDir dir("single");
  RunAndCrash(ShardedOptions(1, dir.path), 25);

  auto recovered = ShardedDatabase::Open(ShardedOptions(1, dir.path)).value();
  ApplyDdl(recovered.get());
  ASSERT_TRUE(recovered->RecoverFromWal().ok());

  auto reference = ReferenceAfter(1, 25);
  EXPECT_EQ(recovered->ScanView("minutes").value(),
            reference->ScanView("minutes").value());
  EXPECT_EQ(recovered->engine(0).group().last_sn(),
            reference->engine(0).group().last_sn());
  EXPECT_EQ(recovered->engine(0).group().last_chronon(),
            reference->engine(0).group().last_chronon());
  EXPECT_EQ(recovered->engine(0).appends_processed(),
            reference->engine(0).appends_processed());
}

TEST(ShardRecoveryTest, OrderingGuards) {
  ScratchDir dir("guards");
  auto db = ShardedDatabase::Open(ShardedOptions(2, dir.path)).value();
  ApplyDdl(db.get());
  ASSERT_TRUE(db->AttachWals().ok());
  // Recovery after attach would double-apply: refused.
  EXPECT_FALSE(db->RecoverFromWal().ok());
  ASSERT_TRUE(db->CloseWals().ok());
  // Without a wal_dir there is nothing to recover.
  DatabaseOptions plain;
  plain.sharding.num_shards = 2;
  auto no_wal = ShardedDatabase::Open(plain).value();
  EXPECT_FALSE(no_wal->RecoverFromWal().ok());
  EXPECT_TRUE(no_wal->AttachWals().ok());  // explicit no-op
}

TEST(ShardRecoveryTest, TieredStoreDirectoriesSplitPerShard) {
  constexpr size_t kShards = 2;
  constexpr int kSteps = 30;
  ScratchDir wal_dir("tiered_wal");
  ScratchDir data_dir("tiered_data");
  {
    auto db = ShardedDatabase::Open(
                  ShardedOptions(kShards, wal_dir.path, data_dir.path))
                  .value();
    ASSERT_TRUE(db->CreateChronicle("calls", CallSchema(),
                                    RetentionPolicy::Tiered(4))
                    .ok());
    ASSERT_TRUE(
        db->CreateView(
              "minutes",
              [](ChronicleDatabase& e) { return e.ScanChronicle("calls"); },
              SummarySpec::GroupBy(CallSchema(), {"caller"},
                                   {AggSpec::Sum("minutes", "m")})
                  .value())
            .ok());
    ASSERT_TRUE(db->AttachWals().ok());
    for (int step = 0; step < kSteps; ++step) {
      std::vector<Tuple> batch;
      for (int i = 0; i < 3; ++i) {
        batch.push_back(Tuple{Value((step * 3 + i) % 11), Value("NJ"),
                              Value(step)});
      }
      ASSERT_TRUE(db->Append("calls", std::move(batch)).ok());
    }
    ASSERT_TRUE(db->CloseWals().ok());
    // Both shards spilled into their own store directory.
    for (size_t k = 0; k < kShards; ++k) {
      EXPECT_TRUE(fs::exists(data_dir.path + "/shard-" + std::to_string(k)))
          << "missing store dir for shard " << k;
    }
  }
  // Recover into fresh per-shard engines over the same directories.
  auto recovered = ShardedDatabase::Open(
                       ShardedOptions(kShards, wal_dir.path, data_dir.path))
                       .value();
  ASSERT_TRUE(recovered
                  ->CreateChronicle("calls", CallSchema(),
                                    RetentionPolicy::Tiered(4))
                  .ok());
  ASSERT_TRUE(
      recovered
          ->CreateView(
              "minutes",
              [](ChronicleDatabase& e) { return e.ScanChronicle("calls"); },
              SummarySpec::GroupBy(CallSchema(), {"caller"},
                                   {AggSpec::Sum("minutes", "m")})
                  .value())
          .ok());
  ASSERT_TRUE(recovered->RecoverFromWal().ok());

  // Recompute the expected totals directly.
  std::map<int64_t, int64_t> sums;
  for (int step = 0; step < kSteps; ++step) {
    for (int i = 0; i < 3; ++i) sums[(step * 3 + i) % 11] += step;
  }
  std::vector<Tuple> rows = recovered->ScanView("minutes").value();
  ASSERT_EQ(rows.size(), sums.size());
  for (const Tuple& row : rows) {
    EXPECT_EQ(row[1].int64(), sums[row[0].int64()]) << row[0].int64();
  }
}

// The seal ledger: every sealed segment leaves one storage_seal_ns sample,
// the sharded snapshot merges the per-shard histograms, and all three
// exporters render it.
TEST(ShardRecoveryTest, SealLatencyCountsEverySealedSegment) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << shards << " shard(s)");
    const std::string tag = "seal_ledger_" + std::to_string(shards);
    ScratchDir wal_dir(tag + "_wal");
    ScratchDir data_dir(tag + "_data");
    auto db = ShardedDatabase::Open(
                  ShardedOptions(shards, wal_dir.path, data_dir.path))
                  .value();
    ASSERT_TRUE(db->CreateChronicle("calls", CallSchema(),
                                    RetentionPolicy::Tiered(4))
                    .ok());
    ASSERT_TRUE(db->AttachWals().ok());
    for (int step = 0; step < 60; ++step) {
      std::vector<Tuple> batch;
      for (int i = 0; i < 4; ++i) {
        batch.push_back(Tuple{Value((step * 4 + i) % 13), Value("NJ"),
                              Value(step)});
      }
      ASSERT_TRUE(db->Append("calls", std::move(batch)).ok());
    }
    const obs::StatsSnapshot snap = db->CollectStats();
    ASSERT_TRUE(snap.storage.attached);
    EXPECT_GE(snap.storage.segments_sealed, shards);
    EXPECT_EQ(snap.storage.seal_failures, 0u);
    EXPECT_EQ(snap.storage.seal_latency.count(), snap.storage.segments_sealed);
    EXPECT_GT(snap.storage.seal_latency.SumNanos(), 0.0);

    const std::string count =
        std::to_string(snap.storage.seal_latency.count());
    EXPECT_NE(obs::RenderPrometheus(snap).find(
                  "chronicle_storage_seal_ns_count " + count),
              std::string::npos);
    const std::string json = obs::RenderJson(snap);
    EXPECT_TRUE(obs::ValidateJson(json).ok()) << json;
    EXPECT_NE(json.find("\"seal_latency\":{\"count\":" + count),
              std::string::npos)
        << json;
    EXPECT_NE(obs::RenderText(snap).find("seal latency"), std::string::npos);
    ASSERT_TRUE(db->CloseWals().ok());
  }
}

}  // namespace
}  // namespace chronicle
