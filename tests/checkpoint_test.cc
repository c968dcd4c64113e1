#include "checkpoint/checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "baseline/naive_engine.h"
#include "checkpoint/serde.h"
#include "common/random.h"
#include "workload/call_records.h"

namespace chronicle {
namespace checkpoint {
namespace {

// --- serde ---

TEST(SerdeTest, PrimitiveRoundTrip) {
  Writer w;
  w.WriteU8(7);
  w.WriteU32(123456);
  w.WriteU64(uint64_t{1} << 60);
  w.WriteI64(-42);
  w.WriteDouble(3.25);
  w.WriteString("hello");
  w.WriteString("");

  Reader r(w.buffer());
  EXPECT_EQ(r.ReadU8().value(), 7);
  EXPECT_EQ(r.ReadU32().value(), 123456u);
  EXPECT_EQ(r.ReadU64().value(), uint64_t{1} << 60);
  EXPECT_EQ(r.ReadI64().value(), -42);
  EXPECT_DOUBLE_EQ(r.ReadDouble().value(), 3.25);
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadString().value(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, ValueAndTupleRoundTrip) {
  Writer w;
  Tuple original{Value(), Value(-5), Value(2.5), Value("text")};
  w.WriteTuple(original);
  Reader r(w.buffer());
  Tuple decoded = r.ReadTuple().value();
  EXPECT_TRUE(TupleEquals(original, decoded));
}

TEST(SerdeTest, TruncationDetected) {
  Writer w;
  w.WriteU64(5);
  std::string cut = w.buffer().substr(0, 3);
  Reader r(cut);
  EXPECT_TRUE(r.ReadU64().status().IsParseError());
}

TEST(SerdeTest, BadValueTagDetected) {
  std::string bad(1, static_cast<char>(99));
  Reader r(bad);
  EXPECT_TRUE(r.ReadValue().status().IsParseError());
}

// --- full database round-trip ---

Schema CallSchema() { return CallRecordGenerator::RecordSchema(); }

// Applies the reference DDL to a database (the "application code" side of
// the restore protocol).
void ApplyDdl(ChronicleDatabase* db) {
  ASSERT_TRUE(db->CreateChronicle("calls", CallSchema(),
                                  RetentionPolicy::Window(64))
                  .ok());
  ASSERT_TRUE(db->CreateRelation("cust", CallRecordGenerator::CustomerSchema(),
                                 "acct")
                  .ok());
  CaExprPtr scan = db->ScanChronicle("calls").value();
  SummarySpec by_caller =
      SummarySpec::GroupBy(scan->schema(), {"caller"},
                           {AggSpec::Sum("minutes", "total"),
                            AggSpec::Count("n"), AggSpec::Min("minutes", "lo"),
                            AggSpec::Max("minutes", "hi"),
                            AggSpec::Avg("minutes", "mean")})
          .value();
  ASSERT_TRUE(db->CreateView("minutes", scan, by_caller).ok());
  SummarySpec regions =
      SummarySpec::DistinctProjection(scan->schema(), {"region"}).value();
  ASSERT_TRUE(db->CreateView("regions", scan, regions).ok());

  auto monthly = PeriodicCalendar::Make(0, 30).value();
  SummarySpec monthly_spec =
      SummarySpec::GroupBy(scan->schema(), {"caller"},
                           {AggSpec::Sum("minutes", "m")})
          .value();
  ASSERT_TRUE(db->CreatePeriodicView("monthly", scan, monthly_spec, monthly).ok());
  ASSERT_TRUE(db->CreateSlidingView("window", scan, monthly_spec, 0, 5, 6).ok());
}

void Stream(ChronicleDatabase* db, CallRecordGenerator* gen, int ticks,
            Chronon* chronon) {
  for (int i = 0; i < ticks; ++i) {
    ASSERT_TRUE(db->Append("calls", gen->NextBatch(2), ++*chronon).ok());
  }
}

TEST(CheckpointTest, RoundTripPreservesEverything) {
  CallRecordOptions options;
  options.num_accounts = 24;
  CallRecordGenerator gen(options);

  ChronicleDatabase original;
  ApplyDdl(&original);
  for (const Tuple& row : gen.CustomerRows()) {
    ASSERT_TRUE(original.InsertInto("cust", row).ok());
  }
  Chronon chronon = 0;
  Stream(&original, &gen, 200, &chronon);

  std::string image = SaveDatabase(original).value();
  ChronicleDatabase restored;
  ApplyDdl(&restored);
  ASSERT_TRUE(RestoreDatabase(image, &restored).ok());

  // Views identical.
  EXPECT_EQ(restored.ScanView("minutes").value(),
            original.ScanView("minutes").value());
  EXPECT_EQ(restored.ScanView("regions").value(),
            original.ScanView("regions").value());
  // Counters identical.
  EXPECT_EQ(restored.group().last_sn(), original.group().last_sn());
  EXPECT_EQ(restored.group().last_chronon(), original.group().last_chronon());
  EXPECT_EQ(restored.appends_processed(), original.appends_processed());
  // Retained window identical.
  const Chronicle* oc = original.group().GetChronicle(0).value();
  const Chronicle* rc = restored.group().GetChronicle(0).value();
  EXPECT_EQ(oc->total_appended(), rc->total_appended());
  ASSERT_EQ(oc->retained().size(), rc->retained().size());
  for (size_t i = 0; i < oc->retained().size(); ++i) {
    EXPECT_EQ(oc->retained()[i], rc->retained()[i]);
  }
  // Relation identical.
  EXPECT_EQ(original.GetRelation("cust").value()->size(),
            restored.GetRelation("cust").value()->size());
  // Periodic instances identical.
  const PeriodicViewSet* om = original.GetPeriodicView("monthly").value();
  const PeriodicViewSet* rm = restored.GetPeriodicView("monthly").value();
  EXPECT_EQ(om->num_active_instances(), rm->num_active_instances());
  om->VisitInstances([&](int64_t index, const PersistentView& instance) {
    instance.VisitGroups([&](const Tuple& key, const std::vector<AggState>&,
                             int64_t) {
      EXPECT_EQ(rm->Lookup(index, key).value(),
                om->Lookup(index, key).value());
    });
  });
  // Sliding window identical.
  const SlidingWindowView* ow = original.GetSlidingView("window").value();
  const SlidingWindowView* rw = restored.GetSlidingView("window").value();
  EXPECT_EQ(ow->current_pane(), rw->current_pane());
  std::vector<Tuple> ow_rows, rw_rows;
  ASSERT_TRUE(ow->ScanWindow([&](const Tuple& r) { ow_rows.push_back(r); }).ok());
  ASSERT_TRUE(rw->ScanWindow([&](const Tuple& r) { rw_rows.push_back(r); }).ok());
  SortTuples(&ow_rows);
  SortTuples(&rw_rows);
  EXPECT_EQ(ow_rows, rw_rows);
}

TEST(CheckpointTest, RestoredDatabaseContinuesExactly) {
  // The real recovery property: after restore, continued streaming yields
  // the same views as a database that never crashed.
  CallRecordOptions options;
  options.num_accounts = 16;
  options.seed = 77;

  ChronicleDatabase uninterrupted;
  ApplyDdl(&uninterrupted);
  CallRecordGenerator gen_a(options);
  Chronon chronon_a = 0;
  Stream(&uninterrupted, &gen_a, 150, &chronon_a);

  // The "crashing" instance: checkpoint at tick 100, restore, continue.
  ChronicleDatabase before_crash;
  ApplyDdl(&before_crash);
  CallRecordGenerator gen_b(options);
  Chronon chronon_b = 0;
  Stream(&before_crash, &gen_b, 100, &chronon_b);
  std::string image = SaveDatabase(before_crash).value();

  ChronicleDatabase recovered;
  ApplyDdl(&recovered);
  ASSERT_TRUE(RestoreDatabase(image, &recovered).ok());
  Stream(&recovered, &gen_b, 50, &chronon_b);  // same stream continues

  EXPECT_EQ(recovered.ScanView("minutes").value(),
            uninterrupted.ScanView("minutes").value());
  EXPECT_EQ(recovered.ScanView("regions").value(),
            uninterrupted.ScanView("regions").value());
  EXPECT_EQ(recovered.group().last_sn(), uninterrupted.group().last_sn());

  const SlidingWindowView* uw = uninterrupted.GetSlidingView("window").value();
  const SlidingWindowView* rw = recovered.GetSlidingView("window").value();
  std::vector<Tuple> u_rows, r_rows;
  ASSERT_TRUE(uw->ScanWindow([&](const Tuple& r) { u_rows.push_back(r); }).ok());
  ASSERT_TRUE(rw->ScanWindow([&](const Tuple& r) { r_rows.push_back(r); }).ok());
  SortTuples(&u_rows);
  SortTuples(&r_rows);
  EXPECT_EQ(u_rows, r_rows);
}

TEST(CheckpointTest, RestoreIntoUsedDatabaseRejected) {
  ChronicleDatabase db;
  ApplyDdl(&db);
  CallRecordGenerator gen(CallRecordOptions{});
  Chronon chronon = 0;
  Stream(&db, &gen, 5, &chronon);
  std::string image = SaveDatabase(db).value();
  // db itself already processed appends.
  EXPECT_TRUE(RestoreDatabase(image, &db).IsFailedPrecondition());
}

TEST(CheckpointTest, RestoreWithMissingDdlRejected) {
  ChronicleDatabase db;
  ApplyDdl(&db);
  CallRecordGenerator gen(CallRecordOptions{});
  Chronon chronon = 0;
  Stream(&db, &gen, 5, &chronon);
  std::string image = SaveDatabase(db).value();

  ChronicleDatabase missing_everything;  // DDL not applied
  EXPECT_FALSE(RestoreDatabase(image, &missing_everything).ok());
}

TEST(CheckpointTest, CorruptImagesRejected) {
  ChronicleDatabase db;
  ApplyDdl(&db);
  std::string image = SaveDatabase(db).value();

  ChronicleDatabase target;
  ApplyDdl(&target);
  EXPECT_TRUE(RestoreDatabase("garbage", &target).IsParseError());
  std::string truncated = image.substr(0, image.size() / 2);
  EXPECT_FALSE(RestoreDatabase(truncated, &target).ok());
  std::string trailing = image + "extra";
  EXPECT_FALSE(RestoreDatabase(trailing, &target).ok());
}

TEST(CheckpointTest, FileRoundTrip) {
  ChronicleDatabase db;
  ApplyDdl(&db);
  CallRecordGenerator gen(CallRecordOptions{});
  Chronon chronon = 0;
  Stream(&db, &gen, 30, &chronon);

  const std::string path = "/tmp/chronicle_checkpoint_test.ckpt";
  ASSERT_TRUE(SaveDatabaseToFile(db, path).ok());
  ChronicleDatabase restored;
  ApplyDdl(&restored);
  ASSERT_TRUE(RestoreDatabaseFromFile(path, &restored).ok());
  EXPECT_EQ(restored.ScanView("minutes").value(),
            db.ScanView("minutes").value());
  std::remove(path.c_str());

  ChronicleDatabase other;
  ApplyDdl(&other);
  EXPECT_TRUE(
      RestoreDatabaseFromFile("/tmp/does_not_exist.ckpt", &other).IsNotFound());
}

TEST(CheckpointTest, FailedSaveKeepsThePreviousCheckpoint) {
  ChronicleDatabase db;
  ApplyDdl(&db);
  CallRecordGenerator gen(CallRecordOptions{});
  Chronon chronon = 0;
  Stream(&db, &gen, 20, &chronon);

  const std::string path = "/tmp/chronicle_checkpoint_test_" +
                           std::to_string(::getpid()) + ".ckpt";
  ASSERT_TRUE(SaveDatabaseToFile(db, path).ok());
  const std::vector<Tuple> saved = db.ScanView("minutes").value();

  // More state, then a save that cannot complete: the temp file the write
  // goes through is occupied by a directory.
  Stream(&db, &gen, 20, &chronon);
  const std::string tmp = path + ".tmp";
  ASSERT_TRUE(std::filesystem::create_directory(tmp));
  EXPECT_FALSE(SaveDatabaseToFile(db, path).ok());
  std::filesystem::remove(tmp);

  // The previous checkpoint is intact and restores to the saved state.
  ChronicleDatabase restored;
  ApplyDdl(&restored);
  ASSERT_TRUE(RestoreDatabaseFromFile(path, &restored).ok());
  EXPECT_EQ(restored.ScanView("minutes").value(), saved);
  EXPECT_NE(restored.ScanView("minutes").value(),
            db.ScanView("minutes").value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace checkpoint
}  // namespace chronicle
