// Replayable backfill: RegisterViewWithBackfill on a database that has
// already processed appends must produce a view byte-identical to one
// registered before SN 1 — across retention modes (All in memory, Tiered
// with most history in warm segments) and across both kernel modes of the
// compiled delta plans (row and columnar).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "db/database.h"
#include "workload/call_records.h"

namespace chronicle {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() /
              ("chronicle_backfill_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

enum class Tiering { kAllInMemory, kTiered };

DatabaseOptions MakeOptions(Tiering tiering, bool columnar,
                            const std::string& dir) {
  DatabaseOptions options;
  options.maintenance.use_columnar_kernels = columnar;
  if (tiering == Tiering::kTiered) {
    store::StorageOptions storage;
    storage.data_dir = dir;
    storage.hot_rows = 16;   // tiny hot window: most history lives on disk
    storage.segment_rows = 8;
    options.storage = storage;
  }
  return options;
}

RetentionPolicy PolicyFor(Tiering tiering) {
  return tiering == Tiering::kTiered ? RetentionPolicy::Tiered(16)
                                     : RetentionPolicy::All();
}

void CreateMinutesView(ChronicleDatabase* db) {
  CaExprPtr scan = db->ScanChronicle("calls").value();
  ASSERT_TRUE(db->CreateView("minutes", scan,
                             SummarySpec::GroupBy(scan->schema(), {"caller"},
                                                  {AggSpec::Sum("minutes", "m"),
                                                   AggSpec::Count("n")})
                                 .value())
                  .ok());
}

void AppendWorkload(ChronicleDatabase* db, int ticks) {
  CallRecordGenerator gen;
  for (int i = 0; i < ticks; ++i) {
    // Varying batch sizes exercise multi-row SNs across the tier boundary.
    ASSERT_TRUE(db->Append("calls", gen.NextBatch(1 + i % 3)).ok());
  }
}

// Registered-at-SN-0 reference vs late registration with backfill.
void RunEquivalence(Tiering tiering, bool columnar) {
  ScratchDir ref_dir("ref"), late_dir("late");
  const int kTicks = 120;

  ChronicleDatabase reference(MakeOptions(tiering, columnar, ref_dir.path));
  ASSERT_TRUE(reference
                  .CreateChronicle("calls", CallRecordGenerator::RecordSchema(),
                                   PolicyFor(tiering))
                  .ok());
  CreateMinutesView(&reference);
  AppendWorkload(&reference, kTicks);

  ChronicleDatabase late(MakeOptions(tiering, columnar, late_dir.path));
  ASSERT_TRUE(late.CreateChronicle("calls",
                                   CallRecordGenerator::RecordSchema(),
                                   PolicyFor(tiering))
                  .ok());
  AppendWorkload(&late, kTicks);

  CaExprPtr scan = late.ScanChronicle("calls").value();
  auto report = late.RegisterViewWithBackfill(
      "minutes", scan,
      SummarySpec::GroupBy(scan->schema(), {"caller"},
                           {AggSpec::Sum("minutes", "m"), AggSpec::Count("n")})
          .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->events_replayed, 0u);
  EXPECT_EQ(report->rows_replayed,
            late.group().GetChronicle(0).value()->total_appended());

  EXPECT_EQ(late.ScanView("minutes").value(),
            reference.ScanView("minutes").value());

  // The backfilled view keeps maintaining: more appends stay equivalent.
  AppendWorkload(&reference, 10);
  AppendWorkload(&late, 10);
  EXPECT_EQ(late.ScanView("minutes").value(),
            reference.ScanView("minutes").value());
}

TEST(Backfill, AllRetentionRow) {
  RunEquivalence(Tiering::kAllInMemory, /*columnar=*/false);
}
TEST(Backfill, AllRetentionColumnar) {
  RunEquivalence(Tiering::kAllInMemory, /*columnar=*/true);
}
TEST(Backfill, TieredRetentionRow) {
  RunEquivalence(Tiering::kTiered, /*columnar=*/false);
}
TEST(Backfill, TieredRetentionColumnar) {
  RunEquivalence(Tiering::kTiered, /*columnar=*/true);
}

TEST(Backfill, TieredSpillsActuallyHappened) {
  // Guard against the tiered variants silently degenerating to in-memory:
  // the workload must have pushed most rows into warm segments.
  ScratchDir dir("spillcheck");
  ChronicleDatabase db(MakeOptions(Tiering::kTiered, false, dir.path));
  ASSERT_TRUE(db.CreateChronicle("calls", CallRecordGenerator::RecordSchema(),
                                 PolicyFor(Tiering::kTiered))
                  .ok());
  AppendWorkload(&db, 120);
  ASSERT_NE(db.tiered_store(), nullptr);
  ASSERT_TRUE(db.DrainSeals().ok());
  EXPECT_GT(db.tiered_store()->HeldRows(0), 100u);

  CaExprPtr scan = db.ScanChronicle("calls").value();
  auto report = db.RegisterViewWithBackfill(
      "minutes", scan,
      SummarySpec::GroupBy(scan->schema(), {"caller"},
                           {AggSpec::Sum("minutes", "m"), AggSpec::Count("n")})
          .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Replayed rows came (mostly) from disk, not the hot window.
  EXPECT_GT(report->rows_replayed, db.tiered_store()->HeldRows(0));
}

TEST(Backfill, BackfillOnEmptyChronicleIsANoop) {
  ChronicleDatabase db;
  ASSERT_TRUE(
      db.CreateChronicle("calls", CallRecordGenerator::RecordSchema()).ok());
  CaExprPtr scan = db.ScanChronicle("calls").value();
  auto report = db.RegisterViewWithBackfill(
      "minutes", scan,
      SummarySpec::GroupBy(scan->schema(), {"caller"},
                           {AggSpec::Count("n")})
          .value());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->events_replayed, 0u);
  EXPECT_EQ(report->rows_replayed, 0u);
  EXPECT_TRUE(db.ScanView("minutes").value().empty());
}

TEST(Backfill, DiscardedHistoryFailsButViewStaysRegistered) {
  ChronicleDatabase db;
  ASSERT_TRUE(db.CreateChronicle("calls", CallRecordGenerator::RecordSchema(),
                                 RetentionPolicy::Window(5))
                  .ok());
  CallRecordGenerator gen;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.Append("calls", gen.NextBatch(1)).ok());
  }
  CaExprPtr scan = db.ScanChronicle("calls").value();
  auto report = db.RegisterViewWithBackfill(
      "minutes", scan,
      SummarySpec::GroupBy(scan->schema(), {"caller"},
                           {AggSpec::Count("n")})
          .value());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  // The view exists and is maintained from now on.
  ASSERT_TRUE(db.ScanView("minutes").ok());
  ASSERT_TRUE(db.Append("calls", gen.NextBatch(2)).ok());
  EXPECT_FALSE(db.ScanView("minutes").value().empty());
}

TEST(Backfill, ReportCountsDeltaRows) {
  ChronicleDatabase db;
  ASSERT_TRUE(
      db.CreateChronicle("calls", CallRecordGenerator::RecordSchema()).ok());
  AppendWorkload(&db, 40);
  CaExprPtr scan = db.ScanChronicle("calls").value();
  auto report = db.RegisterViewWithBackfill(
      "minutes", scan,
      SummarySpec::GroupBy(scan->schema(), {"caller"},
                           {AggSpec::Sum("minutes", "m")})
          .value());
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->delta_rows_applied, 0u);
  EXPECT_EQ(report->events_replayed, 40u);
}

}  // namespace
}  // namespace chronicle
