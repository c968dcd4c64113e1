// TieredStore: hot→warm spill through the chronicle's tier sink, scans
// across both tiers, SN index lookups, budget-driven eviction, and
// adoption (recovery) of segments left by a previous store instance, and
// the store's use of the io layer (directory syncs, seal failures). The
// background sealer: scans while batches are in flight, backpressure at
// the hot-tier cap, failed seals and their retry, and a recovery layout
// that does not depend on whether the sealer was drained.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/file.h"
#include "io/recording_fs.h"
#include "storage/chronicle_group.h"
#include "store/tiered_store.h"

namespace chronicle {
namespace store {
namespace {

namespace fs = std::filesystem;

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() /
              ("chronicle_tiered_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

Schema TwoColSchema() {
  return Schema({{"k", DataType::kInt64}, {"v", DataType::kString}});
}

StorageOptions SmallSegments(const std::string& dir) {
  StorageOptions options;
  options.data_dir = dir;
  options.hot_rows = 8;
  options.segment_rows = 4;
  return options;
}

// A group with one tiered chronicle attached to `store`; appends `n` rows.
ChronicleId SetUpTiered(ChronicleGroup* group, TieredStore* store,
                        const StorageOptions& options, int n) {
  ChronicleId id =
      group->CreateChronicle("calls", TwoColSchema(),
                             RetentionPolicy::Tiered(options.hot_rows))
          .value();
  EXPECT_TRUE(store->AttachChronicle(id, "calls").ok());
  Chronicle* chron = group->GetChronicle(id).value();
  chron->AttachTierSink(store, options.segment_rows);
  for (int i = 1; i <= n; ++i) {
    std::string label = "v";
    label += std::to_string(i);
    EXPECT_TRUE(group->Append(id, {Tuple{Value(i), Value(label)}}).ok());
  }
  EXPECT_TRUE(store->Drain().ok());
  return id;
}

TEST(TieredStore, SpillsPastHotWindowIntoSegments) {
  ScratchDir dir("spill");
  const StorageOptions options = SmallSegments(dir.path);
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ChronicleGroup group("g");
  ChronicleId id = SetUpTiered(&group, store->get(), options, 30);

  const Chronicle* chron = group.GetChronicle(id).value();
  // All 30 rows retained; only the hot window lives in memory.
  EXPECT_EQ(chron->num_retained(), 30u);
  EXPECT_LE(chron->retained().size(), options.hot_rows + options.segment_rows);
  EXPECT_GT((*store)->HeldRows(id), 0u);
  EXPECT_EQ((*store)->HeldRows(id) + chron->retained().size(), 30u);

  // Oldest-first, gapless merged scan.
  std::vector<SeqNum> sns;
  ASSERT_TRUE(
      chron->ScanRetained([&](const ChronicleRow& r) { sns.push_back(r.sn); })
          .ok());
  ASSERT_EQ(sns.size(), 30u);
  for (size_t i = 0; i < sns.size(); ++i) EXPECT_EQ(sns[i], i + 1);

  const WarmTierInfo warm = (*store)->TierOf(id);
  EXPECT_EQ(warm.rows, (*store)->HeldRows(id));
  EXPECT_GT(warm.segments, 0u);
  EXPECT_GT(warm.bytes, 0u);
  EXPECT_GT(warm.raw_bytes, warm.bytes);  // encoding beats in-memory layout
  EXPECT_EQ(warm.last_sealed_sn, (*store)->last_sealed_sn(id));
}

TEST(TieredStore, DedupGuardSuppressesRecoveryReplay) {
  ScratchDir dir("dedup");
  const StorageOptions options = SmallSegments(dir.path);
  SeqNum sealed = 0;
  {
    auto store = TieredStore::Open(options);
    ASSERT_TRUE(store.ok());
    ChronicleGroup group("g");
    ChronicleId id = SetUpTiered(&group, store->get(), options, 30);
    sealed = (*store)->last_sealed_sn(id);
    ASSERT_GT(sealed, 0u);
  }
  // "Recovery": a fresh group replays the same 30 appends against a store
  // that already holds the sealed prefix. The dedup guard must drop the
  // replayed rows at or below last_sealed_sn instead of duplicating them.
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ChronicleGroup group("g");
  ChronicleId id = SetUpTiered(&group, store->get(), options, 30);
  const Chronicle* chron = group.GetChronicle(id).value();
  EXPECT_EQ(chron->num_retained(), 30u);
  std::vector<SeqNum> sns;
  ASSERT_TRUE(
      chron->ScanRetained([&](const ChronicleRow& r) { sns.push_back(r.sn); })
          .ok());
  ASSERT_EQ(sns.size(), 30u);
  for (size_t i = 0; i < sns.size(); ++i) EXPECT_EQ(sns[i], i + 1);
  EXPECT_GE((*store)->last_sealed_sn(id), sealed);
}

TEST(TieredStore, FindSegmentForLocatesCoveringSegment) {
  ScratchDir dir("find");
  const StorageOptions options = SmallSegments(dir.path);
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ChronicleGroup group("g");
  ChronicleId id = SetUpTiered(&group, store->get(), options, 30);

  const SeqNum sealed = (*store)->last_sealed_sn(id);
  for (SeqNum sn = 1; sn <= sealed; ++sn) {
    const SegmentReader* seg = (*store)->FindSegmentFor(id, sn);
    ASSERT_NE(seg, nullptr) << "sn=" << sn;
    EXPECT_LE(seg->header().base_sn, sn);
    EXPECT_GE(seg->header().last_sn, sn);
  }
  EXPECT_EQ((*store)->FindSegmentFor(id, sealed + 1), nullptr);
  EXPECT_EQ((*store)->FindSegmentFor(id + 99, 1), nullptr);
}

TEST(TieredStore, WarmCursorStreamsOldestFirst) {
  ScratchDir dir("cursor");
  const StorageOptions options = SmallSegments(dir.path);
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ChronicleGroup group("g");
  ChronicleId id = SetUpTiered(&group, store->get(), options, 30);

  TieredStore::WarmCursor cursor = (*store)->OpenWarmCursor(id);
  ChronicleRow row;
  SeqNum prev = 0;
  uint64_t n = 0;
  while (true) {
    auto more = cursor.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_GE(row.sn, prev);
    prev = row.sn;
    ++n;
  }
  EXPECT_EQ(n, (*store)->HeldRows(id));
}

TEST(TieredStore, EvictionRespectsBudgetAndKeepsNewestSegment) {
  ScratchDir dir("evict");
  StorageOptions options = SmallSegments(dir.path);
  options.warm_budget_segments = 2;
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ChronicleGroup group("g");
  ChronicleId id = SetUpTiered(&group, store->get(), options, 60);

  const WarmTierInfo warm = (*store)->TierOf(id);
  EXPECT_LE(warm.segments, 2u);
  EXPECT_GE(warm.segments, 1u);  // the newest segment is never evicted
  EXPECT_GT((*store)->counters().segments_evicted, 0u);
  EXPECT_GT((*store)->counters().rows_evicted, 0u);
  // Retention is a policy: evicted rows are gone, retained count shrinks.
  const Chronicle* chron = group.GetChronicle(id).value();
  EXPECT_LT(chron->num_retained(), 60u);
  // last_sealed_sn is unaffected by eviction.
  EXPECT_EQ((*store)->last_sealed_sn(id), warm.last_sealed_sn);
}

TEST(TieredStore, ReopenAdoptsSealedSegments) {
  ScratchDir dir("reopen");
  const StorageOptions options = SmallSegments(dir.path);
  SeqNum sealed_before = 0;
  uint64_t warm_before = 0;
  {
    auto store = TieredStore::Open(options);
    ASSERT_TRUE(store.ok());
    ChronicleGroup group("g");
    ChronicleId id = SetUpTiered(&group, store->get(), options, 30);
    sealed_before = (*store)->last_sealed_sn(id);
    warm_before = (*store)->HeldRows(id);
    ASSERT_GT(sealed_before, 0u);
  }
  // A new store instance (fresh process) adopts the files on disk.
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AttachChronicle(0, "calls").ok());
  EXPECT_EQ((*store)->last_sealed_sn(0), sealed_before);
  EXPECT_EQ((*store)->HeldRows(0), warm_before);
  std::vector<SeqNum> sns;
  ASSERT_TRUE(
      (*store)
          ->ScanHeld(0, [&](const ChronicleRow& r) { sns.push_back(r.sn); })
          .ok());
  EXPECT_EQ(sns.size(), warm_before);
  for (size_t i = 1; i < sns.size(); ++i) EXPECT_GE(sns[i], sns[i - 1]);
  // Adoption must not disturb the files themselves: nothing quarantined,
  // every segment still has its .seg name.
  EXPECT_EQ((*store)->counters().segments_quarantined, 0u);
  size_t seg_files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path + "/calls")) {
    EXPECT_EQ(entry.path().extension(), ".seg") << entry.path();
    ++seg_files;
  }
  EXPECT_EQ(seg_files, (*store)->TierOf(0).segments);
}

TEST(TieredStore, SealNeverSplitsOneSn) {
  ScratchDir dir("nosplit");
  StorageOptions options = SmallSegments(dir.path);
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ChronicleGroup group("g");
  ChronicleId id =
      group.CreateChronicle("calls", TwoColSchema(),
                            RetentionPolicy::Tiered(options.hot_rows))
          .value();
  ASSERT_TRUE((*store)->AttachChronicle(id, "calls").ok());
  Chronicle* chron = group.GetChronicle(id).value();
  chron->AttachTierSink(store->get(), options.segment_rows);
  // Each tick appends 3 rows under ONE SN; batch sizes never divide evenly
  // into segment_rows, so the no-split rule must stretch segments.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(group
                    .Append(id, {Tuple{Value(i), Value("a")},
                                 Tuple{Value(i), Value("b")},
                                 Tuple{Value(i), Value("c")}})
                    .ok());
  }
  ASSERT_TRUE((*store)->Drain().ok());
  // No SN may appear in two segments: each segment's base_sn must be
  // strictly greater than the previous segment's last_sn.
  const SeqNum sealed = (*store)->last_sealed_sn(id);
  ASSERT_GT(sealed, 0u);
  SeqNum prev_last = 0;
  for (SeqNum sn = 1; sn <= sealed; ++sn) {
    const SegmentReader* seg = (*store)->FindSegmentFor(id, sn);
    ASSERT_NE(seg, nullptr);
    if (seg->header().base_sn == sn) {
      EXPECT_GT(sn, prev_last);
      prev_last = seg->header().last_sn;
    }
  }
}

// Satellite of the warm-tier accounting: adoption totals raw_bytes during
// validation, and must land on exactly what sealing counted.
TEST(TieredStore, ReopenKeepsWarmByteCounts) {
  ScratchDir dir("bytes");
  const StorageOptions options = SmallSegments(dir.path);
  WarmTierInfo before;
  {
    auto store = TieredStore::Open(options);
    ASSERT_TRUE(store.ok());
    ChronicleGroup group("g");
    ChronicleId id = group
                         .CreateChronicle("calls", TwoColSchema(),
                                          RetentionPolicy::Tiered(8))
                         .value();
    ASSERT_TRUE((*store)->AttachChronicle(id, "calls").ok());
    group.GetChronicle(id).value()->AttachTierSink(store->get(), 4);
    for (int i = 1; i <= 40; ++i) {
      // Short (inline) and long (heap) strings, in a tuple built with
      // spare capacity, as an ingest path may hand them over.
      Tuple row;
      row.reserve(4);
      row.push_back(Value(i));
      row.push_back(Value(std::string(i % 2 == 0 ? 3 : 40, 'x')));
      ASSERT_TRUE(group.Append(id, {std::move(row)}).ok());
    }
    ASSERT_TRUE((*store)->Drain().ok());
    before = (*store)->TierOf(id);
    ASSERT_GT(before.segments, 0u);
  }
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AttachChronicle(0, "calls").ok());
  const WarmTierInfo after = (*store)->TierOf(0);
  EXPECT_EQ(after.segments, before.segments);
  EXPECT_EQ(after.rows, before.rows);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.raw_bytes, before.raw_bytes);
}

// Regression: a new tier directory's entry was never synced into its
// parent, so a crash could drop the directory with every sealed segment.
TEST(TieredStore, NewTierDirectoryIsSyncedIntoItsParent) {
  ScratchDir dir("dirsync");
  io::RecordingFileSystem recorder;
  io::ScopedFileSystem scoped(&recorder);
  StorageOptions options = SmallSegments(dir.path + "/store");
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AttachChronicle(0, "calls").ok());
  using K = io::FileOp::Kind;
  std::vector<std::pair<K, std::string>> got;
  for (const io::FileOp& op : recorder.ops()) {
    got.emplace_back(op.kind, op.path);
  }
  const std::vector<std::pair<K, std::string>> want = {
      {K::kMakeDir, options.data_dir},
      {K::kSyncDir, dir.path},
      {K::kMakeDir, options.data_dir + "/calls"},
      {K::kSyncDir, options.data_dir}};
  EXPECT_EQ(got, want);
}

TEST(TieredStore, FailedDirectorySyncFailsTheSeal) {
  ScratchDir dir("seal_dirsync");
  const StorageOptions options = SmallSegments(dir.path);
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AttachChronicle(0, "calls").ok());
  std::vector<ChronicleRow> rows;
  for (int i = 1; i <= 4; ++i) {
    rows.push_back({static_cast<SeqNum>(i), Tuple{Value(i), Value("v")}});
  }
  io::FaultPlan plan;
  plan.kind = io::FaultKind::kFailDirSync;
  plan.path_contains = dir.path + "/calls";
  io::RecordingFileSystem faulty(plan);
  {
    io::ScopedFileSystem scoped(&faulty);
    (*store)->HandOff(0, rows, 0);
    EXPECT_TRUE((*store)->Drain().IsDataLoss());
  }
  EXPECT_TRUE(faulty.fault_triggered());
  EXPECT_EQ((*store)->counters().seal_failures, 1u);
  EXPECT_EQ((*store)->counters().segments_sealed, 0u);
  EXPECT_EQ((*store)->last_sealed_sn(0), 0u);
  // The retry, with a healthy disk, seals the same rows.
  ASSERT_TRUE((*store)->Drain().ok());
  EXPECT_EQ((*store)->last_sealed_sn(0), 4u);
  EXPECT_EQ((*store)->counters().seal_failures, 1u);
}

// Regression: a quarantine whose rename failed was counted anyway.
TEST(TieredStore, QuarantineCountsOnlyRenamesThatSucceed) {
  ScratchDir dir("quarantine");
  const StorageOptions options = SmallSegments(dir.path);
  const std::string seg = dir.path + "/calls/" + SegmentFileName(1);
  fs::create_directories(dir.path + "/calls");
  ASSERT_TRUE(io::AtomicWriteFile(seg, "not a segment").ok());
  // A directory squats on the quarantine name, so the rename fails.
  fs::create_directories(seg + ".quarantined/squatter");
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AttachChronicle(0, "calls").ok());
  EXPECT_EQ((*store)->counters().segments_quarantined, 0u);
  EXPECT_EQ((*store)->HeldRows(0), 0u);
  fs::remove_all(seg + ".quarantined");
  auto retry = TieredStore::Open(options);
  ASSERT_TRUE(retry.ok());
  ASSERT_TRUE((*retry)->AttachChronicle(0, "calls").ok());
  EXPECT_EQ((*retry)->counters().segments_quarantined, 1u);
  EXPECT_TRUE(fs::exists(seg + ".quarantined"));
}

// Every retained row, oldest first, must be SN 1..n exactly once.
void ExpectContiguous(const Chronicle& chron, SeqNum n) {
  std::vector<SeqNum> sns;
  ASSERT_TRUE(
      chron.ScanRetained([&](const ChronicleRow& r) { sns.push_back(r.sn); })
          .ok());
  ASSERT_EQ(sns.size(), n);
  for (size_t i = 0; i < sns.size(); ++i) ASSERT_EQ(sns[i], i + 1);
  EXPECT_EQ(chron.num_retained(), n);
}

constexpr SeqNum kAllDurable = std::numeric_limits<SeqNum>::max();

TEST(TieredStore, ScansDuringInFlightSealsSeeEachRowOnce) {
  ScratchDir dir("inflight");
  const StorageOptions options = SmallSegments(dir.path);
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  // Nothing is durable yet: every batch waits in flight.
  (*store)->SetDurableSn(0);
  ChronicleGroup group("g");
  ChronicleId id =
      group.CreateChronicle("calls", TwoColSchema(),
                            RetentionPolicy::Tiered(options.hot_rows))
          .value();
  ASSERT_TRUE((*store)->AttachChronicle(id, "calls").ok());
  Chronicle* chron = group.GetChronicle(id).value();
  chron->AttachTierSink(store->get(), options.segment_rows);
  const int n = 14;  // hands off 4 rows at 12; below the cap of 16
  for (int i = 1; i <= n; ++i) {
    ASSERT_TRUE(group.Append(id, {Tuple{Value(i), Value("v")}}).ok());
  }
  EXPECT_EQ((*store)->TierOf(id).in_flight_rows, 4u);
  EXPECT_EQ((*store)->TierOf(id).rows, 0u);
  EXPECT_EQ(chron->retained().size(), 10u);
  ExpectContiguous(*chron, n);

  // Let the sealer publish while scans run: each scan sees every row once.
  (*store)->SetDurableSn(kAllDurable);
  int scans = 0;
  while ((*store)->TierOf(id).in_flight_rows > 0) {
    ExpectContiguous(*chron, n);
    ++scans;
  }
  ExpectContiguous(*chron, n);
  ASSERT_TRUE((*store)->Drain().ok());
  EXPECT_EQ((*store)->TierOf(id).rows, 4u);
  EXPECT_EQ((*store)->TierOf(id).segments, 1u);
  std::printf("[inflight] %d scans while seals were in flight\n", scans);
}

TEST(TieredStore, HotTierCapPushesBackOnIngest) {
  ScratchDir dir("cap");
  const StorageOptions options = SmallSegments(dir.path);
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  TieredStore* raw = store->get();
  raw->SetDurableSn(0);
  // The barrier stands in for a log sync on the appending thread.
  std::atomic<int> barriers{0};
  raw->SetDurabilityBarrier([&] {
    ++barriers;
    raw->SetDurableSn(kAllDurable);
    return Status::OK();
  });
  ChronicleGroup group("g");
  ChronicleId id =
      group.CreateChronicle("calls", TwoColSchema(),
                            RetentionPolicy::Tiered(options.hot_rows))
          .value();
  ASSERT_TRUE(raw->AttachChronicle(id, "calls").ok());
  Chronicle* chron = group.GetChronicle(id).value();
  chron->AttachTierSink(raw, options.segment_rows);
  // Hand-offs at 12 and 16 rows; the second brings hot + in flight to the
  // cap of twice the window (16), and the append waits for the sealer.
  for (int i = 1; i <= 15; ++i) {
    ASSERT_TRUE(group.Append(id, {Tuple{Value(i), Value("v")}}).ok());
  }
  EXPECT_EQ(barriers.load(), 0);
  EXPECT_EQ(raw->counters().cap_wait.count(), 0u);
  EXPECT_EQ(raw->TierOf(id).in_flight_rows, 4u);
  ASSERT_TRUE(group.Append(id, {Tuple{Value(16), Value("v")}}).ok());
  EXPECT_EQ(barriers.load(), 1);
  EXPECT_EQ(raw->counters().cap_wait.count(), 1u);
  // The wait returned only once nothing was in flight.
  EXPECT_EQ(raw->TierOf(id).in_flight_rows, 0u);
  EXPECT_EQ(raw->TierOf(id).rows, 8u);
  EXPECT_LE(chron->retained().size() + raw->TierOf(id).in_flight_rows,
            2 * options.hot_rows);
  ExpectContiguous(*chron, 16);
}

TEST(TieredStore, FailedFsyncKeepsRowsReadableAndRetries) {
  ScratchDir dir("failsync");
  const StorageOptions options = SmallSegments(dir.path);
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ChronicleGroup group("g");
  ChronicleId id =
      group.CreateChronicle("calls", TwoColSchema(),
                            RetentionPolicy::Tiered(options.hot_rows))
          .value();
  ASSERT_TRUE((*store)->AttachChronicle(id, "calls").ok());
  Chronicle* chron = group.GetChronicle(id).value();
  chron->AttachTierSink(store->get(), options.segment_rows);

  io::FaultPlan plan;
  plan.kind = io::FaultKind::kFailSync;
  plan.path_contains = dir.path + "/calls";
  io::RecordingFileSystem faulty(plan);
  {
    io::ScopedFileSystem scoped(&faulty);
    for (int i = 1; i <= 12; ++i) {  // one hand-off
      ASSERT_TRUE(group.Append(id, {Tuple{Value(i), Value("v")}}).ok());
    }
    EXPECT_TRUE((*store)->Drain().IsDataLoss());
    EXPECT_EQ((*store)->counters().seal_failures, 1u);
    EXPECT_EQ((*store)->counters().segments_sealed, 0u);
    EXPECT_EQ((*store)->TierOf(id).in_flight_rows, 4u);
    ExpectContiguous(*chron, 12);
    // The next hand-off retries the failed batch, and fails again.
    for (int i = 13; i <= 16; ++i) {
      ASSERT_TRUE(group.Append(id, {Tuple{Value(i), Value("v")}}).ok());
    }
    EXPECT_TRUE((*store)->Drain().IsDataLoss());
    EXPECT_GE((*store)->counters().seal_failures, 2u);
    EXPECT_EQ((*store)->TierOf(id).in_flight_rows, 8u);
    ExpectContiguous(*chron, 16);
  }
  EXPECT_TRUE(faulty.fault_triggered());
  EXPECT_EQ((*store)->last_sealed_sn(id), 0u);
  // A healthy disk: the retry seals both batches in order.
  ASSERT_TRUE((*store)->Drain().ok());
  EXPECT_EQ((*store)->last_sealed_sn(id), 8u);
  EXPECT_EQ((*store)->TierOf(id).in_flight_rows, 0u);
  EXPECT_EQ((*store)->TierOf(id).segments, 2u);
  ExpectContiguous(*chron, 16);
}

// Name and bytes of every segment file under `dir`.
std::map<std::string, std::string> SegmentFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

TEST(TieredStore, RecoveryLayoutDoesNotDependOnDraining) {
  const StorageOptions base = SmallSegments("");
  auto run = [&](const std::string& name, bool drain) {
    ScratchDir dir(name);
    StorageOptions options = base;
    options.data_dir = dir.path;
    {
      auto store = TieredStore::Open(options);
      EXPECT_TRUE(store.ok());
      ChronicleGroup group("g");
      ChronicleId id =
          group.CreateChronicle("calls", TwoColSchema(),
                                RetentionPolicy::Tiered(options.hot_rows))
              .value();
      EXPECT_TRUE((*store)->AttachChronicle(id, "calls").ok());
      group.GetChronicle(id).value()->AttachTierSink(store->get(),
                                                     options.segment_rows);
      // Undrained: the log never became durable past SN 5, so the store
      // closes with batches in flight and drops them, as a crash would.
      if (!drain) (*store)->SetDurableSn(5);
      for (int i = 1; i <= 30; ++i) {  // the stream SetUpTiered replays
        std::string label = "v";
        label += std::to_string(i);
        EXPECT_TRUE(group.Append(id, {Tuple{Value(i), Value(label)}}).ok());
      }
      if (drain) {
        EXPECT_TRUE((*store)->Drain().ok());
      }
    }
    if (!drain) {
      // The write-ahead rule: only the batch the log covers (SNs 1-4) was
      // sealed; the store's close dropped the rest.
      const auto sealed = SegmentFiles(dir.path + "/calls");
      EXPECT_EQ(sealed.size(), 1u);
      EXPECT_EQ(sealed.count(SegmentFileName(1)), 1u);
    }
    // Recovery: a fresh store adopts the segments and the stream replays.
    auto store = TieredStore::Open(options);
    EXPECT_TRUE(store.ok());
    ChronicleGroup group("g");
    ChronicleId id = SetUpTiered(&group, store->get(), options, 30);
    ExpectContiguous(*group.GetChronicle(id).value(), 30);
    return SegmentFiles(dir.path + "/calls");
  };
  const auto drained = run("layout_drained", true);
  const auto undrained = run("layout_undrained", false);
  EXPECT_FALSE(drained.empty());
  EXPECT_EQ(drained, undrained);
}

TEST(TieredStore, OpenRejectsEmptyDataDir) {
  EXPECT_FALSE(TieredStore::Open(StorageOptions{}).ok());
}

}  // namespace
}  // namespace store
}  // namespace chronicle
