// TieredStore: hot→warm spill through the chronicle's tier sink, scans
// across both tiers, SN index lookups, budget-driven eviction, and
// adoption (recovery) of segments left by a previous store instance.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <vector>

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
  EXPECT_GT((*store)->WarmRows(id), 0u);
  EXPECT_EQ((*store)->WarmRows(id) + chron->retained().size(), 30u);

  // Oldest-first, gapless merged scan.
  std::vector<SeqNum> sns;
  ASSERT_TRUE(
      chron->ScanRetained([&](const ChronicleRow& r) { sns.push_back(r.sn); })
          .ok());
  ASSERT_EQ(sns.size(), 30u);
  for (size_t i = 0; i < sns.size(); ++i) EXPECT_EQ(sns[i], i + 1);

  const WarmTierInfo warm = (*store)->TierOf(id);
  EXPECT_EQ(warm.rows, (*store)->WarmRows(id));
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
  EXPECT_EQ(n, (*store)->WarmRows(id));
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
    warm_before = (*store)->WarmRows(id);
    ASSERT_GT(sealed_before, 0u);
  }
  // A new store instance (fresh process) adopts the files on disk.
  auto store = TieredStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AttachChronicle(0, "calls").ok());
  EXPECT_EQ((*store)->last_sealed_sn(0), sealed_before);
  EXPECT_EQ((*store)->WarmRows(0), warm_before);
  std::vector<SeqNum> sns;
  ASSERT_TRUE(
      (*store)
          ->ScanWarm(0, [&](const ChronicleRow& r) { sns.push_back(r.sn); })
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

TEST(TieredStore, OpenRejectsEmptyDataDir) {
  EXPECT_FALSE(TieredStore::Open(StorageOptions{}).ok());
}

}  // namespace
}  // namespace store
}  // namespace chronicle
