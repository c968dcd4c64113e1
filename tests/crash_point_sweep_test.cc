// Crash-point sweep: every durable operation of a scripted workload is a
// crash point, and recovery must succeed from each one.
//
// Each case runs its workload once through io::RecordingFileSystem, which
// logs the ordered durable operations (creates, appends, file and
// directory fsyncs, mkdirs, renames, removes). A crash model replays that
// log; for every operation index k it writes the directory a crash just
// before op k could leave into a fresh check directory, recovers it, and
// checks the result. The crash states:
//
//   strict — each file holds only the bytes a completed fsync covered, and
//            a create, mkdir, rename or remove persists only if a later
//            fsync of its directory covered it;
//   issued — every operation before k took effect;
//   torn   — issued, plus the first half of op k when it is an append.
//
// The oracle: recovery succeeds, and every engine (the single engine, or
// each of the four shards) recovers some prefix P of its issued appends
// such that
//
//   * every view equals NaiveEngine over P;
//   * the retained hot and warm rows are exactly P's rows, SNs contiguous;
//   * P holds every append whose WAL record a completed fsync covered
//     before k, and no append whose record was not yet issued;
//   * (4 shards) the merged read equals the union of the per-shard states;
//
// and the log reopens for new appends. A failure names the case, k, the
// operation at k, the crash state and the first violated check.
//
// Segments are sealed on each store's background sealer thread. The
// recorder is process-wide and thread-safe, so the log interleaves the
// sealer's operations with the appending thread's in the order they
// happened; both scripts check that they sealed segments at all.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "baseline/naive_engine.h"
#include "io/file.h"
#include "io/recording_fs.h"
#include "shard/partitioner.h"
#include "shard/sharded_db.h"
#include "wal/recovery.h"
#include "wal/wal.h"
#include "wal/wal_record.h"
#include "workload/call_records.h"

namespace chronicle {
namespace {

namespace fs = std::filesystem;
using io::FileOp;

// --- the workloads ---

constexpr size_t kHotRows = 8;
constexpr size_t kSegmentRows = 4;
constexpr size_t kShards = 4;
constexpr int kSingleAppends = 56;
constexpr int kShardedBatches = 30;
const char* const kViews[] = {"by_caller", "by_region"};
const char* const kViewKeys[] = {"caller", "region"};

// One engine's appends in SN order (append i is SN i + 1).
using Ticks = std::vector<std::vector<Tuple>>;

struct Recording {
  std::vector<FileOp> ops;
  std::vector<Ticks> ticks;  // per engine
};

DatabaseOptions Options(const std::string& root, size_t shards) {
  DatabaseOptions options;
  options.storage.data_dir = root + "/store";
  options.storage.hot_rows = kHotRows;
  options.storage.segment_rows = kSegmentRows;
  if (shards > 1) {
    options.sharding.num_shards = shards;
    options.sharding.partition_key = "caller";
    options.sharding.wal_dir = root + "/wal";
  }
  return options;
}

// Group commit every few records and a rotation every few group commits,
// so the single-engine log syncs and rotates many times.
wal::WalOptions SingleWalOptions() {
  wal::WalOptions options;
  options.fsync = wal::FsyncPolicy::kBatch;
  options.group_commit_bytes = 300;
  options.segment_bytes = 1024;
  return options;
}

CallRecordGenerator Generator() {
  CallRecordOptions options;
  options.num_accounts = 16;  // groups repeat, so views fold many rows
  options.num_regions = 4;
  options.seed = 7;
  return CallRecordGenerator(options);
}

SummarySpec MinutesBy(const Schema& schema, int view) {
  return SummarySpec::GroupBy(schema, {kViewKeys[view]},
                              {AggSpec::Sum("minutes", "m"),
                               AggSpec::Count("n")})
      .value();
}

Status CreateEngineSchema(ChronicleDatabase* db, RetentionPolicy retention) {
  CHRONICLE_RETURN_NOT_OK(db->CreateChronicle(
                                "calls", CallRecordGenerator::RecordSchema(),
                                retention)
                              .status());
  for (int v = 0; v < 2; ++v) {
    CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr scan, db->ScanChronicle("calls"));
    CHRONICLE_RETURN_NOT_OK(
        db->CreateView(kViews[v], scan, MinutesBy(scan->schema(), v))
            .status());
  }
  return Status::OK();
}

Status CreateShardedSchema(shard::ShardedDatabase* db) {
  const Schema schema = CallRecordGenerator::RecordSchema();
  CHRONICLE_RETURN_NOT_OK(
      db->CreateChronicle("calls", schema, RetentionPolicy::Tiered(kHotRows))
          .status());
  for (int v = 0; v < 2; ++v) {
    CHRONICLE_RETURN_NOT_OK(
        db->CreateView(
              kViews[v],
              [](ChronicleDatabase& e) { return e.ScanChronicle("calls"); },
              MinutesBy(schema, v))
            .status());
  }
  return Status::OK();
}

// Segment files a recording sealed (the rename that publishes each).
size_t SegmentsSealed(const std::vector<FileOp>& ops) {
  size_t sealed = 0;
  for (const FileOp& op : ops) {
    if (op.kind == FileOp::Kind::kRename && op.target.size() > 4 &&
        op.target.compare(op.target.size() - 4, 4, ".seg") == 0) {
      ++sealed;
    }
  }
  return sealed;
}

// Single engine: WAL group commit and rotation, RETAIN HOT sealing in the
// background, and WAL checkpoints taken while batches may be in flight
// (the third prunes the first and truncates the log), each followed by
// more appends.
Recording RecordSingle(const std::string& root) {
  Recording rec;
  rec.ticks.resize(1);
  io::RecordingFileSystem recorder;
  {
    io::ScopedFileSystem scoped(&recorder);
    auto wal = wal::Wal::Open(root + "/wal", SingleWalOptions());
    EXPECT_TRUE(wal.ok()) << wal.status().ToString();
    if (!wal.ok()) return rec;
    ChronicleDatabase db(Options(root, 1));
    EXPECT_TRUE(
        CreateEngineSchema(&db, RetentionPolicy::Tiered(kHotRows)).ok());
    wal::WalMutationLog log(wal->get(), &db);
    db.AttachMutationLog(&log);
    CallRecordGenerator gen = Generator();
    for (int i = 0; i < kSingleAppends; ++i) {
      std::vector<Tuple> batch = gen.NextBatch(1 + i % 3);
      rec.ticks[0].push_back(batch);
      EXPECT_TRUE(db.Append("calls", std::move(batch)).ok());
      if (i == 18 || i == 32 || i == 44) {
        EXPECT_TRUE((*wal)->WriteCheckpoint(db).ok());
      }
    }
    EXPECT_TRUE((*wal)->Close().ok());
    db.DetachMutationLog();
  }
  rec.ops = recorder.ops();
  EXPECT_GT(SegmentsSealed(rec.ops), 0u);
  return rec;
}

// Four shards: per-shard WALs (default group commit: each shard syncs at
// the hot-tier cap and at close) and per-shard background sealing, fed by
// the async pipeline's shard workers.
Recording RecordSharded(const std::string& root) {
  Recording rec;
  rec.ticks.resize(kShards);
  const shard::Partitioner partitioner =
      shard::Partitioner::Make(CallRecordGenerator::RecordSchema(), "caller",
                               kShards)
          .value();
  io::RecordingFileSystem recorder;
  {
    io::ScopedFileSystem scoped(&recorder);
    auto db = shard::ShardedDatabase::Open(Options(root, kShards));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    if (!db.ok()) return rec;
    EXPECT_TRUE(CreateShardedSchema(db->get()).ok());
    EXPECT_TRUE((*db)->AttachWals().ok());
    EXPECT_TRUE((*db)->StartIngest(1).ok());
    CallRecordGenerator gen = Generator();
    for (int i = 0; i < kShardedBatches; ++i) {
      std::vector<Tuple> batch = gen.NextBatch(1 + i % 7);
      std::vector<std::vector<Tuple>> split = partitioner.Split(batch);
      for (size_t k = 0; k < kShards; ++k) {
        if (!split[k].empty()) rec.ticks[k].push_back(std::move(split[k]));
      }
      EXPECT_TRUE((*db)->EnqueueAppend(0, "calls", std::move(batch)).ok());
    }
    EXPECT_TRUE((*db)->StopIngest().ok());
    EXPECT_TRUE((*db)->CloseWals().ok());
  }
  rec.ops = recorder.ops();
  EXPECT_GT(SegmentsSealed(rec.ops), 0u);
  return rec;
}

// --- the crash model ---

std::string DirOf(const std::string& path) { return io::DirName(path); }
std::string NameOf(const std::string& path) {
  return path.substr(path.find_last_of('/') + 1);
}

// Replays recorded operations into two views of one file tree: what the
// operations issued so far did, and what a completed fsync made durable.
class CrashModel {
 public:
  // `root` existed (durably) before the first recorded operation.
  explicit CrashModel(std::string root) : root_(std::move(root)) {
    dirs_[root_];
  }

  void Apply(const FileOp& op) {
    switch (op.kind) {
      case FileOp::Kind::kCreate:
        files_.emplace_back();
        Live(op.path) = Entry{false, files_.size() - 1};
        break;
      case FileOp::Kind::kAppend:
        files_[FileAt(op.path)].issued += op.data;
        break;
      case FileOp::Kind::kSync: {
        File& f = files_[FileAt(op.path)];
        f.durable = f.issued;
        break;
      }
      case FileOp::Kind::kMakeDir:
        Live(op.path) = Entry{true, 0};
        dirs_[op.path];
        break;
      case FileOp::Kind::kSyncDir: {
        Dir& d = dirs_.at(op.path);
        d.durable = d.live;
        break;
      }
      case FileOp::Kind::kRename: {
        const Entry moved = Live(op.path);
        dirs_.at(DirOf(op.path)).live.erase(NameOf(op.path));
        Live(op.target) = moved;
        break;
      }
      case FileOp::Kind::kRemove:
        dirs_.at(DirOf(op.path)).live.erase(NameOf(op.path));
        break;
    }
  }

  // Writes the tree into `out` (a fresh directory standing in for root).
  void Materialize(bool strict, const std::string& out) const {
    fs::remove_all(out);
    fs::create_directories(out);
    Write(root_, out, strict);
  }

  // `path` (under root) mapped into a materialized copy at `out`.
  std::string MapTo(const std::string& path, const std::string& out) const {
    return out + path.substr(root_.size());
  }

 private:
  struct Entry {
    bool dir = false;
    size_t file = 0;  // index into files_ when !dir
  };
  struct Dir {
    std::map<std::string, Entry> live, durable;
  };
  struct File {
    std::string issued, durable;
  };

  Entry& Live(const std::string& path) {
    return dirs_.at(DirOf(path)).live[NameOf(path)];
  }
  size_t FileAt(const std::string& path) {
    return dirs_.at(DirOf(path)).live.at(NameOf(path)).file;
  }

  void Write(const std::string& dir, const std::string& out,
             bool strict) const {
    const Dir& d = dirs_.at(dir);
    for (const auto& [name, entry] : strict ? d.durable : d.live) {
      const std::string target = out + "/" + name;
      if (entry.dir) {
        fs::create_directory(target);
        Write(dir + "/" + name, target, strict);
      } else {
        const File& f = files_[entry.file];
        std::ofstream(target, std::ios::binary)
            << (strict ? f.durable : f.issued);
      }
    }
  }

  std::string root_;
  std::map<std::string, Dir> dirs_;
  std::vector<File> files_;
};

// Follows the WAL frames inside the recorded appends to bound each
// engine's recoverable prefix: `issued` is the last SN whose record was
// fully appended, `synced` the last SN a completed fsync covered.
class WalTracker {
 public:
  explicit WalTracker(size_t engines) : issued_(engines), synced_(engines) {}

  void Apply(const FileOp& op) {
    const std::string name = NameOf(op.path);
    if (name.rfind("wal-", 0) != 0) return;
    if (op.kind == FileOp::Kind::kCreate) {
      const size_t shard = op.path.find("/shard-");
      logs_[op.path].engine = shard == std::string::npos
                                  ? 0
                                  : std::stoul(op.path.substr(shard + 7));
    } else if (op.kind == FileOp::Kind::kAppend) {
      Log& log = logs_.at(op.path);
      log.bytes += op.data;
      while (log.bytes.size() >= log.parsed + 8) {  // [len][crc][payload]
        uint32_t len = 0;
        std::memcpy(&len, log.bytes.data() + log.parsed, 4);
        if (log.bytes.size() < log.parsed + 8 + len) break;
        auto record =
            wal::DecodeWalRecord(log.bytes.substr(log.parsed + 8, len));
        EXPECT_TRUE(record.ok());
        if (record.ok() && record->type == wal::WalRecordType::kAppend) {
          log.last_sn = record->sn;
          issued_[log.engine] = record->sn;
        }
        log.parsed += 8 + len;
      }
    } else if (op.kind == FileOp::Kind::kSync) {
      const Log& log = logs_.at(op.path);
      synced_[log.engine] = std::max(synced_[log.engine], log.last_sn);
    }
  }

  const std::vector<SeqNum>& issued() const { return issued_; }
  const std::vector<SeqNum>& synced() const { return synced_; }

 private:
  struct Log {
    size_t engine = 0;
    std::string bytes;
    size_t parsed = 16;  // past the segment header
    SeqNum last_sn = 0;
  };
  std::map<std::string, Log> logs_;
  std::vector<SeqNum> issued_, synced_;
};

// --- the oracle ---

struct EngineOracle {
  std::vector<std::vector<std::vector<Tuple>>> views;  // [n][view], sorted
  std::vector<ChronicleRow> rows;  // every row, SN order
  std::vector<size_t> rows_upto;   // rows of the first n appends
};

EngineOracle BuildOracle(const Ticks& ticks) {
  EngineOracle oracle;
  ChronicleDatabase ref;
  EXPECT_TRUE(CreateEngineSchema(&ref, RetentionPolicy::All()).ok());
  NaiveEngine naive(&ref.group());
  CaExprPtr scan = ref.ScanChronicle("calls").value();
  for (size_t n = 0; n <= ticks.size(); ++n) {
    if (n > 0) {
      EXPECT_TRUE(ref.Append("calls", ticks[n - 1]).ok());
      for (const Tuple& t : ticks[n - 1]) oracle.rows.push_back({n, t});
    }
    oracle.rows_upto.push_back(oracle.rows.size());
    oracle.views.emplace_back();
    for (int v = 0; v < 2; ++v) {
      oracle.views.back().push_back(
          naive.EvaluateSummary(*scan, MinutesBy(scan->schema(), v)).value());
    }
  }
  return oracle;
}

// Checks one recovered engine against its oracle; "" when it holds.
std::string CheckEngine(const ChronicleDatabase& db,
                        const EngineOracle& oracle, SeqNum synced,
                        SeqNum issued) {
  const SeqNum n = db.group().last_sn();
  if (n < synced) {
    return "recovered " + std::to_string(n) + " appends, but a completed " +
           "fsync covered the WAL records of " + std::to_string(synced);
  }
  if (n > issued) {
    return "recovered " + std::to_string(n) + " appends, but only " +
           std::to_string(issued) + " WAL records were issued";
  }
  for (int v = 0; v < 2; ++v) {
    auto rows = db.ScanView(kViews[v]);
    if (!rows.ok()) return "scanning a view: " + rows.status().ToString();
    SortTuples(&*rows);
    if (*rows != oracle.views[n][v]) {
      return std::string("view ") + kViews[v] +
             " differs from NaiveEngine over the first " +
             std::to_string(n) + " appends";
    }
  }
  std::vector<ChronicleRow> retained;
  Status scan = db.group().GetChronicle(0).value()->ScanRetained(
      [&](const ChronicleRow& row) { retained.push_back(row); });
  if (!scan.ok()) return "scanning retained rows: " + scan.ToString();
  const std::vector<ChronicleRow> want(
      oracle.rows.begin(),
      oracle.rows.begin() + static_cast<ptrdiff_t>(oracle.rows_upto[n]));
  if (retained.size() != want.size()) {
    return "retained " + std::to_string(retained.size()) +
           " rows, the first " + std::to_string(n) + " appends hold " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (retained[i].sn != want[i].sn || retained[i].values != want[i].values) {
      return "retained row " + std::to_string(i) + " (sn " +
             std::to_string(retained[i].sn) + ") differs from append " +
             std::to_string(want[i].sn);
    }
  }
  return "";
}

struct Bounds {
  std::vector<SeqNum> synced, issued;
};

std::string RecoverSingle(const std::string& dir,
                          const std::vector<EngineOracle>& oracles,
                          const Bounds& bounds) {
  ChronicleDatabase db(Options(dir, 1));
  Status ddl = CreateEngineSchema(&db, RetentionPolicy::Tiered(kHotRows));
  if (!ddl.ok()) return "attaching the store: " + ddl.ToString();
  auto report = wal::Recover(dir + "/wal", &db);
  if (!report.ok()) return "recovery: " + report.status().ToString();
  std::string err =
      CheckEngine(db, oracles[0], bounds.synced[0], bounds.issued[0]);
  if (!err.empty()) return err;
  auto wal = wal::Wal::Open(dir + "/wal", SingleWalOptions());
  if (!wal.ok()) return "reopening the log: " + wal.status().ToString();
  return "";
}

// Sum and count merge by addition, so the union of per-shard states is the
// per-key sum of the shards' rows.
std::vector<Tuple> UnionOfShards(const std::vector<std::vector<Tuple>>& parts) {
  struct Less {
    bool operator()(const Tuple& a, const Tuple& b) const {
      return TupleCompare(a, b) < 0;
    }
  };
  std::map<Tuple, std::pair<int64_t, int64_t>, Less> merged;
  for (const std::vector<Tuple>& rows : parts) {
    for (const Tuple& row : rows) {
      auto& agg = merged[Tuple{row[0]}];
      agg.first += row[1].int64();
      agg.second += row[2].int64();
    }
  }
  std::vector<Tuple> out;
  for (const auto& [key, agg] : merged) {
    out.push_back({key[0], Value(agg.first), Value(agg.second)});
  }
  return out;
}

std::string RecoverSharded(const std::string& dir,
                           const std::vector<EngineOracle>& oracles,
                           const Bounds& bounds) {
  auto db = shard::ShardedDatabase::Open(Options(dir, kShards));
  if (!db.ok()) return "open: " + db.status().ToString();
  Status ddl = CreateShardedSchema(db->get());
  if (!ddl.ok()) return "attaching the store: " + ddl.ToString();
  auto reports = (*db)->RecoverFromWal();
  if (!reports.ok()) return "recovery: " + reports.status().ToString();
  for (size_t k = 0; k < kShards; ++k) {
    std::string err = CheckEngine((*db)->engine(k), oracles[k],
                                  bounds.synced[k], bounds.issued[k]);
    if (!err.empty()) return "shard " + std::to_string(k) + ": " + err;
  }
  for (int v = 0; v < 2; ++v) {
    std::vector<std::vector<Tuple>> parts;
    for (size_t k = 0; k < kShards; ++k) {
      parts.push_back((*db)->engine(k).ScanView(kViews[v]).value());
    }
    auto merged = (*db)->ScanView(kViews[v]);
    if (!merged.ok()) return "merged read: " + merged.status().ToString();
    SortTuples(&*merged);
    if (*merged != UnionOfShards(parts)) {
      return std::string("merged read of ") + kViews[v] +
             " differs from the union of the per-shard states";
    }
  }
  Status resumed = (*db)->AttachWals();
  if (!resumed.ok()) return "reopening the logs: " + resumed.ToString();
  return "";
}

// --- the sweep ---

using RecoverFn = std::string (*)(const std::string&,
                                  const std::vector<EngineOracle>&,
                                  const Bounds&);

const char* KindName(FileOp::Kind kind) {
  switch (kind) {
    case FileOp::Kind::kCreate: return "create";
    case FileOp::Kind::kAppend: return "append";
    case FileOp::Kind::kSync: return "fsync";
    case FileOp::Kind::kMakeDir: return "mkdir";
    case FileOp::Kind::kSyncDir: return "fsync dir";
    case FileOp::Kind::kRename: return "rename";
    case FileOp::Kind::kRemove: return "remove";
  }
  return "?";
}

struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() /
              ("chronicle_sweep_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path + "/run");
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string run() const { return path + "/run"; }
  std::string check() const { return path + "/check"; }
  std::string path;
};

void Sweep(const std::string& name, const ScratchDir& dir,
           const Recording& rec, RecoverFn recover) {
  ASSERT_FALSE(rec.ops.empty());
  std::vector<EngineOracle> oracles;
  for (const Ticks& ticks : rec.ticks) oracles.push_back(BuildOracle(ticks));

  CrashModel model(dir.run());
  WalTracker tracker(rec.ticks.size());
  const size_t n = rec.ops.size();
  size_t strict = 0, issued = 0, torn = 0;
  int failures = 0;
  auto verify = [&](const char* state, size_t k) {
    const Bounds bounds{tracker.synced(), tracker.issued()};
    // Recovery writes too (re-seals, a fresh log segment); it needs no
    // real fsync, so it runs on a recorder that is thrown away.
    io::RecordingFileSystem scratch_fs;
    io::ScopedFileSystem scoped(&scratch_fs);
    const std::string err = recover(dir.check(), oracles, bounds);
    if (err.empty()) return;
    ++failures;
    std::string at = "after the last op";
    if (k < n) {
      at = std::string("before op ") + std::to_string(k) + " (" +
           KindName(rec.ops[k].kind) + " " + rec.ops[k].path + ")";
    }
    ADD_FAILURE() << name << ": crash " << at << " of " << n << ", "
                  << state << " state: " << err;
  };
  auto is_sync = [&](size_t i) {
    return rec.ops[i].kind == FileOp::Kind::kSync ||
           rec.ops[i].kind == FileOp::Kind::kSyncDir;
  };
  for (size_t k = 0; k <= n && failures < 3; ++k) {
    // An fsync leaves the issued state as it was, so the state before one
    // is checked after it, where its lower bound is at least as strict.
    if (k == n || !is_sync(k)) {
      model.Materialize(/*strict=*/false, dir.check());
      verify("issued", k);
      ++issued;
    }
    // The strict state changes only when an fsync completes.
    if (k == 0 || k == n || is_sync(k - 1)) {
      model.Materialize(/*strict=*/true, dir.check());
      verify("strict", k);
      ++strict;
    }
    if (k < n && rec.ops[k].kind == FileOp::Kind::kAppend) {
      model.Materialize(/*strict=*/false, dir.check());
      const std::string& data = rec.ops[k].data;
      std::ofstream(model.MapTo(rec.ops[k].path, dir.check()),
                    std::ios::binary | std::ios::app)
          << data.substr(0, data.size() / 2);
      verify("torn", k);
      ++torn;
    }
    if (k < n) {
      model.Apply(rec.ops[k]);
      tracker.Apply(rec.ops[k]);
    }
  }
  // After the last op (a clean close) everything was acknowledged.
  for (size_t e = 0; e < rec.ticks.size(); ++e) {
    EXPECT_EQ(tracker.synced()[e], rec.ticks[e].size()) << "engine " << e;
  }
  std::printf("[sweep] %s: %zu durable ops; recovered %zu strict, %zu issued "
              "and %zu torn crash states\n",
              name.c_str(), n, strict, issued, torn);
}

TEST(CrashPointSweep, SingleEngineWalSealAndCheckpoint) {
  ScratchDir dir("single");
  const Recording rec = RecordSingle(dir.run());
  Sweep("single engine", dir, rec, &RecoverSingle);
}

TEST(CrashPointSweep, FourShardsWithPerShardWalsAndSealing) {
  ScratchDir dir("sharded");
  const Recording rec = RecordSharded(dir.run());
  Sweep("4 shards", dir, rec, &RecoverSharded);
}

}  // namespace
}  // namespace chronicle
