// store_crash_smoke: kill-resilience smoke for the tiered store + WAL.
//
//   $ store_crash_smoke --phase=write --dir=/tmp/smoke [--rows=N] [--shards=N]
//   $ store_crash_smoke --phase=verify --dir=/tmp/smoke [--shards=N]
//
// The write phase opens a WAL-attached database with a tiered chronicle
// spilling into <dir>/store and appends CDR batches — forever by default,
// so a harness can `kill -9` it at an arbitrary point (mid-segment, right
// after a seal, mid-WAL-record). The verify phase recovers from the WAL
// into a fresh database and checks the recovered state is internally
// consistent:
//
//   * recovery succeeds (a torn WAL tail is discarded, not fatal),
//   * retained SNs are contiguous and end at the group's last SN,
//   * every adopted segment was CRC-validated at attach (quarantines are
//     reported but only fatal if rows went missing),
//   * the maintained "minutes" view equals a from-scratch recomputation
//     over the retained rows — the view-maintenance invariant.
//
// With --shards=N (N > 1) both phases run through the ShardedDatabase
// router instead: per-shard WAL streams under <dir>/wal/shard-<k>, per-
// shard store dirs under <dir>/store/shard-<k>. The kill can land with
// the shards arbitrarily skewed (one mid-segment, another mid-record);
// verify recovers every shard independently, applies the invariants per
// shard, and additionally checks the MERGED view read equals the union
// of the per-shard recomputations.
//
// Exit code 0 = consistent, 1 = any invariant violated.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "db/database.h"
#include "shard/sharded_db.h"
#include "wal/recovery.h"
#include "wal/wal.h"
#include "workload/call_records.h"

namespace {

using namespace chronicle;

struct Args {
  std::string phase;
  std::string dir;
  uint64_t rows = 0;   // 0 = until killed
  size_t shards = 1;   // > 1: route through the ShardedDatabase
};

DatabaseOptions TieredOptions(const std::string& dir) {
  DatabaseOptions options;
  options.storage.data_dir = dir + "/store";
  options.storage.hot_rows = 64;
  options.storage.segment_rows = 32;
  return options;
}

Status ApplyDdl(ChronicleDatabase* db) {
  CHRONICLE_RETURN_NOT_OK(
      db->CreateChronicle("calls", CallRecordGenerator::RecordSchema(),
                          RetentionPolicy::Tiered(64))
          .status());
  CHRONICLE_ASSIGN_OR_RETURN(CaExprPtr scan, db->ScanChronicle("calls"));
  CHRONICLE_ASSIGN_OR_RETURN(
      SummarySpec spec,
      SummarySpec::GroupBy(scan->schema(), {"caller"},
                           {AggSpec::Sum("minutes", "m"), AggSpec::Count("n")}));
  return db->CreateView("minutes", scan, std::move(spec)).status();
}

int RunWrite(const Args& args) {
  auto wal = wal::Wal::Open(args.dir + "/wal");
  if (!wal.ok()) {
    std::fprintf(stderr, "wal open: %s\n", wal.status().ToString().c_str());
    return 1;
  }
  ChronicleDatabase db(TieredOptions(args.dir));
  Status ddl = ApplyDdl(&db);
  if (!ddl.ok()) {
    std::fprintf(stderr, "ddl: %s\n", ddl.ToString().c_str());
    return 1;
  }
  wal::WalMutationLog log(wal->get(), &db);
  db.AttachMutationLog(&log);
  CallRecordGenerator gen;
  uint64_t appended = 0;
  for (uint64_t step = 0; args.rows == 0 || appended < args.rows; ++step) {
    const size_t batch = 1 + step % 7;
    Status st = db.Append("calls", gen.NextBatch(batch)).status();
    if (!st.ok()) {
      std::fprintf(stderr, "append: %s\n", st.ToString().c_str());
      return 1;
    }
    appended += batch;
    if (step % 256 == 0) {
      // Progress marker so the harness knows segments are flowing.
      std::printf("appended=%llu sealed_sn=%llu\n",
                  static_cast<unsigned long long>(appended),
                  static_cast<unsigned long long>(
                      db.tiered_store() != nullptr
                          ? db.tiered_store()->last_sealed_sn(0)
                          : 0));
      std::fflush(stdout);
    }
  }
  return (*wal)->Close().ok() ? 0 : 1;
}

using AggMap = std::map<int64_t, std::pair<int64_t, int64_t>>;  // caller->(m,n)

// Per-engine invariants: retained SNs contiguous and ending at the
// group's last SN, row counts agreeing, and the per-tick-deduped
// recomputation folded into `recomputed`. Returns the failure count.
int CheckEngineRetained(const ChronicleDatabase& db, const char* label,
                        AggMap* recomputed) {
  int failures = 0;
  const Chronicle* chron = db.group().GetChronicle(0).value();
  SeqNum prev = 0;
  uint64_t rows = 0;
  std::vector<Tuple> tick;  // rows of the current SN, for set semantics
  Status scan = chron->ScanRetained([&](const ChronicleRow& row) {
    if (row.sn != prev && row.sn != prev + 1) {
      std::fprintf(stderr, "FAIL %s sn gap: %llu after %llu\n", label,
                   static_cast<unsigned long long>(row.sn),
                   static_cast<unsigned long long>(prev));
      ++failures;
    }
    if (row.sn != prev) tick.clear();
    prev = row.sn;
    ++rows;
    // Views have set semantics per tick: identical tuples appended under
    // one SN count once (exactly what the engines' DedupeRows does).
    for (const Tuple& seen : tick) {
      if (seen == row.values) return;
    }
    tick.push_back(row.values);
    auto& agg = (*recomputed)[row.values[0].int64()];
    agg.first += row.values[2].int64();
    agg.second += 1;
  });
  if (!scan.ok()) {
    std::fprintf(stderr, "FAIL %s scan: %s\n", label, scan.ToString().c_str());
    return failures + 1;
  }
  if (rows > 0 && prev != db.group().last_sn()) {
    std::fprintf(stderr,
                 "FAIL %s last retained sn %llu != group last_sn %llu\n",
                 label, static_cast<unsigned long long>(prev),
                 static_cast<unsigned long long>(db.group().last_sn()));
    ++failures;
  }
  if (rows != chron->num_retained()) {
    std::fprintf(stderr, "FAIL %s scan saw %llu rows, num_retained=%llu\n",
                 label, static_cast<unsigned long long>(rows),
                 static_cast<unsigned long long>(chron->num_retained()));
    ++failures;
  }
  return failures;
}

// Compares a scanned "minutes" view against a recomputation, printing the
// first divergent callers. Returns 0 or 1.
int CheckViewAgainst(const std::vector<Tuple>& view, const AggMap& recomputed,
                     const char* label) {
  AggMap maintained;
  for (const Tuple& row : view) {
    maintained[row[0].int64()] = {row[1].int64(), row[2].int64()};
  }
  if (maintained == recomputed) return 0;
  std::fprintf(stderr,
               "FAIL %s view diverges: %zu maintained vs %zu recomputed "
               "keys\n",
               label, maintained.size(), recomputed.size());
  int shown = 0;
  for (const auto& [caller, agg] : recomputed) {
    auto it = maintained.find(caller);
    if (it != maintained.end() && it->second == agg) continue;
    std::string shown_agg = "<absent>";
    if (it != maintained.end()) {
      shown_agg = "(";
      shown_agg.append(std::to_string(it->second.first)).append(",");
      shown_agg.append(std::to_string(it->second.second)).append(")");
    }
    std::fprintf(stderr,
                 "  caller=%lld recomputed=(%lld,%lld) maintained=%s\n",
                 static_cast<long long>(caller),
                 static_cast<long long>(agg.first),
                 static_cast<long long>(agg.second), shown_agg.c_str());
    if (++shown == 8) break;
  }
  return 1;
}

int RunVerify(const Args& args) {
  ChronicleDatabase db(TieredOptions(args.dir));
  Status ddl = ApplyDdl(&db);
  if (!ddl.ok()) {
    std::fprintf(stderr, "ddl: %s\n", ddl.ToString().c_str());
    return 1;
  }
  auto report = wal::Recover(args.dir + "/wal", &db);
  if (!report.ok()) {
    std::fprintf(stderr, "FAIL recover: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  AggMap recomputed;
  int failures = CheckEngineRetained(db, "engine", &recomputed);

  // The maintained view must equal a from-scratch recomputation.
  auto view = db.ScanView("minutes");
  if (!view.ok()) {
    std::fprintf(stderr, "FAIL view scan: %s\n",
                 view.status().ToString().c_str());
    return 1;
  }
  failures += CheckViewAgainst(*view, recomputed, "engine");
  AggMap maintained;
  for (const Tuple& row : *view) {
    maintained[row[0].int64()] = {row[1].int64(), row[2].int64()};
  }
  uint64_t rows = db.group().GetChronicle(0).value()->num_retained();

  const store::TieredStore* store = db.tiered_store();
  const obs::StoreCounters counters =
      store != nullptr ? store->counters() : obs::StoreCounters{};
  std::printf(
      "verify: rows=%llu last_sn=%llu warm=%llu sealed_sn=%llu "
      "quarantined=%llu torn_tail=%d callers=%zu -> %s\n",
      static_cast<unsigned long long>(rows),
      static_cast<unsigned long long>(db.group().last_sn()),
      static_cast<unsigned long long>(store ? store->WarmRows(0) : 0),
      static_cast<unsigned long long>(store ? store->last_sealed_sn(0) : 0),
      static_cast<unsigned long long>(counters.segments_quarantined),
      report->replay.tail_truncated ? 1 : 0, maintained.size(),
      failures == 0 ? "OK" : "FAIL");
  return failures == 0 ? 0 : 1;
}

// --- sharded variants (--shards=N, N > 1) ---

DatabaseOptions ShardedTieredOptions(const Args& args) {
  DatabaseOptions options = TieredOptions(args.dir);
  options.sharding.num_shards = args.shards;
  options.sharding.wal_dir = args.dir + "/wal";
  return options;
}

Status ApplyShardedDdl(shard::ShardedDatabase* db) {
  CHRONICLE_RETURN_NOT_OK(
      db->CreateChronicle("calls", CallRecordGenerator::RecordSchema(),
                          RetentionPolicy::Tiered(64))
          .status());
  CHRONICLE_ASSIGN_OR_RETURN(
      SummarySpec spec,
      SummarySpec::GroupBy(CallRecordGenerator::RecordSchema(), {"caller"},
                           {AggSpec::Sum("minutes", "m"), AggSpec::Count("n")}));
  return db
      ->CreateView("minutes",
                   [](ChronicleDatabase& e) { return e.ScanChronicle("calls"); },
                   std::move(spec))
      .status();
}

int RunWriteSharded(const Args& args) {
  auto db = shard::ShardedDatabase::Open(ShardedTieredOptions(args));
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }
  Status ddl = ApplyShardedDdl(db->get());
  if (!ddl.ok()) {
    std::fprintf(stderr, "ddl: %s\n", ddl.ToString().c_str());
    return 1;
  }
  Status attach = (*db)->AttachWals();
  if (!attach.ok()) {
    std::fprintf(stderr, "attach: %s\n", attach.ToString().c_str());
    return 1;
  }
  CallRecordGenerator gen;
  uint64_t appended = 0;
  for (uint64_t step = 0; args.rows == 0 || appended < args.rows; ++step) {
    const size_t batch = 1 + step % 7;
    auto r = (*db)->Append("calls", gen.NextBatch(batch));
    if (!r.ok()) {
      std::fprintf(stderr, "append: %s\n", r.status().ToString().c_str());
      return 1;
    }
    appended += batch;
    if (step % 256 == 0) {
      std::printf("appended=%llu routed=%llu\n",
                  static_cast<unsigned long long>(appended),
                  static_cast<unsigned long long>((*db)->rows_routed()));
      std::fflush(stdout);
    }
  }
  return (*db)->CloseWals().ok() ? 0 : 1;
}

int RunVerifySharded(const Args& args) {
  auto db = shard::ShardedDatabase::Open(ShardedTieredOptions(args));
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }
  Status ddl = ApplyShardedDdl(db->get());
  if (!ddl.ok()) {
    std::fprintf(stderr, "ddl: %s\n", ddl.ToString().c_str());
    return 1;
  }
  auto reports = (*db)->RecoverFromWal();
  if (!reports.ok()) {
    std::fprintf(stderr, "FAIL recover: %s\n",
                 reports.status().ToString().c_str());
    return 1;
  }

  // Every shard recovers independently (the kill may have left them
  // skewed); each must satisfy the same invariants as an unsharded engine,
  // including its own shard-local view.
  int failures = 0;
  AggMap merged_recompute;
  uint64_t rows = 0;
  bool torn = false;
  for (size_t k = 0; k < (*db)->num_shards(); ++k) {
    const std::string label = "shard-" + std::to_string(k);
    const ChronicleDatabase& engine = (*db)->engine(k);
    AggMap shard_recompute;
    failures += CheckEngineRetained(engine, label.c_str(), &shard_recompute);
    auto shard_view = engine.ScanView("minutes");
    if (!shard_view.ok()) {
      std::fprintf(stderr, "FAIL %s view scan: %s\n", label.c_str(),
                   shard_view.status().ToString().c_str());
      ++failures;
    } else {
      failures +=
          CheckViewAgainst(*shard_view, shard_recompute, label.c_str());
    }
    // "caller" is the partition column: shard recomputations are disjoint,
    // so a plain insert IS the merge.
    for (const auto& [caller, agg] : shard_recompute) {
      if (!merged_recompute.emplace(caller, agg).second) {
        std::fprintf(stderr,
                     "FAIL caller %lld present on more than one shard\n",
                     static_cast<long long>(caller));
        ++failures;
      }
    }
    rows += engine.group().GetChronicle(0).value()->num_retained();
    torn = torn || (*reports)[k].replay.tail_truncated;
  }

  // The router's merged read must agree with the union of the per-shard
  // recomputations.
  auto merged_view = (*db)->ScanView("minutes");
  if (!merged_view.ok()) {
    std::fprintf(stderr, "FAIL merged view scan: %s\n",
                 merged_view.status().ToString().c_str());
    return 1;
  }
  failures += CheckViewAgainst(*merged_view, merged_recompute, "merged");

  std::printf("verify: shards=%zu rows=%llu torn_tail=%d callers=%zu -> %s\n",
              (*db)->num_shards(), static_cast<unsigned long long>(rows),
              torn ? 1 : 0, merged_recompute.size(),
              failures == 0 ? "OK" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--phase=", 0) == 0) {
      args.phase = arg.substr(8);
    } else if (arg.rfind("--dir=", 0) == 0) {
      args.dir = arg.substr(6);
    } else if (arg.rfind("--rows=", 0) == 0) {
      args.rows = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--shards=", 0) == 0) {
      args.shards = std::strtoull(arg.c_str() + 9, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (args.dir.empty() || args.shards == 0 ||
      (args.phase != "write" && args.phase != "verify")) {
    std::fprintf(stderr,
                 "usage: store_crash_smoke --phase=write|verify --dir=<dir> "
                 "[--rows=N] [--shards=N]\n");
    return 2;
  }
  if (args.shards > 1) {
    return args.phase == "write" ? RunWriteSharded(args)
                                 : RunVerifySharded(args);
  }
  return args.phase == "write" ? RunWrite(args) : RunVerify(args);
}
