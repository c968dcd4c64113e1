// TieredStore: the warm tier of tiered retention.
//
// Rows age out of a chronicle's hot in-memory window into sealed segment
// files under `<data_dir>/<chronicle-name>/` (see segment.h for the file
// format). The store keeps an in-memory SN→segment index per chronicle,
// mmap-validates every segment at attach, enforces warm-tier budgets by
// evicting the oldest segments (retention is a policy, not a guarantee —
// paper §2.1), and serves oldest-first scans for window queries, the naive
// baseline, and replayable view backfill.
//
// Recovery contract: a sealed segment is durable before the hot rows it
// covers are dropped, so sealed segments form a checkpoint of the
// chronicle prefix. On restart the chronicle-level dedup guard
// (`sn <= last_sealed_sn`) suppresses checkpoint/WAL replay of rows the
// warm tier already holds; corrupt or torn segments are quarantined at
// attach and their rows fall back to the WAL tail (or expire).
//
// Thread safety: mutations (seal, evict, attach) are driver-thread calls;
// reads of counters and tier sizes may come from the monitoring thread, so
// all bookkeeping is behind a mutex and aggregate counters are atomics.

#ifndef CHRONICLE_STORE_TIERED_STORE_H_
#define CHRONICLE_STORE_TIERED_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "storage/chronicle.h"
#include "store/segment.h"

namespace chronicle {
namespace store {

// Tier budgets and layout; embedded in DatabaseOptions as `storage`.
struct StorageOptions {
  // Root directory for segment files; empty disables the store.
  std::string data_dir;
  // Hot window per tiered chronicle (rows kept in the in-memory deque).
  size_t hot_rows = 8192;
  // Rows handed to the store per seal; the target segment size.
  size_t segment_rows = 4096;
  // A segment also seals early once its encoded payload reaches this size.
  uint64_t segment_bytes = 1 << 20;
  // Warm-tier budgets per chronicle; oldest segments are evicted past
  // either. 0 = unbounded.
  uint64_t warm_budget_bytes = 256ull << 20;
  size_t warm_budget_segments = 0;
};

// Pre-resolved registry ids for the storage metric catalog. Registered by
// RegisterMetrics at database construction (the registry is single-
// threaded registration-only), handed to the store when it is lazily
// opened.
struct StoreMetricIds {
  obs::MetricId segments_sealed = 0;
  obs::MetricId segments_evicted = 0;
  obs::MetricId rows_sealed = 0;
  obs::MetricId rows_evicted = 0;
  obs::MetricId bytes_written = 0;
  obs::MetricId seal_failures = 0;
};

// Per-chronicle warm-tier sizes for the stats tier breakdown.
struct WarmTierInfo {
  uint64_t segments = 0;
  uint64_t rows = 0;
  uint64_t bytes = 0;      // on-disk (encoded) bytes
  uint64_t raw_bytes = 0;  // in-memory-equivalent bytes of the same rows
  SeqNum last_sealed_sn = 0;
};

class TieredStore : public TierSink {
 public:
  // Creates `options.data_dir` if missing and validates it is usable.
  static Result<std::unique_ptr<TieredStore>> Open(StorageOptions options);

  // Registers a chronicle and adopts any segments already on disk for it
  // (recovery). Corrupt segments are quarantined (renamed *.quarantined);
  // because the retained warm window must stay contiguous, segments older
  // than a corrupt one are quarantined with it. Stray temp files from a
  // crash mid-seal are deleted (io::RemoveStrayTemps).
  Status AttachChronicle(ChronicleId id, const std::string& name);

  // TierSink:
  Status SealRows(ChronicleId id, const std::deque<ChronicleRow>& rows,
                  size_t count) override;
  SeqNum last_sealed_sn(ChronicleId id) const override;
  uint64_t WarmRows(ChronicleId id) const override;
  Status ScanWarm(
      ChronicleId id,
      const std::function<void(const ChronicleRow&)>& fn) const override;

  // Pull-based oldest-first row stream over the warm tier of one
  // chronicle, for the k-way backfill merge.
  class WarmCursor {
   public:
    // Decodes the next warm row; false once exhausted.
    Result<bool> Next(ChronicleRow* out);

   private:
    friend class TieredStore;
    std::vector<const SegmentReader*> segments_;
    size_t index_ = 0;
    std::unique_ptr<SegmentReader::Cursor> cursor_;
  };
  WarmCursor OpenWarmCursor(ChronicleId id) const;

  // The segment covering `sn`, or null (index lookup; exposed for tests).
  const SegmentReader* FindSegmentFor(ChronicleId id, SeqNum sn) const;

  // Write-ahead barrier, run once per SealRows before any segment is
  // written. The database points this at MutationLog::Sync so a seal can
  // never make rows durable in the store ahead of their WAL records — a
  // crash would otherwise recover a warm tier the replayed log (and thus
  // every maintained view) has never seen. A failing barrier aborts the
  // seal; the rows stay hot and the seal is retried on the next append.
  void SetPreSealBarrier(std::function<Status()> barrier);

  // Registers the storage_* counter catalog (construction time only).
  static StoreMetricIds RegisterMetrics(obs::MetricsRegistry* metrics);
  // Points the store at an already-registered catalog.
  void AttachMetrics(obs::MetricsRegistry* metrics,
                     const StoreMetricIds& ids);

  obs::StoreCounters counters() const;
  WarmTierInfo TierOf(ChronicleId id) const;
  const StorageOptions& options() const { return options_; }

 private:
  explicit TieredStore(StorageOptions options);

  struct ChronicleTier {
    std::string name;
    std::string dir;
    // Keyed by base SN; iteration order is scan order.
    std::map<SeqNum, std::unique_ptr<SegmentReader>> segments;
    uint64_t rows = 0;
    uint64_t bytes = 0;
    uint64_t raw_bytes = 0;
    SeqNum last_sealed_sn = 0;
  };

  // Adds a validated segment (sealed or adopted) to the tier's index and
  // totals.
  static void AddSegment(ChronicleTier& tier,
                         std::unique_ptr<SegmentReader> reader);
  // Seals one encoder's worth of rows [begin, end) as a single segment.
  Status SealOne(ChronicleTier& tier, ChronicleId id,
                 const std::deque<ChronicleRow>& rows, size_t begin,
                 size_t end);
  void EnforceBudget(ChronicleTier& tier);

  StorageOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<ChronicleId, ChronicleTier> tiers_;
  obs::StoreCounters counters_;
  std::function<Status()> pre_seal_barrier_;

  obs::MetricsRegistry* metrics_ = nullptr;
  StoreMetricIds ids_;
};

}  // namespace store
}  // namespace chronicle

#endif  // CHRONICLE_STORE_TIERED_STORE_H_
