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
// Seals run on one sealer thread per store, started at the first hand-off.
// A chronicle hands its oldest hot rows over as an immutable batch; the
// sealer writes the batch's segments once the log is durable through the
// batch's last SN (the write-ahead rule), then publishes the segments and
// drops the batch in one step under the store mutex. Readers snapshot the
// segment index and the batches in flight under that mutex, so they see
// every row exactly once.
//
// Recovery contract: a sealed segment is durable before the batch it
// covers is dropped, so sealed segments form a checkpoint of the
// chronicle prefix. On restart the chronicle-level dedup guard
// (`sn <= last_sealed_sn`) suppresses checkpoint/WAL replay of rows the
// warm tier already holds; corrupt or torn segments are quarantined at
// attach and their rows fall back to the WAL tail (or expire).
//
// Thread safety: attach, hand-off, waits and the barrier run on the
// thread that appends (the owner); the sealer and the monitoring thread
// only touch state behind the mutex. The mutex is never held across file
// I/O.

#ifndef CHRONICLE_STORE_TIERED_STORE_H_
#define CHRONICLE_STORE_TIERED_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
  uint64_t in_flight_rows = 0;   // handed off, not yet published
  uint64_t in_flight_bytes = 0;  // their in-memory footprint
};

class TieredStore : public TierSink {
 public:
  // Creates `options.data_dir` if missing and validates it is usable.
  static Result<std::unique_ptr<TieredStore>> Open(StorageOptions options);

  // Stops the sealer after it has sealed every batch the log allows;
  // batches whose log records are not yet durable are dropped, as a crash
  // would drop them.
  ~TieredStore() override;

  // Registers a chronicle and adopts any segments already on disk for it
  // (recovery). Corrupt segments are quarantined (renamed *.quarantined);
  // because the retained warm window must stay contiguous, segments older
  // than a corrupt one are quarantined with it. Stray temp files from a
  // crash mid-seal are deleted (io::RemoveStrayTemps).
  Status AttachChronicle(ChronicleId id, const std::string& name);

  // TierSink:
  uint64_t HandOff(ChronicleId id, std::vector<ChronicleRow> rows,
                   size_t bytes) override;
  Status WaitForSeals(ChronicleId id) override;
  SeqNum last_sealed_sn(ChronicleId id) const override;
  uint64_t HeldRows(ChronicleId id) const override;
  Status ScanHeld(
      ChronicleId id,
      const std::function<void(const ChronicleRow&)>& fn) const override;
  std::vector<RowBatch> InFlight(ChronicleId id) const override;

  // Makes the log durable (the barrier), retries failed seals, and blocks
  // until nothing is in flight or every remaining batch failed. Returns
  // the first failure.
  Status Drain();

  // Pull-based oldest-first row stream over what one chronicle holds
  // outside its hot deque (warm segments, then batches in flight), for the
  // k-way backfill merge.
  class WarmCursor {
   public:
    // Decodes the next row; false once exhausted.
    Result<bool> Next(ChronicleRow* out);

   private:
    friend class TieredStore;
    std::vector<std::shared_ptr<const SegmentReader>> segments_;
    std::vector<RowBatch> batches_;
    size_t index_ = 0;
    size_t row_ = 0;
    std::unique_ptr<SegmentReader::Cursor> cursor_;
  };
  WarmCursor OpenWarmCursor(ChronicleId id) const;

  // The segment covering `sn`, or null (index lookup; exposed for tests).
  const SegmentReader* FindSegmentFor(ChronicleId id, SeqNum sn) const;

  // The write-ahead rule: a batch's segments are written only once the
  // log is durable through the batch's last SN. The database publishes
  // that SN after each log sync (no log: every SN is durable).
  void SetDurableSn(SeqNum sn);
  // Run on the owner thread before a wait (WaitForSeals, Drain): forces
  // the log durable and publishes it through SetDurableSn. A failing
  // barrier fails the wait, counted as a seal failure; the rows stay in
  // flight.
  void SetDurabilityBarrier(std::function<Status()> barrier);

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
    // Keyed by base SN; iteration order is scan order. Shared so a reader's
    // snapshot outlives an eviction.
    std::map<SeqNum, std::shared_ptr<const SegmentReader>> segments;
    uint64_t rows = 0;
    uint64_t bytes = 0;
    uint64_t raw_bytes = 0;
    SeqNum last_sealed_sn = 0;
    // Handed off and not yet published, oldest first; the sealer takes the
    // front.
    struct Batch {
      RowBatch rows;
      size_t bytes = 0;
    };
    std::deque<Batch> in_flight;
    uint64_t in_flight_rows = 0;
    uint64_t in_flight_bytes = 0;
    // The front batch's last seal failed; it waits for a retry.
    Status failure;
  };
  // One segment written by the sealer, published with its batch.
  struct SealedSegment {
    std::shared_ptr<const SegmentReader> reader;
    uint64_t image_bytes = 0;
    int64_t seal_ns = 0;
  };

  // Adds a validated segment (sealed or adopted) to the tier's index and
  // totals.
  static void AddSegment(ChronicleTier& tier,
                         std::shared_ptr<const SegmentReader> reader);
  // Steps 3-5 of the seal path, off the mutex: encodes `rows` into
  // segments at the row/byte thresholds, writes and re-validates each.
  Status WriteSegments(ChronicleId id, const std::string& dir,
                       const std::vector<ChronicleRow>& rows,
                       std::vector<SealedSegment>* out) const;
  // Under the mutex: the front batch of a tier that may be sealed now.
  ChronicleTier* NextSealable(ChronicleId* id);
  void SealerLoop();
  // Runs the barrier (counting its failure), then clears `tier`'s failure
  // (every tier's when null) so the sealer retries it.
  Status BarrierAndRetry(ChronicleTier* tier);
  // Under the mutex: nothing of `tier` is left for the sealer to do now
  // (all sealed, the front failed, or the log is not durable through it),
  // and the status a waiter returns then.
  bool Settled(const ChronicleTier& tier) const;
  Status Unsealed(const ChronicleTier& tier) const;
  // Unlinks the oldest segments past the budget; returns their paths for
  // removal outside the mutex.
  std::vector<std::string> EnforceBudget(ChronicleTier& tier);
  void CountFailure();

  StorageOptions options_;
  mutable std::mutex mutex_;
  std::unordered_map<ChronicleId, ChronicleTier> tiers_;
  obs::StoreCounters counters_;
  std::function<Status()> barrier_;

  // The sealer. seal_cv_ wakes it; done_cv_ wakes waiters after each seal.
  std::thread sealer_;
  std::condition_variable seal_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;
  SeqNum durable_sn_ = std::numeric_limits<SeqNum>::max();

  obs::MetricsRegistry* metrics_ = nullptr;
  StoreMetricIds ids_;
};

}  // namespace store
}  // namespace chronicle

#endif  // CHRONICLE_STORE_TIERED_STORE_H_
