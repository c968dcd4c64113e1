// Chronicle: an unbounded, append-only sequence of transaction records.
//
// A chronicle "can be very large, and the entire chronicle may not be stored
// in the system" (paper §2.1). Retention is therefore a policy, not a
// guarantee: the incremental view-maintenance machinery never reads a
// chronicle, so a retention of kNone is fully functional for maintenance.
// Stored prefixes exist only to serve detailed window queries and the naive
// baseline engine.
//
// Appends happen exclusively through the owning ChronicleGroup, which
// enforces the group-wide sequence-number discipline.

#ifndef CHRONICLE_STORAGE_CHRONICLE_H_
#define CHRONICLE_STORAGE_CHRONICLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/tracking_allocator.h"
#include "types/schema.h"
#include "types/tuple.h"

namespace chronicle {

// Identifies a chronicle within its group.
using ChronicleId = uint32_t;

// How much of the stream the chronicle retains.
struct RetentionPolicy {
  enum class Kind : uint8_t {
    kNone,    // store nothing (pure stream; maintenance-only)
    kWindow,  // keep the most recent `window_rows` rows
    kAll,     // keep everything (needed by the naive baseline)
    kTiered,  // keep `window_rows` rows hot in memory, spill the rest to an
              // attached TierSink (the on-disk segment store)
  };

  Kind kind = Kind::kAll;
  size_t window_rows = 0;

  static RetentionPolicy None() { return {Kind::kNone, 0}; }
  static RetentionPolicy Window(size_t rows) { return {Kind::kWindow, rows}; }
  static RetentionPolicy All() { return {Kind::kAll, 0}; }
  static RetentionPolicy Tiered(size_t hot_rows) {
    return {Kind::kTiered, hot_rows};
  }
};

// An immutable batch of rows a chronicle handed to its TierSink.
using RowBatch = std::shared_ptr<const std::vector<ChronicleRow>>;

// Where a tiered chronicle spills rows that age out of the hot window.
// Implemented by store::TieredStore; declared here so the storage layer
// never depends on the store library.
class TierSink {
 public:
  virtual ~TierSink() = default;

  // Takes the oldest rows of `id`'s hot deque (whole SNs, oldest first)
  // and seals them in the background. Until the sink publishes their
  // segments the rows stay readable as a batch in flight. `bytes` is their
  // in-memory footprint. Returns the rows `id` now has in flight, this
  // batch included.
  virtual uint64_t HandOff(ChronicleId id, std::vector<ChronicleRow> rows,
                           size_t bytes) = 0;
  // Backpressure at the hot-tier cap: makes the log durable on the calling
  // thread, then blocks until `id` has nothing in flight or its seal
  // failed (the rows then stay in flight, and the next hand-off retries).
  virtual Status WaitForSeals(ChronicleId id) = 0;
  // Highest sequence number durably sealed for `id`; 0 if none.
  virtual SeqNum last_sealed_sn(ChronicleId id) const = 0;
  // Rows `id` holds outside its hot deque: warm segments plus batches in
  // flight.
  virtual uint64_t HeldRows(ChronicleId id) const = 0;
  // Applies `fn` to every row counted by HeldRows, oldest first, from one
  // snapshot: a seal published meanwhile is seen exactly once. Fails
  // closed if a segment cannot be decoded.
  virtual Status ScanHeld(
      ChronicleId id,
      const std::function<void(const ChronicleRow&)>& fn) const = 0;
  // The batches `id` has in flight, oldest first.
  virtual std::vector<RowBatch> InFlight(ChronicleId id) const = 0;
};

class Chronicle {
 public:
  Chronicle(ChronicleId id, std::string name, Schema schema,
            RetentionPolicy retention);

  Chronicle(const Chronicle&) = delete;
  Chronicle& operator=(const Chronicle&) = delete;
  Chronicle(Chronicle&&) = default;
  Chronicle& operator=(Chronicle&&) = default;

  ChronicleId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  const RetentionPolicy& retention() const { return retention_; }

  // Total number of tuples ever appended (independent of retention).
  uint64_t total_appended() const { return total_appended_; }
  // Sequence number of the most recent append; 0 if never appended.
  SeqNum last_sn() const { return last_sn_; }

  // The hot (in-memory) retained suffix, oldest first. Under kTiered this
  // is only the hot deque; batches in flight to the sealer and warm
  // segments come through ScanRetained / num_retained.
  const std::deque<ChronicleRow>& retained() const { return rows_; }

  // Total rows retained across warm (on-disk), in-flight and hot tiers.
  uint64_t num_retained() const {
    return (sink_ != nullptr ? sink_->HeldRows(id_) : 0) + rows_.size();
  }

  // Batches handed to the sealer and not yet published, oldest first; with
  // retained() they are the rows no segment holds yet.
  std::vector<RowBatch> in_flight() const {
    return sink_ != nullptr ? sink_->InFlight(id_) : std::vector<RowBatch>{};
  }

  // Applies `fn` to every retained row, oldest first: warm segments and
  // batches in flight (if a tier sink is attached), then the hot deque. The templated overload is
  // the hot path — `fn` is invoked directly with no per-row indirect call.
  // Returns non-OK only if a warm segment cannot be decoded.
  template <typename Visitor>
  Status ScanRetained(Visitor&& fn) const {
    if (sink_ != nullptr) {
      CHRONICLE_RETURN_NOT_OK(ScanWarmTier(fn));
    }
    for (const ChronicleRow& row : rows_) fn(row);
    return Status::OK();
  }
  // Thin wrapper for callers that already hold a std::function.
  Status ScanRetained(const std::function<void(const ChronicleRow&)>& fn) const;

  // Approximate bytes held by hot retained rows.
  size_t MemoryFootprint() const { return meter_.current(); }

  // Attaches the warm-tier sink for a kTiered chronicle. `seal_batch_rows`
  // rows are handed to the sink per seal (extended so one SN never spans
  // the hot/warm boundary). Must be attached before the first append, and
  // after the sink adopted what a previous run sealed.
  void AttachTierSink(TierSink* sink, size_t seal_batch_rows);

  const TierSink* tier_sink() const { return sink_; }

 private:
  friend class ChronicleGroup;  // appends are group-mediated

  // Called by ChronicleGroup after SN validation and schema validation.
  void AppendValidated(SeqNum sn, std::vector<Tuple> tuples);

  // Hands hot rows past the window to the tier sink, oldest first, and
  // waits for the sealer once the hot deque plus the rows in flight reach
  // twice the window.
  void MaybeSealTier();

  // Out-of-line bridge so the templated ScanRetained stays header-only
  // without instantiating the sink call per visitor type.
  Status ScanWarmTier(const std::function<void(const ChronicleRow&)>& fn) const;

  static size_t ApproxTupleBytes(const Tuple& t);

  ChronicleId id_;
  std::string name_;
  Schema schema_;
  RetentionPolicy retention_;
  std::deque<ChronicleRow> rows_;
  uint64_t total_appended_ = 0;
  SeqNum last_sn_ = 0;
  MemoryMeter meter_;
  TierSink* sink_ = nullptr;  // not owned; null unless kTiered and attached
  size_t seal_batch_rows_ = 0;
  // The sink's last sealed SN at attach. Appends at or below it are
  // recovery replay (checkpoint restore or WAL tail) of rows the warm tier
  // already holds; every later seal covers only SNs appended since.
  SeqNum sealed_at_attach_ = 0;
};

}  // namespace chronicle

#endif  // CHRONICLE_STORAGE_CHRONICLE_H_
