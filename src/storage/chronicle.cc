#include "storage/chronicle.h"

namespace chronicle {

Chronicle::Chronicle(ChronicleId id, std::string name, Schema schema,
                     RetentionPolicy retention)
    : id_(id),
      name_(std::move(name)),
      schema_(std::move(schema)),
      retention_(retention) {}

Status Chronicle::ScanRetained(
    const std::function<void(const ChronicleRow&)>& fn) const {
  return ScanRetained([&fn](const ChronicleRow& row) { fn(row); });
}

Status Chronicle::ScanWarmTier(
    const std::function<void(const ChronicleRow&)>& fn) const {
  return sink_->ScanHeld(id_, fn);
}

void Chronicle::AttachTierSink(TierSink* sink, size_t seal_batch_rows) {
  sink_ = sink;
  seal_batch_rows_ = seal_batch_rows == 0 ? 1 : seal_batch_rows;
  sealed_at_attach_ = sink->last_sealed_sn(id_);
}

size_t Chronicle::ApproxTupleBytes(const Tuple& t) {
  size_t bytes = sizeof(ChronicleRow) + t.capacity() * sizeof(Value);
  for (const Value& v : t) {
    if (v.is_string()) bytes += v.str().capacity();
  }
  return bytes;
}

void Chronicle::AppendValidated(SeqNum sn, std::vector<Tuple> tuples) {
  total_appended_ += tuples.size();
  last_sn_ = sn;
  if (retention_.kind == RetentionPolicy::Kind::kNone) return;
  if (retention_.kind == RetentionPolicy::Kind::kTiered && sink_ != nullptr &&
      sn <= sealed_at_attach_) {
    // Recovery replay (checkpoint restore or WAL tail) of rows the warm
    // tier already holds durably; counters were advanced above.
    return;
  }
  for (Tuple& t : tuples) {
    meter_.Add(ApproxTupleBytes(t));
    rows_.push_back(ChronicleRow{sn, std::move(t)});
  }
  if (retention_.kind == RetentionPolicy::Kind::kWindow) {
    while (rows_.size() > retention_.window_rows) {
      meter_.Sub(ApproxTupleBytes(rows_.front().values));
      rows_.pop_front();
    }
  } else if (retention_.kind == RetentionPolicy::Kind::kTiered) {
    MaybeSealTier();
  }
}

void Chronicle::MaybeSealTier() {
  if (sink_ == nullptr) return;
  const size_t window = retention_.window_rows;
  while (rows_.size() >= window + seal_batch_rows_) {
    size_t count = seal_batch_rows_;
    // Never split one sequence number across the warm/hot boundary: the
    // recovery dedup guard (`sn <= last_sealed_sn`) must be able to treat
    // a sealed SN as fully sealed.
    while (count < rows_.size() && rows_[count - 1].sn == rows_[count].sn) {
      ++count;
    }
    std::vector<ChronicleRow> batch;
    batch.reserve(count);
    size_t bytes = 0;
    for (size_t i = 0; i < count; ++i) {
      bytes += ApproxTupleBytes(rows_.front().values);
      batch.push_back(std::move(rows_.front()));
      rows_.pop_front();
    }
    meter_.Sub(bytes);
    const uint64_t in_flight = sink_->HandOff(id_, std::move(batch), bytes);
    // The hot-tier cap: a sealer that falls behind (a slow disk) pushes
    // back on ingest. A failed seal returns at once; its rows stay in
    // flight and the next hand-off retries.
    if (rows_.size() + in_flight >= 2 * window) {
      (void)sink_->WaitForSeals(id_);
    }
  }
}

}  // namespace chronicle
