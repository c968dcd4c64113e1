#include "store/tiered_store.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "wal/wal_file.h"

namespace chronicle {
namespace store {

namespace fs = std::filesystem;

uint64_t ApproxRowBytes(const ChronicleRow& row) {
  uint64_t bytes =
      sizeof(ChronicleRow) + row.values.capacity() * sizeof(Value);
  for (const Value& v : row.values) {
    if (v.is_string()) bytes += v.str().capacity();
  }
  return bytes;
}

TieredStore::TieredStore(StorageOptions options)
    : options_(std::move(options)) {
  if (options_.segment_rows == 0) options_.segment_rows = 1;
  if (options_.segment_bytes == 0) options_.segment_bytes = 1 << 20;
}

Result<std::unique_ptr<TieredStore>> TieredStore::Open(
    StorageOptions options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("tiered store needs a data_dir");
  }
  std::error_code ec;
  fs::create_directories(options.data_dir, ec);
  if (ec) {
    return Status::DataLoss("cannot create store directory '" +
                            options.data_dir + "': " + ec.message());
  }
  return std::unique_ptr<TieredStore>(new TieredStore(std::move(options)));
}

Status TieredStore::AttachChronicle(ChronicleId id, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tiers_.count(id) != 0) {
    return Status::AlreadyExists("chronicle " + name +
                                 " already attached to the store");
  }
  ChronicleTier tier;
  tier.name = name;
  tier.dir = options_.data_dir + "/" + name;
  std::error_code ec;
  fs::create_directories(tier.dir, ec);
  if (ec) {
    return Status::DataLoss("cannot create segment directory '" + tier.dir +
                            "': " + ec.message());
  }

  // Adopt what survived the last run: delete stray temp files, validate
  // every segment, and keep the longest valid suffix (newest backwards) so
  // the warm window stays contiguous.
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(tier.dir, ec)) {
    const std::string fname = entry.path().filename().string();
    if (fname.size() > 4 &&
        fname.compare(fname.size() - 4, 4, kSegmentTempSuffix) == 0) {
      fs::remove(entry.path(), ec);
      continue;
    }
    if (fname.size() > 4 &&
        fname.compare(fname.size() - 4, 4, kSegmentSuffix) == 0) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());  // name order == SN order

  std::vector<SegmentEntry> adopted;  // newest first while scanning back
  SeqNum newer_base = 0;
  bool have_newer = false;
  size_t quarantined_from = 0;  // files[0, quarantined_from) get renamed
  for (size_t i = files.size(); i-- > 0;) {
    auto opened = SegmentReader::Open(files[i]);
    bool keep = opened.ok();
    if (keep && have_newer &&
        opened.value()->header().last_sn >= newer_base) {
      // Overlaps the newer segment we already kept — treat as corrupt.
      keep = false;
    }
    if (!keep) {
      quarantined_from = i + 1;
      break;
    }
    newer_base = opened.value()->header().base_sn;
    have_newer = true;
    SegmentEntry entry;
    entry.reader = std::move(opened).value();
    adopted.push_back(std::move(entry));
  }
  // Quarantine the corrupt segment and everything older: a hole would
  // break the contiguity of the retained prefix. Those rows fall back to
  // the WAL tail (or expire — retention is a policy).
  for (size_t i = 0; i < quarantined_from; ++i) {
    fs::rename(files[i], files[i] + ".quarantined", ec);
    ++counters_.segments_quarantined;
  }

  for (size_t i = adopted.size(); i-- > 0;) {  // back to oldest-first
    SegmentEntry entry = std::move(adopted[i]);
    const SegmentHeader& h = entry.reader->header();
    Status scan = entry.reader->Scan([&entry](const ChronicleRow& row) {
      entry.raw_bytes += ApproxRowBytes(row);
    });
    if (!scan.ok()) return scan;  // unreachable after a validated Open
    tier.rows += h.row_count;
    tier.bytes += entry.reader->file_bytes();
    tier.raw_bytes += entry.raw_bytes;
    tier.last_sealed_sn = std::max(tier.last_sealed_sn, h.last_sn);
    tier.segments.emplace(h.base_sn, std::move(entry));
  }
  EnforceBudget(tier);
  tiers_.emplace(id, std::move(tier));
  return Status::OK();
}

Status TieredStore::SealOne(ChronicleTier& tier, ChronicleId id,
                            const std::vector<ChronicleRow>& rows,
                            size_t begin, size_t end) {
  SegmentEncoder encoder(id);
  uint64_t raw = 0;
  for (size_t i = begin; i < end; ++i) {
    encoder.Add(rows[i]);
    raw += ApproxRowBytes(rows[i]);
  }
  const SeqNum base = encoder.first_sn();
  const SeqNum last = encoder.last_sn();
  const uint32_t count = encoder.rows();
  const std::string image = encoder.Finish();
  const std::string path = tier.dir + "/" + SegmentFileName(base);
  CHRONICLE_RETURN_NOT_OK(wal::AtomicWriteFile(path, image));
  CHRONICLE_ASSIGN_OR_RETURN(std::unique_ptr<SegmentReader> reader,
                             SegmentReader::Open(path));
  SegmentEntry entry;
  entry.reader = std::move(reader);
  entry.raw_bytes = raw;
  tier.rows += count;
  tier.bytes += image.size();
  tier.raw_bytes += raw;
  tier.last_sealed_sn = std::max(tier.last_sealed_sn, last);
  tier.segments.emplace(base, std::move(entry));
  ++counters_.segments_sealed;
  counters_.rows_sealed += count;
  counters_.bytes_written += image.size();
  if (metrics_ != nullptr) {
    metrics_->Count(ids_.segments_sealed, 1);
    metrics_->Count(ids_.rows_sealed, count);
    metrics_->Count(ids_.bytes_written, image.size());
  }
  return Status::OK();
}

Status TieredStore::SealRows(ChronicleId id,
                             const std::vector<ChronicleRow>& rows) {
  if (rows.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tiers_.find(id);
  if (it == tiers_.end()) {
    return Status::FailedPrecondition("chronicle " + std::to_string(id) +
                                      " is not attached to the store");
  }
  ChronicleTier& tier = it->second;
  if (pre_seal_barrier_ != nullptr) {
    Status barrier = pre_seal_barrier_();
    if (!barrier.ok()) {
      ++counters_.seal_failures;
      if (metrics_ != nullptr) metrics_->Count(ids_.seal_failures, 1);
      return barrier;
    }
  }
  // Split the batch into segments at the row/byte thresholds, never
  // splitting one SN. Boundaries are a pure function of the row stream,
  // which is what makes crash recovery converge on the same segments.
  size_t begin = 0;
  size_t encoded = 0;
  for (size_t i = 0; i <= rows.size(); ++i) {
    const bool at_end = i == rows.size();
    const bool full = at_end || (i - begin) >= options_.segment_rows ||
                      encoded >= options_.segment_bytes;
    if (full && i > begin && (at_end || rows[i].sn != rows[i - 1].sn)) {
      Status s = SealOne(tier, id, rows, begin, i);
      if (!s.ok()) {
        ++counters_.seal_failures;
        if (metrics_ != nullptr) metrics_->Count(ids_.seal_failures, 1);
        return s;
      }
      begin = i;
      encoded = 0;
    }
    if (at_end) break;
    // Rough per-row encoded size (1 varint byte + serde tuple); only has
    // to be deterministic, not exact.
    encoded += 2;
    for (const Value& v : rows[i].values) {
      encoded += v.is_string() ? 5 + v.str().size() : 9;
    }
  }
  EnforceBudget(tier);
  return Status::OK();
}

void TieredStore::EnforceBudget(ChronicleTier& tier) {
  const uint64_t byte_budget = options_.warm_budget_bytes;
  const size_t seg_budget = options_.warm_budget_segments;
  while (tier.segments.size() > 1 &&
         ((byte_budget != 0 && tier.bytes > byte_budget) ||
          (seg_budget != 0 && tier.segments.size() > seg_budget))) {
    auto oldest = tier.segments.begin();
    const SegmentHeader& h = oldest->second.reader->header();
    tier.rows -= h.row_count;
    tier.bytes -= oldest->second.reader->file_bytes();
    tier.raw_bytes -= oldest->second.raw_bytes;
    ++counters_.segments_evicted;
    counters_.rows_evicted += h.row_count;
    if (metrics_ != nullptr) {
      metrics_->Count(ids_.segments_evicted, 1);
      metrics_->Count(ids_.rows_evicted, h.row_count);
    }
    std::error_code ec;
    const std::string path = oldest->second.reader->path();
    tier.segments.erase(oldest);  // unmap before unlink
    std::filesystem::remove(path, ec);
  }
}

SeqNum TieredStore::last_sealed_sn(ChronicleId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tiers_.find(id);
  return it == tiers_.end() ? 0 : it->second.last_sealed_sn;
}

uint64_t TieredStore::WarmRows(ChronicleId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tiers_.find(id);
  return it == tiers_.end() ? 0 : it->second.rows;
}

Status TieredStore::ScanWarm(
    ChronicleId id,
    const std::function<void(const ChronicleRow&)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tiers_.find(id);
  if (it == tiers_.end()) return Status::OK();
  for (const auto& [base, entry] : it->second.segments) {
    (void)base;
    CHRONICLE_RETURN_NOT_OK(entry.reader->Scan(fn));
  }
  return Status::OK();
}

TieredStore::WarmCursor TieredStore::OpenWarmCursor(ChronicleId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  WarmCursor cursor;
  auto it = tiers_.find(id);
  if (it != tiers_.end()) {
    for (const auto& [base, entry] : it->second.segments) {
      (void)base;
      cursor.segments_.push_back(entry.reader.get());
    }
  }
  return cursor;
}

Result<bool> TieredStore::WarmCursor::Next(ChronicleRow* out) {
  while (index_ < segments_.size()) {
    if (cursor_ == nullptr) {
      cursor_ = std::make_unique<SegmentReader::Cursor>(segments_[index_]);
    }
    CHRONICLE_ASSIGN_OR_RETURN(bool more, cursor_->Next(out));
    if (more) return true;
    cursor_.reset();
    ++index_;
  }
  return false;
}

const SegmentReader* TieredStore::FindSegmentFor(ChronicleId id,
                                                 SeqNum sn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tiers_.find(id);
  if (it == tiers_.end()) return nullptr;
  const auto& segments = it->second.segments;
  auto seg = segments.upper_bound(sn);
  if (seg == segments.begin()) return nullptr;
  --seg;
  return seg->second.reader->header().last_sn >= sn ? seg->second.reader.get()
                                                    : nullptr;
}

StoreMetricIds TieredStore::RegisterMetrics(obs::MetricsRegistry* metrics) {
  StoreMetricIds ids;
  ids.segments_sealed = metrics->AddCounter("storage_segments_sealed_total",
                                            "Warm-tier segments sealed");
  ids.segments_evicted =
      metrics->AddCounter("storage_segments_evicted_total",
                          "Warm-tier segments evicted by budget");
  ids.rows_sealed = metrics->AddCounter("storage_rows_sealed_total",
                                        "Rows spilled to the warm tier");
  ids.rows_evicted = metrics->AddCounter("storage_rows_evicted_total",
                                         "Rows expired from the warm tier");
  ids.bytes_written =
      metrics->AddCounter("storage_warm_bytes_written_total",
                          "Encoded segment bytes written to disk");
  ids.seal_failures = metrics->AddCounter("storage_seal_failures_total",
                                          "Seal attempts that failed");
  return ids;
}

void TieredStore::SetPreSealBarrier(std::function<Status()> barrier) {
  std::lock_guard<std::mutex> lock(mutex_);
  pre_seal_barrier_ = std::move(barrier);
}

void TieredStore::AttachMetrics(obs::MetricsRegistry* metrics,
                                const StoreMetricIds& ids) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = metrics;
  ids_ = ids;
}

StoreCounters TieredStore::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

WarmTierInfo TieredStore::TierOf(ChronicleId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  WarmTierInfo info;
  auto it = tiers_.find(id);
  if (it == tiers_.end()) return info;
  info.segments = it->second.segments.size();
  info.rows = it->second.rows;
  info.bytes = it->second.bytes;
  info.raw_bytes = it->second.raw_bytes;
  info.last_sealed_sn = it->second.last_sealed_sn;
  return info;
}

}  // namespace store
}  // namespace chronicle
