#include "store/tiered_store.h"

#include <algorithm>
#include <utility>

#include "common/stopwatch.h"
#include "io/file.h"

namespace chronicle {
namespace store {

TieredStore::TieredStore(StorageOptions options)
    : options_(std::move(options)) {
  if (options_.segment_rows == 0) options_.segment_rows = 1;
  if (options_.segment_bytes == 0) options_.segment_bytes = 1 << 20;
}

TieredStore::~TieredStore() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  seal_cv_.notify_all();
  if (sealer_.joinable()) sealer_.join();
}

Result<std::unique_ptr<TieredStore>> TieredStore::Open(
    StorageOptions options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("tiered store needs a data_dir");
  }
  Status created = io::CreateDirs(options.data_dir);
  if (!created.ok()) {
    return Status::DataLoss("cannot create store directory '" +
                            options.data_dir + "': " + created.message());
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
  Status created = io::CreateDirs(tier.dir);
  if (!created.ok()) {
    return Status::DataLoss("cannot create segment directory '" + tier.dir +
                            "': " + created.message());
  }

  // Adopt what survived the last run: delete stray temp files, validate
  // every segment, and keep the longest valid suffix (newest backwards) so
  // the warm window stays contiguous.
  CHRONICLE_RETURN_NOT_OK(io::RemoveStrayTemps(tier.dir));
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<std::string> names,
                             io::ListDir(tier.dir));
  std::vector<std::string> files;  // name order == SN order
  const size_t suffix = sizeof(kSegmentSuffix) - 1;
  for (const std::string& name : names) {
    if (name.size() > suffix &&
        name.compare(name.size() - suffix, suffix, kSegmentSuffix) == 0) {
      files.push_back(tier.dir + "/" + name);
    }
  }

  // newest first while scanning back
  std::vector<std::shared_ptr<const SegmentReader>> adopted;
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
    adopted.push_back(std::move(opened).value());
  }
  // Quarantine the corrupt segment and everything older: a hole would
  // break the contiguity of the retained prefix. Those rows fall back to
  // the WAL tail (or expire — retention is a policy). No directory sync:
  // a quarantine lost to a crash is simply redone at the next attach.
  for (size_t i = 0; i < quarantined_from; ++i) {
    if (io::Fs().Rename(files[i], files[i] + ".quarantined").ok()) {
      ++counters_.segments_quarantined;
    }
  }

  for (size_t i = adopted.size(); i-- > 0;) {  // back to oldest-first
    AddSegment(tier, std::move(adopted[i]));
  }
  for (const std::string& path : EnforceBudget(tier)) {
    (void)io::Fs().Remove(path);
  }
  tiers_.emplace(id, std::move(tier));
  return Status::OK();
}

void TieredStore::AddSegment(ChronicleTier& tier,
                             std::shared_ptr<const SegmentReader> reader) {
  const SegmentHeader& h = reader->header();
  tier.rows += h.row_count;
  tier.bytes += reader->file_bytes();
  tier.raw_bytes += reader->raw_bytes();
  tier.last_sealed_sn = std::max(tier.last_sealed_sn, h.last_sn);
  tier.segments.emplace(h.base_sn, std::move(reader));
}

uint64_t TieredStore::HandOff(ChronicleId id, std::vector<ChronicleRow> rows,
                              size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  ChronicleTier& tier = tiers_.at(id);
  tier.in_flight_rows += rows.size();
  tier.in_flight_bytes += bytes;
  tier.in_flight.push_back(
      {std::make_shared<const std::vector<ChronicleRow>>(std::move(rows)),
       bytes});
  tier.failure = Status::OK();  // a failed seal retries at the next hand-off
  if (!sealer_.joinable()) {
    sealer_ = std::thread([this] { SealerLoop(); });
  }
  seal_cv_.notify_one();
  return tier.in_flight_rows;
}

Status TieredStore::WriteSegments(ChronicleId id, const std::string& dir,
                                  const std::vector<ChronicleRow>& rows,
                                  std::vector<SealedSegment>* out) const {
  // Split the batch into segments at the row/byte thresholds, never
  // splitting one SN. Boundaries are a pure function of the row stream,
  // which is what makes crash recovery converge on the same segments.
  const size_t count = rows.size();
  Stopwatch seal_watch;
  size_t begin = 0;
  size_t encoded = 0;
  for (size_t i = 0; i <= count; ++i) {
    const bool at_end = i == count;
    const bool full = at_end || (i - begin) >= options_.segment_rows ||
                      encoded >= options_.segment_bytes;
    if (full && i > begin && (at_end || rows[i].sn != rows[i - 1].sn)) {
      SegmentEncoder encoder(id);
      size_t payload = 0;
      for (size_t r = begin; r < i; ++r) {
        const SeqNum prev_sn = r == begin ? rows[r].sn : rows[r - 1].sn;
        payload += SegmentEncoder::RowBytes(rows[r], prev_sn);
      }
      encoder.Reserve(payload);
      for (size_t r = begin; r < i; ++r) encoder.Add(rows[r]);
      const std::string image = encoder.Finish();
      const std::string path = dir + "/" + SegmentFileName(rows[begin].sn);
      CHRONICLE_RETURN_NOT_OK(io::AtomicWriteFile(path, image));
      CHRONICLE_ASSIGN_OR_RETURN(std::unique_ptr<SegmentReader> reader,
                                 SegmentReader::Open(path));
      out->push_back(
          {std::move(reader), image.size(), seal_watch.ElapsedNanos()});
      seal_watch.Start();
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
  return Status::OK();
}

TieredStore::ChronicleTier* TieredStore::NextSealable(ChronicleId* id) {
  for (auto& [tier_id, tier] : tiers_) {
    if (!tier.in_flight.empty() && tier.failure.ok() &&
        tier.in_flight.front().rows->back().sn <= durable_sn_) {
      *id = tier_id;
      return &tier;
    }
  }
  return nullptr;
}

void TieredStore::SealerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    ChronicleId id = 0;
    ChronicleTier* tier = NextSealable(&id);
    if (tier == nullptr) {
      if (stop_) return;
      seal_cv_.wait(lock);
      continue;
    }
    const ChronicleTier::Batch batch = tier->in_flight.front();
    const std::string dir = tier->dir;
    lock.unlock();
    std::vector<SealedSegment> sealed;
    Status written = WriteSegments(id, dir, *batch.rows, &sealed);
    std::vector<std::string> evicted;
    lock.lock();
    if (written.ok()) {
      // Publish: the segments join the index and the batch leaves the
      // in-flight queue in one step, so readers see each row once.
      for (SealedSegment& seg : sealed) {
        const uint32_t rows = seg.reader->header().row_count;
        AddSegment(*tier, std::move(seg.reader));
        ++counters_.segments_sealed;
        counters_.rows_sealed += rows;
        counters_.bytes_written += seg.image_bytes;
        counters_.seal_latency.Record(seg.seal_ns);
        if (metrics_ != nullptr) {
          metrics_->Count(ids_.segments_sealed, 1);
          metrics_->Count(ids_.rows_sealed, rows);
          metrics_->Count(ids_.bytes_written, seg.image_bytes);
        }
      }
      tier->in_flight.pop_front();
      tier->in_flight_rows -= batch.rows->size();
      tier->in_flight_bytes -= batch.bytes;
      evicted = EnforceBudget(*tier);
    } else {
      tier->failure = written;
      CountFailure();
    }
    done_cv_.notify_all();
    if (!evicted.empty()) {
      lock.unlock();
      for (const std::string& path : evicted) (void)io::Fs().Remove(path);
      lock.lock();
    }
  }
}

void TieredStore::CountFailure() {
  ++counters_.seal_failures;
  if (metrics_ != nullptr) metrics_->Count(ids_.seal_failures, 1);
}

Status TieredStore::BarrierAndRetry(ChronicleTier* tier) {
  if (barrier_ != nullptr) {
    Status barrier = barrier_();
    if (!barrier.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      CountFailure();
      return barrier;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (tier != nullptr) {
    tier->failure = Status::OK();
  } else {
    for (auto& [id, t] : tiers_) t.failure = Status::OK();
  }
  seal_cv_.notify_one();
  return Status::OK();
}

Status TieredStore::WaitForSeals(ChronicleId id) {
  Stopwatch watch;
  ChronicleTier* tier = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tier = &tiers_.at(id);
  }
  CHRONICLE_RETURN_NOT_OK(BarrierAndRetry(tier));
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return Settled(*tier); });
  counters_.cap_wait.Record(watch.ElapsedNanos());
  return Unsealed(*tier);
}

bool TieredStore::Settled(const ChronicleTier& tier) const {
  return tier.in_flight.empty() || !tier.failure.ok() ||
         tier.in_flight.front().rows->back().sn > durable_sn_;
}

Status TieredStore::Unsealed(const ChronicleTier& tier) const {
  if (!tier.failure.ok() || tier.in_flight.empty()) return tier.failure;
  // Only a log that failed to become durable leaves a batch unsealable.
  return Status::FailedPrecondition(
      "the log is not durable through sn " +
      std::to_string(tier.in_flight.front().rows->back().sn));
}

Status TieredStore::Drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!sealer_.joinable()) return Status::OK();  // nothing handed off
  }
  CHRONICLE_RETURN_NOT_OK(BarrierAndRetry(nullptr));
  std::unique_lock<std::mutex> lock(mutex_);
  Status first = Status::OK();
  for (auto& [id, tier] : tiers_) {
    done_cv_.wait(lock, [&] { return Settled(tier); });
    if (first.ok()) first = Unsealed(tier);
  }
  return first;
}

std::vector<std::string> TieredStore::EnforceBudget(ChronicleTier& tier) {
  std::vector<std::string> removed;
  const uint64_t byte_budget = options_.warm_budget_bytes;
  const size_t seg_budget = options_.warm_budget_segments;
  while (tier.segments.size() > 1 &&
         ((byte_budget != 0 && tier.bytes > byte_budget) ||
          (seg_budget != 0 && tier.segments.size() > seg_budget))) {
    auto oldest = tier.segments.begin();
    const SegmentReader& seg = *oldest->second;
    const SegmentHeader& h = seg.header();
    tier.rows -= h.row_count;
    tier.bytes -= seg.file_bytes();
    tier.raw_bytes -= seg.raw_bytes();
    ++counters_.segments_evicted;
    counters_.rows_evicted += h.row_count;
    if (metrics_ != nullptr) {
      metrics_->Count(ids_.segments_evicted, 1);
      metrics_->Count(ids_.rows_evicted, h.row_count);
    }
    // No directory sync: a segment evicted again after a crash is
    // re-adopted and re-evicted at attach. The file is unlinked after the
    // mutex is released; a reader's snapshot keeps its mapping valid.
    removed.push_back(seg.path());
    tier.segments.erase(oldest);
  }
  return removed;
}

SeqNum TieredStore::last_sealed_sn(ChronicleId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tiers_.find(id);
  return it == tiers_.end() ? 0 : it->second.last_sealed_sn;
}

uint64_t TieredStore::HeldRows(ChronicleId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tiers_.find(id);
  return it == tiers_.end() ? 0 : it->second.rows + it->second.in_flight_rows;
}

Status TieredStore::ScanHeld(
    ChronicleId id,
    const std::function<void(const ChronicleRow&)>& fn) const {
  WarmCursor cursor = OpenWarmCursor(id);
  for (const auto& seg : cursor.segments_) {
    CHRONICLE_RETURN_NOT_OK(seg->Scan(fn));
  }
  for (const RowBatch& batch : cursor.batches_) {
    for (const ChronicleRow& row : *batch) fn(row);
  }
  return Status::OK();
}

std::vector<RowBatch> TieredStore::InFlight(ChronicleId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<RowBatch> batches;
  auto it = tiers_.find(id);
  if (it != tiers_.end()) {
    for (const ChronicleTier::Batch& batch : it->second.in_flight) {
      batches.push_back(batch.rows);
    }
  }
  return batches;
}

TieredStore::WarmCursor TieredStore::OpenWarmCursor(ChronicleId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  WarmCursor cursor;
  auto it = tiers_.find(id);
  if (it != tiers_.end()) {
    for (const auto& [base, seg] : it->second.segments) {
      (void)base;
      cursor.segments_.push_back(seg);
    }
    for (const ChronicleTier::Batch& batch : it->second.in_flight) {
      cursor.batches_.push_back(batch.rows);
    }
  }
  return cursor;
}

Result<bool> TieredStore::WarmCursor::Next(ChronicleRow* out) {
  while (index_ < segments_.size()) {
    if (cursor_ == nullptr) {
      cursor_ = std::make_unique<SegmentReader::Cursor>(segments_[index_].get());
    }
    CHRONICLE_ASSIGN_OR_RETURN(bool more, cursor_->Next(out));
    if (more) return true;
    cursor_.reset();
    ++index_;
  }
  while (index_ - segments_.size() < batches_.size()) {
    const std::vector<ChronicleRow>& batch = *batches_[index_ - segments_.size()];
    if (row_ < batch.size()) {
      *out = batch[row_++];
      return true;
    }
    row_ = 0;
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
  return seg->second->header().last_sn >= sn ? seg->second.get() : nullptr;
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

void TieredStore::SetDurableSn(SeqNum sn) {
  std::lock_guard<std::mutex> lock(mutex_);
  durable_sn_ = sn;
  seal_cv_.notify_one();
}

void TieredStore::SetDurabilityBarrier(std::function<Status()> barrier) {
  barrier_ = std::move(barrier);
}

void TieredStore::AttachMetrics(obs::MetricsRegistry* metrics,
                                const StoreMetricIds& ids) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = metrics;
  ids_ = ids;
}

obs::StoreCounters TieredStore::counters() const {
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
  info.in_flight_rows = it->second.in_flight_rows;
  info.in_flight_bytes = it->second.in_flight_bytes;
  return info;
}

}  // namespace store
}  // namespace chronicle
