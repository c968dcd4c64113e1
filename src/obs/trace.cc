#include "obs/trace.h"

namespace chronicle {
namespace obs {

const char* SpanKindToString(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAppendTick:
      return "append_tick";
    case SpanKind::kRouting:
      return "routing";
    case SpanKind::kWorkerBatch:
      return "worker_batch";
    case SpanKind::kMerge:
      return "merge";
    case SpanKind::kWalSync:
      return "wal_sync";
  }
  return "unknown";
}

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

TraceRing::TraceRing(size_t capacity)
    : slots_(capacity == 0 ? 0 : RoundUpPow2(capacity)),
      epoch_(std::chrono::steady_clock::now()) {}

void TraceRing::Emit(SpanKind kind, uint16_t worker, uint64_t sn,
                     int64_t start_ns, int64_t duration_ns, uint64_t detail0,
                     uint64_t detail1) {
  if (slots_.empty()) return;
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & (slots_.size() - 1)];
  // Seqlock write: odd version in, fields, even version out. The payload
  // stores are relaxed (they are ordered by the release stores on
  // version). Two writers collide on one slot when the ring wraps while
  // both are inside it; the odd version is taken by CAS, so the second
  // waits for the first to finish instead of interleaving its fields (a
  // reader would see an even version over a mixed span, and the slot
  // would be left odd for good).
  uint64_t v = slot.version.load(std::memory_order_relaxed);
  while ((v & 1) != 0 ||
         !slot.version.compare_exchange_weak(v, v + 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
    if ((v & 1) != 0) v = slot.version.load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_release);
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
  slot.worker.store(worker, std::memory_order_relaxed);
  slot.sn.store(sn, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.duration_ns.store(duration_ns, std::memory_order_relaxed);
  slot.detail0.store(detail0, std::memory_order_relaxed);
  slot.detail1.store(detail1, std::memory_order_relaxed);
  slot.version.store(v + 2, std::memory_order_release);
}

bool TraceRing::ReadSlot(const Slot& slot, TraceSpan* out) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 & 1) continue;  // writer inside
    out->seq = slot.seq.load(std::memory_order_relaxed);
    out->kind = static_cast<SpanKind>(slot.kind.load(std::memory_order_relaxed));
    out->worker = slot.worker.load(std::memory_order_relaxed);
    out->sn = slot.sn.load(std::memory_order_relaxed);
    out->start_ns = slot.start_ns.load(std::memory_order_relaxed);
    out->duration_ns = slot.duration_ns.load(std::memory_order_relaxed);
    out->detail0 = slot.detail0.load(std::memory_order_relaxed);
    out->detail1 = slot.detail1.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) == v1) return true;
  }
  return false;  // continuously overwritten; drop the span
}

std::vector<TraceSpan> TraceRing::Snapshot() const {
  std::vector<TraceSpan> out;
  if (slots_.empty()) return out;
  const uint64_t emitted = next_.load(std::memory_order_acquire);
  const uint64_t retained =
      emitted < slots_.size() ? emitted : static_cast<uint64_t>(slots_.size());
  out.reserve(retained);
  for (uint64_t seq = emitted - retained; seq < emitted; ++seq) {
    TraceSpan span;
    if (!ReadSlot(slots_[seq & (slots_.size() - 1)], &span)) continue;
    // A slot overwritten since `emitted` was sampled carries a newer span;
    // keep it (it is a real span) — order stays oldest-first because newer
    // seqs only ever land in later ring positions within one pass.
    out.push_back(span);
  }
  return out;
}

}  // namespace obs
}  // namespace chronicle
