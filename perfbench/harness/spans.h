// Bench-side spans: one span around every public call the benchmark makes
// into the system, kept in memory and written out when the run ends. The
// spans live in the benchmark, not in src/, so the traced run measures the
// program as shipped.

#ifndef PERFBENCH_CORE_SPANS_H_
#define PERFBENCH_CORE_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // shared by every span of one operation
  const char* name = "";  // static string: recording never allocates a name
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanStore {
 public:
  // A disabled store records nothing and every call is one branch.
  explicit SpanStore(bool enabled);

  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  bool enabled() const { return enabled_; }
  // A fresh operation id (0 when disabled).
  uint64_t NewOp();
  // Ids are reserved when a span starts, so children (which finish first)
  // can name their parent; the span is recorded when it ends. Spans past
  // the first 2^20 are not kept.
  uint64_t ReserveId();
  void RecordWithId(uint64_t id, const char* name, uint64_t parent,
                    uint64_t op, int64_t start_ns, int64_t end_ns);

  std::vector<Span> Snapshot() const;
  uint64_t recorded() const;
  // Writes {"spans":[...]} to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Times one call and records it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanStore* store, const char* name, uint64_t parent = 0,
             uint64_t op = 0)
      : store_(store),
        name_(name),
        parent_(parent),
        op_(op),
        id_(store->enabled() ? store->ReserveId() : 0),
        start_ns_(NowNs()) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      store_->RecordWithId(id_, name_, parent_, op_, start_ns_, NowNs());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  int64_t start_ns() const { return start_ns_; }

 private:
  SpanStore* store_;
  const char* name_;
  uint64_t parent_;
  uint64_t op_;
  uint64_t id_;
  int64_t start_ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CORE_SPANS_H_
