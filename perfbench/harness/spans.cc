#include "harness/spans.h"

#include <cstdio>

namespace perfbench {
namespace {

constexpr size_t kMaxSpans = 1u << 20;

}  // namespace

SpanStore::SpanStore(bool enabled) : enabled_(enabled) {
  if (enabled_) spans_.reserve(1u << 16);
}

uint64_t SpanStore::NewOp() { return ReserveId(); }

uint64_t SpanStore::ReserveId() {
  return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

void SpanStore::RecordWithId(uint64_t id, const char* name, uint64_t parent,
                             uint64_t op, int64_t start_ns, int64_t end_ns) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) return;
  spans_.push_back(Span{id, parent, op, name, start_ns, end_ns});
}

std::vector<Span> SpanStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

uint64_t SpanStore::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanStore::WriteJson(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\":[");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}",
                 i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
