#include "obs/request_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <utility>

#include "common/strings.h"

namespace chronicle {
namespace obs {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// splitmix64: one fetch_add on the state, then a mix. Statistically fine
// for ids and sampling; never used for anything security-relevant.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;  // upper case is rejected: the wire format is lower-case hex
}

// Parses exactly `n` lower-case hex chars at text[at..at+n).
bool ParseHex(const std::string& text, size_t at, size_t n, uint64_t* out) {
  uint64_t value = 0;
  for (size_t i = 0; i < n; ++i) {
    const int nibble = HexNibble(text[at + i]);
    if (nibble < 0) return false;
    value = (value << 4) | static_cast<uint64_t>(nibble);
  }
  *out = value;
  return true;
}

}  // namespace

const char* ReqStageToString(ReqStage stage) {
  switch (stage) {
    case ReqStage::kRequest:
      return "request";
    case ReqStage::kParse:
      return "parse";
    case ReqStage::kQueueWait:
      return "queue_wait";
    case ReqStage::kAppend:
      return "append";
    case ReqStage::kWalCommit:
      return "wal_commit";
    case ReqStage::kMaintain:
      return "maintain";
    case ReqStage::kMerge:
      return "merge";
    case ReqStage::kRespond:
      return "respond";
  }
  return "unknown";
}

const char* ReqEndpointToString(ReqEndpoint endpoint) {
  switch (endpoint) {
    case ReqEndpoint::kSession:
      return "session";
    case ReqEndpoint::kSql:
      return "sql";
    case ReqEndpoint::kAppend:
      return "append";
    case ReqEndpoint::kDrain:
      return "drain";
    case ReqEndpoint::kMonitor:
      return "monitor";
    case ReqEndpoint::kOther:
      return "other";
  }
  return "unknown";
}

bool ParseTraceparent(const std::string& header, TraceContext* ctx) {
  // 00-<32 hex>-<16 hex>-<2 hex>  =>  2+1+32+1+16+1+2 = 55 chars, exactly.
  if (header.size() != 55) return false;
  if (header[0] != '0' || header[1] != '0') return false;
  if (header[2] != '-' || header[35] != '-' || header[52] != '-') return false;
  uint64_t hi = 0, lo = 0, span = 0, flags = 0;
  if (!ParseHex(header, 3, 16, &hi) || !ParseHex(header, 19, 16, &lo) ||
      !ParseHex(header, 36, 16, &span) || !ParseHex(header, 53, 2, &flags)) {
    return false;
  }
  if ((hi | lo) == 0 || span == 0) return false;
  ctx->trace_hi = hi;
  ctx->trace_lo = lo;
  ctx->parent_span = span;
  ctx->sampled = (flags & 0x01) != 0;
  return true;
}

std::string FormatTraceparent(const TraceContext& ctx, uint64_t span_id) {
  char buf[64];
  snprintf(buf, sizeof(buf), "00-%016" PRIx64 "%016" PRIx64 "-%016" PRIx64
                             "-%02x",
           ctx.trace_hi, ctx.trace_lo, span_id, ctx.sampled ? 1u : 0u);
  return buf;
}

void RequestTracer::AtomicHist::Record(int64_t nanos) {
  if (nanos < 0) nanos = 0;
  buckets[static_cast<size_t>(LatencyHistogram::BucketIndexFor(nanos))]
      .fetch_add(1, std::memory_order_relaxed);
  count.fetch_add(1, std::memory_order_relaxed);
  sum.fetch_add(nanos, std::memory_order_relaxed);
  int64_t cur = min.load(std::memory_order_relaxed);
  while (nanos < cur &&
         !min.compare_exchange_weak(cur, nanos, std::memory_order_relaxed)) {
  }
  cur = max.load(std::memory_order_relaxed);
  while (nanos > cur &&
         !max.compare_exchange_weak(cur, nanos, std::memory_order_relaxed)) {
  }
}

LatencyHistogram RequestTracer::AtomicHist::ToHistogram() const {
  std::array<uint64_t, LatencyHistogram::kBuckets> raw{};
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    raw[static_cast<size_t>(i)] =
        buckets[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  LatencyHistogram h;
  const uint64_t n = count.load(std::memory_order_relaxed);
  const int64_t lo = min.load(std::memory_order_relaxed);
  h.AccumulateRaw(raw, n,
                  static_cast<double>(sum.load(std::memory_order_relaxed)),
                  lo == INT64_MAX ? 0 : lo,
                  max.load(std::memory_order_relaxed));
  return h;
}

RequestTracer::RequestTracer(size_t capacity, double sample_rate,
                             int64_t slow_budget_ns)
    : epoch_(std::chrono::steady_clock::now()),
      sample_rate_(sample_rate),
      slow_budget_ns_(slow_budget_ns),
      rng_state_(
          static_cast<uint64_t>(
              std::chrono::steady_clock::now().time_since_epoch().count()) ^
          reinterpret_cast<uintptr_t>(this)) {
  if (capacity > 0) {
    slots_ = std::vector<Slot>(RoundUpPow2(capacity));
  }
  if (sample_rate_ >= 1.0) {
    always_sample_ = true;
    never_sample_ = false;
  } else if (sample_rate_ > 0.0) {
    never_sample_ = false;
    // rate * 2^64, computed as rate * 2^32 * 2^32 to stay in double range.
    sample_threshold_ = static_cast<uint64_t>(
        sample_rate_ * 4294967296.0 * 4294967296.0);
    if (sample_threshold_ == 0) sample_threshold_ = 1;
  }
}

uint64_t RequestTracer::NextRand() {
  const uint64_t z =
      rng_state_.fetch_add(0x9e3779b97f4a7c15ULL, std::memory_order_relaxed) +
      0x9e3779b97f4a7c15ULL;
  return Mix64(z);
}

TraceContext RequestTracer::Mint() {
  TraceContext ctx;
  do {
    ctx.trace_hi = NextRand();
    ctx.trace_lo = NextRand();
  } while (!ctx.valid());
  if (always_sample_) {
    ctx.sampled = true;
  } else if (never_sample_) {
    ctx.sampled = false;
  } else {
    ctx.sampled = NextRand() < sample_threshold_;
  }
  // A sampled context is useless without a ring to land spans in.
  if (slots_.empty()) ctx.sampled = false;
  return ctx;
}

uint64_t RequestTracer::NewSpanId() {
  uint64_t id;
  do {
    id = NextRand();
  } while (id == 0);
  return id;
}

void RequestTracer::Emit(const TraceContext& ctx, uint64_t span_id,
                         uint64_t parent_span, ReqStage stage, int32_t shard,
                         uint16_t worker, int64_t start_ns,
                         int64_t duration_ns, uint64_t detail) {
  stage_hist_[static_cast<size_t>(stage)].Record(duration_ns);
  if (slots_.empty()) return;
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq & (slots_.size() - 1)];
  // Seqlock write, as in TraceRing::Emit: the odd version is taken by CAS,
  // so two writers that meet on a wrapped slot run one after the other
  // instead of interleaving their fields under one even version.
  uint64_t v = slot.version.load(std::memory_order_relaxed);
  while ((v & 1) != 0 ||
         !slot.version.compare_exchange_weak(v, v + 1,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
    if ((v & 1) != 0) v = slot.version.load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_release);
  slot.seq.store(seq, std::memory_order_relaxed);
  slot.trace_hi.store(ctx.trace_hi, std::memory_order_relaxed);
  slot.trace_lo.store(ctx.trace_lo, std::memory_order_relaxed);
  slot.span_id.store(span_id, std::memory_order_relaxed);
  slot.parent_span.store(parent_span, std::memory_order_relaxed);
  slot.stage.store(static_cast<uint8_t>(stage), std::memory_order_relaxed);
  slot.shard.store(shard, std::memory_order_relaxed);
  slot.worker.store(worker, std::memory_order_relaxed);
  slot.start_ns.store(start_ns, std::memory_order_relaxed);
  slot.duration_ns.store(duration_ns, std::memory_order_relaxed);
  slot.detail.store(detail, std::memory_order_relaxed);
  slot.version.store(v + 2, std::memory_order_release);
}

void RequestTracer::CountRequest(ReqEndpoint endpoint, bool error,
                                 int64_t duration_ns) {
  EndpointCounters& c = endpoints_[static_cast<size_t>(endpoint)];
  c.requests.fetch_add(1, std::memory_order_relaxed);
  if (error) c.errors.fetch_add(1, std::memory_order_relaxed);
  c.duration.Record(duration_ns);
}

void RequestTracer::CountSample(bool sampled) {
  if (sampled) {
    sampled_requests_.fetch_add(1, std::memory_order_relaxed);
  } else {
    unsampled_requests_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool RequestTracer::ReadSlot(const Slot& slot, RequestSpan* out) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint64_t v1 = slot.version.load(std::memory_order_acquire);
    if (v1 & 1) continue;
    out->seq = slot.seq.load(std::memory_order_relaxed);
    out->trace_hi = slot.trace_hi.load(std::memory_order_relaxed);
    out->trace_lo = slot.trace_lo.load(std::memory_order_relaxed);
    out->span_id = slot.span_id.load(std::memory_order_relaxed);
    out->parent_span = slot.parent_span.load(std::memory_order_relaxed);
    out->stage =
        static_cast<ReqStage>(slot.stage.load(std::memory_order_relaxed));
    out->shard = slot.shard.load(std::memory_order_relaxed);
    out->worker = slot.worker.load(std::memory_order_relaxed);
    out->start_ns = slot.start_ns.load(std::memory_order_relaxed);
    out->duration_ns = slot.duration_ns.load(std::memory_order_relaxed);
    out->detail = slot.detail.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.version.load(std::memory_order_relaxed) == v1) return true;
  }
  return false;
}

std::vector<RequestSpan> RequestTracer::Snapshot() const {
  std::vector<RequestSpan> out;
  if (slots_.empty()) return out;
  const uint64_t emitted = next_.load(std::memory_order_acquire);
  const uint64_t retained =
      std::min<uint64_t>(emitted, slots_.size());
  out.reserve(static_cast<size_t>(retained));
  RequestSpan span;
  for (uint64_t i = emitted - retained; i < emitted; ++i) {
    if (ReadSlot(slots_[i & (slots_.size() - 1)], &span)) {
      out.push_back(span);
    }
  }
  return out;
}

void RequestTracer::Fill(ReqStatsSnapshot* out) const {
  out->attached = true;
  out->sample_rate = sample_rate_;
  out->capacity = slots_.size();
  out->spans_emitted = total_emitted();
  out->sampled_requests = sampled_requests();
  out->unsampled_requests = unsampled_requests();
  out->slow_captures = slow_captures();
  out->slow_budget_ns = slow_budget_ns_;
  out->stages.clear();
  // The seven fixed stage families, kRequest excluded (it is the RED
  // duration); all seven are present even when empty so dashboards can
  // key on them before traffic arrives.
  for (int s = 1; s < kNumReqStages; ++s) {
    ReqStageStatsSnapshot stage;
    stage.stage = ReqStageToString(static_cast<ReqStage>(s));
    stage.latency = stage_hist_[static_cast<size_t>(s)].ToHistogram();
    out->stages.push_back(std::move(stage));
  }
  out->endpoints.clear();
  for (int e = 0; e < kNumReqEndpoints; ++e) {
    ReqEndpointStatsSnapshot endpoint;
    endpoint.endpoint = ReqEndpointToString(static_cast<ReqEndpoint>(e));
    const EndpointCounters& c = endpoints_[static_cast<size_t>(e)];
    endpoint.requests = c.requests.load(std::memory_order_relaxed);
    endpoint.errors = c.errors.load(std::memory_order_relaxed);
    endpoint.duration = c.duration.ToHistogram();
    out->endpoints.push_back(std::move(endpoint));
  }
}

namespace {

// Spans of one trace, grouped on read.
struct TraceGroup {
  uint64_t hi = 0;
  uint64_t lo = 0;
  uint64_t max_seq = 0;
  const RequestSpan* root = nullptr;
  std::vector<const RequestSpan*> spans;
};

void RenderOneTrace(std::string* out, const TraceGroup& trace) {
  char trace_id[40];
  snprintf(trace_id, sizeof(trace_id), "%016" PRIx64 "%016" PRIx64, trace.hi,
           trace.lo);
  int64_t start_ns = INT64_MAX;
  int64_t end_ns = 0;
  for (const RequestSpan* s : trace.spans) {
    start_ns = std::min(start_ns, s->start_ns);
    end_ns = std::max(end_ns, s->start_ns + s->duration_ns);
  }
  if (trace.spans.empty()) start_ns = 0;
  const int64_t total_ns =
      trace.root != nullptr ? trace.root->duration_ns : end_ns - start_ns;
  StrAppendf(out, "{\"trace_id\":\"%s\",\"root_span_id\":\"%016" PRIx64
                  "\",\"start_ns\":%" PRId64 ",\"total_ns\":%" PRId64
                  ",\"spans\":[",
             trace_id, trace.root != nullptr ? trace.root->span_id : 0,
             start_ns, total_ns);
  for (size_t i = 0; i < trace.spans.size(); ++i) {
    const RequestSpan& s = *trace.spans[i];
    if (i > 0) *out += ",";
    StrAppendf(out, "{\"span_id\":\"%016" PRIx64 "\",\"parent_span_id\":\"%016"
                    PRIx64 "\",\"stage\":\"%s\",\"shard\":%d,\"worker\":%u"
                    ",\"start_ns\":%" PRId64 ",\"duration_ns\":%" PRId64
                    ",\"detail\":%" PRIu64 "}",
               s.span_id, s.parent_span, ReqStageToString(s.stage), s.shard,
               unsigned{s.worker}, s.start_ns, s.duration_ns, s.detail);
  }
  *out += "]}";
}

std::vector<TraceGroup> GroupTraces(const std::vector<RequestSpan>& spans) {
  std::map<std::pair<uint64_t, uint64_t>, size_t> index;
  std::vector<TraceGroup> traces;
  for (const RequestSpan& span : spans) {
    const auto key = std::make_pair(span.trace_hi, span.trace_lo);
    auto [it, inserted] = index.emplace(key, traces.size());
    if (inserted) {
      traces.emplace_back();
      traces.back().hi = span.trace_hi;
      traces.back().lo = span.trace_lo;
    }
    TraceGroup& trace = traces[it->second];
    trace.max_seq = std::max(trace.max_seq, span.seq);
    // The request span is the root. Matching on stage (not parent 0)
    // keeps detection working when a client traceparent supplied the
    // parent: the server root then carries the CLIENT's span id as its
    // parent, which is nonzero.
    if (span.stage == ReqStage::kRequest) trace.root = &span;
    trace.spans.push_back(&span);
  }
  for (TraceGroup& trace : traces) {
    std::sort(trace.spans.begin(), trace.spans.end(),
              [](const RequestSpan* a, const RequestSpan* b) {
                if (a->start_ns != b->start_ns) {
                  return a->start_ns < b->start_ns;
                }
                return a->seq < b->seq;
              });
  }
  return traces;
}

}  // namespace

std::string RequestTracer::RenderRequestsJson(size_t max_traces) const {
  const std::vector<RequestSpan> spans = Snapshot();
  std::vector<TraceGroup> traces = GroupTraces(spans);
  std::sort(traces.begin(), traces.end(),
            [](const TraceGroup& a, const TraceGroup& b) {
              return a.max_seq > b.max_seq;  // newest first
            });
  if (traces.size() > max_traces) traces.resize(max_traces);

  std::string out;
  StrAppendf(&out, "{\"emitted\":%" PRIu64 ",\"capacity\":%zu"
                   ",\"sample_rate\":%g,\"traces\":[",
             total_emitted(), slots_.size(), sample_rate_);
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) out += ",";
    RenderOneTrace(&out, traces[i]);
  }
  out += "]}";
  return out;
}

std::string RequestTracer::RenderTraceTreeJson(uint64_t trace_hi,
                                               uint64_t trace_lo) const {
  const std::vector<RequestSpan> spans = Snapshot();
  const std::vector<TraceGroup> traces = GroupTraces(spans);
  for (const TraceGroup& trace : traces) {
    if (trace.hi == trace_hi && trace.lo == trace_lo) {
      std::string out;
      RenderOneTrace(&out, trace);
      return out;
    }
  }
  // The ring has already recycled this trace's slots: an empty tree with
  // the id, so the dump still says WHICH request was slow.
  char trace_id[40];
  snprintf(trace_id, sizeof(trace_id), "%016" PRIx64 "%016" PRIx64, trace_hi,
           trace_lo);
  std::string out;
  StrAppendf(&out, "{\"trace_id\":\"%s\",\"root_span_id\":"
                   "\"0000000000000000\",\"start_ns\":0,\"total_ns\":0,"
                   "\"spans\":[]}",
             trace_id);
  return out;
}

void RequestTracer::set_slow_capture(SlowCaptureFn fn) {
  std::lock_guard<std::mutex> lock(slow_mu_);
  slow_capture_ = std::move(fn);
}

void RequestTracer::MaybeCaptureSlow(const TraceContext& ctx,
                                     int64_t total_ns) {
  if (slow_budget_ns_ <= 0 || total_ns <= slow_budget_ns_) return;
  if (!ctx.sampled || !ctx.valid()) return;
  std::lock_guard<std::mutex> lock(slow_mu_);
  if (!slow_capture_) return;
  slow_captures_.fetch_add(1, std::memory_order_relaxed);
  slow_capture_(ctx.trace_hi, ctx.trace_lo, total_ns);
}

namespace {
thread_local RequestScopeState g_request_scope;
}  // namespace

RequestScope::RequestScope(RequestTracer* tracer, const TraceContext& ctx,
                           uint64_t root_span, uint16_t worker) {
  if (tracer == nullptr || !ctx.sampled) return;
  installed_ = true;
  saved_ = g_request_scope;
  g_request_scope.tracer = tracer;
  g_request_scope.ctx = ctx;
  g_request_scope.root_span = root_span;
  g_request_scope.worker = worker;
}

RequestScope::~RequestScope() {
  if (installed_) g_request_scope = saved_;
}

RequestScopeState* RequestScope::Current() {
  return g_request_scope.tracer != nullptr ? &g_request_scope : nullptr;
}

}  // namespace obs
}  // namespace chronicle
