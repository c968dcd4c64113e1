#include "obs/history.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "common/strings.h"

namespace chronicle {
namespace obs {

namespace {

// Percentile over the bucket-wise DIFFERENCE of two cumulative histograms
// (newer minus older): the distribution of only the samples recorded
// between them. Same resolution contract as LatencyHistogram's own
// PercentileNanos (the bucket upper bound).
int64_t DiffPercentile(const LatencyHistogram& newer,
                       const LatencyHistogram& older, double q) {
  uint64_t total = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    total += newer.bucket(i) - older.bucket(i);
  }
  if (total == 0) return 0;
  const uint64_t target = static_cast<uint64_t>(q * static_cast<double>(total));
  uint64_t cumulative = 0;
  for (int i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += newer.bucket(i) - older.bucket(i);
    if (cumulative > target || cumulative == total) {
      return LatencyHistogram::BucketUpperBound(i);
    }
  }
  return LatencyHistogram::BucketUpperBound(LatencyHistogram::kBuckets - 1);
}

uint64_t MetricValue(const StatsSnapshot& snapshot, const char* name) {
  for (const MetricSample& m : snapshot.metrics) {
    if (!m.is_histogram && m.name == name) return m.value;
  }
  return 0;
}

const LatencyHistogram* MetricHistogram(const StatsSnapshot& snapshot,
                                        const char* name) {
  for (const MetricSample& m : snapshot.metrics) {
    if (m.is_histogram && m.name == name) return &m.histogram;
  }
  return nullptr;
}

// One sparkline over `values`, scaled to the max (all-zero renders flat).
std::string Sparkline(const std::vector<double>& values) {
  static const char* kBars[] = {"▁", "▂", "▃", "▄",
                                "▅", "▆", "▇", "█"};
  double max = 0.0;
  for (double v : values) max = std::max(max, v);
  std::string out;
  for (double v : values) {
    const int level =
        max <= 0.0 ? 0
                   : std::min(7, static_cast<int>(v / max * 7.0 + 0.5));
    out += kBars[level];
  }
  return out;
}

std::string HumanRate(double v) {
  char buf[32];
  if (v >= 1e6) {
    snprintf(buf, sizeof(buf), "%.1fM", v / 1e6);
  } else if (v >= 1e3) {
    snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
  } else {
    snprintf(buf, sizeof(buf), "%.1f", v);
  }
  return buf;
}

}  // namespace

StatsHistory::StatsHistory(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void StatsHistory::Push(int64_t t_ns, const StatsSnapshot& snapshot) {
  HistorySample sample;
  sample.t_ns = t_ns;
  sample.appends = snapshot.appends_processed;
  sample.delta_rows = MetricValue(snapshot, "maintenance_delta_rows_total");
  sample.view_ticks = MetricValue(snapshot, "maintenance_view_ticks_total");
  if (const LatencyHistogram* h =
          MetricHistogram(snapshot, "maintenance_tick_ns")) {
    sample.tick_latency = *h;
  }
  if (snapshot.sharding.attached) {
    sample.shards.reserve(snapshot.sharding.shards.size());
    for (const ShardStatsSnapshot& s : snapshot.sharding.shards) {
      ShardHistorySample shard;
      shard.shard = s.shard;
      shard.appends = s.appends_processed;
      shard.routed_rows = s.routed_rows;
      shard.queue_depth = s.queue_depth;
      if (s.tick_latency_populated) shard.tick_latency = s.tick_latency;
      sample.shards.push_back(std::move(shard));
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(sample));
  } else {
    ring_[next_ % capacity_] = std::move(sample);
  }
  ++next_;
}

std::vector<HistorySample> StatsHistory::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistorySample> out;
  out.reserve(ring_.size());
  const uint64_t oldest = next_ < capacity_ ? 0 : next_ - capacity_;
  for (uint64_t i = oldest; i < next_; ++i) {
    out.push_back(ring_[i % capacity_]);
  }
  return out;
}

std::vector<HistoryWindow> StatsHistory::Windows() const {
  const std::vector<HistorySample> samples = Samples();
  std::vector<HistoryWindow> out;
  if (samples.size() < 2) return out;
  out.reserve(samples.size() - 1);
  for (size_t i = 1; i < samples.size(); ++i) {
    const HistorySample& a = samples[i - 1];
    const HistorySample& b = samples[i];
    HistoryWindow w;
    w.t_ns = b.t_ns;
    w.seconds = static_cast<double>(b.t_ns - a.t_ns) / 1e9;
    const double secs = w.seconds > 0.0 ? w.seconds : 1e-9;
    w.appends_per_sec = static_cast<double>(b.appends - a.appends) / secs;
    w.delta_rows_per_sec =
        static_cast<double>(b.delta_rows - a.delta_rows) / secs;
    w.view_ticks = b.view_ticks - a.view_ticks;
    w.tick_p50_ns = DiffPercentile(b.tick_latency, a.tick_latency, 0.5);
    w.tick_p99_ns = DiffPercentile(b.tick_latency, a.tick_latency, 0.99);
    // Per-shard windows only when both samples describe the same shard
    // layout; a mismatch (resharding, sampler started mid-reopen) would
    // make the counter differences meaningless.
    if (!b.shards.empty() && a.shards.size() == b.shards.size()) {
      bool same_layout = true;
      for (size_t k = 0; k < b.shards.size(); ++k) {
        if (a.shards[k].shard != b.shards[k].shard) {
          same_layout = false;
          break;
        }
      }
      if (same_layout) {
        w.shards.reserve(b.shards.size());
        for (size_t k = 0; k < b.shards.size(); ++k) {
          const ShardHistorySample& sa = a.shards[k];
          const ShardHistorySample& sb = b.shards[k];
          ShardHistoryWindow sw;
          sw.shard = sb.shard;
          sw.appends_per_sec =
              static_cast<double>(sb.appends - sa.appends) / secs;
          sw.routed_rows_per_sec =
              static_cast<double>(sb.routed_rows - sa.routed_rows) / secs;
          sw.queue_depth = sb.queue_depth;
          sw.tick_p50_ns =
              DiffPercentile(sb.tick_latency, sa.tick_latency, 0.5);
          sw.tick_p99_ns =
              DiffPercentile(sb.tick_latency, sa.tick_latency, 0.99);
          w.shards.push_back(sw);
        }
      }
    }
    out.push_back(w);
  }
  return out;
}

uint64_t StatsHistory::total_samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_;
}

std::string RenderHistoryJson(const std::vector<HistoryWindow>& windows,
                              uint64_t total_samples, uint64_t capacity) {
  std::string out;
  StrAppendf(&out, "{\"samples\":%" PRIu64 ",\"capacity\":%" PRIu64
                   ",\"windows\":[",
             total_samples, capacity);
  for (size_t i = 0; i < windows.size(); ++i) {
    const HistoryWindow& w = windows[i];
    if (i > 0) out += ",";
    StrAppendf(&out,
               "{\"t_ns\":%" PRId64 ",\"seconds\":%.6f,\"appends_per_sec\":%.3f"
               ",\"delta_rows_per_sec\":%.3f,\"view_ticks\":%" PRIu64
               ",\"tick_p50_ns\":%" PRId64 ",\"tick_p99_ns\":%" PRId64,
               w.t_ns, w.seconds, w.appends_per_sec, w.delta_rows_per_sec,
               w.view_ticks, w.tick_p50_ns, w.tick_p99_ns);
    if (!w.shards.empty()) {
      out += ",\"shards\":[";
      for (size_t k = 0; k < w.shards.size(); ++k) {
        const ShardHistoryWindow& s = w.shards[k];
        if (k > 0) out += ",";
        StrAppendf(&out,
                   "{\"shard\":%zu,\"appends_per_sec\":%.3f"
                   ",\"routed_rows_per_sec\":%.3f,\"queue_depth\":%" PRIu64
                   ",\"tick_p50_ns\":%" PRId64 ",\"tick_p99_ns\":%" PRId64 "}",
                   s.shard, s.appends_per_sec, s.routed_rows_per_sec,
                   s.queue_depth, s.tick_p50_ns, s.tick_p99_ns);
      }
      out += "]";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string RenderHistoryText(const std::vector<HistoryWindow>& windows) {
  if (windows.empty()) {
    return "history: not enough samples yet (need two sampler ticks)\n";
  }
  std::vector<double> appends, rows, p99;
  appends.reserve(windows.size());
  rows.reserve(windows.size());
  p99.reserve(windows.size());
  for (const HistoryWindow& w : windows) {
    appends.push_back(w.appends_per_sec);
    rows.push_back(w.delta_rows_per_sec);
    p99.push_back(static_cast<double>(w.tick_p99_ns));
  }
  const HistoryWindow& last = windows.back();
  std::string out;
  StrAppendf(&out, "history: %zu window(s), newest last\n", windows.size());
  StrAppendf(&out, "  appends/s    %s  now %s\n", Sparkline(appends).c_str(),
             HumanRate(last.appends_per_sec).c_str());
  StrAppendf(&out, "  delta rows/s %s  now %s\n", Sparkline(rows).c_str(),
             HumanRate(last.delta_rows_per_sec).c_str());
  StrAppendf(&out,
             "  tick p99     %s  now %.1fus (p50 %.1fus, %" PRIu64 " ticks)\n",
             Sparkline(p99).c_str(), last.tick_p99_ns / 1e3,
             last.tick_p50_ns / 1e3, last.view_ticks);
  return out;
}

StatsSampler::StatsSampler(StatsHistory* history, SnapshotProvider provider,
                           int64_t interval_ms)
    : history_(history),
      provider_(std::move(provider)),
      interval_ms_(interval_ms < 1 ? 1 : interval_ms) {
  history_->Push(NowNanos(), provider_());
  thread_ = std::thread([this] { Loop(); });
}

StatsSampler::~StatsSampler() { Stop(); }

int64_t StatsSampler::NowNanos() const {
  // Absolute steady-clock nanoseconds: the same timebase the database's
  // off-schedule SampleStatsNow stamps with, so windows straddling a
  // sampler restart keep positive widths.
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void StatsSampler::SampleNow() { history_->Push(NowNanos(), provider_()); }

void StatsSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StatsSampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                     [this] { return stop_; })) {
      return;
    }
    lock.unlock();
    history_->Push(NowNanos(), provider_());
    lock.lock();
  }
}

}  // namespace obs
}  // namespace chronicle
