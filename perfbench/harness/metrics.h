// Metric helpers shared by every workload: percentiles that refuse to
// report a tail the sample cannot support, metric-name validation, and the
// one-line JSON report that ends the benchmark's output.

#ifndef PERFBENCH_CORE_METRICS_H_
#define PERFBENCH_CORE_METRICS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples lie
// beyond it: p99 needs 1000 samples, p50 needs 20.
inline constexpr size_t kMinTailSamples = 10;

// Nearest-rank percentile of `samples` at quantile q in (0, 1), or nullopt
// when fewer than kMinTailSamples samples lie above it.
std::optional<double> Percentile(std::vector<double> samples, double q);

// Median of any non-empty sample (no tail rule: used for small sets such as
// repeated set-up times). 0 when empty.
double Median(std::vector<double> samples);

// Metric names are [A-Za-z0-9_.-]+, at most 64 characters, starting with a
// letter or digit.
bool ValidMetricName(const std::string& name);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// {"correct":...,"attempted":...,"failed":...,"metrics":{"name":{"value":
// ...,"unit":"..."}}} on one line. Values keep every digit (%.17g).
std::string RenderReport(const Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_METRICS_H_
