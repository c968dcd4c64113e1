// perfbench: runs one workload and prints its metrics; the last line of
// standard output is the JSON report. run.py builds this binary and is the
// command BENCHMARK.json names.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--spans-out FILE]
//   perfbench --sample-report      (prints a synthetic report; tests only)
//
// --trace 0 prints the end-to-end metrics of one pass (set-up repeated
// kSetups times, setup_s is the median). --trace 1 runs an untraced pass and
// a traced pass with the same seed and prints the per-layer metrics of the
// traced one, plus obs.trace_overhead_pct between the two.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness/metrics.h"
#include "harness/spans.h"
#include "workloads/common.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using WorkloadFn = bool (*)(const PassConfig&, PassResult*, double*);

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 9;

WorkloadFn Lookup(const std::string& name) {
  if (name == "wire_ingest") return RunWireIngest;
  if (name == "view_fanout") return RunViewFanout;
  if (name == "shard_pipeline") return RunShardPipeline;
  return nullptr;
}

int Usage() {
  std::cerr << "usage: perfbench --workload wire_ingest|view_fanout|"
               "shard_pipeline --seed N --seconds S --trace 0|1 --work-dir "
               "DIR [--spans-out FILE]\n";
  return 2;
}

// Prints every metric by name and unit, then the JSON report as the last
// line. Returns false if a metric name is malformed.
bool Print(const Report& report) {
  for (const Metric& m : report.metrics) {
    if (!ValidMetricName(m.name)) return Fail("bad metric name " + m.name);
    std::printf("%-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-32s %16.6g (failed %llu of %llu operations)\n",
              "failed_ratio",
              report.attempted > 0 ? static_cast<double>(report.failed) /
                                         static_cast<double>(report.attempted)
                                   : 0.0,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("%s\n", RenderReport(report).c_str());
  std::fflush(stdout);
  return true;
}

int Main(int argc, char** argv) {
  Options opts;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sample-report") {
      Report sample{true, 3, 0, {{"latency_ms", "ms", 1.25}, {"setup_s", "s", 0.5}}};
      return Print(sample) ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      return Usage();
    }
  }
  const WorkloadFn run = Lookup(opts.workload);
  if (run == nullptr || opts.work_dir.empty() || !(opts.seconds > 0)) {
    return Usage();
  }
  std::filesystem::create_directories(opts.work_dir);

  Report report;
  if (!opts.trace) {
    SpanStore spans(false);
    PassResult pass;
    double setup_s = 0;
    if (!run(PassConfig{&opts, false, kSetups, &spans}, &pass, &setup_s)) {
      return 1;
    }
    if (!EndToEndMetrics(pass, setup_s, &report.metrics)) return 1;
    report.correct = pass.correct;
    report.attempted = pass.attempted;
    report.failed = pass.failed;
  } else {
    SpanStore off(false);
    PassResult base;
    double setup_s = 0;
    if (!run(PassConfig{&opts, false, 1, &off}, &base, &setup_s)) return 1;
    SpanStore spans(true);
    PassResult traced;
    if (!run(PassConfig{&opts, true, 1, &spans}, &traced, &setup_s)) return 1;
    const double base_rate = IngestRowsPerSecond(base);
    traced.layer["obs.trace_overhead_pct"] =
        base_rate > 0
            ? (base_rate - IngestRowsPerSecond(traced)) / base_rate * 100.0
            : 0.0;
    traced.layer["obs.spans_emitted"] += static_cast<double>(spans.recorded());
    if (!spans_out.empty() && !spans.WriteJson(spans_out)) {
      return Fail("cannot write " + spans_out), 1;
    }
    report.metrics = LayerMetrics(traced.layer);
    report.correct = base.correct && traced.correct;
    report.attempted = traced.attempted;
    report.failed = traced.failed;
  }
  if (!Print(report)) return 1;
  // A failed oracle check fails the command after the report is printed.
  return report.correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
