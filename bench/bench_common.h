// Shared helpers for the experiment benches (E1..E12). Each bench binary
// regenerates one experiment from DESIGN.md §5; the pass criteria (curve
// shapes, who wins) are recorded in EXPERIMENTS.md.
//
// Smoke mode: every bench accepts `--smoke` (or CHRONICLE_BENCH_SMOKE=1 in
// the environment). It shrinks the registered problem sizes (via Scaled)
// and clamps --benchmark_min_time so the whole binary finishes in seconds.
// CI runs every bench this way on every push, so benchmarks cannot bitrot
// uncompiled or crash unnoticed. Benches use CHRONICLE_BENCH_MAIN() in
// place of BENCHMARK_MAIN() to get the flag handling.

#ifndef CHRONICLE_BENCH_BENCH_COMMON_H_
#define CHRONICLE_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace chronicle {
namespace bench {

// Benches treat any library error as fatal: a broken setup would silently
// invalidate the experiment.
inline void Check(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench setup failed: %s\n", status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T Unwrap(Result<T> result) {
  Check(result.status());
  return std::move(result).value();
}

// True when the binary runs in smoke mode. Benchmark sizes are registered
// during static initialization — before main() can parse argv — so this
// checks the CHRONICLE_BENCH_SMOKE environment variable and, on Linux,
// scans /proc/self/cmdline for a literal `--smoke` argument (NUL-separated,
// so no substring false positives). The result is computed once.
inline bool SmokeMode() {
  static const bool smoke = [] {
    if (std::getenv("CHRONICLE_BENCH_SMOKE") != nullptr) return true;
    std::ifstream cmdline("/proc/self/cmdline", std::ios::binary);
    if (!cmdline) return false;
    std::string raw((std::istreambuf_iterator<char>(cmdline)),
                    std::istreambuf_iterator<char>());
    size_t pos = 0;
    while (pos < raw.size()) {
      const size_t end = raw.find('\0', pos);
      const std::string arg = raw.substr(pos, end - pos);
      if (arg == "--smoke") return true;
      if (end == std::string::npos) break;
      pos = end + 1;
    }
    return false;
  }();
  return smoke;
}

// Experiment size selector: the real size normally, the tiny one in smoke
// mode. Use on Range/Args upper bounds and setup loop counts.
inline int64_t Scaled(int64_t full, int64_t smoke) {
  return SmokeMode() ? smoke : full;
}

// "E<k>" derived from the binary name ("bench_e<k>_..."), or "" when the
// name does not follow the experiment convention.
inline std::string BenchTag(const char* argv0) {
  std::string base = argv0;
  const size_t slash = base.find_last_of('/');
  if (slash != std::string::npos) base = base.substr(slash + 1);
  const char* prefix = "bench_e";
  if (base.rfind(prefix, 0) != 0) return "";
  std::string digits;
  for (size_t i = std::strlen(prefix); i < base.size() && std::isdigit(static_cast<unsigned char>(base[i])); ++i) {
    digits.push_back(base[i]);
  }
  if (digits.empty()) return "";
  return "E" + digits;
}

// Directory smoke artifacts land in: CHRONICLE_BENCH_OUT_DIR when set,
// else the repo root baked in at compile time (CHRONICLE_BENCH_ROOT), else
// the CWD. Anchoring to the repo root means `build/bench/bench_e13_...
// --smoke` writes the same BENCH_E13.json no matter where it is launched
// from — CI and humans stop disagreeing about where the reports went.
inline std::string SmokeReportDir() {
  if (const char* dir = std::getenv("CHRONICLE_BENCH_OUT_DIR")) return dir;
#ifdef CHRONICLE_BENCH_ROOT
  return CHRONICLE_BENCH_ROOT;
#else
  return ".";
#endif
}

// Full path of this bench's smoke report ("<dir>/BENCH_E<k>.json"), or ""
// when the binary name carries no experiment tag.
inline std::string SmokeReportFile(const char* argv0) {
  const std::string tag = BenchTag(argv0);
  if (tag.empty()) return "";
  return SmokeReportDir() + "/BENCH_" + tag + ".json";
}

// Full path for an extra smoke artifact (e.g. STATS_E13.json), anchored
// like the report itself.
inline std::string SmokeArtifactFile(const std::string& name) {
  return SmokeReportDir() + "/" + name;
}

// File reporter producing the standardized cross-bench schema
//   {"bench":"E<k>","metrics":{"<run name>":{"real_time_ns":...,
//    "cpu_time_ns":...,"iterations":N,"counters":{...}}}}
// instead of google-benchmark's native report, whose layout drifts across
// library versions and buries the numbers three levels deep. CI validates
// exactly this shape for every experiment.
class SmokeReporter : public benchmark::BenchmarkReporter {
 public:
  explicit SmokeReporter(std::string bench) : bench_(std::move(bench)) {}

  bool ReportContext(const Context&) override { return true; }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      std::string entry = "{";
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"real_time_ns\":%s,\"cpu_time_ns\":%s,"
                    "\"iterations\":%lld",
                    Num(ToNs(run.GetAdjustedRealTime(), run.time_unit)).c_str(),
                    Num(ToNs(run.GetAdjustedCPUTime(), run.time_unit)).c_str(),
                    static_cast<long long>(run.iterations));
      entry += buf;
      entry += ",\"counters\":{";
      bool first = true;
      for (const auto& [name, counter] : run.counters) {
        if (!first) entry += ",";
        first = false;
        std::snprintf(buf, sizeof(buf), "\"%s\":%s", Escape(name).c_str(),
                      Num(static_cast<double>(counter)).c_str());
        entry += buf;
      }
      entry += "}}";
      // Keyed by the full run name ("UnionFan/u:64/compiled:1", aggregates
      // get a _mean/_median suffix). Repetition runs share a name; last one
      // wins, which keeps the JSON free of duplicate keys — consumers that
      // want stability read the _median entry.
      entries_[run.benchmark_name()] = std::move(entry);
    }
  }

  void Finalize() override {
    std::string body;
    for (const auto& [name, entry] : entries_) {
      if (!body.empty()) body += ",";
      body.append("\"").append(Escape(name)).append("\":").append(entry);
    }
    GetOutputStream() << "{\"bench\":\"" << Escape(bench_)
                      << "\",\"metrics\":{" << body << "}}\n";
  }

 private:
  // JSON number rendering; NaN/Inf (the cv aggregate divides by zero on
  // constant counters) become null — JSON has no non-finite literals.
  static std::string Num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  static double ToNs(double v, benchmark::TimeUnit unit) {
    switch (unit) {
      case benchmark::kNanosecond:
        return v;
      case benchmark::kMicrosecond:
        return v * 1e3;
      case benchmark::kMillisecond:
        return v * 1e6;
      default:
        return v * 1e9;  // kSecond
    }
  }

  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::string bench_;
  std::map<std::string, std::string> entries_;
};

// Entry point shared by all benches: strips `--smoke` (google-benchmark
// rejects unknown flags), clamps min_time in smoke mode, then runs. Smoke
// runs write the standardized report to SmokeReportFile(argv[0]).
inline int RunMain(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc) + 2);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) continue;
    args.push_back(argv[i]);
  }
  static char min_time[] = "--benchmark_min_time=0.01";
  std::string out_flag;  // must outlive Initialize
  std::string report;
  if (SmokeMode()) {
    args.insert(args.begin() + 1, min_time);
    report = SmokeReportFile(argv[0]);
  }
  // Full-length runs can still request the standardized report (CI's
  // overhead gate re-runs E13 with real iteration counts this way).
  if (const char* path = std::getenv("CHRONICLE_BENCH_REPORT")) {
    report = path;
  }
  if (!report.empty()) {
    // The library opens the file and hands the reporter its stream.
    out_flag = "--benchmark_out=" + report;
    args.insert(args.begin() + 1, out_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  if (!report.empty()) {
    SmokeReporter file_reporter(BenchTag(argv[0]));
    benchmark::RunSpecifiedBenchmarks(nullptr, &file_reporter);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench
}  // namespace chronicle

#define CHRONICLE_BENCH_MAIN()                      \
  int main(int argc, char** argv) {                 \
    return chronicle::bench::RunMain(argc, argv);   \
  }

#endif  // CHRONICLE_BENCH_BENCH_COMMON_H_
