#include "harness/open_loop.h"

#include <chrono>
#include <thread>

#include "harness/spans.h"

namespace perfbench {
namespace {

constexpr int64_t kGraceNs = 2'000'000'000;

}  // namespace

OpenLoopResult RunOpenLoop(double rate_per_s, int64_t start_ns, int64_t end_ns,
                           const std::function<bool(uint64_t index)>& op) {
  OpenLoopResult out;
  const double interval_ns = 1e9 / rate_per_s;
  for (uint64_t i = 0;; ++i) {
    const int64_t due =
        start_ns + static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    if (due >= end_ns) break;
    int64_t now = NowNs();
    if (now > end_ns + kGraceNs) break;
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = NowNs();
    }
    const bool ok = op(i);
    const int64_t done = NowNs();
    ++out.sent;
    if (!ok) ++out.failed;
    out.lag_us.push_back(static_cast<double>(now - due) / 1e3);
    out.latency_us.push_back(static_cast<double>(done - due) / 1e3);
  }
  return out;
}

}  // namespace perfbench
