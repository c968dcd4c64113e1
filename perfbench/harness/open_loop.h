// Open-loop request generator: the i-th request is due at start + i/rate,
// whether or not earlier requests have finished. Latency is timed from the
// due time, so a stall in the system under test shows up in every request
// that was due while it lasted, and the generator's
// own lateness is reported as lag.

#ifndef PERFBENCH_CORE_OPEN_LOOP_H_
#define PERFBENCH_CORE_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

struct OpenLoopResult {
  std::vector<double> latency_us;  // completion - due, one per request sent
  std::vector<double> lag_us;      // send - due, one per request sent
  uint64_t sent = 0;
  uint64_t failed = 0;
};

// Sends every request due in [start_ns, end_ns) through `op` (which returns
// false on failure). A backlog left 2 s after end_ns is not sent; on a
// system that keeps up it is empty.
OpenLoopResult RunOpenLoop(double rate_per_s, int64_t start_ns, int64_t end_ns,
                           const std::function<bool(uint64_t index)>& op);

}  // namespace perfbench

#endif  // PERFBENCH_CORE_OPEN_LOOP_H_
