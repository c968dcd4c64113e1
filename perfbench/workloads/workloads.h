// The three workloads. Each runs one measured pass: `setups` fresh
// set-ups (the last one is measured; setup_s is their median), the timed
// ingest + query phase, then the oracle checks. A traced pass also records
// bench-side spans, reads the layer counters and runs the layer ladders.
// Returns false on a fatal error (no result is printed then).

#ifndef PERFBENCH_WORKLOADS_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_WORKLOADS_H_

#include <vector>

#include "harness/spans.h"
#include "types/tuple.h"
#include "workloads/common.h"

namespace perfbench {

struct PassConfig {
  const Options* options = nullptr;
  bool traced = false;
  int setups = 1;
  SpanStore* spans = nullptr;
};

bool RunWireIngest(const PassConfig& config, PassResult* pass, double* setup_s);
bool RunViewFanout(const PassConfig& config, PassResult* pass, double* setup_s);
bool RunShardPipeline(const PassConfig& config, PassResult* pass,
                      double* setup_s);

// The periodic layer alone: `ticks` replayed (4 per AppendMany) into a
// serial engine holding only view_fanout's 4 sliding and 4 periodic views.
// Nanoseconds per tick; 0 on failure.
double WindowedNsPerTick(
    const std::vector<std::vector<chronicle::Tuple>>& ticks);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_WORKLOADS_H_
