// FlightRecorder: automatic capture of slow maintenance ticks.
//
// When a tick blows ObservabilityOptions::slow_tick_budget_ns, the
// database assembles the evidence a post-hoc debugging session needs —
// the trace-ring window (what the tick actually did), the full stats
// snapshot (the state it did it in), and the offending view's plan
// EXPLAIN (where inside the plan the time went) — and hands the
// pre-rendered JSON pieces here. The recorder writes them as ONE
// timestamped JSON file, atomically and durably (io::AtomicWriteFile),
// into a configurable directory with a bounded file count (oldest
// deleted), so a production incident leaves artifacts without any
// reproduction run.
//
// The recorder itself is filesystem-only plumbing: it never reads
// database state, so it stays dependency-free and testable in isolation.
// Callers serialize (the database records under its stats mutex).

#ifndef CHRONICLE_OBS_FLIGHT_RECORDER_H_
#define CHRONICLE_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <string>

#include "common/status.h"

namespace chronicle {
namespace obs {

struct FlightRecorderOptions {
  std::string dir = "flight-recorder";  // created on first dump
  size_t max_dumps = 8;                 // oldest file deleted beyond this
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Writes one slow-tick dump; every *_json argument must already be a
  // complete JSON value ("null" for an absent section). Returns the path
  // written. Not thread-safe: callers serialize.
  Result<std::string> RecordSlowTick(uint64_t sn, int64_t tick_ns,
                                     int64_t budget_ns,
                                     const std::string& snapshot_json,
                                     const std::string& trace_json,
                                     const std::string& explain_json);

  // Writes one slow-REQUEST dump: a traced request that blew its
  // slow_request_budget_ns, identified by its 128-bit trace id.
  // `trace_json` is the request's span tree (RequestTracer::
  // RenderTraceTreeJson), `snapshot_json` the full stats snapshot at
  // capture time. Same atomicity/retention contract as RecordSlowTick;
  // the two dump kinds share one bounded directory.
  Result<std::string> RecordSlowRequest(uint64_t trace_hi, uint64_t trace_lo,
                                        int64_t total_ns, int64_t budget_ns,
                                        const std::string& snapshot_json,
                                        const std::string& trace_json);

  uint64_t dumps_written() const { return dumps_written_; }
  const FlightRecorderOptions& options() const { return options_; }

 private:
  // Shared tail: atomic write of `body` as `name` in the dump dir, then
  // the bounded-retention sweep.
  Result<std::string> WriteDump(const std::string& name,
                                const std::string& body);

  FlightRecorderOptions options_;
  std::deque<std::string> written_;  // retained dump paths, oldest first
  uint64_t dumps_written_ = 0;
};

}  // namespace obs
}  // namespace chronicle

#endif  // CHRONICLE_OBS_FLIGHT_RECORDER_H_
