#include "obs/flight_recorder.h"

#include <sys/time.h>

#include <cinttypes>
#include <cstdio>

#include "io/file.h"

namespace chronicle {
namespace obs {

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(std::move(options)) {
  if (options_.max_dumps == 0) options_.max_dumps = 1;
}

namespace {

// Wall-clock stamp (ms) so files sort chronologically in a listing.
int64_t WallMillis() {
  timeval tv{};
  gettimeofday(&tv, nullptr);
  return static_cast<int64_t>(tv.tv_sec) * 1000 + tv.tv_usec / 1000;
}

}  // namespace

Result<std::string> FlightRecorder::RecordSlowTick(
    uint64_t sn, int64_t tick_ns, int64_t budget_ns,
    const std::string& snapshot_json, const std::string& trace_json,
    const std::string& explain_json) {
  // The dump counter disambiguates two slow ticks inside one millisecond.
  const int64_t wall_ms = WallMillis();
  char name[128];
  snprintf(name, sizeof(name), "slow-tick-%" PRId64 "-%" PRIu64 "-sn%" PRIu64
                               ".json",
           wall_ms, dumps_written_, sn);

  std::string body;
  body.reserve(snapshot_json.size() + trace_json.size() +
               explain_json.size() + 256);
  char head[256];
  snprintf(head, sizeof(head),
           "{\"sn\":%" PRIu64 ",\"tick_ns\":%" PRId64 ",\"budget_ns\":%" PRId64
           ",\"wall_ms\":%" PRId64 ",",
           sn, tick_ns, budget_ns, wall_ms);
  body += head;
  body += "\"snapshot\":" + snapshot_json + ",";
  body += "\"trace\":" + trace_json + ",";
  body += "\"explain\":" + explain_json + "}\n";
  return WriteDump(name, body);
}

Result<std::string> FlightRecorder::RecordSlowRequest(
    uint64_t trace_hi, uint64_t trace_lo, int64_t total_ns, int64_t budget_ns,
    const std::string& snapshot_json, const std::string& trace_json) {
  const int64_t wall_ms = WallMillis();
  char name[160];
  snprintf(name, sizeof(name),
           "slow-request-%" PRId64 "-%" PRIu64 "-%016" PRIx64 "%016" PRIx64
           ".json",
           wall_ms, dumps_written_, trace_hi, trace_lo);

  std::string body;
  body.reserve(snapshot_json.size() + trace_json.size() + 256);
  char head[256];
  snprintf(head, sizeof(head),
           "{\"trace_id\":\"%016" PRIx64 "%016" PRIx64 "\",\"total_ns\":%"
           PRId64 ",\"budget_ns\":%" PRId64 ",\"wall_ms\":%" PRId64 ",",
           trace_hi, trace_lo, total_ns, budget_ns, wall_ms);
  body += head;
  body += "\"snapshot\":" + snapshot_json + ",";
  body += "\"trace\":" + trace_json + "}\n";
  return WriteDump(name, body);
}

Result<std::string> FlightRecorder::WriteDump(const std::string& name,
                                              const std::string& body) {
  CHRONICLE_RETURN_NOT_OK(io::CreateDirs(options_.dir));
  const std::string path = options_.dir + "/" + name;
  // A reader never sees a half-written dump, and a dump outlives the crash
  // it may be evidence for.
  CHRONICLE_RETURN_NOT_OK(io::AtomicWriteFile(path, body));
  ++dumps_written_;
  written_.push_back(path);
  while (written_.size() > options_.max_dumps) {
    (void)io::Fs().Remove(written_.front());
    written_.pop_front();
  }
  return path;
}

}  // namespace obs
}  // namespace chronicle
