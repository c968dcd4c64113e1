// Exporters for the observability snapshot (obs/stats.h).
//
// Three renderings of the same StatsSnapshot, each a walk over the stats
// field table (obs/stats_table.h):
//   * RenderText        — human-oriented `\stats` shell output.
//   * RenderPrometheus  — Prometheus text exposition format (HELP/TYPE
//                         lines, histogram _bucket{le=...}/_sum/_count).
//   * RenderJson        — machine-readable dump benches and CI assert
//                         against (STATS_E13.json).
// Plus RenderTraceText for the `\trace` command and ValidateJson, a
// dependency-free JSON syntax checker the fuzz test and the bench
// self-check use (the toolchain has no JSON library and we do not add
// one).

#ifndef CHRONICLE_OBS_EXPORT_H_
#define CHRONICLE_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/stats.h"
#include "obs/trace.h"

namespace chronicle {
namespace obs {

// Human-readable multi-line summary (shell `\stats`).
std::string RenderText(const StatsSnapshot& snapshot);

// Prometheus text exposition format, version 0.0.4. Every metric is
// prefixed `chronicle_`; per-view stats become labelled series
// (`chronicle_view_ticks{view="clicks_by_user"} 42`).
std::string RenderPrometheus(const StatsSnapshot& snapshot);

// Machine-readable JSON dump. Guaranteed to pass ValidateJson; field
// layout is documented in docs/OBSERVABILITY.md.
std::string RenderJson(const StatsSnapshot& snapshot);

// Human-readable span listing (shell `\trace`), oldest first.
std::string RenderTraceText(const std::vector<TraceSpan>& spans,
                            uint64_t total_emitted, uint64_t capacity);

// JSON span listing for the monitoring endpoint (/trace.json) and the
// flight recorder: {"emitted":N,"capacity":N,"spans":[{...}]}. Every span
// carries a "shard" tag (-1 for an unsharded engine) so merged listings
// stay attributable. Guaranteed to pass ValidateJson.
std::string RenderTraceJson(const std::vector<TraceSpan>& spans,
                            uint64_t total_emitted, uint64_t capacity);

// One shard engine's trace-ring window, for the merged sharded
// /trace.json. Shard workers emit into their own ring with worker-local
// sequence numbers; tagging each span with its shard id at export is what
// keeps the merged listing attributable (seq orders spans only WITHIN a
// shard).
struct ShardTraceSnapshot {
  int shard = -1;  // -1 = the unsharded engine
  uint64_t emitted = 0;
  uint64_t capacity = 0;
  std::vector<TraceSpan> spans;
};

// Merged multi-shard render: {"emitted":sum,"capacity":sum,"shards":[
// {"shard":k,"emitted":N,"capacity":N,"spans":[{...,"shard":k}]}]}.
std::string RenderTraceJson(const std::vector<ShardTraceSnapshot>& shards);

// Minimal recursive-descent JSON syntax checker: accepts exactly the
// RFC 8259 grammar (objects, arrays, strings with escapes, numbers,
// true/false/null). Returns OK iff `text` is one complete JSON value.
Status ValidateJson(const std::string& text);

}  // namespace obs
}  // namespace chronicle

#endif  // CHRONICLE_OBS_EXPORT_H_
