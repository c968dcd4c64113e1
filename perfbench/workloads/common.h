// Pieces every workload shares: options, the pass result that becomes the
// end-to-end metrics, the per-layer metric catalog, stats-snapshot deltas,
// view fingerprints for the oracles, and small timing helpers.

#ifndef PERFBENCH_WORKLOADS_COMMON_H_
#define PERFBENCH_WORKLOADS_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/metrics.h"
#include "harness/spans.h"
#include "cql/session.h"
#include "obs/stats.h"
#include "types/tuple.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for WALs, segments and span dumps (inside the
  // checkout); created by perfbench, removed by run.py.
  std::string work_dir;
};

// One closed-loop ingest unit (an HTTP round, an AppendRows call, a slab).
struct IngestUnit {
  int64_t end_ns = 0;   // steady-clock completion time
  int64_t busy_ns = 0;  // time the unit took
  uint64_t rows = 0;    // rows it made visible
};

// What one measured pass of a workload produced.
struct PassResult {
  std::vector<double> append_us;  // one per ingest unit
  std::vector<double> query_us;   // one per summary query
  std::vector<IngestUnit> units;  // every ingest unit of the phase
  uint64_t rows = 0;              // rows made visible in views
  double ingest_s = 0.0;          // summed duration of the ingest units
  uint64_t attempted = 0;         // operations attempted (appends + queries)
  uint64_t failed = 0;            // non-OK Status / HTTP >= 400
  double peak_rss_mb = 0.0;
  bool correct = false;           // every oracle check passed
  // Per-layer metrics gathered by the traced pass (name -> value).
  std::map<std::string, double> layer;
};

// Rows per second of ingest time: the median over one-second windows of
// the phase (by unit completion time) of rows / unit time, so a burst of
// host noise moves one window, not the run. Falls back to rows / ingest_s
// when the phase is shorter than two windows.
double IngestRowsPerSecond(const PassResult& pass);
// Records one ingest unit into pass->units, rows and ingest_s.
void AddUnit(PassResult* pass, int64_t end_ns, int64_t busy_ns, uint64_t rows);

// The end-to-end metrics for a pass (false if a percentile lacks samples).
bool EndToEndMetrics(const PassResult& pass, double setup_s,
                     std::vector<Metric>* out);

// Every per-layer metric the traced run prints, in BENCHMARK.json order.
struct LayerMetricDef {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricDef>& LayerCatalog();
// Catalog order; metrics a workload does not exercise read 0.
std::vector<Metric> LayerMetrics(const std::map<std::string, double>& values);

// Peak resident set of this process so far, in MiB.
double PeakRssMb();

// Fills the engine-side layer metrics (db, views, exec, wal, store, shard,
// net, req stages) from the snapshots taken before and after the pass.
void SnapshotLayerMetrics(const chronicle::obs::StatsSnapshot& before,
                          const chronicle::obs::StatsSnapshot& after,
                          uint64_t rows, double ingest_s,
                          size_t maintenance_threads,
                          std::map<std::string, double>* layer);
// Plan-level metrics read from the engines while quiesced: view state size
// and the columnar share of plan slots (ExplainViewJson).
void PlanLayerMetrics(chronicle::cql::Session* session,
                      std::map<std::string, double>* layer);

// Order-insensitive digest of a set of rows (rendered, sorted, hashed) so
// two engines' view contents can be compared without keeping both alive.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint& o) const {
    return rows == o.rows && hash == o.hash;
  }
};
Fingerprint FingerprintRows(const std::vector<chronicle::Tuple>& rows);

// The customer relation load as one CQL INSERT (acct, name, state).
std::string CustomerInsertSql(uint64_t seed);

// Logs a failed check to stderr; returns false.
bool Fail(const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_COMMON_H_
