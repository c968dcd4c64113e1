// view_fanout: maintenance. An unsharded Session with RETAIN NONE, no WAL
// and four maintenance threads holds about 160 views: 128 group-bys with
// distinct region/minutes guards (the E12 shape), 16 views sharing one
// guard (the E9 sharing shape), 8 key joins against cust, and 4 sliding
// plus 4 periodic views, which run on the interpreter. One producer
// appends closed-loop; summary queries arrive open-loop and queue behind
// maintenance on the session mutex, so a gain for writes that costs reads
// shows up here. This is the Thm 4.2 fan-out.

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/naive_engine.h"
#include "common/random.h"
#include "cql/binder.h"
#include "harness/open_loop.h"
#include "workload/call_records.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using chronicle::Tuple;
using chronicle::cql::Session;
using Ticks = std::vector<std::vector<Tuple>>;

constexpr size_t kRowsPerTick = 64;
// Four ticks per AppendRows call: at ~2 ms of maintenance per tick this
// gives the 1000 append samples a p99 needs in a 10 s run.
constexpr size_t kTicksPerCall = 4;
constexpr size_t kRowsPerCall = kRowsPerTick * kTicksPerCall;
constexpr size_t kPoolCalls = 256;
constexpr size_t kWarmupCalls = 16;
constexpr size_t kThreads = 4;
// One query in three is a point lookup on a guard view (a full scan of up
// to 10k groups, ~2.5 ms idle); the rest look up a state in a join view.
// 180/s keeps the session's own query load light and gives 1800 samples.
constexpr double kQueryRate = 180.0;
// The producer pauses between calls, as a feed with other work would.
// Without the pause it re-takes the session mutex before a woken reader
// runs, and query latency measures host wake-up latency instead of the
// session. Ingest time excludes the pauses.
constexpr int64_t kThinkUs = 500;
constexpr size_t kGuardViews = 128;
constexpr size_t kPrefixCalls = 64;   // naive-baseline prefix: 256 ticks
constexpr size_t kPeriodicCalls = 256;
constexpr size_t kLadderQueries = 200;

const char* const kRegions[] = {"NJ", "NY", "CA", "TX", "IL", "WA", "FL", "MA"};

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// The DDL. `persistent` adds the 152 persistent views, `windowed` the
// sliding and periodic ones.
std::string Ddl(const char* retain, bool persistent, bool windowed) {
  std::string ddl = Format(
      "CREATE CHRONICLE calls (caller INT64, region STRING, minutes INT64, "
      "charge DOUBLE) RETAIN %s;"
      "CREATE RELATION cust (acct INT64, name STRING, state STRING) KEY acct;",
      retain);
  if (persistent) {
    for (size_t v = 0; v < kGuardViews; ++v) {
      ddl += Format(
          "CREATE VIEW g%03zu AS SELECT caller, SUM(minutes) AS m, COUNT(*) AS "
          "n FROM calls WHERE region = '%s' AND minutes >= %zu GROUP BY "
          "caller;",
          v, kRegions[v % 8], (v / 8) * 7);
    }
    const char* const aggs[] = {"SUM(minutes) AS a", "COUNT(*) AS a",
                                "MIN(minutes) AS a", "MAX(minutes) AS a"};
    for (size_t v = 0; v < 16; ++v) {
      ddl += Format(
          "CREATE VIEW s%02zu AS SELECT caller, %s FROM calls WHERE region = "
          "'NJ' AND minutes >= 30 GROUP BY caller;",
          v, aggs[v % 4]);
    }
    for (size_t v = 0; v < 8; ++v) {
      ddl += Format(
          "CREATE VIEW j%zu AS SELECT state, SUM(minutes) AS m, COUNT(*) AS n "
          "FROM calls JOIN cust ON caller = acct WHERE region = '%s' GROUP BY "
          "state;",
          v, kRegions[v]);
    }
  }
  if (windowed) {
    for (size_t v = 0; v < 4; ++v) {
      ddl += Format(
          "CREATE SLIDING VIEW w%zu AS SELECT caller, SUM(minutes) AS m FROM "
          "calls WHERE region = '%s' GROUP BY caller OVER WINDOW 30 PANES OF "
          "64;",
          v, kRegions[v]);
      ddl += Format(
          "CREATE PERIODIC VIEW p%zu AS SELECT region, SUM(minutes) AS m, "
          "COUNT(*) AS n FROM calls GROUP BY region OVER PERIOD %zu EXPIRE "
          "AFTER %zu;",
          v, size_t{256} << v, size_t{512} << v);
    }
  }
  return ddl;
}

struct Inputs {
  std::vector<Ticks> calls;  // kPoolCalls AppendRows calls
  std::vector<int64_t> query_keys;
  std::string cust_sql;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  chronicle::CallRecordOptions options;
  options.seed = seed;
  chronicle::CallRecordGenerator gen(options);
  for (size_t c = 0; c < kPoolCalls; ++c) {
    Ticks ticks;
    for (size_t t = 0; t < kTicksPerCall; ++t) {
      ticks.push_back(gen.NextBatch(kRowsPerTick));
    }
    in.calls.push_back(std::move(ticks));
  }
  chronicle::ZipfSampler keys(options.num_accounts, options.account_skew,
                              seed ^ 0x9e3779b97f4a7c15ull);
  for (size_t i = 0; i < 4096; ++i) {
    in.query_keys.push_back(static_cast<int64_t>(keys.Next()));
  }
  in.cust_sql = CustomerInsertSql(seed);
  return in;
}

// The i-th query and the view it reads.
std::pair<std::string, std::string> Query(const Inputs& in, uint64_t i) {
  if (i % 3 == 0) {  // the ladder below replays exactly these
    const std::string view = Format("g%03zu", (i * 37) % kGuardViews);
    return {Format("SELECT * FROM %s WHERE caller = %lld;", view.c_str(),
                   static_cast<long long>(
                       in.query_keys[i % in.query_keys.size()])),
            view};
  }
  const std::string view = Format("j%zu", static_cast<size_t>(i % 8));
  return {Format("SELECT * FROM %s WHERE state = '%s';", view.c_str(),
                 kRegions[(i / 8) % 8]),
          view};
}

std::string QuerySql(const Inputs& in, uint64_t i) { return Query(in, i).first; }

std::unique_ptr<Session> OpenSession(const Inputs& in, const std::string& ddl,
                                     size_t threads, bool profile,
                                     SpanStore* spans) {
  chronicle::DatabaseOptions options;
  options.set_profile_plan_slots(profile);
  std::unique_ptr<Session> session;
  {
    ScopedSpan span(spans, "cql.Session.Open");
    auto opened = Session::Open(std::move(options));
    if (!opened.ok()) {
      Fail("Session::Open: " + opened.status().ToString());
      return nullptr;
    }
    session = std::move(*opened);
  }
  chronicle::MaintenanceOptions maintenance;
  maintenance.num_threads = threads;
  {
    ScopedSpan span(spans, "cql.Session.ReconfigureMaintenance");
    session->ReconfigureMaintenance(maintenance);
  }
  {
    ScopedSpan span(spans, "cql.Session.ExecuteScript");
    auto ddl_result = session->ExecuteScript(ddl);
    if (!ddl_result.ok()) {
      Fail("DDL: " + ddl_result.status().ToString());
      return nullptr;
    }
  }
  {
    ScopedSpan span(spans, "cql.Session.ExecuteSql");
    if (!session->ExecuteSql(in.cust_sql).ok()) {
      Fail("relation load failed");
      return nullptr;
    }
  }
  return session;
}

// Replays `calls` pool indexes through AppendRows; returns seconds taken
// (negative on failure).
double Replay(const Inputs& in, const std::vector<uint32_t>& calls,
              size_t count, Session* session) {
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < count && i < calls.size(); ++i) {
    if (!session->AppendRows("calls", in.calls[calls[i]]).ok()) return -1.0;
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// Digest of every view's contents, by kind and name; false if any view
// cannot be read, so that an error on both sides of the oracle can never
// compare equal.
bool ViewFingerprints(Session* session,
                      std::map<std::string, Fingerprint>* out) {
  chronicle::ChronicleDatabase* db = session->db();
  const chronicle::ViewManager& views = db->view_manager();
  for (chronicle::ViewId id = 0; id < views.num_views(); ++id) {
    auto view = views.GetView(id);
    if (!view.ok()) return Fail("GetView: " + view.status().ToString());
    auto rows = db->ScanView((*view)->name());
    if (!rows.ok()) {
      return Fail("ScanView(" + (*view)->name() +
                  "): " + rows.status().ToString());
    }
    (*out)["view " + (*view)->name()] = FingerprintRows(*rows);
  }
  bool ok = true;
  db->ForEachSlidingView([&](const chronicle::SlidingWindowView& view) {
    std::vector<Tuple> rows;
    if (!view.ScanWindow([&](const Tuple& row) { rows.push_back(row); })
             .ok()) {
      ok = Fail("ScanWindow(" + view.name() + ") failed");
    }
    (*out)["sliding " + view.name()] = FingerprintRows(rows);
  });
  db->ForEachPeriodicView([&](const chronicle::PeriodicViewSet& set) {
    std::vector<Tuple> rows;
    set.VisitInstances(
        [&](int64_t interval, const chronicle::PersistentView& instance) {
          const auto scanned = instance.Scan([&](const Tuple& row) {
            Tuple tagged = row;
            tagged.insert(tagged.begin(), chronicle::Value(interval));
            rows.push_back(std::move(tagged));
          });
          if (!scanned.ok()) ok = Fail("Scan(" + set.name() + ") failed");
        });
    (*out)["periodic " + set.name()] = FingerprintRows(rows);
  });
  return ok;
}

// Naive-baseline oracle (Thm 4.1/4.2 exactness): the same DDL over a
// retained chronicle, a prefix of the run's ticks, and every persistent
// view recomputed from scratch.
bool CheckNaivePrefix(const Inputs& in, const std::vector<uint32_t>& applied,
                      SpanStore* spans) {
  auto session = OpenSession(in, Ddl("ALL", true, false), kThreads, false, spans);
  if (session == nullptr) return false;
  {
    ScopedSpan span(spans, "oracle.Session.AppendRows");
    if (Replay(in, applied, kPrefixCalls, session.get()) < 0) {
      return Fail("naive-prefix replay failed");
    }
  }
  chronicle::ChronicleDatabase* db = session->db();
  const chronicle::NaiveEngine naive(&db->group());
  const chronicle::ViewManager& views = db->view_manager();
  for (chronicle::ViewId id = 0; id < views.num_views(); ++id) {
    auto view = views.GetView(id);
    if (!view.ok()) return Fail("GetView: " + view.status().ToString());
    auto expected = naive.EvaluateSummary(*(*view)->plan(), (*view)->spec());
    auto actual = db->ScanView((*view)->name());
    if (!expected.ok() || !actual.ok() ||
        FingerprintRows(*expected) != FingerprintRows(*actual)) {
      return Fail("view_fanout: view " + (*view)->name() +
                  " differs from the naive baseline");
    }
  }
  return true;
}

}  // namespace

double WindowedNsPerTick(const std::vector<std::vector<Tuple>>& ticks) {
  chronicle::ChronicleDatabase db;
  if (ticks.empty() ||
      !chronicle::cql::ExecuteScript(&db, Ddl("NONE", false, true)).ok()) {
    return 0.0;
  }
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < ticks.size(); i += kTicksPerCall) {
    const size_t n = std::min(kTicksPerCall, ticks.size() - i);
    std::vector<std::vector<Tuple>> batch(ticks.begin() + i,
                                          ticks.begin() + i + n);
    if (!db.AppendMany("calls", std::move(batch)).ok()) return 0.0;
  }
  return static_cast<double>(NowNs() - t0) / static_cast<double>(ticks.size());
}

bool RunViewFanout(const PassConfig& config, PassResult* pass,
                   double* setup_s) {
  const Options& opts = *config.options;
  SpanStore* spans = config.spans;
  const Inputs in = MakeInputs(opts.seed);
  const std::string ddl = Ddl("NONE", true, true);

  std::unique_ptr<Session> session;
  std::vector<double> setup_times;
  std::vector<uint32_t> applied;
  for (int k = 0; k < config.setups; ++k) {
    session.reset();
    applied.clear();
    const int64_t t0 = NowNs();
    session = OpenSession(in, ddl, kThreads, config.traced, spans);
    if (session == nullptr) return false;
    for (uint32_t c = 0; c < kWarmupCalls; ++c) {
      if (!session->AppendRows("calls", in.calls[c]).ok()) {
        return Fail("warm-up append failed");
      }
      applied.push_back(c);
    }
    for (uint64_t i = 0; i < 20; ++i) {
      if (!session->ExecuteSql(QuerySql(in, i)).ok()) {
        return Fail("warm-up query failed");
      }
    }
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  *setup_s = Median(setup_times);

  const auto before = session->CollectStats();
  const int64_t start = NowNs() + 1'000'000;
  const int64_t end = start + static_cast<int64_t>(opts.seconds * 1e9);

  OpenLoopResult queries;
  std::vector<double> exec_us;
  std::thread query_thread([&] {
    queries = RunOpenLoop(kQueryRate, start, end, [&](uint64_t i) {
      const std::string sql = QuerySql(in, i);
      ScopedSpan span(spans, "cql.Session.ExecuteSql", 0, spans->NewOp());
      const int64_t t0 = NowNs();
      const bool ok = session->ExecuteSql(sql).ok();
      exec_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      return ok;
    });
  });

  std::this_thread::sleep_for(std::chrono::nanoseconds(start - NowNs()));
  uint64_t calls = 0, failed = 0;
  size_t next = kWarmupCalls;
  while (NowNs() < end) {
    const uint32_t index = static_cast<uint32_t>(next++ % kPoolCalls);
    Ticks batches = in.calls[index];  // copied outside the timed call
    const int64_t t0 = NowNs();
    bool ok;
    {
      ScopedSpan span(spans, "cql.Session.AppendRows", 0, spans->NewOp());
      ok = session->AppendRows("calls", std::move(batches)).ok();
    }
    const int64_t done = NowNs();
    AddUnit(pass, done, done - t0, ok ? kRowsPerCall : 0);
    pass->append_us.push_back(static_cast<double>(done - t0) / 1e3);
    std::this_thread::sleep_for(std::chrono::microseconds(kThinkUs));
    ++calls;
    if (ok) {
      applied.push_back(index);
    } else {
      ++failed;
    }
  }
  query_thread.join();

  pass->query_us = queries.latency_us;
  pass->attempted = calls + queries.sent;
  pass->failed = failed + queries.failed;
  pass->peak_rss_mb = PeakRssMb();

  auto& layer = pass->layer;
  if (config.traced) {
    const auto after = session->CollectStats();
    SnapshotLayerMetrics(before, after, pass->rows, pass->ingest_s, kThreads,
                         &layer);
    PlanLayerMetrics(session.get(), &layer);
    layer["gen.query_lag_p99_us"] = Percentile(queries.lag_us, 0.99).value_or(0);
    layer["gen.appends_sent"] = static_cast<double>(calls);
    layer["gen.queries_sent"] = static_cast<double>(queries.sent);
    layer["cql.append_rows_p50_us"] = Percentile(pass->append_us, 0.5).value_or(0);
    layer["cql.exec_sql_p50_us"] = Percentile(exec_us, 0.5).value_or(0);
    layer["cql.exec_sql_p99_us"] = Percentile(exec_us, 0.99).value_or(0);

    // The run's guard-view point lookups against the quiesced session.
    std::vector<double> idle_us;
    double returned = 0, scanned = 0;
    const chronicle::ViewManager& views = session->db()->view_manager();
    for (uint64_t k = 0; k < kLadderQueries; ++k) {
      const uint64_t i = 3 * k;
      const int64_t t0 = NowNs();
      auto result = session->ExecuteSql(QuerySql(in, i));
      idle_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (!result.ok()) continue;
      returned += static_cast<double>(result->rows.size());
      auto view = views.FindView(Query(in, i).second);
      if (view.ok()) scanned += static_cast<double>((*view)->size());
    }
    layer["cql.query_idle_p50_us"] = Median(idle_us);
    layer["cql.query_useful_ratio"] = scanned > 0 ? returned / scanned : 0.0;

    // Apply alone: a standalone ChronicleDatabase::AppendMany (serial).
    {
      chronicle::ChronicleDatabase db;
      if (chronicle::cql::ExecuteScript(&db, ddl).ok() &&
          chronicle::cql::Execute(&db, in.cust_sql).ok()) {
        const int64_t t0 = NowNs();
        for (size_t c = 0; c < kPrefixCalls; ++c) {
          (void)db.AppendMany("calls", in.calls[c]);
        }
        layer["db.apply_ns_per_row"] =
            static_cast<double>(NowNs() - t0) /
            static_cast<double>(kPrefixCalls * kRowsPerCall);
      }
    }
    std::vector<std::vector<Tuple>> ticks;
    for (size_t c = 0; c < kPeriodicCalls && c < applied.size(); ++c) {
      const Ticks& call = in.calls[applied[c]];
      ticks.insert(ticks.end(), call.begin(), call.end());
    }
    layer["periodic.ns_per_tick"] = WindowedNsPerTick(ticks);
  }

  // Oracle 1: a num_threads=1 replay of every applied call must leave every
  // view (persistent, sliding, periodic) identical.
  std::map<std::string, Fingerprint> measured;
  bool correct = ViewFingerprints(session.get(), &measured);
  session.reset();
  {
    auto serial = OpenSession(in, ddl, 1, false, spans);
    if (serial == nullptr) return false;
    double replay_s;
    {
      ScopedSpan span(spans, "oracle.Session.AppendRows");
      replay_s = Replay(in, applied, applied.size(), serial.get());
    }
    if (replay_s < 0) return Fail("serial replay failed");
    std::map<std::string, Fingerprint> expected;
    if (!ViewFingerprints(serial.get(), &expected)) {
      correct = false;
    } else if (expected != measured) {
      correct = Fail("view_fanout: views differ from the num_threads=1 replay");
    }
    if (config.traced && replay_s > 0) {
      const double serial_rate =
          static_cast<double>(applied.size() * kRowsPerCall) / replay_s;
      layer["views.parallel_speedup"] = IngestRowsPerSecond(*pass) / serial_rate;
    }
  }
  // Oracle 2: the naive baseline over a retained prefix.
  if (!CheckNaivePrefix(in, applied, spans)) correct = false;
  pass->correct = correct;
  return true;
}

}  // namespace perfbench
