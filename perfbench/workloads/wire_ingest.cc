// wire_ingest: the front door. An unsharded Session with a WAL, served by
// WireService on loopback. One keep-alive connection ingests small ticks
// in closed-loop rounds (N /v1/append bodies, then /v1/drain); a second
// connection sends /v1/sql summary queries open-loop at a fixed rate.
// Small ticks make request framing, TSV decode, queue handoff and WAL
// framing dominate, and the reads contend with the ingest worker for the
// session's execution mutex.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "cql/binder.h"
#include "harness/open_loop.h"
#include "net/http_client.h"
#include "net/wire_service.h"
#include "wal/wal.h"
#include "workload/call_records.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using chronicle::Tuple;
using chronicle::cql::Session;
using chronicle::net::HttpClient;
using chronicle::net::WireService;
using Headers = std::vector<std::pair<std::string, std::string>>;
using Ticks = std::vector<std::vector<Tuple>>;

constexpr size_t kTicksPerBody = 4;
constexpr size_t kRowsPerTick = 32;
constexpr size_t kRowsPerBody = kTicksPerBody * kRowsPerTick;
constexpr size_t kBodiesPerRound = 16;  // 2048 rows: below the 8192-row queue
constexpr size_t kPoolBodies = 256;
constexpr size_t kWarmupRounds = 2;
// Open-loop query rate. An idle by_caller point lookup scans the whole
// view (~6 ms), so one query in eight is a lookup and the rest scan the
// 16-row by_state: the query connection stays well below saturation, so
// its tail does not compound, and a 15 s run gives 3000 samples.
constexpr double kQueryRate = 200.0;
// The client pauses after each round, as a feed with other work would.
// Without the pause the ingest worker re-takes the session mutex before a
// woken /v1/sql thread runs, and query latency measures host wake-up
// latency instead of the service. Ingest time excludes the pauses.
constexpr int64_t kThinkUs = 1000;
constexpr uint64_t kLookupEvery = 8;
constexpr size_t kLadderQueries = 200;

constexpr char kDdl[] =
    "CREATE CHRONICLE calls (caller INT64, region STRING, minutes INT64, "
    "charge DOUBLE) RETAIN NONE;"
    "CREATE RELATION cust (acct INT64, name STRING, state STRING) KEY acct;"
    "CREATE VIEW by_caller AS SELECT caller, SUM(minutes) AS m, COUNT(*) AS n "
    "FROM calls GROUP BY caller;"
    "CREATE VIEW by_region AS SELECT region, SUM(minutes) AS m, "
    "SUM(charge) AS c, COUNT(*) AS n FROM calls GROUP BY region;"
    "CREATE VIEW nj_calls AS SELECT caller, COUNT(*) AS n FROM calls "
    "WHERE region = 'NJ' GROUP BY caller;"
    "CREATE VIEW by_state AS SELECT state, SUM(minutes) AS m, COUNT(*) AS n "
    "FROM calls JOIN cust ON caller = acct GROUP BY state;";
const char* const kViews[] = {"by_caller", "by_region", "nj_calls", "by_state"};

struct Inputs {
  std::vector<Ticks> body_ticks;  // kPoolBodies bodies of kTicksPerBody ticks
  std::vector<std::string> bodies;  // the same, TSV-encoded
  std::vector<int64_t> query_keys;
  std::string cust_sql;
};

void AppendValue(std::string* out, const chronicle::Value& v) {
  if (v.is_int64()) {
    *out += std::to_string(v.int64());
  } else if (v.is_double()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v.dbl());
    *out += buf;
  } else if (v.is_string()) {
    *out += v.str();
  } else {
    *out += "\\N";
  }
}

// /v1/append body: one row per line, a blank line between ticks.
std::string EncodeBody(const Ticks& ticks) {
  std::string body;
  for (size_t t = 0; t < ticks.size(); ++t) {
    if (t > 0) body += "\n";
    for (const Tuple& row : ticks[t]) {
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) body += "\t";
        AppendValue(&body, row[c]);
      }
      body += "\n";
    }
  }
  return body;
}

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  chronicle::CallRecordOptions options;
  options.seed = seed;
  chronicle::CallRecordGenerator gen(options);
  for (size_t b = 0; b < kPoolBodies; ++b) {
    Ticks ticks;
    for (size_t t = 0; t < kTicksPerBody; ++t) {
      ticks.push_back(gen.NextBatch(kRowsPerTick));
    }
    in.bodies.push_back(EncodeBody(ticks));
    in.body_ticks.push_back(std::move(ticks));
  }
  chronicle::ZipfSampler keys(options.num_accounts, options.account_skew,
                              seed ^ 0x9e3779b97f4a7c15ull);
  for (size_t i = 0; i < 4096; ++i) {
    in.query_keys.push_back(static_cast<int64_t>(keys.Next()));
  }
  in.cust_sql = CustomerInsertSql(seed);
  return in;
}

bool IsLookup(uint64_t i) { return i % kLookupEvery == 0; }

std::string QuerySql(const Inputs& in, uint64_t i) {
  if (!IsLookup(i)) return "SELECT * FROM by_state;";
  return "SELECT * FROM by_caller WHERE caller = " +
         std::to_string(in.query_keys[i % in.query_keys.size()]) + ";";
}

bool OpenWireSession(HttpClient* client, Headers* headers) {
  auto open = client->Post("/v1/session", "");
  if (!open.ok() || open->status != 200) return Fail("POST /v1/session failed");
  const std::string marker = "\"session\":\"";
  const size_t at = open->body.find(marker);
  if (at == std::string::npos) return Fail("no session id in reply");
  const size_t start = at + marker.size();
  const std::string sid =
      open->body.substr(start, open->body.find('"', start) - start);
  *headers = {{"X-Chronicle-Session", sid}};
  return true;
}

bool PostOk(HttpClient* client, const std::string& path,
            const std::string& body, const Headers& headers, int expect,
            std::string* reply = nullptr) {
  auto resp = client->Post(path, body, headers);
  if (!resp.ok() || resp->status != expect) return false;
  if (reply != nullptr) *reply = std::move(resp->body);
  return true;
}

// One served session: the system under test plus its two client
// connections.
struct Server {
  std::string dir;
  std::unique_ptr<Session> session;
  std::unique_ptr<WireService> service;
  std::unique_ptr<HttpClient> ingest;
  std::unique_ptr<HttpClient> query;
  Headers ingest_headers;
  Headers query_headers;

  ~Server() {
    ingest.reset();
    query.reset();
    if (service != nullptr) service->Stop();
    service.reset();
    session.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

// Opens a session, applies the DDL and relation load, attaches the WAL
// (when `wal_dir` is non-empty), serves it, and opens both connections.
bool StartServer(const Inputs& in, const std::string& dir, bool wal,
                 bool traced, SpanStore* spans, Server* server) {
  server->dir = dir;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  chronicle::DatabaseOptions options;
  // The span ring holds the last ~25k requests, enough for 1000 /v1/sql
  // samples in the traced run.
  if (traced) options.set_request_trace(1u << 18, 1.0);
  {
    ScopedSpan span(spans, "cql.Session.Open");
    auto opened = Session::Open(std::move(options));
    if (!opened.ok()) return Fail("Session::Open: " + opened.status().ToString());
    server->session = std::move(*opened);
  }
  {
    ScopedSpan span(spans, "cql.Session.ExecuteScript");
    if (!server->session->ExecuteScript(kDdl).ok()) return Fail("DDL failed");
  }
  if (wal) {
    ScopedSpan span(spans, "cql.Session.AttachWal");
    if (!server->session->AttachWal(dir + "/wal").ok()) {
      return Fail("AttachWal failed");
    }
  }
  {
    ScopedSpan span(spans, "cql.Session.ExecuteSql");
    if (!server->session->ExecuteSql(in.cust_sql).ok()) {
      return Fail("relation load failed");
    }
  }
  server->service = std::make_unique<WireService>(server->session.get(),
                                                  chronicle::net::NetOptions{});
  {
    ScopedSpan span(spans, "net.WireService.Start");
    if (!server->service->Start(0).ok()) return Fail("WireService::Start");
  }
  server->ingest = std::make_unique<HttpClient>(server->service->port());
  server->query = std::make_unique<HttpClient>(server->service->port());
  return OpenWireSession(server->ingest.get(), &server->ingest_headers) &&
         OpenWireSession(server->query.get(), &server->query_headers);
}

// Full set-up of the system under test, warm-up included: the warm-up
// rounds ingest bodies [0, kWarmupRounds * kBodiesPerRound).
bool Setup(const Inputs& in, const std::string& dir, bool traced,
           SpanStore* spans, Server* server) {
  if (!StartServer(in, dir, /*wal=*/true, traced, spans, server)) return false;
  for (size_t b = 0; b < kWarmupRounds * kBodiesPerRound; ++b) {
    if (!PostOk(server->ingest.get(), "/v1/append?chronicle=calls",
                in.bodies[b % kPoolBodies], server->ingest_headers, 202)) {
      return Fail("warm-up append failed");
    }
    if (b % kBodiesPerRound == kBodiesPerRound - 1 &&
        !PostOk(server->ingest.get(), "/v1/drain", "", server->ingest_headers,
                200)) {
      return Fail("warm-up drain failed");
    }
  }
  for (uint64_t i = 0; i < 20; ++i) {
    if (!PostOk(server->query.get(), "/v1/sql", QuerySql(in, i),
                server->query_headers, 200)) {
      return Fail("warm-up query failed");
    }
  }
  return true;
}

// Replays the applied bodies through local Session::AppendRows and
// requires every view's /v1/sql SELECT output to be byte-identical.
bool CheckOracle(const Inputs& in, const std::vector<uint32_t>& applied,
                 const std::string& dir, Server* server, SpanStore* spans) {
  std::vector<std::string> served;
  for (const char* view : kViews) {
    std::string body;
    if (!PostOk(server->query.get(), "/v1/sql",
                std::string("SELECT * FROM ") + view + ";",
                server->query_headers, 200, &body)) {
      return Fail(std::string("final SELECT failed on ") + view);
    }
    served.push_back(std::move(body));
  }
  Server oracle;
  if (!StartServer(in, dir, /*wal=*/false, /*traced=*/false, spans, &oracle)) {
    return false;
  }
  {
    ScopedSpan span(spans, "oracle.Session.AppendRows");
    Ticks batch;
    for (size_t i = 0; i < applied.size(); ++i) {
      for (const auto& tick : in.body_ticks[applied[i]]) batch.push_back(tick);
      if (batch.size() >= 256 || i + 1 == applied.size()) {
        if (!oracle.session->AppendRows("calls", std::move(batch)).ok()) {
          return Fail("oracle AppendRows failed");
        }
        batch.clear();
      }
    }
  }
  for (size_t v = 0; v < served.size(); ++v) {
    std::string body;
    if (!PostOk(oracle.query.get(), "/v1/sql",
                std::string("SELECT * FROM ") + kViews[v] + ";",
                oracle.query_headers, 200, &body)) {
      return Fail("oracle SELECT failed");
    }
    if (body != served[v]) {
      return Fail(std::string("wire_ingest: view ") + kViews[v] +
                  " differs from the local AppendRows replay");
    }
  }
  return true;
}

// Layer ladders: the same inputs through one deeper entry point at a time.
void RunLadders(const Inputs& in, const std::string& dir, Server* server,
                std::map<std::string, double>* layer) {
  // The run's by_caller point lookups against the quiesced server, over
  // the wire and direct.
  std::vector<double> rtt_us, direct_us;
  double returned = 0, scanned = 0;
  const auto* views = &server->session->db()->view_manager();
  for (uint64_t k = 0; k < kLadderQueries; ++k) {
    const uint64_t i = k * kLookupEvery;
    const std::string sql = QuerySql(in, i);
    int64_t t0 = NowNs();
    if (!PostOk(server->query.get(), "/v1/sql", sql, server->query_headers,
                200)) {
      continue;
    }
    rtt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    t0 = NowNs();
    auto result = server->session->ExecuteSql(sql);
    direct_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!result.ok()) continue;
    returned += static_cast<double>(result->rows.size());
    auto view = views->FindView("by_caller");
    if (view.ok()) scanned += static_cast<double>((*view)->size());
  }
  (*layer)["net.sql_rtt_idle_p50_us"] = Median(rtt_us);
  (*layer)["cql.query_idle_p50_us"] = Median(direct_us);
  (*layer)["cql.query_useful_ratio"] = scanned > 0 ? returned / scanned : 0.0;

  // WAL framing alone: every pool body as one group commit.
  const std::string wal_dir = dir + "/ladder-wal";
  std::filesystem::remove_all(wal_dir);
  auto wal = chronicle::wal::Wal::Open(wal_dir);
  if (wal.ok()) {
    const std::string name = "calls";
    chronicle::SeqNum sn = 1;
    const int64_t t0 = NowNs();
    for (const Ticks& ticks : in.body_ticks) {
      std::vector<chronicle::wal::Wal::AppendTickRef> refs;
      for (const auto& tick : ticks) {
        refs.push_back({sn, static_cast<chronicle::Chronon>(sn), {{&name, &tick}}});
        ++sn;
      }
      (void)(*wal)->LogAppendGroup(refs);
    }
    (*layer)["wal.log_group_ns_per_row"] =
        static_cast<double>(NowNs() - t0) /
        static_cast<double>(kPoolBodies * kRowsPerBody);
    (void)(*wal)->Close();
  }
  std::filesystem::remove_all(wal_dir);

  // The periodic layer alone, on this workload's ticks.
  std::vector<std::vector<Tuple>> ticks;
  for (const Ticks& body : in.body_ticks) {
    ticks.insert(ticks.end(), body.begin(), body.end());
  }
  (*layer)["periodic.ns_per_tick"] = WindowedNsPerTick(ticks);

  // Apply alone: a standalone ChronicleDatabase::AppendMany per body.
  chronicle::ChronicleDatabase db;
  if (chronicle::cql::ExecuteScript(&db, kDdl).ok() &&
      chronicle::cql::Execute(&db, in.cust_sql).ok()) {
    const int64_t t0 = NowNs();
    for (const Ticks& ticks : in.body_ticks) (void)db.AppendMany("calls", ticks);
    (*layer)["db.apply_ns_per_row"] =
        static_cast<double>(NowNs() - t0) /
        static_cast<double>(kPoolBodies * kRowsPerBody);
  }
}

// cql.* under load, from the request tracer's span ring: a trace with a
// queue_wait span is an append (its append span is the worker's
// AppendRows), one without is a /v1/sql statement.
void TracerLayerMetrics(Session* session, std::map<std::string, double>* layer) {
  auto* tracer = session->request_tracer();
  if (tracer == nullptr) return;
  struct Trace {
    bool queued = false;
    std::vector<double> append_us;
  };
  std::map<std::pair<uint64_t, uint64_t>, Trace> traces;
  for (const auto& span : tracer->Snapshot()) {
    Trace& t = traces[{span.trace_hi, span.trace_lo}];
    if (span.stage == chronicle::obs::ReqStage::kQueueWait) t.queued = true;
    if (span.stage == chronicle::obs::ReqStage::kAppend) {
      t.append_us.push_back(static_cast<double>(span.duration_ns) / 1e3);
    }
  }
  std::vector<double> append_rows, exec_sql;
  for (const auto& [id, t] : traces) {
    auto& out = t.queued ? append_rows : exec_sql;
    out.insert(out.end(), t.append_us.begin(), t.append_us.end());
  }
  (*layer)["cql.append_rows_p50_us"] = Percentile(append_rows, 0.5).value_or(0);
  (*layer)["cql.exec_sql_p50_us"] = Percentile(exec_sql, 0.5).value_or(0);
  (*layer)["cql.exec_sql_p99_us"] = Percentile(exec_sql, 0.99).value_or(0);
}

}  // namespace

bool RunWireIngest(const PassConfig& config, PassResult* pass,
                   double* setup_s) {
  const Options& opts = *config.options;
  SpanStore* spans = config.spans;
  const Inputs in = MakeInputs(opts.seed);
  const std::string dir = opts.work_dir + "/wire_ingest";

  std::unique_ptr<Server> server;
  std::vector<double> setup_times;
  for (int k = 0; k < config.setups; ++k) {
    server.reset();
    server = std::make_unique<Server>();
    const int64_t t0 = NowNs();
    if (!Setup(in, dir, config.traced, spans, server.get())) return false;
    setup_times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  *setup_s = Median(setup_times);

  std::vector<uint32_t> applied;
  for (size_t b = 0; b < kWarmupRounds * kBodiesPerRound; ++b) {
    applied.push_back(static_cast<uint32_t>(b % kPoolBodies));
  }
  const auto before = server->session->CollectStats();
  const int64_t start = NowNs() + 1'000'000;
  const int64_t end = start + static_cast<int64_t>(opts.seconds * 1e9);

  OpenLoopResult queries;
  std::thread query_thread([&] {
    queries = RunOpenLoop(kQueryRate, start, end, [&](uint64_t i) {
      ScopedSpan span(spans, "net.HttpClient.Post /v1/sql", 0, spans->NewOp());
      return PostOk(server->query.get(), "/v1/sql", QuerySql(in, i),
                    server->query_headers, 200);
    });
  });

  std::this_thread::sleep_for(std::chrono::nanoseconds(start - NowNs()));
  std::vector<double> drain_us;
  uint64_t bodies_sent = 0, body_bytes = 0, failed = 0, attempted = 0;
  size_t next = kWarmupRounds * kBodiesPerRound;
  while (NowNs() < end) {
    const int64_t round_start = NowNs();
    uint64_t round_rows = 0;
    const uint64_t op = spans->NewOp();
    ScopedSpan round(spans, "round", 0, op);
    for (size_t b = 0; b < kBodiesPerRound; ++b, ++next) {
      const uint32_t index = static_cast<uint32_t>(next % kPoolBodies);
      const int64_t t0 = NowNs();
      bool ok;
      {
        ScopedSpan span(spans, "net.HttpClient.Post /v1/append", round.id(), op);
        ok = PostOk(server->ingest.get(), "/v1/append?chronicle=calls",
                    in.bodies[index], server->ingest_headers, 202);
      }
      pass->append_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      ++attempted;
      ++bodies_sent;
      body_bytes += in.bodies[index].size();
      if (ok) {
        applied.push_back(index);
        round_rows += kRowsPerBody;
      } else {
        ++failed;
      }
    }
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(spans, "net.HttpClient.Post /v1/drain", round.id(), op);
      ++attempted;
      if (!PostOk(server->ingest.get(), "/v1/drain", "",
                  server->ingest_headers, 200)) {
        ++failed;
      }
    }
    const int64_t drained = NowNs();
    drain_us.push_back(static_cast<double>(drained - t0) / 1e3);
    AddUnit(pass, drained, drained - round_start, round_rows);
    std::this_thread::sleep_for(std::chrono::microseconds(kThinkUs));
  }
  query_thread.join();

  pass->query_us = queries.latency_us;
  pass->attempted = attempted + queries.sent;
  pass->failed = failed + queries.failed;
  pass->peak_rss_mb = PeakRssMb();
  const auto after = server->session->CollectStats();

  if (config.traced) {
    auto& layer = pass->layer;
    SnapshotLayerMetrics(before, after, pass->rows, pass->ingest_s,
                         server->session->maintenance_options().num_threads,
                         &layer);
    PlanLayerMetrics(server->session.get(), &layer);
    TracerLayerMetrics(server->session.get(), &layer);
    layer["gen.query_lag_p99_us"] = Percentile(queries.lag_us, 0.99).value_or(0);
    layer["gen.appends_sent"] = static_cast<double>(bodies_sent);
    layer["gen.queries_sent"] = static_cast<double>(queries.sent);
    layer["net.body_bytes_per_row"] =
        static_cast<double>(body_bytes) /
        static_cast<double>(bodies_sent * kRowsPerBody);
    layer["net.drain_p50_us"] = Percentile(drain_us, 0.5).value_or(0);
    RunLadders(in, opts.work_dir + "/ladder", server.get(), &layer);
  }

  pass->correct =
      CheckOracle(in, applied, opts.work_dir + "/oracle", server.get(), spans);
  return true;
}

}  // namespace perfbench
