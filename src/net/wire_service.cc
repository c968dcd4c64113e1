#include "net/wire_service.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/strings.h"
#include "obs/export.h"

namespace chronicle {
namespace net {

namespace {

// Renders one Value as a JSON literal.
void JsonValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    *out += "null";
  } else if (v.is_int64()) {
    *out += std::to_string(v.int64());
  } else if (v.is_double()) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", v.dbl());
    *out += buf;
  } else {
    *out += "\"" + JsonEscape(v.str()) + "\"";
  }
}

// First value of `key` in an application/x-www-form-urlencoded-ish query
// string ("chronicle=calls&x=1"). No percent-decoding: every expected
// value is an identifier.
bool QueryParam(const std::string& query, const std::string& key,
                std::string* value) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string::npos) amp = query.size();
    const size_t eq = query.find('=', pos);
    if (eq != std::string::npos && eq < amp &&
        query.compare(pos, eq - pos, key) == 0) {
      *value = query.substr(eq + 1, amp - eq - 1);
      return true;
    }
    pos = amp + 1;
  }
  return false;
}

// Parses one TSV cell against the column type. The empty cell and `\N`
// are NULL (the usual TSV conventions).
Result<Value> ParseCell(const std::string& cell, const Field& field) {
  if (cell.empty() || cell == "\\N") return Value();
  char* end = nullptr;
  switch (field.type) {
    case DataType::kInt64: {
      errno = 0;
      const long long v = strtoll(cell.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("column " + field.name +
                                       ": not an INT64: '" + cell + "'");
      }
      if (errno == ERANGE) {
        // strtoll saturates to LLONG_MIN/MAX on overflow; ingesting the
        // saturated value would silently corrupt the data.
        return Status::InvalidArgument("column " + field.name +
                                       ": INT64 out of range: '" + cell + "'");
      }
      return Value(static_cast<int64_t>(v));
    }
    case DataType::kDouble: {
      errno = 0;
      const double v = strtod(cell.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("column " + field.name +
                                       ": not a DOUBLE: '" + cell + "'");
      }
      // ERANGE also fires on subnormal underflow, where strtod still
      // returns the nearest representable value — only overflow (±HUGE_VAL)
      // loses the magnitude.
      if (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL)) {
        return Status::InvalidArgument("column " + field.name +
                                       ": DOUBLE out of range: '" + cell +
                                       "'");
      }
      return Value(v);
    }
    case DataType::kString:
      return Value(cell);
  }
  return Status::Internal("unknown column type");
}

// Decodes a TSV body into ticks: one row per line, cells tab-separated in
// schema order, a blank line closes the current tick. Trailing newline
// optional; \r tolerated (curl on Windows).
Result<std::vector<std::vector<Tuple>>> DecodeTsv(const std::string& body,
                                                  const Schema& schema) {
  std::vector<std::vector<Tuple>> ticks;
  std::vector<Tuple> current;
  size_t pos = 0;
  size_t line_no = 0;
  while (pos <= body.size()) {
    if (pos == body.size()) {
      if (line_no == 0) break;  // empty body handled by caller
    }
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) {
      if (!current.empty()) ticks.push_back(std::move(current));
      current.clear();
      if (eol == body.size()) break;
      continue;
    }
    Tuple row;
    row.reserve(schema.num_fields());
    size_t cell_start = 0;
    for (size_t f = 0; f < schema.num_fields(); ++f) {
      size_t tab = line.find('\t', cell_start);
      const bool last = (f + 1 == schema.num_fields());
      if (last) {
        if (tab != std::string::npos) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_no) + ": too many columns (want " +
              std::to_string(schema.num_fields()) + ")");
        }
        tab = line.size();
      } else if (tab == std::string::npos) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) + ": too few columns (want " +
            std::to_string(schema.num_fields()) + ")");
      }
      Result<Value> v = ParseCell(line.substr(cell_start, tab - cell_start),
                                  schema.field(f));
      if (!v.ok()) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": " + v.status().message());
      }
      row.push_back(std::move(*v));
      cell_start = tab + 1;
    }
    current.push_back(std::move(row));
    if (eol == body.size()) break;
  }
  if (!current.empty()) ticks.push_back(std::move(current));
  return ticks;
}

}  // namespace

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kPlanError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kUnauthenticated:
      return 401;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
    case StatusCode::kFailedPrecondition:
      return 409;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kNotImplemented:
      return 501;
    case StatusCode::kInternal:
    case StatusCode::kDataLoss:
      return 500;
  }
  return 500;
}

WireService::WireService(cql::Session* session, NetOptions options)
    : session_(session), options_(std::move(options)) {}

WireService::~WireService() { Stop(); }

Status WireService::Start(uint16_t port) {
  if (running_) {
    return Status::FailedPrecondition("wire service already running");
  }
  obs::HttpServerOptions http_options;
  http_options.enable_post = true;
  http_options.keep_alive = true;
  http_options.max_body_bytes = options_.max_body_bytes;
  http_options.max_connections =
      options_.max_connections > 0 ? options_.max_connections : 8;
  CHRONICLE_RETURN_NOT_OK(http_.Start(
      port, [this](const obs::HttpRequest& req) { return Route(req); },
      http_options));
  {
    std::lock_guard<std::mutex> lock(mu_);
    worker_stop_ = false;
  }
  worker_ = std::thread([this] { IngestLoop(); });
  enricher_token_ = session_->AddStatsEnricher(
      [this](obs::StatsSnapshot* snap) { FillNetStats(snap); });
  // The service-level history sampler sees the fully enriched session
  // snapshot (net + req + per-shard sections), so it starts AFTER the
  // enricher is hooked — its construction takes an immediate first sample.
  const obs::ObservabilityOptions& obs_opts =
      session_->options().observability;
  if (obs_opts.history_capacity > 0 && history_ == nullptr) {
    history_ = std::make_unique<obs::StatsHistory>(obs_opts.history_capacity);
  }
  if (history_ != nullptr) {
    sampler_ = std::make_unique<obs::StatsSampler>(
        history_.get(), [this] { return session_->CollectStats(); },
        obs_opts.history_interval_ms);
  }
  running_ = true;
  return Status::OK();
}

void WireService::Stop() {
  if (!running_) return;
  // Sampler first (its thread runs the enricher chain), then unhook stats
  // so no snapshot races the teardown. The history ring itself survives
  // for a later Start to resume the series.
  sampler_.reset();
  session_->RemoveStatsEnricher(enricher_token_);
  http_.Stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    worker_stop_ = true;
  }
  ingest_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  running_ = false;
}

Status WireService::Drain() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (ingest_paused_) {
      return Status::FailedPrecondition(
          "cannot drain while ingest is paused");
    }
    drain_cv_.wait(lock, [this] {
      if (worker_busy_) return false;
      for (const auto& [id, state] : sessions_) {
        if (!state->queue.empty()) return false;
      }
      return true;
    });
  }
  return session_->Flush();
}

void WireService::SetIngestPaused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ingest_paused_ = paused;
  }
  ingest_cv_.notify_all();
}

// The worker: round-robin over sessions, one queued batch at a time, so a
// deep queue on one session cannot starve the others. The apply happens
// outside mu_ (HTTP threads keep accepting); Session::AppendRows itself
// serializes against every other statement driver (shell included).
void WireService::IngestLoop() {
  std::string cursor;  // last session served, for round-robin fairness
  while (true) {
    PendingBatch batch;
    SessionState* state = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ingest_cv_.wait(lock, [this] {
        if (worker_stop_) return true;
        if (ingest_paused_) return false;
        for (const auto& [id, s] : sessions_) {
          if (!s->queue.empty()) return true;
        }
        return false;
      });
      if (worker_stop_) return;
      // Pick the first non-empty queue strictly after the cursor, wrapping.
      auto it = sessions_.upper_bound(cursor);
      for (size_t i = 0; i <= sessions_.size(); ++i, ++it) {
        if (it == sessions_.end()) it = sessions_.begin();
        if (!it->second->queue.empty()) break;
      }
      if (it == sessions_.end() || it->second->queue.empty()) continue;
      state = it->second.get();
      cursor = it->first;
      batch = std::move(state->queue.front());
      state->queue.pop_front();
      worker_busy_ = true;
      applying_session_ = cursor;
    }

    // Worker id 1 tags every span the ingest worker (or the engine code it
    // calls) emits; the HTTP threads are worker 0. That tag is what keeps
    // spans attributable after the thread handoff.
    obs::RequestTracer* tracer = session_->request_tracer();
    const bool traced =
        tracer != nullptr && tracer->enabled() && batch.trace.sampled;
    if (traced) {
      const int64_t pop_ns = tracer->NowNanos();
      tracer->Emit(batch.trace, tracer->NewSpanId(), batch.root_span,
                   obs::ReqStage::kQueueWait, /*shard=*/-1, /*worker=*/1,
                   batch.enqueue_ns, pop_ns - batch.enqueue_ns, batch.rows);
    }
    const int64_t append_start = traced ? tracer->NowNanos() : 0;
    Result<uint64_t> applied = [&]() -> Result<uint64_t> {
      // Scope installed for the apply only: the engines' wal_commit/
      // maintain/merge emissions read it thread-locally.
      obs::RequestScope scope(tracer, batch.trace, batch.root_span,
                              /*worker=*/1);
      return session_->AppendRows(batch.chronicle, std::move(batch.ticks));
    }();
    if (traced) {
      tracer->Emit(batch.trace, tracer->NewSpanId(), batch.root_span,
                   obs::ReqStage::kAppend, /*shard=*/-1, /*worker=*/1,
                   append_start, tracer->NowNanos() - append_start,
                   applied.ok() ? *applied : 0);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      state->queue_rows -= batch.rows;
      if (applied.ok()) {
        state->rows_applied += *applied;
        rows_applied_total_ += *applied;
      }
      // A failed apply still leaves the queue (the rows were validated at
      // accept time, so this is a server-side invariant breach, not a
      // client mistake); the count drop is visible as accepted != applied.
      // A closed session whose queue just drained is done for good: erase
      // it so a long-running service does not accumulate dead state.
      if (!state->open && state->queue.empty()) sessions_.erase(cursor);
      applying_session_.clear();
      worker_busy_ = false;
    }
    drain_cv_.notify_all();
    if (traced) {
      // Deferred slow-request check: entry on the HTTP thread to applied
      // here. OUTSIDE mu_ — the capture collects a snapshot whose net
      // enricher takes mu_.
      tracer->MaybeCaptureSlow(batch.trace,
                               tracer->NowNanos() - batch.entry_ns);
    }
  }
}

obs::HttpResponse WireService::ErrorResponse(const Status& status) {
  obs::HttpResponse resp;
  resp.status = HttpStatusFor(status.code());
  resp.content_type = "application/json";
  resp.body = cql::ErrorJson(status) + "\n";
  if (resp.status == 429) {
    resp.extra_headers.emplace_back("Retry-After",
                                    std::to_string(options_.retry_after_sec));
  }
  return resp;
}

WireService::SessionState* WireService::ResolveSession(
    const obs::HttpRequest& request, obs::HttpResponse* error) {
  const std::string* sid = request.FindHeader("x-chronicle-session");
  if (sid == nullptr) {
    *error = ErrorResponse(
        Status::Unauthenticated("missing X-Chronicle-Session header"));
    return nullptr;
  }
  auto it = sessions_.find(*sid);
  if (it == sessions_.end() || !it->second->open) {
    *error =
        ErrorResponse(Status::Unauthenticated("unknown session: " + *sid));
    return nullptr;
  }
  return it->second.get();
}

obs::HttpResponse WireService::Route(const obs::HttpRequest& request) {
  ReqTrace rt;
  obs::RequestTracer* tracer = session_->request_tracer();
  if (tracer != nullptr && tracer->enabled()) {
    rt.tracer = tracer;
    rt.entry_ns = tracer->NowNanos();
    // Accept a well-formed client traceparent verbatim (its sampled flag is
    // authoritative — a flagged client forces a full span tree even at
    // sample rate 0); mint fresh context otherwise.
    const std::string* tp = request.FindHeader("traceparent");
    if (tp == nullptr || !obs::ParseTraceparent(*tp, &rt.ctx)) {
      rt.ctx = tracer->Mint();
    }
    rt.root_span = tracer->NewSpanId();
    tracer->CountSample(rt.ctx.sampled);
  }

  obs::HttpResponse resp = RouteInner(request, &rt);

  int64_t total_ns = 0;
  if (rt.tracer != nullptr) {
    const int64_t handler_end = rt.tracer->NowNanos();
    total_ns = handler_end - rt.entry_ns;
    // Echo the propagated context on EVERY response (sampled or not) so
    // clients can correlate their logs with ours.
    resp.extra_headers.emplace_back(
        "traceparent", obs::FormatTraceparent(rt.ctx, rt.root_span));
    rt.tracer->CountRequest(rt.endpoint, resp.status >= 400, total_ns);
    if (rt.ctx.sampled) {
      // respond: handler return to the response leaving the router (the
      // socket write itself belongs to the HTTP server). Root emitted
      // last: a reader that sees the root sees a finished synchronous
      // tree (async append spans trail in after the 202 — see IngestLoop).
      rt.tracer->Emit(rt.ctx, rt.tracer->NewSpanId(), rt.root_span,
                      obs::ReqStage::kRespond, /*shard=*/-1, /*worker=*/0,
                      handler_end, rt.tracer->NowNanos() - handler_end,
                      resp.body.size());
      rt.tracer->Emit(rt.ctx, rt.root_span, rt.ctx.parent_span,
                      obs::ReqStage::kRequest, /*shard=*/-1, /*worker=*/0,
                      rt.entry_ns, total_ns,
                      static_cast<uint64_t>(resp.status));
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_total_;
    if (resp.status >= 400) {
      ++http_errors_total_;
      if (resp.status == 401) ++rejected_auth_total_;
    }
  }
  // Outside mu_: the capture path collects a snapshot whose net enricher
  // takes mu_. A 202 append defers the check to the ingest worker.
  if (rt.tracer != nullptr && !rt.deferred_slow_check) {
    rt.tracer->MaybeCaptureSlow(rt.ctx, total_ns);
  }
  return resp;
}

obs::HttpResponse WireService::RouteInner(const obs::HttpRequest& request,
                                          ReqTrace* rt) {
  // Endpoint classification up front so even auth-rejected requests land
  // in the right RED bucket.
  if (request.path == "/v1/session" || request.path == "/v1/session/close") {
    rt->endpoint = obs::ReqEndpoint::kSession;
  } else if (request.path == "/v1/sql") {
    rt->endpoint = obs::ReqEndpoint::kSql;
  } else if (request.path == "/v1/append") {
    rt->endpoint = obs::ReqEndpoint::kAppend;
  } else if (request.path == "/v1/drain") {
    rt->endpoint = obs::ReqEndpoint::kDrain;
  } else if (request.path == "/healthz" || request.path == "/stats.json" ||
             request.path == "/metrics" || request.path == "/requests.json" ||
             request.path == "/trace.json" ||
             request.path == "/history.json") {
    rt->endpoint = obs::ReqEndpoint::kMonitor;
  }

  // Auth gates /v1/* only; the read-only monitoring catalog stays open
  // (loopback bind, same contract as StartMonitoring).
  const bool is_v1 = request.path.rfind("/v1/", 0) == 0;
  if (is_v1 && !options_.auth_token.empty()) {
    const std::string* auth = request.FindHeader("authorization");
    if (auth == nullptr || *auth != "Bearer " + options_.auth_token) {
      return ErrorResponse(
          Status::Unauthenticated("missing or invalid bearer token"));
    }
  }

  obs::HttpResponse resp;
  if (request.path == "/v1/session" && request.method == "POST") {
    resp = HandleOpenSession(request);
  } else if (request.path == "/v1/session/close" && request.method == "POST") {
    resp = HandleCloseSession(request);
  } else if (request.path == "/v1/sql" && request.method == "POST") {
    resp = HandleSql(request, rt);
  } else if (request.path == "/v1/append" && request.method == "POST") {
    resp = HandleAppend(request, rt);
  } else if (request.path == "/v1/drain" && request.method == "POST") {
    resp = HandleDrain(request);
  } else if (request.path == "/healthz") {
    resp.content_type = "application/json";
    resp.body = "{\"status\":\"ok\"}\n";
  } else if (request.path == "/stats.json") {
    resp.content_type = "application/json";
    resp.body = obs::RenderJson(session_->CollectStats());
  } else if (request.path == "/metrics") {
    resp.body = obs::RenderPrometheus(session_->CollectStats());
  } else if (request.path == "/requests.json") {
    resp.content_type = "application/json";
    obs::RequestTracer* tracer = session_->request_tracer();
    if (tracer != nullptr && tracer->enabled()) {
      resp.body = tracer->RenderRequestsJson();
    } else {
      resp.body =
          "{\"emitted\":0,\"capacity\":0,\"sample_rate\":0,\"traces\":[]}";
    }
  } else if (request.path == "/trace.json") {
    resp.content_type = "application/json";
    resp.body = RenderMergedTraceJson();
  } else if (request.path == "/history.json") {
    resp.content_type = "application/json";
    if (history_ != nullptr) {
      resp.body = obs::RenderHistoryJson(history_->Windows(),
                                         history_->total_samples(),
                                         history_->capacity());
    } else {
      resp.body = "{\"samples\":0,\"capacity\":0,\"windows\":[]}";
    }
  } else {
    resp = ErrorResponse(Status::NotFound("no route: " + request.path));
  }
  return resp;
}

std::string WireService::RenderMergedTraceJson() const {
  std::vector<obs::ShardTraceSnapshot> shards;
  if (session_->sharded()) {
    shard::ShardedDatabase* sharded = session_->sharded_db();
    for (size_t k = 0; k < sharded->num_shards(); ++k) {
      const obs::TraceRing* ring = sharded->engine(k).trace();
      if (ring == nullptr || !ring->enabled()) continue;
      obs::ShardTraceSnapshot snap;
      snap.shard = static_cast<int>(k);
      snap.emitted = ring->total_emitted();
      snap.capacity = ring->capacity();
      snap.spans = ring->Snapshot();
      shards.push_back(std::move(snap));
    }
  } else if (session_->db() != nullptr) {
    const obs::TraceRing* ring = session_->db()->trace();
    if (ring != nullptr && ring->enabled()) {
      obs::ShardTraceSnapshot snap;
      snap.shard = -1;
      snap.emitted = ring->total_emitted();
      snap.capacity = ring->capacity();
      snap.spans = ring->Snapshot();
      shards.push_back(std::move(snap));
    }
  }
  return obs::RenderTraceJson(shards);
}

obs::HttpResponse WireService::HandleOpenSession(
    const obs::HttpRequest& request) {
  (void)request;
  obs::HttpResponse resp;
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_open_sessions > 0) {
    size_t open = 0;
    for (const auto& [id, state] : sessions_) {
      if (state->open) ++open;
    }
    if (open >= options_.max_open_sessions) {
      return ErrorResponse(Status::ResourceExhausted(
          "too many open sessions (" +
          std::to_string(options_.max_open_sessions) +
          "); close one or retry later"));
    }
  }
  const std::string id = "s" + std::to_string(next_session_++);
  auto state = std::make_unique<SessionState>();
  state->id = id;
  sessions_[id] = std::move(state);
  ++sessions_opened_;
  resp.content_type = "application/json";
  resp.body = "{\"session\":\"" + id + "\",\"queue_rows_limit\":" +
              std::to_string(options_.session_queue_rows) +
              ",\"row_quota\":" + std::to_string(options_.session_row_quota) +
              "}\n";
  return resp;
}

obs::HttpResponse WireService::HandleCloseSession(
    const obs::HttpRequest& request) {
  obs::HttpResponse resp;
  std::lock_guard<std::mutex> lock(mu_);
  SessionState* state = ResolveSession(request, &resp);
  if (state == nullptr) return resp;
  state->open = false;  // queued rows still drain; new requests get 401
  resp.content_type = "application/json";
  resp.body = "{\"closed\":\"" + state->id + "\"}\n";
  // Erase now if nothing is pending; otherwise the ingest worker erases
  // it after the last queued batch applies (it may be mid-apply on this
  // session right now — the applying_session_ guard keeps `state` alive).
  if (state->queue.empty() && applying_session_ != state->id) {
    const std::string id = state->id;  // erase destroys state
    sessions_.erase(id);
  }
  return resp;
}

obs::HttpResponse WireService::HandleSql(const obs::HttpRequest& request,
                                         ReqTrace* rt) {
  obs::HttpResponse resp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SessionState* state = ResolveSession(request, &resp);
    if (state == nullptr) return resp;
    ++state->statements;
    ++sql_statements_total_;
  }
  const bool traced = rt->tracer != nullptr && rt->ctx.sampled;
  // The body is parsed once; a traced request times that parse as its own
  // stage.
  const int64_t parse_start = traced ? rt->tracer->NowNanos() : 0;
  Result<std::vector<cql::Statement>> stmts = cql::ParseScript(request.body);
  if (traced) {
    rt->tracer->Emit(rt->ctx, rt->tracer->NewSpanId(), rt->root_span,
                     obs::ReqStage::kParse, /*shard=*/-1, /*worker=*/0,
                     parse_start, rt->tracer->NowNanos() - parse_start,
                     stmts.ok() ? stmts->size() : 0);
  }
  if (!stmts.ok()) return ErrorResponse(stmts.status());
  const int64_t exec_start = traced ? rt->tracer->NowNanos() : 0;
  Result<cql::ExecResult> result = [&]() -> Result<cql::ExecResult> {
    if (!traced) return session_->ExecuteStatements(*stmts);
    // RequestScope makes the engine's maintain/wal_commit spans (emitted
    // on THIS thread — synchronous SQL drives maintenance inline) land
    // under this request's root.
    obs::RequestScope scope(rt->tracer, rt->ctx, rt->root_span, /*worker=*/0);
    return session_->ExecuteStatements(*stmts);
  }();
  if (traced) {
    rt->tracer->Emit(rt->ctx, rt->tracer->NewSpanId(), rt->root_span,
                     obs::ReqStage::kAppend, /*shard=*/-1, /*worker=*/0,
                     exec_start, rt->tracer->NowNanos() - exec_start,
                     result.ok() ? result->rows.size() : 0);
  }
  if (!result.ok()) return ErrorResponse(result.status());

  resp.content_type = "application/json";
  std::string& out = resp.body;
  out = "{\"message\":\"" + JsonEscape(result->message) + "\"";
  if (result->schema.num_fields() > 0) {
    out += ",\"schema\":[";
    for (size_t i = 0; i < result->schema.num_fields(); ++i) {
      const Field& f = result->schema.field(i);
      if (i > 0) out += ",";
      out += "{\"name\":\"" + JsonEscape(f.name) + "\",\"type\":\"" +
             DataTypeToString(f.type) + "\"}";
    }
    out += "],\"rows\":[";
    for (size_t r = 0; r < result->rows.size(); ++r) {
      if (r > 0) out += ",";
      out += "[";
      for (size_t c = 0; c < result->rows[r].size(); ++c) {
        if (c > 0) out += ",";
        JsonValue(&out, result->rows[r][c]);
      }
      out += "]";
    }
    out += "]";
  }
  out += "}\n";
  return resp;
}

obs::HttpResponse WireService::HandleAppend(const obs::HttpRequest& request,
                                            ReqTrace* rt) {
  obs::HttpResponse resp;
  const bool traced = rt->tracer != nullptr && rt->ctx.sampled;
  std::string chronicle;
  if (!QueryParam(request.query, "chronicle", &chronicle) ||
      chronicle.empty()) {
    return ErrorResponse(
        Status::InvalidArgument("missing ?chronicle= parameter"));
  }
  if (request.body.empty()) {
    return ErrorResponse(Status::InvalidArgument("empty append body"));
  }

  // parse: schema resolution + TSV decode, the whole body-to-rows cost.
  const int64_t parse_start = traced ? rt->tracer->NowNanos() : 0;

  // Resolve the schema binding (cached per session after first use).
  Schema schema;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SessionState* state = ResolveSession(request, &resp);
    if (state == nullptr) return resp;
    auto bound = state->bindings.find(chronicle);
    if (bound != state->bindings.end()) schema = bound->second;
  }
  if (schema.num_fields() == 0) {
    Result<Schema> resolved = session_->ChronicleSchema(chronicle);
    if (!resolved.ok()) return ErrorResponse(resolved.status());
    schema = std::move(*resolved);
  }

  Result<std::vector<std::vector<Tuple>>> ticks =
      DecodeTsv(request.body, schema);
  if (traced) {
    rt->tracer->Emit(rt->ctx, rt->tracer->NewSpanId(), rt->root_span,
                     obs::ReqStage::kParse, /*shard=*/-1, /*worker=*/0,
                     parse_start, rt->tracer->NowNanos() - parse_start,
                     ticks.ok() ? ticks->size() : 0);
  }
  if (!ticks.ok()) return ErrorResponse(ticks.status());
  if (ticks->empty()) {
    return ErrorResponse(Status::InvalidArgument("append body has no rows"));
  }
  PendingBatch batch;
  batch.chronicle = chronicle;
  for (const std::vector<Tuple>& tick : *ticks) batch.rows += tick.size();
  batch.ticks = std::move(*ticks);
  if (batch.rows > options_.session_queue_rows) {
    // 429 means "retry later", but a body bigger than the whole queue can
    // never be accepted — answering 429 would livelock a Retry-After-
    // honoring client resending the same body forever.
    return ErrorResponse(Status::InvalidArgument(
        "append body of " + std::to_string(batch.rows) +
        " rows exceeds the session queue capacity (" +
        std::to_string(options_.session_queue_rows) +
        " rows); split it into smaller bodies"));
  }
  const uint64_t accepted_ticks = batch.ticks.size();
  const uint64_t accepted_rows = batch.rows;

  {
    std::lock_guard<std::mutex> lock(mu_);
    SessionState* state = ResolveSession(request, &resp);
    if (state == nullptr) return resp;
    state->bindings.emplace(chronicle, schema);
    if (options_.session_row_quota > 0 &&
        state->rows_accepted + batch.rows > options_.session_row_quota) {
      ++state->rejected_quota;
      ++rejected_quota_total_;
      return ErrorResponse(Status::ResourceExhausted(
          "session row quota spent (" +
          std::to_string(options_.session_row_quota) + " rows)"));
    }
    if (state->queue_rows + batch.rows > options_.session_queue_rows) {
      ++state->rejected_backpressure;
      ++rejected_backpressure_total_;
      return ErrorResponse(Status::ResourceExhausted(
          "session ingest queue full (" + std::to_string(state->queue_rows) +
          "/" + std::to_string(options_.session_queue_rows) + " rows)"));
    }
    state->queue_rows += batch.rows;
    state->rows_accepted += batch.rows;
    append_batches_total_ += accepted_ticks;
    append_rows_total_ += accepted_rows;
    if (traced) {
      // Carry the context across the handoff; the ingest worker emits
      // queue_wait/append and runs the slow-request check at apply time
      // (the 202 below only covers the synchronous half).
      batch.trace = rt->ctx;
      batch.root_span = rt->root_span;
      batch.entry_ns = rt->entry_ns;
      batch.enqueue_ns = rt->tracer->NowNanos();
      rt->deferred_slow_check = true;
    }
    state->queue.push_back(std::move(batch));
    resp.status = 202;
    resp.content_type = "application/json";
    resp.body = "{\"accepted_ticks\":" + std::to_string(accepted_ticks) +
                ",\"accepted_rows\":" + std::to_string(accepted_rows) +
                ",\"queued_rows\":" + std::to_string(state->queue_rows) +
                "}\n";
  }
  ingest_cv_.notify_one();
  return resp;
}

obs::HttpResponse WireService::HandleDrain(const obs::HttpRequest& request) {
  obs::HttpResponse resp;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SessionState* state = ResolveSession(request, &resp);
    if (state == nullptr) return resp;
  }
  const Status status = Drain();
  if (!status.ok()) return ErrorResponse(status);
  std::lock_guard<std::mutex> lock(mu_);
  resp.content_type = "application/json";
  resp.body =
      "{\"drained\":true,\"rows_applied_total\":" +
      std::to_string(rows_applied_total_) + "}\n";
  return resp;
}

void WireService::FillNetStats(obs::StatsSnapshot* snap) {
  std::lock_guard<std::mutex> lock(mu_);
  obs::NetStatsSnapshot& n = snap->net;
  n.attached = true;
  n.port = http_.port();
  n.requests_total = requests_total_;
  n.http_errors_total = http_errors_total_;
  n.sessions_opened = sessions_opened_;
  n.sql_statements_total = sql_statements_total_;
  n.append_batches_total = append_batches_total_;
  n.append_rows_total = append_rows_total_;
  n.rows_applied_total = rows_applied_total_;
  n.rejected_backpressure_total = rejected_backpressure_total_;
  n.rejected_quota_total = rejected_quota_total_;
  n.rejected_auth_total = rejected_auth_total_;
  n.active_sessions = 0;
  n.queue_rows = 0;
  for (const auto& [id, state] : sessions_) {
    if (state->open) ++n.active_sessions;
    n.queue_rows += state->queue_rows;
    obs::NetSessionSnapshot s;
    s.id = state->id;
    s.statements = state->statements;
    s.append_rows_accepted = state->rows_accepted;
    s.append_rows_applied = state->rows_applied;
    s.queue_rows = state->queue_rows;
    s.rejected_backpressure = state->rejected_backpressure;
    s.rejected_quota = state->rejected_quota;
    s.row_quota = options_.session_row_quota;
    n.sessions.push_back(std::move(s));
  }
}

}  // namespace net
}  // namespace chronicle
