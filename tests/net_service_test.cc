// Tests for the CQL-over-the-wire front-end (src/net/wire_service.h).
//
// Every test drives a real WireService over a real loopback socket with
// net::HttpClient — the same client bench E16 and tools/net_client use —
// so the coverage includes the HTTP framing, the session protocol, the
// TSV decoder, and the backpressure contract, not just the handlers.
//
// The two acceptance properties from the experiment plan live here:
//   * Backpressure: a saturated session gets 429 + Retry-After while a
//     second session keeps making progress, and after the queue drains
//     the state matches a local oracle exactly (nothing dropped, nothing
//     duplicated).
//   * Equivalence: networked ingest lands byte-identically to local
//     AppendMany on the row-compiled and columnar delta engines, and on a
//     sharded session.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cql/session.h"
#include <gtest/gtest.h>
#include "net/http_client.h"
#include "net/wire_service.h"
#include "workload/call_records.h"

namespace chronicle {
namespace {

using cql::Session;
using net::HttpClient;
using net::HttpClientResponse;
using net::NetOptions;
using net::WireService;

constexpr char kDdl[] =
    "CREATE CHRONICLE calls (caller INT64, region STRING, minutes INT64, "
    "charge DOUBLE) RETAIN LAST 8;"
    "CREATE VIEW by_caller AS "
    "SELECT caller, SUM(minutes) AS m, COUNT(*) AS n "
    "FROM calls GROUP BY caller;";

// One TSV cell in the wire encoding /v1/append decodes. %.17g round-trips
// doubles exactly through strtod, so a networked row is bit-identical to
// the locally appended one.
std::string TsvCell(const Value& v) {
  if (v.is_null()) return "\\N";
  if (v.is_int64()) return std::to_string(v.int64());
  if (v.is_double()) {
    char buf[64];
    snprintf(buf, sizeof(buf), "%.17g", v.dbl());
    return buf;
  }
  return v.str();
}

// Encodes ticks as the /v1/append body: one row per line, blank line
// between ticks.
std::string EncodeTicks(const std::vector<std::vector<Tuple>>& ticks) {
  std::string body;
  for (size_t t = 0; t < ticks.size(); ++t) {
    if (t > 0) body += "\n";
    for (const Tuple& row : ticks[t]) {
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) body += "\t";
        body += TsvCell(row[c]);
      }
      body += "\n";
    }
  }
  return body;
}

// Rows of a SELECT result as sorted strings, so sharded (merge-order
// dependent) and unsharded results compare as multisets.
std::vector<std::string> SortedRows(const cql::ExecResult& result) {
  std::vector<std::string> out;
  out.reserve(result.rows.size());
  for (const Tuple& row : result.rows) {
    std::string s;
    for (const Value& v : row) s += v.ToString() + "|";
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<Session> OpenWithDdl(DatabaseOptions options) {
  auto session = Session::Open(std::move(options));
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  auto ddl = (*session)->ExecuteScript(kDdl);
  EXPECT_TRUE(ddl.ok()) << ddl.status().ToString();
  return std::move(*session);
}

class NetServiceTest : public ::testing::Test {
 protected:
  void StartService(DatabaseOptions db_options, NetOptions net_options) {
    session_ = OpenWithDdl(std::move(db_options));
    ASSERT_NE(session_, nullptr);
    service_ = std::make_unique<WireService>(session_.get(), net_options);
    Status started = service_->Start(0);
    ASSERT_TRUE(started.ok()) << started.ToString();
    client_ = std::make_unique<HttpClient>(service_->port());
  }

  void TearDown() override {
    if (service_ != nullptr) service_->Stop();
  }

  // Opens a wire session and returns its id ("s1", ...).
  std::string OpenWireSession(HttpClient* client) {
    auto resp = client->Post("/v1/session", "");
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, 200) << resp->body;
    const std::string marker = "\"session\":\"";
    const size_t at = resp->body.find(marker);
    EXPECT_NE(at, std::string::npos) << resp->body;
    const size_t start = at + marker.size();
    return resp->body.substr(start, resp->body.find('"', start) - start);
  }

  static std::vector<std::pair<std::string, std::string>> WithSession(
      const std::string& sid) {
    return {{"X-Chronicle-Session", sid}};
  }

  std::unique_ptr<Session> session_;
  std::unique_ptr<WireService> service_;
  std::unique_ptr<HttpClient> client_;
};

TEST_F(NetServiceTest, SqlAndAppendEndToEnd) {
  StartService(DatabaseOptions(), NetOptions());
  const std::string sid = OpenWireSession(client_.get());

  // DML + SELECT through /v1/sql: rows come back as JSON.
  auto sql = client_->Post(
      "/v1/sql",
      "INSERT INTO calls VALUES (1, 'NJ', 10, 2.0) AT 1;"
      "SELECT * FROM by_caller;",
      WithSession(sid));
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(sql->status, 200) << sql->body;
  EXPECT_NE(sql->body.find("\"rows\":[[1,10,1]]"), std::string::npos)
      << sql->body;
  EXPECT_NE(sql->body.find("\"name\":\"caller\""), std::string::npos)
      << sql->body;

  // Bulk ingest through /v1/append: two ticks, three rows.
  auto append = client_->Post("/v1/append?chronicle=calls",
                              "2\tNY\t5\t1.5\n2\tNY\t3\t0.5\n\n1\tNJ\t7\t1\n",
                              WithSession(sid));
  ASSERT_TRUE(append.ok()) << append.status().ToString();
  EXPECT_EQ(append->status, 202) << append->body;
  EXPECT_NE(append->body.find("\"accepted_ticks\":2"), std::string::npos)
      << append->body;
  EXPECT_NE(append->body.find("\"accepted_rows\":3"), std::string::npos)
      << append->body;

  auto drain = client_->Post("/v1/drain", "", WithSession(sid));
  ASSERT_TRUE(drain.ok()) << drain.status().ToString();
  EXPECT_EQ(drain->status, 200) << drain->body;

  auto after = client_->Post("/v1/sql", "SELECT * FROM by_caller;",
                             WithSession(sid));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after->body.find("[1,17,2]"), std::string::npos) << after->body;
  EXPECT_NE(after->body.find("[2,8,2]"), std::string::npos) << after->body;
}

TEST_F(NetServiceTest, NullCellsDecodeAsNull) {
  StartService(DatabaseOptions(), NetOptions());
  const std::string sid = OpenWireSession(client_.get());

  // Empty cell and \N both decode to NULL (region is NULL here); the row
  // still lands and aggregates by caller.
  auto append = client_->Post("/v1/append?chronicle=calls",
                              "3\t\\N\t7\t0.5\n4\t\t2\t\\N\n",
                              WithSession(sid));
  ASSERT_TRUE(append.ok()) << append.status().ToString();
  EXPECT_EQ(append->status, 202) << append->body;
  ASSERT_EQ(client_->Post("/v1/drain", "", WithSession(sid))->status, 200);

  auto rows = client_->Post("/v1/sql", "SELECT * FROM by_caller;",
                            WithSession(sid));
  EXPECT_NE(rows->body.find("[3,7,1]"), std::string::npos) << rows->body;
  EXPECT_NE(rows->body.find("[4,2,1]"), std::string::npos) << rows->body;
}

TEST_F(NetServiceTest, AuthTokenGatesV1ButNotMonitoring) {
  NetOptions net;
  net.auth_token = "sekrit";
  StartService(DatabaseOptions(), net);

  // No token: 401 with the shared error shape.
  auto denied = client_->Post("/v1/session", "");
  ASSERT_TRUE(denied.ok()) << denied.status().ToString();
  EXPECT_EQ(denied->status, 401);
  EXPECT_NE(denied->body.find("\"code\":\"Unauthenticated\""),
            std::string::npos)
      << denied->body;

  // Wrong token: still 401.
  auto wrong = client_->Post("/v1/session", "",
                             {{"Authorization", "Bearer nope"}});
  EXPECT_EQ(wrong->status, 401);

  // Right token: 200.
  auto ok = client_->Post("/v1/session", "",
                          {{"Authorization", "Bearer sekrit"}});
  EXPECT_EQ(ok->status, 200) << ok->body;

  // The read-only monitoring catalog stays open (loopback bind).
  auto healthz = client_->Get("/healthz");
  EXPECT_EQ(healthz->status, 200);
  auto metrics = client_->Get("/metrics");
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("chronicle_net_rejected_auth_total"),
            std::string::npos);
}

TEST_F(NetServiceTest, SessionResolutionRejections) {
  StartService(DatabaseOptions(), NetOptions());

  // Missing session header.
  auto missing = client_->Post("/v1/sql", "SELECT * FROM by_caller;");
  EXPECT_EQ(missing->status, 401);
  EXPECT_NE(missing->body.find("X-Chronicle-Session"), std::string::npos)
      << missing->body;

  // Unknown session id.
  auto unknown = client_->Post("/v1/sql", "SELECT * FROM by_caller;",
                               WithSession("s999"));
  EXPECT_EQ(unknown->status, 401);
  EXPECT_NE(unknown->body.find("unknown session"), std::string::npos)
      << unknown->body;

  // A closed session rejects new work.
  const std::string sid = OpenWireSession(client_.get());
  auto closed = client_->Post("/v1/session/close", "", WithSession(sid));
  EXPECT_EQ(closed->status, 200) << closed->body;
  auto after_close = client_->Post("/v1/append?chronicle=calls", "1\tNJ\t1\t1\n",
                                   WithSession(sid));
  EXPECT_EQ(after_close->status, 401);
}

TEST_F(NetServiceTest, MalformedAppendBodiesAreRejectedWhole) {
  StartService(DatabaseOptions(), NetOptions());
  const std::string sid = OpenWireSession(client_.get());

  struct Case {
    const char* path;
    const char* body;
    int want_status;
    const char* want_substr;
  };
  const Case kCases[] = {
      {"/v1/append", "1\tNJ\t1\t1\n", 400, "missing ?chronicle="},
      {"/v1/append?chronicle=nope", "1\tNJ\t1\t1\n", 404, "NotFound"},
      {"/v1/append?chronicle=calls", "", 400, "empty append body"},
      {"/v1/append?chronicle=calls", "\n\n\n", 400, "no rows"},
      {"/v1/append?chronicle=calls", "1\tNJ\t5\n", 400, "too few columns"},
      {"/v1/append?chronicle=calls", "1\tNJ\t5\t1.0\textra\n", 400,
       "too many columns"},
      {"/v1/append?chronicle=calls", "x\tNJ\t5\t1.0\n", 400, "not an INT64"},
      {"/v1/append?chronicle=calls", "1\tNJ\t5\tpi\n", 400, "not a DOUBLE"},
      // Out-of-range numerics must be rejected, not silently saturated
      // (strtoll would return LLONG_MAX, strtod HUGE_VAL).
      {"/v1/append?chronicle=calls", "99999999999999999999\tNJ\t5\t1.0\n", 400,
       "INT64 out of range"},
      {"/v1/append?chronicle=calls", "1\tNJ\t5\t1e999\n", 400,
       "DOUBLE out of range"},
      // A bad row anywhere rejects the whole body: the first (valid) line
      // must NOT be applied.
      {"/v1/append?chronicle=calls", "1\tNJ\t5\t1.0\nbad\tNJ\t5\t1.0\n", 400,
       "line 2"},
  };
  for (const Case& c : kCases) {
    auto resp = client_->Post(c.path, c.body, WithSession(sid));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, c.want_status) << c.body << " -> " << resp->body;
    EXPECT_NE(resp->body.find(c.want_substr), std::string::npos)
        << c.body << " -> " << resp->body;
  }

  // Nothing above was half-applied: the view is still empty.
  ASSERT_EQ(client_->Post("/v1/drain", "", WithSession(sid))->status, 200);
  auto rows = client_->Post("/v1/sql", "SELECT * FROM by_caller;",
                            WithSession(sid));
  EXPECT_NE(rows->body.find("\"rows\":[]"), std::string::npos) << rows->body;
}

TEST_F(NetServiceTest, SqlErrorsUseTheSharedShape) {
  StartService(DatabaseOptions(), NetOptions());
  const std::string sid = OpenWireSession(client_.get());

  auto parse = client_->Post("/v1/sql", "SELEC * FRM nothing;",
                             WithSession(sid));
  EXPECT_EQ(parse->status, 400);
  EXPECT_NE(parse->body.find("\"error\":{\"code\":\"ParseError\""),
            std::string::npos)
      << parse->body;

  auto not_found = client_->Post("/v1/sql", "SELECT * FROM nonexistent;",
                                 WithSession(sid));
  EXPECT_EQ(not_found->status, 404) << not_found->body;
  EXPECT_NE(not_found->body.find("\"code\":\"NotFound\""), std::string::npos)
      << not_found->body;

  auto no_route = client_->Post("/v1/frobnicate", "", WithSession(sid));
  EXPECT_EQ(no_route->status, 404);
}

TEST_F(NetServiceTest, OversizedBodyGets413) {
  NetOptions net;
  net.max_body_bytes = 1024;
  StartService(DatabaseOptions(), net);
  const std::string sid = OpenWireSession(client_.get());

  const std::string big(4096, 'x');
  auto resp = client_->Post("/v1/append?chronicle=calls", big,
                            WithSession(sid));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, 413);

  // The server closed that connection (the client may have been mid-send);
  // the client transparently reconnects and the service still works.
  auto healthz = client_->Get("/healthz");
  EXPECT_EQ(healthz->status, 200);
}

TEST_F(NetServiceTest, GarbageAndTruncatedRequestsDoNotWedgeTheServer) {
  StartService(DatabaseOptions(), NetOptions());

  auto raw_connect = [&]() -> int {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(service_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  };

  // Garbage request line: 400, connection closed (read to EOF works).
  {
    int fd = raw_connect();
    const std::string garbage = "THIS IS NOT HTTP\r\n\r\n";
    ASSERT_EQ(send(fd, garbage.data(), garbage.size(), 0),
              static_cast<ssize_t>(garbage.size()));
    std::string got;
    char buf[512];
    ssize_t n;
    while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) got.append(buf, n);
    close(fd);
    EXPECT_NE(got.find("400"), std::string::npos) << got;
  }

  // Truncated body: Content-Length promises 100 bytes, client hangs up
  // after 10. The server must just drop the connection.
  {
    int fd = raw_connect();
    const std::string partial =
        "POST /v1/sql HTTP/1.1\r\nContent-Length: 100\r\n\r\nSELECT * F";
    ASSERT_EQ(send(fd, partial.data(), partial.size(), 0),
              static_cast<ssize_t>(partial.size()));
    close(fd);
  }

  // Truncated head: EOF mid-headers.
  {
    int fd = raw_connect();
    const std::string partial = "POST /v1/sql HTT";
    ASSERT_EQ(send(fd, partial.data(), partial.size(), 0),
              static_cast<ssize_t>(partial.size()));
    close(fd);
  }

  // After all of the above the service still answers.
  auto healthz = client_->Get("/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(healthz->status, 200);
}

TEST_F(NetServiceTest, QuotaSpendsAndRejectsWith429) {
  NetOptions net;
  net.session_row_quota = 4;
  StartService(DatabaseOptions(), net);
  const std::string sid = OpenWireSession(client_.get());

  auto first = client_->Post("/v1/append?chronicle=calls",
                             "1\tNJ\t1\t1\n2\tNY\t1\t1\n3\tNJ\t1\t1\n",
                             WithSession(sid));
  EXPECT_EQ(first->status, 202) << first->body;

  // 3 of 4 rows spent; a 2-row batch overflows the quota and is rejected
  // whole with the backpressure contract (429 + Retry-After).
  auto over = client_->Post("/v1/append?chronicle=calls",
                            "4\tNJ\t1\t1\n5\tNY\t1\t1\n", WithSession(sid));
  EXPECT_EQ(over->status, 429) << over->body;
  EXPECT_NE(over->body.find("\"code\":\"ResourceExhausted\""),
            std::string::npos)
      << over->body;
  EXPECT_NE(over->body.find("quota"), std::string::npos) << over->body;
  ASSERT_NE(over->FindHeader("retry-after"), nullptr);

  // A 1-row batch still fits. Quota is per-session: a fresh session has a
  // fresh allowance.
  auto fits = client_->Post("/v1/append?chronicle=calls", "4\tNJ\t1\t1\n",
                            WithSession(sid));
  EXPECT_EQ(fits->status, 202) << fits->body;
  const std::string sid2 = OpenWireSession(client_.get());
  auto other = client_->Post("/v1/append?chronicle=calls",
                             "6\tNY\t1\t1\n7\tNJ\t1\t1\n", WithSession(sid2));
  EXPECT_EQ(other->status, 202) << other->body;
}

// A body with more rows than the queue holds even when empty can never be
// accepted — it must be a 400 client error, not a 429, or a Retry-After-
// honoring client (tools/net_client) resends the same body forever.
TEST_F(NetServiceTest, NeverFittingBatchGets400NotRetryable) {
  NetOptions net;
  net.session_queue_rows = 4;
  StartService(DatabaseOptions(), net);
  const std::string sid = OpenWireSession(client_.get());
  service_->SetIngestPaused(true);

  auto never = client_->Post(
      "/v1/append?chronicle=calls",
      "1\tNJ\t1\t1\n2\tNY\t1\t1\n3\tNJ\t1\t1\n4\tNY\t1\t1\n5\tNJ\t1\t1\n",
      WithSession(sid));
  ASSERT_TRUE(never.ok()) << never.status().ToString();
  EXPECT_EQ(never->status, 400) << never->body;
  EXPECT_NE(never->body.find("\"code\":\"InvalidArgument\""),
            std::string::npos)
      << never->body;
  EXPECT_NE(never->body.find("queue capacity"), std::string::npos)
      << never->body;
  EXPECT_EQ(never->FindHeader("retry-after"), nullptr);

  // A batch of exactly the queue capacity fits while the queue is empty...
  auto exact = client_->Post("/v1/append?chronicle=calls",
                             "1\tNJ\t1\t1\n2\tNY\t1\t1\n3\tNJ\t1\t1\n4\tNY\t1\t1\n",
                             WithSession(sid));
  EXPECT_EQ(exact->status, 202) << exact->body;

  // ...and with the queue now full, a 1-row batch is genuine backpressure:
  // 429 + Retry-After, worth resending after the drain.
  auto full = client_->Post("/v1/append?chronicle=calls", "6\tNJ\t1\t1\n",
                            WithSession(sid));
  EXPECT_EQ(full->status, 429) << full->body;
  ASSERT_NE(full->FindHeader("retry-after"), nullptr);

  service_->SetIngestPaused(false);
  EXPECT_EQ(client_->Post("/v1/drain", "", WithSession(sid))->status, 200);
}

// The session table must stay bounded: /v1/session refuses beyond the
// open-session cap, and a closed session's state is erased (not exported
// forever) once its queue drains.
TEST_F(NetServiceTest, SessionCapAndClosedSessionErasure) {
  NetOptions net;
  net.max_open_sessions = 2;
  StartService(DatabaseOptions(), net);

  const std::string s1 = OpenWireSession(client_.get());
  const std::string s2 = OpenWireSession(client_.get());
  auto third = client_->Post("/v1/session", "");
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_EQ(third->status, 429) << third->body;
  EXPECT_NE(third->body.find("\"code\":\"ResourceExhausted\""),
            std::string::npos)
      << third->body;
  ASSERT_NE(third->FindHeader("retry-after"), nullptr);

  // Give s1 some history, close it, and drain: its per-session stats
  // series must disappear, and its slot frees up.
  auto append = client_->Post("/v1/append?chronicle=calls", "1\tNJ\t1\t1\n",
                              WithSession(s1));
  EXPECT_EQ(append->status, 202) << append->body;
  EXPECT_EQ(client_->Post("/v1/drain", "", WithSession(s1))->status, 200);
  EXPECT_EQ(client_->Post("/v1/session/close", "", WithSession(s1))->status,
            200);

  auto stats = client_->Get("/stats.json");
  EXPECT_EQ(stats->body.find("\"id\":\"" + s1 + "\""), std::string::npos)
      << stats->body;
  EXPECT_NE(stats->body.find("\"id\":\"" + s2 + "\""), std::string::npos)
      << stats->body;
  // Totals survive the erasure.
  EXPECT_NE(stats->body.find("\"rows_applied_total\":1"), std::string::npos)
      << stats->body;

  const std::string s3 = OpenWireSession(client_.get());
  auto works = client_->Post("/v1/append?chronicle=calls", "2\tNY\t1\t1\n",
                             WithSession(s3));
  EXPECT_EQ(works->status, 202) << works->body;

  // A session closed with rows still queued drains first, then goes away.
  service_->SetIngestPaused(true);
  auto queued = client_->Post("/v1/append?chronicle=calls", "3\tNJ\t1\t1\n",
                              WithSession(s3));
  EXPECT_EQ(queued->status, 202) << queued->body;
  EXPECT_EQ(client_->Post("/v1/session/close", "", WithSession(s3))->status,
            200);
  service_->SetIngestPaused(false);
  EXPECT_EQ(client_->Post("/v1/drain", "", WithSession(s2))->status, 200);
  auto after = client_->Get("/stats.json");
  EXPECT_EQ(after->body.find("\"id\":\"" + s3 + "\""), std::string::npos)
      << after->body;
  // Both of s3's rows landed before it was torn down.
  EXPECT_NE(after->body.find("\"rows_applied_total\":3"), std::string::npos)
      << after->body;
}

// Unconsumed request bodies must not desync the keep-alive stream:
// Transfer-Encoding (unimplemented framing) is rejected with 501 + close,
// and a Content-Length body on a 405'd method is drained so the next
// pipelined request parses cleanly instead of parsing the body bytes.
TEST_F(NetServiceTest, UnconsumedBodiesNeverDesyncTheConnection) {
  StartService(DatabaseOptions(), NetOptions());

  auto raw_connect = [&]() -> int {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(service_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  };
  auto read_all = [](int fd) {
    std::string got;
    char buf[2048];
    ssize_t n;
    while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) got.append(buf, n);
    close(fd);
    return got;
  };

  // Chunked POST: 501, connection closed (read to EOF terminates).
  {
    int fd = raw_connect();
    const std::string req =
        "POST /v1/sql HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        "5\r\nhello\r\n0\r\n\r\n";
    ASSERT_EQ(send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    const std::string got = read_all(fd);
    EXPECT_NE(got.find("501"), std::string::npos) << got;
    EXPECT_NE(got.find("Connection: close"), std::string::npos) << got;
  }

  // Malformed Content-Length: 400, connection closed (framing unknown).
  {
    int fd = raw_connect();
    const std::string req =
        "POST /v1/sql HTTP/1.1\r\nContent-Length: banana\r\n\r\n";
    ASSERT_EQ(send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    const std::string got = read_all(fd);
    EXPECT_NE(got.find("400"), std::string::npos) << got;
    EXPECT_NE(got.find("Connection: close"), std::string::npos) << got;
  }

  // PUT with a body, pipelined with a GET: the PUT gets 405, its 5 body
  // bytes are drained (NOT parsed as a request), and the GET answers 200.
  {
    int fd = raw_connect();
    const std::string req =
        "PUT /v1/sql HTTP/1.1\r\nContent-Length: 5\r\n\r\nHELLO"
        "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
    ASSERT_EQ(send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    const std::string got = read_all(fd);
    EXPECT_NE(got.find("405"), std::string::npos) << got;
    EXPECT_NE(got.find("200 OK"), std::string::npos) << got;
    EXPECT_NE(got.find("\"status\":\"ok\""), std::string::npos) << got;
  }
}

// After \listen the shell REPL and the wire service drive the SAME
// cql::Session from different threads; Session's internal mutex is the
// serialization point. This hammers both drivers concurrently — TSan (CI
// runs this suite under it) catches any regression, and the final counts
// prove no lost updates.
TEST_F(NetServiceTest, ConcurrentShellAndWireDriversAreSerialized) {
  StartService(DatabaseOptions(), NetOptions());
  const std::string sid = OpenWireSession(client_.get());

  constexpr int kShellInserts = 120;
  constexpr int kWireAppends = 60;
  std::thread shell([&] {
    // The REPL path: direct ExecuteSql on the session, as \listen leaves
    // the shell doing.
    for (int i = 0; i < kShellInserts; ++i) {
      auto r = session_->ExecuteSql(
          "INSERT INTO calls VALUES (900, 'NJ', 1, 0.5);");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  });
  for (int i = 0; i < kWireAppends; ++i) {
    auto resp = client_->Post("/v1/append?chronicle=calls",
                              "901\tNY\t1\t1.0\n", WithSession(sid));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, 202) << resp->body;
  }
  shell.join();
  ASSERT_EQ(client_->Post("/v1/drain", "", WithSession(sid))->status, 200);

  auto rows = session_->ExecuteSql("SELECT * FROM by_caller;");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  const std::vector<std::string> sorted = SortedRows(*rows);
  EXPECT_EQ(sorted.size(), 2u);
  EXPECT_NE(std::find(sorted.begin(), sorted.end(),
                      "900|" + std::to_string(kShellInserts) + "|" +
                          std::to_string(kShellInserts) + "|"),
            sorted.end());
  EXPECT_NE(std::find(sorted.begin(), sorted.end(),
                      "901|" + std::to_string(kWireAppends) + "|" +
                          std::to_string(kWireAppends) + "|"),
            sorted.end());
}

// The acceptance test: with the ingest worker paused, session A fills its
// bounded queue and starts collecting 429s; session B keeps accepting
// appends and /v1/sql keeps answering. After unpausing and draining, the
// database matches a local oracle that applied the same accepted batches —
// nothing dropped, nothing duplicated.
TEST_F(NetServiceTest, BackpressureIsPerSessionAndLossless) {
  NetOptions net;
  net.session_queue_rows = 64;
  StartService(DatabaseOptions(), net);

  HttpClient client_b(service_->port());
  const std::string sid_a = OpenWireSession(client_.get());
  const std::string sid_b = OpenWireSession(&client_b);

  CallRecordGenerator gen({.num_accounts = 50, .seed = 7});
  std::vector<std::vector<std::vector<Tuple>>> accepted;  // oracle replay

  service_->SetIngestPaused(true);

  // Fill A's queue: 4 batches of 16 rows fit exactly.
  for (int i = 0; i < 4; ++i) {
    std::vector<std::vector<Tuple>> ticks = {gen.NextBatch(16)};
    auto resp = client_->Post("/v1/append?chronicle=calls",
                              EncodeTicks(ticks), WithSession(sid_a));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->status, 202) << resp->body;
    accepted.push_back(std::move(ticks));
  }

  // The queue is full: the next batch bounces with 429 + Retry-After and
  // the shared error shape, atomically (no partial enqueue).
  std::vector<std::vector<Tuple>> overflow_ticks = {gen.NextBatch(16)};
  const std::string overflow_body = EncodeTicks(overflow_ticks);
  auto rejected = client_->Post("/v1/append?chronicle=calls", overflow_body,
                                WithSession(sid_a));
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status, 429) << rejected->body;
  EXPECT_NE(rejected->body.find("\"code\":\"ResourceExhausted\""),
            std::string::npos)
      << rejected->body;
  EXPECT_NE(rejected->body.find("queue full"), std::string::npos)
      << rejected->body;
  const std::string* retry_after = rejected->FindHeader("retry-after");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "1");

  // Session B is unaffected by A's saturation.
  std::vector<std::vector<Tuple>> b_ticks = {gen.NextBatch(16)};
  auto b_resp = client_b.Post("/v1/append?chronicle=calls",
                              EncodeTicks(b_ticks), WithSession(sid_b));
  ASSERT_TRUE(b_resp.ok()) << b_resp.status().ToString();
  EXPECT_EQ(b_resp->status, 202) << b_resp->body;
  accepted.push_back(b_ticks);

  // /v1/sql still answers while ingest is backed up.
  auto sql = client_b.Post("/v1/sql", "SELECT * FROM by_caller;",
                           WithSession(sid_b));
  EXPECT_EQ(sql->status, 200) << sql->body;

  // Draining while paused is a FailedPrecondition (409), not a hang.
  auto stuck = client_->Post("/v1/drain", "", WithSession(sid_a));
  EXPECT_EQ(stuck->status, 409) << stuck->body;

  // The saturation is visible in the monitoring catalog.
  auto metrics = client_b.Get("/metrics");
  EXPECT_NE(metrics->body.find("chronicle_net_rejected_backpressure_total 1"),
            std::string::npos);
  auto stats = client_b.Get("/stats.json");
  EXPECT_NE(stats->body.find("\"rejected_backpressure_total\":1"),
            std::string::npos)
      << stats->body;

  // Unpause, drain, and retry the rejected batch — the retry is the
  // client's job, and after it lands nothing is lost.
  service_->SetIngestPaused(false);
  ASSERT_EQ(client_->Post("/v1/drain", "", WithSession(sid_a))->status, 200);
  auto retried = client_->Post("/v1/append?chronicle=calls", overflow_body,
                               WithSession(sid_a));
  EXPECT_EQ(retried->status, 202) << retried->body;
  accepted.push_back(overflow_ticks);
  ASSERT_EQ(client_->Post("/v1/drain", "", WithSession(sid_a))->status, 200);

  // Local oracle: apply exactly the accepted batches. The view is a
  // GroupBy (apply-order insensitive across sessions), so the sorted rows
  // must match byte for byte.
  std::unique_ptr<Session> oracle = OpenWithDdl(DatabaseOptions());
  ASSERT_NE(oracle, nullptr);
  uint64_t oracle_rows = 0;
  for (const auto& ticks : accepted) {
    auto applied = oracle->AppendRows("calls", ticks);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    oracle_rows += *applied;
  }
  EXPECT_EQ(oracle_rows, 6u * 16u);

  auto net_rows = session_->ExecuteSql("SELECT * FROM by_caller;");
  auto oracle_view = oracle->ExecuteSql("SELECT * FROM by_caller;");
  ASSERT_TRUE(net_rows.ok());
  ASSERT_TRUE(oracle_view.ok());
  EXPECT_FALSE(net_rows->rows.empty());
  EXPECT_EQ(SortedRows(*net_rows), SortedRows(*oracle_view));
}

// Networked-vs-local equivalence across the delta engines and sharding:
// the same generated stream ingested over the wire and via local
// AppendRows must produce byte-identical view contents.
struct EngineConfig {
  const char* name;
  size_t shards;
  bool columnar;
};

class NetEquivalenceTest : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(NetEquivalenceTest, NetworkedMatchesLocalAppendMany) {
  const EngineConfig& cfg = GetParam();

  DatabaseOptions options;
  options.sharding.num_shards = cfg.shards;
  std::unique_ptr<Session> server = OpenWithDdl(options);
  ASSERT_NE(server, nullptr);
  std::unique_ptr<Session> oracle = OpenWithDdl(options);
  ASSERT_NE(oracle, nullptr);
  for (Session* s : {server.get(), oracle.get()}) {
    MaintenanceOptions m = s->maintenance_options();
    m.use_columnar_kernels = cfg.columnar;
    s->ReconfigureMaintenance(m);
  }

  WireService service(server.get(), NetOptions{});
  ASSERT_TRUE(service.Start(0).ok());
  HttpClient client(service.port());

  auto resp = client.Post("/v1/session", "");
  ASSERT_TRUE(resp.ok());
  const std::string marker = "\"session\":\"";
  const size_t at = resp->body.find(marker);
  ASSERT_NE(at, std::string::npos);
  const size_t start = at + marker.size();
  const std::string sid =
      resp->body.substr(start, resp->body.find('"', start) - start);

  CallRecordGenerator gen({.num_accounts = 100, .seed = 11});
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<std::vector<Tuple>> ticks;
    for (int t = 0; t < 4; ++t) ticks.push_back(gen.NextBatch(32));
    auto posted =
        client.Post("/v1/append?chronicle=calls", EncodeTicks(ticks),
                    {{"X-Chronicle-Session", sid}});
    ASSERT_TRUE(posted.ok()) << posted.status().ToString();
    ASSERT_EQ(posted->status, 202) << posted->body;
    auto applied = oracle->AppendRows("calls", std::move(ticks));
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }
  auto drained =
      client.Post("/v1/drain", "", {{"X-Chronicle-Session", sid}});
  ASSERT_EQ(drained->status, 200) << drained->body;

  auto net_rows = server->ExecuteSql("SELECT * FROM by_caller;");
  auto oracle_rows = oracle->ExecuteSql("SELECT * FROM by_caller;");
  ASSERT_TRUE(net_rows.ok()) << net_rows.status().ToString();
  ASSERT_TRUE(oracle_rows.ok()) << oracle_rows.status().ToString();
  EXPECT_FALSE(net_rows->rows.empty());
  EXPECT_EQ(SortedRows(*net_rows), SortedRows(*oracle_rows));

  service.Stop();
}

INSTANTIATE_TEST_SUITE_P(
    Engines, NetEquivalenceTest,
    ::testing::Values(EngineConfig{"compiled", 1, false},
                      EngineConfig{"columnar", 1, true},
                      EngineConfig{"sharded4", 4, false}),
    [](const ::testing::TestParamInfo<EngineConfig>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace chronicle
