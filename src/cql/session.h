// cql::Session: the ONE statement-execution layer.
//
// Before this layer existed, statement dispatch lived in the shell
// (tools/chronicle_shell.cc) and nowhere else: the shell owned the
// database, the WAL attachment, and the stats-enricher wiring, so no other
// front-end could execute CQL without re-implementing all three. Session
// extracts that state into a library type the shell, the wire service
// (src/net), and tests all drive — one code path, one error surface.
//
// A session owns either
//   * an unsharded ChronicleDatabase, or
//   * a shard::ShardedDatabase (DatabaseOptions::sharding.num_shards > 1),
// and dispatches every statement to the right engine. On a sharded session
// the DDL broadcasts (CreateView re-binds the same parsed query per shard
// engine via BindViewQuery), DML routes through the router, and SELECT
// reads the merged view layer — so `\shards N` in the shell and the wire
// service get sharded execution with no statement-level special cases.
//
// Error surface: every failure is a Status whose StatusCode is the single
// error enum. The shell renders it as "ERROR: Code: message"
// (Status::ToString), HTTP surfaces render ErrorJson() —
// {"error":{"code":"...","message":"..."}} — and map the code to an HTTP
// status (src/net/wire_service.h). No surface invents its own strings.
//
// Thread safety: the session is the serialization point for everything
// that mutates engine state. The database's append path is single-driver
// by contract, but a session is routinely driven from several threads at
// once — the shell REPL plus the wire service's HTTP threads and ingest
// worker after \listen — so ExecuteStatement/ExecuteSql/ExecuteScript,
// AppendRows, ReconfigureMaintenance, and the WAL attach/checkpoint/
// recover calls all take one internal mutex. That mutex is FIFO
// (common/fifo_mutex.h): callers own it in the order they arrived. A
// script executes atomically (no statement from another thread
// interleaves inside it). Read-only observability (CollectStats, the
// enricher chain, monitoring) stays lock-free here: the database's own
// obs_mutex_ makes snapshots a consistent cut against in-flight appends.

#ifndef CHRONICLE_CQL_SESSION_H_
#define CHRONICLE_CQL_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/fifo_mutex.h"
#include "common/status.h"
#include "cql/binder.h"
#include "cql/parser.h"
#include "db/database.h"
#include "obs/request_trace.h"
#include "obs/stats.h"
#include "shard/sharded_db.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace chronicle {
namespace cql {

// The one JSON error shape for every surface that reports failures as
// JSON: {"error":{"code":"ParseError","message":"..."}}. The code string
// is StatusCodeToString(status.code()) — the same enum Result<T> carries
// and the shell prints.
std::string ErrorJson(const Status& status);

class Session {
 public:
  // Opens an unsharded database, or a ShardedDatabase when
  // options.sharding.num_shards > 1 (per-shard WALs are recovered and
  // attached when sharding.wal_dir is set).
  static Result<std::unique_ptr<Session>> Open(DatabaseOptions options);

  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  bool sharded() const { return sharded_ != nullptr; }
  size_t num_shards() const {
    return sharded_ ? sharded_->num_shards() : size_t{1};
  }
  // Null when sharded.
  ChronicleDatabase* db() { return db_.get(); }
  // Null when unsharded.
  shard::ShardedDatabase* sharded_db() { return sharded_.get(); }
  // The engine meta/introspection commands act on: the unsharded database
  // or shard 0 (schemas, plans, and options are identical across shards).
  ChronicleDatabase& engine0() {
    return sharded_ ? sharded_->engine(0) : *db_;
  }
  const ChronicleDatabase& engine0() const {
    return sharded_ ? sharded_->engine(0) : *db_;
  }
  const DatabaseOptions& options() const {
    return sharded_ ? sharded_->options() : db_->options();
  }

  // --- statement execution (the shared code path) ---

  Result<ExecResult> ExecuteStatement(const Statement& statement);
  // Parses and executes one statement.
  Result<ExecResult> ExecuteSql(const std::string& sql);
  // Parses and executes a ';'-separated script, stopping at the first
  // error; returns the result of the last statement.
  Result<ExecResult> ExecuteScript(const std::string& sql);
  // ExecuteScript for a script the caller already parsed (the wire
  // service times its own parse stage): one lock for all statements.
  Result<ExecResult> ExecuteStatements(
      const std::vector<Statement>& statements);

  // --- bulk ingest (the wire service's /v1/append target) ---

  // One AppendMany: each batch is one tick. Returns total rows applied.
  Result<uint64_t> AppendRows(const std::string& chronicle,
                              std::vector<std::vector<Tuple>> batches);

  // Schema of a registered chronicle, resolved under the execution mutex
  // so a concurrent DDL statement cannot tear the lookup (the wire
  // service's prepared-binding path).
  Result<Schema> ChronicleSchema(const std::string& chronicle);

  // Flushes the sharded ingest lanes (no-op unsharded), serialized
  // against statement execution like every other mutation.
  Status Flush();

  // --- maintenance reconfiguration (shell \threads, \engine) ---

  // Broadcast to every engine so sharded and unsharded sessions stay
  // symmetric.
  void ReconfigureMaintenance(const MaintenanceOptions& options);
  const MaintenanceOptions& maintenance_options() const {
    return engine0().maintenance_options();
  }

  // --- durability (unsharded sessions; sharded sessions configure
  // per-shard WALs via ShardingOptions::wal_dir at Open) ---

  // Opens a WAL in `dir` and routes every future mutation through it.
  Status AttachWal(const std::string& dir);
  // Syncs and closes the WAL; no-op when none is attached.
  Status DetachWal();
  // Writes a checkpoint into the attached WAL's directory.
  Status WriteCheckpoint();
  // Rebuilds state from `dir` (apply the DDL first!), then resumes
  // logging there. The report's replay counters land in the WAL stats
  // section of every snapshot.
  Result<wal::RecoveryReport> Recover(const std::string& dir);
  wal::Wal* wal() { return wal_.get(); }

  // --- observability ---

  // Merged snapshot with every registered enricher applied (WAL section,
  // net section, ...).
  obs::StatsSnapshot CollectStats() const;
  // The database exposes ONE stats-enricher hook, but two owners need it
  // (the session's WAL section, the wire service's net section), so the
  // session multiplexes a chain. Returns a token for RemoveStatsEnricher.
  // On unsharded sessions the chain runs inside the database's own
  // CollectStats (HTTP endpoint, history sampler, and flight recorder all
  // see it); on sharded sessions it runs on Session::CollectStats.
  size_t AddStatsEnricher(std::function<void(obs::StatsSnapshot*)> enricher);
  void RemoveStatsEnricher(size_t token);

  // Read-only monitoring endpoint passthrough (shell \serve; unsharded
  // only — a sharded session serves merged stats via the wire service).
  Status StartMonitoring(uint16_t port);
  void StopMonitoring();
  uint16_t monitoring_port() const;

  // Request tracer, owned here because the session is the one object every
  // front-end (shell, wire service) shares. Null when
  // ObservabilityOptions::request_trace_capacity is 0. The tracer's req
  // section rides the enricher chain into every CollectStats snapshot, and
  // its slow-capture hook dumps through engine0()'s flight recorder.
  obs::RequestTracer* request_tracer() { return tracer_.get(); }

 private:
  Session() = default;

  // Callers hold exec_mu_.
  Result<ExecResult> ExecuteStatementLocked(const Statement& statement);
  Status AttachWalLocked(const std::string& dir);
  Status DetachWalLocked();

  Result<ExecResult> ExecuteSharded(const Statement& statement);
  Result<ExecResult> ShardedCreateView(const CreateViewStmt& stmt);
  Result<ExecResult> ShardedInsert(const InsertStmt& stmt);

  // Installs the db-side enricher that runs the chain (unsharded only).
  void InstallEnricherHook();
  void RunEnrichers(obs::StatsSnapshot* snap) const;

  std::unique_ptr<ChronicleDatabase> db_;
  std::unique_ptr<shard::ShardedDatabase> sharded_;

  // Request tracing (null when disabled). Declared after the engines so it
  // is destroyed first — engines never dereference it without a live
  // RequestScope, and scopes cannot outlive the front-end request that
  // installed them.
  std::unique_ptr<obs::RequestTracer> tracer_;

  // Serializes every mutating entry point (see the thread-safety note at
  // the top). Never held while collecting stats or running enrichers.
  // FIFO, so a statement that arrives while the wire ingest worker applies
  // a body waits for that body only, not for every body queued behind it.
  FifoMutex exec_mu_;

  // Durability attachment (unsharded).
  std::unique_ptr<wal::Wal> wal_;
  std::unique_ptr<wal::WalMutationLog> log_;
  // Last Recover outcome, surfaced in the WAL stats section.
  bool recovered_ = false;
  uint64_t recovery_records_applied_ = 0;
  uint64_t recovery_records_skipped_ = 0;

  // Enricher chain. The mutex serializes registration against snapshot
  // collection (which may run on the monitoring thread).
  mutable std::mutex enricher_mu_;
  std::vector<std::pair<size_t, std::function<void(obs::StatsSnapshot*)>>>
      enrichers_;
  size_t next_enricher_token_ = 1;
};

}  // namespace cql
}  // namespace chronicle

#endif  // CHRONICLE_CQL_SESSION_H_
