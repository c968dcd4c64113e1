// CQL binder/executor: lowers parsed statements onto a ChronicleDatabase.
//
// CREATE VIEW statements are bound to chronicle-algebra plans + SCA
// summarizations: WHERE predicates that touch only base-chronicle columns
// are pushed below the join (so the §5.2 guard extraction sees them);
// JOIN ... ON c = r requires r to be the relation's declared key, which is
// exactly the CA_⋈ admission rule of Definition 4.2 — joining on a non-key
// column is rejected with a PlanError explaining why.

#ifndef CHRONICLE_CQL_BINDER_H_
#define CHRONICLE_CQL_BINDER_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "cql/parser.h"
#include "db/database.h"

namespace chronicle {
namespace shard {
class ShardedDatabase;
}  // namespace shard

namespace cql {

// Result of executing one statement.
struct ExecResult {
  // Human-readable outcome ("view minutes_by_acct created (CA_join /
  // IM-log(R))", "3 rows appended at sn=17", ...).
  std::string message;
  // For SELECT: the result rows and their schema.
  Schema schema;
  std::vector<Tuple> rows;
};

// A CREATE VIEW query bound against one engine: the CA plan, the
// summarization, the finalizer columns, and the complexity label. Plans
// bind engine-local objects (scan nodes, relation pointers), so a sharded
// session calls BindViewQuery once per shard engine with the same query.
struct BoundView {
  CaExprPtr plan;
  // Optional only because SummarySpec has no default construction; always
  // engaged on a successful bind.
  std::optional<SummarySpec> spec;
  std::vector<ComputedColumn> computed;
  std::string classification;  // e.g. "CA_join / IM-log(R)"
};

// Binds the SELECT body of a CREATE VIEW: WHERE pushdown below the join
// (§5.2 guard extraction), the Definition 4.2 key-join admission check,
// and the GroupBy / DistinctProjection summarization.
Result<BoundView> BindViewQuery(ChronicleDatabase* db,
                                const SelectQuery& query);

// Applies an interactive SELECT's WHERE (unless `where_applied` says the
// plan already evaluated it) and select-list projection over materialized
// rows. ExecuteSelect ends here whether it scanned or probed, so both
// reads filter and project the same way.
Result<ExecResult> ProjectSelect(const SelectQuery& query,
                                 const Schema& source_schema,
                                 std::vector<Tuple> rows, bool where_applied);

// Executes an interactive SELECT over a persistent view, a relation, or
// (unsharded only) a chronicle's retained window. `engine` resolves names
// and schemas: the database itself, or shard 0 of a sharded session,
// whose relations are replicated. When `sharded` is non-null, view reads
// go through its merge layer.
//
// A WHERE that is a conjunction of `column = literal` terms (either
// operand order) covering every key column of the source, and nothing
// else, names at most one row: the view's group key or the relation's
// unique key. Such a query fetches that row by key (QueryView /
// Relation::FindByKey) instead of scanning; every other shape scans. The
// fetched row still passes through ProjectSelect with the whole WHERE, so
// both reads return the same rows.
Result<ExecResult> ExecuteSelect(ChronicleDatabase* engine,
                                 const shard::ShardedDatabase* sharded,
                                 const SelectQuery& query);

// ExecuteSelect's planner: the key `where` pins, in `key_columns` order
// (indexes into `schema`), or nullopt when the query scans. It scans when
// the WHERE has another shape, leaves a key column free, or constrains a
// non-key column, and also when a literal could equal a stored key that
// prints differently (DOUBLE keys; doubles from 2^53 on an INT64 key).
std::optional<Tuple> PinnedKey(const ScalarExpr* where, const Schema& schema,
                               const std::vector<size_t>& key_columns);

// Executes one parsed statement against `db`.
Result<ExecResult> Execute(ChronicleDatabase* db, const Statement& statement);

// Parses and executes one statement.
Result<ExecResult> Execute(ChronicleDatabase* db, const std::string& sql);

// Parses and executes a ';'-separated script, stopping at the first error;
// returns the result of the last statement.
Result<ExecResult> ExecuteScript(ChronicleDatabase* db, const std::string& sql);

}  // namespace cql
}  // namespace chronicle

#endif  // CHRONICLE_CQL_BINDER_H_
