// PersistentView: a materialized SCA view, "elevated to a first class
// citizen" of the database (paper §1), maintained incrementally per
// Theorem 4.4: Space = |V|, Time = O(t · log|V|) per tick of t delta
// tuples with an ordered index, expected O(t) with the hash index.
//
// A view is (plan χ in CA, summarization step, optional computed columns).
// The view never stores χ's chronicle result — only the summarized groups.
// Computed columns ("finalizers", e.g. premier status derived from a miles
// total with a CASE expression) are scalar expressions over the summarized
// output row, evaluated at query time so they never complicate maintenance.

#ifndef CHRONICLE_VIEWS_PERSISTENT_VIEW_H_
#define CHRONICLE_VIEWS_PERSISTENT_VIEW_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algebra/ca_expr.h"
#include "algebra/complexity.h"
#include "algebra/scalar_expr.h"
#include "common/status.h"
#include "storage/keyed_table.h"
#include "views/summary_spec.h"

namespace chronicle {

// Identifies a persistent view within a database.
using ViewId = uint32_t;

// A named computed column appended to every queried view row.
struct ComputedColumn {
  std::string name;
  ScalarExprPtr expr;  // bound against the summarized output schema
};

class PersistentView {
 public:
  // Creates a view over `plan` (must already pass ValidateChronicleAlgebra)
  // with the given summarization. Computed columns are bound here.
  static Result<std::unique_ptr<PersistentView>> Make(
      ViewId id, std::string name, CaExprPtr plan, SummarySpec spec,
      std::vector<ComputedColumn> computed = {},
      IndexMode index_mode = IndexMode::kHash);

  ViewId id() const { return id_; }
  const std::string& name() const { return name_; }
  const CaExprPtr& plan() const { return plan_; }
  const SummarySpec& spec() const { return spec_; }
  // Complexity classification of the defining expression (§3 / Theorem 4.5).
  const ComplexityReport& complexity() const { return complexity_; }
  // Schema of queried rows: summarized columns then computed columns.
  const Schema& output_schema() const { return query_schema_; }
  IndexMode index_mode() const { return index_mode_; }

  // Number of groups / distinct rows currently materialized (|V|).
  size_t size() const { return table_.size(); }

  // Folds one tick's delta (the payloads of rows that all carry the tick's
  // SN) into the view.
  Status ApplyDelta(const std::vector<Tuple>& delta);

  // Point lookup of the finalized row for `key` (the grouping columns, in
  // spec order). NotFound if the group does not exist (yet).
  Result<Tuple> Lookup(const Tuple& key) const;

  // Full scan of finalized rows. Ordered index mode scans in key order.
  Status Scan(const std::function<void(const Tuple&)>& fn) const;

  // Maintenance counters.
  uint64_t ticks_applied() const { return ticks_applied_; }
  uint64_t delta_rows_applied() const { return delta_rows_applied_; }

  // Approximate bytes held by the materialized table (the Thm 4.4 space).
  size_t MemoryFootprint() const;

  // --- checkpoint hooks (src/checkpoint) ---
  // The chronicle is not stored, so view state cannot be rebuilt by replay;
  // checkpointing serializes the raw group states through these hooks.

  // Visits every group's raw state: (key, aggregate states, multiplicity).
  void VisitGroups(
      const std::function<void(const Tuple&, const std::vector<AggState>&,
                               int64_t)>& fn) const;
  // Reinstates one group. Only legal while the view is empty of that key;
  // the counters (ticks/rows applied) are restored separately.
  Status RestoreGroup(Tuple key, std::vector<AggState> states,
                      int64_t multiplicity);
  // Reinstates the maintenance counters.
  void RestoreCounters(uint64_t ticks_applied, uint64_t delta_rows_applied) {
    ticks_applied_ = ticks_applied;
    delta_rows_applied_ = delta_rows_applied;
  }
  // Finalizes externally merged raw states into the row Scan would emit
  // had the group lived in this view (key + aggregates + computed). Used
  // by the sharded merge layer to finalize without materializing here.
  Result<Tuple> FinalizeGroupStates(const Tuple& key,
                                    const std::vector<AggState>& states) const;

 private:
  struct Group {
    std::vector<AggState> states;  // kGroupBy
    int64_t multiplicity = 0;      // kDistinctProjection
  };

  PersistentView(ViewId id, std::string name, CaExprPtr plan, SummarySpec spec,
                 IndexMode index_mode);

  // Builds the finalized row (key + aggregates + computed) for one group.
  Result<Tuple> FinalizeRow(const Tuple& key, const Group& group) const;

  ViewId id_;
  std::string name_;
  CaExprPtr plan_;
  SummarySpec spec_;
  ComplexityReport complexity_;
  std::vector<ComputedColumn> computed_;
  Schema query_schema_;
  IndexMode index_mode_;
  KeyedTable<Group> table_;

  uint64_t ticks_applied_ = 0;
  uint64_t delta_rows_applied_ = 0;
};

}  // namespace chronicle

#endif  // CHRONICLE_VIEWS_PERSISTENT_VIEW_H_
