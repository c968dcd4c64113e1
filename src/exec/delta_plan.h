// Compiled delta plans: the one execution engine for chronicle-algebra
// deltas (Theorems 4.1 and 4.2).
//
// Given one append event (everything inserted under one fresh sequence
// number), a plan computes the delta of a CA expression using ONLY the
// appended tuples and the current relation versions (index lookups for
// CA_join). Neither the base chronicles nor any intermediate chronicle
// view is read or materialized, so the cost is independent of |C| and of
// the view size. Correctness rests on the monotonicity theorem (4.1): all
// delta rows of a tick carry the tick's fresh sequence number, so every
// operator's output delta is a function of its input deltas alone — in
// particular Δ(E1 − E2) = ΔE1 − ΔE2 and Δ(E1 ⋈_SN E2) = ΔE1 ⋈ ΔE2.
//
// Semantics: a chronicle is a *set* of (SN, payload) rows. Within a tick
// Scan / Project / Union deduplicate (first seen wins) and Difference is
// set difference — the same semantics as the relational baseline
// (baseline/naive_engine.h), so the two compare row for row.
//
// Shared-slot contract:
//
//   * A PlanCompiler (exec/plan_compiler.h) lowers validated CaExpr DAGs
//     into ONE slot program: every distinct node it has seen — across all
//     plans compiled through it — owns one numbered slot and one
//     instruction. A DeltaPlan is one root's view of that program: the
//     post-order list of the instructions its root needs, each mapped to
//     its program slot.
//   * A PlanScratch holds the slot buffers and stamps each slot with the
//     tick that wrote it. Within one tick (PlanScratch::BeginTick), an
//     instruction whose slot is already stamped is skipped: a node shared
//     by several plans executed on one scratch is computed once per tick.
//     Per-tick work stays proportional to the instructions of the plans
//     actually executed — nothing sweeps the whole program.
//   * Execution is batch-at-a-time with a clear-don't-free discipline:
//     slot vectors, the dedupe set, the group table and the tick arena are
//     retained across ticks, so a steady-state tick touches the system
//     allocator only for the payload Tuples themselves.
//   * Relation probes go through the status-free Relation::FindByKey /
//     FindBySecondary, so the inner-join miss path allocates nothing.
//
// Row-compiled and columnar execution are byte-identical (same rows, same
// order, same error texts); tests/plan_equivalence_fuzz_test.cc enforces
// this and checks both against the naive baseline.
//
// Thread safety: a DeltaPlan is immutable after compilation and may be
// executed concurrently; all mutable state lives in the caller-owned
// PlanScratch, one per worker (the parallel fan-out stays TSan-clean).

#ifndef CHRONICLE_EXEC_DELTA_PLAN_H_
#define CHRONICLE_EXEC_DELTA_PLAN_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "aggregates/aggregate.h"
#include "algebra/ca_expr.h"
#include "common/arena.h"
#include "common/status.h"
#include "exec/column_batch.h"
#include "exec/vector_kernels.h"
#include "storage/chronicle_group.h"

namespace chronicle {

// Observability counters for one plan execution; benchmarks E6/E8 and the
// per-view ViewStats read these to verify the Theorem 4.2 time/space
// story. Instructions skipped because a shared slot was already computed
// this tick record nothing.
struct DeltaStats {
  // Largest intermediate delta (in rows) materialized at any node.
  size_t max_intermediate_rows = 0;
  // Total rows produced across all nodes (proxy for work done).
  size_t total_rows_produced = 0;
  // Relation index lookups performed (the log|R| / O(1) component).
  size_t relation_lookups = 0;
  // Relation rows scanned by cross products (the |R|^j component).
  size_t relation_rows_scanned = 0;
};

namespace exec {

// The compiled operator set: exactly the legal CA operators (Definition
// 4.1 / CA_join). Theorem 4.3 constructs are rejected at compile time.
enum class PlanOp : uint8_t {
  kScan = 0,
  kSelect,
  kProject,
  kSeqJoin,
  kUnion,
  kDifference,
  kGroupBySeq,
  kRelCross,
  kRelKeyJoin,
  kRelBoundedJoin,
};

// One instruction of a plan's flat post-order list. Slot numbers are
// plan-local (instruction i writes local slot i); DeltaPlan::program_slot
// maps them onto the shared program. Operand payloads (predicate,
// projection map, aggregate specs, relation pointer) are read through
// `node`, which the owning DeltaPlan keeps alive via its root.
struct PlanInstr {
  PlanOp op;
  uint32_t out = 0;  // local slot this instruction writes
  uint32_t in0 = 0;  // first input slot (unary/binary ops)
  uint32_t in1 = 0;  // second input slot (binary ops)
  const CaExpr* node = nullptr;
  // Compile-time engine decision (exec/vector_kernels.h PlanVectorInstr):
  // true when this instruction has a vector kernel and its shape
  // qualifies. Execution still falls back to the row arm per-tick when the
  // scratch disables columnar mode or a transposition type-check fails.
  bool columnar = false;
};

// Accumulated profile of one plan slot across sampled executions, the
// data behind DeltaPlan::Explain. `ns`/`rows` are sums over `samples`
// profiled ticks; shares are derived at render time.
struct SlotProfile {
  uint64_t ns = 0;       // self time (this instruction only)
  uint64_t rows = 0;     // rows the instruction produced
  uint64_t samples = 0;  // profiled ticks folded in
  // Profiled ticks this slot actually executed on the vector engine (can
  // trail `samples` on compile-time columnar slots: runtime toggle off, or
  // a per-tick transposition fallback).
  uint64_t vec_samples = 0;
};

// Open-addressing set of tuples referenced by pointer, used for the
// executor's dedupe and difference membership tests. Keys live in the
// operand slots (or the append event) for the duration of one
// instruction, so the set never copies a Tuple — the node allocation and
// second deep copy per row that std::unordered_set<Tuple> would pay.
// Clear is O(1): every slot carries the generation that wrote it, and
// bumping the generation invalidates them all, so a tiny dedupe after a
// huge one does not pay a table-sized wipe.
class TupleRefSet {
 public:
  // Invalidates every element. The table (and its capacity) is retained.
  void Clear() {
    ++generation_;
    size_ = 0;
  }

  // Inserts `t` (by reference) unless a tuple equal to *t is already
  // present; returns whether it was inserted — the dedupe "first seen?".
  bool Insert(const Tuple* t);
  // Membership by value (the difference-operator probe).
  bool Contains(const Tuple& t) const;

  // Live elements since the last Clear / table capacity (0 before the
  // first growth). Exposed for the obs layer's dedupe-pressure gauge.
  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    const Tuple* key = nullptr;
    uint64_t generation = 0;
  };

  bool Live(const Slot& slot) const {
    return slot.key != nullptr && slot.generation == generation_;
  }
  void Grow();

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint64_t generation_ = 1;  // default Slot::generation (0) is never live
};

// Per-worker, cross-tick execution state. Everything here follows the
// clear-don't-free discipline, so its footprint converges to the largest
// tick it has served — O((u·|R|)^j) in the Theorem 4.2 parameters, never
// proportional to |C| or to any view size. Slot storage is indexed by
// program slot and grows to the largest program executed on it. One
// scratch serves any number of plans, but only one execution at a time:
// give each thread its own.
class PlanScratch {
 public:
  PlanScratch() = default;
  PlanScratch(const PlanScratch&) = delete;
  PlanScratch& operator=(const PlanScratch&) = delete;

  // Starts a new tick: every slot written before becomes stale (O(1), by
  // bumping the stamp) and the tick arena is reset. Call once per append
  // event before DeltaPlan::ExecuteInTick; DeltaPlan::Execute calls it
  // itself.
  void BeginTick() {
    ++tick_;
    arena_.Reset();
  }

  // Reusable-footprint accounting (bench E13 / tests / obs).
  size_t num_slots() const { return slots_.size(); }
  size_t arena_bytes_reserved() const { return arena_.bytes_reserved(); }
  // Arena bytes handed out since the last BeginTick; the obs layer's
  // per-tick arena high-water gauge.
  size_t arena_bytes_allocated() const { return arena_.bytes_allocated(); }
  // Load factor of the dedupe set as left by the most recent execution
  // (0 until the table first grows); the obs layer's dedupe-pressure
  // gauge.
  double dedupe_load_factor() const {
    return seen_.capacity() == 0
               ? 0.0
               : static_cast<double>(seen_.size()) / seen_.capacity();
  }

  // Shared-slot accounting since construction: instructions skipped
  // because their slot was already computed this tick (hits), and
  // instructions executed (misses). Bench E9 and the stats snapshot's
  // delta_cache_hits/misses read these.
  uint64_t shared_hits() const { return shared_hits_; }
  uint64_t shared_misses() const { return shared_misses_; }

  // Per-slot profiling for the NEXT execution. When on, execution reads
  // the clock around every instruction and records self-time and rows
  // into slot_ns()/slot_rows() (indexed by program slot, valid for the
  // executed plan's slots until the next execution). A slot served shared
  // records 0 ns and its row count. The caller samples (every Nth tick),
  // folds the arrays into its own SlotProfile accumulator, and turns the
  // flag back off.
  void set_profile_slots(bool on) { profile_slots_ = on; }
  bool profile_slots() const { return profile_slots_; }
  const std::vector<uint64_t>& slot_ns() const { return slot_ns_; }
  const std::vector<uint64_t>& slot_rows() const { return slot_rows_; }
  // 1 per slot that executed on the vector engine in the last profiled
  // execution (0 = row engine or shared). Folded into
  // SlotProfile::vec_samples.
  const std::vector<uint8_t>& slot_vec() const { return slot_vec_; }

  // Runtime toggle for instructions compiled with a vector kernel
  // (MaintenanceOptions::use_columnar_kernels / shell \engine). Pure
  // executor state: flipping it never requires recompiling plans, and the
  // two modes are byte-identical by construction.
  void set_columnar_enabled(bool on) { columnar_enabled_ = on; }
  bool columnar_enabled() const { return columnar_enabled_; }

 private:
  friend class DeltaPlan;

  using GroupMap =
      std::unordered_map<Tuple, std::vector<AggState>, TupleHash, TupleEq>;

  // Grows the per-slot arrays to at least `num_slots` (never shrinks).
  void Reserve(size_t num_slots);

  // Clears (without freeing) program slot `slot` for a fresh write.
  void ResetSlot(uint32_t slot) {
    slots_[slot].clear();
    col_slots_[slot].Clear();
    slot_form_[slot] = 0;
  }

  // Engine-boundary conversions (executor only). EnsureRowForm
  // materializes a columnar slot into its row buffer; EnsureColForm
  // transposes a row slot into columns, returning false (and latching
  // kColsFailed) when a cell fails the schema type check. Both are no-ops
  // when the requested form is already valid, so a slot shared by several
  // consumers converts at most once per tick.
  void EnsureRowForm(uint32_t slot);
  bool EnsureColForm(uint32_t slot, const Schema& schema);

  // Which representations of a slot are valid this tick. A slot can hold
  // both (transposed or materialized on demand at an engine boundary);
  // kColsFailed latches a transposition type-check failure so shared
  // consumers do not retry it.
  enum SlotForm : uint8_t {
    kRowsValid = 1,
    kColsValid = 2,
    kColsFailed = 4,
  };

  std::vector<std::vector<Tuple>> slots_;
  std::vector<ColumnBatch> col_slots_;  // columnar twin of slots_
  std::vector<uint8_t> slot_form_;      // SlotForm bits per slot
  // Tick that last wrote each slot; a slot is live iff its stamp equals
  // tick_. Starts at 1 so zero-initialized stamps are stale.
  std::vector<uint64_t> stamp_;
  uint64_t tick_ = 1;
  uint64_t shared_hits_ = 0;
  uint64_t shared_misses_ = 0;
  TupleRefSet seen_;     // dedupe scratch (table retained across ticks)
  TupleRefSet removed_;  // difference scratch
  GroupMap groups_;    // group-by scratch
  Tuple key_;          // reused group-key probe (capacity survives clear())
  VecScratch vec_;     // vectorized dedupe/group tables (retained)
  Arena arena_;        // tick-scoped transients (group output order,
                       // column storage)
  std::vector<ChronicleRow> rows_;  // retained final-output buffer
  bool columnar_enabled_ = true;    // run compiled-columnar instructions
  bool profile_slots_ = false;      // time the next execution's slots
  std::vector<uint64_t> slot_ns_;   // self ns per slot (profiled ticks)
  std::vector<uint64_t> slot_rows_;  // rows per slot (profiled ticks)
  std::vector<uint8_t> slot_vec_;    // vector-engine flag per slot
};

class DeltaPlan {
 public:
  // Executes the plan as a tick of its own (BeginTick, then
  // ExecuteInTick). Returns the root delta as a pointer into `scratch` —
  // valid until the scratch's next tick. All rows conceptually carry
  // event.sn (ExecuteToRows stamps it). `stats` may be null.
  Result<const std::vector<Tuple>*> Execute(const AppendEvent& event,
                                            PlanScratch* scratch,
                                            DeltaStats* stats) const;

  // Executes the plan within the scratch's current tick: slots another
  // plan of the same program already computed this tick are served, not
  // recomputed. The caller must call scratch->BeginTick() once per event;
  // executing a different event in the same tick would serve the previous
  // event's slots. Plans sharing a tick must come from one PlanCompiler
  // (program slot numbers are per program).
  Result<const std::vector<Tuple>*> ExecuteInTick(const AppendEvent& event,
                                                  PlanScratch* scratch,
                                                  DeltaStats* stats) const;

  // Execute + SN stamping into the scratch's retained row buffer, as a
  // tick of its own. The root's tuples are moved, not copied, into the
  // rows (the root slot is un-stamped, so a later ExecuteInTick in the
  // same tick recomputes it). The returned pointer is valid until the
  // scratch's next use.
  Result<const std::vector<ChronicleRow>*> ExecuteToRows(
      const AppendEvent& event, PlanScratch* scratch,
      DeltaStats* stats) const;

  // --- inspection (compiler tests, EXPLAIN-style diagnostics) ---
  // Post-order instructions in plan-local slot numbering.
  const std::vector<PlanInstr>& instructions() const { return instrs_; }
  // One local slot per instruction: local slot i is written by
  // instruction i. The root is the last instruction.
  size_t num_slots() const { return instrs_.size(); }
  uint32_t root_slot() const { return static_cast<uint32_t>(instrs_.size() - 1); }
  // The shared-program slot behind local slot `local`. Plans compiled
  // through one PlanCompiler map a common subexpression to one slot.
  uint32_t program_slot(size_t local) const { return program_slots_[local]; }
  // DAG edges inside this plan resolved to an already-listed instruction.
  size_t shared_subexpressions() const { return shared_subexpressions_; }
  const CaExprPtr& root() const { return root_; }
  // Instructions the compiler routed to the vector engine.
  size_t vectorized_instructions() const {
    size_t n = 0;
    for (const PlanInstr& instr : instrs_) n += instr.columnar ? 1 : 0;
    return n;
  }

  // One instruction per line: "s3 = Union(s1, s2)".
  std::string ToString() const;

  // EXPLAIN tree, rendered from the root slot down. `profile` (one entry
  // per local slot, from the sampled per-slot timings) may be null or
  // empty, in which case only the plan structure is shown; otherwise
  // every line carries the slot's self-time share (all self shares sum to
  // 100%), cumulative share (self + subtree), and rows per sampled tick.
  std::string Explain(const std::vector<SlotProfile>* profile) const;

  // Same data as a flat JSON document for /views/<name>/explain.json:
  // {"view":…,"slots":N,"root":N,"sampled_ticks":N,"plan":[{…}]}.
  // Guaranteed to pass obs::ValidateJson.
  std::string ExplainJson(const std::string& view_name,
                          const std::vector<SlotProfile>* profile) const;

 private:
  friend class PlanCompiler;
  DeltaPlan() = default;

  // Runs instruction `idx` on the vector engine. False = fall back to the
  // row arm for this tick (transposition type-check failed, or the seq
  // join product overflowed).
  bool ExecuteVector(size_t idx, const AppendEvent& event,
                     PlanScratch* scratch, DeltaStats* stats) const;

  CaExprPtr root_;  // keeps every node (and its payloads) alive
  std::vector<PlanInstr> instrs_;
  // Parallel to instrs_: the program slot of each local slot, and the
  // vector-engine payload of columnar instructions (null for row ones),
  // shared with every plan of the program that lists the instruction.
  std::vector<uint32_t> program_slots_;
  std::vector<std::shared_ptr<const VecInstrInfo>> vec_infos_;
  // 1 + the largest program slot this plan touches (scratch sizing).
  size_t slot_bound_ = 0;
  size_t shared_subexpressions_ = 0;
};

using DeltaPlanPtr = std::shared_ptr<const DeltaPlan>;

}  // namespace exec
}  // namespace chronicle

#endif  // CHRONICLE_EXEC_DELTA_PLAN_H_
