// Vectorized kernels for the compiled delta executor.
//
// Each kernel is the column-loop twin of one PlanOp arm in
// exec/delta_plan.cc and MUST reproduce it byte-for-byte: same first-seen
// dedupe order, same group discovery order, same floating-point
// accumulation order (pass-2 aggregate loops walk rows in input order, so
// per-group double sums fold in exactly the row engine's order), same
// DeltaStats counters. tests/plan_equivalence_fuzz_test.cc triangulates
// naive baseline vs row-compiled vs columnar on random plans.
//
// Engine decision: PlanCompiler calls PlanVectorInstr once per program
// instruction at view-registration time. It returns a VecInstrInfo when the operator
// has a vector kernel AND the instruction's shape qualifies (predicate in
// the vectorizable subset, aggregates all in {COUNT,SUM,MIN,MAX}, join key
// non-string); otherwise nullptr and the instruction stays on the row
// engine. The decision is static; the executor additionally falls back
// per-tick when a transposition type-check fails (see column_batch.h).
//
// Ops that stay row-only by design:
//   kDifference     — two membership probes per row against pointer-keyed
//                     sets; no dense loop to win.
//   kRelCross       — output is a cross product of row tuples; the copy
//                     dominates either way.
//   kRelBoundedJoin — needs the Definition 4.2 integrity-error path, and
//                     secondary-index probes return row vectors.

#ifndef CHRONICLE_EXEC_VECTOR_KERNELS_H_
#define CHRONICLE_EXEC_VECTOR_KERNELS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/ca_expr.h"
#include "common/arena.h"
#include "exec/column_batch.h"

namespace chronicle {
namespace exec {

// A selection predicate compiled to column form. Supported shape: an
// AND/OR/NOT tree over comparisons whose operands are bound columns,
// non-null literals, $sn, or $chronon, with numeric-vs-numeric or
// string-vs-string operand classes. Anything else (arithmetic, CASE,
// truthiness of a bare column, mixed string/numeric comparison) keeps the
// instruction on the row engine. Within this subset evaluation can never
// error, which is what lets AND/OR drop short-circuiting for elementwise
// flag combines.
struct VecPred {
  enum class Kind : uint8_t { kAnd, kOr, kNot, kCmp, kConstFalse };
  enum class Src : uint8_t { kCol, kLit, kSn, kChronon };

  struct Operand {
    Src src = Src::kLit;
    size_t col = 0;                        // kCol: bound column index
    DataType type = DataType::kInt64;      // operand's static type
    int64_t i64 = 0;                       // kLit INT64 payload
    double f64 = 0.0;                      // kLit DOUBLE payload
    std::string str;                       // kLit STRING payload
  };

  Kind kind = Kind::kConstFalse;
  CompareOp op = CompareOp::kEq;  // kCmp
  Operand lhs, rhs;               // kCmp
  std::unique_ptr<VecPred> a, b;  // kAnd/kOr (both), kNot (a only)
};

// One aggregate of a vectorized group-by, pre-resolved at compile time so
// the pass-2 loops are monomorphic.
struct VecAgg {
  AggKind kind = AggKind::kCount;
  size_t input = 0;                         // bound input column (not kCount)
  DataType input_type = DataType::kInt64;   // child-schema type of `input`
};

// Per-instruction vector-engine payload, owned by the DeltaPlan alongside
// the instruction list.
struct VecInstrInfo {
  std::unique_ptr<VecPred> pred;  // kSelect
  std::vector<VecAgg> aggs;       // kGroupBySeq
};

// Compile-time engine decision (see file comment). Never fails — a shape
// without a kernel simply returns nullptr.
std::unique_ptr<VecInstrInfo> PlanVectorInstr(const CaExpr& node);

// Compiles `e` into a VecPred against `schema`; nullptr when the predicate
// falls outside the vectorizable subset. Exposed for tests.
std::unique_ptr<VecPred> CompileVecPred(const ScalarExpr& e,
                                        const Schema& schema);

// Retained hash-table scratch for the vectorized dedupe and group probes:
// a generation-stamped open-addressing index mapping row hashes to a
// uint32 payload (an accepted output row, or a group ordinal). Clear is
// O(1) and capacity survives across ticks, mirroring TupleRefSet.
class VecScratch {
 public:
  void Clear() {
    ++generation_;
    size_ = 0;
  }
  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  // Probes for a row with hash `hash` equal under `eq(payload)`; returns
  // the existing payload, or inserts `payload` and returns kNotFound.
  // `eq` is called only on same-hash candidates.
  static constexpr uint32_t kNotFound = 0xffffffffu;
  template <typename EqFn>
  uint32_t FindOrInsert(size_t hash, uint32_t payload, EqFn eq) {
    if (slots_.empty() || size_ * 2 >= slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (true) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) {
        slot.generation = generation_;
        slot.hash = hash;
        slot.payload = payload;
        ++size_;
        return kNotFound;
      }
      if (slot.hash == hash && eq(slot.payload)) return slot.payload;
      i = (i + 1) & mask;
    }
  }

 private:
  struct Slot {
    uint64_t generation = 0;
    size_t hash = 0;
    uint32_t payload = 0;
  };
  void Grow();

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint64_t generation_ = 1;  // default Slot::generation (0) is never live
};

// --- kernels (all storage from `arena`; outputs valid for one tick) ---

// kSelect: evaluates `pred` over the input's physical rows and filters the
// logical view into a new selection vector. Zero data movement.
void VecSelect(const VecPred& pred, const ColumnBatch& in, SeqNum sn,
               int64_t chronon, Arena* arena, ColumnBatch* out);

// kProject: remaps column descriptors and dedupes the logical rows over
// the projected columns (first-seen order). Zero data movement.
void VecProject(const ColumnBatch& in, const std::vector<size_t>& projection,
                VecScratch* vs, Arena* arena, ColumnBatch* out);

// kUnion: dense left-then-right copy with first-seen dedupe against the
// accepted output rows. Operand schemas are identical by construction.
void VecUnion(const ColumnBatch& left, const ColumnBatch& right,
              VecScratch* vs, Arena* arena, ColumnBatch* out);

// kSeqJoin: dense cross product, left-major (matching the row engine's
// nested loops). False if the product overflows size_t (row fallback —
// which will then OOM-or-crawl exactly as the row engine always has).
bool VecSeqJoin(const ColumnBatch& left, const ColumnBatch& right,
                Arena* arena, ColumnBatch* out);

// kGroupBySeq: two passes — group discovery in row order (group ordinals
// are first-seen order), then one monomorphic update loop per aggregate.
// `specs` parallels `aggs` (the AggSpec supplies output naming/typing).
void VecGroupBy(const ColumnBatch& in, const std::vector<size_t>& group_cols,
                const std::vector<VecAgg>& aggs,
                const std::vector<AggSpec>& specs, const Schema& out_schema,
                VecScratch* vs, Arena* arena, ColumnBatch* out);

// kRelKeyJoin: probes the relation's key index per logical row and emits
// the dense inner-join result (left columns gathered, relation columns
// extracted). False when a relation cell fails the schema type check —
// the caller reruns the row kernel, which also owns the stats counters in
// that case. On success the caller adds in.size() relation lookups.
bool VecRelKeyJoin(const ColumnBatch& in, const Relation* rel,
                   size_t join_column, const Schema& out_schema, Arena* arena,
                   ColumnBatch* out);

}  // namespace exec
}  // namespace chronicle

#endif  // CHRONICLE_EXEC_VECTOR_KERNELS_H_
