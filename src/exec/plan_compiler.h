// Lowering of chronicle-algebra DAGs into one shared slot program.
//
// Compilation happens once, at view-registration time — never on the
// append path. A PlanCompiler owns one program: every distinct CaExpr node
// it lowers — across ALL the plans compiled through it — gets one slot
// and one instruction, memoized by node identity. A subexpression
// reachable from several views (the cached scan every CQL view over a
// chronicle reads, a guarded selection two views share) therefore becomes
// one slot that a PlanScratch computes once per tick and serves to every
// plan that lists it (see exec/delta_plan.h for the shared-slot contract).
// Each returned DeltaPlan is the post-order list of the instructions its
// root needs; within one plan, a DAG edge to an already-listed node
// resolves to that node's slot.
//
// The four Theorem 4.3 constructs are rejected with one diagnostic; a
// failed compile leaves the program as it was.

#ifndef CHRONICLE_EXEC_PLAN_COMPILER_H_
#define CHRONICLE_EXEC_PLAN_COMPILER_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "algebra/ca_expr.h"
#include "common/status.h"
#include "exec/delta_plan.h"

namespace chronicle {
namespace exec {

class PlanCompiler {
 public:
  // Compiles `root` (which the plan retains, keeping the DAG alive) into
  // this compiler's program. Fails with InvalidArgument on any operator
  // outside chronicle algebra (Theorem 4.3).
  Result<DeltaPlanPtr> Compile(CaExprPtr root);

  // Slots (= instructions) in the shared program.
  size_t num_slots() const { return program_.size(); }

 private:
  struct ProgramInstr {
    const CaExpr* node;
    std::shared_ptr<const VecInstrInfo> vec;  // null: row engine only
  };

  // Appends `node`'s instruction to `plan` (children first) unless the
  // plan already lists it; returns the node's plan-local slot.
  Result<uint32_t> Lower(const CaExpr& node, DeltaPlan* plan,
                         std::unordered_map<const CaExpr*, uint32_t>* local);

  std::vector<ProgramInstr> program_;  // indexed by program slot
  std::unordered_map<const CaExpr*, uint32_t> memo_;  // node -> slot
  // Roots of every compiled plan: keeps the memo's node keys alive, so an
  // address can never be reused by a different node.
  std::vector<CaExprPtr> roots_;
};

// One plan in a program of its own.
inline Result<DeltaPlanPtr> CompileDeltaPlan(CaExprPtr root) {
  return PlanCompiler().Compile(std::move(root));
}

}  // namespace exec
}  // namespace chronicle

#endif  // CHRONICLE_EXEC_PLAN_COMPILER_H_
