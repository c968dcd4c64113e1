#include "exec/plan_compiler.h"

#include <algorithm>
#include <string>

namespace chronicle {
namespace exec {

namespace {

Result<PlanOp> LowerOp(const CaExpr& node) {
  switch (node.op()) {
    case CaOp::kScan:
      return PlanOp::kScan;
    case CaOp::kSelect:
      return PlanOp::kSelect;
    case CaOp::kProject:
      return PlanOp::kProject;
    case CaOp::kSeqJoin:
      return PlanOp::kSeqJoin;
    case CaOp::kUnion:
      return PlanOp::kUnion;
    case CaOp::kDifference:
      return PlanOp::kDifference;
    case CaOp::kGroupBySeq:
      return PlanOp::kGroupBySeq;
    case CaOp::kRelCross:
      return PlanOp::kRelCross;
    case CaOp::kRelKeyJoin:
      return PlanOp::kRelKeyJoin;
    case CaOp::kRelBoundedJoin:
      return PlanOp::kRelBoundedJoin;
    case CaOp::kProjectDropSn:
    case CaOp::kGroupByNoSn:
    case CaOp::kChronicleCross:
    case CaOp::kSeqThetaJoin:
      return Status::InvalidArgument(
          std::string("operator ") + CaOpToString(node.op()) +
          " is outside chronicle algebra and cannot be maintained "
          "incrementally without chronicle access (Theorem 4.3)");
  }
  return Status::Internal("unreachable CaOp");
}

}  // namespace

Result<uint32_t> PlanCompiler::Lower(
    const CaExpr& node, DeltaPlan* plan,
    std::unordered_map<const CaExpr*, uint32_t>* local) {
  auto listed = local->find(&node);
  if (listed != local->end()) {
    ++plan->shared_subexpressions_;  // DAG edge resolved to a listed slot
    return listed->second;
  }
  CHRONICLE_ASSIGN_OR_RETURN(PlanOp op, LowerOp(node));
  PlanInstr instr;
  instr.op = op;
  instr.node = &node;
  if (node.num_children() >= 1) {
    CHRONICLE_ASSIGN_OR_RETURN(instr.in0, Lower(*node.child(0), plan, local));
  }
  if (node.num_children() >= 2) {
    CHRONICLE_ASSIGN_OR_RETURN(instr.in1, Lower(*node.child(1), plan, local));
  }
  // One program slot per distinct node. Engine decision: a new instruction
  // that has a vector kernel and whose shape qualifies (see
  // exec/vector_kernels.h) gets its columnar payload compiled once here.
  auto [slot, inserted] =
      memo_.try_emplace(&node, static_cast<uint32_t>(program_.size()));
  if (inserted) program_.push_back(ProgramInstr{&node, PlanVectorInstr(node)});
  const ProgramInstr& shared = program_[slot->second];
  instr.out = static_cast<uint32_t>(plan->instrs_.size());
  instr.columnar = shared.vec != nullptr;
  plan->instrs_.push_back(instr);
  plan->program_slots_.push_back(slot->second);
  plan->vec_infos_.push_back(shared.vec);
  local->emplace(&node, instr.out);
  return instr.out;
}

Result<DeltaPlanPtr> PlanCompiler::Compile(CaExprPtr root) {
  if (root == nullptr) {
    return Status::InvalidArgument("cannot compile a null expression");
  }
  auto plan = std::shared_ptr<DeltaPlan>(new DeltaPlan());
  plan->root_ = root;
  const size_t program_size = program_.size();
  std::unordered_map<const CaExpr*, uint32_t> local;
  Result<uint32_t> lowered = Lower(*root, plan.get(), &local);
  if (!lowered.ok()) {
    // Roll back the slots this plan added: their nodes are not retained.
    for (size_t s = program_size; s < program_.size(); ++s) {
      memo_.erase(program_[s].node);
    }
    program_.resize(program_size);
    return lowered.status();
  }
  for (uint32_t slot : plan->program_slots_) {
    plan->slot_bound_ = std::max<size_t>(plan->slot_bound_, slot + size_t{1});
  }
  roots_.push_back(std::move(root));
  return DeltaPlanPtr(plan);
}

}  // namespace exec
}  // namespace chronicle
