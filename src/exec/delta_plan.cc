#include "exec/delta_plan.h"

#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <string>

#include "storage/relation.h"

namespace chronicle {
namespace exec {

namespace {

int64_t ProfileNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Record(DeltaStats* stats, size_t rows) {
  if (stats == nullptr) return;
  stats->total_rows_produced += rows;
  if (rows > stats->max_intermediate_rows) stats->max_intermediate_rows = rows;
}

// Appends a ⧺ b to *out without a temporary.
void EmitConcat(std::vector<Tuple>* out, const Tuple& a, const Tuple& b) {
  out->emplace_back();
  Tuple& dst = out->back();
  dst.reserve(a.size() + b.size());
  dst.insert(dst.end(), a.begin(), a.end());
  dst.insert(dst.end(), b.begin(), b.end());
}

// reserve() for a*b rows, skipped when the product is unrepresentable.
void ReserveProduct(std::vector<Tuple>* out, size_t a, size_t b) {
  if (a != 0 && b > std::numeric_limits<size_t>::max() / a) return;
  out->reserve(a * b);
}

}  // namespace

bool TupleRefSet::Insert(const Tuple* t) {
  if (slots_.empty() || size_ * 2 >= slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = TupleHash()(*t) & mask;
  while (true) {
    Slot& slot = slots_[i];
    if (!Live(slot)) {
      slot.key = t;
      slot.generation = generation_;
      ++size_;
      return true;
    }
    if (TupleEq()(*slot.key, *t)) return false;
    i = (i + 1) & mask;
  }
}

bool TupleRefSet::Contains(const Tuple& t) const {
  if (slots_.empty()) return false;
  const size_t mask = slots_.size() - 1;
  size_t i = TupleHash()(t) & mask;
  while (true) {
    const Slot& slot = slots_[i];
    if (!Live(slot)) return false;
    if (TupleEq()(*slot.key, t)) return true;
    i = (i + 1) & mask;
  }
}

void TupleRefSet::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.key == nullptr || slot.generation != generation_) continue;
    size_t i = TupleHash()(*slot.key) & mask;
    while (slots_[i].generation == generation_ && slots_[i].key != nullptr) {
      i = (i + 1) & mask;
    }
    slots_[i] = slot;
  }
}

void PlanScratch::Reserve(size_t num_slots) {
  if (slots_.size() >= num_slots) return;
  slots_.resize(num_slots);
  col_slots_.resize(num_slots);
  slot_form_.resize(num_slots);
  stamp_.resize(num_slots);
  slot_ns_.resize(num_slots);
  slot_rows_.resize(num_slots);
  slot_vec_.resize(num_slots);
}

void PlanScratch::EnsureRowForm(uint32_t slot) {
  if (slot_form_[slot] & kRowsValid) return;
  MaterializeRows(col_slots_[slot], &slots_[slot]);
  slot_form_[slot] |= kRowsValid;
}

bool PlanScratch::EnsureColForm(uint32_t slot, const Schema& schema) {
  const uint8_t form = slot_form_[slot];
  if (form & kColsValid) return true;
  if (form & kColsFailed) return false;
  if (TransposeRows(slots_[slot], schema, &arena_, &col_slots_[slot])) {
    slot_form_[slot] = form | kColsValid;
    return true;
  }
  slot_form_[slot] = form | kColsFailed;
  return false;
}

Result<const std::vector<Tuple>*> DeltaPlan::Execute(const AppendEvent& event,
                                                     PlanScratch* scratch,
                                                     DeltaStats* stats) const {
  scratch->BeginTick();
  return ExecuteInTick(event, scratch, stats);
}

Result<const std::vector<Tuple>*> DeltaPlan::ExecuteInTick(
    const AppendEvent& event, PlanScratch* scratch, DeltaStats* stats) const {
  scratch->Reserve(slot_bound_);
  // The profiling branch is a single well-predicted test per instruction
  // when off; the clock reads only happen on sampled ticks.
  const bool profile = scratch->profile_slots_;
  const bool vec_on = scratch->columnar_enabled_;
  const uint64_t tick = scratch->tick_;
  int64_t instr_start_ns = 0;
  for (size_t idx = 0; idx < instrs_.size(); ++idx) {
    const PlanInstr& instr = instrs_[idx];
    const uint32_t slot = program_slots_[idx];
    if (scratch->stamp_[slot] == tick) {
      // Another plan of the program (or an earlier call of this one)
      // already computed this slot this tick: serve it.
      ++scratch->shared_hits_;
      if (profile) {
        scratch->slot_ns_[slot] = 0;
        scratch->slot_rows_[slot] =
            (scratch->slot_form_[slot] & PlanScratch::kColsValid)
                ? scratch->col_slots_[slot].size()
                : scratch->slots_[slot].size();
        scratch->slot_vec_[slot] = 0;
      }
      continue;
    }
    ++scratch->shared_misses_;
    if (profile) instr_start_ns = ProfileNowNanos();
    scratch->ResetSlot(slot);
    const CaExpr& node = *instr.node;
    const size_t arity = node.num_children();
    const uint32_t in0 = arity >= 1 ? program_slots_[instr.in0] : 0;
    const uint32_t in1 = arity >= 2 ? program_slots_[instr.in1] : 0;
    // Engine dispatch: instructions the compiler marked columnar try the
    // vector kernel first; a per-tick kernel refusal (transposition type
    // check, relation cell mismatch, cross-product overflow) falls through
    // to the unchanged row arm below, so a tick always completes.
    size_t produced = 0;
    const bool vec_done = vec_on && instr.columnar &&
                          ExecuteVector(idx, event, scratch, stats);
    if (vec_done) {
      scratch->slot_form_[slot] = PlanScratch::kColsValid;
      produced = scratch->col_slots_[slot].size();
    } else {
    // Row arms consume row slots; materialize any columnar inputs first.
    if (arity >= 1) scratch->EnsureRowForm(in0);
    if (arity >= 2) scratch->EnsureRowForm(in1);
    std::vector<Tuple>& out = scratch->slots_[slot];
    switch (instr.op) {
      case PlanOp::kScan: {
        // Set semantics: identical tuples appended under one SN are one
        // row. First-seen survivors are copied once; duplicates never are.
        scratch->seen_.Clear();
        for (const auto& [id, tuples] : event.inserts) {
          if (id != node.chronicle_id()) continue;
          out.reserve(out.size() + tuples.size());
          for (const Tuple& t : tuples) {
            if (scratch->seen_.Insert(&t)) out.push_back(t);
          }
        }
        break;
      }

      case PlanOp::kSelect: {
        const std::vector<Tuple>& in = scratch->slots_[in0];
        out.reserve(in.size());
        const ScalarExpr* predicate = node.predicate();
        for (const Tuple& t : in) {
          EvalRow row{&t, event.sn, event.chronon};
          CHRONICLE_ASSIGN_OR_RETURN(bool keep, predicate->EvalBool(row));
          if (keep) out.push_back(t);
        }
        break;
      }

      case PlanOp::kProject: {
        const std::vector<Tuple>& in = scratch->slots_[in0];
        out.reserve(in.size());
        const std::vector<size_t>& projection = node.projection();
        // Projection can merge rows that differed only on dropped columns.
        // out is reserved for the whole input above, so accepted rows never
        // move and the dedupe set can reference them in place.
        scratch->seen_.Clear();
        for (const Tuple& t : in) {
          out.emplace_back();
          Tuple& projected = out.back();
          projected.reserve(projection.size());
          for (size_t idx : projection) projected.push_back(t[idx]);
          if (!scratch->seen_.Insert(&projected)) out.pop_back();
        }
        break;
      }

      case PlanOp::kSeqJoin: {
        // One tick = one SN, so the SN-equijoin of the deltas is their full
        // pairing (Theorem 4.1).
        const std::vector<Tuple>& left = scratch->slots_[in0];
        const std::vector<Tuple>& right = scratch->slots_[in1];
        ReserveProduct(&out, left.size(), right.size());
        for (const Tuple& l : left) {
          for (const Tuple& r : right) EmitConcat(&out, l, r);
        }
        break;
      }

      case PlanOp::kUnion: {
        const std::vector<Tuple>& left = scratch->slots_[in0];
        const std::vector<Tuple>& right = scratch->slots_[in1];
        out.reserve(left.size() + right.size());
        scratch->seen_.Clear();
        for (const Tuple& t : left) {
          if (scratch->seen_.Insert(&t)) out.push_back(t);
        }
        for (const Tuple& t : right) {
          if (scratch->seen_.Insert(&t)) out.push_back(t);
        }
        break;
      }

      case PlanOp::kDifference: {
        // Δ(E1 − E2) = ΔE1 − ΔE2 exactly (Theorem 4.1 proof).
        const std::vector<Tuple>& left = scratch->slots_[in0];
        const std::vector<Tuple>& right = scratch->slots_[in1];
        scratch->removed_.Clear();
        for (const Tuple& t : right) scratch->removed_.Insert(&t);
        out.reserve(left.size());
        // Subtraction and dedupe fused into one first-seen pass — same
        // output order as subtract-then-dedupe.
        scratch->seen_.Clear();
        for (const Tuple& t : left) {
          if (!scratch->removed_.Contains(t) && scratch->seen_.Insert(&t)) {
            out.push_back(t);
          }
        }
        break;
      }

      case PlanOp::kGroupBySeq: {
        // SN is in the grouping list, so appended tuples form brand-new
        // groups: aggregate within the tick only.
        const std::vector<Tuple>& in = scratch->slots_[in0];
        const std::vector<size_t>& group_columns = node.group_columns();
        const std::vector<AggSpec>& aggregates = node.aggregates();
        PlanScratch::GroupMap& groups = scratch->groups_;
        groups.clear();
        // Deterministic output order: stable (key, states) pointers into
        // the retained map, collected in the tick arena.
        struct GroupRef {
          const Tuple* key;
          std::vector<AggState>* states;
        };
        ArenaVector<GroupRef> group_order{
            ArenaAllocator<GroupRef>(&scratch->arena_)};
        Tuple& key = scratch->key_;
        for (const Tuple& t : in) {
          key.clear();
          for (size_t idx : group_columns) key.push_back(t[idx]);
          auto [it, inserted] = groups.try_emplace(key);
          std::vector<AggState>* states = &it->second;
          if (inserted) {
            states->reserve(aggregates.size());
            for (const AggSpec& agg : aggregates) states->push_back(agg.Init());
            group_order.push_back(GroupRef{&it->first, states});
          }
          for (size_t i = 0; i < aggregates.size(); ++i) {
            aggregates[i].Update(&(*states)[i], t);
          }
        }
        out.reserve(group_order.size());
        for (const GroupRef& group : group_order) {
          out.emplace_back();
          Tuple& row = out.back();
          row.reserve(group.key->size() + aggregates.size());
          row.insert(row.end(), group.key->begin(), group.key->end());
          for (size_t i = 0; i < aggregates.size(); ++i) {
            row.push_back(aggregates[i].Finalize((*group.states)[i]));
          }
        }
        break;
      }

      case PlanOp::kRelCross: {
        // Implicit temporal join against the current relation version.
        const std::vector<Tuple>& in = scratch->slots_[in0];
        const Relation* rel = node.relation();
        ReserveProduct(&out, in.size(), rel->size());
        for (const Tuple& t : in) {
          for (const Tuple& r : rel->rows()) EmitConcat(&out, t, r);
          if (stats != nullptr) stats->relation_rows_scanned += rel->size();
        }
        break;
      }

      case PlanOp::kRelKeyJoin: {
        const std::vector<Tuple>& in = scratch->slots_[in0];
        const Relation* rel = node.relation();
        const size_t join_column = node.join_column();
        out.reserve(in.size());
        for (const Tuple& t : in) {
          if (stats != nullptr) ++stats->relation_lookups;
          const Tuple* match = rel->FindByKey(t[join_column]);
          if (match == nullptr) continue;  // inner join: misses drop out
          EmitConcat(&out, t, *match);
        }
        break;
      }

      case PlanOp::kRelBoundedJoin: {
        const std::vector<Tuple>& in = scratch->slots_[in0];
        const Relation* rel = node.relation();
        ReserveProduct(&out, in.size(), node.max_matches());
        for (const Tuple& t : in) {
          if (stats != nullptr) ++stats->relation_lookups;
          const std::vector<size_t>* slots =
              rel->FindBySecondary(node.relation_column(), t[node.join_column()]);
          if (slots == nullptr) continue;
          if (slots->size() > node.max_matches()) {
            // The Definition 4.2 guarantee is an integrity constraint; its
            // violation means the plan's admission into CA_join was unsound.
            return Status::FailedPrecondition(
                "bounded join matched " + std::to_string(slots->size()) +
                " relation tuples, declared bound is " +
                std::to_string(node.max_matches()) + " (Definition 4.2)");
          }
          for (size_t slot : *slots) EmitConcat(&out, t, rel->rows()[slot]);
        }
        break;
      }
    }
    scratch->slot_form_[slot] |= PlanScratch::kRowsValid;
    produced = out.size();
    }
    scratch->stamp_[slot] = tick;
    Record(stats, produced);
    if (profile) {
      scratch->slot_ns_[slot] =
          static_cast<uint64_t>(ProfileNowNanos() - instr_start_ns);
      scratch->slot_rows_[slot] = produced;
      scratch->slot_vec_[slot] = vec_done ? 1 : 0;
    }
  }
  const uint32_t root = program_slots_.back();
  scratch->EnsureRowForm(root);
  return &scratch->slots_[root];
}

bool DeltaPlan::ExecuteVector(size_t idx, const AppendEvent& event,
                              PlanScratch* scratch, DeltaStats* stats) const {
  const PlanInstr& instr = instrs_[idx];
  const CaExpr& node = *instr.node;
  const VecInstrInfo& info = *vec_infos_[idx];
  // Operand slots in program numbering (in1 only read by binary ops).
  const size_t arity = node.num_children();
  const uint32_t in0 = arity >= 1 ? program_slots_[instr.in0] : 0;
  const uint32_t in1 = arity >= 2 ? program_slots_[instr.in1] : 0;
  ColumnBatch& out = scratch->col_slots_[program_slots_[idx]];
  Arena* arena = &scratch->arena_;
  switch (instr.op) {
    case PlanOp::kScan: {
      // Same first-seen dedupe as the row arm, then a straight transpose of
      // the survivors. A schema-mismatched cell (possible only for rows
      // that predate a schema check, i.e. never via ValidateTuple) rejects
      // the whole tick to the row engine.
      scratch->seen_.Clear();
      ArenaVector<const Tuple*> survivors{ArenaAllocator<const Tuple*>(arena)};
      for (const auto& [id, tuples] : event.inserts) {
        if (id != node.chronicle_id()) continue;
        for (const Tuple& t : tuples) {
          if (scratch->seen_.Insert(&t)) survivors.push_back(&t);
        }
      }
      const Schema& schema = node.schema();
      const size_t ncols = schema.num_fields();
      AllocateColumns(schema, survivors.size(), arena, &out);
      for (size_t r = 0; r < survivors.size(); ++r) {
        const Tuple& t = *survivors[r];
        if (t.size() != ncols) return false;
        for (size_t c = 0; c < ncols; ++c) {
          if (!WriteCell(&out.cols[c], r, t[c])) return false;
        }
      }
      return true;
    }

    case PlanOp::kSelect: {
      if (!scratch->EnsureColForm(in0, node.child(0)->schema())) {
        return false;
      }
      VecSelect(*info.pred, scratch->col_slots_[in0], event.sn,
                event.chronon, arena, &out);
      return true;
    }

    case PlanOp::kProject: {
      if (!scratch->EnsureColForm(in0, node.child(0)->schema())) {
        return false;
      }
      VecProject(scratch->col_slots_[in0], node.projection(),
                 &scratch->vec_, arena, &out);
      return true;
    }

    case PlanOp::kSeqJoin: {
      if (!scratch->EnsureColForm(in0, node.child(0)->schema()) ||
          !scratch->EnsureColForm(in1, node.child(1)->schema())) {
        return false;
      }
      return VecSeqJoin(scratch->col_slots_[in0],
                        scratch->col_slots_[in1], arena, &out);
    }

    case PlanOp::kUnion: {
      if (!scratch->EnsureColForm(in0, node.child(0)->schema()) ||
          !scratch->EnsureColForm(in1, node.child(1)->schema())) {
        return false;
      }
      VecUnion(scratch->col_slots_[in0], scratch->col_slots_[in1],
               &scratch->vec_, arena, &out);
      return true;
    }

    case PlanOp::kGroupBySeq: {
      if (!scratch->EnsureColForm(in0, node.child(0)->schema())) {
        return false;
      }
      VecGroupBy(scratch->col_slots_[in0], node.group_columns(),
                 info.aggs, node.aggregates(), node.schema(), &scratch->vec_,
                 arena, &out);
      return true;
    }

    case PlanOp::kRelKeyJoin: {
      if (!scratch->EnsureColForm(in0, node.child(0)->schema())) {
        return false;
      }
      const ColumnBatch& in = scratch->col_slots_[in0];
      if (!VecRelKeyJoin(in, node.relation(), node.join_column(),
                         node.schema(), arena, &out)) {
        // Fallback reruns the row arm, which owns the stats in that case.
        return false;
      }
      if (stats != nullptr) stats->relation_lookups += in.size();
      return true;
    }

    default:
      return false;
  }
}

Result<const std::vector<ChronicleRow>*> DeltaPlan::ExecuteToRows(
    const AppendEvent& event, PlanScratch* scratch, DeltaStats* stats) const {
  CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* tuples,
                             Execute(event, scratch, stats));
  scratch->rows_.clear();
  scratch->rows_.reserve(tuples->size());
  // Move the root's tuples out rather than copying them, and un-stamp the
  // root so nothing later in this tick is served the emptied slot.
  const uint32_t root = program_slots_.back();
  for (Tuple& t : scratch->slots_[root]) {
    scratch->rows_.push_back(ChronicleRow{event.sn, std::move(t)});
  }
  scratch->stamp_[root] = 0;
  return &scratch->rows_;
}

namespace {

// printf-append helper for the EXPLAIN renderers.
#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void ExplainAppendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

// Minimal JSON string escaping (view names). exec does not depend on the
// obs layer, so it cannot share obs::JsonEscape.
std::string ExplainEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// Whether `profile` carries samples for `instrs` (one entry per local
// slot, root sampled). If so, fills the total self time and each slot's
// subtree-cumulative time. Instructions are post-order, so every input
// slot index is smaller than its consumer's: one forward pass suffices. A
// shared subexpression contributes its full subtree to EACH consumer, so
// the root's cumulative share can exceed 100%; self shares always sum to
// exactly 100%.
bool CumulativeProfile(const std::vector<PlanInstr>& instrs,
                       const std::vector<SlotProfile>* profile,
                       std::vector<uint64_t>* cum_ns, uint64_t* total_ns) {
  cum_ns->assign(instrs.size(), 0);
  if (profile == nullptr || profile->size() != instrs.size() ||
      instrs.empty() || profile->back().samples == 0) {
    return false;
  }
  for (size_t i = 0; i < instrs.size(); ++i) {
    const PlanInstr& instr = instrs[i];
    *total_ns += (*profile)[i].ns;
    (*cum_ns)[i] = (*profile)[i].ns;
    const size_t arity = instr.node->num_children();
    if (arity >= 1) (*cum_ns)[i] += (*cum_ns)[instr.in0];
    if (arity >= 2) (*cum_ns)[i] += (*cum_ns)[instr.in1];
  }
  return true;
}

}  // namespace

std::string DeltaPlan::ToString() const {
  std::string out;
  for (const PlanInstr& instr : instrs_) {
    out.append("s").append(std::to_string(instr.out)).append(" = ");
    out += CaOpToString(instr.node->op());
    out += "(";
    const size_t arity = instr.node->num_children();
    if (arity >= 1) out.append("s").append(std::to_string(instr.in0));
    if (arity >= 2) out.append(", s").append(std::to_string(instr.in1));
    out += ")\n";
  }
  out.append("root: s").append(std::to_string(root_slot())).append("\n");
  return out;
}

std::string DeltaPlan::Explain(const std::vector<SlotProfile>* profile) const {
  uint64_t total_ns = 0;
  std::vector<uint64_t> cum_ns;
  const bool profiled = CumulativeProfile(instrs_, profile, &cum_ns, &total_ns);
  const double denom = total_ns > 0 ? static_cast<double>(total_ns) : 1.0;

  std::string out;
  ExplainAppendf(&out, "plan: %zu slots, root s%u, %zu shared subexpressions\n",
                 instrs_.size(), root_slot(), shared_subexpressions_);
  if (profiled) {
    ExplainAppendf(&out, "profile: %" PRIu64 " sampled ticks, %" PRIu64
                         " ns total self time\n",
                   (*profile)[root_slot()].samples, total_ns);
  } else {
    out += "profile: no samples (enable profile_plan_slots and append)\n";
  }

  // Depth-first from the root; a slot consumed by several parents is
  // rendered in full under its first parent and as a one-line back
  // reference afterwards.
  std::vector<bool> rendered(instrs_.size(), false);
  struct Frame {
    uint32_t slot;
    size_t depth;
  };
  std::vector<Frame> stack{{root_slot(), 0}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const PlanInstr& instr = instrs_[frame.slot];
    for (size_t d = 0; d < frame.depth; ++d) out += "  ";
    ExplainAppendf(&out, "s%u %s", frame.slot, CaOpToString(instr.node->op()));
    if (instr.columnar) out += " [columnar]";
    if (rendered[frame.slot]) {
      out += "  (shared, see above)\n";
      continue;
    }
    rendered[frame.slot] = true;
    if (profiled) {
      const SlotProfile& slot = (*profile)[frame.slot];
      ExplainAppendf(&out,
                     "  self %5.1f%%  cum %5.1f%%  rows %" PRIu64
                     "  (%" PRIu64 " ns)",
                     100.0 * static_cast<double>(slot.ns) / denom,
                     100.0 * static_cast<double>(cum_ns[frame.slot]) / denom,
                     slot.rows, slot.ns);
      if (slot.samples > 0) {
        ExplainAppendf(&out, "  %.1f rows/tick",
                       static_cast<double>(slot.rows) /
                           static_cast<double>(slot.samples));
      }
      if (instr.columnar) {
        // How often the columnar kernel actually ran (vs row fallback).
        ExplainAppendf(&out, "  vec %" PRIu64 "/%" PRIu64, slot.vec_samples,
                       slot.samples);
      }
    }
    out += "\n";
    // Push in reverse so in0 renders first.
    const size_t arity = instr.node->num_children();
    if (arity >= 2) stack.push_back({instr.in1, frame.depth + 1});
    if (arity >= 1) stack.push_back({instr.in0, frame.depth + 1});
  }
  return out;
}

std::string DeltaPlan::ExplainJson(
    const std::string& view_name,
    const std::vector<SlotProfile>* profile) const {
  uint64_t total_ns = 0;
  std::vector<uint64_t> cum_ns;
  const bool profiled = CumulativeProfile(instrs_, profile, &cum_ns, &total_ns);
  const double denom = total_ns > 0 ? static_cast<double>(total_ns) : 1.0;

  std::string out;
  ExplainAppendf(&out,
                 "{\"view\":\"%s\",\"slots\":%zu,\"root\":%u,"
                 "\"shared_subexpressions\":%zu,\"sampled_ticks\":%" PRIu64
                 ",\"total_self_ns\":%" PRIu64 ",\"plan\":[",
                 ExplainEscape(view_name).c_str(), instrs_.size(), root_slot(),
                 shared_subexpressions_,
                 profiled ? (*profile)[root_slot()].samples : uint64_t{0},
                 total_ns);
  for (size_t i = 0; i < instrs_.size(); ++i) {
    const PlanInstr& instr = instrs_[i];
    if (i > 0) out += ",";
    ExplainAppendf(&out, "{\"slot\":%zu,\"op\":\"%s\",\"inputs\":[", i,
                   CaOpToString(instr.node->op()));
    const size_t arity = instr.node->num_children();
    if (arity >= 1) ExplainAppendf(&out, "%u", instr.in0);
    if (arity >= 2) ExplainAppendf(&out, ",%u", instr.in1);
    out += "]";
    ExplainAppendf(&out, ",\"engine\":\"%s\"",
                   instr.columnar ? "columnar" : "row");
    if (profiled) {
      const SlotProfile& slot = (*profile)[i];
      ExplainAppendf(&out,
                     ",\"self_ns\":%" PRIu64 ",\"self_share\":%.4f"
                     ",\"cum_share\":%.4f,\"rows\":%" PRIu64,
                     slot.ns, static_cast<double>(slot.ns) / denom,
                     static_cast<double>(cum_ns[i]) / denom, slot.rows);
      ExplainAppendf(&out, ",\"vec_samples\":%" PRIu64, slot.vec_samples);
      if (slot.samples > 0) {
        ExplainAppendf(&out, ",\"rows_per_tick\":%.1f",
                       static_cast<double>(slot.rows) /
                           static_cast<double>(slot.samples));
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace exec
}  // namespace chronicle
