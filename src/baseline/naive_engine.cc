#include "baseline/naive_engine.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "storage/keyed_table.h"

namespace chronicle {

namespace {

struct RowHash {
  size_t operator()(const ChronicleRow& row) const {
    return HashCombine(std::hash<SeqNum>()(row.sn), TupleHashValue(row.values));
  }
};
struct RowEq {
  bool operator()(const ChronicleRow& a, const ChronicleRow& b) const {
    return a == b;
  }
};
using RowSet = std::unordered_set<ChronicleRow, RowHash, RowEq>;

void DedupeRows(std::vector<ChronicleRow>* rows) {
  RowSet seen;
  std::vector<ChronicleRow> out;
  out.reserve(rows->size());
  for (ChronicleRow& row : *rows) {
    if (seen.insert(row).second) out.push_back(std::move(row));
  }
  *rows = std::move(out);
}

Tuple ConcatTuples(const Tuple& a, const Tuple& b) {
  Tuple out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

bool ThetaHolds(CompareOp op, SeqNum a, SeqNum b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

}  // namespace

void RelationHistory::Snapshot(const Relation& rel, SeqNum from_sn) {
  history_[&rel][from_sn] = rel.rows();
}

const std::vector<Tuple>* RelationHistory::RowsAt(const Relation* rel,
                                                  SeqNum sn) const {
  auto rel_it = history_.find(rel);
  if (rel_it == history_.end()) return nullptr;
  const auto& by_sn = rel_it->second;
  // Latest snapshot with from_sn <= sn.
  auto it = by_sn.upper_bound(sn);
  if (it == by_sn.begin()) return nullptr;
  --it;
  return &it->second;
}

size_t RelationHistory::num_snapshots() const {
  size_t total = 0;
  for (const auto& [rel, by_sn] : history_) total += by_sn.size();
  return total;
}

NaiveEngine::NaiveEngine(const ChronicleGroup* group,
                         const RelationHistory* history, ScanScope scope)
    : group_(group), history_(history), scope_(scope) {}

const std::vector<Tuple>& NaiveEngine::RelationRowsAt(const Relation* rel,
                                                      SeqNum sn) const {
  if (history_ != nullptr) {
    const std::vector<Tuple>* rows = history_->RowsAt(rel, sn);
    if (rows != nullptr) return *rows;
  }
  return rel->rows();
}

Result<std::vector<ChronicleRow>> NaiveEngine::Evaluate(
    const CaExpr& expr) const {
  switch (expr.op()) {
    case CaOp::kScan: {
      CHRONICLE_ASSIGN_OR_RETURN(const Chronicle* chron,
                                 group_->GetChronicle(expr.chronicle_id()));
      if (scope_ == ScanScope::kFullChronicle &&
          chron->total_appended() != chron->num_retained()) {
        return Status::FailedPrecondition(
            "chronicle '" + chron->name() +
            "' has discarded rows; the relational baseline requires the "
            "entire chronicle to be stored (retention = All or Tiered "
            "within budget)");
      }
      // Templated visitor scan: warm-tier segment rows stream through the
      // same lambda as the hot deque, with no per-row std::function hop.
      std::vector<ChronicleRow> out;
      out.reserve(chron->num_retained());
      CHRONICLE_RETURN_NOT_OK(chron->ScanRetained(
          [&out](const ChronicleRow& row) { out.push_back(row); }));
      DedupeRows(&out);
      return out;
    }

    case CaOp::kSelect: {
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> child,
                                 Evaluate(*expr.child(0)));
      std::vector<ChronicleRow> out;
      out.reserve(child.size());
      for (ChronicleRow& row : child) {
        const Chronon chronon = chronon_resolver_
                                    ? chronon_resolver_(row.sn)
                                    : static_cast<Chronon>(row.sn);
        EvalRow eval{&row.values, row.sn, chronon};
        CHRONICLE_ASSIGN_OR_RETURN(bool keep, expr.predicate()->EvalBool(eval));
        if (keep) out.push_back(std::move(row));
      }
      return out;
    }

    case CaOp::kProject:
    case CaOp::kProjectDropSn: {
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> child,
                                 Evaluate(*expr.child(0)));
      const bool drop_sn = expr.op() == CaOp::kProjectDropSn;
      std::vector<ChronicleRow> out;
      out.reserve(child.size());
      for (const ChronicleRow& row : child) {
        Tuple projected;
        projected.reserve(expr.projection().size());
        for (size_t idx : expr.projection()) projected.push_back(row.values[idx]);
        out.push_back(ChronicleRow{drop_sn ? 0 : row.sn, std::move(projected)});
      }
      DedupeRows(&out);
      return out;
    }

    case CaOp::kSeqJoin: {
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> left,
                                 Evaluate(*expr.child(0)));
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> right,
                                 Evaluate(*expr.child(1)));
      std::unordered_map<SeqNum, std::vector<const Tuple*>> by_sn;
      for (const ChronicleRow& row : right) {
        by_sn[row.sn].push_back(&row.values);
      }
      std::vector<ChronicleRow> out;
      for (const ChronicleRow& l : left) {
        auto it = by_sn.find(l.sn);
        if (it == by_sn.end()) continue;
        for (const Tuple* r : it->second) {
          out.push_back(ChronicleRow{l.sn, ConcatTuples(l.values, *r)});
        }
      }
      return out;
    }

    case CaOp::kUnion: {
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> left,
                                 Evaluate(*expr.child(0)));
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> right,
                                 Evaluate(*expr.child(1)));
      std::vector<ChronicleRow> out = std::move(left);
      out.insert(out.end(), std::make_move_iterator(right.begin()),
                 std::make_move_iterator(right.end()));
      DedupeRows(&out);
      return out;
    }

    case CaOp::kDifference: {
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> left,
                                 Evaluate(*expr.child(0)));
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> right,
                                 Evaluate(*expr.child(1)));
      RowSet removed(right.begin(), right.end());
      std::vector<ChronicleRow> out;
      out.reserve(left.size());
      for (ChronicleRow& row : left) {
        if (removed.count(row) == 0) out.push_back(std::move(row));
      }
      DedupeRows(&out);
      return out;
    }

    case CaOp::kGroupBySeq:
    case CaOp::kGroupByNoSn: {
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> child,
                                 Evaluate(*expr.child(0)));
      const bool with_sn = expr.op() == CaOp::kGroupBySeq;
      // Key: [sn?] + group columns.
      KeyedTable<std::vector<AggState>> groups(IndexMode::kHash);
      std::vector<std::pair<Tuple, SeqNum>> order;
      for (const ChronicleRow& row : child) {
        Tuple key;
        key.reserve(expr.group_columns().size() + 1);
        if (with_sn) key.emplace_back(static_cast<int64_t>(row.sn));
        for (size_t idx : expr.group_columns()) key.push_back(row.values[idx]);
        std::vector<AggState>* states = groups.Find(key);
        if (states == nullptr) {
          states = &groups.GetOrCreate(key);
          states->reserve(expr.aggregates().size());
          for (const AggSpec& agg : expr.aggregates()) {
            states->push_back(agg.Init());
          }
          order.emplace_back(key, row.sn);
        }
        for (size_t i = 0; i < expr.aggregates().size(); ++i) {
          expr.aggregates()[i].Update(&(*states)[i], row.values);
        }
      }
      std::vector<ChronicleRow> out;
      out.reserve(order.size());
      for (const auto& [key, sn] : order) {
        const std::vector<AggState>* states = groups.Find(key);
        Tuple payload(key.begin() + (with_sn ? 1 : 0), key.end());
        for (size_t i = 0; i < expr.aggregates().size(); ++i) {
          payload.push_back(expr.aggregates()[i].Finalize((*states)[i]));
        }
        out.push_back(ChronicleRow{with_sn ? sn : 0, std::move(payload)});
      }
      return out;
    }

    case CaOp::kRelCross: {
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> child,
                                 Evaluate(*expr.child(0)));
      std::vector<ChronicleRow> out;
      for (const ChronicleRow& row : child) {
        const std::vector<Tuple>& rel_rows =
            RelationRowsAt(expr.relation(), row.sn);
        for (const Tuple& r : rel_rows) {
          out.push_back(ChronicleRow{row.sn, ConcatTuples(row.values, r)});
        }
      }
      return out;
    }

    case CaOp::kRelKeyJoin: {
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> child,
                                 Evaluate(*expr.child(0)));
      const Relation* rel = expr.relation();
      const size_t key_col = rel->key_index();
      std::vector<ChronicleRow> out;
      out.reserve(child.size());
      for (const ChronicleRow& row : child) {
        const Value& key = row.values[expr.join_column()];
        const std::vector<Tuple>& rel_rows = RelationRowsAt(rel, row.sn);
        // Historical versions are plain row vectors; scan for the key (the
        // baseline pays this cost, the incremental engine does not).
        for (const Tuple& r : rel_rows) {
          if (r[key_col] == key) {
            out.push_back(ChronicleRow{row.sn, ConcatTuples(row.values, r)});
            break;  // key is unique
          }
        }
      }
      return out;
    }

    case CaOp::kRelBoundedJoin: {
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> child,
                                 Evaluate(*expr.child(0)));
      const Relation* rel = expr.relation();
      const size_t rel_col = expr.relation_column();
      std::vector<ChronicleRow> out;
      for (const ChronicleRow& row : child) {
        const Value& key = row.values[expr.join_column()];
        const std::vector<Tuple>& rel_rows = RelationRowsAt(rel, row.sn);
        size_t matched = 0;
        for (const Tuple& r : rel_rows) {
          if (r[rel_col] == key) {
            if (++matched > expr.max_matches()) {
              return Status::FailedPrecondition(
                  "bounded join exceeded its declared bound of " +
                  std::to_string(expr.max_matches()) + " (Definition 4.2)");
            }
            out.push_back(ChronicleRow{row.sn, ConcatTuples(row.values, r)});
          }
        }
      }
      return out;
    }

    case CaOp::kChronicleCross:
    case CaOp::kSeqThetaJoin: {
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> left,
                                 Evaluate(*expr.child(0)));
      CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> right,
                                 Evaluate(*expr.child(1)));
      const bool is_theta = expr.op() == CaOp::kSeqThetaJoin;
      std::vector<ChronicleRow> out;
      for (const ChronicleRow& l : left) {
        for (const ChronicleRow& r : right) {
          if (is_theta && !ThetaHolds(expr.theta(), l.sn, r.sn)) continue;
          out.push_back(ChronicleRow{l.sn > r.sn ? l.sn : r.sn,
                                     ConcatTuples(l.values, r.values)});
        }
      }
      DedupeRows(&out);
      return out;
    }
  }
  return Status::Internal("unreachable CA operator");
}

Result<std::vector<Tuple>> NaiveEngine::EvaluateSummary(
    const CaExpr& expr, const SummarySpec& spec) const {
  CHRONICLE_ASSIGN_OR_RETURN(std::vector<ChronicleRow> rows, Evaluate(expr));
  std::vector<Tuple> out;
  if (spec.kind() == SummarySpec::Kind::kGroupBy) {
    KeyedTable<std::vector<AggState>> groups(IndexMode::kHash);
    std::vector<Tuple> order;
    for (const ChronicleRow& row : rows) {
      Tuple key = spec.KeyOf(row.values);
      std::vector<AggState>* states = groups.Find(key);
      if (states == nullptr) {
        states = &groups.GetOrCreate(key);
        states->reserve(spec.aggregates().size());
        for (const AggSpec& agg : spec.aggregates()) {
          states->push_back(agg.Init());
        }
        order.push_back(key);
      }
      for (size_t i = 0; i < spec.aggregates().size(); ++i) {
        spec.aggregates()[i].Update(&(*states)[i], row.values);
      }
    }
    out.reserve(order.size());
    for (const Tuple& key : order) {
      const std::vector<AggState>* states = groups.Find(key);
      Tuple finalized = key;
      for (size_t i = 0; i < spec.aggregates().size(); ++i) {
        finalized.push_back(spec.aggregates()[i].Finalize((*states)[i]));
      }
      out.push_back(std::move(finalized));
    }
  } else {
    std::unordered_set<Tuple, TupleHash, TupleEq> seen;
    for (const ChronicleRow& row : rows) {
      Tuple key = spec.KeyOf(row.values);
      if (seen.insert(key).second) out.push_back(std::move(key));
    }
  }
  SortTuples(&out);
  return out;
}

void SortTuples(std::vector<Tuple>* tuples) {
  std::sort(tuples->begin(), tuples->end(),
            [](const Tuple& a, const Tuple& b) { return TupleCompare(a, b) < 0; });
}

}  // namespace chronicle
