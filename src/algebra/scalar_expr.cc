#include "algebra/scalar_expr.h"

namespace chronicle {

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpToString(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

ScalarExprPtr ScalarExpr::Column(std::string name) {
  auto e = ScalarExprPtr(new ScalarExpr(ExprKind::kColumn));
  e->name_ = std::move(name);
  return e;
}

ScalarExprPtr ScalarExpr::SeqNumRef() {
  return ScalarExprPtr(new ScalarExpr(ExprKind::kSeqNum));
}

ScalarExprPtr ScalarExpr::ChrononRef() {
  return ScalarExprPtr(new ScalarExpr(ExprKind::kChronon));
}

ScalarExprPtr ScalarExpr::Literal(Value v) {
  auto e = ScalarExprPtr(new ScalarExpr(ExprKind::kLiteral));
  e->literal_ = std::move(v);
  return e;
}

ScalarExprPtr ScalarExpr::Compare(CompareOp op, ScalarExprPtr lhs,
                                  ScalarExprPtr rhs) {
  auto e = ScalarExprPtr(new ScalarExpr(ExprKind::kCompare));
  e->compare_op_ = op;
  e->children_.push_back(std::move(lhs));
  e->children_.push_back(std::move(rhs));
  return e;
}

ScalarExprPtr ScalarExpr::And(ScalarExprPtr lhs, ScalarExprPtr rhs) {
  auto e = ScalarExprPtr(new ScalarExpr(ExprKind::kAnd));
  e->children_.push_back(std::move(lhs));
  e->children_.push_back(std::move(rhs));
  return e;
}

ScalarExprPtr ScalarExpr::Or(ScalarExprPtr lhs, ScalarExprPtr rhs) {
  auto e = ScalarExprPtr(new ScalarExpr(ExprKind::kOr));
  e->children_.push_back(std::move(lhs));
  e->children_.push_back(std::move(rhs));
  return e;
}

ScalarExprPtr ScalarExpr::Not(ScalarExprPtr operand) {
  auto e = ScalarExprPtr(new ScalarExpr(ExprKind::kNot));
  e->children_.push_back(std::move(operand));
  return e;
}

ScalarExprPtr ScalarExpr::Arith(ArithOp op, ScalarExprPtr lhs, ScalarExprPtr rhs) {
  auto e = ScalarExprPtr(new ScalarExpr(ExprKind::kArith));
  e->arith_op_ = op;
  e->children_.push_back(std::move(lhs));
  e->children_.push_back(std::move(rhs));
  return e;
}

ScalarExprPtr ScalarExpr::Case(
    std::vector<std::pair<ScalarExprPtr, ScalarExprPtr>> branches,
    ScalarExprPtr else_value) {
  auto e = ScalarExprPtr(new ScalarExpr(ExprKind::kCase));
  // Children layout: cond1, val1, cond2, val2, ..., else.
  for (auto& [cond, val] : branches) {
    e->children_.push_back(std::move(cond));
    e->children_.push_back(std::move(val));
  }
  e->children_.push_back(std::move(else_value));
  return e;
}

Status ScalarExpr::Bind(const Schema& schema) {
  if (kind_ == ExprKind::kColumn) {
    CHRONICLE_ASSIGN_OR_RETURN(bound_index_, schema.IndexOf(name_));
  }
  for (const ScalarExprPtr& child : children_) {
    CHRONICLE_RETURN_NOT_OK(child->Bind(schema));
  }
  bound_ = true;
  return Status::OK();
}

namespace {

// C-like truthiness: non-zero numeric is true; NULL is false.
Result<bool> Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int64()) return v.int64() != 0;
  if (v.is_double()) return v.dbl() != 0.0;
  return Status::InvalidArgument("string used as boolean: " + v.ToString());
}

}  // namespace

Result<Value> ScalarExpr::Eval(const EvalRow& row) const {
  switch (kind_) {
    case ExprKind::kColumn:
      if (!bound_) return Status::FailedPrecondition("expression not bound");
      return (*row.values)[bound_index_];
    case ExprKind::kSeqNum:
      return Value(static_cast<int64_t>(row.sn));
    case ExprKind::kChronon:
      return Value(row.chronon);
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kCompare: {
      CHRONICLE_ASSIGN_OR_RETURN(Value lhs, children_[0]->Eval(row));
      CHRONICLE_ASSIGN_OR_RETURN(Value rhs, children_[1]->Eval(row));
      // SQL-ish: a comparison involving NULL is false.
      if (lhs.is_null() || rhs.is_null()) return Value(int64_t{0});
      const int c = lhs.Compare(rhs);
      bool result = false;
      switch (compare_op_) {
        case CompareOp::kEq:
          result = c == 0;
          break;
        case CompareOp::kNe:
          result = c != 0;
          break;
        case CompareOp::kLt:
          result = c < 0;
          break;
        case CompareOp::kLe:
          result = c <= 0;
          break;
        case CompareOp::kGt:
          result = c > 0;
          break;
        case CompareOp::kGe:
          result = c >= 0;
          break;
      }
      return Value(int64_t{result ? 1 : 0});
    }
    case ExprKind::kAnd: {
      CHRONICLE_ASSIGN_OR_RETURN(Value lhs, children_[0]->Eval(row));
      CHRONICLE_ASSIGN_OR_RETURN(bool lb, Truthy(lhs));
      if (!lb) return Value(int64_t{0});
      CHRONICLE_ASSIGN_OR_RETURN(Value rhs, children_[1]->Eval(row));
      CHRONICLE_ASSIGN_OR_RETURN(bool rb, Truthy(rhs));
      return Value(int64_t{rb ? 1 : 0});
    }
    case ExprKind::kOr: {
      CHRONICLE_ASSIGN_OR_RETURN(Value lhs, children_[0]->Eval(row));
      CHRONICLE_ASSIGN_OR_RETURN(bool lb, Truthy(lhs));
      if (lb) return Value(int64_t{1});
      CHRONICLE_ASSIGN_OR_RETURN(Value rhs, children_[1]->Eval(row));
      CHRONICLE_ASSIGN_OR_RETURN(bool rb, Truthy(rhs));
      return Value(int64_t{rb ? 1 : 0});
    }
    case ExprKind::kNot: {
      CHRONICLE_ASSIGN_OR_RETURN(Value v, children_[0]->Eval(row));
      CHRONICLE_ASSIGN_OR_RETURN(bool b, Truthy(v));
      return Value(int64_t{b ? 0 : 1});
    }
    case ExprKind::kArith: {
      CHRONICLE_ASSIGN_OR_RETURN(Value lhs, children_[0]->Eval(row));
      CHRONICLE_ASSIGN_OR_RETURN(Value rhs, children_[1]->Eval(row));
      if (lhs.is_null() || rhs.is_null()) return Value();
      if (lhs.is_int64() && rhs.is_int64() && arith_op_ != ArithOp::kDiv) {
        switch (arith_op_) {
          case ArithOp::kAdd:
            return Value(lhs.int64() + rhs.int64());
          case ArithOp::kSub:
            return Value(lhs.int64() - rhs.int64());
          case ArithOp::kMul:
            return Value(lhs.int64() * rhs.int64());
          case ArithOp::kDiv:
            break;  // handled below in double
        }
      }
      CHRONICLE_ASSIGN_OR_RETURN(double a, lhs.AsNumeric());
      CHRONICLE_ASSIGN_OR_RETURN(double b, rhs.AsNumeric());
      switch (arith_op_) {
        case ArithOp::kAdd:
          return Value(a + b);
        case ArithOp::kSub:
          return Value(a - b);
        case ArithOp::kMul:
          return Value(a * b);
        case ArithOp::kDiv:
          if (b == 0.0) return Status::InvalidArgument("division by zero");
          return Value(a / b);
      }
      return Status::Internal("unreachable arithmetic op");
    }
    case ExprKind::kCase: {
      const size_t pairs = (children_.size() - 1) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        CHRONICLE_ASSIGN_OR_RETURN(Value cond, children_[2 * i]->Eval(row));
        CHRONICLE_ASSIGN_OR_RETURN(bool b, Truthy(cond));
        if (b) return children_[2 * i + 1]->Eval(row);
      }
      return children_.back()->Eval(row);
    }
  }
  return Status::Internal("unreachable expression kind");
}

Result<bool> ScalarExpr::EvalBool(const EvalRow& row) const {
  CHRONICLE_ASSIGN_OR_RETURN(Value v, Eval(row));
  if (v.is_null()) return false;
  if (v.is_int64()) return v.int64() != 0;
  if (v.is_double()) return v.dbl() != 0.0;
  return Status::InvalidArgument("predicate evaluated to a string");
}

ScalarExprPtr ScalarExpr::Clone() const {
  auto e = ScalarExprPtr(new ScalarExpr(kind_));
  e->name_ = name_;
  e->literal_ = literal_;
  e->compare_op_ = compare_op_;
  e->arith_op_ = arith_op_;
  e->bound_index_ = bound_index_;
  e->bound_ = bound_;
  e->children_.reserve(children_.size());
  for (const ScalarExprPtr& child : children_) {
    e->children_.push_back(child->Clone());
  }
  return e;
}

namespace {

// "(lhs op rhs)", built by appends: GCC 12 misreports -Wrestrict on
// const char* + std::string&& chains.
std::string Infix(const std::string& lhs, const char* op,
                  const std::string& rhs) {
  std::string out = "(";
  out.append(lhs).append(" ").append(op).append(" ").append(rhs).append(")");
  return out;
}

}  // namespace

std::string ScalarExpr::ToString() const {
  switch (kind_) {
    case ExprKind::kColumn:
      return name_;
    case ExprKind::kSeqNum:
      return "$sn";
    case ExprKind::kChronon:
      return "$chronon";
    case ExprKind::kLiteral:
      return literal_.ToString();
    case ExprKind::kCompare:
      return Infix(children_[0]->ToString(), CompareOpToString(compare_op_),
                   children_[1]->ToString());
    case ExprKind::kAnd:
      return Infix(children_[0]->ToString(), "AND", children_[1]->ToString());
    case ExprKind::kOr:
      return Infix(children_[0]->ToString(), "OR", children_[1]->ToString());
    case ExprKind::kNot: {
      std::string out = "(NOT ";
      out.append(children_[0]->ToString()).append(")");
      return out;
    }
    case ExprKind::kArith:
      return Infix(children_[0]->ToString(), ArithOpToString(arith_op_),
                   children_[1]->ToString());
    case ExprKind::kCase: {
      std::string out = "CASE";
      const size_t pairs = (children_.size() - 1) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        out += " WHEN " + children_[2 * i]->ToString() + " THEN " +
               children_[2 * i + 1]->ToString();
      }
      out += " ELSE " + children_.back()->ToString() + " END";
      return out;
    }
  }
  return "?";
}

}  // namespace chronicle
