#include "algebra/ca_expr.h"

namespace chronicle {

const char* CaOpToString(CaOp op) {
  switch (op) {
    case CaOp::kScan:
      return "Scan";
    case CaOp::kSelect:
      return "Select";
    case CaOp::kProject:
      return "Project";
    case CaOp::kSeqJoin:
      return "SeqJoin";
    case CaOp::kUnion:
      return "Union";
    case CaOp::kDifference:
      return "Difference";
    case CaOp::kGroupBySeq:
      return "GroupBySeq";
    case CaOp::kRelCross:
      return "RelCross";
    case CaOp::kRelKeyJoin:
      return "RelKeyJoin";
    case CaOp::kRelBoundedJoin:
      return "RelBoundedJoin";
    case CaOp::kProjectDropSn:
      return "ProjectDropSn";
    case CaOp::kGroupByNoSn:
      return "GroupByNoSn";
    case CaOp::kChronicleCross:
      return "ChronicleCross";
    case CaOp::kSeqThetaJoin:
      return "SeqThetaJoin";
  }
  return "Unknown";
}

Result<CaExprPtr> CaExpr::Scan(ChronicleId id, std::string name, Schema schema) {
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kScan));
  e->chronicle_id_ = id;
  e->label_ = std::move(name);
  e->schema_ = std::move(schema);
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::Scan(const Chronicle& chronicle) {
  return Scan(chronicle.id(), chronicle.name(), chronicle.schema());
}

Result<CaExprPtr> CaExpr::Select(Ptr child, ScalarExprPtr predicate) {
  if (child == nullptr || predicate == nullptr) {
    return Status::InvalidArgument("Select requires a child and a predicate");
  }
  CHRONICLE_RETURN_NOT_OK(predicate->Bind(child->schema()));
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kSelect));
  e->schema_ = child->schema();
  e->label_ = child->label();
  e->children_.push_back(std::move(child));
  e->predicate_ = std::move(predicate);
  return CaExprPtr(e);
}

namespace {

// Resolves `columns` against `schema`, producing indexes and the projected
// schema.
Status ResolveProjection(const Schema& schema,
                         const std::vector<std::string>& columns,
                         std::vector<size_t>* indexes, Schema* out_schema) {
  if (columns.empty()) {
    return Status::InvalidArgument("projection list is empty");
  }
  std::vector<Field> fields;
  for (const std::string& name : columns) {
    CHRONICLE_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(name));
    indexes->push_back(idx);
    fields.push_back(schema.field(idx));
  }
  CHRONICLE_ASSIGN_OR_RETURN(*out_schema, Schema::Make(std::move(fields)));
  return Status::OK();
}

Status ResolveGroupBy(const Schema& schema,
                      const std::vector<std::string>& group_columns,
                      std::vector<AggSpec>* aggregates,
                      std::vector<size_t>* group_indexes, Schema* out_schema) {
  std::vector<Field> fields;
  for (const std::string& name : group_columns) {
    CHRONICLE_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(name));
    group_indexes->push_back(idx);
    fields.push_back(schema.field(idx));
  }
  for (AggSpec& agg : *aggregates) {
    CHRONICLE_RETURN_NOT_OK(agg.Bind(schema));
    fields.push_back(agg.OutputField());
  }
  CHRONICLE_ASSIGN_OR_RETURN(*out_schema, Schema::Make(std::move(fields)));
  return Status::OK();
}

}  // namespace

Result<CaExprPtr> CaExpr::Project(Ptr child, std::vector<std::string> columns) {
  if (child == nullptr) return Status::InvalidArgument("Project requires a child");
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kProject));
  CHRONICLE_RETURN_NOT_OK(
      ResolveProjection(child->schema(), columns, &e->projection_, &e->schema_));
  e->label_ = child->label();
  e->children_.push_back(std::move(child));
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::SeqJoin(Ptr left, Ptr right, std::string right_prefix) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("SeqJoin requires two children");
  }
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kSeqJoin));
  e->schema_ = left->schema().Concat(right->schema(), right_prefix);
  e->label_ = left->label() + "*" + right->label();
  e->children_.push_back(std::move(left));
  e->children_.push_back(std::move(right));
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::Union(Ptr left, Ptr right) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("Union requires two children");
  }
  if (left->schema() != right->schema()) {
    return Status::InvalidArgument("Union operands have different schemas: " +
                                   left->schema().ToString() + " vs " +
                                   right->schema().ToString());
  }
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kUnion));
  e->schema_ = left->schema();
  e->label_ = left->label() + "+" + right->label();
  e->children_.push_back(std::move(left));
  e->children_.push_back(std::move(right));
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::Difference(Ptr left, Ptr right) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("Difference requires two children");
  }
  if (left->schema() != right->schema()) {
    return Status::InvalidArgument(
        "Difference operands have different schemas: " +
        left->schema().ToString() + " vs " + right->schema().ToString());
  }
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kDifference));
  e->schema_ = left->schema();
  e->label_ = left->label() + "-" + right->label();
  e->children_.push_back(std::move(left));
  e->children_.push_back(std::move(right));
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::GroupBySeq(Ptr child,
                                     std::vector<std::string> group_columns,
                                     std::vector<AggSpec> aggregates) {
  if (child == nullptr) {
    return Status::InvalidArgument("GroupBySeq requires a child");
  }
  if (aggregates.empty()) {
    return Status::InvalidArgument("GroupBySeq requires at least one aggregate");
  }
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kGroupBySeq));
  e->aggregates_ = std::move(aggregates);
  CHRONICLE_RETURN_NOT_OK(ResolveGroupBy(child->schema(), group_columns,
                                         &e->aggregates_, &e->group_columns_,
                                         &e->schema_));
  e->label_ = child->label();
  e->children_.push_back(std::move(child));
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::RelCross(Ptr child, const Relation* relation) {
  if (child == nullptr || relation == nullptr) {
    return Status::InvalidArgument("RelCross requires a child and a relation");
  }
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kRelCross));
  e->schema_ = child->schema().Concat(relation->schema(), relation->name());
  e->label_ = child->label() + "x" + relation->name();
  e->relation_ = relation;
  e->children_.push_back(std::move(child));
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::RelKeyJoin(Ptr child, const Relation* relation,
                                     const std::string& chronicle_column) {
  if (child == nullptr || relation == nullptr) {
    return Status::InvalidArgument("RelKeyJoin requires a child and a relation");
  }
  if (!relation->has_key()) {
    return Status::InvalidArgument(
        "RelKeyJoin requires relation '" + relation->name() +
        "' to declare a unique key (the CA_join guarantee, Definition 4.2)");
  }
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kRelKeyJoin));
  CHRONICLE_ASSIGN_OR_RETURN(e->join_column_,
                             child->schema().IndexOf(chronicle_column));
  e->schema_ = child->schema().Concat(relation->schema(), relation->name());
  e->label_ = child->label() + "|x|" + relation->name();
  e->relation_ = relation;
  e->children_.push_back(std::move(child));
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::RelBoundedJoin(Ptr child, const Relation* relation,
                                         const std::string& chronicle_column,
                                         const std::string& relation_column,
                                         size_t max_matches) {
  if (child == nullptr || relation == nullptr) {
    return Status::InvalidArgument(
        "RelBoundedJoin requires a child and a relation");
  }
  if (max_matches == 0) {
    return Status::InvalidArgument("max_matches must be at least 1");
  }
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kRelBoundedJoin));
  CHRONICLE_ASSIGN_OR_RETURN(e->join_column_,
                             child->schema().IndexOf(chronicle_column));
  CHRONICLE_ASSIGN_OR_RETURN(e->relation_column_,
                             relation->schema().IndexOf(relation_column));
  if (!relation->HasSecondaryIndex(e->relation_column_)) {
    return Status::FailedPrecondition(
        "RelBoundedJoin requires a secondary index on '" + relation_column +
        "' of relation '" + relation->name() +
        "' (one probe per chronicle tuple, Definition 4.2)");
  }
  e->max_matches_ = max_matches;
  e->schema_ = child->schema().Concat(relation->schema(), relation->name());
  e->label_ = child->label() + "|x<=" + std::to_string(max_matches) + "|" +
              relation->name();
  e->relation_ = relation;
  e->children_.push_back(std::move(child));
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::ProjectDropSn(Ptr child,
                                        std::vector<std::string> columns) {
  if (child == nullptr) {
    return Status::InvalidArgument("ProjectDropSn requires a child");
  }
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kProjectDropSn));
  CHRONICLE_RETURN_NOT_OK(
      ResolveProjection(child->schema(), columns, &e->projection_, &e->schema_));
  e->label_ = child->label();
  e->children_.push_back(std::move(child));
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::GroupByNoSn(Ptr child,
                                      std::vector<std::string> group_columns,
                                      std::vector<AggSpec> aggregates) {
  if (child == nullptr) {
    return Status::InvalidArgument("GroupByNoSn requires a child");
  }
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kGroupByNoSn));
  e->aggregates_ = std::move(aggregates);
  CHRONICLE_RETURN_NOT_OK(ResolveGroupBy(child->schema(), group_columns,
                                         &e->aggregates_, &e->group_columns_,
                                         &e->schema_));
  e->label_ = child->label();
  e->children_.push_back(std::move(child));
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::ChronicleCross(Ptr left, Ptr right,
                                         std::string right_prefix) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("ChronicleCross requires two children");
  }
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kChronicleCross));
  e->schema_ = left->schema().Concat(right->schema(), right_prefix);
  e->label_ = left->label() + "xx" + right->label();
  e->children_.push_back(std::move(left));
  e->children_.push_back(std::move(right));
  return CaExprPtr(e);
}

Result<CaExprPtr> CaExpr::SeqThetaJoin(Ptr left, Ptr right, CompareOp theta,
                                       std::string right_prefix) {
  if (left == nullptr || right == nullptr) {
    return Status::InvalidArgument("SeqThetaJoin requires two children");
  }
  if (theta == CompareOp::kEq) {
    return Status::InvalidArgument(
        "SeqThetaJoin with '=' is the legal SeqJoin; use CaExpr::SeqJoin");
  }
  auto e = std::shared_ptr<CaExpr>(new CaExpr(CaOp::kSeqThetaJoin));
  e->theta_ = theta;
  e->schema_ = left->schema().Concat(right->schema(), right_prefix);
  e->label_ = left->label() + "?" + right->label();
  e->children_.push_back(std::move(left));
  e->children_.push_back(std::move(right));
  return CaExprPtr(e);
}

void CaExpr::CollectBaseChronicles(std::set<ChronicleId>* out) const {
  if (op_ == CaOp::kScan) out->insert(chronicle_id_);
  for (const Ptr& child : children_) child->CollectBaseChronicles(out);
}

void CaExpr::CollectRelations(std::set<const Relation*>* out) const {
  if (relation_ != nullptr) out->insert(relation_);
  for (const Ptr& child : children_) child->CollectRelations(out);
}

std::string CaExpr::ToString() const {
  std::string out;
  ToStringRec(0, &out);
  return out;
}

void CaExpr::ToStringRec(int indent, std::string* out) const {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(CaOpToString(op_));
  switch (op_) {
    case CaOp::kScan:
      out->append("(").append(label_).append(")");
      break;
    case CaOp::kSelect:
      out->append("[").append(predicate_->ToString()).append("]");
      break;
    case CaOp::kProject:
    case CaOp::kProjectDropSn: {
      out->append("[");
      for (size_t i = 0; i < projection_.size(); ++i) {
        if (i > 0) out->append(", ");
        out->append(schema_.field(i).name);
      }
      out->append("]");
      break;
    }
    case CaOp::kGroupBySeq:
    case CaOp::kGroupByNoSn: {
      out->append("[");
      for (size_t i = 0; i < group_columns_.size(); ++i) {
        if (i > 0) out->append(", ");
        out->append(schema_.field(i).name);
      }
      out->append(" ; ");
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        if (i > 0) out->append(", ");
        out->append(aggregates_[i].ToString());
      }
      out->append("]");
      break;
    }
    case CaOp::kRelCross:
    case CaOp::kRelKeyJoin:
    case CaOp::kRelBoundedJoin:
      out->append("[").append(relation_->name()).append("]");
      break;
    case CaOp::kSeqThetaJoin:
      out->append("[SN ");
      out->append(CompareOpToString(theta_));
      out->append(" SN]");
      break;
    default:
      break;
  }
  out->append("\n");
  for (const Ptr& child : children_) child->ToStringRec(indent + 1, out);
}

}  // namespace chronicle
