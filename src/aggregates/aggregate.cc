#include "aggregates/aggregate.h"

namespace chronicle {

const char* AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kTieredDiscount:
      return "TIERED_DISCOUNT";
    case AggKind::kFirst:
      return "FIRST";
    case AggKind::kLast:
      return "LAST";
    case AggKind::kCustom:
      return "CUSTOM";
  }
  return "UNKNOWN";
}

AggSpec::AggSpec(AggKind kind, std::string input_column, std::string output_name)
    : kind_(kind),
      input_column_(std::move(input_column)),
      output_name_(std::move(output_name)) {
  if (output_name_.empty()) {
    output_name_ = std::string(AggKindToString(kind_)) + "(" + input_column_ + ")";
  }
}

AggSpec AggSpec::Count(std::string output_name) {
  return AggSpec(AggKind::kCount, "", std::move(output_name));
}

AggSpec AggSpec::Sum(std::string input_column, std::string output_name) {
  return AggSpec(AggKind::kSum, std::move(input_column), std::move(output_name));
}

AggSpec AggSpec::Min(std::string input_column, std::string output_name) {
  return AggSpec(AggKind::kMin, std::move(input_column), std::move(output_name));
}

AggSpec AggSpec::Max(std::string input_column, std::string output_name) {
  return AggSpec(AggKind::kMax, std::move(input_column), std::move(output_name));
}

AggSpec AggSpec::Avg(std::string input_column, std::string output_name) {
  return AggSpec(AggKind::kAvg, std::move(input_column), std::move(output_name));
}

AggSpec AggSpec::First(std::string input_column, std::string output_name) {
  return AggSpec(AggKind::kFirst, std::move(input_column),
                 std::move(output_name));
}

AggSpec AggSpec::Last(std::string input_column, std::string output_name) {
  return AggSpec(AggKind::kLast, std::move(input_column),
                 std::move(output_name));
}

AggSpec AggSpec::TieredDiscount(std::string input_column, TieredSchedule schedule,
                                std::string output_name) {
  AggSpec spec(AggKind::kTieredDiscount, std::move(input_column),
               std::move(output_name));
  spec.schedule_ = std::move(schedule);
  return spec;
}

AggSpec AggSpec::Custom(std::shared_ptr<const CustomAggregateDef> def,
                        std::string input_column, std::string output_name) {
  if (output_name.empty() && def != nullptr) {
    output_name = def->name + "(" + input_column + ")";
  }
  AggSpec spec(AggKind::kCustom, std::move(input_column), std::move(output_name));
  spec.custom_def_ = std::move(def);
  return spec;
}

Status AggSpec::Bind(const Schema& schema) {
  if (kind_ == AggKind::kCount) {
    bound_ = true;
    return Status::OK();
  }
  if (kind_ == AggKind::kCustom && custom_def_ == nullptr) {
    return Status::InvalidArgument("custom aggregate without a definition");
  }
  CHRONICLE_ASSIGN_OR_RETURN(bound_input_, schema.IndexOf(input_column_));
  input_type_ = schema.field(bound_input_).type;
  const bool needs_numeric = kind_ == AggKind::kSum || kind_ == AggKind::kAvg ||
                             kind_ == AggKind::kTieredDiscount;
  if (needs_numeric && input_type_ == DataType::kString) {
    return Status::InvalidArgument(std::string(AggKindToString(kind_)) +
                                   " requires a numeric column, got STRING '" +
                                   input_column_ + "'");
  }
  bound_ = true;
  return Status::OK();
}

Field AggSpec::OutputField() const {
  switch (kind_) {
    case AggKind::kCount:
      return {output_name_, DataType::kInt64};
    case AggKind::kSum:
      return {output_name_, input_type_};
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kFirst:
    case AggKind::kLast:
      return {output_name_, input_type_};
    case AggKind::kAvg:
    case AggKind::kTieredDiscount:
      return {output_name_, DataType::kDouble};
    case AggKind::kCustom:
      return {output_name_, custom_def_->output_type};
  }
  return {output_name_, DataType::kInt64};
}

AggState AggSpec::Init() const {
  AggState state;
  if (kind_ == AggKind::kCustom) state.custom = custom_def_->init();
  return state;
}

void AggSpec::Update(AggState* state, const Tuple& row) const {
  if (kind_ == AggKind::kCount) {
    ++state->count;
    return;
  }
  UpdateValue(state, row[bound_input_]);
}

void AggSpec::UpdateValue(AggState* state, const Value& v) const {
  switch (kind_) {
    case AggKind::kCount:
      ++state->count;
      return;
    case AggKind::kSum:
    case AggKind::kTieredDiscount:
      if (v.is_null()) return;
      ++state->count;
      if (v.is_int64()) {
        state->sum_i += v.int64();
        state->sum_d += static_cast<double>(v.int64());
      } else {
        state->sum_d += v.dbl();
      }
      return;
    case AggKind::kAvg: {
      if (v.is_null()) return;
      ++state->count;
      state->sum_d += v.is_int64() ? static_cast<double>(v.int64()) : v.dbl();
      return;
    }
    case AggKind::kMin:
      if (v.is_null()) return;
      if (state->min.is_null() || v < state->min) state->min = v;
      return;
    case AggKind::kMax:
      if (v.is_null()) return;
      if (state->max.is_null() || state->max < v) state->max = v;
      return;
    case AggKind::kFirst:
      if (v.is_null()) return;
      if (state->first.is_null()) state->first = v;
      return;
    case AggKind::kLast:
      if (v.is_null()) return;
      state->last = v;
      return;
    case AggKind::kCustom:
      custom_def_->update(&state->custom, v);
      return;
  }
}

void AggSpec::Merge(AggState* state, const AggState& other) const {
  switch (kind_) {
    case AggKind::kCount:
      state->count += other.count;
      return;
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kTieredDiscount:
      state->count += other.count;
      state->sum_i += other.sum_i;
      state->sum_d += other.sum_d;
      return;
    case AggKind::kMin:
      if (!other.min.is_null() &&
          (state->min.is_null() || other.min < state->min)) {
        state->min = other.min;
      }
      return;
    case AggKind::kMax:
      if (!other.max.is_null() &&
          (state->max.is_null() || state->max < other.max)) {
        state->max = other.max;
      }
      return;
    case AggKind::kFirst:
      // `other` is chronologically later: keep ours unless we saw nothing.
      if (state->first.is_null()) state->first = other.first;
      return;
    case AggKind::kLast:
      if (!other.last.is_null()) state->last = other.last;
      return;
    case AggKind::kCustom:
      custom_def_->merge(&state->custom, other.custom);
      return;
  }
}

Value AggSpec::Finalize(const AggState& state) const {
  switch (kind_) {
    case AggKind::kCount:
      return Value(state.count);
    case AggKind::kSum:
      if (state.count == 0) return Value();  // SQL: SUM of empty is NULL
      if (input_type_ == DataType::kInt64) return Value(state.sum_i);
      return Value(state.sum_d);
    case AggKind::kMin:
      return state.min;
    case AggKind::kMax:
      return state.max;
    case AggKind::kFirst:
      return state.first;
    case AggKind::kLast:
      return state.last;
    case AggKind::kAvg:
      if (state.count == 0) return Value();
      return Value(state.sum_d / static_cast<double>(state.count));
    case AggKind::kTieredDiscount:
      return Value(schedule_.DiscountedTotal(state.sum_d));
    case AggKind::kCustom:
      return custom_def_->finalize(state.custom);
  }
  return Value();
}

std::string AggSpec::ToString() const {
  std::string out = AggKindToString(kind_);
  out += "(";
  out += kind_ == AggKind::kCount ? "*" : input_column_;
  out += ")";
  if (kind_ == AggKind::kTieredDiscount) {
    out.append("[").append(schedule_.ToString()).append("]");
  }
  out += " AS " + output_name_;
  return out;
}

}  // namespace chronicle
