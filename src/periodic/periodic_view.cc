#include "periodic/periodic_view.h"

#include "algebra/validate.h"
#include "exec/plan_compiler.h"

namespace chronicle {

PeriodicViewSet::PeriodicViewSet(std::string name,
                                 exec::DeltaPlanPtr compiled, SummarySpec spec,
                                 std::shared_ptr<const Calendar> calendar,
                                 PeriodicViewOptions options)
    : name_(std::move(name)),
      compiled_(std::move(compiled)),
      spec_(std::move(spec)),
      calendar_(std::move(calendar)),
      options_(options) {}

Result<std::unique_ptr<PeriodicViewSet>> PeriodicViewSet::Make(
    std::string name, CaExprPtr plan, SummarySpec spec,
    std::shared_ptr<const Calendar> calendar, PeriodicViewOptions options) {
  if (plan == nullptr || calendar == nullptr) {
    return Status::InvalidArgument(
        "periodic view requires a plan and a calendar");
  }
  CHRONICLE_RETURN_NOT_OK(ValidateChronicleAlgebra(*plan));
  CHRONICLE_ASSIGN_OR_RETURN(exec::DeltaPlanPtr compiled,
                             exec::CompileDeltaPlan(plan));
  return std::unique_ptr<PeriodicViewSet>(
      new PeriodicViewSet(std::move(name), std::move(compiled),
                          std::move(spec), std::move(calendar), options));
}

Status PeriodicViewSet::ProcessAppend(const AppendEvent& event) {
  std::vector<int64_t> containing;
  calendar_->IntervalsContaining(event.chronon, &containing);
  if (!containing.empty()) {
    // One shared delta for every containing instance.
    CHRONICLE_ASSIGN_OR_RETURN(const std::vector<Tuple>* delta,
                               compiled_->Execute(event, &scratch_, nullptr));
    if (!delta->empty()) {
      for (int64_t index : containing) {
        auto it = instances_.find(index);
        if (it == instances_.end()) {
          CHRONICLE_ASSIGN_OR_RETURN(
              std::unique_ptr<PersistentView> instance,
              PersistentView::Make(
                  static_cast<ViewId>(index & 0x7fffffff),
                  name_ + "@" + std::to_string(index), plan(), spec_,
                  /*computed=*/{}, options_.index_mode));
          it = instances_.emplace(index, std::move(instance)).first;
          ++instances_created_;
        }
        CHRONICLE_RETURN_NOT_OK(it->second->ApplyDelta(*delta));
      }
    }
  }
  return ExpireUpTo(event.chronon);
}

Status PeriodicViewSet::ExpireUpTo(Chronon now) {
  if (options_.expire_after < 0) return Status::OK();
  while (!instances_.empty()) {
    const int64_t index = instances_.begin()->first;
    CHRONICLE_ASSIGN_OR_RETURN(Interval interval, calendar_->GetInterval(index));
    if (interval.end + options_.expire_after > now) break;
    instances_.erase(instances_.begin());
    ++instances_expired_;
  }
  return Status::OK();
}

Result<Tuple> PeriodicViewSet::Lookup(int64_t interval_index,
                                      const Tuple& key) const {
  CHRONICLE_ASSIGN_OR_RETURN(const PersistentView* instance,
                             GetInstance(interval_index));
  return instance->Lookup(key);
}

Result<const PersistentView*> PeriodicViewSet::GetInstance(
    int64_t interval_index) const {
  auto it = instances_.find(interval_index);
  if (it == instances_.end()) {
    return Status::NotFound("periodic view '" + name_ + "' has no instance " +
                            std::to_string(interval_index) +
                            " (never materialized or expired)");
  }
  return static_cast<const PersistentView*>(it->second.get());
}

void PeriodicViewSet::VisitInstances(
    const std::function<void(int64_t, const PersistentView&)>& fn) const {
  for (const auto& [index, instance] : instances_) {
    fn(index, *instance);
  }
}

Status PeriodicViewSet::RestoreInstanceGroup(int64_t interval_index, Tuple key,
                                             std::vector<AggState> states,
                                             int64_t multiplicity) {
  auto it = instances_.find(interval_index);
  if (it == instances_.end()) {
    CHRONICLE_ASSIGN_OR_RETURN(
        std::unique_ptr<PersistentView> instance,
        PersistentView::Make(static_cast<ViewId>(interval_index & 0x7fffffff),
                             name_ + "@" + std::to_string(interval_index),
                             plan(), spec_, /*computed=*/{},
                             options_.index_mode));
    it = instances_.emplace(interval_index, std::move(instance)).first;
  }
  return it->second->RestoreGroup(std::move(key), std::move(states),
                                  multiplicity);
}

size_t PeriodicViewSet::MemoryFootprint() const {
  size_t total = 0;
  for (const auto& [index, instance] : instances_) {
    total += instance->MemoryFootprint();
  }
  return total;
}

}  // namespace chronicle
