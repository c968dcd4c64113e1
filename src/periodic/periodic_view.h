// PeriodicViewSet: V<D> — one persistent view per interval of a calendar D
// (paper §5.1).
//
// "If the calendar D has an infinite number of intervals, there will be an
// infinite number of views V_i. ... Expiration dates allow the system to
// implement an infinite number of periodic views, provided only a finite
// number of them are current at any one instant."
//
// Instances are created lazily when the first tick inside their interval
// arrives, maintained while their interval is current, and expired (their
// space reclaimed) once their interval has been closed for longer than the
// configured grace period. The defining expression is compiled once, at
// Make; each append executes it ONCE and folds the delta into every
// containing instance —
// so for a sliding calendar with overlap factor W/s this costs W/s view
// updates per append; the SlidingWindowView optimization removes that
// factor.

#ifndef CHRONICLE_PERIODIC_PERIODIC_VIEW_H_
#define CHRONICLE_PERIODIC_PERIODIC_VIEW_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/delta_plan.h"
#include "periodic/calendar.h"
#include "views/persistent_view.h"

namespace chronicle {

struct PeriodicViewOptions {
  // Chronons after an interval's end at which its instance may be dropped;
  // negative disables expiration.
  Chronon expire_after = -1;
  IndexMode index_mode = IndexMode::kHash;
};

class PeriodicViewSet {
 public:
  // `plan` must pass ValidateChronicleAlgebra; `calendar` is shared because
  // several periodic views often run on one business calendar.
  static Result<std::unique_ptr<PeriodicViewSet>> Make(
      std::string name, CaExprPtr plan, SummarySpec spec,
      std::shared_ptr<const Calendar> calendar,
      PeriodicViewOptions options = {});

  const std::string& name() const { return name_; }
  const Calendar& calendar() const { return *calendar_; }
  const CaExprPtr& plan() const { return compiled_->root(); }

  // Maintains all instances whose interval contains the event's chronon,
  // then expires instances that have left the grace window.
  Status ProcessAppend(const AppendEvent& event);

  // Point lookup in the instance for `interval_index`. NotFound if that
  // instance never materialized or has expired.
  Result<Tuple> Lookup(int64_t interval_index, const Tuple& key) const;

  // The live instance for an interval (nullptr-free: NotFound if absent).
  Result<const PersistentView*> GetInstance(int64_t interval_index) const;

  size_t num_active_instances() const { return instances_.size(); }
  uint64_t instances_created() const { return instances_created_; }
  uint64_t instances_expired() const { return instances_expired_; }

  // Sum of live instances' footprints.
  size_t MemoryFootprint() const;

  // --- checkpoint hooks (src/checkpoint) ---

  // Visits every live instance (interval index, instance).
  void VisitInstances(
      const std::function<void(int64_t, const PersistentView&)>& fn) const;
  // Reinstates one group of one interval's instance, creating the instance
  // if needed. Only legal before the set has processed any append.
  Status RestoreInstanceGroup(int64_t interval_index, Tuple key,
                              std::vector<AggState> states,
                              int64_t multiplicity);
  // Reinstates the lifetime counters.
  void RestoreCounters(uint64_t created, uint64_t expired) {
    instances_created_ = created;
    instances_expired_ = expired;
  }

 private:
  PeriodicViewSet(std::string name, exec::DeltaPlanPtr compiled,
                  SummarySpec spec, std::shared_ptr<const Calendar> calendar,
                  PeriodicViewOptions options);

  Status ExpireUpTo(Chronon now);

  std::string name_;
  exec::DeltaPlanPtr compiled_;  // compiled once, at Make; owns the plan
  SummarySpec spec_;
  std::shared_ptr<const Calendar> calendar_;
  PeriodicViewOptions options_;
  exec::PlanScratch scratch_;  // retained across ticks

  // interval index -> live instance, kept ordered so expiration scans the
  // oldest instances first.
  std::map<int64_t, std::unique_ptr<PersistentView>> instances_;
  uint64_t instances_created_ = 0;
  uint64_t instances_expired_ = 0;
};

}  // namespace chronicle

#endif  // CHRONICLE_PERIODIC_PERIODIC_VIEW_H_
