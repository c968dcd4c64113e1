#include "periodic/calendar.h"

namespace chronicle {

std::string Interval::ToString() const {
  std::string out = "[";
  out.append(std::to_string(begin)).append(", ").append(std::to_string(end));
  return out.append(")");
}

FixedCalendar::FixedCalendar(std::vector<Interval> intervals)
    : intervals_(std::move(intervals)) {}

void FixedCalendar::IntervalsContaining(Chronon t,
                                        std::vector<int64_t>* out) const {
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (intervals_[i].Contains(t)) out->push_back(static_cast<int64_t>(i));
  }
}

Result<Interval> FixedCalendar::GetInterval(int64_t index) const {
  if (index < 0 || static_cast<size_t>(index) >= intervals_.size()) {
    return Status::OutOfRange("no interval with index " + std::to_string(index));
  }
  return intervals_[static_cast<size_t>(index)];
}

std::string FixedCalendar::ToString() const {
  std::string out = "FixedCalendar{";
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) out += ", ";
    out += intervals_[i].ToString();
  }
  out += "}";
  return out;
}

Result<std::shared_ptr<PeriodicCalendar>> PeriodicCalendar::Make(
    Chronon origin, Chronon period) {
  if (period <= 0) {
    return Status::InvalidArgument("calendar period must be positive");
  }
  return std::shared_ptr<PeriodicCalendar>(new PeriodicCalendar(origin, period));
}

void PeriodicCalendar::IntervalsContaining(Chronon t,
                                           std::vector<int64_t>* out) const {
  if (t < origin_) return;
  out->push_back((t - origin_) / period_);
}

Result<Interval> PeriodicCalendar::GetInterval(int64_t index) const {
  if (index < 0) {
    return Status::OutOfRange("periodic calendar indexes start at 0");
  }
  return Interval{origin_ + index * period_, origin_ + (index + 1) * period_};
}

std::string PeriodicCalendar::ToString() const {
  return "PeriodicCalendar{origin=" + std::to_string(origin_) +
         ", period=" + std::to_string(period_) + "}";
}

Result<std::shared_ptr<SlidingCalendar>> SlidingCalendar::Make(Chronon origin,
                                                               Chronon window,
                                                               Chronon slide) {
  if (window <= 0 || slide <= 0) {
    return Status::InvalidArgument("window and slide must be positive");
  }
  return std::shared_ptr<SlidingCalendar>(
      new SlidingCalendar(origin, window, slide));
}

void SlidingCalendar::IntervalsContaining(Chronon t,
                                          std::vector<int64_t>* out) const {
  if (t < origin_) return;
  // k·slide <= t - origin < k·slide + window
  const Chronon offset = t - origin_;
  const int64_t hi = offset / slide_;  // largest k with begin <= t
  // smallest k with t < begin + window  <=>  k > (offset - window) / slide
  int64_t lo = (offset - window_) / slide_;
  if (lo * slide_ + window_ <= offset) ++lo;  // ceil adjustment
  if (lo < 0) lo = 0;
  for (int64_t k = lo; k <= hi; ++k) out->push_back(k);
}

Result<Interval> SlidingCalendar::GetInterval(int64_t index) const {
  if (index < 0) {
    return Status::OutOfRange("sliding calendar indexes start at 0");
  }
  return Interval{origin_ + index * slide_, origin_ + index * slide_ + window_};
}

std::string SlidingCalendar::ToString() const {
  return "SlidingCalendar{origin=" + std::to_string(origin_) +
         ", window=" + std::to_string(window_) +
         ", slide=" + std::to_string(slide_) + "}";
}

}  // namespace chronicle
