#include "monitor/forecast.h"

#include "base/check.h"

namespace rispp {

ExecutionMonitor::ExecutionMonitor(std::size_t hot_spot_count, std::size_t si_count)
    : forecast_(hot_spot_count, std::vector<std::uint64_t>(si_count, 0)),
      last_(hot_spot_count, std::vector<std::uint64_t>(si_count, 0)),
      counting_(si_count, 0) {}

void ExecutionMonitor::seed(HotSpotId hs, SiId si, std::uint64_t expected) {
  RISPP_CHECK(hs < forecast_.size() && si < counting_.size());
  forecast_[hs][si] = expected;
}

void ExecutionMonitor::begin_hot_spot(HotSpotId hs) {
  RISPP_CHECK_MSG(!active_, "previous hot spot not closed");
  RISPP_CHECK(hs < forecast_.size());
  current_ = hs;
  active_ = true;
  std::fill(counting_.begin(), counting_.end(), 0);
}

void ExecutionMonitor::record_execution(SiId si) {
  RISPP_CHECK(active_ && si < counting_.size());
  ++counting_[si];
}

void ExecutionMonitor::end_hot_spot() {
  RISPP_CHECK(active_);
  active_ = false;
  auto& fc = forecast_[current_];
  auto& last = last_[current_];
  for (std::size_t si = 0; si < counting_.size(); ++si) {
    last[si] = counting_[si];
    // Exponential weighted update, alpha = 1/2 (one adder + one shift).
    fc[si] = (fc[si] + counting_[si]) / 2;
  }
}

const std::vector<std::uint64_t>& ExecutionMonitor::forecast(HotSpotId hs) const {
  RISPP_CHECK(hs < forecast_.size());
  return forecast_[hs];
}

const std::vector<std::uint64_t>& ExecutionMonitor::last_measured(HotSpotId hs) const {
  RISPP_CHECK(hs < last_.size());
  return last_[hs];
}

}  // namespace rispp
