// Online monitoring of SI execution frequencies (§3.1, task II of the
// Run-Time Manager; the light-weight hardware is the SASO'07 companion
// work [24]).
//
// Per (hot spot, SI) the monitor keeps a forecast of how often the SI will
// execute in the next instance of that hot spot. After a hot spot finishes,
// the measured count is folded into the forecast with an exponential
// weighted update  f' = (f + measured) / 2  — one adder and one shift in
// hardware. Forecasts feed both Molecule selection and the HEF benefit.
#pragma once

#include <cstdint>
#include <vector>

#include "base/check.h"
#include "base/types.h"

namespace rispp {

using HotSpotId = std::uint16_t;

class ExecutionMonitor {
 public:
  ExecutionMonitor(std::size_t hot_spot_count, std::size_t si_count);

  /// Design-time seed for the very first execution of a hot spot.
  void seed(HotSpotId hs, SiId si, std::uint64_t expected);

  /// Starts counting a new instance of `hs` (any previous instance must have
  /// been closed with end_hot_spot).
  void begin_hot_spot(HotSpotId hs);
  void record_execution(SiId si);
  /// Bulk form for batched replay: equivalent to `n` record_execution calls.
  /// Inline: the span walks call it once per run.
  void record_executions(SiId si, std::uint64_t n) {
    RISPP_CHECK(active_ && si < counting_.size());
    counting_[si] += n;
  }
  /// Executions of `si` counted so far in the current instance.
  std::uint64_t counted(SiId si) const { return counting_[si]; }
  /// Folds counts into forecasts.
  void end_hot_spot();

  /// Forecast per SiId for the next instance of `hs`.
  const std::vector<std::uint64_t>& forecast(HotSpotId hs) const;

  /// Measured counts of the *last finished* instance of `hs` (testing and
  /// Figure 8 style analysis).
  const std::vector<std::uint64_t>& last_measured(HotSpotId hs) const;

  bool in_hot_spot() const { return active_; }

 private:
  std::vector<std::vector<std::uint64_t>> forecast_;  // [hs][si]
  std::vector<std::vector<std::uint64_t>> last_;      // [hs][si]
  std::vector<std::uint64_t> counting_;               // [si], current instance
  HotSpotId current_ = 0;
  bool active_ = false;
};

}  // namespace rispp
