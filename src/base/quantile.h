// Shared percentile path for the fleet reports (DESIGN §7).
//
// Both fleet drivers used to carry a private sort-and-index lambda; this
// header is that lambda, hoisted. The index rule is deliberately the
// historical one — floor(q * N), clamped — so replacing the ad-hoc blocks
// keeps every reported p50/p99 bit-exact.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "base/check.h"
#include "base/metrics.h"

namespace rispp {

/// The q-th percentile of an ascending-sorted, non-empty range under the
/// fleet reports' historical rule: element floor(q * N), clamped to the last.
template <typename T>
T percentile_sorted(const std::vector<T>& sorted, double q) {
  RISPP_CHECK(!sorted.empty());
  const std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(idx, sorted.size() - 1)];
}

template <typename T>
struct PercentilePair {
  T p50{};
  T p99{};
};

/// One shared path for "record the distribution, report two points": every
/// value lands in `hist` (scaled by `to_units` and rounded to the histogram's
/// integer domain), then p50/p99 come back exactly (sorts `values` in place),
/// so report output never moves. Tooling reading a snapshot answers from the
/// histogram instead, within its bucket error bound.
template <typename T>
PercentilePair<T> record_and_percentiles(std::vector<T>& values, MetricHistogram& hist,
                                         double to_units) {
  RISPP_CHECK(!values.empty());
  for (const T& v : values) {
    const double scaled = static_cast<double>(v) * to_units;
    hist.record(scaled <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(scaled)));
  }
  std::sort(values.begin(), values.end());
  return {percentile_sorted(values, 0.50), percentile_sorted(values, 0.99)};
}

}  // namespace rispp
