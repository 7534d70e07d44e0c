// Forecast-parametric decisions (DESIGN §6.2). The RTM's selection and
// scheduling loops are greedy: each round builds a table of candidates and
// picks one row of it. The tables depend only on the SIs, the ready atoms and
// the budget; only the picks read the forecast. A PickLog keeps each round's
// table and pick, so replays() can re-run just the picks under another
// forecast: when every round picks its logged row again, the loop would
// follow the logged path step for step and reach the logged result.
//
// The pick function is part of the log's type, so the live loop (which picks
// through close_round) and the replay call the same function by
// construction.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "base/check.h"
#include "base/types.h"

namespace rispp {

/// The pick of a round in which no row qualifies (the loop ends there).
inline constexpr std::uint32_t kNoPick = std::numeric_limits<std::uint32_t>::max();

namespace detail {
/// forecast_product's failure, out of line so the product itself inlines.
[[noreturn, gnu::cold, gnu::noinline]] inline void forecast_product_overflow(
    SiId si, std::uint64_t expected, std::uint64_t gain) {
  std::ostringstream os;
  os << "forecast product of SI " << si << " overflows 64 bits: " << expected << " * " << gain;
  check_failed("expected[si] * gain < 2^64", __FILE__, __LINE__, os.str());
}
}  // namespace detail

/// expected[si] · gain, the product every forecast pick ranks a row by.
/// Throws, naming the SI, when it does not fit 64 bits, so no pick ranks a
/// wrapped product.
inline std::uint64_t forecast_product(const std::vector<std::uint64_t>& expected, SiId si,
                                      std::uint64_t gain) {
  std::uint64_t product = 0;
  if (__builtin_mul_overflow(expected[si], gain, &product)) [[unlikely]]
    detail::forecast_product_overflow(si, expected[si], gain);
  return product;
}

/// Picks one row of a round's table under the forecast `expected` (per
/// SiId), or returns kNoPick.
template <class Row>
using PickFn = std::uint32_t (*)(std::span<const Row> rows,
                                 const std::vector<std::uint64_t>& expected);

template <class Row, PickFn<Row> Pick>
class PickLog {
 public:
  /// The open round's table: append its rows, then close_round().
  std::vector<Row>& rows() { return rows_; }

  /// Picks among the rows appended since the last close under `expected`,
  /// logs the pick and returns it (an index into those rows, or kNoPick).
  std::uint32_t close_round(const std::vector<std::uint64_t>& expected) {
    const std::size_t begin = ends_.empty() ? 0 : ends_.back();
    const std::uint32_t pick = Pick(std::span<const Row>(rows_).subspan(begin), expected);
    ends_.push_back(static_cast<std::uint32_t>(rows_.size()));
    picks_.push_back(pick);
    return pick;
  }

  /// True when every logged round picks its logged row under `expected`.
  bool replays(const std::vector<std::uint64_t>& expected) const {
    std::size_t begin = 0;
    for (std::size_t r = 0; r < picks_.size(); ++r) {
      const std::span<const Row> round(rows_.data() + begin, ends_[r] - begin);
      if (Pick(round, expected) != picks_[r]) return false;
      begin = ends_[r];
    }
    return true;
  }

  std::size_t rounds() const { return picks_.size(); }

  void clear() {
    rows_.clear();
    ends_.clear();
    picks_.clear();
  }

 private:
  std::vector<Row> rows_;             // every round's table, back to back
  std::vector<std::uint32_t> ends_;   // round r's rows end at ends_[r]
  std::vector<std::uint32_t> picks_;  // round r's pick within its rows
};

}  // namespace rispp
