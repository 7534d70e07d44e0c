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
#include <vector>

namespace rispp {

/// The pick of a round in which no row qualifies (the loop ends there).
inline constexpr std::uint32_t kNoPick = std::numeric_limits<std::uint32_t>::max();

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
