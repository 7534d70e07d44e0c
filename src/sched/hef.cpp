#include "sched/hef.h"

#include "base/check.h"
#include "base/metrics.h"

namespace rispp {

bool benefit_greater(const Benefit& a, const Benefit& b) {
  RISPP_CHECK(a.atoms > 0 && b.atoms > 0);
  // (a.gain * b.atoms) > (b.gain * a.atoms); products fit in 128 bits.
  const __uint128_t lhs = static_cast<__uint128_t>(a.gain_weighted) * b.atoms;
  const __uint128_t rhs = static_cast<__uint128_t>(b.gain_weighted) * a.atoms;
  return lhs > rhs;
}

std::uint32_t pick_highest_benefit(std::span<const CandidateRow> rows,
                                   const std::vector<std::uint64_t>& expected) {
  // bestBenefit starts at 0 and the comparison is strict, so the first
  // maximum wins — matching the pseudocode's iteration order (SiId, then
  // molecule id).
  Benefit best{0, 1};
  std::uint32_t chosen = kNoPick;
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    // Cleaning guarantees gain > 0 and atoms > 0 for live candidates.
    const Benefit b{forecast_product(expected, rows[i].candidate.si, rows[i].gain), rows[i].atoms};
    if (chosen == kNoPick ? b.gain_weighted > 0 : benefit_greater(b, best)) {
      best = b;
      chosen = i;
    }
  }
  return chosen;
}

Schedule HefScheduler::schedule(const ScheduleRequest& request) const {
  // UpgradeState implements Figure 6 lines 1-9 (candidates M' and the
  // bestLatency array) and lines 13-16 (cleaning) inside live_candidates().
  UpgradeState state(request);
  thread_local PickLog<CandidateRow, pick_highest_benefit> unrecorded;
  auto& rounds = request.record != nullptr ? request.record->benefit : unrecorded;
  if (request.record == nullptr) rounds.clear();
  if (counters_) ++counters_->invocations;
  std::uint64_t examined = 0;

  // Lines 12-29: schedule the Molecule candidates.
  for (;;) {
    const auto& live = state.live_candidates();
    if (live.empty()) break;  // line 17
    if (counters_) ++counters_->rounds;
    examined += live.size();

    // Lines 18-24: the round's benefit table, then the highest-benefit pick.
    std::vector<CandidateRow>& rows = rounds.rows();
    const std::size_t begin = rows.size();
    for (const SiRef& o : live) rows.push_back(state.candidate_row(o));
    if (counters_) {
      counters_->benefit_evaluations += live.size();
      counters_->benefit_comparisons += live.size();
    }
    const std::uint32_t pick = rounds.close_round(request.expected_executions);
    if (pick == kNoPick) break;  // all live candidates have zero benefit

    // Lines 25-28.
    if (counters_) {
      ++counters_->commits;
      counters_->atoms_scheduled += rows[begin + pick].atoms;
    }
    state.commit(live[pick]);
  }
  static MetricCounter& invocations = metric_counter("sched.hef.invocations");
  static MetricCounter& candidates = metric_counter("sched.hef.candidates_evaluated");
  invocations.add();
  candidates.add(examined);
  if (request.record != nullptr) request.record->complete = true;
  return state.take_schedule();
}

}  // namespace rispp
