#include "sched/fsfr.h"

#include "base/metrics.h"

namespace rispp {
namespace sched_detail {

namespace {
/// Smallest-additional-atoms live candidate of `si`; ties broken by lower
/// latency, then molecule id (determinism). `examined` accumulates how many
/// live candidates the scan looked at.
bool pick_smallest(UpgradeState& state, SiId si, SiRef& out, std::uint64_t& examined) {
  const SiRef* best = nullptr;
  for (const SiRef& c : state.live_candidates()) {
    if (c.si != si) continue;
    ++examined;
    if (best == nullptr) {
      best = &c;
      continue;
    }
    const unsigned ca = state.additional_atoms(c), ba = state.additional_atoms(*best);
    if (ca < ba || (ca == ba && state.latency(c) < state.latency(*best))) best = &c;
  }
  if (best == nullptr) return false;
  out = *best;
  return true;
}
}  // namespace

std::uint64_t upgrade_si_fully(UpgradeState& state, const SiRef& selected) {
  std::uint64_t examined = 0;
  while (!state.reached_selected(selected)) {
    SiRef next;
    if (!pick_smallest(state, selected.si, next, examined)) break;  // nothing live left
    state.commit(next);
  }
  return examined;
}

std::uint64_t commit_smallest_step(UpgradeState& state, SiId si) {
  std::uint64_t examined = 0;
  SiRef next;
  if (pick_smallest(state, si, next, examined)) state.commit(next);
  return examined;
}

}  // namespace sched_detail

Schedule FsfrScheduler::schedule(const ScheduleRequest& request) const {
  UpgradeState state(request);
  std::uint64_t examined = 0;
  for (const SiRef& selected : by_importance(request))
    examined += sched_detail::upgrade_si_fully(state, selected);
  static MetricCounter& invocations = metric_counter("sched.fsfr.invocations");
  static MetricCounter& candidates = metric_counter("sched.fsfr.candidates_evaluated");
  invocations.add();
  candidates.add(examined);
  // Only by_importance and the payback rule read the forecast here.
  if (request.record != nullptr) request.record->complete = true;
  return state.take_schedule();
}

}  // namespace rispp
