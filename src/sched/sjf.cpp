#include "sched/sjf.h"

#include "base/metrics.h"
#include "sched/fsfr.h"

namespace rispp {

Schedule SjfScheduler::schedule(const ScheduleRequest& request) const {
  UpgradeState state(request);
  std::uint64_t examined = 0;
  // Phase 1 (like ASF): the smallest hardware molecule for each SI.
  for (const SiRef& selected : by_importance(request))
    examined += sched_detail::commit_smallest_step(state, selected.si);

  // Phase 2: globally smallest additional-atom step; ties by bigger
  // performance improvement (bestLatency - candidate latency).
  for (;;) {
    const auto& live = state.live_candidates();
    if (live.empty()) break;
    examined += live.size();
    const SiRef* best = nullptr;
    unsigned best_atoms = 0;
    Cycles best_gain = 0;
    for (const SiRef& c : live) {
      const unsigned atoms = state.additional_atoms(c);
      const Cycles lat = state.latency(c);
      const Cycles best_lat = state.best_latency(c.si);
      const Cycles gain = best_lat > lat ? best_lat - lat : 0;
      if (best == nullptr || atoms < best_atoms ||
          (atoms == best_atoms && gain > best_gain)) {
        best = &c;
        best_atoms = atoms;
        best_gain = gain;
      }
    }
    state.commit(*best);
  }
  static MetricCounter& invocations = metric_counter("sched.sjf.invocations");
  static MetricCounter& candidates = metric_counter("sched.sjf.candidates_evaluated");
  invocations.add();
  candidates.add(examined);
  // Only by_importance and the payback rule read the forecast here.
  if (request.record != nullptr) request.record->complete = true;
  return state.take_schedule();
}

}  // namespace rispp
