#include "sched/asf.h"

#include "base/metrics.h"
#include "sched/fsfr.h"

namespace rispp {

Schedule AsfScheduler::schedule(const ScheduleRequest& request) const {
  UpgradeState state(request);
  std::uint64_t examined = 0;
  // Phase 1: one accelerating molecule for *all* SIs, in plain SI order —
  // this is exactly the behaviour the paper faults at large AC counts: time
  // is spent accelerating SIs "even though some of them are significantly
  // less often executed than others".
  for (const SiRef& selected : request.selected)
    examined += sched_detail::commit_smallest_step(state, selected.si);
  // Phase 2: follow the FSFR path (importance order).
  for (const SiRef& selected : by_importance(request))
    examined += sched_detail::upgrade_si_fully(state, selected);
  static MetricCounter& invocations = metric_counter("sched.asf.invocations");
  static MetricCounter& candidates = metric_counter("sched.asf.candidates_evaluated");
  invocations.add();
  candidates.add(examined);
  // Only by_importance and the payback rule read the forecast here.
  if (request.record != nullptr) request.record->complete = true;
  return state.take_schedule();
}

}  // namespace rispp
