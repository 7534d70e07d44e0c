#include "rtm/tenant_sim.h"

#include "base/check.h"
#include "base/clock.h"
#include "base/metrics.h"

namespace rispp {

namespace {

std::vector<SimResult> results_of(const std::vector<TraceReplay>& replays) {
  std::vector<SimResult> results;
  results.reserve(replays.size());
  for (const TraceReplay& replay : replays) results.push_back(replay.result());
  return results;
}

}  // namespace

std::vector<SimResult> run_tenants(FabricArbiter& arbiter, std::span<TenantRun> tenants,
                                   CosimMode mode) {
  const std::size_t n = tenants.size();
  RISPP_CHECK(n > 0);
  static MetricCounter& epochs_metric = metric_counter("rtm.cosim.epochs");

  // A replay that is done leaves the round-robin so a standing claim cannot
  // stall the other tenants' starvation accounting. An empty trace is done
  // from the start: its result keeps the clock at 0 and the loads completed
  // so far, like run_trace's.
  std::vector<TraceReplay> replays;
  replays.reserve(n);
  for (const TenantRun& t : tenants) {
    RISPP_CHECK(t.trace != nullptr && t.rtm != nullptr);
    replays.emplace_back(*t.trace, *t.rtm, t.stats);
    if (replays.back().done()) arbiter.retire_tenant(t.tenant);
  }
  auto step = [&](std::size_t i) {
    replays[i].step();
    if (replays[i].done()) arbiter.retire_tenant(tenants[i].tenant);
  };

  if (mode == CosimMode::kReference) {
    // The oracle: one instance per pick, picked by linear min-clock scan
    // (ties to the lowest index) so fabric events are consumed in global
    // simulated order.
    for (;;) {
      std::size_t pick = n;
      for (std::size_t i = 0; i < n; ++i)
        if (!replays[i].done() && (pick == n || replays[i].clock() < replays[pick].clock()))
          pick = i;
      if (pick == n) return results_of(replays);
      step(pick);
    }
  }

  // Fast-forward (DESIGN §9.1). Every epoch pops the reference's next pick
  // from the heap and replays it in two regimes, both in the reference's
  // order:
  //  1. min-clock batch — keep stepping while the tenant remains the
  //     (clock, id)-minimum;
  //  2. sole survivor — an empty heap means every future reference pick is
  //     this tenant, so it runs to completion unconditionally.
  MinClockHeap heap;
  heap.reset(n);
  for (std::size_t i = 0; i < n; ++i)
    if (!replays[i].done()) heap.push({replays[i].clock(), static_cast<std::uint32_t>(i)});

  // Per-device epoch lane on the arbiter track: one slice per epoch, in the
  // popped tenant's simulated time (the multi-tenant analogue of the solo
  // port timeline's quiet windows).
  TraceLane epoch_lane = 0;
  const char* epoch_name = nullptr;
  if (trace_enabled()) {
    epoch_lane = trace_new_lane();
    trace_name_lane(TraceTrack::kArbiter, epoch_lane, "cosim epochs");
    epoch_name = trace_intern("epoch");
  }

  while (!heap.empty()) {
    const std::uint32_t i = heap.pop().id;
    const TraceReplay& replay = replays[i];
    epochs_metric.add();
    const Cycles epoch_start = replay.clock();
    const bool last = heap.empty();
    MinClockHeap::Item bound{};
    if (!last) bound = heap.top();

    step(i);
    while (!replay.done() && (last || MinClockHeap::before({replay.clock(), i}, bound))) {
      step(i);
    }

    if (trace_enabled()) {
      trace_complete(TraceTrack::kArbiter, epoch_lane, epoch_name,
                     us_from_cycles(epoch_start), us_from_cycles(replay.clock() - epoch_start));
    }

    if (!replay.done()) heap.push({replay.clock(), i});
  }
  return results_of(replays);
}

}  // namespace rispp
