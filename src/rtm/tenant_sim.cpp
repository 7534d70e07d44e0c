#include "rtm/tenant_sim.h"

#include <limits>

#include "base/check.h"
#include "base/clock.h"
#include "base/metrics.h"

namespace rispp {

std::vector<SimResult> run_tenants(FabricArbiter& arbiter, std::span<TenantRun> tenants,
                                   CosimMode mode) {
  const std::size_t n = tenants.size();
  RISPP_CHECK(n > 0);
  std::vector<SimResult> results(n);
  std::vector<Cycles> clocks(n, 0);
  std::vector<std::size_t> next_instance(n, 0);
  std::vector<std::vector<LatencySegment>> segments(n);
  static MetricCounter& entries = metric_counter("sim.hot_spot_entries");
  static MetricCounter& epochs_metric = metric_counter("rtm.cosim.epochs");

  for (std::size_t i = 0; i < n; ++i) {
    RISPP_CHECK(tenants[i].trace != nullptr && tenants[i].rtm != nullptr);
    results[i].hot_spot_cycles.assign(tenants[i].trace->hot_spots.size(), 0);
    if (tenants[i].trace->instances.empty()) {
      // Zero instances: finalize with run_trace's semantics (the clock never
      // moves; atom_loads reports the port's completions) instead of leaving
      // the result default-initialized, then leave the round-robin.
      results[i].total_cycles = 0;
      results[i].atom_loads = tenants[i].rtm->completed_loads();
      arbiter.retire_tenant(tenants[i].tenant);
    }
  }

  auto done = [&](std::size_t i) {
    return next_instance[i] >= tenants[i].trace->instances.size();
  };
  auto step = [&](std::size_t i) {
    TenantRun& t = tenants[i];
    const std::size_t idx = next_instance[i]++;
    const Cycles entered = clocks[i];
    entries.add();
    clocks[i] = replay_instance(*t.trace, idx, *t.rtm, t.stats, entered,
                                results[i].si_executions, segments[i]);
    results[i].hot_spot_cycles[t.trace->instances[idx].hot_spot] += clocks[i] - entered;
  };
  auto finalize = [&](std::size_t i) {
    // Done: leave the round-robin so a standing claim cannot stall the
    // other tenants' starvation accounting.
    results[i].total_cycles = clocks[i];
    results[i].atom_loads = tenants[i].rtm->completed_loads();
    arbiter.retire_tenant(tenants[i].tenant);
  };

  if (mode == CosimMode::kReference) {
    // The oracle: one instance per pick, picked by linear min-clock scan
    // (ties to the lowest index) so fabric events are consumed in global
    // simulated order.
    std::size_t live = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (!done(i)) ++live;
    while (live > 0) {
      std::size_t pick = n;
      Cycles min_clock = std::numeric_limits<Cycles>::max();
      for (std::size_t i = 0; i < n; ++i) {
        if (done(i)) continue;
        if (clocks[i] < min_clock) {
          min_clock = clocks[i];
          pick = i;
        }
      }
      RISPP_CHECK(pick < n);
      step(pick);
      if (done(pick)) {
        finalize(pick);
        --live;
      }
    }
    return results;
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
    if (!done(i)) heap.push({clocks[i], static_cast<std::uint32_t>(i)});

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
    const std::size_t i = heap.pop().id;
    epochs_metric.add();
    const Cycles epoch_start = clocks[i];
    const bool last = heap.empty();
    MinClockHeap::Item bound{};
    if (!last) bound = heap.top();

    step(i);
    while (!done(i) &&
           (last ||
            MinClockHeap::before({clocks[i], static_cast<std::uint32_t>(i)}, bound))) {
      step(i);
    }

    if (trace_enabled()) {
      trace_complete(TraceTrack::kArbiter, epoch_lane, epoch_name,
                     us_from_cycles(epoch_start), us_from_cycles(clocks[i] - epoch_start));
    }

    if (done(i))
      finalize(i);
    else
      heap.push({clocks[i], static_cast<std::uint32_t>(i)});
  }
  return results;
}

}  // namespace rispp
