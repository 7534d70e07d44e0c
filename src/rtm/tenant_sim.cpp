#include "rtm/tenant_sim.h"

#include <atomic>
#include <limits>

#include "base/check.h"
#include "base/clock.h"
#include "base/metrics.h"
#include "base/parallel.h"

namespace rispp {

std::vector<SimResult> run_tenants(FabricArbiter& arbiter, std::span<TenantRun> tenants,
                                   const CosimOptions& options) {
  const std::size_t n = tenants.size();
  RISPP_CHECK(n > 0);
  std::vector<SimResult> results(n);
  std::vector<Cycles> clocks(n, 0);
  std::vector<std::size_t> next_instance(n, 0);
  std::vector<std::vector<LatencySegment>> segments(n);
  static MetricCounter& entries = metric_counter("sim.hot_spot_entries");
  static MetricCounter& epochs_metric = metric_counter("rtm.cosim.epochs");
  static MetricCounter& ff_metric = metric_counter("rtm.cosim.fast_forward_instances");

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

  if (options.mode == CosimMode::kReference) {
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
  // from the heap and replays it in three regimes, each bit-exact:
  //  1. min-clock batch — keep stepping while the tenant remains the
  //     (clock, id)-minimum: literally the reference order;
  //  2. sole survivor — an empty heap means every future reference pick is
  //     this tenant, so it runs to completion unconditionally;
  //  3. horizon overrun — past the runner-up but with next_event_cycle() ==
  //     kNoEvent, port-silent entries (probed one ahead) only touch
  //     tenant-local state plus commuting shared counters, so replaying them
  //     out of order cannot change any tenant's results.
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

  const bool parallel_ok = options.pool != nullptr && !arbiter.rebalance_possible();
  std::vector<std::size_t> sweep_ids;  // scratch: live tenants of one sweep

  while (!heap.empty()) {
    const MinClockHeap::Item min = heap.pop();
    const std::size_t i = min.id;

    // Parallel quiescent sweep: when even the min-clock tenant is beyond
    // every horizon, all live tenants are mutually independent for as long
    // as their entries probe port-silent — each replays its own prefix on
    // the pool (tenant-local state only; the shared decision-point and
    // metric counters are atomic and commute), then the heap is rebuilt.
    // Thread-count-invariant: no tenant reads another's progress.
    if (parallel_ok && !heap.empty() &&
        arbiter.next_event_cycle(tenants[i].tenant, clocks[i]) == FabricArbiter::kNoEvent &&
        tenants[i].rtm->entry_is_port_silent(*tenants[i].trace, next_instance[i])) {
      sweep_ids.clear();
      sweep_ids.push_back(i);
      while (!heap.empty()) sweep_ids.push_back(heap.pop().id);
      std::atomic<std::uint64_t> swept{0};
      options.pool->parallel_for(sweep_ids.size(), [&](std::size_t k) {
        const std::size_t j = sweep_ids[k];
        std::uint64_t local = 0;
        while (!done(j) &&
               tenants[j].rtm->entry_is_port_silent(*tenants[j].trace, next_instance[j])) {
          step(j);
          ++local;
        }
        swept.fetch_add(local, std::memory_order_relaxed);
      });
      ff_metric.add(swept.load(std::memory_order_relaxed));
      epochs_metric.add();
      // Retirements happen serially in index order, like the reference.
      heap.reset(n);
      for (const std::size_t j : sweep_ids) {
        if (done(j))
          finalize(j);
        else
          heap.push({clocks[j], static_cast<std::uint32_t>(j)});
      }
      continue;  // the min tenant swept at least one instance: progress
    }

    epochs_metric.add();
    const Cycles epoch_start = clocks[i];
    const bool last = heap.empty();
    MinClockHeap::Item bound{};
    if (!last) bound = heap.top();

    // Regimes 1 + 2: the popped tenant was the reference's pick; keep
    // stepping while it would be re-picked (or unconditionally once alone).
    step(i);
    while (!done(i) &&
           (last ||
            MinClockHeap::before({clocks[i], static_cast<std::uint32_t>(i)}, bound))) {
      step(i);
    }

    // Regime 3: horizon overrun.
    if (!done(i) && !last &&
        arbiter.next_event_cycle(tenants[i].tenant, clocks[i]) == FabricArbiter::kNoEvent) {
      std::uint64_t ff = 0;
      while (!done(i) &&
             tenants[i].rtm->entry_is_port_silent(*tenants[i].trace, next_instance[i])) {
        step(i);
        ++ff;
      }
      if (ff > 0) ff_metric.add(ff);
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
