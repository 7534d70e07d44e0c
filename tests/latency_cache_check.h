// Hand-stepped scalar replay that checks the RTM's latency cache.
//
// RunTimeManager::refresh_cache re-derives only the SIs whose molecules need
// an atom type whose ready count moved. kScalar and kBatched replay read the
// same cache, so tests/replay_equivalence_test.cpp cannot see a stale entry;
// comparing every execution's latency against current_latency() (a
// from-scratch fastest_available lookup) can.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>

#include "rtm/run_time_manager.h"
#include "sim/trace.h"

namespace rispp {

/// Replays instance `instance` of `trace` on `rtm` one SI execution at a time
/// (run_trace's kScalar path) starting at `now`, and fails the running test
/// at the first execution whose latency differs from current_latency(si).
/// Returns the clock after the instance.
inline Cycles replay_instance_checking_latency_cache(const WorkloadTrace& trace,
                                                     std::size_t instance,
                                                     RunTimeManager& rtm, Cycles now) {
  const HotSpotInstance& inst = trace.instances[instance];
  const Cycles overhead = trace.hot_spots[inst.hot_spot].per_execution_overhead;
  now += inst.entry_overhead;
  rtm.on_hot_spot_entry(trace, instance, now);
  bool reported = false;
  for (const SiRun& run : inst.runs)
    for (std::uint32_t k = 0; k < run.count; ++k) {
      const Cycles latency = rtm.si_execution_latency(run.si, now);
      const Cycles fresh = rtm.current_latency(run.si);
      if (latency != fresh && !reported) {
        ADD_FAILURE() << "instance " << instance << ", SI " << run.si << " at cycle "
                      << now << ": cached latency " << latency << ", lookup " << fresh;
        reported = true;
      }
      now += latency + overhead;
    }
  rtm.on_hot_spot_exit(now);
  return now;
}

}  // namespace rispp
