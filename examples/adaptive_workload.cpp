// Adaptivity example: the run-time system reacting to a workload whose SI
// mix changes mid-run — the situation the paper argues cannot be served by
// design-time-fixed instruction sets ("non-predictable application
// behavior").
//
// A synthetic application alternates between two phases inside the same hot
// spot: a SAD-heavy phase (regular motion) and a SATD-heavy phase (complex
// motion). The online monitor shifts the forecast, selection re-balances the
// Atom Containers, and the HEF scheduler reorders the upgrades.
#include <cstdio>

#include "base/table.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/hef.h"
#include "sim/executor.h"

using namespace rispp;

namespace {

WorkloadTrace phased_trace(const SpecialInstructionSet& set, int instances_per_phase) {
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, satd}, 8}};
  for (int phase = 0; phase < 4; ++phase) {
    const bool satd_heavy = phase % 2 == 1;
    for (int i = 0; i < instances_per_phase; ++i) {
      HotSpotInstance inst;
      inst.hot_spot = 0;
      inst.entry_overhead = 1'000;
      for (int k = 0; k < 6'000; ++k) {
        const bool satd_exec = satd_heavy ? (k % 10 != 0) : (k % 20 == 0);
        inst.append(satd_exec ? satd : sad);
      }
      trace.instances.push_back(std::move(inst));
    }
  }
  return trace;
}

}  // namespace

int main() {
  const SpecialInstructionSet set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  const WorkloadTrace trace = phased_trace(set, 4);

  auto run = [&](ForecastMode mode, const char* label) {
    HefScheduler hef;
    RtmConfig config;
    config.container_count = 9;
    config.scheduler = &hef;
    config.forecast_mode = mode;
    RunTimeManager rtm(&set, 1, config);
    // Seed with the phase-1 (SAD-heavy) profile — the static system never
    // learns that phase 2 is SATD-heavy.
    rtm.seed_forecast(0, sad, 5'500);
    rtm.seed_forecast(0, satd, 500);
    const SimResult result = run_trace(trace, rtm);
    std::printf("  %-22s %8.2f Mcycles (%llu atom loads)\n", label,
                result.total_cycles / 1e6,
                static_cast<unsigned long long>(result.atom_loads));
    return result.total_cycles;
  };

  std::printf("Workload: 16 ME instances alternating SAD-heavy and SATD-heavy phases\n\n");
  const Cycles adaptive = run(ForecastMode::kMonitored, "online monitoring");
  const Cycles fixed = run(ForecastMode::kStaticSeeds, "static (design-time)");
  const Cycles oracle = run(ForecastMode::kOracle, "oracle forecast");

  std::printf("\nadaptation gain over static forecasts: %.2fx (oracle bound: %.2fx)\n",
              static_cast<double>(fixed) / adaptive,
              static_cast<double>(fixed) / oracle);
  std::printf("This is Run-Time Manager task II (Section 3.1): comparing monitored\n"
              "executions against expectations and updating them per hot spot.\n");
  return 0;
}
