// Tests for the comparison systems: OneChip-like demand loading vs the
// Molen-like prefetch model, and their relation to RISPP.
#include <gtest/gtest.h>

#include "base/metrics.h"
#include "baselines/molen.h"
#include "baselines/software_only.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/hef.h"
#include "sim/executor.h"

namespace rispp {
namespace {

WorkloadTrace two_si_trace(const SpecialInstructionSet& set, int executions) {
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, satd}, 8}};
  HotSpotInstance inst{0, {}, 1000};
  for (int i = 0; i < executions; ++i)
    inst.append(i % 8 == 7 ? satd : sad);
  trace.instances.push_back(std::move(inst));
  return trace;
}

TEST(OneChip, DemandLoadingBeatsSoftwareButTrailsPrefetch) {
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = two_si_trace(set, 20'000);

  SoftwareOnlyBackend software(&set);
  const Cycles sw = run_trace(trace, software).total_cycles;

  OneChipConfig oc;
  oc.container_count = 17;
  OneChipBackend onechip(&set, 3, oc);
  h264::seed_default_forecasts(set, onechip);
  const Cycles demand = run_trace(trace, onechip).total_cycles;

  MolenConfig mc;
  mc.container_count = 17;
  MolenBackend molen(&set, 3, mc);
  h264::seed_default_forecasts(set, molen);
  const Cycles prefetch = run_trace(trace, molen).total_cycles;

  EXPECT_LT(demand, sw);
  // Both load the same accelerators; demand loading can only start later.
  EXPECT_GE(demand, prefetch);
}

TEST(OneChip, LoadsNothingForUnexecutedSis) {
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  // Hot spot declares SAD+SATD, but only SAD ever executes.
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, set.find("SATD").value()}, 8}};
  trace.instances = {HotSpotInstance{0, std::vector<SiId>(30'000, sad), 1000}};

  OneChipConfig oc;
  oc.container_count = 17;
  OneChipBackend onechip(&set, 3, oc);
  h264::seed_default_forecasts(set, onechip);
  const SimResult result = run_trace(trace, onechip);
  // Only SAD's selected molecule gets configured (3 atoms at most).
  EXPECT_LE(result.atom_loads, 3u);
}

TEST(OneChip, SingleImplementationNoIntermediates) {
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = two_si_trace(set, 20'000);
  OneChipConfig oc;
  oc.container_count = 17;
  OneChipBackend onechip(&set, 3, oc);
  h264::seed_default_forecasts(set, onechip);
  SimStats stats(set.si_count());
  (void)run_trace(trace, onechip, &stats);
  const SiId sad = set.find("SAD").value();
  // One step: trap -> selected molecule (no gradual upgrading).
  EXPECT_LE(stats.latency_timeline(sad).size(), 2u);
}

TEST(Baselines, FullH264OrderingHolds) {
  // On a short real workload: software > OneChip >= Molen >= RISPP(HEF),
  // with a little tolerance for residency noise between the middle two.
  const auto set = h264sis::build_h264_si_set();
  h264::WorkloadConfig config;
  config.frames = 6;
  const auto workload = h264::generate_h264_workload(set, config);
  constexpr unsigned kAcs = 14;

  SoftwareOnlyBackend software(&set);
  const Cycles sw = run_trace(workload.trace, software).total_cycles;

  OneChipConfig oc;
  oc.container_count = kAcs;
  OneChipBackend onechip(&set, 3, oc);
  h264::seed_default_forecasts(set, onechip);
  const Cycles demand = run_trace(workload.trace, onechip).total_cycles;

  MolenConfig mc;
  mc.container_count = kAcs;
  MolenBackend molen(&set, 3, mc);
  h264::seed_default_forecasts(set, molen);
  const Cycles prefetch = run_trace(workload.trace, molen).total_cycles;

  HefScheduler hef;
  RtmConfig rtm_config;
  rtm_config.container_count = kAcs;
  rtm_config.scheduler = &hef;
  RunTimeManager rtm(&set, 3, rtm_config);
  h264::seed_default_forecasts(set, rtm);
  const Cycles rispp = run_trace(workload.trace, rtm).total_cycles;

  EXPECT_LT(demand, sw);
  EXPECT_LE(static_cast<double>(prefetch), static_cast<double>(demand) * 1.05);
  EXPECT_LT(rispp, prefetch);
}

TEST(Baselines, EveryLoadCountsAsOnePortLoadAndOneArbiterGrant) {
  // Molen, OneChip and the RTM each load through a solo FabricArbiter, so
  // every load is one port.loads_started and one rtm.arbiter.grants,
  // whichever backend issued it.
  const auto set = h264sis::build_h264_si_set();
  h264::WorkloadConfig config;
  config.frames = 2;
  WorkloadTrace trace = h264::generate_h264_workload(set, config).trace;
  // An idle tail (a hot spot without SIs, entered a simulated 10 s later)
  // retires every queued load, so the loads started equal the loads
  // completed.
  trace.hot_spots.push_back(HotSpotInfo{"idle", {}, 0});
  HotSpotInstance idle;
  idle.hot_spot = static_cast<HotSpotId>(trace.hot_spots.size() - 1);
  idle.entry_overhead = 1'000'000'000;
  trace.instances.push_back(idle);
  const std::size_t hot_spots = trace.hot_spots.size();
  const MetricCounter& port_loads = metric_counter("port.loads_started");
  const MetricCounter& grants = metric_counter("rtm.arbiter.grants");
  const auto check = [&](auto& backend) {
    h264::seed_default_forecasts(set, backend);
    const std::uint64_t port_loads_before = port_loads.value();
    const std::uint64_t grants_before = grants.value();
    const SimResult result = run_trace(trace, backend);
    EXPECT_GT(result.atom_loads, 0u) << backend.name();
    EXPECT_EQ(result.atom_loads, backend.completed_loads()) << backend.name();
    EXPECT_EQ(port_loads.value() - port_loads_before, result.atom_loads) << backend.name();
    EXPECT_EQ(grants.value() - grants_before, result.atom_loads) << backend.name();
  };
  constexpr unsigned kAcs = 10;

  MolenConfig mc;
  mc.container_count = kAcs;
  MolenBackend molen(&set, hot_spots, mc);
  check(molen);

  OneChipConfig oc;
  oc.container_count = kAcs;
  OneChipBackend onechip(&set, hot_spots, oc);
  check(onechip);

  HefScheduler hef;
  RtmConfig rtm_config;
  rtm_config.container_count = kAcs;
  rtm_config.scheduler = &hef;
  RunTimeManager rtm(&set, hot_spots, rtm_config);
  check(rtm);
}

}  // namespace
}  // namespace rispp
