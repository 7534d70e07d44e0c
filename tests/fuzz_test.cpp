// Randomized end-to-end robustness: generate random platforms (atom
// libraries, SI graphs, molecule sets), random workload traces and random
// run-time configurations; assert the system-wide invariants hold for every
// scheduler — no crashes, valid schedules, monotone quality relations, and
// the executor's accounting identities.
#include <gtest/gtest.h>

#include "base/prng.h"
#include "baselines/molen.h"
#include "baselines/software_only.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp {
namespace {

struct RandomPlatform {
  std::unique_ptr<SpecialInstructionSet> set;
  WorkloadTrace trace;
};

RandomPlatform make_random_platform(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  AtomLibrary lib;
  const std::size_t types = 2 + rng.bounded(6);
  for (std::size_t t = 0; t < types; ++t) {
    AtomType type;
    type.name = std::string("T").append(std::to_string(t));
    type.op_latency = 1 + rng.bounded(4);
    type.sw_op_cycles = type.op_latency * (4 + rng.bounded(24));
    type.slices = 150 + static_cast<unsigned>(rng.bounded(500));
    lib.add(type);
  }
  auto set = std::make_unique<SpecialInstructionSet>(std::move(lib));

  const std::size_t si_count = 1 + rng.bounded(5);
  for (std::size_t s = 0; s < si_count; ++s) {
    DataPathGraph g(&set->library());
    std::vector<NodeId> prev;
    const std::size_t layers = 1 + rng.bounded(3);
    for (std::size_t l = 0; l < layers; ++l) {
      const auto type = static_cast<AtomTypeId>(rng.bounded(types));
      const unsigned width = 2 + static_cast<unsigned>(rng.bounded(10));
      prev = g.add_layer(type, width, prev);
    }
    Molecule cap(types);
    const Molecule occ = g.occurrences();
    for (std::size_t t = 0; t < types; ++t)
      if (occ[t] > 0) cap[t] = static_cast<AtomCount>(1 + rng.bounded(std::min<int>(occ[t], 4)));
    set->add_si("SI" + std::to_string(s), std::move(g), cap,
                32 + rng.bounded(128));
  }

  // Random trace: 1-3 hot spots, random SI membership, random instances.
  RandomPlatform platform;
  const std::size_t hot_spots = 1 + rng.bounded(3);
  platform.trace.hot_spots.resize(hot_spots);
  for (std::size_t h = 0; h < hot_spots; ++h) {
    auto& info = platform.trace.hot_spots[h];
    info.name = std::string("H").append(std::to_string(h));
    info.per_execution_overhead = rng.bounded(16);
    for (SiId si = 0; si < set->si_count(); ++si)
      if (rng.bounded(2) == 0 || si == h % set->si_count()) info.sis.push_back(si);
  }
  const std::size_t instances = 2 + rng.bounded(6);
  for (std::size_t i = 0; i < instances; ++i) {
    HotSpotInstance inst;
    inst.hot_spot = static_cast<HotSpotId>(rng.bounded(hot_spots));
    inst.entry_overhead = rng.bounded(3000);
    const auto& sis = platform.trace.hot_spots[inst.hot_spot].sis;
    const std::size_t execs = 50 + rng.bounded(4000);
    for (std::size_t k = 0; k < execs; ++k)
      inst.append(sis[rng.bounded(sis.size())]);
    platform.trace.instances.push_back(std::move(inst));
  }
  platform.set = std::move(set);
  return platform;
}

class RandomPlatformFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPlatformFuzz, AllSchedulersProduceValidSchedulesAndSaneRuns) {
  const RandomPlatform platform = make_random_platform(GetParam());
  const SpecialInstructionSet& set = *platform.set;
  Xoshiro256 rng(GetParam() ^ 0xF00D);

  // Scheduler-level fuzz: random selections and warm starts.
  for (int trial = 0; trial < 5; ++trial) {
    ScheduleRequest req;
    req.set = &set;
    req.expected_executions.assign(set.si_count(), 0);
    for (SiId si = 0; si < set.si_count(); ++si) {
      if (rng.bounded(3) == 0) continue;
      req.selected.push_back(
          SiRef{si, static_cast<MoleculeId>(rng.bounded(set.si(si).molecules.size()))});
      req.expected_executions[si] = rng.bounded(20'000);
    }
    Molecule avail(set.atom_type_count());
    for (std::size_t t = 0; t < avail.dimension(); ++t)
      avail[t] = static_cast<AtomCount>(rng.bounded(4));
    req.available = avail;
    for (const auto& name : scheduler_names()) {
      const Schedule schedule = make_scheduler(name)->schedule(req);
      EXPECT_TRUE(is_valid_schedule(req, schedule)) << name << " seed " << GetParam();
    }
  }

  // System-level fuzz: run the trace end to end on every backend.
  SoftwareOnlyBackend software(&set);
  const SimResult sw = run_trace(platform.trace, software);
  EXPECT_EQ(sw.si_executions, platform.trace.total_si_executions());

  const unsigned acs = 1 + static_cast<unsigned>(rng.bounded(12));
  for (const auto& name : scheduler_names()) {
    auto scheduler = make_scheduler(name);
    RtmConfig config;
    config.container_count = acs;
    config.scheduler = scheduler.get();
    config.enable_prefetch = rng.bounded(2) == 1;
    config.payback_horizon = static_cast<unsigned>(rng.bounded(3) * 16);
    RunTimeManager rtm(&set, platform.trace.hot_spots.size(), config);
    SimStats stats(set.si_count());
    const SimResult result = run_trace(platform.trace, rtm, &stats);
    // Accounting identities.
    EXPECT_EQ(result.si_executions, sw.si_executions) << name;
    EXPECT_EQ(stats.total_executions(), sw.si_executions) << name;
    // Hardware can only help.
    EXPECT_LE(result.total_cycles, sw.total_cycles) << name;
    // Latencies recorded are either trap or a molecule latency.
    for (SiId si = 0; si < set.si_count(); ++si) {
      for (const auto& point : stats.latency_timeline(si)) {
        bool known = point.latency == set.si(si).software_latency;
        for (const auto& m : set.si(si).molecules) known = known || m.latency == point.latency;
        EXPECT_TRUE(known) << name << " SI " << si << " latency " << point.latency;
      }
    }
  }

  // Molen never beats the best RISPP scheduler by more than noise (it has
  // strictly less capability: same selection, no upgrades).
  MolenConfig molen_config;
  molen_config.container_count = acs;
  MolenBackend molen(&set, platform.trace.hot_spots.size(), molen_config);
  const SimResult molen_result = run_trace(platform.trace, molen);
  EXPECT_LE(molen_result.total_cycles, sw.total_cycles);

  Cycles best_rispp = kMaxCycles;
  for (const auto& name : scheduler_names()) {
    auto scheduler = make_scheduler(name);
    RtmConfig config;
    config.container_count = acs;
    config.scheduler = scheduler.get();
    RunTimeManager rtm(&set, platform.trace.hot_spots.size(), config);
    best_rispp = std::min(best_rispp, run_trace(platform.trace, rtm).total_cycles);
  }
  // On tiny random traces the cross-hot-spot residency lottery can favour
  // either side by a few percent (see EXPERIMENTS.md); assert Molen never
  // wins big.
  EXPECT_LE(static_cast<double>(best_rispp),
            static_cast<double>(molen_result.total_cycles) * 1.15);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPlatformFuzz, ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace rispp
