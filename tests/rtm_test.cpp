// Integration tests of the Run-Time Manager: gradual upgrading, trap
// fallback, reconfiguration interleaving, eviction across hot spots, and
// the Molen baseline contrast.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "baselines/molen.h"
#include "baselines/software_only.h"
#include "baselines/static_asip.h"
#include "fleet/trace_repository.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "latency_cache_check.h"
#include "rtm/run_time_manager.h"
#include "rtm/tenant_sim.h"
#include "sched/hef.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp {
namespace {

/// A long single-hot-spot trace over SAD+SATD (an ME instance).
WorkloadTrace me_trace(const SpecialInstructionSet& set, int executions) {
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, satd}, 8}};
  HotSpotInstance inst;
  inst.hot_spot = 0;
  inst.entry_overhead = 1000;
  for (int i = 0; i < executions; ++i)
    inst.append(i % 8 == 7 ? satd : sad);
  trace.instances.push_back(std::move(inst));
  return trace;
}

RtmConfig config_with(const AtomScheduler* scheduler, unsigned acs) {
  RtmConfig config;
  config.container_count = acs;
  config.scheduler = scheduler;
  return config;
}

TEST(RunTimeManager, StartsInSoftwareAndUpgrades) {
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  HefScheduler hef;
  RunTimeManager rtm(&set, 1, config_with(&hef, 12));
  rtm.seed_forecast(0, sad, 10'000);
  rtm.seed_forecast(0, set.find("SATD").value(), 1'500);

  const WorkloadTrace trace = me_trace(set, 4'000);
  SimStats stats(set.si_count());
  const SimResult result = run_trace(trace, rtm, &stats);

  // The latency timeline of SAD must start at the trap latency and descend.
  const auto& tl = stats.latency_timeline(sad);
  ASSERT_GE(tl.size(), 2u);
  EXPECT_EQ(tl.front().latency, set.si(sad).software_latency);
  for (std::size_t i = 1; i < tl.size(); ++i) EXPECT_LT(tl[i].latency, tl[i - 1].latency);
  EXPECT_LT(tl.back().latency, 40u);
  EXPECT_GT(result.atom_loads, 0u);
}

TEST(RunTimeManager, GradualUpgradeBeatsNoUpgradeBaseline) {
  // The Figure 2 claim: with stepwise upgrades the hot spot finishes earlier
  // than with single-implementation (Molen-like) SIs.
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 12'000);

  HefScheduler hef;
  RunTimeManager rtm(&set, 3, config_with(&hef, 14));
  h264::seed_default_forecasts(set, rtm);
  const SimResult upgraded = run_trace(trace, rtm);

  MolenConfig mc;
  mc.container_count = 14;
  MolenBackend molen(&set, 3, mc);
  h264::seed_default_forecasts(set, molen);
  const SimResult fixed = run_trace(trace, molen);

  EXPECT_LT(upgraded.total_cycles, fixed.total_cycles);
}

TEST(RunTimeManager, ZeroContainersBehavesLikeSoftware) {
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 500);
  HefScheduler hef;
  RunTimeManager rtm(&set, 3, config_with(&hef, 0));
  h264::seed_default_forecasts(set, rtm);
  SoftwareOnlyBackend sw(&set);
  EXPECT_EQ(run_trace(trace, rtm).total_cycles, run_trace(trace, sw).total_cycles);
}

TEST(RunTimeManager, MoreContainersNeverSlower) {
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 8'000);
  Cycles prev = kMaxCycles;
  for (unsigned acs : {4u, 8u, 12u, 17u}) {
    HefScheduler hef;
    RunTimeManager rtm(&set, 3, config_with(&hef, acs));
    h264::seed_default_forecasts(set, rtm);
    const Cycles t = run_trace(trace, rtm).total_cycles;
    EXPECT_LE(t, prev) << acs;
    prev = t;
  }
}

TEST(RunTimeManager, WarmStartSkipsReloadingResidentAtoms) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace = me_trace(set, 6'000);
  // Append a second identical ME instance: its schedule should need almost
  // no additional loads.
  trace.instances.push_back(trace.instances.front());
  HefScheduler hef;
  RunTimeManager rtm(&set, 3, config_with(&hef, 17));
  h264::seed_default_forecasts(set, rtm);
  SimStats stats(set.si_count());
  (void)run_trace(trace, rtm, &stats);
  // Second instance runs at full speed immediately: the latency timeline has
  // no regression back to software.
  const SiId sad = set.find("SAD").value();
  const auto& tl = stats.latency_timeline(sad);
  for (std::size_t i = 1; i < tl.size(); ++i)
    EXPECT_LE(tl[i].latency, tl[i - 1].latency);
}

TEST(RunTimeManager, EvictionRepurposesContainersAcrossHotSpots) {
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const SiId dct = set.find("(I)DCT").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad}, 8}, HotSpotInfo{"EE", {dct}, 8}};
  // Alternate hot spots; 4 containers force eviction at each switch.
  for (int rep = 0; rep < 4; ++rep) {
    trace.instances.push_back(HotSpotInstance{0, std::vector<SiId>(3000, sad), 1000});
    trace.instances.push_back(HotSpotInstance{1, std::vector<SiId>(3000, dct), 1000});
  }
  HefScheduler hef;
  RunTimeManager rtm(&set, 2, config_with(&hef, 4));
  rtm.seed_forecast(0, sad, 3000);
  rtm.seed_forecast(1, dct, 3000);
  const SimResult r = run_trace(trace, rtm);
  // Each switch reloads: far more loads than the 4 containers.
  EXPECT_GT(r.atom_loads, 12u);
  // Fewer cycles than software-only nevertheless.
  SoftwareOnlyBackend sw(&set);
  EXPECT_LT(r.total_cycles, run_trace(trace, sw).total_cycles);
}

TEST(RunTimeManager, MonitoringAdaptsForecastsAcrossInstances) {
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  WorkloadTrace trace = me_trace(set, 2'000);
  trace.instances.push_back(trace.instances.front());
  HefScheduler hef;
  RunTimeManager rtm(&set, 1, config_with(&hef, 10));
  rtm.seed_forecast(0, sad, 1);  // wildly wrong seed
  (void)run_trace(trace, rtm);
  // After two instances the forecast reflects the measured ~1750 SADs.
  EXPECT_GT(rtm.monitor().forecast(0)[sad], 1'000u);
}

TEST(RunTimeManager, PrefetchStartsNextHotSpotsAtomsEarly) {
  // Alternating ME/EE style hot spots with spare containers: with prefetch
  // the port keeps working between hot spots, so entries find more atoms
  // resident and the run is never slower.
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const SiId dct = set.find("(I)DCT").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad}, 8}, HotSpotInfo{"EE", {dct}, 8}};
  for (int rep = 0; rep < 6; ++rep) {
    trace.instances.push_back(HotSpotInstance{0, std::vector<SiId>(20'000, sad), 1000});
    trace.instances.push_back(HotSpotInstance{1, std::vector<SiId>(6'000, dct), 1000});
  }
  Cycles cycles[2];
  for (int pf = 0; pf < 2; ++pf) {
    HefScheduler hef;
    RtmConfig config = config_with(&hef, 14);
    config.enable_prefetch = pf == 1;
    RunTimeManager rtm(&set, 2, config);
    rtm.seed_forecast(0, sad, 20'000);
    rtm.seed_forecast(1, dct, 6'000);
    cycles[pf] = run_trace(trace, rtm).total_cycles;
  }
  EXPECT_LE(cycles[1], cycles[0]);
}

TEST(RunTimeManager, PrefetchForecastSourceFollowsForecastMode) {
  // compute_prefetch picks the forecast that predicts the successor hot spot
  // per ForecastMode: the seeds under kStaticSeeds, the monitor under
  // kMonitored — and under kOracle too, deliberately: the oracle only knows
  // the *current* instance's exact counts, so oracle prefetch falls back to
  // the monitored forecast. This pins the once-silent ternary fall-through
  // as documented behavior. Observable: every prefetch decision is one extra
  // decide() call in the decision-cache counters.
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const SiId dct = set.find("(I)DCT").value();
  // The EE hot spot is deliberately id 0: the successor table defaults to 0,
  // so the only non-self successor prediction in this trace is "after ME
  // comes EE", observed at instance 1 and acted on during instance 2. That
  // makes instance 2 the single prefetch opportunity — one decide() call,
  // cleanly attributable.
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"EE", {dct}, 8}, HotSpotInfo{"ME", {sad}, 8}};
  trace.instances.push_back(HotSpotInstance{1, std::vector<SiId>(8'000, sad), 1000});
  trace.instances.push_back(HotSpotInstance{0, std::vector<SiId>(3'000, dct), 1000});
  // Long enough for the port to drain and prefetch for the predicted
  // successor (EE).
  trace.instances.push_back(HotSpotInstance{1, std::vector<SiId>(20'000, sad), 1000});

  const auto decisions_with = [&](ForecastMode mode, bool prefetch) {
    HefScheduler hef;
    RtmConfig config = config_with(&hef, 14);
    config.enable_prefetch = prefetch;
    config.forecast_mode = mode;
    RunTimeManager rtm(&set, 2, config);
    rtm.seed_forecast(1, sad, 8'000);
    // EE is deliberately NOT seeded: a prefetch that consults the seeds
    // sees an all-zero forecast for it and decides nothing, while one
    // consulting the monitor sees the ~3000 DCTs measured at instance 1.
    (void)run_trace(trace, rtm);
    return rtm.decision_cache_hits() + rtm.decision_cache_misses();
  };

  // Without prefetch: exactly one decision per hot-spot entry, every mode.
  for (const ForecastMode mode :
       {ForecastMode::kMonitored, ForecastMode::kStaticSeeds, ForecastMode::kOracle})
    ASSERT_EQ(decisions_with(mode, false), 3u);

  // With prefetch: instance 2 prefetches for EE only when the mode's
  // forecast source knows about it — the monitor does, the seeds do not.
  EXPECT_EQ(decisions_with(ForecastMode::kMonitored, true), 4u);
  EXPECT_EQ(decisions_with(ForecastMode::kOracle, true), 4u)
      << "oracle prefetch must fall back to the monitored forecast";
  EXPECT_EQ(decisions_with(ForecastMode::kStaticSeeds, true), 3u)
      << "static-seeds prefetch must consult the seeds, not the monitor";
}

TEST(DecisionMemo, EvictsLeastRecentlyUsed) {
  // Three hot spots with distinct SI lists are three distinct memo keys;
  // capacity 2 forces eviction on every third distinct entry. `now` stays 0
  // so the port never retires a load and the ready-atom part of the key is
  // fixed; static seeds fix the forecast part.
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  const SiId dct = set.find("(I)DCT").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"A", {sad}, 8}, HotSpotInfo{"B", {satd}, 8},
                     HotSpotInfo{"C", {dct}, 8}};
  trace.instances = {HotSpotInstance{0, {}, 0}, HotSpotInstance{1, {}, 0},
                     HotSpotInstance{2, {}, 0}};

  HefScheduler hef;
  DecisionMemo memo(/*capacity=*/2, /*shards=*/1, DecisionMemo::Scope::kPrivate);
  RtmConfig config = config_with(&hef, 14);
  config.forecast_mode = ForecastMode::kStaticSeeds;
  config.decision_memo = &memo;
  RunTimeManager rtm(&set, 3, config);
  rtm.seed_forecast(0, sad, 10'000);
  rtm.seed_forecast(1, satd, 10'000);
  rtm.seed_forecast(2, dct, 10'000);

  const auto enter = [&](std::size_t instance) {
    rtm.on_hot_spot_entry(trace, instance, 0);
    rtm.on_hot_spot_exit(0);
  };

  enter(0);  // A: miss, memo [A]
  enter(1);  // B: miss, memo [B, A]
  EXPECT_EQ(memo.misses(), 2u);
  EXPECT_EQ(memo.evictions(), 0u);

  enter(0);  // A: hit — and A becomes most recent, memo [A, B]
  EXPECT_EQ(memo.hits(), 1u);

  enter(2);  // C: miss past capacity — evicts B (the LRU), not A
  EXPECT_EQ(memo.evictions(), 1u);
  EXPECT_EQ(memo.size(), 2u);

  enter(0);  // A: still a hit — proves the recency splice protected it
  EXPECT_EQ(memo.hits(), 2u);

  enter(1);  // B: miss again — proves B was the one evicted; evicts C
  EXPECT_EQ(memo.misses(), 4u);
  EXPECT_EQ(memo.evictions(), 2u);

  enter(2);  // C: miss (evicted above); evicts A
  EXPECT_EQ(memo.misses(), 5u);
  EXPECT_EQ(memo.evictions(), 3u);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.hits(), 2u);
  // The RTM counts the same decisions the memo served.
  EXPECT_EQ(rtm.decision_cache_hits(), memo.hits());
  EXPECT_EQ(rtm.decision_cache_misses(), memo.misses());
}

/// The 2-frame 96x64 H.264 encode: short, with every hot spot entered.
fleet::SessionSpec small_h264_session() {
  fleet::SessionSpec spec;
  spec.frames = 2;
  spec.width = 96;
  spec.height = 64;
  return spec;
}

/// Replays `entry` with `config` memoizing through `memo`. `device_tenants`
/// picks the fabric: 0 = the RTM's own device, 1 = a 1-tenant arbiter, 2 =
/// tenant 1 of a device whose tenant 0 stays idle.
SimResult replay_with_memo(const fleet::TraceEntry& entry, RtmConfig config,
                           DecisionMemo* memo, unsigned device_tenants) {
  config.decision_memo = memo;
  std::optional<FabricArbiter> device;
  if (device_tenants > 0) {
    ArbiterConfig arbiter_config;
    arbiter_config.total_containers = config.container_count;
    arbiter_config.bitstream = config.bitstream;
    device.emplace(arbiter_config);
    const unsigned neighbour = device_tenants == 2 ? 2 : 0;
    if (neighbour > 0) device->add_tenant(TenantConfig{neighbour, 1, 1});
    config.tenant = device->add_tenant(TenantConfig{config.container_count - neighbour, 1, 1});
    config.arbiter = &*device;
  }
  RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
  for (HotSpotId hs = 0; hs < entry.seeds.size(); ++hs)
    for (SiId si = 0; si < entry.seeds[hs].size(); ++si)
      if (entry.seeds[hs][si] != 0) rtm.seed_forecast(hs, si, entry.seeds[hs][si]);
  if (!device) return run_trace(entry.trace, rtm);
  TenantRun run{config.tenant, &entry.trace, &rtm, nullptr};
  return run_tenants(*device, std::span<TenantRun>(&run, 1)).front();
}

TEST(RunTimeManager, TinyDecisionCacheStaysBitExact) {
  // Eviction-heavy memo vs the RTM's own memo vs no memo: the full simulated
  // run must be identical — a miss recomputes, never approximates.
  fleet::TraceRepository repo;
  const fleet::TraceEntry& entry = repo.get(small_h264_session());
  const auto total = [&](bool enable, DecisionMemo* memo) {
    HefScheduler hef;
    RtmConfig config = config_with(&hef, 14);
    config.enable_decision_cache = enable;
    return replay_with_memo(entry, config, memo, 0).total_cycles;
  };
  const Cycles reference = total(false, nullptr);
  DecisionMemo tiny(/*capacity=*/1, /*shards=*/1, DecisionMemo::Scope::kPrivate);
  EXPECT_EQ(total(true, &tiny), reference);
  EXPECT_GT(tiny.evictions(), 0u);
  EXPECT_EQ(total(true, nullptr), reference);
}

TEST(RunTimeManager, LatencyCacheMatchesFreshLookupAfterEveryExecution) {
  // Eight containers across the encoder's hot spots: loads keep evicting
  // ready atoms the previous hot spot used, so the incremental refresh sees
  // upgrades and downgrades. The hand-stepped replay must also land where
  // run_trace's scalar path does.
  fleet::TraceRepository repo;
  const fleet::TraceEntry& entry = repo.get(small_h264_session());
  for (const char* name : {"FSFR", "ASF", "SJF", "HEF"})
    for (const bool prefetch : {false, true}) {
      SCOPED_TRACE(std::string(name) + (prefetch ? " prefetch" : ""));
      const auto scheduler = make_scheduler(name);
      RtmConfig config = config_with(scheduler.get(), 8);
      config.enable_prefetch = prefetch;
      const auto replay = [&](const std::function<Cycles(RunTimeManager&)>& run) {
        RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
        for (HotSpotId hs = 0; hs < entry.seeds.size(); ++hs)
          for (SiId si = 0; si < entry.seeds[hs].size(); ++si)
            if (entry.seeds[hs][si] != 0) rtm.seed_forecast(hs, si, entry.seeds[hs][si]);
        return run(rtm);
      };
      const Cycles stepped = replay([&](RunTimeManager& rtm) {
        Cycles now = 0;
        for (std::size_t i = 0; i < entry.trace.instances.size(); ++i)
          now = replay_instance_checking_latency_cache(entry.trace, i, rtm, now);
        return now;
      });
      const Cycles scalar = replay([&](RunTimeManager& rtm) {
        return run_trace(entry.trace, rtm, nullptr, ReplayMode::kScalar).total_cycles;
      });
      EXPECT_EQ(stepped, scalar);
    }
}

TEST(DecisionMemo, EveryConfigFieldKeepsSharedMemoBitExact) {
  // Memo-domain completeness: a memo shared by differently configured RTMs
  // must never serve one of them a decision it would not compute itself. For
  // every RtmConfig field, a replay with the field perturbed through a memo
  // the unperturbed configuration already warmed must equal the same replay
  // through the RTM's own memo. A knob that changes decisions without
  // entering the memo domain (SI set, scheduler, payback, rtm_domain_digest)
  // fails.
  fleet::TraceRepository repo;
  const fleet::TraceEntry& entry = repo.get(small_h264_session());
  const auto hef = make_scheduler("HEF");
  const auto asf = make_scheduler("ASF");
  RtmConfig base = config_with(hef.get(), 6);
  // A 4x slower port makes the payback rule bite on this short trace, so
  // the payback perturbations below change decisions.
  base.bitstream.bytes_per_second /= 4;
  // Fails to compile when RtmConfig gains or loses a field: give the new
  // field a perturbation below.
  [[maybe_unused]] const auto& [container_count, bitstream, scheduler, forecast_mode,
                                payback_horizon, enable_prefetch, enable_decision_cache,
                                decision_memo, session_id, arbiter, tenant] = base;

  struct Perturbation {
    const char* field;
    std::function<void(RtmConfig&)> apply;
    unsigned device_tenants = 0;
  };
  const std::vector<Perturbation> perturbations = {
      {"container_count", [](RtmConfig& c) { c.container_count = 10; }},
      {"bitstream", [](RtmConfig& c) { c.bitstream.bytes_per_second *= 4; }},
      {"scheduler", [&](RtmConfig& c) { c.scheduler = asf.get(); }},
      {"forecast_mode", [](RtmConfig& c) { c.forecast_mode = ForecastMode::kStaticSeeds; }},
      {"forecast_mode", [](RtmConfig& c) { c.forecast_mode = ForecastMode::kOracle; }},
      {"payback_horizon", [](RtmConfig& c) { c.payback_horizon = 1; }},
      {"payback_horizon", [](RtmConfig& c) { c.payback_horizon = 0; }},
      {"enable_prefetch", [](RtmConfig& c) { c.enable_prefetch = true; }},
      {"enable_decision_cache", [](RtmConfig& c) { c.enable_decision_cache = false; }},
      // decision_memo is the variable under test: every replay names one.
      {"session_id", [](RtmConfig& c) { c.session_id = 7; }},
      {"arbiter", [](RtmConfig&) {}, 1},
      {"tenant", [](RtmConfig&) {}, 2},
  };

  DecisionMemo shared(1 << 12, 2);
  ASSERT_EQ(replay_with_memo(entry, base, &shared, 0).total_cycles,
            replay_with_memo(entry, base, nullptr, 0).total_cycles);
  for (const Perturbation& p : perturbations) {
    RtmConfig perturbed = base;
    p.apply(perturbed);
    const SimResult alone = replay_with_memo(entry, perturbed, nullptr, p.device_tenants);
    const SimResult warmed = replay_with_memo(entry, perturbed, &shared, p.device_tenants);
    EXPECT_EQ(warmed.total_cycles, alone.total_cycles) << p.field;
    EXPECT_EQ(warmed.atom_loads, alone.atom_loads) << p.field;
    EXPECT_EQ(warmed.hot_spot_cycles, alone.hot_spot_cycles) << p.field;
  }
  EXPECT_GT(shared.hits(), 0u);
}

TEST(Molen, NoIntermediateAcceleration) {
  // Until the full selected molecule is loaded, Molen runs in software even
  // though a subset of its atoms is configured.
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 10'000);
  MolenConfig mc;
  mc.container_count = 17;
  MolenBackend molen(&set, 3, mc);
  h264::seed_default_forecasts(set, molen);
  SimStats stats(set.si_count());
  (void)run_trace(trace, molen, &stats);
  const SiId sad = set.find("SAD").value();
  const auto& tl = stats.latency_timeline(sad);
  // Exactly one downward step: software -> selected molecule.
  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl[0].latency, set.si(sad).software_latency);
  const SiId satd = set.find("SATD").value();
  const auto& tl2 = stats.latency_timeline(satd);
  ASSERT_LE(tl2.size(), 2u);  // same: one step at most
}

TEST(StaticAsip, IsTheLowerBound) {
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 5'000);
  StaticAsipBackend asip(&set);
  const Cycles bound = run_trace(trace, asip).total_cycles;
  for (const auto& name : scheduler_names()) {
    auto sched = make_scheduler(name);
    RunTimeManager rtm(&set, 3, config_with(sched.get(), 24));
    h264::seed_default_forecasts(set, rtm);
    EXPECT_GE(run_trace(trace, rtm).total_cycles, bound) << name;
  }
  // And the paper's Figure 1 overhead remark: dedicated hardware for all SIs
  // far exceeds any AC budget evaluated.
  EXPECT_GT(asip.dedicated_atoms(), 24u * 2);
}

TEST(RunTimeManager, ReseedingForecastIsAHardError) {
  // seed_forecast installs a design-time profile: one value per (hot spot,
  // SI) pair. A second seed for the same pair used to silently overwrite the
  // first — a misconfiguration that produced wrong numbers downstream.
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  HefScheduler hef;
  RunTimeManager rtm(&set, 1, config_with(&hef, 8));
  rtm.seed_forecast(0, sad, 10'000);
  EXPECT_THROW(rtm.seed_forecast(0, sad, 20'000), std::logic_error);
  // A different pair is still fine.
  EXPECT_NO_THROW(rtm.seed_forecast(0, set.find("SATD").value(), 1'500));
}

TEST(RunTimeManager, SeedingAfterFirstHotSpotIsAHardError) {
  // Once the workload runs, the monitor owns the forecast; a late seed would
  // silently lose to the next adapted update instead of taking effect.
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  HefScheduler hef;
  RunTimeManager rtm(&set, 1, config_with(&hef, 8));
  rtm.seed_forecast(0, sad, 10'000);
  run_trace(me_trace(set, 100), rtm);
  EXPECT_THROW(rtm.seed_forecast(0, set.find("SATD").value(), 1'500), std::logic_error);
}

}  // namespace
}  // namespace rispp
