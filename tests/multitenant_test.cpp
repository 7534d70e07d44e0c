// Multi-tenant fabric arbitration (DESIGN §9).
//
// The load-bearing test is SoloEquivalencePerScheduler: run_tenants on a
// 1-tenant arbiter must be *bit-identical* to run_trace on a solo
// RunTimeManager (itself a 1-tenant device) — same SimResult, same SimStats
// buckets and latency timelines — across all four schedulers and both
// replay paths. The co-simulation loop and an externally owned device may
// only matter when a second tenant exists; tests/golden_test.cpp pins the
// solo numbers themselves.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "fleet/session.h"
#include "fleet/tenant_fleet.h"
#include "fleet/trace_repository.h"
#include "isa/h264_si_library.h"
#include "latency_cache_check.h"
#include "rtm/fabric_arbiter.h"
#include "rtm/run_time_manager.h"
#include "rtm/tenant_sim.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp {
namespace {

using fleet::Content;
using fleet::SessionSpec;
using fleet::TraceEntry;
using fleet::TraceRepository;

SessionSpec small_session(Content content, int frames, const std::string& scheduler,
                          unsigned acs) {
  SessionSpec spec;
  spec.content = content;
  spec.frames = frames;
  spec.width = content == Content::kH264 ? 96 : 128;
  spec.height = content == Content::kH264 ? 64 : 96;
  spec.scheduler = scheduler;
  spec.container_count = acs;
  return spec;
}

void seed_from_entry(const TraceEntry& entry, RunTimeManager& rtm) {
  seed_forecasts(rtm, entry.seeds);
}

void expect_stats_equal(const SimStats& solo, const SimStats& tenant,
                        std::size_t si_count) {
  ASSERT_EQ(solo.bucket_count(), tenant.bucket_count());
  for (SiId si = 0; si < si_count; ++si) {
    EXPECT_EQ(solo.executions(si), tenant.executions(si)) << "si " << si;
    for (std::size_t b = 0; b < solo.bucket_count(); ++b)
      ASSERT_EQ(solo.bucket_executions(si, b), tenant.bucket_executions(si, b))
          << "si " << si << " bucket " << b;
    const auto& st = solo.latency_timeline(si);
    const auto& tt = tenant.latency_timeline(si);
    ASSERT_EQ(st.size(), tt.size()) << "si " << si;
    for (std::size_t p = 0; p < st.size(); ++p) {
      EXPECT_EQ(st[p].at, tt[p].at) << "si " << si;
      EXPECT_EQ(st[p].latency, tt[p].latency) << "si " << si;
    }
  }
}

/// Replays `entry` through a 1-tenant arbiter and through the solo path and
/// demands bit-identical results.
void check_one_tenant_equivalence(const TraceEntry& entry, const SessionSpec& spec,
                                  bool collect_stats) {
  SCOPED_TRACE(spec.scheduler + (collect_stats ? " stats" : " span"));
  const auto solo_scheduler = make_scheduler(spec.scheduler);
  RtmConfig solo_config;
  solo_config.container_count = spec.container_count;
  solo_config.scheduler = solo_scheduler.get();
  solo_config.forecast_mode = spec.forecast_mode;
  RunTimeManager solo_rtm(&entry.set, entry.trace.hot_spots.size(), solo_config);
  seed_from_entry(entry, solo_rtm);
  SimStats solo_stats(entry.set.si_count());
  const SimResult solo =
      run_trace(entry.trace, solo_rtm, collect_stats ? &solo_stats : nullptr);

  ArbiterConfig arb_config;
  arb_config.total_containers = spec.container_count;
  FabricArbiter arbiter(arb_config);
  TenantConfig tenant_config;
  tenant_config.quota = spec.container_count;
  const TenantId tenant = arbiter.add_tenant(tenant_config);
  const auto scheduler = make_scheduler(spec.scheduler);
  RtmConfig config;
  config.scheduler = scheduler.get();
  config.forecast_mode = spec.forecast_mode;
  config.arbiter = &arbiter;
  config.tenant = tenant;
  RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
  seed_from_entry(entry, rtm);
  SimStats tenant_stats(entry.set.si_count());
  TenantRun run;
  run.tenant = tenant;
  run.trace = &entry.trace;
  run.rtm = &rtm;
  run.stats = collect_stats ? &tenant_stats : nullptr;
  std::vector<TenantRun> runs{run};
  const std::vector<SimResult> results = run_tenants(arbiter, std::span<TenantRun>(runs));
  ASSERT_EQ(results.size(), 1u);

  EXPECT_EQ(solo.total_cycles, results[0].total_cycles);
  EXPECT_EQ(solo.si_executions, results[0].si_executions);
  EXPECT_EQ(solo.atom_loads, results[0].atom_loads);
  EXPECT_EQ(solo.hot_spot_cycles, results[0].hot_spot_cycles);
  if (collect_stats) expect_stats_equal(solo_stats, tenant_stats, entry.set.si_count());
}

TEST(Multitenant, SoloEquivalencePerScheduler) {
  TraceRepository repo;
  for (const std::string& name : scheduler_names()) {
    const SessionSpec h264 = small_session(Content::kH264, 2, name, 8);
    check_one_tenant_equivalence(repo.get(h264), h264, /*collect_stats=*/true);
    check_one_tenant_equivalence(repo.get(h264), h264, /*collect_stats=*/false);
    const SessionSpec jpeg = small_session(Content::kJpeg, 1, name, 6);
    check_one_tenant_equivalence(repo.get(jpeg), jpeg, /*collect_stats=*/true);
  }
}

TEST(Multitenant, SoloPortSingleChannelTiming) {
  // The paper's single reconfiguration port, as every solo backend drives
  // it: one load at a time, retired no earlier than it finishes.
  const auto set = h264sis::build_h264_si_set();
  const std::vector<Cycles> lru(set.atom_type_count(), 0);
  FabricArbiter solo(2, BitstreamModel{});
  solo.bind(0, &set.library(), set.atom_type_count(), &lru);
  EXPECT_FALSE(solo.inflight(0).has_value());
  EXPECT_FALSE(solo.try_start(0, 0, 0, 1000).has_value());  // granted
  ASSERT_TRUE(solo.inflight(0).has_value());
  const Cycles done = solo.inflight(0)->finishes_at;
  EXPECT_EQ(done, 1000 + solo.load_cycles(0, 0));
  EXPECT_THROW(solo.try_start(0, 1, 1, 1500), std::logic_error);  // single channel
  EXPECT_THROW(solo.retire(0, done - 1), std::logic_error);       // not finished
  const auto load = solo.retire(0, done);
  EXPECT_EQ(load.type, 0);
  EXPECT_FALSE(solo.inflight(0).has_value());
  EXPECT_EQ(solo.completed_loads(0), 1u);
}

/// Builds a bound 2-tenant arbiter over the H.264 atom library for the port
/// unit tests. The RTMs exist only to bind the tenants' container views.
struct TwoTenantFixture {
  std::unique_ptr<SpecialInstructionSet> set;
  std::unique_ptr<AtomScheduler> scheduler;
  FabricArbiter arbiter;
  TenantId a;
  TenantId b;
  std::unique_ptr<RunTimeManager> rtm_a;
  std::unique_ptr<RunTimeManager> rtm_b;

  TwoTenantFixture(unsigned weight_a, unsigned weight_b, ArbiterConfig config)
      : set(std::make_unique<SpecialInstructionSet>(h264sis::build_h264_si_set())),
        scheduler(make_scheduler("HEF")),
        arbiter(config) {
    TenantConfig ta;
    ta.quota = config.total_containers / 2;
    ta.weight = weight_a;
    TenantConfig tb = ta;
    tb.weight = weight_b;
    a = arbiter.add_tenant(ta);
    b = arbiter.add_tenant(tb);
    RtmConfig rc;
    rc.scheduler = scheduler.get();
    rc.arbiter = &arbiter;
    rc.tenant = a;
    rtm_a = std::make_unique<RunTimeManager>(set.get(), 1, rc);
    rc.tenant = b;
    rtm_b = std::make_unique<RunTimeManager>(set.get(), 1, rc);
  }
};

TEST(Multitenant, StarvationBoundCapsConsecutiveDenials) {
  // Tenant A's weight dwarfs B's, and B's round-robin pass starts far ahead
  // (it took one early grant): pure stride scheduling would deny B for ~1000
  // epochs. The starvation bound must hand B the port after at most
  // `starvation_bound` consecutive lost epochs.
  ArbiterConfig config;
  config.total_containers = 8;
  config.starvation_bound = 4;
  TwoTenantFixture fx(/*weight_a=*/1000, /*weight_b=*/1, config);
  FabricArbiter& arbiter = fx.arbiter;
  const Cycles load = arbiter.load_cycles(fx.b, 0);
  ASSERT_GT(load, 0u);

  // B takes one free grant, pushing its pass a full stride (1<<16) ahead.
  Cycles now = 0;
  ASSERT_FALSE(arbiter.try_start(fx.b, 0, 0, now).has_value());
  now += load;
  arbiter.retire(fx.b, now);

  unsigned b_denials = 0;
  bool b_granted = false;
  for (int round = 0; round < 30 && !b_granted; ++round) {
    // A asks first each round; B asks one cycle into A's load.
    const auto a_result = arbiter.try_start(fx.a, 0, 0, now);
    const auto b_result = arbiter.try_start(fx.b, 0, 0, now + 1);
    if (!b_result.has_value()) {
      b_granted = true;
      break;
    }
    ++b_denials;
    EXPECT_GT(*b_result, now) << "retry hint must make progress";
    if (!a_result.has_value()) {
      now += load;
      arbiter.retire(fx.a, now);
    } else {
      now = *a_result;
    }
  }
  EXPECT_TRUE(b_granted);
  EXPECT_LE(b_denials, config.starvation_bound + 1);
  EXPECT_GT(arbiter.port_wait_cycles(), 0u);
  arbiter.check_invariants();
}

TEST(Multitenant, RetiredClaimantsLeaveTheRoundRobin) {
  // B parks a claim (denied while A's load is in flight) and then retires.
  // A must win the next free port outright — a dead claimant may never block
  // the fabric.
  ArbiterConfig config;
  config.total_containers = 8;
  TwoTenantFixture fx(/*weight_a=*/1, /*weight_b=*/1000, config);
  FabricArbiter& arbiter = fx.arbiter;
  const Cycles load = arbiter.load_cycles(fx.a, 0);

  ASSERT_FALSE(arbiter.try_start(fx.a, 0, 0, 0).has_value());
  ASSERT_TRUE(arbiter.try_start(fx.b, 0, 0, 1).has_value());  // denied: port busy
  arbiter.retire(fx.a, load);
  arbiter.retire_tenant(fx.b);
  // With B retired its claim is gone; A (the only live tenant) gets the port
  // even though B's pass would have won.
  EXPECT_FALSE(arbiter.try_start(fx.a, 0, 1, load).has_value());
  arbiter.check_invariants();
}

/// Three equal-weight tenants A, B, C (ids in that order) bound through RTMs
/// like TwoTenantFixture, for the retry-hint contract of a denial.
struct ThreeTenantFixture {
  std::unique_ptr<SpecialInstructionSet> set;
  std::unique_ptr<AtomScheduler> scheduler;
  FabricArbiter arbiter;
  TenantId a;
  TenantId b;
  TenantId c;
  std::vector<std::unique_ptr<RunTimeManager>> rtms;

  static ArbiterConfig device(unsigned starvation_bound) {
    ArbiterConfig config;
    config.total_containers = 9;
    config.starvation_bound = starvation_bound;
    return config;
  }

  explicit ThreeTenantFixture(unsigned starvation_bound)
      : set(std::make_unique<SpecialInstructionSet>(h264sis::build_h264_si_set())),
        scheduler(make_scheduler("HEF")),
        arbiter(device(starvation_bound)) {
    TenantConfig tenant;
    tenant.quota = 3;
    a = arbiter.add_tenant(tenant);
    b = arbiter.add_tenant(tenant);
    c = arbiter.add_tenant(tenant);
    for (const TenantId t : {a, b, c}) {
      RtmConfig rc;
      rc.scheduler = scheduler.get();
      rc.arbiter = &arbiter;
      rc.tenant = t;
      rtms.push_back(std::make_unique<RunTimeManager>(set.get(), 1, rc));
    }
  }

  /// One load duration (every tenant loads atom type 0).
  Cycles load() const { return arbiter.load_cycles(a, 0); }

  /// The shared prefix of the hint tests, L = load(): B is granted at 0 and
  /// retires at L; A is granted at L; B is denied at L+1 (port busy, hint
  /// 2L); A retires and is granted again at 2L (B ties A's pass and loses
  /// on id); C is denied at 2L+1 (hint 3L); A retires at 3L. The port is
  /// free from 3L on, B has lost one grant epoch and C, the lowest pass,
  /// outranks it.
  void run_prefix() {
    const Cycles l = load();
    ASSERT_FALSE(arbiter.try_start(b, 0, 0, 0).has_value());
    arbiter.retire(b, l);
    ASSERT_FALSE(arbiter.try_start(a, 0, 0, l).has_value());
    EXPECT_EQ(arbiter.precheck(b, 0, l + 1), std::optional<Cycles>(2 * l));
    arbiter.retire(a, 2 * l);
    ASSERT_FALSE(arbiter.try_start(a, 0, 1, 2 * l).has_value());
    EXPECT_EQ(arbiter.try_start(c, 0, 0, 2 * l + 1), std::optional<Cycles>(3 * l));
    arbiter.retire(a, 3 * l);
  }
};

TEST(Multitenant, FreePortDenialThatCanStarveRetriesAfterOneLoad) {
  // B's first denial of the grant epoch at the free port makes it starved
  // (bound 2): its very next ask wins, so the hint must not skip ahead.
  ThreeTenantFixture fx(/*starvation_bound=*/2);
  fx.run_prefix();
  const Cycles l = fx.load();
  EXPECT_EQ(fx.arbiter.precheck(fx.b, 0, 3 * l + 5), std::optional<Cycles>(4 * l + 5));
  EXPECT_FALSE(fx.arbiter.precheck(fx.b, 0, 3 * l + 6).has_value());
  EXPECT_FALSE(fx.arbiter.try_start(fx.b, 0, 1, 3 * l + 6).has_value());
  fx.arbiter.check_invariants();
}

TEST(Multitenant, FreePortDenialThatChangesNothingHintsNoEvent) {
  // Same sequence with bound 4: B's first free-port denial counts an epoch
  // (hint one load ahead) but leaves B unstarved. Its repeat ask changes no
  // arbiter state, so the answer stands until another tenant calls.
  ThreeTenantFixture fx(/*starvation_bound=*/4);
  fx.run_prefix();
  const Cycles l = fx.load();
  EXPECT_EQ(fx.arbiter.precheck(fx.b, 0, 3 * l + 5), std::optional<Cycles>(4 * l + 5));
  const std::optional<Cycles> no_event(FabricArbiter::kNoEvent);
  EXPECT_EQ(fx.arbiter.precheck(fx.b, 0, 3 * l + 6), no_event);
  EXPECT_EQ(fx.arbiter.try_start(fx.b, 0, 1, 5 * l), no_event);
  // C, which outranks B, takes the port when it asks.
  EXPECT_FALSE(fx.arbiter.try_start(fx.c, 0, 0, 5 * l).has_value());
  fx.arbiter.check_invariants();
}

TEST(Multitenant, BusyPortDenialHintsThePortRelease) {
  // While the port is busy the hint is its release, whether or not the
  // denial changed the tenant's state.
  ThreeTenantFixture fx(/*starvation_bound=*/4);
  const Cycles l = fx.load();
  ASSERT_FALSE(fx.arbiter.try_start(fx.a, 0, 0, 0).has_value());
  EXPECT_EQ(fx.arbiter.precheck(fx.b, 0, 1), std::optional<Cycles>(l));
  EXPECT_EQ(fx.arbiter.precheck(fx.b, 0, 2), std::optional<Cycles>(l));
  EXPECT_EQ(fx.arbiter.try_start(fx.b, 0, 0, l - 1), std::optional<Cycles>(l));
}

TEST(Multitenant, QuotaFloorsSurviveWeightedRebalance) {
  // A one-sided benefit signal under kBenefitWeighted: every rebalance pulls
  // containers toward the heavy tenant, but the light tenant — while live —
  // never drops below its floor, and the fabric never oversubscribes.
  ArbiterConfig config;
  config.total_containers = 8;
  config.partition = PartitionMode::kBenefitWeighted;
  config.rebalance_period = 1;
  TwoTenantFixture fx(/*weight_a=*/1, /*weight_b=*/1, config);
  FabricArbiter& arbiter = fx.arbiter;
  const unsigned floor_b = arbiter.floor(fx.b);
  ASSERT_GE(floor_b, 1u);
  for (int step = 0; step < 16; ++step) {
    arbiter.on_decision_point(fx.a, 1'000'000, static_cast<Cycles>(step) * 100);
    arbiter.on_decision_point(fx.b, 0, static_cast<Cycles>(step) * 100 + 50);
    arbiter.check_invariants();
    EXPECT_GE(arbiter.quota(fx.b), floor_b) << "step " << step;
    EXPECT_LE(arbiter.quota(fx.a) + arbiter.quota(fx.b), config.total_containers);
  }
  // The signal did move containers: the heavy tenant grew past its static
  // half, the light tenant sits exactly on its floor.
  EXPECT_GT(arbiter.quota(fx.a), config.total_containers / 2);
  EXPECT_EQ(arbiter.quota(fx.b), floor_b);
  EXPECT_EQ(arbiter.quota(fx.a) + arbiter.quota(fx.b), config.total_containers);
}

TEST(Multitenant, WeightedCoSimulationHoldsInvariantsEndToEnd) {
  // A heavy and a light tenant co-simulated under kBenefitWeighted: both
  // finish, and the arbiter's invariants hold before and after (floors only
  // bind *live* tenants — a retired tenant surrenders its containers at the
  // next rebalance, which is what lets the survivor absorb the fabric).
  TraceRepository repo;
  const SessionSpec heavy = small_session(Content::kH264, 3, "HEF", 6);
  const SessionSpec light = small_session(Content::kJpeg, 1, "SJF", 6);
  const TraceEntry& heavy_entry = repo.get(heavy);
  const TraceEntry& light_entry = repo.get(light);

  ArbiterConfig config;
  config.total_containers = 12;
  config.partition = PartitionMode::kBenefitWeighted;
  config.rebalance_period = 2;
  FabricArbiter arbiter(config);
  TenantConfig tenant;
  tenant.quota = 6;
  tenant.floor = 2;
  const TenantId t_heavy = arbiter.add_tenant(tenant);
  const TenantId t_light = arbiter.add_tenant(tenant);

  const auto hef = make_scheduler("HEF");
  const auto sjf = make_scheduler("SJF");
  RtmConfig rc_heavy;
  rc_heavy.scheduler = hef.get();
  rc_heavy.arbiter = &arbiter;
  rc_heavy.tenant = t_heavy;
  RunTimeManager rtm_heavy(&heavy_entry.set, heavy_entry.trace.hot_spots.size(), rc_heavy);
  seed_from_entry(heavy_entry, rtm_heavy);
  RtmConfig rc_light;
  rc_light.scheduler = sjf.get();
  rc_light.arbiter = &arbiter;
  rc_light.tenant = t_light;
  RunTimeManager rtm_light(&light_entry.set, light_entry.trace.hot_spots.size(), rc_light);
  seed_from_entry(light_entry, rtm_light);

  std::vector<TenantRun> runs(2);
  runs[0] = {t_heavy, &heavy_entry.trace, &rtm_heavy, nullptr};
  runs[1] = {t_light, &light_entry.trace, &rtm_light, nullptr};
  arbiter.check_invariants();
  const auto results = run_tenants(arbiter, std::span<TenantRun>(runs));
  arbiter.check_invariants();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].total_cycles, 0u);
  EXPECT_GT(results[1].total_cycles, 0u);
  EXPECT_LE(arbiter.quota(t_heavy) + arbiter.quota(t_light), config.total_containers);
}

TEST(Multitenant, LatencyCacheMatchesFreshLookupUnderWeightedRebalance) {
  // Four tenants on a benefit-weighted device that rebalances at every
  // decision point: quota moves evict ready atoms behind the tenants' backs.
  // Stepped in the reference co-simulation order (min clock, lowest id),
  // one scalar instance at a time, every execution's cached latency must
  // equal a fresh lookup.
  TraceRepository repo;
  const std::vector<SessionSpec> specs = {
      small_session(Content::kH264, 4, "HEF", 4), small_session(Content::kJpeg, 2, "SJF", 4),
      small_session(Content::kH264, 4, "ASF", 4), small_session(Content::kJpeg, 2, "FSFR", 4)};
  ArbiterConfig config;
  config.total_containers = 16;
  config.partition = PartitionMode::kBenefitWeighted;
  config.rebalance_period = 1;
  FabricArbiter arbiter(config);
  std::vector<const TraceEntry*> entries;
  std::vector<std::unique_ptr<AtomScheduler>> schedulers;
  std::vector<std::unique_ptr<RunTimeManager>> rtms;
  for (std::size_t i = 0; i < specs.size(); ++i)
    arbiter.add_tenant(TenantConfig{4, 1, static_cast<unsigned>(i + 1)});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    entries.push_back(&repo.get(specs[i]));
    schedulers.push_back(make_scheduler(specs[i].scheduler));
    RtmConfig rc;
    rc.scheduler = schedulers.back().get();
    rc.arbiter = &arbiter;
    rc.tenant = static_cast<TenantId>(i);
    rtms.push_back(std::make_unique<RunTimeManager>(
        &entries[i]->set, entries[i]->trace.hot_spots.size(), rc));
    seed_from_entry(*entries[i], *rtms[i]);
  }

  std::vector<Cycles> clocks(specs.size(), 0);
  std::vector<std::size_t> next(specs.size(), 0);
  for (;;) {
    std::size_t pick = specs.size();
    for (std::size_t i = 0; i < specs.size(); ++i)
      if (next[i] < entries[i]->trace.instances.size() &&
          (pick == specs.size() || clocks[i] < clocks[pick]))
        pick = i;
    if (pick == specs.size()) break;
    clocks[pick] = replay_instance_checking_latency_cache(entries[pick]->trace, next[pick]++,
                                                          *rtms[pick], clocks[pick]);
    if (next[pick] == entries[pick]->trace.instances.size())
      arbiter.retire_tenant(static_cast<TenantId>(pick));
  }
  arbiter.check_invariants();
  EXPECT_GT(arbiter.evictions(), 0u) << "no rebalance evicted a ready atom";
}

TEST(Multitenant, StaticContentionNeverBeatsTheUncontendedDevice) {
  // Under kStatic partitioning a tenant makes exactly the decisions it would
  // make alone with container_count == quota; the shared port can only delay
  // its upgrades. Simulated cycles are therefore bounded below by the solo
  // run at the same quota.
  TraceRepository repo;
  const SessionSpec spec = small_session(Content::kH264, 2, "HEF", 6);
  const TraceEntry& entry = repo.get(spec);

  const auto solo_scheduler = make_scheduler(spec.scheduler);
  RtmConfig solo_config;
  solo_config.container_count = spec.container_count;
  solo_config.scheduler = solo_scheduler.get();
  RunTimeManager solo_rtm(&entry.set, entry.trace.hot_spots.size(), solo_config);
  seed_from_entry(entry, solo_rtm);
  const Cycles solo_cycles = run_trace(entry.trace, solo_rtm).total_cycles;

  ArbiterConfig config;
  config.total_containers = 12;
  FabricArbiter arbiter(config);
  TenantConfig tenant;
  tenant.quota = 6;
  const TenantId t0 = arbiter.add_tenant(tenant);
  const TenantId t1 = arbiter.add_tenant(tenant);
  const auto s0 = make_scheduler(spec.scheduler);
  const auto s1 = make_scheduler(spec.scheduler);
  RtmConfig rc0;
  rc0.scheduler = s0.get();
  rc0.arbiter = &arbiter;
  rc0.tenant = t0;
  RunTimeManager rtm0(&entry.set, entry.trace.hot_spots.size(), rc0);
  seed_from_entry(entry, rtm0);
  RtmConfig rc1;
  rc1.scheduler = s1.get();
  rc1.arbiter = &arbiter;
  rc1.tenant = t1;
  RunTimeManager rtm1(&entry.set, entry.trace.hot_spots.size(), rc1);
  seed_from_entry(entry, rtm1);

  std::vector<TenantRun> runs(2);
  runs[0] = {t0, &entry.trace, &rtm0, nullptr};
  runs[1] = {t1, &entry.trace, &rtm1, nullptr};
  const auto results = run_tenants(arbiter, std::span<TenantRun>(runs));
  EXPECT_GE(results[0].total_cycles, solo_cycles);
  EXPECT_GE(results[1].total_cycles, solo_cycles);
  EXPECT_EQ(results[0].si_executions, results[1].si_executions);
}

TEST(Multitenant, ContendedFleetIsDeterministicAcrossThreadCounts) {
  // Devices are independent serial co-simulations; fanning them over more
  // threads must not change a single simulated number. (This test carries
  // the TSan shard for the arbiter path.)
  TraceRepository repo;
  std::vector<SessionSpec> specs;
  for (int s = 0; s < 8; ++s)
    specs.push_back(small_session(s % 3 == 0 ? Content::kJpeg : Content::kH264,
                                  1 + s % 2, s % 2 == 0 ? "HEF" : "SJF", 6));
  fleet::ContendedOptions options;
  options.tenants_per_device = 4;
  options.acs_per_tenant = 6;
  options.partition = PartitionMode::kBenefitWeighted;
  options.traces = &repo;

  ThreadPool serial(1);
  options.pool = &serial;
  std::vector<SimResult> serial_results;
  const auto serial_report = fleet::run_contended_fleet(specs, options, &serial_results);

  ThreadPool wide(3);
  options.pool = &wide;
  std::vector<SimResult> wide_results;
  const auto wide_report = fleet::run_contended_fleet(specs, options, &wide_results);

  EXPECT_EQ(serial_report.cycles_checksum, wide_report.cycles_checksum);
  EXPECT_EQ(serial_report.grants, wide_report.grants);
  EXPECT_EQ(serial_report.evictions, wide_report.evictions);
  EXPECT_EQ(serial_report.port_wait_cycles, wide_report.port_wait_cycles);
  ASSERT_EQ(serial_results.size(), wide_results.size());
  for (std::size_t s = 0; s < serial_results.size(); ++s) {
    EXPECT_EQ(serial_results[s].total_cycles, wide_results[s].total_cycles) << s;
    EXPECT_EQ(serial_results[s].si_executions, wide_results[s].si_executions) << s;
    EXPECT_EQ(serial_results[s].atom_loads, wide_results[s].atom_loads) << s;
  }
  EXPECT_EQ(serial_report.devices, 2u);
  EXPECT_GT(serial_report.aggregate_speedup, 1.0);
}

TEST(Multitenant, EmptyTraceTenantsFinalizeAndRetireCleanly) {
  // A tenant whose trace has zero instances must retire immediately with
  // run_trace's semantics — total_cycles 0 and atom_loads populated from its
  // RTM (not left default-initialized) — in both co-simulation modes, while
  // the remaining tenants replay normally and identically across modes.
  TraceRepository repo;
  const SessionSpec spec = small_session(Content::kH264, 2, "HEF", 6);
  const TraceEntry& entry = repo.get(spec);
  WorkloadTrace empty_trace = entry.trace;
  empty_trace.instances.clear();

  for (const CosimMode mode : {CosimMode::kReference, CosimMode::kFastForward}) {
    SCOPED_TRACE(mode == CosimMode::kReference ? "reference" : "fast-forward");
    ArbiterConfig config;
    config.total_containers = 18;
    FabricArbiter arbiter(config);
    TenantConfig tenant;
    tenant.quota = 6;
    std::vector<TenantId> ids(3);
    for (auto& id : ids) id = arbiter.add_tenant(tenant);

    std::vector<std::unique_ptr<AtomScheduler>> schedulers(3);
    std::vector<std::unique_ptr<RunTimeManager>> rtms(3);
    std::vector<TenantRun> runs(3);
    for (std::size_t i = 0; i < 3; ++i) {
      schedulers[i] = make_scheduler(spec.scheduler);
      RtmConfig rc;
      rc.scheduler = schedulers[i].get();
      rc.arbiter = &arbiter;
      rc.tenant = ids[i];
      rtms[i] = std::make_unique<RunTimeManager>(&entry.set, entry.trace.hot_spots.size(), rc);
      seed_from_entry(entry, *rtms[i]);
      runs[i].tenant = ids[i];
      runs[i].rtm = rtms[i].get();
      runs[i].trace = i == 1 ? &empty_trace : &entry.trace;
    }
    const auto results = run_tenants(arbiter, std::span<TenantRun>(runs), mode);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[1].total_cycles, 0u);
    EXPECT_EQ(results[1].si_executions, 0u);
    EXPECT_EQ(results[1].atom_loads, rtms[1]->completed_loads());
    EXPECT_EQ(results[1].hot_spot_cycles,
              std::vector<Cycles>(empty_trace.hot_spots.size(), 0));
    // The empty tenant left the round-robin before the first pick: the two
    // real tenants ran an ordinary 2-claimant co-simulation.
    EXPECT_GT(results[0].total_cycles, 0u);
    EXPECT_GT(results[2].total_cycles, 0u);
    EXPECT_EQ(results[0].si_executions, results[2].si_executions);
    arbiter.check_invariants();
  }
}

TEST(Multitenant, OversubscribedQuotasAreAHardError) {
  ArbiterConfig config;
  config.total_containers = 8;
  FabricArbiter arbiter(config);
  TenantConfig tenant;
  tenant.quota = 6;
  arbiter.add_tenant(tenant);
  EXPECT_THROW(arbiter.add_tenant(tenant), std::logic_error);  // 12 > 8
  TenantConfig bad_floor;
  bad_floor.quota = 2;
  bad_floor.floor = 3;
  EXPECT_THROW(arbiter.add_tenant(bad_floor), std::logic_error);
}

}  // namespace
}  // namespace rispp
