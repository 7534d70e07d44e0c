// Event-horizon fast-forward co-simulation (DESIGN §9.1).
//
// The load-bearing suite is the randomized equivalence matrix: the
// epoch-based fast-forward (min-clock heap, batched replay, horizon overrun,
// optional parallel quiescent sweep) must be *bit-identical* to the
// instance-stepped reference oracle — same SimResult, same SimStats buckets
// and latency timelines — across every scheduler, both partition modes,
// 1/2/4/8 tenants and thread counts. The horizon property test then pins the
// arbiter's next_event_cycle() contract directly: no fabric event observable
// by a tenant may land before its reported horizon.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "base/parallel.h"
#include "fleet/session.h"
#include "fleet/trace_repository.h"
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
  for (HotSpotId hs = 0; hs < entry.seeds.size(); ++hs)
    for (SiId si = 0; si < entry.seeds[hs].size(); ++si)
      if (entry.seeds[hs][si] != 0) rtm.seed_forecast(hs, si, entry.seeds[hs][si]);
}

void expect_stats_equal(const SimStats& ref, const SimStats& ff, std::size_t si_count) {
  ASSERT_EQ(ref.bucket_count(), ff.bucket_count());
  for (SiId si = 0; si < si_count; ++si) {
    ASSERT_EQ(ref.executions(si), ff.executions(si)) << "si " << si;
    for (std::size_t b = 0; b < ref.bucket_count(); ++b)
      ASSERT_EQ(ref.bucket_executions(si, b), ff.bucket_executions(si, b))
          << "si " << si << " bucket " << b;
    const auto& rt = ref.latency_timeline(si);
    const auto& ft = ff.latency_timeline(si);
    ASSERT_EQ(rt.size(), ft.size()) << "si " << si;
    for (std::size_t p = 0; p < rt.size(); ++p) {
      ASSERT_EQ(rt[p].at, ft[p].at) << "si " << si << " point " << p;
      ASSERT_EQ(rt[p].latency, ft[p].latency) << "si " << si << " point " << p;
    }
  }
}

/// One tenant's ingredients: the spec it was configured from (scheduler,
/// forecast mode) plus the repository's shared trace entry.
struct TenantSpec {
  SessionSpec spec;
  const TraceEntry* entry = nullptr;
};

/// One co-simulated device: fresh arbiter + RTMs over shared trace entries,
/// replayed with the given options. Results and (optional) per-tenant stats
/// land in `results` / `stats`.
void run_device(const std::vector<TenantSpec>& entries, PartitionMode partition,
                unsigned acs_per_tenant, const CosimOptions& options,
                std::vector<SimResult>& results, std::vector<SimStats>* stats) {
  const std::size_t k = entries.size();
  ArbiterConfig arb_config;
  arb_config.total_containers = static_cast<unsigned>(k) * acs_per_tenant;
  arb_config.partition = partition;
  FabricArbiter arbiter(arb_config);

  std::vector<std::unique_ptr<AtomScheduler>> schedulers(k);
  std::vector<std::unique_ptr<RunTimeManager>> rtms(k);
  std::vector<TenantRun> runs(k);
  for (std::size_t i = 0; i < k; ++i) {
    TenantConfig tenant;
    tenant.quota = acs_per_tenant;
    tenant.floor = 2;
    runs[i].tenant = arbiter.add_tenant(tenant);
  }
  for (std::size_t i = 0; i < k; ++i) {
    const TraceEntry& entry = *entries[i].entry;
    schedulers[i] = make_scheduler(entries[i].spec.scheduler);
    RtmConfig config;
    config.scheduler = schedulers[i].get();
    config.forecast_mode = entries[i].spec.forecast_mode;
    config.arbiter = &arbiter;
    config.tenant = runs[i].tenant;
    rtms[i] = std::make_unique<RunTimeManager>(&entry.set, entry.trace.hot_spots.size(),
                                               config);
    seed_from_entry(entry, *rtms[i]);
    runs[i].trace = &entry.trace;
    runs[i].rtm = rtms[i].get();
    if (stats != nullptr) runs[i].stats = &(*stats)[i];
  }
  arbiter.check_invariants();
  results = run_tenants(arbiter, std::span<TenantRun>(runs), options);
  arbiter.check_invariants();
}

void expect_results_equal(const std::vector<SimResult>& ref,
                          const std::vector<SimResult>& ff) {
  ASSERT_EQ(ref.size(), ff.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].total_cycles, ff[i].total_cycles) << "tenant " << i;
    ASSERT_EQ(ref[i].si_executions, ff[i].si_executions) << "tenant " << i;
    ASSERT_EQ(ref[i].atom_loads, ff[i].atom_loads) << "tenant " << i;
    ASSERT_EQ(ref[i].hot_spot_cycles, ff[i].hot_spot_cycles) << "tenant " << i;
  }
}

TEST(Cosim, FastForwardMatchesReferenceAcrossSchedulersPartitionsAndTenantCounts) {
  // Randomized mixes (seeded, deterministic): every scheduler × both
  // partition modes × 1/2/4/8 tenants, stats collected so the comparison
  // covers latency timelines, not just totals.
  TraceRepository repo;
  std::mt19937_64 rng(0x5eed);
  for (const std::string& scheduler : scheduler_names()) {
    for (const PartitionMode partition :
         {PartitionMode::kStatic, PartitionMode::kBenefitWeighted}) {
      for (const std::size_t tenants : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(scheduler + (partition == PartitionMode::kStatic ? "/static/" : "/weighted/") +
                     std::to_string(tenants));
        std::vector<TenantSpec> entries;
        std::size_t si_count = 0;
        for (std::size_t i = 0; i < tenants; ++i) {
          const Content content = rng() % 3 == 0 ? Content::kJpeg : Content::kH264;
          const int frames = 1 + static_cast<int>(rng() % 2);
          const SessionSpec spec = small_session(content, frames, scheduler, 6);
          entries.push_back({spec, &repo.get(spec)});
          si_count = std::max(si_count, entries.back().entry->set.si_count());
        }

        std::vector<SimResult> ref_results;
        std::vector<SimStats> ref_stats(tenants, SimStats(si_count));
        CosimOptions ref;
        ref.mode = CosimMode::kReference;
        run_device(entries, partition, 6, ref, ref_results, &ref_stats);

        std::vector<SimResult> ff_results;
        std::vector<SimStats> ff_stats(tenants, SimStats(si_count));
        CosimOptions ff;
        ff.mode = CosimMode::kFastForward;
        run_device(entries, partition, 6, ff, ff_results, &ff_stats);

        expect_results_equal(ref_results, ff_results);
        for (std::size_t i = 0; i < tenants; ++i) {
          SCOPED_TRACE("tenant " + std::to_string(i));
          expect_stats_equal(ref_stats[i], ff_stats[i], entries[i].entry->set.si_count());
        }
      }
    }
  }
}

TEST(Cosim, HorizonOverrunEngagesWithStaticSeeds) {
  // Non-vacuity check for regime 3, which only engages once the device is
  // truly quiescent. That takes three ingredients:
  //  - kStaticSeeds: the monitored EMA never reaches an exact fixed point,
  //    so decide() keys would never repeat and the port-silence probe (an
  //    exact decision-cache lookup) would stay conservative forever;
  //  - a quota covering the content's whole working set (JPEG's five SIs
  //    max out at 20 containers), so once everything is resident every
  //    re-decision schedules zero loads and no claim is ever raised;
  //  - sessions long enough that the serial-port warm-up (tens of loads,
  //    ~10^5 cycles each) is a prefix, leaving a long jointly-quiet tail.
  // In that regime the overrun must actually fast-forward instances — while
  // staying bit-exact vs the reference.
  TraceRepository repo;
  std::vector<TenantSpec> entries;
  std::size_t si_count = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    SessionSpec spec = small_session(Content::kJpeg, 128 + static_cast<int>(i) * 8,
                                     i % 2 == 0 ? "HEF" : "SJF", 20);
    spec.forecast_mode = ForecastMode::kStaticSeeds;
    entries.push_back({spec, &repo.get(spec)});
    si_count = std::max(si_count, entries.back().entry->set.si_count());
  }

  std::vector<SimResult> ref_results;
  std::vector<SimStats> ref_stats(entries.size(), SimStats(si_count));
  CosimOptions ref;
  ref.mode = CosimMode::kReference;
  run_device(entries, PartitionMode::kStatic, 20, ref, ref_results, &ref_stats);

  MetricCounter& ff_metric = metric_counter("rtm.cosim.fast_forward_instances");
  const std::uint64_t before = ff_metric.value();
  std::vector<SimResult> ff_results;
  std::vector<SimStats> ff_stats(entries.size(), SimStats(si_count));
  CosimOptions ff;
  ff.mode = CosimMode::kFastForward;
  run_device(entries, PartitionMode::kStatic, 20, ff, ff_results, &ff_stats);

  EXPECT_GT(ff_metric.value(), before) << "horizon overrun never engaged";
  expect_results_equal(ref_results, ff_results);
  for (std::size_t i = 0; i < entries.size(); ++i)
    expect_stats_equal(ref_stats[i], ff_stats[i], entries[i].entry->set.si_count());
}

TEST(Cosim, ParallelQuiescentSweepIsThreadCountInvariant) {
  // The parallel sweep must be invisible in the results: serial fast-forward,
  // 1-thread pool and 4-thread pool all byte-identical to the reference.
  // kStatic so sweeps actually fire (weighted multi-tenant pins the horizon
  // to `now` and the pool is ignored); kStaticSeeds so the port-silence
  // probe fires at all (see HorizonOverrunEngagesWithStaticSeeds).
  TraceRepository repo;
  std::vector<TenantSpec> entries;
  for (std::size_t i = 0; i < 3; ++i) {
    SessionSpec spec = small_session(Content::kJpeg, 120 + static_cast<int>(i) * 8,
                                     i % 2 == 0 ? "HEF" : "SJF", 20);
    spec.forecast_mode = ForecastMode::kStaticSeeds;
    entries.push_back({spec, &repo.get(spec)});
  }
  std::size_t si_count = 0;
  for (const TenantSpec& e : entries) si_count = std::max(si_count, e.entry->set.si_count());

  std::vector<SimResult> ref_results;
  std::vector<SimStats> ref_stats(entries.size(), SimStats(si_count));
  CosimOptions ref;
  ref.mode = CosimMode::kReference;
  run_device(entries, PartitionMode::kStatic, 20, ref, ref_results, &ref_stats);

  MetricCounter& ff_metric = metric_counter("rtm.cosim.fast_forward_instances");
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    std::vector<SimResult> par_results;
    std::vector<SimStats> par_stats(entries.size(), SimStats(si_count));
    CosimOptions par;
    par.pool = &pool;
    const std::uint64_t before = ff_metric.value();
    run_device(entries, PartitionMode::kStatic, 20, par, par_results, &par_stats);
    EXPECT_GT(ff_metric.value(), before) << "no instance was fast-forwarded";
    expect_results_equal(ref_results, par_results);
    for (std::size_t i = 0; i < entries.size(); ++i)
      expect_stats_equal(ref_stats[i], par_stats[i], entries[i].entry->set.si_count());
  }
}

TEST(Cosim, PoolIsIgnoredUnderWeightedMultiTenant) {
  // rebalance_possible() == true makes the sweep unsound; run_tenants must
  // fall back to the serial fast-forward and still match the reference.
  TraceRepository repo;
  std::vector<TenantSpec> entries;
  for (std::size_t i = 0; i < 4; ++i) {
    const SessionSpec spec = small_session(Content::kH264, 1, "HEF", 6);
    entries.push_back({spec, &repo.get(spec)});
  }

  std::vector<SimResult> ref_results;
  CosimOptions ref;
  ref.mode = CosimMode::kReference;
  run_device(entries, PartitionMode::kBenefitWeighted, 6, ref, ref_results, nullptr);

  ThreadPool pool(4);
  std::vector<SimResult> par_results;
  CosimOptions par;
  par.pool = &pool;
  run_device(entries, PartitionMode::kBenefitWeighted, 6, par, par_results, nullptr);
  expect_results_equal(ref_results, par_results);
}

TEST(Cosim, HorizonIsNeverViolated) {
  // Property test for next_event_cycle()'s contract, driven by a manual
  // reference-order co-simulation over a static 3-tenant device. After each
  // tenant's instance we record its reported horizon plus a snapshot of
  // everything the fabric could do to it behind its back (mutation
  // generation, quota, completed loads, in-flight status). Whenever another
  // tenant then advances global simulated time, every snapshot whose horizon
  // lies beyond the stepped tenant's new clock must be untouched.
  // Long enough traces that the device reaches steady state (queues drained,
  // forecasts converged) — the regime the fast-forward overrun exploits.
  TraceRepository repo;
  std::vector<TenantSpec> entries;
  for (std::size_t i = 0; i < 3; ++i) {
    const SessionSpec spec = small_session(i == 1 ? Content::kJpeg : Content::kH264, 8,
                                           i == 0 ? "HEF" : "SJF", 8);
    entries.push_back({spec, &repo.get(spec)});
  }
  const std::size_t n = entries.size();

  ArbiterConfig arb_config;
  arb_config.total_containers = static_cast<unsigned>(n) * 8;
  FabricArbiter arbiter(arb_config);
  std::vector<std::unique_ptr<AtomScheduler>> schedulers(n);
  std::vector<std::unique_ptr<RunTimeManager>> rtms(n);
  std::vector<TenantId> tenants(n);
  for (std::size_t i = 0; i < n; ++i) {
    TenantConfig tenant;
    tenant.quota = 6;
    tenant.floor = 2;
    tenants[i] = arbiter.add_tenant(tenant);
  }
  for (std::size_t i = 0; i < n; ++i) {
    schedulers[i] = make_scheduler(entries[i].spec.scheduler);
    RtmConfig config;
    config.scheduler = schedulers[i].get();
    config.arbiter = &arbiter;
    config.tenant = tenants[i];
    rtms[i] = std::make_unique<RunTimeManager>(
        &entries[i].entry->set, entries[i].entry->trace.hot_spots.size(), config);
    seed_from_entry(*entries[i].entry, *rtms[i]);
  }

  struct Snapshot {
    Cycles horizon = 0;
    std::uint64_t generation = 0;
    unsigned quota = 0;
    std::uint64_t completed_loads = 0;
    bool inflight = false;
    bool valid = false;
  };
  std::vector<Snapshot> snapshots(n);
  const auto observe = [&](std::size_t i, Cycles clock) {
    Snapshot s;
    s.horizon = arbiter.next_event_cycle(tenants[i], clock);
    s.generation = arbiter.fabric_generation(tenants[i]);
    s.quota = arbiter.quota(tenants[i]);
    s.completed_loads = arbiter.completed_loads(tenants[i]);
    s.inflight = arbiter.inflight(tenants[i]).has_value();
    s.valid = true;
    // Sub-contract: an in-flight load pins the horizon to its completion.
    if (s.inflight) {
      EXPECT_EQ(s.horizon, arbiter.inflight(tenants[i])->finishes_at) << "tenant " << i;
    }
    return s;
  };

  std::vector<Cycles> clocks(n, 0);
  std::vector<std::size_t> next_instance(n, 0);
  std::vector<std::uint64_t> si_executions(n, 0);
  std::vector<std::vector<LatencySegment>> segments(n);
  std::vector<std::vector<SiRun>> runs_scratch(n);
  std::size_t live = n;
  std::uint64_t quiet_horizons = 0;
  while (live > 0) {
    std::size_t pick = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (next_instance[i] >= entries[i].entry->trace.instances.size()) continue;
      if (pick == n || clocks[i] < clocks[pick]) pick = i;
    }
    ASSERT_LT(pick, n);
    clocks[pick] = replay_instance(entries[pick].entry->trace, next_instance[pick]++,
                                  *rtms[pick], nullptr, clocks[pick],
                                  si_executions[pick], segments[pick],
                                  runs_scratch[pick]);
    // The step performed fabric events no later than the tenant's new clock:
    // every other tenant whose horizon lies beyond it must be unaffected.
    for (std::size_t j = 0; j < n; ++j) {
      if (j == pick || !snapshots[j].valid) continue;
      const Snapshot& before = snapshots[j];
      if (before.horizon <= clocks[pick]) continue;
      EXPECT_EQ(before.generation, arbiter.fabric_generation(tenants[j])) << "tenant " << j;
      EXPECT_EQ(before.quota, arbiter.quota(tenants[j])) << "tenant " << j;
      EXPECT_EQ(before.completed_loads, arbiter.completed_loads(tenants[j]))
          << "tenant " << j;
      EXPECT_EQ(before.inflight, arbiter.inflight(tenants[j]).has_value())
          << "tenant " << j;
    }
    if (next_instance[pick] >= entries[pick].entry->trace.instances.size()) {
      arbiter.retire_tenant(tenants[pick]);
      snapshots[pick].valid = false;
      --live;
    } else {
      snapshots[pick] = observe(pick, clocks[pick]);
      if (snapshots[pick].horizon == FabricArbiter::kNoEvent) ++quiet_horizons;
    }
  }
  // The device does reach quiescence (otherwise the fast-forward never
  // overruns and this test proves nothing about the interesting regime).
  EXPECT_GT(quiet_horizons, 0u);
}

TEST(Cosim, WeightedMultiTenantHorizonCollapsesToNow) {
  // With kBenefitWeighted and >1 tenants any decision point may rebalance:
  // the horizon must never promise quiet time, and quiescent_until must
  // agree device-wide.
  TraceRepository repo;
  const TraceEntry& entry = repo.get(small_session(Content::kH264, 1, "HEF", 6));
  ArbiterConfig config;
  config.total_containers = 12;
  config.partition = PartitionMode::kBenefitWeighted;
  FabricArbiter arbiter(config);
  TenantConfig tenant;
  tenant.quota = 6;
  const TenantId a = arbiter.add_tenant(tenant);
  arbiter.add_tenant(tenant);
  const auto scheduler = make_scheduler("HEF");
  RtmConfig rc;
  rc.scheduler = scheduler.get();
  rc.arbiter = &arbiter;
  rc.tenant = a;
  RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), rc);
  EXPECT_TRUE(arbiter.rebalance_possible());
  EXPECT_EQ(arbiter.next_event_cycle(a, 12345), 12345u);
  EXPECT_EQ(arbiter.quiescent_until(777), 777u);

  // A single-tenant static device is quiescent until someone asks.
  ArbiterConfig solo_config;
  solo_config.total_containers = 6;
  FabricArbiter solo(solo_config);
  const TenantId s = solo.add_tenant(tenant);
  const auto solo_scheduler = make_scheduler("HEF");
  RtmConfig src;
  src.scheduler = solo_scheduler.get();
  src.arbiter = &solo;
  src.tenant = s;
  RunTimeManager solo_rtm(&entry.set, entry.trace.hot_spots.size(), src);
  EXPECT_FALSE(solo.rebalance_possible());
  EXPECT_EQ(solo.next_event_cycle(s, 0), FabricArbiter::kNoEvent);
  EXPECT_EQ(solo.quiescent_until(0), FabricArbiter::kNoEvent);
}

}  // namespace
}  // namespace rispp
