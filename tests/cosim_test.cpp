// Epoch-based fast-forward co-simulation (DESIGN §9.1).
//
// The load-bearing suite is the randomized equivalence matrix: the
// epoch-based fast-forward (min-clock heap, min-clock batches, the sole
// survivor's run to completion) must be *bit-identical* to the
// instance-stepped reference oracle — same SimResult, same SimStats buckets
// and latency timelines — across every scheduler, both partition modes and
// 1/2/4/8 tenants.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

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
/// replayed in the given mode. Results and (optional) per-tenant stats
/// land in `results` / `stats`.
void run_device(const std::vector<TenantSpec>& entries, PartitionMode partition,
                unsigned acs_per_tenant, CosimMode mode,
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
  results = run_tenants(arbiter, std::span<TenantRun>(runs), mode);
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
        run_device(entries, partition, 6, CosimMode::kReference, ref_results, &ref_stats);

        std::vector<SimResult> ff_results;
        std::vector<SimStats> ff_stats(tenants, SimStats(si_count));
        run_device(entries, partition, 6, CosimMode::kFastForward, ff_results, &ff_stats);

        expect_results_equal(ref_results, ff_results);
        for (std::size_t i = 0; i < tenants; ++i) {
          SCOPED_TRACE("tenant " + std::to_string(i));
          expect_stats_equal(ref_stats[i], ff_stats[i], entries[i].entry->set.si_count());
        }
      }
    }
  }
}

}  // namespace
}  // namespace rispp
