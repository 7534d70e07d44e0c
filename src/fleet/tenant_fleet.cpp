#include "fleet/tenant_fleet.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>

#include "base/check.h"
#include "base/metrics.h"
#include "base/quantile.h"
#include "baselines/software_only.h"
#include "rtm/run_time_manager.h"
#include "rtm/tenant_sim.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp::fleet {

ContendedReport run_contended_fleet(const std::vector<SessionSpec>& specs,
                                    const ContendedOptions& options,
                                    std::vector<SimResult>* results) {
  ContendedReport report;
  report.sessions = specs.size();
  if (specs.empty()) return report;
  RISPP_CHECK(options.tenants_per_device >= 1);
  RISPP_CHECK(options.tenants_per_device <=
              static_cast<int>(FabricArbiter::kMaxTenants));
  RISPP_CHECK(options.acs_per_tenant >= 1);

  TraceRepository& traces =
      options.traces != nullptr ? *options.traces : TraceRepository::global();
  ThreadPool& pool = options.pool != nullptr ? *options.pool : ThreadPool::global();

  // Resolve cohorts and the software-only baseline serially up front: trace
  // generation and the baseline replay happen once per distinct content, and
  // the devices then only read immutable entries.
  std::vector<const TraceEntry*> entry_of(specs.size());
  std::map<const TraceEntry*, Cycles> software_cycles;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    (void)make_scheduler(specs[s].scheduler);  // fail on bad specs up front
    const TraceEntry& entry = traces.get(specs[s]);
    entry_of[s] = &entry;
    if (software_cycles.find(&entry) == software_cycles.end()) {
      SoftwareOnlyBackend software(&entry.set);
      software_cycles[&entry] = run_trace(entry.trace, software).total_cycles;
    }
  }

  // Consecutive sessions (the specs come in arrival order) share a device.
  const std::size_t per_device = static_cast<std::size_t>(options.tenants_per_device);
  const std::size_t devices = (specs.size() + per_device - 1) / per_device;
  report.devices = devices;
  std::vector<SimResult> session_results(specs.size());
  std::vector<std::uint64_t> device_grants(devices, 0);
  std::vector<std::uint64_t> device_evictions(devices, 0);
  std::vector<std::uint64_t> device_port_wait(devices, 0);

  const auto t0 = std::chrono::steady_clock::now();
  pool.parallel_for(devices, [&](std::size_t d) {
    const std::size_t first = d * per_device;
    const std::size_t k = std::min(per_device, specs.size() - first);

    ArbiterConfig arb_config;
    arb_config.total_containers =
        static_cast<unsigned>(k) * static_cast<unsigned>(options.acs_per_tenant);
    arb_config.partition = options.partition;
    FabricArbiter arbiter(arb_config);

    std::vector<std::unique_ptr<AtomScheduler>> schedulers(k);
    std::vector<std::unique_ptr<RunTimeManager>> rtms(k);
    std::vector<TenantRun> runs(k);
    for (std::size_t i = 0; i < k; ++i) {
      TenantConfig tenant;
      tenant.quota = static_cast<unsigned>(options.acs_per_tenant);
      tenant.floor = static_cast<unsigned>(
          std::clamp(options.floor, 1, options.acs_per_tenant));
      runs[i].tenant = arbiter.add_tenant(tenant);
    }
    for (std::size_t i = 0; i < k; ++i) {
      const SessionSpec& spec = specs[first + i];
      const TraceEntry& entry = *entry_of[first + i];
      schedulers[i] = make_scheduler(spec.scheduler);
      RtmConfig config;
      config.scheduler = schedulers[i].get();
      config.forecast_mode = spec.forecast_mode;
      config.session_id = first + i;
      config.arbiter = &arbiter;
      config.tenant = runs[i].tenant;
      rtms[i] = std::make_unique<RunTimeManager>(&entry.set, entry.trace.hot_spots.size(),
                                                 config);
      seed_forecasts(*rtms[i], entry.seeds);
      runs[i].trace = &entry.trace;
      runs[i].rtm = rtms[i].get();
    }
    arbiter.check_invariants();

    std::vector<SimResult> device_results =
        run_tenants(arbiter, std::span<TenantRun>(runs), options.cosim);
    arbiter.check_invariants();
    for (std::size_t i = 0; i < k; ++i)
      session_results[first + i] = std::move(device_results[i]);
    device_grants[d] = arbiter.grants();
    device_evictions[d] = arbiter.evictions();
    device_port_wait[d] = arbiter.port_wait_cycles();
  });
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  report.sessions_per_min =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.sessions) * 60.0 / report.wall_seconds
          : 0.0;

  for (std::size_t d = 0; d < devices; ++d) {
    report.grants += device_grants[d];
    report.evictions += device_evictions[d];
    report.port_wait_cycles += device_port_wait[d];
  }

  std::vector<Cycles> cycles(specs.size());
  Cycles rispp_total = 0;
  Cycles software_total = 0;
  std::uint64_t checksum = fingerprint_mix(0, specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    cycles[s] = session_results[s].total_cycles;
    rispp_total += cycles[s];
    software_total += software_cycles[entry_of[s]];
    checksum = fingerprint_mix(checksum, cycles[s]);
  }
  report.cycles_checksum = checksum;
  // Per-tenant session-latency series: sessions map onto tenant slots in
  // arrival order, so slot = session % tenants_per_device aggregates the
  // same slot across devices.
  for (std::size_t s = 0; s < specs.size(); ++s)
    metric_histogram("fleet.contended.session_cycles",
                     {"tenant", static_cast<std::uint64_t>(s % per_device)})
        .record(cycles[s]);
  // Shared report path (base/quantile.h): p50/p99 stay bit-exact with the
  // old sort-based block.
  const PercentilePair<Cycles> cycle_pcts =
      record_and_percentiles(cycles, metric_histogram("fleet.contended.session_cycles"),
                             /*to_units=*/1.0);
  report.sim_cycles_p50 = cycle_pcts.p50;
  report.sim_cycles_p99 = cycle_pcts.p99;
  report.aggregate_speedup =
      rispp_total > 0
          ? static_cast<double>(software_total) / static_cast<double>(rispp_total)
          : 0.0;

  metric_gauge("fleet.contended.aggregate_speedup").set(report.aggregate_speedup);
  metric_gauge("fleet.contended.sim_cycles_p50")
      .set(static_cast<double>(report.sim_cycles_p50));
  metric_gauge("fleet.contended.sim_cycles_p99")
      .set(static_cast<double>(report.sim_cycles_p99));
  static MetricCounter& sessions_metric = metric_counter("fleet.sessions_completed");
  sessions_metric.add(specs.size());

  if (results != nullptr) *results = std::move(session_results);
  return report;
}

}  // namespace rispp::fleet
