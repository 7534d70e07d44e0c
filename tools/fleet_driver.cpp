// rispp_fleet — the fleet-scale simulation service driver.
//
//   rispp_fleet [--sessions N] [--mix h264=4,jpeg=1] [--frames LO..HI]
//               [--schedulers HEF,SJF,...] [--seed N] [--solo]
//               [--acs LO..HI] [--arrival all|uniform:<per_min>]
//               [--block N] [--stats]
//               [--tenants N] [--acs-per-tenant N] [--floor N]
//               [--partition static|weighted] [--cosim fast|reference]
//
// Expands the session-mix spec deterministically (fleet/spec.h), replays
// every session through the batched fleet::SessionBatch core, and reports
// throughput (sessions/min), per-session completion-latency percentiles and
// shared-cache hit rates. RISPP_SESSIONS / RISPP_TENANTS override the
// defaults (flags beat the environment); garbage in either exits 2 naming
// the offender. RISPP_TRACE emits per-block fleet spans (track "fleet");
// RISPP_METRICS / RISPP_BENCH_JSON_DIR feed the BENCH_SUITE.json pipeline.
//
// --tenants N (N > 1) switches to the contended fleet: N consecutive
// sessions share one device's fabric through a FabricArbiter
// (--acs-per-tenant, --floor, --partition static|weighted), and the report
// shifts to simulated contention — aggregate speedup over software-only and
// per-tenant simulated-cycle percentiles (fleet/tenant_fleet.h). --cosim
// picks the per-device co-simulation: the epoch-based fast-forward
// (default, DESIGN §9.1) or the instance-stepped reference oracle —
// bit-identical results either way. The classic fleet's --acs, --arrival,
// --block and --stats do not apply there: contended mode exits 2 naming
// the first one given.
//
// --solo cross-checks every session's result against an oracle and exits 1
// when one differs — the equivalence contract, runnable from the command
// line. The classic fleet replays each session alone through the
// single-session sim::run_trace path; the contended fleet runs again under
// the reference co-simulation.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "base/env.h"
#include "base/table.h"
#include "bench/common.h"
#include "fleet/session_batch.h"
#include "fleet/spec.h"
#include "fleet/tenant_fleet.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace {

using namespace rispp;

int usage() {
  std::fprintf(stderr,
               "usage: rispp_fleet [--sessions N] [--mix h264=4,jpeg=1]\n"
               "                   [--frames LO..HI] [--schedulers HEF,SJF,...]\n"
               "                   [--seed N] [--solo]\n"
               "  classic fleet:   [--acs LO..HI] [--arrival all|uniform:<per_min>]\n"
               "                   [--block N] [--stats]\n"
               "  contended fleet: --tenants N (N > 1) [--acs-per-tenant N] [--floor N]\n"
               "                   [--partition static|weighted]\n"
               "                   [--cosim fast|reference]\n");
  return 2;
}

/// True when `got` matches `want` in every field the cross-checks compare;
/// otherwise prints both to stderr, naming session `s` and the oracle.
bool same_result(std::size_t s, const char* oracle, const SimResult& got,
                 const SimResult& want) {
  if (got.total_cycles == want.total_cycles && got.si_executions == want.si_executions &&
      got.atom_loads == want.atom_loads && got.hot_spot_cycles == want.hot_spot_cycles)
    return true;
  std::fprintf(stderr,
               "session %zu diverged from %s: cycles %llu vs %llu, "
               "executions %llu vs %llu, loads %llu vs %llu\n",
               s, oracle, static_cast<unsigned long long>(got.total_cycles),
               static_cast<unsigned long long>(want.total_cycles),
               static_cast<unsigned long long>(got.si_executions),
               static_cast<unsigned long long>(want.si_executions),
               static_cast<unsigned long long>(got.atom_loads),
               static_cast<unsigned long long>(want.atom_loads));
  return false;
}

/// Replays session `s` alone through the single-session path and compares
/// against the batch, proving the fleet restructuring changed nothing.
bool check_solo(const fleet::SessionBatch& batch, std::size_t s) {
  const fleet::SessionSpec& spec = batch.spec(s);
  const fleet::TraceEntry& entry = fleet::TraceRepository::global().get(spec);
  const auto scheduler = make_scheduler(spec.scheduler);
  RtmConfig config;
  config.container_count = spec.container_count;
  config.scheduler = scheduler.get();
  config.forecast_mode = spec.forecast_mode;
  RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
  for (HotSpotId hs = 0; hs < entry.seeds.size(); ++hs)
    for (SiId si = 0; si < entry.seeds[hs].size(); ++si)
      if (entry.seeds[hs][si] != 0) rtm.seed_forecast(hs, si, entry.seeds[hs][si]);
  return same_result(s, "solo replay", batch.result(s), run_trace(entry.trace, rtm));
}

}  // namespace

int main(int argc, char** argv) {
  fleet::FleetSpec spec;
  fleet::apply_fleet_env(spec);
  fleet::FleetOptions options;
  bool solo_check = false;
  CosimMode cosim_mode = CosimMode::kFastForward;
  // The first flag given that only the classic fleet reads.
  std::string classic_only;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const char* value = i + 1 < args.size() ? args[i + 1].c_str() : nullptr;
    if (classic_only.empty() &&
        (arg == "--acs" || arg == "--arrival" || arg == "--block" || arg == "--stats"))
      classic_only = arg;
    if (arg == "--stats") {
      options.collect_stats = true;
    } else if (arg == "--solo") {
      solo_check = true;
    } else if (value == nullptr) {
      return usage();
    } else if (arg == "--sessions") {
      spec.sessions = static_cast<int>(parse_int_or_die("--sessions", value, 1, 10'000'000));
      ++i;
    } else if (arg == "--mix") {
      fleet::parse_mix_or_die("--mix", value, spec);
      ++i;
    } else if (arg == "--frames") {
      fleet::parse_range_or_die("--frames", value, 1, 10'000, spec.frames_min,
                                spec.frames_max);
      ++i;
    } else if (arg == "--schedulers") {
      spec.schedulers = fleet::parse_schedulers_or_die("--schedulers", value);
      ++i;
    } else if (arg == "--acs") {
      fleet::parse_range_or_die("--acs", value, 1, 1'000, spec.acs_min, spec.acs_max);
      ++i;
    } else if (arg == "--arrival") {
      spec.arrival_per_min = fleet::parse_arrival_or_die("--arrival", value);
      ++i;
    } else if (arg == "--block") {
      options.block_size =
          static_cast<unsigned>(parse_int_or_die("--block", value, 1, 1'000'000));
      ++i;
    } else if (arg == "--seed") {
      spec.seed = static_cast<std::uint64_t>(
          parse_int_or_die("--seed", value, 0, 1'000'000'000'000L));
      ++i;
    } else if (arg == "--tenants") {
      spec.tenants = static_cast<int>(parse_int_or_die(
          "--tenants", value, 1, static_cast<long>(FabricArbiter::kMaxTenants)));
      ++i;
    } else if (arg == "--acs-per-tenant") {
      spec.acs_per_tenant =
          static_cast<int>(parse_int_or_die("--acs-per-tenant", value, 1, 1'000));
      ++i;
    } else if (arg == "--floor") {
      spec.tenant_floor = static_cast<int>(parse_int_or_die("--floor", value, 1, 1'000));
      ++i;
    } else if (arg == "--partition") {
      spec.partition = fleet::parse_partition_or_die("--partition", value);
      ++i;
    } else if (arg == "--cosim") {
      const std::string mode = value;
      if (mode == "fast") {
        cosim_mode = CosimMode::kFastForward;
      } else if (mode == "reference") {
        cosim_mode = CosimMode::kReference;
      } else {
        std::fprintf(stderr,
                     "--cosim must be 'fast' or 'reference', got '%s'\n", value);
        return 2;
      }
      ++i;
    } else {
      return usage();
    }
  }

  if (spec.tenants > 1 && !classic_only.empty()) {
    std::fprintf(stderr,
                 "rispp_fleet: %s does not apply in contended mode (--tenants %d); "
                 "it only configures the classic fleet\n",
                 classic_only.c_str(), spec.tenants);
    return 2;
  }

  const std::vector<fleet::SessionSpec> sessions = fleet::expand_fleet_spec(spec);

  if (spec.tenants > 1) {
    // Contended mode: sessions share devices; the classic batch (and its
    // wall-clock latency metrics) does not apply.
    fleet::ContendedOptions contended;
    contended.tenants_per_device = spec.tenants;
    contended.acs_per_tenant = spec.acs_per_tenant;
    contended.floor = spec.tenant_floor;
    contended.partition = spec.partition;
    contended.cosim = cosim_mode;
    std::printf("contended fleet: %zu sessions, %d tenants/device, %d ACs/tenant\n",
                sessions.size(), spec.tenants, spec.acs_per_tenant);
    fleet::ContendedReport report;
    std::vector<SimResult> results;
    {
      bench::BenchPerfLog perf("fleet");
      perf.set_cells(sessions.size());
      report = fleet::run_contended_fleet(sessions, contended, &results);
    }
    TextTable table({"metric", "value"});
    table.add("sessions", report.sessions);
    table.add("devices", report.devices);
    table.add("wall seconds", format_fixed(report.wall_seconds, 3));
    table.add("sessions/min", format_fixed(report.sessions_per_min, 0));
    table.add("aggregate speedup", format_fixed(report.aggregate_speedup, 3));
    table.add("sim cycles p50", report.sim_cycles_p50);
    table.add("sim cycles p99", report.sim_cycles_p99);
    table.add("port grants", report.grants);
    table.add("cross-tenant evictions", report.evictions);
    table.add("port wait cycles", report.port_wait_cycles);
    table.add("cycles checksum", report.cycles_checksum);
    std::fputs(table.render().c_str(), stdout);

    if (solo_check) {
      contended.cosim = CosimMode::kReference;
      std::vector<SimResult> reference;
      fleet::run_contended_fleet(sessions, contended, &reference);
      for (std::size_t s = 0; s < results.size(); ++s) {
        if (!same_result(s, "the reference co-simulation", results[s], reference[s])) {
          std::fprintf(stderr, "FAIL: session %zu of %zu differs from the reference\n", s,
                       results.size());
          return 1;
        }
      }
      std::printf("reference cross-check: all %zu sessions bit-identical\n", results.size());
    }
    return 0;
  }

  fleet::SessionBatch batch(sessions, options);
  std::printf("fleet: %zu sessions, %zu cohorts, %zu blocks\n", batch.session_count(),
              batch.cohort_count(), batch.block_count());

  fleet::FleetReport report;
  {
    bench::BenchPerfLog perf("fleet");
    perf.set_cells(sessions.size());
    report = fleet::run_fleet(batch);
  }

  TextTable table({"metric", "value"});
  table.add("sessions", report.sessions);
  table.add("wall seconds", format_fixed(report.wall_seconds, 3));
  table.add("sessions/min", format_fixed(report.sessions_per_min, 0));
  table.add("latency p50 (ms)", format_fixed(report.latency_p50_ms, 2));
  table.add("latency p99 (ms)", format_fixed(report.latency_p99_ms, 2));
  table.add("decision cache hits", report.cache_hits);
  table.add("decision cache misses", report.cache_misses);
  table.add("cross-session hits", report.cross_session_hits);
  table.add("cross-session hit rate", format_fixed(report.cross_session_hit_rate, 3));
  table.add("cycles checksum", report.cycles_checksum);
  std::fputs(table.render().c_str(), stdout);

  if (solo_check) {
    std::size_t diverged = 0;
    for (std::size_t s = 0; s < batch.session_count(); ++s)
      if (!check_solo(batch, s)) ++diverged;
    if (diverged != 0) {
      std::fprintf(stderr, "FAIL: %zu of %zu sessions diverged from the solo path\n",
                   diverged, batch.session_count());
      return 1;
    }
    std::printf("solo cross-check: all %zu sessions bit-identical\n", batch.session_count());
  }
  return 0;
}
