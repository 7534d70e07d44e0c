// Table 3: hardware implementation cost of the HEF scheduler.
//
// The paper synthesizes HEF to a 12-state FSM on a Xilinx xc2v3000 (549
// slices — less than one Atom Container) and reports the division-free
// benefit comparison (a*b)/c > (d*e)/f  =>  (a*b)*f > (d*e)*c. FPGA
// synthesis is outside a software reproduction, so this bench provides the
// checkable counterpart:
//   * the FSM work HEF actually performs on the paper's workload (benefit
//     evaluations / comparisons / commits per invocation),
//   * verification that the division-free comparison is used and exact,
//   * the paper's synthesis numbers quoted for side-by-side reading.
#include <cstdio>

#include "base/check.h"
#include "base/table.h"
#include "cpu/emulation.h"
#include "bench/common.h"
#include "sched/hef.h"

int main() {
  using namespace rispp;
  const bench::BenchContext ctx;

  HefCostCounters counters;
  HefScheduler hef(&counters);
  RtmConfig config;
  config.container_count = 10;
  config.scheduler = &hef;
  // The paper's Table 3 costs the FSM work of *every* hot-spot entry; the
  // decision cache would skip the FSM on repeated decisions, so it is
  // disabled for the counter run and measured separately below.
  config.enable_decision_cache = false;
  RunTimeManager rtm(&ctx.set, ctx.trace.hot_spots.size(), config);
  h264::seed_default_forecasts(ctx.set, rtm);
  const SimResult result = run_trace(ctx.trace, rtm);

  std::printf("Table 3 (proxy) — HEF scheduler computational cost @10 ACs, %d frames\n\n",
              ctx.frames);
  TextTable fsm({"counter", "total", "per invocation"});
  auto per = [&](std::uint64_t v) {
    return format_fixed(static_cast<double>(v) / counters.invocations, 2);
  };
  fsm.add("scheduler invocations (hot-spot entries)", counters.invocations, "1.00");
  fsm.add("FSM rounds (Figure 6 while-loop)", counters.rounds, per(counters.rounds));
  fsm.add("benefit evaluations (line 20)", counters.benefit_evaluations,
          per(counters.benefit_evaluations));
  fsm.add("benefit comparisons (line 21, division-free)", counters.benefit_comparisons,
          per(counters.benefit_comparisons));
  fsm.add("molecule commits (lines 25-28)", counters.commits, per(counters.commits));
  fsm.add("atoms scheduled", counters.atoms_scheduled, per(counters.atoms_scheduled));
  std::printf("%s\n", fsm.render().c_str());
  std::printf("run completed in %.1f Mcycles with %llu atom loads\n\n",
              result.total_cycles / 1e6,
              static_cast<unsigned long long>(result.atom_loads));

  // The software run-time's answer to the same cost question: with the
  // decision cache on (the default), repeated (SIs, forecast, ready atoms,
  // budget) inputs replay their memoized schedule and skip the FSM entirely
  // — bit-exact, since the key covers everything the decision reads. A miss
  // whose (SIs, ready atoms, budget) was decided before under another
  // forecast re-runs only that decision's recorded picks (the benefit
  // compares among them, DESIGN §6.2) and runs the FSM only when one differs.
  {
    HefCostCounters cached_counters;
    HefScheduler cached_hef(&cached_counters);
    RtmConfig cached_config = config;
    cached_config.scheduler = &cached_hef;
    cached_config.enable_decision_cache = true;
    RunTimeManager cached_rtm(&ctx.set, ctx.trace.hot_spots.size(), cached_config);
    h264::seed_default_forecasts(ctx.set, cached_rtm);
    const SimResult cached_result = run_trace(ctx.trace, cached_rtm);
    RISPP_CHECK(cached_result.total_cycles == result.total_cycles);
    const std::uint64_t hits = cached_rtm.decision_cache_hits();
    const std::uint64_t misses = cached_rtm.decision_cache_misses();
    const std::uint64_t replays = cached_rtm.decision_cache_replays();
    RISPP_CHECK(cached_counters.invocations == misses - replays);
    std::printf("decision cache (selection+schedule memoization), %llu hot-spot entries:\n"
                "  %llu exact hits (%.1f%%): the memoized loads, no FSM work\n"
                "  %llu replays: the recorded benefit compares re-run, every pick agreed\n"
                "  %llu full scheduler (FSM) runs, against %llu without the cache\n"
                "replay bit-exact\n\n",
                static_cast<unsigned long long>(hits + misses),
                static_cast<unsigned long long>(hits),
                100.0 * static_cast<double>(hits) / static_cast<double>(hits + misses),
                static_cast<unsigned long long>(replays),
                static_cast<unsigned long long>(cached_counters.invocations),
                static_cast<unsigned long long>(counters.invocations));
  }

  // Division-free comparison sanity (the §5 hardware trick).
  const Benefit a{24'000ull * 1056, 3};
  const Benefit b{3'600ull * 4284, 6};
  std::printf("division-free compare example: (%llu/%llu) vs (%llu/%llu) -> %s\n\n",
              static_cast<unsigned long long>(a.gain_weighted),
              static_cast<unsigned long long>(a.atoms),
              static_cast<unsigned long long>(b.gain_weighted),
              static_cast<unsigned long long>(b.atoms),
              benefit_greater(a, b) ? "left" : "right");

  // Ground the trap-latency column with the base-processor substrate: the
  // emulation kernels executed on the DLX pipeline model.
  std::printf("Atom trap-handler validation on the DLX pipeline model (one op each):\n");
  TextTable emu({"atom type", "pipeline [cyc]", "table [cyc]", "ratio", "#instr"});
  for (const auto& m : cpu::emulation_report()) {
    emu.add(m.atom_type, m.measured_cycles, m.table_cycles,
            format_fixed(static_cast<double>(m.measured_cycles) /
                             static_cast<double>(m.table_cycles),
                         2),
            m.instructions);
  }
  std::printf("%s", emu.render().c_str());
  std::printf("(table values model the prototype's hand-tuned handlers; SADRow's 2x\n"
              "gap is the packed-word SIMD trick the reference kernel forgoes)\n\n");

  std::printf("Paper's synthesis results (xc2v3000, quoted for reference — not\n"
              "reproducible in software):\n");
  TextTable paper({"characteristic", "HEF scheduler", "avg atom"});
  paper.add("# Slices", 549, 421);
  paper.add("# LUTs", 915, 839);
  paper.add("# FFs", 297, 45);
  paper.add("# MULT18X18", 5, 0);
  paper.add("Gate equivalents", 30'769, 6'944);
  paper.add("Clock delay [ns]", "12.596", "1.284");
  std::printf("%s", paper.render().c_str());
  std::printf("(HEF fits in less area than one Atom Container: 549 < 1024 slices.)\n");
  return 0;
}
