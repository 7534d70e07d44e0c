// Transparency self-test for the traced run: replaying through the
// forwarding TimedBackend/TimedScheduler must reproduce the unwrapped
// replay's simulated results bit for bit, for all four SI schedulers and
// Molen, on the batched (span) and scalar paths — and the batched traced
// replay must actually reach si_execution_span, or the ledger would be
// timing the default per-run loop instead of the fast path.
#include <cstdio>
#include <string>

#include "baselines/molen.h"
#include "h264/workload.h"
#include "harness.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"

namespace perfbench {

using namespace rispp;

namespace {

struct Replayed {
  SimResult plain;
  SimResult traced;
  LayerTimes times;
};

Replayed replay(const SpecialInstructionSet& set, const WorkloadTrace& trace,
                const std::string& system, unsigned acs, ReplayMode mode) {
  Replayed out;
  const std::size_t hot_spots = trace.hot_spots.size();
  if (system == "Molen") {
    MolenConfig config;
    config.container_count = acs;
    MolenBackend plain(&set, hot_spots, config);
    h264::seed_default_forecasts(set, plain);
    out.plain = run_trace(trace, plain, nullptr, mode);
    MolenBackend inner(&set, hot_spots, config);
    h264::seed_default_forecasts(set, inner);
    TimedBackend timed(inner, out.times, false, nullptr);
    out.traced = run_trace(trace, timed, nullptr, mode);
    return out;
  }
  const auto scheduler = make_scheduler(system);
  RtmConfig config;
  config.container_count = acs;
  config.scheduler = scheduler.get();
  RunTimeManager plain(&set, hot_spots, config);
  h264::seed_default_forecasts(set, plain);
  out.plain = run_trace(trace, plain, nullptr, mode);

  const TimedScheduler timed_scheduler(*scheduler, out.times);
  config.scheduler = &timed_scheduler;
  RunTimeManager inner(&set, hot_spots, config);
  h264::seed_default_forecasts(set, inner);
  MetricHistogram entry_ns;
  TimedBackend timed(inner, out.times, true, &entry_ns);
  out.traced = run_trace(trace, timed, nullptr, mode);
  return out;
}

}  // namespace

int run_self_test() {
  const SpecialInstructionSet set = h264sis::build_h264_si_set();
  h264::WorkloadConfig config;
  config.frames = 8;
  const WorkloadTrace trace = h264::generate_h264_workload(set, config).trace;

  std::vector<std::string> systems = scheduler_names();
  systems.push_back("Molen");
  int failures = 0;
  for (const std::string& system : systems) {
    for (unsigned acs : {5u, 12u, 24u}) {
      for (ReplayMode mode : {ReplayMode::kBatched, ReplayMode::kScalar}) {
        const Replayed r = replay(set, trace, system, acs, mode);
        const bool batched = mode == ReplayMode::kBatched;
        std::string problem;
        if (result_digest(r.plain) != result_digest(r.traced))
          problem = "traced digest differs from untraced";
        else if (batched && r.times.span_calls == 0)
          problem = "traced batched replay never reached si_execution_span";
        else if (system != "Molen" && r.times.schedule_calls == 0)
          problem = "scheduler wrapper never called";
        std::printf("self-test %-5s acs=%-2u %-7s %s\n", system.c_str(), acs,
                    batched ? "batched" : "scalar", problem.empty() ? "ok" : problem.c_str());
        if (!problem.empty()) ++failures;
      }
    }
  }
  std::printf("self-test transparency: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
