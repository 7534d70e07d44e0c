// perfbench — the repository benchmark program (run it through run.py, which
// builds it and adds the run manifest).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>]
//   perfbench --self-test [--scratch <dir>]
//
// Untraced (--trace 0): set up several times (setup_s = median, in seconds
// of the reference core, see below), run one
// untimed warm-up pass, then closed-batch passes on a pool of RISPP_THREADS
// workers (the library's parallel_thread_count()) for --seconds, then
// re-check a seeded sample against the oracle paths. Prints the end-to-end
// metrics: setup_s, ops_per_ref_s, peak_rss_mb, sim_speedup.
//
// Throughput is gated as ops_per_ref_s: operations per CPU-second of a
// reference core. Each pass's CPU time (all threads) leaves out the time
// other guests or processes held our vCPUs — two competing busy loops cut
// dse_search's wall-clock rate by 40% and left its CPU-time rate within 8%.
// The host's own speed still drifted by up to 20% over minutes, so after
// each pass a fixed kernel (calibration_cpu_s) runs on every pool thread,
// and the pass's ops per CPU-second are scaled by that kernel's CPU time
// over its time on the reference core. Over six seeds this took the spread
// (IQR/median) of h264_sweep from 0.10 to 0.05 and of fleet_contended from
// 0.16 to 0.07. The unscaled rates are printed above the JSON: ops_per_s
// (wall clock, also in the workload's own unit), ops_per_cpu_s, and
// busy_threads = CPU seconds / wall seconds.
//
// Traced (--trace 1): untraced passes alternate with traced ones (forwarding
// backend/scheduler wrappers), all on one thread, so the per-layer ledger
// accounts for wall time, the work counters are exact, and
// trace_overhead_pct compares like with like. The traced passes must
// reproduce the untraced digests bit for bit.
//
// The last stdout line is always the JSON result; detail lines in the
// workloads' own units (cells/s, sessions/min, ...) precede it.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "base/env.h"
#include "base/parallel.h"
#include "harness.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
int run_self_test();
}

namespace {

using namespace perfbench;
using namespace rispp;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--scratch <dir>]\n"
               "       perfbench --self-test [--scratch <dir>]\n",
               why);
  std::exit(2);
}

long int_arg(const char* flag, const char* text, long lo, long hi) {
  const auto value = parse_int_strict(text, lo, hi);
  if (!value) usage((std::string(flag) + " wants an integer in range, got " + text).c_str());
  return *value;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = static_cast<std::uint64_t>(int_arg("--seed", value, 0, 1L << 40));
    else if (flag == "--seconds") o.seconds = static_cast<double>(int_arg("--seconds", value, 1, 600));
    else if (flag == "--trace") o.trace = int_arg("--trace", value, 0, 1) == 1;
    else if (flag == "--scratch") o.scratch = value;
    else usage(("unknown flag " + flag).c_str());
  }
  return o;
}

/// The per-layer metrics every traced run emits (0 where a layer does no
/// work on the workload). Must match BENCHMARK.json's per_layer list — the
/// self-test in run.py checks it.
constexpr struct {
  const char* name;
  const char* unit;
} kLayerMetrics[] = {
    {"h264.generate_s", "s"},          {"trace.save_s", "s"},
    {"trace.load_s", "s"},             {"trace.file_mb", "MB"},
    {"trace.runs", "count"},           {"trace.executions", "count"},
    {"rtm.entries", "count"},          {"rtm.entry_s", "s"},
    {"rtm.entry_p50_us", "us"},        {"rtm.entry_p99_us", "us"},
    {"rtm.entry_self_s", "s"},         {"rtm.memo_hit_rate", "ratio"},
    {"rtm.memo_misses", "count"},      {"rtm.decide_miss_p50_us", "us"},
    {"rtm.decide_miss_p99_us", "us"},  {"sched.calls", "count"},
    {"sched.schedule_s", "s"},         {"sched.candidates_evaluated", "count"},
    {"sim.replay_s", "s"},             {"sim.replay_ns_per_instance", "ns"},
    {"sim.hot_spot_entries", "count"}, {"port.loads_started", "count"},
    {"baselines.entry_s", "s"},        {"fleet.trace_resolve_s", "s"},
    {"fleet.batch_build_s", "s"},      {"fleet.run_s", "s"},
    {"fleet.memo_hit_rate", "ratio"},  {"fleet.cross_session_hit_rate", "ratio"},
    {"fleet.contended_run_s", "s"},    {"arbiter.grants", "count"},
    {"arbiter.evictions", "count"},    {"arbiter.port_wait_p99_cycles", "cycles"},
    {"cosim.epochs", "count"},         {"cosim.horizon_recomputes", "count"},
    {"cosim.ff_instance_share", "ratio"}, {"cosim.sim_cycles_p99", "cycles"},
    {"dse.search_s", "s"},             {"dse.replays", "count"},
    {"dse.abandoned", "count"},        {"dse.eval_cache_hit_rate", "ratio"},
    {"dse.makespan_memo_hit_rate", "ratio"}, {"dse.candidate_eval_p50_us", "us"},
    {"dse.candidate_eval_p99_us", "us"}, {"dse.fast_vs_naive", "x"},
    {"trace_overhead_pct", "%"},       {"ledger.unattributed_pct", "%"},
};

/// Timings and outcomes of a sequence of passes.
struct PassLoop {
  std::vector<double> pass_s;
  std::vector<double> ops_per_s;      // per wall-clock second
  std::vector<double> ops_per_cpu_s;  // per CPU-second, all threads summed
  std::vector<double> busy_threads;   // CPU seconds / wall seconds
  std::vector<PassOutcome> outcomes;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
};

/// CPU seconds calibration_cpu_s() takes on the reference core: one thread
/// of the 4-vCPU Xeon VM the benchmark was defined on, on a quiet host.
constexpr double kReferenceCalibrationS = 0.025;

/// Wall-clock and CPU time since construction.
struct PassTimer {
  Clock::time_point wall = Clock::now();
  double cpu = process_cpu_seconds();
};

std::uint64_t mismatched_ops(const PassOutcome& reference, const PassOutcome& pass) {
  if (pass.digests.size() != reference.digests.size()) return pass.ops;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < pass.digests.size(); ++i)
    if (pass.digests[i] != reference.digests[i]) ++bad;
  return bad * (pass.ops / std::max<std::size_t>(1, pass.digests.size()));
}

/// Books one pass. Every pass must reproduce the warm-up pass's digests.
void record(PassLoop& loop, PassOutcome outcome, const PassTimer& timer,
            const PassOutcome& reference) {
  const double elapsed = seconds_since(timer.wall);
  const double cpu = process_cpu_seconds() - timer.cpu;
  const double ops = static_cast<double>(outcome.ops);
  loop.pass_s.push_back(elapsed);
  loop.ops_per_s.push_back(ops / elapsed);
  loop.ops_per_cpu_s.push_back(ops / cpu);
  loop.busy_threads.push_back(cpu / elapsed);
  loop.ops += outcome.ops;
  loop.failed += mismatched_ops(reference, outcome);
  loop.outcomes.push_back(std::move(outcome));
}

/// Work counters of one traced pass — exact, since the pass ran on one
/// thread (the shared-cache hit/miss split is thread-count dependent).
std::map<std::string, double> exact_counters(const MetricsWindow& w, const LayerTimes& times) {
  const auto count = [&](std::string_view name) { return static_cast<double>(w.counter(name)); };
  std::map<std::string, double> exact;
  exact["rtm.entries"] = static_cast<double>(times.rtm_entries);
  exact["rtm.memo_misses"] = count("rtm.decision_cache.misses");
  exact["rtm.memo_hit_rate"] =
      hit_rate(w.counter("rtm.decision_cache.hits"), w.counter("rtm.decision_cache.misses"));
  exact["sched.calls"] = static_cast<double>(w.counter_sum("sched.", ".invocations"));
  exact["sched.candidates_evaluated"] =
      static_cast<double>(w.counter_sum("sched.", ".candidates_evaluated"));
  exact["sim.hot_spot_entries"] = count("sim.hot_spot_entries");
  exact["port.loads_started"] = count("port.loads_started");
  exact["arbiter.grants"] = count("rtm.arbiter.grants");
  exact["arbiter.evictions"] = count("rtm.arbiter.evictions");
  exact["cosim.epochs"] = count("rtm.cosim.epochs");
  exact["cosim.horizon_recomputes"] = count("rtm.cosim.horizon_recomputes");
  const std::uint64_t entries = w.counter("sim.hot_spot_entries");
  exact["cosim.ff_instance_share"] =
      entries == 0 ? 0.0 : count("rtm.cosim.fast_forward_instances") / static_cast<double>(entries);
  exact["dse.makespan_memo_hit_rate"] =
      hit_rate(w.counter("dse.makespan_memo.hits"), w.counter("dse.makespan_memo.misses"));
  return exact;
}

double layer_median(const PassLoop& loop, const std::string& name) {
  std::vector<double> values;
  for (const PassOutcome& o : loop.outcomes) {
    const auto it = o.layer_s.find(name);
    values.push_back(it == o.layer_s.end() ? 0.0 : it->second);
  }
  return median(values);
}

int run(const Options& o) {
  const unsigned threads = parallel_thread_count();
  auto workload = make_workload(o.workload, o.seed, o.scratch);
  if (!workload) usage(("unknown workload " + o.workload).c_str());

  std::printf("manifest {\"workload\": \"%s\", \"definition\": \"%s\", \"seed\": %llu, "
              "\"threads\": %u, \"traced_threads\": 1, \"seconds\": %g, \"trace\": %d, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
              o.workload.c_str(), workload->definition().c_str(),
              static_cast<unsigned long long>(o.seed), threads, o.seconds, o.trace ? 1 : 0,
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);

  // Set-up runs on this one thread, so each repetition is pinned to the next
  // allowed CPU in turn and the median spans every vCPU: left to the
  // scheduler, all of dse_search's repetitions stayed on one vCPU and read
  // either ~0.14 s or ~0.22 s per run, depending on that vCPU's host load.
  // Like throughput, set-up time is reported on the reference core: each
  // repetition's wall time is scaled by the calibration kernel's time on the
  // same CPU right after it (over five seeds, fleet_contended's spread went
  // from 0.17 to 0.09 and dse_search's from 0.10 to 0.07).
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  SetupLedger setup;
  std::vector<double> setup_wall_s, setup_s;
  for (int rep = 0; rep < workload->setup_reps(); ++rep) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<std::size_t>(rep) % cpus.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
    const auto start = Clock::now();
    workload->setup(setup);
    setup_wall_s.push_back(seconds_since(start));
    ThreadPool solo(1);
    setup_s.push_back(setup_wall_s.back() * kReferenceCalibrationS / calibration_cpu_s(solo));
  }
  sched_setaffinity(0, sizeof allowed, &allowed);  // before any pool thread starts

  Report report;
  if (!o.trace) {
    // One untimed warm-up pass (first-use work such as fleet_shared's
    // software-only baseline lands there); every timed pass must reproduce
    // its digests.
    ThreadPool pool(threads);
    const PassOutcome reference = workload->run_pass(pool, nullptr);
    PassLoop loop;
    std::vector<double> calibration_s, ops_per_ref_s;
    const auto start = Clock::now();
    while (loop.pass_s.size() < 3 || seconds_since(start) < o.seconds) {
      const PassTimer timer;
      PassOutcome outcome = workload->run_pass(pool, nullptr);
      record(loop, std::move(outcome), timer, reference);
      calibration_s.push_back(calibration_cpu_s(pool));
      ops_per_ref_s.push_back(loop.ops_per_cpu_s.back() * calibration_s.back() /
                              kReferenceCalibrationS);
    }
    const CheckOutcome check = workload->check();
    report.attempted = loop.ops + check.checked;
    report.failed = loop.failed + check.mismatched;
    const double ops_per_s = median(loop.ops_per_s);
    const PassOutcome& first = loop.outcomes.front();
    report.set("setup_s", median(setup_s), "s");
    report.set("ops_per_ref_s", median(ops_per_ref_s), "1/s");
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("sim_speedup", first.sim_speedup, "x");
    workload->details(first, ops_per_s, report);
    report.detail("ops_per_s", ops_per_s, "1/s");
    report.detail("ops_per_cpu_s", median(loop.ops_per_cpu_s), "1/s");
    report.detail("calibration_s", median(calibration_s), "s");
    report.detail("busy_threads", median(loop.busy_threads), "count");
    report.detail("setup_wall_s", median(setup_wall_s), "s");
    report.detail("setup_wall_s.min",
                  *std::min_element(setup_wall_s.begin(), setup_wall_s.end()), "s");
    report.detail("setup_wall_s.max",
                  *std::max_element(setup_wall_s.begin(), setup_wall_s.end()), "s");
    report.detail("passes", static_cast<double>(loop.pass_s.size()), "count");
    report.detail("pass_s.p50", median(loop.pass_s), "s");
    report.detail("pass_s.p90", quantile(loop.pass_s, 0.9), "s");
    report.detail("failed_frac",
                  static_cast<double>(report.failed) / static_cast<double>(report.attempted),
                  "ratio");
    report.print();
    return 0;
  }

  // Traced: one thread, untraced and traced passes alternating so machine
  // drift hits both halves alike, after one untimed warm-up pass whose
  // digests every later pass must reproduce.
  ThreadPool serial(1);
  const PassOutcome reference = workload->run_pass(serial, nullptr);
  PassLoop plain, traced;
  TraceSink sink;
  std::vector<LayerTimes> pass_layers;
  std::map<std::string, double> exact;  // counters of the first traced pass
  const MetricsWindow window;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       plain.pass_s.size() < 3 || traced.pass_s.size() < 3 || seconds_since(start) < o.seconds;
       ++i) {
    if (i % 2 == 0) {
      const PassTimer timer;
      PassOutcome outcome = workload->run_pass(serial, nullptr);
      record(plain, std::move(outcome), timer, reference);
      continue;
    }
    sink.times = LayerTimes{};
    const MetricsWindow pass_window;
    const bool first = traced.outcomes.empty();
    const PassTimer timer;
    PassOutcome outcome = workload->run_pass(serial, &sink);
    record(traced, std::move(outcome), timer, reference);
    if (first) exact = exact_counters(pass_window, sink.times);
    pass_layers.push_back(sink.times);
  }

  for (const auto& m : kLayerMetrics) report.set(m.name, 0.0, m.unit);
  for (const auto& [name, value] : exact) report.set(name, value, report.metrics.at(name).unit);
  for (const auto& [name, value] : traced.outcomes.front().facts)
    report.set(name, value, report.metrics.at(name).unit);

  // Set-up ledger (medians over the repetitions).
  report.set("h264.generate_s", median(setup.generate_s), "s");
  report.set("trace.save_s", median(setup.save_s), "s");
  report.set("trace.load_s", median(setup.load_s), "s");
  report.set("trace.file_mb", setup.file_mb, "MB");
  report.set("trace.runs", setup.runs, "count");
  report.set("trace.executions", setup.executions, "count");
  report.set("fleet.trace_resolve_s", median(setup.resolve_s), "s");

  // Wrapper-timed layers (medians over traced passes).
  const auto field = [&](double LayerTimes::*member) {
    std::vector<double> values;
    for (const LayerTimes& t : pass_layers) values.push_back(t.*member);
    return median(values);
  };
  const double entry_s = field(&LayerTimes::rtm_entry_s);
  const double schedule_s = field(&LayerTimes::schedule_s);
  const double replay_s = field(&LayerTimes::replay_s);
  const double baseline_s = field(&LayerTimes::baseline_entry_s);
  report.set("rtm.entry_s", entry_s, "s");
  report.set("sched.schedule_s", schedule_s, "s");
  report.set("rtm.entry_self_s", entry_s - schedule_s, "s");
  report.set("sim.replay_s", replay_s, "s");
  report.set("baselines.entry_s", baseline_s, "s");
  if (exact["sim.hot_spot_entries"] > 0)
    report.set("sim.replay_ns_per_instance", replay_s * 1e9 / exact["sim.hot_spot_entries"], "ns");
  const HistogramSnapshot entry_hist = sink.entry_ns.snapshot();
  report.set("rtm.entry_p50_us", static_cast<double>(entry_hist.p(0.50)) / 1e3, "us");
  report.set("rtm.entry_p99_us", static_cast<double>(entry_hist.p(0.99)) / 1e3, "us");
  const HistogramSnapshot decide = window.histogram("rtm.decision_latency_ns");
  report.set("rtm.decide_miss_p50_us", static_cast<double>(decide.p(0.50)) / 1e3, "us");
  report.set("rtm.decide_miss_p99_us", static_cast<double>(decide.p(0.99)) / 1e3, "us");
  const HistogramSnapshot wait = window.histogram("rtm.arbiter.port_wait_cycles");
  report.set("arbiter.port_wait_p99_cycles", static_cast<double>(wait.p(0.99)), "cycles");
  const HistogramSnapshot eval = window.histogram("dse.candidate_eval_ns");
  report.set("dse.candidate_eval_p50_us", static_cast<double>(eval.p(0.50)) / 1e3, "us");
  report.set("dse.candidate_eval_p99_us", static_cast<double>(eval.p(0.99)) / 1e3, "us");

  // The oracle runs after the histograms are read: its decides all miss
  // (decision cache off, reference co-simulation), so it stays out of them.
  const CheckOutcome check = workload->check();
  report.attempted = plain.ops + traced.ops + check.checked;
  report.failed = plain.failed + traced.failed + check.mismatched;
  for (const auto& [name, value] : check.facts) report.set(name, value, report.metrics.at(name).unit);

  // Public-call layers the workload timed itself.
  double attributed = entry_s + replay_s + baseline_s;
  for (const auto& [name, seconds] : traced.outcomes.front().layer_s) {
    const double value = layer_median(traced, name);
    report.set(name, value, "s");
    attributed += value;
  }
  const double traced_pass_s = median(traced.pass_s);
  report.set("ledger.unattributed_pct", 100.0 * (1.0 - attributed / traced_pass_s), "%");
  report.set("trace_overhead_pct", 100.0 * (traced_pass_s / median(plain.pass_s) - 1.0), "%");

  report.detail("untraced_pass_s", median(plain.pass_s), "s");
  report.detail("traced_pass_s", traced_pass_s, "s");
  report.detail("traced_passes", static_cast<double>(traced.pass_s.size()), "count");
  report.detail("failed_frac",
                static_cast<double>(report.failed) / static_cast<double>(report.attempted),
                "ratio");
  report.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    if (options.self_test) return run_self_test();
    if (options.workload.empty()) usage("--workload is required");
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
