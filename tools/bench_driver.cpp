// rispp_bench — run the full report suite concurrently.
//
//   rispp_bench                         # discover build/bench/*, all cores
//   rispp_bench --jobs 4 --frames 8     # quick pass, 4 reports at a time
//   rispp_bench --filter 'fig*'         # only the figure reports
//   rispp_bench --frames 8 --jobs 1 --baseline ci/bench_baseline.json
//                                       # perf-regression gate (CI also
//                                       # sets RISPP_THREADS=1)
//
// Each report's stdout+stderr goes to <out>/logs/<name>.log (byte-identical
// to a sequential run — children never share a stream); per-report
// BENCH_<name>.json records are folded into <out>/BENCH_SUITE.json. With
// --baseline the driver exits non-zero when any report got >20 % slower
// (wall-clock or cells/sec) than the baseline suite, or when one of its
// exact work counters (bench::kExactCounters) differs from the baseline's;
// it exits 2 without running when the baseline suite was recorded at other
// frames, jobs or threads per child.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "base/env.h"
#include "base/parallel.h"
#include "base/stats.h"
#include "bench/common.h"
#include "bench/driver.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] [report-binary...]\n"
               "  --bench-dir <dir>   report discovery dir (default: <exe>/../bench)\n"
               "  --filter <glob>     only reports whose name matches (* and ?)\n"
               "  --jobs <n>          concurrent reports (default: thread count)\n"
               "  --frames <n>        RISPP_FRAMES for every report (default: 140)\n"
               "  --out <dir>         logs + BENCH_SUITE.json (default: bench-out)\n"
               "  --baseline <path>   BENCH_SUITE.json or dir of BENCH_*.json;\n"
               "                      exit non-zero on >threshold slowdown or\n"
               "                      a changed exact work counter; exit 2 when\n"
               "                      the suite's frames, jobs or threads per\n"
               "                      child differ from this run's\n"
               "  --threshold <pct>   regression budget in percent (default: 20)\n"
               "  --refresh-baseline <path>\n"
               "                      after a fully green run, rewrite <path>\n"
               "                      (e.g. ci/bench_baseline.json) from this\n"
               "                      run's BENCH_SUITE.json\n"
               "  --stats-diff <path> BENCH_SUITE.json to diff this run's\n"
               "                      folded metrics against (informational;\n"
               "                      never gates)\n"
               "  --trace-dir <dir>   run every report with RISPP_TRACE set:\n"
               "                      one <dir>/<name>.trace.json per report\n"
               "                      (Chrome about://tracing / Perfetto format)\n"
               "  --no-warm           skip the trace-cache pre-warm\n"
               "  --list              print the discovered reports and exit\n",
               argv0);
}

int run(int argc, char** argv) {
  using namespace rispp;
  namespace fs = std::filesystem;

  fs::path bench_dir;
  fs::path out_dir = "bench-out";
  fs::path baseline_path;
  fs::path refresh_path;
  fs::path stats_diff_path;
  fs::path trace_dir;
  std::string filter;
  std::vector<fs::path> explicit_binaries;
  unsigned jobs = 0;
  double threshold = 0.20;
  bool warm = true, list_only = false;

  const auto next_arg = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", flag);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench-dir") bench_dir = next_arg(i, "--bench-dir");
    else if (arg == "--filter") filter = next_arg(i, "--filter");
    else if (arg == "--jobs") {
      jobs = static_cast<unsigned>(parse_int_or_die("--jobs", next_arg(i, "--jobs"), 1, 4096));
    } else if (arg == "--frames") {
      const long n = parse_int_or_die("--frames", next_arg(i, "--frames"), 1, 1'000'000);
      // Children inherit the environment; bench_frames() in this process
      // (pre-warm, suite record) reads the same value.
      ::setenv("RISPP_FRAMES", std::to_string(n).c_str(), 1);
    } else if (arg == "--out") out_dir = next_arg(i, "--out");
    else if (arg == "--baseline") baseline_path = next_arg(i, "--baseline");
    else if (arg == "--threshold") {
      const long pct = parse_int_or_die("--threshold", next_arg(i, "--threshold"), 1, 1000);
      threshold = static_cast<double>(pct) / 100.0;
    } else if (arg == "--refresh-baseline") refresh_path = next_arg(i, "--refresh-baseline");
    else if (arg == "--stats-diff") stats_diff_path = next_arg(i, "--stats-diff");
    else if (arg == "--trace-dir") trace_dir = next_arg(i, "--trace-dir");
    else if (arg == "--no-warm") warm = false;
    else if (arg == "--list") list_only = true;
    else if (arg == "--help" || arg == "-h") { usage(argv[0]); return 0; }
    else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else explicit_binaries.emplace_back(arg);
  }

  std::vector<fs::path> binaries = explicit_binaries;
  if (binaries.empty()) {
    if (bench_dir.empty()) {
      // The build tree keeps tools/ and bench/ side by side.
      std::error_code ec;
      const fs::path self = fs::canonical(fs::path(argv[0]), ec);
      bench_dir = (ec ? fs::path(argv[0]) : self).parent_path().parent_path() / "bench";
    }
    binaries = bench::discover_reports(bench_dir);
    if (binaries.empty()) {
      std::fprintf(stderr, "no report binaries found in %s\n", bench_dir.string().c_str());
      return 2;
    }
  }
  if (!filter.empty())
    std::erase_if(binaries, [&](const fs::path& p) {
      return !bench::glob_match(filter, p.filename().string());
    });
  if (list_only) {
    for (const auto& b : binaries) std::printf("%s\n", b.filename().string().c_str());
    return 0;
  }
  if (binaries.empty()) {
    std::fprintf(stderr, "filter matched no reports\n");
    return 2;
  }

  const unsigned total_threads = parallel_thread_count();
  bench::DriverOptions options;
  options.jobs = jobs > 0 ? jobs : total_threads;
  options.jobs = std::min<unsigned>(options.jobs, binaries.size());
  // Divide the host's threads among concurrent children: jobs * per-child
  // never oversubscribes what RISPP_THREADS / the core count granted. The
  // per-child share is recomputed at each launch (compute_child_threads), so
  // stragglers launched late pick up finished reports' threads.
  options.total_threads = total_threads;
  options.threads_per_child = std::max(1u, total_threads / options.jobs);
  options.out_dir = out_dir;
  options.trace_dir = trace_dir;

  const int frames = bench::bench_frames();
  std::printf("rispp_bench: %zu reports, %u at a time, %u thread(s) each, %d frames\n",
              binaries.size(), options.jobs, options.threads_per_child, frames);
  if (!baseline_path.empty()) {
    // Timings of another setup are no reference: refuse before running.
    const auto mismatches = bench::baseline_setup_mismatches(baseline_path, frames, options);
    for (const auto& line : mismatches)
      std::fprintf(stderr, "rispp_bench: %s: %s\n", baseline_path.string().c_str(),
                   line.c_str());
    if (!mismatches.empty()) {
      std::fprintf(stderr, "rispp_bench: refusing to compare against a baseline of another "
                           "setup (set --frames, --jobs and RISPP_THREADS to match it)\n");
      return 2;
    }
  }
  if (warm) {
    // One shared cache fill instead of every child racing to encode — both
    // the classic bench workload and the fleet benches' mixed contents.
    bench::warm_trace_cache();
    bench::warm_fleet_trace_cache();
  }

  const auto results = bench::run_reports(binaries, options, std::cout);
  std::printf("\n%s\n", bench::render_summary_table(results).c_str());
  bench::write_suite(results, frames, options, out_dir / "BENCH_SUITE.json");
  std::printf("suite record: %s\n", (out_dir / "BENCH_SUITE.json").string().c_str());

  int exit_code = 0;
  for (const auto& r : results)
    if (r.exit_code != 0) {
      std::fprintf(stderr, "%s failed (exit %d), log: %s\n", r.name.c_str(), r.exit_code,
                   r.log.string().c_str());
      exit_code = 1;
    }

  if (!baseline_path.empty()) {
    const auto baseline = bench::load_baseline(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "baseline %s is empty or unreadable\n",
                   baseline_path.string().c_str());
      return 2;
    }
    const auto gate = bench::compare_against_baseline(results, baseline, threshold);
    std::printf("\nregression gate vs %s (budget %.0f%%):\n%s\n",
                baseline_path.string().c_str(), threshold * 100.0,
                bench::render_regression_table(gate).c_str());
    for (const auto& name : gate.missing)
      std::printf("note: baselined report %s did not run\n", name.c_str());
    for (const auto& line : gate.counter_mismatches)
      std::fprintf(stderr, "exact counter mismatch: %s\n", line.c_str());
    if (gate.failed) {
      std::fprintf(stderr, "perf regression gate FAILED\n");
      exit_code = 1;
    }
  }

  if (!stats_diff_path.empty()) {
    // Informational metrics movement vs a prior suite — never gates: metric
    // values (cycle counts, histogram quantiles) move legitimately with
    // workload changes, unlike the wall-clock/cells-per-sec budget above.
    const auto prior = bench::load_baseline(stats_diff_path);
    std::string tables;
    for (const auto& r : results) {
      const auto it = prior.find(r.name);
      if (it == prior.end() || it->second.metrics.empty()) continue;
      stats::MetricsDocument base, now;
      base.gauges = it->second.metrics;
      now.gauges = r.metrics;
      tables += r.name + ":\n" + stats::render_diff(base, now, 5);
    }
    if (tables.empty()) {
      std::fprintf(stderr, "--stats-diff: %s has no per-report metrics\n",
                   stats_diff_path.string().c_str());
    } else {
      std::printf("\nmetric movements vs %s (top 5 per report):\n%s\n",
                  stats_diff_path.string().c_str(), tables.c_str());
    }
  }

  if (!refresh_path.empty()) {
    // Baseline refresh: only a fully green run may become the new reference
    // (a failed or regressed run would bake the slowdown into the budget).
    if (exit_code != 0) {
      std::fprintf(stderr, "--refresh-baseline: run not green, leaving %s untouched\n",
                   refresh_path.string().c_str());
    } else {
      std::error_code ec;
      if (!refresh_path.parent_path().empty())
        fs::create_directories(refresh_path.parent_path(), ec);
      fs::copy_file(out_dir / "BENCH_SUITE.json", refresh_path,
                    fs::copy_options::overwrite_existing, ec);
      if (ec) {
        std::fprintf(stderr, "--refresh-baseline: copy to %s failed: %s\n",
                     refresh_path.string().c_str(), ec.message().c_str());
        exit_code = 2;
      } else {
        std::printf("baseline refreshed: %s\n", refresh_path.string().c_str());
      }
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // A corrupt baseline or child snapshot throws (RISPP_CHECK); report it
  // like an unreadable baseline instead of dying in std::terminate.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rispp_bench: %s\n", e.what());
    return 2;
  }
}
