// The concurrent report driver behind the rispp_bench binary (tools/).
//
// PR 1 made each report binary fast (run-batched replay + run_sweep); this
// layer makes the *suite* fast: it discovers the report binaries in the
// build tree, pre-warms the shared trace cache once, fans the binaries out
// as subprocesses across a bounded worker pool, streams every child's
// stdout+stderr to a per-report log (so per-report output stays
// byte-identical to a sequential run), folds the per-report
// BENCH_<name>.json perf records into one BENCH_SUITE.json, and — given a
// baseline — gates on perf regressions (>threshold wall-clock growth or
// cells/sec drop per report) and on exact work counters.
//
// Everything here is also a library so tests can drive the pool, the JSON
// round-trip and the gate without spawning the real (slow) report suite.
#pragma once

#include <array>
#include <filesystem>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rispp::bench {

/// One BENCH_<name>.json perf record as written by BenchPerfLog.
struct PerfRecord {
  std::string bench;
  double wall_seconds = 0.0;
  double cells = 0.0;
  double cells_per_sec = 0.0;
  double threads = 0.0;
  double frames = 0.0;
  /// The report's folded registry metrics, when the record came from a
  /// BENCH_SUITE.json baseline (empty for a BENCH_<name>.json file).
  std::map<std::string, double> metrics;
};

/// Outcome of one report binary under the driver.
struct ReportResult {
  std::string name;                // binary filename
  std::filesystem::path binary;
  std::filesystem::path log;       // captured stdout+stderr
  int exit_code = -1;              // 128+signal when killed by a signal
  double wall_seconds = 0.0;       // driver-measured (includes process spawn)
  std::optional<PerfRecord> perf;  // the child's BENCH_<name>.json, if written
  /// The child's metrics-registry snapshot (METRICS.json: counters, gauges
  /// and histogram summaries flattened into one name → value map); empty
  /// when absent.
  std::map<std::string, double> metrics;
};

struct DriverOptions {
  unsigned jobs = 1;               // concurrent children
  unsigned threads_per_child = 1;  // static RISPP_THREADS share (total_threads == 0)
  /// When > 0, each child's RISPP_THREADS is computed at launch time by
  /// compute_child_threads() — children launched after others finished get
  /// the finishers' share instead of the static total/jobs split.
  unsigned total_threads = 0;
  std::filesystem::path out_dir;   // logs/, json/, BENCH_SUITE.json
  /// When non-empty, each child runs with RISPP_TRACE=<trace_dir>/<name>
  /// .trace.json so every report leaves a Chrome trace. When empty the
  /// driver *unsets* RISPP_TRACE in children: a traced driver must not make
  /// every child overwrite the parent's own trace file.
  std::filesystem::path trace_dir;
};

/// The thread share of a child launched while `unfinished` reports (queued +
/// running, including this one) remain: total_threads divided by how many
/// children can actually run side by side from here on. Early launches get
/// the static total/jobs split; stragglers launched late inherit the
/// finished reports' threads.
unsigned compute_child_threads(unsigned total_threads, unsigned jobs, std::size_t unfinished);

/// Minimal glob matching for --filter: '*' any sequence, '?' one char.
bool glob_match(const std::string& pattern, const std::string& name);

/// Executables in `bench_dir`, sorted by name. micro_ops (the
/// google-benchmark micro suite — not a report, and slow) is excluded;
/// pass it explicitly to run it anyway.
std::vector<std::filesystem::path> discover_reports(const std::filesystem::path& bench_dir);

/// Parses one BENCH_<name>.json; nullopt when `bench` or `wall_seconds` is
/// absent. Anything that is not one JSON object — an empty file, trailing
/// garbage, a duplicated key — or a field of the wrong type throws with a
/// message naming the file, never parses wrong.
std::optional<PerfRecord> parse_perf_record(const std::filesystem::path& path);

/// Parses a METRICS.json registry snapshot (stats::parse_metrics_document)
/// into one flat name → value map (stats::flatten: each histogram folds to
/// <name>.count/.sum/.min/.max/.p50/.p90/.p99; the bucket arrays stay in the
/// snapshot file). A missing or empty file yields an empty map; anything
/// corrupt, including one name in two sections, throws naming the file.
std::map<std::string, double> parse_metrics_record(const std::filesystem::path& path);

/// Runs `binaries` across a bounded pool (options.jobs children at a time),
/// each with RISPP_THREADS=options.threads_per_child,
/// RISPP_BENCH_JSON_DIR=<out_dir>/json/<name> and
/// RISPP_METRICS=<out_dir>/json/<name>/METRICS.json (folded into
/// ReportResult::metrics after the child exits), stdout+stderr streamed to
/// <out_dir>/logs/<name>.log. Prints one line per completed report to
/// `status`. Results keep the input order regardless of completion order.
std::vector<ReportResult> run_reports(const std::vector<std::filesystem::path>& binaries,
                                      const DriverOptions& options, std::ostream& status);

/// Renders the end-of-run summary table (name, wall, cells/sec, exit).
std::string render_summary_table(const std::vector<ReportResult>& results);

/// Writes every result (and its perf record, when present) to `path` as the
/// BENCH_SUITE.json the CI artifact uploads and --baseline consumes.
void write_suite(const std::vector<ReportResult>& results, int frames,
                 const DriverOptions& options, const std::filesystem::path& path);

/// Loads a baseline keyed by report name: either a BENCH_SUITE.json file or
/// a directory of BENCH_<name>.json records (keyed by their bench name).
/// A suite entry without `name` or `wall_seconds` is skipped; `bench`
/// defaults to the name, and the `metrics` subobject fills
/// PerfRecord::metrics. Missing/empty files yield an empty map (the CLI
/// reports that case); readable-but-corrupted content (trailing garbage,
/// duplicate keys, a non-numeric metric) throws.
std::map<std::string, PerfRecord> load_baseline(const std::filesystem::path& path);

/// The fields of a BENCH_SUITE.json baseline's run record (its top-level
/// frames, jobs and threads_per_child) that differ from this run's, one line
/// each naming the field and both values. Timings compare only like with
/// like, so the CLI refuses a baseline with any. A field the record lacks is
/// not compared, and a directory of BENCH_*.json records has no run record
/// (empty result). Corrupt content throws, as in load_baseline.
std::vector<std::string> baseline_setup_mismatches(const std::filesystem::path& path,
                                                   int frames, const DriverOptions& options);

struct RegressionDelta {
  std::string name;
  double base_wall = 0.0, wall = 0.0;  // seconds
  double base_rate = 0.0, rate = 0.0;  // cells/sec (0 when not recorded)
  bool regressed = false;
};

struct RegressionReport {
  std::vector<RegressionDelta> deltas;
  std::vector<std::string> missing;  // baselined reports absent from this run
  /// One line per exact-counter difference: report, counter, both values.
  std::vector<std::string> counter_mismatches;
  bool failed = false;               // any delta regressed or counter moved
};

/// Deterministic work counters gated exactly against the baseline's folded
/// metrics: they depend only on the code and the inputs, so any difference
/// is a behaviour or work change, and the change making it refreshes the
/// baseline.
/// rtm.decision_cache.misses and sched.*.candidates_evaluated stay out: the
/// fleet report's shared memo interleaves sessions differently from run to
/// run, which moves them without a code change.
inline constexpr std::array<std::string_view, 3> kExactCounters = {
    "port.loads_started", "sim.hot_spot_entries", "rtm.si_upgrades"};

/// The perf-regression gate: a report regresses when its wall-clock grew by
/// more than `threshold` (fraction; 0.20 = the documented 20 % budget) over
/// the baseline, or its cells/sec dropped by more than `threshold`.
/// Absolute wall-clock growth below 50 ms is ignored — at CI's 8-frame
/// setting whole reports finish in tens of milliseconds, where scheduler
/// jitter swamps any real signal. Independently, every kExactCounters entry
/// the baseline record carries must equal the run's value (a counter the
/// run lacks is a mismatch too). Reports without a baseline entry pass
/// (new reports must not fail the gate); baselined reports missing from the
/// run are listed in `missing` but do not fail it either.
RegressionReport compare_against_baseline(const std::vector<ReportResult>& results,
                                          const std::map<std::string, PerfRecord>& baseline,
                                          double threshold);

/// Renders the per-report delta table of the gate.
std::string render_regression_table(const RegressionReport& report);

}  // namespace rispp::bench
