// The concurrent report driver (bench/driver.{h,cpp}) and the bench env /
// trace-cache hardening: glob filtering, the subprocess pool (byte-identical
// logs vs a sequential run), the BENCH_SUITE.json round trip, the
// perf-regression gate, strict RISPP_FRAMES / RISPP_THREADS parsing and the
// fingerprinted cache key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/env.h"
#include "base/metrics.h"
#include "base/parallel.h"
#include "base/stats.h"
#include "bench/common.h"
#include "bench/driver.h"
#include "isa/h264_si_library.h"
#include "isa/si.h"

namespace rispp::bench {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(GlobMatch, WildcardsAndLiterals) {
  EXPECT_TRUE(glob_match("*", "anything"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("fig*", "fig7_scheduler_sweep"));
  EXPECT_TRUE(glob_match("*sweep", "fig7_scheduler_sweep"));
  EXPECT_TRUE(glob_match("fig?_*", "fig1_utilization"));
  EXPECT_TRUE(glob_match("a*b*c", "a_x_b_y_c"));
  EXPECT_TRUE(glob_match("exact", "exact"));
  EXPECT_FALSE(glob_match("fig*", "table1_si_inventory"));
  EXPECT_FALSE(glob_match("exact", "exactly"));
  EXPECT_FALSE(glob_match("?", ""));
  EXPECT_FALSE(glob_match("a*c", "a_b_d"));
}

TEST(ComputeChildThreads, RedistributesFinishedReportsThreads) {
  // Early in the run more reports remain than concurrent slots: each child
  // gets the static total/jobs share.
  EXPECT_EQ(compute_child_threads(8, 4, 10), 2u);
  EXPECT_EQ(compute_child_threads(8, 4, 4), 2u);
  // The tail: fewer unfinished reports than slots — stragglers inherit the
  // finished reports' threads.
  EXPECT_EQ(compute_child_threads(8, 4, 2), 4u);
  EXPECT_EQ(compute_child_threads(8, 4, 1), 8u);
}

TEST(ComputeChildThreads, ClampsDegenerateInputs) {
  EXPECT_EQ(compute_child_threads(0, 0, 0), 1u);  // never zero threads
  EXPECT_EQ(compute_child_threads(1, 8, 8), 1u);  // more slots than threads
  EXPECT_EQ(compute_child_threads(8, 0, 5), 8u);  // jobs clamped to >= 1
  EXPECT_EQ(compute_child_threads(3, 2, 2), 1u);  // integer division floors
}

TEST(ParseIntStrict, AcceptsOnlyFullIntegersInRange) {
  EXPECT_EQ(parse_int_strict("42", 1, 100), 42);
  EXPECT_EQ(parse_int_strict("1", 1, 100), 1);
  EXPECT_EQ(parse_int_strict("-3", -10, 10), -3);
  EXPECT_FALSE(parse_int_strict("abc", 1, 100).has_value());
  EXPECT_FALSE(parse_int_strict("12x", 1, 100).has_value());
  EXPECT_FALSE(parse_int_strict("", 1, 100).has_value());
  EXPECT_FALSE(parse_int_strict(nullptr, 1, 100).has_value());
  EXPECT_FALSE(parse_int_strict("0", 1, 100).has_value());    // below min
  EXPECT_FALSE(parse_int_strict("101", 1, 100).has_value());  // above max
  EXPECT_FALSE(parse_int_strict("999999999999999999999", 1, 100).has_value());
}

// Garbage or zero in the bench env vars must be a loud exit, never a silent
// fall-back that quietly runs the wrong configuration.
TEST(EnvDeathTest, GarbageFramesExitsLoudly) {
  ::setenv("RISPP_FRAMES", "abc", 1);
  EXPECT_EXIT(bench_frames(), ::testing::ExitedWithCode(kEnvParseExitCode),
              "RISPP_FRAMES");
  ::setenv("RISPP_FRAMES", "0", 1);
  EXPECT_EXIT(bench_frames(), ::testing::ExitedWithCode(kEnvParseExitCode),
              "RISPP_FRAMES");
  ::unsetenv("RISPP_FRAMES");
  EXPECT_EQ(bench_frames(), 140);  // default untouched
}

TEST(EnvDeathTest, ZeroThreadsExitsLoudly) {
  ::setenv("RISPP_THREADS", "0", 1);
  EXPECT_EXIT(parallel_thread_count(), ::testing::ExitedWithCode(kEnvParseExitCode),
              "RISPP_THREADS");
  ::setenv("RISPP_THREADS", "many", 1);
  EXPECT_EXIT(parallel_thread_count(), ::testing::ExitedWithCode(kEnvParseExitCode),
              "RISPP_THREADS");
  ::setenv("RISPP_THREADS", "3", 1);
  EXPECT_EQ(parallel_thread_count(), 3u);
  ::unsetenv("RISPP_THREADS");
}

// The cache key must change whenever the SI set or the workload parameters
// change — otherwise an edited library could replay a stale recorded trace.
TEST(TraceCacheKey, MutatedSiSetMissesTheCache) {
  const h264::WorkloadConfig config;
  SpecialInstructionSet set = h264sis::build_h264_si_set();
  const fs::path original = h264::trace_cache_path(set, config);

  SpecialInstructionSet rebuilt = h264sis::build_h264_si_set();
  EXPECT_EQ(original, h264::trace_cache_path(rebuilt, config))
      << "same set + config must be deterministic (cache hits at all)";

  DataPathGraph extra(&rebuilt.library());
  extra.add_node(0);
  Molecule cap(rebuilt.atom_type_count());
  cap[0] = 1;
  rebuilt.add_si("DriverTestExtra", std::move(extra), cap, 10);
  EXPECT_NE(original, h264::trace_cache_path(rebuilt, config))
      << "an added SI must change the cache key";
}

TEST(TraceCacheKey, WorkloadConfigIsPartOfTheKey) {
  const SpecialInstructionSet set = h264sis::build_h264_si_set();
  h264::WorkloadConfig config;
  const fs::path original = h264::trace_cache_path(set, config);
  config.encoder.qp += 1;
  EXPECT_NE(original, h264::trace_cache_path(set, config));

  h264::WorkloadConfig noise;
  noise.video.seed += 1;
  EXPECT_NE(original, h264::trace_cache_path(set, noise));
}

TEST(PerfRecordRoundTrip, BenchPerfLogWritesWhatTheDriverParses) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_perf_log_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ::setenv("RISPP_BENCH_JSON_DIR", dir.string().c_str(), 1);
  {
    BenchPerfLog log("driver_roundtrip");
    log.set_cells(12);
  }
  ::unsetenv("RISPP_BENCH_JSON_DIR");

  const auto record = parse_perf_record(dir / "BENCH_driver_roundtrip.json");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->bench, "driver_roundtrip");
  EXPECT_EQ(record->cells, 12.0);
  EXPECT_GE(record->wall_seconds, 0.0);
  EXPECT_GT(record->cells_per_sec, 0.0);
  fs::remove_all(dir);
}

// --- subprocess pool over fake report scripts ------------------------------

/// Writes an executable shell script named `name` into `dir`.
fs::path write_script(const fs::path& dir, const std::string& name,
                      const std::string& body) {
  const fs::path path = dir / name;
  {
    std::ofstream out(path);
    out << "#!/bin/sh\n" << body;
  }
  fs::permissions(path, fs::perms::owner_all | fs::perms::group_read |
                            fs::perms::others_read);
  return path;
}

struct FakeSuite {
  fs::path dir;
  std::vector<fs::path> binaries;
};

FakeSuite make_fake_suite(const std::string& tag) {
  FakeSuite suite;
  suite.dir = fs::path(::testing::TempDir()) / ("rispp_driver_" + tag);
  fs::remove_all(suite.dir);
  fs::create_directories(suite.dir);
  // Deterministic multi-line output plus a perf record, so the pool, the log
  // capture and the json collection are all exercised.
  suite.binaries.push_back(write_script(suite.dir, "alpha",
                                        "i=0\n"
                                        "while [ $i -lt 50 ]; do\n"
                                        "  echo \"alpha line $i\"\n"
                                        "  i=$((i + 1))\n"
                                        "done\n"
                                        "printf '{\"bench\": \"alpha\", "
                                        "\"wall_seconds\": 1.25, \"cells\": 8, "
                                        "\"cells_per_sec\": 6.4}\\n' "
                                        "> \"$RISPP_BENCH_JSON_DIR/BENCH_alpha.json\"\n"));
  suite.binaries.push_back(write_script(suite.dir, "bravo",
                                        "echo \"bravo threads=$RISPP_THREADS\"\n"
                                        "echo \"bravo done\" >&2\n"));
  suite.binaries.push_back(write_script(suite.dir, "charlie", "echo boom\nexit 3\n"));
  return suite;
}

TEST(RunReports, ConcurrentLogsMatchSequentialByteForByte) {
  FakeSuite suite = make_fake_suite("pool");
  DriverOptions sequential;
  sequential.jobs = 1;
  sequential.threads_per_child = 2;
  sequential.out_dir = suite.dir / "seq";
  DriverOptions concurrent = sequential;
  concurrent.jobs = 3;
  concurrent.out_dir = suite.dir / "par";

  std::ostringstream status;
  const auto seq = run_reports(suite.binaries, sequential, status);
  const auto par = run_reports(suite.binaries, concurrent, status);

  ASSERT_EQ(seq.size(), suite.binaries.size());
  ASSERT_EQ(par.size(), suite.binaries.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    // Results keep input order regardless of completion order.
    EXPECT_EQ(seq[i].name, suite.binaries[i].filename().string());
    EXPECT_EQ(par[i].name, seq[i].name);
    EXPECT_EQ(par[i].exit_code, seq[i].exit_code);
    EXPECT_EQ(slurp(par[i].log), slurp(seq[i].log))
        << seq[i].name << " log differs between jobs=1 and jobs=3";
  }
  // Children see their thread share, stdout AND stderr are captured, a
  // failing report keeps its exit code, and the perf record is collected.
  EXPECT_EQ(slurp(seq[1].log), "bravo threads=2\nbravo done\n");
  EXPECT_EQ(seq[2].exit_code, 3);
  ASSERT_TRUE(seq[0].perf.has_value());
  EXPECT_EQ(seq[0].perf->bench, "alpha");
  EXPECT_EQ(seq[0].perf->cells, 8.0);
  // The status stream got one completion line per report per run.
  const std::string lines = status.str();
  EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'),
            static_cast<long>(2 * suite.binaries.size()));
  fs::remove_all(suite.dir);
}

TEST(RunReports, SuiteJsonRoundTripsThroughLoadBaseline) {
  FakeSuite suite = make_fake_suite("suite");
  DriverOptions options;
  options.jobs = 2;
  options.threads_per_child = 1;
  options.out_dir = suite.dir / "out";
  std::ostringstream status;
  const auto results = run_reports(suite.binaries, options, status);

  const fs::path path = options.out_dir / "BENCH_SUITE.json";
  write_suite(results, 8, options, path);
  const auto baseline = load_baseline(path);
  ASSERT_EQ(baseline.size(), 3u);
  // The suite serializes with ostream default precision (6 significant
  // digits) — plenty for a 20 % gate.
  EXPECT_NEAR(baseline.at("alpha").wall_seconds, results[0].wall_seconds,
              1e-4 * (1.0 + results[0].wall_seconds));
  EXPECT_EQ(baseline.at("alpha").cells_per_sec, 6.4);
  EXPECT_GT(baseline.at("bravo").wall_seconds, 0.0);
  EXPECT_TRUE(baseline.count("charlie"));
  fs::remove_all(suite.dir);
}

TEST(RunReports, SuiteRecordKeepsQuotesAndBackslashesInNames) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_driver_escapes";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Both strings the suite writer copies from a report need JSON escapes:
  // the binary name and the bench name its perf record declares.
  const std::vector<fs::path> binaries = {write_script(
      dir, "q\"uo\\te",
      "printf '%s\\n' '{\"bench\": \"q\\\"b\", \"wall_seconds\": 0.5}' "
      "> \"$RISPP_BENCH_JSON_DIR/BENCH_q.json\"\n")};
  DriverOptions options;
  options.jobs = 1;
  options.threads_per_child = 1;
  options.out_dir = dir / "out";
  std::ostringstream status;
  const auto results = run_reports(binaries, options, status);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].perf.has_value());
  EXPECT_EQ(results[0].perf->bench, "q\"b");

  const fs::path path = options.out_dir / "BENCH_SUITE.json";
  write_suite(results, 8, options, path);
  const auto baseline = load_baseline(path);
  ASSERT_EQ(baseline.size(), 1u);
  ASSERT_TRUE(baseline.count("q\"uo\\te")) << slurp(path);
  EXPECT_EQ(baseline.at("q\"uo\\te").bench, "q\"b");
  fs::remove_all(dir);
}

TEST(RunReports, SuiteRecordKeepsControlCharactersInNames) {
  // The suite writer escapes a TAB as \u0009; load_baseline must read the
  // byte back, not the six characters of the escape.
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_driver_control_chars";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ReportResult report;
  report.name = "t\tab";
  report.exit_code = 0;
  report.wall_seconds = 0.25;
  DriverOptions options;
  options.out_dir = dir;
  const fs::path path = dir / "BENCH_SUITE.json";
  write_suite({report}, 8, options, path);
  EXPECT_NE(slurp(path).find("t\\u0009ab"), std::string::npos) << slurp(path);
  const auto baseline = load_baseline(path);
  ASSERT_EQ(baseline.size(), 1u) << slurp(path);
  EXPECT_TRUE(baseline.count("t\tab")) << slurp(path);
  fs::remove_all(dir);
}

// --- metrics snapshots: per-child collection and the suite round trip ------

TEST(ParseMetricsRecord, ReadsCountersAndGauges) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_metrics_record";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "METRICS.json";
  std::ofstream(path) << "{\n  \"counters\": {\n    \"rtm.decision_cache.hits\": 12,\n"
                         "    \"pool.steals\": 3\n  },\n"
                         "  \"gauges\": {\n    \"sim.level\": 0.5\n  }\n}\n";
  const auto metrics = parse_metrics_record(path);
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics.at("rtm.decision_cache.hits"), 12.0);
  EXPECT_EQ(metrics.at("pool.steals"), 3.0);
  EXPECT_EQ(metrics.at("sim.level"), 0.5);
  fs::remove_all(dir);
}

TEST(ParseMetricsRecord, MissingFileIsEmptyNotAnError) {
  const auto metrics =
      parse_metrics_record(fs::path(::testing::TempDir()) / "rispp_no_such_metrics.json");
  EXPECT_TRUE(metrics.empty());
}

TEST(ParseMetricsRecord, CorruptionThrows) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_metrics_corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "METRICS.json";
  // Trailing garbage (concatenated snapshots).
  std::ofstream(path) << "{\"counters\": {\"a\": 1}, \"gauges\": {}}\n"
                         "{\"counters\": {\"a\": 2}, \"gauges\": {}}\n";
  EXPECT_THROW(parse_metrics_record(path), std::logic_error);
  // A duplicated metric name would silently shadow the other occurrence.
  std::ofstream(path, std::ios::trunc)
      << "{\"counters\": {\"a\": 1, \"a\": 2}, \"gauges\": {}}\n";
  EXPECT_THROW(parse_metrics_record(path), std::logic_error);
  // A non-numeric value can only be corruption.
  std::ofstream(path, std::ios::trunc) << "{\"counters\": {\"a\": oops}, \"gauges\": {}}\n";
  EXPECT_THROW(parse_metrics_record(path), std::logic_error);
  // One name in two sections: the flat map could keep only one of them.
  std::ofstream(path, std::ios::trunc) << "{\"counters\": {\"a\": 1}, \"gauges\": {\"a\": 2}}\n";
  EXPECT_THROW(parse_metrics_record(path), std::logic_error);
  fs::remove_all(dir);
}

TEST(ParseMetricsRecord, FoldsALiveSnapshotLikeStatsFlatten) {
  metric_histogram("driver.test.wait_cycles", {"tenant", 2}).record(40);
  metric_histogram("driver.test.wait_cycles", {"tenant", 2}).record(900);
  const fs::path path = fs::path(::testing::TempDir()) / "rispp_metrics_live.json";
  ASSERT_TRUE(write_metrics_json(path.string()));
  const auto metrics = parse_metrics_record(path);
  stats::MetricsDocument doc;
  std::string error;
  ASSERT_TRUE(stats::load_metrics_document(path.string(), doc, error)) << error;
  EXPECT_EQ(metrics, stats::flatten(doc));
  for (const char* field : {"count", "sum", "min", "max", "p50", "p90", "p99"})
    EXPECT_EQ(metrics.count(std::string("driver.test.wait_cycles{tenant=2}.") + field), 1u)
        << field;
  EXPECT_EQ(metrics.at("driver.test.wait_cycles{tenant=2}.count"), 2.0);
  fs::remove(path);
}

TEST(RunReports, CollectsChildMetricsSnapshots) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_driver_metrics";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // A fake report that writes its registry snapshot to $RISPP_METRICS, the
  // way init_metrics_from_env() does at exit in a real report.
  const std::vector<fs::path> binaries = {write_script(
      dir, "metricful",
      "printf '{\\n  \"counters\": {\\n    \"child.counter\": 5\\n  },\\n"
      "  \"gauges\": {\\n    \"child.gauge\": 1.5\\n  }\\n}\\n' > \"$RISPP_METRICS\"\n")};
  DriverOptions options;
  options.jobs = 1;
  options.threads_per_child = 1;
  options.out_dir = dir / "out";
  std::ostringstream status;
  const auto results = run_reports(binaries, options, status);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].exit_code, 0);
  ASSERT_EQ(results[0].metrics.size(), 2u);
  EXPECT_EQ(results[0].metrics.at("child.counter"), 5.0);
  EXPECT_EQ(results[0].metrics.at("child.gauge"), 1.5);

  // The suite record carries the nested metrics subobject, and load_baseline
  // still reads the chunk correctly despite the nested braces.
  const fs::path suite_path = options.out_dir / "BENCH_SUITE.json";
  write_suite(results, 8, options, suite_path);
  const std::string text = slurp(suite_path);
  EXPECT_NE(text.find("\"metrics\": {\"child.counter\": 5, \"child.gauge\": 1.5}"),
            std::string::npos)
      << text;
  const auto baseline = load_baseline(suite_path);
  ASSERT_EQ(baseline.size(), 1u);
  EXPECT_NEAR(baseline.at("metricful").wall_seconds, results[0].wall_seconds,
              1e-4 * (1.0 + results[0].wall_seconds));
  EXPECT_EQ(baseline.at("metricful").metrics, results[0].metrics);
  fs::remove_all(dir);
}

TEST(RunReports, TraceDirControlsChildTraceEnv) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_driver_trace_env";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // The fake report records what RISPP_TRACE it saw.
  const std::vector<fs::path> binaries = {write_script(
      dir, "tracer", "printf '%s' \"${RISPP_TRACE-unset}\" > \"$RISPP_BENCH_JSON_DIR/env.txt\"\n")};
  DriverOptions options;
  options.jobs = 1;
  options.threads_per_child = 1;
  options.out_dir = dir / "out";
  options.trace_dir = dir / "traces";
  std::ostringstream status;
  (void)run_reports(binaries, options, status);
  EXPECT_EQ(slurp(options.out_dir / "json" / "tracer" / "env.txt"),
            (options.trace_dir / "tracer.trace.json").string());

  // Without --trace-dir the child must see RISPP_TRACE *unset*, even when the
  // driver process itself is being traced: children would otherwise all
  // overwrite the parent's trace file at exit.
  ::setenv("RISPP_TRACE", "/tmp/parent.trace.json", 1);
  options.trace_dir.clear();
  options.out_dir = dir / "out2";
  (void)run_reports(binaries, options, status);
  ::unsetenv("RISPP_TRACE");
  EXPECT_EQ(slurp(options.out_dir / "json" / "tracer" / "env.txt"), "unset");
  fs::remove_all(dir);
}

// --- scanner hardening: corrupted records are loud errors, never misreads --

/// A syntactically complete suite file with one report entry, produced by the
/// real writer so the happy path stays a true round trip.
fs::path write_minimal_suite(const fs::path& dir, const std::string& extra = "") {
  fs::create_directories(dir);
  const fs::path path = dir / "BENCH_SUITE.json";
  std::ofstream out(path);
  out << "{\n  \"frames\": 8,\n  \"jobs\": 1,\n  \"threads_per_child\": 1,\n"
         "  \"reports\": [\n"
         "    {\"name\": \"alpha\", \"exit_code\": 0, \"wall_seconds\": 1.5,"
         " \"bench\": \"alpha\", \"cells\": 4, \"cells_per_sec\": 2.7}\n  ]\n}\n"
      << extra;
  return path;
}

TEST(ScannerHardening, TrailingGarbageAfterSuiteObjectThrows) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_scan_trailing";
  fs::remove_all(dir);
  const fs::path path = write_minimal_suite(dir, "{\"stale\": 1}\n");
  EXPECT_THROW(load_baseline(path), std::logic_error);
  fs::remove_all(dir);
}

TEST(ScannerHardening, CleanSuiteStillRoundTrips) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_scan_clean";
  fs::remove_all(dir);
  const fs::path path = write_minimal_suite(dir);
  const auto baseline = load_baseline(path);
  ASSERT_EQ(baseline.size(), 1u);
  EXPECT_EQ(baseline.at("alpha").wall_seconds, 1.5);
  EXPECT_EQ(baseline.at("alpha").cells_per_sec, 2.7);
  fs::remove_all(dir);
}

TEST(ScannerHardening, DuplicateKeyInSuiteChunkThrows) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_scan_dup_chunk";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "BENCH_SUITE.json";
  // wall_seconds appears twice in one report chunk: the first-occurrence scan
  // would silently pick 0.1 and the gate would compare against the wrong run.
  std::ofstream(path) << "{\n  \"reports\": [\n"
                         "    {\"name\": \"alpha\", \"wall_seconds\": 0.1, "
                         "\"wall_seconds\": 9.9}\n  ]\n}\n";
  EXPECT_THROW(load_baseline(path), std::logic_error);
  fs::remove_all(dir);
}

TEST(ScannerHardening, DuplicateKeyInPerfRecordThrows) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_scan_dup_record";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "BENCH_dup.json";
  std::ofstream(path) << "{\"bench\": \"dup\", \"bench\": \"shadow\", "
                         "\"wall_seconds\": 1.0}\n";
  EXPECT_THROW(parse_perf_record(path), std::logic_error);
  fs::remove_all(dir);
}

TEST(ScannerHardening, TrailingGarbageAfterPerfRecordThrows) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_scan_trailing_record";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "BENCH_two.json";
  // Two concatenated records (e.g. a botched append instead of O_TRUNC).
  std::ofstream(path) << "{\"bench\": \"two\", \"wall_seconds\": 1.0}\n"
                         "{\"bench\": \"two\", \"wall_seconds\": 2.0}\n";
  EXPECT_THROW(parse_perf_record(path), std::logic_error);
  fs::remove_all(dir);
}

TEST(ScannerHardening, QuotedBracesAndEscapesDoNotConfuseTheObjectCheck) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_scan_quoted";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path path = dir / "BENCH_braces.json";
  std::ofstream(path) << "{\"bench\": \"br{ce}s\\\"\", \"wall_seconds\": 1.0}\n";
  const auto record = parse_perf_record(path);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->bench, "br{ce}s\"");  // the escaped quote decodes
  fs::remove_all(dir);
}

TEST(ScannerHardening, MissingBaselineFileIsEmptyNotAnError) {
  // The CLI turns an empty map into its own clean "empty or unreadable"
  // diagnostic (exit 2); the strict checks only police content that exists.
  const auto baseline =
      load_baseline(fs::path(::testing::TempDir()) / "rispp_scan_missing.json");
  EXPECT_TRUE(baseline.empty());
}

TEST(LoadBaseline, ReadsADirectoryOfPerfRecords) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_baseline_dir";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "BENCH_alpha.json")
      << "{\"bench\": \"alpha\", \"wall_seconds\": 2.5, \"cells\": 4, "
         "\"cells_per_sec\": 1.6}\n";
  std::ofstream(dir / "not_a_record.txt") << "ignore me\n";
  const auto baseline = load_baseline(dir);
  ASSERT_EQ(baseline.size(), 1u);
  EXPECT_EQ(baseline.at("alpha").wall_seconds, 2.5);
  fs::remove_all(dir);
}

TEST(LoadBaseline, SetupMismatchesNameTheFieldAndBothValues) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_baseline_setup";
  fs::remove_all(dir);
  fs::create_directories(dir);
  // The committed baseline's setup: 8 frames, one job, one thread each.
  DriverOptions recorded;
  recorded.jobs = 1;
  recorded.threads_per_child = 1;
  const fs::path path = dir / "BENCH_SUITE.json";
  write_suite({}, 8, recorded, path);
  EXPECT_TRUE(baseline_setup_mismatches(path, 8, recorded).empty());

  // CI's old gate run: every core as a job, against that baseline.
  DriverOptions run;
  run.jobs = 4;
  run.threads_per_child = 1;
  EXPECT_EQ(baseline_setup_mismatches(path, 8, run),
            std::vector<std::string>{"jobs: this run 4, baseline 1"});
  run.threads_per_child = 2;
  EXPECT_EQ(baseline_setup_mismatches(path, 140, run),
            (std::vector<std::string>{"frames: this run 140, baseline 8",
                                      "jobs: this run 4, baseline 1",
                                      "threads_per_child: this run 2, baseline 1"}));

  // Only fields the record carries are compared; a directory has no record.
  std::ofstream(dir / "partial.json") << "{\"frames\": 8, \"reports\": []}\n";
  EXPECT_TRUE(baseline_setup_mismatches(dir / "partial.json", 8, run).empty());
  EXPECT_TRUE(baseline_setup_mismatches(dir, 140, run).empty());
  std::ofstream(dir / "typed.json") << "{\"frames\": \"8\", \"reports\": []}\n";
  EXPECT_THROW(baseline_setup_mismatches(dir / "typed.json", 8, run), std::logic_error);
  fs::remove_all(dir);
}

// --- the perf-regression gate ----------------------------------------------

ReportResult make_result(const std::string& name, double wall, double rate = 0.0) {
  ReportResult r;
  r.name = name;
  r.exit_code = 0;
  r.wall_seconds = wall;
  if (rate > 0.0) {
    PerfRecord perf;
    perf.bench = name;
    perf.wall_seconds = wall;
    perf.cells_per_sec = rate;
    r.perf = perf;
  }
  return r;
}

PerfRecord make_base(const std::string& name, double wall, double rate = 0.0) {
  PerfRecord record;
  record.bench = name;
  record.wall_seconds = wall;
  record.cells_per_sec = rate;
  return record;
}

TEST(RegressionGate, FailsOnInjectedSlowdown) {
  // 1.0 s -> 1.5 s is a 50 % slowdown: far over the 20 % budget and far over
  // the 50 ms jitter slack, so the gate must fail.
  const std::vector<ReportResult> results = {make_result("slow", 1.5)};
  const std::map<std::string, PerfRecord> baseline = {{"slow", make_base("slow", 1.0)}};
  const auto gate = compare_against_baseline(results, baseline, 0.20);
  ASSERT_EQ(gate.deltas.size(), 1u);
  EXPECT_TRUE(gate.deltas[0].regressed);
  EXPECT_TRUE(gate.failed);
  EXPECT_NE(render_regression_table(gate).find("REGRESSED"), std::string::npos);
}

TEST(RegressionGate, PassesWithinBudget) {
  const std::vector<ReportResult> results = {make_result("steady", 1.1)};
  const std::map<std::string, PerfRecord> baseline = {
      {"steady", make_base("steady", 1.0)}};
  const auto gate = compare_against_baseline(results, baseline, 0.20);
  ASSERT_EQ(gate.deltas.size(), 1u);
  EXPECT_FALSE(gate.deltas[0].regressed);
  EXPECT_FALSE(gate.failed);
}

TEST(RegressionGate, TinyAbsoluteGrowthIsJitterNotRegression) {
  // 8 ms -> 14 ms is a 75 % relative slowdown but only 6 ms absolute — below
  // the 50 ms slack, where scheduler jitter swamps any real signal.
  const std::vector<ReportResult> results = {make_result("tiny", 0.014)};
  const std::map<std::string, PerfRecord> baseline = {{"tiny", make_base("tiny", 0.008)}};
  EXPECT_FALSE(compare_against_baseline(results, baseline, 0.20).failed);
}

TEST(RegressionGate, FailsOnCellsPerSecDrop) {
  // Wall holds steady but the recorded throughput fell 30 %.
  const std::vector<ReportResult> results = {make_result("rate", 1.0, 700.0)};
  const std::map<std::string, PerfRecord> baseline = {
      {"rate", make_base("rate", 1.0, 1000.0)}};
  const auto gate = compare_against_baseline(results, baseline, 0.20);
  ASSERT_EQ(gate.deltas.size(), 1u);
  EXPECT_TRUE(gate.failed);
}

TEST(RegressionGate, NewAndMissingReportsNeverFailTheGate) {
  const std::vector<ReportResult> results = {make_result("brand_new", 9.0)};
  const std::map<std::string, PerfRecord> baseline = {
      {"retired", make_base("retired", 1.0)}};
  const auto gate = compare_against_baseline(results, baseline, 0.20);
  EXPECT_TRUE(gate.deltas.empty());  // brand_new has no baseline: no delta
  ASSERT_EQ(gate.missing.size(), 1u);
  EXPECT_EQ(gate.missing[0], "retired");
  EXPECT_FALSE(gate.failed);
}

TEST(RegressionGate, FailedReportsAreGatedByExitCodeNotPerf) {
  ReportResult crashed = make_result("crashed", 10.0);
  crashed.exit_code = 139;
  const std::map<std::string, PerfRecord> baseline = {
      {"crashed", make_base("crashed", 1.0)}};
  // The run itself already fails on the non-zero exit; the gate skips it.
  EXPECT_FALSE(compare_against_baseline({crashed}, baseline, 0.20).failed);
}

TEST(RegressionGate, ExactCounterMismatchFailsAndNamesEverything) {
  // Wall-clock and throughput are steady; one gated counter moved by one.
  ReportResult r = make_result("fig7", 1.0);
  r.metrics = {{"port.loads_started", 9949}, {"sim.hot_spot_entries", 1840},
               {"rtm.si_upgrades", 8452}};
  PerfRecord base = make_base("fig7", 1.0);
  base.metrics = {{"port.loads_started", 9948}, {"sim.hot_spot_entries", 1840},
                  {"rtm.si_upgrades", 8452}};
  const auto gate = compare_against_baseline({r}, {{"fig7", base}}, 0.20);
  EXPECT_TRUE(gate.failed);
  ASSERT_EQ(gate.counter_mismatches.size(), 1u);
  EXPECT_EQ(gate.counter_mismatches[0], "fig7: port.loads_started 9949 vs baseline 9948");
  ASSERT_EQ(gate.deltas.size(), 1u);
  EXPECT_FALSE(gate.deltas[0].regressed);
}

TEST(RegressionGate, ExactCountersGateOnlyWhatTheBaselineCarries) {
  ReportResult r = make_result("fleet", 1.0);
  r.metrics = {{"rtm.si_upgrades", 22209}, {"rtm.decision_cache.misses", 900},
               {"sched.hef.candidates_evaluated", 12}};
  PerfRecord base = make_base("fleet", 1.0);
  // Ungated counters may move (shared-memo interleaving), and a gated
  // counter the baseline lacks is not compared.
  base.metrics = {{"rtm.si_upgrades", 22209}, {"rtm.decision_cache.misses", 1000},
                  {"sched.hef.candidates_evaluated", 15}};
  EXPECT_FALSE(compare_against_baseline({r}, {{"fleet", base}}, 0.20).failed);

  // A gated counter the run no longer reports is a mismatch.
  base.metrics["sim.hot_spot_entries"] = 46;
  const auto gate = compare_against_baseline({r}, {{"fleet", base}}, 0.20);
  EXPECT_TRUE(gate.failed);
  ASSERT_EQ(gate.counter_mismatches.size(), 1u);
  EXPECT_EQ(gate.counter_mismatches[0], "fleet: sim.hot_spot_entries absent vs baseline 46");
}

TEST(DiscoverReports, FindsExecutablesAndSkipsMicroOps) {
  const fs::path dir = fs::path(::testing::TempDir()) / "rispp_discover";
  fs::remove_all(dir);
  fs::create_directories(dir);
  write_script(dir, "zeta", "exit 0\n");
  write_script(dir, "alpha", "exit 0\n");
  write_script(dir, "micro_ops", "exit 0\n");
  std::ofstream(dir / "notes.txt") << "not executable\n";
  const auto reports = discover_reports(dir);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].filename().string(), "alpha");  // sorted
  EXPECT_EQ(reports[1].filename().string(), "zeta");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace rispp::bench
