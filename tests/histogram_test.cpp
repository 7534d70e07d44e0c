// MetricHistogram laws (bucket math, quantile error bound, merge algebra,
// concurrent-record determinism), the labeled-scope registration, the flight
// recorder's flush contract, and the hard guarantee that recording metrics —
// with the flight recorder running — never changes a simulated result.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "base/env.h"
#include "base/metrics.h"
#include "base/quantile.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp {
namespace {

namespace fs = std::filesystem;

/// Deterministic 64-bit mix (splitmix64) so the sample sets are identical
/// across runs and threads without touching the process PRNG.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- bucket math -----------------------------------------------------------

TEST(Histogram, BucketMathIsMonotonicWithTightBounds) {
  // Small values are exact: the bucket's upper bound is the value itself.
  for (std::uint64_t v = 0; v < 2 * MetricHistogram::kSubBuckets; ++v)
    EXPECT_EQ(MetricHistogram::bucket_upper_bound(MetricHistogram::bucket_index(v)), v);

  // Everywhere: the bound holds the value, never undershoots, and the
  // relative overshoot stays within one sub-bucket (1/32).
  std::uint64_t prev_index = 0;
  for (std::uint64_t v = 1; v < (1ull << 40); v = v * 21 / 13 + 1) {
    const std::size_t index = MetricHistogram::bucket_index(v);
    ASSERT_LT(index, MetricHistogram::kBucketCount);
    const std::uint64_t upper = MetricHistogram::bucket_upper_bound(index);
    EXPECT_GE(upper, v);
    EXPECT_LE(upper - v, v / MetricHistogram::kSubBuckets) << v;
    EXPECT_GE(index, prev_index) << "bucket index must be monotone in the value";
    prev_index = index;
  }
  // The extremes stay in range.
  EXPECT_LT(MetricHistogram::bucket_index(~0ull), MetricHistogram::kBucketCount);
}

TEST(Histogram, SnapshotTracksCountSumMinMax) {
  MetricHistogram hist;
  const std::vector<std::uint64_t> values = {7, 0, 1'000'000, 63, 64, 65, 12'345};
  std::uint64_t sum = 0;
  for (const std::uint64_t v : values) {
    hist.record(v);
    sum += v;
  }
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, values.size());
  EXPECT_EQ(snap.sum, sum);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 1'000'000u);
  std::uint64_t bucket_total = 0;
  for (const auto& [upper, count] : snap.buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, snap.count);
}

// --- quantile error bound --------------------------------------------------

TEST(Histogram, QuantileStaysWithinTheRelativeErrorBound) {
  MetricHistogram hist;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20'000; ++i) {
    // A heavy-tailed deterministic distribution spanning several octaves.
    const std::uint64_t v = mix64(i) % (1ull << (8 + i % 24));
    values.push_back(v);
    hist.record(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = hist.snapshot();
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    const std::uint64_t exact = percentile_sorted(values, q);
    const std::uint64_t approx = snap.p(q);
    EXPECT_GE(approx, exact) << q;
    // Upper bound: the exact statistic's own bucket ceiling.
    EXPECT_LE(approx, exact + exact / MetricHistogram::kSubBuckets) << q;
  }
  // Degenerate quantiles clamp instead of walking off the ends.
  EXPECT_GE(snap.p(0.0), snap.min);
  EXPECT_LE(snap.p(1.0), snap.max);
}

TEST(Histogram, EmptySnapshotIsWellDefined) {
  MetricHistogram hist;
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.p(0.5), 0u);
  EXPECT_TRUE(snap.buckets.empty());
  EXPECT_EQ(snap.fraction_at_most(123), 1.0);
}

// --- merge algebra ---------------------------------------------------------

HistogramSnapshot filled(std::uint64_t seed, int n) {
  MetricHistogram hist;
  for (int i = 0; i < n; ++i) hist.record(mix64(seed * 1'000'003 + i) % 500'000);
  return hist.snapshot();
}

bool same_snapshot(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  return a.count == b.count && a.sum == b.sum && a.min == b.min && a.max == b.max &&
         a.buckets == b.buckets;
}

TEST(Histogram, MergeIsCommutativeAndAssociative) {
  const HistogramSnapshot a = filled(1, 900);
  const HistogramSnapshot b = filled(2, 1'100);
  const HistogramSnapshot c = filled(3, 500);

  HistogramSnapshot ab = a;
  ab.merge(b);
  HistogramSnapshot ba = b;
  ba.merge(a);
  EXPECT_TRUE(same_snapshot(ab, ba));

  HistogramSnapshot ab_c = ab;
  ab_c.merge(c);
  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(same_snapshot(ab_c, a_bc));

  // The identity: merging an empty snapshot changes nothing.
  HistogramSnapshot a_id = a;
  a_id.merge(HistogramSnapshot{});
  EXPECT_TRUE(same_snapshot(a_id, a));
  HistogramSnapshot id_a;
  id_a.merge(a);
  EXPECT_TRUE(same_snapshot(id_a, a));
}

// --- concurrent recording --------------------------------------------------

TEST(Histogram, ConcurrentRecordingMatchesSequential) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;

  MetricHistogram sequential;
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      sequential.record(mix64(t * 100'000 + i) % 1'000'000);

  MetricHistogram concurrent;
  std::atomic<int> go{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, &go, t] {
      go.fetch_add(1);
      while (go.load() < kThreads) {
      }
      for (int i = 0; i < kPerThread; ++i)
        concurrent.record(mix64(t * 100'000 + i) % 1'000'000);
    });
  }
  for (auto& t : threads) t.join();

  // Same multiset in, same merged snapshot out — shard striping must not
  // lose or double-count a sample regardless of the thread interleaving.
  EXPECT_TRUE(same_snapshot(sequential.snapshot(), concurrent.snapshot()));
}

// --- labeled scopes --------------------------------------------------------

TEST(Histogram, LabeledScopeRegistersOneCanonicalSeries) {
  MetricHistogram& a = metric_histogram("test.hist.labeled", {"tenant", 3});
  MetricHistogram& b = metric_histogram("test.hist.labeled", {"tenant", 3});
  // The same (name, label) pair resolves to one registration; spelling the
  // canonical form out by hand is rejected — the labeled overload is the
  // only way to mint a series, so collisions cannot happen by concatenation.
  EXPECT_EQ(&a, &b);
  EXPECT_THROW((void)metric_histogram("test.hist.labeled{tenant=3}"), std::logic_error);
  MetricHistogram& other = metric_histogram("test.hist.labeled", {"tenant", 4});
  EXPECT_NE(&a, &other);

  a.record(42);
  bool found = false;
  for (const auto& [name, snap] : metrics_histogram_snapshot())
    if (name == "test.hist.labeled{tenant=3}") {
      found = true;
      EXPECT_GE(snap.count, 1u);
    }
  EXPECT_TRUE(found);
}

TEST(Histogram, MalformedNamesAndLabelsAreRejected) {
  // '{', '}', '=' and '"' would break the canonical "<name>{<key>=<value>}"
  // form (and the JSON snapshot), so registration throws on them.
  EXPECT_THROW((void)metric_histogram("bad{name"), std::logic_error);
  EXPECT_THROW((void)metric_histogram("test.hist.ok", {"te=nant", 1}), std::logic_error);
  EXPECT_THROW((void)metric_histogram("test.hist.ok", {"", 1}), std::logic_error);
}

// --- snapshot JSON ---------------------------------------------------------

TEST(Histogram, SnapshotJsonCarriesHistogramsAndValidates) {
  metric_histogram("test.hist.json", {"tenant", 7}).record(1234);
  metric_histogram("test.hist.json", {"tenant", 7}).record(88);
  const std::string json = metrics_snapshot_json();
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("test.hist.json{tenant=7}"), std::string::npos);

  std::istringstream in(json);
  const auto problem = validate_metrics_json(in);
  EXPECT_FALSE(problem.has_value()) << *problem;
}

// --- flight recorder -------------------------------------------------------

TEST(FlightRecorder, RingFlushesOnStopAndValidates) {
  const fs::path ring_path =
      fs::path(::testing::TempDir()) / "rispp_flight_ring.json";
  fs::remove(ring_path);

  FlightRecorderOptions options;
  options.interval_ms = 1;
  options.ring_path = ring_path.string();
  options.ring_capacity = 8;
  start_flight_recorder(options);
  metric_counter("test.flight.ticks").add(5);
  metric_histogram("test.flight.lat").record(999);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop_flight_recorder();

  std::ifstream in(ring_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << ring_path;
  const auto problem = validate_metrics_json(in);
  EXPECT_FALSE(problem.has_value()) << *problem;

  std::ifstream reread(ring_path, std::ios::binary);
  std::ostringstream buffer;
  buffer << reread.rdbuf();
  const std::string text = buffer.str();
  // The final window (taken at stop) must see both series.
  EXPECT_NE(text.find("\"windows\""), std::string::npos);
  EXPECT_NE(text.find("test.flight.ticks"), std::string::npos);
  EXPECT_NE(text.find("test.flight.lat"), std::string::npos);
  fs::remove(ring_path);

  // Stop with no recorder running stays a no-op.
  stop_flight_recorder();
}

TEST(FlightRecorder, RecorderNeverChangesSimulationResults) {
  const auto set = h264sis::build_h264_si_set();
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, satd}, 8}};
  HotSpotInstance inst;
  inst.hot_spot = 0;
  inst.entry_overhead = 1000;
  for (int i = 0; i < 12'000; ++i) inst.append(i % 8 == 7 ? satd : sad);
  trace.instances.push_back(std::move(inst));

  const auto run_once = [&]() {
    auto sched = make_scheduler("HEF");
    RtmConfig config;
    config.container_count = 14;
    config.scheduler = sched.get();
    RunTimeManager rtm(&set, 3, config);
    h264::seed_default_forecasts(set, rtm);
    return run_trace(trace, rtm);
  };
  const SimResult off = run_once();

  FlightRecorderOptions options;
  options.interval_ms = 1;  // sample as aggressively as the knob allows
  start_flight_recorder(options);
  const SimResult on = run_once();
  stop_flight_recorder();

  EXPECT_EQ(on.total_cycles, off.total_cycles);
  EXPECT_EQ(on.si_executions, off.si_executions);
  EXPECT_EQ(on.atom_loads, off.atom_loads);
  EXPECT_EQ(on.hot_spot_cycles, off.hot_spot_cycles);
}

TEST(FlightRecorderDeathTest, GarbageIntervalExitsLoudly) {
  ::setenv("RISPP_METRICS_INTERVAL_MS", "fast", 1);
  EXPECT_EXIT(init_flight_recorder_from_env(), ::testing::ExitedWithCode(kEnvParseExitCode),
              "RISPP_METRICS_INTERVAL_MS");
  ::setenv("RISPP_METRICS_INTERVAL_MS", "-3", 1);
  EXPECT_EXIT(init_flight_recorder_from_env(), ::testing::ExitedWithCode(kEnvParseExitCode),
              "RISPP_METRICS_INTERVAL_MS");
  ::unsetenv("RISPP_METRICS_INTERVAL_MS");
}

// --- the shared percentile path --------------------------------------------

TEST(Histogram, RecordAndPercentilesKeepsExactValuesBitExact) {
  // The reported points must reproduce the historical sort-based values
  // exactly (same index rule), while the whole distribution lands in the
  // histogram.
  std::vector<double> values;
  for (int i = 0; i < 1'000; ++i)
    values.push_back(static_cast<double>(mix64(i) % 100'000) / 7.0);

  std::vector<double> reference = values;
  std::sort(reference.begin(), reference.end());
  const double want_p50 = reference[values.size() / 2];
  const double want_p99 = reference[static_cast<std::size_t>(0.99 * values.size())];

  MetricHistogram& hist = metric_histogram("test.hist.record_pcts");
  std::vector<double> exact_in = values;
  const PercentilePair<double> exact = record_and_percentiles(exact_in, hist, 1000.0);
  EXPECT_EQ(exact.p50, want_p50);
  EXPECT_EQ(exact.p99, want_p99);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_GE(snap.count, values.size());

  // A snapshot reader answers from the histogram: bounded above by the
  // bucket width. llround at record time can shave up to half a unit
  // (0.0005 here).
  const double sketch_p50 = static_cast<double>(snap.p(0.50)) / 1000.0;
  const double sketch_p99 = static_cast<double>(snap.p(0.99)) / 1000.0;
  EXPECT_GE(sketch_p50, want_p50 - 1e-3);
  EXPECT_LE(sketch_p50, want_p50 * (1.0 + 1.0 / MetricHistogram::kSubBuckets) + 1e-3);
  EXPECT_GE(sketch_p99, want_p99 - 1e-3);
  EXPECT_LE(sketch_p99, want_p99 * (1.0 + 1.0 / MetricHistogram::kSubBuckets) + 1e-3);
}

}  // namespace
}  // namespace rispp
