// Tests for traces, the cycle-level executor and bucketed statistics.
#include <gtest/gtest.h>

#include <sstream>

#include "baselines/software_only.h"
#include "isa/h264_si_library.h"
#include "sim/executor.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace rispp {
namespace {

WorkloadTrace tiny_trace() {
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"A", {0, 1}, 5}, HotSpotInfo{"B", {1}, 3}};
  trace.instances = {
      HotSpotInstance{0, {0, 1, 0}, 100},
      HotSpotInstance{1, {1, 1}, 50},
  };
  return trace;
}

/// Backend with fixed latencies for executor arithmetic tests.
class FixedBackend final : public ExecutionBackend {
 public:
  explicit FixedBackend(std::vector<Cycles> latencies) : latencies_(std::move(latencies)) {}
  std::string_view name() const override { return "Fixed"; }
  void on_hot_spot_entry(const WorkloadTrace&, std::size_t, Cycles) override { ++entries_; }
  void on_hot_spot_exit(Cycles) override { ++exits_; }
  Cycles si_execution_latency(SiId si, Cycles) override { return latencies_[si]; }
  int entries_ = 0, exits_ = 0;

 private:
  std::vector<Cycles> latencies_;
};

TEST(Executor, AccountsOverheadsAndLatencies) {
  const WorkloadTrace trace = tiny_trace();
  FixedBackend backend({10, 20});
  SimStats stats(2);
  const SimResult result = run_trace(trace, backend, &stats);
  // Instance 0: 100 entry + (10+5)+(20+5)+(10+5) = 155.
  // Instance 1: 50 entry + (20+3)+(20+3) = 96.
  EXPECT_EQ(result.total_cycles, 155u + 96u);
  EXPECT_EQ(result.si_executions, 5u);
  EXPECT_EQ(backend.entries_, 2);
  EXPECT_EQ(backend.exits_, 2);
  EXPECT_EQ(stats.executions(0), 2u);
  EXPECT_EQ(stats.executions(1), 3u);
  ASSERT_EQ(result.hot_spot_cycles.size(), 2u);
  EXPECT_EQ(result.hot_spot_cycles[0], 155u);
  EXPECT_EQ(result.hot_spot_cycles[1], 96u);
}

TEST(Stats, BucketsSplitAt100KCycles) {
  SimStats stats(1);
  stats.record_execution(0, 0, 10);
  stats.record_execution(0, 99'999, 10);
  stats.record_execution(0, 100'000, 10);
  stats.record_execution(0, 250'000, 10);
  EXPECT_EQ(stats.bucket_executions(0, 0), 2u);
  EXPECT_EQ(stats.bucket_executions(0, 1), 1u);
  EXPECT_EQ(stats.bucket_executions(0, 2), 1u);
  EXPECT_EQ(stats.bucket_executions(0, 3), 0u);
  EXPECT_EQ(stats.bucket_count(), 3u);
  EXPECT_EQ(stats.total_executions(), 4u);
}

TEST(Stats, LatencyTimelineRecordsChangePoints) {
  SimStats stats(1);
  stats.record_execution(0, 10, 500);
  stats.record_execution(0, 20, 500);  // same latency -> no new point
  stats.record_execution(0, 30, 100);
  const auto& tl = stats.latency_timeline(0);
  ASSERT_EQ(tl.size(), 2u);
  EXPECT_EQ(tl[0].at, 10u);
  EXPECT_EQ(tl[0].latency, 500u);
  EXPECT_EQ(tl[1].at, 30u);
  EXPECT_EQ(tl[1].latency, 100u);
}

TEST(Trace, TotalsAndPerSiCounts) {
  const WorkloadTrace trace = tiny_trace();
  EXPECT_EQ(trace.total_si_executions(), 5u);
  EXPECT_EQ(trace.executions_of(0), 2u);
  EXPECT_EQ(trace.executions_of(1), 3u);
  EXPECT_EQ(trace.executions_of(7), 0u);
}

TEST(Trace, AppendMergesRuns) {
  HotSpotInstance inst;
  inst.append(3);
  inst.append(3, 4);   // same SI: merged into the open run
  inst.append(5, 0);   // zero count: no-op, no empty run
  inst.append(5, 2);
  inst.append(3);      // a new run, not merged across the 5s
  const std::vector<SiRun> expected{{3, 5}, {5, 2}, {3, 1}};
  EXPECT_EQ(inst.runs, expected);
  EXPECT_EQ(inst.execution_count, 8u);
  // The flat-sequence constructor encodes through append().
  const HotSpotInstance encoded{0, {3, 3, 3, 3, 3, 5, 5, 3}, 0};
  EXPECT_EQ(encoded.runs, expected);
  EXPECT_EQ(encoded.execution_count, 8u);
}

TEST(Trace, BinaryRoundTrip) {
  const WorkloadTrace trace = tiny_trace();
  std::stringstream ss;
  trace.save(ss);
  const WorkloadTrace loaded = WorkloadTrace::load(ss);
  ASSERT_EQ(loaded.hot_spots.size(), trace.hot_spots.size());
  EXPECT_EQ(loaded.hot_spots[0].name, "A");
  EXPECT_EQ(loaded.hot_spots[0].sis, trace.hot_spots[0].sis);
  EXPECT_EQ(loaded.hot_spots[1].per_execution_overhead, 3u);
  ASSERT_EQ(loaded.instances.size(), trace.instances.size());
  EXPECT_EQ(loaded.instances[0].runs, trace.instances[0].runs);
  EXPECT_EQ(loaded.instances[0].execution_count, 3u);
  EXPECT_EQ(loaded.instances[1].entry_overhead, 50u);
}

TEST(Trace, RejectsGarbage) {
  std::stringstream ss;
  ss << "this is not a trace";
  EXPECT_THROW(WorkloadTrace::load(ss), std::logic_error);
}

TEST(Trace, RoundTripCarriesRuns) {
  const WorkloadTrace trace = tiny_trace();
  std::stringstream ss;
  trace.save(ss);
  const WorkloadTrace loaded = WorkloadTrace::load(ss);
  ASSERT_EQ(loaded.instances.size(), trace.instances.size());
  for (std::size_t i = 0; i < trace.instances.size(); ++i) {
    EXPECT_EQ(loaded.instances[i].runs, trace.instances[i].runs);
    EXPECT_EQ(loaded.instances[i].execution_count, trace.instances[i].execution_count);
  }
  EXPECT_EQ(loaded.total_si_executions(), trace.total_si_executions());
  EXPECT_EQ(loaded.executions_of(0), trace.executions_of(0));
  EXPECT_EQ(loaded.executions_of(1), trace.executions_of(1));
}

/// Expects load() of `bytes` to throw a logic_error whose message contains
/// `needle`.
void expect_rejected(const std::string& bytes, const std::string& needle) {
  std::stringstream ss(bytes);
  try {
    WorkloadTrace::load(ss);
    FAIL() << "trace was not rejected (expected \"" << needle << "\")";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(Trace, RejectsV1FormatWithRegenerateMessage) {
  // A v1 file ("RTRC" magic, no serialized runs) must be rejected outright,
  // not misparsed: the magic changed with the format.
  std::stringstream ss;
  const std::uint32_t v1_magic = 0x52545243;
  ss.write(reinterpret_cast<const char*>(&v1_magic), sizeof v1_magic);
  const std::uint32_t hot_spots = 1;  // plausible v1 payload after the magic
  ss.write(reinterpret_cast<const char*>(&hot_spots), sizeof hot_spots);
  expect_rejected(ss.str(), "regenerate");
}

TEST(Trace, RejectsV2FormatWithRegenerateMessage) {
  // v2 stored flat executions next to the runs; its magic is rejected the
  // same way, whatever follows it.
  std::string v2 = "\x43\x52\x54\x32";  // 0x32545243 little-endian
  expect_rejected(v2, "regenerate");
  v2.append(64, '\0');
  expect_rejected(v2, "regenerate");
}

TEST(Trace, RejectsDigestMismatch) {
  std::stringstream ss;
  tiny_trace().save(ss);
  const std::string good = ss.str();
  for (const std::size_t at : {std::size_t{4}, good.size() / 2, good.size() - 1}) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    expect_rejected(bad, "digest");
  }
}

TEST(Trace, RejectsInconsistentRuns) {
  // save() writes whatever runs an instance holds under a valid digest;
  // load() still rejects any run form that is not maximal, and hot-spot
  // indices outside the header.
  const auto saved = [](const WorkloadTrace& trace) {
    std::stringstream ss;
    trace.save(ss);
    return ss.str();
  };
  {
    WorkloadTrace trace = tiny_trace();
    trace.instances[0].runs[1].count = 0;
    expect_rejected(saved(trace), "zero count");
  }
  {
    WorkloadTrace trace = tiny_trace();
    trace.instances[0].runs[1].si = 0;  // {0},{0},{0}: adjacent runs share an SI
    expect_rejected(saved(trace), "adjacent");
  }
  {
    WorkloadTrace trace = tiny_trace();
    trace.instances[1].hot_spot = 2;  // only hot spots 0 and 1 exist
    expect_rejected(saved(trace), "out of range");
  }
}

TEST(Trace, SiIdsBelowChecksHotSpotsAndRuns) {
  WorkloadTrace trace = tiny_trace();  // SIs 0 and 1
  EXPECT_TRUE(trace.si_ids_below(2));
  EXPECT_FALSE(trace.si_ids_below(1));
  trace.hot_spots[1].sis.push_back(2);
  EXPECT_FALSE(trace.si_ids_below(2));
  trace = tiny_trace();
  trace.instances[1].append(2);
  EXPECT_FALSE(trace.si_ids_below(2));
}

TEST(Executor, SoftwareOnlyMatchesClosedForm) {
  const auto set = h264sis::build_h264_si_set();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"X", {0}, 7}};
  trace.instances = {HotSpotInstance{0, std::vector<SiId>(10, 0), 1000}};
  SoftwareOnlyBackend backend(&set);
  const SimResult r = run_trace(trace, backend);
  EXPECT_EQ(r.total_cycles, 1000u + 10u * (set.si(0).software_latency + 7));
  EXPECT_EQ(r.atom_loads, 0u);
}

}  // namespace
}  // namespace rispp
