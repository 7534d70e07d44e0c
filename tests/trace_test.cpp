// The observability layer: the Chrome-trace tracer (base/trace_event.h), the
// metrics registry (base/metrics.h), and the hard guarantee that turning
// tracing on never changes a simulated result. Also the strict
// RISPP_LOG_LEVEL parse (a garbage level is a loud exit, never a silent
// default).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/env.h"
#include "base/log.h"
#include "base/metrics.h"
#include "base/trace_event.h"
#include "bench/driver.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp {
namespace {

namespace fs = std::filesystem;

fs::path temp_trace_path(const std::string& tag) {
  const fs::path path = fs::path(::testing::TempDir()) / ("rispp_" + tag + ".trace.json");
  fs::remove(path);
  return path;
}

std::optional<std::string> validate_file(const fs::path& path,
                                         TraceValidation* info = nullptr) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return validate_chrome_trace(in, info);
}

std::optional<std::string> validate_text(const std::string& text,
                                         TraceValidation* info = nullptr) {
  std::istringstream in(text);
  return validate_chrome_trace(in, info);
}

/// A long single-hot-spot ME-style trace (SAD+SATD).
WorkloadTrace me_trace(const SpecialInstructionSet& set, int executions) {
  const SiId sad = set.find("SAD").value();
  const SiId satd = set.find("SATD").value();
  WorkloadTrace trace;
  trace.hot_spots = {HotSpotInfo{"ME", {sad, satd}, 8}};
  HotSpotInstance inst;
  inst.hot_spot = 0;
  inst.entry_overhead = 1000;
  for (int i = 0; i < executions; ++i)
    inst.append(i % 8 == 7 ? satd : sad);
  trace.instances.push_back(std::move(inst));
  return trace;
}

// --- session round trip ----------------------------------------------------

TEST(TraceEvent, SessionWritesAValidChromeTrace) {
  const fs::path path = temp_trace_path("session");
  start_trace_session(path.string());
  ASSERT_TRUE(trace_enabled());

  const TraceLane port_lane = trace_new_lane();
  trace_name_lane(TraceTrack::kReconfigPort, port_lane, "atom loads");
  trace_complete(TraceTrack::kReconfigPort, port_lane, "QSub", 10.0, 5.0);
  trace_complete(TraceTrack::kReconfigPort, port_lane, "SAV", 15.0, 5.0);

  const TraceLane exec_lane = trace_new_lane();
  trace_begin(TraceTrack::kExecutor, exec_lane, "ME", 0.0);
  trace_instant(TraceTrack::kExecutor, exec_lane, "SAD upgraded", 12.0);
  trace_end(TraceTrack::kExecutor, exec_lane, "ME", 40.0);

  trace_begin_now(TraceTrack::kRtm, "decide");
  trace_end_now(TraceTrack::kRtm, "decide");
  trace_counter_now(TraceTrack::kRtm, "decision cache hits", 3.0);
  { RISPP_TRACE_SPAN(TraceTrack::kBench, "report"); }

  stop_trace_session();
  EXPECT_FALSE(trace_enabled());

  TraceValidation info;
  const auto problem = validate_file(path, &info);
  EXPECT_FALSE(problem.has_value()) << *problem;
  EXPECT_GE(info.events, 8u);
  EXPECT_GE(info.tracks, 4u);
  ASSERT_FALSE(info.counter_names.empty());
  EXPECT_NE(std::find(info.counter_names.begin(), info.counter_names.end(),
                      "decision cache hits"),
            info.counter_names.end());
  fs::remove(path);
}

TEST(TraceEvent, RegistryCountersAppearAsFinalSamples) {
  metric_counter("test.trace_flush_counter").add(7);
  const fs::path path = temp_trace_path("registry");
  start_trace_session(path.string());
  trace_instant_now(TraceTrack::kRtm, "tick");
  stop_trace_session();

  TraceValidation info;
  const auto problem = validate_file(path, &info);
  EXPECT_FALSE(problem.has_value()) << *problem;
  EXPECT_NE(std::find(info.counter_names.begin(), info.counter_names.end(),
                      "test.trace_flush_counter"),
            info.counter_names.end())
      << "every registry counter must be sampled onto the metrics track at flush";
  fs::remove(path);
}

TEST(TraceEvent, DisabledEmittersWriteNothing) {
  ASSERT_FALSE(trace_enabled());
  // All of these must be cheap no-ops with no session active.
  trace_complete(TraceTrack::kReconfigPort, 1, "noop", 0.0, 1.0);
  trace_instant_now(TraceTrack::kRtm, "noop");
  trace_counter_now(TraceTrack::kRtm, "noop", 1.0);
  trace_begin_now(TraceTrack::kThreadPool, "noop");
  trace_end_now(TraceTrack::kThreadPool, "noop");
  { RISPP_TRACE_SPAN(TraceTrack::kBench, "noop"); }
  SUCCEED();
}

// --- validator rejects malformed traces ------------------------------------

TEST(TraceValidate, AcceptsBothRootForms) {
  EXPECT_FALSE(validate_text("[]").has_value());
  EXPECT_FALSE(validate_text("{\"traceEvents\": []}").has_value());
  const char* event =
      "[{\"name\": \"a\", \"ph\": \"X\", \"ts\": 1.0, \"dur\": 2.0, "
      "\"pid\": 1, \"tid\": 1}]";
  EXPECT_FALSE(validate_text(event).has_value());
}

TEST(TraceValidate, RejectsStructuralGarbage) {
  EXPECT_TRUE(validate_text("").has_value());
  EXPECT_TRUE(validate_text("not json").has_value());
  EXPECT_TRUE(validate_text("{\"traceEvents\": 3}").has_value());
  EXPECT_TRUE(validate_text("[{\"ph\": \"X\"}]").has_value());  // no name/pid/tid
  EXPECT_TRUE(validate_text("[{\"name\": \"a\", \"ph\": \"Q\", \"ts\": 1, "
                            "\"pid\": 1, \"tid\": 1}]")
                  .has_value())
      << "unknown phase letter";
}

TEST(TraceValidate, RejectsUnmatchedDurationPairs) {
  const char* unclosed =
      "[{\"name\": \"a\", \"ph\": \"B\", \"ts\": 1.0, \"pid\": 1, \"tid\": 1}]";
  EXPECT_TRUE(validate_text(unclosed).has_value());
  const char* mismatched =
      "[{\"name\": \"a\", \"ph\": \"B\", \"ts\": 1.0, \"pid\": 1, \"tid\": 1},"
      " {\"name\": \"b\", \"ph\": \"E\", \"ts\": 2.0, \"pid\": 1, \"tid\": 1}]";
  EXPECT_TRUE(validate_text(mismatched).has_value());
  const char* bare_end =
      "[{\"name\": \"a\", \"ph\": \"E\", \"ts\": 1.0, \"pid\": 1, \"tid\": 1}]";
  EXPECT_TRUE(validate_text(bare_end).has_value());
}

TEST(TraceValidate, RejectsNonMonotonicRowTimestamps) {
  const char* backwards =
      "[{\"name\": \"a\", \"ph\": \"i\", \"ts\": 5.0, \"pid\": 1, \"tid\": 1, \"s\": \"t\"},"
      " {\"name\": \"b\", \"ph\": \"i\", \"ts\": 4.0, \"pid\": 1, \"tid\": 1, \"s\": \"t\"}]";
  EXPECT_TRUE(validate_text(backwards).has_value());
  // The same timestamps on *different* rows are fine.
  const char* two_rows =
      "[{\"name\": \"a\", \"ph\": \"i\", \"ts\": 5.0, \"pid\": 1, \"tid\": 1, \"s\": \"t\"},"
      " {\"name\": \"b\", \"ph\": \"i\", \"ts\": 4.0, \"pid\": 1, \"tid\": 2, \"s\": \"t\"}]";
  EXPECT_FALSE(validate_text(two_rows).has_value());
}

// --- the hard guarantee: tracing never changes results ---------------------

TEST(TraceEvent, TracedReplayIsBitIdenticalAcrossSchedulersAndModes) {
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 12'000);

  for (const auto& name : scheduler_names()) {
    for (const ReplayMode mode : {ReplayMode::kScalar, ReplayMode::kBatched}) {
      const auto run_once = [&]() {
        auto sched = make_scheduler(name);
        RtmConfig config;
        config.container_count = 14;
        config.scheduler = sched.get();
        RunTimeManager rtm(&set, 3, config);
        h264::seed_default_forecasts(set, rtm);
        return run_trace(trace, rtm, nullptr, mode);
      };
      const SimResult off = run_once();

      const fs::path path = temp_trace_path("equiv_" + name);
      start_trace_session(path.string());
      const SimResult on = run_once();
      stop_trace_session();

      EXPECT_EQ(on.total_cycles, off.total_cycles) << name;
      EXPECT_EQ(on.si_executions, off.si_executions) << name;
      EXPECT_EQ(on.atom_loads, off.atom_loads) << name;
      EXPECT_EQ(on.hot_spot_cycles, off.hot_spot_cycles) << name;

      TraceValidation info;
      const auto problem = validate_file(path, &info);
      EXPECT_FALSE(problem.has_value()) << name << ": " << *problem;
      EXPECT_GT(info.events, 0u) << name;
      fs::remove(path);
    }
  }
}

TEST(TraceEvent, InstrumentedSimulationProducesAWellFormedMultiTrackTrace) {
  // One traced end-to-end run must populate the port, executor, RTM and
  // metrics tracks (the fig7 CI artifact requires >= 4 distinct tracks).
  const auto set = h264sis::build_h264_si_set();
  const WorkloadTrace trace = me_trace(set, 12'000);
  const fs::path path = temp_trace_path("multitrack");
  start_trace_session(path.string());
  {
    auto sched = make_scheduler("HEF");
    RtmConfig config;
    config.container_count = 14;
    config.scheduler = sched.get();
    RunTimeManager rtm(&set, 3, config);
    h264::seed_default_forecasts(set, rtm);
    (void)run_trace(trace, rtm);
  }
  stop_trace_session();

  TraceValidation info;
  const auto problem = validate_file(path, &info);
  ASSERT_FALSE(problem.has_value()) << *problem;
  EXPECT_GE(info.tracks, 4u) << "port + executor + RTM + metrics at minimum";
  for (const char* counter :
       {"rtm.decision_cache.hits", "rtm.decision_cache.misses", "rtm.decision_cache.evictions"})
    EXPECT_NE(std::find(info.counter_names.begin(), info.counter_names.end(), counter),
              info.counter_names.end())
        << counter;
  fs::remove(path);
}

// --- concurrency: emitting from many threads while flushing ----------------

TEST(TraceEvent, ConcurrentEmittersFlushClean) {
  const fs::path path = temp_trace_path("mt");
  start_trace_session(path.string());
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 2'000;
  std::atomic<int> go{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&go] {
      go.fetch_add(1);
      while (go.load() < kThreads) {
      }
      for (int i = 0; i < kEventsPerThread; ++i) {
        { RISPP_TRACE_SPAN(TraceTrack::kThreadPool, "work"); }
        trace_instant_now(TraceTrack::kThreadPool, "tick");
        trace_counter_now(TraceTrack::kThreadPool, "progress", i);
      }
    });
  }
  for (auto& t : threads) t.join();
  stop_trace_session();

  TraceValidation info;
  const auto problem = validate_file(path, &info);
  EXPECT_FALSE(problem.has_value()) << *problem;
  EXPECT_GE(info.events, static_cast<std::size_t>(kThreads) * kEventsPerThread * 3);
  fs::remove(path);
}

// --- metrics registry ------------------------------------------------------

TEST(Metrics, CountersAndGaugesRoundTripThroughSnapshot) {
  metric_counter("test.metrics.alpha").add(41);
  metric_counter("test.metrics.alpha").add();
  metric_gauge("test.metrics.level").set(2.5);
  EXPECT_EQ(metric_counter("test.metrics.alpha").value(), 42u);
  EXPECT_EQ(metric_gauge("test.metrics.level").value(), 2.5);

  // The same name always yields the same object.
  EXPECT_EQ(&metric_counter("test.metrics.alpha"), &metric_counter("test.metrics.alpha"));

  const fs::path path = fs::path(::testing::TempDir()) / "rispp_metrics_snapshot.json";
  fs::remove(path);
  ASSERT_TRUE(write_metrics_json(path.string()));
  // The driver-side parser reads what the registry writes.
  const auto parsed = bench::parse_metrics_record(path);
  ASSERT_TRUE(parsed.count("test.metrics.alpha"));
  EXPECT_EQ(parsed.at("test.metrics.alpha"), 42.0);
  ASSERT_TRUE(parsed.count("test.metrics.level"));
  EXPECT_EQ(parsed.at("test.metrics.level"), 2.5);
  fs::remove(path);
}

TEST(Metrics, SnapshotIsSortedAndWellFormed) {
  metric_counter("test.metrics.zeta").add(1);
  metric_counter("test.metrics.beta").add(2);
  const auto counters = metrics_counter_snapshot();
  ASSERT_GE(counters.size(), 2u);
  for (std::size_t i = 1; i < counters.size(); ++i)
    EXPECT_LT(counters[i - 1].first, counters[i].first);
}

// --- strict RISPP_LOG_LEVEL ------------------------------------------------

TEST(LogLevelDeathTest, GarbageLevelExitsLoudly) {
  ::setenv("RISPP_LOG_LEVEL", "loud", 1);
  EXPECT_EXIT(init_log_level_from_env(), ::testing::ExitedWithCode(kEnvParseExitCode),
              "RISPP_LOG_LEVEL");
  ::setenv("RISPP_LOG_LEVEL", "DEBUG!", 1);
  EXPECT_EXIT(init_log_level_from_env(), ::testing::ExitedWithCode(kEnvParseExitCode),
              "RISPP_LOG_LEVEL");
  ::unsetenv("RISPP_LOG_LEVEL");
}

TEST(LogLevel, ValidLevelsStillParse) {
  const LogLevel before = log_level();
  ::setenv("RISPP_LOG_LEVEL", "warn", 1);
  init_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  ::setenv("RISPP_LOG_LEVEL", "off", 1);
  init_log_level_from_env();
  EXPECT_EQ(log_level(), LogLevel::kOff);
  ::unsetenv("RISPP_LOG_LEVEL");
  set_log_level(before);
}

}  // namespace
}  // namespace rispp
