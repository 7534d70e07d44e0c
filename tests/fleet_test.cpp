// Fleet-mode equivalence and the fleet subsystem's unit contracts.
//
// The load-bearing test is FleetMatchesSoloRuns: a randomized heterogeneous
// session mix (content, length, scheduler, AC budget), replayed through the
// batched fleet::SessionBatch core, must produce every per-session result
// and statistic *byte-identical* to the same session run alone through
// sim::run_trace on a fresh backend — across schedulers, thread counts and
// block sizes. Cohort stepping, work stealing and cross-session memoization
// may only change wall-clock, never a simulated number.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/env.h"
#include "base/metrics.h"
#include "base/parallel.h"
#include "base/prng.h"
#include "fleet/session_batch.h"
#include "rtm/decision_memo.h"
#include "fleet/spec.h"
#include "fleet/trace_repository.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp::fleet {
namespace {

// Private repository per fixture: tests must not depend on what other tests
// already generated into the global one (hit/miss counts stay predictable).
SessionSpec small_session(Content content, int frames, const std::string& scheduler,
                          unsigned acs) {
  SessionSpec spec;
  spec.content = content;
  spec.frames = frames;
  spec.width = content == Content::kH264 ? 96 : 128;
  spec.height = content == Content::kH264 ? 64 : 96;
  spec.scheduler = scheduler;
  spec.container_count = acs;
  return spec;
}

/// The single-session reference path: a fresh RTM over the cohort's shared
/// trace, seeded exactly as the batch seeds it.
SimResult solo_run(const TraceEntry& entry, const SessionSpec& spec, SimStats* stats) {
  const auto scheduler = make_scheduler(spec.scheduler);
  RtmConfig config;
  config.container_count = spec.container_count;
  config.scheduler = scheduler.get();
  config.forecast_mode = spec.forecast_mode;
  RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
  seed_forecasts(rtm, entry.seeds);
  return run_trace(entry.trace, rtm, stats);
}

void expect_stats_equal(const SimStats& solo, const SimStats& fleet, std::size_t si_count,
                        std::size_t session) {
  ASSERT_EQ(solo.bucket_count(), fleet.bucket_count()) << "session " << session;
  for (SiId si = 0; si < si_count; ++si) {
    EXPECT_EQ(solo.executions(si), fleet.executions(si))
        << "session " << session << " si " << si;
    for (std::size_t b = 0; b < solo.bucket_count(); ++b)
      ASSERT_EQ(solo.bucket_executions(si, b), fleet.bucket_executions(si, b))
          << "session " << session << " si " << si << " bucket " << b;
    const auto& st = solo.latency_timeline(si);
    const auto& ft = fleet.latency_timeline(si);
    ASSERT_EQ(st.size(), ft.size()) << "session " << session << " si " << si;
    for (std::size_t p = 0; p < st.size(); ++p) {
      EXPECT_EQ(st[p].at, ft[p].at) << "session " << session << " si " << si;
      EXPECT_EQ(st[p].latency, ft[p].latency) << "session " << session << " si " << si;
    }
  }
}

/// Randomized heterogeneous mix, compared session by session to solo runs.
/// The batch counts one `sim.hot_spot_entries` per replayed instance, like
/// any other driver.
void check_fleet_against_solo(std::uint64_t seed, unsigned threads, unsigned block_size,
                              bool collect_stats) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " threads " + std::to_string(threads) +
               " block " + std::to_string(block_size) + (collect_stats ? " stats" : " span"));
  const std::vector<std::string> schedulers = scheduler_names();
  Xoshiro256 prng(seed);
  std::vector<SessionSpec> specs;
  for (int s = 0; s < 24; ++s) {
    const Content content = prng.bounded(3) != 0 ? Content::kH264 : Content::kJpeg;
    specs.push_back(small_session(content, static_cast<int>(prng.range(1, 3)),
                                  schedulers[prng.bounded(schedulers.size())],
                                  static_cast<unsigned>(prng.range(4, 12))));
  }

  TraceRepository repo;
  DecisionMemo cache(1 << 12, 4);
  ThreadPool pool(threads);
  FleetOptions options;
  options.traces = &repo;
  options.pool = &pool;
  options.block_size = block_size;
  options.shared_cache = &cache;
  options.collect_stats = collect_stats;

  SessionBatch batch(specs, options);
  MetricCounter& entries = metric_counter("sim.hot_spot_entries");
  const std::uint64_t entries_before = entries.value();
  batch.run();
  // Read before the solo replays below, which count too.
  const std::uint64_t entries_counted = entries.value() - entries_before;

  std::uint64_t instances = 0;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const TraceEntry& entry = repo.get(specs[s]);
    instances += entry.trace.instances.size();
    SimStats solo_stats(entry.set.si_count());
    const SimResult solo = solo_run(entry, specs[s], collect_stats ? &solo_stats : nullptr);
    const SimResult& fleet_result = batch.result(s);
    EXPECT_EQ(solo.total_cycles, fleet_result.total_cycles) << "session " << s;
    EXPECT_EQ(solo.si_executions, fleet_result.si_executions) << "session " << s;
    EXPECT_EQ(solo.atom_loads, fleet_result.atom_loads) << "session " << s;
    EXPECT_EQ(solo.hot_spot_cycles, fleet_result.hot_spot_cycles) << "session " << s;
    if (collect_stats) {
      ASSERT_NE(batch.stats(s), nullptr) << "session " << s;
      expect_stats_equal(solo_stats, *batch.stats(s), entry.set.si_count(), s);
    }
  }
  EXPECT_EQ(entries_counted, instances);
}

TEST(Fleet, FleetMatchesSoloRuns) {
  // The core contract over thread counts (including oversubscribed on this
  // host), block sizes, and the stats-free span path.
  check_fleet_against_solo(/*seed=*/1, /*threads=*/1, /*block_size=*/8,
                           /*collect_stats=*/false);
  check_fleet_against_solo(2, 2, 4, false);
  check_fleet_against_solo(3, 8, 1, false);
  check_fleet_against_solo(6, 2, 8, false);
}

TEST(Fleet, FleetMatchesSoloRunsWithStats) {
  // Full SimStats (buckets, latency timelines) byte-identical too.
  check_fleet_against_solo(4, 2, 8, true);
  check_fleet_against_solo(5, 4, 3, true);
  check_fleet_against_solo(7, 2, 2, true);
}

TEST(Fleet, SharedCacheCountsCrossSessionHits) {
  // Two identical sessions: the second replays the first's decisions, and
  // every one of those hits is a cross-session hit.
  TraceRepository repo;
  DecisionMemo cache(1 << 12, 1);
  ThreadPool pool(1);
  FleetOptions options;
  options.traces = &repo;
  options.pool = &pool;
  options.shared_cache = &cache;
  options.block_size = 1;  // separate blocks → distinct sessions, serial pool
  const SessionSpec spec = small_session(Content::kH264, 2, "HEF", 8);
  SessionBatch batch({spec, spec}, options);
  batch.run();
  EXPECT_EQ(batch.result(0).total_cycles, batch.result(1).total_cycles);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.cross_session_hits(), 0u);
  // Session 1 never misses on a key session 0 already inserted.
  EXPECT_GT(batch.decision_cache_hits(1), batch.decision_cache_hits(0));
}

TEST(Fleet, SharedCacheKeepsDomainsApart) {
  // Same SI set and forecast but different schedulers must never share a
  // decision: the domain (set fingerprint, scheduler, payback) is part of
  // the key. If domains collided, HEF sessions would replay SJF schedules
  // and diverge from their solo runs — so equality with solo runs across a
  // mixed-scheduler fleet is the sharpest check.
  TraceRepository repo;
  DecisionMemo cache(1 << 12, 2);
  ThreadPool pool(2);
  FleetOptions options;
  options.traces = &repo;
  options.pool = &pool;
  options.shared_cache = &cache;
  std::vector<SessionSpec> specs;
  for (const std::string& name : scheduler_names())
    specs.push_back(small_session(Content::kH264, 2, name, 8));
  SessionBatch batch(specs, options);
  batch.run();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const SimResult solo = solo_run(repo.get(specs[s]), specs[s], nullptr);
    EXPECT_EQ(solo.total_cycles, batch.result(s).total_cycles)
        << specs[s].scheduler << " diverged under the shared cache";
  }
}

TEST(Fleet, SharedCacheEvictsAtCapacity) {
  DecisionMemo cache(/*capacity=*/8, /*shards=*/1);
  const auto domain = cache.register_domain(1, "HEF", 100, 0);
  const Molecule ready;
  DecisionMemo::Decision decision;
  decision.loads = {1, 2};
  for (std::uint64_t i = 0; i < 64; ++i)
    cache.insert({domain, {static_cast<SiId>(i)}, {i}, ready, 10}, /*session=*/0, decision);
  EXPECT_LE(cache.size(), 8u);
  EXPECT_GT(cache.evictions(), 0u);
  // Freshest key still resident, oldest evicted.
  DecisionMemo::Decision out;
  EXPECT_TRUE(cache.lookup({domain, {static_cast<SiId>(63)}, {63}, ready, 10}, 1, out));
  EXPECT_EQ(out.loads, decision.loads);
  EXPECT_FALSE(cache.lookup({domain, {static_cast<SiId>(0)}, {0}, ready, 10}, 1, out));
}

TEST(Fleet, SharedCacheInternsDomains) {
  DecisionMemo cache;
  const auto a = cache.register_domain(42, "HEF", 100, 0);
  const auto b = cache.register_domain(42, "HEF", 100, 0);
  const auto c = cache.register_domain(42, "SJF", 100, 0);
  const auto d = cache.register_domain(42, "HEF", 200, 0);
  // The config digest is part of the domain identity: two RTMs that agree on
  // set/scheduler/payback but differ in any other config knob (forecast mode,
  // today) must land in separate domains.
  const auto e = cache.register_domain(42, "HEF", 100, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_NE(a, e);
}

TEST(Fleet, DomainDigestSeparatesForecastModes) {
  // The regression this guards: before the digest existed, a kMonitored RTM
  // and a kStaticSeeds RTM with the same scheduler shared decisions, and the
  // second one replayed schedules computed under the other forecast policy.
  RtmConfig monitored;
  monitored.forecast_mode = ForecastMode::kMonitored;
  RtmConfig seeded;
  seeded.forecast_mode = ForecastMode::kStaticSeeds;
  EXPECT_NE(rtm_domain_digest(monitored), rtm_domain_digest(seeded));

  DecisionMemo cache;
  const auto a = cache.register_domain(42, "HEF", 100, rtm_domain_digest(monitored));
  const auto b = cache.register_domain(42, "HEF", 100, rtm_domain_digest(seeded));
  EXPECT_NE(a, b);

  // End to end: sessions differing only in forecast mode, all sharing one
  // cache, must each still match their solo replay exactly.
  TraceRepository repo;
  DecisionMemo shared(1 << 12, 1);
  ThreadPool pool(1);
  FleetOptions options;
  options.traces = &repo;
  options.pool = &pool;
  options.shared_cache = &shared;
  SessionSpec base = small_session(Content::kH264, 2, "HEF", 8);
  SessionSpec with_seeds = base;
  with_seeds.forecast_mode = ForecastMode::kStaticSeeds;
  const std::vector<SessionSpec> specs = {base, with_seeds, base, with_seeds};
  SessionBatch batch(specs, options);
  batch.run();
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const SimResult solo = solo_run(repo.get(specs[s]), specs[s], nullptr);
    EXPECT_EQ(solo.total_cycles, batch.result(s).total_cycles)
        << "session " << s << " leaked decisions across forecast modes";
  }
}

TEST(Fleet, TraceRepositoryMemoizes) {
  TraceRepository repo;
  const SessionSpec spec = small_session(Content::kJpeg, 1, "HEF", 8);
  const TraceEntry& first = repo.get(spec);
  const TraceEntry& again = repo.get(spec);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(repo.hits(), 1u);
  EXPECT_EQ(repo.misses(), 1u);
  SessionSpec longer = spec;
  longer.frames = 2;
  const TraceEntry& other = repo.get(longer);
  EXPECT_NE(&first, &other);
  EXPECT_EQ(repo.size(), 2u);
  // Scheduler and AC budget are replay-side knobs, not trace-side: they must
  // not fragment the repository.
  SessionSpec other_scheduler = spec;
  other_scheduler.scheduler = "SJF";
  other_scheduler.container_count = 4;
  EXPECT_EQ(&repo.get(other_scheduler), &first);
}

TEST(Fleet, ExpandFleetSpecIsDeterministic) {
  FleetSpec spec;
  spec.sessions = 50;
  spec.schedulers = {"HEF", "SJF"};
  spec.acs_min = 5;
  spec.acs_max = 20;
  spec.arrival_per_min = 6000.0;
  const auto a = expand_fleet_spec(spec);
  const auto b = expand_fleet_spec(spec);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<int>(a[i].content), static_cast<int>(b[i].content)) << i;
    EXPECT_EQ(a[i].frames, b[i].frames) << i;
    EXPECT_EQ(a[i].scheduler, b[i].scheduler) << i;
    EXPECT_EQ(a[i].container_count, b[i].container_count) << i;
    EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms) << i;
    EXPECT_GE(a[i].frames, spec.frames_min) << i;
    EXPECT_LE(a[i].frames, spec.frames_max) << i;
  }
  // Uniform arrivals at 6000/min = one session every 10ms.
  EXPECT_DOUBLE_EQ(a[1].arrival_ms, 10.0);
  EXPECT_DOUBLE_EQ(a[49].arrival_ms, 490.0);
  FleetSpec reseeded = spec;
  reseeded.seed = 2;
  const auto c = expand_fleet_spec(reseeded);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    any_difference |= a[i].frames != c[i].frames || a[i].scheduler != c[i].scheduler;
  EXPECT_TRUE(any_difference) << "reseeding changed nothing — PRNG unused?";
}

TEST(Fleet, MixCountsAreExact) {
  // The --mix expansion is apportionment, not coin flips: for S sessions and
  // weights (h, j) the content counts must be the exact largest-remainder
  // split of S, for every session count — odd ones especially, where the old
  // per-session PRNG draw drifted by several sessions.
  const int session_counts[] = {1, 3, 7, 17, 101, 1000};
  const std::pair<std::uint64_t, std::uint64_t> mixes[] = {
      {4, 1}, {1, 1}, {7, 3}, {5, 0}, {0, 2}};
  for (const int sessions : session_counts) {
    for (const auto& [h, j] : mixes) {
      FleetSpec spec;
      spec.sessions = sessions;
      spec.h264_weight = h;
      spec.jpeg_weight = j;
      const auto expanded = expand_fleet_spec(spec);
      ASSERT_EQ(expanded.size(), static_cast<std::size_t>(sessions));
      std::size_t h264 = 0;
      for (const auto& s : expanded)
        if (s.content == Content::kH264) ++h264;
      const double total = static_cast<double>(h + j);
      const double ideal = static_cast<double>(sessions) * static_cast<double>(h) / total;
      // Largest-remainder: the realized count differs from the ideal share by
      // less than one whole session.
      EXPECT_LT(std::abs(static_cast<double>(h264) - ideal), 1.0)
          << sessions << " sessions, mix " << h << ":" << j;
      if (j == 0) {
        EXPECT_EQ(h264, expanded.size());
      }
      if (h == 0) {
        EXPECT_EQ(h264, 0u);
      }
    }
  }
}

TEST(Fleet, MixInterleavesContents) {
  // Smooth WRR, not a prefix of h264 then a suffix of jpeg: in a 1:1 mix the
  // two contents alternate, so any window of consecutive sessions is balanced.
  FleetSpec spec;
  spec.sessions = 10;
  spec.h264_weight = 1;
  spec.jpeg_weight = 1;
  const auto expanded = expand_fleet_spec(spec);
  for (std::size_t i = 1; i < expanded.size(); ++i)
    EXPECT_NE(static_cast<int>(expanded[i].content),
              static_cast<int>(expanded[i - 1].content))
        << "position " << i;
}

// ---------------------------------------------------------------------------
// Strict parsing: garbage exits with kEnvParseExitCode naming the offender.
// Death tests fork, so the exit path (message + code 2) is observed exactly
// as a shell would see it.

TEST(FleetSpecDeathTest, MixGarbageExits) {
  FleetSpec spec;
  EXPECT_EXIT(parse_mix_or_die("--mix", "h264=x", spec),
              ::testing::ExitedWithCode(kEnvParseExitCode), "--mix");
  EXPECT_EXIT(parse_mix_or_die("--mix", "av1=3", spec),
              ::testing::ExitedWithCode(kEnvParseExitCode), "--mix");
  EXPECT_EXIT(parse_mix_or_die("--mix", "h264=0,jpeg=0", spec),
              ::testing::ExitedWithCode(kEnvParseExitCode), "--mix");
}

TEST(FleetSpecDeathTest, RangeGarbageExits) {
  int lo = 0, hi = 0;
  EXPECT_EXIT(parse_range_or_die("--frames", "8..2", 1, 100, lo, hi),
              ::testing::ExitedWithCode(kEnvParseExitCode), "--frames");
  EXPECT_EXIT(parse_range_or_die("--frames", "abc", 1, 100, lo, hi),
              ::testing::ExitedWithCode(kEnvParseExitCode), "--frames");
  EXPECT_EXIT(parse_range_or_die("--frames", "4..999", 1, 100, lo, hi),
              ::testing::ExitedWithCode(kEnvParseExitCode), "--frames");
}

TEST(FleetSpecDeathTest, SchedulerGarbageExits) {
  EXPECT_EXIT(parse_schedulers_or_die("--schedulers", "HEF,NOPE"),
              ::testing::ExitedWithCode(kEnvParseExitCode), "--schedulers");
}

TEST(FleetSpecDeathTest, ArrivalGarbageExits) {
  EXPECT_EXIT(parse_arrival_or_die("--arrival", "sometimes"),
              ::testing::ExitedWithCode(kEnvParseExitCode), "--arrival");
  EXPECT_EXIT(parse_arrival_or_die("--arrival", "uniform:fast"),
              ::testing::ExitedWithCode(kEnvParseExitCode), "--arrival");
}

TEST(FleetSpecDeathTest, SessionsEnvGarbageExits) {
  EXPECT_EXIT(
      [] {
        setenv("RISPP_SESSIONS", "many", 1);
        FleetSpec spec;
        apply_fleet_env(spec);
        std::exit(0);  // unreachable: apply_fleet_env must have exited
      }(),
      ::testing::ExitedWithCode(kEnvParseExitCode), "RISPP_SESSIONS");
}

TEST(FleetSpecDeathTest, TenantsEnvGarbageExits) {
  EXPECT_EXIT(
      [] {
        setenv("RISPP_TENANTS", "lots", 1);
        FleetSpec spec;
        apply_fleet_env(spec);
        std::exit(0);  // unreachable: apply_fleet_env must have exited
      }(),
      ::testing::ExitedWithCode(kEnvParseExitCode), "RISPP_TENANTS");
  EXPECT_EXIT(
      [] {
        setenv("RISPP_TENANTS", "0", 1);
        FleetSpec spec;
        apply_fleet_env(spec);
        std::exit(0);
      }(),
      ::testing::ExitedWithCode(kEnvParseExitCode), "RISPP_TENANTS");
}

TEST(FleetSpecDeathTest, PartitionGarbageExits) {
  EXPECT_EXIT(parse_partition_or_die("--partition", "fair-ish"),
              ::testing::ExitedWithCode(kEnvParseExitCode), "--partition");
}

TEST(FleetSpec, TenantsEnvParsesAndDefaults) {
  unsetenv("RISPP_TENANTS");
  FleetSpec spec;
  apply_fleet_env(spec);
  EXPECT_EQ(spec.tenants, 1);  // unset leaves the default
  setenv("RISPP_TENANTS", "4", 1);
  apply_fleet_env(spec);
  EXPECT_EQ(spec.tenants, 4);
  unsetenv("RISPP_TENANTS");
  EXPECT_EQ(parse_partition_or_die("--partition", "static"), PartitionMode::kStatic);
  EXPECT_EQ(parse_partition_or_die("--partition", "weighted"),
            PartitionMode::kBenefitWeighted);
}

TEST(FleetSpec, SessionsEnvParsesAndDefaults) {
  unsetenv("RISPP_SESSIONS");
  FleetSpec spec;
  spec.sessions = 123;
  apply_fleet_env(spec);
  EXPECT_EQ(spec.sessions, 123);  // unset leaves the default
  setenv("RISPP_SESSIONS", "77", 1);
  apply_fleet_env(spec);
  EXPECT_EQ(spec.sessions, 77);
  unsetenv("RISPP_SESSIONS");
}

TEST(FleetSpec, ParsersAcceptWellFormedInput) {
  FleetSpec spec;
  parse_mix_or_die("--mix", "h264=2,jpeg=3", spec);
  EXPECT_EQ(spec.h264_weight, 2u);
  EXPECT_EQ(spec.jpeg_weight, 3u);
  parse_mix_or_die("--mix", "jpeg=1", spec);
  EXPECT_EQ(spec.h264_weight, 0u);
  int lo = 0, hi = 0;
  parse_range_or_die("--frames", "4..9", 1, 100, lo, hi);
  EXPECT_EQ(lo, 4);
  EXPECT_EQ(hi, 9);
  parse_range_or_die("--acs", "7", 1, 100, lo, hi);
  EXPECT_EQ(lo, 7);
  EXPECT_EQ(hi, 7);
  EXPECT_EQ(parse_arrival_or_die("--arrival", "all"), 0.0);
  EXPECT_EQ(parse_arrival_or_die("--arrival", "uniform:6000"), 6000.0);
  const auto names = parse_schedulers_or_die("--schedulers", "HEF,SJF");
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "HEF");
  EXPECT_EQ(names[1], "SJF");
}

TEST(Fleet, RunFleetReportsThroughputAndLatency) {
  TraceRepository repo;
  DecisionMemo cache(1 << 12, 2);
  ThreadPool pool(2);
  FleetOptions options;
  options.traces = &repo;
  options.pool = &pool;
  options.shared_cache = &cache;
  std::vector<SessionSpec> specs(10, small_session(Content::kH264, 1, "HEF", 8));
  SessionBatch batch(specs, options);
  const FleetReport report = run_fleet(batch);
  EXPECT_EQ(report.sessions, 10u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.sessions_per_min, 0.0);
  EXPECT_GE(report.latency_p99_ms, report.latency_p50_ms);
  EXPECT_GT(report.cache_hits + report.cache_misses, 0u);
  EXPECT_NE(report.cycles_checksum, 0u);
  // Identical sessions: throughput math consistent with the wall clock.
  EXPECT_NEAR(report.sessions_per_min, 10.0 * 60.0 / report.wall_seconds, 1.0);
}

TEST(Fleet, UnknownSchedulerThrowsAtConstruction) {
  TraceRepository repo;
  FleetOptions options;
  options.traces = &repo;
  std::vector<SessionSpec> specs{small_session(Content::kH264, 1, "BOGUS", 8)};
  EXPECT_THROW(SessionBatch(specs, options), std::exception);
}

}  // namespace
}  // namespace rispp::fleet
