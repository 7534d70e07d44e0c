// Bit-exactness of the run-batched fast-forward replay (ReplayMode::kBatched,
// the default) against the scalar reference path (ReplayMode::kScalar), for
// every backend the repo ships. The batched path may only change simulator
// wall-clock, never a simulated number: total cycles, per-hot-spot cycles,
// load counts, stats buckets and latency timelines must all match.
//
// Two workloads: the H.264 CIF encode (the paper's evaluation run) and the
// JPEG stream — the latter exercises different SI shapes, data-dependent EC
// run lengths and a different hot-spot cadence, so a fast path that
// overfits H.264's structure cannot pass.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/molen.h"
#include "baselines/onechip.h"
#include "baselines/software_only.h"
#include "baselines/static_asip.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "jpeg/jpeg_si_library.h"
#include "jpeg/jpeg_workload.h"
#include "rtm/run_time_manager.h"
#include "sched/hef.h"
#include "sched/registry.h"
#include "sim/executor.h"
#include "sim/stats.h"

namespace rispp {
namespace {

class ReplayEquivalenceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_ = new SpecialInstructionSet(h264sis::build_h264_si_set());
    h264::WorkloadConfig config;
    config.frames = kFrames;
    trace_ = new WorkloadTrace(h264::generate_h264_workload(*set_, config).trace);

    jpeg_set_ = new SpecialInstructionSet(jpegsis::build_jpeg_si_set());
    jpeg::JpegWorkloadConfig jpeg_config;
    jpeg_config.images = kJpegImages;
    jpeg_trace_ = new WorkloadTrace(
        jpeg::generate_jpeg_workload(*jpeg_set_, jpeg_config).trace);
  }
  static void TearDownTestSuite() {
    delete jpeg_trace_;
    delete jpeg_set_;
    delete trace_;
    delete set_;
  }

  struct Observed {
    SimResult result;
    std::uint64_t loads = 0;
  };

  // Runs `trace` twice with `make_backend` producing a fresh backend each
  // time, and asserts the batched replay matches the scalar one exactly —
  // including the per-bucket stats and latency timelines.
  template <typename MakeBackend>
  static void expect_equivalent(const SpecialInstructionSet& set,
                                const WorkloadTrace& trace, MakeBackend&& make_backend,
                                const std::string& label) {
    SCOPED_TRACE(label);
    SimStats scalar_stats(set.si_count()), batched_stats(set.si_count());
    Observed scalar, batched;
    {
      auto backend = make_backend();
      scalar.result = run_trace(trace, *backend, &scalar_stats, ReplayMode::kScalar);
      scalar.loads = backend->completed_loads();
    }
    {
      auto backend = make_backend();
      batched.result = run_trace(trace, *backend, &batched_stats, ReplayMode::kBatched);
      batched.loads = backend->completed_loads();
    }
    EXPECT_EQ(scalar.result.total_cycles, batched.result.total_cycles);
    EXPECT_EQ(scalar.result.si_executions, batched.result.si_executions);
    EXPECT_EQ(scalar.result.atom_loads, batched.result.atom_loads);
    EXPECT_EQ(scalar.result.hot_spot_cycles, batched.result.hot_spot_cycles);
    EXPECT_EQ(scalar.loads, batched.loads);

    ASSERT_EQ(scalar_stats.bucket_count(), batched_stats.bucket_count());
    for (SiId si = 0; si < set.si_count(); ++si) {
      EXPECT_EQ(scalar_stats.executions(si), batched_stats.executions(si)) << "si " << si;
      for (std::size_t b = 0; b < scalar_stats.bucket_count(); ++b)
        ASSERT_EQ(scalar_stats.bucket_executions(si, b),
                  batched_stats.bucket_executions(si, b))
            << "si " << si << " bucket " << b;
      const auto& st = scalar_stats.latency_timeline(si);
      const auto& bt = batched_stats.latency_timeline(si);
      ASSERT_EQ(st.size(), bt.size()) << "si " << si;
      for (std::size_t p = 0; p < st.size(); ++p) {
        EXPECT_EQ(st[p].at, bt[p].at) << "si " << si << " point " << p;
        EXPECT_EQ(st[p].latency, bt[p].latency) << "si " << si << " point " << p;
      }
    }

    // The stats-free span fast path must agree with the stats path too.
    auto backend = make_backend();
    const SimResult span = run_trace(trace, *backend, nullptr, ReplayMode::kBatched);
    EXPECT_EQ(scalar.result.total_cycles, span.total_cycles);
    EXPECT_EQ(scalar.result.si_executions, span.si_executions);
    EXPECT_EQ(scalar.result.atom_loads, span.atom_loads);
    EXPECT_EQ(scalar.result.hot_spot_cycles, span.hot_spot_cycles);
  }

  static constexpr int kFrames = 8;
  static constexpr int kJpegImages = 6;
  static SpecialInstructionSet* set_;
  static WorkloadTrace* trace_;
  static SpecialInstructionSet* jpeg_set_;
  static WorkloadTrace* jpeg_trace_;
};

SpecialInstructionSet* ReplayEquivalenceFixture::set_ = nullptr;
WorkloadTrace* ReplayEquivalenceFixture::trace_ = nullptr;
SpecialInstructionSet* ReplayEquivalenceFixture::jpeg_set_ = nullptr;
WorkloadTrace* ReplayEquivalenceFixture::jpeg_trace_ = nullptr;

struct RtmHolder {
  std::unique_ptr<AtomScheduler> scheduler;
  std::unique_ptr<RunTimeManager> rtm;
  std::uint64_t completed_loads() const { return rtm->completed_loads(); }
  operator RunTimeManager&() { return *rtm; }
};

TEST_F(ReplayEquivalenceFixture, RtmAllSchedulersAllBudgets) {
  for (const auto& name : scheduler_names()) {
    for (const unsigned acs : {6u, 10u, 17u, 24u}) {
      expect_equivalent(
          *set_, *trace_,
          [&] {
            auto holder = std::make_unique<RtmHolder>();
            holder->scheduler = make_scheduler(name);
            RtmConfig config;
            config.container_count = acs;
            config.scheduler = holder->scheduler.get();
            holder->rtm = std::make_unique<RunTimeManager>(
                set_, trace_->hot_spots.size(), config);
            h264::seed_default_forecasts(*set_, *holder->rtm);
            return holder;
          },
          name + "@" + std::to_string(acs));
    }
  }
}

TEST_F(ReplayEquivalenceFixture, RtmWithPrefetchEnabled) {
  expect_equivalent(
      *set_, *trace_,
      [&] {
        auto holder = std::make_unique<RtmHolder>();
        holder->scheduler = make_scheduler("HEF");
        RtmConfig config;
        config.container_count = 12;
        config.scheduler = holder->scheduler.get();
        config.enable_prefetch = true;
        holder->rtm =
            std::make_unique<RunTimeManager>(set_, trace_->hot_spots.size(), config);
        h264::seed_default_forecasts(*set_, *holder->rtm);
        return holder;
      },
      "HEF@12+prefetch");
}

TEST_F(ReplayEquivalenceFixture, RtmOracleForecastAndPaybackDisabled) {
  expect_equivalent(
      *set_, *trace_,
      [&] {
        auto holder = std::make_unique<RtmHolder>();
        holder->scheduler = make_scheduler("ASF");
        RtmConfig config;
        config.container_count = 10;
        config.scheduler = holder->scheduler.get();
        config.forecast_mode = ForecastMode::kOracle;
        config.payback_horizon = 0;
        holder->rtm =
            std::make_unique<RunTimeManager>(set_, trace_->hot_spots.size(), config);
        h264::seed_default_forecasts(*set_, *holder->rtm);
        return holder;
      },
      "ASF@10+oracle+horizon0");
}

TEST_F(ReplayEquivalenceFixture, MolenBaseline) {
  for (const unsigned acs : {6u, 10u, 17u, 24u}) {
    expect_equivalent(
        *set_, *trace_,
        [&] {
          MolenConfig config;
          config.container_count = acs;
          auto molen = std::make_unique<MolenBackend>(set_, trace_->hot_spots.size(),
                                                      config);
          h264::seed_default_forecasts(*set_, *molen);
          return molen;
        },
        "Molen@" + std::to_string(acs));
  }
}

TEST_F(ReplayEquivalenceFixture, OneChipBaseline) {
  for (const unsigned acs : {6u, 10u, 17u, 24u}) {
    expect_equivalent(
        *set_, *trace_,
        [&] {
          OneChipConfig config;
          config.container_count = acs;
          auto onechip = std::make_unique<OneChipBackend>(set_, trace_->hot_spots.size(),
                                                          config);
          h264::seed_default_forecasts(*set_, *onechip);
          return onechip;
        },
        "OneChip@" + std::to_string(acs));
  }
}

TEST_F(ReplayEquivalenceFixture, SoftwareOnlyBaseline) {
  expect_equivalent(*set_, *trace_,
                    [&] { return std::make_unique<SoftwareOnlyBackend>(set_); },
                    "SoftwareOnly");
}

TEST_F(ReplayEquivalenceFixture, StaticAsipBaseline) {
  expect_equivalent(*set_, *trace_,
                    [&] { return std::make_unique<StaticAsipBackend>(set_); },
                    "StaticASIP");
}

// The decision cache (DESIGN §6.2) replays memoized selection+schedule
// results; its key covers everything the decision reads, so a cached run
// must be bit-exact against an uncached one — every simulated number, every
// stats bucket — while actually serving hits on a steady-state workload.
TEST_F(ReplayEquivalenceFixture, DecisionCacheIsBitExactAndEffective) {
  const auto run_with_cache = [&](bool cache_on, RunTimeManager** rtm_out,
                                  SimStats* stats) {
    static HefScheduler hef;  // stateless; shared across calls is fine
    RtmConfig config;
    config.container_count = 10;
    config.scheduler = &hef;
    config.enable_prefetch = true;  // the prefetch path shares the cache
    config.enable_decision_cache = cache_on;
    // Static seeds keep the forecast constant, so decisions repeat as soon
    // as atom residency reaches its steady state — the cache serves real
    // hits even in this short 8-frame run. (Under kMonitored the forecast
    // converges too, but only over more frames than a unit test should pay
    // for; bench/table3_scheduler_cost reports the monitored hit rate.)
    config.forecast_mode = ForecastMode::kStaticSeeds;
    auto rtm = std::make_unique<RunTimeManager>(set_, trace_->hot_spots.size(), config);
    h264::seed_default_forecasts(*set_, *rtm);
    const SimResult result = run_trace(*trace_, *rtm, stats);
    if (rtm_out) *rtm_out = rtm.release();  // caller inspects counters
    return result;
  };

  SimStats cached_stats(set_->si_count()), uncached_stats(set_->si_count());
  RunTimeManager* cached_rtm = nullptr;
  const SimResult cached = run_with_cache(true, &cached_rtm, &cached_stats);
  std::unique_ptr<RunTimeManager> cached_owner(cached_rtm);
  const SimResult uncached = run_with_cache(false, nullptr, &uncached_stats);

  EXPECT_EQ(cached.total_cycles, uncached.total_cycles);
  EXPECT_EQ(cached.si_executions, uncached.si_executions);
  EXPECT_EQ(cached.atom_loads, uncached.atom_loads);
  EXPECT_EQ(cached.hot_spot_cycles, uncached.hot_spot_cycles);
  for (SiId si = 0; si < set_->si_count(); ++si) {
    EXPECT_EQ(cached_stats.executions(si), uncached_stats.executions(si)) << "si " << si;
    const auto& ct = cached_stats.latency_timeline(si);
    const auto& ut = uncached_stats.latency_timeline(si);
    ASSERT_EQ(ct.size(), ut.size()) << "si " << si;
    for (std::size_t p = 0; p < ct.size(); ++p) {
      EXPECT_EQ(ct[p].at, ut[p].at) << "si " << si << " point " << p;
      EXPECT_EQ(ct[p].latency, ut[p].latency) << "si " << si << " point " << p;
    }
  }

  // Monitored forecasts converge after warm-up, so a multi-frame replay must
  // reach a steady state of pure cache hits — not just a token few.
  EXPECT_GT(cached_rtm->decision_cache_hits(), cached_rtm->decision_cache_misses());
  EXPECT_GT(cached_rtm->decision_cache_hits(), 0u);
}

// --- the JPEG workload: same matrix, different SI shapes -------------------

TEST_F(ReplayEquivalenceFixture, JpegRtmAllSchedulersAllBudgets) {
  for (const auto& name : scheduler_names()) {
    for (const unsigned acs : {4u, 8u, 14u}) {
      expect_equivalent(
          *jpeg_set_, *jpeg_trace_,
          [&] {
            auto holder = std::make_unique<RtmHolder>();
            holder->scheduler = make_scheduler(name);
            RtmConfig config;
            config.container_count = acs;
            config.scheduler = holder->scheduler.get();
            holder->rtm = std::make_unique<RunTimeManager>(
                jpeg_set_, jpeg_trace_->hot_spots.size(), config);
            jpeg::seed_jpeg_forecasts(*jpeg_set_, *holder->rtm);
            return holder;
          },
          "jpeg:" + name + "@" + std::to_string(acs));
    }
  }
}

TEST_F(ReplayEquivalenceFixture, JpegMolenBaseline) {
  for (const unsigned acs : {4u, 8u, 14u}) {
    expect_equivalent(
        *jpeg_set_, *jpeg_trace_,
        [&] {
          MolenConfig config;
          config.container_count = acs;
          auto molen = std::make_unique<MolenBackend>(
              jpeg_set_, jpeg_trace_->hot_spots.size(), config);
          jpeg::seed_jpeg_forecasts(*jpeg_set_, *molen);
          return molen;
        },
        "jpeg:Molen@" + std::to_string(acs));
  }
}

TEST_F(ReplayEquivalenceFixture, JpegOneChipBaseline) {
  for (const unsigned acs : {4u, 8u, 14u}) {
    expect_equivalent(
        *jpeg_set_, *jpeg_trace_,
        [&] {
          OneChipConfig config;
          config.container_count = acs;
          auto onechip = std::make_unique<OneChipBackend>(
              jpeg_set_, jpeg_trace_->hot_spots.size(), config);
          jpeg::seed_jpeg_forecasts(*jpeg_set_, *onechip);
          return onechip;
        },
        "jpeg:OneChip@" + std::to_string(acs));
  }
}

TEST_F(ReplayEquivalenceFixture, JpegSoftwareOnlyBaseline) {
  expect_equivalent(*jpeg_set_, *jpeg_trace_,
                    [&] { return std::make_unique<SoftwareOnlyBackend>(jpeg_set_); },
                    "jpeg:SoftwareOnly");
}

TEST_F(ReplayEquivalenceFixture, JpegStaticAsipBaseline) {
  expect_equivalent(*jpeg_set_, *jpeg_trace_,
                    [&] { return std::make_unique<StaticAsipBackend>(jpeg_set_); },
                    "jpeg:StaticASIP");
}

// The generators' runs are maximal — every count positive, no two adjacent
// runs sharing an SI — and execution_count is their sum. Maximal runs are
// the unique encoding of an execution sequence, so comparing runs compares
// sequences.
TEST_F(ReplayEquivalenceFixture, TraceRunsAreMaximal) {
  for (const WorkloadTrace* trace : {trace_, jpeg_trace_}) {
    for (const HotSpotInstance& inst : trace->instances) {
      std::uint64_t executions = 0;
      for (std::size_t i = 0; i < inst.runs.size(); ++i) {
        ASSERT_GT(inst.runs[i].count, 0u);
        if (i > 0) {
          ASSERT_NE(inst.runs[i - 1].si, inst.runs[i].si);
        }
        executions += inst.runs[i].count;
      }
      ASSERT_EQ(executions, inst.execution_count);
    }
  }
}

}  // namespace
}  // namespace rispp
