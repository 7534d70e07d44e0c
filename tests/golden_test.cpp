// Golden digests: simulated results pinned as constants.
//
// Every other equivalence suite compares two paths of the current code
// (batched vs scalar replay, memo on vs off, fleet vs solo, fast-forward vs
// reference co-simulation). Those catch one path drifting from another, but
// not both drifting together — e.g. when two implementations are merged into
// one. These digests were recorded once and are never regenerated: a
// mismatch means a simulated number changed, which no refactor may do.
//
// Digest = fingerprint_mix over total_cycles, si_executions, atom_loads and
// every hot_spot_cycles entry of a SimResult; a baseline cell replayed with
// stats also folds in the SimStats; a contended device also folds in its
// arbiter's grants, evictions and port wait. Golden.ContendedArbiterShapes
// spans the arbiter's knobs (tenant count, starvation bound, weights,
// partition and rebalance period). Golden.H264Traces pins the encoder's
// traces themselves, generated directly rather than through the trace cache.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "baselines/molen.h"
#include "fleet/session_batch.h"
#include "fleet/tenant_fleet.h"
#include "fleet/trace_repository.h"
#include "h264/kernels.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"
#include "rtm/fabric_arbiter.h"
#include "rtm/run_time_manager.h"
#include "rtm/tenant_sim.h"
#include "sched/registry.h"
#include "sim/executor.h"
#include "sim/stats.h"

namespace rispp {
namespace {

using fleet::Content;
using fleet::SessionSpec;
using fleet::TraceEntry;

std::uint64_t digest(const SimResult& r) {
  std::uint64_t h = fingerprint_mix(0, r.total_cycles);
  h = fingerprint_mix(h, r.si_executions);
  h = fingerprint_mix(h, r.atom_loads);
  for (const Cycles c : r.hot_spot_cycles) h = fingerprint_mix(h, c);
  return h;
}

/// The two small traces multitenant_test replays: a 2-frame 96x64 H.264
/// encode and a 1-frame 128x96 JPEG stream.
SessionSpec small_session(Content content) {
  SessionSpec spec;
  spec.content = content;
  spec.frames = content == Content::kH264 ? 2 : 1;
  spec.width = content == Content::kH264 ? 96 : 128;
  spec.height = content == Content::kH264 ? 64 : 96;
  return spec;
}

struct SoloCell {
  Content content;
  std::string scheduler;
  unsigned acs;
  ReplayMode mode;
  ForecastMode forecast;
  bool memo;
  bool prefetch;

  std::string label() const {
    static const char* const kForecast[] = {"monitored", "static", "oracle"};
    return std::string(content == Content::kH264 ? "h264" : "jpeg") + " " + scheduler + " " +
           std::to_string(acs) + "ACs " +
           (mode == ReplayMode::kBatched ? "batched " : "scalar ") +
           kForecast[static_cast<int>(forecast)] + (memo ? " memo" : " no-memo") +
           (prefetch ? " prefetch" : "");
  }
};

SimResult run_solo(const TraceEntry& entry, const SoloCell& cell) {
  const auto scheduler = make_scheduler(cell.scheduler);
  RtmConfig config;
  config.container_count = cell.acs;
  config.scheduler = scheduler.get();
  config.forecast_mode = cell.forecast;
  config.enable_decision_cache = cell.memo;
  config.enable_prefetch = cell.prefetch;
  RunTimeManager rtm(&entry.set, entry.trace.hot_spots.size(), config);
  seed_forecasts(rtm, entry.seeds);
  return run_trace(entry.trace, rtm, nullptr, cell.mode);
}

/// Cells in table order: content, scheduler, ACs, replay mode, forecast
/// mode, memo on/off — then the single prefetch cell.
std::vector<SoloCell> solo_cells() {
  std::vector<SoloCell> cells;
  for (const Content content : {Content::kH264, Content::kJpeg})
    for (const std::string& scheduler : scheduler_names())
      for (const unsigned acs : {6u, 14u})
        for (const ReplayMode mode : {ReplayMode::kBatched, ReplayMode::kScalar})
          for (const ForecastMode forecast :
               {ForecastMode::kMonitored, ForecastMode::kStaticSeeds, ForecastMode::kOracle})
            for (const bool memo : {true, false})
              cells.push_back({content, scheduler, acs, mode, forecast, memo, false});
  cells.push_back({Content::kH264, "HEF", 14, ReplayMode::kBatched, ForecastMode::kMonitored,
                   true, true});
  return cells;
}

// clang-format off
constexpr std::uint64_t kSoloDigests[] = {
    // h264 ASF 6 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0x32c340da259a0564ull, 0x32c340da259a0564ull,
    0x32c340da259a0564ull, 0x32c340da259a0564ull,
    0xa39c5d0d6bd0d1c9ull, 0xa39c5d0d6bd0d1c9ull,
    // h264 ASF 6 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0x32c340da259a0564ull, 0x32c340da259a0564ull,
    0x32c340da259a0564ull, 0x32c340da259a0564ull,
    0xa39c5d0d6bd0d1c9ull, 0xa39c5d0d6bd0d1c9ull,
    // h264 ASF 14 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0xe2e255f067b31c83ull, 0xe2e255f067b31c83ull,
    0xe2e255f067b31c83ull, 0xe2e255f067b31c83ull,
    0xb941e59729263847ull, 0xb941e59729263847ull,
    // h264 ASF 14 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0xe2e255f067b31c83ull, 0xe2e255f067b31c83ull,
    0xe2e255f067b31c83ull, 0xe2e255f067b31c83ull,
    0xb941e59729263847ull, 0xb941e59729263847ull,
    // h264 FSFR 6 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0x6cb3fc52cb19edfbull, 0x6cb3fc52cb19edfbull,
    0x6cb3fc52cb19edfbull, 0x6cb3fc52cb19edfbull,
    0x8e04d133d34bb99cull, 0x8e04d133d34bb99cull,
    // h264 FSFR 6 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0x6cb3fc52cb19edfbull, 0x6cb3fc52cb19edfbull,
    0x6cb3fc52cb19edfbull, 0x6cb3fc52cb19edfbull,
    0x8e04d133d34bb99cull, 0x8e04d133d34bb99cull,
    // h264 FSFR 14 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0x99230b068c6e43f6ull, 0x99230b068c6e43f6ull,
    0x99230b068c6e43f6ull, 0x99230b068c6e43f6ull,
    0x60ca9b453174b998ull, 0x60ca9b453174b998ull,
    // h264 FSFR 14 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0x99230b068c6e43f6ull, 0x99230b068c6e43f6ull,
    0x99230b068c6e43f6ull, 0x99230b068c6e43f6ull,
    0x60ca9b453174b998ull, 0x60ca9b453174b998ull,
    // h264 SJF 6 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0x6cb3fc52cb19edfbull, 0x6cb3fc52cb19edfbull,
    0x6cb3fc52cb19edfbull, 0x6cb3fc52cb19edfbull,
    0x8e04d133d34bb99cull, 0x8e04d133d34bb99cull,
    // h264 SJF 6 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0x6cb3fc52cb19edfbull, 0x6cb3fc52cb19edfbull,
    0x6cb3fc52cb19edfbull, 0x6cb3fc52cb19edfbull,
    0x8e04d133d34bb99cull, 0x8e04d133d34bb99cull,
    // h264 SJF 14 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0xac52b53ba0a5e68bull, 0xac52b53ba0a5e68bull,
    0xac52b53ba0a5e68bull, 0xac52b53ba0a5e68bull,
    0xb941e59729263847ull, 0xb941e59729263847ull,
    // h264 SJF 14 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0xac52b53ba0a5e68bull, 0xac52b53ba0a5e68bull,
    0xac52b53ba0a5e68bull, 0xac52b53ba0a5e68bull,
    0xb941e59729263847ull, 0xb941e59729263847ull,
    // h264 HEF 6 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0x97dde3ddb59e17e2ull, 0x97dde3ddb59e17e2ull,
    0x97dde3ddb59e17e2ull, 0x97dde3ddb59e17e2ull,
    0xa39c5d0d6bd0d1c9ull, 0xa39c5d0d6bd0d1c9ull,
    // h264 HEF 6 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0x97dde3ddb59e17e2ull, 0x97dde3ddb59e17e2ull,
    0x97dde3ddb59e17e2ull, 0x97dde3ddb59e17e2ull,
    0xa39c5d0d6bd0d1c9ull, 0xa39c5d0d6bd0d1c9ull,
    // h264 HEF 14 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0xac52b53ba0a5e68bull, 0xac52b53ba0a5e68bull,
    0xac52b53ba0a5e68bull, 0xac52b53ba0a5e68bull,
    0xb941e59729263847ull, 0xb941e59729263847ull,
    // h264 HEF 14 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0xac52b53ba0a5e68bull, 0xac52b53ba0a5e68bull,
    0xac52b53ba0a5e68bull, 0xac52b53ba0a5e68bull,
    0xb941e59729263847ull, 0xb941e59729263847ull,
    // jpeg ASF 6 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // jpeg ASF 6 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // jpeg ASF 14 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // jpeg ASF 14 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // jpeg FSFR 6 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0xafd68a16dc9f7e40ull, 0xafd68a16dc9f7e40ull,
    0xafd68a16dc9f7e40ull, 0xafd68a16dc9f7e40ull,
    0xe102391881222d5eull, 0xe102391881222d5eull,
    // jpeg FSFR 6 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0xafd68a16dc9f7e40ull, 0xafd68a16dc9f7e40ull,
    0xafd68a16dc9f7e40ull, 0xafd68a16dc9f7e40ull,
    0xe102391881222d5eull, 0xe102391881222d5eull,
    // jpeg FSFR 14 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0xafd68a16dc9f7e40ull, 0xafd68a16dc9f7e40ull,
    0xafd68a16dc9f7e40ull, 0xafd68a16dc9f7e40ull,
    0xe102391881222d5eull, 0xe102391881222d5eull,
    // jpeg FSFR 14 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0xafd68a16dc9f7e40ull, 0xafd68a16dc9f7e40ull,
    0xafd68a16dc9f7e40ull, 0xafd68a16dc9f7e40ull,
    0xe102391881222d5eull, 0xe102391881222d5eull,
    // jpeg SJF 6 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // jpeg SJF 6 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // jpeg SJF 14 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // jpeg SJF 14 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // jpeg HEF 6 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // jpeg HEF 6 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // jpeg HEF 14 ACs batched: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // jpeg HEF 14 ACs scalar: {monitored, static, oracle} x {memo, no memo}
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    0xea4dca3958ba8488ull, 0xea4dca3958ba8488ull,
    // h264 HEF 14 ACs batched monitored memo prefetch
    0xac52b53ba0a5e68bull,
};
// clang-format on

TEST(Golden, SoloRtmCells) {
  fleet::TraceRepository repo;
  const std::vector<SoloCell> cells = solo_cells();
  ASSERT_EQ(cells.size(), std::size(kSoloDigests));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const TraceEntry& entry = repo.get(small_session(cells[i].content));
    EXPECT_EQ(digest(run_solo(entry, cells[i])), kSoloDigests[i])
        << "cell " << i << ": " << cells[i].label();
  }
}

/// Folds every per-SI total, bucket and latency change point into `h`.
std::uint64_t digest(std::uint64_t h, const SimStats& stats, std::size_t si_count) {
  for (SiId si = 0; si < si_count; ++si) {
    h = fingerprint_mix(h, stats.executions(si));
    for (std::size_t b = 0; b < stats.bucket_count(); ++b)
      h = fingerprint_mix(h, stats.bucket_executions(si, b));
    for (const SimStats::LatencyPoint& p : stats.latency_timeline(si)) {
      h = fingerprint_mix(h, p.at);
      h = fingerprint_mix(h, p.latency);
    }
  }
  return h;
}

/// The three replay paths of a backend: scalar (with stats), batched
/// without stats (whole-instance spans) and batched with stats (per run).
enum class BaselineReplay { kScalar, kSpan, kRuns };

template <typename Backend, typename Config>
std::uint64_t run_baseline(const TraceEntry& entry, unsigned acs, BaselineReplay replay) {
  Config config;
  config.container_count = acs;
  Backend backend(&entry.set, entry.trace.hot_spots.size(), config);
  seed_forecasts(backend, entry.seeds);
  if (replay == BaselineReplay::kSpan)
    return digest(run_trace(entry.trace, backend, nullptr, ReplayMode::kBatched));
  SimStats stats(entry.set.si_count());
  const SimResult result =
      run_trace(entry.trace, backend, &stats,
                replay == BaselineReplay::kScalar ? ReplayMode::kScalar : ReplayMode::kBatched);
  return digest(digest(result), stats, entry.set.si_count());
}

// clang-format off
/// Table order: content {h264, jpeg} x backend {Molen, OneChip} x
/// ACs {3, 6, 14} x replay {scalar, span, runs}.
constexpr std::uint64_t kBaselineDigests[] = {
    // h264 Molen: {3, 6, 14} ACs x {scalar, span, runs}
    0x9176aa4a547800faull, 0xa47dd596e496b745ull, 0x9176aa4a547800faull,
    0x0c584566aef95d7bull, 0xf1cb432a5d064d16ull, 0x0c584566aef95d7bull,
    0x69f144b557507311ull, 0x0298f1cfd436a81dull, 0x69f144b557507311ull,
    // h264 OneChip: {3, 6, 14} ACs x {scalar, span, runs}
    0x6aa2adc8a0f4c96bull, 0x253b2357c905e0d8ull, 0x6aa2adc8a0f4c96bull,
    0x0cd24e1f66ff8238ull, 0x54d3062ee2abd9f6ull, 0x0cd24e1f66ff8238ull,
    0xb41aa5bcea2b5278ull, 0xa01a1c1ef903a68eull, 0xb41aa5bcea2b5278ull,
    // jpeg Molen: {3, 6, 14} ACs x {scalar, span, runs}
    0x3205aeebfeb191ecull, 0xcb9c6eb6066831e9ull, 0x3205aeebfeb191ecull,
    0xd296e723f434653eull, 0xc50f6b3860ac7e1dull, 0xd296e723f434653eull,
    0x9fee3ba9a71f05adull, 0xa91fe140ceca0791ull, 0x9fee3ba9a71f05adull,
    // jpeg OneChip: {3, 6, 14} ACs x {scalar, span, runs}
    0x3205aeebfeb191ecull, 0xcb9c6eb6066831e9ull, 0x3205aeebfeb191ecull,
    0xd296e723f434653eull, 0xc50f6b3860ac7e1dull, 0xd296e723f434653eull,
    0x9fee3ba9a71f05adull, 0xa91fe140ceca0791ull, 0x9fee3ba9a71f05adull,
};
// clang-format on

TEST(Golden, BaselineCells) {
  static const char* const kReplay[] = {"scalar", "span", "runs"};
  fleet::TraceRepository repo;
  std::size_t i = 0;
  for (const Content content : {Content::kH264, Content::kJpeg}) {
    const TraceEntry& entry = repo.get(small_session(content));
    for (const bool onechip : {false, true})
      for (const unsigned acs : {3u, 6u, 14u})
        for (const BaselineReplay replay :
             {BaselineReplay::kScalar, BaselineReplay::kSpan, BaselineReplay::kRuns}) {
          ASSERT_LT(i, std::size(kBaselineDigests));
          const std::uint64_t got =
              onechip ? run_baseline<OneChipBackend, OneChipConfig>(entry, acs, replay)
                      : run_baseline<MolenBackend, MolenConfig>(entry, acs, replay);
          EXPECT_EQ(got, kBaselineDigests[i])
              << "cell " << i << ": " << (content == Content::kH264 ? "h264 " : "jpeg ")
              << (onechip ? "OneChip " : "Molen ") << acs << "ACs "
              << kReplay[static_cast<int>(replay)];
          ++i;
        }
  }
  EXPECT_EQ(i, std::size(kBaselineDigests));
}

TEST(Golden, SharedMemoSessionBatch) {
  std::vector<SessionSpec> specs;
  const std::vector<std::string> schedulers = scheduler_names();
  const ForecastMode forecasts[] = {ForecastMode::kMonitored, ForecastMode::kStaticSeeds,
                                    ForecastMode::kOracle};
  for (unsigned s = 0; s < 64; ++s) {
    SessionSpec spec = small_session(s % 4 == 3 ? Content::kJpeg : Content::kH264);
    spec.frames = 1 + static_cast<int>(s % 2);
    spec.scheduler = schedulers[s % schedulers.size()];
    spec.container_count = 4 + s % 9;
    spec.forecast_mode = forecasts[s % 3];
    specs.push_back(spec);
  }
  fleet::TraceRepository repo;
  // A small memo, so the run also exercises cross-session evictions.
  fleet::SharedDecisionCache memo(/*capacity=*/64, /*shards=*/4);
  ThreadPool pool(2);
  fleet::FleetOptions options;
  options.shared_cache = &memo;
  options.traces = &repo;
  options.pool = &pool;
  fleet::SessionBatch batch(specs, options);
  const fleet::FleetReport report = fleet::run_fleet(batch);
  std::uint64_t results = 0;
  for (std::size_t s = 0; s < batch.session_count(); ++s)
    results = fingerprint_mix(results, digest(batch.result(s)));
  EXPECT_EQ(report.cycles_checksum, 0xdbbffbbeaa2710d7ull);
  EXPECT_EQ(results, 0x709824079e158de7ull);
}

TEST(Golden, ContendedDevices) {
  std::vector<SessionSpec> specs;
  for (unsigned s = 0; s < 8; ++s) {
    SessionSpec spec = small_session(s % 3 == 0 ? Content::kJpeg : Content::kH264);
    spec.frames = 1 + static_cast<int>(s % 2);
    spec.scheduler = s % 2 == 0 ? "HEF" : "SJF";
    specs.push_back(spec);
  }
  fleet::TraceRepository repo;
  ThreadPool pool(2);
  struct Cell {
    PartitionMode partition;
    CosimMode cosim;
    std::uint64_t expected;
  };
  const Cell cells[] = {
      {PartitionMode::kStatic, CosimMode::kFastForward, 0x94a71173f85fd589ull},
      {PartitionMode::kStatic, CosimMode::kReference, 0x94a71173f85fd589ull},
      {PartitionMode::kBenefitWeighted, CosimMode::kFastForward, 0x82377618ae1b0cc5ull},
      {PartitionMode::kBenefitWeighted, CosimMode::kReference, 0x82377618ae1b0cc5ull},
  };
  for (const Cell& cell : cells) {
    fleet::ContendedOptions options;
    options.tenants_per_device = 4;
    options.acs_per_tenant = 6;
    options.partition = cell.partition;
    options.cosim = cell.cosim;
    options.traces = &repo;
    options.pool = &pool;
    std::vector<SimResult> results;
    const fleet::ContendedReport report = fleet::run_contended_fleet(specs, options, &results);
    std::uint64_t h = fingerprint_mix(0, report.grants);
    h = fingerprint_mix(h, report.evictions);
    h = fingerprint_mix(h, report.port_wait_cycles);
    for (const SimResult& r : results) h = fingerprint_mix(h, digest(r));
    EXPECT_EQ(h, cell.expected)
        << (cell.partition == PartitionMode::kStatic ? "static " : "weighted ")
        << (cell.cosim == CosimMode::kFastForward ? "fast-forward" : "reference");
  }
}

/// One device of Golden.ContendedArbiterShapes: how many tenants share the
/// port, how the arbiter breaks ties and moves quotas.
struct ArbiterShape {
  std::size_t tenants;
  unsigned starvation_bound;
  bool unequal_weights;
  PartitionMode partition;
  std::uint64_t rebalance_period;

  std::string label() const {
    return std::to_string(tenants) + " tenants, bound " + std::to_string(starvation_bound) +
           (unequal_weights ? ", unequal weights, " : ", equal weights, ") +
           (partition == PartitionMode::kStatic
                ? std::string("static")
                : "weighted period " + std::to_string(rebalance_period));
  }
};

/// Cells in table order: tenants, starvation bound, weights, partition
/// (static, then weighted with rebalance period 1 and 8).
std::vector<ArbiterShape> arbiter_shapes() {
  std::vector<ArbiterShape> shapes;
  for (const std::size_t tenants : {2u, 3u, 5u, 8u})
    for (const unsigned bound : {1u, 2u, 4u, 64u})
      for (const bool unequal : {false, true}) {
        shapes.push_back({tenants, bound, unequal, PartitionMode::kStatic, 8});
        for (const std::uint64_t period : {1u, 8u})
          shapes.push_back({tenants, bound, unequal, PartitionMode::kBenefitWeighted, period});
      }
  return shapes;
}

/// Co-simulates one device of `shape`: tenant i replays a 96x64 H.264
/// session of 2 + i % 3 frames, or three 128x96 JPEG images when
/// i % 3 == 2, under scheduler i % 4, with prefetch on for odd i. Digests
/// the arbiter's grants, evictions and port wait and every tenant's
/// SimResult.
std::uint64_t run_shape(fleet::TraceRepository& repo, const ArbiterShape& shape,
                        CosimMode mode) {
  constexpr unsigned kAcsPerTenant = 4;
  const std::size_t n = shape.tenants;
  const std::vector<std::string> schedulers = scheduler_names();
  ArbiterConfig config;
  config.total_containers = static_cast<unsigned>(n) * kAcsPerTenant;
  config.partition = shape.partition;
  config.starvation_bound = shape.starvation_bound;
  config.rebalance_period = shape.rebalance_period;
  FabricArbiter arbiter(config);
  std::vector<std::unique_ptr<AtomScheduler>> tenant_schedulers(n);
  std::vector<std::unique_ptr<RunTimeManager>> rtms(n);
  std::vector<TenantRun> runs(n);
  for (std::size_t i = 0; i < n; ++i) {
    TenantConfig tenant;
    tenant.quota = kAcsPerTenant;
    tenant.floor = 1;
    tenant.weight = shape.unequal_weights ? 1 + 2 * static_cast<unsigned>(i) : 1;
    runs[i].tenant = arbiter.add_tenant(tenant);
  }
  for (std::size_t i = 0; i < n; ++i) {
    SessionSpec spec = small_session(i % 3 == 2 ? Content::kJpeg : Content::kH264);
    spec.frames = (spec.content == Content::kH264 ? 2 : 1) + static_cast<int>(i % 3);
    const TraceEntry& entry = repo.get(spec);
    tenant_schedulers[i] = make_scheduler(schedulers[i % schedulers.size()]);
    RtmConfig rc;
    rc.scheduler = tenant_schedulers[i].get();
    rc.enable_prefetch = i % 2 == 1;
    rc.arbiter = &arbiter;
    rc.tenant = runs[i].tenant;
    rtms[i] = std::make_unique<RunTimeManager>(&entry.set, entry.trace.hot_spots.size(), rc);
    seed_forecasts(*rtms[i], entry.seeds);
    runs[i].trace = &entry.trace;
    runs[i].rtm = rtms[i].get();
  }
  const std::vector<SimResult> results = run_tenants(arbiter, std::span<TenantRun>(runs), mode);
  arbiter.check_invariants();
  std::uint64_t h = fingerprint_mix(0, arbiter.grants());
  h = fingerprint_mix(h, arbiter.evictions());
  h = fingerprint_mix(h, arbiter.port_wait_cycles());
  for (const SimResult& r : results) h = fingerprint_mix(h, digest(r));
  return h;
}

// clang-format off
/// One digest per arbiter_shapes() cell; both co-simulation modes must match it.
constexpr std::uint64_t kArbiterShapeDigests[] = {
    // 2 tenants, bound 1: {equal, unequal} x {static, weighted 1, weighted 8}
    0xdd7c4584bdadc845ull, 0x6f74ee6c41355b83ull, 0xdd7c4584bdadc845ull,
    0xdd7c4584bdadc845ull, 0xf9e6c97a3c8f66b1ull, 0xdd7c4584bdadc845ull,
    // 2 tenants, bound 2: {equal, unequal} x {static, weighted 1, weighted 8}
    0xdd7c4584bdadc845ull, 0xe233a4038399f97dull, 0xdd7c4584bdadc845ull,
    0xdd7c4584bdadc845ull, 0xcf4a7838ffc90998ull, 0xdd7c4584bdadc845ull,
    // 2 tenants, bound 4: {equal, unequal} x {static, weighted 1, weighted 8}
    0xdd7c4584bdadc845ull, 0xe233a4038399f97dull, 0xdd7c4584bdadc845ull,
    0xdd7c4584bdadc845ull, 0xcf4a7838ffc90998ull, 0xdd7c4584bdadc845ull,
    // 2 tenants, bound 64: {equal, unequal} x {static, weighted 1, weighted 8}
    0xdd7c4584bdadc845ull, 0xe233a4038399f97dull, 0xdd7c4584bdadc845ull,
    0xdd7c4584bdadc845ull, 0xcf4a7838ffc90998ull, 0xdd7c4584bdadc845ull,
    // 3 tenants, bound 1: {equal, unequal} x {static, weighted 1, weighted 8}
    0x3a22385f6eb74652ull, 0x8cf6cab9bc572c58ull, 0x203404b8487268f5ull,
    0x51ed0e4c3b88a351ull, 0x06caa4f7629e953bull, 0xf458ce8553104c19ull,
    // 3 tenants, bound 2: {equal, unequal} x {static, weighted 1, weighted 8}
    0x3d333769746e0d26ull, 0x8cf6cab9bc572c58ull, 0xa300e1322d7c9cc3ull,
    0x2c19f2397a1859d6ull, 0xbf70c52d4b2128c2ull, 0xb5e5406b8a782f1cull,
    // 3 tenants, bound 4: {equal, unequal} x {static, weighted 1, weighted 8}
    0x3a22385f6eb74652ull, 0x8cf6cab9bc572c58ull, 0x203404b8487268f5ull,
    0x929100dde79196b8ull, 0xbf70c52d4b2128c2ull, 0x807476633955205full,
    // 3 tenants, bound 64: {equal, unequal} x {static, weighted 1, weighted 8}
    0x3a22385f6eb74652ull, 0x8cf6cab9bc572c58ull, 0x203404b8487268f5ull,
    0x929100dde79196b8ull, 0xbf70c52d4b2128c2ull, 0x807476633955205full,
    // 5 tenants, bound 1: {equal, unequal} x {static, weighted 1, weighted 8}
    0xb84838ee6275202eull, 0x02b6563d4bb3e4eaull, 0x0208e9f713f90680ull,
    0xfbecd565d2228284ull, 0x2f205b38d6fe9fb3ull, 0x46b483e5a2d95cefull,
    // 5 tenants, bound 2: {equal, unequal} x {static, weighted 1, weighted 8}
    0xbbbd0490d9f28309ull, 0x1e7ace0c5519a346ull, 0x3544a5d8ec6238b8ull,
    0x142fc9ade39d892full, 0x5a696b9936a87628ull, 0xe697c36f00199784ull,
    // 5 tenants, bound 4: {equal, unequal} x {static, weighted 1, weighted 8}
    0xb84838ee6275202eull, 0x02b6563d4bb3e4eaull, 0x5249a57ac0827489ull,
    0x24d2dbca22bf0fcaull, 0x2f205b38d6fe9fb3ull, 0x158bc239fbca8002ull,
    // 5 tenants, bound 64: {equal, unequal} x {static, weighted 1, weighted 8}
    0xb84838ee6275202eull, 0x02b6563d4bb3e4eaull, 0x0208e9f713f90680ull,
    0x873c183bb1006d3dull, 0x2f205b38d6fe9fb3ull, 0x4ecf49567e6a4162ull,
    // 8 tenants, bound 1: {equal, unequal} x {static, weighted 1, weighted 8}
    0x703b95789b535a39ull, 0x8ddd5d2049e87607ull, 0x2078af63c3c47b39ull,
    0x17aa95e9a8080644ull, 0xcd5c47af118f58b4ull, 0x35cf19227b3f2cf2ull,
    // 8 tenants, bound 2: {equal, unequal} x {static, weighted 1, weighted 8}
    0x641d022203686e0eull, 0xcfa8bb376c05058full, 0x06001c41d1c8df6aull,
    0x8838e7740340eedeull, 0xccd247e96211a4b4ull, 0xb73f0fc4c034ad58ull,
    // 8 tenants, bound 4: {equal, unequal} x {static, weighted 1, weighted 8}
    0x703b95789b535a39ull, 0x8ddd5d2049e87607ull, 0x6b8852e32185b705ull,
    0xec98316fc000129bull, 0xcd5c47af118f58b4ull, 0x8495293dc2456e8full,
    // 8 tenants, bound 64: {equal, unequal} x {static, weighted 1, weighted 8}
    0x703b95789b535a39ull, 0x8ddd5d2049e87607ull, 0x2078af63c3c47b39ull,
    0x17aa95e9a8080644ull, 0xcd5c47af118f58b4ull, 0x35cf19227b3f2cf2ull,
};
// clang-format on

TEST(Golden, ContendedArbiterShapes) {
  const std::vector<ArbiterShape> shapes = arbiter_shapes();
  ASSERT_EQ(shapes.size(), std::size(kArbiterShapeDigests));
  fleet::TraceRepository repo;
  for (std::size_t i = 0; i < shapes.size(); ++i)
    for (const CosimMode mode : {CosimMode::kFastForward, CosimMode::kReference})
      EXPECT_EQ(run_shape(repo, shapes[i], mode), kArbiterShapeDigests[i])
          << "cell " << i << ": " << shapes[i].label()
          << (mode == CosimMode::kFastForward ? ", fast-forward" : ", reference");
}

/// Digest of an encode: every instance's hot spot and runs, then the bits
/// of the mean PSNR and bitrate.
std::uint64_t digest(const h264::WorkloadResult& r) {
  std::uint64_t h = 0;
  for (const HotSpotInstance& inst : r.trace.instances) {
    h = fingerprint_mix(h, inst.hot_spot);
    for (const SiRun& run : inst.runs) {
      h = fingerprint_mix(h, run.si);
      h = fingerprint_mix(h, run.count);
    }
  }
  h = fingerprint_mix(h, std::bit_cast<std::uint64_t>(r.mean_psnr));
  return fingerprint_mix(h, std::bit_cast<std::uint64_t>(r.mean_bitrate_kbps));
}

TEST(Golden, H264Traces) {
  // The encoder-test configuration (5 frames of 96x64, two objects) and
  // three frames of the default CIF workload. Both kernel backends must
  // produce the same trace, so each has one constant.
  h264::WorkloadConfig small;
  small.frames = 5;
  small.video.width = 96;
  small.video.height = 64;
  small.video.object_count = 2;
  h264::WorkloadConfig cif;
  cif.frames = 3;
  struct Cell {
    const char* name;
    const h264::WorkloadConfig* config;
    std::uint64_t expected;
  };
  const Cell cells[] = {
      {"96x64 x5", &small, 0xb8602df36783989full},
      {"CIF x3", &cif, 0xb8dbeb3b32ce63c9ull},
  };
  const SpecialInstructionSet set = h264sis::build_h264_si_set();
  const h264::KernelBackend entry = h264::active_kernel_backend();
  for (const h264::KernelBackend backend :
       {h264::KernelBackend::kScalar, h264::KernelBackend::kSimd}) {
    h264::set_kernel_backend(backend);
    for (const Cell& cell : cells)
      EXPECT_EQ(digest(h264::generate_h264_workload(set, *cell.config)), cell.expected)
          << cell.name << ", "
          << (h264::active_kernel_backend() == h264::KernelBackend::kSimd ? "simd" : "scalar");
  }
  h264::set_kernel_backend(entry);
}

}  // namespace
}  // namespace rispp
