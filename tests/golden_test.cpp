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
// every hot_spot_cycles entry of a SimResult.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "fleet/session_batch.h"
#include "fleet/tenant_fleet.h"
#include "fleet/trace_repository.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "sim/executor.h"

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
  for (HotSpotId hs = 0; hs < entry.seeds.size(); ++hs)
    for (SiId si = 0; si < entry.seeds[hs].size(); ++si)
      if (entry.seeds[hs][si] != 0) rtm.seed_forecast(hs, si, entry.seeds[hs][si]);
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

}  // namespace
}  // namespace rispp
