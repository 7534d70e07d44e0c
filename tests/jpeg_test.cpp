// Tests for the second platform instance (JPEG-style compressor): library
// consistency, workload generation, and the cross-domain scheduler sanity.
#include <gtest/gtest.h>

#include "baselines/software_only.h"
#include "jpeg/jpeg_si_library.h"
#include "jpeg/jpeg_workload.h"
#include "rtm/run_time_manager.h"
#include "sched/registry.h"
#include "sim/executor.h"

namespace rispp::jpeg {
namespace {

using jpegsis::build_jpeg_si_set;

JpegWorkloadConfig small_config() {
  JpegWorkloadConfig config;
  config.images = 6;
  config.width = 128;
  config.height = 96;
  return config;
}

TEST(JpegLibrary, FiveSisOverSixAtomTypes) {
  const auto set = build_jpeg_si_set();
  EXPECT_EQ(set.si_count(), 5u);
  EXPECT_EQ(set.atom_type_count(), 6u);
  for (const char* name : {jpegsis::kCsc, jpegsis::kDownsample, jpegsis::kFdct,
                           jpegsis::kQuant, jpegsis::kRle})
    EXPECT_TRUE(set.find(name).has_value()) << name;
}

TEST(JpegLibrary, MoleculeSetsAreConsistent) {
  const auto set = build_jpeg_si_set();
  for (SiId id = 0; id < set.si_count(); ++id) {
    const auto& si = set.si(id);
    EXPECT_GE(si.molecules.size(), 2u) << si.name;
    for (const auto& m : si.molecules) {
      EXPECT_LT(m.latency, si.software_latency);
      for (const auto& o : si.molecules) {
        if (o.atoms != m.atoms && leq(o.atoms, m.atoms)) {
          EXPECT_GT(o.latency, m.latency);
        }
      }
    }
  }
}

TEST(JpegWorkload, ThreeHotSpotsPerImage) {
  const auto set = build_jpeg_si_set();
  const auto workload = generate_jpeg_workload(set, small_config());
  EXPECT_EQ(workload.trace.instances.size(), 6u * 3u);
  EXPECT_GT(workload.total_blocks, 0u);
  EXPECT_GT(workload.mean_activity, 0.0);
  // 128x96 -> 48 MCUs -> 288 blocks per image.
  EXPECT_EQ(workload.total_blocks, 6u * 288u);
}

TEST(JpegWorkload, RleCountsAreDataDependent) {
  const auto set = build_jpeg_si_set();
  const auto workload = generate_jpeg_workload(set, small_config());
  const SiId rle = set.find(jpegsis::kRle).value();
  std::vector<std::size_t> ec_counts;
  for (const auto& inst : workload.trace.instances)
    if (inst.hot_spot == kHotSpotEc) {
      std::size_t n = 0;
      for (const SiRun& run : inst.runs)
        if (run.si == rle) n += run.count;
      ec_counts.push_back(n);
    }
  ASSERT_EQ(ec_counts.size(), 6u);
  const auto [lo, hi] = std::minmax_element(ec_counts.begin(), ec_counts.end());
  EXPECT_GT(*hi, *lo);  // busy images produce more RLE work
}

TEST(JpegWorkload, DeterministicForEqualConfig) {
  const auto set = build_jpeg_si_set();
  const auto a = generate_jpeg_workload(set, small_config());
  const auto b = generate_jpeg_workload(set, small_config());
  ASSERT_EQ(a.trace.instances.size(), b.trace.instances.size());
  for (std::size_t i = 0; i < a.trace.instances.size(); ++i)
    EXPECT_EQ(a.trace.instances[i].runs, b.trace.instances[i].runs);
}

TEST(JpegPlatform, RisppBeatsSoftwareAndHefIsCompetitive) {
  const auto set = build_jpeg_si_set();
  const auto workload = generate_jpeg_workload(set, small_config());

  SoftwareOnlyBackend software(&set);
  const Cycles sw = run_trace(workload.trace, software).total_cycles;

  Cycles best_other = kMaxCycles;
  Cycles hef = 0;
  for (const auto& name : scheduler_names()) {
    auto scheduler = make_scheduler(name);
    RtmConfig config;
    config.container_count = 10;
    config.scheduler = scheduler.get();
    RunTimeManager rtm(&set, workload.trace.hot_spots.size(), config);
    seed_jpeg_forecasts(set, rtm);
    const Cycles cycles = run_trace(workload.trace, rtm).total_cycles;
    if (name == "HEF") hef = cycles;
    else best_other = std::min(best_other, cycles);
  }
  EXPECT_LT(hef, sw / 2);  // hardware pays off on this domain too
  EXPECT_LE(static_cast<double>(hef), static_cast<double>(best_other) * 1.05);
}

}  // namespace
}  // namespace rispp::jpeg
