// Tests of the H.264-subset encoder and the workload generation pipeline.
#include <gtest/gtest.h>

#include "h264/kernels.h"
#include "h264/workload.h"
#include "isa/h264_si_library.h"

namespace rispp::h264 {
namespace {

WorkloadConfig small_config(int frames) {
  WorkloadConfig config;
  config.frames = frames;
  config.video.width = 96;   // 6x4 MBs — fast tests
  config.video.height = 64;
  config.video.object_count = 2;
  return config;
}

TEST(Encoder, FirstFrameIsAllIntra) {
  const auto set = h264sis::build_h264_si_set();
  const auto config = small_config(1);
  const auto result = generate_h264_workload(set, config);
  EXPECT_EQ(result.inter_mbs, 0);
  EXPECT_EQ(result.intra_mbs, 6 * 4);
  // No ME instance for an intra frame: only EE and LF.
  ASSERT_EQ(result.trace.instances.size(), 2u);
  EXPECT_EQ(result.trace.instances[0].hot_spot, kHotSpotEe);
  EXPECT_EQ(result.trace.instances[1].hot_spot, kHotSpotLf);
}

TEST(Encoder, PFramesAreMostlyInter) {
  const auto set = h264sis::build_h264_si_set();
  const auto result = generate_h264_workload(set, small_config(6));
  EXPECT_GT(result.inter_mbs, result.intra_mbs);
  // Frames 1..5 contribute 3 instances each (ME, EE, LF).
  EXPECT_EQ(result.trace.instances.size(), 2u + 5u * 3u);
}

TEST(Encoder, ReconstructionQualityIsReasonable) {
  const auto set = h264sis::build_h264_si_set();
  const auto result = generate_h264_workload(set, small_config(6));
  EXPECT_GT(result.mean_psnr, 28.0);  // lossy but recognizable
  EXPECT_LT(result.mean_psnr, 99.0);  // actually lossy
}

TEST(Encoder, TraceContainsOnlyHotSpotSis) {
  const auto set = h264sis::build_h264_si_set();
  const auto result = generate_h264_workload(set, small_config(4));
  for (const auto& inst : result.trace.instances) {
    const auto& allowed = result.trace.hot_spots[inst.hot_spot].sis;
    for (const SiRun& run : inst.runs)
      EXPECT_NE(std::find(allowed.begin(), allowed.end(), run.si), allowed.end())
          << "SI " << run.si << " in hot spot " << result.trace.hot_spots[inst.hot_spot].name;
  }
}

TEST(Encoder, DeterministicTraces) {
  const auto set = h264sis::build_h264_si_set();
  const auto a = generate_h264_workload(set, small_config(4));
  const auto b = generate_h264_workload(set, small_config(4));
  ASSERT_EQ(a.trace.instances.size(), b.trace.instances.size());
  for (std::size_t i = 0; i < a.trace.instances.size(); ++i)
    EXPECT_EQ(a.trace.instances[i].runs, b.trace.instances[i].runs);
}

TEST(Encoder, MotionPhaseModulatesSearchEffort) {
  // Data dependence: per-frame ME counts vary (non-constant search effort).
  const auto set = h264sis::build_h264_si_set();
  const auto result = generate_h264_workload(set, small_config(12));
  std::vector<std::size_t> me_counts;
  for (const auto& inst : result.trace.instances)
    if (inst.hot_spot == kHotSpotMe) me_counts.push_back(inst.execution_count);
  ASSERT_GE(me_counts.size(), 5u);
  const auto [min_it, max_it] = std::minmax_element(me_counts.begin(), me_counts.end());
  EXPECT_GT(*max_it, *min_it);
}

TEST(Encoder, WavefrontDeterminism) {
  // The wavefront-parallel encoder must reproduce the single-thread trace
  // event for event at any thread count — the trace cache is keyed without
  // the thread count on exactly this guarantee. All three hot spots run as
  // wavefronts (ME/EE with a one-MB lag, the deblocking LF with a two-MB
  // lag), so the comparison must see every kind of instance; in particular
  // a trace without LF executions would vacuously pass the filter check.
  const auto set = h264sis::build_h264_si_set();
  auto config = small_config(5);
  config.encode_threads = 1;
  const auto reference = generate_h264_workload(set, config);
  std::size_t reference_lf_executions = 0;
  for (const auto& inst : reference.trace.instances)
    if (inst.hot_spot == kHotSpotLf) reference_lf_executions += inst.execution_count;
  EXPECT_GT(reference_lf_executions, 0u)
      << "workload exercises no deblocking; the LF wavefront is untested";
  for (int threads : {2, 3, 8, 16}) {
    config.encode_threads = threads;
    const auto parallel = generate_h264_workload(set, config);
    EXPECT_EQ(parallel.mean_psnr, reference.mean_psnr) << threads << " threads";
    EXPECT_EQ(parallel.mean_bitrate_kbps, reference.mean_bitrate_kbps)
        << threads << " threads";
    EXPECT_EQ(parallel.intra_mbs, reference.intra_mbs) << threads << " threads";
    EXPECT_EQ(parallel.inter_mbs, reference.inter_mbs) << threads << " threads";
    ASSERT_EQ(parallel.trace.instances.size(), reference.trace.instances.size())
        << threads << " threads";
    for (std::size_t i = 0; i < reference.trace.instances.size(); ++i) {
      EXPECT_EQ(parallel.trace.instances[i].hot_spot,
                reference.trace.instances[i].hot_spot)
          << threads << " threads, instance " << i;
      EXPECT_EQ(parallel.trace.instances[i].runs, reference.trace.instances[i].runs)
          << threads << " threads, instance " << i;
    }
  }
}

TEST(Encoder, WavefrontDeterministicAcrossKernelBackends) {
  // SIMD on/off must also be invisible in the trace (bit-exact kernels).
  if (!simd_available()) GTEST_SKIP() << "SIMD backend not compiled in";
  const auto set = h264sis::build_h264_si_set();
  const auto config = small_config(4);
  const KernelBackend entry = active_kernel_backend();
  set_kernel_backend(KernelBackend::kScalar);
  const auto scalar = generate_h264_workload(set, config);
  set_kernel_backend(KernelBackend::kSimd);
  const auto simd = generate_h264_workload(set, config);
  set_kernel_backend(entry);
  EXPECT_EQ(scalar.mean_psnr, simd.mean_psnr);
  ASSERT_EQ(scalar.trace.instances.size(), simd.trace.instances.size());
  for (std::size_t i = 0; i < scalar.trace.instances.size(); ++i)
    EXPECT_EQ(scalar.trace.instances[i].runs, simd.trace.instances[i].runs)
        << "instance " << i;
}

TEST(Encoder, WideSearchRangeMatchesScalarBackend) {
  // The SIMD path's reference planes are padded for the configured search
  // range: at twice the default, the trace must still be the scalar
  // reference's.
  if (!simd_available()) GTEST_SKIP() << "SIMD backend not compiled in";
  const auto set = h264sis::build_h264_si_set();
  auto config = small_config(4);
  config.encoder.search.search_range = 32;
  const KernelBackend entry = active_kernel_backend();
  set_kernel_backend(KernelBackend::kScalar);
  const auto scalar = generate_h264_workload(set, config);
  set_kernel_backend(KernelBackend::kSimd);
  const auto simd = generate_h264_workload(set, config);
  set_kernel_backend(entry);
  EXPECT_EQ(scalar.mean_psnr, simd.mean_psnr);
  EXPECT_EQ(scalar.mean_bitrate_kbps, simd.mean_bitrate_kbps);
  ASSERT_EQ(scalar.trace.instances.size(), simd.trace.instances.size());
  for (std::size_t i = 0; i < scalar.trace.instances.size(); ++i)
    EXPECT_EQ(scalar.trace.instances[i].runs, simd.trace.instances[i].runs)
        << "instance " << i;
}

TEST(Workload, CifMeCountsNearPaperProfile) {
  // Figure 2: 31,977 SAD+SATD executions in one frame's ME hot spot. Our
  // synthetic sequence lands in the same band (20K-40K).
  const auto set = h264sis::build_h264_si_set();
  WorkloadConfig config;  // full CIF
  config.frames = 3;
  const auto result = generate_h264_workload(set, config);
  std::vector<std::size_t> me_counts;
  for (const auto& inst : result.trace.instances)
    if (inst.hot_spot == kHotSpotMe) me_counts.push_back(inst.execution_count);
  ASSERT_EQ(me_counts.size(), 2u);
  for (std::size_t c : me_counts) {
    EXPECT_GT(c, 20'000u);
    EXPECT_LT(c, 45'000u);
  }
}

TEST(Workload, SeedsCoverEveryHotSpotSi) {
  const auto set = h264sis::build_h264_si_set();
  const auto seeds = default_forecast_seeds(set);
  ASSERT_EQ(seeds.size(), 3u);
  const H264SiIds ids = resolve_si_ids(set);
  EXPECT_GT(seeds[kHotSpotMe][ids.sad], 0u);
  EXPECT_GT(seeds[kHotSpotMe][ids.satd], 0u);
  EXPECT_GT(seeds[kHotSpotEe][ids.mc], 0u);
  EXPECT_GT(seeds[kHotSpotLf][ids.lf_bs4], 0u);
}

TEST(Workload, ResolveSiIdsThrowsOnForeignSet) {
  AtomLibrary lib;
  lib.add({"X", 1, 2, 100});
  SpecialInstructionSet set(std::move(lib));
  EXPECT_THROW(resolve_si_ids(set), std::logic_error);
}

}  // namespace
}  // namespace rispp::h264
