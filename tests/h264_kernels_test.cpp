// Tests of the functional H.264 kernels against naive references and their
// algebraic identities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

#include "base/prng.h"
#include "h264/deblock.h"
#include "h264/frame.h"
#include "h264/interpolate.h"
#include "h264/intra.h"
#include "h264/kernels.h"
#include "h264/motion_search.h"
#include "h264/quant.h"
#include "h264/synthetic_video.h"
#include "h264/transform.h"

namespace rispp::h264 {
namespace {

Plane random_plane(Xoshiro256& rng, int w, int h) {
  Plane p(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) p.at(x, y) = static_cast<Pixel>(rng.bounded(256));
  return p;
}

TEST(PlaneTest, ClampedAccess) {
  Plane p(4, 4);
  p.at(0, 0) = 10;
  p.at(3, 3) = 99;
  EXPECT_EQ(p.at_clamped(-5, -5), 10);
  EXPECT_EQ(p.at_clamped(100, 100), 99);
  EXPECT_THROW((void)p.at(4, 0), std::logic_error);
}

TEST(SadTest, MatchesNaiveReference) {
  Xoshiro256 rng(1);
  const Plane a = random_plane(rng, 64, 64);
  const Plane b = random_plane(rng, 64, 64);
  PaddedPlane padded(64, 64, 8);
  padded.replicate(b);
  for (int trial = 0; trial < 20; ++trial) {
    const int cx = static_cast<int>(rng.bounded(48));
    const int cy = static_cast<int>(rng.bounded(48));
    const int rx = static_cast<int>(rng.range(-8, 55));
    const int ry = static_cast<int>(rng.range(-8, 55));
    std::uint32_t expected = 0;
    for (int y = 0; y < 16; ++y)
      for (int x = 0; x < 16; ++x)
        expected += static_cast<std::uint32_t>(
            std::abs(static_cast<int>(a.at(cx + x, cy + y)) - b.at_clamped(rx + x, ry + y)));
    EXPECT_EQ(sad_16x16_scalar(a, cx, cy, b, rx, ry), expected);
    EXPECT_EQ(sad_16x16(a.row(cy) + cx, a.width(), padded.block16(rx, ry), padded.stride()),
              expected);
  }
}

TEST(SadTest, ZeroForIdenticalBlocks) {
  Xoshiro256 rng(2);
  const Plane a = random_plane(rng, 32, 32);
  EXPECT_EQ(sad_16x16_scalar(a, 8, 8, a, 8, 8), 0u);
  EXPECT_EQ(sad_16x16(a.row(8) + 8, a.width(), a.row(8) + 8, a.width()), 0u);
}

TEST(SatdTest, ZeroForIdenticalBlocks) {
  Xoshiro256 rng(3);
  const Plane a = random_plane(rng, 32, 32);
  EXPECT_EQ(satd_4x4(a, 4, 4, a, 4, 4), 0u);
  EXPECT_EQ(satd_16x16_scalar(a, 8, 8, a, 8, 8), 0u);
  EXPECT_EQ(satd_16x16(a.row(8) + 8, a.width(), a.row(8) + 8, a.width()), 0u);
}

TEST(SatdTest, DcDifferenceTransformsToSingleCoefficient) {
  // A constant residual d concentrates in the DC coefficient: SATD of a 4x4
  // block with constant difference d is |16*d|/2 = 8*|d|.
  Plane a(8, 8, 100), b(8, 8, 90);
  EXPECT_EQ(satd_4x4(a, 0, 0, b, 0, 0), 80u);
}

TEST(SatdTest, SatdLowerBoundedByHalfSad) {
  // Cauchy–Schwarz/Parseval: sum|H(d)| >= sum|d| per 4x4 block, so
  // 2*SATD >= SAD (up to the 16 floor-divisions of the /2 normalization).
  Xoshiro256 rng(4);
  const Plane a = random_plane(rng, 32, 32);
  const Plane b = random_plane(rng, 32, 32);
  for (int trial = 0; trial < 10; ++trial) {
    const int x = static_cast<int>(rng.bounded(16));
    const int y = static_cast<int>(rng.bounded(16));
    EXPECT_GE(2 * satd_16x16_scalar(a, x, y, b, x, y) + 32, sad_16x16_scalar(a, x, y, b, x, y));
    const Pixel* pa = a.row(y) + x;
    const Pixel* pb = b.row(y) + x;
    EXPECT_GE(2 * satd_16x16(pa, a.width(), pb, b.width()) + 32,
              sad_16x16(pa, a.width(), pb, b.width()));
  }
}

TEST(SatdTest, Blockwise16x16Decomposition) {
  Xoshiro256 rng(5);
  const Plane a = random_plane(rng, 32, 32);
  const Plane b = random_plane(rng, 32, 32);
  std::uint32_t sum = 0;
  for (int by = 0; by < 16; by += 4)
    for (int bx = 0; bx < 16; bx += 4) sum += satd_4x4(a, bx, by, b, bx, by);
  EXPECT_EQ(satd_16x16_scalar(a, 0, 0, b, 0, 0), sum);
  EXPECT_EQ(satd_16x16(a.row(0), a.width(), b.row(0), b.width()), sum);
}

TEST(TransformTest, DctRoundTripIsExactUpTo400) {
  Xoshiro256 rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    int in[16], coeff[16], out[16];
    for (int& v : in) v = static_cast<int>(rng.range(-255, 255));
    dct4x4(in, coeff);
    idct4x4(coeff, out);
    for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], 400 * in[i]);
  }
}

TEST(TransformTest, DctOfConstantBlockIsDcOnly) {
  int in[16], coeff[16];
  for (int& v : in) v = 7;
  dct4x4(in, coeff);
  EXPECT_EQ(coeff[0], 16 * 7);
  for (int i = 1; i < 16; ++i) EXPECT_EQ(coeff[i], 0);
}

TEST(TransformTest, Hadamard4x4InvolutionUpTo16) {
  Xoshiro256 rng(7);
  int in[16], mid[16], out[16];
  for (int& v : in) v = static_cast<int>(rng.range(-1000, 1000));
  hadamard4x4(in, mid);
  hadamard4x4(mid, out);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], 16 * in[i]);
}

TEST(TransformTest, Hadamard2x2InvolutionUpTo4) {
  int in[4] = {13, -5, 8, 600}, mid[4], out[4];
  hadamard2x2(in, mid);
  hadamard2x2(mid, out);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], 4 * in[i]);
}

TEST(QuantTest, StepDoublesEverySixQp) {
  for (int qp = 0; qp + 6 <= 51; ++qp)
    EXPECT_EQ(quant_step(qp + 6), 2 * quant_step(qp));
}

TEST(QuantTest, RoundTripErrorBoundedByStep) {
  Xoshiro256 rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    const int qp = static_cast<int>(rng.bounded(52));
    const int v = static_cast<int>(rng.range(-5000, 5000));
    const int rec = dequantize(quantize(v, qp), qp);
    EXPECT_LE(std::abs(rec - v), quant_step(qp));
  }
}

TEST(QuantTest, QuantizePreservesSignAndZero) {
  EXPECT_EQ(quantize(0, 20), 0);
  EXPECT_GT(quantize(10'000, 20), 0);
  EXPECT_LT(quantize(-10'000, 20), 0);
  EXPECT_EQ(quantize(-10'000, 20), -quantize(10'000, 20));
}

TEST(QuantTest, DescaleIdctRoundsSymmetrically) {
  EXPECT_EQ(descale_idct(400), 1);
  EXPECT_EQ(descale_idct(-400), -1);
  EXPECT_EQ(descale_idct(199), 0);
  EXPECT_EQ(descale_idct(200), 1);
  EXPECT_EQ(descale_idct(-200), -1);
}

TEST(InterpolateTest, FullPelIsIdentity) {
  Xoshiro256 rng(9);
  const Plane p = random_plane(rng, 32, 32);
  EXPECT_EQ(interpolate_half_pel(p, 5, 7, false, false), p.at(5, 7));
}

TEST(InterpolateTest, HalfPelOfConstantPlaneIsConstant)
{
  const Plane p(32, 32, 77);
  EXPECT_EQ(interpolate_half_pel(p, 10, 10, true, false), 77);
  EXPECT_EQ(interpolate_half_pel(p, 10, 10, false, true), 77);
  EXPECT_EQ(interpolate_half_pel(p, 10, 10, true, true), 77);
}

TEST(InterpolateTest, HorizontalHalfPelMatchesDirectFilter) {
  Xoshiro256 rng(10);
  const Plane p = random_plane(rng, 32, 32);
  const int x = 10, y = 12;
  const int raw = point_filter_6tap(p.at(x - 2, y), p.at(x - 1, y), p.at(x, y),
                                    p.at(x + 1, y), p.at(x + 2, y), p.at(x + 3, y));
  EXPECT_EQ(interpolate_half_pel(p, x, y, true, false), clip_pixel((raw + 16) >> 5));
}

TEST(InterpolateTest, MotionCompensationFullPelCopies) {
  Xoshiro256 rng(11);
  const Plane p = random_plane(rng, 64, 64);
  Pixel dst[16 * 16];
  motion_compensate_16x16_scalar(p, 16, 16, MotionVector{4, -6}, dst);  // (+2,-3) full pel
  RefPlanes planes;
  planes.build(p, MotionSearchConfig{}.search_range);
  const BlockRef read = planes.prediction(16, 16, MotionVector{4, -6});
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x) {
      EXPECT_EQ(dst[y * 16 + x], p.at(16 + 2 + x, 16 - 3 + y));
      EXPECT_EQ(read.data[y * read.stride + x], p.at(16 + 2 + x, 16 - 3 + y));
    }
}

TEST(InterpolateTest, NegativeHalfPelVectorDecomposition) {
  // mv.x = -3 half-pels = -2 full + half: base floor(-3/2) = -2, half set.
  const MotionVector mv{-3, 0};
  EXPECT_TRUE(mv.is_half_pel());
  Xoshiro256 rng(12);
  const Plane p = random_plane(rng, 64, 64);
  Pixel dst[16 * 16];
  motion_compensate_16x16_scalar(p, 32, 32, mv, dst);
  EXPECT_EQ(dst[0], interpolate_half_pel(p, 32 - 2, 32, true, false));
  RefPlanes planes;
  planes.build(p, MotionSearchConfig{}.search_range);
  EXPECT_EQ(planes.prediction(32, 32, mv).data[0], dst[0]);
}

TEST(IntraTest, HdcAveragesLeftColumn) {
  Plane recon(32, 32, 0);
  for (int y = 0; y < 16; ++y) recon.at(15, 16 + y) = 100;
  Pixel pred[16 * 16];
  ipred_hdc_16x16(recon, 16, 16, pred);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(pred[i], 100);
}

TEST(IntraTest, VdcAveragesTopRow) {
  Plane recon(32, 32, 0);
  for (int x = 0; x < 16; ++x) recon.at(16 + x, 15) = 60;
  Pixel pred[16 * 16];
  ipred_vdc_16x16(recon, 16, 16, pred);
  for (int i = 0; i < 256; ++i) EXPECT_EQ(pred[i], 60);
}

TEST(IntraTest, FrameBorderFallsBackTo128) {
  Plane recon(32, 32, 200);
  Pixel pred[16 * 16];
  ipred_hdc_16x16(recon, 0, 0, pred);
  EXPECT_EQ(pred[0], 128);
  ipred_vdc_16x16(recon, 0, 0, pred);
  EXPECT_EQ(pred[0], 128);
}

TEST(DeblockTest, SmoothsAHardEdge) {
  Plane p(32, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) p.at(x, y) = x < 16 ? 100 : 120;
  const DeblockThresholds th;
  const int filtered = deblock_bs4_vertical(p, 16, 0, th);
  EXPECT_EQ(filtered, 16);
  // The step is smaller after filtering.
  EXPECT_LT(std::abs(p.at(16, 4) - p.at(15, 4)), 20);
}

TEST(DeblockTest, LeavesStrongRealEdgesAlone) {
  Plane p(32, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) p.at(x, y) = x < 16 ? 20 : 220;  // |p0-q0|=200 >= alpha
  const DeblockThresholds th;
  EXPECT_EQ(deblock_bs4_vertical(p, 16, 0, th), 0);
  EXPECT_EQ(p.at(16, 4), 220);
}

TEST(DeblockTest, HorizontalMirrorsVertical) {
  Plane v(32, 32), h(32, 32);
  for (int y = 0; y < 32; ++y)
    for (int x = 0; x < 32; ++x) {
      v.at(x, y) = x < 16 ? 100 : 118;
      h.at(x, y) = y < 16 ? 100 : 118;
    }
  const DeblockThresholds th;
  EXPECT_EQ(deblock_bs4_vertical(v, 16, 0, th), deblock_bs4_horizontal(h, 0, 16, th));
  EXPECT_EQ(v.at(16, 3), h.at(3, 16));
}

TEST(SyntheticVideoTest, DeterministicAndMoving) {
  VideoConfig cfg;
  cfg.width = 64;
  cfg.height = 48;
  SyntheticVideo gen1(cfg), gen2(cfg);
  const Frame f1a = gen1.next();
  const Frame f1b = gen2.next();
  // Determinism: same config, same frames.
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 64; ++x) ASSERT_EQ(f1a.y.at(x, y), f1b.y.at(x, y));
  // Motion: consecutive frames differ substantially.
  const Frame f2 = gen1.next();
  std::uint64_t diff = 0;
  for (int y = 0; y < 48; ++y)
    for (int x = 0; x < 64; ++x) diff += std::abs(static_cast<int>(f2.y.at(x, y)) - f1a.y.at(x, y));
  EXPECT_GT(diff, 1000u);
}

// ---------------------------------------------------------------------------
// Scalar/SIMD backend equivalence. The SIMD path's kernels read padded
// reference planes through row pointers and claim bit-exactness with the
// scalar references, which clamp each access to the frame; the fuzzers
// below hammer that claim with random and saturated content, random block
// positions, and reference positions that cross the frame border (into the
// pad).

TEST(KernelBackendTest, OverrideAndAvailability) {
  const KernelBackend entry = active_kernel_backend();
  set_kernel_backend(KernelBackend::kScalar);
  EXPECT_EQ(active_kernel_backend(), KernelBackend::kScalar);
  set_kernel_backend(KernelBackend::kSimd);
  // Selecting kSimd without the backend compiled in keeps scalar.
  EXPECT_EQ(active_kernel_backend(),
            simd_available() ? KernelBackend::kSimd : KernelBackend::kScalar);
  set_kernel_backend(entry);
}

TEST(KernelBackendTest, DispatchFollowsOverride) {
  Xoshiro256 rng(20);
  const Plane a = random_plane(rng, 48, 48);
  Pixel pred[16 * 16];
  for (auto& p : pred) p = static_cast<Pixel>(rng.bounded(256));
  const KernelBackend entry = active_kernel_backend();
  set_kernel_backend(KernelBackend::kScalar);
  const std::uint32_t scalar = satd_16x16_pred(a, 8, 8, pred);
  set_kernel_backend(KernelBackend::kSimd);
  const std::uint32_t dispatched = satd_16x16_pred(a, 8, 8, pred);
  set_kernel_backend(entry);
  EXPECT_EQ(scalar, satd_16x16_pred_scalar(a, 8, 8, pred));
  EXPECT_EQ(dispatched, scalar);  // bit-exact whichever backend ran
}

TEST(KernelEquivalenceTest, SadAndSatdFuzz) {
  Xoshiro256 rng(21);
  const Plane a = random_plane(rng, 80, 64);
  const Plane b = random_plane(rng, 80, 64);
  PaddedPlane padded(80, 64, 24);
  padded.replicate(b);
  for (int trial = 0; trial < 400; ++trial) {
    const int cx = static_cast<int>(rng.bounded(80 - 16 + 1));
    const int cy = static_cast<int>(rng.bounded(64 - 16 + 1));
    // Reference positions deliberately overshoot the plane on every side:
    // the scalar kernels clamp there, the row-pointer kernels read the pad.
    const int rx = static_cast<int>(rng.range(-24, 88));
    const int ry = static_cast<int>(rng.range(-24, 72));
    const Pixel* cur = a.row(cy) + cx;
    const Pixel* ref = padded.block16(rx, ry);
    ASSERT_EQ(sad_16x16_scalar(a, cx, cy, b, rx, ry),
              sad_16x16(cur, a.width(), ref, padded.stride()))
        << "cx=" << cx << " cy=" << cy << " rx=" << rx << " ry=" << ry;
    ASSERT_EQ(satd_16x16_scalar(a, cx, cy, b, rx, ry),
              satd_16x16(cur, a.width(), ref, padded.stride()))
        << "cx=" << cx << " cy=" << cy << " rx=" << rx << " ry=" << ry;
  }
}

TEST(KernelEquivalenceTest, SatdPredFuzz) {
  Xoshiro256 rng(22);
  const Plane a = random_plane(rng, 64, 64);
  for (int trial = 0; trial < 200; ++trial) {
    Pixel pred[16 * 16];
    for (auto& p : pred) p = static_cast<Pixel>(rng.bounded(256));
    const int cx = static_cast<int>(rng.bounded(64 - 16 + 1));
    const int cy = static_cast<int>(rng.bounded(64 - 16 + 1));
    ASSERT_EQ(satd_16x16_pred_scalar(a, cx, cy, pred),
              satd_16x16(a.row(cy) + cx, a.width(), pred, 16))
        << "cx=" << cx << " cy=" << cy;
  }
}

/// Test plane contents: 0 random, 1 all 0, 2 all 255, 3 a 0/255 pixel
/// checkerboard, 4 its inverse, 5 columns 0-2 of every four at 255 and
/// column 3 at 0, 6 the inverse of 5, 7 random 0/255.
Plane pattern_plane(Xoshiro256& rng, int w, int h, int pattern) {
  if (pattern == 0) return random_plane(rng, w, h);
  Plane p(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x) {
      bool on = false;
      switch (pattern) {
        case 1: on = false; break;
        case 2: on = true; break;
        case 3: on = ((x + y) & 1) != 0; break;
        case 4: on = ((x + y) & 1) == 0; break;
        case 5: on = (x & 3) != 3; break;
        case 6: on = (x & 3) == 3; break;
        default: on = rng.bounded(2) != 0; break;
      }
      p.at(x, y) = on ? 255 : 0;
    }
  return p;
}

TEST(KernelEquivalenceTest, SaturatedSadAndSatdFuzz) {
  // Extreme residuals: every pair of all-0, all-255, checkerboard, column
  // and random 0/255 contents, at strides other than 16.
  Xoshiro256 rng(25);
  for (int pa = 1; pa <= 7; ++pa) {
    for (int pb = 1; pb <= 7; ++pb) {
      const Plane a = pattern_plane(rng, 48, 40, pa);
      const Plane b = pattern_plane(rng, 56, 48, pb);
      PaddedPlane padded(56, 48, 16);
      padded.replicate(b);
      for (int trial = 0; trial < 40; ++trial) {
        const int cx = static_cast<int>(rng.bounded(48 - 16 + 1));
        const int cy = static_cast<int>(rng.bounded(40 - 16 + 1));
        const int rx = static_cast<int>(rng.range(-16, 56));
        const int ry = static_cast<int>(rng.range(-16, 48));
        const Pixel* cur = a.row(cy) + cx;
        const Pixel* ref = padded.block16(rx, ry);
        ASSERT_EQ(sad_16x16_scalar(a, cx, cy, b, rx, ry),
                  sad_16x16(cur, a.width(), ref, padded.stride()))
            << "patterns " << pa << "/" << pb << " cx=" << cx << " cy=" << cy << " rx=" << rx
            << " ry=" << ry;
        ASSERT_EQ(satd_16x16_scalar(a, cx, cy, b, rx, ry),
                  satd_16x16(cur, a.width(), ref, padded.stride()))
            << "patterns " << pa << "/" << pb << " cx=" << cx << " cy=" << cy << " rx=" << rx
            << " ry=" << ry;
      }
    }
  }
  // The largest SATD a 16x16 block can have: rows of residual
  // (+255, +255, +255, -255) give every 4x4 block four coefficients of
  // 2040, SATD 4080 each. The row-pointer kernel then holds 8 x 4080 =
  // 32640 in two of its int16 lanes, 127 short of overflow.
  const Plane cols = pattern_plane(rng, 48, 16, 5);
  const Plane inverse = pattern_plane(rng, 48, 16, 6);
  EXPECT_EQ(satd_16x16_scalar(cols, 16, 0, inverse, 16, 0), 16u * 4080u);
  EXPECT_EQ(satd_16x16(cols.row(0) + 16, cols.width(), inverse.row(0) + 16, inverse.width()),
            16u * 4080u);
}

// ---------------------------------------------------------------------------
// Reference planes: the padded source and the H, V and HV half-pel planes
// the SIMD encode path reads instead of filtering each block.

TEST(RefPlanesTest, EverySampleMatchesInterpolation) {
  Xoshiro256 rng(26);
  const int sizes[][2] = {{16, 16}, {96, 64}, {kCifWidth, kCifHeight}};
  const MotionSearchConfig search;
  for (const auto& [w, h] : sizes) {
    for (int content = 0; content < 4; ++content) {  // random, 0, 255, checkerboard
      const Plane src = pattern_plane(rng, w, h, content);
      RefPlanes planes;
      planes.build(src, search.search_range);
      const int pad = RefPlanes::half_pel_pad(search.search_range);
      ASSERT_EQ(planes.full().pad(), pad + 8);
      const int fpad = planes.full().pad();
      for (int y = -fpad; y < h + fpad; ++y)
        for (int x = -fpad; x < w + fpad; ++x)
          ASSERT_EQ(planes.full().row(y)[x], src.at_clamped(x, y))
              << w << "x" << h << " content " << content << " (" << x << "," << y << ")";
      for (const int phase : {1, 2, 3}) {
        const bool half_x = (phase & 1) != 0, half_y = (phase & 2) != 0;
        const PaddedPlane& plane = planes.plane(half_x, half_y);
        ASSERT_EQ(plane.pad(), pad);
        for (int y = -pad; y < h + pad; ++y)
          for (int x = -pad; x < w + pad; ++x)
            ASSERT_EQ(plane.row(y)[x], interpolate_half_pel(src, x, y, half_x, half_y))
                << w << "x" << h << " content " << content << " phase " << phase << " ("
                << x << "," << y << ")";
      }
    }
  }
}

TEST(RefPlanesTest, PredictionMatchesScalarMcForEveryMv) {
  // Every MV the search can emit (|mv| <= 2R + 1 half-pels) at the corner
  // MBs and random interior ones: the in-place read must be the block
  // motion_compensate_16x16_scalar filters.
  Xoshiro256 rng(27);
  const Plane src = random_plane(rng, 96, 64);
  const MotionSearchConfig search;
  RefPlanes planes;
  planes.build(src, search.search_range);
  const int reach = 2 * search.search_range + 1;
  std::vector<std::pair<int, int>> origins = {{0, 0}, {80, 0}, {0, 48}, {80, 48}};
  for (int i = 0; i < 2; ++i)
    origins.emplace_back(16 * static_cast<int>(1 + rng.bounded(4)),
                         16 * static_cast<int>(1 + rng.bounded(2)));
  for (const auto& [px, py] : origins)
    for (int mvy = -reach; mvy <= reach; ++mvy)
      for (int mvx = -reach; mvx <= reach; ++mvx) {
        const MotionVector mv{mvx, mvy};
        Pixel expected[16 * 16];
        motion_compensate_16x16_scalar(src, px, py, mv, expected);
        const BlockRef got = planes.prediction(px, py, mv);
        for (int y = 0; y < 16; ++y)
          ASSERT_TRUE(std::equal(expected + y * 16, expected + y * 16 + 16,
                                 got.data + y * got.stride))
              << "mb=(" << px << "," << py << ") mv=(" << mvx << "," << mvy << ") row " << y;
      }
}

TEST(RefPlanesTest, BlockOutsidePadFailsCheck) {
  Xoshiro256 rng(28);
  const Plane src = random_plane(rng, 48, 32);
  const int range = 16;
  RefPlanes planes;
  planes.build(src, range);
  const int reach = 2 * range + 1;
  // The search's extremes are inside the pads...
  EXPECT_NO_THROW((void)planes.prediction(0, 0, MotionVector{-reach, -reach}));
  EXPECT_NO_THROW((void)planes.prediction(32, 16, MotionVector{reach, reach}));
  // ...one whole pel beyond a half-pel plane's pad is not.
  const int pad = RefPlanes::half_pel_pad(range);
  EXPECT_THROW((void)planes.prediction(0, 0, MotionVector{-2 * pad - 1, 0}), std::logic_error);
  EXPECT_THROW((void)planes.prediction(0, 0, MotionVector{0, -2 * pad - 1}), std::logic_error);
  EXPECT_THROW((void)planes.prediction(32, 16, MotionVector{2 * pad + 3, 1}), std::logic_error);
  const int fpad = planes.full().pad();
  EXPECT_THROW((void)planes.full().block16(-fpad - 1, 0), std::logic_error);
  EXPECT_THROW((void)planes.full().block16(48 + fpad - 15, 0), std::logic_error);
}

TEST(MotionSearchTest, PlanesMatchScalarReference) {
  // The search over reference planes must take the scalar search's every
  // step: same MV, costs and evaluation counts, from seeds that drive it
  // to the search-range border at the frame edges, for ranges below, at
  // and above the default.
  Xoshiro256 rng(29);
  const Plane cur = random_plane(rng, 96, 64);
  const Plane ref = random_plane(rng, 96, 64);
  for (const int range : {4, 16, 32}) {
    MotionSearchConfig search;
    search.search_range = range;
    search.early_exit = 0;  // never stop early: longest trajectories
    RefPlanes planes;
    planes.build(ref, range);
    for (int trial = 0; trial < 48; ++trial) {
      const int px = 16 * static_cast<int>(rng.bounded(6));
      const int py = 16 * static_cast<int>(rng.bounded(4));
      const int seed = 2 * range + 8;
      const MotionVector prediction{static_cast<int>(rng.range(-seed, seed)),
                                    static_cast<int>(rng.range(-seed, seed))};
      const MotionSearchResult scalar =
          motion_search_16x16(cur, ref, px, py, prediction, search);
      const MotionSearchResult fast =
          motion_search_16x16(cur, planes, px, py, prediction, search);
      EXPECT_EQ(fast.mv, scalar.mv) << "range " << range << " trial " << trial;
      EXPECT_EQ(fast.sad, scalar.sad) << "range " << range << " trial " << trial;
      EXPECT_EQ(fast.satd, scalar.satd) << "range " << range << " trial " << trial;
      EXPECT_EQ(fast.sad_evaluations, scalar.sad_evaluations)
          << "range " << range << " trial " << trial;
      EXPECT_EQ(fast.satd_evaluations, scalar.satd_evaluations)
          << "range " << range << " trial " << trial;
    }
  }
}

TEST(KernelEquivalenceTest, TransformFuzz) {
  if (!simd_available()) GTEST_SKIP() << "SIMD backend not compiled in";
  Xoshiro256 rng(24);
  for (int trial = 0; trial < 300; ++trial) {
    int in[16], scalar_out[16], simd_out[16];
    for (int& v : in) v = static_cast<int>(rng.range(-2048, 2048));
    dct4x4_scalar(in, scalar_out);
    dct4x4_simd(in, simd_out);
    for (int i = 0; i < 16; ++i) ASSERT_EQ(scalar_out[i], simd_out[i]) << "dct i=" << i;
    idct4x4_scalar(in, scalar_out);
    idct4x4_simd(in, simd_out);
    for (int i = 0; i < 16; ++i) ASSERT_EQ(scalar_out[i], simd_out[i]) << "idct i=" << i;
    hadamard4x4_scalar(in, scalar_out);
    hadamard4x4_simd(in, simd_out);
    for (int i = 0; i < 16; ++i) ASSERT_EQ(scalar_out[i], simd_out[i]) << "ht i=" << i;
  }
}

TEST(PsnrTest, IdenticalIs99AndNoisyIsFinite) {
  Frame a(32, 32), b(32, 32);
  EXPECT_EQ(psnr_y(a, a), 99.0);
  b.y.at(3, 3) = 50;
  const double p = psnr_y(a, b);
  EXPECT_GT(p, 20.0);
  EXPECT_LT(p, 99.0);
}

}  // namespace
}  // namespace rispp::h264
