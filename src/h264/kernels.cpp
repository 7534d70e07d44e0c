#include "h264/kernels.h"

#include <atomic>
#include <cstdlib>

#include "base/env.h"
#include "h264/simd.h"

namespace rispp::h264 {
namespace {

/// In-place 4-point Hadamard butterfly (unnormalized).
inline void hadamard4(int& a, int& b, int& c, int& d) {
  const int s0 = a + c, s1 = b + d, s2 = a - c, s3 = b - d;
  a = s0 + s1;
  b = s2 + s3;
  c = s0 - s1;
  d = s2 - s3;
}

/// SATD of a 4x4 residual (row-major, transformed in place): the abs-sum of
/// its 2-D Hadamard transform, halved.
std::uint32_t hadamard_satd_4x4(int d[16]) {
  // Horizontal then vertical butterflies.
  for (int y = 0; y < 4; ++y) hadamard4(d[y * 4 + 0], d[y * 4 + 1], d[y * 4 + 2], d[y * 4 + 3]);
  for (int x = 0; x < 4; ++x) hadamard4(d[0 + x], d[4 + x], d[8 + x], d[12 + x]);
  std::uint32_t acc = 0;
  for (int i = 0; i < 16; ++i) acc += static_cast<std::uint32_t>(std::abs(d[i]));
  return acc / 2;
}

KernelBackend default_backend() {
  if (!simd_available()) return KernelBackend::kScalar;
  return parse_env_int("RISPP_SIMD", 1, 0, 1) != 0 ? KernelBackend::kSimd
                                                   : KernelBackend::kScalar;
}

std::atomic<KernelBackend>& backend_state() {
  static std::atomic<KernelBackend> state{default_backend()};
  return state;
}

}  // namespace

bool simd_available() {
#ifdef RISPP_SIMD
  return true;
#else
  return false;
#endif
}

KernelBackend active_kernel_backend() {
  return backend_state().load(std::memory_order_relaxed);
}

void set_kernel_backend(KernelBackend backend) {
  if (backend == KernelBackend::kSimd && !simd_available()) backend = KernelBackend::kScalar;
  backend_state().store(backend, std::memory_order_relaxed);
}

std::uint32_t sad_16x16_scalar(const Plane& cur, int cx, int cy, const Plane& ref, int rx,
                               int ry) {
  std::uint32_t acc = 0;
  const bool inside = rx >= 0 && ry >= 0 && rx + 16 <= ref.width() && ry + 16 <= ref.height();
  for (int y = 0; y < 16; ++y) {
    const Pixel* crow = cur.row(cy + y) + cx;
    if (inside) {
      const Pixel* rrow = ref.row(ry + y) + rx;
      for (int x = 0; x < 16; ++x) acc += static_cast<std::uint32_t>(std::abs(crow[x] - rrow[x]));
    } else {
      for (int x = 0; x < 16; ++x)
        acc += static_cast<std::uint32_t>(std::abs(crow[x] - ref.at_clamped(rx + x, ry + y)));
    }
  }
  return acc;
}

std::uint32_t satd_4x4(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry) {
  int d[16];
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x)
      d[y * 4 + x] = static_cast<int>(cur.at(cx + x, cy + y)) -
                     static_cast<int>(ref.at_clamped(rx + x, ry + y));
  return hadamard_satd_4x4(d);
}

std::uint32_t satd_16x16_scalar(const Plane& cur, int cx, int cy, const Plane& ref, int rx,
                                int ry) {
  std::uint32_t acc = 0;
  for (int by = 0; by < 16; by += 4)
    for (int bx = 0; bx < 16; bx += 4)
      acc += satd_4x4(cur, cx + bx, cy + by, ref, rx + bx, ry + by);
  return acc;
}

std::uint32_t satd_16x16_pred_scalar(const Plane& cur, int cx, int cy, const Pixel pred[16 * 16]) {
  std::uint32_t acc = 0;
  for (int by = 0; by < 16; by += 4) {
    for (int bx = 0; bx < 16; bx += 4) {
      int d[16];
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
          d[y * 4 + x] = static_cast<int>(cur.at(cx + bx + x, cy + by + y)) -
                         static_cast<int>(pred[(by + y) * 16 + bx + x]);
      acc += hadamard_satd_4x4(d);
    }
  }
  return acc;
}

std::uint32_t sad_16x16(const Pixel* a, int a_stride, const Pixel* b, int b_stride) {
  // The plain loop: compilers turn it into packed SAD instructions, which
  // no vector-extension form matches (micro_ops BM_Sad16x16Backend).
  std::uint32_t acc = 0;
  for (int y = 0; y < 16; ++y, a += a_stride, b += b_stride)
    for (int x = 0; x < 16; ++x) acc += static_cast<std::uint32_t>(std::abs(a[x] - b[x]));
  return acc;
}

#ifdef RISPP_SIMD

namespace {

using simd::i16x8;

/// Interleaves lane pairs of a and b: 16-bit lanes for kWidth 1, 32-bit
/// for 2, 64-bit for 4; kHigh picks the upper half of each input.
template <int kWidth, bool kHigh>
inline i16x8 interleave(i16x8 a, i16x8 b) {
  constexpr int o = kHigh ? 4 : 0;
  if constexpr (kWidth == 1)
    return __builtin_shufflevector(a, b, o, 8 + o, o + 1, 9 + o, o + 2, 10 + o, o + 3, 11 + o);
  else if constexpr (kWidth == 2)
    return __builtin_shufflevector(a, b, o, o + 1, 8 + o, 9 + o, o + 2, o + 3, 10 + o, 11 + o);
  else
    return __builtin_shufflevector(a, b, o, o + 1, o + 2, o + 3, 8 + o, 9 + o, 10 + o, 11 + o);
}

/// SATD of two side-by-side 4x4 blocks (8 columns x 4 rows), per lane:
/// lane r holds half the abs-sum of row r of the left block's 2-D Hadamard
/// transform, lane 4 + r the same for the right block. A vertical
/// butterfly output is at most 4 x 255 = 1020 in magnitude and a first
/// horizontal stage output twice that, so a lane is at most 2 x 2040 =
/// 4080, and a 16x16 block's eight calls sum to at most 32640 per lane,
/// inside int16.
///
/// Vertical butterflies run lanewise across the four row vectors; a 4x4
/// transpose of both blocks then puts the horizontal butterflies lanewise
/// too. Its last stage uses |a + b| + |a - b| = 2 max(|a|, |b|): the
/// coefficients' abs-sum is twice the sum of pairwise maxima, so the JM
/// "/2" of each 4x4 block is exact and the maxima are the SATD.
inline i16x8 satd_8x4(const Pixel* a, int a_stride, const Pixel* b, int b_stride) {
  i16x8 d[4];
  for (int y = 0; y < 4; ++y)
    d[y] = simd::load_widen_u8x8(a + y * a_stride) - simd::load_widen_u8x8(b + y * b_stride);
  const i16x8 s0 = d[0] + d[2], s1 = d[1] + d[3], s2 = d[0] - d[2], s3 = d[1] - d[3];
  const i16x8 v0 = s0 + s1, v1 = s2 + s3, v2 = s0 - s1, v3 = s2 - s3;
  // Transpose: afterwards c0 holds columns 0 and 1 of the left block, c1
  // its columns 2 and 3; c2 and c3 the same for the right block.
  const i16x8 u0 = interleave<1, false>(v0, v1), u1 = interleave<1, true>(v0, v1);
  const i16x8 u2 = interleave<1, false>(v2, v3), u3 = interleave<1, true>(v2, v3);
  const i16x8 c0 = interleave<2, false>(u0, u2), c1 = interleave<2, true>(u0, u2);
  const i16x8 c2 = interleave<2, false>(u1, u3), c3 = interleave<2, true>(u1, u3);
  // First horizontal stage: column sums (0+2 | 1+3) and differences.
  const i16x8 sum_l = simd::abs_lanes(c0 + c1), sum_r = simd::abs_lanes(c2 + c3);
  const i16x8 dif_l = simd::abs_lanes(c0 - c1), dif_r = simd::abs_lanes(c2 - c3);
  // Last stage: the max of each column pair's halves.
  return simd::max_lanes(interleave<4, false>(sum_l, sum_r), interleave<4, true>(sum_l, sum_r)) +
         simd::max_lanes(interleave<4, false>(dif_l, dif_r), interleave<4, true>(dif_l, dif_r));
}

}  // namespace

std::uint32_t satd_16x16(const Pixel* a, int a_stride, const Pixel* b, int b_stride) {
  i16x8 acc{};
  for (int y = 0; y < 16; y += 4)
    for (int x = 0; x < 16; x += 8)
      acc += satd_8x4(a + y * a_stride + x, a_stride, b + y * b_stride + x, b_stride);
  const simd::i32x4 s = simd::widen_lo(acc) + simd::widen_hi(acc);
  return static_cast<std::uint32_t>(s[0] + s[1] + s[2] + s[3]);
}

#else  // !RISPP_SIMD

std::uint32_t satd_16x16(const Pixel* a, int a_stride, const Pixel* b, int b_stride) {
  std::uint32_t acc = 0;
  for (int by = 0; by < 16; by += 4) {
    for (int bx = 0; bx < 16; bx += 4) {
      int d[16];
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
          d[y * 4 + x] = static_cast<int>(a[(by + y) * a_stride + bx + x]) -
                         static_cast<int>(b[(by + y) * b_stride + bx + x]);
      acc += hadamard_satd_4x4(d);
    }
  }
  return acc;
}

#endif  // RISPP_SIMD

std::uint32_t satd_16x16_pred(const Plane& cur, int cx, int cy, const Pixel pred[16 * 16]) {
  return active_kernel_backend() == KernelBackend::kSimd
             ? satd_16x16(cur.row(cy) + cx, cur.width(), pred, 16)
             : satd_16x16_pred_scalar(cur, cx, cy, pred);
}

}  // namespace rispp::h264
