#include "h264/interpolate.h"

#include <cstring>

#include "h264/kernels.h"
#include "h264/simd.h"

namespace rispp::h264 {
namespace {

int filter_h(const Plane& ref, int x, int y) {
  return point_filter_6tap(ref.at_clamped(x - 2, y), ref.at_clamped(x - 1, y),
                           ref.at_clamped(x, y), ref.at_clamped(x + 1, y),
                           ref.at_clamped(x + 2, y), ref.at_clamped(x + 3, y));
}

int filter_v(const Plane& ref, int x, int y) {
  return point_filter_6tap(ref.at_clamped(x, y - 2), ref.at_clamped(x, y - 1),
                           ref.at_clamped(x, y), ref.at_clamped(x, y + 1),
                           ref.at_clamped(x, y + 2), ref.at_clamped(x, y + 3));
}

/// Vertical filter over horizontally filtered intermediates (the "j" sample
/// of the standard), with the combined 1/1024 normalization.
int filter_hv(const Plane& ref, int x, int y) {
  int rows[6];
  for (int k = 0; k < 6; ++k) rows[k] = filter_h(ref, x, y - 2 + k);
  const int v = point_filter_6tap(rows[0], rows[1], rows[2], rows[3], rows[4], rows[5]);
  return (v + 512) >> 10;
}

}  // namespace

Pixel interpolate_half_pel(const Plane& ref, int full_x, int full_y, bool half_x, bool half_y) {
  if (!half_x && !half_y) return ref.at_clamped(full_x, full_y);
  if (half_x && !half_y) return clip_pixel((filter_h(ref, full_x, full_y) + 16) >> 5);
  if (!half_x && half_y) return clip_pixel((filter_v(ref, full_x, full_y) + 16) >> 5);
  return clip_pixel(filter_hv(ref, full_x, full_y));
}

void motion_compensate_16x16_scalar(const Plane& ref, int mb_px_x, int mb_px_y,
                                    const MotionVector& mv, Pixel dst[16 * 16]) {
  const int base_x = mb_px_x + (mv.x >> 1);
  const int base_y = mb_px_y + (mv.y >> 1);
  const bool half_x = (mv.x & 1) != 0;
  const bool half_y = (mv.y & 1) != 0;
  for (int y = 0; y < 16; ++y)
    for (int x = 0; x < 16; ++x)
      dst[y * 16 + x] = interpolate_half_pel(ref, base_x + x, base_y + y, half_x, half_y);
}

#ifdef RISPP_SIMD

namespace {

using simd::i16x16;
using simd::i32x16;
using simd::u8x16;

/// The 6-tap filter (1, -5, 20, 20, -5, 1) over 16 lanes: taps[k] points at
/// the 16 samples the k-th coefficient weighs. Raw value range [-2550,
/// 5610], well inside int16.
template <typename V>
inline void filter6(const Pixel* const taps[6], V& out) {
  V t[6]{};
  for (int k = 0; k < 6; ++k) simd::widen(simd::load_u8x16(taps[k]), t[k]);
  out = t[0] - 5 * t[1] + 20 * t[2] + 20 * t[3] - 5 * t[4] + t[5];
}

/// Horizontal 6-tap filter of 16 adjacent samples starting at p.
template <typename V>
inline void filter_h(const Pixel* p, V& out) {
  const Pixel* const taps[6] = {p - 2, p - 1, p, p + 1, p + 2, p + 3};
  filter6(taps, out);
}

/// Rounds a raw 6-tap value ((v + 16) >> 5), clips it to a pixel and stores.
inline void store_rounded(Pixel* dst, i16x16& v) {
  v = (v + 16) >> 5;
  simd::clamp_pixel_lanes(v);
  simd::store_u8x16(dst, simd::narrow_u8(v));
}

}  // namespace

void motion_compensate_16x16_simd(const Plane& ref, int mb_px_x, int mb_px_y,
                                  const MotionVector& mv, Pixel dst[16 * 16]) {
  const int base_x = mb_px_x + (mv.x >> 1);
  const int base_y = mb_px_y + (mv.y >> 1);
  const bool half_x = (mv.x & 1) != 0;
  const bool half_y = (mv.y & 1) != 0;
  // Conservative footprint of the 6-tap filter around the 16x16 block; any
  // clamped access means the scalar edge-replication path.
  if (base_x - 2 < 0 || base_x + 19 > ref.width() || base_y - 2 < 0 ||
      base_y + 19 > ref.height()) {
    motion_compensate_16x16_scalar(ref, mb_px_x, mb_px_y, mv, dst);
    return;
  }
  if (!half_x && !half_y) {
    for (int y = 0; y < 16; ++y) std::memcpy(dst + y * 16, ref.row(base_y + y) + base_x, 16);
    return;
  }
  if (half_x && !half_y) {
    for (int y = 0; y < 16; ++y) {
      i16x16 v{};
      filter_h(ref.row(base_y + y) + base_x, v);
      store_rounded(dst + y * 16, v);
    }
    return;
  }
  if (!half_x && half_y) {
    for (int y = 0; y < 16; ++y) {
      const int ry = base_y + y;
      const Pixel* const taps[6] = {ref.row(ry - 2) + base_x, ref.row(ry - 1) + base_x,
                                    ref.row(ry) + base_x,     ref.row(ry + 1) + base_x,
                                    ref.row(ry + 2) + base_x, ref.row(ry + 3) + base_x};
      i16x16 v{};
      filter6(taps, v);
      store_rounded(dst + y * 16, v);
    }
    return;
  }
  // half_x && half_y: vertical 6-tap over raw horizontal intermediates
  // (range exceeds int16, so 32-bit lanes), then the combined (v+512)>>10.
  i32x16 hrow[21];
  for (int r = 0; r < 21; ++r) filter_h(ref.row(base_y - 2 + r) + base_x, hrow[r]);
  for (int y = 0; y < 16; ++y) {
    i32x16 v = hrow[y] - 5 * hrow[y + 1] + 20 * hrow[y + 2] + 20 * hrow[y + 3] -
               5 * hrow[y + 4] + hrow[y + 5];
    v = (v + 512) >> 10;
    simd::clamp_pixel_lanes(v);
    simd::store_u8x16(dst + y * 16, simd::narrow_u8(v));
  }
}

#else  // !RISPP_SIMD

void motion_compensate_16x16_simd(const Plane& ref, int mb_px_x, int mb_px_y,
                                  const MotionVector& mv, Pixel dst[16 * 16]) {
  motion_compensate_16x16_scalar(ref, mb_px_x, mb_px_y, mv, dst);
}

#endif  // RISPP_SIMD

void motion_compensate_16x16(const Plane& ref, int mb_px_x, int mb_px_y, const MotionVector& mv,
                             Pixel dst[16 * 16]) {
  if (active_kernel_backend() == KernelBackend::kSimd)
    motion_compensate_16x16_simd(ref, mb_px_x, mb_px_y, mv, dst);
  else
    motion_compensate_16x16_scalar(ref, mb_px_x, mb_px_y, mv, dst);
}

}  // namespace rispp::h264
