#include "h264/interpolate.h"

#include <cstring>

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

int RefPlanes::half_pel_pad(int search_range) {
  RISPP_CHECK(search_range >= 0);
  return (search_range + 1 + 7) / 8 * 8;
}

#ifdef RISPP_SIMD

namespace {

using simd::i16x8;

/// The 6-tap filter (1, -5, 20, 20, -5, 1) lanewise over its six taps,
/// unnormalized: pixel taps give [-2550, 5610], well inside int16.
inline i16x8 filter6(i16x8 t0, i16x8 t1, i16x8 t2, i16x8 t3, i16x8 t4, i16x8 t5) {
  return (t0 + t5) - 5 * (t1 + t4) + 20 * (t2 + t3);
}

inline i16x8 load_i16x8(const std::int16_t* p) {
  i16x8 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Rounds raw 6-tap values ((v + 16) >> 5), clips them to pixels and
/// stores them.
inline void store_rounded(Pixel* dst, i16x8 raw) {
  simd::store_narrow_u8x8(dst, simd::clamp_pixel_lanes((raw + 16) >> 5));
}

/// HV: the vertical 6-tap v = a - 5b + 20c over six rows of raw H (tap
/// pairs a = t0 + t5, b = t1 + t4, c = t2 + t3), normalized as
/// clip((v + 512) >> 10). v overflows int16, the pairs do not, and with
/// floor shifts
///   ((((a - b) >> 2) - b + c) >> 2) + c == v >> 4
/// exactly: the first shift drops (a - b) mod 4 = v mod 4, which the second
/// shift discards anyway. So (v + 512) >> 10 == ((v >> 4) + 32) >> 6, with
/// every intermediate inside int16.
inline void store_rounded_hv(Pixel* dst, i16x8 t0, i16x8 t1, i16x8 t2, i16x8 t3, i16x8 t4,
                             i16x8 t5) {
  const i16x8 a = t0 + t5, b = t1 + t4, c = t2 + t3;
  const i16x8 v16 = ((((a - b) >> 2) - b + c) >> 2) + c;
  simd::store_narrow_u8x8(dst, simd::clamp_pixel_lanes((v16 + 32) >> 6));
}

}  // namespace

void RefPlanes::build(const Plane& src, int search_range) {
  const int w = src.width(), h = src.height();
  const int pad = half_pel_pad(search_range);
  if (full_.width() != w || full_.height() != h || full_.pad() != pad + 8) {
    full_ = PaddedPlane(w, h, pad + 8);
    for (PaddedPlane& p : half_) p = PaddedPlane(w, h, pad);
  }
  full_.replicate(src);

  // Each half-pel row covers columns [-pad, w + pad) in chunks of eight;
  // the 6-tap reach (-2 .. +3 around a chunk) stays inside the source pad.
  const int n = w + 2 * pad;
  const auto taps = [&](int y, int i) { return full_.row(y) - pad + i; };
  // Raw (unrounded) H for rows [-pad - 2, h + pad + 3): the HV filter runs
  // vertically over them. Raw values lie in [-2550, 5610].
  h_raw_.resize(static_cast<std::size_t>(h + 2 * pad + 5) * n);
  const auto raw_row = [&](int y) {
    return h_raw_.data() + static_cast<std::size_t>(y + pad + 2) * n;
  };
  for (int y = -pad - 2; y < h + pad + 3; ++y) {
    const Pixel* s = taps(y, 0);
    std::int16_t* out = raw_row(y);
    for (int i = 0; i < n; i += 8) {
      const i16x8 raw = filter6(simd::load_widen_u8x8(s + i - 2), simd::load_widen_u8x8(s + i - 1),
                                simd::load_widen_u8x8(s + i), simd::load_widen_u8x8(s + i + 1),
                                simd::load_widen_u8x8(s + i + 2), simd::load_widen_u8x8(s + i + 3));
      std::memcpy(out + i, &raw, sizeof raw);
    }
  }
  for (int y = -pad; y < h + pad; ++y) {
    Pixel* out_h = half_[0].row(y) - pad;
    Pixel* out_v = half_[1].row(y) - pad;
    Pixel* out_hv = half_[2].row(y) - pad;
    const std::int16_t* r[6];
    for (int k = 0; k < 6; ++k) r[k] = raw_row(y - 2 + k);
    for (int i = 0; i < n; i += 8) {
      store_rounded(out_h + i, load_i16x8(r[2] + i));
      store_rounded(out_v + i, filter6(simd::load_widen_u8x8(taps(y - 2, i)),
                                       simd::load_widen_u8x8(taps(y - 1, i)),
                                       simd::load_widen_u8x8(taps(y, i)),
                                       simd::load_widen_u8x8(taps(y + 1, i)),
                                       simd::load_widen_u8x8(taps(y + 2, i)),
                                       simd::load_widen_u8x8(taps(y + 3, i))));
      store_rounded_hv(out_hv + i, load_i16x8(r[0] + i), load_i16x8(r[1] + i),
                       load_i16x8(r[2] + i), load_i16x8(r[3] + i), load_i16x8(r[4] + i),
                       load_i16x8(r[5] + i));
    }
  }
}

#else  // !RISPP_SIMD

void RefPlanes::build(const Plane& src, int search_range) {
  const int w = src.width(), h = src.height();
  const int pad = half_pel_pad(search_range);
  full_ = PaddedPlane(w, h, pad + 8);
  full_.replicate(src);
  for (int k = 0; k < 3; ++k) {
    half_[k] = PaddedPlane(w, h, pad);
    for (int y = -pad; y < h + pad; ++y)
      for (int x = -pad; x < w + pad; ++x)
        half_[k].row(y)[x] = interpolate_half_pel(src, x, y, k != 1, k != 0);
  }
}

#endif  // RISPP_SIMD

}  // namespace rispp::h264
