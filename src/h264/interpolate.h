// Sub-pel interpolation — the functional counterpart of the MC Special
// Instruction of Figure 3: BytePack gathers the source pixels, PointFilter
// is the 6-tap half-pel filter (1,-5,20,20,-5,1)/32, Clip3 saturates to
// [0,255].
#pragma once

#include <cstdint>
#include <vector>

#include "h264/frame.h"

namespace rispp::h264 {

/// One application of the H.264 6-tap filter to six neighbouring samples
/// (unnormalized; callers add 16 and shift by 5).
inline int point_filter_6tap(int a, int b, int c, int d, int e, int f) {
  return a - 5 * b + 20 * c + 20 * d - 5 * e + f;
}

/// Motion vector in half-pel units.
struct MotionVector {
  int x = 0;  // half-pels
  int y = 0;
  bool operator==(const MotionVector&) const = default;

  bool is_half_pel() const { return (x & 1) != 0 || (y & 1) != 0; }
};

/// Motion-compensates a 16x16 luma block from `ref` at full- or half-pel
/// position (mb_x*16*2 + mv.x, ...) into `dst` (row-major 16x16), one
/// interpolate_half_pel per pixel: the scalar reference, and the decoder's
/// MC.
void motion_compensate_16x16_scalar(const Plane& ref, int mb_px_x, int mb_px_y,
                                    const MotionVector& mv, Pixel dst[16 * 16]);

/// Half-pel interpolation at a single position (tests / reference).
Pixel interpolate_half_pel(const Plane& ref, int full_x, int full_y, bool half_x, bool half_y);

/// A block read in place: `data` is its top-left pixel, and its rows lie
/// `stride` pixels apart.
struct BlockRef {
  const Pixel* data = nullptr;
  int stride = 0;
};

/// A reference frame's luma as the SIMD encode path reads it, built once
/// per reference frame, as x264's frame filter does: the edge-replicated
/// plane plus its three half-pel planes H (half_x), V (half_y) and HV
/// (both). Sample (x, y) of a half-pel plane, pad included, equals
/// interpolate_half_pel(src, x, y, half_x, half_y), so motion search and
/// motion compensation read every candidate in place instead of filtering
/// it per block.
///
/// The pads follow the search range R. Full-pel candidates lie within R of
/// the MB, and the half-pel refinement one half-pel beyond; mv >> 1 floors,
/// so an MV of -(2R + 1) half-pels starts its block R + 1 pixels out. The
/// half-pel planes are padded by R + 1, rounded up to a multiple of 8 so
/// that every padded row is a whole number of 16-pixel chunks, and the
/// source by 8 more, which covers the 6-tap filter's reach of 3.
class RefPlanes {
 public:
  /// Pad of the half-pel planes for search range `search_range`.
  static int half_pel_pad(int search_range);

  /// Rebuilds every plane from `src` for searches of up to `search_range`
  /// full pels.
  void build(const Plane& src, int search_range);

  /// The edge-replicated source (full-pel SAD reads it).
  const PaddedPlane& full() const { return full_; }
  /// The plane of half-pel phase (half_x, half_y); full() for (false,
  /// false).
  const PaddedPlane& plane(bool half_x, bool half_y) const {
    return half_x || half_y ? half_[(half_x ? 1 : 0) + (half_y ? 2 : 0) - 1] : full_;
  }

  /// The 16x16 prediction of the MB at (mb_px_x, mb_px_y) displaced by
  /// `mv` — motion_compensate_16x16_scalar's result, read in place. The
  /// block must lie inside its plane's pad (RISPP_CHECK).
  BlockRef prediction(int mb_px_x, int mb_px_y, const MotionVector& mv) const {
    const PaddedPlane& p = plane((mv.x & 1) != 0, (mv.y & 1) != 0);
    return {p.block16(mb_px_x + (mv.x >> 1), mb_px_y + (mv.y >> 1)), p.stride()};
  }

 private:
  PaddedPlane full_;
  PaddedPlane half_[3];              // H, V, HV
  std::vector<std::int16_t> h_raw_;  // unrounded H rows, the HV filter's input
};

}  // namespace rispp::h264
