// Pixel planes and frames for the H.264-subset encoder workload.
#pragma once

#include <cstdint>
#include <vector>

#include "base/check.h"

namespace rispp::h264 {

using Pixel = std::uint8_t;

inline constexpr int kMbSize = 16;

/// CIF, the paper's evaluation resolution.
inline constexpr int kCifWidth = 352;
inline constexpr int kCifHeight = 288;

class Plane {
 public:
  Plane() = default;
  Plane(int width, int height, Pixel fill = 0)
      : width_(width), height_(height), data_(static_cast<std::size_t>(width) * height, fill) {
    RISPP_CHECK(width > 0 && height > 0);
  }

  int width() const { return width_; }
  int height() const { return height_; }

  Pixel at(int x, int y) const { return data_[index(x, y)]; }
  Pixel& at(int x, int y) { return data_[index(x, y)]; }

  /// Edge-clamped access — motion vectors and filter taps may reach outside
  /// the frame; H.264 pads by edge replication.
  Pixel at_clamped(int x, int y) const {
    x = x < 0 ? 0 : (x >= width_ ? width_ - 1 : x);
    y = y < 0 ? 0 : (y >= height_ ? height_ - 1 : y);
    return data_[index(x, y)];
  }

  const Pixel* row(int y) const { return data_.data() + static_cast<std::size_t>(y) * width_; }
  Pixel* row(int y) { return data_.data() + static_cast<std::size_t>(y) * width_; }

 private:
  std::size_t index(int x, int y) const {
    RISPP_CHECK(x >= 0 && x < width_ && y >= 0 && y < height_);
    return static_cast<std::size_t>(y) * width_ + x;
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<Pixel> data_;
};

/// An edge-replicated copy of a Plane with `pad` extra pixels on every
/// side: columns and rows in [-pad, size + pad) are addressable, so a block
/// near the frame border is read in place, where a Plane clamps each access
/// (at_clamped). The SIMD encode path reads its reference frame this way
/// (RefPlanes, interpolate.h).
class PaddedPlane {
 public:
  PaddedPlane() = default;
  PaddedPlane(int width, int height, int pad);

  int width() const { return width_; }
  int height() const { return height_; }
  int pad() const { return pad_; }
  /// Distance between vertically adjacent pixels.
  int stride() const { return width_ + 2 * pad_; }

  /// Pixel (0, y), for y in [-pad, height + pad); the row extends pad
  /// pixels to either side.
  const Pixel* row(int y) const { return data_.data() + offset(y); }
  Pixel* row(int y) { return data_.data() + offset(y); }

  /// Top-left pixel of the 16x16 block at (x, y); the block must lie inside
  /// the pad.
  const Pixel* block16(int x, int y) const {
    RISPP_CHECK_MSG(x >= -pad_ && y >= -pad_ && x + kMbSize <= width_ + pad_ &&
                        y + kMbSize <= height_ + pad_,
                    "16x16 block at (" << x << "," << y << ") leaves the " << pad_
                                       << "-pixel pad of a " << width_ << "x" << height_
                                       << " plane");
    return row(y) + x;
  }

  /// Copies `src` (same size) and replicates its edge pixels into the pad.
  void replicate(const Plane& src);

 private:
  std::size_t offset(int y) const {
    return static_cast<std::size_t>(y + pad_) * stride() + pad_;
  }

  int width_ = 0;
  int height_ = 0;
  int pad_ = 0;
  std::vector<Pixel> data_;
};

/// 4:2:0 frame.
struct Frame {
  Plane y, cb, cr;

  Frame() = default;
  Frame(int width, int height)
      : y(width, height), cb(width / 2, height / 2), cr(width / 2, height / 2) {}

  int width() const { return y.width(); }
  int height() const { return y.height(); }
  int mbs_x() const { return y.width() / kMbSize; }
  int mbs_y() const { return y.height() / kMbSize; }
  int mb_count() const { return mbs_x() * mbs_y(); }
};

/// Luma PSNR between two frames (encoder quality sanity checks).
double psnr_y(const Frame& a, const Frame& b);

inline Pixel clip_pixel(int v) {
  return static_cast<Pixel>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

}  // namespace rispp::h264
