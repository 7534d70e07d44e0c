#include "h264/frame.h"

#include <cmath>
#include <cstring>

namespace rispp::h264 {

// Defined here, not in the header: inlined into interpolate.cpp, this
// allocation made GCC 12 stop inlining Plane::at_clamped into the scalar
// half-pel filters, which halved the scalar reference MC's speed.
PaddedPlane::PaddedPlane(int width, int height, int pad)
    : width_(width),
      height_(height),
      pad_(pad),
      data_(static_cast<std::size_t>(width + 2 * pad) * (height + 2 * pad)) {
  RISPP_CHECK(width > 0 && height > 0 && pad >= 0);
}

void PaddedPlane::replicate(const Plane& src) {
  RISPP_CHECK(src.width() == width_ && src.height() == height_);
  for (int y = 0; y < height_; ++y) {
    Pixel* dst = row(y);
    const Pixel* s = src.row(y);
    std::memset(dst - pad_, s[0], static_cast<std::size_t>(pad_));
    std::memcpy(dst, s, static_cast<std::size_t>(width_));
    std::memset(dst + width_, s[width_ - 1], static_cast<std::size_t>(pad_));
  }
  for (int p = 1; p <= pad_; ++p) {
    std::memcpy(row(-p) - pad_, row(0) - pad_, static_cast<std::size_t>(stride()));
    std::memcpy(row(height_ - 1 + p) - pad_, row(height_ - 1) - pad_,
                static_cast<std::size_t>(stride()));
  }
}

double psnr_y(const Frame& a, const Frame& b) {
  RISPP_CHECK(a.width() == b.width() && a.height() == b.height());
  double sse = 0.0;
  for (int y = 0; y < a.height(); ++y) {
    const Pixel* ra = a.y.row(y);
    const Pixel* rb = b.y.row(y);
    for (int x = 0; x < a.width(); ++x) {
      const double d = static_cast<double>(ra[x]) - rb[x];
      sse += d * d;
    }
  }
  if (sse == 0.0) return 99.0;
  const double mse = sse / (static_cast<double>(a.width()) * a.height());
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace rispp::h264
