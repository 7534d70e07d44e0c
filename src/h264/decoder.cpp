#include "h264/decoder.h"

#include <cstdlib>
#include <vector>

#include "base/check.h"
#include "h264/deblock.h"
#include "h264/entropy.h"
#include "h264/interpolate.h"
#include "h264/intra.h"
#include "h264/quant.h"
#include "h264/transform.h"

namespace rispp::h264 {

DecodedFrame decode_frame_luma(BitReader& reader, const Plane& ref_luma,
                               const EncoderConfig& config) {
  const int width = ref_luma.width();
  const int height = ref_luma.height();
  const int qp = config.qp;
  RISPP_CHECK(width % kMbSize == 0 && height % kMbSize == 0);
  DecodedFrame out;
  out.luma = Plane(width, height);
  const int mbs_x = width / kMbSize;
  const int mbs_y = height / kMbSize;
  std::vector<MotionVector> coded_mv(static_cast<std::size_t>(mbs_x) * mbs_y);
  std::vector<bool> intra_mb(static_cast<std::size_t>(mbs_x) * mbs_y, false);

  for (int my = 0; my < mbs_y; ++my) {
    for (int mx = 0; mx < mbs_x; ++mx) {
      const int mb = my * mbs_x + mx;
      const int px = mx * kMbSize, py = my * kMbSize;

      Pixel prediction[16 * 16];
      const bool intra = reader.get_bit();
      if (intra) {
        const bool horizontal = reader.get_bit();
        if (horizontal) ipred_hdc_16x16(out.luma, px, py, prediction);
        else ipred_vdc_16x16(out.luma, px, py, prediction);
        coded_mv[mb] = MotionVector{};
        intra_mb[mb] = true;
        ++out.intra_mbs;
      } else {
        MotionVector pred_mv;
        if (mx > 0) pred_mv = coded_mv[mb - 1];
        else if (my > 0) pred_mv = coded_mv[mb - mbs_x];
        MotionVector mv;
        mv.x = pred_mv.x + read_se(reader);
        mv.y = pred_mv.y + read_se(reader);
        motion_compensate_16x16_scalar(ref_luma, px, py, mv, prediction);
        coded_mv[mb] = mv;
        ++out.inter_mbs;
      }

      // Residual blocks in the encoder's scan order.
      for (int by = 0; by < 16; by += 4) {
        for (int bx = 0; bx < 16; bx += 4) {
          int levels[16], deq[16], rec[16];
          decode_residual_block(reader, levels);
          dequantize_block(levels, deq, qp);
          idct4x4(deq, rec);
          for (int y = 0; y < 4; ++y)
            for (int x = 0; x < 4; ++x) {
              const int value = static_cast<int>(prediction[(by + y) * 16 + bx + x]) +
                                descale_idct(rec[y * 4 + x]);
              out.luma.at(px + bx + x, py + by + y) = clip_pixel(value);
            }
        }
      }
    }
  }

  // In-loop deblocking, mirroring the encoder's LF pass exactly: the strong
  // edge conditions depend only on decoded data (intra flags + gradients).
  for (int my = 0; my < mbs_y; ++my) {
    for (int mx = 0; mx < mbs_x; ++mx) {
      const int mb = my * mbs_x + mx;
      const int px = mx * kMbSize, py = my * kMbSize;
      auto strong_edge_v = [&]() {
        if (mx == 0) return false;
        if (intra_mb[mb] || intra_mb[mb - 1]) return true;
        int grad = 0;
        for (int y = 0; y < 16; ++y)
          grad += std::abs(out.luma.at(px, py + y) - out.luma.at(px - 1, py + y));
        return grad / 16 >= config.strong_edge_threshold;
      };
      auto strong_edge_h = [&]() {
        if (my == 0) return false;
        if (intra_mb[mb] || intra_mb[mb - mbs_x]) return true;
        int grad = 0;
        for (int x = 0; x < 16; ++x)
          grad += std::abs(out.luma.at(px + x, py) - out.luma.at(px + x, py - 1));
        return grad / 16 >= config.strong_edge_threshold;
      };
      if (strong_edge_v()) deblock_bs4_vertical(out.luma, px, py, config.deblock);
      if (strong_edge_h()) deblock_bs4_horizontal(out.luma, px, py, config.deblock);
    }
  }
  return out;
}

}  // namespace rispp::h264
