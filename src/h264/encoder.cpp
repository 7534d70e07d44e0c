#include "h264/encoder.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "base/check.h"
#include "base/parallel.h"
#include "h264/intra.h"
#include "h264/kernels.h"
#include "h264/quant.h"
#include "h264/transform.h"

namespace rispp::h264 {

Encoder::Encoder(const EncoderConfig& config, int width, int height, const H264SiIds& ids)
    : config_(config),
      ids_(ids),
      recon_(width, height),
      planes_(active_kernel_backend() == KernelBackend::kSimd) {
  RISPP_CHECK(width % kMbSize == 0 && height % kMbSize == 0);
  const int mbs = (width / kMbSize) * (height / kMbSize);
  mv_field_.resize(mbs);
  coded_mv_.resize(mbs);
  decisions_.resize(mbs);
}

int Encoder::code_mb_luma(const Frame& input, int px, int py, BlockRef pred, BitWriter& bits) {
  int activity = 0;
  for (int by = 0; by < 16; by += 4) {
    for (int bx = 0; bx < 16; bx += 4) {
      int resid[16], coeff[16], level[16], deq[16], rec[16];
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
          resid[y * 4 + x] = static_cast<int>(input.y.at(px + bx + x, py + by + y)) -
                             static_cast<int>(pred.data[(by + y) * pred.stride + bx + x]);
      dct4x4(resid, coeff);
      quantize_block(coeff, level, config_.qp);
      encode_residual_block(bits, level);
      for (int i = 0; i < 16; ++i) activity += std::abs(level[i]);
      dequantize_block(level, deq, config_.qp);
      idct4x4(deq, rec);
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) {
          const int value = static_cast<int>(pred.data[(by + y) * pred.stride + bx + x]) +
                            descale_idct(rec[y * 4 + x]);
          recon_.y.at(px + bx + x, py + by + y) = clip_pixel(value);
        }
    }
  }
  return activity;
}

void Encoder::code_mb_chroma(const Frame& input, int px, int py) {
  // Chroma model: DC-only coding per 4x4 (the HT 2x2 path dominates); AC is
  // carried through unquantized — enough realism for the workload while
  // keeping chroma out of the critical calibration path.
  const int cx = px / 2, cy = py / 2;
  for (const Plane* src : {&input.cb, &input.cr}) {
    Plane& dst = src == &input.cb ? recon_.cb : recon_.cr;
    int dc[4];
    int k = 0;
    for (int by = 0; by < 8; by += 4)
      for (int bx = 0; bx < 8; bx += 4) {
        int sum = 0;
        for (int y = 0; y < 4; ++y)
          for (int x = 0; x < 4; ++x) sum += src->at(cx + bx + x, cy + by + y);
        dc[k++] = sum / 16;
      }
    int ht[4];
    hadamard2x2(dc, ht);
    for (int i = 0; i < 4; ++i) ht[i] = dequantize(quantize(ht[i], config_.qp), config_.qp);
    int rec_dc[4];
    hadamard2x2(ht, rec_dc);  // involution up to factor 4
    k = 0;
    for (int by = 0; by < 8; by += 4)
      for (int bx = 0; bx < 8; bx += 4) {
        const int mean = rec_dc[k] / 4;
        ++k;
        for (int y = 0; y < 4; ++y)
          for (int x = 0; x < 4; ++x) {
            const int ac = static_cast<int>(src->at(cx + bx + x, cy + by + y)) -
                           static_cast<int>(src->at(cx + bx, cy + by));
            dst.at(cx + bx + x, cy + by + y) = clip_pixel(mean + ac);
          }
      }
  }
}

FrameResult Encoder::encode_frame(const Frame& input, FrameSiTrace* trace) {
  RISPP_CHECK(input.width() == recon_.width() && input.height() == recon_.height());
  const bool intra_frame = frame_ == 0;
  const int mbs_x = input.mbs_x();
  const int mbs_y = input.mbs_y();
  FrameResult result;
  frame_bits_ = BitWriter();

  ThreadPool& pool = pool_ != nullptr ? *pool_ : ThreadPool::global();

  // Per-row wavefront progress: <counter>[r] is the number of MBs of row r
  // a phase has completed. release on store / acquire on load publishes the
  // row's mv_field_/recon_ writes to the row below.
  const auto make_progress = [&] {
    std::unique_ptr<std::atomic<int>[]> p(new std::atomic<int>[mbs_y]);
    for (int i = 0; i < mbs_y; ++i) p[i].store(0, std::memory_order_relaxed);
    return p;
  };

  // ---- Motion Estimation hot spot (wavefront over MB rows) --------------
  inter_cost_scratch_.assign(mv_field_.size(), 0);
  if (!intra_frame) {
    std::vector<std::vector<SiId>> row_me(trace != nullptr ? mbs_y : 0);
    const auto me_done = make_progress();
    pool.parallel_for(static_cast<std::size_t>(mbs_y), [&](std::size_t row) {
      const int my = static_cast<int>(row);
      KernelHook hook;
      if (trace != nullptr) {
        std::vector<SiId>* events = &row_me[my];
        const H264SiIds ids = ids_;
        hook = [events, ids](bool is_satd) { events->push_back(is_satd ? ids.satd : ids.sad); };
      }
      // The row's first MB predicts from the MB directly above, so one
      // finished MB of row my-1 unblocks the whole row.
      if (my > 0)
        while (me_done[my - 1].load(std::memory_order_acquire) < 1) std::this_thread::yield();
      for (int mx = 0; mx < mbs_x; ++mx) {
        const int mb = my * mbs_x + mx;
        // MV prediction: left neighbour, else top, else zero.
        MotionVector pred;
        if (mx > 0) pred = mv_field_[mb - 1];
        else if (my > 0) pred = mv_field_[mb - mbs_x];
        const MotionSearchResult sr =
            planes_ ? motion_search_16x16(input.y, ref_planes_, mx * kMbSize, my * kMbSize, pred,
                                          config_.search, hook)
                    : motion_search_16x16(input.y, ref_y_, mx * kMbSize, my * kMbSize, pred,
                                          config_.search, hook);
        mv_field_[mb] = sr.mv;
        decisions_[mb].mv = sr.mv;
        decisions_[mb].intra = false;
        inter_cost_scratch_[mb] = sr.satd;  // EE mode decision input
        me_done[my].store(mx + 1, std::memory_order_release);
      }
    });
    if (trace != nullptr)
      for (const auto& row : row_me) trace->me.insert(trace->me.end(), row.begin(), row.end());
  }

  // ---- Encoding Engine hot spot (wavefront, one-MB lag per row) ---------
  {
    std::vector<std::vector<SiId>> row_ee(trace != nullptr ? mbs_y : 0);
    std::vector<BitWriter> row_bits(mbs_y);
    std::vector<int> row_intra(mbs_y, 0);
    std::vector<int> row_inter(mbs_y, 0);
    const auto ee_done = make_progress();
    pool.parallel_for(static_cast<std::size_t>(mbs_y), [&](std::size_t row) {
      const int my = static_cast<int>(row);
      BitWriter& bits = row_bits[my];
      auto record = [&](SiId si) {
        if (trace != nullptr) row_ee[my].push_back(si);
      };
      for (int mx = 0; mx < mbs_x; ++mx) {
        // IPred VDC and the decodable MV predictor read the MB directly
        // above: trail row my-1 by one MB.
        if (my > 0)
          while (ee_done[my - 1].load(std::memory_order_acquire) < mx + 1)
            std::this_thread::yield();
        const int mb = my * mbs_x + mx;
        const int px = mx * kMbSize, py = my * kMbSize;

        // Intra candidates: horizontal and vertical DC prediction from the
        // in-progress reconstruction.
        Pixel pred_h[16 * 16], pred_v[16 * 16];
        ipred_hdc_16x16(recon_.y, px, py, pred_h);
        record(ids_.ipred_hdc);
        ipred_vdc_16x16(recon_.y, px, py, pred_v);
        record(ids_.ipred_vdc);
        const std::uint32_t cost_h = satd_16x16_pred(input.y, px, py, pred_h);
        const std::uint32_t cost_v = satd_16x16_pred(input.y, px, py, pred_v);
        const Pixel* intra_pred = cost_h <= cost_v ? pred_h : pred_v;
        const std::uint32_t intra_cost = cost_h <= cost_v ? cost_h : cost_v;

        bool use_intra = intra_frame;
        if (!intra_frame) {
          const std::uint32_t inter_cost = inter_cost_scratch_[mb];
          use_intra =
              intra_cost * 8 < inter_cost * static_cast<std::uint32_t>(config_.intra_bias_num);
        }
        decisions_[mb].intra = use_intra;
        coded_mv_[mb] = use_intra ? MotionVector{} : decisions_[mb].mv;

        // MB header: mode flag plus, for inter MBs, the differential MV.
        bits.put_bit(use_intra);
        BlockRef prediction{intra_pred, 16};
        Pixel mc[16 * 16];
        if (use_intra) {
          bits.put_bit(cost_h <= cost_v);  // HDC vs VDC choice
          ++row_intra[my];
        } else {
          // The MV predictor must be decodable: left (else top) neighbour's
          // *coded* MV, which is zero for intra MBs.
          MotionVector pred_mv;
          if (mx > 0) pred_mv = coded_mv_[mb - 1];
          else if (my > 0) pred_mv = coded_mv_[mb - mbs_x];
          write_se(bits, decisions_[mb].mv.x - pred_mv.x);
          write_se(bits, decisions_[mb].mv.y - pred_mv.y);
          if (planes_) {
            prediction = ref_planes_.prediction(px, py, decisions_[mb].mv);
          } else {
            motion_compensate_16x16_scalar(ref_y_, px, py, decisions_[mb].mv, mc);
            prediction = {mc, 16};
          }
          // The MC 4 SI covers one 8x8 quarter (Table 1 names it after its
          // 4x4 sub-block granularity): four executions per inter MB.
          for (int q = 0; q < 4; ++q) record(ids_.mc);
          ++row_inter[my];
        }

        const int activity = code_mb_luma(input, px, py, prediction, bits);
        // (I)DCT runs per 8x8 region: four luma quarters plus one chroma pass.
        for (int q = 0; q < 5; ++q) record(ids_.dct);

        if (use_intra) {
          // Intra16x16: extra Hadamard pass over the luma DC coefficients.
          record(ids_.ht4x4);
        }
        code_mb_chroma(input, px, py);
        record(ids_.ht2x2);  // chroma DC Hadamard
        (void)activity;
        ee_done[my].store(mx + 1, std::memory_order_release);
      }
    });
    // Fold the rows back in raster order: the payload, MB counters and SI
    // events come out identical to the serial encode.
    for (int my = 0; my < mbs_y; ++my) {
      frame_bits_.append(row_bits[my]);
      result.intra_mbs += row_intra[my];
      result.inter_mbs += row_inter[my];
    }
    if (trace != nullptr)
      for (const auto& row : row_ee) trace->ee.insert(trace->ee.end(), row.begin(), row.end());
  }

  // ---- Loop Filter hot spot (wavefront, two-MB lag per row) -------------
  {
    std::vector<std::vector<SiId>> row_lf(trace != nullptr ? mbs_y : 0);
    const auto lf_done = make_progress();
    pool.parallel_for(static_cast<std::size_t>(mbs_y), [&](std::size_t row) {
      const int my = static_cast<int>(row);
      for (int mx = 0; mx < mbs_x; ++mx) {
        // The horizontal filter reads three rows up — pixels the row above
        // finishes writing with MB (mx+1, my-1)'s vertical filter — and
        // writes two rows up, pixels that same MB's vertical filter reads:
        // both the true and the anti dependency are satisfied once the row
        // above is two MBs ahead.
        if (my > 0) {
          const int need = std::min(mx + 2, mbs_x);
          while (lf_done[my - 1].load(std::memory_order_acquire) < need)
            std::this_thread::yield();
        }
        const int mb = my * mbs_x + mx;
        const int px = mx * kMbSize, py = my * kMbSize;

        auto strong_edge_v = [&]() {
          if (mx == 0) return false;
          if (decisions_[mb].intra || decisions_[mb - 1].intra) return true;
          // Blockiness: mean gradient across the edge.
          int grad = 0;
          for (int y = 0; y < 16; ++y)
            grad += std::abs(recon_.y.at(px, py + y) - recon_.y.at(px - 1, py + y));
          return grad / 16 >= config_.strong_edge_threshold;
        };
        auto strong_edge_h = [&]() {
          if (my == 0) return false;
          if (decisions_[mb].intra || decisions_[mb - mbs_x].intra) return true;
          int grad = 0;
          for (int x = 0; x < 16; ++x)
            grad += std::abs(recon_.y.at(px + x, py) - recon_.y.at(px + x, py - 1));
          return grad / 16 >= config_.strong_edge_threshold;
        };

        if (strong_edge_v()) {
          deblock_bs4_vertical(recon_.y, px, py, config_.deblock);
          if (trace != nullptr) row_lf[my].push_back(ids_.lf_bs4);
        }
        if (strong_edge_h()) {
          deblock_bs4_horizontal(recon_.y, px, py, config_.deblock);
          if (trace != nullptr) row_lf[my].push_back(ids_.lf_bs4);
        }
        lf_done[my].store(mx + 1, std::memory_order_release);
      }
    });
    // Raster-order fold keeps the LF trace identical to the serial filter.
    if (trace != nullptr)
      for (const auto& row : row_lf) trace->lf.insert(trace->lf.end(), row.begin(), row.end());
  }

  frame_bits_.align();
  result.bits = frame_bits_.bit_count();
  result.psnr = psnr_y(input, recon_);
  if (planes_) ref_planes_.build(recon_.y, config_.search.search_range);
  else ref_y_ = recon_.y;
  ++frame_;
  return result;
}

}  // namespace rispp::h264
