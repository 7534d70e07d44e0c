// The H.264-subset encoder that generates the workload.
//
// Per frame the encoder walks the paper's Figure 1 hot-spot sequence:
//   ME  — full-/half-pel motion search per MB (SAD, SATD),
//   EE  — mode decision, motion compensation / intra prediction, residual
//         transform + quantization + reconstruction (MC, (I)DCT, (I)HT 2x2,
//         (I)HT 4x4, IPred HDC, IPred VDC),
//   LF  — strong deblocking of intra/blocky MB edges (LF_BS4).
// Every SI-accelerable kernel invocation is appended to a FrameSiTrace in
// program order; the cycle-level simulator replays those traces.
//
// This is a real encoder in the sense that matters here: it operates on
// actual pixels, makes data-dependent decisions (search trajectories, mode
// choices, filter conditions) and maintains a reconstruction loop, so SI
// counts vary frame to frame the way the paper's profile does.
#pragma once

#include <vector>

#include "base/types.h"
#include "h264/deblock.h"
#include "h264/frame.h"
#include "h264/entropy.h"
#include "h264/motion_search.h"

namespace rispp {
class ThreadPool;
}

namespace rispp::h264 {

struct EncoderConfig {
  int qp = 28;
  MotionSearchConfig search;
  DeblockThresholds deblock;
  /// Intra is chosen when intra_cost * 8 < inter_cost * intra_bias_num.
  int intra_bias_num = 7;
  /// Edge gradient above which a P-frame MB edge is treated as a strong
  /// (BS4-candidate) edge.
  int strong_edge_threshold = 18;
};

/// SI ids the encoder reports (resolved once from the instruction set).
struct H264SiIds {
  SiId sad = 0, satd = 0, dct = 0, ht2x2 = 0, ht4x4 = 0;
  SiId mc = 0, ipred_hdc = 0, ipred_vdc = 0, lf_bs4 = 0;
};

struct FrameSiTrace {
  std::vector<SiId> me, ee, lf;
};

struct FrameResult {
  double psnr = 0.0;
  int intra_mbs = 0;
  int inter_mbs = 0;
  /// Entropy-coded size of the frame (header-less payload bits).
  std::size_t bits = 0;
};

class Encoder {
 public:
  Encoder(const EncoderConfig& config, int width, int height, const H264SiIds& ids);

  /// Encodes one frame; appends SI executions to `trace` if non-null.
  /// The first frame is always intra.
  ///
  /// ME, EE and LF evaluate macroblock rows as a wavefront on the thread
  /// pool (set_thread_pool; default: ThreadPool::global()): row r's motion
  /// search waits for one finished MB of row r-1 (top MV predictor), its
  /// encoding engine trails row r-1 by one MB (top reconstruction for IPred
  /// VDC, top coded MV), and its deblocking filter trails row r-1 by two MBs
  /// (the horizontal filter reads pixels the row above finishes with MB
  /// mx+1's vertical filter, and writes pixels that same filter reads).
  /// Per-row SI events and entropy bits are folded back in row order, so
  /// trace and payload are identical for any thread count.
  FrameResult encode_frame(const Frame& input, FrameSiTrace* trace);

  /// Pool used for the wavefront; nullptr (default) means the global pool.
  /// A pool with thread_count() <= 1 reproduces the serial encode exactly.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  const Frame& reconstructed() const { return recon_; }
  /// Entropy-coded payload of the last encoded frame (decoder input).
  std::vector<std::uint8_t> last_frame_bytes() const { return frame_bits_.bytes(); }
  int frames_encoded() const { return frame_; }

 private:
  struct MbDecision {
    bool intra = false;
    MotionVector mv;
  };

  /// Transforms, quantizes and reconstructs one 16x16 luma block given its
  /// prediction, entropy-coding levels into `bits` (the caller row's
  /// writer); returns summed absolute quantized levels (activity proxy).
  int code_mb_luma(const Frame& input, int px, int py, BlockRef pred, BitWriter& bits);
  void code_mb_chroma(const Frame& input, int px, int py);

  EncoderConfig config_;
  H264SiIds ids_;
  Frame recon_;
  // The previous reconstructed luma (chroma is never predicted from), in
  // the form the kernel backend active at construction reads: padded and
  // half-pel planes for kSimd, the plain plane for the scalar reference.
  bool planes_;
  RefPlanes ref_planes_;
  Plane ref_y_;
  std::vector<MotionVector> mv_field_;   // ME results (search seeding)
  std::vector<MotionVector> coded_mv_;   // decodable MV field (intra -> zero)
  std::vector<MbDecision> decisions_;
  std::vector<std::uint32_t> inter_cost_scratch_;  // per-MB inter SATD of this frame
  BitWriter frame_bits_;                           // entropy-coded payload
  ThreadPool* pool_ = nullptr;                     // nullptr -> global pool
  int frame_ = 0;
};

}  // namespace rispp::h264
