// Motion estimation: full-pel diamond search with SAD, then half-pel
// refinement with SATD — the Motion Estimation hot spot that issues the
// paper's ~32K SAD/SATD Special Instruction executions per frame (Figure 2:
// 31,977). Every kernel evaluation is reported to the caller so the
// workload recorder can emit the SI execution trace.
#pragma once

#include <cstdint>
#include <functional>

#include "h264/frame.h"
#include "h264/interpolate.h"

namespace rispp::h264 {

struct MotionSearchConfig {
  int search_range = 16;     // full-pel radius the search may roam
  std::uint32_t early_exit = 300;  // SAD below this stops the search
};

struct MotionSearchResult {
  MotionVector mv;           // half-pel units
  std::uint32_t sad = 0;     // best full-pel SAD
  std::uint32_t satd = 0;    // best half-pel SATD (inter cost)
  int sad_evaluations = 0;   // SAD SI executions issued
  int satd_evaluations = 0;  // SATD SI executions issued
};

/// Called once per kernel evaluation: (is_satd). Used by the workload
/// recorder; may be empty.
using KernelHook = std::function<void(bool is_satd)>;

/// Searches the 16x16 MB at pixel (mb_px_x, mb_px_y) of `cur` in `ref`.
/// `prediction` seeds the search (median/left-neighbour MV in the encoder).
/// The scalar reference: edge-clamped kernels, and every half-pel candidate
/// filtered per block (motion_compensate_16x16_scalar).
MotionSearchResult motion_search_16x16(const Plane& cur, const Plane& ref, int mb_px_x,
                                       int mb_px_y, const MotionVector& prediction,
                                       const MotionSearchConfig& config,
                                       const KernelHook& hook = {});

/// The same search over reference planes built for config.search_range:
/// each candidate is read in place from the padded or half-pel plane. The
/// result equals the Plane overload's on the same reference.
MotionSearchResult motion_search_16x16(const Plane& cur, const RefPlanes& ref, int mb_px_x,
                                       int mb_px_y, const MotionVector& prediction,
                                       const MotionSearchConfig& config,
                                       const KernelHook& hook = {});

}  // namespace rispp::h264
