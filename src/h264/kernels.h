// Cost kernels of the Motion Estimation hot spot — the functional
// counterparts of the SAD and SATD Special Instructions.
//
// Each kernel exists in two backends: a Plane-addressed scalar reference
// that clamps every reference access to the frame, and a row-pointer
// version for the SIMD encode path, which reads padded reference planes.
// The row-pointer SATD is portable fixed-width SIMD (simd.h), bit-exact by
// construction: integer-only arithmetic and exact identities of the
// Hadamard abs-sum. The process-wide backend selects the encoder's data
// flow (Encoder); tests fuzz the two backends against each other
// (h264_kernels_test.cpp).
#pragma once

#include <cstdint>

#include "h264/frame.h"

namespace rispp::h264 {

enum class KernelBackend {
  kScalar,  // reference path, always available
  kSimd,    // GCC vector-extension path (simd.h)
};

/// True when the SIMD backend is compiled in (GCC/Clang vector extensions).
bool simd_available();

/// The active backend: it selects the data flow of each new Encoder and the
/// kernel satd_16x16_pred runs. Defaults to kSimd when available unless
/// RISPP_SIMD=0 (strictly parsed, base/env.h).
KernelBackend active_kernel_backend();

/// Overrides the backend process-wide (benches and equivalence tests).
/// Selecting kSimd without simd_available() keeps the scalar path.
void set_kernel_backend(KernelBackend backend);

/// Sum of absolute differences over a 16x16 block: the scalar reference.
/// `cur` is addressed in-bounds at (cx,cy); the reference candidate (rx,ry)
/// is edge-clamped so search windows may cross the frame border.
std::uint32_t sad_16x16_scalar(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry);

/// 4x4 SATD: sum of absolute values of the 2-D Hadamard transform of the
/// residual, normalized by /2 as in the JM reference software.
std::uint32_t satd_4x4(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry);

/// 16x16 SATD as the sum of its sixteen 4x4 SATDs (scalar reference,
/// edge-clamped like sad_16x16_scalar).
std::uint32_t satd_16x16_scalar(const Plane& cur, int cx, int cy, const Plane& ref, int rx,
                                int ry);

/// SATD of a 16x16 block against an in-memory prediction block (row-major
/// 16x16): the scalar reference.
std::uint32_t satd_16x16_pred_scalar(const Plane& cur, int cx, int cy, const Pixel pred[16 * 16]);

/// The SIMD encode path's kernels: both 16x16 blocks are read in place
/// through row pointers, rows `a_stride` / `b_stride` pixels apart, so every
/// pixel of both must be addressable — the encoder's reference blocks come
/// from padded planes (RefPlanes). On the same pixels they equal the scalar
/// references exactly.
std::uint32_t sad_16x16(const Pixel* a, int a_stride, const Pixel* b, int b_stride);
std::uint32_t satd_16x16(const Pixel* a, int a_stride, const Pixel* b, int b_stride);

/// SATD of the 16x16 block of `cur` at (cx,cy) against a row-major 16x16
/// prediction — the intra mode cost. Dispatches on the active backend.
std::uint32_t satd_16x16_pred(const Plane& cur, int cx, int cy, const Pixel pred[16 * 16]);

}  // namespace rispp::h264
