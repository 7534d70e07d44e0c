// Portable fixed-width SIMD primitives for the H.264 kernels.
//
// Built on the GCC/Clang generic vector extensions, so the same source
// compiles to SSE/NEON/AVX (or scalar expansion) without any
// target-specific intrinsics. Everything here is exact integer arithmetic:
// a kernel written with these types produces bit-identical results to its
// scalar reference — the paper's SADRow trap handler makes the same
// packed-word argument for the hardware SIs.
//
// Arithmetic vectors are 16 bytes wide (8 x int16 or 4 x int32; pixels
// load and store eight at a time): on the default x86-64 target (SSE2, no
// -march) wider vectors are split into several registers and compile to
// code slower than the scalar reference.
//
// When the extensions are unavailable RISPP_SIMD stays undefined and the
// kernels keep their scalar form.
#pragma once

#include <cstdint>
#include <cstring>

#if (defined(__GNUC__) || defined(__clang__)) && !defined(RISPP_NO_SIMD)
#define RISPP_SIMD 1
#endif

#ifdef RISPP_SIMD

namespace rispp::h264::simd {

using u8x8 = std::uint8_t __attribute__((vector_size(8)));
using i16x8 = std::int16_t __attribute__((vector_size(16)));
using i32x4 = std::int32_t __attribute__((vector_size(16)));

/// Eight pixels at p, widened to 16-bit lanes.
inline i16x8 load_widen_u8x8(const std::uint8_t* p) {
  u8x8 v;
  std::memcpy(&v, p, sizeof v);
  return __builtin_convertvector(v, i16x8);
}

/// Stores eight lanes as pixels (lanes must already lie in [0, 255]).
inline void store_narrow_u8x8(std::uint8_t* p, i16x8 v) {
  const u8x8 n = __builtin_convertvector(v, u8x8);
  std::memcpy(p, &n, sizeof n);
}

inline i32x4 load_i32x4(const int* p) {
  i32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_i32x4(int* p, i32x4 v) { std::memcpy(p, &v, sizeof v); }

template <typename V>
inline V max_lanes(V a, V b) {
  return a > b ? a : b;
}

template <typename V>
inline V min_lanes(V a, V b) {
  return a < b ? a : b;
}

/// Lanewise |v| (no lane may be the type's minimum — pixel differences and
/// Hadamard coefficients are far smaller).
inline i16x8 abs_lanes(i16x8 v) { return max_lanes(v, -v); }

/// Lanewise clamp to the pixel range [0, 255].
inline i16x8 clamp_pixel_lanes(i16x8 v) {
  return min_lanes(max_lanes(v, i16x8{}), i16x8{} + 255);
}

/// The low and high four lanes, widened to 32 bits.
inline i32x4 widen_lo(i16x8 v) {
  return __builtin_convertvector(__builtin_shufflevector(v, v, 0, 1, 2, 3), i32x4);
}
inline i32x4 widen_hi(i16x8 v) {
  return __builtin_convertvector(__builtin_shufflevector(v, v, 4, 5, 6, 7), i32x4);
}

/// In-place 4x4 transpose of four row vectors.
inline void transpose4(i32x4& a, i32x4& b, i32x4& c, i32x4& d) {
  const i32x4 t0 = __builtin_shufflevector(a, b, 0, 4, 1, 5);
  const i32x4 t1 = __builtin_shufflevector(a, b, 2, 6, 3, 7);
  const i32x4 t2 = __builtin_shufflevector(c, d, 0, 4, 1, 5);
  const i32x4 t3 = __builtin_shufflevector(c, d, 2, 6, 3, 7);
  a = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
  b = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
  c = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
  d = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
}

}  // namespace rispp::h264::simd

#endif  // RISPP_SIMD
