// Portable fixed-width SIMD primitives for the H.264 kernels.
//
// Built on the GCC/Clang generic vector extensions, so the same source
// compiles to SSE/NEON/AVX (or scalar expansion) without any
// target-specific intrinsics. Everything here is exact integer arithmetic:
// a kernel written with these types produces bit-identical results to its
// scalar reference — the paper's SADRow trap handler makes the same
// packed-word argument for the hardware SIs.
//
// When the extensions are unavailable RISPP_SIMD stays undefined and the
// dispatching kernels (kernels.h) keep the scalar path.
//
// 32- and 64-byte vectors (i16x16, i32x16) never cross a function boundary
// by value: helpers take them by reference and write results through an
// out-parameter or in place. By value their calling convention depends on
// whether AVX is enabled, which GCC reports as an ABI change (-Wpsabi).
#pragma once

#include <cstdint>
#include <cstring>

#if (defined(__GNUC__) || defined(__clang__)) && !defined(RISPP_NO_SIMD)
#define RISPP_SIMD 1
#endif

#ifdef RISPP_SIMD

namespace rispp::h264::simd {

using u8x16 = std::uint8_t __attribute__((vector_size(16)));
using i16x16 = std::int16_t __attribute__((vector_size(32)));
using i32x4 = std::int32_t __attribute__((vector_size(16)));
using i32x16 = std::int32_t __attribute__((vector_size(64)));

inline u8x16 load_u8x16(const std::uint8_t* p) {
  u8x16 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_u8x16(std::uint8_t* p, u8x16 v) { std::memcpy(p, &v, sizeof v); }

inline i32x4 load_i32x4(const int* p) {
  i32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_i32x4(int* p, i32x4 v) { std::memcpy(p, &v, sizeof v); }

/// Lanewise widening conversions.
inline void widen(u8x16 v, i16x16& out) { out = __builtin_convertvector(v, i16x16); }
inline void widen(u8x16 v, i32x16& out) { out = __builtin_convertvector(v, i32x16); }
inline void widen(const i16x16& v, i32x16& out) { out = __builtin_convertvector(v, i32x16); }
/// Lanewise truncating narrowing conversions (lanes must fit a pixel).
inline u8x16 narrow_u8(const i16x16& v) { return __builtin_convertvector(v, u8x16); }
inline u8x16 narrow_u8(const i32x16& v) { return __builtin_convertvector(v, u8x16); }

/// In-place lanewise |v| via sign-mask arithmetic (no lane may be INT_MIN —
/// pixel differences and Hadamard coefficients are far smaller).
inline void abs_lanes(i16x16& v) {
  const i16x16 m = v >> 15;
  v = (v ^ m) - m;
}

/// In-place lanewise clamp to the pixel range [0, 255] via mask arithmetic.
template <typename V>
inline void clamp_pixel_lanes(V& v) {
  v &= ~(v >> (sizeof(v[0]) * 8 - 1));  // negative lanes -> 0
  const V over = (255 - v) >> (sizeof(v[0]) * 8 - 1);
  v = (v & ~over) | (over & 255);
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

template <typename V>
inline std::uint32_t horizontal_sum_u32(const V& v) {
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < sizeof(v) / sizeof(v[0]); ++i)
    acc += static_cast<std::uint32_t>(v[i]);
  return acc;
}

}  // namespace rispp::h264::simd

#endif  // RISPP_SIMD
