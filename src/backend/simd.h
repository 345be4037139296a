// Portable SIMD abstraction for the execution backend.
//
// One vector type (VF) plus a small op vocabulary, implemented for four
// tiers selected at compile time:
//
//   AVX-512F        VF = __m512   (16 lanes)
//   AVX2 + FMA      VF = __m256   (8 lanes)
//   SSE2            VF = __m128   (4 lanes)
//   scalar          VF = float    (1 lane)
//
// The widest tier the compiler advertises wins (-march=native turns the
// upper tiers on; the portable CI build lands on SSE2 on x86-64). Defining
// MFN_FORCE_SCALAR at compile time pins the scalar tier regardless of ISA.
//
// Every tier implements the complete API — including the scalar tier — so
// kernels written against it compile everywhere. The vectorized
// transcendentals (v_exp / v_log1p / v_tanh / v_softplus / v_sigmoid) are
// single-source: they are written once in terms of the op vocabulary and
// mirror the Cephes-style scalar polynomials in tensor_ops.cpp, so the
// SIMD and scalar activation paths agree to ~1 ulp of the shared
// polynomial.
//
// Runtime escape hatch: force_scalar() (initialized from the
// MFN_FORCE_SCALAR environment variable, toggleable via set_force_scalar)
// makes every dispatching kernel take its scalar reference path even in a
// vector build. enabled() is the single predicate kernels branch on:
//
//   if (simd::enabled()) { ... vector path ... } else { ... scalar ref ... }
//
// This keeps an in-tree oracle behind every vector kernel: the parity
// tests in tests/test_simd_kernels.cpp flip the flag and compare.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(MFN_FORCE_SCALAR)
#define MFN_SIMD_TIER_SCALAR 1
#elif defined(__AVX512F__)
#define MFN_SIMD_TIER_AVX512 1
#elif defined(__AVX2__) && defined(__FMA__)
#define MFN_SIMD_TIER_AVX2 1
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define MFN_SIMD_TIER_SSE 1
#else
#define MFN_SIMD_TIER_SCALAR 1
#endif

#if !defined(MFN_SIMD_TIER_SCALAR)
#define MFN_SIMD_HAS_VECTOR 1
#include <immintrin.h>
#else
#define MFN_SIMD_HAS_VECTOR 0
#endif

namespace mfn::simd {

/// True when the runtime escape hatch is pulling every dispatching kernel
/// onto its scalar reference path (env MFN_FORCE_SCALAR=1, or
/// set_force_scalar(true) from tests).
bool force_scalar() noexcept;
void set_force_scalar(bool v) noexcept;

/// Shared numerics policy for blocked vector reductions: float lane
/// accumulators are flushed into a double at least this often, keeping
/// lane sums well inside the 1e-5 parity bar against the double-precision
/// scalar references regardless of input length.
inline constexpr std::int64_t kReduceFlushElems = 1 << 14;

// vreduce is defined at the end of this header (it needs the tier's op
// vocabulary); declared here so the policy and its canonical consumer
// read together.

// ---------------------------------------------------------------- AVX512 --
#if defined(MFN_SIMD_TIER_AVX512)

inline constexpr int kWidth = 16;
inline constexpr const char* kTierName = "avx512";

struct VF {
  __m512 v;
};
struct VI {
  __m512i v;
};
using VM = __mmask16;

inline VF vzero() { return {_mm512_setzero_ps()}; }
inline VF vset1(float x) { return {_mm512_set1_ps(x)}; }
inline VF vloadu(const float* p) { return {_mm512_loadu_ps(p)}; }
inline void vstoreu(float* p, VF a) { _mm512_storeu_ps(p, a.v); }
/// Load `n` <= kWidth lanes; lanes past n read as +0.
inline VF vload_partial(const float* p, int n) {
  const auto m = static_cast<__mmask16>((1u << n) - 1u);
  return {_mm512_maskz_loadu_ps(m, p)};
}
inline void vstore_partial(float* p, VF a, int n) {
  const auto m = static_cast<__mmask16>((1u << n) - 1u);
  _mm512_mask_storeu_ps(p, m, a.v);
}

inline VF vadd(VF a, VF b) { return {_mm512_add_ps(a.v, b.v)}; }
inline VF vsub(VF a, VF b) { return {_mm512_sub_ps(a.v, b.v)}; }
inline VF vmul(VF a, VF b) { return {_mm512_mul_ps(a.v, b.v)}; }
inline VF vdiv(VF a, VF b) { return {_mm512_div_ps(a.v, b.v)}; }
/// a * b + c as a single fused multiply-add.
inline VF vfma(VF a, VF b, VF c) { return {_mm512_fmadd_ps(a.v, b.v, c.v)}; }
// min/max/sqrt/rsqrt14 use the maskz_ forms with a full mask: identical
// instructions, but the plain wrappers in GCC 12's avx512fintrin.h pass an
// *undefined* merge source that trips -Wmaybe-uninitialized under -O3.
inline VF vmin(VF a, VF b) {
  return {_mm512_maskz_min_ps(static_cast<__mmask16>(0xFFFF), a.v, b.v)};
}
inline VF vmax(VF a, VF b) {
  return {_mm512_maskz_max_ps(static_cast<__mmask16>(0xFFFF), a.v, b.v)};
}
inline VF vsqrt(VF a) {
  return {_mm512_maskz_sqrt_ps(static_cast<__mmask16>(0xFFFF), a.v)};
}
inline VF vabs(VF a) {
  return {_mm512_castsi512_ps(_mm512_and_si512(
      _mm512_castps_si512(a.v), _mm512_set1_epi32(0x7FFFFFFF)))};
}
inline VF vneg(VF a) {
  return {_mm512_castsi512_ps(_mm512_xor_si512(
      _mm512_castps_si512(a.v), _mm512_set1_epi32(0x80000000)))};
}
/// Approximate 1/sqrt(x) refined with one Newton step (~2e-7 relative).
/// x must be > 0: rsqrt(0) is inf and the refinement turns it into NaN.
inline VF vrsqrt_nr(VF x) {
  const __m512 r0 =
      _mm512_maskz_rsqrt14_ps(static_cast<__mmask16>(0xFFFF), x.v);
  const __m512 half_x = _mm512_mul_ps(x.v, _mm512_set1_ps(0.5f));
  const __m512 t = _mm512_fnmadd_ps(_mm512_mul_ps(half_x, r0), r0,
                                    _mm512_set1_ps(1.5f));
  return {_mm512_mul_ps(r0, t)};
}

inline VM vcmp_lt(VF a, VF b) {
  return _mm512_cmp_ps_mask(a.v, b.v, _CMP_LT_OQ);
}
inline VM vcmp_ge(VF a, VF b) {
  return _mm512_cmp_ps_mask(a.v, b.v, _CMP_GE_OQ);
}
inline VM vcmp_gt(VF a, VF b) {
  return _mm512_cmp_ps_mask(a.v, b.v, _CMP_GT_OQ);
}
inline VM vcmp_unord(VF a, VF b) {
  return _mm512_cmp_ps_mask(a.v, b.v, _CMP_UNORD_Q);
}
/// a where the mask is set, b elsewhere.
inline VF vselect(VM m, VF a, VF b) {
  return {_mm512_mask_blend_ps(m, b.v, a.v)};
}

inline VI vi_set1(std::int32_t x) { return {_mm512_set1_epi32(x)}; }
inline VI vi_add(VI a, VI b) { return {_mm512_add_epi32(a.v, b.v)}; }
inline VI vi_sub(VI a, VI b) { return {_mm512_sub_epi32(a.v, b.v)}; }
inline VI vi_and(VI a, VI b) { return {_mm512_and_si512(a.v, b.v)}; }
inline VI vi_or(VI a, VI b) { return {_mm512_or_si512(a.v, b.v)}; }
template <int N>
inline VI vi_slli(VI a) {
  return {_mm512_maskz_slli_epi32(static_cast<__mmask16>(0xFFFF), a.v, N)};
}
template <int N>
inline VI vi_srli(VI a) {
  return {_mm512_maskz_srli_epi32(static_cast<__mmask16>(0xFFFF), a.v, N)};
}
/// Truncating float -> int32 conversion.
inline VI vcvtt(VF a) {
  return {_mm512_maskz_cvttps_epi32(static_cast<__mmask16>(0xFFFF), a.v)};
}
inline VF vcvtf(VI a) {
  return {_mm512_maskz_cvtepi32_ps(static_cast<__mmask16>(0xFFFF), a.v)};
}
inline VF vcastf(VI a) { return {_mm512_castsi512_ps(a.v)}; }
inline VI vcasti(VF a) { return {_mm512_castps_si512(a.v)}; }

// _mm512_reduce_add_ps / _mm512_reduce_max_ps expand through the
// undefined-source extract/max wrappers (same -Wmaybe-uninitialized issue
// as above, GCC PR105593). Horizontal reductions sit outside the hot
// loops (once per ~16K-element block), so spill-and-loop is fine.
inline float vhsum(VF a) {
  alignas(64) float buf[16];
  _mm512_store_ps(buf, a.v);
  float s = 0.0f;
  for (int i = 0; i < 16; ++i) s += buf[i];
  return s;
}
inline float vhmax(VF a) {
  alignas(64) float buf[16];
  _mm512_store_ps(buf, a.v);
  float m = buf[0];
  for (int i = 1; i < 16; ++i) m = m > buf[i] ? m : buf[i];
  return m;
}

/// Horizontal sums of kWidth vectors at once: lane i of the result is the
/// sum of acc[i]'s lanes. A shuffle tree halves every vector per level
/// (lane l plus lane l + kWidth / 2, then + kWidth / 4, ..., + 1), so each
/// sum is added in the same order whichever acc[i] it comes from. The
/// 512-bit shuffles use the maskz_ forms with a full mask (GCC PR105593,
/// as above).
inline VF vfold_block(const VF* acc) {
  constexpr __mmask16 all16 = 0xFFFF;
  constexpr __mmask8 all8 = 0xFF;
  // [a.lo256 + a.hi256, b.lo256 + b.hi256]
  auto halves = [](__m512 a, __m512 b) {
    return _mm512_add_ps(
        _mm512_maskz_shuffle_f32x4(all16, a, b, _MM_SHUFFLE(1, 0, 1, 0)),
        _mm512_maskz_shuffle_f32x4(all16, a, b, _MM_SHUFFLE(3, 2, 3, 2)));
  };
  // Two halves() results into the four 128-bit partials they hold.
  auto quarters = [](__m512 a, __m512 b) {
    return _mm512_add_ps(
        _mm512_maskz_shuffle_f32x4(all16, a, b, _MM_SHUFFLE(2, 0, 2, 0)),
        _mm512_maskz_shuffle_f32x4(all16, a, b, _MM_SHUFFLE(3, 1, 3, 1)));
  };
  // Per 128-bit block: [a.lo64 + a.hi64, b.lo64 + b.hi64]
  auto pairs = [](__m512 a, __m512 b) {
    const __m512d x = _mm512_castps_pd(a), y = _mm512_castps_pd(b);
    return _mm512_add_ps(
        _mm512_castpd_ps(_mm512_maskz_unpacklo_pd(all8, x, y)),
        _mm512_castpd_ps(_mm512_maskz_unpackhi_pd(all8, x, y)));
  };
  // Per 128-bit block: [a0 + a1, a2 + a3, b0 + b1, b2 + b3]
  auto lanes = [](__m512 a, __m512 b) {
    return _mm512_add_ps(_mm512_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)),
                         _mm512_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
  };
  // x[t]'s 128-bit blocks hold the partials of acc[t], acc[4 + t],
  // acc[8 + t], acc[12 + t]; block j of the result then holds
  // acc[4j .. 4j + 3].
  __m512 x[4];
  for (int t = 0; t < 4; ++t)
    x[t] = quarters(halves(acc[t].v, acc[4 + t].v),
                    halves(acc[8 + t].v, acc[12 + t].v));
  return {lanes(pairs(x[0], x[1]), pairs(x[2], x[3]))};
}

/// Load kWidth bf16 values (fp32 truncated to the upper 16 mantissa/exp
/// bits) and widen to fp32: zero-extend to 32 bits, shift into the high
/// half. Exact — bf16 -> fp32 is lossless.
inline VF vload_bf16(const std::uint16_t* p) {
  // maskz_ form: the plain cvtepu16 intrinsic trips GCC 12's
  // -Wmaybe-uninitialized via _mm512_undefined_epi32 (PR105593).
  const __m512i w = _mm512_maskz_cvtepu16_epi32(
      static_cast<__mmask16>(0xFFFF),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  return {_mm512_castsi512_ps(
      _mm512_maskz_slli_epi32(static_cast<__mmask16>(0xFFFF), w, 16))};
}

/// Load a full register of int16 pairs (2 * kWidth int16 values, each
/// int32 lane holding a [lo, hi] pair) for the int8/int16 dot kernels.
inline VI vi_load16(const std::int16_t* p) {
  return {_mm512_loadu_si512(reinterpret_cast<const void*>(p))};
}

/// pmaddwd: per int32 lane, (int32)a.lo16 * b.lo16 + (int32)a.hi16 * b.hi16.
inline VI vi_madd16(VI a, VI b) {
#if defined(__AVX512BW__)
  return {_mm512_madd_epi16(a.v, b.v)};
#else
  const __m256i lo =
      _mm256_madd_epi16(_mm512_castsi512_si256(a.v),
                        _mm512_castsi512_si256(b.v));
  const __m256i hi = _mm256_madd_epi16(_mm512_extracti64x4_epi64(a.v, 1),
                                       _mm512_extracti64x4_epi64(b.v, 1));
  return {_mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1)};
#endif
}

/// acc + vi_madd16(a, b); uses VNNI's fused vpdpwssd when available (same
/// wrapping int32 arithmetic, one uop).
inline VI vi_madd16_acc(VI acc, VI a, VI b) {
#if defined(__AVX512VNNI__)
  return {_mm512_dpwssd_epi32(acc.v, a.v, b.v)};
#else
  return vi_add(acc, vi_madd16(a, b));
#endif
}

/// Narrowing store of the kWidth int32 lanes as int16 (exact for the int8
/// tier's |q| <= 127 quantized values). maskz_ form for the same GCC 12
/// -Wmaybe-uninitialized reason as vload_bf16 (PR105593).
inline void vi_store16(std::int16_t* p, VI a) {
  _mm256_storeu_si256(
      reinterpret_cast<__m256i*>(p),
      _mm512_maskz_cvtepi32_epi16(static_cast<__mmask16>(0xFFFF), a.v));
}

// ------------------------------------------------------------------ AVX2 --
#elif defined(MFN_SIMD_TIER_AVX2)

inline constexpr int kWidth = 8;
inline constexpr const char* kTierName = "avx2-fma";

struct VF {
  __m256 v;
};
struct VI {
  __m256i v;
};
using VM = __m256;  // all-ones lanes where true

namespace detail {
// 8 live lanes followed by 8 dead ones: loading at (8 - n) yields a mask
// with the first n lanes set.
alignas(32) inline constexpr std::int32_t kTailMask[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
inline __m256i tail_mask(int n) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(detail::kTailMask + 8 - n));
}
}  // namespace detail

inline VF vzero() { return {_mm256_setzero_ps()}; }
inline VF vset1(float x) { return {_mm256_set1_ps(x)}; }
inline VF vloadu(const float* p) { return {_mm256_loadu_ps(p)}; }
inline void vstoreu(float* p, VF a) { _mm256_storeu_ps(p, a.v); }
inline VF vload_partial(const float* p, int n) {
  return {_mm256_maskload_ps(p, detail::tail_mask(n))};
}
inline void vstore_partial(float* p, VF a, int n) {
  _mm256_maskstore_ps(p, detail::tail_mask(n), a.v);
}

inline VF vadd(VF a, VF b) { return {_mm256_add_ps(a.v, b.v)}; }
inline VF vsub(VF a, VF b) { return {_mm256_sub_ps(a.v, b.v)}; }
inline VF vmul(VF a, VF b) { return {_mm256_mul_ps(a.v, b.v)}; }
inline VF vdiv(VF a, VF b) { return {_mm256_div_ps(a.v, b.v)}; }
inline VF vfma(VF a, VF b, VF c) { return {_mm256_fmadd_ps(a.v, b.v, c.v)}; }
inline VF vmin(VF a, VF b) { return {_mm256_min_ps(a.v, b.v)}; }
inline VF vmax(VF a, VF b) { return {_mm256_max_ps(a.v, b.v)}; }
inline VF vsqrt(VF a) { return {_mm256_sqrt_ps(a.v)}; }
inline VF vabs(VF a) {
  return {_mm256_and_ps(a.v, _mm256_castsi256_ps(
                                 _mm256_set1_epi32(0x7FFFFFFF)))};
}
inline VF vneg(VF a) {
  return {_mm256_xor_ps(a.v,
                        _mm256_castsi256_ps(_mm256_set1_epi32(0x80000000)))};
}
inline VF vrsqrt_nr(VF x) {
  const __m256 r0 = _mm256_rsqrt_ps(x.v);
  const __m256 half_x = _mm256_mul_ps(x.v, _mm256_set1_ps(0.5f));
  const __m256 t = _mm256_fnmadd_ps(_mm256_mul_ps(half_x, r0), r0,
                                    _mm256_set1_ps(1.5f));
  return {_mm256_mul_ps(r0, t)};
}

inline VM vcmp_lt(VF a, VF b) { return _mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ); }
inline VM vcmp_ge(VF a, VF b) { return _mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ); }
inline VM vcmp_gt(VF a, VF b) { return _mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ); }
inline VM vcmp_unord(VF a, VF b) {
  return _mm256_cmp_ps(a.v, b.v, _CMP_UNORD_Q);
}
inline VF vselect(VM m, VF a, VF b) { return {_mm256_blendv_ps(b.v, a.v, m)}; }

inline VI vi_set1(std::int32_t x) { return {_mm256_set1_epi32(x)}; }
inline VI vi_add(VI a, VI b) { return {_mm256_add_epi32(a.v, b.v)}; }
inline VI vi_sub(VI a, VI b) { return {_mm256_sub_epi32(a.v, b.v)}; }
inline VI vi_and(VI a, VI b) { return {_mm256_and_si256(a.v, b.v)}; }
inline VI vi_or(VI a, VI b) { return {_mm256_or_si256(a.v, b.v)}; }
template <int N>
inline VI vi_slli(VI a) {
  return {_mm256_slli_epi32(a.v, N)};
}
template <int N>
inline VI vi_srli(VI a) {
  return {_mm256_srli_epi32(a.v, N)};
}
inline VI vcvtt(VF a) { return {_mm256_cvttps_epi32(a.v)}; }
inline VF vcvtf(VI a) { return {_mm256_cvtepi32_ps(a.v)}; }
inline VF vcastf(VI a) { return {_mm256_castsi256_ps(a.v)}; }
inline VI vcasti(VF a) { return {_mm256_castps_si256(a.v)}; }

inline float vhsum(VF a) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(a.v),
                        _mm256_extractf128_ps(a.v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}
inline float vhmax(VF a) {
  __m128 s = _mm_max_ps(_mm256_castps256_ps128(a.v),
                        _mm256_extractf128_ps(a.v, 1));
  s = _mm_max_ps(s, _mm_movehl_ps(s, s));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline VF vfold_block(const VF* acc) {
  // [a.lo128 + a.hi128, b.lo128 + b.hi128]
  auto halves = [](__m256 a, __m256 b) {
    return _mm256_add_ps(_mm256_permute2f128_ps(a, b, 0x20),
                         _mm256_permute2f128_ps(a, b, 0x31));
  };
  auto pairs = [](__m256 a, __m256 b) {
    const __m256d x = _mm256_castps_pd(a), y = _mm256_castps_pd(b);
    return _mm256_add_ps(_mm256_castpd_ps(_mm256_unpacklo_pd(x, y)),
                         _mm256_castpd_ps(_mm256_unpackhi_pd(x, y)));
  };
  auto lanes = [](__m256 a, __m256 b) {
    return _mm256_add_ps(_mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)),
                         _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
  };
  // w[t]'s 128-bit blocks hold the partials of acc[t] and acc[4 + t].
  __m256 w[4];
  for (int t = 0; t < 4; ++t) w[t] = halves(acc[t].v, acc[4 + t].v);
  return {lanes(pairs(w[0], w[1]), pairs(w[2], w[3]))};
}

/// Load kWidth bf16 values and widen to fp32 (exact).
inline VF vload_bf16(const std::uint16_t* p) {
  const __m256i w = _mm256_cvtepu16_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  return {_mm256_castsi256_ps(_mm256_slli_epi32(w, 16))};
}

/// Load a full register of int16 pairs (2 * kWidth int16 values).
inline VI vi_load16(const std::int16_t* p) {
  return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
}

/// pmaddwd: per int32 lane, (int32)a.lo16 * b.lo16 + (int32)a.hi16 * b.hi16.
inline VI vi_madd16(VI a, VI b) { return {_mm256_madd_epi16(a.v, b.v)}; }

inline VI vi_madd16_acc(VI acc, VI a, VI b) {
  return vi_add(acc, vi_madd16(a, b));
}

/// Narrowing store of the kWidth int32 lanes as int16 (saturating pack —
/// exact for the int8 tier's |q| <= 127 quantized values).
inline void vi_store16(std::int16_t* p, VI a) {
  const __m128i packed = _mm_packs_epi32(_mm256_castsi256_si128(a.v),
                                         _mm256_extracti128_si256(a.v, 1));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), packed);
}

// ------------------------------------------------------------------ SSE2 --
#elif defined(MFN_SIMD_TIER_SSE)

inline constexpr int kWidth = 4;
inline constexpr const char* kTierName = "sse2";

struct VF {
  __m128 v;
};
struct VI {
  __m128i v;
};
using VM = __m128;

inline VF vzero() { return {_mm_setzero_ps()}; }
inline VF vset1(float x) { return {_mm_set1_ps(x)}; }
inline VF vloadu(const float* p) { return {_mm_loadu_ps(p)}; }
inline void vstoreu(float* p, VF a) { _mm_storeu_ps(p, a.v); }
inline VF vload_partial(const float* p, int n) {
  alignas(16) float buf[4] = {0.0f, 0.0f, 0.0f, 0.0f};
  for (int i = 0; i < n; ++i) buf[i] = p[i];
  return {_mm_load_ps(buf)};
}
inline void vstore_partial(float* p, VF a, int n) {
  alignas(16) float buf[4];
  _mm_store_ps(buf, a.v);
  for (int i = 0; i < n; ++i) p[i] = buf[i];
}

inline VF vadd(VF a, VF b) { return {_mm_add_ps(a.v, b.v)}; }
inline VF vsub(VF a, VF b) { return {_mm_sub_ps(a.v, b.v)}; }
inline VF vmul(VF a, VF b) { return {_mm_mul_ps(a.v, b.v)}; }
inline VF vdiv(VF a, VF b) { return {_mm_div_ps(a.v, b.v)}; }
// SSE2 has no fused form; mul + add keeps the contract (one rounding more).
inline VF vfma(VF a, VF b, VF c) {
  return {_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v)};
}
inline VF vmin(VF a, VF b) { return {_mm_min_ps(a.v, b.v)}; }
inline VF vmax(VF a, VF b) { return {_mm_max_ps(a.v, b.v)}; }
inline VF vsqrt(VF a) { return {_mm_sqrt_ps(a.v)}; }
inline VF vabs(VF a) {
  return {_mm_and_ps(a.v, _mm_castsi128_ps(_mm_set1_epi32(0x7FFFFFFF)))};
}
inline VF vneg(VF a) {
  return {_mm_xor_ps(a.v, _mm_castsi128_ps(_mm_set1_epi32(0x80000000)))};
}
inline VF vrsqrt_nr(VF x) {
  const __m128 r0 = _mm_rsqrt_ps(x.v);
  const __m128 half_x = _mm_mul_ps(x.v, _mm_set1_ps(0.5f));
  const __m128 t = _mm_sub_ps(
      _mm_set1_ps(1.5f), _mm_mul_ps(_mm_mul_ps(half_x, r0), r0));
  return {_mm_mul_ps(r0, t)};
}

inline VM vcmp_lt(VF a, VF b) { return _mm_cmplt_ps(a.v, b.v); }
inline VM vcmp_ge(VF a, VF b) { return _mm_cmpge_ps(a.v, b.v); }
inline VM vcmp_gt(VF a, VF b) { return _mm_cmpgt_ps(a.v, b.v); }
inline VM vcmp_unord(VF a, VF b) { return _mm_cmpunord_ps(a.v, b.v); }
inline VF vselect(VM m, VF a, VF b) {
  return {_mm_or_ps(_mm_and_ps(m, a.v), _mm_andnot_ps(m, b.v))};
}

inline VI vi_set1(std::int32_t x) { return {_mm_set1_epi32(x)}; }
inline VI vi_add(VI a, VI b) { return {_mm_add_epi32(a.v, b.v)}; }
inline VI vi_sub(VI a, VI b) { return {_mm_sub_epi32(a.v, b.v)}; }
inline VI vi_and(VI a, VI b) { return {_mm_and_si128(a.v, b.v)}; }
inline VI vi_or(VI a, VI b) { return {_mm_or_si128(a.v, b.v)}; }
template <int N>
inline VI vi_slli(VI a) {
  return {_mm_slli_epi32(a.v, N)};
}
template <int N>
inline VI vi_srli(VI a) {
  return {_mm_srli_epi32(a.v, N)};
}
inline VI vcvtt(VF a) { return {_mm_cvttps_epi32(a.v)}; }
inline VF vcvtf(VI a) { return {_mm_cvtepi32_ps(a.v)}; }
inline VF vcastf(VI a) { return {_mm_castsi128_ps(a.v)}; }
inline VI vcasti(VF a) { return {_mm_castps_si128(a.v)}; }

inline float vhsum(VF a) {
  __m128 s = _mm_add_ps(a.v, _mm_movehl_ps(a.v, a.v));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}
inline float vhmax(VF a) {
  __m128 s = _mm_max_ps(a.v, _mm_movehl_ps(a.v, a.v));
  s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

inline VF vfold_block(const VF* acc) {
  // [a0 + a2, a1 + a3, b0 + b2, b1 + b3]
  auto pairs = [](__m128 a, __m128 b) {
    const __m128d x = _mm_castps_pd(a), y = _mm_castps_pd(b);
    return _mm_add_ps(_mm_castpd_ps(_mm_unpacklo_pd(x, y)),
                      _mm_castpd_ps(_mm_unpackhi_pd(x, y)));
  };
  auto lanes = [](__m128 a, __m128 b) {
    return _mm_add_ps(_mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)),
                      _mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)));
  };
  return {lanes(pairs(acc[0].v, acc[1].v), pairs(acc[2].v, acc[3].v))};
}

/// Load kWidth bf16 values and widen to fp32 (exact): interleave a zero
/// low half under each 16-bit pattern.
inline VF vload_bf16(const std::uint16_t* p) {
  const __m128i w =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return {_mm_castsi128_ps(_mm_unpacklo_epi16(_mm_setzero_si128(), w))};
}

/// Load a full register of int16 pairs (2 * kWidth int16 values).
inline VI vi_load16(const std::int16_t* p) {
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
}

/// pmaddwd: per int32 lane, (int32)a.lo16 * b.lo16 + (int32)a.hi16 * b.hi16.
inline VI vi_madd16(VI a, VI b) { return {_mm_madd_epi16(a.v, b.v)}; }

inline VI vi_madd16_acc(VI acc, VI a, VI b) {
  return vi_add(acc, vi_madd16(a, b));
}

/// Narrowing store of the kWidth int32 lanes as int16 (saturating pack —
/// exact for the int8 tier's |q| <= 127 quantized values).
inline void vi_store16(std::int16_t* p, VI a) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p),
                   _mm_packs_epi32(a.v, a.v));
}

// ---------------------------------------------------------------- scalar --
#else

inline constexpr int kWidth = 1;
inline constexpr const char* kTierName = "scalar";

struct VF {
  float v;
};
struct VI {
  std::int32_t v;
};
using VM = bool;

inline VF vzero() { return {0.0f}; }
inline VF vset1(float x) { return {x}; }
inline VF vloadu(const float* p) { return {*p}; }
inline void vstoreu(float* p, VF a) { *p = a.v; }
inline VF vload_partial(const float* p, int n) {
  return {n > 0 ? *p : 0.0f};
}
inline void vstore_partial(float* p, VF a, int n) {
  if (n > 0) *p = a.v;
}

inline VF vadd(VF a, VF b) { return {a.v + b.v}; }
inline VF vsub(VF a, VF b) { return {a.v - b.v}; }
inline VF vmul(VF a, VF b) { return {a.v * b.v}; }
inline VF vdiv(VF a, VF b) { return {a.v / b.v}; }
inline VF vfma(VF a, VF b, VF c) { return {a.v * b.v + c.v}; }
inline VF vmin(VF a, VF b) { return {a.v < b.v ? a.v : b.v}; }
inline VF vmax(VF a, VF b) { return {a.v > b.v ? a.v : b.v}; }
inline VF vsqrt(VF a) { return {std::sqrt(a.v)}; }
inline VF vabs(VF a) { return {std::fabs(a.v)}; }
inline VF vneg(VF a) { return {-a.v}; }
inline VF vrsqrt_nr(VF x) { return {1.0f / std::sqrt(x.v)}; }

inline VM vcmp_lt(VF a, VF b) { return a.v < b.v; }
inline VM vcmp_ge(VF a, VF b) { return a.v >= b.v; }
inline VM vcmp_gt(VF a, VF b) { return a.v > b.v; }
inline VM vcmp_unord(VF a, VF b) {
  return std::isnan(a.v) || std::isnan(b.v);
}
inline VF vselect(VM m, VF a, VF b) { return m ? a : b; }

inline VI vi_set1(std::int32_t x) { return {x}; }
inline VI vi_add(VI a, VI b) { return {a.v + b.v}; }
inline VI vi_sub(VI a, VI b) { return {a.v - b.v}; }
inline VI vi_and(VI a, VI b) { return {a.v & b.v}; }
inline VI vi_or(VI a, VI b) { return {a.v | b.v}; }
template <int N>
inline VI vi_slli(VI a) {
  return {static_cast<std::int32_t>(static_cast<std::uint32_t>(a.v) << N)};
}
template <int N>
inline VI vi_srli(VI a) {
  return {static_cast<std::int32_t>(static_cast<std::uint32_t>(a.v) >> N)};
}
inline VI vcvtt(VF a) { return {static_cast<std::int32_t>(a.v)}; }
inline VF vcvtf(VI a) { return {static_cast<float>(a.v)}; }
inline VF vcastf(VI a) {
  float f;
  std::memcpy(&f, &a.v, sizeof(f));
  return {f};
}
inline VI vcasti(VF a) {
  std::int32_t i;
  std::memcpy(&i, &a.v, sizeof(i));
  return {i};
}

inline float vhsum(VF a) { return a.v; }
inline float vhmax(VF a) { return a.v; }
inline VF vfold_block(const VF* acc) { return acc[0]; }

/// Load one bf16 value and widen to fp32 (exact).
inline VF vload_bf16(const std::uint16_t* p) {
  const std::uint32_t u = static_cast<std::uint32_t>(*p) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return {f};
}

/// Load one int16 pair into the single int32 lane (bitwise, like the
/// vector tiers: lane = lo16 | hi16 << 16 on little-endian).
inline VI vi_load16(const std::int16_t* p) {
  std::int32_t i;
  std::memcpy(&i, p, sizeof(i));
  return {i};
}

/// pmaddwd on the single lane: (int32)a.lo16 * b.lo16 + (int32)a.hi16 *
/// b.hi16 with sign-correct 16-bit extraction.
inline VI vi_madd16(VI a, VI b) {
  const auto lo = [](std::int32_t v) {
    return static_cast<std::int32_t>(
        static_cast<std::int16_t>(static_cast<std::uint32_t>(v) & 0xFFFFu));
  };
  const auto hi = [](std::int32_t v) {
    return static_cast<std::int32_t>(
        static_cast<std::int16_t>(static_cast<std::uint32_t>(v) >> 16));
  };
  return {lo(a.v) * lo(b.v) + hi(a.v) * hi(b.v)};
}

inline VI vi_madd16_acc(VI acc, VI a, VI b) {
  return vi_add(acc, vi_madd16(a, b));
}

/// Narrowing store of the single int32 lane as int16 (exact for the int8
/// tier's |q| <= 127 quantized values).
inline void vi_store16(std::int16_t* p, VI a) {
  *p = static_cast<std::int16_t>(a.v);
}

#endif

/// True when kernels should take their vector path: a vector tier was
/// compiled in and the runtime scalar override is off.
inline bool enabled() noexcept { return kWidth > 1 && !force_scalar(); }

/// Tier actually executing right now ("scalar (forced)" when a vector
/// build is pinned to its reference paths at runtime).
inline const char* active_tier() noexcept {
  if (kWidth > 1 && force_scalar()) return "scalar (forced)";
  return kTierName;
}

// ------------------------------------------- vectorized transcendentals --
// Single-source ports of the Cephes-style scalar kernels in
// tensor_ops.cpp (fast_expf / fast_log1pf / fast_tanhf): same clamps, same
// polynomial coefficients, same branch-free structure, evaluated on VF.

/// exp(x), inputs clamped to the finite float range; NaN propagates.
inline VF v_exp(VF x) {
  const VM nan_mask = vcmp_unord(x, x);
  VF xc = vmin(x, vset1(88.3762626647950f));
  xc = vmax(xc, vset1(-87.3365478515625f));
  const VF z = vmul(xc, vset1(1.44269504088896341f));  // x / ln 2
  const VF tz = vcvtf(vcvtt(z));                       // trunc(z)
  const VF zf =
      vsub(tz, vselect(vcmp_lt(z, tz), vset1(1.0f), vzero()));  // floor(z)
  const VF f = vsub(z, zf);  // fractional part in [0, 1)
  VF p = vset1(1.8775767e-3f);
  p = vfma(p, f, vset1(8.9893397e-3f));
  p = vfma(p, f, vset1(5.5826318e-2f));
  p = vfma(p, f, vset1(2.4015361e-1f));
  p = vfma(p, f, vset1(6.9315308e-1f));
  p = vfma(p, f, vset1(9.9999994e-1f));
  // 2^int(zf) via biased-exponent construction; zf in [-126, 127].
  const VF scale =
      vcastf(vi_slli<23>(vi_add(vcvtt(zf), vi_set1(127))));
  return vselect(nan_mask, x, vmul(p, scale));
}

/// log(1 + u) for u in [0, 1], the range softplus evaluates it on, as
/// u * P9(u): P9 is a degree-9 Chebyshev fit of log1p(u) / u on [0, 1]
/// (max error 5.2e-9), so no log reduction and no division. Same
/// coefficients and Horner order as the scalar fast_log1pf.
inline VF v_log1p(VF u) {
  VF p = vset1(-0.00317605701843196f);
  p = vfma(p, u, vset1(0.019542527261014103f));
  p = vfma(p, u, vset1(-0.05637361283010733f));
  p = vfma(p, u, vset1(0.10543623795419527f));
  p = vfma(p, u, vset1(-0.15269667074363288f));
  p = vfma(p, u, vset1(0.19663274257204805f));
  p = vfma(p, u, vset1(-0.24951616262872076f));
  p = vfma(p, u, vset1(0.3332971049891775f));
  p = vfma(p, u, vset1(-0.49999892648063277f));
  p = vfma(p, u, vset1(0.999999994656292f));
  return vmul(u, p);
}

/// tanh(x): small-|x| odd polynomial, exp-based tail, branch-free select.
inline VF v_tanh(VF x) {
  const VF ax = vabs(x);
  const VF one = vset1(1.0f);
  const VF e = v_exp(vmul(ax, vset1(-2.0f)));
  const VF tl = vdiv(vsub(one, e), vadd(one, e));
  const VF z = vmul(x, x);
  VF p = vset1(-5.70498872745e-3f);
  p = vfma(p, z, vset1(2.06390887954e-2f));
  p = vfma(p, z, vset1(-5.37397155531e-2f));
  p = vfma(p, z, vset1(1.33314422036e-1f));
  p = vfma(p, z, vset1(-3.33332819422e-1f));
  const VF ts = vfma(vmul(x, z), p, x);
  const VF tail = vselect(vcmp_ge(x, vzero()), tl, vneg(tl));
  return vselect(vcmp_lt(ax, vset1(0.625f)), ts, tail);
}

/// softplus(x) = max(x, 0) + log1p(e^-|x|).
inline VF v_softplus(VF x) {
  return vadd(vmax(x, vzero()), v_log1p(v_exp(vneg(vabs(x)))));
}

/// sigmoid(x) via the one-sided exp (no overflow on either tail).
inline VF v_sigmoid(VF x) {
  const VF e = v_exp(vneg(vabs(x)));
  const VF s = vdiv(e, vadd(vset1(1.0f), e));
  return vselect(vcmp_ge(x, vzero()), vsub(vset1(1.0f), s), s);
}

// ------------------------------------------------- blocked reductions ---
/// The canonical blocked vector reduction over [0, n): four independent
/// lane accumulators (covers FMA/add latency) advanced by
/// `step(acc, loaded_vector)`, flushed into a double every
/// kReduceFlushElems elements (the shared flush policy), masked ragged
/// tail. Every sum-shaped reduction — tensor_ops' sum/sum_abs/sum_squares,
/// the conv bias gradient — goes through this one loop so the policy has
/// a single implementation. Callers gate on enabled() themselves.
template <typename StepF>
inline double vreduce(const float* p, std::int64_t n, StepF&& step) {
  constexpr int W = kWidth;
  constexpr std::int64_t kFlush = kReduceFlushElems;
  double total = 0.0;
  for (std::int64_t base = 0; base < n; base += kFlush) {
    const std::int64_t m =
        n - base < kFlush ? n - base : kFlush;
    const float* q = p + base;
    VF a0 = vzero(), a1 = vzero(), a2 = vzero(), a3 = vzero();
    std::int64_t i = 0;
    for (; i + 4 * W <= m; i += 4 * W) {
      a0 = step(a0, vloadu(q + i));
      a1 = step(a1, vloadu(q + i + W));
      a2 = step(a2, vloadu(q + i + 2 * W));
      a3 = step(a3, vloadu(q + i + 3 * W));
    }
    for (; i + W <= m; i += W) a0 = step(a0, vloadu(q + i));
    const int tail = static_cast<int>(m - i);
    if (tail > 0) a0 = step(a0, vload_partial(q + i, tail));
    total += static_cast<double>(vhsum(vadd(vadd(a0, a1), vadd(a2, a3))));
  }
  return total;
}

}  // namespace mfn::simd
