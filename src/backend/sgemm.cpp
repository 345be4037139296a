#include "backend/sgemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "backend/simd.h"
#include "common/error.h"
#include "threading/thread_pool.h"

namespace mfn::backend {
namespace {

// Register-tile footprint, tied to the SIMD tier (backend/simd.h): NR is
// two vector registers wide, so the microkernel holds an MR x 2 grid of
// vector accumulators plus one broadcast and two B loads in registers.
//   avx512: 8 x (2 x 16) -> 16 zmm accumulators of 32
//   avx2:   6 x (2 x 8)  -> 12 ymm accumulators of 16
//   sse2:   4 x (2 x 4)  ->  8 xmm accumulators of 16
// The scalar tier keeps the smallest tile; its accumulator array is what
// the compiler can still hold in registers without spilling.
#if defined(MFN_SIMD_TIER_AVX512)
constexpr int kMR = 8, kNR = 32;
#elif defined(MFN_SIMD_TIER_AVX2)
constexpr int kMR = 6, kNR = 16;
#else
constexpr int kMR = 4, kNR = 8;
#endif
#if MFN_SIMD_HAS_VECTOR
static_assert(kNR == 2 * simd::kWidth,
              "microkernel assumes an NR tile of two vector registers");
#endif

// Cache-block sizes: an MC x KC block of packed A should sit in L2 while a
// KC x NR sliver of packed B streams through L1.
constexpr std::int64_t kMC = 16 * kMR;
constexpr std::int64_t kKC = 256;
constexpr std::int64_t kNC = 2048;

// Below this problem volume (or for vector-like shapes) packing costs more
// than it saves; use direct loops.
constexpr std::int64_t kSmallFlops = 32 * 1024;

// Optional fused epilogue: after the product (plus beta * C) lands in a
// tile, apply t -> act(row_scale[i] * t + row_bias[i] + col_bias[j]).
// row_scale/row_bias fold conv3d's per-filter bias and batchnorm(eval)
// affine; col_bias is the linear layers' per-feature bias; act is the
// post-conv activation. Pointers are global — indexed by the absolute
// row/column of C — and may be null (identity scale / zero bias).
struct Epilogue {
  const float* row_scale = nullptr;
  const float* row_bias = nullptr;
  const float* col_bias = nullptr;
  bool relu = false;
};

// Per-tile view of the epilogue: pointers pre-offset to the tile's rows and
// columns. Only populated on the final k-accumulation pass, so the fused
// write-back fires exactly once per element.
struct TileEp {
  const float* rs = nullptr;
  const float* rb = nullptr;
  const float* cb = nullptr;
  bool relu = false;
  bool any() const { return rs != nullptr || rb != nullptr ||
                            cb != nullptr || relu; }
};

inline TileEp tile_ep(const Epilogue& ep, std::int64_t i, std::int64_t j) {
  TileEp te;
  te.rs = ep.row_scale ? ep.row_scale + i : nullptr;
  te.rb = ep.row_bias ? ep.row_bias + i : nullptr;
  te.cb = ep.col_bias ? ep.col_bias + j : nullptr;
  te.relu = ep.relu;
  return te;
}

struct StrideA {
  std::int64_t rs, cs;  // op(A)(i,k) = A[i*rs + k*cs]
};

StrideA strides_a(Trans t, std::int64_t M, std::int64_t K) {
  (void)M;
  return t == Trans::kNo ? StrideA{K, 1} : StrideA{1, M};
}

StrideA strides_b(Trans t, std::int64_t K, std::int64_t N) {
  (void)K;
  return t == Trans::kNo ? StrideA{N, 1} : StrideA{1, K};
}

// Post-pass form of the epilogue for the unpacked (small / skinny) paths:
// C already holds alpha * AB + beta * C.
void apply_epilogue(float* C, std::int64_t M, std::int64_t N,
                    const Epilogue& ep) {
  if (ep.row_scale == nullptr && ep.row_bias == nullptr &&
      ep.col_bias == nullptr && !ep.relu)
    return;
  for (std::int64_t i = 0; i < M; ++i) {
    float* crow = C + i * N;
    const float rs = ep.row_scale ? ep.row_scale[i] : 1.0f;
    const float rb = ep.row_bias ? ep.row_bias[i] : 0.0f;
    for (std::int64_t j = 0; j < N; ++j) {
      float v = rs * crow[j] + rb + (ep.col_bias ? ep.col_bias[j] : 0.0f);
      crow[j] = ep.relu ? std::max(v, 0.0f) : v;
    }
  }
}

void scale_c(float* C, std::int64_t M, std::int64_t N, float beta) {
  const std::int64_t n = M * N;
  if (beta == 0.0f) {
    std::fill(C, C + n, 0.0f);
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < n; ++i) C[i] *= beta;
  }
}

// Direct (unpacked) path for small problems and row slices of vector-like
// shapes. `sa` carries the full-matrix strides (so callers may pass a
// pre-offset A pointer with M covering just a slice of rows). Loop order
// is chosen per transb so the innermost loop always walks contiguous
// memory.
void small_gemm(StrideA sa, Trans transb, std::int64_t M, std::int64_t N,
                std::int64_t K, float alpha, const float* A, const float* B,
                float beta, float* C, const Epilogue& ep) {
  if (transb == Trans::kNo) {
    for (std::int64_t i = 0; i < M; ++i) {
      float* crow = C + i * N;
      if (beta == 0.0f) {
        std::fill(crow, crow + N, 0.0f);
      } else if (beta != 1.0f) {
        for (std::int64_t j = 0; j < N; ++j) crow[j] *= beta;
      }
      for (std::int64_t k = 0; k < K; ++k) {
        const float aik = alpha * A[i * sa.rs + k * sa.cs];
        if (aik == 0.0f) continue;
        const float* brow = B + k * N;
        for (std::int64_t j = 0; j < N; ++j) crow[j] += aik * brow[j];
      }
    }
  } else {
    for (std::int64_t i = 0; i < M; ++i) {
      float* crow = C + i * N;
      for (std::int64_t j = 0; j < N; ++j) {
        const float* bcol = B + j * K;  // row j of B == column j of op(B)
        float acc = 0.0f;
        // Explicit fmaf pins the accumulation chain to IEEE fused
        // semantics. Left to the compiler, -ffp-contract=fast contracts
        // each inlined copy of this loop independently.
        for (std::int64_t k = 0; k < K; ++k)
          acc = std::fmaf(A[i * sa.rs + k * sa.cs], bcol[k], acc);
        crow[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * crow[j]);
      }
    }
  }
  apply_epilogue(C, M, N, ep);
}

// Pack op(A)[i0:i0+mc, pc:pc+kc], pre-scaled by alpha, into PMR-row panels:
// panel p holds rows i0+p*PMR.., laid out k-major (Ap[p*kc*PMR + k*PMR + r]).
// Rows past mc are zero-filled so the microkernel always reads PMR rows.
template <int PMR>
void pack_a(const float* A, StrideA sa, std::int64_t i0, std::int64_t mc,
            std::int64_t pc, std::int64_t kc, float alpha, float* Ap) {
  for (std::int64_t p = 0; p * PMR < mc; ++p) {
    const std::int64_t rows = std::min<std::int64_t>(PMR, mc - p * PMR);
    float* dst = Ap + p * kc * PMR;
    for (std::int64_t k = 0; k < kc; ++k) {
      const float* src = A + (i0 + p * PMR) * sa.rs + (pc + k) * sa.cs;
      for (std::int64_t r = 0; r < rows; ++r)
        dst[k * PMR + r] = alpha * src[r * sa.rs];
      for (std::int64_t r = rows; r < PMR; ++r) dst[k * PMR + r] = 0.0f;
    }
  }
}

// Pack the single NR-column panel op(B)[pc:pc+kc, j0:j0+cols] k-major into
// dst (dst[k*NR + c]); columns past `cols` are zero-filled.
void pack_b_panel(const float* B, StrideA sb, std::int64_t pc,
                  std::int64_t kc, std::int64_t j0, std::int64_t cols,
                  float* dst) {
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* src = B + (pc + k) * sb.rs + j0 * sb.cs;
    if (sb.cs == 1) {
      for (std::int64_t c = 0; c < cols; ++c) dst[k * kNR + c] = src[c];
    } else {
      for (std::int64_t c = 0; c < cols; ++c)
        dst[k * kNR + c] = src[c * sb.cs];
    }
    for (std::int64_t c = cols; c < kNR; ++c) dst[k * kNR + c] = 0.0f;
  }
}

// Pack op(B)[pc:pc+kc, 0:N] into NR-column panels, k-major within a panel
// (Bp[p*kc*NR + k*NR + c]); columns past N are zero-filled.
void pack_b(const float* B, StrideA sb, std::int64_t pc, std::int64_t kc,
            std::int64_t N, float* Bp) {
  const std::int64_t npanels = (N + kNR - 1) / kNR;
  parallel_for(npanels, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::int64_t j0 = p * kNR;
      const std::int64_t cols = std::min<std::int64_t>(kNR, N - j0);
      pack_b_panel(B, sb, pc, kc, j0, cols, Bp + p * kc * kNR);
    }
  });
}

// Shared writeback for both microkernels on the live mr x nr corner:
//   t = acc + beta * C;  C = act(rs * t + rb + cb)
// The epilogue view is pre-offset to this tile and only populated on the
// final accumulation pass.
template <int TMR, int TNR>
inline void write_tile(const float* acc, float* c, std::int64_t ldc, int mr,
                       int nr, float beta, const TileEp& ep) {
  if (!ep.any()) {
    if (mr == TMR && nr == TNR) {
      if (beta == 0.0f) {
        for (int i = 0; i < TMR; ++i)
          for (int j = 0; j < TNR; ++j) c[i * ldc + j] = acc[i * TNR + j];
      } else if (beta == 1.0f) {
        for (int i = 0; i < TMR; ++i)
          for (int j = 0; j < TNR; ++j) c[i * ldc + j] += acc[i * TNR + j];
      } else {
        for (int i = 0; i < TMR; ++i)
          for (int j = 0; j < TNR; ++j)
            c[i * ldc + j] = acc[i * TNR + j] + beta * c[i * ldc + j];
      }
      return;
    }
    for (int i = 0; i < mr; ++i)
      for (int j = 0; j < nr; ++j) {
        float* cc = c + i * ldc + j;
        *cc = acc[i * TNR + j] + (beta == 0.0f ? 0.0f : beta * *cc);
      }
    return;
  }
  for (int i = 0; i < mr; ++i) {
    const float rscale = ep.rs ? ep.rs[i] : 1.0f;
    const float rbias = ep.rb ? ep.rb[i] : 0.0f;
    for (int j = 0; j < nr; ++j) {
      float* cc = c + i * ldc + j;
      const float t =
          acc[i * TNR + j] + (beta == 0.0f ? 0.0f : beta * *cc);
      const float v = rscale * t + rbias + (ep.cb ? ep.cb[j] : 0.0f);
      *cc = ep.relu ? std::max(v, 0.0f) : v;
    }
  }
}

// Scalar-reference MR x NR microkernel over packed A and B panels. Kept as
// the in-tree oracle behind simd::enabled(): the parity tests pin it via
// simd::set_force_scalar and compare against the FMA kernels below.
void micro_kernel_scalar(std::int64_t kc, const float* ap, const float* bp,
                         float* c, std::int64_t ldc, int mr, int nr,
                         float beta, const TileEp& ep) {
  float acc[kMR * kNR];
  for (int x = 0; x < kMR * kNR; ++x) acc[x] = 0.0f;
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* a = ap + k * kMR;
    const float* b = bp + k * kNR;
    for (int i = 0; i < kMR; ++i) {
      const float ai = a[i];
      for (int j = 0; j < kNR; ++j) acc[i * kNR + j] += ai * b[j];
    }
  }
  write_tile<kMR, kNR>(acc, c, ldc, mr, nr, beta, ep);
}

// Scalar-reference direct-B microkernel (row-major B, leading dimension
// ldb). Used by the short-M path where packing B costs more than it saves.
template <int TMR, int TNR>
void micro_kernel_direct_b_scalar(std::int64_t K, const float* ap,
                                  const float* b, std::int64_t ldb, float* c,
                                  std::int64_t ldc, int mr, int nr,
                                  float beta, const TileEp& ep) {
  float acc[TMR * TNR];
  for (int x = 0; x < TMR * TNR; ++x) acc[x] = 0.0f;
  if (nr == TNR) {
    for (std::int64_t k = 0; k < K; ++k) {
      const float* a = ap + k * TMR;
      const float* bk = b + k * ldb;
      __builtin_prefetch(bk + 4 * ldb, 0, 3);
      for (int i = 0; i < TMR; ++i) {
        const float ai = a[i];
        for (int j = 0; j < TNR; ++j) acc[i * TNR + j] += ai * bk[j];
      }
    }
  } else {
    for (std::int64_t k = 0; k < K; ++k) {
      const float* a = ap + k * TMR;
      const float* bk = b + k * ldb;
      for (int i = 0; i < TMR; ++i) {
        const float ai = a[i];
        for (int j = 0; j < nr; ++j) acc[i * TNR + j] += ai * bk[j];
      }
    }
  }
  write_tile<TMR, TNR>(acc, c, ldc, mr, nr, beta, ep);
}

#if MFN_SIMD_HAS_VECTOR

namespace sv = mfn::simd;

// The register tile as vectors: kMR rows x 2 vector columns.
constexpr int kNV = kNR / sv::kWidth;  // == 2

// Vector writeback from the spilled accumulator buffer (kMR x kNR floats,
// written once after the k-loop — 2*kMR stores against ~kc*kMR*2 FMAs):
//   t = acc + beta * C;  C = act(rs * t + rb + cb)
// on the live mr x nr corner. Full-width columns go through plain
// loads/stores; the ragged N tail is masked, so no lane outside the tile
// is ever read or written.
inline void write_tile_simd(const float* acc, float* c, std::int64_t ldc,
                            int mr, int nr, float beta, const TileEp& ep) {
  const sv::VF vbeta = sv::vset1(beta);
  for (int i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    const sv::VF rbias = ep.rb ? sv::vset1(ep.rb[i]) : sv::vzero();
    const sv::VF rscale = ep.rs ? sv::vset1(ep.rs[i]) : sv::vzero();
    for (int jv = 0; jv < kNV; ++jv) {
      const int j0 = jv * sv::kWidth;
      const int lanes = nr - j0;
      if (lanes <= 0) break;
      sv::VF r = sv::vloadu(acc + i * kNR + j0);
      if (beta != 0.0f) {
        const sv::VF cv = lanes >= sv::kWidth
                              ? sv::vloadu(crow + j0)
                              : sv::vload_partial(crow + j0, lanes);
        r = sv::vfma(vbeta, cv, r);
      }
      if (ep.rs != nullptr) r = sv::vmul(r, rscale);
      if (ep.rb != nullptr) r = sv::vadd(r, rbias);
      if (ep.cb != nullptr) {
        const sv::VF cbias = lanes >= sv::kWidth
                                 ? sv::vloadu(ep.cb + j0)
                                 : sv::vload_partial(ep.cb + j0, lanes);
        r = sv::vadd(r, cbias);
      }
      if (ep.relu) r = sv::vmax(r, sv::vzero());
      if (lanes >= sv::kWidth) {
        sv::vstoreu(crow + j0, r);
      } else {
        sv::vstore_partial(crow + j0, r, lanes);
      }
    }
  }
}

// Shared FMA tile loop for both microkernels. The accumulators are NAMED
// locals, not an array: GCC will not scalar-replace an array whose address
// escapes (even into an inlined lambda), and a memory-resident accumulator
// turns every FMA into load+fma+store — the spill this PR removes. Rows
// past kMR are compiled out by if constexpr. `loadb(k, b0, b1)` produces
// the two B vectors for step k; it is inlined, so each caller's load
// strategy (packed panel, direct row, masked tail) costs nothing extra.
// On exit the live tile is spilled once to `buf` (kMR x kNR, row-major)
// for the writeback — 2*kMR stores against kc*kMR*2 loop FMAs.
template <typename LoadB>
inline void fma_tile(std::int64_t kc, const float* ap, LoadB&& loadb,
                     float* buf) {
  sv::VF c00 = sv::vzero(), c01 = sv::vzero(), c10 = sv::vzero(),
         c11 = sv::vzero(), c20 = sv::vzero(), c21 = sv::vzero(),
         c30 = sv::vzero(), c31 = sv::vzero(), c40 = sv::vzero(),
         c41 = sv::vzero(), c50 = sv::vzero(), c51 = sv::vzero(),
         c60 = sv::vzero(), c61 = sv::vzero(), c70 = sv::vzero(),
         c71 = sv::vzero();
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* a = ap + k * kMR;
    sv::VF b0, b1;
    loadb(k, b0, b1);
    sv::VF ai;
    ai = sv::vset1(a[0]);
    c00 = sv::vfma(ai, b0, c00);
    c01 = sv::vfma(ai, b1, c01);
    ai = sv::vset1(a[1]);
    c10 = sv::vfma(ai, b0, c10);
    c11 = sv::vfma(ai, b1, c11);
    ai = sv::vset1(a[2]);
    c20 = sv::vfma(ai, b0, c20);
    c21 = sv::vfma(ai, b1, c21);
    ai = sv::vset1(a[3]);
    c30 = sv::vfma(ai, b0, c30);
    c31 = sv::vfma(ai, b1, c31);
    if constexpr (kMR > 4) {
      ai = sv::vset1(a[4]);
      c40 = sv::vfma(ai, b0, c40);
      c41 = sv::vfma(ai, b1, c41);
      ai = sv::vset1(a[5]);
      c50 = sv::vfma(ai, b0, c50);
      c51 = sv::vfma(ai, b1, c51);
    }
    if constexpr (kMR > 6) {
      ai = sv::vset1(a[6]);
      c60 = sv::vfma(ai, b0, c60);
      c61 = sv::vfma(ai, b1, c61);
      ai = sv::vset1(a[7]);
      c70 = sv::vfma(ai, b0, c70);
      c71 = sv::vfma(ai, b1, c71);
    }
  }
  constexpr int W = sv::kWidth;
  sv::vstoreu(buf + 0 * kNR, c00);
  sv::vstoreu(buf + 0 * kNR + W, c01);
  sv::vstoreu(buf + 1 * kNR, c10);
  sv::vstoreu(buf + 1 * kNR + W, c11);
  sv::vstoreu(buf + 2 * kNR, c20);
  sv::vstoreu(buf + 2 * kNR + W, c21);
  sv::vstoreu(buf + 3 * kNR, c30);
  sv::vstoreu(buf + 3 * kNR + W, c31);
  if constexpr (kMR > 4) {
    sv::vstoreu(buf + 4 * kNR, c40);
    sv::vstoreu(buf + 4 * kNR + W, c41);
    sv::vstoreu(buf + 5 * kNR, c50);
    sv::vstoreu(buf + 5 * kNR + W, c51);
  }
  if constexpr (kMR > 6) {
    sv::vstoreu(buf + 6 * kNR, c60);
    sv::vstoreu(buf + 6 * kNR + W, c61);
    sv::vstoreu(buf + 7 * kNR, c70);
    sv::vstoreu(buf + 7 * kNR + W, c71);
  }
  // rows compiled out in the narrow tiers are set-but-unused
  (void)c40, (void)c41, (void)c50, (void)c51;
  (void)c60, (void)c61, (void)c70, (void)c71;
}

// Explicit-FMA microkernel over packed panels: per k step, one broadcast
// per A row against two B vector loads, kMR x 2 independent FMA chains —
// enough to cover FMA latency on every tier without spilling.
void micro_kernel_simd(std::int64_t kc, const float* ap, const float* bp,
                       float* c, std::int64_t ldc, int mr, int nr, float beta,
                       const TileEp& ep) {
  alignas(64) float buf[kMR * kNR];
  fma_tile(kc, ap,
           [bp](std::int64_t k, sv::VF& b0, sv::VF& b1) {
             b0 = sv::vloadu(bp + k * kNR);
             b1 = sv::vloadu(bp + k * kNR + sv::kWidth);
           },
           buf);
  write_tile_simd(buf, c, ldc, mr, nr, beta, ep);
}

// Explicit-FMA direct-B microkernel. The full-width case streams two
// unaligned loads per B row; the ragged case masks the tail load so the
// kernel never reads past row end.
void micro_kernel_direct_b_simd(std::int64_t K, const float* ap,
                                const float* b, std::int64_t ldb, float* c,
                                std::int64_t ldc, int mr, int nr, float beta,
                                const TileEp& ep) {
  alignas(64) float buf[kMR * kNR];
  if (nr == kNR) {
    fma_tile(K, ap,
             [b, ldb](std::int64_t k, sv::VF& b0, sv::VF& b1) {
               const float* bk = b + k * ldb;
               __builtin_prefetch(bk + 4 * ldb, 0, 3);
               b0 = sv::vloadu(bk);
               b1 = sv::vloadu(bk + sv::kWidth);
             },
             buf);
  } else if (nr > sv::kWidth) {
    // First vector is full width, only the second is masked.
    const int l1 = nr - sv::kWidth;
    fma_tile(K, ap,
             [b, ldb, l1](std::int64_t k, sv::VF& b0, sv::VF& b1) {
               const float* bk = b + k * ldb;
               b0 = sv::vloadu(bk);
               b1 = sv::vload_partial(bk + sv::kWidth, l1);
             },
             buf);
  } else {
    fma_tile(K, ap,
             [b, ldb, nr](std::int64_t k, sv::VF& b0, sv::VF& b1) {
               b0 = sv::vload_partial(b + k * ldb, nr);
               b1 = sv::vzero();
             },
             buf);
  }
  write_tile_simd(buf, c, ldc, mr, nr, beta, ep);
}

#endif  // MFN_SIMD_HAS_VECTOR

// Dispatch seam: vector kernels when the build has them and the runtime
// scalar override is off, scalar reference otherwise. The branch costs one
// relaxed atomic load per ~2*kc*MR*NR flops of kernel work.
inline void micro_kernel(std::int64_t kc, const float* ap, const float* bp,
                         float* c, std::int64_t ldc, int mr, int nr,
                         float beta, const TileEp& ep) {
#if MFN_SIMD_HAS_VECTOR
  if (simd::enabled()) {
    micro_kernel_simd(kc, ap, bp, c, ldc, mr, nr, beta, ep);
    return;
  }
#endif
  micro_kernel_scalar(kc, ap, bp, c, ldc, mr, nr, beta, ep);
}

template <int TMR, int TNR>
inline void micro_kernel_direct_b(std::int64_t K, const float* ap,
                                  const float* b, std::int64_t ldb, float* c,
                                  std::int64_t ldc, int mr, int nr,
                                  float beta, const TileEp& ep) {
#if MFN_SIMD_HAS_VECTOR
  if constexpr (TMR == kMR && TNR == kNR) {
    if (simd::enabled()) {
      micro_kernel_direct_b_simd(K, ap, b, ldb, c, ldc, mr, nr, beta, ep);
      return;
    }
  }
#endif
  micro_kernel_direct_b_scalar<TMR, TNR>(K, ap, b, ldb, c, ldc, mr, nr, beta,
                                         ep);
}

#if MFN_SIMD_HAS_VECTOR

// Dot kernel for A·Bᵀ with both operands contiguous along K (conv3d's
// weight gradient gy_n · col_nᵀ, K = the output voxel count): each output
// of a kDMR x kDNR block owns one vector accumulator that sums its K
// products lane-wise, and simd::vfold_block reduces the block's kWidth
// accumulators into one vector of kWidth sums. No operand is packed or
// transposed.
constexpr int kDMR = sv::kWidth >= 16 ? 4 : 2;
constexpr int kDNR = sv::kWidth / kDMR;  // 4x4 avx512, 2x4 avx2, 2x2 sse2

// One block's kWidth sums into out[r * kDNR + c]: a[r] and b[c] are the
// K-long rows of output (r, c), whose lane partials acc[r * kDNR + c]
// holds. Full vectors first, then one masked tail.
inline void dot_block(std::int64_t K, const float* const* a,
                      const float* const* b, float* out) {
  sv::VF acc[kDMR * kDNR];
  for (int x = 0; x < kDMR * kDNR; ++x) acc[x] = sv::vzero();
  auto step = [&](const sv::VF* av, const sv::VF* bv) {
    for (int c = 0; c < kDNR; ++c)
      for (int r = 0; r < kDMR; ++r)
        acc[r * kDNR + c] = sv::vfma(av[r], bv[c], acc[r * kDNR + c]);
  };
  sv::VF av[kDMR], bv[kDNR];
  std::int64_t k = 0;
  for (; k + sv::kWidth <= K; k += sv::kWidth) {
    for (int r = 0; r < kDMR; ++r) av[r] = sv::vloadu(a[r] + k);
    for (int c = 0; c < kDNR; ++c) bv[c] = sv::vloadu(b[c] + k);
    step(av, bv);
  }
  if (k < K) {
    const int n = static_cast<int>(K - k);
    for (int r = 0; r < kDMR; ++r) av[r] = sv::vload_partial(a[r] + k, n);
    for (int c = 0; c < kDNR; ++c) bv[c] = sv::vload_partial(b[c] + k, n);
    step(av, bv);
  }
  sv::vstoreu(out, sv::vfold_block(acc));
}

// C = alpha * A·Bᵀ + beta * C (then the epilogue) with A (M,K) and B
// (N,K). Blocks past the last row of A or B repeat that row and drop its
// outputs, so each output runs the same instructions wherever it sits; a
// column block's outputs depend on nothing else, so splitting the column
// blocks over the pool leaves the bits as they are.
void gemm_dot_nt(std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
                 const float* A, const float* B, float beta, float* C,
                 const Epilogue& ep) {
  const std::int64_t mblocks = (M + kDMR - 1) / kDMR;
  const std::int64_t nblocks = (N + kDNR - 1) / kDNR;
  const std::int64_t block_flops = mblocks * kDMR * kDNR * K;
  parallel_for(
      nblocks,
      [&](std::int64_t s0, std::int64_t s1) {
        alignas(64) float sums[kDMR * kDNR];
        const float* a[kDMR];
        const float* b[kDNR];
        for (std::int64_t s = s0; s < s1; ++s) {
          const std::int64_t j = s * kDNR;
          const int nr = static_cast<int>(std::min<std::int64_t>(kDNR, N - j));
          for (int c = 0; c < kDNR; ++c)
            b[c] = B + std::min<std::int64_t>(j + c, N - 1) * K;
          for (std::int64_t i = 0; i < M; i += kDMR) {
            const int mr =
                static_cast<int>(std::min<std::int64_t>(kDMR, M - i));
            for (int r = 0; r < kDMR; ++r)
              a[r] = A + std::min<std::int64_t>(i + r, M - 1) * K;
            dot_block(K, a, b, sums);
            if (alpha != 1.0f)
              for (float& v : sums) v *= alpha;
            write_tile<kDMR, kDNR>(sums, C + i * N + j, N, mr, nr, beta,
                                   tile_ep(ep, i, j));
          }
        }
      },
      /*grain=*/std::max<std::int64_t>(1, kSmallFlops / block_flops));
}

#endif  // MFN_SIMD_HAS_VECTOR

// Short-M products (conv3d's F x L GEMMs: a handful of row panels over a
// wide N) reuse a packed B panel so little that packing costs more than it
// saves. Read B in place instead; the whole K-extent stays in the register
// accumulator, so no k-blocking and no beta bookkeeping either. Keeps the
// standard register tile: taller/narrower variants measured slower here
// (the compiler spills the accumulator once the row count exceeds kMR).
constexpr int kSMR = kMR;
constexpr int kSNR = kNR;

void gemm_short_m(std::int64_t M, std::int64_t N, std::int64_t K, float alpha,
                  const float* A, StrideA sa, const float* B, float beta,
                  float* C, const Epilogue& ep, Workspace* ws) {
  const Workspace::Mark m = ws->mark();
  const std::int64_t panels = (M + kSMR - 1) / kSMR;
  float* Ap = ws->alloc(static_cast<std::size_t>(panels * K * kSMR));
  pack_a<kSMR>(A, sa, 0, M, 0, K, alpha, Ap);
  parallel_for(
      (N + kSNR - 1) / kSNR,
      [&](std::int64_t s0, std::int64_t s1) {
        for (std::int64_t s = s0; s < s1; ++s) {
          const std::int64_t j = s * kSNR;
          const int nr =
              static_cast<int>(std::min<std::int64_t>(kSNR, N - j));
          for (std::int64_t p = 0; p < panels; ++p) {
            const int mr = static_cast<int>(
                std::min<std::int64_t>(kSMR, M - p * kSMR));
            micro_kernel_direct_b<kSMR, kSNR>(K, Ap + p * K * kSMR, B + j, N,
                                              C + p * kSMR * N + j, N, mr,
                                              nr, beta,
                                              tile_ep(ep, p * kSMR, j));
          }
        }
      },
      /*grain=*/8);
  ws->release(m);
}

void sgemm_impl(Trans transa, Trans transb, std::int64_t M, std::int64_t N,
                std::int64_t K, float alpha, const float* A, const float* B,
                float beta, float* C, const Epilogue& ep, Workspace* ws) {
  MFN_CHECK(M >= 0 && N >= 0 && K >= 0, "sgemm negative dims");
  if (M == 0 || N == 0) return;
  const StrideA sa = strides_a(transa, M, K);
  if (K == 0 || alpha == 0.0f) {
    scale_c(C, M, N, beta);
    apply_epilogue(C, M, N, ep);
    return;
  }
#if MFN_SIMD_HAS_VECTOR
  // Short M: conv3d's weight gradients on every tier. Small products: the
  // same gradients where F exceeds 2 * kMR on the narrower tiers (the
  // small_default U-Net's F = 16 and 32 convs on avx2 and sse2), which
  // would otherwise run small_gemm's serial-k chain.
  if (transa == Trans::kNo && transb == Trans::kYes && K >= simd::kWidth &&
      (M <= 2 * kMR || M * N * K <= kSmallFlops) && simd::enabled()) {
    gemm_dot_nt(M, N, K, alpha, A, B, beta, C, ep);
    return;
  }
#endif
  if (M * N * K <= kSmallFlops) {
    small_gemm(sa, transb, M, N, K, alpha, A, B, beta, C, ep);
    return;
  }
  if (N <= 4 || M <= 2) {
    // Vector-like shapes gain nothing from packing, but a skinny-N product
    // with many rows (e.g. the decoder's output layer: thousands of query
    // points onto a handful of fields) still wants row parallelism.
    const std::int64_t grain =
        std::max<std::int64_t>(1, kSmallFlops / std::max<std::int64_t>(
                                                    N * K, 1));
    parallel_for(
        M,
        [&](std::int64_t i0, std::int64_t i1) {
          Epilogue eps = ep;
          if (eps.row_bias != nullptr) eps.row_bias += i0;
          if (eps.row_scale != nullptr) eps.row_scale += i0;
          small_gemm(sa, transb, i1 - i0, N, K, alpha, A + i0 * sa.rs, B,
                     beta, C + i0 * N, eps);
        },
        grain);
    return;
  }

  const StrideA sb = strides_b(transb, K, N);
  if (ws == nullptr) ws = &local_workspace();

  if (transb == Trans::kNo && M <= 2 * kSMR) {
    gemm_short_m(M, N, K, alpha, A, sa, B, beta, C, ep, ws);
    return;
  }

  const Workspace::Mark outer = ws->mark();

  // Adaptive k-blocking: packed B is rebuilt once per k-block, so for
  // short-M products where the packed A block is tiny, stretch the k-block
  // to avoid paying the B-pack twice. Also absorb a small trailing
  // remainder into one block.
  std::int64_t kc_max = kKC;
  if (M <= 2 * kMC) kc_max = 2 * kKC;
  if (K <= kc_max + kc_max / 2) kc_max = std::max<std::int64_t>(K, 1);

  const std::int64_t nr_panels = (N + kNR - 1) / kNR;
  for (std::int64_t pc = 0; pc < K; pc += kc_max) {
    const std::int64_t kc = std::min<std::int64_t>(kc_max, K - pc);
    // beta applies once (first block); the bias epilogue fires once (last
    // block); intermediate blocks accumulate.
    const bool first = pc == 0;
    const bool last = pc + kc >= K;
    const float eff_beta = first ? beta : 1.0f;
    float* Bp = ws->alloc(static_cast<std::size_t>(nr_panels * kc * kNR));
    pack_b(B, sb, pc, kc, N, Bp);

    parallel_for_2d(
        M, N, kMC, kNC,
        [&](std::int64_t i0, std::int64_t i1, std::int64_t j0,
            std::int64_t j1) {
          // Runs on a pool worker or the caller: pack this M-block of A
          // into the executing thread's own arena.
          Workspace& wsl = local_workspace();
          const Workspace::Mark m = wsl.mark();
          const std::int64_t mc = i1 - i0;
          const std::int64_t ma_panels = (mc + kMR - 1) / kMR;
          float* Ap =
              wsl.alloc(static_cast<std::size_t>(ma_panels * kc * kMR));
          pack_a<kMR>(A, sa, i0, mc, pc, kc, alpha, Ap);
          for (std::int64_t j = j0; j < j1; j += kNR) {
            const float* bp = Bp + (j / kNR) * kc * kNR;
            const int nr = static_cast<int>(
                std::min<std::int64_t>(kNR, N - j));
            for (std::int64_t i = i0; i < i1; i += kMR) {
              const float* ap = Ap + ((i - i0) / kMR) * kc * kMR;
              const int mr = static_cast<int>(
                  std::min<std::int64_t>(kMR, M - i));
              micro_kernel(kc, ap, bp, C + i * N + j, N, mr, nr, eff_beta,
                           last ? tile_ep(ep, i, j) : TileEp{});
            }
          }
          wsl.release(m);
        });
    ws->release(outer);  // Bp for the next k-block reuses the same storage
  }
}

// Implicit-GEMM driver: same blocking as sgemm_impl, but op(B) panels are
// produced by the caller's pack callback instead of read from a dense
// matrix. Panels are packed privately per worker (one kc x NR sliver per
// thread, L1-resident) rather than shared per k-block — the whole point is
// that no K x N B matrix ever exists.
void sgemm_packed_b_impl(Trans transa, std::int64_t M, std::int64_t N,
                         std::int64_t K, float alpha, const float* A,
                         const PackBSource& bsrc, float beta, float* C,
                         const Epilogue& ep, Workspace* ws) {
  MFN_CHECK(M >= 0 && N >= 0 && K >= 0, "sgemm_packed_b negative dims");
  MFN_CHECK(bsrc.fn != nullptr, "sgemm_packed_b needs a pack callback");
  if (M == 0 || N == 0) return;
  const StrideA sa = strides_a(transa, M, K);
  if (K == 0 || alpha == 0.0f) {
    scale_c(C, M, N, beta);
    apply_epilogue(C, M, N, ep);
    return;
  }
  if (ws == nullptr) ws = &local_workspace();
  const Workspace::Mark outer = ws->mark();

  // Same adaptive k-blocking as the dense path; A is packed whole per
  // k-block (M is small for the conv consumers — the filter count).
  std::int64_t kc_max = kKC;
  if (M <= 2 * kMC) kc_max = 2 * kKC;
  if (K <= kc_max + kc_max / 2) kc_max = std::max<std::int64_t>(K, 1);

  const std::int64_t ma_panels = (M + kMR - 1) / kMR;
  const std::int64_t nb_panels = (N + kNR - 1) / kNR;
  for (std::int64_t pc = 0; pc < K; pc += kc_max) {
    const std::int64_t kc = std::min<std::int64_t>(kc_max, K - pc);
    const bool first = pc == 0;
    const bool last = pc + kc >= K;
    const float eff_beta = first ? beta : 1.0f;
    float* Ap = ws->alloc(static_cast<std::size_t>(ma_panels * kc * kMR));
    pack_a<kMR>(A, sa, 0, M, pc, kc, alpha, Ap);
    parallel_for(
        nb_panels,
        [&](std::int64_t s0, std::int64_t s1) {
          Workspace& wsl = local_workspace();
          const Workspace::Mark m = wsl.mark();
          float* Bp = wsl.alloc(static_cast<std::size_t>(kc * kNR));
          for (std::int64_t s = s0; s < s1; ++s) {
            const std::int64_t j = s * kNR;
            const int nr =
                static_cast<int>(std::min<std::int64_t>(kNR, N - j));
            bsrc.fn(bsrc.ctx, pc, kc, j, nr, kNR, Bp);
            for (std::int64_t i = 0; i < M; i += kMR) {
              const int mr = static_cast<int>(
                  std::min<std::int64_t>(kMR, M - i));
              micro_kernel(kc, Ap + (i / kMR) * kc * kMR, Bp, C + i * N + j,
                           N, mr, nr, eff_beta,
                           last ? tile_ep(ep, i, j) : TileEp{});
            }
          }
          wsl.release(m);
        },
        /*grain=*/1);
    ws->release(outer);
  }
}

// Strip driver: compute the product one NR-column strip at a time into a
// resident M x NR scratch and hand each strip to the sink. Serial over
// strips by contract (sinks scatter into overlapping destinations).
void sgemm_col_strips_impl(Trans transa, Trans transb, std::int64_t M,
                           std::int64_t N, std::int64_t K, float alpha,
                           const float* A, const float* B,
                           const StripSink& sink, Workspace* ws) {
  MFN_CHECK(M >= 0 && N >= 0 && K >= 0, "sgemm_col_strips negative dims");
  MFN_CHECK(sink.fn != nullptr, "sgemm_col_strips needs a sink");
  if (M == 0 || N == 0) return;
  if (ws == nullptr) ws = &local_workspace();
  const Workspace::Mark outer = ws->mark();
  float* strip = ws->alloc(static_cast<std::size_t>(M * kNR));
  if (K == 0 || alpha == 0.0f) {
    std::fill(strip, strip + M * kNR, 0.0f);
    for (std::int64_t j = 0; j < N; j += kNR) {
      const int nr = static_cast<int>(std::min<std::int64_t>(kNR, N - j));
      sink.fn(sink.ctx, j, nr, strip, kNR);
    }
    ws->release(outer);
    return;
  }
  const StrideA sa = strides_a(transa, M, K);
  const StrideA sb = strides_b(transb, K, N);
  const std::int64_t ma_panels = (M + kMR - 1) / kMR;
  // A packed whole (k-major within row panels), so k-blocks index into it.
  float* Ap = ws->alloc(static_cast<std::size_t>(ma_panels * K * kMR));
  pack_a<kMR>(A, sa, 0, M, 0, K, alpha, Ap);
  std::int64_t kc_max = 2 * kKC;
  if (K <= kc_max + kc_max / 2) kc_max = K;
  float* Bp = ws->alloc(
      static_cast<std::size_t>(std::min<std::int64_t>(kc_max, K) * kNR));
  for (std::int64_t j = 0; j < N; j += kNR) {
    const int nr = static_cast<int>(std::min<std::int64_t>(kNR, N - j));
    for (std::int64_t pc = 0; pc < K; pc += kc_max) {
      const std::int64_t kc = std::min<std::int64_t>(kc_max, K - pc);
      const float eff_beta = pc == 0 ? 0.0f : 1.0f;
      pack_b_panel(B, sb, pc, kc, j, nr, Bp);
      for (std::int64_t i = 0; i < M; i += kMR) {
        const int mr =
            static_cast<int>(std::min<std::int64_t>(kMR, M - i));
        micro_kernel(kc, Ap + (i / kMR) * K * kMR + pc * kMR, Bp,
                     strip + i * kNR, kNR, mr, nr, eff_beta, TileEp{});
      }
    }
    sink.fn(sink.ctx, j, nr, strip, kNR);
  }
  ws->release(outer);
}

}  // namespace

void sgemm(Trans transa, Trans transb, std::int64_t M, std::int64_t N,
           std::int64_t K, float alpha, const float* A, const float* B,
           float beta, float* C, Workspace* ws) {
  sgemm_impl(transa, transb, M, N, K, alpha, A, B, beta, C, Epilogue{}, ws);
}

void sgemm_bias_rows(Trans transa, Trans transb, std::int64_t M,
                     std::int64_t N, std::int64_t K, float alpha,
                     const float* A, const float* B, float beta,
                     const float* bias, float* C, Workspace* ws) {
  Epilogue ep;
  ep.row_bias = bias;
  sgemm_impl(transa, transb, M, N, K, alpha, A, B, beta, C, ep, ws);
}

void sgemm_bias_cols(Trans transa, Trans transb, std::int64_t M,
                     std::int64_t N, std::int64_t K, float alpha,
                     const float* A, const float* B, float beta,
                     const float* bias, float* C, Workspace* ws) {
  Epilogue ep;
  ep.col_bias = bias;
  sgemm_impl(transa, transb, M, N, K, alpha, A, B, beta, C, ep, ws);
}

namespace {

Epilogue to_internal(const SgemmEpilogue& ep) {
  Epilogue e;
  e.row_scale = ep.row_scale;
  e.row_bias = ep.row_bias;
  e.col_bias = ep.col_bias;
  e.relu = ep.act == Act::kRelu;
  return e;
}

}  // namespace

void sgemm_ep(Trans transa, Trans transb, std::int64_t M, std::int64_t N,
              std::int64_t K, float alpha, const float* A, const float* B,
              float beta, float* C, const SgemmEpilogue& ep, Workspace* ws) {
  sgemm_impl(transa, transb, M, N, K, alpha, A, B, beta, C, to_internal(ep),
             ws);
}

int sgemm_panel_width() { return kNR; }

std::int64_t sgemm_prepacked_max_k() { return kKC + kKC / 2; }

// --------------------------------------- reduced-precision tiers (impl) --
namespace {

// fp32 -> bf16 with round-to-nearest-even (the "+0x7FFF + odd bit" trick);
// bf16 -> fp32 is a lossless shift back into the high half.
inline std::uint16_t float_to_bf16(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  u += 0x7FFFu + ((u >> 16) & 1u);
  return static_cast<std::uint16_t>(u >> 16);
}

inline float bf16_to_float(std::uint16_t h) {
  const std::uint32_t u = static_cast<std::uint32_t>(h) << 16;
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

inline std::int64_t pad_even(std::int64_t k) { return (k + 1) & ~std::int64_t{1}; }

// Round |v| <= 127 to the nearest integer (ties to even) without touching
// the FP rounding mode: adding 1.5 * 2^23 lands in the ulp-1 range where
// the add itself performs the rounding. Auto-vectorizes cleanly, and —
// unlike lrintf — gives the same bits on every path.
inline float rne_small(float v) { return (v + 12582912.0f) - 12582912.0f; }

inline std::int32_t quantize_sym_i8(float x, float inv) {
  float v = x * inv;
  v = std::min(127.0f, std::max(-127.0f, v));
  return static_cast<std::int32_t>(rne_small(v));
}

// Lane-0 extraction of the vector activation: evaluating the shared
// simd::v_* polynomial on a broadcast register and reading one lane makes
// the scalar int8 path produce bit-identical activations to the vector
// epilogue within a build.
inline float lane0(simd::VF v) {
  float r;
  simd::vstore_partial(&r, v, 1);
  return r;
}

inline simd::VF fused_act_v(FusedAct act, simd::VF t) {
  switch (act) {
    case FusedAct::kRelu: return simd::vmax(t, simd::vzero());
    case FusedAct::kTanh: return simd::v_tanh(t);
    case FusedAct::kSoftplus: return simd::v_softplus(t);
    case FusedAct::kNone: break;
  }
  return t;
}

inline float fused_act_s(FusedAct act, float t) {
  if (act == FusedAct::kNone) return t;
  return lane0(fused_act_v(act, simd::vset1(t)));
}

// ---- bf16 ----

// Lockstep skinny-N kernel over the bf16 panel: the TN <= 4 serial-k
// fmaf chains run side by side over the k-major panel, widening B on the
// fly. Used by BOTH the scalar and vector drivers at N <= 4 (the
// decoder's output layer) — at these widths the lockstep walk beats a
// masked vector tile and keeps the two paths bitwise identical there.
template <int TN>
void skinny_bf16_cols(std::int64_t M, std::int64_t K, const float* A,
                      const std::uint16_t* Bp, const float* col_bias,
                      float* C) {
  for (std::int64_t i = 0; i < M; ++i) {
    const float* arow = A + i * K;
    float acc[TN];
    for (int j = 0; j < TN; ++j) acc[j] = 0.0f;
    const std::uint16_t* bp = Bp;
    for (std::int64_t k = 0; k < K; ++k, bp += kNR) {
      const float a = arow[k];
      for (int j = 0; j < TN; ++j)
        acc[j] = std::fmaf(a, bf16_to_float(bp[j]), acc[j]);
    }
    float* crow = C + i * TN;
    for (int j = 0; j < TN; ++j)
      crow[j] = col_bias ? acc[j] + col_bias[j] : acc[j];
  }
}

void skinny_bf16_dispatch(std::int64_t M, std::int64_t N, std::int64_t K,
                          const float* A, const std::uint16_t* Bp,
                          const float* col_bias, float* C) {
  switch (N) {
    case 1: skinny_bf16_cols<1>(M, K, A, Bp, col_bias, C); break;
    case 2: skinny_bf16_cols<2>(M, K, A, Bp, col_bias, C); break;
    case 3: skinny_bf16_cols<3>(M, K, A, Bp, col_bias, C); break;
    default: skinny_bf16_cols<4>(M, K, A, Bp, col_bias, C); break;
  }
}

// Scalar-oracle bf16 microkernel over packed A / bf16 B panels. fmaf pins
// each accumulation chain to the same per-lane order as the fused vector
// tiers (bitwise on avx512/avx2; sse2's unfused vfma differs by one
// rounding, covered by the parity tolerance).
void micro_kernel_bf16_scalar(std::int64_t kc, const float* ap,
                              const std::uint16_t* bp, float* c,
                              std::int64_t ldc, int mr, int nr, float beta,
                              const TileEp& ep) {
  float acc[kMR * kNR];
  for (int x = 0; x < kMR * kNR; ++x) acc[x] = 0.0f;
  for (std::int64_t k = 0; k < kc; ++k) {
    const float* a = ap + k * kMR;
    const std::uint16_t* b = bp + k * kNR;
    for (int i = 0; i < kMR; ++i) {
      const float ai = a[i];
      for (int j = 0; j < kNR; ++j)
        acc[i * kNR + j] = std::fmaf(ai, bf16_to_float(b[j]), acc[i * kNR + j]);
    }
  }
  write_tile<kMR, kNR>(acc, c, ldc, mr, nr, beta, ep);
}

#if MFN_SIMD_HAS_VECTOR

// fma_tile with the B loads widening bf16 panels — the only change from
// micro_kernel_simd is the loadb seam, so the accumulation order (and the
// register tiling) is identical to the fp32 kernel.
void micro_kernel_bf16_simd(std::int64_t kc, const float* ap,
                            const std::uint16_t* bp, float* c,
                            std::int64_t ldc, int mr, int nr, float beta,
                            const TileEp& ep) {
  alignas(64) float buf[kMR * kNR];
  fma_tile(kc, ap,
           [bp](std::int64_t k, sv::VF& b0, sv::VF& b1) {
             b0 = sv::vload_bf16(bp + k * kNR);
             b1 = sv::vload_bf16(bp + k * kNR + sv::kWidth);
           },
           buf);
  write_tile_simd(buf, c, ldc, mr, nr, beta, ep);
}

#endif  // MFN_SIMD_HAS_VECTOR

inline void micro_kernel_bf16(std::int64_t kc, const float* ap,
                              const std::uint16_t* bp, float* c,
                              std::int64_t ldc, int mr, int nr, float beta,
                              const TileEp& ep) {
#if MFN_SIMD_HAS_VECTOR
  if (simd::enabled()) {
    micro_kernel_bf16_simd(kc, ap, bp, c, ldc, mr, nr, beta, ep);
    return;
  }
#endif
  micro_kernel_bf16_scalar(kc, ap, bp, c, ldc, mr, nr, beta, ep);
}

// ---- int8 ----

// Scalar int8 kernel over the dense (N, K) weights. The integer dot is
// order-exact, and the dequant epilogue mirrors the vector path's float op
// order exactly (acc -> * row_scale -> * col_scale -> + bias -> act), so
// this path is bitwise identical to int8_rows_simd within a build.
void int8_rows_scalar(std::int64_t rows, std::int64_t N, std::int64_t K,
                      const std::int16_t* Aq, std::int64_t ldaq,
                      const float* row_scales, const std::int8_t* Wdense,
                      const float* col_scales, const float* col_bias,
                      FusedAct act, float* C) {
  for (std::int64_t i = 0; i < rows; ++i) {
    const std::int16_t* aq = Aq + i * ldaq;
    const float sa = row_scales[i];
    float* crow = C + i * N;
    for (std::int64_t j = 0; j < N; ++j) {
      const std::int8_t* w = Wdense + j * K;
      std::int32_t acc = 0;
      for (std::int64_t k = 0; k < K; ++k)
        acc += static_cast<std::int32_t>(aq[k]) *
               static_cast<std::int32_t>(w[k]);
      float t = static_cast<float>(acc) * sa;
      t = t * col_scales[j];
      if (col_bias != nullptr) t = t + col_bias[j];
      crow[j] = fused_act_s(act, t);
    }
  }
}

#if MFN_SIMD_HAS_VECTOR

// Rows per accumulator group in the vector int8 kernel: 6 rows x 2 panel
// vectors = 12 independent int32 accumulator chains, enough to cover the
// dpwssd latency x throughput product (~5 cycles x 2/cycle) that a 4-row
// tile's 8 chains leave ~20% idle.
constexpr std::int64_t kI8Rows = 6;
// Row block: keep the active Aq slice L2-resident while sweeping the
// column panels, instead of re-streaming all of Aq once per panel.
constexpr std::int64_t kI8RowBlock = 512;

// Vector int8 kernel: rows in groups of kI8Rows, each holding a
// kI8Rows x kNR int32 accumulator tile in named VI registers. Per k-pair,
// one full-register pmaddwd against each of the two panel vectors, with
// the A pair broadcast to every lane. The pair-interleaved panel layout
// puts column c's two k values in one int32 lane, so pmaddwd *is* the
// two-step dot product. Accumulation is exact int32, so neither the group
// height nor the block order can perturb the result.
void int8_rows_simd(std::int64_t rows, std::int64_t N, std::int64_t K,
                    const std::int16_t* Aq, std::int64_t ldaq,
                    const float* row_scales, const std::int16_t* Bp,
                    const float* col_scales, const float* col_bias,
                    FusedAct act, float* C) {
  const std::int64_t kpad = pad_even(K);
  const std::int64_t npairs = kpad / 2;
  constexpr int W = sv::kWidth;
  for (std::int64_t ib = 0; ib < rows; ib += kI8RowBlock) {
  const std::int64_t iend = std::min(rows, ib + kI8RowBlock);
  for (std::int64_t j0 = 0; j0 < N; j0 += kNR) {
    const std::int16_t* panel = Bp + (j0 / kNR) * kpad * kNR;
    const int ncols = static_cast<int>(std::min<std::int64_t>(kNR, N - j0));
    const int lanes0 = std::min(ncols, W);
    const int lanes1 = ncols - W;  // <= 0 when the tile fits one register
    for (std::int64_t i = ib; i < iend; i += kI8Rows) {
      const std::int64_t nr_rows = std::min<std::int64_t>(kI8Rows, iend - i);
      // Clamp the absent rows of a short group onto row i: their madds are
      // computed and discarded (the epilogue skips r >= nr_rows), which is
      // cheaper than a per-row branch in the hot loop.
      const std::int16_t* a0 = Aq + i * ldaq;
      const std::int16_t* a1 = Aq + (i + (nr_rows > 1 ? 1 : 0)) * ldaq;
      const std::int16_t* a2 = Aq + (i + (nr_rows > 2 ? 2 : 0)) * ldaq;
      const std::int16_t* a3 = Aq + (i + (nr_rows > 3 ? 3 : 0)) * ldaq;
      const std::int16_t* a4 = Aq + (i + (nr_rows > 4 ? 4 : 0)) * ldaq;
      const std::int16_t* a5 = Aq + (i + (nr_rows > 5 ? 5 : 0)) * ldaq;
      sv::VI c00 = sv::vi_set1(0), c01 = sv::vi_set1(0),
             c10 = sv::vi_set1(0), c11 = sv::vi_set1(0),
             c20 = sv::vi_set1(0), c21 = sv::vi_set1(0),
             c30 = sv::vi_set1(0), c31 = sv::vi_set1(0),
             c40 = sv::vi_set1(0), c41 = sv::vi_set1(0),
             c50 = sv::vi_set1(0), c51 = sv::vi_set1(0);
      for (std::int64_t pp = 0; pp < npairs; ++pp) {
        const std::int16_t* prow = panel + pp * 2 * kNR;
        const sv::VI b0 = sv::vi_load16(prow);
        const sv::VI b1 = sv::vi_load16(prow + 2 * W);
        std::int32_t pairbits;
        std::memcpy(&pairbits, a0 + 2 * pp, sizeof(pairbits));
        sv::VI av = sv::vi_set1(pairbits);
        c00 = sv::vi_madd16_acc(c00, av, b0);
        c01 = sv::vi_madd16_acc(c01, av, b1);
        std::memcpy(&pairbits, a1 + 2 * pp, sizeof(pairbits));
        av = sv::vi_set1(pairbits);
        c10 = sv::vi_madd16_acc(c10, av, b0);
        c11 = sv::vi_madd16_acc(c11, av, b1);
        std::memcpy(&pairbits, a2 + 2 * pp, sizeof(pairbits));
        av = sv::vi_set1(pairbits);
        c20 = sv::vi_madd16_acc(c20, av, b0);
        c21 = sv::vi_madd16_acc(c21, av, b1);
        std::memcpy(&pairbits, a3 + 2 * pp, sizeof(pairbits));
        av = sv::vi_set1(pairbits);
        c30 = sv::vi_madd16_acc(c30, av, b0);
        c31 = sv::vi_madd16_acc(c31, av, b1);
        std::memcpy(&pairbits, a4 + 2 * pp, sizeof(pairbits));
        av = sv::vi_set1(pairbits);
        c40 = sv::vi_madd16_acc(c40, av, b0);
        c41 = sv::vi_madd16_acc(c41, av, b1);
        std::memcpy(&pairbits, a5 + 2 * pp, sizeof(pairbits));
        av = sv::vi_set1(pairbits);
        c50 = sv::vi_madd16_acc(c50, av, b0);
        c51 = sv::vi_madd16_acc(c51, av, b1);
      }
      // Dequant + bias + activation writeback. Outside the hot loop, so a
      // small local array (one spill) is fine here.
      const sv::VI acc[kI8Rows][2] = {{c00, c01}, {c10, c11}, {c20, c21},
                                      {c30, c31}, {c40, c41}, {c50, c51}};
      for (std::int64_t r = 0; r < nr_rows; ++r) {
        const sv::VF sa = sv::vset1(row_scales[i + r]);
        float* crow = C + (i + r) * N + j0;
        {
          sv::VF t = sv::vmul(sv::vcvtf(acc[r][0]), sa);
          const sv::VF sb = lanes0 >= W
                                ? sv::vloadu(col_scales + j0)
                                : sv::vload_partial(col_scales + j0, lanes0);
          t = sv::vmul(t, sb);
          if (col_bias != nullptr) {
            const sv::VF bb =
                lanes0 >= W ? sv::vloadu(col_bias + j0)
                            : sv::vload_partial(col_bias + j0, lanes0);
            t = sv::vadd(t, bb);
          }
          t = fused_act_v(act, t);
          if (lanes0 >= W) {
            sv::vstoreu(crow, t);
          } else {
            sv::vstore_partial(crow, t, lanes0);
          }
        }
        if (lanes1 > 0) {
          sv::VF t = sv::vmul(sv::vcvtf(acc[r][1]), sa);
          const sv::VF sb =
              lanes1 >= W
                  ? sv::vloadu(col_scales + j0 + W)
                  : sv::vload_partial(col_scales + j0 + W, lanes1);
          t = sv::vmul(t, sb);
          if (col_bias != nullptr) {
            const sv::VF bb =
                lanes1 >= W
                    ? sv::vloadu(col_bias + j0 + W)
                    : sv::vload_partial(col_bias + j0 + W, lanes1);
            t = sv::vadd(t, bb);
          }
          t = fused_act_v(act, t);
          if (lanes1 >= W) {
            sv::vstoreu(crow + W, t);
          } else {
            sv::vstore_partial(crow + W, t, lanes1);
          }
        }
      }
    }
  }
  }
}

#endif  // MFN_SIMD_HAS_VECTOR

}  // namespace

std::size_t sgemm_prepack_b_bf16_elems(std::int64_t K, std::int64_t N) {
  const std::int64_t npanels = (N + kNR - 1) / kNR;
  return static_cast<std::size_t>(npanels * K * kNR);
}

void sgemm_prepack_b_bf16(Trans transb, std::int64_t K, std::int64_t N,
                          const float* B, std::uint16_t* Bp) {
  MFN_CHECK(K >= 1 && K <= sgemm_prepacked_max_k() && N >= 1,
            "sgemm_prepack_b_bf16 operand outside panel range");
  const StrideA sb = strides_b(transb, K, N);
  const std::int64_t npanels = (N + kNR - 1) / kNR;
  for (std::int64_t p = 0; p < npanels; ++p) {
    const std::int64_t j0 = p * kNR;
    const std::int64_t cols = std::min<std::int64_t>(kNR, N - j0);
    std::uint16_t* dst = Bp + p * K * kNR;
    for (std::int64_t k = 0; k < K; ++k) {
      const float* src = B + k * sb.rs + j0 * sb.cs;
      for (std::int64_t c = 0; c < cols; ++c)
        dst[k * kNR + c] = float_to_bf16(src[c * sb.cs]);
      for (std::int64_t c = cols; c < kNR; ++c) dst[k * kNR + c] = 0;
    }
  }
}

void sgemm_bf16_prepacked_nt(std::int64_t M, std::int64_t N, std::int64_t K,
                             const float* A, const std::uint16_t* Bp,
                             const float* col_bias, float* C) {
  MFN_CHECK(M >= 0 && N >= 0, "sgemm_bf16_prepacked_nt negative dims");
  MFN_CHECK(K >= 1 && K <= sgemm_prepacked_max_k(),
            "sgemm_bf16_prepacked_nt K outside single-block panel range");
  if (M == 0 || N == 0) return;
  const StrideA sa{K, 1};
  if (N <= 4) {
    const std::int64_t grain = std::max<std::int64_t>(
        1, kSmallFlops / std::max<std::int64_t>(N * K, 1));
    parallel_for(
        M,
        [&](std::int64_t i0, std::int64_t i1) {
          skinny_bf16_dispatch(i1 - i0, N, K, A + i0 * K, Bp, col_bias,
                               C + i0 * N);
        },
        grain);
    return;
  }
  Epilogue ep;
  ep.col_bias = col_bias;
  parallel_for_2d(
      M, N, kMC, kNC,
      [&](std::int64_t i0, std::int64_t i1, std::int64_t j0,
          std::int64_t j1) {
        Workspace& wsl = local_workspace();
        const Workspace::Mark m = wsl.mark();
        const std::int64_t mc = i1 - i0;
        const std::int64_t ma_panels = (mc + kMR - 1) / kMR;
        float* Ap = wsl.alloc(static_cast<std::size_t>(ma_panels * K * kMR));
        pack_a<kMR>(A, sa, i0, mc, 0, K, 1.0f, Ap);
        for (std::int64_t j = j0; j < j1; j += kNR) {
          const std::uint16_t* bp = Bp + (j / kNR) * K * kNR;
          const int nr =
              static_cast<int>(std::min<std::int64_t>(kNR, N - j));
          for (std::int64_t i = i0; i < i1; i += kMR) {
            const float* ap = Ap + ((i - i0) / kMR) * K * kMR;
            const int mr =
                static_cast<int>(std::min<std::int64_t>(kMR, M - i));
            micro_kernel_bf16(K, ap, bp, C + i * N + j, N, mr, nr, 0.0f,
                              tile_ep(ep, i, j));
          }
        }
        wsl.release(m);
      });
}

std::size_t sgemm_prepack_b_int8_elems(std::int64_t K, std::int64_t N) {
  const std::int64_t npanels = (N + kNR - 1) / kNR;
  return static_cast<std::size_t>(npanels * pad_even(K) * kNR);
}

void sgemm_prepack_b_int8(Trans transb, std::int64_t K, std::int64_t N,
                          const float* B, std::int16_t* Bp,
                          std::int8_t* Wdense, float* col_scales) {
  MFN_CHECK(K >= 1 && K <= sgemm_prepacked_max_k() && N >= 1,
            "sgemm_prepack_b_int8 operand outside panel range");
  const StrideA sb = strides_b(transb, K, N);
  const std::int64_t kpad = pad_even(K);
  // Per-output-column symmetric scales, then the dense int8 weights (the
  // scalar oracle's operand).
  for (std::int64_t j = 0; j < N; ++j) {
    float maxabs = 0.0f;
    for (std::int64_t k = 0; k < K; ++k)
      maxabs = std::max(maxabs, std::fabs(B[k * sb.rs + j * sb.cs]));
    col_scales[j] = maxabs / 127.0f;
    const float inv = maxabs > 0.0f ? 127.0f / maxabs : 0.0f;
    for (std::int64_t k = 0; k < K; ++k)
      Wdense[j * K + k] = static_cast<std::int8_t>(
          quantize_sym_i8(B[k * sb.rs + j * sb.cs], inv));
  }
  // Pair-interleaved panels from the dense weights: column c of panel p
  // keeps its k-pair (2pp, 2pp+1) in adjacent int16 slots so a full-width
  // pmaddwd computes both steps at once. Tail columns and the odd-K pad
  // row are zero.
  const std::int64_t npanels = (N + kNR - 1) / kNR;
  for (std::int64_t p = 0; p < npanels; ++p) {
    const std::int64_t j0 = p * kNR;
    const std::int64_t cols = std::min<std::int64_t>(kNR, N - j0);
    std::int16_t* dst = Bp + p * kpad * kNR;
    for (std::int64_t pp = 0; pp < kpad / 2; ++pp) {
      std::int16_t* row = dst + pp * 2 * kNR;
      for (std::int64_t c = 0; c < kNR; ++c) {
        const std::int64_t k0 = 2 * pp, k1 = 2 * pp + 1;
        row[c * 2 + 0] =
            c < cols ? static_cast<std::int16_t>(Wdense[(j0 + c) * K + k0])
                     : std::int16_t{0};
        row[c * 2 + 1] =
            (c < cols && k1 < K)
                ? static_cast<std::int16_t>(Wdense[(j0 + c) * K + k1])
                : std::int16_t{0};
      }
    }
  }
}

std::size_t quantize_rows_i16_elems(std::int64_t M, std::int64_t K) {
  return static_cast<std::size_t>(M * pad_even(K));
}

void quantize_rows_i16(std::int64_t M, std::int64_t K, const float* A,
                       std::int16_t* Aq, float* row_scales) {
  MFN_CHECK(M >= 0 && K >= 1, "quantize_rows_i16 bad dims");
  const std::int64_t kpad = pad_even(K);
  // Vectorized, yet bitwise reproducible across SIMD tiers, forced-scalar
  // builds, and thread counts: every per-element op below (fabs, mul by
  // the precomputed reciprocal, clamp, the rne_small add/sub pair, and
  // the truncating convert) is an exact IEEE-754 operation, and max is
  // order-exact, so the lanes of the vector path compute the identical
  // bits the scalar loop computes — there is nothing here for lane order
  // or tier width to perturb.
  namespace sv = simd;
  constexpr int W = sv::kWidth;
  const std::int64_t kvec = K - (K % W);
  const sv::VF vmagic = sv::vset1(12582912.0f);  // 1.5 * 2^23 (rne_small)
  const sv::VF vlo = sv::vset1(-127.0f), vhi = sv::vset1(127.0f);
  for (std::int64_t i = 0; i < M; ++i) {
    const float* arow = A + i * K;
    std::int16_t* qrow = Aq + i * kpad;
    float maxabs = 0.0f;
    if (kvec > 0) {
      sv::VF vm = sv::vzero();
      for (std::int64_t k = 0; k < kvec; k += W)
        vm = sv::vmax(vm, sv::vabs(sv::vloadu(arow + k)));
      maxabs = sv::vhmax(vm);
    }
    for (std::int64_t k = kvec; k < K; ++k)
      maxabs = std::max(maxabs, std::fabs(arow[k]));
    row_scales[i] = maxabs / 127.0f;
    const float inv = maxabs > 0.0f ? 127.0f / maxabs : 0.0f;
    const sv::VF vinv = sv::vset1(inv);
    for (std::int64_t k = 0; k < kvec; k += W) {
      sv::VF v = sv::vmul(sv::vloadu(arow + k), vinv);
      v = sv::vmin(vhi, sv::vmax(vlo, v));
      v = sv::vsub(sv::vadd(v, vmagic), vmagic);
      sv::vi_store16(qrow + k, sv::vcvtt(v));
    }
    for (std::int64_t k = kvec; k < K; ++k)
      qrow[k] = static_cast<std::int16_t>(quantize_sym_i8(arow[k], inv));
    if (kpad > K) qrow[K] = 0;
  }
}

void sgemm_int8_prepacked_nt(std::int64_t M, std::int64_t N, std::int64_t K,
                             const std::int16_t* Aq, const float* row_scales,
                             const std::int16_t* Bp,
                             const std::int8_t* Wdense,
                             const float* col_scales, const float* col_bias,
                             FusedAct act, float* C) {
  MFN_CHECK(M >= 0 && N >= 0, "sgemm_int8_prepacked_nt negative dims");
  MFN_CHECK(K >= 1 && K <= sgemm_prepacked_max_k(),
            "sgemm_int8_prepacked_nt K outside single-block panel range");
  if (M == 0 || N == 0) return;
  const std::int64_t ldaq = pad_even(K);
  const std::int64_t grain = std::max<std::int64_t>(
      1, kSmallFlops / std::max<std::int64_t>(N * K, 1));
  parallel_for(
      M,
      [&](std::int64_t i0, std::int64_t i1) {
#if MFN_SIMD_HAS_VECTOR
        if (simd::enabled()) {
          int8_rows_simd(i1 - i0, N, K, Aq + i0 * ldaq, ldaq,
                         row_scales + i0, Bp, col_scales, col_bias, act,
                         C + i0 * N);
          return;
        }
#endif
        int8_rows_scalar(i1 - i0, N, K, Aq + i0 * ldaq, ldaq,
                         row_scales + i0, Wdense, col_scales, col_bias, act,
                         C + i0 * N);
      },
      grain);
#if !MFN_SIMD_HAS_VECTOR
  (void)Bp;
#endif
}

void sgemm_packed_b(Trans transa, std::int64_t M, std::int64_t N,
                    std::int64_t K, float alpha, const float* A,
                    const PackBSource& bsrc, float beta, float* C,
                    const SgemmEpilogue& ep, Workspace* ws) {
  sgemm_packed_b_impl(transa, M, N, K, alpha, A, bsrc, beta, C,
                      to_internal(ep), ws);
}

void sgemm_col_strips(Trans transa, Trans transb, std::int64_t M,
                      std::int64_t N, std::int64_t K, float alpha,
                      const float* A, const float* B, const StripSink& sink,
                      Workspace* ws) {
  sgemm_col_strips_impl(transa, transb, M, N, K, alpha, A, B, sink, ws);
}

float* sgemm_pack_a_panels(std::int64_t M, std::int64_t K, float alpha,
                           const float* A, Trans transa, Workspace* ws) {
  MFN_CHECK(M >= 0 && K >= 0, "sgemm_pack_a_panels negative dims");
  if (ws == nullptr) ws = &local_workspace();
  const StrideA sa = strides_a(transa, M, K);
  const std::int64_t panels = (M + kMR - 1) / kMR;
  float* Ap = ws->alloc(static_cast<std::size_t>(panels * K * kMR));
  pack_a<kMR>(A, sa, 0, M, 0, K, alpha, Ap);
  return Ap;
}

void sgemm_browptr_tile(std::int64_t M, std::int64_t K, const float* Ap,
                        const float* const* brows, std::int64_t boff,
                        std::int64_t bdelta, int nr, float beta, float* C,
                        std::int64_t ldc, const SgemmEpilogue& ep) {
#if MFN_SIMD_HAS_VECTOR
  MFN_CHECK(simd::enabled(),
            "sgemm_browptr_tile requires the vector tier (callers route to "
            "sgemm_packed_b under the scalar override)");
  MFN_CHECK(nr >= 1 && nr <= kNR && ep.col_bias == nullptr,
            "sgemm_browptr_tile tile contract violated (nr " << nr << ")");
  const Epilogue e = to_internal(ep);
  alignas(64) float buf[kMR * kNR];
  for (std::int64_t i = 0; i < M; i += kMR) {
    const int mr = static_cast<int>(std::min<std::int64_t>(kMR, M - i));
    const float* ap = Ap + (i / kMR) * K * kMR;
    if (nr == kNR) {
      fma_tile(K, ap,
               [brows, boff, bdelta](std::int64_t k, sv::VF& b0, sv::VF& b1) {
                 const float* p = brows[k] + boff;
                 b0 = sv::vloadu(p);
                 b1 = sv::vloadu(p + bdelta);
               },
               buf);
    } else if (nr > sv::kWidth) {
      const int l1 = nr - sv::kWidth;
      fma_tile(K, ap,
               [brows, boff, bdelta, l1](std::int64_t k, sv::VF& b0,
                                         sv::VF& b1) {
                 const float* p = brows[k] + boff;
                 b0 = sv::vloadu(p);
                 b1 = sv::vload_partial(p + bdelta, l1);
               },
               buf);
    } else if (nr == sv::kWidth) {
      fma_tile(K, ap,
               [brows, boff](std::int64_t k, sv::VF& b0, sv::VF& b1) {
                 b0 = sv::vloadu(brows[k] + boff);
                 b1 = sv::vzero();
               },
               buf);
    } else {
      fma_tile(K, ap,
               [brows, boff, nr](std::int64_t k, sv::VF& b0, sv::VF& b1) {
                 b0 = sv::vload_partial(brows[k] + boff, nr);
                 b1 = sv::vzero();
               },
               buf);
    }
    write_tile_simd(buf, C + i * ldc, ldc, mr, nr, beta, tile_ep(e, i, 0));
  }
#else
  (void)M;
  (void)K;
  (void)Ap;
  (void)brows;
  (void)boff;
  (void)bdelta;
  (void)nr;
  (void)beta;
  (void)C;
  (void)ldc;
  (void)ep;
  MFN_CHECK(false, "sgemm_browptr_tile requires a vector SIMD tier build");
#endif
}

void sgemm_browptr_tile_rows(std::int64_t M, std::int64_t K, const float* Ap,
                             const float* const* brows, std::int64_t boff,
                             std::int64_t bdelta, int rowlen, int nrows,
                             float beta, float* C, std::int64_t ldc,
                             const SgemmEpilogue& ep) {
#if MFN_SIMD_HAS_VECTOR
  MFN_CHECK(simd::enabled(),
            "sgemm_browptr_tile_rows requires the vector tier (callers "
            "route to sgemm_packed_b under the scalar override)");
  MFN_CHECK(rowlen >= 1 && rowlen <= sv::kWidth && nrows >= 1 &&
                nrows <= 2 && ep.col_bias == nullptr,
            "sgemm_browptr_tile_rows tile contract violated (rowlen "
                << rowlen << ", nrows " << nrows << ")");
  const Epilogue e = to_internal(ep);
  alignas(64) float buf[kMR * kNR];
  for (std::int64_t i = 0; i < M; i += kMR) {
    const int mr = static_cast<int>(std::min<std::int64_t>(kMR, M - i));
    const float* ap = Ap + (i / kMR) * K * kMR;
    if (nrows == 2) {
      fma_tile(K, ap,
               [brows, boff, bdelta, rowlen](std::int64_t k, sv::VF& b0,
                                             sv::VF& b1) {
                 const float* p = brows[k] + boff;
                 b0 = sv::vload_partial(p, rowlen);
                 b1 = sv::vload_partial(p + bdelta, rowlen);
               },
               buf);
    } else {
      fma_tile(K, ap,
               [brows, boff, rowlen](std::int64_t k, sv::VF& b0,
                                     sv::VF& b1) {
                 b0 = sv::vload_partial(brows[k] + boff, rowlen);
                 b1 = sv::vzero();
               },
               buf);
    }
    // Store each accumulator vector's live rowlen lanes at its own output
    // row; rows are contiguous in C (row r starts at col r * rowlen).
    const TileEp te = tile_ep(e, i, 0);
    for (int r = 0; r < mr; ++r) {
      float* crow = C + (i + r) * ldc;
      const float rscale = te.rs ? te.rs[r] : 1.0f;
      const float rbias = te.rb ? te.rb[r] : 0.0f;
      for (int v = 0; v < nrows; ++v) {
        const float* acc = buf + r * kNR + v * sv::kWidth;
        float* dst = crow + v * rowlen;
        sv::VF t = sv::vload_partial(acc, rowlen);
        if (beta != 0.0f)
          t = sv::vfma(sv::vset1(beta), sv::vload_partial(dst, rowlen), t);
        if (te.rs != nullptr) t = sv::vmul(t, sv::vset1(rscale));
        if (te.rb != nullptr) t = sv::vadd(t, sv::vset1(rbias));
        if (te.relu) t = sv::vmax(t, sv::vzero());
        sv::vstore_partial(dst, t, rowlen);
      }
    }
  }
#else
  (void)M;
  (void)K;
  (void)Ap;
  (void)brows;
  (void)boff;
  (void)bdelta;
  (void)rowlen;
  (void)nrows;
  (void)beta;
  (void)C;
  (void)ldc;
  (void)ep;
  MFN_CHECK(false,
            "sgemm_browptr_tile_rows requires a vector SIMD tier build");
#endif
}

}  // namespace mfn::backend
