// Unified GEMM execution backend.
//
// Every dense matrix product in the library — the matmul/matmul_tn/
// matmul_nt family in tensor_ops, the conv3d im2col products, the linear/
// MLP layers — dispatches to the single sgemm() entry point below. This is
// the seam future backends (SIMD variants, GPU) slot into: consumers only
// ever see this contract.
//
// Contract:
//   C = alpha * op(A) * op(B) + beta * C
// with op(X) = X or X^T per the Trans flags. All matrices are dense,
// row-major, and contiguous:
//   op(A) is M x K  — A is stored (M,K) when transa == kNo, (K,M) when kYes
//   op(B) is K x N  — B is stored (K,N) when transb == kNo, (N,K) when kYes
//   C     is M x N
// beta == 0 treats C as uninitialized (it is fully overwritten, never read),
// so callers can pass fresh storage without zero-filling it first.
//
// Implementation: cache-blocked (MC/KC/NC) with alpha-scaled A panels and
// zero-padded B panels packed into a Workspace arena, and an MR x NR
// register-tiled microkernel. Work is tiled over (M, N) blocks through
// parallel_for_2d; each tile packs its A block into its thread-local
// workspace, so concurrent calls from pool workers are race-free and
// allocation-free in steady state. Nested calls (e.g. from inside a
// parallelized conv3d batch loop) automatically run serially.
#pragma once

#include <cstdint>

#include "backend/workspace.h"

namespace mfn::backend {

enum class Trans : std::uint8_t { kNo, kYes };

/// C(M,N) = alpha * op(A) * op(B) + beta * C. `ws` is the arena used for
/// the shared packed-B panels; defaults to the caller's thread-local
/// workspace. The arena is rewound before returning.
void sgemm(Trans transa, Trans transb, std::int64_t M, std::int64_t N,
           std::int64_t K, float alpha, const float* A, const float* B,
           float beta, float* C, Workspace* ws = nullptr);

/// sgemm with a fused per-row bias epilogue:
///   C(i,j) = alpha * (op(A) op(B))(i,j) + beta * C(i,j) + bias[i]
/// `bias` has M entries (broadcast along each row). conv3d uses this for
/// the per-filter bias without an extra pass over the output.
void sgemm_bias_rows(Trans transa, Trans transb, std::int64_t M,
                     std::int64_t N, std::int64_t K, float alpha,
                     const float* A, const float* B, float beta,
                     const float* bias, float* C, Workspace* ws = nullptr);

/// sgemm with a fused per-column bias epilogue:
///   C(i,j) = alpha * (op(A) op(B))(i,j) + beta * C(i,j) + bias[j]
/// `bias` has N entries (broadcast down each column). linear layers use
/// this for the per-feature bias.
void sgemm_bias_cols(Trans transa, Trans transb, std::int64_t M,
                     std::int64_t N, std::int64_t K, float alpha,
                     const float* A, const float* B, float beta,
                     const float* bias, float* C, Workspace* ws = nullptr);

// ------------------------------------------------------ fused epilogues --
// Generalized write-back applied to every completed C tile (on the final
// k-accumulation pass, so it fires exactly once per element):
//
//   t        = alpha * (op(A) op(B))(i,j) + beta * C(i,j)
//   C(i,j)   = act( row_scale[i] * t + row_bias[i] + col_bias[j] )
//
// Null pointers mean identity (scale 1 / bias 0). conv3d folds
// batchnorm(eval) into row_scale/row_bias and ReLU into `act`, so a
// conv -> BN -> activation block writes its output tensor exactly once
// instead of re-streaming it per op.

enum class Act : std::uint8_t { kNone, kRelu };

struct SgemmEpilogue {
  const float* row_scale = nullptr;  // M entries
  const float* row_bias = nullptr;   // M entries
  const float* col_bias = nullptr;   // N entries
  Act act = Act::kNone;
};

/// Dense GEMM with the fused epilogue above.
void sgemm_ep(Trans transa, Trans transb, std::int64_t M, std::int64_t N,
              std::int64_t K, float alpha, const float* A, const float* B,
              float beta, float* C, const SgemmEpilogue& ep,
              Workspace* ws = nullptr);

// ------------------------------------- reduced-precision prepacked tiers --
// Ahead-of-time weight prepack for serve-time decode plans, where the
// weights are frozen between hot-swaps: op(B) is packed ONCE into
// persistent NR-column k-major panels — the layout pack_b produces per
// call in the blocked sgemm path — in one of two lower-precision formats,
// and the entry points below run against those panels with zero per-call
// B packing:
//
//   bf16  — weights truncated (round-to-nearest-even) to bfloat16 panels,
//           widened back to fp32 on load, fp32 FMA accumulation. Halves
//           weight-panel bandwidth; per-weight relative error <= 2^-8.
//   int8  — per-output-column symmetric int8 weights (fp32 scale per
//           column, packed once), per-input-row dynamic symmetric int8
//           activations (quantized at replay time), exact int32
//           accumulation, fused dequant + bias + activation epilogue.
//
// Neither tier mirrors the fp32 small/skinny dense dispatch: there is no
// bitwise-vs-fp32 contract here, only the documented error bounds. Both
// are deterministic: for a fixed build and tier the result is bitwise
// reproducible across thread counts (per-row/-tile accumulation order is
// fixed), and the int8 tier is additionally bitwise identical between its
// SIMD and forced-scalar paths (integer accumulation is order-exact and
// the dequant epilogue mirrors the same float op order).

/// Largest K the prepacked panel layout supports: above this the dense
/// path would run multiple k-blocks, whose per-block panel stride differs
/// from the whole-K prepack. Plan compilers must refuse wider layers.
std::int64_t sgemm_prepacked_max_k();

/// Activation fused into the reduced-precision epilogues. kTanh/kSoftplus
/// evaluate the shared simd::v_* polynomials on both paths.
enum class FusedAct : std::uint8_t { kNone, kRelu, kTanh, kSoftplus };

/// uint16 elements required for the bf16 panel prepack of op(B) (K x N).
std::size_t sgemm_prepack_b_bf16_elems(std::int64_t K, std::int64_t N);

/// Pack op(B)[0:K, 0:N] into bf16 panels at `Bp` (the blocked path's
/// NR-column k-major panels, elements rounded to bf16 to nearest-even).
/// B is (K,N) when transb == kNo, (N,K) when kYes. Requires K in
/// [1, sgemm_prepacked_max_k()].
void sgemm_prepack_b_bf16(Trans transb, std::int64_t K, std::int64_t N,
                          const float* B, std::uint16_t* Bp);

/// C(M,N) = act-free A . op(B) + col_bias[j] against bf16 panels.
/// A is dense row-major (M, K); `col_bias` may be null.
void sgemm_bf16_prepacked_nt(std::int64_t M, std::int64_t N, std::int64_t K,
                             const float* A, const std::uint16_t* Bp,
                             const float* col_bias, float* C);

/// int16 elements required for the int8 pair-interleaved panel prepack of
/// op(B) (K x N). (Weights are int8-valued but stored widened to int16 so
/// the kernel's pmaddwd path needs no unpack.)
std::size_t sgemm_prepack_b_int8_elems(std::int64_t K, std::int64_t N);

/// Quantize op(B)[0:K, 0:N] to per-output-column symmetric int8:
///   col_scales[j] = max_k |B(k,j)| / 127,  q(k,j) = round(B(k,j)/scale).
/// Writes the pair-interleaved int16 panels to `Bp`
/// (sgemm_prepack_b_int8_elems elements), the dense (N, K) int8 weights to
/// `Wdense` (the scalar oracle path reads these), and the N fp32
/// dequantization scales to `col_scales`. Requires K in
/// [1, sgemm_prepacked_max_k()].
void sgemm_prepack_b_int8(Trans transb, std::int64_t K, std::int64_t N,
                          const float* B, std::int16_t* Bp,
                          std::int8_t* Wdense, float* col_scales);

/// int16 elements required for the quantized activation buffer of an
/// (M, K) activation matrix (rows padded to even K).
std::size_t quantize_rows_i16_elems(std::int64_t M, std::int64_t K);

/// Per-row dynamic symmetric quantization of A (M, K) for the int8 tier:
///   row_scales[i] = max_k |A(i,k)| / 127,  Aq(i,k) = round(A(i,k)/scale)
/// with round-to-nearest-even, stored widened to int16, rows padded to
/// even K with zeros (row stride = (K+1) & ~1). One shared scalar-order
/// implementation — the quantized activations are bitwise identical on
/// every execution path by construction.
void quantize_rows_i16(std::int64_t M, std::int64_t K, const float* A,
                       std::int16_t* Aq, float* row_scales);

/// C(M,N) = act( (Aq . Wq)(i,j) * row_scales[i] * col_scales[j] +
///               col_bias[j] )
/// against panels/weights from sgemm_prepack_b_int8 and activations from
/// quantize_rows_i16. int32 accumulation (exact at these K: |acc| <=
/// sgemm_prepacked_max_k() * 127^2 << 2^31). `col_bias` may be null.
void sgemm_int8_prepacked_nt(std::int64_t M, std::int64_t N, std::int64_t K,
                             const std::int16_t* Aq, const float* row_scales,
                             const std::int16_t* Bp,
                             const std::int8_t* Wdense,
                             const float* col_scales, const float* col_bias,
                             FusedAct act, float* C);

// ------------------------------------------------------- pack-B seam ----
// Implicit-GEMM support: instead of a dense B matrix, the caller supplies
// a callback that packs op(B)[k0:k0+kc, j0:j0+cols] straight into the
// backend's packed-panel layout. conv3d uses this to pack KCxNR slivers
// directly from the padded input volume — the CKxL im2col column matrix
// is never materialized.
//
// Contract for `fn`: dst is a kc x panel_width() sliver, k-major
// (dst[k * ldp + c] = op(B)(k0 + k, j0 + c) with ldp == panel width);
// columns in [cols, ldp) must be written 0 so ragged tails read as zero
// lanes in the microkernel.
struct PackBSource {
  void (*fn)(void* ctx, std::int64_t k0, std::int64_t kc, std::int64_t j0,
             int cols, int ldp, float* dst) = nullptr;
  void* ctx = nullptr;
};

/// Panel width (NR) of the compiled microkernel tier — the `ldp` every
/// PackBSource callback sees.
int sgemm_panel_width();

/// C(M,N) = alpha * op(A) * B + beta * C with B produced panel-by-panel by
/// `bsrc` (epilogue as in sgemm_ep). A is dense; each worker packs its B
/// panels into its own thread-local workspace, so the only B storage ever
/// live is one KCxNR sliver per thread.
void sgemm_packed_b(Trans transa, std::int64_t M, std::int64_t N,
                    std::int64_t K, float alpha, const float* A,
                    const PackBSource& bsrc, float beta, float* C,
                    const SgemmEpilogue& ep = {}, Workspace* ws = nullptr);

// ------------------------------------------------ row-pointer B tiles ---
// Zero-pack implicit GEMM for "same-geometry" convolutions: op(B) row k is
// a *shifted window* of a padded input volume, so instead of packing
// anything the microkernel loads B vectors straight from `brows[k] + boff`
// (first vector) and `brows[k] + boff + bdelta` (second vector). The
// caller guarantees every full-width load is in bounds (masked tails for
// ragged nr). Only meaningful on a vector SIMD tier with the runtime
// scalar override off — callers route to sgemm_packed_b otherwise.

/// Pack op(A) (M x K) whole, alpha-scaled, into kMR-row panels inside `ws`
/// (caller owns the surrounding mark). The returned buffer feeds
/// sgemm_browptr_tile across many column tiles — conv packs its weights
/// once per call, not once per sample.
float* sgemm_pack_a_panels(std::int64_t M, std::int64_t K, float alpha,
                           const float* A, Trans transa, Workspace* ws);

/// One column tile: C[0:M, 0:nr] (row-major, leading dimension ldc)
///   = act(row_scale * (Ap . B + beta * C) + row_bias)
/// with B(k, j) read from brows[k] + boff + (j < width ? j : bdelta + j -
/// width) — two vector spans per row. nr <= sgemm_panel_width();
/// ep.col_bias must be null. Requires a vector tier (see above).
void sgemm_browptr_tile(std::int64_t M, std::int64_t K, const float* Ap,
                        const float* const* brows, std::int64_t boff,
                        std::int64_t bdelta, int nr, float beta, float* C,
                        std::int64_t ldc, const SgemmEpilogue& ep = {});

/// Two-row variant for outputs narrower than the vector width (e.g. 8-wide
/// patch rows on a 16-lane tier): each of the (up to) two B vectors holds
/// one masked `rowlen`-lane output row — row r at brows[k] + boff +
/// r * bdelta — and the tile's nrows * rowlen columns are contiguous in C.
/// Trades (kWidth - rowlen) idle lanes per vector for zero packing.
void sgemm_browptr_tile_rows(std::int64_t M, std::int64_t K, const float* Ap,
                             const float* const* brows, std::int64_t boff,
                             std::int64_t bdelta, int rowlen, int nrows,
                             float beta, float* C, std::int64_t ldc,
                             const SgemmEpilogue& ep = {});

// ----------------------------------------------------- strip consumer ---
// Output seam for products whose result is scattered rather than stored:
// the GEMM runs in column strips of panel_width() and hands each finished
// strip to `fn` instead of writing a C matrix. conv3d_backward's dX path
// consumes strips with a fused col2vol scatter, so the CKxL dcol matrix is
// never materialized either. `strip` is M x panel_width() row-major
// (ld == panel_width()); only columns [0, cols) are meaningful.
struct StripSink {
  void (*fn)(void* ctx, std::int64_t j0, int cols, const float* strip,
             int ld) = nullptr;
  void* ctx = nullptr;
};

/// Compute alpha * op(A) * op(B) strip-by-strip into `sink`. Runs serially
/// over strips (consumers scatter into overlapping destinations; callers
/// parallelize at a higher level, e.g. over the conv batch).
void sgemm_col_strips(Trans transa, Trans transb, std::int64_t M,
                      std::int64_t N, std::int64_t K, float alpha,
                      const float* A, const float* B, const StripSink& sink,
                      Workspace* ws = nullptr);

}  // namespace mfn::backend
