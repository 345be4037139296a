// The decoder's fused small-MLP kernel: the derivative bundle and the value
// pass, each as one tape node with a hand-written backward. It is the only
// decoder implementation; training, evaluation and serving all run it.
//
// The PDE equation loss needs, at every query point, the decoded value and
// its first (t, z, x) and second (zz, xx) coordinate derivatives. They are
// exact when a jet — the value, three tangents and two curvatures — is
// carried through the decoder MLP in forward mode and the 8 corner jets are
// blended with the trilinear weights and their coordinate derivatives.
//
// decode_jet() runs that computation as ONE autodiff node with a
// hand-written backward, on one fused small-MLP kernel. A tile is one
// query's 8 corner rows; it is gathered once and carried through every
// layer. Activations are row-major with the features in column panels of
// one or two SIMD vectors (up to 32 columns per panel on AVX-512, 16 on
// AVX2, 8 on SSE2, 2 on the scalar lanes), padded to whole panels, so
// every width runs the same kernel. Each layer product is a register tile
// of rows x streams x panel vectors that stays in registers over the whole
// input dimension, against a per-call weight panel small enough for L1:
//
//   gather      [coords | latent] rows (the latent copied channels-last
//               once per call) and the w / dw blend weights
//   layer 0     the value product only: the tangent of stream k is column
//               k of W0 and the curvatures are zero, so the seeds fold
//               into the write-back
//   layer l>0   one 6-stream product; bias and the jet activation
//               h = f(z), t = f' tau, c = f'' tau^2 + f' kappa are applied
//               in the write-back
//   blend       value = sum w h, d/dk = sum dw_k h + w t_k,
//               d2/dk2 = sum 2 dw_k t_k + w c_k over the last hidden jet
//   output      the linear output layer projects the six blended members
//               once per query, which equals blending 8 projected corners
//
// The forward saves nothing. The backward walks the same tiles: it
// regathers a tile and reruns its hidden layers, keeping every jet,
// pre-activation jet and activation derivative, then computes the output
// layer's weight gradient against the blended members and its input
// adjoint, the blend adjoint to every corner, and per hidden layer from
// the top the activation adjoint (fused into the write-back of the
// product that made its input adjoint), the weight-gradient partial and
// the input-gradient product:
//
//   zbar       = f' hbar + f'' (sum_k tau_k tbar_k + sum_m kappa_m cbar_m)
//                + f''' sum_m tau_m^2 cbar_m
//   taubar_k   = f' tbar_k  (+ 2 f'' tau_k cbar_k for k in {z, x})
//   kappabar_m = f' cbar_m
//
// where f', f'', f''' are taken at the pre-activation z. Layer 0's
// tangent-column gradients are row sums. Work is carved into fixed blocks
// of kBlockQueries queries. A block's weight gradients accumulate in
// query order, blocks are reduced in block order, and the latent gradient
// is summed per sample in query order, so every member and gradient is
// bit-identical at every MFN_NUM_THREADS. The backward takes the
// forward's lane type (vector or scalar).
//
// The value pass carries one stream through the same tile kernels,
// register tiles and blocks: each layer's product with bias and f(z) in
// the write-back, the blend of the last hidden layer's values, and one
// output projection per query. Its value equals the bundle's value member
// bit for bit on the vector lanes. decode_value() runs it as a tape node
// whose backward is the bundle's with one stream: per tile it reruns the
// hidden layers keeping f', takes the output layer's weight gradient
// against the blended last hidden value, the blend adjoint, zbar = f' hbar
// in the write-back, and each layer's weight-gradient partial and input
// gradient, on the same blocks and reductions, so its gradients are
// bit-identical at every MFN_NUM_THREADS too. ContinuousDecoder::decode
// runs decode_value() with or without a tape (gamma = 0 training and
// no-grad evaluation alike), the fp32 DecodePlan::execute (serving
// replay) runs jet::forward's value pass, and
// DecodePlan::execute_derivatives its six-member forward. Every query's
// result depends only on its coordinates, its latent sample and the
// weights, so how queries are batched never changes a bit.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "autodiff/variable.h"
#include "nn/mlp.h"
#include "tensor/tensor.h"

namespace mfn::core {

/// Clamp a query coordinate into the valid cell range of an axis with
/// `size` grid points and split it into (base corner, fraction). Double
/// precision, so every decode path derives bitwise identical corner rows
/// and blend weights from the same coordinate.
inline std::pair<std::int64_t, double> cellof(float v, std::int64_t size) {
  const double c = std::min(std::max(static_cast<double>(v), 0.0),
                            static_cast<double>(size - 1));
  auto base = static_cast<std::int64_t>(std::floor(c));
  base = std::min(base, size - 2);
  return {base, c - static_cast<double>(base)};
}

namespace jet {

/// Queries per work block. Blocks are carved from the global query range,
/// never from parallel_for chunks, which keeps every result independent of
/// the pool size.
inline constexpr std::int64_t kBlockQueries = 64;

/// One decoder MLP layer as the jet kernels read it.
struct Layer {
  std::int64_t in = 0, out = 0;
  const float* weight = nullptr;  // dense (out, in)
  const float* bias = nullptr;    // out entries, or null
};

/// The latent grid and query layout of one decode.
struct Grid {
  const float* latent = nullptr;  // (n, c, lt, lz, lx)
  std::int64_t n = 0, q = 0;      // latent samples, queries per sample
  std::int64_t c = 0, lt = 0, lz = 0, lx = 0;
};

/// Bundle members in output order.
enum Member : int { kValue, kDt, kDz, kDx, kDzz, kDxx, kMembers };

/// Forward decode of all n*q queries, no tape. `coords` holds (n*q, 3)
/// continuous grid indices; outs[m] receives member m as (n*q, out)
/// row-major. The member set is the non-null outs: with only
/// outs[kValue], the value pass runs; with any derivative, the six-member
/// jet runs and fills the non-null members.
void forward(const Grid& grid, const float* coords,
             const std::vector<Layer>& layers, nn::Activation act,
             const std::array<float*, kMembers>& outs);

/// The layers of `mlp`, reading its weights and biases in place.
std::vector<Layer> layers_of(const nn::MLP& mlp);

}  // namespace jet

/// The derivative-bundle tape node. Decodes `mlp` at the (n*q, 3) query
/// coordinates against `latent` (n, c, lt, lz, lx) and returns a
/// (6 * n*q, out) Var whose rows [m * n*q, (m+1) * n*q) hold member m of
/// (value, d/dt, d/dz, d/dx, d2/dz2, d2/dx2), all per LR index unit. Its
/// backward produces the gradients of the latent and of every MLP weight
/// and bias. Coordinates must be finite (the caller validates them).
ad::Var decode_jet(const ad::Var& latent, const Tensor& coords,
                   std::int64_t q, const nn::MLP& mlp);

/// The value-pass tape node: decode_jet's value member alone, as an
/// (n*q, out) Var, and its gradients. Under NoGradGuard, or when
/// no input requires a gradient, it records nothing and allocates only
/// the output tensor.
ad::Var decode_value(const ad::Var& latent, const Tensor& coords,
                     std::int64_t q, const nn::MLP& mlp);

}  // namespace mfn::core
