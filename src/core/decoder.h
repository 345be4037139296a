// Continuous Decoding Network (paper Sec. 4.2, Fig. 4).
//
// For a query point x inside the latent context grid, the decoder runs a
// shared MLP on (relative coordinates, latent vector) for each of the 8
// bounding cell corners and blends the 8 outputs with trilinear weights:
//
//     C(x) = sum_j w_j(x) * Phi( (x - x_j) / dx, c_j )
//
// decode() runs that as one fused tape node (core/decode_jet.h). Because
// Phi is smooth (softplus), the spatio-temporal derivatives of the output
// needed by the PDE equation loss are computed *exactly* by forward-mode
// propagation of (value, tangent, curvature) jets through the MLP.
// decode_with_derivatives() runs that propagation as one fused tape node
// of the same kernel, whose hand-written backward yields the latent and
// parameter gradients of the equation loss (the paper's "backpropagation
// through the derivative computation").
//
// Derivative conventions: query coordinates are continuous LR-grid indices
// (t, z, x); all derivatives returned here are per index unit. Conversion
// to physical units (divide by the LR cell size) happens in the equation
// loss.
#pragma once

#include <memory>
#include <vector>

#include "autodiff/ops.h"
#include "nn/mlp.h"
#include "nn/module.h"

namespace mfn::core {

struct DecoderConfig {
  std::int64_t latent_channels = 32;
  std::int64_t out_channels = 4;  // {p, T, u, w}
  std::vector<std::int64_t> hidden = {64, 64};
  /// Must be smooth for non-zero second derivatives; see DESIGN.md on the
  /// softplus-for-ReLU substitution.
  nn::Activation activation = nn::Activation::kSoftplus;
};

/// Value + first/second coordinate derivatives of the decoded field at the
/// query points, all (B, out_channels) and all in LR-index units. For
/// batched queries B = N*Q with sample-major rows (rows [s*Q, (s+1)*Q)
/// belong to latent sample s).
struct DecodeDerivs {
  ad::Var value;
  ad::Var d_dt, d_dz, d_dx;
  ad::Var d2_dz2, d2_dx2;
};

class ContinuousDecoder : public nn::Module {
 public:
  ContinuousDecoder(DecoderConfig config, Rng& rng);

  /// Decode values only. `latent` is (N, C, LT, LZ, LX); `query_coords` is
  /// either (B, 3) continuous indices into that grid (requires N == 1) or
  /// (N, Q, 3) with one query block per latent sample. Returns
  /// (B, out_channels) resp. (N*Q, out_channels) with sample-major rows.
  /// Runs the fused kernel's value pass over the MLP's current weights as
  /// one tape node with a hand-written backward (core/decode_jet.h), so a
  /// gamma = 0 training step records one decoder node. Under NoGradGuard
  /// the same pass records nothing, allocates only the output tensor and
  /// caches nothing; its values equal the recorded ones bit for bit.
  ad::Var decode(const ad::Var& latent, const Tensor& query_coords);

  /// Decode with forward-mode first and second coordinate derivatives.
  /// Accepts the same batched/unbatched query layouts as decode(). The
  /// bundle is one tape node (core/decode_jet.h) and the six members are
  /// row slices of its output.
  DecodeDerivs decode_with_derivatives(const ad::Var& latent,
                                       const Tensor& query_coords);

  const DecoderConfig& config() const { return config_; }
  nn::MLP& mlp() { return *mlp_; }

 private:
  /// Validates a decode's latent and query layouts and that every query
  /// coordinate is finite; returns the queries per latent sample.
  std::int64_t queries_per_sample(const ad::Var& latent,
                                  const Tensor& query_coords) const;

  DecoderConfig config_;
  std::unique_ptr<nn::MLP> mlp_;
};

}  // namespace mfn::core
