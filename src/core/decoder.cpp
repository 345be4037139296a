#include "core/decoder.h"

#include <cmath>

#include <vector>

#include "common/error.h"
#include "core/decode_jet.h"

namespace mfn::core {

namespace ad = mfn::ad;

ContinuousDecoder::ContinuousDecoder(DecoderConfig config, Rng& rng)
    : config_(std::move(config)) {
  std::vector<std::int64_t> widths;
  widths.push_back(3 + config_.latent_channels);
  for (auto h : config_.hidden) widths.push_back(h);
  widths.push_back(config_.out_channels);
  mlp_ = std::make_unique<nn::MLP>(std::move(widths), rng,
                                   config_.activation);
  register_module("mlp", *mlp_);
}

std::int64_t ContinuousDecoder::queries_per_sample(
    const ad::Var& latent, const Tensor& query_coords) const {
  MFN_CHECK(latent.value().ndim() == 5 && latent.dim(0) >= 1,
            "latent grid must be (N, C, LT, LZ, LX)");
  MFN_CHECK(latent.dim(1) == config_.latent_channels,
            "latent channels " << latent.dim(1) << " vs config "
                               << config_.latent_channels);
  const std::int64_t N = latent.dim(0);
  std::int64_t Q = 0;
  if (query_coords.ndim() == 2) {
    MFN_CHECK(query_coords.dim(1) == 3, "query_coords must be (B, 3)");
    MFN_CHECK(N == 1,
              "2-D query_coords require a single-sample latent, got N="
                  << N << "; pass (N, Q, 3) coords for batched decode");
    Q = query_coords.dim(0);
  } else {
    MFN_CHECK(query_coords.ndim() == 3 && query_coords.dim(2) == 3,
              "query_coords must be (B, 3) or (N, Q, 3), got "
                  << query_coords.shape().str());
    MFN_CHECK(query_coords.dim(0) == N,
              "query batch " << query_coords.dim(0) << " vs latent batch "
                             << N);
    Q = query_coords.dim(1);
  }
  MFN_CHECK(latent.dim(2) >= 2 && latent.dim(3) >= 2 && latent.dim(4) >= 2,
            "latent grid too small for trilinear cells");
  // A NaN coordinate has no cell (flooring it to an index is undefined
  // behaviour) and an infinite one is no point of the grid.
  const float* pq = query_coords.data();
  for (std::int64_t i = 0; i < query_coords.numel(); ++i)
    MFN_CHECK(std::isfinite(pq[i]), "query coordinate "
                                        << pq[i] << " of query " << i / 3
                                        << " is not finite");
  return Q;
}

ad::Var ContinuousDecoder::decode(const ad::Var& latent,
                                  const Tensor& query_coords) {
  const std::int64_t q = queries_per_sample(latent, query_coords);
  return decode_value(latent, query_coords, q, *mlp_);
}

DecodeDerivs ContinuousDecoder::decode_with_derivatives(
    const ad::Var& latent, const Tensor& query_coords) {
  const std::int64_t q = queries_per_sample(latent, query_coords);
  const std::int64_t B = latent.dim(0) * q;
  // One fused node; the six members are row slices of its output.
  const ad::Var bundle = decode_jet(latent, query_coords, q, *mlp_);
  auto member = [&](std::int64_t m) {
    return ad::slice_rows(bundle, m * B, (m + 1) * B);
  };
  return DecodeDerivs{member(0), member(1), member(2),
                      member(3), member(4), member(5)};
}

}  // namespace mfn::core
