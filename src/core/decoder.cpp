#include "core/decoder.h"

#include <cmath>

#include <vector>

#include "common/error.h"
#include "core/decode_jet.h"
#include "threading/thread_pool.h"

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

namespace {

// Corner layout: corner-major — rows [j*B, (j+1)*B) of every (8B, ...)
// matrix belong to corner j, so per-corner blocks are contiguous
// slice_rows targets. Corner j has offsets (jt, jz, jx) = bits of j.
// Within a corner block rows are sample-major: row j*B + s*Q + q is
// query q of latent sample s (B = N*Q total queries).
struct CornerGeometry {
  Tensor inputs_coords;                 // (8B, 3) relative coords
  std::vector<ad::VoxelIndex> voxels;   // (8B) gather indices
  // trilinear weights, stacked corner-major like the MLP rows: entry
  // j*B + b is corner j of query b.
  Tensor w;  // (8B, 1)
};

CornerGeometry make_corners(const ad::Var& latent, const Tensor& query_coords,
                            std::int64_t Q) {
  const std::int64_t LT = latent.dim(2), LZ = latent.dim(3),
                     LX = latent.dim(4);
  const std::int64_t B = latent.dim(0) * Q;  // total (sample, query) pairs

  CornerGeometry geo;
  geo.inputs_coords = Tensor::uninitialized(Shape{8 * B, 3});
  geo.voxels.resize(static_cast<std::size_t>(8 * B));
  geo.w = Tensor::uninitialized(Shape{8 * B, 1});

  // Both layouts store query b of sample s contiguously at flat row
  // b = s*Q + q, so the fill reads q[b * 3 + k] either way. Each row is
  // independent — this sits on the query hot path, so fill in parallel.
  const float* q = query_coords.data();
  parallel_for(
      B,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t b = begin; b < end; ++b) {
          const std::int64_t n = b / Q;  // owning latent sample
          const auto [t0, ft] = cellof(q[b * 3 + 0], LT);
          const auto [z0, fz] = cellof(q[b * 3 + 1], LZ);
          const auto [x0, fx] = cellof(q[b * 3 + 2], LX);

          for (int j = 0; j < 8; ++j) {
            const int jt = (j >> 2) & 1, jz = (j >> 1) & 1, jx = j & 1;
            const std::int64_t row = static_cast<std::int64_t>(j) * B + b;
            // relative coordinate of the query w.r.t. this corner, cell
            // units
            geo.inputs_coords.data()[row * 3 + 0] =
                static_cast<float>(ft - jt);
            geo.inputs_coords.data()[row * 3 + 1] =
                static_cast<float>(fz - jz);
            geo.inputs_coords.data()[row * 3 + 2] =
                static_cast<float>(fx - jx);
            geo.voxels[static_cast<std::size_t>(row)] = {n, t0 + jt, z0 + jz,
                                                         x0 + jx};
            // per-axis hat weights
            const double wt = jt ? ft : 1.0 - ft;
            const double wz = jz ? fz : 1.0 - fz;
            const double wx = jx ? fx : 1.0 - fx;
            geo.w.data()[row] = static_cast<float>(wt * wz * wx);
          }
        }
      },
      /*grain=*/64);
  return geo;
}

}  // namespace

ad::Var ContinuousDecoder::decode(const ad::Var& latent,
                                  const Tensor& query_coords) {
  const std::int64_t q = queries_per_sample(latent, query_coords);

  if (ad::NoGradGuard::active()) {
    // No tape to record: the fused kernel's value pass over the MLP's own
    // weights, which optimizers update in place.
    const Tensor& lat = latent.value();
    Tensor out =
        Tensor::uninitialized(Shape{lat.dim(0) * q, config_.out_channels});
    jet::forward({lat.data(), lat.dim(0), q, lat.dim(1), lat.dim(2),
                  lat.dim(3), lat.dim(4)},
                 query_coords.data(), jet::layers_of(*mlp_),
                 mlp_->activation(), {out.data()});
    return ad::Var(std::move(out), /*requires_grad=*/false);
  }

  const CornerGeometry geo = make_corners(latent, query_coords, q);
  // fused [coords | gathered latents] rows, (8B, 3 + C)
  ad::Var h = ad::gather_voxels_concat(geo.inputs_coords, latent,
                                       geo.voxels);
  ad::Var y8 = mlp_->forward(h);  // (8B, out)
  return ad::blend_corners(y8, ad::Var(geo.w, /*requires_grad=*/false));
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
