#include "core/decoder.h"

#include <cmath>

#include <vector>

#include "backend/sgemm.h"
#include "common/error.h"
#include "core/decode_jet.h"
#include "tensor/tensor_ops.h"
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

// Corner layout: corner-major — rows [j*B, (j+1)*B) of every (8B, ...)
// matrix belong to corner j, so per-corner blocks are contiguous
// slice_rows targets. Corner j has offsets (jt, jz, jx) = bits of j.
// Within a corner block rows are sample-major: row j*B + s*Q + q is
// query q of latent sample s (B = N*Q total queries).
struct ContinuousDecoder::CornerGeometry {
  std::int64_t B = 0;
  Tensor inputs_coords;                 // (8B, 3) relative coords
  std::vector<ad::VoxelIndex> voxels;   // (8B) gather indices
  // trilinear weights, stacked corner-major like the MLP rows: entry
  // j*B + b is corner j of query b.
  Tensor w;  // (8B, 1)
};

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

ContinuousDecoder::CornerGeometry ContinuousDecoder::make_corners(
    const ad::Var& latent, const Tensor& query_coords) const {
  const std::int64_t Q = queries_per_sample(latent, query_coords);
  const std::int64_t LT = latent.dim(2), LZ = latent.dim(3),
                     LX = latent.dim(4);
  const std::int64_t B = latent.dim(0) * Q;  // total (sample, query) pairs

  CornerGeometry geo;
  geo.B = B;
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

ad::Var ContinuousDecoder::decode(const ad::Var& latent,
                                  const Tensor& query_coords) {
  CornerGeometry geo = make_corners(latent, query_coords);

  if (ad::NoGradGuard::active())
    return ad::Var(decode_streamed(latent.value(), geo),
                   /*requires_grad=*/false);

  // fused [coords | gathered latents] rows, (8B, 3 + C)
  ad::Var h = ad::gather_voxels_concat(geo.inputs_coords, latent,
                                       geo.voxels);
  ad::Var y8 = mlp_->forward(h);  // (8B, out)
  return ad::blend_corners(y8, ad::Var(geo.w, /*requires_grad=*/false));
}

Tensor ContinuousDecoder::decode_streamed(const Tensor& latent,
                                          const CornerGeometry& geo) const {
  const std::int64_t B = geo.B;
  const std::int64_t C = config_.latent_channels;
  const std::int64_t in0 = 3 + C;
  const std::int64_t out_ch = config_.out_channels;
  const std::int64_t D = latent.dim(2), H = latent.dim(3),
                     W = latent.dim(4);
  const std::int64_t slab = D * H * W;

  const auto& layers = mlp_->layers();
  std::int64_t wmax = in0;
  for (const auto& fc : layers)
    wmax = std::max(wmax, fc->out_features());

  Tensor out = Tensor::uninitialized(Shape{B, out_ch});
  const float* pl = latent.data();
  const float* pc = geo.inputs_coords.data();
  const float* pw = geo.w.data();
  float* po = out.data();

  // Fixed ~256-query sub-blocks keep a block's activations
  // (8 * 256 rows x wmax) inside L2 and bound the per-worker thread_local
  // scratch. The blocks are carved from the *global* [0, B) range (block i
  // is [i*256, (i+1)*256) regardless of which worker runs it), never from
  // parallel_for's chunk boundaries: chunking varies with MFN_NUM_THREADS,
  // and the serving layer pins decode output bit-identical across pool
  // sizes.
  constexpr std::int64_t kBlockQueries = 256;
  const std::int64_t nblocks = (B + kBlockQueries - 1) / kBlockQueries;
  parallel_for(
      nblocks,
      [&](std::int64_t blk0, std::int64_t blk1) {
        thread_local std::vector<float> buf_a, buf_b;
        buf_a.resize(static_cast<std::size_t>(8 * kBlockQueries * wmax));
        buf_b.resize(static_cast<std::size_t>(8 * kBlockQueries * wmax));

        for (std::int64_t blk = blk0; blk < blk1; ++blk) {
          const std::int64_t q0 = blk * kBlockQueries;
          const std::int64_t q1 = std::min(q0 + kBlockQueries, B);
          const std::int64_t nb = q1 - q0, rows = 8 * nb;
          float* cur = buf_a.data();
          float* nxt = buf_b.data();

          // assemble [coords | gathered latent] rows, corner-major
          // within the block
          for (int j = 0; j < 8; ++j)
            for (std::int64_t b = q0; b < q1; ++b) {
              const std::int64_t src = static_cast<std::int64_t>(j) * B + b;
              float* r = cur + (static_cast<std::int64_t>(j) * nb +
                                (b - q0)) * in0;
              r[0] = pc[src * 3 + 0];
              r[1] = pc[src * 3 + 1];
              r[2] = pc[src * 3 + 2];
              const auto [n, d, h, w] =
                  geo.voxels[static_cast<std::size_t>(src)];
              const std::int64_t base = n * C * slab + (d * H + h) * W + w;
              for (std::int64_t c = 0; c < C; ++c)
                r[3 + c] = pl[base + c * slab];
            }

          std::int64_t win = in0;
          for (std::size_t li = 0; li < layers.size(); ++li) {
            const nn::Linear& fc = *layers[li];
            const Tensor& wt = fc.weight().value();  // (wout, win)
            const std::int64_t wout = fc.out_features();
            if (fc.has_bias())
              backend::sgemm_bias_cols(backend::Trans::kNo,
                                       backend::Trans::kYes, rows, wout,
                                       win, 1.0f, cur, wt.data(), 0.0f,
                                       fc.bias().value().data(), nxt);
            else
              backend::sgemm(backend::Trans::kNo, backend::Trans::kYes,
                             rows, wout, win, 1.0f, cur, wt.data(), 0.0f,
                             nxt);
            if (li + 1 < layers.size()) {
              switch (mlp_->activation()) {
                case nn::Activation::kSoftplus:
                  softplus_inplace(nxt, rows * wout);
                  break;
                case nn::Activation::kTanh:
                  tanh_inplace(nxt, rows * wout);
                  break;
                case nn::Activation::kReLU:
                  relu_inplace(nxt, rows * wout);
                  break;
              }
            }
            std::swap(cur, nxt);
            win = wout;
          }

          // trilinear blend of the 8 corner rows into the output block
          for (std::int64_t b = q0; b < q1; ++b) {
            float* r = po + b * out_ch;
            for (std::int64_t c = 0; c < out_ch; ++c) r[c] = 0.0f;
            for (int j = 0; j < 8; ++j) {
              const float wj = pw[static_cast<std::int64_t>(j) * B + b];
              const float* y = cur + (static_cast<std::int64_t>(j) * nb +
                                      (b - q0)) * win;
              for (std::int64_t c = 0; c < out_ch; ++c) r[c] += wj * y[c];
            }
          }
        }
      },
      /*grain=*/1);
  return out;
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
