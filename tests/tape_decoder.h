// The continuous decoder composed from tape ops: the reference the fused
// decoder kernel (src/core/decode_jet.*) is tested against.
//
// Every query's 8 cell corners become rows [rel | latent] (the query's
// coordinates relative to the corner, then the corner's latent vector),
// the rows run through the MLP's own tape ops (nn::MLP::forward), and the
// 8 outputs are blended with the trilinear weights. Rows are corner-major:
// row j * B + b is corner j of query b, for B = n * q queries in
// sample-major order. Corner j has the offsets (jt, jz, jx) = bits of j.
// Geometry comes from core::cellof, as in the kernel, so both sides see
// bitwise the same corner rows and weights.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "autodiff/variable.h"
#include "common/error.h"
#include "core/decode_jet.h"
#include "nn/mlp.h"
#include "tensor/tensor.h"

namespace mfn::tape {

constexpr int kCorners = 8;

/// A latent voxel (n, t, z, x) of an (N, C, LT, LZ, LX) grid.
using VoxelIndex = std::array<std::int64_t, 4>;

/// Result row b is [coords[b] | grid[idx[b]]], of width coords.dim(1) + C.
/// `coords` is constant geometry; the backward scatter-adds the latent
/// columns into the grid's gradient.
inline ad::Var gather_voxels_concat(const Tensor& coords, const ad::Var& grid,
                                    const std::vector<VoxelIndex>& idx) {
  const std::int64_t N = grid.dim(0), C = grid.dim(1), D = grid.dim(2),
                     H = grid.dim(3), W = grid.dim(4);
  const std::int64_t K = coords.dim(1), width = K + C, slab = D * H * W;
  const auto B = static_cast<std::int64_t>(idx.size());
  MFN_CHECK(coords.dim(0) == B, "one coordinate row per index");
  Tensor out = Tensor::uninitialized(Shape{B, width});
  for (std::int64_t b = 0; b < B; ++b) {
    const auto [n, d, h, w] = idx[static_cast<std::size_t>(b)];
    MFN_CHECK(n >= 0 && n < N && d >= 0 && d < D && h >= 0 && h < H &&
                  w >= 0 && w < W,
              "voxel index out of range at row " << b);
    float* row = out.data() + b * width;
    for (std::int64_t k = 0; k < K; ++k) row[k] = coords.data()[b * K + k];
    const float* src =
        grid.value().data() + n * C * slab + (d * H + h) * W + w;
    for (std::int64_t c = 0; c < C; ++c) row[K + c] = src[c * slab];
  }
  auto backward = [idx, K, C, slab, H, W](ad::Node& node) {
    if (!node.parents[0]->requires_grad) return;
    float* g = node.parents[0]->ensure_grad().data();
    const float* go = node.grad.data();
    for (std::size_t b = 0; b < idx.size(); ++b) {
      const auto [n, d, h, w] = idx[b];
      float* dst = g + n * C * slab + (d * H + h) * W + w;
      const float* src = go + static_cast<std::int64_t>(b) * (K + C) + K;
      for (std::int64_t c = 0; c < C; ++c) dst[c * slab] += src[c];
    }
  };
  return ad::make_op(std::move(out), {grid}, backward);
}

/// The trilinear blend of corner-major rows: `mat` is (8B, C), `w` holds
/// 8B constant weights, and out(b, c) = sum over corners j, in order, of
/// w[j * B + b] * mat(j * B + b, c).
inline ad::Var blend_corners(const ad::Var& mat, const Tensor& w) {
  const std::int64_t B = mat.dim(0) / kCorners, C = mat.dim(1);
  MFN_CHECK(mat.dim(0) == kCorners * B && w.numel() == kCorners * B,
            "blend_corners expects (8B, C) rows and 8B weights");
  Tensor out = Tensor::uninitialized(Shape{B, C});
  const float* pm = mat.value().data();
  for (std::int64_t b = 0; b < B; ++b) {
    float* row = out.data() + b * C;
    for (std::int64_t c = 0; c < C; ++c) row[c] = w.data()[b] * pm[b * C + c];
    for (std::int64_t j = 1; j < kCorners; ++j) {
      const float wj = w.data()[j * B + b];
      const float* mj = pm + (j * B + b) * C;
      for (std::int64_t c = 0; c < C; ++c) row[c] += wj * mj[c];
    }
  }
  return ad::make_op(std::move(out), {mat}, [w, B, C](ad::Node& node) {
    if (!node.parents[0]->requires_grad) return;
    float* g = node.parents[0]->ensure_grad().data();
    for (std::int64_t j = 0; j < kCorners; ++j)
      for (std::int64_t b = 0; b < B; ++b) {
        const float wj = w.data()[j * B + b];
        for (std::int64_t c = 0; c < C; ++c)
          g[(j * B + b) * C + c] += wj * node.grad.data()[b * C + c];
      }
  });
}

/// The corner rows of n * q queries against an (n, C, lt, lz, lx) grid.
struct Corners {
  Tensor rel;                      // (8B, 3) coordinates, corner-relative
  std::vector<VoxelIndex> voxels;  // 8B latent voxels
  Tensor w;                        // 8B trilinear weights
  std::array<Tensor, 3> dw;        // their d/dt, d/dz, d/dx
};

/// `coords` holds n * q rows of 3 continuous grid indices (t, z, x).
inline Corners corners(const Tensor& coords, std::int64_t q, std::int64_t lt,
                       std::int64_t lz, std::int64_t lx) {
  const std::int64_t B = coords.numel() / 3;
  Corners g;
  g.rel = Tensor::uninitialized(Shape{kCorners * B, 3});
  g.voxels.resize(static_cast<std::size_t>(kCorners * B));
  g.w = Tensor::uninitialized(Shape{kCorners * B, 1});
  for (Tensor& t : g.dw) t = Tensor::uninitialized(Shape{kCorners * B, 1});
  for (std::int64_t b = 0; b < B; ++b) {
    const auto [t0, ft] = core::cellof(coords.data()[b * 3 + 0], lt);
    const auto [z0, fz] = core::cellof(coords.data()[b * 3 + 1], lz);
    const auto [x0, fx] = core::cellof(coords.data()[b * 3 + 2], lx);
    for (int j = 0; j < kCorners; ++j) {
      const int jt = (j >> 2) & 1, jz = (j >> 1) & 1, jx = j & 1;
      const std::int64_t row = j * B + b;
      g.rel.data()[row * 3 + 0] = static_cast<float>(ft - jt);
      g.rel.data()[row * 3 + 1] = static_cast<float>(fz - jz);
      g.rel.data()[row * 3 + 2] = static_cast<float>(fx - jx);
      g.voxels[static_cast<std::size_t>(row)] = {b / q, t0 + jt, z0 + jz,
                                                 x0 + jx};
      // per-axis hat weights; their coordinate derivatives are +-1 factors
      const double wt = jt ? ft : 1.0 - ft, wz = jz ? fz : 1.0 - fz,
                   wx = jx ? fx : 1.0 - fx;
      const double st = jt ? 1.0 : -1.0, sz = jz ? 1.0 : -1.0,
                   sx = jx ? 1.0 : -1.0;
      g.w.data()[row] = static_cast<float>(wt * wz * wx);
      g.dw[0].data()[row] = static_cast<float>(st * wz * wx);
      g.dw[1].data()[row] = static_cast<float>(wt * sz * wx);
      g.dw[2].data()[row] = static_cast<float>(wt * wz * sx);
    }
  }
  return g;
}

/// The value decode of `mlp` at n * q query coordinates against `latent`
/// (n, C, lt, lz, lx): (n * q, out), differentiable in the latent and in
/// every MLP weight and bias.
inline ad::Var decode(nn::MLP& mlp, const ad::Var& latent,
                      const Tensor& coords, std::int64_t q) {
  const Corners g =
      corners(coords, q, latent.dim(2), latent.dim(3), latent.dim(4));
  return blend_corners(
      mlp.forward(gather_voxels_concat(g.rel, latent, g.voxels)), g.w);
}

}  // namespace mfn::tape
