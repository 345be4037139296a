// Raw neural-network kernels on 5-D (N, C, D, H, W) tensors.
//
// In this library the three "spatial" axes of a volume are the space-time
// axes of the PDE problem: D = time, H = z, W = x. Forward and backward
// kernels are paired here; the autodiff layer wires them into the tape.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace mfn {

/// Integer triple for kernel/stride/padding/factor along (D, H, W).
using Dims3 = std::array<std::int64_t, 3>;

// ---------------------------------------------------------------- conv3d --
struct Conv3dSpec {
  Dims3 kernel{3, 3, 3};
  Dims3 stride{1, 1, 1};
  Dims3 padding{1, 1, 1};
};

/// Output (N, F, OD, OH, OW) for input (N, C, D, H, W) under `spec`.
Shape conv3d_output_shape(const Shape& input, const Shape& weight,
                          const Conv3dSpec& spec);

/// Fused per-filter write-back applied as the conv GEMM's epilogue:
///   y(f, l) = act( scale[f] * conv(f, l) + shift[f] )
/// scale/shift are (F) tensors (undefined = identity / zero). This is how
/// a conv -> batchnorm(eval) -> ReLU block collapses to one output pass:
/// scale = gamma * invstd, shift = beta - mean * scale, relu = true. A
/// plain bias is shift alone.
struct ConvEpilogue {
  Tensor scale;
  Tensor shift;
  bool relu = false;
};

/// Implicit-GEMM forward: y = act(scale * conv3d(x, w) + shift). KCxNR
/// slivers of the im2col operand are packed straight from the padded input
/// volume into the backend's panel format (backend::sgemm_packed_b), so no
/// CKxL column matrix is ever materialized. 1x1x1/stride-1/pad-0 convs
/// skip packing entirely (the column matrix *is* the input) and run a
/// dense GEMM over the sample slab. Parallelized over the batch with
/// per-worker workspace scratch.
Tensor conv3d_forward_fused(const Tensor& x, const Tensor& weight,
                            const Conv3dSpec& spec, const ConvEpilogue& ep);

/// y = conv3d(x, w) + b. `bias` may be undefined (no bias). Thin wrapper
/// over conv3d_forward_fused (bias is the shift term of the epilogue).
Tensor conv3d_forward(const Tensor& x, const Tensor& weight,
                      const Tensor& bias, const Conv3dSpec& spec);

struct Conv3dGrads {
  Tensor gx;      // (N, C, D, H, W)
  Tensor gweight; // (F, C, KD, KH, KW)
  Tensor gbias;   // (F); undefined when forward had no bias
};

/// Implicit-GEMM backward, batch-parallel with per-sample weight/bias
/// partials summed in sample order at the end, so the gradients are
/// bitwise identical at every pool size. dW packs the transposed column operand
/// straight from the volume; dX runs W^T x gy in NR-column strips
/// (backend::sgemm_col_strips) with a fused col2vol scatter per strip, so
/// neither the CKxL column matrix nor the dcol matrix exists. The bias
/// gradient row sums go through the vectorized reduction kernels.
Conv3dGrads conv3d_backward(const Tensor& x, const Tensor& weight,
                            bool had_bias, const Conv3dSpec& spec,
                            const Tensor& gy);

/// Seed (v0) serial-batch implementations with naive per-sample GEMM
/// loops. Kept solely as the comparison baseline for parity tests and the
/// bench_micro_ops perf trajectory; the model never calls these.
Tensor conv3d_forward_reference(const Tensor& x, const Tensor& weight,
                                const Tensor& bias, const Conv3dSpec& spec);
Conv3dGrads conv3d_backward_reference(const Tensor& x, const Tensor& weight,
                                      bool had_bias, const Conv3dSpec& spec,
                                      const Tensor& gy);

// -------------------------------------------------------------- maxpool --
struct MaxPool3dResult {
  Tensor out;
  /// Flat input index (within each (n,c) slab) of every output max, used by
  /// the backward pass.
  std::vector<std::int64_t> argmax;
};

/// Non-overlapping max pooling: stride == kernel. Input dims must divide.
MaxPool3dResult maxpool3d_forward(const Tensor& x, Dims3 kernel);

Tensor maxpool3d_backward(const Shape& input_shape, Dims3 kernel,
                          const std::vector<std::int64_t>& argmax,
                          const Tensor& gy);

// ------------------------------------------------------------- upsample --
/// Nearest-neighbour upsampling by integer factors per axis.
Tensor upsample_nearest3d_forward(const Tensor& x, Dims3 factor);

Tensor upsample_nearest3d_backward(const Shape& input_shape, Dims3 factor,
                                   const Tensor& gy);

// ------------------------------------------------------------ batchnorm --
struct BatchNorm3dResult {
  Tensor out;
  Tensor xhat;       // normalized input, saved for backward
  Tensor invstd;     // (C)
  Tensor batch_mean; // (C)
  Tensor batch_var;  // (C), biased (divided by M)
};

/// Training-mode batch normalization over (N, D, H, W) per channel.
BatchNorm3dResult batchnorm3d_forward(const Tensor& x, const Tensor& gamma,
                                      const Tensor& beta, float eps);

/// Inference-mode normalization with fixed statistics.
Tensor batchnorm3d_eval(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta, const Tensor& running_mean,
                        const Tensor& running_var, float eps);

struct BatchNorm3dGrads {
  Tensor gx;
  Tensor ggamma;
  Tensor gbeta;
};

BatchNorm3dGrads batchnorm3d_backward(const BatchNorm3dResult& saved,
                                      const Tensor& gamma, const Tensor& gy);

}  // namespace mfn
