// Differentiable operations on Vars.
//
// Every function creates a tape node whose backward closure scatters
// gradients to its parents. Raw math lives in tensor/{tensor_ops,nn_kernels};
// this layer only adds the chain rule.
#pragma once

#include <cstdint>
#include <vector>

#include "autodiff/variable.h"
#include "tensor/nn_kernels.h"

namespace mfn::ad {

// ----- elementwise binary (same shape) -----
Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var div(const Var& a, const Var& b);

// ----- scalar -----
Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);
Var neg(const Var& a);

// ----- elementwise unary -----
Var relu(const Var& a);
Var softplus(const Var& a);
Var sigmoid(const Var& a);
Var tanh(const Var& a);
Var exp(const Var& a);
Var abs(const Var& a);
Var square(const Var& a);

// ----- reductions (scalar result, shape {1}) -----
Var sum(const Var& a);
Var mean(const Var& a);

// ----- 2-D linear algebra -----
/// (m,k) x (k,n) -> (m,n).
Var matmul(const Var& a, const Var& b);
/// Fully-connected layer: x:(B,in), weight:(out,in), bias:(out) or undefined.
/// Returns x * weight^T + bias, shape (B,out).
Var linear(const Var& x, const Var& weight, const Var& bias);
/// Columns [begin,end) of a 2-D matrix.
Var slice_cols(const Var& a, std::int64_t begin, std::int64_t end);
/// Rows [begin,end) of a 2-D matrix (contiguous copy; backward scatters).
Var slice_rows(const Var& a, std::int64_t begin, std::int64_t end);

// ----- shape surgery -----
Var reshape(const Var& a, Shape new_shape);
Var concat(const std::vector<Var>& parts, int axis);

// ----- volumetric NN ops (N,C,D,H,W) -----
Var conv3d(const Var& x, const Var& weight, const Var& bias,
           const Conv3dSpec& spec);
Var maxpool3d(const Var& x, Dims3 kernel);
Var upsample_nearest3d(const Var& x, Dims3 factor);
/// Training-mode batch norm. `saved_out` (optional) receives the batch
/// statistics so the module can maintain running averages.
Var batchnorm3d(const Var& x, const Var& gamma, const Var& beta, float eps,
                Tensor* out_batch_mean = nullptr,
                Tensor* out_batch_var = nullptr);

}  // namespace mfn::ad
