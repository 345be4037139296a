// Pure (allocating) and in-place kernels on dense tensors.
//
// These are the raw math kernels; the autodiff layer wraps them with
// backward rules. All binary ops require identical shapes unless the name
// says otherwise (scalar / rowvec variants). Heavy kernels (matmul family)
// are thin dispatch into the unified execution backend (backend/sgemm.h),
// which owns blocking, packing, and threading.
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace mfn {

// ----- elementwise binary (same shape) -----
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
/// a + alpha * b.
Tensor add_scaled(const Tensor& a, const Tensor& b, float alpha);
/// relu(a + b) in one pass — the residual-block tail (skip add + final
/// activation) without re-streaming the sum.
Tensor add_relu(const Tensor& a, const Tensor& b);

// ----- in-place (used by optimizers / gradient accumulation) -----
/// a += alpha * b.
void add_(Tensor& a, const Tensor& b, float alpha = 1.0f);
void scale_(Tensor& a, float s);
void clamp_(Tensor& a, float lo, float hi);

// ----- scalar variants -----
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// ----- elementwise unary -----
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor abs(const Tensor& a);
/// sign(x) in {-1, 0, +1}.
Tensor sign(const Tensor& a);
Tensor square(const Tensor& a);
Tensor relu(const Tensor& a);
/// Numerically-stable softplus log(1+e^x).
Tensor softplus(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor tanh(const Tensor& a);
/// 1 where a > 0 else 0 (relu mask).
Tensor gt_zero_mask(const Tensor& a);

/// In-place activation passes on raw buffers. Serial by design: for
/// block-streamed kernels that run inside pool workers and manage their
/// own parallelism (e.g. the decoder's no-grad fast path).
void relu_inplace(float* p, std::int64_t n);
void softplus_inplace(float* p, std::int64_t n);
void tanh_inplace(float* p, std::int64_t n);
/// y = sigmoid(x) on raw buffers (x == y allowed). Serial, same dispatch as
/// the in-place passes; the derivative decode plan uses it for f'(z).
void sigmoid_map(const float* x, float* y, std::int64_t n);

// ----- fused activation backward maps -----
// One pass over (value, upstream grad) instead of an activation-derivative
// tensor plus a mul; the autodiff layer routes its backward rules here.
/// gy * sigmoid(x) (d softplus / dx), from the forward *input* x.
Tensor softplus_grad(const Tensor& x, const Tensor& gy);
/// gy * y * (1 - y), from the forward *output* y = sigmoid(x).
Tensor sigmoid_grad(const Tensor& y, const Tensor& gy);
/// gy * (1 - y^2), from the forward *output* y = tanh(x).
Tensor tanh_grad(const Tensor& y, const Tensor& gy);
/// gy where x > 0, else 0.
Tensor relu_grad(const Tensor& x, const Tensor& gy);
/// gy * sign(x).
Tensor abs_grad(const Tensor& x, const Tensor& gy);

// ----- reductions -----
float sum(const Tensor& a);
float mean(const Tensor& a);
float min_value(const Tensor& a);
float max_value(const Tensor& a);
float max_abs(const Tensor& a);
/// sum |a_i| (L1 losses / residual norms).
float sum_abs(const Tensor& a);
/// sum a_i^2 (MSE / gradient norms).
float sum_squares(const Tensor& a);
/// Column sums of a 2-D (m,n) tensor -> shape (n). Used for bias gradients.
Tensor sum_axis0(const Tensor& a);

// ----- scalar reference kernels (the in-tree SIMD oracle) -----
// Plain serial loops over raw buffers, sharing the polynomial
// transcendentals with the vector paths. The dispatching ops above fall
// back to these under simd::force_scalar(); the parity tests in
// tests/test_simd_kernels.cpp compare against them directly.
namespace scalar_ref {
/// log(1 + u) for u in [0, 1]: the log1p of every softplus.
void log1p(const float* u, float* y, std::int64_t n);
void softplus(const float* x, float* y, std::int64_t n);
void sigmoid(const float* x, float* y, std::int64_t n);
void tanh(const float* x, float* y, std::int64_t n);
void relu(const float* x, float* y, std::int64_t n);
void softplus_grad(const float* x, const float* gy, float* gx,
                   std::int64_t n);
void sigmoid_grad(const float* y, const float* gy, float* gx,
                  std::int64_t n);
void tanh_grad(const float* y, const float* gy, float* gx, std::int64_t n);
void relu_grad(const float* x, const float* gy, float* gx, std::int64_t n);
void abs_grad(const float* x, const float* gy, float* gx, std::int64_t n);
double sum(const float* p, std::int64_t n);
double sum_abs(const float* p, std::int64_t n);
double sum_squares(const float* p, std::int64_t n);
float max_abs(const float* p, std::int64_t n);
}  // namespace scalar_ref

// ----- 2-D linear algebra -----
/// (m,k) x (k,n) -> (m,n).
Tensor matmul(const Tensor& a, const Tensor& b);
/// a^T b with a:(k,m), b:(k,n) -> (m,n).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// a b^T with a:(m,k), b:(n,k) -> (m,n).
Tensor matmul_nt(const Tensor& a, const Tensor& b);
Tensor transpose2d(const Tensor& a);
/// Broadcast-add a length-n row vector to every row of (m,n).
Tensor add_rowvec(const Tensor& a, const Tensor& v);

// ----- shape surgery -----
/// Concatenate along `axis`; all other dims must match.
Tensor concat(const std::vector<Tensor>& parts, int axis);
/// Inverse of concat: split along `axis` into chunks of the given sizes.
std::vector<Tensor> split(const Tensor& a, int axis,
                          const std::vector<std::int64_t>& sizes);
/// Copy of rows [begin, end) along axis 0.
Tensor slice_axis0(const Tensor& a, std::int64_t begin, std::int64_t end);

// ----- comparisons -----
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);

}  // namespace mfn
