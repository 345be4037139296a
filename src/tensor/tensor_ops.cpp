#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "backend/sgemm.h"
#include "backend/simd.h"
#include "common/error.h"
#include "threading/thread_pool.h"

namespace mfn {
namespace {

/// Elementwise kernels below this many elements run inline; larger tensors
/// split across the pool. The grain is deliberately coarse: these passes
/// are memory-bound, so chunks below ~0.5 MB cost more in dispatch than
/// they recover, and single-sample workloads (a few hundred KB) should
/// stay on the calling thread — wide minibatch tensors are the intended
/// source of parallelism.
constexpr std::int64_t kMapGrain = 1 << 17;

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  MFN_CHECK(a.shape() == b.shape(), op << ": shape mismatch "
                                       << a.shape().str() << " vs "
                                       << b.shape().str());
}

template <typename F>
Tensor map_unary(const Tensor& a, F&& f) {
  Tensor out = Tensor::uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  parallel_for(
      a.numel(),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) po[i] = f(pa[i]);
      },
      kMapGrain);
  return out;
}

template <typename F>
Tensor map_binary(const Tensor& a, const Tensor& b, const char* op, F&& f) {
  check_same_shape(a, b, op);
  Tensor out = Tensor::uninitialized(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  parallel_for(
      a.numel(),
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) po[i] = f(pa[i], pb[i]);
      },
      kMapGrain);
  return out;
}

// ---- fast branch-free transcendentals -------------------------------------
// The decoder's softplus/sigmoid/tanh activations are the hottest
// elementwise passes in the library (every query touches hidden_width
// activations per layer). libm's scalar exp/log1p with range branches
// blocks vectorization, so the activation kernels use the classic
// Cephes-style exp2 reduction and, for softplus's log1p on [0, 1], one
// polynomial, written branch-free: GCC and Clang auto-vectorize the
// surrounding loops. Relative error is ~2e-7 for
// moderate inputs, growing to ~1e-5 deep in the exp tails (|x| > ~40,
// where x/ln2 loses low bits) — still below the float32 training noise
// floor (gradcheck tolerances are >= 1e-5).

inline float bits_to_float(std::uint32_t b) {
  float f;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

/// exp(x) with inputs clamped to the finite float range; NaN propagates.
inline float fast_expf(float x) {
  if (std::isnan(x)) return x;  // compiles to an unord-compare blend
  x = std::min(x, 88.3762626647950f);
  x = std::max(x, -87.3365478515625f);
  const float z = x * 1.44269504088896341f;  // x / ln 2
  // floor(z) without std::floor so the loop vectorizes on bare SSE2
  const float tz = static_cast<float>(static_cast<std::int32_t>(z));
  const float zf = tz - (z < tz ? 1.0f : 0.0f);
  const float f = z - zf;  // fractional part, in [0, 1)
  // degree-5 minimax polynomial for 2^f on [0, 1)
  float p = 1.8775767e-3f;
  p = p * f + 8.9893397e-3f;
  p = p * f + 5.5826318e-2f;
  p = p * f + 2.4015361e-1f;
  p = p * f + 6.9315308e-1f;
  p = p * f + 9.9999994e-1f;
  // scale by 2^int(zf) via exponent-field construction; zf is in
  // [-126, 127] after the clamp, so e + 127 is a valid biased exponent
  // and the shift happens on an unsigned value
  const auto e = static_cast<std::int32_t>(zf);
  const float scale =
      bits_to_float(static_cast<std::uint32_t>(e + 127) << 23);
  return p * scale;
}

/// log(1 + u) for u in [0, 1], the range softplus evaluates it on, as
/// u * P9(u), P9 a degree-9 Chebyshev fit of log1p(u) / u on [0, 1] (max
/// error 5.2e-9): within 2 ulp of log1p in double, with no log reduction
/// and no division.
inline float fast_log1pf(float u) {
  float p = -0.00317605701843196f;
  p = p * u + 0.019542527261014103f;
  p = p * u + -0.05637361283010733f;
  p = p * u + 0.10543623795419527f;
  p = p * u + -0.15269667074363288f;
  p = p * u + 0.19663274257204805f;
  p = p * u + -0.24951616262872076f;
  p = p * u + 0.3332971049891775f;
  p = p * u + -0.49999892648063277f;
  p = p * u + 0.999999994656292f;
  return u * p;
}

/// tanh(x): Cephes small-|x| polynomial, exp-based tail (branch-free
/// select; both sides vectorize).
inline float fast_tanhf(float x) {
  const float ax = std::fabs(x);
  // |x| >= 0.625: tanh(|x|) = (1 - e^-2|x|) / (1 + e^-2|x|)
  const float e = fast_expf(-2.0f * ax);
  const float tl = (1.0f - e) / (1.0f + e);
  // |x| < 0.625: odd polynomial in x (no cancellation near 0)
  const float z = x * x;
  float p = -5.70498872745e-3f;
  p = p * z + 2.06390887954e-2f;
  p = p * z - 5.37397155531e-2f;
  p = p * z + 1.33314422036e-1f;
  p = p * z - 3.33332819422e-1f;
  const float ts = x + x * z * p;
  return ax < 0.625f ? ts : (x >= 0.0f ? tl : -tl);
}

// ---- SIMD dispatch helpers ------------------------------------------------
// Each hot elementwise/reduction kernel has a vector body (written against
// backend/simd.h) and a scalar reference in mfn::scalar_ref. simd::enabled()
// picks between them per raw-buffer range; the Tensor-level ops split large
// tensors across the pool first (kMapGrain blocks) so the batch axis stays
// the source of parallelism.

/// y[i] = vf(x[i]) over [0, n) with a masked ragged tail.
template <typename VFn>
inline void vmap1(const float* x, float* y, std::int64_t n, VFn&& vf) {
  constexpr int W = simd::kWidth;
  std::int64_t i = 0;
  for (; i + W <= n; i += W) simd::vstoreu(y + i, vf(simd::vloadu(x + i)));
  const int tail = static_cast<int>(n - i);
  if (tail > 0)
    simd::vstore_partial(y + i, vf(simd::vload_partial(x + i, tail)), tail);
}

/// out[i] = vf(a[i], b[i]) over [0, n) with a masked ragged tail.
template <typename VFn>
inline void vmap2(const float* a, const float* b, float* out, std::int64_t n,
                  VFn&& vf) {
  constexpr int W = simd::kWidth;
  std::int64_t i = 0;
  for (; i + W <= n; i += W)
    simd::vstoreu(out + i, vf(simd::vloadu(a + i), simd::vloadu(b + i)));
  const int tail = static_cast<int>(n - i);
  if (tail > 0)
    simd::vstore_partial(out + i,
                         vf(simd::vload_partial(a + i, tail),
                            simd::vload_partial(b + i, tail)),
                         tail);
}

using Ref1 = void (*)(const float*, float*, std::int64_t);
using Ref2 = void (*)(const float*, const float*, float*, std::int64_t);

template <typename VFn>
Tensor map_unary_simd(const Tensor& a, Ref1 sref, VFn&& vf) {
  Tensor out = Tensor::uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  parallel_for(
      a.numel(),
      [&](std::int64_t begin, std::int64_t end) {
        if (simd::enabled())
          vmap1(pa + begin, po + begin, end - begin, vf);
        else
          sref(pa + begin, po + begin, end - begin);
      },
      kMapGrain);
  return out;
}

template <typename VFn>
Tensor map_binary_simd(const Tensor& a, const Tensor& b, const char* op,
                       Ref2 sref, VFn&& vf) {
  check_same_shape(a, b, op);
  Tensor out = Tensor::uninitialized(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  parallel_for(
      a.numel(),
      [&](std::int64_t begin, std::int64_t end) {
        if (simd::enabled())
          vmap2(pa + begin, pb + begin, po + begin, end - begin, vf);
        else
          sref(pa + begin, pb + begin, po + begin, end - begin);
      },
      kMapGrain);
  return out;
}

// Deterministic parallel reduction: one partial per fixed kMapGrain block
// regardless of thread count or scheduling, then a serial combine in block
// order — so results don't wobble with MFN_NUM_THREADS.
template <typename BlockF>
double reduce_blocks(const float* p, std::int64_t n, BlockF&& bf) {
  const std::int64_t nblocks = (n + kMapGrain - 1) / kMapGrain;
  if (nblocks <= 1) return n > 0 ? bf(p, n) : 0.0;
  std::vector<double> partials(static_cast<std::size_t>(nblocks));
  parallel_for(nblocks, [&](std::int64_t b0, std::int64_t b1) {
    for (std::int64_t b = b0; b < b1; ++b) {
      const std::int64_t begin = b * kMapGrain;
      partials[static_cast<std::size_t>(b)] =
          bf(p + begin, std::min<std::int64_t>(kMapGrain, n - begin));
    }
  });
  double acc = 0.0;
  for (double d : partials) acc += d;
  return acc;
}

// Blocked vector reductions route through the canonical simd::vreduce
// loop (backend/simd.h), the single implementation of the shared flush
// policy.
template <typename StepF>
inline double vreduce_sum(const float* p, std::int64_t n, StepF&& step) {
  return simd::vreduce(p, n, static_cast<StepF&&>(step));
}

}  // namespace

// ---- scalar reference kernels ---------------------------------------------

namespace scalar_ref {

void log1p(const float* u, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = fast_log1pf(u[i]);
}

void softplus(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    y[i] = std::max(v, 0.0f) + fast_log1pf(fast_expf(-std::fabs(v)));
  }
}

void sigmoid(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float e = fast_expf(-std::fabs(v));  // in (0, 1]
    const float s = e / (1.0f + e);            // sigmoid(-|v|)
    y[i] = v >= 0.0f ? 1.0f - s : s;
  }
}

void tanh(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = fast_tanhf(x[i]);
}

void relu(const float* x, float* y, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void softplus_grad(const float* x, const float* gy, float* gx,
                   std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x[i];
    const float e = fast_expf(-std::fabs(v));
    const float s = e / (1.0f + e);
    gx[i] = gy[i] * (v >= 0.0f ? 1.0f - s : s);
  }
}

void sigmoid_grad(const float* y, const float* gy, float* gx,
                  std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) gx[i] = gy[i] * y[i] * (1.0f - y[i]);
}

void tanh_grad(const float* y, const float* gy, float* gx, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) gx[i] = gy[i] * (1.0f - y[i] * y[i]);
}

void relu_grad(const float* x, const float* gy, float* gx, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) gx[i] = x[i] > 0.0f ? gy[i] : 0.0f;
}

void abs_grad(const float* x, const float* gy, float* gx, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float s = x[i] > 0.0f ? 1.0f : (x[i] < 0.0f ? -1.0f : 0.0f);
    gx[i] = gy[i] * s;
  }
}

double sum(const float* p, std::int64_t n) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) acc += p[i];
  return acc;
}

double sum_abs(const float* p, std::int64_t n) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i) acc += std::fabs(p[i]);
  return acc;
}

double sum_squares(const float* p, std::int64_t n) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < n; ++i)
    acc += static_cast<double>(p[i]) * p[i];
  return acc;
}

float max_abs(const float* p, std::int64_t n) {
  float m = 0.0f;
  for (std::int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(p[i]));
  return m;
}

}  // namespace scalar_ref

Tensor add(const Tensor& a, const Tensor& b) {
  return map_binary(a, b, "add", [](float x, float y) { return x + y; });
}

Tensor add_relu(const Tensor& a, const Tensor& b) {
  // Exact arithmetic (max(x+y, 0)) either way, so no scalar-oracle seam is
  // needed; the residual tail streams its output once instead of add+relu.
  return map_binary(a, b, "add_relu",
                    [](float x, float y) { return std::max(x + y, 0.0f); });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return map_binary(a, b, "sub", [](float x, float y) { return x - y; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return map_binary(a, b, "mul", [](float x, float y) { return x * y; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return map_binary(a, b, "div", [](float x, float y) { return x / y; });
}

Tensor add_scaled(const Tensor& a, const Tensor& b, float alpha) {
  return map_binary(a, b, "add_scaled",
                    [alpha](float x, float y) { return x + alpha * y; });
}

void add_(Tensor& a, const Tensor& b, float alpha) {
  check_same_shape(a, b, "add_");
  float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  if (simd::enabled()) {
    const simd::VF va = simd::vset1(alpha);
    vmap2(pa, pb, pa, n, [va](simd::VF x, simd::VF y) {
      return simd::vfma(va, y, x);
    });
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) pa[i] += alpha * pb[i];
}

void scale_(Tensor& a, float s) {
  float* pa = a.data();
  const std::int64_t n = a.numel();
  if (simd::enabled()) {
    const simd::VF vs = simd::vset1(s);
    vmap1(pa, pa, n, [vs](simd::VF x) { return simd::vmul(x, vs); });
    return;
  }
  for (std::int64_t i = 0; i < n; ++i) pa[i] *= s;
}

void clamp_(Tensor& a, float lo, float hi) {
  float* pa = a.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) pa[i] = std::clamp(pa[i], lo, hi);
}

Tensor add_scalar(const Tensor& a, float s) {
  return map_unary(a, [s](float x) { return x + s; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  return map_unary(a, [s](float x) { return x * s; });
}

Tensor neg(const Tensor& a) {
  return map_unary(a, [](float x) { return -x; });
}

Tensor exp(const Tensor& a) {
  return map_unary(a, [](float x) { return std::exp(x); });
}

Tensor log(const Tensor& a) {
  return map_unary(a, [](float x) { return std::log(x); });
}

Tensor sqrt(const Tensor& a) {
  return map_unary(a, [](float x) { return std::sqrt(x); });
}

Tensor abs(const Tensor& a) {
  return map_unary(a, [](float x) { return std::fabs(x); });
}

Tensor sign(const Tensor& a) {
  return map_unary(a, [](float x) -> float {
    if (x > 0.0f) return 1.0f;
    if (x < 0.0f) return -1.0f;
    return 0.0f;
  });
}

Tensor square(const Tensor& a) {
  return map_unary(a, [](float x) { return x * x; });
}

Tensor relu(const Tensor& a) {
  return map_unary_simd(a, scalar_ref::relu, [](simd::VF x) {
    return simd::vmax(x, simd::vzero());
  });
}

Tensor softplus(const Tensor& a) {
  // Stable branch-free form: log(1 + e^x) = max(x, 0) + log1p(e^-|x|).
  return map_unary_simd(a, scalar_ref::softplus,
                        [](simd::VF x) { return simd::v_softplus(x); });
}

Tensor sigmoid(const Tensor& a) {
  return map_unary_simd(a, scalar_ref::sigmoid,
                        [](simd::VF x) { return simd::v_sigmoid(x); });
}

Tensor tanh(const Tensor& a) {
  return map_unary_simd(a, scalar_ref::tanh,
                        [](simd::VF x) { return simd::v_tanh(x); });
}

Tensor softplus_grad(const Tensor& x, const Tensor& gy) {
  // d softplus / dx = sigmoid(x)
  return map_binary_simd(x, gy, "softplus_grad", scalar_ref::softplus_grad,
                         [](simd::VF xv, simd::VF gv) {
                           return simd::vmul(gv, simd::v_sigmoid(xv));
                         });
}

Tensor sigmoid_grad(const Tensor& y, const Tensor& gy) {
  return map_binary_simd(y, gy, "sigmoid_grad", scalar_ref::sigmoid_grad,
                         [](simd::VF yv, simd::VF gv) {
                           const simd::VF one_minus =
                               simd::vsub(simd::vset1(1.0f), yv);
                           return simd::vmul(gv, simd::vmul(yv, one_minus));
                         });
}

Tensor tanh_grad(const Tensor& y, const Tensor& gy) {
  return map_binary_simd(y, gy, "tanh_grad", scalar_ref::tanh_grad,
                         [](simd::VF yv, simd::VF gv) {
                           const simd::VF d = simd::vsub(
                               simd::vset1(1.0f), simd::vmul(yv, yv));
                           return simd::vmul(gv, d);
                         });
}

Tensor relu_grad(const Tensor& x, const Tensor& gy) {
  return map_binary_simd(x, gy, "relu_grad", scalar_ref::relu_grad,
                         [](simd::VF xv, simd::VF gv) {
                           return simd::vselect(
                               simd::vcmp_gt(xv, simd::vzero()), gv,
                               simd::vzero());
                         });
}

Tensor abs_grad(const Tensor& x, const Tensor& gy) {
  return map_binary_simd(
      x, gy, "abs_grad", scalar_ref::abs_grad,
      [](simd::VF xv, simd::VF gv) {
        const simd::VF z = simd::vzero();
        return simd::vselect(simd::vcmp_gt(xv, z), gv,
                             simd::vselect(simd::vcmp_lt(xv, z),
                                           simd::vneg(gv), z));
      });
}

Tensor gt_zero_mask(const Tensor& a) {
  return map_unary(a, [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
}

void relu_inplace(float* p, std::int64_t n) {
  if (simd::enabled()) {
    vmap1(p, p, n,
          [](simd::VF x) { return simd::vmax(x, simd::vzero()); });
    return;
  }
  scalar_ref::relu(p, p, n);
}

void softplus_inplace(float* p, std::int64_t n) {
  if (simd::enabled()) {
    vmap1(p, p, n, [](simd::VF x) { return simd::v_softplus(x); });
    return;
  }
  scalar_ref::softplus(p, p, n);
}

void tanh_inplace(float* p, std::int64_t n) {
  if (simd::enabled()) {
    vmap1(p, p, n, [](simd::VF x) { return simd::v_tanh(x); });
    return;
  }
  scalar_ref::tanh(p, p, n);
}

void sigmoid_map(const float* x, float* y, std::int64_t n) {
  if (simd::enabled()) {
    vmap1(x, y, n, [](simd::VF v) { return simd::v_sigmoid(v); });
    return;
  }
  scalar_ref::sigmoid(x, y, n);
}

float sum(const Tensor& a) {
  const float* pa = a.data();
  const std::int64_t n = a.numel();
  if (simd::enabled())
    return static_cast<float>(reduce_blocks(pa, n, [](const float* p,
                                                      std::int64_t m) {
      return vreduce_sum(p, m,
                         [](simd::VF acc, simd::VF x) {
                           return simd::vadd(acc, x);
                         });
    }));
  return static_cast<float>(reduce_blocks(pa, n, scalar_ref::sum));
}

float sum_abs(const Tensor& a) {
  const float* pa = a.data();
  const std::int64_t n = a.numel();
  if (simd::enabled())
    return static_cast<float>(reduce_blocks(pa, n, [](const float* p,
                                                      std::int64_t m) {
      return vreduce_sum(p, m,
                         [](simd::VF acc, simd::VF x) {
                           return simd::vadd(acc, simd::vabs(x));
                         });
    }));
  return static_cast<float>(reduce_blocks(pa, n, scalar_ref::sum_abs));
}

float sum_squares(const Tensor& a) {
  const float* pa = a.data();
  const std::int64_t n = a.numel();
  if (simd::enabled())
    return static_cast<float>(reduce_blocks(pa, n, [](const float* p,
                                                      std::int64_t m) {
      return vreduce_sum(
          p, m, [](simd::VF acc, simd::VF x) { return simd::vfma(x, x, acc); });
    }));
  return static_cast<float>(reduce_blocks(pa, n, scalar_ref::sum_squares));
}

float mean(const Tensor& a) {
  MFN_CHECK(a.numel() > 0, "mean of empty tensor");
  return sum(a) / static_cast<float>(a.numel());
}

float min_value(const Tensor& a) {
  MFN_CHECK(a.numel() > 0, "min of empty tensor");
  const float* pa = a.data();
  return *std::min_element(pa, pa + a.numel());
}

float max_value(const Tensor& a) {
  MFN_CHECK(a.numel() > 0, "max of empty tensor");
  const float* pa = a.data();
  return *std::max_element(pa, pa + a.numel());
}

float max_abs(const Tensor& a) {
  const float* pa = a.data();
  const std::int64_t n = a.numel();
  if (!simd::enabled()) return scalar_ref::max_abs(pa, n);
  constexpr int W = simd::kWidth;
  simd::VF m = simd::vzero();
  std::int64_t i = 0;
  for (; i + W <= n; i += W)
    m = simd::vmax(m, simd::vabs(simd::vloadu(pa + i)));
  const int tail = static_cast<int>(n - i);
  if (tail > 0)
    m = simd::vmax(m, simd::vabs(simd::vload_partial(pa + i, tail)));
  return simd::vhmax(m);
}

Tensor sum_axis0(const Tensor& a) {
  MFN_CHECK(a.ndim() == 2, "sum_axis0 expects 2-D, got " << a.shape().str());
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out(Shape{n});
  const float* pa = a.data();
  float* po = out.data();
  // Parallel over disjoint column ranges (each worker owns its slice of
  // the output row); the inner column loop is the vector axis.
  parallel_for(
      n,
      [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t i = 0; i < m; ++i) {
          const float* row = pa + i * n;
          if (simd::enabled())
            vmap2(po + c0, row + c0, po + c0, c1 - c0,
                  [](simd::VF acc, simd::VF x) {
                    return simd::vadd(acc, x);
                  });
          else
            for (std::int64_t j = c0; j < c1; ++j) po[j] += row[j];
        }
      },
      /*grain=*/4096);
  return out;
}

// The matmul family is thin dispatch into the unified backend GEMM
// (src/backend/sgemm.h); blocking, packing, and threading live there.

Tensor matmul(const Tensor& a, const Tensor& b) {
  MFN_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul expects 2-D operands");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  MFN_CHECK(b.dim(0) == k, "matmul inner dims " << a.shape().str() << " x "
                                                << b.shape().str());
  Tensor out = Tensor::uninitialized(Shape{m, n});
  backend::sgemm(backend::Trans::kNo, backend::Trans::kNo, m, n, k, 1.0f,
                 a.data(), b.data(), 0.0f, out.data());
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  MFN_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_tn expects 2-D operands");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  MFN_CHECK(b.dim(0) == k, "matmul_tn inner dims " << a.shape().str() << " x "
                                                   << b.shape().str());
  Tensor out = Tensor::uninitialized(Shape{m, n});
  backend::sgemm(backend::Trans::kYes, backend::Trans::kNo, m, n, k, 1.0f,
                 a.data(), b.data(), 0.0f, out.data());
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  MFN_CHECK(a.ndim() == 2 && b.ndim() == 2, "matmul_nt expects 2-D operands");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  MFN_CHECK(b.dim(1) == k, "matmul_nt inner dims " << a.shape().str() << " x "
                                                   << b.shape().str());
  Tensor out = Tensor::uninitialized(Shape{m, n});
  backend::sgemm(backend::Trans::kNo, backend::Trans::kYes, m, n, k, 1.0f,
                 a.data(), b.data(), 0.0f, out.data());
  return out;
}

Tensor transpose2d(const Tensor& a) {
  MFN_CHECK(a.ndim() == 2, "transpose2d expects 2-D");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::uninitialized(Shape{n, m});
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
  return out;
}

Tensor add_rowvec(const Tensor& a, const Tensor& v) {
  MFN_CHECK(a.ndim() == 2 && v.ndim() == 1 && v.dim(0) == a.dim(1),
            "add_rowvec " << a.shape().str() << " + " << v.shape().str());
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::uninitialized(Shape{m, n});
  const float* pa = a.data();
  const float* pv = v.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = pa + i * n;
    float* orow = po + i * n;
    for (std::int64_t j = 0; j < n; ++j) orow[j] = row[j] + pv[j];
  }
  return out;
}

namespace {

// Concatenation treats the tensor as (outer, axis_size, inner) and copies
// contiguous inner*axis_size blocks.
struct AxisView {
  std::int64_t outer = 1, axis = 1, inner = 1;
};

AxisView axis_view(const Shape& s, int axis) {
  AxisView v;
  for (int d = 0; d < axis; ++d) v.outer *= s[d];
  v.axis = s[axis];
  for (int d = axis + 1; d < s.ndim(); ++d) v.inner *= s[d];
  return v;
}

}  // namespace

Tensor concat(const std::vector<Tensor>& parts, int axis) {
  MFN_CHECK(!parts.empty(), "concat of zero tensors");
  const int nd = parts[0].ndim();
  if (axis < 0) axis += nd;
  MFN_CHECK(axis >= 0 && axis < nd, "concat axis " << axis);
  std::int64_t total_axis = 0;
  for (const auto& p : parts) {
    MFN_CHECK(p.ndim() == nd, "concat rank mismatch");
    for (int d = 0; d < nd; ++d) {
      if (d == axis) continue;
      MFN_CHECK(p.dim(d) == parts[0].dim(d),
                "concat shape mismatch in dim " << d);
    }
    total_axis += p.dim(axis);
  }
  std::vector<std::int64_t> out_dims = parts[0].shape().dims();
  out_dims[static_cast<std::size_t>(axis)] = total_axis;
  Tensor out = Tensor::uninitialized(Shape(out_dims));

  const AxisView ov = axis_view(out.shape(), axis);
  float* po = out.data();
  std::int64_t axis_offset = 0;
  for (const auto& p : parts) {
    const AxisView pv = axis_view(p.shape(), axis);
    const float* pp = p.data();
    for (std::int64_t o = 0; o < pv.outer; ++o) {
      const float* src = pp + o * pv.axis * pv.inner;
      float* dst = po + (o * ov.axis + axis_offset) * ov.inner;
      std::copy(src, src + pv.axis * pv.inner, dst);
    }
    axis_offset += pv.axis;
  }
  return out;
}

std::vector<Tensor> split(const Tensor& a, int axis,
                          const std::vector<std::int64_t>& sizes) {
  const int nd = a.ndim();
  if (axis < 0) axis += nd;
  MFN_CHECK(axis >= 0 && axis < nd, "split axis " << axis);
  std::int64_t total = 0;
  for (auto s : sizes) total += s;
  MFN_CHECK(total == a.dim(axis), "split sizes sum " << total << " vs dim "
                                                     << a.dim(axis));
  const AxisView av = axis_view(a.shape(), axis);
  const float* pa = a.data();

  std::vector<Tensor> out;
  out.reserve(sizes.size());
  std::int64_t axis_offset = 0;
  for (auto s : sizes) {
    std::vector<std::int64_t> dims = a.shape().dims();
    dims[static_cast<std::size_t>(axis)] = s;
    Tensor part = Tensor::uninitialized(Shape(dims));
    float* pp = part.data();
    for (std::int64_t o = 0; o < av.outer; ++o) {
      const float* src = pa + (o * av.axis + axis_offset) * av.inner;
      std::copy(src, src + s * av.inner, pp + o * s * av.inner);
    }
    axis_offset += s;
    out.push_back(std::move(part));
  }
  return out;
}

Tensor slice_axis0(const Tensor& a, std::int64_t begin, std::int64_t end) {
  MFN_CHECK(a.ndim() >= 1, "slice_axis0 on scalar");
  MFN_CHECK(0 <= begin && begin <= end && end <= a.dim(0),
            "slice [" << begin << "," << end << ") of dim " << a.dim(0));
  std::vector<std::int64_t> dims = a.shape().dims();
  dims[0] = end - begin;
  Tensor out = Tensor::uninitialized(Shape(dims));
  const std::int64_t inner = a.numel() / std::max<std::int64_t>(a.dim(0), 1);
  std::copy(a.data() + begin * inner, a.data() + end * inner, out.data());
  return out;
}

bool allclose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (a.shape() != b.shape()) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  const std::int64_t n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const float tol = atol + rtol * std::fabs(pb[i]);
    if (std::fabs(pa[i] - pb[i]) > tol) return false;
  }
  return true;
}

}  // namespace mfn
