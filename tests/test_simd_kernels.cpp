// SIMD-vs-scalar parity for every kernel behind the backend/simd.h
// dispatch seam: activations (forward + fused backward), reductions, the
// GEMM microkernels (including beta and fused-bias epilogues), batchnorm,
// and the fused optimizer steps — swept over ragged sizes (1, vector
// width +/- 1, primes) so the masked-tail paths are exercised, plus a
// gradcheck rerun with the scalar reference paths pinned.
//
// In a scalar-tier build (MFN_FORCE_SCALAR compile definition, or a
// non-SIMD host) both sides of each comparison run the same code and the
// tests degenerate to exactness checks — still worth running, so nothing
// here is #ifdef'd out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "autodiff/gradcheck.h"
#include "autodiff/ops.h"
#include "backend/sgemm.h"
#include "backend/simd.h"
#include "common/rng.h"
#include "optim/adam.h"
#include "optim/sgd.h"
#include "tensor/nn_kernels.h"
#include "tensor/tensor_ops.h"

namespace mfn {
namespace {

// Pin the scalar reference paths for a scope, restoring the entry state.
struct ForceScalarGuard {
  explicit ForceScalarGuard(bool on) : prev_(simd::force_scalar()) {
    simd::set_force_scalar(on);
  }
  ~ForceScalarGuard() { simd::set_force_scalar(prev_); }
  bool prev_;
};

// Ragged lengths around the vector width plus primes larger than any tier's
// unroll (4 * 16 lanes).
std::vector<std::int64_t> ragged_sizes() {
  const std::int64_t w = simd::kWidth;
  std::vector<std::int64_t> all = {1,     2,     3,         w - 1, w,
                                   w + 1, 2 * w + 3, 97,    251,   1031};
  std::vector<std::int64_t> out;
  for (auto n : all)
    if (n >= 1 && (out.empty() || out.back() != n)) out.push_back(n);
  return out;
}

float max_rel_err(const Tensor& got, const Tensor& want) {
  EXPECT_EQ(got.numel(), want.numel());
  float worst = 0.0f;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const float g = got.data()[i], w = want.data()[i];
    const float denom = std::max(std::fabs(w), 1.0f);
    worst = std::max(worst, std::fabs(g - w) / denom);
  }
  return worst;
}

// Inputs covering both polynomial branches, the exp tails, and exact zero.
Tensor activation_inputs(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::randn(Shape{n}, rng, 3.0f);
  if (n > 2) t.data()[2] = 0.0f;
  if (n > 3) t.data()[3] = 42.0f;   // deep softplus/exp tail
  if (n > 4) t.data()[4] = -42.0f;
  return t;
}

TEST(SimdActivations, ForwardMatchesScalarRef) {
  for (std::int64_t n : ragged_sizes()) {
    Tensor x = activation_inputs(n, 11 + static_cast<std::uint64_t>(n));
    Tensor want(Shape{n});
    scalar_ref::softplus(x.data(), want.data(), n);
    EXPECT_LE(max_rel_err(softplus(x), want), 1e-5f) << "softplus n=" << n;
    scalar_ref::sigmoid(x.data(), want.data(), n);
    EXPECT_LE(max_rel_err(sigmoid(x), want), 1e-5f) << "sigmoid n=" << n;
    scalar_ref::tanh(x.data(), want.data(), n);
    EXPECT_LE(max_rel_err(tanh(x), want), 1e-5f) << "tanh n=" << n;
    scalar_ref::relu(x.data(), want.data(), n);
    EXPECT_LE(max_rel_err(relu(x), want), 0.0f) << "relu n=" << n;
  }
}

TEST(SimdActivations, BackwardMatchesScalarRef) {
  for (std::int64_t n : ragged_sizes()) {
    Tensor x = activation_inputs(n, 23 + static_cast<std::uint64_t>(n));
    Rng rng(29);
    Tensor gy = Tensor::randn(Shape{n}, rng);
    Tensor want(Shape{n});

    scalar_ref::softplus_grad(x.data(), gy.data(), want.data(), n);
    EXPECT_LE(max_rel_err(softplus_grad(x, gy), want), 1e-5f)
        << "softplus_grad n=" << n;

    const Tensor s = sigmoid(x);
    scalar_ref::sigmoid_grad(s.data(), gy.data(), want.data(), n);
    EXPECT_LE(max_rel_err(sigmoid_grad(s, gy), want), 1e-5f)
        << "sigmoid_grad n=" << n;

    const Tensor t = tanh(x);
    scalar_ref::tanh_grad(t.data(), gy.data(), want.data(), n);
    EXPECT_LE(max_rel_err(tanh_grad(t, gy), want), 1e-5f)
        << "tanh_grad n=" << n;

    scalar_ref::relu_grad(x.data(), gy.data(), want.data(), n);
    EXPECT_LE(max_rel_err(relu_grad(x, gy), want), 0.0f)
        << "relu_grad n=" << n;

    scalar_ref::abs_grad(x.data(), gy.data(), want.data(), n);
    EXPECT_LE(max_rel_err(abs_grad(x, gy), want), 0.0f)
        << "abs_grad n=" << n;
  }
}

// ------------------------------------------------ double-precision oracle --
// The fused decoder and the tape share one softplus, so the activations
// are checked against double-precision libm instead of against each other.

// |got - want| in units of the float spacing at want.
double ulps(float got, double want) {
  const float w = std::fabs(static_cast<float>(want));
  const double ulp = static_cast<double>(std::nextafter(w, INFINITY)) - w;
  return std::fabs(static_cast<double>(got) - want) / ulp;
}

// f applied to every entry of x in whole vectors (the last one padded).
template <class F>
std::vector<float> vector_map(const std::vector<float>& x, F&& f) {
  const std::size_t w = static_cast<std::size_t>(simd::kWidth);
  std::vector<float> in(x), out((x.size() + w - 1) / w * w);
  in.resize(out.size(), 0.0f);
  for (std::size_t i = 0; i < in.size(); i += w)
    simd::vstoreu(out.data() + i, f(simd::vloadu(in.data() + i)));
  out.resize(x.size());
  return out;
}

// v_log1p and the scalar fast_log1pf over every 64th float bit pattern in
// [0, 1], plus 0, the smallest normal and 1: within 2 ulp of log1p.
TEST(SimdOracle, Log1pWithinTwoUlpOfDouble) {
  const std::uint32_t one = 0x3F800000u;
  std::vector<float> u = {0.0f, FLT_MIN, 1.0f};
  for (std::uint32_t b = 64; b < one; b += 64) {
    float f;
    std::memcpy(&f, &b, sizeof(f));
    u.push_back(f);
  }
  const std::vector<float> vec =
      vector_map(u, [](simd::VF v) { return simd::v_log1p(v); });
  std::vector<float> ref(u.size());
  scalar_ref::log1p(u.data(), ref.data(), static_cast<std::int64_t>(u.size()));
  double worst_vec = 0.0, worst_ref = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    const double want = std::log1p(static_cast<double>(u[i]));
    worst_vec = std::max(worst_vec, ulps(vec[i], want));
    worst_ref = std::max(worst_ref, ulps(ref[i], want));
  }
  std::printf("log1p on [0, 1], %zu points: v_log1p within %.3g ulp, "
              "fast_log1pf within %.3g ulp\n",
              u.size(), worst_vec, worst_ref);
  EXPECT_LE(worst_vec, 2.0);
  EXPECT_LE(worst_ref, 2.0);
  EXPECT_EQ(vec[0], 0.0f);
  EXPECT_EQ(ref[0], 0.0f);
}

// softplus and sigmoid, vector and scalar, against double over
// z in [-100, 100], at +-0 and at v_exp's clamp edges. Below the lower
// clamp (z < -87.34) exp(-|z|) stays at the smallest normal, so the gate
// is relative error plus an absolute FLT_MIN.
TEST(SimdOracle, SoftplusAndSigmoidMatchDouble) {
  std::vector<float> z = {0.0f, -0.0f, 100.0f, -100.0f};
  for (const float edge : {87.3365478515625f, 88.3762626647950f})
    for (const float s : {1.0f, -1.0f}) {
      const float e = s * edge;
      z.push_back(e);
      z.push_back(std::nextafter(e, INFINITY));
      z.push_back(std::nextafter(e, -INFINITY));
    }
  const int steps = 1 << 20;
  for (int i = 0; i <= steps; ++i)
    z.push_back(static_cast<float>(-100.0 + 200.0 * i / steps));
  const std::int64_t n = static_cast<std::int64_t>(z.size());
  std::vector<float> sp_ref(z.size()), sg_ref(z.size());
  scalar_ref::softplus(z.data(), sp_ref.data(), n);
  scalar_ref::sigmoid(z.data(), sg_ref.data(), n);
  const std::vector<float> sp_vec =
      vector_map(z, [](simd::VF v) { return simd::v_softplus(v); });
  const std::vector<float> sg_vec =
      vector_map(z, [](simd::VF v) { return simd::v_sigmoid(v); });
  double worst[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double x = z[i];
    const double sp = std::max(x, 0.0) + std::log1p(std::exp(-std::fabs(x)));
    const double sg = 1.0 / (1.0 + std::exp(-x));
    const float got[4] = {sp_vec[i], sp_ref[i], sg_vec[i], sg_ref[i]};
    for (int k = 0; k < 4; ++k) {
      const double want = k < 2 ? sp : sg;
      const double err = std::fabs(got[k] - want) - FLT_MIN;
      worst[k] = std::max(worst[k], std::max(err, 0.0) / want);
    }
  }
  std::printf("relative error on [-100, 100]: softplus vector %.3g, scalar "
              "%.3g; sigmoid vector %.3g, scalar %.3g\n",
              worst[0], worst[1], worst[2], worst[3]);
  for (const double w : worst) EXPECT_LE(w, 1e-5);
  const std::vector<float> nan = {std::nanf("")};
  std::vector<float> out(1);
  scalar_ref::softplus(nan.data(), out.data(), 1);
  EXPECT_TRUE(std::isnan(out[0]));
  scalar_ref::sigmoid(nan.data(), out.data(), 1);
  EXPECT_TRUE(std::isnan(out[0]));
  EXPECT_TRUE(std::isnan(
      vector_map(nan, [](simd::VF v) { return simd::v_softplus(v); })[0]));
  EXPECT_TRUE(std::isnan(
      vector_map(nan, [](simd::VF v) { return simd::v_sigmoid(v); })[0]));
}

TEST(SimdActivations, InplaceMatchesOutOfPlace) {
  for (std::int64_t n : ragged_sizes()) {
    Tensor x = activation_inputs(n, 37 + static_cast<std::uint64_t>(n));
    Tensor sp = x.clone(), th = x.clone(), rl = x.clone();
    softplus_inplace(sp.data(), n);
    tanh_inplace(th.data(), n);
    relu_inplace(rl.data(), n);
    EXPECT_LE(max_rel_err(sp, softplus(x)), 0.0f);
    EXPECT_LE(max_rel_err(th, tanh(x)), 0.0f);
    EXPECT_LE(max_rel_err(rl, relu(x)), 0.0f);
  }
}

TEST(SimdActivations, NanPropagates) {
  const std::int64_t n = simd::kWidth + 1;
  Tensor x(Shape{n});
  x.data()[0] = std::nanf("");
  EXPECT_TRUE(std::isnan(softplus(x).data()[0]));
  EXPECT_TRUE(std::isnan(sigmoid(x).data()[0]));
  EXPECT_TRUE(std::isnan(tanh(x).data()[0]));
  for (std::int64_t i = 1; i < n; ++i) {
    EXPECT_FALSE(std::isnan(softplus(x).data()[i]));
    EXPECT_FALSE(std::isnan(tanh(x).data()[i]));
  }
}

TEST(SimdReductions, MatchScalarRef) {
  for (std::int64_t n : ragged_sizes()) {
    Rng rng(41 + static_cast<std::uint64_t>(n));
    Tensor x = Tensor::randn(Shape{n}, rng, 2.0f);
    const float rs = static_cast<float>(scalar_ref::sum(x.data(), n));
    const float ra = static_cast<float>(scalar_ref::sum_abs(x.data(), n));
    const float rq =
        static_cast<float>(scalar_ref::sum_squares(x.data(), n));
    const float rm = scalar_ref::max_abs(x.data(), n);
    const float tol = 1e-5f;
    EXPECT_NEAR(sum(x), rs, tol * std::max(std::fabs(rs), 1.0f)) << n;
    EXPECT_NEAR(sum_abs(x), ra, tol * std::max(ra, 1.0f)) << n;
    EXPECT_NEAR(sum_squares(x), rq, tol * std::max(rq, 1.0f)) << n;
    EXPECT_EQ(max_abs(x), rm) << n;
  }
}

TEST(SimdReductions, LargeCrossBlockSum) {
  // Larger than one kMapGrain block: exercises the deterministic
  // block-partial combine.
  const std::int64_t n = (1 << 17) + 1031;
  Rng rng(43);
  Tensor x = Tensor::randn(Shape{n}, rng);
  const float want = static_cast<float>(scalar_ref::sum(x.data(), n));
  EXPECT_NEAR(sum(x), want, 1e-5f * std::max(std::fabs(want), 1.0f));
}

// vfold_block: lane i is the sum of acc[i]'s lanes, added in one order
// whichever slot acc[i] sits in.
TEST(SimdReductions, FoldBlockSumsEachVectorInOneOrder) {
  constexpr int W = simd::kWidth;
  simd::VF acc[W];
  float lanes[W * W], out[W];
  // Small integers: every sum is exact, so the lane placement is pinned.
  for (int i = 0; i < W * W; ++i) lanes[i] = static_cast<float>(i);
  for (int i = 0; i < W; ++i) acc[i] = simd::vloadu(lanes + i * W);
  simd::vstoreu(out, simd::vfold_block(acc));
  for (int i = 0; i < W; ++i)
    EXPECT_EQ(out[i], static_cast<float>(i * W * W + W * (W - 1) / 2)) << i;
  // One random vector in every slot in turn, among random neighbours.
  Rng rng(53);
  const Tensor probe = Tensor::randn(Shape{W}, rng, 1e3f);
  double want = 0.0;
  for (int l = 0; l < W; ++l) want += probe.data()[l];
  float first = 0.0f;
  for (int slot = 0; slot < W; ++slot) {
    const Tensor others = Tensor::randn(Shape{W * W}, rng, 1e3f);
    for (int i = 0; i < W; ++i)
      acc[i] = simd::vloadu(i == slot ? probe.data() : others.data() + i * W);
    simd::vstoreu(out, simd::vfold_block(acc));
    if (slot == 0) first = out[0];
    EXPECT_EQ(std::memcmp(&out[slot], &first, sizeof(float)), 0) << slot;
    EXPECT_NEAR(out[slot], want, 1e-5 * std::max(std::fabs(want), 1.0));
  }
}

TEST(SimdReductions, SumAxis0MatchesForcedScalar) {
  for (std::int64_t cols : {1L, 7L, 33L, 257L}) {
    Rng rng(47);
    Tensor a = Tensor::randn(Shape{19, cols}, rng);
    Tensor fast = sum_axis0(a);
    ForceScalarGuard guard(true);
    Tensor ref = sum_axis0(a);
    EXPECT_LE(max_rel_err(fast, ref), 1e-5f) << cols;
  }
}

TEST(SimdGemm, MicrokernelParityRaggedSweep) {
  // Ragged (M, N, K) triples hit full tiles, partial rows, masked column
  // tails, the short-M direct-B path, and the small-problem path.
  const std::int64_t dims[][3] = {{1, 1, 1},   {3, 5, 7},    {17, 31, 13},
                                  {8, 32, 64}, {64, 64, 64}, {65, 33, 129},
                                  {128, 96, 251}, {5, 257, 19}};
  for (const auto& d : dims) {
    const std::int64_t M = d[0], N = d[1], K = d[2];
    Rng rng(static_cast<std::uint64_t>(M * 131 + N * 17 + K));
    Tensor a = Tensor::randn(Shape{M, K}, rng);
    Tensor b = Tensor::randn(Shape{K, N}, rng);
    Tensor bt = transpose2d(b);
    Tensor fast_nn = matmul(a, b);
    Tensor fast_nt = matmul_nt(a, bt);
    ForceScalarGuard guard(true);
    Tensor ref_nn = matmul(a, b);
    Tensor ref_nt = matmul_nt(a, bt);
    const float tol =
        1e-5f * static_cast<float>(K);  // fma vs mul+add, K-length dots
    EXPECT_LE(max_rel_err(fast_nn, ref_nn), tol)
        << M << "x" << N << "x" << K;
    EXPECT_LE(max_rel_err(fast_nt, ref_nt), tol)
        << M << "x" << N << "x" << K << " (nt)";
  }
}

TEST(SimdGemm, BetaAndBiasEpilogueParity) {
  const std::int64_t M = 37, N = 51, K = 67;
  Rng rng(53);
  Tensor a = Tensor::randn(Shape{M, K}, rng);
  Tensor b = Tensor::randn(Shape{K, N}, rng);
  Tensor rbias = Tensor::randn(Shape{M}, rng);
  Tensor cbias = Tensor::randn(Shape{N}, rng);
  Tensor c0 = Tensor::randn(Shape{M, N}, rng);

  auto run = [&] {
    struct Out {
      Tensor beta, rows, cols;
    } o{c0.clone(), c0.clone(), c0.clone()};
    backend::sgemm(backend::Trans::kNo, backend::Trans::kNo, M, N, K, 1.0f,
                   a.data(), b.data(), 0.5f, o.beta.data());
    backend::sgemm_bias_rows(backend::Trans::kNo, backend::Trans::kNo, M, N,
                             K, 1.0f, a.data(), b.data(), 0.0f, rbias.data(),
                             o.rows.data());
    backend::sgemm_bias_cols(backend::Trans::kNo, backend::Trans::kNo, M, N,
                             K, 1.0f, a.data(), b.data(), 1.0f, cbias.data(),
                             o.cols.data());
    return o;
  };
  auto fast = run();
  ForceScalarGuard guard(true);
  auto ref = run();
  const float tol = 1e-5f * static_cast<float>(K);
  EXPECT_LE(max_rel_err(fast.beta, ref.beta), tol);
  EXPECT_LE(max_rel_err(fast.rows, ref.rows), tol);
  EXPECT_LE(max_rel_err(fast.cols, ref.cols), tol);
}

TEST(SimdOptim, AdamStepParity) {
  for (std::int64_t n : ragged_sizes()) {
    auto make = [&] {
      Rng rng(61 + static_cast<std::uint64_t>(n));
      ad::Var v(Tensor::randn(Shape{n}, rng, 0.5f), true);
      add_(v.mutable_grad(), Tensor::randn(Shape{n}, rng, 0.1f));
      return v;
    };
    ad::Var fast_p = make();
    ad::Var ref_p = make();
    optim::AdamConfig cfg;
    cfg.lr = 0.01;
    cfg.weight_decay = 0.05;
    optim::Adam fast_opt({&fast_p}, cfg);
    optim::Adam ref_opt({&ref_p}, cfg);
    for (int s = 0; s < 3; ++s) fast_opt.step();
    {
      ForceScalarGuard guard(true);
      for (int s = 0; s < 3; ++s) ref_opt.step();
    }
    EXPECT_LE(max_rel_err(fast_p.value(), ref_p.value()), 1e-5f) << n;
  }
}

TEST(SimdOptim, SgdMomentumParity) {
  for (std::int64_t n : ragged_sizes()) {
    auto make = [&] {
      Rng rng(71 + static_cast<std::uint64_t>(n));
      ad::Var v(Tensor::randn(Shape{n}, rng, 0.5f), true);
      add_(v.mutable_grad(), Tensor::randn(Shape{n}, rng, 0.1f));
      return v;
    };
    ad::Var fast_p = make();
    ad::Var ref_p = make();
    optim::SGD fast_opt({&fast_p}, 0.05, 0.9);
    optim::SGD ref_opt({&ref_p}, 0.05, 0.9);
    for (int s = 0; s < 3; ++s) fast_opt.step();
    {
      ForceScalarGuard guard(true);
      for (int s = 0; s < 3; ++s) ref_opt.step();
    }
    EXPECT_LE(max_rel_err(fast_p.value(), ref_p.value()), 1e-5f) << n;
  }
}

TEST(SimdBatchNorm, ForwardBackwardParity) {
  // S = 5*7 = 35 is ragged for every tier.
  Rng rng(83);
  Tensor x = Tensor::randn(Shape{2, 3, 1, 5, 7}, rng);
  Tensor gamma = Tensor::randn(Shape{3}, rng, 0.5f);
  Tensor beta = Tensor::randn(Shape{3}, rng, 0.5f);
  Tensor gy = Tensor::randn(x.shape(), rng);

  BatchNorm3dResult fast = batchnorm3d_forward(x, gamma, beta, 1e-5f);
  BatchNorm3dGrads fast_g = batchnorm3d_backward(fast, gamma, gy);
  ForceScalarGuard guard(true);
  BatchNorm3dResult ref = batchnorm3d_forward(x, gamma, beta, 1e-5f);
  BatchNorm3dGrads ref_g = batchnorm3d_backward(ref, gamma, gy);

  EXPECT_LE(max_rel_err(fast.out, ref.out), 1e-5f);
  EXPECT_LE(max_rel_err(fast.batch_mean, ref.batch_mean), 1e-5f);
  EXPECT_LE(max_rel_err(fast.batch_var, ref.batch_var), 1e-5f);
  EXPECT_LE(max_rel_err(fast_g.gx, ref_g.gx), 1e-4f);
  EXPECT_LE(max_rel_err(fast_g.ggamma, ref_g.ggamma), 1e-5f);
  EXPECT_LE(max_rel_err(fast_g.gbeta, ref_g.gbeta), 1e-5f);
}

TEST(SimdGradcheck, ForcedScalarPathsStillDifferentiate) {
  // The gradcheck sweep normally runs on the vector paths; rerun a mixed
  // graph (linear -> softplus -> tanh -> abs -> mean) with the scalar
  // reference paths pinned, so both sides of the dispatch seam keep
  // correct gradients.
  ForceScalarGuard guard(true);
  Rng rng(97);
  ad::Var x(Tensor::randn(Shape{5, 4}, rng), true);
  ad::Var w(Tensor::randn(Shape{3, 4}, rng, 0.5f), true);
  ad::Var b(Tensor::randn(Shape{3}, rng, 0.5f), true);
  auto fn = [](const std::vector<ad::Var>& in) {
    ad::Var h = ad::linear(in[0], in[1], in[2]);
    return ad::mean(ad::abs(ad::tanh(ad::softplus(h))));
  };
  auto res = ad::gradcheck(fn, {x, w, b});
  EXPECT_TRUE(res.ok) << res.detail;
}

}  // namespace
}  // namespace mfn
