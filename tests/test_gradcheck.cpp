// Property-based gradient checking: every differentiable op is verified
// against central finite differences across a parameterized shape sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "autodiff/gradcheck.h"
#include "autodiff/ops.h"
#include "common/rng.h"
#include "nn/mlp.h"

#include "tape_decoder.h"

namespace mfn::ad {
namespace {

using UnaryFn = std::function<Var(const Var&)>;

struct UnaryCase {
  std::string name;
  UnaryFn fn;
  float scale;  // input magnitude (keeps away from kinks where needed)
};

class UnaryGradSweep
    : public ::testing::TestWithParam<std::tuple<UnaryCase, std::int64_t>> {};

TEST_P(UnaryGradSweep, MatchesFiniteDifference) {
  const auto& [c, n] = GetParam();
  mfn::Rng rng(static_cast<std::uint64_t>(n) * 7 + 13);
  Tensor t = Tensor::randn(Shape{n}, rng, c.scale);
  // keep |x| away from 0 for kinked/singular functions
  for (std::int64_t i = 0; i < n; ++i) {
    float& v = t.data()[i];
    if (std::fabs(v) < 0.15f) v = v < 0 ? v - 0.2f : v + 0.2f;
  }
  Var x(t, true);
  auto fn = [&](const std::vector<Var>& in) { return mean(c.fn(in[0])); };
  auto res = gradcheck(fn, {x});
  EXPECT_TRUE(res.ok) << c.name << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradSweep,
    ::testing::Combine(
        ::testing::Values(
            UnaryCase{"relu", [](const Var& v) { return relu(v); }, 1.0f},
            UnaryCase{"softplus", [](const Var& v) { return softplus(v); },
                      1.5f},
            UnaryCase{"sigmoid", [](const Var& v) { return sigmoid(v); },
                      1.5f},
            UnaryCase{"tanh", [](const Var& v) { return tanh(v); }, 1.0f},
            UnaryCase{"exp", [](const Var& v) { return exp(v); }, 0.7f},
            UnaryCase{"abs", [](const Var& v) { return abs(v); }, 1.0f},
            UnaryCase{"square", [](const Var& v) { return square(v); }, 1.0f},
            UnaryCase{"neg", [](const Var& v) { return neg(v); }, 1.0f},
            UnaryCase{"add_scalar",
                      [](const Var& v) { return add_scalar(v, 0.7f); }, 1.0f},
            UnaryCase{"mul_scalar",
                      [](const Var& v) { return mul_scalar(v, -2.3f); },
                      1.0f}),
        ::testing::Values<std::int64_t>(1, 4, 17)));

TEST(GradCheck, BinaryOps) {
  mfn::Rng rng(5);
  for (int trial = 0; trial < 3; ++trial) {
    Var a(Tensor::randn(Shape{6}, rng), true);
    Tensor bt = Tensor::randn(Shape{6}, rng);
    // keep divisor away from zero
    for (std::int64_t i = 0; i < 6; ++i)
      if (std::fabs(bt.data()[i]) < 0.3f) bt.data()[i] += 1.0f;
    Var b(bt, true);

    auto check = [&](const char* name,
                     std::function<Var(const Var&, const Var&)> op) {
      auto fn = [&](const std::vector<Var>& in) {
        return mean(op(in[0], in[1]));
      };
      auto res = gradcheck(fn, {a, b});
      EXPECT_TRUE(res.ok) << name << ": " << res.detail;
    };
    check("add", [](const Var& x, const Var& y) { return add(x, y); });
    check("sub", [](const Var& x, const Var& y) { return sub(x, y); });
    check("mul", [](const Var& x, const Var& y) { return mul(x, y); });
    check("div", [](const Var& x, const Var& y) { return div(x, y); });
  }
}

TEST(GradCheck, MatmulAndLinear) {
  mfn::Rng rng(6);
  Var a(Tensor::randn(Shape{3, 4}, rng, 0.5f), true);
  Var b(Tensor::randn(Shape{4, 2}, rng, 0.5f), true);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(matmul(in[0], in[1])));
  };
  auto res = gradcheck(fn, {a, b});
  EXPECT_TRUE(res.ok) << res.detail;

  Var x(Tensor::randn(Shape{5, 3}, rng, 0.5f), true);
  Var w(Tensor::randn(Shape{2, 3}, rng, 0.5f), true);
  Var bias(Tensor::randn(Shape{2}, rng, 0.5f), true);
  auto fn2 = [](const std::vector<Var>& in) {
    return mean(square(linear(in[0], in[1], in[2])));
  };
  auto res2 = gradcheck(fn2, {x, w, bias});
  EXPECT_TRUE(res2.ok) << res2.detail;

  // Columns of a concatenation: both gradients split back.
  Var l(Tensor::randn(Shape{4, 2}, rng, 0.5f), true);
  Var r(Tensor::randn(Shape{4, 3}, rng, 0.5f), true);
  auto fn3 = [](const std::vector<Var>& in) {
    return mean(square(slice_cols(concat({in[0], in[1]}, 1), 1, 4)));
  };
  auto res3 = gradcheck(fn3, {l, r});
  EXPECT_TRUE(res3.ok) << res3.detail;
}

TEST(GradCheck, Conv3dAllInputs) {
  mfn::Rng rng(7);
  Var x(Tensor::randn(Shape{1, 2, 2, 3, 3}, rng, 0.5f), true);
  Var w(Tensor::randn(Shape{2, 2, 3, 3, 3}, rng, 0.3f), true);
  Var b(Tensor::randn(Shape{2}, rng, 0.3f), true);
  Conv3dSpec spec;  // 3x3x3 same
  auto fn = [spec](const std::vector<Var>& in) {
    return mean(square(conv3d(in[0], in[1], in[2], spec)));
  };
  auto res = gradcheck(fn, {x, w, b}, 1e-2f, 5e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(GradCheck, Conv3dStridedNoBias) {
  mfn::Rng rng(8);
  Var x(Tensor::randn(Shape{1, 1, 4, 4, 4}, rng, 0.5f), true);
  Var w(Tensor::randn(Shape{2, 1, 2, 2, 2}, rng, 0.4f), true);
  Conv3dSpec spec;
  spec.kernel = {2, 2, 2};
  spec.stride = {2, 2, 2};
  spec.padding = {0, 0, 0};
  auto fn = [spec](const std::vector<Var>& in) {
    return mean(square(conv3d(in[0], in[1], Var(), spec)));
  };
  auto res = gradcheck(fn, {x, w}, 1e-2f, 5e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(GradCheck, MaxPoolAndUpsample) {
  mfn::Rng rng(9);
  Var x(Tensor::randn(Shape{1, 2, 2, 4, 4}, rng), true);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(maxpool3d(in[0], {1, 2, 2})));
  };
  EXPECT_TRUE(gradcheck(fn, {x}).ok);

  Var y(Tensor::randn(Shape{1, 2, 2, 2, 2}, rng), true);
  auto fn2 = [](const std::vector<Var>& in) {
    return mean(square(upsample_nearest3d(in[0], {2, 2, 2})));
  };
  EXPECT_TRUE(gradcheck(fn2, {y}).ok);
}

TEST(GradCheck, BatchNorm3d) {
  mfn::Rng rng(10);
  Var x(Tensor::randn(Shape{2, 2, 2, 2, 2}, rng), true);
  Var gamma(Tensor::ones(Shape{2}), true);
  Var beta(Tensor::zeros(Shape{2}), true);
  // multiply by fixed random weights so the loss is not permutation-blind
  Var wts(Tensor::randn(Shape{2, 2, 2, 2, 2}, rng), false);
  auto fn = [&](const std::vector<Var>& in) {
    return mean(mul(batchnorm3d(in[0], in[1], in[2], 1e-5f), wts));
  };
  auto res = gradcheck(fn, {x, gamma, beta}, 1e-2f, 5e-2f);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(GradCheck, TapeDecoderReference) {
  // The tape decoder the fused decoder kernel is tested against:
  // gather_voxels_concat -> MLP -> blend_corners, differentiated in the
  // latent and in every MLP weight and bias. Two latent samples, queries
  // inside cells and past the clamped margins.
  mfn::Rng rng(11);
  Var latent(Tensor::randn(Shape{2, 3, 2, 3, 3}, rng), true);
  nn::MLP mlp({3 + 3, 5, 2}, rng, nn::Activation::kSoftplus);
  const std::int64_t q = 3;
  Tensor coords = Tensor::from_vector(
      Shape{2, q, 3}, {0.25f, 0.5f, 1.75f,  0.9f, 1.5f, 0.1f,
                       -0.3f, 2.4f, 0.6f,   0.6f, 0.2f, 1.3f,
                       0.1f,  1.1f, 1.9f,   1.2f, 0.7f, -0.2f});
  Var wts(Tensor::randn(Shape{2 * q, 2}, rng), false);
  std::vector<Var> inputs{latent};
  for (Var* p : mlp.parameters()) inputs.push_back(*p);
  auto fn = [&](const std::vector<Var>& in) {
    return sum(mul(tape::decode(mlp, in[0], coords, q), wts));
  };
  auto res = gradcheck(fn, inputs);
  EXPECT_TRUE(res.ok) << res.detail;
}

}  // namespace
}  // namespace mfn::ad
