// Tests for the reverse-mode tape: graph mechanics, simple op gradients
// with hand-computed values, gradient accumulation across shared subgraphs.
#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/ops.h"
#include "autodiff/variable.h"
#include "common/error.h"
#include "common/rng.h"
#include "tensor/tensor_ops.h"

namespace mfn::ad {
namespace {

Var leaf(std::vector<float> v, bool rg = true) {
  const auto n = static_cast<std::int64_t>(v.size());
  return Var(Tensor::from_vector(Shape{n}, std::move(v)), rg);
}

TEST(Variable, LeafProperties) {
  Var v = leaf({1, 2, 3});
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_FALSE(v.has_grad());
  EXPECT_EQ(v.numel(), 3);
  Var d = v.detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_TRUE(d.value().shares_storage_with(v.value()));
}

TEST(Backward, RequiresScalar) {
  Var v = leaf({1, 2});
  EXPECT_THROW(backward(v), mfn::Error);
}

TEST(Backward, SumGradIsOnes) {
  Var v = leaf({1, 2, 3});
  backward(sum(v));
  for (int i = 0; i < 3; ++i) EXPECT_EQ(v.grad().data()[i], 1.0f);
}

TEST(Backward, MeanGradIsOneOverN) {
  Var v = leaf({1, 2, 3, 4});
  backward(mean(v));
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(v.grad().data()[i], 0.25f, 1e-6f);
}

TEST(Backward, ChainRuleThroughSquare) {
  Var v = leaf({3.0f});
  backward(sum(square(v)));  // d(x^2)/dx = 2x = 6
  EXPECT_NEAR(v.grad().data()[0], 6.0f, 1e-5f);
}

TEST(Backward, MulProductRule) {
  Var a = leaf({2.0f});
  Var b = leaf({5.0f});
  backward(sum(mul(a, b)));
  EXPECT_EQ(a.grad().data()[0], 5.0f);
  EXPECT_EQ(b.grad().data()[0], 2.0f);
}

TEST(Backward, DivQuotientRule) {
  Var a = leaf({6.0f});
  Var b = leaf({3.0f});
  backward(sum(div(a, b)));
  EXPECT_NEAR(a.grad().data()[0], 1.0f / 3.0f, 1e-6f);
  EXPECT_NEAR(b.grad().data()[0], -6.0f / 9.0f, 1e-6f);
}

TEST(Backward, SharedSubgraphAccumulates) {
  // loss = sum(x*x) computed as mul(x, x): grad = 2x via two paths.
  Var x = leaf({3.0f, -1.0f});
  backward(sum(mul(x, x)));
  EXPECT_NEAR(x.grad().data()[0], 6.0f, 1e-5f);
  EXPECT_NEAR(x.grad().data()[1], -2.0f, 1e-5f);
}

TEST(Backward, DiamondGraph) {
  // y = (x + x) * x = 2x^2; dy/dx = 4x.
  Var x = leaf({2.0f});
  Var s = add(x, x);
  backward(sum(mul(s, x)));
  EXPECT_NEAR(x.grad().data()[0], 8.0f, 1e-5f);
}

TEST(Backward, NoGradLeafGetsNothing) {
  Var a = leaf({1.0f}, /*rg=*/true);
  Var b = leaf({2.0f}, /*rg=*/false);
  backward(sum(mul(a, b)));
  EXPECT_TRUE(a.has_grad());
  EXPECT_FALSE(b.has_grad());
}

TEST(Backward, DetachBlocksGradient) {
  Var x = leaf({4.0f});
  Var d = square(x).detach();
  Var loss = sum(mul(d, x));  // d treated as constant 16
  backward(loss);
  EXPECT_NEAR(x.grad().data()[0], 16.0f, 1e-4f);
}

TEST(Backward, GradAccumulatesAcrossBackwardCalls) {
  Var x = leaf({1.0f});
  backward(sum(x));
  backward(sum(x));
  EXPECT_EQ(x.grad().data()[0], 2.0f);
  x.zero_grad();
  EXPECT_EQ(x.grad().data()[0], 0.0f);
}

TEST(Activations, ReluGradMask) {
  Var x = leaf({-1.0f, 2.0f});
  backward(sum(relu(x)));
  EXPECT_EQ(x.grad().data()[0], 0.0f);
  EXPECT_EQ(x.grad().data()[1], 1.0f);
}

TEST(Activations, SoftplusGradIsSigmoid) {
  Var x = leaf({0.7f});
  backward(sum(softplus(x)));
  EXPECT_NEAR(x.grad().data()[0], 1.0f / (1.0f + std::exp(-0.7f)), 1e-5f);
}

TEST(Activations, SigmoidGrad) {
  Var x = leaf({0.3f});
  backward(sum(sigmoid(x)));
  const float s = 1.0f / (1.0f + std::exp(-0.3f));
  EXPECT_NEAR(x.grad().data()[0], s * (1 - s), 1e-5f);
}

TEST(Activations, TanhGrad) {
  Var x = leaf({-0.4f});
  backward(sum(tanh(x)));
  const float t = std::tanh(-0.4f);
  EXPECT_NEAR(x.grad().data()[0], 1 - t * t, 1e-5f);
}

TEST(Activations, AbsGradIsSign) {
  Var x = leaf({-2.0f, 3.0f});
  backward(sum(abs(x)));
  EXPECT_EQ(x.grad().data()[0], -1.0f);
  EXPECT_EQ(x.grad().data()[1], 1.0f);
}

TEST(MatmulOp, GradsMatchFormulas) {
  // c = a @ b, loss = sum(c): ga = ones @ b^T, gb = a^T @ ones.
  mfn::Rng rng(1);
  Var a(Tensor::randn(Shape{2, 3}, rng), true);
  Var b(Tensor::randn(Shape{3, 4}, rng), true);
  backward(sum(matmul(a, b)));
  Tensor ones = Tensor::ones(Shape{2, 4});
  EXPECT_TRUE(allclose(a.grad(), matmul_nt(ones, b.value()), 1e-4f, 1e-4f));
  EXPECT_TRUE(allclose(b.grad(), matmul_tn(a.value(), ones), 1e-4f, 1e-4f));
}

TEST(LinearOp, BiasGradIsColumnCount) {
  mfn::Rng rng(2);
  Var x(Tensor::randn(Shape{5, 3}, rng), false);
  Var w(Tensor::randn(Shape{2, 3}, rng), true);
  Var b(Tensor::zeros(Shape{2}), true);
  backward(sum(linear(x, w, b)));
  EXPECT_EQ(b.grad().data()[0], 5.0f);  // summed over batch of 5
  EXPECT_EQ(b.grad().data()[1], 5.0f);
}

TEST(SliceCols, ForwardAndScatterBack) {
  Var x(Tensor::arange(6).reshape(Shape{2, 3}), true);
  Var s = slice_cols(x, 1, 3);
  EXPECT_EQ(s.value().at({0, 0}), 1.0f);
  EXPECT_EQ(s.value().at({1, 1}), 5.0f);
  backward(sum(s));
  EXPECT_EQ(x.grad().at({0, 0}), 0.0f);
  EXPECT_EQ(x.grad().at({0, 1}), 1.0f);
  EXPECT_EQ(x.grad().at({1, 2}), 1.0f);
}

TEST(ConcatOp, SplitsGradientBack) {
  Var a(Tensor::ones(Shape{2, 2}), true);
  Var b(Tensor::ones(Shape{2, 3}), true);
  Var c = concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 5}));
  backward(sum(c));
  EXPECT_EQ(a.grad().at({1, 1}), 1.0f);
  EXPECT_EQ(b.grad().at({0, 2}), 1.0f);
}

TEST(ReshapeOp, GradKeepsShape) {
  Var x(Tensor::arange(6), true);
  Var r = reshape(x, Shape{2, 3});
  backward(sum(r));
  EXPECT_EQ(x.grad().numel(), 6);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(x.grad().data()[i], 1.0f);
}

}  // namespace
}  // namespace mfn::ad
