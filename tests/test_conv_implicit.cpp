// Implicit-GEMM conv3d: parity of the pack-seam / zero-pack paths against
// the seed references across strides, paddings, and ragged channel counts,
// under both SIMD tiers via the runtime dispatch seam; fused
// conv->batchnorm(eval)->activation epilogues; bitwise equality of serial
// and pooled backward passes, alone and inside a full training step; the
// caching tensor allocator under a real training step.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "backend/simd.h"
#include "backend/workspace.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/meshfree_flownet.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "optim/adam.h"
#include "tensor/nn_kernels.h"
#include "tensor/tensor_ops.h"
#include "threading/thread_pool.h"

namespace mfn {
namespace {

// Real concurrency even on single-core hosts (runs before the first
// ThreadPool::global() touch). An explicit MFN_NUM_THREADS wins.
const bool kForcePool = [] {
  setenv("MFN_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

// fn() with every parallel_for run inline: the 1-thread result the pooled
// run must reproduce.
template <class F>
auto run_serially(F&& fn) {
  ScopedInlineLoops serial;
  return fn();
}

// Flip the runtime dispatch seam for the duration of a scope.
class ScopedForceScalar {
 public:
  explicit ScopedForceScalar(bool v) : prev_(simd::force_scalar()) {
    simd::set_force_scalar(v);
  }
  ~ScopedForceScalar() { simd::set_force_scalar(prev_); }

 private:
  bool prev_;
};

struct ImplicitCase {
  std::int64_t N, C, F, D, H, W, K;
  std::int64_t stride, pad;
  bool bias;
};

void expect_tensors_close(const Tensor& a, const Tensor& b, float atol,
                          float rtol, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_TRUE(allclose(a, b, atol, rtol)) << what;
}

void run_case(const ImplicitCase& p, bool force_scalar) {
  ScopedForceScalar guard(force_scalar);
  Rng rng(77);
  Tensor x = Tensor::randn(Shape{p.N, p.C, p.D, p.H, p.W}, rng);
  Tensor w = Tensor::randn(Shape{p.F, p.C, p.K, p.K, p.K}, rng, 0.3f);
  Tensor b = p.bias ? Tensor::randn(Shape{p.F}, rng) : Tensor();
  Conv3dSpec spec;
  spec.kernel = {p.K, p.K, p.K};
  spec.stride = {p.stride, p.stride, p.stride};
  spec.padding = {p.pad, p.pad, p.pad};

  Tensor ref = conv3d_forward_reference(x, w, b, spec);
  Tensor y = conv3d_forward(x, w, b, spec);
  expect_tensors_close(y, ref, 1e-3f, 1e-3f, "forward vs seed reference");

  Rng grng(78);
  Tensor gy = Tensor::randn(ref.shape(), grng);
  Conv3dGrads gref = conv3d_backward_reference(x, w, p.bias, spec, gy);
  Conv3dGrads g = conv3d_backward(x, w, p.bias, spec, gy);
  expect_tensors_close(g.gx, gref.gx, 1e-3f, 1e-3f, "gx vs seed reference");
  expect_tensors_close(g.gweight, gref.gweight, 2e-3f, 2e-3f,
                       "gweight vs seed reference");
  if (p.bias)
    expect_tensors_close(g.gbias, gref.gbias, 2e-3f, 2e-3f,
                         "gbias vs seed reference");
}

class ImplicitConvSweep : public ::testing::TestWithParam<ImplicitCase> {};

TEST_P(ImplicitConvSweep, ParityBothTiers) {
  run_case(GetParam(), /*force_scalar=*/false);
  run_case(GetParam(), /*force_scalar=*/true);
}

// stride {1,2} x padding {0,1} x ragged channel/filter counts (1, primes,
// vector-width +/- 1) x geometries that hit the zero-pack full-width,
// zero-pack narrow-row, pointwise, and generic packed-seam paths; then
// every distinct conv shape of the two models that train in this repo.
INSTANTIATE_TEST_SUITE_P(
    Cases, ImplicitConvSweep,
    ::testing::Values(
        // same-geometry (zero-pack candidates), wide and narrow rows
        ImplicitCase{2, 3, 5, 3, 4, 16, 3, 1, 1, true},
        ImplicitCase{2, 2, 3, 2, 4, 8, 3, 1, 1, true},
        ImplicitCase{1, 7, 17, 2, 3, 5, 3, 1, 1, false},
        ImplicitCase{1, 1, 1, 2, 3, 3, 3, 1, 1, true},
        // stride 2 and pad 0 combinations (generic packed seam)
        ImplicitCase{2, 3, 4, 4, 6, 6, 3, 2, 1, true},
        ImplicitCase{1, 5, 2, 5, 5, 5, 3, 2, 0, false},
        ImplicitCase{2, 2, 5, 4, 4, 4, 3, 1, 0, true},
        // pointwise fast path and 1x1 with stride/pad off the fast path
        ImplicitCase{2, 4, 6, 2, 4, 4, 1, 1, 0, true},
        ImplicitCase{1, 3, 3, 4, 4, 4, 1, 2, 0, false},
        // vector-width +/- 1 channels at the training-like geometry
        ImplicitCase{1, 15, 17, 2, 4, 16, 3, 1, 1, true},
        ImplicitCase{1, 9, 7, 2, 4, 8, 3, 1, 1, false},
        // the U-Net's own convs: small_default at batch 4, ...
        ImplicitCase{4, 4, 4, 4, 8, 8, 1, 1, 0, false},
        ImplicitCase{4, 4, 4, 4, 8, 8, 3, 1, 1, false},
        ImplicitCase{4, 4, 8, 4, 8, 8, 1, 1, 0, false},
        ImplicitCase{4, 24, 4, 4, 8, 8, 1, 1, 0, false},
        ImplicitCase{4, 24, 8, 4, 8, 8, 1, 1, 0, false},
        ImplicitCase{4, 8, 16, 4, 8, 8, 1, 1, 0, true},
        ImplicitCase{4, 8, 8, 4, 4, 4, 1, 1, 0, false},
        ImplicitCase{4, 8, 8, 4, 4, 4, 3, 1, 1, false},
        ImplicitCase{4, 8, 16, 4, 4, 4, 1, 1, 0, false},
        ImplicitCase{4, 48, 8, 4, 4, 4, 1, 1, 0, false},
        ImplicitCase{4, 48, 16, 4, 4, 4, 1, 1, 0, false},
        ImplicitCase{4, 16, 16, 2, 2, 2, 1, 1, 0, false},
        ImplicitCase{4, 16, 16, 2, 2, 2, 3, 1, 1, false},
        ImplicitCase{4, 16, 32, 2, 2, 2, 1, 1, 0, false},
        // ... and the distributed trainer's tiny model at batch 2
        ImplicitCase{2, 4, 4, 4, 8, 8, 1, 1, 0, false},
        ImplicitCase{2, 4, 4, 4, 8, 8, 3, 1, 1, false},
        ImplicitCase{2, 12, 4, 4, 8, 8, 1, 1, 0, false},
        ImplicitCase{2, 4, 8, 4, 8, 8, 1, 1, 0, true},
        ImplicitCase{2, 4, 4, 4, 4, 4, 1, 1, 0, false},
        ImplicitCase{2, 4, 4, 4, 4, 4, 3, 1, 1, false},
        ImplicitCase{2, 4, 8, 4, 4, 4, 1, 1, 0, false}));

TEST(ConvImplicit, AsymmetricSpecAndTallKernel) {
  for (const bool fs : {false, true}) {
    ScopedForceScalar guard(fs);
    Rng rng(5);
    Tensor x = Tensor::randn(Shape{2, 3, 5, 7, 9}, rng);
    Tensor w = Tensor::randn(Shape{4, 3, 1, 3, 5}, rng, 0.3f);
    Tensor b = Tensor::randn(Shape{4}, rng);
    Conv3dSpec spec;
    spec.kernel = {1, 3, 5};
    spec.stride = {1, 2, 1};
    spec.padding = {0, 1, 2};
    Tensor ref = conv3d_forward_reference(x, w, b, spec);
    expect_tensors_close(conv3d_forward(x, w, b, spec), ref, 1e-3f, 1e-3f,
                         "asymmetric forward");
    Rng grng(6);
    Tensor gy = Tensor::randn(ref.shape(), grng);
    Conv3dGrads gref = conv3d_backward_reference(x, w, true, spec, gy);
    Conv3dGrads g = conv3d_backward(x, w, true, spec, gy);
    expect_tensors_close(g.gx, gref.gx, 1e-3f, 1e-3f, "asymmetric gx");
    expect_tensors_close(g.gweight, gref.gweight, 2e-3f, 2e-3f,
                         "asymmetric gweight");
  }
}

TEST(ConvImplicit, FusedEpilogueMatchesUnfusedChain) {
  for (const bool fs : {false, true}) {
    ScopedForceScalar guard(fs);
    Rng rng(11);
    const std::int64_t F = 6;
    Tensor x = Tensor::randn(Shape{2, 5, 3, 4, 8}, rng);
    Tensor w = Tensor::randn(Shape{F, 5, 3, 3, 3}, rng, 0.3f);
    Conv3dSpec spec;  // 3x3x3 stride 1 pad 1
    Tensor gamma = Tensor::randn(Shape{F}, rng, 0.2f);
    Tensor beta = Tensor::randn(Shape{F}, rng, 0.2f);
    Tensor mean = Tensor::randn(Shape{F}, rng, 0.2f);
    Tensor var = Tensor::uniform(Shape{F}, rng, 0.5f, 2.0f);
    const float eps = 1e-5f;

    ConvEpilogue ep;
    ep.scale = Tensor::uninitialized(Shape{F});
    ep.shift = Tensor::uninitialized(Shape{F});
    for (std::int64_t f = 0; f < F; ++f) {
      const float s = gamma.data()[f] / std::sqrt(var.data()[f] + eps);
      ep.scale.data()[f] = s;
      ep.shift.data()[f] = beta.data()[f] - mean.data()[f] * s;
    }
    ep.relu = true;
    Tensor fused = conv3d_forward_fused(x, w, spec, ep);

    Tensor unfused = conv3d_forward(x, w, Tensor(), spec);
    unfused = batchnorm3d_eval(unfused, gamma, beta, mean, var, eps);
    unfused = relu(unfused);
    expect_tensors_close(fused, unfused, 1e-4f, 1e-3f,
                         "fused conv->BN(eval)->relu vs unfused chain");
  }
}

// The weight and bias gradients sum over the batch. Keyed by sample and
// summed in sample order, they do not depend on how the pool's dynamic
// chunk schedule spread the samples over workers. With one sample the
// batch loop has nothing to split, so the weight gradient's GEMM splits
// its own column blocks over the pool; its outputs are still each summed
// by one thread in one order.
TEST(ConvImplicit, SerialBackwardIsBitwisePooledBackward) {
  ASSERT_GE(ThreadPool::global().size(), 2) << "needs a multi-thread pool";
  const Shape cases[][2] = {
      {Shape{8, 6, 4, 8, 16}, Shape{10, 6, 3, 3, 3}},
      {Shape{1, 8, 4, 16, 16}, Shape{8, 8, 3, 3, 3}},     // one sample
      {Shape{1, 64, 4, 16, 16}, Shape{16, 64, 1, 1, 1}}};  // pointwise
  for (const auto& c : cases) {
    Rng rng(21);
    Tensor x = Tensor::randn(c[0], rng);
    Tensor w = Tensor::randn(c[1], rng, 0.3f);
    Conv3dSpec spec;  // stride 1, "same" padding
    spec.kernel = {c[1][2], c[1][3], c[1][4]};
    spec.padding = {c[1][2] / 2, c[1][3] / 2, c[1][4] / 2};
    Tensor gy = Tensor::randn(conv3d_output_shape(x.shape(), w.shape(), spec),
                              rng);
    const Conv3dGrads serial = run_serially(
        [&] { return conv3d_backward(x, w, /*had_bias=*/true, spec, gy); });
    for (int rep = 0; rep < 3; ++rep) {
      const Conv3dGrads pooled = conv3d_backward(x, w, true, spec, gy);
      EXPECT_TRUE(bitwise_equal(serial.gx, pooled.gx))
          << c[0].str() << " repeat " << rep;
      EXPECT_TRUE(bitwise_equal(serial.gweight, pooled.gweight))
          << c[0].str() << " repeat " << rep;
      EXPECT_TRUE(bitwise_equal(serial.gbias, pooled.gbias))
          << c[0].str() << " repeat " << rep;
    }
  }
}

// One physics-constrained training step (encoder, derivative bundle,
// equation loss) and its backward: every parameter gradient of a pooled
// run equals the serial run's bit for bit.
TEST(ConvImplicit, SerialTrainingStepIsBitwisePooledStep) {
  ASSERT_GE(ThreadPool::global().size(), 2) << "needs a multi-thread pool";
  Rng rng(22);
  core::MeshfreeFlowNet model(core::MFNConfig::small_default(), rng);
  const std::int64_t N = 4, Q = 96;
  data::BatchedSample batch;
  batch.lr_patches = Tensor::randn(Shape{N, 4, 4, 8, 8}, rng, 0.5f);
  batch.query_coords = Tensor::uninitialized(Shape{N, Q, 3});
  for (std::int64_t r = 0; r < N * Q; ++r) {
    batch.query_coords.data()[r * 3 + 0] =
        static_cast<float>(rng.uniform(0.0, 3.0));
    batch.query_coords.data()[r * 3 + 1] =
        static_cast<float>(rng.uniform(0.0, 7.0));
    batch.query_coords.data()[r * 3 + 2] =
        static_cast<float>(rng.uniform(0.0, 7.0));
  }
  batch.targets = Tensor::randn(Shape{N, Q, 4}, rng, 0.5f);
  core::EquationLossConfig eq;
  eq.constants = core::RBConstants::from_ra_pr(1e6, 1.0);
  eq.cell_size = {0.1, 0.125, 0.25};
  const auto params = model.parameters();
  auto step = [&] {
    for (ad::Var* p : params) p->zero_grad();
    ad::backward(core::batched_step_loss(model, batch, eq, 0.0125).loss);
    std::vector<Tensor> grads;
    for (const ad::Var* p : params) grads.push_back(p->grad().clone());
    return grads;
  };
  const std::vector<Tensor> serial = run_serially(step);
  for (int rep = 0; rep < 3; ++rep) {
    const std::vector<Tensor> pooled = step();
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_TRUE(bitwise_equal(serial[i], pooled[i]))
          << "repeat " << rep << ", parameter " << i;
  }
}

TEST(ConvImplicit, SizingOverflowGuardThrows) {
  // CK * L would wrap int64 for this shape; the guard must throw instead
  // of silently casting a wrapped product to size_t.
  const std::int64_t big = std::int64_t{1} << 28;
  Shape input{1, big, 3, big, 4};
  Shape weight{2, big, 3, 3, 3};
  Conv3dSpec spec;
  Tensor x, w;  // never materialized: output-shape path checks first
  EXPECT_THROW(conv3d_output_shape(input, weight, spec), Error);
}

// The fixture of the trainer-step allocator test: the step's gamma, 0 for
// a step that decodes through the value node, > 0 for one that decodes
// the derivative bundle.
class CachingAllocator : public ::testing::TestWithParam<double> {};

TEST_P(CachingAllocator, TrainerStepGradcheckAndSteadyStateAllocs) {
  // One batched training step's gradient, with the caching tensor
  // allocator active (it always is), checked against central finite
  // differences; then repeated steps must stop touching the heap.
  const double gamma = GetParam();
  Rng rng(404);
  core::MFNConfig cfg;
  cfg.unet.in_channels = 4;
  cfg.unet.out_channels = 8;
  cfg.unet.base_filters = 4;
  cfg.unet.max_filters = 8;
  cfg.unet.pools = {{1, 2, 2}};
  cfg.decoder.latent_channels = 8;
  cfg.decoder.hidden = {8};
  core::MeshfreeFlowNet model(cfg, rng);
  model.set_training(false);  // deterministic normalization for FD evals

  const std::int64_t N = 2, Q = 5;
  Tensor lr = Tensor::randn(Shape{N, 4, 4, 8, 8}, rng, 0.5f);
  Tensor coords(Shape{N, Q, 3});
  for (std::int64_t r = 0; r < N * Q; ++r) {
    coords.data()[r * 3 + 0] = static_cast<float>(rng.uniform(0.0, 3.0));
    coords.data()[r * 3 + 1] = static_cast<float>(rng.uniform(0.0, 7.0));
    coords.data()[r * 3 + 2] = static_cast<float>(rng.uniform(0.0, 7.0));
  }
  data::BatchedSample batch;
  batch.lr_patches = lr;
  batch.query_coords = coords;
  batch.targets = Tensor::randn(Shape{N, Q, 4}, rng, 0.5f);

  core::EquationLossConfig eq;
  eq.constants = core::RBConstants::from_ra_pr(1e5, 1.0);
  eq.cell_size = {0.1, 0.125, 0.25};

  auto loss_fn = [&]() {
    return core::batched_step_loss(model, batch, eq, gamma).loss;
  };
  auto params = model.parameters();
  for (auto* p : params) p->zero_grad();
  ad::backward(loss_fn());

  // FD-check a few entries of the first UNet conv weight — the gradient
  // that flows through the implicit conv backward.
  ad::Var* w0 = params[0];
  ASSERT_TRUE(w0->has_grad());
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < std::min<std::int64_t>(w0->numel(), 6); ++i) {
    float* pw = w0->value().data();
    const float orig = pw[i];
    pw[i] = orig + eps;
    const float fp = loss_fn().value().item();
    pw[i] = orig - eps;
    const float fm = loss_fn().value().item();
    pw[i] = orig;
    EXPECT_NEAR((fp - fm) / (2 * eps), w0->grad().data()[i], 4e-2f)
        << "weight " << i;
  }

  // Steady-state: after warm-up steps the allocator must serve the whole
  // step from its buckets (>= 10x fewer heap allocations than tensor
  // allocations is the acceptance bar; in practice it reaches zero).
  optim::Adam opt(params, optim::AdamConfig{});
  auto& alloc = backend::CachingAllocator::instance();
  auto step = [&] {
    opt.zero_grad();
    ad::backward(loss_fn());
    opt.step();
    alloc.next_step();
  };
  for (int r = 0; r < 3; ++r) step();
  const auto s0 = alloc.stats();
  step();
  const auto s1 = alloc.stats();
  const auto allocs = s1.allocs - s0.allocs;
  const auto heap = s1.heap_allocs - s0.heap_allocs;
  EXPECT_GT(allocs, 100u);
  EXPECT_LE(heap * 10, allocs)
      << "heap allocs " << heap << " of " << allocs << " tensor allocs";
}

INSTANTIATE_TEST_SUITE_P(Gammas, CachingAllocator,
                         ::testing::Values(0.0, 0.0125));

}  // namespace
}  // namespace mfn
