// Batched-pipeline tests: sample_batch shapes, batched-vs-looped parity of
// predict / predict_with_derivatives / losses across batch sizes and
// decoder activations, and a finite-difference gradcheck of one batched
// trainer step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/losses.h"
#include "core/meshfree_flownet.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "tensor/tensor_ops.h"

#include "tape_decoder.h"

namespace mfn::core {
namespace {

MFNConfig tiny_model_config(nn::Activation act = nn::Activation::kSoftplus) {
  MFNConfig cfg = MFNConfig::small_default();
  cfg.unet.base_filters = 4;
  cfg.unet.out_channels = 8;
  cfg.unet.pools = {{1, 2, 2}};
  cfg.decoder.latent_channels = 8;
  cfg.decoder.hidden = {12, 12};
  cfg.decoder.activation = act;
  return cfg;
}

/// (N, Q, 3) interior query coords for a (LT, LZ, LX) = (4, 8, 8) patch.
Tensor batched_coords(std::int64_t N, std::int64_t Q, Rng& rng) {
  Tensor c(Shape{N, Q, 3});
  float* p = c.data();
  for (std::int64_t r = 0; r < N * Q; ++r) {
    p[r * 3 + 0] = static_cast<float>(rng.uniform(0.3, 2.7));
    p[r * 3 + 1] = static_cast<float>(rng.uniform(0.3, 6.7));
    p[r * 3 + 2] = static_cast<float>(rng.uniform(0.3, 6.7));
  }
  return c;
}

/// Sample-s slices of the stacked inputs, as the legacy batch-1 API takes.
Tensor patch_slice(const Tensor& lr, std::int64_t s) {
  const std::int64_t C = lr.dim(1), T = lr.dim(2), Z = lr.dim(3),
                     X = lr.dim(4);
  Tensor out = Tensor::uninitialized(Shape{1, C, T, Z, X});
  const std::int64_t n = C * T * Z * X;
  std::copy(lr.data() + s * n, lr.data() + (s + 1) * n, out.data());
  return out;
}

Tensor coord_slice(const Tensor& coords, std::int64_t s) {
  const std::int64_t Q = coords.dim(1);
  Tensor out = Tensor::uninitialized(Shape{Q, 3});
  std::copy(coords.data() + s * Q * 3, coords.data() + (s + 1) * Q * 3,
            out.data());
  return out;
}

class BatchedParity : public ::testing::TestWithParam<
                          std::tuple<std::int64_t, nn::Activation>> {};

TEST_P(BatchedParity, PredictMatchesPerSampleLoop) {
  const auto [N, act] = GetParam();
  Rng rng(101);
  MeshfreeFlowNet model(tiny_model_config(act), rng);
  // eval mode: batchnorm uses running statistics, so per-sample and
  // batched encodes see identical normalization
  model.set_training(false);
  const std::int64_t Q = 9;
  Tensor lr = Tensor::randn(Shape{N, 4, 4, 8, 8}, rng, 0.5f);
  Tensor coords = batched_coords(N, Q, rng);

  ad::NoGradGuard guard;
  ad::Var batched = model.predict(lr, coords);
  ASSERT_EQ(batched.shape(), (Shape{N * Q, 4}));
  for (std::int64_t s = 0; s < N; ++s) {
    ad::Var single = model.predict(patch_slice(lr, s), coord_slice(coords, s));
    for (std::int64_t q = 0; q < Q; ++q)
      for (int c = 0; c < 4; ++c)
        EXPECT_NEAR(batched.value().at({s * Q + q, c}),
                    single.value().at({q, c}), 2e-5f)
            << "sample " << s << " query " << q << " channel " << c;
  }
}

TEST_P(BatchedParity, DerivativesMatchPerSampleLoop) {
  const auto [N, act] = GetParam();
  Rng rng(202);
  MeshfreeFlowNet model(tiny_model_config(act), rng);
  model.set_training(false);
  const std::int64_t Q = 7;
  Tensor lr = Tensor::randn(Shape{N, 4, 4, 8, 8}, rng, 0.5f);
  Tensor coords = batched_coords(N, Q, rng);

  ad::NoGradGuard guard;
  DecodeDerivs batched = model.predict_with_derivatives(lr, coords);
  for (std::int64_t s = 0; s < N; ++s) {
    DecodeDerivs single = model.predict_with_derivatives(
        patch_slice(lr, s), coord_slice(coords, s));
    const ad::Var* bs[6] = {&batched.value, &batched.d_dt, &batched.d_dz,
                            &batched.d_dx, &batched.d2_dz2,
                            &batched.d2_dx2};
    const ad::Var* ss[6] = {&single.value, &single.d_dt, &single.d_dz,
                            &single.d_dx, &single.d2_dz2, &single.d2_dx2};
    for (int k = 0; k < 6; ++k)
      for (std::int64_t q = 0; q < Q; ++q)
        for (int c = 0; c < 4; ++c)
          EXPECT_NEAR(bs[k]->value().at({s * Q + q, c}),
                      ss[k]->value().at({q, c}), 5e-4f)
              << "stream " << k << " sample " << s << " query " << q
              << " channel " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchSizesAndActivations, BatchedParity,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 3, 8),
                       ::testing::Values(nn::Activation::kSoftplus,
                                         nn::Activation::kTanh,
                                         nn::Activation::kReLU)));

TEST(BatchedDecode, NoGradValuePassMatchesTapePath) {
  // decode() runs the fused kernel's value pass; the reference is the
  // decoder composed from tape ops (tape_decoder.h). The value pass
  // projects the blended last hidden layer once per query, so the two
  // agree within the derivative node's member gate: 1e-5 of the largest
  // entry.
  for (auto act : {nn::Activation::kSoftplus, nn::Activation::kTanh,
                   nn::Activation::kReLU}) {
    Rng rng(505);
    MeshfreeFlowNet model(tiny_model_config(act), rng);
    model.set_training(false);
    const std::int64_t N = 4, Q = 300;  // spans several 64-query blocks
    Tensor lr = Tensor::randn(Shape{N, 4, 4, 8, 8}, rng, 0.5f);
    Tensor coords = batched_coords(N, Q, rng);

    ad::Var latent = model.encode(lr);
    ad::Var taped = tape::decode(model.decoder().mlp(), latent, coords, Q);
    Tensor value_pass;
    {
      ad::NoGradGuard guard;
      value_pass = model.decoder().decode(latent, coords).value();
    }
    ASSERT_EQ(value_pass.shape(), taped.shape());
    double err = 0.0, scale = 0.0;
    for (std::int64_t i = 0; i < value_pass.numel(); ++i) {
      const double want = taped.value().data()[i];
      err = std::max(err, std::abs(value_pass.data()[i] - want));
      scale = std::max(scale, std::abs(want));
    }
    EXPECT_LT(err, 1e-5 * scale)
        << "no-grad decode drifted from the tape decode";
  }
}

TEST(BatchedLoss, BatchedLossMatchesPerSampleAverage) {
  // prediction and equation losses reduce over all N*Q rows, so the
  // batched loss equals the mean of the per-sample losses.
  Rng rng(303);
  MeshfreeFlowNet model(tiny_model_config(), rng);
  model.set_training(false);
  const std::int64_t N = 3, Q = 11;
  Tensor lr = Tensor::randn(Shape{N, 4, 4, 8, 8}, rng, 0.5f);
  Tensor coords = batched_coords(N, Q, rng);
  Tensor targets = Tensor::randn(Shape{N, Q, 4}, rng, 0.5f);

  EquationLossConfig eq;
  eq.constants = RBConstants::from_ra_pr(1e5, 1.0);
  eq.cell_size = {0.1, 0.125, 0.25};

  ad::NoGradGuard guard;
  DecodeDerivs d = model.predict_with_derivatives(lr, coords);
  const double lp_batched = prediction_loss(d.value, targets).value().item();
  const double le_batched = equation_loss(d, eq).total.value().item();

  double lp_acc = 0.0, le_acc = 0.0;
  for (std::int64_t s = 0; s < N; ++s) {
    DecodeDerivs ds = model.predict_with_derivatives(
        patch_slice(lr, s), coord_slice(coords, s));
    Tensor tgt = Tensor::uninitialized(Shape{Q, 4});
    std::copy(targets.data() + s * Q * 4, targets.data() + (s + 1) * Q * 4,
              tgt.data());
    lp_acc += prediction_loss(ds.value, tgt).value().item();
    le_acc += equation_loss(ds, eq).total.value().item();
  }
  EXPECT_NEAR(lp_batched, lp_acc / N, 1e-4);
  EXPECT_NEAR(le_batched, le_acc / N, std::abs(le_acc / N) * 1e-2 + 1e-4);
}

class BatchedTrainerStep : public ::testing::TestWithParam<double> {};

TEST_P(BatchedTrainerStep, GradcheckAgainstFiniteDifferences) {
  // One batched training step's gradient checked against central finite
  // differences on the first decoder-MLP weight matrix: at gamma = 0 the
  // step decodes through the value node, otherwise reverse mode runs
  // through the batched forward-mode derivative computation.
  const double gamma = GetParam();
  Rng rng(404);
  MFNConfig cfg = tiny_model_config();
  cfg.decoder.hidden = {8};
  MeshfreeFlowNet model(cfg, rng);
  model.set_training(false);  // deterministic normalization for the FD evals
  const std::int64_t N = 3, Q = 5;
  Tensor lr = Tensor::randn(Shape{N, 4, 4, 8, 8}, rng, 0.5f);
  Tensor coords = batched_coords(N, Q, rng);
  Tensor targets = Tensor::randn(Shape{N, Q, 4}, rng, 0.5f);

  EquationLossConfig eq;
  eq.constants = RBConstants::from_ra_pr(1e5, 1.0);
  eq.cell_size = {0.1, 0.125, 0.25};

  data::BatchedSample batch;
  batch.lr_patches = lr;
  batch.query_coords = coords;
  batch.targets = targets;

  auto loss_fn = [&]() {
    return batched_step_loss(model, batch, eq, gamma).loss;
  };
  auto params = model.decoder().parameters();
  for (auto* p : params) p->zero_grad();
  ad::backward(loss_fn());

  ad::Var* w0 = params[0];
  ASSERT_TRUE(w0->has_grad());
  const float eps = 1e-2f;
  int checked = 0;
  for (std::int64_t i = 0; i < std::min<std::int64_t>(w0->numel(), 10);
       ++i) {
    float* pw = w0->value().data();
    const float orig = pw[i];
    pw[i] = orig + eps;
    const float fp = loss_fn().value().item();
    pw[i] = orig - eps;
    const float fm = loss_fn().value().item();
    pw[i] = orig;
    EXPECT_NEAR((fp - fm) / (2 * eps), w0->grad().data()[i], 4e-2f)
        << "weight " << i;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Gammas, BatchedTrainerStep,
                         ::testing::Values(0.0, 0.0125));

TEST(BatchedSampler, SampleBatchShapesAndWrapper) {
  data::DatasetConfig dcfg;
  dcfg.solver.nx = 32;
  dcfg.solver.nz = 17;
  dcfg.solver.Ra = 1e5;
  dcfg.solver.seed = 9;
  dcfg.spinup_time = 4.0;
  dcfg.duration = 1.0;
  dcfg.num_snapshots = 8;
  data::SRPair pair =
      data::make_sr_pair(data::generate_rb_dataset(dcfg), 2, 2);

  data::PatchSamplerConfig pcfg;
  pcfg.patch_nt = 2;
  pcfg.patch_nz = 4;
  pcfg.patch_nx = 4;
  pcfg.queries_per_patch = 6;
  data::PatchSampler sampler(pair, pcfg);

  Rng rng(5);
  data::BatchedSample b = sampler.sample_batch(5, rng, /*with_hr=*/true);
  EXPECT_EQ(b.lr_patches.shape(), (Shape{5, 4, 2, 4, 4}));
  EXPECT_EQ(b.query_coords.shape(), (Shape{5, 6, 3}));
  EXPECT_EQ(b.targets.shape(), (Shape{5, 6, 4}));
  EXPECT_EQ(b.hr_patches.shape(), (Shape{5, 4, 4, 8, 8}));
  // HR extraction is opt-in: the training hot path leaves it undefined
  Rng rng2(5);
  data::BatchedSample lean = sampler.sample_batch(2, rng2);
  EXPECT_FALSE(lean.hr_patches.defined());
  EXPECT_EQ(b.batch(), 5);
  EXPECT_EQ(b.queries(), 6);
  // coords stay inside the patch
  for (std::int64_t r = 0; r < 5 * 6; ++r) {
    EXPECT_GE(b.query_coords.data()[r * 3 + 0], 0.0f);
    EXPECT_LE(b.query_coords.data()[r * 3 + 0], 1.0f);  // lt - 1
    EXPECT_LE(b.query_coords.data()[r * 3 + 1], 3.0f);  // lz - 1
  }

  // the single-sample wrapper keeps the legacy shapes
  data::SampleBatch s = sampler.sample(rng);
  EXPECT_EQ(s.lr_patch.shape(), (Shape{1, 4, 2, 4, 4}));
  EXPECT_EQ(s.query_coords.shape(), (Shape{6, 3}));
  EXPECT_EQ(s.target.shape(), (Shape{6, 4}));
}

TEST(BatchedTrainer, MinibatchTrainingReducesLoss) {
  data::DatasetConfig dcfg;
  dcfg.solver.nx = 32;
  dcfg.solver.nz = 17;
  dcfg.solver.Ra = 1e5;
  dcfg.solver.seed = 11;
  dcfg.spinup_time = 4.0;
  dcfg.duration = 1.0;
  dcfg.num_snapshots = 8;
  data::SRPair pair =
      data::make_sr_pair(data::generate_rb_dataset(dcfg), 2, 2);

  data::PatchSamplerConfig pcfg;
  pcfg.patch_nt = 2;
  pcfg.patch_nz = 4;
  pcfg.patch_nx = 4;
  pcfg.queries_per_patch = 24;
  data::PatchSampler sampler(pair, pcfg);

  EquationLossConfig eq;
  eq.constants = RBConstants::from_ra_pr(1e5, 1.0);
  eq.cell_size = sampler.lr_cell_size();
  eq.stats = pair.stats;

  Rng rng(12);
  MeshfreeFlowNet model(tiny_model_config(), rng);
  TrainerConfig tcfg;
  tcfg.epochs = 4;
  tcfg.batches_per_epoch = 4;
  tcfg.batch_size = 4;  // true minibatch steps
  tcfg.gamma = 0.0125;
  tcfg.adam.lr = 3e-3;
  Trainer trainer(model, sampler, eq, tcfg);
  const auto& hist = trainer.train();
  ASSERT_EQ(hist.size(), 4u);
  EXPECT_LT(hist.back().total_loss, hist.front().total_loss);
  for (const auto& h : hist)
    EXPECT_TRUE(std::isfinite(h.total_loss));
}

}  // namespace
}  // namespace mfn::core
