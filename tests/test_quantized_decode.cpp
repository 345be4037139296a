// Reduced-precision decode tiers (bf16 / int8 behind the prepacked-plan
// seam): quantized prepack contents, plan-vs-fp32-tape parity within each
// tier's documented bound across the shape grid, bitwise-identical replay
// across thread counts per tier, forced-scalar vs SIMD kernel parity
// (int8 bitwise, bf16 tolerance — the sse2 tier's unfused multiply-add
// rounds differently than scalar fmaf), per-precision plan-cache entries +
// hot-swap invalidation, fp32 fallback visibility for decoders too wide
// for the reduced-tier panels,
// and the reconstruction-MSE accuracy gate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "autodiff/variable.h"
#include "backend/sgemm.h"
#include "backend/simd.h"
#include "core/decode_plan.h"
#include "core/meshfree_flownet.h"
#include "serve/engine.h"
#include "threading/thread_pool.h"

#include "tape_decoder.h"

namespace mfn {
namespace {

// Real concurrency even on single-core hosts (runs before the first
// ThreadPool::global() touch). An explicit MFN_NUM_THREADS wins.
const bool kForcePool = [] {
  setenv("MFN_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

std::unique_ptr<core::MeshfreeFlowNet> make_model(std::uint64_t seed) {
  Rng rng(seed);
  auto model = std::make_unique<core::MeshfreeFlowNet>(
      core::MFNConfig::small_default(), rng);
  model->set_training(false);
  return model;
}

constexpr std::int64_t kLT = 4, kLZ = 8, kLX = 8;

Tensor make_latent(Rng& rng, std::int64_t n, std::int64_t channels) {
  return Tensor::randn(Shape{n, channels, kLT, kLZ, kLX}, rng, 0.5f);
}

Tensor make_coords(Rng& rng, std::int64_t n, std::int64_t q, bool flat) {
  Tensor c = flat ? Tensor::uninitialized(Shape{n * q, 3})
                  : Tensor::uninitialized(Shape{n, q, 3});
  for (std::int64_t b = 0; b < n * q; ++b) {
    c.data()[b * 3 + 0] = static_cast<float>(rng.uniform(-0.5, kLT - 0.5));
    c.data()[b * 3 + 1] = static_cast<float>(rng.uniform(-0.5, kLZ - 0.5));
    c.data()[b * 3 + 2] = static_cast<float>(rng.uniform(-0.5, kLX - 0.5));
  }
  return c;
}

// The plans' oracle: the decoder composed from tape ops
// (tape_decoder.h). `coords` is (n, q, 3) or, for n = 1, (q, 3).
Tensor tape_decode(core::MeshfreeFlowNet& model, const Tensor& latent,
                   const Tensor& coords) {
  ad::Var lv(latent, /*requires_grad=*/false);
  const std::int64_t q = coords.numel() / 3 / latent.dim(0);
  return tape::decode(model.decoder().mlp(), lv, coords, q).value();
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) *
                               sizeof(float)))
      << what << ": outputs are not bit-identical";
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a.data()[i]) -
                             static_cast<double>(b.data()[i])));
  return m;
}

// Documented per-tier bounds on |planned - fp32 tape| for the
// small_default decoder. bf16 weights carry <= 2^-9 relative rounding
// each; int8 adds per-row activation quantization (<= 1/254 relative) and
// per-column weight quantization. Both compound over 3 layers and scale
// with the activation magnitude (encoder-produced latents run hotter than
// unit randn — measured worst cases land near 0.07 / 0.1).
constexpr double kBf16Bound = 0.1;
constexpr double kInt8Bound = 0.25;

double tier_bound(backend::Precision p) {
  return p == backend::Precision::kBf16 ? kBf16Bound : kInt8Bound;
}

// --------------------------------------------------- quantized prepacking

TEST(QuantizedPrepack, SnapshotCarriesAllTiers) {
  auto model = make_model(301);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  ASSERT_TRUE(snap->reduced_tiers());
  for (const auto& layer : snap->layers()) {
    EXPECT_EQ(layer.packed_bf16.size(),
              backend::sgemm_prepack_b_bf16_elems(layer.in, layer.out));
    EXPECT_FALSE(layer.packed_i8.empty());
    EXPECT_EQ(layer.w8.size(),
              static_cast<std::size_t>(layer.in * layer.out));
    ASSERT_EQ(layer.scales.size(), static_cast<std::size_t>(layer.out));
    for (std::int64_t j = 0; j < layer.out; ++j) {
      // Symmetric per-output-column scale: maxabs/127 reconstructs the
      // column's largest weight from the int8 extreme.
      float maxabs = 0.0f;
      for (std::int64_t k = 0; k < layer.in; ++k)
        maxabs = std::max(maxabs,
                          std::abs(layer.weight[static_cast<std::size_t>(
                              j * layer.in + k)]));
      EXPECT_NEAR(layer.scales[static_cast<std::size_t>(j)],
                  maxabs / 127.0f, 1e-9);
    }
  }
}

TEST(QuantizedPrepack, TooWideLayerDisablesTheReducedTiers) {
  core::MFNConfig cfg = core::MFNConfig::small_default();
  cfg.decoder.hidden = {400, 16};  // K = 400 > sgemm_prepacked_max_k()
  ASSERT_GT(400, backend::sgemm_prepacked_max_k());
  Rng rng(311);
  core::MeshfreeFlowNet model(cfg, rng);
  auto snap = core::PreparedSnapshot::prepare(model, 1);
  EXPECT_FALSE(snap->reduced_tiers());
  EXPECT_NE(core::DecodePlan::compile(
                snap, core::PlanKey{1, 1, 16, kLT, kLZ, kLX}),
            nullptr)
      << "fp32 plans have no width limit";
  for (const backend::Precision prec :
       {backend::Precision::kBf16, backend::Precision::kInt8}) {
    EXPECT_EQ(core::DecodePlan::compile(
                  snap, core::PlanKey{1, 1, 16, kLT, kLZ, kLX, prec}),
              nullptr)
        << backend::precision_name(prec);
  }
}

// ------------------------------------------- plan-vs-fp32-tape parity grid

class QuantizedParity
    : public ::testing::TestWithParam<backend::Precision> {};

TEST_P(QuantizedParity, MatchesTapeWithinTierBoundAcrossShapes) {
  const backend::Precision prec = GetParam();
  auto model = make_model(321);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  ASSERT_TRUE(snap->reduced_tiers());
  Rng rng(322);
  for (std::int64_t n : {1, 3, 8}) {
    for (std::int64_t q : {1, 255, 256, 1000}) {
      const Tensor latent = make_latent(rng, n, snap->latent_channels());
      const Tensor coords = make_coords(rng, n, q, /*flat=*/n == 1);
      auto plan = core::DecodePlan::compile(
          snap, core::PlanKey{1, n, q, kLT, kLZ, kLX, prec});
      ASSERT_NE(plan, nullptr) << "n=" << n << " q=" << q;
      const Tensor got = plan->execute(latent, coords);
      const Tensor want = tape_decode(*model, latent, coords);
      ASSERT_EQ(got.dim(0), n * q);
      SCOPED_TRACE(::testing::Message()
                   << backend::precision_name(prec) << " n=" << n
                   << " q=" << q);
      const double err = max_abs_diff(got, want);
      EXPECT_LT(err, tier_bound(prec));
      // A tier that silently fell back to fp32 would be bitwise equal;
      // the reduced tiers must actually compute in reduced precision.
      EXPECT_GT(err, 0.0) << "reduced tier produced bitwise-fp32 output";
    }
  }
}

TEST_P(QuantizedParity, ReplayBitIdenticalAcrossThreadCounts) {
  ASSERT_GE(ThreadPool::global().size(), 2) << "needs a multi-thread pool";
  const backend::Precision prec = GetParam();
  auto model = make_model(331);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  Rng rng(332);
  const Tensor latent = make_latent(rng, 2, snap->latent_channels());
  const Tensor coords = make_coords(rng, 2, 700, /*flat=*/false);
  auto plan = core::DecodePlan::compile(
      snap, core::PlanKey{1, 2, 700, kLT, kLZ, kLX, prec});
  ASSERT_NE(plan, nullptr);

  // Serial side: every parallel_for runs inline (computationally a
  // 1-thread pool); parallel side fans out across the 4-thread pool. The reduced tiers pin the same bitwise thread-count
  // invariance as fp32 — only the tape comparison is tolerance-based.
  const Tensor serial = [&] {
    ScopedInlineLoops inline_loops;
    return plan->execute(latent, coords);
  }();
  const Tensor parallel = plan->execute(latent, coords);
  expect_bitwise_equal(serial, parallel, "serial vs pooled replay");
}

TEST_P(QuantizedParity, DerivativeBundleFallsBackToFp32) {
  // execute_derivatives always runs the fp32 forward-mode stream — a
  // reduced-precision plan's derivative bundle must match the decoder's
  // exactly as tightly as an fp32 plan's.
  const backend::Precision prec = GetParam();
  auto model = make_model(341);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  Rng rng(342);
  const std::int64_t n = 2, q = 150;
  const Tensor latent = make_latent(rng, n, snap->latent_channels());
  const Tensor coords = make_coords(rng, n, q, /*flat=*/false);
  auto plan = core::DecodePlan::compile(
      snap, core::PlanKey{1, n, q, kLT, kLZ, kLX, prec});
  ASSERT_NE(plan, nullptr);

  const core::PlannedDerivs got = plan->execute_derivatives(latent, coords);
  ad::NoGradGuard no_grad;
  ad::Var lv(latent, /*requires_grad=*/false);
  const core::DecodeDerivs want =
      model->decoder().decode_with_derivatives(lv, coords);
  EXPECT_LT(max_abs_diff(got.value, want.value.value()), 2e-4);
  EXPECT_LT(max_abs_diff(got.d_dt, want.d_dt.value()), 2e-4);
  EXPECT_LT(max_abs_diff(got.d2_dz2, want.d2_dz2.value()), 2e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, QuantizedParity,
    ::testing::Values(backend::Precision::kBf16, backend::Precision::kInt8),
    [](const ::testing::TestParamInfo<backend::Precision>& info) {
      return std::string(backend::precision_name(info.param));
    });

// ------------------------------------------ forced-scalar vs SIMD kernels

struct ScalarGuard {
  bool was = simd::force_scalar();
  ~ScalarGuard() { simd::set_force_scalar(was); }
};

TEST(QuantizedKernels, Int8ScalarOracleIsBitwiseIdenticalToSimd) {
  // int32 accumulation is order-exact and the dequant epilogue mirrors the
  // SIMD op order lane-for-lane, so the dense-weight scalar oracle and the
  // pair-interleaved SIMD panels must agree to the bit.
  ScalarGuard guard;
  Rng rng(401);
  for (std::int64_t K : {19, 128, 384}) {
    const std::int64_t M = 37, N = 32;
    std::vector<float> A(static_cast<std::size_t>(M * K));
    std::vector<float> B(static_cast<std::size_t>(N * K));
    std::vector<float> bias(static_cast<std::size_t>(N));
    for (auto& v : A) v = static_cast<float>(rng.normal());
    for (auto& v : B) v = static_cast<float>(rng.normal()) * 0.3f;
    for (auto& v : bias) v = static_cast<float>(rng.normal()) * 0.1f;

    std::vector<std::int16_t> Bp(backend::sgemm_prepack_b_int8_elems(K, N));
    std::vector<std::int8_t> Wdense(static_cast<std::size_t>(N * K));
    std::vector<float> col_scales(static_cast<std::size_t>(N));
    backend::sgemm_prepack_b_int8(backend::Trans::kYes, K, N, B.data(),
                                  Bp.data(), Wdense.data(),
                                  col_scales.data());
    std::vector<std::int16_t> Aq(backend::quantize_rows_i16_elems(M, K));
    std::vector<float> row_scales(static_cast<std::size_t>(M));
    backend::quantize_rows_i16(M, K, A.data(), Aq.data(),
                               row_scales.data());

    std::vector<float> c_simd(static_cast<std::size_t>(M * N));
    std::vector<float> c_scalar(static_cast<std::size_t>(M * N));
    simd::set_force_scalar(false);
    backend::sgemm_int8_prepacked_nt(
        M, N, K, Aq.data(), row_scales.data(), Bp.data(), Wdense.data(),
        col_scales.data(), bias.data(), backend::FusedAct::kSoftplus,
        c_simd.data());
    simd::set_force_scalar(true);
    backend::sgemm_int8_prepacked_nt(
        M, N, K, Aq.data(), row_scales.data(), Bp.data(), Wdense.data(),
        col_scales.data(), bias.data(), backend::FusedAct::kSoftplus,
        c_scalar.data());
    EXPECT_EQ(0, std::memcmp(c_simd.data(), c_scalar.data(),
                             c_simd.size() * sizeof(float)))
        << "K=" << K;
  }
}

TEST(QuantizedKernels, Bf16ScalarVsSimdWithinTolerance) {
  // The scalar bf16 path accumulates with fmaf; fused-FMA vector tiers
  // match it bitwise, the sse2 tier's separate multiply+add rounds twice —
  // so this parity is tolerance-pinned, not bitwise.
  ScalarGuard guard;
  Rng rng(411);
  for (std::int64_t K : {19, 128, 384}) {
    const std::int64_t M = 37, N = 32;
    std::vector<float> A(static_cast<std::size_t>(M * K));
    std::vector<float> B(static_cast<std::size_t>(N * K));
    std::vector<float> bias(static_cast<std::size_t>(N));
    for (auto& v : A) v = static_cast<float>(rng.normal());
    for (auto& v : B) v = static_cast<float>(rng.normal()) * 0.3f;
    for (auto& v : bias) v = static_cast<float>(rng.normal()) * 0.1f;

    std::vector<std::uint16_t> Bp(
        backend::sgemm_prepack_b_bf16_elems(K, N));
    backend::sgemm_prepack_b_bf16(backend::Trans::kYes, K, N, B.data(),
                                  Bp.data());
    std::vector<float> c_simd(static_cast<std::size_t>(M * N));
    std::vector<float> c_scalar(static_cast<std::size_t>(M * N));
    simd::set_force_scalar(false);
    backend::sgemm_bf16_prepacked_nt(M, N, K, A.data(), Bp.data(),
                                     bias.data(), c_simd.data());
    simd::set_force_scalar(true);
    backend::sgemm_bf16_prepacked_nt(M, N, K, A.data(), Bp.data(),
                                     bias.data(), c_scalar.data());
    double m = 0.0;
    for (std::size_t i = 0; i < c_simd.size(); ++i)
      m = std::max(m, std::abs(static_cast<double>(c_simd[i]) -
                               static_cast<double>(c_scalar[i])));
    EXPECT_LT(m, 1e-3) << "K=" << K;
  }
}

TEST(QuantizedKernels, ForcedScalarPlanReplayStaysInTierBound) {
  // Whole-plan forced-scalar replay: every reduced-precision kernel (and
  // the gather/blend around them) on its scalar path must still land
  // inside the tier's tape bound.
  ScalarGuard guard;
  auto model = make_model(421);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  Rng rng(422);
  const Tensor latent = make_latent(rng, 3, snap->latent_channels());
  const Tensor coords = make_coords(rng, 3, 300, /*flat=*/false);
  const Tensor want = tape_decode(*model, latent, coords);
  for (const backend::Precision prec :
       {backend::Precision::kBf16, backend::Precision::kInt8}) {
    auto plan = core::DecodePlan::compile(
        snap, core::PlanKey{1, 3, 300, kLT, kLZ, kLX, prec});
    ASSERT_NE(plan, nullptr);
    simd::set_force_scalar(true);
    const Tensor got = plan->execute(latent, coords);
    simd::set_force_scalar(guard.was);
    EXPECT_LT(max_abs_diff(got, want), tier_bound(prec))
        << backend::precision_name(prec);
  }
}

// -------------------------------------- per-precision plan-cache keying

TEST(QuantizedPlanCache, PrecisionIsPartOfThePlanKey) {
  auto model = make_model(431);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  core::PlanCache cache;

  auto p_fp32 = cache.get_or_compile(snap, 1, 64, kLT, kLZ, kLX);
  auto p_bf16 = cache.get_or_compile(snap, 1, 64, kLT, kLZ, kLX,
                                     backend::Precision::kBf16);
  auto p_int8 = cache.get_or_compile(snap, 1, 64, kLT, kLZ, kLX,
                                     backend::Precision::kInt8);
  ASSERT_NE(p_fp32, nullptr);
  ASSERT_NE(p_bf16, nullptr);
  ASSERT_NE(p_int8, nullptr);
  EXPECT_NE(p_fp32.get(), p_bf16.get());
  EXPECT_NE(p_bf16.get(), p_int8.get());
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().compiles, 3u);

  // Same (shape, precision) hits the same compiled object.
  EXPECT_EQ(cache
                .get_or_compile(snap, 1, 64, kLT, kLZ, kLX,
                                backend::Precision::kInt8)
                .get(),
            p_int8.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(QuantizedPlanCache, HotSwapDropsStaleQuantizedPlans) {
  auto model = make_model(441);
  auto snap_v1 = core::PreparedSnapshot::prepare(*model, 1);
  auto snap_v2 = core::PreparedSnapshot::prepare(*model, 2);
  core::PlanCache cache;
  ASSERT_NE(cache.get_or_compile(snap_v1, 1, 32, kLT, kLZ, kLX,
                                 backend::Precision::kBf16),
            nullptr);
  ASSERT_NE(cache.get_or_compile(snap_v1, 1, 32, kLT, kLZ, kLX,
                                 backend::Precision::kInt8),
            nullptr);
  ASSERT_NE(cache.get_or_compile(snap_v2, 1, 32, kLT, kLZ, kLX,
                                 backend::Precision::kInt8),
            nullptr);
  EXPECT_EQ(cache.stats().entries, 3u);

  cache.drop_stale_versions(2);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().invalidations, 2u);

  // A racing quantized compile against the retired version still returns
  // a correct plan but cannot re-enter the cache (monotonic floor).
  auto stale = cache.get_or_compile(snap_v1, 1, 48, kLT, kLZ, kLX,
                                    backend::Precision::kInt8);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->key().version, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ------------------------------------------------ serving tier routing

TEST(QuantizedServe, EngineRoutesAndRecordsTheServedTier) {
  auto model = make_model(451);
  core::MeshfreeFlowNet* raw = model.get();
  Rng rng(452);
  const Tensor patch = Tensor::randn(Shape{1, 4, kLT, kLZ, kLX}, rng, 0.5f);
  const Tensor coords = make_coords(rng, 1, 300, /*flat=*/true);
  ad::NoGradGuard no_grad;
  const Tensor want = raw->predict(patch, coords).value();

  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.max_wait_us = 0;
  ecfg.decode_precision = backend::Precision::kInt8;
  serve::InferenceEngine engine(std::move(model), ecfg);

  // Default tier: int8 plan replay, within the tier bound but not bitwise.
  const Tensor got_i8 = engine.query_sync(1, patch, coords);
  EXPECT_LT(max_abs_diff(got_i8, want), kInt8Bound);
  EXPECT_NE(0, std::memcmp(got_i8.data(), want.data(),
                           static_cast<std::size_t>(want.numel()) *
                               sizeof(float)))
      << "int8-tier serve silently fell back to fp32";
  // Per-request overrides: bf16, and explicit fp32, bitwise the no-grad
  // predict (both run the value pass).
  const Tensor got_bf16 =
      engine.query_sync(1, patch, coords, backend::Precision::kBf16);
  EXPECT_LT(max_abs_diff(got_bf16, want), kBf16Bound);
  const Tensor got_fp32 =
      engine.query_sync(1, patch, coords, backend::Precision::kFp32);
  expect_bitwise_equal(got_fp32, want, "fp32 override vs no-grad predict");

  const auto bs = engine.batcher_stats();
  EXPECT_EQ(bs.planned_decodes, 3u);
  EXPECT_EQ(bs.tape_decodes, 0u);
  EXPECT_EQ(bs.planned_int8, 1u);
  EXPECT_EQ(bs.planned_bf16, 1u);
  EXPECT_EQ(bs.precision_fallbacks, 0u);
  // One plan per precision tier in the shared cache.
  EXPECT_EQ(engine.plan_stats().entries, 3u);
}

TEST(QuantizedServe, UnplannableShapeFallsBackVisiblyToFp32) {
  core::MFNConfig cfg = core::MFNConfig::small_default();
  cfg.decoder.hidden = {400, 16};  // beyond sgemm_prepacked_max_k()
  Rng rng(461);
  auto model = std::make_unique<core::MeshfreeFlowNet>(cfg, rng);
  model->set_training(false);
  core::MeshfreeFlowNet* raw = model.get();
  const Tensor patch = Tensor::randn(Shape{1, 4, kLT, kLZ, kLX}, rng, 0.5f);
  const Tensor coords = make_coords(rng, 1, 64, /*flat=*/true);
  ad::NoGradGuard no_grad;
  const Tensor want = raw->predict(patch, coords).value();

  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.max_wait_us = 0;
  ecfg.decode_precision = backend::Precision::kInt8;
  serve::InferenceEngine engine(std::move(model), ecfg);
  const Tensor got = engine.query_sync(1, patch, coords);
  // The fp32 plan serves the fallback, bitwise the no-grad predict, and
  // the fallback is recorded, never silent.
  expect_bitwise_equal(got, want, "fallback serve vs no-grad predict");
  const auto bs = engine.batcher_stats();
  EXPECT_EQ(bs.planned_decodes, 1u);
  EXPECT_EQ(bs.tape_decodes, 0u);
  EXPECT_EQ(bs.planned_int8, 0u);
  EXPECT_EQ(bs.precision_fallbacks, 1u);
  EXPECT_EQ(engine.plan_stats().entries, 1u);  // the fp32 plan only
}

// --------------------------------------------------------- accuracy gate

TEST(QuantizedAccuracy, Int8DegradesReconstructionMseUnderOnePercent) {
  auto model = make_model(471);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  Rng rng(472);
  const std::int64_t n = 8, q = 512;
  const Tensor latent = make_latent(rng, n, snap->latent_channels());
  const Tensor coords = make_coords(rng, n, q, /*flat=*/false);

  auto mse_vs = [](const Tensor& pred, const Tensor& tgt) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < pred.numel(); ++i) {
      const double d = static_cast<double>(pred.data()[i]) -
                       static_cast<double>(tgt.data()[i]);
      acc += d * d;
    }
    return acc / static_cast<double>(pred.numel());
  };

  auto plan_fp32 = core::DecodePlan::compile(
      snap, core::PlanKey{1, n, q, kLT, kLZ, kLX});
  ASSERT_NE(plan_fp32, nullptr);
  const Tensor pred_fp32 = plan_fp32->execute(latent, coords);
  const Tensor targets = Tensor::randn(pred_fp32.shape(), rng, 0.5f);
  const double mse_fp32 = mse_vs(pred_fp32, targets);
  ASSERT_GT(mse_fp32, 0.0);

  for (const backend::Precision prec :
       {backend::Precision::kBf16, backend::Precision::kInt8}) {
    auto plan = core::DecodePlan::compile(
        snap, core::PlanKey{1, n, q, kLT, kLZ, kLX, prec});
    ASSERT_NE(plan, nullptr);
    const double mse = mse_vs(plan->execute(latent, coords), targets);
    const double rel = std::abs(mse - mse_fp32) / mse_fp32;
    EXPECT_LT(rel, 0.01) << backend::precision_name(prec)
                         << " reconstruction MSE moved " << rel * 100.0
                         << "% relative to fp32 (gate is < 1%)";
  }
}

}  // namespace
}  // namespace mfn
