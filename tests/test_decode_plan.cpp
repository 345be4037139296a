// Compiled decode plans (src/core/decode_plan.*): prepared-snapshot
// prepacking, fp32 plans against the tape (within the member gate) and
// the no-grad decode() (bitwise) across shapes, widths and thread counts,
// the no-grad decode() itself (no side effects on the model, concurrent
// callers), zero steady-state heap allocation, plan-cache LRU/versioning
// discipline, and the serving integration (engine/batcher routing,
// hot-swap invalidation, concurrent compile+replay+swap for TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "autodiff/variable.h"
#include "backend/workspace.h"
#include "core/decode_plan.h"
#include "core/meshfree_flownet.h"
#include "serve/engine.h"
#include "serve/query_batcher.h"
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

// Coords spanning the grid interior plus the clamped boundary cells.
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

Tensor no_grad_decode(core::MeshfreeFlowNet& model, const Tensor& latent,
                      const Tensor& coords) {
  ad::NoGradGuard no_grad;
  ad::Var lv(latent, /*requires_grad=*/false);
  return model.decoder().decode(lv, coords).value();
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

// The value decode's gate against the tape, the derivative node's member
// gate: max |got - want| below 1e-5 of max |want|.
void expect_within_member_gate(const Tensor& got, const Tensor& want,
                               const char* what) {
  double scale = 0.0;
  for (std::int64_t i = 0; i < want.numel(); ++i)
    scale = std::max(scale, std::abs(static_cast<double>(want.data()[i])));
  EXPECT_LT(max_abs_diff(got, want), 1e-5 * scale) << what;
}

// ------------------------------------------------------- PreparedSnapshot

TEST(PreparedSnapshot, PrepareClonesAndPrepacksDecoder) {
  auto model = make_model(101);
  auto snap = core::PreparedSnapshot::prepare(*model, 7);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 7u);
  EXPECT_TRUE(snap->reduced_tiers());
  EXPECT_EQ(snap->latent_channels(), 16);
  EXPECT_EQ(snap->out_channels(), 4);
  // small_default decoder: (3+16) -> 32 -> 32 -> 4.
  ASSERT_EQ(snap->layers().size(), 3u);
  EXPECT_EQ(snap->layers()[0].in, 19);
  EXPECT_EQ(snap->layers()[0].out, 32);
  EXPECT_EQ(snap->layers()[2].out, 4);
  for (const auto& layer : snap->layers()) {
    EXPECT_EQ(layer.weight.size(),
              static_cast<std::size_t>(layer.in * layer.out));
    EXPECT_FALSE(layer.packed_bf16.empty());
    EXPECT_FALSE(layer.packed_i8.empty());
  }
}

TEST(PreparedSnapshot, TooWideLayerPlansAtFp32Only) {
  // A hidden layer wider than the single-k-block prepack range: the
  // snapshot prepares (weights cloned) without the reduced-tier panels,
  // so only fp32 plans compile.
  core::MFNConfig cfg = core::MFNConfig::small_default();
  cfg.decoder.hidden = {400, 16};
  Rng rng(111);
  core::MeshfreeFlowNet model(cfg, rng);
  auto snap = core::PreparedSnapshot::prepare(model, 1);
  ASSERT_NE(snap, nullptr);
  EXPECT_FALSE(snap->reduced_tiers());
  core::PlanKey key{1, 1, 16, kLT, kLZ, kLX};
  EXPECT_NE(core::DecodePlan::compile(snap, key), nullptr);
  key.precision = backend::Precision::kBf16;
  EXPECT_EQ(core::DecodePlan::compile(snap, key), nullptr);
  key.precision = backend::Precision::kInt8;
  EXPECT_EQ(core::DecodePlan::compile(snap, key), nullptr);
  core::PlanCache cache;
  EXPECT_NE(cache.get_or_compile(snap, 1, 16, kLT, kLZ, kLX), nullptr);
  EXPECT_EQ(cache.get_or_compile(snap, 1, 16, kLT, kLZ, kLX,
                                 backend::Precision::kInt8),
            nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);  // nullptr results are not cached
}

// -------------------------------------------------- plan-vs-tape parity

// An fp32 plan runs the value pass over the snapshot's weights: within
// the member gate of the tape, and bitwise the no-grad decode(), which
// runs the same pass over the live MLP.
TEST(DecodePlan, MatchesTapeAcrossShapes) {
  auto model = make_model(121);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  Rng rng(122);
  for (std::int64_t n : {1, 3, 8}) {
    for (std::int64_t q : {1, 255, 256, 1000}) {
      const Tensor latent = make_latent(rng, n, snap->latent_channels());
      // n == 1 also exercises the flat (B, 3) layout the batcher's
      // concatenated units submit.
      const Tensor coords = make_coords(rng, n, q, /*flat=*/n == 1);
      auto plan = core::DecodePlan::compile(
          snap, core::PlanKey{1, n, q, kLT, kLZ, kLX});
      ASSERT_NE(plan, nullptr) << "n=" << n << " q=" << q;
      const Tensor got = plan->execute(latent, coords);
      const Tensor want = tape_decode(*model, latent, coords);
      EXPECT_EQ(got.dim(0), n * q);
      EXPECT_EQ(got.dim(1), snap->out_channels());
      SCOPED_TRACE(::testing::Message() << "n=" << n << " q=" << q);
      expect_within_member_gate(got, want, "plan vs tape");
      expect_bitwise_equal(got, no_grad_decode(*model, latent, coords),
                           "plan vs no-grad decode");
    }
  }
}

// Replay must be bit-identical whatever MFN_NUM_THREADS is: the serial
// side runs every parallel_for inline (computationally a 1-thread pool),
// the parallel side fans out across the 4-thread pool this binary pins.
TEST(DecodePlan, ReplayBitIdenticalAcrossThreadCounts) {
  ASSERT_GE(ThreadPool::global().size(), 2) << "needs a multi-thread pool";
  auto model = make_model(131);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  Rng rng(132);
  const Tensor latent = make_latent(rng, 2, snap->latent_channels());
  const Tensor coords = make_coords(rng, 2, 700, /*flat=*/false);
  auto plan = core::DecodePlan::compile(
      snap, core::PlanKey{1, 2, 700, kLT, kLZ, kLX});
  ASSERT_NE(plan, nullptr);

  const Tensor serial = [&] {
    ScopedInlineLoops inline_loops;
    return plan->execute(latent, coords);
  }();
  const Tensor parallel = plan->execute(latent, coords);
  expect_bitwise_equal(serial, parallel, "serial vs pooled replay");
}

TEST(DecodePlan, DerivativeReplayMatchesTapeBundle) {
  auto model = make_model(141);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  Rng rng(142);
  const std::int64_t n = 2, q = 150;
  const Tensor latent = make_latent(rng, n, snap->latent_channels());
  const Tensor coords = make_coords(rng, n, q, /*flat=*/false);
  auto plan = core::DecodePlan::compile(
      snap, core::PlanKey{1, n, q, kLT, kLZ, kLX});
  ASSERT_NE(plan, nullptr);

  const core::PlannedDerivs got = plan->execute_derivatives(latent, coords);
  ad::NoGradGuard no_grad;
  ad::Var lv(latent, /*requires_grad=*/false);
  const core::DecodeDerivs want =
      model->decoder().decode_with_derivatives(lv, coords);

  // The plan replays the derivative node's forward over its snapshot's
  // own weights; the bundle is pinned within tolerance.
  EXPECT_LT(max_abs_diff(got.value, want.value.value()), 2e-4);
  EXPECT_LT(max_abs_diff(got.d_dt, want.d_dt.value()), 2e-4);
  EXPECT_LT(max_abs_diff(got.d_dz, want.d_dz.value()), 2e-4);
  EXPECT_LT(max_abs_diff(got.d_dx, want.d_dx.value()), 2e-4);
  EXPECT_LT(max_abs_diff(got.d2_dz2, want.d2_dz2.value()), 2e-3);
  EXPECT_LT(max_abs_diff(got.d2_dx2, want.d2_dx2.value()), 2e-3);
}

// ------------------------------------------------------ no-grad decode()

TEST(NoGradDecode, MatchesTheTapeAcrossActivationsAndWidths) {
  using Hidden = std::vector<std::int64_t>;
  for (auto act : {nn::Activation::kSoftplus, nn::Activation::kTanh,
                   nn::Activation::kReLU}) {
    for (const Hidden& hidden :
         {Hidden{8}, Hidden{16, 16}, Hidden{64, 64}, Hidden{384, 384}}) {
      core::MFNConfig cfg = core::MFNConfig::small_default();
      cfg.decoder.hidden = hidden;
      cfg.decoder.activation = act;
      Rng rng(231);
      core::MeshfreeFlowNet model(cfg, rng);
      model.set_training(false);
      for (std::int64_t n : {1, 3}) {
        for (std::int64_t q : {7, 257, 300}) {
          const Tensor latent = make_latent(rng, n, 16);
          const Tensor coords = make_coords(rng, n, q, /*flat=*/n == 1);
          SCOPED_TRACE(::testing::Message()
                       << "act=" << static_cast<int>(act)
                       << " width=" << hidden.front() << " n=" << n
                       << " q=" << q);
          expect_within_member_gate(no_grad_decode(model, latent, coords),
                                    tape_decode(model, latent, coords),
                                    "no-grad decode vs tape");
        }
      }
    }
  }
}

TEST(NoGradDecode, WideDecoderMatchesTheTapeAndItsFp32Plan) {
  core::MFNConfig cfg = core::MFNConfig::small_default();
  cfg.decoder.hidden = {400, 16};  // as in TooWideLayerPlansAtFp32Only
  Rng rng(241);
  core::MeshfreeFlowNet model(cfg, rng);
  auto snap = core::PreparedSnapshot::prepare(model, 1);
  const Tensor latent = make_latent(rng, 2, 16);
  const Tensor coords = make_coords(rng, 2, 100, /*flat=*/false);
  auto plan = core::DecodePlan::compile(
      snap, core::PlanKey{1, 2, 100, kLT, kLZ, kLX});
  ASSERT_NE(plan, nullptr);
  const Tensor got = no_grad_decode(model, latent, coords);
  expect_within_member_gate(got, tape_decode(model, latent, coords),
                            "wide no-grad decode vs tape");
  expect_bitwise_equal(plan->execute(latent, coords), got,
                       "wide fp32 plan vs no-grad decode");
}

// The no-grad decode runs the value pass, whose intermediates live in
// Workspace arenas: its one tensor is the output, where the tape ops would
// allocate corner geometry, the gathered rows and every layer's
// activations.
TEST(NoGradDecode, AllocatesOnlyItsOutputTensor) {
  auto model = make_model(245);
  Rng rng(246);
  const Tensor latent = make_latent(rng, 2, 16);
  const Tensor coords = make_coords(rng, 2, 300, /*flat=*/false);
  (void)no_grad_decode(*model, latent, coords);  // warm up
  const auto before = backend::CachingAllocator::instance().stats();
  (void)no_grad_decode(*model, latent, coords);
  const auto after = backend::CachingAllocator::instance().stats();
  EXPECT_EQ(after.allocs - before.allocs, 1u);
}

// The no-grad decode must not freeze the model the way prepare() does: a
// held-out loss taken mid-training leaves the model training and its
// weights untouched.
TEST(NoGradDecode, LeavesTrainingModeAndWeightsUntouched) {
  Rng rng(251);
  core::MeshfreeFlowNet model(core::MFNConfig::small_default(), rng);
  model.set_training(true);
  std::vector<std::vector<float>> before;
  for (ad::Var* p : model.parameters())
    before.emplace_back(p->value().data(),
                        p->value().data() + p->value().numel());

  const Tensor latent = make_latent(rng, 2, 16);
  const Tensor coords = make_coords(rng, 2, 64, /*flat=*/false);
  const Tensor got = no_grad_decode(model, latent, coords);

  EXPECT_TRUE(model.training());
  EXPECT_TRUE(model.decoder().training());
  EXPECT_TRUE(model.decoder().mlp().training());
  const auto params = model.parameters();
  ASSERT_EQ(params.size(), before.size());
  for (std::size_t i = 0; i < params.size(); ++i)
    ASSERT_EQ(0, std::memcmp(params[i]->value().data(), before[i].data(),
                             before[i].size() * sizeof(float)))
        << "parameter " << i << " changed";
  expect_within_member_gate(got, tape_decode(model, latent, coords),
                            "training-mode no-grad decode vs tape");
}

// TSan target as well: every caller reads the shared module's weights,
// and all decodes share the pool.
TEST(NoGradDecode, ConcurrentCallersGetTheSingleThreadResult) {
  auto model = make_model(261);
  Rng rng(262);
  const Tensor latent = make_latent(rng, 3, 16);
  const Tensor coords = make_coords(rng, 3, 300, /*flat=*/false);
  const Tensor want = no_grad_decode(*model, latent, coords);

  constexpr int kThreads = 4, kReps = 5;
  std::vector<Tensor> got(kThreads * kReps);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kReps; ++r)
        got[t * kReps + r] = no_grad_decode(*model, latent, coords);
    });
  for (auto& th : threads) th.join();
  for (const Tensor& g : got)
    expect_bitwise_equal(g, want, "concurrent vs single-thread decode");
}

// ------------------------------------------------- zero-alloc steady state

TEST(DecodePlan, SteadyStateReplayDoesNotTouchTheHeap) {
  auto model = make_model(151);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  Rng rng(152);
  const Tensor latent = make_latent(rng, 8, snap->latent_channels());
  const Tensor coords = make_coords(rng, 8, 512, /*flat=*/false);
  auto plan = core::DecodePlan::compile(
      snap, core::PlanKey{1, 8, 512, kLT, kLZ, kLX});
  ASSERT_NE(plan, nullptr);

  // Warm up: grows every pool worker's Workspace arena to the plan's
  // footprint and seeds the caching allocator's bucket for the output
  // tensor shape.
  for (int i = 0; i < 6; ++i) (void)plan->execute(latent, coords);

  const auto before = backend::CachingAllocator::instance().stats();
  constexpr int kReplays = 20;
  for (int i = 0; i < kReplays; ++i) {
    const Tensor out = plan->execute(latent, coords);
    ASSERT_EQ(out.dim(0), 8 * 512);
  }
  const auto after = backend::CachingAllocator::instance().stats();
  // Output storage recycles through the allocator's free lists; nothing
  // in the replay itself may reach ::operator new.
  EXPECT_EQ(after.heap_allocs, before.heap_allocs)
      << "planned decode steady state must not heap-allocate";
  EXPECT_GE(after.allocs, before.allocs + kReplays);
}

// --------------------------------------------------------------- PlanCache

TEST(PlanCache, HitMissCompileAndLRUEviction) {
  auto model = make_model(161);
  auto snap = core::PreparedSnapshot::prepare(*model, 1);
  core::PlanCache cache(/*max_entries=*/2);

  auto p1 = cache.get_or_compile(snap, 1, 16, kLT, kLZ, kLX);
  auto p2 = cache.get_or_compile(snap, 1, 32, kLT, kLZ, kLX);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().compiles, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);

  // Hit returns the same compiled object and promotes it.
  EXPECT_EQ(cache.get_or_compile(snap, 1, 16, kLT, kLZ, kLX).get(),
            p1.get());
  EXPECT_EQ(cache.stats().hits, 1u);

  // Third shape evicts the LRU tail (q=32; q=16 was just promoted).
  auto p3 = cache.get_or_compile(snap, 1, 64, kLT, kLZ, kLX);
  ASSERT_NE(p3, nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.get_or_compile(snap, 1, 16, kLT, kLZ, kLX).get(),
            p1.get());
  EXPECT_NE(cache.get_or_compile(snap, 1, 32, kLT, kLZ, kLX).get(),
            p2.get());  // was evicted, recompiled
}

TEST(PlanCache, DropStaleVersionsRaisesTheInsertFloor) {
  auto model = make_model(171);
  auto snap_v1 = core::PreparedSnapshot::prepare(*model, 1);
  auto snap_v2 = core::PreparedSnapshot::prepare(*model, 2);
  core::PlanCache cache;

  ASSERT_NE(cache.get_or_compile(snap_v1, 1, 16, kLT, kLZ, kLX), nullptr);
  ASSERT_NE(cache.get_or_compile(snap_v2, 1, 16, kLT, kLZ, kLX), nullptr);
  EXPECT_EQ(cache.stats().entries, 2u);

  cache.drop_stale_versions(2);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);

  // A racing compile against the retired snapshot still gets a correct
  // plan (its requests hold that snapshot) but may not re-enter the cache.
  auto stale = cache.get_or_compile(snap_v1, 1, 24, kLT, kLZ, kLX);
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->key().version, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().invalidations, 2u);

  // The floor is monotonic: an out-of-order older version cannot lower it.
  cache.drop_stale_versions(1);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ----------------------------------------------------- serving integration

TEST(Serve, EngineRoutesDecodesThroughPlans) {
  auto model = make_model(181);
  core::MeshfreeFlowNet* raw = model.get();
  Rng rng(182);
  const Tensor patch = Tensor::randn(Shape{1, 4, kLT, kLZ, kLX}, rng, 0.5f);
  const Tensor coords = make_coords(rng, 1, 300, /*flat=*/true);
  ad::NoGradGuard no_grad;
  const Tensor want = raw->predict(patch, coords).value();

  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.max_wait_us = 0;
  serve::InferenceEngine engine(std::move(model), ecfg);
  const Tensor got1 = engine.query_sync(1, patch, coords);
  const Tensor got2 = engine.query_sync(1, patch, coords);
  expect_bitwise_equal(got1, want, "planned serve vs no-grad predict");
  expect_bitwise_equal(got2, want, "plan-cache-hit repeat");

  const auto bs = engine.batcher_stats();
  EXPECT_EQ(bs.planned_decodes, 2u);
  EXPECT_EQ(bs.tape_decodes, 0u);
  const auto ps = engine.plan_stats();
  EXPECT_EQ(ps.misses, 1u);
  EXPECT_EQ(ps.compiles, 1u);
  EXPECT_EQ(ps.hits, 1u);
  EXPECT_EQ(ps.entries, 1u);
}

TEST(Serve, HotSwapInvalidatesPlansMidTraffic) {
  auto model_a = make_model(191);
  auto model_b = make_model(192);
  core::MeshfreeFlowNet* raw_b = model_b.get();
  Rng rng(193);
  const Tensor patch = Tensor::randn(Shape{1, 4, kLT, kLZ, kLX}, rng, 0.5f);
  const Tensor coords = make_coords(rng, 1, 200, /*flat=*/true);
  Tensor want_b;
  {
    ad::NoGradGuard no_grad;
    want_b = raw_b->predict(patch, coords).value();
  }

  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.max_wait_us = 0;
  serve::InferenceEngine engine(std::move(model_a), ecfg);
  (void)engine.query_sync(1, patch, coords);  // compiles a version-1 plan
  EXPECT_EQ(engine.plan_stats().entries, 1u);

  engine.swap_model(std::move(model_b));
  // The version-1 plan was dropped eagerly; the next query compiles (and
  // replays) a version-2 plan — never a stale one.
  EXPECT_EQ(engine.plan_stats().entries, 0u);
  EXPECT_GE(engine.plan_stats().invalidations, 1u);
  const Tensor got = engine.query_sync(2, patch, coords);
  expect_bitwise_equal(got, want_b, "post-swap planned serve");
  EXPECT_EQ(engine.plan_stats().compiles, 2u);
  EXPECT_EQ(engine.batcher_stats().tape_decodes, 0u);
}

// TSan target: plan compiles, cache lookups, replays, and hot swaps all
// racing. Correctness of each response is pinned by the parity tests; this
// one exists to put the lock discipline under the race detector.
TEST(Serve, ConcurrentPlanCompileReplayAndSwap) {
  auto model = make_model(201);
  Rng rng(202);
  const int kClients = 4, kReqs = 12, kSwaps = 3;
  std::vector<Tensor> patches;
  for (int p = 0; p < 3; ++p)
    patches.push_back(Tensor::randn(Shape{1, 4, kLT, kLZ, kLX}, rng, 0.5f));
  std::vector<Tensor> coords;  // distinct Q per patch: distinct plan keys
  for (int p = 0; p < 3; ++p)
    coords.push_back(make_coords(rng, 1, 32 + 16 * p, /*flat=*/true));

  serve::InferenceEngineConfig ecfg;
  ecfg.plan_cache_entries = 4;
  serve::InferenceEngine engine(std::move(model), ecfg);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kReqs; ++r) {
        const int p = (c + r) % 3;
        Tensor out = engine.query_sync(static_cast<std::uint64_t>(p + 1),
                                       patches[p], coords[p]);
        if (out.dim(0) != coords[p].dim(0) || out.dim(1) != 4) ++failures;
      }
    });
  }
  for (int s = 0; s < kSwaps; ++s)
    engine.swap_model(make_model(210 + static_cast<std::uint64_t>(s)));
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto ps = engine.plan_stats();
  EXPECT_GE(ps.compiles, 1u);
  EXPECT_LE(ps.entries, 4u);
}

// ------------------------------------------------- batcher timing capture

TEST(QueryBatcher, TimingCaptureSplitsQueueWaitFromDecode) {
  auto snap = std::make_shared<serve::ModelSnapshot>();
  snap->model = make_model(221);
  snap->version = 1;
  // No prepared weights / plan cache: the standalone batcher serves
  // through decode() and must account it as such.
  Rng rng(222);
  const Tensor latent = make_latent(rng, 1, 16);
  serve::QueryBatcherConfig cfg;
  cfg.max_wait_us = 0;
  serve::QueryBatcher batcher(cfg);
  batcher.set_timing_capture(true);

  const int kReqs = 5;
  for (int i = 0; i < kReqs; ++i)
    (void)batcher.submit(snap, latent, make_coords(rng, 1, 16, true)).get();
  auto samples = batcher.take_timing_samples();
  EXPECT_EQ(samples.queue_wait_ms.size(), static_cast<std::size_t>(kReqs));
  ASSERT_FALSE(samples.decode_ms.empty());
  for (double ms : samples.queue_wait_ms) EXPECT_GE(ms, 0.0);
  for (double ms : samples.decode_ms) EXPECT_GT(ms, 0.0);
  EXPECT_EQ(batcher.stats().tape_decodes,
            static_cast<std::uint64_t>(kReqs));
  EXPECT_EQ(batcher.stats().planned_decodes, 0u);

  // take() clears; with capture off nothing accumulates.
  batcher.set_timing_capture(false);
  (void)batcher.submit(snap, latent, make_coords(rng, 1, 16, true)).get();
  samples = batcher.take_timing_samples();
  EXPECT_TRUE(samples.queue_wait_ms.empty());
  EXPECT_TRUE(samples.decode_ms.empty());
}

}  // namespace
}  // namespace mfn
