// Multi-client stress & parity suite for the serving subsystem
// (src/serve/): batcher coalescing must never change results, the latent
// LRU must evict/account deterministically, hot swaps must never mix
// snapshots within one response, and serve output must be bit-identical
// across thread-pool sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "autodiff/variable.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "core/checkpoint.h"
#include "core/meshfree_flownet.h"
#include "serve/engine.h"
#include "serve/latent_cache.h"
#include "serve/query_batcher.h"
#include "threading/thread_pool.h"

namespace mfn {
namespace {

// The suite exercises real concurrency: make sure the pool is multi-thread
// even on single-core hosts (runs before main, i.e. before the first
// ThreadPool::global() touch). An explicit MFN_NUM_THREADS wins.
const bool kForcePool = [] {
  setenv("MFN_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

core::MFNConfig serve_test_config() {
  core::MFNConfig cfg = core::MFNConfig::small_default();
  return cfg;
}

std::unique_ptr<core::MeshfreeFlowNet> make_model(std::uint64_t seed) {
  Rng rng(seed);
  auto model =
      std::make_unique<core::MeshfreeFlowNet>(serve_test_config(), rng);
  model->set_training(false);
  return model;
}

Tensor make_patch(Rng& rng) {
  return Tensor::randn(Shape{1, 4, 4, 8, 8}, rng, 0.5f);
}

Tensor make_coords(Rng& rng, std::int64_t q) {
  Tensor c = Tensor::uninitialized(Shape{q, 3});
  for (std::int64_t b = 0; b < q; ++b) {
    c.data()[b * 3 + 0] = static_cast<float>(rng.uniform(0.0, 3.0));
    c.data()[b * 3 + 1] = static_cast<float>(rng.uniform(0.0, 7.0));
    c.data()[b * 3 + 2] = static_cast<float>(rng.uniform(0.0, 7.0));
  }
  return c;
}

Tensor direct_predict(core::MeshfreeFlowNet& model, const Tensor& patch,
                      const Tensor& coords) {
  ad::NoGradGuard no_grad;
  return model.predict(patch, coords).value();
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.numel(), b.numel());
  double m = 0.0;
  for (std::int64_t i = 0; i < a.numel(); ++i)
    m = std::max(m, std::abs(static_cast<double>(a.data()[i]) -
                             static_cast<double>(b.data()[i])));
  return m;
}

std::uint64_t flush_reason_sum(const serve::QueryBatcher::Stats& s) {
  return s.flushes_full + s.flushes_target + s.flushes_deadline +
         s.flushes_window + s.flushes_immediate;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One closed-loop round: a client thread per coordinate set, released
/// together, each querying patch 1 once. Returns the round's wall ms.
double closed_round(serve::InferenceEngine& engine, const Tensor& patch,
                    const std::vector<Tensor>& coords) {
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (const Tensor& c : coords)
    clients.emplace_back([&engine, &patch, &go, &c] {
      while (!go.load()) std::this_thread::yield();
      (void)engine.query_sync(1, patch, c);
    });
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true);
  for (auto& t : clients) t.join();
  return ms_since(t0);
}

// ------------------------------------------------------------- LatentCache

TEST(LatentCache, HitMissAccountingAndPromotion) {
  serve::LatentCache cache(1u << 20);
  const serve::LatentKey k1{1, 10}, k2{1, 20};
  EXPECT_FALSE(cache.get(k1).has_value());  // miss
  cache.put(k1, Tensor::full(Shape{4}, 1.0f));
  auto hit = cache.get(k1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FLOAT_EQ(hit->data()[0], 1.0f);
  EXPECT_FALSE(cache.get(k2).has_value());
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes_in_use, 4 * sizeof(float));
  EXPECT_NEAR(s.hit_rate(), 1.0 / 3.0, 1e-12);
}

TEST(LatentCache, EvictsInLRUOrderUnderByteBudget) {
  // Budget fits exactly two 256-float latents.
  serve::LatentCache cache(2 * 256 * sizeof(float));
  auto latent = [](float v) { return Tensor::full(Shape{256}, v); };
  cache.put({1, 1}, latent(1.0f));
  cache.put({1, 2}, latent(2.0f));
  EXPECT_EQ(cache.stats().entries, 2u);

  // Touch 1 so 2 becomes the LRU tail, then insert 3: 2 must be evicted.
  EXPECT_TRUE(cache.get({1, 1}).has_value());
  cache.put({1, 3}, latent(3.0f));
  EXPECT_TRUE(cache.contains({1, 1}));
  EXPECT_FALSE(cache.contains({1, 2}));
  EXPECT_TRUE(cache.contains({1, 3}));
  auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes_in_use, s.byte_budget);

  // Insert 4 without touching anything: 1 is now the tail.
  cache.put({1, 4}, latent(4.0f));
  EXPECT_FALSE(cache.contains({1, 1}));
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(LatentCache, OversizedEntryIsKeptAlone) {
  serve::LatentCache cache(16);  // budget smaller than any latent
  cache.put({1, 1}, Tensor::full(Shape{64}, 1.0f));
  EXPECT_TRUE(cache.contains({1, 1}));  // never evicts its only entry
  cache.put({1, 2}, Tensor::full(Shape{64}, 2.0f));
  EXPECT_EQ(cache.stats().entries, 1u);  // but keeps at most one
  EXPECT_TRUE(cache.contains({1, 2}));
}

TEST(LatentCache, DropStaleVersions) {
  serve::LatentCache cache(1u << 20);
  cache.put({1, 1}, Tensor::full(Shape{8}, 1.0f));
  cache.put({1, 2}, Tensor::full(Shape{8}, 1.0f));
  cache.put({2, 1}, Tensor::full(Shape{8}, 2.0f));
  cache.drop_stale_versions(2);
  EXPECT_FALSE(cache.contains({1, 1}));
  EXPECT_FALSE(cache.contains({1, 2}));
  EXPECT_TRUE(cache.contains({2, 1}));
  const auto s = cache.stats();
  EXPECT_EQ(s.invalidations, 2u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.bytes_in_use, 8 * sizeof(float));

  // A put keyed to a retired version (an encode that straddled the swap)
  // is dropped, not inserted.
  cache.put({1, 3}, Tensor::full(Shape{8}, 1.0f));
  EXPECT_FALSE(cache.contains({1, 3}));
  EXPECT_EQ(cache.stats().invalidations, 3u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ---------------------------------------------------- coalescing / parity

// One request of a coalescing round: the patch it decodes against and
// its query coordinates.
struct RoundRequest {
  std::uint64_t patch_id;
  Tensor patch;
  Tensor coords;
};

// Serves `round` twice on one engine: first all requests at once, which
// coalesce into a single flush and a single decode unit, then each request
// alone. At fp32 a query's values depend only on its coordinates, its
// latent and the weights, so both passes must agree bit for bit.
void expect_coalescing_is_bitwise_invisible(
    std::unique_ptr<core::MeshfreeFlowNet> model,
    const std::vector<RoundRequest>& round) {
  std::int64_t rows = 0;
  for (const RoundRequest& r : round) rows += r.coords.dim(0);
  // The round fills max_batch_rows exactly, so its window closes once the
  // last request is queued; a lone request afterwards waits out the
  // window instead.
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.max_batch_rows = rows;
  ecfg.batcher.max_wait_us = 100000;
  serve::InferenceEngine engine(std::move(model), ecfg);
  std::vector<std::uint64_t> warmed;
  for (const RoundRequest& r : round)
    if (std::find(warmed.begin(), warmed.end(), r.patch_id) == warmed.end()) {
      engine.prewarm(r.patch_id, r.patch);
      warmed.push_back(r.patch_id);
    }

  std::vector<std::future<Tensor>> futs;
  for (const RoundRequest& r : round)
    futs.push_back(engine.query(r.patch_id, r.patch, r.coords));
  std::vector<Tensor> coalesced;
  for (auto& f : futs) coalesced.push_back(f.get());
  const auto bs = engine.batcher_stats();
  EXPECT_EQ(bs.requests, round.size());
  EXPECT_EQ(bs.flushes, 1u);
  EXPECT_EQ(bs.decode_calls, 1u);
  EXPECT_EQ(bs.max_flush_rows, static_cast<std::uint64_t>(rows));

  for (std::size_t i = 0; i < round.size(); ++i) {
    const Tensor alone =
        engine.query_sync(round[i].patch_id, round[i].patch, round[i].coords);
    ASSERT_EQ(alone.numel(), coalesced[i].numel());
    EXPECT_EQ(0, std::memcmp(alone.data(), coalesced[i].data(),
                             static_cast<std::size_t>(alone.numel()) *
                                 sizeof(float)))
        << "request " << i << " changed under coalescing";
  }
  const auto after = engine.batcher_stats();
  EXPECT_EQ(after.decode_calls, 1u + round.size());
  EXPECT_EQ(after.planned_decodes, 1u + round.size());
  EXPECT_EQ(after.tape_decodes, 0u);
  // Every query() looks its latent up once: the prewarm encodes missed.
  const auto cs = engine.cache_stats();
  EXPECT_EQ(cs.misses, warmed.size());
  EXPECT_EQ(cs.hits, 2 * round.size());
}

TEST(QueryBatcher, CoalescedBatchMatchesIndividualDecodes) {
  Rng rng(12);
  const Tensor patch = make_patch(rng);
  std::vector<RoundRequest> round;
  for (int i = 0; i < 6; ++i) round.push_back({7, patch, make_coords(rng, 48)});
  expect_coalescing_is_bitwise_invisible(make_model(11), round);
}

// Ragged requests on one latent concatenate into one (B, 3) unit.
TEST(QueryBatcher, CoalescedRaggedUnitMatchesIndividualDecodes) {
  Rng rng(15);
  const Tensor patch = make_patch(rng);
  std::vector<RoundRequest> round;
  for (std::int64_t q : {7, 100, 300})
    round.push_back({7, patch, make_coords(rng, q)});
  expect_coalescing_is_bitwise_invisible(make_model(16), round);
}

// Equal-sized requests on distinct latents stack into one (N, Q, 3) unit.
TEST(QueryBatcher, StackedMultiLatentUnitMatchesIndividualDecodes) {
  Rng rng(17);
  std::vector<RoundRequest> round;
  for (std::uint64_t p = 1; p <= 4; ++p)
    round.push_back({p, make_patch(rng), make_coords(rng, 64)});
  expect_coalescing_is_bitwise_invisible(make_model(18), round);
}

TEST(QueryBatcher, NonFiniteCoordinatesFailOnlyTheirRequest) {
  auto model = make_model(13);
  core::MeshfreeFlowNet* raw = model.get();
  Rng rng(14);
  const Tensor patch = make_patch(rng);
  // A long batching window: the valid request is still queued while the
  // bad ones arrive, so without the per-request check they would share
  // its flush.
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.max_wait_us = 200000;
  serve::InferenceEngine engine(std::move(model), ecfg);
  const Tensor good = make_coords(rng, 32);
  std::future<Tensor> fut = engine.query(7, patch, good);
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity()}) {
    Tensor coords = make_coords(rng, 32);
    coords.data()[5 * 3 + 2] = bad;
    EXPECT_THROW(engine.query(7, patch, coords), mfn::Error);
  }
  const Tensor got = fut.get();
  EXPECT_LT(max_abs_diff(got, direct_predict(*raw, patch, good)), 2e-5);
  EXPECT_EQ(engine.batcher_stats().requests, 1u);
}

TEST(Serve, MultiClientStressParity) {
  auto model = make_model(21);
  core::MeshfreeFlowNet* raw = model.get();
  Rng rng(22);
  const int kPatches = 3, kClients = 4, kReqs = 24;
  const std::int64_t kQ = 64;
  std::vector<Tensor> patches;
  for (int p = 0; p < kPatches; ++p) patches.push_back(make_patch(rng));

  // Pre-generate every request's coords and its direct-predict reference.
  std::vector<std::vector<Tensor>> coords(kClients), want(kClients);
  for (int c = 0; c < kClients; ++c)
    for (int m = 0; m < kReqs; ++m) {
      coords[static_cast<size_t>(c)].push_back(make_coords(rng, kQ));
      const int pid = (c + m) % kPatches;
      want[static_cast<size_t>(c)].push_back(
          direct_predict(*raw, patches[static_cast<size_t>(pid)],
                         coords[static_cast<size_t>(c)].back()));
    }

  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = 2;
  ecfg.batcher.max_batch_rows = 1024;
  ecfg.batcher.max_queue_rows = 1024;  // exercises submit() backpressure
  ecfg.batcher.max_wait_us = 100;
  serve::InferenceEngine engine(std::move(model), ecfg);

  std::vector<std::vector<Tensor>> got(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      for (int m = 0; m < kReqs; ++m) {
        const int pid = (c + m) % kPatches;
        got[static_cast<size_t>(c)].push_back(engine.query_sync(
            static_cast<std::uint64_t>(pid),
            patches[static_cast<size_t>(pid)],
            coords[static_cast<size_t>(c)][static_cast<size_t>(m)]));
      }
    });
  for (auto& t : threads) t.join();

  for (int c = 0; c < kClients; ++c)
    for (int m = 0; m < kReqs; ++m)
      EXPECT_LT(
          max_abs_diff(got[static_cast<size_t>(c)][static_cast<size_t>(m)],
                       want[static_cast<size_t>(c)][static_cast<size_t>(m)]),
          2e-5)
          << "client " << c << " request " << m;

  const auto cs = engine.cache_stats();
  // Concurrent first touches of one key may each count a miss (the
  // duplicate encode race is documented and benign), so the miss count is
  // bounded, not exact: at least one per hot patch, at most one per
  // (client, patch) pair.
  EXPECT_GE(cs.misses, static_cast<std::uint64_t>(kPatches));
  EXPECT_LE(cs.misses, static_cast<std::uint64_t>(kPatches * kClients));
  EXPECT_EQ(cs.hits + cs.misses,
            static_cast<std::uint64_t>(kClients * kReqs));
  const auto bs = engine.batcher_stats();
  EXPECT_EQ(bs.requests, static_cast<std::uint64_t>(kClients * kReqs));
  EXPECT_EQ(bs.rows,
            static_cast<std::uint64_t>(kClients * kReqs) *
                static_cast<std::uint64_t>(kQ));
  EXPECT_EQ(flush_reason_sum(bs), bs.flushes);
}

// ------------------------------------------------------- batching window

// A fresh batcher has no flush history, so its first round waits out the
// window. After it, a closed-loop round of the same size closes the
// moment its last client has submitted — whichever worker holds the
// window — and a smaller round still coalesces, through the window.
void expect_round_closes_at_recent_flush_target(int workers) {
  constexpr std::int64_t kWindowUs = 400000;
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = workers;
  ecfg.batcher.max_wait_us = kWindowUs;
  serve::InferenceEngine engine(make_model(71), ecfg);
  Rng rng(72);
  const Tensor patch = make_patch(rng);
  engine.prewarm(1, patch);
  std::vector<Tensor> coords;
  for (int i = 0; i < 4; ++i) coords.push_back(make_coords(rng, 64));

  closed_round(engine, patch, coords);
  const auto s1 = engine.batcher_stats();
  EXPECT_EQ(s1.flushes, 1u);
  EXPECT_EQ(s1.flushes_window, 1u);

  const double round_ms = closed_round(engine, patch, coords);
  const auto s2 = engine.batcher_stats();
  EXPECT_EQ(s2.decode_calls - s1.decode_calls, 1u);
  EXPECT_EQ(s2.flushes - s1.flushes, 1u);
  EXPECT_EQ(s2.flushes_target - s1.flushes_target, 1u);
  EXPECT_LT(round_ms, static_cast<double>(kWindowUs) / 4e3);

  closed_round(engine, patch, {coords[0], coords[1]});
  const auto s3 = engine.batcher_stats();
  EXPECT_EQ(s3.decode_calls - s2.decode_calls, 1u);
  EXPECT_EQ(s3.flushes - s2.flushes, 1u);
  EXPECT_EQ(s3.flushes_window - s2.flushes_window, 1u);
  EXPECT_EQ(flush_reason_sum(s3), s3.flushes);
}

TEST(QueryBatcher, ClosedLoopRoundClosesAtRecentFlushTarget) {
  expect_round_closes_at_recent_flush_target(1);
}

TEST(QueryBatcher, ClosedLoopRoundClosesAtRecentFlushTargetTwoWorkers) {
  expect_round_closes_at_recent_flush_target(2);
}

TEST(QueryBatcher, WindowEndsBeforeAQueuedDeadline) {
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.max_batch_rows = 64;
  ecfg.batcher.max_wait_us = 2000000;
  serve::InferenceEngine engine(make_model(73), ecfg);
  Rng rng(74);
  const Tensor patch = make_patch(rng);
  engine.prewarm(1, patch);
  {
    // A full batch skips the window. Slowing its decode to 200 ms sets the
    // per-row estimate so the 16-row decode below is estimated at 50 ms,
    // and the window closes two estimates (100 ms) before the 250 ms
    // deadline: 50 ms of that is slack for the worker's wakeup, which a
    // host loaded by parallel suites must not eat.
    failpoint::Spec slow;
    slow.arg = 200.0;
    failpoint::ScopedFail inject("serve.slow_decode", slow);
    (void)engine.query_sync(1, patch, make_coords(rng, 64));
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::future<Tensor> fut =
      engine.query(1, patch, make_coords(rng, 16), std::nullopt,
                   t0 + std::chrono::milliseconds(250));
  EXPECT_NO_THROW(fut.get());
  EXPECT_LT(ms_since(t0), 500.0);
  const auto s = engine.batcher_stats();
  EXPECT_EQ(s.flushes_deadline, 1u);
  EXPECT_EQ(s.expired_queue, 0u);
  EXPECT_EQ(flush_reason_sum(s), s.flushes);
}

// ------------------------------------------------------------- hot swap

TEST(Serve, HotSwapMidTrafficNeverMixesSnapshots) {
  auto model_a = make_model(31);
  auto model_b = make_model(32);  // independent init: clearly different
  core::MeshfreeFlowNet* raw_a = model_a.get();
  core::MeshfreeFlowNet* raw_b = model_b.get();
  Rng rng(33);
  const int kPatches = 2, kClients = 4, kReqs = 40;
  const std::int64_t kQ = 32;
  std::vector<Tensor> patches;
  for (int p = 0; p < kPatches; ++p) patches.push_back(make_patch(rng));
  std::vector<Tensor> coords;  // one fixed coords tensor per client
  for (int c = 0; c < kClients; ++c) coords.push_back(make_coords(rng, kQ));

  // Per (client, patch) references under each snapshot.
  std::vector<std::vector<Tensor>> ref_a(kClients), ref_b(kClients);
  for (int c = 0; c < kClients; ++c)
    for (int p = 0; p < kPatches; ++p) {
      ref_a[static_cast<size_t>(c)].push_back(direct_predict(
          *raw_a, patches[static_cast<size_t>(p)],
          coords[static_cast<size_t>(c)]));
      ref_b[static_cast<size_t>(c)].push_back(direct_predict(
          *raw_b, patches[static_cast<size_t>(p)],
          coords[static_cast<size_t>(c)]));
      // The two snapshots must be distinguishable for the test to mean
      // anything.
      ASSERT_GT(max_abs_diff(ref_a[static_cast<size_t>(c)].back(),
                             ref_b[static_cast<size_t>(c)].back()),
                1e-3);
    }

  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.max_wait_us = 50;
  serve::InferenceEngine engine(std::move(model_a), ecfg);
  EXPECT_EQ(engine.snapshot_version(), 1u);

  std::atomic<int> completed{0};
  std::vector<std::vector<Tensor>> got(kClients);
  std::vector<std::vector<int>> pid_of(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      for (int m = 0; m < kReqs; ++m) {
        const int pid = (c + m) % kPatches;
        pid_of[static_cast<size_t>(c)].push_back(pid);
        got[static_cast<size_t>(c)].push_back(engine.query_sync(
            static_cast<std::uint64_t>(pid),
            patches[static_cast<size_t>(pid)],
            coords[static_cast<size_t>(c)]));
        completed.fetch_add(1);
      }
    });
  // Swap mid-traffic: once every client has completed at least one
  // request, snapshot-1 latents are cached and responses from snapshot 1
  // are in flight (however slowly the host schedules — e.g. under TSan).
  while (completed.load() < kClients)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  engine.swap_model(std::move(model_b));
  for (auto& t : threads) t.join();
  EXPECT_EQ(engine.snapshot_version(), 2u);

  // Every response matches exactly one snapshot, never a blend.
  int from_a = 0, from_b = 0;
  for (int c = 0; c < kClients; ++c)
    for (int m = 0; m < kReqs; ++m) {
      const int pid = pid_of[static_cast<size_t>(c)][static_cast<size_t>(m)];
      const Tensor& out =
          got[static_cast<size_t>(c)][static_cast<size_t>(m)];
      const double da = max_abs_diff(
          out, ref_a[static_cast<size_t>(c)][static_cast<size_t>(pid)]);
      const double db = max_abs_diff(
          out, ref_b[static_cast<size_t>(c)][static_cast<size_t>(pid)]);
      EXPECT_TRUE(da < 2e-5 || db < 2e-5)
          << "client " << c << " request " << m
          << " matches neither snapshot (da=" << da << " db=" << db << ")";
      EXPECT_FALSE(da < 2e-5 && db < 2e-5);
      if (da < 2e-5) ++from_a;
      if (db < 2e-5) ++from_b;
    }
  // The swap waited for one completed request per client, so at least
  // that many responses were computed on snapshot A.
  EXPECT_GE(from_a, kClients);

  // After the swap drains, new queries are wholly on snapshot B.
  for (int p = 0; p < kPatches; ++p) {
    Tensor out = engine.query_sync(static_cast<std::uint64_t>(p),
                                   patches[static_cast<size_t>(p)],
                                   coords[0]);
    EXPECT_LT(max_abs_diff(out, ref_b[0][static_cast<size_t>(p)]), 2e-5);
    ++from_b;
  }
  EXPECT_GE(from_b, kPatches);
  // Stale version-1 latents were dropped eagerly at swap time.
  EXPECT_GE(engine.cache_stats().invalidations, 1u);
}

TEST(Serve, ReloadFromCheckpointServesNewWeights) {
  auto serving = make_model(41);
  auto trained = make_model(42);
  core::MeshfreeFlowNet* raw_trained = trained.get();
  Rng rng(43);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);
  const Tensor want = direct_predict(*raw_trained, patch, coords);

  const std::string path = ::testing::TempDir() + "serve_reload.ckpt";
  {
    optim::Adam opt(trained->parameters());
    core::save_checkpoint(path, *trained, opt, core::CheckpointData{});
  }

  serve::InferenceEngine engine(std::move(serving));
  Tensor before = engine.query_sync(1, patch, coords);
  EXPECT_GT(max_abs_diff(before, want), 1e-3);  // different weights
  engine.reload_from_checkpoint(path);
  Tensor after = engine.query_sync(1, patch, coords);
  EXPECT_LT(max_abs_diff(after, want), 2e-5);
  std::remove(path.c_str());
}

// ----------------------------------------------- thread-count determinism

// Serve output must be bit-identical whatever MFN_NUM_THREADS is. The pool
// is a process-wide singleton, so the serial side of the comparison runs
// the same computation under ScopedInlineLoops, where every parallel_for
// (decode block carving, conv batch loops, corner fills) runs inline —
// computationally identical to a 1-thread pool — while the engine side
// fans out across the 4-thread pool this binary pins.
TEST(Serve, OutputBitIdenticalAcrossThreadCounts) {
  ASSERT_GE(ThreadPool::global().size(), 2) << "needs a multi-thread pool";
  auto model = make_model(51);
  core::MeshfreeFlowNet* raw = model.get();
  Rng rng(52);
  const Tensor patch = make_patch(rng);
  // Enough queries that decode spans several 256-query blocks.
  const Tensor coords = make_coords(rng, 700);

  const Tensor serial = [&] {
    ScopedInlineLoops inline_loops;
    ad::NoGradGuard no_grad;
    return raw->predict(patch, coords).value();
  }();

  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.max_wait_us = 0;  // one request per flush: no coalescing
  serve::InferenceEngine engine(std::move(model), ecfg);
  const Tensor parallel = engine.query_sync(1, patch, coords);
  // repeat: second query decodes from the cached latent
  const Tensor parallel2 = engine.query_sync(1, patch, coords);

  ASSERT_EQ(serial.numel(), parallel.numel());
  for (std::int64_t i = 0; i < serial.numel(); ++i) {
    ASSERT_EQ(serial.data()[i], parallel.data()[i])
        << "element " << i << " differs between serial and parallel serve";
    ASSERT_EQ(serial.data()[i], parallel2.data()[i])
        << "element " << i << " differs on the cached-latent repeat";
  }
}

// ------------------------------------------------------------- lifecycle

TEST(QueryBatcher, ShutdownDrainsPendingRequests) {
  auto model = make_model(61);
  Rng rng(62);
  const Tensor patch = make_patch(rng);
  std::vector<std::future<Tensor>> futs;
  {
    serve::InferenceEngineConfig ecfg;
    ecfg.batcher.max_wait_us = 500000;  // would idle without the drain
    ecfg.batcher.max_batch_rows = 1 << 20;
    serve::InferenceEngine engine(std::move(model), ecfg);
    for (int i = 0; i < 4; ++i)
      futs.push_back(engine.query(1, patch, make_coords(rng, 16)));
    // Engine destructor runs here: shutdown must serve the queue, not
    // abandon it.
  }
  for (auto& f : futs) {
    Tensor out = f.get();
    EXPECT_EQ(out.dim(0), 16);
    EXPECT_EQ(out.dim(1), 4);
  }
}

TEST(QueryBatcher, SubmitAfterShutdownThrows) {
  serve::QueryBatcher batcher(serve::QueryBatcherConfig{});
  batcher.shutdown();
  auto snap = std::make_shared<serve::ModelSnapshot>();
  Rng rng(63);
  snap->model = make_model(63);
  EXPECT_THROW(batcher.submit(snap, Tensor::zeros(Shape{1, 16, 4, 8, 8}),
                              make_coords(rng, 4)),
               mfn::Error);
}

}  // namespace
}  // namespace mfn
