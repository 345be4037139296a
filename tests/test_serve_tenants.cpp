// Multi-tenant serving suite: the ModelRegistry (per-tenant snapshot
// chains, budgets, precision), per-tenant latent-cache isolation, and the
// fair-share (deficit-round-robin) drain order in QueryBatcher.
//
// The two headline properties, straight from the roadmap item:
//  - a hot tenant at ~10x a cold tenant's offered load must not starve the
//    cold tenant (while the cold tenant is timed, the DRR drain hands the
//    hot tenant a bounded multiple of the cold tenant's rows), and
//  - a hot tenant churning distinct patches must not evict the cold
//    tenant's latents (cache isolation is structural: per-tenant budgets
//    carved from one pool).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "autodiff/variable.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "core/meshfree_flownet.h"
#include "serve/engine.h"
#include "serve/query_batcher.h"

namespace mfn {
namespace {

using Clock = std::chrono::steady_clock;

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

failpoint::Spec sleep_ms(double ms) {
  failpoint::Spec s;
  s.arg = ms;
  return s;
}

/// Tests arm global fail points; never leak one into the next test.
class ServeTenants : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::reset(); }
};

// --------------------------------------------------------------- registry

TEST_F(ServeTenants, TenantsServeTheirOwnModelsOnIndependentChains) {
  serve::InferenceEngine engine(make_model(31));
  engine.add_tenant(1, make_model(32));
  EXPECT_TRUE(engine.has_tenant(0));
  EXPECT_TRUE(engine.has_tenant(1));
  EXPECT_FALSE(engine.has_tenant(2));
  EXPECT_EQ(engine.tenants().size(), 2u);

  Rng rng(33);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 64);
  auto ref0 = make_model(31);
  auto ref1 = make_model(32);
  const Tensor want0 = direct_predict(*ref0, patch, coords);
  const Tensor want1 = direct_predict(*ref1, patch, coords);
  ASSERT_GT(max_abs_diff(want0, want1), 1e-3);  // genuinely different models

  EXPECT_LT(max_abs_diff(engine.query_sync(0u, 1, patch, coords), want0),
            2e-5);
  EXPECT_LT(max_abs_diff(engine.query_sync(1u, 1, patch, coords), want1),
            2e-5);

  // Version chains are per tenant: swapping tenant 1 bumps only tenant 1,
  // leaves tenant 0's responses and cache untouched, and serves tenant 1's
  // new weights.
  const auto t0_before = engine.cache_stats(0);
  auto swapped = make_model(34);
  auto ref2 = make_model(34);
  const Tensor want2 = direct_predict(*ref2, patch, coords);
  engine.swap_model(1, std::move(swapped));
  EXPECT_EQ(engine.snapshot_version(1), 2u);
  EXPECT_EQ(engine.snapshot_version(0), 1u);

  EXPECT_LT(max_abs_diff(engine.query_sync(1u, 1, patch, coords), want2),
            2e-5);
  EXPECT_LT(max_abs_diff(engine.query_sync(0u, 1, patch, coords), want0),
            2e-5);
  const auto t0_after = engine.cache_stats(0);
  // The swap dropped tenant 1's latents only.
  EXPECT_EQ(t0_after.invalidations, t0_before.invalidations);
  EXPECT_GE(engine.cache_stats(1).invalidations, 1u);
  // Tenant 0's second query above was a pure cache hit.
  EXPECT_EQ(t0_after.misses, t0_before.misses);
  EXPECT_EQ(t0_after.hits, t0_before.hits + 1);
}

TEST_F(ServeTenants, RegistryRejectsDuplicateAndUnknownTenants) {
  serve::InferenceEngine engine(make_model(35));
  EXPECT_THROW(engine.add_tenant(0, make_model(36)), Error);
  engine.add_tenant(3, make_model(36));
  EXPECT_THROW(engine.add_tenant(3, make_model(37)), Error);

  Rng rng(38);
  const Tensor patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 8);
  EXPECT_THROW((void)engine.query_sync(9u, 1, patch, coords), Error);
  EXPECT_THROW(engine.prewarm(9, 1, patch), Error);
}

// ---------------------------------------------------------- cache budgets

TEST_F(ServeTenants, PoolCarvesIntoExplicitAndWeightedBudgets) {
  serve::InferenceEngineConfig ecfg;
  ecfg.cache_bytes = 8u << 20;  // the shared pool
  serve::InferenceEngine engine(make_model(39), ecfg);
  // Tenant 0 starts with the whole pool...
  EXPECT_EQ(engine.cache_stats(0).byte_budget, 8u << 20);

  // ...then the pool re-carves as tenants join: tenant 1 pins an explicit
  // 2 MiB; tenants 0 (weight 1) and 2 (weight 3) split the 6 MiB
  // remainder 1:3.
  serve::TenantConfig pinned;
  pinned.cache_bytes = 2u << 20;
  engine.add_tenant(1, make_model(40), pinned);
  serve::TenantConfig heavy;
  heavy.weight = 3.0;
  engine.add_tenant(2, make_model(41), heavy);

  EXPECT_EQ(engine.cache_stats(1).byte_budget, 2u << 20);
  EXPECT_EQ(engine.cache_stats(0).byte_budget, (6u << 20) / 4);
  EXPECT_EQ(engine.cache_stats(2).byte_budget, 3 * ((6u << 20) / 4));
}

TEST_F(ServeTenants, HotTenantChurnCannotEvictColdTenantsLatents) {
  serve::InferenceEngineConfig ecfg;
  ecfg.cache_bytes = 8u << 20;
  serve::InferenceEngine engine(make_model(42), ecfg);  // tenant 0: cold
  serve::TenantConfig tight;
  tight.cache_bytes = 128u << 10;  // hot tenant's own small budget
  engine.add_tenant(1, make_model(43), tight);

  Rng rng(44);
  constexpr int kColdPatches = 4;
  std::vector<Tensor> cold_patches;
  for (int p = 0; p < kColdPatches; ++p) {
    cold_patches.push_back(make_patch(rng));
    engine.prewarm(0, static_cast<std::uint64_t>(p), cold_patches.back());
  }
  const auto cold_before = engine.cache_stats(0);
  EXPECT_EQ(cold_before.entries, static_cast<std::uint64_t>(kColdPatches));

  // The hot tenant churns far more distinct patches than its budget
  // holds: it must thrash ITS OWN cache only.
  for (int p = 0; p < 64; ++p)
    engine.prewarm(1, static_cast<std::uint64_t>(p), make_patch(rng));
  const auto hot = engine.cache_stats(1);
  EXPECT_GT(hot.evictions, 0u);
  EXPECT_LE(hot.bytes_in_use, hot.byte_budget);

  const auto cold_after = engine.cache_stats(0);
  EXPECT_EQ(cold_after.evictions, cold_before.evictions);
  EXPECT_EQ(cold_after.entries, cold_before.entries);

  // Every cold latent is still resident: re-queries are pure hits.
  const Tensor coords = make_coords(rng, 16);
  for (int p = 0; p < kColdPatches; ++p)
    (void)engine.query_sync(0u, static_cast<std::uint64_t>(p),
                            cold_patches[static_cast<size_t>(p)], coords);
  const auto cold_hit = engine.cache_stats(0);
  EXPECT_EQ(cold_hit.misses, cold_after.misses);
  EXPECT_EQ(cold_hit.hits,
            cold_after.hits + static_cast<std::uint64_t>(kColdPatches));
}

// ------------------------------------------------------------- fair share

/// Closed-loop cold client with a 2-deep pipeline: always one request
/// queued behind the in-flight one, so every batcher flush sees the cold
/// tenant active (steady state has no cold-idle gaps to skew latencies).
/// Returns end-to-end ms per completed request.
std::vector<double> drive_cold_pipeline(serve::InferenceEngine& engine,
                                        serve::TenantId tenant,
                                        const Tensor& patch,
                                        const Tensor& coords, int requests) {
  std::vector<double> ms;
  std::deque<std::pair<Clock::time_point, std::future<Tensor>>> inflight;
  for (int m = 0; m < requests; ++m) {
    inflight.emplace_back(Clock::now(),
                          engine.query(tenant, 1, patch, coords));
    while (inflight.size() >= 2) {
      auto [t0, fut] = std::move(inflight.front());
      inflight.pop_front();
      fut.get();
      ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() -
                                                             t0)
                       .count());
    }
  }
  while (!inflight.empty()) {
    auto [t0, fut] = std::move(inflight.front());
    inflight.pop_front();
    fut.get();
    ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count());
  }
  return ms;
}

double p99(std::vector<double> ms) {
  EXPECT_FALSE(ms.empty());
  std::sort(ms.begin(), ms.end());
  return ms[static_cast<size_t>(0.99 * static_cast<double>(ms.size() - 1))];
}

serve::InferenceEngineConfig fairness_config() {
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = 1;
  ecfg.batcher.max_wait_us = 0;
  // One 32-row request per tenant per flush: the DRR quantum equals the
  // request size, so a mixed flush is exactly hot 32 + cold 32.
  ecfg.batcher.max_batch_rows = 64;
  ecfg.batcher.fair_quantum_rows = 32;
  return ecfg;
}

TEST_F(ServeTenants, FairShareBoundsColdTenantP99UnderHotSaturation) {
  Rng rng(45);
  const Tensor hot_patch = make_patch(rng);
  const Tensor cold_patch = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);
  constexpr int kColdReqs = 40;
  constexpr int kWarmup = 4;  // first requests hit a cold DRR ring; skip

  // Every decode unit sleeps 10 ms, so the hot tenant keeps an 8-deep
  // backlog (~10x the cold tenant's 1 in-flight + 1 queued) that under
  // FIFO would put 8 hot requests ahead of every cold arrival.
  failpoint::ScopedFail slow("serve.slow_decode", sleep_ms(10.0));

  // Isolated baseline: same engine shape and traffic, no hot load.
  double isolated_p99 = 0.0;
  {
    serve::InferenceEngine engine(make_model(46), fairness_config());
    engine.add_tenant(1, make_model(47));
    engine.prewarm(1, 1, cold_patch);
    std::vector<double> ms =
        drive_cold_pipeline(engine, 1, cold_patch, coords, kColdReqs);
    ms.erase(ms.begin(), ms.begin() + kWarmup);
    isolated_p99 = p99(ms);
  }

  // Contended run: tenant 0 saturates while tenant 1 repeats the exact
  // same traffic.
  serve::InferenceEngine engine(make_model(46), fairness_config());
  engine.add_tenant(1, make_model(47));
  engine.prewarm(0, 1, hot_patch);
  engine.prewarm(1, 1, cold_patch);

  std::atomic<bool> stop{false};
  std::thread hot([&] {
    std::deque<std::future<Tensor>> inflight;
    while (!stop.load(std::memory_order_relaxed)) {
      inflight.push_back(engine.query(0u, 1, hot_patch, coords));
      while (inflight.size() >= 8) {
        inflight.front().get();
        inflight.pop_front();
      }
    }
    for (auto& f : inflight) f.get();
  });
  // Let the hot backlog establish before timing the cold tenant.
  const auto limit = Clock::now() + std::chrono::seconds(10);
  while (true) {
    const auto per = engine.batcher_stats().per_tenant;
    const auto it = per.find(0);
    if (it != per.end() && it->second.queue_rows >= 4 * 32) break;
    ASSERT_LT(Clock::now(), limit) << "hot tenant never built a backlog";
    std::this_thread::yield();
  }
  const auto window_start = engine.batcher_stats().per_tenant;
  std::vector<double> ms =
      drive_cold_pipeline(engine, 1, cold_patch, coords, kColdReqs);
  const auto window_end = engine.batcher_stats().per_tenant;
  stop.store(true);
  hot.join();
  ms.erase(ms.begin(), ms.begin() + kWarmup);
  const double cold_p99 = p99(ms);

  // Fairness is read from the scheduler's own counts over the timed cold
  // window, not from wall-clock latency, which moves with whatever else
  // shares the CPU. DRR hands each tenant one 32-row quantum per flush, so
  // the hot tenant drains about as many rows as the cold one; FIFO would
  // drain the hot tenant's 8-deep backlog ahead of every cold arrival
  // (>= 8x). The p99s only annotate a failure.
  auto drained = [](const auto& per, serve::TenantId t) -> std::uint64_t {
    const auto it = per.find(t);
    return it == per.end() ? 0 : it->second.drained_rows;
  };
  const std::uint64_t hot_rows =
      drained(window_end, 0) - drained(window_start, 0);
  const std::uint64_t cold_rows =
      drained(window_end, 1) - drained(window_start, 1);
  EXPECT_EQ(cold_rows, static_cast<std::uint64_t>(kColdReqs) * 32);
  EXPECT_LE(hot_rows, 4 * cold_rows)
      << "hot tenant drained " << hot_rows << " rows vs cold " << cold_rows
      << " while the cold tenant was timed (cold p99 " << cold_p99
      << " ms, isolated " << isolated_p99
      << " ms): hot tenant starved the cold tenant";

  // The per-tenant counters saw both streams, and the hot tenant really
  // saturated: it drained at least as many rows as the cold tenant while
  // the cold tenant was being timed.
  const auto bs = engine.batcher_stats();
  ASSERT_TRUE(bs.per_tenant.count(0));
  ASSERT_TRUE(bs.per_tenant.count(1));
  EXPECT_GE(bs.per_tenant.at(0).drained_rows,
            bs.per_tenant.at(1).drained_rows);
  EXPECT_EQ(bs.per_tenant.at(1).requests,
            static_cast<std::uint64_t>(kColdReqs));
}

TEST_F(ServeTenants, DrrHonorsWeightsUnderDualBacklog) {
  Rng rng(48);
  const Tensor patch_a = make_patch(rng);
  const Tensor patch_b = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);

  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = 1;
  ecfg.batcher.max_wait_us = 0;
  ecfg.batcher.max_batch_rows = 128;  // room for 3:1 quanta per flush
  ecfg.batcher.fair_quantum_rows = 32;
  serve::InferenceEngine engine(make_model(49), ecfg);
  serve::TenantConfig heavy;
  heavy.weight = 3.0;
  engine.add_tenant(1, make_model(50), heavy);
  engine.prewarm(0, 1, patch_a);
  engine.prewarm(1, 1, patch_b);

  // Both tenants keep deep backlogs under a slow worker; the weighted DRR
  // must drain them ~3:1 (tenant 1 : tenant 0) while both stay saturated.
  failpoint::ScopedFail slow("serve.slow_decode", sleep_ms(5.0));
  std::atomic<bool> stop{false};
  auto saturate = [&](serve::TenantId tid, const Tensor& patch) {
    return std::thread([&, tid] {
      std::deque<std::future<Tensor>> inflight;
      while (!stop.load(std::memory_order_relaxed)) {
        inflight.push_back(engine.query(tid, 1, patch, coords));
        while (inflight.size() >= 12) {
          inflight.front().get();
          inflight.pop_front();
        }
      }
      for (auto& f : inflight) f.get();
    });
  };
  std::thread light = saturate(0, patch_a);
  std::thread heavy_t = saturate(1, patch_b);

  // Sample drained rows over a mid-flight window (shares are a statement
  // about the drain order while BOTH queues are non-empty).
  const auto limit = Clock::now() + std::chrono::seconds(20);
  auto drained = [&](serve::TenantId tid) {
    const auto per = engine.batcher_stats().per_tenant;
    const auto it = per.find(tid);
    return it == per.end() ? std::uint64_t{0} : it->second.drained_rows;
  };
  while (drained(0) < 32 || drained(1) < 32) {
    ASSERT_LT(Clock::now(), limit) << "tenants never started draining";
    std::this_thread::yield();
  }
  const std::uint64_t a0 = drained(0), b0 = drained(1);
  while (drained(0) - a0 < 10 * 32) {
    ASSERT_LT(Clock::now(), limit) << "light tenant starved outright";
    std::this_thread::yield();
  }
  const std::uint64_t da = drained(0) - a0, db = drained(1) - b0;
  stop.store(true);
  light.join();
  heavy_t.join();

  const double ratio =
      static_cast<double>(db) / static_cast<double>(std::max<std::uint64_t>(
                                    da, 1));
  EXPECT_GE(ratio, 2.0) << "weight-3 tenant under-served: " << db << " vs "
                        << da;
  EXPECT_LE(ratio, 4.0) << "weight-3 tenant over-served: " << db << " vs "
                        << da;
}

TEST_F(ServeTenants, ShedOldestTakesFromTheHoggingTenant) {
  serve::InferenceEngineConfig ecfg;
  ecfg.batcher.workers = 1;
  ecfg.batcher.max_wait_us = 0;
  ecfg.batcher.max_batch_rows = 32;
  ecfg.batcher.max_queue_rows = 64;
  ecfg.batcher.admission = serve::AdmissionPolicy::kShedOldest;
  serve::InferenceEngine engine(make_model(51), ecfg);
  engine.add_tenant(1, make_model(52));
  Rng rng(53);
  const Tensor patch_a = make_patch(rng);
  const Tensor patch_b = make_patch(rng);
  const Tensor coords = make_coords(rng, 32);
  engine.prewarm(0, 1, patch_a);
  engine.prewarm(1, 1, patch_b);

  failpoint::ScopedFail slow("serve.slow_decode", sleep_ms(200.0));
  const std::uint64_t flushes0 = engine.batcher_stats().flushes;
  auto in_flight = engine.query(0u, 1, patch_a, coords);
  {
    const auto limit = Clock::now() + std::chrono::seconds(10);
    while (engine.batcher_stats().flushes < flushes0 + 1) {
      ASSERT_LT(Clock::now(), limit) << "batcher never flushed";
      std::this_thread::yield();
    }
  }
  // Tenant 0 hogs the whole queue (64 rows)...
  auto hog_oldest = engine.query(0u, 1, patch_a, coords);
  auto hog_newest = engine.query(0u, 1, patch_a, coords);
  // ...so the cold tenant's arrival sheds the HOG's oldest queued
  // request, not anything of its own.
  auto cold = engine.query(1u, 1, patch_b, coords);

  EXPECT_THROW(hog_oldest.get(), serve::Overloaded);
  EXPECT_NO_THROW(in_flight.get());
  EXPECT_NO_THROW(hog_newest.get());
  EXPECT_NO_THROW(cold.get());
  const auto bs = engine.batcher_stats();
  EXPECT_EQ(bs.admission_shed, 1u);
  ASSERT_TRUE(bs.per_tenant.count(0));
  EXPECT_EQ(bs.per_tenant.at(0).shed, 1u);
  EXPECT_EQ(bs.per_tenant.count(1) ? bs.per_tenant.at(1).shed : 0u, 0u);
}

}  // namespace
}  // namespace mfn
