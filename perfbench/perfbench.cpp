// Workload program of the repo benchmark.
//
// One invocation runs one workload through the library's public API and
// prints its raw measurements as one JSON object on the last line of
// stdout (progress and errors go to stderr). perfbench/run.py builds this
// binary, pins the thread pool (MFN_NUM_THREADS), passes the two fixed
// targets of perfbench/workloads.json and turns the raw numbers into the
// benchmark result.
//
//   mfn_perfbench train        --seed N --seconds S --target-loss L [--trace FILE]
//   mfn_perfbench serve_closed --seed N --seconds S [--trace FILE]
//   mfn_perfbench serve_open   --seed N --seconds S --limit-ms M [--trace FILE]
//   mfn_perfbench dist_train   --seed N --seconds S [--trace FILE]
//
//   train         core::Trainer::run_epoch on Rayleigh-Benard solver data
//   serve_closed  closed-loop clients querying hot, prewarmed patches
//   serve_open    Poisson open loop over four tenants at a ladder of rates
//   dist_train    dist::run_train_worker ranks as threads over loopback TCP
//
// Every input comes from --seed; every other knob is a constant of its
// workload below. Set-up runs three times untraced (the median is
// setup_s) and once traced. With --trace the workload alternates untraced
// and traced blocks: traced blocks record spans around each call into a
// library module (written to FILE at exit as Chrome trace-event JSON) and
// give the per-layer numbers; the gap between the two kinds of block is
// the tracing overhead.
#include <pthread.h>
#include <sched.h>

#include <cstdio>
#include <exception>
#include <future>
#include <iterator>
#include <thread>
#include <tuple>

#include "autodiff/ops.h"
#include "backend/simd.h"
#include "backend/workspace.h"
#include "bench_util.h"
#include "core/decode_plan.h"
#include "core/losses.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "distributed/elastic.h"
#include "distributed/worker.h"
#include "optim/optimizer.h"
#include "serve/engine.h"
#include "threading/thread_pool.h"

namespace {

using namespace mfn;
using namespace perfbench;

bool all_finite(const Tensor& t) {
  const float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i)
    if (!std::isfinite(p[i])) return false;
  return true;
}

/// True when `got` equals `want` within 1e-4 (absolute plus relative) in
/// every element; raises *max_err to the largest absolute difference.
bool close_to(const Tensor& got, const Tensor& want, double* max_err) {
  if (got.numel() != want.numel() || !all_finite(got)) return false;
  bool ok = true;
  double worst = 0.0;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const double w = want.data()[i];
    const double e = std::abs(static_cast<double>(got.data()[i]) - w);
    worst = std::max(worst, e);
    ok = ok && e <= 1e-4 + 1e-4 * std::abs(w);
  }
  *max_err = std::max(*max_err, worst);
  return ok;
}

int setup_repeats(bool traced) { return traced ? 1 : 3; }

std::unique_ptr<core::MeshfreeFlowNet> make_model(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 41);
  return std::make_unique<core::MeshfreeFlowNet>(
      core::MFNConfig::small_default(), rng);
}

constexpr std::int64_t kPatchT = 4, kPatchZ = 8, kPatchX = 8;

Tensor random_coords(Rng& rng, std::int64_t q) {
  Tensor c = Tensor::uninitialized(Shape{q, 3});
  float* p = c.data();
  for (std::int64_t b = 0; b < q; ++b) {
    p[b * 3 + 0] = static_cast<float>(rng.uniform(0.0, kPatchT - 1.0));
    p[b * 3 + 1] = static_cast<float>(rng.uniform(0.0, kPatchZ - 1.0));
    p[b * 3 + 2] = static_cast<float>(rng.uniform(0.0, kPatchX - 1.0));
  }
  return c;
}

Tensor random_patch(Rng& rng) {
  return Tensor::randn(Shape{1, 4, kPatchT, kPatchZ, kPatchX}, rng, 0.5f);
}

// ================================================================= train ==
constexpr int kTrainBatch = 4;
constexpr std::int64_t kTrainQueries = 384;
constexpr double kTrainGamma = 0.0125;
constexpr double kTrainLr = 0.003;
constexpr int kEvalEvery = 20;  // steps between held-out evaluations

/// Solver data, samplers and held-out set. Not movable: the samplers
/// point into the SR pairs.
struct TrainData {
  data::SRPair pair, held;
  std::unique_ptr<data::PatchSampler> sampler, held_sampler;
  core::EquationLossConfig eq;
  std::vector<data::BatchedSample> held_batches;
  double dataset_s = 0.0;  // the training-set solver run alone
};

data::DatasetConfig rb_config(std::uint64_t solver_seed) {
  data::DatasetConfig cfg;
  cfg.solver.Ra = 1e6;
  cfg.solver.Pr = 1.0;
  cfg.solver.nx = 64;
  cfg.solver.nz = 33;
  cfg.solver.seed = solver_seed;
  cfg.spinup_time = 8.0;
  cfg.duration = 8.0;
  cfg.num_snapshots = 32;
  return cfg;
}

/// Training set from solver seed 2*seed+1, then the held-out set from
/// 2*seed+2, both from the calling thread with the pool active, as
/// `mfn train` runs the solver.
std::unique_ptr<TrainData> make_train_data(std::uint64_t seed) {
  auto d = std::make_unique<TrainData>();
  const auto t0 = Clock::now();
  const data::Grid4D hr = data::generate_rb_dataset(rb_config(2 * seed + 1));
  d->dataset_s = ms_since(t0) * 1e-3;
  d->pair = data::make_sr_pair(hr, 4, 4);
  d->held = data::make_sr_pair(data::generate_rb_dataset(rb_config(2 * seed + 2)),
                               4, 4);
  data::PatchSamplerConfig pcfg;
  pcfg.patch_nt = kPatchT;
  pcfg.patch_nz = kPatchZ;
  pcfg.patch_nx = kPatchX;
  pcfg.queries_per_patch = kTrainQueries;
  d->sampler = std::make_unique<data::PatchSampler>(d->pair, pcfg);
  d->held_sampler = std::make_unique<data::PatchSampler>(d->held, pcfg);
  d->eq.constants = core::RBConstants::from_ra_pr(1e6, 1.0);
  d->eq.cell_size = d->sampler->lr_cell_size();
  d->eq.stats = d->pair.stats;
  Rng held_rng(seed * 7919 + 5);
  for (int b = 0; b < 4; ++b)
    d->held_batches.push_back(d->held_sampler->sample_batch(4, held_rng));
  return d;
}

/// Held-out prediction loss (eval mode, no tape).
double held_out_loss(core::MeshfreeFlowNet& model, const TrainData& d) {
  model.set_training(false);
  double sum = 0.0;
  {
    ad::NoGradGuard no_grad;
    for (const auto& b : d.held_batches)
      sum += core::prediction_loss(model.predict(b.lr_patches, b.query_coords),
                                   b.targets)
                 .value()
                 .item();
  }
  model.set_training(true);
  return sum / static_cast<double>(d.held_batches.size());
}

/// One training step with a span around every call into a module. The
/// backward is split at the latent: the decoder decodes on a detached
/// leaf, so ad::backward(loss) covers the decoder, and backpropagating
/// leaf.grad from the encoder output covers the encoder.
double traced_train_step(core::MeshfreeFlowNet& model, optim::Adam& opt,
                         const TrainData& d, Rng& rng,
                         const core::TrainerConfig& cfg, std::int64_t step) {
  ScopedSpan step_span("train.step", step);
  data::BatchedSample b;
  {
    ScopedSpan s("data.sample");
    b = d.sampler->sample_batch(cfg.batch_size, rng);
  }
  ad::Var latent;
  {
    ScopedSpan s("nn.encode_fwd");
    latent = model.encode(b.lr_patches);
  }
  ad::Var leaf(latent.value(), /*requires_grad=*/true);
  core::DecodeDerivs dd;
  {
    ScopedSpan s("core.decode_derivs_fwd");
    dd = model.decoder().decode_with_derivatives(leaf, b.query_coords);
  }
  ad::Var loss;
  {
    ScopedSpan s("core.loss");
    const ad::Var lp = core::prediction_loss(dd.value, b.targets);
    const core::EquationResiduals res = core::equation_loss(dd, d.eq);
    loss = ad::add(lp, ad::mul_scalar(res.total, static_cast<float>(cfg.gamma)));
  }
  {
    ScopedSpan s("autodiff.bwd_decoder");
    ad::backward(loss);
  }
  {
    ScopedSpan s("autodiff.bwd_encoder");
    ad::backward(ad::sum(ad::mul(latent, ad::Var(leaf.grad()))));
  }
  {
    ScopedSpan s("optim.step");
    optim::clip_grad_norm(opt.params(), cfg.grad_clip);
    opt.step();
    opt.zero_grad();
  }
  backend::CachingAllocator::instance().next_step();
  return loss.value().item();
}

/// Training seconds at which the held-out curve first reaches `target`,
/// interpolated linearly between evaluations; NaN when never reached.
double time_to_target(const std::vector<std::pair<double, double>>& curve,
                      double target) {
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (curve[i].second > target) continue;
    if (i == 0) return 0.0;
    const auto [t0, v0] = curve[i - 1];
    const auto [t1, v1] = curve[i];
    return t0 + (t1 - t0) * (v0 - target) / (v0 - v1);
  }
  return NAN;
}

void run_train(const Args& a, Report& rep, bool traced) {
  const auto seed = static_cast<std::uint64_t>(a.num("seed"));
  const double seconds = a.num("seconds");
  core::TrainerConfig tcfg;
  tcfg.batches_per_epoch = 1;  // one run_epoch() is one timed step
  tcfg.batch_size = kTrainBatch;
  tcfg.gamma = kTrainGamma;
  tcfg.adam.lr = kTrainLr;
  tcfg.grad_clip = 5.0;
  tcfg.seed = seed;

  std::unique_ptr<TrainData> d;
  std::unique_ptr<core::MeshfreeFlowNet> model;
  std::unique_ptr<core::Trainer> trainer;
  const double setup_s = timed_setups(setup_repeats(traced), [&] {
    trainer.reset();
    d = make_train_data(seed);
    model = make_model(seed);
    trainer = std::make_unique<core::Trainer>(*model, *d->sampler, d->eq, tcfg);
  });
  rep.metric("setup_s", setup_s, "s");

  // Traced mode trains a second, identically seeded model with the traced
  // step, in blocks alternating with the untraced Trainer's.
  std::unique_ptr<core::MeshfreeFlowNet> tmodel;
  std::unique_ptr<optim::Adam> topt;
  Rng trng(seed * 0x51ED2701ull + 77ull);
  if (traced) {
    tmodel = make_model(seed);
    tmodel->set_training(true);
    topt = std::make_unique<optim::Adam>(tmodel->parameters(), tcfg.adam);
  }
  const int block = traced ? 8 : 1 << 30;

  std::vector<double> step_ms, traced_ms;
  std::vector<std::pair<double, double>> curve{{0.0, held_out_loss(*model, *d)}};
  double train_s = 0.0;
  std::uint64_t nonfinite = 0, allocs = 0, heap_allocs = 0;
  std::int64_t tstep = 0;
  const auto t_end = after_seconds(seconds);
  while (Clock::now() < t_end) {
    for (int i = 0; i < block && Clock::now() < t_end; ++i) {
      const auto t0 = Clock::now();
      const core::EpochStats st = trainer->run_epoch();
      const double ms = ms_since(t0);
      step_ms.push_back(ms);
      train_s += ms * 1e-3;
      ++rep.attempted;
      if (!std::isfinite(st.total_loss)) ++nonfinite;
      if (step_ms.size() % kEvalEvery == 0)
        curve.emplace_back(train_s, held_out_loss(*model, *d));
    }
    if (!traced) continue;
    Tracer::arm(true);
    for (int i = 0; i < block && Clock::now() < t_end; ++i) {
      const auto s0 = backend::CachingAllocator::instance().stats();
      const auto t0 = Clock::now();
      const double loss = traced_train_step(*tmodel, *topt, *d, trng, tcfg, tstep++);
      traced_ms.push_back(ms_since(t0));
      const auto s1 = backend::CachingAllocator::instance().stats();
      allocs += s1.allocs - s0.allocs;
      heap_allocs += s1.heap_allocs - s0.heap_allocs;
      ++rep.attempted;
      if (!std::isfinite(loss)) ++nonfinite;
    }
    Tracer::arm(false);
  }
  const double val_loss = held_out_loss(*model, *d);
  rep.failed += nonfinite;
  rep.check("train.losses_finite", nonfinite == 0 && std::isfinite(val_loss));

  // Medians over groups of kEvalEvery consecutive steps (one group when a
  // short run has fewer steps).
  auto chunks = groups_of(step_ms, kEvalEvery);
  if (chunks.empty()) chunks.push_back(step_ms);
  rep.metric("throughput_per_s",
             median_over(chunks, [&](const std::vector<double>& c) {
               return kTrainBatch / (mean(c) * 1e-3);
             }),
             "patches/s");
  rep.metric("p50_ms", median(step_ms), "ms");
  rep.metric("tail_ms", median_over(chunks, [](const std::vector<double>& c) {
               return percentile(c, 0.90);
             }),
             "ms");
  rep.context("train_s", train_s);
  rep.context("steps", static_cast<double>(step_ms.size()));
  rep.metric("val_loss", val_loss, "loss");
  rep.context("initial_val_loss", curve.front().second);
  rep.metric("time_to_target_s", time_to_target(curve, a.num("target-loss")), "s");
  rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  if (!traced) return;

  const auto agg = Tracer::aggregate();
  const double n = static_cast<double>(traced_ms.size());
  static const char* kStages[] = {
      "data.sample", "nn.encode_fwd",        "core.decode_derivs_fwd",
      "core.loss",   "autodiff.bwd_decoder", "autodiff.bwd_encoder",
      "optim.step"};
  double stage_sum = 0.0;
  for (const char* s : kStages) {
    const double ms = ms_per_op(agg, s, n);
    stage_sum += ms;
    rep.layer(std::string(s) + "_ms", ms);
  }
  const std::vector<double> steps = span_ms(agg, "train.step");
  const Tail ttail = tail_percentile(steps);
  rep.layer("train.step_p50_ms", median(steps));
  rep.layer("train.step_tail_ms", ttail.value);
  rep.context("traced_step_tail_pct", ttail.pct);
  const double frac = stage_sum / mean(steps);
  rep.layer("train.stage_sum_frac", frac);
  rep.check("train.stage_sum_within_10pct", std::abs(frac - 1.0) <= 0.10);
  rep.layer("solver.dataset_s", d->dataset_s);
  rep.layer("backend.tensor_allocs_per_step", static_cast<double>(allocs) / n);
  rep.layer("backend.heap_allocs_per_step", static_cast<double>(heap_allocs) / n);
  rep.layer("backend.peak_in_use_mib",
            static_cast<double>(backend::CachingAllocator::instance()
                                    .stats()
                                    .peak_bytes_in_use) /
                (1024.0 * 1024.0));
  rep.layer("train.trace_overhead_frac", mean(traced_ms) / mean(step_ms) - 1.0);
}

// ========================================================== serve shared ==
/// A direct no-grad predict on `model` (eval mode): the reference the
/// engine's responses are checked against.
Tensor reference_predict(core::MeshfreeFlowNet& model, const Tensor& patch,
                         const Tensor& coords) {
  model.set_training(false);
  ad::NoGradGuard no_grad;
  return model.predict(patch, coords).value();
}

/// Probe check: engine responses must match a direct no-grad predict on
/// an identically initialised model copy. The probes are submitted before
/// any is awaited, so the batcher coalesces them as it does live traffic.
/// Returns the mismatch count.
int probe_engine(serve::InferenceEngine& engine, serve::TenantId tenant,
                 core::MeshfreeFlowNet& copy,
                 const std::vector<std::pair<std::uint64_t, Tensor>>& patches,
                 const Tensor& coords, double* max_err) {
  std::vector<std::future<Tensor>> futs;
  for (const auto& [pid, patch] : patches)
    futs.push_back(engine.query(tenant, pid, patch, coords));
  int bad = 0;
  for (std::size_t i = 0; i < futs.size(); ++i)
    if (!close_to(futs[i].get(), reference_predict(copy, patches[i].second, coords),
                  max_err))
      ++bad;
  return bad;
}

/// Window deltas of one tenant's engine counters.
struct TenantWindow {
  double hits = 0, misses = 0, evictions = 0, encodes = 0, dedup = 0,
         drained_rows = 0;
};

TenantWindow tenant_counters(const serve::InferenceEngine& engine,
                             serve::TenantId t) {
  TenantWindow w;
  const auto c = engine.cache_stats(t);
  const auto e = engine.encode_stats(t);
  w.hits = static_cast<double>(c.hits);
  w.misses = static_cast<double>(c.misses);
  w.evictions = static_cast<double>(c.evictions);
  w.encodes = static_cast<double>(e.encodes);
  w.dedup = static_cast<double>(e.dedup_encodes);
  const auto b = engine.batcher_stats();
  auto it = b.per_tenant.find(t);
  if (it != b.per_tenant.end())
    w.drained_rows = static_cast<double>(it->second.drained_rows);
  return w;
}

TenantWindow operator-(TenantWindow a, const TenantWindow& b) {
  a.hits -= b.hits;
  a.misses -= b.misses;
  a.evictions -= b.evictions;
  a.encodes -= b.encodes;
  a.dedup -= b.dedup;
  a.drained_rows -= b.drained_rows;
  return a;
}

TenantWindow& operator+=(TenantWindow& a, const TenantWindow& b) {
  a.hits += b.hits;
  a.misses += b.misses;
  a.evictions += b.evictions;
  a.encodes += b.encodes;
  a.dedup += b.dedup;
  a.drained_rows += b.drained_rows;
  return a;
}

// ========================================================== serve_closed ==
constexpr int kClosedClients = 4;
constexpr int kHotPatches = 8;
constexpr int kCoordPool = 16;  // coordinate sets requests draw from
constexpr std::int64_t kServeQueries = 256;
constexpr std::int64_t kMaxWaitUs = 300;

struct ClosedSetup {
  std::unique_ptr<serve::InferenceEngine> engine;
  std::vector<Tensor> patches;
  std::vector<Tensor> coords;
  /// Direct no-grad predict of every (patch, coordinate set) pair on an
  /// identically initialised model copy, at [patch * kCoordPool + coords].
  std::vector<Tensor> expected;
};

/// One request: a random hot patch and coordinate set. Returns the index
/// of its expected response and the engine's future.
std::pair<std::size_t, std::future<Tensor>> closed_request(ClosedSetup& st,
                                                           Rng& rng) {
  const auto pid = static_cast<std::size_t>(rng.uniform_int(0, kHotPatches));
  const auto ci = static_cast<std::size_t>(rng.uniform_int(0, kCoordPool));
  return {pid * kCoordPool + ci,
          st.engine->query(pid, st.patches[pid], st.coords[ci])};
}

void run_serve_closed(const Args& a, Report& rep, bool traced) {
  const auto seed = static_cast<std::uint64_t>(a.num("seed"));
  const double seconds = a.num("seconds");

  ClosedSetup st;
  const double setup_s = timed_setups(setup_repeats(traced), [&] {
    st = ClosedSetup{};
    serve::InferenceEngineConfig cfg;
    cfg.batcher.max_wait_us = kMaxWaitUs;
    st.engine = std::make_unique<serve::InferenceEngine>(make_model(seed), cfg);
    Rng rng(seed * 31 + 7);
    for (int i = 0; i < kHotPatches; ++i) st.patches.push_back(random_patch(rng));
    for (int i = 0; i < kCoordPool; ++i)
      st.coords.push_back(random_coords(rng, kServeQueries));
    const auto copy = make_model(seed);
    for (const Tensor& patch : st.patches)
      for (const Tensor& coords : st.coords)
        st.expected.push_back(reference_predict(*copy, patch, coords));
    for (int i = 0; i < kHotPatches; ++i)
      st.engine->prewarm(static_cast<std::uint64_t>(i),
                         st.patches[static_cast<std::size_t>(i)]);
    // Compile the common flush shapes with a burst of the client loop.
    std::vector<std::thread> warm;
    for (int c = 0; c < kClosedClients; ++c)
      warm.emplace_back([&, c] {
        Rng wrng(seed * 1000 + static_cast<std::uint64_t>(c));
        for (int i = 0; i < 64; ++i) closed_request(st, wrng).second.get();
      });
    for (auto& t : warm) t.join();
  });
  rep.metric("setup_s", setup_s, "s");
  serve::InferenceEngine& engine = *st.engine;

  const auto plans0 = engine.plan_stats();
  const auto batch0 = engine.batcher_stats();
  const auto alloc0 = backend::CachingAllocator::instance().stats();
  const TenantWindow tw0 = tenant_counters(engine, serve::kDefaultTenant);

  // Traced mode alternates untraced and traced windows of 0.5 s; clients
  // read the window flag once per request.
  std::atomic<bool> window_traced{false};
  // (completion time in s since the start, latency in ms) per client.
  std::vector<std::vector<std::pair<double, double>>> lat(kClosedClients),
      tlat(kClosedClients);
  std::vector<double> max_err(kClosedClients, 0.0);
  std::atomic<std::uint64_t> attempted{0}, failed{0}, mismatched{0};
  const auto t_start = Clock::now();
  const auto t_end = after_seconds(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClosedClients; ++c)
    threads.emplace_back([&, c] {
      const auto ci = static_cast<std::size_t>(c);
      Rng rng(seed * 7777 + static_cast<std::uint64_t>(c) * 13 + 1);
      std::int64_t op = static_cast<std::int64_t>(c) << 40;
      while (Clock::now() < t_end) {
        const bool in_trace = window_traced.load(std::memory_order_relaxed);
        attempted.fetch_add(1, std::memory_order_relaxed);
        const auto t0 = Clock::now();
        try {
          std::size_t want = 0;
          Tensor out;
          {
            ScopedSpan req("serve.request", op++);
            std::future<Tensor> fut;
            {
              ScopedSpan s("serve.query_call");
              std::tie(want, fut) = closed_request(st, rng);
            }
            ScopedSpan s("serve.wait");
            out = fut.get();
          }
          const auto t1 = Clock::now();
          (in_trace ? tlat : lat)[ci].emplace_back(ms_between(t_start, t1) * 1e-3,
                                                  ms_between(t0, t1));
          // Every response is checked, after its latency is taken: coalesced
          // flushes stack and demultiplex requests, and a response holding
          // another request's rows must not pass.
          if (!close_to(out, st.expected[want], &max_err[ci]))
            mismatched.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  if (traced) {
    bool on = false;
    while (Clock::now() < t_end) {
      std::this_thread::sleep_until(std::min(t_end, after_seconds(0.5)));
      on = !on;
      Tracer::arm(on);
      window_traced.store(on, std::memory_order_relaxed);
    }
    Tracer::arm(false);
  }
  for (auto& t : threads) t.join();
  const double wall_s = ms_since(t_start) * 1e-3;

  std::vector<std::pair<double, double>> all, all_traced;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  for (auto& v : tlat) all_traced.insert(all_traced.end(), v.begin(), v.end());
  rep.attempted += attempted.load();
  rep.failed += failed.load() + mismatched.load();
  rep.check("serve_closed.responses_match_predict", mismatched.load() == 0);
  rep.context("max_abs_err", *std::max_element(max_err.begin(), max_err.end()));

  const auto plans1 = engine.plan_stats();
  const auto batch1 = engine.batcher_stats();
  const auto alloc1 = backend::CachingAllocator::instance().stats();
  const TenantWindow tw = tenant_counters(engine, serve::kDefaultTenant) - tw0;

  // Medians over 0.5 s windows (traced mode: over the untraced windows).
  const double width = 0.5;
  const auto windows = windows_of(all, width, wall_s);
  const double qps = median_over(windows, [&](const std::vector<double>& w) {
    return static_cast<double>(w.size()) * static_cast<double>(kServeQueries) /
           width;
  });
  rep.metric("throughput_per_s", qps, "query_pts/s");
  rep.metric("rps", qps / static_cast<double>(kServeQueries), "req/s");
  rep.metric("p50_ms", median_over(windows, [](const std::vector<double>& w) {
               return percentile(w, 0.50);
             }),
             "ms");
  rep.metric("tail_ms", median_over(windows, [](const std::vector<double>& w) {
               return percentile(w, 0.90);
             }),
             "ms");
  rep.metric("p99_ms", median_over(windows, [](const std::vector<double>& w) {
               return percentile(w, 0.99);
             }),
             "ms");
  rep.context("requests", static_cast<double>(all.size()));
  rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  if (!traced) return;

  const auto agg = Tracer::aggregate();
  const std::vector<double> wait = span_ms(agg, "serve.wait");
  const double reqs = static_cast<double>(batch1.requests - batch0.requests);
  const double flushes = static_cast<double>(batch1.flushes - batch0.flushes);
  const double planned =
      static_cast<double>(batch1.planned_decodes - batch0.planned_decodes);
  const double tape = static_cast<double>(batch1.tape_decodes - batch0.tape_decodes);
  const double phits = static_cast<double>(plans1.hits - plans0.hits);
  const double pmiss = static_cast<double>(plans1.misses - plans0.misses);
  const double flush_rows = static_cast<double>(batch1.rows - batch0.rows) / flushes;
  rep.layer("serve.query_call_us", mean(span_ms(agg, "serve.query_call")) * 1e3);
  rep.layer("serve.wait_p50_ms", percentile(wait, 0.50));
  rep.layer("serve.wait_p99_ms", percentile(wait, 0.99));
  rep.layer("serve.requests_per_decode",
            reqs / static_cast<double>(batch1.decode_calls - batch0.decode_calls));
  rep.layer("serve.flush_rows_mean", flush_rows);
  rep.layer("serve.planned_frac", planned / (planned + tape));
  rep.layer("serve.plan_hit_rate", phits / (phits + pmiss));
  rep.layer("serve.cache_hit_rate", tw.hits / (tw.hits + tw.misses));
  rep.layer("backend.tensor_allocs_per_request",
            static_cast<double>(alloc1.allocs - alloc0.allocs) / reqs);

  // Plan replay at the mean coalesced flush shape, timed directly on the
  // engine's prepared weights.
  const auto snap = engine.registry().require(serve::kDefaultTenant)->current();
  core::PlanKey key;
  key.version = snap->version;
  key.n = 1;
  key.q = std::max<std::int64_t>(kServeQueries, std::llround(flush_rows));
  key.lt = kPatchT;
  key.lz = kPatchZ;
  key.lx = kPatchX;
  const auto plan = core::DecodePlan::compile(snap->prepared, key);
  Rng rng(seed + 99);
  const Tensor latent = Tensor::randn(
      Shape{1, snap->prepared->latent_channels(), kPatchT, kPatchZ, kPatchX},
      rng, 0.5f);
  const Tensor coords = random_coords(rng, key.q);
  rep.layer("core.plan_replay_ms",
            plan ? time_direct(200, [&] { (void)plan->execute(latent, coords); })
                 : NAN);
  rep.layer("serve_closed.trace_overhead_frac",
            static_cast<double>(all.size()) /
                    static_cast<double>(all_traced.size()) -
                1.0);
}

// ============================================================ serve_open ==
constexpr int kTenants = 4;
constexpr int kPopulation = 256;           // patches per tenant
constexpr std::size_t kCacheLatents = 64;  // latents per tenant's cache share
constexpr double kTenantZipf = 1.1;
constexpr double kPatchZipf = 0.9;
constexpr int kSenders = 3;
// Offered rates in ascending order; the anchor rung gets kAnchorShare of the
// run and the others split the rest.
constexpr double kLadderRps[] = {1500, 2500, 3000, 3500, 4000, 4500, 5000};
constexpr double kAnchorRps = 1500;
constexpr double kAnchorShare = 0.4;
constexpr double kWindowRequests = 1200;  // arrivals per latency window
constexpr double kWarmupS = 0.5;

/// Zipf(s) CDF over n ranks, rank 0 the most popular.
std::vector<double> zipf_cdf(int n, double s) {
  std::vector<double> cdf(static_cast<std::size_t>(n));
  double total = 0.0;
  for (int k = 0; k < n; ++k) total += std::pow(k + 1.0, -s);
  double cum = 0.0;
  for (int k = 0; k < n; ++k) {
    cum += std::pow(k + 1.0, -s) / total;
    cdf[static_cast<std::size_t>(k)] = cum;
  }
  cdf.back() = 1.0;
  return cdf;
}

int zipf_pick(const std::vector<double>& cdf, double u) {
  return static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                          cdf.begin());
}

/// One scheduled request of the open loop and what became of it.
struct Arrival {
  double due_s = 0.0;  // offset from the start of the rung
  int tenant = 0;
  int patch = 0;
  int coords = 0;
};
struct Outcome {
  double latency_ms = INFINITY;  // due time -> response; inf if it failed
  double lag_ms = 0.0;           // due time -> send
  double call_ms = 0.0;          // inside InferenceEngine::query
  double wait_ms = 0.0;          // query() return -> response ready
  bool ok = false;
};

struct OpenSetup {
  std::vector<std::unique_ptr<core::MeshfreeFlowNet>> copies;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::vector<std::vector<Tensor>> patches;  // [tenant][patch id]
  std::vector<Tensor> coords;
};

/// Poisson arrivals at `rate` for `seconds`: Zipf tenant, then Zipf patch
/// within the tenant (through a per-tenant rank -> id permutation).
std::vector<Arrival> make_schedule(double rate, double seconds, Rng& rng,
                                   const std::vector<double>& tenant_cdf,
                                   const std::vector<double>& patch_cdf,
                                   const std::vector<std::vector<int>>& perm) {
  std::vector<Arrival> sched;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - std::min(rng.uniform(), 0.999999)) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.due_s = t;
    a.tenant = zipf_pick(tenant_cdf, rng.uniform());
    a.patch = perm[static_cast<std::size_t>(a.tenant)]
                  [static_cast<std::size_t>(zipf_pick(patch_cdf, rng.uniform()))];
    a.coords = static_cast<int>(rng.uniform_int(0, kCoordPool));
    sched.push_back(a);
  }
  return sched;
}

/// Runs one schedule. kSenders threads claim arrivals in order and send
/// each at its due time, so an encode-on-miss stall on one sender delays
/// only what that sender claims; every latency is timed from the due time,
/// so stalls are charged to the requests they delay (no coordinated
/// omission). This thread harvests responses as they become ready and
/// samples the batcher's queue depth.
std::vector<Outcome> run_schedule(OpenSetup& st, const std::vector<Arrival>& sched,
                                  std::int64_t* queue_rows_max) {
  std::vector<Outcome> out(sched.size());
  struct Pending {
    std::size_t i;
    Clock::time_point returned;
    std::future<Tensor> fut;
  };
  std::mutex mu;
  std::vector<Pending> inbox;  // guarded by mu
  std::atomic<std::size_t> next{0};
  std::atomic<int> running{kSenders};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<std::int64_t>(sched[i].due_s * 1e9));
  };

  std::vector<std::thread> threads;
  for (int s = 0; s < kSenders; ++s)
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= sched.size()) break;
        const Arrival& a = sched[i];
        std::this_thread::sleep_until(due(i));
        const auto t_send = Clock::now();
        Outcome& o = out[i];
        o.lag_ms = ms_between(due(i), t_send);
        try {
          ScopedSpan send("gen.send", static_cast<std::int64_t>(i));
          std::future<Tensor> fut;
          {
            ScopedSpan s("serve.query_call");
            fut = st.engine->query(
                static_cast<serve::TenantId>(a.tenant),
                static_cast<std::uint64_t>(a.patch),
                st.patches[static_cast<std::size_t>(a.tenant)]
                          [static_cast<std::size_t>(a.patch)],
                st.coords[static_cast<std::size_t>(a.coords)]);
          }
          const auto t_ret = Clock::now();
          o.call_ms = ms_between(t_send, t_ret);
          std::lock_guard<std::mutex> lk(mu);
          inbox.push_back({i, t_ret, std::move(fut)});
        } catch (const std::exception&) {
          o.ok = false;  // counts as over any latency limit
        }
      }
      running.fetch_sub(1);
    });

  std::vector<Pending> pending;
  auto last_sample = Clock::now();
  for (;;) {
    const bool senders_done = running.load() == 0;
    {
      std::lock_guard<std::mutex> lk(mu);
      for (auto& p : inbox) pending.push_back(std::move(p));
      inbox.clear();
    }
    if (pending.empty()) {
      if (senders_done) break;  // nothing in flight, nothing more coming
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    bool progressed = false;
    for (std::size_t k = 0; k < pending.size();) {
      Pending& p = pending[k];
      if (p.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      const auto t_done = Clock::now();
      Outcome& o = out[p.i];
      try {
        const Tensor t = p.fut.get();
        o.ok = t.ndim() == 2 && t.dim(1) == 4 && all_finite(t);
      } catch (const std::exception&) {
        o.ok = false;
      }
      o.wait_ms = ms_between(p.returned, t_done);
      o.latency_ms = o.ok ? ms_between(due(p.i), t_done) : INFINITY;
      pending[k] = std::move(pending.back());
      pending.pop_back();
      progressed = true;
    }
    if (ms_since(last_sample) >= 5.0) {
      *queue_rows_max =
          std::max(*queue_rows_max, st.engine->batcher_stats().queue_rows);
      last_sample = Clock::now();
    }
    if (!progressed && !pending.empty())
      pending.front().fut.wait_for(std::chrono::microseconds(200));
  }
  for (auto& t : threads) t.join();
  return out;
}

/// Highest offered rate whose p99 meets `limit`, interpolated on log p99
/// between the last rung that meets it and the first that does not.
double max_rate_within(const std::vector<std::pair<double, double>>& rungs,
                       double limit) {
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (rungs[i].second <= limit) continue;
    if (i == 0) return NAN;
    const auto [r0, p0] = rungs[i - 1];
    const auto [r1, p1] = rungs[i];
    if (!std::isfinite(p1)) return r0;
    return r0 + (r1 - r0) * (std::log(limit) - std::log(p0)) /
                    (std::log(p1) - std::log(p0));
  }
  return rungs.empty() ? NAN : rungs.back().first;
}

void run_serve_open(const Args& a, Report& rep, bool traced) {
  const auto seed = static_cast<std::uint64_t>(a.num("seed"));
  const double seconds = a.num("seconds");
  const double limit_ms = a.num("limit-ms");
  const std::vector<double> ladder =
      traced ? std::vector<double>{kAnchorRps}
             : std::vector<double>(std::begin(kLadderRps), std::end(kLadderRps));
  const serve::TenantId cold = kTenants - 1;

  const auto tenant_cdf = zipf_cdf(kTenants, kTenantZipf);
  const auto patch_cdf = zipf_cdf(kPopulation, kPatchZipf);
  Rng rng(seed * 104729 + 3);
  std::vector<std::vector<int>> perm(kTenants);
  for (auto& p : perm) {
    p.resize(kPopulation);
    std::iota(p.begin(), p.end(), 0);
    for (std::size_t i = p.size() - 1; i > 0; --i)
      std::swap(p[i], p[static_cast<std::size_t>(
                          rng.uniform_int(0, static_cast<std::int64_t>(i) + 1))]);
  }

  OpenSetup st;
  const double setup_s = timed_setups(setup_repeats(traced), [&] {
    st = OpenSetup{};
    serve::InferenceEngineConfig cfg;
    // Each tenant's share holds kCacheLatents (1,16,4,8,8) grids, a quarter
    // of its patch population.
    cfg.cache_bytes = kCacheLatents * kTenants * 16 * kPatchT * kPatchZ *
                      kPatchX * sizeof(float);
    cfg.batcher.max_wait_us = kMaxWaitUs;
    for (int t = 0; t < kTenants; ++t) {
      const std::uint64_t ms = seed * 16 + static_cast<std::uint64_t>(t);
      if (t == 0)
        st.engine = std::make_unique<serve::InferenceEngine>(make_model(ms), cfg);
      else
        st.engine->add_tenant(static_cast<serve::TenantId>(t), make_model(ms));
      st.copies.push_back(make_model(ms));
    }
    Rng prng(seed * 31 + 11);
    st.patches.resize(kTenants);
    for (auto& set : st.patches)
      for (int i = 0; i < kPopulation; ++i) set.push_back(random_patch(prng));
    for (int i = 0; i < kCoordPool; ++i)
      st.coords.push_back(random_coords(prng, kServeQueries));
    // Warm each tenant's cache with its most popular patches, then run the
    // anchor rate briefly so the LRU state and the compiled plan shapes are
    // those of steady traffic.
    for (int t = 0; t < kTenants; ++t) {
      const auto& ids = perm[static_cast<std::size_t>(t)];
      const auto& set = st.patches[static_cast<std::size_t>(t)];
      for (std::size_t r = 0; r < kCacheLatents; ++r)
        st.engine->prewarm(static_cast<serve::TenantId>(t),
                           static_cast<std::uint64_t>(ids[r]),
                           set[static_cast<std::size_t>(ids[r])]);
    }
    Rng wrng(seed * 8191 + 17);
    std::int64_t ignored = 0;
    (void)run_schedule(
        st, make_schedule(kAnchorRps, kWarmupS, wrng, tenant_cdf, patch_cdf, perm),
        &ignored);
  });
  rep.metric("setup_s", setup_s, "s");
  serve::InferenceEngine& engine = *st.engine;

  struct Block {
    double rate;
    bool traced;
    double seconds;
    std::vector<Arrival> sched;
    std::vector<Outcome> out;
  };
  // Untraced: the ladder rungs in ascending order, draining between rungs.
  // Traced: the anchor rate in alternating untraced and traced blocks of
  // about 1 s.
  std::vector<Block> blocks;
  if (traced) {
    const int n = std::max(2, static_cast<int>(std::lround(seconds)));
    for (int i = 0; i < n; ++i)
      blocks.push_back({kAnchorRps, i % 2 == 1, seconds / n, {}, {}});
  } else {
    const double rest = seconds * (1.0 - kAnchorShare) /
                        static_cast<double>(ladder.size() - 1);
    for (double r : ladder)
      blocks.push_back(
          {r, false, r == kAnchorRps ? seconds * kAnchorShare : rest, {}, {}});
  }
  std::int64_t queue_rows_max = 0;
  std::vector<TenantWindow> win(kTenants);
  std::uint64_t failed = 0;
  for (Block& b : blocks) {
    b.sched = make_schedule(b.rate, b.seconds, rng, tenant_cdf, patch_cdf, perm);
    std::vector<TenantWindow> w0;
    for (int t = 0; t < kTenants; ++t)
      w0.push_back(tenant_counters(engine, static_cast<serve::TenantId>(t)));
    Tracer::arm(b.traced);
    b.out = run_schedule(st, b.sched, &queue_rows_max);
    Tracer::arm(false);
    if (b.traced || !traced)
      for (int t = 0; t < kTenants; ++t)
        win[static_cast<std::size_t>(t)] +=
            tenant_counters(engine, static_cast<serve::TenantId>(t)) -
            w0[static_cast<std::size_t>(t)];
    rep.attempted += b.out.size();
    for (const Outcome& o : b.out) failed += o.ok ? 0 : 1;
  }
  rep.failed += failed;
  rep.check("serve_open.all_requests_served", failed == 0);

  // Samples of the blocks at `rate` (failures as +inf latency).
  auto collect = [&](bool want_traced, double rate,
                     std::function<double(const Outcome&)> f, int tenant = -1) {
    std::vector<double> v;
    for (const Block& b : blocks) {
      if (b.traced != want_traced || b.rate != rate) continue;
      for (std::size_t i = 0; i < b.out.size(); ++i)
        if (tenant < 0 || b.sched[i].tenant == tenant) v.push_back(f(b.out[i]));
    }
    return v;
  };
  auto latency = [](const Outcome& o) { return o.latency_ms; };
  // Median over consecutive windows of about kWindowRequests arrivals of
  // each window's latency quantile: a burst of CPU steal spoils a window,
  // not the rung.
  auto windowed = [&](const Block& b, double q) {
    const double win_s = kWindowRequests / b.rate;
    std::map<std::int64_t, std::vector<double>> by_window;
    for (std::size_t i = 0; i < b.out.size(); ++i)
      by_window[static_cast<std::int64_t>(b.sched[i].due_s / win_s)].push_back(
          b.out[i].latency_ms);
    std::vector<double> per;
    for (const auto& [w, v] : by_window)
      if (static_cast<double>(v.size()) >= kWindowRequests / 2)
        per.push_back(percentile(v, q));
    return per.empty() ? NAN : median(per);
  };

  const std::vector<double> cold_lat =
      collect(false, kAnchorRps, latency, static_cast<int>(cold));
  const Tail cold_tail = tail_percentile(cold_lat);
  rep.metric("cold_p99_ms", percentile(cold_lat, 0.99), "ms");
  rep.context("cold_tail_pct", cold_tail.pct);
  rep.metric("cold_tail_ms", cold_tail.value, "ms");
  const std::vector<double> at_anchor = collect(false, kAnchorRps, latency);
  rep.context("anchor_requests", static_cast<double>(at_anchor.size()));
  if (traced) {
    rep.metric("p50_ms", percentile(at_anchor, 0.50), "ms");
    rep.metric("p99_ms", percentile(at_anchor, 0.99), "ms");
  } else {
    std::vector<std::pair<double, double>> rungs;
    for (const Block& b : blocks) {
      const double p99 = windowed(b, 0.99);
      rungs.emplace_back(b.rate, p99);
      double lag_max = 0.0;
      for (const Outcome& o : b.out) lag_max = std::max(lag_max, o.lag_ms);
      // Delivered rate: responses over first due time -> last response.
      double last_ms = 0.0;
      for (std::size_t i = 0; i < b.out.size(); ++i)
        last_ms = std::max(last_ms, b.sched[i].due_s * 1e3 + b.out[i].latency_ms);
      const double delivered =
          static_cast<double>(b.out.size()) /
          ((last_ms - (b.sched.empty() ? 0.0 : b.sched.front().due_s * 1e3)) * 1e-3);
      const std::string tag = std::to_string(static_cast<int>(b.rate));
      rep.context("p99_ms_at_" + tag, p99);
      rep.context("p90_ms_at_" + tag, windowed(b, 0.90));
      rep.context("p50_ms_at_" + tag, windowed(b, 0.50));
      rep.context("delivered_rps_at_" + tag, delivered);
      rep.context("gen_lag_max_ms_at_" + tag, lag_max);
      if (b.rate == kAnchorRps) {
        rep.metric("p50_ms", windowed(b, 0.50), "ms");
        rep.metric("tail_ms", windowed(b, 0.90), "ms");
        rep.metric("p99_ms", p99, "ms");
      }
      // The top rung overloads the engine: its delivered rate is capacity.
      if (&b == &blocks.back()) rep.metric("throughput_per_s", delivered, "req/s");
    }
    const double max_rps = max_rate_within(rungs, limit_ms);
    rep.metric("max_rps", max_rps, "req/s");
    rep.check("serve_open.limit_met_at_lowest_rate", std::isfinite(max_rps));
    rep.check("serve_open.ladder_reaches_limit", rungs.back().second > limit_ms);
  }

  double max_err = 0.0;
  int mismatches = 0;
  for (int t = 0; t < kTenants; ++t) {
    std::vector<std::pair<std::uint64_t, Tensor>> probe;
    for (int i = 0; i < 4; ++i)
      probe.emplace_back(static_cast<std::uint64_t>(i),
                         st.patches[static_cast<std::size_t>(t)]
                                   [static_cast<std::size_t>(i)]);
    mismatches += probe_engine(engine, static_cast<serve::TenantId>(t),
                               *st.copies[static_cast<std::size_t>(t)], probe,
                               st.coords.front(), &max_err);
    rep.attempted += probe.size();
  }
  rep.failed += static_cast<std::uint64_t>(mismatches);
  rep.check("serve_open.probe_matches_predict", mismatches == 0);
  rep.context("probe_max_abs_err", max_err);
  rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  if (!traced) return;

  auto field = [&](double Outcome::*m) {
    return collect(true, kAnchorRps, [m](const Outcome& o) { return o.*m; });
  };
  const std::vector<double> lag = field(&Outcome::lag_ms);
  const std::vector<double> call = field(&Outcome::call_ms);
  const std::vector<double> wait = field(&Outcome::wait_ms);
  rep.layer("gen.lag_p50_ms", percentile(lag, 0.50));
  rep.layer("gen.lag_p99_ms", percentile(lag, 0.99));
  rep.layer("serve.open_query_call_p50_ms", percentile(call, 0.50));
  rep.layer("serve.open_query_call_p99_ms", percentile(call, 0.99));
  rep.layer("serve.open_wait_p50_ms", percentile(wait, 0.50));
  rep.layer("serve.open_wait_p99_ms", percentile(wait, 0.99));
  TenantWindow sum;
  for (const TenantWindow& w : win) sum += w;
  const double reqs = static_cast<double>(lag.size());
  rep.layer("serve.open_cache_hit_rate", sum.hits / (sum.hits + sum.misses));
  rep.layer("serve.encodes_per_request", sum.encodes / reqs);
  rep.layer("serve.evictions_per_request", sum.evictions / reqs);
  rep.layer("serve.dedup_encodes", sum.dedup);
  rep.layer("serve.queue_rows_max", static_cast<double>(queue_rows_max));
  rep.layer("serve.cold_share", win[cold].drained_rows / sum.drained_rows);
  rep.layer("serve.cold_drained_rows", win[cold].drained_rows);
  // One (1, 4, 4, 8, 8) patch through the encoder, no tape, timed directly.
  core::MeshfreeFlowNet& enc = *st.copies.front();
  enc.set_training(false);
  const Tensor patch = st.patches.front().front();
  rep.layer("nn.encode_ms", time_direct(50, [&] {
              ad::NoGradGuard no_grad;
              (void)enc.encode(patch);
            }));
  const double p50_traced = percentile(collect(true, kAnchorRps, latency), 0.50);
  rep.layer("serve_open.trace_overhead_frac",
            p50_traced / percentile(at_anchor, 0.50) - 1.0);
}

// ============================================================ dist_train ==
/// Pin the calling thread to the index-th CPU it may run on, so that the
/// rank threads of a job run on separate processors, as separate processes
/// would. Unpinned, wake-affine scheduling sometimes stacks both ranks on
/// one CPU, which makes per-job step times bimodal.
void pin_to_cpu(int index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n < 2) return;
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || seen++ != index % n) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

/// A loopback port free at the time of the call.
int free_port() {
  dist::TcpSocket s = dist::TcpSocket::listen_on("127.0.0.1", 0);
  return s.bound_port();
}

struct Job {
  double wall_ms = 0.0;
  dist::DistTrainResult r0;
  bool ok = true;
};

/// One training job: `world` ranks of run_train_worker as threads (rank r
/// pinned to the r-th CPU), rank 0 the coordinator.
Job run_job(int world, int steps, std::uint64_t seed) {
  const int port = free_port();
  auto config = [&](int rank) {
    dist::DistTrainConfig c;
    c.rank = rank;
    c.world = world;
    c.port = port;
    c.steps = steps;
    c.seed = seed;
    return c;
  };
  Job job;
  const auto t0 = Clock::now();
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
  std::vector<std::thread> ranks;
  for (int r = 0; r < world; ++r)
    ranks.emplace_back([&, r] {
      pin_to_cpu(r);
      try {
        dist::DistTrainResult res = dist::run_train_worker(config(r));
        if (r == 0) job.r0 = std::move(res);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  for (auto& t : ranks) t.join();
  job.wall_ms = ms_since(t0);
  for (const auto& e : errors)
    if (e) {
      job.ok = false;
      try {
        std::rethrow_exception(e);
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "[perfbench] dist job failed: %s\n", ex.what());
      }
    }
  return job;
}

double tail_loss(const dist::DistTrainResult& r, std::size_t last) {
  const auto& v = r.step_loss;
  const std::size_t n = std::min(last, v.size());
  double s = 0.0;
  for (std::size_t i = v.size() - n; i < v.size(); ++i) s += v[i];
  return n == 0 ? NAN : s / static_cast<double>(n);
}

constexpr int kDistSteps = 100;  // steps of a timed job

void run_dist_train(const Args& a, Report& rep, bool traced) {
  const auto seed = static_cast<std::uint64_t>(a.num("seed"));
  const double seconds = a.num("seconds");
  const dist::DistTrainConfig defaults;

  bool setup_ok = true;
  const double setup_s = timed_setups(
      setup_repeats(traced), [&] { setup_ok = setup_ok && run_job(2, 1, seed).ok; });
  rep.metric("setup_s", setup_s, "s");
  rep.check("dist_train.setup_jobs_ok", setup_ok);

  // Each round runs, for world 2 and then world 1, a kDistSteps job and a
  // one-step job. A job's wall time includes a fixed cost (model and data
  // build, listen, dial, admission poll) that setup_s already counts; the
  // median one-step job of the same world is subtracted, leaving
  // kDistSteps - 1 steps. In traced mode every other world-2 timed job
  // runs inside a span.
  std::map<int, std::vector<double>> wall_ms, one_ms;  // by world
  std::vector<double> traced_wall_ms, final_losses;
  int retries = 0, mismatches = 0, bad_world = 0, failed_jobs = 0, nonfinite = 0;
  const auto t_end = after_seconds(seconds);
  for (int i = 0; i == 0 || Clock::now() < t_end; ++i) {
    const bool trace_this = traced && (i % 2 == 1);
    for (int world : {2, 1})
      for (int steps : {kDistSteps, 1}) {
        const bool traced_job = trace_this && world == 2 && steps == kDistSteps;
        Job job;
        Tracer::arm(traced_job);
        {
          ScopedSpan s(world == 2 ? "distributed.job_w2" : "distributed.job_w1", i);
          job = run_job(world, steps, seed);
        }
        Tracer::arm(false);
        rep.attempted += 1;
        if (!job.ok) {
          ++failed_jobs;
          continue;
        }
        retries += job.r0.retries;
        mismatches += job.r0.digest_mismatches;
        bad_world += job.r0.final_world == world ? 0 : 1;
        for (double l : job.r0.step_loss) nonfinite += std::isfinite(l) ? 0 : 1;
        if (steps == 1) {
          one_ms[world].push_back(job.wall_ms);
        } else if (traced_job) {
          traced_wall_ms.push_back(job.wall_ms);
        } else {
          wall_ms[world].push_back(job.wall_ms);
          if (world == 2) final_losses.push_back(tail_loss(job.r0, 10));
        }
      }
  }
  // Per-step ms of each timed job, the fixed per-job cost removed.
  auto per_step = [&](const std::vector<double>& walls, int world) {
    const double fixed = median(one_ms[world]);
    std::vector<double> out;
    for (double w : walls) out.push_back((w - fixed) / (kDistSteps - 1));
    return out;
  };
  const std::vector<double> w2_ms = per_step(wall_ms[2], 2);
  const std::vector<double> w1_ms = per_step(wall_ms[1], 1);
  rep.failed += static_cast<std::uint64_t>(failed_jobs);
  rep.check("dist_train.jobs_completed", failed_jobs == 0);
  rep.check("dist_train.digest_mismatches_zero", mismatches == 0);
  rep.check("dist_train.retries_zero", retries == 0);
  rep.check("dist_train.final_world_as_launched", bad_world == 0);
  rep.check("dist_train.losses_finite", nonfinite == 0);
  bool repeatable = !final_losses.empty();
  for (double l : final_losses) repeatable = repeatable && l == final_losses.front();
  rep.check("dist_train.final_loss_bit_repeatable", repeatable);

  // A step commits batch_size patches per rank.
  const double pps_w2 = 2.0 * defaults.batch_size / (median(w2_ms) * 1e-3);
  const double pps_w1 = defaults.batch_size / (median(w1_ms) * 1e-3);
  rep.metric("throughput_per_s", pps_w2, "patches/s");
  rep.metric("patches_per_s_w1", pps_w1, "patches/s");
  rep.metric("scaling_eff", pps_w2 / (2.0 * pps_w1), "ratio");
  rep.metric("p50_ms", median(w2_ms), "ms");
  // About 20 timed jobs per run leave no percentile with ten jobs beyond
  // it; the upper quartile spread least over seeds under CPU steal (0.07
  // against 0.11 for p90).
  rep.metric("tail_ms", percentile(w2_ms, 0.75), "ms");
  rep.context("jobs_w2", static_cast<double>(w2_ms.size()));
  rep.context("fixed_job_ms_w2", median(one_ms[2]));
  rep.context("fixed_job_ms_w1", median(one_ms[1]));
  rep.metric("final_loss", final_losses.empty() ? NAN : final_losses.front(), "loss");
  rep.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  if (!traced) return;

  // Direct probes: the local step alone, and the ring calls alone.
  Rng model_rng(seed);
  core::MeshfreeFlowNet model(dist::dist_tiny_model_config(), model_rng);
  model.set_training(true);
  optim::Adam opt(model.parameters(), defaults.adam);
  data::SyntheticConfig scfg;
  scfg.seed = seed + 7;
  const data::SRPair pair =
      data::make_sr_pair(data::generate_synthetic_waves(scfg), 2, 2);
  data::PatchSamplerConfig pcfg;
  pcfg.queries_per_patch = 128;
  const data::PatchSampler sampler(pair, pcfg);
  const core::EquationLossConfig eq;
  Rng data_rng(seed + 1);
  const double local_ms = time_direct(100, [&] {
    ScopedSpan s("core.local_step");
    const data::BatchedSample b = sampler.sample_batch(defaults.batch_size, data_rng);
    opt.zero_grad();
    const core::StepLoss sl = core::batched_step_loss(model, b, eq, defaults.gamma);
    ad::backward(sl.loss);
    opt.step();
  });
  std::int64_t count = 0;
  for (ad::Var* p : model.parameters()) count += p->value().numel();

  std::vector<double> establish_ms, allreduce_ms;
  {
    dist::TcpChannel ch0(0, dist::TcpChannelConfig{}), ch1(1, dist::TcpChannelConfig{});
    const int reps = 100;
    const int port0 = ch0.listen_port(), port1 = ch1.listen_port();
    auto ring_of = [port0, port1](std::uint32_t epoch) {
      dist::Ring ring;
      ring.epoch = epoch;
      ring.members = {{0, port0}, {1, port1}};
      return ring;
    };
    std::exception_ptr err;
    std::thread peer([&] {
      try {
        std::vector<float> g(static_cast<std::size_t>(count), 1.0f);
        for (int e = 1; e <= reps; ++e) {
          const dist::Ring ring = ring_of(static_cast<std::uint32_t>(e));
          dist::establish_ring(ch1, ring, 4000);
          dist::ring_allreduce_average(ch1, ring, g.data(), count, 4000);
        }
      } catch (...) {
        err = std::current_exception();
      }
    });
    std::vector<float> g(static_cast<std::size_t>(count), 1.0f);
    bool ok = true;
    try {
      for (int e = 1; e <= reps; ++e) {
        const dist::Ring ring = ring_of(static_cast<std::uint32_t>(e));
        const auto t0 = Clock::now();
        dist::establish_ring(ch0, ring, 4000);
        const auto t1 = Clock::now();
        dist::ring_allreduce_average(ch0, ring, g.data(), count, 4000);
        establish_ms.push_back(ms_between(t0, t1));
        allreduce_ms.push_back(ms_since(t1));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[perfbench] ring probe failed: %s\n", e.what());
      ok = false;
    }
    peer.join();
    rep.check("dist_train.ring_probe_ok", ok && !err);
  }
  const double step_w2 = median(w2_ms);
  rep.layer("distributed.step_ms_w2", step_w2);
  rep.layer("distributed.step_ms_w1", median(w1_ms));
  rep.layer("core.local_step_ms", local_ms);
  rep.layer("distributed.establish_ring_ms", median(establish_ms));
  rep.layer("distributed.allreduce_ms", median(allreduce_ms));
  rep.layer("distributed.protocol_ms",
            step_w2 - local_ms - median(establish_ms) - median(allreduce_ms));
  // Ring allreduce: each rank sends 2 (W - 1) / W of the float gradients.
  rep.layer("distributed.allreduce_bytes_per_step_computed",
            2.0 * (2 - 1) / 2 * static_cast<double>(count) * sizeof(float));
  rep.context("gradient_count", static_cast<double>(count));
  rep.layer("distributed.retries", retries);
  rep.layer("distributed.digest_mismatches", mismatches);
  rep.layer("dist_train.trace_overhead_frac",
            median(per_step(traced_wall_ms, 2)) / step_w2 - 1.0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv);
    const bool traced = args.has("trace");
    Report rep;
    rep.context("workload", args.workload());
    rep.context("simd_tier", simd::active_tier());
    rep.context("pool", static_cast<double>(ThreadPool::global().size()));
    const std::string& w = args.workload();
    if (w == "train")
      run_train(args, rep, traced);
    else if (w == "serve_closed")
      run_serve_closed(args, rep, traced);
    else if (w == "serve_open")
      run_serve_open(args, rep, traced);
    else if (w == "dist_train")
      run_dist_train(args, rep, traced);
    else
      throw std::runtime_error("unknown workload '" + w + "'");
    if (traced) Tracer::write_chrome(args.str("trace"));
    std::printf("%s\n", rep.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mfn_perfbench: %s\n", e.what());
    return 1;
  }
}
