// Supporting microbenchmarks (google-benchmark): throughput of the
// kernels every experiment rests on — matmul, conv3d, FFT, DNS step,
// latent-grid encode, continuous decode, ring all-reduce — plus ablation
// sweeps over decoder width and latent channels (the design knobs called
// out in DESIGN.md Sec. 5).
#include <benchmark/benchmark.h>

#include "autodiff/variable.h"
#include "backend/simd.h"
#include "backend/workspace.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/decode_plan.h"
#include "core/decoder.h"
#include "core/losses.h"
#include "core/meshfree_flownet.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "distributed/allreduce.h"
#include "distributed/comm_model.h"
#include "distributed/elastic.h"
#include "distributed/tcp_channel.h"
#include "distributed/worker.h"
#include "fft/fft.h"
#include "optim/adam.h"
#include "serve/serve_bench.h"
#include "solver/rb_solver.h"
#include "tensor/nn_kernels.h"
#include "tensor/tensor_ops.h"
#include "threading/thread_pool.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

namespace {

using namespace mfn;

void BM_MatmulSquare(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::randn(Shape{n, n}, rng);
  Tensor b = Tensor::randn(Shape{n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(matmul(a, b));
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatmulSquare)->Arg(64)->Arg(128)->Arg(256);

void BM_Conv3dSame(benchmark::State& state) {
  const auto c = state.range(0);
  Rng rng(2);
  Tensor x = Tensor::randn(Shape{1, c, 4, 16, 16}, rng);
  Tensor w = Tensor::randn(Shape{c, c, 3, 3, 3}, rng, 0.2f);
  Tensor b = Tensor::zeros(Shape{c});
  Conv3dSpec spec;
  for (auto _ : state)
    benchmark::DoNotOptimize(conv3d_forward(x, w, b, spec));
}
BENCHMARK(BM_Conv3dSame)->Arg(8)->Arg(16)->Arg(32);

// Batched conv3d: the batch-parallel backend path vs the seed serial
// reference, at the training-shaped batch size.
void BM_Conv3dBatched(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(2);
  Tensor x = Tensor::randn(Shape{n, 16, 4, 16, 16}, rng);
  Tensor w = Tensor::randn(Shape{16, 16, 3, 3, 3}, rng, 0.2f);
  Tensor b = Tensor::zeros(Shape{16});
  Conv3dSpec spec;
  for (auto _ : state)
    benchmark::DoNotOptimize(conv3d_forward(x, w, b, spec));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Conv3dBatched)->Arg(4)->Arg(8);

void BM_Conv3dBatchedSeedReference(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(2);
  Tensor x = Tensor::randn(Shape{n, 16, 4, 16, 16}, rng);
  Tensor w = Tensor::randn(Shape{16, 16, 3, 3, 3}, rng, 0.2f);
  Tensor b = Tensor::zeros(Shape{16});
  Conv3dSpec spec;
  for (auto _ : state)
    benchmark::DoNotOptimize(conv3d_forward_reference(x, w, b, spec));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Conv3dBatchedSeedReference)->Arg(4)->Arg(8);

void BM_Fft(benchmark::State& state) {
  const auto n = state.range(0);
  Rng rng(3);
  std::vector<fft::cplx> a(static_cast<std::size_t>(n));
  for (auto& v : a) v = fft::cplx(rng.normal(), rng.normal());
  for (auto _ : state) {
    auto copy = a;
    fft::fft_inplace(copy, false);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Fft)->Arg(128)->Arg(1024)->Arg(8192);

void BM_SolverStep(benchmark::State& state) {
  const auto nx = state.range(0);
  solver::RBConfig cfg;
  cfg.nx = static_cast<int>(nx);
  cfg.nz = static_cast<int>(nx) / 4 + 1;
  cfg.Ra = 1e6;
  solver::RBSolver s(cfg);
  s.advance_to(2.0);  // develop some flow first
  for (auto _ : state) benchmark::DoNotOptimize(s.step());
}
BENCHMARK(BM_SolverStep)->Arg(64)->Arg(128)->Arg(256);

void BM_UNetEncode(benchmark::State& state) {
  Rng rng(4);
  core::MFNConfig cfg = core::MFNConfig::small_default();
  core::MeshfreeFlowNet model(cfg, rng);
  model.set_training(false);
  Tensor lr = Tensor::randn(Shape{1, 4, 4, 8, 8}, rng, 0.5f);
  ad::NoGradGuard guard;
  for (auto _ : state) benchmark::DoNotOptimize(model.encode(lr));
}
BENCHMARK(BM_UNetEncode);

// Ablation: decoder query throughput vs MLP width.
void BM_DecoderQuery_Width(benchmark::State& state) {
  const auto width = state.range(0);
  Rng rng(5);
  core::DecoderConfig dcfg;
  dcfg.latent_channels = 16;
  dcfg.hidden = {width, width};
  core::ContinuousDecoder dec(dcfg, rng);
  ad::Var latent(Tensor::randn(Shape{1, 16, 4, 8, 8}, rng, 0.5f), false);
  Tensor coords(Shape{512, 3});
  for (std::int64_t b = 0; b < 512; ++b) {
    coords.at({b, 0}) = static_cast<float>(rng.uniform(0.0, 3.0));
    coords.at({b, 1}) = static_cast<float>(rng.uniform(0.0, 7.0));
    coords.at({b, 2}) = static_cast<float>(rng.uniform(0.0, 7.0));
  }
  ad::NoGradGuard guard;
  for (auto _ : state) benchmark::DoNotOptimize(dec.decode(latent, coords));
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_DecoderQuery_Width)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

// Ablation: derivative-bundle overhead (equation loss) vs plain decode.
void BM_DecoderQuery_WithDerivatives(benchmark::State& state) {
  Rng rng(6);
  core::DecoderConfig dcfg;
  dcfg.latent_channels = 16;
  dcfg.hidden = {32, 32};
  core::ContinuousDecoder dec(dcfg, rng);
  ad::Var latent(Tensor::randn(Shape{1, 16, 4, 8, 8}, rng, 0.5f), false);
  Tensor coords(Shape{256, 3});
  for (std::int64_t b = 0; b < 256; ++b) {
    coords.at({b, 0}) = static_cast<float>(rng.uniform(0.0, 3.0));
    coords.at({b, 1}) = static_cast<float>(rng.uniform(0.0, 7.0));
    coords.at({b, 2}) = static_cast<float>(rng.uniform(0.0, 7.0));
  }
  ad::NoGradGuard guard;
  for (auto _ : state)
    benchmark::DoNotOptimize(dec.decode_with_derivatives(latent, coords));
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_DecoderQuery_WithDerivatives);

// Ablation: latent channel count.
void BM_DecoderQuery_LatentChannels(benchmark::State& state) {
  const auto nc = state.range(0);
  Rng rng(7);
  core::DecoderConfig dcfg;
  dcfg.latent_channels = nc;
  dcfg.hidden = {32, 32};
  core::ContinuousDecoder dec(dcfg, rng);
  ad::Var latent(Tensor::randn(Shape{1, nc, 4, 8, 8}, rng, 0.5f), false);
  Tensor coords(Shape{256, 3});
  for (std::int64_t b = 0; b < 256; ++b) {
    coords.at({b, 0}) = static_cast<float>(rng.uniform(0.0, 3.0));
    coords.at({b, 1}) = static_cast<float>(rng.uniform(0.0, 7.0));
    coords.at({b, 2}) = static_cast<float>(rng.uniform(0.0, 7.0));
  }
  ad::NoGradGuard guard;
  for (auto _ : state) benchmark::DoNotOptimize(dec.decode(latent, coords));
}
BENCHMARK(BM_DecoderQuery_LatentChannels)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_RingAllReduce(benchmark::State& state) {
  const int W = static_cast<int>(state.range(0));
  const std::int64_t n = 1 << 16;
  for (auto _ : state) {
    dist::RingAllReducer reducer(W);
    std::vector<std::vector<float>> bufs(
        static_cast<std::size_t>(W),
        std::vector<float>(static_cast<std::size_t>(n), 1.0f));
    std::vector<std::thread> ts;
    for (int r = 0; r < W; ++r)
      ts.emplace_back([&, r] {
        reducer.allreduce_average(
            r, bufs[static_cast<std::size_t>(r)].data(), n);
      });
    for (auto& t : ts) t.join();
    benchmark::DoNotOptimize(bufs);
  }
  state.SetBytesProcessed(state.iterations() * W * n *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_RingAllReduce)->Arg(2)->Arg(4);

// ------------------------------------------------------ JSON perf lines --
// Machine-readable GFLOP/s for the two hot kernels, so successive PRs can
// track the perf trajectory by grepping `mfn_perf` lines out of CI logs.

double time_best_of(int reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

// Measure fn both ways through the runtime dispatch seam: vector tier as
// configured, then pinned to the scalar reference. Restores the entry
// force_scalar state, so a run under MFN_FORCE_SCALAR=1 reports 1.0x.
struct SimdVsScalar {
  double sec, sec_scalar;
};
SimdVsScalar time_simd_vs_scalar(int reps, const std::function<void()>& fn) {
  const bool was_forced = mfn::simd::force_scalar();
  SimdVsScalar r;
  fn();  // warm up (allocations, pool)
  r.sec = time_best_of(reps, fn);
  mfn::simd::set_force_scalar(true);
  fn();
  r.sec_scalar = time_best_of(reps, fn);
  mfn::simd::set_force_scalar(was_forced);
  return r;
}

// Grab a currently-free loopback port for the dist_train rendezvous (the
// same bind(0)/getsockname trick the `mfn dist-train` launcher uses).
int pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MFN_CHECK(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  MFN_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
            "bind() failed");
  socklen_t len = sizeof(addr);
  MFN_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
            "getsockname() failed");
  ::close(fd);
  return static_cast<int>(ntohs(addr.sin_port));
}

void emit_perf_json() {
  const int threads = ThreadPool::global().size();
  std::printf("{\"mfn_perf\":\"simd\",\"tier\":\"%s\",\"width\":%d}\n",
              simd::active_tier(), simd::kWidth);
  // Pool dispatch: the wall time of an empty parallel_for, back to back,
  // which is what a kernel pays before any of its work runs.
  for (const std::int64_t n : {4, 16, 64}) {
    const int calls = 20000;
    std::vector<double> us(calls);
    for (int i = 0; i < calls; ++i) {
      Stopwatch sw;
      parallel_for(n, [](std::int64_t b, std::int64_t e) {
        benchmark::DoNotOptimize(b);
        benchmark::DoNotOptimize(e);
      });
      us[static_cast<std::size_t>(i)] = sw.seconds() * 1e6;
    }
    std::sort(us.begin(), us.end());
    std::printf(
        "{\"mfn_perf\":\"pool_dispatch\",\"n\":%lld,\"threads\":%d,"
        "\"p50_us\":%.2f,\"p99_us\":%.2f}\n",
        static_cast<long long>(n), threads, us[calls / 2],
        us[calls * 99 / 100]);
  }
  {
    // GEMM: square matmul at a training-representative size.
    const std::int64_t n = 384;
    Rng rng(21);
    Tensor a = Tensor::randn(Shape{n, n}, rng);
    Tensor b = Tensor::randn(Shape{n, n}, rng);
    matmul(a, b);  // warm up pool + workspace
    const double sec =
        time_best_of(5, [&] { benchmark::DoNotOptimize(matmul(a, b)); });
    const double gflops = 2.0 * static_cast<double>(n) * n * n / sec / 1e9;
    std::printf(
        "{\"mfn_perf\":\"gemm\",\"m\":%lld,\"n\":%lld,\"k\":%lld,"
        "\"threads\":%d,\"gflops\":%.3f}\n",
        static_cast<long long>(n), static_cast<long long>(n),
        static_cast<long long>(n), threads, gflops);
  }
  {
    // conv3d forward at training batch size, new path vs seed reference.
    const std::int64_t N = 4, C = 16, F = 16;
    Rng rng(22);
    Tensor x = Tensor::randn(Shape{N, C, 4, 16, 16}, rng);
    Tensor w = Tensor::randn(Shape{F, C, 3, 3, 3}, rng, 0.2f);
    Tensor b = Tensor::zeros(Shape{F});
    Conv3dSpec spec;
    const Shape out = conv3d_output_shape(x.shape(), w.shape(), spec);
    const double flops = 2.0 * static_cast<double>(out.numel()) *
                         static_cast<double>(C) * 27.0;
    conv3d_forward(x, w, b, spec);  // warm up
    conv3d_forward_reference(x, w, b, spec);
    // Interleave the two paths so frequency/scheduling drift on a busy
    // host hits both equally; take each path's best.
    double sec = 1e300, sec_ref = 1e300;
    for (int r = 0; r < 9; ++r) {
      {
        Stopwatch sw;
        benchmark::DoNotOptimize(conv3d_forward(x, w, b, spec));
        sec = std::min(sec, sw.seconds());
      }
      {
        Stopwatch sw;
        benchmark::DoNotOptimize(conv3d_forward_reference(x, w, b, spec));
        sec_ref = std::min(sec_ref, sw.seconds());
      }
    }
    std::printf(
        "{\"mfn_perf\":\"conv3d\",\"batch\":%lld,\"channels\":%lld,"
        "\"threads\":%d,\"gflops\":%.3f,\"seed_gflops\":%.3f,"
        "\"speedup_vs_seed\":%.2f}\n",
        static_cast<long long>(N), static_cast<long long>(C), threads,
        flops / sec / 1e9, flops / sec_ref / 1e9, sec_ref / sec);
  }
  {
    // Implicit-GEMM conv3d forward (pack-from-volume, no CKxL column
    // matrix) at the training shape (batch 4, UNet level-0 geometry).
    const std::int64_t N = 4, C = 16, F = 16;
    Rng rng(24);
    Tensor x = Tensor::randn(Shape{N, C, 4, 16, 16}, rng);
    Tensor w = Tensor::randn(Shape{F, C, 3, 3, 3}, rng, 0.2f);
    Tensor b = Tensor::zeros(Shape{F});
    Conv3dSpec spec;
    const Shape out = conv3d_output_shape(x.shape(), w.shape(), spec);
    const double flops = 2.0 * static_cast<double>(out.numel()) *
                         static_cast<double>(C) * 27.0;
    conv3d_forward(x, w, b, spec);  // warm up
    double sec = 1e300;
    for (int r = 0; r < 9; ++r) {
      Stopwatch sw;
      benchmark::DoNotOptimize(conv3d_forward(x, w, b, spec));
      sec = std::min(sec, sw.seconds());
    }
    std::printf(
        "{\"mfn_perf\":\"conv3d_implicit\",\"batch\":%lld,\"channels\":%lld,"
        "\"threads\":%d,\"gflops\":%.3f}\n",
        static_cast<long long>(N), static_cast<long long>(C), threads,
        flops / sec / 1e9);
  }
  {
    // Fused conv -> batchnorm(eval) -> ReLU epilogue vs the unfused
    // three-pass chain. gbps_saved is the output traffic the fusion
    // avoids — 4 extra passes over the output tensor (BN read+write, ReLU
    // read+write) — expressed as a rate at the fused runtime.
    const std::int64_t N = 4, C = 16, F = 16;
    Rng rng(25);
    Tensor x = Tensor::randn(Shape{N, C, 4, 16, 16}, rng);
    Tensor w = Tensor::randn(Shape{F, C, 3, 3, 3}, rng, 0.2f);
    Conv3dSpec spec;
    Tensor gamma = Tensor::randn(Shape{F}, rng, 0.1f);
    Tensor beta = Tensor::randn(Shape{F}, rng, 0.1f);
    Tensor mean = Tensor::randn(Shape{F}, rng, 0.1f);
    Tensor var = Tensor::full(Shape{F}, 1.0f);
    ConvEpilogue ep;
    ep.scale = Tensor::uninitialized(Shape{F});
    ep.shift = Tensor::uninitialized(Shape{F});
    for (std::int64_t f = 0; f < F; ++f) {
      const float s =
          gamma.data()[f] / std::sqrt(var.data()[f] + 1e-5f);
      ep.scale.data()[f] = s;
      ep.shift.data()[f] = beta.data()[f] - mean.data()[f] * s;
    }
    ep.relu = true;
    auto fused = [&] {
      benchmark::DoNotOptimize(conv3d_forward_fused(x, w, spec, ep));
    };
    auto unfused = [&] {
      Tensor y = conv3d_forward(x, w, Tensor(), spec);
      y = batchnorm3d_eval(y, gamma, beta, mean, var, 1e-5f);
      benchmark::DoNotOptimize(relu(y));
    };
    fused();
    unfused();
    const double sec_f = time_best_of(7, fused);
    const double sec_u = time_best_of(7, unfused);
    const Shape out = conv3d_output_shape(x.shape(), w.shape(), spec);
    const double saved_bytes = 4.0 * static_cast<double>(out.numel()) * 4.0;
    std::printf(
        "{\"mfn_perf\":\"conv3d_fused_ep\",\"batch\":%lld,\"channels\":%lld,"
        "\"threads\":%d,\"sec_fused\":%.6f,\"sec_unfused\":%.6f,"
        "\"speedup\":%.2f,\"gbps_saved\":%.2f}\n",
        static_cast<long long>(N), static_cast<long long>(C), threads,
        sec_f, sec_u, sec_u / sec_f, saved_bytes / sec_f / 1e9);
  }
  {
    // Batched continuous-query pipeline: decoder decode, end-to-end
    // predict, and predict_with_derivatives throughput (queries/sec) at
    // batch 1 and batch 8. The batch-8 predict/derivs lines also report
    // the equivalent 8-iteration batch-1 loop and the batched speedup —
    // the acceptance metric for the batched refactor.
    const std::int64_t NB = 8, Q = 512, QD = 128;
    Rng rng(23);
    core::MFNConfig cfg = core::MFNConfig::small_default();
    core::MeshfreeFlowNet model(cfg, rng);
    model.set_training(false);

    Tensor lr8 = Tensor::randn(Shape{NB, 4, 4, 8, 8}, rng, 0.5f);
    auto fill_coords = [&rng](Tensor& c) {
      float* p = c.data();
      const std::int64_t rows = c.numel() / 3;
      for (std::int64_t b = 0; b < rows; ++b) {
        p[b * 3 + 0] = static_cast<float>(rng.uniform(0.0, 3.0));
        p[b * 3 + 1] = static_cast<float>(rng.uniform(0.0, 7.0));
        p[b * 3 + 2] = static_cast<float>(rng.uniform(0.0, 7.0));
      }
    };
    Tensor coords8(Shape{NB, Q, 3});
    fill_coords(coords8);
    Tensor dcoords8(Shape{NB, QD, 3});
    fill_coords(dcoords8);

    // per-sample views for the batch-1 loop (slabs are contiguous)
    std::vector<Tensor> lr1(static_cast<std::size_t>(NB));
    std::vector<Tensor> coords1(static_cast<std::size_t>(NB));
    std::vector<Tensor> dcoords1(static_cast<std::size_t>(NB));
    const std::int64_t patch_elems = 4 * 4 * 8 * 8;
    for (std::int64_t s = 0; s < NB; ++s) {
      Tensor p = Tensor::uninitialized(Shape{1, 4, 4, 8, 8});
      std::copy(lr8.data() + s * patch_elems,
                lr8.data() + (s + 1) * patch_elems, p.data());
      lr1[static_cast<std::size_t>(s)] = p;
      Tensor c = Tensor::uninitialized(Shape{Q, 3});
      std::copy(coords8.data() + s * Q * 3, coords8.data() + (s + 1) * Q * 3,
                c.data());
      coords1[static_cast<std::size_t>(s)] = c;
      Tensor dc = Tensor::uninitialized(Shape{QD, 3});
      std::copy(dcoords8.data() + s * QD * 3,
                dcoords8.data() + (s + 1) * QD * 3, dc.data());
      dcoords1[static_cast<std::size_t>(s)] = dc;
    }

    ad::NoGradGuard guard;
    ad::Var latent1 = model.encode(lr1[0]);
    ad::Var latent8 = model.encode(lr8);

    // decoder-only decode at batch 1 and 8
    model.decoder().decode(latent8, coords8);  // warm up
    const double dec1 = time_best_of(7, [&] {
      benchmark::DoNotOptimize(model.decoder().decode(latent1, coords1[0]));
    });
    const double dec8 = time_best_of(7, [&] {
      benchmark::DoNotOptimize(model.decoder().decode(latent8, coords8));
    });
    std::printf(
        "{\"mfn_perf\":\"decode\",\"batch\":1,\"queries\":%lld,"
        "\"threads\":%d,\"qps\":%.0f}\n",
        static_cast<long long>(Q), threads, static_cast<double>(Q) / dec1);
    std::printf(
        "{\"mfn_perf\":\"decode\",\"batch\":%lld,\"queries\":%lld,"
        "\"threads\":%d,\"qps\":%.0f}\n",
        static_cast<long long>(NB), static_cast<long long>(Q), threads,
        static_cast<double>(NB * Q) / dec8);

    // end-to-end predict: batched vs an NB-iteration batch-1 loop
    model.predict(lr8, coords8);  // warm up
    const double pred1 = time_best_of(7, [&] {
      benchmark::DoNotOptimize(model.predict(lr1[0], coords1[0]));
    });
    const double pred8 = time_best_of(7, [&] {
      benchmark::DoNotOptimize(model.predict(lr8, coords8));
    });
    const double pred_loop = time_best_of(7, [&] {
      for (std::int64_t s = 0; s < NB; ++s)
        benchmark::DoNotOptimize(
            model.predict(lr1[static_cast<std::size_t>(s)],
                          coords1[static_cast<std::size_t>(s)]));
    });
    std::printf(
        "{\"mfn_perf\":\"predict\",\"batch\":1,\"queries\":%lld,"
        "\"threads\":%d,\"qps\":%.0f}\n",
        static_cast<long long>(Q), threads, static_cast<double>(Q) / pred1);
    std::printf(
        "{\"mfn_perf\":\"predict\",\"batch\":%lld,\"queries\":%lld,"
        "\"threads\":%d,\"qps\":%.0f,\"loop_qps\":%.0f,"
        "\"batched_speedup_vs_loop\":%.2f}\n",
        static_cast<long long>(NB), static_cast<long long>(Q), threads,
        static_cast<double>(NB * Q) / pred8,
        static_cast<double>(NB * Q) / pred_loop, pred_loop / pred8);

    // derivative bundle (equation-loss path)
    model.predict_with_derivatives(lr8, dcoords8);  // warm up
    const double drv1 = time_best_of(5, [&] {
      benchmark::DoNotOptimize(
          model.predict_with_derivatives(lr1[0], dcoords1[0]));
    });
    const double drv8 = time_best_of(5, [&] {
      benchmark::DoNotOptimize(model.predict_with_derivatives(lr8, dcoords8));
    });
    const double drv_loop = time_best_of(5, [&] {
      for (std::int64_t s = 0; s < NB; ++s)
        benchmark::DoNotOptimize(model.predict_with_derivatives(
            lr1[static_cast<std::size_t>(s)],
            dcoords1[static_cast<std::size_t>(s)]));
    });
    std::printf(
        "{\"mfn_perf\":\"predict_derivs\",\"batch\":1,\"queries\":%lld,"
        "\"threads\":%d,\"qps\":%.0f}\n",
        static_cast<long long>(QD), threads, static_cast<double>(QD) / drv1);
    std::printf(
        "{\"mfn_perf\":\"predict_derivs\",\"batch\":%lld,\"queries\":%lld,"
        "\"threads\":%d,\"qps\":%.0f,\"loop_qps\":%.0f,"
        "\"batched_speedup_vs_loop\":%.2f}\n",
        static_cast<long long>(NB), static_cast<long long>(QD), threads,
        static_cast<double>(NB * QD) / drv8,
        static_cast<double>(NB * QD) / drv_loop, drv_loop / drv8);

    // AOT snapshot prepack (the once-per-swap cost the plan path pays up
    // front): weight clone + bf16/int8 panel packing + conv->BN folding.
    auto snap = core::PreparedSnapshot::prepare(model, 1);
    const double prep = time_best_of(7, [&] {
      benchmark::DoNotOptimize(core::PreparedSnapshot::prepare(model, 1));
    });
    std::size_t bf16_elems = 0, int8_elems = 0;
    for (const auto& layer : snap->layers()) {
      bf16_elems += layer.packed_bf16.size();
      int8_elems += layer.packed_i8.size();
    }
    std::printf(
        "{\"mfn_perf\":\"prepack\",\"layers\":%lld,\"bf16_elems\":%lld,"
        "\"int8_elems\":%lld,\"threads\":%d,\"usec\":%.1f}\n",
        static_cast<long long>(snap->layers().size()),
        static_cast<long long>(bf16_elems), static_cast<long long>(int8_elems),
        threads, prep * 1e6);

    // Cached-plan replay — the steady-state serving fast path, which runs
    // the same value pass as the no-grad decode lines above.
    const Tensor lat1 = latent1.value();
    const Tensor lat8 = latent8.value();
    auto plan1 = core::DecodePlan::compile(
        snap, core::PlanKey{1, 1, Q, lat1.dim(2), lat1.dim(3), lat1.dim(4)});
    auto plan8 = core::DecodePlan::compile(
        snap,
        core::PlanKey{1, NB, Q, lat8.dim(2), lat8.dim(3), lat8.dim(4)});
    MFN_CHECK(plan1 != nullptr && plan8 != nullptr,
              "small_default decoder must be plannable");
    plan8->execute(lat8, coords8);  // warm up
    const double pl1 = time_best_of(9, [&] {
      benchmark::DoNotOptimize(plan1->execute(lat1, coords1[0]));
    });
    const double pl8 = time_best_of(9, [&] {
      benchmark::DoNotOptimize(plan8->execute(lat8, coords8));
    });
    std::printf(
        "{\"mfn_perf\":\"decode_plan\",\"batch\":1,\"queries\":%lld,"
        "\"threads\":%d,\"qps\":%.0f}\n",
        static_cast<long long>(Q), threads, static_cast<double>(Q) / pl1);
    std::printf(
        "{\"mfn_perf\":\"decode_plan\",\"batch\":%lld,\"queries\":%lld,"
        "\"threads\":%d,\"qps\":%.0f}\n",
        static_cast<long long>(NB), static_cast<long long>(Q), threads,
        static_cast<double>(NB * Q) / pl8);

    // Best-of-9 times of two decodes, timed in interleaved windows so
    // frequency drift between distant measurement windows cannot skew
    // their ratio.
    auto interleaved_best = [&](const std::function<void()>& first,
                                const std::function<void()>& second) {
      first();
      second();  // joint warm-up
      std::pair<double, double> best{1e300, 1e300};
      for (int r = 0; r < 9; ++r) {
        Stopwatch sw;
        first();
        best.first = std::min(best.first, sw.seconds());
        Stopwatch sp;
        second();
        best.second = std::min(best.second, sp.seconds());
      }
      return best;
    };

    // Reduced-precision plan tiers at batch 8: a reconstruction-MSE
    // accuracy gate on the small_default model against a fixed-seed
    // synthetic target field (int8 must degrade MSE by < 1% relative),
    // then replay throughput vs the fp32 plan (the fused value pass) on a
    // GEMM-bound wide decoder (hidden 384x384 — K at the prepacked-panel
    // cap), the regime the quantized microkernels target. At
    // small_default's 32-wide decoder the fused fp32 pass is faster than
    // either reduced tier. These lines carry a "precision" field, so
    // perf_diff tracks them as their own series — the pinned fp32
    // decode_plan line identity above is untouched.
    {
      const Tensor ref8 = plan8->execute(lat8, coords8);
      const Tensor targets = Tensor::randn(ref8.shape(), rng, 0.5f);
      auto mse_vs_targets = [&](const Tensor& pred) {
        double acc = 0.0;
        for (std::int64_t i = 0; i < pred.numel(); ++i) {
          const double d = static_cast<double>(pred.data()[i]) -
                           static_cast<double>(targets.data()[i]);
          acc += d * d;
        }
        return acc / static_cast<double>(pred.numel());
      };
      const double mse_fp32 = mse_vs_targets(ref8);
      std::printf(
          "{\"mfn_perf\":\"accuracy\",\"precision\":\"fp32\",\"batch\":%lld,"
          "\"queries\":%lld,\"mse\":%.6g,\"rel_mse_vs_fp32\":0}\n",
          static_cast<long long>(NB), static_cast<long long>(Q), mse_fp32);
      // Wide GEMM-bound decoder for the throughput comparison. Same
      // latent interface as small_default, so the already-encoded lat8 /
      // coords8 inputs are reused as-is.
      core::MFNConfig wcfg = core::MFNConfig::small_default();
      wcfg.decoder.hidden = {384, 384};
      core::MeshfreeFlowNet wmodel(wcfg, rng);
      auto wsnap = core::PreparedSnapshot::prepare(wmodel, 1);
      auto wplan_fp32 = core::DecodePlan::compile(
          wsnap,
          core::PlanKey{1, NB, Q, lat8.dim(2), lat8.dim(3), lat8.dim(4)});
      MFN_CHECK(wplan_fp32 != nullptr, "wide decoder must be plannable");
      const Tensor wref8 = wplan_fp32->execute(lat8, coords8);
      for (const backend::Precision prec :
           {backend::Precision::kBf16, backend::Precision::kInt8}) {
        // Accuracy gate on the real small_default reconstruction.
        auto planp = core::DecodePlan::compile(
            snap, core::PlanKey{1, NB, Q, lat8.dim(2), lat8.dim(3),
                                lat8.dim(4), prec});
        MFN_CHECK(planp != nullptr,
                  "small_default decoder must be plannable at every tier");
        const Tensor out = planp->execute(lat8, coords8);
        const double mse = mse_vs_targets(out);
        const double rel = std::abs(mse - mse_fp32) / mse_fp32;
        std::printf(
            "{\"mfn_perf\":\"accuracy\",\"precision\":\"%s\",\"batch\":%lld,"
            "\"queries\":%lld,\"mse\":%.6g,\"rel_mse_vs_fp32\":%.3g}\n",
            backend::precision_name(prec), static_cast<long long>(NB),
            static_cast<long long>(Q), mse, rel);
        MFN_CHECK(rel < 0.01,
                  "reduced-precision decode degraded reconstruction MSE by "
                      << rel * 100.0 << "% (tier "
                      << backend::precision_name(prec)
                      << ", gate is < 1% relative)");
        // Throughput on the wide decoder, tier plan vs fp32 plan.
        auto wplanp = core::DecodePlan::compile(
            wsnap, core::PlanKey{1, NB, Q, lat8.dim(2), lat8.dim(3),
                                 lat8.dim(4), prec});
        MFN_CHECK(wplanp != nullptr,
                  "wide decoder must be plannable at every tier");
        const auto [f32, low] = interleaved_best(
            [&] {
              benchmark::DoNotOptimize(wplan_fp32->execute(lat8, coords8));
            },
            [&] {
              benchmark::DoNotOptimize(wplanp->execute(lat8, coords8));
            });
        const Tensor wout = wplanp->execute(lat8, coords8);
        double max_err = 0.0;
        for (std::int64_t i = 0; i < wout.numel(); ++i)
          max_err = std::max(
              max_err, static_cast<double>(
                           std::abs(wout.data()[i] - wref8.data()[i])));
        std::printf(
            "{\"mfn_perf\":\"decode_plan\",\"precision\":\"%s\","
            "\"batch\":%lld,\"queries\":%lld,\"hidden\":384,\"threads\":%d,"
            "\"qps\":%.0f,\"fp32_qps\":%.0f,\"speedup_vs_fp32\":%.2f,"
            "\"max_abs_err_vs_fp32\":%.3g}\n",
            backend::precision_name(prec), static_cast<long long>(NB),
            static_cast<long long>(Q), threads,
            static_cast<double>(NB * Q) / low,
            static_cast<double>(NB * Q) / f32, f32 / low, max_err);
      }
    }
  }
  {
    // Activation maps (GB/s of tensor traffic) and loss reductions, SIMD
    // vs the scalar reference through the runtime dispatch seam.
    const std::int64_t n = 1 << 22;
    Rng rng(31);
    Tensor x = Tensor::randn(Shape{n}, rng, 2.0f);
    Tensor gy = Tensor::randn(Shape{n}, rng);
    auto emit_map = [&](const char* op, double bytes_per_elem,
                        const std::function<void()>& fn) {
      const SimdVsScalar t = time_simd_vs_scalar(5, fn);
      const double bytes = bytes_per_elem * static_cast<double>(n);
      std::printf(
          "{\"mfn_perf\":\"activation\",\"op\":\"%s\",\"n\":%lld,"
          "\"threads\":%d,\"gbps\":%.2f,\"scalar_gbps\":%.2f,"
          "\"speedup_vs_scalar\":%.2f}\n",
          op, static_cast<long long>(n), threads, bytes / t.sec / 1e9,
          bytes / t.sec_scalar / 1e9, t.sec_scalar / t.sec);
    };
    emit_map("softplus", 8.0,
             [&] { benchmark::DoNotOptimize(softplus(x)); });
    emit_map("tanh", 8.0, [&] { benchmark::DoNotOptimize(tanh(x)); });
    emit_map("softplus_grad", 12.0,
             [&] { benchmark::DoNotOptimize(softplus_grad(x, gy)); });
    auto emit_red = [&](const char* op, const std::function<void()>& fn) {
      const SimdVsScalar t = time_simd_vs_scalar(5, fn);
      const double bytes = 4.0 * static_cast<double>(n);
      std::printf(
          "{\"mfn_perf\":\"reduction\",\"op\":\"%s\",\"n\":%lld,"
          "\"threads\":%d,\"gbps\":%.2f,\"scalar_gbps\":%.2f,"
          "\"speedup_vs_scalar\":%.2f}\n",
          op, static_cast<long long>(n), threads, bytes / t.sec / 1e9,
          bytes / t.sec_scalar / 1e9, t.sec_scalar / t.sec);
    };
    emit_red("sum", [&] { benchmark::DoNotOptimize(sum(x)); });
    emit_red("sum_abs", [&] { benchmark::DoNotOptimize(sum_abs(x)); });
    emit_red("sum_squares",
             [&] { benchmark::DoNotOptimize(sum_squares(x)); });
  }
  {
    // Fused parallel Adam step at a UNet-ish parameter count: 8 tensors
    // of 200k elements. Rate is parameter elements updated per second
    // (the step sweeps param/grad/m/v, ~28 bytes per element).
    const std::int64_t per = 200000;
    const int np = 8;
    Rng rng(33);
    std::vector<ad::Var> store;
    store.reserve(static_cast<std::size_t>(np));
    std::vector<ad::Var*> params;
    for (int i = 0; i < np; ++i) {
      store.emplace_back(Tensor::randn(Shape{per}, rng, 0.1f), true);
      Tensor& g = store.back().mutable_grad();
      add_(g, Tensor::randn(Shape{per}, rng, 0.01f));
    }
    for (auto& v : store) params.push_back(&v);
    optim::Adam opt(params, optim::AdamConfig{});
    const SimdVsScalar t =
        time_simd_vs_scalar(7, [&] { opt.step(); });
    const double elems = static_cast<double>(per) * np;
    std::printf(
        "{\"mfn_perf\":\"adam_step\",\"params\":%lld,\"threads\":%d,"
        "\"melems_per_sec\":%.1f,\"scalar_melems_per_sec\":%.1f,"
        "\"speedup_vs_scalar\":%.2f}\n",
        static_cast<long long>(elems), threads, elems / t.sec / 1e6,
        elems / t.sec_scalar / 1e6, t.sec_scalar / t.sec);
  }
  {
    // End-to-end training step (forward + equation loss + backward + Adam)
    // on a synthetic minibatch: patches/sec, plus the caching allocator's
    // per-step counters once shapes have warmed — tensor_allocs_per_step
    // is what the step *would* malloc without the cache,
    // heap_allocs_per_step is what it actually mallocs, and
    // alloc_reduction is their ratio (the >= 10x acceptance metric). The
    // gamma = 0.0125 step decodes the derivative bundle; a second line,
    // tagged "gamma":0, times the same model and batch without the
    // equation loss, whose step decodes through the value node.
    Rng rng(41);
    core::MFNConfig cfg = core::MFNConfig::small_default();
    core::MeshfreeFlowNet model(cfg, rng);
    model.set_training(true);
    const std::int64_t NB = 4, Q = 384;
    Tensor lr = Tensor::randn(Shape{NB, 4, 4, 8, 8}, rng, 0.5f);
    Tensor coords(Shape{NB, Q, 3});
    {
      float* p = coords.data();
      for (std::int64_t r = 0; r < NB * Q; ++r) {
        p[r * 3 + 0] = static_cast<float>(rng.uniform(0.0, 3.0));
        p[r * 3 + 1] = static_cast<float>(rng.uniform(0.0, 7.0));
        p[r * 3 + 2] = static_cast<float>(rng.uniform(0.0, 7.0));
      }
    }
    data::BatchedSample batch;
    batch.lr_patches = lr;
    batch.query_coords = coords;
    batch.targets = Tensor::randn(Shape{NB, Q, 4}, rng, 0.5f);
    core::EquationLossConfig eq;
    eq.constants = core::RBConstants::from_ra_pr(1e5, 1.0);
    eq.cell_size = {0.1, 0.125, 0.25};
    optim::Adam opt(model.parameters(), optim::AdamConfig{});
    for (const double gamma : {0.0125, 0.0}) {
      auto step = [&] {
        opt.zero_grad();
        core::StepLoss s = core::batched_step_loss(model, batch, eq, gamma);
        ad::backward(s.loss);
        opt.step();
        backend::CachingAllocator::instance().next_step();
      };
      for (int r = 0; r < 3; ++r) step();  // warm the bucket cache
      const backend::CachingAllocator::Stats s0 =
          backend::CachingAllocator::instance().stats();
      const double sec = time_best_of(5, step);
      const backend::CachingAllocator::Stats s1 =
          backend::CachingAllocator::instance().stats();
      const double steps_run = static_cast<double>(s1.steps - s0.steps);
      const double allocs_per_step =
          static_cast<double>(s1.allocs - s0.allocs) / steps_run;
      const double heap_per_step =
          static_cast<double>(s1.heap_allocs - s0.heap_allocs) / steps_run;
      std::printf(
          "{\"mfn_perf\":\"train_step\",%s\"batch\":%lld,\"queries\":%lld,"
          "\"threads\":%d,\"patches_per_sec\":%.1f,"
          "\"tensor_allocs_per_step\":%.0f,\"heap_allocs_per_step\":%.0f,"
          "\"alloc_reduction\":%.1f}\n",
          gamma == 0.0 ? "\"gamma\":0," : "", static_cast<long long>(NB),
          static_cast<long long>(Q), threads,
          static_cast<double>(NB) / sec, allocs_per_step, heap_per_step,
          allocs_per_step / std::max(heap_per_step, 1.0));
    }
  }
  {
    // Concurrent serving pipeline (src/serve/): closed-loop clients
    // against the inference engine — latent cache + dynamic query
    // batcher — at 1, 4, and 16 clients with a warm cache. Each line
    // reports query throughput, the cache hit-rate over the timed window,
    // and serve_vs_direct: serve qps relative to a direct
    // single-client-sized batched no-grad decode of the same total rows
    // measured in this run (the engine's overhead budget; the acceptance
    // bar is >= 1.0 at 16 clients via coalescing, with hit_rate >= 0.9).
    const std::int64_t Q = 256;
    const int kHot = 8;

    // Direct-decode baseline: one latent, a 16-client-sized coalesced
    // batch of rows, no queue/cache/future machinery.
    double direct_qps = 0.0;
    {
      Rng rng(51);
      core::MFNConfig cfg = core::MFNConfig::small_default();
      core::MeshfreeFlowNet model(cfg, rng);
      model.set_training(false);
      Tensor patch = Tensor::randn(Shape{1, 4, 4, 8, 8}, rng, 0.5f);
      const std::int64_t rows = 16 * Q;
      Tensor coords(Shape{rows, 3});
      float* p = coords.data();
      for (std::int64_t b = 0; b < rows; ++b) {
        p[b * 3 + 0] = static_cast<float>(rng.uniform(0.0, 3.0));
        p[b * 3 + 1] = static_cast<float>(rng.uniform(0.0, 7.0));
        p[b * 3 + 2] = static_cast<float>(rng.uniform(0.0, 7.0));
      }
      ad::NoGradGuard guard;
      ad::Var latent = model.encode(patch);
      model.decoder().decode(latent, coords);  // warm up
      const double sec = time_best_of(5, [&] {
        benchmark::DoNotOptimize(model.decoder().decode(latent, coords));
      });
      direct_qps = static_cast<double>(rows) / sec;
    }

    for (const int clients : {1, 4, 16}) {
      Rng rng(52);
      core::MFNConfig cfg = core::MFNConfig::small_default();
      auto model = std::make_unique<core::MeshfreeFlowNet>(cfg, rng);
      serve::InferenceEngineConfig ecfg;
      ecfg.cache_bytes = 16u << 20;
      ecfg.batcher.max_batch_rows = 16 * Q;
      // Latency-vs-throughput knob, tuned per scenario: a lone
      // synchronous client gains nothing from a batching window, while
      // concurrent closed-loop clients resubmit within a few hundred
      // microseconds of a flush.
      ecfg.batcher.max_wait_us = clients == 1 ? 0 : 300;
      serve::InferenceEngine engine(std::move(model), ecfg);

      serve::ServeBenchConfig bcfg;
      bcfg.clients = clients;
      bcfg.requests_per_client = 256 / clients;
      bcfg.queries_per_request = Q;
      bcfg.hot_patches = kHot;
      bcfg.seed = 53;
      serve::run_serve_bench(engine, bcfg);  // warm up (cache + buffers)
      serve::ServeBenchResult best;
      for (int rep = 0; rep < 3; ++rep) {
        serve::ServeBenchResult r = serve::run_serve_bench(engine, bcfg);
        if (r.qps > best.qps) best = r;
      }
      std::printf(
          "{\"mfn_perf\":\"serve\",\"clients\":%d,\"queries\":%lld,"
          "\"threads\":%d,\"qps\":%.0f,\"hit_rate\":%.3f,\"p99_ms\":%.3f,"
          "\"direct_qps\":%.0f,\"serve_vs_direct\":%.2f}\n",
          clients, static_cast<long long>(Q), threads, best.qps,
          best.hit_rate, best.p99_ms, direct_qps, best.qps / direct_qps);
    }

    // Reduced-precision serving at the 16-client coalescing point. Every
    // request asks for the tier; the line reports which tier actually
    // served (fallbacks are counted, never silent) plus the measured
    // worst-case deviation vs fp32 responses on the same patches/coords.
    for (const backend::Precision prec :
         {backend::Precision::kBf16, backend::Precision::kInt8}) {
      Rng rng(52);
      core::MFNConfig cfg = core::MFNConfig::small_default();
      auto model = std::make_unique<core::MeshfreeFlowNet>(cfg, rng);
      serve::InferenceEngineConfig ecfg;
      ecfg.cache_bytes = 16u << 20;
      ecfg.batcher.max_batch_rows = 16 * Q;
      ecfg.batcher.max_wait_us = 300;
      ecfg.decode_precision = prec;
      serve::InferenceEngine engine(std::move(model), ecfg);

      serve::ServeBenchConfig bcfg;
      bcfg.clients = 16;
      bcfg.requests_per_client = 16;
      bcfg.queries_per_request = Q;
      bcfg.hot_patches = kHot;
      bcfg.seed = 53;
      bcfg.precision = prec;
      serve::run_serve_bench(engine, bcfg);  // warm up (cache + plans)
      serve::ServeBenchResult best;
      for (int rep = 0; rep < 3; ++rep) {
        serve::ServeBenchResult r = serve::run_serve_bench(engine, bcfg);
        if (r.qps > best.qps) best = r;
      }
      std::printf(
          "{\"mfn_perf\":\"serve\",\"precision\":\"%s\",\"clients\":%d,"
          "\"queries\":%lld,\"threads\":%d,\"qps\":%.0f,"
          "\"decode_p99_ms\":%.3f,\"max_abs_err_vs_fp32\":%.3g,"
          "\"precision_fallbacks\":%llu}\n",
          backend::precision_name(prec), bcfg.clients,
          static_cast<long long>(Q), threads, best.qps, best.decode_p99_ms,
          best.max_abs_err_vs_fp32,
          static_cast<unsigned long long>(best.window_precision_fallbacks));
    }

    // Overload robustness: an open-loop Poisson arrival stream above
    // serving capacity, run twice — the unprotected baseline (Block
    // admission, effectively unbounded queue, no deadlines) vs the
    // hardened stack (bounded queue + ShedOldest + brownout + per-request
    // deadlines). The hardened line must hold queue-wait p99 bounded while
    // the baseline's grows with the backlog; both are emitted so the diff
    // is visible in perf history.
    for (const bool hardened : {false, true}) {
      Rng rng(52);
      core::MFNConfig cfg = core::MFNConfig::small_default();
      auto model = std::make_unique<core::MeshfreeFlowNet>(cfg, rng);
      serve::InferenceEngineConfig ecfg;
      ecfg.cache_bytes = 16u << 20;
      ecfg.batcher.max_batch_rows = 16 * Q;
      ecfg.batcher.max_wait_us = 300;
      if (hardened) {
        ecfg.batcher.max_queue_rows = 16 * Q;
        ecfg.batcher.admission = serve::AdmissionPolicy::kShedOldest;
        ecfg.batcher.brownout.enabled = true;
        ecfg.batcher.brownout.high_rows = 8 * Q;
        ecfg.batcher.brownout.low_rows = 2 * Q;
        ecfg.batcher.brownout.dwell_flushes = 2;
      }
      serve::InferenceEngine engine(std::move(model), ecfg);

      serve::ServeBenchConfig bcfg;
      bcfg.clients = 4;
      bcfg.queries_per_request = Q;
      bcfg.hot_patches = kHot;
      bcfg.seed = 53;
      bcfg.open_loop = true;
      bcfg.arrival_rps = 4000.0;
      bcfg.total_requests = 512;
      bcfg.deadline_ms = hardened ? 50.0 : 0.0;
      const serve::ServeBenchResult r = serve::run_serve_bench(engine, bcfg);
      std::printf(
          "{\"mfn_perf\":\"serve_overload\",\"hardened\":%d,"
          "\"arrival_rps\":%.0f,\"threads\":%d,\"qps\":%.0f,"
          "\"p99_ms\":%.3f,\"queue_p99_ms\":%.3f,"
          "\"deadline_hit_rate\":%.3f,\"brownout_hit_rate\":%.3f,"
          "\"shed\":%llu,\"expired\":%llu,\"degraded_units\":%llu}\n",
          hardened ? 1 : 0, bcfg.arrival_rps, threads, r.qps, r.p99_ms,
          r.queue_p99_ms, r.deadline_hit_rate, r.brownout_hit_rate,
          static_cast<unsigned long long>(r.window_shed),
          static_cast<unsigned long long>(r.expired_requests),
          static_cast<unsigned long long>(r.window_degraded_units));
    }

    // Multi-tenant fair share: 4 models behind one engine, Zipf(1.1)
    // traffic (tenant 0 several times hotter than tenant 3), per-tenant
    // cache budgets carved from one pool, deficit-round-robin batching.
    // The aggregate line gates qps/hit_rate; the hot/cold per-tenant
    // numbers ride along un-gated (cold-tenant rates are too low-count to
    // gate without flakiness) so isolation regressions stay visible in
    // perf history.
    {
      Rng rng(54);
      core::MFNConfig cfg = core::MFNConfig::small_default();
      auto model = std::make_unique<core::MeshfreeFlowNet>(cfg, rng);
      serve::InferenceEngineConfig ecfg;
      ecfg.cache_bytes = 16u << 20;
      ecfg.batcher.max_batch_rows = 16 * Q;
      ecfg.batcher.max_wait_us = 300;
      serve::InferenceEngine engine(std::move(model), ecfg);
      const int kTenants = 4;
      for (int t = 1; t < kTenants; ++t) {
        Rng trng(54 + 100 * t);
        engine.add_tenant(
            static_cast<serve::TenantId>(t),
            std::make_unique<core::MeshfreeFlowNet>(cfg, trng));
      }

      serve::ServeBenchConfig bcfg;
      bcfg.clients = 16;
      bcfg.requests_per_client = 16;
      bcfg.queries_per_request = Q;
      bcfg.hot_patches = kHot;
      bcfg.seed = 55;
      bcfg.tenants = kTenants;
      bcfg.zipf_s = 1.1;
      serve::run_serve_bench(engine, bcfg);  // warm up (caches + plans)
      serve::ServeBenchResult best;
      for (int rep = 0; rep < 3; ++rep) {
        serve::ServeBenchResult r = serve::run_serve_bench(engine, bcfg);
        if (r.qps > best.qps) best = r;
      }
      const serve::TenantBenchResult& hot = best.tenants.front();
      const serve::TenantBenchResult& cold = best.tenants.back();
      std::uint64_t dedup = 0;
      for (const serve::TenantBenchResult& t : best.tenants)
        dedup += t.dedup_encodes;
      std::printf(
          "{\"mfn_perf\":\"serve_tenants\",\"tenants\":%d,\"zipf\":%.2f,"
          "\"clients\":%d,\"queries\":%lld,\"threads\":%d,\"qps\":%.0f,"
          "\"hit_rate\":%.3f,\"p99_ms\":%.3f,\"hot_share\":%.3f,"
          "\"hot_qps\":%.0f,\"cold_qps\":%.0f,\"hot_p99_ms\":%.3f,"
          "\"cold_p99_ms\":%.3f,\"dedup_encodes\":%llu}\n",
          kTenants, bcfg.zipf_s, bcfg.clients, static_cast<long long>(Q),
          threads, best.qps, best.hit_rate, best.p99_ms, hot.share, hot.qps,
          cold.qps, hot.p99_ms, cold.p99_ms,
          static_cast<unsigned long long>(dedup));
    }
  }

  // Distributed training scaling: each world size runs real TCP workers
  // (in-process threads over loopback sockets — the exact code path `mfn
  // dist-train` forks into processes). patches/sec is committed global
  // batches per wall second of the steps, the paper's weak-scaling axis:
  // a job's fixed cost (model and data build, rendezvous) is removed by
  // subtracting the wall time of a one-step job at the same world, as
  // perfbench's dist_train does.
  constexpr int kDistBatch = 2;
  auto time_job = [](int world, int steps) {
    dist::DistTrainConfig base;
    base.world = world;
    base.port = pick_free_port();
    base.steps = steps;
    base.batch_size = kDistBatch;
    base.seed = 11;
    std::vector<std::thread> peers;
    Stopwatch sw;
    for (int r = 1; r < world; ++r)
      peers.emplace_back([base, r] {
        dist::DistTrainConfig c = base;
        c.rank = r;
        dist::run_train_worker(c);
      });
    dist::DistTrainConfig c0 = base;
    c0.min_world = world;  // time the full world, not a straggler subset
    const dist::DistTrainResult root = dist::run_train_worker(c0);
    const double sec = sw.seconds();
    for (auto& t : peers) t.join();
    return std::make_pair(sec, root);
  };
  for (const int world : {1, 2, 4}) {
    const double fixed_sec = time_job(world, 1).first;
    const auto [sec, root] = time_job(world, 40);
    const double patches =
        static_cast<double>(root.step_loss.size() - 1) * world * kDistBatch;
    std::printf(
        "{\"mfn_perf\":\"dist_train\",\"world\":%d,\"steps\":%d,"
        "\"threads\":%d,\"patches_per_sec\":%.1f,\"final_world\":%d}\n",
        world, static_cast<int>(root.step_loss.size()), threads,
        patches / (sec - fixed_sec), root.final_world);
  }

  // Model vs measured: the analytic ring_allreduce_seconds() alpha-beta
  // model (comm_model.h, paper-scale NVLink/IB constants) against a real
  // 2-worker TCP ring allreduce over loopback. The ratio is informational
  // (not a gated rate metric): it quantifies how far the modeled fabric
  // is from this host's loopback so comm_model drift is visible in CI.
  {
    const std::int64_t n = 1 << 20;  // 4 MiB of float32 gradients
    dist::TcpChannel ch0(0, {}), ch1(1, {});
    const dist::Ring ring{1,
                          {{0, ch0.listen_port()}, {1, ch1.listen_port()}}};
    std::vector<float> b0(static_cast<std::size_t>(n), 1.0f);
    std::vector<float> b1(static_cast<std::size_t>(n), 3.0f);
    const int reps = 5;
    std::thread peer([&] {
      dist::establish_ring(ch1, ring, 4000);
      for (int r = 0; r < reps; ++r)
        dist::ring_allreduce_average(ch1, ring, b1.data(), n, 4000);
    });
    dist::establish_ring(ch0, ring, 4000);
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      Stopwatch sw;
      dist::ring_allreduce_average(ch0, ring, b0.data(), n, 4000);
      best = std::min(best, sw.seconds());
    }
    peer.join();
    const double model_s = dist::ring_allreduce_seconds(
        2, static_cast<double>(n) * sizeof(float), dist::CommModelConfig{});
    std::printf(
        "{\"mfn_perf\":\"dist_allreduce\",\"world\":2,\"bytes\":%lld,"
        "\"measured_ms\":%.3f,\"model_ms\":%.3f,"
        "\"model_vs_measured\":%.3f}\n",
        static_cast<long long>(n * sizeof(float)), best * 1e3, model_s * 1e3,
        model_s / best);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The acceptance perf bar is defined at >= 4 threads; default the pool to
  // 4 unless the caller pinned a count. Must happen before the first
  // ThreadPool::global() touch.
  setenv("MFN_NUM_THREADS", "4", /*overwrite=*/0);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_perf_json();
  return 0;
}
