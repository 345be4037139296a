// mfn — command-line driver for the MeshfreeFlowNet library.
//
//   mfn simulate --out data.grid [--ra 1e6] [--pr 1] [--nx 64] [--nz 33]
//                [--seed 1] [--spinup 8] [--duration 8] [--frames 32]
//   mfn info     --data data.grid
//   mfn train    --data data.grid --out model.ckpt [--dt 4] [--ds 4]
//                [--gamma 0.0125] [--epochs 50] [--batches 16] [--lr 3e-3]
//                [--batch 4] [--queries 384] [--ra 1e6] [--pr 1]
//                [--resume model.ckpt]
//   mfn eval     --data data.grid --model model.ckpt [--dt 4] [--ds 4]
//                [--batch 8] [--queries 384] [--ra 1e6] [--pr 1]
//   mfn superres --data data.grid --model model.ckpt --out pred.grid
//                [--dt 4] [--ds 4] [--nt N] [--nz N] [--nx N]
//   mfn train-worker [--rank R] [--world W] [--addr 127.0.0.1] --port P
//                [--steps 16] [--batch 2] [--lr 2e-3] [--seed 0]
//                [--heartbeat-ms 3000] [--io-ms 4000] [--join-ms 8000]
//                [--ckpt out.ckpt] [--ckpt-every 5] [--status status.json]
//                [--rejoin 1] [--min-world 1]
//   mfn dist-train --world 3 [--steps 16] [--port 0] [... train-worker
//                flags ...] [--inject-rank R --inject "SPEC"]
//                [--delay-rank R --delay-ms M]
//   mfn serve-bench [--model model.ckpt] [--clients 16] [--requests 64]
//                [--queries 256] [--patches 8] [--cache-mb 64]
//                [--max-batch 4096] [--max-wait-us 100] [--workers 1]
//                [--seed 9] [--precision fp32|bf16|int8]
//                [--open-loop 1 --arrival-rps 500 [--total-requests N]]
//                [--deadline-ms 50] [--policy block|reject|shed-oldest]
//                [--max-queue ROWS] [--brownout 1]
//                [--brownout-high-rows R --brownout-low-rows R]
//                [--inject point[:arg]] [--tenants N] [--zipf 1.1]
//
// serve-bench drives the concurrent inference engine (latent cache +
// query batcher, src/serve/) with a multi-client load generator and
// prints qps / latency / cache statistics plus a machine-readable
// mfn_perf line. Without --model it serves a randomly-initialized
// network — the serving data path is identical. The default drive is
// closed-loop (each client waits for its response); --open-loop issues
// Poisson arrivals at --arrival-rps regardless of completions, which is
// the overload harness: combine with --deadline-ms, --policy
// shed-oldest and --brownout 1 to measure robustness under arrival >
// capacity, or --inject to arm a named fail point (see
// src/common/failpoint.h) for fault drills. --tenants N serves N models
// behind one engine with Zipf(--zipf)-skewed traffic (tenant 0 hottest)
// and reports per-tenant qps / hit-rate / p99 / shed counters.
// --max-wait-us bounds the batching window of a sub-max flush; the window
// closes earlier once the queue holds as many rows as the largest of the
// last 8 flushes, or when a queued deadline needs the decode to start.
// The batcher line counts which exit closed each flush.
//
// train-worker runs one rank of the fault-tolerant multi-process
// distributed trainer (src/distributed/worker.h): rank 0 is the
// coordinator and rendezvous point, everyone else dials --addr:--port.
// Flags default from MFN_DIST_RANK / MFN_DIST_WORLD / MFN_DIST_ADDR /
// MFN_DIST_PORT so a launcher can configure ranks through the
// environment. dist-train is the single-machine launcher: it forks one
// train-worker subprocess per rank on a free port and reaps them;
// --inject-rank/--inject arms MFN_FAILPOINTS in exactly one rank for
// fault drills (e.g. --inject "dist.worker_crash=skip:3,count:1").
//
// The network architecture is the library's bench-scale default; training
// state (weights + Adam moments + history) round-trips through --out /
// --resume checkpoints. Any command accepts `--verbose 1` to print the
// backend memory report (caching-allocator hit rates, workspace arena
// high-water marks) after it finishes. `mfn --help` (or --help after any
// command) prints every command's flags and exits 0; a flag the command
// does not take, or a last flag without a value, exits 1 naming the flag
// before any work starts. MFN_FAILPOINTS is parsed at
// startup for every command (failpoint::arm_from_env), so spawned
// subprocesses can be fault-injected without code changes.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "backend/simd.h"
#include "backend/workspace.h"
#include "common/error.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/evaluation.h"
#include "core/losses.h"
#include "core/meshfree_flownet.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "distributed/worker.h"
#include "metrics/comparison.h"
#include "serve/serve_bench.h"
#include "threading/thread_pool.h"

namespace {

using namespace mfn;

// The flags each command takes, besides --verbose.
const std::map<std::string, std::set<std::string>>& command_flags() {
  static const std::map<std::string, std::set<std::string>> flags = {
      {"simulate",
       {"out", "ra", "pr", "nx", "nz", "seed", "spinup", "duration",
        "frames"}},
      {"info", {"data"}},
      {"train",
       {"data", "dt", "ds", "out", "gamma", "epochs", "batches", "lr",
        "batch", "queries", "ra", "pr", "seed", "resume"}},
      {"eval", {"data", "model", "dt", "ds", "batch", "queries", "ra", "pr"}},
      {"superres", {"data", "model", "out", "dt", "ds", "nt", "nz", "nx"}},
      {"train-worker",
       {"rank", "world", "addr", "port", "steps", "batch", "lr", "seed",
        "heartbeat-ms", "io-ms", "join-ms", "ckpt", "ckpt-every", "status",
        "rejoin", "min-world"}},
      {"dist-train",
       {"world", "steps", "port", "batch", "lr", "seed", "heartbeat-ms",
        "io-ms", "join-ms", "ckpt", "ckpt-every", "status", "rejoin",
        "min-world", "inject-rank", "inject", "delay-rank", "delay-ms"}},
      {"serve-bench",
       {"model", "clients", "requests", "queries", "patches", "cache-mb",
        "max-batch", "max-wait-us", "workers", "seed", "precision",
        "open-loop", "arrival-rps", "total-requests", "deadline-ms",
        "policy", "max-queue", "brownout", "brownout-high-rows",
        "brownout-low-rows", "brownout-dwell", "inject", "tenants",
        "zipf"}},
  };
  return flags;
}

class Args {
 public:
  // argv[first..] as --flag value pairs. A flag outside `known` and
  // --verbose, or a last flag without a value, throws naming the flag.
  Args(int argc, char** argv, int first, const std::set<std::string>& known) {
    for (int i = first; i < argc; i += 2) {
      const std::string flag = argv[i];
      MFN_CHECK(flag.size() > 2 && flag.compare(0, 2, "--") == 0,
                "expected --flag, got " << flag);
      const std::string key = flag.substr(2);
      MFN_CHECK(known.count(key) != 0 || key == "verbose",
                "unknown flag " << flag << " (mfn --help lists the flags)");
      MFN_CHECK(i + 1 < argc, "flag " << flag << " has no value");
      kv_[key] = argv[i + 1];
    }
  }
  std::string str(const std::string& key, const std::string& dflt = "") const {
    auto it = kv_.find(key);
    if (it == kv_.end()) {
      MFN_CHECK(!dflt.empty() || !required_.count(key),
                "missing required --" << key);
      return dflt;
    }
    return it->second;
  }
  std::string required(const std::string& key) const {
    auto it = kv_.find(key);
    MFN_CHECK(it != kv_.end(), "missing required --" << key);
    return it->second;
  }
  double num(const std::string& key, double dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : std::atof(it->second.c_str());
  }
  long integer(const std::string& key, long dflt) const {
    auto it = kv_.find(key);
    return it == kv_.end() ? dflt : std::atol(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> kv_;
  std::map<std::string, bool> required_;
};

// --verbose 1: backend memory report after the command — caching-allocator
// hit rates plus the per-thread Workspace arena high-water marks
// (backend::workspace_stats()).
void print_backend_stats() {
  const backend::BackendMemoryStats s = backend::workspace_stats();
  const auto mib = [](std::size_t b) {
    return static_cast<double>(b) / (1024.0 * 1024.0);
  };
  std::printf(
      "backend memory: tensor cache %llu allocs (%llu heap, %.1f%% cached), "
      "%.1f MiB in use / %.1f MiB cached / %.1f MiB peak\n",
      static_cast<unsigned long long>(s.cache.allocs),
      static_cast<unsigned long long>(s.cache.heap_allocs),
      s.cache.allocs
          ? 100.0 * static_cast<double>(s.cache.allocs - s.cache.heap_allocs) /
                static_cast<double>(s.cache.allocs)
          : 0.0,
      mib(s.cache.bytes_in_use), mib(s.cache.bytes_cached),
      mib(s.cache.peak_bytes_in_use));
  if (s.cache.steps > 0)
    std::printf(
        "backend memory: last step %llu tensor allocs, %llu heap allocs "
        "(%llu steps)\n",
        static_cast<unsigned long long>(s.cache.allocs_last_step),
        static_cast<unsigned long long>(s.cache.heap_allocs_last_step),
        static_cast<unsigned long long>(s.cache.steps));
  std::printf(
      "backend memory: %llu workspace arenas, %.1f MiB capacity, "
      "%.1f MiB high-water\n",
      static_cast<unsigned long long>(s.workspace_count),
      mib(s.workspace_capacity_floats * sizeof(float)),
      mib(s.workspace_peak_floats * sizeof(float)));
}

core::MFNConfig cli_model_config() {
  core::MFNConfig cfg;
  cfg.unet.in_channels = 4;
  cfg.unet.out_channels = 16;
  cfg.unet.base_filters = 8;
  cfg.unet.max_filters = 64;
  cfg.unet.pools = {{1, 2, 2}, {2, 2, 2}};
  cfg.decoder.latent_channels = 16;
  cfg.decoder.hidden = {32, 32};
  return cfg;
}

int cmd_simulate(const Args& args) {
  data::DatasetConfig cfg;
  cfg.solver.Ra = args.num("ra", 1e6);
  cfg.solver.Pr = args.num("pr", 1.0);
  cfg.solver.nx = static_cast<int>(args.integer("nx", 64));
  cfg.solver.nz = static_cast<int>(args.integer("nz", 33));
  cfg.solver.seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  cfg.spinup_time = args.num("spinup", 8.0);
  cfg.duration = args.num("duration", 8.0);
  cfg.num_snapshots = static_cast<int>(args.integer("frames", 32));
  const std::string out = args.required("out");
  std::printf("simulating Ra=%.2e Pr=%.1f on %dx%d, %d frames...\n",
              cfg.solver.Ra, cfg.solver.Pr, cfg.solver.nz, cfg.solver.nx,
              cfg.num_snapshots);
  data::Grid4D grid = data::generate_rb_dataset(cfg);
  grid.save_file(out);
  std::printf("wrote %s (%lld x %lld x %lld x %lld)\n", out.c_str(),
              static_cast<long long>(grid.channels()),
              static_cast<long long>(grid.nt()),
              static_cast<long long>(grid.nz()),
              static_cast<long long>(grid.nx()));
  return 0;
}

int cmd_info(const Args& args) {
  data::Grid4D grid = data::Grid4D::load_file(args.required("data"));
  std::printf("grid: channels=%lld frames=%lld nz=%lld nx=%lld\n",
              static_cast<long long>(grid.channels()),
              static_cast<long long>(grid.nt()),
              static_cast<long long>(grid.nz()),
              static_cast<long long>(grid.nx()));
  std::printf("time: t0=%.4f dt=%.4f | cells: dz=%.4f dx=%.4f\n", grid.t0,
              grid.dt, grid.dz_cell, grid.dx_cell);
  data::NormStats stats = data::NormStats::compute(grid);
  for (int c = 0; c < data::kNumChannels; ++c)
    std::printf("  %s: mean=%+.4f std=%.4f\n",
                data::kChannelNames[static_cast<std::size_t>(c)],
                static_cast<double>(stats.mean[static_cast<std::size_t>(c)]),
                static_cast<double>(
                    stats.stddev[static_cast<std::size_t>(c)]));
  return 0;
}

data::SRPair load_pair(const Args& args) {
  data::Grid4D hr = data::Grid4D::load_file(args.required("data"));
  return data::make_sr_pair(hr, static_cast<int>(args.integer("dt", 4)),
                            static_cast<int>(args.integer("ds", 4)));
}

int cmd_train(const Args& args) {
  data::SRPair pair = load_pair(args);
  data::PatchSamplerConfig pcfg;
  pcfg.patch_nt = std::min<std::int64_t>(4, pair.lr.nt());
  pcfg.patch_nz = std::min<std::int64_t>(8, pair.lr.nz());
  pcfg.patch_nx = std::min<std::int64_t>(8, pair.lr.nx());
  pcfg.queries_per_patch = args.integer("queries", 384);
  MFN_CHECK(pcfg.queries_per_patch >= 1, "--queries must be >= 1");
  data::PatchSampler sampler(pair, pcfg);

  core::EquationLossConfig eq;
  eq.constants =
      core::RBConstants::from_ra_pr(args.num("ra", 1e6), args.num("pr", 1.0));
  eq.cell_size = sampler.lr_cell_size();
  eq.stats = pair.stats;

  core::TrainerConfig tcfg;
  tcfg.epochs = static_cast<int>(args.integer("epochs", 50));
  tcfg.batches_per_epoch = static_cast<int>(args.integer("batches", 16));
  tcfg.batch_size = static_cast<int>(args.integer("batch", 4));
  tcfg.gamma = args.num("gamma", 0.0125);
  tcfg.adam.lr = args.num("lr", 3e-3);
  tcfg.lr_decay = 0.97;

  Rng rng(static_cast<std::uint64_t>(args.integer("seed", 7)));
  core::MeshfreeFlowNet model(cli_model_config(), rng);
  core::Trainer trainer(model, sampler, eq, tcfg);

  // NOTE: --resume restores weights + optimizer moments; epochs given here
  // run on top of the restored state.
  int start_epoch = 0;
  const std::string resume = args.str("resume", "-");
  core::CheckpointData ck;
  if (resume != "-") {
    // run a zero-cost epoch structure: load into a scratch Adam via
    // Trainer's optimizer is private, so resume rebuilds through the
    // checkpoint API below.
    optim::Adam scratch(model.parameters(), tcfg.adam);
    ck = core::load_checkpoint(resume, model, scratch);
    start_epoch = ck.epoch;
    std::printf("resumed from %s at epoch %d\n", resume.c_str(),
                start_epoch);
  }

  std::printf("training: %lld parameters, gamma=%.4f, %d epochs x %d "
              "minibatches x %d patches (%lld queries/patch)\n",
              static_cast<long long>(model.num_parameters()), tcfg.gamma,
              tcfg.epochs, tcfg.batches_per_epoch, tcfg.batch_size,
              static_cast<long long>(pcfg.queries_per_patch));
  double train_seconds = 0.0;
  for (int e = 0; e < tcfg.epochs; ++e) {
    auto stats = trainer.run_epoch();
    train_seconds += stats.wall_seconds;
    ck.history.push_back(stats);
    if (e % 5 == 0 || e + 1 == tcfg.epochs)
      std::printf("  epoch %3d  loss=%.4f (pred %.4f eq %.4f) [%.1fs]\n",
                  start_epoch + e, stats.total_loss, stats.pred_loss,
                  stats.eq_loss, stats.wall_seconds);
  }
  ck.epoch = start_epoch + tcfg.epochs;
  if (train_seconds > 0.0) {
    const double patches = static_cast<double>(tcfg.epochs) *
                           tcfg.batches_per_epoch * tcfg.batch_size;
    std::printf("throughput: %.1f patches/sec, %.0f queries/sec\n",
                patches / train_seconds,
                patches * static_cast<double>(pcfg.queries_per_patch) /
                    train_seconds);
  }

  const std::string out = args.required("out");
  optim::Adam opt_for_save(model.parameters(), tcfg.adam);
  core::save_checkpoint(out, model, opt_for_save, ck);
  std::printf("wrote checkpoint %s\n", out.c_str());
  return 0;
}

std::unique_ptr<core::MeshfreeFlowNet> load_model(const Args& args) {
  Rng rng(1);
  auto model =
      std::make_unique<core::MeshfreeFlowNet>(cli_model_config(), rng);
  optim::Adam scratch(model->parameters());
  core::load_checkpoint(args.required("model"), *model, scratch);
  return model;
}

int cmd_eval(const Args& args) {
  data::SRPair pair = load_pair(args);
  auto model = load_model(args);
  const double nu =
      core::RBConstants::from_ra_pr(args.num("ra", 1e6), args.num("pr", 1.0))
          .r_star;

  // Measured batched continuous-query throughput: one minibatch of
  // --batch patches x --queries points through the full predict path.
  {
    const auto batch = std::max<long>(args.integer("batch", 8), 1);
    data::PatchSamplerConfig pcfg;
    pcfg.patch_nt = std::min<std::int64_t>(4, pair.lr.nt());
    pcfg.patch_nz = std::min<std::int64_t>(8, pair.lr.nz());
    pcfg.patch_nx = std::min<std::int64_t>(8, pair.lr.nx());
    pcfg.queries_per_patch = std::max<std::int64_t>(
        args.integer("queries", 384), 1);
    data::PatchSampler sampler(pair, pcfg);
    Rng rng(3);
    data::BatchedSample sample = sampler.sample_batch(batch, rng);
    ad::NoGradGuard no_grad;
    model->set_training(false);
    model->predict(sample.lr_patches, sample.query_coords);  // warm up
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      Stopwatch sw;
      model->predict(sample.lr_patches, sample.query_coords);
      best = std::min(best, sw.seconds());
    }
    const double queries =
        static_cast<double>(sample.batch() * sample.queries());
    std::printf(
        "throughput: batch %lld x %lld queries -> %.1f patches/sec, "
        "%.0f queries/sec\n",
        static_cast<long long>(sample.batch()),
        static_cast<long long>(sample.queries()),
        static_cast<double>(sample.batch()) / best, queries / best);
  }

  auto report = core::evaluate_model(*model, pair, nu);
  std::printf("%s\n", metrics::format_report_header("model").c_str());
  std::printf("%s\n", metrics::format_report_row(args.required("model"),
                                                 report)
                          .c_str());
  return 0;
}

int cmd_superres(const Args& args) {
  data::SRPair pair = load_pair(args);
  auto model = load_model(args);
  const std::int64_t nt = args.integer("nt", pair.hr.nt());
  const std::int64_t nz = args.integer("nz", pair.hr.nz());
  const std::int64_t nx = args.integer("nx", pair.hr.nx());
  data::Grid4D pred = core::super_resolve_at(*model, pair, nt, nz, nx);
  const std::string out = args.required("out");
  pred.save_file(out);
  std::printf("wrote %s (%lld x %lld x %lld x %lld)\n", out.c_str(),
              static_cast<long long>(pred.channels()),
              static_cast<long long>(pred.nt()),
              static_cast<long long>(pred.nz()),
              static_cast<long long>(pred.nx()));
  return 0;
}

int cmd_serve_bench(const Args& args) {
  Rng rng(static_cast<std::uint64_t>(args.integer("seed", 9)));
  auto model = std::make_unique<core::MeshfreeFlowNet>(cli_model_config(),
                                                       rng);
  const std::string ckpt = args.str("model", "-");
  if (ckpt != "-") {
    core::load_checkpoint_weights(ckpt, *model);
    std::printf("serving weights from %s\n", ckpt.c_str());
  } else {
    std::printf("serving a randomly-initialized model (no --model)\n");
  }

  const std::string prec_str = args.str("precision", "fp32");
  backend::Precision precision = backend::Precision::kFp32;
  if (prec_str == "bf16") precision = backend::Precision::kBf16;
  else if (prec_str == "int8") precision = backend::Precision::kInt8;
  else MFN_CHECK(prec_str == "fp32",
                 "--precision must be fp32, bf16 or int8, got " << prec_str);

  serve::InferenceEngineConfig ecfg;
  const long cache_mb = args.integer("cache-mb", 64);
  MFN_CHECK(cache_mb >= 1, "--cache-mb must be >= 1, got " << cache_mb);
  ecfg.cache_bytes = static_cast<std::size_t>(cache_mb) << 20;
  ecfg.batcher.workers = static_cast<int>(args.integer("workers", 1));
  ecfg.batcher.max_batch_rows = args.integer("max-batch", 4096);
  ecfg.batcher.max_wait_us = args.integer("max-wait-us", 100);
  ecfg.batcher.max_queue_rows =
      args.integer("max-queue", ecfg.batcher.max_queue_rows);
  ecfg.decode_precision = precision;

  const std::string policy_str = args.str("policy", "block");
  if (policy_str == "reject")
    ecfg.batcher.admission = serve::AdmissionPolicy::kReject;
  else if (policy_str == "shed-oldest")
    ecfg.batcher.admission = serve::AdmissionPolicy::kShedOldest;
  else
    MFN_CHECK(policy_str == "block",
              "--policy must be block, reject or shed-oldest, got "
                  << policy_str);

  if (args.integer("brownout", 0) != 0) {
    ecfg.batcher.brownout.enabled = true;
    // Default watermarks scale with the queue bound: degrade when the
    // queue is half full, recover below a quarter.
    ecfg.batcher.brownout.high_rows = args.integer(
        "brownout-high-rows", ecfg.batcher.max_queue_rows / 2);
    ecfg.batcher.brownout.low_rows = args.integer(
        "brownout-low-rows", ecfg.batcher.max_queue_rows / 4);
    ecfg.batcher.brownout.dwell_flushes =
        static_cast<int>(args.integer("brownout-dwell", 4));
  }

  // --inject point[:arg] arms a named fail point (src/common/failpoint.h)
  // for the whole run — fault drills against a live serving process.
  const std::string inject = args.str("inject", "");
  if (!inject.empty()) {
    failpoint::Spec spec;
    std::string point = inject;
    const auto colon = inject.find(':');
    if (colon != std::string::npos) {
      point = inject.substr(0, colon);
      spec.arg = std::atof(inject.c_str() + colon + 1);
    }
    failpoint::arm(point, spec);
    std::printf("fail point armed: %s (arg %g)\n", point.c_str(), spec.arg);
  }

  serve::InferenceEngine engine(std::move(model), ecfg);

  // --tenants N serves N models (tenant 0 is the --model checkpoint or the
  // random default; tenants 1..N-1 are fresh random models of the same
  // architecture) with --zipf-skewed traffic: tenant 0 is the hot one.
  const int tenants = static_cast<int>(args.integer("tenants", 1));
  MFN_CHECK(tenants >= 1, "--tenants must be >= 1, got " << tenants);
  for (int t = 1; t < tenants; ++t) {
    Rng trng(static_cast<std::uint64_t>(args.integer("seed", 9)) +
             1000ull * static_cast<std::uint64_t>(t));
    serve::TenantConfig tcfg;
    tcfg.decode_precision = precision;
    engine.add_tenant(static_cast<serve::TenantId>(t),
                      std::make_unique<core::MeshfreeFlowNet>(
                          cli_model_config(), trng),
                      tcfg);
  }

  serve::ServeBenchConfig bcfg;
  bcfg.clients = static_cast<int>(args.integer("clients", 16));
  bcfg.requests_per_client = static_cast<int>(args.integer("requests", 64));
  bcfg.queries_per_request = args.integer("queries", 256);
  bcfg.hot_patches = static_cast<int>(args.integer("patches", 8));
  bcfg.seed = static_cast<std::uint64_t>(args.integer("seed", 9));
  bcfg.precision = precision;
  bcfg.open_loop = args.integer("open-loop", 0) != 0;
  bcfg.arrival_rps = args.num("arrival-rps", 0.0);
  bcfg.total_requests = static_cast<int>(args.integer("total-requests", 0));
  bcfg.deadline_ms = args.num("deadline-ms", 0.0);
  bcfg.tenants = tenants;
  bcfg.zipf_s = args.num("zipf", 1.0);

  std::printf(
      "serve-bench: %d clients x %d requests x %lld queries, %d hot "
      "patches, cache %lld MiB, max-batch %lld rows, max-wait %lld us, "
      "decode precision %s\n",
      bcfg.clients, bcfg.requests_per_client,
      static_cast<long long>(bcfg.queries_per_request), bcfg.hot_patches,
      static_cast<long long>(cache_mb),
      static_cast<long long>(ecfg.batcher.max_batch_rows),
      static_cast<long long>(ecfg.batcher.max_wait_us),
      backend::precision_name(precision));
  if (bcfg.open_loop)
    std::printf(
        "open loop: Poisson arrivals at %.0f req/s, deadline %.0f ms (0 = "
        "none), policy %s, brownout %s, max-queue %lld rows\n",
        bcfg.arrival_rps, bcfg.deadline_ms,
        serve::admission_policy_name(ecfg.batcher.admission),
        ecfg.batcher.brownout.enabled ? "on" : "off",
        static_cast<long long>(ecfg.batcher.max_queue_rows));
  if (bcfg.tenants > 1)
    std::printf("tenants: %d models, Zipf(%.2f) traffic (tenant 0 hottest)\n",
                bcfg.tenants, bcfg.zipf_s);

  const serve::ServeBenchResult r = serve::run_serve_bench(engine, bcfg);
  std::printf(
      "throughput: %.0f queries/sec, %.1f requests/sec over %.2fs\n",
      r.qps, r.rps, r.seconds);
  std::printf(
      "latency (end-to-end, incl. batching queue): p50 %.3f ms, p99 %.3f "
      "ms, max %.3f ms\n",
      r.p50_ms, r.p99_ms, r.max_ms);
  std::printf(
      "latency split: queue-wait p50 %.3f ms / p99 %.3f ms, decode p50 "
      "%.3f ms / p99 %.3f ms\n",
      r.queue_p50_ms, r.queue_p99_ms, r.decode_p50_ms, r.decode_p99_ms);
  std::printf(
      "cache: hit-rate %.3f (%llu hits / %llu misses in the timed window), "
      "%llu evictions, %.1f MiB of %.1f MiB\n",
      r.hit_rate, static_cast<unsigned long long>(r.window_hits),
      static_cast<unsigned long long>(r.window_misses),
      static_cast<unsigned long long>(r.cache.evictions),
      static_cast<double>(r.cache.bytes_in_use) / (1024.0 * 1024.0),
      static_cast<double>(r.cache.byte_budget) / (1024.0 * 1024.0));
  std::printf(
      "batcher: %llu flushes (closed by %llu full / %llu target / %llu "
      "deadline / %llu window / %llu immediate), %.1f requests coalesced "
      "per decode, largest flush %llu rows, %llu planned / %llu tape "
      "decodes\n",
      static_cast<unsigned long long>(r.batcher.flushes),
      static_cast<unsigned long long>(r.batcher.flushes_full),
      static_cast<unsigned long long>(r.batcher.flushes_target),
      static_cast<unsigned long long>(r.batcher.flushes_deadline),
      static_cast<unsigned long long>(r.batcher.flushes_window),
      static_cast<unsigned long long>(r.batcher.flushes_immediate),
      r.batcher.requests_per_decode(),
      static_cast<unsigned long long>(r.batcher.max_flush_rows),
      static_cast<unsigned long long>(r.batcher.planned_decodes),
      static_cast<unsigned long long>(r.batcher.tape_decodes));
  std::printf(
      "plan cache: hit-rate %.3f (%llu hits / %llu misses in the timed "
      "window), %llu compiles, %llu entries\n",
      r.plan_hit_rate, static_cast<unsigned long long>(r.window_plan_hits),
      static_cast<unsigned long long>(r.window_plan_misses),
      static_cast<unsigned long long>(r.plans.compiles),
      static_cast<unsigned long long>(r.plans.entries));
  // Which tier actually served the window's decode units — a reduced-tier
  // request that fell back to fp32 shows up here, never silently.
  std::printf(
      "precision: requested %s, served %llu bf16 / %llu int8 plan units, "
      "%llu fp32 fallbacks of reduced-tier requests, max-abs-err vs fp32 "
      "%.3g\n",
      backend::precision_name(r.precision),
      static_cast<unsigned long long>(r.window_bf16_units),
      static_cast<unsigned long long>(r.window_int8_units),
      static_cast<unsigned long long>(r.window_precision_fallbacks),
      r.max_abs_err_vs_fp32);
  if (bcfg.tenants > 1) {
    for (const serve::TenantBenchResult& t : r.tenants)
      std::printf(
          "tenant %u: share %.2f, qps %.0f, rps %.1f, p50 %.3f ms, p99 "
          "%.3f ms, hit-rate %.3f, %llu evictions, %llu shed, %llu "
          "rejected, %llu degraded, %llu dedup-encodes\n",
          static_cast<unsigned>(t.tenant), t.share, t.qps, t.rps, t.p50_ms,
          t.p99_ms, t.hit_rate,
          static_cast<unsigned long long>(t.window_evictions),
          static_cast<unsigned long long>(t.shed),
          static_cast<unsigned long long>(t.rejected),
          static_cast<unsigned long long>(t.degraded),
          static_cast<unsigned long long>(t.dedup_encodes));
  }
  if (bcfg.open_loop || bcfg.deadline_ms > 0) {
    std::printf(
        "robustness: %llu ok / %llu expired / %llu overloaded / %llu "
        "failed of %llu issued (deadline hit rate %.3f)\n",
        static_cast<unsigned long long>(r.ok_requests),
        static_cast<unsigned long long>(r.expired_requests),
        static_cast<unsigned long long>(r.overloaded_requests),
        static_cast<unsigned long long>(r.failed_requests),
        static_cast<unsigned long long>(r.requests), r.deadline_hit_rate);
    std::printf(
        "admission/brownout: %llu shed, %llu rejected, %llu expired at "
        "submit / %llu in queue; %llu degraded requests in %llu units "
        "(brownout hit rate %.3f), %llu enters / %llu exits, level %d\n",
        static_cast<unsigned long long>(r.window_shed),
        static_cast<unsigned long long>(r.window_rejected),
        static_cast<unsigned long long>(r.window_expired_submit),
        static_cast<unsigned long long>(r.window_expired_queue),
        static_cast<unsigned long long>(r.window_degraded_requests),
        static_cast<unsigned long long>(r.window_degraded_units),
        r.brownout_hit_rate,
        static_cast<unsigned long long>(r.window_brownout_enters),
        static_cast<unsigned long long>(r.window_brownout_exits),
        r.batcher.brownout_level);
  }
  if (bcfg.tenants > 1) {
    // Multi-tenant runs report serve_tenants lines (one per tenant, keyed
    // by "tenant", plus the aggregate) instead of the single-tenant serve
    // line, whose pinned identity they would otherwise pollute.
    for (const serve::TenantBenchResult& t : r.tenants)
      std::printf(
          "{\"mfn_perf\":\"serve_tenants\",\"tenants\":%d,\"zipf\":%.2f,"
          "\"clients\":%d,\"queries\":%lld,\"threads\":%d,\"tenant\":%u,"
          "\"share\":%.3f,\"qps\":%.0f,\"hit_rate\":%.3f,\"p50_ms\":%.3f,"
          "\"p99_ms\":%.3f,\"shed\":%llu,\"rejected\":%llu,"
          "\"degraded\":%llu,\"dedup_encodes\":%llu}\n",
          bcfg.tenants, bcfg.zipf_s, bcfg.clients,
          static_cast<long long>(bcfg.queries_per_request),
          ThreadPool::global().size(), static_cast<unsigned>(t.tenant),
          t.share, t.qps, t.hit_rate, t.p50_ms, t.p99_ms,
          static_cast<unsigned long long>(t.shed),
          static_cast<unsigned long long>(t.rejected),
          static_cast<unsigned long long>(t.degraded),
          static_cast<unsigned long long>(t.dedup_encodes));
    std::printf(
        "{\"mfn_perf\":\"serve_tenants\",\"tenants\":%d,\"zipf\":%.2f,"
        "\"clients\":%d,\"queries\":%lld,\"threads\":%d,\"qps\":%.0f,"
        "\"hit_rate\":%.3f,\"p99_ms\":%.3f}\n",
        bcfg.tenants, bcfg.zipf_s, bcfg.clients,
        static_cast<long long>(bcfg.queries_per_request),
        ThreadPool::global().size(), r.qps, r.hit_rate, r.p99_ms);
  } else if (bcfg.open_loop) {
    std::printf(
        "{\"mfn_perf\":\"serve_overload\",\"arrival_rps\":%.0f,"
        "\"policy\":\"%s\",\"deadline_ms\":%.0f,\"brownout\":%d,"
        "\"qps\":%.0f,\"p99_ms\":%.3f,\"queue_p99_ms\":%.3f,"
        "\"deadline_hit_rate\":%.3f,\"brownout_hit_rate\":%.3f,"
        "\"shed\":%llu,\"rejected\":%llu,\"expired\":%llu,"
        "\"degraded_units\":%llu}\n",
        bcfg.arrival_rps,
        serve::admission_policy_name(ecfg.batcher.admission),
        bcfg.deadline_ms, ecfg.batcher.brownout.enabled ? 1 : 0, r.qps,
        r.p99_ms, r.queue_p99_ms, r.deadline_hit_rate, r.brownout_hit_rate,
        static_cast<unsigned long long>(r.window_shed),
        static_cast<unsigned long long>(r.window_rejected),
        static_cast<unsigned long long>(r.expired_requests),
        static_cast<unsigned long long>(r.window_degraded_units));
  } else if (precision == backend::Precision::kFp32) {
    // Field set pinned by tools/perf_diff.py baselines — the fp32 line's
    // identity must not change.
    std::printf(
        "{\"mfn_perf\":\"serve\",\"clients\":%d,\"queries\":%lld,"
        "\"threads\":%d,\"qps\":%.0f,\"hit_rate\":%.3f,\"p99_ms\":%.3f,"
        "\"queue_p99_ms\":%.3f,\"decode_p99_ms\":%.3f,"
        "\"plan_hit_rate\":%.3f}\n",
        bcfg.clients, static_cast<long long>(bcfg.queries_per_request),
        ThreadPool::global().size(), r.qps, r.hit_rate, r.p99_ms,
        r.queue_p99_ms, r.decode_p99_ms, r.plan_hit_rate);
  } else {
    std::printf(
        "{\"mfn_perf\":\"serve\",\"precision\":\"%s\",\"clients\":%d,"
        "\"queries\":%lld,\"threads\":%d,\"qps\":%.0f,\"hit_rate\":%.3f,"
        "\"p99_ms\":%.3f,\"queue_p99_ms\":%.3f,\"decode_p99_ms\":%.3f,"
        "\"plan_hit_rate\":%.3f,\"max_abs_err_vs_fp32\":%.3g,"
        "\"precision_fallbacks\":%llu}\n",
        backend::precision_name(r.precision), bcfg.clients,
        static_cast<long long>(bcfg.queries_per_request),
        ThreadPool::global().size(), r.qps, r.hit_rate, r.p99_ms,
        r.queue_p99_ms, r.decode_p99_ms, r.plan_hit_rate,
        r.max_abs_err_vs_fp32,
        static_cast<unsigned long long>(r.window_precision_fallbacks));
  }
  return 0;
}

long env_long(const char* name, long dflt) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atol(v) : dflt;
}

std::string env_str(const char* name, const std::string& dflt) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::string(v) : dflt;
}

dist::DistTrainConfig worker_config_from(const Args& args) {
  dist::DistTrainConfig cfg;
  cfg.rank = static_cast<int>(args.integer("rank",
                                           env_long("MFN_DIST_RANK", 0)));
  cfg.world = static_cast<int>(
      args.integer("world", env_long("MFN_DIST_WORLD", 1)));
  cfg.host = args.str("addr", env_str("MFN_DIST_ADDR", "127.0.0.1"));
  cfg.port = static_cast<int>(args.integer("port",
                                           env_long("MFN_DIST_PORT", 0)));
  cfg.steps = static_cast<int>(args.integer("steps", 16));
  cfg.batch_size = static_cast<int>(args.integer("batch", 2));
  cfg.adam.lr = args.num("lr", 2e-3);
  cfg.seed = static_cast<std::uint64_t>(args.integer("seed", 0));
  cfg.heartbeat_timeout_ms =
      static_cast<int>(args.integer("heartbeat-ms", 3000));
  cfg.io_timeout_ms = static_cast<int>(args.integer("io-ms", 4000));
  cfg.join_timeout_ms = static_cast<int>(args.integer("join-ms", 8000));
  cfg.checkpoint_path = args.str("ckpt", "");
  cfg.checkpoint_every = static_cast<int>(args.integer("ckpt-every", 5));
  cfg.status_path = args.str("status", "");
  cfg.rejoin = args.integer("rejoin", 1) != 0;
  cfg.min_world = static_cast<int>(args.integer("min-world", 1));
  return cfg;
}

int cmd_train_worker(const Args& args) {
  const dist::DistTrainConfig cfg = worker_config_from(args);
  std::printf("train-worker: rank %d of %d, rendezvous %s:%d, %d steps\n",
              cfg.rank, cfg.world, cfg.host.c_str(), cfg.port, cfg.steps);
  const dist::DistTrainResult r = dist::run_train_worker(cfg);
  std::printf(
      "rank %d done: %zu steps, final world %d, epoch %u, %zu excised, "
      "%d joins, %d rejoins, %d retries, %d checkpoints\n",
      cfg.rank, r.step_loss.size(), r.final_world, r.final_epoch,
      r.excised_ranks.size(), r.joins, r.rejoins, r.retries,
      r.checkpoints_published);
  if (!r.step_loss.empty())
    std::printf("rank %d loss: first %.4f last %.4f\n", cfg.rank,
                r.step_loss.front(), r.step_loss.back());
  return 0;
}

/// Bind port 0 on loopback to let the kernel pick a free port. The tiny
/// close-to-reuse race is acceptable for a single-machine launcher.
int pick_free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MFN_CHECK(fd >= 0, "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  MFN_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)) == 0,
            "bind failed picking a free port");
  socklen_t len = sizeof(addr);
  MFN_CHECK(getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
            "getsockname failed");
  ::close(fd);
  return static_cast<int>(ntohs(addr.sin_port));
}

int cmd_dist_train(const Args& args, const char* self) {
  const int world = static_cast<int>(args.integer("world", 2));
  MFN_CHECK(world >= 1, "--world must be >= 1");
  int port = static_cast<int>(args.integer("port", 0));
  if (port == 0) port = pick_free_port();
  const int inject_rank = static_cast<int>(args.integer("inject-rank", -1));
  const std::string inject = args.str("inject", "");
  const int delay_rank = static_cast<int>(args.integer("delay-rank", -1));
  const int delay_ms = static_cast<int>(args.integer("delay-ms", 0));

  // Pass-through flags every rank gets verbatim.
  const std::pair<const char*, std::string> forwarded[] = {
      {"steps", args.str("steps", "16")},
      {"batch", args.str("batch", "2")},
      {"lr", args.str("lr", "2e-3")},
      {"seed", args.str("seed", "0")},
      {"heartbeat-ms", args.str("heartbeat-ms", "3000")},
      {"io-ms", args.str("io-ms", "4000")},
      {"join-ms", args.str("join-ms", "8000")},
      {"ckpt-every", args.str("ckpt-every", "5")},
      {"rejoin", args.str("rejoin", "1")},
      {"min-world", args.str("min-world", "1")},
  };

  std::printf("dist-train: launching %d ranks on 127.0.0.1:%d\n", world,
              port);
  std::vector<pid_t> pids;
  for (int rank = 0; rank < world; ++rank) {
    const pid_t pid = ::fork();
    MFN_CHECK(pid >= 0, "fork failed: " << std::strerror(errno));
    if (pid == 0) {
      if (rank == delay_rank && delay_ms > 0) ::usleep(delay_ms * 1000);
      if (rank == inject_rank && !inject.empty())
        ::setenv("MFN_FAILPOINTS", inject.c_str(), 1);
      std::vector<std::string> argv_s = {self, "train-worker",
                                         "--rank", std::to_string(rank),
                                         "--world", std::to_string(world),
                                         "--port", std::to_string(port)};
      for (const auto& [flag, value] : forwarded) {
        argv_s.push_back(std::string("--") + flag);
        argv_s.push_back(value);
      }
      // Only rank 0 publishes checkpoints / status.
      if (rank == 0) {
        const std::string ckpt = args.str("ckpt", "");
        const std::string status = args.str("status", "");
        if (!ckpt.empty()) { argv_s.push_back("--ckpt"); argv_s.push_back(ckpt); }
        if (!status.empty()) { argv_s.push_back("--status"); argv_s.push_back(status); }
      }
      std::vector<char*> argv_c;
      for (auto& s : argv_s) argv_c.push_back(s.data());
      argv_c.push_back(nullptr);
      ::execvp(self, argv_c.data());
      std::fprintf(stderr, "execvp %s failed: %s\n", self,
                   std::strerror(errno));
      std::_Exit(127);
    }
    pids.push_back(pid);
  }

  int failures = 0;
  for (int rank = 0; rank < world; ++rank) {
    int status = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(pids[static_cast<std::size_t>(rank)], &status, 0);
    } while (reaped < 0 && errno == EINTR);
    // An unreaped rank must count as failed, not as a clean exit 0.
    const int code = reaped >= 0 && WIFEXITED(status) ? WEXITSTATUS(status)
                                                      : 128;
    const bool injected = rank == inject_rank;
    std::printf("dist-train: rank %d exited %d%s\n", rank, code,
                injected ? " (fault-injected)" : "");
    // An injected rank is allowed to die however the fail point decides;
    // everyone else must finish cleanly for the job to count.
    if (code != 0 && !injected) failures++;
  }
  if (failures > 0) {
    std::fprintf(stderr, "dist-train: %d uninjected rank(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("dist-train: job complete\n");
  return 0;
}

// Prints the commands and their flags to `out` and returns rc.
int usage(std::FILE* out, int rc) {
  std::fprintf(out,
               "usage: mfn <command> [--flag value]... [--verbose 1]\n"
               "(see the header of tools/mfn_cli.cpp)\n");
  for (const auto& [cmd, flags] : command_flags()) {
    std::fprintf(out, "  %s", cmd.c_str());
    for (const std::string& f : flags) std::fprintf(out, " --%s", f.c_str());
    std::fprintf(out, "\n");
  }
  std::fprintf(out,
               "simd: %s tier, vector width %d "
               "(MFN_FORCE_SCALAR=1 pins the scalar reference paths)\n",
               simd::active_tier(), simd::kWidth);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--help") == 0) return usage(stdout, 0);
  if (argc < 2 || command_flags().count(argv[1]) == 0)
    return usage(stderr, 2);
  const std::string cmd = argv[1];
  // Every perf figure a run logs (train/eval throughput) is attributable
  // to the ISA it actually executed on.
  std::printf("mfn: simd tier %s (vector width %d)\n", simd::active_tier(),
              simd::kWidth);
  try {
    // Startup-time fault injection for spawned subprocesses: the
    // distributed tests arm a crashing/slow worker purely through its
    // environment.
    const int armed = failpoint::arm_from_env();
    if (armed > 0)
      std::printf("mfn: %d fail point(s) armed from MFN_FAILPOINTS\n",
                  armed);
    const Args args(argc, argv, 2, command_flags().at(cmd));
    const bool verbose = args.integer("verbose", 0) != 0;
    int rc = 2;
    if (cmd == "simulate") rc = cmd_simulate(args);
    else if (cmd == "info") rc = cmd_info(args);
    else if (cmd == "train") rc = cmd_train(args);
    else if (cmd == "eval") rc = cmd_eval(args);
    else if (cmd == "superres") rc = cmd_superres(args);
    else if (cmd == "serve-bench") rc = cmd_serve_bench(args);
    else if (cmd == "train-worker") rc = cmd_train_worker(args);
    else if (cmd == "dist-train") rc = cmd_dist_train(args, argv[0]);
    if (verbose) print_backend_stats();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mfn %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
