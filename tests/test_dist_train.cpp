// Multi-process distributed-training suite, driven through the real `mfn
// dist-train` launcher (path from $MFN_CLI_BIN, wired by CMake): a
// two-process smoke run, the crash drill (1 of 3 workers killed
// mid-training by a fail point; survivors must excise it, re-form the
// ring, and keep converging) with a co-running InferenceEngine
// hot-swapping the published checkpoints mid-traffic, a crash inside the
// allgather (survivors that did and did not commit the step must be
// reconciled), the slow-worker excision + elastic rejoin path, a
// partition drill (injected recv timeouts), and a late joiner admitted
// after training already started. Also: the launcher's --help and its
// rejection of unknown and value-less flags.
//
// Every scenario runs real processes over real loopback TCP; fault
// injection reaches the children through MFN_FAILPOINTS (either the
// launcher's --inject-rank or plain env inheritance when every rank
// should be affected).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autodiff/variable.h"
#include "common/rng.h"
#include "core/checkpoint.h"
#include "core/meshfree_flownet.h"
#include "distributed/worker.h"
#include "optim/adam.h"
#include "serve/engine.h"

namespace mfn {
namespace {

const bool kForcePool = [] {
  setenv("MFN_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

std::string cli_bin() {
  const char* env = std::getenv("MFN_CLI_BIN");
  return env != nullptr && *env != '\0' ? env : "./mfn";
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// Export MFN_FAILPOINTS so every launched rank inherits it (the
/// launcher's --inject-rank overrides it for exactly one rank). Set and
/// torn down only while this process is single-threaded — setenv is not
/// safe against concurrent getenv.
class ScopedEnvFailpoints {
 public:
  explicit ScopedEnvFailpoints(const std::string& spec) {
    if (!spec.empty()) setenv("MFN_FAILPOINTS", spec.c_str(), 1);
  }
  ~ScopedEnvFailpoints() { unsetenv("MFN_FAILPOINTS"); }
};

/// Run `mfn dist-train <args>`; returns the exit code.
int run_dist_train(const std::string& args,
                   const std::string& all_ranks_failpoints = "") {
  ScopedEnvFailpoints env(all_ranks_failpoints);
  const std::string cmd = cli_bin() + " dist-train " + args;
  const int rc = std::system(cmd.c_str());
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

// ------------------------------------------- status JSON (rank 0 output)

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.is_open()) << "missing status file " << path;
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

double num_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing status key " << key;
  if (at == std::string::npos) return 0.0;
  return std::atof(json.c_str() + at + needle.size());
}

std::vector<double> vec_field(const std::string& json,
                              const std::string& key) {
  const std::string needle = "\"" + key + "\":[";
  const std::size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing status key " << key;
  std::vector<double> out;
  if (at == std::string::npos) return out;
  std::size_t pos = at + needle.size();
  while (pos < json.size() && json[pos] != ']') {
    char* end = nullptr;
    out.push_back(std::strtod(json.c_str() + pos, &end));
    pos = static_cast<std::size_t>(end - json.c_str());
    if (pos < json.size() && json[pos] == ',') ++pos;
  }
  return out;
}

double mean_of(const std::vector<double>& v, std::size_t begin,
               std::size_t count) {
  double s = 0.0;
  for (std::size_t i = begin; i < begin + count; ++i) s += v[i];
  return s / static_cast<double>(count);
}

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

// ----------------------------------------------------------------- tests

TEST(DistTrain, TwoProcessSmokeConvergesAndPublishes) {
  const std::string status = temp_path("dist_smoke_status.json");
  const std::string ckpt = temp_path("dist_smoke_ckpt.bin");
  std::remove(status.c_str());
  std::remove(ckpt.c_str());

  const int rc = run_dist_train("--world 2 --steps 6 --ckpt " + ckpt +
                                " --status " + status);
  ASSERT_EQ(rc, 0);

  const std::string json = slurp(status);
  EXPECT_EQ(num_field(json, "final_world"), 2);
  EXPECT_EQ(num_field(json, "digest_mismatch"), 0);
  // The ring allreduce is the step barrier: a fault-free job meets on the
  // control connections only to start and to stop.
  EXPECT_EQ(num_field(json, "meetings"), 2);
  EXPECT_EQ(num_field(json, "retries"), 0);
  const std::vector<double> losses = vec_field(json, "losses");
  ASSERT_EQ(losses.size(), 6u);
  EXPECT_LT(losses.back(), losses.front());

  // The published checkpoint is complete and loads into the architecture
  // every rank trains (tiny config), optimizer state included.
  Rng rng(1);
  core::MeshfreeFlowNet model(dist::dist_tiny_model_config(), rng);
  optim::Adam opt(model.parameters());
  const core::CheckpointData data = core::load_checkpoint(ckpt, model, opt);
  EXPECT_EQ(data.epoch, 6);  // published at the final committed step
  EXPECT_GT(opt.step_count(), 0);

  std::remove(status.c_str());
  std::remove(ckpt.c_str());
}

// The headline acceptance drill: 3 workers, rank 2 is killed mid-training
// by dist.worker_crash. The survivors must detect the death within the
// heartbeat window, excise it, re-form a 2-member ring, and finish every
// step with decreasing loss — while a live InferenceEngine in this
// process hot-swaps each checkpoint rank 0 publishes, serving client
// traffic with zero failures throughout.
TEST(DistTrain, CrashedWorkerExcisedSurvivorsConvergeWhileServing) {
  const std::string status = temp_path("dist_crash_status.json");
  const std::string ckpt = temp_path("dist_crash_ckpt.bin");
  std::remove(status.c_str());
  std::remove(ckpt.c_str());

  // Every rank sleeps 15 ms per step (env-inherited fail point) so the
  // job lasts long enough for several live reloads regardless of build
  // flavor; rank 2's env is overridden to crash on its 6th step. The env
  // is exported before any helper thread exists and cleared after they
  // are all joined (setenv vs concurrent getenv is unsafe).
  ScopedEnvFailpoints env("dist.slow_worker=arg:15");
  std::atomic<int> rc{-1};
  std::thread job([&] {
    const std::string cmd =
        cli_bin() +
        " dist-train --world 3 --steps 40 --heartbeat-ms 2000"
        " --ckpt-every 2 --ckpt " +
        ckpt + " --status " + status +
        " --inject-rank 2 --inject dist.worker_crash=skip:5,count:1";
    const int raw = std::system(cmd.c_str());
    rc.store(WIFEXITED(raw) ? WEXITSTATUS(raw) : -2);
  });

  // Serve while training: wait for the first published checkpoint, then
  // hot-swap every poll while clients hammer the engine.
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::seconds(120);
  while (!file_exists(ckpt) && Clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (!file_exists(ckpt)) {
    job.join();  // never detach a live launcher; fail afterwards
    FAIL() << "trainer never published a checkpoint (launcher rc "
           << rc.load() << ")";
  }

  Rng rng(99);
  auto model = std::make_unique<core::MeshfreeFlowNet>(
      dist::dist_tiny_model_config(), rng);
  model->set_training(false);
  serve::InferenceEngine engine(std::move(model), {});
  const std::uint64_t v0 = engine.snapshot_version();

  Rng data_rng(5);
  const Tensor patch = Tensor::randn(Shape{1, 4, 4, 8, 8}, data_rng, 0.5f);
  Tensor coords = Tensor::uninitialized(Shape{16, 3});
  for (std::int64_t q = 0; q < 16; ++q) {
    coords.data()[q * 3 + 0] = static_cast<float>(data_rng.uniform(0.0, 3.0));
    coords.data()[q * 3 + 1] = static_cast<float>(data_rng.uniform(0.0, 7.0));
    coords.data()[q * 3 + 2] = static_cast<float>(data_rng.uniform(0.0, 7.0));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> client_failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c)
    clients.emplace_back([&, c] {
      std::uint64_t id = static_cast<std::uint64_t>(c) * 1000000 + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          Tensor out = engine.query_sync(id++, patch, coords);
          if (out.dim(0) != coords.dim(0)) client_failures.fetch_add(1);
        } catch (const std::exception&) {
          client_failures.fetch_add(1);
        }
      }
    });

  int reloads = 0;
  bool timed_out = false;
  while (rc.load() == -1 || reloads == 0) {
    if (file_exists(ckpt)) {
      engine.reload_from_checkpoint(ckpt);
      ++reloads;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    if (Clock::now() > deadline) {
      timed_out = true;
      break;
    }
  }
  job.join();
  // One final swap of the end-of-run checkpoint, still under traffic.
  if (!timed_out) engine.reload_from_checkpoint(ckpt);
  stop.store(true);
  for (auto& t : clients) t.join();

  ASSERT_FALSE(timed_out) << "dist-train never finished";
  ASSERT_EQ(rc.load(), 0);
  EXPECT_EQ(client_failures.load(), 0);
  EXPECT_GE(reloads, 2);
  EXPECT_GT(engine.snapshot_version(), v0);

  const std::string json = slurp(status);
  EXPECT_EQ(num_field(json, "final_world"), 2);
  // The surviving replica must end bitwise identical to rank 0.
  EXPECT_EQ(num_field(json, "digest_mismatch"), 0);
  const std::vector<double> excised = vec_field(json, "excised");
  ASSERT_EQ(excised.size(), 1u);
  EXPECT_EQ(excised[0], 2);
  // Crash detection rides on EOF, but even the slow path is bounded by
  // the heartbeat deadline plus one io window.
  const std::vector<double> detect = vec_field(json, "detect_ms");
  ASSERT_EQ(detect.size(), 1u);
  EXPECT_LT(detect[0], 2000.0 + 4000.0 + 1000.0);
  // Survivors ran every step and kept converging after the excision.
  const std::vector<double> losses = vec_field(json, "losses");
  ASSERT_EQ(losses.size(), 40u);
  EXPECT_LT(mean_of(losses, losses.size() - 5, 5), mean_of(losses, 0, 5));

  std::remove(status.c_str());
  std::remove(ckpt.c_str());
}

// Mid-allgather crash: the victim dies right before its second (last)
// allgather send of step 4 (dist.ring_crash polls twice per step at world
// 3). Its ring predecessor has then received every chunk and commits step
// 4; its successor's last recv fails and it does not. Victim 1 leaves rank
// 0 one commit ahead of rank 2, victim 2 leaves rank 1 one commit ahead of
// rank 0. Either way the survivors must end on one state (digest), retry
// the step at world 2 and commit every step exactly once (losses).
class MidAllgatherCrash : public ::testing::TestWithParam<int> {};

TEST_P(MidAllgatherCrash, SurvivorsReconcileAndConverge) {
  const int victim = GetParam();
  const std::string status = temp_path(
      ("dist_allgather_" + std::to_string(victim) + "_status.json").c_str());
  std::remove(status.c_str());

  const int rc = run_dist_train(
      "--world 3 --steps 20 --status " + status + " --inject-rank " +
      std::to_string(victim) + " --inject dist.ring_crash=skip:9,count:1");
  ASSERT_EQ(rc, 0);

  const std::string json = slurp(status);
  EXPECT_EQ(num_field(json, "digest_mismatch"), 0);
  const std::vector<double> excised = vec_field(json, "excised");
  ASSERT_EQ(excised.size(), 1u);
  EXPECT_EQ(excised[0], victim);
  EXPECT_EQ(num_field(json, "final_world"), 2);
  EXPECT_GE(num_field(json, "retries"), 1);
  const std::vector<double> losses = vec_field(json, "losses");
  ASSERT_EQ(losses.size(), 20u);
  EXPECT_LT(mean_of(losses, losses.size() - 5, 5), mean_of(losses, 0, 5));

  std::remove(status.c_str());
}

INSTANTIATE_TEST_SUITE_P(Victims, MidAllgatherCrash, ::testing::Values(1, 2),
                         [](const auto& info) {
                           return "rank" + std::to_string(info.param);
                         });

// Slow-worker drill: rank 1 stalls 900 ms (>> heartbeat) on one step. The
// coordinator must excise it near the heartbeat deadline and carry on at
// world 2; when the stall ends, the worker finds its control socket dead,
// re-dials, and is re-admitted via kSync — ending the job back at world 3.
TEST(DistTrain, SlowWorkerExcisedThenRejoinsElastically) {
  const std::string status = temp_path("dist_slow_status.json");
  std::remove(status.c_str());

  const int rc = run_dist_train(
      "--world 3 --steps 120 --heartbeat-ms 300 --status " + status +
          " --inject-rank 1 --inject dist.slow_worker=skip:5,count:1,arg:900",
      "dist.slow_worker=arg:10");
  ASSERT_EQ(rc, 0);

  const std::string json = slurp(status);
  const std::vector<double> excised = vec_field(json, "excised");
  ASSERT_EQ(excised.size(), 1u);
  EXPECT_EQ(excised[0], 1);
  const std::vector<double> detect = vec_field(json, "detect_ms");
  ASSERT_EQ(detect.size(), 1u);
  EXPECT_GE(detect[0], 250.0);  // not excised before the deadline
  EXPECT_LT(detect[0], 300.0 + 4000.0 + 1000.0);
  // The excised worker made it back in: membership returned to 3 and the
  // coordinator performed a third kSync admission. The rejoiner must end
  // bitwise identical to the replicas that never left — the kSync
  // snapshot has to be post-commit (regression: joiners synced against
  // pre-commit state ran one Adam update behind forever).
  EXPECT_EQ(num_field(json, "final_world"), 3);
  EXPECT_EQ(num_field(json, "digest_mismatch"), 0);
  EXPECT_GE(num_field(json, "joins"), 3);
  EXPECT_GE(num_field(json, "epoch"), 2);
  ASSERT_EQ(vec_field(json, "losses").size(), 120u);

  std::remove(status.c_str());
}

// Partition drill: rank 1's recvs are injected to time out, so it goes
// silent without dying. The coordinator excises it at the heartbeat
// deadline; the survivors finish the job at world 2.
TEST(DistTrain, PartitionedWorkerExcisedAtHeartbeatDeadline) {
  const std::string status = temp_path("dist_part_status.json");
  std::remove(status.c_str());

  const int rc = run_dist_train(
      "--world 3 --steps 30 --heartbeat-ms 500 --status " + status +
      " --inject-rank 1 --inject dist.recv_timeout=skip:8,count:100000");
  ASSERT_EQ(rc, 0);

  const std::string json = slurp(status);
  const std::vector<double> excised = vec_field(json, "excised");
  ASSERT_EQ(excised.size(), 1u);
  EXPECT_EQ(excised[0], 1);
  EXPECT_EQ(num_field(json, "final_world"), 2);
  EXPECT_EQ(num_field(json, "digest_mismatch"), 0);
  const std::vector<double> losses = vec_field(json, "losses");
  ASSERT_EQ(losses.size(), 30u);
  EXPECT_LT(mean_of(losses, losses.size() - 5, 5), mean_of(losses, 0, 5));

  std::remove(status.c_str());
}

// Elastic late join: rank 2 starts 1.5 s after the others while rank 0
// only waits 300 ms to assemble. Training must start at world 2 and admit
// the latecomer mid-job via kSync, ending at world 3.
TEST(DistTrain, LateJoinerAdmittedMidTraining) {
  const std::string status = temp_path("dist_late_status.json");
  std::remove(status.c_str());

  const int rc = run_dist_train(
      "--world 3 --steps 120 --join-ms 300 --delay-rank 2 --delay-ms 1500"
      " --status " +
          status,
      "dist.slow_worker=arg:10");
  ASSERT_EQ(rc, 0);

  const std::string json = slurp(status);
  EXPECT_EQ(num_field(json, "final_world"), 3);
  // The latecomer joined mid-job at a step with a pending commit; its
  // final state must still match rank 0's bitwise.
  EXPECT_EQ(num_field(json, "digest_mismatch"), 0);
  EXPECT_EQ(vec_field(json, "excised").size(), 0u);
  EXPECT_GE(num_field(json, "joins"), 2);
  ASSERT_EQ(vec_field(json, "losses").size(), 120u);

  std::remove(status.c_str());
}

// Runs `mfn <args>` with stderr folded into stdout: the exit code and the
// output.
std::pair<int, std::string> run_cli(const std::string& args) {
  const std::string cmd = cli_bin() + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int rc = ::pclose(pipe);
  return {WIFEXITED(rc) ? WEXITSTATUS(rc) : -1, out};
}

// --help prints the usage and exits 0; a flag the command does not take
// and a last flag without a value exit non-zero naming the flag. None of
// them starts the job, which would write its status file.
TEST(MfnCli, HelpAndBadFlagsExitBeforeAnyWork) {
  const std::string status = temp_path("mfn_cli_flags_status.json");
  std::remove(status.c_str());
  const std::string job = "dist-train --world 2 --status " + status;

  const auto [help_rc, help] = run_cli(job + " --help");
  EXPECT_EQ(help_rc, 0) << help;
  EXPECT_NE(help.find("usage: mfn"), std::string::npos) << help;
  EXPECT_NE(help.find("dist-train"), std::string::npos) << help;

  const auto [typo_rc, typo] = run_cli(job + " --step 20");
  EXPECT_NE(typo_rc, 0) << typo;
  EXPECT_NE(typo.find("--step "), std::string::npos) << typo;

  const auto [bare_rc, bare] = run_cli(job + " --steps");
  EXPECT_NE(bare_rc, 0) << bare;
  EXPECT_NE(bare.find("--steps"), std::string::npos) << bare;

  EXPECT_FALSE(file_exists(status)) << "a job ran";
  std::remove(status.c_str());
}

}  // namespace
}  // namespace mfn
