#include "distributed/worker.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "common/error.h"
#include "common/failpoint.h"
#include "core/checkpoint.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "distributed/elastic.h"
#include "distributed/tcp_channel.h"

namespace mfn::dist {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

std::int64_t total_param_elems(const std::vector<ad::Var*>& params) {
  std::int64_t n = 0;
  for (auto* p : params) n += p->value().numel();
  return n;
}

void flatten_grads(const std::vector<ad::Var*>& params,
                   std::vector<float>& out) {
  std::size_t off = 0;
  for (auto* p : params) {
    const Tensor& g = p->mutable_grad();
    std::copy(g.data(), g.data() + g.numel(), out.data() + off);
    off += static_cast<std::size_t>(g.numel());
  }
  MFN_CHECK(off == out.size(), "gradient flatten size mismatch");
}

void scatter_grads(const std::vector<float>& in,
                   const std::vector<ad::Var*>& params) {
  std::size_t off = 0;
  for (auto* p : params) {
    Tensor& g = p->mutable_grad();
    std::copy(in.data() + off, in.data() + off + g.numel(), g.data());
    off += static_cast<std::size_t>(g.numel());
  }
}

Message make_message(MsgType type, std::uint32_t epoch, PayloadWriter& w) {
  Message m;
  m.type = type;
  m.epoch = epoch;
  m.payload = w.take();
  return m;
}

/// Rank 0 listens on the rendezvous port, everyone else on an ephemeral
/// one it advertises in its Hellos.
TcpChannelConfig channel_config(const DistTrainConfig& cfg) {
  TcpChannelConfig c;
  c.host = cfg.host;
  c.listen_port = cfg.rank == 0 ? cfg.port : 0;
  c.io_timeout_ms = cfg.io_timeout_ms;
  return c;
}

/// One process of the distributed training job. Rank 0 runs
/// run_coordinator() (it is also a compute worker); everyone else runs
/// run_follower(). Both drive the same step loop, run_steps().
class TrainNode {
 public:
  explicit TrainNode(const DistTrainConfig& cfg)
      : cfg_(cfg),
        // The listener opens before the model build, so a worker that is
        // ready before rank 0 finds the rendezvous port open.
        channel_(cfg.rank, channel_config(cfg)),
        model_rng_(cfg.seed),
        model_(dist_tiny_model_config(), model_rng_),
        opt_(model_.parameters(), cfg.adam),
        data_rng_(cfg.seed * 0x9E3779B97F4A7C15ull +
                  static_cast<std::uint64_t>(cfg.rank) * 2654435761ull + 1) {
    model_.set_training(true);
    data::SyntheticConfig scfg;
    scfg.seed = cfg.seed + 7;
    pair_ = data::make_sr_pair(data::generate_synthetic_waves(scfg), 2, 2);
    data::PatchSamplerConfig pcfg;
    pcfg.queries_per_patch = 128;
    sampler_.emplace(pair_, pcfg);

    const std::int64_t n = total_param_elems(model_.parameters());
    local_flat_.resize(static_cast<std::size_t>(n));
    scratch_.resize(static_cast<std::size_t>(n));
  }

  DistTrainResult run() {
    if (cfg_.rank == 0)
      run_coordinator();
    else
      run_follower();
    return result_;
  }

 private:
  // ------------------------------------------------------------- common --
  /// Forward/backward one local batch; leaves the flat gradients in
  /// local_flat_ and returns the loss. Hosts the mid-training failpoints.
  double compute_local_step() {
    data::BatchedSample batch =
        sampler_->sample_batch(cfg_.batch_size, data_rng_);
    opt_.zero_grad();
    core::StepLoss step = core::batched_step_loss(model_, batch,
                                                  eq_config_, cfg_.gamma);
    ad::backward(step.loss);
    flatten_grads(model_.parameters(), local_flat_);
    if (failpoint::poll("dist.worker_crash"))
      std::_Exit(42);  // hard mid-training death, no cleanup
    if (auto f = failpoint::poll("dist.slow_worker"))
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<int>(f->arg)));
    return step.loss.value().item();
  }

  /// Form the links of ring_ (a new epoch). False when a neighbour cannot
  /// be reached within the heartbeat.
  bool form_ring() {
    ring_start_ = Clock::now();
    try {
      establish_ring(channel_, ring_, cfg_.heartbeat_timeout_ms);
      return true;
    } catch (const ChannelError&) {
      channel_.drop_ring();
      return false;
    }
  }

  /// The loop every member runs between meetings: compute -> ring
  /// allreduce -> commit, until a step carries the meet flag (true) or the
  /// ring fails (false). The allreduce runs on a scratch copy, so after a
  /// failure local_flat_ still holds the step's gradients for the retry.
  bool run_steps() {
    for (;;) {
      if (!have_grads_) {
        local_loss_ = compute_local_step();
        have_grads_ = true;
      }
      StepStamp stamp;
      stamp.step = static_cast<std::uint64_t>(step_);
      stamp.loss = local_loss_;
      stamp.meet = cfg_.rank == 0 && want_meeting();
      stamp.first_wait_ms = cfg_.heartbeat_timeout_ms;
      scratch_ = local_flat_;
      ring_start_ = Clock::now();
      StepOutcome out;
      try {
        out = ring_allreduce_average(
            channel_, ring_, scratch_.data(),
            static_cast<std::int64_t>(scratch_.size()), cfg_.io_timeout_ms,
            stamp);
      } catch (const ChannelError&) {
        // Close both links now: each neighbour's next recv fails at EOF,
        // so the failure travels the ring one hop at a time.
        channel_.drop_ring();
        return false;
      }
      commit(out.losses);
      if (out.meet) return true;
    }
  }

  /// Apply the step's averaged gradients in scratch_: the same Adam update
  /// on every replica.
  void commit(const std::vector<double>& losses) {
    scatter_grads(scratch_, model_.parameters());
    opt_.step();
    have_grads_ = false;
    ++step_;
    if (cfg_.rank != 0) {
      result_.step_loss.push_back(local_loss_);
      return;
    }
    // Members are sorted by rank, so ring order is rank order.
    double sum = losses[0];
    for (std::size_t i = 1; i < losses.size(); ++i) sum += losses[i];
    result_.step_loss.push_back(sum / static_cast<double>(losses.size()));
    if (cfg_.checkpoint_every > 0 && step_ < cfg_.steps &&
        step_ % cfg_.checkpoint_every == 0)
      publish_checkpoint(step_);
  }

  /// FNV-1a over the parameter values + serialized optimizer state — the
  /// replicated state. After every commit these must be bitwise identical
  /// on all replicas (the ring allreduce is deterministic and kSync ships
  /// exact bytes), so at job end every rank's digest must equal rank 0's
  /// — the invariant the late-join, rejoin and reconcile paths are most
  /// likely to break. Module buffers (batch-norm running stats) are
  /// deliberately excluded: they track each rank's *local* batches and are
  /// not part of the synchronous-update contract.
  std::uint64_t state_digest() {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const char* p, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(p[i]);
        h *= 1099511628211ull;
      }
    };
    for (ad::Var* p : model_.parameters())
      mix(reinterpret_cast<const char*>(p->value().data()),
          static_cast<std::size_t>(p->value().numel()) * sizeof(float));
    std::ostringstream opt_bytes;
    opt_.save_state(opt_bytes);
    const std::string s = opt_bytes.str();
    mix(s.data(), s.size());
    return h;
  }

  // -------------------------------------------------------- coordinator --
  /// Rank 0 raises the meet flag on the last step and whenever a joiner (a
  /// late start or an excised worker re-dialing) is waiting.
  bool want_meeting() {
    for (int rank : channel_.poll_accept(0))
      if (rank > 0) joiners_.push_back(rank);
    return step_ + 1 >= cfg_.steps || !joiners_.empty();
  }

  void excise(int rank) {
    channel_.drop(rank, Purpose::kControl);
    live_.erase(rank);
    result_.excised_ranks.push_back(rank);
    result_.detect_ms.push_back(ms_since(ring_start_));
  }

  /// Send the full model + optimizer state and the committed step count,
  /// which `rank` adopts. Returns false if the send fails.
  bool send_sync(int rank) {
    std::ostringstream model_bytes, opt_bytes;
    model_.save(model_bytes);
    opt_.save_state(opt_bytes);
    PayloadWriter w;
    w.u64(static_cast<std::uint64_t>(step_));
    const std::string mb = model_bytes.str(), ob = opt_bytes.str();
    w.u64(mb.size());
    w.bytes(mb.data(), mb.size());
    w.u64(ob.size());
    w.bytes(ob.data(), ob.size());
    try {
      channel_.send(rank, Purpose::kControl,
                    make_message(MsgType::kSync, epoch_, w));
      return true;
    } catch (const ChannelError&) {
      return false;
    }
  }

  /// Admit every waiting joiner by kSync; wait_ms bounds the wait for the
  /// first Hello.
  void admit_joiners(int wait_ms) {
    for (int rank : channel_.poll_accept(wait_ms))
      if (rank > 0) joiners_.push_back(rank);
    for (int rank : joiners_)
      if (send_sync(rank)) {
        live_.insert(rank);
        result_.joins++;
      }
    joiners_.clear();
  }

  /// Send `m` to every live worker; a failed send excises the peer.
  void broadcast(const Message& m) {
    for (int rank : std::vector<int>(live_.begin(), live_.end()))
      if (rank != 0) {
        try {
          channel_.send(rank, Purpose::kControl, m);
        } catch (const ChannelError&) {
          excise(rank);
        }
      }
  }

  /// Collect one `want` message of the current epoch from every live
  /// worker within the heartbeat deadline; non-reporters and broken peers
  /// are excised.
  void collect(MsgType want,
               const std::function<void(int, PayloadReader&)>& on_msg) {
    const auto t0 = Clock::now();
    std::set<int> waiting(live_);
    waiting.erase(0);
    while (!waiting.empty()) {
      const int left =
          cfg_.heartbeat_timeout_ms - static_cast<int>(ms_since(t0));
      if (left <= 0) break;
      int failed = -1;
      std::optional<std::pair<int, Message>> got;
      try {
        got = channel_.recv_any(
            std::vector<int>(waiting.begin(), waiting.end()), left,
            &failed);
      } catch (const ChannelError&) {
        if (failed >= 0) {
          excise(failed);
          waiting.erase(failed);
        }
        continue;
      }
      if (!got) break;  // deadline
      const Message& m = got->second;
      // Anything else (a leftover of an older epoch) is dropped; the
      // sender stays in the waiting set.
      if (m.type != want || m.epoch != epoch_) continue;
      PayloadReader r(m.payload);
      on_msg(got->first, r);
      waiting.erase(got->first);
    }
    // Whoever never reported is dead or too slow: excise.
    for (int rank : waiting) excise(rank);
  }

  Ring make_ring() const {
    Ring ring;
    ring.epoch = epoch_;
    for (int r : live_) {
      const int port = r == 0 ? channel_.listen_port()
                              : channel_.peer_listen_port(r);
      ring.members.push_back({r, static_cast<std::int32_t>(port)});
    }
    return ring;
  }

  Message go_message(bool stop) const {
    PayloadWriter w;
    w.u64(static_cast<std::uint64_t>(step_));
    w.u8(stop ? 1 : 0);
    if (!stop) write_ring(w, ring_);
    return make_message(MsgType::kGo, epoch_, w);
  }

  void publish_checkpoint(int step) {
    if (cfg_.checkpoint_path.empty()) return;
    core::CheckpointData data;
    data.epoch = step;
    core::save_checkpoint(cfg_.checkpoint_path, model_, opt_, data);
    result_.checkpoints_published++;
  }

  void write_status(int steps_done) {
    if (cfg_.status_path.empty()) return;
    std::ofstream os(cfg_.status_path + ".tmp");
    auto list = [&os](const auto& v) {
      os << "[";
      for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << v[i];
      os << "]";
    };
    os << "{\"steps\":" << steps_done
       << ",\"final_world\":" << result_.final_world
       << ",\"epoch\":" << result_.final_epoch << ",\"joins\":"
       << result_.joins << ",\"retries\":" << result_.retries
       << ",\"meetings\":" << result_.meetings
       << ",\"checkpoints\":" << result_.checkpoints_published
       << ",\"digest_mismatch\":" << result_.digest_mismatches
       << ",\"excised\":";
    list(result_.excised_ranks);
    os << ",\"detect_ms\":";
    list(result_.detect_ms);
    os << ",\"losses\":";
    list(result_.step_loss);
    os << "}\n";
    os.close();
    std::rename((cfg_.status_path + ".tmp").c_str(),
                cfg_.status_path.c_str());
  }

  /// One meeting on the control connections. After a run of steps
  /// (reports_due) every worker reports its committed step count; rank 0
  /// excises the silent, moves every survivor whose count differs from
  /// its own onto its state, admits joiners and sends the next kGo with a
  /// new epoch — or, once every step is committed, stops the job. Returns
  /// false when the job is over.
  bool meet(bool reports_due, bool ring_failed) {
    result_.meetings++;
    const std::size_t excised_before = result_.excised_ranks.size();
    bool failed = ring_failed;
    if (reports_due) {
      std::map<int, int> done;  // rank -> committed steps
      collect(MsgType::kReady, [&](int rank, PayloadReader& r) {
        done[rank] = static_cast<int>(r.u64());
      });
      // Survivors of a failed step can disagree by one commit: a member
      // whose last allgather recv succeeded committed a step that its
      // successor never completed. Whoever differs from rank 0 takes its
      // state (forward or back) and recomputes its gradients.
      for (const auto& [rank, steps] : done) {
        if (steps == step_ || live_.count(rank) == 0) continue;
        failed = true;
        if (!send_sync(rank)) excise(rank);
      }
    }
    if (failed || result_.excised_ranks.size() != excised_before)
      result_.retries++;
    if (step_ >= cfg_.steps) {
      finish();
      return false;
    }
    admit_joiners(0);
    MFN_CHECK(static_cast<int>(live_.size()) >= cfg_.min_world,
              "live world shrank below min_world at step " << step_);
    if (reports_due) epoch_++;  // every meeting after the first re-forms
    ring_ = make_ring();
    // A worker whose kGo cannot be sent is excised here; the ring that
    // names it then fails to form, which is a failure like any other.
    broadcast(go_message(false));
    return true;
  }

  /// The stop meeting: every worker answers the stop with its digest.
  void finish() {
    broadcast(go_message(true));
    publish_checkpoint(cfg_.steps);
    // Replica-consistency audit: any divergence from rank 0's digest is a
    // protocol bug and surfaces in the status JSON for the tests.
    const std::uint64_t digest = state_digest();
    collect(MsgType::kDigest, [&](int, PayloadReader& r) {
      if (r.u64() != digest) result_.digest_mismatches++;
    });
    result_.final_world = static_cast<int>(live_.size());
    result_.final_epoch = epoch_;
    write_status(cfg_.steps);
  }

  void run_coordinator() {
    // Initial assembly: block on the listener for the rest of the join
    // window until the expected world is in, then start with whoever made
    // it.
    const auto t0 = Clock::now();
    while (static_cast<int>(live_.size()) < cfg_.world) {
      const int left = cfg_.join_timeout_ms - static_cast<int>(ms_since(t0));
      if (left <= 0) break;
      admit_joiners(left);
    }
    MFN_CHECK(static_cast<int>(live_.size()) >= cfg_.min_world,
              "only " << live_.size() << " of " << cfg_.min_world
                      << " required ranks joined");
    bool reports_due = false, failed = false;
    while (meet(reports_due, failed)) {
      failed = !(form_ring() && run_steps());
      reports_due = true;
    }
  }

  // ------------------------------------------------------------- worker --
  void load_sync(const Message& m) {
    PayloadReader r(m.payload);
    step_ = static_cast<int>(r.u64());
    std::string model_bytes(r.u64(), '\0');
    r.bytes(model_bytes.data(), model_bytes.size());
    std::string opt_bytes(r.u64(), '\0');
    r.bytes(opt_bytes.data(), opt_bytes.size());
    std::istringstream ms(model_bytes), os(opt_bytes);
    model_.load(ms);
    opt_.load_state(os);
    have_grads_ = false;
  }

  /// Re-dial rank 0 after an excision (or a lost coordinator). Returns
  /// false when rank 0 is gone — the normal end-of-job signal for a
  /// worker that was excised near the finish.
  bool rejoin() {
    channel_.drop(0, Purpose::kControl);
    channel_.drop_ring();
    if (!cfg_.rejoin) return false;
    try {
      channel_.dial(0, cfg_.port, Purpose::kControl, ring_.epoch);
      result_.rejoins++;
      return true;
    } catch (const ChannelError&) {
      return false;
    }
  }

  void run_follower() {
    channel_.dial(0, cfg_.port, Purpose::kControl, 0);
    int idle_strikes = 0;
    for (;;) {
      std::optional<Message> m;
      try {
        m = channel_.recv(0, Purpose::kControl, cfg_.join_timeout_ms);
      } catch (const ChannelError&) {
        if (!rejoin()) return;
        continue;
      }
      if (!m) {
        // Coordinator silent for a whole join window: assume it is gone
        // after a couple of strikes (it may legitimately be mid-meeting).
        if (++idle_strikes >= 3) return;
        continue;
      }
      idle_strikes = 0;
      if (m->type == MsgType::kSync) {
        load_sync(*m);
        continue;
      }
      if (m->type != MsgType::kGo) continue;
      PayloadReader r(m->payload);
      const auto step = static_cast<int>(r.u64());
      if (r.u8() != 0) {  // stop: answer with the state digest
        PayloadWriter w;
        w.u64(state_digest());
        try {
          channel_.send(0, Purpose::kControl,
                        make_message(MsgType::kDigest, m->epoch, w));
        } catch (const ChannelError&) {
          // Job is over either way; the coordinator counts us absent.
        }
        return;
      }
      ring_ = read_ring(r);
      result_.final_world = ring_.world();
      result_.final_epoch = ring_.epoch;
      // Rank 0 syncs every worker whose count differs before its kGo.
      MFN_CHECK(step == step_, "rank " << cfg_.rank << " has committed "
                                       << step_ << " steps, told to run step "
                                       << step);
      if (form_ring()) run_steps();
      // A meeting (the meet flag or a failed ring): report.
      PayloadWriter w;
      w.u64(static_cast<std::uint64_t>(step_));
      try {
        channel_.send(0, Purpose::kControl,
                      make_message(MsgType::kReady, ring_.epoch, w));
      } catch (const ChannelError&) {
        if (!rejoin()) return;
      }
    }
  }

  DistTrainConfig cfg_;
  TcpChannel channel_;
  Rng model_rng_;
  core::MeshfreeFlowNet model_;
  optim::Adam opt_;
  Rng data_rng_;
  data::SRPair pair_;
  std::optional<data::PatchSampler> sampler_;
  core::EquationLossConfig eq_config_;

  Ring ring_;                      ///< the current epoch's members
  std::uint32_t epoch_ = 1;        ///< rank 0: membership epoch
  std::set<int> live_{0};          ///< rank 0: ring members
  std::vector<int> joiners_;       ///< rank 0: Hellos awaiting admission
  int step_ = 0;                   ///< committed steps
  std::vector<float> local_flat_;  ///< local gradients of step step_
  double local_loss_ = 0.0;        ///< ... and their loss
  bool have_grads_ = false;        ///< local_flat_ is current
  std::vector<float> scratch_;     ///< allreduce workspace
  /// Rank 0: when it last started waiting on the ring (detect_ms origin).
  Clock::time_point ring_start_ = Clock::now();

  DistTrainResult result_;
};

}  // namespace

core::MFNConfig dist_tiny_model_config() {
  core::MFNConfig cfg = core::MFNConfig::small_default();
  cfg.unet.base_filters = 4;
  cfg.unet.out_channels = 8;
  cfg.unet.max_filters = 16;
  cfg.unet.pools = {{1, 2, 2}};
  cfg.decoder.latent_channels = 8;
  cfg.decoder.hidden = {16};
  return cfg;
}

DistTrainResult run_train_worker(const DistTrainConfig& config) {
  MFN_CHECK(config.rank >= 0, "rank must be >= 0");
  MFN_CHECK(config.port > 0, "a rendezvous port is required");
  MFN_CHECK(config.steps >= 1, "steps must be >= 1");
  TrainNode node(config);
  DistTrainResult result = node.run();
  if (config.rank == 0)
    MFN_CHECK(result.final_world >= config.min_world,
              "job finished below min_world");
  return result;
}

}  // namespace mfn::dist
