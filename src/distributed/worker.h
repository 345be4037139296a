// Fault-tolerant multi-process data-parallel training over TCP.
//
// run_train_worker() is the per-process entry point (`mfn train-worker`
// wraps it): rank 0 is the coordinator *and* a compute worker, everyone
// else dials rank 0's control port.
//
// Steps. Every member of the ring loops compute -> ring allreduce ->
// commit over ring links dialed once per membership epoch. The allreduce
// is the step's only synchronisation: each ring frame carries the step,
// the epoch, the losses its sender knows and rank 0's "meet on control
// after this step" flag (elastic.h), and the wait for a neighbour's first
// frame of a step is bounded by heartbeat_timeout_ms, so the ring is the
// heartbeat. A member that completes the allreduce commits the average
// and starts the next step. Rank 0 records each step's loss as the f64
// mean of the members' losses, summed in rank order.
//
// Meetings. The control connections carry traffic only when rank 0 raises
// the meet flag (the last step, or a joiner is waiting) or a ring fails:
//
//   kReady  all -> rank0     the worker's committed step count. A worker
//                            that does not report within
//                            heartbeat_timeout_ms (crashed, hung,
//                            partitioned) is excised.
//   kSync   rank0 -> one     full model + Adam state + step count: admits
//                            a joiner (a late start or an excised worker
//                            re-dialing) and reconciles a survivor whose
//                            step count differs from rank 0's.
//   kGo     rank0 -> all     the step to run and the ring spec (a new
//                            epoch after every meeting but the first), or
//                            stop. Every member forms the ring and resumes.
//   kDigest all -> rank0     on stop: the final state digest.
//
// Failures. A member whose ring exchange fails (EOF, a deadline, a frame
// of the wrong step) closes its ring links at once, so each neighbour's
// next recv fails at EOF and every member learns of the failure within one
// hop per member, then reports. Rank 0 excises the non-reporters, bumps
// the epoch, re-forms the ring and retries the step from the preserved
// local gradients (averaging renormalises by the live world). A member
// that finishes the allgather cannot know that its successor did, so
// survivors may disagree by one committed step; every survivor whose count
// differs from rank 0's takes rank 0's state by kSync (forward if it
// missed the step, back if rank 0 did) and recomputes its gradients, so
// the replicas never diverge and rank 0's committed losses and published
// checkpoints are never rolled back. Rank 0's death is fatal to the job
// by design.
//
// On stop every worker answers with a kDigest of its final parameter
// values + optimizer state (batch-norm running stats are per-rank local
// and excluded); rank 0 compares them against its own and reports
// mismatches in the status JSON — the replica-consistency invariant is
// checked, not assumed.
//
// The loop never touches wall-clock state beyond timeouts; all failure
// modes are injectable through failpoints (common/failpoint.h):
//   dist.worker_crash   _Exit(42) after the local backward, before the
//                       step's ring allreduce
//   dist.slow_worker    sleep `arg` ms at the same point (a successor
//                       waiting longer than the heartbeat fails the ring:
//                       excision + rejoin path)
//   dist.ring_crash     _Exit(42) before an allgather send (elastic.h)
//   dist.conn_refused / dist.recv_timeout  (tcp_channel.h)
//
// Rank 0 periodically publishes an atomic checkpoint (core/checkpoint:
// tmp + rename) that a co-running serve::InferenceEngine can hot-swap
// mid-traffic, plus an end-of-run status JSON the multi-process tests
// parse.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/meshfree_flownet.h"
#include "optim/adam.h"

namespace mfn::dist {

struct DistTrainConfig {
  int rank = 0;
  /// Expected initial world. Rank 0 waits up to join_timeout_ms for
  /// world-1 workers, then starts with whoever showed up (>= min_world).
  int world = 1;
  std::string host = "127.0.0.1";
  /// Rank 0's control/rendezvous port (every other rank listens on an
  /// ephemeral port advertised through its Hello).
  int port = 0;

  /// Committed optimization steps to run.
  int steps = 16;
  /// Patches per worker per step (global batch = live_world * batch_size).
  int batch_size = 2;
  double gamma = 0.0;
  optim::AdamConfig adam{.lr = 2e-3};
  std::uint64_t seed = 0;

  /// Liveness deadline: a member's wait for its ring predecessor's first
  /// frame of a step (and for ring formation), and rank 0's wait for the
  /// reports of a meeting. A rank that misses it is declared dead/slow and
  /// excised.
  int heartbeat_timeout_ms = 3000;
  /// Point-to-point send/recv deadline (also the bound on every ring
  /// frame after a step's first — a dead neighbor surfaces as a
  /// ChannelError within this).
  int io_timeout_ms = 4000;
  /// Rank 0's wait for the initial world to assemble.
  int join_timeout_ms = 8000;

  /// Rank 0 publishes an atomic checkpoint here every checkpoint_every
  /// committed steps and once at the end (empty = off).
  std::string checkpoint_path;
  int checkpoint_every = 5;
  /// Rank 0 writes an end-of-run status JSON here (empty = off).
  std::string status_path;
  /// Excised workers re-dial rank 0 and rejoin via kSync.
  bool rejoin = true;
  /// Abort (throw) if the live world falls below this.
  int min_world = 1;
};

struct DistTrainResult {
  /// Rank 0: mean live-rank loss per committed step. Workers: local loss
  /// of each step they committed.
  std::vector<double> step_loss;
  int final_world = 1;
  std::uint32_t final_epoch = 0;
  /// Ranks excised by the coordinator (rank 0 only).
  std::vector<int> excised_ranks;
  /// Measured detection latency (ms) for each excision: from rank 0
  /// starting its last wait on the ring (a step's allreduce or the ring
  /// formation) to the excision decision. Bounded by the ring's failure
  /// detection (EOF, or heartbeat_timeout_ms for a first frame and one io
  /// timeout per later frame) plus the meeting's heartbeat_timeout_ms.
  std::vector<double> detect_ms;
  int joins = 0;       ///< kSync admissions performed (rank 0)
  int rejoins = 0;     ///< times this worker re-dialed after excision
  int retries = 0;     ///< meetings that recovered from a ring failure
  /// Rank 0: meetings on the control connections, the job's start and
  /// stop included. A fault-free job without joiners holds 2, however
  /// many steps it runs.
  int meetings = 0;
  int checkpoints_published = 0;
  /// Rank 0: workers whose end-of-job state digest (parameters + Adam
  /// state) differed from rank 0's. Must be 0 — any nonzero value means
  /// the synchronous-replica invariant broke somewhere (e.g. a joiner
  /// synced against pre-commit state).
  int digest_mismatches = 0;
};

/// Run one training process. Blocks until the job finishes (or, for a
/// worker, until rank 0 goes away). Throws mfn::Error on unrecoverable
/// failures (e.g. rank 0 unreachable at start, live world < min_world).
DistTrainResult run_train_worker(const DistTrainConfig& config);

/// The small architecture every rank instantiates (identical seed ->
/// identical weights; joiners are overwritten by kSync anyway). Patch
/// shape (4, 8, 8) — compatible with serve::InferenceEngine's default
/// reload canary, so published checkpoints hot-swap cleanly.
core::MFNConfig dist_tiny_model_config();

}  // namespace mfn::dist
