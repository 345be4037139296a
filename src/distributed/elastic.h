// Elastic ring formation + allreduce over the TCP channel.
//
// A Ring is the membership view at one epoch: the sorted live ranks and
// their advertised listen ports. The coordinator (rank 0) owns the view
// and hands it to the workers in a kGo message. Every member calls
// establish_ring() once per epoch and then ring_allreduce_average() once
// per step over the kept links (worker.h: the allreduce is the step
// barrier).
//
// Determinism contract (pinned by test_tcp_channel's shrink test): the
// averaged result depends only on (sorted live ranks, count, the data on
// each live rank). Chunk partition is [i*count/W, (i+1)*count/W) by ring
// position (= index in the sorted rank list), summation happens in ring
// order, and the 1/W scale is applied once after the sum — so a world
// that shrank from {0,1,2} to {0,2} produces bitwise the same floats as a
// fresh 2-rank run with the same per-rank data, and K allreduces over
// links kept for an epoch equal K allreduces over freshly dialed rings.
//
// Step stamp: every frame carries the step it belongs to, rank 0's "meet
// on control after this step" flag and the losses of that step the sender
// knows. A frame whose step is not the receiver's is a desynchronized
// link: it throws ChannelError before anything is summed.
//
// Failure contract: any peer death or deadline inside establish_ring /
// ring_allreduce_average throws ChannelError and leaves `data`
// unspecified. Callers run the allreduce on a scratch copy, so a retry at
// a smaller world starts from the preserved local gradients, and close
// their ring links at once (TcpChannel::drop_ring), so each neighbour's
// next recv fails at EOF and the failure travels the ring one hop at a
// time. Finishing the allgather does not mean every member did: a rank
// whose last recv succeeded may commit a step its successor never
// completes. worker.cpp reconciles such survivors at the next meeting.
#pragma once

#include <cstdint>
#include <vector>

#include "distributed/tcp_channel.h"

namespace mfn::dist {

struct Member {
  std::int32_t rank = -1;
  std::int32_t port = 0;  ///< the member's advertised listen port
};

struct Ring {
  std::uint32_t epoch = 0;
  std::vector<Member> members;  ///< sorted by rank, coordinator first

  int world() const { return static_cast<int>(members.size()); }
};

/// Index of `rank` in the sorted member list; -1 if not a member.
int ring_position(const Ring& ring, int rank);

/// Serialize / parse a Ring as a kGo payload body.
void write_ring(PayloadWriter& w, const Ring& ring);
Ring read_ring(PayloadReader& r);

/// Form the neighbor links for `ring`: dial my successor's listener,
/// accept from my predecessor, both tagged with ring.epoch. Existing ring
/// links (from an older epoch) are dropped first. No-op for world == 1.
/// Throws ChannelError if a neighbor cannot be reached within timeout_ms.
void establish_ring(TcpChannel& channel, const Ring& ring, int timeout_ms);

/// What this rank puts on its ring frames for one allreduce.
struct StepStamp {
  std::uint64_t step = 0;
  double loss = 0.0;  ///< this rank's local loss of the step
  bool meet = false;  ///< raise "meet on control after this step"
  /// Deadline for the step's first frame, the wait that covers a
  /// neighbour's compute (the ring heartbeat); < 0 means timeout_ms.
  int first_wait_ms = -1;
};

/// What the ring said about the step.
struct StepOutcome {
  bool meet = false;            ///< some member raised the meet flag
  std::vector<double> losses;   ///< every member's loss, by ring position
};

/// In-place ring allreduce-average of data[0..count) across the ring:
/// reduce-scatter then allgather (2*(W-1) rounds), each round a
/// full-duplex neighbor exchange of one chunk; finally every element is
/// scaled by 1/W. World 1 degenerates to the pure scale (a no-op sum).
/// Each reduce-scatter frame also forwards the losses its sender knows, so
/// after W-1 rounds every member holds all of them. Throws ChannelError on
/// any neighbor failure or step mismatch; `data` is then garbage.
///
/// Fail point: dist.ring_crash _Exit(42)s before an allgather send (one
/// hit per send, so `skip:` picks the step and round).
StepOutcome ring_allreduce_average(TcpChannel& channel, const Ring& ring,
                                   float* data, std::int64_t count,
                                   int timeout_ms,
                                   const StepStamp& stamp = {});

}  // namespace mfn::dist
