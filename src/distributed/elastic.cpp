#include "distributed/elastic.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/error.h"
#include "common/failpoint.h"

namespace mfn::dist {

namespace {

/// Chunk i of a count-element buffer split W ways: [begin, end).
std::pair<std::int64_t, std::int64_t> chunk_bounds(std::int64_t count,
                                                   int world, int i) {
  return {count * i / world, count * (i + 1) / world};
}

/// Everything a ring frame carries besides its chunk.
struct FrameStamp {
  std::uint32_t epoch;
  std::uint64_t step;
  bool meet;
};

/// One ring frame: the stamp, the phase/round/chunk it belongs to, the
/// sender's known losses (its own first, then its predecessors' in ring
/// order backwards), then the chunk's floats. Every field before the
/// floats is 4-byte sized, so the floats stay 4-byte aligned in the
/// received payload.
Message make_chunk_msg(const FrameStamp& stamp, std::uint32_t phase,
                       std::uint32_t round, std::uint32_t chunk,
                       const double* losses, std::uint32_t n_losses,
                       const float* data, std::int64_t begin,
                       std::int64_t end) {
  Message m;
  m.type = MsgType::kRingChunk;
  m.epoch = stamp.epoch;
  PayloadWriter w;
  w.u64(stamp.step);
  w.u32(stamp.meet ? 1 : 0);
  w.u32(phase);
  w.u32(round);
  w.u32(chunk);
  w.u32(n_losses);
  if (n_losses > 0) w.bytes(losses, n_losses * sizeof(double));
  w.u64(static_cast<std::uint64_t>(end - begin));
  w.bytes(data + begin, static_cast<std::size_t>(end - begin) *
                            sizeof(float));
  m.payload = w.take();
  return m;
}

/// Parse + sanity-check a received frame. ORs its meet flag into
/// `stamp.meet`, copies its n_losses losses to `losses`, and returns a
/// pointer to the float payload inside the message (valid while `m`
/// lives). Any mismatch throws before the caller sums a byte of it.
const float* check_chunk_msg(const Message& m, FrameStamp& stamp,
                             std::uint32_t phase, std::uint32_t round,
                             std::uint32_t chunk, double* losses,
                             std::uint32_t n_losses, std::int64_t expect_n) {
  if (m.type != MsgType::kRingChunk)
    throw ChannelError("unexpected frame type in ring allreduce");
  if (m.epoch != stamp.epoch)
    throw ChannelError("stale-epoch frame in ring allreduce");
  PayloadReader r(m.payload);
  const std::uint64_t got_step = r.u64();
  if (got_step != stamp.step)
    throw ChannelError("ring frame of step " + std::to_string(got_step) +
                       " received at step " + std::to_string(stamp.step));
  stamp.meet = r.u32() != 0 || stamp.meet;
  const std::uint32_t got_phase = r.u32();
  const std::uint32_t got_round = r.u32();
  const std::uint32_t got_chunk = r.u32();
  if (got_phase != phase || got_round != round || got_chunk != chunk ||
      r.u32() != n_losses)
    throw ChannelError("ring allreduce chunk mismatch (desynchronized)");
  if (n_losses > 0) r.bytes(losses, n_losses * sizeof(double));
  const std::uint64_t n = r.u64();
  if (n != static_cast<std::uint64_t>(expect_n) ||
      r.remaining() != n * sizeof(float))
    throw ChannelError("ring allreduce chunk mismatch (desynchronized)");
  return reinterpret_cast<const float*>(m.payload.data() +
                                        (m.payload.size() -
                                         n * sizeof(float)));
}

}  // namespace

int ring_position(const Ring& ring, int rank) {
  for (std::size_t i = 0; i < ring.members.size(); ++i)
    if (ring.members[i].rank == rank) return static_cast<int>(i);
  return -1;
}

void write_ring(PayloadWriter& w, const Ring& ring) {
  w.u32(ring.epoch);
  w.u32(static_cast<std::uint32_t>(ring.members.size()));
  for (const Member& m : ring.members) {
    w.i32(m.rank);
    w.i32(m.port);
  }
}

Ring read_ring(PayloadReader& r) {
  Ring ring;
  ring.epoch = r.u32();
  const std::uint32_t n = r.u32();
  ring.members.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ring.members[i].rank = r.i32();
    ring.members[i].port = r.i32();
  }
  return ring;
}

void establish_ring(TcpChannel& channel, const Ring& ring, int timeout_ms) {
  channel.drop_ring();
  const int world = ring.world();
  if (world <= 1) return;
  const int pos = ring_position(ring, channel.rank());
  MFN_CHECK(pos >= 0, "rank " << channel.rank() << " not in ring");
  const Member& next = ring.members[(pos + 1) % world];
  const Member& prev = ring.members[(pos + world - 1) % world];
  // Everyone dials their successor and accepts from their predecessor —
  // one outgoing and one incoming link each, no lock-step ordering needed
  // because dial retries with backoff while the peer is still setting up.
  channel.dial(next.rank, next.port, Purpose::kRingOut, ring.epoch,
               timeout_ms);
  channel.accept_from(prev.rank, Purpose::kRingIn, ring.epoch, timeout_ms);
}

StepOutcome ring_allreduce_average(TcpChannel& channel, const Ring& ring,
                                   float* data, std::int64_t count,
                                   int timeout_ms, const StepStamp& stamp) {
  const int world = ring.world();
  const float scale = 1.0f / static_cast<float>(world);
  if (world <= 1) {
    for (std::int64_t i = 0; i < count; ++i) data[i] *= scale;
    return {stamp.meet, {stamp.loss}};
  }
  const int pos = ring_position(ring, channel.rank());
  MFN_CHECK(pos >= 0, "rank " << channel.rank() << " not in ring");
  const int next = ring.members[(pos + 1) % world].rank;
  const int prev = ring.members[(pos + world - 1) % world].rank;
  FrameStamp fs{ring.epoch, stamp.step, stamp.meet};
  // Losses by ring position. Round r forwards the r + 1 this rank knows
  // (its own, then its predecessors' backwards), so after the W - 1
  // reduce-scatter rounds every member holds all W, and rank 0's meet
  // flag, which rides on every frame, has reached every member too.
  std::vector<double> losses(static_cast<std::size_t>(world));
  losses[static_cast<std::size_t>(pos)] = stamp.loss;
  std::vector<double> known, got;

  // Reduce-scatter: round r sends chunk (pos - r) and accumulates chunk
  // (pos - r - 1). After W-1 rounds this rank owns the full sum of chunk
  // (pos + 1) mod W. The accumulation order for any chunk c is
  // x_c + x_{c+1} + ... in ring-position order, which depends only on the
  // sorted member list — the determinism contract in the header.
  for (int r = 0; r < world - 1; ++r) {
    const int send_c = (pos - r + world) % world;
    const int recv_c = (pos - r - 1 + world) % world;
    const auto [sb, se] = chunk_bounds(count, world, send_c);
    const auto [rb, re] = chunk_bounds(count, world, recv_c);
    const auto n_losses = static_cast<std::uint32_t>(r + 1);
    known.resize(n_losses);
    got.resize(n_losses);
    for (int j = 0; j <= r; ++j)
      known[static_cast<std::size_t>(j)] =
          losses[static_cast<std::size_t>((pos - j + world) % world)];
    // The first frame of a step waits out the predecessor's compute.
    const int wait = r == 0 && stamp.first_wait_ms >= 0 ? stamp.first_wait_ms
                                                        : timeout_ms;
    const Message reply = channel.ring_exchange(
        next,
        make_chunk_msg(fs, 0, static_cast<std::uint32_t>(r),
                       static_cast<std::uint32_t>(send_c), known.data(),
                       n_losses, data, sb, se),
        prev, wait);
    const float* in = check_chunk_msg(reply, fs, 0,
                                      static_cast<std::uint32_t>(r),
                                      static_cast<std::uint32_t>(recv_c),
                                      got.data(), n_losses, re - rb);
    for (int j = 0; j <= r; ++j)
      losses[static_cast<std::size_t>((pos - 1 - j + 2 * world) % world)] =
          got[static_cast<std::size_t>(j)];
    for (std::int64_t i = 0; i < re - rb; ++i) data[rb + i] += in[i];
  }

  // Allgather: circulate the fully-reduced chunks. Round r sends chunk
  // (pos + 1 - r) and overwrites chunk (pos - r).
  for (int r = 0; r < world - 1; ++r) {
    const int send_c = (pos + 1 - r + 2 * world) % world;
    const int recv_c = (pos - r + 2 * world) % world;
    const auto [sb, se] = chunk_bounds(count, world, send_c);
    const auto [rb, re] = chunk_bounds(count, world, recv_c);
    if (failpoint::poll("dist.ring_crash"))
      std::_Exit(42);  // dies mid-allgather: some survivors finish the step
    const Message reply = channel.ring_exchange(
        next,
        make_chunk_msg(fs, 1, static_cast<std::uint32_t>(r),
                       static_cast<std::uint32_t>(send_c), nullptr, 0, data,
                       sb, se),
        prev, timeout_ms);
    const float* in = check_chunk_msg(reply, fs, 1,
                                      static_cast<std::uint32_t>(r),
                                      static_cast<std::uint32_t>(recv_c),
                                      nullptr, 0, re - rb);
    std::memcpy(data + rb, in,
                static_cast<std::size_t>(re - rb) * sizeof(float));
  }

  for (std::int64_t i = 0; i < count; ++i) data[i] *= scale;
  return {fs.meet, std::move(losses)};
}

}  // namespace mfn::dist
