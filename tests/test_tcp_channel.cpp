// TCP channel + elastic ring suite: length-prefixed framing, payload
// bounds checking, idle-vs-broken recv semantics, dial backoff through
// the dist.conn_refused / dist.recv_timeout fail points, ring formation
// over real loopback sockets, allreduce correctness across world sizes,
// the shrink-determinism contract (a ring that lost a member produces
// bitwise the same average as a fresh ring of the surviving size), and
// the kept-link contract of the step barrier (links dialed once per epoch
// give the same bits as fresh rings, carry every member's loss and the
// meet flag, and reject a frame of another step before summing it).
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "distributed/elastic.h"
#include "distributed/tcp_channel.h"

namespace mfn::dist {
namespace {

/// Tests arm global fail points; never leak one into the next test.
class TcpChannelTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::reset(); }
};

// ------------------------------------------------------------- payloads --

TEST_F(TcpChannelTest, PayloadRoundtrip) {
  PayloadWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.i32(-42);
  w.u64(1ull << 40);
  w.f64(3.5);
  const float floats[3] = {1.0f, -2.0f, 0.5f};
  w.bytes(floats, sizeof(floats));
  const std::string payload = w.take();

  PayloadReader r(payload);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_DOUBLE_EQ(r.f64(), 3.5);
  float got[3];
  r.bytes(got, sizeof(got));
  EXPECT_EQ(std::memcmp(got, floats, sizeof(floats)), 0);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST_F(TcpChannelTest, PayloadReaderBoundsChecked) {
  PayloadWriter w;
  w.u32(5);
  const std::string payload = w.take();
  PayloadReader r(payload);
  r.u32();
  EXPECT_THROW(r.u32(), Error);  // past the end
}

// ------------------------------------------------------ control framing --

TEST_F(TcpChannelTest, ControlDialAcceptAndMessageRoundtrip) {
  TcpChannel a(0, {});
  TcpChannel b(1, {});

  std::thread dialer([&] {
    b.dial(0, a.listen_port(), Purpose::kControl, 3);
    Message m;
    m.type = MsgType::kReady;
    m.epoch = 3;
    PayloadWriter w;
    w.f64(1.25);
    m.payload = w.take();
    b.send(0, Purpose::kControl, m);
  });

  const std::vector<int> joined = a.poll_accept(4000);
  ASSERT_EQ(joined.size(), 1u);
  EXPECT_EQ(joined[0], 1);
  // The dialer advertised its own listener through the Hello.
  EXPECT_EQ(a.peer_listen_port(1), b.listen_port());

  auto m = a.recv(1, Purpose::kControl, 4000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, MsgType::kReady);
  EXPECT_EQ(m->epoch, 3u);
  EXPECT_EQ(m->src_rank, 1);
  PayloadReader r(m->payload);
  EXPECT_DOUBLE_EQ(r.f64(), 1.25);
  dialer.join();
}

TEST_F(TcpChannelTest, IdleRecvReturnsNulloptButPeerDeathThrows) {
  TcpChannel a(0, {});
  auto b = std::make_unique<TcpChannel>(1, TcpChannelConfig{});
  std::thread dialer(
      [&] { b->dial(0, a.listen_port(), Purpose::kControl, 0); });
  ASSERT_EQ(a.poll_accept(4000).size(), 1u);
  dialer.join();

  // Idle deadline: the peer is alive but silent — not an error.
  EXPECT_FALSE(a.recv(1, Purpose::kControl, 50).has_value());

  // Peer death closes the socket: recv must throw, not time out, so a
  // crashed worker is detected at EOF speed rather than deadline speed.
  b.reset();
  EXPECT_THROW(a.recv(1, Purpose::kControl, 4000), ChannelError);
}

TEST_F(TcpChannelTest, DialToDeadPortFailsAfterCappedBackoff) {
  int dead_port;
  {
    TcpChannel tmp(9, {});
    dead_port = tmp.listen_port();  // released at scope exit
  }
  TcpChannelConfig cfg;
  cfg.connect_attempts = 3;
  cfg.connect_backoff_initial_ms = 1;
  cfg.connect_backoff_max_ms = 4;
  TcpChannel a(0, cfg);
  EXPECT_THROW(a.dial(1, dead_port, Purpose::kControl, 0), ChannelError);
}

TEST_F(TcpChannelTest, ConnRefusedFailpointExhaustsThenSucceeds) {
  TcpChannel listener(0, {});
  TcpChannelConfig cfg;
  cfg.connect_attempts = 5;
  cfg.connect_backoff_initial_ms = 1;
  cfg.connect_backoff_max_ms = 2;
  TcpChannel b(1, cfg);

  // First two connect attempts are refused by injection; the third real
  // attempt lands. The channel must retry through, not give up.
  failpoint::Spec twice;
  twice.count = 2;
  failpoint::ScopedFail refuse("dist.conn_refused", twice);
  std::thread dialer(
      [&] { b.dial(0, listener.listen_port(), Purpose::kControl, 0); });
  EXPECT_EQ(listener.poll_accept(4000).size(), 1u);
  dialer.join();
  EXPECT_EQ(failpoint::fire_count("dist.conn_refused"), 2u);
  EXPECT_TRUE(b.connected(0, Purpose::kControl));
}

TEST_F(TcpChannelTest, RecvTimeoutFailpointExpiresImmediately) {
  TcpChannel a(0, {});
  TcpChannel b(1, {});
  std::thread dialer(
      [&] { b.dial(0, a.listen_port(), Purpose::kControl, 0); });
  ASSERT_EQ(a.poll_accept(4000).size(), 1u);
  dialer.join();

  failpoint::Spec once;
  once.count = 1;
  failpoint::ScopedFail expire("dist.recv_timeout", once);
  // Injected expiry: returns nullopt instantly instead of blocking for
  // the full (long) deadline.
  EXPECT_FALSE(a.recv(1, Purpose::kControl, 60000).has_value());
  EXPECT_EQ(failpoint::fire_count("dist.recv_timeout"), 1u);
}

// ------------------------------------------------------- ring allreduce --

/// Run `fn(rank_index)` concurrently, one thread per channel (channels[i]
/// serves ring member i). Rethrows the first per-thread failure.
void run_ring(std::vector<std::unique_ptr<TcpChannel>>& channels,
              const std::function<void(std::size_t)>& fn) {
  std::vector<std::thread> ts;
  std::vector<std::exception_ptr> errors(channels.size());
  for (std::size_t i = 0; i < channels.size(); ++i)
    ts.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  for (auto& t : ts) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

/// Build one channel per entry of `ranks` plus the Ring advertising their
/// real listener ports.
Ring make_ring(std::vector<std::unique_ptr<TcpChannel>>& channels,
               const std::vector<int>& ranks, std::uint32_t epoch) {
  Ring ring;
  ring.epoch = epoch;
  for (const int rank : ranks) {
    channels.push_back(
        std::make_unique<TcpChannel>(rank, TcpChannelConfig{}));
    ring.members.push_back(
        Member{rank, static_cast<std::int32_t>(channels.back()->listen_port())});
  }
  return ring;
}

std::vector<float> rank_data(int rank, std::int64_t n) {
  Rng rng(static_cast<std::uint64_t>(rank) * 131 + 17);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

class AllReduceWorlds : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void TearDown() override { failpoint::reset(); }
};

TEST_P(AllReduceWorlds, AveragesAcrossRanks) {
  const auto [W, n] = GetParam();
  std::vector<std::unique_ptr<TcpChannel>> channels;
  std::vector<int> ranks;
  for (int r = 0; r < W; ++r) ranks.push_back(r);
  const Ring ring = make_ring(channels, ranks, 1);

  std::vector<std::vector<float>> bufs;
  std::vector<double> expected(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < W; ++r) {
    bufs.push_back(rank_data(r, n));
    for (int i = 0; i < n; ++i)
      expected[static_cast<std::size_t>(i)] +=
          bufs.back()[static_cast<std::size_t>(i)];
  }
  for (auto& e : expected) e /= W;

  run_ring(channels, [&](std::size_t i) {
    establish_ring(*channels[i], ring, 4000);
    ring_allreduce_average(*channels[i], ring, bufs[i].data(), n, 4000);
  });

  for (int r = 0; r < W; ++r)
    for (int i = 0; i < n; ++i)
      EXPECT_NEAR(bufs[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)],
                  expected[static_cast<std::size_t>(i)], 1e-5)
          << "rank " << r << " elem " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, AllReduceWorlds,
    ::testing::Values(std::make_tuple(1, 64), std::make_tuple(2, 7),
                      std::make_tuple(2, 4096), std::make_tuple(3, 1000),
                      std::make_tuple(4, 257)),
    [](const auto& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST_F(TcpChannelTest, AllRanksAgreeBitwise) {
  const std::int64_t n = 1537;
  std::vector<std::unique_ptr<TcpChannel>> channels;
  const Ring ring = make_ring(channels, {0, 1, 2}, 1);
  std::vector<std::vector<float>> bufs;
  for (int r = 0; r < 3; ++r) bufs.push_back(rank_data(r, n));

  run_ring(channels, [&](std::size_t i) {
    establish_ring(*channels[i], ring, 4000);
    ring_allreduce_average(*channels[i], ring, bufs[i].data(), n, 4000);
  });

  // Replicas must never diverge: the averaged gradients are applied
  // independently on every rank, so equal-to-the-bit is the bar.
  for (int r = 1; r < 3; ++r)
    EXPECT_EQ(std::memcmp(bufs[0].data(),
                          bufs[static_cast<std::size_t>(r)].data(),
                          static_cast<std::size_t>(n) * sizeof(float)),
              0);
}

TEST_F(TcpChannelTest, ShrunkWorldMatchesFreshWorldBitwise) {
  // The determinism contract behind excision re-normalization: ranks
  // {0, 2} surviving the loss of rank 1 (epoch bumped to 5) must produce
  // bitwise the same average as a fresh 2-rank job would. Accumulation
  // order depends only on ring position (index in the sorted live set)
  // and the 1/W scale is applied once at the end.
  const std::int64_t n = 3001;
  const std::vector<float> d0 = rank_data(0, n);
  const std::vector<float> d2 = rank_data(2, n);

  std::vector<std::vector<float>> shrunk = {d0, d2};
  {
    std::vector<std::unique_ptr<TcpChannel>> channels;
    const Ring ring = make_ring(channels, {0, 2}, 5);
    run_ring(channels, [&](std::size_t i) {
      establish_ring(*channels[i], ring, 4000);
      ring_allreduce_average(*channels[i], ring, shrunk[i].data(), n, 4000);
    });
  }

  std::vector<std::vector<float>> fresh = {d0, d2};
  {
    std::vector<std::unique_ptr<TcpChannel>> channels;
    const Ring ring = make_ring(channels, {0, 1}, 1);
    run_ring(channels, [&](std::size_t i) {
      establish_ring(*channels[i], ring, 4000);
      ring_allreduce_average(*channels[i], ring, fresh[i].data(), n, 4000);
    });
  }

  EXPECT_EQ(std::memcmp(shrunk[0].data(), fresh[0].data(),
                        static_cast<std::size_t>(n) * sizeof(float)),
            0);
}

TEST_F(TcpChannelTest, ReEstablishAtNewEpochAfterDrop) {
  // An epoch bump mid-job: drop the old ring links, re-form at the new
  // epoch, and the allreduce still works. This is the excision path minus
  // the coordinator.
  const std::int64_t n = 129;
  std::vector<std::unique_ptr<TcpChannel>> channels;
  Ring ring = make_ring(channels, {0, 1}, 1);
  std::vector<std::vector<float>> bufs = {rank_data(0, n), rank_data(1, n)};

  run_ring(channels, [&](std::size_t i) {
    establish_ring(*channels[i], ring, 4000);
    ring_allreduce_average(*channels[i], ring, bufs[i].data(), n, 4000);
  });

  ring.epoch = 2;
  run_ring(channels, [&](std::size_t i) {
    establish_ring(*channels[i], ring, 4000);  // drops old links first
    ring_allreduce_average(*channels[i], ring, bufs[i].data(), n, 4000);
  });
  EXPECT_EQ(std::memcmp(bufs[0].data(), bufs[1].data(),
                        static_cast<std::size_t>(n) * sizeof(float)),
            0);
}

TEST_F(TcpChannelTest, KeptLinksMatchFreshRingsBitwise) {
  // The training loop dials its ring once per epoch and runs every step's
  // allreduce over the kept links. K steps that way must give bitwise the
  // K results of K freshly dialed rings, and every member must learn every
  // member's loss and the meet flag rank 0 raised on one step.
  const int K = 4;
  const std::int64_t n = 1001;
  const std::vector<int> ranks = {0, 1, 2};
  auto input = [n](int rank, int k) { return rank_data(rank * 10 + k, n); };
  auto stamp = [](int rank, int k) {
    StepStamp st;
    st.step = static_cast<std::uint64_t>(k);
    st.loss = rank + 0.25 * k;
    st.meet = rank == 0 && k == 2;
    return st;
  };

  std::vector<std::vector<std::vector<float>>> kept(3), fresh(3);
  std::vector<std::vector<StepOutcome>> outcomes(3);
  {
    std::vector<std::unique_ptr<TcpChannel>> channels;
    const Ring ring = make_ring(channels, ranks, 1);
    run_ring(channels, [&](std::size_t i) {
      establish_ring(*channels[i], ring, 4000);
      for (int k = 0; k < K; ++k) {
        std::vector<float> buf = input(ranks[i], k);
        outcomes[i].push_back(ring_allreduce_average(
            *channels[i], ring, buf.data(), n, 4000, stamp(ranks[i], k)));
        kept[i].push_back(std::move(buf));
      }
    });
  }
  for (int k = 0; k < K; ++k) {
    std::vector<std::unique_ptr<TcpChannel>> channels;
    const Ring ring =
        make_ring(channels, ranks, static_cast<std::uint32_t>(k + 1));
    run_ring(channels, [&](std::size_t i) {
      establish_ring(*channels[i], ring, 4000);
      std::vector<float> buf = input(ranks[i], k);
      ring_allreduce_average(*channels[i], ring, buf.data(), n, 4000,
                             stamp(ranks[i], k));
      fresh[i].push_back(std::move(buf));
    });
  }

  for (std::size_t i = 0; i < 3; ++i)
    for (int k = 0; k < K; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      EXPECT_EQ(std::memcmp(kept[i][ku].data(), fresh[i][ku].data(),
                            static_cast<std::size_t>(n) * sizeof(float)),
                0)
          << "member " << i << " step " << k;
      const StepOutcome& out = outcomes[i][ku];
      EXPECT_EQ(out.meet, k == 2) << "member " << i << " step " << k;
      ASSERT_EQ(out.losses.size(), 3u);
      for (std::size_t p = 0; p < 3; ++p)
        EXPECT_EQ(out.losses[p], stamp(ranks[p], k).loss)
            << "member " << i << " step " << k << " position " << p;
    }
}

TEST_F(TcpChannelTest, OlderStepOnKeptLinkIsRejectedNotSummed) {
  // Two members whose step counters disagree on kept links: rank 0 is at
  // step 2 and receives rank 1's frame of step 1. The frame must be
  // rejected with ChannelError before anything is summed into the buffer
  // (and rank 1 rejects rank 0's frame of a step it is not running).
  const std::int64_t n = 64;
  std::vector<std::unique_ptr<TcpChannel>> channels;
  const Ring ring = make_ring(channels, {0, 1}, 1);
  std::vector<std::vector<float>> bufs = {rank_data(0, n), rank_data(1, n)};
  run_ring(channels, [&](std::size_t i) {
    establish_ring(*channels[i], ring, 4000);
    StepStamp st;
    st.step = 0;
    ring_allreduce_average(*channels[i], ring, bufs[i].data(), n, 4000, st);
  });

  const std::vector<std::vector<float>> before = bufs;
  std::vector<int> rejected(2, 0);  // not vector<bool>: written per thread
  run_ring(channels, [&](std::size_t i) {
    StepStamp st;
    st.step = i == 0 ? 2 : 1;
    try {
      ring_allreduce_average(*channels[i], ring, bufs[i].data(), n, 4000,
                             st);
    } catch (const ChannelError&) {
      rejected[i] = 1;
    }
  });
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(rejected[i], 1) << "member " << i;
    EXPECT_EQ(std::memcmp(bufs[i].data(), before[i].data(),
                          static_cast<std::size_t>(n) * sizeof(float)),
              0)
        << "member " << i << " summed a frame of another step";
  }
}

TEST_F(TcpChannelTest, DeadNeighborSurfacesAsChannelError) {
  // Rank 1 never shows up: rank 0's establish_ring must fail within the
  // timeout with ChannelError (the signal the worker protocol turns into
  // an abort + retry at a smaller world), not hang.
  TcpChannelConfig cfg;
  cfg.connect_attempts = 2;
  cfg.connect_backoff_initial_ms = 1;
  cfg.connect_backoff_max_ms = 2;
  TcpChannel ch(0, cfg);
  int dead_port;
  {
    TcpChannel tmp(1, {});
    dead_port = tmp.listen_port();
  }
  Ring ring;
  ring.epoch = 1;
  ring.members = {Member{0, static_cast<std::int32_t>(ch.listen_port())},
                  Member{1, static_cast<std::int32_t>(dead_port)}};
  EXPECT_THROW(establish_ring(ch, ring, 500), ChannelError);
}

TEST_F(TcpChannelTest, RingSerializationRoundtrip) {
  Ring ring;
  ring.epoch = 9;
  ring.members = {Member{0, 5000}, Member{2, 5002}, Member{7, 5007}};
  PayloadWriter w;
  write_ring(w, ring);
  const std::string payload = w.take();
  PayloadReader r(payload);
  const Ring got = read_ring(r);
  EXPECT_EQ(got.epoch, 9u);
  ASSERT_EQ(got.world(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got.members[static_cast<std::size_t>(i)].rank,
              ring.members[static_cast<std::size_t>(i)].rank);
    EXPECT_EQ(got.members[static_cast<std::size_t>(i)].port,
              ring.members[static_cast<std::size_t>(i)].port);
  }
  EXPECT_EQ(ring_position(got, 2), 1);
  EXPECT_EQ(ring_position(got, 3), -1);
}

}  // namespace
}  // namespace mfn::dist
