// TCP data channel for real multi-process distributed training.
//
// The paper trains data-parallel across many workers; src/distributed
// historically *simulated* that inside one process. This layer is the real
// thing: rank-0 rendezvous over a single well-known port, length-prefixed
// framed messages, nonblocking sockets with poll-driven send/recv under
// configurable deadlines, and capped exponential-backoff reconnect — the
// substrate the elastic ring allreduce (elastic.h) and the fault-tolerant
// trainer (worker.h) are built on.
//
// Topology: every process owns one listening socket (rank 0 on the
// configured port, everyone else on an ephemeral port advertised through
// rank 0). Connections are purpose-tagged:
//   kControl  worker <-> rank-0 coordinator (admission, meetings, digests)
//   kRing     neighbor links for the ring allreduce, dialed once per
//             membership epoch and kept for every step of it
// A connection opens with a Hello frame naming the dialer's rank, purpose,
// membership epoch, and listen port, so the acceptor can key it.
//
// Failure semantics: a broken connection (EOF, ECONNRESET, deadline expiry
// mid-frame) throws ChannelError; an idle recv deadline returns nullopt.
// Callers translate ChannelError into membership decisions — the channel
// itself never retries a broken peer (only the initial dial retries, with
// capped exponential backoff).
//
// Fail points (deterministic fault injection, see common/failpoint.h):
//   dist.conn_refused   a dial attempt fails as if ECONNREFUSED (the
//                       backoff/retry path runs for real)
//   dist.recv_timeout   a recv deadline expires immediately
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"

namespace mfn::dist {

/// Thrown on a broken or unusable connection (distinct from mfn::Error so
/// the membership layer can catch transport failures specifically).
class ChannelError : public Error {
 public:
  explicit ChannelError(const std::string& what) : Error(what) {}
};

/// Connection key tag. On the wire a Hello only ever says kControl or
/// kRing; ring connections are *stored* direction-split (the dialer keeps
/// its socket under kRingOut, the acceptor under kRingIn) because in a
/// 2-rank ring next == prev == the same peer and the outgoing and incoming
/// ring links must not collide in the connection map.
enum class Purpose : std::uint32_t {
  kControl = 0,
  kRing = 1,     ///< wire tag only (mapped to kRingIn by the acceptor)
  kRingOut = 2,  ///< storage: the link I dialed to my ring successor
  kRingIn = 3,   ///< storage: the link my ring predecessor dialed to me
};

/// Message types of the training protocol (worker.h documents the state
/// machine; tcp_channel only frames them).
enum class MsgType : std::uint32_t {
  kHello = 1,      ///< connection opener: rank, purpose, epoch, listen port
  kSync = 2,       ///< coordinator -> worker: full model/optimizer state
  kReady = 4,      ///< worker -> coordinator: at a meeting, committed steps
  kGo = 5,         ///< coordinator -> worker: next step + ring spec, or stop
  kRingChunk = 10, ///< neighbor -> neighbor: allreduce chunk + step stamp
  kDigest = 11,    ///< worker -> coordinator: final state digest (on stop)
};

struct Message {
  MsgType type = MsgType::kHello;
  std::uint32_t epoch = 0;
  std::int32_t src_rank = -1;
  std::string payload;
};

// ------------------------------------------------------------ wire utils --
// Bounds-checked little-endian payload (de)serialization.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { append(&v, sizeof(v)); }
  void i32(std::int32_t v) { append(&v, sizeof(v)); }
  void u64(std::uint64_t v) { append(&v, sizeof(v)); }
  void f64(double v) { append(&v, sizeof(v)); }
  void bytes(const void* p, std::size_t n) { append(p, n); }
  std::string take() { return std::move(buf_); }

 private:
  void append(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

class PayloadReader {
 public:
  explicit PayloadReader(const std::string& s) : s_(s) {}
  std::uint8_t u8() { std::uint8_t v; get(&v, 1); return v; }
  std::uint32_t u32() { std::uint32_t v; get(&v, sizeof(v)); return v; }
  std::int32_t i32() { std::int32_t v; get(&v, sizeof(v)); return v; }
  std::uint64_t u64() { std::uint64_t v; get(&v, sizeof(v)); return v; }
  double f64() { double v; get(&v, sizeof(v)); return v; }
  void bytes(void* p, std::size_t n) { get(p, n); }
  std::size_t remaining() const { return s_.size() - pos_; }

 private:
  void get(void* p, std::size_t n);
  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------- socket --
/// RAII nonblocking TCP socket with poll-driven framed I/O.
class TcpSocket {
 public:
  TcpSocket() = default;
  explicit TcpSocket(int fd);
  ~TcpSocket();
  TcpSocket(TcpSocket&& o) noexcept;
  TcpSocket& operator=(TcpSocket&& o) noexcept;
  TcpSocket(const TcpSocket&) = delete;
  TcpSocket& operator=(const TcpSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Bind + listen on host:port (port 0 = kernel-assigned). SO_REUSEADDR.
  static TcpSocket listen_on(const std::string& host, int port);
  /// The bound port of a listening socket.
  int bound_port() const;
  /// Accept one pending connection; nullopt if none within timeout_ms.
  std::optional<TcpSocket> accept_within(int timeout_ms);

  /// One connect attempt with a deadline; throws ChannelError on refusal
  /// or timeout (the retry/backoff loop lives in TcpChannel::dial).
  static TcpSocket connect_to(const std::string& host, int port,
                              int timeout_ms);

  /// Send one framed message; blocks (poll-driven) until fully written or
  /// deadline. Throws ChannelError on error or deadline expiry.
  void send_frame(const Message& m, int timeout_ms);
  /// Receive one framed message. Returns nullopt if no frame *starts*
  /// within the deadline; once a header byte arrives the whole frame must
  /// complete before the deadline or the stream is unsynchronized and a
  /// ChannelError is thrown. EOF/reset also throw ChannelError.
  std::optional<Message> recv_frame(int timeout_ms);

  /// Full-duplex exchange for the allreduce inner loop: send `out` on this
  /// socket while receiving one frame from `in`, progressing both sides
  /// under one deadline (avoids the classic both-sides-blocked-in-send
  /// deadlock when chunks exceed the kernel socket buffers). Returns the
  /// received message; throws ChannelError on any failure or deadline.
  Message exchange_frame(const Message& out, TcpSocket& in, int timeout_ms);

 private:
  int fd_ = -1;
};

// --------------------------------------------------------------- channel --
struct TcpChannelConfig {
  std::string host = "127.0.0.1";
  /// Listening port; 0 = ephemeral (everyone except rank 0 in practice).
  int listen_port = 0;
  /// Per-dial-attempt connect deadline.
  int connect_timeout_ms = 2000;
  /// Dial retry budget with capped exponential backoff: attempt i sleeps
  /// min(backoff_initial_ms << i, backoff_max_ms) after a refusal.
  int connect_attempts = 25;
  int connect_backoff_initial_ms = 5;
  int connect_backoff_max_ms = 250;
  /// Deadline for the Hello frame on a freshly accepted connection.
  int hello_timeout_ms = 2000;
  /// Default deadline for send/recv when the caller does not override.
  int io_timeout_ms = 4000;
};

/// A process's endpoint: one listener plus a keyed map of live peer
/// connections. Not thread-safe (each rank's protocol loop is
/// single-threaded by design).
class TcpChannel {
 public:
  TcpChannel(int rank, TcpChannelConfig config);

  int rank() const { return rank_; }
  int listen_port() const;
  const TcpChannelConfig& config() const { return config_; }

  /// Dial peer's listener with retry/backoff and introduce ourselves with
  /// a Hello for `purpose`/`epoch`. Replaces any existing connection under
  /// that key. Throws ChannelError when the retry budget is exhausted or,
  /// if timeout_ms >= 0, once no retry can start within timeout_ms.
  void dial(int peer, int port, Purpose purpose, std::uint32_t epoch,
            int timeout_ms = -1);

  /// Accept pending connections (reading their Hello) until a connection
  /// from `peer` with `purpose` and epoch >= min_epoch exists or the
  /// deadline passes (throws ChannelError on deadline). Hellos from other
  /// peers are stored, not dropped.
  void accept_from(int peer, Purpose purpose, std::uint32_t min_epoch,
                   int timeout_ms);

  /// Drain the accept backlog without waiting for anyone in particular
  /// (the coordinator's join pump). The timeout bounds the wait for the
  /// FIRST control Hello; once one is in hand only immediately-available
  /// connections are drained. Returns ranks whose kControl Hello arrived
  /// during this call.
  std::vector<int> poll_accept(int timeout_ms);

  bool connected(int peer, Purpose purpose) const;
  void drop(int peer, Purpose purpose);
  /// Drop every ring-purpose connection (epoch change re-forms the ring).
  void drop_ring();

  void send(int peer, Purpose purpose, const Message& m);
  /// Receive one frame from `peer`; nullopt on idle deadline.
  std::optional<Message> recv(int peer, Purpose purpose, int timeout_ms);
  /// Wait for a frame from any of `peers` (control purpose), also pumping
  /// the accept backlog so joiners are never starved. Returns nullopt on
  /// deadline. Throws ChannelError naming the peer on a dead connection;
  /// `failed_peer` is set so the caller can excise it.
  std::optional<std::pair<int, Message>> recv_any(
      const std::vector<int>& peers, int timeout_ms, int* failed_peer);

  /// The allreduce neighbor exchange: send `out` to `send_peer`'s ring
  /// socket while receiving from `recv_peer`'s.
  Message ring_exchange(int send_peer, const Message& out, int recv_peer,
                        int timeout_ms);

  /// Hello bookkeeping of the last Hello received from `peer` (its
  /// advertised listen port; 0 when unknown).
  int peer_listen_port(int peer) const;

 private:
  struct Key {
    int peer;
    Purpose purpose;
    bool operator<(const Key& o) const {
      return peer != o.peer ? peer < o.peer : purpose < o.purpose;
    }
  };
  TcpSocket& require(int peer, Purpose purpose);
  /// Accept + read Hello; stores the socket. Returns the hello's
  /// (rank, purpose) or nullopt on timeout.
  std::optional<std::pair<int, Purpose>> accept_one(int timeout_ms);

  int rank_;
  TcpChannelConfig config_;
  TcpSocket listener_;
  std::map<Key, TcpSocket> conns_;
  /// Epoch from each connection's Hello; accept_from uses it to reject
  /// leftover dials from an aborted older epoch.
  std::map<Key, std::uint32_t> conn_epochs_;
  std::map<int, int> peer_ports_;
  /// Control Hellos accepted but not yet reported through poll_accept.
  std::vector<int> pending_controls_;
};

}  // namespace mfn::dist
