#include "distributed/tcp_channel.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/failpoint.h"

namespace mfn::dist {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kFrameMagic = 0x4D464E64;  // "MFNd"
// Largest legitimate frame is a model+optimizer kSync or a gradient
// chunk — tens of MB at the outside. Keep the bound far below the 4 GiB a
// garbage header could otherwise demand from payload.resize() before the
// desync is noticed.
constexpr std::uint64_t kMaxPayload = 256ull << 20;  // sanity bound

struct FrameHeader {
  std::uint32_t magic;
  std::uint32_t type;
  std::uint32_t epoch;
  std::int32_t src_rank;
  std::uint64_t payload_len;
};

Clock::time_point deadline_from(int timeout_ms) {
  return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<std::int64_t>(left.count(), 0));
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  MFN_CHECK(flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  MFN_CHECK(inet_pton(AF_INET, host.c_str(), &addr.sin_addr) == 1,
            "bad IPv4 address " << host);
  return addr;
}

/// poll() one fd for `events`; returns revents (0 on timeout). A signal
/// (EINTR) re-polls with the remaining deadline rather than reporting a
/// timeout the caller would treat as deadline expiry.
short poll_fd(int fd, short events, int timeout_ms) {
  const auto deadline = deadline_from(timeout_ms);
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int rc = ::poll(&pfd, 1, remaining_ms(deadline));
    if (rc < 0) {
      if (errno == EINTR) {
        if (remaining_ms(deadline) == 0) return 0;
        continue;
      }
      throw ChannelError("poll failed: " +
                         std::string(std::strerror(errno)));
    }
    return rc == 0 ? short{0} : pfd.revents;
  }
}

std::string serialize_frame(const Message& m) {
  FrameHeader h{kFrameMagic, static_cast<std::uint32_t>(m.type), m.epoch,
                m.src_rank, m.payload.size()};
  std::string buf(sizeof(h) + m.payload.size(), '\0');
  std::memcpy(&buf[0], &h, sizeof(h));
  std::memcpy(&buf[sizeof(h)], m.payload.data(), m.payload.size());
  return buf;
}

}  // namespace

void PayloadReader::get(void* p, std::size_t n) {
  if (pos_ + n > s_.size())
    throw ChannelError("truncated message payload (want " +
                       std::to_string(n) + " bytes, have " +
                       std::to_string(s_.size() - pos_) + ")");
  std::memcpy(p, s_.data() + pos_, n);
  pos_ += n;
}

// ---------------------------------------------------------------- socket --

TcpSocket::TcpSocket(int fd) : fd_(fd) {}

TcpSocket::~TcpSocket() { close(); }

TcpSocket::TcpSocket(TcpSocket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }

TcpSocket& TcpSocket::operator=(TcpSocket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void TcpSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpSocket TcpSocket::listen_on(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MFN_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
  TcpSocket sock(fd);
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(host, port);
  MFN_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
            "bind(" << host << ":" << port
                    << ") failed: " << std::strerror(errno));
  MFN_CHECK(::listen(fd, 64) == 0,
            "listen failed: " << std::strerror(errno));
  set_nonblocking(fd);
  return sock;
}

int TcpSocket::bound_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  MFN_CHECK(getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
            "getsockname failed: " << std::strerror(errno));
  return static_cast<int>(ntohs(addr.sin_port));
}

std::optional<TcpSocket> TcpSocket::accept_within(int timeout_ms) {
  const auto deadline = deadline_from(timeout_ms);
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      set_nonblocking(fd);
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpSocket(fd);
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      throw ChannelError("accept failed: " +
                         std::string(std::strerror(errno)));
    const int left = remaining_ms(deadline);
    if (left == 0) return std::nullopt;
    poll_fd(fd_, POLLIN, left);
  }
}

TcpSocket TcpSocket::connect_to(const std::string& host, int port,
                                int timeout_ms) {
  if (failpoint::poll("dist.conn_refused"))
    throw ChannelError("injected connection refused dialing " + host + ":" +
                       std::to_string(port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MFN_CHECK(fd >= 0, "socket() failed: " << std::strerror(errno));
  TcpSocket sock(fd);
  set_nonblocking(fd);
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr = make_addr(host, port);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS)
      throw ChannelError("connect to " + host + ":" + std::to_string(port) +
                         " failed: " + std::strerror(errno));
    const short rev = poll_fd(fd, POLLOUT, timeout_ms);
    if (rev == 0)
      throw ChannelError("connect to " + host + ":" + std::to_string(port) +
                         " timed out");
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0)
      throw ChannelError("connect to " + host + ":" + std::to_string(port) +
                         " failed: " + std::strerror(err));
  }
  return sock;
}

void TcpSocket::send_frame(const Message& m, int timeout_ms) {
  MFN_CHECK(valid(), "send on closed socket");
  const std::string buf = serialize_frame(m);
  const auto deadline = deadline_from(timeout_ms);
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::send(fd_, buf.data() + off, buf.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      throw ChannelError("send failed: " +
                         std::string(std::strerror(errno)));
    const int left = remaining_ms(deadline);
    if (left == 0) throw ChannelError("send deadline expired");
    const short rev = poll_fd(fd_, POLLOUT, left);
    if ((rev & (POLLERR | POLLNVAL)) != 0)
      throw ChannelError("send failed: peer connection broken");
  }
}

std::optional<Message> TcpSocket::recv_frame(int timeout_ms) {
  MFN_CHECK(valid(), "recv on closed socket");
  if (failpoint::poll("dist.recv_timeout")) return std::nullopt;
  const auto deadline = deadline_from(timeout_ms);
  FrameHeader h{};
  auto read_into = [&](char* dst, std::size_t want, bool started) -> bool {
    // Returns false iff nothing has been read yet and the deadline passed.
    std::size_t off = 0;
    while (off < want) {
      const ssize_t n = ::recv(fd_, dst + off, want - off, 0);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        started = true;
        continue;
      }
      if (n == 0) throw ChannelError("peer closed connection");
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
        throw ChannelError("recv failed: " +
                           std::string(std::strerror(errno)));
      const int left = remaining_ms(deadline);
      if (left == 0) {
        if (!started && off == 0) return false;
        throw ChannelError("recv deadline expired mid-frame");
      }
      const short rev = poll_fd(fd_, POLLIN, left);
      if ((rev & (POLLERR | POLLNVAL)) != 0)
        throw ChannelError("recv failed: peer connection broken");
    }
    return true;
  };
  if (!read_into(reinterpret_cast<char*>(&h), sizeof(h), false))
    return std::nullopt;
  if (h.magic != kFrameMagic)
    throw ChannelError("bad frame magic (unsynchronized stream)");
  if (h.payload_len > kMaxPayload)
    throw ChannelError("oversized frame payload");
  Message m;
  m.type = static_cast<MsgType>(h.type);
  m.epoch = h.epoch;
  m.src_rank = h.src_rank;
  m.payload.resize(h.payload_len);
  if (h.payload_len > 0)
    read_into(&m.payload[0], m.payload.size(), true);
  return m;
}

Message TcpSocket::exchange_frame(const Message& out, TcpSocket& in,
                                  int timeout_ms) {
  MFN_CHECK(valid() && in.valid(), "exchange on closed socket");
  if (failpoint::poll("dist.recv_timeout"))
    throw ChannelError("injected recv timeout in ring exchange");
  const auto deadline = deadline_from(timeout_ms);
  const std::string send_buf = serialize_frame(out);
  std::size_t sent = 0;

  FrameHeader h{};
  std::size_t recv_off = 0;  // bytes of the current stage (header/payload)
  bool header_done = false;
  Message m;

  while (sent < send_buf.size() || !header_done ||
         recv_off < m.payload.size()) {
    // Drive whichever directions are still pending.
    bool progressed = false;
    if (sent < send_buf.size()) {
      const ssize_t n = ::send(fd_, send_buf.data() + sent,
                               send_buf.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        progressed = true;
      } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        throw ChannelError("ring send failed: " +
                           std::string(std::strerror(errno)));
      }
    }
    {
      char* dst;
      std::size_t want;
      if (!header_done) {
        dst = reinterpret_cast<char*>(&h) + recv_off;
        want = sizeof(h) - recv_off;
      } else {
        dst = m.payload.empty() ? nullptr : &m.payload[recv_off];
        want = m.payload.size() - recv_off;
      }
      if (want > 0) {
        const ssize_t n = ::recv(in.fd_, dst, want, 0);
        if (n > 0) {
          recv_off += static_cast<std::size_t>(n);
          progressed = true;
        } else if (n == 0) {
          throw ChannelError("ring peer closed connection");
        } else if (errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
          throw ChannelError("ring recv failed: " +
                             std::string(std::strerror(errno)));
        }
      }
      if (!header_done && recv_off == sizeof(h)) {
        if (h.magic != kFrameMagic)
          throw ChannelError("bad ring frame magic");
        if (h.payload_len > kMaxPayload)
          throw ChannelError("oversized ring frame");
        m.type = static_cast<MsgType>(h.type);
        m.epoch = h.epoch;
        m.src_rank = h.src_rank;
        m.payload.resize(h.payload_len);
        header_done = true;
        recv_off = 0;
        continue;  // payload may already be readable
      }
    }
    if (progressed) continue;
    const int left = remaining_ms(deadline);
    if (left == 0) throw ChannelError("ring exchange deadline expired");
    pollfd pfds[2];
    int n = 0;
    if (sent < send_buf.size()) pfds[n++] = {fd_, POLLOUT, 0};
    pfds[n++] = {in.fd_, POLLIN, 0};
    const int rc = ::poll(pfds, static_cast<nfds_t>(n), left);
    if (rc < 0 && errno != EINTR)
      throw ChannelError("ring poll failed: " +
                         std::string(std::strerror(errno)));
  }
  return m;
}

// --------------------------------------------------------------- channel --

TcpChannel::TcpChannel(int rank, TcpChannelConfig config)
    : rank_(rank), config_(std::move(config)),
      listener_(TcpSocket::listen_on(config_.host, config_.listen_port)) {}

int TcpChannel::listen_port() const { return listener_.bound_port(); }

void TcpChannel::dial(int peer, int port, Purpose purpose,
                      std::uint32_t epoch, int timeout_ms) {
  std::string last_error = "no attempts made";
  const auto deadline = deadline_from(std::max(timeout_ms, 0));
  int backoff = config_.connect_backoff_initial_ms;
  for (int attempt = 0; attempt < config_.connect_attempts; ++attempt) {
    if (attempt > 0) {
      if (timeout_ms >= 0 && remaining_ms(deadline) < backoff) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff = std::min(backoff * 2, config_.connect_backoff_max_ms);
    }
    try {
      TcpSocket sock = TcpSocket::connect_to(config_.host, port,
                                             config_.connect_timeout_ms);
      Message hello;
      hello.type = MsgType::kHello;
      hello.epoch = epoch;
      hello.src_rank = rank_;
      // On the wire a ring link just says kRing; the direction split
      // (kRingOut here, kRingIn on the acceptor) is local bookkeeping.
      const Purpose wire =
          purpose == Purpose::kRingOut ? Purpose::kRing : purpose;
      PayloadWriter w;
      w.u32(static_cast<std::uint32_t>(wire));
      w.u32(static_cast<std::uint32_t>(listen_port()));
      hello.payload = w.take();
      sock.send_frame(hello, config_.io_timeout_ms);
      const Key key{peer, purpose};
      conns_[key] = std::move(sock);
      conn_epochs_[key] = epoch;
      return;
    } catch (const ChannelError& e) {
      last_error = e.what();
    }
  }
  throw ChannelError("dial rank " + std::to_string(peer) + " at " +
                     config_.host + ":" + std::to_string(port) +
                     " failed: " + last_error);
}

std::optional<std::pair<int, Purpose>> TcpChannel::accept_one(
    int timeout_ms) {
  std::optional<TcpSocket> sock = listener_.accept_within(timeout_ms);
  if (!sock) return std::nullopt;
  // The dialer introduces itself immediately; a connection that never says
  // Hello is dropped, not fatal.
  try {
    std::optional<Message> hello =
        sock->recv_frame(config_.hello_timeout_ms);
    if (!hello || hello->type != MsgType::kHello) return std::nullopt;
    PayloadReader r(hello->payload);
    auto purpose = static_cast<Purpose>(r.u32());
    if (purpose == Purpose::kRing) purpose = Purpose::kRingIn;
    const int port = static_cast<int>(r.u32());
    const int peer = hello->src_rank;
    peer_ports_[peer] = port;
    const Key key{peer, purpose};
    conns_[key] = std::move(*sock);
    conn_epochs_[key] = hello->epoch;
    // Queue control Hellos for poll_accept: recv_any's accept pump may be
    // the one that actually accepts a joiner, and the coordinator must
    // still learn about it at the next step boundary.
    if (purpose == Purpose::kControl) pending_controls_.push_back(peer);
    return std::make_pair(peer, purpose);
  } catch (const ChannelError&) {
    return std::nullopt;
  }
}

void TcpChannel::accept_from(int peer, Purpose purpose,
                             std::uint32_t min_epoch, int timeout_ms) {
  const auto deadline = deadline_from(timeout_ms);
  const Key key{peer, purpose};
  for (;;) {
    if (connected(peer, purpose)) {
      auto it = conn_epochs_.find(key);
      if (it != conn_epochs_.end() && it->second >= min_epoch) return;
      // A leftover dial from an aborted epoch: discard, keep accepting.
      drop(peer, purpose);
    }
    const int left = remaining_ms(deadline);
    if (left == 0)
      throw ChannelError("timed out accepting connection from rank " +
                         std::to_string(peer));
    accept_one(left);
  }
}

std::vector<int> TcpChannel::poll_accept(int timeout_ms) {
  const auto deadline = deadline_from(timeout_ms);
  do {
    // The timeout bounds the wait for the first control Hello; after one
    // arrives, only drain connections that are already queued.
    const int wait =
        pending_controls_.empty() ? remaining_ms(deadline) : 0;
    if (!accept_one(wait)) break;
  } while (remaining_ms(deadline) > 0);
  std::vector<int> new_controls;
  new_controls.swap(pending_controls_);
  return new_controls;
}

bool TcpChannel::connected(int peer, Purpose purpose) const {
  auto it = conns_.find(Key{peer, purpose});
  return it != conns_.end() && it->second.valid();
}

void TcpChannel::drop(int peer, Purpose purpose) {
  conns_.erase(Key{peer, purpose});
  conn_epochs_.erase(Key{peer, purpose});
}

void TcpChannel::drop_ring() {
  auto is_ring = [](Purpose p) {
    return p == Purpose::kRing || p == Purpose::kRingOut ||
           p == Purpose::kRingIn;
  };
  for (auto it = conns_.begin(); it != conns_.end();)
    it = is_ring(it->first.purpose) ? conns_.erase(it) : std::next(it);
  for (auto it = conn_epochs_.begin(); it != conn_epochs_.end();)
    it = is_ring(it->first.purpose) ? conn_epochs_.erase(it)
                                    : std::next(it);
}

TcpSocket& TcpChannel::require(int peer, Purpose purpose) {
  auto it = conns_.find(Key{peer, purpose});
  if (it == conns_.end() || !it->second.valid())
    throw ChannelError("no connection to rank " + std::to_string(peer));
  return it->second;
}

void TcpChannel::send(int peer, Purpose purpose, const Message& m) {
  Message stamped = m;
  stamped.src_rank = rank_;
  try {
    require(peer, purpose).send_frame(stamped, config_.io_timeout_ms);
  } catch (const ChannelError&) {
    drop(peer, purpose);
    throw;
  }
}

std::optional<Message> TcpChannel::recv(int peer, Purpose purpose,
                                        int timeout_ms) {
  try {
    return require(peer, purpose).recv_frame(timeout_ms);
  } catch (const ChannelError&) {
    drop(peer, purpose);
    throw;
  }
}

std::optional<std::pair<int, Message>> TcpChannel::recv_any(
    const std::vector<int>& peers, int timeout_ms, int* failed_peer) {
  if (failed_peer) *failed_peer = -1;
  const auto deadline = deadline_from(timeout_ms);
  if (failpoint::poll("dist.recv_timeout")) return std::nullopt;
  for (;;) {
    // Pump the accept backlog so a joiner dialing mid-step is picked up.
    accept_one(0);
    std::vector<pollfd> pfds;
    std::vector<int> order;
    for (int p : peers) {
      auto it = conns_.find(Key{p, Purpose::kControl});
      if (it == conns_.end() || !it->second.valid()) {
        if (failed_peer) *failed_peer = p;
        throw ChannelError("no control connection to rank " +
                           std::to_string(p));
      }
      pfds.push_back({it->second.fd(), POLLIN, 0});
      order.push_back(p);
    }
    pfds.push_back({listener_.fd(), POLLIN, 0});
    const int left = remaining_ms(deadline);
    const int rc = ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()),
                          std::min(left, 50));
    if (rc < 0 && errno != EINTR)
      throw ChannelError("poll failed: " +
                         std::string(std::strerror(errno)));
    for (std::size_t i = 0; i < order.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int p = order[i];
      try {
        // Control frames are tiny; if POLLIN fired, the whole frame is
        // all but guaranteed readable. The short completion deadline
        // covers a pathological mid-frame stall without letting one
        // slow peer monopolize the sweep.
        std::optional<Message> m =
            require(p, Purpose::kControl).recv_frame(250);
        if (m) return std::make_pair(p, std::move(*m));
      } catch (const ChannelError&) {
        drop(p, Purpose::kControl);
        if (failed_peer) *failed_peer = p;
        throw;
      }
    }
    if (remaining_ms(deadline) == 0) return std::nullopt;
  }
}

Message TcpChannel::ring_exchange(int send_peer, const Message& out,
                                  int recv_peer, int timeout_ms) {
  Message stamped = out;
  stamped.src_rank = rank_;
  TcpSocket& out_sock = require(send_peer, Purpose::kRingOut);
  TcpSocket& in_sock = require(recv_peer, Purpose::kRingIn);
  return out_sock.exchange_frame(stamped, in_sock, timeout_ms);
}

int TcpChannel::peer_listen_port(int peer) const {
  auto it = peer_ports_.find(peer);
  return it == peer_ports_.end() ? 0 : it->second;
}

}  // namespace mfn::dist
