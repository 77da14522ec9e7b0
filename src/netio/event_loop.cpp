#include "netio/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <unordered_map>
#include <vector>

#include "common/options.h"

namespace lumen::netio {

namespace {

// How long poll_once keeps polling epoll without blocking before it falls
// through to a blocking epoll_wait. A gateway at light load sees a frame
// about every 10 us, so a 50 us budget keeps the loop thread awake across
// the gaps of a live stream, while an idle tick costs at most one budget.
constexpr double kSpinBudgetSec = 50e-6;

double mono_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Error sys_error(const char* where, const char* what) {
  return Error::make(where, std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

const char* close_reason_name(CloseReason r) {
  switch (r) {
    case CloseReason::kPeerClosed:
      return "peer_closed";
    case CloseReason::kProtocolError:
      return "protocol_error";
    case CloseReason::kIdleTimeout:
      return "idle_timeout";
    case CloseReason::kSlowClient:
      return "slow_client";
    case CloseReason::kShutdown:
      return "shutdown";
    case CloseReason::kSocketError:
      return "socket_error";
  }
  return "unknown";
}

EventLoop::Options EventLoop::Options::normalized(Options opts,
                                                  std::string* diagnostic) {
  OptionNormalizer norm("netio.event_loop");
  norm.clamp(opts.idle_timeout, 0.0, 3600.0, "idle_timeout");
  norm.clamp(opts.min_bytes_per_sec, 0.0, 1e9, "min_bytes_per_sec");
  norm.clamp(opts.rate_window, 0.05, 600.0, "rate_window");
  norm.clamp(opts.read_chunk, size_t{512}, size_t{1} << 24, "read_chunk");
  norm.clamp(opts.max_conn_buffer, size_t{4096}, size_t{1} << 28,
             "max_conn_buffer");
  norm.clamp(opts.poll_interval_ms, 1, 1000, "poll_interval_ms");
  norm.emit(diagnostic);
  return opts;
}

/// One registered fd: a TCP listener, an established connection, or a UDP
/// socket. Connections carry the undelivered stream buffer (bytes the
/// protocol has not consumed yet, addressed via `off`) and the activity
/// clocks the timeout sweeps run on.
struct EventLoop::Entry {
  uint64_t id = 0;
  int fd = -1;
  bool listener = false;
  bool udp = false;
  uint16_t port = 0;
  std::string peer;
  bool paused = false;
  bool peer_eof = false;  // RDHUP seen while paused; drain on resume
  std::vector<uint8_t> buf;
  size_t off = 0;  // consumed prefix of buf
  double opened_at = 0;
  double last_activity = 0;
  double window_start = 0;
  uint64_t window_bytes = 0;
};

struct EventLoop::Impl {
  std::unordered_map<uint64_t, Entry> entries;
  // The one buffer every recv() lands in, allocated once. Reusing it is
  // safe because read_stream copies the bytes into Entry::buf before
  // deliver() hands them to the protocol, on_datagram consumes its bytes
  // before returning, and no Protocol callback re-enters read_stream or
  // read_datagrams. Keep it that way.
  std::vector<uint8_t> read_buf;
};

EventLoop::EventLoop(Options opts, Protocol& protocol)
    : opts_(Options::normalized(std::move(opts), nullptr)),
      protocol_(protocol),
      impl_(new Impl) {
  impl_->read_buf.resize(opts_.read_chunk);
}

EventLoop::~EventLoop() {
  shutdown(/*abort_connections=*/true);
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  delete impl_;
}

Result<void> EventLoop::init() {
  if (epoll_fd_ >= 0) return {};
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return sys_error("EventLoop::init", "epoll_create1");
  return {};
}

Result<uint64_t> EventLoop::add_socket(int fd, bool listener, bool udp,
                                       uint16_t port) {
  const uint64_t id = next_id_++;
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (!listener && !udp) ev.events |= EPOLLET | EPOLLRDHUP;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ::close(fd);
    return sys_error("EventLoop::add_socket", "epoll_ctl(ADD)");
  }
  Entry e;
  e.id = id;
  e.fd = fd;
  e.listener = listener;
  e.udp = udp;
  e.port = port;
  const double now = mono_now();
  e.opened_at = e.last_activity = e.window_start = now;
  impl_->entries.emplace(id, std::move(e));
  return id;
}

Result<uint64_t> EventLoop::listen_tcp(const std::string& addr,
                                       uint16_t port) {
  if (epoll_fd_ < 0)
    return Error::make("EventLoop::listen_tcp", "init() not called");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1)
    return Error::make("EventLoop::listen_tcp", "bad address: " + addr);
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return sys_error("EventLoop::listen_tcp", "socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return sys_error("EventLoop::listen_tcp", "bind");
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return sys_error("EventLoop::listen_tcp", "listen");
  }
  socklen_t len = sizeof(sa);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
  return add_socket(fd, /*listener=*/true, /*udp=*/false, ntohs(sa.sin_port));
}

Result<uint64_t> EventLoop::open_udp(const std::string& addr, uint16_t port,
                                     size_t rcvbuf_bytes) {
  if (epoll_fd_ < 0)
    return Error::make("EventLoop::open_udp", "init() not called");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, addr.c_str(), &sa.sin_addr) != 1)
    return Error::make("EventLoop::open_udp", "bad address: " + addr);
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return sys_error("EventLoop::open_udp", "socket");
  if (rcvbuf_bytes != 0) {
    const int want = static_cast<int>(rcvbuf_bytes);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &want, sizeof(want));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return sys_error("EventLoop::open_udp", "bind");
  }
  socklen_t len = sizeof(sa);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
  return add_socket(fd, /*listener=*/false, /*udp=*/true,
                    ntohs(sa.sin_port));
}

uint16_t EventLoop::port_of(uint64_t id) const {
  auto it = impl_->entries.find(id);
  return it == impl_->entries.end() ? 0 : it->second.port;
}

void EventLoop::pause(uint64_t conn) {
  auto it = impl_->entries.find(conn);
  if (it == impl_->entries.end() || it->second.paused) return;
  Entry& e = it->second;
  e.paused = true;
  epoll_event ev{};
  ev.events = EPOLLRDHUP;  // still notice a peer close while paused
  ev.data.u64 = conn;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, e.fd, &ev);
}

void EventLoop::resume(uint64_t conn) {
  auto it = impl_->entries.find(conn);
  if (it == impl_->entries.end() || !it->second.paused) return;
  Entry& e = it->second;
  e.paused = false;
  // Fresh grace period: the stall was our backpressure, not the client's.
  const double now = mono_now();
  e.last_activity = e.window_start = now;
  e.window_bytes = 0;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = conn;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, e.fd, &ev);
  // The edge that announced bytes arriving while paused has already fired;
  // deliver what we hold and drain the kernel buffer explicitly.
  deliver(e);
  if (impl_->entries.count(conn) != 0) read_stream(impl_->entries.at(conn));
}

void EventLoop::close_conn(uint64_t conn, CloseReason reason) {
  close_entry(conn, reason);
}

void EventLoop::close_entry(uint64_t id, CloseReason reason) {
  auto it = impl_->entries.find(id);
  if (it == impl_->entries.end()) return;
  const bool was_conn = !it->second.listener && !it->second.udp;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  impl_->entries.erase(it);
  if (was_conn) {
    --open_conns_;
    if (reason == CloseReason::kIdleTimeout) ++idle_closed_total_;
    if (reason == CloseReason::kSlowClient) ++slow_closed_total_;
    protocol_.on_close(id, reason);
  }
}

void EventLoop::handle_accept(Entry& listener) {
  for (;;) {
    sockaddr_in sa{};
    socklen_t len = sizeof(sa);
    int fd = ::accept4(listener.fd, reinterpret_cast<sockaddr*>(&sa), &len,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto added = add_socket(fd, /*listener=*/false, /*udp=*/false, 0);
    if (!added.ok()) continue;  // add_socket closed the fd
    const uint64_t id = added.value();
    Entry& e = impl_->entries.at(id);
    char ip[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &sa.sin_addr, ip, sizeof(ip));
    e.peer = std::string(ip) + ":" + std::to_string(ntohs(sa.sin_port));
    ++open_conns_;
    ++accepted_total_;
    if (!protocol_.on_open(id, e.peer))
      close_entry(id, CloseReason::kProtocolError);
  }
}

void EventLoop::deliver(Entry& conn) {
  const uint64_t id = conn.id;
  while (!conn.paused && conn.off < conn.buf.size()) {
    const size_t pending = conn.buf.size() - conn.off;
    const size_t used =
        protocol_.on_data(id, conn.buf.data() + conn.off, pending);
    if (used == kAbort) {
      close_entry(id, CloseReason::kProtocolError);
      return;
    }
    if (used == 0) break;  // incomplete frame; wait for more bytes
    conn.off += used > pending ? pending : used;
    // Compact once the consumed prefix dominates, so the buffer does not
    // grow without bound across a long-lived connection.
    if (conn.off == conn.buf.size()) {
      conn.buf.clear();
      conn.off = 0;
    } else if (conn.off > 4096 && conn.off > conn.buf.size() / 2) {
      conn.buf.erase(conn.buf.begin(),
                     conn.buf.begin() + static_cast<ptrdiff_t>(conn.off));
      conn.off = 0;
    }
  }
  // A frame the protocol cannot complete within the buffer cap will never
  // complete at all: treat it as a protocol violation, not backpressure.
  if (!conn.paused && conn.buf.size() - conn.off > opts_.max_conn_buffer)
    close_entry(id, CloseReason::kProtocolError);
}

void EventLoop::read_stream(Entry& conn) {
  const uint64_t id = conn.id;
  std::vector<uint8_t>& chunk = impl_->read_buf;
  for (;;) {
    if (conn.paused) return;  // backpressure: leave bytes in the kernel
    const ssize_t n = ::recv(conn.fd, chunk.data(), chunk.size(), 0);
    if (n > 0) {
      bytes_read_total_ += static_cast<uint64_t>(n);
      conn.window_bytes += static_cast<uint64_t>(n);
      conn.last_activity = mono_now();
      conn.buf.insert(conn.buf.end(), chunk.data(), chunk.data() + n);
      deliver(conn);
      if (impl_->entries.count(id) == 0) return;  // deliver closed it
      continue;
    }
    if (n == 0) {
      // Orderly EOF. Leftover unconsumed bytes mean the peer disconnected
      // mid-record — surface that as a protocol error, not a clean close.
      const bool truncated = conn.off < conn.buf.size();
      close_entry(id, truncated ? CloseReason::kProtocolError
                                : CloseReason::kPeerClosed);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_entry(id, CloseReason::kSocketError);
    return;
  }
}

void EventLoop::read_datagrams(Entry& sock) {
  const uint64_t id = sock.id;
  std::vector<uint8_t>& chunk = impl_->read_buf;
  // Bound one event's drain so a datagram flood cannot starve the tick and
  // the timeout sweeps (the socket stays armed; epoll re-reports).
  for (int i = 0; i < 4096; ++i) {
    const ssize_t n = ::recvfrom(sock.fd, chunk.data(), chunk.size(), 0,
                                 nullptr, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient error: nothing more to drain
    }
    bytes_read_total_ += static_cast<uint64_t>(n);
    sock.last_activity = mono_now();
    protocol_.on_datagram(id, chunk.data(), static_cast<size_t>(n));
    if (impl_->entries.count(id) == 0) return;  // shut down under us
  }
}

void EventLoop::sweep_timeouts(double now) {
  std::vector<std::pair<uint64_t, CloseReason>> doomed;
  for (auto& [id, e] : impl_->entries) {
    if (e.listener || e.udp) continue;
    if (e.paused) continue;  // stalled by our backpressure, not the client
    if (opts_.idle_timeout > 0 && now - e.last_activity > opts_.idle_timeout) {
      doomed.emplace_back(id, CloseReason::kIdleTimeout);
      continue;
    }
    if (opts_.min_bytes_per_sec > 0 && now - e.window_start >= opts_.rate_window) {
      const double elapsed = now - e.window_start;
      const double rate = static_cast<double>(e.window_bytes) / elapsed;
      if (rate < opts_.min_bytes_per_sec) {
        doomed.emplace_back(id, CloseReason::kSlowClient);
        continue;
      }
      e.window_start = now;
      e.window_bytes = 0;
    }
  }
  for (const auto& [id, reason] : doomed) close_entry(id, reason);
}

Result<void> EventLoop::poll_once(int timeout_ms) {
  if (epoll_fd_ < 0)
    return Error::make("EventLoop::poll_once", "init() not called");
  epoll_event events[64];
  const int wait_ms = timeout_ms >= 0 ? timeout_ms : opts_.poll_interval_ms;
  // Spin, then block: a frame that arrives within the budget is picked up
  // without waiting for the loop thread to be woken.
  int n = ::epoll_wait(epoll_fd_, events, 64, 0);
  if (n == 0 && wait_ms != 0) {
    const double spin_until = mono_now() + kSpinBudgetSec;
    while (n == 0 && mono_now() < spin_until)
      n = ::epoll_wait(epoll_fd_, events, 64, 0);
    if (n == 0) {
      ++blocking_waits_total_;
      n = ::epoll_wait(epoll_fd_, events, 64, wait_ms);
    }
  }
  if (n < 0 && errno != EINTR)
    return sys_error("EventLoop::poll_once", "epoll_wait");
  for (int i = 0; i < (n > 0 ? n : 0); ++i) {
    const uint64_t id = events[i].data.u64;
    auto it = impl_->entries.find(id);
    if (it == impl_->entries.end()) continue;  // closed earlier this cycle
    Entry& e = it->second;
    if (e.listener) {
      handle_accept(e);
      continue;
    }
    if (e.udp) {
      read_datagrams(e);
      continue;
    }
    if ((events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) !=
        0) {
      // A HUP/RDHUP still goes through read_stream: it drains whatever the
      // peer sent before closing, then sees the EOF itself.
      if (e.paused && (events[i].events & EPOLLIN) == 0 &&
          (events[i].events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
        // Peer finished sending while we were backpressuring them. The
        // bytes we hold (and whatever sits in the kernel buffer) are
        // still owed to the feed, so do NOT close yet: latch the EOF,
        // disarm the event so level-triggered RDHUP cannot spin, and let
        // resume() drain to the real end-of-stream.
        e.peer_eof = true;
        epoll_event ev{};
        ev.data.u64 = id;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, e.fd, &ev);
        continue;
      }
      read_stream(e);
    }
  }
  sweep_timeouts(mono_now());
  return {};
}

void EventLoop::shutdown(bool abort_connections) {
  shutdown_ = true;
  std::vector<uint64_t> listeners;
  std::vector<uint64_t> conns;
  for (const auto& [id, e] : impl_->entries) {
    if (e.listener || e.udp)
      listeners.push_back(id);
    else
      conns.push_back(id);
  }
  for (uint64_t id : listeners) close_entry(id, CloseReason::kShutdown);
  if (abort_connections)
    for (uint64_t id : conns) close_entry(id, CloseReason::kShutdown);
}

bool EventLoop::drained() const { return shutdown_ && impl_->entries.empty(); }

size_t EventLoop::owned_fds() const {
  return impl_->entries.size() + (epoll_fd_ >= 0 ? 1 : 0);
}

}  // namespace lumen::netio
