// Nonblocking socket engine for the gateway front-end: one epoll instance
// owning every listener, TCP connection, and UDP socket, dispatched from a
// single thread (the ingest producer thread drives it, so packets flow into
// the runtime's conduits without a hand-off hop).
//
// Design points, in the order they bite in production:
//   - accept4(SOCK_NONBLOCK) in a drain loop: a burst of connections on one
//     readiness event must all be accepted before returning to epoll_wait,
//     or edge-triggered mode strands the remainder.
//   - Edge-triggered reads are the only mode (one wakeup per burst): every
//     read drains to EAGAIN. A paused connection (backpressure) drops
//     EPOLLIN from its interest set, and resume() must re-attempt a read
//     directly because the edge that announced those bytes has already
//     fired.
//   - Spin, then block. When the caller allows a blocking wait, poll_once
//     first polls epoll without blocking for a fixed 50 us budget, and only
//     then blocks in epoll_wait (blocking_waits_total() counts those). At
//     light load a gateway sees a frame about every 10 us, so the loop
//     thread stays awake between frames instead of being woken for each
//     one. The cost is one busy core while frames arrive closer together
//     than the budget; at idle the loop still sleeps, and each idle tick
//     spends at most one budget polling.
//   - One read buffer of read_chunk bytes, allocated once and shared by
//     every socket. Bytes are copied into the connection's own buffer
//     before the protocol sees them; sharing is safe only while no
//     Protocol callback re-enters the loop's read path.
//   - Low-and-slow defense in the style of slowloris mitigations: clients
//     that hold a connection while dribbling bytes below a configurable
//     rate floor are closed (kSlowClient), and wholly idle connections are
//     closed after idle_timeout (kIdleTimeout). Both sweeps run on the
//     poll tick, so the loop never needs per-connection timers.
//   - Graceful drain: shutdown() closes the listeners but lets established
//     connections finish; drained() reports when the fd table is empty.
//     Every fd the loop ever opened is closed by close time — teardown
//     paths all funnel through one close_locked().
//
// The loop is transport-only: it hands byte ranges to a Protocol callback
// and never interprets framing. The gateway front-end (frontend.h) layers
// the record format, tenant auth, and feed backpressure on top.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"

namespace lumen::netio {

/// Why a connection was closed; reported to Protocol::on_close and counted
/// by the front-end's telemetry.
enum class CloseReason : uint8_t {
  kPeerClosed = 0,   // orderly EOF from the peer
  kProtocolError,    // the protocol layer rejected the stream
  kIdleTimeout,      // no bytes for longer than idle_timeout
  kSlowClient,       // low-and-slow: sustained rate below min_bytes_per_sec
  kShutdown,         // loop torn down with connections still open
  kSocketError,      // read failed or the peer reset
};

const char* close_reason_name(CloseReason r);

class EventLoop {
 public:
  struct Options {
    /// Close a connection after this many seconds without any bytes.
    /// 0 disables the idle sweep.
    double idle_timeout = 30.0;
    /// Low-and-slow floor: a connection older than one rate window whose
    /// average rate over the last window fell below this is closed.
    /// 0 disables the rate sweep.
    double min_bytes_per_sec = 0.0;
    /// Length of the rate-measurement window in seconds. The first window
    /// doubles as the grace period before enforcement starts.
    double rate_window = 5.0;
    /// Size of the loop's one read buffer; a readiness event reads in
    /// chunks of this size until EAGAIN.
    size_t read_chunk = 64 * 1024;
    /// Cap on bytes buffered for one connection awaiting protocol consume
    /// (a frame bigger than this can never complete -> kProtocolError).
    size_t max_conn_buffer = 1 << 20;
    /// Blocking epoll_wait timeout (after the spin budget): bounds the
    /// latency of timeout sweeps when no socket activity arrives.
    int poll_interval_ms = 20;

    static Options normalized(Options opts, std::string* diagnostic);
  };

  /// The framing/auth layer the loop reports to. All callbacks fire on the
  /// thread running poll_once(); ids are loop-scoped and never reused.
  class Protocol {
   public:
    virtual ~Protocol() = default;
    /// New TCP connection accepted. Return false to refuse (closed
    /// immediately with kProtocolError, on_close still delivered).
    virtual bool on_open(uint64_t conn, const std::string& peer) {
      (void)conn;
      (void)peer;
      return true;
    }
    /// Buffered stream bytes for `conn`. Return how many bytes were
    /// consumed from the front; the remainder is kept and re-presented
    /// once more bytes arrive. Return kAbort to kill the connection.
    virtual size_t on_data(uint64_t conn, const uint8_t* data, size_t n) = 0;
    /// One UDP datagram on socket `sock` (id from open_udp).
    virtual void on_datagram(uint64_t sock, const uint8_t* data, size_t n) {
      (void)sock;
      (void)data;
      (void)n;
    }
    virtual void on_close(uint64_t conn, CloseReason reason) {
      (void)conn;
      (void)reason;
    }
  };
  static constexpr size_t kAbort = static_cast<size_t>(-1);

  EventLoop(Options opts, Protocol& protocol);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Create the epoll instance. Must succeed before listen/open/poll.
  Result<void> init();

  /// Bind + listen on addr:port (port 0 = ephemeral); returns the listener
  /// id. The bound port is recoverable via port_of().
  Result<uint64_t> listen_tcp(const std::string& addr, uint16_t port);

  /// Bind a UDP socket; datagrams arrive via Protocol::on_datagram.
  Result<uint64_t> open_udp(const std::string& addr, uint16_t port,
                            size_t rcvbuf_bytes = 0);

  /// Bound port of a listener/UDP id (0 if unknown).
  uint16_t port_of(uint64_t id) const;

  /// Backpressure: stop reading `conn` (drops EPOLLIN). The kernel socket
  /// buffer then fills and TCP flow control pushes back on the client.
  void pause(uint64_t conn);
  /// Re-arm reads and immediately drain anything that arrived while
  /// paused (required for ET correctness).
  void resume(uint64_t conn);

  void close_conn(uint64_t conn, CloseReason reason);

  /// Run one wait/dispatch/sweep cycle: spin for the budget, then block at
  /// most poll_interval_ms, or `timeout_ms` when >= 0 — pass 0 for a
  /// non-blocking poll (no spin) while the caller has its own pending work
  /// to get back to. Safe to call after shutdown() to drain remaining
  /// connections.
  Result<void> poll_once(int timeout_ms = -1);

  /// Graceful drain: close listeners (and UDP sockets) so no new traffic
  /// arrives; established connections keep draining via poll_once().
  /// abort_connections = true also closes every open connection now.
  void shutdown(bool abort_connections);

  /// True once shutdown() ran and no connections remain.
  bool drained() const;

  size_t open_connections() const { return open_conns_; }
  uint64_t accepted_total() const { return accepted_total_; }
  uint64_t idle_closed_total() const { return idle_closed_total_; }
  uint64_t slow_closed_total() const { return slow_closed_total_; }
  uint64_t bytes_read_total() const { return bytes_read_total_; }
  /// poll_once calls whose spin budget ran out so they blocked in
  /// epoll_wait.
  uint64_t blocking_waits_total() const { return blocking_waits_total_; }

  /// Number of fds the loop currently owns (epoll + listeners + conns);
  /// 0 after teardown — the fd-hygiene tests assert through this.
  size_t owned_fds() const;

 private:
  struct Entry;

  Result<uint64_t> add_socket(int fd, bool listener, bool udp, uint16_t port);
  void handle_accept(Entry& listener);
  void handle_readable(uint64_t id);
  void read_stream(Entry& conn);
  void read_datagrams(Entry& sock);
  void deliver(Entry& conn);
  void sweep_timeouts(double now);
  void close_entry(uint64_t id, CloseReason reason);

  Options opts_;
  Protocol& protocol_;
  int epoll_fd_ = -1;
  uint64_t next_id_ = 1;
  // Flat id -> entry table; ids are dense enough that a vector of
  // (id, entry) with linear scan would also do, but a map keeps erase O(1)
  // and the fd counts here are small (one gateway, tens of connections).
  struct Impl;
  Impl* impl_;  // owns the entry map (keeps <unordered_map> out of the API)
  bool shutdown_ = false;
  size_t open_conns_ = 0;
  uint64_t accepted_total_ = 0;
  uint64_t idle_closed_total_ = 0;
  uint64_t slow_closed_total_ = 0;
  uint64_t bytes_read_total_ = 0;
  uint64_t blocking_waits_total_ = 0;
};

}  // namespace lumen::netio
