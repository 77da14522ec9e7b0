// Gateway front-end tests: loopback TCP/UDP ingestion must score
// bit-identically to local trace replay (one shard and two, with
// frames back to back or paced across the event loop's spin budget, and
// with two connections' records split across reads at odd offsets), the
// malformed-frame corpus must be rejected with exact protocol-error
// accounting while later good streams keep working, slow clients must be
// evicted by the low-and-slow defense, per-tenant deploy() must swap
// exactly one tenant's scorer, backpressure must be lossless on the TCP
// path, and the event loop must leak no file descriptors.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "core/ingest.h"
#include "netio/builder.h"
#include "netio/event_loop.h"
#include "netio/frontend.h"
#include "netio/parse.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace lumen {
namespace {

using core::Alert;
using core::FnScorer;
using core::IngestRuntime;
using core::OverflowPolicy;
using netio::FrontendOptions;
using netio::GatewayFrontend;
using netio::SourcePacket;
using netio::Trace;
using netio::TraceReplaySource;
using netio::WireFormat;

// ---------------------------------------------------------------------------
// Helpers

struct ScoreRecord {
  uint32_t index = 0;
  double score = 0.0;
  bool alerted = false;
  bool operator==(const ScoreRecord&) const = default;
};

class Recorder : public core::AlertSink {
 public:
  void on_alert(const Alert& a) override { alerts.push_back(a); }
  void on_packet(const netio::PacketView& v, double s, bool a) override {
    recs.push_back(ScoreRecord{v.index, s, a});
  }
  std::vector<ScoreRecord> recs;
  std::vector<Alert> alerts;
};

// Deterministic scorer with per-instance streaming state (a mod-7 phase
// counter): identical scores require identical per-consumer packet order,
// which is exactly what the socket-vs-replay identity claim is about.
core::ScorerFactory stateful_factory(double threshold) {
  return [threshold](size_t) {
    auto phase = std::make_shared<uint64_t>(0);
    return std::make_unique<FnScorer>(
        [phase](const netio::PacketView& v) {
          const double k = static_cast<double>((*phase)++ % 7);
          return static_cast<double>(v.index % 97) + 0.01 * k;
        },
        threshold);
  };
}

// Stateless variant for UDP, where loopback delivery order is not
// contractual: scores depend only on the packet, so records can be
// compared after sorting by capture index.
core::ScorerFactory stateless_factory(double threshold) {
  return [threshold](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView& v) {
          return static_cast<double>(v.index % 97);
        },
        threshold);
  };
}

void sort_by_index(std::vector<ScoreRecord>& recs) {
  std::sort(recs.begin(), recs.end(),
            [](const ScoreRecord& a, const ScoreRecord& b) {
              return a.index < b.index;
            });
}

std::vector<uint32_t> alert_indices(const std::vector<Alert>& alerts) {
  std::vector<uint32_t> idx;
  idx.reserve(alerts.size());
  for (const Alert& a : alerts) idx.push_back(a.capture_index);
  std::sort(idx.begin(), idx.end());
  return idx;
}

// Replay-path reference run (the pre-redesign pull pipeline).
Recorder replay_run(const Trace& trace, size_t shards,
                    core::ScorerFactory factory) {
  netio::TraceReplaySource src(trace, {});
  IngestRuntime::Options o;
  o.registry = nullptr;
  o.shards = shards;
  Recorder sink;
  IngestRuntime rt(o, std::move(factory), &sink);
  auto st = rt.run(src);
  EXPECT_TRUE(st.ok());
  return sink;
}

// Raw loopback client for the malformed-frame corpus, the slow-client test
// and the paced streams (send_trace_tcp only speaks the valid protocol, all
// at once). TCP_NODELAY: each send leaves as its own segment, so paced
// sends reach the gateway as separate reads.
int connect_loopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_raw(int fd, const std::vector<uint8_t>& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

// Wait `us` microseconds. Short gaps busy-wait, because a sleep this short
// overshoots by the timer slack (~50 us) and would blur the schedule.
void pause_us(int us) {
  if (us <= 0) return;
  if (us >= 1000) {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
    return;
  }
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

// The LUM1 stream send_trace_tcp would send for trace packets [begin, end):
// hello, one record per packet (original capture index), FIN.
std::vector<uint8_t> tcp_stream(const Trace& trace, size_t begin,
                                size_t end) {
  std::vector<uint8_t> buf;
  netio::append_hello(buf, 0, trace.link);
  for (size_t i = begin; i < end; ++i) {
    netio::append_record(buf, trace.raw[i],
                         static_cast<uint32_t>(trace.view[i].index));
  }
  netio::append_fin(buf);
  return buf;
}

// One record per send, waiting gap_us[i % size] after record i.
void send_paced_tcp(uint16_t port, const Trace& trace,
                    const std::vector<int>& gap_us) {
  const int fd = connect_loopback(port);
  ASSERT_GE(fd, 0);
  std::vector<uint8_t> buf;
  netio::append_hello(buf, 0, trace.link);
  ASSERT_TRUE(send_raw(fd, buf));
  for (size_t i = 0; i < trace.raw.size(); ++i) {
    buf.clear();
    netio::append_record(buf, trace.raw[i],
                         static_cast<uint32_t>(trace.view[i].index));
    ASSERT_TRUE(send_raw(fd, buf));
    pause_us(gap_us[i % gap_us.size()]);
  }
  buf.clear();
  netio::append_fin(buf);
  ASSERT_TRUE(send_raw(fd, buf));
  ::close(fd);
}

// Socket-path run: gateway on an ephemeral loopback port, one client
// thread replaying the trace over TCP — all at once, or one record per send
// on the gap schedule `gap_us` when it is not empty.
Recorder socket_run(const Trace& trace, size_t shards,
                    core::ScorerFactory factory, telemetry::Registry* fe_reg,
                    const std::vector<int>& gap_us = {}) {
  FrontendOptions fo;
  fo.link = trace.link;
  fo.registry = fe_reg;
  telemetry::Registry local;
  if (fo.registry == nullptr) fo.registry = &local;
  GatewayFrontend fe(fo);
  auto bound = fe.bind();
  EXPECT_TRUE(bound.ok());
  std::thread client([&] {
    if (!gap_us.empty()) {
      send_paced_tcp(fe.tcp_port(), trace, gap_us);
      return;
    }
    auto sent = netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), trace, 0);
    EXPECT_TRUE(sent.ok());
  });
  IngestRuntime::Options o;
  o.registry = nullptr;
  o.shards = shards;
  Recorder sink;
  IngestRuntime rt(o, std::move(factory), &sink);
  auto st = rt.run(fe);
  client.join();
  EXPECT_TRUE(st.ok());
  return sink;
}

// n synthetic TCP packets, 10 ms apart, alternating between two flows so
// sharded runs exercise more than one shard.
Trace make_trace(size_t n) {
  const netio::MacAddr mac_a{2, 0, 0, 0, 0, 1};
  const netio::MacAddr mac_b{2, 0, 0, 0, 0, 2};
  Trace t;
  for (size_t i = 0; i < n; ++i) {
    netio::TcpOpts tcp;
    tcp.seq = static_cast<uint32_t>(i);
    const uint16_t sport = i % 2 == 0 ? 1234 : 4321;
    t.raw.push_back(netio::RawPacket{
        100.0 + 0.01 * static_cast<double>(i),
        netio::build_tcp(mac_a, mac_b, 0x0a000001, 0x0a000002, sport, 80, tcp,
                         netio::Bytes(i % 7, 0x61))});
  }
  netio::parse_trace(t);
  return t;
}

size_t count_open_fds() {
  size_t n = 0;
  DIR* d = ::opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

// ---------------------------------------------------------------------------
// Identity: socket ingest must reproduce local replay bit for bit.

TEST(FrontendIdentity, TcpMatchesReplayOnBenchmarkCaptures) {
  for (const char* id : {"P1", "P2", "P3", "P4"}) {
    SCOPED_TRACE(id);
    const trace::Dataset ds = trace::make_dataset(id, 0.2);
    const Recorder ref = replay_run(ds.trace, 1, stateful_factory(50.0));
    const Recorder got = socket_run(ds.trace, 1, stateful_factory(50.0),
                                    nullptr);
    ASSERT_EQ(ref.recs.size(), got.recs.size());
    EXPECT_EQ(ref.recs, got.recs);  // scores, order, and alert flags
    EXPECT_EQ(alert_indices(ref.alerts), alert_indices(got.alerts));
  }
}

TEST(FrontendIdentity, TcpMatchesReplaySharded) {
  for (const char* id : {"P1", "P4"}) {
    SCOPED_TRACE(id);
    const trace::Dataset ds = trace::make_dataset(id, 0.2);
    Recorder ref = replay_run(ds.trace, 2, stateful_factory(50.0));
    Recorder got = socket_run(ds.trace, 2, stateful_factory(50.0), nullptr);
    ASSERT_EQ(ref.recs.size(), got.recs.size());
    // Two consumers interleave sink delivery; the per-packet scores are
    // still deterministic because the flow partition (and therefore each
    // consumer's packet order) is identical in both runs.
    sort_by_index(ref.recs);
    sort_by_index(got.recs);
    EXPECT_EQ(ref.recs, got.recs);
    EXPECT_EQ(alert_indices(ref.alerts), alert_indices(got.alerts));
  }
}

// Inter-frame gaps on both sides of the event loop's 50 us spin budget:
// back to back, ~10 us (caught while spinning), ~200 us (the spin runs out
// and the loop blocks until the frame wakes it) and 21 ms (the blocking
// wait times out at poll_interval_ms and the loop spins again).
TEST(FrontendIdentity, TcpMatchesReplayAcrossSpinBudgetGaps) {
  const Trace trace = make_trace(240);
  const std::vector<int> gap_us = {0, 0, 0, 10, 10, 10, 200, 21000};
  const Recorder ref = replay_run(trace, 1, stateful_factory(50.0));
  telemetry::Registry reg;
  const Recorder got =
      socket_run(trace, 1, stateful_factory(50.0), &reg, gap_us);
  ASSERT_EQ(trace.raw.size(), got.recs.size());
  EXPECT_EQ(ref.recs, got.recs);
  EXPECT_EQ(alert_indices(ref.alerts), alert_indices(got.alerts));
  EXPECT_GT(reg.snapshot().counter_value("frontend.loop.blocking_waits"), 0u);
}

// Two connections share the event loop's one read buffer. Each stream is
// cut into odd-sized pieces that end mid-hello, mid-header and mid-frame,
// and the pieces of the two streams alternate with a pause between sends,
// so every read of one connection lands in the buffer between reads of the
// other while a partial record waits in the first connection's own buffer.
TEST(FrontendIdentity, InterleavedPartialReadsOnTwoConnections) {
  const Trace trace = make_trace(300);
  const size_t half = trace.raw.size() / 2;
  // Stateless but content-sensitive: a frame corrupted in the shared
  // buffer would parse to different fields and score differently.
  auto content_factory = [](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView& v) {
          return static_cast<double>(v.index % 97) +
                 1e-2 * static_cast<double>(v.src_port % 10) +
                 1e-4 * static_cast<double>(v.payload_len) +
                 1e-6 * static_cast<double>(v.tcp_seq % 100) + 1e-9 * v.ts;
        },
        50.0);
  };
  Recorder ref = replay_run(trace, 1, content_factory);

  FrontendOptions fo;
  fo.link = trace.link;
  fo.min_streams = 2;
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  std::thread client([&] {
    const std::vector<uint8_t> stream[2] = {
        tcp_stream(trace, 0, half), tcp_stream(trace, half, trace.raw.size())};
    const int fd[2] = {connect_loopback(fe.tcp_port()),
                       connect_loopback(fe.tcp_port())};
    ASSERT_GE(fd[0], 0);
    ASSERT_GE(fd[1], 0);
    const size_t piece[] = {1, 3, 7, 13, 29, 5, 61, 11, 37};
    size_t off[2] = {0, 0};
    for (size_t k = 0; off[0] < stream[0].size() ||
                       off[1] < stream[1].size();
         ++k) {
      const size_t c = k % 2;
      const size_t n = std::min(piece[(k / 2) % std::size(piece)],
                                stream[c].size() - off[c]);
      if (n == 0) continue;
      ASSERT_TRUE(send_raw(
          fd[c], std::vector<uint8_t>(stream[c].begin() + off[c],
                                      stream[c].begin() + off[c] + n)));
      off[c] += n;
      pause_us(100);
    }
    ::close(fd[0]);
    ::close(fd[1]);
  });
  IngestRuntime::Options o;
  o.registry = nullptr;
  Recorder got;
  IngestRuntime rt(o, content_factory, &got);
  // A stream garbled in the shared buffer never finishes, so the drain
  // goal is never met: stop the run after a deadline and let the identity
  // checks below fail instead of hanging.
  std::atomic<bool> finished{false};
  std::thread watchdog([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!finished.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!finished.load()) rt.request_stop();
  });
  auto st = rt.run(fe);
  finished = true;
  watchdog.join();
  client.join();
  ASSERT_TRUE(st.ok());

  ASSERT_EQ(ref.recs.size(), got.recs.size());
  // Arrival order across the two connections is not contractual; the
  // scorer is stateless, so compare per capture index.
  sort_by_index(ref.recs);
  sort_by_index(got.recs);
  EXPECT_EQ(ref.recs, got.recs);
  EXPECT_EQ(alert_indices(ref.alerts), alert_indices(got.alerts));
  EXPECT_EQ(0u, reg.snapshot().counter_value("frontend.protocol_errors"));
}

TEST(FrontendIdentity, UdpMatchesReplay) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.2);
  Recorder ref = replay_run(ds.trace, 1, stateless_factory(50.0));

  FrontendOptions fo;
  fo.link = ds.trace.link;
  fo.tcp = false;
  fo.udp = true;
  fo.udp_rcvbuf = 8 << 20;
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  std::thread client([&] {
    // Paced sender + large receive buffer: loopback UDP must not shed.
    auto sent = netio::send_trace_udp("127.0.0.1", fe.udp_port(), ds.trace, 0,
                                      0, SIZE_MAX, /*pace_every=*/64,
                                      /*pace_us=*/500);
    EXPECT_TRUE(sent.ok());
  });
  IngestRuntime::Options o;
  o.registry = nullptr;
  o.queue_capacity = 1 << 16;
  Recorder sink;
  IngestRuntime rt(o, stateless_factory(50.0), &sink);
  auto st = rt.run(fe);
  client.join();
  ASSERT_TRUE(st.ok());

  ASSERT_EQ(ref.recs.size(), sink.recs.size());
  sort_by_index(ref.recs);
  sort_by_index(sink.recs);
  EXPECT_EQ(ref.recs, sink.recs);
  EXPECT_EQ(alert_indices(ref.alerts), alert_indices(sink.alerts));
  EXPECT_EQ(0u, reg.snapshot().counter_value("frontend.shed"));
}

// ---------------------------------------------------------------------------
// Malformed-frame corpus

TEST(FrontendProtocol, MalformedStreamsRejectedGoodStreamSurvives) {
  const Trace trace = make_trace(3);
  FrontendOptions fo;
  fo.link = trace.link;
  fo.min_streams = 1;  // the one good stream
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  const uint16_t port = fe.tcp_port();

  std::thread client([&] {
    // 1. Bad magic in the hello.
    {
      const int fd = connect_loopback(port);
      ASSERT_GE(fd, 0);
      std::vector<uint8_t> bad(WireFormat::kHelloBytes, 0xEE);
      send_raw(fd, bad);
      ::close(fd);
    }
    // 2. Oversized frame: incl_len beyond max_frame_bytes.
    {
      const int fd = connect_loopback(port);
      ASSERT_GE(fd, 0);
      std::vector<uint8_t> buf;
      netio::append_hello(buf, 0, trace.link);
      netio::append_record(buf, trace.raw[0], 0);
      // Patch incl_len (record offset 20) to a huge value.
      const size_t rec = WireFormat::kHelloBytes;
      buf[rec + 20] = 0xFF;
      buf[rec + 21] = 0xFF;
      buf[rec + 22] = 0xFF;
      buf[rec + 23] = 0x0F;
      send_raw(fd, buf);
      ::close(fd);
    }
    // 3. Mid-record disconnect: valid hello, then half a record header.
    {
      const int fd = connect_loopback(port);
      ASSERT_GE(fd, 0);
      std::vector<uint8_t> buf;
      netio::append_hello(buf, 0, trace.link);
      std::vector<uint8_t> rec;
      netio::append_record(rec, trace.raw[0], 0);
      buf.insert(buf.end(), rec.begin(), rec.begin() + 9);  // truncated
      send_raw(fd, buf);
      ::close(fd);
    }
    // 4. A good stream afterwards must still ingest cleanly. Give the
    // gateway a beat to process the malformed connections first so the
    // drain goal (1 good stream) cannot outrun their accepts.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto sent = netio::send_trace_tcp("127.0.0.1", port, trace, 0);
    EXPECT_TRUE(sent.ok());
  });

  IngestRuntime::Options o;
  o.registry = nullptr;
  Recorder sink;
  IngestRuntime rt(o, stateless_factory(1e9), &sink);
  auto st = rt.run(fe);
  client.join();
  ASSERT_TRUE(st.ok());

  EXPECT_EQ(trace.raw.size(), sink.recs.size());
  EXPECT_EQ(3u, reg.snapshot().counter_value("frontend.protocol_errors"));
  // The façade invariant must span the socket path.
  const core::IngestStats stats = rt.stats();
  EXPECT_EQ(stats.enqueued - stats.dropped, stats.scored + stats.parse_skipped);

  size_t protocol_closes = 0;
  for (const netio::ConnReport& r : fe.connections()) {
    if (r.close_reason == netio::CloseReason::kProtocolError)
      ++protocol_closes;
  }
  EXPECT_EQ(3u, protocol_closes);
}

// ---------------------------------------------------------------------------
// Slow-client defense

TEST(FrontendTimeout, SlowClientEvicted) {
  const Trace trace = make_trace(4);
  FrontendOptions fo;
  fo.link = trace.link;
  fo.min_streams = 1;
  fo.loop.idle_timeout = 0.5;
  fo.loop.min_bytes_per_sec = 64 * 1024;  // far above a dribbling client
  fo.loop.rate_window = 0.2;
  fo.drain_grace = 5.0;
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  const uint16_t port = fe.tcp_port();

  std::atomic<bool> slow_done{false};
  std::thread slow([&] {
    const int fd = connect_loopback(port);
    if (fd < 0) {
      slow_done = true;
      return;
    }
    std::vector<uint8_t> hello;
    netio::append_hello(hello, 0, trace.link);
    send_raw(fd, hello);
    // Dribble one byte every 80 ms: alive, but far below the rate floor.
    const uint8_t byte = 0;
    for (int i = 0; i < 40; ++i) {
      if (::send(fd, &byte, 1, MSG_NOSIGNAL) <= 0) break;  // evicted
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    ::close(fd);
    slow_done = true;
  });
  std::thread good([&] {
    // Give the slow client a head start so its eviction happens mid-run.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    auto sent = netio::send_trace_tcp("127.0.0.1", port, trace, 0);
    EXPECT_TRUE(sent.ok());
  });

  IngestRuntime::Options o;
  o.registry = nullptr;
  Recorder sink;
  IngestRuntime rt(o, stateless_factory(1e9), &sink);
  auto st = rt.run(fe);
  good.join();
  slow.join();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(slow_done.load());
  EXPECT_EQ(trace.raw.size(), sink.recs.size());

  const telemetry::Snapshot snap = reg.snapshot();
  const uint64_t evicted = snap.counter_value("frontend.conn.slow_closed") +
                           snap.counter_value("frontend.conn.idle_closed");
  EXPECT_GE(evicted, 1u);
  bool saw_eviction = false;
  for (const netio::ConnReport& r : fe.connections()) {
    if (r.close_reason == netio::CloseReason::kSlowClient ||
        r.close_reason == netio::CloseReason::kIdleTimeout)
      saw_eviction = true;
  }
  EXPECT_TRUE(saw_eviction);
}

// ---------------------------------------------------------------------------
// Per-tenant routing and hot swap

TEST(FrontendTenants, DeploySwapsExactlyOneTenant) {
  const Trace trace = make_trace(60);
  const size_t half = trace.raw.size() / 2;

  telemetry::Registry rt_reg;
  IngestRuntime::Options o;
  o.registry = &rt_reg;
  Recorder sink;
  IngestRuntime rt(o, stateless_factory(1e9), &sink);
  const auto never_alerts = stateless_factory(1e9);
  // Post-swap factory: every packet alerts.
  const auto always_alerts = stateless_factory(-1.0);
  ASSERT_TRUE(rt.register_tenant(1, never_alerts));
  ASSERT_TRUE(rt.register_tenant(2, never_alerts));
  EXPECT_FALSE(rt.register_tenant(2, never_alerts));  // duplicate
  EXPECT_FALSE(rt.register_tenant(0, never_alerts));  // default slot

  FrontendOptions fo;
  fo.link = trace.link;
  fo.min_streams = 2;
  telemetry::Registry fe_reg;
  fo.registry = &fe_reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  const uint16_t port = fe.tcp_port();

  std::atomic<bool> resume_tenant2{false};
  std::thread tenant1([&] {
    auto sent = netio::send_trace_tcp("127.0.0.1", port, trace, 1);
    EXPECT_TRUE(sent.ok());
  });
  std::thread tenant2([&] {
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> buf;
    netio::append_hello(buf, 2, trace.link);
    for (size_t i = 0; i < half; ++i) {
      netio::append_record(buf, trace.raw[i],
                           static_cast<uint32_t>(trace.view[i].index));
    }
    ASSERT_TRUE(send_raw(fd, buf));
    while (!resume_tenant2.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    buf.clear();
    for (size_t i = half; i < trace.raw.size(); ++i) {
      netio::append_record(buf, trace.raw[i],
                           static_cast<uint32_t>(trace.view[i].index));
    }
    netio::append_fin(buf);
    ASSERT_TRUE(send_raw(fd, buf));
    ::close(fd);
  });
  std::thread runner([&] {
    auto st = rt.run(fe);
    EXPECT_TRUE(st.ok());
  });

  // Wait until tenant 2's first half has been scored under the original
  // (never-alerting) scorer, swap that tenant alone, then release the
  // second half.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rt_reg.snapshot().counter_value("ingest.tenant2.scored") < half) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(rt.deploy(2, always_alerts));
  EXPECT_FALSE(rt.deploy(7, always_alerts));  // never registered
  resume_tenant2 = true;

  tenant1.join();
  tenant2.join();
  runner.join();

  // Exactly tenant 2's second half alerted; tenant 1 was untouched.
  ASSERT_EQ(trace.raw.size() - half, sink.alerts.size());
  for (const Alert& a : sink.alerts) {
    EXPECT_EQ(2u, a.tenant);
    EXPECT_GE(a.capture_index, half);
  }
  const telemetry::Snapshot snap = rt_reg.snapshot();
  EXPECT_EQ(trace.raw.size(), snap.counter_value("ingest.tenant1.scored"));
  EXPECT_EQ(trace.raw.size(), snap.counter_value("ingest.tenant2.scored"));
  EXPECT_EQ(0u, snap.counter_value("ingest.tenant1.alerted"));
  EXPECT_EQ(trace.raw.size() - half,
            snap.counter_value("ingest.tenant2.alerted"));
  EXPECT_EQ(1u, snap.counter_value("ingest.tenant2.swaps_applied"));
  EXPECT_EQ(0u, snap.counter_value("ingest.tenant1.swaps_applied"));
}

// ---------------------------------------------------------------------------
// Backpressure

TEST(FrontendBackpressure, TcpPauseIsLossless) {
  const Trace trace = make_trace(3000);
  // Tiny queue + per-packet claims force sustained kBusy at the feed: the
  // gateway must stage, pause the socket, and deliver every frame anyway.
  IngestRuntime::Options o;
  o.registry = nullptr;
  o.queue_capacity = 8;
  o.consumer_batch = 1;
  Recorder sink;
  IngestRuntime rt(o, stateful_factory(50.0), &sink);

  FrontendOptions fo;
  fo.link = trace.link;
  fo.pending_frames = 64;
  fo.loop.poll_interval_ms = 1;
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  std::thread client([&] {
    auto sent = netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), trace, 0);
    EXPECT_TRUE(sent.ok());
  });
  auto st = rt.run(fe);
  client.join();
  ASSERT_TRUE(st.ok());

  ASSERT_EQ(trace.raw.size(), sink.recs.size());
  Recorder ref = replay_run(trace, 1, stateful_factory(50.0));
  EXPECT_EQ(ref.recs, sink.recs);
  EXPECT_EQ(0u, reg.snapshot().counter_value("frontend.shed"));
}

TEST(FrontendBackpressure, ShedModeAccountsEveryFrame) {
  const Trace trace = make_trace(2000);
  IngestRuntime::Options o;
  o.registry = nullptr;
  o.queue_capacity = 4;
  o.consumer_batch = 1;
  Recorder sink;
  // A deliberately slow scorer so the feed saturates.
  auto slow_factory = [](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView& v) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
          return static_cast<double>(v.index % 97);
        },
        1e9);
  };
  IngestRuntime rt(o, slow_factory, &sink);

  FrontendOptions fo;
  fo.link = trace.link;
  fo.pending_frames = 8;
  fo.shed_when_saturated = true;
  fo.loop.poll_interval_ms = 1;
  telemetry::Registry reg;
  fo.registry = &reg;
  GatewayFrontend fe(fo);
  ASSERT_TRUE(fe.bind().ok());
  std::thread client([&] {
    auto sent = netio::send_trace_tcp("127.0.0.1", fe.tcp_port(), trace, 0);
    EXPECT_TRUE(sent.ok());
  });
  auto st = rt.run(fe);
  client.join();
  ASSERT_TRUE(st.ok());

  // Exact per-connection accounting: every frame the wire carried is
  // either scored or counted shed, and the runtime's conservation
  // invariant spans the socket path.
  uint64_t frames = 0, shed = 0;
  for (const netio::ConnReport& r : fe.connections()) {
    frames += r.frames;
    shed += r.shed;
  }
  EXPECT_EQ(trace.raw.size(), frames);
  EXPECT_EQ(shed, reg.snapshot().counter_value("frontend.shed"));
  const core::IngestStats stats = rt.stats();
  EXPECT_EQ(trace.raw.size(), stats.enqueued);
  EXPECT_EQ(shed, stats.dropped);
  EXPECT_EQ(stats.enqueued - stats.dropped,
            stats.scored + stats.parse_skipped);
  EXPECT_EQ(trace.raw.size() - shed, sink.recs.size());
}

// ---------------------------------------------------------------------------
// Resource hygiene

TEST(FrontendHygiene, NoLeakedFileDescriptors) {
  const Trace trace = make_trace(50);
  // Warm-up run absorbs lazily-created process-wide fds.
  socket_run(trace, 1, stateless_factory(1e9), nullptr);
  const size_t before = count_open_fds();
  for (int i = 0; i < 3; ++i) {
    socket_run(trace, 1, stateless_factory(1e9), nullptr);
  }
  EXPECT_EQ(before, count_open_fds());
}

// ---------------------------------------------------------------------------
// Overflow policy

TEST(OverflowPolicyTest, SurvivingPoliciesPassNormalizationUntouched) {
  // kBlock and kDropNewest are the whole policy set and both exist on an
  // SPSC ring, so normalization never rewrites one: no diagnostic line.
  for (const OverflowPolicy p :
       {OverflowPolicy::kBlock, OverflowPolicy::kDropNewest}) {
    IngestRuntime::Options o;
    o.shards = 2;
    o.overflow = p;
    std::string diag = "sentinel";
    EXPECT_EQ(p, IngestRuntime::Options::normalized(o, &diag).overflow);
    EXPECT_EQ("", diag);
  }

  EXPECT_STREQ("kDropNewest",
               core::overflow_policy_name(OverflowPolicy::kDropNewest));
  EXPECT_STREQ("kBlock", core::overflow_policy_name(OverflowPolicy::kBlock));
}

}  // namespace
}  // namespace lumen
