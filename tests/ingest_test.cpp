// Ingestion runtime tests: packet sources (replay, pacing, fault
// injection), end-to-end runtime runs over the shard rings, drop
// accounting, and the paced-vs-unpaced determinism the gateway story
// depends on. The ring itself is covered by spsc_ring_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "common/telemetry.h"
#include "core/ingest.h"
#include "netio/builder.h"
#include "netio/parse.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace lumen {
namespace {

using core::CollectingSink;
using core::FnScorer;
using core::IngestRuntime;
using core::IngestStats;
using core::OverflowPolicy;
using netio::Bytes;
using netio::FaultInjectingSource;
using netio::FaultOptions;
using netio::MacAddr;
using netio::RawPacket;
using netio::ReplayOptions;
using netio::SourcePacket;
using netio::Trace;
using netio::TraceReplaySource;

const MacAddr kMacA{2, 0, 0, 0, 0, 1};
const MacAddr kMacB{2, 0, 0, 0, 0, 2};

// n valid TCP packets, 10 ms apart, payload size cycling 0..6.
Trace make_trace(size_t n) {
  Trace t;
  for (size_t i = 0; i < n; ++i) {
    netio::TcpOpts tcp;
    tcp.seq = static_cast<uint32_t>(i);
    t.raw.push_back(RawPacket{
        100.0 + 0.01 * static_cast<double>(i),
        netio::build_tcp(kMacA, kMacB, 0x0a000001, 0x0a000002, 1234, 80, tcp,
                         Bytes(i % 7, 0x61))});
  }
  netio::parse_trace(t);
  return t;
}

TEST(Source, TraceReplayYieldsAllPacketsInOrder) {
  Trace t = make_trace(10);
  TraceReplaySource src(t);
  SourcePacket p;
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(src.next(p));
    EXPECT_EQ(p.capture_index, i);
    EXPECT_EQ(p.pkt.data, t.raw[i].data);
  }
  EXPECT_FALSE(src.next(p));
  ASSERT_TRUE(src.reset());
  ASSERT_TRUE(src.next(p));
  EXPECT_EQ(p.capture_index, 0u);
}

TEST(Source, TraceReplayHonorsRange) {
  Trace t = make_trace(10);
  ReplayOptions opts;
  opts.begin = 4;
  opts.end = 7;
  TraceReplaySource src(t, opts);
  SourcePacket p;
  size_t n = 0;
  uint32_t first = 0;
  while (src.next(p)) {
    if (n == 0) first = p.capture_index;
    ++n;
  }
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(first, 4u);
}

TEST(Source, ReplayKeepsOriginalCaptureIndexAfterSkips) {
  Trace t = make_trace(5);
  // Wreck packet 2 so parse_trace drops it, then replay the compacted trace.
  t.raw[2].data.resize(6);
  ASSERT_EQ(netio::parse_trace(t), 1u);
  ASSERT_EQ(t.raw.size(), 4u);
  TraceReplaySource src(t);
  SourcePacket p;
  std::vector<uint32_t> seen;
  while (src.next(p)) seen.push_back(p.capture_index);
  EXPECT_EQ(seen, (std::vector<uint32_t>{0, 1, 3, 4}));
}

TEST(Source, FaultInjectionIsDeterministicPerSeed) {
  Trace t = make_trace(200);
  FaultOptions faults;
  faults.truncate_p = 0.2;
  faults.corrupt_p = 0.2;
  faults.reorder_p = 0.1;
  faults.seed = 42;

  auto collect = [&] {
    TraceReplaySource inner(t);
    FaultInjectingSource src(inner, faults);
    std::vector<SourcePacket> out;
    SourcePacket p;
    while (src.next(p)) out.push_back(p);
    return out;
  };
  const auto a = collect();
  const auto b = collect();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), t.raw.size());  // reorder never loses packets
  size_t mutated = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].capture_index, b[i].capture_index);
    EXPECT_EQ(a[i].pkt.data, b[i].pkt.data);
    if (a[i].pkt.data != t.raw[a[i].capture_index].data) ++mutated;
  }
  EXPECT_GT(mutated, 0u);
}

TEST(Source, FaultSourceResetReplaysIdentically) {
  Trace t = make_trace(50);
  TraceReplaySource inner(t);
  FaultOptions faults;
  faults.truncate_p = 0.3;
  faults.seed = 7;
  FaultInjectingSource src(inner, faults);
  std::vector<Bytes> first;
  SourcePacket p;
  while (src.next(p)) first.push_back(p.pkt.data);
  ASSERT_TRUE(src.reset());
  size_t i = 0;
  while (src.next(p)) {
    ASSERT_LT(i, first.size());
    EXPECT_EQ(p.pkt.data, first[i++]);
  }
  EXPECT_EQ(i, first.size());
}

// A trivial deterministic scorer: alert on any payload-carrying packet.
core::ScorerFactory payload_scorer() {
  return [](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView& v) {
          return static_cast<double>(v.payload_len);
        },
        0.5);
  };
}

TEST(Runtime, ScoresEveryPacketAndCountsAlerts) {
  Trace t = make_trace(21);  // payload sizes cycle 0..6: 18 of 21 non-empty
  TraceReplaySource src(t);
  CollectingSink sink;
  IngestRuntime rt(IngestRuntime::Options{}, payload_scorer(), &sink);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().enqueued, 21u);
  EXPECT_EQ(stats.value().scored, 21u);
  EXPECT_EQ(stats.value().parse_skipped, 0u);
  EXPECT_EQ(stats.value().dropped, 0u);
  EXPECT_EQ(stats.value().alerted, 18u);
  EXPECT_EQ(sink.alerts().size(), 18u);
  EXPECT_GE(stats.value().queue_high_water, 1u);
}

TEST(Runtime, MultiConsumerConservesPackets) {
  Trace t = make_trace(400);
  for (size_t shards : {2u, 4u}) {
    TraceReplaySource src(t);
    IngestRuntime::Options opts;
    opts.shards = shards;
    CollectingSink sink;
    IngestRuntime rt(opts, payload_scorer(), &sink);
    auto stats = rt.run(src);
    ASSERT_TRUE(stats.ok());
    const IngestStats& s = stats.value();
    EXPECT_EQ(s.enqueued, 400u);
    EXPECT_EQ(s.scored + s.parse_skipped, s.enqueued - s.dropped);
    // The scorer is stateless, so alerts are partition-independent.
    EXPECT_EQ(s.alerted, 400u * 6 / 7);
  }
}

TEST(Runtime, FaultySourceSkipsUnparseableKeepsRest) {
  Trace t = make_trace(300);
  TraceReplaySource inner(t);
  FaultOptions faults;
  faults.truncate_p = 0.3;
  faults.seed = 11;
  FaultInjectingSource src(inner, faults);
  CollectingSink sink;
  IngestRuntime rt(IngestRuntime::Options{}, payload_scorer(), &sink);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  const IngestStats& s = stats.value();
  EXPECT_EQ(s.enqueued, 300u);
  EXPECT_GT(s.parse_skipped, 0u);
  EXPECT_EQ(s.scored + s.parse_skipped, 300u);
}

TEST(Runtime, PacedAndUnpacedReplayAlertIdentically) {
  Trace t = make_trace(150);
  auto run_with = [&](bool pace) {
    ReplayOptions opts;
    opts.pace = pace;
    opts.speed = 200.0;  // 10 ms gaps replay as 50 µs
    opts.max_sleep = 0.001;
    TraceReplaySource src(t, opts);
    CollectingSink sink;
    IngestRuntime rt(IngestRuntime::Options{}, payload_scorer(), &sink);
    auto stats = rt.run(src);
    EXPECT_TRUE(stats.ok());
    return sink.alerts().size();
  };
  EXPECT_EQ(run_with(false), run_with(true));
}

TEST(Runtime, KitsuneScorerDetectsOnTheStream) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.1);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  core::OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});

  ReplayOptions replay;
  replay.begin = grace;
  TraceReplaySource src(ds.trace, replay);
  CollectingSink sink;
  IngestRuntime rt(
      IngestRuntime::Options{},
      [&proto](size_t) { return std::make_unique<core::KitsuneScorer>(proto); },
      &sink);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().scored, ds.trace.view.size() - grace);
  // The detector must fire on the Mirai segment of the capture.
  EXPECT_GT(stats.value().alerted, 0u);
  for (const core::Alert& a : sink.alerts()) {
    EXPECT_GT(a.score, a.threshold);
    EXPECT_GE(a.capture_index, grace);
    EXPECT_LT(a.capture_index, ds.trace.view.size());
  }
}

TEST(Runtime, RequestStopWindsDownGracefully) {
  Trace t = make_trace(5000);
  TraceReplaySource src(t);
  IngestRuntime::Options opts;
  opts.shards = 2;
  opts.queue_capacity = 8;
  IngestRuntime rt(opts, payload_scorer(), nullptr);
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    rt.request_stop();
  });
  auto stats = rt.run(src);
  stopper.join();
  ASSERT_TRUE(stats.ok());
  // Everything accepted was accounted for, even though we stopped early.
  const IngestStats& s = stats.value();
  EXPECT_EQ(s.scored + s.parse_skipped, s.enqueued - s.dropped);
}

// The exact alert set must not depend on the batching knob: batch size
// only changes lock amortization, never which packets alert.
TEST(Runtime, BatchedAlertFlushPreservesAlertSet) {
  Trace t = make_trace(300);

  // Ground truth: score the parsed views directly, packet at a time.
  std::vector<uint32_t> expected;
  for (const auto& v : t.view) {
    if (v.payload_len > 0.5) expected.push_back(v.index);
  }

  for (size_t batch : {1u, 7u, 64u, 1024u}) {
    TraceReplaySource src(t);
    IngestRuntime::Options opts;
    opts.consumer_batch = batch;
    CollectingSink sink;
    IngestRuntime rt(opts, payload_scorer(), &sink);
    auto stats = rt.run(src);
    ASSERT_TRUE(stats.ok());
    std::vector<uint32_t> got;
    for (const core::Alert& a : sink.alerts()) got.push_back(a.capture_index);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "consumer_batch=" << batch;
    EXPECT_EQ(stats.value().alerted, expected.size());
    EXPECT_EQ(stats.value().scored, 300u);
  }
}

TEST(Runtime, MultiConsumerBatchedFlushConservesAlerts) {
  Trace t = make_trace(500);
  size_t expected_alerts = 0;
  for (const auto& v : t.view) expected_alerts += v.payload_len > 0 ? 1 : 0;
  for (size_t shards : {2u, 4u}) {
    TraceReplaySource src(t);
    IngestRuntime::Options opts;
    opts.shards = shards;
    opts.consumer_batch = 16;
    CollectingSink sink;
    IngestRuntime rt(opts, payload_scorer(), &sink);
    auto stats = rt.run(src);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().scored, 500u);
    EXPECT_EQ(sink.alerts().size(), stats.value().alerted);
    EXPECT_EQ(stats.value().alerted, expected_alerts);
  }
}

// The IngestStats façade must read back exactly what the registry holds:
// same run, same numbers, whether consumed through stats() or a Snapshot.
TEST(Runtime, StatsRoundTripThroughTelemetrySnapshot) {
  Trace t = make_trace(210);
  TraceReplaySource src(t);
  telemetry::Registry reg;
  IngestRuntime::Options opts;
  opts.shards = 2;
  opts.consumer_batch = 16;
  opts.registry = &reg;
  opts.instrument_prefix = "t.";
  CollectingSink sink;
  IngestRuntime rt(opts, payload_scorer(), &sink);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  const IngestStats& s = stats.value();
  EXPECT_EQ(s.enqueued, 210u);
  EXPECT_EQ(s.scored, 210u);

  const telemetry::Snapshot snap = rt.registry().snapshot();
  EXPECT_EQ(snap.counter_value("t.enqueued"), s.enqueued);
  EXPECT_EQ(snap.counter_value("t.dropped"), s.dropped);
  EXPECT_EQ(snap.counter_value("t.parse_skipped"), s.parse_skipped);
  EXPECT_EQ(snap.counter_value("t.scored"), s.scored);
  EXPECT_EQ(snap.counter_value("t.alerted"), s.alerted);
  EXPECT_EQ(static_cast<size_t>(snap.gauge_value("t.queue.high_water")),
            s.queue_high_water);
  // Per-stage latency histograms saw the run (one sample per batch).
  for (const char* name :
       {"t.stage.extract_ns", "t.stage.score_ns", "t.stage.flush_ns"}) {
    const telemetry::HistogramSample* h = snap.find_histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count, 0u) << name;
  }
}

// Consecutive runs on one runtime must each report per-run numbers even
// though the underlying registry counters are cumulative.
TEST(Runtime, StatsAreDeltasPerRun) {
  Trace t = make_trace(140);
  telemetry::Registry reg;
  IngestRuntime::Options opts;
  opts.registry = &reg;
  IngestRuntime rt(opts, payload_scorer(), nullptr);
  for (int run = 0; run < 2; ++run) {
    TraceReplaySource src(t);
    auto stats = rt.run(src);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().enqueued, 140u);
    EXPECT_EQ(stats.value().scored, 140u);
  }
  // The registry itself is cumulative across both runs.
  EXPECT_EQ(reg.snapshot().counter_value("ingest.scored"), 280u);
}

// Options.registry == nullptr (the uninstrumented baseline) must still
// produce full, correct stats through the runtime-local registry.
TEST(Runtime, NullRegistryStillAccounts) {
  Trace t = make_trace(63);
  TraceReplaySource src(t);
  IngestRuntime::Options opts;
  opts.registry = nullptr;
  opts.queue_capacity = 4;
  opts.overflow = OverflowPolicy::kDropNewest;
  IngestRuntime rt(opts, payload_scorer(), nullptr);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  const IngestStats& s = stats.value();
  EXPECT_EQ(s.enqueued, 63u);
  EXPECT_EQ(s.scored + s.parse_skipped, s.enqueued - s.dropped);
  EXPECT_GE(s.queue_high_water, 1u);
  // Extended instruments are skipped in this mode.
  EXPECT_EQ(rt.registry().snapshot().find_histogram("ingest.stage.extract_ns"),
            nullptr);
}

// Regression: back-to-back runs against one shared registry used to leak
// the previous run's queue.high_water gauge (and with it the stats façade's
// ring numbers) into the next run, because gauges — unlike counters — are
// absolute and were never re-zeroed when a run started. Force drops
// in every run and check each run's accounting closes on its own numbers.
TEST(Runtime, TwoRunsOneRegistryKeepDropAccountingExact) {
  Trace t = make_trace(160);
  telemetry::Registry reg;
  IngestRuntime::Options opts;
  opts.queue_capacity = 4;
  opts.overflow = OverflowPolicy::kDropNewest;
  opts.registry = &reg;
  opts.instrument_prefix = "shared.";
  auto slow = [](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView&) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          return 0.0;
        },
        1.0);
  };

  // Same runtime, reused; then a second runtime on the same registry and
  // prefix (the "fleet of gateways sharing one exporter" shape).
  uint64_t total_enqueued = 0, total_dropped = 0, total_scored = 0,
           total_skipped = 0;
  IngestStats last{};
  IngestRuntime reused(opts, slow, nullptr);
  for (int run = 0; run < 2; ++run) {
    TraceReplaySource src(t);
    auto stats = reused.run(src);
    ASSERT_TRUE(stats.ok());
    const IngestStats& s = stats.value();
    EXPECT_EQ(s.enqueued, 160u) << "run " << run;
    EXPECT_EQ(s.scored + s.parse_skipped + s.dropped, s.enqueued)
        << "run " << run;
    EXPECT_GT(s.dropped, 0u) << "run " << run;  // the tiny ring overflowed
    EXPECT_LE(s.queue_high_water, 4u) << "run " << run;
    total_enqueued += s.enqueued;
    total_dropped += s.dropped;
    total_scored += s.scored;
    total_skipped += s.parse_skipped;
    last = s;
  }
  {
    IngestRuntime second(opts, slow, nullptr);
    TraceReplaySource src(t);
    auto stats = second.run(src);
    ASSERT_TRUE(stats.ok());
    const IngestStats& s = stats.value();
    EXPECT_EQ(s.scored + s.parse_skipped + s.dropped, s.enqueued);
    EXPECT_GT(s.dropped, 0u);
    total_enqueued += s.enqueued;
    total_dropped += s.dropped;
    total_scored += s.scored;
    total_skipped += s.parse_skipped;
    last = s;
  }

  // The shared registry accumulated across all three runs; the gauge is
  // absolute and must reflect only the LAST run (the regression fixed).
  const telemetry::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("shared.enqueued"), total_enqueued);
  EXPECT_EQ(snap.counter_value("shared.dropped"), total_dropped);
  EXPECT_EQ(snap.counter_value("shared.scored"), total_scored);
  EXPECT_EQ(snap.counter_value("shared.parse_skipped"), total_skipped);
  EXPECT_EQ(static_cast<size_t>(snap.gauge_value("shared.queue.high_water")),
            last.queue_high_water);
  // Rings publish no live depth gauge (it could only ever read 0).
  EXPECT_EQ(snap.find_gauge("shared.queue.depth"), nullptr);
}

TEST(Runtime, ConsumerExceptionPropagatesToCaller) {
  Trace t = make_trace(50);
  TraceReplaySource src(t);
  auto throwing = [](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView&) -> double {
          throw std::runtime_error("scorer blew up");
        },
        1.0);
  };
  IngestRuntime rt(IngestRuntime::Options{}, throwing, nullptr);
  EXPECT_THROW((void)rt.run(src), std::runtime_error);
  // The failed run is over: the runtime accepts tenants again.
  EXPECT_TRUE(rt.register_tenant(7, payload_scorer()));
}

}  // namespace
}  // namespace lumen
