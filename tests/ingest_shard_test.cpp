// Flow-sharded ingestion: golden equivalence, routing invariants, drop
// accounting, per-shard telemetry, hot-swap, and Options normalization.
//
// The equivalence anchor mirrors PR 6's ingest_batch_equiv_test, adapted
// to what sharding can actually promise. FlowShardRouter::shard_of is a
// pure function of (frame bytes, link, shard count), so the N-shard
// partition of any packet sequence is deterministic — and a concurrent
// N-shard run must be bit-identical to scoring each shard's subsequence
// sequentially with a fresh detector. That reference is scheduling-free:
// it pins that concurrency, ring capacity, and batching add zero
// divergence on top of the (deterministic) partition itself. At shards=1
// the reference is the one-detector sequential run over the whole stream:
// the router routes everything to shard 0 in arrival order.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/telemetry.h"
#include "core/ingest.h"
#include "core/stream.h"
#include "netio/builder.h"
#include "netio/parse.h"
#include "netio/source.h"
#include "trace/registry.h"

namespace lumen {
namespace {

using core::CollectingSink;
using core::FlowShardRouter;
using core::FnScorer;
using core::IngestRuntime;
using core::IngestStats;
using core::KitsuneScorer;
using core::OnlineKitsune;
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

class RecordingSink : public core::AlertSink {
 public:
  void on_alert(const core::Alert& alert) override {
    alerts.push_back(alert.capture_index);
  }
  void on_packet(const netio::PacketView& view, double score,
                 bool /*alerted*/) override {
    packets.emplace_back(view.index, score);
  }

  std::vector<uint32_t> alerts;
  std::vector<std::pair<uint32_t, double>> packets;
};

struct RunResult {
  std::vector<uint32_t> alerts;
  std::vector<std::pair<uint32_t, double>> packets;
};

/// Canonical order for comparing runs whose delivery order interleaves
/// shards nondeterministically: capture indices are unique, so sorting by
/// (index, score) is a total order that still compares scores bit-exactly.
void canonicalize(RunResult& r) {
  std::sort(r.packets.begin(), r.packets.end());
  std::sort(r.alerts.begin(), r.alerts.end());
}

/// The scheduling-free reference: materialize the stream, partition it
/// with the same router the runtime uses, and score each shard's
/// subsequence sequentially with a fresh detector copy.
RunResult reference_partition(const OnlineKitsune& proto,
                              netio::PacketSource& source, size_t shards) {
  std::vector<SourcePacket> all;
  SourcePacket sp;
  while (source.next(sp)) all.push_back(sp);
  const FlowShardRouter router(shards, source.link());
  RunResult r;
  for (size_t s = 0; s < shards; ++s) {
    KitsuneScorer scorer(proto);
    for (const SourcePacket& p : all) {
      if (router.shard_of(p.pkt) != s) continue;
      auto v = netio::parse_packet(p.pkt, source.link(), p.capture_index);
      if (!v.ok()) continue;
      const netio::PacketView view = v.value();
      double score = 0.0;
      scorer.score_batch(std::span<const netio::PacketView>(&view, 1), &score);
      r.packets.emplace_back(view.index, score);
      if (score > scorer.threshold()) r.alerts.push_back(view.index);
    }
  }
  canonicalize(r);
  return r;
}

RunResult run_with(const OnlineKitsune& proto, netio::PacketSource& source,
                   IngestRuntime::Options opts) {
  RecordingSink sink;
  IngestRuntime rt(
      opts,
      [&proto](size_t) { return std::make_unique<KitsuneScorer>(proto); },
      &sink);
  auto stats = rt.run(source);
  EXPECT_TRUE(stats.ok());
  RunResult r;
  r.alerts = std::move(sink.alerts);
  r.packets = std::move(sink.packets);
  canonicalize(r);
  return r;
}

void expect_bit_identical(const RunResult& got, const RunResult& want,
                          const std::string& what) {
  ASSERT_EQ(got.packets.size(), want.packets.size()) << what;
  for (size_t i = 0; i < got.packets.size(); ++i) {
    ASSERT_EQ(got.packets[i].first, want.packets[i].first)
        << what << " packet set, i=" << i;
    // Bit-identical, not merely close: EXPECT_EQ on the doubles.
    EXPECT_EQ(got.packets[i].second, want.packets[i].second)
        << what << " score, capture_index=" << got.packets[i].first;
  }
  EXPECT_EQ(got.alerts, want.alerts) << what;
}

OnlineKitsune trained_proto(const trace::Dataset& ds, size_t grace) {
  OnlineKitsune proto;
  proto.train({ds.trace.view.data(), grace});
  return proto;
}

TEST(ShardedEquivalence, MatchesPerShardSequentialReference) {
  size_t total_alerts = 0;
  for (const char* id : {"P1", "P2", "P3", "P4"}) {
    const trace::Dataset ds = trace::make_dataset(id, 0.05);
    const size_t grace = ds.trace.view.size() * 45 / 100;
    ASSERT_GT(grace, 0u) << id;
    const OnlineKitsune proto = trained_proto(ds, grace);
    ReplayOptions replay;
    replay.begin = grace;

    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      TraceReplaySource ref_src(ds.trace, replay);
      const RunResult want = reference_partition(proto, ref_src, shards);
      ASSERT_FALSE(want.packets.empty()) << id;
      total_alerts += want.alerts.size();

      IngestRuntime::Options opts;
      opts.shards = shards;
      TraceReplaySource src(ds.trace, replay);
      const RunResult got = run_with(proto, src, opts);
      expect_bit_identical(got, want,
                           std::string(id) + " shards=" +
                               std::to_string(shards));
    }
  }
  // The comparison must not be vacuous: the attack segments fire somewhere.
  EXPECT_GT(total_alerts, 0u);
}

TEST(ShardedEquivalence, MatchesReferenceUnderFaultInjection) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.05);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  const OnlineKitsune proto = trained_proto(ds, grace);
  FaultOptions faults;
  faults.truncate_p = 0.15;
  faults.corrupt_p = 0.1;
  faults.reorder_p = 0.05;
  faults.seed = 29;
  ReplayOptions replay;
  replay.begin = grace;

  // Fault injection is deterministic per seed, so rebuilding the source
  // replays the identical (mutated) packet sequence for both runs. The
  // damage also exercises the router's short-frame and non-IP fallbacks.
  TraceReplaySource ref_inner(ds.trace, replay);
  FaultInjectingSource ref_src(ref_inner, faults);
  const RunResult want = reference_partition(proto, ref_src, 4);
  ASSERT_FALSE(want.packets.empty());

  IngestRuntime::Options opts;
  opts.shards = 4;
  TraceReplaySource inner(ds.trace, replay);
  FaultInjectingSource src(inner, faults);
  const RunResult got = run_with(proto, src, opts);
  expect_bit_identical(got, want, "faulty shards=4");
}

TEST(ShardedEquivalence, InvariantAcrossRingCapacityAndBatching) {
  const trace::Dataset ds = trace::make_dataset("P2", 0.05);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  const OnlineKitsune proto = trained_proto(ds, grace);
  ReplayOptions replay;
  replay.begin = grace;

  IngestRuntime::Options base;
  base.shards = 4;
  TraceReplaySource base_src(ds.trace, replay);
  const RunResult want = run_with(proto, base_src, base);
  ASSERT_FALSE(want.packets.empty());

  // Ring capacity and claim batching reshape scheduling and backpressure;
  // under kBlock the partition — and thus every score — must not move.
  for (const size_t capacity : {size_t{64}, size_t{1024}}) {
    for (const size_t batch : {size_t{1}, size_t{64}}) {
      IngestRuntime::Options opts;
      opts.shards = 4;
      opts.queue_capacity = capacity;
      opts.consumer_batch = batch;
      TraceReplaySource src(ds.trace, replay);
      const RunResult got = run_with(proto, src, opts);
      expect_bit_identical(got, want,
                           "capacity=" + std::to_string(capacity) +
                               " batch=" + std::to_string(batch));
    }
  }
}

// n TCP packets across 8 distinct IP pairs so the router spreads flows.
Trace make_multiflow_trace(size_t n) {
  Trace t;
  for (size_t i = 0; i < n; ++i) {
    netio::TcpOpts tcp;
    tcp.seq = static_cast<uint32_t>(i);
    const uint32_t src_ip = 0x0a000001 + static_cast<uint32_t>(i % 8);
    t.raw.push_back(RawPacket{
        100.0 + 0.01 * static_cast<double>(i),
        netio::build_tcp(kMacA, kMacB, src_ip, 0x0b000001, 1234, 80, tcp,
                         Bytes(i % 7, 0x61))});
  }
  netio::parse_trace(t);
  return t;
}

TEST(ShardRouting, DeterministicCanonicalAndCovering) {
  const Trace t = make_multiflow_trace(64);
  const FlowShardRouter router(4, netio::LinkType::kEthernet);
  std::vector<bool> hit(4, false);
  for (const RawPacket& p : t.raw) {
    const size_t s = router.shard_of(p);
    ASSERT_LT(s, 4u);
    EXPECT_EQ(router.shard_of(p), s);  // pure function of the bytes
    hit[s] = true;
  }
  // 8 distinct IP pairs over 4 shards: expect more than one shard in play.
  EXPECT_GT(std::count(hit.begin(), hit.end(), true), 1);

  // Direction-independence: A->B and B->A are one conversation, and the
  // canonical channel key must land them on the same shard.
  netio::TcpOpts tcp;
  const RawPacket fwd{1.0, netio::build_tcp(kMacA, kMacB, 0x0a000001,
                                            0x0b000001, 1234, 80, tcp,
                                            Bytes(4, 0x61))};
  const RawPacket rev{1.1, netio::build_tcp(kMacB, kMacA, 0x0b000001,
                                            0x0a000001, 80, 1234, tcp,
                                            Bytes(4, 0x62))};
  EXPECT_EQ(router.shard_of(fwd), router.shard_of(rev));
  EXPECT_EQ(router.flow_hash(fwd), router.flow_hash(rev));

  // Frames too short for any header peek take the shard-0 fallback.
  const RawPacket runt{2.0, Bytes{0x02, 0x00}};
  EXPECT_EQ(router.shard_of(runt), 0u);
}

TEST(ShardedRuntime, DropNewestAccountingStaysExact) {
  const Trace t = make_multiflow_trace(600);
  IngestRuntime::Options opts;
  opts.shards = 2;
  opts.queue_capacity = 16;
  opts.overflow = OverflowPolicy::kDropNewest;
  opts.registry = nullptr;
  CollectingSink sink;
  IngestRuntime rt(
      opts,
      [](size_t) {
        // Slow consumer: force the producer into full rings so the
        // shed-incoming path actually runs.
        return std::make_unique<FnScorer>(
            [](const netio::PacketView& v) {
              std::this_thread::sleep_for(std::chrono::microseconds(200));
              return static_cast<double>(v.payload_len);
            },
            1e9);
      },
      &sink);
  TraceReplaySource src(t, ReplayOptions{});
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  const IngestStats& s = stats.value();
  EXPECT_GT(s.dropped, 0u);
  EXPECT_LT(s.dropped, s.enqueued);
  // The invariant the shard-mode producer preserves even though an SPSC
  // ring cannot evict its head: every arrival is either dropped or scored
  // (this trace parses cleanly, so parse_skipped is 0).
  EXPECT_EQ(s.scored + s.parse_skipped, s.enqueued - s.dropped);
  EXPECT_GT(s.queue_high_water, 0u);
  EXPECT_LE(s.queue_high_water, 16u);
}

TEST(ShardedRuntime, PerShardTelemetrySumsToTotals) {
  const trace::Dataset ds = trace::make_dataset("P1", 0.05);
  const size_t grace = ds.trace.view.size() * 45 / 100;
  const OnlineKitsune proto = trained_proto(ds, grace);
  ReplayOptions replay;
  replay.begin = grace;

  telemetry::Registry reg;
  IngestRuntime::Options opts;
  opts.shards = 4;
  opts.registry = &reg;
  CollectingSink sink;
  IngestRuntime rt(
      opts,
      [&proto](size_t) { return std::make_unique<KitsuneScorer>(proto); },
      &sink);
  TraceReplaySource src(ds.trace, replay);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  const IngestStats& s = stats.value();
  ASSERT_GT(s.scored, 0u);

  uint64_t routed = 0, scored = 0, alerted = 0, skipped = 0;
  size_t hw_max = 0;
  for (int i = 0; i < 4; ++i) {
    const std::string p = "ingest.shard" + std::to_string(i) + ".";
    routed += reg.counter(p + "routed").value();
    scored += reg.counter(p + "scored").value();
    alerted += reg.counter(p + "alerted").value();
    skipped += reg.counter(p + "parse_skipped").value();
    const double hw = reg.gauge(p + "ring.high_water").value();
    EXPECT_GE(hw, 0.0);
    EXPECT_LE(hw, 4096.0);
    hw_max = std::max(hw_max, static_cast<size_t>(hw));
  }
  // Per-shard instruments must tile the totals exactly: every packet is
  // owned by exactly one shard.
  EXPECT_EQ(routed, s.enqueued);
  EXPECT_EQ(scored, s.scored);
  EXPECT_EQ(alerted, s.alerted);
  EXPECT_EQ(skipped, s.parse_skipped);
  EXPECT_EQ(hw_max, s.queue_high_water);
  EXPECT_EQ(static_cast<uint64_t>(sink.alerts().size()), s.alerted);
}

TEST(ShardedRuntime, PacedRunRecordsRingParksPerShard) {
  // 400 packets 10 ms apart, replayed at 50x: 0.2 ms gaps, far longer than
  // a consumer's spin, so idle consumers park between packets. The whole
  // run fits in the default 4096-slot rings, so the producer never parks.
  const Trace t = make_multiflow_trace(400);
  ReplayOptions replay;
  replay.pace = true;
  replay.speed = 50.0;

  telemetry::Registry reg;
  IngestRuntime::Options opts;
  opts.shards = 2;
  opts.registry = &reg;
  CollectingSink sink;
  IngestRuntime rt(
      opts,
      [](size_t) {
        return std::make_unique<FnScorer>(
            [](const netio::PacketView& v) {
              return static_cast<double>(v.payload_len);
            },
            1e9);
      },
      &sink);
  TraceReplaySource src(t, replay);
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  const IngestStats& s = stats.value();
  ASSERT_EQ(s.enqueued, static_cast<uint64_t>(t.raw.size()));

  uint64_t consumer_parks = 0, producer_parks = 0, routed = 0;
  for (int i = 0; i < 2; ++i) {
    const std::string p = "ingest.shard" + std::to_string(i) + ".";
    const uint64_t shard_routed = reg.counter(p + "routed").value();
    const uint64_t parks = reg.counter(p + "ring.consumer_parks").value();
    // Every park ends with one wake: one per accepted push, or the close.
    EXPECT_LE(parks, shard_routed + 1) << "shard " << i;
    consumer_parks += parks;
    producer_parks += reg.counter(p + "ring.producer_parks").value();
    routed += shard_routed;
  }
  EXPECT_EQ(routed, s.enqueued);
  EXPECT_GT(consumer_parks, 0u);
  EXPECT_LE(consumer_parks, s.enqueued + 2);
  EXPECT_EQ(producer_parks, 0u);
}

TEST(ShardedRuntime, HotSwapDuringPacedReplayKeepsAccountingExact) {
  // 1600 packets 10 ms apart, replayed paced at 50x: the run is pinned to
  // ~320 ms of wall clock, so a deploy() at 60 ms lands mid-stream
  // deterministically. The initial model never alerts; the deployed one
  // always does — alert accounting proves exactly when the swap took.
  const Trace t = make_multiflow_trace(1600);
  ReplayOptions replay;
  replay.pace = true;
  replay.speed = 50.0;

  telemetry::Registry reg;
  IngestRuntime::Options opts;
  opts.shards = 2;
  opts.registry = &reg;
  const auto quiet = [](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView& v) {
          return static_cast<double>(v.payload_len);
        },
        1e9);
  };
  const auto loud = [](size_t) {
    return std::make_unique<FnScorer>(
        [](const netio::PacketView& v) {
          return static_cast<double>(v.payload_len);
        },
        -1.0);
  };
  CollectingSink sink;
  IngestRuntime rt(opts, quiet, &sink);
  TraceReplaySource src(t, replay);
  std::atomic<bool> run_ok{false};
  std::thread runner([&] {
    auto r = rt.run(src);
    run_ok.store(r.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  rt.deploy(loud);
  runner.join();
  ASSERT_TRUE(run_ok.load());

  const IngestStats s = rt.stats();
  EXPECT_EQ(s.scored + s.parse_skipped, s.enqueued);  // kBlock: lossless
  EXPECT_EQ(s.scored, static_cast<uint64_t>(t.raw.size()));
  // The swap landed mid-run: some packets scored quiet, the rest loud, and
  // the sink's alert log agrees with the counter exactly.
  EXPECT_GT(s.alerted, 0u);
  EXPECT_LT(s.alerted, s.scored);
  EXPECT_EQ(static_cast<uint64_t>(sink.alerts().size()), s.alerted);
  const uint64_t swaps = reg.counter("ingest.swaps_applied").value();
  EXPECT_GE(swaps, 1u);
  EXPECT_LE(swaps, 2u);  // at most one rebuild per shard consumer
}

TEST(OptionsValidation, NormalizedClampsEverythingInOnePass) {
  IngestRuntime::Options wild;
  wild.queue_capacity = 0;
  wild.shards = 100000;
  wild.consumer_batch = 0;
  wild.score_batch = size_t{1} << 40;
  std::string diag;
  const auto norm = IngestRuntime::Options::normalized(wild, &diag);
  EXPECT_EQ(norm.queue_capacity, 1u);
  EXPECT_EQ(norm.shards, 256u);
  EXPECT_EQ(norm.consumer_batch, 1u);
  EXPECT_EQ(norm.score_batch, 65536u);
  // One diagnostic line naming every adjustment — not scattered clamps.
  ASSERT_FALSE(diag.empty());
  EXPECT_EQ(diag.find('\n'), std::string::npos);
  for (const char* field :
       {"queue_capacity", "shards", "consumer_batch", "score_batch"}) {
    EXPECT_NE(diag.find(field), std::string::npos) << field;
  }

  // Sharding is the only mode: zero shards clamps up to one.
  IngestRuntime::Options none;
  none.shards = 0;
  std::string one_diag;
  EXPECT_EQ(IngestRuntime::Options::normalized(none, &one_diag).shards, 1u);
  EXPECT_NE(one_diag.find("shards"), std::string::npos);

  IngestRuntime::Options sane;
  sane.shards = 4;
  std::string no_diag = "sentinel";
  const auto same = IngestRuntime::Options::normalized(sane, &no_diag);
  EXPECT_TRUE(no_diag.empty());
  EXPECT_EQ(same.shards, 4u);
  EXPECT_EQ(same.consumer_batch, sane.consumer_batch);

  // A runtime built from wild options still runs (shards clamp to 256,
  // which dwarfs the trace — empty shards just drain nothing).
  IngestRuntime::Options small = wild;
  small.shards = 3;  // keep the thread count reasonable for the test
  small.registry = nullptr;
  CollectingSink sink;
  IngestRuntime rt(
      small,
      [](size_t) {
        return std::make_unique<FnScorer>(
            [](const netio::PacketView& v) {
              return static_cast<double>(v.payload_len);
            },
            0.5);
      },
      &sink);
  const Trace t = make_multiflow_trace(50);
  TraceReplaySource src(t, ReplayOptions{});
  auto stats = rt.run(src);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().scored, 50u);
}

}  // namespace
}  // namespace lumen
