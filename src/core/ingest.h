// Gateway ingestion runtime: decouples packet capture from detection.
//
// Packets enter through the unified front-end API (netio/frontend.h): any
// netio::SourceDriver — replay/pcap/fault adapters or the event-driven
// socket gateway — pushes SourcePackets into the runtime's FrameFeed.
// run(PacketSource&) survives as a thin wrapper over a ReplayDriver, so
// the historic pull-based call sites are byte-identical.
//
// Single-queue mode (the default):
//
//   SourceDriver -> BoundedPacketQueue -> N consumer threads -> AlertSink
//
// One producer (the calling thread) pulls packets from a netio::PacketSource
// into a bounded ring queue with an explicit overflow policy; each consumer
// thread parses, scores with its own PacketScorer (OnlineKitsune or any
// callable — e.g. a scorer assembled from core::Op pipelines), and emits
// alerts through a pluggable sink. Shutdown is graceful: the producer closes
// the queue at end of stream, consumers drain what is left and join. The
// runtime exports ingest statistics (enqueued, dropped, parse-skipped,
// scored, alerted, queue high-water mark).
//
// Flow-sharded mode (Options::shards > 0):
//
//   SourceDriver -> FlowShardRouter -> SpscRing[shard] -> shard consumer
//
// The producer hashes each frame's canonical flow identity (the same
// IP-pair channel key the Kitsune feature extractor groups by, falling
// back to the source MAC for non-IPv4 frames) and routes it to one of N
// single-producer/single-consumer rings. Each shard consumer owns a
// private scorer or operator chain, so its FlatMap arenas are touched by
// exactly one thread and the hot path crosses no mutex at all. A live
// ModelSlot lets deploy() hot-swap a retrained scorer into running shards
// without draining traffic. See docs/framework.md "Sharded ingestion &
// hot-swap" for the memory-order and equivalence arguments.
//
// Threading follows common/parallel.h conventions: consumers are dedicated
// threads (they are long-running, so they must not occupy the shared
// ThreadPool's workers), completion is join-based, and the first exception
// thrown by any consumer is captured and rethrown on the caller after every
// thread has drained.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/model_slot.h"
#include "common/telemetry.h"
#include "core/stream.h"
#include "netio/frontend.h"
#include "netio/source.h"

namespace lumen::core {

/// What to do when a producer pushes into a full queue.
enum class OverflowPolicy : uint8_t {
  kBlock,       // wait for a consumer to free a slot (lossless, backpressure)
  kDropOldest,  // evict the oldest queued packet (bounded latency, lossy)
  /// Shed the INCOMING packet (bounded latency, lossy). This is the only
  /// lossy policy an SPSC shard ring can implement — its producer cannot
  /// evict the head the consumer owns — so Options::normalized rewrites
  /// kDropOldest to kDropNewest in sharded mode with a named diagnostic
  /// and a `<prefix>policy_degraded` counter bump, instead of the historic
  /// silent degradation. Shed packets still count enqueued AND dropped,
  /// preserving scored + parse_skipped == enqueued - dropped.
  kDropNewest,
};

const char* overflow_policy_name(OverflowPolicy p);

/// Bounded MPSC-style ring queue of packets. push() honors the overflow
/// policy; pop() blocks until a packet arrives or the queue is closed and
/// empty. Thread-safe for any number of producers and consumers.
class BoundedPacketQueue {
 public:
  BoundedPacketQueue(size_t capacity, OverflowPolicy policy);

  /// Enqueue one packet. Returns false only when the queue was closed
  /// before a slot became available. Implemented as offer()+wait_notfull()
  /// loops, so push semantics are exactly the non-blocking primitives'.
  bool push(netio::SourcePacket p);

  /// Non-blocking enqueue honoring the overflow policy: kAccepted (taken),
  /// kShed (queue full under a drop policy — for kDropOldest the oldest
  /// packet was evicted and `p` taken, for kDropNewest `p` itself was
  /// discarded; a drop is counted either way), kBusy (full under kBlock;
  /// `p` untouched — retry after wait_notfull()), kClosed.
  netio::FeedStatus offer(netio::SourcePacket&& p);

  /// Block until the queue has room or is closed; true when room exists.
  bool wait_notfull();

  /// Dequeue one packet, blocking while the queue is open and empty.
  /// Returns false when the queue is closed and fully drained.
  bool pop(netio::SourcePacket& out);

  /// Dequeue up to `max` packets under one lock acquisition, appending to
  /// `out` (cleared first). Blocks while the queue is open and empty;
  /// returns the number popped, 0 only when closed and fully drained.
  /// Batching is what lets consumer throughput scale: one mutex round-trip
  /// amortizes over the whole batch instead of being paid per packet.
  size_t pop_batch(std::vector<netio::SourcePacket>& out, size_t max);

  /// Close the queue: pending packets remain poppable, further push()es
  /// fail, and blocked producers/consumers wake up.
  void close();

  /// Mirror queue state into telemetry instruments: `depth` tracks the live
  /// queue length, `high_water` its running maximum, and `dropped` counts
  /// drop-oldest evictions — all updated under the queue lock the operation
  /// already holds, so scrapers see them while a run is in flight (the old
  /// IngestStats snapshots only updated after the run finished). Any
  /// pointer may be null. Drops that happened before attachment are folded
  /// into the counter on attach, so mirror and dropped() agree from that
  /// point on no matter when telemetry arrived relative to traffic — the
  /// same locked bookkeeping (note_drop_locked) serves both, making the
  /// mirror update atomic with the drop decision.
  void attach_telemetry(telemetry::Gauge* depth, telemetry::Gauge* high_water,
                        telemetry::Counter* dropped);

  size_t capacity() const { return capacity_; }
  uint64_t dropped() const;
  size_t high_water() const;

 private:
  void note_size_locked();  // update depth/high-water mirrors under mu_
  void note_drop_locked();  // count a drop + mirror it, atomically under mu_

  const size_t capacity_;
  const OverflowPolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<netio::SourcePacket> q_;
  uint64_t dropped_ = 0;
  uint64_t mirrored_dropped_ = 0;  // drops already forwarded to the counter
  size_t high_water_ = 0;
  bool closed_ = false;
  telemetry::Gauge* depth_gauge_ = nullptr;
  telemetry::Gauge* high_water_gauge_ = nullptr;
  telemetry::Counter* dropped_counter_ = nullptr;
};

/// Uniform consumer-side view over the two packet conduits — the shared
/// BoundedPacketQueue and a shard's private SpscRing — so the consume
/// loops are written once against claim() semantics.
class PacketFeed {
 public:
  virtual ~PacketFeed() = default;

  /// Claim up to `max` packets into `out` (cleared first), blocking while
  /// the conduit is open and empty. Returns the number claimed; 0 only at
  /// end-of-stream (closed and fully drained).
  virtual size_t claim(std::vector<netio::SourcePacket>& out, size_t max) = 0;
};

/// Routes raw frames to shards by their canonical flow identity, computed
/// from a light header peek (no full parse): for IPv4-over-Ethernet the
/// order-independent IP-pair channel key — exactly the `chan` key
/// core/kitsune_extractor.cpp groups flow state by — hashed with the same
/// splitmix64 finalizer FlatMap uses (common/flat_map.h); non-IP Ethernet
/// frames fall back to the source MAC (their only extractor context);
/// 802.11 frames use the transmitter address (addr2); frames too short to
/// carry either land on shard 0 (they fail the full parse downstream
/// anyway). shard_of() is a pure function of (frame bytes, link type,
/// shard count): the partition is deterministic across runs, ring sizes,
/// and pacing — the invariant the sharded equivalence tests build on.
class FlowShardRouter {
 public:
  FlowShardRouter(size_t shards, netio::LinkType link)
      : shards_(shards == 0 ? 1 : shards), link_(link) {}

  size_t shards() const { return shards_; }

  size_t shard_of(const netio::RawPacket& pkt) const {
    if (shards_ <= 1) return 0;
    // Multiply-shift range reduction on the high hash bits (no modulo).
    return static_cast<size_t>(((flow_hash(pkt) >> 32) * shards_) >> 32);
  }

  /// The 64-bit flow hash shard_of() reduces; exposed for balance tests.
  uint64_t flow_hash(const netio::RawPacket& pkt) const;

 private:
  size_t shards_;
  netio::LinkType link_;
};

/// Counters exported by a runtime run. `enqueued` counts packets accepted
/// from the source; `dropped` those evicted by kDropOldest; `parse_skipped`
/// malformed frames consumers could not parse; `scored` packets that went
/// through a scorer; `alerted` scores above threshold.
///
/// DEPRECATION NOTE: this struct is now a compatibility façade over the
/// unified telemetry API (common/telemetry.h). IngestRuntime keeps its
/// counts in registry Counters (`<prefix>enqueued`, `<prefix>dropped`,
/// `<prefix>parse_skipped`, `<prefix>scored`, `<prefix>alerted`) plus queue
/// gauges and per-stage latency histograms; stats() reads those instruments
/// back (per-run deltas against a baseline captured at run start). New
/// consumers should scrape Options::registry instead.
struct IngestStats {
  uint64_t enqueued = 0;
  uint64_t dropped = 0;
  uint64_t parse_skipped = 0;
  uint64_t scored = 0;
  uint64_t alerted = 0;
  size_t queue_high_water = 0;
};

/// One alert emitted by a consumer.
struct Alert {
  double ts = 0.0;             // capture timestamp of the packet
  uint32_t capture_index = 0;  // index in the original capture
  double score = 0.0;
  double threshold = 0.0;
  size_t consumer = 0;  // which consumer thread scored it
  uint32_t tenant = 0;  // tenant the packet belonged to (0 = default)
};

/// Receives scored packets and alerts. The runtime serializes all calls
/// with an internal mutex, so implementations need no locking of their own.
/// Consumers buffer results locally and flush once per packet batch, so a
/// sink sees each consumer's packets in that consumer's consumption order,
/// with bounded (batch-sized) delivery delay.
class AlertSink {
 public:
  virtual ~AlertSink() = default;

  /// Called for every packet above threshold.
  virtual void on_alert(const Alert& alert) = 0;

  /// Called for every successfully scored packet (including alerts), in
  /// consumption order per consumer. Default: ignore.
  virtual void on_packet(const netio::PacketView& view, double score,
                         bool alerted) {}
};

/// Sink that just accumulates alerts (tests, benchmarks).
class CollectingSink : public AlertSink {
 public:
  void on_alert(const Alert& alert) override { alerts_.push_back(alert); }
  const std::vector<Alert>& alerts() const { return alerts_; }

 private:
  std::vector<Alert> alerts_;
};

/// Per-consumer scoring state. Each consumer owns one scorer, so
/// implementations may keep mutable streaming state without locking.
class PacketScorer {
 public:
  virtual ~PacketScorer() = default;
  virtual double score(const netio::PacketView& view) = 0;
  virtual double threshold() const = 0;

  /// Score a micro-batch in capture order: out[i] = score of views[i], as
  /// if score() had been called on each view in sequence. The consumer
  /// loop always scores through this entry point (in Options::score_batch
  /// chunks); scorers with a fused batch path override it. Contract for
  /// overrides: results must not depend on how a fixed view sequence is
  /// chopped into batches, so alert sets are invariant under score_batch
  /// tuning. Default: a score() loop (trivially batch-invariant).
  virtual void score_batch(std::span<const netio::PacketView> views,
                           double* out) {
    for (size_t i = 0; i < views.size(); ++i) out[i] = score(views[i]);
  }
};

/// OnlineKitsune as a PacketScorer. Copies the (typically pre-trained)
/// detector so every consumer scores with identical initial state.
class KitsuneScorer : public PacketScorer {
 public:
  explicit KitsuneScorer(OnlineKitsune detector)
      : detector_(std::move(detector)) {}

  double score(const netio::PacketView& view) override {
    return detector_.score_packet(view);
  }
  double threshold() const override { return detector_.threshold(); }

  /// Fused micro-batch scoring: stage the batch's feature rows and ride
  /// the packed SIMD kernels (see OnlineKitsune::score_packets for the
  /// batch-invariance guarantee).
  void score_batch(std::span<const netio::PacketView> views,
                   double* out) override {
    detector_.score_packets(views, out);
  }

 private:
  OnlineKitsune detector_;
};

/// Adapts any callable to a PacketScorer — the hook for scorers assembled
/// from core::Op pipelines or ad-hoc heuristics.
class FnScorer : public PacketScorer {
 public:
  FnScorer(std::function<double(const netio::PacketView&)> fn,
           double threshold)
      : fn_(std::move(fn)), threshold_(threshold) {}

  double score(const netio::PacketView& view) override { return fn_(view); }
  double threshold() const override { return threshold_; }

 private:
  std::function<double(const netio::PacketView&)> fn_;
  double threshold_;
};

/// Builds one scorer per consumer thread; called with the consumer id
/// before the stream starts.
using ScorerFactory =
    std::function<std::unique_ptr<PacketScorer>(size_t consumer_id)>;

// ---- streaming-pipeline sink mode (core/stream_op.h) ----

struct EpochBatch;
class StreamPipeline;

/// Receives the epoch batches a consumer's compiled operator chain emits.
/// The runtime serializes all calls with an internal mutex (like
/// AlertSink), so implementations need no locking of their own.
class EpochSink {
 public:
  virtual ~EpochSink() = default;
  virtual void on_epoch(const EpochBatch& batch, size_t consumer) = 0;
};

/// Builds one compiled operator chain per consumer thread (each consumer
/// owns its chain's mutable state, so no locking on the hot path); called
/// with the consumer id before the stream starts. Typically a thin wrapper
/// around compile_streaming on a shared spec + bindings.
using StreamPipelineFactory =
    std::function<std::unique_ptr<StreamPipeline>(size_t consumer_id)>;

/// The ingestion runtime. One run() drives a source to exhaustion:
///
///   IngestRuntime::Options opt;
///   opt.consumers = 2;
///   IngestRuntime rt(opt, factory, &sink);
///   auto stats = rt.run(source);
class IngestRuntime {
 public:
  struct Options {
    /// Slots in the shared queue (single-queue mode) or in EACH shard ring
    /// (sharded mode; rounded up to a power of two by SpscRing).
    size_t queue_capacity = 4096;
    /// In sharded mode an SPSC ring's producer cannot evict (the consumer
    /// owns the head), so kDropOldest is unimplementable there:
    /// normalized() rewrites it to kDropNewest with a named diagnostic and
    /// a `<prefix>policy_degraded` counter bump — no silent degradation.
    /// The accounting invariant (scored + parse_skipped == enqueued -
    /// dropped) holds under every policy; kBlock and kDropNewest behave
    /// identically in both modes.
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    /// Consumer threads in single-queue mode. Ignored when shards > 0
    /// (sharded mode runs exactly one consumer per shard).
    size_t consumers = 1;
    /// 0 = single-queue mode (the default, behavior unchanged). N > 0 =
    /// flow-sharded mode: the producer routes every frame through a
    /// FlowShardRouter into N private SPSC rings, each drained by its own
    /// consumer thread with its own scorer/chain. Because the partition is
    /// by flow hash, a device's conversations stay on one shard and each
    /// shard's detector state is single-threaded by construction.
    size_t shards = 0;
    /// Packets a consumer claims per queue lock, and the flush threshold
    /// for its locally-buffered sink records. 1 reproduces the historic
    /// packet-at-a-time behaviour (same alerts either way; only lock
    /// amortization and sink-delivery latency change).
    size_t consumer_batch = 64;
    /// Rows per PacketScorer::score_batch call inside a claimed batch: the
    /// micro-batch size of the fused SIMD scoring path. Scores and alert
    /// sets are invariant under this knob (the score_batch contract); it
    /// only tunes throughput. 1 scores row-at-a-time through the same
    /// entry point — the baseline the bench/CI gate compares against.
    size_t score_batch = 64;
    /// Where this runtime's instruments live. Default: the process-wide
    /// registry, so a live gateway can be scraped mid-run. nullptr keeps
    /// the core accounting counters in a runtime-local registry (stats()
    /// still works) and skips the optional extras — queue gauges, stage
    /// latency histograms, and their clock reads — which is the cheapest
    /// mode and the baseline bench_telemetry measures overhead against.
    /// Same shape as Engine::Options.
    telemetry::Registry* registry = &telemetry::Registry::process();
    /// Prepended to every instrument name this runtime records. Give each
    /// embedded runtime its own prefix if several share one registry.
    std::string instrument_prefix = "ingest.";

    /// Clamp every field into its sane range in one pass, recording each
    /// adjustment in `*diagnostic` as one human-readable line (set to ""
    /// when nothing was clamped). The runtime normalizes exactly once at
    /// construction and emits the diagnostic to stderr — there are no
    /// scattered silent per-field clamps. Ranges: consumers/shards <= 256
    /// (threads, not pool workers), consumer_batch/score_batch in
    /// [1, 65536], queue_capacity in [1, 1 << 24].
    ///
    /// LUMEN_THREADS interaction: that variable sizes the shared
    /// common/parallel.h ThreadPool used INSIDE scorers (e.g. parallel
    /// dense kernels); it does not limit consumers/shards, which are
    /// dedicated long-running threads outside the pool. Oversubscription
    /// guidance: shards + LUMEN_THREADS should stay near the core count.
    static Options normalized(Options opts, std::string* diagnostic);
  };

  IngestRuntime(Options opts, ScorerFactory factory, AlertSink* sink);

  /// Pipeline sink mode: consumers feed parsed packets through compiled
  /// streaming operator chains (core/stream_op.h) instead of a bare
  /// PacketScorer — the full spec (grouping, windows, aggregates,
  /// normalization, model scoring) runs continuously on the live path.
  /// Each consumer owns one chain; completed epochs are handed to `sink`
  /// serialized under the runtime's mutex. In this mode `scored` counts
  /// packets fed to the chains and `alerted` counts alerted rows.
  IngestRuntime(Options opts, StreamPipelineFactory factory, EpochSink* sink);

  /// Drain `source` through the queue and the consumer threads. Blocks
  /// until the stream ends (or request_stop()) and every consumer has
  /// joined. Returns the run's statistics; an Error if a scorer could not
  /// be built. The first exception thrown by a consumer is rethrown here.
  /// Thin wrapper: adapts the source with a netio::ReplayDriver and calls
  /// the driver overload below — packet-for-packet identical semantics.
  Result<IngestStats> run(netio::PacketSource& source);

  /// Drive any netio::SourceDriver — the socket gateway front-end, a
  /// replay adapter, or custom push-based producers — into this runtime.
  /// The driver runs on the calling thread and pushes into a FrameFeed
  /// wrapping the queue (single-queue mode) or the shard router + rings
  /// (sharded mode) under the non-blocking backpressure contract
  /// documented in netio/frontend.h.
  Result<IngestStats> run(netio::SourceDriver& driver);

  /// Ask a running run() to wind down early (callable from any thread).
  /// The queue is closed; consumers drain what is already buffered.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  /// Hot-swap the scorer factory (callable from any thread, including
  /// while run() is in flight): each consumer rebuilds its scorer from the
  /// new factory at its next batch boundary, so a retrained model rolls
  /// into running shards without draining traffic. The packet path stays
  /// wait-free — detecting a deploy costs two atomic loads per batch (a
  /// ModelSlot epoch pin); the swap itself never blocks the producer or
  /// sibling consumers. Counted under `<prefix>swaps_applied` (one per
  /// consumer that rebuilt). Scorer mode only: pipeline-mode chains carry
  /// irreplaceable window state mid-stream, so there deploys only take
  /// effect for the next run().
  void deploy(ScorerFactory factory);

  /// Register a tenant with its own scorer factory BEFORE run(): packets
  /// whose SourcePacket::tenant matches score through a dedicated ModelSlot
  /// and dedicated per-consumer scorer instances, fully isolated from
  /// every other tenant's streaming state. Per-tenant counters
  /// (`<prefix>tenant<t>.scored/alerted/swaps_applied`) are created here.
  /// Returns false for tenant 0 (the default slot), a duplicate
  /// registration, a null factory, or a call while run() is in flight.
  /// Unregistered tenant ids still work: they score through per-tenant
  /// scorer instances built from the DEFAULT factory (isolated state, no
  /// dedicated slot or counters).
  bool register_tenant(uint32_t tenant, ScorerFactory factory);

  /// Hot-swap exactly one tenant's scorer (callable from any thread while
  /// run() is in flight): publishes into that tenant's ModelSlot, so
  /// consumers rebuild only that tenant's scorer at their next batch
  /// boundary — no other tenant's scorer or state is touched. tenant 0
  /// forwards to deploy(factory) (the default slot). Returns false if the
  /// tenant was never registered.
  bool deploy(uint32_t tenant, ScorerFactory factory);

  /// Consumer threads a run spawns: shards (one per shard) in sharded
  /// mode, else Options::consumers.
  size_t effective_consumers() const {
    return opts_.shards > 0 ? opts_.shards : opts_.consumers;
  }

  /// Statistics of the current (or last finished) run, read back from the
  /// registry instruments as deltas against the run-start baseline (see the
  /// IngestStats deprecation note).
  IngestStats stats() const;

  /// The registry this runtime records into (the configured one, or the
  /// runtime-local fallback when Options::registry was nullptr).
  telemetry::Registry& registry() const { return *reg_; }

 private:
  /// Per-shard instruments (`ingest.shard<i>.*`), resolved when extended
  /// telemetry is on and shards > 0.
  struct ShardInstruments {
    telemetry::Counter* routed = nullptr;
    telemetry::Counter* scored = nullptr;
    telemetry::Counter* alerted = nullptr;
    telemetry::Counter* parse_skipped = nullptr;
    telemetry::Gauge* ring_high_water = nullptr;
    telemetry::Counter* consumer_parks = nullptr;
    telemetry::Counter* producer_parks = nullptr;
  };

  /// Per-tenant isolation state: a dedicated hot-swap slot plus the
  /// tenant's counters (created at register_tenant time). The map is
  /// immutable while run() is in flight, so consumers read it lock-free.
  struct TenantState {
    std::unique_ptr<ModelSlot<ScorerFactory>> slot;
    telemetry::Counter* scored = nullptr;
    telemetry::Counter* alerted = nullptr;
    telemetry::Counter* swaps_applied = nullptr;
  };

  void consume(size_t id, PacketFeed& feed,
               std::unique_ptr<PacketScorer> scorer, uint64_t scorer_version,
               netio::LinkType link);
  void consume_pipeline(size_t id, PacketFeed& feed, StreamPipeline& pipe,
                        netio::LinkType link);
  /// Shared run skeleton: conduits + driver on the calling thread +
  /// consumer threads running `consumer_body(id, feed, link)` + graceful
  /// drain/join/rethrow. Picks single-queue or sharded plumbing off
  /// opts_.shards; the two public modes only differ in what the body does
  /// per batch.
  Result<IngestStats> drive(
      netio::SourceDriver& driver,
      const std::function<void(size_t, PacketFeed&, netio::LinkType)>&
          consumer_body);
  Result<IngestStats> drive_single_queue(
      netio::SourceDriver& driver,
      const std::function<void(size_t, PacketFeed&, netio::LinkType)>&
          consumer_body);
  Result<IngestStats> drive_sharded(
      netio::SourceDriver& driver,
      const std::function<void(size_t, PacketFeed&, netio::LinkType)>&
          consumer_body);

  Options opts_;
  AlertSink* sink_;
  StreamPipelineFactory pipeline_factory_;  // pipeline mode (else empty)
  EpochSink* epoch_sink_ = nullptr;
  /// The scorer factory lives behind a hot-swap slot so deploy() can
  /// replace it while consumers run (see deploy()). Sized to
  /// effective_consumers(); consumers pin it once per batch.
  std::unique_ptr<ModelSlot<ScorerFactory>> scorer_slot_;
  /// Registered tenants (see register_tenant). Mutated only while no run
  /// is in flight; consumers and deploy(tenant, …) read it concurrently.
  std::unordered_map<uint32_t, TenantState> tenants_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::mutex sink_mu_;

  // Instruments (resolved once in the constructor; see Options::registry).
  telemetry::Registry local_reg_;  // fallback when opts_.registry == nullptr
  telemetry::Registry* reg_ = nullptr;
  bool extended_ = false;  // queue gauges + stage histograms active
  telemetry::Counter* enqueued_ = nullptr;
  telemetry::Counter* dropped_ = nullptr;
  telemetry::Counter* parse_skipped_ = nullptr;
  telemetry::Counter* scored_ = nullptr;
  telemetry::Counter* alerted_ = nullptr;
  telemetry::Counter* swaps_applied_ = nullptr;
  /// Bumped once per construction whose normalized() rewrote kDropOldest
  /// to kDropNewest for sharded mode (see OverflowPolicy::kDropNewest).
  telemetry::Counter* policy_degraded_ = nullptr;
  telemetry::Gauge* queue_depth_ = nullptr;
  telemetry::Gauge* queue_high_water_ = nullptr;
  std::vector<ShardInstruments> shard_instruments_;  // extended_ && sharded
  telemetry::Histogram* extract_ns_ = nullptr;
  telemetry::Histogram* score_ns_ = nullptr;
  telemetry::Histogram* flush_ns_ = nullptr;
  telemetry::Histogram* score_batch_rows_ = nullptr;

  /// Counter values at run() start: stats() reports deltas so the façade
  /// keeps its historic per-run semantics over cumulative instruments.
  struct Baseline {
    uint64_t enqueued = 0, dropped = 0, parse_skipped = 0, scored = 0,
             alerted = 0;
  };
  Baseline base_;
  size_t high_water_snapshot_ = 0;
};

}  // namespace lumen::core
