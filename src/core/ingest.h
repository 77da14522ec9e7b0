// Gateway ingestion runtime: decouples packet capture from detection.
//
// Packets enter through the unified front-end API (netio/frontend.h): any
// netio::SourceDriver — replay/pcap/fault adapters or the event-driven
// socket gateway — pushes SourcePackets into the runtime's FrameFeed.
// run(PacketSource&) survives as a thin wrapper over a ReplayDriver, so
// the historic pull-based call sites are byte-identical.
//
//   SourceDriver -> FlowShardRouter -> SpscRing[shard] -> shard consumer
//                                                           -> AlertSink
//
// The producer (the calling thread) hashes each frame's canonical flow
// identity (the same IP-pair channel key the Kitsune feature extractor
// groups by, falling back to the source MAC for non-IPv4 frames) and
// routes it to one of Options::shards single-producer/single-consumer
// rings under an explicit overflow policy. Each shard consumer parses,
// scores with its own private PacketScorer (OnlineKitsune or any callable
// — e.g. a scorer assembled from core::Op pipelines) or operator chain,
// and emits alerts through a pluggable sink. A shard's FlatMap arenas are
// touched by exactly one thread and the hot path crosses no mutex at all.
// Because the partition is a pure function of the frame bytes, every
// shard's scores equal a sequential run over its own sub-stream; at
// shards = 1 (the default) that is the one-detector sequential run.
// Shutdown is graceful: the producer closes the rings at end of stream,
// consumers drain what is left and join. The runtime exports ingest
// statistics (enqueued, dropped, parse-skipped, scored, alerted, ring
// high-water mark). A live ModelSlot lets deploy() hot-swap a retrained
// scorer into running shards without draining traffic. See
// docs/framework.md "Ingestion runtime" for the memory-order and
// equivalence arguments.
//
// Threading follows common/parallel.h conventions: consumers are dedicated
// threads (they are long-running, so they must not occupy the shared
// ThreadPool's workers), completion is join-based, and the first exception
// thrown by any consumer is captured and rethrown on the caller after every
// thread has drained.
#pragma once

#include <atomic>
#include <cstdint>
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

namespace lumen {

template <typename T>
class SpscRing;

namespace core {

/// What to do when a producer pushes into a full shard ring.
enum class OverflowPolicy : uint8_t {
  kBlock,  // wait for the shard consumer to free a slot (lossless)
  /// Shed the INCOMING packet (bounded latency, lossy). An SPSC ring's
  /// producer cannot evict the head the consumer owns, so the incoming
  /// packet is the one that goes. Shed packets still count enqueued AND
  /// dropped, preserving scored + parse_skipped == enqueued - dropped.
  kDropNewest,
};

const char* overflow_policy_name(OverflowPolicy p);

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
/// from the source; `dropped` those shed by kDropNewest; `parse_skipped`
/// malformed frames consumers could not parse; `scored` packets that went
/// through a scorer; `alerted` scores above threshold.
///
/// DEPRECATION NOTE: this struct is now a compatibility façade over the
/// unified telemetry API (common/telemetry.h). IngestRuntime keeps its
/// counts in registry Counters (`<prefix>enqueued`, `<prefix>dropped`,
/// `<prefix>parse_skipped`, `<prefix>scored`, `<prefix>alerted`) plus ring
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
  size_t consumer = 0;  // which shard consumer scored it
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
///   opt.shards = 2;
///   IngestRuntime rt(opt, factory, &sink);
///   auto stats = rt.run(source);
class IngestRuntime {
 public:
  struct Options {
    /// Slots in EACH shard ring (rounded up to a power of two by SpscRing).
    size_t queue_capacity = 4096;
    /// The accounting invariant (scored + parse_skipped == enqueued -
    /// dropped) holds under both policies.
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    /// Flow shards, each one SPSC ring drained by its own consumer thread
    /// with its own scorer/chain: the producer routes every frame through
    /// a FlowShardRouter. Because the partition is by flow hash, a
    /// device's conversations stay on one shard and each shard's detector
    /// state is single-threaded by construction.
    size_t shards = 1;
    /// Packets a consumer claims per ring pop, and the flush threshold
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
    /// still works) and skips the optional extras — ring gauges, stage
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
    /// scattered silent per-field clamps. Ranges: shards in [1, 256]
    /// (threads, not pool workers), consumer_batch/score_batch in
    /// [1, 65536], queue_capacity in [1, 1 << 24].
    ///
    /// LUMEN_THREADS interaction: that variable sizes the shared
    /// common/parallel.h ThreadPool used INSIDE scorers (e.g. parallel
    /// dense kernels); it does not limit shards, whose consumers are
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

  /// Drain `source` through the shard rings and consumers. Blocks
  /// until the stream ends (or request_stop()) and every consumer has
  /// joined. Returns the run's statistics; an Error if a scorer could not
  /// be built. The first exception thrown by a consumer is rethrown here.
  /// Thin wrapper: adapts the source with a netio::ReplayDriver and calls
  /// the driver overload below — packet-for-packet identical semantics.
  Result<IngestStats> run(netio::PacketSource& source);

  /// Drive any netio::SourceDriver — the socket gateway front-end, a
  /// replay adapter, or custom push-based producers — into this runtime.
  /// The driver runs on the calling thread and pushes into a FrameFeed
  /// wrapping the shard router + rings under the non-blocking
  /// backpressure contract documented in netio/frontend.h.
  Result<IngestStats> run(netio::SourceDriver& driver);

  /// Ask a running run() to wind down early (callable from any thread).
  /// The rings are closed; consumers drain what is already buffered.
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

  /// Statistics of the current (or last finished) run, read back from the
  /// registry instruments as deltas against the run-start baseline (see the
  /// IngestStats deprecation note).
  IngestStats stats() const;

  /// The registry this runtime records into (the configured one, or the
  /// runtime-local fallback when Options::registry was nullptr).
  telemetry::Registry& registry() const { return *reg_; }

 private:
  /// Per-shard instruments (`ingest.shard<i>.*`), resolved when extended
  /// telemetry is on.
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

  using Ring = SpscRing<netio::SourcePacket>;

  void consume(size_t id, Ring& ring, std::unique_ptr<PacketScorer> scorer,
               uint64_t scorer_version, netio::LinkType link);
  void consume_pipeline(size_t id, Ring& ring, StreamPipeline& pipe,
                        netio::LinkType link);
  /// Shared run skeleton: shard rings + driver on the calling thread +
  /// one consumer thread per shard running `consumer_body(id, ring, link)`
  /// + graceful drain/join/rethrow. The two public modes only differ in
  /// what the body does per batch.
  Result<IngestStats> drive(
      netio::SourceDriver& driver,
      const std::function<void(size_t, Ring&, netio::LinkType)>&
          consumer_body);

  Options opts_;
  AlertSink* sink_;
  StreamPipelineFactory pipeline_factory_;  // pipeline mode (else empty)
  EpochSink* epoch_sink_ = nullptr;
  /// The scorer factory lives behind a hot-swap slot so deploy() can
  /// replace it while consumers run (see deploy()). Sized to one reader
  /// per shard; consumers pin it once per batch.
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
  bool extended_ = false;  // ring gauges + stage histograms active
  telemetry::Counter* enqueued_ = nullptr;
  telemetry::Counter* dropped_ = nullptr;
  telemetry::Counter* parse_skipped_ = nullptr;
  telemetry::Counter* scored_ = nullptr;
  telemetry::Counter* alerted_ = nullptr;
  telemetry::Counter* swaps_applied_ = nullptr;
  /// Max ring high-water mark across shards, reset at each run's start.
  telemetry::Gauge* queue_high_water_ = nullptr;
  std::vector<ShardInstruments> shard_instruments_;  // extended_ only
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

}  // namespace core
}  // namespace lumen
