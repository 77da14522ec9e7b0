#include "core/ingest.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/flat_map.h"
#include "common/options.h"
#include "common/spsc_ring.h"
#include "core/stream_op.h"
#include "netio/parse.h"

namespace lumen::core {

const char* overflow_policy_name(OverflowPolicy p) {
  switch (p) {
    case OverflowPolicy::kBlock:
      return "kBlock";
    case OverflowPolicy::kDropNewest:
      return "kDropNewest";
  }
  return "unknown";
}

uint64_t FlowShardRouter::flow_hash(const netio::RawPacket& pkt) const {
  const uint8_t* b = pkt.data.data();
  const size_t n = pkt.data.size();
  const auto be16 = [b](size_t off) {
    return (uint64_t{b[off]} << 8) | b[off + 1];
  };
  const auto be32 = [b](size_t off) {
    return (uint32_t{b[off]} << 24) | (uint32_t{b[off + 1]} << 16) |
           (uint32_t{b[off + 2]} << 8) | b[off + 3];
  };
  const auto mac48 = [b](size_t off) {
    uint64_t v = 0;
    for (size_t i = 0; i < 6; ++i) v = (v << 8) | b[off + i];
    return v;
  };
  if (link_ == netio::LinkType::kEthernet) {
    // IPv4 frame: the order-independent IP-pair channel key, canonicalized
    // exactly like core/kitsune_extractor.cpp (low address first), hashed
    // with FlatMap's splitmix64 finalizer. Byte offsets per netio/parse.cpp:
    // ether_type at 12, IPv4 src/dst at 26/30 (14-byte Ethernet header).
    if (n >= 34 && be16(12) == 0x0800) {
      const uint32_t src = be32(26);
      const uint32_t dst = be32(30);
      const bool fwd = src <= dst;
      const uint32_t ip_a = fwd ? src : dst;
      const uint32_t ip_b = fwd ? dst : src;
      return hash_u64((uint64_t{ip_a} << 32) | ip_b);
    }
    // Non-IP frame: the extractor only keeps MAC-level context for these,
    // so the source MAC (bytes 6..11) is their whole flow identity.
    if (n >= 12) return hash_u64(mac48(6));
    return 0;  // too short to parse; lands on shard 0 and is skipped there
  }
  // 802.11: the transmitter address (addr2, bytes 10..15) is what
  // netio/parse.cpp reports as the source MAC.
  if (n >= 16) return hash_u64(mac48(10));
  return 0;
}

IngestRuntime::Options IngestRuntime::Options::normalized(
    Options opts, std::string* diagnostic) {
  OptionNormalizer norm("ingest");
  norm.clamp(opts.queue_capacity, size_t{1}, size_t{1} << 24,
             "queue_capacity");
  norm.clamp(opts.shards, size_t{1}, size_t{256}, "shards");
  norm.clamp(opts.consumer_batch, size_t{1}, size_t{65536}, "consumer_batch");
  norm.clamp(opts.score_batch, size_t{1}, size_t{65536}, "score_batch");
  norm.emit(diagnostic);
  return opts;
}

namespace {

/// Claim up to `max` packets from one shard's ring into `out` (cleared
/// first), blocking while the ring is open and empty. Returns the number
/// claimed; 0 only at end-of-stream (closed and fully drained).
size_t claim(SpscRing<netio::SourcePacket>& ring,
             std::vector<netio::SourcePacket>& out, size_t max) {
  for (;;) {
    if (!ring.wait_nonempty()) return 0;  // closed and drained
    const size_t n = ring.try_pop(out, max);
    if (n != 0) return n;
  }
}

/// Producer-side FrameFeed over the shard router + SPSC rings: routes each
/// offered frame by flow hash, then try-pushes into the owning ring.
/// Mirrors per-shard routed counts into telemetry in periodic flushes via
/// the caller-supplied closure, never per packet.
class ShardFrameFeed : public netio::FrameFeed {
 public:
  ShardFrameFeed(const FlowShardRouter& router,
                 std::vector<std::unique_ptr<SpscRing<netio::SourcePacket>>>&
                     rings,
                 OverflowPolicy policy, telemetry::Counter& enqueued,
                 telemetry::Counter& dropped, std::vector<uint64_t>& routed,
                 std::function<void()> flush_telemetry)
      : router_(router),
        rings_(rings),
        policy_(policy),
        enqueued_(enqueued),
        dropped_(dropped),
        routed_(routed),
        flush_telemetry_(std::move(flush_telemetry)) {}

  netio::FeedStatus offer(netio::SourcePacket& p) override {
    const size_t s = router_.shard_of(p.pkt);
    SpscRing<netio::SourcePacket>& ring = *rings_[s];
    if (ring.try_push(&p, 1) == 1) {
      account(s);
      return netio::FeedStatus::kAccepted;
    }
    if (ring.closed()) return netio::FeedStatus::kClosed;
    if (policy_ == OverflowPolicy::kBlock) {
      busy_shard_ = s;
      return netio::FeedStatus::kBusy;
    }
    // kDropNewest: shed the incoming packet, still counted enqueued +
    // routed.
    dropped_.add(1);
    account(s);
    return netio::FeedStatus::kShed;
  }
  bool wait_ready() override {
    return rings_[busy_shard_]->wait_notfull();
  }
  void account_shed(uint64_t n) override {
    enqueued_.add(n);
    dropped_.add(n);
  }

 private:
  void account(size_t shard) {
    enqueued_.add(1);
    ++routed_[shard];
    if (++since_flush_ >= 8192) {
      since_flush_ = 0;
      if (flush_telemetry_) flush_telemetry_();
    }
  }

  const FlowShardRouter& router_;
  std::vector<std::unique_ptr<SpscRing<netio::SourcePacket>>>& rings_;
  OverflowPolicy policy_;
  telemetry::Counter& enqueued_;
  telemetry::Counter& dropped_;
  std::vector<uint64_t>& routed_;
  std::function<void()> flush_telemetry_;
  size_t busy_shard_ = 0;
  uint64_t since_flush_ = 0;
};

}  // namespace

IngestRuntime::IngestRuntime(Options opts, ScorerFactory factory,
                             AlertSink* sink)
    : sink_(sink) {
  std::string diag;
  opts_ = Options::normalized(std::move(opts), &diag);
  if (!diag.empty()) std::cerr << diag << "\n";
  scorer_slot_ = std::make_unique<ModelSlot<ScorerFactory>>(
      std::make_unique<ScorerFactory>(std::move(factory)), opts_.shards);
  // Core accounting always lives in registry counters (the IngestStats
  // façade reads them back); the extended instruments — ring gauges and
  // per-stage latency histograms, with their clock reads — only run when
  // the embedder gave us a registry to publish into.
  extended_ = opts_.registry != nullptr;
  reg_ = extended_ ? opts_.registry : &local_reg_;
  const std::string& p = opts_.instrument_prefix;
  enqueued_ = &reg_->counter(p + "enqueued");
  dropped_ = &reg_->counter(p + "dropped");
  parse_skipped_ = &reg_->counter(p + "parse_skipped");
  scored_ = &reg_->counter(p + "scored");
  alerted_ = &reg_->counter(p + "alerted");
  swaps_applied_ = &reg_->counter(p + "swaps_applied");
  if (extended_) {
    queue_high_water_ = &reg_->gauge(p + "queue.high_water");
    extract_ns_ = &reg_->histogram(p + "stage.extract_ns");
    score_ns_ = &reg_->histogram(p + "stage.score_ns");
    flush_ns_ = &reg_->histogram(p + "stage.flush_ns");
    score_batch_rows_ = &reg_->histogram(p + "score.batch_rows");
    shard_instruments_.resize(opts_.shards);
    for (size_t i = 0; i < opts_.shards; ++i) {
      const std::string sp = p + "shard" + std::to_string(i) + ".";
      shard_instruments_[i] =
          ShardInstruments{&reg_->counter(sp + "routed"),
                           &reg_->counter(sp + "scored"),
                           &reg_->counter(sp + "alerted"),
                           &reg_->counter(sp + "parse_skipped"),
                           &reg_->gauge(sp + "ring.high_water"),
                           &reg_->counter(sp + "ring.consumer_parks"),
                           &reg_->counter(sp + "ring.producer_parks")};
    }
  }
  // stats() before the first run() must read zero even when another
  // runtime already bumped these (shared registry, shared prefix).
  base_ = Baseline{enqueued_->value(), dropped_->value(),
                   parse_skipped_->value(), scored_->value(),
                   alerted_->value()};
}

IngestRuntime::IngestRuntime(Options opts, StreamPipelineFactory factory,
                             EpochSink* sink)
    : IngestRuntime(std::move(opts), ScorerFactory{}, nullptr) {
  pipeline_factory_ = std::move(factory);
  epoch_sink_ = sink;
}

void IngestRuntime::deploy(ScorerFactory factory) {
  scorer_slot_->publish(std::make_unique<ScorerFactory>(std::move(factory)));
}

bool IngestRuntime::register_tenant(uint32_t tenant, ScorerFactory factory) {
  if (tenant == 0 || !factory) return false;
  if (running_.load(std::memory_order_acquire)) return false;
  auto [it, inserted] = tenants_.try_emplace(tenant);
  if (!inserted) return false;
  it->second.slot = std::make_unique<ModelSlot<ScorerFactory>>(
      std::make_unique<ScorerFactory>(std::move(factory)), opts_.shards);
  const std::string tp =
      opts_.instrument_prefix + "tenant" + std::to_string(tenant) + ".";
  it->second.scored = &reg_->counter(tp + "scored");
  it->second.alerted = &reg_->counter(tp + "alerted");
  it->second.swaps_applied = &reg_->counter(tp + "swaps_applied");
  return true;
}

bool IngestRuntime::deploy(uint32_t tenant, ScorerFactory factory) {
  if (tenant == 0) {
    deploy(std::move(factory));
    return true;
  }
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return false;
  it->second.slot->publish(
      std::make_unique<ScorerFactory>(std::move(factory)));
  return true;
}

void IngestRuntime::consume(size_t id, Ring& ring,
                            std::unique_ptr<PacketScorer> scorer,
                            uint64_t scorer_version, netio::LinkType link) {
  // Everything below is consumer-local until the per-batch flush: packets
  // are claimed in batches (one ring publication per batch),
  // scored without any shared state, and sink records plus stats counters
  // are published once per batch. Buffers are reused across batches, so
  // the steady-state loop performs no allocation. Telemetry is also
  // per-batch — four clock reads and a handful of relaxed adds per batch,
  // never per packet.
  using Clock = std::chrono::steady_clock;
  const auto ns_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
  };
  struct Scored {
    netio::PacketView view;
    double score = 0.0;
    double threshold = 0.0;
    bool alerted = false;
    uint32_t tenant = 0;
  };
  /// A consumer's scoring state for one tenant: its own scorer instance
  /// (isolated streaming state) tracking its own hot-swap slot. Tenant 0
  /// seeds from the scorer run() built; other tenants build lazily on
  /// first packet — from their registered slot, or from the default slot
  /// for unregistered ids (isolated instance, shared factory).
  struct TenantCtx {
    std::unique_ptr<PacketScorer> scorer;
    uint64_t version = 0;
    ModelSlot<ScorerFactory>* slot = nullptr;
    TenantState* state = nullptr;  // registered tenants only
  };
  std::unordered_map<uint32_t, TenantCtx> ctxs;
  {
    TenantCtx c0;
    c0.scorer = std::move(scorer);
    c0.version = scorer_version;
    c0.slot = scorer_slot_.get();
    ctxs.emplace(0, std::move(c0));
  }
  // Hot-swap check at the batch boundary, per tenant seen in the batch: a
  // ModelSlot pin is two atomic loads plus one store — the cost of
  // noticing a deploy() — and the rebuild only runs when the observed
  // epoch moved, so swapping tenant A never rebuilds tenant B.
  const auto pin_ctx = [&](uint32_t t) -> TenantCtx& {
    auto it = ctxs.find(t);
    if (it == ctxs.end()) {
      TenantCtx c;
      c.slot = scorer_slot_.get();
      auto reg = tenants_.find(t);
      if (reg != tenants_.end()) {
        c.slot = reg->second.slot.get();
        c.state = &reg->second;
      }
      const auto pinned = c.slot->pin(id);
      c.scorer = (*pinned.value)(id);
      if (!c.scorer) {
        throw std::runtime_error("ingest: scorer factory returned null for "
                                 "tenant " +
                                 std::to_string(t) + ", consumer " +
                                 std::to_string(id));
      }
      c.version = pinned.version;
      it = ctxs.emplace(t, std::move(c)).first;
      return it->second;
    }
    TenantCtx& c = it->second;
    const auto pinned = c.slot->pin(id);
    if (pinned.version != c.version) {
      auto next = (*pinned.value)(id);
      if (!next) {
        throw std::runtime_error(
            "ingest: hot-swapped scorer factory returned null for "
            "consumer " +
            std::to_string(id));
      }
      c.scorer = std::move(next);
      c.version = pinned.version;
      swaps_applied_->add(1);
      if (c.state != nullptr) c.state->swaps_applied->add(1);
    }
    return c;
  };
  ShardInstruments* si =
      id < shard_instruments_.size() ? &shard_instruments_[id] : nullptr;
  std::vector<netio::SourcePacket> batch;
  std::vector<netio::PacketView> parsed;
  std::vector<uint32_t> tenant_of;      // aligned with parsed
  std::vector<uint32_t> batch_tenants;  // distinct, first-appearance order
  std::vector<uint64_t> t_scored, t_alerted;  // aligned with batch_tenants
  std::vector<double> scores;
  std::vector<double> thresholds;  // aligned with parsed (mixed path only)
  std::vector<netio::PacketView> scratch_views;
  std::vector<double> scratch_scores;
  std::vector<size_t> scratch_idx;
  std::vector<Scored> pending;
  batch.reserve(opts_.consumer_batch);
  parsed.reserve(opts_.consumer_batch);
  tenant_of.reserve(opts_.consumer_batch);
  scores.reserve(opts_.consumer_batch);
  pending.reserve(opts_.consumer_batch);
  while (claim(ring, batch, opts_.consumer_batch) > 0) {
    batch_tenants.clear();
    for (const netio::SourcePacket& sp : batch) {
      if (std::find(batch_tenants.begin(), batch_tenants.end(), sp.tenant) ==
          batch_tenants.end())
        batch_tenants.push_back(sp.tenant);
    }
    for (uint32_t t : batch_tenants) pin_ctx(t);
    uint64_t skipped = 0, scored = 0, alerted = 0;
    Clock::time_point t0, t1, t2;
    // Stage 1 — extract: parse the whole batch (views borrow the packet
    // bytes in `batch`, which outlives the flush below).
    if (extended_) t0 = Clock::now();
    parsed.clear();
    tenant_of.clear();
    for (netio::SourcePacket& sp : batch) {
      auto p = netio::parse_packet(sp.pkt, link, sp.capture_index);
      if (!p.ok()) {
        ++skipped;
        continue;
      }
      parsed.push_back(p.value());
      tenant_of.push_back(sp.tenant);
    }
    if (extended_) t1 = Clock::now();
    // Stage 2 — score, in consumption order (scorer state is per-consumer
    // per-tenant). The claimed batch is scored in score_batch-row
    // micro-batches through the fused PacketScorer::score_batch path;
    // per-packet alert ordering is preserved because scores land
    // positionally in `scores` and the alert/sink pass below walks them in
    // consumption order. A tail chunk is just a smaller micro-batch — the
    // batch-invariance contract makes its scores identical either way.
    scores.resize(parsed.size());
    const bool single_tenant = batch_tenants.size() <= 1;
    double uniform_threshold = 0.0;
    if (single_tenant) {
      // Fast path (a replay run, or a gateway serving one tenant): exactly
      // the historic single-scorer batch loop, bit for bit.
      PacketScorer& sc =
          *ctxs.at(batch_tenants.empty() ? 0 : batch_tenants[0]).scorer;
      for (size_t lo = 0; lo < parsed.size(); lo += opts_.score_batch) {
        const size_t n = std::min(opts_.score_batch, parsed.size() - lo);
        sc.score_batch(
            std::span<const netio::PacketView>(parsed.data() + lo, n),
            scores.data() + lo);
        if (extended_) score_batch_rows_->record(static_cast<double>(n));
      }
      uniform_threshold = sc.threshold();
    } else {
      // Mixed batch: partition by tenant preserving each tenant's arrival
      // order, score each partition contiguously through that tenant's
      // scorer, and scatter results back positionally. Equivalent to
      // having claimed each tenant's packets in separate batches.
      thresholds.resize(parsed.size());
      for (uint32_t t : batch_tenants) {
        scratch_idx.clear();
        scratch_views.clear();
        for (size_t i = 0; i < parsed.size(); ++i) {
          if (tenant_of[i] != t) continue;
          scratch_idx.push_back(i);
          scratch_views.push_back(parsed[i]);
        }
        if (scratch_idx.empty()) continue;  // all of t's packets skipped
        TenantCtx& ctx = ctxs.at(t);
        scratch_scores.resize(scratch_views.size());
        for (size_t lo = 0; lo < scratch_views.size();
             lo += opts_.score_batch) {
          const size_t n =
              std::min(opts_.score_batch, scratch_views.size() - lo);
          ctx.scorer->score_batch(
              std::span<const netio::PacketView>(scratch_views.data() + lo,
                                                 n),
              scratch_scores.data() + lo);
          if (extended_) score_batch_rows_->record(static_cast<double>(n));
        }
        const double thr = ctx.scorer->threshold();
        for (size_t k = 0; k < scratch_idx.size(); ++k) {
          scores[scratch_idx[k]] = scratch_scores[k];
          thresholds[scratch_idx[k]] = thr;
        }
      }
    }
    t_scored.assign(batch_tenants.size(), 0);
    t_alerted.assign(batch_tenants.size(), 0);
    uint32_t run_tenant = 0;
    size_t run_ti = 0;
    bool run_valid = false;
    for (size_t i = 0; i < parsed.size(); ++i) {
      const netio::PacketView& view = parsed[i];
      const double score = scores[i];
      const double threshold =
          single_tenant ? uniform_threshold : thresholds[i];
      const bool is_alert = score > threshold;
      ++scored;
      if (is_alert) ++alerted;
      const uint32_t t = tenant_of[i];
      if (!run_valid || t != run_tenant) {
        run_tenant = t;
        run_ti = static_cast<size_t>(
            std::find(batch_tenants.begin(), batch_tenants.end(), t) -
            batch_tenants.begin());
        run_valid = true;
      }
      ++t_scored[run_ti];
      if (is_alert) ++t_alerted[run_ti];
      if (sink_ != nullptr) {
        pending.push_back(Scored{view, score, threshold, is_alert, t});
      }
    }
    if (extended_) t2 = Clock::now();
    if (skipped != 0) parse_skipped_->add(skipped);
    if (scored != 0) scored_->add(scored);
    if (alerted != 0) alerted_->add(alerted);
    for (size_t ti = 0; ti < batch_tenants.size(); ++ti) {
      TenantState* ts = ctxs.at(batch_tenants[ti]).state;
      if (ts == nullptr) continue;
      if (t_scored[ti] != 0) ts->scored->add(t_scored[ti]);
      if (t_alerted[ti] != 0) ts->alerted->add(t_alerted[ti]);
    }
    if (si != nullptr) {
      if (skipped != 0) si->parse_skipped->add(skipped);
      if (scored != 0) si->scored->add(scored);
      if (alerted != 0) si->alerted->add(alerted);
    }
    // Stage 3 — flush the batch's sink records.
    if (!pending.empty()) {
      std::lock_guard<std::mutex> lock(sink_mu_);
      for (const Scored& p : pending) {
        sink_->on_packet(p.view, p.score, p.alerted);
        if (p.alerted) {
          sink_->on_alert(Alert{p.view.ts, p.view.index, p.score,
                                p.threshold, id, p.tenant});
        }
      }
    }
    pending.clear();
    if (extended_) {
      const Clock::time_point t3 = Clock::now();
      // extract/score samples are the batch's mean per-packet cost; flush
      // is the whole batch's sink hand-off (it is per-batch by design).
      if (!batch.empty()) {
        extract_ns_->record(ns_between(t0, t1) /
                            static_cast<double>(batch.size()));
      }
      if (!parsed.empty()) {
        score_ns_->record(ns_between(t1, t2) /
                          static_cast<double>(parsed.size()));
      }
      flush_ns_->record(ns_between(t2, t3));
    }
  }
}

void IngestRuntime::consume_pipeline(size_t id, Ring& ring,
                                     StreamPipeline& pipe,
                                     netio::LinkType link) {
  // Same staged batch loop as consume(), but the scoring stage feeds the
  // compiled operator chain: the chain's own state machinery (group
  // directories, window clocks, accumulators) replaces the PacketScorer.
  // Epoch emission happens synchronously inside pipe.push/finish via the
  // callback installed in run(); everything else is consumer-local.
  using Clock = std::chrono::steady_clock;
  const auto ns_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
  };
  ShardInstruments* si =
      id < shard_instruments_.size() ? &shard_instruments_[id] : nullptr;
  std::vector<netio::SourcePacket> batch;
  std::vector<netio::PacketView> parsed;
  batch.reserve(opts_.consumer_batch);
  parsed.reserve(opts_.consumer_batch);
  while (claim(ring, batch, opts_.consumer_batch) > 0) {
    uint64_t skipped = 0;
    Clock::time_point t0, t1, t2;
    if (extended_) t0 = Clock::now();
    parsed.clear();
    for (netio::SourcePacket& sp : batch) {
      auto p = netio::parse_packet(sp.pkt, link, sp.capture_index);
      if (!p.ok()) {
        ++skipped;
        continue;
      }
      parsed.push_back(p.value());
    }
    if (extended_) t1 = Clock::now();
    for (const netio::PacketView& view : parsed) pipe.push(view);
    if (extended_) t2 = Clock::now();
    if (skipped != 0) parse_skipped_->add(skipped);
    if (!parsed.empty()) scored_->add(parsed.size());
    if (si != nullptr) {
      if (skipped != 0) si->parse_skipped->add(skipped);
      if (!parsed.empty()) si->scored->add(parsed.size());
    }
    if (extended_) {
      if (!batch.empty()) {
        extract_ns_->record(ns_between(t0, t1) /
                            static_cast<double>(batch.size()));
      }
      if (!parsed.empty()) {
        score_ns_->record(ns_between(t1, t2) /
                          static_cast<double>(parsed.size()));
      }
    }
  }
  // End of stream: flush the chain's open windows/micro-batches.
  pipe.finish();
}

Result<IngestStats> IngestRuntime::drive(
    netio::SourceDriver& driver,
    const std::function<void(size_t, Ring&, netio::LinkType)>&
        consumer_body) {
  // Per-run façade semantics over cumulative instruments: re-baseline now.
  base_ = Baseline{enqueued_->value(), dropped_->value(),
                   parse_skipped_->value(), scored_->value(),
                   alerted_->value()};
  high_water_snapshot_ = 0;
  stop_.store(false);
  running_.store(true, std::memory_order_release);

  const size_t n_shards = opts_.shards;
  const netio::LinkType link = driver.link();
  FlowShardRouter router(n_shards, link);
  std::vector<std::unique_ptr<Ring>> rings;
  rings.reserve(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    rings.push_back(std::make_unique<Ring>(opts_.queue_capacity));
  }
  if (extended_) {
    // The ring gauges describe THIS run's rings: reset them, or a reused
    // runtime (or a second runtime sharing the registry and prefix) keeps
    // publishing the previous run's high-water mark — update_max never
    // comes back down on its own. queue.high_water reports the max ring
    // high-water across shards.
    queue_high_water_->set(0.0);
    for (ShardInstruments& si : shard_instruments_) {
      si.ring_high_water->set(0.0);
    }
  }

  // Consumers follow the parallel.h exception convention: the first failure
  // is captured and rethrown on the caller once every thread has joined.
  std::vector<std::exception_ptr> errors(n_shards);
  std::vector<std::thread> threads;
  threads.reserve(n_shards);
  for (size_t c = 0; c < n_shards; ++c) {
    threads.emplace_back([c, &rings, &errors, link, &consumer_body] {
      try {
        consumer_body(c, *rings[c], link);
      } catch (...) {
        errors[c] = std::current_exception();
        // Close every ring: siblings drain and exit, and the producer
        // sees kClosed instead of feeding a dead run.
        for (auto& r : rings) r->close();
      }
    });
  }

  // The driver runs on the calling thread; the shard feed routes each
  // offered frame by flow hash into the owning ring. Per-shard routed
  // counts, ring park counts and ring high-water marks are mirrored into
  // telemetry in periodic flushes, never per packet.
  std::vector<uint64_t> routed(n_shards, 0);
  std::vector<uint64_t> routed_flushed(n_shards, 0);
  std::vector<uint64_t> consumer_parks_flushed(n_shards, 0);
  std::vector<uint64_t> producer_parks_flushed(n_shards, 0);
  const auto mirror = [](telemetry::Counter* c, uint64_t now,
                         uint64_t& flushed) {
    if (now != flushed) {
      c->add(now - flushed);
      flushed = now;
    }
  };
  const auto flush_shard_telemetry = [&] {
    for (size_t i = 0; i < shard_instruments_.size(); ++i) {
      const ShardInstruments& si = shard_instruments_[i];
      mirror(si.routed, routed[i], routed_flushed[i]);
      mirror(si.consumer_parks, rings[i]->consumer_parks(),
             consumer_parks_flushed[i]);
      mirror(si.producer_parks, rings[i]->producer_parks(),
             producer_parks_flushed[i]);
      si.ring_high_water->update_max(
          static_cast<double>(rings[i]->high_water()));
    }
  };
  ShardFrameFeed ffeed(router, rings, opts_.overflow, *enqueued_, *dropped_,
                       routed, flush_shard_telemetry);
  Result<void> driven = driver.drive(ffeed, stop_);
  for (auto& r : rings) r->close();
  for (auto& t : threads) t.join();
  running_.store(false, std::memory_order_release);

  size_t hw = 0;
  for (const auto& r : rings) hw = std::max(hw, r->high_water());
  high_water_snapshot_ = hw;
  flush_shard_telemetry();
  if (extended_) queue_high_water_->update_max(static_cast<double>(hw));
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  if (!driven.ok()) return driven.error();
  return stats();
}

Result<IngestStats> IngestRuntime::run(netio::PacketSource& source) {
  netio::ReplayDriver driver(source);
  return run(driver);
}

Result<IngestStats> IngestRuntime::run(netio::SourceDriver& driver) {
  const size_t n_shards = opts_.shards;
  if (pipeline_factory_) {
    std::vector<std::unique_ptr<StreamPipeline>> pipes;
    pipes.reserve(n_shards);
    for (size_t c = 0; c < n_shards; ++c) {
      pipes.push_back(pipeline_factory_(c));
      if (!pipes.back()) {
        return Error::make(
            "ingest",
            "pipeline factory returned null for consumer " + std::to_string(c));
      }
      pipes.back()->set_callback([this, c](EpochBatch&& b) {
        uint64_t alerts = 0;
        for (const int p : b.predictions) alerts += p != 0 ? 1 : 0;
        if (alerts != 0) {
          alerted_->add(alerts);
          if (c < shard_instruments_.size()) {
            shard_instruments_[c].alerted->add(alerts);
          }
        }
        if (epoch_sink_ != nullptr) {
          std::lock_guard<std::mutex> lock(sink_mu_);
          epoch_sink_->on_epoch(b, c);
        }
      });
    }
    return drive(driver,
                 [this, &pipes](size_t id, Ring& ring, netio::LinkType link) {
                   consume_pipeline(id, ring, *pipes[id], link);
                 });
  }

  // Build each consumer's initial scorer from the currently-deployed
  // factory, announcing the build epoch so consume() only rebuilds when
  // deploy() publishes something newer.
  std::vector<std::unique_ptr<PacketScorer>> scorers;
  std::vector<uint64_t> versions;
  scorers.reserve(n_shards);
  versions.reserve(n_shards);
  for (size_t c = 0; c < n_shards; ++c) {
    const auto pinned = scorer_slot_->pin(c);
    scorers.push_back((*pinned.value)(c));
    versions.push_back(pinned.version);
    if (!scorers.back()) {
      return Error::make("ingest", "scorer factory returned null for consumer " +
                                       std::to_string(c));
    }
  }
  return drive(driver,
               [this, &scorers, &versions](size_t id, Ring& ring,
                                           netio::LinkType link) {
                 consume(id, ring, std::move(scorers[id]), versions[id], link);
               });
}

IngestStats IngestRuntime::stats() const {
  IngestStats s;
  s.enqueued = enqueued_->value() - base_.enqueued;
  s.dropped = dropped_->value() - base_.dropped;
  s.parse_skipped = parse_skipped_->value() - base_.parse_skipped;
  s.scored = scored_->value() - base_.scored;
  s.alerted = alerted_->value() - base_.alerted;
  s.queue_high_water = high_water_snapshot_;
  return s;
}

}  // namespace lumen::core
