// The gateway benchmark's load generator, sinks and tracing wrappers.
//
// Packets are numbered by their position k in the offered sequence. A
// Ledger keeps per-packet timestamps indexed by k; the program under test
// only ever sees frames and capture indices, and the benchmark maps a
// verdict's capture index back to k (SequenceMap).
//
// The OpenLoop controller runs the phase schedule on the producer side:
// paced phases offer packet k at its scheduled time whatever the gateway
// does (latency is then measured from that scheduled time), an unpaced
// phase offers as fast as the gateway takes packets, and the pause between
// phases waits until every offered packet has its verdict, so each phase
// starts on an empty gateway.
//
// Everything that times a layer lives here, outside src/: a FrameFeed
// wrapper around the runtime's feed, a PacketScorer that calls the
// extractor and the KitNET ensemble directly, and the sinks.
#pragma once

#include <sys/mman.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "capture.h"
#include "core/ingest.h"
#include "core/stream.h"
#include "core/stream_op.h"
#include "netio/frontend.h"

namespace gwbench {

using Clock = std::chrono::steady_clock;

inline int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Zero-filled array in its own anonymous mapping: pages only become
/// resident once written, so the ledger's memory grows with the packets a
/// run offers, not with the capacity reserved for it, and the mapping can
/// be told apart from the gateway's memory when reading the process RSS.
template <typename T>
class LazyArray {
 public:
  explicit LazyArray(size_t n) : n_(n == 0 ? 1 : n) {
    void* p = mmap(nullptr, n_ * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    p_ = static_cast<T*>(p);
  }
  ~LazyArray() { munmap(p_, n_ * sizeof(T)); }
  LazyArray(const LazyArray&) = delete;
  LazyArray& operator=(const LazyArray&) = delete;
  T& operator[](size_t i) { return p_[i]; }
  const T& operator[](size_t i) const { return p_[i]; }
  size_t size() const { return n_; }
  const void* data() const { return p_; }

 private:
  size_t n_;
  T* p_ = nullptr;
};

/// Maps capture indices to sequence numbers. Tenant slot s streams its
/// packets with capture indices (s << 31) | j; the offered sequence
/// interleaves tenants round-robin, so k = j * tenants + s.
struct SequenceMap {
  size_t tenants = 1;
  uint32_t index_of(uint64_t k) const {
    return static_cast<uint32_t>(((k % tenants) << 31) | (k / tenants));
  }
  uint64_t seq_of(uint32_t index) const {
    return uint64_t{index & 0x7fffffffu} * tenants + (index >> 31);
  }
  size_t slot_of(uint64_t k) const { return k % tenants; }
  uint64_t local_of(uint64_t k) const { return k / tenants; }
};

/// The workload's traffic: one capture per tenant, addressed by k.
struct Traffic {
  std::vector<Capture> tenants;
  SequenceMap map;
  const Capture& capture(uint64_t k) const { return tenants[map.slot_of(k)]; }
  const lumen::netio::RawPacket& frame(uint64_t k) const {
    return capture(k).frame(map.local_of(k));
  }
  double ts(uint64_t k) const { return capture(k).ts(map.local_of(k)); }
  bool malformed(uint64_t k) const {
    return capture(k).is_malformed(map.local_of(k));
  }
};

/// Per-packet times, in ns since the ledger's origin (0 = not recorded).
/// Each slot is written by exactly one thread: lag/send by the generator,
/// offer by the producer, entry/ret by the scoring consumer, verdict and
/// score by the sink (serialized by the runtime). Arrays a run does not
/// use hold one element.
struct Ledger {
  /// per_packet: verdicts arrive per packet (scorer mode), not per epoch.
  Ledger(size_t capacity, bool traced, bool per_packet);
  int64_t origin = 0;
  bool traced = false;
  bool per_packet = false;
  LazyArray<float> lag_us;     // generator lateness at hand-off
  LazyArray<int64_t> verdict;  // on_packet call (per-packet runs)
  LazyArray<double> score;     // its score (per-packet runs)
  // Traced runs only.
  LazyArray<int64_t> send;   // generator send() that carried the record
  LazyArray<int64_t> offer;  // accepted FrameFeed::offer
  LazyArray<int64_t> entry;  // entry into the score_batch holding it
  LazyArray<int64_t> ret;    // that score_batch's return
  size_t capacity() const { return lag_us.size(); }
  int64_t stamp() const { return mono_ns() - origin; }
  /// The arrays' storage (for excluding it from the process's RSS).
  std::vector<const void*> regions() const;
};

/// What a phase is for; layer totals are kept per kind.
enum PhaseKind : int { kWarmup, kLight, kHeavy, kDrain, kStep, kPhaseKinds };

/// One phase of the open-loop schedule.
struct Phase {
  std::string name;
  PhaseKind kind = kWarmup;
  double rate = 0.0;  // packets/s offered; 0 = unpaced (as fast as taken)
  uint64_t first = 0, end = 0;   // sequence range [first, end)
  int64_t start = 0, stop = 0;   // ledger ns: first due time, last offer
  uint64_t offered = 0, rejected = 0;  // rejected: malformed, parser drops
  uint64_t verdicts = 0;         // sink verdicts this phase owed
  bool settled_ok = true;        // all verdicts arrived within the grace
  // Filled once settled (paced phases).
  size_t samples = 0;
  // achieved_pps: packets given verdicts per second (drain: the median of
  // five slices; paced: offered over the offering time).
  double p50_us = 0, p99_us = 0, lag_p99_us = 0, achieved_pps = 0;
  double pooled_p99_us = 0;  // p99 over the whole phase, for the record
  // Paced: each latency slice's p99 (and p50); drain: each slice's
  // packet rate.
  std::vector<double> slices, slices_p50;
  bool valid = true;  // generator kept to its schedule
  bool pass = false;  // ladder step: p99, backlog and validity all held

  int64_t due(uint64_t k) const {
    return start + static_cast<int64_t>(static_cast<double>(k - first) *
                                        1e9 / rate);
  }
};

/// Counts verdicts as the sink delivers them; the controller waits on it.
struct VerdictClock {
  std::atomic<uint64_t> verdicts{0};
};

/// How a workload's verdicts relate to the packets offered: one per
/// well-formed packet (Kitsune scoring) or one per closed window (the
/// streaming pipeline).
class Verdicts {
 public:
  virtual ~Verdicts() = default;
  VerdictClock clock;
  /// Verdicts the sink owes for packets [0, n); n never decreases.
  virtual uint64_t expected(uint64_t n) = 0;
  /// Verdict latencies, in µs from the scheduled send time, of a settled
  /// paced phase.
  virtual std::vector<double> latencies(const Phase& ph) const = 0;
  /// Packets given a verdict per second over consecutive slices of a
  /// settled unpaced phase.
  virtual std::vector<double> drain_rates(const Phase& ph) const = 0;
};

/// Producer-side hand-off used by the controller: the replay driver offers
/// into the runtime's FrameFeed, the socket generator writes LUM1 records.
class Emitter {
 public:
  virtual ~Emitter() = default;
  /// Hand packet k over. Returns false once the gateway stopped taking.
  virtual bool emit(uint64_t k) = 0;
  /// Move buffered output toward the gateway, waiting for the sockets no
  /// later than `deadline` (ledger ns). Returns false on a dead gateway.
  virtual bool pump(int64_t deadline) { return true; }
  /// True while output is buffered and not yet sent.
  virtual bool pending() const { return false; }
};

/// Schedule knobs, fixed by the benchmark (durations and rounds as run
/// for --seconds 20; schedule_for adapts them to the run length).
struct Schedule {
  double light_pps = 100000;
  // 200k pkt/s stays below 80% of every workload's drain on the 4-core
  // reference host; were it above, heavy would be 70% of that drain,
  // rounded down to 25k.
  double heavy_pps = 200000;
  size_t rounds = 5;  // light, heavy and drain phases, in that order
  double warmup_paced_s = 0.5, recover_s = 0.2, light_s = 0.6, heavy_s = 0.6,
         drain_s = 0.6, step_s = 0.4;
  uint64_t warmup_packets = 0;  // untimed unpaced packets before "light"
  // Ladder: coarse steps from the heavy rate (x coarse_ratio, up to
  // ladder_hi x drain), then narrowing until the rate that held and the
  // one that did not are at most ladder_ratio apart.
  double ladder_hi = 1.2, coarse_ratio = 1.5;
  double ladder_ratio = 1.05;
  double p99_limit_us = 2000;  // a ladder step must keep p99 within this
  double lag_limit_us = 250;   // generator lag p99 beyond this: invalid
  double settle_s = 5.0;       // grace for a phase's verdicts to arrive
  bool drain_only = false;     // warm-up and the drain phases only
};

/// Runs the phase schedule: an untimed warm-up, rounds of light, heavy and
/// the unpaced drain, then the rate ladder.
class OpenLoop {
 public:
  OpenLoop(const Schedule& sched, const Traffic& traffic, Ledger& ledger,
           Verdicts& verdicts);

  /// Drives every phase through `em`; returns false if the gateway
  /// stopped taking packets or a phase's verdicts never all arrived.
  bool run(Emitter& em);
  /// Called on the producer thread before each phase (thread pinning).
  void set_phase_hook(std::function<void()> hook) { hook_ = std::move(hook); }

  const std::vector<Phase>& phases() const { return phases_; }
  const Phase* phase(const std::string& name) const;
  uint64_t offered() const { return next_; }
  /// Median over every slice of the rounds' drain phases.
  double drain_pps() const { return drain_pps_; }
  /// Process peak RSS when the last drain round settled (before the
  /// ladder), less what the own-memory hook reported at that moment.
  uint64_t peak_rss_before_ladder() const { return peak_rss_bytes_; }
  /// Resident bytes the benchmark itself holds (ledger, epoch records).
  void set_own_memory(std::function<uint64_t()> f) { own_memory_ = std::move(f); }
  const Schedule& schedule() const { return sched_; }
  /// Sequence number at which span sampling starts (the heavy phase).
  std::atomic<uint64_t> sample_lo{UINT64_MAX};
  /// Index and kind of the phase being offered (per-phase layer timing).
  std::atomic<size_t> current{0};
  std::atomic<int> current_kind{kWarmup};

 private:
  bool paced(Emitter& em, Phase& ph, double seconds);
  bool unpaced(Emitter& em, Phase& ph, double seconds, uint64_t max_packets);
  bool settle(Emitter& em, Phase& ph);
  void evaluate(Phase& ph) const;

  Schedule sched_;
  const Traffic& traffic_;
  Ledger& ledger_;
  Verdicts& verdicts_;
  std::vector<Phase> phases_;
  uint64_t next_ = 0;
  double drain_pps_ = 0;
  uint64_t peak_rss_bytes_ = 0;
  std::function<void()> hook_;
  std::function<uint64_t()> own_memory_;
};

// ---------------------------------------------------------------------------
// Replay ingest: a SourceDriver that runs the controller on the runtime's
// producer thread and offers each packet into the runtime's FrameFeed,
// waiting on kBusy exactly like the repository's ReplayDriver.

class ScheduledReplayDriver : public lumen::netio::SourceDriver,
                              private Emitter {
 public:
  ScheduledReplayDriver(OpenLoop& loop, const Traffic& traffic)
      : loop_(loop), traffic_(traffic) {}
  lumen::netio::LinkType link() const override {
    return traffic_.tenants[0].link;
  }
  lumen::Result<void> drive(lumen::netio::FrameFeed& feed,
                            const std::atomic<bool>& stop) override;

 private:
  bool emit(uint64_t k) override;
  OpenLoop& loop_;
  const Traffic& traffic_;
  lumen::netio::FrameFeed* feed_ = nullptr;
  const std::atomic<bool>* stop_ = nullptr;
};

// ---------------------------------------------------------------------------
// Socket ingest: one generator thread streams every tenant's records over
// its own TCP connection on the open-loop schedule. Non-blocking sockets
// keep the schedule independent of the gateway: records that cannot be
// written yet queue in the generator, and their latency still counts from
// the scheduled time.

class SocketGenerator : private Emitter {
 public:
  SocketGenerator(OpenLoop& loop, const Traffic& traffic, Ledger& ledger);
  ~SocketGenerator() override;
  SocketGenerator(const SocketGenerator&) = delete;
  SocketGenerator& operator=(const SocketGenerator&) = delete;

  /// Connects one stream per tenant (tenant id = slot + 1) and sends the
  /// hellos.
  lumen::Result<void> connect(uint16_t port);
  /// Runs the schedule, then sends FIN on every stream and closes them.
  lumen::Result<void> run();

 private:
  struct Conn {
    int fd = -1;
    std::vector<uint8_t> out;
    size_t sent = 0;  // bytes of `out` already written
    // Traced runs: (end offset in the stream, k) awaiting a send stamp.
    std::vector<std::pair<uint64_t, uint64_t>> marks;
    size_t mark_head = 0;
    uint64_t stream_off = 0;  // stream bytes before out[0]
  };
  bool emit(uint64_t k) override;
  bool pump(int64_t deadline) override;
  bool pending() const override;
  bool send_some(Conn& c);

  OpenLoop& loop_;
  const Traffic& traffic_;
  Ledger& ledger_;
  std::vector<Conn> conns_;
  lumen::netio::RawPacket scratch_;
  bool dead_ = false;
};

// ---------------------------------------------------------------------------
// Sinks.

/// Records every packet verdict into the ledger and checks each alert flag
/// against its tenant's threshold. Calls arrive serialized by the runtime.
class VerdictSink : public lumen::core::AlertSink {
 public:
  /// tenant_ids[s]: the tenant id tenant slot s streams under.
  VerdictSink(Ledger& ledger, VerdictClock& clock, const OpenLoop& loop,
              SequenceMap map, std::vector<uint32_t> tenant_ids)
      : ledger_(ledger), clock_(clock), loop_(loop), map_(map),
        tenant_ids_(std::move(tenant_ids)) {}
  /// The trained detectors' thresholds, by tenant slot (before the run).
  void set_thresholds(std::vector<double> t) { thresholds_ = std::move(t); }
  void on_packet(const lumen::netio::PacketView& view, double score,
                 bool alerted) override;
  void on_alert(const lumen::core::Alert& alert) override;

  uint64_t alerts() const { return alerts_; }
  uint64_t flagged() const { return flagged_; }
  uint64_t inconsistent() const { return inconsistent_; }
  /// Traced runs: time inside on_packet, and per phase kind the
  /// consumer's hand-off busy time (each score_batch's return to its last
  /// packet's on_packet).
  double call_ns() const { return call_ns_; }
  uint64_t calls() const { return calls_; }
  double handoff_busy_ns(PhaseKind kind) const {
    return handoff_busy_ns_[kind] + (batch_kind_ == kind ? open_busy() : 0);
  }

 private:
  double open_busy() const {
    return batch_ret_ != 0 ? static_cast<double>(batch_last_ - batch_ret_)
                           : 0.0;
  }
  Ledger& ledger_;
  VerdictClock& clock_;
  const OpenLoop& loop_;
  SequenceMap map_;
  std::vector<uint32_t> tenant_ids_;  // by tenant slot
  std::vector<double> thresholds_;   // by tenant slot
  uint64_t alerts_ = 0, flagged_ = 0, inconsistent_ = 0;
  double call_ns_ = 0;
  double handoff_busy_ns_[kPhaseKinds] = {};
  uint64_t calls_ = 0;
  int64_t batch_ret_ = 0, batch_last_ = 0;
  int batch_kind_ = kWarmup;
};

/// One emitted epoch as the benchmark keeps it: a digest of everything the
/// chain produced, plus when the sink received it.
struct EpochRecord {
  uint64_t epoch = 0;
  double window_start = 0;
  uint64_t rows = 0, alerts = 0;
  uint64_t digest = 0;
  int64_t at = 0;  // ledger ns
};

/// Digest of an epoch's keys, rows, scores and predictions (bit-exact).
uint64_t epoch_digest(const lumen::core::EpochBatch& b);

class EpochRecorder : public lumen::core::EpochSink {
 public:
  /// Room for `capacity` epochs is mapped up front: growing the record
  /// inside on_epoch would stall the consumer thread that calls it.
  EpochRecorder(Ledger& ledger, bool traced, size_t capacity)
      : ledger_(ledger), traced_(traced), epochs_(capacity) {}
  /// Where delivered epochs are counted (before the run).
  void set_clock(VerdictClock& clock) { clock_ = &clock; }
  void on_epoch(const lumen::core::EpochBatch& b, size_t consumer) override;
  std::span<const EpochRecord> epochs() const {
    return {&epochs_[0], count_};
  }
  const void* storage() const { return epochs_.data(); }
  double call_ns() const { return call_ns_; }

 private:
  Ledger& ledger_;
  VerdictClock* clock_ = nullptr;
  bool traced_;
  LazyArray<EpochRecord> epochs_;
  size_t count_ = 0;
  double call_ns_ = 0;
};

/// One verdict per well-formed packet, stamped into the ledger by
/// VerdictSink; malformed frames are owed none.
class PacketVerdicts : public Verdicts {
 public:
  PacketVerdicts(const Traffic& traffic, const Ledger& ledger)
      : traffic_(traffic), ledger_(ledger) {}
  uint64_t expected(uint64_t n) override;
  std::vector<double> latencies(const Phase& ph) const override;
  std::vector<double> drain_rates(const Phase& ph) const override;

 private:
  const Traffic& traffic_;
  const Ledger& ledger_;
  uint64_t scanned_ = 0, good_ = 0;
};

/// One verdict per window the streaming chain closes. The chain's
/// time_slice stage numbers windows from its first packet's timestamp and
/// closes the open window when a packet lands in a later one; this class
/// replays that rule over the offered sequence to know which packet closed
/// each epoch, so an epoch's latency runs from that packet's scheduled
/// send time to the on_epoch call.
class EpochVerdicts : public Verdicts {
 public:
  EpochVerdicts(const Traffic& traffic, double window,
                const EpochRecorder& recorder)
      : traffic_(traffic), window_(window), recorder_(recorder) {}
  uint64_t expected(uint64_t n) override;
  std::vector<double> latencies(const Phase& ph) const override;
  std::vector<double> drain_rates(const Phase& ph) const override;
  /// closers()[i]: sequence number of the packet that closed epoch i.
  const std::vector<uint64_t>& closers() const { return closers_; }

 private:
  const Traffic& traffic_;
  double window_;
  const EpochRecorder& recorder_;
  std::vector<uint64_t> closers_;
  uint64_t scanned_ = 0;
  bool started_ = false;
  double t0_ = 0;
  int64_t cur_w_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing wrappers (traced runs only).

/// One finished span. Packet spans carry the packet's capture index as
/// their request id and their score_batch span as parent.
struct SpanRec {
  uint64_t request = 0;  // capture index, or batch id for batch spans
  uint64_t parent = 0;   // batch id (0: none)
  const char* name = "";
  int64_t start = 0, end = 0;  // ledger ns
};

/// Spans recorded for packets in [lo, lo + kSpanSample) only, so a traced
/// run's span file stays small; per-layer totals cover every packet.
inline constexpr uint64_t kSpanSample = 20000;

/// Wraps the runtime's FrameFeed: times offer() and wait_ready(), counts
/// kBusy answers, and stamps each accepted packet's offer time.
class TracingFeed : public lumen::netio::FrameFeed {
 public:
  TracingFeed(lumen::netio::FrameFeed& inner, Ledger& ledger,
              SequenceMap map, const OpenLoop& loop);
  lumen::netio::FeedStatus offer(lumen::netio::SourcePacket& p) override;
  bool wait_ready() override;
  void account_shed(uint64_t n) override;

  uint64_t busy = 0, shed = 0;
  uint64_t offers_by_kind[kPhaseKinds] = {};
  double offer_ns_by_kind[kPhaseKinds] = {};  // time inside offer()
  std::vector<double> wait_ns_by_phase;
  std::vector<SpanRec> spans;

 private:
  lumen::netio::FrameFeed& inner_;
  Ledger& ledger_;
  SequenceMap map_;
  const OpenLoop& loop_;
};

/// Interposes a TracingFeed between any driver and the runtime.
class TracingDriver : public lumen::netio::SourceDriver {
 public:
  TracingDriver(lumen::netio::SourceDriver& inner, Ledger& ledger,
                SequenceMap map, const OpenLoop& loop)
      : inner_(inner), ledger_(ledger), map_(map), loop_(loop) {}
  lumen::netio::LinkType link() const override { return inner_.link(); }
  lumen::Result<void> drive(lumen::netio::FrameFeed& feed,
                            const std::atomic<bool>& stop) override;
  std::unique_ptr<TracingFeed> feed;

 private:
  lumen::netio::SourceDriver& inner_;
  Ledger& ledger_;
  SequenceMap map_;
  const OpenLoop& loop_;
};

/// Per-scorer layer totals, by phase kind, merged after the run.
struct ScorerTotals {
  struct Part {
    uint64_t packets = 0, batches = 0;
    double features_ns = 0, infer_ns = 0;
  };
  Part by_kind[kPhaseKinds];
  size_t contexts = 0;
  size_t shard = 0;
  std::vector<SpanRec> spans;
};

/// Scores exactly like KitsuneScorer's default path (extract each packet
/// in order into an aligned row block, then one fused KitNet::score_rows
/// call), timing the extractor and the ensemble separately.
class TracingScorer : public lumen::core::PacketScorer {
 public:
  TracingScorer(const lumen::core::OnlineKitsune& trained, Ledger& ledger,
                SequenceMap map, const OpenLoop& loop, ScorerTotals& totals);
  void score_batch(std::span<const lumen::netio::PacketView> views,
                   double* out) override;
  double score(const lumen::netio::PacketView& view) override;
  double threshold() const override { return threshold_; }
  ~TracingScorer() override;

 private:
  lumen::core::KitsuneExtractor extractor_;
  lumen::ml::KitNet detector_;
  double threshold_;
  Ledger& ledger_;
  SequenceMap map_;
  const OpenLoop& loop_;
  ScorerTotals& totals_;
  std::vector<double> row_, block_;
  lumen::ml::KitNet::RowsScratch scratch_;
  uint64_t batches_ = 0;
};

}  // namespace gwbench
