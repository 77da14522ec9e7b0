// gwbench — the Lumen gateway benchmark.
//
//   gwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--out <dir>]
//
// Generates the workload's traffic from the seed, sets the gateway up
// (detector or Engine training, runtime and front-end construction; timed
// several times), drives it through the open-loop phase schedule, checks
// every verdict against a single-threaded reference, and prints the
// metrics. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a separately traced run and writes its
// spans. gwbench/README.md defines the workloads and every metric.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "affinity.h"
#include "capture.h"
#include "core/engine.h"
#include "core/ingest.h"
#include "core/stream.h"
#include "core/stream_op.h"
#include "gateway.h"
#include "netio/frontend.h"
#include "netio/parse.h"
#include "report.h"

namespace gwbench {
namespace {

using lumen::Error;
using lumen::Result;
using lumen::core::IngestRuntime;
using lumen::core::OnlineKitsune;
using lumen::netio::PacketView;
using lumen::netio::RawPacket;

constexpr size_t kSetupRepeats = 3;  // at least; see more_setup
/// Layer reconciliation: on a 1-shard workload the traced per-packet layer
/// busy times must sum to the untraced consumer cost within this share.
constexpr double kReconcileTolerance = 0.25;
constexpr double kPacketsPerWindow = 16;  // mean live packets per window
/// The window workload's heavy rate. Its consumer needs 0.5-0.8 µs per
/// packet, and the ring's backoff spins and yields for about 4 µs before it
/// sleeps (~55 µs with the default timer slack). At 200k pkt/s the idle gap
/// sits on that edge, so whether the consumer sleeps, and the latency,
/// flips with host speed; at 400k it sleeps now and then, and each slice's
/// tail counts how often. At 150k the idle gap (~6 µs) is half again the
/// spin, so the consumer sleeps between packets, as at the light rate.
constexpr double kWindowHeavyPps = 150000;

struct Args {
  Workload workload = Workload::kReplayKitsune;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_workload = false;
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      if (!parse_workload(v, &a->workload)) return false;
      have_workload = true;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds >= 1 && a->seconds <= 60)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out = v;
    } else {
      return false;
    }
  }
  return have_workload;
}

/// The schedule every workload runs for --seconds: five rounds per 20 s
/// (so a longer run measures more rounds, each as long as at 20 s), and
/// below 20 s every duration shrinks with the run.
Schedule schedule_for(double seconds) {
  Schedule s;
  const double f = seconds / 20.0;
  s.rounds = std::max<size_t>(1, static_cast<size_t>(std::lround(5 * f)));
  const double shrink = std::min(f, 1.0);
  for (double* d : {&s.warmup_paced_s, &s.recover_s, &s.light_s, &s.heavy_s,
                    &s.drain_s, &s.step_s}) {
    *d *= shrink;
  }
  return s;
}

size_t ledger_capacity(const Schedule& s) {
  // Paced phases offer rate x duration; the drain and the ladder offer what
  // the gateway takes, capped at 4M packets/s here.
  const double cap_pps = 4e6;
  const double steps = 20;  // coarse steps (each run at most twice) + narrowing
  const double rounds = static_cast<double>(s.rounds);
  const double n = s.light_pps * (s.warmup_paced_s +
                                  rounds * (s.recover_s + s.light_s)) +
                   s.heavy_pps * rounds * s.heavy_s +
                   cap_pps * (rounds * s.drain_s + s.step_s * steps);
  return static_cast<size_t>(n) + s.warmup_packets;
}

std::vector<PacketView> parse_all(const std::vector<RawPacket>& frames,
                                  lumen::netio::LinkType link) {
  std::vector<PacketView> out;
  out.reserve(frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    auto v = lumen::netio::parse_packet(frames[i], link,
                                        static_cast<uint32_t>(i));
    if (v.ok()) out.push_back(v.value());
  }
  return out;
}

/// The live frames of one loop, parsed the way the gateway sees them.
std::vector<PacketView> live_views(const Traffic& traffic, uint64_t n) {
  std::vector<PacketView> out;
  for (uint64_t k = 0; k < n; ++k) {
    auto v = lumen::netio::parse_packet(traffic.frame(k),
                                        traffic.tenants[0].link,
                                        traffic.map.index_of(k));
    if (!v.ok()) continue;
    out.push_back(v.value());
    out.back().ts = traffic.ts(k);
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(int64_t t0) {
  return static_cast<double>(mono_ns() - t0) * 1e-9;
}

/// Median and 99th percentile (nearest rank) of a sample, with its size.
struct Pct {
  double p50 = 0, p99 = 0;
  size_t n = 0;
};
Pct pct(std::vector<double> v) {
  Pct p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    return v[std::min(v.size() - 1,
                      static_cast<size_t>(q * static_cast<double>(v.size())))];
  };
  p.p50 = at(0.5);
  p.p99 = at(0.99);
  return p;
}

/// Separate timed parse_packet pass over one loop of every tenant's live
/// frames, median of five passes: netio.parse.ns_per_pkt.
double parse_ns_per_pkt(const Traffic& traffic) {
  std::vector<double> samples;
  uint64_t checksum = 0;
  for (int rep = 0; rep < 5; ++rep) {
    size_t n = 0;
    const int64_t t0 = mono_ns();
    for (const Capture& c : traffic.tenants) {
      for (size_t i = 0; i < c.live.size(); ++i) {
        auto v = lumen::netio::parse_packet(c.live[i], c.link,
                                            static_cast<uint32_t>(i));
        checksum += v.ok() ? v.value().wire_len : 1;
        ++n;
      }
    }
    samples.push_back(static_cast<double>(mono_ns() - t0) /
                      static_cast<double>(n));
  }
  if (checksum == 0) std::printf("(empty parse pass)\n");
  return median(samples);
}

/// Verdict-check totals.
struct Check {
  uint64_t compared = 0;      // verdicts compared against the reference
  uint64_t mismatched = 0;    // score or epoch digest differs
  uint64_t missing = 0;       // reference verdict the gateway never gave
  uint64_t unexpected = 0;    // gateway verdict the reference does not have
  uint64_t rejected = 0;      // malformed frames correctly given no verdict
  uint64_t inconsistent = 0;  // alert flags or counts disagreeing
  bool passed() const {
    return compared > 0 && mismatched == 0 && missing == 0 &&
           unexpected == 0 && inconsistent == 0;
  }
  void add(const Check& o) {
    compared += o.compared;
    mismatched += o.mismatched;
    missing += o.missing;
    unexpected += o.unexpected;
    rejected += o.rejected;
    inconsistent += o.inconsistent;
  }
};

void print_check(const char* label, const Check& c) {
  std::printf("verdict check (%s): %" PRIu64 " compared, %" PRIu64
              " mismatched, %" PRIu64 " missing, %" PRIu64
              " unexpected, %" PRIu64 " inconsistent, %" PRIu64
              " malformed frames rejected -> %s\n",
              label, c.compared, c.mismatched, c.missing, c.unexpected,
              c.inconsistent, c.rejected, c.passed() ? "PASS" : "FAIL");
}

/// Set-up is timed at least `repeats` times; short ones (the window
/// workload's is ~20 ms) repeat until two seconds have been timed, at most
/// 40 times, so the median does not hinge on a single scheduler hiccup.
bool more_setup(size_t done, const std::vector<double>& times,
                size_t repeats) {
  if (done < repeats) return true;
  if (repeats <= 1 || done >= 40) return false;
  double total = 0;
  for (double t : times) total += t;
  return total < 2.0;
}

/// What one pass through the phase schedule measured.
struct Pass {
  bool ran = false;
  std::string error;
  std::vector<Phase> phases;
  uint64_t offered = 0, owed = 0, failed = 0;
  double drain_pps = 0;
  double peak_rss_mb = 0;
  std::vector<double> setup_s, train_s;
  Check check;
  // Traced passes.
  uint64_t busy = 0, shed = 0;
  double offer_ns = 0, wait_frac = 0;
  double sink_ns_per_call = 0, handoff_busy_ns_per_pkt = 0;
  double staged_high_water = 0;
  Pct residency, handoff, wire;
  ScorerTotals scorer;  // merged over every TracingScorer
  double shard_skew = 1;
  std::vector<SpanRec> spans;
  // Window workload, traced.
  double flush_ns_per_epoch = 0, rows_per_epoch = 0;
  uint64_t late = 0;
};

/// Host stalls only ever add latency, and on a shared host they hit a
/// varying share of a run's slices (most of them in a bad minute). The
/// quietest slices show the gateway's own figure, so each latency figure is
/// this quantile over every slice of every phase of a kind (nearest rank).
constexpr double kSliceQuantile = 0.10;

/// kSliceQuantile over every slice of every phase of `kind` of a per-slice
/// latency quantile (the slices' p99 by default, or their p50).
double quiet_slices(const std::vector<Phase>& phases, PhaseKind kind,
                    std::vector<double> Phase::*field = &Phase::slices) {
  std::vector<double> v;
  for (const Phase& p : phases) {
    if (p.kind == kind) v.insert(v.end(), (p.*field).begin(), (p.*field).end());
  }
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, static_cast<size_t>(
                                      kSliceQuantile *
                                      static_cast<double>(v.size())))];
}

size_t samples_of(const std::vector<Phase>& phases, PhaseKind kind) {
  size_t n = 0;
  for (const Phase& p : phases) n += p.kind == kind ? p.samples : 0;
  return n;
}

size_t slices_of(const std::vector<Phase>& phases, PhaseKind kind) {
  size_t n = 0;
  for (const Phase& p : phases) n += p.kind == kind ? p.slices.size() : 0;
  return n;
}

bool all_valid(const std::vector<Phase>& phases, PhaseKind kind) {
  for (const Phase& p : phases) {
    if (p.kind == kind && !p.valid) return false;
  }
  return true;
}

/// The traced feed's figures: kBusy answers, frames shed, and over the
/// drain phases the time inside offer() per packet and the producer's
/// share of wall time in wait_ready().
void add_feed_figures(Pass& p, const TracingFeed& feed) {
  p.busy = feed.busy;
  p.shed += feed.shed;
  const uint64_t offers = feed.offers_by_kind[kDrain];
  p.offer_ns = offers > 0 ? feed.offer_ns_by_kind[kDrain] /
                                static_cast<double>(offers)
                          : 0.0;
  double wait = 0, wall = 0;
  for (size_t i = 0; i < p.phases.size(); ++i) {
    if (p.phases[i].kind != kDrain) continue;
    wall += static_cast<double>(p.phases[i].stop - p.phases[i].start);
    if (i < feed.wait_ns_by_phase.size()) wait += feed.wait_ns_by_phase[i];
  }
  p.wait_frac = wall > 0 ? wait / wall : 0.0;
}

/// Achieved rate of the highest ladder step that held its limits (the
/// ladder stops at its first miss).
double sustained_pps(const std::vector<Phase>& phases) {
  double best = 0;
  for (const Phase& p : phases) {
    if (p.kind == kStep && p.pass) {
      best = std::max(best, p.achieved_pps);
    }
  }
  return best;
}

void print_phases(const char* label, const std::vector<Phase>& phases) {
  std::printf("\n%s phases: offered, verdicts owed, malformed rejected, "
              "verdicts lost\n",
              label);
  for (const Phase& p : phases) {
    char rate[32];
    if (p.rate > 0) {
      std::snprintf(rate, sizeof rate, "%.0f/s", p.rate);
    } else {
      std::snprintf(rate, sizeof rate, "unpaced");
    }
    std::printf("  %-6s %-10s %9" PRIu64 " %9" PRIu64 " %6" PRIu64 " %6s",
                p.name.c_str(), rate, p.offered, p.verdicts, p.rejected,
                p.settled_ok ? "0" : "SOME");
    if (p.rate > 0) {
      std::printf("  p50 %8.1f us  p99 %9.1f us (pooled %9.1f, n=%zu)  "
                  "lag p99 %7.1f us  %s%s",
                  p.p50_us, p.p99_us, p.pooled_p99_us, p.samples, p.lag_p99_us,
                  p.valid ? "valid" : "INVALID: generator behind schedule",
                  p.name.rfind("step", 0) == 0
                      ? (p.pass ? ", sustained" : ", not sustained")
                      : "");
    }
    std::printf("\n");
  }
}

void finish_pass(Pass& p, const OpenLoop& loop) {
  p.phases = loop.phases();
  p.offered = loop.offered();
  p.drain_pps = loop.drain_pps();
  for (const Phase& ph : p.phases) p.owed += ph.verdicts;
  p.peak_rss_mb =
      static_cast<double>(loop.peak_rss_before_ladder()) / (1024.0 * 1024.0);
}

/// Span file of a traced pass (CSV; request = capture index for packet
/// spans and batch id for batch spans; parent = score_batch span).
void write_spans(const std::string& path, const std::vector<SpanRec>& spans) {
  std::ofstream f(path);
  f << "request,parent,span,start_ns,end_ns\n";
  for (const SpanRec& s : spans) {
    f << s.request << ',' << s.parent << ',' << s.name << ',' << s.start
      << ',' << s.end << '\n';
  }
}

// ---------------------------------------------------------------------------
// Kitsune workloads (replay-kitsune-1shard, socket-kitsune-2shard)

struct KitsuneRun {
  KitsuneRun(const Traffic& traffic, const Schedule& sched, bool traced,
             std::vector<uint32_t> tenant_ids)
      : ledger(ledger_capacity(sched), traced, /*per_packet=*/true),
        verdicts(traffic, ledger),
        loop(sched, traffic, ledger, verdicts),
        sink(ledger, verdicts.clock, loop, traffic.map,
             std::move(tenant_ids)) {}
  Ledger ledger;
  PacketVerdicts verdicts;
  OpenLoop loop;
  VerdictSink sink;
  std::mutex totals_mu;
  std::deque<ScorerTotals> totals;  // one per TracingScorer
  lumen::telemetry::Registry frontend_registry;
};

struct KitsuneGateway {
  std::unique_ptr<IngestRuntime> runtime;
  std::unique_ptr<lumen::netio::GatewayFrontend> frontend;
};

std::vector<OnlineKitsune> train_detectors(const Traffic& traffic) {
  std::vector<OnlineKitsune> dets;
  for (const Capture& c : traffic.tenants) {
    OnlineKitsune det;
    det.train(parse_all(c.train, c.link));
    dets.push_back(std::move(det));
  }
  return dets;
}

Result<KitsuneGateway> build_kitsune_gateway(
    Workload w, const std::vector<OnlineKitsune>& dets, KitsuneRun& run,
    const SequenceMap& map) {
  const bool traced = run.ledger.traced;
  const auto factory = [&](size_t slot) -> lumen::core::ScorerFactory {
    const OnlineKitsune* det = &dets[slot];
    if (!traced) {
      return [det](size_t) {
        return std::make_unique<lumen::core::KitsuneScorer>(*det);
      };
    }
    return [det, &run, map](size_t consumer) {
      std::lock_guard<std::mutex> lock(run.totals_mu);
      run.totals.emplace_back();
      run.totals.back().shard = consumer;
      return std::make_unique<TracingScorer>(*det, run.ledger, map, run.loop,
                                             run.totals.back());
    };
  };
  const bool socket = w == Workload::kSocketKitsune;
  IngestRuntime::Options opts;  // deployed defaults, sharded
  opts.shards = socket ? 2 : 1;
  KitsuneGateway gw;
  gw.runtime = std::make_unique<IngestRuntime>(opts, factory(0), &run.sink);
  if (!socket) return gw;
  for (size_t slot = 0; slot < dets.size(); ++slot) {
    if (!gw.runtime->register_tenant(static_cast<uint32_t>(slot + 1),
                                     factory(slot))) {
      return Error::make("gwbench", "register_tenant failed");
    }
  }
  lumen::netio::FrontendOptions fo;
  fo.min_streams = dets.size();
  if (traced) fo.registry = &run.frontend_registry;
  gw.frontend = std::make_unique<lumen::netio::GatewayFrontend>(fo);
  auto bound = gw.frontend->bind();
  if (!bound.ok()) return bound.error();
  return gw;
}

/// Single-threaded reference: every (tenant, shard) partition of the
/// offered packets, in order, through a fresh copy of the tenant's trained
/// detector on its default scoring path; every score compared bit for bit.
Check verify_kitsune(const Traffic& traffic,
                     const std::vector<OnlineKitsune>& dets, size_t shards,
                     const Ledger& ledger, uint64_t n) {
  const size_t tenants = traffic.tenants.size();
  std::vector<Check> checks(tenants * shards);
  std::vector<std::thread> threads;
  for (size_t part = 0; part < checks.size(); ++part) {
    threads.emplace_back([&, part] {
      const size_t slot = part / shards;
      const size_t shard = part % shards;
      const lumen::netio::LinkType link = traffic.tenants[slot].link;
      const lumen::core::FlowShardRouter router(shards, link);
      OnlineKitsune det = dets[slot];
      Check& c = checks[part];
      std::vector<PacketView> views;
      std::vector<uint64_t> ks;
      std::vector<double> scores;
      const auto flush = [&] {
        scores.resize(views.size());
        det.score_packets(views, scores.data());
        for (size_t i = 0; i < views.size(); ++i) {
          const uint64_t k = ks[i];
          ++c.compared;
          if (ledger.verdict[k] == 0) {
            ++c.missing;
          } else if (std::memcmp(&ledger.score[k], &scores[i],
                                 sizeof(double)) != 0) {
            ++c.mismatched;
          }
        }
        views.clear();
        ks.clear();
      };
      for (uint64_t k = slot; k < n; k += tenants) {
        const RawPacket& frame = traffic.frame(k);
        if (router.shard_of(frame) != shard) continue;
        auto v = lumen::netio::parse_packet(frame, link,
                                            traffic.map.index_of(k));
        if (!v.ok()) {
          if (ledger.verdict[k] != 0) {
            ++c.unexpected;
          } else {
            ++c.rejected;
          }
          continue;
        }
        views.push_back(v.value());
        views.back().ts = traffic.ts(k);
        ks.push_back(k);
        if (views.size() == 64) flush();
      }
      flush();
    });
  }
  for (std::thread& t : threads) t.join();
  Check total;
  for (const Check& c : checks) total.add(c);
  return total;
}

/// One pass: set up (timed, `setup_repeats` times), drive the schedule,
/// verify.
Pass kitsune_pass(Workload w, const Traffic& traffic, const Schedule& sched,
                  bool traced, size_t setup_repeats,
                  AffinityRotator& rotator) {
  Pass p;
  const bool socket = w == Workload::kSocketKitsune;
  std::vector<uint32_t> tenant_ids;
  for (size_t s = 0; s < traffic.tenants.size(); ++s) {
    tenant_ids.push_back(socket ? static_cast<uint32_t>(s + 1) : 0);
  }
  KitsuneRun run(traffic, sched, traced, tenant_ids);
  run.loop.set_phase_hook([&rotator] { rotator.rotate(); });
  run.loop.set_own_memory(
      [&run] { return mapped_resident_bytes(run.ledger.regions()); });
  std::vector<OnlineKitsune> dets;
  KitsuneGateway gw;
  for (size_t r = 0; more_setup(r, p.setup_s, setup_repeats); ++r) {
    gw = KitsuneGateway{};
    dets.clear();
    rotator.rotate();
    const int64_t t0 = mono_ns();
    dets = train_detectors(traffic);
    p.train_s.push_back(seconds_since(t0));
    auto built = build_kitsune_gateway(w, dets, run, traffic.map);
    if (!built.ok()) {
      p.error = built.error().message;
      return p;
    }
    gw = std::move(built).value();
    p.setup_s.push_back(seconds_since(t0));
  }
  std::vector<double> thresholds;
  for (const OnlineKitsune& d : dets) thresholds.push_back(d.threshold());
  run.sink.set_thresholds(thresholds);

  std::unique_ptr<TracingDriver> tracer;
  if (socket) {
    SocketGenerator gen(run.loop, traffic, run.ledger);
    auto connected = gen.connect(gw.frontend->tcp_port());
    if (!connected.ok()) {
      p.error = connected.error().message;
      return p;
    }
    Result<void> generated;
    std::thread th([&] { generated = gen.run(); });
    lumen::netio::SourceDriver* d = gw.frontend.get();
    if (traced) {
      tracer = std::make_unique<TracingDriver>(*gw.frontend, run.ledger,
                                               traffic.map, run.loop);
      d = tracer.get();
    }
    auto r = gw.runtime->run(*d);
    th.join();
    if (!r.ok()) {
      p.error = r.error().message;
    } else if (!generated.ok()) {
      p.error = generated.error().message;
    }
    for (const auto& c : gw.frontend->connections()) p.shed += c.shed;
  } else {
    ScheduledReplayDriver drv(run.loop, traffic);
    lumen::netio::SourceDriver* d = &drv;
    if (traced) {
      tracer = std::make_unique<TracingDriver>(drv, run.ledger, traffic.map,
                                               run.loop);
      d = tracer.get();
    }
    auto r = gw.runtime->run(*d);
    if (!r.ok()) p.error = r.error().message;
  }
  finish_pass(p, run.loop);
  p.ran = p.error.empty();
  p.check = verify_kitsune(traffic, dets, socket ? 2 : 1, run.ledger,
                           p.offered);
  p.check.inconsistent += run.sink.inconsistent();
  if (run.sink.flagged() != run.sink.alerts()) ++p.check.inconsistent;
  uint64_t verdicted = 0;
  for (uint64_t k = 0; k < p.offered; ++k) {
    verdicted += run.ledger.verdict[k] != 0 ? 1 : 0;
  }
  p.failed = p.owed - std::min(p.owed, verdicted);

  if (!traced || tracer->feed == nullptr) return p;
  // Per-layer figures of the traced pass.
  const TracingFeed& feed = *tracer->feed;
  add_feed_figures(p, feed);
  p.sink_ns_per_call = run.sink.calls() > 0
                           ? run.sink.call_ns() /
                                 static_cast<double>(run.sink.calls())
                           : 0.0;
  std::vector<uint64_t> per_shard(socket ? 2 : 1, 0);
  for (const ScorerTotals& t : run.totals) {
    for (int k = 0; k < kPhaseKinds; ++k) {
      ScorerTotals::Part& to = p.scorer.by_kind[k];
      const ScorerTotals::Part& from = t.by_kind[k];
      to.packets += from.packets;
      to.batches += from.batches;
      to.features_ns += from.features_ns;
      to.infer_ns += from.infer_ns;
      if (t.shard < per_shard.size()) per_shard[t.shard] += from.packets;
    }
    p.scorer.contexts += t.contexts;
    p.spans.insert(p.spans.end(), t.spans.begin(), t.spans.end());
  }
  p.spans.insert(p.spans.end(), feed.spans.begin(), feed.spans.end());
  double mean = 0, mx = 0;
  for (uint64_t s : per_shard) {
    mean += static_cast<double>(s) / static_cast<double>(per_shard.size());
    mx = std::max(mx, static_cast<double>(s));
  }
  p.shard_skew = mean > 0 ? mx / mean : 0.0;
  const uint64_t drained = p.scorer.by_kind[kDrain].packets;
  p.handoff_busy_ns_per_pkt =
      drained > 0 ? run.sink.handoff_busy_ns(kDrain) /
                        static_cast<double>(drained)
                  : 0.0;
  if (socket) {
    p.staged_high_water = run.frontend_registry.snapshot().gauge_value(
        "frontend.staged_high_water");
  }
  std::vector<double> res, hand, wire;
  for (const Phase& heavy : p.phases) {
    if (heavy.kind != kHeavy) continue;
    for (uint64_t k = heavy.first; k < heavy.end; ++k) {
      const Ledger& l = run.ledger;
      if (l.verdict[k] == 0) continue;
      res.push_back(static_cast<double>(l.entry[k] - l.offer[k]) * 1e-3);
      hand.push_back(static_cast<double>(l.verdict[k] - l.ret[k]) * 1e-3);
      if (l.send[k] != 0) {
        wire.push_back(static_cast<double>(l.offer[k] - l.send[k]) * 1e-3);
      }
    }
  }
  p.residency = pct(std::move(res));
  p.handoff = pct(std::move(hand));
  p.wire = pct(std::move(wire));
  return p;
}

// ---------------------------------------------------------------------------
// Window workload (replay-window-1shard): the streaming-pipeline spec

lumen::core::PipelineSpec parse_spec(const std::string& body) {
  auto spec = lumen::core::PipelineSpec::parse("[" + body + "]");
  if (!spec.ok()) {
    std::fprintf(stderr, "spec parse: %s\n", spec.error().message.c_str());
    std::exit(2);
  }
  return std::move(spec).value();
}

/// The windowed spec of examples/streaming_pipeline.cpp, up to the stage
/// the batch run and the deploy run share.
std::string window_front(const std::string& window) {
  return R"(
    {"func": "field_extract", "input": None, "output": "P",
     "param": ["srcIP", "packetLength"]},
    {"func": "filter", "input": ["P"], "output": "PF", "require": ["len"]},
    {"func": "groupby", "input": ["PF"], "output": "G", "flowid": ["srcmac"]},
    {"func": "time_slice", "input": ["G"], "output": "W", "window": )" +
         window + R"(, "align": "global"},
    {"func": "apply_aggregates", "input": ["W"], "output": "F"},
    {"func": "normalize", "input": ["F"], "output": "N", "kind": "minmax"},)";
}

struct WindowSpec {
  double window = 0;  // seconds of capture time, as the chain parses it
  lumen::core::PipelineSpec train, deploy;
};

WindowSpec window_spec(const Capture& c) {
  // ~kPacketsPerWindow live packets per window on average, printed with
  // three decimals so the chain and the benchmark read the same double.
  const double span = c.live.back().ts - c.live.front().ts;
  const double w = span / static_cast<double>(c.live.size()) *
                   kPacketsPerWindow;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", std::max(w, 0.001));
  WindowSpec s;
  s.window = std::strtod(buf, nullptr);
  s.train = parse_spec(window_front(buf) + R"(
        {"func": "model", "input": None, "output": "M0",
         "model_type": "KitNET", "normalize": true},
        {"func": "train", "input": ["M0", "N"], "output": "Model"},)");
  s.deploy = parse_spec(window_front(buf) + R"(
        {"func": "predict", "input": ["Model", "N"], "output": "Preds"},)");
  return s;
}

lumen::trace::Dataset training_dataset(const Capture& c) {
  lumen::trace::Dataset ds;
  ds.id = "gw-window-train";
  ds.label_granularity = lumen::trace::Granularity::kPacket;
  ds.trace.link = c.link;
  ds.trace.raw = c.train;
  ds.pkt_label.assign(c.train.size(), 0);
  ds.pkt_attack.assign(c.train.size(), 0);
  lumen::netio::parse_trace(ds.trace);
  return ds;
}

Result<std::unique_ptr<lumen::core::StreamPipeline>> compile_chain(
    const WindowSpec& spec, const lumen::core::ModelValue& model,
    lumen::telemetry::Registry* registry) {
  lumen::core::StreamingOptions so;
  so.bindings.emplace("Model", model);
  so.registry = registry;
  return lumen::core::compile_streaming(spec.deploy, std::move(so));
}

/// Separate timed StreamPipeline::push pass over one loop's views (fresh
/// chain each time, median of three): stream_op.push_ns_per_pkt.
double push_ns_per_pkt(const Traffic& traffic, const WindowSpec& spec,
                       const lumen::core::ModelValue& model) {
  const std::vector<PacketView> views =
      live_views(traffic, traffic.tenants[0].live_size());
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    auto chain = compile_chain(spec, model, nullptr);
    if (!chain.ok() || views.empty()) return 0.0;
    uint64_t rows = 0;
    chain.value()->set_callback(
        [&](lumen::core::EpochBatch&& b) { rows += b.table.rows; });
    const int64_t t0 = mono_ns();
    for (const PacketView& v : views) chain.value()->push(v);
    chain.value()->finish();
    samples.push_back(static_cast<double>(mono_ns() - t0) /
                      static_cast<double>(views.size()));
    if (rows == 0) return 0.0;
  }
  return median(samples);
}

Pass window_pass(const Traffic& traffic, const Schedule& sched, bool traced,
                 size_t setup_repeats, AffinityRotator& rotator,
                 double* push_ns) {
  Pass p;
  const Capture& cap = traffic.tenants[0];
  const WindowSpec spec = window_spec(cap);
  const lumen::trace::Dataset train = training_dataset(cap);
  Ledger ledger(ledger_capacity(sched), traced, /*per_packet=*/false);
  EpochRecorder recorder(ledger, traced,
                         static_cast<size_t>(static_cast<double>(
                             ledger.capacity()) / kPacketsPerWindow * 2));
  EpochVerdicts verdicts(traffic, spec.window, recorder);
  recorder.set_clock(verdicts.clock);
  OpenLoop loop(sched, traffic, ledger, verdicts);
  loop.set_phase_hook([&rotator] { rotator.rotate(); });
  loop.set_own_memory([&ledger, &recorder] {
    std::vector<const void*> own = ledger.regions();
    own.push_back(recorder.storage());
    return mapped_resident_bytes(own);
  });
  lumen::telemetry::Registry chain_registry;

  std::unique_ptr<lumen::core::ModelValue> model;
  std::unique_ptr<IngestRuntime> runtime;
  for (size_t r = 0; more_setup(r, p.setup_s, setup_repeats); ++r) {
    runtime.reset();
    model.reset();
    rotator.rotate();
    const int64_t t0 = mono_ns();
    lumen::core::OpContext ctx;
    ctx.dataset = &train;
    auto trained = lumen::core::Engine().run(spec.train, ctx);
    if (!trained.ok()) {
      p.error = "train: " + trained.error().message;
      return p;
    }
    const auto* mv = trained.value().get<lumen::core::ModelValue>("Model");
    if (mv == nullptr) {
      p.error = "train: no Model binding";
      return p;
    }
    model = std::make_unique<lumen::core::ModelValue>(*mv);
    p.train_s.push_back(seconds_since(t0));
    // Plan compile: the deploy chain must lower before the runtime starts.
    auto probe = compile_chain(spec, *model, nullptr);
    if (!probe.ok()) {
      p.error = "compile: " + probe.error().message;
      return p;
    }
    IngestRuntime::Options opts;  // deployed defaults, one shard
    opts.shards = 1;
    const lumen::core::ModelValue* m = model.get();
    lumen::telemetry::Registry* reg = traced ? &chain_registry : nullptr;
    runtime = std::make_unique<IngestRuntime>(
        opts,
        [&spec, m, reg](size_t) -> std::unique_ptr<lumen::core::StreamPipeline> {
          auto chain = compile_chain(spec, *m, reg);
          return chain.ok() ? std::move(chain).value() : nullptr;
        },
        &recorder);
    p.setup_s.push_back(seconds_since(t0));
  }

  ScheduledReplayDriver drv(loop, traffic);
  std::unique_ptr<TracingDriver> tracer;
  lumen::netio::SourceDriver* d = &drv;
  if (traced) {
    tracer = std::make_unique<TracingDriver>(drv, ledger, traffic.map, loop);
    d = tracer.get();
  }
  auto ran = runtime->run(*d);
  if (!ran.ok()) p.error = ran.error().message;
  finish_pass(p, loop);
  p.ran = p.error.empty();

  // Reference: one chain, every well-formed offered packet in order.
  auto ref = compile_chain(spec, *model, nullptr);
  std::vector<uint64_t> digests;
  if (ref.ok()) {
    ref.value()->set_callback([&](lumen::core::EpochBatch&& b) {
      digests.push_back(epoch_digest(b));
    });
    const lumen::netio::LinkType link = cap.link;
    for (uint64_t k = 0; k < p.offered; ++k) {
      auto v = lumen::netio::parse_packet(traffic.frame(k), link,
                                          traffic.map.index_of(k));
      if (!v.ok()) {
        ++p.check.rejected;
        continue;
      }
      PacketView view = v.value();
      view.ts = traffic.ts(k);
      ref.value()->push(view);
    }
    ref.value()->finish();
  }
  const std::span<const EpochRecord> got = recorder.epochs();
  const size_t both = std::min(got.size(), digests.size());
  p.check.compared = both;
  for (size_t i = 0; i < both; ++i) {
    if (got[i].digest != digests[i]) ++p.check.mismatched;
  }
  p.check.missing = digests.size() - both;
  p.check.unexpected = got.size() - both;
  // The closing-packet model behind the latencies must match the chain:
  // one epoch per window change, plus the final flush.
  if (!digests.empty() && verdicts.closers().size() + 1 != digests.size()) {
    std::printf("window model disagrees with the chain: %zu closers, %zu "
                "epochs\n",
                verdicts.closers().size(), digests.size());
    ++p.check.inconsistent;
  }
  if (p.check.missing > 0 || p.check.mismatched > 0) {
    // Packets whose windows never arrived intact count as failed.
    const size_t good = both - std::min<size_t>(both, p.check.mismatched);
    const uint64_t from =
        good > 0 && good - 1 < verdicts.closers().size()
            ? verdicts.closers()[good - 1]
            : 0;
    for (uint64_t k = from; k < p.offered; ++k) {
      p.failed += traffic.malformed(k) ? 0 : 1;
    }
  }

  if (!traced || tracer->feed == nullptr) return p;
  const TracingFeed& feed = *tracer->feed;
  add_feed_figures(p, feed);
  p.spans = feed.spans;
  p.sink_ns_per_call =
      got.empty() ? 0.0 : recorder.call_ns() / static_cast<double>(got.size());
  const lumen::telemetry::Snapshot snap = chain_registry.snapshot();
  const double epochs =
      static_cast<double>(snap.counter_value("stream.epochs"));
  p.rows_per_epoch =
      epochs > 0 ? static_cast<double>(snap.counter_value("stream.rows")) /
                       epochs
                 : 0.0;
  p.late = snap.counter_value("stream.late_packets");
  double flush_s = 0;
  uint64_t flushes = 0;
  for (const auto& s : snap.spans) {
    if (s.name.rfind("stream.op.", 0) != 0) continue;
    flush_s += s.seconds;
    if (s.name == "stream.op.apply_aggregates") ++flushes;
  }
  p.flush_ns_per_epoch =
      flushes > 0 ? flush_s * 1e9 / static_cast<double>(flushes) : 0.0;
  *push_ns = push_ns_per_pkt(traffic, spec, *model);
  return p;
}

// ---------------------------------------------------------------------------

Traffic make_traffic(Workload w, uint64_t seed) {
  Traffic t;
  for (size_t s = 0; s < tenant_count(w); ++s) {
    t.tenants.push_back(make_capture(w, seed, s));
  }
  t.map.tenants = t.tenants.size();
  return t;
}

int run(const Args& a) {
  AffinityRotator rotator;
  const Fingerprint fp = host_fingerprint();
  std::printf("gwbench %s seed %" PRIu64 " seconds %.0f trace %d\n",
              workload_name(a.workload), a.seed, a.seconds, a.trace ? 1 : 0);
  std::printf("host: %u cores, simd %s (cpu avx2+fma %s), %s %s, "
              "LUMEN_THREADS=%s; threads %s\n",
              fp.cores, fp.simd.c_str(), fp.cpu_avx2_fma ? "yes" : "no",
              fp.compiler.c_str(), fp.build_type.c_str(),
              fp.lumen_threads.c_str(),
              rotator.active() ? "pinned, rotated between phases"
                               : "unpinned (pinning refused)");

  const Traffic traffic = make_traffic(a.workload, a.seed);
  for (size_t s = 0; s < traffic.tenants.size(); ++s) {
    const Capture& c = traffic.tenants[s];
    std::printf("tenant %zu capture: %zu training + %zu live frames, digest "
                "%016" PRIx64 "\n",
                s, c.train.size(), c.live.size(), capture_digest(c));
  }
  Schedule sched = schedule_for(a.seconds);
  for (const Capture& c : traffic.tenants) {
    sched.warmup_packets += 4 * c.live_size();  // four loops per tenant
  }
  const bool window = a.workload == Workload::kReplayWindow;
  if (window) {
    // One verdict per closed window (~kPacketsPerWindow packets) leaves a
    // paced phase a sixteenth of the latency samples, so light and heavy
    // run twice as long to give the quantile over slices as many to
    // choose from. Heavy runs at kWindowHeavyPps (see there).
    sched.light_s *= 2;
    sched.heavy_s *= 2;
    sched.heavy_pps = kWindowHeavyPps;
  }
  const bool one_shard = a.workload != Workload::kSocketKitsune;

  std::vector<Metric> metrics;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<const Pass*> passes;
  const auto account = [&](const Pass& p, const char* label) {
    print_phases(label, p.phases);
    print_check(label, p.check);
    if (!p.ran) std::printf("%s pass failed: %s\n", label, p.error.c_str());
    correct = correct && p.ran && p.check.passed() && p.failed == 0;
    for (const Phase& ph : p.phases) correct = correct && ph.settled_ok;
    attempted += p.offered;
    failed += p.failed;
  };
  const auto run_pass = [&](bool traced, const Schedule& s, size_t repeats,
                            double* push_ns) {
    return window
               ? window_pass(traffic, s, traced, repeats, rotator, push_ns)
               : kitsune_pass(a.workload, traffic, s, traced, repeats, rotator);
  };

  Pass untraced, traced;
  double push_ns = 0;
  if (!a.trace) {
    untraced = run_pass(false, sched, kSetupRepeats, &push_ns);
    account(untraced, "untraced");
    const std::vector<Phase>& ph = untraced.phases;
    if (!all_valid(ph, kLight) || !all_valid(ph, kHeavy)) {
      std::printf("note: an open-loop phase is INVALID (generator lag p99 "
                  "above %.0f us); its latency is not a gateway figure\n",
                  sched.lag_limit_us);
    }
    metrics = {
        {"drain_pps", "1/s", untraced.drain_pps},
        {"verdict_p50_us.light", "us",
         quiet_slices(ph, kLight, &Phase::slices_p50)},
        {"verdict_p99_us.light", "us", quiet_slices(ph, kLight)},
        {"verdict_p50_us.heavy", "us",
         quiet_slices(ph, kHeavy, &Phase::slices_p50)},
        {"verdict_p99_us.heavy", "us", quiet_slices(ph, kHeavy)},
        {"sustained_pps", "1/s", sustained_pps(untraced.phases)},
        {"setup_s", "s", median(untraced.setup_s)},
        {"peak_rss_mb", "MB", untraced.peak_rss_mb},
    };
    std::printf("\nsample counts: light n=%zu, heavy n=%zu (latency: the "
                "%.0fth percentile over %zu and %zu slices of %zu rounds); "
                "setup x%zu\n",
                samples_of(ph, kLight), samples_of(ph, kHeavy),
                kSliceQuantile * 100, slices_of(ph, kLight),
                slices_of(ph, kHeavy), sched.rounds, untraced.setup_s.size());
    passes.push_back(&untraced);
  } else {
    // Untraced drain first (the overhead and reconciliation base), then
    // the traced schedule.
    Schedule drain_only = sched;
    drain_only.drain_only = true;
    untraced = run_pass(false, drain_only, 1, &push_ns);
    account(untraced, "untraced drain");
    traced = run_pass(true, sched, kSetupRepeats, &push_ns);
    account(traced, "traced");
    passes = {&untraced, &traced};

    const double parse_ns = parse_ns_per_pkt(traffic);
    // Busy times per packet come from the traced drain phase, the regime
    // drain_pps measures; batch sizes from the heavy phase, where they set
    // latency.
    const ScorerTotals::Part& sc = traced.scorer.by_kind[kDrain];
    const ScorerTotals::Part& hv = traced.scorer.by_kind[kHeavy];
    const double features_ns =
        sc.packets > 0 ? sc.features_ns / static_cast<double>(sc.packets) : 0;
    const double infer_ns =
        sc.packets > 0 ? sc.infer_ns / static_cast<double>(sc.packets) : 0;
    const double consumer_ns =
        untraced.drain_pps > 0 ? 1e9 / untraced.drain_pps : 0;
    double residual = 0;
    if (one_shard && consumer_ns > 0) {
      const double layers =
          window ? parse_ns + push_ns
                 : parse_ns + features_ns + infer_ns +
                       traced.handoff_busy_ns_per_pkt;
      residual = (consumer_ns - layers) / consumer_ns;
      std::printf("\nlayer reconciliation (1 shard): consumer %.1f ns/pkt "
                  "untraced; layers %.1f ns/pkt (parse %.1f",
                  consumer_ns, layers, parse_ns);
      if (window) {
        std::printf(" + stream_op push %.1f)", push_ns);
      } else {
        std::printf(" + features %.1f + infer %.1f + hand-off %.1f)",
                    features_ns, infer_ns, traced.handoff_busy_ns_per_pkt);
      }
      const bool ok = std::fabs(residual) <= kReconcileTolerance;
      std::printf("; residual %+.1f%% (tolerance +-%.0f%%) -> %s\n",
                  residual * 100, kReconcileTolerance * 100,
                  ok ? "PASS" : "FAIL");
    }
    double lag = 0;
    for (const Phase& ph : traced.phases) {
      if (ph.kind == kLight || ph.kind == kHeavy) {
        lag = std::max(lag, ph.lag_p99_us);
      }
    }
    uint64_t skipped = 0;
    for (const Phase& ph : traced.phases) skipped += ph.rejected;
    const double overhead =
        untraced.drain_pps > 0 ? 1.0 - traced.drain_pps / untraced.drain_pps
                               : 0.0;
    const uint64_t owed = std::max<uint64_t>(traced.owed, 1);
    metrics = {
        {"netio.parse.ns_per_pkt", "ns", parse_ns},
        {"netio.parse.skipped", "count", static_cast<double>(skipped)},
        {"netio.frontend.wire_to_offer_us.p50", "us", traced.wire.p50},
        {"netio.frontend.wire_to_offer_us.p99", "us", traced.wire.p99},
        {"netio.frontend.busy_offers", "count",
         static_cast<double>(traced.busy)},
        {"netio.frontend.staged_high_water", "count",
         traced.staged_high_water},
        {"netio.frontend.shed", "count", static_cast<double>(traced.shed)},
        {"core.ingest.offer_ns_per_pkt", "ns", traced.offer_ns},
        {"core.ingest.producer_wait_frac", "ratio", traced.wait_frac},
        {"core.ingest.ring_residency_us.p50", "us", traced.residency.p50},
        {"core.ingest.ring_residency_us.p99", "us", traced.residency.p99},
        {"core.ingest.rows_per_batch", "rows",
         hv.batches > 0 ? static_cast<double>(hv.packets) /
                              static_cast<double>(hv.batches)
                        : 0.0},
        {"core.ingest.handoff_us.p99", "us", traced.handoff.p99},
        {"core.ingest.shard_skew", "ratio", window ? 1.0 : traced.shard_skew},
        {"features.ns_per_pkt", "ns", features_ns},
        {"features.contexts", "count",
         static_cast<double>(traced.scorer.contexts)},
        {"ml.infer.ns_per_row", "ns", infer_ns},
        {"ml.train_s", "s", window ? 0.0 : median(traced.train_s)},
        {"core.engine.train_s", "s", window ? median(traced.train_s) : 0.0},
        {"stream_op.push_ns_per_pkt", "ns", push_ns},
        {"stream_op.flush_ns_per_epoch", "ns", traced.flush_ns_per_epoch},
        {"stream_op.rows_per_epoch", "rows", traced.rows_per_epoch},
        {"stream_op.late_clamped", "count", static_cast<double>(traced.late)},
        {"sink.ns_per_call", "ns", traced.sink_ns_per_call},
        {"gen.lag_us.p99", "us", lag},
        {"trace.overhead_frac", "ratio", overhead},
        {"failed_frac", "ratio",
         static_cast<double>(traced.failed) / static_cast<double>(owed)},
        {"reconcile.residual_frac", "ratio", residual},
    };
    std::printf("\nsample counts (heavy phase): ring residency n=%zu, "
                "hand-off n=%zu, wire-to-offer n=%zu; %zu spans\n",
                traced.residency.n, traced.handoff.n, traced.wire.n,
                traced.spans.size());
  }

  std::printf("\nmetrics:\n");
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("failed_frac = %" PRIu64 " / %" PRIu64
              " packets offered without a verdict (malformed rejections "
              "excluded)\n",
              failed, attempted);

  if (!a.out.empty()) {
    const std::string stem = a.out + "/" + workload_name(a.workload) +
                             "-seed" + std::to_string(a.seed) +
                             (a.trace ? "-trace" : "");
    std::string phases = "[";
    for (const Pass* p : passes) {
      for (const Phase& ph : p->phases) {
        if (phases.size() > 1) phases += ", ";
        phases += JsonObject()
                      .add("run", std::string(p == &traced ? "traced"
                                                           : "untraced"))
                      .add("name", ph.name)
                      .add("rate", ph.rate)
                      .add("achieved_pps", ph.achieved_pps)
                      .add("offered", ph.offered)
                      .add("verdicts_owed", ph.verdicts)
                      .add("rejected", ph.rejected)
                      .add("all_verdicts_arrived", ph.settled_ok)
                      .add("p50_us", ph.p50_us)
                      .add("p99_us", ph.p99_us)
                      .add("pooled_p99_us", ph.pooled_p99_us)
                      .add("samples", uint64_t{ph.samples})
                      .add("lag_p99_us", ph.lag_p99_us)
                      .add_raw("slices", json_array(ph.slices))
                      .add_raw("slices_p50", json_array(ph.slices_p50))
                      .add("valid", ph.valid)
                      .add("held", ph.pass)
                      .str();
      }
    }
    phases += "]";
    std::ofstream f(stem + ".json");
    f << JsonObject()
             .add("workload", std::string(workload_name(a.workload)))
             .add("seed", a.seed)
             .add("seconds", a.seconds)
             .add("trace", a.trace)
             .add_raw("fingerprint", fingerprint_json(fp))
             .add("correct", correct)
             .add("attempted", attempted)
             .add("failed", failed)
             .add_raw("phases", phases)
             .add_raw("metrics", metrics_json(metrics))
             .str()
      << "\n";
    if (a.trace) write_spans(stem + "-spans.csv", traced.spans);
  }

  std::printf("%s\n", JsonObject()
                          .add("correct", correct)
                          .add("attempted", std::max<uint64_t>(attempted, 1))
                          .add("failed", failed)
                          .add_raw("metrics", metrics_json(metrics))
                          .str()
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace gwbench

int main(int argc, char** argv) {
  gwbench::Args a;
  if (!gwbench::parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: gwbench --workload <replay-kitsune-1shard|"
                 "socket-kitsune-2shard|replay-window-1shard> --seed <n> "
                 "--seconds <1-60> --trace <0|1> [--out <dir>]\n");
    return 2;
  }
  return gwbench::run(a);
}
