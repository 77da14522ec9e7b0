#include "gateway.h"

#include "report.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace gwbench {

using lumen::Error;
using lumen::Result;
using lumen::netio::FeedStatus;
using lumen::netio::PacketView;
using lumen::netio::SourcePacket;

Ledger::Ledger(size_t capacity, bool traced_run, bool per_packet_run)
    : origin(mono_ns()),
      traced(traced_run),
      per_packet(per_packet_run),
      lag_us(capacity),
      verdict(per_packet_run ? capacity : 1),
      score(per_packet_run ? capacity : 1),
      send(traced_run ? capacity : 1),
      offer(traced_run ? capacity : 1),
      entry(traced_run && per_packet_run ? capacity : 1),
      ret(traced_run && per_packet_run ? capacity : 1) {}

std::vector<const void*> Ledger::regions() const {
  return {lag_us.data(), verdict.data(), score.data(), send.data(),
          offer.data(), entry.data(), ret.data()};
}

// ---------------------------------------------------------------------------
// OpenLoop

OpenLoop::OpenLoop(const Schedule& sched, const Traffic& traffic,
                   Ledger& ledger, Verdicts& verdicts)
    : sched_(sched), traffic_(traffic), ledger_(ledger), verdicts_(verdicts) {}

const Phase* OpenLoop::phase(const std::string& name) const {
  for (const Phase& ph : phases_) {
    if (ph.name == name) return &ph;
  }
  return nullptr;
}

namespace {

/// Sleep most of the way to `due`, then spin: the generator must keep to
/// its schedule within a few microseconds.
void wait_until(const Ledger& ledger, int64_t due) {
  for (;;) {
    const int64_t ahead = due - ledger.stamp();
    if (ahead <= 0) return;
    if (ahead > 120000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(ahead - 80000));
    }
  }
}

constexpr uint64_t kDrainSlices = 5;
constexpr size_t kSliceSamples = 1000;

/// Cumulative packets given a verdict, and when the last of them got it.
struct DrainMark {
  uint64_t packets = 0;
  int64_t at = 0;
};

/// Packet rates between consecutive marks (from `start`).
std::vector<double> slice_rates(int64_t start,
                                const std::vector<DrainMark>& marks) {
  std::vector<double> rates;
  DrainMark prev{0, start};
  for (const DrainMark& m : marks) {
    if (m.at > prev.at && m.packets > prev.packets) {
      rates.push_back(static_cast<double>(m.packets - prev.packets) * 1e9 /
                      static_cast<double>(m.at - prev.at));
    }
    prev = m;
  }
  return rates;
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const size_t i = std::min(
      v.size() - 1, static_cast<size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.end());
  return v[i];
}

/// The q-quantile of each run of kSliceSamples consecutive samples (in
/// send order). On a shared host the vCPUs stall for milliseconds several
/// times a second; a pooled p99 then measures how often that happens,
/// while a low quantile over slices (main.cpp) moves only when the
/// gateway's own latency does. A phase's own p99 (for the ladder) is the
/// median over its slices.
std::vector<double> slice_quantiles(const std::vector<double>& v, double q) {
  std::vector<double> out;
  for (size_t lo = 0; lo < v.size(); lo += kSliceSamples) {
    const size_t hi = std::min(v.size(), lo + kSliceSamples);
    if (hi - lo < kSliceSamples / 2 && !out.empty()) break;
    std::vector<double> slice(v.begin() + static_cast<std::ptrdiff_t>(lo),
                              v.begin() + static_cast<std::ptrdiff_t>(hi));
    out.push_back(percentile(slice, q));
  }
  return out;
}

}  // namespace

bool OpenLoop::paced(Emitter& em, Phase& ph, double seconds) {
  const uint64_t n = static_cast<uint64_t>(ph.rate * seconds);
  ph.first = next_;
  ph.start = ledger_.stamp() + 1000000;  // first send 1 ms from now
  for (uint64_t i = 0; i < n && next_ < ledger_.capacity(); ++i) {
    const uint64_t k = next_;
    const int64_t due = ph.due(k);
    if (ledger_.stamp() < due) {
      if (em.pending() && !em.pump(due)) return false;
      wait_until(ledger_, due);
    }
    ledger_.lag_us[k] = static_cast<float>(ledger_.stamp() - due) * 1e-3f;
    ++next_;
    if (!em.emit(k)) return false;
    // Hand buffered records over whenever the schedule has caught up.
    if ((i + 1 == n || ledger_.stamp() < ph.due(k + 1)) && !em.pump(0)) {
      return false;
    }
  }
  ph.end = next_;
  ph.stop = ledger_.stamp();
  return true;
}

bool OpenLoop::unpaced(Emitter& em, Phase& ph, double seconds,
                        uint64_t max_packets) {
  ph.first = next_;
  ph.start = ledger_.stamp();
  const int64_t until = ph.start + static_cast<int64_t>(seconds * 1e9);
  const uint64_t last = std::min<uint64_t>(ledger_.capacity(),
                                           next_ + std::min(max_packets,
                                                            uint64_t{1} << 40));
  while (ledger_.stamp() < until && next_ < last) {
    for (int i = 0; i < 64 && next_ < last; ++i) {
      if (!em.emit(next_++)) return false;
    }
    if (!em.pump(until)) return false;
  }
  ph.end = next_;
  ph.stop = ledger_.stamp();
  return true;
}

bool OpenLoop::settle(Emitter& em, Phase& ph) {
  ph.offered = ph.end - ph.first;
  for (uint64_t k = ph.first; k < ph.end; ++k) {
    ph.rejected += traffic_.malformed(k) ? 1 : 0;
  }
  const uint64_t before = verdicts_.expected(ph.first);
  const uint64_t expect = verdicts_.expected(ph.end);
  ph.verdicts = expect - before;
  const int64_t deadline =
      ledger_.stamp() + static_cast<int64_t>(sched_.settle_s * 1e9);
  while (em.pending()) {
    if (!em.pump(deadline) || ledger_.stamp() > deadline) break;
  }
  while (verdicts_.clock.verdicts.load(std::memory_order_acquire) < expect) {
    if (ledger_.stamp() > deadline) {
      ph.settled_ok = false;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return ph.settled_ok;
}

void OpenLoop::evaluate(Phase& ph) const {
  std::vector<double> lat = verdicts_.latencies(ph);
  ph.samples = lat.size();
  ph.slices = slice_quantiles(lat, 0.99);
  ph.slices_p50 = slice_quantiles(lat, 0.50);
  std::vector<double> p99s = ph.slices;
  ph.p99_us = percentile(p99s, 0.5);
  ph.pooled_p99_us = percentile(lat, 0.99);
  ph.p50_us = percentile(lat, 0.50);
  std::vector<double> lag;
  lag.reserve(ph.end - ph.first);
  for (uint64_t k = ph.first; k < ph.end; ++k) lag.push_back(ledger_.lag_us[k]);
  std::vector<double> lag_p99s = slice_quantiles(lag, 0.99);
  ph.lag_p99_us = percentile(lag_p99s, 0.5);
  const double wall = static_cast<double>(ph.stop - ph.start) * 1e-9;
  ph.achieved_pps =
      wall > 0 ? static_cast<double>(ph.offered - ph.rejected) / wall : 0.0;
  ph.valid = ph.lag_p99_us <= sched_.lag_limit_us;
  // No growing backlog: the last quarter of the phase's packets still got
  // their verdicts within the latency limit at the median.
  std::vector<double> tail(
      lat.begin() + static_cast<std::ptrdiff_t>(lat.size() * 3 / 4),
      lat.end());
  const bool steady = percentile(tail, 0.5) <= sched_.p99_limit_us;
  ph.pass = ph.settled_ok && ph.valid && steady &&
            ph.p99_us <= sched_.p99_limit_us;
}

bool OpenLoop::run(Emitter& em) {
  const auto start_phase = [&](const std::string& name, PhaseKind kind,
                               double rate) {
    if (hook_) hook_();
    phases_.push_back(Phase{});
    phases_.back().name = name;
    phases_.back().kind = kind;
    phases_.back().rate = rate;
    current.store(phases_.size() - 1, std::memory_order_relaxed);
    current_kind.store(kind, std::memory_order_relaxed);
    return &phases_.back();
  };
  const auto paced_phase = [&](const std::string& name, PhaseKind kind,
                               double rate, double seconds) {
    Phase* ph = start_phase(name, kind, rate);
    if (!paced(em, *ph, seconds) || !settle(em, *ph)) return false;
    evaluate(*ph);
    return true;
  };
  // Untimed warm-up. The first loops over the capture grow the detectors'
  // context tables and the allocator's arenas; then a spell at the light
  // rate lets idle consumer threads and their CPUs settle into the wake-up
  // pattern of paced traffic. Either would otherwise land in "light" as a
  // standing backlog of a few milliseconds.
  Phase* warm = start_phase("warmup", kWarmup, 0.0);
  if (!unpaced(em, *warm, 1e9, sched_.warmup_packets) || !settle(em, *warm)) {
    return false;
  }
  if (!sched_.drain_only &&
      !paced_phase("warmup-paced", kWarmup, sched_.light_pps,
                   sched_.warmup_paced_s)) {
    return false;
  }
  // Rounds of light, heavy and drain spread each figure over the run, so a
  // burst of load elsewhere on the host spoils some slices, not the median
  // over all rounds' slices.
  std::vector<double> drains;
  for (size_t r = 0; r < sched_.rounds; ++r) {
    const std::string n = std::to_string(r);
    // One extra shift per round: a round has as many phases as the host
    // has cores, and without it each phase kind would always meet the same
    // thread-to-core assignment.
    if (hook_) hook_();
    if (!sched_.drain_only) {
      // After an overload, let allocator and wake-up state settle again
      // before timing light traffic.
      if (r > 0 && !paced_phase("recover" + n, kWarmup, sched_.light_pps,
                                sched_.recover_s)) {
        return false;
      }
      if (!paced_phase("light" + n, kLight, sched_.light_pps,
                       sched_.light_s)) {
        return false;
      }
      if (sample_lo.load(std::memory_order_relaxed) == UINT64_MAX) {
        sample_lo.store(next_, std::memory_order_relaxed);
      }
      if (!paced_phase("heavy" + n, kHeavy, sched_.heavy_pps,
                       sched_.heavy_s)) {
        return false;
      }
    }
    Phase* drain = start_phase("drain" + n, kDrain, 0.0);
    if (!unpaced(em, *drain, sched_.drain_s, UINT64_MAX) ||
        !settle(em, *drain)) {
      return false;
    }
    drain->slices = verdicts_.drain_rates(*drain);
    std::vector<double> rates = drain->slices;
    drain->achieved_pps = percentile(rates, 0.5);
    drains.insert(drains.end(), drain->slices.begin(), drain->slices.end());
  }
  drain_pps_ = percentile(drains, 0.5);
  if (!(drain_pps_ > 0)) return false;
  // The ladder's overloaded steps queue records in the socket generator;
  // the peak before them, less the benchmark's own bookkeeping, is the
  // gateway's.
  const uint64_t own = own_memory_ ? own_memory_() : 0;
  const uint64_t peak = peak_rss_bytes();
  peak_rss_bytes_ = peak - std::min(peak, own);
  if (sched_.drain_only) return true;
  // Ladder: coarse steps (x coarse_ratio) from the heavy rate locate the
  // knee, then steps at geometric midpoints narrow it until the highest
  // rate that held and the lowest that did not are at most 5% apart. A
  // step that misses runs once more before it counts, so one stall of the
  // host neither ends the climb early nor sends the narrowing below the
  // knee.
  size_t steps = 0;
  const auto step = [&](double rate) {
    if (!paced_phase("step" + std::to_string(steps++), kStep, rate,
                     sched_.step_s)) {
      return -1;
    }
    return phases_.back().pass ? 1 : 0;
  };
  double held = 0, missed = 0;
  const double top = sched_.ladder_hi * drain_pps_;
  for (double rate = std::min(sched_.heavy_pps, top);;
       rate = std::min(top, rate * sched_.coarse_ratio)) {
    int r = step(rate);
    if (r == 0) r = step(rate);
    if (r < 0) return false;
    if (r == 0) {
      missed = rate;
      break;
    }
    held = rate;
    if (rate >= top) break;
  }
  while (held > 0 && missed > held * sched_.ladder_ratio) {
    const double rate = std::sqrt(held * missed);
    int r = step(rate);
    if (r == 0) r = step(rate);
    if (r < 0) return false;
    (r == 1 ? held : missed) = rate;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Verdict models

uint64_t PacketVerdicts::expected(uint64_t n) {
  for (; scanned_ < n; ++scanned_) good_ += traffic_.malformed(scanned_) ? 0 : 1;
  return good_;
}

std::vector<double> PacketVerdicts::latencies(const Phase& ph) const {
  std::vector<double> out;
  out.reserve(ph.end - ph.first);
  for (uint64_t k = ph.first; k < ph.end; ++k) {
    if (traffic_.malformed(k) || ledger_.verdict[k] == 0) continue;
    out.push_back(static_cast<double>(ledger_.verdict[k] - ph.due(k)) * 1e-3);
  }
  return out;
}

std::vector<double> PacketVerdicts::drain_rates(const Phase& ph) const {
  // Rates over five consecutive slices of the phase, so one stall of a
  // shared host does not decide the figure.
  std::vector<DrainMark> marks;
  uint64_t good = 0;
  int64_t last = ph.start;
  const uint64_t n = ph.end - ph.first;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t k = ph.first + i;
    if (!traffic_.malformed(k)) {
      ++good;
      last = std::max(last, ledger_.verdict[k]);
    }
    if ((i + 1) * kDrainSlices % n < kDrainSlices) marks.push_back({good, last});
  }
  return slice_rates(ph.start, marks);
}

uint64_t EpochVerdicts::expected(uint64_t n) {
  for (; scanned_ < n; ++scanned_) {
    if (traffic_.malformed(scanned_)) continue;
    const double ts = traffic_.ts(scanned_);
    if (!started_) {
      started_ = true;
      t0_ = ts;
      cur_w_ = 0;
      continue;
    }
    // The same arithmetic as the chain's time_slice stage.
    const auto w = static_cast<int64_t>((ts - t0_) / window_);
    if (w > cur_w_) {
      closers_.push_back(scanned_);
      cur_w_ = w;
    }
  }
  return closers_.size();
}

std::vector<double> EpochVerdicts::latencies(const Phase& ph) const {
  std::vector<double> out;
  const std::span<const EpochRecord> rec = recorder_.epochs();
  for (size_t i = 0; i < closers_.size() && i < rec.size(); ++i) {
    const uint64_t k = closers_[i];
    if (k < ph.first || k >= ph.end) continue;
    out.push_back(static_cast<double>(rec[i].at - ph.due(k)) * 1e-3);
  }
  return out;
}

std::vector<double> EpochVerdicts::drain_rates(const Phase& ph) const {
  // Packets up to each window the phase closed, against the time that
  // window's epoch was delivered, over five slices.
  const std::span<const EpochRecord> rec = recorder_.epochs();
  std::vector<size_t> closed;
  for (size_t i = 0; i < closers_.size() && i < rec.size(); ++i) {
    if (closers_[i] >= ph.first && closers_[i] < ph.end) closed.push_back(i);
  }
  std::vector<DrainMark> marks;
  uint64_t good = 0;
  uint64_t k = ph.first;
  for (size_t j = 0; j < closed.size(); ++j) {
    const size_t i = closed[j];
    for (; k < closers_[i]; ++k) good += traffic_.malformed(k) ? 0 : 1;
    if ((j + 1) * kDrainSlices % closed.size() < kDrainSlices) {
      marks.push_back({good, rec[i].at});
    }
  }
  return slice_rates(ph.start, marks);
}

// ---------------------------------------------------------------------------
// Replay ingest

Result<void> ScheduledReplayDriver::drive(lumen::netio::FrameFeed& feed,
                                          const std::atomic<bool>& stop) {
  feed_ = &feed;
  stop_ = &stop;
  const bool ok = loop_.run(*this);
  feed_ = nullptr;
  if (!ok) return Error::make("gwbench", "replay schedule did not complete");
  return {};
}

bool ScheduledReplayDriver::emit(uint64_t k) {
  SourcePacket sp;
  const lumen::netio::RawPacket& src = traffic_.frame(k);
  sp.pkt.data = src.data;
  sp.pkt.orig_len = src.orig_len;
  sp.pkt.ts = traffic_.ts(k);
  sp.capture_index = traffic_.map.index_of(k);
  sp.tenant = 0;
  for (;;) {
    if (stop_->load(std::memory_order_relaxed)) return false;
    switch (feed_->offer(sp)) {
      case FeedStatus::kAccepted:
      case FeedStatus::kShed:
        return true;
      case FeedStatus::kClosed:
        return false;
      case FeedStatus::kBusy:
        if (!feed_->wait_ready()) return false;
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Socket ingest

SocketGenerator::SocketGenerator(OpenLoop& loop, const Traffic& traffic,
                                 Ledger& ledger)
    : loop_(loop), traffic_(traffic), ledger_(ledger) {}

SocketGenerator::~SocketGenerator() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

Result<void> SocketGenerator::connect(uint16_t port) {
  for (size_t t = 0; t < traffic_.tenants.size(); ++t) {
    Conn c;
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd < 0) return Error::make("gwbench", "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      const int err = errno;
      ::close(c.fd);
      return Error::make("gwbench", std::string("connect: ") +
                                        std::strerror(err));
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    lumen::netio::append_hello(c.out, static_cast<uint32_t>(t + 1),
                               traffic_.tenants[t].link);
    conns_.push_back(std::move(c));
  }
  return {};
}

bool SocketGenerator::emit(uint64_t k) {
  Conn& c = conns_[traffic_.map.slot_of(k)];
  const lumen::netio::RawPacket& src = traffic_.frame(k);
  scratch_.ts = traffic_.ts(k);
  scratch_.orig_len = src.orig_len;
  scratch_.data.assign(src.data.begin(), src.data.end());
  lumen::netio::append_record(c.out, scratch_, traffic_.map.index_of(k));
  if (ledger_.traced) c.marks.emplace_back(c.stream_off + c.out.size(), k);
  return !dead_;
}

bool SocketGenerator::send_some(Conn& c) {
  while (c.sent < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.sent,
                             c.out.size() - c.sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      dead_ = true;
      return false;
    }
    c.sent += static_cast<size_t>(n);
  }
  if (ledger_.traced) {
    const uint64_t done = c.stream_off + c.sent;
    const int64_t now = ledger_.stamp();
    while (c.mark_head < c.marks.size() && c.marks[c.mark_head].first <= done) {
      ledger_.send[c.marks[c.mark_head].second] = now;
      ++c.mark_head;
    }
    if (c.mark_head == c.marks.size()) {
      c.marks.clear();
      c.mark_head = 0;
    }
  }
  if (c.sent == c.out.size()) {
    c.stream_off += c.out.size();
    c.out.clear();
    c.sent = 0;
  } else if (c.sent > (1u << 20)) {
    c.out.erase(c.out.begin(), c.out.begin() + static_cast<ptrdiff_t>(c.sent));
    c.stream_off += c.sent;
    c.sent = 0;
  }
  return true;
}

bool SocketGenerator::pending() const {
  for (const Conn& c : conns_) {
    if (c.sent < c.out.size()) return true;
  }
  return false;
}

bool SocketGenerator::pump(int64_t deadline) {
  for (;;) {
    for (Conn& c : conns_) {
      if (!send_some(c)) return false;
    }
    if (!pending()) return true;
    const int64_t left = deadline - ledger_.stamp();
    if (left <= 0) return true;
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      if (c.sent < c.out.size()) fds.push_back({c.fd, POLLOUT, 0});
    }
    const int ms = static_cast<int>(std::min<int64_t>(left / 1000000, 50));
    if (::poll(fds.data(), fds.size(), ms) < 0 && errno != EINTR) {
      dead_ = true;
      return false;
    }
    if (ms == 0 && left < 1000000) {
      // Under a millisecond to the deadline: spin on send instead of poll.
      if (ledger_.stamp() >= deadline) return true;
    }
  }
}

Result<void> SocketGenerator::run() {
  const bool ok = loop_.run(*this);
  for (Conn& c : conns_) lumen::netio::append_fin(c.out);
  const int64_t deadline = ledger_.stamp() + 10'000'000'000;
  while (pending() && !dead_ && ledger_.stamp() < deadline) pump(deadline);
  for (Conn& c : conns_) {
    ::shutdown(c.fd, SHUT_WR);
  }
  if (dead_) return Error::make("gwbench", "gateway connection failed");
  if (!ok) return Error::make("gwbench", "socket schedule did not complete");
  if (pending()) return Error::make("gwbench", "gateway stopped reading");
  return {};
}

// ---------------------------------------------------------------------------
// Sinks

void VerdictSink::on_packet(const PacketView& view, double score,
                            bool alerted) {
  const int64_t t0 = ledger_.stamp();
  const uint64_t k = map_.seq_of(view.index);
  if (k >= ledger_.capacity() || ledger_.verdict[k] != 0) {
    ++inconsistent_;  // unknown or duplicate verdict
    return;
  }
  ledger_.verdict[k] = t0;
  ledger_.score[k] = score;
  if (alerted != (score > thresholds_[map_.slot_of(k)])) ++inconsistent_;
  if (alerted) ++flagged_;
  if (ledger_.traced) {
    const int64_t r = ledger_.ret[k];
    if (r != batch_ret_) {
      handoff_busy_ns_[batch_kind_] += open_busy();
      batch_ret_ = r;
      batch_kind_ = loop_.current_kind.load(std::memory_order_relaxed);
    }
    batch_last_ = t0;
  }
  clock_.verdicts.fetch_add(1, std::memory_order_release);
  if (ledger_.traced) {
    call_ns_ += static_cast<double>(ledger_.stamp() - t0);
    ++calls_;
  }
}

void VerdictSink::on_alert(const lumen::core::Alert& alert) {
  ++alerts_;
  const uint64_t k = map_.seq_of(alert.capture_index);
  if (k >= ledger_.capacity() || alert.tenant != tenant_ids_[map_.slot_of(k)] ||
      !(alert.score > alert.threshold)) {
    ++inconsistent_;
  }
}

namespace {

/// Word-at-a-time digest step (the sink runs on the consumer thread, so it
/// must stay cheap next to the epoch it records).
uint64_t mix(uint64_t h, uint64_t w) {
  h ^= w + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 32);
}

template <typename T>
uint64_t mix_words(uint64_t h, const std::vector<T>& v) {
  static_assert(sizeof(T) == 8 || sizeof(T) == 4);
  h = mix(h, v.size());
  for (const T& x : v) {
    uint64_t w = 0;
    std::memcpy(&w, &x, sizeof(T));
    h = mix(h, w);
  }
  return h;
}

}  // namespace

uint64_t epoch_digest(const lumen::core::EpochBatch& b) {
  uint64_t h = mix(kFnvBasis, b.epoch);
  uint64_t ws = 0;
  std::memcpy(&ws, &b.window_start, sizeof ws);
  h = mix(h, ws);
  for (const std::string& k : b.keys) h = fnv1a(h, k.c_str(), k.size() + 1);
  h = mix(mix(h, b.table.rows), b.table.cols);
  h = mix_words(h, b.table.data);
  h = mix_words(h, b.scores);
  return mix_words(h, b.predictions);
}

void EpochRecorder::on_epoch(const lumen::core::EpochBatch& b, size_t) {
  const int64_t t0 = ledger_.stamp();
  EpochRecord r;
  r.epoch = b.epoch;
  r.window_start = b.window_start;
  r.rows = b.table.rows;
  for (int p : b.predictions) r.alerts += p != 0 ? 1 : 0;
  r.digest = epoch_digest(b);
  r.at = t0;
  if (count_ == epochs_.size()) {
    throw std::runtime_error("gwbench: more epochs than reserved");
  }
  epochs_[count_++] = r;
  clock_->verdicts.fetch_add(1, std::memory_order_release);
  if (traced_) call_ns_ += static_cast<double>(ledger_.stamp() - t0);
}

// ---------------------------------------------------------------------------
// Tracing wrappers

TracingFeed::TracingFeed(lumen::netio::FrameFeed& inner, Ledger& ledger,
                         SequenceMap map, const OpenLoop& loop)
    : inner_(inner), ledger_(ledger), map_(map), loop_(loop) {}

FeedStatus TracingFeed::offer(SourcePacket& p) {
  const uint64_t k = map_.seq_of(p.capture_index);
  const int64_t t0 = ledger_.stamp();
  const FeedStatus s = inner_.offer(p);
  const int64_t t1 = ledger_.stamp();
  const int kind = loop_.current_kind.load(std::memory_order_relaxed);
  offer_ns_by_kind[kind] += static_cast<double>(t1 - t0);
  if (s == FeedStatus::kBusy) {
    ++busy;
    return s;
  }
  if (s == FeedStatus::kClosed) return s;
  ++offers_by_kind[kind];
  if (s == FeedStatus::kShed) ++shed;
  if (k < ledger_.capacity()) {
    ledger_.offer[k] = t1;
    const uint64_t lo = loop_.sample_lo.load(std::memory_order_relaxed);
    if (k >= lo && k - lo < kSpanSample) {
      spans.push_back({p.capture_index, 0, "offer", t0, t1});
      if (ledger_.send[k] != 0) {
        spans.push_back({p.capture_index, 0, "wire", ledger_.send[k], t1});
      }
    }
  }
  return s;
}

bool TracingFeed::wait_ready() {
  const int64_t t0 = ledger_.stamp();
  const bool ok = inner_.wait_ready();
  const size_t ph = loop_.current.load(std::memory_order_relaxed);
  if (wait_ns_by_phase.size() <= ph) wait_ns_by_phase.resize(ph + 1, 0.0);
  wait_ns_by_phase[ph] += static_cast<double>(ledger_.stamp() - t0);
  return ok;
}

void TracingFeed::account_shed(uint64_t n) {
  shed += n;
  inner_.account_shed(n);
}

Result<void> TracingDriver::drive(lumen::netio::FrameFeed& inner,
                                  const std::atomic<bool>& stop) {
  feed = std::make_unique<TracingFeed>(inner, ledger_, map_, loop_);
  return inner_.drive(*feed, stop);
}

TracingScorer::TracingScorer(const lumen::core::OnlineKitsune& trained,
                             Ledger& ledger, SequenceMap map,
                             const OpenLoop& loop, ScorerTotals& totals)
    : extractor_(trained.extractor()),
      detector_(trained.detector()),
      threshold_(trained.threshold()),
      ledger_(ledger),
      map_(map),
      loop_(loop),
      totals_(totals) {}

TracingScorer::~TracingScorer() {
  totals_.contexts += extractor_.tracked_contexts();
}

double TracingScorer::score(const PacketView& view) {
  double out = 0.0;
  score_batch(std::span<const PacketView>(&view, 1), &out);
  return out;
}

void TracingScorer::score_batch(std::span<const PacketView> views,
                                double* out) {
  const size_t m = views.size();
  if (m == 0) return;
  ScorerTotals::Part& part =
      totals_.by_kind[loop_.current_kind.load(std::memory_order_relaxed)];
  const uint64_t batch = (++batches_) | (uint64_t{totals_.shard} << 48);
  const int64_t entry = ledger_.stamp();
  // Same staging as OnlineKitsune::score_packets: rows padded to the
  // 8-double vector block, scored with one fused call.
  const size_t dim = extractor_.dim();
  const size_t ld = (dim + 7) & ~size_t{7};
  block_.resize(m * ld);
  const uint64_t lo = loop_.sample_lo.load(std::memory_order_relaxed);
  bool sampled = false;
  int64_t t = entry;
  for (size_t i = 0; i < m; ++i) {
    extractor_.process(views[i], row_);
    std::copy(row_.begin(), row_.end(),
              block_.begin() + static_cast<std::ptrdiff_t>(i * ld));
    const int64_t t1 = ledger_.stamp();
    const uint64_t k = map_.seq_of(views[i].index);
    if (k >= lo && k - lo < kSpanSample) {
      totals_.spans.push_back({views[i].index, batch, "features", t, t1});
      sampled = true;
    }
    t = t1;
  }
  part.features_ns += static_cast<double>(t - entry);
  detector_.score_rows(block_.data(), m, ld, out, scratch_);
  const int64_t done = ledger_.stamp();
  part.infer_ns += static_cast<double>(done - t);
  part.packets += m;
  ++part.batches;
  for (size_t i = 0; i < m; ++i) {
    const uint64_t k = map_.seq_of(views[i].index);
    if (k >= ledger_.capacity()) continue;
    ledger_.entry[k] = entry;
    ledger_.ret[k] = done;
  }
  if (sampled) {
    totals_.spans.push_back({batch, 0, "score_batch", entry, done});
    totals_.spans.push_back({batch, batch, "infer", t, done});
  }
}

}  // namespace gwbench
