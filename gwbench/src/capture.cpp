#include "capture.h"

#include <algorithm>

#include "common/rng.h"
#include "trace/attacks.h"
#include "trace/sim.h"

namespace gwbench {

using lumen::netio::RawPacket;
using lumen::trace::BenignStyle;
using lumen::trace::Dataset;
using lumen::trace::Granularity;
using lumen::trace::Sim;

namespace {

constexpr double kTrainShare = 0.45;
constexpr double kMalformedShare = 0.002;

BenignStyle camera_lan() {
  BenignStyle s;
  s.iat_scale = 0.5;
  s.size_scale = 2.5;
  s.w_http = 0.6;
  s.w_dns = 0.5;
  s.w_mqtt = 0.2;
  s.w_ntp = 0.6;
  s.w_tls = 2.0;
  s.w_telnet = 0.1;
  return s;
}

/// IP-camera LAN under a Mirai infection. The scan targets a fresh WAN
/// address per probe, so the extractor's channel and socket tables keep
/// growing with the capture: this is the large-working-set capture.
Dataset mirai_lan(uint64_t seed) {
  Sim sim(seed);
  const BenignStyle st = camera_lan();
  const double dur = 60.0;
  sim.benign_iot_traffic(0.0, dur, 10, st);
  const std::vector<uint32_t> bots = {sim.lan_ip(st, 1), sim.lan_ip(st, 2)};
  lumen::trace::attack_mirai_scan(sim, 0.02 * dur, 0.96 * dur, bots, 450.0);
  lumen::trace::attack_mirai_c2(sim, 0.05 * dur, 0.9 * dur, bots,
                                sim.wan_ip());
  lumen::trace::attack_mirai_flood(sim, 0.62 * dur, 0.12 * dur, bots,
                                   sim.wan_ip(), 250.0);
  return sim.finish("gw-mirai-lan", "IP-camera LAN with Mirai",
                    Granularity::kPacket);
}

/// A steady, benign-heavy tenant site: small context tables, with a
/// low-rate brute-force trickle so alerts still occur. Enough devices that
/// the flow hash spreads the site evenly over two shards.
Dataset tenant_site(uint64_t seed, size_t slot) {
  Sim sim(seed);
  BenignStyle st = camera_lan();
  st.host_base = 20 + static_cast<int>(slot) * 100;
  const double dur = 40.0;
  sim.benign_iot_traffic(0.0, dur, 24, st);
  lumen::trace::attack_brute_force(sim, 0.3 * dur, 0.6 * dur, sim.wan_ip(),
                                   sim.lan_ip(st, 0), 22, 2.0);
  return sim.finish("gw-tenant-site", "benign IoT site", Granularity::kPacket);
}

/// The Kitsune Mirai stand-in the streaming-pipeline example deploys on:
/// a camera LAN with a slow scan, C2 beacons and a flood.
Dataset window_lan(uint64_t seed) {
  Sim sim(seed);
  const BenignStyle st = camera_lan();
  const double dur = 1000.0;
  sim.benign_iot_traffic(0.0, dur, 6, st);
  const std::vector<uint32_t> bots = {sim.lan_ip(st, 0), sim.lan_ip(st, 1)};
  lumen::trace::attack_mirai_scan(sim, 0.1 * dur, 0.8 * dur, bots, 4.0);
  lumen::trace::attack_mirai_c2(sim, 0.15 * dur, 0.8 * dur, bots,
                                sim.wan_ip());
  lumen::trace::attack_mirai_flood(sim, 0.6 * dur, 0.3 * dur, bots,
                                   sim.wan_ip(), 8.0);
  return sim.finish("gw-window-lan", "Kitsune Mirai", Granularity::kPacket);
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kReplayKitsune, Workload::kSocketKitsune,
                     Workload::kReplayWindow}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kReplayKitsune:
      return "replay-kitsune-1shard";
    case Workload::kSocketKitsune:
      return "socket-kitsune-2shard";
    case Workload::kReplayWindow:
      return "replay-window-1shard";
  }
  return "?";
}

size_t tenant_count(Workload w) {
  return w == Workload::kSocketKitsune ? 2 : 1;
}

Capture make_capture(Workload w, uint64_t seed, size_t tenant_slot) {
  // Distinct, seed-derived streams per workload and tenant.
  const uint64_t sub = lumen::Rng::seed_from(workload_name(w),
                                             seed * 16 + tenant_slot);
  Dataset ds;
  switch (w) {
    case Workload::kReplayKitsune:
      ds = mirai_lan(sub);
      break;
    case Workload::kSocketKitsune:
      ds = tenant_site(sub, tenant_slot);
      break;
    case Workload::kReplayWindow:
      ds = window_lan(sub);
      break;
  }
  Capture c;
  c.link = ds.trace.link;
  std::vector<RawPacket>& raw = ds.trace.raw;
  const size_t split = static_cast<size_t>(
      static_cast<double>(raw.size()) * kTrainShare);
  c.train.assign(std::make_move_iterator(raw.begin()),
                 std::make_move_iterator(raw.begin() + split));
  c.live.assign(std::make_move_iterator(raw.begin() + split),
                std::make_move_iterator(raw.end()));
  // Truncate a seeded share of live frames below the Ethernet header.
  lumen::Rng rng(sub ^ 0x6d616c666f726dULL);
  c.malformed.assign(c.live.size(), 0);
  for (size_t i = 0; i < c.live.size(); ++i) {
    if (!rng.bernoulli(kMalformedShare)) continue;
    c.malformed[i] = 1;
    c.live[i].data.resize(std::min<size_t>(c.live[i].data.size(), 9));
    c.live[i].orig_len = 0;
  }
  // One loop ends where the next begins, one mean gap later.
  const double span = c.live.back().ts - c.live.front().ts;
  c.period = span + span / static_cast<double>(c.live.size());
  return c;
}

uint64_t capture_digest(const Capture& c) {
  uint64_t h = kFnvBasis;
  const auto link = static_cast<uint32_t>(c.link);
  h = fnv1a(h, &link, sizeof link);
  h = fnv1a(h, &c.period, sizeof c.period);
  for (const std::vector<RawPacket>* part : {&c.train, &c.live}) {
    const uint64_t n = part->size();
    h = fnv1a(h, &n, sizeof n);
    for (const RawPacket& p : *part) {
      h = fnv1a(h, &p.ts, sizeof p.ts);
      h = fnv1a(h, &p.orig_len, sizeof p.orig_len);
      const uint64_t len = p.data.size();
      h = fnv1a(h, &len, sizeof len);
      h = fnv1a(h, p.data.data(), p.data.size());
    }
  }
  return fnv1a(h, c.malformed.data(), c.malformed.size());
}

}  // namespace gwbench
