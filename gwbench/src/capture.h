// Seeded traffic for the gateway benchmark.
//
// Every workload's packets come from trace::Sim and the trace/attacks.h
// emitters, driven only by the workload seed. The gateway under test sees
// nothing but the generated frames: the first ~45% of a capture is the
// training prefix the detector (or the batch Engine) learns from, and the
// rest is the live region the load generator replays.
//
// The live region is replayed as an endless stream: packet j of a tenant's
// stream is live frame j mod L, with its timestamp shifted forward by one
// capture period per completed loop, so stateful detectors see a
// continuous capture however many packets a run offers. A small, seeded
// share of live frames is truncated below an Ethernet header: the parser
// must reject them, and the benchmark counts them as correct rejections.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netio/packet.h"

namespace gwbench {

enum class Workload { kReplayKitsune, kSocketKitsune, kReplayWindow };

/// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload w);

/// One tenant's generated traffic.
struct Capture {
  lumen::netio::LinkType link = lumen::netio::LinkType::kEthernet;
  std::vector<lumen::netio::RawPacket> train;  // training prefix, in order
  std::vector<lumen::netio::RawPacket> live;   // live region, in order
  std::vector<uint8_t> malformed;              // per live frame: truncated
  double period = 0.0;  // timestamp shift between two loops of `live`

  size_t live_size() const { return live.size(); }
  const lumen::netio::RawPacket& frame(uint64_t j) const {
    return live[j % live.size()];
  }
  double ts(uint64_t j) const {
    return live[j % live.size()].ts +
           static_cast<double>(j / live.size()) * period;
  }
  bool is_malformed(uint64_t j) const { return malformed[j % live.size()]; }
};

/// Tenants a workload streams (each with its own capture and detector).
size_t tenant_count(Workload w);

/// Generates tenant `tenant_slot`'s capture for workload `w` from `seed`.
Capture make_capture(Workload w, uint64_t seed, size_t tenant_slot);

/// FNV-1a digest over every byte the gateway would receive (link type,
/// timestamps, lengths, frame bytes, malformed marks) — the seed test's
/// notion of a byte-identical capture.
uint64_t capture_digest(const Capture& c);

/// FNV-1a 64-bit accumulation helpers shared with the verdict digests.
inline uint64_t fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace gwbench
