// Result reporting for the gateway benchmark: the host fingerprint every
// result is stamped with, and the metric list printed as the final JSON
// line (plus the fuller result file that compare.py reads).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gwbench {

/// Where a result was measured. Results whose fingerprints differ are not
/// comparable (compare.py refuses them).
struct Fingerprint {
  unsigned cores = 0;
  std::string simd;        // active dense-kernel backend
  bool cpu_avx2_fma = false;
  std::string compiler;
  std::string build_type;
  std::string lumen_threads;  // LUMEN_THREADS as set, or "unset"
};

Fingerprint host_fingerprint();

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Process peak resident set size, in bytes.
uint64_t peak_rss_bytes();

/// Resident bytes of the memory mappings holding any of `ptrs` (each
/// mapping counted once), from /proc/self/smaps; 0 where unavailable.
uint64_t mapped_resident_bytes(const std::vector<const void*>& ptrs);

/// Minimal JSON writer: an object built key by key.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v);
  JsonObject& add(const std::string& key, uint64_t v);
  JsonObject& add(const std::string& key, bool v);
  JsonObject& add(const std::string& key, const std::string& v);
  JsonObject& add_raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

std::string json_string(const std::string& s);
/// A JSON array of numbers (non-finite ones as null).
std::string json_array(const std::vector<double>& v);
std::string fingerprint_json(const Fingerprint& f);
std::string metrics_json(const std::vector<Metric>& metrics);

}  // namespace gwbench
