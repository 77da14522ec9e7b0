#include "report.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/simd.h"
#include "ml/dense.h"

#ifndef GWBENCH_COMPILER
#define GWBENCH_COMPILER "unknown"
#endif
#ifndef GWBENCH_BUILD_TYPE
#define GWBENCH_BUILD_TYPE "unknown"
#endif

namespace gwbench {

Fingerprint host_fingerprint() {
  Fingerprint f;
  f.cores = std::thread::hardware_concurrency();
  f.simd = lumen::ml::dense::backend_name(lumen::ml::dense::active_backend());
  f.cpu_avx2_fma = lumen::simd::cpu_has_avx2_fma();
  f.compiler = GWBENCH_COMPILER;
  f.build_type = GWBENCH_BUILD_TYPE;
  const char* t = std::getenv("LUMEN_THREADS");
  f.lumen_threads = t != nullptr ? t : "unset";
  return f;
}

uint64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss) * 1024;  // Linux: KiB
}

uint64_t mapped_resident_bytes(const std::vector<const void*>& ptrs) {
  FILE* f = std::fopen("/proc/self/smaps", "r");
  if (f == nullptr) return 0;
  uint64_t total = 0;
  bool counting = false;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long long lo = 0, hi = 0, kb = 0;
    if (std::sscanf(line, "%llx-%llx ", &lo, &hi) == 2) {
      counting = false;
      for (const void* p : ptrs) {
        const auto a = reinterpret_cast<uintptr_t>(p);
        if (a >= lo && a < hi) counting = true;
      }
    } else if (counting && std::sscanf(line, "Rss: %llu kB", &kb) == 1) {
      total += kb * 1024;
    }
  }
  std::fclose(f);
  return total;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (double x : v) {
    if (out.size() > 1) out += ", ";
    char buf[40] = "null";
    if (std::isfinite(x)) std::snprintf(buf, sizeof buf, "%.6g", x);
    out += buf;
  }
  return out + "]";
}

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(k) + ": ";
}

JsonObject& JsonObject::add(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::add(const std::string& k, uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::add(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::add(const std::string& k, const std::string& v) {
  key(k);
  body_ += json_string(v);
  return *this;
}

JsonObject& JsonObject::add_raw(const std::string& k, const std::string& j) {
  key(k);
  body_ += j;
  return *this;
}

std::string fingerprint_json(const Fingerprint& f) {
  return JsonObject()
      .add("cores", uint64_t{f.cores})
      .add("simd", f.simd)
      .add("cpu_avx2_fma", f.cpu_avx2_fma)
      .add("compiler", f.compiler)
      .add("build_type", f.build_type)
      .add("lumen_threads", f.lumen_threads)
      .str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonObject o;
  for (const Metric& m : metrics) {
    o.add_raw(m.name,
              JsonObject().add("value", m.value).add("unit", m.unit).str());
  }
  return o.str();
}

}  // namespace gwbench
