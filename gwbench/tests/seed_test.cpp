// Seed discipline: for every workload and tenant, the same seed must give a
// byte-identical capture and a different seed a different one, so a result
// can always be regenerated from (workload, seed) alone.
#include <cinttypes>
#include <cstdio>

#include "capture.h"

int main() {
  using namespace gwbench;
  int failures = 0;
  for (Workload w : {Workload::kReplayKitsune, Workload::kSocketKitsune,
                     Workload::kReplayWindow}) {
    for (size_t t = 0; t < tenant_count(w); ++t) {
      const Capture a = make_capture(w, 1, t);
      const uint64_t da = capture_digest(a);
      const uint64_t db = capture_digest(make_capture(w, 1, t));
      const uint64_t dc = capture_digest(make_capture(w, 2, t));
      const bool same = da == db;
      const bool differs = da != dc;
      std::printf("%-24s tenant %zu: %zu train + %zu live frames, "
                  "seed 1 %016" PRIx64 " (repeat %s), seed 2 %016" PRIx64
                  " (%s)\n",
                  workload_name(w), t, a.train.size(), a.live.size(), da,
                  same ? "identical" : "DIFFERENT", dc,
                  differs ? "differs" : "IDENTICAL");
      if (!same || !differs || a.train.empty() || a.live.empty()) ++failures;
    }
  }
  if (tenant_count(Workload::kSocketKitsune) == 2 &&
      capture_digest(make_capture(Workload::kSocketKitsune, 1, 0)) ==
          capture_digest(make_capture(Workload::kSocketKitsune, 1, 1))) {
    std::printf("socket tenants share one capture\n");
    ++failures;
  }
  std::printf("%s\n", failures == 0 ? "seed test passed" : "seed test FAILED");
  return failures == 0 ? 0 : 1;
}
