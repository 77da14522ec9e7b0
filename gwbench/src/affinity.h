// Rotating thread pinning for the benchmark process.
//
// On a virtual machine the cores the guest sees do not run at one speed:
// each shares its physical core with whatever else the host schedules
// there, and which core a thread lands on changes from run to run. A run
// that happens to put the consumer on a crowded core measures the host,
// not the gateway. rotate() pins every thread of the process to its own
// core, shifted one core from the previous call. The benchmark calls it
// between phases, so no timed phase sees a migration, and over the rounds
// of a run each thread spends about the same time on every core.
#pragma once

#include <cstddef>
#include <vector>

namespace gwbench {

class AffinityRotator {
 public:
  AffinityRotator();
  /// Leaves every thread free to run on any allowed core again.
  ~AffinityRotator();
  AffinityRotator(const AffinityRotator&) = delete;
  AffinityRotator& operator=(const AffinityRotator&) = delete;

  /// Pins each thread to one core, one core further than last time.
  /// Callable from any thread of the process.
  void rotate();
  /// False when the host refuses pinning (the run is then unpinned).
  bool active() const { return active_; }

 private:
  std::vector<int> cpus_;
  size_t epoch_ = 0;
  bool active_ = true;
};

}  // namespace gwbench
