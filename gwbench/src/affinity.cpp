#include "affinity.h"

#include <dirent.h>
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <cstdlib>

namespace gwbench {

namespace {

std::vector<pid_t> process_threads() {
  std::vector<pid_t> tids;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return tids;
  while (const dirent* e = readdir(d)) {
    const long tid = std::strtol(e->d_name, nullptr, 10);
    if (tid > 0) tids.push_back(static_cast<pid_t>(tid));
  }
  closedir(d);
  std::sort(tids.begin(), tids.end());
  return tids;
}

}  // namespace

AffinityRotator::AffinityRotator() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }
  active_ = !cpus_.empty();
}

AffinityRotator::~AffinityRotator() {
  if (cpus_.empty()) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c : cpus_) CPU_SET(c, &all);
  for (pid_t tid : process_threads()) sched_setaffinity(tid, sizeof all, &all);
}

void AffinityRotator::rotate() {
  if (!active_) return;
  size_t i = 0;
  for (pid_t tid : process_threads()) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[(i++ + epoch_) % cpus_.size()], &one);
    if (sched_setaffinity(tid, sizeof one, &one) != 0) active_ = false;
  }
  ++epoch_;
}

}  // namespace gwbench
