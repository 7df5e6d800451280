// Small measurement helpers: percentiles, /proc readers, the result line.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

// Linear-interpolated percentile (p in [0,100]) of `values`; 0 if empty.
// Infinite samples (failed operations) sort last.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

// Host state recorded next to every run: cores, /proc/loadavg and the steal
// ticks summed over all CPUs in /proc/stat.
struct HostState {
  unsigned cores = 0;
  std::string loadavg;
  unsigned long long steal_ticks = 0;
};
HostState ReadHostState();

// user+sys CPU time of process `pid`, all threads (live and exited), in ms.
double ProcessCpuMs(pid_t pid);
// VmHWM of process `pid` in MiB; 0 if unreadable.
double ProcessPeakRssMb(pid_t pid);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Prints `name = value unit` lines and then, as the last line, the JSON
// object {"correct", "attempted", "failed", "metrics"}.
void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
