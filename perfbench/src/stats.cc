#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

HostState ReadHostState() {
  HostState h;
  h.cores = std::thread::hardware_concurrency();
  std::ifstream load("/proc/loadavg");
  std::getline(load, h.loadavg);
  std::ifstream stat("/proc/stat");
  std::string line;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  if (std::getline(stat, line)) {
    std::istringstream is(line);
    std::string cpu;
    unsigned long long v[8] = {};
    is >> cpu;
    for (auto& x : v) is >> x;
    h.steal_ticks = v[7];
  }
  return h;
}

double ProcessCpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string s;
  std::getline(in, s);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line, 12 and 13 after the ')'.
  const auto close = s.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream is(s.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15; ++i) {
    if (i == 14) {
      is >> utime;
    } else if (i == 15) {
      is >> stime;
    } else {
      is >> field;
    }
  }
  return static_cast<double>(utime + stime) * 1000.0 /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
