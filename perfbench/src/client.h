// The end-to-end load generator: bvqserve as a child process with default flags,
// spoken to over one stdin/stdout pipe with `open`, `load`, `rel`, `eval`,
// `stats` and `quit` only, in a closed loop with a fixed number of
// operations in flight.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstddef>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

#include "oracle.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

// A bvqserve child. The destructor kills and reaps it if Quit() was not
// reached, so no path leaves a process behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Spawn(const std::string& binary, std::string* error);
  bool Send(const std::string& text);
  // Reads one line (without '\n'); false on EOF or after `timeout_ms`.
  bool ReadLine(std::string* line, int timeout_ms = 60000);
  // Sends quit, reads to EOF and reaps the child. False if it misbehaved.
  bool Quit();
  pid_t pid() const { return pid_; }

 private:
  void Kill();
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
  std::size_t offset_ = 0;
};

struct E2EOptions {
  std::string bvqserve;
  double seconds = 10.0;
  std::size_t setups = 7;   // setup_s is the median of these
  bool write_probe = false; // time 32 idle writes after the window
};

struct E2EResult {
  bool ok = false;
  std::string error;
  std::vector<double> setup_s;
  // The measured window, cut into consecutive slices of about a second.
  struct Slice {
    double seconds = 0.0;
    double server_cpu_ms = 0.0;
    double steal_ticks = 0.0;        // host-wide, from /proc/stat
    std::vector<double> latency_ms;  // evals completed in it; inf = failed
  };
  std::vector<Slice> slices;
  std::vector<double> write_ack_ms;  // every write ack of the window
  double peak_rss_mb = 0.0;
  std::size_t rss_ops = 0;  // operations completed when it was read
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string stats_lines;  // `stats <s>` replies at the end of the run
  HostState host_start;
};

// Sums the numeric key=value fields of `stats <s>` reply lines.
std::map<std::string, double> SumStats(const std::string& stats_lines);

// Runs workload `w` end to end, recording every eval for the oracle.
E2EResult RunEndToEnd(Workload& w, const E2EOptions& options,
                      Observations* obs);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
