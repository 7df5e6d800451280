// The traced run: the same workload and seed replayed in-process against a
// serve::Server, with spans around the calls into each layer, plus a
// sequential layer pass and kernel microbenchmarks.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "oracle.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {

struct TraceOptions {
  std::string bvqserve;
  double seconds = 10.0;
  std::string span_path;  // spans are written here when the run ends
};

struct TraceResult {
  bool ok = false;
  std::string error;
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

TraceResult RunTrace(Workload& w, const TraceOptions& options,
                     Observations* obs);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
