// The output oracle: every eval payload a run observed is compared byte for
// byte with serve::FormatRelation of a fresh BoundedEvaluator (threads=1,
// memo off, no answer cache) over a database state the eval could legally
// have seen. Runs after the measured window.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload.h"

namespace perfbench {

// One completed eval. Its database state is any of its session's states
// first..last: `first` counts the writes to the session issued before the
// eval, `last` those issued before its result arrived.
struct EvalRecord {
  std::uint64_t id = 0;
  std::size_t session = 0;
  std::size_t text = 0;
  std::size_t first = 0;
  std::size_t last = 0;
  std::uint32_t payload = 0;  // index into Observations::payloads
};

struct Observations {
  std::vector<EvalRecord> evals;
  std::vector<std::string> payloads;  // interned
  std::unordered_map<std::string, std::uint32_t> payload_ids;
  // history[s][v]: variant of each replaceable relation after v writes.
  std::vector<std::vector<std::vector<std::size_t>>> history;

  explicit Observations(const Workload& w);
  std::uint32_t Intern(std::string payload);
  std::size_t version(std::size_t s) const { return history[s].size() - 1; }
  void RecordWrite(std::size_t s, std::size_t rel, std::size_t variant);
};

// Checks every record; returns false and prints the id, session and query
// text of each mismatch. `corrupt_first` alters the first expected payload
// (the oracle self-test: the check must then fail).
bool CheckOutputs(const Workload& w, const Observations& obs,
                  std::size_t threads, bool corrupt_first);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
