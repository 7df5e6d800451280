// Seeded workload generation for the bvqserve benchmark.
//
// Everything a run sends to bvqserve — database files, query texts, write
// payloads and the order of operations — is a pure function of the workload
// name and the seed. The generator has its own PRNG so that a change to the
// library's generators can never change the benchmark's inputs.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64; the benchmark's only source of randomness.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t Below(std::size_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

using Tuples = std::vector<std::vector<std::uint32_t>>;

// A relation a write may install: its name/arity and candidate contents.
struct Replaceable {
  std::string name;
  std::size_t arity = 0;
  std::vector<Tuples> variants;  // variants[0] is the loaded content
};

struct SessionSpec {
  std::string name;
  std::size_t domain = 0;
  std::string db_text;   // the database file, in ParseDatabase format
  std::string db_path;   // where WriteInputs put it
  std::vector<Replaceable> replaceable;
};

struct Op {
  enum Kind { kEval, kWrite } kind = kEval;
  std::size_t session = 0;
  std::size_t text = 0;     // kEval: index into Workload::texts
  std::size_t rel = 0;      // kWrite: index into SessionSpec::replaceable
  std::size_t variant = 0;  // kWrite: variant installed
};

// Renders "rel <session> <name>/<arity> v.. ; v.. ;".
std::string WriteLine(const SessionSpec& s, std::size_t rel,
                      std::size_t variant);

struct Workload {
  std::string name;
  std::size_t in_flight = 1;
  // The tail percentile this workload reports (see NOTES.md): the highest
  // one with >= 10 samples beyond it per run that repeated within a tenth
  // across the runs made while the benchmark was built.
  double tail_percentile = 99.0;
  std::vector<SessionSpec> sessions;
  std::vector<std::string> texts;
  // Operations sent before the measured window; excluded from metrics.
  std::vector<Op> warmup;
  // peak_rss_mb is read once this many operations (warm-up included) have
  // completed, so that it measures a fixed amount of work: the answer cache
  // grows with every eval on serve_churn and eval_fixpoint, and a faster or
  // luckier run would otherwise read a higher peak.
  std::size_t rss_after_ops = 0;

  // The deterministic operation stream after the warm-up. Writes toggle a
  // replaceable relation between its variants; `state` tracks the variant
  // each session's relations hold after every write issued so far.
  Op NextOp();
  std::vector<std::vector<std::size_t>> state;

  // Generator internals.
  Prng op_rng{0};
  std::vector<double> zipf_cdf;  // over pool ranks; rank r is texts[r]
  double write_share = 0.0;
  // eval_fixpoint: texts are bound to a session and sent in pool order,
  // each once (the stream wraps only if a run outlasts the pool).
  std::vector<std::size_t> text_session;
  std::size_t next_text = 0;
};

// Builds workload `name` ("serve_hot", "serve_churn", "eval_fixpoint") from
// `seed`. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* w);

// Writes every database file (setting db_path), the query pool and every
// write payload under `dir`.
bool WriteInputs(Workload& w, const std::string& dir, std::string* error);

// Names of the relations a query text mentions (atoms "Name(").
std::vector<std::string> RelationsOf(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
