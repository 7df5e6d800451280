// Shared --threads=N / --memo=0|1 handling for the benchmark harnesses.
//
// google/benchmark rejects flags it does not recognise, so BVQ_BENCHMARK_MAIN
// strips --threads=N and --memo=0|1 out of argv before handing the rest to
// the library and records the values for EvalOptions(). The default of 1
// thread creates no pool and runs every kernel inline on the calling
// thread; pass --threads=0 for auto (hardware concurrency) or an explicit
// worker count. --memo=0 disables the dependency-aware subformula
// memo (the ablation switch; default on). Results are byte-identical for
// every combination (see DESIGN.md, "Threading model & determinism" and
// "Memoization & invariant hoisting") — only the timings move.
//
// --deadline-ms=N / --mem-budget-mb=N arm a ResourceGovernor shared by all
// governed iterations (default: off) so a bench configuration that would
// run away gets cut with DeadlineExceeded / ResourceExhausted instead of
// wedging a CI run. The governor adds its per-node token polls to the
// measured path, so leave both at 0 for comparable timing series.

#ifndef BVQ_BENCH_BENCH_THREADS_H_
#define BVQ_BENCH_BENCH_THREADS_H_

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdlib>
#include <cstring>

#include "common/resource.h"
#include "eval/bounded_eval.h"

namespace bvq_bench {

inline std::size_t& ThreadsFlag() {
  static std::size_t threads = 1;
  return threads;
}

inline bool& MemoFlag() {
  static bool memo = true;
  return memo;
}

inline bvq::ResourceGovernor::Limits& GovernorLimits() {
  static bvq::ResourceGovernor::Limits limits;
  return limits;
}

// The shared governor, or nullptr when no limit flag was passed. The clock
// starts at the first governed evaluation, so a deadline bounds the whole
// bench run, not each iteration.
inline bvq::ResourceGovernor* Governor() {
  const auto& limits = GovernorLimits();
  if (limits.deadline_ms == 0 && limits.mem_budget_bytes == 0) {
    return nullptr;
  }
  static bvq::ResourceGovernor governor(limits);
  return &governor;
}

inline void ParseThreadsFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      ThreadsFlag() =
          static_cast<std::size_t>(std::strtoull(argv[i] + 10, nullptr, 10));
    } else if (std::strncmp(argv[i], "--memo=", 7) == 0) {
      MemoFlag() = std::strtoull(argv[i] + 7, nullptr, 10) != 0;
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      GovernorLimits().deadline_ms =
          std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--mem-budget-mb=", 16) == 0) {
      GovernorLimits().mem_budget_bytes =
          static_cast<std::size_t>(std::strtoull(argv[i] + 16, nullptr, 10))
          << 20;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

// Evaluator options carrying the --threads / --memo / governor values;
// benches pass this to every BoundedEvaluator so the flags reach the engine.
inline bvq::BoundedEvalOptions EvalOptions() {
  bvq::BoundedEvalOptions options;
  options.num_threads = ThreadsFlag();
  options.memo = MemoFlag();
  options.governor = Governor();
  return options;
}

}  // namespace bvq_bench

#define BVQ_BENCHMARK_MAIN()                                      \
  int main(int argc, char** argv) {                               \
    bvq_bench::ParseThreadsFlag(&argc, argv);                     \
    ::benchmark::Initialize(&argc, argv);                         \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {   \
      return 1;                                                   \
    }                                                             \
    ::benchmark::RunSpecifiedBenchmarks();                        \
    ::benchmark::Shutdown();                                      \
    return 0;                                                     \
  }                                                               \
  int main(int, char**)

#endif  // BVQ_BENCH_BENCH_THREADS_H_
