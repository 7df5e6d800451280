// bvqbench — the bvqserve benchmark's load generator (see perfbench/NOTES.md).
//
//   bvqbench --workload serve_hot|serve_churn|eval_fixpoint --seed N
//            --seconds S --trace 0|1 --bvqserve PATH --work-dir DIR
//            [--oracle-selftest 1]
//
// --trace 0 runs bvqserve end to end and reports the end-to-end metrics;
// --trace 1 runs the traced, in-process replay and reports the per-layer
// metrics. Either way every eval payload is checked against the oracle, and
// the last line of standard output is the JSON result.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>

#include "client.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace {

using namespace perfbench;

void PrintHost(const char* when, const HostState& h) {
  std::printf("# host %s: host_cores=%u loadavg=\"%s\" steal_ticks=%llu\n",
              when, h.cores, h.loadavg.c_str(), h.steal_ticks);
}

int Usage() {
  std::fprintf(stderr,
               "usage: bvqbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --bvqserve PATH --work-dir DIR "
               "[--oracle-selftest 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--bvqserve",
        "--work-dir"}) {
    if (!args.count(required)) return Usage();
  }
  const std::uint64_t seed = std::stoull(args["--seed"]);
  const double seconds = std::stod(args["--seconds"]);
  const bool trace = args["--trace"] == "1";
  const bool selftest = args["--oracle-selftest"] == "1";
  const std::size_t oracle_threads = 4;

  Workload w;
  if (!MakeWorkload(args["--workload"], seed, &w)) return Usage();
  const std::string dir =
      args["--work-dir"] + "/inputs-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  struct RemoveDir {
    std::string path;
    ~RemoveDir() { std::filesystem::remove_all(path); }
  } cleanup{dir};
  std::string error;
  if (!WriteInputs(w, dir, &error)) {
    std::fprintf(stderr, "bvqbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("# workload %s seed %llu: %zu sessions, %zu texts, %zu in "
              "flight\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              w.sessions.size(), w.texts.size(), w.in_flight);

  Observations obs(w);
  std::vector<Metric> metrics;
  std::size_t attempted = 0, failed = 0;
  HostState host_start = ReadHostState(), host_end;

  if (trace) {
    TraceOptions topt;
    topt.bvqserve = args["--bvqserve"];
    topt.seconds = seconds;
    topt.span_path = args["--work-dir"] + "/spans-" + w.name + "-seed" +
                     std::to_string(seed) + ".jsonl";
    TraceResult t = RunTrace(w, topt, &obs);
    if (!t.ok) {
      std::fprintf(stderr, "bvqbench: %s\n", t.error.c_str());
      return 1;
    }
    metrics = std::move(t.metrics);
    attempted = t.attempted;
    failed = t.failed;
  } else {
    E2EOptions eopt;
    eopt.bvqserve = args["--bvqserve"];
    eopt.seconds = seconds;
    E2EResult r = RunEndToEnd(w, eopt, &obs);
    if (!r.ok) {
      std::fprintf(stderr, "bvqbench: %s\n", r.error.c_str());
      return 1;
    }
    host_start = r.host_start;
    attempted = r.attempted;
    failed = r.failed;
    const double p = w.tail_percentile;
    // The window's one-second slices, quietest first: the metrics pool the
    // third of the slices in which the hypervisor stole the fewest ticks
    // (ties keep time order). See NOTES.md, "Host noise".
    std::vector<std::size_t> order(r.slices.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
      return r.slices[a].steal_ticks < r.slices[b].steal_ticks;
    });
    order.resize((order.size() + 2) / 3);
    std::vector<bool> kept(r.slices.size(), false);
    for (auto i : order) kept[i] = true;
    std::vector<double> latency;
    double seconds_total = 0.0, cpu_ms = 0.0;
    for (std::size_t i = 0; i < r.slices.size(); ++i) {
      const auto& sl = r.slices[i];
      std::printf("# slice %2zu %s %.2f s: %zu evals, p50 %.4g ms, cpu %.0f "
                  "ms, steal %.0f\n",
                  i, kept[i] ? "kept   " : "dropped", sl.seconds,
                  sl.latency_ms.size(), Median(sl.latency_ms),
                  sl.server_cpu_ms, sl.steal_ticks);
      if (!kept[i]) continue;
      latency.insert(latency.end(), sl.latency_ms.begin(), sl.latency_ms.end());
      seconds_total += sl.seconds;
      cpu_ms += sl.server_cpu_ms;
    }
    std::printf("# peak_rss_mb read after %zu operations\n", r.rss_ops);
    double tail = Percentile(latency, p);
    std::size_t beyond = 0;
    for (double v : latency) beyond += v > tail;
    std::printf("# latency_tail_ms is p%g of %zu samples, %zu beyond it; "
                "candidates:",
                p, latency.size(), beyond);
    for (double q : {90.0, 95.0, 98.0, 99.0, 99.5, 99.9}) {
      const double v = Percentile(latency, q);
      std::size_t n = 0;
      for (double x : latency) n += x > v;
      std::printf(" p%g=%.4g (%zu beyond)", q, v, n);
    }
    std::printf("\n");
    if (beyond < 10) {
      std::printf("# WARNING: fewer than 10 samples beyond p%g\n", p);
    }
    // A failed operation misses every latency limit; if the tail lands on
    // one, report the whole window.
    if (std::isinf(tail)) tail = seconds_total * 1000.0;
    const auto sums = SumStats(r.stats_lines);
    std::printf("# server stats: cache_hits=%.0f cache_misses=%.0f "
                "memo_hits=%.0f pool_created=%.0f pool_reused=%.0f "
                "cache_bytes=%.0f\n",
                sums.count("cache_hits") ? sums.at("cache_hits") : 0.0,
                sums.count("cache_misses") ? sums.at("cache_misses") : 0.0,
                sums.count("memo_hits") ? sums.at("memo_hits") : 0.0,
                sums.count("pool_created") ? sums.at("pool_created") : 0.0,
                sums.count("pool_reused") ? sums.at("pool_reused") : 0.0,
                sums.count("cache_bytes") ? sums.at("cache_bytes") : 0.0);
    std::printf("# setup_s samples:");
    for (double s : r.setup_s) std::printf(" %.4f", s);
    std::printf("\n");
    const double evals = static_cast<double>(latency.size());
    metrics = {
        {"throughput_qps", evals / seconds_total, "1/s"},
        {"latency_p50_ms", Median(latency), "ms"},
        {"latency_tail_ms", tail, "ms"},
        {"server_cpu_ms_per_query", cpu_ms / evals, "ms"},
        {"peak_rss_mb", r.peak_rss_mb, "MiB"},
        {"setup_s", Median(r.setup_s), "s"},
    };
  }
  host_end = ReadHostState();
  PrintHost("start", host_start);
  PrintHost("end", host_end);

  const auto check_start = Clock::now();
  const bool correct = CheckOutputs(w, obs, oracle_threads, selftest);
  std::printf("# oracle: %zu evals, %zu distinct payloads, %.1f s, %s\n",
              obs.evals.size(), obs.payloads.size(),
              MsSince(check_start, Clock::now()) / 1000.0,
              correct ? "all match" : "MISMATCH");
  PrintResult(correct && failed == 0, attempted, failed, metrics);
  return correct && failed == 0 ? 0 : 1;
}
