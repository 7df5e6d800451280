// Cross-query answer cache bench: the session-level AnswerCache
// (DESIGN.md §11) and its persistence path (DESIGN.md §13), measured on a
// batch of fixpoint queries that a client replays against an unchanged
// database. Four passes over the same queries:
//
//   off         no cache attached (the seed evaluation path, reference)
//   cold        fresh process, empty cache (populates it)
//   prewarmed   "restarted" process — a *new* cache and a *new* interner
//               over a reparse of the same database (every version nonce
//               differs, every fingerprint matches), prewarmed from a
//               snapshot of the first cache via the full codec round trip
//               (ExportResolved → encode → decode → Restore → ResolveAgainst)
//   warm        same process, same cache, immediate replay (the ceiling)
//
// Warm-over-cold is what the cache buys a replayed query: its root subtree
// is one version-keyed probe instead of a fixpoint computation. Prewarmed
// against warm is what persistence buys a restarted server: its first
// queries should cost probe time, not fixpoint time.
//
// Custom main (not google/benchmark) so it can emit the BENCH_persist.json
// record the perf trajectory is tracked with:
//
//   bench_cache_persist [--n=40] [--reps=3] [--threads=1]
//                       [--out=BENCH_persist.json]
//
// Timing is min-of-reps per cached pass (the cache-off reference runs
// once). Before any number is written, every cold, prewarmed and warm
// answer is asserted byte-identical to the cache-off reference run, and the
// prewarmed and warm passes must each actually hit: a replay with zero
// cache hits is a failure, not a slow run. Any of these failures exits 1.

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/resource.h"
#include "common/strings.h"
#include "db/database.h"
#include "db/generators.h"
#include "eval/answer_cache.h"
#include "eval/bounded_eval.h"
#include "eval/cache_snapshot.h"
#include "logic/parser.h"

namespace {

using namespace bvq;

// Same loop-invariant guard as bench_memo_ablation: each conjunct costs
// kernel sweeps that a cache hit avoids recomputing.
const char kInvariantGuard[] =
    "(forall x2 . exists x3 . (E(x2,x3) | x2 = x3)) & "
    "(forall x3 . exists x2 . (E(x2,x3) | x2 = x3)) & "
    "(exists x2 . exists x3 . E(x2,x3)) & "
    "(forall x2 . forall x3 . (E(x2,x3) -> !(x2 = x3)))";

struct Workload {
  std::string name;
  std::string formula;
};

std::vector<Workload> Workloads() {
  const std::string inv = kInvariantGuard;
  return {
      {"lfp_invariant_guard",
       "[lfp T(x1) . P(x1) | ((exists x2 . (E(x1,x2) & T(x2))) & (" + inv +
           "))](x1)"},
      {"nested_lfp_gfp",
       "[gfp G(x1) . (exists x2 . (E(x1,x2) & G(x2))) & "
       "[lfp T(x2) . P(x2) | exists x3 . (E(x2,x3) & T(x3))](x1) & (" +
           inv + ")](x1)"},
      {"ifp_invariant_guard",
       "[ifp I(x1) . P(x1) | ((exists x2 . (E(x1,x2) & I(x2))) & (" + inv +
           "))](x1)"},
      {"pfp_invariant_guard",
       "[pfp F(x1) . P(x1) | ((exists x2 . (E(x1,x2) & F(x2))) & (" + inv +
           "))](x1)"},
  };
}

Database LongPathDb(std::size_t n) {
  Database db(n);
  Status s = db.AddRelation("E", PathGraph(n));
  assert(s.ok());
  RelationBuilder p(1);
  Value last = static_cast<Value>(n - 1);
  p.Add(&last);
  s = db.AddRelation("P", p.Build());
  assert(s.ok());
  (void)s;
  return db;
}

double MinMs(const std::vector<double>& xs) {
  return *std::min_element(xs.begin(), xs.end());
}

struct PassResult {
  double ms = 0;  // whole-batch wall time
  std::vector<AssignmentSet> answers;
  std::uint64_t cache_hits = 0;
};

PassResult RunBatch(const Database& db, const std::vector<FormulaPtr>& batch,
                    AnswerCache* cache, std::size_t threads) {
  BoundedEvalOptions opts;
  opts.num_threads = threads;
  opts.answer_cache = cache;
  opts.cross_query_cache = cache != nullptr;
  PassResult out;
  const auto start = std::chrono::steady_clock::now();
  for (const FormulaPtr& f : batch) {
    BoundedEvaluator eval(db, 3, opts);
    auto result = eval.Evaluate(f);
    if (!result.ok()) {
      std::fprintf(stderr, "eval failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    out.answers.push_back(*result);
    out.cache_hits += eval.stats().cache_hits;
  }
  const auto stop = std::chrono::steady_clock::now();
  out.ms = std::chrono::duration<double, std::milli>(stop - start).count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n = 40;
  std::size_t reps = 3;
  std::size_t threads = 1;
  std::string out_path = "BENCH_persist.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* name) {
      return arg.substr(std::string(name).size());
    };
    bool ok = true;
    if (arg.rfind("--n=", 0) == 0) {
      ok = ParseSizeT(value_of("--n="), &n);
    } else if (arg.rfind("--reps=", 0) == 0) {
      ok = ParseSizeT(value_of("--reps="), &reps);
    } else if (arg.rfind("--threads=", 0) == 0) {
      ok = ParseSizeT(value_of("--threads="), &threads);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = value_of("--out=");
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: bench_cache_persist [--n=N] [--reps=R] "
                   "[--threads=T] [--out=PATH]\n");
      return 1;
    }
  }
  if (reps == 0) reps = 1;

  Database db = LongPathDb(n);
  std::vector<FormulaPtr> batch;
  std::vector<std::string> names;
  for (const Workload& w : Workloads()) {
    auto f = ParseFormula(w.formula);
    if (!f.ok()) {
      std::fprintf(stderr, "parse failed (%s): %s\n", w.name.c_str(),
                   f.status().ToString().c_str());
      return 1;
    }
    batch.push_back(*f);
    names.push_back(w.name);
  }

  // The seed path every cached pass must reproduce byte for byte.
  const PassResult reference = RunBatch(db, batch, nullptr, threads);

  std::vector<double> cold_times, prewarmed_times, warm_times, codec_times;
  PassResult prewarmed_last, warm_last;
  std::uint64_t prewarmed_hits = 0, warm_hits = 0;
  std::size_t snapshot_bytes = 0, restored_entries = 0;
  bool all_identical = true;
  for (std::size_t r = 0; r < reps; ++r) {
    ResourceGovernor governor;
    AnswerCacheOptions cache_options;
    cache_options.governor = &governor;
    AnswerCache cache(cache_options);
    const PassResult cold = RunBatch(db, batch, &cache, threads);
    cold_times.push_back(cold.ms);

    // The restart: export → codec round trip → restore into a new cache,
    // resolved against a reparse (new versions, same fingerprints). The
    // codec time is tracked separately — it is the price of the prewarm.
    auto reparsed = ParseDatabase(db.ToString());
    if (!reparsed.ok()) {
      std::fprintf(stderr, "reparse failed: %s\n",
                   reparsed.status().ToString().c_str());
      return 1;
    }
    ResourceGovernor governor2;
    AnswerCacheOptions options2;
    options2.governor = &governor2;
    AnswerCache restarted(options2);
    const auto codec_start = std::chrono::steady_clock::now();
    const std::string encoded = EncodeCacheSnapshot(cache.ExportResolved(db));
    auto decoded = DecodeCacheSnapshot(encoded);
    if (!decoded.ok()) {
      std::fprintf(stderr, "decode failed: %s\n",
                   decoded.status().ToString().c_str());
      return 1;
    }
    restarted.Restore(std::move(*decoded));
    restored_entries = restarted.ResolveAgainst(*reparsed);
    const auto codec_stop = std::chrono::steady_clock::now();
    codec_times.push_back(
        std::chrono::duration<double, std::milli>(codec_stop - codec_start)
            .count());
    snapshot_bytes = encoded.size();
    if (restored_entries == 0) {
      std::fprintf(stderr, "prewarm resolved no entries\n");
      return 1;
    }

    const PassResult prewarmed =
        RunBatch(*reparsed, batch, &restarted, threads);
    prewarmed_times.push_back(prewarmed.ms);
    prewarmed_hits = prewarmed.cache_hits;

    const PassResult warm = RunBatch(db, batch, &cache, threads);
    warm_times.push_back(warm.ms);
    warm_hits = warm.cache_hits;

    for (std::size_t q = 0; q < batch.size(); ++q) {
      all_identical = all_identical &&
                      cold.answers[q] == reference.answers[q] &&
                      prewarmed.answers[q] == reference.answers[q] &&
                      warm.answers[q] == reference.answers[q];
    }
    prewarmed_last = prewarmed;
    warm_last = warm;
  }
  const double cold_ms = MinMs(cold_times);
  const double prewarmed_ms = MinMs(prewarmed_times);
  const double warm_ms = MinMs(warm_times);
  const double codec_ms = MinMs(codec_times);
  const double speedup = prewarmed_ms > 0 ? cold_ms / prewarmed_ms : 0;

  std::printf(
      "batch of %zu queries on n=%zu: cold %8.3f ms   prewarmed %8.3f ms   "
      "warm %8.3f ms   codec %6.3f ms   cold-over-prewarmed %5.2fx   "
      "prewarmed hits %llu   warm hits %llu   snapshot %zu B   %s\n",
      batch.size(), n, cold_ms, prewarmed_ms, warm_ms, codec_ms, speedup,
      static_cast<unsigned long long>(prewarmed_hits),
      static_cast<unsigned long long>(warm_hits), snapshot_bytes,
      all_identical ? "identical" : "MISMATCH");
  for (std::size_t q = 0; q < batch.size(); ++q) {
    std::printf("  %-22s %s\n", names[q].c_str(),
                prewarmed_last.answers[q] == reference.answers[q]
                    ? "identical"
                    : "MISMATCH");
  }

  std::string json = "{\n  \"bench\": \"cache_persist\",\n";
  json += "  \"config\": {\n";
  json += "    \"domain_size\": " + std::to_string(n) + ",\n";
  json += "    \"k\": 3,\n";
  json += "    \"host_cores\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "    \"threads\": " + std::to_string(threads) + ",\n";
  json += "    \"reps\": " + std::to_string(reps) + ",\n";
  json += "    \"queries\": " + std::to_string(batch.size()) + ",\n";
  json += "    \"memo\": true,\n    \"cross_query_cache\": true\n  },\n";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"cold_ms\": %.4f,\n  \"prewarmed_ms\": %.4f,\n"
      "  \"warm_ms\": %.4f,\n  \"off_ms\": %.4f,\n  \"codec_ms\": %.4f,\n"
      "  \"speedup\": %.3f,\n  \"prewarmed_cache_hits\": %llu,\n"
      "  \"warm_cache_hits\": %llu,\n"
      "  \"restored_entries\": %zu,\n  \"snapshot_bytes\": %zu,\n"
      "  \"identical\": %s,\n",
      cold_ms, prewarmed_ms, warm_ms, reference.ms, codec_ms, speedup,
      static_cast<unsigned long long>(prewarmed_hits),
      static_cast<unsigned long long>(warm_hits), restored_entries,
      snapshot_bytes, all_identical ? "true" : "false");
  json += buf;
  json += "  \"workloads\": [\n";
  for (std::size_t q = 0; q < batch.size(); ++q) {
    json += "    {\"name\": \"" + names[q] + "\", \"identical\": " +
            (prewarmed_last.answers[q] == reference.answers[q] ? "true"
                                                               : "false") +
            std::string(q + 1 < batch.size() ? "}," : "}") + "\n";
  }
  json += "  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  if (prewarmed_hits == 0) {
    std::fprintf(stderr, "prewarmed pass never hit the cache\n");
    return 1;
  }
  if (warm_hits == 0) {
    std::fprintf(stderr, "warm pass never hit the cache\n");
    return 1;
  }
  return all_identical ? 0 : 1;
}
