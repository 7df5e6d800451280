#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <thread>
#include <tuple>

#include "db/database.h"
#include "eval/bounded_eval.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "serve/server.h"

namespace perfbench {

Observations::Observations(const Workload& w) {
  for (const auto& s : w.sessions) {
    history.push_back({std::vector<std::size_t>(s.replaceable.size(), 0)});
  }
}

std::uint32_t Observations::Intern(std::string payload) {
  auto [it, inserted] = payload_ids.try_emplace(
      std::move(payload), static_cast<std::uint32_t>(payloads.size()));
  if (inserted) payloads.push_back(it->first);
  return it->second;
}

void Observations::RecordWrite(std::size_t s, std::size_t rel,
                               std::size_t variant) {
  auto next = history[s].back();
  next[rel] = variant;
  history[s].push_back(std::move(next));
}

namespace {

// The oracle's answer depends on the session, the text, and the variants of
// only those replaceable relations the text mentions.
struct Key {
  std::size_t session = 0;
  std::size_t text = 0;
  std::vector<std::size_t> variants;  // per replaceable relation; 0 if unused
  bool operator<(const Key& o) const {
    return std::tie(session, text, variants) <
           std::tie(o.session, o.text, o.variants);
  }
};

Key KeyFor(const Workload& w, std::size_t session, std::size_t text,
           const std::vector<std::size_t>& state) {
  Key k{session, text, state};
  const auto mentioned = RelationsOf(w.texts[text]);
  const auto& repl = w.sessions[session].replaceable;
  for (std::size_t r = 0; r < repl.size(); ++r) {
    if (std::find(mentioned.begin(), mentioned.end(), repl[r].name) ==
        mentioned.end()) {
      k.variants[r] = 0;
    }
  }
  return k;
}

std::string Reference(const bvq::Database& db, const std::string& text) {
  auto query = bvq::ParseQuery(text);
  if (!query.ok()) return "oracle parse error: " + query.status().ToString();
  std::size_t num_vars = 3;  // the sessions' k (open's default)
  num_vars = std::max(num_vars, bvq::NumVariables(query->formula));
  bvq::BoundedEvalOptions options;
  options.num_threads = 1;
  options.memo = false;
  options.cross_query_cache = false;
  bvq::BoundedEvaluator eval(db, num_vars, options);
  auto result = eval.EvaluateQuery(*query);
  if (!result.ok()) return "oracle error: " + result.status().ToString();
  return bvq::serve::FormatRelation(*result);
}

// Computes the reference payload of every key, `threads` at a time.
void ComputeAll(const Workload& w, const std::vector<bvq::Database>& base,
                std::map<Key, std::string>* expected, std::size_t threads) {
  std::vector<std::pair<const Key*, std::string*>> todo;
  for (auto& [k, v] : *expected) {
    if (v.empty()) todo.push_back({&k, &v});
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < todo.size(); i = next++) {
      const Key& k = *todo[i].first;
      const auto& repl = w.sessions[k.session].replaceable;
      bvq::Database db = base[k.session];
      for (std::size_t r = 0; r < repl.size(); ++r) {
        if (k.variants[r] == 0) continue;
        auto rel = bvq::Relation::FromTuples(
            repl[r].arity, [&] {
              std::vector<bvq::Tuple> ts;
              for (const auto& t : repl[r].variants[k.variants[r]]) {
                ts.emplace_back(t.begin(), t.end());
              }
              return ts;
            }());
        (void)db.AddRelation(repl[r].name, std::move(rel));
      }
      *todo[i].second = Reference(db, w.texts[k.text]);
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) {
    pool.emplace_back(worker);
  }
  for (auto& t : pool) t.join();
}

}  // namespace

bool CheckOutputs(const Workload& w, const Observations& obs,
                  std::size_t threads, bool corrupt_first) {
  std::vector<bvq::Database> base;
  for (const auto& s : w.sessions) {
    auto db = bvq::ParseDatabase(s.db_text);
    if (!db.ok()) {
      std::printf("oracle: cannot parse %s: %s\n", s.name.c_str(),
                  db.status().ToString().c_str());
      return false;
    }
    base.push_back(std::move(*db));
  }
  // Distinct (session, text, first, last, payload) records.
  std::set<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                      std::uint32_t>>
      distinct;
  for (const auto& e : obs.evals) {
    distinct.insert({e.session, e.text, e.first, e.last, e.payload});
  }
  std::map<Key, std::string> expected;
  // Pass 1: the state at submission; pass 2: every later legal state of the
  // records pass 1 did not match.
  for (const auto& [s, t, first, last, p] : distinct) {
    expected.emplace(KeyFor(w, s, t, obs.history[s][first]), std::string());
  }
  ComputeAll(w, base, &expected, threads);
  if (corrupt_first && !obs.evals.empty()) {
    const auto& e = obs.evals.front();
    expected[KeyFor(w, e.session, e.text, obs.history[e.session][e.first])] +=
        "(altered by the oracle self-test)\n";
  }
  auto matches = [&](std::size_t s, std::size_t t, std::size_t v,
                     std::uint32_t p) {
    auto it = expected.find(KeyFor(w, s, t, obs.history[s][v]));
    return it != expected.end() && it->second == obs.payloads[p];
  };
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                         std::uint32_t>>
      unmatched;
  for (const auto& rec : distinct) {
    const auto& [s, t, first, last, p] = rec;
    if (!matches(s, t, first, p)) {
      unmatched.push_back(rec);
      for (std::size_t v = first + 1; v <= last; ++v) {
        expected.emplace(KeyFor(w, s, t, obs.history[s][v]), std::string());
      }
    }
  }
  if (!unmatched.empty()) ComputeAll(w, base, &expected, threads);
  std::set<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                      std::uint32_t>>
      bad;
  for (const auto& rec : unmatched) {
    const auto& [s, t, first, last, p] = rec;
    bool ok = false;
    for (std::size_t v = first + 1; v <= last && !ok; ++v) {
      ok = matches(s, t, v, p);
    }
    if (!ok) bad.insert(rec);
  }
  std::size_t mismatched = 0;
  for (const auto& e : obs.evals) {
    if (!bad.count({e.session, e.text, e.first, e.last, e.payload})) continue;
    if (mismatched++ < 5) {
      const auto& exp = expected[KeyFor(w, e.session, e.text,
                                        obs.history[e.session][e.first])];
      std::printf(
          "MISMATCH id=%llu session=%s query=%s\n  got:\n%s  expected (at "
          "submission):\n%s",
          static_cast<unsigned long long>(e.id),
          w.sessions[e.session].name.c_str(), w.texts[e.text].c_str(),
          obs.payloads[e.payload].c_str(), exp.c_str());
    }
  }
  if (mismatched > 0) {
    std::printf("oracle: %zu of %zu evals mismatched\n", mismatched,
                obs.evals.size());
  }
  return bad.empty();
}

}  // namespace perfbench
