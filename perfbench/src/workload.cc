#include "workload.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <set>
#include <sstream>

namespace perfbench {

namespace {

// Independent PRNG streams per purpose, so that e.g. enlarging the query
// pool does not reshuffle the databases.
Prng Stream(std::uint64_t seed, std::uint64_t purpose) {
  Prng mix(seed * 0x100000001b3ull + purpose);
  return Prng(mix.Next());
}

std::string Fill(std::string tmpl, const std::vector<std::size_t>& labels) {
  static const char* kSlots[] = {"{a}", "{b}", "{c}"};
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::string slot = kSlots[i];
    const std::string value = std::to_string(labels[i]);
    for (auto pos = tmpl.find(slot); pos != std::string::npos;
         pos = tmpl.find(slot)) {
      tmpl.replace(pos, slot.size(), value);
    }
  }
  return tmpl;
}

std::size_t SlotsOf(const std::string& tmpl) {
  if (tmpl.find("{c}") != std::string::npos) return 3;
  if (tmpl.find("{b}") != std::string::npos) return 2;
  return 1;
}

std::string RelText(const std::string& name, std::size_t arity,
                    const Tuples& tuples) {
  std::string out = "rel " + name + "/" + std::to_string(arity);
  for (const auto& t : tuples) {
    for (auto v : t) {
      out += ' ';
      out += std::to_string(v);
    }
    out += " ;";
  }
  return out;
}

Tuples Sorted(std::set<std::vector<std::uint32_t>> s) {
  return Tuples(s.begin(), s.end());
}

// A sparse digraph on n nodes: a random Hamiltonian path (so reachability
// and fixpoint stage counts grow with n) plus random chords, 2n edges.
Tuples SparseGraph(std::size_t n, Prng& rng) {
  std::vector<std::uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  std::set<std::vector<std::uint32_t>> edges;
  for (std::size_t i = 0; i + 1 < n; ++i) edges.insert({perm[i], perm[i + 1]});
  while (edges.size() < 2 * n) {
    const auto a = static_cast<std::uint32_t>(rng.Below(n));
    const auto b = static_cast<std::uint32_t>(rng.Below(n));
    if (a != b) edges.insert({a, b});
  }
  return Sorted(std::move(edges));
}

Tuples RandomTuples(std::size_t n, std::size_t arity, std::size_t count,
                    Prng& rng) {
  std::set<std::vector<std::uint32_t>> out;
  while (out.size() < count) {
    std::vector<std::uint32_t> t(arity);
    for (auto& v : t) v = static_cast<std::uint32_t>(rng.Below(n));
    out.insert(std::move(t));
  }
  return Sorted(std::move(out));
}

// Serving pool (serve_hot, serve_churn): FO^3 joins, forall-exists
// alternations, lfp reachability and FP^2 CTL-style EF/AG/EU/AF/EG over
// E/2, R/3 and labels P0..P7.
const std::vector<std::string>& ServingTemplates() {
  static const std::vector<std::string> kTemplates = {
      "(x1,x2) exists x3 . (R(x1,x2,x3) & E(x2,x3) & P{a}(x3))",
      "(x1) exists x2 . (E(x1,x2) & exists x3 . (R(x2,x3,x1) & P{a}(x3)))",
      "(x1,x2) exists x3 . (R(x1,x3,x2) & P{a}(x1) & P{b}(x3))",
      "(x1) forall x2 . (E(x1,x2) -> exists x3 . (R(x2,x3,x1) & P{a}(x3)))",
      "(x1,x2) P{a}(x1) & forall x3 . (E(x2,x3) -> exists x1 . (E(x3,x1) & "
      "P{b}(x1)))",
      "(x1,x2) [lfp T(x1,x2) . (E(x1,x2) & P{a}(x2)) | exists x3 . "
      "(E(x1,x3) & exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)",
      "(x1) [lfp T(x1) . P{a}(x1) | exists x2 . (E(x1,x2) & exists x1 . "
      "(x1 = x2 & T(x1)))](x1)",
      "(x1) [gfp T(x1) . P{a}(x1) & forall x2 . (E(x1,x2) -> exists x1 . "
      "(x1 = x2 & T(x1)))](x1)",
      "(x1) [lfp T(x1) . P{b}(x1) | (P{a}(x1) & exists x2 . (E(x1,x2) & "
      "exists x1 . (x1 = x2 & T(x1))))](x1)",
      "(x1) [lfp T(x1) . P{a}(x1) | (exists x2 . E(x1,x2) & forall x2 . "
      "(E(x1,x2) -> exists x1 . (x1 = x2 & T(x1))))](x1)",
      "(x1) [gfp T(x1) . P{a}(x1) & exists x2 . (E(x1,x2) & exists x1 . "
      "(x1 = x2 & T(x1)))](x1)",
  };
  return kTemplates;
}

// eval_fixpoint pool, after the paper: Path Systems in FO^3+lfp
// (Prop. 3.2), an alternating gfp/lfp nest with l = 2 (Thm. 3.5), 3-variable
// transitive closure, an FO^3 forall-exists alternation (Prop. 3.1) and a
// PFP whose stages converge within the graph's diameter (Thm. 3.8). Three
// label slots sit inside each fixpoint body, so no two texts share a
// fixpoint subtree through the answer cache.
const std::vector<std::string>& FixpointTemplates() {
  static const std::vector<std::string> kTemplates = {
      "(x1) [lfp T(x1) . P{a}(x1) | (!P{b}(x1) & !P{c}(x1) & exists x2 . "
      "exists x3 . (A(x1,x2,x3) & (exists x1 . (x1 = x2 & T(x1))) & "
      "(exists x1 . (x1 = x3 & T(x1)))))](x1)",
      "(x1) [gfp X(x1) . [lfp Y(x1) . !P{b}(x1) & exists x2 . (E(x1,x2) & "
      "(exists x1 . (x1 = x2 & (((P{a}(x1) | P{c}(x1)) & X(x1)) | "
      "Y(x1)))))](x1)](x1)",
      "(x1,x2) [lfp T(x1,x2) . (E(x1,x2) & !P{a}(x2)) | exists x3 . "
      "(E(x1,x3) & !P{b}(x3) & !P{c}(x1) & exists x1 . (x1 = x3 & "
      "T(x1,x2)))](x1,x2)",
      "(x1,x2) P{a}(x1) & forall x3 . (E(x1,x3) -> exists x1 . "
      "(R(x3,x1,x2) & !P{b}(x1) & !P{c}(x1)))",
      "(x1) [pfp X(x1) . P{a}(x1) | exists x2 . (E(x2,x1) & !P{b}(x2) & "
      "!P{c}(x1) & exists x1 . (x1 = x2 & X(x1)))](x1)",
  };
  return kTemplates;
}

std::vector<std::size_t> DistinctLabels(std::size_t count,
                                        std::size_t num_labels, Prng& rng) {
  std::vector<std::size_t> out;
  while (out.size() < count) {
    const std::size_t l = rng.Below(num_labels);
    if (std::find(out.begin(), out.end(), l) == out.end()) out.push_back(l);
  }
  return out;
}

// A seeded permutation of the domain. Relation shapes come from fixed
// streams and are renamed through it, so every seed gives databases
// isomorphic to every other seed's: the seed changes element names, label
// sets and the order of operations, not the cost of a run.
struct Relabel {
  std::vector<std::uint32_t> to;
  Relabel(std::size_t n, Prng& rng) : to(n) {
    for (std::size_t i = 0; i < n; ++i) to[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = n; i > 1; --i) std::swap(to[i - 1], to[rng.Below(i)]);
  }
  Tuples operator()(const Tuples& in) const {
    std::set<std::vector<std::uint32_t>> out;
    for (auto t : in) {
      for (auto& v : t) v = to[v];
      out.insert(std::move(t));
    }
    return Sorted(std::move(out));
  }
};

// The shape stream of session `index` at domain size n (seed-independent).
Prng ShapeStream(std::size_t index, std::size_t n) {
  return Prng(0x5eedba5eull + 1000 * index + n);
}

SessionSpec ServingSession(std::size_t index, std::size_t n,
                           std::size_t r_tuples, bool with_variants,
                           Prng& rng) {
  SessionSpec s;
  s.name = "s" + std::to_string(index);
  s.domain = n;
  Prng shape = ShapeStream(index, n);
  const Relabel relabel(n, rng);
  const Tuples e = relabel(SparseGraph(n, shape));
  const Tuples r = relabel(RandomTuples(n, 3, r_tuples, shape));
  std::vector<Tuples> labels;
  for (int i = 0; i < 8; ++i) labels.push_back(RandomTuples(n, 1, n / 3, rng));
  std::ostringstream db;
  db << "domain " << n << "\n" << RelText("E", 2, e) << "\n"
     << RelText("R", 3, r) << "\n";
  for (int i = 0; i < 8; ++i) {
    db << RelText("P" + std::to_string(i), 1, labels[i]) << "\n";
  }
  s.db_text = db.str();
  if (with_variants) {
    s.replaceable.push_back({"E", 2, {e, relabel(SparseGraph(n, shape))}});
    s.replaceable.push_back(
        {"P0", 1, {labels[0], RandomTuples(n, 1, n / 3, rng)}});
  }
  return s;
}

SessionSpec FixpointSession(const std::string& name, std::size_t index,
                            std::size_t n, Prng& rng) {
  SessionSpec s;
  s.name = name;
  s.domain = n;
  Prng shape = ShapeStream(index, n);
  const Relabel relabel(n, rng);
  std::ostringstream db;
  db << "domain " << n << "\n"
     << RelText("E", 2, relabel(SparseGraph(n, shape))) << "\n"
     << RelText("A", 3, relabel(RandomTuples(n, 3, 3 * n, shape))) << "\n"
     << RelText("R", 3, relabel(RandomTuples(n, 3, n * n * n / 2, shape)))
     << "\n";
  for (int i = 0; i < 12; ++i) {
    db << RelText("P" + std::to_string(i), 1, RandomTuples(n, 1, n / 4, rng))
       << "\n";
  }
  s.db_text = db.str();
  return s;
}

}  // namespace

std::string WriteLine(const SessionSpec& s, std::size_t rel,
                      std::size_t variant) {
  const Replaceable& r = s.replaceable[rel];
  return "rel " + s.name + " " +
         RelText(r.name, r.arity, r.variants[variant]).substr(4);
}

bool MakeWorkload(const std::string& name, std::uint64_t seed, Workload* w) {
  *w = Workload();
  w->name = name;
  Prng db_rng = Stream(seed, 1);
  Prng pool_rng = Stream(seed, 2);
  w->op_rng = Stream(seed, 3);

  if (name == "serve_hot" || name == "serve_churn") {
    const bool churn = name == "serve_churn";
    const std::size_t n = churn ? 40 : 32;
    for (std::size_t i = 0; i < 16; ++i) {
      w->sessions.push_back(ServingSession(i, n, 20000, churn, db_rng));
    }
    w->in_flight = 2;
    w->tail_percentile = 99.0;
    w->write_share = churn ? 0.2 : 0.0;
    w->rss_after_ops = 1024 + (churn ? 4000 : 8000);
    // 64 texts, ranked for a Zipf(1) draw. The template at each rank is
    // fixed (rank mod the number of templates), so every seed sends the
    // same template mix; the seed picks the labels (P0..P7) at each rank.
    const auto& templates = ServingTemplates();
    std::set<std::string> seen;
    for (std::size_t r = 0; w->texts.size() < 64;) {
      const std::string& t = templates[r % templates.size()];
      const std::string text = Fill(t, DistinctLabels(SlotsOf(t), 8, pool_rng));
      if (!seen.insert(text).second) continue;
      w->texts.push_back(text);
      ++r;
    }
    double sum = 0.0;
    for (std::size_t r = 0; r < w->texts.size(); ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      w->zipf_cdf.push_back(sum);
    }
    for (auto& c : w->zipf_cdf) c /= sum;
    // Warm-up: every text once in every session.
    for (std::size_t t = 0; t < w->texts.size(); ++t) {
      for (std::size_t s = 0; s < w->sessions.size(); ++s) {
        w->warmup.push_back({Op::kEval, s, t, 0, 0});
      }
    }
  } else if (name == "eval_fixpoint") {
    w->sessions.push_back(FixpointSession("fix64", 0, 64, db_rng));
    w->sessions.push_back(FixpointSession("fix50", 1, 50, db_rng));
    w->in_flight = 1;
    w->tail_percentile = 90.0;
    w->rss_after_ops = 4 + 500;
    // Text i goes to session i mod 2 and uses template (i / 2) mod 5, so
    // any window holds the same mix; the seed picks three distinct labels
    // (of P0..P11) per text, never repeating a (session, text) pair.
    std::set<std::string> seen;
    const auto& templates = FixpointTemplates();
    while (w->texts.size() < 8000) {
      const std::size_t i = w->texts.size();
      const std::size_t s = i % w->sessions.size();
      const std::string text =
          Fill(templates[(i / w->sessions.size()) % templates.size()],
               DistinctLabels(3, 12, pool_rng));
      if (!seen.insert(w->sessions[s].name + " " + text).second) continue;
      w->texts.push_back(text);
      w->text_session.push_back(s);
    }
    // Warm-up: the first four pool texts (process start-up, page faults);
    // the measured stream continues after them.
    for (std::size_t t = 0; t < 4; ++t) {
      w->warmup.push_back({Op::kEval, w->text_session[t], t, 0, 0});
    }
    w->next_text = 4;
  } else {
    return false;
  }
  w->state.assign(w->sessions.size(), {});
  for (std::size_t s = 0; s < w->sessions.size(); ++s) {
    w->state[s].assign(w->sessions[s].replaceable.size(), 0);
  }
  return true;
}

Op Workload::NextOp() {
  Op op;
  if (!text_session.empty()) {
    op.text = next_text;
    op.session = text_session[next_text];
    next_text = (next_text + 1) % texts.size();
    return op;
  }
  if (write_share > 0.0 && op_rng.Unit() < write_share) {
    op.kind = Op::kWrite;
    op.session = op_rng.Below(sessions.size());
    op.rel = op_rng.Below(sessions[op.session].replaceable.size());
    op.variant = 1 - state[op.session][op.rel];
    state[op.session][op.rel] = op.variant;
    return op;
  }
  op.session = op_rng.Below(sessions.size());
  const double u = op_rng.Unit();
  const std::size_t rank =
      std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) - zipf_cdf.begin();
  op.text = std::min(rank, texts.size() - 1);
  return op;
}

bool WriteInputs(Workload& w, const std::string& dir, std::string* error) {
  auto write = [&](const std::string& path, const std::string& body) {
    std::ofstream out(path, std::ios::binary);
    out << body;
    out.close();
    if (!out) *error = "cannot write " + path;
    return static_cast<bool>(out);
  };
  std::string writes;
  for (auto& s : w.sessions) {
    s.db_path = dir + "/" + s.name + ".bvq";
    if (!write(s.db_path, s.db_text)) return false;
    for (std::size_t r = 0; r < s.replaceable.size(); ++r) {
      for (std::size_t v = 0; v < s.replaceable[r].variants.size(); ++v) {
        writes += WriteLine(s, r, v) + "\n";
      }
    }
  }
  std::string queries;
  for (std::size_t t = 0; t < w.texts.size(); ++t) {
    if (!w.text_session.empty()) {
      queries += w.sessions[w.text_session[t]].name + " ";
    }
    queries += w.texts[t] + "\n";
  }
  return write(dir + "/queries.txt", queries) &&
         write(dir + "/writes.txt", writes);
}

std::vector<std::string> RelationsOf(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < text.size();) {
    if (!std::isalpha(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && std::isalnum(static_cast<unsigned char>(text[j]))) {
      ++j;
    }
    if (j < text.size() && text[j] == '(') {
      const std::string name = text.substr(i, j - i);
      if (std::find(out.begin(), out.end(), name) == out.end()) {
        out.push_back(name);
      }
    }
    i = j;
  }
  return out;
}

}  // namespace perfbench
