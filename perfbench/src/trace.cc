#include "trace.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <shared_mutex>

#include "client.h"
#include "common/thread_pool.h"
#include "db/assignment_set.h"
#include "db/database.h"
#include "eval/bounded_eval.h"
#include "logic/analysis.h"
#include "logic/parser.h"
#include "serve/server.h"

namespace perfbench {

namespace {

// Operations replayed after the warm-up, per workload: a fixed count, so
// that on eval_fixpoint (one eval in flight, no writes) the evaluator's
// counts repeat exactly from run to run.
std::size_t ReplayOps(const Workload& w) {
  if (w.name == "serve_hot") return 3000;
  if (w.name == "serve_churn") return 1500;
  return 48;
}

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  long parent = -1;  // index into the span list; -1 for a root
  std::uint64_t request = 0;
  double us() const { return end_us - start_us; }
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  // Microseconds since the tracer was made; 0 with spans off, so the
  // untraced replay takes no timestamps at all.
  double Now() const {
    return on_ ? MsSince(origin_, Clock::now()) * 1000.0 : 0.0;
  }
  long Add(std::string name, double start, double end, long parent,
           std::uint64_t request) {
    if (!on_) return -1;
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<long>(spans_.size() - 1);
  }

  // Self time of every span: its duration minus its children's.
  std::map<std::string, std::vector<double>> SelfTimes() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const auto& s : spans_) {
      if (s.parent >= 0) child_us[s.parent] += s.us();
    }
    std::map<std::string, std::vector<double>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name].push_back(spans_[i].us() - child_us[i]);
    }
    return out;
  }

  void Write(const std::string& path, const std::string& pass) const {
    std::ofstream out(path, std::ios::app);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"pass\":\"" << pass << "\",\"span\":" << i << ",\"name\":\""
          << s.name << "\",\"start_us\":" << s.start_us
          << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << "}\n";
    }
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct Completion {
  Op op;
  bool warmup = false;
  double start_us = 0.0, end_us = 0.0;
  std::size_t first = 0, last = 0;
  bvq::serve::EvalOutcome outcome;
};

struct Replay {
  std::vector<Completion> evals;
  double measured_wall_ms = 0.0;  // from the first post-warm-up op to the end
  std::string stats_lines;
  std::size_t cache_bytes = 0;
  std::size_t attempted = 0, failed = 0;
};

std::vector<bvq::Database> ParseAll(const Workload& w) {
  std::vector<bvq::Database> out;
  for (const auto& s : w.sessions) {
    auto db = bvq::ParseDatabase(s.db_text);
    out.push_back(db.ok() ? std::move(*db) : bvq::Database(0));
  }
  return out;
}

// Replays `w` (a fresh copy, so the op stream starts over) against an
// in-process Server with default options, `in_flight` operations at a time,
// through Open / HandleLine (rel) / EvalAsync.
Replay RunReplay(Workload w, Tracer* tracer, Observations* obs) {
  Replay r;
  bvq::serve::Server server;
  const auto dbs = ParseAll(w);
  for (std::size_t s = 0; s < w.sessions.size(); ++s) {
    (void)server.Open(w.sessions[s].name, bvq::serve::SessionOptions(), dbs[s]);
  }
  std::mutex mu;
  std::condition_variable cv;
  std::size_t in_flight = 0;
  const std::size_t total = w.warmup.size() + ReplayOps(w);
  r.evals.reserve(total);
  Clock::time_point measured_start;
  for (std::size_t i = 0; i < total; ++i) {
    const bool warm = i < w.warmup.size();
    if (i == w.warmup.size()) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight == 0; });
      measured_start = Clock::now();
    }
    const Op op = warm ? w.warmup[i] : w.NextOp();
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return in_flight < w.in_flight; });
    }
    ++r.attempted;
    const SessionSpec& s = w.sessions[op.session];
    if (op.kind == Op::kWrite) {
      {
        std::lock_guard<std::mutex> lock(mu);
        obs->RecordWrite(op.session, op.rel, op.variant);
      }
      std::string reply;
      const double start = tracer->Now();
      server.HandleLine(WriteLine(s, op.rel, op.variant),
                        [&](const std::string& chunk) { reply += chunk; });
      const double end = tracer->Now();
      if (reply.rfind("ok rel", 0) != 0) ++r.failed;
      tracer->Add("serve.write", start, end, -1, i);
      continue;
    }
    std::size_t slot;
    {
      std::lock_guard<std::mutex> lock(mu);
      slot = r.evals.size();
      r.evals.push_back({op, warm, tracer->Now(), 0.0, obs->version(op.session),
                         0, {}});
      ++in_flight;
    }
    auto submitted = server.EvalAsync(
        s.name, w.texts[op.text],
        [&, slot](const bvq::serve::EvalOutcome& o) {
          const double end = tracer->Now();
          std::lock_guard<std::mutex> lock(mu);
          Completion& c = r.evals[slot];
          c.end_us = end;
          c.last = obs->version(c.op.session);
          c.outcome = o;
          --in_flight;
          cv.notify_all();
        });
    if (!submitted.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      r.evals[slot].outcome.status = submitted.status();
      --in_flight;
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return in_flight == 0; });
  }
  r.measured_wall_ms = MsSince(measured_start, Clock::now());
  for (const auto& c : r.evals) {
    const bvq::serve::EvalOutcome& o = c.outcome;
    if (!o.status.ok()) {
      ++r.failed;
      std::printf("FAILED replay eval session=%s query=%s: %s\n",
                  w.sessions[c.op.session].name.c_str(),
                  w.texts[c.op.text].c_str(), o.status.ToString().c_str());
      continue;
    }
    obs->evals.push_back({o.id, c.op.session, c.op.text, c.first, c.last,
                          obs->Intern(o.payload)});
    if (c.warmup) continue;
    // Children placed from the outcome's durations: the admission wait at
    // the start of the request, the evaluation ending with it.
    const long root = tracer->Add("request", c.start_us, c.end_us, -1, o.id);
    const double wait_end = c.start_us + o.queue_wait_ms * 1000.0;
    tracer->Add("serve.admission_wait", c.start_us, wait_end, root, o.id);
    tracer->Add("eval.evaluate",
                std::max(wait_end, c.end_us - o.eval_ms * 1000.0), c.end_us,
                root, o.id);
  }
  for (const auto& s : w.sessions) {
    std::string line;
    server.HandleLine("stats " + s.name,
                      [&](const std::string& chunk) { line += chunk; });
    r.stats_lines += line;
    auto session = server.sessions().Get(s.name);
    if (session.ok()) r.cache_bytes += (*session)->cache()->stats().bytes;
  }
  return r;
}

struct LayerPass {
  std::map<std::string, std::vector<double>> self_us;  // by span name
  std::vector<double> formula_nodes;
  std::vector<double> setup_us;  // evaluator construct + destroy
};

// The sequential layer pass: the first evals of the stream (writes applied
// in order through HandleLine), each driven layer by layer through the
// public calls the server makes, against a fresh server's sessions warmed
// by the warm-up list.
LayerPass RunLayerPass(Workload w, std::size_t evals, Tracer* tracer,
                       Observations* obs) {
  LayerPass lp;
  bvq::serve::Server server;
  const auto dbs = ParseAll(w);
  for (std::size_t s = 0; s < w.sessions.size(); ++s) {
    (void)server.Open(w.sessions[s].name, bvq::serve::SessionOptions(), dbs[s]);
  }
  auto discard = [](const std::string&) {};
  for (const Op& op : w.warmup) {
    (void)server.EvalSync(w.sessions[op.session].name, w.texts[op.text]);
  }
  for (std::size_t done = 0; done < evals;) {
    const Op op = w.NextOp();
    const SessionSpec& spec = w.sessions[op.session];
    if (op.kind == Op::kWrite) {
      obs->RecordWrite(op.session, op.rel, op.variant);
      server.HandleLine(WriteLine(spec, op.rel, op.variant), discard);
      continue;
    }
    ++done;
    auto session = *server.sessions().Get(spec.name);
    const std::string& text = w.texts[op.text];
    const std::uint64_t id = done;
    const double t0 = tracer->Now();
    auto query = bvq::ParseQuery(text);
    const double t1 = tracer->Now();
    if (!query.ok()) {  // recorded as the payload, so the oracle fails it
      obs->evals.push_back({id, op.session, op.text, 0, 0,
                            obs->Intern(query.status().ToString())});
      continue;
    }
    bvq::FormulaIndex index(query->formula, session->cache()->interner());
    const double t2 = tracer->Now();
    auto ticket = std::make_unique<bvq::Result<bvq::serve::AdmissionTicket>>(
        server.admission().Admit(session->admission_reserve_bytes()));
    const double t2b = tracer->Now();
    auto governor = session->AcquireGovernor();
    const double t3 = tracer->Now();
    std::string payload;
    double t4, t5, t5b, t6, t7;
    {
      std::shared_lock<std::shared_mutex> lock(session->db_mutex());
      bvq::BoundedEvalOptions options = session->options().eval;
      options.governor = governor.get();
      options.answer_cache = session->cache();
      options.cross_query_cache = session->cache_enabled();
      const std::size_t k = std::max(session->options().num_vars,
                                     bvq::NumVariables(query->formula));
      auto eval = std::make_unique<bvq::BoundedEvaluator>(session->db(), k,
                                                          options);
      // EvaluateQuery split into its two public steps, so the projection
      // of the answer cube onto the answer tuple gets its own span.
      t4 = tracer->Now();
      auto cube = eval->Evaluate(query->formula);
      t5 = tracer->Now();
      bvq::Relation answer;
      if (cube.ok()) answer = cube->ToRelation(query->answer_vars);
      t5b = tracer->Now();
      if (cube.ok()) payload = bvq::serve::FormatRelation(answer);
      t6 = tracer->Now();
      eval.reset();
      t7 = tracer->Now();
    }
    session->ReleaseGovernor(std::move(governor));
    ticket.reset();  // releases the admission reservation
    const double t8 = tracer->Now();
    const long root = tracer->Add("layer.request", t0, t8, -1, id);
    tracer->Add("logic.parse", t0, t1, root, id);
    tracer->Add("logic.index", t1, t2, root, id);
    tracer->Add("serve.admission", t2, t2b, root, id);
    tracer->Add("serve.governor_acquire", t2b, t3, root, id);
    tracer->Add("eval.construct", t3, t4, root, id);
    tracer->Add("eval.evaluate", t4, t5, root, id);
    tracer->Add("db.to_relation", t5, t5b, root, id);
    tracer->Add("serve.format", t5b, t6, root, id);
    tracer->Add("eval.destroy", t6, t7, root, id);
    tracer->Add("serve.governor_release", t7, t8, root, id);
    lp.formula_nodes.push_back(static_cast<double>(query->formula->Size()));
    lp.setup_us.push_back((t4 - t3) + (t7 - t6));
    const std::size_t v = obs->version(op.session);
    obs->evals.push_back({id, op.session, op.text, v, v,
                          obs->Intern(std::move(payload))});
  }
  lp.self_us = tracer->SelfTimes();
  return lp;
}

// Fastest of `reps` calls of `fn`, in ns. The microbenchmarks do fixed
// work, so the fastest call is the one the host disturbed least.
template <typename Fn>
double FastestNs(std::size_t reps, Fn fn) {
  double best = INFINITY;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    best = std::min(best, MsSince(start, Clock::now()) * 1e6);
  }
  return best;
}

void KernelMetrics(std::vector<Metric>* out) {
  bvq::ThreadPool pool(bvq::ThreadPool::DefaultThreads());
  std::size_t sink = 0;  // printed, so the kernels' results stay live
  for (std::size_t n : {50, 64}) {
    // Half-full for exists and remap; 98% full for forall, so that about a
    // third of its lines survive and the sweep cannot stop early everywhere.
    bvq::AssignmentSet cube(n, 3), dense(n, 3);
    Prng rng(n);
    const double cells = static_cast<double>(n * n * n);
    for (std::size_t r = 0; r < n * n * n; ++r) {
      if (rng.Next() & 1) cube.Set(r);
      if (rng.Unit() < 0.98) dense.Set(r);
    }
    for (bool pooled : {false, true}) {
      bvq::ThreadPool* p = pooled ? &pool : nullptr;
      const std::string suffix =
          "_n" + std::to_string(n) + (pooled ? "_pool" : "_serial");
      out->push_back({"db.exists_ns_per_cell" + suffix,
                      FastestNs(31, [&] { sink += cube.ExistsVar(1, p).Count(); }) /
                          cells,
                      "ns"});
      out->push_back({"db.forall_ns_per_cell" + suffix,
                      FastestNs(31, [&] { sink += dense.ForAllVar(1, p).Count(); }) /
                          cells,
                      "ns"});
      out->push_back(
          {"db.remap_ns_per_cell" + suffix,
           FastestNs(31, [&] { sink += cube.Remap({0, 1}, {1, 2}, p).Count(); }) /
               cells,
           "ns"});
    }
  }
  std::printf("# kernel result bits: %zu\n", sink);
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

}  // namespace

TraceResult RunTrace(Workload& w, const TraceOptions& options,
                     Observations* obs) {
  TraceResult t;
  const Workload pristine = w;

  // 1. A short end-to-end pass: the e2e p50 that frontend.us_p50 is derived
  //    from, and the `rel` -> `ok rel` write acks (an idle probe of 32
  //    writes on workloads without writes).
  E2EOptions eopt;
  eopt.bvqserve = options.bvqserve;
  eopt.seconds = std::max(1.0, options.seconds / 4);
  eopt.setups = 1;
  eopt.write_probe = w.write_share == 0.0;
  w.rss_after_ops = 0;  // the pass reports no RSS
  E2EResult e2e = RunEndToEnd(w, eopt, obs);
  if (!e2e.ok) {
    t.error = e2e.error;
    return t;
  }

  // 2. The in-process replay, alternately with spans off and on (twice
  //    each, so slow drift of the host cancels); the difference in wall
  //    time over the same operations is the tracing overhead. The metrics
  //    and spans come from the last traced replay.
  std::vector<Observations> replay_obs(4, Observations(pristine));
  Tracer off1(false), on1(true), off2(false), on(true);
  const Replay r_off1 = RunReplay(pristine, &off1, &replay_obs[0]);
  const Replay r_on1 = RunReplay(pristine, &on1, &replay_obs[1]);
  const Replay r_off2 = RunReplay(pristine, &off2, &replay_obs[2]);
  const Replay r = RunReplay(pristine, &on, &replay_obs[3]);
  const double off_ms = r_off1.measured_wall_ms + r_off2.measured_wall_ms;
  const double on_ms = r_on1.measured_wall_ms + r.measured_wall_ms;

  // 3. The sequential layer pass and the kernel microbenchmarks.
  Tracer layer(true);
  Observations layer_obs(pristine);
  const std::size_t layer_evals = w.name == "eval_fixpoint" ? 48 : 1000;
  LayerPass lp = RunLayerPass(pristine, layer_evals, &layer, &layer_obs);

  std::remove(options.span_path.c_str());
  on.Write(options.span_path, "replay");
  layer.Write(options.span_path, "layer");

  t.attempted = e2e.attempted;
  t.failed = e2e.failed;
  for (const Replay* rp : {&r_off1, &r_on1, &r_off2, &r}) {
    t.attempted += rp->attempted;
    t.failed += rp->failed;
  }
  bool replay_correct = CheckOutputs(pristine, layer_obs, 4, false);
  for (const auto& o : replay_obs) {
    replay_correct = CheckOutputs(pristine, o, 4, false) && replay_correct;
  }
  if (!replay_correct) ++t.failed;

  // Aggregates over the measured (post-warm-up) evals of the traced replay.
  std::vector<double> request_us, self_us, wait_ms, eval_ms, peak_ratio;
  bvq::EvalStats sum;
  double checks = 0, charges = 0, evals = 0;
  for (const auto& c : r.evals) {
    if (c.warmup || !c.outcome.status.ok()) continue;
    const auto& o = c.outcome;
    const auto& e = o.eval_stats;
    ++evals;
    request_us.push_back(c.end_us - c.start_us);
    self_us.push_back(c.end_us - c.start_us - 1000.0 * (o.queue_wait_ms + o.eval_ms));
    wait_ms.push_back(o.queue_wait_ms);
    eval_ms.push_back(o.eval_ms);
    sum.node_evals += e.node_evals;
    sum.fixpoint_iterations += e.fixpoint_iterations;
    sum.memo_hits += e.memo_hits;
    sum.memo_misses += e.memo_misses;
    sum.invariant_hoists += e.invariant_hoists;
    sum.cache_hits += e.cache_hits;
    sum.cache_misses += e.cache_misses;
    sum.cache_evictions += e.cache_evictions;
    sum.parallel_loops += e.parallel_loops;
    sum.parallel_chunks += e.parallel_chunks;
    sum.chunks_stolen += e.chunks_stolen;
    sum.tuples_scanned += e.tuples_scanned;
    checks += static_cast<double>(o.resource.checks);
    charges += static_cast<double>(o.resource.charges);
    if (o.resource.mem_predicted_bytes > 0) {
      peak_ratio.push_back(static_cast<double>(o.resource.mem_peak_bytes) /
                           static_cast<double>(o.resource.mem_predicted_bytes));
    }
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto per = [&](std::size_t v) { return ratio(static_cast<double>(v), evals); };
  const auto pool_sums = SumStats(r.stats_lines);
  const double created = pool_sums.count("pool_created") ? pool_sums.at("pool_created") : 0;
  const double reused = pool_sums.count("pool_reused") ? pool_sums.at("pool_reused") : 0;
  const double request_p50 = Percentile(request_us, 50);
  // The e2e pass's first evals after its warm-up, as many as the replay
  // measured: the same operations of the same stream.
  std::vector<double> e2e_latency;
  for (const auto& sl : e2e.slices) {
    e2e_latency.insert(e2e_latency.end(), sl.latency_ms.begin(),
                       sl.latency_ms.end());
  }
  e2e_latency.resize(std::min(e2e_latency.size(), request_us.size()));
  const double e2e_p50_us = Median(e2e_latency) * 1000.0;
  // Over every eval of the replay, warm-up included: on serve_hot the
  // measured evals are cache hits that scan nothing.
  double all_eval_ms = 0.0, all_scanned = 0.0;
  for (const auto& c : r.evals) {
    all_eval_ms += c.outcome.eval_ms;
    all_scanned += static_cast<double>(c.outcome.eval_stats.tuples_scanned);
  }

  std::vector<double> load_ms;
  for (int rep = 0; rep < 2; ++rep) {
    for (const auto& s : pristine.sessions) {
      const auto start = Clock::now();
      auto db = bvq::ParseDatabase(s.db_text);
      load_ms.push_back(MsSince(start, Clock::now()));
    }
  }
  const double pool_spawn_us =
      FastestNs(101, [] { bvq::ThreadPool pool(bvq::ThreadPool::DefaultThreads()); }) /
      1000.0;

  auto& m = t.metrics;
  m = {
      {"serve.request_us_p50", request_p50, "us"},
      {"serve.request_self_us", Median(self_us), "us"},
      {"serve.admission_us", Median(lp.self_us["serve.admission"]), "us"},
      {"serve.format_us", Median(lp.self_us["serve.format"]), "us"},
      {"db.to_relation_us", Median(lp.self_us["db.to_relation"]), "us"},
      {"serve.governor_reuse_ratio", ratio(reused, created + reused), "ratio"},
      {"serve.write_ack_ms_p50", Median(e2e.write_ack_ms), "ms"},
      {"serve.write_ack_ms_tail", Percentile(e2e.write_ack_ms, 95), "ms"},
      {"frontend.us_p50", e2e_p50_us - request_p50, "us"},
      {"logic.parse_us", Median(lp.self_us["logic.parse"]), "us"},
      {"logic.index_us", Median(lp.self_us["logic.index"]), "us"},
      {"logic.formula_nodes", Mean(lp.formula_nodes), "count"},
      {"eval.setup_us", Median(lp.setup_us), "us"},
      {"eval.eval_ms_p50", Median(eval_ms), "ms"},
      {"eval.ns_per_cell", ratio(all_eval_ms * 1e6, all_scanned), "ns"},
      {"eval.node_evals", per(sum.node_evals), "count"},
      {"eval.fixpoint_iterations", per(sum.fixpoint_iterations), "count"},
      {"eval.memo_hit_ratio",
       ratio(sum.memo_hits, sum.memo_hits + sum.memo_misses), "ratio"},
      {"eval.invariant_hoists", per(sum.invariant_hoists), "count"},
      {"eval.cache_hit_ratio",
       ratio(sum.cache_hits, sum.cache_hits + sum.cache_misses), "ratio"},
      {"eval.cache_evictions", static_cast<double>(sum.cache_evictions), "count"},
      {"eval.cache_bytes", static_cast<double>(r.cache_bytes), "bytes"},
      {"common.pool_spawn_us", pool_spawn_us, "us"},
      {"common.parallel_loops", per(sum.parallel_loops), "count"},
      {"common.parallel_chunks", per(sum.parallel_chunks), "count"},
      {"common.chunks_stolen", per(sum.chunks_stolen), "count"},
      {"common.governor_checks", ratio(checks, evals), "count"},
      {"common.governor_charges", ratio(charges, evals), "count"},
      {"common.peak_over_predicted", Median(peak_ratio), "ratio"},
  };
  KernelMetrics(&m);
  m.push_back({"db.tuples_scanned", per(sum.tuples_scanned), "count"});
  m.push_back({"db.load_ms", Median(load_ms), "ms"});
  const double overhead_pct = 100.0 * ratio(on_ms - off_ms, off_ms);
  m.push_back({"trace.overhead_pct", overhead_pct, "%"});

  // The per-layer picture, for the reader.
  std::printf("# traced replay: %zu measured evals; two replays with spans "
              "on took %.1f ms, two with spans off %.1f ms: tracing overhead "
              "%.2f%%\n",
              static_cast<std::size_t>(evals), on_ms, off_ms, overhead_pct);
  std::printf("# admission queue wait (EvalOutcome.queue_wait_ms) over the "
              "replay's %zu measured evals: max %.3f ms, mean %.3f ms\n",
              wait_ms.size(),
              wait_ms.empty() ? 0.0
                              : *std::max_element(wait_ms.begin(), wait_ms.end()),
              Mean(wait_ms));
  const auto replay_self = on.SelfTimes();
  std::printf("# replay self time per request (mean us):\n");
  for (const auto& [name, v] : replay_self) {
    std::printf("#   %-26s %10.1f  (%zu spans)\n", name.c_str(), Mean(v),
                v.size());
  }
  std::printf("#   request self time is what the replay's spans do not "
              "cover: the executor hop, parse, admission, governor pooling, "
              "evaluator construction and destruction, format and "
              "completion inside Server::RunEval (split out by the layer "
              "pass below)\n");
  std::printf("# front end (derived across the two runs): e2e p50 %.1f us - "
              "replay request p50 %.1f us = %.1f us of pipe, protocol "
              "dispatch and emit\n",
              e2e_p50_us, request_p50, e2e_p50_us - request_p50);
  std::printf("# layer pass self time per request (mean us, %zu evals):\n",
              layer_evals);
  for (const auto& [name, v] : lp.self_us) {
    std::printf("#   %-26s %10.1f\n", name.c_str(), Mean(v));
  }
  std::printf("#   layer.request self time is the pass's own bookkeeping; "
              "eval.evaluate (BoundedEvaluator::Evaluate) includes a second "
              "FormulaIndex build; eval.evaluate + db.to_relation is "
              "EvaluateQuery\n");
  std::printf("# spans written to %s\n", options.span_path.c_str());
  t.ok = true;
  return t;
}

}  // namespace perfbench
