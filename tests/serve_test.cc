// The serving layer: FIFO admission control (budget, cap, queue, cancel),
// session lifecycle and governor pooling, and the Server end-to-end — the
// load-bearing properties being that a served answer is byte-identical to a
// direct evaluator run, that an over-budget admission is rejected while
// running queries finish unaffected, and that a remote cancel lands
// mid-fixpoint as a sticky Cancelled with partial resource stats.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "common/strings.h"
#include "db/database.h"
#include "db/generators.h"
#include "eval/bounded_eval.h"
#include "logic/parser.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "serve/session.h"

#include <unistd.h>

namespace bvq::serve {
namespace {

using std::chrono::milliseconds;

constexpr char kTcQuery[] =
    "(x1,x2) [lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & "
    "exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)";

// PFP binary counter over a strict order: the orbit has length 2^n, so with
// n = 18 the fixpoint runs for ~260k stages — plenty of time to cancel it.
constexpr char kCounterQuery[] =
    "(x1) [pfp X(x1) . !(X(x1) <-> forall x2 . (Lt(x2,x1) -> X(x2)))](x1)";

Database CycleDb(std::size_t n) {
  Database db(n);
  EXPECT_TRUE(db.AddRelation("E", CycleGraph(n)).ok());
  return db;
}

Database CounterDb(std::size_t n) {
  Database db(n);
  RelationBuilder lt(2);
  for (Value i = 0; i < static_cast<Value>(n); ++i) {
    for (Value j = i + 1; j < static_cast<Value>(n); ++j) lt.Add(Tuple{i, j});
  }
  EXPECT_TRUE(db.AddRelation("Lt", lt.Build()).ok());
  return db;
}

// Spins until `pred` holds or ~5 s pass; returns whether it held.
template <typename Pred>
bool WaitFor(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return pred();
}

// --- AdmissionController ---------------------------------------------------------

TEST(AdmissionTest, UnlimitedControllerOnlyCounts) {
  AdmissionController ctl;
  auto t1 = ctl.Admit(1 << 20);
  auto t2 = ctl.Admit(1 << 20);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  const AdmissionStats s = ctl.stats();
  EXPECT_EQ(s.active_queries, 2u);
  EXPECT_EQ(s.reserved_bytes, std::size_t{2} << 20);
  EXPECT_EQ(s.admitted_total, 2u);
  EXPECT_EQ(s.rejected_total, 0u);
  t1->Release();
  t2->Release();
  EXPECT_EQ(ctl.stats().reserved_bytes, 0u);
  EXPECT_EQ(ctl.stats().active_queries, 0u);
}

TEST(AdmissionTest, SpentAggregateBudgetRejectsWhenQueueingIsOff) {
  AdmissionOptions opts;
  opts.aggregate_mem_budget_bytes = 100;
  AdmissionController ctl(opts);

  auto held = ctl.Admit(60);
  ASSERT_TRUE(held.ok());
  auto rejected = ctl.Admit(60);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  // The running admission is unaffected by the rejection.
  EXPECT_TRUE(held->valid());
  EXPECT_EQ(ctl.stats().active_queries, 1u);
  EXPECT_EQ(ctl.stats().reserved_bytes, 60u);
  EXPECT_EQ(ctl.stats().rejected_total, 1u);

  held->Release();
  auto now_fits = ctl.Admit(60);
  EXPECT_TRUE(now_fits.ok());
}

TEST(AdmissionTest, OversizeRequestRejectedImmediatelyDespiteQueue) {
  AdmissionOptions opts;
  opts.aggregate_mem_budget_bytes = 100;
  opts.queue_wait_ms = 10'000;
  AdmissionController ctl(opts);
  const auto start = std::chrono::steady_clock::now();
  auto rejected = ctl.Admit(200);  // can never fit: larger than the whole pot
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_LT(elapsed, milliseconds(1000));  // no pointless queue wait
  EXPECT_EQ(ctl.stats().queued_total, 0u);
}

TEST(AdmissionTest, QueuedRequestAdmittedWhenBudgetIsReleased) {
  AdmissionOptions opts;
  opts.aggregate_mem_budget_bytes = 100;
  opts.queue_wait_ms = 10'000;
  AdmissionController ctl(opts);

  auto held = ctl.Admit(80);
  ASSERT_TRUE(held.ok());
  auto waiting = std::async(std::launch::async, [&] { return ctl.Admit(80); });
  ASSERT_TRUE(WaitFor([&] { return ctl.stats().queue_length == 1; }));

  held->Release();
  auto admitted = waiting.get();
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_GT(admitted->queue_wait_ms(), 0.0);
  EXPECT_EQ(ctl.stats().queued_total, 1u);
  EXPECT_EQ(ctl.stats().reserved_bytes, 80u);
}

TEST(AdmissionTest, ConcurrencyCapQueuesThenAdmits) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_wait_ms = 10'000;
  AdmissionController ctl(opts);

  auto held = ctl.Admit(0);
  ASSERT_TRUE(held.ok());
  auto waiting = std::async(std::launch::async, [&] { return ctl.Admit(0); });
  ASSERT_TRUE(WaitFor([&] { return ctl.stats().queue_length == 1; }));
  held->Release();
  EXPECT_TRUE(waiting.get().ok());
}

TEST(AdmissionTest, QueueTimeoutRejects) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_wait_ms = 50;
  AdmissionController ctl(opts);
  auto held = ctl.Admit(0);
  ASSERT_TRUE(held.ok());
  auto timed_out = ctl.Admit(0);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kResourceExhausted);
}

TEST(AdmissionTest, QueueLengthCapRejectsExtraWaiters) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_wait_ms = 10'000;
  opts.max_queue_length = 1;
  AdmissionController ctl(opts);
  auto held = ctl.Admit(0);
  ASSERT_TRUE(held.ok());
  auto waiting = std::async(std::launch::async, [&] { return ctl.Admit(0); });
  ASSERT_TRUE(WaitFor([&] { return ctl.stats().queue_length == 1; }));
  auto overflow = ctl.Admit(0);  // queue is full
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  held->Release();
  EXPECT_TRUE(waiting.get().ok());
}

TEST(AdmissionTest, CancelFlagAbandonsQueuedWait) {
  AdmissionOptions opts;
  opts.max_concurrent_queries = 1;
  opts.queue_wait_ms = 10'000;
  AdmissionController ctl(opts);
  auto held = ctl.Admit(0);
  ASSERT_TRUE(held.ok());

  std::atomic<bool> cancel{false};
  auto waiting = std::async(std::launch::async,
                            [&] { return ctl.Admit(0, &cancel); });
  ASSERT_TRUE(WaitFor([&] { return ctl.stats().queue_length == 1; }));
  cancel.store(true);
  auto cancelled = waiting.get();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(ctl.stats().cancelled_total, 1u);
  // The holder is untouched and the queue is empty again.
  EXPECT_TRUE(held->valid());
  EXPECT_EQ(ctl.stats().queue_length, 0u);
}

// --- Session / SessionManager ----------------------------------------------------

TEST(SessionManagerTest, OpenGetCloseLifecycle) {
  SessionManager mgr;
  auto opened = mgr.Open("a", Database(4), SessionOptions{});
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(mgr.size(), 1u);

  auto dup = mgr.Open("a", Database(4), SessionOptions{});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(mgr.Get("a").ok());
  EXPECT_EQ(mgr.Get("b").status().code(), StatusCode::kNotFound);

  EXPECT_TRUE(mgr.Close("a").ok());
  EXPECT_EQ(mgr.Get("a").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(mgr.Close("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(mgr.size(), 0u);
}

TEST(SessionTest, GovernorPoolReusesTokensAndLinksParent) {
  Session session("s", Database(4), SessionOptions{});
  auto g1 = session.AcquireGovernor();
  ASSERT_NE(g1, nullptr);
  EXPECT_EQ(g1->parent(), &session.governor());
  session.ReleaseGovernor(std::move(g1));

  auto g2 = session.AcquireGovernor();
  const Session::PoolStats stats = session.pool_stats();
  EXPECT_EQ(stats.created, 1u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.free, 0u);
  // Reuse re-arms the token: a trip from a previous query must not leak in.
  g2->Cancel("old query");
  session.ReleaseGovernor(std::move(g2));
  auto g3 = session.AcquireGovernor();
  EXPECT_TRUE(g3->Check().ok());
}

TEST(SessionTest, AdmissionReserveDerivation) {
  SessionOptions so;
  EXPECT_EQ(Session("a", Database(0), so).admission_reserve_bytes(),
            kDefaultAdmissionReserveBytes);

  so.session_limits.mem_budget_bytes = std::size_t{1} << 20;
  EXPECT_EQ(Session("b", Database(0), so).admission_reserve_bytes(),
            std::size_t{1} << 20);

  so.query_limits.mem_budget_bytes = std::size_t{2} << 20;
  EXPECT_EQ(Session("c", Database(0), so).admission_reserve_bytes(),
            std::size_t{2} << 20);

  so.admission_reserve_bytes = 12345;
  EXPECT_EQ(Session("d", Database(0), so).admission_reserve_bytes(), 12345u);
}

// --- Server end-to-end -----------------------------------------------------------

TEST(ServeTest, ServedResultIsByteIdenticalToDirectEvaluatorRun) {
  Database db = CycleDb(12);
  auto query = ParseQuery(kTcQuery);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  BoundedEvaluator direct(db, 3);
  auto expected = direct.EvaluateQuery(*query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const std::string want = FormatRelation(*expected, 20);

  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(12)).ok());
  const EvalOutcome out = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.payload, want);
  EXPECT_GT(out.eval_ms, 0.0);
}

TEST(ServeTest, EmptyDomainSessionEvaluatesToEmptyAnswer) {
  // An empty domain is legal: every query answer over it is the empty
  // relation (there is nothing to bind), never an error.
  Server server;
  ASSERT_TRUE(server.Open("empty", SessionOptions{}, Database(0)).ok());
  const EvalOutcome out = server.EvalSync("empty", "(x1) x1 = x1");
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_NE(out.payload.find("0 tuple(s)"), std::string::npos);
}

TEST(ServeTest, UnknownSessionFailsWithNotFound) {
  Server server;
  const EvalOutcome out = server.EvalSync("ghost", "(x1) x1 = x1");
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kNotFound);
}

TEST(ServeTest, OverBudgetAdmissionRejectedWhileRunningQueryCompletes) {
  ServeOptions so;
  so.admission.aggregate_mem_budget_bytes = std::size_t{64} << 20;
  Server server(so);

  SessionOptions big;
  big.admission_reserve_bytes = std::size_t{48} << 20;
  ASSERT_TRUE(server.Open("big", big, CycleDb(8)).ok());
  SessionOptions small;
  small.admission_reserve_bytes = std::size_t{48} << 20;
  ASSERT_TRUE(server.Open("small", small, CycleDb(4)).ok());

  // Pin the big session's query between admission (reserve held) and
  // evaluation by holding its db lock exclusively: the rejection below is
  // then guaranteed to land while the query is admitted and running.
  auto session = server.sessions().Get("big");
  ASSERT_TRUE(session.ok());
  std::promise<EvalOutcome> done;
  auto done_future = done.get_future();
  {
    std::unique_lock<std::shared_mutex> pin((*session)->db_mutex());
    auto id = server.EvalAsync("big", kTcQuery, [&](const EvalOutcome& o) {
      done.set_value(o);
    });
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(WaitFor(
        [&] { return server.admission().stats().active_queries >= 1; }));

    const EvalOutcome rejected = server.EvalSync("small", kTcQuery);
    ASSERT_FALSE(rejected.status.ok());
    EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  }

  // With the lock released the admitted query runs to a clean completion,
  // unaffected by the rejection next door.
  const EvalOutcome out = done_future.get();
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_FALSE(out.payload.empty());
  server.Drain();
  EXPECT_EQ(server.admission().stats().reserved_bytes, 0u);
  EXPECT_EQ(server.admission().stats().rejected_total, 1u);
}

TEST(ServeTest, RemoteCancelMidFixpointReturnsCancelledWithPartialStats) {
  Server server;
  SessionOptions so;
  so.num_vars = 2;
  ASSERT_TRUE(server.Open("long", so, CounterDb(18)).ok());

  std::promise<EvalOutcome> done;
  auto done_future = done.get_future();
  auto id = server.EvalAsync("long", kCounterQuery, [&](const EvalOutcome& o) {
    done.set_value(o);
  });
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  // Let the fixpoint actually start churning before pulling the plug.
  ASSERT_TRUE(WaitFor(
      [&] { return server.admission().stats().active_queries >= 1; }));
  std::this_thread::sleep_for(milliseconds(100));
  ASSERT_TRUE(server.Cancel(*id, "test disconnect").ok());

  const EvalOutcome out = done_future.get();
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kCancelled);
  // Partial stats: the evaluation did run and was stopped mid-flight, and
  // the composite token unwound cleanly.
  EXPECT_TRUE(out.resource.stopped);
  EXPECT_GT(out.resource.checks, 0u);
  EXPECT_EQ(out.resource.mem_current_bytes, 0u);

  // Once complete the id is gone: a second cancel is NotFound.
  server.Drain();
  EXPECT_EQ(server.Cancel(*id).code(), StatusCode::kNotFound);
  // The session-level account drained too.
  auto session = server.sessions().Get("long");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->governor().stats().mem_current_bytes, 0u);
  EXPECT_EQ((*session)->queries_failed.load(), 1u);
}

TEST(ServeTest, SessionDeadlineSurvivesZeroQueryOverlay) {
  // Serving-layer regression for composite tokens: per-query limits of all
  // zeros must not erase the session deadline (see ResourceGovernor).
  Server server;
  SessionOptions so;
  so.num_vars = 2;
  so.session_limits.deadline_ms = 1;
  so.query_limits = ResourceGovernor::Limits{};  // explicit 0-overlay
  ASSERT_TRUE(server.Open("dl", so, CounterDb(18)).ok());
  std::this_thread::sleep_for(milliseconds(10));

  const EvalOutcome out = server.EvalSync("dl", kCounterQuery);
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(ServeTest, CloseCancelsInFlightQueriesOnDetachedSession) {
  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(8)).ok());
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());

  std::promise<EvalOutcome> done;
  auto done_future = done.get_future();
  {
    std::unique_lock<std::shared_mutex> pin((*session)->db_mutex());
    auto id = server.EvalAsync("s", kTcQuery, [&](const EvalOutcome& o) {
      done.set_value(o);
    });
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(WaitFor(
        [&] { return server.admission().stats().active_queries >= 1; }));
    // Close while the query is pinned: the name goes away immediately, the
    // query finishes as Cancelled on the detached session object.
    ASSERT_TRUE(server.Close("s").ok());
    EXPECT_EQ(server.sessions().Get("s").status().code(),
              StatusCode::kNotFound);
  }
  const EvalOutcome out = done_future.get();
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kCancelled);
  server.Drain();
  EXPECT_EQ(server.admission().stats().reserved_bytes, 0u);
}

TEST(ServeTest, GovernorPoolRecyclesAcrossSequentialQueries) {
  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(6)).ok());
  for (int i = 0; i < 3; ++i) {
    const EvalOutcome out = server.EvalSync("s", "(x1,x2) E(x1,x2)");
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  }
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());
  const Session::PoolStats stats = (*session)->pool_stats();
  EXPECT_EQ(stats.created, 1u);
  EXPECT_EQ(stats.reused, 2u);
  EXPECT_EQ((*session)->queries_ok.load(), 3u);
}

TEST(ServeTest, PerQueryBudgetTripLeavesSessionAccountClean) {
  // Regression: a per-query budget trip used to skip the forward of the
  // tripping charge into the session governor while the unwind still
  // released it there, underflowing the session's live-byte account to
  // ~2^64 and permanently failing every later query of that session.
  Server server;
  SessionOptions so;
  so.session_limits.mem_budget_bytes = std::size_t{256} << 20;
  so.query_limits.mem_budget_bytes = 16;  // far below one n^3 cube
  ASSERT_TRUE(server.Open("tight", so, CycleDb(12)).ok());

  const EvalOutcome out = server.EvalSync("tight", kTcQuery);
  ASSERT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);

  auto session = server.sessions().Get("tight");
  ASSERT_TRUE(session.ok());
  // Exactly zero — not wrapped — and the session token itself never tripped.
  EXPECT_EQ((*session)->governor().stats().mem_current_bytes, 0u);
  EXPECT_FALSE((*session)->governor().stopped());
  EXPECT_TRUE((*session)->governor().Check().ok());
}

TEST(ServeTest, StaleCancelHandleCannotCancelReusedPooledToken) {
  // Regression: completion used to pool the per-query governor while the
  // CancelState's weak_ptr still pointed at it, so a CancelHandle held past
  // completion could trip the token after it had been Reset and re-acquired
  // by a later query, cancelling that unrelated query spuriously.
  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(6)).ok());
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());

  CancelHandle stale;
  std::promise<EvalOutcome> done1;
  auto first = done1.get_future();
  {
    std::unique_lock<std::shared_mutex> pin((*session)->db_mutex());
    auto id = server.EvalAsync("s", "(x1,x2) E(x1,x2)",
                               [&](const EvalOutcome& o) {
                                 done1.set_value(o);
                               });
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    // Wait for the query to acquire + bind its governor, then grab the
    // cancellation capability and hold it past completion.
    ASSERT_TRUE(WaitFor(
        [&] { return (*session)->pool_stats().created >= 1; }));
    auto handle = server.Handle(*id);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    stale = *handle;
  }
  ASSERT_TRUE(first.get().status.ok());
  server.Drain();  // the token is back in the pool now

  // Run a second query on the same session: it reuses the pooled token.
  // Fire the stale handle while that query is pinned mid-flight — it must
  // be a valid-but-harmless no-op, not a cancellation of query 2.
  std::promise<EvalOutcome> done2;
  auto second = done2.get_future();
  {
    std::unique_lock<std::shared_mutex> pin((*session)->db_mutex());
    auto id = server.EvalAsync("s", "(x1,x2) E(x1,x2)",
                               [&](const EvalOutcome& o) {
                                 done2.set_value(o);
                               });
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(WaitFor(
        [&] { return (*session)->pool_stats().reused >= 1; }));
    EXPECT_TRUE(stale.Cancel("far too late"));
  }
  const EvalOutcome out = second.get();
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ((*session)->queries_ok.load(), 2u);
}

// --- protocol surface ------------------------------------------------------------

// Collects protocol chunks in arrival order.
struct ChunkSink {
  std::mutex mutex;
  std::vector<std::string> chunks;
  Server::Emit Emit() {
    return [this](const std::string& chunk) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.push_back(chunk);
    };
  }
  std::string All() {
    std::lock_guard<std::mutex> lock(mutex);
    std::string all;
    for (const auto& chunk : chunks) all += chunk;
    return all;
  }
};

TEST(ServeProtocolTest, FullSessionConversation) {
  Server server;
  std::mutex mu;
  std::vector<std::string> chunks;
  auto emit = [&](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back(chunk);
  };

  server.HandleLine("# a comment line", emit);
  server.HandleLine("", emit);
  server.HandleLine("open s1 k=3 threads=2", emit);
  server.HandleLine("domain s1 4", emit);
  server.HandleLine("rel s1 E/2 0 1 ; 1 2 ; 2 3 ; 3 0 ;", emit);
  server.HandleLine("eval 7 s1 (x1,x2) E(x1,x2)", emit);
  server.Drain();
  server.HandleLine("stats s1", emit);
  // Error texts clients match on: an unknown cancel id, and an eval id
  // reused (here in another session) while its first query is in flight.
  server.HandleLine("cancel 424242", emit);
  ASSERT_TRUE(server.Open("slow", SessionOptions{}, CounterDb(18)).ok());
  server.HandleLine(StrCat("eval 8 slow ", kCounterQuery), emit);
  server.HandleLine("eval 8 s1 (x1,x2) E(x1,x2)", emit);
  server.HandleLine("cancel 8", emit);
  server.Drain();
  server.HandleLine("close slow", emit);
  server.HandleLine("close s1", emit);
  server.HandleLine("bogus command", emit);
  // Unknown verbs and unknown open options fail cleanly.
  server.HandleLine("batch s begin", emit);
  server.HandleLine("open t batch=0", emit);
  server.HandleLine("quit", emit);
  EXPECT_TRUE(server.closed());

  std::string all;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& chunk : chunks) all += chunk;
  }
  EXPECT_NE(all.find("ok open s1\n"), std::string::npos) << all;
  EXPECT_NE(all.find("ok domain s1 4\n"), std::string::npos) << all;
  EXPECT_NE(all.find("ok rel s1\n"), std::string::npos) << all;
  EXPECT_NE(all.find("ok eval 7\n"), std::string::npos) << all;
  EXPECT_NE(all.find("result 7 ok\n"), std::string::npos) << all;
  EXPECT_NE(all.find("4 tuple(s), arity 2"), std::string::npos) << all;
  EXPECT_NE(all.find("end 7\n"), std::string::npos) << all;
  // The submit ack always precedes the query's own result block.
  EXPECT_LT(all.find("ok eval 7\n"), all.find("result 7 ok\n")) << all;
  EXPECT_NE(all.find("stats session=s1 queries=1 ok=1 failed=0"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("err cancel 424242: NotFound: no in-flight query with "
                     "id 424242\n"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("err eval 8: InvalidArgument: query id 8 is already in "
                     "flight\n"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("ok cancel 8\n"), std::string::npos) << all;
  EXPECT_NE(all.find("result 8 error Cancelled\n"), std::string::npos) << all;
  EXPECT_LT(all.find("ok eval 8\n"), all.find("result 8 error")) << all;
  EXPECT_NE(all.find("ok close s1\n"), std::string::npos) << all;
  EXPECT_NE(all.find("err unknown command \"bogus\"; try help"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("err unknown command \"batch\"; try help\n"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("err open t: unknown option batch=0\n"),
            std::string::npos)
      << all;
  EXPECT_NE(all.find("ok quit\n"), std::string::npos) << all;

  // After the close, the aggregate stats report no sessions and no bytes.
  std::vector<std::string> after;
  server.HandleLine("stats", [&](const std::string& chunk) {
    after.push_back(chunk);
  });
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0].find("stats sessions=0"), std::string::npos) << after[0];
  EXPECT_NE(after[0].find("reserved_bytes=0"), std::string::npos) << after[0];
}

TEST(ServeProtocolTest, HelpListsEveryProtocolCommand) {
  Server server;
  ChunkSink sink;
  server.HandleLine("help", sink.Emit());
  const std::string all = sink.All();
  EXPECT_EQ(all.rfind("ok help\n", 0), 0u) << all;
  for (const char* cmd :
       {"open ", "domain ", "rel ", "load ", "eval ", "cancel ", "close ",
        "cache ", "stats ", "drain", "help", "quit"}) {
    EXPECT_NE(all.find(StrCat("\n  ", cmd)), std::string::npos) << cmd;
  }
  // Unknown commands point at it and echo the offending token.
  server.HandleLine("frobnicate now", sink.Emit());
  EXPECT_NE(sink.All().find("err unknown command \"frobnicate\"; try help\n"),
            std::string::npos)
      << sink.All();
}

// --- cross-query answer cache through the server ---------------------------

TEST(ServeCacheTest, WarmHitIsByteIdenticalAndCounted) {
  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(6)).ok());

  const EvalOutcome cold = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.eval_stats.cache_hits, 0u);
  EXPECT_GT(cold.eval_stats.cache_misses, 0u);

  const EvalOutcome warm = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_GT(warm.eval_stats.cache_hits, 0u);
  EXPECT_EQ(warm.payload, cold.payload);

  // Cache off reproduces the same bytes (the seed evaluation path).
  SessionOptions no_cache;
  no_cache.cross_query_cache = false;
  ASSERT_TRUE(server.Open("ref", no_cache, CycleDb(6)).ok());
  const EvalOutcome ref = server.EvalSync("ref", kTcQuery);
  ASSERT_TRUE(ref.status.ok());
  EXPECT_EQ(ref.eval_stats.cache_hits, 0u);
  EXPECT_EQ(ref.eval_stats.cache_misses, 0u);
  EXPECT_EQ(ref.payload, cold.payload);
}

TEST(ServeCacheTest, LoadInvalidatesByVersionWithoutFlushing) {
  Server server;
  std::vector<std::string> chunks;
  std::mutex mu;
  auto emit = [&](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back(chunk);
  };
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(6)).ok());
  const EvalOutcome before = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(before.status.ok());
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());
  const auto resident = (*session)->cache()->stats().entries;
  EXPECT_GT(resident, 0u);

  // Reload the database mid-session: a path instead of a cycle. Entries
  // stay resident (no flush) but every key carries a dead version.
  Database path(6);
  ASSERT_TRUE(path.AddRelation("E", PathGraph(6)).ok());
  const std::string file = ::testing::TempDir() + "/bvq_cache_load.db";
  {
    std::ofstream out(file);
    ASSERT_TRUE(out.good());
    out << path.ToString();
  }
  server.HandleLine("load s " + file, emit);
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], "ok load s\n") << chunks[0];
  }
  EXPECT_EQ((*session)->cache()->stats().entries, resident);

  // Stale E-dependent keys never match the reloaded relation's version, so
  // the fixpoint recomputes (misses); only relation-free subtrees (the
  // x1 = x3 equality) may still hit — their answers depend on the domain
  // alone, which the load preserved.
  const EvalOutcome after = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(after.status.ok());
  EXPECT_GT(after.eval_stats.cache_misses, 0u);
  EXPECT_NE(after.payload, before.payload);

  // The served answer matches a direct evaluator run on the new database.
  auto query = ParseQuery(kTcQuery);
  ASSERT_TRUE(query.ok());
  BoundedEvaluator direct(path, 3);
  auto expected = direct.EvaluateQuery(*query);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(after.payload, FormatRelation(*expected, 20));
}

TEST(ServeCacheTest, ProtocolCacheCommandAndStatsCounters) {
  Server server;
  std::vector<std::string> chunks;
  std::mutex mu;
  auto emit = [&](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back(chunk);
  };
  server.HandleLine("open s k=3 cache=1 cache-mb=8", emit);
  server.HandleLine("domain s 6", emit);
  server.HandleLine("rel s E/2 0 1 ; 1 2 ; 2 3 ; 3 4 ; 4 5 ; 5 0 ;", emit);
  server.HandleLine("eval 1 s " + std::string(kTcQuery), emit);
  server.HandleLine("drain", emit);
  server.HandleLine("eval 2 s " + std::string(kTcQuery), emit);
  server.HandleLine("drain", emit);
  server.HandleLine("stats s", emit);
  server.HandleLine("cache s off", emit);
  server.HandleLine("cache s clear", emit);
  server.HandleLine("cache s on", emit);
  server.HandleLine("cache s sideways", emit);
  server.HandleLine("cache nowhere on", emit);
  server.HandleLine("cache", emit);

  std::string all;
  {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& chunk : chunks) all += chunk;
  }
  EXPECT_NE(all.find("ok open s\n"), std::string::npos) << all;
  EXPECT_NE(all.find("result 1 ok\n"), std::string::npos) << all;
  EXPECT_NE(all.find("result 2 ok\n"), std::string::npos) << all;
  // The per-session stats line reports the evaluator and cache counters:
  // the replayed query was served from the cross-query cache.
  EXPECT_NE(all.find(" memo_hits="), std::string::npos) << all;
  EXPECT_NE(all.find(" memo_misses="), std::string::npos) << all;
  EXPECT_NE(all.find(" cache=1 "), std::string::npos) << all;
  EXPECT_EQ(all.find(" cache_hits=0 "), std::string::npos) << all;
  EXPECT_NE(all.find(" cache_entries="), std::string::npos) << all;
  EXPECT_NE(all.find("ok cache s off\n"), std::string::npos) << all;
  EXPECT_NE(all.find("ok cache s clear\n"), std::string::npos) << all;
  EXPECT_NE(all.find("ok cache s on\n"), std::string::npos) << all;
  EXPECT_NE(all.find("err cache s: expected on|off|clear"), std::string::npos)
      << all;
  EXPECT_NE(all.find("err cache nowhere:"), std::string::npos) << all;
  EXPECT_NE(all.find("err cache: expected <session> on|off|clear"),
            std::string::npos)
      << all;

  // After `cache s clear` + `cache s on`, the cache is empty but live.
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE((*session)->cache_enabled());
  EXPECT_EQ((*session)->cache()->stats().entries, 0u);
}

TEST(ServeCacheTest, CacheOffSessionNeverTouchesCache) {
  Server server;
  SessionOptions options;
  options.cross_query_cache = false;
  ASSERT_TRUE(server.Open("s", options, CycleDb(6)).ok());
  const EvalOutcome a = server.EvalSync("s", kTcQuery);
  const EvalOutcome b = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.payload, b.payload);
  auto session = server.sessions().Get("s");
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->cache()->stats().entries, 0u);
  EXPECT_EQ((*session)->cache_hits.load(), 0u);
  EXPECT_EQ((*session)->cache_misses.load(), 0u);

  // Flipping the switch mid-session starts populating the same cache.
  (*session)->set_cache_enabled(true);
  const EvalOutcome c = server.EvalSync("s", kTcQuery);
  ASSERT_TRUE(c.status.ok());
  EXPECT_EQ(c.payload, a.payload);
  EXPECT_GT((*session)->cache()->stats().entries, 0u);
}

TEST(ServeProtocolTest, StrictNumericParsingRejectsGarbage) {
  Server server;
  std::vector<std::string> chunks;
  auto emit = [&](const std::string& chunk) { chunks.push_back(chunk); };
  server.HandleLine("open s1 k=abc", emit);
  server.HandleLine("open s2 k=", emit);
  server.HandleLine("open s3 bogus", emit);
  server.HandleLine("domain nowhere 4", emit);
  server.HandleLine("eval xyz s1 (x1) x1 = x1", emit);
  server.HandleLine("cancel 1x", emit);
  for (const auto& chunk : chunks) {
    EXPECT_EQ(chunk.rfind("err ", 0), 0u) << chunk;
  }
  EXPECT_EQ(chunks.size(), 6u);
  EXPECT_EQ(server.sessions().size(), 0u);
}

TEST(ServeCacheTest, CacheDirPrewarmsARestartedServer) {
  // Two Server instances sharing a cache dir stand in for a process
  // restart: the second serves its first query with cache hits and a
  // byte-identical result block.
  char tmpl[] = "/tmp/bvq_cachedir_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  ServeOptions options;
  options.cache_dir = tmpl;

  const std::vector<std::string> setup = {
      "domain s 6",
      "rel s E/2 0 1 ; 1 2 ; 2 3 ; 3 4 ; 4 5 ; 5 0 ;",
      StrCat("eval 1 s ", kTcQuery),
      "drain",
  };
  auto run = [&](std::vector<std::string>* chunks_out,
                 const std::string& open = "open s k=3") {
    Server server(options);
    std::mutex mu;
    auto emit = [&](const std::string& chunk) {
      std::lock_guard<std::mutex> lock(mu);
      chunks_out->push_back(chunk);
    };
    server.HandleLine(open, emit);
    for (const std::string& line : setup) server.HandleLine(line, emit);
    server.HandleLine("stats s", emit);
    server.HandleLine("quit", emit);  // snapshots every session
  };

  std::vector<std::string> first, second;
  run(&first);
  ASSERT_TRUE(std::ifstream(StrCat(tmpl, "/s.bvqcache")).good());
  run(&second);

  auto block = [](const std::vector<std::string>& chunks) {
    for (const std::string& c : chunks) {
      if (c.rfind("result 1 ", 0) == 0) return c;
    }
    return std::string();
  };
  auto stats = [](const std::vector<std::string>& chunks) {
    for (const std::string& c : chunks) {
      if (c.rfind("stats session=s ", 0) == 0) return c;
    }
    return std::string();
  };
  ASSERT_FALSE(block(first).empty());
  EXPECT_EQ(block(second), block(first));  // byte-identical across restart
  // The restart's very first batch was served warm from the snapshot.
  EXPECT_EQ(stats(second).find(" cache_hits=0 "), std::string::npos)
      << stats(second);
  EXPECT_EQ(stats(second).find(" cache_restored=0 "), std::string::npos)
      << stats(second);
  EXPECT_NE(stats(first).find(" cache_restored=0 "), std::string::npos)
      << stats(first);

  // A memo=0 session never probes its cache: it restores nothing, holds no
  // cache bytes, and leaves the snapshot for the next memo run to prewarm.
  std::vector<std::string> no_memo, after_no_memo;
  run(&no_memo, "open s k=3 memo=0");
  EXPECT_EQ(block(no_memo), block(first));
  EXPECT_NE(stats(no_memo).find(" live_bytes=0 "), std::string::npos)
      << stats(no_memo);
  EXPECT_NE(stats(no_memo).find(" cache=0 "), std::string::npos)
      << stats(no_memo);
  EXPECT_NE(stats(no_memo).find(" cache_bytes=0 cache_entries=0 "
                                "cache_restored=0 "),
            std::string::npos)
      << stats(no_memo);
  run(&after_no_memo);
  EXPECT_EQ(stats(after_no_memo).find(" cache_hits=0 "), std::string::npos)
      << stats(after_no_memo);

  // A corrupted snapshot degrades the next restart to a cold start: same
  // bytes out, no hits, no protocol error.
  {
    std::fstream f(StrCat(tmpl, "/s.bvqcache"),
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(30);
    char b = 0;
    f.seekg(30);
    f.get(b);
    f.seekp(30);
    f.put(static_cast<char>(b ^ 0x40));
  }
  std::vector<std::string> third;
  run(&third);
  EXPECT_EQ(block(third), block(first));
  EXPECT_NE(stats(third).find(" cache_hits=0 "), std::string::npos)
      << stats(third);
}

TEST(ServeCacheTest, ProtocolCacheSaveRestoreCommands) {
  const std::string file = ::testing::TempDir() + "/bvq_proto_cache.bvqcache";
  std::remove(file.c_str());

  std::vector<std::string> chunks;
  std::mutex mu;
  auto emit = [&](const std::string& chunk) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back(chunk);
  };
  auto all = [&] {
    std::lock_guard<std::mutex> lock(mu);
    std::string joined;
    for (const auto& c : chunks) joined += c;
    return joined;
  };

  std::string first_block;
  {
    Server a;  // no cache_dir: only the explicit commands move snapshots
    a.HandleLine("open s k=3", emit);
    a.HandleLine("domain s 6", emit);
    a.HandleLine("rel s E/2 0 1 ; 1 2 ; 2 3 ; 3 4 ; 4 5 ; 5 0 ;", emit);
    a.HandleLine(StrCat("eval 1 s ", kTcQuery), emit);
    a.HandleLine("drain", emit);
    a.HandleLine(StrCat("cache s save ", file), emit);
    EXPECT_NE(all().find("ok cache s save\n"), std::string::npos) << all();
    a.HandleLine("cache s save", emit);  // missing path
    EXPECT_NE(all().find("err cache s: save needs a file"), std::string::npos)
        << all();
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& c : chunks) {
      if (c.rfind("result 1 ", 0) == 0) first_block = c;
    }
    ASSERT_FALSE(first_block.empty());
    chunks.clear();
  }

  Server b;
  b.HandleLine("open s k=3", emit);
  b.HandleLine("domain s 6", emit);
  b.HandleLine("rel s E/2 0 1 ; 1 2 ; 2 3 ; 3 4 ; 4 5 ; 5 0 ;", emit);
  b.HandleLine(StrCat("cache s restore ", file), emit);
  EXPECT_NE(all().find("ok cache s restore\n"), std::string::npos) << all();
  b.HandleLine(StrCat("eval 1 s ", kTcQuery), emit);
  b.HandleLine("drain", emit);
  b.HandleLine("stats s", emit);
  const std::string joined = all();
  EXPECT_NE(joined.find(first_block), std::string::npos) << joined;
  EXPECT_EQ(joined.find(" cache_hits=0 "), std::string::npos) << joined;

  // Restoring garbage is an err line, never a crash, and the session keeps
  // serving correct answers.
  const std::string garbage = ::testing::TempDir() + "/bvq_garbage.bvqcache";
  {
    std::ofstream out(garbage, std::ios::binary);
    out << "not a snapshot";
  }
  b.HandleLine(StrCat("cache s restore ", garbage), emit);
  EXPECT_NE(all().find("err cache s restore:"), std::string::npos) << all();
  b.HandleLine(StrCat("eval 2 s ", kTcQuery), emit);
  b.HandleLine("drain", emit);
  // Same payload bytes under the new id: swap the frame lines of block 1.
  std::string expected_block2 =
      "result 2 " + first_block.substr(std::string("result 1 ").size());
  const std::string old_tail = "end 1\n";
  ASSERT_GE(expected_block2.size(), old_tail.size());
  expected_block2.replace(expected_block2.size() - old_tail.size(),
                          old_tail.size(), "end 2\n");
  EXPECT_NE(all().find(expected_block2), std::string::npos) << all();
  std::remove(file.c_str());
  std::remove(garbage.c_str());
}

// --- cache clear racing a running eval -------------------------------------

TEST(ServeCacheTest, ClearRacingARunningEvalIsSafeAndByteIdentical) {
  // `cache <s> clear` drops resident entries while queries are mid-flight;
  // the contract is memory reclamation with zero semantic effect. Hammer
  // clear against a stream of cache-warmed evals and hold the results to
  // the cache-off bytes. (The interesting failure modes — a clear between
  // a probe and an insert, a clear between two subtree probes of one
  // evaluation — are what TSan watches here.)
  Server server;
  ASSERT_TRUE(server.Open("s", SessionOptions{}, CycleDb(10)).ok());
  SessionOptions no_cache;
  no_cache.cross_query_cache = false;
  ASSERT_TRUE(server.Open("ref", no_cache, CycleDb(10)).ok());
  const std::string want = server.EvalSync("ref", kTcQuery).payload;
  ASSERT_FALSE(want.empty());

  std::atomic<bool> stop{false};
  ChunkSink sink;
  std::thread clearer([&] {
    const auto emit = sink.Emit();
    while (!stop.load(std::memory_order_acquire)) {
      server.HandleLine("cache s clear", emit);
    }
  });
  for (int i = 0; i < 20; ++i) {
    const EvalOutcome out = server.EvalSync("s", kTcQuery);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_EQ(out.payload, want) << i;
  }
  stop.store(true, std::memory_order_release);
  clearer.join();
  EXPECT_NE(sink.All().find("ok cache s clear\n"), std::string::npos);
}

}  // namespace
}  // namespace bvq::serve
