#ifndef BVQ_SERVE_SERVER_H_
#define BVQ_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "db/relation.h"
#include "eval/bounded_eval.h"
#include "serve/admission.h"
#include "serve/session.h"

namespace bvq::serve {

/// Renders a relation exactly as bvqsh prints one (header line, up to
/// `limit` tuples, overflow marker). The serving layer's payload format and
/// the shell's direct printout share this function, which is what makes
/// "served result == direct result" a byte-level statement.
std::string FormatRelation(const Relation& rel, std::size_t limit = 20);

/// The protocol `help` response: one chunk whose first line is `ok help`,
/// followed by one indented usage line per command. This is the protocol
/// grammar's one listing; docs and tools point here instead of copying it.
const std::string& ProtocolHelpText();

/// Server-wide configuration.
struct ServeOptions {
  AdmissionOptions admission;
  /// Worker lanes executing admitted queries. Each admitted query occupies
  /// one lane for its whole life (admission wait included), so this also
  /// bounds how many requests can sit in the admission queue.
  std::size_t executor_threads = 8;
  /// Tuple cap for result payloads (matches the bvqsh printout default).
  std::size_t payload_tuple_limit = 20;
  /// When non-empty: answer-cache persistence (DESIGN.md §13). Each
  /// session's db-resolved cache entries are snapshotted to
  /// `<cache_dir>/<session>.bvqcache` on `close`, `drain`, and `quit`, and
  /// prewarmed (restored as pending, fingerprint-gated) on `open`. Snapshot
  /// problems are never protocol errors: a missing, corrupted, or stale file
  /// degrades to cache misses with a warning on stderr.
  std::string cache_dir;
};

/// Everything known about one finished evaluation.
struct EvalOutcome {
  std::uint64_t id = 0;
  std::string session;
  Status status;        // OK, or the parse/evaluator/admission failure
  std::string payload;  // FormatRelation(answer); empty on error
  EvalStats eval_stats;
  ResourceStats resource;     // composite per-query token snapshot
  double queue_wait_ms = 0.0; // time spent in the admission queue
  double eval_ms = 0.0;       // evaluator wall time (admission excluded)
};

/// The serving layer: named sessions (SessionManager) behind an
/// AdmissionController, with an internal executor running admitted queries
/// and a registry of in-flight evaluations for remote cancellation.
///
/// Two surfaces share this object: the library API (Open/EvalSync/
/// EvalAsync/Cancel/...) used by tests and the benches; and the
/// newline-delimited request protocol (HandleLine) spoken by bvqserve over
/// stdin or TCP and by bvqsh's `serve` command. The protocol's commands and
/// options are listed once, in ProtocolHelpText() (the `help` response).
///
/// Control responses are single lines (`ok ...` / `err ...`); eval
/// completions arrive asynchronously as one atomically-emitted block
///
///   result <id> ok|error <StatusCodeName>
///   <payload or error detail, indented>
///   end <id>
///
/// so concurrent queries interleave at block granularity only.
class Server {
 public:
  explicit Server(ServeOptions options = {});
  /// Drains every queued and running query, then joins the executor.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // ---- Library API -------------------------------------------------------

  Status Open(const std::string& session, SessionOptions options,
              Database db = Database(0));
  /// Cancels the session's in-flight queries and removes it; running
  /// queries finish as Cancelled on the detached session object.
  Status Close(const std::string& session);

  /// Admits and runs a query on the executor; `done` is invoked exactly
  /// once from a worker thread. Returns the assigned query id.
  Result<std::uint64_t> EvalAsync(
      const std::string& session, const std::string& query,
      std::function<void(const EvalOutcome&)> done);
  /// Same, with a caller-chosen id (the protocol's client-supplied tag).
  /// Fails with InvalidArgument if the id is already in flight.
  Status EvalAsyncWithId(std::uint64_t id, const std::string& session,
                         const std::string& query,
                         std::function<void(const EvalOutcome&)> done);
  /// Blocking convenience wrapper around EvalAsync. Never throws; failures
  /// (admission, parse, evaluation, unknown session) are in `status`.
  EvalOutcome EvalSync(const std::string& session, const std::string& query);

  /// Cancels the in-flight query `id` (queued or running). NotFound once
  /// the query has completed or the id never existed.
  Status Cancel(std::uint64_t id,
                const std::string& reason = "cancelled by client");
  /// The capability backing Cancel(), for callers that want to hold it
  /// (e.g. a connection handler cancelling on client disconnect).
  Result<CancelHandle> Handle(std::uint64_t id) const;

  /// Blocks until no query is queued or running.
  void Drain();

  SessionManager& sessions() { return sessions_; }
  AdmissionController& admission() { return admission_; }
  const ServeOptions& options() const { return options_; }

  /// One-line machine-greppable stats: aggregate, or one session's.
  Result<std::string> StatsLine(const std::string& session = "") const;

  // ---- Protocol ----------------------------------------------------------

  using Emit = std::function<void(const std::string&)>;

  /// Parses and executes one request line; responses (including async eval
  /// completion blocks) are passed to `emit`, each call one atomic chunk.
  /// Blank lines and `#` comments are ignored. `quit` sets closed().
  void HandleLine(const std::string& line, const Emit& emit);
  /// True once a `quit` was handled. Atomic: a serving loop may poll it
  /// from a different thread than the one feeding HandleLine.
  bool closed() const { return closed_.load(std::memory_order_acquire); }

 private:
  struct InFlight {
    std::shared_ptr<Session> session;
    std::shared_ptr<CancelState> cancel;
    std::shared_ptr<ResourceGovernor> governor;  // null until admitted
  };

  void RunEval(std::uint64_t id, std::shared_ptr<Session> session,
               std::string query,
               std::function<void(const EvalOutcome&)> done);
  void FinishEval(std::uint64_t id, const std::shared_ptr<Session>& session,
                  EvalOutcome outcome,
                  const std::function<void(const EvalOutcome&)>& done);
  void Submit(std::function<void()> task);
  void WorkerLoop();
  // Serializes protocol emits across handler and worker threads.
  void EmitChunk(const Emit& emit, const std::string& chunk);

  // ---- Cache persistence (no-ops unless options_.cache_dir is set) -------
  // Snapshot path for a session (name percent-encoded for filesystem
  // safety); empty when persistence is off.
  std::string CacheFileFor(const std::string& session) const;
  Status SaveSessionCache(const std::shared_ptr<Session>& session,
                          const std::string& path);
  Status RestoreSessionCache(const std::shared_ptr<Session>& session,
                             const std::string& path);
  // Best-effort snapshot of every open session (close/drain/quit hooks);
  // failures warn on stderr and never fail the protocol command.
  void SaveAllSessionCaches();

  ServeOptions options_;
  SessionManager sessions_;
  AdmissionController admission_;

  mutable std::mutex registry_mutex_;
  std::map<std::uint64_t, InFlight> in_flight_;
  std::uint64_t next_id_ = 1;

  std::mutex task_mutex_;
  std::condition_variable task_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> tasks_;
  std::size_t busy_ = 0;  // queued + running
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

  std::mutex emit_mutex_;
  std::atomic<bool> closed_{false};
};

}  // namespace bvq::serve

#endif  // BVQ_SERVE_SERVER_H_
