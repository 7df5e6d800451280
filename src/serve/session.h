#ifndef BVQ_SERVE_SESSION_H_
#define BVQ_SERVE_SESSION_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "db/database.h"
#include "eval/answer_cache.h"
#include "eval/bounded_eval.h"

namespace bvq::serve {

/// Default admission reserve when neither a per-query nor a session memory
/// budget is configured: the serving layer always reserves *something* so
/// an unbounded session cannot starve bounded ones out of the aggregate.
inline constexpr std::size_t kDefaultAdmissionReserveBytes =
    std::size_t{16} << 20;

/// Per-session configuration, fixed at open time.
struct SessionOptions {
  /// The k of L^k for queries in this session.
  std::size_t num_vars = 3;
  /// Evaluator options (threads, memo, strategy). The governor field is
  /// overwritten per query with a pooled composite token.
  BoundedEvalOptions eval;
  /// Session-wide quota: deadline_ms is a wall-clock budget for the whole
  /// session (from open), mem_budget_bytes caps the session's *live*
  /// charged bytes across all of its concurrent queries. 0 = none.
  ResourceGovernor::Limits session_limits;
  /// Per-query overlay: limits armed on the pooled governor for each
  /// evaluation. A 0 here adds no per-query limit but never erases the
  /// session-level one (composite-token semantics; see ResourceGovernor).
  ResourceGovernor::Limits query_limits;
  /// Bytes reserved from the AdmissionController's aggregate per query.
  /// 0 = derive: the per-query budget if set, else the session budget,
  /// else kDefaultAdmissionReserveBytes.
  std::size_t admission_reserve_bytes = 0;
  /// Whether the session's cross-query AnswerCache starts enabled. The
  /// cache object always exists (so `cache <s> on` mid-session finds warm
  /// state disabled earlier); this only sets the initial switch position.
  bool cross_query_cache = true;
  /// LRU cap for the session cache. 0 = derive: the session memory budget
  /// if one is set (the cache is charged against it and must never be able
  /// to pin the whole session account), else kDefaultCacheMaxBytes.
  std::size_t cache_max_bytes = 0;
};

/// Default AnswerCache residency cap for sessions without an explicit
/// cache_max_bytes or session memory budget.
inline constexpr std::size_t kDefaultCacheMaxBytes = std::size_t{64} << 20;

/// Shared cancellation slot for one in-flight evaluation. `requested` is
/// the lock-free flag the AdmissionController polls while the query waits
/// in the queue; once the query acquires its governor it binds it here
/// under `mutex`, so a cancel that arrives in the window between admission
/// and binding is never lost: whichever side locks second sees the other.
struct CancelState {
  std::atomic<bool> requested{false};
  std::mutex mutex;  // guards reason + governor
  std::string reason;
  std::weak_ptr<ResourceGovernor> governor;
};

/// A remote-cancellation capability for one in-flight evaluation. Safe to
/// invoke from any thread at any point in the query's life: before
/// admission it aborts the queue wait, after admission it trips the
/// query's composite token (Cancel → sticky Cancelled), and after
/// completion it is a harmless no-op — the completion path unbinds the
/// governor from the slot (under `mutex`) before pooling it, so a stale
/// handle can never reach a token that has been reset and reused.
class CancelHandle {
 public:
  CancelHandle() = default;
  explicit CancelHandle(std::shared_ptr<CancelState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }

  /// Requests cancellation; returns true if the handle is valid.
  bool Cancel(const std::string& reason = "cancelled by client") const;

  /// Binds the query's governor into the slot; if a cancel already
  /// arrived, trips it immediately. Called by the query runner right after
  /// the governor is acquired.
  static void BindGovernor(const std::shared_ptr<CancelState>& state,
                           const std::shared_ptr<ResourceGovernor>& governor);

 private:
  std::shared_ptr<CancelState> state_;
};

/// A named, long-lived evaluation context: one database, one set of
/// evaluator options, one session-level ResourceGovernor, and a pool of
/// per-query governors that are composed onto it (Reset + set_parent) so
/// repeated queries reuse tokens instead of allocating.
///
/// Thread model: many queries of one session may run concurrently. They
/// take `db_mutex()` shared for the duration of the evaluation; mutations
/// (domain / rel / load) take it exclusive, so a session's database never
/// changes under a running query.
class Session {
 public:
  Session(std::string name, Database db, SessionOptions options);

  const std::string& name() const { return name_; }
  const SessionOptions& options() const { return options_; }
  std::size_t admission_reserve_bytes() const;

  /// The session-level token/account shared by all of this session's
  /// queries (parent of every pooled per-query governor).
  ResourceGovernor& governor() { return session_governor_; }

  /// The database and the lock that guards it (shared = evaluate,
  /// exclusive = mutate). Exposed raw because the callers — Server request
  /// handlers — need to hold the lock across an entire evaluation.
  Database& db() { return db_; }
  std::shared_mutex& db_mutex() { return db_mutex_; }

  /// Takes a per-query governor from the pool (or creates one), resets it
  /// to `options().query_limits`, and links it to the session governor.
  std::shared_ptr<ResourceGovernor> AcquireGovernor();
  /// Returns a governor to the pool. The caller must be its last owner.
  void ReleaseGovernor(std::shared_ptr<ResourceGovernor> governor);

  struct PoolStats {
    std::size_t created = 0;  // governors ever constructed
    std::size_t reused = 0;   // acquisitions served from the free list
    std::size_t free = 0;     // currently pooled
  };
  PoolStats pool_stats() const;

  /// The session's cross-query answer cache (DESIGN.md §11). Always
  /// non-null; residency is charged to the session governor and capped per
  /// SessionOptions::cache_max_bytes. Whether queries consult it is the
  /// separate runtime switch below (protocol `cache <s> on|off`). The
  /// evaluator probes the cache only under memo, so a memo=0 session's
  /// cache is never enabled, whatever the switch says.
  AnswerCache* cache() { return cache_.get(); }
  bool cache_enabled() const {
    return options_.eval.memo &&
           cache_enabled_.load(std::memory_order_acquire);
  }
  void set_cache_enabled(bool enabled) {
    cache_enabled_.store(enabled, std::memory_order_release);
  }

  // Lifetime counters, maintained by the Server.
  std::atomic<std::uint64_t> queries_started{0};
  std::atomic<std::uint64_t> queries_ok{0};
  std::atomic<std::uint64_t> queries_failed{0};
  // Cumulative evaluator counters across the session's completed queries,
  // accumulated by the Server so the protocol `stats <session>` line is
  // comparable with a direct bvqsh --stats run.
  std::atomic<std::uint64_t> memo_hits{0};
  std::atomic<std::uint64_t> memo_misses{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};

 private:
  const std::string name_;
  SessionOptions options_;
  Database db_;
  std::shared_mutex db_mutex_;
  ResourceGovernor session_governor_;
  std::unique_ptr<AnswerCache> cache_;
  std::atomic<bool> cache_enabled_;

  mutable std::mutex pool_mutex_;
  std::vector<std::shared_ptr<ResourceGovernor>> free_governors_;
  std::size_t pool_created_ = 0;
  std::size_t pool_reused_ = 0;
};

/// Owns every open session, by name. All methods are thread-safe; sessions
/// are handed out as shared_ptr so Close() can drop the name while
/// in-flight queries (which hold a reference) finish on the detached
/// object.
class SessionManager {
 public:
  /// Opens a new session. Fails with InvalidArgument if the name is taken.
  Result<std::shared_ptr<Session>> Open(const std::string& name, Database db,
                                        SessionOptions options);
  /// Looks a session up. Fails with NotFound.
  Result<std::shared_ptr<Session>> Get(const std::string& name) const;
  /// Removes a session by name. Fails with NotFound. In-flight queries
  /// keep the object alive until they complete.
  Status Close(const std::string& name);

  std::vector<std::string> Names() const;
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Session>> sessions_;
};

}  // namespace bvq::serve

#endif  // BVQ_SERVE_SESSION_H_
