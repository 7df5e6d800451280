#ifndef BVQ_COMMON_RESOURCE_H_
#define BVQ_COMMON_RESOURCE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

namespace bvq {

/// Snapshot of a ResourceGovernor's observations, for `--stats` style
/// reporting next to the evaluator's own counters.
struct ResourceStats {
  /// Wall time since the governor was constructed / last Reset().
  double elapsed_ms = 0.0;
  /// Configured deadline (0 = none).
  std::uint64_t deadline_ms = 0;
  /// Configured memory budget in bytes (0 = none).
  std::size_t mem_budget_bytes = 0;
  /// Bytes currently charged (live).
  std::size_t mem_current_bytes = 0;
  /// High-water mark of charged bytes.
  std::size_t mem_peak_bytes = 0;
  /// Model-predicted bound (CheckedPow-derived n^k x live relations),
  /// recorded by the evaluator via set_predicted_bytes(). 0 = not set.
  std::size_t mem_predicted_bytes = 0;
  /// Number of Check() calls and Charge()/NoteTransient() calls observed.
  std::uint64_t checks = 0;
  std::uint64_t charges = 0;
  /// Whether the governor has tripped, and the code it tripped with.
  bool stopped = false;
  StatusCode stop_code = StatusCode::kOk;
};

/// A shared cancellation token plus byte-level memory accountant.
///
/// One governor scopes one query; a session's longer-lived limits sit in a
/// parent governor (see below). Evaluators poll `Check()` at coarse grain
/// (per subformula node, per fixpoint stage, every N SAT conflicts) and
/// charge the bytes of every long-lived allocation (assignment-set cubes,
/// fixpoint iterates, memo entries, CNF + learnt clauses) via
/// `Charge()`/`Release()`. The trip flag is *sticky*: once a deadline,
/// budget, or explicit Cancel() fires, every subsequent Check()/Charge()
/// returns the same non-OK status until Reset(), so an in-flight parallel
/// sweep converges to a clean error instead of a half-computed answer.
///
/// Thread safety: all members are safe to call concurrently; workers observe
/// the token through `stop_flag()` (plain atomic load, no lock).
///
/// Composite tokens (serving layer): a governor may be linked to a *parent*
/// governor via set_parent(), forming a per-query token overlaid on a
/// longer-lived session token. Check() then also polls the parent, and
/// Charge()/NoteTransient()/Release() forward every byte to it, so a
/// session-level deadline or budget trips the query even when the query's
/// own limits are 0 ("none"): a per-query `deadline_ms = 0` overlay never
/// erases a session deadline, it merely adds no *extra* one. A parent trip
/// is copied into this governor's sticky status (same code and message) on
/// the next Check()/Charge(), which is also what raises this token's
/// stop_flag() for pool workers. The parent is not owned, must outlive all
/// calls, and may be shared by many children concurrently.
class ResourceGovernor {
 public:
  struct Limits {
    /// Wall-clock deadline in milliseconds from construction/Reset().
    /// 0 means no deadline.
    std::uint64_t deadline_ms = 0;
    /// Budget for live charged bytes. 0 means no budget.
    std::size_t mem_budget_bytes = 0;
  };

  ResourceGovernor();  // no limits: accounting/cancellation only
  explicit ResourceGovernor(Limits limits);

  /// Restarts the clock and clears the trip flag, accounting, and predicted
  /// bound. The parent link survives a Reset (a pooled per-query governor
  /// keeps its session). Must not race with in-flight Check/Charge callers.
  void Reset(Limits limits);

  /// Links (or unlinks, with nullptr) a parent governor; see the class
  /// comment. Like Reset, must not race with in-flight Check/Charge
  /// callers: set the parent before handing the token to an evaluator.
  void set_parent(ResourceGovernor* parent) { parent_ = parent; }
  ResourceGovernor* parent() const { return parent_; }

  /// Trips the token from outside (e.g. a client disconnect). Subsequent
  /// Check()/Charge() calls return Cancelled with `reason`.
  void Cancel(std::string reason = "evaluation cancelled");

  /// True once any limit tripped or Cancel() was called. Sticky until
  /// Reset(). Cheaper than Check(): no clock read, never *causes* a trip.
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// The sticky trip status: OK while running, else the status of the first
  /// trip (DeadlineExceeded / ResourceExhausted / Cancelled).
  Status status() const;

  /// Polls the deadline and the trip flag. Returns OK while within limits;
  /// reads the steady clock only when a deadline is configured.
  Status Check();

  /// Adds `bytes` to the live-memory account (updating the peak) and trips
  /// if the budget is exceeded. The bytes stay charged even on error so the
  /// caller's scoped release keeps the account balanced.
  Status Charge(std::size_t bytes);

  /// Removes `bytes` from the live-memory account.
  void Release(std::size_t bytes);

  /// Attempts to add `bytes` to the account *without ever tripping the
  /// token*: if this governor (or any ancestor via the parent chain) has a
  /// budget the charge would exceed, or the token has already stopped, the
  /// partial charge is rolled back and false is returned — the sticky trip
  /// status is untouched either way. On success the bytes are retained
  /// exactly like Charge() and must be paired with Release(). This is the
  /// entry point for long-lived *optional* consumers (the cross-query
  /// answer cache) that prefer evicting or skipping an insert over
  /// poisoning a session's token with ResourceExhausted. Concurrent
  /// TryCharge/Charge calls may transiently observe each other's in-flight
  /// bytes — the budget check is exact only at the margin, like Charge().
  bool TryCharge(std::size_t bytes);

  /// Records that `bytes` extra bytes live transiently on top of the current
  /// account (peak + budget check) without retaining the charge. For
  /// short-lived intermediates where a paired Release would be noise.
  Status NoteTransient(std::size_t bytes);

  /// Records the evaluator's model-predicted bound for this query, reported
  /// next to the observed peak in stats().
  void set_predicted_bytes(std::size_t bytes) {
    predicted_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t predicted_bytes() const {
    return predicted_.load(std::memory_order_relaxed);
  }

  /// The raw trip flag, for workers that poll between chunks without paying
  /// for a clock read or a Status copy (ThreadPool::set_cancel_token).
  const std::atomic<bool>* stop_flag() const { return &stop_; }

  double elapsed_ms() const;
  ResourceStats stats() const;

 private:
  void Trip(StatusCode code, std::string message);
  void UpdatePeak(std::size_t now);

  Limits limits_;
  ResourceGovernor* parent_ = nullptr;  // not owned; see class comment
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> charges_{0};
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};
  std::atomic<std::size_t> predicted_{0};
  mutable std::mutex mutex_;  // guards trip_status_
  Status trip_status_;
};

/// RAII charge against a governor: releases on destruction. Null governor is
/// a no-op, so call sites need no branching.
class ScopedCharge {
 public:
  ScopedCharge() = default;
  ~ScopedCharge() { Reset(); }

  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;
  ScopedCharge(ScopedCharge&& other) noexcept
      : governor_(other.governor_), bytes_(other.bytes_) {
    other.governor_ = nullptr;
    other.bytes_ = 0;
  }

  /// Charges `bytes` more against `governor` (accumulating with prior
  /// charges on this object; the governor must match). Returns the charge
  /// status; the bytes are retained either way, so the destructor balances.
  Status Add(ResourceGovernor* governor, std::size_t bytes);

  /// Releases everything charged so far.
  void Reset();

  std::size_t bytes() const { return bytes_; }

 private:
  ResourceGovernor* governor_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace bvq

#endif  // BVQ_COMMON_RESOURCE_H_
