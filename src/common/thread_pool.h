#ifndef BVQ_COMMON_THREAD_POOL_H_
#define BVQ_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bvq {

/// Cumulative counters for ParallelFor dispatches, exposed so evaluators can
/// surface scheduling behaviour in their stats (EvalStats).
struct ThreadPoolStats {
  /// Number of ParallelFor calls that actually fanned out to workers.
  std::size_t parallel_loops = 0;
  /// Total chunks executed across all ParallelFor calls.
  std::size_t chunks = 0;
  /// Chunks claimed by a pool worker rather than the submitting thread
  /// (i.e. work that actually migrated off the caller).
  std::size_t chunks_stolen = 0;
};

/// A small fixed-size thread pool for data-parallel sweeps over k-ary
/// assignment sets and relation rows.
///
/// Design constraints (see DESIGN.md, "Threading model & determinism"):
///   - *Deterministic outputs.* ParallelFor splits [0, total) into chunks at
///     fixed boundaries (multiples of `grain`). Which thread runs a chunk is
///     racy; what the chunk computes is not. Kernels either write to
///     chunk-disjoint output ranges (word-aligned bitset spans) or fill a
///     private per-chunk shard that the caller merges in chunk-index order,
///     so results are byte-identical for every thread count.
///   - *No nesting.* ParallelFor must not be called from inside a chunk
///     callback; the evaluator is a single-threaded orchestrator that fans
///     out one kernel at a time.
///   - *Exception containment.* The library reports errors via Status, but a
///     kernel that does throw (std::bad_alloc, a bug) must not terminate the
///     process or deadlock the pool: the first exception is captured,
///     remaining chunks are drained without running, and the exception is
///     rethrown on the submitting thread. The pool stays usable afterwards.
///   - *Cooperative cancellation.* An optional cancel token
///     (set_cancel_token) is observed between chunks; once it reads true,
///     unclaimed chunks are skipped. Callers that set a token must treat any
///     sweep that overlapped a tripped token as void (partial outputs), so
///     kernels themselves never need to poll.
///
/// The pool spawns num_threads - 1 workers; the thread calling ParallelFor
/// participates as the num_threads-th lane. num_threads == 1 therefore
/// spawns nothing and runs every chunk inline. Kernels do not call
/// ParallelFor directly: they go through PlanChunks below, which also
/// covers the no-pool case.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_threads_; }

  /// Thread count used for `num_threads == 0` ("auto"): the BVQ_THREADS
  /// environment variable if set and positive, else
  /// std::thread::hardware_concurrency(), else 1. BVQ_THREADS values beyond
  /// kMaxOversubscription x hardware_concurrency() are clamped to that cap
  /// (oversubscription only adds context-switch thrash) with a one-time
  /// warning on stderr.
  static std::size_t DefaultThreads();

  /// Cap on BVQ_THREADS as a multiple of hardware_concurrency().
  static constexpr std::size_t kMaxOversubscription = 4;

  /// Installs (or clears, with nullptr) a cancellation token observed
  /// between chunks by every thread running a subsequent ParallelFor. Must
  /// not be called while a ParallelFor is in flight; the token must outlive
  /// all dispatches that observe it.
  void set_cancel_token(const std::atomic<bool>* token) {
    cancel_token_ = token;
  }

  /// Runs fn(chunk_index, begin, end) for every chunk of [0, total), where
  /// chunk c covers [c*grain, min((c+1)*grain, total)). grain must be > 0.
  /// Chunks are claimed dynamically by the caller and the workers; chunk
  /// *boundaries* are fixed, so callers get deterministic decompositions.
  /// If a chunk throws, the first exception is rethrown here after all
  /// chunks are claimed (later chunks are drained, not run). If the cancel
  /// token trips, remaining chunks are skipped and ParallelFor returns
  /// normally with the sweep's output partial.
  void ParallelFor(std::size_t total, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t,
                                            std::size_t)>& fn);

  /// Number of chunks ParallelFor(total, grain, ...) will produce.
  static std::size_t NumChunks(std::size_t total, std::size_t grain) {
    return grain == 0 ? 0 : (total + grain - 1) / grain;
  }

  /// Snapshot of cumulative dispatch counters.
  ThreadPoolStats stats() const;
  void ResetStats();

 private:
  struct Task;

  void WorkerLoop();
  // Claims and runs chunks of `task`; returns how many this thread executed.
  std::size_t RunChunks(Task& task);

  const std::size_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for a new task
  std::condition_variable done_cv_;   // submitter waits for remaining == 0
  bool shutdown_ = false;
  // The latest dispatch; workers compare against the task they last ran so
  // spurious wakeups and missed dispatches are both harmless.
  std::shared_ptr<Task> task_;
  // Observed between chunks by all lanes; only mutated while no dispatch is
  // in flight (same single-orchestrator discipline as ParallelFor itself).
  const std::atomic<bool>* cancel_token_ = nullptr;

  std::atomic<std::size_t> stat_loops_{0};
  std::atomic<std::size_t> stat_chunks_{0};
  std::atomic<std::size_t> stat_stolen_{0};
};

/// Input sizes below which a sweep runs as one inline chunk even when a
/// pool is supplied. The floors are only a scheduling choice (dispatch
/// overhead dominates below them): every kernel runs the same loop body
/// either way, so outputs do not depend on them.
inline constexpr std::size_t kMinParallelBits = 4096;  // assignment-cube bits
inline constexpr std::size_t kMinParallelRows = 256;   // relation rows

/// How one data-parallel sweep over [0, total) is cut into chunks. Every
/// kernel has exactly one loop body, written against
/// fn(chunk_index, begin, end); the serial case is that body run over the
/// single chunk [0, total) on the calling thread (pool == nullptr), which
/// spawns, dispatches and allocates nothing.
struct ChunkPlan {
  ThreadPool* pool = nullptr;  // null: one inline chunk
  std::size_t total = 0;
  std::size_t grain = 1;

  std::size_t num_chunks() const {
    return ThreadPool::NumChunks(total, grain);
  }

  template <typename Fn>
  void Run(const Fn& fn) const {
    if (pool != nullptr) {
      pool->ParallelFor(total, grain, fn);
    } else if (total > 0) {
      fn(std::size_t{0}, std::size_t{0}, total);
    }
  }
};

/// The one fan-out decision for data-parallel kernels. A sweep over `total`
/// items fans out over `pool` in chunks of grain(total, num_threads) only
/// when the pool exists, has more than one thread, and the input measure
/// `size` reaches `floor`; otherwise it is one inline chunk.
template <typename GrainFn>
ChunkPlan PlanChunks(ThreadPool* pool, std::size_t total, std::size_t size,
                     std::size_t floor, GrainFn grain) {
  if (pool == nullptr || pool->num_threads() <= 1 || size < floor) {
    return {nullptr, total, total == 0 ? 1 : total};
  }
  return {pool, total, grain(total, pool->num_threads())};
}

/// A word-aligned grain for bitset sweeps: splits `total` bit positions into
/// roughly 4 chunks per thread, rounded up to a multiple of 64 so chunks
/// touch disjoint bitset words. Never returns 0.
std::size_t BitGrain(std::size_t total, std::size_t num_threads);

/// A grain for row sweeps: roughly 4 chunks per thread, at least `min_rows`
/// per chunk. Never returns 0.
std::size_t RowGrain(std::size_t total, std::size_t num_threads,
                     std::size_t min_rows = 256);

}  // namespace bvq

#endif  // BVQ_COMMON_THREAD_POOL_H_
