// Work-stealing thread pool for the ensemble runtime.
//
// Each worker owns a bounded deque; it pops its own tasks LIFO (back) and
// steals FIFO (front) from victims, so big contiguous realization ranges
// stay cache-warm on their owner while idle workers take the oldest —
// coarsest — work. The submitting thread participates too: it executes
// tasks while waiting for its batch, which both bounds queue growth
// (backpressure: a full deque makes submit run the task inline) and makes
// nested parallel_for calls deadlock-free.
//
// Determinism contract: parallel_for_ranges partitions [0, n) into fixed
// chunks independent of the thread count, and for_each_isolated returns its
// failure ledger sorted by index. Callers that fold results write them into
// per-index slots and fold those in ascending index order on the calling
// thread, so no result depends on scheduling. A pool with `threads <= 1`
// executes everything inline in submission order — the serial path is not
// an approximation, it is literally the same code.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace ct::runtime {

/// Cooperative cancellation + deadline handle handed to isolated tasks.
/// The watchdog is the deadline itself: there is no killer thread — a long
/// kernel polls `cancelled()` (or `poll()`, which throws a typed
/// ct::Error) and unwinds itself, so a wedged realization is contained
/// without ever interrupting a thread mid-kernel.
class CancellationToken {
 public:
  CancellationToken() = default;
  /// Token whose cancelled() flips true once `timeout` elapses (measured
  /// from construction). timeout <= 0 means no deadline.
  explicit CancellationToken(std::chrono::milliseconds timeout);

  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_release);
  }
  /// True once cancel was requested OR the deadline passed.
  bool cancelled() const noexcept;
  bool has_deadline() const noexcept { return has_deadline_; }

  /// Throws ct::Error{kTimeout} (deadline) or ct::Error{kCancelled}
  /// (explicit request) when cancelled; otherwise returns. Long kernels
  /// call this between work units.
  void poll(std::string_view origin) const;

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

/// Knobs of an isolated batch (TaskPool::for_each_isolated).
struct TaskOptions {
  /// Cooperative per-attempt deadline; 0 = no watchdog.
  std::chrono::milliseconds timeout{0};
  /// Re-runs of a failed index before it is given up on (the caller — the
  /// EnsembleRunner — turns the final failure into a quarantine record).
  unsigned max_retries = 0;
};

/// One index that exhausted its attempts.
struct TaskFailure {
  std::size_t index = 0;
  unsigned attempts = 0;  ///< attempts consumed (1 + retries)
  std::exception_ptr error;  ///< the LAST attempt's exception
};

/// Outcome of for_each_isolated: the failure ledger plus retry accounting.
struct IsolatedRunResult {
  /// Failed indices, sorted ascending — deterministic at any thread count
  /// when fn's behavior is a pure function of (index, attempt).
  std::vector<TaskFailure> failures;
  /// Extra attempts spent across all indices (both healed and exhausted).
  std::uint64_t retries = 0;
};

class TaskPool {
 public:
  /// `threads` = worker count; 0 picks std::thread::hardware_concurrency().
  /// 1 (or a 1-core machine) spawns no workers: all work runs inline.
  explicit TaskPool(unsigned threads = 0);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Workers actually running (0 for the inline/serial pool).
  unsigned worker_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  /// Degree of parallelism (workers, but at least 1 — the caller).
  unsigned parallelism() const noexcept {
    return worker_count() == 0 ? 1u : worker_count();
  }

  /// Runs fn(begin, end) over a fixed chunking of [0, n); blocks until all
  /// chunks completed. Chunk boundaries depend only on (n, chunk), never on
  /// the thread count. The first exception thrown by any chunk is rethrown
  /// here (remaining chunks still run to completion).
  void parallel_for_ranges(std::size_t n, std::size_t chunk,
                           const std::function<void(std::size_t, std::size_t)>& fn);

  /// Element-wise convenience: fn(i) for every i in [0, n).
  void parallel_for_each(std::size_t n, std::size_t chunk,
                         const std::function<void(std::size_t)>& fn);

  /// Fault-isolated element-wise run: fn(i, attempt, token) for every i in
  /// [0, n), with per-INDEX exception capture instead of the batch-fatal
  /// rethrow of parallel_for_each. A throwing index is re-attempted up to
  /// options.max_retries times (fresh token, deadline restarted; `attempt`
  /// counts from 1), then recorded in the result ledger; every other index
  /// still runs. The token's deadline (options.timeout) is the cooperative
  /// watchdog — fn must poll it for a hung attempt to be contained.
  IsolatedRunResult for_each_isolated(
      std::size_t n, std::size_t chunk,
      const std::function<void(std::size_t, unsigned,
                               const CancellationToken&)>& fn,
      const TaskOptions& options = {});

  /// Per-worker deque capacity; past it, submit executes inline (backpressure).
  static constexpr std::size_t kDequeCapacity = 1024;

 private:
  /// One in-flight parallel_for_ranges call. Lives on the submitter's stack
  /// (the call blocks until remaining == 0, so tasks never outlive it).
  struct Batch {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t remaining = 0;          // guarded by mutex_
    std::exception_ptr error;           // first failure wins; guarded by mutex_
  };
  struct Task {
    Batch* batch = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_loop(std::size_t self);
  /// Pops a task: own back first (cache warmth), then steals victims' fronts.
  bool try_pop(std::size_t self, Task& out);
  void run_task(Task& task) noexcept;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers: a task was queued
  std::condition_variable done_cv_;   // submitters: a batch may be complete
  std::vector<std::deque<Task>> deques_;
  std::vector<std::thread> workers_;
  std::size_t next_victim_ = 0;  // round-robin submission cursor
  bool stop_ = false;
};

}  // namespace ct::runtime
