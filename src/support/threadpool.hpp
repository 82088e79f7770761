// A small work-stealing thread pool (used by `mbird batch --jobs N`).
//
// Design: one task deque per worker, each guarded by its own mutex. A
// worker pops from the BACK of its own deque (LIFO — recently submitted
// tasks are cache-warm) and, when empty, steals from the FRONT of a
// victim's deque (FIFO — thieves take the oldest, largest-granularity
// work). External submit() calls distribute round-robin across deques.
//
// Mutex-per-deque rather than a lock-free Chase–Lev deque: batch tasks
// are whole pair-compilation chunks (milliseconds), so queue operations
// are nowhere near the contention point, and plain mutexes keep the pool
// trivially ThreadSanitizer-clean (the CI TSan lane runs the batch
// driver under load).
//
// Starvation behavior: the pool tracks how many tasks sit in queues
// (queued_) separately from how many are queued-or-running (pending_).
// A worker that finds every queue empty blocks on work_cv_ until a
// submit makes queued_ nonzero (or shutdown), so idle workers burn no
// CPU while other workers run long tasks. This matters under recursive
// submit: the old behavior (timed 1ms re-scans whenever pending_ > 0)
// had every idle worker waking ~1000x/s for the whole runtime of the
// in-flight tasks. A timed wait survives only for the microsecond
// submit/steal race window (queued_ > 0 yet every scanned deque empty);
// it cannot fire in the starved steady state. wakeups() counts returns
// from the blocking wait (tests pin the no-spin property with it).
//
// wait_idle() blocks until every queue is empty AND no task is running —
// the quiescent point where the submitting thread may read results
// produced by tasks. Synchronization: task completion decrements
// pending_ under the pool mutex and notifies; wait_idle() waiting on
// that mutex/condvar gives the caller a happens-after edge on
// everything each task wrote.
//
// Tasks may submit() further tasks (they count toward pending_ before
// the parent finishes, so wait_idle() cannot wake between a parent
// finishing and its children starting).
//
// Waking a parked worker costs a futex wake, a reschedule, and cold
// caches on the worker's core — tens of microseconds on a shared host.
// Tasks shorter than that (a warm batch block's chunks run ~20 us) finish
// sooner on a thread that is already running: a worker looping back for
// more, or the caller draining in wait_idle(). So submit() wakes a worker
// per task only while recent tasks (a moving average of measured run
// times) took at least kShortTaskNs, or nothing has run yet. Short tasks
// instead raise one watch per burst: one worker wakes, waits kWatchNs for
// the running threads to drain the queue, and if work is still queued
// then (a drainer is stuck in a long task, or nobody is draining) it
// joins and wakes the rest. So no task waits longer than kWatchNs for a
// thread, and a warm block costs one wake instead of one per chunk.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mbird {

class ThreadPool {
 public:
  /// Spawns `threads` workers (minimum 1).
  explicit ThreadPool(size_t threads);
  /// Drains remaining tasks, then joins all workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Callable from any thread, including from inside a
  /// running task.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks (including recursively submitted
  /// ones) have finished. The calling thread HELPS: it drains queued
  /// tasks itself before sleeping, so a barrier over many small chunks
  /// costs function calls, not scheduler handoffs (decisive on hosts
  /// with fewer cores than workers).
  void wait_idle();

  [[nodiscard]] size_t size() const { return workers_.size(); }

  /// Number of times any worker returned from its starved blocking wait.
  /// Bounded by submits + shutdown, NOT by wall time: workers waiting for
  /// work sleep indefinitely rather than polling (tests assert this stays
  /// small while long tasks run).
  [[nodiscard]] size_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }

  static constexpr uint64_t kShortTaskNs = 250'000;
  static constexpr uint64_t kWatchNs = 1'000'000;

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(size_t me);
  bool try_pop(size_t me, std::function<void()>& out);
  /// Run a popped task, fold its run time into task_ns_, and retire it.
  void run(std::function<void()>& task);
  /// Worker side of a watch: wait for the queue to drain, else join.
  void watch(std::unique_lock<std::mutex>& lock);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;                 // guards pending_/queued_/stop_, pairs cvs
  std::condition_variable work_cv_;  // workers sleep here when starved
  std::condition_variable idle_cv_;  // wait_idle() sleeps here
  std::condition_variable watch_cv_;  // a watching worker sleeps here
  size_t pending_ = 0;            // queued + running tasks
  size_t queued_ = 0;             // tasks sitting in some deque
  bool stop_ = false;
  bool watch_asked_ = false;      // a short-task burst wants a watcher
  bool watching_ = false;         // a worker is watching
  std::atomic<size_t> next_queue_{0};  // round-robin submit cursor
  std::atomic<size_t> wakeups_{0};
  std::atomic<uint64_t> task_ns_{0};   // moving average; 0 = none run yet
};

}  // namespace mbird
