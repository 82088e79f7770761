#include "support/threadpool.hpp"

#include <algorithm>
#include <chrono>

namespace mbird {

ThreadPool::ThreadPool(size_t threads) {
  threads = std::max<size_t>(1, threads);
  queues_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  watch_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  size_t q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
             queues_.size();
  // Counters rise BEFORE the push: a decrement (in try_pop / completion)
  // strictly follows the push, so the counters can never underflow. The
  // cost is a narrow window where queued_ > 0 but the task is not yet in
  // its deque; worker_loop covers that window with a short timed wait
  // (the only timed wait left — it cannot fire in the starved steady
  // state, where queued_ == 0 and workers block indefinitely).
  const uint64_t avg = task_ns_.load(std::memory_order_relaxed);
  bool wake = avg == 0 || avg >= kShortTaskNs;
  {
    std::lock_guard lock(mu_);
    ++pending_;
    ++queued_;
    if (!wake && !watch_asked_ && !watching_) wake = watch_asked_ = true;
  }
  {
    std::lock_guard lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  if (wake) work_cv_.notify_one();
}

void ThreadPool::run(std::function<void()>& task) {
  const auto t0 = std::chrono::steady_clock::now();
  task();
  const auto ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  // A racy read-modify-write is fine: the average only steers wake-ups.
  const uint64_t avg = task_ns_.load(std::memory_order_relaxed);
  task_ns_.store(avg == 0 ? std::max<uint64_t>(ns, 1) : avg - avg / 4 + ns / 4,
                 std::memory_order_relaxed);
  bool idle;
  {
    std::lock_guard lock(mu_);
    idle = --pending_ == 0;
  }
  if (idle) idle_cv_.notify_all();
}

void ThreadPool::watch(std::unique_lock<std::mutex>& lock) {
  watch_asked_ = false;
  watching_ = true;
  const bool drained =
      watch_cv_.wait_for(lock, std::chrono::nanoseconds(kWatchNs),
                         [this] { return stop_ || queued_ == 0; });
  watching_ = false;
  // Still queued after a watch: nobody is draining fast enough. Every
  // worker joins.
  if (!drained) work_cv_.notify_all();
}

void ThreadPool::wait_idle() {
  // Help-drain barrier: the waiting thread runs queued tasks itself
  // instead of sleeping while workers grind. On hosts with fewer cores
  // than workers this converts the barrier from a chain of context
  // switches into plain function calls — the batch driver's warm blocks
  // (microseconds of work per chunk) would otherwise pay a scheduler
  // handoff per chunk.
  for (;;) {
    std::function<void()> task;
    if (!try_pop(0, task)) break;
    run(task);
  }
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

bool ThreadPool::try_pop(size_t me, std::function<void()>& out) {
  auto take = [&](Queue& q, bool lifo) {
    std::lock_guard lock(q.mu);
    if (q.tasks.empty()) return false;
    if (lifo) {
      out = std::move(q.tasks.back());
      q.tasks.pop_back();
    } else {
      out = std::move(q.tasks.front());
      q.tasks.pop_front();
    }
    return true;
  };
  bool got = take(*queues_[me], /*lifo=*/true);  // own queue: back (LIFO)
  // Steal: front (FIFO) of each victim in ring order after us.
  for (size_t k = 1; !got && k < queues_.size(); ++k) {
    got = take(*queues_[(me + k) % queues_.size()], /*lifo=*/false);
  }
  if (got) {
    std::lock_guard lock(mu_);
    if (--queued_ == 0 && watching_) watch_cv_.notify_one();
  }
  return got;
}

void ThreadPool::worker_loop(size_t me) {
  for (;;) {
    std::function<void()> task;
    if (try_pop(me, task)) {
      run(task);
      continue;
    }
    std::unique_lock lock(mu_);
    if (stop_) return;
    if (watch_asked_) {
      // A burst of short tasks: give the running threads kWatchNs to
      // drain it before this worker joins.
      watch(lock);
      if (stop_) return;
      continue;
    }
    if (queued_ == 0) {
      // No task in any deque. Tasks merely *running* on other workers
      // are none of our business: block until a submit (possibly
      // recursive, from one of them) raises queued_, or shutdown. No
      // polling — an idle worker costs zero CPU while its siblings
      // grind through long tasks. (The old loop timed-waited whenever
      // pending_ > 0, waking every idle worker ~1000x/s for the whole
      // runtime of the in-flight tasks.)
      work_cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      if (watch_asked_ && !stop_) watch(lock);
      if (stop_) return;
      continue;  // re-scan with the task now (likely) visible
    }
    // queued_ > 0 but our scan came up empty: either a submit raced the
    // scan (counter up, push not yet landed) or a thief's decrement is
    // still in flight. Both windows are microseconds; a short timed wait
    // bounds the re-scan without reintroducing steady-state polling.
    work_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

}  // namespace mbird
