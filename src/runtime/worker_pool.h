// Fixed-size worker pool for the parallel localization engine.
//
// FChainMaster fans analyze batches out across slave endpoints, and
// FChainSlave fans per-VM change-point analysis out across cores. Both use
// this pool: a fixed set of threads spawned once, fed through a shared task
// queue. Determinism is preserved by construction — tasks write into
// pre-allocated, disjoint result slots and the coordinator merges them in a
// fixed order after run() returns, so the schedule can never reorder
// results.
//
// The pool knows nothing about FChain types (it lives below the core layer,
// linking only the standard library), so both fchain_core and future
// subsystems can share it.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include <condition_variable>

namespace fchain::runtime {

/// Fixed-size thread pool. Threads are spawned in the constructor and
/// joined in the destructor; run() executes a batch of independent tasks to
/// completion. Safe to call run() from multiple coordinator threads
/// concurrently (each waits until the queue fully drains).
class WorkerPool {
 public:
  /// Spawns max(1, threads) workers.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Queued + currently-running tasks, readable from any thread without
  /// taking the queue lock. 0 whenever no run() is in flight — the
  /// queue-depth gauge the master records must drain back to zero after
  /// every localization.
  std::size_t pendingCount() const {
    return pending_.load(std::memory_order_relaxed);
  }

  /// Runs every task to completion and returns. Tasks must not themselves
  /// call run() on the same pool (the worker would deadlock waiting for
  /// itself). If a task throws, the first exception is rethrown here after
  /// all tasks of the batch have finished. When the global tracer is
  /// enabled, each task is bracketed by a "pool.task" span and its time in
  /// the queue recorded as "pool.queue_wait".
  void run(std::vector<std::function<void()>> tasks);

 private:
  void workerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  /// Queued + currently-running tasks. Mutated only under mutex_ (the
  /// condition variables need that anyway); atomic so pendingCount() can
  /// observe it lock-free.
  std::atomic<std::size_t> pending_{0};
  std::exception_ptr first_error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace fchain::runtime
