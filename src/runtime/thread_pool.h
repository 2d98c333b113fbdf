#ifndef RASQL_RUNTIME_THREAD_POOL_H_
#define RASQL_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/task_queue.h"

namespace rasql::runtime {

/// A work-stealing thread pool for stage execution. `num_threads` is the
/// number of threads that execute tasks: the calling thread participates as
/// worker 0, so the pool spawns `num_threads - 1` background workers. With
/// one thread, ParallelFor degenerates to an inline sequential loop — no
/// threads, no locks, exactly the pre-runtime behaviour.
///
/// Scheduling: ParallelFor deals task indices round-robin across the
/// per-worker deques, wakes every worker, and lets the pool self-balance —
/// a worker that drains its own deque steals the oldest half of a victim's
/// (TaskQueue::StealHalf), repatriating the surplus to its own deque where
/// other thieves can find it. Stolen work therefore diffuses instead of
/// ping-ponging one task at a time. Every task of a job is enqueued at
/// submission, so a job is one barrier: workers park on a signal epoch
/// bumped per submission, and the submitter returns once all tasks ran.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs body(i) for every i in [0, num_tasks), returning after all calls
  /// complete. The calling thread executes tasks too. Concurrent calls from
  /// different threads are serialized; nested calls from inside a task
  /// would self-deadlock and must not be made.
  void ParallelFor(int num_tasks, const std::function<void(int)>& body);

  /// Number of hardware threads, always >= 1.
  static int HardwareThreads();

 private:
  void WorkerLoop(int self);
  /// Pops one task from `self`'s deque or steals from a victim; runs it.
  /// False when no runnable task was found anywhere.
  bool RunOneTask(int self);
  void FinishTask();
  /// The submitter's half of a job: announce it, participate as worker 0
  /// until the deques are dry, then park until the job completes.
  void RunJobAsWorkerZero();

  int num_threads_;
  std::vector<std::unique_ptr<TaskQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here between signals
  std::condition_variable done_cv_;  ///< the submitter waits here
  /// Epoch bumped on every submission. A worker whose last observed epoch
  /// differs has work to look for.
  uint64_t signal_ = 0;
  bool stop_ = false;
  std::atomic<int> pending_{0};

  std::mutex submit_mu_;  ///< serializes concurrent ParallelFor calls
};

}  // namespace rasql::runtime

#endif  // RASQL_RUNTIME_THREAD_POOL_H_
