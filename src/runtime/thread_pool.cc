#include "runtime/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace rasql::runtime {

int ThreadPool::HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  queues_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    queues_.push_back(std::make_unique<TaskQueue>());
  }
  workers_.reserve(num_threads_ - 1);
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::FinishTask() {
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task of the job: wake the submitter. Locking mu_ orders the
    // notify after the submitter's wait registration.
    std::lock_guard<std::mutex> lock(mu_);
    done_cv_.notify_all();
  }
}

bool ThreadPool::RunOneTask(int self) {
  Task task;
  if (queues_[self]->PopBottom(&task)) {
    task();
    FinishTask();
    return true;
  }
  for (int i = 1; i < num_threads_; ++i) {
    const int victim = (self + i) % num_threads_;
    std::vector<Task> stolen;
    if (queues_[victim]->StealHalf(&stolen) > 0) {
      // Run the oldest stolen task now; repatriate the rest to our own
      // deque, where further thieves can find them.
      task = std::move(stolen.front());
      for (size_t j = 1; j < stolen.size(); ++j) {
        queues_[self]->PushBottom(std::move(stolen[j]));
      }
      task();
      FinishTask();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int self) {
  uint64_t seen_signal = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || signal_ != seen_signal; });
      if (stop_) return;
      seen_signal = signal_;
    }
    // Drain: own deque first, then steal.
    while (RunOneTask(self)) {
    }
  }
}

void ThreadPool::RunJobAsWorkerZero() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++signal_;
  }
  work_cv_.notify_all();
  // The submitter is worker 0: drain, then park until the job completes.
  // Every task was enqueued before the signal, so once the deques look dry
  // the only outstanding work is tasks other workers are running.
  while (RunOneTask(0)) {
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::ParallelFor(int num_tasks,
                             const std::function<void(int)>& body) {
  if (num_tasks <= 0) return;
  if (num_threads_ == 1 || num_tasks == 1) {
    for (int i = 0; i < num_tasks; ++i) body(i);
    return;
  }
  std::lock_guard<std::mutex> submit(submit_mu_);
  RASQL_CHECK(pending_.load(std::memory_order_relaxed) == 0);
  pending_.store(num_tasks, std::memory_order_release);
  for (int i = 0; i < num_tasks; ++i) {
    queues_[i % num_threads_]->PushBottom([&body, i] { body(i); });
  }
  RunJobAsWorkerZero();
}

}  // namespace rasql::runtime
