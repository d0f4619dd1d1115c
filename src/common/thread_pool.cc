#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"
#include "obs/clock.h"

namespace gl {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  {
    MutexLock lock(mu_);
    per_thread_busy_us_.assign(static_cast<std::size_t>(num_threads_), 0.0);
  }
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this, slot = i + 1] { WorkerLoop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    // No ParallelFor / ParallelForChunked may be in flight.
    GOLDILOCKS_CHECK(fn_ == nullptr && cfn_ == nullptr);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (num_threads_ == 1 || count == 1) {
    // Inline fast path: no locks or queues around the tasks themselves;
    // one timing bracket for the whole run (busy == wall, efficiency 1).
    const std::int64_t t0 = obs::MonotonicMicros();
    for (std::size_t i = 0; i < count; ++i) fn(i);
    const auto elapsed =
        static_cast<double>(obs::MonotonicMicros() - t0);
    MutexLock lock(mu_);
    ++batches_;
    tasks_ += count;
    busy_us_ += elapsed;
    batch_wall_us_ += elapsed;
    per_thread_busy_us_[0] += elapsed;
    return;
  }

  mu_.Lock();
  // Re-entrant use would deadlock.
  GOLDILOCKS_CHECK(fn_ == nullptr && cfn_ == nullptr);
  fn_ = &fn;
  count_ = count;
  next_ = 0;
  in_flight_ = 0;
  batch_post_us_ = obs::MonotonicMicros();
  mu_.Unlock();
  work_cv_.NotifyAll();

  mu_.Lock();
  RunBatchTasks(0);  // the calling thread participates
  while (in_flight_ > 0) done_cv_.Wait(mu_);
  fn_ = nullptr;
  count_ = 0;
  ++batches_;
  batch_wall_us_ +=
      static_cast<double>(obs::MonotonicMicros() - batch_post_us_);
  mu_.Unlock();
}

void ThreadPool::ParallelForChunked(
    std::size_t total, std::size_t grain,
    const std::function<void(int, std::size_t, std::size_t)>& fn) {
  if (total == 0) return;
  GOLDILOCKS_CHECK(grain > 0);
  const std::size_t chunks = (total + grain - 1) / grain;
  if (num_threads_ == 1 || chunks == 1) {
    // Inline fast path, mirroring ParallelFor: the caller runs every chunk
    // in index order under one timing bracket (busy == wall).
    const std::int64_t t0 = obs::MonotonicMicros();
    for (std::size_t c = 0; c < chunks; ++c) {
      fn(0, c * grain, std::min(total, (c + 1) * grain));
    }
    const auto elapsed = static_cast<double>(obs::MonotonicMicros() - t0);
    MutexLock lock(mu_);
    ++batches_;
    tasks_ += chunks;
    busy_us_ += elapsed;
    batch_wall_us_ += elapsed;
    per_thread_busy_us_[0] += elapsed;
    return;
  }

  mu_.Lock();
  GOLDILOCKS_CHECK(fn_ == nullptr && cfn_ == nullptr);  // no re-entrancy
  cfn_ = &fn;
  grain_ = grain;
  total_ = total;
  count_ = chunks;
  next_ = 0;
  in_flight_ = 0;
  batch_post_us_ = obs::MonotonicMicros();
  mu_.Unlock();
  work_cv_.NotifyAll();

  mu_.Lock();
  RunBatchTasks(0);  // the calling thread participates
  while (in_flight_ > 0) done_cv_.Wait(mu_);
  cfn_ = nullptr;
  count_ = 0;
  ++batches_;
  batch_wall_us_ +=
      static_cast<double>(obs::MonotonicMicros() - batch_post_us_);
  mu_.Unlock();
}

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats stats;
  stats.workers = num_threads_;
  MutexLock lock(mu_);
  stats.batches = batches_;
  stats.tasks = tasks_;
  stats.busy_us = busy_us_;
  stats.queue_wait_us = queue_wait_us_;
  stats.batch_wall_us = batch_wall_us_;
  stats.per_thread_busy_us = per_thread_busy_us_;
  return stats;
}

void ThreadPool::WorkerLoop(int slot) {
  mu_.Lock();
  while (!shutdown_) {
    if ((fn_ != nullptr || cfn_ != nullptr) && next_ < count_) {
      RunBatchTasks(slot);
    } else {
      work_cv_.Wait(mu_);
    }
  }
  mu_.Unlock();
}

void ThreadPool::RunBatchTasks(int slot) {
  while ((fn_ != nullptr || cfn_ != nullptr) && next_ < count_) {
    const std::size_t i = next_++;
    ++in_flight_;
    const auto* fn = fn_;
    const auto* cfn = cfn_;
    const std::size_t grain = grain_;
    const std::size_t total = total_;
    // queue wait = posted-to-claimed: how long the task index sat in the
    // batch before a thread picked it up.
    const std::int64_t claim_us = obs::MonotonicMicros();
    queue_wait_us_ += static_cast<double>(claim_us - batch_post_us_);
    ++tasks_;
    mu_.Unlock();
    if (fn != nullptr) {
      (*fn)(i);
    } else {
      (*cfn)(slot, i * grain, std::min(total, (i + 1) * grain));
    }
    mu_.Lock();
    const auto elapsed =
        static_cast<double>(obs::MonotonicMicros() - claim_us);
    busy_us_ += elapsed;
    per_thread_busy_us_[static_cast<std::size_t>(slot)] += elapsed;
    --in_flight_;
    if (in_flight_ == 0 && next_ >= count_) done_cv_.NotifyAll();
  }
}

}  // namespace gl
