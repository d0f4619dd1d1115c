// Fixed-size thread pool with deterministic, index-slotted parallel loops.
//
// Parallelism in this tree must never change results (DESIGN.md §9): the
// same seed has to produce bit-identical epochs at threads=1 and threads=N.
// The pool's only primitive is therefore ParallelFor(count, fn): task i is
// fn(i), every index is claimed exactly once, and each task writes only its
// own caller-owned result slot. Merging happens on the calling thread, in
// index order, after the loop — so the output never depends on which worker
// ran which index or in what order tasks finished.
//
// Stochastic tasks take their randomness from a keyed sub-stream,
// base.Fork(i) (common/rng.h): the parent cursor is never advanced, so
// replay hashes are unchanged and no Rng is ever shared across threads.
//
// The pool owns num_threads-1 workers; the calling thread participates in
// every loop, so ThreadPool(1) spawns nothing and runs inline — the serial
// path and the parallel path are the same code. Tasks must not throw
// (failures in this codebase abort via GOLDILOCKS_CHECK) and must not call
// ParallelFor on the same pool re-entrantly; create a nested pool instead.
//
// This file is the sanctioned home for raw std::thread (gl_analyze GL006):
// everything else fans out through a ThreadPool.
//
// The pool also keeps per-worker utilization telemetry (busy / queue-wait /
// batch wall), aggregated under the pool mutex and exposed via Stats().
// All of it is wall-clock derived and therefore informational only
// (DESIGN.md §10): callers may publish it on the kInformational side of the
// metrics registry, but it must never be hashed or steer a decision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace gl {

// Cumulative utilization snapshot over every ParallelFor a pool has run.
// Slot 0 of per_thread_busy_us is the calling thread (it participates in
// every loop); slots 1..workers-1 are the pool's own worker threads.
struct ThreadPoolStats {
  int workers = 1;
  std::uint64_t batches = 0;  // ParallelFor invocations (incl. inline runs)
  std::uint64_t tasks = 0;    // fn(i) calls
  double busy_us = 0.0;       // total time inside fn(i), all threads
  double queue_wait_us = 0.0; // posted-to-claimed latency, summed over tasks
  double batch_wall_us = 0.0; // per-batch wall (post to last completion)
  std::vector<double> per_thread_busy_us;

  // busy / (workers × wall): 1.0 = every thread busy for every batch's
  // whole duration. The serial fast path is 1.0 by construction.
  [[nodiscard]] double ParallelEfficiency() const {
    const double denom = static_cast<double>(workers) * batch_wall_us;
    return denom > 0.0 ? busy_us / denom : 1.0;
  }
  // Thread-time inside batches not spent running tasks.
  [[nodiscard]] double IdleUs() const {
    const double idle =
        static_cast<double>(workers) * batch_wall_us - busy_us;
    return idle > 0.0 ? idle : 0.0;
  }
};

class ThreadPool {
 public:
  // Clamped to >= 1. The pool spawns num_threads-1 workers; a pool of one
  // is a plain loop with no threads, locks or queues touched.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const { return num_threads_; }

  // Runs fn(0) .. fn(count-1), each index exactly once, and returns when
  // all calls have finished. The calling thread executes tasks too. fn must
  // be safe to invoke concurrently from multiple threads for distinct
  // indices; writes should go to per-index slots owned by the caller.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn)
      GL_EXCLUDES(mu_);

  // Chunked variant for fine-grained loops: the index space [0, total) is
  // cut into fixed runs of `grain` indices (the last run may be short) and
  // each task is one run, so per-index loops stop paying a claim/retire
  // round-trip per element. Chunk boundaries depend only on `total` and
  // `grain` — never on the worker count — so per-chunk partial results keyed
  // by chunk index fold deterministically at every width (DESIGN.md §9).
  // fn receives the participation slot (0 = caller) alongside the chunk's
  // [begin, end); slot-keyed scratch is safe only for state the body fully
  // re-initializes per chunk, because the slot→chunk mapping is
  // scheduling-dependent.
  void ParallelForChunked(
      std::size_t total, std::size_t grain,
      const std::function<void(int slot, std::size_t begin, std::size_t end)>&
          fn) GL_EXCLUDES(mu_);

  // Utilization accumulated over every loop this pool has run so far.
  // Informational only — never hashed, never a decision input.
  [[nodiscard]] ThreadPoolStats Stats() const GL_EXCLUDES(mu_);

 private:
  // `slot` is the thread's index into per_thread_busy_us (0 = caller).
  void WorkerLoop(int slot) GL_EXCLUDES(mu_);
  // Claims and runs tasks of the current batch until none remain unclaimed.
  // Drops the lock around each fn(i) call.
  void RunBatchTasks(int slot) GL_REQUIRES(mu_);

  const int num_threads_;

  mutable Mutex mu_;
  CondVar work_cv_;  // signalled when a batch is posted or on shutdown
  CondVar done_cv_;  // signalled when the last in-flight task finishes

  // One batch at a time: the active loop's bounds and claim cursor. Exactly
  // one of fn_/cfn_ is set while a batch runs; count_ is the task count
  // (indices for fn_, chunks for cfn_).
  const std::function<void(std::size_t)>* fn_ GL_GUARDED_BY(mu_) = nullptr;
  const std::function<void(int, std::size_t, std::size_t)>* cfn_
      GL_GUARDED_BY(mu_) = nullptr;
  std::size_t grain_ GL_GUARDED_BY(mu_) = 0;
  std::size_t total_ GL_GUARDED_BY(mu_) = 0;
  std::size_t count_ GL_GUARDED_BY(mu_) = 0;
  std::size_t next_ GL_GUARDED_BY(mu_) = 0;       // first unclaimed index
  std::size_t in_flight_ GL_GUARDED_BY(mu_) = 0;  // claimed, not yet done
  bool shutdown_ GL_GUARDED_BY(mu_) = false;

  // Telemetry (informational). Accumulated under mu_ at points that already
  // hold it, so the task fast path pays one clock read per claim/retire.
  std::int64_t batch_post_us_ GL_GUARDED_BY(mu_) = 0;
  std::uint64_t batches_ GL_GUARDED_BY(mu_) = 0;
  std::uint64_t tasks_ GL_GUARDED_BY(mu_) = 0;
  double busy_us_ GL_GUARDED_BY(mu_) = 0.0;
  double queue_wait_us_ GL_GUARDED_BY(mu_) = 0.0;
  double batch_wall_us_ GL_GUARDED_BY(mu_) = 0.0;
  std::vector<double> per_thread_busy_us_ GL_GUARDED_BY(mu_);

  // Only touched by the owning thread (constructor / destructor).
  std::vector<std::thread> workers_;
};

}  // namespace gl
