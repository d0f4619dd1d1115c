// Annotated mutex and condition-variable wrappers.
//
// Clang's thread-safety analysis only tracks locks whose type carries the
// `capability` attribute. libstdc++'s std::mutex is unannotated, so
// GL_GUARDED_BY(some_std_mutex) would be rejected under -Wthread-safety;
// these thin wrappers attach the attributes without changing behaviour.
// All concurrent code in the tree uses gl::Mutex / gl::MutexLock /
// gl::CondVar — gl_analyze's GL011 rule enforces that every class holding
// a mutex names the state it guards with GL_GUARDED_BY.
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace gl {

class CondVar;

// Exclusive lock. Non-recursive, non-copyable, same cost as std::mutex.
class GL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() GL_ACQUIRE() { mu_.lock(); }
  void Unlock() GL_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII guard, scoped-capability annotated so the analysis knows the lock is
// held for the guard's lifetime.
class GL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) GL_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() GL_RELEASE() { mu_.Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable bound to gl::Mutex. Wait atomically releases the mutex
// while sleeping and reacquires it before returning; the GL_REQUIRES
// contract makes call-without-lock a compile error on Clang.
class CondVar {
 public:
  void Wait(Mutex& mu) GL_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller still owns the (reacquired) mutex
  }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace gl
