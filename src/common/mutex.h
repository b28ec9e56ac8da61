// Capability-annotated locking primitives: thin wrappers over std::mutex /
// std::condition_variable that clang's thread-safety analysis can see.
// libstdc++ ships std::mutex without capability attributes, so a
// GUARDED_BY(std::mutex) contract could never be satisfied — the analysis
// would not recognize std::lock_guard as an acquisition. Every mutex in
// this repo is therefore a zidian::Mutex, every scoped lock a MutexLock,
// and every condition wait a CondVar::Wait (which keeps the capability
// held across the underlying release/reacquire, exactly matching the
// analysis' view of a condition wait). The zero-thread / GCC cost is
// identical to using the std types directly: every method is an inline
// forwarding call.
//
// tools/lint_invariants.py enforces the pairing: a raw std::mutex member
// anywhere outside this header fails CI, and every Mutex member must have
// at least one GUARDED_BY contract naming it.
#ifndef ZIDIAN_COMMON_MUTEX_H_
#define ZIDIAN_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/thread_annotations.h"

namespace zidian {

/// An exclusive capability. Prefer MutexLock over manual Lock/Unlock —
/// the scoped form cannot leak the capability on an early return.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII holder: acquires in the constructor, releases in the destructor.
/// The analysis treats the whole scope as holding the capability.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// A reader/writer capability: any number of shared holders or one
/// exclusive holder. The Cluster's storage gate is the canonical use
/// (storage/cluster.h): a read holds it shared only while it touches the
/// backends and the BlockCache, never across a modeled stall, and a
/// commit holds it exclusive while it writes, so no write overlaps a
/// storage access.
class CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive holder of a SharedMutex (the writer side).
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared holder of a SharedMutex (the reader side).
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to a Mutex at each wait site. Wait atomically
/// releases `mu`, blocks, and reacquires before returning — from the
/// analysis' perspective the capability is held throughout, which is the
/// correct model for the guarded state: it may only be re-examined after
/// the reacquisition. Callers therefore wait in the standard loop:
///   while (!condition) cv.Wait(mu);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock's ownership claim so the capability stays with the
    // caller's MutexLock.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace zidian

#endif  // ZIDIAN_COMMON_MUTEX_H_
