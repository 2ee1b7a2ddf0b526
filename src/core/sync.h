// Capability-annotated synchronization layer.
//
// Every lock in the concurrent core (the multi-worker `Pipeline`'s
// slice queues, the synscand job/completion queues, the obs metrics
// registry) goes through these wrappers instead of the raw std
// primitives, for one reason: the wrappers carry Clang
// Thread Safety Analysis attributes, which turn the protection rules
// documented in docs/ARCHITECTURE.md ("Ownership and threading rules")
// into *compile errors* under `-Wthread-safety`:
//
//   - a member declared `SYNSCAN_GUARDED_BY(mutex_)` cannot be read or
//     written without holding `mutex_`;
//   - a function declared `SYNSCAN_REQUIRES(mutex_)` cannot be called
//     without holding `mutex_`;
//   - acquiring a `Mutex` twice, or returning with it held, is an error.
//
// The analysis runs only under clang (CMake option
// `SYNSCAN_THREAD_SAFETY`, on by default there; the CI job
// `clang-thread-safety` builds the tree with `-Werror=thread-safety`).
// Under gcc every macro below expands to nothing and the wrappers are
// zero-overhead shims over std::mutex/std::condition_variable, so
// non-clang builds are bit-identical in behavior. The seeded-violation
// fixtures under tests/threadsafety/ prove the analysis actually
// rejects guarded-access, missing-REQUIRES and double-acquire bugs.
//
// Raw `std::mutex` & friends are banned in src/core, src/obs and
// src/server by the `raw-sync-primitive` lint rule
// (tools/lint/synscan_lint.py); this header is the single allowed
// owner of the primitives. docs/STATIC_ANALYSIS.md "Thread-safety
// analysis" documents the macros and the suppression policy.
#pragma once

#include <condition_variable>
#include <mutex>

// Attribute spelling: GNU attributes, present in every clang new
// enough to build C++20. Expand to nothing elsewhere (gcc accepts
// none of the capability attributes).
#if defined(__clang__)
#define SYNSCAN_TSA(x) __attribute__((x))
#else
#define SYNSCAN_TSA(x)
#endif

/// Marks a type as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define SYNSCAN_CAPABILITY(name) SYNSCAN_TSA(capability(name))
/// Marks an RAII type whose constructor acquires and destructor
/// releases a capability.
#define SYNSCAN_SCOPED_CAPABILITY SYNSCAN_TSA(scoped_lockable)
/// Data member readable/writable only while holding `x`.
#define SYNSCAN_GUARDED_BY(x) SYNSCAN_TSA(guarded_by(x))
/// Pointer member whose *pointee* is guarded by `x`.
#define SYNSCAN_PT_GUARDED_BY(x) SYNSCAN_TSA(pt_guarded_by(x))
/// Function callable only while holding the listed capabilities.
#define SYNSCAN_REQUIRES(...) SYNSCAN_TSA(requires_capability(__VA_ARGS__))
/// Function that acquires the listed capabilities (held on return).
#define SYNSCAN_ACQUIRE(...) SYNSCAN_TSA(acquire_capability(__VA_ARGS__))
/// Function that releases the listed capabilities.
#define SYNSCAN_RELEASE(...) SYNSCAN_TSA(release_capability(__VA_ARGS__))
/// Function that acquires the capability iff it returns the first
/// argument (e.g. `SYNSCAN_TRY_ACQUIRE(true)`).
#define SYNSCAN_TRY_ACQUIRE(...) SYNSCAN_TSA(try_acquire_capability(__VA_ARGS__))
/// Function that must NOT be entered with the listed capabilities held
/// (the annotation for "locks internally" — prevents self-deadlock).
#define SYNSCAN_EXCLUDES(...) SYNSCAN_TSA(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held (trusted by analysis).
#define SYNSCAN_ASSERT_CAPABILITY(x) SYNSCAN_TSA(assert_capability(x))
/// Function returning a reference to the capability guarding its result.
#define SYNSCAN_RETURN_CAPABILITY(x) SYNSCAN_TSA(lock_returned(x))
/// Escape hatch: function body is not analyzed. Every use must carry a
/// comment explaining which out-of-band mechanism (thread join, slot
/// disjointness) provides the exclusion the analysis cannot see.
#define SYNSCAN_NO_THREAD_SAFETY_ANALYSIS \
  SYNSCAN_TSA(no_thread_safety_analysis)

namespace synscan::core {

/// std::mutex as a capability. Prefer the scoped holders below; call
/// `lock()`/`unlock()` directly only where a scope cannot express the
/// critical section.
class SYNSCAN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // The bodies are excluded from analysis (the std primitive carries
  // no annotations under libstdc++, so the analysis cannot see that
  // the declared effect happens); the declarations are what callers
  // are checked against.
  void lock() SYNSCAN_ACQUIRE() SYNSCAN_NO_THREAD_SAFETY_ANALYSIS {
    mutex_.lock();
  }
  void unlock() SYNSCAN_RELEASE() SYNSCAN_NO_THREAD_SAFETY_ANALYSIS {
    mutex_.unlock();
  }
  [[nodiscard]] bool try_lock()
      SYNSCAN_TRY_ACQUIRE(true) SYNSCAN_NO_THREAD_SAFETY_ANALYSIS {
    return mutex_.try_lock();
  }

 private:
  friend class UniqueLock;
  std::mutex mutex_;
};

/// RAII holder for the plain lock/unlock critical sections (the
/// std::lock_guard shape). Not movable; lives exactly one scope.
class SYNSCAN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex)
      SYNSCAN_ACQUIRE(mutex) SYNSCAN_NO_THREAD_SAFETY_ANALYSIS
      : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() SYNSCAN_RELEASE() SYNSCAN_NO_THREAD_SAFETY_ANALYSIS {
    mutex_.unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// RAII holder for condition-variable waits (the std::unique_lock
/// shape): `CondVar::wait` releases and reacquires it atomically.
class SYNSCAN_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mutex)
      SYNSCAN_ACQUIRE(mutex) SYNSCAN_NO_THREAD_SAFETY_ANALYSIS
      : lock_(mutex.mutex_) {}
  ~UniqueLock() SYNSCAN_RELEASE() SYNSCAN_NO_THREAD_SAFETY_ANALYSIS {}
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to `UniqueLock`. The analysis treats the
/// capability as continuously held across `wait` (matching the caller's
/// view: the lock is reacquired before `wait` returns), so guarded
/// state may be re-checked directly in the wait loop:
///
///   UniqueLock lock(mutex_);
///   while (queue_.empty() && !stop_) ready_.wait(lock);
///
/// Predicate overloads are deliberately absent: a predicate lambda is
/// analyzed as a separate function that does not hold the capability,
/// so every wait is written as an explicit loop instead.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lock) { cv_.wait(lock.lock_); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace synscan::core
