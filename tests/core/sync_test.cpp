#include "core/sync.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace synscan::core {
namespace {

// Compile-time behavior (violations rejected under clang) is covered by
// the threadsafety_fixtures test; these check the wrappers actually
// lock, exclude and wake at runtime on every toolchain.

TEST(SyncTest, TryLockReflectsOwnership) {
  // Each `try_lock` is a branch condition, the one form in which clang's
  // analysis knows the mutex is held where `unlock` releases it.
  Mutex mutex;
  if (mutex.try_lock()) {
    // std::mutex ownership is per-thread, so the contended probe must
    // come from another thread to be well-defined.
    std::thread prober([&mutex] { EXPECT_FALSE(mutex.try_lock()); });
    prober.join();
    mutex.unlock();
  } else {
    ADD_FAILURE() << "try_lock failed on a free mutex";
  }
  if (mutex.try_lock()) {
    mutex.unlock();
  } else {
    ADD_FAILURE() << "try_lock failed after unlock";
  }
}

TEST(SyncTest, MutexLockExcludesConcurrentWriters) {
  class Tally {
   public:
    void bump() SYNSCAN_EXCLUDES(mutex_) {
      const MutexLock lock(mutex_);
      ++count_;
    }
    [[nodiscard]] int value() const SYNSCAN_EXCLUDES(mutex_) {
      const MutexLock lock(mutex_);
      return count_;
    }

   private:
    mutable Mutex mutex_;
    int count_ SYNSCAN_GUARDED_BY(mutex_) = 0;
  };

  Tally tally;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tally] {
      for (int i = 0; i < kIncrements; ++i) tally.bump();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(tally.value(), kThreads * kIncrements);
}

TEST(SyncTest, CondVarWakesWaiter) {
  Mutex mutex;
  CondVar ready;
  bool go = false;
  bool observed = false;
  std::thread waiter([&] {
    UniqueLock lock(mutex);
    while (!go) ready.wait(lock);
    observed = true;
  });
  {
    const MutexLock lock(mutex);
    go = true;
  }
  ready.notify_one();
  waiter.join();
  EXPECT_TRUE(observed);
}

TEST(SyncTest, NotifyAllWakesEveryWaiter) {
  Mutex mutex;
  CondVar ready;
  bool go = false;
  int woken = 0;
  constexpr int kWaiters = 3;
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      UniqueLock lock(mutex);
      while (!go) ready.wait(lock);
      ++woken;
    });
  }
  {
    const MutexLock lock(mutex);
    go = true;
  }
  ready.notify_all();
  for (auto& waiter : waiters) waiter.join();
  EXPECT_EQ(woken, kWaiters);
}

}  // namespace
}  // namespace synscan::core
