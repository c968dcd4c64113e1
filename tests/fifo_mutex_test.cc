// Tests for FifoMutex (src/common/fifo_mutex.h): mutual exclusion under
// contention, and arrival-order hand-off checked without sleeps — each
// thread's arrival is observed through queued() before the next step.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fifo_mutex.h"

namespace chronicle {
namespace {

// Spins (yielding) until `mu` has `n` holders plus waiters.
void AwaitQueued(const FifoMutex& mu, uint64_t n) {
  while (mu.queued() != n) std::this_thread::yield();
}

TEST(FifoMutexTest, MutualExclusionUnderContention) {
  FifoMutex mu;
  constexpr int kThreads = 4;
  constexpr int kIterations = 5000;
  int64_t counter = 0;  // plain int: only the lock protects it
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        std::lock_guard<FifoMutex> lock(mu);
        if (inside.fetch_add(1) != 0) overlap = true;
        ++counter;
        inside.fetch_sub(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(overlap.load());
  EXPECT_EQ(counter, int64_t{kThreads} * kIterations);
  EXPECT_EQ(mu.queued(), 0u);
}

TEST(FifoMutexTest, QueuedCountsHolderAndWaiters) {
  FifoMutex mu;
  EXPECT_EQ(mu.queued(), 0u);
  mu.lock();
  EXPECT_EQ(mu.queued(), 1u);
  std::thread waiter([&] {
    std::lock_guard<FifoMutex> lock(mu);
  });
  AwaitQueued(mu, 2);
  mu.unlock();
  waiter.join();
  EXPECT_EQ(mu.queued(), 0u);
}

// The case std::mutex gets wrong in practice: the holder unlocks and
// re-locks at once (the wire ingest worker between two bodies) while a
// woken waiter is still being scheduled. The waiter must go first.
TEST(FifoMutexTest, RelockingHolderDoesNotOvertakeQueuedWaiter) {
  FifoMutex mu;
  std::vector<std::string> order;  // appended under mu
  mu.lock();
  std::thread waiter([&] {
    std::lock_guard<FifoMutex> lock(mu);
    order.push_back("waiter");
  });
  AwaitQueued(mu, 2);  // the waiter holds the next ticket
  mu.unlock();
  mu.lock();  // queues behind the waiter
  order.push_back("holder");
  mu.unlock();
  waiter.join();
  EXPECT_EQ(order, (std::vector<std::string>{"waiter", "holder"}));
}

// Several waiters are served strictly in the order they queued.
TEST(FifoMutexTest, WaitersAreServedInArrivalOrder) {
  FifoMutex mu;
  constexpr int kWaiters = 4;
  std::vector<int> order;  // appended under mu
  mu.lock();
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      std::lock_guard<FifoMutex> lock(mu);
      order.push_back(w);
    });
    AwaitQueued(mu, static_cast<uint64_t>(w) + 2);  // w has its ticket
  }
  mu.unlock();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace chronicle
