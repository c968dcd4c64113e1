// FifoMutex: a ticket lock that grants ownership in arrival order.
//
// std::mutex makes no fairness promise, and glibc's does not hand off: a
// thread that unlocks and immediately re-locks usually wins against a
// waiter that the unlock just woke. A session driven by a tight ingest
// loop on one thread and interactive statements on another then starves
// the statements until the loop pauses. FifoMutex takes a ticket on lock
// and serves tickets in order, so a waiter queues behind at most the
// holders that arrived before it.
//
// BasicLockable, so std::lock_guard / std::unique_lock work unchanged. The
// uncontended lock/unlock pair costs one internal mutex round trip each
// and no condition-variable signal.

#ifndef CHRONICLE_COMMON_FIFO_MUTEX_H_
#define CHRONICLE_COMMON_FIFO_MUTEX_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace chronicle {

class FifoMutex {
 public:
  FifoMutex() = default;
  FifoMutex(const FifoMutex&) = delete;
  FifoMutex& operator=(const FifoMutex&) = delete;

  void lock() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t ticket = next_ticket_++;
    cv_.wait(lock, [&] { return serving_ == ticket; });
  }

  void unlock() {
    std::lock_guard<std::mutex> lock(mu_);
    ++serving_;
    // Tickets issued past the one now served belong to waiters. Notifying
    // under mu_ keeps the object alive until the call returns, even if
    // the next owner destroys it.
    if (next_ticket_ != serving_) cv_.notify_all();
  }

  // Threads that hold the lock or wait for it. A snapshot for tests and
  // diagnostics; it may change as soon as it is read.
  uint64_t queued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_ticket_ - serving_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_ticket_ = 0;  // ticket the next lock() call takes
  uint64_t serving_ = 0;      // ticket that owns the lock (or owns it next)
};

}  // namespace chronicle

#endif  // CHRONICLE_COMMON_FIFO_MUTEX_H_
