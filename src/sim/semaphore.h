// Counting semaphore with multi-permit requests and FIFO hand-off.
//
// Models bounded resources held for spans of virtual time: worker threads,
// connection slots, YARN container memory, cache capacity. Requests may ask
// for several permits at once (e.g. megabytes of RAM); the queue is strictly
// FIFO — a large request at the head blocks later smaller ones, which is the
// no-starvation behaviour of the admission queues being modelled.
#ifndef WIMPY_SIM_SEMAPHORE_H_
#define WIMPY_SIM_SEMAPHORE_H_

#include <coroutine>
#include <cstdint>

#include "sim/ring_buffer.h"
#include "sim/scheduler.h"

namespace wimpy::sim {

class Semaphore {
 public:
  // `permits` is the initial count.
  Semaphore(Scheduler* sched, std::int64_t permits);

  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  // Awaitable acquisition of `n` permits:  co_await sem.Acquire(n);
  auto Acquire(std::int64_t n = 1) {
    struct Awaiter {
      Semaphore* sem;
      std::int64_t n;
      bool await_ready() const { return sem->TryAcquire(n); }
      void await_suspend(std::coroutine_handle<> h) {
        sem->EnqueueWaiter(h, n);
      }
      void await_resume() const {}
    };
    return Awaiter{this, n};
  }

  // Non-blocking acquisition; returns true on success.
  bool TryAcquire(std::int64_t n = 1);

  // Returns `n` permits; wakes queued waiters whose requests now fit.
  void Release(std::int64_t n = 1);

  std::int64_t available() const { return available_; }
  std::size_t queue_length() const { return waiters_.size(); }
  std::size_t peak_queue_length() const { return peak_queue_; }
  std::int64_t in_use() const { return in_use_; }

  // Internal: appends a suspended acquirer. Used by the awaiter types in
  // this header; not part of the user API.
  void EnqueueWaiter(std::coroutine_handle<> h, std::int64_t n);

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::int64_t n;
  };

  // Wakes front waiters while their requests fit in available_.
  void Drain();

  Scheduler* sched_;
  std::int64_t available_;
  std::int64_t in_use_ = 0;
  std::size_t peak_queue_ = 0;
  RingDeque<Waiter> waiters_;  // steady-state allocation-free FIFO
};

// RAII scoped permit block for coroutine code paths that may exit early:
//
//   SemaphoreGuard guard(sem, megabytes);
//   co_await guard.Acquired();
//   ... // permits released when guard leaves scope
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& sem, std::int64_t n = 1)
      : sem_(&sem), n_(n) {}
  ~SemaphoreGuard() {
    if (held_) sem_->Release(n_);
  }
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;

  auto Acquired() {
    struct Awaiter {
      SemaphoreGuard* guard;
      bool await_ready() const {
        if (guard->sem_->TryAcquire(guard->n_)) {
          guard->held_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        guard->sem_->EnqueueWaiter(h, guard->n_);
      }
      // On wake-up the permits were already transferred to this waiter.
      void await_resume() const { guard->held_ = true; }
    };
    return Awaiter{this};
  }

  bool held() const { return held_; }

  // Releases early (e.g. before a long phase that should not hold it).
  void Release() {
    if (held_) {
      sem_->Release(n_);
      held_ = false;
    }
  }

 private:
  Semaphore* sem_;
  std::int64_t n_;
  bool held_ = false;
};

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_SEMAPHORE_H_
