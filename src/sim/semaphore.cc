#include "sim/semaphore.h"

#include <cassert>

#include "common/check.h"

namespace wimpy::sim {

Semaphore::Semaphore(Scheduler* sched, std::int64_t permits)
    : sched_(sched), available_(permits) {
  assert(sched != nullptr);
  Check(permits >= 0, "sim::Semaphore", "permits must be >= 0");
}

bool Semaphore::TryAcquire(std::int64_t n) {
  Check(n > 0, "sim::Semaphore", "request must be > 0 permits");
  // FIFO fairness: cannot jump ahead of queued waiters.
  if (waiters_.empty() && available_ >= n) {
    available_ -= n;
    in_use_ += n;
    return true;
  }
  return false;
}

void Semaphore::EnqueueWaiter(std::coroutine_handle<> h, std::int64_t n) {
  Check(n > 0, "sim::Semaphore", "request must be > 0 permits");
  waiters_.push_back(Waiter{h, n});
  if (waiters_.size() > peak_queue_) peak_queue_ = waiters_.size();
}

void Semaphore::Drain() {
  while (!waiters_.empty() && waiters_.front().n <= available_) {
    Waiter w = waiters_.front();
    waiters_.pop_front();
    available_ -= w.n;
    in_use_ += w.n;
    sched_->ResumeLater(w.handle);
  }
}

void Semaphore::Release(std::int64_t n) {
  // An over-release would silently raise the modelled capacity.
  Check(n > 0, "sim::Semaphore", "release must be > 0 permits");
  Check(in_use_ >= n, "sim::Semaphore", "released more permits than in use");
  in_use_ -= n;
  available_ += n;
  Drain();
}

}  // namespace wimpy::sim
