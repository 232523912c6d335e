// Unbounded FIFO channel between simulation processes.
//
// Producers call Push() (never blocks); consumers `co_await queue.Get()`.
// Used for request queues, shuffle streams and task dispatch. Delivery is
// strictly FIFO for both items and waiting consumers.
#ifndef WIMPY_SIM_WAIT_QUEUE_H_
#define WIMPY_SIM_WAIT_QUEUE_H_

#include <cassert>
#include <coroutine>
#include <deque>
#include <optional>
#include <utility>

#include "sim/scheduler.h"

namespace wimpy::sim {

template <typename T>
class WaitQueue {
 public:
  explicit WaitQueue(Scheduler* sched) : sched_(sched) {
    assert(sched != nullptr);
  }

  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Enqueues an item; if a consumer is waiting, delivers to the one that
  // has waited longest.
  void Push(T item) {
    if (!waiters_.empty()) {
      Waiter* w = waiters_.front();
      waiters_.pop_front();
      w->value = std::move(item);
      sched_->ResumeLater(w->handle);
      return;
    }
    items_.push_back(std::move(item));
    if (items_.size() > peak_depth_) peak_depth_ = items_.size();
  }

  // Awaitable retrieval:  T item = co_await queue.Get();
  auto Get() {
    struct Awaiter {
      WaitQueue* queue;
      Waiter slot;
      bool await_ready() {
        if (!queue->items_.empty() && queue->waiters_.empty()) {
          slot.value = std::move(queue->items_.front());
          queue->items_.pop_front();
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        slot.handle = h;
        queue->waiters_.push_back(&slot);
      }
      T await_resume() {
        assert(slot.value.has_value());
        return std::move(*slot.value);
      }
    };
    return Awaiter{this, {}};
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t waiter_count() const { return waiters_.size(); }
  std::size_t peak_depth() const { return peak_depth_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T> value;
  };

  Scheduler* sched_;
  std::deque<T> items_;
  // Raw pointers into awaiter objects living in suspended coroutine frames;
  // stable until the coroutine resumes.
  std::deque<Waiter*> waiters_;
  std::size_t peak_depth_ = 0;
};

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_WAIT_QUEUE_H_
