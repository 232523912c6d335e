// Growable ring-buffer FIFO with steady-state allocation-free push/pop.
//
// libstdc++'s std::deque allocates and frees a block every ~512 bytes of
// throughput even when the queue's *size* is stable — at 100k+
// connections that is a malloc per handful of semaphore waits or
// TIME_WAIT closes (docs/scale.md). RingDeque keeps one power-of-two
// backing array: push_back/pop_front are index bumps, and the array only
// reallocates when the high-water population grows, so after warm-up the
// serve path performs zero heap operations here
// (tests/model_alloc_test.cc pins this).
//
// Supports exactly the FIFO surface Semaphore and TcpHost need: push_back,
// pop_front, front and size. T must be default-constructible and movable.
#ifndef WIMPY_SIM_RING_BUFFER_H_
#define WIMPY_SIM_RING_BUFFER_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace wimpy::sim {

template <typename T>
class RingDeque {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  T& front() {
    assert(count_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return slots_[head_];
  }

  void push_back(T value) {
    if (count_ == slots_.size()) Grow();
    slots_[(head_ + count_) & mask_] = std::move(value);
    ++count_;
  }

  void pop_front() {
    assert(count_ > 0);
    slots_[head_] = T{};  // release resources held by the slot now
    head_ = (head_ + 1) & mask_;
    --count_;
  }

 private:
  void Grow() {
    const std::size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<T> grown(capacity);
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(grown);
    head_ = 0;
    mask_ = capacity - 1;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_RING_BUFFER_H_
