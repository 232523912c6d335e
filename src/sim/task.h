// Lazy awaitable coroutine subroutine.
//
// `Task<T>` is the composition primitive below `Process`: a coroutine that
// starts when awaited, transfers control back to its awaiter on completion
// (symmetric transfer, so arbitrarily deep chains use O(1) native stack),
// and yields a value of type T.
//
//   sim::Task<Bytes> ReadBlock(StorageDevice& dev, Bytes n) {
//     co_await dev.Read(n);
//     co_return n;
//   }
//
//   sim::Process TopLevel(...) {        // spawned on the scheduler
//     Bytes n = co_await ReadBlock(dev, MiB(16));
//   }
//
// A Task must be awaited at most once; destroying an unawaited Task frees
// the frame. Tasks are move-only.
#ifndef WIMPY_SIM_TASK_H_
#define WIMPY_SIM_TASK_H_

#include <cassert>
#include <coroutine>
#include <cstdlib>
#include <optional>
#include <utility>

#include "sim/frame_pool.h"

namespace wimpy::sim {

namespace internal_task {

struct PromiseBase {
  std::coroutine_handle<> continuation;

  // Task frames are the model layer's steady-state allocation (one per
  // co_await'd subroutine); recycle them through the thread-local frame
  // pool so the serve path is allocation-free after warm-up.
  static void* operator new(std::size_t bytes) { return PoolAlloc(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    PoolFree(p, bytes);
  }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      // Resume whoever awaited us; the frame is destroyed by ~Task.
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { std::abort(); }
};

}  // namespace internal_task

template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal_task::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    // Emplaced, so a move-only, non-assignable T (an awaiter handed to
    // the caller's frame) can be returned.
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;  // start the task now
      }
      T await_resume() {
        assert(handle.promise().value.has_value());
        return std::move(*handle.promise().value);
      }
    };
    return Awaiter{handle_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}

  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal_task::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().continuation = awaiting;
        return handle;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{handle_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}

  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_TASK_H_
