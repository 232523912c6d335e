// Coroutine-based simulation processes.
//
// A simulation actor is written as a plain C++20 coroutine returning
// `Process`:
//
//   sim::Process Worker(sim::Scheduler& sched, Server& server) {
//     co_await sim::Delay(sched, 0.5);        // sleep virtual time
//     co_await server.cpu().Serve(1e6);       // consume resources
//   }
//
//   sim::Spawn(sched, Worker(sched, server));           // fire and forget
//   sim::ProcessRef ref = sim::SpawnJoinable(sched, Worker(sched, server));
//   ...
//   co_await ref.Join();                      // wait for completion
//
// Lifetime model: both spawn forms hand the coroutine frame to the
// scheduler, and the frame destroys itself when the coroutine finishes
// (at final suspend). The two forms differ only in join state:
//   * `Spawn` is fire-and-forget. The process carries no join state: no
//     `ProcessState`, no `shared_ptr` refcount, no joiners to wake. Load
//     generators spawn one of these per connection or query.
//   * `SpawnJoinable` allocates a pooled shared `ProcessState` and returns
//     a `ProcessRef` to it. At final suspend the frame marks the state done
//     and wakes its joiners before destroying itself; `ProcessRef` only
//     references that state, so it is safe to keep or drop at any time.
// A `Process` that is never spawned destroys its frame in the destructor.
// Spawning a moved-from or already-spawned `Process` aborts with a message
// in every build type.
#ifndef WIMPY_SIM_PROCESS_H_
#define WIMPY_SIM_PROCESS_H_

#include <array>
#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/frame_pool.h"
#include "sim/scheduler.h"

namespace wimpy::sim {

namespace internal_process {

// Shared between the running coroutine and any ProcessRef handles.
// Joiners nearly always number 0 or 1 (a Transfer joining its segment
// pumps, a parent joining a child), so the first two live inline and
// only pathological fan-in touches the overflow vector — keeping the
// spawn/join path allocation-free.
struct ProcessState {
  Scheduler* sched = nullptr;
  bool done = false;
  std::uint8_t inline_joiners = 0;
  std::array<std::coroutine_handle<>, 2> joiners{};
  std::vector<std::coroutine_handle<>> overflow_joiners;

  void AddJoiner(std::coroutine_handle<> h) {
    if (inline_joiners < joiners.size()) {
      joiners[inline_joiners++] = h;
    } else {
      overflow_joiners.push_back(h);
    }
  }

  // Wakes joiners in arrival order (inline slots filled first).
  void WakeJoiners() {
    for (std::uint8_t i = 0; i < inline_joiners; ++i) {
      sched->ResumeLater(joiners[i]);
    }
    inline_joiners = 0;
    for (auto joiner : overflow_joiners) sched->ResumeLater(joiner);
    overflow_joiners.clear();
  }
};

}  // namespace internal_process

// Join handle for a spawned process. Copyable and cheap.
class ProcessRef {
 public:
  ProcessRef() = default;
  explicit ProcessRef(std::shared_ptr<internal_process::ProcessState> state)
      : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  bool done() const { return state_ == nullptr || state_->done; }

  // Awaitable that completes when the process finishes. Safe to await after
  // completion (resumes immediately) and from multiple joiners.
  auto Join() const {
    struct Awaiter {
      std::shared_ptr<internal_process::ProcessState> state;
      bool await_ready() const noexcept {
        return state == nullptr || state->done;
      }
      void await_suspend(std::coroutine_handle<> h) {
        state->AddJoiner(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{state_};
  }

 private:
  std::shared_ptr<internal_process::ProcessState> state_;
};

// Coroutine return type for simulation processes.
class Process {
 public:
  struct promise_type {
    // Join state: null unless SpawnJoinable set it. State and frame both
    // recycle through the frame pool: the shared state's control block via
    // allocate_shared, the coroutine frame via the pooled operator new
    // below.
    std::shared_ptr<internal_process::ProcessState> state;

    static void* operator new(std::size_t bytes) { return PoolAlloc(bytes); }
    static void operator delete(void* p, std::size_t bytes) noexcept {
      PoolFree(p, bytes);
    }

    Process get_return_object() {
      return Process(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        if (h.promise().state != nullptr) {
          // Moved out, so it outlives destroy() without a refcount bump.
          auto state = std::move(h.promise().state);
          state->done = true;
          state->WakeJoiners();
        }
        h.destroy();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { std::abort(); }
  };

  Process(Process&& other) noexcept : handle_(other.handle_) {
    other.handle_ = nullptr;
  }
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      DestroyIfUnspawned();
      handle_ = other.handle_;
      other.handle_ = nullptr;
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ~Process() { DestroyIfUnspawned(); }

 private:
  friend void Spawn(Scheduler& sched, Process process);
  friend ProcessRef SpawnJoinable(Scheduler& sched, Process process);

  explicit Process(std::coroutine_handle<promise_type> handle)
      : handle_(handle) {}

  // Hands the frame over to the scheduler: from here it owns itself.
  std::coroutine_handle<promise_type> Release(const char* where) {
    Check(handle_ != nullptr, where, "process already spawned or moved");
    return std::exchange(handle_, nullptr);
  }

  void DestroyIfUnspawned() {
    if (handle_ != nullptr) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_ = nullptr;
};

// Starts a fire-and-forget process at the scheduler's current time. The
// coroutine begins executing when the scheduler reaches the spawn event,
// not inside Spawn(). The initial resumption rides the scheduler's fast
// lane (no allocation, no heap operation) while keeping its place in the
// deterministic (time, sequence) order. Nothing can join the process.
inline void Spawn(Scheduler& sched, Process process) {
  sched.ResumeLater(process.Release("sim::Spawn"));
}

// Starts a process like Spawn and returns a handle to join it by. The
// join state is the one allocation Spawn does not make.
inline ProcessRef SpawnJoinable(Scheduler& sched, Process process) {
  auto handle = process.Release("sim::SpawnJoinable");
  auto state = std::allocate_shared<internal_process::ProcessState>(
      PoolAllocator<internal_process::ProcessState>{});
  state->sched = &sched;
  handle.promise().state = state;
  sched.ResumeLater(handle);
  return ProcessRef(std::move(state));
}

// Awaitable virtual-time sleep. A zero (or negative) delay still yields
// through the event queue — via the fast lane, since it is just a same-time
// wake-up — which is the idiomatic way to defer to other same-time events.
inline auto Delay(Scheduler& sched, Duration delay) {
  struct Awaiter {
    Scheduler* sched;
    Duration delay;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      if (delay <= 0) {
        sched->ResumeLater(h);
      } else {
        sched->ScheduleAfter(delay, [h] { h.resume(); });
      }
    }
    void await_resume() const noexcept {}
  };
  return Awaiter{&sched, delay};
}

}  // namespace wimpy::sim

#endif  // WIMPY_SIM_PROCESS_H_
