// Coroutine synchronization primitives on top of the event engine.
// Wakeups are scheduled through the engine at the current timestamp (never
// resumed inline), which keeps event ordering deterministic and stacks flat.
// Waiter queues are RingQueues: steady-state waiting/waking does not touch
// the allocator (std::deque would churn a node allocation per ~64 waits).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <vector>

#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "sim/task.hpp"

namespace fmx::sim {

/// Mesa-style condition variable: `while (!pred) co_await cv.wait();`
class CondVar {
 public:
  explicit CondVar(Engine& eng) : eng_(eng) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  auto wait() {
    struct Awaiter {
      CondVar& cv;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        cv.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void notify_one() {
    if (waiters_.empty()) return;
    eng_.schedule_at(eng_.now(), waiters_.take_front());
  }

  void notify_all() {
    while (!waiters_.empty()) {
      eng_.schedule_at(eng_.now(), waiters_.take_front());
    }
  }

  std::size_t waiting() const noexcept { return waiters_.size(); }
  /// Pre-size the waiter queue so up to `n` waiters never allocate.
  void reserve(std::size_t n) { waiters_.reserve(n); }

 private:
  Engine& eng_;
  RingQueue<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore with FIFO handoff (a release while waiters exist
/// transfers the token directly to the oldest waiter).
class Semaphore {
 public:
  Semaphore(Engine& eng, long initial) : eng_(eng), count_(initial) {
    assert(initial >= 0);
  }
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore& s;
      bool await_ready() const noexcept {
        if (s.count_ > 0) {
          --s.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        s.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  bool try_acquire() noexcept {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  void release(long n = 1) {
    for (long i = 0; i < n; ++i) {
      if (!waiters_.empty()) {
        // token handed to the waiter
        eng_.schedule_at(eng_.now(), waiters_.take_front());
      } else {
        ++count_;
      }
    }
  }

  long available() const noexcept { return count_; }
  std::size_t waiting() const noexcept { return waiters_.size(); }

 private:
  Engine& eng_;
  long count_;
  RingQueue<std::coroutine_handle<>> waiters_;
};

/// One-shot latch: waiters block until open() fires; waits after that
/// complete immediately.
class Gate {
 public:
  explicit Gate(Engine& eng) : eng_(eng) {}
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  auto wait() {
    struct Awaiter {
      Gate& g;
      bool await_ready() const noexcept { return g.open_; }
      void await_suspend(std::coroutine_handle<> h) {
        g.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void open() {
    if (open_) return;
    open_ = true;
    for (auto h : waiters_) eng_.schedule_at(eng_.now(), h);
    waiters_.clear();
  }

  bool is_open() const noexcept { return open_; }

 private:
  Engine& eng_;
  bool open_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Fork/join helper: spawn several root tasks, then co_await join().
class JoinSet {
 public:
  explicit JoinSet(Engine& eng) : eng_(eng), done_(eng) {}

  void spawn(Task<void> t) {
    ++pending_;
    eng_.spawn(wrap(std::move(t)));
  }

  Task<void> join() {
    if (pending_ > 0) co_await done_.wait();
  }

 private:
  Task<void> wrap(Task<void> t) {
    co_await std::move(t);
    if (--pending_ == 0) done_.open();
  }

  Engine& eng_;
  int pending_ = 0;
  Gate done_;
};

}  // namespace fmx::sim
