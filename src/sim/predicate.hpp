// Non-owning reference to a `bool()` callable: the condition a poll loop
// re-checks after every extract. Two words, no allocation, one indirect
// call per check. The callable must outlive the poll. A lambda written in
// `co_await ep.poll_until([&] { ... })` does: temporaries live to the end of
// the full-expression, which is the end of the awaited poll.
//
// The constructor is user-declared, so passing a Predicate by value into a
// coroutine stays clear of the GCC 12 aggregate bug (sim/task.hpp).
#pragma once

#include <memory>
#include <type_traits>

namespace fmx::sim {

class Predicate {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, Predicate> &&
             std::is_invocable_r_v<bool, F&>)
  Predicate(F&& f) noexcept  // implicit: call sites pass a lambda
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* o) -> bool {
          return (*static_cast<std::remove_reference_t<F>*>(o))();
        }) {}

  bool operator()() const { return call_(obj_); }

 private:
  void* obj_;
  bool (*call_)(void*);
};

}  // namespace fmx::sim
