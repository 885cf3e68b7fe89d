#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

namespace doceph::dbg {

/// Lifetime gate for callbacks that can outlive their owner: device
/// completions booked on the longer-lived scheduler, client retry timers,
/// store callbacks into an OSD that a restart or a power cut destroyed.
/// The owner holds a shared_ptr, every callback it hands out holds another
/// and runs through run(); close() stops new runs and waits out the ones
/// already executing, after which the owner may be destroyed.
///
/// Plain std primitives, not the dbg:: ones: the critical sections are tiny,
/// run in real time, and must work from unregistered threads (test
/// teardown). close() must not be called from inside a gated callback.
class IoGate {
 public:
  /// Run `fn` unless the gate is closed.
  template <class Fn>
  void run(Fn&& fn) {
    {
      const std::lock_guard<std::mutex> lk(m_);
      if (!alive_) return;
      ++executing_;
    }
    std::forward<Fn>(fn)();
    {
      const std::lock_guard<std::mutex> lk(m_);
      --executing_;
    }
    cv_.notify_all();
  }

  /// Drop every later run() and wait for the ones already executing.
  void close() {
    std::unique_lock<std::mutex> lk(m_);
    alive_ = false;
    cv_.wait(lk, [&] { return executing_ == 0; });
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool alive_ = true;
  int executing_ = 0;
};

/// Wrap `fn` so each call runs through `gate` (and is dropped once it closes).
template <class Fn>
auto gated(std::shared_ptr<IoGate> gate, Fn fn) {
  return [gate = std::move(gate), fn = std::move(fn)](auto&&... args) mutable {
    gate->run([&] { fn(std::forward<decltype(args)>(args)...); });
  };
}

}  // namespace doceph::dbg
