#pragma once

#include <optional>
#include <utility>

#include "dbg/mutex.h"
#include "sim/time_keeper.h"

namespace doceph::dbg {

/// sim::CondVar with lockdep instrumentation: the drop-in condition variable
/// for code using dbg::Mutex. Semantics are sim::CondVar's (waits park the
/// thread in simulated time; notifies wake it at the current instant), plus
/// check (c) from dbg/lockdep.h: a registered sim thread must not wait while
/// holding any tracked lock other than the one it is waiting with — the
/// extra lock would stay held across the park and stall every contender,
/// i.e. stall simulated time.
///
/// Header-only by design: dbg's compiled core stays free of sim so the
/// dependency arrow runs sim -> dbg only.
///
/// Thread-safety analysis: wait() atomically releases and reacquires the
/// lock inside the substrate, invisible to the analysis — which matches the
/// caller-visible contract (the lock is held before and after), so no
/// annotation is needed or possible (the mutex identity lives inside `lk`).
class CondVar {
 public:
  /// `name` appears in lockdep reports (e.g. "bluestore.aio_cv").
  explicit CondVar(sim::TimeKeeper& tk, const char* name = "dbg::CondVar") noexcept
      : cv_(tk), name_(name) {}

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lk) {
    pre_wait(lk);
    cv_.wait(lk.inner());
  }

  /// Waits until notified or `deadline` (simulated); false on timeout.
  [[nodiscard]] bool wait_until(UniqueLock& lk, sim::Time deadline) {
    pre_wait(lk);
    return cv_.wait_until(lk.inner(), deadline);
  }

  [[nodiscard]] bool wait_for(UniqueLock& lk, sim::Duration d) {
    pre_wait(lk);
    return cv_.wait_for(lk.inner(), d);
  }

  template <typename Pred>
  void wait(UniqueLock& lk, Pred pred) {
    while (!pred()) wait(lk);
  }

  /// Waits until pred() or the deadline; returns pred() (std-compatible).
  template <typename Pred>
  bool wait_until(UniqueLock& lk, sim::Time deadline, Pred pred) {
    while (!pred()) {
      if (!wait_until(lk, deadline)) return pred();
    }
    return true;
  }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

  [[nodiscard]] sim::TimeKeeper& keeper() const noexcept { return cv_.keeper(); }

 private:
  void pre_wait(UniqueLock& lk) {
    lockdep::cond_wait_check(lk.mutex(), cv_.keeper().current_thread_registered(),
                             name_);
  }

  sim::CondVar cv_;
  const char* name_;
};

/// Blocking adapter over a completion-driven call: runs `start(done)`, parks
/// the calling sim thread until `done` (exactly once, inline or from any
/// thread) has run, and returns its value. `name` labels the wait for lockdep.
template <typename T, typename Start>
T await(sim::TimeKeeper& tk, const char* name, Start&& start) {
  Mutex m{name};
  CondVar cv(tk, name);
  std::optional<T> out;
  std::forward<Start>(start)([&](T v) {
    const LockGuard lk(m);
    out.emplace(std::move(v));
    cv.notify_all();
  });
  UniqueLock lk(m);
  cv.wait(lk, [&] { return out.has_value(); });
  return std::move(*out);
}

}  // namespace doceph::dbg
