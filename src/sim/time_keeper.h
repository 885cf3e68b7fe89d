#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dbg/mutex.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace doceph::sim {

class CondVar;

/// The simulation clock and thread coordinator.
///
/// Time is virtual: every participating thread registers with the keeper and
/// performs ALL blocking through keeper primitives (sleep_* or
/// sim::CondVar). When every registered thread is blocked, the keeper
/// advances the clock to the earliest wake deadline — so a simulated minute
/// of cluster traffic finishes in wall milliseconds, deterministically,
/// regardless of host core count.
///
/// Discipline: a registered thread must never block on a bare std::
/// primitive for unbounded time — that would stall virtual time. std::mutex
/// critical sections are fine (they take zero simulated time).
class TimeKeeper {
 public:
  /// The one clock mode; kept so callers can name it explicitly.
  enum class Mode { virtual_time };

  explicit TimeKeeper(Mode mode = Mode::virtual_time);
  ~TimeKeeper();

  TimeKeeper(const TimeKeeper&) = delete;
  TimeKeeper& operator=(const TimeKeeper&) = delete;

  [[nodiscard]] Time now() const;

  /// Block the calling (registered) thread for `d` of simulated time.
  void sleep_for(Duration d);
  void sleep_until(Time t);

  /// Register / unregister the calling thread. Threads must be registered
  /// before sleeping or waiting on a sim::CondVar. `stats` may be null
  /// (e.g. housekeeping threads).
  ///
  /// `daemon` marks service threads that legitimately park forever waiting
  /// for work (event loops, thread pools, the scheduler). When every
  /// registered thread is blocked without a deadline, the keeper reports a
  /// deadlock only if a non-daemon thread is among them; an all-daemon
  /// quiescent system simply parks until an external notify.
  void register_current_thread(std::shared_ptr<ThreadStats> stats, bool daemon = false);
  void unregister_current_thread();

  /// RAII registration for externally created threads (gtest main thread...).
  class ThreadGuard {
   public:
    ThreadGuard(TimeKeeper& tk, std::shared_ptr<ThreadStats> stats = nullptr,
                bool daemon = false)
        : tk_(tk) {
      tk_.register_current_thread(std::move(stats), daemon);
    }
    ~ThreadGuard() { tk_.unregister_current_thread(); }  // NOLINT(bugprone-exception-escape): unregister takes the keeper lock; a throw terminates, by design
    ThreadGuard(const ThreadGuard&) = delete;
    ThreadGuard& operator=(const ThreadGuard&) = delete;

   private:
    TimeKeeper& tk_;
  };

  [[nodiscard]] int registered_threads() const;

  /// True iff the calling thread is registered with *this* keeper.
  [[nodiscard]] bool current_thread_registered() const;

  /// Invoked if the simulation deadlocks: every registered thread blocked
  /// with no wake deadline, at least one of them a non-daemon, and no state
  /// change for the grace period (an unregistered external thread — e.g. a
  /// test's main — may legitimately be about to spawn or notify, so the
  /// check is watchdog-based rather than instantaneous). Default prints a
  /// state dump and aborts. Tests override this to assert on detection;
  /// the handler should set shutdown predicates — all threads are then
  /// woken so predicate loops can unwind.
  void set_deadlock_handler(std::function<void(const std::string&)> h);

  /// Grace period (real time) before a suspected deadlock is reported.
  void set_deadlock_grace(std::chrono::milliseconds grace);

  /// While any AdvanceHold is alive the clock will not advance, even if all
  /// registered threads are blocked. Unregistered external threads (a test's
  /// main, cluster bring-up code) take one while spawning/configuring so the
  /// simulation cannot run ahead between two constructions; drop it before
  /// joining or waiting for results.
  class AdvanceHold {
   public:
    explicit AdvanceHold(TimeKeeper& tk) : tk_(&tk) { tk_->hold_advance(); }
    ~AdvanceHold() { release(); }  // NOLINT(bugprone-exception-escape): release takes the keeper lock; a throw terminates, by design
    AdvanceHold(AdvanceHold&& o) noexcept : tk_(o.tk_) { o.tk_ = nullptr; }
    AdvanceHold& operator=(AdvanceHold&&) = delete;
    AdvanceHold(const AdvanceHold&) = delete;
    AdvanceHold& operator=(const AdvanceHold&) = delete;

    /// Early release (idempotent).
    void release() {
      if (tk_ != nullptr) {
        tk_->release_advance();
        tk_ = nullptr;
      }
    }

   private:
    TimeKeeper* tk_;
  };

 private:
  friend class CondVar;

  struct ThreadRec {
    std::string name;
    std::shared_ptr<ThreadStats> stats;
    bool daemon = false;
    bool blocked = false;
    Time deadline = kTimeInfinity;
    bool notified = false;
    std::condition_variable cv;
  };

  /// Returns this thread's record; requires prior registration with *this*.
  ThreadRec& current_rec();

  /// Core wait: blocks rec until notified or simulated `deadline` passes.
  /// Requires `lk` to hold mutex_. Returns true iff woken by a notify.
  bool wait_locked(dbg::UniqueLock& lk, ThreadRec& rec, Time deadline);

  /// Wake a blocked record with "notified" semantics. Requires mutex_ held.
  void notify_locked(ThreadRec& rec);

  /// If all registered threads are blocked, advance the clock to the
  /// earliest deadline and wake the threads due then. Requires mutex_ held.
  void maybe_advance_locked();

  [[nodiscard]] std::string state_dump_locked() const;

  void watchdog_loop();
  void hold_advance();
  void release_advance();

  // Lockdep-tracked: the keeper's mutex is the terminal node of the lock
  // hierarchy — every notify/now() reaches it, so nothing may be acquired
  // while holding it.
  mutable dbg::Mutex mutex_{"sim.timekeeper"};
  Time now_ = 0;
  std::vector<ThreadRec*> threads_;
  int blocked_ = 0;
  std::function<void(const std::string&)> deadlock_handler_;

  // Deadlock watchdog: `epoch_` bumps on every state change
  // (register/unregister/notify/advance). When the system parks with a
  // non-daemon blocked forever, the watchdog samples the epoch; if it is
  // unchanged after the grace period, the deadlock path fires.
  std::uint64_t epoch_ = 0;
  int holds_ = 0;
  bool parked_suspect_ = false;
  std::chrono::milliseconds grace_{2000};
  bool watchdog_stop_ = false;
  std::condition_variable watchdog_cv_;  // real; paired with mutex_
  std::thread watchdog_;
};

/// Condition variable integrated with the TimeKeeper: waits park the thread
/// in simulated time; notifies wake it at the current simulated instant.
/// Usage is identical to std::condition_variable (user mutex + predicate
/// loop); wait_until/wait_for return false on timeout.
class CondVar {
 public:
  explicit CondVar(TimeKeeper& tk) noexcept : tk_(tk) {}
  ~CondVar();

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(std::unique_lock<std::mutex>& user_lock);
  [[nodiscard]] bool wait_until(std::unique_lock<std::mutex>& user_lock, Time deadline);
  [[nodiscard]] bool wait_for(std::unique_lock<std::mutex>& user_lock, Duration d);

  template <typename Pred>
  void wait(std::unique_lock<std::mutex>& user_lock, Pred pred) {
    while (!pred()) wait(user_lock);
  }

  /// Waits until pred() or the deadline; returns pred() (std-compatible).
  template <typename Pred>
  bool wait_until(std::unique_lock<std::mutex>& user_lock, Time deadline, Pred pred) {
    while (!pred()) {
      if (!wait_until(user_lock, deadline)) return pred();
    }
    return true;
  }

  void notify_one();
  void notify_all();

  [[nodiscard]] TimeKeeper& keeper() const noexcept { return tk_; }

 private:
  TimeKeeper& tk_;
  std::deque<TimeKeeper::ThreadRec*> waiters_;  // guarded by tk_.mutex_
};

}  // namespace doceph::sim
