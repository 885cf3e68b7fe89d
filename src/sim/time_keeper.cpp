#include "sim/time_keeper.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/thread_name.h"

namespace doceph::sim {
namespace {

// Which keeper (if any) the current OS thread is registered with, plus its
// record. A thread belongs to at most one keeper at a time.
thread_local TimeKeeper* t_keeper = nullptr;
thread_local void* t_rec = nullptr;

/// Sim threads take turns in virtual time, so glibc's per-thread malloc
/// arenas buy no parallelism here; they only strand freed memory in
/// whichever arena a thread happened to pick. Measured on the e2e
/// benchmark's DoCeph write_16k run (4-core x86): peak RSS +25% with
/// per-thread arenas once several DPU proxy threads allocated concurrently,
/// back to the live-data level with one arena, at no wall-time cost.
void use_single_malloc_arena() {
#if defined(__GLIBC__)
  static const bool once = (mallopt(M_ARENA_MAX, 1), true);
  (void)once;
#endif
}

}  // namespace

TimeKeeper::TimeKeeper(Mode /*mode*/) {
  use_single_malloc_arena();
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

TimeKeeper::~TimeKeeper() {  // NOLINT(bugprone-exception-escape): teardown stops the watchdog; a throw terminates, by design
  {
    const dbg::LockGuard lock(mutex_);
    watchdog_stop_ = true;
    watchdog_cv_.notify_all();
    assert(threads_.empty() && "threads still registered at TimeKeeper teardown");
  }
  if (watchdog_.joinable()) watchdog_.join();
}

Time TimeKeeper::now() const {
  const dbg::LockGuard lock(mutex_);
  return now_;
}

void TimeKeeper::register_current_thread(std::shared_ptr<ThreadStats> stats,
                                         bool daemon) {
  assert(t_keeper == nullptr && "thread already registered with a TimeKeeper");
  auto* rec = new ThreadRec;
  rec->name = current_thread_name();
  rec->stats = std::move(stats);
  rec->daemon = daemon;
  {
    const dbg::LockGuard lock(mutex_);
    threads_.push_back(rec);
    ++epoch_;
    parked_suspect_ = false;
  }
  t_keeper = this;
  t_rec = rec;
}

void TimeKeeper::unregister_current_thread() {
  assert(t_keeper == this && "thread not registered with this TimeKeeper");
  auto* rec = static_cast<ThreadRec*>(t_rec);
  {
    const dbg::LockGuard lock(mutex_);
    assert(!rec->blocked);
    threads_.erase(std::find(threads_.begin(), threads_.end(), rec));
    ++epoch_;
    parked_suspect_ = false;
    // Remaining threads may now all be blocked; let time move on.
    maybe_advance_locked();
  }
  delete rec;
  t_keeper = nullptr;
  t_rec = nullptr;
}

bool TimeKeeper::current_thread_registered() const { return t_keeper == this; }

int TimeKeeper::registered_threads() const {
  const dbg::LockGuard lock(mutex_);
  return static_cast<int>(threads_.size());
}

void TimeKeeper::set_deadlock_handler(std::function<void(const std::string&)> h) {
  const dbg::LockGuard lock(mutex_);
  deadlock_handler_ = std::move(h);
}

void TimeKeeper::set_deadlock_grace(std::chrono::milliseconds grace) {
  const dbg::LockGuard lock(mutex_);
  grace_ = grace;
}

TimeKeeper::ThreadRec& TimeKeeper::current_rec() {
  assert(t_keeper == this &&
         "calling thread must be registered with this TimeKeeper before blocking");
  return *static_cast<ThreadRec*>(t_rec);
}

void TimeKeeper::sleep_for(Duration d) { sleep_until(now() + std::max<Duration>(d, 0)); }

void TimeKeeper::sleep_until(Time t) {
  ThreadRec& rec = current_rec();
  dbg::UniqueLock lk(mutex_);
  (void)wait_locked(lk, rec, t);
}

bool TimeKeeper::wait_locked(dbg::UniqueLock& lk, ThreadRec& rec,
                             Time deadline) {
  if (deadline <= now_) return false;  // already due; no block, no switch
  rec.blocked = true;
  rec.deadline = deadline;
  rec.notified = false;
  ++blocked_;
  if (rec.stats) rec.stats->ctx_switches.fetch_add(1, std::memory_order_relaxed);
  maybe_advance_locked();
  while (rec.blocked) rec.cv.wait(lk.inner());
  return rec.notified;
}

void TimeKeeper::notify_locked(ThreadRec& rec) {
  if (!rec.blocked) return;
  rec.blocked = false;
  rec.notified = true;
  --blocked_;
  ++epoch_;
  parked_suspect_ = false;
  rec.cv.notify_one();
}

void TimeKeeper::hold_advance() {
  const dbg::LockGuard lock(mutex_);
  ++holds_;
  ++epoch_;
  parked_suspect_ = false;
}

void TimeKeeper::release_advance() {
  const dbg::LockGuard lock(mutex_);
  --holds_;
  ++epoch_;
  if (holds_ == 0) maybe_advance_locked();
}

void TimeKeeper::maybe_advance_locked() {
  if (threads_.empty() || blocked_ != static_cast<int>(threads_.size())) return;

  Time min_deadline = kTimeInfinity;
  for (const auto* rec : threads_)
    if (rec->blocked) min_deadline = std::min(min_deadline, rec->deadline);

  if (holds_ > 0) {
    // An external thread holds advancement. If every registered thread is
    // blocked, someone had better release that hold — arm the watchdog so a
    // registered thread blocking under its own hold (a bug) gets reported
    // instead of hanging silently.
    bool any_nondaemon = false;
    for (const auto* rec : threads_) any_nondaemon |= !rec->daemon;
    if (any_nondaemon) {
      parked_suspect_ = true;
      watchdog_cv_.notify_all();
    }
    return;
  }

  if (min_deadline == kTimeInfinity) {
    // Nothing scheduled. If only daemon service threads are parked, the
    // system is quiescent; an external notify will resume it. A parked
    // non-daemon is *suspicious* — but an unregistered external thread may
    // be about to spawn or notify, so hand the case to the watchdog rather
    // than deciding now.
    bool any_nondaemon = false;
    for (const auto* rec : threads_) any_nondaemon |= !rec->daemon;
    if (any_nondaemon) {
      parked_suspect_ = true;
      watchdog_cv_.notify_all();
    }
    return;
  }

  now_ = std::max(now_, min_deadline);
  ++epoch_;
  parked_suspect_ = false;
  for (auto* rec : threads_) {
    if (rec->blocked && rec->deadline <= now_) {
      rec->blocked = false;  // timeout wake: notified stays false
      --blocked_;
      rec->cv.notify_one();
    }
  }
}

void TimeKeeper::watchdog_loop() {
  dbg::UniqueLock lk(mutex_);
  while (!watchdog_stop_) {
    if (!parked_suspect_) {
      watchdog_cv_.wait(lk.inner());
      continue;
    }
    const std::uint64_t epoch_at_park = epoch_;
    watchdog_cv_.wait_for(lk.inner(), grace_);
    if (watchdog_stop_) break;
    if (!parked_suspect_ || epoch_ != epoch_at_park) continue;  // progress happened

    const std::string dump = state_dump_locked();
    parked_suspect_ = false;
    if (holds_ > 0) {
      // Could be a slow (real-time) external constructor rather than a
      // deadlock; warn loudly but keep waiting.
      std::fprintf(stderr,
                   "WARNING: all sim threads blocked while an AdvanceHold is "
                   "held — possible hold-while-blocking bug\n%s",
                   dump.c_str());
      continue;
    }
    if (deadlock_handler_) {
      // Run the handler without the lock (it may query the keeper), then
      // wake every blocked thread so shutdown predicates can unwind.
      auto handler = deadlock_handler_;
      lk.unlock();
      handler(dump);
      lk.lock();
      for (auto* rec : threads_) notify_locked(*rec);
      continue;
    }
    std::fprintf(stderr,
                 "FATAL: simulation deadlock — all %zu threads blocked forever\n%s",
                 threads_.size(), dump.c_str());
    std::abort();
  }
}

std::string TimeKeeper::state_dump_locked() const {
  std::ostringstream os;
  os << "simulated now=" << now_ << "ns, threads:\n";
  for (const auto* rec : threads_) {
    os << "  " << rec->name << ": " << (rec->blocked ? "BLOCKED" : "RUNNABLE");
    if (rec->blocked) {
      if (rec->deadline == kTimeInfinity)
        os << " (forever)";
      else
        os << " (until " << rec->deadline << "ns)";
    }
    os << '\n';
  }
  return os.str();
}

// ---- CondVar ----------------------------------------------------------------

CondVar::~CondVar() { assert(waiters_.empty() && "CondVar destroyed with waiters"); }

void CondVar::wait(std::unique_lock<std::mutex>& user_lock) {
  (void)wait_until(user_lock, kTimeInfinity);
}

bool CondVar::wait_until(std::unique_lock<std::mutex>& user_lock, Time deadline) {
  TimeKeeper::ThreadRec& rec = tk_.current_rec();
  dbg::UniqueLock lk(tk_.mutex_);
  waiters_.push_back(&rec);
  user_lock.unlock();
  const bool notified = tk_.wait_locked(lk, rec, deadline);
  // Remove ourselves if still queued (timeout, or a blanket wake that did not
  // come through notify_one/notify_all). Unconditional: prevents any stale
  // pointer from lingering in the deque after this frame unwinds.
  auto it = std::find(waiters_.begin(), waiters_.end(), &rec);
  if (it != waiters_.end()) waiters_.erase(it);
  lk.unlock();
  user_lock.lock();
  return notified;
}

bool CondVar::wait_for(std::unique_lock<std::mutex>& user_lock, Duration d) {
  return wait_until(user_lock, tk_.now() + std::max<Duration>(d, 0));
}

void CondVar::notify_one() {
  const dbg::LockGuard lk(tk_.mutex_);
  while (!waiters_.empty()) {
    auto* rec = waiters_.front();
    waiters_.pop_front();
    if (rec->blocked) {
      tk_.notify_locked(*rec);
      break;
    }
    // else: already timed out; it will not re-queue — skip it.
  }
}

void CondVar::notify_all() {
  const dbg::LockGuard lk(tk_.mutex_);
  for (auto* rec : waiters_) tk_.notify_locked(*rec);
  waiters_.clear();
}

}  // namespace doceph::sim
