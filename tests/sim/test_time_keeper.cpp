#include "sim/time_keeper.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "sim/env.h"
#include "sim/thread.h"

namespace doceph::sim {
namespace {

TEST(TimeKeeper, StartsAtZero) {
  TimeKeeper tk;
  EXPECT_EQ(tk.now(), 0);
}

TEST(TimeKeeper, SingleThreadSleepAdvancesInstantly) {
  TimeKeeper tk;
  const TimeKeeper::ThreadGuard guard(tk);
  tk.sleep_for(5_s);
  EXPECT_EQ(tk.now(), 5_s);
  tk.sleep_until(7_s);
  EXPECT_EQ(tk.now(), 7_s);
  tk.sleep_until(3_s);  // past deadline: no-op
  EXPECT_EQ(tk.now(), 7_s);
}

TEST(TimeKeeper, TwoThreadsInterleaveByDeadline) {
  Env env;
  std::vector<Time> order;
  std::mutex m;
  {
    auto hold = env.hold();
    Thread a = env.spawn("a", nullptr, [&] {
      env.keeper().sleep_until(10_ms);
      const std::lock_guard<std::mutex> lk(m);
      order.push_back(env.now());
    });
    Thread b = env.spawn("b", nullptr, [&] {
      env.keeper().sleep_until(5_ms);
      {
        const std::lock_guard<std::mutex> lk(m);
        order.push_back(env.now());
      }
      env.keeper().sleep_until(20_ms);
      const std::lock_guard<std::mutex> lk(m);
      order.push_back(env.now());
    });
    hold.release();
  }
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 5_ms);
  EXPECT_EQ(order[1], 10_ms);
  EXPECT_EQ(order[2], 20_ms);
}

TEST(TimeKeeper, CondVarNotifyWakesAtCurrentInstant) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  bool ready = false;
  Time woke_at = -1;

  auto hold = env.hold();
  Thread waiter = env.spawn("waiter", nullptr, [&] {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return ready; });
    woke_at = env.now();
  });
  Thread signaler = env.spawn("signaler", nullptr, [&] {
    env.keeper().sleep_for(30_ms);
    {
      const std::lock_guard<std::mutex> lk(m);
      ready = true;
    }
    cv.notify_one();
  });
  hold.release();
  waiter.join();
  signaler.join();
  EXPECT_EQ(woke_at, 30_ms);
}

TEST(TimeKeeper, CondVarWaitUntilTimesOut) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  bool timed_out = false;
  Time at = -1;
  Thread t = env.spawn("t", nullptr, [&] {
    std::unique_lock<std::mutex> lk(m);
    timed_out = !cv.wait_until(lk, 50_ms);
    at = env.now();
  });
  t.join();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(at, 50_ms);
}

TEST(TimeKeeper, CondVarNotifyBeatsTimeout) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  bool got_notify = false;
  auto hold = env.hold();
  Thread waiter = env.spawn("waiter", nullptr, [&] {
    std::unique_lock<std::mutex> lk(m);
    got_notify = cv.wait_until(lk, 100_ms);
  });
  Thread signaler = env.spawn("signaler", nullptr, [&] {
    env.keeper().sleep_for(10_ms);
    cv.notify_one();
  });
  hold.release();
  waiter.join();
  signaler.join();
  EXPECT_TRUE(got_notify);
  EXPECT_EQ(env.now(), 10_ms);
}

TEST(TimeKeeper, NotifyAllWakesEveryWaiter) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  bool go = false;
  std::atomic<int> woke{0};
  auto hold = env.hold();
  std::vector<Thread> waiters;
  for (int i = 0; i < 5; ++i) {
    waiters.push_back(env.spawn("w" + std::to_string(i), nullptr, [&] {
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return go; });
      woke.fetch_add(1);
    }));
  }
  Thread signaler = env.spawn("signaler", nullptr, [&] {
    env.keeper().sleep_for(1_ms);
    {
      const std::lock_guard<std::mutex> lk(m);
      go = true;
    }
    cv.notify_all();
  });
  hold.release();
  for (auto& w : waiters) w.join();
  EXPECT_EQ(woke.load(), 5);
}

TEST(TimeKeeper, NotifyOneWakesExactlyOne) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  int tokens = 0;
  std::atomic<int> consumed{0};
  auto hold = env.hold();
  std::vector<Thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.push_back(env.spawn("w" + std::to_string(i), nullptr, [&] {
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return tokens > 0; });
      --tokens;
      consumed.fetch_add(1);
    }));
  }
  Thread producer = env.spawn("producer", nullptr, [&] {
    for (int i = 0; i < 3; ++i) {
      env.keeper().sleep_for(1_ms);
      {
        const std::lock_guard<std::mutex> lk(m);
        ++tokens;
      }
      cv.notify_one();
    }
  });
  hold.release();
  for (auto& w : waiters) w.join();
  producer.join();
  EXPECT_EQ(consumed.load(), 3);
  EXPECT_EQ(tokens, 0);
}

TEST(TimeKeeper, DeadlockDetected) {
  Env env;
  std::mutex m;
  CondVar cv(env.keeper());
  std::atomic<bool> deadlocked{false};
  bool stop = false;
  env.keeper().set_deadlock_grace(std::chrono::milliseconds(50));
  env.keeper().set_deadlock_handler([&](const std::string& dump) {
    deadlocked.store(true);
    EXPECT_NE(dump.find("BLOCKED"), std::string::npos);
    {
      const std::lock_guard<std::mutex> lk(m);
      stop = true;  // make the waiters' predicates pass before the wake-all
    }
  });
  // Note: Env owns a scheduler thread that waits forever when idle, so two
  // forever-waiters here mean *all* threads are blocked without deadlines.
  std::vector<Thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.push_back(env.spawn("dead" + std::to_string(i), nullptr, [&] {
      std::unique_lock<std::mutex> lk(m);
      cv.wait(lk, [&] { return stop; });
    }));
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(deadlocked.load());
}

TEST(TimeKeeper, ManyThreadsConvergeOnSameTimeline) {
  Env env;
  constexpr int kThreads = 16;
  std::atomic<std::int64_t> sum{0};
  auto hold = env.hold();
  std::vector<Thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.push_back(env.spawn("m" + std::to_string(i), nullptr, [&, i] {
      for (int step = 1; step <= 10; ++step) {
        env.keeper().sleep_for(Duration{i + 1} * 1_ms);
      }
      sum.fetch_add(env.now());
    }));
  }
  hold.release();
  for (auto& t : threads) t.join();
  // Thread i finishes at 10*(i+1) ms exactly.
  std::int64_t expect = 0;
  for (int i = 0; i < kThreads; ++i) expect += Duration{10} * (i + 1) * 1_ms;
  EXPECT_EQ(sum.load(), expect);
  EXPECT_EQ(env.now(), Duration{10} * kThreads * 1_ms);
}

TEST(TimeKeeper, CtxSwitchesCountedOnBlocking) {
  Env env;
  auto stats = env.stats().add("ctx-probe");
  Thread t(env.keeper(), env.stats(), "ctx-probe2", nullptr, [&] {
    // The spawned thread has its own stats; use a fresh CondVar timeout wait
    // to check the per-thread counter via the registry instead.
    env.keeper().sleep_for(1_ms);
    env.keeper().sleep_for(1_ms);
  });
  t.join();
  // Two sleeps => at least two voluntary switches recorded for that thread.
  EXPECT_GE(env.stats().class_ctx_switches(ThreadClass::other), 2u);
  (void)stats;
}

}  // namespace
}  // namespace doceph::sim
