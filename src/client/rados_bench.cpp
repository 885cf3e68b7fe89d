#include "client/rados_bench.h"

#include <atomic>

#include "common/logger.h"
#include "dbg/cond_var.h"
#include "dbg/mutex.h"

namespace doceph::client {

BenchResult RadosBench::run(sim::CpuDomain* domain) {
  sim::Env& env = client_.env();
  Histogram latency;
  std::atomic<std::uint64_t> total_ops{0};
  std::atomic<std::uint64_t> failed_ops{0};

  // All writers share one payload allocation (the messenger and stores never
  // mutate sent buffers), so generating data is not a bottleneck.
  BufferList payload;
  {
    Slice s = Slice::allocate(cfg_.object_size);
    for (std::uint64_t i = 0; i < cfg_.object_size; ++i)
      s.mutable_data()[i] = static_cast<char>(i * 1315423911u >> 16);
    payload.append(std::move(s));
  }

  const sim::Time start = env.now();
  const sim::Time end = start + cfg_.duration;
  IoCtx io = client_.io_ctx(cfg_.pool);

  // The caller is typically a registered sim thread: it must not block in
  // real time (std::thread::join) while the clock thinks it is runnable.
  // Writers therefore announce completion through a sim CondVar; the joins
  // afterwards return immediately.
  dbg::Mutex done_mutex{"bench.done"};
  dbg::CondVar done_cv(env.keeper(), "bench.done_cv");
  int remaining = cfg_.concurrency;

  {
    auto hold = sim::TimeKeeper::AdvanceHold(env.keeper());
    std::vector<sim::Thread> writers;
    writers.reserve(static_cast<std::size_t>(cfg_.concurrency));
    for (int t = 0; t < cfg_.concurrency; ++t) {
      writers.push_back(env.spawn(
          "bench-writer-" + std::to_string(t), domain,
          [&, t] {
            std::uint64_t seq = 0;
            while (env.now() < end) {
              const std::string name = cfg_.prefix + "_" + std::to_string(t) + "_" +
                                       std::to_string(seq++);
              const sim::Time t0 = env.now();
              const Status st = io.write_full(name, payload);
              if (!st.ok()) {
                DLOG(warn, "bench") << "write failed: " << st.to_string();
                failed_ops.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              latency.record(static_cast<std::uint64_t>(env.now() - t0));
              total_ops.fetch_add(1, std::memory_order_relaxed);
            }
            const dbg::LockGuard lk(done_mutex);
            if (--remaining == 0) done_cv.notify_all();
          }));
    }
    hold.release();
    {
      dbg::UniqueLock lk(done_mutex);
      done_cv.wait(lk, [&] {
        done_mutex.assert_held();  // predicate runs as a separate function
        return remaining == 0;
      });
    }
    writers.clear();  // threads already exited; joins return immediately
  }

  BenchResult result;
  result.ops = total_ops.load();
  result.failed = failed_ops.load();
  result.seconds = sim::to_seconds(env.now() - start);
  result.latency = latency.snapshot();
  return result;
}

}  // namespace doceph::client
