// Extension (paper §5.5, "future work"): the symmetric READ path. Client
// reads flow DPU -> host request via RPC, host-side BlueStore read, bulk
// data staged host-side and DMA'd back to the DPU. The paper predicts
// convergence at large sizes with even better relative performance than
// writes (no replication coordination); this bench checks that prediction.
#include <cmath>
#include <cstdio>

#include "benchcore/table.h"
#include "client/rados_bench.h"
#include "cluster/cluster.h"
#include "cluster/profiles.h"

using namespace doceph;
using namespace doceph::benchcore;

namespace {

struct ReadResult {
  double iops = 0;
  double avg_lat_s = 0;
};

ReadResult run_read_bench(cluster::DeployMode mode, std::uint64_t object_size) {
  sim::Env env;
  auto cfg = cluster::ClusterConfig::paper_testbed(mode, cluster::NetworkKind::gbe_100,
                                                   /*retain_data=*/true);
  // Reads need slots; give the read path a sane staging depth (the write
  // defaults model the paper's single region).
  cfg.proxy.slots = 8;
  cluster::Cluster cl(env, cfg);
  ReadResult out;

  env.run_on_sim_thread([&] {
    if (!cl.start().ok()) return;
    auto io = cl.client().io_ctx(1);

    // Populate a working set.
    constexpr int kObjects = 48;
    BufferList payload;
    payload.append_zero(object_size);
    for (int i = 0; i < kObjects; ++i)
      (void)io.write_full("robj" + std::to_string(i), payload);

    // Closed-loop read phase: 16 readers, 3 simulated seconds.
    constexpr int kReaders = 16;
    const sim::Time end = env.now() + 3'000'000'000;
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::int64_t> lat_sum{0};
    std::mutex m;
    sim::CondVar done_cv(env.keeper());
    int remaining = kReaders;
    {
      std::vector<sim::Thread> readers;
      auto hold = sim::TimeKeeper::AdvanceHold(env.keeper());
      for (int t = 0; t < kReaders; ++t) {
        readers.push_back(env.spawn(
            "bench-reader-" + std::to_string(t), &cl.client_cpu(), [&, t] {
              unsigned seq = static_cast<unsigned>(t);
              while (env.now() < end) {
                const sim::Time t0 = env.now();
                auto r = io.read("robj" + std::to_string(seq++ % kObjects), 0, 0);
                if (r.ok()) {
                  ops.fetch_add(1);
                  lat_sum.fetch_add(env.now() - t0);
                }
              }
              const std::lock_guard<std::mutex> lk(m);
              if (--remaining == 0) done_cv.notify_all();
            }));
      }
      hold.release();
      std::unique_lock<std::mutex> lk(m);
      done_cv.wait(lk, [&] { return remaining == 0; });
      readers.clear();
    }
    out.iops = static_cast<double>(ops.load()) / 3.0;
    out.avg_lat_s =
        ops.load() > 0
            ? static_cast<double>(lat_sum.load()) / static_cast<double>(ops.load()) * 1e-9
            : 0;
    cl.stop();
  });
  return out;
}

}  // namespace

int main() {
  print_banner("Extension (paper §5.5)", "Read path: Baseline vs DoCeph");

  Table t({"size", "Baseline IOPS", "DoCeph IOPS", "Baseline lat (s)",
           "DoCeph lat (s)", "DoCeph/Baseline"});
  constexpr std::uint64_t kSizes[] = {1u << 20, 4u << 20, 16u << 20};
  double ratios[3] = {};
  for (int i = 0; i < 3; ++i) {
    const auto rb = run_read_bench(cluster::DeployMode::baseline, kSizes[i]);
    const auto rd = run_read_bench(cluster::DeployMode::doceph, kSizes[i]);
    ratios[i] = rb.iops > 0 ? rd.iops / rb.iops : 0;
    t.row({std::to_string(kSizes[i] >> 20) + "MB", Table::num(rb.iops, 1),
           Table::num(rd.iops, 1), Table::num(rb.avg_lat_s, 4),
           Table::num(rd.avg_lat_s, 4), Table::pct(ratios[i], 0)});
  }
  t.print();
  std::printf(
      "\nReading (from the rows above): DoCeph reads run at %s of Baseline's\n"
      "IOPS at 1MB and %s at 16MB, so they %s Baseline as size grows.\n"
      "The paper predicts (§5.5) that reads converge at large sizes like\n"
      "writes do, with no replication coordination in the way.\n",
      Table::pct(ratios[0], 0).c_str(), Table::pct(ratios[2], 0).c_str(),
      std::abs(1.0 - ratios[2]) < std::abs(1.0 - ratios[0]) ? "converge toward"
                                                            : "do NOT converge toward");
  return 0;
}
