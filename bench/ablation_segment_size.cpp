// Ablation of the DMA segment size under the 2 MB hardware cap (paper §3.3 /
// [Kashyap et al.]): smaller segments mean more jobs and more per-job setup;
// the cap itself is why segmentation exists at all.
#include "benchcore/experiment.h"
#include "benchcore/table.h"
#include "cluster/profiles.h"
#include "doca/dma_engine.h"

using namespace doceph;
using namespace doceph::benchcore;

int main() {
  print_banner("Ablation", "DMA segment size (16MB writes; hardware cap = 2MB)");

  Table t({"segment", "IOPS", "avg lat (s)", "DMA (s)", "DMA-wait (s)"});
  constexpr std::uint64_t kSegments[] = {512u << 10, 1u << 20, 2u << 20};
  RunResult first, last;
  std::uint64_t best_seg = 0;
  double best_iops = -1;
  for (const std::uint64_t seg : kSegments) {
    RunSpec spec;
    spec.mode = cluster::DeployMode::doceph;
    spec.object_size = 16 << 20;
    auto p = cluster::default_proxy();
    p.segment_size = seg;
    spec.proxy_override = p;
    const auto r = run_experiment(spec);
    if (seg == kSegments[0]) first = r;
    last = r;
    if (r.iops > best_iops) {
      best_iops = r.iops;
      best_seg = seg;
    }
    t.row({std::to_string(seg >> 10) + "KB", Table::num(r.iops, 1),
           Table::num(r.avg_lat_s, 3), Table::num(r.bd_dma_s, 4),
           Table::num(r.bd_dma_wait_s, 4)});
  }
  t.print();
  std::printf(
      "\nReading (from the rows above): %lluKB segments cost %.4f s of DMA per\n"
      "write and run %.1f IOPS; %lluKB segments, %.4f s and %.1f IOPS. The\n"
      "fastest is %lluKB, %s.\n",
      static_cast<unsigned long long>(kSegments[0] >> 10), first.bd_dma_s, first.iops,
      static_cast<unsigned long long>(kSegments[2] >> 10), last.bd_dma_s, last.iops,
      static_cast<unsigned long long>(best_seg >> 10),
      best_seg == kSegments[2] ? "the hardware cap itself" : "NOT the hardware cap");

  // The cap itself: a single job above 2 MB is rejected by the engine.
  sim::Env env;
  doca::PcieLink link;
  doca::DmaEngine dma(env, link, doca::DmaConfig{});
  auto m = std::make_shared<doca::Mmap>(4 << 20);
  const auto st = dma.submit({m, 0, 3 << 20}, {m, 0, 3 << 20},
                             doca::DmaDir::dpu_to_host, [](Status) {});
  std::printf("\n3MB single DMA job -> %s (the constraint that forces "
              "segmentation)\n", st.to_string().c_str());
  return 0;
}
