// Ablation of the paper's §3.3 pipelining design: staging-buffer depth
// (DMA-capable slot count) at 16 MB, where segmentation pressure is
// highest. Shows what the single pre-established region costs and what
// deeper pipelines would buy.
#include "benchcore/experiment.h"
#include "benchcore/table.h"
#include "cluster/profiles.h"

using namespace doceph;
using namespace doceph::benchcore;

int main() {
  print_banner("Ablation", "DMA pipelining: staging slot depth (16MB)");

  Table t({"slots", "IOPS", "avg lat (s)", "DMA-wait (s)", "host CPU"});
  constexpr int kSlots[] = {1, 2, 4, 8};
  RunResult first, last;
  for (const int slots : kSlots) {
    RunSpec spec;
    spec.mode = cluster::DeployMode::doceph;
    spec.object_size = 16 << 20;
    auto p = cluster::default_proxy();
    p.slots = slots;
    spec.proxy_override = p;
    const auto r = run_experiment(spec);
    if (slots == kSlots[0]) first = r;
    last = r;
    t.row({std::to_string(slots), Table::num(r.iops, 1), Table::num(r.avg_lat_s, 3),
           Table::num(r.bd_dma_wait_s, 4), Table::pct(r.host_cores)});
  }
  t.print();
  std::printf(
      "\nReading (from the rows above): DMA-wait is %.4f s at %d slot and %.4f s\n"
      "at %d, so it %s as staging depth grows; IOPS goes %.1f -> %.1f.\n",
      first.bd_dma_wait_s, kSlots[0], last.bd_dma_wait_s, kSlots[3],
      last.bd_dma_wait_s < first.bd_dma_wait_s ? "falls" : "does NOT fall", first.iops,
      last.iops);
  return 0;
}
