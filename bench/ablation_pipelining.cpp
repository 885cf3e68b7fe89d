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
  for (const int slots : {1, 2, 4, 8}) {
    RunSpec spec;
    spec.mode = cluster::DeployMode::doceph;
    spec.object_size = 16 << 20;
    auto p = cluster::default_proxy();
    p.slots = slots;
    spec.proxy_override = p;
    const auto r = run_cached(spec);
    t.row({std::to_string(slots), Table::num(r.iops, 1), Table::num(r.avg_lat_s, 3),
           Table::num(r.bd_dma_wait_s, 4), Table::pct(r.host_cores)});
  }
  t.print();
  std::printf(
      "\nReading: DMA-wait collapses as staging depth grows — the paper's\n"
      "pipelining-on-one-region leaves most of that headroom on the table.\n");
  return 0;
}
