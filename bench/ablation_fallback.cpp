// Exercises the paper's §4 robustness machinery under injected DMA errors:
// adaptive fallback to the RPC path, cooldown, and probe-based reactivation.
// The system must keep committing writes correctly at every error rate.
#include <cstdint>
#include <cstdio>

#include "benchcore/experiment.h"
#include "benchcore/table.h"

using namespace doceph;
using namespace doceph::benchcore;

int main() {
  print_banner("Ablation", "DMA error injection: fallback + cooldown + probe");

  Table t({"error rate", "IOPS", "avg lat (s)", "failed ops", "fallback events",
           "RPC fallback MB"});
  constexpr double kRates[] = {0.0, 0.001, 0.01, 0.05};
  double clean_iops = 0, last_iops = 0, last_rpc_mb = 0;
  std::uint64_t failed = 0;
  for (const double rate : kRates) {
    RunSpec spec;
    spec.mode = cluster::DeployMode::doceph;
    spec.object_size = 4 << 20;
    spec.dma_failure_rate = rate;
    const auto r = run_experiment(spec);
    if (rate == 0) clean_iops = r.iops;
    last_iops = r.iops;
    last_rpc_mb = static_cast<double>(r.rpc_fallback_bytes) / 1e6;
    failed += r.failed_ops;
    t.row({Table::pct(rate, 1), Table::num(r.iops, 1), Table::num(r.avg_lat_s, 3),
           std::to_string(r.failed_ops), std::to_string(r.dma_fallback_events),
           Table::num(last_rpc_mb, 1)});
  }
  t.print();
  std::printf(
      "\nReading (from the rows above): at %s DMA errors the cell runs %s of\n"
      "its error-free IOPS, with %.1f MB re-routed over RPC; %llu ops failed\n"
      "across all rates, so %s.\n",
      Table::pct(kRates[3], 1).c_str(),
      Table::pct(clean_iops > 0 ? last_iops / clean_iops : 0).c_str(), last_rpc_mb,
      static_cast<unsigned long long>(failed),
      failed == 0 ? "every write still commits" : "NOT every write commits");
  return 0;
}
