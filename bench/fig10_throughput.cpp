// Reproduces paper Fig. 10: average throughput (IOPS), Baseline vs DoCeph,
// across write request sizes 1-16 MB.
#include <cmath>
#include <cstdio>

#include "benchcore/experiment.h"
#include "benchcore/paper.h"
#include "benchcore/table.h"

using namespace doceph;
using namespace doceph::benchcore;

int main(int argc, char** argv) {
  print_banner("Figure 10", "Throughput (IOPS): Baseline vs DoCeph");

  Table t({"size", "Baseline IOPS", "DoCeph IOPS", "gap", "paper: base",
           "paper: doceph", "paper gap"});
  double gaps[paper::kNumSizes] = {};
  for (int i = 0; i < paper::kNumSizes; ++i) {
    RunSpec base, dpu;
    base.mode = cluster::DeployMode::baseline;
    dpu.mode = cluster::DeployMode::doceph;
    base.object_size = dpu.object_size = paper::kSizes[i];
    apply_trace_flags(base, argc, argv);
    apply_trace_flags(dpu, argc, argv);
    const auto rb = run_cached(base);
    const auto rd = run_cached(dpu);
    const double gap = rb.iops > 0 ? 1.0 - rd.iops / rb.iops : 0;
    gaps[i] = gap;
    const double paper_gap = 1.0 - paper::kFig10DoCeph[i] / paper::kFig10Baseline[i];
    t.row({paper::kSizeNames[i], Table::num(rb.iops, 0), Table::num(rd.iops, 0),
           Table::pct(gap, 0), Table::num(paper::kFig10Baseline[i], 0),
           Table::num(paper::kFig10DoCeph[i], 0), Table::pct(paper_gap, 0)});
  }
  t.print();
  // The claim is read off the rows above; the paper's own trend follows it.
  const auto versus = [](double gap) {
    return Table::pct(std::abs(gap), 0) + (gap >= 0 ? " behind" : " ahead of");
  };
  const int last = paper::kNumSizes - 1;
  const double paper_first = 1.0 - paper::kFig10DoCeph[0] / paper::kFig10Baseline[0];
  const double paper_last = 1.0 - paper::kFig10DoCeph[last] / paper::kFig10Baseline[last];
  std::printf(
      "\nKey claim (from the rows above): DoCeph runs %s Baseline at %s\n"
      "and %s it at %s, so the gap %s. The paper's gap narrows\n"
      "from %s at %s to %s at %s. Host CPU: Fig. 7.\n",
      versus(gaps[0]).c_str(), paper::kSizeNames[0], versus(gaps[last]).c_str(),
      paper::kSizeNames[last],
      std::abs(gaps[last]) < std::abs(gaps[0]) ? "narrows" : "does not narrow",
      Table::pct(paper_first, 0).c_str(), paper::kSizeNames[0],
      Table::pct(paper_last, 0).c_str(), paper::kSizeNames[last]);
  return 0;
}
