// Reproduces paper Fig. 8: average write latency, Baseline vs DoCeph, across
// request sizes. In the paper the offload-induced gap is large at 1 MB and
// shrinks as pipelining amortizes the DMA overheads at larger sizes; the
// printed claim reads the gap off this run's own rows.
#include <cmath>
#include <cstdio>

#include "benchcore/experiment.h"
#include "benchcore/paper.h"
#include "benchcore/table.h"

using namespace doceph;
using namespace doceph::benchcore;

int main(int argc, char** argv) {
  print_banner("Figure 8", "Average write latency: Baseline vs DoCeph");

  Table t({"size", "Baseline (s)", "DoCeph (s)", "overhead", "paper: base",
           "paper: doceph", "paper overhead"});
  double overs[paper::kNumSizes] = {};
  for (int i = 0; i < paper::kNumSizes; ++i) {
    RunSpec base, dpu;
    base.mode = cluster::DeployMode::baseline;
    dpu.mode = cluster::DeployMode::doceph;
    base.object_size = dpu.object_size = paper::kSizes[i];
    apply_trace_flags(base, argc, argv);
    apply_trace_flags(dpu, argc, argv);
    const auto rb = run_cached(base);
    const auto rd = run_cached(dpu);
    const double over = rb.avg_lat_s > 0 ? rd.avg_lat_s / rb.avg_lat_s - 1.0 : 0;
    overs[i] = over;
    const double paper_over =
        paper::kFig8DoCeph[i] / paper::kFig8Baseline[i] - 1.0;
    t.row({paper::kSizeNames[i], Table::num(rb.avg_lat_s, 3),
           Table::num(rd.avg_lat_s, 3), Table::pct(over, 0),
           Table::num(paper::kFig8Baseline[i], 2),
           Table::num(paper::kFig8DoCeph[i], 2), Table::pct(paper_over, 0)});
  }
  t.print();
  // The claim is read off the rows above; the paper's own trend follows it.
  const auto versus = [](double over) {
    return Table::pct(std::abs(over), 0) + (over >= 0 ? " slower than" : " faster than");
  };
  const int last = paper::kNumSizes - 1;
  const double paper_first = paper::kFig8DoCeph[0] / paper::kFig8Baseline[0] - 1.0;
  const double paper_last = paper::kFig8DoCeph[last] / paper::kFig8Baseline[last] - 1.0;
  std::printf(
      "\nKey claim (from the rows above): DoCeph's writes are %s\n"
      "Baseline's at %s and %s them at %s, so the overhead %s.\n"
      "The paper's shrinks from %s at %s to %s at %s.\n",
      versus(overs[0]).c_str(), paper::kSizeNames[0], versus(overs[last]).c_str(),
      paper::kSizeNames[last],
      overs[last] < overs[0] ? "shrinks" : "does not shrink",
      Table::pct(paper_first, 0).c_str(), paper::kSizeNames[0],
      Table::pct(paper_last, 0).c_str(), paper::kSizeNames[last]);
  return 0;
}
