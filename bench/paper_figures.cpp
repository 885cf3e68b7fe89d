// Reproduces the paper's evaluation (§5): Figs. 5-10 and Tables 2-3. It
// runs nine cells of the simulated testbed once each -- Baseline and DoCeph
// writes of 1/4/8/16 MB over 100 Gbps, plus Baseline 4 MB over 1 Gbps --
// and prints every figure and table from those runs. Each key claim is
// computed from the rows it follows, next to the paper's own numbers.
//
//   paper_figures [--trace-out FILE] [--trace-sample N]
//
// A `%k` in the trace path expands to the cell name, one trace per cell.
// stderr names each cell once, with its op count and wall time. Exits 1
// when any cell completes no op or fails one: a figure built from such a
// run is wrong.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "benchcore/experiment.h"
#include "benchcore/paper.h"
#include "benchcore/table.h"

using namespace doceph;
using namespace doceph::benchcore;

namespace {

constexpr int kLast = paper::kNumSizes - 1;
constexpr int k4MB = 1;  // paper::kSizes[1]

/// The nine cells every figure reads.
struct Cells {
  RunResult base[paper::kNumSizes];    // Baseline, 100 Gbps
  RunResult doceph[paper::kNumSizes];  // DoCeph, 100 Gbps
  RunResult base_1g;                   // Baseline 4 MB, 1 Gbps (Figs. 5, 6)
};

/// Runs one cell; false when its run is unusable for a figure.
bool run_cell(RunSpec spec, int argc, char** argv, RunResult& out) {
  apply_trace_flags(spec, argc, argv);
  const auto t0 = std::chrono::steady_clock::now();
  out = run_experiment(spec);
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - t0;
  const bool ok = out.ops > 0 && out.failed_ops == 0;
  std::fprintf(stderr,
               "[paper_figures] %s: %.2f IOPS, %llu ops, %llu failed, %.1f s wall%s\n",
               spec.cell_name().c_str(), out.iops,
               static_cast<unsigned long long>(out.ops),
               static_cast<unsigned long long>(out.failed_ops), wall.count(),
               ok ? "" : "  <- unusable");
  return ok;
}

/// "12% slower than" / "5% faster than" for a relative difference.
std::string versus(double diff, const char* up, const char* down) {
  return Table::pct(std::abs(diff), 0) + (diff >= 0 ? up : down);
}

void fig5(const Cells& c) {
  print_banner("Figure 5", "CPU breakdown: Messenger / ObjectStore / OSD (Baseline, 4MB)");
  Table t({"network", "Messenger", "ObjectStore", "OSD threads", "total Ceph CPU",
           "paper: msgr share", "paper: total"});
  const RunResult* rs[] = {&c.base_1g, &c.base[k4MB]};
  const char* names[] = {"1Gbps", "100Gbps"};
  const double paper_share[] = {paper::kFig5MessengerShare1G,
                                paper::kFig5MessengerShare100G};
  const double paper_total[] = {paper::kFig5TotalCpu1G, paper::kFig5TotalCpu100G};
  bool dominates = true;
  for (int i = 0; i < 2; ++i) {
    const RunResult& r = *rs[i];
    dominates = dominates && r.share_messenger > r.share_objectstore &&
                r.share_messenger > r.share_osd;
    t.row({names[i], Table::pct(r.share_messenger), Table::pct(r.share_objectstore),
           Table::pct(r.share_osd), Table::pct(r.total_ceph_cores),
           Table::pct(paper_share[i]), Table::pct(paper_total[i])});
  }
  t.print();
  std::printf(
      "\nKey claim (from the rows above): the Messenger takes %s of Ceph CPU\n"
      "at 1 Gbps and %s at 100 Gbps, %s at both link speeds,\n"
      "while total Ceph CPU grows %s -> %s of a core.\n"
      "The paper's: %s and %s, total %s -> %s.\n",
      Table::pct(rs[0]->share_messenger).c_str(),
      Table::pct(rs[1]->share_messenger).c_str(),
      dominates ? "the largest share" : "NOT the largest share",
      Table::pct(rs[0]->total_ceph_cores).c_str(),
      Table::pct(rs[1]->total_ceph_cores).c_str(), Table::pct(paper_share[0]).c_str(),
      Table::pct(paper_share[1]).c_str(), Table::pct(paper_total[0]).c_str(),
      Table::pct(paper_total[1]).c_str());
}

void fig6(const Cells& c) {
  print_banner("Figure 6", "Throughput under 1Gbps vs 100Gbps (Baseline, 4MB)");
  Table t({"network", "throughput MB/s", "IOPS", "link MB/s", "link use"});
  const RunResult* rs[] = {&c.base_1g, &c.base[k4MB]};
  const char* names[] = {"1Gbps", "100Gbps"};
  const double link_mbps[] = {125, 12500};
  double use[2];
  for (int i = 0; i < 2; ++i) {
    use[i] = rs[i]->mbps / link_mbps[i];
    t.row({names[i], Table::num(rs[i]->mbps, 1), Table::num(rs[i]->iops, 1),
           Table::num(link_mbps[i], 0), Table::pct(use[i])});
  }
  t.print();
  // Headers and acks take the rest of a saturated link's line rate.
  const auto caps = [](double u) {
    return u >= 0.8 ? "the link caps them" : "the link does NOT cap them";
  };
  std::printf(
      "\nKey claim (from the rows above): at 1 Gbps the writes fill %s of\n"
      "the link, so %s; at 100 Gbps they move %.1fx the bytes\n"
      "in %s of the link, so %s.\n"
      "The paper: link-bound at 1 Gbps, SSD-bound at 100 Gbps.\n",
      Table::pct(use[0]).c_str(), caps(use[0]),
      rs[0]->mbps > 0 ? rs[1]->mbps / rs[0]->mbps : 0.0, Table::pct(use[1]).c_str(),
      caps(use[1]));
}

void tab2(const Cells& c) {
  print_banner("Table 2", "Context switches: Messenger vs ObjectStore (Baseline, 4MB)");
  const RunResult& r = c.base[k4MB];
  const double per_s_m = static_cast<double>(r.ctx_messenger) / r.window_s;
  const double per_s_o = static_cast<double>(r.ctx_objectstore) / r.window_s;
  const double ratio = per_s_o > 0 ? per_s_m / per_s_o : 0;
  Table t({"component", "ctx switches/s", "measured ratio", "paper count",
           "paper ratio"});
  t.row({"Messenger", Table::num(per_s_m, 0), Table::num(ratio, 2) + "x",
         Table::num(paper::kTab2Messenger, 0), Table::num(paper::kTab2Ratio, 2) + "x"});
  t.row({"ObjectStore", Table::num(per_s_o, 0), "1x",
         Table::num(paper::kTab2ObjectStore, 0), "1x"});
  t.print();
  std::printf(
      "\nKey claim (from the rows above): Messenger threads switch context\n"
      "%.2fx as often as ObjectStore threads (paper: %.2fx).\n",
      ratio, paper::kTab2Ratio);
}

void fig7(const Cells& c) {
  print_banner("Figure 7", "Host CPU utilization: Baseline vs DoCeph");
  Table t({"size", "Baseline host", "DoCeph host", "savings", "DPU (DoCeph)",
           "paper: base", "paper: doceph", "paper savings"});
  double lo = 1, hi = 0, paper_lo = 1, paper_hi = 0, host_lo = 1e9, host_hi = 0;
  for (int i = 0; i < paper::kNumSizes; ++i) {
    const RunResult& rb = c.base[i];
    const RunResult& rd = c.doceph[i];
    const double savings = rb.host_cores > 0 ? 1.0 - rd.host_cores / rb.host_cores : 0;
    const double paper_savings = 1.0 - paper::kFig7DoCeph[i] / paper::kFig7Baseline[i];
    lo = std::min(lo, savings);
    hi = std::max(hi, savings);
    paper_lo = std::min(paper_lo, paper_savings);
    paper_hi = std::max(paper_hi, paper_savings);
    host_lo = std::min(host_lo, rd.host_cores);
    host_hi = std::max(host_hi, rd.host_cores);
    t.row({paper::kSizeNames[i], Table::pct(rb.host_cores), Table::pct(rd.host_cores),
           Table::pct(savings), Table::num(rd.dpu_cores, 2) + " cores",
           Table::num(paper::kFig7Baseline[i], 1) + "%",
           Table::num(paper::kFig7DoCeph[i], 2) + "%", Table::pct(paper_savings)});
  }
  t.print();
  std::printf(
      "\nKey claim (from the rows above): DoCeph cuts host CPU by %s-%s\n"
      "across 1-16 MB, leaving the host %s-%s of a core.\n"
      "The paper's savings: %s-%s.\n",
      Table::pct(lo).c_str(), Table::pct(hi).c_str(), Table::pct(host_lo).c_str(),
      Table::pct(host_hi).c_str(), Table::pct(paper_lo).c_str(),
      Table::pct(paper_hi).c_str());
}

void fig8(const Cells& c) {
  print_banner("Figure 8", "Average write latency: Baseline vs DoCeph");
  Table t({"size", "Baseline (s)", "DoCeph (s)", "overhead", "paper: base",
           "paper: doceph", "paper overhead"});
  double overs[paper::kNumSizes] = {};
  for (int i = 0; i < paper::kNumSizes; ++i) {
    const RunResult& rb = c.base[i];
    const RunResult& rd = c.doceph[i];
    overs[i] = rb.avg_lat_s > 0 ? rd.avg_lat_s / rb.avg_lat_s - 1.0 : 0;
    const double paper_over = paper::kFig8DoCeph[i] / paper::kFig8Baseline[i] - 1.0;
    t.row({paper::kSizeNames[i], Table::num(rb.avg_lat_s, 3),
           Table::num(rd.avg_lat_s, 3), Table::pct(overs[i], 0),
           Table::num(paper::kFig8Baseline[i], 2), Table::num(paper::kFig8DoCeph[i], 2),
           Table::pct(paper_over, 0)});
  }
  t.print();
  const double paper_first = paper::kFig8DoCeph[0] / paper::kFig8Baseline[0] - 1.0;
  const double paper_last = paper::kFig8DoCeph[kLast] / paper::kFig8Baseline[kLast] - 1.0;
  std::printf(
      "\nKey claim (from the rows above): DoCeph's writes are %s\n"
      "Baseline's at %s and %s them at %s,\n"
      "so the overhead %s. The paper's shrinks from %s at %s to %s at %s.\n",
      versus(overs[0], " slower than", " faster than").c_str(), paper::kSizeNames[0],
      versus(overs[kLast], " slower than", " faster than").c_str(),
      paper::kSizeNames[kLast], overs[kLast] < overs[0] ? "shrinks" : "does not shrink",
      Table::pct(paper_first, 0).c_str(), paper::kSizeNames[0],
      Table::pct(paper_last, 0).c_str(), paper::kSizeNames[kLast]);
}

/// Table 3's four parts of a DoCeph write, in row order.
struct Part {
  const char* name;
  double RunResult::* field;
  const double* paper;
};
constexpr Part kParts[] = {
    {"Host write", &RunResult::bd_host_write_s, paper::kTab3HostWrite},
    {"DMA", &RunResult::bd_dma_s, paper::kTab3Dma},
    {"DMA-wait", &RunResult::bd_dma_wait_s, paper::kTab3DmaWait},
    {"Others", &RunResult::bd_others_s, paper::kTab3Others},
};

void tab3(const Cells& c) {
  print_banner("Table 3", "DoCeph latency breakdown (seconds)");
  Table t({"row", "1MB", "4MB", "8MB", "16MB"});
  auto row = [&](const char* name, double RunResult::* f, const double* ref) {
    std::vector<std::string> cells{name};
    for (const auto& r : c.doceph) cells.push_back(Table::num(r.*f, 4));
    t.row(std::move(cells));
    std::vector<std::string> pcells{std::string("  (paper ") + name + ")"};
    for (int i = 0; i < paper::kNumSizes; ++i) pcells.push_back(Table::num(ref[i], 4));
    t.row(std::move(pcells));
  };
  for (const Part& p : kParts) row(p.name, p.field, p.paper);
  row("Total avg latency", &RunResult::bd_total_s, paper::kTab3Total);
  t.print();
  // The largest part per size, here and in the paper; and the DMA row, the
  // one the DMA engine model is fitted to.
  std::string ours, theirs;
  double dma_err = 0;
  for (int i = 0; i < paper::kNumSizes; ++i) {
    const Part* mine = &kParts[0];
    const Part* ref = &kParts[0];
    for (const Part& p : kParts) {
      if (c.doceph[i].*p.field > c.doceph[i].*mine->field) mine = &p;
      if (p.paper[i] > ref->paper[i]) ref = &p;
    }
    const std::string sep = i == 0 ? "" : " / ";
    ours += sep + mine->name;
    theirs += sep + ref->name;
    dma_err = std::max(dma_err,
                       std::abs(c.doceph[i].bd_dma_s / paper::kTab3Dma[i] - 1.0));
  }
  std::printf(
      "\nKey claim (from the rows above): the largest part at 1/4/8/16 MB is\n"
      "%s (paper: %s).\n"
      "The DMA row is within %s of the paper's at every size.\n",
      ours.c_str(), theirs.c_str(), Table::pct(dma_err, 0).c_str());
}

void fig9(const Cells& c) {
  print_banner("Figure 9", "Normalized latency breakdown (share of total)");
  Table t({"size", "Host write", "DMA", "DMA-wait", "Others", "paper DMA-wait share"});
  double wait[paper::kNumSizes] = {};
  for (int i = 0; i < paper::kNumSizes; ++i) {
    const RunResult& r = c.doceph[i];
    const double total = r.bd_total_s > 0 ? r.bd_total_s : 1;
    wait[i] = r.bd_dma_wait_s / total;
    t.row({paper::kSizeNames[i], Table::pct(r.bd_host_write_s / total),
           Table::pct(r.bd_dma_s / total), Table::pct(wait[i]),
           Table::pct(r.bd_others_s / total),
           Table::pct(paper::kTab3DmaWait[i] / paper::kTab3Total[i])});
  }
  t.print();
  std::printf(
      "\nKey claim (from the rows above): DMA-wait's share goes %s at %s -> %s\n"
      "at %s, so it %s with size. The paper's falls %s -> %s.\n",
      Table::pct(wait[0]).c_str(), paper::kSizeNames[0], Table::pct(wait[kLast]).c_str(),
      paper::kSizeNames[kLast], wait[kLast] < wait[0] ? "falls" : "does NOT fall",
      Table::pct(paper::kTab3DmaWait[0] / paper::kTab3Total[0]).c_str(),
      Table::pct(paper::kTab3DmaWait[kLast] / paper::kTab3Total[kLast]).c_str());
}

void fig10(const Cells& c) {
  print_banner("Figure 10", "Throughput (IOPS): Baseline vs DoCeph");
  Table t({"size", "Baseline IOPS", "DoCeph IOPS", "gap", "paper: base",
           "paper: doceph", "paper gap"});
  double gaps[paper::kNumSizes] = {};
  for (int i = 0; i < paper::kNumSizes; ++i) {
    const RunResult& rb = c.base[i];
    const RunResult& rd = c.doceph[i];
    gaps[i] = rb.iops > 0 ? 1.0 - rd.iops / rb.iops : 0;
    const double paper_gap = 1.0 - paper::kFig10DoCeph[i] / paper::kFig10Baseline[i];
    t.row({paper::kSizeNames[i], Table::num(rb.iops, 0), Table::num(rd.iops, 0),
           Table::pct(gaps[i], 0), Table::num(paper::kFig10Baseline[i], 0),
           Table::num(paper::kFig10DoCeph[i], 0), Table::pct(paper_gap, 0)});
  }
  t.print();
  const double paper_first = 1.0 - paper::kFig10DoCeph[0] / paper::kFig10Baseline[0];
  const double paper_last = 1.0 - paper::kFig10DoCeph[kLast] / paper::kFig10Baseline[kLast];
  std::printf(
      "\nKey claim (from the rows above): DoCeph runs %s Baseline at %s\n"
      "and %s it at %s, so the gap %s.\n"
      "The paper's gap narrows from %s at %s to %s at %s. Host CPU: Fig. 7.\n",
      versus(gaps[0], " behind", " ahead of").c_str(), paper::kSizeNames[0],
      versus(gaps[kLast], " behind", " ahead of").c_str(), paper::kSizeNames[kLast],
      std::abs(gaps[kLast]) < std::abs(gaps[0]) ? "narrows" : "does not narrow",
      Table::pct(paper_first, 0).c_str(), paper::kSizeNames[0],
      Table::pct(paper_last, 0).c_str(), paper::kSizeNames[kLast]);
}

}  // namespace

int main(int argc, char** argv) {
  Cells c;
  bool ok = true;
  for (int i = 0; i < paper::kNumSizes; ++i) {
    for (const auto mode : {cluster::DeployMode::baseline, cluster::DeployMode::doceph}) {
      RunSpec spec;
      spec.mode = mode;
      spec.object_size = paper::kSizes[i];
      RunResult& out =
          mode == cluster::DeployMode::baseline ? c.base[i] : c.doceph[i];
      ok = run_cell(spec, argc, argv, out) && ok;
    }
  }
  RunSpec g1;
  g1.net = cluster::NetworkKind::gbe_1;
  g1.object_size = paper::kSizes[k4MB];
  ok = run_cell(g1, argc, argv, c.base_1g) && ok;

  fig5(c);
  fig6(c);
  tab2(c);
  fig7(c);
  fig8(c);
  tab3(c);
  fig9(c);
  fig10(c);
  if (!ok) {
    std::fprintf(stderr,
                 "[paper_figures] a cell completed no op or failed one; its "
                 "figures are wrong\n");
    return 1;
  }
  return 0;
}
