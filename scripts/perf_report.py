#!/usr/bin/env python3
"""Perf-delta report for CI: compare a perf_smoke JSON against the committed
baseline and render a markdown table (per config: IOPS, p50, p99, host-CPU
cores, with signed deltas).

Usage:
    perf_report.py BASELINE.json CURRENT.json

The markdown is appended to $GITHUB_STEP_SUMMARY when that variable is set
(the GitHub Actions job summary) and always echoed to stdout, so the table
shows up in local runs and in the step log too. Exit code is always 0: the
regression *gate* lives in perf_smoke itself; this script only reports.
"""

import json
import os
import sys

# Render order; unknown configs found in either file are appended after.
KNOWN_CONFIGS = ["baseline", "doceph", "baseline_smallwrite", "doceph_smallwrite",
                 "baseline_smallwrite_sharded", "doceph_smallwrite_sharded"]
# Non-result blocks perf_smoke emits alongside the configs.
SKIP_KEYS = {"doceph_variance"}

METRICS = [
    # (json key, header, scale, unit, higher_is_better)
    ("ops_per_sec", "IOPS", 1.0, "", True),
    ("p50_lat_s", "p50", 1e3, " ms", False),
    ("p99_lat_s", "p99", 1e3, " ms", False),
    ("host_cores", "host cores", 1.0, "", False),
]

# Backpressure telemetry (per config; perf_smoke emits these since the
# overload-collapse fix). failed_ops must stay 0 — throttles are the
# graceful path, failures are the collapse the backpressure PR removed.
THROTTLE_KEYS = [
    ("failed_ops", "failed ops"),
    ("osd_throttled", "OSD throttles"),
    ("proxy_throttled", "proxy throttles"),
    ("client_throttled", "client throttles"),
]

# Per-stage OSD latency decomposition (perf_smoke emits stages_s since the
# tracing PR). The stage deltas attribute an IOPS move to the pipeline
# stage that caused it — e.g. the sharding PR shows up as queue + store
# (lanes + KV streams) and replication (parallel fan-out) drops.
STAGE_KEYS = [
    ("messenger", "messenger"),
    ("queue", "queue"),
    ("store", "store"),
    ("replication", "replication"),
]


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_report: cannot read {path}: {e}", file=sys.stderr)
        return None


def fmt(value, scale):
    if value is None:
        return "-"
    v = value * scale
    return f"{v:.3f}" if abs(v) < 10 else f"{v:.1f}"


def delta_cell(base, cur, higher_is_better):
    if base is None or cur is None or base == 0:
        return "n/a"
    pct = (cur - base) / base * 100.0
    improved = pct >= 0 if higher_is_better else pct <= 0
    mark = "" if abs(pct) < 0.05 else (" ✅" if improved else " 🔺")
    return f"{pct:+.1f}%{mark}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_doc = load(argv[1])
    cur_doc = load(argv[2])
    if cur_doc is None:
        return 0  # nothing to report; the bench step already failed loudly

    base_doc = base_doc or {}
    configs = [c for c in KNOWN_CONFIGS if c in base_doc or c in cur_doc]
    for doc in (base_doc, cur_doc):
        for key, val in doc.items():
            if key not in configs and key not in SKIP_KEYS and isinstance(val, dict):
                configs.append(key)

    lines = ["## Perf delta vs committed baseline", ""]
    header = "| config |"
    rule = "|---|"
    for _, title, _, unit, _ in METRICS:
        header += f" {title}{unit} (base → PR) | Δ |"
        rule += "---|---|"
    lines += [header, rule]

    for cfg in configs:
        base = base_doc.get(cfg) or {}
        cur = cur_doc.get(cfg) or {}
        row = f"| {cfg} |"
        for key, _, scale, _, higher in METRICS:
            b, c = base.get(key), cur.get(key)
            row += f" {fmt(b, scale)} → {fmt(c, scale)} | {delta_cell(b, c, higher)} |"
        lines.append(row)

    # Throttle/backpressure table: only for configs whose current run
    # reports the telemetry (older JSONs without the keys render nothing).
    throttled_cfgs = [c for c in configs
                      if any(k in (cur_doc.get(c) or {}) for k, _ in THROTTLE_KEYS)]
    if throttled_cfgs:
        lines += ["", "### Backpressure", "",
                  "| config | " + " | ".join(t for _, t in THROTTLE_KEYS) + " |",
                  "|---|" + "---|" * len(THROTTLE_KEYS)]
        for cfg in throttled_cfgs:
            cur = cur_doc.get(cfg) or {}
            cells = []
            for key, _ in THROTTLE_KEYS:
                v = cur.get(key)
                if key == "failed_ops" and v is not None:
                    cells.append(f"{v} {'✅' if v == 0 else '❌'}")
                else:
                    cells.append("-" if v is None else str(v))
            lines.append(f"| {cfg} | " + " | ".join(cells) + " |")
        lines += ["", "Throttles are retried, not failed: any nonzero "
                  "`failed ops` is a regression of the graceful-degradation "
                  "contract (DESIGN.md §14)."]

    # Per-stage latency deltas: configs where both runs report stages_s.
    staged_cfgs = [c for c in configs
                   if isinstance(cur_doc.get(c), dict)
                   and "stages_s" in (cur_doc.get(c) or {})]
    if staged_cfgs:
        lines += ["", "### Per-stage OSD latency (base → PR)", "",
                  "| config | " + " | ".join(
                      f"{t} (ms) | Δ" for _, t in STAGE_KEYS) + " |",
                  "|---|" + "---|---|" * len(STAGE_KEYS)]
        for cfg in staged_cfgs:
            base_st = (base_doc.get(cfg) or {}).get("stages_s") or {}
            cur_st = (cur_doc.get(cfg) or {}).get("stages_s") or {}
            row = f"| {cfg} |"
            for key, _ in STAGE_KEYS:
                b, c = base_st.get(key), cur_st.get(key)
                row += (f" {fmt(b, 1e3)} → {fmt(c, 1e3)} |"
                        f" {delta_cell(b, c, False)} |")
            lines.append(row)
        lines += ["", "Stages are the Fig.-2 decomposition measured on the "
                  "primary OSD (queue = op-queue wait, store = ObjectStore "
                  "prep + WAL commit, replication = repop fan-out wait)."]

    lines += [
        "",
        "IOPS: higher is better; p50/p99/host cores: lower is better. "
        "The `*_smallwrite` rows are the 16 KB qd64 fresh-object lap, where "
        "per-op costs dominate: one comch doorbell and one DMA job per write, "
        "overlapped inside the byte-granular staging arena.",
    ]
    report = "\n".join(lines) + "\n"

    print(report)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as f:
            f.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
