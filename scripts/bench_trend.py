#!/usr/bin/env python3
"""Merge the tracked BENCH_PR*.json reports into one perf trajectory.

Usage:
    bench_trend.py [--dir REPO] [--md OUT.md] [--csv OUT.csv]

Each PR's benchmark report (`crates/bench/src/bin/report.rs`) is a
snapshot of trial throughput at that point in the repo's history; this
script lines them up into a single per-config table — one row per
(report, run label) — so the trajectory is readable at a glance and
plottable from the CSV. Reports grew columns over time (setup split,
telemetry and monitor overhead probes), so missing fields render as
empty cells rather than failing. Stdlib only; used by the `bench-trend`
CI job, which uploads the outputs as artifacts.
"""

import csv
import glob
import io
import json
import os
import re
import sys

# (column header, config-entry key, format)
COLUMNS = [
    ("events/sec", "events_per_sec", "{:,.0f}"),
    ("loop events/sec", "loop_events_per_sec", "{:,.0f}"),
    ("parallel trials/sec", "parallel_trials_per_sec", "{:,.1f}"),
    ("setup frac", "setup_frac", "{:.3f}"),
    ("peak RSS MiB", "peak_rss_bytes", "rss"),
    ("telemetry off/on", ("telemetry_off_events_per_sec",
                          "telemetry_on_events_per_sec"), "pair"),
    ("monitor off/on", ("monitor_off_events_per_sec",
                        "monitor_on_events_per_sec"), "pair"),
    ("convergence off/on", ("convergence_off_events_per_sec",
                            "convergence_on_events_per_sec"), "pair"),
    ("gauges off/on", ("gauges_off_events_per_sec",
                       "gauges_on_events_per_sec"), "pair"),
    ("spans off/on", ("spans_off_events_per_sec",
                      "spans_on_events_per_sec"), "pair"),
    ("placement off/on", ("placement_off_trials_per_sec",
                          "placement_on_trials_per_sec"), "pair3"),
    ("setup phases", "setup_phases", "phases"),
    # Derived: fraction of *total* trial wall spent in place_all_groups
    # (setup_frac x the placement share of setup) — the number the
    # batched placement engine exists to shrink.
    ("placement wall frac", None, "placewall"),
]

# (column header, kernel-entry key) for the per-kernel GF(2^8) sweep
# (PR 6 onwards; reports without a `gf_kernel` run section skip it).
KERNEL_COLUMNS = [
    ("mul_xor 4 KiB MB/s", "mul_xor_4KiB_mbps"),
    ("mul_xor 64 KiB MB/s", "mul_xor_64KiB_mbps"),
    ("mul_xor 1 MiB MB/s", "mul_xor_1MiB_mbps"),
    ("encode 64 KiB MB/s", "encode_64KiB_mbps"),
    ("reconstruct 64 KiB MB/s", "reconstruct_64KiB_mbps"),
]

# (column header, kernel-entry key) for the per-kernel placement sweep
# (PR 9 onwards; reports without a `place_kernel` run section skip it).
PLACE_KERNEL_COLUMNS = [
    ("draw Mhash/s", "draw_mhashes_per_sec"),
    ("place_all_groups kgroups/s", "place_all_groups_kgroups_per_sec"),
]


def pr_number(path):
    m = re.search(r"BENCH_PR(\d+)\.json$", path)
    return int(m.group(1)) if m else -1


def _num(v):
    return v if isinstance(v, (int, float)) and not isinstance(v, bool) else None


def fmt(entry, key, spec):
    if spec in ("pair", "pair3"):
        off, on = (_num(entry.get(k)) for k in key)
        if off is None or on is None or off == 0:
            return ""
        num = "{:,.3f}" if spec == "pair3" else "{:,.0f}"
        return (num + " / " + num + " ({:+.1f}%)").format(
            off, on, 100 * (on / off - 1))
    if spec == "placewall":
        sf = _num(entry.get("setup_frac"))
        phases = entry.get("setup_phases")
        share = _num(phases.get("placement")) if isinstance(phases, dict) else None
        if sf is None or share is None:
            return ""
        return "{:.3f}".format(sf * share)
    v = entry.get(key)
    if spec == "phases":
        if not isinstance(v, dict):
            return ""
        return " ".join("{} {:.0f}%".format(k, 100 * f)
                        for k, f in v.items() if _num(f) is not None)
    if _num(v) is None:
        return ""
    if spec == "rss":
        return "{:.0f}".format(v / (1 << 20))
    return spec.format(v)


def load_rows(repo_dir):
    """Config rows, kernel rows, run notes."""
    rows, kernel_rows, place_rows, notes = [], [], [], []
    paths = sorted(glob.glob(os.path.join(repo_dir, "BENCH_PR*.json")),
                   key=pr_number)
    if not paths:
        sys.exit(f"bench_trend: no BENCH_PR*.json under {repo_dir}")
    for path in paths:
        # Reports grew sections over time and may predate any given
        # probe; a report that is unreadable or oddly shaped is skipped
        # with a warning rather than sinking the whole trajectory.
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_trend: skipping {path}: {e}", file=sys.stderr)
            continue
        if not isinstance(doc, dict):
            print(f"bench_trend: skipping {path}: not a JSON object",
                  file=sys.stderr)
            continue
        runs = doc.get("runs")
        if not isinstance(runs, list):
            runs = []
        for run in runs:
            if not isinstance(run, dict):
                continue
            report, label = os.path.basename(path), run.get("label", "")
            configs = run.get("configs")
            for cfg in configs if isinstance(configs, list) else []:
                if not isinstance(cfg, dict):
                    continue
                rows.append({
                    "report": report,
                    "label": label,
                    "config": cfg.get("config", ""),
                    "entry": cfg,
                })
            for section, sink in (("gf_kernel", kernel_rows),
                                  ("place_kernel", place_rows)):
                sec = run.get(section)
                kernels = sec.get("kernels") if isinstance(sec, dict) else None
                for kern in kernels if isinstance(kernels, list) else []:
                    if isinstance(kern, dict) and kern.get("supported"):
                        sink.append({
                            "report": report,
                            "label": label,
                            "kernel": kern.get("kernel", ""),
                            "entry": kern,
                        })
            if run.get("notes"):
                notes.append((report, label, run["notes"]))
    if not rows and not kernel_rows:
        sys.exit(f"bench_trend: no usable runs in any report under {repo_dir}")
    return rows, kernel_rows, place_rows, notes


def render_kernel_table(out, title, rows, columns):
    print(f"\n## {title}\n", file=out)
    headers = ["report", "label", "kernel"] + [c[0] for c in columns]
    print("| " + " | ".join(headers) + " |", file=out)
    print("|" + "---|" * len(headers), file=out)
    for r in rows:
        cells = [r["report"], r["label"], r["kernel"]]
        for _, key in columns:
            v = _num(r["entry"].get(key))
            cells.append("" if v is None else "{:,.0f}".format(v))
        print("| " + " | ".join(cells) + " |", file=out)


def render_markdown(rows, kernel_rows, place_rows, notes):
    out = io.StringIO()
    print("# Benchmark trajectory", file=out)
    print(file=out)
    print("Trial throughput per tracked config across the PR sequence", file=out)
    print("(`scripts/bench_trend.py`; empty cells predate the probe).", file=out)
    for config in sorted({r["config"] for r in rows}):
        print(f"\n## {config}\n", file=out)
        headers = ["report", "label"] + [c[0] for c in COLUMNS]
        print("| " + " | ".join(headers) + " |", file=out)
        print("|" + "---|" * len(headers), file=out)
        for r in rows:
            if r["config"] != config:
                continue
            cells = [r["report"], r["label"]]
            cells += [fmt(r["entry"], key, spec) for _, key, spec in COLUMNS]
            print("| " + " | ".join(cells) + " |", file=out)
    if kernel_rows:
        render_kernel_table(out, "GF(2^8) region kernels", kernel_rows,
                            KERNEL_COLUMNS)
    if place_rows:
        render_kernel_table(out, "Placement kernels", place_rows,
                            PLACE_KERNEL_COLUMNS)
    if notes:
        print("\n## Notes\n", file=out)
        for report, label, text in notes:
            print(f"- **{report} / {label}**: {text}", file=out)
    return out.getvalue()


def render_csv(rows, kernel_rows, place_rows):
    def cell(v):
        return json.dumps(v) if isinstance(v, dict) else v

    keys = sorted({k for r in rows for k in r["entry"]})
    out = io.StringIO()
    w = csv.writer(out)
    w.writerow(["report", "label"] + keys)
    for r in rows:
        w.writerow([r["report"], r["label"]] +
                   [cell(r["entry"].get(k, "")) for k in keys])
    for krows, columns in ((kernel_rows, KERNEL_COLUMNS),
                           (place_rows, PLACE_KERNEL_COLUMNS)):
        if not krows:
            continue
        kkeys = [k for _, k in columns]
        w.writerow([])
        w.writerow(["report", "label", "kernel"] + kkeys)
        for r in krows:
            w.writerow([r["report"], r["label"], r["kernel"]] +
                       [r["entry"].get(k, "") for k in kkeys])
    return out.getvalue()


def main(argv):
    repo_dir, md_out, csv_out = ".", None, None
    it = iter(argv)
    for arg in it:
        if arg == "--dir":
            repo_dir = next(it, None) or sys.exit("--dir needs a value")
        elif arg == "--md":
            md_out = next(it, None) or sys.exit("--md needs a value")
        elif arg == "--csv":
            csv_out = next(it, None) or sys.exit("--csv needs a value")
        else:
            print(__doc__.strip(), file=sys.stderr)
            return 2
    rows, kernel_rows, place_rows, notes = load_rows(repo_dir)
    md = render_markdown(rows, kernel_rows, place_rows, notes)
    if md_out:
        with open(md_out, "w") as f:
            f.write(md)
        print(f"bench_trend: wrote {md_out} ({len(rows)} rows)")
    else:
        print(md, end="")
    if csv_out:
        with open(csv_out, "w") as f:
            f.write(render_csv(rows, kernel_rows, place_rows))
        print(f"bench_trend: wrote {csv_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
