#!/usr/bin/env python3
"""Build and run the FARM workspace benchmark.

One workload:

    python3 perfbench/run.py --workload paper_ci --seed 1 --seconds 20 --trace 0

Every workload, printing each end-to-end metric with its unit and
exiting non-zero if any output check fails:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

One-off sensitivity check with the placement engine's kill-switch
(FARM_PLACE_ENGINE=0) set by the benchmark itself:

    python3 perfbench/run.py --workload paper_ci --sensitivity place-engine-off

Run from the repository root. The benchmark is built from source with
cargo into $CARGO_TARGET_DIR (default: .bench_build). The last line of
standard output is the JSON result; its metric names are checked
against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_ci", "fig7_replacement", "rs_wide_groups", "osd_rebuild"]
# A run must end within 180 s; leave room to stop the child.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def host_args():
    """rustc version and commit, for the host record."""
    out = []
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
        out += ["--host-rustc", rustc or "unknown"]
    except OSError:
        pass
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
        out += ["--host-commit", commit or "unknown"]
    else:
        out += ["--host-commit", "unknown (not a git checkout)"]
    return out


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, workload, seed, seconds, trace, sensitivity):
    """Run one workload; return (exit code, stdout lines, parsed result)."""
    cmd = [
        binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if trace else "0", "--out", os.path.join(target_dir(), "perfbench-out"),
    ] + host_args()
    if sensitivity:
        cmd += ["--sensitivity", sensitivity]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, [], None
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, lines, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run.py: last line of {workload} is not JSON", file=sys.stderr)
        return 1, lines, None
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print(f"run.py: {workload} metrics {sorted(got.items())} differ from BENCHMARK.json "
              f"{sorted(want.items())}", file=sys.stderr)
        return 1, lines, None
    return 0, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload untraced and check outputs")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--sensitivity", choices=["place-engine-off"])
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    if args.workload:
        code, lines, result = run_one(
            binary, args.workload, args.seed, args.seconds, args.trace == 1, args.sensitivity)
        if result is None:
            for line in lines[:-1] if lines else []:
                print(line, file=sys.stderr)
            return code
        print("\n".join(lines))
        return 0

    failed = []
    for w in WORKLOADS:
        code, lines, result = run_one(binary, w, args.seed, args.seconds, False, args.sensitivity)
        if result is None:
            failed.append(f"{w}: run failed (exit {code})")
            continue
        for line in lines[:-1]:
            if line.startswith("failed check"):
                print(f"{w}: {line}")
        for name, m in result["metrics"].items():
            print(f"{w:<18} {name:<16} {m['value']:>18.6f} {m['unit']}")
        print(f"{w:<18} {'attempted':<16} {result['attempted']:>18} ops, {result['failed']} failed")
        if not result["correct"] or result["failed"]:
            failed.append(f"{w}: {result['failed']} of {result['attempted']} operations failed their checks")
    for f in failed:
        print(f"FAILED {f}")
    print("all output checks passed" if not failed else f"{len(failed)} workload(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
