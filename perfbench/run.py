#!/usr/bin/env python3
"""kgrid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in a fresh worker process, closed loop
with one caller, and checks every result against an oracle.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Untraced, the metrics are the end-to-end ones; traced, the
per-layer ones named in BENCHMARK.json.  The lines before it print a stamp
identifying the program and the inputs, the failure ratio with its base, and
every metric with its unit; traced, also every traced function's calls, total
and self time ("layer" lines) and the call graph of one pass ("edge" lines).

Times are in reference seconds (see speed.py): measured seconds scaled by the
host speed, calibrated next to each measurement.  An operation's time is its
median over the run's passes; each pass runs every operation once.

End-to-end metrics:
  setup_s      process start to the first timed operation: interpreter start,
               ``import kgrid``, generating the inputs and the warm-up; the
               median over 3-5 fresh worker processes
  wall_s       time of one pass: the sum of the operation times
  op_p50_ms    median operation time
  op_tail_ms   operation time at the highest percentile with at least ten
               operations beyond it (printed with the percentile and count)
  peak_rss_mb  peak resident memory of the measured worker

The failure ratio is reported through "attempted" and "failed": at the parent
commit it is 0 on every workload, so it cannot carry a relative bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("verify-catalog", "sweep", "witness-shuffled", "dense-algebra")
SETUP_RUNS = (3, 5)
SETUP_BUDGET_S = 2.0
DEADLINE_S = 170  # the whole run, set-up workers included


def declared(kind: str) -> list:
    """(name, unit) of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def run_worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple:
    """(set-up in seconds, in reference seconds, the worker's JSON report)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    calibrations = [speed.calibration() for _ in range(5)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    calibrations += report["calibrations"]
    if setup_only:
        calibrations += [speed.calibration() for _ in range(5)]
    setup = report["setup_end"] - started
    return setup, setup * speed.factor(calibrations), report


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kgrid").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "kgrid" / "__init__.py").is_file():
        print(f"kgrid sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    try:
        raw, setup_s, report = run_worker(args, deadline, setup_only=False)
        raws, setups = [raw], [setup_s]
        # set-up is timed in several fresh interpreters: at least
        # SETUP_RUNS[0], and up to SETUP_RUNS[1] while they stay cheap
        while not args.trace and (len(setups) < SETUP_RUNS[0] or (
                len(setups) < SETUP_RUNS[1] and sum(raws) < SETUP_BUDGET_S)):
            raw, setup_s, _ = run_worker(args, deadline, setup_only=True)
            raws.append(raw)
            setups.append(setup_s)
        names = declared("per_layer" if args.trace else "end_to_end")
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as error:
        print(f"benchmark run failed: {error!r}", file=sys.stderr)
        return 1

    e2e = report["end_to_end"]
    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "git_sha": git_sha(), "src_sha256": source_digest(),
             "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
             "sizes": report["sizes"], "passes": e2e["passes"],
             "tail_percentile": e2e["tail_percentile"], "tail_samples": e2e["samples"]}
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"fail_ratio {report['failed'] / report['attempted']:.6f} ratio "
          f"({report['failed']} failed of {report['attempted']} attempted)")
    for failure in report["failures"]:
        print(f"FAILED {failure}")

    correct = report["failed"] == 0
    if args.trace:
        values = report["per_layer"]
        for parent, child, calls in report["edges"]:
            print(f"edge {parent} -> {child} {calls} calls")
        for key in sorted(values):
            unit = "s" if key.endswith("_s") else "ratio" if key.endswith("_ratio") else "count"
            print(f"layer {key} {values[key]!r} {unit}")
        print(f"traced passes repeat their counts exactly: {report['counts_repeat']}")
        if report["not_traced"]:
            print(f"not present, not traced: {', '.join(report['not_traced'])}")
        correct = correct and report["counts_repeat"]
    else:
        values = dict(e2e, setup_s=statistics.median(setups),
                      peak_rss_mb=report["peak_rss_mb"])
        print(f"setup_s per worker: {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"op_tail_ms is p{e2e['tail_percentile']} of {e2e['samples']} operations, "
              f"each timed as the median of {e2e['passes']} passes")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
