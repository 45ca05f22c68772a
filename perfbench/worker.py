"""One measured process: set a workload up, run its passes, check them, and
print one JSON line with what it measured.

run.py starts this script; with --setup-only it stops after set-up, so the
launcher can time set-up in several fresh interpreters.  kgrid is imported
from the ``src`` directory of the checkout this file sits in, never from an
installed copy.

Untraced: passes run until --seconds have gone by (at least two).  Traced: one
untraced pass for the overhead baseline, then the tracer is installed and
traced passes run until --seconds have gone by (at least two); the counts of
every traced pass must repeat exactly.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import speed
from tracer import Tracer, delta, is_count
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_kgrid() -> SimpleNamespace:
    sys.path.insert(0, str(SRC))
    import kgrid
    from kgrid import cartan, catalog, cli, exact, grids, invariant, ktheory, tro

    if Path(kgrid.__file__).resolve().parent != (SRC / "kgrid").resolve():
        raise ImportError(f"kgrid was imported from {kgrid.__file__}, not {SRC}")
    return SimpleNamespace(cartan=cartan, catalog=catalog, cli=cli, exact=exact,
                           grids=grids, invariant=invariant, ktheory=ktheory,
                           tro=tro)


def kgrid_caches() -> list:
    """Every functools cache held by a kgrid module, each once."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "kgrid" or name.startswith("kgrid.")):
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


class Runner:
    def __init__(self, workload, caches: list) -> None:
        self.workload = workload
        self.caches = caches
        self.pass_times: list = []  # per pass, each operation's reference seconds
        self.failures: list = []
        self.attempted = 0
        self.warm_sizes: dict = {}

    def prepare(self) -> None:
        """The cache state every pass starts from: what the warm-up leaves in
        empty caches.  A cache that has not grown since the last warm-up
        holds exactly that already (kgrid's caches are unbounded), so only
        the caches that grew are emptied before the warm-up runs again."""
        for cache in self.caches:
            if cache.cache_info().currsize != self.warm_sizes.get(id(cache)):
                cache.cache_clear()
        self.workload.warm_up()
        self.warm_sizes = {id(c): c.cache_info().currsize for c in self.caches}
        gc.collect()

    def run_pass(self) -> tuple:
        """Run every operation once, calibrating the host speed between
        operations; returns (the pass in reference seconds, reference seconds
        per measured second over the pass).  The operations are checked after
        the last one has run."""
        ops = self.workload.ops
        cold = self.workload.cold_ops
        clock = time.perf_counter
        times, results = [], []
        cals = [(0, speed.calibration())]  # (operations run before it, seconds)
        next_cal = clock() + speed.INTERVAL_S
        for index, op in enumerate(ops):
            if clock() >= next_cal:
                cals.append((index, speed.calibration()))
                next_cal = clock() + speed.INTERVAL_S
            if cold:  # start like a fresh process: empty caches, collected heap
                for cache in self.caches:
                    cache.cache_clear()
                gc.collect()
            t = clock()
            try:
                res, exc = op.run(), None
            except Exception as error:  # a failed operation; the run goes on
                res, exc = None, error
            times.append(clock() - t)
            results.append((res, exc))
        cals.append((len(ops), speed.calibration()))
        # each operation is scaled by the two calibrations on either side
        positions = [i for i, _ in cals]
        samples = [c for _, c in cals]
        scaled = []
        for index, t in enumerate(times):
            after = bisect.bisect_right(positions, index)
            scaled.append(t * speed.factor(samples[max(0, after - 2):after + 2]))
        self.pass_times.append(scaled)
        self.attempted += len(ops)
        for index, (op, (res, exc)) in enumerate(zip(ops, results)):
            try:
                error = op.check(res, exc)
            except Exception as oracle_error:  # malformed result
                error = f"oracle check raised {oracle_error!r}"
            if error:
                self.failures.append(f"operation {index}: {error}")
        return sum(scaled), speed.factor(samples)

    def end_to_end(self) -> dict:
        """Timings from each operation's median time over the passes."""
        per_op = sorted(statistics.median(s) for s in zip(*self.pass_times))
        # highest percentile (to 0.1) with at least ten operations beyond it
        percentile = math.floor(1000 * (len(per_op) - 10) / len(per_op)) / 10
        return {
            "wall_s": sum(per_op),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "op_tail_ms": 1e3 * per_op[len(per_op) - 11],
            "tail_percentile": percentile,
            "samples": len(per_op),
            "passes": len(self.pass_times),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    kg = import_kgrid()
    caches = kgrid_caches()
    workload = WORKLOADS[args.workload](kg, args.seed)
    runner = Runner(workload, caches)
    runner.prepare()
    setup_end = time.monotonic()
    out = {"setup_end": setup_end, "sizes": workload.sizes,
           "calibrations": [speed.calibration() for _ in range(5)]}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    start = time.perf_counter()
    if args.trace:
        untraced, _ = runner.run_pass()
        tracer = Tracer()
        out["not_traced"] = tracer.install()
        passes = []
        while len(passes) < 2 or time.perf_counter() - start < args.seconds:
            runner.prepare()
            before, edges = tracer.snapshot(), Counter(tracer.edges)
            total, scale = runner.run_pass()
            spent = delta(tracer.snapshot(), before)
            spent = {k: v if is_count(k) else v * scale for k, v in spent.items()}
            passes.append((total, spent, tracer.edges - edges))
        tracer.uninstall()
        counts = [({k: v for k, v in d.items() if is_count(k)}, e) for _, d, e in passes]
        first = passes[0][1]
        layer = {k: (first[k] if is_count(k) else
                     statistics.median(d[k] for _, d, _ in passes)) for k in first}
        slots = layer["exact.mat_mul.dense_slots"]
        layer["exact.mat_mul.nz_ratio"] = (
            layer["exact.mat_mul.nz_products"] / slots if slots else 0.0)
        layer["trace.overhead_s"] = statistics.median(w for w, _, _ in passes) - untraced
        out["per_layer"] = layer
        out["counts_repeat"] = all(c == counts[0] for c in counts)
        out["edges"] = sorted(([p or "-", c, n] for (p, c), n in passes[0][2].items()),
                              key=lambda e: -e[2])
    else:
        while len(runner.pass_times) < 2 or time.perf_counter() - start < args.seconds:
            if runner.pass_times:
                runner.prepare()
            runner.run_pass()
    out.update(end_to_end=runner.end_to_end(), attempted=runner.attempted,
               failed=len(runner.failures), failures=runner.failures[:5],
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
