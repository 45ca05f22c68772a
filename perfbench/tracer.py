"""Outside-in tracing of kgrid's public functions.

``Tracer.install`` replaces each function in ``TRACED`` by a wrapper in every
loaded kgrid module that holds a reference to it (``Matrix.scale`` is replaced
on the class).  A wrapper keeps a span stack: each call is a span whose parent
is the innermost open span, and its self time is its duration minus the time
its child spans cover.  Spans are aggregated as they close, per function and
per (parent, function) edge, so memory stays flat on long runs.

Counters are taken at the same boundaries: nonzero scalar products and dense
slots of ``mat_mul``, entries handed to ``rank``, ``gamma`` cache hits and
misses (from ``cache_info()``), and exceptions each function raised.  Times are
raw seconds; the worker scales them to reference seconds per pass.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (layer, module, attribute); "Matrix.scale" is an attribute of a class
TRACED = (
    ("exact", "kgrid.exact", "mat_mul"),
    ("exact", "kgrid.exact", "Matrix.scale"),
    ("exact", "kgrid.exact", "rank"),
    ("exact", "kgrid.exact", "span_coords"),
    ("exact", "kgrid.exact", "kron"),
    ("tro", "kgrid.tro", "ternary_product"),
    ("tro", "kgrid.tro", "jordan_triple"),
    ("tro", "kgrid.tro", "is_tripotent"),
    ("tro", "kgrid.tro", "range_projection"),
    ("tro", "kgrid.tro", "element_span_dim"),
    ("tro", "kgrid.tro", "element_span_coords"),
    ("tro", "kgrid.tro", "lift_hom"),
    ("tro", "kgrid.tro", "apply_hom"),
    ("tro", "kgrid.tro", "compose_homs"),
    ("ktheory", "kgrid.ktheory", "k0_class_of_projection"),
    ("ktheory", "kgrid.ktheory", "dsg_isomorphic"),
    ("cartan", "kgrid.cartan", "parse_triple_spec"),
    ("cartan", "kgrid.cartan", "canonicalize_spec"),
    ("cartan", "kgrid.cartan", "embedded_basis"),
    ("cartan", "kgrid.cartan", "hilbert_frame"),
    ("grids", "kgrid.grids", "grid_for"),
    ("grids", "kgrid.grids", "verify_grid"),
    ("grids", "kgrid.grids", "standard_spin_system"),
    ("invariant", "kgrid.invariant", "gamma"),
    ("invariant", "kgrid.invariant", "k_grid_invariant"),
    ("invariant", "kgrid.invariant", "classify"),
    ("invariant", "kgrid.invariant", "classify_invariants"),
    ("invariant", "kgrid.invariant", "invariants_isomorphic"),
    ("invariant", "kgrid.invariant", "recover_factors"),
    ("catalog", "kgrid.catalog", "catalog_multisets"),
    ("cli", "kgrid.cli", "run"),
)

NAMES = tuple(f"{layer}.{attr}" for layer, _, attr in TRACED)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TRACED))


def mat_mul_work(a, b) -> tuple:
    """(nonzero scalar products, dense slots) of the product a @ b: the
    products of a nonzero a[i,k] with a nonzero b[k,j], against n*m*p."""
    col_nz = [sum(1 for i in range(a.rows) if not a[i, k].is_zero())
              for k in range(a.cols)]
    products = sum(nz * sum(1 for j in range(b.cols) if not b[k, j].is_zero())
                   for k, nz in enumerate(col_nz) if nz)
    return products, a.rows * a.cols * b.cols


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total_s, self_s, raised]
        self.stats = {name: [0, 0.0, 0.0, 0] for name in NAMES}
        self.edges: Counter = Counter()
        self.counters = Counter()
        self._stack = [[None, 0.0]]  # [name, time covered by child spans]
        self._saved: list = []       # (owner, attribute, original)

    # --- installation ---------------------------------------------------------

    def install(self) -> list:
        """Wrap every traced function; returns the names not found."""
        missing = []
        kg_modules = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "kgrid" or n.startswith("kgrid."))]
        for (layer, modname, attr), name in zip(TRACED, NAMES):
            module = sys.modules.get(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is None:
                    missing.append(name)
                    continue
                self._rebind(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in kg_modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, wrapper)
        return missing

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        stack = self._stack
        edges = self.edges
        counters = self.counters
        clock = time.perf_counter
        if name == "exact.mat_mul":
            def before(args):
                products, slots = mat_mul_work(args[0], args[1])
                counters["exact.mat_mul.nz_products"] += products
                counters["exact.mat_mul.dense_slots"] += slots
        elif name == "exact.rank":
            def before(args):
                counters["exact.rank.entries"] += args[0].rows * args[0].cols
        else:
            before = None
        cache_info = getattr(fn, "cache_info", None) if name == "invariant.gamma" else None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            misses = cache_info().misses if cache_info is not None else 0
            frame = [name, 0.0]
            edges[(stack[-1][0], name)] += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if cache_info is not None:
                    missed = cache_info().misses - misses
                    counters["invariant.gamma.misses"] += missed
                    counters["invariant.gamma.hits"] += 1 - missed

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # --- reading ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Counts and times so far, keyed by metric name."""
        out = {}
        for name, (calls, total, self_s, raised) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
            out[f"{name}.raised"] = raised
        for key in ("exact.mat_mul.nz_products", "exact.mat_mul.dense_slots",
                    "exact.rank.entries", "invariant.gamma.hits",
                    "invariant.gamma.misses"):
            out[key] = self.counters[key]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self.stats[n][2] for n in NAMES if n.startswith(layer + "."))
        return out


def is_count(key: str) -> bool:
    return not key.endswith("_s")


def delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}
