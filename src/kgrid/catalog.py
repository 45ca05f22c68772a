"""The finite factor catalog and the classification sweep over it: all
rectangular factors up to 4x4, rank-one factors up to dimension 6,
symplectic 5..7, hermitian 2..6 and spin 4..9."""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import Iterator, NamedTuple

from .cartan import CartanDescriptor, TripleSpec, canonicalize_spec
from .invariant import classify, k_grid_invariant, recover_factors


def catalog_descriptors() -> tuple:
    out = [CartanDescriptor("I", (n, m))
           for n in range(1, 5) for m in range(1, 5)]
    out += [CartanDescriptor("I", (1, n)) for n in (5, 6)]
    out += [CartanDescriptor("II", (n,)) for n in range(5, 8)]
    out += [CartanDescriptor("III", (n,)) for n in range(2, 7)]
    out += [CartanDescriptor("IV", (d,)) for d in range(4, 10)]
    return tuple(out)


def catalog_multisets(max_factors: int = 3) -> Iterator[TripleSpec]:
    descriptors = catalog_descriptors()
    for size in range(1, max_factors + 1):
        for combo in combinations_with_replacement(descriptors, size):
            yield TripleSpec(combo)


class Sweep(NamedTuple):
    multisets: int
    classes: dict  # canonical form -> its catalog multisets, in order
    mismatches: list  # one printable line per wrong verdict
    recovery_failures: list  # canonical forms not recovered
    near_collisions: list  # distinct classes sharing a key (`KGridInvariant._key`)


def sweep(max_factors: int = 3) -> Sweep:
    """Check that the K-grid invariant classifies every catalog multiset of up
    to `max_factors` factors: each is ISOMORPHIC to its canonical form, every
    near-collision (a pair that only block matching can separate; other pairs
    differ in their keys, `KGridInvariant._key`) is NOT_ISOMORPHIC, and
    `recover_factors` inverts the invariant on every class."""
    specs = list(catalog_multisets(max_factors))
    classes: dict = {}
    for s in specs:
        classes.setdefault(canonicalize_spec(s), []).append(s)
    mismatches = [f"MISMATCH (should be isomorphic): {s} vs {canon}"
                  for canon, members in classes.items() for s in members
                  if classify(s, canon).status != "ISOMORPHIC"]
    by_key: dict = {}
    for canon in classes:
        by_key.setdefault(k_grid_invariant(canon)._key, []).append(canon)
    near_collisions = []
    for bucket in by_key.values():
        for a, b in combinations(bucket, 2):
            if classify(a, b).status == "NOT_ISOMORPHIC":
                near_collisions.append((a, b))
            else:
                mismatches.append(f"MISMATCH (should differ): {a} vs {b}")
    recovery_failures = [canon for canon in classes
                         if recover_factors(k_grid_invariant(canon)) != canon]
    return Sweep(len(specs), classes, mismatches, recovery_failures,
                 near_collisions)
