"""The K-grid invariant: a double-scaled ordered K0-group together with the
set of classes of grid range projections, its direct-sum assembly, the
isomorphism decision, classification of factor multisets, and recovery of the
factors from an invariant.

Grid classes come from one per-family formula, checked in the tests against
``kgrid.grids.grid_gamma`` on the constructed grids.  The usual tables attach
the spin grid's element u0 to the wrong parity; ``published_gamma`` keeps
their values for a discrepancy flag.  The grids' convention is the one under
which the coincidence IV(4) = I(2,2) has equal invariants on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, permutations, product
from math import comb
from typing import Optional

from .cartan import (
    CartanDescriptor,
    ExceptionalFactorError,
    TripleSpec,
    canonicalize_spec,
    enveloping_tro,
    is_exceptional,
)
from .ktheory import DoubleScaledGroup


class UnknownFactorError(ValueError):
    """The invariant does not match any supported factor combination."""


def _family_gamma(d: CartanDescriptor, tabulated: bool = False) -> frozenset:
    """Grid classes by family: IV(d) has the halved identity class, plus the
    identity class of u0 when d is odd.  The tables attach u0 to the even
    dimensions instead, and give III(1) its family's (2,)."""
    if d.kind == "I":
        n, m = d.params
        if min(n, m) == 1:
            h = n * m
            return frozenset({tuple(comb(h - 1, t) for t in range(h))})
        return frozenset({(1, 1)})
    if d.kind == "II":
        return frozenset({(2,)})
    if d.kind == "III":
        return frozenset({(1,), (2,)} if d.params[0] > 1 or tabulated else {(1,)})
    ident = tuple(n for n, _ in enveloping_tro(d).summands)
    half = tuple(n // 2 for n in ident)
    return frozenset({half, ident} if (d.params[0] % 2 == 1) != tabulated else {half})


@lru_cache(maxsize=None)
def gamma(d: CartanDescriptor) -> frozenset:
    """Classes of the grid range projections of one factor, as rank vectors."""
    if is_exceptional(d):
        raise ExceptionalFactorError(
            f"{d}: trivial invariant only (gamma is empty, no group data)"
        )
    return _family_gamma(d)


def published_gamma(d: CartanDescriptor) -> frozenset:
    """Gamma as classically tabulated per factor family (see the module docstring)."""
    return frozenset() if is_exceptional(d) else _family_gamma(d, tabulated=True)


def gamma_report(d: CartanDescriptor, computed: Optional[frozenset] = None) -> dict:
    """Computed (by default ``gamma``) vs tabulated gamma, with an agreement flag."""
    if computed is None:
        computed = gamma(d) if not is_exceptional(d) else frozenset()
    published = published_gamma(d)
    return {
        "factor": d.to_text(),
        "computed": [list(c) for c in sorted(computed)],
        "published": [list(c) for c in sorted(published)],
        "matches_published": computed == published,
    }


@dataclass(frozen=True, slots=True, init=False)
class KGridInvariant:
    """Double-scaled group, grid classes in global coordinates, and a count of
    exceptional factors (whose K-data vanishes).

    The grid classes are stored as factor blocks (see ``_blocks``), plus a
    flag for the zero class, which lies in no block.  The invariant of a
    factor multiset keeps the blocks its assembly placed side by side; one
    built from a dense ``gamma`` splits it into blocks once, here.  Equal
    gammas give equal blocks either way, so equality and hashing mean what
    they meant on the dense set.  ``gamma`` rebuilds the dense set on every
    read and is not kept.
    """

    group: DoubleScaledGroup
    blocks: tuple
    zero_class: bool
    exceptional_count: int

    def __init__(self, group: DoubleScaledGroup, gamma: frozenset,
                 exceptional_count: int = 0) -> None:
        if set(map(len, gamma)) - {group.k}:
            raise ValueError(f"every grid class needs {group.k} entries, "
                             "one per summand")
        _store(self, group, _blocks(group, gamma), (0,) * group.k in gamma,
               exceptional_count)

    @property
    def gamma(self) -> frozenset:
        """The grid classes as dense k-long tuples."""
        k = self.group.k
        classes = {(0,) * k} if self.zero_class else set()
        for columns, _, block_classes in self.blocks:
            for cls in block_classes:
                vec = [0] * k
                for i, v in zip(columns, cls):
                    vec[i] = v
                classes.add(tuple(vec))
        return frozenset(classes)

    def to_dict(self) -> dict:
        return {
            "group": self.group.to_dict(),
            "gamma": [list(c) for c in sorted(self.gamma)],
            "exceptional_count": self.exceptional_count,
        }


def _store(inv: KGridInvariant, group: DoubleScaledGroup, blocks: tuple,
           zero_class: bool, exceptional_count: int) -> KGridInvariant:
    """Set the fields of a frozen invariant."""
    if type(exceptional_count) is not int or exceptional_count < 0:
        raise ValueError("exceptional_count must be a non-negative int, "
                         f"got {exceptional_count!r}")
    for name, value in (("group", group), ("blocks", blocks),
                        ("zero_class", zero_class),
                        ("exceptional_count", exceptional_count)):
        object.__setattr__(inv, name, value)
    return inv


def _blocks(group: DoubleScaledGroup, gamma) -> tuple:
    """The factor blocks of dense grid classes, ordered by their first summand.

    A block is a connected component of the gamma-support graph, in which two
    summands are linked when some class is nonzero on both; each factor's
    classes connect exactly its own summands.  A block is (columns, caps,
    classes): its summand indices ascending, their (left, right) caps, and the
    classes supported on it restricted to those columns.  A zero class lies
    in no block.  Only a ``KGridInvariant`` built from a dense ``gamma`` runs
    this union-find, once; assembly places each factor's own block instead.
    """
    k = group.k
    root = list(range(k))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    supports = [list(compress(range(k), c)) for c in gamma]
    for support in supports:
        if len(support) > 1:
            r = find(support[0])
            for i in support[1:]:
                root[find(i)] = r
    roots = list(map(find, range(k)))
    columns: dict = {}
    for i, r in enumerate(roots):
        columns.setdefault(r, []).append(i)
    classes: dict = {r: set() for r in columns}
    for cls, support in zip(gamma, supports):
        if support:
            r = roots[support[0]]
            classes[r].add(tuple(map(cls.__getitem__, columns[r])))
    pairs = list(zip(group.left_caps, group.right_caps))
    return tuple([(tuple(cols), _shared(tuple(map(pairs.__getitem__, cols))),
                   _shared(frozenset(classes[r])))
                  for r, cols in columns.items()])


@lru_cache(maxsize=4096)
def _shared(part):
    """The first-seen object equal to a block's caps tuple or class set, so
    that blocks of equal factors share them, in invariants built from dense
    classes as in assembled ones (which share ``_factor_block``'s)."""
    return part


@lru_cache(maxsize=None)
def _factor_block(f: CartanDescriptor) -> tuple:
    """The single block of a canonical factor's own invariant: all its
    summands, their caps and its grid classes."""
    caps = enveloping_tro(f).summands
    return (tuple(range(len(caps))), caps, gamma(f))


@lru_cache(maxsize=None)
def _invariant_of_canonical(spec: TripleSpec) -> KGridInvariant:
    blocks, caps = [], []
    for f in spec.factors:
        if not is_exceptional(f):
            _, block_caps, classes = _factor_block(f)
            blocks.append((tuple(range(len(caps), len(caps) + len(block_caps))),
                           block_caps, classes))
            caps += block_caps
    group = DoubleScaledGroup(tuple(n for n, _ in caps), tuple(m for _, m in caps))
    return _store(object.__new__(KGridInvariant), group, tuple(blocks), False,
                  len(spec.factors) - len(blocks))


def k_grid_invariant(s: TripleSpec) -> KGridInvariant:
    """Assemble the invariant of a factor multiset (canonicalized first):
    summands concatenate, and each factor's block is placed at its offset."""
    return _invariant_of_canonical(canonicalize_spec(s))


# --- isomorphism of invariants -----------------------------------------------------

def _sorted_key(pairs, classes) -> tuple:
    """Permutation-invariant data: the sorted cap pairs and sorted classes."""
    return (tuple(sorted(pairs)), tuple(sorted(tuple(sorted(c)) for c in classes)))


@lru_cache(maxsize=None)
def _quick_key(inv: KGridInvariant) -> tuple:
    """Unequal keys mean non-isomorphic; unequal first entries, unequal groups.
    This is the key of the dense gamma: each block class is padded with zeros
    to length k, and sorting forgets where the zeros were."""
    k = inv.group.k
    classes = [(0,) * (k - len(columns)) + cls
               for columns, _, block_classes in inv.blocks for cls in block_classes]
    if inv.zero_class:
        classes.append((0,) * k)
    return _sorted_key(zip(inv.group.left_caps, inv.group.right_caps), classes)


def _match_block(a: tuple, b: tuple) -> Optional[tuple]:
    """A cap-preserving map p of block a's columns onto block b's that carries
    a's classes onto b's (position i of a goes to position p[i] of b), or
    None.  Only columns with equal caps are exchanged; in a factor's block at
    most two columns share a cap pair, so at most two maps are tried."""
    (_, caps_a, classes_a), (_, caps_b, classes_b) = a, b
    if caps_a == caps_b and classes_a == classes_b:
        return tuple(range(len(caps_a)))
    slots: dict = {}
    for i, cap in enumerate(caps_a):
        slots.setdefault(cap, ([], []))[0].append(i)
    for j, cap in enumerate(caps_b):
        slots.setdefault(cap, ([], []))[1].append(j)
    if any(len(src) != len(dst) for src, dst in slots.values()):
        return None
    for choice in product(*(permutations(dst) for _, dst in slots.values())):
        p, q = [0] * len(caps_a), [0] * len(caps_a)  # q inverts p
        for (src, _), dst in zip(slots.values(), choice):
            for i, j in zip(src, dst):
                p[i], q[j] = j, i
        if {tuple(cls[i] for i in q) for cls in classes_a} == classes_b:
            return tuple(p)
    return None


def invariants_isomorphic(a: KGridInvariant,
                          b: KGridInvariant) -> Optional[tuple]:
    """A summand permutation carrying caps to caps and gamma onto gamma.

    Returns pi with summand i of `a` matched to summand pi[i] of `b`, or None.
    Equal invariants get the identity.  Otherwise the stored factor blocks
    of `a` are matched to those of `b` as a multiset, each pair by a
    cap-preserving map of its columns.  The summands may come in any order;
    on invariants assembled from factors the cost is polynomial in the number
    of summands.
    """
    if _quick_key(a) != _quick_key(b):
        return None
    if a == b:
        return tuple(range(a.group.k))
    unmatched: dict = {}
    for block in b.blocks:
        unmatched.setdefault(_sorted_key(*block[1:]), []).append(block)
    perm = [0] * a.group.k
    for block in a.blocks:
        bucket = unmatched.get(_sorted_key(*block[1:]), [])
        for n, other in enumerate(bucket):
            p = _match_block(block, other)
            if p is not None:
                break
        else:
            return None
        del bucket[n]  # block isomorphism is transitive: any match will do
        for i, j in zip(block[0], p):
            perm[i] = other[0][j]
    return tuple(perm)


# --- classification --------------------------------------------------------------

_STATUS_EXIT = {"ISOMORPHIC": 0, "NOT_ISOMORPHIC": 1, "INDETERMINATE": 2}


@dataclass(frozen=True, slots=True)
class Verdict:
    status: str
    witness: Optional[tuple]
    distinguishing: Optional[str]
    detail: str

    @property
    def exit_code(self) -> int:
        return _STATUS_EXIT[self.status]

    def to_dict(self) -> dict:
        return {
            "verdict": self.status,
            "witness": list(self.witness) if self.witness is not None else None,
            "distinguishing": self.distinguishing,
            "detail": self.detail,
        }


def classify_invariants(a: KGridInvariant, b: KGridInvariant) -> Verdict:
    perm = invariants_isomorphic(a, b)
    if perm is None:
        if _quick_key(a)[0] != _quick_key(b)[0]:
            return Verdict("NOT_ISOMORPHIC", None, "caps",
                           "double-scaled groups differ (summand dimension pairs)")
        return Verdict("NOT_ISOMORPHIC", None, "gamma",
                       "groups match but no cap-preserving permutation maps the "
                       "grid classes onto each other")
    if a.exceptional_count != b.exceptional_count:
        return Verdict("NOT_ISOMORPHIC", None, "exceptional_count",
                       f"exceptional factor counts differ "
                       f"({a.exceptional_count} vs {b.exceptional_count})")
    if a.exceptional_count > 0:
        return Verdict("INDETERMINATE", perm, None,
                       "non-exceptional parts agree; exceptional factors are "
                       "indistinguishable by K-theory")
    return Verdict("ISOMORPHIC", perm, None,
                   "witness permutation maps caps and grid classes exactly")


def classify(s1: TripleSpec, s2: TripleSpec) -> Verdict:
    """Decide triple isomorphism of two factor multisets from their invariants."""
    return classify_invariants(k_grid_invariant(s1), k_grid_invariant(s2))


# --- factor recovery ---------------------------------------------------------------

def _candidates(caps: list) -> list:
    """Canonical factors whose summand caps are the sorted multiset `caps`."""
    width = len(caps)
    out = []
    if caps[0] == (1, width) and caps == sorted(
            (comb(width, t), comb(width, t - 1)) for t in range(1, width + 1)):
        out.append(CartanDescriptor("I", (1, width)))
    l, r = caps[0]
    if width == 2 and min(l, r) >= 2 and caps[1] == (r, l):
        out.append(CartanDescriptor("I", (min(l, r), max(l, r))))
    if width <= 2 and l == r and caps[-1] == (l, l):
        n = l
        if width == 1 and n >= 5:
            out.append(CartanDescriptor("II", (n,)))
        if width == 1 and n >= 2:
            out.append(CartanDescriptor("III", (n,)))
        if n >= 4 and n & (n - 1) == 0:  # n = 2^p: IV(2p+1), IV(2p+2)
            out.append(CartanDescriptor("IV", (2 * n.bit_length() - 2 + width,)))
    return out


def recover_factors(inv: KGridInvariant) -> TripleSpec:
    """Recover the unique canonical factor multiset producing the invariant.

    Each stored factor block is identified on its own, so the summands may
    come in any order: the block is matched, by the block matcher of
    ``invariants_isomorphic``, against the single block of every factor with
    the same cap multiset, and exactly one factor must match.  A zero class
    lies in no block, so an invariant holding one is refused.
    """
    if inv.exceptional_count > 0:
        raise UnknownFactorError(
            "exceptional content cannot be recovered: V and VI leave no trace "
            "in the K-data beyond their count"
        )
    if inv.group.k == 0:
        raise UnknownFactorError("trivial invariant carries no factors")
    if inv.zero_class:
        raise UnknownFactorError("a zero grid class belongs to no factor block")
    factors = []
    for block in inv.blocks:
        columns, caps, _ = block
        matches = [f for f in _candidates(sorted(caps))
                   if _match_block(block, _factor_block(f)) is not None]
        if not matches:
            raise UnknownFactorError(
                f"no supported factor matches the block of summands "
                f"{list(columns)} (caps {list(caps)})"
            )
        if len(matches) > 1:
            names = ", ".join(f.to_text() for f in matches)
            raise UnknownFactorError(
                f"ambiguous block of summands {list(columns)}: {names}")
        factors.append(matches[0])
    return canonicalize_spec(TripleSpec(tuple(factors)))
