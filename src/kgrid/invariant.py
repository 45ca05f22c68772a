"""The K-grid invariant: a double-scaled ordered K0-group together with the
set of classes of grid range projections, its direct-sum assembly, the
isomorphism decision, classification of factor multisets, and recovery of the
factors from an invariant.

Grid classes come from one per-family formula, checked in the tests against
``kgrid.grids.grid_gamma`` on the constructed grids.  The usual tables attach
the spin grid's element u0 to the wrong parity; ``published_gamma`` keeps
their values for a discrepancy flag.  The grids' convention is the one under
which the coincidence IV(4) = I(2,2) has equal invariants on both sides.

The block lemma.  A factor block is a connected component of the
gamma-support graph, whose edges link two summands when some class is
nonzero on both.  An isomorphism of invariants permutes the summands,
keeping caps and carrying classes onto classes, so it carries blocks onto
blocks: two invariants are isomorphic exactly when their blocks match in
pairs.  Each canonical factor's invariant is one block, so the invariant
classifies finite multisets of factors exactly when it separates single
canonical factors.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress, permutations, product
from operator import itemgetter
from typing import Optional

from .cartan import (
    EXCEPTIONAL_16,
    CartanDescriptor,
    ExceptionalFactorError,
    TripleSpec,
    UnsupportedFactorError,
    binomial_row,
    canonicalize_factor,
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
        return frozenset({binomial_row(n * m - 1) if min(n, m) == 1 else (1, 1)})
    if d.kind == "II":
        return frozenset({(2,)})
    if d.kind == "III":
        return frozenset({(1,), (2,)} if d.params[0] > 1 or tabulated else {(1,)})
    ident = tuple(n for n, _ in enveloping_tro(d).summands)
    half = tuple(n // 2 for n in ident)
    return frozenset({half, ident} if (d.params[0] % 2 == 1) != tabulated else {half})


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
    read and is not kept.  ``_block_keys`` holds each block's
    ``_sorted_key``, in block order, and ``_key`` merges them (see
    ``_merged_key``); both are set when the invariant is built, by
    ``_store``, and take no part in equality, hashing or ``repr``.
    """

    group: DoubleScaledGroup
    blocks: tuple
    zero_class: bool
    exceptional_count: int
    _block_keys: tuple = field(compare=False, hash=False, repr=False)
    _key: tuple = field(compare=False, hash=False, repr=False)

    def __init__(self, group: DoubleScaledGroup, gamma: frozenset,
                 exceptional_count: int = 0) -> None:
        for cls in gamma:
            if type(cls) is not tuple:
                raise ValueError(f"grid classes must be tuples, got {cls!r}")
            for v in cls:
                if type(v) is not int:
                    raise ValueError(f"grid class entries must be ints, got {v!r}")
        if set(map(len, gamma)) - {group.k}:
            raise ValueError(f"every grid class needs {group.k} entries, "
                             "one per summand")
        blocks = _blocks(group, gamma)
        _store(self, group, blocks,
               tuple([_shared(_sorted_key(*block[1:])) for block in blocks]),
               (0,) * group.k in gamma, exceptional_count)

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


def _store(inv: KGridInvariant, group: DoubleScaledGroup, blocks: tuple, keys: tuple,
           zero_class: bool, exceptional_count: int) -> KGridInvariant:
    """Set the fields of a frozen invariant: `keys` are its blocks'
    ``_sorted_key`` in block order, and its own key merges them."""
    if type(exceptional_count) is not int or exceptional_count < 0:
        raise ValueError("exceptional_count must be a non-negative int, "
                         f"got {exceptional_count!r}")
    set_field = object.__setattr__
    set_field(inv, "group", group)
    set_field(inv, "blocks", blocks)
    set_field(inv, "zero_class", zero_class)
    set_field(inv, "exceptional_count", exceptional_count)
    set_field(inv, "_block_keys", keys)
    set_field(inv, "_key", _merged_key(keys, zero_class))
    return inv


def _blocks(group: DoubleScaledGroup, gamma) -> tuple:
    """The factor blocks of dense grid classes, ordered by their first summand.

    A block is a connected component of the gamma-support graph (see the
    module docstring); each factor's classes connect exactly its own
    summands.  A block is (columns, caps, classes): its summand indices
    ascending, their (left, right) caps, and the classes supported on it
    restricted to those columns.  A zero class lies in no block.  Only a
    ``KGridInvariant`` built from a dense ``gamma`` runs this union-find,
    once; assembly places each factor's own block instead.
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
    """The first-seen object equal to a block's caps tuple, class set or key,
    so that blocks of equal factors share them, in invariants built from
    dense classes as in assembled ones (which share the parts of
    ``_factor_parts``)."""
    return part


@lru_cache(maxsize=None)
def _factor_parts(f: CartanDescriptor) -> tuple:
    """What assembly takes from one canonical factor, built once: its own
    block (all its summands, their caps and its grid classes), its left and
    right caps, and its block's ``_sorted_key``, which every invariant
    holding that block stores as its key."""
    caps = enveloping_tro(f).summands
    classes = gamma(f)
    return ((tuple(range(len(caps))), caps, classes),
            tuple(n for n, _ in caps), tuple(m for _, m in caps),
            _sorted_key(caps, classes))


_BLOCK, _LEFT, _RIGHT, _KEY = map(itemgetter, range(4))


@lru_cache(maxsize=None)
def _canonical(d: CartanDescriptor) -> CartanDescriptor:
    """``canonicalize_factor``, kept per raw descriptor: mapped over a spec's
    factors, a hit runs no Python code and builds no descriptor."""
    return canonicalize_factor(d)


@lru_cache(maxsize=None)
def _invariant_of_canonical(*factors: CartanDescriptor) -> KGridInvariant:
    """The invariant of sorted canonical factors; passed as separate
    arguments, they are themselves the cache key.

    A miss concatenates the factors' ``_factor_parts``: the caps go to the
    group as they are, each factor's block is placed at its offset, and the
    key merges the factors' shares, runs that are each already sorted.  V
    and VI sort after every other kind and have no parts.
    """
    parts = list(map(_factor_parts, factors[:bisect_left(factors, EXCEPTIONAL_16)]))
    blocks, offset = [], 0
    for columns, caps, classes in map(_BLOCK, parts):
        end = offset + len(columns)
        blocks.append((tuple(range(offset, end)), caps, classes))
        offset = end
    group = DoubleScaledGroup(tuple(chain.from_iterable(map(_LEFT, parts))),
                              tuple(chain.from_iterable(map(_RIGHT, parts))))
    return _store(object.__new__(KGridInvariant), group, tuple(blocks),
                  tuple(map(_KEY, parts)), False, len(factors) - len(blocks))


def k_grid_invariant(s: TripleSpec) -> KGridInvariant:
    """Assemble the invariant of a factor multiset (canonicalized first):
    summands concatenate, and each factor's block is placed at its offset."""
    return _invariant_of_canonical(*sorted(map(_canonical, s.factors)))


# --- isomorphism of invariants -----------------------------------------------------

def _sorted_key(caps, classes) -> tuple:
    """A block's permutation-invariant data: its sorted cap pairs, and the
    sorted tuple of each class's sorted nonzero entries, computed once per
    block, when its invariant is built (``_store``).  Blocks with equal
    sorted caps have equal width, and for a fixed width dropping the zeros
    is a bijection on sorted classes, so two such keys are equal exactly
    when the keys that keep the zeros are."""
    return (tuple(sorted(caps)), tuple(sorted(tuple(sorted(filter(None, c)))
                                              for c in classes)))


def _merged_key(keys, zero_class: bool) -> tuple:
    """An invariant's key: its blocks' ``_sorted_key`` merged, plus () for a
    zero class; unequal keys mean non-isomorphic, unequal first entries
    unequal groups.  Every summand lies in one block, so two keys are equal
    exactly when the keys of the dense gammas (each class zero-padded) are."""
    caps, classes = [], [()] * zero_class
    for block_caps, block_classes in keys:
        caps += block_caps
        classes += block_classes
    return tuple(sorted(caps)), tuple(sorted(classes))


@lru_cache(maxsize=4096)
def _match_block(caps_a: tuple, classes_a: frozenset, caps_b: tuple,
                 classes_b: frozenset) -> Optional[tuple]:
    """A cap-preserving map p of block a's columns onto block b's that carries
    a's classes onto b's (position i of a goes to position p[i] of b), or
    None.  A block enters by its caps and classes only: its columns play no
    part in a match.  Its callers pass blocks with equal cap multisets;
    others get None.

    The cost: the maps that exchange only columns with equal caps are tried
    in turn, so the search is factorial in the number of equal-cap columns
    of one block.  In a factor's block at most two columns share a cap
    pair, so at most two maps are tried; a raw ``KGridInvariant`` can hold
    a wide block of equal caps (8 such columns took up to 0.3 s).  The answers
    are kept in a bounded memo keyed by the four parts, so the search runs
    once per distinct pair of blocks while it stays there; blocks of equal
    factors share their parts (``_shared``), so a hit compares identical
    objects."""
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
    The stored factor blocks of `a` are matched to those of `b` as a
    multiset, bucketed by their stored keys, each pair by a cap-preserving
    map of its columns (``_match_block``).  Equal invariants get the
    identity: each block meets its equal first.  The summands may
    come in any order; on invariants assembled from factors the cost is
    polynomial in the number of summands.  A raw invariant's block of many
    equal-cap columns costs factorial time in that number, once per distinct
    pair of blocks: the block matcher is memoized by value.
    """
    if a._key != b._key:
        return None
    unmatched: dict = {}
    for key, block in zip(b._block_keys, b.blocks):
        unmatched.setdefault(key, []).append(block)
    perm = [0] * a.group.k
    for key, (columns, caps, classes) in zip(a._block_keys, a.blocks):
        bucket = unmatched.get(key, [])
        for n, other in enumerate(bucket):
            p = _match_block(caps, classes, other[1], other[2])
            if p is not None:
                break
        else:
            return None
        del bucket[n]  # block isomorphism is transitive: any match will do
        for i, j in zip(columns, p):
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


_CAPS_DIFFER = Verdict("NOT_ISOMORPHIC", None, "caps",
                       "double-scaled groups differ (summand dimension pairs)")
_GAMMA_DIFFER = Verdict("NOT_ISOMORPHIC", None, "gamma",
                        "groups match but no cap-preserving permutation maps the "
                        "grid classes onto each other")


def _agreeing(perm: tuple, exceptional: bool) -> Verdict:
    """The verdict on invariants whose summands perm matches, exceptional
    counts equal: indeterminate when there are exceptional factors."""
    if exceptional:
        return Verdict("INDETERMINATE", perm, None,
                       "non-exceptional parts agree; exceptional factors are "
                       "indistinguishable by K-theory")
    return Verdict("ISOMORPHIC", perm, None,
                   "witness permutation maps caps and grid classes exactly")


@lru_cache(maxsize=256)
def _identity_verdict(k: int, exceptional: bool) -> Verdict:
    """The verdict on an invariant with k summands against itself."""
    return _agreeing(tuple(range(k)), exceptional)


def classify_invariants(a: KGridInvariant, b: KGridInvariant) -> Verdict:
    """The verdict on two invariants, with a witness when they agree.

    An invariant against itself (two spellings of one multiset share their
    assembled invariant) and two invariants with different caps or classes
    get a verdict object that is kept, so those calls build no verdict.
    """
    if a is b:
        return _identity_verdict(a.group.k, a.exceptional_count > 0)
    perm = invariants_isomorphic(a, b)
    if perm is None:
        return _CAPS_DIFFER if a._key[0] != b._key[0] else _GAMMA_DIFFER
    if a.exceptional_count != b.exceptional_count:
        return Verdict("NOT_ISOMORPHIC", None, "exceptional_count",
                       f"exceptional factor counts differ "
                       f"({a.exceptional_count} vs {b.exceptional_count})")
    return _agreeing(perm, a.exceptional_count > 0)


def classify(s1: TripleSpec, s2: TripleSpec) -> Verdict:
    """Decide triple isomorphism of two factor multisets from their invariants."""
    return classify_invariants(k_grid_invariant(s1), k_grid_invariant(s2))


# --- factor recovery ---------------------------------------------------------------

@lru_cache(maxsize=4096)
def _candidates(caps: tuple) -> tuple:
    """Canonical factors whose summand caps are the sorted tuple `caps`: at
    most one per family, named by the width w and the first cap (l, r)
    (IV(2p + w) for l = 2^p), kept when it constructs, is canonical and has
    these caps in ``enveloping_tro``.  Kept per caps in a bounded memo, as
    every order of a block's summands asks for the same sorted caps."""
    width, (l, r) = len(caps), caps[0]
    named = [("I", (l, r))] if l > 1 or r == width else []  # I(1,r) has r summands
    named += [("II", (l,)), ("III", (l,)), ("IV", (2 * l.bit_length() - 2 + width,))]
    out = []
    for kind, params in named:
        try:
            f = CartanDescriptor(kind, params)
        except UnsupportedFactorError:  # below the family's range
            continue
        if canonicalize_factor(f) == f and tuple(sorted(enveloping_tro(f).summands)) == caps:
            out.append(f)
    return tuple(out)


@lru_cache(maxsize=4096)
def _block_factors(caps: tuple, classes: frozenset) -> tuple:
    """The canonical factors whose own block a block with these caps and
    classes matches, at whatever columns it sits.  Assembled blocks share
    the objects of ``_factor_parts``' blocks, so a hit hashes a short caps
    tuple and a frozenset whose hash Python keeps."""
    return tuple(f for f in _candidates(tuple(sorted(caps)))
                 if _match_block(caps, classes, *_BLOCK(_factor_parts(f))[1:])
                 is not None)


def recover_factors(inv: KGridInvariant) -> TripleSpec:
    """Recover the unique canonical factor multiset producing the invariant.

    Each stored factor block is identified on its own, so the summands may
    come in any order: the block is matched, by the block matcher of
    ``invariants_isomorphic``, against the single block of every factor with
    the same cap multiset, and exactly one factor must match.  The matches
    are kept per (caps, classes) in a bounded memo.  A zero class lies in no
    block, so an invariant holding one is refused.
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
    for columns, caps, classes in inv.blocks:
        matches = _block_factors(caps, classes)
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
    return TripleSpec(tuple(sorted(factors)))  # candidates are canonical
