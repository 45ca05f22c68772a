"""Classical Cartan factor descriptors, their enveloping TROs, spin systems
of Clifford words (the matrix realization in ``tests/spin.py`` is the tests'
reference), and the concrete embedding of factor elements into those TROs.

Factor kinds and parameters:

* ``I(n,m)``  rectangular, the n x m matrices;
* ``II(n)``   symplectic, the skew-symmetric n x n matrices (n >= 5);
* ``III(n)``  hermitian, the symmetric n x n matrices;
* ``IV(d)``   spin factor of dimension d (d >= 4);
* ``V, VI``   the two exceptional factors, carried only as markers with
              trivial K-data (dimensions 16 and 27).

Below-range parameters are rejected with the classical coincidence named in
the message instead of silently computing an isomorphic copy of another
factor; the one coincidence inside the supported range, IV(4) = I(2,2), is
handled by canonicalization.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Sequence

from .exact import Matrix, ParseError, mat_jordan, matrix_unit, span_coords, sparse_matrix
from .tro import (CliffordElement, TroElement, TroSpace, clifford_summands,
                  element_span_coords, jordan_triple, ternary_product)


class UnsupportedFactorError(ValueError):
    """Parameters outside the supported range (a classical coincidence)."""


class ExceptionalFactorError(ValueError):
    """V and VI carry only the trivial invariant; no TRO or grid data exists."""


class CoordinateError(ValueError):
    """Intrinsic coordinates do not match the factor's convention."""


_ARITY = {"I": 2, "II": 1, "III": 1, "IV": 1, "V": 0, "VI": 0}  # in sort order


class CartanDescriptor(namedtuple("CartanDescriptor", ("kind", "params"))):
    """A factor as its (kind, params) pair, checked when constructed; kinds
    sort in ``_ARITY`` order, so descriptors sort by kind, then parameters."""

    __slots__ = ()

    def __new__(cls, kind: str, params: tuple = ()) -> CartanDescriptor:
        if kind not in _ARITY:
            raise ValueError(f"unknown factor kind {kind!r}")
        if type(params) is not tuple:
            raise ValueError(f"{kind} parameters must be a tuple, got {params!r}")
        if len(params) != _ARITY[kind]:
            raise ValueError(
                f"{kind} takes {_ARITY[kind]} parameter(s), got {len(params)}")
        for p in params:  # a loop, not any(): descriptors are built on hot paths
            if type(p) is not int:
                raise ValueError(f"{kind} parameters must be ints, got {params!r}")
        if kind == "I":
            n, m = params
            if n < 1 or m < 1:
                raise UnsupportedFactorError(f"I({n},{m}): dimensions must be >= 1")
        elif kind == "II":
            n = params[0]
            if n < 5:
                raise UnsupportedFactorError(
                    f"II({n}) is below the supported range (n >= 5): "
                    + _II_COINCIDENCE.get(n, "degenerate")
                )
        elif kind == "III":
            if params[0] < 1:
                raise UnsupportedFactorError("III(n) needs n >= 1")
        elif kind == "IV":
            d = params[0]
            if d < 4:
                raise UnsupportedFactorError(
                    f"IV({d}) is below the supported range (d >= 4): "
                    + _IV_COINCIDENCE.get(d, "degenerate")
                )
        return tuple.__new__(cls, (kind, params))

    @classmethod
    def _make(cls, iterable) -> CartanDescriptor:
        # namedtuple's _make, which _replace calls, would skip the checks
        return cls(*iterable)

    def to_text(self) -> str:
        if self.params:
            return f"{self.kind}({','.join(str(p) for p in self.params)})"
        return self.kind

    def __str__(self) -> str:
        return self.to_text()


_II_COINCIDENCE = {
    4: "II(4) coincides with IV(6)",
    3: "II(3) coincides with I(1,3)",
    2: "II(2) coincides with I(1,1)",
    1: "II(1) is the zero triple",
}

_IV_COINCIDENCE = {
    3: "IV(3) coincides with III(2)",
    2: "IV(2) splits as I(1,1)+I(1,1)",
    1: "IV(1) coincides with I(1,1)",
}


EXCEPTIONAL_16 = CartanDescriptor("V")
EXCEPTIONAL_27 = CartanDescriptor("VI")


def is_exceptional(d: CartanDescriptor) -> bool:
    return d.kind in ("V", "VI")


@dataclass(frozen=True, slots=True)
class TripleSpec:
    """A finite multiset of Cartan factors (order is kept but not meaningful)."""

    factors: tuple

    def __post_init__(self) -> None:
        if type(self.factors) is not tuple:
            raise ValueError(f"factors must be a tuple, got {self.factors!r}")
        if not self.factors:
            raise ValueError("a triple spec needs at least one factor")

    def to_text(self) -> str:
        return "+".join(f.to_text() for f in self.factors)

    def __str__(self) -> str:
        return self.to_text()


# --- factor-spec grammar ----------------------------------------------------

_ROMANS = sorted(_ARITY, key=len, reverse=True)  # longest match first


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _parse_int(text: str, i: int) -> tuple:
    j = i
    while j < len(text) and text[j].isdecimal():
        j += 1
    if j == i:
        raise ParseError(i, "expected a number")
    return int(text[i:j]), j


def _parse_factor(text: str, i: int) -> tuple:
    start = i
    kind = None
    for roman in _ROMANS:
        if text.startswith(roman, i):
            kind = roman
            i += len(roman)
            break
    if kind is None:
        raise ParseError(start, f"expected a factor kind ({', '.join(_ARITY)})")
    i = _skip_ws(text, i)
    params: list = []
    if i < len(text) and text[i] == "(":
        i = _skip_ws(text, i + 1)
        while True:
            value, i = _parse_int(text, i)
            params.append(value)
            i = _skip_ws(text, i)
            if i < len(text) and text[i] == ",":
                i = _skip_ws(text, i + 1)
                continue
            break
        if i >= len(text) or text[i] != ")":
            raise ParseError(i, "expected ')'")
        i += 1
    try:
        return CartanDescriptor(kind, tuple(params)), i
    except ValueError as exc:
        if isinstance(exc, UnsupportedFactorError):
            raise
        raise ParseError(start, str(exc)) from exc


def parse_triple_spec(text: str) -> TripleSpec:
    """Parse ``"I(2,3)+IV(6)+III(4)"``-style specs; whitespace-insensitive."""
    i = _skip_ws(text, 0)
    if i >= len(text):
        raise ParseError(i, "empty factor spec")
    factors = []
    while True:
        factor, i = _parse_factor(text, i)
        factors.append(factor)
        i = _skip_ws(text, i)
        if i >= len(text):
            break
        if text[i] != "+":
            raise ParseError(i, f"expected '+' or end of spec, found {text[i]!r}")
        i = _skip_ws(text, i + 1)
    return TripleSpec(tuple(factors))


# --- canonical forms ---------------------------------------------------------

# III(1) and IV(4), as the rectangular factors they coincide with
_COINCIDENCES = {CartanDescriptor("III", (1,)): CartanDescriptor("I", (1, 1)),
                 CartanDescriptor("IV", (4,)): CartanDescriptor("I", (2, 2))}

_unchecked = tuple.__new__  # no checks: only for the transpose of a valid I(n,m)


def canonicalize_factor(d: CartanDescriptor) -> CartanDescriptor:
    """The normal form of d modulo triple isomorphism within the supported
    catalog; d itself if it is canonical.

    Transposition identifies I(n,m) with I(m,n); one-row and one-column
    rectangular factors are the same Hilbert factor; III(1) is the one
    dimensional factor; IV(4) is the classical coincidence with I(2,2).
    """
    kind = d.kind
    if kind == "I":
        n, m = d.params
        return d if n <= m else _unchecked(CartanDescriptor, (kind, (m, n)))
    return _COINCIDENCES[d] if d in _COINCIDENCES else d


def canonicalize_spec(s: TripleSpec) -> TripleSpec:
    return TripleSpec(tuple(sorted(map(canonicalize_factor, s.factors))))


# --- dimensions and enveloping TROs ------------------------------------------

def intrinsic_dim(d: CartanDescriptor) -> int:
    if d.kind == "I":
        n, m = d.params
        return n * m
    if d.kind == "II":
        n = d.params[0]
        return n * (n - 1) // 2
    if d.kind == "III":
        n = d.params[0]
        return n * (n + 1) // 2
    if d.kind == "IV":
        return d.params[0]
    return 16 if d.kind == "V" else 27


def binomial_row(h: int) -> tuple:
    """C(h,0), ..., C(h,h), each from the one before: C(h,t) = C(h,t-1)(h-t+1)/t."""
    return tuple(accumulate(range(1, h + 1), lambda c, t: c * (h - t + 1) // t, initial=1))


def enveloping_tro(d: CartanDescriptor) -> TroSpace:
    """The universal enveloping TRO of a non-exceptional factor."""
    if is_exceptional(d):
        raise ExceptionalFactorError(
            f"{d}: exceptional factor, only the trivial invariant exists"
        )
    if d.kind == "I":
        n, m = d.params
        if min(n, m) == 1:  # caps (C(h,k), C(h,k-1)) for k = 1..h
            row = binomial_row(n * m)
            return TroSpace(tuple(zip(row[1:], row)))
        return TroSpace(((n, m), (m, n)))
    if d.kind in ("II", "III"):
        n = d.params[0]
        return TroSpace(((n, n),))
    return TroSpace(clifford_summands(d.params[0] - 1))


# --- rank-one machinery -------------------------------------------------------

def _lex_index(h: int, size: int) -> dict:
    """The size-subsets of {1..h} as bit masks (bit j - 1 stands for j), each
    mapped to its index in lexicographic order."""
    return {sum(1 << p for p in c): r for r, c in enumerate(combinations(range(h), size))}


def _frame_level(h: int, k: int) -> list:
    """Block k of every frame element, [b(h,k,1), ..., b(h,k,h)], from one pass
    over the (k-1)-subsets I of {1..h}.  A sign is the parity of the inversions
    of (sorted I, i, sorted J): the t-th element a of I (from t = 0) precedes
    a - 1 - t smaller numbers, sum(I) - (k-1)k/2 in all, and sum(I) is as odd
    as I's count of odd numbers; then i precedes i - 1 - #{a in I : a < i} in J."""
    cols, rows = _lex_index(h, k - 1), _lex_index(h, h - k)
    full = (1 << h) - 1
    odd = sum(1 << p for p in range(0, h, 2))  # the masks of 1, 3, 5, ...
    num: list = [{} for _ in range(h)]
    for mask, c in cols.items():
        inv_i = (mask & odd).bit_count() - (k - 1) * k // 2  # inversions led by I's elements
        for i in range(1, h + 1):
            bit = 1 << (i - 1)
            if not mask & bit:
                inv = inv_i + i - 1 - (mask & (bit - 1)).bit_count()
                num[i - 1][rows[full ^ mask ^ bit]] = {c: (-1 if inv % 2 else 1, 0)}
    return [sparse_matrix(len(rows), len(cols), entries, 1) for entries in num]


def b_matrix(n: int, k: int, i: int) -> Matrix:
    """The signed incidence matrix mapping (k-1)-subsets to (n-k)-subsets:
    block k of g_i in ``hilbert_frame(n)``, built from that one level.

    Rows are indexed by the (n-k)-subsets J of {1..n}, columns by the
    (k-1)-subsets I, both in lexicographic order.  The (J, I) entry is the
    sign of the permutation (sorted I, i, sorted J) of (1..n) when I and J
    partition {1..n} minus {i}, and 0 otherwise, so each row and each column
    holds at most one nonzero entry.
    """
    if not (1 <= k <= n) or not (1 <= i <= n):
        raise ValueError(f"b_matrix indices out of range: n={n}, k={k}, i={i}")
    return _frame_level(n, k)[i - 1]


@lru_cache(maxsize=None)
def hilbert_frame(h: int) -> tuple:
    """The embedded standard basis of the rank-one factor of dimension h:
    g_i = (b(h,1,i), ..., b(h,h,i)) inside the enveloping TRO."""
    target = enveloping_tro(CartanDescriptor("I", (1, h)))
    blocks = zip(*(_frame_level(h, k) for k in range(1, h + 1)))  # each g_i's blocks
    return tuple(TroElement(target, g) for g in blocks)


# --- spin systems -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SpinSystem:
    """Self-adjoint elements s_i with (s_i s_j + s_j s_i)/2 = delta_ij * id,
    checked as s_i^2 = id and s_i s_j = -s_j s_i for i < j, with the
    products of the elements' own type: matrix blocks, or the words of
    ``tro.CliffordElement``."""

    identity: TroElement
    symmetries: tuple

    def __post_init__(self) -> None:
        id_el = self.identity
        for idx, s in enumerate(self.symmetries):
            if s.space != id_el.space:
                raise ValueError(f"symmetry {idx} lives in a different space")
            for b, (blk, adj) in enumerate(zip(s.blocks, s.adjoint_blocks())):
                if adj != blk:
                    raise ValueError(f"symmetry {idx}, block {b} is not self-adjoint")
        for i, si in enumerate(self.symmetries):
            for j in range(i, len(self.symmetries)):
                sj = self.symmetries[j]
                # s_i s_i* id = s_i^2, and then s_i s_j* s_i = s_i s_j s_i is
                # -s_j exactly when s_i s_j = -s_j s_i
                ok = (ternary_product(si, si, id_el) == id_el if i == j
                      else ternary_product(si, sj, si) == -sj)
                if not ok:
                    raise ValueError(f"anticommutator relation fails for ({i},{j})")

    def __len__(self) -> int:
        return len(self.symmetries)


# --- intrinsic coordinates and the embedding ----------------------------------

def coordinate_positions(d: CartanDescriptor) -> tuple:
    """The (row, column) of each intrinsic coordinate, in basis order: every
    entry of I(n,m) row by row, the upper triangle of II(n) without the
    diagonal and of III(n) with it, and the d entries of IV(d)'s single row."""
    if d.kind == "I":
        n, m = d.params
        return tuple((i, j) for i in range(n) for j in range(m))
    if d.kind in ("II", "III"):
        n = d.params[0]
        first = 1 if d.kind == "II" else 0
        return tuple((i, j) for i in range(n) for j in range(i + first, n))
    if d.kind == "IV":
        return tuple((0, j) for j in range(d.params[0]))
    raise ExceptionalFactorError(f"{d}: no coordinate model is implemented")


def intrinsic_basis(d: CartanDescriptor) -> tuple:
    """Basis of the intrinsic coordinate space: E_ij at each of the
    ``coordinate_positions``, minus E_ji for II and plus E_ji off the diagonal
    for III.  Coordinate conventions: I(n,m) takes an n x m matrix; II(n) a
    skew and III(n) a symmetric n x n matrix; IV(d) a row vector of length d
    of coefficients over the spin basis (identity direction first)."""
    positions = coordinate_positions(d)  # first: it refuses V and VI
    rows, cols = (1 if d.kind == "IV" else d.params[0]), d.params[-1]

    def unit(i: int, j: int) -> Matrix:
        return matrix_unit(rows, cols, i, j)
    if d.kind == "II":
        return tuple(unit(i, j) - unit(j, i) for i, j in positions)
    if d.kind == "III":
        return tuple(unit(i, j) + unit(j, i) if i != j else unit(i, j)
                     for i, j in positions)
    return tuple(unit(i, j) for i, j in positions)


@lru_cache(maxsize=None)
def embedded_basis(d: CartanDescriptor) -> tuple:
    """Images of ``intrinsic_basis(d)``, in its order; spans the embedded factor.

    A matrix unit u of I(n,m) goes to (u, u^T) and a basis matrix u of II(n)
    or III(n) to (u,).  A rank-one factor's basis is its ``hilbert_frame``.
    A spin factor's is the identity and the generators gamma_1 ... gamma_(d-1)
    of its enveloping Clifford algebra, as words (``tro.CliffordElement``):
    a ``SpinSystem``, so their relations are checked with word products.
    """
    if d.kind == "I" and min(d.params) == 1:
        return hilbert_frame(d.params[0] * d.params[1])
    if d.kind == "IV":
        space = enveloping_tro(d)
        n = d.params[0] - 1

        def word(mask: int) -> CliffordElement:
            return CliffordElement(space, (matrix_unit(1, 1 << n, 0, mask),))
        system = SpinSystem(word(0), tuple(word(1 << k) for k in range(n)))
        return (system.identity,) + system.symmetries
    basis = intrinsic_basis(d)
    target = enveloping_tro(d)
    if d.kind == "I":
        return tuple(TroElement(target, (u, u.transpose())) for u in basis)
    return tuple(TroElement(target, (u,)) for u in basis)


def _combine(basis: Sequence, coeffs: Sequence) -> Matrix | TroElement:
    # sum of coeffs[k] * basis[k], for matrices and TRO elements alike
    acc = basis[0].scale(0)
    for c, b in zip(coeffs, basis):
        if not c.is_zero():
            acc = acc + b.scale(c)
    return acc


def embed(d: CartanDescriptor, x: Matrix) -> TroElement:
    """The triple embedding: the linear map sending ``intrinsic_basis(d)``
    onto ``embedded_basis(d)``; raises CoordinateError off the coordinate
    space (see ``intrinsic_basis`` for the conventions).  For IV(d) the image
    is a ``CliffordElement`` word, not a matrix element."""
    basis = intrinsic_basis(d)
    coeffs = span_coords(basis, x) if x.shape == basis[0].shape else None
    _check_coordinates(d, x, basis[0].shape, coeffs is not None)
    return _combine(embedded_basis(d), coeffs)


def _check_coordinates(d: CartanDescriptor, x: Matrix, shape: tuple, on_space: bool) -> None:
    """Raise ``embed``'s CoordinateError for x of another shape or off the space."""
    if x.shape != shape:
        raise CoordinateError(f"{d} expects a {shape[0]}x{shape[1]} "
                              f"coordinate matrix, got {x.shape}")
    if not on_space:
        raise CoordinateError(f"coordinates are not in the coordinate space of {d}")


def coords_of(d: CartanDescriptor, el: TroElement) -> Matrix:
    """Inverse of ``embed`` on its image; raises CoordinateError off the image,
    which holds elements of the basis's type only: words for IV(d), so an
    element of the matrix realization in ``tests/spin.py`` is off it.  An
    element of that type in another space raises SpaceMismatch."""
    basis = embedded_basis(d)
    if type(el) is not type(basis[0]):
        raise CoordinateError(f"the embedded copy of {d} holds "
                              f"{type(basis[0]).__name__}s, not {type(el).__name__}s")
    coeffs = element_span_coords(list(basis), el)
    if coeffs is None:
        raise CoordinateError(f"element is not in the embedded copy of {d}")
    return _combine(intrinsic_basis(d), coeffs)


def intrinsic_jordan(d: CartanDescriptor, x: Matrix, y: Matrix, z: Matrix) -> Matrix:
    """The factor's own triple product in intrinsic coordinates.

    For the matrix factors this is (x y* z + z y* x)/2 on coordinates; for the
    spin factor it is pulled back through the embedding.  Coordinates off the
    space raise ``embed``'s CoordinateError: on I, II and III their shape
    decides it, and their transpose on II (skew) and III (symmetric).
    """
    if d.kind in ("I", "II", "III"):
        for v in (x, y, z):
            _check_coordinates(d, v, (d.params[0], d.params[-1]), d.kind == "I"
                               or v.transpose() == (-v if d.kind == "II" else v))
        return mat_jordan(x, y, z)
    if d.kind == "IV":
        return coords_of(d, jordan_triple(embed(d, x), embed(d, y), embed(d, z)))
    raise ExceptionalFactorError(f"{d}: no coordinate model is implemented")
