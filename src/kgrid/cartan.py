"""Classical Cartan factor descriptors, their enveloping TROs, the standard
spin systems, and the concrete embedding of factor elements into those TROs.

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

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from itertools import combinations
from typing import Sequence

from .exact import (HALF, SIGMA1, SIGMA2, SIGMA3, Matrix, ParseError, identity,
                    kron_all, mat_mul, matrix_unit, span_coords, sparse_matrix)
from .tro import TroElement, TroSpace, element_span_coords, jordan_triple


class UnsupportedFactorError(ValueError):
    """Parameters outside the supported range (a classical coincidence)."""


class ExceptionalFactorError(ValueError):
    """V and VI carry only the trivial invariant; no TRO or grid data exists."""


class CoordinateError(ValueError):
    """Intrinsic coordinates do not match the factor's convention."""


_ARITY = {"I": 2, "II": 1, "III": 1, "IV": 1, "V": 0, "VI": 0}  # in sort order
_KIND_ORDER = {kind: n for n, kind in enumerate(_ARITY)}


@dataclass(frozen=True, slots=True)
class CartanDescriptor:
    kind: str
    params: tuple = ()

    def __post_init__(self) -> None:
        kind, params = self.kind, self.params
        if kind not in _ARITY:
            raise ValueError(f"unknown factor kind {kind!r}")
        if len(params) != _ARITY[kind]:
            raise ValueError(
                f"{kind} takes {_ARITY[kind]} parameter(s), got {len(params)}")
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

    def to_text(self) -> str:
        if self.params:
            return f"{self.kind}({','.join(str(p) for p in self.params)})"
        return self.kind

    def __str__(self) -> str:
        return self.to_text()

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.params)


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

def canonicalize_factor(d: CartanDescriptor) -> CartanDescriptor:
    """Normal form modulo triple isomorphism within the supported catalog.

    Transposition identifies I(n,m) with I(m,n); one-row and one-column
    rectangular factors are the same Hilbert factor; III(1) is the one
    dimensional factor; IV(4) is the classical coincidence with I(2,2).
    """
    if d.kind == "I":
        n, m = d.params
        if n == 1 or m == 1:
            return CartanDescriptor("I", (1, max(n, m)))
        return CartanDescriptor("I", (min(n, m), max(n, m)))
    if d.kind == "III" and d.params[0] == 1:
        return CartanDescriptor("I", (1, 1))
    if d.kind == "IV" and d.params[0] == 4:
        return CartanDescriptor("I", (2, 2))
    return d


def canonicalize_spec(s: TripleSpec) -> TripleSpec:
    factors = sorted((canonicalize_factor(f) for f in s.factors),
                     key=CartanDescriptor.sort_key)
    return TripleSpec(tuple(factors))


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


def enveloping_tro(d: CartanDescriptor) -> TroSpace:
    """The universal enveloping TRO of a non-exceptional factor."""
    if is_exceptional(d):
        raise ExceptionalFactorError(
            f"{d}: exceptional factor, only the trivial invariant exists"
        )
    if d.kind == "I":
        n, m = d.params
        if min(n, m) == 1:
            h = n * m
            return TroSpace(tuple((comb(h, k), comb(h, k - 1))
                                  for k in range(1, h + 1)))
        return TroSpace(((n, m), (m, n)))
    if d.kind in ("II", "III"):
        n = d.params[0]
        return TroSpace(((n, n),))
    dim = d.params[0]
    if dim % 2 == 0:
        half = 2 ** (dim // 2 - 1)
        return TroSpace(((half, half), (half, half)))
    side = 2 ** ((dim - 1) // 2)
    return TroSpace(((side, side),))


# --- rank-one machinery -------------------------------------------------------

def _perm_sign(seq: Sequence[int]) -> int:
    inv = 0
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


def b_matrix(n: int, k: int, i: int) -> Matrix:
    """The signed incidence matrix mapping (k-1)-subsets to (n-k)-subsets.

    Rows are indexed by the (n-k)-subsets J of {1..n}, columns by the
    (k-1)-subsets I, both in lexicographic order.  The (J, I) entry is the
    sign of the permutation (sorted I, i, sorted J) of (1..n) when I and J
    partition {1..n} minus {i}, and 0 otherwise, so each row and each column
    holds at most one nonzero entry.
    """
    if not (1 <= k <= n) or not (1 <= i <= n):
        raise ValueError(f"b_matrix indices out of range: n={n}, k={k}, i={i}")
    row_subsets = list(combinations(range(1, n + 1), n - k))
    col_subsets = list(combinations(range(1, n + 1), k - 1))
    row_index = {s: r for r, s in enumerate(row_subsets)}
    nrows, ncols = len(row_subsets), len(col_subsets)
    num = {}
    for c, subset_i in enumerate(col_subsets):
        if i in subset_i:
            continue
        subset_j = tuple(sorted(set(range(1, n + 1)) - set(subset_i) - {i}))
        r = row_index[subset_j]
        sign = _perm_sign(list(subset_i) + [i] + list(subset_j))
        num[r] = {c: (sign, 0)}
    return sparse_matrix(nrows, ncols, num, 1)


@lru_cache(maxsize=None)
def hilbert_frame(h: int) -> tuple:
    """The embedded standard basis of the rank-one factor of dimension h:
    g_i = (b(h,1,i), ..., b(h,h,i)) inside the enveloping TRO."""
    target = enveloping_tro(CartanDescriptor("I", (1, h)))
    return tuple(
        TroElement(target, tuple(b_matrix(h, k, i) for k in range(1, h + 1)))
        for i in range(1, h + 1)
    )


# --- spin systems -------------------------------------------------------------

_ID2 = identity(2)


def _block_mul(x: TroElement, y: TroElement) -> TroElement:
    # algebra product for square-block elements
    return TroElement(x.space, tuple(mat_mul(a, b) for a, b in zip(x.blocks, y.blocks)))


@dataclass(frozen=True, slots=True)
class SpinSystem:
    """Self-adjoint elements s_i with (s_i s_j + s_j s_i)/2 = delta_ij * id,
    checked as s_i^2 = id and s_i s_j = -s_j s_i for i < j."""

    identity: TroElement
    symmetries: tuple

    def __post_init__(self) -> None:
        id_el = self.identity
        for idx, s in enumerate(self.symmetries):
            if s.space != id_el.space:
                raise ValueError(f"symmetry {idx} lives in a different space")
            for b, blk in enumerate(s.blocks):
                if blk.dagger() != blk:
                    raise ValueError(f"symmetry {idx}, block {b} is not self-adjoint")
        for i, si in enumerate(self.symmetries):
            for j in range(i, len(self.symmetries)):
                sj = self.symmetries[j]
                prod = _block_mul(si, sj)
                ok = prod == id_el if i == j else prod == -_block_mul(sj, si)
                if not ok:
                    raise ValueError(f"anticommutator relation fails for ({i},{j})")

    @property
    def space(self) -> TroSpace:
        return self.identity.space

    def __len__(self) -> int:
        return len(self.symmetries)


def _odd_symmetry_matrices(n: int) -> list:
    """2n anticommuting self-adjoint involutions in M(2^n), as tensor words."""
    mats = [kron_all([SIGMA1] + [_ID2] * (n - 1)),
            kron_all([SIGMA2] + [_ID2] * (n - 1))]
    for l in range(1, n):
        prefix = [SIGMA3] * l
        tail = [_ID2] * (n - l - 1)
        mats.append(kron_all(prefix + [SIGMA1] + tail))
        mats.append(kron_all(prefix + [SIGMA2] + tail))
    return mats


@lru_cache(maxsize=None)
def standard_spin_system(d: CartanDescriptor) -> SpinSystem:
    """The standard spin system spanning the spin factor inside its TRO.

    Odd dimension 2n+1: 2n symmetries in M(2^n).  Even dimension 2n: 2n-1
    symmetries in M(2^(n-1)) + M(2^(n-1)), the last one carrying opposite
    signs in the two blocks.
    """
    if d.kind != "IV":
        raise ValueError(f"spin system requested for {d}")
    dim = d.params[0]
    target = enveloping_tro(d)
    if dim % 2 == 1:
        n = (dim - 1) // 2
        mats = _odd_symmetry_matrices(n)
        ident = TroElement(target, (identity(2 ** n),))
        syms = tuple(TroElement(target, (m,)) for m in mats)
    else:
        n = dim // 2
        base = _odd_symmetry_matrices(n - 1)
        ident_blk = identity(2 ** (n - 1))
        ident = TroElement(target, (ident_blk, ident_blk))
        syms = [TroElement(target, (m, m)) for m in base]
        last = kron_all([SIGMA3] * (n - 1))
        syms.append(TroElement(target, (last, -last)))
        syms = tuple(syms)
    return SpinSystem(ident, syms)


# --- intrinsic coordinates and the embedding ----------------------------------

def intrinsic_basis(d: CartanDescriptor) -> tuple:
    """Basis of the intrinsic coordinate space.

    Coordinate conventions: I(n,m) takes an n x m matrix; II(n) a skew and
    III(n) a symmetric n x n matrix; IV(d) a row vector of length d of
    coefficients over the spin basis (identity direction first).
    """
    if d.kind == "I":
        n, m = d.params
        return tuple(matrix_unit(n, m, i, j) for i in range(n) for j in range(m))
    if d.kind == "II":
        n = d.params[0]
        return tuple(matrix_unit(n, n, i, j) - matrix_unit(n, n, j, i)
                     for i in range(n) for j in range(i + 1, n))
    if d.kind == "III":
        n = d.params[0]
        out = []
        for i in range(n):
            for j in range(i, n):
                if i == j:
                    out.append(matrix_unit(n, n, i, i))
                else:
                    out.append(matrix_unit(n, n, i, j) + matrix_unit(n, n, j, i))
        return tuple(out)
    if d.kind == "IV":
        dim = d.params[0]
        return tuple(matrix_unit(1, dim, 0, j) for j in range(dim))
    raise ExceptionalFactorError(f"{d}: no coordinate model is implemented")


@lru_cache(maxsize=None)
def embedded_basis(d: CartanDescriptor) -> tuple:
    """Images of ``intrinsic_basis(d)``, in its order; spans the embedded factor.

    A matrix unit u of I(n,m) goes to (u, u^T) and a basis matrix u of II(n)
    or III(n) to (u,).  A rank-one factor's basis is its ``hilbert_frame`` and
    a spin factor's is its standard spin system, identity first: the frames
    themselves.
    """
    if d.kind == "I" and min(d.params) == 1:
        return hilbert_frame(d.params[0] * d.params[1])
    if d.kind == "IV":
        system = standard_spin_system(d)
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
    space (see ``intrinsic_basis`` for the conventions)."""
    basis = intrinsic_basis(d)
    if x.shape != basis[0].shape:
        raise CoordinateError(f"{d} expects a {basis[0].rows}x{basis[0].cols} "
                              f"coordinate matrix, got {x.shape}")
    coeffs = span_coords(basis, x)
    if coeffs is None:
        raise CoordinateError(f"coordinates are not in the coordinate space of {d}")
    return _combine(embedded_basis(d), coeffs)


def coords_of(d: CartanDescriptor, el: TroElement) -> Matrix:
    """Inverse of ``embed`` on its image; raises CoordinateError off the image."""
    coeffs = element_span_coords(list(embedded_basis(d)), el)
    if coeffs is None:
        raise CoordinateError(f"element is not in the embedded copy of {d}")
    return _combine(intrinsic_basis(d), coeffs)


def intrinsic_jordan(d: CartanDescriptor, x: Matrix, y: Matrix, z: Matrix) -> Matrix:
    """The factor's own triple product in intrinsic coordinates.

    For the matrix factors this is (x y* z + z y* x)/2 on coordinates; for the
    spin factor it is pulled back through the embedding.
    """
    if d.kind in ("I", "II", "III"):
        return ((x @ y.dagger() @ z) + (z @ y.dagger() @ x)).scale(HALF)
    if d.kind == "IV":
        return coords_of(d, jordan_triple(embed(d, x), embed(d, y), embed(d, z)))
    raise ExceptionalFactorError(f"{d}: no coordinate model is implemented")
