"""Grids for the classical factors, constructed as explicit elements of the
enveloping TROs, and the machine verification of their defining properties.

Every grid is built from its factor's basis, ``cartan.embedded_basis``.  The
I, II and III grids are those bases, the coordinate frames: the matrix-unit
frames E_ij, E_ij - E_ji and E_ii, E_ij + E_ji, and the signed-incidence
frame of a rank-one factor.  The IV(d) basis is the identity and the
N = d - 1 generators s_1 ... s_N of the Clifford algebra that is its
enveloping TRO, as words (``tro.CliffordElement``); the same formula on the
matrix realization in ``tests/spin.py`` builds the tests' reference grid.  The
spin grid is

    u1 = (id - s1)/2,   ut1 = -(id + s1)/2,
    u_{k+1} = (s_{2k} + i s_{2k+1})/2,   ut_{k+1} = (s_{2k} - i s_{2k+1})/2,

for k = 1..floor((N-1)/2), plus u0 = s_N exactly when N is even.  The u0
parity is forced: without it the grid would span only N of the N+1 factor
dimensions when N is even, and with it the last symmetry would be counted
twice when N is odd.  Span dimension and element count are checked below,
so the convention is verified rather than assumed, at both parities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cartan import (
    CartanDescriptor,
    ExceptionalFactorError,
    coordinate_positions,
    embedded_basis,
    enveloping_tro,
    intrinsic_dim,
    is_exceptional,
)
from .exact import (
    HALF,
    I,
    compressed_in_line,
    in_line,
    row_support,
    unit_monomial_ranks,
)
from .ktheory import k0_class_of_projection
from .tro import (
    TroElement,
    TroSpace,
    element_span_dim,
    is_tripotent,
    jordan_triple,
    range_projection,
)

_GRID_KIND = {"I": "rectangular", "II": "symplectic", "III": "hermitian",
              "IV": "spin"}


@dataclass(frozen=True, slots=True)
class Grid:
    factor: CartanDescriptor
    basis: tuple  # the factor's basis, in the elements' form: the b of {e, b, e} in _minimal
    elements: tuple
    labels: tuple
    rank_two: frozenset = frozenset()  # rank-two tripotents: not required minimal

    def __post_init__(self) -> None:
        if len(self.elements) != len(self.labels):
            raise ValueError(f"{len(self.elements)} grid elements "
                             f"but {len(self.labels)} labels")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"grid labels repeat: {self.labels}")
        if not self.rank_two <= set(self.labels):
            raise ValueError(f"rank-two labels {sorted(self.rank_two - set(self.labels))} "
                             "name no grid element")

    @property
    def kind(self) -> str:
        return _GRID_KIND[self.factor.kind]

    @property
    def ambient(self) -> TroSpace:
        return enveloping_tro(self.factor)

    def by_label(self, label: str) -> TroElement:
        return self.elements[self.labels.index(label)]


def _spin_grid(d: CartanDescriptor, basis: tuple) -> Grid:
    """The spin grid of d from a basis of it: the identity, then the
    symmetries of a spin system (see the module docstring)."""
    ident, syms = basis[0], basis[1:]
    n_sym = len(syms)
    elements = []
    labels = []
    elements.append((ident - syms[0]).scale(HALF))
    labels.append("u1")
    elements.append((ident + syms[0]).scale(-HALF))
    labels.append("ut1")
    for k in range(1, (n_sym - 1) // 2 + 1):
        a = syms[2 * k - 1]
        b = syms[2 * k]
        elements.append((a + b.scale(I)).scale(HALF))
        labels.append(f"u{k + 1}")
        elements.append((a - b.scale(I)).scale(HALF))
        labels.append(f"ut{k + 1}")
    rank_two = frozenset()
    if n_sym % 2 == 0:
        elements.append(syms[-1])
        labels.append("u0")
        rank_two = frozenset({"u0"})  # its range projection is the identity
    return Grid(d, basis, tuple(elements), tuple(labels), rank_two)


def _matrix_labels(d: CartanDescriptor) -> tuple:
    # (labels, rank-two labels), in the order of intrinsic_basis: g[k] along a
    # single row or column, else g[i,j] at each coordinate position; the
    # off-diagonal III elements E_ij + E_ji have range projection E_ii + E_jj
    positions = coordinate_positions(d)
    if d.kind == "I" and min(d.params) == 1:
        return tuple(f"g[{k}]" for k in range(1, len(positions) + 1)), frozenset()
    labels = tuple(f"g[{i + 1},{j + 1}]" for i, j in positions)
    rank_two = frozenset(label for label, (i, j) in zip(labels, positions)
                         if d.kind == "III" and i != j)
    return labels, rank_two


def grid_for(d: CartanDescriptor) -> Grid:
    """The standard grid of a non-exceptional factor, from ``embedded_basis``.

    The I, II and III grids are the embedded coordinate bases: the images of
    the matrix-unit frames E_ij (I), E_ij - E_ji (II) and E_ii, E_ij + E_ji
    (III), or the signed-incidence frame for a one-row or one-column factor.
    IV gets the spin grid of its basis: the identity and the Clifford
    generators, as words.
    """
    if is_exceptional(d):
        raise ExceptionalFactorError(f"{d}: exceptional factor has no grid model")
    basis = embedded_basis(d)
    if d.kind == "IV":
        return _spin_grid(d, basis)
    return Grid(d, basis, basis, *_matrix_labels(d))


def _unit_monomial_ranks(e: TroElement) -> Optional[tuple]:
    # matrix blocks only: a one-term Clifford word is a monomial 1 x 2^N
    # matrix, but it is not the element's matrix, and its class is not 1
    return unit_monomial_ranks(e.blocks) if type(e) is TroElement else None


def grid_gamma(g: Grid) -> frozenset:
    """Classes of the grid's range projections, as rank vectors: gamma's oracle.

    An element with monomial matrix blocks whose entries have modulus 1 has
    range projection e e*, the 0/1 diagonal projection onto its rows, so its
    class is its entry count per block, read with no product
    (``exact.unit_monomial_ranks`` holds the proof).  Every other element
    (Clifford words, and matrices that fail that test) takes the products:
    ``k0_class_of_projection(range_projection(e))``, which raises
    ``ProjectionError`` when e e* is not a projection."""
    classes = set()
    for e in g.elements:
        ranks = _unit_monomial_ranks(e)
        classes.add(ranks if ranks is not None
                    else k0_class_of_projection(range_projection(e)))
    return frozenset(classes)


# --- verification -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ElementCheck:
    label: str
    tripotent: bool
    minimal: bool
    expect_minimal: bool


@dataclass(frozen=True, slots=True)
class GridReport:
    kind: str
    factor: str
    ambient: str
    element_checks: tuple
    span_found: int
    span_expected: int
    identity_checks: tuple  # (name, bool) pairs, spin only

    @property
    def span_ok(self) -> bool:
        return self.span_found == self.span_expected

    @property
    def system_ok(self) -> Optional[bool]:
        # a SpinSystem enforces its relations when it is constructed
        return True if self.kind == "spin" else None

    @property
    def ok(self) -> bool:
        return not self.failures()

    def failures(self) -> list:
        out = []
        for c in self.element_checks:
            if not c.tripotent:
                out.append(f"{c.label}: not tripotent")
            if c.expect_minimal and not c.minimal:
                out.append(f"{c.label}: not minimal")
        if not self.span_ok:
            out.append(f"span is {self.span_found}, expected {self.span_expected}")
        elif len(self.element_checks) > self.span_found:
            out.append(f"{len(self.element_checks)} elements span {self.span_found} dimensions")
        out.extend(name for name, ok in self.identity_checks if not ok)
        return out

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "factor": self.factor,
            "ambient": self.ambient,
            "elements": [
                {"label": c.label, "tripotent": c.tripotent,
                 "minimal": c.minimal, "expect_minimal": c.expect_minimal}
                for c in self.element_checks
            ],
            "span": {"found": self.span_found, "expected": self.span_expected,
                     "ok": self.span_ok},
            "spin_system_ok": self.system_ok,
            "identity_checks": [{"name": n, "ok": ok}
                                for n, ok in self.identity_checks],
            "ok": self.ok,
            "failures": self.failures(),
        }


def _spin_identity_checks(g: Grid) -> tuple:
    u = dict(zip(g.labels, g.elements))
    minus_half = {label: el.scale(-HALF) for label, el in u.items()}

    def holds(a: str, b: str, c: str, k: str) -> bool:
        return jordan_triple(u[a], u[b], u[c]) == minus_half[k]

    pair_top = len(g.elements) // 2
    checks = []
    for j in range(2, pair_top + 1):
        for k in range(2, pair_top + 1):
            if j == k:
                continue
            checks.append((f"{{u{j},ut{k},ut{j}}} = -u{k}/2",
                           holds(f"u{j}", f"ut{k}", f"ut{j}", f"u{k}")))
    for j in range(2, pair_top + 1):
        checks.append((f"{{u{j},ut1,ut{j}}} = -u1/2",
                       holds(f"u{j}", "ut1", f"ut{j}", "u1")))
        checks.append((f"{{u1,ut{j},ut1}} = -u{j}/2",
                       holds("u1", f"ut{j}", "ut1", f"u{j}")))
    return tuple(checks)


def _minimal(g: Grid, e: TroElement, unit_monomial: bool, by_row: dict,
             mids: Optional[list]) -> bool:
    """Whether {e, b, e} = e b* e lies in Ce for every b of g.basis.

    A unit-monomial e, one whose matrix blocks are monomial with entries of
    modulus 1 (``exact.unit_monomial_ranks``), is a tripotent and is decided
    by compression.  With p = ee* and q = e*e, e b* e lies in Ce exactly when
    p b q does: if p b q = l e, then e b* e = e (p b q)* e = conj(l) e, and
    if e b* e = m e, then p b q = e (e b* e)* e = conj(m) e, both by
    e e* e = e.  p = ee* is zero off the rows where e has a nonzero entry, so
    p b q = 0 for every b with no nonzero entry in those rows: only the b
    that ``by_row`` lists for e's rows are tested.  p and q are the diagonal
    0/1 projections onto e's rows and columns, so p b q is b cut down to them
    (``exact.compressed_in_line``), and no product is formed.  Every other e
    (a Clifford word, or a non-tripotent or non-monomial one) takes its
    products w_k = e b_k* e, b_k* from mids, and the line test
    ``exact.in_line``: for e != 0, dim span{e, w_1 ... w_d} <= 1 exactly when
    every w_k lies in Ce, as e spans one dimension on its own, and e = 0
    makes every product 0, which lies in Ce = 0.  Every product is formed
    before the test, as the span formed them."""
    if unit_monomial:
        near = {k for key in row_support(e.blocks) for k in by_row.get(key, ())}
        return compressed_in_line(e.blocks, (g.basis[k].blocks for k in near))
    products = [e.sandwich(m) for m in mids]
    return in_line(e.blocks, products)


def verify_grid(g: Grid) -> GridReport:
    """Check tripotency, span, minimality and (for spin) the triple-product
    identities; failures are reported, never raised.  A spin grid's system
    relations were checked when its SpinSystem was constructed.  The checks
    use the products of the elements' type: blockwise matrix products, or
    word products for a spin grid of Clifford words.  An element whose
    matrix blocks are monomial needs no product when its entries have
    modulus 1: e e* is diagonal with |x|^2 at the row of each entry x, so
    e e* e = e exactly when every |x| = 1, which
    ``exact.unit_monomial_ranks`` reads from the entries, and its minimality
    is decided by compression (see ``_minimal``).  Every other element, a
    Clifford word or a matrix element that fails that test, is checked by
    ``tro.is_tripotent``, e e* e = e, so its report is the products'."""
    # {e, Z, e} ranges over the factor, not the ambient TRO: Z over g.basis,
    # found by the rows where each b has a nonzero entry
    by_row: dict = {}
    for k, b in enumerate(g.basis):
        for key in row_support(b.blocks):
            by_row.setdefault(key, []).append(k)
    unit_monomial = [_unit_monomial_ranks(e) is not None for e in g.elements]
    mids = None if all(unit_monomial) else [b.adjoint_blocks() for b in g.basis]
    checks = [ElementCheck(label, unit or is_tripotent(e),
                           _minimal(g, e, unit, by_row, mids),
                           expect_minimal=label not in g.rank_two)
              for label, e, unit in zip(g.labels, g.elements, unit_monomial)]
    identity_checks = _spin_identity_checks(g) if g.kind == "spin" else ()
    return GridReport(
        kind=g.kind,
        factor=g.factor.to_text(),
        ambient=g.ambient.to_text(),
        element_checks=tuple(checks),
        span_found=element_span_dim(list(g.elements)),
        span_expected=intrinsic_dim(g.factor),
        identity_checks=identity_checks,
    )
