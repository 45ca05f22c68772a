"""Grids for the classical factors, constructed as explicit elements of the
enveloping TROs, and the machine verification of their defining properties.

The I, II and III grids are the embedded coordinate bases of
``cartan.embedded_basis``: the matrix-unit frames E_ij, E_ij - E_ji and
E_ii, E_ij + E_ji, and the signed-incidence frame of a rank-one factor.

The spin grid convention: given a spin system with N symmetries, the grid is

    u1 = (id - s1)/2,   ut1 = -(id + s1)/2,
    u_{k+1} = (s_{2k} + i s_{2k+1})/2,   ut_{k+1} = (s_{2k} - i s_{2k+1})/2,

for k = 1..floor((N-1)/2), plus u0 = s_N exactly when N is even.  The u0
parity is forced: without it the grid would span only N of the N+1 factor
dimensions when N is even, and with it the last symmetry would be counted
twice when N is odd.  Span dimension is machine-checked below, so the
convention is verified rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .cartan import (
    CartanDescriptor,
    ExceptionalFactorError,
    embedded_basis,
    enveloping_tro,
    intrinsic_dim,
    is_exceptional,
)
from .exact import (
    HALF,
    I,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    _gmul,
    identity,
    kron_all,
    mat_mul,
)
from .ktheory import k0_class_of_projection
from .tro import (
    TroElement,
    TroSpace,
    element_span_dim,
    is_tripotent,
    range_projection,
    ternary_product,
)

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


@dataclass(frozen=True, slots=True)
class Grid:
    kind: str
    factor: Optional[CartanDescriptor]
    ambient: TroSpace
    elements: tuple
    labels: tuple
    system: Optional[SpinSystem] = None

    def by_label(self, label: str) -> TroElement:
        return self.elements[self.labels.index(label)]


def spin_grid_from_system(system: SpinSystem,
                          factor: Optional[CartanDescriptor] = None) -> Grid:
    """Build the spin grid of a spin system (see the module docstring)."""
    n_sym = len(system.symmetries)
    if n_sym < 3:
        raise ValueError(f"a spin grid needs at least 3 symmetries, got {n_sym}")
    elements = []
    labels = []
    s1 = system.symmetries[0]
    elements.append((system.identity - s1).scale(HALF))
    labels.append("u1")
    elements.append((system.identity + s1).scale(-HALF))
    labels.append("ut1")
    for k in range(1, (n_sym - 1) // 2 + 1):
        a = system.symmetries[2 * k - 1]
        b = system.symmetries[2 * k]
        elements.append((a + b.scale(I)).scale(HALF))
        labels.append(f"u{k + 1}")
        elements.append((a - b.scale(I)).scale(HALF))
        labels.append(f"ut{k + 1}")
    if n_sym % 2 == 0:
        elements.append(system.symmetries[-1])
        labels.append("u0")
    return Grid("spin", factor, system.space, tuple(elements), tuple(labels),
                system=system)


_GRID_KIND = {"I": "rectangular", "II": "symplectic", "III": "hermitian"}


def _matrix_labels(d: CartanDescriptor) -> tuple:
    # in the order of intrinsic_basis: g[k] along a single row or column, else
    # g[i,j] over the whole matrix (I), or its upper triangle, diagonal kept
    # for III and left out for II
    if d.kind == "I":
        n, m = d.params
        if min(n, m) == 1:
            return tuple(f"g[{k}]" for k in range(1, n * m + 1))
        return tuple(f"g[{i + 1},{j + 1}]" for i in range(n) for j in range(m))
    n = d.params[0]
    first = 0 if d.kind == "III" else 1
    return tuple(f"g[{i + 1},{j + 1}]" for i in range(n) for j in range(i + first, n))


def grid_for(d: CartanDescriptor) -> Grid:
    """The standard grid of a non-exceptional factor.

    The I, II and III grids are the embedded coordinate bases: the images of
    the matrix-unit frames E_ij (I), E_ij - E_ji (II) and E_ii, E_ij + E_ji
    (III), or the signed-incidence frame for a one-row or one-column factor.
    IV gets the spin grid of its standard spin system.
    """
    if is_exceptional(d):
        raise ExceptionalFactorError(f"{d}: exceptional factor has no grid model")
    if d.kind == "IV":
        return spin_grid_from_system(standard_spin_system(d), factor=d)
    return Grid(_GRID_KIND[d.kind], d, enveloping_tro(d), embedded_basis(d),
                _matrix_labels(d))


def grid_gamma(g: Grid) -> frozenset:
    """Classes of the grid's range projections, as rank vectors: gamma's oracle."""
    return frozenset(k0_class_of_projection(range_projection(e)) for e in g.elements)


# --- verification -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ElementCheck:
    label: str
    tripotent: bool
    minimal: bool
    expect_minimal: bool

    @property
    def ok(self) -> bool:
        return self.tripotent and (self.minimal or not self.expect_minimal)


@dataclass(frozen=True, slots=True)
class GridReport:
    kind: str
    factor: Optional[str]
    ambient: str
    element_checks: tuple
    span_found: int
    span_expected: int
    system_ok: Optional[bool]
    identity_checks: tuple  # (name, bool) pairs, spin only

    @property
    def span_ok(self) -> bool:
        return self.span_found == self.span_expected

    @property
    def ok(self) -> bool:
        return (all(c.ok for c in self.element_checks)
                and self.span_ok
                and self.system_ok is not False
                and all(ok for _, ok in self.identity_checks))

    def failures(self) -> list:
        out = []
        for c in self.element_checks:
            if not c.tripotent:
                out.append(f"{c.label}: not tripotent")
            if c.expect_minimal and not c.minimal:
                out.append(f"{c.label}: not minimal")
        if not self.span_ok:
            out.append(f"span is {self.span_found}, expected {self.span_expected}")
        if self.system_ok is False:
            out.append("spin system relations fail")
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


def _in_complex_line(e: tuple, w: tuple) -> bool:
    """True iff the blocks w are a complex multiple of the blocks e.

    Decided on Gaussian-integer numerators, with no division: let p and q be
    the numerators of e and w at e's first nonzero entry, in block b.  Then
    w = (q/p) e iff every block of w has the nonzero positions of e's and, at
    each, p W dw_b de = q E de_b dw, where W and E are the entries' numerators,
    dw and de their blocks' denominators and dw_b, de_b those of block b.
    """
    b = next((b for b, x in enumerate(e) if x.num), None)
    if b is None:
        return all(y.is_zero() for y in w)
    i, row = next(iter(e[b].num.items()))
    j, p = next(iter(row.items()))
    q = w[b].num.get(i, {}).get(j)
    if q is None:
        return all(y.is_zero() for y in w)
    for x, y in zip(e, w):
        if x.num.keys() != y.num.keys():
            return False
        a = _gmul(p, (w[b].den * x.den, 0))
        c = _gmul(q, (e[b].den * y.den, 0))
        for r, xrow in x.num.items():
            yrow = y.num[r]
            if xrow.keys() != yrow.keys() or any(
                    _gmul(a, yrow[k]) != _gmul(c, v) for k, v in xrow.items()):
                return False
    return True


def _expect_minimal(kind: str, label: str) -> bool:
    # Two grid families contain rank-2 tripotents by construction: the spin
    # u0 (its range projection is the full identity) and the off-diagonal
    # hermitian elements E_ij + E_ji (range projection E_ii + E_jj).  Those
    # are exempt from the minimality requirement; everything else must pass.
    if kind == "spin":
        return label != "u0"
    if kind == "hermitian":
        inner = label[2:-1].split(",")
        return len(inner) == 2 and inner[0] == inner[1]
    return True


def _minimality_basis(g: Grid) -> Sequence[TroElement]:
    # {e, Z, e} ranges over the embedded factor, not the ambient TRO
    if g.system is not None:
        return (g.system.identity,) + g.system.symmetries
    if g.factor is not None:
        return embedded_basis(g.factor)
    return g.elements


def _spin_identity_checks(g: Grid) -> tuple:
    # {a,b,c} = -u/2 is checked as a b* c + c b* a = -u, with no halving
    u = {label: el for label, el in zip(g.labels, g.elements)}

    def holds(a: str, b: str, c: str, k: str) -> bool:
        x, y, z = u[a], u[b], u[c]
        return ternary_product(x, y, z) + ternary_product(z, y, x) == -u[k]

    pair_top = max((int(l[1:]) for l in g.labels if l.startswith("u") and
                    not l.startswith("ut") and l != "u0"), default=1)
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


def verify_grid(g: Grid) -> GridReport:
    """Check tripotency, span, minimality and (for spin) the triple-product
    identities; failures are reported, never raised.  A spin grid's system
    relations were checked when its SpinSystem was constructed."""
    basis = _minimality_basis(g)
    # {e,b,e} = e b* e blockwise, no halving; each b is daggered once per grid
    basis_daggers = [tuple(m.dagger() for m in b.blocks) for b in basis]
    checks = []
    for label, e in zip(g.labels, g.elements):
        tripotent = is_tripotent(e)
        minimal = all(
            _in_complex_line(e.blocks, tuple(mat_mul(mat_mul(x, bd), x)
                                             for x, bd in zip(e.blocks, daggers)))
            for daggers in basis_daggers)
        checks.append(ElementCheck(label, tripotent, minimal,
                                   expect_minimal=_expect_minimal(g.kind, label)))
    expected = intrinsic_dim(g.factor) if g.factor is not None else len(basis)
    found = element_span_dim(list(g.elements))
    # a SpinSystem enforces its relations when it is constructed
    system_ok = True if g.system is not None else None
    identity_checks = _spin_identity_checks(g) if g.kind == "spin" else ()
    return GridReport(
        kind=g.kind,
        factor=g.factor.to_text() if g.factor is not None else None,
        ambient=g.ambient.to_text(),
        element_checks=tuple(checks),
        span_found=found,
        span_expected=expected,
        system_ok=system_ok,
        identity_checks=identity_checks,
    )
