"""Finite-dimensional ternary rings of operators (TROs).

A space here is a direct sum of rectangular matrix blocks M(n1,m1)+...+M(nk,mk),
an element is one matrix per block, and a homomorphism is recorded by its
multiplicity matrix (one nonnegative integer per target/source block pair).
Concrete block maps are realized only through ``apply_hom``, which places the
copies block-diagonally and pads with zeros.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import (
    EntryLike,
    HALF,
    Matrix,
    ParseError,
    ShapeError,
    _scalar,
    mat_mul,
    matrix_from_strings,
    matrix_to_strings,
    span_coords,
    span_dim,
    sparse_matrix,
    zeros,
)


class SpaceMismatch(ValueError):
    """Operands live in different TRO spaces."""


class LiftError(ValueError):
    """A multiplicity matrix violates a scale bound of the target space."""

    def __init__(self, summand: int, side: str, needed: int, cap: int) -> None:
        self.summand = summand
        self.side = side
        self.needed = needed
        self.cap = cap
        super().__init__(
            f"{side} scale overflow at target summand {summand}: "
            f"needs {needed} > cap {cap}"
        )


@dataclass(frozen=True, slots=True)
class TroSpace:
    """Direct sum of rectangular blocks; summands is a tuple of (rows, cols)."""

    summands: tuple

    def __post_init__(self) -> None:
        if not self.summands:
            raise ValueError("a TRO space needs at least one summand")
        for n, m in self.summands:
            if n < 1 or m < 1:
                raise ValueError(f"summand M({n},{m}) has a dimension < 1")

    def __len__(self) -> int:
        return len(self.summands)

    def to_text(self) -> str:
        return "+".join(f"M({n},{m})" for n, m in self.summands)

    def __str__(self) -> str:
        return self.to_text()


_SUMMAND = re.compile(r"\s*M\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*")


def parse_space(text: str) -> TroSpace:
    """Parse the ``"M(n,m)+M(n,m)+..."`` space format; whitespace is allowed
    between tokens, and error positions index ``text`` as given."""
    if not text.strip():
        raise ParseError(0, "empty TRO space literal")
    summands = []
    pos = 0
    for part in text.split("+"):
        m = _SUMMAND.fullmatch(part)
        if m is None:
            lead = len(part) - len(part.lstrip())
            raise ParseError(pos + lead, f"bad summand {part.strip()!r}")
        summands.append((int(m.group(1)), int(m.group(2))))
        pos += len(part) + 1
    return TroSpace(tuple(summands))


def left_dims(t: TroSpace) -> tuple:
    """Block sizes of the left C*-algebra: (n_i) for ⊕ M(n_i, m_i)."""
    return tuple(n for n, _ in t.summands)


def right_dims(t: TroSpace) -> tuple:
    """Block sizes of the right C*-algebra: (m_i)."""
    return tuple(m for _, m in t.summands)


def linking_dims(t: TroSpace) -> tuple:
    """Block sizes of the linking algebra: (n_i + m_i)."""
    return tuple(n + m for n, m in t.summands)


def left_algebra_space(t: TroSpace) -> TroSpace:
    """The left algebra ⊕ M(n_i) viewed as a square-block TRO space."""
    return TroSpace(tuple((n, n) for n, _ in t.summands))


@dataclass(frozen=True, slots=True)
class TroElement:
    """An element of a TroSpace: one matrix per summand, shapes matching."""

    space: TroSpace
    blocks: tuple

    def __post_init__(self) -> None:
        if len(self.blocks) != len(self.space.summands):
            raise ShapeError(
                f"{len(self.space.summands)} summands but {len(self.blocks)} blocks"
            )
        for idx, ((n, m), b) in enumerate(zip(self.space.summands, self.blocks)):
            if b.shape != (n, m):
                raise ShapeError(
                    f"block {idx} has shape {b.shape}, summand is M({n},{m})"
                )

    def __add__(self, other: "TroElement") -> "TroElement":
        _require_same_space(self, other)
        return TroElement(self.space,
                          tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "TroElement") -> "TroElement":
        _require_same_space(self, other)
        return TroElement(self.space,
                          tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "TroElement":
        return TroElement(self.space, tuple(-b for b in self.blocks))

    def scale(self, s: EntryLike) -> "TroElement":
        s = _scalar(s)
        return TroElement(self.space, tuple(b.scale(s) for b in self.blocks))

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def to_json_dict(self) -> dict:
        return {
            "space": self.space.to_text(),
            "blocks": [matrix_to_strings(b) for b in self.blocks],
        }


def element_from_json_dict(data: dict) -> TroElement:
    sp = parse_space(data["space"])
    return TroElement(sp, tuple(matrix_from_strings(b) for b in data["blocks"]))


def zero_element(t: TroSpace) -> TroElement:
    return TroElement(t, tuple(zeros(n, m) for n, m in t.summands))


def _require_same_space(*els: TroElement) -> None:
    sp = els[0].space
    for e in els[1:]:
        if e.space != sp:
            raise SpaceMismatch(f"spaces differ: {sp} vs {e.space}")


def ternary_product(x: TroElement, y: TroElement, z: TroElement) -> TroElement:
    """Blockwise x y* z."""
    _require_same_space(x, y, z)
    return TroElement(
        x.space,
        tuple(mat_mul(mat_mul(a, b.dagger()), c)
              for a, b, c in zip(x.blocks, y.blocks, z.blocks)),
    )


def jordan_triple(a: TroElement, b: TroElement, c: TroElement) -> TroElement:
    """{a,b,c} = (a b* c + c b* a) / 2."""
    return (ternary_product(a, b, c) + ternary_product(c, b, a)).scale(HALF)


def is_tripotent(e: TroElement) -> bool:
    # {e,e,e} = e e* e, so one ternary product suffices
    return ternary_product(e, e, e) == e


def range_projection(x: TroElement) -> TroElement:
    """Blockwise x x*, living in the left algebra; a projection iff x is tripotent."""
    return TroElement(
        left_algebra_space(x.space),
        tuple(mat_mul(b, b.dagger()) for b in x.blocks),
    )


def flatten_element(x: TroElement) -> Matrix:
    """All block entries as a single row vector, for span computations."""
    den = math.lcm(*(b.den for b in x.blocks))
    row = {}
    offset = 0
    for b in x.blocks:
        f = den // b.den
        for i, brow in b.num.items():
            base = offset + i * b.cols
            for j, v in brow.items():
                row[base + j] = v if f == 1 else (v[0] * f, v[1] * f)
        offset += b.rows * b.cols
    return sparse_matrix(1, offset, {0: row} if row else {}, den)


def element_span_dim(els: Sequence[TroElement]) -> int:
    if not els:
        return 0
    _require_same_space(*els)
    return span_dim([flatten_element(e) for e in els])


def element_span_coords(els: Sequence[TroElement], x: TroElement) -> Optional[list]:
    """Coefficients expressing x in the linear span of els, or None."""
    if els:
        _require_same_space(*els, x)
    return span_coords([flatten_element(e) for e in els], flatten_element(x))


@dataclass(frozen=True, slots=True)
class TroHom:
    """A TRO-homomorphism up to unitary equivalence: its multiplicity matrix.

    mult is q x p (q target summands, p source summands) with nonnegative
    integer entries, and must fit the target scales: placing mult[k][i] copies
    of each source block M(n_i, m_i) inside the target block M(N_k, M_k) needs
    sum_i mult[k][i]*n_i <= N_k and sum_i mult[k][i]*m_i <= M_k.
    """

    source: TroSpace
    target: TroSpace
    mult: tuple

    def __post_init__(self) -> None:
        q, p = len(self.target.summands), len(self.source.summands)
        if len(self.mult) != q or any(len(row) != p for row in self.mult):
            raise ShapeError(f"multiplicity matrix must be {q}x{p}")
        for row in self.mult:
            for a in row:
                if not isinstance(a, int) or isinstance(a, bool) or a < 0:
                    raise ValueError(f"multiplicity {a!r} is not a nonnegative integer")
        for k, (cap_n, cap_m) in enumerate(self.target.summands):
            need_n = sum(a * n for a, (n, _) in zip(self.mult[k], self.source.summands))
            need_m = sum(a * m for a, (_, m) in zip(self.mult[k], self.source.summands))
            if need_n > cap_n:
                raise LiftError(k, "left", need_n, cap_n)
            if need_m > cap_m:
                raise LiftError(k, "right", need_m, cap_m)


def lift_hom(alpha: Sequence[Sequence[int]], source: TroSpace,
             target: TroSpace) -> TroHom:
    """Lift an integer matrix to the TRO-homomorphism with that multiplicity.

    Succeeds exactly when the scale bounds hold at the maximal scale element;
    otherwise raises LiftError naming the overflowing target summand and side.
    """
    return TroHom(source, target, tuple(tuple(row) for row in alpha))


def identity_hom(t: TroSpace) -> TroHom:
    k = len(t.summands)
    return TroHom(t, t, tuple(tuple(1 if i == j else 0 for j in range(k))
                              for i in range(k)))


def apply_hom(h: TroHom, x: TroElement) -> TroElement:
    """Concrete block-diagonal realization: copies first, zero padding last."""
    if x.space != h.source:
        raise SpaceMismatch(f"element lives in {x.space}, hom expects {h.source}")
    den = math.lcm(*(b.den for b in x.blocks))
    blocks = []
    for k, (nk, mk) in enumerate(h.target.summands):
        out = {}
        ro = co = 0
        for i, (ni, mi) in enumerate(h.source.summands):
            xi = x.blocks[i]
            f = den // xi.den
            for _ in range(h.mult[k][i]):
                for a, row in xi.num.items():
                    out[ro + a] = ({co + b: v for b, v in row.items()} if f == 1 else
                                   {co + b: (v[0] * f, v[1] * f) for b, v in row.items()})
                ro += ni
                co += mi
        blocks.append(sparse_matrix(nk, mk, out, den))
    return TroElement(h.target, tuple(blocks))


def compose_homs(g: TroHom, h: TroHom) -> TroHom:
    """Multiplicities multiply: mult(g∘h) = mult(g) · mult(h)."""
    if h.target != g.source:
        raise SpaceMismatch(f"cannot compose: {h.target} feeds into {g.source}")
    q = len(g.target.summands)
    p = len(h.source.summands)
    mid = len(g.source.summands)
    prod = tuple(
        tuple(sum(g.mult[k][j] * h.mult[j][i] for j in range(mid)) for i in range(p))
        for k in range(q)
    )
    return TroHom(h.source, g.target, prod)
