"""Finite-dimensional ternary rings of operators (TROs).

A space here is a direct sum of rectangular matrix blocks M(n1,m1)+...+M(nk,mk),
an element is one matrix per block (or, for the Clifford algebra of a spin
factor, one word: ``CliffordElement``), and a homomorphism is recorded by its
multiplicity matrix (one nonnegative integer per target/source block pair).
Concrete block maps are realized only through ``apply_hom``, which places the
copies block-diagonally and pads with zeros.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .exact import (
    EntryLike,
    Matrix,
    ParseError,
    ShapeError,
    block_diagonal,
    dagger,
    mat_jordan,
    mat_mul,
    mat_triple,
    span_coords,
    span_dim,
    word_adjoint,
    word_jordan,
    word_mul,
    word_triple,
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
        if type(self.summands) is not tuple:
            raise ValueError(f"summands must be a tuple, got {self.summands!r}")
        if not self.summands:
            raise ValueError("a TRO space needs at least one summand")
        for summand in self.summands:
            if type(summand) is not tuple:
                raise ValueError(f"a summand must be a tuple, got {summand!r}")
            n, m = summand
            if type(n) is not int or type(m) is not int:
                raise ValueError(f"summand dimensions must be ints, got {(n, m)!r}")
            if n < 1 or m < 1:
                raise ValueError(f"summand M({n},{m}) has a dimension < 1")

    def __len__(self) -> int:
        return len(self.summands)

    def to_text(self) -> str:
        return "+".join(f"M({n},{m})" for n, m in self.summands)

    __str__ = to_text


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
    """An element of a TroSpace: one matrix per summand, shapes matching.

    Every operation below builds its result as ``type(self)`` and multiplies
    blocks with ``block_mul``, ``block_triple``, ``block_adjoint`` and
    ``block_jordan``, so a subclass with its own block kernels
    (``CliffordElement``) shares all of it.  Results are built by
    ``_result``, without the shape check: their operands are checked
    elements of one space, and each operation keeps that shape (or, for
    ``range_projection``, takes the left algebra's)."""

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

    @staticmethod
    def block_mul(a: Matrix, b: Matrix) -> Matrix:
        # looked up by name on each call, so a rebound kgrid.tro.mat_mul is seen
        return mat_mul(a, b)

    block_triple = staticmethod(mat_triple)
    block_adjoint = staticmethod(dagger)
    block_jordan = staticmethod(mat_jordan)

    def __add__(self, other: "TroElement") -> "TroElement":
        _require_same_space(self, other)
        return _result(self, self.space, tuple(map(Matrix.__add__, self.blocks, other.blocks)))

    def __sub__(self, other: "TroElement") -> "TroElement":
        _require_same_space(self, other)
        return _result(self, self.space, tuple(map(Matrix.__sub__, self.blocks, other.blocks)))

    def __neg__(self) -> "TroElement":
        return _result(self, self.space, tuple(map(Matrix.__neg__, self.blocks)))

    def scale(self, s: EntryLike) -> "TroElement":
        return _result(self, self.space, tuple(b.scale(s) for b in self.blocks))

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def adjoint_blocks(self) -> tuple:
        """The adjoints of the blocks."""
        return tuple(map(self.block_adjoint, self.blocks))

    def sandwich(self, mids: tuple) -> tuple:
        """The blocks x m x, for each block x and the matching m of mids."""
        return tuple(map(self.block_triple, self.blocks, mids, self.blocks))


def _result(like: TroElement, space: TroSpace, blocks: tuple) -> TroElement:
    """An element of like's type, built without ``__post_init__`` the way
    ``exact._new`` builds a matrix: blocks must already have space's shapes."""
    e = object.__new__(type(like))
    object.__setattr__(e, "space", space)
    object.__setattr__(e, "blocks", blocks)
    return e


def clifford_summands(n: int) -> tuple:
    """The blocks of the Clifford algebra on n generators: M(2^(n/2)) for
    even n, two copies of M(2^((n-1)/2)) for odd n."""
    side = 1 << (n // 2)
    return ((side, side),) * (1 + n % 2)


@dataclass(frozen=True, slots=True)
class CliffordElement(TroElement):
    """An element of the complex Clifford algebra on N generators, whose
    blocks are one word (see kgrid.exact.word_mul): a 1 x 2^N matrix whose
    column A holds the coefficient of gamma_A.  That algebra is the TroSpace
    ``space``, the enveloping TRO of the spin factor IV(N + 1), with
    gamma_1 ... gamma_N the symmetries of its standard spin system (the
    matrix realization in ``tests/spin.py``) and gamma_A the product of the
    gamma_k for the bits of A in increasing order.  For odd N it has two
    blocks, and block 0 is the one on which the central word
    gamma_1 ... gamma_N acts as i^((N - 1)/2) (see ``ktheory``).

    It is a ``TroElement`` with its own shape check and block kernels: its
    products, triple products, adjoints and Jordan products are
    ``word_mul``, ``word_triple``, ``word_adjoint`` and ``word_jordan``.  Its
    space has square blocks, so its range projections stay in it."""

    def __post_init__(self) -> None:
        if len(self.blocks) != 1:
            raise ShapeError(f"a Clifford element is one word, not {len(self.blocks)} blocks")
        n = self.word.cols.bit_length() - 1
        if self.word.shape != (1, 1 << n) or self.space.summands != clifford_summands(n):
            raise ShapeError(f"a {self.word.rows}x{self.word.cols} word is not "
                             f"an element of {self.space}")

    block_mul = staticmethod(word_mul)
    block_triple = staticmethod(word_triple)
    block_adjoint = staticmethod(word_adjoint)
    block_jordan = staticmethod(word_jordan)

    @property
    def word(self) -> Matrix:
        return self.blocks[0]


def zero_element(t: TroSpace) -> TroElement:
    """The zero of t with matrix blocks; a word's zero is ``w.scale(0)``."""
    return TroElement(t, tuple(zeros(n, m) for n, m in t.summands))


def _require_same_space(*els: TroElement) -> None:
    for e in els[1:]:
        if e.space != els[0].space:
            raise SpaceMismatch(f"spaces differ: {els[0].space} vs {e.space}")
        if type(e) is not type(els[0]):
            raise SpaceMismatch(f"element types differ in {e.space}: "
                                f"{type(els[0]).__name__} vs {type(e).__name__}")


def ternary_product(x: TroElement, y: TroElement, z: TroElement) -> TroElement:
    """Blockwise x y* z, with the triple kernel of the elements' type."""
    _require_same_space(x, y, z)
    return _result(x, x.space, tuple(map(x.block_triple, x.blocks, y.adjoint_blocks(),
                                         z.blocks)))


def jordan_triple(a: TroElement, b: TroElement, c: TroElement) -> TroElement:
    """{a,b,c} = (a b* c + c b* a) / 2, blockwise with the Jordan kernel of
    the elements' type."""
    _require_same_space(a, b, c)
    return _result(a, a.space, tuple(map(a.block_jordan, a.blocks, b.blocks, c.blocks)))


def is_tripotent(e: TroElement) -> bool:
    # {e,e,e} = e e* e, so one ternary product suffices
    return ternary_product(e, e, e) == e


def range_projection(x: TroElement) -> TroElement:
    """Blockwise x x*, living in the left algebra; a projection iff x is tripotent."""
    return _result(x, left_algebra_space(x.space),
                   tuple(map(x.block_mul, x.blocks, x.adjoint_blocks())))


def element_span_dim(els: Sequence[TroElement]) -> int:
    _require_same_space(*els)
    return span_dim([e.blocks for e in els])


def element_span_coords(els: Sequence[TroElement], x: TroElement) -> Optional[list]:
    """Coefficients expressing x in the linear span of els, or None."""
    _require_same_space(*els, x)
    return span_coords([e.blocks for e in els], x.blocks)


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
    """Concrete block-diagonal realization: copies first, zero padding last.
    Only matrix blocks are placed; a subclass's blocks (a Clifford word) are
    not the space's matrices, so its elements raise SpaceMismatch."""
    if type(x) is not TroElement:
        raise SpaceMismatch(f"apply_hom places matrix blocks, not a {type(x).__name__}")
    if x.space != h.source:
        raise SpaceMismatch(f"element lives in {x.space}, hom expects {h.source}")
    return TroElement(h.target, tuple(
        block_diagonal([b for b, a in zip(x.blocks, row) for _ in range(a)], nk, mk)
        for row, (nk, mk) in zip(h.mult, h.target.summands)))


def compose_homs(g: TroHom, h: TroHom) -> TroHom:
    """Multiplicities multiply: mult(g∘h) = mult(g) · mult(h)."""
    if h.target != g.source:
        raise SpaceMismatch(f"cannot compose: {h.target} feeds into {g.source}")
    prod = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*h.mult))
                 for row in g.mult)
    return TroHom(h.source, g.target, prod)
