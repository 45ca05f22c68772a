"""Ternary K0 data for finite-dimensional TROs.

In finite dimensions the K0 class of a projection over the left algebra is its
blockwise rank vector, the group is Z^k with positive cone N0^k, and the left
and right scales are the boxes cut out by the block dimensions.  A homomorphism
acts on K0 as its multiplicity matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .exact import HALF, I, ONE, Scalar, matrix_unit, trace, word_mul
from .tro import CliffordElement, TroElement, TroSpace, left_dims, right_dims

K0Class = Tuple[int, ...]


class ProjectionError(ValueError):
    """An element claimed to be a projection fails p = p* = p^2 on some block."""

    def __init__(self, block: int, reason: str) -> None:
        self.block = block
        super().__init__(f"block {block} is not a projection: {reason}")


def k0_class_of_projection(p: TroElement) -> K0Class:
    """Blockwise ranks of an exact projection (square blocks, p = p* = p^2),
    read as traces: a projection's eigenvalues are 0 and 1, so its trace is
    its rank.  When p fails, its blocks are checked in order and the first
    failure is raised; a Clifford element is split into its block parts for
    that, and its traces are read from its words (see ``_clifford_class``)."""
    blocks = p.blocks
    if p.adjoint_blocks() != blocks or tuple(map(p.block_mul, blocks, blocks)) != blocks:
        parts = _block_parts(p) if type(p) is CliffordElement else blocks
        for idx, ((n, m), b) in enumerate(zip(p.space.summands, parts)):
            if n != m:
                raise ProjectionError(idx, f"block is {n}x{m}, not square")
            if p.block_adjoint(b) != b:
                raise ProjectionError(idx, "not self-adjoint")
            if p.block_mul(b, b) != b:
                raise ProjectionError(idx, "not idempotent")
    if type(p) is CliffordElement:
        return _clifford_class(p)
    return tuple(int(trace(b).re) for b in blocks)


def top_scalar(n: int) -> Scalar:
    """The scalar i^((n-1)/2) by which the central word gamma_1 ... gamma_n,
    n odd, acts on block 0 of the standard spin system of IV(n + 1).

    With n = 2m + 1 that system is gamma_(2l+1) = s3^l (x) s1 (x) 1 and
    gamma_(2l+2) = s3^l (x) s2 (x) 1 on M(2^m), l = 0 .. m-1, equal on both
    blocks, then gamma_n = s3^m on block 0 and -s3^m on block 1
    (the matrix realization in ``tests/spin.py``).  Since s3^2 = 1 and
    s1 s2 = i s3, each pair multiplies to i s3 in tensor slot l, so
    gamma_1 ... gamma_(2m) is i^m s3^m, and gamma_n brings it to i^m on
    block 0 and -i^m on block 1."""
    return (ONE, I, -ONE, -I)[(n - 1) // 2 % 4]


def _clifford_class(p: CliffordElement) -> K0Class:
    """The K0 class of a Clifford projection p, read from its words.

    A block's rank is the trace of p's part in it.  For even N there is one
    block, of side 2^(N/2), and the part is p.  For odd N the word
    gamma_top = gamma_1 ... gamma_N is central, gamma_top^2 = lambda^2 for
    lambda = top_scalar(N), and gamma_top acts as lambda on block 0 and as
    -lambda on block 1, so z_b = (1 +- gamma_top/lambda)/2 are the central
    projections onto the blocks and p z_b is p's part in block b.  Every word
    but 1 and gamma_top anticommutes with some generator, so it has trace 0
    on each block; 1 has trace 2^((N-1)/2), the side s of a block, and
    gamma_top has trace +-lambda s.  So block b has rank s (p_0 +- lambda
    p_top), for p_0 and p_top the coefficients of 1 and gamma_top.  p = p* =
    p^2 holds exactly when it holds for each part."""
    w = p.word
    side = p.space.summands[0][0]
    if len(p.space) == 1:
        return (int(side * w[0, 0].re),)
    p_0, p_top = w[0, 0], w[0, w.cols - 1] * top_scalar(w.cols.bit_length() - 1)
    return (int(side * (p_0 + p_top).re), int(side * (p_0 - p_top).re))


def _block_parts(p: CliffordElement) -> list:
    # p, or p z_0 and p z_1 for two blocks (see _clifford_class)
    w = p.word
    if len(p.space) == 1:
        return [w]
    one = matrix_unit(1, w.cols, 0, 0)
    # gamma_top / lambda, with 1/lambda = conj(lambda) for a fourth root of unity
    top = matrix_unit(1, w.cols, 0, w.cols - 1).scale(
        top_scalar(w.cols.bit_length() - 1).conjugate())
    return [word_mul(w, (one + top).scale(HALF)), word_mul(w, (one - top).scale(HALF))]


@dataclass(frozen=True, slots=True)
class DoubleScaledGroup:
    """(Z^k, N0^k, left box, right box) encoded by the two cap vectors.

    k = 0 encodes the trivial group (the invariant of purely exceptional
    content, whose K-groups vanish).
    """

    left_caps: tuple
    right_caps: tuple

    def __post_init__(self) -> None:
        for caps in (self.left_caps, self.right_caps):
            if type(caps) is not tuple:
                raise ValueError(f"scale caps must be tuples, got {caps!r}")
        if len(self.left_caps) != len(self.right_caps):
            raise ValueError("left and right caps must have equal length")
        for c in self.left_caps + self.right_caps:
            if type(c) is not int:
                raise ValueError(f"scale caps must be ints, got {c!r}")
            if c < 1:
                raise ValueError("scale caps must be >= 1")

    @property
    def k(self) -> int:
        return len(self.left_caps)

    def in_left_scale(self, cls: Sequence[int]) -> bool:
        return len(cls) == self.k and all(0 <= v <= c
                                          for v, c in zip(cls, self.left_caps))

    def in_right_scale(self, cls: Sequence[int]) -> bool:
        return len(cls) == self.k and all(0 <= v <= c
                                          for v, c in zip(cls, self.right_caps))

    def to_dict(self) -> dict:
        return {"k": self.k, "left": list(self.left_caps),
                "right": list(self.right_caps)}


def double_scaled_group(t: TroSpace) -> DoubleScaledGroup:
    """The double-scaled ordered K0-group of a direct sum of matrix blocks."""
    return DoubleScaledGroup(left_dims(t), right_dims(t))


def dsg_isomorphic(a: DoubleScaledGroup,
                   b: DoubleScaledGroup) -> Optional[tuple]:
    """A summand permutation matching both cap vectors, or None.

    Returns pi with (left_a[i], right_a[i]) == (left_b[pi[i]], right_b[pi[i]]);
    existence is equivalent to multiset equality of the (left, right) pairs.
    The smallest available target index is chosen at each step, so the result
    is deterministic.  Each pair's target indices are kept in descending
    order and taken from the end, so the matching takes linear time.
    """
    if a.k != b.k:
        return None
    available: dict = {}
    for j in reversed(range(b.k)):
        available.setdefault((b.left_caps[j], b.right_caps[j]), []).append(j)
    perm = []
    for i in range(a.k):
        bucket = available.get((a.left_caps[i], a.right_caps[i]))
        if not bucket:
            return None
        perm.append(bucket.pop())
    return tuple(perm)


def apply_k0_matrix(mult: Sequence[Sequence[int]],
                    cls: Sequence[int]) -> K0Class:
    """Matrix-vector action of a K0 map on a class."""
    return tuple(sum(row[i] * cls[i] for i in range(len(cls))) for row in mult)

