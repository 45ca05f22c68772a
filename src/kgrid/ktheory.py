"""Ternary K0 data for finite-dimensional TROs.

In finite dimensions the K0 class of a projection over the left algebra is its
blockwise rank vector, the group is Z^k with positive cone N0^k, and the left
and right scales are the boxes cut out by the block dimensions.  A homomorphism
acts on K0 as its multiplicity matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .exact import rank
from .tro import TroElement, TroSpace, left_dims, right_dims

K0Class = Tuple[int, ...]


class ProjectionError(ValueError):
    """An element claimed to be a projection fails p = p* = p^2 on some block."""

    def __init__(self, block: int, reason: str) -> None:
        self.block = block
        super().__init__(f"block {block} is not a projection: {reason}")


def k0_class_of_projection(p: TroElement) -> K0Class:
    """Blockwise ranks of an exact projection (square blocks, p = p* = p^2)."""
    for idx, b in enumerate(p.blocks):
        if b.rows != b.cols:
            raise ProjectionError(idx, f"block is {b.rows}x{b.cols}, not square")
        if b.dagger() != b:
            raise ProjectionError(idx, "not self-adjoint")
        if (b @ b) != b:
            raise ProjectionError(idx, "not idempotent")
    return tuple(rank(b) for b in p.blocks)


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
    is deterministic.
    """
    if a.k != b.k:
        return None
    available: dict = {}
    for j in range(b.k):
        available.setdefault((b.left_caps[j], b.right_caps[j]), []).append(j)
    perm = []
    for i in range(a.k):
        bucket = available.get((a.left_caps[i], a.right_caps[i]))
        if not bucket:
            return None
        perm.append(bucket.pop(0))
    return tuple(perm)


def apply_k0_matrix(mult: Sequence[Sequence[int]],
                    cls: Sequence[int]) -> K0Class:
    """Matrix-vector action of a K0 map on a class."""
    return tuple(sum(row[i] * cls[i] for i in range(len(cls))) for row in mult)

