"""The matrix side of the spin grids, shared by the tests: the standard spin
system as Pauli-matrix tensor words, the map from Clifford words to matrices
through it, and the matrix reference grid, built by the same formula as the
word grid of ``grid_for``."""

from functools import reduce

from kgrid.cartan import CartanDescriptor, SpinSystem, enveloping_tro
from kgrid.exact import Scalar, identity, kron, mat, mat_mul
from kgrid.grids import Grid, _spin_grid
from kgrid.tro import CliffordElement, TroElement, zero_element

# the Pauli convention of the reference
SIGMA1 = mat([[0, 1], [1, 0]])
SIGMA2 = mat([[0, Scalar(0, -1)], [Scalar(0, 1), 0]])
SIGMA3 = mat([[1, 0], [0, -1]])
_ID2 = identity(2)


def _odd_symmetry_matrices(n: int) -> list:
    """2n anticommuting self-adjoint involutions in M(2^n), as tensor words:
    s3^l (x) s1 (x) 1 and s3^l (x) s2 (x) 1 for l = 0 .. n-1."""
    mats = []
    for l in range(n):
        tail = [_ID2] * (n - l - 1)
        mats += [reduce(kron, [SIGMA3] * l + [s] + tail) for s in (SIGMA1, SIGMA2)]
    return mats


def standard_spin_system(d: CartanDescriptor) -> SpinSystem:
    """The standard spin system spanning the spin factor inside its TRO, as
    matrices: the realization in which the words of ``embedded_basis(d)``
    are read (see ``tro.CliffordElement``).

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
        ident = TroElement(target, (identity(2 ** n),))
        syms = tuple(TroElement(target, (m,)) for m in _odd_symmetry_matrices(n))
    else:
        n = dim // 2
        ident_blk = identity(2 ** (n - 1))
        ident = TroElement(target, (ident_blk, ident_blk))
        last = reduce(kron, [SIGMA3] * (n - 1))
        syms = tuple(TroElement(target, (m, m)) for m in _odd_symmetry_matrices(n - 1))
        syms += (TroElement(target, (last, -last)),)
    return SpinSystem(ident, syms)


def reference_grid(d) -> Grid:
    """The spin grid of d on the matrices of its standard spin system."""
    system = standard_spin_system(d)
    return _spin_grid(d, (system.identity,) + system.symmetries)


def times(x: TroElement, y: TroElement) -> TroElement:
    """The blockwise product x y."""
    return TroElement(x.space, tuple(mat_mul(a, b) for a, b in zip(x.blocks, y.blocks)))


def word_matrices(system: SpinSystem) -> list:
    """gamma_A as matrices for every mask A: the symmetries of the bits of A,
    multiplied in increasing order."""
    out = [system.identity]
    for s in system.symmetries:
        out += [times(m, s) for m in out]
    return out


def to_matrix(words: list, x: CliffordElement) -> TroElement:
    """The image of a word element under gamma_A -> words[A]."""
    out = zero_element(words[0].space)
    for mask, m in enumerate(words):
        c = x.word[0, mask]
        if not c.is_zero():
            out = out + m.scale(c)
    return out
