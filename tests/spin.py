"""The matrix side of the spin grids, shared by the tests: the map from
Clifford words to matrices through the standard spin system, and the matrix
reference grid, built by the same formula as the word grid of ``grid_for``."""

from kgrid.cartan import SpinSystem, standard_spin_system
from kgrid.exact import mat_mul
from kgrid.grids import Grid, _spin_grid
from kgrid.tro import CliffordElement, TroElement, zero_element


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
