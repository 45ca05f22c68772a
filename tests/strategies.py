"""Shared hypothesis strategies: small exact scalars, matrices, TRO spaces and
elements.  Everything stays tiny so the exact arithmetic keeps tests fast."""

from fractions import Fraction

from hypothesis import strategies as st

from kgrid.exact import Matrix, Scalar
from kgrid.tro import TroElement, TroSpace

# the 25 values n/d, d <= 3, |n/d| <= 3, smallest first so shrinking goes to 0
small_fractions = st.sampled_from(sorted(
    {Fraction(n, d) for d in (1, 2, 3) for n in range(-3 * d, 3 * d + 1)},
    key=lambda f: (abs(f), f)))

scalars = st.builds(Scalar, small_fractions, small_fractions)

int_scalars = st.integers(min_value=-3, max_value=3).map(Scalar)


def matrices(rows: int, cols: int, entries=scalars):
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: Matrix(rows, cols, tuple(es))
    )


def square_matrices(max_n: int = 3, entries=scalars):
    return st.integers(1, max_n).flatmap(lambda n: matrices(n, n, entries))


def any_matrices(max_rows: int = 3, max_cols: int = 3, entries=scalars):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda rc: matrices(*rc, entries=entries)
    )


spaces = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3
).map(lambda s: TroSpace(tuple(s)))


def elements_of(sp: TroSpace, entries=scalars):
    return st.tuples(*[matrices(n, m, entries) for n, m in sp.summands]).map(
        lambda blocks: TroElement(sp, blocks)
    )


def space_with_elements(count: int, entries=scalars):
    return spaces.flatmap(
        lambda sp: st.tuples(*[elements_of(sp, entries) for _ in range(count)])
    )
