"""Exact arithmetic over the Gaussian rationals Q(i): scalars, sparse matrices
of Gaussian-integer numerators over one common denominator, rank and span by
one fraction-free elimination, Kronecker products and block-diagonal sums,
and the product and adjoint of Clifford words.  Matrix and word products,
alone, in triples (a b c) and in Jordan products, share one accumulation loop
per format.  No other module reads the sparse format; span, line and
compression tests and the ranks of unit-monomial elements take block tuples.

Everything here is exact; no floating point is ever involved.  Matrices are
immutable value types, so they can be shared freely and used as dict keys.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Optional, Sequence, Union


class ShapeError(ValueError):
    """Matrix shapes do not line up for the requested operation."""


class ParseError(ValueError):
    """Input text failed to parse; .position is the 0-based character index."""

    def __init__(self, position: int, message: str) -> None:
        self.position = position
        super().__init__(f"parse error at position {position}: {message}")


RationalLike = Union[int, Fraction]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if type(x) is not int:  # bool, float and str parts are rejected, not converted
        raise ValueError(f"a Scalar part must be an int or a Fraction, not {x!r}")
    return Fraction(x)


@dataclass(frozen=True, slots=True)
class Scalar:
    """A Gaussian rational re + im*i with exact rational parts."""

    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __add__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: "Scalar") -> "Scalar":
        return Scalar(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar((self.re * other.re + self.im * other.im) / d,
                      (self.im * other.re - self.re * other.im) / d)

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __str__(self) -> str:
        if not self.im:
            return _frac_str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{_frac_str(self.re)}{sign}{_frac_str(abs(self.im))}*i"

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
HALF = Scalar(Fraction(1, 2))


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


_SCALAR_FULL = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)\*i)?$")
_SCALAR_IMAG = re.compile(r"^([+-]?\d+(?:/\d+)?)\*i$")


def parse_scalar(text: str) -> Scalar:
    """Parse ``"a/b"`` or ``"a/b+c/d*i"`` (signs optional, whitespace ignored)."""
    stripped = "".join(text.split())
    try:
        m = _SCALAR_IMAG.match(stripped)
        if m:
            return Scalar(0, Fraction(m.group(1)))
        m = _SCALAR_FULL.match(stripped)
        if m is None:
            raise ValueError(f"not a scalar literal: {text!r}")
        im = Fraction(m.group(2)) if m.group(2) else Fraction(0)
        return Scalar(Fraction(m.group(1)), im)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in scalar literal {text!r}") from exc


EntryLike = Union[int, Fraction, Scalar]


def _scalar(x: EntryLike) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar(x)


def _gauss(s: Scalar) -> tuple:  # (re, im, den): over the least denominator
    den = math.lcm(s.re.denominator, s.im.denominator)
    return (s.re.numerator * (den // s.re.denominator),
            s.im.numerator * (den // s.im.denominator), den)


def _gmul(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


# one shared tuple for each small numerator, so dense inputs hold no copies
_SMALL = {(a, b): (a, b) for a in range(-16, 17) for b in range(-16, 17)}


class Matrix:
    """Immutable rows x cols matrix over Q(i), stored sparse and normalized:
    ``num`` maps each row with a nonzero entry to {col: (re, im)}, its nonzero
    Gaussian-integer numerators over the positive denominator ``den``.  den and
    the numerators have gcd 1, so equal matrices store equal data, compare and
    hash equal.  Matrices share rows of ``num``, so those are never mutated."""

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, entries: tuple) -> None:
        """Build from a dense row-major tuple of rows * cols Scalars."""
        if len(entries) != rows * cols:
            raise ShapeError(f"{rows}x{cols} needs {rows * cols} entries, got {len(entries)}")
        _check_shape(rows, cols)
        nonzero = [(idx, _gauss(s)) for idx, s in enumerate(entries) if s.re or s.im]
        # the lcm of least denominators leaves no common factor to divide out
        den = math.lcm(*(d for _, (_, _, d) in nonzero))
        num: dict = {}
        for idx, (re, im, d) in nonzero:
            i, j = divmod(idx, cols)
            v = (re * (den // d), im * (den // d))
            num.setdefault(i, {})[j] = _SMALL.get(v, v)
        self.rows, self.cols, self.num, self.den = rows, cols, num, den

    def __getitem__(self, ij: tuple) -> Scalar:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index {ij} outside a {self.rows}x{self.cols} matrix")
        v = self.num.get(i, {}).get(j)
        return ZERO if v is None else Scalar(Fraction(v[0], self.den), Fraction(v[1], self.den))

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and (self.rows, self.cols, self.den, self.num) \
            == (other.rows, other.cols, other.den, other.num)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, frozenset(
            (i, frozenset(row.items())) for i, row in self.num.items())))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")
        den = math.lcm(self.den, other.den)
        num = _scaled(self.num, den // self.den)
        for i, orow in _scaled(other.num, den // other.den).items():
            row = dict(num.get(i, ()))
            for j, (re, im) in orow.items():
                old = row.pop(j, (0, 0))
                if (old[0] + re, old[1] + im) != (0, 0):
                    row[j] = (old[0] + re, old[1] + im)
            num[i] = row
            if not row:
                del num[i]
        return sparse_matrix(self.rows, self.cols, num, den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return _new(self.rows, self.cols, _scaled(self.num, -1), self.den)

    def scale(self, s: EntryLike) -> "Matrix":
        sr, si, sd = _gauss(_scalar(s))
        if not (sr or si):
            return zeros(self.rows, self.cols)
        num = self.num if (sr, si) == (1, 0) else {
            i: {j: _gmul(v, (sr, si)) for j, v in row.items()}
            for i, row in self.num.items()}
        return sparse_matrix(self.rows, self.cols, num, self.den * sd)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def transpose(self) -> "Matrix":
        return self.dagger().conj()

    def conj(self) -> "Matrix":
        return _new(self.rows, self.cols, {i: {j: (re, -im) for j, (re, im) in row.items()}
                                           for i, row in self.num.items()}, self.den)

    def dagger(self) -> "Matrix":
        """Conjugate transpose."""
        num: dict = {}
        for i, row in self.num.items():
            for j, (re, im) in row.items():
                num.setdefault(j, {})[i] = (re, -im)
        return _new(self.cols, self.rows, num, self.den)

    def is_zero(self) -> bool:
        return not self.num

    def __repr__(self) -> str:
        if self.rows * self.cols <= _REPR_SLOTS:
            return f"Matrix[{'; '.join(', '.join(r) for r in matrix_to_strings(self))}]"
        # a word has 2^N columns: past a few slots, show only what is stored
        entries = ", ".join(f"({i},{j}): {self[i, j]}" for i in sorted(self.num)
                            for j in sorted(self.num[i]))
        return f"Matrix[{self.rows}x{self.cols}: {entries or 'zero'}]"


_REPR_SLOTS = 256  # Matrix.__repr__ writes out every entry up to this size


def _check_shape(rows: int, cols: int) -> None:  # for shapes from outside exact
    if rows < 1 or cols < 1:
        raise ShapeError(f"degenerate shape {rows}x{cols}")


def _new(rows: int, cols: int, num: dict, den: int) -> Matrix:
    # normalized data, in a shape that _check_shape passes
    m = object.__new__(Matrix)
    m.rows, m.cols, m.num, m.den = rows, cols, num, den
    return m


def sparse_matrix(rows: int, cols: int, num: dict, den: int) -> Matrix:
    """The Matrix with nonzero numerators num = {row: {col: (re, im)}} over a
    positive denominator den.  num holds no zero value and no empty row, and
    is taken over, not copied; its common factor with den is divided out."""
    g = den
    if g != 1:  # read entries only until the gcd reaches 1
        for row in num.values():
            for re, im in row.values():
                g = math.gcd(g, re, im)
                if g == 1:
                    break
            if g == 1:
                break
    if g != 1:
        num = {i: {j: (re // g, im // g) for j, (re, im) in row.items()}
               for i, row in num.items()}
        den //= g
    return _new(rows, cols, num, den)


def _scaled(num: dict, f: int) -> dict:  # a new row map, every value times f
    if f == 1:
        return dict(num)
    return {i: {j: (re * f, im * f) for j, (re, im) in row.items()}
            for i, row in num.items()}


def mat(rows: Sequence[Sequence[EntryLike]]) -> Matrix:
    """Build a Matrix from nested sequences of ints, Fractions or Scalars."""
    if not rows or not rows[0]:
        raise ShapeError("mat() needs at least one row and one column")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ShapeError("ragged rows")
    return Matrix(len(rows), ncols, tuple(_scalar(x) for r in rows for x in r))


def zeros(rows: int, cols: int) -> Matrix:
    _check_shape(rows, cols)
    return _new(rows, cols, {}, 1)


def identity(n: int) -> Matrix:
    _check_shape(n, n)
    return _new(n, n, {i: {i: (1, 0)} for i in range(n)}, 1)


def matrix_unit(rows: int, cols: int, i: int, j: int) -> Matrix:
    """E_{i,j} with a single 1 at 0-based position (i, j)."""
    if not (0 <= i < rows and 0 <= j < cols):
        raise IndexError(f"unit ({i}, {j}) outside a {rows}x{cols} matrix")
    return _new(rows, cols, {i: {j: (1, 0)}}, 1)


_NO_ROW: dict = {}  # an absent row; never written


def _mat_products(anum: dict, bnum: dict, num: dict) -> dict:
    """Add the numerators of the product of the row maps anum and bnum into
    the row map num and return it, visiting only products of two nonzero
    entries; num holds no zero value and no empty row, before and after."""
    for i, arow in anum.items():
        acc = num.get(i, {})
        for k, (ar, ai) in arow.items():
            for j, (br, bi) in bnum.get(k, _NO_ROW).items():
                old = acc.get(j, (0, 0))
                acc[j] = (old[0] + ar * br - ai * bi, old[1] + ar * bi + ai * br)
        if (0, 0) in acc.values():
            acc = {j: v for j, v in acc.items() if v != (0, 0)}
        if acc:
            num[i] = acc
        else:
            num.pop(i, None)
    return num


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product, visiting only products of two nonzero entries."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    return sparse_matrix(a.rows, b.cols, _mat_products(a.num, b.num, {}), a.den * b.den)


def _triple(products, a: Matrix, b: Matrix, c: Matrix) -> Matrix:
    """a b c in one block format, given its product loop: a b is accumulated
    as numerators, then times c, over a.den b.den c.den, which is normalized
    once."""
    return sparse_matrix(a.rows, c.cols, products(products(a.num, b.num, {}), c.num, {}),
                         a.den * b.den * c.den)


def mat_triple(a: Matrix, b: Matrix, c: Matrix) -> Matrix:
    """The matrix product a b c, in one normalized pass."""
    if a.cols != b.rows or b.cols != c.rows:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape} by {c.shape}")
    return _triple(_mat_products, a, b, c)


def _jordan(products, adjoint, a: Matrix, b: Matrix, c: Matrix) -> Matrix:
    """{a,b,c} = (a b* c + c b* a) / 2 in one block format, given its product
    loop and adjoint.  b* is formed once, and both products are accumulated
    as numerators over their common denominator a.den b.den c.den, which is
    normalized once, over twice that."""
    bs = adjoint(b).num
    num: dict = {}
    products(products(a.num, bs, {}), c.num, num)
    products(products(c.num, bs, {}), a.num, num)
    return sparse_matrix(a.rows, a.cols, num, 2 * a.den * b.den * c.den)


def mat_jordan(a: Matrix, b: Matrix, c: Matrix) -> Matrix:
    """The Jordan triple product {a,b,c} = (a b* c + c b* a) / 2 of three
    matrices of one shape."""
    if not a.shape == b.shape == c.shape:
        raise ShapeError(f"Jordan product of unequal shapes {a.shape}, {b.shape}, {c.shape}")
    return _jordan(_mat_products, dagger, a, b, c)


def _word_check(a: Matrix, b: Matrix) -> None:
    if a.rows != 1 or b.rows != 1 or a.cols != b.cols or a.cols & (a.cols - 1):
        raise ShapeError(f"words are 1 x 2^N rows of one N, not {a.shape}, {b.shape}")


def _word_products(anum: dict, bnum: dict, num: dict) -> dict:
    """Add the numerators of the word product (see word_mul) of the row maps
    anum and bnum into row 0 of num and return num, which holds no zero
    value and no empty row, before and after."""
    brow = bnum.get(0, _NO_ROW).items()
    acc = num.get(0, {})
    for x, (ar, ai) in anum.get(0, _NO_ROW).items():
        # bit q of odd is set when an odd number of bits of x lie above q, so
        # the sign of gamma_x gamma_y is (-1)^(the number of bits of y in odd)
        odd, bits = 0, x
        while bits:
            low = bits & -bits
            odd ^= low - 1
            bits ^= low
        for y, (br, bi) in brow:
            if (y & odd).bit_count() & 1:
                re, im = ai * bi - ar * br, -ar * bi - ai * br
            else:
                re, im = ar * br - ai * bi, ar * bi + ai * br
            z = x ^ y
            old = acc.get(z)
            if old is None:
                acc[z] = (re, im)
            elif old[0] + re or old[1] + im:
                acc[z] = (old[0] + re, old[1] + im)
            else:  # a cancelled entry is dropped where it cancels
                del acc[z]
    if acc:
        num[0] = acc
    else:
        num.pop(0, None)
    return num


def word_mul(a: Matrix, b: Matrix) -> Matrix:
    """Product in the complex Clifford algebra on N generators, whose elements
    are words: 1 x 2^N matrices with the coefficient of gamma_A in column A,
    bit k of the mask A standing for gamma_(k+1).  On basis words,
    gamma_A gamma_B = (-1)^#{(p, q): p in A, q in B, p > q} gamma_(A xor B):
    each generator of A passes those of B below it, and gamma_k^2 = 1."""
    _word_check(a, b)
    return sparse_matrix(1, a.cols, _word_products(a.num, b.num, {}), a.den * b.den)


def word_jordan(a: Matrix, b: Matrix, c: Matrix) -> Matrix:
    """The Jordan triple product {a,b,c} = (a b* c + c b* a) / 2 of three
    words of one N, with word products and adjoints."""
    _word_check(a, b)
    _word_check(a, c)
    return _jordan(_word_products, word_adjoint, a, b, c)


def word_triple(a: Matrix, b: Matrix, c: Matrix) -> Matrix:
    """The word product a b c of three words of one N, in one normalized
    pass."""
    _word_check(a, b)
    _word_check(a, c)
    return _triple(_word_products, a, b, c)


def word_adjoint(a: Matrix) -> Matrix:
    """The adjoint of a word (see word_mul): gamma_A* = (-1)^(|A|(|A|-1)/2)
    gamma_A, the generators reversed, with conjugated coefficients."""
    _word_check(a, a)
    return _new(1, a.cols, {i: {z: (-re, im) if z.bit_count() & 2 else (re, -im)
                                for z, (re, im) in row.items()}
                            for i, row in a.num.items()}, a.den)


dagger = Matrix.dagger


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product with block layout a[i,j]*b."""
    num = {}
    for i, arow in a.num.items():
        for k, brow in b.num.items():
            num[i * b.rows + k] = {j * b.cols + l: _gmul(x, y)
                                   for j, x in arow.items() for l, y in brow.items()}
    return sparse_matrix(a.rows * b.rows, a.cols * b.cols, num, a.den * b.den)


def block_diagonal(ms: Sequence[Matrix], rows: int, cols: int) -> Matrix:
    """ms down the diagonal of a rows x cols zero matrix, each after the last."""
    den = math.lcm(*(m.den for m in ms))
    num: dict = {}
    ro = co = 0
    for m in ms:
        f = den // m.den
        for i, row in m.num.items():
            num[ro + i] = ({co + j: v for j, v in row.items()} if f == 1 else
                           {co + j: (v[0] * f, v[1] * f) for j, v in row.items()})
        ro, co = ro + m.rows, co + m.cols
    if ro > rows or co > cols:
        raise ShapeError(f"blocks {[m.shape for m in ms]} overflow {rows}x{cols}")
    return sparse_matrix(rows, cols, num, den)


def direct_sum(a: Matrix, b: Matrix) -> Matrix:
    return block_diagonal((a, b), a.rows + b.rows, a.cols + b.cols)


def _gdiv(x: tuple, d: tuple) -> tuple:  # x / d, known to be a Gaussian integer
    n = d[0] * d[0] + d[1] * d[1]
    return ((x[0] * d[0] + x[1] * d[1]) // n, (x[1] * d[0] - x[0] * d[1]) // n)


def _eliminate(row: dict, at: tuple, pivot_row: dict, c: int, p: tuple) -> dict:
    # Bareiss step clearing column c of a row current at ``at``: (p row - row[c] pivot_row) / at
    pr, pi = p
    xr, xi = row[c]
    acc = {j: (pr * a - pi * b, pr * b + pi * a) for j, (a, b) in row.items() if j != c}
    for j, (a, b) in pivot_row.items():
        if j != c:
            sr, si = xr * a - xi * b, xr * b + xi * a
            old = acc.get(j)
            acc[j] = (-sr, -si) if old is None else (old[0] - sr, old[1] - si)
    ar, ai = at
    if ai:  # exact division by a non-real Gaussian integer
        n = ar * ar + ai * ai
        return {j: ((a * ar + b * ai) // n, (b * ar - a * ai) // n)
                for j, (a, b) in acc.items() if a or b}
    if ar == 1:
        return {j: v for j, v in acc.items() if v[0] or v[1]}
    return {j: (a // ar, b // ar) for j, (a, b) in acc.items() if a or b}


def _bareiss(rows: list) -> list:
    """Fraction-free (Bareiss) elimination of sparse rows {col: (re, im)}, in
    order: a nonzero row pivots on its least column, cleared from every later
    row.  Returns the (col, row) pivots.  A row a step skips is owed
    p_new / p_old, which telescopes, so each row keeps the pivot it is
    current at and is updated only when used.  Every division is exact
    (Sylvester's identity), which keeps coefficient growth polynomial."""
    prev, pivots = (1, 0), []
    work = [(row, prev) for row in rows]
    for t, (row, at) in enumerate(work):
        if not row:
            continue
        if at != prev:
            row = {j: _gdiv(_gmul(v, prev), at) for j, v in row.items()}
        c = min(row)
        p = row[c]
        for u in range(t + 1, len(work)):
            if c in work[u][0]:
                work[u] = (_eliminate(*work[u], row, c, p), p)
        pivots.append((c, row))
        prev = p
    return pivots


def rank(a: Matrix) -> int:
    """Exact rank: the pivot count of the fraction-free sweep on the numerators."""
    return len(_bareiss(list(a.num.values())))


def _shape(v: Union[Matrix, tuple]) -> tuple:  # the block shapes
    return (v.shape,) if isinstance(v, Matrix) else tuple(b.shape for b in v)


def _flat(v: Union[Matrix, tuple], like: Union[Matrix, tuple]) -> tuple:
    """(v's numerators at row-major positions, its blocks laid end to end,
    over the lcm of the blocks' denominators; that lcm).  v has like's shape."""
    if _shape(v) != _shape(like):
        raise ShapeError(f"span over mixed shapes: {_shape(like)} vs {_shape(v)}")
    blocks = (v,) if isinstance(v, Matrix) else v
    den = math.lcm(*(b.den for b in blocks))
    flat: dict = {}
    offset = 0
    for b in blocks:
        f = den // b.den
        for i, row in b.num.items():
            for j, x in row.items():
                flat[offset + i * b.cols + j] = x if f == 1 else (x[0] * f, x[1] * f)
        offset += b.rows * b.cols
    return flat, den


def _stacked(vs: Sequence[Union[Matrix, tuple]], like: Union[Matrix, tuple]) -> tuple:
    """(the rows _flat(v, like) for v in vs, their denominators, the row length):
    each vector as one row, which keeps the rank of the vectors."""
    flats = [_flat(v, like) for v in vs]
    return [f for f, _ in flats], [d for _, d in flats], sum(n * m for n, m in _shape(like))


def span_dim(vs: Sequence[Union[Matrix, tuple]]) -> int:
    """Dimension of the complex linear span of same-shaped vectors, each a
    matrix or a tuple of matrix blocks."""
    if not vs:
        return 0
    rows, _, size = _stacked(vs, vs[0])
    return rank(_new(len(vs), size, {r: row for r, row in enumerate(rows) if row}, 1))


def span_coords(vs: Sequence[Union[Matrix, tuple]],
                target: Union[Matrix, tuple]) -> Optional[list]:
    """Coefficients c with sum(c_j * vs[j]) == target, or None if unsolvable.

    The vectors are as in span_dim.  The solution returned is the one that
    gives 0 to every vector in the span of earlier ones, so it is unique.

    The vectors and the target are reduced as stacked rows, one numerator
    row N_j per vs[j] and N last for the target, each with a tag (1, 0) in
    its own column after the entries, in reverse order: the target's in
    column size, vs[j]'s in column size + k - j.  A vector's row with no
    entry left pivots on its own tag, its least column, which no later row
    holds, so that step clears nothing.  The target's row pivots on its tag
    exactly when the target lies in the span, and then its tags r_j and
    r != 0 are a relation sum(r_j N_j) + r N = 0 over the independent
    vectors, so c_j = -r_j d_j / (r d) for the denominators d_j of vs[j] and
    d of target.

    The rows are first reduced cut down to their leading columns L, the
    union of each vector's first k nonzero columns, and the relation found
    there is checked on every column.  A relation that holds is the uncut
    answer: a vector independent of earlier ones on L is independent on
    every column, so the relation lies on the uncut rows' greedy basis (the
    vectors not in the span of earlier ones), and a solution on that basis
    is unique.  A relation that fails refuses the target when every vector
    pivots on an entry of L: the k vectors are then independent on L, so the
    relation is the only solution there, and any solution on every column
    would be one on L.  Otherwise the uncut rows are reduced.
    """
    k = len(vs)
    rows, dens, size = _stacked([*vs, target], target)
    lead = {c for row in rows[:k] for c in sorted(row)[:k]}
    stack = _new(k + 1, size, {k - j: row for j, row in enumerate(rows) if row}, 1)
    for cut in ([{c: row[c] for c in lead if c in row} for row in rows], rows):
        pivots = _bareiss([{**row, size + k - j: (1, 0)} for j, row in enumerate(cut)])
        col, rel = pivots[-1]
        if col != size:  # the target's row pivoted on an entry: it is off the span
            return None
        tags = _new(1, k + 1, {0: {c - size: t for c, t in rel.items()}}, 1)
        if not mat_mul(tags, stack).num:  # the relation holds on every column
            break
        if all(c < size for c, _ in pivots[:k]):  # no other relation
            return None
    # -r_j d_j / (r d) = -r_j d_j conj(r) / (|r|^2 d)
    rr, ri = rel[size]
    n = (rr * rr + ri * ri) * dens[k]
    coords = []
    for j in range(k):
        xr, xi = rel.get(size + k - j, (0, 0))
        f = -dens[j]
        coords.append(Scalar(Fraction(f * (xr * rr + xi * ri), n),
                             Fraction(f * (xi * rr - xr * ri), n)) if xr or xi else ZERO)
    return coords


def _entry_counts(blocks: tuple) -> list:
    return [sum(map(len, x.num.values())) for x in blocks]


def in_line(e: tuple, ws: Iterable[tuple]) -> bool:
    """True iff e and every w of ws, tuples of matrix blocks of one shape,
    lie on one complex line: span_dim([e, *ws]) <= 1.  For e != 0 that is
    every w a complex multiple of e; for e = 0, of the first nonzero w.

    Decided on Gaussian-integer numerators, with no division: let v be that
    first nonzero vector and p its numerator at its first entry, in block b,
    and q the numerator of w there.  If q is absent, w must be 0.  Otherwise
    the multiple is w = (q dv_b / (p dw_b)) v, so w must have an entry exactly
    where v has one, and at each, with numerators V of v and W of w in a
    block whose denominators are dv and dw, p W dw_b dv = q V dv_b dw.  The
    ws are read in order, and the first one off the line ends the test.
    """
    vs = chain((e,), ws)
    v = next((v for v in vs if any(x.num for x in v)), None)
    if v is None:
        return True
    counts = _entry_counts(v)
    b = next(k for k, x in enumerate(v) if x.num)
    i, row = next(iter(v[b].num.items()))
    j, p = next(iter(row.items()))
    for w in vs:
        q = w[b].num.get(i, _NO_ROW).get(j)
        if q is None:  # then w must be 0
            if any(y.num for y in w):
                return False
            continue
        if _entry_counts(w) != counts:  # w has an entry off v's support
            return False
        for x, y in zip(v, w):
            f, g = w[b].den * x.den, v[b].den * y.den
            for r, xrow in x.num.items():
                yrow = y.num.get(r, _NO_ROW)
                for c, xv in xrow.items():
                    yv = yrow.get(c)
                    if yv is None:
                        return False
                    (ar, ai), (cr, ci) = _gmul(p, yv), _gmul(q, xv)
                    if ar * f != cr * g or ai * f != ci * g:
                        return False
    return True


def compressed_in_line(e: tuple, ws: Iterable[tuple]) -> bool:
    """True iff each w of ws, its blocks cut down to the rows x columns where
    the blocks e have a nonzero entry, is a complex multiple of e.  Every
    block of e must be monomial (at most one nonzero entry in each row and
    column), as it is when unit_monomial_ranks(e) is not None.

    Decided on Gaussian-integer numerators, with no division: let p and q be
    the numerators of e and w at e's first nonzero entry, in block b, so a
    multiple must be w = (q/p) e.  Each row r of a monomial block holds one
    entry of e, at column s(r), with numerator E.  w's cut-down row r must be
    zero off s(r), and its numerator W at s(r) must have p W dw_b de =
    q E de_b dw, where de and dw are the denominators of that block of e and
    of w, and de_b and dw_b those of block b.
    """
    entries = []  # (block, row, e's column there, e's numerator, e's columns)
    for blk, x in enumerate(e):
        used = {j for row in x.num.values() for j in row}
        entries += [(blk, r, *next(iter(row.items())), used) for r, row in x.num.items()]
    if not entries:
        return True
    b, i, j, p, _ = entries[0]
    for w in ws:
        q = w[b].num.get(i, {}).get(j)
        if q is None:  # then w must vanish on rows(e) x cols(e)
            if any(not used.isdisjoint(w[blk].num.get(r, ()))
                   for blk, r, _, _, used in entries):
                return False
            continue
        dens = [(w[b].den * x.den, e[b].den * y.den) for x, y in zip(e, w)]
        for blk, r, s, v, used in entries:
            wrow = w[blk].num.get(r, {})
            if s not in wrow or any(k != s and k in used for k in wrow):
                return False
            (ar, ai), (cr, ci), (de, dw) = _gmul(p, wrow[s]), _gmul(q, v), dens[blk]
            if ar * de != cr * dw or ai * de != ci * dw:
                return False
    return True


def unit_monomial_ranks(blocks: tuple) -> Optional[tuple]:
    """Each block's count of nonzero entries when every block is monomial (at
    most one nonzero entry in each row and column) and every entry has
    modulus 1; None otherwise.

    Then the blocks e are a tripotent and the counts are the ranks of its
    range projection, with no product: for a monomial e, e e* is diagonal
    and holds |x|^2 at the row of each entry x, so e e* e = e exactly when
    every |x| = 1, and then p = e e* is the 0/1 diagonal projection onto e's
    rows, whose trace, its rank, is the entry count.
    """
    ranks = []
    for x in blocks:
        entries = [v for row in x.num.values() for v in row.items()]
        if len(entries) != len(x.num) or len({j for j, _ in entries}) != len(entries):
            return None
        unit = x.den * x.den
        if any(re * re + im * im != unit for _, (re, im) in entries):
            return None
        ranks.append(len(entries))
    return tuple(ranks)


def row_support(blocks: tuple) -> list:
    """The (block index, row) of every row with a nonzero entry."""
    return [(b, i) for b, x in enumerate(blocks) for i in x.num]


def trace(a: Matrix) -> Scalar:
    """The sum of the diagonal entries of a square matrix."""
    if a.rows != a.cols:
        raise ShapeError(f"trace of a non-square {a.rows}x{a.cols} matrix")
    re = im = 0
    for i, row in a.num.items():
        v = row.get(i)
        if v is not None:
            re, im = re + v[0], im + v[1]
    return Scalar(Fraction(re, a.den), Fraction(im, a.den))


def matrix_to_strings(m: Matrix) -> list:
    """Serialize to the JSON wire form: rows of scalar literals."""
    return [[str(m[i, j]) for j in range(m.cols)] for i in range(m.rows)]


def matrix_from_strings(rows: Sequence[Sequence[str]]) -> Matrix:
    return mat([[parse_scalar(x) for x in r] for r in rows])
