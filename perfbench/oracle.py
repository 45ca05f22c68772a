"""Reference answers that do not come from the code under test.

Factors are handled as plain ``(kind, params)`` tuples and matrices as lists of
rows of ``(re, im)`` Fraction pairs, so nothing here calls into ``kgrid``.
Values read from kgrid objects are converted first, through their public
attributes (``Matrix.rows``, ``Matrix[i, j]``, ``Scalar.re``/``.im``).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

ZERO = (Fraction(0), Fraction(0))


# --- factors ---------------------------------------------------------------------

def canon_factor(kind: str, params: tuple) -> tuple:
    """The four coincidences of the supported range: I(n,m) = I(m,n),
    I(n,1) = I(1,n), III(1) = I(1,1) and IV(4) = I(2,2)."""
    if kind == "I":
        n, m = params
        if min(n, m) == 1:
            return ("I", (1, n * m))
        return ("I", (min(n, m), max(n, m)))
    if kind == "III" and params == (1,):
        return ("I", (1, 1))
    if kind == "IV" and params == (4,):
        return ("I", (2, 2))
    return (kind, tuple(params))


def canon_multiset(factors) -> tuple:
    """Sorted canonical factor tuples of descriptors with .kind and .params."""
    return tuple(sorted(canon_factor(f.kind, tuple(f.params)) for f in factors))


def caps(kind: str, params: tuple) -> list:
    """(left, right) cap pairs of the enveloping TRO's summands."""
    if kind == "I":
        n, m = params
        if min(n, m) == 1:
            h = n * m
            return [(comb(h, t), comb(h, t - 1)) for t in range(1, h + 1)]
        return [(n, m), (m, n)]
    if kind in ("II", "III"):
        return [(params[0], params[0])]
    d = params[0]
    if d % 2 == 0:
        half = 2 ** (d // 2 - 1)
        return [(half, half), (half, half)]
    side = 2 ** ((d - 1) // 2)
    return [(side, side)]


def dim(kind: str, params: tuple) -> int:
    if kind == "I":
        return params[0] * params[1]
    n = params[0]
    if kind == "II":
        return n * (n - 1) // 2
    if kind == "III":
        return n * (n + 1) // 2
    return n


def gamma(kind: str, params: tuple) -> list:
    """Grid classes per family, sorted, in the computed spin convention of the
    README: odd dimension 2n+1 gives {2^(n-1), 2^n}, even dimension 2n gives
    {(2^(n-2), 2^(n-2))}."""
    if kind == "I":
        n, m = params
        if min(n, m) == 1:
            h = n * m
            return [[comb(h - 1, t) for t in range(h)]]
        return [[1, 1]]
    if kind == "II":
        return [[2]]
    if kind == "III":
        return [[1], [2]]
    d = params[0]
    if d % 2:
        n = (d - 1) // 2
        return [[2 ** (n - 1)], [2 ** n]]
    n = d // 2
    return [[2 ** (n - 2), 2 ** (n - 2)]]


def text(kind: str, params: tuple) -> str:
    return f"{kind}({','.join(str(p) for p in params)})"


def table_factors(rect_max=5, hilbert_max=7, symplectic_max=8,
                  hermitian_max=8, spin_max=9) -> list:
    """The rows ``kgrid table`` prints with its default ranges, in order."""
    out = [("I", (n, m)) for n in range(2, rect_max + 1)
           for m in range(n, rect_max + 1)]
    out += [("I", (1, n)) for n in range(1, hilbert_max + 1)]
    out += [("II", (n,)) for n in range(5, symplectic_max + 1)]
    out += [("III", (n,)) for n in range(2, hermitian_max + 1)]
    out += [("IV", (d,)) for d in range(4, spin_max + 1)]
    return out


# --- invariants --------------------------------------------------------------------

def witness_error(a, b, perm) -> str | None:
    """Why ``perm`` does not carry invariant ``a`` onto ``b`` (None if it does):
    it must be a permutation, map every cap pair onto an equal one, and map
    the set of grid classes exactly onto b's."""
    k = len(a.group.left_caps)
    if perm is None or sorted(perm) != list(range(k)) or len(b.group.left_caps) != k:
        return f"witness {perm!r} is not a permutation of {k} summands"
    for i, j in enumerate(perm):
        if (a.group.left_caps[i], a.group.right_caps[i]) != \
                (b.group.left_caps[j], b.group.right_caps[j]):
            return f"witness maps summand {i} onto summand {j} with other caps"
    mapped = set()
    for cls in a.gamma:
        vec = [0] * k
        for i, v in enumerate(cls):
            vec[perm[i]] = v
        mapped.add(tuple(vec))
    if mapped != set(b.gamma):
        return "witness does not map the grid classes onto each other"
    return None


# --- Gaussian rational matrices ----------------------------------------------------

def g_mul(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def g_add(x: tuple, y: tuple) -> tuple:
    return (x[0] + y[0], x[1] + y[1])


def g_div(x: tuple, y: tuple) -> tuple:
    d = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d)


def conj(x: tuple) -> tuple:
    return (x[0], -x[1])


def from_matrix(m) -> list:
    """A kgrid Matrix as rows of (re, im) pairs."""
    return [[(m[i, j].re, m[i, j].im) for j in range(m.cols)]
            for i in range(m.rows)]


def mul(a: list, b: list) -> list:
    out = []
    for row in a:
        acc = [ZERO] * len(b[0])
        for k, x in enumerate(row):
            if x == ZERO:
                continue
            for j, y in enumerate(b[k]):
                acc[j] = g_add(acc[j], g_mul(x, y))
        out.append(acc)
    return out


def adjoint(a: list) -> list:
    return [[conj(a[i][j]) for i in range(len(a))] for j in range(len(a[0]))]


def add(a: list, b: list) -> list:
    return [[g_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(c: tuple, a: list) -> list:
    return [[g_mul(c, x) for x in row] for row in a]


def jordan(x: list, y: list, z: list) -> list:
    """(x y* z + z y* x) / 2."""
    ys = adjoint(y)
    s = add(mul(mul(x, ys), z), mul(mul(z, ys), x))
    return scale((Fraction(1, 2), Fraction(0)), s)


def rank(a: list) -> int:
    """Rank by Gauss-Jordan elimination over Q(i)."""
    m = [list(row) for row in a]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != ZERO), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != ZERO:
                f = g_div(m[i][c], m[r][c])
                m[i] = [g_add(x, g_mul((-f[0], -f[1]), y))
                        for x, y in zip(m[i], m[r])]
        r += 1
    return r


def inner(v: list, w: list) -> tuple:
    """The inner product v* w of two vectors."""
    acc = ZERO
    for x, y in zip(v, w):
        acc = g_add(acc, g_mul(conj(x), y))
    return acc


def trace(a: list) -> tuple:
    acc = ZERO
    for i in range(len(a)):
        acc = g_add(acc, a[i][i])
    return acc


def int_matmul(a, b) -> tuple:
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(len(b)))
                       for j in range(len(b[0])))
                 for i in range(len(a)))


def place(sources: list, blocks: list, shape: tuple) -> list:
    """A shape[0] x shape[1] matrix holding copies of blocks[i] for i in
    ``sources`` down the diagonal, in that order, and zeros elsewhere."""
    out = [[ZERO] * shape[1] for _ in range(shape[0])]
    r = c = 0
    for i in sources:
        block = blocks[i]
        for a, row in enumerate(block):
            out[r + a][c:c + len(row)] = row
        r += len(block)
        c += len(block[0])
    return out
