import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import kgrid
from kgrid import exact
from kgrid.exact import (
    HALF,
    I,
    Matrix,
    ONE,
    Scalar,
    ShapeError,
    ZERO,
    block_diagonal,
    dagger,
    direct_sum,
    identity,
    kron,
    mat,
    mat_jordan,
    mat_mul,
    matrix_from_strings,
    matrix_to_strings,
    matrix_unit,
    parse_scalar,
    rank,
    span_coords,
    span_dim,
    zeros,
)

from .spin import SIGMA1, SIGMA2, SIGMA3
from .strategies import any_matrices, int_scalars, matrices, scalars


def naive_rank(m: Matrix) -> int:
    # independent oracle: plain division-based Gaussian elimination
    rows = [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
    r = 0
    for col in range(m.cols):
        piv = next((i for i in range(r, m.rows) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        for i in range(r + 1, m.rows):
            if rows[i][col].is_zero():
                continue
            f = rows[i][col] / pv
            for j in range(col, m.cols):
                rows[i][j] = rows[i][j] - f * rows[r][j]
        r += 1
    return r


class TestScalar:
    def test_product(self):
        # (1+2i)(3-i) = 5+5i
        assert Scalar(1, 2) * Scalar(3, -1) == Scalar(5, 5)

    def test_division_exact(self):
        a = Scalar(Fraction(1, 2), Fraction(-3, 4))
        b = Scalar(2, 5)
        assert (a * b) / b == a

    def test_conjugate(self):
        assert Scalar(1, 2).conjugate() == Scalar(1, -2)

    @given(scalars)
    def test_str_roundtrip(self, s):
        assert parse_scalar(str(s)) == s

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", Scalar(3)),
            ("-1/2", Scalar(Fraction(-1, 2))),
            ("1/2+3/4*i", Scalar(Fraction(1, 2), Fraction(3, 4))),
            ("1/2-3/4*i", Scalar(Fraction(1, 2), Fraction(-3, 4))),
            ("0+1*i", I),
            ("5*i", Scalar(0, 5)),
            (" 2 / 3 ", Scalar(Fraction(2, 3))),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_scalar(text) == expected

    @pytest.mark.parametrize("text", ["", "x", "1+i", "1/0", "2*j", "1//2"])
    def test_parse_rejects(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_scalar(text)

    @pytest.mark.parametrize("bad", [0.1, 0.5, 1.0, True, False, "1/3", None, 1j])
    def test_rejects_inexact_and_non_numeric(self, bad):
        # only int (not bool) and Fraction; parse_scalar is the text entry point
        with pytest.raises(ValueError):
            Scalar(bad)
        with pytest.raises(ValueError):
            Scalar(1, bad)
        with pytest.raises(ValueError):
            mat([[1, bad]])
        with pytest.raises(ValueError):
            identity(2).scale(bad)


class TestMatMul:
    def test_matrix_units(self):
        e12 = matrix_unit(2, 2, 0, 1)
        e21 = matrix_unit(2, 2, 1, 0)
        assert e12 @ e21 == matrix_unit(2, 2, 0, 0)

    def test_pauli_involution(self):
        assert SIGMA1 @ SIGMA1 == identity(2)

    def test_sigma1_sigma2(self):
        # direct 2x2 multiplication: [[i,0],[0,-i]] = i*sigma3
        assert SIGMA1 @ SIGMA2 == mat([[I, ZERO], [ZERO, -I]])
        assert SIGMA1 @ SIGMA2 == SIGMA3.scale(I)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(zeros(2, 3), zeros(2, 3))

    def test_jordan_shape_mismatch(self):
        a = matrix_unit(2, 3, 0, 1)
        for args in ((a, matrix_unit(3, 2, 1, 0), a), (a, a, matrix_unit(2, 2, 0, 0)),
                     (matrix_unit(1, 3, 0, 1), a, a), (identity(2), identity(2), a)):
            with pytest.raises(ShapeError, match="unequal shapes"):
                mat_jordan(*args)

    @given(any_matrices(2, 2), any_matrices(2, 2))
    def test_matches_dense_definition(self, a, b):
        if a.cols != b.rows:
            with pytest.raises(ShapeError):
                mat_mul(a, b)
            return
        expected = Matrix(
            a.rows,
            b.cols,
            tuple(
                sum((a[i, k] * b[k, j] for k in range(a.cols)), ZERO)
                for i in range(a.rows)
                for j in range(b.cols)
            ),
        )
        assert a @ b == expected


class TestDagger:
    def test_one_by_one(self):
        assert dagger(mat([[I]])) == mat([[-I]])

    def test_matrix_unit(self):
        assert dagger(matrix_unit(2, 2, 0, 1)) == matrix_unit(2, 2, 1, 0)

    def test_sigma2_selfadjoint(self):
        assert dagger(SIGMA2) == SIGMA2

    @given(any_matrices())
    def test_involution(self, a):
        assert dagger(dagger(a)) == a

    @given(matrices(2, 3), matrices(3, 2))
    def test_antihomomorphism(self, a, b):
        assert dagger(a @ b) == dagger(b) @ dagger(a)


class TestKron:
    def test_identities(self):
        assert kron(identity(2), identity(2)) == identity(4)

    def test_sigma3_sigma1_blocks(self):
        # blocks [sigma1, 0; 0, -sigma1] by direct expansion
        expected = mat(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
        )
        assert kron(SIGMA3, SIGMA1) == expected

    @given(any_matrices(3, 3), any_matrices(3, 3))
    def test_rank_multiplicative(self, a, b):
        assert rank(kron(a, b)) == rank(a) * rank(b)


class TestRank:
    def test_zero(self):
        assert rank(zeros(3, 4)) == 0

    def test_two_units(self):
        m = matrix_unit(3, 3, 0, 0) + matrix_unit(3, 3, 1, 1)
        assert rank(m) == 2

    def test_fractions_and_imaginary(self):
        m = mat([[HALF, I], [I * HALF, Scalar(0, -1) * HALF * HALF]])
        assert rank(m) == naive_rank(m)

    @given(any_matrices(4, 4))
    def test_against_naive_oracle(self, a):
        assert rank(a) == naive_rank(a)

    @given(any_matrices(3, 3), any_matrices(3, 3))
    def test_direct_sum_additive(self, a, b):
        assert rank(direct_sum(a, b)) == rank(a) + rank(b)


class TestSpan:
    def test_duplicates(self):
        e = matrix_unit(2, 2, 0, 0)
        assert span_dim([e, e]) == 1

    def test_pauli_basis(self):
        assert span_dim([identity(2), SIGMA1, SIGMA2, SIGMA3]) == 4

    def test_empty(self):
        assert span_dim([]) == 0
        assert span_coords([], zeros(2, 2)) == []
        assert span_coords([], (zeros(1, 1), zeros(2, 3))) == []
        assert span_coords([], matrix_unit(2, 2, 1, 0)) is None

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            span_dim([zeros(2, 2), zeros(2, 3)])
        with pytest.raises(ShapeError):
            span_coords([zeros(2, 2)], zeros(2, 3))
        with pytest.raises(ShapeError):
            span_coords([identity(2), zeros(3, 3)], identity(2))
        with pytest.raises(ShapeError):
            span_coords([(identity(1), identity(2))], (identity(1),))

    def test_coords_solve(self):
        target = SIGMA1.scale(Scalar(2)) + SIGMA3.scale(I)
        coords = span_coords([SIGMA1, SIGMA2, SIGMA3], target)
        assert coords == [Scalar(2), ZERO, I]

    def test_coords_off_span(self):
        assert span_coords([SIGMA1], SIGMA2) is None

    def test_coords_pinned(self):
        a = mat([[1, HALF], [0, I]])
        b = mat([[0, 1], [Fraction(2, 3), 0]])
        # 2a lies in the span of a, so it gets 0 and the solution is unique
        assert span_coords([a, a.scale(2), b], a.scale(3) + b) == [Scalar(3), ZERO, ONE]

    def test_coords_zero_vector(self):
        a = mat([[1, 2], [I, 0]])
        assert span_coords([zeros(2, 2), a], a.scale(I)) == [ZERO, I]
        assert span_coords([a, zeros(2, 2)], a.scale(2)) == [Scalar(2), ZERO]

    @given(matrices(2, 2), st.lists(scalars, min_size=3, max_size=3))
    def test_coords_recombine(self, _, coeffs):
        basis = [identity(2), SIGMA1, SIGMA2]
        target = zeros(2, 2)
        for c, b in zip(coeffs, basis):
            target = target + b.scale(c)
        got = span_coords(basis, target)
        assert got is not None
        recombined = zeros(2, 2)
        for c, b in zip(got, basis):
            recombined = recombined + b.scale(c)
        assert recombined == target


class TestBlockDiagonal:
    def test_no_blocks_is_zero(self):
        assert block_diagonal([], 2, 3) == zeros(2, 3)

    def test_padding_in_one_dimension(self):
        a, b = mat([[1, 2]]), mat([[HALF]])
        assert block_diagonal([a, b], 2, 4) == mat([[1, 2, 0, 0], [0, 0, HALF, 0]])
        assert block_diagonal([a, b], 3, 3) == mat([[1, 2, 0], [0, 0, HALF], [0, 0, 0]])

    def test_overflow_rejected(self):
        with pytest.raises(ShapeError):
            block_diagonal([identity(2), identity(1)], 3, 2)


class TestSerialization:
    @given(any_matrices())
    def test_lossless_roundtrip(self, a):
        assert matrix_from_strings(matrix_to_strings(a)) == a

    def test_wire_form(self):
        m = mat([[HALF, Scalar(0, Fraction(-2, 3))]])
        assert matrix_to_strings(m) == [["1/2", "0-2/3*i"]]

    def test_ragged_rejected(self):
        with pytest.raises(ShapeError):
            matrix_from_strings([["1", "2"], ["3"]])


def test_scale_and_arithmetic():
    a = mat([[1, 2], [3, 4]])
    assert a + (-a) == zeros(2, 2)
    assert a.scale(ONE) == a
    assert (a - a).is_zero()
    assert a.transpose() == mat([[1, 3], [2, 4]])


# --- the sparse kernel against a naive dense reference ----------------------
#
# The reference holds a matrix as rows of (re, im) Fraction pairs and computes
# every operation by the textbook formula, with no sparsity and no common
# denominator, so it shares no code with the kernel under test.

entry_mix = st.one_of(st.just(ZERO), int_scalars, scalars)
# mostly zero, so that rows skip elimination steps and pivots are not units
sparse_ints = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3]).map(Scalar)


def dense_pairs(rows: int, cols: int, entries=entry_mix):
    """(Matrix, reference) built from the same drawn entries."""
    return st.lists(entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: (Matrix(rows, cols, tuple(es)),
                    [[(s.re, s.im) for s in es[i * cols:(i + 1) * cols]]
                     for i in range(rows)])
    )


shapes = st.tuples(st.integers(1, 3), st.integers(1, 3))


def ref_of(m: Matrix) -> list:
    return [[(m[i, j].re, m[i, j].im) for j in range(m.cols)] for i in range(m.rows)]


def r_mul_scalar(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def r_add_scalar(x, y):
    return (x[0] + y[0], x[1] + y[1])


def r_matmul(a, b):
    zero = (Fraction(0), Fraction(0))
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = zero
            for k in range(len(b)):
                acc = r_add_scalar(acc, r_mul_scalar(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def r_combine(a, b, sign):
    return [[(x[0] + sign * y[0], x[1] + sign * y[1]) for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def r_scale(c, a):
    return [[r_mul_scalar(c, x) for x in row] for row in a]


def r_dagger(a):
    return [[(a[i][j][0], -a[i][j][1]) for i in range(len(a))] for j in range(len(a[0]))]


def r_kron(a, b):
    return [[r_mul_scalar(a[i][j], b[k][l]) for j in range(len(a[0])) for l in range(len(b[0]))]
            for i in range(len(a)) for k in range(len(b))]


def r_block_diagonal(blocks, rows, cols):
    out = [[(Fraction(0), Fraction(0))] * cols for _ in range(rows)]
    r = c = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[r + i][c:c + len(row)] = row
        r, c = r + len(b), c + len(b[0])
    return out


def r_rank(rows) -> int:
    # division-based Gaussian elimination on (re, im) Fraction pairs
    rows = [list(r) for r in rows]
    zero = (Fraction(0), Fraction(0))
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr, pi = rows[r][col]
        norm = pr * pr + pi * pi
        for i in range(r + 1, len(rows)):
            x = rows[i][col]
            if x == zero:
                continue
            f = r_mul_scalar(x, (pr / norm, -pi / norm))
            rows[i] = [(a[0] - fb[0], a[1] - fb[1])
                       for a, fb in ((a, r_mul_scalar(f, b)) for a, b in zip(rows[i], rows[r]))]
        r += 1
    return r


def r_flat(a) -> list:
    return [x for row in a for x in row]


class TestKernelAgainstReference:
    @given(shapes.flatmap(lambda s: dense_pairs(*s)))
    def test_entries(self, pair):
        m, ref = pair
        assert ref_of(m) == ref

    @given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda nkm: st.tuples(dense_pairs(nkm[0], nkm[1]), dense_pairs(nkm[1], nkm[2]))))
    def test_mat_mul(self, pairs):
        (a, ra), (b, rb) = pairs
        assert ref_of(mat_mul(a, b)) == r_matmul(ra, rb)

    @given(shapes.flatmap(lambda s: st.tuples(*(dense_pairs(*s) for _ in range(3)))))
    def test_mat_jordan(self, pairs):
        (a, ra), (b, rb), (c, rc) = pairs
        rbs = r_dagger(rb)
        twice = r_combine(r_matmul(r_matmul(ra, rbs), rc), r_matmul(r_matmul(rc, rbs), ra), 1)
        assert ref_of(mat_jordan(a, b, c)) == r_scale((Fraction(1, 2), Fraction(0)), twice)

    @given(shapes.flatmap(lambda s: st.tuples(dense_pairs(*s), dense_pairs(*s))))
    def test_add_sub_neg(self, pairs):
        (a, ra), (b, rb) = pairs
        assert ref_of(a + b) == r_combine(ra, rb, 1)
        assert ref_of(a - b) == r_combine(ra, rb, -1)
        assert ref_of(-a) == r_scale((Fraction(-1), Fraction(0)), ra)

    @given(shapes.flatmap(lambda s: dense_pairs(*s)), entry_mix)
    def test_scale(self, pair, c):
        m, ref = pair
        assert ref_of(m.scale(c)) == r_scale((c.re, c.im), ref)

    @given(shapes.flatmap(lambda s: dense_pairs(*s)))
    def test_dagger_transpose_conj(self, pair):
        m, ref = pair
        assert ref_of(dagger(m)) == r_dagger(ref)
        assert ref_of(m.transpose()) == [[(x[0], -x[1]) for x in row]
                                         for row in r_dagger(ref)]
        assert ref_of(m.conj()) == [[(x[0], -x[1]) for x in row] for row in ref]

    @given(shapes.flatmap(lambda s: dense_pairs(*s)), shapes.flatmap(lambda s: dense_pairs(*s)))
    def test_kron_direct_sum(self, pa, pb):
        (a, ra), (b, rb) = pa, pb
        assert ref_of(kron(a, b)) == r_kron(ra, rb)
        assert ref_of(direct_sum(a, b)) == r_block_diagonal(
            [ra, rb], a.rows + b.rows, a.cols + b.cols)

    @given(st.lists(shapes.flatmap(lambda s: dense_pairs(*s)), max_size=3),
           st.integers(0, 2), st.integers(0, 2))
    def test_block_diagonal(self, pairs, pad_rows, pad_cols):
        rows = sum(m.rows for m, _ in pairs) + pad_rows
        cols = sum(m.cols for m, _ in pairs) + pad_cols
        assume(rows and cols)
        assert ref_of(block_diagonal([m for m, _ in pairs], rows, cols)) == r_block_diagonal(
            [r for _, r in pairs], rows, cols)

    @given(st.tuples(st.integers(2, 5), st.integers(2, 5)).flatmap(
        lambda s: dense_pairs(*s, entries=sparse_ints)))
    def test_rank_sparse(self, pair):
        m, ref = pair
        assert rank(m) == r_rank(ref)

    def test_rank_row_skipping_steps(self):
        # row 1 has no entry in the first pivot column; when it pivots later it
        # must first be brought up to date with the pivot it skipped
        assert rank(mat([[3, 2, 0, 0], [0, 0, -1, -2], [0, 0, 0, -2], [1, 0, -2, -1]])) == 4

    @given(shapes.flatmap(lambda s: st.lists(dense_pairs(*s), min_size=1, max_size=5)))
    def test_span_dim(self, pairs):
        assert span_dim([m for m, _ in pairs]) == r_rank([r_flat(r) for _, r in pairs])

    @given(shapes.flatmap(lambda s: st.tuples(
        st.lists(dense_pairs(*s), min_size=1, max_size=4), dense_pairs(*s),
        st.lists(entry_mix, min_size=4, max_size=4), st.booleans())))
    def test_span_coords(self, drawn):
        pairs, (free, rfree), coeffs, in_span = drawn
        ms, refs = [m for m, _ in pairs], [r for _, r in pairs]
        if in_span:  # a combination with real denominators
            target, rtarget = zeros(*ms[0].shape), [[(Fraction(0), Fraction(0))] * ms[0].cols
                                                    for _ in range(ms[0].rows)]
            for c, m, r in zip(coeffs, ms, refs):
                target = target + m.scale(c)
                rtarget = r_combine(rtarget, r_scale((c.re, c.im), r), 1)
        else:  # an arbitrary target, unsolvable whenever it raises the rank
            target, rtarget = free, rfree
        solvable = r_rank([r_flat(r) for r in refs + [rtarget]]) == r_rank(
            [r_flat(r) for r in refs])
        got = span_coords(ms, target)
        assert (got is not None) == solvable
        if got is not None:
            rebuilt = [[(Fraction(0), Fraction(0))] * ms[0].cols for _ in range(ms[0].rows)]
            for c, r in zip(got, refs):
                rebuilt = r_combine(rebuilt, r_scale((c.re, c.im), r), 1)
            assert rebuilt == rtarget

    def test_rank_division_branches(self, monkeypatch):
        # the rows are brought current at 1, at the real pivot 2 and at the
        # non-real pivot -1+2i: each exact-division branch of the step runs
        seen = []
        step = exact._eliminate

        def recording(row, at, *rest):
            seen.append(at)
            return step(row, at, *rest)

        monkeypatch.setattr(exact, "_eliminate", recording)
        m = mat([[2, 1, 0, 0], [1, I, 1, 0], [1, 1, 0, 1], [0, 1, 1, 1]])
        assert rank(m) == r_rank(ref_of(m)) == 4
        assert (1, 0) in seen and (2, 0) in seen and (-1, 2) in seen

    def test_span_coords_non_real_relation(self, monkeypatch):
        # the target's tag r in the relation is -1+2i, so the division by r is
        # by a non-real Gaussian integer
        relations = []
        bareiss = exact._bareiss

        def recording(rows):
            out = bareiss(rows)
            relations.append(out[-1][1])
            return out

        monkeypatch.setattr(exact, "_bareiss", recording)
        vs = [mat([[I, 1]]), mat([[1, 2]])]
        assert span_coords(vs, mat([[3, 1]])) == [Scalar(-1, -2), Scalar(1, 1)]
        assert relations == [{2: (-1, 2), 3: (3, -1), 4: (-5, 0)}]

    def test_span_coords_seeded(self, eliminations, monkeypatch):
        # dense-algebra-shaped cases: 1-3 blocks up to 6x6, denominators 1-3,
        # 2-5 vectors of which about half are combinations of earlier ones;
        # every target, in the span as in the dense-algebra workload or off
        # it, is decided by one elimination, on the leading columns, where
        # the independent dense vectors stay independent.  Every cleared
        # column is an entry column: a row that pivots on its tag clears
        # nothing
        rng = random.Random(1604)
        cleared = []
        step = exact._eliminate

        def recording(row, at, pivot_row, c, p):
            cleared.append(c)
            return step(row, at, pivot_row, c, p)

        monkeypatch.setattr(exact, "_eliminate", recording)

        def entry():
            return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                          Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

        def combine(coeffs, refs):
            out = [[[(Fraction(0), Fraction(0))] * len(b[0]) for _ in b] for b in refs[0]]
            for c, r in zip(coeffs, refs):
                out = [r_combine(o, r_scale((c.re, c.im), b), 1) for o, b in zip(out, r)]
            return out

        def dense(shapes):
            return [[[(e.re, e.im) for e in (entry() for _ in range(m))] for _ in range(n)]
                    for n, m in shapes]

        def element(ref):
            return tuple(mat([[Scalar(*x) for x in row] for row in b]) for b in ref)

        for _ in range(200):
            shapes = [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
            refs = []
            for j in range(rng.randint(2, 5)):
                dependent = j and rng.random() < 0.5
                refs.append(combine([entry() for _ in refs], refs) if dependent else dense(shapes))
            in_span = rng.random() < 0.5
            rtarget = combine([entry() for _ in refs], refs) if in_span else dense(shapes)
            flats = [[x for b in r for x in r_flat(b)] for r in refs]
            tflat = [x for b in rtarget for x in r_flat(b)]
            ranks = [r_rank(flats[:j]) for j in range(len(flats) + 1)]
            del eliminations[:], cleared[:]
            got = span_coords([element(r) for r in refs], element(rtarget))
            assert len(eliminations) == 1
            assert cleared and max(cleared) < sum(n * m for n, m in shapes)
            assert (got is not None) == (r_rank(flats + [tflat]) == ranks[-1])
            if got is None:
                continue
            assert combine(got, refs) == rtarget
            for j, c in enumerate(got):
                if ranks[j + 1] == ranks[j]:  # vs[j] is in the span of earlier ones
                    assert c == ZERO

    def test_span_coords_denominators(self):
        basis = [mat([[HALF, 0], [0, Scalar(0, Fraction(1, 3))]]), mat([[0, Fraction(2, 5)], [1, 0]])]
        target = basis[0].scale(Scalar(Fraction(3, 7), 1)) + basis[1].scale(Fraction(-5, 4))
        assert span_coords(basis, target) == [Scalar(Fraction(3, 7), 1), Scalar(Fraction(-5, 4))]
        assert span_coords(basis, matrix_unit(2, 2, 0, 0)) is None


def span_against_reference(vs, target, positions):
    """span_coords(vs, target), checked against division-based elimination on
    the entries at ``positions``, the (block, row, column) triples outside
    which every vector and the target vanish: it is solvable exactly when the
    target leaves the rank unchanged, its coefficients rebuild the target,
    and a vector in the span of earlier ones gets 0."""
    def flat(v):
        blocks = (v,) if isinstance(v, Matrix) else v
        return [(blocks[b][i, j].re, blocks[b][i, j].im) for b, i, j in positions]

    flats, tflat = [flat(v) for v in vs], flat(target)
    ranks = [r_rank(flats[:j]) for j in range(len(flats) + 1)]
    got = span_coords(vs, target)
    assert (got is not None) == (r_rank(flats + [tflat]) == ranks[-1])
    if got is not None:
        rebuilt = [(Fraction(0), Fraction(0))] * len(positions)
        for c, f in zip(got, flats):
            rebuilt = [r_add_scalar(x, r_mul_scalar((c.re, c.im), y)) for x, y in zip(rebuilt, f)]
        assert rebuilt == tflat
        for j, c in enumerate(got):
            if ranks[j + 1] == ranks[j]:  # vs[j] is in the span of earlier ones
                assert c == ZERO
    return got


def everywhere(rows, cols):
    return [(0, i, j) for i in range(rows) for j in range(cols)]


@pytest.fixture
def eliminations(monkeypatch):
    """The row counts of the _bareiss calls made while a test runs."""
    calls = []
    bareiss = exact._bareiss

    def recording(rows):
        calls.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(exact, "_bareiss", recording)
    return calls


class TestLeadingColumns:
    """span_coords reduces the rows cut down to each vector's first k nonzero
    columns, then checks the relation on the rest: inputs on which that cut
    decides wrongly, each against the dense reference."""

    def test_equal_on_leading_columns(self, eliminations):
        # both vectors are (1, 2) on their first two columns, so the cut sees
        # one vector; the relation target = 2 v0 fails on column 4, and the
        # uncut rows decide
        vs = [mat([[1, 2, 0, 0, 1]]), mat([[1, 2, 0, 0, 2]])]
        target = mat([[2, 4, 0, 0, 3]])
        assert span_against_reference(vs, target, everywhere(1, 5)) == [ONE, ONE]
        assert eliminations == [3, 3]

    def test_relation_on_fewer_vectors_holds(self, eliminations):
        # the cut sees only v0, and target = 2 v0 holds on every column: the
        # uncut answer, unique on the independent vectors, is the same
        vs = [mat([[1, 2, 0, 0, 1]]), mat([[1, 2, 0, 0, 2]])]
        target = mat([[2, 4, 0, 0, 2]])
        assert span_against_reference(vs, target, everywhere(1, 5)) == [Scalar(2), ZERO]
        assert eliminations == [3]

    def test_in_span_on_leading_columns_only(self, eliminations):
        # the target is v0 + v1 on the leading columns 0-2, off the span on 4;
        # v0 and v1 are independent on 0-2, so that relation was the only
        # candidate and the uncut rows are not reduced
        vs = [mat([[1, 2, 0, 0, 1]]), mat([[0, 1, 3, 0, 0]])]
        target = mat([[1, 3, 3, 0, 7]])
        assert span_against_reference(vs, target, everywhere(1, 5)) is None
        assert eliminations == [3]

    def test_off_span_on_leading_columns(self, eliminations):
        # the first target is 0 on the leading columns 0, 1 and 3, where the
        # vectors are independent, so its relation 0 fails and refuses it;
        # the second pivots there
        vs = [mat([[1, 0, 0, 1]]), mat([[1, 1, 0, 1]])]
        assert span_against_reference(vs, mat([[0, 0, 1, 0]]), everywhere(1, 4)) is None
        assert span_against_reference(vs, mat([[0, 0, 0, 1]]), everywhere(1, 4)) is None
        assert eliminations == [3, 3]

    def test_dependent_and_zero_vectors(self):
        a = mat([[1, 0, HALF], [0, I, 0]])
        b = mat([[0, 2, 0], [1, 0, Scalar(1, 1)]])
        z = zeros(2, 3)
        vs = [z, a, a.scale(2), z, b, a + b, b.scale(I)]
        target = a.scale(3) + b.scale(I)
        assert span_against_reference(vs, target, everywhere(2, 3)) == \
            [ZERO, Scalar(3), ZERO, ZERO, I, ZERO, ZERO]
        assert span_against_reference(vs, z, everywhere(2, 3)) == [ZERO] * 7
        assert span_against_reference([z, z], matrix_unit(2, 3, 1, 2), everywhere(2, 3)) is None
        assert span_against_reference([z, a], a.scale(HALF), everywhere(2, 3)) == [ZERO, HALF]

    def test_sparse_words(self, eliminations):
        # words of 2^41 columns: the first two vectors share their first two
        # columns, and the masks run to the top bit
        cols, top = 1 << 41, (1 << 41) - 1

        def word(entries):
            out = zeros(1, cols)
            for mask, c in entries.items():
                out = out + matrix_unit(1, cols, 0, mask).scale(c)
            return out

        w0 = word({3: 1, 5: I, 1 << 40: 2})
        w1 = word({3: 1, 5: I, 1 << 40: 1, top: -1})
        w2 = word({6: HALF, top: Scalar(1, -1)})
        positions = [(0, 0, m) for m in (3, 5, 6, 1 << 40, top, 7)]
        vs = [w0, w1, w0.scale(3), w2]
        target = w0.scale(Scalar(2, 1)) + w1.scale(Fraction(-1, 3)) + w2
        assert span_against_reference(vs, target, positions) == \
            [Scalar(2, 1), Scalar(Fraction(-1, 3)), ZERO, ONE]
        assert span_against_reference(vs, target + word({7: 1}), positions) is None
        assert span_against_reference(vs, w0 + word({top: 1}), positions) is None
        assert span_against_reference([w0, w1], w0 + w1.scale(I), positions) == [ONE, I]
        assert span_against_reference([w0, w2], w0.scale(I), positions) == [I, ZERO]
        # the uncut rows are reduced for the target off the span on column 7
        # and for w0 and w1, which are equal on their two leading columns
        assert eliminations == [5, 5, 5, 5, 3, 3, 3]


class TestNormalization:
    """Equal matrices reached by different routes store, compare and hash equal."""

    def assert_same(self, a: Matrix, b: Matrix) -> None:
        assert a == b
        assert hash(a) == hash(b)
        assert (a.num, a.den) == (b.num, b.den)

    @given(any_matrices())
    def test_scale_and_back(self, m):
        self.assert_same(m.scale(2).scale(HALF), m)

    @given(any_matrices(), scalars)
    def test_scale_by_inverse(self, m, s):
        if not s.is_zero():
            self.assert_same(m.scale(s).scale(ONE / s), m)

    @given(any_matrices())
    def test_add_then_subtract(self, m):
        self.assert_same((m + m) - m, m)
        self.assert_same(m - m, zeros(*m.shape))

    def test_literal_against_units(self):
        units = (matrix_unit(2, 3, 0, 0).scale(HALF) + matrix_unit(2, 3, 1, 2).scale(I)
                 + matrix_unit(2, 3, 0, 1).scale(Fraction(-2, 3)))
        self.assert_same(mat([[HALF, Fraction(-2, 3), 0], [0, 0, I]]), units)

    def test_zero_has_one_form(self):
        self.assert_same(mat([[0, 0]]).scale(HALF), zeros(1, 2))
        self.assert_same(identity(2).scale(0), zeros(2, 2))

    def test_fixed_rendering(self):
        m = mat([[HALF, Scalar(0, Fraction(-2, 3)), 0],
                 [Scalar(Fraction(3, 4), 5), 0, Scalar(-2, Fraction(1, 6))]])
        assert repr(m) == "Matrix[1/2, 0-2/3*i, 0; 3/4+5*i, 0, -2+1/6*i]"
        assert matrix_to_strings(m) == [["1/2", "0-2/3*i", "0"], ["3/4+5*i", "0", "-2+1/6*i"]]
        assert m[1, 0] == Scalar(Fraction(3, 4), 5)
        assert isinstance(m[1, 0].re, Fraction) and isinstance(m[1, 0].im, Fraction)
        assert m[0, 2] == ZERO
        assert repr(m[1, 2]) == "Scalar(-2+1/6*i)"
        with pytest.raises(IndexError):
            m[2, 0]


def test_sparse_format_is_read_only_in_exact():
    """No kgrid module but kgrid.exact reads Matrix.num or .den or imports a
    private name from kgrid.exact, so the sparse format can change in one place."""
    offenders = []
    for path in sorted(Path(kgrid.__file__).parent.glob("*.py")):
        if path.name == "exact.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("num", "den"):
                offenders.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module in ("exact", "kgrid.exact"):
                offenders += [f"{path.name}:{node.lineno} imports {a.name}"
                              for a in node.names if a.name.startswith("_")]
    assert offenders == []
