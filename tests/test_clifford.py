"""Spin factors as Clifford words: the words against the matrices of the
standard spin system, and the word grids against the matrix reference grids."""

import contextlib
import dataclasses
import io
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgrid.cartan import (CartanDescriptor, CoordinateError, SpinSystem, coords_of, embed,
                          embedded_basis, enveloping_tro, intrinsic_jordan)
from kgrid.cli import run
from kgrid.exact import (HALF, I, Scalar, ShapeError, identity, mat, matrix_unit,
                         word_adjoint, word_jordan, word_mul)
from kgrid.grids import grid_for, grid_gamma, verify_grid
from kgrid.invariant import gamma_report
from kgrid.ktheory import ProjectionError, k0_class_of_projection, top_scalar
from kgrid.tro import (CliffordElement, SpaceMismatch, TroElement, TroSpace, apply_hom,
                       element_span_dim, jordan_triple, lift_hom, ternary_product)

from .spin import reference_grid, standard_spin_system, times, to_matrix, word_matrices
from .strategies import scalars


def CD(kind, *params):
    return CartanDescriptor(kind, tuple(params))


class TestCliffordFact:
    @pytest.mark.parametrize("dim", range(4, 11))
    def test_ordered_products_fill_the_enveloping_tro(self, dim):
        # the 2^(d-1) ordered products of the symmetries are independent and
        # span the enveloping TRO, so words are coordinates on it
        d = CD("IV", dim)
        words = word_matrices(standard_spin_system(d))
        size = sum(n * m for n, m in enveloping_tro(d).summands)
        assert len(words) == 2 ** (dim - 1) == size
        assert element_span_dim(words) == size

    @pytest.mark.parametrize("dim", range(4, 17, 2))
    def test_top_word_scalar(self, dim):
        # gamma_1 ... gamma_(d-1) acts as i^(d/2 - 1) on block 0, its negative on block 1
        system = standard_spin_system(CD("IV", dim))
        top = system.identity
        for s in system.symmetries:
            top = times(top, s)
        closed = Scalar(1)
        for _ in range(dim // 2 - 1):
            closed = closed * I
        assert top_scalar(dim - 1) == closed
        side = identity(2 ** (dim // 2 - 1))
        assert top.blocks == (side.scale(closed), side.scale(-closed))


def _random_word(rng: random.Random, n: int) -> CliffordElement:
    space = enveloping_tro(CD("IV", n + 1))
    word = matrix_unit(1, 2 ** n, 0, 0).scale(0)
    for _ in range(rng.randint(1, 4)):
        c = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2))
        word = word + matrix_unit(1, 2 ** n, 0, rng.randrange(2 ** n)).scale(c)
    return CliffordElement(space, (word,))


def words(n: int):
    """Elements of the Clifford algebra on n generators: words of 0-4 terms
    with coefficients over denominators up to 3."""
    space = enveloping_tro(CD("IV", n + 1))
    terms = st.lists(st.tuples(st.integers(0, 2 ** n - 1), scalars), max_size=4)

    def word(ts):
        out = matrix_unit(1, 2 ** n, 0, 0).scale(0)
        for mask, c in ts:
            out = out + matrix_unit(1, 2 ** n, 0, mask).scale(c)
        return CliffordElement(space, (out,))

    return terms.map(word)


class TestWordKernels:
    @given(st.integers(3, 6).flatmap(lambda n: st.tuples(words(n), words(n), words(n))))
    def test_jordan_against_two_products(self, abc):
        a, b, c = abc
        for x, y, z in ((a, b, c), (a, b, a), (b, b, b)):
            assert jordan_triple(x, y, z) == \
                (ternary_product(x, y, z) + ternary_product(z, y, x)).scale(HALF)

    @pytest.mark.parametrize("dim", range(4, 10))
    def test_words_map_to_matrices(self, dim):
        # gamma_A -> the ordered product of the symmetries of A turns the word
        # product into the matrix product and the word adjoint into dagger
        words = word_matrices(standard_spin_system(CD("IV", dim)))
        rng = random.Random(dim)
        for _ in range(25):
            a, b = _random_word(rng, dim - 1), _random_word(rng, dim - 1)
            ma, mb = to_matrix(words, a), to_matrix(words, b)
            ab = CliffordElement(a.space, (word_mul(a.word, b.word),))
            assert to_matrix(words, ab) == times(ma, mb)
            star = CliffordElement(a.space, (word_adjoint(a.word),))
            assert to_matrix(words, star) == TroElement(ma.space, ma.adjoint_blocks())

    def test_basis_products(self):
        g1, g2, g3 = (matrix_unit(1, 8, 0, 1 << k) for k in range(3))
        assert word_mul(g1, g1) == matrix_unit(1, 8, 0, 0)
        assert word_mul(g2, g1) == -word_mul(g1, g2) == -matrix_unit(1, 8, 0, 0b011)
        assert word_mul(word_mul(g3, g2), g1) == -matrix_unit(1, 8, 0, 0b111)
        assert word_adjoint(matrix_unit(1, 8, 0, 0b011).scale(I)) == \
            matrix_unit(1, 8, 0, 0b011).scale(I)

    def test_shapes_checked(self):
        with pytest.raises(ShapeError):
            word_mul(matrix_unit(1, 8, 0, 0), matrix_unit(1, 4, 0, 0))
        with pytest.raises(ShapeError):
            word_adjoint(matrix_unit(1, 6, 0, 0))
        w8, w4 = matrix_unit(1, 8, 0, 1), matrix_unit(1, 4, 0, 1)
        for args in ((w8, w8, w4), (w8, w4, w8), (w4, w8, w8)):
            with pytest.raises(ShapeError):
                word_jordan(*args)
        with pytest.raises(ShapeError):
            CliffordElement(enveloping_tro(CD("IV", 5)), (matrix_unit(1, 8, 0, 0),))

    def test_words_and_matrices_do_not_mix(self):
        # IV(d) has one TroSpace for its words and for its matrices
        d = CD("IV", 6)
        w, m = embedded_basis(d)[1], standard_spin_system(d).symmetries[0]
        assert w.space == m.space
        for a, b in ((w, m), (m, w)):
            for op in (lambda: a + b, lambda: a - b, lambda: ternary_product(a, b, a),
                       lambda: ternary_product(a, a, b)):
                with pytest.raises(SpaceMismatch, match="element types differ"):
                    op()

    @pytest.mark.parametrize("dim", [5, 6])
    def test_apply_hom_rejects_words(self, dim):
        # apply_hom places matrix blocks; a 1 x 2^N word is not one
        d = CD("IV", dim)
        w, m = embedded_basis(d)[1], standard_spin_system(d).symmetries[0]
        k, side = len(w.space), w.space.summands[0][0]
        target = TroSpace(((4 * side, 16 * side),) * k)
        h = lift_hom([[4 * (i == j) for j in range(k)] for i in range(k)], w.space, target)
        assert apply_hom(h, m).space == target
        with pytest.raises(SpaceMismatch, match="places matrix blocks, not a CliffordElement"):
            apply_hom(h, w)

    def test_coordinates_are_read_from_words_only(self):
        d = CD("IV", 6)
        assert coords_of(d, embedded_basis(d)[2]) == matrix_unit(1, 6, 0, 2)
        with pytest.raises(CoordinateError, match="holds CliffordElements, not TroElements"):
            coords_of(d, standard_spin_system(d).symmetries[1])


class TestWordSystem:
    def test_generators_checked_at_construction(self):
        # the word system of a grid is a SpinSystem: its relations are checked
        # with word products, and failures raise SpinSystem's messages
        system = grid_for(CD("IV", 6)).basis
        one, g1, g2 = system[0], system[1], system[2]
        assert SpinSystem(one, system[1:]).symmetries == system[1:]
        with pytest.raises(ValueError, match=r"symmetry 1, block 0 is not self-adjoint"):
            SpinSystem(one, (g1, g2.scale(I)))
        with pytest.raises(ValueError, match=r"anticommutator relation fails for \(0,0\)"):
            SpinSystem(one, (g1.scale(2),))
        with pytest.raises(ValueError, match=r"anticommutator relation fails for \(0,1\)"):
            SpinSystem(one, (g1, g1))
        # i g1 g3 is a self-adjoint involution anticommuting with g1, not with g2
        with pytest.raises(ValueError, match=r"anticommutator relation fails for \(1,2\)"):
            SpinSystem(one, (g1, g2, ternary_product(g1, system[3], one).scale(I)))


class TestMatrixOracle:
    """The matrix reference grid, built by the same formula on the standard
    spin system, verifies and ranks as the word grid does."""

    @pytest.mark.parametrize("dim", range(4, 15))
    def test_reports_equal(self, dim):
        d = CD("IV", dim)
        assert verify_grid(reference_grid(d)).to_dict() == verify_grid(grid_for(d)).to_dict()

    def test_gamma_equal(self):
        for dim in range(4, 19):
            d = CD("IV", dim)
            assert grid_gamma(reference_grid(d)) == grid_gamma(grid_for(d)), dim

    def test_rotated_spin_element_fails_identity(self):
        # i u2 is still a minimal tripotent, but {i u2, ut3, ut2} = -i u3/2
        reports = []
        for g in (grid_for(CD("IV", 7)), reference_grid(CD("IV", 7))):
            elements = list(g.elements)
            k = g.labels.index("u2")
            elements[k] = elements[k].scale(I)
            reports.append(verify_grid(dataclasses.replace(g, elements=tuple(elements))))
        report = reports[0]
        assert report == reports[1]
        by_label = {c.label: c for c in report.element_checks}
        assert by_label["u2"].tripotent is True
        assert dict(report.identity_checks)["{u2,ut3,ut2} = -u3/2"] is False
        assert "{u2,ut3,ut2} = -u3/2" in report.failures()
        assert report.ok is False

    @pytest.mark.parametrize("dim", [6, 7])
    def test_scaled_element_same_report_and_projection_error(self, dim):
        outcomes = []
        for g in (grid_for(CD("IV", dim)), reference_grid(CD("IV", dim))):
            elements = list(g.elements)
            k = g.labels.index("u2")
            elements[k] = elements[k].scale(2)
            doctored = dataclasses.replace(g, elements=tuple(elements))
            with pytest.raises(ProjectionError) as info:
                grid_gamma(doctored)
            outcomes.append((verify_grid(doctored).to_dict(), info.value.block,
                             str(info.value)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0]["failures"][0] == "u2: not tripotent"

    @pytest.mark.parametrize("dim", [6, 7])
    def test_projection_errors_name_the_block(self, dim):
        # the identity doctored as a whole, or, with two blocks, in block 1
        # only through the central projection z1 = (1 - top/lambda)/2
        found = []
        for g in (grid_for(CD("IV", dim)), reference_grid(CD("IV", dim))):
            one, syms = g.basis[0], g.basis[1:]
            top = one
            for s in syms:
                top = ternary_product(top, s, one)  # top s* = top s
            cases = [one.scale(2), one.scale(I), one - syms[0].scale(I)]
            if dim % 2 == 0:
                z1 = (one - top.scale(Scalar(1) / top_scalar(dim - 1))).scale(Fraction(1, 2))
                cases += [one + z1, one + z1.scale(I)]
                assert k0_class_of_projection(z1) == (0, 2 ** (dim // 2 - 1))
            outcome = []
            for x in cases:
                with pytest.raises(ProjectionError) as info:
                    k0_class_of_projection(x)
                outcome.append((info.value.block, str(info.value)))
            found.append(outcome)
        assert found[0] == found[1]
        assert [b for b, _ in found[0]] == [0, 0, 0] + [1, 1] * (dim % 2 == 0)


class TestLargeSpinFactors:
    def test_verify_in_process(self):
        def verify(dim):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(["verify", f"IV({dim})"])
            return code, out.getvalue().splitlines()

        start = time.perf_counter()
        results = {dim: verify(dim) for dim in (40, 41, 64)}
        elapsed = time.perf_counter() - start
        for dim, (code, lines) in results.items():
            g = gamma_report(CD("IV", dim))
            agree = "agrees with" if g["matches_published"] else "DIFFERS from"
            assert code == 0
            assert lines == [f"IV({dim}): ok ({dim} grid elements, span {dim}/{dim})",
                             f"  gamma {g['computed']} {agree} tabulated {g['published']}"]
        assert elapsed < 2.0, elapsed
        tracemalloc.start()
        try:
            verify(64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20, peak

    def test_coordinates_in_process(self):
        # embed, coords_of and intrinsic_jordan on IV(64) run on words with
        # 64 generators, not on 2^31-square matrices
        d = CD("IV", 64)
        rng = random.Random(64)

        def coords(support):
            return mat([[Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                rng.randint(-2, 2)) if j in support else 0
                         for j in range(64)]])

        x, y, z = (coords(range(64)) for _ in range(3))
        start = time.perf_counter()
        assert coords_of(d, embed(d, x)) == x
        assert intrinsic_jordan(d, x, y, z).shape == (1, 64)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, elapsed
        # tracemalloc slows the word products about tenfold, so the traced
        # product takes coordinates on 8 of the 64 directions, the identity
        # and both ends among them: its words still have 2^63 columns
        support = {0, 1, 2, 20, 40, 61, 62, 63}
        xs, ys, zs = (coords(support) for _ in range(3))
        tracemalloc.start()
        try:
            assert coords_of(d, embed(d, x)) == x
            assert intrinsic_jordan(d, xs, ys, zs).shape == (1, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20, peak

    def test_word_repr_is_short(self):
        # a word has 2^63 columns here: repr shows its one stored entry
        start = time.perf_counter()
        text = repr(embedded_basis(CD("IV", 64))[1])
        assert time.perf_counter() - start < 0.1
        assert "Matrix[1x9223372036854775808: (0,1): 1]" in text
        assert len(text) < 200
