import dataclasses
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import kgrid.tro
from kgrid.cartan import (
    CartanDescriptor,
    ExceptionalFactorError,
    SpinSystem,
    b_matrix,
    canonicalize_factor,
    embedded_basis,
    intrinsic_dim,
)
from kgrid.catalog import catalog_descriptors
from kgrid.exact import (
    HALF,
    I,
    ZERO,
    Matrix,
    Scalar,
    block_diagonal,
    compressed_in_line,
    identity,
    kron,
    mat,
    mat_mul,
    matrix_unit,
    rank,
    span_dim,
    unit_monomial_ranks,
    zeros,
)
from kgrid.grids import (
    Grid,
    grid_for,
    grid_gamma,
    verify_grid,
)
from kgrid.ktheory import k0_class_of_projection
from kgrid.tro import (
    TroElement,
    element_span_dim,
    is_tripotent,
    jordan_triple,
    parse_space,
    range_projection,
    ternary_product,
)

from .spin import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    reference_grid,
    standard_spin_system,
    to_matrix,
    word_matrices,
)
from .strategies import elements_of, scalars, small_fractions, spaces


def CD(kind, *params):
    return CartanDescriptor(kind, tuple(params))


class TestRectangularGrids:
    def test_two_by_two(self):
        g = grid_for(CD("I", 2, 2))
        assert len(g.elements) == 4
        assert g.elements[0].blocks == (matrix_unit(2, 2, 0, 0),
                                        matrix_unit(2, 2, 0, 0))

    def test_rank_one_pair(self):
        g = grid_for(CD("I", 1, 2))
        assert len(g.elements) == 2
        assert element_span_dim(list(g.elements)) == 2

    def test_all_tripotent(self):
        g = grid_for(CD("I", 3, 2))
        assert all(is_tripotent(e) for e in g.elements)


class TestHermitianGrids:
    def test_three_elements_for_n2(self):
        g = grid_for(CD("III", 2))
        e12 = matrix_unit(2, 2, 0, 1) + matrix_unit(2, 2, 1, 0)
        blocks = [el.blocks[0] for el in g.elements]
        assert blocks == [matrix_unit(2, 2, 0, 0), e12, matrix_unit(2, 2, 1, 1)]

    def test_offdiagonal_class_rank_two(self):
        g = grid_for(CD("III", 3))
        for label, el in zip(g.labels, g.elements):
            p = range_projection(el).blocks[0]
            i, j = label[2:-1].split(",")
            expected = 1 if i == j else 2
            assert rank(p) == expected

    def test_diagonal_projections(self):
        g = grid_for(CD("III", 3))
        e11 = g.by_label("g[1,1]")
        assert range_projection(e11).blocks[0] == matrix_unit(3, 3, 0, 0)


class TestSymplecticGrids:
    def test_count(self):
        assert len(grid_for(CD("II", 5)).elements) == 10

    def test_all_rank_two(self):
        g = grid_for(CD("II", 5))
        for el in g.elements:
            assert rank(range_projection(el).blocks[0]) == 2

    def test_span(self):
        g = grid_for(CD("II", 5))
        assert element_span_dim(list(g.elements)) == 10


class TestSpinSystems:
    def test_odd_listing_dim5(self):
        system = standard_spin_system(CD("IV", 5))
        assert len(system) == 4
        id2 = identity(2)
        assert system.symmetries[0].blocks[0] == kron(SIGMA1, id2)
        assert system.symmetries[1].blocks[0] == kron(SIGMA2, id2)
        assert system.symmetries[2].blocks[0] == kron(SIGMA3, SIGMA1)
        assert system.symmetries[3].blocks[0] == kron(SIGMA3, SIGMA2)

    def test_even_listing_dim6(self):
        system = standard_spin_system(CD("IV", 6))
        assert len(system) == 5
        last = system.symmetries[-1]
        s33 = kron(SIGMA3, SIGMA3)
        assert last.blocks == (s33, -s33)
        for s in system.symmetries[:-1]:
            assert s.blocks[0] == s.blocks[1]

    @pytest.mark.parametrize("dim", range(4, 10))
    def test_anticommutation(self, dim):
        system = standard_spin_system(CD("IV", dim))
        assert len(system) == dim - 1
        for i, si in enumerate(system.symmetries):
            for j, sj in enumerate(system.symmetries):
                anti = jordan_triple(si, sj, system.identity)
                # {s_i, s_j, id} = (s_i s_j + s_j s_i)/2 since all self-adjoint
                if i == j:
                    assert anti == system.identity
                else:
                    assert anti.is_zero()

    def test_invalid_system_rejected(self):
        sp = parse_space("M(2,2)")
        ident = TroElement(sp, (identity(2),))
        s = TroElement(sp, (SIGMA1,))
        with pytest.raises(ValueError):
            SpinSystem(ident, (s, s))  # same symmetry twice cannot anticommute

    def test_broken_relation_raises_at_construction(self):
        # verify_grid reports spin_system_ok from this one construction-time check
        sp = parse_space("M(2,2)")
        ident = TroElement(sp, (identity(2),))
        not_involution = TroElement(sp, (SIGMA3.scale(2),))
        with pytest.raises(ValueError, match=r"anticommutator relation fails for \(0,0\)"):
            SpinSystem(ident, (not_involution,))
        commuting = (TroElement(sp, (SIGMA3,)), TroElement(sp, (SIGMA3.scale(-1),)))
        with pytest.raises(ValueError, match=r"anticommutator relation fails for \(0,1\)"):
            SpinSystem(ident, commuting)

    def test_non_selfadjoint_rejected(self):
        sp = parse_space("M(2,2)")
        ident = TroElement(sp, (identity(2),))
        bad = TroElement(sp, (matrix_unit(2, 2, 0, 1),))
        with pytest.raises(ValueError):
            SpinSystem(ident, (bad,))


class TestSpinGrids:
    # each check runs on the word grid and on the matrix reference grid
    PATHS = (grid_for, reference_grid)

    def test_dim5_layout(self):
        for path in self.PATHS:
            g = path(CD("IV", 5))
            assert g.labels == ("u1", "ut1", "u2", "ut2", "u0")
            assert element_span_dim(list(g.elements)) == 5

    def test_dim6_has_no_u0(self):
        for path in self.PATHS:
            g = path(CD("IV", 6))
            assert g.labels == ("u1", "ut1", "u2", "ut2", "u3", "ut3")
            assert element_span_dim(list(g.elements)) == 6

    def test_grid_identities_dim5(self):
        for path in self.PATHS:
            g = path(CD("IV", 5))
            u = dict(zip(g.labels, g.elements))
            assert jordan_triple(u["u2"], u["ut1"], u["ut2"]) == u["u1"].scale(-HALF)
            assert jordan_triple(u["u1"], u["ut2"], u["ut1"]) == u["u2"].scale(-HALF)

    def test_pair_identity_dim7(self):
        for path in self.PATHS:
            g = path(CD("IV", 7))
            u = dict(zip(g.labels, g.elements))
            assert jordan_triple(u["u2"], u["ut3"], u["ut2"]) == u["u3"].scale(-HALF)
            assert jordan_triple(u["u3"], u["ut2"], u["ut3"]) == u["u2"].scale(-HALF)

    def test_span_matches_system(self):
        for dim in (4, 5, 6, 7):
            system = standard_spin_system(CD("IV", dim))
            for path in self.PATHS:
                g = path(CD("IV", dim))
                span_system = element_span_dim([system.identity, *system.symmetries])
                assert element_span_dim(list(g.elements)) == span_system == dim
        # the word grid is the matrix grid read through gamma_A -> its matrices
        for dim in (4, 5, 6, 7):
            d = CD("IV", dim)
            words = word_matrices(standard_spin_system(d))
            assert [to_matrix(words, e) for e in grid_for(d).elements] == \
                list(reference_grid(d).elements)

    @pytest.mark.parametrize("dim", range(4, 10))
    def test_verdicts_match_full_products(self, dim):
        # every spin element takes the product path: one span per element
        for path in self.PATHS:
            g = path(CD("IV", dim))
            assert [c.minimal for c in verify_grid(g).element_checks] == \
                full_product_verdicts(g)


class TestVerifyGrid:
    @pytest.mark.parametrize(
        "d",
        [CD("I", 2, 2), CD("I", 1, 3), CD("II", 5), CD("III", 3), CD("IV", 4),
         CD("IV", 5), CD("IV", 6)],
    )
    def test_catalog_grids_pass(self, d):
        report = verify_grid(grid_for(d))
        assert report.ok, report.failures()
        assert report.span_found == report.span_expected == intrinsic_dim(d)
        assert all(c.tripotent for c in report.element_checks)

    def test_hermitian_minimality_split(self):
        # diagonal elements are minimal; off-diagonals are rank-2 tripotents
        report = verify_grid(grid_for(CD("III", 3)))
        for c in report.element_checks:
            i, j = c.label[2:-1].split(",")
            assert c.minimal is (i == j)
            assert c.expect_minimal is (i == j)
        assert report.ok

    def test_spin_u0_not_minimal(self):
        report = verify_grid(grid_for(CD("IV", 5)))
        by_label = {c.label: c for c in report.element_checks}
        assert by_label["u0"].minimal is False
        assert by_label["u0"].expect_minimal is False
        assert report.ok  # u0 is exempt from the minimality requirement
        assert all(c.minimal for c in report.element_checks if c.label != "u0")

    def test_span_failure_reported(self):
        # g[1,2] replaced by a copy of g[1,1]: every element still passes
        g = grid_for(CD("I", 3, 3))
        elements = list(g.elements)
        elements[g.labels.index("g[1,2]")] = g.by_label("g[1,1]")
        report = verify_grid(dataclasses.replace(g, elements=tuple(elements)))
        assert report.failures() == ["span is 8, expected 9"]

    def test_extra_element_rejected(self):
        # a grid used to verify ok past its labels, leaving extra elements unchecked
        g = grid_for(CD("III", 3))
        with pytest.raises(ValueError, match="7 grid elements but 6 labels"):
            dataclasses.replace(g, elements=g.elements + (g.elements[0].scale(2),))
        with pytest.raises(ValueError, match="5 grid elements but 6 labels"):
            dataclasses.replace(g, elements=g.elements[:-1])

    def test_repeated_label_rejected(self):
        g = grid_for(CD("III", 2))
        with pytest.raises(ValueError, match="grid labels repeat"):
            dataclasses.replace(g, labels=("g[1,1]", "g[1,2]", "g[1,1]"))

    def test_unknown_rank_two_label_rejected(self):
        g = grid_for(CD("IV", 5))
        with pytest.raises(ValueError, match=r"rank-two labels \['u9'\] name no grid element"):
            dataclasses.replace(g, rank_two=frozenset({"u0", "u9"}))

    def test_scaled_element_reported(self):
        g = grid_for(CD("III", 2))
        doctored = dataclasses.replace(
            g, elements=(g.elements[0].scale(2),) + g.elements[1:]
        )
        report = verify_grid(doctored)
        assert not report.ok
        assert any("not tripotent" in f for f in report.failures())

    def test_rank_two_element_not_minimal(self):
        # (E11+E22, E11+E22) is a tripotent, but {e,Z,e} = Z* is not in C e
        g = grid_for(CD("I", 2, 2))
        blk = matrix_unit(2, 2, 0, 0) + matrix_unit(2, 2, 1, 1)
        elements = list(g.elements)
        elements[g.labels.index("g[1,1]")] = TroElement(g.ambient, (blk, blk))
        report = verify_grid(dataclasses.replace(g, elements=tuple(elements)))
        by_label = {c.label: c for c in report.element_checks}
        assert by_label["g[1,1]"].tripotent is True
        assert by_label["g[1,1]"].minimal is False
        assert report.ok is False
        assert report.failures() == ["g[1,1]: not minimal"]

    def test_rotated_spin_element_fails_identity(self):
        # i u2 is still a minimal tripotent, but {i u2, ut3, ut2} = -i u3/2
        g = grid_for(CD("IV", 7))
        elements = list(g.elements)
        k = g.labels.index("u2")
        elements[k] = elements[k].scale(I)
        report = verify_grid(dataclasses.replace(g, elements=tuple(elements)))
        by_label = {c.label: c for c in report.element_checks}
        assert by_label["u2"].tripotent is True
        assert dict(report.identity_checks)["{u2,ut3,ut2} = -u3/2"] is False
        assert "{u2,ut3,ut2} = -u3/2" in report.failures()
        assert report.ok is False

    def test_factors_beyond_the_catalog(self):
        # I(1,9) alone took 192 s before the sparse kernel
        start = time.perf_counter()
        for d in (CD("I", 1, 8), CD("I", 1, 9), CD("IV", 10), CD("IV", 11),
                  CD("II", 8), CD("III", 10), CD("I", 6, 6)):
            report = verify_grid(grid_for(d))
            assert report.ok, (d, report.failures())
            assert report.span_found == intrinsic_dim(d)
        assert time.perf_counter() - start < 5.0

    def test_spin_identity_checks_present(self):
        report = verify_grid(grid_for(CD("IV", 6)))
        assert report.identity_checks
        assert all(ok for _, ok in report.identity_checks)
        assert report.system_ok is True

    def test_report_dict_shape(self):
        report = verify_grid(grid_for(CD("III", 2)))
        data = report.to_dict()
        assert data["ok"] is True
        assert {"label", "tripotent", "minimal", "expect_minimal"} <= set(
            data["elements"][0]
        )
        assert data["span"] == {"found": 3, "expected": 3, "ok": True}


def _entries(m: Matrix) -> list:
    return [m[divmod(k, m.cols)] for k in range(m.rows * m.cols)]


def reference_in_complex_line(e: TroElement, w: TroElement) -> bool:
    """The line test by Scalar division: w is compared with e scaled by the
    quotient of their entries at e's first nonzero entry, row-major."""
    for b, blk in enumerate(e.blocks):
        for k, v in enumerate(_entries(blk)):
            if not v.is_zero():
                return w == e.scale(_entries(w.blocks[b])[k] / v)
    return w.is_zero()


def _with_entry(x: TroElement, b: int, k: int, value: Scalar) -> TroElement:
    """x with the row-major entry k of block b set to value."""
    blocks = list(x.blocks)
    entries = _entries(blocks[b])
    entries[k] = value
    blocks[b] = Matrix(blocks[b].rows, blocks[b].cols, tuple(entries))
    return TroElement(x.space, tuple(blocks))


def _zero_first_block(x: TroElement, zero: bool) -> TroElement:
    if not zero:
        return x
    return TroElement(x.space, (zeros(*x.space.summands[0]),) + x.blocks[1:])


# 1-3 blocks, entries with denominators up to 3 and zero half the time, and
# the first block zero in half the draws
_line_elements = st.tuples(
    spaces.flatmap(lambda sp: elements_of(sp, st.one_of(st.just(ZERO), scalars))),
    st.booleans()).map(lambda t: _zero_first_block(*t))

_MULTIPLIERS = {
    "real": small_fractions.map(Scalar),
    "imaginary": small_fractions.map(lambda f: Scalar(0, f)),
    "complex": scalars,
    "zero": st.just(ZERO),
}


def _span_in_line(e: TroElement, w: TroElement) -> bool:
    """The span criterion of the minimality check: w lies in Ce exactly
    when adding it to e leaves the span's dimension unchanged."""
    return span_dim([e.blocks, w.blocks]) == span_dim([e.blocks])


class TestLineTest:
    """The span criterion of the minimality check's product path against the
    reference line test."""

    @pytest.mark.parametrize("kind", sorted(_MULTIPLIERS))
    @given(data=st.data())
    def test_multiples(self, kind, data):
        e = data.draw(_line_elements)
        w = e.scale(data.draw(_MULTIPLIERS[kind]))
        assert _span_in_line(e, w) is True
        assert reference_in_complex_line(e, w) is True

    @pytest.mark.parametrize("change", ["perturbed", "added", "dropped"])
    @given(data=st.data())
    def test_changed_multiples(self, change, data):
        e = data.draw(_line_elements)
        w = e.scale(data.draw(scalars))
        # perturb any entry; add one where w is zero; drop one where it is not
        where = [(b, k) for b, blk in enumerate(w.blocks)
                 for k, v in enumerate(_entries(blk))
                 if change == "perturbed" or v.is_zero() == (change == "added")]
        assume(where)
        b, k = data.draw(st.sampled_from(where))
        if change == "dropped":
            value = ZERO
        else:
            delta = data.draw(scalars.filter(lambda s: not s.is_zero()))
            value = _entries(w.blocks[b])[k] + delta
        w = _with_entry(w, b, k, value)
        assert _span_in_line(e, w) == reference_in_complex_line(e, w)

    @given(_line_elements)
    def test_zero(self, e):
        w = e.scale(ZERO)
        assert _span_in_line(e, w) is True
        assert reference_in_complex_line(e, w) is True
        assert _span_in_line(w, e) is e.is_zero()
        assert reference_in_complex_line(w, e) is e.is_zero()


def full_product_verdicts(g: Grid) -> list:
    """Minimality of each element of g by the products e b* e themselves,
    each tested by the reference line test."""
    return [all(reference_in_complex_line(e, ternary_product(e, b, e))
                for b in g.basis) for e in g.elements]


# every canonical I, II and III factor up to I(6,6), I(1,9), II(8) and III(8)
_COMPRESSED = ([CD("I", n, m) for n in range(1, 7) for m in range(n, 7)]
               + [CD("I", 1, m) for m in (7, 8, 9)]
               + [CD("II", n) for n in range(5, 9)]
               + [CD("III", n) for n in range(2, 9)])


def _count_mat_mul(monkeypatch) -> list:
    # block_mul looks kgrid.tro.mat_mul up by name, so every block product counts
    calls = []
    real = kgrid.tro.mat_mul

    def counted(a, b):
        calls.append(1)
        return real(a, b)
    monkeypatch.setattr(kgrid.tro, "mat_mul", counted)
    return calls


class TestCompression:
    """Minimality of a monomial tripotent by compression (exact.compressed_in_line
    inside verify_grid), against the verdict of the full products e b* e."""

    @pytest.mark.parametrize("d", _COMPRESSED, ids=str)
    def test_verdicts_match_full_products(self, d):
        g = grid_for(d)
        assert canonicalize_factor(d) == d
        report = verify_grid(g)
        assert [c.minimal for c in report.element_checks] == full_product_verdicts(g)
        # every element takes the compression path: it is unit-monomial
        assert all(unit_monomial_ranks(e.blocks) is not None for e in g.elements)
        # and its class is read from its entries: the same as the products'
        assert grid_gamma(g) == frozenset(k0_class_of_projection(range_projection(e))
                                          for e in g.elements)

    @pytest.mark.parametrize("d", [CD("I", 6, 6), CD("II", 8), CD("III", 8),
                                   CD("I", 1, 9)], ids=str)
    def test_only_tripotency_multiplies(self, d, monkeypatch):
        g = grid_for(d)
        calls = _count_mat_mul(monkeypatch)
        assert verify_grid(g).ok
        assert grid_gamma(g)
        # every element is unit-monomial: tripotency and the classes are
        # read from its entries, and minimality by compression makes none
        assert len(calls) == 0

    @staticmethod
    def _doctored(d, label, blocks):
        g = grid_for(d)
        elements = list(g.elements)
        elements[g.labels.index(label)] = TroElement(g.ambient, blocks)
        return dataclasses.replace(g, elements=tuple(elements))

    def test_monomial_tripotent_not_minimal(self):
        # E11 + E22 in I(3,3): monomial and tripotent, so compression decides it
        blk = _unit(3, 3, 1, 1) + _unit(3, 3, 2, 2)
        g = self._doctored(CD("I", 3, 3), "g[1,1]", (blk, blk))
        e = g.by_label("g[1,1]")
        assert compressed_in_line(e.blocks, [b.blocks for b in g.basis]) is False
        checks = {c.label: c for c in verify_grid(g).element_checks}
        assert (checks["g[1,1]"].tripotent, checks["g[1,1]"].minimal) == (True, False)
        assert [c.minimal for c in verify_grid(g).element_checks] == \
            full_product_verdicts(g)

    @pytest.mark.parametrize("first,second", [(1, 2), (2, 1)])
    def test_entry_ratio_differs(self, first, second):
        # b = first E11 + second E22 has the support of e = E11 + E22 in both
        # blocks of I(3,3), so only the ratio of its entries keeps it off Ce
        e = _unit(3, 3, 1, 1) + _unit(3, 3, 2, 2)
        b = _unit(3, 3, 1, 1).scale(first) + _unit(3, 3, 2, 2).scale(second)
        assert compressed_in_line((e, e), [(b, b)]) is False
        # b lies in e's rows and columns: it is its own cut-down
        space = grid_for(CD("I", 3, 3)).ambient
        assert reference_in_complex_line(TroElement(space, (e, e)),
                                         TroElement(space, (b, b))) is False

    def test_entry_ratio_decides_minimality(self):
        e = _unit(3, 3, 1, 1) + _unit(3, 3, 2, 2)
        b = _unit(3, 3, 1, 1) + _unit(3, 3, 2, 2).scale(2)
        g = self._doctored(CD("I", 3, 3), "g[1,1]", (e, e))
        g = dataclasses.replace(g, basis=(TroElement(g.ambient, (b, b)),))
        report = verify_grid(g)
        checks = {c.label: c for c in report.element_checks}
        assert (checks["g[1,1]"].tripotent, checks["g[1,1]"].minimal) == (True, False)
        assert [c.minimal for c in report.element_checks] == full_product_verdicts(g)

    def test_non_monomial_tripotent_falls_back(self, monkeypatch):
        # the rank-one projection (E11 + E12 + E21 + E22)/2 of I(2,2) is a
        # minimal tripotent with two entries in a row: full products decide it
        blk = (_unit(2, 2, 1, 1) + _unit(2, 2, 1, 2) + _unit(2, 2, 2, 1)
               + _unit(2, 2, 2, 2)).scale(HALF)
        g = self._doctored(CD("I", 2, 2), "g[1,1]", (blk, blk))
        assert unit_monomial_ranks((blk, blk)) is None
        calls = _count_mat_mul(monkeypatch)
        report = verify_grid(g)
        checks = {c.label: c for c in report.element_checks}
        assert (checks["g[1,1]"].tripotent, checks["g[1,1]"].minimal) == (True, True)
        assert report.ok
        # e e* e and then e b* e for the 4 b, for the one non-monomial element
        assert len(calls) == 2 * 2 * 1 + 2 * 2 * 4
        assert [c.minimal for c in report.element_checks] == full_product_verdicts(g)

    def test_basis_adjoints_once(self, monkeypatch):
        # g[1,2] and g[2,1] of I(2,2) replaced by the non-monomial rank-one
        # tripotents P = (E11 + E12 + E21 + E22)/2 and Q = (E11 + E12 - E21
        # - E22)/2: the 4 basis adjoints are formed once per grid, not once
        # per element, and each element's tripotency takes one more
        plus = (_unit(2, 2, 1, 1) + _unit(2, 2, 1, 2) + _unit(2, 2, 2, 1)
                + _unit(2, 2, 2, 2)).scale(HALF)
        minus = (_unit(2, 2, 1, 1) + _unit(2, 2, 1, 2) - _unit(2, 2, 2, 1)
                 - _unit(2, 2, 2, 2)).scale(HALF)
        g = self._doctored(CD("I", 2, 2), "g[1,2]", (plus, plus))
        elements = list(g.elements)
        elements[g.labels.index("g[2,1]")] = TroElement(g.ambient,
                                                        (minus, minus.transpose()))
        g = dataclasses.replace(g, elements=tuple(elements))
        calls = []
        real = TroElement.adjoint_blocks

        def counted(self):
            calls.append(1)
            return real(self)
        monkeypatch.setattr(TroElement, "adjoint_blocks", counted)
        report = verify_grid(g)
        assert report.ok
        assert len(calls) == 4 + 2
        assert [c.minimal for c in report.element_checks] == full_product_verdicts(g)

    def test_non_tripotent_keeps_its_verdict(self):
        g = grid_for(CD("I", 2, 3))
        doubled = g.by_label("g[1,2]").scale(2)
        g = self._doctored(CD("I", 2, 3), "g[1,2]", doubled.blocks)
        report = verify_grid(g)
        checks = {c.label: c for c in report.element_checks}
        assert (checks["g[1,2]"].tripotent, checks["g[1,2]"].minimal) == (False, True)
        assert report.failures() == ["g[1,2]: not tripotent"]
        assert [c.minimal for c in report.element_checks] == full_product_verdicts(g)

    @given(data=st.data())
    def test_kernel_matches_cut_down_line_test(self, data):
        # a monomial e (any nonzero entries) against w, and w cut down to
        # e's rows x columns with the plain line test
        sp = data.draw(spaces)
        blocks = []
        for n, m in sp.summands:
            k = data.draw(st.integers(0, min(n, m)))
            rows = data.draw(st.permutations(range(n)))[:k]
            cols = data.draw(st.permutations(range(m)))[:k]
            entries = [ZERO] * (n * m)
            for r, c in zip(rows, cols):
                entries[r * m + c] = data.draw(scalars.filter(lambda s: not s.is_zero()))
            blocks.append(Matrix(n, m, tuple(entries)))
        e = TroElement(sp, tuple(blocks))
        w = data.draw(st.one_of(elements_of(sp, st.one_of(st.just(ZERO), scalars)),
                                st.builds(e.scale, scalars)))
        if data.draw(st.booleans()):  # change one entry, in the cut-down part or not
            b = data.draw(st.integers(0, len(sp) - 1))
            n, m = sp.summands[b]
            w = _with_entry(w, b, data.draw(st.integers(0, n * m - 1)), data.draw(scalars))
        cut = []
        for x, y in zip(e.blocks, w.blocks):
            rows = {i for i in range(x.rows) if any(not x[i, j].is_zero()
                                                     for j in range(x.cols))}
            cols = {j for j in range(x.cols) if any(not x[i, j].is_zero()
                                                     for i in range(x.rows))}
            cut.append(Matrix(y.rows, y.cols, tuple(
                y[i, j] if i in rows and j in cols else ZERO
                for i in range(y.rows) for j in range(y.cols))))
        assert compressed_in_line(e.blocks, [w.blocks]) is \
            reference_in_complex_line(e, TroElement(sp, tuple(cut)))


_UNIT = [Scalar(1), Scalar(-1), I, -I] + [Scalar(Fraction(a, 5), Fraction(b, 5))
                                         for a in (3, -3) for b in (4, -4)] \
    + [Scalar(Fraction(5, 13), Fraction(12, 13))]
_NON_UNIT = [Scalar(2), HALF, Scalar(1, 1)]


def _monomial(x: Matrix) -> bool:
    # at most one nonzero entry in each row and in each column
    nonzero = [(i, j) for i in range(x.rows) for j in range(x.cols)
               if not x[i, j].is_zero()]
    return (len({i for i, _ in nonzero}) == len(nonzero)
            == len({j for _, j in nonzero}))


@st.composite
def _monomial_elements(draw, entries, space=spaces):
    sp = draw(space)
    blocks = []
    for n, m in sp.summands:
        k = draw(st.integers(0, min(n, m)))
        rows = draw(st.permutations(range(n)))[:k]
        cols = draw(st.permutations(range(m)))[:k]
        dense = [ZERO] * (n * m)
        for r, c in zip(rows, cols):
            dense[r * m + c] = draw(st.sampled_from(entries))
        blocks.append(Matrix(n, m, tuple(dense)))
    return TroElement(sp, tuple(blocks))


_ROTATION = mat([[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])


def _rotated(e: TroElement) -> TroElement:
    # the unitary rotation on rows 1 and 2 of each block with two rows keeps
    # e tripotent, and mixes its entries there into non-monomial blocks
    return TroElement(e.space, tuple(
        mat_mul(block_diagonal([_ROTATION, identity(x.rows - 2)] if x.rows > 2
                               else [_ROTATION], x.rows, x.rows), x)
        if x.rows > 1 else x for x in e.blocks))


class TestUnitMonomialRanks:
    """exact.unit_monomial_ranks, the product-free tripotency and class of
    verify_grid and grid_gamma, against the products e e* e and e e*."""

    @given(st.one_of(_monomial_elements(_UNIT), _monomial_elements(_UNIT + _NON_UNIT),
                     _monomial_elements(_UNIT).map(_rotated),
                     spaces.flatmap(elements_of),
                     spaces.flatmap(lambda sp: elements_of(
                         sp, st.sampled_from([ZERO] + _UNIT + _NON_UNIT)))))
    def test_matches_the_products(self, e):
        ranks = unit_monomial_ranks(e.blocks)
        tripotent = ternary_product(e, e, e) == e
        assert (ranks is not None) == (all(map(_monomial, e.blocks)) and tripotent)
        if ranks is not None:
            assert ranks == k0_class_of_projection(range_projection(e))

    @given(data=st.data())
    def test_verify_grid_decides_like_the_products(self, data):
        # one element of the I(2,3) grid replaced by a drawn element of its
        # ambient M(2,3)+M(3,2), on either side of the product-free path
        g = grid_for(CD("I", 2, 3))
        sp = g.ambient
        e = data.draw(st.one_of(_monomial_elements(_UNIT, st.just(sp)),
                                _monomial_elements(_UNIT + _NON_UNIT, st.just(sp)),
                                _monomial_elements(_UNIT, st.just(sp)).map(_rotated),
                                elements_of(sp)))
        elements = list(g.elements)
        elements[data.draw(st.integers(0, len(elements) - 1))] = e
        g = dataclasses.replace(g, elements=tuple(elements))
        assert [(c.tripotent, c.minimal) for c in verify_grid(g).element_checks] == \
            list(zip([ternary_product(x, x, x) == x for x in g.elements],
                     full_product_verdicts(g)))

    def test_products_spanning_a_plane_are_not_minimal(self):
        # e = (x, y) with x and y of rank one: each e b* e is (a x, c y), and
        # a : c changes with b, so e and its products span two dimensions;
        # x is not monomial, so e takes the product path
        g = grid_for(CD("I", 2, 3))
        e = TroElement(g.ambient, (mat([[1, 1, 0], [0, 0, 0]]),
                                   mat([[0, 0], [0, 1], [0, 0]])))
        assert unit_monomial_ranks(e.blocks) is None
        assert span_dim([e.blocks] + [ternary_product(e, b, e).blocks
                                      for b in g.basis]) == 2
        g = dataclasses.replace(g, elements=(e,) + g.elements[1:])
        assert not verify_grid(g).element_checks[0].minimal
        assert full_product_verdicts(g)[0] is False

    @pytest.mark.parametrize("dim,side", [(5, 4), (7, 8)])
    def test_words_keep_the_products(self, dim, side):
        # u0 = s_N is a one-term word, a monomial 1 x 2^N matrix with one
        # unit entry; read as one, its class would be (1,), not the identity's
        g = grid_for(CD("IV", dim))
        gamma = grid_gamma(g)
        assert (side,) in gamma and (1,) not in gamma
        assert gamma == frozenset(k0_class_of_projection(range_projection(e))
                                  for e in g.elements)


def test_grid_for_dispatch():
    assert grid_for(CD("I", 2, 2)).kind == "rectangular"
    assert grid_for(CD("II", 5)).kind == "symplectic"
    assert grid_for(CD("III", 2)).kind == "hermitian"
    assert grid_for(CD("IV", 5)).kind == "spin"
    with pytest.raises(ExceptionalFactorError):
        grid_for(CD("V"))


def test_grid_for_builds_from_embedded_basis():
    for d in catalog_descriptors():
        if canonicalize_factor(d) == d:
            assert grid_for(d).basis is embedded_basis(d), d


def _unit(n, m, i, j):
    # 1-based matrix unit
    return matrix_unit(n, m, i - 1, j - 1)


def _incidence(h, i):
    return tuple(b_matrix(h, k, i) for k in range(1, h + 1))


_S1_2 = kron(SIGMA1, identity(2))
_S2_2 = kron(SIGMA2, identity(2))
_S3_2 = kron(SIGMA3, SIGMA2)
_S3_3 = kron(SIGMA3, SIGMA3)
_ID4 = identity(4)

# (factor, labels, first element's blocks, last element's blocks), written
# out by hand from the matrix-unit, incidence and spin frames
_GRID_LAYOUTS = [
    (CD("I", 1, 3), ("g[1]", "g[2]", "g[3]"), _incidence(3, 1), _incidence(3, 3)),
    (CD("I", 3, 1), ("g[1]", "g[2]", "g[3]"), _incidence(3, 1), _incidence(3, 3)),
    (CD("I", 2, 3),
     ("g[1,1]", "g[1,2]", "g[1,3]", "g[2,1]", "g[2,2]", "g[2,3]"),
     (_unit(2, 3, 1, 1), _unit(3, 2, 1, 1)), (_unit(2, 3, 2, 3), _unit(3, 2, 3, 2))),
    (CD("I", 3, 2),
     ("g[1,1]", "g[1,2]", "g[2,1]", "g[2,2]", "g[3,1]", "g[3,2]"),
     (_unit(3, 2, 1, 1), _unit(2, 3, 1, 1)), (_unit(3, 2, 3, 2), _unit(2, 3, 2, 3))),
    (CD("II", 5),
     ("g[1,2]", "g[1,3]", "g[1,4]", "g[1,5]", "g[2,3]", "g[2,4]", "g[2,5]",
      "g[3,4]", "g[3,5]", "g[4,5]"),
     (_unit(5, 5, 1, 2) - _unit(5, 5, 2, 1),), (_unit(5, 5, 4, 5) - _unit(5, 5, 5, 4),)),
    (CD("III", 3),
     ("g[1,1]", "g[1,2]", "g[1,3]", "g[2,2]", "g[2,3]", "g[3,3]"),
     (_unit(3, 3, 1, 1),), (_unit(3, 3, 3, 3),)),
    (CD("IV", 5), ("u1", "ut1", "u2", "ut2", "u0"),
     ((_ID4 - _S1_2).scale(HALF),), (kron(SIGMA3, SIGMA2),)),
    (CD("IV", 6), ("u1", "ut1", "u2", "ut2", "u3", "ut3"),
     ((_ID4 - _S1_2).scale(HALF),) * 2,
     ((_S3_2 - _S3_3.scale(I)).scale(HALF), (_S3_2 + _S3_3.scale(I)).scale(HALF))),
]


@pytest.mark.parametrize("d,labels,first,last", _GRID_LAYOUTS,
                         ids=[str(row[0]) for row in _GRID_LAYOUTS])
def test_grid_for_layout(d, labels, first, last):
    g = grid_for(d)
    assert g.labels == labels
    assert len(g.elements) == len(labels) == intrinsic_dim(d)
    if d.kind == "IV":  # words, read as matrices of the standard spin system
        words = word_matrices(standard_spin_system(d))
        ends = [to_matrix(words, e) for e in (g.elements[0], g.elements[-1])]
    else:
        ends = [g.elements[0], g.elements[-1]]
    assert ends[0].blocks == first
    assert ends[-1].blocks == last
