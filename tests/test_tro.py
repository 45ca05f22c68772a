from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgrid.exact import (
    HALF,
    I,
    ParseError,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    Scalar,
    ShapeError,
    identity,
    mat,
    matrix_unit,
    zeros,
)
from kgrid.tro import (
    LiftError,
    SpaceMismatch,
    TroElement,
    TroHom,
    TroSpace,
    apply_hom,
    compose_homs,
    element_from_json_dict,
    identity_hom,
    is_tripotent,
    jordan_triple,
    left_dims,
    lift_hom,
    linking_dims,
    parse_space,
    range_projection,
    right_dims,
    ternary_product,
    zero_element,
)

from .strategies import space_with_elements, spaces

M2 = parse_space("M(2,2)")


def m2_elem(m) -> TroElement:
    return TroElement(M2, (m,))


def unit_elem(i, j) -> TroElement:
    return m2_elem(matrix_unit(2, 2, i, j))


class TestSpaces:
    def test_text_roundtrip(self):
        t = parse_space("M(1,2) + M(2,1)")
        assert t == TroSpace(((1, 2), (2, 1)))
        assert t.to_text() == "M(1,2)+M(2,1)"

    @pytest.mark.parametrize("bad", ["", "M(0,1)", "M(1)", "M(1,2)+", "N(1,2)", "M(1 2,1)"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_space(bad)

    @pytest.mark.parametrize("text,position", [
        ("M(1,1)+M(2,x)", 7),
        ("M(1,1)  +  M(2,x)", 11),
        (" M(1 2,1)", 1),
    ])
    def test_error_position_indexes_the_text_as_given(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_space(text)
        assert exc.value.position == position

    def test_algebra_dims(self):
        t = parse_space("M(1,2)+M(2,1)")
        assert left_dims(t) == (1, 2)
        assert right_dims(t) == (2, 1)
        assert linking_dims(t) == (3, 3)

    def test_square_case(self):
        t = parse_space("M(4,4)")
        assert left_dims(t) == (4,) and right_dims(t) == (4,)

    def test_rank_one_enveloping_dims(self):
        t = parse_space("M(3,1)+M(3,3)+M(1,3)")
        assert left_dims(t) == (3, 3, 1)
        assert right_dims(t) == (1, 3, 3)

    def test_block_shape_validated(self):
        with pytest.raises(ShapeError):
            TroElement(M2, (zeros(2, 3),))


class TestTripleProducts:
    def test_projection(self):
        e11 = unit_elem(0, 0)
        assert ternary_product(e11, e11, e11) == e11

    def test_partial_isometry(self):
        e12 = unit_elem(0, 1)
        assert ternary_product(e12, e12, e12) == e12

    def test_pauli_product(self):
        # sigma1 sigma2* sigma3 = sigma1 sigma2 sigma3 = i id
        got = ternary_product(m2_elem(SIGMA1), m2_elem(SIGMA2), m2_elem(SIGMA3))
        assert got == m2_elem(identity(2).scale(I))

    def test_jordan_tripotent(self):
        e11 = unit_elem(0, 0)
        assert jordan_triple(e11, e11, e11) == e11

    def test_jordan_orthogonal_units(self):
        assert jordan_triple(unit_elem(0, 0), unit_elem(0, 0), unit_elem(1, 1)).is_zero()

    def test_space_mismatch(self):
        other = zero_element(parse_space("M(2,2)+M(1,1)"))
        with pytest.raises(SpaceMismatch):
            ternary_product(unit_elem(0, 0), unit_elem(0, 0), other)

    @given(space_with_elements(3))
    def test_jordan_outer_symmetry(self, els):
        a, b, c = els
        assert jordan_triple(a, b, c) == jordan_triple(c, b, a)

    @given(space_with_elements(3))
    def test_jordan_conjugate_linear_middle(self, els):
        a, b, c = els
        lhs = jordan_triple(a, b.scale(I), c)
        assert lhs == jordan_triple(a, b, c).scale(-I)

    @given(space_with_elements(2))
    def test_jordan_with_equal_outer_is_ternary(self, els):
        # {e,b,e} = (e b* e + e b* e)/2 = e b* e: the verify path relies on it
        e, b = els
        assert jordan_triple(e, b, e) == ternary_product(e, b, e)

    @given(space_with_elements(4))
    def test_jordan_linear_outer(self, els):
        a, a2, b, c = els
        assert jordan_triple(a + a2, b, c) == (
            jordan_triple(a, b, c) + jordan_triple(a2, b, c)
        )


class TestTripotency:
    def test_unit_tripotent(self):
        assert is_tripotent(unit_elem(0, 0))

    def test_scaling_breaks_it(self):
        assert not is_tripotent(unit_elem(0, 0).scale(2))

    def test_range_projection_of_tripotent(self):
        g = m2_elem(matrix_unit(2, 2, 0, 1) - matrix_unit(2, 2, 1, 0))
        assert is_tripotent(g)
        p = range_projection(g)
        blk = p.blocks[0]
        assert blk @ blk == blk and blk.dagger() == blk


class TestLifting:
    def test_identity_lift(self):
        t = parse_space("M(2,3)")
        h = lift_hom([[1]], t, t)
        assert h.mult == ((1,),)

    def test_multiplicity_two(self):
        h = lift_hom([[2]], parse_space("M(1,1)"), parse_space("M(2,2)"))
        assert h.mult == ((2,),)

    def test_left_scale_violation(self):
        with pytest.raises(LiftError) as exc:
            lift_hom([[2]], parse_space("M(2,1)"), parse_space("M(3,3)"))
        assert exc.value.summand == 0
        assert exc.value.side == "left"
        assert exc.value.needed == 4 and exc.value.cap == 3

    def test_right_scale_violation(self):
        with pytest.raises(LiftError) as exc:
            lift_hom([[1]], parse_space("M(1,4)"), parse_space("M(2,3)"))
        assert exc.value.summand == 0 and exc.value.side == "right"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            lift_hom([[-1]], parse_space("M(1,1)"), parse_space("M(2,2)"))

    @pytest.mark.parametrize("entry", [1.5, Fraction(3, 2), "2", True],
                             ids=["float", "Fraction", "str", "bool"])
    def test_non_integer_rejected(self, entry):
        with pytest.raises(ValueError, match="is not a nonnegative integer"):
            lift_hom([[entry]], parse_space("M(1,1)"), parse_space("M(2,2)"))

    def test_zero_hom_admitted(self):
        h = lift_hom([[0]], parse_space("M(2,2)"), parse_space("M(1,1)"))
        x = TroElement(parse_space("M(2,2)"), (SIGMA1,))
        assert apply_hom(h, x).is_zero()

    def test_per_summand_conditions(self):
        source = parse_space("M(1,2)+M(2,1)")
        target = parse_space("M(3,3)+M(2,4)")
        h = lift_hom([[1, 1], [0, 1]], source, target)
        assert h.mult == ((1, 1), (0, 1))
        with pytest.raises(LiftError) as exc:
            lift_hom([[1, 1], [1, 1]], source, target)
        assert exc.value.summand == 1


class TestApplyHom:
    def test_identity(self):
        t = parse_space("M(2,2)+M(1,3)")
        x = TroElement(t, (SIGMA2, mat([[1, 2, 3]])))
        assert apply_hom(identity_hom(t), x) == x

    def test_copies_then_padding(self):
        h = lift_hom([[2]], parse_space("M(1,1)"), parse_space("M(3,3)"))
        x = TroElement(parse_space("M(1,1)"), (mat([[1]]),))
        assert apply_hom(h, x).blocks[0] == mat([[1, 0, 0], [0, 1, 0], [0, 0, 0]])

    def test_mixed_block_layout(self):
        source = parse_space("M(1,1)+M(1,2)")
        target = parse_space("M(3,5)")
        h = lift_hom([[1, 2]], source, target)
        x = TroElement(source, (mat([[5]]), mat([[1, 2]])))
        assert apply_hom(h, x).blocks[0] == mat(
            [[5, 0, 0, 0, 0],
             [0, 1, 2, 0, 0],
             [0, 0, 0, 1, 2]]
        )

    @given(space_with_elements(3), st.randoms(use_true_random=False))
    def test_preserves_ternary_product(self, els, rnd):
        x, y, z = els
        source = x.space
        # widen each dimension so a small random multiplicity always fits
        alpha = [[rnd.randint(0, 2) for _ in source.summands]]
        need_n = sum(a * n for a, (n, _) in zip(alpha[0], source.summands))
        need_m = sum(a * m for a, (_, m) in zip(alpha[0], source.summands))
        target = TroSpace(((max(need_n, 1) + 1, max(need_m, 1) + 1),))
        h = lift_hom(alpha, source, target)
        lhs = apply_hom(h, ternary_product(x, y, z))
        rhs = ternary_product(apply_hom(h, x), apply_hom(h, y), apply_hom(h, z))
        assert lhs == rhs

    def test_wrong_space(self):
        h = identity_hom(parse_space("M(2,2)"))
        with pytest.raises(SpaceMismatch):
            apply_hom(h, zero_element(parse_space("M(1,1)")))


class TestCompose:
    def test_identity_neutral(self):
        t = parse_space("M(1,1)+M(2,2)")
        h = lift_hom([[1, 0], [0, 1]], t, t)
        assert compose_homs(identity_hom(t), h).mult == h.mult

    def test_scalar_multiplicities(self):
        a = parse_space("M(1,1)")
        b = parse_space("M(3,3)")
        c = parse_space("M(9,9)")
        h = lift_hom([[3]], a, b)
        g = lift_hom([[2]], b, c)
        assert compose_homs(g, h).mult == ((6,),)

    def test_compose_matches_apply(self):
        source = parse_space("M(1,2)")
        mid = parse_space("M(2,4)")
        target = parse_space("M(5,9)")
        h = lift_hom([[2]], source, mid)
        g = lift_hom([[2]], mid, target)
        x = TroElement(source, (mat([[1, I]]),))
        assert apply_hom(compose_homs(g, h), x) == apply_hom(g, apply_hom(h, x))

    def test_space_mismatch(self):
        h = identity_hom(parse_space("M(1,1)"))
        g = identity_hom(parse_space("M(2,2)"))
        with pytest.raises(SpaceMismatch):
            compose_homs(g, h)


class TestTripotentStructure:
    @given(spaces)
    def test_tripotent_gives_projections(self, sp):
        # blockwise matrix units are tripotents of any space
        blocks = tuple(matrix_unit(n, m, 0, 0) for n, m in sp.summands)
        e = TroElement(sp, blocks)
        assert is_tripotent(e)
        left = range_projection(e)
        for blk in left.blocks:
            assert blk @ blk == blk
            assert blk.dagger() == blk
        for eb in e.blocks:
            right = eb.dagger() @ eb
            assert right @ right == right
            assert right.dagger() == right


def test_element_json_roundtrip():
    t = parse_space("M(2,2)+M(1,2)")
    x = TroElement(t, (SIGMA2.scale(HALF), mat([[I, Scalar(2, -1)]])))
    assert element_from_json_dict(x.to_json_dict()) == x
