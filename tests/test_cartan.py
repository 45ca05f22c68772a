from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgrid.cartan import (
    CartanDescriptor,
    CoordinateError,
    EXCEPTIONAL_16,
    EXCEPTIONAL_27,
    ExceptionalFactorError,
    ParseError,
    TripleSpec,
    UnsupportedFactorError,
    b_matrix,
    canonicalize_factor,
    canonicalize_spec,
    coords_of,
    embed,
    embedded_basis,
    enveloping_tro,
    hilbert_frame,
    intrinsic_basis,
    intrinsic_dim,
    intrinsic_jordan,
    parse_triple_spec,
    standard_spin_system,
)
from kgrid.exact import HALF, I, dagger, identity, mat, matrix_unit, rank, zeros
from kgrid.tro import (
    TroElement,
    element_span_dim,
    jordan_triple,
    parse_space,
)

from .strategies import matrices


def CD(kind, *params):
    return CartanDescriptor(kind, tuple(params))


class TestDescriptors:
    def test_valid(self):
        assert CD("I", 1, 1).to_text() == "I(1,1)"
        assert CD("IV", 4).to_text() == "IV(4)"
        assert EXCEPTIONAL_16.to_text() == "V"
        assert EXCEPTIONAL_27.to_text() == "VI"

    @pytest.mark.parametrize(
        "kind,params,named",
        [
            ("II", (4,), "IV(6)"),
            ("II", (3,), "I(1,3)"),
            ("II", (2,), "I(1,1)"),
            ("IV", (3,), "III(2)"),
            ("IV", (2,), "I(1,1)+I(1,1)"),
        ],
    )
    def test_below_range_names_coincidence(self, kind, params, named):
        with pytest.raises(UnsupportedFactorError) as exc:
            CartanDescriptor(kind, params)
        assert named in str(exc.value)

    def test_degenerate_dimensions(self):
        with pytest.raises(UnsupportedFactorError):
            CD("I", 0, 2)
        with pytest.raises(ValueError):
            CD("V", 1)
        with pytest.raises(ValueError):
            CD("I", 2)

    def test_arity_message(self):
        with pytest.raises(ValueError) as exc:
            CD("I", 2)
        assert str(exc.value) == "I takes 2 parameter(s), got 1"


class TestGrammar:
    def test_simple(self):
        assert parse_triple_spec("I(2,3)") == TripleSpec((CD("I", 2, 3),))

    def test_multi_with_whitespace(self):
        spec = parse_triple_spec("  I ( 2 , 3 ) + IV(6)+ III(4) ")
        assert spec.factors == (CD("I", 2, 3), CD("IV", 6), CD("III", 4))

    def test_exceptional(self):
        assert parse_triple_spec("V+VI").factors == (EXCEPTIONAL_16, EXCEPTIONAL_27)

    def test_roman_disambiguation(self):
        assert parse_triple_spec("II(5)").factors[0].kind == "II"
        assert parse_triple_spec("IV(5)").factors[0].kind == "IV"
        assert parse_triple_spec("VI").factors[0].kind == "VI"

    def test_text_roundtrip(self):
        text = "I(2,3)+II(5)+V"
        assert parse_triple_spec(text).to_text() == text

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("I(2,3", 5),
            ("I(2)", 0),
            ("X(2)", 0),
            ("I(2,3)+", 7),
            ("I(2,3)Q", 6),
            ("", 0),
            ("I(\u00b2,3)", 2),
        ],
    )
    def test_error_positions(self, text, pos):
        with pytest.raises(ParseError) as exc:
            parse_triple_spec(text)
        assert exc.value.position == pos

    @pytest.mark.parametrize(
        "text,pos,message",
        [
            ("I", 0, "I takes 2 parameter(s), got 0"),
            ("I(1)", 0, "I takes 2 parameter(s), got 1"),
            ("I(1,2,3)", 0, "I takes 2 parameter(s), got 3"),
            ("V(1)", 0, "V takes 0 parameter(s), got 1"),
            ("VI(2,3)", 0, "VI takes 0 parameter(s), got 2"),
            ("IV(4,5)", 0, "IV takes 1 parameter(s), got 2"),
            ("I(2,3)+V(1)", 7, "V takes 0 parameter(s), got 1"),
        ],
    )
    def test_arity_errors(self, text, pos, message):
        with pytest.raises(ParseError) as exc:
            parse_triple_spec(text)
        assert exc.value.position == pos
        assert str(exc.value) == f"parse error at position {pos}: {message}"

    def test_range_error_passes_through(self):
        with pytest.raises(UnsupportedFactorError):
            parse_triple_spec("II(4)")


class TestCanonicalization:
    @pytest.mark.parametrize(
        "src,expected",
        [
            (("I", (3, 2)), ("I", (2, 3))),
            (("I", (4, 1)), ("I", (1, 4))),
            (("I", (1, 1)), ("I", (1, 1))),
            (("III", (1,)), ("I", (1, 1))),
            (("IV", (4,)), ("I", (2, 2))),
            (("IV", (5,)), ("IV", (5,))),
            (("II", (6,)), ("II", (6,))),
        ],
    )
    def test_factor(self, src, expected):
        assert canonicalize_factor(CartanDescriptor(*src)) == CartanDescriptor(*expected)

    def test_spec_sorted(self):
        spec = parse_triple_spec("IV(4)+II(5)+I(3,2)")
        assert canonicalize_spec(spec).to_text() == "I(2,2)+I(2,3)+II(5)"


class TestEnveloping:
    def test_rectangular(self):
        assert enveloping_tro(CD("I", 3, 4)) == parse_space("M(3,4)+M(4,3)")

    def test_rank_one_binomials(self):
        assert enveloping_tro(CD("I", 1, 3)) == parse_space("M(3,1)+M(3,3)+M(1,3)")
        assert enveloping_tro(CD("I", 3, 1)) == parse_space("M(3,1)+M(3,3)+M(1,3)")

    def test_square_families(self):
        assert enveloping_tro(CD("II", 6)) == parse_space("M(6,6)")
        assert enveloping_tro(CD("III", 3)) == parse_space("M(3,3)")

    def test_spin_parities(self):
        assert enveloping_tro(CD("IV", 5)) == parse_space("M(4,4)")
        assert enveloping_tro(CD("IV", 6)) == parse_space("M(4,4)+M(4,4)")
        assert enveloping_tro(CD("IV", 9)) == parse_space("M(16,16)")

    def test_exceptional_rejected(self):
        with pytest.raises(ExceptionalFactorError):
            enveloping_tro(EXCEPTIONAL_16)


class TestDimensions:
    @pytest.mark.parametrize(
        "d,expected",
        [
            (("II", (5,)), 10),
            (("IV", (7,)), 7),
            (("VI", ()), 27),
            (("V", ()), 16),
            (("I", (2, 3)), 6),
            (("III", (4,)), 10),
        ],
    )
    def test_intrinsic_dim(self, d, expected):
        assert intrinsic_dim(CartanDescriptor(*d)) == expected


class TestBMatrix:
    def test_trivial(self):
        assert b_matrix(1, 1, 1) == mat([[1]])

    def test_single_entry_column(self):
        assert b_matrix(2, 1, 1) == mat([[0], [1]])
        assert b_matrix(2, 1, 2) == mat([[-1], [0]])

    def test_three_two_one(self):
        # hand enumeration: I={2} -> J={3}, sign(2,1,3) = -1;
        # I={3} -> J={2}, sign(3,1,2) = +1
        assert b_matrix(3, 2, 1) == mat([[0, 0, 0], [0, 0, 1], [0, -1, 0]])

    def test_shapes(self):
        for n in range(1, 6):
            for k in range(1, n + 1):
                b = b_matrix(n, k, 1)
                assert b.shape == (comb(n, k), comb(n, k - 1))

    def test_rank_binomial(self):
        assert rank(b_matrix(3, 2, 1) @ dagger(b_matrix(3, 2, 1))) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            b_matrix(3, 4, 1)
        with pytest.raises(ValueError):
            b_matrix(3, 1, 0)


def _coordinates(d):
    # intrinsic coordinates of d: a skew or symmetric matrix for II and III
    fix = {"II": _skewify, "III": _symmetrize}.get(d.kind, lambda m: m)
    return matrices(*intrinsic_basis(d)[0].shape).map(fix)


class TestEmbed:
    def test_rectangular_diagonal_pair(self):
        el = embed(CD("I", 2, 2), matrix_unit(2, 2, 0, 0))
        assert el.blocks == (matrix_unit(2, 2, 0, 0), matrix_unit(2, 2, 0, 0))

    def test_rectangular_transpose_second_block(self):
        x = mat([[1, 2, I], [0, HALF, 4]])
        el = embed(CD("I", 2, 3), x)
        assert el.blocks[0] == x and el.blocks[1] == x.transpose()

    def test_symplectic_identity_inclusion(self):
        g = matrix_unit(5, 5, 0, 1) - matrix_unit(5, 5, 1, 0)
        assert embed(CD("II", 5), g).blocks == (g,)

    def test_spin_identity_direction(self):
        el = embed(CD("IV", 5), mat([[1, 0, 0, 0, 0]]))
        assert el.blocks == (identity(4),)

    def test_validates_shapes_and_symmetry(self):
        with pytest.raises(CoordinateError):
            embed(CD("I", 2, 2), zeros(3, 2))
        with pytest.raises(CoordinateError):
            embed(CD("II", 5), identity(5))  # not skew
        with pytest.raises(CoordinateError):
            embed(CD("III", 3), matrix_unit(3, 3, 0, 1))  # not symmetric

    @given(matrices(2, 3), matrices(2, 3))
    def test_linear(self, x, y):
        d = CD("I", 2, 3)
        assert embed(d, x + y) == embed(d, x) + embed(d, y)
        assert embed(d, x.scale(I)) == embed(d, x).scale(I)

    def test_basis_spans_embedded_factor(self):
        for d in (CD("I", 2, 3), CD("I", 1, 4), CD("I", 4, 1), CD("II", 5),
                  CD("III", 3), CD("IV", 5), CD("IV", 6)):
            assert element_span_dim(list(embedded_basis(d))) == intrinsic_dim(d)
            assert len(intrinsic_basis(d)) == intrinsic_dim(d)
            assert embedded_basis(d) == tuple(embed(d, x) for x in intrinsic_basis(d))

    @pytest.mark.parametrize("h", range(1, 7))
    def test_rank_one_basis_is_the_frame(self, h):
        assert embedded_basis(CD("I", 1, h)) is hilbert_frame(h)
        assert embedded_basis(CD("I", h, 1)) is hilbert_frame(h)

    @pytest.mark.parametrize("dim", range(4, 10))
    def test_spin_basis_is_the_system(self, dim):
        s = standard_spin_system(CD("IV", dim))
        basis = embedded_basis(CD("IV", dim))
        assert len(basis) == dim
        assert all(b is e for b, e in zip(basis, (s.identity, *s.symmetries)))

    @pytest.mark.parametrize("d", [CD("I", 2, 3), CD("II", 5), CD("III", 3)], ids=str)
    def test_matrix_factor_basis_elements(self, d):
        for u, el in zip(intrinsic_basis(d), embedded_basis(d), strict=True):
            assert el.space == enveloping_tro(d)
            assert el.blocks == ((u, u.transpose()) if d.kind == "I" else (u,))

    @pytest.mark.parametrize("d", [CD("I", 2, 3), CD("I", 1, 4), CD("I", 4, 1), CD("II", 5),
                                   CD("III", 3), CD("IV", 5), CD("IV", 6)], ids=str)
    @given(data=st.data())
    def test_round_trip(self, d, data):
        x = data.draw(_coordinates(d))
        assert coords_of(d, embed(d, x)) == x

    @pytest.mark.parametrize("d,x", [
        (CD("I", 1, 4), zeros(4, 1)),
        (CD("I", 4, 1), zeros(1, 4)),
        (CD("IV", 5), zeros(5, 1)),
    ], ids=["I(1,4)", "I(4,1)", "IV(5)"])
    def test_wrong_shape(self, d, x):
        with pytest.raises(CoordinateError):
            embed(d, x)

    @pytest.mark.parametrize("d", [EXCEPTIONAL_16, EXCEPTIONAL_27], ids=str)
    def test_exceptional_has_no_embedding(self, d):
        with pytest.raises(ExceptionalFactorError):
            embed(d, zeros(1, 1))
        with pytest.raises(ExceptionalFactorError):
            embedded_basis(d)


def _skewify(m):
    return m - m.transpose()


def _symmetrize(m):
    return m + m.transpose()


class TestJordanPreservation:
    @given(matrices(2, 3), matrices(2, 3), matrices(2, 3))
    def test_rectangular(self, x, y, z):
        d = CD("I", 2, 3)
        lhs = embed(d, intrinsic_jordan(d, x, y, z))
        rhs = jordan_triple(embed(d, x), embed(d, y), embed(d, z))
        assert lhs == rhs

    @given(matrices(1, 3), matrices(1, 3), matrices(1, 3))
    def test_rank_one(self, x, y, z):
        d = CD("I", 1, 3)
        lhs = embed(d, intrinsic_jordan(d, x, y, z))
        rhs = jordan_triple(embed(d, x), embed(d, y), embed(d, z))
        assert lhs == rhs

    @given(matrices(5, 5), matrices(5, 5), matrices(5, 5))
    def test_symplectic(self, a, b, c):
        d = CD("II", 5)
        x, y, z = _skewify(a), _skewify(b), _skewify(c)
        lhs = embed(d, intrinsic_jordan(d, x, y, z))
        rhs = jordan_triple(embed(d, x), embed(d, y), embed(d, z))
        assert lhs == rhs

    @given(matrices(3, 3), matrices(3, 3), matrices(3, 3))
    def test_hermitian(self, a, b, c):
        d = CD("III", 3)
        x, y, z = _symmetrize(a), _symmetrize(b), _symmetrize(c)
        lhs = embed(d, intrinsic_jordan(d, x, y, z))
        rhs = jordan_triple(embed(d, x), embed(d, y), embed(d, z))
        assert lhs == rhs

    @given(matrices(1, 5), matrices(1, 5), matrices(1, 5))
    def test_spin_closed_under_triple(self, x, y, z):
        # the triple product of embedded spin elements stays in the embedded
        # copy, and pulling back then re-embedding is the identity
        d = CD("IV", 5)
        product = jordan_triple(embed(d, x), embed(d, y), embed(d, z))
        pulled = coords_of(d, product)
        assert embed(d, pulled) == product

    def test_intrinsic_products_close_for_matrix_factors(self):
        d = CD("II", 5)
        basis = intrinsic_basis(d)
        got = intrinsic_jordan(d, basis[0], basis[1], basis[2])
        assert got.transpose() == -got  # skew matrices are a subtriple


class TestHilbertFrame:
    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_row_grid_relations(self, h):
        frame = hilbert_frame(h)
        assert element_span_dim(list(frame)) == h
        for i in range(h):
            for j in range(h):
                if i == j:
                    assert jordan_triple(frame[i], frame[i], frame[i]) == frame[i]
                    continue
                assert jordan_triple(frame[i], frame[i], frame[j]) == \
                    frame[j].scale(HALF)
                assert jordan_triple(frame[i], frame[j], frame[i]).is_zero()

    def test_frame_classes_are_binomial_rows(self):
        from kgrid.ktheory import k0_class_of_projection
        from kgrid.tro import range_projection

        for h in (2, 3, 4):
            for g in hilbert_frame(h):
                cls = k0_class_of_projection(range_projection(g))
                assert cls == tuple(comb(h - 1, t) for t in range(h))
