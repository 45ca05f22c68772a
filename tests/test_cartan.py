import pickle
from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgrid import cartan
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
    binomial_row,
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
)
from kgrid.catalog import catalog_descriptors
from kgrid.exact import HALF, I, dagger, identity, mat, matrix_unit, rank, zeros
from kgrid.tro import (
    TroElement,
    element_span_dim,
    jordan_triple,
    parse_space,
)

from .rank_one import reference_b_matrix, reference_perm_sign
from .spin import standard_spin_system, to_matrix, word_matrices
from .strategies import matrices


def CD(kind, *params):
    return CartanDescriptor(kind, tuple(params))


def reference_sort_key(d):
    """The order of descriptors before they were (kind, params) pairs: kinds
    in the order I, II, III, IV, V, VI, then parameters."""
    return (["I", "II", "III", "IV", "V", "VI"].index(d.kind), d.params)


def reference_canonical_form(d):
    """The canonical (kind, params) of d, as computed before descriptors
    were pairs."""
    kind, params = d.kind, d.params
    if kind == "I":
        n, m = params
        return (kind, params) if n <= m else (kind, (m, n))
    if kind == "III" and params[0] == 1:
        return ("I", (1, 1))
    if kind == "IV" and params[0] == 4:
        return ("I", (2, 2))
    return (kind, params)


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

    @pytest.mark.parametrize("kind,params", [("IV", (6.5,)), ("II", (5.0,)), ("I", (True, 3))],
                             ids=["float", "integral-float", "bool"])
    def test_non_int_parameters_rejected(self, kind, params):
        with pytest.raises(ValueError, match="must be ints"):
            CartanDescriptor(kind, params)

    def test_arity_message(self):
        with pytest.raises(ValueError) as exc:
            CD("I", 2)
        assert str(exc.value) == "I takes 2 parameter(s), got 1"

    @pytest.mark.parametrize("kind,params,error,message", [
        ("X", (), ValueError, "unknown factor kind 'X'"),
        ("I", (), ValueError, "I takes 2 parameter(s), got 0"),
        ("V", (1,), ValueError, "V takes 0 parameter(s), got 1"),
        ("I", (1, 2.0), ValueError, "I parameters must be ints, got (1, 2.0)"),
        ("III", (True,), ValueError, "III parameters must be ints, got (True,)"),
        ("I", (0, 2), UnsupportedFactorError, "I(0,2): dimensions must be >= 1"),
        ("II", (4,), UnsupportedFactorError,
         "II(4) is below the supported range (n >= 5): II(4) coincides with IV(6)"),
        ("II", (0,), UnsupportedFactorError,
         "II(0) is below the supported range (n >= 5): degenerate"),
        ("III", (0,), UnsupportedFactorError, "III(n) needs n >= 1"),
        ("IV", (3,), UnsupportedFactorError,
         "IV(3) is below the supported range (d >= 4): IV(3) coincides with III(2)"),
        ("IV", (-1,), UnsupportedFactorError,
         "IV(-1) is below the supported range (d >= 4): degenerate"),
        # a list would print alike but neither hash nor equal the tuple
        ("I", [2, 3], ValueError, "I parameters must be a tuple, got [2, 3]"),
        ("IV", 5, ValueError, "IV parameters must be a tuple, got 5"),
    ])
    def test_invalid_messages(self, kind, params, error, message):
        # by the constructor, by keyword, through namedtuple's _make and
        # _replace, and when unpickling a descriptor built without the checks
        unchecked = pickle.dumps(tuple.__new__(CartanDescriptor, (kind, params)))
        for build in (lambda: CartanDescriptor(kind, params),
                      lambda: CartanDescriptor(kind=kind, params=params),
                      lambda: CartanDescriptor._make((kind, params)),
                      lambda: CD("I", 1, 1)._replace(kind=kind, params=params),
                      lambda: pickle.loads(unchecked)):
            with pytest.raises(error) as exc:
                build()
            assert type(exc.value) is error and str(exc.value) == message

    def test_spec_factors_must_be_a_tuple(self):
        with pytest.raises(ValueError, match=r"factors must be a tuple, got \["):
            TripleSpec([CD("I", 2, 3)])

    @pytest.mark.parametrize("d,text,rep", [
        (CD("I", 3, 2), "I(3,2)", "CartanDescriptor(kind='I', params=(3, 2))"),
        (CD("IV", 4), "IV(4)", "CartanDescriptor(kind='IV', params=(4,))"),
        (EXCEPTIONAL_16, "V", "CartanDescriptor(kind='V', params=())"),
        (EXCEPTIONAL_27, "VI", "CartanDescriptor(kind='VI', params=())"),
    ], ids=str)
    def test_value(self, d, text, rep):
        # str, repr and hash are those of the former frozen dataclass, whose
        # hash was that of its field tuple; pickling checks it again
        assert str(d) == d.to_text() == text
        assert repr(d) == rep
        assert hash(d) == hash((d.kind, d.params))
        assert isinstance(d, tuple) and tuple(d) == (d.kind, d.params)
        copy = pickle.loads(pickle.dumps(d))
        assert copy == d and type(copy) is CartanDescriptor

    def test_order_is_the_former_sort_key(self):
        values = catalog_descriptors() + (CD("I", 5, 1), CD("I", 6, 1), CD("III", 1),
                                          EXCEPTIONAL_16, EXCEPTIONAL_27)
        assert CD("IV", 4) in values
        for a, b in product(values, repeat=2):
            assert (a < b) == (reference_sort_key(a) < reference_sort_key(b)), (a, b)
            assert (a == b) == (reference_sort_key(a) == reference_sort_key(b))


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
        d = CartanDescriptor(*src)
        result = canonicalize_factor(d)
        assert result == CartanDescriptor(*expected)
        assert type(result) is CartanDescriptor
        assert (result is d) is (src == expected)

    def test_matches_reference_canonical_form(self):
        factors = ([CD("I", n, m) for n in range(1, 9) for m in range(1, 9)]
                   + [CD("II", n) for n in range(5, 10)]
                   + [CD("III", n) for n in range(1, 10)]
                   + [CD("IV", d) for d in range(4, 13)]
                   + [EXCEPTIONAL_16, EXCEPTIONAL_27])
        for d in factors:
            result = canonicalize_factor(d)
            assert type(result) is CartanDescriptor
            assert (result.kind, result.params) == reference_canonical_form(d)
            assert (result is d) is (reference_canonical_form(d) == (d.kind, d.params))
        expected = sorted((CartanDescriptor(*reference_canonical_form(d)) for d in factors),
                          key=reference_sort_key)
        assert canonicalize_spec(TripleSpec(tuple(factors))).factors == tuple(expected)

    def test_spec_sorted(self):
        spec = parse_triple_spec("IV(4)+II(5)+I(3,2)")
        assert canonicalize_spec(spec).to_text() == "I(2,2)+I(2,3)+II(5)"


class TestEnveloping:
    def test_rectangular(self):
        assert enveloping_tro(CD("I", 3, 4)) == parse_space("M(3,4)+M(4,3)")

    def test_rank_one_binomials(self):
        assert enveloping_tro(CD("I", 1, 3)) == parse_space("M(3,1)+M(3,3)+M(1,3)")
        assert enveloping_tro(CD("I", 3, 1)) == parse_space("M(3,1)+M(3,3)+M(1,3)")

    def test_binomial_row_is_comb(self):
        for h in range(301):
            assert binomial_row(h) == tuple(comb(h, t) for t in range(h + 1)), h

    def test_rank_one_caps_are_comb(self):
        for h in range(1, 61):
            caps = tuple((comb(h, k), comb(h, k - 1)) for k in range(1, h + 1))
            assert enveloping_tro(CD("I", 1, h)).summands == caps, h
            assert enveloping_tro(CD("I", h, 1)).summands == caps, h

    def test_square_families(self):
        assert enveloping_tro(CD("II", 6)) == parse_space("M(6,6)")
        assert enveloping_tro(CD("III", 3)) == parse_space("M(3,3)")

    def test_spin_parities(self):
        assert enveloping_tro(CD("IV", 5)) == parse_space("M(4,4)")
        assert enveloping_tro(CD("IV", 6)) == parse_space("M(4,4)+M(4,4)")
        assert enveloping_tro(CD("IV", 9)) == parse_space("M(16,16)")
        # the closed form, stated only here: 2^(d/2-1) twice for even d,
        # 2^((d-1)/2) once for odd d
        for d in range(4, 65):
            if d % 2 == 0:
                side = 2 ** (d // 2 - 1)
                expected = ((side, side), (side, side))
            else:
                side = 2 ** ((d - 1) // 2)
                expected = ((side, side),)
            assert enveloping_tro(CD("IV", d)).summands == expected, d

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

    def test_signs_match_the_inversion_count(self):
        # the quadratic inversion count of (I, i, J) is the reference for
        # every entry, for each h <= 8, k and i
        for h in range(1, 9):
            for k in range(1, h + 1):
                for i in range(1, h + 1):
                    assert b_matrix(h, k, i) == reference_b_matrix(h, k, i), (h, k, i)

    def test_hodge_star_after_a_wedge(self):
        # b(h,k,i) = (-1)^(k-1) ⋆(e_i ∧ ·) from Λ^(k-1) to Λ^(h-k), for each
        # h <= 6, k and i, with e_i ∧ e_I = sign(i, I) e_(I ∪ i) and
        # ⋆e_K = sign(K, K^c) e_(K^c), both signs by inversion counting.  The
        # wedge and the star move each basis vector to one signed basis
        # vector, so every rank-one frame element is a signed partial
        # permutation
        for h in range(1, 7):
            def subsets(p):
                return list(combinations(range(1, h + 1), p))

            for k in range(1, h + 1):
                src, mid, dst = subsets(k - 1), subsets(k), subsets(h - k)
                star = [[0] * len(mid) for _ in dst]
                for c, subset_k in enumerate(mid):
                    rest = tuple(sorted(set(range(1, h + 1)) - set(subset_k)))
                    star[dst.index(rest)][c] = reference_perm_sign(subset_k + rest)
                for i in range(1, h + 1):
                    wedge = [[0] * len(src) for _ in mid]
                    for c, subset_i in enumerate(src):
                        if i not in subset_i:
                            wedge[mid.index(tuple(sorted(subset_i + (i,))))][c] = \
                                reference_perm_sign((i,) + subset_i)
                    sign = -1 if (k - 1) % 2 else 1
                    assert b_matrix(h, k, i) == (mat(star) @ mat(wedge)).scale(sign), \
                        (h, k, i)

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
        d = CD("IV", 5)
        el = embed(d, mat([[1, 0, 0, 0, 0]]))
        assert to_matrix(word_matrices(standard_spin_system(d)), el).blocks == (identity(4),)

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
        assert embedded_basis(CD("I", 1, h)) == hilbert_frame(h)
        assert embedded_basis(CD("I", h, 1)) == hilbert_frame(h)

    @pytest.mark.parametrize("dim", range(4, 10))
    def test_spin_basis_is_the_system(self, dim):
        s = standard_spin_system(CD("IV", dim))
        basis = embedded_basis(CD("IV", dim))
        assert len(basis) == dim
        words = word_matrices(s)
        assert tuple(to_matrix(words, x) for x in basis) == (s.identity, *s.symmetries)

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

    @pytest.mark.parametrize("d", [CD("I", 2, 3), CD("I", 1, 4), CD("II", 5), CD("III", 3)],
                             ids=str)
    @given(data=st.data())
    def test_against_the_product_formula(self, d, data):
        x, y, z = (data.draw(_coordinates(d)) for _ in range(3))
        assert intrinsic_jordan(d, x, y, z) == \
            ((x @ y.dagger() @ z) + (z @ y.dagger() @ x)).scale(HALF)

    def test_coordinates_checked_without_a_span(self, monkeypatch):
        # the coordinate space of I, II and III is read from the shape and
        # the transpose: embed's span solving is not called
        def refuse(*args):
            raise AssertionError("a span was solved")
        monkeypatch.setattr(cartan, "span_coords", refuse)
        for d in (CD("I", 2, 3), CD("I", 1, 4), CD("II", 5), CD("III", 3)):
            x, y, z = intrinsic_basis(d)[:3]
            assert intrinsic_jordan(d, x, y, z) == \
                ((x @ y.dagger() @ z) + (z @ y.dagger() @ x)).scale(HALF)

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
