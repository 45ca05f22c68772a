import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgrid.exact import ONE, Matrix, Scalar, identity, mat, matrix_unit, rank, zeros
from kgrid.ktheory import (
    DoubleScaledGroup,
    ProjectionError,
    apply_k0_matrix,
    double_scaled_group,
    dsg_isomorphic,
    k0_class_of_projection,
)
from kgrid.tro import (
    TroElement,
    TroSpace,
    apply_hom,
    compose_homs,
    identity_hom,
    left_algebra_space,
    lift_hom,
    parse_space,
)

from .strategies import scalars

M4 = parse_space("M(4,4)")


def diag_projection(space: TroSpace, picks) -> TroElement:
    blocks = []
    for (n, _), chosen in zip(space.summands, picks):
        b = zeros(n, n)
        for i in chosen:
            b = b + matrix_unit(n, n, i, i)
        blocks.append(b)
    return TroElement(space, tuple(blocks))


# exact rational rotation, for non-diagonal projections
_ROT2 = mat([[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])


def rotate_first_corner(p: TroElement) -> TroElement:
    blocks = list(p.blocks)
    b = blocks[0]
    if b.rows >= 2:
        rot = _ROT2
        for _ in range(b.rows - 2):
            from kgrid.exact import direct_sum

            rot = direct_sum(rot, identity(1))
        blocks[0] = rot @ b @ rot.dagger()
    return TroElement(p.space, tuple(blocks))


def projection_onto(vectors: list) -> Matrix:
    """The orthogonal projection onto the span of column vectors over Q(i):
    Gram-Schmidt, then the sum of u u* / (u* u); a dependent vector adds nothing."""
    n = vectors[0].rows
    p = zeros(n, n)
    for v in vectors:
        u = v - p @ v
        if not u.is_zero():
            p = p + (u @ u.dagger()).scale(ONE / (u.dagger() @ u)[0, 0])
    return p


_column = st.lists(scalars, min_size=3, max_size=3).map(
    lambda es: Matrix(3, 1, tuple(es)))


class TestProjectionClasses:
    def test_zero_projection(self):
        sp = parse_space("M(2,2)+M(3,3)")
        from kgrid.tro import zero_element

        assert k0_class_of_projection(zero_element(sp)) == (0, 0)

    def test_identity_class_is_caps(self):
        sp = parse_space("M(2,2)+M(3,3)")
        p = TroElement(sp, (identity(2), identity(3)))
        assert k0_class_of_projection(p) == (2, 3)

    def test_skew_unit_range(self):
        g = matrix_unit(4, 4, 0, 1) - matrix_unit(4, 4, 1, 0)
        p = TroElement(M4, (g @ g.dagger(),))
        assert k0_class_of_projection(p) == (2,)

    def test_rotated_projection(self):
        sp = parse_space("M(3,3)")
        p = rotate_first_corner(diag_projection(sp, [(0, 2)]))
        assert k0_class_of_projection(p) == (2,)

    @given(st.lists(_column, min_size=1, max_size=3), st.lists(_column, max_size=2))
    def test_class_is_rank_of_dense_projections(self, first, second):
        # dense Gaussian-rational projections with real denominators: the
        # class, read as traces, is the rank of each block
        sp = parse_space("M(3,3)+M(3,3)")
        p = TroElement(sp, (projection_onto(first),
                            projection_onto(second) if second else zeros(3, 3)))
        assert k0_class_of_projection(p) == tuple(rank(b) for b in p.blocks)

    def test_class_is_rank_of_unit_and_rotated_projections(self):
        sp = parse_space("M(3,3)+M(2,2)+M(4,4)")
        for picks in ([(0, 2), (), (1, 2, 3)], [(1,), (0, 1), ()], [(), (), ()]):
            for p in (diag_projection(sp, picks),
                      rotate_first_corner(diag_projection(sp, picks))):
                assert k0_class_of_projection(p) == tuple(rank(b) for b in p.blocks)

    def test_projection_onto_has_real_denominators(self):
        v = mat([[1], [Scalar(1, 1)], [2]])
        p = projection_onto([v])
        assert p[0, 0] == Scalar(Fraction(1, 7))
        assert p[1, 0] == Scalar(Fraction(1, 7), Fraction(1, 7))
        assert k0_class_of_projection(TroElement(parse_space("M(3,3)"), (p,))) == (1,)

    def test_rejects_with_block_index(self):
        sp = parse_space("M(2,2)+M(2,2)")
        bad = TroElement(sp, (identity(2), identity(2).scale(2)))
        with pytest.raises(ProjectionError) as exc:
            k0_class_of_projection(bad)
        assert exc.value.block == 1

    def test_rejects_non_square(self):
        sp = parse_space("M(2,3)")
        with pytest.raises(ProjectionError):
            from kgrid.tro import zero_element

            k0_class_of_projection(zero_element(sp))


class TestDoubleScaledGroups:
    def test_remark_pair(self):
        t = double_scaled_group(parse_space("M(1,2)+M(2,1)"))
        u = double_scaled_group(parse_space("M(1,1)+M(2,2)"))
        assert t.left_caps == (1, 2) and t.right_caps == (2, 1)
        assert u.left_caps == (1, 2) and u.right_caps == (1, 2)
        assert dsg_isomorphic(t, u) is None

    @pytest.mark.parametrize("left, right", [
        ((4.0,), (4,)), ((4,), (4.0,)), ((True, 2), (1, 2)), ((1, 2), (1, True)),
        ([1, 1], (1, 1)), ((1, 1), [1, 1]),
    ])
    def test_caps_must_be_ints(self, left, right):
        # a float cap used to reach recovery, a bool one to_dict as `true`;
        # list caps made a group that neither hashed nor equalled its tuple form
        what = "ints" if type(left) is type(right) is tuple else "tuples"
        with pytest.raises(ValueError, match=f"scale caps must be {what}"):
            DoubleScaledGroup(left, right)

    def test_caps_must_be_positive(self):
        with pytest.raises(ValueError, match="scale caps must be >= 1"):
            DoubleScaledGroup((1, 0), (1, 1))

    def test_rectangular(self):
        g = double_scaled_group(parse_space("M(5,7)"))
        assert g.k == 1 and g.left_caps == (5,) and g.right_caps == (7,)

    def test_canonical_reorder(self):
        a = double_scaled_group(parse_space("M(2,3)+M(1,1)"))
        b = double_scaled_group(parse_space("M(1,1)+M(2,3)"))
        assert dsg_isomorphic(a, b) == (1, 0)

    def test_self_iso(self):
        g = double_scaled_group(parse_space("M(1,2)+M(2,1)"))
        assert dsg_isomorphic(g, g) == (0, 1)

    @staticmethod
    def reference_match(a_pairs, b_pairs):
        # each summand of a takes the first unused summand of b with its caps
        if len(a_pairs) != len(b_pairs):
            return None
        used = [False] * len(b_pairs)
        perm = []
        for pair in a_pairs:
            j = next((j for j, q in enumerate(b_pairs) if q == pair and not used[j]), None)
            if j is None:
                return None
            used[j] = True
            perm.append(j)
        return tuple(perm)

    def test_seeded_against_the_first_unused_rule(self):
        rng = random.Random(27)

        def group(pairs):
            return DoubleScaledGroup(tuple(p for p, _ in pairs), tuple(q for _, q in pairs))

        for _ in range(3000):
            a_pairs = [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 9))]
            b_pairs = a_pairs[:]
            rng.shuffle(b_pairs)
            if b_pairs and rng.random() < 0.3:  # usually no longer a match
                b_pairs[rng.randrange(len(b_pairs))] = (rng.randint(1, 3), rng.randint(1, 3))
            if rng.random() < 0.1:
                b_pairs.append((1, 1))
            a, b = group(a_pairs), group(b_pairs)
            assert dsg_isomorphic(a, b) == self.reference_match(a_pairs, b_pairs)

    def test_many_equal_summands(self):
        # each bucket hands out its indices in order, so the matching of k
        # equal summands takes linear time: 4k of them take about 4 times as
        # long as k, where handing out the front of a list would take 16 times
        def seconds(k):
            a = DoubleScaledGroup((2,) * k, (3,) * k)
            b = DoubleScaledGroup((2,) * k, (3,) * (k - 1) + (4,))
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                assert dsg_isomorphic(a, a) == tuple(range(k))
                assert dsg_isomorphic(a, b) is None
                best = min(best, time.perf_counter() - start)
            return best

        assert seconds(200000) < 8 * seconds(50000)

    def test_scale_membership(self):
        g = double_scaled_group(parse_space("M(1,2)+M(2,1)"))
        assert g.in_left_scale((0, 0)) and g.in_left_scale((1, 2))
        assert not g.in_left_scale((2, 0))
        assert g.in_right_scale((2, 1)) and not g.in_right_scale((0, 2))

    def test_right_caps_are_column_dims(self):
        # the identity of the right algebra has the right caps as its class
        g = double_scaled_group(parse_space("M(2,3)+M(1,4)"))
        assert g.right_caps == (3, 4)

    def test_tops_are_dims(self):
        sp = parse_space("M(3,1)+M(3,3)+M(1,3)")
        g = double_scaled_group(sp)
        assert g.in_left_scale(g.left_caps)
        assert g.in_right_scale(g.right_caps)

    def test_equivalence_relation(self):
        spaces = [
            parse_space(t)
            for t in (
                "M(1,2)+M(2,1)",
                "M(2,1)+M(1,2)",
                "M(1,1)+M(2,2)",
                "M(2,2)+M(1,1)",
                "M(2,2)",
            )
        ]
        groups = [double_scaled_group(s) for s in spaces]
        for a in groups:
            assert dsg_isomorphic(a, a) is not None
        for a in groups:
            for b in groups:
                ab = dsg_isomorphic(a, b)
                ba = dsg_isomorphic(b, a)
                assert (ab is None) == (ba is None)
                if ab is None:
                    continue
                for c in groups:
                    bc = dsg_isomorphic(b, c)
                    if bc is None:
                        continue
                    # composed permutation witnesses a ~ c
                    composed = tuple(bc[j] for j in ab)
                    pairs_a = list(zip(a.left_caps, a.right_caps))
                    pairs_c = list(zip(c.left_caps, c.right_caps))
                    assert all(pairs_a[i] == pairs_c[composed[i]]
                               for i in range(a.k))


@st.composite
def hom_chain(draw):
    """source space, a lift onto a middle space, and a lift onward."""
    p = draw(st.integers(1, 2))
    source = TroSpace(tuple(
        (draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(p)
    ))
    q = draw(st.integers(1, 2))
    alpha = [[draw(st.integers(0, 2)) for _ in range(p)] for _ in range(q)]
    mid = TroSpace(tuple(
        (
            max(1, sum(a * n for a, (n, _) in zip(row, source.summands)))
            + draw(st.integers(0, 2)),
            max(1, sum(a * m for a, (_, m) in zip(row, source.summands)))
            + draw(st.integers(0, 2)),
        )
        for row in alpha
    ))
    r = draw(st.integers(1, 2))
    beta = [[draw(st.integers(0, 1)) for _ in range(q)] for _ in range(r)]
    target = TroSpace(tuple(
        (
            max(1, sum(b * n for b, (n, _) in zip(row, mid.summands)))
            + draw(st.integers(0, 1)),
            max(1, sum(b * m for b, (_, m) in zip(row, mid.summands)))
            + draw(st.integers(0, 1)),
        )
        for row in beta
    ))
    h = lift_hom(alpha, source, mid)
    g = lift_hom(beta, mid, target)
    return g, h


class TestK0OfHoms:
    def test_identity(self):
        t = parse_space("M(1,1)+M(2,2)")
        assert identity_hom(t).mult == ((1, 0), (0, 1))

    def test_lift_returns_input(self):
        h = lift_hom([[2]], parse_space("M(1,1)"), parse_space("M(2,2)"))
        assert h.mult == ((2,),)

    @given(hom_chain())
    def test_functorial(self, gh):
        g, h = gh
        composed = compose_homs(g, h)
        expected = tuple(
            tuple(sum(g.mult[k][j] * h.mult[j][i] for j in range(len(h.mult)))
                  for i in range(len(h.mult[0])))
            for k in range(len(g.mult))
        )
        assert composed.mult == expected

    @given(hom_chain())
    def test_scale_into_scale(self, gh):
        _, h = gh
        src = double_scaled_group(h.source)
        tgt = double_scaled_group(h.target)
        # the maximal elements are the worst case; the box is monotone
        assert tgt.in_left_scale(apply_k0_matrix(h.mult, src.left_caps))
        assert tgt.in_right_scale(apply_k0_matrix(h.mult, src.right_caps))

    @given(st.data())
    def test_projection_classes_map_by_mult(self, data):
        k = data.draw(st.integers(1, 2))
        dims = [data.draw(st.integers(1, 3)) for _ in range(k)]
        source = TroSpace(tuple((n, n) for n in dims))
        picks = [
            tuple(i for i in range(n) if data.draw(st.booleans()))
            for n in dims
        ]
        p = diag_projection(source, picks)
        if data.draw(st.booleans()):
            p = rotate_first_corner(p)
        q = data.draw(st.integers(1, 2))
        alpha = [[data.draw(st.integers(0, 2)) for _ in range(k)] for _ in range(q)]
        target = TroSpace(tuple(
            (
                max(1, sum(a * n for a, n in zip(row, dims)))
                + data.draw(st.integers(0, 1)),
            ) * 2
            for row in alpha
        ))
        h = lift_hom(alpha, source, target)
        lhs = k0_class_of_projection(apply_hom(h, p))
        rhs = apply_k0_matrix(h.mult, k0_class_of_projection(p))
        assert lhs == rhs

