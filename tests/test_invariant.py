import ast
import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgrid.cartan import (
    CartanDescriptor,
    TripleSpec,
    canonicalize_factor,
    canonicalize_spec,
    enveloping_tro,
    parse_triple_spec,
)
from kgrid.catalog import catalog_descriptors, catalog_multisets
from kgrid import cartan, invariant
from kgrid.cli import run
from kgrid.grids import grid_for, grid_gamma
from kgrid.invariant import (
    KGridInvariant,
    UnknownFactorError,
    classify,
    gamma,
    gamma_report,
    invariants_isomorphic,
    k_grid_invariant,
    published_gamma,
    recover_factors,
)
from kgrid.invariant import _candidates, _factor_block, _match_block, _quick_key
from kgrid.ktheory import DoubleScaledGroup
from kgrid.tro import range_projection


def CD(kind, *params):
    return CartanDescriptor(kind, tuple(params))


def spec(text):
    return parse_triple_spec(text)


def permuted(inv, sigma):
    """The invariant with summand i moved to position sigma[i]."""
    k = len(sigma)
    left, right = [0] * k, [0] * k
    for i, j in enumerate(sigma):
        left[j] = inv.group.left_caps[i]
        right[j] = inv.group.right_caps[i]
    classes = set()
    for cls in inv.gamma:
        vec = [0] * k
        for i, v in enumerate(cls):
            vec[sigma[i]] = v
        classes.add(tuple(vec))
    return KGridInvariant(DoubleScaledGroup(tuple(left), tuple(right)),
                          frozenset(classes), inv.exceptional_count)


def shuffled(inv, rng):
    sigma = list(range(inv.group.k))
    rng.shuffle(sigma)
    return permuted(inv, sigma)


def assert_witness(a, b, perm):
    """perm is a summand permutation carrying a's caps and gamma onto b's."""
    assert sorted(perm) == list(range(a.group.k))
    for i in range(a.group.k):
        assert a.group.left_caps[i] == b.group.left_caps[perm[i]]
        assert a.group.right_caps[i] == b.group.right_caps[perm[i]]
    mapped = set()
    for cls in a.gamma:
        vec = [0] * a.group.k
        for i, v in enumerate(cls):
            vec[perm[i]] = v
        mapped.add(tuple(vec))
    assert mapped == b.gamma


def projection_trace_rank(block) -> int:
    # rank of an exact projection equals its trace
    total = Fraction(0)
    for i in range(block.rows):
        entry = block[i, i]
        assert entry.im == 0
        total += entry.re
    assert total.denominator == 1
    return int(total)


class TestGamma:
    def test_rectangular_collapses(self):
        assert gamma(CD("I", 3, 4)) == frozenset({(1, 1)})

    def test_rank_one_binomial_row(self):
        assert gamma(CD("I", 1, 3)) == frozenset({(1, 2, 1)})

    def test_hermitian(self):
        assert gamma(CD("III", 4)) == frozenset({(1,), (2,)})

    def test_symplectic(self):
        assert gamma(CD("II", 5)) == frozenset({(2,)})

    def test_spin_odd_by_oracle(self):
        d = CD("IV", 5)
        g = grid_for(d)
        oracle = set()
        for e in g.elements:
            p = range_projection(e)
            oracle.add(tuple(projection_trace_rank(b) for b in p.blocks))
        assert grid_gamma(g) == frozenset(oracle) == frozenset({(2,), (4,)})

    def test_spin_even_by_oracle(self):
        d = CD("IV", 6)
        g = grid_for(d)
        oracle = set()
        for e in g.elements:
            p = range_projection(e)
            oracle.add(tuple(projection_trace_rank(b) for b in p.blocks))
        assert grid_gamma(g) == frozenset(oracle) == frozenset({(2, 2)})

    def test_coincidence_consistency(self):
        # IV(4) and I(2,2) are the same triple; their grids' data must agree
        assert grid_gamma(grid_for(CD("IV", 4))) == grid_gamma(grid_for(CD("I", 2, 2)))

    def test_exceptional_raises(self):
        from kgrid.cartan import ExceptionalFactorError

        with pytest.raises(ExceptionalFactorError):
            gamma(CD("V"))


def _oracle_factors() -> list:
    """Every canonical factor up to I(6,6), I(1,12), II(10), III(10) and
    IV(18), and the non-canonical III(1), I(n,1) and IV(4)."""
    out = [CD("I", n, m) for n in range(2, 7) for m in range(n, 7)]
    out += [CD("I", 1, h) for h in range(1, 13)]
    out += [CD("II", n) for n in range(5, 11)]
    out += [CD("III", n) for n in range(2, 11)]
    out += [CD("IV", d) for d in range(5, 19)]
    out += [CD("III", 1), CD("IV", 4)] + [CD("I", n, 1) for n in range(2, 7)]
    return out


class TestGridOracle:
    # gamma reads a per-family formula; the constructed grids must agree
    @pytest.mark.parametrize("d", _oracle_factors(), ids=str)
    def test_formula_matches_grid(self, d):
        assert grid_gamma(grid_for(d)) == gamma(d)

    def test_invariant_imports_no_grid_or_tro(self):
        # keeps the grid construction off the invariant path, and the grids
        # out of the embedding they are built from; ast.walk also sees
        # imports inside functions
        for module, forbidden in ((invariant, {"kgrid.grids", "kgrid.tro"}),
                                  (cartan, {"kgrid.grids"})):
            tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    base = ".".join(filter(None, ["kgrid" if node.level else "",
                                                  node.module]))
                    imported.add(base)
                    imported.update(f"{base}.{a.name}" for a in node.names)
                elif isinstance(node, ast.Import):
                    imported.update(a.name for a in node.names)
            assert not imported & forbidden, module.__name__


class TestPublishedGamma:
    def test_matrix_families_agree(self):
        for d in (CD("I", 2, 3), CD("I", 1, 4), CD("II", 6), CD("III", 5)):
            assert gamma(d) == published_gamma(d)
            assert gamma_report(d)["matches_published"] is True

    @pytest.mark.parametrize("dim", range(4, 10))
    def test_spin_tables_flagged(self, dim):
        # the tabulated spin values attach u0 to the wrong parity; computed
        # and tabulated must disagree in every spin dimension
        report = gamma_report(CD("IV", dim))
        assert report["matches_published"] is False

    def test_published_values(self):
        assert published_gamma(CD("IV", 5)) == frozenset({(2,)})
        assert published_gamma(CD("IV", 6)) == frozenset({(2, 2), (4, 4)})
        assert published_gamma(CD("III", 1)) == frozenset({(1,), (2,)})


class TestAssembly:
    def test_single_rectangular(self):
        inv = k_grid_invariant(spec("I(2,2)"))
        assert inv.group.k == 2
        assert inv.group.left_caps == (2, 2) and inv.group.right_caps == (2, 2)
        assert inv.gamma == frozenset({(1, 1)})
        assert inv.exceptional_count == 0

    def test_padding_union(self):
        inv = k_grid_invariant(spec("I(1,1)+I(1,1)"))
        assert inv.group.left_caps == (1, 1)
        assert inv.gamma == frozenset({(1, 0), (0, 1)})

    def test_additivity_is_padded_union(self):
        from kgrid.cartan import enveloping_tro

        parts = [CD("I", 2, 3), CD("III", 4)]
        inv = k_grid_invariant(TripleSpec(tuple(parts)))
        # recompute the padding by hand
        expected = set()
        offset = 0
        total = inv.group.k
        for d in sorted(parts, key=CartanDescriptor.sort_key):
            width = len(enveloping_tro(d).summands)
            for cls in gamma(d):
                vec = [0] * total
                vec[offset:offset + width] = cls
                expected.add(tuple(vec))
            offset += width
        assert inv.gamma == frozenset(expected)

    def test_gamma_inside_left_scale(self):
        for text in ("I(2,3)+IV(6)", "II(5)+III(2)", "I(1,4)+IV(5)"):
            inv = k_grid_invariant(spec(text))
            for cls in inv.gamma:
                assert inv.group.in_left_scale(cls)

    def test_exceptional_only(self):
        inv = k_grid_invariant(spec("V"))
        assert inv.group.k == 0
        assert inv.gamma == frozenset()
        assert inv.exceptional_count == 1

    def test_exceptional_mixed(self):
        inv = k_grid_invariant(spec("I(2,2)+V+VI"))
        assert inv.group.k == 2
        assert inv.exceptional_count == 2

    @pytest.mark.parametrize("left,right,cls", [
        ((1,), (1,), (1, 1)),
        ((3, 4), (4, 3), (1,)),
    ], ids=["too-long", "too-short"])
    def test_class_length_is_the_group_rank(self, left, right, cls):
        group = DoubleScaledGroup(left, right)
        with pytest.raises(ValueError, match=f"every grid class needs {len(left)} entries"):
            KGridInvariant(group, frozenset({cls}))

    @pytest.mark.parametrize("count", [-1, True, 1.5])
    def test_exceptional_count_is_a_non_negative_int(self, count):
        group = DoubleScaledGroup((3,), (3,))
        with pytest.raises(ValueError, match="exceptional_count must be a non-negative int"):
            KGridInvariant(group, frozenset({(1,), (2,)}), count)


class TestIsomorphismSearch:
    def test_identity(self):
        a = k_grid_invariant(spec("I(2,3)"))
        assert invariants_isomorphic(a, a) == (0, 1)
        a = k_grid_invariant(spec("I(1,3)+I(1,3)+IV(6)"))
        assert invariants_isomorphic(a, a) == tuple(range(a.group.k))

    def test_reordering(self):
        a = k_grid_invariant(spec("I(2,3)+I(1,1)"))
        b = k_grid_invariant(spec("I(1,1)+I(2,3)"))
        # canonical assembly sorts factors, so both are already aligned
        assert invariants_isomorphic(a, b) is not None

    def test_caps_mismatch(self):
        a = k_grid_invariant(spec("III(3)"))
        b = k_grid_invariant(spec("II(5)"))
        assert invariants_isomorphic(a, b) is None

    def test_gamma_distinguishes(self):
        # II(8), III(8) and IV(7) share the caps (8, 8); gamma separates them
        a = k_grid_invariant(spec("II(8)"))
        b = k_grid_invariant(spec("III(8)"))
        c = k_grid_invariant(spec("IV(7)"))
        assert invariants_isomorphic(a, b) is None
        assert invariants_isomorphic(a, c) is None
        assert invariants_isomorphic(b, c) is None

    def test_witness_permutes_gamma(self):
        a = k_grid_invariant(spec("I(1,2)+III(2)"))
        b = k_grid_invariant(spec("III(2)+I(1,2)"))
        perm = invariants_isomorphic(a, b)
        assert perm is not None
        mapped = set()
        for cls in a.gamma:
            vec = [0] * a.group.k
            for i, v in enumerate(cls):
                vec[perm[i]] = v
            mapped.add(tuple(vec))
        assert mapped == b.gamma


class TestClassify:
    def test_multiset_reorder(self):
        v = classify(spec("I(2,3)+III(4)"), spec("III(4)+I(2,3)"))
        assert v.status == "ISOMORPHIC" and v.exit_code == 0
        assert v.witness is not None

    def test_transpose_identified(self):
        assert classify(spec("I(3,2)"), spec("I(2,3)")).status == "ISOMORPHIC"

    def test_spin_coincidence(self):
        assert classify(spec("IV(4)"), spec("I(2,2)")).status == "ISOMORPHIC"

    def test_remark_style_distinguishable(self):
        v = classify(spec("I(1,2)+I(2,1)"), spec("I(1,1)+I(2,2)"))
        assert v.status == "NOT_ISOMORPHIC" and v.exit_code == 1
        assert v.distinguishing == "caps"

    def test_gamma_distinguishing_datum(self):
        v = classify(spec("III(8)"), spec("II(8)"))
        assert v.status == "NOT_ISOMORPHIC"
        assert v.distinguishing == "gamma"

    def test_exceptional_count_differs(self):
        v = classify(spec("I(2,2)+V"), spec("I(2,2)"))
        assert v.status == "NOT_ISOMORPHIC"
        assert v.distinguishing == "exceptional_count"

    def test_exceptional_indeterminate(self):
        v = classify(spec("V"), spec("VI"))
        assert v.status == "INDETERMINATE" and v.exit_code == 2
        v = classify(spec("I(2,2)+V"), spec("I(2,2)+VI"))
        assert v.status == "INDETERMINATE"


class TestDecisionProperties:
    # the isomorphism decision over a slice of the catalog: symmetric, and
    # every witness actually transports the invariant
    SPECS = [
        "I(2,2)", "I(2,3)", "I(3,2)", "I(1,3)", "I(1,1)+I(1,1)",
        "II(5)", "III(2)", "III(3)", "IV(4)", "IV(5)", "IV(6)",
        "I(2,2)+III(3)", "III(3)+I(2,2)", "II(5)+III(6)", "II(6)+III(5)",
    ]

    def test_symmetric(self):
        invs = [k_grid_invariant(spec(t)) for t in self.SPECS]
        for a in invs:
            for b in invs:
                ab = invariants_isomorphic(a, b)
                ba = invariants_isomorphic(b, a)
                assert (ab is None) == (ba is None)

    def test_witnesses_transport_everything(self):
        invs = [k_grid_invariant(spec(t)) for t in self.SPECS]
        for a in invs:
            for b in invs:
                perm = invariants_isomorphic(a, b)
                if perm is not None:
                    assert_witness(a, b, perm)

    def test_classify_verdicts_symmetric(self):
        specs = [spec(t) for t in self.SPECS]
        for s1 in specs:
            for s2 in specs:
                assert classify(s1, s2).status == classify(s2, s1).status


class TestRecovery:
    def test_hermitian_from_raw_invariant(self):
        inv = KGridInvariant(DoubleScaledGroup((3,), (3,)),
                             frozenset({(1,), (2,)}))
        assert recover_factors(inv) == TripleSpec((CD("III", 3),))

    def test_rectangular_from_raw_invariant(self):
        inv = KGridInvariant(DoubleScaledGroup((3, 4), (4, 3)),
                             frozenset({(1, 1)}))
        assert recover_factors(inv) == TripleSpec((CD("I", 3, 4),))

    def test_binomial_pattern(self):
        inv = k_grid_invariant(spec("I(1,4)"))
        assert recover_factors(inv) == TripleSpec((CD("I", 1, 4),))

    def test_mixed_spec(self):
        s = spec("IV(7)+I(1,3)+II(5)")
        assert recover_factors(k_grid_invariant(s)) == canonicalize_spec(s)

    def test_coincidence_canonicalized(self):
        assert recover_factors(k_grid_invariant(spec("IV(4)"))) == \
            TripleSpec((CD("I", 2, 2),))

    def test_unknown_rejected(self):
        inv = KGridInvariant(DoubleScaledGroup((5,), (5,)),
                             frozenset({(3,)}))
        with pytest.raises(UnknownFactorError):
            recover_factors(inv)

    def test_straddling_class_rejected(self):
        inv = KGridInvariant(DoubleScaledGroup((3, 3), (3, 3)),
                             frozenset({(1, 1), (2, 2)}))
        with pytest.raises(UnknownFactorError):
            recover_factors(inv)

    def test_exceptional_content_rejected(self):
        inv = k_grid_invariant(spec("I(2,2)+V"))
        with pytest.raises(UnknownFactorError):
            recover_factors(inv)

    def test_factor_block_is_the_factors_own_block(self, capsys):
        # the block recovery matches against, built without an invariant, is
        # the one block that the union-find finds in the factor's dense gamma
        assert run(["table", "--hilbert-max", "12", "--spin-max", "16",
                    "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        for row in rows:
            f = parse_triple_spec(row["factor"]).factors[0]
            inv = k_grid_invariant(TripleSpec((f,)))
            dense = KGridInvariant(inv.group, inv.gamma, inv.exceptional_count)
            assert dense.blocks == (_factor_block(f),), f


class TestShuffledSummands:
    # invariants assembled from factors, with their summands in any order

    @pytest.mark.parametrize("seed", range(12))
    def test_shuffled_multisets(self, seed):
        rng = random.Random(seed)
        pool = rng.sample(catalog_descriptors(), 4)  # few kinds: many repeats
        s = TripleSpec(tuple(rng.choice(pool) for _ in range(rng.randint(2, 6))))
        a = k_grid_invariant(s)
        b = shuffled(a, rng)
        assert_witness(a, b, invariants_isomorphic(a, b))
        assert_witness(b, a, invariants_isomorphic(b, a))
        assert recover_factors(b) == canonicalize_spec(s)

    @pytest.mark.parametrize("text", ["IV(6)+IV(6)", "I(3,3)+I(3,3)"])
    def test_cap_tied_blocks(self, text):
        # all four summands share one cap pair; only the classes tell the
        # two blocks apart
        a = k_grid_invariant(spec(text))
        rng = random.Random(text)
        for _ in range(10):
            b = shuffled(a, rng)
            assert_witness(a, b, invariants_isomorphic(a, b))
            assert recover_factors(b) == canonicalize_spec(spec(text))

    def test_near_collision_stays_apart(self):
        a = k_grid_invariant(spec("II(5)+III(6)"))
        b = k_grid_invariant(spec("II(6)+III(5)"))
        rng = random.Random(11)
        for _ in range(4):
            a2, b2 = shuffled(a, rng), shuffled(b, rng)
            assert invariants_isomorphic(a2, b2) is None
            assert invariants_isomorphic(b2, a2) is None
            assert recover_factors(b2) == canonicalize_spec(spec("II(6)+III(5)"))

    def test_reversed_summands_recovered(self):
        s = spec("I(1,3)+I(2,3)+IV(6)")
        a = k_grid_invariant(s)
        b = permuted(a, list(reversed(range(a.group.k))))
        assert_witness(a, b, invariants_isomorphic(a, b))
        assert recover_factors(b) == canonicalize_spec(s)

    def test_six_rank_one_copies_fast(self):
        a = k_grid_invariant(TripleSpec((CD("I", 1, 3),) * 6))
        b = shuffled(a, random.Random(6))
        start = time.perf_counter()
        perm = invariants_isomorphic(a, b)
        assert time.perf_counter() - start < 2.0
        assert_witness(a, b, perm)

    def test_hundred_factors_fast(self):
        rng = random.Random(100)
        s = TripleSpec(tuple(rng.choice(catalog_descriptors()) for _ in range(100)))
        a = k_grid_invariant(s)
        b = shuffled(a, rng)
        start = time.perf_counter()
        perm = invariants_isomorphic(a, b)
        recovered = recover_factors(b)
        assert time.perf_counter() - start < 1.0
        assert_witness(a, b, perm)
        assert recovered == canonicalize_spec(s)

    def test_zero_class_rejected(self):
        inv = KGridInvariant(DoubleScaledGroup((3,), (3,)),
                             frozenset({(0,), (1,), (2,)}))
        with pytest.raises(UnknownFactorError):
            recover_factors(inv)


# --- stored factor blocks against the dense union-find ---------------------------

def reference_blocks(group, gamma) -> list:
    """The factor blocks of a dense gamma by the union-find that recovery and
    isomorphism ran on every call before blocks were stored: connected
    components of the gamma-support graph, ordered by their first summand,
    each (columns, caps, classes restricted to the columns)."""
    root = list(range(group.k))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    supports = [[i for i, v in enumerate(c) if v] for c in gamma]
    for support in supports:
        for i in support[1:]:
            root[find(i)] = find(support[0])
    columns: dict = {}
    for i in range(group.k):
        columns.setdefault(find(i), []).append(i)
    classes: dict = {r: set() for r in columns}
    for cls, support in zip(gamma, supports):
        if support:
            r = find(support[0])
            classes[r].add(tuple(cls[i] for i in columns[r]))
    pairs = list(zip(group.left_caps, group.right_caps))
    return [(tuple(cols), tuple(pairs[i] for i in cols), frozenset(classes[r]))
            for r, cols in columns.items()]


def reference_quick_key(group, gamma) -> tuple:
    """The quick key of the dense gamma: sorted cap pairs, sorted sorted classes."""
    return (tuple(sorted(zip(group.left_caps, group.right_caps))),
            tuple(sorted(tuple(sorted(c)) for c in gamma)))


def reference_recover(group, gamma, exceptional_count):
    """recover_factors on the dense gamma, block by reference block; returns
    the canonical multiset or the exception type."""
    if exceptional_count or group.k == 0 or (0,) * group.k in gamma:
        return UnknownFactorError
    factors = []
    for block in reference_blocks(group, gamma):
        matches = [f for f in _candidates(sorted(block[1]))
                   if _match_block(block, _factor_block(f)) is not None]
        if len(matches) != 1:
            return UnknownFactorError
        factors.append(matches[0])
    return canonicalize_spec(TripleSpec(tuple(factors)))


def recovered(inv):
    try:
        return recover_factors(inv)
    except UnknownFactorError:
        return UnknownFactorError


def assert_matches_dense(inv):
    """inv's stored blocks, key, equality and hash are those of its dense gamma."""
    dense = KGridInvariant(inv.group, inv.gamma, inv.exceptional_count)
    assert inv.blocks == tuple(reference_blocks(inv.group, inv.gamma)) == dense.blocks
    assert inv == dense and hash(inv) == hash(dense)
    # past the cache: equal invariants share its entry
    assert _quick_key.__wrapped__(inv) == _quick_key.__wrapped__(dense) == \
        reference_quick_key(inv.group, inv.gamma)


class TestStoredBlocks:
    def test_catalog_multisets_up_to_three(self):
        for s in catalog_multisets(3):
            assert_matches_dense(k_grid_invariant(s))

    def test_four_factor_sample(self):
        four = list(combinations_with_replacement(catalog_descriptors(), 4))
        for combo in random.Random(4).sample(four, 600):
            assert_matches_dense(k_grid_invariant(TripleSpec(combo)))

    @pytest.mark.parametrize("text", ["V", "V+VI+V", "I(2,2)+V", "IV(6)+I(1,3)+VI"])
    def test_exceptional_content(self, text):
        assert_matches_dense(k_grid_invariant(spec(text)))

    def test_assembled_blocks_share_the_factor_block(self):
        inv = k_grid_invariant(spec("I(1,3)+IV(6)+I(1,3)"))
        for block, f in zip(inv.blocks, canonicalize_spec(spec("I(1,3)+IV(6)+I(1,3)")).factors):
            assert block[1] is _factor_block(f)[1] and block[2] is _factor_block(f)[2]

    def test_gamma_is_not_kept(self):
        inv = k_grid_invariant(spec("I(2,3)+III(4)"))
        assert inv.gamma == inv.gamma and inv.gamma is not inv.gamma
        assert not hasattr(inv, "__dict__")


CAP_VALUES = st.integers(1, 4)


@st.composite
def raw_invariants(draw):
    """(group, gamma) with random caps and classes; the zero class and
    classes straddling several summands included."""
    k = draw(st.integers(0, 6))
    caps = draw(st.lists(st.tuples(CAP_VALUES, CAP_VALUES), min_size=k, max_size=k))
    group = DoubleScaledGroup(tuple(n for n, _ in caps), tuple(m for _, m in caps))
    cls = st.lists(st.integers(0, 3), min_size=k, max_size=k).map(tuple)
    gamma = draw(st.frozensets(cls, max_size=5))
    if draw(st.booleans()):
        gamma |= {(0,) * k}
    return group, gamma


@st.composite
def shuffled_assembled(draw):
    """A factor multiset's dense gamma with its summands permuted, sometimes
    with a class added or removed."""
    factors = draw(st.lists(st.sampled_from(catalog_descriptors()), min_size=1, max_size=4))
    inv = k_grid_invariant(TripleSpec(tuple(factors)))
    sigma = draw(st.permutations(range(inv.group.k)))
    moved = permuted(inv, sigma)
    gamma = moved.gamma
    edit = draw(st.sampled_from(["none", "zero", "drop", "add"]))
    if edit == "zero":
        gamma |= {(0,) * inv.group.k}
    elif edit == "drop":
        gamma -= {draw(st.sampled_from(sorted(gamma)))}
    elif edit == "add":
        gamma |= {tuple(draw(st.lists(st.integers(0, 2), min_size=inv.group.k,
                                      max_size=inv.group.k)))}
    return moved.group, gamma


class TestCallerBuilt:
    @given(st.one_of(raw_invariants(), shuffled_assembled()))
    def test_against_dense_reference(self, raw):
        group, gamma = raw
        inv = KGridInvariant(group, gamma)
        assert inv.gamma == gamma
        assert inv.zero_class == ((0,) * group.k in gamma)
        assert inv.blocks == tuple(reference_blocks(group, gamma))
        assert _quick_key.__wrapped__(inv) == reference_quick_key(group, gamma)
        assert recovered(inv) == reference_recover(group, gamma, 0)
        assert recovered(KGridInvariant(group, gamma, 1)) is UnknownFactorError

    @given(raw_invariants(), st.data())
    def test_equality_is_dense_equality(self, raw, data):
        group, gamma = raw
        other = data.draw(st.sampled_from([gamma, frozenset(sorted(gamma, reverse=True)),
                                           gamma - {max(gamma, default=None)},
                                           gamma | {(1,) * group.k}]))
        a, b = KGridInvariant(group, gamma), KGridInvariant(group, other)
        assert (a == b) == (gamma == other)
        if a == b:
            assert hash(a) == hash(b)


# --- recovery oracle and scaling ---------------------------------------------------

class TestRecoveryOracle:
    @pytest.mark.parametrize("d", _oracle_factors(), ids=str)
    def test_factor_is_its_own_candidate_and_recovered(self, d):
        f = canonicalize_factor(d)
        assert f in _candidates(sorted(enveloping_tro(d).summands))
        assert recover_factors(k_grid_invariant(TripleSpec((d,)))) == TripleSpec((f,))


def test_four_thousand_factors_assemble_and_recover_fast():
    rng = random.Random(0)
    s = TripleSpec(tuple(rng.choice(catalog_descriptors()) for _ in range(4000)))
    start = time.perf_counter()
    recovered_spec = recover_factors(k_grid_invariant(s))
    assert time.perf_counter() - start < 2.0
    assert recovered_spec == canonicalize_spec(s)
