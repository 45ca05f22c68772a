import ast
import importlib
import json
import pkgutil
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb
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
    intrinsic_dim,
    parse_triple_spec,
)
from kgrid.catalog import catalog_descriptors, catalog_multisets
import kgrid
from kgrid import cartan, invariant
from kgrid.cli import run
from kgrid.grids import grid_for, grid_gamma
from kgrid.invariant import (
    KGridInvariant,
    UnknownFactorError,
    classify,
    classify_invariants,
    gamma,
    gamma_report,
    invariants_isomorphic,
    k_grid_invariant,
    published_gamma,
    recover_factors,
)
from kgrid.invariant import (
    _block_factors,
    _candidates,
    _factor_parts,
    _match_block,
    _sorted_key,
)
from kgrid.ktheory import DoubleScaledGroup
from kgrid.tro import range_projection

from .spin import standard_spin_system, to_matrix, word_matrices


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

    def test_rank_one_classes_are_comb(self):
        for h in range(1, 61):
            row = frozenset({tuple(comb(h - 1, t) for t in range(h))})
            assert gamma(CD("I", 1, h)) == gamma(CD("I", h, 1)) == row, h

    def test_hermitian(self):
        assert gamma(CD("III", 4)) == frozenset({(1,), (2,)})

    def test_symplectic(self):
        assert gamma(CD("II", 5)) == frozenset({(2,)})

    def test_spin_odd_by_oracle(self):
        d = CD("IV", 5)
        g = grid_for(d)
        words = word_matrices(standard_spin_system(d))
        oracle = set()
        for e in g.elements:
            p = to_matrix(words, range_projection(e))
            oracle.add(tuple(projection_trace_rank(b) for b in p.blocks))
        assert grid_gamma(g) == frozenset(oracle) == frozenset({(2,), (4,)})

    def test_spin_even_by_oracle(self):
        d = CD("IV", 6)
        g = grid_for(d)
        words = word_matrices(standard_spin_system(d))
        oracle = set()
        for e in g.elements:
            p = to_matrix(words, range_projection(e))
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
        for d in sorted(parts):
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


class TestKeptVerdicts:
    # two spellings of one multiset share their assembled invariant, whose
    # verdict against itself is kept, as are the caps and gamma refusals;
    # each equals the verdict of the general path on a dense copy
    def test_against_itself(self):
        rng = random.Random(22)
        multisets = list(catalog_multisets(2)) + [
            spec(text) for text in ("V", "V+VI", "I(2,2)+V", "IV(6)+VI+I(1,3)")]
        for s in multisets:
            t = raw_spelling(s.factors, rng)
            inv = k_grid_invariant(s)
            dense = KGridInvariant(inv.group, inv.gamma, inv.exceptional_count)
            v = classify(s, t)
            assert v is classify(t, s), s
            assert v == classify_invariants(inv, dense) == classify_invariants(dense, inv), s
            assert v.witness == tuple(range(inv.group.k))

    @pytest.mark.parametrize("a, b, reason, detail", [
        ("I(1,2)+I(2,1)", "I(1,1)+I(2,2)", "caps",
         "double-scaled groups differ (summand dimension pairs)"),
        ("III(8)", "II(8)", "gamma", "groups match but no cap-preserving "
                                     "permutation maps the grid classes onto each other"),
    ], ids=["caps", "gamma"])
    def test_refusals(self, a, b, reason, detail):
        v = classify(spec(a), spec(b))
        assert v is classify(spec(b), spec(a))
        assert v.to_dict() == {"verdict": "NOT_ISOMORPHIC", "witness": None,
                               "distinguishing": reason, "detail": detail}
        inv = k_grid_invariant(spec(b))
        assert v == classify_invariants(
            k_grid_invariant(spec(a)), KGridInvariant(inv.group, inv.gamma))


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
            assert dense.blocks == (_factor_parts(f)[0],), f


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
        for _ in range(2):  # the second call reads the recovery memo
            assert recover_factors(b) == reference_recover(b.group, b.gamma, 0) == \
                canonicalize_spec(s)

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


def compact_key(key) -> tuple:
    """A dense quick key with the zeros dropped from each sorted class, the
    classes sorted again: for a fixed k a bijection on dense keys."""
    caps, classes = key
    return caps, tuple(sorted(tuple(v for v in c if v) for c in classes))


def reference_recover(group, gamma, exceptional_count):
    """recover_factors on the dense gamma, block by reference block and by
    the unmemoized block search; returns the canonical multiset or the
    exception type."""
    if exceptional_count or group.k == 0 or (0,) * group.k in gamma:
        return UnknownFactorError
    factors = []
    for block in reference_blocks(group, gamma):
        matches = [f for f in _candidates(tuple(sorted(block[1])))
                   if _match_block.__wrapped__(*block[1:], *_factor_parts(f)[0][1:])
                   is not None]
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
    # each invariant keeps its own key, built from its blocks
    assert inv._key == dense._key == \
        compact_key(reference_quick_key(inv.group, inv.gamma))


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
            assert block[1] is _factor_parts(f)[0][1] and block[2] is _factor_parts(f)[0][2]

    def test_gamma_is_not_kept(self):
        inv = k_grid_invariant(spec("I(2,3)+III(4)"))
        assert inv.gamma == inv.gamma and inv.gamma is not inv.gamma
        assert not hasattr(inv, "__dict__")


# every raw spelling of each canonical factor of the catalog, V and VI: its
# transpose, III(1) for I(1,1) and IV(4) for I(2,2)
RAW_SPELLINGS: dict = {}
for _d in catalog_descriptors() + (CD("III", 1), CD("V"), CD("VI")):
    RAW_SPELLINGS.setdefault(canonicalize_factor(_d), []).append(_d)


def raw_spelling(factors, rng):
    """The multiset of factors with each spelled at random, shuffled."""
    factors = [rng.choice(RAW_SPELLINGS[canonicalize_factor(f)]) for f in factors]
    rng.shuffle(factors)
    return TripleSpec(tuple(factors))


EXCEPTIONAL_EXTRAS = ((), (), (CD("V"),), (CD("VI"),))


class TestAssemblyOracle:
    # an invariant assembled from factor parts is the dense one, built with
    # full validation and the union-find, and its key is set at assembly
    def assert_assembled_is_dense(self, multisets):
        invariant._invariant_of_canonical.cache_clear()
        for s in multisets:
            inv = k_grid_invariant(s)
            dense = KGridInvariant(inv.group, inv.gamma, inv.exceptional_count)
            assert inv == dense and hash(inv) == hash(dense), s
            assert inv._key == dense._key, s

    def test_catalog_multisets_up_to_three(self):
        rng = random.Random(21)
        self.assert_assembled_is_dense(
            raw_spelling(s.factors + rng.choice(EXCEPTIONAL_EXTRAS), rng)
            for s in catalog_multisets(3))

    def test_four_factor_draws(self):
        rng = random.Random(2021)
        descs = catalog_descriptors()
        self.assert_assembled_is_dense(
            raw_spelling(tuple(rng.choice(descs) for _ in range(4))
                         + rng.choice(EXCEPTIONAL_EXTRAS), rng)
            for _ in range(2000))


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


@st.composite
def key_pairs(draw):
    """Two raw invariants with negative and repeated entries, often two
    classes with equal sorted entries, and the zero class sometimes.  The
    second is the first with its summands permuted and each class's entries
    permuted on their own (equal dense keys, other blocks), the first with
    each class sorted (which merges classes with equal sorted
    entries), one entry changed, one class dropped or the zero class toggled,
    or a fresh draw with any k."""
    def raw(k):
        caps = draw(st.lists(st.tuples(CAP_VALUES, CAP_VALUES), min_size=k, max_size=k))
        group = DoubleScaledGroup(tuple(n for n, _ in caps), tuple(m for _, m in caps))
        cls = st.lists(st.integers(-2, 2), min_size=k, max_size=k).map(tuple)
        gamma = draw(st.frozensets(cls, max_size=5))
        if gamma and draw(st.booleans()):
            gamma |= {tuple(draw(st.permutations(draw(st.sampled_from(sorted(gamma))))))}
        return group, gamma | ({(0,) * k} if draw(st.booleans()) else set())

    group, gamma = raw(draw(st.integers(0, 5)))
    k = group.k
    edit = draw(st.sampled_from(["scramble", "sort", "change", "drop", "zero", "fresh"]))
    if edit == "scramble":
        sigma = draw(st.permutations(range(k)))
        left, right = [0] * k, [0] * k
        for i, j in enumerate(sigma):
            left[j], right[j] = group.left_caps[i], group.right_caps[i]
        other = frozenset(tuple(draw(st.permutations(c))) for c in gamma)
        return (group, gamma), (DoubleScaledGroup(tuple(left), tuple(right)), other)
    if edit == "sort":
        return (group, gamma), (group, frozenset(tuple(sorted(c)) for c in gamma))
    if edit == "change" and gamma and k:
        old = draw(st.sampled_from(sorted(gamma)))
        i = draw(st.integers(0, k - 1))
        new = old[:i] + (draw(st.integers(-2, 2)),) + old[i + 1:]
        return (group, gamma), (group, gamma - {old} | {new})
    if edit == "drop" and gamma:
        return (group, gamma), (group, gamma - {draw(st.sampled_from(sorted(gamma)))})
    if edit == "zero":
        return (group, gamma), (group, gamma ^ {(0,) * k})
    return (group, gamma), raw(draw(st.integers(0, 5)))


class TestCallerBuilt:
    def test_classes_must_be_tuples(self):
        # a list zero class was missed, while the other classes were kept
        with pytest.raises(ValueError, match=r"grid classes must be tuples, got \["):
            KGridInvariant(DoubleScaledGroup((1, 1), (1, 1)), [[0, 0], [1, 0]])

    @given(st.one_of(raw_invariants(), shuffled_assembled()))
    def test_against_dense_reference(self, raw):
        group, gamma = raw
        inv = KGridInvariant(group, gamma)
        assert inv.gamma == gamma
        assert inv.zero_class == ((0,) * group.k in gamma)
        assert inv.blocks == tuple(reference_blocks(group, gamma))
        assert inv._key == compact_key(reference_quick_key(group, gamma))
        assert recovered(inv) == reference_recover(group, gamma, 0)
        assert recovered(inv) == reference_recover(group, gamma, 0)  # memo hit
        assert recovered(KGridInvariant(group, gamma, 1)) is UnknownFactorError

    @given(key_pairs())
    def test_key_equality_is_dense_key_equality(self, pair):
        (group_a, gamma_a), (group_b, gamma_b) = pair
        a, b = KGridInvariant(group_a, gamma_a), KGridInvariant(group_b, gamma_b)
        assert (a._key == b._key) == \
            (reference_quick_key(group_a, gamma_a) == reference_quick_key(group_b, gamma_b))

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


# --- one key rule -------------------------------------------------------------------

def reference_sorted_key(caps, classes) -> tuple:
    """The block key that keeps the zeros: sorted cap pairs, sorted sorted classes."""
    return (tuple(sorted(caps)), tuple(sorted(tuple(sorted(c)) for c in classes)))


def seeded_raw(rng, k):
    """(group, gamma) on k summands with caps of two values, so that blocks
    share caps, entries in -1..2, many of them zero, and the zero class
    about half the time."""
    caps = [rng.choice(((1, 1), (2, 2))) for _ in range(k)]
    group = DoubleScaledGroup(tuple(n for n, _ in caps), tuple(m for _, m in caps))
    gamma = {tuple(rng.choice((0, 0, 1, 2, -1)) for _ in range(k))
             for _ in range(rng.randint(0, 5))}
    if rng.random() < 0.5:
        gamma.add((0,) * k)
    return group, frozenset(gamma)


class TestKeyRule:
    # one rule keys blocks and invariants: an invariant's key merges its
    # blocks' keys, plus () for a zero class, and is set when it is built

    def test_key_is_set_at_construction(self):
        rng = random.Random(30)
        zero_classes = 0
        for _ in range(500):
            group, gamma = seeded_raw(rng, rng.randint(0, 6))
            inv = KGridInvariant(group, gamma)
            assert inv._key == compact_key(reference_quick_key(group, gamma)), gamma
            zero_classes += inv.zero_class
        assert 0 < zero_classes < 500

    def test_block_keys_are_equal_as_the_zero_keeping_keys(self):
        # blocks of equal sorted caps and up to 7 columns: the second one's
        # caps permuted, and its classes each permuted, one entry changed,
        # or drawn afresh
        rng = random.Random(31)

        def classes(width):
            return frozenset(tuple(rng.choice((0, 0, 1, 2, -1)) for _ in range(width))
                             for _ in range(rng.randint(0, 4)))
        outcomes = set()
        for _ in range(3000):
            width = rng.randint(1, 7)
            caps = tuple(rng.choice(((1, 1), (2, 2), (1, 2))) for _ in range(width))
            a = classes(width)
            edit = rng.choice(["permute", "change", "fresh"])
            if edit == "permute":
                b = frozenset(tuple(rng.sample(c, width)) for c in a)
            elif edit == "change" and a:
                old, i = rng.choice(sorted(a)), rng.randrange(width)
                b = a - {old} | {old[:i] + (rng.choice((0, 1, -1)),) + old[i + 1:]}
            else:
                b = classes(width)
            other = tuple(rng.sample(caps, width))
            same = _sorted_key(caps, a) == _sorted_key(other, b)
            assert same == (reference_sorted_key(caps, a) == reference_sorted_key(other, b))
            outcomes.add(same)
        assert outcomes == {True, False}

    def test_buckets_are_the_zero_keeping_rules(self, monkeypatch):
        # shuffled raw invariants, some with a class dropped or an entry
        # changed first, or drawn afresh: bucketing blocks by the
        # zero-keeping key gives the same verdicts and witnesses
        rng = random.Random(32)
        pairs = []
        for _ in range(2000):
            group, gamma = seeded_raw(rng, rng.randint(1, 6))
            a = KGridInvariant(group, gamma, rng.choice((0, 0, 0, 1)))
            edit = rng.choice(["none", "none", "drop", "change", "fresh"])
            if edit == "fresh":
                group, gamma = seeded_raw(rng, group.k)
            elif edit == "drop" and gamma:
                gamma = gamma - {rng.choice(sorted(gamma))}
            elif edit == "change" and gamma:
                old, i = rng.choice(sorted(gamma)), rng.randrange(group.k)
                gamma = gamma - {old} | {old[:i] + (rng.choice((0, 1, 2)),) + old[i + 1:]}
            pairs.append((a, shuffled(KGridInvariant(group, gamma, a.exceptional_count), rng)))
        verdicts = [classify_invariants(a, b) for a, b in pairs]
        monkeypatch.setattr(invariant, "_sorted_key", reference_sorted_key)
        assert verdicts == [classify_invariants(a, b) for a, b in pairs]
        assert {v.status for v in verdicts} == {"ISOMORPHIC", "NOT_ISOMORPHIC",
                                               "INDETERMINATE"}
        assert {v.distinguishing for v in verdicts} >= {"caps", "gamma"}


# --- recovery memo ------------------------------------------------------------------

def stranded(block_caps, block_classes):
    """Raw invariants holding one block alone at column 0, and after I(1,1)
    at column 1."""
    lone = KGridInvariant(DoubleScaledGroup(tuple(n for n, _ in block_caps),
                                            tuple(m for _, m in block_caps)),
                          frozenset(block_classes))
    after = KGridInvariant(DoubleScaledGroup((1,) + lone.group.left_caps,
                                             (1,) + lone.group.right_caps),
                           frozenset({(1,) + (0,) * len(block_caps)}
                                     | {(0,) + c for c in block_classes}))
    return lone, after


class TestRecoveryMemo:
    def assert_refusals_name_own_columns(self, lone, after, what):
        # the block sits at column 0 of `lone` and at column 1 of `after`;
        # the second refusal of each pair reads the memo
        for pair in ((lone, 0), (after, 1)), ((after, 1), (lone, 0)):
            hits = _block_factors.cache_info().hits
            for inv, column in pair:
                with pytest.raises(UnknownFactorError,
                                   match=rf"{what} block of summands \[{column}\]"):
                    recover_factors(inv)
            assert _block_factors.cache_info().hits > hits

    def test_unknown_block_message_names_its_columns(self):
        lone, after = stranded([(5, 5)], [(3,)])
        self.assert_refusals_name_own_columns(lone, after, "matches the")

    def test_ambiguous_block_message_names_its_columns(self, monkeypatch):
        # no two supported factors share a block, so offer III(3) twice
        real = invariant._candidates
        monkeypatch.setattr(invariant, "_candidates",
                            lambda caps: real(caps) * (2 if caps == ((3, 3),) else 1))
        _block_factors.cache_clear()
        try:
            lone, after = stranded([(3, 3)], [(1,), (2,)])
            self.assert_refusals_name_own_columns(lone, after, "ambiguous")
        finally:
            _block_factors.cache_clear()

    def test_memo_is_bounded(self):
        # the inventory of kgrid's functools caches, each with its maxsize:
        # a cache added, removed or resized shows here
        caches = {}
        for module in pkgutil.iter_modules(kgrid.__path__):
            for value in vars(importlib.import_module(f"kgrid.{module.name}")).values():
                if hasattr(value, "cache_info"):
                    caches[f"{value.__module__}.{value.__qualname__}"] = \
                        value.cache_info().maxsize
        assert caches == {
            "kgrid.cartan.embedded_basis": None,
            "kgrid.cartan.hilbert_frame": None,
            "kgrid.invariant.gamma": None,
            "kgrid.invariant._factor_parts": None,
            "kgrid.invariant._canonical": None,
            "kgrid.invariant._invariant_of_canonical": None,
            "kgrid.invariant._block_factors": 4096,
            "kgrid.invariant._candidates": 4096,
            "kgrid.invariant._match_block": 4096,
            "kgrid.invariant._shared": 4096,
            "kgrid.invariant._sorted_key": 4096,
            "kgrid.invariant._identity_verdict": 256,
        }


# --- block matching memo -----------------------------------------------------------

MEMO_FACTORS = (CD("I", 1, 4), CD("IV", 7), CD("III", 3))
MEMO_PADDING = (CD("III", 2), CD("III", 4), CD("III", 5), CD("IV", 5))


class TestBlockMatchMemo:
    """``_match_block`` and ``_sorted_key`` are memoized by the value of
    their parts; the memo answers as the search does."""

    @pytest.mark.parametrize("seed", range(6))
    def test_answers_are_the_searchs(self, seed, monkeypatch):
        # copies of a small factor, padded, against shuffled copies of
        # themselves, plus a shuffled near collision; then the same pairs
        # with every memo of the block path replaced by its own search
        rng = random.Random(seed)
        pairs = []
        for factor in MEMO_FACTORS:
            s = TripleSpec((factor,) * rng.randint(2, 4) + tuple(rng.sample(MEMO_PADDING, 2)))
            a = k_grid_invariant(s)
            pairs += [(a, shuffled(a, rng)), (shuffled(a, rng), shuffled(a, rng))]
        pairs.append((shuffled(k_grid_invariant(spec("II(5)+III(6)")), rng),
                      shuffled(k_grid_invariant(spec("II(6)+III(5)")), rng)))
        _match_block.cache_clear()
        _sorted_key.cache_clear()
        memoized = [(invariants_isomorphic(a, b), recovered(b)) for a, b in pairs]
        for name in ("_match_block", "_sorted_key", "_block_factors"):
            monkeypatch.setattr(invariant, name, getattr(invariant, name).__wrapped__)
        assert memoized == [(invariants_isomorphic(a, b), recovered(b)) for a, b in pairs]
        assert memoized[-1][0] is None
        for (a, b), (perm, _) in zip(pairs[:-1], memoized):
            assert_witness(a, b, perm)

    def test_second_comparison_misses_nothing(self):
        a = k_grid_invariant(TripleSpec((CD("I", 1, 4),) * 3 + (CD("III", 3),)))
        rng = random.Random(26)
        b, c = shuffled(a, rng), shuffled(a, rng)
        assert b != c
        perm = invariants_isomorphic(b, c)
        assert_witness(b, c, perm)
        misses = _match_block.cache_info().misses, _sorted_key.cache_info().misses
        assert invariants_isomorphic(b, c) == perm
        assert (_match_block.cache_info().misses, _sorted_key.cache_info().misses) == misses

    def test_equal_parts_that_are_other_objects_hit(self):
        (_, caps, classes), = k_grid_invariant(spec("I(1,4)")).blocks
        parts = (caps, classes, caps[::-1], frozenset(c[::-1] for c in classes))
        assert _match_block(*parts) == (3, 2, 1, 0)
        copies = tuple(type(p)(list(p)) for p in parts)
        assert copies == parts
        assert not any(c is p for c, p in zip(copies, parts))
        before = _match_block.cache_info()
        assert _match_block(*copies) == (3, 2, 1, 0)
        after = _match_block.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# --- recovery oracle and scaling ---------------------------------------------------

class TestRecoveryOracle:
    @pytest.mark.parametrize("d", _oracle_factors(), ids=str)
    def test_factor_is_its_own_candidate_and_recovered(self, d):
        f = canonicalize_factor(d)
        assert f in _candidates(tuple(sorted(enveloping_tro(d).summands)))
        assert recover_factors(k_grid_invariant(TripleSpec((d,)))) == TripleSpec((f,))


class TestRecoveryStaysCanonical:
    # recover_factors sorts the candidates' factors and canonicalizes nothing
    def test_candidates_are_canonical(self):
        factors = [CD("I", n, m) for n in range(1, 41) for m in range(n, 41)]
        factors += [CD("II", n) for n in range(5, 41)]
        factors += [CD("III", n) for n in range(2, 41)]
        factors += [CD("IV", d) for d in range(5, 81)]
        for f in factors:
            assert canonicalize_factor(f) is f
            found = _candidates(tuple(sorted(enveloping_tro(f).summands)))
            assert f in found
            for c in found:
                assert canonicalize_factor(c) is c, (f, c)

    @pytest.mark.parametrize("seed", range(8))
    def test_shuffled_raw_invariants_recover_canonical_specs(self, seed):
        # copies of one small factor plus two others, as raw spellings, with
        # the summands of the dense invariant shuffled
        rng = random.Random(seed)
        descs = catalog_descriptors()
        factor = rng.choice(descs)
        s = raw_spelling((factor,) * rng.randint(2, 4) + tuple(rng.sample(descs, 2)),
                         rng)
        got = recover_factors(shuffled(k_grid_invariant(s), rng))
        assert got == canonicalize_spec(got) == canonicalize_spec(s)


def test_four_thousand_factors_assemble_and_recover_fast():
    rng = random.Random(0)
    s = TripleSpec(tuple(rng.choice(catalog_descriptors()) for _ in range(4000)))
    start = time.perf_counter()
    recovered_spec = recover_factors(k_grid_invariant(s))
    assert time.perf_counter() - start < 2.0
    assert recovered_spec == canonicalize_spec(s)


def test_four_thousand_factors_classify_and_recover_within_budget():
    # classify against the same factors reversed, then recover, from a cold
    # assembly cache: the key and the recovery are linear in the factors
    rng = random.Random(0)
    s = TripleSpec(tuple(rng.choice(catalog_descriptors()) for _ in range(4000)))
    invariant._invariant_of_canonical.cache_clear()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        verdict = classify(s, TripleSpec(s.factors[::-1]))
        recovered_spec = recover_factors(k_grid_invariant(s))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 50 * 2**20, (elapsed, peak)
    assert verdict.status == "ISOMORPHIC"
    assert recovered_spec == canonicalize_spec(s)


# --- the block lemma past the catalog ----------------------------------------------

def factors_up_to_dim_3000() -> list:
    """Every canonical factor of intrinsic dim <= 3000, with I(1,h) only for
    h <= 200, and the canonical forms of IV(4..399)."""
    raw = [CD("I", 1, h) for h in range(1, 201)]
    raw += [CD("I", n, m) for n in range(2, 55) for m in range(n, 3000 // n + 1)]
    raw += [CD("II", n) for n in range(5, 78)] + [CD("III", n) for n in range(2, 78)]
    raw += [CD("IV", d) for d in range(4, 400)]
    return sorted({canonicalize_factor(d) for d in raw if intrinsic_dim(d) <= 3000})


def cap_sharing_groups() -> list:
    """The groups of two or more canonical factors, with parameters up to 40,
    whose enveloping TROs have the same caps; no family has two members with
    the same caps, so each group spans families."""
    factors = [CD("I", n, m) for n in range(1, 41) for m in range(n, 41)]
    factors += [CD("II", n) for n in range(5, 41)] + [CD("III", n) for n in range(2, 41)]
    factors += [CD("IV", d) for d in range(5, 41)]
    groups: dict = {}
    for f in factors:
        groups.setdefault(tuple(sorted(enveloping_tro(f).summands)), []).append(f)
    return [g for g in groups.values() if len(g) > 1]


class TestBlockLemma:
    """The two inputs of the block lemma (module docstring of kgrid.invariant)
    far past the catalog, and classification where only the classes can
    tell factors apart: factors of different families with the same caps."""

    def test_each_factor_is_one_block_separated_and_recovered(self):
        factors = factors_up_to_dim_3000()
        assert len(factors) == 10018
        keys = set()
        for f in factors:
            inv = k_grid_invariant(TripleSpec((f,)))
            dense = KGridInvariant(inv.group, inv.gamma)
            assert dense.blocks == inv.blocks and len(inv.blocks) == 1, f
            keys.add(inv._key)
            assert recover_factors(dense) == TripleSpec((f,)), f
        assert len(keys) == len(factors)

    def test_cap_sharing_multisets_classify_by_canonical_form(self):
        groups = cap_sharing_groups()
        assert len(groups) == 41
        assert [CD("II", 16), CD("III", 16), CD("IV", 9)] in groups
        assert [CD("I", 16, 16), CD("IV", 10)] in groups
        rng = random.Random(18)
        outcomes = set()
        for _ in range(2000):
            slots = [rng.choice(groups) for _ in range(rng.randint(2, 4))]
            s = TripleSpec(tuple(rng.choice(g) for g in slots))
            t = TripleSpec(tuple(rng.choice(g) for g in slots))  # same caps as s
            same = canonicalize_spec(s) == canonicalize_spec(t)
            assert (classify(s, t).status == "ISOMORPHIC") is same, (s, t)
            outcomes.add(same)
            a = k_grid_invariant(s)
            b = shuffled(a, rng)
            verdict = classify_invariants(a, b)
            assert verdict.status == "ISOMORPHIC", s
            assert_witness(a, b, verdict.witness)
            assert invariants_isomorphic(permuted(a, verdict.witness), b) == \
                tuple(range(a.group.k))
            assert recover_factors(b) == canonicalize_spec(s)
        assert outcomes == {True, False}


def reference_candidates(caps: list) -> list:
    """``_candidates`` as it was when it stated each family's caps and range
    itself, instead of reading them from ``enveloping_tro``."""
    width = len(caps)
    out = []
    if caps[0] == (1, width) and caps == sorted(
            (comb(width, t), comb(width, t - 1)) for t in range(1, width + 1)):
        out.append(CartanDescriptor("I", (1, width)))
    l, r = caps[0]
    if width == 2 and min(l, r) >= 2 and caps[1] == (r, l):
        out.append(CartanDescriptor("I", (min(l, r), max(l, r))))
    if width <= 2 and l == r and caps[-1] == (l, l):
        n = l
        if width == 1 and n >= 5:
            out.append(CartanDescriptor("II", (n,)))
        if width == 1 and n >= 2:
            out.append(CartanDescriptor("III", (n,)))
        if n >= 4 and n & (n - 1) == 0:  # n = 2^p: IV(2p+1), IV(2p+2)
            out.append(CartanDescriptor("IV", (2 * n.bit_length() - 2 + width,)))
    return out


class TestCandidatesAgainstReference:
    """The candidates read from ``enveloping_tro`` are the ones the stated
    table gave, in the same order."""

    def test_caps_of_every_factor(self):
        for f in factors_up_to_dim_3000():
            caps = sorted(enveloping_tro(f).summands)
            assert list(_candidates.__wrapped__(tuple(caps))) == \
                reference_candidates(caps), f

    def test_seeded_cap_multisets(self):
        # widths 1 to 5; each draw adds a square cap, a cap and its
        # transpose, or a lone cap
        rng = random.Random(31)
        sides = (1, 2, 3, 4, 5, 6, 8, 10, 16, 32)
        found = 0
        for _ in range(20000):
            width, caps = rng.randint(1, 5), []
            while len(caps) < width:
                l, r, shape = rng.choice(sides), rng.choice(sides), rng.randrange(3)
                if shape == 0:
                    caps.append((l, l))
                elif shape == 1 and len(caps) + 2 <= width:
                    caps += [(l, r), (r, l)]
                else:
                    caps.append((l, r))
            caps.sort()
            expected = reference_candidates(caps)
            assert list(_candidates.__wrapped__(tuple(caps))) == expected, caps
            found += bool(expected)
        assert found > 1000
