"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with ``-s`` to see them);
a failing criterion fails its test.  All arithmetic is exact, so every
comparison below is exact equality; the only tolerances are the stated
runtime bounds.
"""

import random
import time
from fractions import Fraction
from math import comb

from kgrid.cartan import (
    CartanDescriptor,
    b_matrix,
    canonicalize_spec,
    enveloping_tro,
)
from kgrid.catalog import sweep
from kgrid.exact import Matrix, Scalar, dagger, kron, rank
from kgrid.grids import grid_for, verify_grid
from kgrid.invariant import (
    classify,
    gamma,
    gamma_report,
    k_grid_invariant,
)
from kgrid.ktheory import (
    apply_k0_matrix,
    double_scaled_group,
    dsg_isomorphic,
    k0_class_of_projection,
)
from kgrid.tro import (
    LiftError,
    TroElement,
    TroSpace,
    apply_hom,
    compose_homs,
    lift_hom,
    parse_space,
    range_projection,
    ternary_product,
)

from .spin import standard_spin_system, to_matrix, word_matrices
from .test_exact import naive_rank


def CD(kind, *params):
    return CartanDescriptor(kind, tuple(params))


def _report(number: int, text: str) -> None:
    print(f"PASS  criterion {number}: {text}")


def _rand_scalar(rng) -> Scalar:
    return Scalar(
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
    )


def _rand_element(rng, space: TroSpace) -> TroElement:
    return TroElement(
        space,
        tuple(
            Matrix(n, m, tuple(_rand_scalar(rng) for _ in range(n * m)))
            for n, m in space.summands
        ),
    )


def test_criterion_1_family_table_reproduction():
    start = time.perf_counter()
    for n in range(2, 6):
        for m in range(2, 6):
            assert gamma(CD("I", n, m)) == frozenset({(1, 1)})
    for n in range(1, 8):
        tro = enveloping_tro(CD("I", 1, n))
        assert tro.summands == tuple(
            (comb(n, k), comb(n, k - 1)) for k in range(1, n + 1)
        )
        assert gamma(CD("I", 1, n)) == frozenset(
            {tuple(comb(n - 1, t) for t in range(n))}
        )
    for n in range(5, 9):
        assert gamma(CD("II", n)) == frozenset({(2,)})
    for n in range(2, 9):
        assert gamma(CD("III", n)) == frozenset({(1,), (2,)})
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"table reproduction took {elapsed:.2f}s"
    _report(1, f"per-family invariant table reproduced exactly ({elapsed:.2f}s)")


def test_criterion_2_spin_factors():
    start = time.perf_counter()
    for dim in range(4, 10):
        d = CD("IV", dim)
        grid = grid_for(d)
        report = verify_grid(grid)
        assert report.ok, report.failures()
        assert all(c.tripotent for c in report.element_checks)
        assert report.span_found == report.span_expected == dim
        assert report.system_ok is True
        assert report.identity_checks
        assert all(ok for _, ok in report.identity_checks)
        by_label = {c.label: c for c in report.element_checks}
        if dim % 2 == 1:
            assert by_label["u0"].minimal is False
        else:
            assert "u0" not in by_label
        assert all(c.minimal for c in report.element_checks if c.label != "u0")
        # independent brute-force oracle: each grid projection, a word, is
        # mapped to its matrices, validated exactly, then ranked both by trace
        # and by a plain elimination that shares no code with the library's
        # fraction-free rank
        words = word_matrices(standard_spin_system(d))
        oracle = set()
        for e in grid.elements:
            p = to_matrix(words, range_projection(e))
            vec = []
            for blk in p.blocks:
                assert blk.dagger() == blk and (blk @ blk) == blk
                trace = Fraction(0)
                for i in range(blk.rows):
                    entry = blk[i, i]
                    assert entry.im == 0
                    trace += entry.re
                assert trace.denominator == 1
                r = int(trace)
                assert naive_rank(blk) == r
                vec.append(r)
            oracle.add(tuple(vec))
        assert gamma(d) == frozenset(oracle)
        # the computed values disagree with the usual tables in both parities
        assert gamma_report(d)["matches_published"] is False
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"spin verification took {elapsed:.2f}s"
    _report(2, f"spin dims 4..9 verified against the rank oracle ({elapsed:.2f}s)")


def test_criterion_3_scale_counterexample():
    t = double_scaled_group(parse_space("M(1,2)+M(2,1)"))
    u = double_scaled_group(parse_space("M(1,1)+M(2,2)"))
    assert t.left_caps == (1, 2) and u.left_caps == (1, 2)
    assert t.right_caps == (2, 1) and u.right_caps == (1, 2)
    assert sorted(t.right_caps) == sorted(u.right_caps)
    assert dsg_isomorphic(t, u) is None
    assert dsg_isomorphic(u, t) is None
    _report(3, "M(1,2)+M(2,1) vs M(1,1)+M(2,2): left caps equal, pairing "
               "distinguishes, groups non-isomorphic")


def _random_lift_setup(rng):
    p = rng.randint(1, 3)
    source = TroSpace(tuple(
        (rng.randint(1, 5), rng.randint(1, 5)) for _ in range(p)
    ))
    q = rng.randint(1, 3)
    alpha = [[rng.randint(0, 2) for _ in range(p)] for _ in range(q)]
    needs = [
        (
            sum(a * n for a, (n, _) in zip(row, source.summands)),
            sum(a * m for a, (_, m) in zip(row, source.summands)),
        )
        for row in alpha
    ]
    target = TroSpace(tuple(
        (max(1, nn) + rng.randint(0, 2), max(1, mm) + rng.randint(0, 2))
        for nn, mm in needs
    ))
    return source, alpha, needs, target


def test_criterion_4_lifting_round_trip():
    rng = random.Random(7041)
    lifts = 0
    while lifts < 200:
        source, alpha, _, target = _random_lift_setup(rng)
        hom = lift_hom(alpha, source, target)
        assert hom.mult == tuple(tuple(r) for r in alpha)
        els = [_rand_element(rng, source) for _ in range(5)]
        for i in range(5):
            x, y, z = els[i], els[(i + 1) % 5], els[(i + 2) % 5]
            assert apply_hom(hom, ternary_product(x, y, z)) == ternary_product(
                apply_hom(hom, x), apply_hom(hom, y), apply_hom(hom, z)
            )
        lifts += 1
    rejected = 0
    while rejected < 40:
        source, alpha, needs, target = _random_lift_setup(rng)
        # shrink exactly one sufficiently large cap below its requirement
        candidates = [
            (k, side)
            for k, (nn, mm) in enumerate(needs)
            for side, need in (("left", nn), ("right", mm))
            if need >= 2
        ]
        if not candidates:
            continue
        k, side = candidates[rng.randrange(len(candidates))]
        need = needs[k][0] if side == "left" else needs[k][1]
        summands = list(target.summands)
        if side == "left":
            summands[k] = (need - 1, summands[k][1])
        else:
            summands[k] = (summands[k][0], need - 1)
        shrunk = TroSpace(tuple(summands))
        try:
            lift_hom(alpha, source, shrunk)
            raise AssertionError("expected a scale violation")
        except LiftError as exc:
            # the reported summand must genuinely overflow
            nn, mm = needs[exc.summand]
            cap_n, cap_m = shrunk.summands[exc.summand]
            if exc.side == "left":
                assert nn > cap_n and exc.needed == nn and exc.cap == cap_n
            else:
                assert mm > cap_m and exc.needed == mm and exc.cap == cap_m
            assert (exc.summand, exc.side) == (k, side)
        rejected += 1
    _report(4, f"{lifts} random lifts verified, {rejected} violations "
               "attributed to the right summand and side")


def test_criterion_5_k0_functoriality():
    rng = random.Random(90125)
    for _ in range(100):
        # functoriality of composition
        source, alpha, _, mid = _random_lift_setup(rng)
        h = lift_hom(alpha, source, mid)
        q = len(mid.summands)
        r = rng.randint(1, 2)
        beta = [[rng.randint(0, 1) for _ in range(q)] for _ in range(r)]
        needs = [
            (
                sum(b * n for b, (n, _) in zip(row, mid.summands)),
                sum(b * m for b, (_, m) in zip(row, mid.summands)),
            )
            for row in beta
        ]
        top = TroSpace(tuple(
            (max(1, nn) + rng.randint(0, 1), max(1, mm) + rng.randint(0, 1))
            for nn, mm in needs
        ))
        g = lift_hom(beta, mid, top)
        composed = compose_homs(g, h)
        expected = tuple(
            tuple(sum(beta[k][j] * alpha[j][i] for j in range(q))
                  for i in range(len(alpha[0])))
            for k in range(r)
        )
        assert composed.mult == expected

        # projection classes map by the multiplicity matrix
        dims = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        square = TroSpace(tuple((n, n) for n in dims))
        blocks = []
        for n in dims:
            picks = [i for i in range(n) if rng.random() < 0.5]
            blk = Matrix(n, n, tuple(
                Scalar(1) if (i == j and i in picks) else Scalar(0)
                for i in range(n) for j in range(n)
            ))
            blocks.append(blk)
        proj = TroElement(square, tuple(blocks))
        if dims[0] >= 2 and rng.random() < 0.5:
            # conjugate by an exact rational rotation to leave diagonal form
            from kgrid.exact import direct_sum, identity, mat

            rot = mat([[Fraction(3, 5), Fraction(4, 5)],
                       [Fraction(-4, 5), Fraction(3, 5)]])
            for _ in range(dims[0] - 2):
                rot = direct_sum(rot, identity(1))
            blocks = list(proj.blocks)
            blocks[0] = rot @ blocks[0] @ rot.dagger()
            proj = TroElement(square, tuple(blocks))
        kk = len(dims)
        qq = rng.randint(1, 2)
        gamma_mat = [[rng.randint(0, 2) for _ in range(kk)] for _ in range(qq)]
        tgt = TroSpace(tuple(
            (max(1, sum(a * n for a, n in zip(row, dims))) + rng.randint(0, 1),)
            * 2
            for row in gamma_mat
        ))
        hom = lift_hom(gamma_mat, square, tgt)
        lhs = k0_class_of_projection(apply_hom(hom, proj))
        rhs = apply_k0_matrix(hom.mult, k0_class_of_projection(proj))
        assert lhs == rhs
    _report(5, "100 random instances: K0 of compositions multiplies, "
               "projection classes map by the multiplicity matrix")


def test_criterion_6_classification_oracle_equivalence():
    start = time.perf_counter()
    found = sweep(3)
    assert found.multisets == 6544 and len(found.classes) == 3275

    # the dimension-4 coincidence is part of the oracle
    from kgrid.cartan import TripleSpec, parse_triple_spec

    assert canonicalize_spec(parse_triple_spec("IV(4)")) == \
        TripleSpec((CD("I", 2, 2),))
    assert classify(parse_triple_spec("IV(4)+IV(4)"),
                    parse_triple_spec("I(2,2)+I(2,2)")).status == "ISOMORPHIC"

    # the sweep classified every multiset against its canonical form, which
    # shares its cached invariant, and every same-key pair of distinct classes
    # (pairs with differing keys are rejected by the key alone)
    for canon, members in found.classes.items():
        for s in members:
            assert k_grid_invariant(s) is k_grid_invariant(canon)
    assert found.mismatches == [] and len(found.near_collisions) == 29
    # a deterministic sample of cross-class pairs end to end as well
    reps = list(found.classes)
    rng = random.Random(61)
    for _ in range(2000):
        a, b = rng.sample(reps, 2)
        assert classify(a, b).status == "NOT_ISOMORPHIC"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"classification sweep took {elapsed:.1f}s"
    _report(6, f"{found.multisets} multisets in {len(found.classes)} classes; "
               f"{len(found.near_collisions)} same-key cross pairs all "
               f"separated; zero oracle mismatches ({elapsed:.1f}s)")


def test_criterion_7_recover_round_trip():
    found = sweep(3)
    assert len(found.classes) == 3275 and found.recovery_failures == []
    _report(7, f"recover_factors inverted k_grid_invariant on all "
               f"{len(found.classes)} canonical classes")


def test_criterion_8_property_suites():
    rng = random.Random(314159)

    def rand_matrix() -> Matrix:
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = []
        for _ in range(rows * cols):
            if rng.random() < 0.55:
                entries.append(Scalar(0))
            else:
                entries.append(Scalar(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                    Fraction(rng.randint(-1, 1)),
                ))
        return Matrix(rows, cols, tuple(entries))

    for _ in range(500):
        a, b = rand_matrix(), rand_matrix()
        assert rank(kron(a, b)) == rank(a) * rank(b)

    checked = 0
    for n in range(1, 7):
        for k in range(1, n + 1):
            for i in range(1, n + 1):
                bm = b_matrix(n, k, i)
                assert rank(bm @ dagger(bm)) == comb(n - 1, k - 1)
                checked += 1

    for dim in (5, 7, 9):
        report = verify_grid(grid_for(CD("IV", dim)))
        u0 = [c for c in report.element_checks if c.label == "u0"]
        assert len(u0) == 1
        assert u0[0].minimal is False and u0[0].expect_minimal is False

    _report(8, f"500 kron rank pairs multiplicative; {checked} b-matrix ranks "
               "binomial; spin u0 non-minimality detected for dims 5, 7, 9")
