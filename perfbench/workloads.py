"""The four benchmark workloads.

A workload makes its inputs from the seed once, during set-up, as a list of
operations.  One pass runs every operation once, in order, from one caller.
Each pass starts from the same cache state: every kgrid cache is cleared and
the workload's ``warm_up`` runs again (untimed), so passes repeat the same
work exactly and their counters can be compared.

Each operation returns its result, or the exception it raised, and is checked
against an oracle from ``oracle.py`` after the pass, outside the timed part.
An operation fails if it raises or if its result disagrees with the oracle.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

import oracle


class Op:
    __slots__ = ("run", "check")

    def __init__(self, run, check) -> None:
        self.run = run        # () -> result; may raise
        self.check = check    # (result, exception) -> error text or None


def _exc_error(exc) -> str | None:
    return None if exc is None else f"raised {type(exc).__name__}: {exc}"


def _ambient_size(kind: str, params: tuple) -> int:
    return sum(n * m for n, m in oracle.caps(kind, params))


# --- verify-catalog ------------------------------------------------------------------

class VerifyCatalog:
    """``kgrid verify <factor> --json`` for each of the 32 catalog factors, then
    one ``kgrid table --json`` with the default ranges.

    Why: this is what users run, and nearly all of its time is spent in
    ``exact``, ``tro`` and ``grids`` on sparse structured matrices (matrix
    units, monomial spin words, signed incidence).  Before each call every
    kgrid cache is cleared and the heap collected, as in a fresh ``kgrid``
    process.  The seed only orders the calls: the catalog is the input.  It
    stops at the catalog because the next rank-one factor, I(1,8), takes
    about 39 s on its own.
    """

    name = "verify-catalog"
    cold_ops = True

    def __init__(self, kg, seed: int) -> None:
        self.kg = kg
        factors = [(d.kind, tuple(d.params))
                   for d in kg.catalog.catalog_descriptors()]
        ops = [Op(self._cli(["verify", oracle.text(*f), "--json"]),
                  self._check_verify(f)) for f in factors]
        ops.append(Op(self._cli(["table", "--json"]), self._check_table))
        random.Random(seed).shuffle(ops)
        self.ops = ops
        largest = max(factors, key=lambda f: _ambient_size(*f))
        self.sizes = {"operations": len(ops), "factors": len(factors),
                      "largest_factor": oracle.text(*largest)}

    def warm_up(self) -> None:
        pass

    def _cli(self, argv: list):
        cli = self.kg.cli

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.run(argv)
            return code, out.getvalue()
        return run

    @staticmethod
    def _check_verify(factor: tuple):
        kind, params = factor
        want_gamma = oracle.gamma(kind, params)
        want_dim = oracle.dim(kind, params)

        def check(res, exc):
            if exc is not None:
                return _exc_error(exc)
            code, out = res
            if code != 0:
                return f"exit code {code}"
            payload = json.loads(out)
            entries = payload["factors"]
            if not payload["ok"] or len(entries) != 1:
                return "report not ok"
            e = entries[0]
            if e["factor"] != oracle.text(kind, params) or not e["ok"] or e["failures"]:
                return f"report for {e['factor']} not ok: {e['failures']}"
            if e["span"]["found"] != want_dim or e["span"]["expected"] != want_dim:
                return f"span {e['span']} but the factor has dimension {want_dim}"
            if len(e["elements"]) != want_dim or not all(x["tripotent"] for x in e["elements"]):
                return "grid elements missing or not tripotent"
            if e["gamma"]["computed"] != want_gamma:
                return f"gamma {e['gamma']['computed']}, expected {want_gamma}"
            return None
        return check

    @staticmethod
    def _check_table(res, exc):
        if exc is not None:
            return _exc_error(exc)
        code, out = res
        if code != 0:
            return f"exit code {code}"
        rows = json.loads(out)["rows"]
        want = oracle.table_factors()
        if len(rows) != len(want):
            return f"{len(rows)} table rows, expected {len(want)}"
        for row, (kind, params) in zip(rows, want):
            caps = oracle.caps(kind, params)
            if (row["factor"] != oracle.text(kind, params)
                    or row["dim"] != oracle.dim(kind, params)
                    or row["left"] != [n for n, _ in caps]
                    or row["right"] != [m for _, m in caps]
                    or row["gamma_computed"] != oracle.gamma(kind, params)):
                return f"table row {row['factor']} disagrees"
        return None


# --- sweep ----------------------------------------------------------------------------

class Sweep:
    """Every multiset of at most 3 catalog factors (6544) plus a seeded
    systematic draw of 3000 of the 52360 4-factor multisets.  For each
    multiset s there are three operations: classify(s, s') with s' the same
    factors written another way (shuffled, and each swapped for a catalog
    factor it coincides with), classify(s, u) with u a random other multiset,
    and recover_factors(k_grid_invariant(s)).

    Why: set-up (and each pass) first classifies and recovers every catalog
    factor alone and doubled, so the gamma cache holds every factor that
    recovery tries (doubled factors make it try I(16,16) and IV(10), whose
    grids take about 2 s), and the timed part runs in ``invariant`` and
    ``cartan`` canonicalization with ``exact`` almost idle.
    The oracle is the benchmark's own canonicalization of the four README
    coincidences, not ``canonicalize_spec``.
    """

    name = "sweep"
    cold_ops = False
    FOUR_FACTOR_DRAWS = 3000

    def __init__(self, kg, seed: int) -> None:
        self.kg = kg
        rng = random.Random(seed)
        descs = list(kg.catalog.catalog_descriptors())
        Spec = kg.cartan.TripleSpec
        specs = list(kg.catalog.catalog_multisets(3))
        # every step-th 4-factor multiset from a seeded offset: a systematic
        # draw, so each seed gets the same mix of small and large factors
        four = list(itertools.combinations_with_replacement(descs, 4))
        step = len(four) // self.FOUR_FACTOR_DRAWS
        drawn = four[rng.randrange(step)::step][:self.FOUR_FACTOR_DRAWS]
        specs += [Spec(combo) for combo in drawn]
        self.warm = [Spec((d,) * copies) for d in descs for copies in (1, 2)]
        aliases: dict = {}
        for d in descs:
            aliases.setdefault(oracle.canon_factor(d.kind, tuple(d.params)), []).append(d)
        ops = []
        for s in specs:
            # the same factors in another order, each swapped for a random
            # catalog factor it coincides with, such as I(2,1) for I(1,2)
            shuffled = [rng.choice(aliases[oracle.canon_factor(f.kind, tuple(f.params))])
                        for f in s.factors]
            rng.shuffle(shuffled)
            s2 = Spec(tuple(shuffled))
            u = rng.choice(specs)
            while u is s:
                u = rng.choice(specs)
            ops.append(Op(self._classify(s, s2), self._check_classify(s, s2)))
            ops.append(Op(self._classify(s, u), self._check_classify(s, u)))
            ops.append(Op(self._recover(s), self._check_recover(s)))
        self.ops = ops
        self.sizes = {"operations": len(ops), "multisets": len(specs),
                      "max_factors": 4}

    def warm_up(self) -> None:
        inv = self.kg.invariant
        for s in self.warm:
            inv.classify(s, s)
            inv.recover_factors(inv.k_grid_invariant(s))

    def _classify(self, s, t):
        inv = self.kg.invariant
        return lambda: inv.classify(s, t)

    def _recover(self, s):
        inv = self.kg.invariant
        return lambda: inv.recover_factors(inv.k_grid_invariant(s))

    def _check_classify(self, s, t):
        same = oracle.canon_multiset(s.factors) == oracle.canon_multiset(t.factors)
        want = "ISOMORPHIC" if same else "NOT_ISOMORPHIC"

        def check(verdict, exc):
            if exc is not None:
                return _exc_error(exc)
            if verdict.status != want:
                return f"classify({s}, {t}) = {verdict.status}, expected {want}"
            if same:
                inv = self.kg.invariant
                a, b = inv.k_grid_invariant(s), inv.k_grid_invariant(t)
                want_caps = sorted(c for f in oracle.canon_multiset(s.factors)
                                   for c in oracle.caps(*f))
                if sorted(zip(a.group.left_caps, a.group.right_caps)) != want_caps:
                    return f"caps of {s} disagree with the oracle"
                return oracle.witness_error(a, b, verdict.witness)
            return None
        return check

    @staticmethod
    def _check_recover(s):
        want = oracle.canon_multiset(s.factors)

        def check(spec, exc):
            if exc is not None:
                return _exc_error(exc)
            got = [(f.kind, tuple(f.params)) for f in spec.factors]
            if tuple(sorted(got)) != want or any(oracle.canon_factor(*f) != f for f in got):
                return f"recovered {spec} from {s}"
            return None
        return check


# --- witness-shuffled --------------------------------------------------------------

# Copies of one small factor, whose summands are interchangeable between copies.
WITNESS_FACTORS = (("I", (1, 3)), ("I", (1, 4)), ("I", (2, 3)),
                   ("IV", (5,)), ("IV", (6,)), ("III", (3,)))
WITNESS_COPIES = (2, 3, 4)
# Copy-order classes run per configuration, and the fewer run for the one
# configuration whose classes take about a second each; see Witness.
CLASS_LIMIT = 36
HEAVY_CLASS_LIMIT = {(("I", (1, 4)), 4): 4}
# Factors that pad the inputs.  Each has one summand and two grid classes, so
# every choice adds the same work to a leaf of the witness search, and none has
# caps from which recover_factors would try a large factor (such as II(16) for
# the caps of IV(9)), whose grid would be built inside a timed operation.
PADDING = tuple([("III", (n,)) for n in range(2, 7)] + [("IV", (5,))])
NEAR_COLLISIONS = (
    ((("II", (5,)), ("III", (6,))), (("II", (6,)), ("III", (5,)))),
    ((("I", (2, 2)), ("III", (3,)), ("III", (3,))),
     (("I", (3, 3)), ("III", (2,)), ("III", (2,)))),
    ((("I", (2, 2)), ("III", (4,)), ("III", (4,))),
     (("I", (4, 4)), ("III", (2,)), ("III", (2,)))),
    ((("I", (3, 3)), ("III", (4,)), ("III", (4,))),
     (("I", (4, 4)), ("III", (3,)), ("III", (3,)))),
)


def cap_groups(factor: tuple, copies: int) -> list:
    """Summand offsets within ``copies`` copies of ``factor``, grouped by cap
    pair: the witness search can only exchange summands inside a group."""
    caps = oracle.caps(*factor)
    groups: dict = {}
    for q in range(copies):
        for p, cap in enumerate(caps):
            groups.setdefault(cap, []).append(q * len(caps) + p)
    return list(groups.values())


class Witness:
    """Invariants of 2-4 copies of one small factor plus 2 other catalog
    factors, compared with a summand-permuted copy of themselves:
    classify_invariants(a, shuffled(a)) then recover_factors(shuffled(a)).
    Negative pairs from the near-collision family (II(5)+III(6) against
    II(6)+III(5) and the like), padded with repeated factors, must come out
    NOT_ISOMORPHIC.

    Why: this is the only workload that drives the factorial witness search and
    the order-dependent recovery.  The search cost of a shuffle depends only
    on the order in which the shuffle puts the summands that share a cap pair
    (its copy-order class).  Each configuration therefore runs every class, or
    a fixed sample of CLASS_LIMIT classes where there are more, and pads with
    factors that all cost the same, so a pass costs the same for every seed;
    the seed draws the padding, the placement of the summands and the
    negative pairs.  At most 4 copies: one shuffled 6 x IV(6) operation took
    120-190 s.

    Each configuration also runs one block-order shuffle (whole factors
    reordered), which recover_factors must undo.  On a summand-level shuffle
    recover_factors may refuse with UnknownFactorError, because it documents
    that it expects factor blocks in canonical order; a refusal is therefore
    not a failed operation, but every refusal stays in the counts: the traced
    run reports invariant.recover_factors.raised against .calls, and each run
    prints them.  A wrong multiset is a failure.
    """

    name = "witness-shuffled"
    cold_ops = False

    def __init__(self, kg, seed: int) -> None:
        self.kg = kg
        rng = random.Random(seed)
        self.used: set = set()
        self.max_summands = 0
        ops = []
        for factor, copies in itertools.product(WITNESS_FACTORS, WITNESS_COPIES):
            groups = cap_groups(factor, copies)
            limit = HEAVY_CLASS_LIMIT.get((factor, copies), CLASS_LIMIT)
            if math.prod(math.factorial(len(g)) for g in groups) <= limit:
                classes = list(itertools.product(
                    *(itertools.permutations(range(len(g))) for g in groups)))
            else:
                fixed = random.Random(f"{factor}x{copies}")
                classes = [tuple(tuple(fixed.sample(range(len(g)), len(g))) for g in groups)
                           for _ in range(limit)]
            padding = [f for f in PADDING if f != factor]
            for cls in classes:
                ops.append(self._positive([factor] * copies + rng.sample(padding, 2),
                                          factor, list(zip(groups, cls)), rng))
            ops.append(self._positive([factor] * copies + rng.sample(padding, 2),
                                      factor, None, rng))
        for pair, repeats in itertools.product(NEAR_COLLISIONS, (0, 1, 2)):
            pad = [rng.choice(PADDING)] * repeats
            ops.append(self._negative(list(pair[0]) + pad, list(pair[1]) + pad, rng))
        self.ops = ops
        self.sizes = {"operations": len(ops), "max_copies": max(WITNESS_COPIES),
                      "max_summands": self.max_summands}

    def warm_up(self) -> None:
        # gamma of every factor the inputs hold; recover_factors fills in the
        # candidates it tries as it goes
        inv = self.kg.invariant
        Spec, D = self.kg.cartan.TripleSpec, self.kg.cartan.CartanDescriptor
        for f in sorted(self.used):
            s = Spec((D(*f),))
            inv.classify(s, s)
            inv.recover_factors(inv.k_grid_invariant(s))

    # inputs ---------------------------------------------------------------

    def _layout(self, factors: list) -> tuple:
        """Invariant of ``factors`` in canonical order, built from the oracle's
        caps and grid classes, plus each factor's summand offset."""
        factors = sorted(oracle.canon_factor(*f) for f in factors)
        self.used.update(factors)
        left, right, offsets = [], [], []
        for f in factors:
            offsets.append(len(left))
            left += [n for n, _ in oracle.caps(*f)]
            right += [m for _, m in oracle.caps(*f)]
        classes = set()
        for f, off in zip(factors, offsets):
            for cls in oracle.gamma(*f):
                vec = [0] * len(left)
                vec[off:off + len(cls)] = cls
                classes.add(tuple(vec))
        self.max_summands = max(self.max_summands, len(left))
        return factors, offsets, self._invariant(left, right, classes)

    def _invariant(self, left, right, classes):
        kg = self.kg
        group = kg.ktheory.DoubleScaledGroup(tuple(left), tuple(right))
        return kg.invariant.KGridInvariant(group, frozenset(classes), 0)

    def _permuted(self, a, sigma: list):
        k = len(sigma)
        left, right = [0] * k, [0] * k
        for i, j in enumerate(sigma):
            left[j] = a.group.left_caps[i]
            right[j] = a.group.right_caps[i]
        classes = set()
        for cls in a.gamma:
            vec = [0] * k
            for i, v in enumerate(cls):
                vec[sigma[i]] = v
            classes.add(tuple(vec))
        return self._invariant(left, right, classes)

    def _positive(self, factors, factor, ranked_groups, rng) -> Op:
        factors, offsets, a = self._layout(factors)
        k = a.group.k
        if ranked_groups is None:   # block-order shuffle: whole factors move
            order = list(range(len(factors)))
            rng.shuffle(order)
            ends = offsets[1:] + [k]
            sigma, pos = [0] * k, 0
            for f in order:
                for i in range(offsets[f], ends[f]):
                    sigma[i] = pos
                    pos += 1
        else:   # summand-level shuffle in the given copy-order class
            sigma = list(range(k))
            rng.shuffle(sigma)
            base = offsets[factors.index(factor)]
            for group, ranking in ranked_groups:
                slots = sorted(sigma[base + i] for i in group)
                for i, r in zip(group, ranking):
                    sigma[base + i] = slots[r]
        b = self._permuted(a, sigma)
        return Op(self._run(a, b), self._check(a, b, factors, True))

    def _negative(self, first, second, rng) -> Op:
        _, _, a = self._layout(first)
        factors, _, b0 = self._layout(second)
        sigma = list(range(b0.group.k))
        rng.shuffle(sigma)
        b = self._permuted(b0, sigma)
        return Op(self._run(a, b), self._check(a, b, factors, False, b0))

    # operation and oracle ---------------------------------------------------

    def _run(self, a, b):
        inv = self.kg.invariant

        def run():
            verdict = inv.classify_invariants(a, b)
            try:
                recovered = inv.recover_factors(b)
            except inv.UnknownFactorError as exc:
                recovered = exc
            return verdict, recovered
        return run

    def _check(self, a, b, b_factors, isomorphic: bool, b_canonical=None):
        # recover_factors may refuse only when b is not in canonical order
        refusable = b != (a if isomorphic else b_canonical)
        refusal = self.kg.invariant.UnknownFactorError

        def check(res, exc):
            if exc is not None:
                return _exc_error(exc)
            verdict, recovered = res
            if isomorphic:
                if verdict.status != "ISOMORPHIC":
                    return f"shuffled copy classified {verdict.status}"
                error = oracle.witness_error(a, b, verdict.witness)
                if error:
                    return error
            elif verdict.status != "NOT_ISOMORPHIC" or verdict.witness is not None:
                return f"near-collision pair classified {verdict.status}"
            if isinstance(recovered, refusal):
                return None if refusable else f"recovery refused: {recovered}"
            got = tuple(sorted((f.kind, tuple(f.params)) for f in recovered.factors))
            if got != tuple(b_factors):
                return f"recovered {recovered}, expected {b_factors}"
            return None
        return check


# --- dense-algebra ---------------------------------------------------------------------

class DenseAlgebra:
    """Seeded TRO spaces of 1-3 summands of side at most 6, with fully dense
    Gaussian rational entries (numerators in [-3, 3], denominators in [1, 3]).
    One operation runs jordan_triple, range_projection, k0_class_of_projection
    on a constructed projection, rank, element_span_coords, lift_hom ->
    apply_hom -> compose_homs, and dsg_isomorphic on one input.

    Why: the same ``exact``/``tro`` layers as verify-catalog, used another way:
    dense entries with real denominators instead of sparse +-1/+-i entries.  A
    sparse or common-denominator kernel that helps verify-catalog but costs
    this workload shows here.  It is also the only workload that measures
    ``ktheory`` and the homomorphism path.  The summand shapes (each
    (rows, cols) with sides 1-6, four times) and the number of spanning
    elements are the same for every seed, so the operations cost the same;
    the seed draws the entries, the projection ranks and the homomorphisms.
    """

    name = "dense-algebra"
    cold_ops = False
    SHAPE_REPEATS = 4

    def __init__(self, kg, seed: int) -> None:
        self.kg = kg
        rng = random.Random(seed)
        shapes = [(n, m) for n in range(1, 7) for m in range(1, 7)] * self.SHAPE_REPEATS
        random.Random(self.name).shuffle(shapes)
        ops = []
        while shapes:
            count = 1 + len(ops) % 3
            summands, shapes = tuple(shapes[:count]), shapes[count:]
            ops.append(self._op(summands, 2 + len(ops) % 3, rng))
        self.ops = ops
        self.sizes = {"operations": len(ops), "summands": 36 * self.SHAPE_REPEATS,
                      "max_side": 6}

    def warm_up(self) -> None:
        pass

    # inputs ---------------------------------------------------------------

    @staticmethod
    def _entry(rng) -> tuple:
        return (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    def _block(self, n: int, m: int, rng) -> list:
        return [[self._entry(rng) for _ in range(m)] for _ in range(n)]

    def _matrix(self, rows: list):
        Scalar = self.kg.exact.Scalar
        return self.kg.exact.mat([[Scalar(re, im) for re, im in row] for row in rows])

    def _element(self, space, blocks: list):
        return self.kg.tro.TroElement(space, tuple(self._matrix(b) for b in blocks))

    def _projection(self, n: int, r: int, rng) -> list:
        """Orthogonal projection of rank r onto the span of r Gram-Schmidt
        vectors in Q(i)^n, as sum of v v* / (v* v)."""
        basis = []
        while len(basis) < r:
            w = [self._entry(rng) for _ in range(n)]
            for v in basis:
                c = oracle.g_div(oracle.inner(v, w), oracle.inner(v, v))
                w = [oracle.g_add(x, oracle.g_mul((-c[0], -c[1]), y)) for x, y in zip(w, v)]
            if any(x != oracle.ZERO for x in w):
                basis.append(w)
        p = [[oracle.ZERO] * n for _ in range(n)]
        for v in basis:
            norm = oracle.inner(v, v)
            outer = [[oracle.g_div(oracle.g_mul(x, oracle.conj(y)), norm) for y in v] for x in v]
            p = oracle.add(p, outer)
        return p

    def _op(self, summands: tuple, spanning_count: int, rng) -> Op:
        kg = self.kg
        space = kg.tro.TroSpace(summands)
        x, y, z = ([self._block(n, m, rng) for n, m in summands] for _ in range(3))
        ex, ey, ez = (self._element(space, b) for b in (x, y, z))
        # constructed projection in the left algebra, one rank per block
        ranks = tuple(rng.randint(0, n) for n, _ in summands)
        proj = [self._projection(n, r, rng) for (n, _), r in zip(summands, ranks)]
        eproj = self._element(kg.tro.TroSpace(tuple((n, n) for n, _ in summands)), proj)
        # a product of two dense factors through an inner side of at most 6
        n, m = summands[0]
        inner = rng.randint(1, 6)
        factor_a, factor_b = self._block(n, inner, rng), self._block(inner, m, rng)
        rank_input = self._matrix(oracle.mul(factor_a, factor_b))
        # span: 2-4 dense elements and a Gaussian rational combination of them
        spanning = [[self._block(n, m, rng) for n, m in summands]
                    for _ in range(spanning_count)]
        coeffs = [self._entry(rng) for _ in spanning]
        target = [[[oracle.ZERO] * m for _ in range(n)] for n, m in summands]
        for c, el in zip(coeffs, spanning):
            target = [oracle.add(t, oracle.scale(c, b)) for t, b in zip(target, el)]
        espan = [self._element(space, el) for el in spanning]
        etarget = self._element(space, target)
        # homomorphisms space -> mid -> top with multiplicities 0-2, padded
        h_mult, mid = self._hom_shape(summands, rng)
        g_mult, top = self._hom_shape(mid, rng)
        mid_space, top_space = kg.tro.TroSpace(mid), kg.tro.TroSpace(top)
        order = list(range(len(summands)))
        rng.shuffle(order)
        permuted = kg.tro.TroSpace(tuple(summands[i] for i in order))

        tro, ktheory, exact = kg.tro, kg.ktheory, kg.exact

        def run():
            j = tro.jordan_triple(ex, ey, ez)
            rp = tro.range_projection(ex)
            k0 = ktheory.k0_class_of_projection(eproj)
            rk = exact.rank(rank_input)
            coords = tro.element_span_coords(espan, etarget)
            h = tro.lift_hom(h_mult, space, mid_space)
            g = tro.lift_hom(g_mult, mid_space, top_space)
            gh = tro.compose_homs(g, h)
            direct = tro.apply_hom(gh, ex)
            stepwise = tro.apply_hom(g, tro.apply_hom(h, ex))
            perm = ktheory.dsg_isomorphic(ktheory.double_scaled_group(space),
                                          ktheory.double_scaled_group(permuted))
            return j, rp, k0, rk, coords, gh, direct, stepwise, perm

        def check(res, exc):
            if exc is not None:
                return _exc_error(exc)
            j, rp, k0, rk, coords, gh, direct, stepwise, perm = res
            if [oracle.from_matrix(b) for b in j.blocks] != \
                    [oracle.jordan(a, b, c) for a, b, c in zip(x, y, z)]:
                return "jordan_triple disagrees with the reference product"
            if [oracle.from_matrix(b) for b in rp.blocks] != \
                    [oracle.mul(a, oracle.adjoint(a)) for a in x]:
                return "range_projection disagrees with x x*"
            traces = tuple(oracle.trace(p) for p in proj)
            if k0 != ranks or traces != tuple((Fraction(r), Fraction(0)) for r in ranks):
                return f"k0 class {k0}, projection traces {traces}, ranks {ranks}"
            if rk != oracle.rank(oracle.mul(factor_a, factor_b)):
                return f"rank {rk} disagrees with the reference elimination"
            if coords is None or len(coords) != len(spanning):
                return "span coordinates missing"
            rebuilt = [[[oracle.ZERO] * m for _ in range(n)] for n, m in summands]
            for c, el in zip(coords, spanning):
                rebuilt = [oracle.add(t, oracle.scale((c.re, c.im), b))
                           for t, b in zip(rebuilt, el)]
            if rebuilt != target:
                return "span coordinates do not rebuild the target"
            if gh.mult != oracle.int_matmul(g_mult, h_mult):
                return "composed multiplicities are not the product"
            # homomorphisms are taken up to unitary equivalence: g o h places
            # all copies of each source block together, g after h places
            # whole (zero-padded) images of h; both must be exactly that
            copies = lambda row: [i for i, a in enumerate(row) for _ in range(a)]
            want_mid = [oracle.place(copies(row), x, shape)
                        for row, shape in zip(h_mult, mid)]
            want_stepwise = [oracle.place(copies(row), want_mid, shape)
                             for row, shape in zip(g_mult, top)]
            want_direct = [oracle.place(copies(row), x, shape)
                           for row, shape in zip(oracle.int_matmul(g_mult, h_mult), top)]
            if [oracle.from_matrix(b) for b in direct.blocks] != want_direct:
                return "apply_hom(g o h) misplaces the copies"
            if [oracle.from_matrix(b) for b in stepwise.blocks] != want_stepwise:
                return "apply_hom(g) o apply_hom(h) misplaces the copies"
            if (perm is None or sorted(perm) != list(range(len(summands)))
                    or [summands[order[j]] for j in perm] != list(summands)):
                return f"dsg_isomorphic returned {perm}"
            return None

        return Op(run, check)

    @staticmethod
    def _hom_shape(source: tuple, rng) -> tuple:
        """A multiplicity matrix out of ``source`` and a target that fits it
        with up to 2 rows and columns to spare per summand."""
        count = rng.randint(1, 3)
        mult = tuple(tuple(rng.randint(0, 2) for _ in source) for _ in range(count))
        target = tuple(
            (max(1, sum(a * n for a, (n, _) in zip(row, source)) + rng.randint(0, 2)),
             max(1, sum(a * m for a, (_, m) in zip(row, source)) + rng.randint(0, 2)))
            for row in mult)
        return mult, target


WORKLOADS = {w.name: w for w in (VerifyCatalog, Sweep, Witness, DenseAlgebra)}
