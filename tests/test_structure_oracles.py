"""Structure oracles computed from the embedded triple, against the stated
canonical forms.

The classical scheme separates the Cartan factors by dimension, rank and
genus, and all three can be read from the triple product on
``embedded_basis(d)``:

- rank: the dimension of the span of the odd powers x, x x* x,
  x (x^3)* x, ... of a generic x.  Each power is x y* x of the one before;
  y -> x y* x is conjugate-linear, so once a power lies in the span of the
  earlier ones every later one does too.  x is a seeded integer combination
  of the basis: a fixed one such as sum (k+1) b_k is not generic, and gives
  rank 2 on I(3,3) and I(4,4).
- genus: 2 tr L(e,e) for a minimal tripotent e, L(e,e) z = {e, e, z}, with
  the trace read off the factor's own coordinates.

So the canonical forms of ``cartan.canonicalize_factor`` (transposition, the
rank-one identifications and ``cartan._COINCIDENCES``) are checked against
invariants that share no table with them.  The spin factors are also read on
the Pauli-matrix basis of ``tests/spin.py``, with coordinates from span
solving.

A grid is a family of tripotents with fixed pairwise Peirce relations, read
from {a,a,b} for grid elements a != b: orthogonal when it is 0, collinear
when it is b/2, and governing when it is b, which only a rank-two a may do.
The counts of ordered pairs in each relation have closed forms, and the
largest orthogonal family of minimal elements has the factor's rank.
"""

import random
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, permutations
from math import comb

from kgrid import cartan
from kgrid.cartan import (
    CartanDescriptor,
    coordinate_positions,
    coords_of,
    embedded_basis,
    intrinsic_dim,
)
from kgrid.catalog import catalog_descriptors
from kgrid.exact import HALF, ZERO, mat
from kgrid.grids import Grid, grid_for, verify_grid
from kgrid.tro import (
    TroElement,
    element_span_coords,
    element_span_dim,
    jordan_triple,
    ternary_product,
)

from .spin import reference_grid


def CD(kind, *params):
    return CartanDescriptor(kind, tuple(params))


# every catalog factor, I(3,1) and IV(4) among them, and III(1), the one
# coincidence with a form the catalog leaves out
FACTORS = catalog_descriptors() + (CD("III", 1),)


def triple_rank(basis: tuple) -> int:
    rng = random.Random(12)
    x = basis[0].scale(0)
    for b in basis:
        x = x + b.scale(rng.randint(1, 9))
    powers = [x]
    while True:
        powers.append(ternary_product(x, powers[-1], x))
        if element_span_dim(powers) < len(powers):
            return len(powers) - 1


def minimal_element(g: Grid) -> TroElement:
    return next(el for el, label in zip(g.elements, g.labels) if label not in g.rank_two)


def genus(e: TroElement, basis: tuple, coordinates) -> int:
    """2 tr L(e,e) for a minimal tripotent e, where coordinates(x) lists the
    coordinates of x over basis."""
    double = ZERO
    for k, b in enumerate(basis):
        coordinate = coordinates(jordan_triple(e, e, b))[k]
        double = double + coordinate + coordinate
    assert double.im == 0 and double.re.denominator == 1
    return int(double.re)


@lru_cache(maxsize=None)
def invariants(d: CartanDescriptor) -> tuple:
    basis, positions = embedded_basis(d), coordinate_positions(d)

    def coordinates(x):
        intrinsic = coords_of(d, x)
        return [intrinsic[pos] for pos in positions]

    e = minimal_element(grid_for(d))
    return intrinsic_dim(d), triple_rank(basis), genus(e, basis, coordinates)


def closed_form(d: CartanDescriptor) -> tuple:
    """(rank, genus) of the classical scheme."""
    if d.kind == "I":
        n, m = d.params
        return min(n, m), n + m
    n = d.params[0]
    return {"II": (n // 2, 2 * n - 2), "III": (n, n + 1), "IV": (2, n)}[d.kind]


def test_invariants_partition_as_canonical_forms():
    # looked up on the module, so a patched canonical form is the one checked
    for a, b in combinations(FACTORS, 2):
        same_form = cartan.canonicalize_factor(a) == cartan.canonicalize_factor(b)
        assert same_form == (invariants(a) == invariants(b)), (a, b)


def test_rank_and_genus_closed_forms():
    for d in FACTORS:
        assert invariants(d)[1:] == closed_form(d), d


def test_spin_rank_and_genus_on_pauli_matrices():
    # the word values, read on the matrices of the standard spin system, the
    # basis the words are read in, with coordinates from span solving
    for dim in range(4, 8):
        d = CD("IV", dim)
        g = reference_grid(d)
        assert triple_rank(g.basis) == 2, d
        assert genus(minimal_element(g), g.basis,
                     lambda x: element_span_coords(g.basis, x)) == dim, d


# --- pairwise Peirce relations --------------------------------------------------


def peirce_relations(g: Grid) -> dict:
    """The relation of each ordered pair (a, b) of distinct grid elements, by
    their indices; None for a pair in no relation or governed by a minimal
    element."""
    def relation(label, a, b):
        aab = jordan_triple(a, a, b)
        if aab.is_zero():
            return "orthogonal"
        if aab == b.scale(HALF):
            return "collinear"
        if aab == b and label in g.rank_two:
            return "governing"
        return None

    return {(i, j): relation(g.labels[i], a, b)
            for (i, a), (j, b) in permutations(enumerate(g.elements), 2)}


def peirce_counts(g: Grid) -> Counter:
    return Counter(peirce_relations(g).values())


def peirce_closed_form(d: CartanDescriptor) -> Counter:
    if d.kind == "I":
        n, m = d.params
        return Counter(collinear=n * m * (n + m - 2), orthogonal=n * m * (n - 1) * (m - 1))
    n = d.params[0]
    if d.kind == "II":
        return Counter(collinear=comb(n, 2) * 2 * (n - 2), orthogonal=comb(n, 2) * comb(n - 2, 2))
    if d.kind == "III":
        elements, collinear, governing = comb(n + 1, 2), n * (n - 1) ** 2, n * (n - 1)
        return Counter(collinear=collinear, governing=governing,
                       orthogonal=elements * (elements - 1) - collinear - governing)
    if n % 2 == 0:
        return Counter(collinear=n * (n - 2), orthogonal=n)
    return Counter(collinear=(n - 1) * (n - 2), orthogonal=n - 1, governing=n - 1)


def largest_orthogonal_family(g: Grid, relations: dict) -> int:
    """The size of the largest family of pairwise orthogonal minimal elements."""
    minimal = [i for i, label in enumerate(g.labels) if label not in g.rank_two]
    orthogonal = {i: {j for j in minimal if relations.get((i, j)) == "orthogonal"}
                  for i in minimal}

    def grow(size, candidates):
        best = size
        for i in sorted(candidates):
            if size + len(candidates) <= best:
                break
            best = max(best, grow(size + 1, candidates & orthogonal[i]))
            candidates = candidates - {i}
        return best

    return grow(0, set(orthogonal))


# the catalog holds III(2..6) and IV(4..9)
PEIRCE_FACTORS = catalog_descriptors() + (CD("I", 3, 5), CD("II", 6)) \
    + tuple(CD("III", n) for n in range(7, 11))


def test_peirce_relations_closed_forms():
    grids = [(d, grid_for(d)) for d in PEIRCE_FACTORS]
    grids += [(CD("IV", dim), reference_grid(CD("IV", dim))) for dim in range(4, 8)]
    for d, g in grids:
        relations = peirce_relations(g)
        assert Counter(relations.values()) == peirce_closed_form(d), d
        assert largest_orthogonal_family(g, relations) == closed_form(d)[0], d


def test_peirce_relations_refuse_non_grids():
    # g[1,1] of I(2,2) replaced by the rank-one projection onto (1, 1): each
    # element is still a minimal tripotent and the four still span, so the
    # report is ok, but six pairs are in no relation
    d = CD("I", 2, 2)
    g = grid_for(d)
    half = mat([[HALF, HALF], [HALF, HALF]])
    doctored = replace(g, elements=(TroElement(g.ambient, (half, half)),) + g.elements[1:])
    assert verify_grid(doctored).ok
    assert peirce_counts(doctored)[None] == 6
    # u0 at the wrong parity: appended to IV(6), dropped from IV(7)
    g = grid_for(CD("IV", 6))
    wrong = replace(g, elements=g.elements + (g.basis[-1],), labels=g.labels + ("u0",),
                    rank_two=frozenset({"u0"}))
    assert peirce_counts(wrong) != peirce_closed_form(wrong.factor)
    assert peirce_counts(wrong)[None] == 2
    g = grid_for(CD("IV", 7))
    dropped = replace(g, elements=g.elements[:-1], labels=g.labels[:-1], rank_two=frozenset())
    assert peirce_counts(dropped) != peirce_closed_form(dropped.factor)
