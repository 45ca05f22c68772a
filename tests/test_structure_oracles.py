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
invariants that share no table with them.
"""

import random
from functools import lru_cache
from itertools import combinations

from kgrid import cartan
from kgrid.cartan import (
    CartanDescriptor,
    coordinate_positions,
    coords_of,
    embedded_basis,
    intrinsic_dim,
)
from kgrid.catalog import catalog_descriptors
from kgrid.exact import ZERO
from kgrid.grids import grid_for
from kgrid.tro import element_span_dim, jordan_triple, ternary_product


def CD(kind, *params):
    return CartanDescriptor(kind, tuple(params))


# every catalog factor, I(3,1) and IV(4) among them, and III(1), the one
# coincidence with a form the catalog leaves out
FACTORS = catalog_descriptors() + (CD("III", 1),)


def triple_rank(d: CartanDescriptor) -> int:
    rng = random.Random(12)
    basis = embedded_basis(d)
    x = basis[0].scale(0)
    for b in basis:
        x = x + b.scale(rng.randint(1, 9))
    powers = [x]
    while True:
        powers.append(ternary_product(x, powers[-1], x))
        if element_span_dim(powers) < len(powers):
            return len(powers) - 1


def genus(d: CartanDescriptor) -> int:
    g = grid_for(d)
    e = next(el for el, label in zip(g.elements, g.labels)
             if label not in g.rank_two)
    double = ZERO
    for b, pos in zip(embedded_basis(d), coordinate_positions(d)):
        coordinate = coords_of(d, jordan_triple(e, e, b))[pos]
        double = double + coordinate + coordinate
    assert double.im == 0 and double.re.denominator == 1
    return int(double.re)


@lru_cache(maxsize=None)
def invariants(d: CartanDescriptor) -> tuple:
    return intrinsic_dim(d), triple_rank(d), genus(d)


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
