"""Subquotient.section pinned representative for representative.

The round trip project(section(w)) == w holds for any representative, so it
cannot tell when the chosen one moves.  The digests below were recorded from
an implementation that read the representative off an explicit inverse of
the transform U of the relation matrix; any change to that choice fails here.

Record a digest with `digest(items)` on the reference code.
"""

import hashlib
import random

import pytest

from symq.abelian import AbGroup, Subquotient
from symq.cohomology import cohomology_presentation
from symq.modules import dihedral_kamada_module
from symq.racks import takasaki


def digest(items):
    """sha256 prefix of the reprs of items, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def random_subquotients():
    """300 seeded (ambient, sub_gens, by_gens), by_gens inside the subgroup."""
    rng = random.Random(20261019)
    out = []
    for _ in range(300):
        ambient = AbGroup([rng.choice((0, 0, 2, 3, 4, 6, 8, 12)) for _ in range(rng.randint(0, 4))])
        sub = [tuple(rng.randint(-6, 6) for _ in ambient.orders) for _ in range(rng.randint(0, 4))]
        by = []
        for _ in range(rng.randint(0, 3)):
            coeffs = [rng.randint(-3, 3) for _ in sub]
            by.append(tuple(sum(c * g[i] for c, g in zip(coeffs, sub))
                            for i in range(ambient.rank)))
        out.append((ambient, sub, by))
    return out


def test_random_subquotients():
    rng = random.Random(7)
    items = []
    for ambient, sub, by in random_subquotients():
        q = Subquotient(ambient, sub, by)
        for _ in range(4):
            cls = tuple(rng.randint(-9, 9) for _ in q.group.orders)
            items.append((ambient, sub, by, cls, q.section(cls)))
    assert digest(items) == "eefcc6b2f1d0ca11"


PRESENTATIONS = {
    # (n, orders): digest over every class of degrees 1 and 2, sr then sq
    (3, (0,)): "c7afb55e63b1c532",
    (3, (3,)): "c7afb55e63b1c532",
    (3, (4,)): "77a37925046e53e7",
    (3, (2, 2)): "6d45f3be71a6a66f",
    (4, (0,)): "22d965775cd76e5c",
    (4, (3,)): "22d965775cd76e5c",
    (4, (4,)): "488903fb553d515f",
    (4, (2, 2)): "ff68d321cccda239",
    (5, (0,)): "89274fe1f5d35fed",
    (5, (3,)): "89274fe1f5d35fed",
    (5, (4,)): "e8cbdffb8b44dc00",
    (5, (2, 2)): "d619c320cd288b44",
}


@pytest.mark.parametrize("n,orders", list(PRESENTATIONS),
                         ids=[f"t{n}-{'x'.join(map(str, o))}" for n, o in PRESENTATIONS])
def test_every_class_of_a_presentation(n, orders):
    m = dihedral_kamada_module(takasaki(n), AbGroup(orders))
    items = []
    for theory in ("sr", "sq"):
        for degree in (1, 2):
            pres = cohomology_presentation(m, degree, theory)
            for cls in pres.group.elements():
                items.append((theory, degree, cls, pres.section(cls).values))
    assert digest(items) == PRESENTATIONS[n, orders]
