"""The public name list and the fiber tables, pinned entry for entry.

`symq.__all__` is pinned as a digest of its names in order.  The fiber tables
alpha[x][y][s][t] and beta[x][s] of `affine_tables` and `gauge_transform` are
pinned on the fixture racks, over four fiber groups, for the zero cocycle and
a seeded coboundary, and under seeded gauges.  Every digest was recorded from
an implementation that wrote each table out as its own nested comprehension;
a table built with s and t, or x and y, exchanged fails here.

Record a digest with `digest(items)` on the reference code.
"""

import hashlib
import random
import types

import pytest

import symq
from symq.abelian import AbGroup
from symq.cohomology import THEORY_SR, Cochain, delta1
from symq.dynamical import affine_tables, from_cocycle, from_surjection, gauge_transform
from symq.modules import dihedral_kamada_module
from symq.racks import RackMorphism, trivial_rack

from conftest import rack
from test_cohomology import random_one_cochain
from test_dynamical import random_gauge

GROUPS = {"Z2": [2], "Z3": [3], "Z4": [4], "Z2xZ2": [2, 2]}


def digest(items):
    """sha256 prefix of the reprs of items, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def test_public_names():
    assert len(symq.__all__) == 106
    assert digest(symq.__all__) == "45981ed9fdc9cd53"
    assert not [name for name in symq.__all__ if isinstance(getattr(symq, name), types.ModuleType)]


def sigmas(m, name):
    """The zero 2-cochain and the coboundary of a seeded 1-cochain."""
    zero = Cochain.zero(2, m.base.size, m.A)
    return zero, delta1(m, random_one_cochain(m, random.Random(name)))


# fixture rack: digest of its tables over every group in GROUPS, for both sigmas
AFFINE = {
    "conj_s3": "491323536e14a01c",
    "core_z4": "a38ebefcc0a71d47",
    "core_z4_shift": "cb5ff84476af1bab",
    "t2": "d1634d80a9259684",
    "t4": "1dde5ac8989e137d",
    "takasaki3": "e2f5063f16e9b6ba",
    "takasaki4": "0aed69b837c59fba",
    "takasaki5": "18ea73e37d536ed5",
}


@pytest.mark.parametrize("name", AFFINE)
def test_affine_tables(name):
    X = rack(name)
    items = []
    for group, orders in GROUPS.items():
        m = dihedral_kamada_module(X, AbGroup(orders))
        for sigma in sigmas(m, f"{name}/{group}"):
            items.append(affine_tables(m, sigma))
    assert digest(items) == AFFINE[name]


def orbit_surjection():
    """conj_s3 onto the trivial quandle of its three orbits: fibers of sizes 1, 2, 3."""
    X = rack("conj_s3")
    elems = range(X.size)
    orbit = list(elems)
    for _ in elems:
        orbit = [min(orbit[x], *(orbit[X.op(x, y)] for y in elems)) for x in elems]
    labels = sorted(set(orbit))
    return RackMorphism(X, trivial_rack(len(labels)), [labels.index(o) for o in orbit])


def gauge_cases():
    out = [from_surjection(orbit_surjection())[0]]
    for name in ("takasaki3", "core_z4_shift", "conj_s3"):
        for orders in ([4], [2, 2]):
            m = dihedral_kamada_module(rack(name), AbGroup(orders))
            out.append(from_cocycle(m, sigmas(m, f"{name}/{orders}")[1], THEORY_SR))
    return out


def test_gauge_transform():
    cases = gauge_cases()
    assert sorted(cases[0].sizes) == [1, 2, 3]
    rng = random.Random(20261019)
    items = []
    for dc in cases:
        for _ in range(3):
            moved = gauge_transform(dc, random_gauge(dc.sizes, rng))
            items.append((moved.sizes, moved.alpha, moved.beta))
    assert digest(items) == "76ac426fa64f6d70"
