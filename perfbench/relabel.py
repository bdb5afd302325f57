"""Seeded relabelling of carriers, and transport of data along a relabelling.

A relabelling is a permutation p of {0..n-1}; element x of the old carrier
is called p[x] in the new one.  Every invariant the benchmark checks (group
invariants, report orders, exactness flags, counts) is preserved by
transport, while the matrices the library builds and their pivot order are
not.  The permutation for one input depends only on the seed and the
input's name, so the same seed always gives the same inputs.
"""

import itertools
import random

import symq


def permutation(seed, name, n):
    """The relabelling of an n-element carrier for one named input."""
    perm = list(range(n))
    random.Random(f"perfbench:{seed}:{name}").shuffle(perm)
    return tuple(perm)


def rack(X, perm):
    """The symmetric rack X with element x renamed perm[x], revalidated."""
    n = X.size
    table = [[0] * n for _ in range(n)]
    rho = [0] * n
    for x in range(n):
        rho[perm[x]] = perm[X.rho[x]]
        for y in range(n):
            table[perm[x]][perm[y]] = perm[X.op(x, y)]
    return symq.validate_good_involution(symq.validate_rack(table, X.kind), rho)


def _index(tup, n):
    i = 0
    for x in tup:
        i = i * n + x
    return i


def cochain(c, perm):
    """The cochain c with every argument renamed: c'(p x1, .., p xk) = c(x1, .., xk)."""
    n = c.size
    values = [None] * len(c.values)
    for tup, value in zip(itertools.product(range(n), repeat=c.degree), c.values):
        values[_index([perm[x] for x in tup], n)] = value
    return symq.Cochain(c.degree, n, c.group, values)


def word(w, perm):
    """A self-map w of the carrier, conjugated: w'(p x) = p(w(x))."""
    out = [0] * len(w)
    for x, y in enumerate(w):
        out[perm[x]] = perm[y]
    return tuple(out)


def group(G, perm):
    """The finite group G with element g renamed perm[g]."""
    n = G.size
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mul[perm[a]][perm[b]] = perm[G.m(a, b)]
    return symq.FiniteGroup(mul, identity=perm[G.identity])
