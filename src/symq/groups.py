"""Finite groups by Cayley table, and the conjugation/core quandles they carry."""

from itertools import permutations

from .errors import (
    Diagnostic,
    EmptyCarrier,
    NotASubgroup,
    NotCentralInvolution,
    NotNormal,
    ValidationError,
)
from .racks import QUANDLE, validate_good_involution, validate_rack


class FiniteGroup:
    """Group on {0..n-1} with multiplication table mul[a][b] = a*b."""

    __slots__ = ("size", "mul", "identity", "inv")

    def __init__(self, mul, identity=None):
        mul = tuple(tuple(int(v) for v in row) for row in mul)
        n = len(mul)
        if n == 0:
            raise EmptyCarrier("group carrier must be nonempty")
        if any(len(row) != n for row in mul):
            raise ValueError("multiplication table must be square")
        if any(v < 0 or v >= n for row in mul for v in row):
            raise ValueError("table entries out of range")
        if identity is None:
            identity = next(
                (e for e in range(n)
                 if all(mul[e][x] == x and mul[x][e] == x for x in range(n))),
                None,
            )
            if identity is None:
                raise ValidationError("no identity element", [Diagnostic("identity", [])])
        diags = []
        if any(mul[identity][x] != x or mul[x][identity] != x for x in range(n)):
            diags.append(Diagnostic("identity", [identity]))
        inv = [None] * n
        missing = []
        for a in range(n):
            b = next((b for b in range(n)
                      if mul[a][b] == identity and mul[b][a] == identity), None)
            if b is None:
                missing.append(a)
            inv[a] = b
        if missing:
            diags.append(Diagnostic("inverses", missing))
        bad_assoc = [
            (a, b, c)
            for a in range(n)
            for b in range(n)
            for c in range(n)
            if mul[mul[a][b]][c] != mul[a][mul[b][c]]
        ]
        if bad_assoc:
            diags.append(Diagnostic("associativity", bad_assoc))
        if diags:
            raise ValidationError("not a valid group table", diags)
        self.size = n
        self.mul = mul
        self.identity = identity
        self.inv = tuple(inv)

    def m(self, a, b):
        return self.mul[a][b]

    def power(self, a, k):
        # a^|G| = e (Lagrange), so k is read modulo the order, negative k too
        out = self.identity
        for _ in range(k % self.size):
            out = self.mul[out][a]
        return out

    def order_of(self, a):
        k, x = 1, a
        while x != self.identity:
            x = self.mul[x][a]
            k += 1
        return k

    def is_central(self, a):
        return all(self.mul[a][x] == self.mul[x][a] for x in range(self.size))

    def conjugate(self, x, y, n=1):
        """y^{-n} x y^n."""
        yn = self.power(y, n)
        return self.mul[self.mul[self.inv[yn]][x]][yn]

    @classmethod
    def cyclic(cls, n):
        return cls([[(a + b) % n for b in range(n)] for a in range(n)], identity=0)

    @classmethod
    def symmetric(cls, n):
        """S_n on sorted permutation words; (p*q)(i) = p(q(i))."""
        elems = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(elems)}
        mul = [
            [index[tuple(p[q[i]] for i in range(n))] for q in elems]
            for p in elems
        ]
        return cls(mul, identity=index[tuple(range(n))])

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.mul == other.mul

    def __hash__(self):
        return hash(self.mul)

    def __repr__(self):
        return f"FiniteGroup(size={self.size})"


def subgroup_check(G, elements):
    """Sorted, deduplicated subgroup elements; NotASubgroup if not closed."""
    elems = sorted(set(int(x) for x in elements))
    if any(x < 0 or x >= G.size for x in elems):
        raise NotASubgroup("subgroup elements out of range")
    if G.identity not in elems:
        raise NotASubgroup("subgroup must contain the identity")
    s = set(elems)
    for a in elems:
        if G.inv[a] not in s:
            raise NotASubgroup(f"element {a} has no inverse in the subset")
        for b in elems:
            if G.mul[a][b] not in s:
                raise NotASubgroup(f"subset not closed under multiplication at ({a},{b})")
    return elems


def is_normal(G, subgroup_elements):
    s = set(subgroup_elements)
    return all(
        G.mul[G.mul[g][a]][G.inv[g]] in s
        for g in range(G.size)
        for a in s
    )


def quotient_group(G, subgroup_elements):
    """(Q, projection) for a normal subgroup; cosets ordered by least member."""
    elems = subgroup_check(G, subgroup_elements)
    if not is_normal(G, elems):
        raise NotNormal("the subgroup is not normal")
    coset_of = [None] * G.size
    reps = []
    for g in range(G.size):
        if coset_of[g] is not None:
            continue
        members = sorted(G.mul[g][a] for a in elems)
        idx = len(reps)
        reps.append(members[0])
        for m in members:
            coset_of[m] = idx
    k = len(reps)
    mul = [[coset_of[G.mul[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
    Q = FiniteGroup(mul, identity=coset_of[G.identity])
    return Q, tuple(coset_of)


def conj_quandle(G, n=1):
    """Conjugation quandle x*y = y^{-n} x y^n with rho = inversion."""
    table = [[G.conjugate(x, y, n) for y in range(G.size)] for x in range(G.size)]
    rack = validate_rack(table, QUANDLE)
    return validate_good_involution(rack, G.inv)


def core_quandle(G, z=None):
    """Core quandle x*y = y x^{-1} y; rho = id, or rho(y) = y*z for central z of order 2."""
    table = [
        [G.mul[G.mul[y][G.inv[x]]][y] for y in range(G.size)]
        for x in range(G.size)
    ]
    rack = validate_rack(table, QUANDLE)
    if z is None:
        rho = tuple(range(G.size))
    else:
        z = int(z)
        if not (0 <= z < G.size) or z == G.identity or G.mul[z][z] != G.identity \
                or not G.is_central(z):
            raise NotCentralInvolution(f"element {z} is not central of order 2")
        rho = tuple(G.mul[y][z] for y in range(G.size))
    return validate_good_involution(rack, rho)
