"""Finite racks and quandles together with good involutions.

A rack is a table op on {0..n-1} with bijective right translations and
right self-distributivity (x*y)*z = (x*z)*(y*z); a quandle additionally has
x*x = x.  A good involution rho satisfies

    (S1) rho(rho(x)) = x,
    (S2) rho(x*y) = rho(x)*y,
    (S3) x*rho(y) = the unique z with z*y = x.

The pair (X, rho) is a symmetric rack (or symmetric quandle).
"""

from itertools import permutations

from .errors import Diagnostic, EmptyCarrier, SizeBoundExceeded, ValidationError
from . import limits

RACK = "rack"
QUANDLE = "quandle"


class FiniteRack:
    """Rack on {0..n-1} given by its operation table table[x][y] = x*y."""

    __slots__ = ("size", "table", "kind", "_linv")

    def __init__(self, table, kind=RACK):
        table = tuple(tuple(int(v) for v in row) for row in table)
        n = len(table)
        if n == 0:
            raise EmptyCarrier("rack carrier must be nonempty")
        if kind not in (RACK, QUANDLE):
            raise ValueError(f"unknown kind {kind!r}")
        if any(len(row) != n for row in table):
            raise ValueError("table must be square")
        if any(v < 0 or v >= n for row in table for v in row):
            raise ValueError("table entries out of range")
        self.size = n
        self.table = table
        self.kind = kind
        # left inverse of right translation: _linv[x][y] is the z with z*y = x
        linv = [[None] * n for _ in range(n)]
        for y in range(n):
            for z in range(n):
                linv[table[z][y]][y] = z
        self._linv = tuple(tuple(row) for row in linv)

    def op(self, x, y):
        return self.table[x][y]

    def left_inverse_op(self, x, y):
        """The unique z with z*y = x (written x *^{-1} y)."""
        z = self._linv[x][y]
        if z is None:
            raise ValueError("right translation is not bijective")
        return z

    def __eq__(self, other):
        return (
            isinstance(other, FiniteRack)
            and self.table == other.table
            and self.kind == other.kind
        )

    def __hash__(self):
        return hash((self.table, self.kind))

    def __repr__(self):
        return f"FiniteRack(size={self.size}, kind={self.kind!r})"


def rack_diagnostics(table, kind=RACK):
    """All violated rack axioms with witness tuples (empty list = valid)."""
    table = [list(row) for row in table]
    n = len(table)
    if n == 0:
        raise EmptyCarrier("rack carrier must be nonempty")
    diags = []
    bad_shape = [i for i, row in enumerate(table) if len(row) != n]
    if bad_shape:
        diags.append(Diagnostic("square-table", bad_shape))
        return diags
    bad_range = [(x, y) for x in range(n) for y in range(n)
                 if not 0 <= table[x][y] < n]
    if bad_range:
        diags.append(Diagnostic("entry-range", bad_range))
        return diags
    bad_cols = []
    for y in range(n):
        if len({table[x][y] for x in range(n)}) != n:
            bad_cols.append(y)
    if bad_cols:
        diags.append(Diagnostic("right-translation-bijective", bad_cols))
    sd = []
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[table[x][z]][table[y][z]]:
                    sd.append((x, y, z))
    if sd:
        diags.append(Diagnostic("self-distributivity", sd))
    if kind == QUANDLE:
        idem = [x for x in range(n) if table[x][x] != x]
        if idem:
            diags.append(Diagnostic("idempotence", idem))
    return diags


def validate_rack(table, kind=RACK):
    """Validated FiniteRack, or ValidationError carrying the diagnostics."""
    diags = rack_diagnostics(table, kind)
    if diags:
        raise ValidationError(f"not a valid {kind}", diags)
    return FiniteRack(table, kind)


class FiniteSymmetricRack:
    """A rack paired with a good involution."""

    __slots__ = ("rack", "rho")

    def __init__(self, rack, rho):
        rho = tuple(int(v) for v in rho)
        if len(rho) != rack.size or sorted(rho) != list(range(rack.size)):
            raise ValueError("rho must be a permutation of the carrier")
        self.rack = rack
        self.rho = rho

    @property
    def size(self):
        return self.rack.size

    @property
    def kind(self):
        return self.rack.kind

    def op(self, x, y):
        return self.rack.table[x][y]

    def left_inverse_op(self, x, y):
        return self.rack.left_inverse_op(x, y)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSymmetricRack)
            and self.rack == other.rack
            and self.rho == other.rho
        )

    def __hash__(self):
        return hash((self.rack, self.rho))

    def __repr__(self):
        return f"FiniteSymmetricRack(size={self.size}, kind={self.kind!r}, rho={list(self.rho)})"


def good_involution_diagnostics(rack, rho):
    """Violations of S1-S3 for rho on a valid rack."""
    n = rack.size
    rho = tuple(int(v) for v in rho)
    if len(rho) != n or sorted(rho) != list(range(n)):
        raise ValueError("rho must be a permutation of the carrier")
    diags = []
    s1 = [x for x in range(n) if rho[rho[x]] != x]
    if s1:
        diags.append(Diagnostic("S1-involution", s1))
    s2 = []
    s3 = []
    for x in range(n):
        for y in range(n):
            if rho[rack.op(x, y)] != rack.op(rho[x], y):
                s2.append((x, y))
            if rack.op(x, rho[y]) != rack.left_inverse_op(x, y):
                s3.append((x, y))
    if s2:
        diags.append(Diagnostic("S2-equivariance", s2))
    if s3:
        diags.append(Diagnostic("S3-inverse-translation", s3))
    return diags


def validate_good_involution(rack, rho):
    """Validated FiniteSymmetricRack, or ValidationError with S1-S3 witnesses."""
    diags = good_involution_diagnostics(rack, rho)
    if diags:
        raise ValidationError("not a good involution", diags)
    return FiniteSymmetricRack(rack, rho)


def _involution_words(n):
    # involutive permutation words of {0..n-1} in lexicographic order
    def rec(word, free):
        if not free:
            yield tuple(word)
            return
        i = free[0]
        word[i] = i
        for rest in rec(word, free[1:]):
            yield rest
        for j in free[1:]:
            word[i], word[j] = j, i
            remaining = [k for k in free[1:] if k != j]
            for rest in rec(word, remaining):
                yield rest
        word[i] = None

    return rec([None] * n, list(range(n)))


def enumerate_good_involutions(rack, bound=None):
    """All good involutions of the rack, lexicographic by permutation word."""
    bound = limits.resolve(bound, limits.GOOD_INVOLUTION_SIZE)
    if rack.size > bound:
        raise SizeBoundExceeded(
            f"good-involution enumeration bounded at size {bound}"
        )
    out = []
    for rho in _involution_words(rack.size):
        if not good_involution_diagnostics(rack, rho):
            out.append(rho)
    return out


def _automorphism_backtrack(X):
    n = X.size
    op = X.rack.table
    rho = X.rho
    f = [None] * n
    used = [False] * n
    out = []

    def consistent(k):
        # rho-compatibility for k and op-compatibility over assigned indices
        r = rho[k]
        if f[r] is not None and f[r] != rho[f[k]]:
            return False
        assigned = [x for x in range(n) if f[x] is not None]
        for x in assigned:
            for a, b in ((k, x), (x, k)):
                t = op[a][b]
                if f[t] is not None and op[f[a]][f[b]] != f[t]:
                    return False
            for y in assigned:
                if op[x][y] == k and op[f[x]][f[y]] != f[k]:
                    return False
        return True

    def rec(k):
        if k == n:
            out.append(tuple(f))
            return
        for v in range(n):
            if used[v]:
                continue
            f[k] = v
            used[v] = True
            if consistent(k):
                rec(k + 1)
            f[k] = None
            used[v] = False

    rec(0)
    return out


def enumerate_automorphisms(X, bound=None):
    """All automorphisms of (X, rho): bijections preserving op and rho.

    Returned in lexicographic order of the permutation word (identity first),
    and checked to be a group on every element.
    """
    bound = limits.resolve(bound, limits.AUTOMORPHISM_SIZE)
    n = X.size
    if n > bound:
        raise SizeBoundExceeded(f"automorphism enumeration bounded at size {bound}")
    if n < 6:
        out = []
        for word in permutations(range(n)):
            if _is_automorphism_word(X, word):
                out.append(word)
    else:
        out = _automorphism_backtrack(X)
    _check_group(out, tuple(range(n)), _compose_words, "automorphism set")
    return out


def _is_automorphism_word(X, f):
    n = X.size
    for x in range(n):
        if f[X.rho[x]] != X.rho[f[x]]:
            return False
        for y in range(n):
            if f[X.op(x, y)] != X.op(f[x], f[y]):
                return False
    return True


def _check_group(elements, identity, mul, what):
    """Check that a finite set of group elements is a subgroup; return generators.

    Generators are picked greedily in order; closing the identity under right
    multiplication by them reaches every element in O(|G|·|S|) products, and
    in a finite group that closure also holds the inverses.
    """
    group = set(elements)
    if identity not in group:
        raise AssertionError(f"{what} misses the identity")
    gens, reached, seen = [], [identity], {identity}
    for g in elements:
        if g in seen:
            continue
        gens.append(g)
        old = len(reached)
        for i, h in enumerate(reached):  # also visits elements appended below
            for s in gens if i >= old else gens[-1:]:
                p = mul(h, s)
                if p not in group:
                    raise AssertionError(f"{what} not closed under composition")
                if p not in seen:
                    seen.add(p)
                    reached.append(p)
    return gens


def _compose_words(f, g):
    return tuple(f[v] for v in g)


def _invert_word(f):
    return tuple(sorted(range(len(f)), key=f.__getitem__))


class RackMorphism:
    """A map of symmetric racks; validity is checked by diagnostics()."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, map):
        map = tuple(int(v) for v in map)
        if len(map) != source.size:
            raise ValueError("map length must equal the source size")
        if any(v < 0 or v >= target.size for v in map):
            raise ValueError("map values out of target range")
        self.source = source
        self.target = target
        self.map = map

    def __call__(self, x):
        return self.map[x]

    def diagnostics(self):
        diags = []
        f = self.map
        src, tgt = self.source, self.target
        bad_op = [
            (x, y)
            for x in range(src.size)
            for y in range(src.size)
            if f[src.op(x, y)] != tgt.op(f[x], f[y])
        ]
        if bad_op:
            diags.append(Diagnostic("morphism-op", bad_op))
        bad_rho = [x for x in range(src.size) if f[src.rho[x]] != tgt.rho[f[x]]]
        if bad_rho:
            diags.append(Diagnostic("morphism-rho", bad_rho))
        return diags

    def is_morphism(self):
        return not self.diagnostics()

    def is_surjective(self):
        return len(set(self.map)) == self.target.size

    def __repr__(self):
        return f"RackMorphism({list(self.map)})"


def is_isomorphism(f):
    """True iff f is a bijective morphism of symmetric racks."""
    if f.source.size != f.target.size:
        return False
    if len(set(f.map)) != f.source.size:
        return False
    return f.is_morphism()


def trivial_rack(n, rho=None):
    """Trivial quandle x*y = x with an arbitrary involution (default identity)."""
    table = [[x] * n for x in range(n)]
    rack = validate_rack(table, QUANDLE)
    if rho is None:
        rho = tuple(range(n))
    return validate_good_involution(rack, rho)


def takasaki(n, rho=None):
    """Takasaki (dihedral) quandle on Z_n: x*y = 2y - x mod n, rho = id."""
    table = [[(2 * y - x) % n for y in range(n)] for x in range(n)]
    rack = validate_rack(table, QUANDLE)
    if rho is None:
        rho = tuple(range(n))
    return validate_good_involution(rack, rho)


def cycle_notation(perm):
    """Permutation word rendered in cycle notation, 'id' for the identity."""
    n = len(perm)
    seen = [False] * n
    parts = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = perm[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = perm[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "id"
