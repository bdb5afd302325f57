"""Finite racks and quandles together with good involutions.

A rack is a table op on {0..n-1} with bijective right translations and
right self-distributivity (x*y)*z = (x*z)*(y*z); a quandle additionally has
x*x = x.  A good involution rho satisfies

    (S1) rho(rho(x)) = x,
    (S2) rho(x*y) = rho(x)*y,
    (S3) x*rho(y) = the unique z with z*y = x.

The pair (X, rho) is a symmetric rack (or symmetric quandle).
"""

from .errors import (
    Diagnostic,
    EmptyCarrier,
    SearchSpaceExceeded,
    ValidationError,
)
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
    bad_cols = [y for y in range(n) if len({row[y] for row in table}) != n]
    if bad_cols:
        diags.append(Diagnostic("right-translation-bijective", bad_cols))
    sd = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)
          if table[table[x][y]][z] != table[table[x][z]][table[y][z]]]
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


def enumerate_good_involutions(rack, bound=None):
    """All good involutions of the rack, lexicographic by permutation word.

    By S2 rho commutes with every right translation, so it is fixed on an
    orbit of the inner group by its value at the orbit's least element.  At
    the least unassigned i, each z with rho(z) unassigned whose right
    translation inverts that of i (S3), on an orbit as large, is tried in
    ascending order; rho(a*y) = rho(a)*y then derives each other element of
    the orbit once, and a clash drops z.  Every word found is still checked
    against S1-S3.  Once more than bound (default limits.GAUGE_SEARCH) values
    are tried it raises SearchSpaceExceeded, never a partial answer.
    """
    cap = limits.GAUGE_SEARCH if bound is None else bound
    n, op, cols = rack.size, rack.table, list(zip(*rack.table))
    inverse = [tuple(rack.left_inverse_op(x, y) for x in range(n)) for y in range(n)]
    orbit = [None] * n  # orbit[b]: b's orbit as (c, a, y) with c = a*y, from its least element
    for i in range(n):
        if orbit[i] is None:
            orbit[i] = tree = [(i, None, None)]
            for a, _, _ in tree:  # also visits the entries appended below
                for y, b in enumerate(op[a]):
                    if orbit[b] is None:
                        orbit[b] = tree
                        tree.append((b, a, y))
    allowed = [[z for z in range(n) if cols[z] == inverse[i] and len(orbit[z]) == len(orbit[i])]
               for i in range(n)]
    rho, words, tried = [None] * n, [], 0

    def search(i):
        nonlocal tried
        while i < n and rho[i] is not None:
            i += 1
        if i == n:
            words.append(tuple(rho))
            return
        for z in (z for z in allowed[i] if rho[z] is None):
            tried += 1
            if tried > cap:
                raise SearchSpaceExceeded(f"more than {cap} candidate values of rho tried")
            assigned = []
            for b, a, y in orbit[i]:
                w = z if a is None else op[rho[a]][y]
                if rho[b] is None and rho[w] is None:
                    rho[b], rho[w] = w, b
                    assigned += (b, w)
                elif rho[b] != w:
                    break
            else:
                search(i + 1)
            for x in assigned:
                rho[x] = None

    search(0)
    return [w for w in words if not good_involution_diagnostics(rack, w)]


def _isomorphisms(S, T, cap, fibers=None):
    """Every bijection S -> T preserving op and rho, lexicographic by image word.

    S and T have the same size.  Each generator of S is the least element
    outside the closure (under x*y, y*x and rho) of those before it; its
    block derives each element it adds once, as rho(a) or a*b of earlier
    ones.  Generator images are tried in ascending order, and a block filled
    by lookups is kept if each new element preserves rho and both products
    with every assigned one.  fibers=(p, q, zeta) keeps the maps sending
    fiber p[x] of S onto fiber zeta[p[x]] of T (q[v] is the fiber of v); the
    search chooses each None entry of zeta.  Once more than cap candidate
    images are tried it raises SearchSpaceExceeded, never a partial answer.
    """
    n, sop, top, srho, trho = S.size, S.rack.table, T.rack.table, S.rho, T.rho
    p, q, zeta = fibers if fibers is not None else ((0,) * n, (0,) * n, (0,))
    zeta, blocks, order, inside = list(zeta), [], [], [False] * n
    for g in range(n):
        if inside[g]:
            continue
        inside[g] = True
        blocks.append([(g, None, None)])  # (z, a, b): z = rho(a) if b is None, else a*b
        for x, _, _ in blocks[-1]:  # also visits the entries appended below
            order.append(x)
            for z, a, b in [(srho[x], x, None)] + [
                    d for y in order for d in ((sop[x][y], x, y), (sop[y][x], y, x))]:
                if not inside[z]:
                    inside[z] = True
                    blocks[-1].append((z, a, b))
    f, used, tried = [None] * n, [False] * n, 0
    dom, chosen = [], []  # assigned elements and chosen zeta entries, in order

    def fits(x, v):
        b = p[x]
        return not used[v] and (zeta[b] == q[v] or zeta[b] is None and q[v] not in zeta)

    def extend(block, v):
        # the block's images from v by lookups; False on the first clash
        start = len(dom)
        for z, a, b in block:
            w = v if a is None else trho[f[a]] if b is None else top[f[a]][f[b]]
            if not fits(z, w):
                return False
            if zeta[p[z]] is None:
                zeta[p[z]] = q[w]
                chosen.append(p[z])
            f[z], used[w] = w, True
            dom.append(z)
        for i in range(start, len(dom)):
            x, w = dom[i], f[dom[i]]
            if f[srho[x]] != trho[w]:
                return False
            for y in dom[:i + 1]:
                if f[sop[x][y]] != top[w][f[y]] or f[sop[y][x]] != top[f[y]][w]:
                    return False
        return True

    def search(k):
        nonlocal tried
        if k == len(blocks):
            yield tuple(f)
            return
        for v in range(n):
            if not fits(blocks[k][0][0], v):
                continue
            tried += 1
            if tried > cap:
                raise SearchSpaceExceeded(f"more than {cap} candidate images tried")
            assigned, picked = len(dom), len(chosen)
            if extend(blocks[k], v):
                yield from search(k + 1)
            for x in dom[assigned:]:  # undo the block
                used[f[x]], f[x] = False, None
            for b in chosen[picked:]:
                zeta[b] = None
            del dom[assigned:], chosen[picked:]

    yield from search(0)


def enumerate_automorphisms(X, bound=None):
    """All automorphisms of (X, rho): bijections preserving op and rho.

    Returned in lexicographic order of the permutation word (identity first),
    and checked to be a group on every element.  The search is capped at
    bound (default limits.GAUGE_SEARCH) candidate images and refuses, rather
    than truncates, a larger one.
    """
    out = list(_isomorphisms(X, X, limits.GAUGE_SEARCH if bound is None else bound))
    _check_group(out, tuple(range(X.size)), _compose_words, "automorphism set")
    return out


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
        table = tgt.rack.table
        bad_op = [
            (x, y)
            for x, row in enumerate(src.rack.table)
            for y, xy in enumerate(row)
            if f[xy] != table[f[x]][f[y]]
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
    return validate_good_involution(validate_rack(table, QUANDLE), range(n) if rho is None else rho)


def takasaki(n, rho=None):
    """Takasaki (dihedral) quandle on Z_n: x*y = 2y - x mod n, rho = id."""
    table = [[(2 * y - x) % n for y in range(n)] for x in range(n)]
    return validate_good_involution(validate_rack(table, QUANDLE), range(n) if rho is None else rho)


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
