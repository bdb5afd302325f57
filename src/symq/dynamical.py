"""Dynamical cocycles: fiberwise data gluing a new symmetric rack over a base.

Over a symmetric rack (X, rho) assign a finite fiber S_x to each x, maps
alpha_{x,y}: S_x x S_y -> S_{x*y} and beta_x: S_x -> S_{rho(x)}, and glue

  (x,s)*(y,t) = (x*y, alpha_{x,y}(s,t)),    rho(x,s) = (rho(x), beta_x(s)).

Each condition below is the glued-table axiom in brackets: dynamical_diagnostics
walks the glued table, and from_cocycle proves affine tables at the generators of A:

  (1) alpha_{x,y}(-, t) bijective for every t  [right translations bijective]
  (2) alpha_{x*y,z}(alpha_{x,y}(s,t), w)
        = alpha_{x*z,y*z}(alpha_{x,z}(s,w), alpha_{y,z}(t,w))  [self-distributivity]
  (3) alpha_{rho(x),y}(beta_x(s), t) = beta_{x*y}(alpha_{x,y}(s,t))  [S2]
  (4) beta_{rho(x)}(beta_x(s)) = s  [S1]
  (5) alpha_{x invop y, y}(alpha_{x,rho(y)}(s, beta_y(t)), t) = s  [S3]

and, when the glued object is asked to be a quandle over a quandle base,

  (6) alpha_{x,x}(s,s) = s  [idempotence].

So the glued table is again a symmetric rack, fibered over X, and a quandle
exactly when (6) holds.  A quandle base can perfectly well carry a rack
extension, so the quandle requirement is a flag, not something inferred
from the base.  Changing each fiber by a permutation gamma_x produces an
equivalent cocycle; the equivalences are exactly the fiber-preserving
isomorphisms over the base.
"""

from . import limits
from .cohomology import THEORY_SQ, THEORY_SR, is_cocycle
from .errors import (
    Diagnostic,
    InfiniteGroupUnsupported,
    NotACocycle,
    NotSurjective,
    ValidationError,
)
from .groups import conj_quandle, core_quandle, quotient_group
from .modules import _checked_module
from .racks import (
    QUANDLE,
    RACK,
    FiniteRack,
    FiniteSymmetricRack,
    RackMorphism,
    _invert_word,
    _isomorphisms,
    good_involution_diagnostics,
    is_isomorphism,
    rack_diagnostics,
)


def _resolve_quandle_flag(X, quandle):
    if quandle is None:
        quandle = X.kind == QUANDLE
    if quandle and X.kind != QUANDLE:
        raise ValueError("a quandle extension needs a quandle base")
    return bool(quandle)


class DynamicalCocycle:
    """Fiber data over a base, valid by construction.

    The constructor runs every axiom once, shape included, and raises a
    ValidationError with the diagnostics when one fails.  quandle=True asks
    the glued extension to be a quandle (condition (6)); the default follows
    the kind of the base.
    """

    __slots__ = ("base", "sizes", "alpha", "beta", "quandle")

    def __init__(self, base, sizes, alpha, beta, quandle=None):
        sizes = tuple(int(s) for s in sizes)
        diags = dynamical_diagnostics(base, sizes, alpha, beta, quandle)
        if diags:
            raise ValidationError("fiber data is not a dynamical cocycle", diags)
        self._hold(base, sizes, alpha, beta, _resolve_quandle_flag(base, quandle))

    @classmethod
    def _proven(cls, *fields):  # base, sizes, alpha, beta and quandle that _affine_axioms accepted
        return object.__new__(cls)._hold(*fields)

    def _hold(self, base, sizes, alpha, beta, quandle):
        self.base, self.sizes, self.quandle = base, sizes, quandle
        self.alpha = tuple(tuple(tuple(map(tuple, block)) for block in row) for row in alpha)
        self.beta = tuple(map(tuple, beta))
        return self

    # the axioms were checked on these fields, so they are never replaced
    def __setattr__(self, name, value):
        if name in self.__slots__ and hasattr(self, name):
            raise AttributeError(f"DynamicalCocycle.{name} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if name in self.__slots__:
            raise AttributeError(f"DynamicalCocycle.{name} is read-only")
        object.__delattr__(self, name)

    def __eq__(self, other):
        return isinstance(other, DynamicalCocycle) and all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __hash__(self):
        return hash((self.sizes, self.alpha, self.beta, self.quandle))

    def __repr__(self):
        return (
            f"DynamicalCocycle(base_size={self.base.size}, "
            f"sizes={list(self.sizes)}, quandle={self.quandle})"
        )


def _fiber_tables(X, sizes, alpha_at, beta_at):
    # the one statement of the table layout: alpha[x][y][s][t] and beta[x][s]
    n = X.size
    alpha = [[[[alpha_at(x, y, s, t) for t in range(sizes[y])] for s in range(sizes[x])]
              for y in range(n)] for x in range(n)]
    beta = [[beta_at(x, s) for s in range(sizes[x])] for x in range(n)]
    return alpha, beta


def _shape_problems(X, sizes, alpha, beta):
    problems = []
    n = X.size
    if len(sizes) != n or any(s <= 0 for s in sizes):
        return [("sizes", "one positive size per base element")]
    if len(alpha) != n or any(len(alpha[x]) != n for x in range(n)):
        return [("alpha", "outer shape")]
    if len(beta) != n:
        return [("beta", "outer shape")]
    for x in range(n):
        for y in range(n):
            block = alpha[x][y]
            target = sizes[X.op(x, y)]
            if len(block) != sizes[x] or any(len(row) != sizes[y] for row in block):
                problems.append(("alpha", x, y))
                continue
            if any(not (0 <= v < target) for row in block for v in row):
                problems.append(("alpha", x, y))
        row = beta[x]
        target = sizes[X.rho[x]]
        if len(row) != sizes[x] or any(not (0 <= v < target) for v in row):
            problems.append(("beta", x))
    return problems


def _glue(X, sizes, alpha, beta):
    # the one place that writes (x,s)*(y,t) and rho(x,s), on the labels
    # (x, s) in lexicographic order
    labels = [(x, s) for x in range(X.size) for s in range(sizes[x])]
    index = {p: i for i, p in enumerate(labels)}
    table = [[index[(X.op(x, y), alpha[x][y][s][t])] for y, t in labels] for x, s in labels]
    rho = [index[(X.rho[x], beta[x][s])] for x, s in labels]
    return labels, table, rho


def dynamical_diagnostics(X, sizes, alpha, beta, quandle=None):
    """Axiom diagnostics for raw fiber tables, witnessed by (x, s) labels.

    Shape problems short-circuit, and so do fibers whose sizes differ along
    x*y or rho; otherwise the glued table is checked once, by the rack and
    good-involution checks of racks.py.
    """
    kind = QUANDLE if _resolve_quandle_flag(X, quandle) else RACK
    shape = _shape_problems(X, sizes, alpha, beta)
    if shape:
        return [Diagnostic("fiber-map", shape)]
    mismatched = []
    for x in range(X.size):
        mismatched += [(x, y) for y in range(X.size) if sizes[X.op(x, y)] != sizes[x]]
        if sizes[X.rho[x]] != sizes[x]:
            mismatched.append((x,))
    if mismatched:
        return [Diagnostic("fiber-size", mismatched)]

    labels, table, rho = _glue(X, sizes, alpha, beta)
    diags = rack_diagnostics(table, kind)
    if sorted(rho) != list(range(len(rho))):
        # some beta_x is not bijective: no good involution to test S2 and S3 on
        diags.append(Diagnostic("S1-involution", [i for i, r in enumerate(rho) if rho[r] != i]))
    elif not any(d.axiom == "right-translation-bijective" for d in diags):
        diags += good_involution_diagnostics(FiniteRack(table, kind), rho)
    for d in diags:
        d.witnesses = [labels[w] if isinstance(w, int) else tuple(labels[i] for i in w)
                       for w in d.witnesses]
    return diags


class DynamicalExtension:
    """The glued symmetric rack, with the (x, s) <-> index dictionary."""

    __slots__ = ("rack", "cocycle", "labels", "_index")

    def __init__(self, rack, cocycle, labels):
        self.rack = rack
        self.cocycle = cocycle
        self.labels = tuple(labels)
        self._index = {p: i for i, p in enumerate(self.labels)}

    def index_of(self, pair):
        return self._index[pair]

    def pair_of(self, index):
        return self.labels[index]

    def __repr__(self):
        return (
            f"DynamicalExtension(size={self.rack.size}, "
            f"base_size={self.cocycle.base.size})"
        )


def build_extension(dc):
    """Glue the total symmetric rack of a dynamical cocycle.

    The cocycle's constructor walked this very table, or from_cocycle proved
    its axioms, and the fields are read-only, so it is not checked again.
    """
    labels, table, rho = _glue(dc.base, dc.sizes, dc.alpha, dc.beta)
    rack = FiniteRack(table, QUANDLE if dc.quandle else RACK)
    return DynamicalExtension(FiniteSymmetricRack(rack, rho), dc, labels)


class Gauge:
    """A permutation of every fiber; acts on cocycles and nothing else."""

    __slots__ = ("perms",)

    def __init__(self, perms):
        perms = tuple(tuple(p) for p in perms)
        for p in perms:
            if sorted(p) != list(range(len(p))):
                raise ValueError("each fiber map must be a permutation")
        self.perms = perms

    @classmethod
    def identity(cls, sizes):
        return cls([tuple(range(s)) for s in sizes])

    def inverse(self):
        return Gauge([_invert_word(p) for p in self.perms])

    def __eq__(self, other):
        return isinstance(other, Gauge) and self.perms == other.perms

    def __hash__(self):
        return hash(self.perms)

    def __repr__(self):
        return f"Gauge({[list(p) for p in self.perms]})"


def gauge_transform(dc, gauge):
    """Twist: alpha'(s,t) = g_{x*y}(alpha(ginv_x(s), ginv_y(t))), beta' alike."""
    g = gauge if isinstance(gauge, Gauge) else Gauge(gauge)
    X = dc.base
    if tuple(len(p) for p in g.perms) != dc.sizes:
        raise ValueError("gauge fiber sizes do not match the cocycle")
    perms, ginv = g.perms, g.inverse().perms
    alpha, beta = _fiber_tables(
        X, dc.sizes,
        lambda x, y, s, t: perms[X.op(x, y)][dc.alpha[x][y][ginv[x][s]][ginv[y][t]]],
        lambda x, s: perms[X.rho[x]][dc.beta[x][ginv[x][s]]],
    )
    return DynamicalCocycle(X, dc.sizes, alpha, beta, dc.quandle)


def are_cohomologous_dynamical(dc1, dc2, bound=None):
    """Search for a gauge carrying dc1 to dc2; None if there is none.

    A gauge is a fiber-preserving isomorphism over the identity of the base,
    so the first such map between the two glued extensions gives the
    lexicographically least gauge.  The search is capped at the bound in
    candidate images tried.  A found gauge is double-checked by transporting
    dc1 and by verifying the isomorphism of the two extensions it induces.
    """
    if dc1.base != dc2.base:
        raise ValueError("cocycles live over different bases")
    if dc1.quandle != dc2.quandle:
        raise ValueError("cocycles target different extension kinds")
    if dc1.sizes != dc2.sizes:
        return None
    cap = limits.GAUGE_SEARCH if bound is None else bound
    e1 = build_extension(dc1)
    e2 = build_extension(dc2)
    bases = [x for x, _ in e1.labels]
    fibers = (bases, bases, list(range(dc1.base.size)))
    carry = next(_isomorphisms(e1.rack, e2.rack, cap, fibers), None)
    if carry is None:
        return None
    perms = [[] for _ in dc1.sizes]
    for (x, s), i in zip(e1.labels, carry):
        perms[x].append(e2.pair_of(i)[1])
    found = Gauge(perms)
    if gauge_transform(dc1, found) != dc2:
        raise AssertionError("gauge transport check failed")
    carry = [e2.index_of((x, found.perms[x][s])) for (x, s) in e1.labels]
    if not is_isomorphism(RackMorphism(e1.rack, e2.rack, carry)):
        raise AssertionError("gauge does not induce an isomorphism over the base")
    return found


# ---------------------------------------------------------------------------
# constructions


def affine_tables(m, sigma):
    """Raw fiber tables of alpha(a,b) = phi(a) + psi(b) + sigma(x,y), beta = eta.

    No axiom is checked here: the tables of an arbitrary candidate triple
    are exactly what a validator needs to see.
    """
    X, A, n = m.base, m.A, m.base.size
    if not A.is_finite():
        raise InfiniteGroupUnsupported("fibers must be finite to tabulate")
    if sigma.degree != 2 or sigma.size != n or sigma.group != A:
        raise ValueError("sigma must be a 2-cochain on the base with values in A")
    sizes = (A.order(),) * n
    _, index, sums, _ = A.index_tables()
    phi, psi = ([[h.indices() for h in row] for row in maps] for maps in (m.phi, m.psi))
    alpha, beta = _fiber_tables(
        X, sizes,
        lambda x, y, s, t: sums[sums[phi[x][y][s]][psi[x][y][t]]][index[sigma.values[x * n + y]]],
        lambda x, s: m.eta[x].indices()[s],
    )
    return sizes, alpha, beta


def _affine_axioms(X, A, alpha, beta, quandle):
    """True only if the tables of affine_tables glue a symmetric rack (a quandle if asked).

    With alpha_{x,y}(s, t) = g(s) + h(t) + c and beta_x(s) = k(s) + b proven, g, h, k additive,
    each of (1)-(6) is an identity of affine maps of A^k: it is checked at 0 and at each
    generator of A in each argument, next to the same axiom of X."""
    n, q, op, rho = X.size, A.order(), X.rack.table, X.rho
    _, index, sums, negs = A.index_tables()
    gens = [index[A.reduce([int(i == j) for j in range(A.rank)])] for i in range(A.rank)]
    points = [(0, 0, 0)] + [(0,) * i + (e,) + (0,) * (2 - i) for i in range(3) for e in gens]

    def linear(f):  # f - f(0) if it is additive: g(s + e) = g(s) + g(e) for each generator e
        g = [sums[v][negs[f[0]]] for v in f]
        return all([g[r[e]] for r in sums] == [sums[v][g[e]] for v in g] for e in gens) and g

    for x in range(n):  # True only once every map is proven affine
        rx, bx, ax = rho[x], beta[x], alpha[x]
        if rho[rx] != x or quandle and op[x][x] != x or not linear(bx) or any(  # (4), (6)
                beta[rx][bx[s]] != s or quandle and ax[x][s][s] != s for s, _, _ in points):
            return False
        for y in range(n):
            xy, u, axy, ay, by = op[x][y], op[x][rho[y]], ax[y], alpha[y], beta[y]
            g, h = linear(col := [row[0] for row in axy]), linear(axy[0])
            if not (g and h) or len(set(g)) != q or (  # alpha(s, t) = alpha(s, 0) + h(t), (1)
                    [sums[v][k] for v in col for k in h] != [v for row in axy for v in row]):
                return False
            if rho[xy] != op[rx][y] or op[u][y] != x or any(  # (3), (5)
                    alpha[rx][y][bx[s]][t] != beta[xy][axy[s][t]]
                    or alpha[u][y][ax[rho[y]][s][by[t]]][t] != s for s, t, _ in points):
                return False
            for z, (xz, yz) in enumerate(zip(op[x], op[y])):
                left, right, axz, ayz = alpha[xy][z], alpha[xz][yz], ax[z], ay[z]
                if op[xy][z] != op[xz][yz] or any(  # (2)
                        left[axy[s][t]][w] != right[axz[s][w]][ayz[t][w]] for s, t, w in points):
                    return False
    return True


def _checked_theory(m, sigma, theory):
    # the module axioms until they hold (the verdict is kept with the module), the
    # cocycle conditions once per cocycle; the default theory follows the base
    if theory is None:
        theory = THEORY_SQ if m.base.kind == QUANDLE else THEORY_SR
    _checked_module(m, "coefficients are not a module")
    ok, diags = is_cocycle(m, sigma, theory)
    if not ok:
        raise NotACocycle("not a 2-cocycle: " + "; ".join(d.axiom for d in diags))
    return theory


def from_cocycle(m, sigma, theory=None):
    """Dynamical cocycle of a module 2-cocycle; every route is verified.

    The module axioms (walked until a module passes, then kept with it) and the cocycle
    conditions are checked, and the dynamical axioms are proven on the affine tables at
    the generators of A; failing that, the constructor's walk of the glued table decides.
    The quandle theory asks for a quandle extension, the rack theory for a
    rack extension; the default follows the kind of the base.
    """
    theory = _checked_theory(m, sigma, theory)
    tables = (m.base, *affine_tables(m, sigma), _resolve_quandle_flag(m.base, theory == THEORY_SQ))
    if _affine_axioms(m.base, m.A, *tables[2:]):
        return DynamicalCocycle._proven(*tables)
    return DynamicalCocycle(*tables)


def from_surjection(f):
    """Unpack a surjection of symmetric racks into a dynamical cocycle.

    Fibers are the preimages in increasing element order; returns
    (cocycle, fibers) with fibers[x][s] the total-space element named (x, s).
    The reglued extension is checked to be isomorphic to the source.
    """
    diags = f.diagnostics()
    if diags:
        raise ValidationError("not a morphism of symmetric racks", diags)
    if not f.is_surjective():
        raise NotSurjective("the morphism misses part of the base")
    src, X = f.source, f.target
    fibers = [[e for e in range(src.size) if f.map[e] == x] for x in range(X.size)]
    return _reglue(src, X, fibers), fibers


def _reglue(src, X, fibers):
    # the cocycle of src over X that names fibers[x][s] as (x, s); the
    # extension it glues is checked to be src again
    pos = {e: s for fib in fibers for s, e in enumerate(fib)}
    sizes = tuple(len(fib) for fib in fibers)
    alpha, beta = _fiber_tables(
        X, sizes,
        lambda x, y, s, t: pos[src.op(fibers[x][s], fibers[y][t])],
        lambda x, s: pos[src.rho[fibers[x][s]]],
    )
    dc = DynamicalCocycle(X, sizes, alpha, beta, quandle=src.kind == QUANDLE)
    ext = build_extension(dc)
    carry = [fibers[x][s] for (x, s) in ext.labels]
    if not is_isomorphism(RackMorphism(ext.rack, src, carry)):
        raise AssertionError("reglued extension does not match the source")
    return dc


class GroupExtensionSplitting:
    """A group-built quandle over its quotient, split along a section.

    kappa picks the least element of each coset (the identity for the
    trivial coset), fibers are identified with the subgroup through
    s |-> kappa(x) s, and theta(x, y) = kappa(x*y)^-1 (kappa(x) * kappa(y))
    records how the section fails to respect the quandle operation.
    """

    __slots__ = (
        "group",
        "subgroup",
        "quotient",
        "coset_of",
        "total",
        "base",
        "kappa",
        "cocycle",
        "theta",
        "flavor",
    )

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def __repr__(self):
        return (
            f"GroupExtensionSplitting(flavor={self.flavor!r}, "
            f"group_size={self.group.size}, subgroup_size={len(self.subgroup)})"
        )


def from_group_extension(G, sub_elements, flavor="conj", n=1, z=None):
    """Split a conjugation or core quandle of G over G/A, A normal.

    flavor "conj" uses x*y = y^-n x y^n with rho = inversion; "core" uses
    x*y = y x^-1 y with rho = id; "core_z" twists core by rho(y) = yz for a
    given central involution z.  When z lies in A the quotient involution
    collapses to the identity.
    """
    Q, coset_of = quotient_group(G, sub_elements)
    A = [e for e in range(G.size) if coset_of[e] == coset_of[G.identity]]
    if flavor == "conj":
        total = conj_quandle(G, n)
        base = conj_quandle(Q, n)
    elif flavor == "core":
        total = core_quandle(G)
        base = core_quandle(Q)
    elif flavor == "core_z":
        if z is None:
            raise ValueError("core_z needs the central involution z")
        total = core_quandle(G, z)
        zbar = coset_of[z]
        base = core_quandle(Q) if zbar == Q.identity else core_quandle(Q, zbar)
    else:
        raise ValueError(f"unknown flavor {flavor!r}")

    proj = RackMorphism(total, base, coset_of)
    if proj.diagnostics():
        raise AssertionError("projection to the quotient is not a morphism")

    kappa = []
    for q in range(Q.size):
        members = [e for e in range(G.size) if coset_of[e] == q]
        kappa.append(G.identity if coset_of[G.identity] == q else min(members))
    # fiber x is the coset kappa(x) A, its element s named kappa(x) A[s]
    dc = _reglue(total, base, [[G.m(k, a) for a in A] for k in kappa])

    i0 = A.index(G.identity)
    theta = {
        (x, y): A[dc.alpha[x][y][i0][i0]] for x in range(Q.size) for y in range(Q.size)
    }
    return GroupExtensionSplitting(
        group=G,
        subgroup=tuple(A),
        quotient=Q,
        coset_of=tuple(coset_of),
        total=total,
        base=base,
        kappa=tuple(kappa),
        cocycle=dc,
        theta=theta,
        flavor=flavor,
    )
