"""Fiber-preserving symmetries of affine extensions and their obstructions.

An affine extension E = X x A of a finite symmetric rack (X, rho) by a
constant module (A, phi, psi, eta) twisted by a 2-cocycle sigma carries

    (x, a) * (y, b) = (x * y, phi(a) + psi(b) + sigma(x, y))
    rho_E(x, a)     = (rho(x), eta(a)).

A symmetry pair is a rack symmetry zeta of (X, rho) together with an
invertible endomorphism theta of A commuting with phi, psi and eta; it
acts on 2-cochains by

    (g . sigma)(x, y) = theta(sigma(zeta^-1(x), zeta^-1(y))).

A pair lifts to a fiber-preserving symmetry of E exactly when the
obstruction class [sigma] - [g . sigma] vanishes.  Every lift has the
affine shape xi(x, a) = (zeta(x), lam(x) + theta(a)) where lam is an
eta-compatible 1-cochain with

    delta(lam)(x, y) = theta(sigma(x, y)) - sigma(zeta(x), zeta(y)),

two lifts of the same pair differ by a 1-cocycle, and the lifts of the
identity pair form a group isomorphic to Z^1.
"""

from itertools import product
from math import gcd, prod

from . import limits
from .abelian import AbHom, _reduced, kernel, subgroup_elements
# coboundary_witness stays importable from this module
from .cohomology import (THEORY_SQ, THEORY_SR, Cochain, _cochain_to_vec, _kept_presentation,
                         _kept_witness_map, _vec_to_cochain, _witness, coboundary_witness,
                         is_cocycle)
from .dynamical import _checked_theory, build_extension, from_cocycle
from .errors import (Diagnostic, InfiniteGroupUnsupported, NotConstantModule,
                     SearchSpaceExceeded, ValidationError)
from .modules import _kept
from .racks import (RackMorphism, _check_group, _compose_words, _invert_word,
                    _isomorphisms, enumerate_automorphisms, is_isomorphism)


class AbelianExtension:
    """X x A with the affine product; the glued table exists when A is finite.

    Over an infinite A only the cohomological data is kept: obstruction
    classes and lift equations never need the total space itself.  Z^1 and
    every lift equation are read off the module's degree-1 witness map, and
    obstruction classes off its degree-2 presentation; both are built once per
    module and shared by all its extensions.  Each symmetry pair is validated
    once per extension, and its pair . sigma is formed and cocycle-checked
    once; every obstruction route reads it, and its lift equation is solved
    once for both the stabilizer and the lift.
    """

    __slots__ = (
        "module", "sigma", "theory", "extension", "rack",
        "_sigma_class", "_acted", "_tau",
    )

    def __init__(self, module, sigma, theory, extension):
        self.module = module
        self.sigma = sigma
        self.theory = theory
        self.extension = extension
        self.rack = extension.rack if extension is not None else None
        self._sigma_class = None
        self._acted = {}
        self._tau = {}

    def _degree1_map(self):
        return _kept_witness_map(self.module, 1, self.theory, 0)

    @property
    def presentation(self):
        """The degree-2 cohomology presentation of the module, shared."""
        return _kept_presentation(self.module, self.theory)

    @property
    def size(self):
        return _glued(self).rack.size

    def index_of(self, x, a):
        glued, A = _glued(self), self.module.A
        if x not in range(self.module.base.size):
            raise ValueError(f"{x} is not an element of the base")
        return glued.index_of((x, A.element_index(A.reduce(a))))

    def pair_of(self, index):
        x, s = _glued(self).pair_of(index)
        return x, self.module.A.element(s)

    def __repr__(self):
        total = self.rack.size if self.rack is not None else "infinite"
        return (
            f"AbelianExtension(base_size={self.module.base.size}, "
            f"total={total}, theory={self.theory!r})"
        )


def _glued(ext):
    # the glued table of E, which only a finite fiber group has
    if ext.extension is None:
        raise InfiniteGroupUnsupported("an infinite fiber group has no glued table")
    return ext.extension


def build_abelian_extension(m, sigma, theory=None):
    """Assemble the affine extension of a constant module by a 2-cocycle.

    The module and the cocycle are checked once for either fiber group.  A
    finite fiber group's table is proven by from_cocycle at the generators of
    A, glued by build_extension and rechecked against the affine product
    formula at every pair; an infinite fiber group keeps the extension
    symbolic.  The default theory follows the kind of the base.
    """
    if not m.constant:
        raise NotConstantModule("extension symmetries need a constant module")
    if sigma.degree != 2 or sigma.size != m.base.size or sigma.group != m.A:
        raise ValueError("sigma must be a 2-cochain on the base with values in A")
    if not m.A.is_finite():
        return AbelianExtension(m, sigma, _checked_theory(m, sigma, theory), None)
    dext = build_extension(from_cocycle(m, sigma, theory))
    _check_affine_table(m, sigma, dext)
    return AbelianExtension(m, sigma, THEORY_SQ if dext.cocycle.quandle else THEORY_SR, dext)


def _check_affine_table(m, sigma, dext):
    # the glued table must match the product formula at every pair of labels, on indices
    X, q, n, rack = m.base, m.A.order(), m.base.size, dext.rack
    _, index, sums, _ = m.A.index_tables()
    phi, psi, eta = (h.indices() for h in (m.phi[0][0], m.psi[0][0], m.eta[0]))
    for x in range(n):
        cells = [(X.op(x, y) * q, index[sigma.values[x * n + y]]) for y in range(n)]
        for s in range(q):
            i = x * q + s
            if rack.rho[i] != X.rho[x] * q + eta[s]:
                raise AssertionError("extension involution disagrees with the affine formula")
            row = [sums[phi[s]][k] for k in psi]
            if rack.rack.table[i] != tuple(base + sums[k][c] for base, c in cells for k in row):
                raise AssertionError("extension table disagrees with the affine formula")


def module_automorphisms(m, bound=None):
    """All invertible endomorphisms of A commuting with phi, psi and eta.

    Needs a constant module whose fiber group has free rank at most one:
    rank two already makes the symmetry group infinite.  Candidates are
    enumerated by generator images; more than bound (default
    limits.ENDO_ENUM) of them are refused before any is scanned.  The
    result is checked to be a group on every element.
    """
    if not m.constant:
        raise NotConstantModule("fiber symmetries need a constant module")
    A = m.A
    if sum(1 for d in A.orders if d == 0) > 1:
        raise InfiniteGroupUnsupported(
            "free rank above one gives infinitely many fiber symmetries"
        )
    cap = limits.ENDO_ENUM if bound is None else bound
    # counted before any is listed: a generator of order d may go to the
    # prod gcd(d, e) elements t with d*t = 0, a free one to +-1 plus torsion
    orders = [d for d in A.orders if d]
    if prod(prod(gcd(d, e) for e in orders) if d else 2 * prod(orders) for d in A.orders) > cap:
        raise SearchSpaceExceeded(f"more than {cap} candidate fiber maps to scan")
    torsion = [
        A.reduce(v) for v in product(*[range(d) if d else (0,) for d in A.orders])
    ]
    zero = A.zero()
    options = []
    for i, d in enumerate(A.orders):
        if d == 0:  # a unit must carry the free generator to +-1 plus torsion
            options.append([t[:i] + (sign,) + t[i + 1:] for sign in (1, -1) for t in torsion])
        else:
            options.append([t for t in torsion if A.scale(d, t) == zero])

    def scan():  # once per module: a refused map's verdict is not kept
        maps = (AbHom(A, A, zip(*cols)) for cols in product(*options))
        out = sorted((h for h in maps if not _fiber_symmetry_problems(m, h)), key=lambda h: h.matrix)
        _check_group(out, AbHom.identity(A), AbHom.compose, "fiber symmetries")
        return out
    return list(_kept(m, ("fiber symmetries",), scan))


class AutPair:
    """A rack symmetry together with a compatible fiber symmetry."""

    __slots__ = ("zeta", "theta")

    def __init__(self, zeta, theta):
        zeta = tuple(int(v) for v in zeta)
        if sorted(zeta) != list(range(len(zeta))):
            raise ValueError("zeta must be a permutation word")
        self.zeta = zeta
        self.theta = theta

    @classmethod
    def identity(cls, m):
        return cls(tuple(range(m.base.size)), AbHom.identity(m.A))

    def compose(self, other):
        """self after other in both coordinates."""
        return AutPair(
            tuple(self.zeta[v] for v in other.zeta),
            self.theta.compose(other.theta),
        )

    def __eq__(self, other):
        return (isinstance(other, AutPair)
                and (self.zeta, self.theta) == (other.zeta, other.theta))

    def __hash__(self):
        return hash((self.zeta, self.theta))

    def __repr__(self):
        return f"AutPair(zeta={self.zeta}, theta={self.theta.matrix})"


def validate_aut_pair(m, pair):
    """Diagnostics for a candidate pair; empty means valid."""
    if not m.constant:
        raise NotConstantModule("symmetry pairs act on constant modules")
    X = m.base
    out = []
    if len(pair.zeta) != X.size or not is_isomorphism(RackMorphism(X, X, pair.zeta)):
        out.append(Diagnostic("zeta-symmetry", [pair.zeta]))
    problems = _fiber_symmetry_problems(m, pair.theta)
    if problems:
        out.append(Diagnostic("theta-symmetry", problems))
    return out


def _fiber_symmetry_problems(m, th):
    # accepted maps' verdicts only, kept keyed by the matrix (th would keep its factorization)
    kept, key = m._pieces, ("theta", th.source, th.target, th.matrix)
    problems = [] if key in kept else _theta_problems(m, th)
    if not problems:
        kept[key] = problems
    return problems


def _theta_problems(m, th):
    # th is a fiber symmetry: an invertible map of A commuting with phi, psi, eta
    # on A's generators; over a tabulated A, invertible iff its image indices differ
    A = m.A
    if th.source != A or th.target != A:
        return ["shape"]
    maps = (("phi", m.phi[0][0]), ("psi", m.psi[0][0]), ("eta", m.eta[0]))
    gens = [A.reduce(tuple(int(i == k) for i in range(A.rank))) for k in range(A.rank)]
    elems = A._elems
    invertible = th.inverse() is not None if elems is None else len(set(th.indices())) == len(elems)
    problems = [] if invertible else ["invertible"]
    return problems + [name for name, h in maps if any(th(h(g)) != h(th(g)) for g in gens)]


def _acted(ext, pair):
    # pair . sigma, with the pair validated and the result cocycle-checked
    # once per extension; a refused pair is checked again when asked again
    acted = ext._acted.get(pair)
    if acted is None:
        diags = validate_aut_pair(ext.module, pair)
        if diags:
            raise ValidationError("not a symmetry pair", diags)
        acted = act_on_cocycle(ext.module, pair, ext.sigma)
        if not is_cocycle(ext.module, acted, ext.theory)[0]:
            raise AssertionError("pair action left the cocycle space")
        ext._acted[pair] = acted
    return acted


def _tau(ext, pair):
    # tau with delta(tau) = sigma - pair . sigma, or None; once per pair and extension
    if pair not in ext._tau:
        ext._tau[pair] = _witness(ext.module, ext.sigma.sub(_acted(ext, pair)), ext._degree1_map())
    return ext._tau[pair]


def enumerate_aut_pairs(ext, bound=None):
    """Every symmetry pair of the base data, rack symmetries major."""
    zetas = enumerate_automorphisms(ext.module.base, bound)
    thetas = module_automorphisms(ext.module, bound)
    return [AutPair(z, t) for z in zetas for t in thetas]


def act_on_cocycle(m, pair, sigma):
    """(pair . sigma)(x, y) = theta(sigma(zeta^-1(x), zeta^-1(y)))."""
    n, s = m.base.size, sigma.values
    if sigma.degree != 2 or sigma.size != n or sigma.group != m.A:
        raise ValueError("sigma must be a 2-cochain on the base with values in A")
    inv = _invert_word(pair.zeta)
    return Cochain._canonical(2, n, m.A, [pair.theta(s[a * n + b]) for a in inv for b in inv])


def lambda_map(ext, pair):
    """Obstruction class [sigma] - [pair . sigma] of a symmetry pair."""
    acted = _acted(ext, pair)
    pres = ext.presentation
    if ext._sigma_class is None:
        ext._sigma_class = pres.project(ext.sigma)
    return pres.group.sub(ext._sigma_class, pres.project(acted))


def stabilizer(ext, pairs=None, bound=None):
    """Pairs fixing [sigma], found by solving for a coboundary witness.

    The witness tau, delta(tau) = sigma - pair . sigma, is kept for
    extend_pair.  This route is independent of the projection used by
    lambda_map; the report checks that both agree.
    """
    if pairs is None:
        pairs = enumerate_aut_pairs(ext, bound)
    return [p for p in pairs if _tau(ext, p) is not None]


class LiftedAutomorphism:
    """xi(x, a) = (zeta(x), lam(x) + theta(a)), a symmetry of E over a pair.

    Each lift is decided once, on construction.  Over a finite fiber group
    its permutation of extension labels is accepted if it equals f after g,
    composed_of = (f, g) being lifts of this extension, or else if it is a
    symmetric-rack isomorphism of the glued table at every pair of labels,
    which was checked against the affine product formula: that holds exactly
    when lam is eta-compatible and solves the lift equation.  A refused lift,
    and every lift over an infinite fiber group, walks that formula, whose
    ValidationError names the failing points; a lift that only the table
    refuses raises AssertionError.
    """

    __slots__ = ("extension", "pair", "lam", "perm")

    def __init__(self, extension, pair, lam, composed_of=(None, None)):
        _acted(extension, pair)
        m = extension.module
        if lam.degree != 1 or lam.size != m.base.size or lam.group != m.A:
            raise ValueError("lam must be a 1-cochain on the base with values in A")
        self.extension, self.pair, self.lam, self.perm = extension, pair, lam, None
        if extension.extension is not None:
            self.perm = _lift_permutation(extension, pair, lam)
            f, g = composed_of
            decided = all(isinstance(h, LiftedAutomorphism) and h.extension is extension for h in (f, g))
            if decided and self.perm == _compose_words(f.perm, g.perm) or is_isomorphism(
                    RackMorphism(extension.rack, extension.rack, self.perm)):
                return
        _check_lift(extension, pair, lam)
        if self.perm is not None:
            raise AssertionError("lift is not a symmetry of the extension")

    def __call__(self, index):
        _glued(self.extension)
        return self.perm[index]

    def compose(self, other):
        """self after other; lambdas combine as lam o zeta' + theta . lam'."""
        if self.extension is not other.extension:
            raise ValueError("lifts live on different extensions")
        m = self.extension.module
        vals = [m.A.add(self.lam.value(other.pair.zeta[x]), self.pair.theta(other.lam.value(x)))
                for x in range(m.base.size)]
        return LiftedAutomorphism(self.extension, self.pair.compose(other.pair),
                                  Cochain(1, m.base.size, m.A, vals))

    def __eq__(self, other):
        return (isinstance(other, LiftedAutomorphism)
                and (self.pair, self.lam) == (other.pair, other.lam))

    def __hash__(self):
        return hash((self.pair, self.lam))

    def __repr__(self):
        return f"LiftedAutomorphism(pair={self.pair!r}, lam={list(self.lam.values)})"


def _check_lift(ext, pair, lam):
    # eta-compatibility of lam and the lift equation
    #   phi(lam x) + psi(lam y) - lam(x * y) = theta(sigma(x, y)) - sigma(zeta x, zeta y)
    # straight from the product formula; independent of any coboundary sign.
    # The caller has validated the pair and the shape of lam.
    m = ext.module
    X, A = m.base, m.A
    phi, psi, eta = m.phi[0][0], m.psi[0][0], m.eta[0]
    lv = lam.values
    bad = [x for x in range(X.size) if lv[X.rho[x]] != eta(lv[x])]
    if bad:
        raise ValidationError(
            "lam is not compatible with the involutions",
            [Diagnostic("eta-twist", bad)],
        )
    n, s, z = X.size, ext.sigma.values, pair.zeta
    bad = [(x, y) for x in range(n) for y in range(n)
           if A.sub(A.add(phi(lv[x]), psi(lv[y])), lv[X.op(x, y)])
           != A.sub(pair.theta(s[x * n + y]), s[z[x] * n + z[y]])]
    if bad:
        raise ValidationError("the lift equation fails", [Diagnostic("lift", bad)])


def _lift_permutation(ext, pair, lam):
    # (x, s) -> (zeta(x), lam(x) + theta(s)) on element indices; (x, s) is label x * q + s
    _, index, sums, _ = ext.module.A.index_tables()
    q, theta = len(index), pair.theta.indices()
    return tuple(z * q + row[t] for z, v in zip(pair.zeta, lam.values)
                 for row in (sums[index[v]],) for t in theta)


def extend_pair(ext, pair):
    """A lift of the pair to E, or None exactly when it is obstructed.

    nu, the canonical solution of delta(nu) = (pair . sigma) - sigma, is not
    solved for: it is the checked reduction of -tau, tau the stabilizer's
    witness (b and -b are solvable on the same rows of U and diagonal).  Its
    pullback along zeta is the lift lambda, verified on construction.
    """
    tau = _tau(ext, pair)
    if tau is None:
        return None
    m, d1, r = ext.module, ext._degree1_map(), ext.module.A.rank
    b = _cochain_to_vec(_acted(ext, pair).sub(ext.sigma))
    nu = _reduced(d1, _cochain_to_vec(tau.neg()), b + (0,) * (d1.target.rank - len(b)))
    lam = Cochain._canonical(1, m.base.size, m.A, [nu[z * r:z * r + r] for z in pair.zeta])
    return LiftedAutomorphism(ext, pair, lam)


def z1_elements(ext, bound=None):
    """Every eta-compatible 1-cocycle: the kernel of the degree-1 witness map."""
    m = ext.module
    d1 = ext._degree1_map()
    vecs = subgroup_elements(d1.source, kernel(d1), limits.ENDO_ENUM if bound is None else bound)
    if vecs is None:
        raise SearchSpaceExceeded("too many 1-cocycles to enumerate")
    return [_vec_to_cochain(1, m.base.size, m.A, v) for v in vecs]


def enumerate_autA_extension(ext, bound=None):
    """All fiber-preserving symmetries of E: lifts of every unobstructed pair.

    Lifts of one pair differ by 1-cocycles.  Each z in Z^1, as a lift of
    the identity pair, and each other pair's base lift are decided in full;
    every other lift base + z by equality with a composition of two of those.
    The permutations of E are checked to form a group on every element.
    """
    _glued(ext)
    zs = z1_elements(ext, bound)
    return _lift_group(ext, enumerate_aut_pairs(ext, bound), zs)[0]


def _lift_group(ext, pairs, zs):
    # base + z by perm_id(z o zeta^-1) o perm(base), Z^1 being closed under z -> z o zeta^-1;
    # the identity pair's lifts are those of the z (returned too), so its base lift is not built
    _glued(ext)
    ident = AutPair.identity(ext.module)
    zlifts = [LiftedAutomorphism(ext, ident, zc) for zc in zs]
    by_values = {xi.lam.values: xi for xi in zlifts}
    out = []
    for pair in pairs:
        if pair == ident:
            out += zlifts
            continue
        base = extend_pair(ext, pair)
        if base is None:
            continue
        inv = _invert_word(pair.zeta)
        for zc in zs:
            shift = by_values.get(tuple(map(zc.values.__getitem__, inv)))
            out.append(LiftedAutomorphism(ext, pair, base.lam.add(zc), composed_of=(shift, base)))
    _check_group([xi.perm for xi in out], tuple(range(ext.rack.size)), _compose_words, "lift group")
    return out, zlifts


def gamma_restriction(ext, xi):
    """The symmetry pair underlying a fiber-preserving permutation of E.

    Accepts a lift or a raw permutation of extension labels; a raw
    permutation must cover a base permutation and move every fiber by one
    affine map, otherwise a ValidationError explains which part failed.
    """
    if isinstance(xi, LiftedAutomorphism):
        return xi.pair
    _glued(ext)
    perm = tuple(int(v) for v in xi)
    if sorted(perm) != list(range(ext.rack.size)):
        raise ValueError("xi must be a permutation of the extension labels")
    # label x * q + s is (x, s); heads[x], the image of (x, 0), gives zeta(x) and lam(x)
    A = ext.module.A
    elems, index, sums, negs = A.index_tables()
    q = len(elems)
    heads = perm[::q]
    split = [x for x, h in enumerate(heads) if any(j // q != h // q for j in perm[x * q:x * q + q])]
    if split:
        raise ValidationError("the permutation does not cover a base permutation",
                              [Diagnostic("fiber-map", split)])
    # theta(e_k) = xi(0, e_k) - xi(0, 0) on the fiber over 0, where zero has index 0
    units = [index[A.reduce(tuple(int(i == k) for i in range(A.rank)))] for k in range(A.rank)]
    imgs = [elems[sums[perm[u] % q][negs[heads[0] % q]]] for u in units]
    try:
        theta = AbHom(A, A, zip(*imgs))
    except ValueError:
        raise ValidationError("fibers are not moved by one affine map",
                              [Diagnostic("fiber-affine", [])])
    # the lift of (zeta, theta), built once and compared label by label
    pair = AutPair([h // q for h in heads], theta)
    lam = Cochain._canonical(1, len(heads), A, [elems[h % q] for h in heads])
    expected = _lift_permutation(ext, pair, lam)
    bad = [divmod(i, q) for i, (j, k) in enumerate(zip(perm, expected)) if j != k]
    if bad:
        raise ValidationError("fibers are not moved by one affine map",
                              [Diagnostic("fiber-affine", bad)])
    _acted(ext, pair)
    return pair


def brute_force_fiber_automorphisms(ext, bound=None):
    """Every fiber-preserving symmetry of E, found from E's table alone.

    The maps are listed in lexicographic order of their words.  They cover
    some permutation of the base, and they need not be affine on the fibers;
    the ones that are (those gamma_restriction accepts) make up Aut_A(E), so
    this cross-checks the lift enumeration without any cohomology.  The
    search is capped at the bound in candidate images tried.
    """
    bases = [x for x, _ in _glued(ext).labels]
    cap = limits.GAUGE_SEARCH if bound is None else bound
    fibers = (bases, bases, [None] * ext.module.base.size)
    return list(_isomorphisms(ext.rack, ext.rack, cap, fibers))


class WellsReport:
    """Order bookkeeping and exactness verdicts for the symmetry sequence.

    The sequence is 0 -> Z^1 -> fiber-preserving symmetries -> pairs -> H^2.
    exact_at_cocycles checks that Z^1 embeds as lifts of the identity pair:
    injective, and additive on every cocycle plus each generator of Z^1.
    exact_at_pairs checks that the pairs whose projected class vanishes are
    those with a coboundary witness.  The rest restates how lifts are listed:
    a pair lifts exactly when its witness exists, and the identity pair's
    lifts are the Z^1 lifts, so exact_at_symmetries and the image-versus-
    stabilizer part of exact_at_pairs hold by construction.  What they rest
    on is checked elsewhere: each lift is decided on E's table when built,
    and brute_force_fiber_automorphisms finds Aut_A(E) from that table alone.
    """

    __slots__ = ("extension", "pairs", "classes", "image", "stab",
                 "z1_size", "kernel_size", "image_size", "aut_size",
                 "exact_at_cocycles", "exact_at_symmetries", "exact_at_pairs")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def exact(self):
        return self.exact_at_cocycles and self.exact_at_symmetries and self.exact_at_pairs

    def as_dict(self):
        return {
            "pairs": len(self.pairs),
            "z1": self.z1_size,
            "kernel": self.kernel_size,
            "image": self.image_size,
            "aut": self.aut_size,
            "exact": [
                self.exact_at_cocycles,
                self.exact_at_symmetries,
                self.exact_at_pairs,
            ],
            "classes": [
                {
                    "zeta": list(p.zeta),
                    "theta": [list(r) for r in p.theta.matrix],
                    "class": list(c),
                }
                for p, c in zip(self.pairs, self.classes)
            ],
        }

    def __repr__(self):
        return (
            f"WellsReport(pairs={len(self.pairs)}, z1={self.z1_size}, "
            f"kernel={self.kernel_size}, image={self.image_size}, "
            f"aut={self.aut_size}, exact={self.exact})"
        )


def wells_report(ext, bound=None):
    """Enumerate pairs, lifts and obstructions; verify the exactness claims."""
    pairs = enumerate_aut_pairs(ext, bound)
    classes = [lambda_map(ext, p) for p in pairs]
    zero = ext.presentation.group.zero()
    stab = stabilizer(ext, pairs)
    zs = z1_elements(ext, bound)
    auts, zlifts = _lift_group(ext, pairs, zs)
    if len({xi.perm for xi in auts}) != len(auts):
        raise AssertionError("lift enumeration produced duplicates")
    ident = AutPair.identity(ext.module)
    kernel = [xi for xi in auts if xi.pair == ident]
    zperm = {xi.lam: xi.perm for xi in zlifts}
    z0 = Cochain.zero(1, ext.module.base.size, ext.module.A)
    gens = _check_group(zs, z0, Cochain.add, "1-cocycles")
    exact_cocycles = len(set(zperm.values())) == len(zs) and all(
        zperm[z.add(g)] == _compose_words(zperm[z], zperm[g]) for z in zs for g in gens
    )
    exact_symmetries = {xi.perm for xi in kernel} == set(zperm.values())
    # image of restriction (lift construction), witness-based stabilizer and
    # the vanishing locus of the projected obstruction must all agree
    image_keys = {xi.pair for xi in auts}
    stab_keys = set(stab)
    vanish_keys = {p for p, c in zip(pairs, classes) if c == zero}
    image = [p for p in pairs if p in image_keys]
    return WellsReport(
        extension=ext,
        pairs=pairs,
        classes=classes,
        image=image,
        stab=stab,
        z1_size=len(zs),
        kernel_size=len(kernel),
        image_size=len(image),
        aut_size=len(auts),
        exact_at_cocycles=exact_cocycles,
        exact_at_symmetries=exact_symmetries,
        exact_at_pairs=image_keys == stab_keys == vanish_keys,
    )
