"""Chain complex and low-degree cohomology of symmetric racks.

For a finite symmetric rack (X, rho) with module A the degree-n chain
group is spanned by n-tuples over X, with boundary

  d(x_1,..,x_n) = sum_{j=2..n} (-1)^(n+j) *
                    [ phi_{[x_1..^j..x_n],[x_j..x_n]} (x_1,..,^j,..,x_n)
                      - (x_1*x_j,..,x_{j-1}*x_j, x_{j+1},..,x_n) ]
                  + (-1)^n psi_{[x_1 ^2 x_3..x_n],[x_2..x_n]} (x_2,..,x_n)

for n >= 2 and d(x) = -psi_{x invop p, p}(p) for a basepoint p, where
[x_1..x_k] is the left-normed product ((x_1*x_2)*..)*x_k and ^j marks an
omitted entry.  Structure maps travel to the coefficient: the dual of a
term h.(u) evaluates a cochain f as h(f(u)).

A 2-cochain sigma is eta/phi-compatible (lies in C^2) when

  eta_{x*y} sigma(x,y) = sigma(rho(x), y)
  phi_{x,y} sigma(x*y, rho(y)) + sigma(x,y) = 0

with sigma(x,x) = 0 required additionally in the quandle theory, and is a
cocycle when for all triples

  phi_{x*y,z} sigma(x,y) + sigma(x*y,z)
    = phi_{x*z,y*z} sigma(x,z) + sigma(x*z,y*z) + psi_{x*z,y*z} sigma(y,z).

A 1-cochain lam lies in C^1 when eta_x(lam(x)) = lam(rho(x)); its
coboundary is (x,y) |-> phi_{x,y} lam(x) - lam(x*y) + psi_{x,y} lam(y).
"""

import itertools

from . import limits
from .abelian import AbGroup, AbHom, Subquotient, kernel, solve
from .errors import Diagnostic, NotACocycle, NotASubgroup, SizeBoundExceeded, ValidationError
from .racks import QUANDLE

THEORY_SR = "sr"
THEORY_SQ = "sq"


def _check_theory(X, theory):
    if theory not in (THEORY_SR, THEORY_SQ):
        raise ValueError(f"unknown theory {theory!r}, expected 'sr' or 'sq'")
    if theory == THEORY_SQ and X.kind != QUANDLE:
        raise ValueError("the quandle theory needs a quandle carrier")


def bracket(X, seq):
    """Left-normed product ((x1*x2)*..)*xk of a nonempty sequence."""
    it = iter(seq)
    acc = next(it)
    for x in it:
        acc = X.op(acc, x)
    return acc


def _tuples(size, degree):
    return itertools.product(range(size), repeat=degree)


def _flat(tup, size):
    idx = 0
    for x in tup:
        idx = idx * size + x
    return idx


class FormalChain:
    """Signed sum of terms h.(tuple) with h one of id, phi_{a,b}, psi_{a,b}."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree, terms):
        self.degree = degree
        for coeff, kind, pair, tup in terms:
            if coeff not in (1, -1) or kind not in ("one", "phi", "psi"):
                raise ValueError("malformed chain term")
            if len(tup) != degree:
                raise ValueError("term arity mismatch")
        self.terms = tuple(terms)

    def __repr__(self):
        bits = []
        for coeff, kind, pair, tup in self.terms:
            sign = "+" if coeff > 0 else "-"
            head = "" if kind == "one" else f"{kind}_{pair}"
            bits.append(f"{sign}{head}{tup}")
        return " ".join(bits) or "0"


def boundary(X, n, tup, basepoint=0, psi_sign=1):
    """Boundary of the degree-n generator tup as a FormalChain.

    psi_sign flips the sign of every psi term; anything but +1 breaks the
    complex and exists only so tests can prove the verifier notices.
    """
    tup = tuple(tup)
    if len(tup) != n or n < 1:
        raise ValueError("tuple arity mismatch")
    if not 0 <= basepoint < X.size:
        raise ValueError(f"basepoint {basepoint} is not an element of the base")
    if n == 1:
        a = X.left_inverse_op(tup[0], basepoint)
        return FormalChain(0, [(-psi_sign, "psi", (a, basepoint), ())])
    terms = []
    s = -1 if n % 2 else 1
    for j in range(2, n + 1):
        sign = s * (1 if j % 2 == 0 else -1)
        omitted = tup[: j - 1] + tup[j:]
        pair = (bracket(X, omitted), bracket(X, tup[j - 1 :]))
        terms.append((sign, "phi", pair, omitted))
        shifted = tuple(X.op(tup[i], tup[j - 1]) for i in range(j - 1)) + tup[j:]
        terms.append((-sign, "one", None, shifted))
    psi_pair = (bracket(X, tup[:1] + tup[2:]), bracket(X, tup[1:]))
    terms.append((s * psi_sign, "psi", psi_pair, tup[1:]))
    return FormalChain(n - 1, terms)


def verify_chain_complex(X, m, n, basepoint=0, bound=None, psi_sign=1):
    """Check d o d = 0 from degree n, composing coefficients outer-first.

    X must be the base of m, else ValueError.  Each kept integer delta row of
    degree n-1 is composed with those of degree n-2 (both read with psi_sign)
    into one sparse accumulator and tested at once, coordinate by coordinate
    up to the first failing n-tuple, skipping rows with no terms; only its
    rows are composed again, for the witness.  Returns (True, None) or (False,
    (source_tuple, target_tuple, hom)) for the lexicographically first
    offender.  Tuple count is capped.
    """
    if n < 2:
        raise ValueError("need n >= 2 to compose two boundaries")
    if X != m.base:
        raise ValueError("the rack is not the base of the module")
    cap = limits.CHAIN_VERIFY_TUPLES if bound is None else bound
    if X.size ** n > cap:
        raise SizeBoundExceeded(
            f"{X.size}^{n} tuples exceed the verification cap {cap}"
        )
    cx = _complex(m)
    heads, outer = cx.delta(n - 1, basepoint, psi_sign)
    inner = cx.delta(n - 2, basepoint, psi_sign)[1]
    orders, r = m.A.orders, m.A.rank

    first = len(heads)  # the first failing n-tuple found so far
    for c, d in enumerate(orders):  # coordinate c of every tuple before it
        for k, entries in enumerate(outer[c:first * r:r]):
            if not entries:
                continue
            acc = {}
            for col, a in entries:
                for j, b in inner[col]:
                    acc[j] = acc.get(j, 0) + a * b
            values = acc.values()  # least residues: a valid row mostly cancels exactly
            if any(values) and (not d or any(map(d.__rmod__, values))):
                first = k
                break
    if first == len(heads):
        return True, None
    rows = [{} for _ in range(r)]
    for acc, entries in zip(rows, outer[first * r:first * r + r]):
        for col, a in entries:
            for j, b in inner[col]:
                acc[j] = acc.get(j, 0) + a * b
    bad = [j for acc, d in zip(rows, orders) for j, x in acc.items() if (x % d if d else x)]
    v = min(bad) // r
    block = [[acc.get(v * r + j, 0) for j in range(r)] for acc in rows]
    target = next(itertools.islice(_tuples(X.size, n - 2), v, None))
    return False, (heads[first][1], target, AbHom(m.A, m.A, block))


class Cochain:
    """Map X^degree -> A, stored flat in lexicographic tuple order; raw values
    are reduced, and add, sub, neg and _canonical keep canonical values."""

    __slots__ = ("degree", "size", "group", "values")

    def __init__(self, degree, size, group, values):
        values = tuple(group.reduce(v) for v in values)
        if len(values) != size ** degree:
            raise ValueError("value table has wrong length")
        self.degree = degree
        self.size = size
        self.group = group
        self.values = values

    @classmethod
    def _canonical(cls, degree, size, group, values):  # values the caller vouches for
        out = object.__new__(cls)
        out.degree, out.size, out.group, out.values = degree, size, group, tuple(values)
        return out

    @classmethod
    def zero(cls, degree, size, group):
        return cls(degree, size, group, [group.zero()] * (size ** degree))

    def value(self, *xs):
        if len(xs) != self.degree:
            raise ValueError("wrong number of arguments")
        if not all(x in range(self.size) for x in xs):
            raise ValueError(f"arguments {xs} are not all elements of the base")
        return self.values[_flat(xs, self.size)]

    def _key(self):
        return (self.degree, self.size, self.group, self.values)

    def _map(self, fn, *others):
        # fn on the values of self and of others of its shape, kept as fn returns them
        if any(c._key()[:3] != self._key()[:3] for c in others):
            raise ValueError("cochain shape mismatch")
        values = map(fn, self.values, *(c.values for c in others))
        return Cochain._canonical(*self._key()[:3], values)

    def add(self, other):
        return self._map(self.group.add, other)

    def sub(self, other):
        return self._map(self.group.sub, other)

    def neg(self):
        return self._map(self.group.neg)

    def __eq__(self, other):
        return isinstance(other, Cochain) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Cochain(degree={self.degree}, size={self.size}, values={list(self.values)})"


def _cochain_to_vec(c):
    return tuple(itertools.chain.from_iterable(c.values))


def _vec_to_cochain(degree, size, group, vec):
    r = group.rank  # vec is canonical in A^(size^degree): a kernel, solved or section vector
    return Cochain._canonical(degree, size, group,
                              (tuple(vec[k * r : (k + 1) * r]) for k in range(size ** degree)))


# ---------------------------------------------------------------------------
# constraint rows: each condition is stated once, as a row
# (label, witness, terms) with terms a list of (coeff, h, flat_index), read as
#   sum coeff * h(f_k) = 0  over the terms, on a flat cochain vector f.
# A module's _Complex keeps each row list compiled, as A.rank integer rows of
# (column, least residue) pairs per condition (see _compile).  Each reader is one
# flat pass over them, modulo the orders: _rows_to_hom lays out a constraint matrix,
# _row_values sums them on one cochain, verify_chain_complex composes two degrees.


def _eta_rows(X, m, degree):
    # eta_{[t]}(f(t)) - f(rho(t_0), t_1, ..) = 0
    ident = AbHom.identity(m.A)
    return [
        ("eta-twist", t, [(1, m.eta[bracket(X, t)], _flat(t, X.size)),
                          (-1, ident, _flat((X.rho[t[0]],) + t[1:], X.size))])
        for t in _tuples(X.size, degree)
    ]


def _phi_rows(X, m, degree):
    # phi_w(f(t_1*t_i,..,t_{i-1}*t_i, rho(t_i), t_{i+1},..)) + f(t) = 0
    rows = []
    ident = AbHom.identity(m.A)
    for i in range(2, degree + 1):
        for t in _tuples(X.size, degree):
            omitted = t[: i - 1] + t[i:]
            w = (bracket(X, omitted), bracket(X, t[i - 1 :]))
            modified = (
                tuple(X.op(t[k], t[i - 1]) for k in range(i - 1))
                + (X.rho[t[i - 1]],)
                + t[i:]
            )
            terms = [(1, m.phi[w[0]][w[1]], _flat(modified, X.size)),
                     (1, ident, _flat(t, X.size))]
            rows.append(("phi-twist", (i,) + t, terms))
    return rows


def _degenerate_rows(X, m, degree):
    # f(.., x, x, ..) = 0 on tuples with an adjacent repeat
    ident = AbHom.identity(m.A)
    return [
        ("degenerate", t, [(1, ident, _flat(t, X.size))])
        for t in _tuples(X.size, degree)
        if any(t[k] == t[k + 1] for k in range(degree - 1))
    ]


def _delta_rows(X, m, degree, basepoint=0, psi_sign=1):
    # (delta f)(t) = 0 for every (degree+1)-tuple t, a term h.(u) of d(t)
    # reading h(f(u)); the one caller of boundary
    ident = AbHom.identity(m.A)
    maps = {"phi": m.phi, "psi": m.psi}
    rows = []
    for t in _tuples(X.size, degree + 1):
        terms = boundary(X, degree + 1, t, basepoint, psi_sign).terms
        rows.append(("cocycle", t, [
            (c, ident if kind == "one" else maps[kind][pair[0]][pair[1]], _flat(u, X.size))
            for c, kind, pair, u in terms]))
    return rows


def _membership_rows(X, m, degree, theory):
    if degree == 0:
        return []
    rows = _eta_rows(X, m, degree)
    rows += _phi_rows(X, m, degree)
    if theory == THEORY_SQ:
        rows += _degenerate_rows(X, m, degree)
    return rows


def _compile(A, rows):
    # (heads, compiled): each row's (label, witness), and per integer row of the constraint
    # matrix its sums of coeff * h.matrix, as residues -d/2 <= a <= d/2 mod the row's order d,
    # none 0, an exact sum in range kept (so a complex lifted from Z cancels exactly; a Z row
    # keeps exact sums).  Safe as every reader works mod the orders: in d o d an entry a of row
    # i on a column of order d_k has d_k * a = 0 mod d_i, so no composed sum moves mod d_i.
    r = A.rank
    halves = [(d, (d - 1) // 2) for d in A.orders]
    nonzero = {}  # id of each map the rows hold -> its nonzero entries (i, j, a)
    compiled = []
    for _, _, terms in rows:
        acc = [{} for _ in range(r)]
        for coeff, h, idx in terms:
            if id(h) not in nonzero:
                nonzero[id(h)] = [(i, j, a) for i, hrow in enumerate(h.matrix)
                                  for j, a in enumerate(hrow) if a]
            for i, j, a in nonzero[id(h)]:
                col = idx * r + j
                acc[i][col] = acc[i].get(col, 0) + coeff * a
        for sums, (d, half) in zip(acc, halves):
            if d:
                sums = {j: a if -d <= 2 * a <= d else (a + half) % d - half for j, a in sums.items()}
            compiled.append(tuple((j, a) for j, a in sorted(sums.items()) if a))
    return [row[:2] for row in rows], compiled


class _Complex:
    """The cochain complex of one module, each piece built on first use and kept.

    Row sets are keyed by what they read: membership rows by degree and
    theory, delta rows by degree and psi_sign (and by basepoint in degree 0
    only; every degree refuses a basepoint outside the base).  The witness
    maps and the degree-2 presentations are kept too, so each is factored
    once however many extensions and checks read it, and so is the verdict
    of a module that passed validation (a failing one is walked every time).
    """

    __slots__ = ("module", "_pieces")

    def __init__(self, module):
        self.module = module
        self._pieces = {}

    def _get(self, key, build):
        if key not in self._pieces:
            self._pieces[key] = build()
        return self._pieces[key]

    def membership(self, degree, theory):
        m = self.module
        return self._get(("membership", degree, theory),
                         lambda: _compile(m.A, _membership_rows(m.base, m, degree, theory)))

    def delta(self, degree, basepoint, psi_sign=1):
        m = self.module
        if not 0 <= basepoint < m.base.size:
            raise ValueError(f"basepoint {basepoint} is not an element of the base")
        return self._get(("delta", degree, basepoint if degree == 0 else 0, psi_sign),
                         lambda: _compile(m.A, _delta_rows(m.base, m, degree, basepoint, psi_sign)))

    def witness_map(self, degree, theory, basepoint):
        return self._get(("witness", degree, theory, basepoint),
                         lambda: _witness_map(self.module, degree, theory, basepoint))

    def presentation(self, theory):
        return self._get(("presentation", theory),
                         lambda: cohomology_presentation(self.module, 2, theory))


def _complex(m):
    if m._complex is None:
        m._complex = _Complex(m)
    return m._complex


def _rows_to_hom(A, n_unknowns, *pieces):
    # the compiled rows of the pieces, stacked in order, as a constraint matrix
    mat, conditions = [], 0
    for heads, compiled in pieces:
        conditions += len(heads)
        for entries in compiled:
            row = [0] * (A.rank * n_unknowns)
            for j, a in entries:
                row[j] = a
            mat.append(row)
    return AbHom(AbGroup(A.orders * n_unknowns), AbGroup(A.orders * conditions), mat)


def _row_values(m, c, piece):
    """Value sum coeff * c_j of each integer row on the cochain c, modulo its order."""
    if c.size != m.base.size or c.group != m.A:
        raise ValueError("cochain does not match the base or group of the module")
    vec = _cochain_to_vec(c)
    sums = []
    for entries, d in zip(piece[1], itertools.cycle(m.A.orders)):
        x = 0
        for j, a in entries:
            x += a * vec[j]
        sums.append(x % d if d else x)
    return sums


def _report(m, c, *pieces):
    """(ok, diagnostics) with the witnesses of the failing rows per label."""
    found, r = {}, m.A.rank
    for piece in pieces:
        values = _row_values(m, c, piece)
        if any(values):  # else no condition fails, and none is walked
            for k, (label, witness) in enumerate(piece[0]):
                if any(values[k * r:k * r + r]):
                    found.setdefault(label, []).append(witness)
    diags = [Diagnostic(k, v) for k, v in found.items()]
    return (not diags, diags)


def delta(m, f, basepoint=0):
    """Coboundary: (delta f)(t) = sum h(f(u)) over terms h.(u) of d(t)."""
    heads, _ = piece = _complex(m).delta(f.degree, basepoint)
    values, r = _row_values(m, f, piece), m.A.rank
    rows = zip(*[iter(values)] * r) if r else [()] * len(heads)  # r values per tuple
    return Cochain._canonical(f.degree + 1, m.base.size, m.A, rows)  # each value mod its order


class CochainSpace:
    """C^degree in the chosen theory, presented by generators."""

    __slots__ = ("module", "degree", "theory", "gens")

    def __init__(self, module, degree, theory, gens):
        self.module = module
        self.degree = degree
        self.theory = theory
        self.gens = gens


def cochain_space(m, degree, theory=THEORY_SR):
    X, A = m.base, m.A
    _check_theory(X, theory)
    if degree < 0:
        raise ValueError("degree must be non-negative")
    constraint = _rows_to_hom(A, X.size ** degree, _complex(m).membership(degree, theory))
    gens = [
        _vec_to_cochain(degree, X.size, A, v) for v in kernel(constraint)
    ]
    return CochainSpace(m, degree, theory, gens)


def delta1(m, lam):
    """Coboundary of a 1-cochain; lam must be eta-compatible."""
    if lam.degree != 1:
        raise ValueError("delta1 expects a 1-cochain")
    ok, diags = is_cochain(m, lam)
    if not ok:
        raise ValidationError("1-cochain is not eta-compatible", diags)
    out = delta(m, lam)
    if not is_cochain(m, out)[0]:
        raise AssertionError("coboundary left C^2; module axioms are inconsistent")
    return out


def is_cochain(m, c):
    """Membership of c in C^degree (eta/phi compatibility), with witnesses."""
    # the rack-theory membership rows are exactly the eta and phi conditions
    return _report(m, c, _complex(m).membership(c.degree, THEORY_SR))


def is_cocycle(m, c, theory=THEORY_SR, basepoint=0):
    """Full cocycle test in the chosen theory, with labeled witnesses."""
    _check_theory(m.base, theory)
    cx = _complex(m)
    return _report(m, c, cx.membership(c.degree, theory), cx.delta(c.degree, basepoint))


class CohomologyPresentation:
    """Z, B and H = Z/B in one degree, with projection to class vectors."""

    __slots__ = ("module", "degree", "theory", "basepoint", "group",
                 "cocycle_gens", "coboundary_gens", "_ambient", "_sub")

    def __init__(self, module, degree, theory, basepoint, z_gens, b_gens):
        X, A = module.base, module.A
        self.module = module
        self.degree = degree
        self.theory = theory
        self.basepoint = basepoint
        self._ambient = AbGroup(A.orders * (X.size ** degree))
        z_vecs = [_cochain_to_vec(c) for c in z_gens]
        b_vecs = [_cochain_to_vec(c) for c in b_gens]
        self._sub = Subquotient(self._ambient, z_vecs, b_vecs)
        self.group = self._sub.group
        self.cocycle_gens = z_gens
        self.coboundary_gens = b_gens

    def project(self, c):
        """Cohomology class of a cocycle as a vector in `group`."""
        try:
            return self._sub.project(_cochain_to_vec(c))
        except NotASubgroup:
            raise NotACocycle("cochain is not a cocycle in this theory") from None

    def section(self, class_vector):
        return _vec_to_cochain(
            self.degree, self.module.base.size, self.module.A, self._sub.section(class_vector)
        )

    def cocycle_group(self):
        """Z^degree as an abstract group; the relations among the cocycle generators
        are read off the presentation's own membership factorization."""
        return Subquotient(self._ambient, self._sub.sub_gens, [], self._sub._memb).group

    def coboundary_group(self):
        """B^degree as an abstract group."""
        b = [_cochain_to_vec(c) for c in self.coboundary_gens]
        return Subquotient(self._ambient, b, []).group

    def __repr__(self):
        return (
            f"CohomologyPresentation(degree={self.degree}, theory={self.theory!r}, "
            f"group={self.group!r})"
        )


def cohomology_presentation(m, degree, theory=THEORY_SR, basepoint=0):
    """Cocycles, coboundaries and their quotient in degree 1 or 2.

    Z = ker of the witness map (coboundary rows stacked over membership
    rows), B = delta of the generators of C^(degree-1); only degree 1 reads
    the basepoint.  The subquotient checks every generator of B against Z.
    """
    X, A = m.base, m.A
    _check_theory(X, theory)
    if degree not in (1, 2):
        raise ValueError("only degrees 1 and 2 are presented")
    z_gens = [
        _vec_to_cochain(degree, X.size, A, v)
        for v in kernel(_witness_map(m, degree, theory, basepoint))
    ]
    b_gens = [delta(m, g, basepoint) for g in cochain_space(m, degree - 1, theory).gens]
    return CohomologyPresentation(m, degree, theory, basepoint, z_gens, b_gens)


def _witness_map(m, degree, theory, basepoint=0):
    # tau |-> (delta tau, membership rows): kernel Z^degree, solved for (c, 0) by
    # witnesses; a new map on every call, read off the module's kept rows
    cx = _complex(m)
    return _rows_to_hom(m.A, m.base.size ** degree,
                        cx.delta(degree, basepoint), cx.membership(degree, theory))


def coboundary_witness(m, c, theory=THEORY_SR, basepoint=0):
    """A cochain tau with delta(tau) = c, or None; c must be a cocycle.

    Degree-2 input: tau is an eta-compatible 1-cochain (the witness system
    stacks the coboundary rows over the membership rows).  Degree-1 input:
    tau is a 0-cochain for the given basepoint.  The witness is the one
    `abelian.solve` returns, by one rule at every size and with no cap: the
    least solution over a finite A, and one fixed by c alone over Z.
    """
    ok, diags = is_cocycle(m, c, theory, basepoint)
    if not ok:
        raise NotACocycle(
            "input is not a cocycle: " + "; ".join(d.axiom for d in diags)
        )
    return _witness(m, c, _complex(m).witness_map(c.degree - 1, theory, basepoint), basepoint)


def _witness(m, c, hom, basepoint=0):
    # tau with delta(tau) = c solved on the witness map hom, or None; the
    # caller vouches that c is a cocycle
    target_vec = _cochain_to_vec(c)
    x = solve(hom, target_vec + (0,) * (hom.target.rank - len(target_vec)))
    if x is None:
        return None
    tau = _vec_to_cochain(c.degree - 1, m.base.size, m.A, x)
    if delta(m, tau, basepoint) != c:
        raise AssertionError("witness verification failed")
    return tau
