"""Exact matrix helpers, a dense Smith normal form, dense readings of a
factorization, the entry-by-entry well-definedness check of a hom and the
stacked system of `_Factored`, a subgroup closure, a brute-force
good-involution search, a nested-loop chain complex check, a term-by-term
cochain reference, the dynamical axioms in fiber coordinates, the affine
part of a list of maps of an extension, an independent solve of each lift
equation, the inverse of a symmetry pair and of its lift, and the symmetry
search that pushes each assignment through a todo stack, for the tests and
tests/wells_sweep.py only."""

from fractions import Fraction
from itertools import compress, product

from symq.abelian import (
    AbGroup,
    AbHom,
    _dense_rows,
    _Factored,
    _product_rows,
    mat_vec,
    smith_normal_form,
    solve,
)
from symq.cohomology import Cochain, _cochain_to_vec, _vec_to_cochain, _witness_map, boundary, delta
from symq.dynamical import _resolve_quandle_flag, _shape_problems
from symq.errors import Diagnostic, SearchSpaceExceeded, ValidationError
from symq.racks import _invert_word, good_involution_diagnostics
from symq.wells import AutPair, LiftedAutomorphism, act_on_cocycle, gamma_restriction


def mat_mul(A, B):
    """Product of integer matrices given as lists of rows, over nonzero entries only.

    Dense rows in and out around the library's sparse product; as in a dense
    zip, a row of A is read no further than B has rows.
    """
    def sparse(rows):
        return [{j: x for j, x in enumerate(row) if x} for row in rows]

    cols = len(B[0]) if B else 0
    return _dense_rows(_product_rows(sparse(row[:len(B)] for row in A), sparse(B)), cols)


def det(M):
    """Determinant of a square integer matrix (exact, fraction-free)."""
    n = len(M)
    if n == 0:
        return 1
    A = [[Fraction(x) for x in row] for row in M]
    sign = 1
    for i in range(n):
        piv = next((r for r in range(i, n) if A[r][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            A[i], A[piv] = A[piv], A[i]
            sign = -sign
        for r in range(i + 1, n):
            factor = A[r][i] / A[i][i]
            A[r] = [a - factor * b for a, b in zip(A[r], A[i])]
    out = Fraction(sign)
    for i in range(n):
        out *= A[i][i]
    if out.denominator != 1:
        raise AssertionError("determinant of an integer matrix must be integral")
    return int(out)


def inverse(M):
    """Exact inverse of a unimodular integer matrix (Gauss-Jordan, unit pivots first)."""
    n = len(M)
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    for i in range(n):
        rows = [r for r in range(i, n) if A[r][i] != 0]
        if not rows:
            raise AssertionError("matrix is singular")
        piv = next((r for r in rows if abs(A[r][i]) == 1), rows[0])
        A[i], A[piv] = A[piv], A[i]
        p = A[i][i]
        # stays integral while the pivots are units
        A[i] = [a * p if abs(p) == 1 else Fraction(a, 1) / p for a in A[i]]
        support = [k for k, a in enumerate(A[i]) if a]
        for r in range(n):
            factor = A[r][i]
            if r != i and factor:
                for k in support:
                    A[r][k] -= factor * A[i][k]
    out = [row[n:] for row in A]
    if any(Fraction(x).denominator != 1 for row in out for x in row):
        raise AssertionError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def _egcd(a, b):
    # (g, p, q) with p*a + q*b = g = gcd(a, b) >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def dense_smith_normal_form(M, repairs=None):
    """(U, D, V) from a dense Smith normal form: the reference for the sparse core.

    A copy of the earlier smith_normal_form: a pivot scan of every row slice
    on each step, row and column steps over whole rows and columns, and the
    same pivot rule, steps and divisibility repair.  A list passed as repairs
    receives the diagonal pair (i, j) of each repair step.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    D = [[int(x) for x in row] for row in M]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, p, q, u, v):
        for mat in (D, U):
            ri, rj = mat[i], mat[j]
            mat[i] = [p * a + q * b for a, b in zip(ri, rj)]
            mat[j] = [u * a + v * b for a, b in zip(ri, rj)]

    def col_op(i, j, p, q, u, v):
        for mat in (D, V):
            for row in mat:
                a, b = row[i], row[j]
                row[i] = p * a + q * b
                row[j] = u * a + v * b

    def add_row(i, j, u):
        for mat in (D, U):
            ri, rj = mat[i], mat[j]
            for k in compress(range(len(ri)), ri):
                rj[k] += u * ri[k]

    def add_col(i, j, u):
        for mat in (D, V):
            for row in mat:
                if row[i]:
                    row[j] += u * row[i]

    def negate_row(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]

    def pivot(t):
        piv, best = None, 0
        for i in range(t, m):
            row = D[i][t:]
            low = min(map(abs, filter(None, row)), default=0)
            if low and (piv is None or low < best):
                piv = (i, t + min(row.index(v) for v in (low, -low) if v in row))
                best = low
                if low == 1:
                    break
        return piv

    for t in range(min(m, n)):
        piv = pivot(t)
        if piv is None:
            break
        i, j = piv
        if i != t:
            for mat in (D, U):
                mat[t], mat[i] = mat[i], mat[t]
        if j != t:
            for row in D + V:
                row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, m):
                b = D[i][t]
                if b == 0:
                    continue
                a = D[t][t]
                if b % a == 0:
                    add_row(t, i, -(b // a))
                else:
                    g, p, q = _egcd(a, b)
                    row_op(t, i, p, q, -(b // g), a // g)
            for j in range(t + 1, n):
                b = D[t][j]
                if b == 0:
                    continue
                a = D[t][t]
                if b % a == 0:
                    add_col(t, j, -(b // a))
                else:
                    g, p, q = _egcd(a, b)
                    col_op(t, j, p, q, -(b // g), a // g)
            if all(D[i][t] == 0 for i in range(t + 1, m)) and all(
                D[t][j] == 0 for j in range(t + 1, n)
            ):
                break

    for i in range(min(m, n)):
        if D[i][i] < 0:
            negate_row(i)

    r = min(m, n)
    changed = True
    while changed:
        changed = False
        for i in range(r):
            for j in range(i + 1, r):
                a, b = D[i][i], D[j][j]
                if b == 0 and a == 0:
                    continue
                if a != 0 and b % a == 0:
                    continue
                changed = True
                if repairs is not None:
                    repairs.append((i, j))
                add_col(j, i, 1)
                g, p, q = _egcd(D[i][i], D[j][i])
                row_op(i, j, p, q, -(D[j][i] // g), D[i][i] // g)
                if D[i][j] != 0:
                    add_col(i, j, -(D[i][j] // D[i][i]))
                if D[j][j] < 0:
                    negate_row(j)
    return U, D, V


def reference_ill_defined_entry(source, target, matrix):
    """The first entry (i, j) at which an integer matrix fails to be a hom
    source -> target, or None: the full double loop over source generators j,
    then target coordinates i, that AbHom once ran on every construction."""
    for j, dj in enumerate(source.orders):
        if dj == 0:
            continue
        for i, di in enumerate(target.orders):
            v = dj * matrix[i][j]
            if (v % di if di else v) != 0:
                return i, j
    return None


def reference_stacked_rows(rows, group):
    """The rows `_Factored` factors, as the earlier comprehension stacked them:
    each row of the map, then d_i * e_i for every finite order d_i of group."""
    torsion = [i for i, d in enumerate(group.orders) if d]
    return [list(row) + [d if i == t else 0 for t in torsion]
            for i, (row, d) in enumerate(zip(rows, group.orders))]


class DenseSystem:
    """`_Factored`'s kernel and solve read densely, with mat_vec, off the public
    U, D and V of the same factorization: the reference for its sparse readers."""

    def __init__(self, rows, ncols, group):
        self.ncols = ncols
        stacked = _Factored(rows, ncols, group)._rows  # the map's columns, then torsion
        if stacked:
            s = smith_normal_form(stacked)
            self.U, self.V, self.diag = s.U, s.V, s.diagonal()
        else:
            identity = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
            self.U, self.V, self.diag = [], identity, []

    def kernel(self):
        V, diag = self.V[:self.ncols], self.diag
        return [tuple(row[j] for row in V)
                for j in range(len(self.V)) if j >= len(diag) or diag[j] == 0]

    def solve(self, b):
        xprime = [0] * len(self.V)
        for i, y in enumerate(mat_vec(self.U, b)):
            d = self.diag[i] if i < len(self.diag) else 0
            if (y % d if d else y) != 0:
                return None
            if d:
                xprime[i] = y // d
        return mat_vec(self.V[:self.ncols], xprime)


class DenseSubquotient:
    """Subquotient's project and section read densely off the public U of its
    factorizations: the reference for its sparse readers."""

    def __init__(self, ambient, sub_gens, by_gens):
        self.ambient = ambient
        self.sub_gens = [ambient.reduce(g) for g in sub_gens]
        k = len(self.sub_gens)
        self.memb = DenseSystem([[g[i] for g in self.sub_gens] for i in range(ambient.rank)],
                                k, ambient)
        by_coords = [self.memb.solve(ambient.reduce(b)) for b in by_gens]
        rel_cols = self.memb.kernel() + by_coords if k else []
        if rel_cols:
            s = smith_normal_form([[col[i] for col in rel_cols] for i in range(k)])
            diag, self.U = s.diagonal(), s.U
        else:
            diag, self.U = [], [[int(i == j) for j in range(k)] for i in range(k)]
        orders = [diag[i] if i < len(diag) else 0 for i in range(k)]
        self.kept = [i for i, d in enumerate(orders) if d != 1]
        self.group = AbGroup([orders[i] for i in self.kept])
        self.U_system = DenseSystem(self.U, k, AbGroup([0] * k))

    def project(self, element):
        w = mat_vec(self.U, self.memb.solve(self.ambient.reduce(element)))
        return self.group.reduce(tuple(w[i] for i in self.kept))

    def section(self, class_vector):
        class_vector = self.group.reduce(class_vector)
        w = [0] * len(self.U)
        for pos, i in enumerate(self.kept):
            w[i] = class_vector[pos]
        total = self.ambient.zero()
        for coeff, g in zip(self.U_system.solve(w), self.sub_gens):
            total = self.ambient.add(total, self.ambient.scale(coeff, g))
        return total


def reference_subgroup_elements(group, gens):
    """All elements of a finite subgroup, sorted: the reference for subgroup_elements.

    A copy of the earlier breadth-first closure under adding generators,
    without its cap; a finite closed subset already contains negatives.
    The caller makes sure the subgroup is finite.
    """
    zero = group.zero()
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                s = group.add(e, g)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return sorted(seen)


def reference_good_involutions(rack):
    """Every good involution of rack, lexicographic: the reference for enumerate_good_involutions.

    A copy of the earlier search: every involutive word of {0..n-1}, in
    lexicographic order, kept when good_involution_diagnostics finds nothing.
    """
    def words(word, free):
        if not free:
            yield tuple(word)
            return
        i = free[0]
        word[i] = i
        yield from words(word, free[1:])
        for j in free[1:]:
            word[i], word[j] = j, i
            yield from words(word, [k for k in free[1:] if k != j])
        word[i] = None

    return [rho for rho in words([None] * rack.size, list(range(rack.size)))
            if not good_involution_diagnostics(rack, rho)]


def reference_chain_check(X, m, n, basepoint=0, psi_sign=1):
    """verify_chain_complex's answer by the earlier nested loop: the reference.

    A copy of the earlier verifier without its cap and checks: each outer
    boundary term h1.(u) is composed with each term h2.(v) of d(u) as the
    r x r product h1 o h2, summed per v; the first tuple with a nonzero sum
    is reported at its least such v.
    """
    r = m.A.rank
    ident = AbHom.identity(m.A)

    def signed_terms(chain):
        # (coeff, h, tuple) per term, h a structure map of m or the identity
        out = []
        for coeff, kind, pair, u in chain.terms:
            h = ident if kind == "one" else (m.phi if kind == "phi" else m.psi)[pair[0]][pair[1]]
            out.append((coeff, h, u))
        return out

    inner = {}
    products = {}
    for tup in product(range(X.size), repeat=n):
        acc = {}
        for c1, h1, u in signed_terms(boundary(X, n, tup, basepoint, psi_sign)):
            if u not in inner:
                inner[u] = signed_terms(boundary(X, n - 1, u, basepoint, psi_sign))
            for c2, h2, v in inner[u]:
                key = (h1.matrix, h2.matrix)
                if key not in products:
                    products[key] = mat_mul(h1.matrix, h2.matrix)
                prod = products[key]
                total = acc.setdefault(v, [[0] * r for _ in range(r)])
                for i in range(r):
                    for j in range(r):
                        total[i][j] += c1 * c2 * prod[i][j]
        for v in sorted(acc):
            if any(x % d if d else x for row, d in zip(acc[v], m.A.orders) for x in row):
                return False, (tup, v, AbHom(m.A, m.A, acc[v]))
    return True, None


# ---------------------------------------------------------------------------
# A term-by-term reference for the cochain conditions, read straight from
# `boundary` and the structure maps, with no constraint rows: the tests hold
# delta, is_cochain and is_cocycle to it value for value.


def _apply(m, kind, pair, value):
    if kind == "one":
        return value
    return (m.phi if kind == "phi" else m.psi)[pair[0]][pair[1]](value)


def reference_delta(m, f, basepoint=0):
    """Values of delta f, one per (degree+1)-tuple: sum of h(f(u)) over d(t)."""
    X, A = m.base, m.A
    out = []
    for t in product(range(X.size), repeat=f.degree + 1):
        total = A.zero()
        for coeff, kind, pair, u in boundary(X, f.degree + 1, t, basepoint).terms:
            total = A.add(total, A.scale(coeff, _apply(m, kind, pair, f.value(*u))))
        out.append(total)
    return out


def reference_failures(m, c, theory="sr", basepoint=None):
    """(label, witnesses) of each violated condition on c, in report order.

    The eta and phi conditions of C^degree, the degenerate condition of the
    quandle theory, and, when a basepoint is given, the cocycle condition.
    """
    X, A = m.base, m.A
    n, deg = X.size, c.degree
    found = {}

    def bracket(seq):
        acc = seq[0]
        for x in seq[1:]:
            acc = X.op(acc, x)
        return acc

    tuples = list(product(range(n), repeat=deg)) if deg else []
    for t in tuples:
        # eta_{[t]} c(t) = c(rho(t_1), t_2, ..)
        if m.eta[bracket(t)](c.value(*t)) != c.value(X.rho[t[0]], *t[1:]):
            found.setdefault("eta-twist", []).append(t)
    for i in range(2, deg + 1):
        for t in tuples:
            # phi_{[t without t_i], [t_i ..]} c(t_1*t_i, .., rho(t_i), ..) = -c(t)
            w = (bracket(t[: i - 1] + t[i:]), bracket(t[i - 1:]))
            moved = tuple(X.op(x, t[i - 1]) for x in t[: i - 1]) + (X.rho[t[i - 1]],) + t[i:]
            if A.add(m.phi[w[0]][w[1]](c.value(*moved)), c.value(*t)) != A.zero():
                found.setdefault("phi-twist", []).append((i,) + t)
    if theory == "sq":
        for t in tuples:
            if any(a == b for a, b in zip(t, t[1:])) and c.value(*t) != A.zero():
                found.setdefault("degenerate", []).append(t)
    if basepoint is not None:
        cells = product(range(n), repeat=deg + 1)
        bad = [t for t, v in zip(cells, reference_delta(m, c, basepoint)) if v != A.zero()]
        if bad:
            found["cocycle"] = bad
    return list(found.items())


REFERENCE_DYNAMICAL_AXIOMS = (
    "fiber-size",
    "alpha-bijective",
    "alpha-cocycle",
    "beta-alpha",
    "left-inverse",
    "beta-involution",
    "idempotence",
)


def reference_dynamical_diagnostics(X, sizes, alpha, beta, quandle=None):
    """Conditions (1)-(6) in fiber coordinates: the reference for dynamical_diagnostics.

    A copy of the earlier statement, one loop per condition, witnesses in
    fiber coordinates; the shape check is the library's.  Mismatched fiber
    sizes and non-bijective alpha short-circuit, since the later conditions
    compose maps whose endpoints already disagree.
    """
    quandle = _resolve_quandle_flag(X, quandle)
    shape = _shape_problems(X, sizes, alpha, beta)
    if shape:
        return [Diagnostic("fiber-map", shape)]
    n = X.size
    found = {}

    def hit(axiom, w):
        found.setdefault(axiom, []).append(w)

    for x in range(n):
        for y in range(n):
            if sizes[x] != sizes[X.op(x, y)]:
                hit("fiber-size", (x, y))
        if sizes[x] != sizes[X.rho[x]]:
            hit("fiber-size", (x,))

    for x in range(n):
        for y in range(n):
            if sizes[x] != sizes[X.op(x, y)]:
                continue
            full = set(range(sizes[X.op(x, y)]))
            for t in range(sizes[y]):
                if {alpha[x][y][s][t] for s in range(sizes[x])} != full:
                    hit("alpha-bijective", (x, y, t))

    if found:
        return [Diagnostic(a, found[a]) for a in REFERENCE_DYNAMICAL_AXIOMS if a in found]

    op, rho = X.op, X.rho
    for x in range(n):
        for y in range(n):
            for z in range(n):
                xy, xz, yz = op(x, y), op(x, z), op(y, z)
                for s in range(sizes[x]):
                    for t in range(sizes[y]):
                        for w in range(sizes[z]):
                            lhs = alpha[xy][z][alpha[x][y][s][t]][w]
                            rhs = alpha[xz][yz][alpha[x][z][s][w]][alpha[y][z][t][w]]
                            if lhs != rhs:
                                hit("alpha-cocycle", (x, y, z, s, t, w))
    for x in range(n):
        for y in range(n):
            xy = op(x, y)
            a = X.left_inverse_op(x, y)
            for s in range(sizes[x]):
                for t in range(sizes[y]):
                    if alpha[rho[x]][y][beta[x][s]][t] != beta[xy][alpha[x][y][s][t]]:
                        hit("beta-alpha", (x, y, s, t))
                    if alpha[a][y][alpha[x][rho[y]][s][beta[y][t]]][t] != s:
                        hit("left-inverse", (x, y, s, t))
    for x in range(n):
        for s in range(sizes[x]):
            if beta[rho[x]][beta[x][s]] != s:
                hit("beta-involution", (x, s))
        if quandle:
            for s in range(sizes[x]):
                if alpha[x][x][s][s] != s:
                    hit("idempotence", (x, s))

    return [Diagnostic(a, found[a]) for a in REFERENCE_DYNAMICAL_AXIOMS if a in found]


def affine_part(ext, perms):
    """The maps among perms that move every fiber by one affine map."""
    out = set()
    for perm in perms:
        try:
            gamma_restriction(ext, perm)
        except ValidationError:
            continue
        out.add(perm)
    return out


def reference_lift_lambda(ext, pair):
    """extend_pair's lambda by its own solve, or None when the pair is obstructed.

    The canonical nu with delta(nu) = (pair . sigma) - sigma is solved on a
    fresh degree-1 witness map, with its own factorization, from a right side
    built by the reducing Cochain constructor, and pulled back along zeta: it
    shares nothing with the stabilizer's witness.
    """
    m, n = ext.module, ext.module.base.size
    acted = act_on_cocycle(m, pair, ext.sigma)
    c = Cochain(2, n, m.A, [tuple(a - b for a, b in zip(u, v))
                            for u, v in zip(acted.values, ext.sigma.values)])
    hom = _witness_map(m, 1, ext.theory)
    target = _cochain_to_vec(c)
    x = solve(hom, target + (0,) * (hom.target.rank - len(target)))
    if x is None:
        return None
    nu = _vec_to_cochain(1, n, m.A, x)
    assert delta(m, nu) == c
    return tuple(nu.values[z] for z in pair.zeta)


def reference_pair_inverse(pair):
    """The inverse symmetry pair (zeta^-1, theta^-1); theta must be invertible."""
    th = pair.theta.inverse()
    if th is None:
        raise ValueError("theta is not invertible")
    return AutPair(_invert_word(pair.zeta), th)


def reference_lift_inverse(xi):
    """The lift of the inverse pair, lam'(x) = -theta^-1(lam(zeta^-1(x))), decided in full."""
    pair = reference_pair_inverse(xi.pair)
    m = xi.extension.module
    vals = [m.A.neg(pair.theta(xi.lam.value(pair.zeta[x]))) for x in range(m.base.size)]
    return LiftedAutomorphism(xi.extension, pair, Cochain(1, m.base.size, m.A, vals))


def reference_isomorphisms(S, T, cap, fibers=None):
    """Every bijection S -> T preserving op and rho, lexicographic by image word.

    S and T have the same size.  Images are assigned in element order, values tried in ascending order;
    each assignment is pushed through x*y and rho, so only elements outside
    the closure of what is assigned are branched on.  fibers=(p, q, zeta)
    keeps the maps sending fiber p[x] of S onto fiber zeta[p[x]] of T (the
    fiber of v in T is q[v]); a None entry of zeta is chosen by the search.
    Once more than cap candidate images have been tried the search raises
    SearchSpaceExceeded; it never stops early with a partial answer.
    """
    n = S.size
    sop, top, srho, trho = S.rack.table, T.rack.table, S.rho, T.rho
    p, q, zeta = fibers if fibers is not None else ((0,) * n, (0,) * n, (0,))
    zeta = list(zeta)
    f = [None] * n
    used = [False] * n
    dom, chosen = [], []  # assigned elements and chosen zeta entries, in order
    tried = 0

    def fits(x, v):
        b = p[x]
        return not used[v] and (zeta[b] == q[v] or zeta[b] is None and q[v] not in zeta)

    def assign(x, v):
        # x -> v with everything it forces; False on the first clash
        todo = [(x, v)]
        while todo:
            x, v = todo.pop()
            if f[x] is not None:
                if f[x] != v:
                    return False
                continue
            if not fits(x, v):
                return False
            b = p[x]
            if zeta[b] is None:
                zeta[b] = q[v]
                chosen.append(b)
            f[x] = v
            used[v] = True
            dom.append(x)
            forced = [(srho[x], trho[v])]
            for y in dom:
                forced += ((sop[x][y], top[v][f[y]]), (sop[y][x], top[f[y]][v]))
            for z, w in forced:
                if f[z] is None:
                    todo.append((z, w))
                elif f[z] != w:
                    return False
        return True

    def undo(mark_dom, mark_zeta):
        while len(dom) > mark_dom:
            x = dom.pop()
            used[f[x]] = False
            f[x] = None
        while len(chosen) > mark_zeta:
            zeta[chosen.pop()] = None

    def search(k):
        nonlocal tried
        while k < n and f[k] is not None:
            k += 1
        if k == n:
            yield tuple(f)
            return
        for v in range(n):
            if not fits(k, v):
                continue
            tried += 1
            if tried > cap:
                raise SearchSpaceExceeded(f"more than {cap} candidate images tried")
            marks = len(dom), len(chosen)
            if assign(k, v):
                yield from search(k + 1)
            undo(*marks)

    yield from search(0)
