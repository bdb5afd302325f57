"""Exact matrix helpers and a term-by-term cochain reference, for the tests only."""

from fractions import Fraction
from itertools import product

from symq.cohomology import boundary


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
