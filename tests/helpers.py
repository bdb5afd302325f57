"""Exact matrix helpers that only the tests need."""

from fractions import Fraction


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
