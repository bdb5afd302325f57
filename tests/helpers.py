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
