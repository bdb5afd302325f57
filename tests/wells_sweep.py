"""The 16-class Wells sweep of takasaki(6) over Z2 x Z2, symmetric-quandle theory.

    python tests/wells_sweep.py

For every class of H^2 the script builds the extension, checks that the
exactness report holds and that |Aut_A(E)| = |Z^1| * |stabilizer|, and
checks that every lift's permutation restricts to its own pair through
gamma_restriction and that the affine part of the table-only brute-force
search is exactly the set of lifts.  It prints the elapsed seconds, then
the seconds spent in the brute-force search and in its affine part, and
exits 1 on a wrong answer; it sets no time limit.  pytest does not
collect it.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from helpers import affine_part  # noqa: E402
from symq import (THEORY_SQ, AbGroup, Cochain, ValidationError,  # noqa: E402
                  brute_force_fiber_automorphisms, build_abelian_extension, dihedral_kamada_module,
                  enumerate_autA_extension, gamma_restriction, takasaki, wells_report)

CLASSES = 16


def timed(spent, f, *args):
    """f(*args), with its seconds added to spent[f.__name__]."""
    t0 = time.perf_counter()
    out = f(*args)
    spent[f.__name__] = spent.get(f.__name__, 0.0) + time.perf_counter() - t0
    return out


def problems(ext, spent):
    """What is wrong with one extension's sequence, as a list of strings."""
    rep = wells_report(ext)
    out = [] if rep.exact else [f"not exact: {rep!r}"]
    if rep.aut_size != rep.z1_size * len(rep.stab):
        out.append(f"|Aut| {rep.aut_size} != |Z1| {rep.z1_size} * |stab| {len(rep.stab)}")
    auts = enumerate_autA_extension(ext)
    try:
        restricted = all(gamma_restriction(ext, xi.perm) == xi.pair for xi in auts)
    except ValidationError:
        restricted = False
    if not restricted:
        out.append("a lift's permutation does not restrict to its own pair")
    lifts = {xi.perm for xi in auts}
    brute = timed(spent, brute_force_fiber_automorphisms, ext)
    if timed(spent, affine_part, ext, brute) != lifts:
        out.append("the brute-force affine part differs from the lifts")
    return out


def main():
    t0 = time.perf_counter()
    X = takasaki(6)
    m = dihedral_kamada_module(X, AbGroup([2, 2]))
    pres = build_abelian_extension(m, Cochain.zero(2, X.size, m.A), THEORY_SQ).presentation
    classes = pres.group.elements()
    failures = [] if len(classes) == CLASSES else [f"{len(classes)} classes, expected {CLASSES}"]
    spent = {}
    for cls in classes:
        ext = build_abelian_extension(m, pres.section(cls), THEORY_SQ)
        failures += [f"class {cls}: {p}" for p in problems(ext, spent)]
    print(f"takasaki(6)/Z2xZ2/sq: {len(classes)} classes in {time.perf_counter() - t0:.2f} s")
    print("brute force: " + ", ".join(f"{name} {s:.2f} s" for name, s in spent.items()))
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
