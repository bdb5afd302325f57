"""End-to-end acceptance checks, one test per criterion, budgets enforced.

Each test prints a single summary line; run pytest with -s to see them.
Every numeric target here is pinned against an independent route: closed
formulas, exhaustive scans, or hand-checkable small tables.
"""

import itertools
import random
import time

import pytest

import symq.wells
from symq.abelian import AbGroup, AbHom
from symq.cohomology import (
    THEORY_SQ,
    THEORY_SR,
    Cochain,
    cochain_space,
    cohomology_presentation,
    delta,
    is_cocycle,
    verify_chain_complex,
)
from symq.dynamical import (
    Gauge,
    affine_tables,
    are_cohomologous_dynamical,
    build_extension,
    dynamical_diagnostics,
    from_cocycle,
    from_group_extension,
    gauge_transform,
)
from symq.errors import SearchSpaceExceeded
from symq.groups import FiniteGroup, core_quandle
from symq.modules import RackModule, constant_module, dihedral_kamada_module, validate_module
from symq.racks import (
    QUANDLE,
    RackMorphism,
    enumerate_automorphisms,
    enumerate_good_involutions,
    is_isomorphism,
    takasaki,
    trivial_rack,
    validate_good_involution,
    validate_rack,
)
from symq.wells import (
    AutPair,
    brute_force_fiber_automorphisms,
    build_abelian_extension,
    enumerate_autA_extension,
    extend_pair,
    lambda_map,
    wells_report,
)

from conftest import module, rack


def emit(k, label, elapsed, budget=None):
    tail = f"(budget {budget} s)" if budget is not None else "(no budget)"
    print(f"ACCEPTANCE {k} {label}: PASS in {elapsed:.3g} s {tail}")
    if budget is not None:
        assert elapsed < budget, f"criterion {k} took {elapsed:.2f} s, budget {budget}"


def scalar_module(base, A, p, q, e):
    """Constant module container from three scalars; nothing is validated."""
    n = base.size
    phi = AbHom.scalar(A, p)
    psi = AbHom.scalar(A, q)
    eta = AbHom.scalar(A, e)
    return RackModule(base, A, [[phi] * n] * n, [[psi] * n] * n, [eta] * n)


def random_sq_cochain(m, theory, rng):
    """Random element of C^1 for the theory, from its generator basis."""
    out = Cochain.zero(1, m.base.size, m.A)
    for g in cochain_space(m, 1, theory).gens:
        k = rng.randint(0, 5)
        out = out.add(Cochain(1, g.size, g.group, [m.A.scale(k, v) for v in g.values]))
    return out


def test_criterion_1_dihedral_vanishing():
    """H^2 of the dihedral quandles over the integers is zero, quickly."""
    worst = 0.0
    for n in (2, 3, 4, 5):
        t0 = time.perf_counter()
        X = takasaki(n)
        m = dihedral_kamada_module(X, AbGroup([0]))
        pres = cohomology_presentation(m, 2, THEORY_SR)
        dt = time.perf_counter() - t0
        assert str(pres.group) == "0", (n, str(pres.group))
        assert dt < 1.0, (n, dt)
        worst = max(worst, dt)
    emit(1, "dihedral-vanishing", worst, 1)


def test_large_regime_presentation():
    """The degree-2 quandle presentation of takasaki(6) over Z4, a system of
    hundreds of rows, stays inside its budget; its cocycle generators pass
    the row-by-row cocycle test and every class survives a section."""
    X = takasaki(6)
    m = dihedral_kamada_module(X, AbGroup([4]))
    t0 = time.perf_counter()
    pres = cohomology_presentation(m, 2, THEORY_SQ)
    dt = time.perf_counter() - t0
    assert pres.group.orders == (2, 2)
    assert all(is_cocycle(m, c, THEORY_SQ)[0] for c in pres.cocycle_gens)
    for cls in itertools.product(range(2), repeat=2):
        assert pres.project(pres.section(cls)) == cls
    emit("large", "presentation-t6-z4-sq", dt, 1)


def test_larger_regime_presentation():
    """The degree-2 quandle presentation of takasaki(7) over Z4 vanishes
    inside its budget."""
    m = dihedral_kamada_module(takasaki(7), AbGroup([4]))
    t0 = time.perf_counter()
    pres = cohomology_presentation(m, 2, THEORY_SQ)
    dt = time.perf_counter() - t0
    assert pres.group.orders == ()
    emit("large", "presentation-t7-z4-sq", dt, 2.5)


def test_large_regime_presentation_over_z2_squared():
    """The degree-2 quandle presentation of takasaki(8) over Z2 x Z2, whose
    witness map factors 1296 x 1424 (128 unknowns, 1296 torsion columns): H is
    Z2^4.  Its time is printed for the record, with no budget."""
    m = dihedral_kamada_module(takasaki(8), AbGroup([2, 2]))
    t0 = time.perf_counter()
    pres = cohomology_presentation(m, 2, THEORY_SQ)
    dt = time.perf_counter() - t0
    assert pres.group.orders == (2, 2, 2, 2)
    emit("large", "presentation-t8-z2xz2-sq", dt)


def test_large_regime_presentation_over_z4():
    """The degree-2 quandle presentation of takasaki(10) over Z4: H is
    Z2 x Z2.  Its witness map is read for its kernel only, so U of that
    factorization is never built.  Its time is printed for the record, with
    no budget."""
    m = dihedral_kamada_module(takasaki(10), AbGroup([4]))
    t0 = time.perf_counter()
    pres = cohomology_presentation(m, 2, THEORY_SQ)
    dt = time.perf_counter() - t0
    assert pres.group.orders == (2, 2)
    emit("large", "presentation-t10-z4-sq", dt)


def test_large_regime_extension(monkeypatch):
    """The extension of takasaki(4) by the trivial module (id, 0, id) over Z8 x Z16
    with sigma = delta(tau), 512 elements, is built inside its budget: its axioms
    are proven at the generators of A, not walked over 512^3 triples, and its
    table is still checked against the affine formula at every pair."""
    A, X = AbGroup([8, 16]), takasaki(4)
    ident = [[1, 0], [0, 1]]
    m = constant_module(X, A, ident, [[0, 0], [0, 0]], ident)
    sigma = delta(m, Cochain(1, X.size, A, [(1, 1)] + [A.zero()] * (X.size - 1)))
    checked = []
    check = symq.wells._check_affine_table
    monkeypatch.setattr(symq.wells, "_check_affine_table",
                        lambda *args: checked.append(args[2]) or check(*args))
    t0 = time.perf_counter()
    ext = build_abelian_extension(m, sigma, THEORY_SQ)
    dt = time.perf_counter() - t0
    assert ext.rack.size == 512
    assert checked == [ext.extension]
    emit("large", "extension-t4-z8xz16-sq", dt, 2)


def test_criterion_2_obstructed_symmetry():
    """The alternating integral cocycle on the 2-point quandle obstructs -id."""
    t0 = time.perf_counter()
    X = rack("t2")
    A = AbGroup([0])
    m = dihedral_kamada_module(X, A)
    sigma = Cochain(2, 2, A, [(1,), (-1,), (-1,), (1,)])
    ok, _ = is_cocycle(m, sigma, THEORY_SR)
    assert ok
    ext = build_abelian_extension(m, sigma, THEORY_SR)
    pair = AutPair((0, 1), AbHom.scalar(A, -1))
    cls = lambda_map(ext, pair)
    assert cls != ext.presentation.group.zero(), cls
    assert extend_pair(ext, pair) is None
    emit(2, "obstructed-symmetry", time.perf_counter() - t0, 1)


def test_criterion_3_chain_complex():
    """d o d = 0 on the small corpus, every degree and basepoint; a psi sign
    flip must break it."""
    t0 = time.perf_counter()
    racks = [rack(n) for n in
             ("t2", "t4", "takasaki3", "takasaki4", "core_z4", "core_z4_shift")]
    checked = 0
    for X in racks:
        assert X.size <= 4
        for mod_name in ("m0_z2", "m0_z4", "m0_z", "tw_z3"):
            m = module(mod_name, X)
            for n in (2, 3, 4):
                for basepoint in range(X.size):
                    ok, witness = verify_chain_complex(X, m, n, basepoint)
                    assert ok, (mod_name, n, basepoint, witness)
                    checked += 1
    assert checked == 4 * 3 * sum(X.size for X in racks)
    X = rack("takasaki3")
    m = module("tw_z3", X)
    ok, witness = verify_chain_complex(X, m, 2, psi_sign=-1)
    assert not ok and witness is not None
    emit(3, "chain-complex", time.perf_counter() - t0, 5)
    # cold: a fresh module builds its delta rows inside the timed check
    t0 = time.perf_counter()
    m = dihedral_kamada_module(takasaki(6), AbGroup([2, 2]))
    assert verify_chain_complex(m.base, m, 4) == (True, None)
    emit(3, "chain-complex-cold-t6-d4", time.perf_counter() - t0, 1)
    # warm: the benchmark's chain headline, t4 over tw_z3 in degree 4 at
    # basepoint 0, on rows built by a first check; printed for the record
    X = rack("t4")
    m = module("tw_z3", X)
    assert verify_chain_complex(X, m, 4, 0) == (True, None)
    t0 = time.perf_counter()
    assert verify_chain_complex(X, m, 4, 0) == (True, None)
    emit(3, "chain-complex-warm-t4-tw_z3-d4", time.perf_counter() - t0)


def test_criterion_4_dynamical_biconditional():
    """Affine fiber tables satisfy the dynamical axioms exactly when the
    scalars form a module and sigma is a cocycle, over 50 seeded trials."""
    t0 = time.perf_counter()
    rng = random.Random(407)
    shift2 = validate_good_involution(validate_rack([[1, 1], [0, 0]]), (0, 1))
    bases = [rack("t2"), rack("takasaki3"), shift2]
    good_scalars = {
        (2,): [(1, 0, 1)],
        (3,): [(1, 0, 2), (2, 2, 1)],
        (4,): [(1, 0, 3), (3, 2, 1), (3, 2, 3)],
        (2, 2): [(1, 0, 1)],
    }
    seen = {True: 0, False: 0}
    for trial in range(50):
        X = rng.choice(bases)
        orders = rng.choice(list(good_scalars))
        A = AbGroup(list(orders))
        d = orders[0]
        p, q, e = rng.choice(good_scalars[orders])
        kind = rng.choice(["valid", "module-bump", "sigma-bump", "random"])
        if kind == "module-bump":
            which = rng.randrange(3)
            bump = rng.randrange(1, d)
            p, q, e = [v + bump * (i == which) for i, v in enumerate((p, q, e))]
        m = scalar_module(X, A, p, q, e)
        theory = THEORY_SQ if X.kind == QUANDLE else THEORY_SR
        if kind == "random":
            elems = A.elements()
            values = [rng.choice(elems) for _ in range(X.size ** 2)]
            sigma = Cochain(2, X.size, A, values)
        else:
            sigma = delta(m, random_sq_cochain(m, theory, rng))
            if kind == "sigma-bump":
                values = list(sigma.values)
                pos = rng.randrange(len(values))
                unit = [0] * A.rank
                unit[rng.randrange(A.rank)] = rng.randrange(1, d)
                values[pos] = A.add(values[pos], A.reduce(tuple(unit)))
                sigma = Cochain(2, X.size, A, values)
        sizes, alpha, beta = affine_tables(m, sigma)
        lhs = not dynamical_diagnostics(
            X, sizes, alpha, beta, quandle=theory is THEORY_SQ
        )
        rhs = validate_module(m).ok and is_cocycle(m, sigma, theory)[0]
        assert lhs == rhs, (trial, kind, X.size, orders, (p, q, e), lhs, rhs)
        seen[lhs] += 1
    assert seen[True] >= 10 and seen[False] >= 10, seen
    emit(4, "dynamical-biconditional", time.perf_counter() - t0)


def test_criterion_5_gauge_equivalence():
    """A gauge twist of a valid cocycle is valid, is detected as
    cohomologous, and the fiberwise map is an isomorphism over the base."""
    t0 = time.perf_counter()
    rng = random.Random(508)
    t2 = rack("t2")
    tak3 = rack("takasaki3")
    m_t2 = dihedral_kamada_module(t2, AbGroup([4]))
    m_t3 = dihedral_kamada_module(tak3, AbGroup([2]))
    sigma = Cochain(2, 2, m_t2.A, [(1,), (3,), (3,), (1,)])
    pool = [
        from_cocycle(m_t2, sigma, THEORY_SR),
        from_cocycle(m_t3, delta(m_t3, random_sq_cochain(m_t3, THEORY_SQ, rng))),
        from_group_extension(FiniteGroup.cyclic(4), [0, 2], "core").cocycle,
    ]
    for trial in range(20):
        dc = pool[trial % len(pool)]
        perms = []
        for s in dc.sizes:
            p = list(range(s))
            rng.shuffle(p)
            perms.append(p)
        gamma = Gauge(perms)
        dc2 = gauge_transform(dc, gamma)
        assert not dynamical_diagnostics(
            dc2.base, dc2.sizes, dc2.alpha, dc2.beta, dc2.quandle
        )
        witness = are_cohomologous_dynamical(dc, dc2)
        assert witness is not None, trial
        assert gauge_transform(dc, witness) == dc2
        ext1 = build_extension(dc)
        ext2 = build_extension(dc2)
        word = [
            ext2.index_of((x, witness.perms[x][s]))
            for x, s in ext1.labels
        ]
        T = RackMorphism(ext1.rack, ext2.rack, word)
        assert is_isomorphism(T)
        for i, (x, _) in enumerate(ext1.labels):
            assert ext2.pair_of(word[i])[0] == x
    emit(5, "gauge-equivalence", time.perf_counter() - t0)


def test_criterion_6_group_splitting():
    """Splitting Z4 over {0, 2} reproduces the core tables entry by entry."""
    t0 = time.perf_counter()
    G = FiniteGroup.cyclic(4)
    for flavor, z in (("core", None), ("core_z", 2)):
        sp = from_group_extension(G, [0, 2], flavor, z=z)
        direct = core_quandle(G, z=z)
        assert sp.total.rack.table == direct.rack.table
        assert sp.total.rho == direct.rho
        ext = build_extension(sp.cocycle)
        sub = sorted(sp.subgroup)
        word = [
            G.m(sp.kappa[x], sub[s]) for x, s in ext.labels
        ]
        T = RackMorphism(ext.rack, sp.total, word)
        assert is_isomorphism(T)
        for i, (x, _) in enumerate(ext.labels):
            assert sp.coset_of[word[i]] == x
    emit(6, "group-splitting", time.perf_counter() - t0, 1)


def test_criterion_7_wells_sequence():
    """The symmetry sequence of the mod-4 extension of the 2-point quandle:
    reported orders, classes, and a from-scratch affine scan must agree."""
    t0 = time.perf_counter()
    X = rack("t2")
    A = AbGroup([4])
    m = dihedral_kamada_module(X, A)
    sigma = Cochain(2, 2, A, [(1,), (3,), (3,), (1,)])
    ext = build_abelian_extension(m, sigma, THEORY_SR)
    rep = wells_report(ext)
    assert rep.exact
    assert (rep.z1_size, rep.kernel_size, rep.image_size, rep.aut_size) == (4, 4, 2, 8)
    classes = {
        (p.zeta, p.theta.matrix[0][0]): c for p, c in zip(rep.pairs, rep.classes)
    }
    assert classes == {
        ((0, 1), 1): (0,),
        ((0, 1), 3): (2,),
        ((1, 0), 1): (0,),
        ((1, 0), 3): (2,),
    }
    dext = ext.extension
    scan = set()
    for zeta in ((0, 1), (1, 0)):
        for th in range(4):
            for lam in itertools.product(range(4), repeat=2):
                word = [
                    dext.index_of((zeta[x], (lam[x] + th * s) % 4))
                    for x, s in dext.labels
                ]
                if sorted(word) != list(range(8)):
                    continue
                f = RackMorphism(ext.rack, ext.rack, word)
                if not f.diagnostics():
                    scan.add(tuple(word))
    lifted = {xi.perm for xi in enumerate_autA_extension(ext)}
    brute = {tuple(p) for p in brute_force_fiber_automorphisms(ext)}
    assert len(scan) == 8
    assert scan == lifted == brute
    emit(7, "wells-sequence", time.perf_counter() - t0, 10)


def test_criterion_8_good_involutions():
    """The translation by 2 is good on the core of Z4; the 2-point trivial
    quandle has exactly the two involutions of S2, both good; takasaki(10)
    has exactly the identity and the translation by 5, found inside the
    budget (the unpruned search over all 9,496 involutive words took
    0.7 s)."""
    t0 = time.perf_counter()
    core = core_quandle(FiniteGroup.cyclic(4))
    words = set(enumerate_good_involutions(core.rack))
    assert {(0, 1, 2, 3), (2, 3, 0, 1)} <= words
    trivial = trivial_rack(2)
    assert set(enumerate_good_involutions(trivial.rack)) == {(0, 1), (1, 0)}
    assert enumerate_good_involutions(takasaki(10).rack) == [
        tuple(range(10)), tuple((x + 5) % 10 for x in range(10))]
    emit(8, "good-involutions", time.perf_counter() - t0, 0.1)


def test_large_regime_good_involutions():
    """takasaki(32) has four good involutions, the identity and x + 16 among
    them, found at the default caps by propagation along the two orbits of
    its inner group (listing every involutive word that S3 allows took
    16.8 s)."""
    X = takasaki(32)
    t0 = time.perf_counter()
    words = enumerate_good_involutions(X.rack)
    dt = time.perf_counter() - t0
    assert len(words) == 4
    assert {tuple(range(32)), tuple((x + 16) % 32 for x in range(32))} <= set(words)
    emit("large", "good-involutions-t32", dt, 0.1)


def test_large_regime_good_involutions_refused():
    """Every involution of a trivial quandle is good, 2,390,480 of them on
    14 points: the search refuses at limits.GAUGE_SEARCH candidate values,
    never a partial list."""
    X = trivial_rack(14)
    t0 = time.perf_counter()
    with pytest.raises(SearchSpaceExceeded, match="candidate values"):
        enumerate_good_involutions(X.rack)
    emit("large", "good-involutions-trivial14-refused", time.perf_counter() - t0, 2)


def test_large_regime_automorphisms():
    """takasaki(16), above the old size cap of 12, has the 128 affine maps
    x -> ax + b with a a unit of Z16 as its automorphisms, at the default caps."""
    X = takasaki(16)
    t0 = time.perf_counter()
    words = enumerate_automorphisms(X)
    dt = time.perf_counter() - t0
    assert len(words) == 128
    assert set(words) == {tuple((a * x + b) % 16 for x in range(16)) for a in range(1, 16, 2) for b in range(16)}
    emit("large", "automorphisms-t16", dt)


def linear_rows(m, theory):
    """The 2-cochain conditions as integer rows, for componentwise-scalar
    modules over a homogeneous finite group.

    Membership rows are spelled out; closedness rows are read off by
    differentiating the unit tables.  Each row must vanish per component.
    """
    X, A = m.base, m.A
    n, r = X.size, A.rank
    d = A.orders[0]
    assert d and all(o == d for o in A.orders)

    def idx(x, y):
        return x * n + y

    def scalar_of(h):
        k = h.matrix[0][0] % d
        assert all(
            h.matrix[i][j] % d == (k if i == j else 0)
            for i in range(r)
            for j in range(r)
        ), h.matrix
        return k

    rows = []

    def add(terms):
        row = {}
        for pos, c in terms:
            row[pos] = (row.get(pos, 0) + c) % d
        row = {p: c for p, c in row.items() if c}
        if row:
            rows.append(row)

    for x in range(n):
        for y in range(n):
            add([(idx(x, y), scalar_of(m.eta[X.op(x, y)])), (idx(X.rho[x], y), -1)])
            add([(idx(X.op(x, y), X.rho[y]), scalar_of(m.phi[x][y])), (idx(x, y), 1)])
    closed = {}
    for pos in range(n * n):
        for comp in range(r):
            vals = [A.zero()] * (n * n)
            unit = [0] * r
            unit[comp] = 1
            vals[pos] = A.reduce(tuple(unit))
            out = delta(m, Cochain(2, n, A, vals))
            for t_i, val in enumerate(out.values):
                assert all(val[c] == 0 for c in range(r) if c != comp)
                if comp == 0 and val[0]:
                    closed.setdefault(t_i, {})[pos] = val[0]
                if comp and val[comp] != closed.get(t_i, {}).get(pos, 0) % d:
                    raise AssertionError("component coupling in delta")
    rows.extend(closed.values())
    if theory is THEORY_SQ:
        for x in range(n):
            rows.append({idx(x, x): 1})
    return rows


def count_cocycles_by_scan(m, theory):
    """Size of Z^2 by exhausting every fiber table, pruning a prefix as soon
    as a fully assigned condition fails."""
    A = m.A
    n = m.base.size
    k = n * n
    d = A.orders[0]
    r = A.rank
    elems = [tuple(e) for e in A.elements()]
    by_depth = [[] for _ in range(k)]
    for row in linear_rows(m, theory):
        by_depth[max(row)].append(sorted(row.items()))
    count = 0
    assign = [None] * k

    def ok_at(depth):
        for terms in by_depth[depth]:
            for c in range(r):
                total = 0
                for pos, coeff in terms:
                    total += coeff * assign[pos][c]
                if total % d:
                    return False
        return True

    def rec(depth):
        nonlocal count
        if depth == k:
            count += 1
            return
        for e in elems:
            assign[depth] = e
            if ok_at(depth):
                rec(depth + 1)

    rec(0)
    return count


def test_criterion_9_cocycle_count():
    """|Z^2| from the presentation equals a direct exhaustive count on every
    small rack and coefficient group, in both theories."""
    t0 = time.perf_counter()
    combos = 0
    for X in (rack("t2"), rack("takasaki3")):
        for orders in ([2], [3], [4], [2, 2]):
            A = AbGroup(orders)
            mods = [dihedral_kamada_module(X, A)]
            if orders == [3]:
                mods.append(module("tw_z3", X))
            for m in mods:
                for theory in (THEORY_SR, THEORY_SQ):
                    expected = cohomology_presentation(
                        m, 2, theory
                    ).cocycle_group().order()
                    got = count_cocycles_by_scan(m, theory)
                    assert got == expected, (X.size, orders, theory, got, expected)
                    combos += 1
    assert combos == 20
    emit(9, "cocycle-count", time.perf_counter() - t0, 60)
