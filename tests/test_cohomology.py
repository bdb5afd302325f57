"""Chain complex, coboundaries, cocycle tests, and cohomology groups."""

import itertools
import random
from math import gcd

import pytest

import symq.abelian
import symq.cohomology
from symq.abelian import AbGroup, AbHom, quotient
from symq.cohomology import (
    THEORY_SQ,
    THEORY_SR,
    Cochain,
    boundary,
    coboundary_witness,
    cochain_space,
    cohomology_presentation,
    delta,
    delta1,
    is_cochain,
    is_cocycle,
    verify_chain_complex,
)
from symq.errors import Diagnostic, NotACocycle, ValidationError
from symq.modules import RackModule, constant_module, dihedral_kamada_module
from symq.racks import QUANDLE, enumerate_automorphisms, takasaki
from symq.wells import AutPair, act_on_cocycle, build_abelian_extension, extend_pair

from conftest import cochain, module, rack
from helpers import reference_chain_check, reference_delta, reference_failures
from test_modules import manual_constant


def random_one_cochain(m, rng):
    """Random eta-compatible 1-cochain, built from the C^1 generators."""
    space = cochain_space(m, 1, THEORY_SR)
    out = Cochain.zero(1, m.base.size, m.A)
    for g in space.gens:
        k = rng.randint(0, 5)
        scaled = Cochain(1, g.size, g.group, [m.A.scale(k, v) for v in g.values])
        out = out.add(scaled)
    return out


class TestChainComplex:
    def test_boundary_of_boundary_vanishes(self):
        for name, orders in (("t2", [4]), ("takasaki3", [0]), ("core_z4", [2])):
            X = rack(name)
            m = dihedral_kamada_module(X, AbGroup(orders))
            for n in (2, 3, 4):
                ok, witness = verify_chain_complex(X, m, n)
                assert ok, witness

    def test_all_basepoints(self):
        X = rack("takasaki3")
        m = module("tw_z3", X)
        for p in range(X.size):
            ok, witness = verify_chain_complex(X, m, 2, basepoint=p)
            assert ok, witness

    @pytest.mark.parametrize("basepoint", [99, -1, 3])
    def test_basepoint_outside_the_base_is_refused_in_every_degree(self, basepoint):
        # only the boundary of a 1-chain reads the basepoint; every degree refuses one outside the base
        X = rack("takasaki3")
        m = module("tw_z3", X)
        message = f"basepoint {basepoint} is not an element of the base"
        for n in (2, 3, 4):
            with pytest.raises(ValueError, match=message):
                verify_chain_complex(X, m, n, basepoint=basepoint)
        for degree in (0, 1, 2):
            with pytest.raises(ValueError, match=message):
                delta(m, Cochain.zero(degree, X.size, m.A), basepoint=basepoint)
        for n in (1, 2, 3):
            with pytest.raises(ValueError, match=message):
                boundary(X, n, (0,) * n, basepoint=basepoint)

    def test_psi_sign_mutation_detected(self):
        # over Z3 psi = 2 differs from -psi = 1, so a sign flip must break d^2 = 0
        X = rack("takasaki3")
        m = module("tw_z3", X)
        ok, _ = verify_chain_complex(X, m, 2, psi_sign=1)
        assert ok
        ok, witness = verify_chain_complex(X, m, 2, psi_sign=-1)
        assert not ok and witness is not None

    def test_each_row_set_is_built_once(self, monkeypatch):
        # a sweep of every basepoint, psi flip included, reads the kept delta
        # rows: one build per (degree, psi_sign), none per check
        X = rack("takasaki3")
        m = manual_constant(X, AbGroup([3, 3]), 2, 2, 1)  # tw_z3 twice
        builds = []
        original = symq.cohomology._delta_rows

        def counting(X, m, degree, basepoint=0, psi_sign=1):
            builds.append((degree, psi_sign))
            return original(X, m, degree, basepoint, psi_sign)

        monkeypatch.setattr(symq.cohomology, "_delta_rows", counting)
        for psi_sign in (1, -1):
            for p in range(X.size):
                ok, _ = verify_chain_complex(X, m, 3, p, psi_sign=psi_sign)
                assert ok == (psi_sign == 1)
        assert sorted(builds) == [(1, -1), (1, 1), (2, -1), (2, 1)]

    def test_the_rack_must_be_the_base_of_the_module(self):
        over_t4 = module("tw_z3", rack("t4"))
        assert rack("core_z4") != rack("t4")
        with pytest.raises(ValueError, match="base"):
            verify_chain_complex(rack("core_z4"), over_t4, 3)  # same size
        with pytest.raises(ValueError, match="base"):
            verify_chain_complex(rack("takasaki3"), module("tw_z3", rack("takasaki4")), 3)
        assert verify_chain_complex(rack("t4"), over_t4, 3) == (True, None)

    def test_boundary_terms_shape(self):
        X = rack("t2")
        ch = boundary(X.rack if hasattr(X, "rack") else X, 2, (0, 1))
        assert ch.degree == 1


def same_as_reference(X, m, n, basepoint, psi_sign):
    """verify_chain_complex against the nested-loop reference, witness map included."""
    got = verify_chain_complex(X, m, n, basepoint, psi_sign=psi_sign)
    want = reference_chain_check(X, m, n, basepoint, psi_sign)
    assert got[0] == want[0]
    if not got[0]:
        (tup, v, hom), (want_tup, want_v, want_hom) = got[1], want[1]
        assert (tup, v, hom.matrix) == (want_tup, want_v, want_hom.matrix)
    return got


def altered(m, kind, x, y, h):
    """m with phi_{x,y} or psi_{x,y} replaced by h: tables that are no longer a module."""
    tables = {"phi": [list(row) for row in m.phi], "psi": [list(row) for row in m.psi]}
    tables[kind][x][y] = h
    return RackModule(m.base, m.A, tables["phi"], tables["psi"], m.eta)


class TestChainCheckMatchesTheReference:
    """Verdicts and witnesses of d o d = 0 equal the nested-loop reference."""

    @pytest.mark.parametrize(
        "name", ["t2", "t4", "takasaki3", "takasaki4", "core_z4", "core_z4_shift"])
    def test_fixture_corpus(self, name):
        X = rack(name)
        for mod_name in ("m0_z2", "m0_z4", "m0_z", "tw_z3"):
            m = module(mod_name, X)
            for n, p, psi_sign in itertools.product((2, 3, 4), range(X.size), (1, -1)):
                same_as_reference(X, m, n, p, psi_sign)

    @pytest.mark.parametrize("name", ["takasaki3", "t4", "core_z4"])
    def test_rank_two_modules(self, name):
        X = rack(name)
        for m in (manual_constant(X, AbGroup([3, 3]), 2, 2, 1),
                  dihedral_kamada_module(X, AbGroup([2, 2])),
                  dihedral_kamada_module(X, AbGroup([4, 2]))):
            for n, p, psi_sign in itertools.product((2, 3), range(X.size), (1, -1)):
                same_as_reference(X, m, n, p, psi_sign)

    @pytest.mark.parametrize("orders", ([3], [4, 2], [0, 2]), ids=str)
    def test_random_tables(self, orders):
        # tables that are not a module: most checks fail, at varied tuples and
        # at either coordinate of A
        X = rack("takasaki3")
        rng = random.Random(str(orders))
        for _ in range(3):
            m = random_module(X, AbGroup(orders), rng)
            for n, p, psi_sign in itertools.product((2, 3), range(X.size), (1, -1)):
                same_as_reference(X, m, n, p, psi_sign)

    def test_first_offender_is_found_past_the_first_tuple(self):
        X = rack("t4")
        m = module("tw_z3", X)
        broken = altered(m, "psi", 3, 3, m.psi[3][3].neg())
        ok, (tup, v, hom) = same_as_reference(X, broken, 3, 0, 1)
        assert (tup, v, hom.matrix) == ((0, 3, 3), (3,), ((2,),))
        # rank 2: the witness block is not symmetric, so it pins rows against columns
        A = AbGroup([4, 2])
        broken = altered(dihedral_kamada_module(X, A), "psi", 3, 3, AbHom(A, A, [[0, 2], [1, 1]]))
        ok, (tup, v, hom) = same_as_reference(X, broken, 3, 0, 1)
        assert (tup, v, hom.matrix) == ((3, 3, 3), (3,), ((2, 2), (1, 1)))
        for n, p, psi_sign in itertools.product((2, 3, 4), range(X.size), (1, -1)):
            same_as_reference(X, broken, n, p, psi_sign)

    def test_the_least_failing_target_is_reported(self):
        # d o d of (0, 0, 2) is nonzero at the targets (0,) and (2,)
        X = rack("takasaki3")
        m = module("tw_z3", X)
        broken = altered(m, "phi", 1, 1, m.phi[1][1].neg())
        ok, (tup, v, hom) = same_as_reference(X, broken, 3, 0, 1)
        assert (tup, v) == ((0, 0, 2), (0,))


class TestCoboundaries:
    def test_delta_squared_is_zero(self):
        rng = random.Random(11)
        for name, orders in (("t2", [4]), ("takasaki3", [3]), ("core_z4", [2])):
            X = rack(name)
            m = dihedral_kamada_module(X, AbGroup(orders))
            for _ in range(5):
                lam = random_one_cochain(m, rng)
                assert delta(m, delta1(m, lam)) == Cochain.zero(3, X.size, m.A)

    def test_coboundaries_are_cocycles(self):
        rng = random.Random(12)
        X = rack("takasaki3")
        m = module("tw_z3", X)
        for _ in range(10):
            sigma = delta1(m, random_one_cochain(m, rng))
            ok, diags = is_cocycle(m, sigma, THEORY_SR)
            assert ok, diags

    def test_delta1_rejects_incompatible_input(self):
        X = rack("t2")
        m = dihedral_kamada_module(X, AbGroup([4]))
        # eta = -id forces lam(rho x) = -lam(x); this table violates it
        lam = Cochain(1, 2, m.A, [(1,), (1,)])
        with pytest.raises(ValidationError):
            delta1(m, lam)


class TestCocycleChecks:
    def test_fixture_cocycles(self):
        X = rack("t2")
        m4 = module("m0_z4", X)
        c4 = cochain("t2_z4", X, m4)
        ok, _ = is_cocycle(m4, c4, THEORY_SR)
        assert ok
        mz = module("m0_z", X)
        cz = cochain("t2_z", X, mz)
        ok, _ = is_cocycle(mz, cz, THEORY_SR)
        assert ok

    def test_quandle_theory_rejects_diagonal(self):
        X = rack("t2")
        m4 = module("m0_z4", X)
        c4 = cochain("t2_z4", X, m4)
        ok, diags = is_cocycle(m4, c4, THEORY_SQ)
        assert not ok
        assert any(d.axiom == "degenerate" for d in diags)

    def test_zero_is_always_a_cocycle(self):
        for name in ("t2", "takasaki3", "core_z4_shift"):
            X = rack(name)
            m = dihedral_kamada_module(X, AbGroup([4]))
            z = Cochain.zero(2, X.size, m.A)
            theory = THEORY_SQ if X.kind == "quandle" else THEORY_SR
            ok, _ = is_cocycle(m, z, theory)
            assert ok

    def test_is_cochain_witnesses(self):
        X = rack("t2")
        m = dihedral_kamada_module(X, AbGroup([4]))
        lam = Cochain(1, 2, m.A, [(1,), (1,)])
        ok, diags = is_cochain(m, lam)
        assert not ok
        assert diags[0].axiom == "eta-twist"

    def test_degree_zero(self):
        # C^0 has no membership conditions; the cocycle rows are delta0's
        X = rack("t2")
        m4 = module("m0_z4", X)
        c = Cochain(0, X.size, m4.A, [(1,)])
        assert is_cochain(m4, c) == (True, [])
        assert is_cocycle(m4, c, THEORY_SQ) == (True, [])
        m3 = module("tw_z3", X)
        ok, diags = is_cocycle(m3, Cochain(0, X.size, m3.A, [(1,)]), THEORY_SQ)
        assert not ok
        assert [repr(d) for d in diags] == ["cocycle: [(0,), (1,)]"]

    def test_value_refuses_arguments_outside_the_base(self):
        c = Cochain(2, 3, AbGroup([9]), [(k,) for k in range(9)])
        assert [c.value(x, y) for x in range(3) for y in range(3)] == list(c.values)
        for args in ((0, 3), (-1, 0), (3, 0), (0, -1), (2, 5)):
            with pytest.raises(ValueError, match="not all elements of the base"):
                c.value(*args)
        with pytest.raises(ValueError, match="wrong number of arguments"):
            c.value(0)

    def test_shape_mismatch_rejected(self):
        X = rack("t2")
        m = module("m0_z4", X)
        for c in (Cochain.zero(2, 3, m.A), Cochain.zero(2, X.size, AbGroup([2]))):
            with pytest.raises(ValueError):
                is_cocycle(m, c)
            with pytest.raises(ValueError):
                is_cochain(m, c)
            with pytest.raises(ValueError):
                delta(m, c)


class TestCochainArithmetic:
    """add, sub and neg keep the group's canonical values; raw values are reduced."""

    GROUPS = {"Z": [0], "Z4": [4], "Z2xZ2": [2, 2], "Z8xZ16": [8, 16]}

    @pytest.mark.parametrize("orders", GROUPS.values(), ids=GROUPS)
    def test_operations_equal_the_reducing_constructor(self, orders):
        A = AbGroup(orders)
        assert (A._elems is None) == (orders in ([0], [8, 16]))  # Z8xZ16 has no tables
        rng = random.Random(20261020)
        for degree, size in ((0, 3), (1, 3), (2, 3), (2, 4)):
            def raw():
                return [tuple(rng.randint(-40, 40) for _ in orders) for _ in range(size ** degree)]

            for _ in range(8):
                a, b = Cochain(degree, size, A, raw()), Cochain(degree, size, A, raw())
                pairs = list(zip(a.values, b.values))
                for got, values in (
                    (a.add(b), [tuple(x + y for x, y in zip(u, v)) for u, v in pairs]),
                    (a.sub(b), [tuple(x - y for x, y in zip(u, v)) for u, v in pairs]),
                    (a.neg(), [tuple(-x for x in u) for u in a.values]),
                ):
                    want = Cochain(degree, size, A, values)
                    assert type(got) is Cochain and got == want and hash(got) == hash(want)
                    assert got.values == want.values
                    assert all(type(v) is tuple and A.reduce(v) == v for v in got.values)
        with pytest.raises(ValueError, match="cochain shape mismatch"):
            Cochain.zero(1, 2, A).add(Cochain.zero(1, 3, A))

    @pytest.mark.parametrize("orders", GROUPS.values(), ids=GROUPS)
    def test_library_builders_equal_the_reducing_constructor(self, orders):
        # delta, act_on_cocycle, extend_pair's lambda and every cochain read
        # off a vector (kernel, solve, section) keep their values unreduced
        def canonical(c):
            want = Cochain(c.degree, c.size, c.group, c.values)
            assert type(c) is Cochain and c == want and hash(c) == hash(want)
            assert all(type(v) is tuple for v in c.values)
            return c

        A, X, rng = AbGroup(orders), takasaki(4), random.Random(20261021)
        ident = [[int(i == j) for j in range(len(orders))] for i in range(len(orders))]
        m = constant_module(X, A, ident, [[0] * len(orders) for _ in orders], ident)
        pres = cohomology_presentation(m, 2, THEORY_SQ)
        for c in pres.cocycle_gens + pres.coboundary_gens:
            canonical(c)
        for cls in itertools.islice(itertools.product(*map(range, pres.group.orders)), 8):
            canonical(pres.section(cls))
        for degree in (0, 1, 2):
            for _ in range(4):
                canonical(delta(m, random_cochain(m, degree, rng)))
        for g in cochain_space(m, 1, THEORY_SQ).gens:
            canonical(g)
        # every 1-cochain is eta-compatible here; this one is not a cocycle
        tau = Cochain(1, X.size, A, [(1,) * len(orders)] + [A.zero()] * (X.size - 1))
        sigma = canonical(delta(m, tau))
        assert sigma != Cochain.zero(2, X.size, A)
        assert delta(m, canonical(coboundary_witness(m, sigma, THEORY_SQ))) == sigma
        thetas = [h for h in map(lambda k: AbHom.scalar(A, k), (1, -1, 3)) if h.inverse()]
        pairs = [AutPair(z, h) for z in enumerate_automorphisms(X) for h in thetas]
        for pair in pairs:
            canonical(act_on_cocycle(m, pair, sigma))
            canonical(act_on_cocycle(m, pair, random_cochain(m, 2, rng)))
        ext = build_abelian_extension(m, sigma, THEORY_SQ)
        lams = [canonical(extend_pair(ext, pair).lam) for pair in pairs]
        assert any(lam != Cochain.zero(1, X.size, A) for lam in lams)

    def test_raw_values_are_reduced_or_refused_as_before(self):
        Z, Z4, Z2xZ2, Z8xZ16 = AbGroup([0]), AbGroup([4]), AbGroup([2, 2]), AbGroup([8, 16])
        assert Cochain(1, 2, Z4, [(-1,), (5,)]).values == ((3,), (1,))
        assert Cochain(1, 2, Z4, [[-6], [2]]).values == ((2,), (2,))
        assert Cochain(1, 2, Z, [[-3], (7,)]).values == ((-3,), (7,))
        assert Cochain(1, 2, Z2xZ2, [(3, -1), [4, 2]]).values == ((1, 1), (0, 0))
        assert Cochain(1, 2, Z8xZ16, [(9, -1), [-8, 40]]).values == ((1, 15), (0, 8))
        for c in (Cochain(1, 2, Z4, [[-6], [2]]), Cochain(1, 2, Z8xZ16, [[9, -1], (0, 0)])):
            assert all(type(v) is tuple for v in c.values)
        for degree, values in ((1, [(1,)]), (1, [(1,)] * 3), (2, [(0,)] * 3)):
            with pytest.raises(ValueError, match="value table has wrong length"):
                Cochain(degree, 2, Z4, values)
        with pytest.raises(ValueError, match="element length mismatch"):
            Cochain(1, 2, Z4, [(1, 2), (0,)])


class TestCohomologyGroups:
    def test_takasaki_h2_vanishes_over_z(self):
        m = dihedral_kamada_module(takasaki(3), AbGroup([0]))
        pres = cohomology_presentation(m, 2, THEORY_SR)
        assert str(pres.group) == "0"

    def test_t2_h2_over_z4(self):
        X = rack("t2")
        m = module("m0_z4", X)
        pres = cohomology_presentation(m, 2, THEORY_SR)
        assert pres.group.orders == (4,)
        assert str(pres.cocycle_group()) == "Z4"
        assert str(pres.coboundary_group()) == "0"

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("orders", [(0,), (4,), (2, 2)], ids=["Z", "Z4", "Z2xZ2"])
    def test_cocycle_group_matches_a_fresh_subquotient(self, n, orders):
        # the route cocycle_group took before it read the presentation's own
        # membership factorization: a new subquotient of the cocycle generators
        m = dihedral_kamada_module(takasaki(n), AbGroup(orders))
        for degree, theory in itertools.product((1, 2), (THEORY_SR, THEORY_SQ)):
            pres = cohomology_presentation(m, degree, theory)
            ambient = AbGroup(orders * n ** degree)
            z = [symq.cohomology._cochain_to_vec(c) for c in pres.cocycle_gens]
            assert pres.cocycle_group() == quotient(ambient, z, []).group

    def test_cocycle_group_makes_one_factorization(self, monkeypatch):
        m = dihedral_kamada_module(takasaki(4), AbGroup([4]))
        pres = cohomology_presentation(m, 2, THEORY_SQ)
        calls = []
        snf = symq.abelian.smith_normal_form
        monkeypatch.setattr(symq.abelian, "smith_normal_form", lambda M: calls.append(M) or snf(M))
        assert str(pres.cocycle_group()) == "Z2 x Z2 x Z2 x Z2"
        assert len(calls) == 1  # the relations only; the membership system is not factored again

    def test_t2_h2_over_z(self):
        X = rack("t2")
        m = module("m0_z", X)
        pres = cohomology_presentation(m, 2, THEORY_SR)
        assert pres.group.orders == (0,)

    def test_projection_constant_on_cosets(self):
        rng = random.Random(13)
        X = rack("takasaki3")
        m = module("tw_z3", X)
        pres = cohomology_presentation(m, 2, THEORY_SR)
        for g in pres.cocycle_gens:
            for _ in range(3):
                lam = random_one_cochain(m, rng)
                shifted = g.add(delta1(m, lam))
                assert pres.project(shifted) == pres.project(g)

    def test_project_rejects_non_cocycles(self):
        X = rack("t2")
        m = module("m0_z4", X)
        pres = cohomology_presentation(m, 2, THEORY_SR)
        bad = Cochain(2, 2, m.A, [(1,), (0,), (0,), (0,)])
        with pytest.raises(NotACocycle):
            pres.project(bad)

    def test_degree_one(self):
        X = rack("t2")
        m = module("m0_z4", X)
        pres = cohomology_presentation(m, 1, THEORY_SR)
        # eta = -id: lam(1) = -lam(0); delta1(lam)=0 forces nothing more here
        z = pres.cocycle_group()
        assert z.order() == 4
        for p in range(X.size):
            alt = cohomology_presentation(m, 1, THEORY_SR, basepoint=p)
            assert alt.group.orders == pres.group.orders

    def test_section_projects_back(self):
        X = rack("t2")
        m = module("m0_z4", X)
        pres = cohomology_presentation(m, 2, THEORY_SR)
        for cls in pres.group.elements():
            assert pres.project(pres.section(cls)) == cls


class TestCoboundaryWitness:
    def test_round_trip(self):
        rng = random.Random(14)
        for name, orders in (("takasaki3", [3]), ("core_z4", [4])):
            X = rack(name)
            m = dihedral_kamada_module(X, AbGroup(orders))
            for _ in range(5):
                lam = random_one_cochain(m, rng)
                sigma = delta1(m, lam)
                tau = coboundary_witness(m, sigma, THEORY_SR)
                assert tau is not None
                assert delta1(m, tau) == sigma

    def test_none_for_nontrivial_class(self):
        X = rack("t2")
        m = module("m0_z4", X)
        c = cochain("t2_z4", X, m)
        assert coboundary_witness(m, c, THEORY_SR) is None

    def test_non_cocycle_is_refused_before_solving(self, monkeypatch):
        X = rack("t2")
        m = module("m0_z4", X)
        c = Cochain(2, X.size, m.A, [(1,), (0,), (0,), (0,)])

        def no_solve(*args):
            raise AssertionError("solved for a witness of a non-cocycle")

        monkeypatch.setattr(symq.cohomology, "solve", no_solve)
        for theory in (THEORY_SR, THEORY_SQ):
            assert not is_cocycle(m, c, theory)[0]
            with pytest.raises(NotACocycle, match="eta-twist"):
                coboundary_witness(m, c, theory)

    def test_witness_is_deterministic(self):
        X = rack("core_z4")
        m = dihedral_kamada_module(X, AbGroup([4]))
        sigma = Cochain.zero(2, X.size, m.A)
        t1 = coboundary_witness(m, sigma, THEORY_SQ)
        t2 = coboundary_witness(m, sigma, THEORY_SQ)
        assert t1 == t2


class TestBruteForceCount:
    def brute_z2(self, m, theory):
        X, A = m.base, m.A
        elems = list(A.elements())
        n = X.size
        count = 0
        for vals in itertools.product(elems, repeat=n * n):
            c = Cochain(2, n, A, list(vals))
            ok, _ = is_cocycle(m, c, theory)
            count += ok
        return count

    def test_counts_match_presentation(self):
        X = rack("t2")
        m = module("m0_z4", X)
        for theory in (THEORY_SR, THEORY_SQ):
            pres = cohomology_presentation(m, 2, theory)
            assert pres.cocycle_group().order() == self.brute_z2(m, theory)


def random_module(base, A, rng):
    """Unchecked tables of random endomorphisms: every row reads other maps.

    Entry (i, j) is a random multiple of d_i / gcd(d_i, d_j), and 0 from a
    finite to an infinite summand, so that every map is well defined.
    """
    def entry(di, dj):
        x = rng.randint(-2, 2)
        return x if not dj else 0 if not di else x * (di // gcd(di, dj))

    def h():
        return AbHom(A, A, [[entry(di, dj) for dj in A.orders] for di in A.orders])

    n = base.size
    return RackModule(base, A, [[h() for _ in range(n)] for _ in range(n)],
                      [[h() for _ in range(n)] for _ in range(n)], [h() for _ in range(n)])


def random_cochain(m, degree, rng):
    values = [tuple(rng.randint(-3, 3) if d == 0 else rng.randrange(d) for d in m.A.orders)
              for _ in range(m.base.size ** degree)]
    return Cochain(degree, m.base.size, m.A, values)


REFERENCE_RACKS = {f"takasaki({n})": takasaki(n) for n in (3, 4, 5)}
REFERENCE_RACKS.update(
    (name, rack(name)) for name in ("t2", "t4", "core_z4", "core_z4_shift", "conj_s3"))
REFERENCE_GROUPS = ([0], [3], [4], [2, 2], [4, 2], [0, 2])


class TestCompiledRowsMatchTheReference:
    """delta, is_cochain and is_cocycle against helpers' term-by-term reference."""

    def check(self, m, rng):
        theories = (THEORY_SR, THEORY_SQ) if m.base.kind == QUANDLE else (THEORY_SR,)
        for degree in (0, 1, 2):
            samples = [random_cochain(m, degree, rng) for _ in range(2)]
            samples.append(Cochain.zero(degree, m.base.size, m.A))
            if degree:
                samples.append(delta(m, random_cochain(m, degree - 1, rng)))
            for c in samples:
                for p in sorted({0, m.base.size - 1}):
                    assert list(delta(m, c, p).values) == reference_delta(m, c, p)
                assert found(is_cochain(m, c)) == expected(m, c)
                for theory in theories:
                    got = found(is_cocycle(m, c, theory, basepoint=0))
                    assert got == expected(m, c, theory, basepoint=0)

    @pytest.mark.parametrize("orders", REFERENCE_GROUPS, ids=str)
    @pytest.mark.parametrize("name", REFERENCE_RACKS)
    def test_dihedral_kamada_modules(self, name, orders):
        X = REFERENCE_RACKS[name]
        self.check(dihedral_kamada_module(X, AbGroup(orders)), random.Random(name))

    @pytest.mark.parametrize("orders", REFERENCE_GROUPS, ids=str)
    @pytest.mark.parametrize("name", ["takasaki3", "t2", "core_z4_shift"])
    def test_random_structure_maps(self, name, orders):
        rng = random.Random(name)
        self.check(random_module(rack(name), AbGroup(orders), rng), rng)

    def test_fixture_modules(self):
        for name, base in (("m0_z", "t2"), ("m0_z4", "t2"), ("tw_z3", "takasaki3")):
            self.check(module(name, rack(base)), random.Random(name))


def found(result):
    ok, diags = result
    assert ok == (not diags)
    return [(d.axiom, d.witnesses, d.truncated) for d in diags]


def expected(m, c, theory=THEORY_SR, basepoint=None):
    # the reference's full witness lists, truncated as a report truncates them
    diags = [Diagnostic(k, v) for k, v in reference_failures(m, c, theory, basepoint)]
    return [(d.axiom, d.witnesses, d.truncated) for d in diags]
