"""Dynamical cocycles: validation, gluing, gauge action, group splittings."""

import copy
import hashlib
import itertools
import random
import time

import pytest

import symq.cli
import symq.dynamical
import symq.groups
from symq.abelian import AbGroup
from symq.cohomology import (
    THEORY_SQ,
    THEORY_SR,
    Cochain,
    cohomology_presentation,
    delta,
    delta1,
    is_cocycle,
)
from symq.dynamical import (
    DynamicalCocycle,
    Gauge,
    affine_tables,
    are_cohomologous_dynamical,
    build_extension,
    dynamical_diagnostics,
    from_cocycle,
    from_group_extension,
    from_surjection,
    gauge_transform,
)
from symq.errors import (
    InfiniteGroupUnsupported,
    NotNormal,
    NotSurjective,
    ValidationError,
)
from symq.groups import FiniteGroup, is_normal
from symq.modules import dihedral_kamada_module, validate_module
from symq.racks import (
    QUANDLE,
    FiniteRack,
    FiniteSymmetricRack,
    RackMorphism,
    good_involution_diagnostics,
    rack_diagnostics,
    takasaki,
    trivial_rack,
    validate_good_involution,
    validate_rack,
)
from symq.serialize import fixture_path
from symq.wells import build_abelian_extension

from conftest import cochain, module, rack
from helpers import reference_dynamical_diagnostics
from test_cohomology import random_cochain, random_one_cochain
from test_modules import manual_constant
from test_wells import nonconstant_module


def z4_alpha_cocycle():
    X = rack("t2")
    m = module("m0_z4", X)
    return X, m, cochain("t2_z4", X, m)


def random_gauge(sizes, rng):
    return Gauge([tuple(rng.sample(range(s), s)) for s in sizes])


class TestValidation:
    def test_from_cocycle_instances_validate(self):
        X, m, c = z4_alpha_cocycle()
        dc = from_cocycle(m, c, THEORY_SR)
        assert dc.sizes == (4, 4)
        assert not dynamical_diagnostics(X, dc.sizes, dc.alpha, dc.beta, False)

    def test_corruption_is_caught_somewhere(self):
        # one corrupted table entry makes the constructor refuse the tables
        X, m, c = z4_alpha_cocycle()
        dc = from_cocycle(m, c, THEORY_SR)
        rng = random.Random(99)
        for _ in range(20):
            alpha = [
                [[list(r) for r in dc.alpha[x][y]] for y in range(2)]
                for x in range(2)
            ]
            x, y = rng.randrange(2), rng.randrange(2)
            s, t = rng.randrange(4), rng.randrange(4)
            old = alpha[x][y][s][t]
            alpha[x][y][s][t] = (old + rng.randint(1, 3)) % 4
            with pytest.raises(ValidationError):
                DynamicalCocycle(X, dc.sizes, alpha, dc.beta, False)

    def test_quandle_condition_toggles(self):
        X, m, c = z4_alpha_cocycle()
        dc = from_cocycle(m, c, THEORY_SR)
        diags = dynamical_diagnostics(X, dc.sizes, dc.alpha, dc.beta, True)
        assert any(d.axiom == "idempotence" for d in diags)

    @pytest.mark.parametrize("field", ["base", "sizes", "alpha", "beta", "quandle"])
    def test_fields_are_read_only(self, field):
        # reversed fibers break the involution: were beta assignable,
        # build_extension would glue a table that no check has seen
        X, m, c = z4_alpha_cocycle()
        dc = from_cocycle(m, c, THEORY_SR)
        before = getattr(dc, field)
        bad = {"base": rack("t4"), "sizes": (2, 2), "alpha": (), "quandle": True,
               "beta": tuple(tuple(reversed(b)) for b in dc.beta)}[field]
        with pytest.raises(AttributeError, match="read-only"):
            setattr(dc, field, bad)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(dc, field)
        assert getattr(dc, field) is before
        assert build_extension(dc).rack.size == 8


class TestShape:
    @pytest.mark.parametrize("sizes", [(1, 1), (1, 1, 1, 1), (1, 0, 1)],
                             ids=["short", "long", "empty-fiber"])
    def test_one_positive_size_per_base_element(self, sizes):
        X = takasaki(3)
        alpha = [[[[0]] for _ in range(3)] for _ in range(3)]
        beta = [[0]] * 3
        assert not dynamical_diagnostics(X, (1, 1, 1), alpha, beta)
        assert [d.axiom for d in dynamical_diagnostics(X, sizes, alpha, beta)] == ["fiber-map"]
        with pytest.raises(ValidationError) as e:
            DynamicalCocycle(X, sizes, alpha, beta)
        assert [d.axiom for d in e.value.diagnostics] == ["fiber-map"]


SHIFT2 = validate_good_involution(validate_rack([[1, 1], [0, 0]]), (0, 1))
REFERENCE_BASES = {name: rack(name) for name in ("t2", "takasaki3", "core_z4_shift")}
REFERENCE_BASES["shift2"] = SHIFT2
REFERENCE_GROUPS = ([2], [3], [4], [2, 2])
CORRUPTIONS = ("none", "gauge", "sigma", "alpha-entry", "alpha-column", "beta-entry", "beta-perm")


def fiber_lists(X, alpha, beta):
    return ([[[list(r) for r in alpha[x][y]] for y in range(X.size)] for x in range(X.size)],
            [list(b) for b in beta])


def corrupted_tables(m, dc, kind, rng):
    """(sizes, alpha, beta) of dc after one seeded corruption of the given kind.

    "none" and "gauge" stay valid, "sigma" tabulates a random 2-cochain,
    "alpha-entry" and "beta-entry" change one entry, and "alpha-column" and
    "beta-perm" follow one fiber map by a random permutation.
    """
    X, sizes = dc.base, dc.sizes
    if kind == "gauge":
        dc = gauge_transform(dc, random_gauge(sizes, rng))
    if kind == "sigma":
        return affine_tables(m, random_cochain(m, 2, rng))
    alpha, beta = fiber_lists(X, dc.alpha, dc.beta)
    k = sizes[0]  # every fiber is A
    x, y, s, t = rng.randrange(X.size), rng.randrange(X.size), rng.randrange(k), rng.randrange(k)
    perm = rng.sample(range(k), k)
    if kind == "alpha-entry":
        alpha[x][y][s][t] = (alpha[x][y][s][t] + rng.randrange(1, k)) % k
    elif kind == "alpha-column":
        for r in alpha[x][y]:
            r[t] = perm[r[t]]
    elif kind == "beta-entry":
        beta[x][s] = (beta[x][s] + rng.randrange(1, k)) % k
    elif kind == "beta-perm":
        beta[x] = [perm[v] for v in beta[x]]
    return sizes, alpha, beta


def reference_corpus():
    """Every base, fiber group and seeded corruption, with each quandle flag the base allows."""
    for name, X in REFERENCE_BASES.items():
        for orders in REFERENCE_GROUPS:
            m = dihedral_kamada_module(X, AbGroup(orders))
            rng = random.Random(f"{name}{orders}")
            pool = [from_cocycle(m, delta(m, random_one_cochain(m, rng)), THEORY_SR)
                    for _ in range(4)]
            for trial in range(40):
                tables = corrupted_tables(m, pool[trial % len(pool)],
                                          CORRUPTIONS[trial % len(CORRUPTIONS)], rng)
                for quandle in (False, True)[: 1 + (X.kind == QUANDLE)]:
                    yield (X, *tables, quandle)


class TestReference:
    """dynamical_diagnostics against conditions (1)-(6) written in fiber coordinates."""

    def test_verdicts_match_the_reference(self):
        cases = list(reference_corpus())
        t0 = time.perf_counter()
        verdicts = [(bool(dynamical_diagnostics(*case)), bool(reference_dynamical_diagnostics(*case)))
                    for case in cases]
        elapsed = time.perf_counter() - t0
        assert len(verdicts) >= 1000
        assert [i for i, (new, old) in enumerate(verdicts) if new != old] == []
        assert {new for new, _ in verdicts} == {True, False}
        assert elapsed < 2, elapsed

    @pytest.mark.parametrize("case,first", [("beta-not-bijective", "S1-involution"),
                                            ("alpha-not-bijective", "right-translation-bijective"),
                                            ("fiber-size", "fiber-size")])
    def test_broken_fiber_maps_are_reported(self, case, first):
        X = takasaki(3)
        m = dihedral_kamada_module(X, AbGroup([3]))
        dc = from_cocycle(m, delta(m, random_one_cochain(m, random.Random(3))), THEORY_SR)
        sizes = dc.sizes
        alpha, beta = fiber_lists(X, dc.alpha, dc.beta)
        if case == "beta-not-bijective":
            beta[1] = [0, 0, 0]
        elif case == "alpha-not-bijective":
            alpha[0][2] = [[0] * 3 for _ in range(3)]
        else:
            sizes = (3, 3, 2)
            alpha = [[[[0] * sizes[y] for _ in range(sizes[x])] for y in range(3)]
                     for x in range(3)]
            beta = [[0] * sizes[x] for x in range(3)]
        assert dynamical_diagnostics(X, sizes, alpha, beta)[0].axiom == first
        assert reference_dynamical_diagnostics(X, sizes, alpha, beta)
        with pytest.raises(ValidationError):
            DynamicalCocycle(X, sizes, alpha, beta)


@pytest.fixture
def decisions(monkeypatch):
    """Each decision on fiber tables, in order: "walk" for a run of dynamical_diagnostics,
    from the library or from the CLI, and "proof" or "no proof" for a verdict of the affine
    proof of from_cocycle."""
    calls = []
    walk, proof = symq.dynamical.dynamical_diagnostics, symq.dynamical._affine_axioms

    def walking(*args, **kwargs):
        calls.append("walk")
        return walk(*args, **kwargs)

    def proving(*args):
        verdict = proof(*args)
        calls.append("proof" if verdict else "no proof")
        return verdict

    monkeypatch.setattr(symq.dynamical, "dynamical_diagnostics", walking)
    monkeypatch.setattr(symq.cli, "dynamical_diagnostics", walking)
    monkeypatch.setattr(symq.dynamical, "_affine_axioms", proving)
    return calls


DYN = str(fixture_path("dynamical_t2_z4.json"))


def dynamical_cli(action, *flags):
    argv = ["dynamical", action, "--rack", str(fixture_path("rack_t2.json")), "--dynamical", DYN]
    assert symq.cli.main(argv + ["--theory", "sr", *flags]) == 0


def s3_over_a3():
    S3 = FiniteGroup.symmetric(3)
    return from_group_extension(S3, [a for a in range(6) if S3.order_of(a) in (1, 3)])


class TestOneAxiomPass:
    # one decision per cocycle: an accepted affine proof or one walk of the glued table;
    # the two affine routes never walk, and the other routes never try the proof
    @pytest.mark.parametrize("route,expected", [
        (s3_over_a3, ["walk"]),
        (lambda: from_surjection(RackMorphism(rack("core_z4"), takasaki(2), (0, 1, 0, 1))),
         ["walk"]),
        (lambda: build_extension(from_cocycle(*z4_alpha_cocycle()[1:], THEORY_SR)), ["proof"]),
        (lambda: build_abelian_extension(*z4_alpha_cocycle()[1:], THEORY_SR), ["proof"]),
        (lambda: dynamical_cli("extend"), ["walk"]),
        # the two inputs and the cocycle the found gauge transports
        (lambda: dynamical_cli("equiv", "--other", DYN), ["walk"] * 3),
    ], ids=["from_group_extension", "from_surjection", "from_cocycle", "build_abelian_extension",
            "cli-extend", "cli-equiv"])
    def test_each_cocycle_is_checked_once(self, decisions, route, expected):
        route()
        assert decisions == expected


PROOF_BASES = {f"takasaki({n})": takasaki(n) for n in (3, 4, 5)}
PROOF_BASES.update((name, rack(name)) for name in ("t2", "t4", "core_z4"))
PROOF_GROUPS = ([2], [3], [4], [2, 2])


def scalar_modules(bases):
    """Every constant module of scalars (phi, psi, eta) = (a, b, c) over each base and fiber
    group, valid or not, with scalars below the exponent of the group."""
    for X in bases:
        for orders in PROOF_GROUPS:
            for abc in itertools.product(range(max(orders)), repeat=3):
                yield manual_constant(X, AbGroup(orders), *abc)


def valid_extensions():
    """(module, cocycle, theory): every valid scalar module of PROOF_BASES and the nonconstant
    module of test_wells, with sigma = 0, two seeded coboundaries and two presentation
    sections, in each theory where sigma is a cocycle."""
    mods = [m for m in scalar_modules(PROOF_BASES.values()) if validate_module(m).ok]
    for i, m in enumerate(mods + [nonconstant_module()]):
        rng = random.Random(i)
        sigmas = [Cochain.zero(2, m.base.size, m.A)]
        sigmas += [delta(m, random_one_cochain(m, rng)) for _ in range(2)]
        for theory in (THEORY_SR, THEORY_SQ):
            pres = cohomology_presentation(m, 2, theory)
            sections = [pres.section(c) for c in itertools.islice(pres.group.elements(), 1, 3)]
            for sigma in sigmas + sections:
                if is_cocycle(m, sigma, theory)[0]:
                    yield m, sigma, theory


def reported(diags):
    return [(d.axiom, d.witnesses, d.truncated) for d in diags]


def decided_like_the_walk(m, sigma, theory):
    """from_cocycle against the full walk of the same tables: it must accept exactly when
    the walk finds nothing, through the proof, and otherwise raise the walk's diagnostics."""
    X, quandle = m.base, theory == THEORY_SQ
    sizes, alpha, beta = affine_tables(m, sigma)
    walk = dynamical_diagnostics(X, sizes, alpha, beta, quandle)
    assert symq.dynamical._affine_axioms(X, m.A, alpha, beta, quandle) == (walk == [])
    if walk:
        with pytest.raises(ValidationError) as e:
            from_cocycle(m, sigma, theory)
        assert reported(e.value.diagnostics) == reported(walk)
    else:
        dc = from_cocycle(m, sigma, theory)
        assert (dc.sizes, dc.alpha, dc.beta, dc.quandle) == (
            sizes, *fiber_tuples(alpha, beta), quandle)
    return bool(walk)


def fiber_tuples(alpha, beta):
    return (tuple(tuple(tuple(map(tuple, b)) for b in row) for row in alpha),
            tuple(map(tuple, beta)))


class TestAffineProof:
    """The affine proof of from_cocycle against the full walk of the glued table."""

    def test_valid_extensions_are_proven_and_the_walk_agrees(self, decisions):
        cases = list(valid_extensions())
        assert len(cases) > 400
        assert any(not m.constant for m, _, _ in cases)
        assert {theory for _, _, theory in cases} == {THEORY_SR, THEORY_SQ}
        for m, sigma, theory in cases:
            dc = from_cocycle(m, sigma, theory)
            assert decisions[-1:] == ["proof"]
            assert dynamical_diagnostics(m.base, dc.sizes, dc.alpha, dc.beta, dc.quandle) == []
        assert decisions.count("proof") == len(cases)
        assert "no proof" not in decisions

    def test_unchecked_modules_and_cochains_get_the_walks_verdict(self, monkeypatch):
        # with the module and cocycle checks out of the way, every scalar module and a
        # seeded cochain reach the proof; a refusal must carry the walk's diagnostics
        monkeypatch.setattr(symq.dynamical, "_checked_theory", lambda m, sigma, theory: theory)
        rng = random.Random(29)
        bases = [PROOF_BASES[name] for name in ("takasaki(3)", "t2", "t4", "core_z4")]
        verdicts = []
        for i, m in enumerate(scalar_modules(bases)):
            sigma = random_cochain(m, 2, rng) if i % 2 else Cochain.zero(2, m.base.size, m.A)
            verdicts.append(decided_like_the_walk(m, sigma, THEORY_SQ if i % 3 == 0 else THEORY_SR))
        assert 100 < sum(verdicts) < len(verdicts)

    def test_a_non_cocycle_past_the_cocycle_check_gets_the_walks_diagnostics(self, monkeypatch):
        X, m, c = z4_alpha_cocycle()
        sigma = random_cochain(m, 2, random.Random(3))
        assert not is_cocycle(m, sigma, THEORY_SR)[0]
        monkeypatch.setattr(symq.dynamical, "is_cocycle", lambda *args: (True, []))
        assert decided_like_the_walk(m, sigma, THEORY_SR)

    def test_every_corrupted_alpha_entry_fails_the_proof(self, monkeypatch, decisions):
        X, m, c = z4_alpha_cocycle()
        sizes, alpha, beta = affine_tables(m, c)
        for x, y, s, t in itertools.product(range(2), range(2), range(4), range(4)):
            bad = copy.deepcopy(alpha)
            bad[x][y][s][t] = (bad[x][y][s][t] + 1) % 4
            walk = dynamical_diagnostics(X, sizes, bad, beta, False)
            assert walk
            monkeypatch.setattr(symq.dynamical, "affine_tables", lambda m, sigma: (sizes, bad, beta))
            decisions.clear()
            with pytest.raises(ValidationError) as e:
                from_cocycle(m, c, THEORY_SR)
            assert decisions == ["no proof", "walk"]
            assert reported(e.value.diagnostics) == reported(walk)

    @pytest.mark.parametrize("carrier,axiom", [("alpha", "S3-inverse-translation"),
                                               ("beta", "S1-involution")])
    def test_a_split_map_that_is_not_additive_fails_the_proof(self, monkeypatch, decisions,
                                                               carrier, axiom):
        # pi fixes 0 and 1 of Z5 and cycles 2 -> 3 -> 4.  As alpha(s, t) = pi(s), or as
        # beta = pi under alpha(s, t) = s, it splits as g(s) + h(t) + c or k(s) + b and meets
        # every condition at the basis points 0 and 1; only the additivity check refuses it
        X, pi, ident = takasaki(3), [0, 1, 3, 4, 2], list(range(5))
        m = dihedral_kamada_module(X, AbGroup([5]))
        column = pi if carrier == "alpha" else ident
        sizes, alpha = (5,) * 3, [[[[column[s]] * 5 for s in range(5)] for _ in range(3)]
                                  for _ in range(3)]
        beta = [list(pi if carrier == "beta" else ident) for _ in range(3)]
        walk = dynamical_diagnostics(X, sizes, alpha, beta, False)
        assert [d.axiom for d in walk] == [axiom]
        monkeypatch.setattr(symq.dynamical, "affine_tables", lambda m, sigma: (sizes, alpha, beta))
        with pytest.raises(ValidationError) as e:
            from_cocycle(m, Cochain.zero(2, 3, m.A), THEORY_SR)
        assert decisions == ["no proof", "walk"]
        assert reported(e.value.diagnostics) == reported(walk)

    def test_a_base_that_is_not_a_rack_fails_the_proof(self, monkeypatch):
        table = [[0, 2, 1], [1, 1, 0], [2, 0, 2]]
        assert [d.axiom for d in rack_diagnostics(table, QUANDLE)] == ["self-distributivity"]
        X = FiniteSymmetricRack(FiniteRack(table, QUANDLE), (0, 1, 2))
        monkeypatch.setattr(symq.dynamical, "_checked_theory", lambda m, sigma, theory: theory)
        m = manual_constant(X, AbGroup([2]), 1, 0, 1)
        assert decided_like_the_walk(m, Cochain.zero(2, 3, m.A), THEORY_SQ)


class TestExtension:
    def test_glued_rack_is_symmetric(self):
        X, m, c = z4_alpha_cocycle()
        ext = build_extension(from_cocycle(m, c, THEORY_SR))
        assert ext.rack.size == 8
        assert not good_involution_diagnostics(ext.rack.rack, ext.rack.rho)

    def test_projection_is_a_morphism(self):
        X, m, c = z4_alpha_cocycle()
        ext = build_extension(from_cocycle(m, c, THEORY_SR))
        proj = [x for x, s in ext.labels]
        f = RackMorphism(ext.rack, X, proj)
        assert not f.diagnostics()
        assert f.is_surjective()

    def test_zero_cocycle_gives_product(self):
        X = rack("t2")
        m = dihedral_kamada_module(X, AbGroup([2]))
        from symq.cohomology import Cochain

        dc = from_cocycle(m, Cochain.zero(2, 2, m.A), THEORY_SR)
        ext = build_extension(dc)
        # product structure: (x,s)*(y,t) lands in fiber x with the same s
        for i, (x, s) in enumerate(ext.labels):
            for j, (y, t) in enumerate(ext.labels):
                out = ext.pair_of(ext.rack.op(i, j))
                assert out == (x, s)


class TestGaugeAction:
    def test_identity_gauge_fixes_everything(self):
        X, m, c = z4_alpha_cocycle()
        dc = from_cocycle(m, c, THEORY_SR)
        assert gauge_transform(dc, Gauge.identity(dc.sizes)) == dc

    def test_action_composes(self):
        X, m, c = z4_alpha_cocycle()
        dc = from_cocycle(m, c, THEORY_SR)
        rng = random.Random(5)
        for _ in range(10):
            g = random_gauge(dc.sizes, rng)
            h = random_gauge(dc.sizes, rng)
            gh = Gauge([
                tuple(g.perms[x][h.perms[x][s]] for s in range(dc.sizes[x]))
                for x in range(len(dc.sizes))
            ])
            assert gauge_transform(gauge_transform(dc, h), g) == gauge_transform(dc, gh)

    def test_inverse_round_trip(self):
        X, m, c = z4_alpha_cocycle()
        dc = from_cocycle(m, c, THEORY_SR)
        rng = random.Random(6)
        for _ in range(10):
            g = random_gauge(dc.sizes, rng)
            assert gauge_transform(gauge_transform(dc, g), g.inverse()) == dc

    def test_transforms_stay_valid(self):
        X, m, c = z4_alpha_cocycle()
        dc = from_cocycle(m, c, THEORY_SR)
        rng = random.Random(7)
        for _ in range(10):
            g = random_gauge(dc.sizes, rng)
            out = gauge_transform(dc, g)
            assert not dynamical_diagnostics(X, out.sizes, out.alpha, out.beta, False)


class TestEquivalence:
    def test_self_equivalence_is_identity(self):
        X, m, c = z4_alpha_cocycle()
        dc = from_cocycle(m, c, THEORY_SR)
        g = are_cohomologous_dynamical(dc, dc)
        assert g == Gauge.identity(dc.sizes)

    def test_gauge_orbit_is_recovered(self):
        X, m, c = z4_alpha_cocycle()
        dc = from_cocycle(m, c, THEORY_SR)
        rng = random.Random(8)
        for _ in range(5):
            g = random_gauge(dc.sizes, rng)
            moved = gauge_transform(dc, g)
            found = are_cohomologous_dynamical(dc, moved)
            assert found is not None
            assert gauge_transform(dc, found) == moved

    def test_opposite_classes_need_a_nonaffine_gauge(self):
        # [alpha] != [-alpha] in H^2, so no gauge of the affine shape
        # gamma_x(a) = tau(x) + a can relate the extensions; fiberwise
        # negation still does, so the general search finds a witness
        X, m, c = z4_alpha_cocycle()
        dc_plus = from_cocycle(m, c, THEORY_SR)
        dc_minus = from_cocycle(m, c.neg(), THEORY_SR)
        from symq.cohomology import cohomology_presentation

        pres = cohomology_presentation(m, 2, THEORY_SR)
        assert pres.project(c) != pres.project(c.neg())
        elems = list(m.A.elements())
        for t0 in elems:
            for t1 in elems:
                g = Gauge([
                    tuple(m.A.element_index(m.A.add(t, a)) for a in elems)
                    for t in (t0, t1)
                ])
                assert gauge_transform(dc_plus, g) != dc_minus
        witness = are_cohomologous_dynamical(dc_plus, dc_minus)
        assert witness is not None
        assert gauge_transform(dc_plus, witness) == dc_minus

    def test_cohomologous_cocycles_are_equivalent(self):
        # shifting by a coboundary moves the extension by the affine gauge
        X, m, c = z4_alpha_cocycle()
        rng = random.Random(9)
        lam = random_one_cochain(m, rng)
        shifted = c.add(delta1(m, lam))
        g = are_cohomologous_dynamical(
            from_cocycle(m, c, THEORY_SR), from_cocycle(m, shifted, THEORY_SR)
        )
        assert g is not None
        # the explicit witness gamma_x(a) = lam(x) + a works directly
        explicit = Gauge([
            tuple(m.A.element_index(m.A.add(lam.value(x), a)) for a in m.A.elements())
            for x in range(X.size)
        ])
        moved = gauge_transform(from_cocycle(m, c, THEORY_SR), explicit)
        assert moved == from_cocycle(m, shifted, THEORY_SR)


class TestFromCocycle:
    def test_infinite_fiber_rejected(self):
        X = rack("t2")
        m = module("m0_z", X)
        c = cochain("t2_z", X, m)
        with pytest.raises(InfiniteGroupUnsupported):
            from_cocycle(m, c, THEORY_SR)

    def test_invalid_module_fails_validation(self):
        # phi = 2 over Z5 breaks M6; the glued tables break dynamical axioms
        from symq.cohomology import Cochain
        from test_modules import manual_constant, shift_rack_2

        base = shift_rack_2()
        m = manual_constant(base, AbGroup([5]), 2, 0, 4)
        sigma = Cochain.zero(2, base.size, m.A)
        with pytest.raises(ValidationError):
            from_cocycle(m, sigma, THEORY_SR)


class TestFromSurjection:
    def test_identity_gives_singleton_fibers(self):
        X = rack("takasaki3")
        f = RackMorphism(X, X, (0, 1, 2))
        dc, fibers = from_surjection(f)
        assert dc.sizes == (1, 1, 1)
        assert [len(fib) for fib in fibers] == [1, 1, 1]

    def test_core_z4_over_core_z2(self):
        src = rack("core_z4")
        dst = takasaki(2)
        f = RackMorphism(src, dst, (0, 1, 0, 1))
        dc, fibers = from_surjection(f)
        assert dc.sizes == (2, 2)
        assert fibers == [[0, 2], [1, 3]]

    def test_t4_collapse(self):
        src = rack("t4")
        dst = rack("t2")
        dc, _ = from_surjection(RackMorphism(src, dst, (0, 1, 0, 1)))
        assert dc.sizes == (2, 2)

    def test_not_surjective(self):
        X = rack("t2")
        T = trivial_rack(3, (1, 0, 2))
        with pytest.raises(NotSurjective):
            from_surjection(RackMorphism(X, T, (0, 1)))


class TestFromGroupExtension:
    def test_conj_on_abelian_is_trivial(self):
        split = from_group_extension(FiniteGroup.cyclic(4), [0, 2], flavor="conj")
        assert split.quotient.size == 2
        assert all(v == 0 for v in split.theta.values())

    def test_core_z4_splits_over_core_z2(self):
        split = from_group_extension(FiniteGroup.cyclic(4), [0, 2], flavor="core")
        assert split.cocycle.sizes == (2, 2)
        assert split.base.size == 2
        # theta(1,1) = kappa(1)*kappa(1) measured in A = {0, 2}
        assert split.theta[(1, 1)] in (0, 2)

    def test_core_z_flavor(self):
        split = from_group_extension(
            FiniteGroup.cyclic(4), [0, 2], flavor="core_z", z=2
        )
        assert split.total.rho == (2, 3, 0, 1)
        # z lies in A, so the quotient involution collapses to the identity
        assert split.base.rho == (0, 1)

    def test_not_normal(self):
        S3 = FiniteGroup.symmetric(3)
        twist = next(a for a in range(6) if S3.order_of(a) == 2)
        with pytest.raises(NotNormal):
            from_group_extension(S3, [S3.identity, twist], flavor="core")

    def test_the_subgroup_is_checked_once(self, monkeypatch):
        # quotient_group checks the subgroup, and A is read off its identity coset
        calls = []
        original = symq.groups.subgroup_check

        def counting(G, elements):
            calls.append(tuple(elements))
            return original(G, elements)

        monkeypatch.setattr(symq.groups, "subgroup_check", counting)
        monkeypatch.setattr(symq.dynamical, "subgroup_check", counting, raising=False)
        split = s3_over_a3()
        assert len(calls) == 1
        assert split.subgroup == (0, 3, 4)

    def test_s3_conj_splitting(self):
        S3 = FiniteGroup.symmetric(3)
        A3 = [a for a in range(6) if S3.order_of(a) in (1, 3)]
        split = from_group_extension(S3, A3, flavor="conj")
        assert split.quotient.size == 2
        assert split.cocycle.sizes == (3, 3)


def permutation_group(gens, n):
    """The group the permutation words generate, on sorted words; (p*q)(i) = p(q(i))."""
    ident = tuple(range(n))
    reached, todo = {ident}, [ident]
    while todo:
        p = todo.pop()
        for g in gens:
            q = tuple(p[g[i]] for i in range(n))
            if q not in reached:
                reached.add(q)
                todo.append(q)
    elems = sorted(reached)
    index = {p: i for i, p in enumerate(elems)}
    mul = [[index[tuple(p[q[i]] for i in range(n))] for q in elems] for p in elems]
    return FiniteGroup(mul, identity=index[ident])


def normal_subgroups(G):
    """Every normal subgroup, as sorted element lists; each is generated by two elements."""
    found = set()
    for a in range(G.size):
        for b in range(G.size):
            reached, todo = {G.identity}, [G.identity]
            while todo:
                h = todo.pop()
                for g in (a, b):
                    if G.mul[h][g] not in reached:
                        reached.add(G.mul[h][g])
                        todo.append(G.mul[h][g])
            if is_normal(G, reached):
                found.add(tuple(sorted(reached)))
    return sorted(found, key=lambda s: (len(s), s))


def splitting_outcome(G, sub, flavor, n, z):
    """sizes, alpha, beta, sorted theta and kappa of a splitting, or its exception."""
    try:
        split = from_group_extension(G, sub, flavor=flavor, n=n, z=z)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    dc = split.cocycle
    return dc.sizes, dc.alpha, dc.beta, sorted(split.theta.items()), split.kappa


SPLIT_GROUPS = {
    "Z4": lambda: FiniteGroup.cyclic(4),
    "Z6": lambda: FiniteGroup.cyclic(6),
    "Z8": lambda: FiniteGroup.cyclic(8),
    "S3": lambda: FiniteGroup.symmetric(3),
    "D4": lambda: permutation_group([(1, 2, 3, 0), (0, 3, 2, 1)], 4),
    "S4": lambda: FiniteGroup.symmetric(4),
}


class TestGroupSplittingPin:
    """from_group_extension on every normal subgroup and flavor, recorded from
    an earlier implementation that glued group splittings on a route of their own."""

    @pytest.mark.parametrize("name,count,digest", [
        ("Z4", 12, "67049da272c5920e"),
        ("Z6", 16, "4a05b9a2c92d2773"),
        ("Z8", 16, "71f88cc43cdabb79"),
        ("S3", 9, "4969466c44bac1a3"),
        ("D4", 24, "816ec651741f63ba"),
        ("S4", 12, "ef7b210f9f8d2f20"),
    ])
    def test_splittings_match_the_record(self, name, count, digest):
        G = SPLIT_GROUPS[name]()
        involutions = [z for z in range(G.size) if z != G.identity
                       and G.mul[z][z] == G.identity and G.is_central(z)]
        flavors = [("conj", 1, None), ("conj", 2, None), ("core", 1, None)]
        flavors += [("core_z", 1, z) for z in involutions]
        outcomes = [splitting_outcome(G, sub, *f)
                    for sub in normal_subgroups(G) for f in flavors]
        assert (len(outcomes), hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]) \
            == (count, digest)
