"""Affine extensions, symmetry pairs, lifting, and the exactness report."""

import hashlib
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
    _cochain_to_vec,
    _vec_to_cochain,
    cochain_space,
    cohomology_presentation,
    delta,
)
from symq.dynamical import DynamicalExtension, affine_tables
from symq.errors import (
    InfiniteGroupUnsupported,
    NotACocycle,
    NotConstantModule,
    SearchSpaceExceeded,
    ValidationError,
)
from symq.modules import RackModule, constant_module, dihedral_kamada_module, validate_module
from symq.racks import (
    FiniteRack,
    FiniteSymmetricRack,
    _compose_words,
    _invert_word,
    good_involution_diagnostics,
    takasaki,
    trivial_rack,
)
from symq.wells import (
    AutPair,
    LiftedAutomorphism,
    act_on_cocycle,
    brute_force_fiber_automorphisms,
    build_abelian_extension,
    enumerate_autA_extension,
    enumerate_aut_pairs,
    extend_pair,
    gamma_restriction,
    lambda_map,
    module_automorphisms,
    stabilizer,
    validate_aut_pair,
    wells_report,
    z1_elements,
)

from conftest import cochain, module, rack
from helpers import (affine_part, reference_lift_inverse, reference_lift_lambda, reference_pair_inverse,
                     reference_subgroup_elements)


def z4_extension():
    X = rack("t2")
    m = module("m0_z4", X)
    c = cochain("t2_z4", X, m)
    return build_abelian_extension(m, c, THEORY_SR)


def z_extension():
    X = rack("t2")
    m = module("m0_z", X)
    c = cochain("t2_z", X, m)
    return build_abelian_extension(m, c, THEORY_SR)


def nonconstant_module():
    # phi = id, psi = 0, eta = (2, 3) over Z5 on the two-point trivial quandle:
    # M3 only needs eta_{rho(x)} inverse to eta_x
    X = rack("t2")
    A = AbGroup([5])
    ident = AbHom.identity(A)
    zero = AbHom.zero(A, A)
    eta = [AbHom.scalar(A, 2), AbHom.scalar(A, 3)]
    return RackModule(X, A, [[ident] * 2] * 2, [[zero] * 2] * 2, eta)


def counted(monkeypatch, owner, name):
    """Replace owner.name by a wrapper recording the positional arguments of each call."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kw):
        calls.append(args)
        return original(*args, **kw)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def lift_constructions(monkeypatch):
    """Count the LiftedAutomorphism constructions, each deciding one lift."""
    calls = []
    original = symq.wells.LiftedAutomorphism.__init__

    def counting(self, extension, pair, lam, **kw):
        calls.append(pair)
        original(self, extension, pair, lam, **kw)

    monkeypatch.setattr(symq.wells.LiftedAutomorphism, "__init__", counting)
    return calls


@pytest.fixture
def cohomology_builds(monkeypatch):
    """Record the row sets, witness maps and presentations symq.cohomology forms."""
    calls = []

    def record(name, key):
        original = getattr(symq.cohomology, name)

        def counting(*args, **kwargs):
            calls.append((name,) + key(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(symq.cohomology, name, counting)

    record("_delta_rows", lambda X, m, degree, basepoint=0, psi_sign=1: (degree,))
    record("_membership_rows", lambda X, m, degree, theory: (degree, theory))
    record("_witness_map", lambda m, degree, theory, basepoint=0: (degree,))
    record("cohomology_presentation", lambda m, degree, theory="sr", basepoint=0: (degree,))
    return calls


class TestBuildExtension:
    def test_total_rack_is_symmetric(self):
        ext = z4_extension()
        assert ext.rack.size == 8
        assert not good_involution_diagnostics(ext.rack.rack, ext.rack.rho)

    def test_theory_defaults_to_base_kind(self):
        X = rack("t2")
        m = module("m0_z4", X)
        c = cochain("t2_z4", X, m)
        # T2 is a quandle, so the default is quandle theory, where the
        # nonzero diagonal of this cocycle is rejected
        with pytest.raises(NotACocycle):
            build_abelian_extension(m, c)

    def test_non_cocycle_rejected(self):
        X = rack("t2")
        m = module("m0_z4", X)
        bad = Cochain(2, 2, m.A, [(1,), (0,), (0,), (0,)])
        with pytest.raises(NotACocycle):
            build_abelian_extension(m, bad, THEORY_SR)

    def test_non_constant_module_rejected(self):
        m = nonconstant_module()
        sigma = Cochain.zero(2, 2, m.A)
        with pytest.raises(NotConstantModule):
            build_abelian_extension(m, sigma, THEORY_SQ)

    @pytest.mark.parametrize("orders", [[4], [0]])
    def test_module_breaking_m3_rejected_for_both_fiber_kinds(self, orders):
        # a constant module built directly, with eta = 2 id: eta o eta != id
        X = rack("t2")
        A = AbGroup(orders)
        ident, zero, eta = AbHom.identity(A), AbHom.zero(A, A), AbHom.scalar(A, 2)
        m = RackModule(X, A, [[ident] * 2] * 2, [[zero] * 2] * 2, [eta] * 2)
        assert m.constant
        with pytest.raises(ValidationError) as e:
            build_abelian_extension(m, Cochain.zero(2, 2, A), THEORY_SR)
        assert [d.axiom for d in e.value.diagnostics] == ["M3"]

    def test_a_module_is_validated_once_across_builds(self, monkeypatch):
        # constant_module keeps its passing verdict, so no build walks it again
        walks = counted(monkeypatch, symq.dynamical, "validate_module")
        for orders in ([4], [0]):
            m = dihedral_kamada_module(rack("t2"), AbGroup(orders))
            sigma = Cochain.zero(2, 2, m.A)
            for theory in (THEORY_SR, THEORY_SQ, THEORY_SR, None):
                build_abelian_extension(m, sigma, theory)
            assert walks == []

    @pytest.mark.parametrize("orders", [[4], [0]])
    def test_a_module_built_directly_is_walked_at_its_first_build(self, monkeypatch, orders):
        X, A = rack("t2"), AbGroup(orders)
        ident, zero, neg = AbHom.identity(A), AbHom.zero(A, A), AbHom.scalar(A, -1)
        m = RackModule(X, A, [[ident] * 2] * 2, [[zero] * 2] * 2, [neg] * 2)
        walks = counted(monkeypatch, symq.dynamical, "validate_module")
        for theory in (THEORY_SR, THEORY_SQ, None):
            build_abelian_extension(m, Cochain.zero(2, 2, A), theory)
        assert walks == [(m,)]

    def test_a_loaded_module_keeps_its_verdict(self, monkeypatch):
        walks = counted(monkeypatch, symq.dynamical, "validate_module")
        m = module("m0_z4", rack("t2"))
        build_abelian_extension(m, Cochain.zero(2, 2, m.A), THEORY_SR)
        assert walks == []

    @pytest.mark.parametrize("orders", [[4], [0]])
    def test_a_failing_module_is_refused_on_every_build(self, monkeypatch, orders):
        # a constant module built directly, with phi = 2 id, which is not invertible
        X, A = rack("t2"), AbGroup(orders)
        phi, zero, neg = AbHom.scalar(A, 2), AbHom.zero(A, A), AbHom.scalar(A, -1)
        m = RackModule(X, A, [[phi] * 2] * 2, [[zero] * 2] * 2, [neg] * 2)
        assert m.constant
        want = [(d.axiom, d.witnesses) for d in validate_module(m).diagnostics]
        assert want[0] == ("phi-invertible", [(0, 0), (0, 1), (1, 0), (1, 1)])
        walks = counted(monkeypatch, symq.dynamical, "validate_module")
        for k in range(1, 4):
            with pytest.raises(ValidationError, match="coefficients are not a module") as e:
                build_abelian_extension(m, Cochain.zero(2, 2, A), THEORY_SR)
            assert [(d.axiom, d.witnesses) for d in e.value.diagnostics] == want
            assert walks == [(m,)] * k

    def test_shape_mismatch(self):
        X = rack("t2")
        m = module("m0_z4", X)
        wrong = Cochain(1, 2, m.A, [(0,), (0,)])
        with pytest.raises(ValueError):
            build_abelian_extension(m, wrong, THEORY_SR)

    def test_infinite_fiber_is_symbolic(self):
        ext = z_extension()
        assert ext.extension is None
        assert ext.rack is None
        with pytest.raises(InfiniteGroupUnsupported):
            ext.size

    def test_one_gluing_path(self, monkeypatch):
        # a finite fiber group is glued by from_cocycle, an infinite one never;
        # the theory is read back from the glued cocycle
        calls = []
        original = symq.wells.from_cocycle

        def counting(m, sigma, theory=None):
            calls.append(theory)
            return original(m, sigma, theory)

        monkeypatch.setattr(symq.wells, "from_cocycle", counting)
        assert z4_extension().theory == THEORY_SR
        assert calls == [THEORY_SR]
        assert z_extension().theory == THEORY_SR
        assert calls == [THEORY_SR]
        m = module("m0_z4", rack("t2"))
        ext = build_abelian_extension(m, Cochain.zero(2, 2, m.A))
        assert calls == [THEORY_SR, None]
        assert ext.theory == THEORY_SQ and ext.rack.kind == "quandle"

    @pytest.mark.parametrize("orders", [(4,), (2, 2)], ids=["Z4", "Z2xZ2"])
    @pytest.mark.parametrize("field,message", [
        ("table", "extension table disagrees with the affine formula"),
        ("rho", "extension involution disagrees with the affine formula"),
    ])
    def test_a_corrupted_glued_table_is_refused(self, monkeypatch, orders, field, message):
        # two entries of one column (or of rho) swapped: still a valid shape,
        # so only the affine-formula check can see it
        X = takasaki(3)
        m = dihedral_kamada_module(X, AbGroup(orders))
        sigma = Cochain.zero(2, X.size, m.A)
        glue = symq.wells.build_extension

        def swapped(dc):
            ext = glue(dc)
            table, rho = [list(row) for row in ext.rack.rack.table], list(ext.rack.rho)
            if field == "table":
                table[0][1], table[1][1] = table[1][1], table[0][1]
            else:
                rho[0], rho[1] = rho[1], rho[0]
            rack = FiniteSymmetricRack(FiniteRack(table, ext.rack.kind), rho)
            return DynamicalExtension(rack, ext.cocycle, ext.labels)

        assert build_abelian_extension(m, sigma, THEORY_SR).size == 3 * m.A.order()
        monkeypatch.setattr(symq.wells, "build_extension", swapped)
        with pytest.raises(AssertionError, match=message):
            build_abelian_extension(m, sigma, THEORY_SR)


# every entry point that reads the glued table of E
TABLE_READERS = {
    "size": lambda ext: ext.size,
    "index_of": lambda ext: ext.index_of(0, (0,)),
    "pair_of": lambda ext: ext.pair_of(0),
    "lift_call": lambda ext: extend_pair(ext, AutPair.identity(ext.module))(0),
    "enumerate_autA_extension": enumerate_autA_extension,
    "_lift_group": lambda ext: symq.wells._lift_group(ext, [AutPair.identity(ext.module)], []),
    "gamma_restriction": lambda ext: gamma_restriction(ext, (0, 1)),
    "brute_force_fiber_automorphisms": brute_force_fiber_automorphisms,
}


@pytest.mark.parametrize("read", TABLE_READERS.values(), ids=TABLE_READERS)
def test_table_readers_refuse_an_infinite_fiber_group(read):
    with pytest.raises(InfiniteGroupUnsupported):
        read(z_extension())


class TestModuleAutomorphisms:
    def test_unit_groups(self):
        X = rack("t2")
        assert {p.theta.matrix for p in ()} == set()
        auts = module_automorphisms(module("m0_z4", X))
        assert sorted(h.matrix for h in auts) == [((1,),), ((3,),)]
        auts = module_automorphisms(dihedral_kamada_module(X, AbGroup([2])))
        assert [h.matrix for h in auts] == [((1,),)]
        auts = module_automorphisms(module("tw_z3", rack("takasaki3")))
        assert sorted(h.matrix for h in auts) == [((1,),), ((2,),)]

    def test_infinite_rank_one(self):
        auts = module_automorphisms(module("m0_z", rack("t2")))
        assert sorted(h.matrix for h in auts) == [((-1,),), ((1,),)]

    def test_gl2_f2(self):
        X = rack("t2")
        A = AbGroup([2, 2])
        m = dihedral_kamada_module(X, A)
        assert len(module_automorphisms(m)) == 6

    def test_aut_z2_x_z4(self):
        X = rack("t2")
        m = dihedral_kamada_module(X, AbGroup([2, 4]))
        assert len(module_automorphisms(m)) == 8

    def test_free_rank_two_unsupported(self):
        m = dihedral_kamada_module(rack("t2"), AbGroup([0, 0]))
        with pytest.raises(InfiniteGroupUnsupported):
            module_automorphisms(m)

    def test_candidate_bound(self):
        # the generator of Z4 has 4 candidate images; bound counts maps, not |A|
        m = dihedral_kamada_module(rack("t2"), AbGroup([4]))
        with pytest.raises(SearchSpaceExceeded, match="more than 3 candidate fiber maps"):
            module_automorphisms(m, bound=3)
        assert [h.matrix for h in module_automorphisms(m, bound=4)] == [((1,),), ((3,),)]

    @pytest.mark.parametrize("orders", [[1], [2, 4], [0], [0, 2], [3, 6], [2, 0, 4], [6, 4, 2]])
    def test_counted_before_listing(self, orders):
        # the count read off the orders is the number of tuples of generator
        # images a listing would give: d*t = 0 for order d, +-1 plus torsion if free
        A = AbGroup(orders)
        torsion = [A.reduce(t) for t in itertools.product(*[range(d) if d else (0,) for d in A.orders])]
        count = 1
        for d in A.orders:
            count *= 2 * len(torsion) if d == 0 else sum(A.scale(d, t) == A.zero() for t in torsion)
        m = dihedral_kamada_module(rack("t2"), A)
        with pytest.raises(SearchSpaceExceeded):
            module_automorphisms(m, bound=count - 1)
        assert module_automorphisms(m, bound=count)

    def test_a_large_fiber_is_refused_before_listing(self):
        # 10^9 candidate images for the generator of Z_(10^9): refused from
        # the count, with none of its elements listed
        m = dihedral_kamada_module(rack("t2"), AbGroup([10 ** 9]))
        t0 = time.perf_counter()
        with pytest.raises(SearchSpaceExceeded, match="candidate fiber maps"):
            module_automorphisms(m)
        assert time.perf_counter() - t0 < 0.5

    def test_non_constant_rejected(self):
        with pytest.raises(NotConstantModule):
            module_automorphisms(nonconstant_module())


def compose_inverse_problems(m, th):
    """_theta_problems by the general route: AbHom.inverse and composed maps."""
    problems = [] if th.inverse() is not None else ["invertible"]
    maps = (("phi", m.phi[0][0]), ("psi", m.psi[0][0]), ("eta", m.eta[0]))
    return problems + [name for name, h in maps if th.compose(h) != h.compose(th)]


def endomorphisms(A):
    """Every endomorphism of a finite A, by the images of its generators."""
    cols = [[v for v in A.elements() if not any(A.scale(d, v))] for d in A.orders]
    return [AbHom(A, A, list(zip(*images))) for images in itertools.product(*cols)]


def constant_modules(A, maps, rng, count=6):
    """The dihedral module and constant modules with phi, psi, eta drawn from maps."""
    X = rack("t2")
    out = [dihedral_kamada_module(X, A)]
    for _ in range(count):
        phi, psi, eta = (rng.choice(maps) for _ in range(3))
        out.append(RackModule(X, A, [[phi] * 2] * 2, [[psi] * 2] * 2, [eta] * 2))
    return out


class TestFiberSymmetryVerdicts:
    """Element images decide fiber symmetries exactly as inverse and compose do."""

    @pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [4, 2]], ids=str)
    def test_every_endomorphism_of_a_finite_group(self, orders):
        A = AbGroup(orders)
        ends = endomorphisms(A)
        assert len(ends) == len(set(ends))
        verdicts = set()
        for m in constant_modules(A, ends, random.Random(str(orders))):
            for th in ends:
                problems = symq.wells._theta_problems(m, th)
                assert problems == compose_inverse_problems(m, th)
                verdicts.add(tuple(problems))
        assert () in verdicts and ("invertible",) in verdicts

    @pytest.mark.parametrize("orders", [[0], [0, 2]], ids=str)
    def test_samples_over_z(self, orders):
        A = AbGroup(orders)
        rng = random.Random(str(orders))

        def sample():
            # column j of a Z2 summand may not reach the free summand
            return AbHom(A, A, [[rng.randint(-2, 2) if di or not dj else 0 for dj in orders]
                                for di in orders])

        maps = [AbHom.identity(A), AbHom.scalar(A, -1)] + [sample() for _ in range(20)]
        for m in constant_modules(A, maps, rng):
            for th in maps:
                assert symq.wells._theta_problems(m, th) == compose_inverse_problems(m, th)

    def test_a_large_finite_group_is_not_enumerated(self, monkeypatch):
        # past the arithmetic tables invertibility is read off inverse(), so
        # Z_(2^40) x Z_(2^40) is decided without listing its elements
        A, N = AbGroup([2 ** 40, 2 ** 40]), 2 ** 40

        def refuse(self):
            raise AssertionError("a large group was enumerated")

        monkeypatch.setattr(AbGroup, "elements", refuse)
        maps = [AbHom(A, A, mat) for mat in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[3, 0], [0, 1]],
                                             [[2, 0], [0, 1]], [[1, 1], [0, 1]], [[N - 1, 0], [0, 1]])]
        X, ident, swap = rack("t2"), maps[0], maps[1]
        m = RackModule(X, A, [[swap] * 2] * 2, [[ident.sub(swap)] * 2] * 2, [ident] * 2)
        verdicts = set()
        for th in maps:
            problems = symq.wells._theta_problems(m, th)
            assert problems == compose_inverse_problems(m, th)
            diags = validate_aut_pair(m, AutPair((0, 1), th))
            assert [(d.axiom, d.witnesses) for d in diags] == (
                [("theta-symmetry", problems)] if problems else [])
            verdicts.add(tuple(problems))
        assert {(), ("invertible", "phi", "psi"), ("phi", "psi")} <= verdicts

    def test_a_map_between_other_groups_has_the_wrong_shape(self):
        m = dihedral_kamada_module(rack("t2"), AbGroup([4]))
        assert symq.wells._theta_problems(m, AbHom.identity(AbGroup([2]))) == ["shape"]


class TestPairs:
    def test_enumeration_is_zeta_major(self):
        ext = z4_extension()
        pairs = enumerate_aut_pairs(ext)
        assert len(pairs) == 4
        assert [p.zeta for p in pairs] == [(0, 1), (0, 1), (1, 0), (1, 0)]

    def test_validate_rejects_bad_zeta(self):
        ext = z_extension()
        # the swap is fine; a non-rho-commuting word on T4 is not
        X4 = rack("t4")
        m4 = dihedral_kamada_module(X4, AbGroup([2]))
        bad = AutPair((1, 2, 3, 0), AbHom.identity(m4.A))
        assert any(d.axiom == "zeta-symmetry" for d in validate_aut_pair(m4, bad))

    def test_validate_rejects_bad_theta(self):
        m = module("tw_z3", rack("takasaki3"))
        # theta = 0 is not invertible
        bad = AutPair((0, 1, 2), AbHom.zero(m.A, m.A))
        assert any(d.axiom == "theta-symmetry" for d in validate_aut_pair(m, bad))

    def test_a_bad_theta_is_refused_the_same_way_every_time(self):
        # phi swaps the two Z2 summands and psi = 1 - phi, so a shear
        # commutes with neither
        X, A = rack("t2"), AbGroup([2, 2])
        swap, ident = AbHom(A, A, [[0, 1], [1, 0]]), AbHom.identity(A)
        m = RackModule(X, A, [[swap] * 2] * 2, [[ident.sub(swap)] * 2] * 2, [ident] * 2)
        ext = build_abelian_extension(m, Cochain.zero(2, 2, A))
        cases = {((1, 1), (0, 1)): ["phi", "psi"], ((0, 0), (0, 0)): ["invertible"],
                 ((1, 0), (0, 0)): ["invertible", "phi", "psi"]}
        for matrix, problems in cases.items():
            bad = AutPair((1, 0), AbHom(A, A, matrix))
            want = [("theta-symmetry", problems)]
            for _ in range(3):
                assert [(d.axiom, d.witnesses) for d in validate_aut_pair(m, bad)] == want
                with pytest.raises(ValidationError, match="not a symmetry pair") as exc:
                    extend_pair(ext, bad)
                assert [(d.axiom, d.witnesses) for d in exc.value.diagnostics] == want

    @pytest.mark.parametrize("name", ["t2/Z4/sr", "takasaki3/Z2xZ2/sq"])
    def test_each_fiber_map_is_checked_once_per_module(self, monkeypatch, name):
        # every candidate map of the fiber-symmetry scan (here every map
        # A -> A), the theta of every pair among them, is evaluated once
        # however many extensions of the module, reports, enumerations and
        # lifts ask about it
        evaluated = []
        original = symq.wells._theta_problems

        def counting(m, th):
            evaluated.append(th)
            return original(m, th)

        monkeypatch.setattr(symq.wells, "_theta_problems", counting)
        ext = gamma_extension(name)
        m = ext.module
        for e in (ext, build_abelian_extension(m, Cochain.zero(2, m.base.size, m.A), ext.theory)):
            pairs = wells_report(e).pairs
            enumerate_autA_extension(e)
            for p in pairs:
                extend_pair(e, p)
        assert len(evaluated) == len(set(evaluated)) == m.A.order() ** m.A.rank
        assert {p.theta for p in pairs} <= set(evaluated)

    def test_each_pair_is_validated_once_per_extension(self, monkeypatch):
        ext = z4_extension()
        calls = {"validate_aut_pair": [], "act_on_cocycle": [], "is_cocycle": []}

        def counting(name):
            original = getattr(symq.wells, name)

            def wrapped(m, *args, **kw):
                calls[name].append(args[0])
                return original(m, *args, **kw)

            monkeypatch.setattr(symq.wells, name, wrapped)

        for name in calls:
            counting(name)
        rep = wells_report(ext)
        enumerate_autA_extension(ext)
        for p in rep.pairs:
            extend_pair(ext, p)
        # one validation, one action and one cocycle check per pair: the
        # three obstruction routes and every lift read the same checked g . sigma
        assert calls["validate_aut_pair"] == calls["act_on_cocycle"] == rep.pairs
        assert len(calls["is_cocycle"]) == len(rep.pairs)
        # a bad pair is refused every time it is asked about
        bad = AutPair((0, 1), AbHom.zero(ext.module.A, ext.module.A))
        for k in range(1, 3):
            with pytest.raises(ValidationError):
                extend_pair(ext, bad)
            assert calls["validate_aut_pair"][-k:] == [bad] * k
        assert len(calls["act_on_cocycle"]) == len(rep.pairs)

    def test_compose_and_inverse(self):
        ext = z4_extension()
        pairs = enumerate_aut_pairs(ext)
        table = set(pairs)
        for p in pairs:
            assert reference_pair_inverse(p) in table
            assert p.compose(reference_pair_inverse(p)) == AutPair.identity(ext.module)
            for q in pairs:
                assert p.compose(q) in table


class TestActionAndLambda:
    def test_acted_cocycles_stay_cocycles(self):
        ext = z4_extension()
        from symq.cohomology import is_cocycle

        for p in enumerate_aut_pairs(ext):
            out = act_on_cocycle(ext.module, p, ext.sigma)
            ok, diags = is_cocycle(ext.module, out, THEORY_SR)
            assert ok, diags

    def test_a_sigma_of_another_shape_is_refused(self):
        # both read sigma's values by position, so a table of the same length
        # on other points or in another degree must not get through
        ext = z4_extension()
        m, n = ext.module, ext.module.base.size
        for bad in (Cochain.zero(3, n, m.A), Cochain.zero(1, n * n, m.A),
                    Cochain.zero(2, n + 1, m.A), Cochain.zero(2, n, AbGroup([2]))):
            with pytest.raises(ValueError, match="sigma must be a 2-cochain"):
                act_on_cocycle(m, AutPair.identity(m), bad)
            with pytest.raises(ValueError, match="sigma must be a 2-cochain"):
                affine_tables(m, bad)

    def test_lambda_values(self):
        ext = z4_extension()
        got = {}
        for p in enumerate_aut_pairs(ext):
            got[(p.zeta, p.theta.matrix)] = lambda_map(ext, p)
        assert got == {
            ((0, 1), ((1,),)): (0,),
            ((0, 1), ((3,),)): (2,),
            ((1, 0), ((1,),)): (0,),
            ((1, 0), ((3,),)): (2,),
        }

    def test_lambda_matches_projection_difference(self):
        ext = z4_extension()
        pres = cohomology_presentation(ext.module, 2, THEORY_SR)
        for p in enumerate_aut_pairs(ext):
            acted = act_on_cocycle(ext.module, p, ext.sigma)
            diff = pres.group.sub(pres.project(ext.sigma), pres.project(acted))
            assert lambda_map(ext, p) == diff

    def test_lambda_over_z(self):
        ext = z_extension()
        minus = AutPair((0, 1), AbHom.scalar(ext.module.A, -1))
        assert lambda_map(ext, minus) == (2,)
        ident = AutPair.identity(ext.module)
        assert lambda_map(ext, ident) == (0,)

    def test_stabilizer_is_the_kernel_of_lambda(self):
        ext = z4_extension()
        stab = stabilizer(ext)
        keys = {(p.zeta, p.theta.matrix) for p in stab}
        assert keys == {((0, 1), ((1,),)), ((1, 0), ((1,),))}
        for p in stab:
            zero = tuple([0] * len(lambda_map(ext, p)))
            assert lambda_map(ext, p) == zero


class TestLifting:
    def test_obstructed_pair_has_no_lift(self):
        ext = z4_extension()
        bad = AutPair((0, 1), AbHom.scalar(ext.module.A, 3))
        assert extend_pair(ext, bad) is None

    def test_unobstructed_pairs_lift_and_verify(self):
        ext = z4_extension()
        for p in stabilizer(ext):
            lift = extend_pair(ext, p)
            assert lift is not None
            assert lift.pair == p
            # construction already verified the permutation is an automorphism
            assert sorted(lift.perm) == list(range(8))

    def test_lifting_builds_no_presentation(self, monkeypatch):
        # the degree-2 presentation is built on first read, and lifting a
        # pair whose obstruction vanishes never reads it
        monkeypatch.setattr(symq.cohomology, "cohomology_presentation", None)
        ext = z4_extension()
        lift = extend_pair(ext, AutPair.identity(ext.module))
        assert lift is not None
        assert sorted(lift.perm) == list(range(8))

    def test_headline_report_builds_each_row_set_once(self, cohomology_builds):
        X = rack("takasaki3")
        m = dihedral_kamada_module(X, AbGroup([4]))
        wells_report(build_abelian_extension(m, Cochain.zero(2, X.size, m.A), THEORY_SR))
        rows = [c for c in cohomology_builds if c[0].endswith("_rows")]
        assert sorted(rows) == [("_delta_rows", 1), ("_delta_rows", 2),
                                ("_membership_rows", 1, "sr"), ("_membership_rows", 2, "sr")]

    def test_second_lift_makes_no_factorization(self, snf_calls):
        ext = z4_extension()
        pair = AutPair((1, 0), AbHom.identity(ext.module.A))
        first = extend_pair(ext, pair)
        built = len(snf_calls)
        assert extend_pair(ext, pair) == first
        assert len(snf_calls) == built

    def test_lift_diagnostics_follow_the_product_formula(self):
        # every lift candidate is judged at every (x, y), against the affine
        # product recomputed here term by term
        rng = random.Random(5)
        X4 = rack("takasaki4")
        m4 = dihedral_kamada_module(X4, AbGroup([4]))
        pres = cohomology_presentation(m4, 2, THEORY_SQ)
        shift = module("m0_z", rack("core_z4_shift"))
        nu = Cochain.zero(1, 4, shift.A)
        for g in cochain_space(shift, 1, THEORY_SR).gens:
            nu = nu.add(Cochain(1, 4, shift.A, [(rng.randint(-3, 3) * v[0],) for v in g.values]))
        exts = [z4_extension(), z_extension(),
                build_abelian_extension(m4, pres.section(pres.group.elements()[-1]), THEORY_SQ),
                build_abelian_extension(shift, delta(shift, nu), THEORY_SR)]
        for ext in exts:
            m, sigma = ext.module, ext.sigma
            X, A = m.base, m.A
            phi, psi, eta = m.phi[0][0], m.psi[0][0], m.eta[0]
            for pair in enumerate_aut_pairs(ext):
                lams = [Cochain(1, X.size, A, [(rng.randrange(4),) for _ in range(X.size)])
                        for _ in range(4)]
                lift = extend_pair(ext, pair)
                if lift is not None:
                    lams += [lift.lam, lift.lam.add(Cochain(1, X.size, A, [(1,)] * X.size))]
                for lam in lams:
                    lv = lam.value
                    twisted = [x for x in range(X.size) if lv(X.rho[x]) != eta(lv(x))]
                    unlifted = [
                        (x, y) for x in range(X.size) for y in range(X.size)
                        if A.add(lv(X.op(x, y)), pair.theta(sigma.value(x, y)))
                        != A.add(A.add(phi(lv(x)), psi(lv(y))),
                                 sigma.value(pair.zeta[x], pair.zeta[y]))]
                    want = ([("eta-twist", twisted)] if twisted
                            else [("lift", unlifted)] if unlifted else [])
                    try:
                        LiftedAutomorphism(ext, pair, lam)
                        got = []
                    except ValidationError as e:
                        got = [(d.axiom, d.witnesses) for d in e.diagnostics]
                    assert got == want

    @pytest.mark.parametrize("name", [
        "t2/Z4/sr", "takasaki3/Z4/sr", "takasaki3/Z2/sq", "takasaki3/Z2xZ2/sq", "t2/Z/sr"])
    def test_a_refused_lift_is_refused_by_the_formula(self, monkeypatch, name):
        # a lift is decided on the glued table; only a refusal, or a fiber
        # group with no table, walks the product formula, and the
        # construction raises exactly what the formula walk raises
        ext = z_extension() if name == "t2/Z/sr" else gamma_extension(name)
        walks = []
        check = symq.wells._check_lift
        monkeypatch.setattr(symq.wells, "_check_lift", lambda *args: walks.append(args) or check(*args))
        if ext.extension is None:
            lifts = [xi for xi in (extend_pair(ext, p) for p in enumerate_aut_pairs(ext)) if xi]
        else:
            lifts = enumerate_autA_extension(ext)
        refused = 0
        for pair, lam in corrupted_lifts(ext, lifts, 20261019):
            want = lift_outcome(check, ext, pair, lam)
            walks.clear()
            assert lift_outcome(LiftedAutomorphism, ext, pair, lam) == want
            assert len(walks) == (want is not None or ext.extension is None)
            refused += want is not None
        assert refused > len(lifts)

    @pytest.mark.parametrize("name", [
        "t2/Z4/sr", "takasaki3/Z4/sr", "takasaki3/Z2/sq", "takasaki3/Z2xZ2/sq"])
    def test_a_corrupted_shifted_lift_is_refused(self, name):
        # lam0 + z is accepted when it equals perm_id(z o zeta^-1) o perm(lam0);
        # lam0 + z + e at one point, for each nonzero e, must still be refused
        # exactly as the constructor alone refuses it, and a composition that
        # does not match (here a wrong z-lift) falls through to the full decision
        ext = gamma_extension(name)
        A, n = ext.module.A, ext.module.base.size
        ident, zs = AutPair.identity(ext.module), z1_elements(ext)
        zlift = {z.values: LiftedAutomorphism(ext, ident, z) for z in zs}
        shifts = [a for a in A.elements() if a != A.zero()]
        shifted = refused = 0
        for pair in enumerate_aut_pairs(ext):
            base = extend_pair(ext, pair)
            if base is None or pair == ident:
                continue
            inv = _invert_word(pair.zeta)
            for z, wrong in zip(zs, zs[1:] + zs[:1]):
                f = zlift[tuple(z.values[y] for y in inv)]
                lam = base.lam.add(z)
                perm = LiftedAutomorphism(ext, pair, lam, composed_of=(f, base)).perm
                assert perm == tuple(f.perm[v] for v in base.perm)
                other = zlift[tuple(wrong.values[y] for y in inv)]
                assert LiftedAutomorphism(ext, pair, lam, composed_of=(other, base)).perm == perm
                for x, e in itertools.product(range(n), shifts):
                    vals = list(lam.values)
                    vals[x] = A.add(vals[x], e)
                    bad = Cochain(1, n, A, vals)
                    want = lift_outcome(LiftedAutomorphism, ext, pair, bad)
                    composed = lift_outcome(
                        lambda *args: LiftedAutomorphism(*args, composed_of=(f, base)), ext, pair, bad)
                    assert composed == want
                    refused += want is not None
                shifted += 1
        assert shifted and refused >= shifted

    @pytest.mark.parametrize("name", ["t2/Z4/sr", "takasaki3/Z4/sr", "takasaki3/Z2xZ2/sq"])
    def test_a_non_cocycle_in_the_z_list_is_refused(self, name):
        # a 1-cochain that is not an eta-compatible 1-cocycle, put among the
        # z: building the lift group raises what the constructor raises on it
        ext = gamma_extension(name)
        A, n = ext.module.A, ext.module.base.size
        pairs, zs = enumerate_aut_pairs(ext), z1_elements(ext)
        ident = AutPair.identity(ext.module)
        for k, (z, e) in enumerate(itertools.product(zs, A.elements())):
            vals = list(z.values)
            vals[k % n] = A.add(vals[k % n], e)
            c = Cochain(1, n, A, vals)
            if c in zs:
                continue
            want = lift_outcome(LiftedAutomorphism, ext, ident, c)
            assert want is not None
            for bad in (zs[:k % len(zs)] + [c] + zs[k % len(zs):], [c] + zs[1:]):
                got = lift_outcome(lambda ext, pair, lam: symq.wells._lift_group(ext, pairs, bad),
                                   ext, ident, c)
                assert got == want

    def test_a_lift_only_the_table_refuses_raises_assertion(self, monkeypatch):
        # two entries of one column of E's table swapped after the build:
        # every lift still solves the lift equation, and each lift that does
        # not preserve the corrupted table is refused by the table check
        ext = gamma_extension("takasaki3/Z4/sr")
        lifts = enumerate_autA_extension(ext)
        table = [list(row) for row in ext.rack.rack.table]
        table[0][1], table[1][1] = table[1][1], table[0][1]
        monkeypatch.setattr(ext, "rack", FiniteSymmetricRack(FiniteRack(table, ext.rack.kind),
                                                              ext.rack.rho))
        refused = 0
        for xi in lifts:
            p = xi.perm
            if all(p[t] == table[p[i]][p[j]] for i, row in enumerate(table) for j, t in enumerate(row)):
                assert LiftedAutomorphism(ext, xi.pair, xi.lam).perm == p
                continue
            assert symq.wells._check_lift(ext, xi.pair, xi.lam) is None
            with pytest.raises(AssertionError, match="lift is not a symmetry of the extension"):
                LiftedAutomorphism(ext, xi.pair, xi.lam)
            refused += 1
        assert 0 < refused < len(lifts)

    def test_lift_over_z_is_symbolic(self):
        ext = z_extension()
        lift = extend_pair(ext, AutPair.identity(ext.module))
        assert lift is not None
        assert lift.perm is None
        assert extend_pair(ext, AutPair((0, 1), AbHom.scalar(ext.module.A, -1))) is None

    def test_apply_and_compose(self):
        # f after g is the lift of the composed pair with lam o zeta' + theta . lam',
        # and its permutation is the composition of the two, point by point
        ext = z4_extension()
        A = ext.module.A
        lifts = enumerate_autA_extension(ext)
        for f in lifts:
            for g in lifts:
                fg = f.compose(g)
                assert fg.perm == _compose_words(f.perm, g.perm)
                assert fg.pair == f.pair.compose(g.pair)
                assert fg.lam.values == tuple(A.add(f.lam.value(g.pair.zeta[x]), f.pair.theta(g.lam.value(x)))
                                              for x in range(2))
                for i in range(8):
                    assert ext.pair_of(fg(i)) == affine_image(f, *affine_image(g, *ext.pair_of(i)))

    def test_inverse(self):
        # the lift of the inverse pair, built and decided in full, inverts every lift
        ext = z4_extension()
        lifts = enumerate_autA_extension(ext)
        for f in lifts:
            finv = reference_lift_inverse(f)
            assert finv in lifts
            assert finv.perm == _invert_word(f.perm)
            for i in range(8):
                assert affine_image(finv, *affine_image(f, *ext.pair_of(i))) == ext.pair_of(i)


def affine_image(xi, x, a):
    """(zeta(x), lam(x) + theta(a)): a lift's affine formula at one point of E."""
    return xi.pair.zeta[x], xi.extension.module.A.add(xi.lam.value(x), xi.pair.theta(a))


def zero_extension(name, orders, theory):
    X = rack(name)
    m = dihedral_kamada_module(X, AbGroup(orders))
    return build_abelian_extension(m, Cochain.zero(2, X.size, m.A), theory)


def alexander_extension(X, n, maps, theory, k):
    """The extension of the scalar constant module (phi, psi, eta) over Zn at its k-th H^2 class."""
    m = constant_module(X, AbGroup([n]), *[[[h]] for h in maps])
    pres = cohomology_presentation(m, 2, theory)
    return build_abelian_extension(m, pres.section(pres.group.elements()[k]), theory)


# extensions whose lifts are held to an independent solve of each lift equation; on
# the two scalar modules the negated stabilizer witness is not canonical for some pairs
WITNESS_EXTENSIONS = {
    "t2/Z4/sr/fixture": z4_extension,
    "takasaki3/Z4/sr/zero": lambda: zero_extension("takasaki3", [4], THEORY_SR),
    "takasaki3/Z2/sq/zero": lambda: zero_extension("takasaki3", [2], THEORY_SQ),
    "takasaki3/Z2xZ2/sq/zero": lambda: zero_extension("takasaki3", [2, 2], THEORY_SQ),
    "takasaki3/Z4/sr/last": lambda: gamma_extension("takasaki3/Z4/sr"),
    "takasaki3/Z2xZ2/sq/last": lambda: gamma_extension("takasaki3/Z2xZ2/sq"),
    "t2/Z/sr/fixture": z_extension,
    "trivial2/Z8/sq/(7,2,1)": lambda: alexander_extension(trivial_rack(2), 8, (7, 2, 1), THEORY_SQ, 3),
    "takasaki3/Z9/sr/(8,2,1)": lambda: alexander_extension(takasaki(3), 9, (8, 2, 1), THEORY_SR, 1),
}


class TestOneSolvePerPair:
    """The stabilizer's witness serves the lift: one solve per pair and extension."""

    @pytest.mark.parametrize("route", ["after-stabilizer", "fresh-extension"])
    def test_lifts_match_an_independent_solve(self, route):
        lams = []
        for name, build in WITNESS_EXTENSIONS.items():
            ext = build()
            pairs = enumerate_aut_pairs(ext)
            if route == "after-stabilizer":
                stab = stabilizer(ext, pairs)
                got = [extend_pair(ext, p) for p in pairs]
                assert [p for p, xi in zip(pairs, got) if xi is not None] == stab, name
            else:  # one extend_pair per new extension, as `symq wells extend` makes
                got = []
                for p in pairs:
                    fresh = build()
                    got.append(extend_pair(fresh, p))
                    assert list(fresh._tau) == [p]
            got = [None if xi is None else xi.lam.values for xi in got]
            assert got == [reference_lift_lambda(ext, p) for p in pairs], name
            lams += got
        # the corpus has obstructed pairs, and lifts with lambda != 0
        assert None in lams
        assert any(lam and any(map(any, lam)) for lam in lams)

    def test_some_negated_witnesses_need_reduction(self):
        # -tau itself is not extend_pair's witness on some pairs, so the test
        # above tells the canonical reduction from a plain negation
        for name in ("trivial2/Z8/sq/(7,2,1)", "takasaki3/Z9/sr/(8,2,1)"):
            ext = WITNESS_EXTENSIONS[name]()
            lifts = [(p, extend_pair(ext, p)) for p in enumerate_aut_pairs(ext)]
            moved = [p for p, xi in lifts if xi is not None
                     and xi.lam.values != tuple(ext._tau[p].neg().values[z] for z in p.zeta)]
            assert len(moved) == {"trivial2": 6, "takasaki3": 12}[name.split("/")[0]]

    @pytest.mark.parametrize("name", ["t2/Z4/sr/fixture", "takasaki3/Z2xZ2/sq/last"])
    def test_the_report_solves_each_pair_once(self, monkeypatch, name):
        ext = WITNESS_EXTENSIONS[name]()
        witnesses = counted(monkeypatch, symq.wells, "_witness")
        solves = counted(monkeypatch, symq.cohomology, "solve")
        rep = wells_report(ext)
        assert len(witnesses) == len(solves) == len(rep.pairs)
        assert rep.exact
        enumerate_autA_extension(ext)
        for p in rep.pairs:
            extend_pair(ext, p)
        assert len(witnesses) == len(solves) == len(rep.pairs)


class TestEnumerationAndReport:
    def test_z1_size(self):
        ext = z4_extension()
        assert len(z1_elements(ext)) == 4

    @pytest.mark.parametrize("theory", [THEORY_SR, THEORY_SQ])
    @pytest.mark.parametrize("name, orders", [("t2", None), ("takasaki3", [4]), ("takasaki3", [2])])
    def test_z1_elements_match_the_degree1_presentation(self, name, orders, theory, monkeypatch):
        X = rack(name)
        m = module("m0_z4", X) if orders is None else dihedral_kamada_module(X, AbGroup(orders))
        ext = build_abelian_extension(m, Cochain.zero(2, X.size, m.A), theory)
        pres = cohomology_presentation(m, 1, theory)
        vecs = reference_subgroup_elements(AbGroup(m.A.orders * X.size),
                                           [_cochain_to_vec(c) for c in pres.cocycle_gens])
        # Z^1 is read off the extension's witness map, with no presentation
        monkeypatch.setattr(symq.cohomology, "cohomology_presentation", None)
        assert z1_elements(ext) == [_vec_to_cochain(1, X.size, m.A, v) for v in vecs]

    def test_aut_group_size(self):
        ext = z4_extension()
        lifts = enumerate_autA_extension(ext)
        assert len(lifts) == 8
        assert len({f.perm for f in lifts}) == 8

    def test_brute_force_agrees(self):
        ext = z4_extension()
        brute = set(brute_force_fiber_automorphisms(ext))
        assert brute == {f.perm for f in enumerate_autA_extension(ext)}

    def test_brute_force_bound(self):
        ext = z4_extension()
        with pytest.raises(SearchSpaceExceeded):
            brute_force_fiber_automorphisms(ext, bound=7)

    # fiber groups of order 1 make q = 1, where label x * q + s is just x
    @pytest.mark.parametrize("build, count", [
        (z4_extension, 8),
        (lambda: zero_extension("takasaki3", [], THEORY_SQ), 6),
        (lambda: zero_extension("takasaki3", [1], THEORY_SQ), 6),
        (lambda: zero_extension("takasaki3", [1, 1], THEORY_SQ), 6),
    ], ids=["t2/Z4/sr", "takasaki3/0/sq", "takasaki3/Z1/sq", "takasaki3/Z1xZ1/sq"])
    def test_gamma_restriction_round_trip(self, build, count):
        ext = build()
        lifts = enumerate_autA_extension(ext)
        assert len(lifts) == count
        for f in lifts:
            assert gamma_restriction(ext, f) == f.pair
            assert gamma_restriction(ext, f.perm) == f.pair
        assert affine_part(ext, brute_force_fiber_automorphisms(ext)) == {f.perm for f in lifts}

    def test_gamma_restriction_rejects_non_affine(self):
        ext = z4_extension()
        # swapping two points inside one fiber only is not affine
        perm = list(range(8))
        perm[0], perm[1] = perm[1], perm[0]
        with pytest.raises(ValidationError):
            gamma_restriction(ext, tuple(perm))

    def test_report_is_exact(self):
        ext = z4_extension()
        rep = wells_report(ext)
        assert (rep.z1_size, rep.kernel_size, rep.image_size, rep.aut_size) == (4, 4, 2, 8)
        assert rep.exact
        assert rep.exact_at_cocycles and rep.exact_at_symmetries and rep.exact_at_pairs

    def test_report_dict_shape(self):
        rep = wells_report(z4_extension())
        d = rep.as_dict()
        assert d["pairs"] == 4 and d["aut"] == 8
        assert len(d["classes"]) == 4
        assert d["exact"] == [True, True, True]

    def test_takasaki3_zero_cocycle_report(self):
        X = rack("takasaki3")
        m = dihedral_kamada_module(X, AbGroup([3]))
        ext = build_abelian_extension(m, Cochain.zero(2, 3, m.A), THEORY_SQ)
        rep = wells_report(ext)
        # sigma = 0: everything lifts, kernel is all of Z^1
        assert rep.image_size == len(rep.pairs) == 12
        assert rep.exact

    def test_t4_zero_cocycle_report_covers_the_whole_group(self):
        # |Aut| = 256: well above any sample size, checked on every element
        X = rack("t4")
        m = dihedral_kamada_module(X, AbGroup([4]))
        ext = build_abelian_extension(m, Cochain.zero(2, 4, m.A), THEORY_SQ)
        rep = wells_report(ext)
        orders = (len(rep.pairs), rep.z1_size, rep.kernel_size, rep.image_size, rep.aut_size)
        assert orders == (16, 16, 16, 16, 256)
        assert rep.exact_at_cocycles and rep.exact_at_symmetries and rep.exact_at_pairs

    def test_each_lift_is_verified_once(self, lift_constructions, monkeypatch):
        # each lift is decided exactly once: every z in Z^1 (a lift of the
        # identity pair, whose base lift is never built) and every other
        # unobstructed pair's base lift in full, on the glued table; every
        # other lift by equality with a composition of two of those
        decide = symq.wells.is_isomorphism
        for name in ("t2/Z4/sr", "takasaki3/Z4/sr", "takasaki3/Z2xZ2/sq"):
            ext, full = gamma_extension(name), []
            monkeypatch.setattr(symq.wells, "is_isomorphism", lambda f, ext=ext, full=full: (
                f.source is ext.rack and full.append(f.map)) or decide(f))
            lift_constructions.clear()
            rep = wells_report(ext)
            assert len(lift_constructions) == rep.aut_size + rep.image_size - 1
            assert len(full) == rep.image_size + rep.z1_size - 1
            assert rep.exact and rep.aut_size == rep.image_size * rep.z1_size > len(full)

    @pytest.mark.parametrize("run", [z1_elements, wells_report])
    def test_infinite_z1_is_refused_at_once(self, run):
        # Z^1 over Z is infinite: its size is read off the echelon pivots, so
        # the refusal comes before any 1-cocycle is listed
        ext = z_extension()
        t0 = time.perf_counter()
        with pytest.raises(SearchSpaceExceeded, match="too many 1-cocycles to enumerate"):
            run(ext)
        assert time.perf_counter() - t0 < 0.5

    def test_infinite_fiber_enumeration_unsupported(self):
        ext = z_extension()
        with pytest.raises(InfiniteGroupUnsupported):
            enumerate_autA_extension(ext)


def corrupted_lifts(ext, lifts, seed):
    """Each lift's (pair, lam), then lam with one entry moved by a seeded nonzero element."""
    rng = random.Random(seed)
    A, n = ext.module.A, ext.module.base.size
    shifts = ([a for a in A.elements() if a != A.zero()] if A.is_finite()
              else [(k,) for k in (-2, -1, 1, 2)])
    for xi in lifts:
        yield xi.pair, xi.lam
        for x in range(n):
            vals = list(xi.lam.values)
            vals[x] = A.add(vals[x], rng.choice(shifts))
            yield xi.pair, Cochain(1, n, A, vals)


def lift_outcome(build, ext, pair, lam):
    """None when build accepts the lift, else its exception with every diagnostic."""
    try:
        build(ext, pair, lam)
    except (ValidationError, ValueError, AssertionError) as exc:
        diags = [(d.axiom, d.witnesses, d.truncated) for d in getattr(exc, "diagnostics", [])]
        return type(exc).__name__, str(exc), diags
    return None


def formula_index(A, v):
    """Mixed-radix index of a canonical element, in A.elements() order."""
    idx = 0
    for x, d in zip(v, A.orders):
        idx = idx * d + x
    return idx


def formula_apply(h, v):
    return tuple(sum(a * b for a, b in zip(row, v)) % d for row, d in zip(h.matrix, h.target.orders))


def formula_add(A, *vs):
    return tuple(sum(xs) % d for *xs, d in zip(*vs, A.orders))


def formula_affine_tables(m, sigma):
    """affine_tables by the formula walk on element tuples, with no index table."""
    X, A, n = m.base, m.A, m.base.size
    E = list(itertools.product(*map(range, A.orders)))
    alpha = [[[[formula_index(A, formula_add(A, formula_apply(m.phi[x][y], u),
                                             formula_apply(m.psi[x][y], v), sigma.values[x * n + y]))
                for v in E] for u in E] for y in range(n)] for x in range(n)]
    beta = [[formula_index(A, formula_apply(m.eta[x], u)) for u in E] for x in range(n)]
    return (len(E),) * n, alpha, beta


def formula_table_verdict(m, sigma, dext):
    """The message _check_affine_table raises, by the formula walk over labels, or None."""
    X, A, n, rack = m.base, m.A, m.base.size, dext.rack
    E = list(itertools.product(*map(range, A.orders)))
    phi, psi, eta = m.phi[0][0], m.psi[0][0], m.eta[0]
    for i, (x, s) in enumerate(dext.labels):
        if rack.rho[i] != dext.index_of((X.rho[x], formula_index(A, formula_apply(eta, E[s])))):
            return "extension involution disagrees with the affine formula"
        for j, (y, t) in enumerate(dext.labels):
            fib = formula_add(A, formula_apply(phi, E[s]), formula_apply(psi, E[t]), sigma.values[x * n + y])
            if rack.op(i, j) != dext.index_of((X.op(x, y), formula_index(A, fib))):
                return "extension table disagrees with the affine formula"
    return None


def formula_lift_permutation(ext, pair, lam):
    A, dext = ext.module.A, ext.extension
    E = list(itertools.product(*map(range, A.orders)))
    return tuple(dext.index_of((pair.zeta[x], formula_index(
        A, formula_add(A, lam.values[x], formula_apply(pair.theta, E[s]))))) for x, s in dext.labels)


class TestCompiledFiberArithmetic:
    """Index-table arithmetic of the affine tables, their check and lift permutations,
    against the formula walk on element tuples; Z67 is above the table cap."""

    GROUPS = [("takasaki3", [2]), ("takasaki3", [3]), ("t2", [4]), ("takasaki3", [2, 2]),
              ("t2", [4, 2]), ("t2", [2, 2, 2]), ("t2", [67])]

    @pytest.mark.parametrize("name, orders", GROUPS, ids=str)
    def test_affine_tables(self, name, orders):
        X, A = rack(name), AbGroup(orders)
        rng = random.Random(str(orders))
        E = A.elements()
        maps = [AbHom(A, A, list(zip(*cols))) for cols in (
            [rng.choice([v for v in E if not any(A.scale(d, v))]) for d in orders]
            for _ in range(12))]
        modules = [dihedral_kamada_module(X, A), nonconstant_module()] + [RackModule(
            X, A, *[[[rng.choice(maps) for _ in range(X.size)] for _ in range(X.size)] for _ in "ab"],
            [rng.choice(maps) for _ in range(X.size)]) for _ in range(3)]
        for m in modules:
            sigma = Cochain(2, m.base.size, m.A, [rng.choice(m.A.elements())
                                                  for _ in range(m.base.size ** 2)])
            assert affine_tables(m, sigma) == formula_affine_tables(m, sigma)

    @pytest.mark.parametrize("name, orders", GROUPS, ids=str)
    def test_table_check_and_lift_permutations(self, name, orders):
        X, A = rack(name), AbGroup(orders)
        m = dihedral_kamada_module(X, A)
        pres = cohomology_presentation(m, 2, THEORY_SR)
        sigma = pres.section(pres.group.elements()[-1])
        ext = build_abelian_extension(m, sigma, THEORY_SR)
        dext, rng = ext.extension, random.Random(str(orders) + name)
        assert formula_table_verdict(m, sigma, dext) is None
        for trial in range(6):  # two entries of a column of the table, or of rho, swapped
            table, rho = [list(row) for row in dext.rack.rack.table], list(dext.rack.rho)
            i, j, k = (rng.randrange(ext.size) for _ in range(3))
            if trial % 2:
                rho[i], rho[j] = rho[j], rho[i]
            else:
                table[i][k], table[j][k] = table[j][k], table[i][k]
            bad = DynamicalExtension(FiniteSymmetricRack(FiniteRack(table, ext.rack.kind), rho),
                                     dext.cocycle, dext.labels)
            want = formula_table_verdict(m, sigma, bad)
            try:
                symq.wells._check_affine_table(m, sigma, bad)
                got = None
            except AssertionError as exc:
                got = str(exc)
            assert got == want and (want is None) == (i == j or bad.rack == dext.rack)
        E = A.elements()
        thetas = [AbHom.identity(A), AbHom.scalar(A, -1), AbHom.scalar(A, 2)]
        for zeta in itertools.permutations(range(X.size)):
            for theta in thetas:
                lam = Cochain(1, X.size, A, [rng.choice(E) for _ in range(X.size)])
                pair = AutPair(zeta, theta)
                assert symq.wells._lift_permutation(ext, pair, lam) == formula_lift_permutation(
                    ext, pair, lam)


class TestFourTermSequence:
    """0 -> Z^1 -> Aut_A(E) -> pairs -> H^2 against the table-only search."""

    @pytest.mark.parametrize("name", ["takasaki4", "core_z4"])
    def test_brute_force_reaches_sixteen_elements(self, name):
        X = rack(name)
        m = dihedral_kamada_module(X, AbGroup([4]))
        ext = build_abelian_extension(m, Cochain.zero(2, X.size, m.A), THEORY_SQ)
        brute = brute_force_fiber_automorphisms(ext)
        assert len(brute) == 128
        assert brute == sorted(brute)
        assert affine_part(ext, brute) == {xi.perm for xi in enumerate_autA_extension(ext)}

    def test_every_class_shares_one_complex(self, cohomology_builds):
        # all extensions of one module read one degree-2 presentation, one
        # degree-1 witness map and one copy of each row set
        X = rack("takasaki4")
        m = dihedral_kamada_module(X, AbGroup([4]))
        pres = build_abelian_extension(m, Cochain.zero(2, X.size, m.A), THEORY_SQ).presentation
        assert len(pres.group.elements()) == 4
        for cls in pres.group.elements():
            ext = build_abelian_extension(m, pres.section(cls), THEORY_SQ)
            assert ext.presentation is pres
            assert wells_report(ext).exact
        assert cohomology_builds.count(("cohomology_presentation", 2)) == 1
        assert cohomology_builds.count(("_witness_map", 1)) == 1
        assert sorted(set(cohomology_builds)) == sorted(cohomology_builds)

    def test_sweep_of_classes(self):
        # budget: 5 s for all 64 extensions
        t0 = time.perf_counter()
        checked = 0
        for ext in sweep_extensions():
            rep = wells_report(ext)
            assert rep.exact
            assert rep.aut_size == rep.z1_size * len(rep.stab)
            lifts = {xi.perm for xi in enumerate_autA_extension(ext)}
            assert affine_part(ext, brute_force_fiber_automorphisms(ext)) == lifts
            checked += 1
        assert checked == 64
        assert time.perf_counter() - t0 < 5

    def test_lifts_of_the_sweep_match_the_record(self):
        # every extend_pair lambda of the sweep, None where the pair is
        # obstructed, recorded when each witness was the least element of its
        # coset found by listing the coset
        lams = [None if xi is None else xi.lam.values
                for ext in sweep_extensions()
                for xi in (extend_pair(ext, pair) for pair in enumerate_aut_pairs(ext))]
        digest = hashlib.sha256(repr(lams).encode()).hexdigest()[:16]
        assert (len(lams), lams.count(None), digest) == (312, 74, "a22b50f3fc099cdf")


def sweep_extensions():
    """The 64 extensions of the sweep: every H^2 class of 17 module-theory pairs, two of core_z4's."""
    cases = [(X, orders, theory, None)
             for X in (rack("t2"), trivial_rack(2))
             for orders in ([2], [3], [4])
             for theory in (THEORY_SQ, THEORY_SR)]
    cases += [(rack("takasaki3"), orders, THEORY_SQ, None) for orders in ([2], [3], [4])]
    cases += [(rack("takasaki4"), orders, THEORY_SQ, None) for orders in ([3], [4])]
    cases.append((rack("core_z4"), [4], THEORY_SQ, 2))
    for X, orders, theory, limit in cases:
        m = dihedral_kamada_module(X, AbGroup(orders))
        pres = cohomology_presentation(m, 2, theory)
        for cls in pres.group.elements()[:limit]:
            yield build_abelian_extension(m, pres.section(cls), theory)


def gamma_extension(name):
    """The extensions of the gamma_restriction pin and the lift corpus, each at its last H^2 class."""
    if name == "t2/Z4/sr":
        return z4_extension()
    X, orders, theory = {
        "t2/Z3/sq": (rack("t2"), [3], THEORY_SQ),
        "takasaki3/Z4/sr": (rack("takasaki3"), [4], THEORY_SR),
        "takasaki3/Z2/sq": (rack("takasaki3"), [2], THEORY_SQ),
        "takasaki3/Z2xZ2/sq": (rack("takasaki3"), [2, 2], THEORY_SQ),
    }[name]
    m = dihedral_kamada_module(X, AbGroup(orders))
    pres = cohomology_presentation(m, 2, theory)
    return build_abelian_extension(m, pres.section(pres.group.elements()[-1]), theory)


def gamma_corpus(ext, seed):
    """Brute-force maps, then seeded fiber-preserving and arbitrary permutations.

    The fiber-preserving ones are random (zeta, fiberwise permutation) maps and
    brute-force maps with two images swapped inside one fiber.
    """
    rng = random.Random(seed)
    brute = brute_force_fiber_automorphisms(ext)
    index_of, labels = ext.extension.index_of, ext.extension.labels
    n, k, size = ext.module.base.size, len(ext.module.A.elements()), ext.rack.size
    perms = list(brute)
    for _ in range(200):
        zeta = rng.sample(range(n), n)
        moves = [rng.sample(range(k), k) for _ in range(n)]
        perms.append(tuple(index_of((zeta[x], moves[x][s])) for x, s in labels))
    for _ in range(150):
        perm = list(rng.choice(brute))
        x = rng.randrange(n)
        s, t = rng.sample(range(k), 2)
        i, j = index_of((x, s)), index_of((x, t))
        perm[i], perm[j] = perm[j], perm[i]
        perms.append(tuple(perm))
    perms += [tuple(rng.sample(range(size), size)) for _ in range(50)]
    return perms


def gamma_outcome(ext, perm):
    """The pair gamma_restriction returns, or its exception with every diagnostic."""
    try:
        pair = gamma_restriction(ext, perm)
    except (ValidationError, ValueError) as exc:
        diags = [(d.axiom, d.witnesses, d.truncated) for d in getattr(exc, "diagnostics", [])]
        return type(exc).__name__, str(exc), diags
    return pair.zeta, pair.theta.matrix


class TestGammaRestrictionPin:
    """Verdicts and witnesses of gamma_restriction, recorded from an earlier
    implementation that applied theta once per point of E."""

    @pytest.mark.parametrize("name,count,digest", [
        ("t2/Z4/sr", 408, "b7c92b26b8bbb543"),
        ("t2/Z3/sq", 412, "56e0607cdaedba84"),
        ("takasaki3/Z4/sr", 424, "67f2b1f481b493a0"),
        ("takasaki3/Z2xZ2/sq", 544, "e3b4829fa317f54c"),
        ("takasaki3/Z2/sq", 412, "7ffc5cd954b0e310"),
    ])
    def test_verdicts_match_the_record(self, name, count, digest):
        ext = gamma_extension(name)
        outcomes = [gamma_outcome(ext, perm) for perm in gamma_corpus(ext, 20261018)]
        assert (len(outcomes), hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16]) \
            == (count, digest)
