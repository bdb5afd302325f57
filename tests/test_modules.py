"""Module axioms M1-M9 over symmetric racks, constant-module helpers."""

import pytest

import symq.modules
from symq.abelian import AbGroup, AbHom
from symq.errors import MAX_WITNESSES, Diagnostic, ValidationError
from symq.modules import (
    RackModule,
    constant_module,
    dihedral_kamada_module,
    validate_module,
)
from symq.racks import (
    QUANDLE,
    takasaki,
    trivial_rack,
    validate_good_involution,
    validate_rack,
)

from conftest import rack


def shift_rack_2():
    # the 2-element cyclic shift x*y = x+1: a rack that is not a quandle
    r = validate_rack([[1, 1], [0, 0]])
    return validate_good_involution(r, (0, 1))


def manual_constant(base, A, phi_k, psi_k, eta_k):
    n = base.size
    phi = AbHom.scalar(A, phi_k)
    psi = AbHom.scalar(A, psi_k)
    eta = AbHom.scalar(A, eta_k)
    return RackModule(base, A, [[phi] * n] * n, [[psi] * n] * n, [eta] * n)


class TestDihedralKamada:
    @pytest.mark.parametrize("orders", [[0], [2], [4], [2, 4]])
    def test_valid_on_all_fixture_racks(self, orders):
        A = AbGroup(orders)
        for name in ("t2", "t4", "takasaki3", "core_z4", "core_z4_shift", "conj_s3"):
            m = dihedral_kamada_module(rack(name), A)
            assert m.constant
            assert validate_module(m).ok

    def test_structure_maps(self):
        m = dihedral_kamada_module(takasaki(3), AbGroup([4]))
        assert m.phi[0][0]((1,)) == (1,)
        assert m.psi[0][0]((1,)) == (0,)
        assert m.eta[0]((1,)) == (3,)


class TestTwistedConstantModules:
    # triples (orders, phi, psi, eta) valid on any symmetric rack
    CASES = [
        ([3], 2, 2, 1),
        ([4], 3, 2, 1),
        ([4], 3, 2, 3),
        ([5], 4, 2, 1),
    ]

    @pytest.mark.parametrize("orders,phi,psi,eta", CASES)
    def test_valid_everywhere(self, orders, phi, psi, eta):
        A = AbGroup(orders)
        for base in (rack("t2"), takasaki(3), rack("conj_s3"), shift_rack_2()):
            m = manual_constant(base, A, phi, psi, eta)
            assert validate_module(m).ok

    def test_z3_twist_psi_differs_from_its_negative(self):
        # the sign of psi is observable here, unlike psi = 2 over Z4
        A = AbGroup([3])
        psi = AbHom.scalar(A, 2)
        assert psi != psi.neg()
        A4 = AbGroup([4])
        psi4 = AbHom.scalar(A4, 2)
        assert psi4 == psi4.neg()


class TestDiagnostics:
    def test_phi_squared_must_be_identity(self):
        # phi = 2 over Z5 on a non-quandle base: the only broken axiom is M6
        m = manual_constant(shift_rack_2(), AbGroup([5]), 2, 0, 4)
        check = validate_module(m)
        assert not check.ok
        assert [d.axiom for d in check.diagnostics] == ["M6"]

    def test_quandle_adds_m9(self):
        m = manual_constant(rack("t2"), AbGroup([5]), 2, 0, 4)
        check = validate_module(m)
        assert {d.axiom for d in check.diagnostics} == {"M6", "M9"}

    def test_constant_modules_still_fully_checked(self):
        # psi = id breaks M7 even though the module is constant
        m = manual_constant(rack("t2"), AbGroup([3]), 1, 1, 2)
        check = validate_module(m)
        assert any(d.axiom == "M7" for d in check.diagnostics)

    def test_non_invertible_phi(self):
        m = manual_constant(shift_rack_2(), AbGroup([4]), 2, 0, 3)
        check = validate_module(m)
        assert any(d.axiom == "phi-invertible" for d in check.diagnostics)

    def test_eta_involution(self):
        m = manual_constant(shift_rack_2(), AbGroup([5]), 1, 0, 2)
        check = validate_module(m)
        assert any(d.axiom == "M3" for d in check.diagnostics)

    def test_constant_module_constructor_raises(self):
        with pytest.raises(ValidationError):
            constant_module(rack("t2"), AbGroup([5]), [[2]], [[0]], [[4]])

    def test_generator_witnesses_truncated(self):
        n = MAX_WITNESSES + 8
        d = Diagnostic("x", (i for i in range(n)))
        assert d.truncated
        assert d.witnesses == list(range(MAX_WITNESSES))
        assert not Diagnostic("x", iter(range(MAX_WITNESSES))).truncated


class TestShapeAndSampling:
    def test_shape_errors(self):
        A = AbGroup([2])
        h = AbHom.identity(A)
        base = rack("t2")
        with pytest.raises(ValueError):
            RackModule(base, A, [[h]], [[h, h], [h, h]], [h, h])
        with pytest.raises(ValueError):
            RackModule(base, A, [[h, h], [h, h]], [[h, h], [h, h]], [h])
        other = AbHom.identity(AbGroup([3]))
        with pytest.raises(ValueError):
            RackModule(base, A, [[other, h], [h, h]], [[h, h], [h, h]], [h, h])

    @pytest.mark.parametrize("field", ["base", "A", "phi", "psi", "eta", "constant"])
    def test_fields_are_read_only(self, field):
        # the cochain complex kept on a module is built from these fields
        m = dihedral_kamada_module(rack("t2"), AbGroup([4]))
        before = getattr(m, field)
        with pytest.raises(AttributeError):
            setattr(m, field, getattr(dihedral_kamada_module(rack("t2"), AbGroup([3])), field))
        with pytest.raises(AttributeError):
            delattr(m, field)
        assert getattr(m, field) is before


class TestCoverage:
    def test_large_carrier_is_exhaustive(self):
        m = dihedral_kamada_module(trivial_rack(17), AbGroup([2]))
        check = validate_module(m)
        assert check.ok
        # no verdict is sampled, so none carries a mode
        assert repr(check) == "ModuleCheck(ok=True, diagnostics=[])"

    @pytest.mark.parametrize("n", [4, 20])
    def test_broken_module_reports_exactly_its_witnesses(self, n):
        # over Z2 x Z2, phi_{0,1} = P and phi_{0,2} = Q are involutions that do
        # not commute: on the trivial quandle only M1 at (0,1,2), (0,2,1) breaks;
        # on 20 elements a sample of 10^4 random triples can miss both
        A = AbGroup([2, 2])
        ident, zero = AbHom.identity(A), AbHom.zero(A, A)
        phi = [[ident] * n for _ in range(n)]
        phi[0][1] = AbHom(A, A, [[0, 1], [1, 0]])
        phi[0][2] = AbHom(A, A, [[1, 1], [0, 1]])
        m = RackModule(trivial_rack(n), A, phi, [[zero] * n] * n, [ident] * n)
        assert not m.constant
        diags = validate_module(m).diagnostics
        assert repr(diags) == repr(direct_diagnostics(m))
        assert repr(diags) == "[M1: [(0, 1, 2), (0, 2, 1)]]"


def direct_diagnostics(m):
    """Every condition evaluated from its formula on every index tuple."""
    X = m.base
    n, op, linv, rho = X.size, X.op, X.left_inverse_op, X.rho
    phi, psi, eta = m.phi, m.psi, m.eta
    ident = AbHom.identity(m.A)
    pairs = [(x, y) for x in range(n) for y in range(n)]
    triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    found = {
        "phi-invertible": [(x, y) for x, y in pairs if phi[x][y].inverse() is None],
        "M1": [(x, y, z) for x, y, z in triples
               if phi[op(x, y)][z].compose(phi[x][y])
               != phi[op(x, z)][op(y, z)].compose(phi[x][z])],
        "M2": [(x, y, z) for x, y, z in triples
               if phi[op(x, y)][z].compose(psi[x][y])
               != psi[op(x, z)][op(y, z)].compose(phi[y][z])],
        "M3": [(x,) for x in range(n) if eta[rho[x]].compose(eta[x]) != ident],
        "M4": [(x, y) for x, y in pairs
               if eta[op(x, y)].compose(phi[x][y]) != phi[rho[x]][y].compose(eta[x])],
        "M5": [(x, y) for x, y in pairs if psi[rho[x]][y] != eta[op(x, y)].compose(psi[x][y])],
        "M6": [(x, y) for x, y in pairs
               if phi[linv(x, y)][y].compose(phi[x][rho[y]]) != ident],
        "M7": [(x, y, z) for x, y, z in triples
               if psi[op(x, y)][z] != phi[op(x, z)][op(y, z)].compose(psi[x][z]).add(
                   psi[op(x, z)][op(y, z)].compose(psi[y][z]))],
        "M8": [(x, y) for x, y in pairs
               if phi[linv(x, y)][y].compose(psi[x][rho[y]]).compose(eta[y])
               != psi[op(x, rho[y])][y].neg()],
        "M9": [(x,) for x in range(n)
               if X.kind == QUANDLE and phi[x][x].add(psi[x][x]) != ident],
    }
    return [Diagnostic(a, w) for a, w in found.items() if w]


class TestCost:
    def test_constant_module_costs_a_handful_of_products(self, monkeypatch):
        m = dihedral_kamada_module(takasaki(8), AbGroup([4]))
        calls = []
        original = AbHom.__init__

        def counting(self, source, target, matrix):
            calls.append(1)
            original(self, source, target, matrix)

        monkeypatch.setattr(AbHom, "__init__", counting)
        assert validate_module(m).ok
        assert len(calls) <= 30


def constant_corpus():
    """The broken constant modules of TestDiagnostics, more of them and two valid ones.

    The broken modules that are not constant are compared with the full walk
    in test_broken_module_reports_exactly_its_witnesses.
    """
    return [
        manual_constant(shift_rack_2(), AbGroup([5]), 2, 0, 4),  # M6
        manual_constant(rack("t2"), AbGroup([5]), 2, 0, 4),  # M6 and M9 on a quandle
        manual_constant(takasaki(3), AbGroup([5]), 2, 0, 4),
        manual_constant(rack("t2"), AbGroup([3]), 1, 1, 2),  # M7
        manual_constant(shift_rack_2(), AbGroup([4]), 2, 0, 3),  # phi not invertible
        manual_constant(rack("conj_s3"), AbGroup([4]), 2, 0, 3),
        manual_constant(shift_rack_2(), AbGroup([5]), 1, 0, 2),  # M3
        manual_constant(rack("core_z4"), AbGroup([3]), 2, 2, 1),  # valid
        dihedral_kamada_module(rack("t4"), AbGroup([2, 4])),  # valid
    ]


class TestOnePointDecision:
    @pytest.mark.parametrize("k", range(len(constant_corpus())))
    def test_same_diagnostics_as_the_full_walk(self, k):
        m = constant_corpus()[k]
        assert repr(validate_module(m).diagnostics) == repr(direct_diagnostics(m))

    def test_a_valid_constant_module_is_decided_at_one_point(self, monkeypatch):
        # M3, M9, five pair conditions and three triple conditions at (0, 0, 0)
        m = dihedral_kamada_module(takasaki(8), AbGroup([4]))
        calls = []
        original = symq.modules._check

        def counting(*args):
            calls.append(args[3])
            original(*args)

        monkeypatch.setattr(symq.modules, "_check", counting)
        assert validate_module(m).ok
        assert len(calls) == 10 and set(calls) == {(0,), (0, 0), (0, 0, 0)}
