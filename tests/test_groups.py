"""Group tables and the conjugation/core quandle constructions."""

import time

import pytest

from symq.errors import (
    NotASubgroup,
    NotCentralInvolution,
    NotNormal,
    ValidationError,
)
from symq.groups import (
    FiniteGroup,
    conj_quandle,
    core_quandle,
    is_normal,
    quotient_group,
    subgroup_check,
)
from symq.racks import good_involution_diagnostics


class TestFiniteGroup:
    def test_cyclic(self):
        G = FiniteGroup.cyclic(6)
        assert G.identity == 0
        assert G.m(4, 5) == 3
        assert G.inv[2] == 4
        assert G.order_of(2) == 3

    def test_symmetric(self):
        G = FiniteGroup.symmetric(3)
        assert G.size == 6
        assert G.is_central(G.identity)
        assert sum(1 for a in range(6) if G.order_of(a) == 2) == 3

    def test_rejects_broken_associativity(self):
        mul = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(ValidationError) as err:
            FiniteGroup(mul)
        assert any(d.axiom == "associativity" for d in err.value.diagnostics)

    def test_rejects_missing_identity(self):
        with pytest.raises(ValidationError):
            FiniteGroup([[0, 0], [0, 0]], identity=None)

    def test_conjugate_power(self):
        G = FiniteGroup.symmetric(3)
        for x in range(6):
            for y in range(6):
                lhs = G.conjugate(x, y, 2)
                rhs = G.conjugate(G.conjugate(x, y, 1), y, 1)
                assert lhs == rhs

    @pytest.mark.parametrize("G", [FiniteGroup.symmetric(3), FiniteGroup.cyclic(4)])
    def test_power_is_read_modulo_the_order(self, G):
        for a in range(G.size):
            for k in range(-20, 21):
                assert G.power(a, k) == G.power(a, k % G.size)

    def test_conjugation_power_far_out_is_its_residue(self):
        # the six residues give six tables on S3; 10**18 + 1 = 5 and
        # -10**18 - 1 = 1 modulo 6, each found without 10**18 products
        G = FiniteGroup.symmetric(3)
        tables = [conj_quandle(G, n).rack.table for n in range(6)]
        assert len(set(tables)) == 6
        t0 = time.perf_counter()
        assert conj_quandle(G, 10**18 + 1).rack.table == tables[5]
        assert conj_quandle(G, -10**18 - 1).rack.table == tables[1]
        assert time.perf_counter() - t0 < 1


class TestSubgroups:
    def test_subgroup_check(self):
        G = FiniteGroup.cyclic(4)
        assert subgroup_check(G, [0, 2]) == [0, 2]
        with pytest.raises(NotASubgroup):
            subgroup_check(G, [0, 1, 2])
        with pytest.raises(NotASubgroup):
            subgroup_check(G, [1, 3])

    def test_normality(self):
        S3 = FiniteGroup.symmetric(3)
        elems = [a for a in range(6) if S3.order_of(a) in (1, 3)]
        assert is_normal(S3, elems)
        twist = next(a for a in range(6) if S3.order_of(a) == 2)
        assert not is_normal(S3, [S3.identity, twist])

    def test_quotient(self):
        S3 = FiniteGroup.symmetric(3)
        A3 = [a for a in range(6) if S3.order_of(a) in (1, 3)]
        Q, coset_of = quotient_group(S3, A3)
        assert Q.size == 2
        assert coset_of[S3.identity] == Q.identity
        with pytest.raises(NotNormal):
            twist = next(a for a in range(6) if S3.order_of(a) == 2)
            quotient_group(S3, [S3.identity, twist])


class TestGroupQuandles:
    def test_conj_abelian_is_trivial(self):
        X = conj_quandle(FiniteGroup.cyclic(4))
        for x in range(4):
            for y in range(4):
                assert X.op(x, y) == x
        # rho is inversion, which is still a good involution here
        assert X.rho == (0, 3, 2, 1)

    def test_conj_s3_table(self):
        G = FiniteGroup.symmetric(3)
        X = conj_quandle(G)
        for x in range(6):
            for y in range(6):
                assert X.op(x, y) == G.conjugate(x, y)
        assert X.rho == G.inv

    def test_core_z4_is_takasaki(self):
        G = FiniteGroup.cyclic(4)
        X = core_quandle(G)
        # y - x + y = 2y - x in additive notation
        for x in range(4):
            for y in range(4):
                assert X.op(x, y) == (2 * y - x) % 4
        assert X.rho == (0, 1, 2, 3)

    def test_core_z4_shifted_involution(self):
        X = core_quandle(FiniteGroup.cyclic(4), z=2)
        assert X.rho == (2, 3, 0, 1)

    def test_core_z_rejects_bad_z(self):
        G = FiniteGroup.cyclic(4)
        with pytest.raises(NotCentralInvolution):
            core_quandle(G, z=1)
        with pytest.raises(NotCentralInvolution):
            core_quandle(G, z=0)
        S3 = FiniteGroup.symmetric(3)
        twist = next(a for a in range(6) if S3.order_of(a) == 2)
        with pytest.raises(NotCentralInvolution):
            core_quandle(S3, z=twist)

    def test_functorial_sanity(self):
        # every constructed quandle carries a good involution by validation
        for G in (FiniteGroup.cyclic(5), FiniteGroup.symmetric(3)):
            for X in (conj_quandle(G), conj_quandle(G, 2), core_quandle(G)):
                assert not good_involution_diagnostics(X.rack, X.rho)
