"""Exact linear algebra over finitely generated abelian groups."""

import itertools
import random
from math import gcd, prod

import pytest

from symq import limits
from symq.abelian import (
    AbGroup,
    AbHom,
    Subquotient,
    _echelon,
    _Factored,
    image,
    kernel,
    mat_vec,
    quotient,
    smith_normal_form,
    solve,
    subgroup_elements,
)
from symq.errors import InfiniteGroupUnsupported, SearchSpaceExceeded

from helpers import (
    det,
    mat_mul,
    reference_ill_defined_entry,
    reference_stacked_rows,
    reference_subgroup_elements,
)


def random_matrix(rng, rows, cols, span=9):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


class TestSmithNormalForm:
    def test_factorization_and_unimodularity(self):
        rng = random.Random(20260815)
        for _ in range(300):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            M = random_matrix(rng, rows, cols)
            s = smith_normal_form(M)
            assert mat_mul(mat_mul(s.U, M), s.V) == s.D
            assert abs(det(s.U)) == 1
            assert abs(det(s.V)) == 1
            diag = s.diagonal()
            assert all(d >= 0 for d in diag)
            for a, b in zip(diag, diag[1:]):
                if a == 0:
                    assert b == 0
                else:
                    assert b % a == 0

    def test_deterministic(self):
        M = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        assert smith_normal_form(M).D == smith_normal_form(M).D
        assert smith_normal_form(M).diagonal() == [2, 2, 156]


class TestAbGroup:
    def test_canonical_forms(self):
        A = AbGroup([2, 4])
        assert A.reduce((5, -1)) == (1, 3)
        assert A.add((1, 3), (1, 2)) == (0, 1)
        assert A.neg((1, 1)) == (1, 3)
        assert A.order() == 8
        assert len(list(A.elements())) == 8

    def test_infinite_group(self):
        A = AbGroup([0])
        assert not A.is_finite()
        assert A.reduce((-7,)) == (-7,)
        assert A.add((3,), (-5,)) == (-2,)

    def test_str_formats(self):
        assert str(AbGroup([])) == "0"
        assert str(AbGroup([0])) == "Z"
        assert str(AbGroup([2, 4])) == "Z2 x Z4"
        assert str(AbGroup([0, 3])) == "Z x Z3"


def invariant_factors(n, d=1):
    """Every chain d1 | d2 | .. with d | d1, each factor above 1, and product n."""
    if n == 1:
        return [()]
    return [(e,) + rest for e in range(2, n + 1) if e % d == 0 and n % e == 0
            for rest in invariant_factors(n // e, e)]


TABLE_PROBE = limits.ARITH_TABLE_ORDER + 8
TABLE_GROUPS = [o for n in range(1, TABLE_PROBE + 1) for o in invariant_factors(n)] + [
    (4, 2), (1, 3), (3, 1, 2), (0,), (2, 0), (0, 0, 3), (0, 4)]


def outcome(fn, *args):
    # the value with its exact types (True is not 1, 1.0 is not 1), or the exception type
    try:
        return "ok", repr(fn(*args))
    except Exception as exc:
        return "raised", type(exc)


def probes(group, rng):
    """Canonical elements, then unreduced, negative, bool-, float- and list inputs."""
    r = group.rank
    out = group.elements() if group.is_finite() else []
    out += [tuple(rng.randint(-2 * d - 3, 2 * d + 3) for d in group.orders) for _ in range(12)]
    out += [tuple(rng.random() < 0.5 for _ in range(r)) for _ in range(3)]
    out += [tuple(map(float, v)) for v in out[-4:]]
    out += [list(v) for v in out[:6]] + [(1,) * (r + 1), (0,) * max(r - 1, 0)]
    return out


class TestArithmeticTables:
    """Tabulated arithmetic against the formula, on every group up to just over the cap."""

    @pytest.mark.parametrize("orders", TABLE_GROUPS, ids=str)
    def test_tables_agree_with_the_formula(self, orders, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(limits, "ARITH_TABLE_ORDER", 0)
            slow = AbGroup(orders)
        fast = AbGroup(orders)
        tabulated = 0 not in orders and prod(orders) <= limits.ARITH_TABLE_ORDER
        assert (fast._index is not None) == tabulated and slow._index is None
        rng = random.Random(hash(orders))
        xs = probes(slow, rng)
        pairs = [(rng.choice(xs), rng.choice(xs)) for _ in range(150)]
        for _ in range(2):  # the second round reads what the first stored
            for x in xs:
                for name in ("reduce", "neg", "element_index"):
                    assert outcome(getattr(fast, name), x) == outcome(getattr(slow, name), x)
                assert outcome(fast.scale, -3, x) == outcome(slow.scale, -3, x)
            for u, v in pairs:
                assert outcome(fast.add, u, v) == outcome(slow.add, u, v)
                assert outcome(fast.sub, u, v) == outcome(slow.sub, u, v)
        for bad in ((1,) * (fast.rank + 1), [0] * (fast.rank + 1)):
            with pytest.raises(ValueError):
                fast.reduce(bad)
        if not fast.is_finite():
            with pytest.raises(InfiniteGroupUnsupported):
                fast.element(0)
            return
        listed = fast.elements()
        listed[0], listed[-1:] = None, []
        want = slow.elements()
        assert fast.elements() == want
        for group in (fast, slow):  # read off the table, and off the digits
            assert [group.element(i) for i in range(-len(want), len(want))] == want + want
            with pytest.raises(IndexError):
                group.element(len(want))

    @pytest.mark.parametrize("orders", TABLE_GROUPS, ids=str)
    def test_hom_images_agree_with_the_formula(self, orders, monkeypatch):
        rng = random.Random(hash(orders) + 1)
        target_orders = rng.choice([(4,), (2, 6), (0,), (3, 0), orders])
        with monkeypatch.context() as mp:
            mp.setattr(limits, "ARITH_TABLE_ORDER", 0)
            slow_source, slow_target = AbGroup(orders), AbGroup(target_orders)
        # entry (i, j) is a multiple of d_i / gcd(d_i, d_j), so d_j kills column j
        matrix = [[rng.randint(-3, 3) * (di // gcd(di, dj) if di and dj else int(not dj))
                   for dj in orders] for di in target_orders]
        fast = AbHom(AbGroup(orders), AbGroup(target_orders), matrix)
        slow = AbHom(slow_source, slow_target, matrix)
        xs = probes(slow_source, rng)
        for _ in range(2):
            for x in xs:
                assert outcome(fast, x) == outcome(slow, x)
        # images are read off the index tuple between tabulated groups only
        assert (fast._indices is not None) == all(
            0 not in o and prod(o) <= limits.ARITH_TABLE_ORDER for o in (orders, target_orders))
        assert slow._indices is None
        if 0 not in orders and 0 not in target_orders:
            want = tuple(slow.target.element_index(slow(v)) for v in slow.source.elements())
            assert fast.indices() == slow.indices() == want

    @pytest.mark.parametrize("source, target", [((2,), (2,)), ((3,), (3,)), ((4,), (4,)),
                                                ((2, 2), (2, 2)), ((4, 2), (4, 2)),
                                                ((4,), (2,)), ((2, 4), (4, 2))], ids=str)
    def test_indices_of_every_hom_agree_with_the_formula(self, source, target, monkeypatch):
        # the table built by linearity, with and without index tables, against
        # the image of every element; entry (i, j) ranges over the multiples of
        # d_i / gcd(d_i, d_j) below d_i, so the homs are all of Hom(source, target)
        with monkeypatch.context() as mp:
            mp.setattr(limits, "ARITH_TABLE_ORDER", 0)
            untabled = AbGroup(source), AbGroup(target)
        entries = [range(0, di, di // gcd(di, dj)) for di in target for dj in source]
        count = 0
        for flat in itertools.product(*entries):
            matrix = [flat[i * len(source):(i + 1) * len(source)] for i in range(len(target))]
            for s, t in ((AbGroup(source), AbGroup(target)), untabled):
                h = AbHom(s, t, matrix)
                assert h.indices() == tuple(t.element_index(t.reduce(mat_vec(h.matrix, v)))
                                            for v in s.elements())
            count += 1
        assert count == prod(gcd(di, dj) for di in target for dj in source)

    @pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (4, 2), (67,)], ids=str)
    def test_index_tables_agree_with_the_formula(self, orders):
        A = AbGroup(orders)
        elems, index, sums, negs = tables = A.index_tables()
        assert list(elems) == A.elements() and [index[e] for e in elems] == list(range(len(elems)))
        for i, u in enumerate(elems):
            assert elems[negs[i]] == tuple(-a % d for a, d in zip(u, orders))
            assert [elems[k] for k in sums[i]] == [
                tuple((a + b) % d for a, b, d in zip(u, v, orders)) for v in elems]
        # shared per orders up to the cap, built afresh above it
        again = AbGroup(orders).index_tables()
        assert again == tables and (again[2] is sums) == (A.order() <= limits.ARITH_TABLE_ORDER)

    @pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (4, 2)], ids=str)
    def test_add_sub_neg_on_every_pair(self, orders):
        # canonical, unreduced and list input, every pair, against the formula
        A = AbGroup(orders)

        def formula(v):
            return tuple(x % d for x, d in zip(v, orders))

        elems = A.elements()
        inputs = elems + [tuple(x - 2 * d for x, d in zip(e, orders)) for e in elems] + list(
            map(list, elems))
        for u in inputs:
            assert A.neg(u) == formula([-a for a in u])
            for v in inputs:
                assert A.add(u, v) == formula([a + b for a, b in zip(u, v)])
                assert A.sub(u, v) == formula([a - b for a, b in zip(u, v)])


class TestAbHom:
    def test_well_definedness_rejected(self):
        with pytest.raises(ValueError):
            AbHom(AbGroup([2]), AbGroup([3]), [[1]])

    def test_identity_scalar_compose(self):
        A = AbGroup([4])
        f = AbHom.scalar(A, 3)
        g = AbHom.identity(A)
        assert f((1,)) == (3,)
        assert f.compose(f)((1,)) == (1,)
        assert f.compose(g) == f
        assert f.inverse() is not None
        assert f.inverse().compose(f).is_identity()

    def test_non_invertible(self):
        A = AbGroup([4])
        f = AbHom.scalar(A, 2)
        assert f.inverse() is None


# (), Z, Z2, Z3, Z4, Z2xZ2, Z4xZ2 and ZxZ2: every mix of equal, dividing,
# coprime and infinite orders
MIXED_ORDERS = ([], [0], [2], [3], [4], [2, 2], [4, 2], [0, 2])


class TestWellDefinedness:
    """AbHom's verdict against the full double loop over every entry."""

    @pytest.mark.parametrize("target", MIXED_ORDERS, ids=str)
    @pytest.mark.parametrize("source", MIXED_ORDERS, ids=str)
    def test_verdict_and_entry_match_the_double_loop(self, source, target):
        S, T = AbGroup(source), AbGroup(target)
        shape = (len(target), len(source))
        verdicts = set()
        # every matrix with entries in -2..2, and each shifted by 20 to exercise reduction
        for flat in itertools.product(range(-2, 3), repeat=shape[0] * shape[1]):
            for shift in (0, 20):
                matrix = [[x + shift for x in flat[i * shape[1]:(i + 1) * shape[1]]]
                          for i in range(shape[0])]
                bad = reference_ill_defined_entry(S, T, matrix)
                verdicts.add(bad is None)
                if bad is None:
                    f = AbHom(S, T, matrix)
                    assert f.matrix == tuple(tuple(x % d if d else x for x in row)
                                             for row, d in zip(matrix, target))
                else:
                    with pytest.raises(ValueError) as exc:
                        AbHom(S, T, matrix)
                    i, j = bad
                    assert str(exc.value) == f"not a well-defined homomorphism at entry ({i},{j})"
        if any(dj and (not di or dj % di) for di in target for dj in source):
            assert verdicts == {True, False}

    def test_factored_stacks_rows_as_the_comprehension_did(self):
        rng = random.Random(20261019)
        for orders in MIXED_ORDERS + ([0, 4, 2, 0, 3], [2, 0, 0, 6]):
            G = AbGroup(orders)
            for ncols in (0, 1, 3):
                rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in orders]
                assert _Factored(rows, ncols, G)._rows == reference_stacked_rows(rows, G)
                f = AbHom(AbGroup([0] * ncols), G, rows)
                assert f._factored()._rows == reference_stacked_rows(f.matrix, G)


class TestIntegralInput:
    """Entries and orders must be integers; nothing is rounded or parsed."""

    @pytest.mark.parametrize("bad", [1.5, 2.0, "3", None], ids=repr)
    def test_hom_entries_are_refused(self, bad):
        A = AbGroup([4])
        with pytest.raises(TypeError):
            AbHom(A, A, [[bad]])
        with pytest.raises(TypeError):
            AbHom(AbGroup([0, 2]), AbGroup([0]), [[1, bad]])

    @pytest.mark.parametrize("bad", [4.5, 4.0, "4", None], ids=repr)
    def test_group_orders_are_refused(self, bad):
        with pytest.raises(TypeError):
            AbGroup([bad])
        with pytest.raises(TypeError):
            AbGroup([2, bad])

    def test_bools_count_as_integers(self):
        assert AbGroup([True, 2]).orders == (1, 2)
        assert all(type(d) is int for d in AbGroup([True, False]).orders)
        A = AbGroup([4])
        assert AbHom(A, A, [[True]]).matrix == ((1,),)
        assert type(AbHom(A, A, [[True]]).matrix[0][0]) is int


def all_elements(group):
    return list(group.elements())


def brute_kernel(f):
    return {v for v in all_elements(f.source) if all(c == 0 for c in f(v))}


def brute_image(f):
    return {f(v) for v in all_elements(f.source)}


SMALL_HOMS = [
    (AbGroup([4]), AbGroup([4]), [[2]]),
    (AbGroup([2, 4]), AbGroup([8]), [[4, 2]]),
    (AbGroup([8]), AbGroup([2, 4]), [[1], [3]]),
    (AbGroup([3, 3]), AbGroup([3]), [[1, 2]]),
    (AbGroup([2, 2, 2]), AbGroup([2, 2]), [[1, 0, 1], [1, 1, 0]]),
    (AbGroup([6]), AbGroup([4]), [[2]]),
]


class TestKernelImageSolve:
    @pytest.mark.parametrize("source,target,matrix", SMALL_HOMS)
    def test_kernel_matches_enumeration(self, source, target, matrix):
        f = AbHom(source, target, matrix)
        gens = kernel(f)
        got = set(reference_subgroup_elements(source, gens))
        assert got == brute_kernel(f)

    @pytest.mark.parametrize("source,target,matrix", SMALL_HOMS)
    def test_image_matches_enumeration(self, source, target, matrix):
        f = AbHom(source, target, matrix)
        gens = image(f)
        got = set(reference_subgroup_elements(target, gens))
        assert got == brute_image(f)

    @pytest.mark.parametrize("source,target,matrix", SMALL_HOMS)
    def test_solve_matches_enumeration(self, source, target, matrix):
        f = AbHom(source, target, matrix)
        reachable = brute_image(f)
        for b in all_elements(target):
            x = solve(f, b)
            if b in reachable:
                assert x is not None and f(x) == b
            else:
                assert x is None

    def test_solve_infinite_source(self):
        f = AbHom(AbGroup([0]), AbGroup([4]), [[2]])
        assert solve(f, (2,)) is not None
        assert solve(f, (1,)) is None

    def test_solve_past_the_old_walk_size(self):
        # ker f has 8,192 elements; the least solution moves the last coordinate
        f = AbHom(AbGroup([2] * 14), AbGroup([2]), [[1] * 14])
        assert solve(f, (1,)) == (0,) * 13 + (1,)

    def test_echelon_entries_stay_small_over_z(self):
        # a full-rank lattice in Z^40 from random generators: chained gcd steps
        # on each column reach entries of 49,398 digits here, Euclid steps from
        # the least entry keep them at 53
        rng = random.Random(1)
        gens = [tuple(rng.randint(-9, 9) for _ in range(40)) for _ in range(40)]
        basis = _echelon(AbGroup([0] * 40), gens)
        assert [c for c, _ in basis] == list(range(40))
        assert max(abs(x) for _, row in basis for x in row) < 10 ** 80

    def test_subgroup_cap(self):
        A = AbGroup([0])
        assert subgroup_elements(A, [(1,)], cap=100) is None
        assert subgroup_elements(AbGroup([4, 2]), [(1, 1)], cap=3) is None
        assert subgroup_elements(AbGroup([4, 2]), [(1, 1)], cap=4) == [(0, 0), (1, 1), (2, 0), (3, 1)]


class TestQuotient:
    def test_basic_quotients(self):
        A = AbGroup([0])
        q = quotient(A, [(1,)], [(4,)])
        assert q.group.orders == (4,)
        q = quotient(A, [(2,)], [(8,)])
        assert q.group.orders == (4,)

    def test_generator_order_invariance(self):
        A = AbGroup([0, 0])
        gens = [(1, 0), (0, 1)]
        rels = [(2, 0), (0, 4)]
        base = quotient(A, gens, rels).group.orders
        rng = random.Random(3)
        for _ in range(10):
            g = gens[:]
            r = rels[:]
            rng.shuffle(g)
            rng.shuffle(r)
            assert quotient(A, g, r).group.orders == base

    def test_project_section_roundtrip(self):
        A = AbGroup([8])
        q = Subquotient(A, [(1,)], [(4,)])
        for cls in q.group.elements():
            assert q.project(q.section(cls)) == cls

    def test_projection_kills_denominator(self):
        A = AbGroup([8])
        q = Subquotient(A, [(1,)], [(4,)])
        assert q.project((4,)) == q.group.zero()
        assert q.project((2,)) != q.group.zero()


class TestEdgeSystems:
    def test_empty_subgroup_contains_only_zero(self):
        q = Subquotient(AbGroup([0, 0]), [], [])
        assert not q.contains((1, 0))
        assert q.contains((0, 0))

    def test_subgroups_of_the_zero_group_are_trivial(self):
        # the membership system has no rows but still one column per generator
        assert Subquotient(AbGroup([]), [()], []).group == AbGroup([])
        q = Subquotient(AbGroup([]), [(), ()], [()])
        assert q.group == AbGroup([])
        assert q.contains(()) and q.project(()) == ()

    def test_solve_from_trivial_source(self):
        f = AbHom(AbGroup([]), AbGroup([0]), [[]])
        assert solve(f, (1,)) is None
        assert solve(f, (0,)) == ()

    def test_kernel_into_trivial_group(self):
        f = AbHom(AbGroup([0, 1, 3]), AbGroup([]), [])
        assert kernel(f) == [(1, 0, 0), (0, 0, 1)]

    def test_inverse_of_maps_into_the_zero_group(self):
        # composing through the zero group keeps the source's column count
        g = AbHom(AbGroup([1]), AbGroup([]), []).inverse()
        assert g == AbHom(AbGroup([]), AbGroup([1]), [[]])
        assert AbHom(AbGroup([3, 1]), AbGroup([]), []).inverse() is None


class TestOneFactorization:
    def test_solve_factors_once(self, snf_calls):
        f = AbHom(AbGroup([4, 2]), AbGroup([4]), [[2, 2]])
        assert solve(f, (2,)) == (0, 1)
        assert len(snf_calls) == 1

    def test_inverse_factors_once(self, snf_calls):
        A = AbGroup([4, 2])
        f = AbHom(A, A, [[1, 2], [1, 1]])
        g = f.inverse()
        assert g is not None and g.compose(f).is_identity()
        assert len(snf_calls) == 1

    def test_subquotient_queries_reuse_the_factorization(self, snf_calls):
        A = AbGroup([8, 0])
        q = Subquotient(A, [(2, 1), (0, 2)], [(4, 2)])
        built = len(snf_calls)
        assert q.contains((2, 3)) and not q.contains((1, 0))
        cls = q.project((6, 3))
        assert len(snf_calls) == built
        # section undoes the relation steps: nothing after construction factors
        assert q.project(q.section(cls)) == cls
        assert q.section(cls) == q.section(cls)
        assert q.contains((2, 3)) and q.project((6, 3)) == cls
        assert len(snf_calls) == built

    def test_subquotients_without_relations_factor_only_membership(self, snf_calls):
        # no sub-generators: the membership system is solved, never asked for a kernel
        q = Subquotient(AbGroup([0, 0]), [], [(0, 0)])
        assert q.group == AbGroup([]) and q.section(()) == (0, 0)
        assert snf_calls == [(2, 0)]
        # no relation columns: no factorization beyond the membership system
        q = Subquotient(AbGroup([0, 0]), [(1, 0)], [])
        assert q.group == AbGroup([0]) and len(snf_calls) == 2

    def test_kernel_solve_and_inverse_share_one_factorization(self, snf_calls):
        f = AbHom(AbGroup([4, 2]), AbGroup([4]), [[2, 2]])
        assert kernel(f) == [(3, 1), (2, 0)]
        assert solve(f, (2,)) == (0, 1)
        assert f.inverse() is None
        assert len(snf_calls) == 1
