"""Property-based checks of the algebraic laws on randomized instances."""

import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from symq.abelian import (
    AbGroup,
    AbHom,
    Subquotient,
    _Factored,
    quotient,
    smith_normal_form,
    solve,
    subgroup_elements,
)
from symq.cohomology import (
    THEORY_SR,
    Cochain,
    coboundary_witness,
    cochain_space,
    cohomology_presentation,
    delta1,
    is_cocycle,
)
from symq.dynamical import (
    Gauge,
    are_cohomologous_dynamical,
    build_extension,
    dynamical_diagnostics,
    from_cocycle,
    gauge_transform,
)
from symq.groups import FiniteGroup, conj_quandle, core_quandle
from symq.modules import dihedral_kamada_module, validate_module
from symq.racks import (
    enumerate_good_involutions,
    good_involution_diagnostics,
    takasaki,
    trivial_rack,
    validate_good_involution,
)
from symq.wells import act_on_cocycle, enumerate_aut_pairs

from conftest import module, rack
from helpers import (
    DenseSubquotient,
    DenseSystem,
    dense_smith_normal_form,
    det,
    mat_mul,
    reference_good_involutions,
    reference_subgroup_elements,
)
from test_modules import manual_constant

SETTINGS = settings(max_examples=40, deadline=None)


def involution_words(n):
    words = []
    for perm_seed in range(200):
        rng = random.Random(perm_seed)
        w = list(range(n))
        rng.shuffle(w)
        # square it away to an involution by pairing mismatches
        for i in range(n):
            if w[w[i]] != i:
                w[w[i]] = w[i] = i if w[i] == i else w[i]
        if sorted(w) == list(range(n)) and all(w[w[i]] == i for i in range(n)):
            words.append(tuple(w))
    return sorted(set(words))


RACK_POOL = (
    [takasaki(n) for n in (1, 2, 3, 4, 5)]
    + [trivial_rack(3, w) for w in involution_words(3)]
    + [conj_quandle(FiniteGroup.symmetric(3)), core_quandle(FiniteGroup.cyclic(4))]
    + [rack("t2"), rack("t4"), rack("core_z4_shift")]
)

racks = st.sampled_from(RACK_POOL)
small_ints = st.integers(min_value=-8, max_value=8)


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    return [[draw(small_ints) for _ in range(cols)] for _ in range(rows)]


@st.composite
def snf_inputs(draw):
    # empty, tall, wide and square shapes; entries whose ratios are not all
    # integers, so that gcd row and column steps and the divisibility repair
    # occur, and zeros often enough that rows of the block empty out
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    zeros = (0,) * draw(st.integers(0, 12))
    entries = st.sampled_from((0, 1, -1, 2, -2, 3, -3, 4, 6) + zeros)
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)]


@st.composite
def subgroups(draw):
    # a group of mixed orders, Z included, and a few unreduced generators
    orders = draw(st.lists(st.sampled_from((0, 1, 2, 3, 4, 6)), max_size=3))
    gens = draw(st.lists(st.tuples(*[small_ints] * len(orders)), max_size=3))
    return AbGroup(orders), gens


@st.composite
def finite_homs(draw):
    # entry (i, j) is a multiple of t_i / gcd(t_i, d_j), so the map is well defined
    finite = st.sampled_from((1, 2, 3, 4, 6))
    source = AbGroup(draw(st.lists(finite, min_size=1, max_size=3)))
    target = AbGroup(draw(st.lists(finite, max_size=2)))
    return AbHom(source, target, [[draw(st.integers(0, 5)) * (t // gcd(t, d))
                                   for d in source.orders] for t in target.orders])


@st.composite
def maps_over_z(draw):
    # a map from Z^n, a point of its image, and a permutation of the target rows
    n = draw(st.integers(1, 4))
    target = draw(st.lists(st.sampled_from((0, 2, 3, 4, 6)), min_size=1, max_size=4))
    f = AbHom(AbGroup([0] * n), AbGroup(target), [[draw(small_ints) for _ in range(n)] for _ in target])
    return f, f(tuple(draw(small_ints) for _ in range(n))), draw(st.permutations(range(len(target))))


class TestAbelianProperties:
    @SETTINGS
    @given(matrices())
    def test_snf_factorization(self, M):
        s = smith_normal_form(M)
        assert mat_mul(mat_mul(s.U, M), s.V) == s.D
        assert abs(det(s.U)) == 1 and abs(det(s.V)) == 1

    @settings(max_examples=300, deadline=None)
    @given(snf_inputs())
    def test_snf_matches_the_dense_reference(self, M):
        # the same pivots and steps as a dense scan: U, D and V entry for entry
        s = smith_normal_form(M)
        assert (s.U, s.D, s.V) == dense_smith_normal_form(M)

    @settings(max_examples=300, deadline=None)
    @given(subgroups(), st.sampled_from((1, 6, 24, 10 ** 4)))
    def test_subgroup_elements_match_the_closure(self, subgroup, cap):
        group, gens = subgroup
        got = subgroup_elements(group, gens, cap)
        if any(g[i] for g in gens for i, d in enumerate(group.orders) if d == 0):
            assert got is None  # a generator with a nonzero Z coordinate spans an infinite subgroup
        else:
            ref = reference_subgroup_elements(group, gens)
            assert got == (ref if len(ref) <= cap else None)

    @settings(max_examples=200, deadline=None)
    @given(finite_homs())
    def test_solve_is_the_least_solution(self, f):
        least = {}
        for x in f.source.elements():  # in lexicographic order
            least.setdefault(f(x), x)
        for b in f.target.elements():
            assert solve(f, b) == least.get(b)

    @settings(max_examples=200, deadline=None)
    @given(maps_over_z())
    def test_solve_over_z_ignores_the_row_order(self, case):
        # permuting the target rows changes the elimination, not the solution set
        f, b, perm = case
        g = AbHom(f.source, AbGroup([f.target.orders[i] for i in perm]), [f.matrix[i] for i in perm])
        x = solve(f, b)
        assert x is not None and f(x) == b
        assert solve(g, tuple(b[i] for i in perm)) == x

    @SETTINGS
    @given(st.permutations(range(3)), st.permutations(range(3)))
    def test_quotient_generator_order_invariance(self, gp, rp):
        A = AbGroup([0, 0, 0])
        gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        rels = [(2, 0, 0), (0, 6, 0), (0, 0, 1)]
        base = quotient(A, gens, rels).group.orders
        got = quotient(
            A, [gens[i] for i in gp], [rels[i] for i in rp]
        ).group.orders
        assert got == base



def _combination(group, coeffs, gens):
    total = group.zero()
    for c, g in zip(coeffs, gens):
        total = group.add(total, group.scale(c, g))
    return total


@st.composite
def systems(draw):
    # a map's rows over a group of mixed orders, and right-hand sides: some
    # images, solvable, and some drawn freely, often not
    orders = draw(st.lists(st.sampled_from((0, 2, 3, 4, 6)), max_size=5))
    ncols = draw(st.integers(0, 5))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 4, 6))
    rows = [[draw(entries) for _ in range(ncols)] for _ in orders]
    xs = draw(st.lists(st.tuples(*[small_ints] * ncols), min_size=1, max_size=3))
    bs = [tuple(sum(a * x for a, x in zip(row, xv)) for row in rows) for xv in xs]
    bs += draw(st.lists(st.tuples(*[small_ints] * len(orders)), min_size=1, max_size=3))
    return rows, ncols, AbGroup(orders), bs


@st.composite
def subquotient_inputs(draw):
    orders = draw(st.lists(st.sampled_from((0, 2, 3, 4, 6)), min_size=1, max_size=3))
    group = AbGroup(orders)
    subs = draw(st.lists(st.tuples(*[small_ints] * len(orders)), max_size=3))
    coeffs = draw(st.lists(st.tuples(*[small_ints] * len(subs)), max_size=3))
    return group, subs, [_combination(group, c, subs) for c in coeffs]


def assert_system_reads_densely(system, rows, ncols, group, bs):
    dense = DenseSystem(rows, ncols, group)
    assert system.kernel() == dense.kernel()
    for b in bs:
        assert system.solve(b) == dense.solve(b)


def assert_subquotient_reads_densely(sq, group, subs, bys, rng):
    dense = DenseSubquotient(group, subs, bys)
    assert sq.group == dense.group
    for _ in range(4):
        element = _combination(group, [rng.randint(-3, 3) for _ in subs], sq.sub_gens)
        assert sq.project(element) == dense.project(element)
        w = tuple(rng.randint(-3, 3) for _ in sq.group.orders)
        assert sq.section(w) == dense.section(w)


class TestSparseReaders:
    """_Factored.kernel/solve and Subquotient.project/section read the sparse
    factors; each must equal a dense reading of the same factorization."""

    @settings(max_examples=150, deadline=None)
    @given(systems())
    def test_system_readers(self, case):
        rows, ncols, group, bs = case
        assert_system_reads_densely(_Factored(rows, ncols, group), rows, ncols, group, bs)

    @settings(max_examples=150, deadline=None)
    @given(subquotient_inputs(), st.integers(0, 10 ** 6))
    def test_subquotient_readers(self, case, seed):
        group, subs, bys = case
        assert_subquotient_reads_densely(quotient(group, subs, bys), group, subs, bys,
                                         random.Random(seed))

    @pytest.mark.parametrize("theory", ["sr", "sq"])
    @pytest.mark.parametrize("orders", [(4,), (2, 2)])
    def test_every_system_of_a_presentation(self, monkeypatch, orders, theory):
        m = dihedral_kamada_module(takasaki(5), AbGroup(orders))
        made, subquotients = [], []
        factored_init, subquotient_init = _Factored.__init__, Subquotient.__init__

        def record_system(self, rows, ncols, group):
            rows = [list(row) for row in rows]
            made.append((self, rows, ncols, group))
            factored_init(self, rows, ncols, group)

        def record_subquotient(self, ambient, sub_gens, by_gens):
            sub_gens, by_gens = list(sub_gens), list(by_gens)
            subquotients.append((self, ambient, sub_gens, by_gens))
            subquotient_init(self, ambient, sub_gens, by_gens)

        monkeypatch.setattr(_Factored, "__init__", record_system)
        monkeypatch.setattr(Subquotient, "__init__", record_subquotient)
        cohomology_presentation(m, 2, theory)
        monkeypatch.undo()
        assert made and subquotients
        rng = random.Random(21)
        for sq, group, subs, bys in subquotients:
            assert_subquotient_reads_densely(sq, group, subs, bys, rng)
        for system, rows, ncols, group in made:
            xs = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(3)]
            bs = [tuple(sum(a * x for a, x in zip(row, xv)) for row in rows) for xv in xs]
            bs += [tuple(rng.randint(-3, 3) for _ in rows)]
            assert_system_reads_densely(system, rows, ncols, group, bs)


class TestRackProperties:
    @SETTINGS
    @given(racks, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_translation_cancellation(self, X, xs, ys):
        x, y = xs % X.size, ys % X.size
        r = X.rack
        assert r.op(r.left_inverse_op(x, y), y) == x
        assert r.left_inverse_op(r.op(x, y), y) == x

    @SETTINGS
    @given(racks, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_s3_table_identity(self, X, xs, ys):
        x, y = xs % X.size, ys % X.size
        assert X.op(x, X.rho[y]) == X.rack.left_inverse_op(x, y)

    @SETTINGS
    @given(st.sampled_from(RACK_POOL[:8]))
    def test_good_involutions_revalidate(self, X):
        for w in enumerate_good_involutions(X.rack):
            validate_good_involution(X.rack, w)

    @pytest.mark.parametrize("X", RACK_POOL)
    def test_good_involutions_match_the_unpruned_search(self, X):
        assert enumerate_good_involutions(X.rack) == reference_good_involutions(X.rack)


class TestModuleProperties:
    @SETTINGS
    @given(racks, st.sampled_from([(3, 2, 2, 1), (4, 3, 2, 1), (4, 3, 2, 3), (5, 4, 2, 1)]))
    def test_twisted_constants_hold_everywhere(self, X, spec):
        n, phi, psi, eta = spec
        m = manual_constant(X, AbGroup([n]), phi, psi, eta)
        assert validate_module(m).ok

    @SETTINGS
    @given(racks, st.sampled_from([[2], [3], [4], [2, 2]]))
    def test_dihedral_kamada_holds_everywhere(self, X, orders):
        assert validate_module(dihedral_kamada_module(X, AbGroup(orders))).ok


def one_cochain_from(m, coeffs):
    gens = cochain_space(m, 1, THEORY_SR).gens
    out = Cochain.zero(1, m.base.size, m.A)
    for g, k in zip(gens, coeffs):
        out = out.add(Cochain(1, g.size, g.group, [m.A.scale(k, v) for v in g.values]))
    return out


MODULE_POOL = [
    module("tw_z3", rack("takasaki3")),
    module("m0_z4", rack("t2")),
    dihedral_kamada_module(rack("core_z4"), AbGroup([2])),
    dihedral_kamada_module(rack("t4"), AbGroup([4])),
]

modules_ = st.sampled_from(MODULE_POOL)
coeff_lists = st.lists(st.integers(0, 11), min_size=8, max_size=8)


class TestCohomologyProperties:
    @SETTINGS
    @given(modules_, coeff_lists)
    def test_coboundaries_are_cocycles(self, m, coeffs):
        sigma = delta1(m, one_cochain_from(m, coeffs))
        ok, diags = is_cocycle(m, sigma, THEORY_SR)
        assert ok, diags

    @SETTINGS
    @given(modules_, coeff_lists)
    def test_witness_round_trip(self, m, coeffs):
        sigma = delta1(m, one_cochain_from(m, coeffs))
        tau = coboundary_witness(m, sigma, THEORY_SR)
        assert tau is not None
        assert delta1(m, tau) == sigma

    @SETTINGS
    @given(st.sampled_from(MODULE_POOL[:2]), coeff_lists)
    def test_projection_constant_on_cosets(self, m, coeffs):
        pres = cohomology_presentation(m, 2, THEORY_SR)
        lam = one_cochain_from(m, coeffs)
        for g in pres.cocycle_gens:
            assert pres.project(g.add(delta1(m, lam))) == pres.project(g)


def z4_setup():
    X = rack("t2")
    m = module("m0_z4", X)
    from conftest import cochain

    return m, cochain("t2_z4", X, m)


@st.composite
def gauges(draw, sizes):
    return Gauge([tuple(draw(st.permutations(range(s)))) for s in sizes])


class TestDynamicalProperties:
    @SETTINGS
    @given(st.data())
    def test_gauge_transforms_stay_valid(self, data):
        m, c = z4_setup()
        dc = from_cocycle(m, c, THEORY_SR)
        g = data.draw(gauges(dc.sizes))
        out = gauge_transform(dc, g)
        assert not dynamical_diagnostics(dc.base, out.sizes, out.alpha, out.beta, False)

    @SETTINGS
    @given(st.data())
    def test_gauge_action_composes_and_inverts(self, data):
        m, c = z4_setup()
        dc = from_cocycle(m, c, THEORY_SR)
        g = data.draw(gauges(dc.sizes))
        h = data.draw(gauges(dc.sizes))
        gh = Gauge([
            tuple(g.perms[x][h.perms[x][s]] for s in range(dc.sizes[x]))
            for x in range(len(dc.sizes))
        ])
        assert gauge_transform(gauge_transform(dc, h), g) == gauge_transform(dc, gh)
        assert gauge_transform(gauge_transform(dc, g), g.inverse()) == dc

    @SETTINGS
    @given(coeff_lists)
    def test_cohomologous_cocycles_glue_equivalently(self, coeffs):
        # explicit affine witness gamma_x(a) = tau(x) + a is accepted
        m, c = z4_setup()
        tau = one_cochain_from(m, coeffs)
        shifted = c.add(delta1(m, tau))
        dc, dc2 = from_cocycle(m, c, THEORY_SR), from_cocycle(m, shifted, THEORY_SR)
        elems = list(m.A.elements())
        explicit = Gauge([
            tuple(m.A.element_index(m.A.add(tau.value(x), a)) for a in elems)
            for x in range(m.base.size)
        ])
        assert gauge_transform(dc, explicit) == dc2
        assert are_cohomologous_dynamical(dc, dc2) is not None


class TestWellsProperties:
    @SETTINGS
    @given(st.integers(0, 3), coeff_lists)
    def test_action_preserves_cocycles(self, k, coeffs):
        # group action on Z^2 stays inside Z^2
        m, c = z4_setup()
        ext_pairs = enumerate_aut_pairs(build_extension_of(m, c))
        p = ext_pairs[k % len(ext_pairs)]
        pres = cohomology_presentation(m, 2, THEORY_SR)
        for g in pres.cocycle_gens:
            out = act_on_cocycle(m, p, g)
            ok, diags = is_cocycle(m, out, THEORY_SR)
            assert ok, diags

    @SETTINGS
    @given(st.integers(0, 3), coeff_lists)
    def test_action_preserves_coboundaries(self, k, coeffs):
        # nu(x) = theta(lam(zeta^-1 x)) certifies the acted coboundary
        m, c = z4_setup()
        pairs = enumerate_aut_pairs(build_extension_of(m, c))
        p = pairs[k % len(pairs)]
        lam = one_cochain_from(m, coeffs)
        acted = act_on_cocycle(m, p, delta1(m, lam))
        zinv = [0] * len(p.zeta)
        for i, v in enumerate(p.zeta):
            zinv[v] = i
        nu = Cochain(1, m.base.size, m.A, [p.theta(lam.value(zinv[x])) for x in range(m.base.size)])
        assert delta1(m, nu) == acted
        assert coboundary_witness(m, acted, THEORY_SR) is not None


def build_extension_of(m, c):
    from symq.wells import build_abelian_extension

    return build_abelian_extension(m, c, THEORY_SR)
