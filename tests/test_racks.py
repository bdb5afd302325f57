"""Rack axioms, good involutions, automorphisms, standard constructions."""

from itertools import permutations

import pytest

from symq import THEORY_SQ, AbGroup, Cochain, build_abelian_extension, dihedral_kamada_module, limits
from symq.errors import EmptyCarrier, SearchSpaceExceeded, ValidationError
from symq.groups import FiniteGroup, conj_quandle, core_quandle
from symq.racks import (
    QUANDLE,
    RACK,
    FiniteRack,
    FiniteSymmetricRack,
    RackMorphism,
    _check_group,
    _compose_words,
    _isomorphisms,
    cycle_notation,
    enumerate_automorphisms,
    enumerate_good_involutions,
    good_involution_diagnostics,
    is_isomorphism,
    rack_diagnostics,
    takasaki,
    trivial_rack,
    validate_good_involution,
    validate_rack,
)

from conftest import rack
from helpers import reference_good_involutions, reference_isomorphisms

GROUPS = {f"Z{k}": FiniteGroup.cyclic(k) for k in range(1, 9)}
GROUPS["S3"] = FiniteGroup.symmetric(3)
# takasaki(1..10), where the unpruned reference is still quick, trivial quandles, every
# fixture rack, and the core and conjugation quandles of the groups above
INVOLUTION_SWEEP = (
    [(f"takasaki{n}", takasaki(n)) for n in range(1, 11)]
    + [(f"trivial{n}", trivial_rack(n)) for n in range(1, 9)]
    + [(f"fixture-{name}", rack(name)) for name in (
        "t2", "t4", "takasaki3", "takasaki4", "takasaki5", "core_z4", "core_z4_shift", "conj_s3")]
    + [(f"{make.__name__}-{g}", make(G)) for g, G in GROUPS.items()
       for make in (core_quandle, conj_quandle)]
)


def all_rack_tables(n):
    """Every rack table on {0..n-1}: right translations R_y chosen in order,
    each kept if R_z R_y = R_{y*z} R_z holds wherever all three are chosen."""
    perms, found = list(permutations(range(n))), []

    def extend(R):
        k = len(R)
        if k == n:
            found.append([[R[y][x] for y in range(n)] for x in range(n)])
            return
        for p in perms:
            R.append(p)
            if all(R[z][R[y][x]] == R[R[z][y]][R[z][x]] for z in range(k + 1) for y in range(k + 1)
                   if R[z][y] <= k for x in range(n)):
                extend(R)
            R.pop()

    extend([])
    return found


class TestValidateRack:
    def test_accepts_takasaki_tables(self):
        for n in (1, 2, 3, 4, 5, 6):
            X = takasaki(n)
            assert X.kind == QUANDLE
            assert X.size == n

    def test_rejects_non_bijective_translation(self):
        diags = rack_diagnostics([[0, 0], [0, 0]])
        assert any(d.axiom == "right-translation-bijective" for d in diags)

    def test_rejects_broken_self_distributivity(self):
        # x*y = x+y mod 3 has bijective translations but is not a rack
        table = [[(x + y) % 3 for y in range(3)] for x in range(3)]
        diags = rack_diagnostics(table)
        assert any(d.axiom == "self-distributivity" for d in diags)

    def test_rejects_non_idempotent_quandle(self):
        # cyclic shift x*y = x+1 is a rack but no quandle
        table = [[(x + 1) % 3 for _ in range(3)] for x in range(3)]
        assert validate_rack(table, RACK).kind == RACK
        with pytest.raises(ValidationError) as err:
            validate_rack(table, QUANDLE)
        assert any(d.axiom == "idempotence" for d in err.value.diagnostics)

    def test_empty_carrier(self):
        with pytest.raises(EmptyCarrier):
            validate_rack([])

    def test_left_inverse_cancels_translation(self):
        for X in (takasaki(5), trivial_rack(3)):
            r = X.rack
            for x in range(r.size):
                for y in range(r.size):
                    assert r.op(r.left_inverse_op(x, y), y) == x
                    assert r.left_inverse_op(r.op(x, y), y) == x


class TestGoodInvolutions:
    def test_s3_as_table_identity(self):
        for name in ("t2", "t4", "takasaki3", "core_z4", "core_z4_shift", "conj_s3"):
            X = rack(name)
            for x in range(X.size):
                for y in range(X.size):
                    assert X.op(x, X.rho[y]) == X.rack.left_inverse_op(x, y)

    def test_rejects_non_involution(self):
        X = takasaki(3)
        with pytest.raises(ValueError):
            FiniteSymmetricRack(X.rack, (0, 1))
        diags = good_involution_diagnostics(X.rack, (1, 2, 0))
        assert any(d.axiom == "S1-involution" for d in diags)

    def test_rejects_bad_s2(self):
        # swap is an involution of Takasaki Z3 but not a good one
        diags = good_involution_diagnostics(takasaki(3).rack, (1, 0, 2))
        assert diags

    def test_trivial_two_point_quandle(self):
        words = enumerate_good_involutions(trivial_rack(2).rack)
        assert set(words) == {(0, 1), (1, 0)}

    def test_core_z4_contains_shift(self):
        words = enumerate_good_involutions(rack("core_z4").rack)
        assert (0, 1, 2, 3) in words
        assert (2, 3, 0, 1) in words

    def test_everything_revalidates(self):
        for name in ("t2", "takasaki3", "core_z4", "conj_s3"):
            r = rack(name).rack
            for w in enumerate_good_involutions(r):
                validate_good_involution(r, w)

    @pytest.mark.parametrize("X, tried, words", [
        # takasaki(3): rho(0) = 0 is the one S3 candidate, and fixes rho on the one orbit
        (takasaki(3).rack, 1, [(0, 1, 2)]),
        # trivial(3): every value is a candidate; 3 for rho(0), then 2 + 1 + 1 + 1
        (trivial_rack(3).rack, 8, [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0)]),
        # R_3 = (1 2), the rest trivial: 1 for rho(0), as 1 and 2 lie on a
        # larger orbit, then 2 for rho(1) and 1 + 1 for rho(3)
        (FiniteRack([[0, 0, 0, 0], [1, 1, 1, 2], [2, 2, 2, 1], [3, 3, 3, 3]]), 5,
         [(0, 1, 2, 3), (0, 2, 1, 3)]),
    ], ids=["takasaki3", "trivial3", "orbits-of-two-sizes"])
    def test_candidate_bound(self, X, tried, words):
        # bound counts candidate values of rho, whatever the rack's size
        with pytest.raises(SearchSpaceExceeded, match=f"more than {tried - 1} candidate"):
            enumerate_good_involutions(X, bound=tried - 1)
        assert enumerate_good_involutions(X, bound=tried) == words

    def test_takasaki_counts_without_the_reference(self):
        # Z_n's dihedral quandle: the identity for odd n, also x + n/2 for
        # even n, and two more for n = 0 mod 4 (the reference is exponential)
        for n in range(1, 41):
            words = enumerate_good_involutions(takasaki(n).rack)
            assert len(words) == (1 if n % 2 else 2 if n % 4 == 2 else 4)
            assert tuple(range(n)) in words
            if n % 2 == 0:
                assert tuple((x + n // 2) % n for x in range(n)) in words
            for w in words:
                validate_good_involution(takasaki(n).rack, w)

    @pytest.mark.parametrize("X", [X for _, X in INVOLUTION_SWEEP],
                             ids=[name for name, _ in INVOLUTION_SWEEP])
    def test_same_list_as_the_unpruned_search(self, X):
        # the S3 candidates only skip words that fail S3, in the same order
        assert enumerate_good_involutions(X.rack) == reference_good_involutions(X.rack)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_rack_of_order_n(self, n):
        # 1, 2, 13 and 114 labelled racks; among them R_3 = (1 2) with every
        # other translation trivial, where S3 lets rho(0) land in {1, 2}, an
        # orbit larger than {0}
        tables = all_rack_tables(n)
        assert len(tables) == [1, 2, 13, 114][n - 1]
        for table in tables:
            X = FiniteRack(table)
            assert enumerate_good_involutions(X) == reference_good_involutions(X)

    def test_a_propagated_word_is_still_checked(self):
        # R_0 = R_3 = (3 4), so S3 allows rho(0) = 3, and the orbit's tree
        # gives rho(1) = rho(0)*2 = 4; but R_0 fixes 0 and moves 3, so S2
        # fails at 0*0 = 0, and the full check drops (3, 4, 2, 0, 1)
        X = validate_rack([[0, 0, 1, 0, 0], [1, 1, 0, 1, 1], [2, 2, 2, 2, 2], [4, 4, 4, 4, 4], [3, 3, 3, 3, 3]])
        words = [(0, 1, 2, 3, 4), (0, 1, 2, 4, 3), (1, 0, 2, 3, 4), (1, 0, 2, 4, 3)]
        assert enumerate_good_involutions(X) == reference_good_involutions(X) == words

    def test_non_bijective_translation_is_refused(self):
        # column 2 is constant, so S3 has no inverse translation to match
        X = FiniteRack([[0, 1, 0], [1, 0, 0], [2, 2, 0]])
        with pytest.raises(ValueError, match="right translation is not bijective"):
            enumerate_good_involutions(X)


class TestAutomorphisms:
    def test_takasaki3_is_s3(self):
        words = enumerate_automorphisms(takasaki(3))
        assert len(words) == 6

    def test_rho_constrains_the_group(self):
        # T4 with pair-swap rho only keeps rho-commuting permutations
        X = rack("t4")
        words = enumerate_automorphisms(X)
        rho = X.rho
        for w in words:
            assert tuple(w[rho[i]] for i in range(4)) == tuple(rho[w[i]] for i in range(4))
        assert len(words) == 8

    def test_group_closure(self):
        words = set(enumerate_automorphisms(rack("core_z4")))
        n = 4
        assert tuple(range(n)) in words
        for f in words:
            inv = [0] * n
            for i in range(n):
                inv[f[i]] = i
            assert tuple(inv) in words
            for g in words:
                assert tuple(f[g[i]] for i in range(n)) in words

    def test_candidate_bound(self):
        # 3 images for the generator 0, then 2 for the generator 1 under each
        with pytest.raises(SearchSpaceExceeded, match="more than 8 candidate images"):
            enumerate_automorphisms(takasaki(3), bound=8)
        assert len(enumerate_automorphisms(takasaki(3), bound=9)) == 6

    @pytest.mark.parametrize("X", [rack("t4"), rack("core_z4_shift"), rack("conj_s3"),
                                   takasaki(5), takasaki(6), trivial_rack(5)])
    def test_matches_a_scan_of_all_permutations(self, X):
        scan = [w for w in permutations(range(X.size)) if is_isomorphism(RackMorphism(X, X, w))]
        assert enumerate_automorphisms(X) == scan

    def test_search_cap_refuses_rather_than_truncates(self, monkeypatch):
        # all 5,040 permutations of the trivial quandle on 7 points are
        # symmetries; no small generating set cuts the search down
        monkeypatch.setattr(limits, "GAUGE_SEARCH", 5000)
        with pytest.raises(SearchSpaceExceeded):
            enumerate_automorphisms(trivial_rack(7))


def zero_extension_search(name, order, zeta_fixed):
    """The glued table of a zero-sigma sq extension and fibers with zeta fixed or chosen."""
    X = rack(name)
    m = dihedral_kamada_module(X, AbGroup([order]))
    ext = build_abelian_extension(m, Cochain.zero(2, X.size, m.A), THEORY_SQ)
    bases = [x for x, _ in ext.extension.labels]
    return ext.rack, (bases, bases, list(range(X.size)) if zeta_fixed else [None] * X.size)


SEARCH_CORPUS = (
    [(f"takasaki{n}", lambda n=n: (takasaki(n), None)) for n in (3, 4, 5, 6, 8)]
    + [("trivial5", lambda: (trivial_rack(5), None)),
       ("trivial4-swapped", lambda: (trivial_rack(4, (1, 0, 3, 2)), None)),
       ("conj-S3", lambda: (conj_quandle(GROUPS["S3"]), None)),
       ("core-Z4", lambda: (core_quandle(GROUPS["Z4"]), None)),
       ("core-Z8", lambda: (core_quandle(GROUPS["Z8"]), None))]
    + [(f"{name}/Z{order}-{how}", lambda a=(name, order, how == "fixed"): zero_extension_search(*a))
       for name, order in (("t2", 4), ("takasaki3", 2), ("takasaki3", 3), ("takasaki3", 4),
                           ("takasaki4", 2))
       for how in ("fixed", "chosen")]
)


def searched(search, S, cap, fibers):
    """The words a search yields, in order, and whether it then refused."""
    words = []
    try:
        for word in search(S, S, cap, fibers):
            words.append(word)
    except SearchSpaceExceeded:
        return words, True
    return words, False


class TestOneSymmetrySearch:
    @pytest.mark.parametrize("make", [make for _, make in SEARCH_CORPUS],
                             ids=[name for name, _ in SEARCH_CORPUS])
    def test_same_words_order_and_refusal_as_the_pushing_search(self, make):
        # the generator blocks branch where the todo stack did: at every cap
        # the same words come out in the same order before the same refusal
        S, fibers = make()
        caps = list(range(40)) + [50, 100, 200, 500, 1000, limits.GAUGE_SEARCH]
        runs = [(searched(_isomorphisms, S, cap, fibers), searched(reference_isomorphisms, S, cap, fibers))
                for cap in caps]
        assert all(new == old for new, old in runs)
        assert runs[0][0] == ([], True) and not runs[-1][0][1] and runs[-1][0][0]


def closure(gens, identity, mul):
    """Everything the generators reach from the identity, by plain search."""
    reached, todo = {identity}, [identity]
    while todo:
        h = todo.pop()
        for s in gens:
            p = mul(h, s)
            if p not in reached:
                reached.add(p)
                todo.append(p)
    return reached


class TestGroupCheck:
    def test_rejects_a_set_without_the_identity(self):
        words = list(permutations(range(3)))[1:]
        with pytest.raises(AssertionError, match="misses the identity"):
            _check_group(words, (0, 1, 2), _compose_words, "test set")

    def test_failure_after_the_first_64_elements_is_found(self):
        # S5 on six points, then one transposition moving the sixth point at
        # position 120: every product that leaves the set involves it
        words = [w + (5,) for w in permutations(range(5))]
        ident = tuple(range(6))
        _check_group(words, ident, _compose_words, "S5")
        words.append((0, 1, 2, 3, 5, 4))
        with pytest.raises(AssertionError, match="not closed under composition"):
            _check_group(words, ident, _compose_words, "test set")

    def test_generators_rebuild_the_whole_set(self):
        for X in (takasaki(5), rack("core_z4"), rack("conj_s3")):
            words = enumerate_automorphisms(X)
            ident = tuple(range(X.size))
            gens = _check_group(words, ident, _compose_words, "automorphisms")
            assert closure(gens, ident, _compose_words) == set(words)
        # greedy in lexicographic order: the adjacent transpositions of S5
        words = list(permutations(range(5)))
        gens = _check_group(words, tuple(range(5)), _compose_words, "S5")
        assert gens == [(0, 1, 2, 4, 3), (0, 1, 3, 2, 4), (0, 2, 1, 3, 4), (1, 0, 2, 3, 4)]
        assert closure(gens, tuple(range(5)), _compose_words) == set(words)


class TestMorphisms:
    def test_isomorphism_detection(self):
        X = takasaki(3)
        assert is_isomorphism(RackMorphism(X, X, (0, 1, 2)))
        assert is_isomorphism(RackMorphism(X, X, (0, 2, 1)))

    def test_non_morphism_diagnosed(self):
        X = takasaki(4)
        T = trivial_rack(4)
        bad = RackMorphism(X, T, (0, 1, 2, 3))
        assert bad.diagnostics()
        assert not is_isomorphism(bad)

    def test_fold_t4_onto_t2(self):
        src = rack("t4")
        dst = rack("t2")
        f = RackMorphism(src, dst, (0, 1, 0, 1))
        assert not f.diagnostics()
        assert f.is_surjective()


class TestCycleNotation:
    def test_formats(self):
        assert cycle_notation((0, 1, 2)) == "id"
        assert cycle_notation((1, 0)) == "(0 1)"
        assert cycle_notation((1, 0, 3, 2)) == "(0 1)(2 3)"
        assert cycle_notation((1, 2, 0)) == "(0 1 2)"
