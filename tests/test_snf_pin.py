"""Smith normal form pinned entry for entry, and the edge shapes of mat_mul.

The digests below were recorded from an earlier implementation of
smith_normal_form (a dense pivot scan and dense row and column steps).  Any
change to the pivot order, to the elementary steps or to the divisibility
repair changes U, D or V and fails here directly.  The outputs digested are
U, D, V and the exact inverse of U, computed here, so the digests are the
ones recorded when the factorization still carried that inverse.  Each case
digests its inputs and its outputs separately, so a change in how a
presentation assembles its constraint systems is told apart from a change in
the factorization.

Record a digest with `digests(pairs)` on the reference code.  Beside the
digests, every system of the degree-1 and degree-2 presentations of
takasaki(3..6) is compared entry for entry with the dense reference of
tests/helpers.py, and so are inputs that elimination leaves off the
divisibility chain, so that the repair still runs where it is needed.
"""

import hashlib
import random

import pytest

import symq.abelian
import symq.cohomology
from symq.abelian import AbGroup, AbHom, kernel, smith_normal_form, solve
from symq.cohomology import cohomology_presentation
from symq.modules import dihedral_kamada_module
from symq.racks import takasaki

from helpers import dense_smith_normal_form, inverse, mat_mul


def digests(pairs):
    """(inputs, outputs) sha256 prefixes of (M, SmithDecomposition) pairs."""
    inputs, outputs = hashlib.sha256(), hashlib.sha256()
    for M, s in pairs:
        inputs.update(repr([list(row) for row in M]).encode())
        outputs.update(repr((s.U, s.D, s.V, inverse(s.U))).encode())
    return inputs.hexdigest()[:16], outputs.hexdigest()[:16]


def sparse_corpus():
    """400 seeded integer matrices up to 10 x 10, mostly units, at four densities."""
    rng = random.Random(20261018)
    values = (1, -1, 1, -1, 2, -2, 3, 4, -6, 12)
    out = []
    for k in range(400):
        density = (0.05, 0.15, 0.3, 0.6)[k % 4]
        rows, cols = rng.randint(0, 10), rng.randint(0, 10)
        out.append([[rng.choice(values) if rng.random() < density else 0
                     for _ in range(cols)] for _ in range(rows)])
    return out


def test_sparse_corpus():
    pairs = [(M, smith_normal_form(M)) for M in sparse_corpus()]
    assert digests(pairs) == ("03b2000ea5f32d60", "166ce08f0e55411d")


PRESENTATIONS = {
    # (n, orders, theory): (inputs, outputs) over every factorization made
    (3, (0,), "sr"): ("5a51fa6916e93a07", "e08223695010069d"),
    (3, (0,), "sq"): ("7aa448f44d3f0179", "6f124e773a1e7976"),
    (3, (4,), "sr"): ("62a6f9777ccf5f8a", "e35437aa2d5f3d73"),
    (3, (4,), "sq"): ("71fba88554055a86", "ff9142d1e74c2c80"),
    (3, (2, 2), "sr"): ("3535597869df5248", "6c2f9a6924f7620b"),
    (3, (2, 2), "sq"): ("bea745c78ca832d0", "2e5405bef91eb604"),
    (4, (0,), "sr"): ("2be704d3015b9472", "468f103d23fad85f"),
    (4, (0,), "sq"): ("10cf3a72b5dee9f4", "24b02966803a5785"),
    (4, (4,), "sr"): ("492c931b09209f27", "b056a3176c87e4f9"),
    (4, (4,), "sq"): ("137dd11b0c93fa6e", "259bb8d54f2b122f"),
    (4, (2, 2), "sr"): ("8bfe1c52bfa2240b", "a5462f65e7fa724b"),
    (4, (2, 2), "sq"): ("8ca9935851cc01d7", "e9e68718ae49cefa"),
    # larger systems, with more column-mixing gcd steps than t3 and t4
    (5, (4,), "sr"): ("40e1a2159c38f389", "2c930e3a609b2982"),
    (5, (4,), "sq"): ("e7713fb707bada67", "06bec56539c3f89d"),
    (5, (2, 2), "sr"): ("75dbdcf7dee9476c", "836279bf42ba91b1"),
    (5, (2, 2), "sq"): ("f6b84626b9b22eac", "a51823c2e40e8f26"),
}


@pytest.mark.parametrize("n,orders,theory", list(PRESENTATIONS),
                         ids=[f"t{n}-{'x'.join(map(str, o))}-{t}" for n, o, t in PRESENTATIONS])
def test_degree_two_presentation_systems(monkeypatch, n, orders, theory):
    pairs = []

    def recording(M):
        s = smith_normal_form(M)
        pairs.append((M, s))
        return s

    monkeypatch.setattr(symq.abelian, "smith_normal_form", recording)
    cohomology_presentation(dihedral_kamada_module(takasaki(n), AbGroup(orders)), 2, theory)
    want_inputs, want_outputs = PRESENTATIONS[n, orders, theory]
    got_inputs, got_outputs = digests(pairs)
    assert got_inputs == want_inputs, "the constraint systems changed, not the factorization"
    assert got_outputs == want_outputs


@pytest.mark.parametrize("theory", ["sr", "sq"])
@pytest.mark.parametrize("orders", [(0,), (4,), (2, 2), (4, 2)], ids=["Z", "Z4", "Z2xZ2", "Z4xZ2"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_presentation_systems_match_the_dense_reference(monkeypatch, n, orders, theory):
    # every system of the degree-1 and degree-2 presentations, entry for entry
    m = dihedral_kamada_module(takasaki(n), AbGroup(orders))
    systems = []
    monkeypatch.setattr(symq.abelian, "smith_normal_form",
                        lambda M: systems.append(M) or smith_normal_form(M))
    for degree in (1, 2):
        cohomology_presentation(m, degree, theory)
    assert systems
    for M in systems:
        s = smith_normal_form(M)
        assert (s.U, s.D, s.V) == dense_smith_normal_form(M)


@pytest.mark.parametrize("M,diagonal", [
    ([[4, 0, 0], [0, 6, 0], [0, 0, 10]], [2, 2, 60]),
    ([[2, 0, 0], [0, 0, 0], [0, 0, 3]], [1, 6, 0]),
    ([[6, 0, 0, 0], [0, 4, 0, 0], [0, 0, 0, 0], [0, 0, 0, 9]], [1, 6, 36, 0]),
    ([[3, 0], [0, 2], [0, 0]], [1, 6]),
])
def test_elimination_left_off_the_chain_is_repaired(M, diagonal):
    repairs = []
    U, D, V = dense_smith_normal_form(M, repairs)
    assert repairs, "the elimination alone leaves this diagonal off the chain"
    s = smith_normal_form(M)
    assert s.diagonal() == diagonal
    assert (s.U, s.D, s.V) == (U, D, V)


def test_the_repair_still_runs_on_the_sparse_corpus():
    # the chain is tested on consecutive pairs only; a wrong test would skip a
    # needed repair here and leave D off the chain and off the reference
    repairs, repaired = [], 0
    for M in sparse_corpus():
        before = len(repairs)
        U, D, V = dense_smith_normal_form(M, repairs)
        s = smith_normal_form(M)
        assert (s.U, s.D, s.V) == (U, D, V)
        d = s.diagonal()
        assert all((b % a == 0) if a else b == 0 for a, b in zip(d, d[1:]))
        repaired += len(repairs) > before
    assert (len(repairs), repaired) == (36, 33)


def test_the_certificate_runs_on_every_call(monkeypatch):
    # M @ V is formed row by row from one product on every call, and compared
    # with D with the recorded row steps undone
    products = []
    rows = symq.abelian._product_rows

    def counting(A, B):
        products.append(1)
        return rows(A, B)

    monkeypatch.setattr(symq.abelian, "_product_rows", counting)
    corpus = sparse_corpus()[:20]
    for M in corpus:
        smith_normal_form(M)
    assert len(products) == len(corpus)
    monkeypatch.setattr(symq.abelian, "_product_rows", lambda A, B: iter([[0]]))
    with pytest.raises(AssertionError, match="internal check failed"):
        smith_normal_form([[1]])


def full_support_corpus():
    """Seeded matrices up to 6 x 6 with no zero row and no zero column."""
    rng = random.Random(20261019)
    out = []
    while len(out) < 40:
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.choice((0, 0, 0, 1, -1, 2, 3, -4, 6)) for _ in range(cols)] for _ in range(rows)]
        if all(any(row) for row in M) and all(any(col) for col in zip(*M)):
            out.append(M)
    return out


def corrupted(step):
    """A different step in place of a recorded one, still of det +-1.

    A block (i, j, p, q, u, v) also adds (or subtracts) its new row i to its
    new row j, never leaving a divisible step with u = 0, and a negation of
    row i becomes a no-op.  Row i is nonzero right after each recorded step
    (the pivot or the repaired diagonal entry sits in it), so undoing the
    corrupted step moves M @ V off D by a nonzero row."""
    if len(step) == 2:
        return (step[0], step[0], 1, 0, 0, 1)
    i, j, p, q, u, v = step
    e = 1 if u + p else -1
    return (i, j, p, q, u + e * p, v + e * q)


def test_a_one_sided_corruption_fails_the_certificate(monkeypatch):
    # Alter one recorded row step, or one entry of a column of V right after
    # one step of the elimination, and leave D alone.  Every other step is
    # unimodular, so M @ V moves off U^-1 @ D by a nonzero amount (for V,
    # whenever M has no zero column): the certificate must fail.
    original, replay = symq.abelian._combine, symq.abelian._replay
    caught = {"U": 0, "V": 0}
    for M in full_support_corpus():
        seen = []
        monkeypatch.setattr(symq.abelian, "_combine",
                            lambda mat, *args: (seen.append(mat), original(mat, *args)))
        s = smith_normal_form(M)
        monkeypatch.setattr(symq.abelian, "_combine", original)
        for k, step in enumerate(s._steps):
            def undo_corrupted(rows, steps, undo=False, k=k, step=step):
                if undo:  # the certificate, on the clean steps
                    assert steps == s._steps
                    steps = steps[:k] + [corrupted(step)] + steps[k + 1:]
                replay(rows, steps, undo)

            monkeypatch.setattr(symq.abelian, "_replay", undo_corrupted)
            with pytest.raises(AssertionError, match="internal check failed"):
                smith_normal_form(M)
            caught["U"] += 1
        monkeypatch.setattr(symq.abelian, "_replay", replay)
        for k in [k for k, mat in enumerate(seen) if mat is s._Vt]:
            calls = []

            def corrupting(mat, i, j, *block):
                original(mat, i, j, *block)
                calls.append(mat)
                if len(calls) == k + 1:  # the same step as in the clean run
                    c = next(iter(mat[j]))
                    mat[j][c] += 1
                    if not mat[j][c]:
                        del mat[j][c]

            monkeypatch.setattr(symq.abelian, "_combine", corrupting)
            with pytest.raises(AssertionError, match="internal check failed"):
                smith_normal_form(M)
            caught["V"] += 1
        monkeypatch.setattr(symq.abelian, "_combine", original)
    assert caught["U"] > 20 and caught["V"] > 20


def test_a_corrupted_replay_of_U_fails_at_its_first_read(monkeypatch):
    # U is replayed from the steps only when read, and checked against M @ V
    # and D before it is handed out
    replay, failed = symq.abelian._replay, 0

    def corrupting(rows, steps, undo=False):
        replay(rows, steps, undo)
        rows[0][0] = rows[0].get(0, 0) + 1

    for M in full_support_corpus():
        s = smith_normal_form(M)
        assert s._U is None
        monkeypatch.setattr(symq.abelian, "_replay", corrupting)
        with pytest.raises(AssertionError, match="internal check failed"):
            s.U
        failed += 1
        monkeypatch.setattr(symq.abelian, "_replay", replay)
        assert s.U == smith_normal_form(M).U  # the failed read kept nothing
    assert failed == len(full_support_corpus())


def test_a_presentation_never_builds_U_of_its_witness_map(monkeypatch):
    # Z is read off the kernel of the witness map: V and the diagonal only
    maps = []
    witness_map = symq.cohomology._witness_map
    monkeypatch.setattr(symq.cohomology, "_witness_map",
                        lambda *args: maps.append(witness_map(*args)) or maps[-1])
    pres = cohomology_presentation(dihedral_kamada_module(takasaki(5), AbGroup([4])), 2, "sq")
    assert len(maps) == 1 and pres.group.orders == ()
    snf = maps[0]._system._snf
    assert snf._steps and snf._U is None


def test_repeated_solves_build_U_once(monkeypatch):
    f = AbHom(AbGroup([0, 0, 0]), AbGroup([12, 0]), [[2, 4, 6], [3, 5, 7]])
    calls = []
    monkeypatch.setattr(symq.abelian, "smith_normal_form",
                        lambda M: calls.append(M) or smith_normal_form(M))
    kernel(f)
    snf, replays = f._factored()._snf, []
    assert snf._U is None
    replay = symq.abelian._replay
    monkeypatch.setattr(symq.abelian, "_replay",
                        lambda rows, steps, undo=False: (replays.append((steps is snf._steps, undo)),
                                                         replay(rows, steps, undo)))
    for b in [(0, 0), (2, 3), (4, 1), (1, 0), (6, 9)]:
        x = solve(f, b)
        assert x is None or f(x) == AbGroup([12, 0]).reduce(b)
    assert len(calls) == 1 and replays == [(True, False)] and snf._U is not None


class TestMatMulShapes:
    def test_empty_left_factor(self):
        assert mat_mul([], [[1, 2]]) == []
        assert mat_mul([], []) == []

    def test_right_factor_without_rows(self):
        # the column count comes from B[0], so it is 0 here
        assert mat_mul([[1, 2], [3, 4]], []) == [[], []]
        assert mat_mul([[]], []) == [[]]

    def test_zero_rows_and_columns(self):
        assert mat_mul([[0, 0], [1, 2]], [[1, 0], [0, 1]]) == [[0, 0], [1, 2]]
        assert mat_mul([[1, 0], [2, 0]], [[5, 6], [7, 8]]) == [[5, 6], [10, 12]]
        assert mat_mul([[1, 2]], [[0, 0], [0, 0]]) == [[0, 0]]
        assert mat_mul([[1], [2]], [[]]) == [[], []]

    def test_matches_the_dense_product(self):
        rng = random.Random(5)
        for _ in range(200):
            m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            A = [[rng.choice((0, 0, 0, 1, -1, 3)) for _ in range(k)] for _ in range(m)]
            B = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
            dense = [[sum(A[i][t] * B[t][j] for t in range(k)) for j in range(n)]
                     for i in range(m)]
            assert mat_mul(A, B) == dense
