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
from symq.abelian import AbGroup, smith_normal_form
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
    # U @ M @ V is formed row by row from two products on every call
    products = []
    rows = symq.abelian._product_rows

    def counting(A, B):
        products.append(1)
        return rows(A, B)

    monkeypatch.setattr(symq.abelian, "_product_rows", counting)
    corpus = sparse_corpus()[:20]
    for M in corpus:
        smith_normal_form(M)
    assert len(products) == 2 * len(corpus)
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


def test_a_one_sided_corruption_fails_the_certificate(monkeypatch):
    # Alter one entry of U, or of a column of V, right after one step of the
    # elimination and leave D alone.  Every later step is unimodular on both
    # sides, so U @ M @ V moves off D by a nonzero amount whenever M has no zero
    # row (for U) and no zero column (for V): the certificate must fail.
    original = symq.abelian._combine
    corrupted = {"U": 0, "V": 0}
    for M in full_support_corpus():
        seen = []
        monkeypatch.setattr(symq.abelian, "_combine",
                            lambda mat, *args: (seen.append(mat), original(mat, *args)))
        s = smith_normal_form(M)
        kinds = ["U" if mat is s._U else "V" if mat is s._Vt else "D" for mat in seen]
        for k, kind in enumerate(kinds):
            if kind == "D":
                continue
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
            corrupted[kind] += 1
    assert corrupted["U"] > 20 and corrupted["V"] > 20


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
