"""Exact linear algebra over finitely generated abelian groups.

A group is a direct sum of cyclic groups, given by a tuple of non-negative
orders where 0 stands for an infinite cyclic (Z) summand.  Elements are
integer vectors reduced componentwise modulo the orders.  Homomorphisms are
integer matrices acting on the left.  Everything is arbitrary-precision.

Kernels, solving, inverses and subquotients all reduce to one constraint
system: the columns of a map next to one torsion column d_i * e_i per
finite order of its target group.  `_Factored` builds that system and runs
Smith normal form on it once, on first demand; each AbHom owns at most one,
so every kernel basis, solution and inverse of that map is read off the same
factorization.  A factorization keeps sparse rows ({index: entry} over
nonzeros) of D, columns of V and the row steps that took M to D; U is
replayed from the steps on its first read (solve, Subquotient, the public
U), so kernel() never builds it, and a Subquotient's section solves
U @ u = w by undoing the steps on w.  Dense U, D and V are built only when read.

    >>> G = AbGroup([4])
    >>> f = AbHom(G, G, [[2]])
    >>> kernel(f)
    [(2,)]
    >>> solve(f, (2,))
    (1,)
    >>> str(quotient(AbGroup([0]), [(1,)], [(2,)]).group)
    'Z2'
"""

from itertools import compress, pairwise, product
from math import prod
from operator import index

from . import limits
from .errors import InfiniteGroupUnsupported, NotASubgroup


def _egcd(a, b):
    # returns (g, p, q) with p*a + q*b = g = gcd(a, b) >= 0
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _unit_rows(n):
    # the n x n identity as {index: entry} rows
    return [{i: 1} for i in range(n)]


def _dense_rows(rows, cols):
    return [[row.get(j, 0) for j in range(cols)] for row in rows]


def _dot(row, v):
    return sum(x * v[k] for k, x in row.items())


def _product_rows(A, B):
    # the rows of A @ B one at a time, all as {column: entry} over nonzeros;
    # A may be any iterable of rows
    for row in A:
        acc = {}
        for k, a in row.items():
            for j, b in B[k].items():
                acc[j] = acc.get(j, 0) + a * b
        yield {j: x for j, x in acc.items() if x}


def _combine(mat, i, j, p, q, u, v):
    # rows i,j of mat <- (p*ri + q*rj, u*ri + v*rj), unimodular: every gcd block
    # that _replay applies, and every column step of smith_normal_form on V
    ri, rj = mat[i], mat[j]
    if (p, q, v) == (1, 0, 1):  # rj += u * ri, in place
        for k, x in ri.items():
            if y := rj.get(k, 0) + u * x:
                rj[k] = y
            else:
                del rj[k]
        return
    si, sj = {}, {}
    for k in ri.keys() | rj.keys():
        a, b = ri.get(k, 0), rj.get(k, 0)
        if x := p * a + q * b:
            si[k] = x
        if x := u * a + v * b:
            sj[k] = x
    mat[i], mat[j] = si, sj


def _replay(rows, steps, undo=False):
    # smith_normal_form's row steps on rows, in place: (i, j, p, q, u, v) as in _combine
    # or (i, i) negating row i; undone last first, a block by adjugate times det (+-1)
    for step in reversed(steps) if undo else steps:
        if len(step) == 2:
            rows[step[0]] = {k: -x for k, x in rows[step[0]].items()}
            continue
        i, j, p, q, u, v = step
        if (p, q, v) == (1, 0, 1):  # rj += u * ri inline; undone, ri is mostly {i: d_i}
            u, ri, rj = -u if undo else u, rows[i], rows[j]
            for k, x in ri.items():
                if y := rj.get(k, 0) + u * x:
                    rj[k] = y
                else:
                    del rj[k]
        elif (p, q, u, v) == (0, 1, 1, 0):
            rows[i], rows[j] = rows[j], rows[i]
        else:
            s = p * v - q * u
            _combine(rows, i, j, *((s * v, -s * q, -s * u, s * p) if undo else (p, q, u, v)))


def mat_vec(A, v):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in A)


class SmithDecomposition:
    """U @ M @ V = D with D diagonal under a divisibility chain; U, V unimodular.

    Sparse rows of D, sparse columns of V, the row steps and M @ V.  U is
    replayed from the steps on its first read and kept once U @ (M @ V) == D
    holds.  U, D and V read as dense lists of rows, built on each read.
    """

    __slots__ = ("_D", "_Vt", "_steps", "_MV", "_U")

    def __init__(self, D, Vt, steps, MV):
        self._D, self._Vt, self._steps, self._MV, self._U = D, Vt, steps, MV, None

    def _rows_of_U(self):
        if self._U is None:
            U = _unit_rows(len(self._D))
            _replay(U, self._steps)
            if any(row != d for row, d in zip(_product_rows(U, self._MV), self._D, strict=True)):
                raise AssertionError("smith normal form internal check failed")
            self._U, self._MV = U, None
        return self._U

    @property
    def U(self):
        return _dense_rows(self._rows_of_U(), len(self._D))

    @property
    def D(self):
        return _dense_rows(self._D, len(self._Vt))

    @property
    def V(self):
        return [[col.get(i, 0) for col in self._Vt] for i in range(len(self._Vt))]

    def diagonal(self):
        return [self._D[i].get(i, 0) for i in range(min(len(self._D), len(self._Vt)))]


def smith_normal_form(M):
    """Smith normal form of an integer matrix (list of rows, possibly empty).

    Each pivot is the least |entry| of the block left to reduce, ties broken
    in row-major order; the scan stops at the first unit, and each row's least
    |entry| is cached until the row changes.  D and the columns of V are
    sparse rows throughout, so each step costs the nonzeros it touches, and a
    column swap on D relabels keys.  Row steps on D are recorded, not applied
    to a U; an O(r) test of consecutive diagonal pairs gates the divisibility
    repair.  On every call a copy of D with the steps undone must equal M @ V,
    one product over nonzeros, never sampled (AssertionError if not).

    >>> smith_normal_form([[2, 0], [0, 3]]).diagonal()
    [1, 6]
    """
    m = len(M)
    n = len(M[0]) if m else 0
    rows = [{j: int(row[j]) for j in compress(range(len(row)), row)} for row in M]
    D = [dict(row) for row in rows]
    Vt = _unit_rows(n)  # Vt[j] is column j of V
    steps = []  # the row steps on D, in order, as _replay reads them
    low = [None] * m  # least nonzero |D[i][t:]| (0 if none); None: recompute
    key = list(range(n))  # column j of D sits at key j of its rows
    pos = list(range(n))  # and key k holds column pos[k]

    def row_op(*step):  # a gcd block, a swap or a negation, applied to D and recorded
        steps.append(step)
        _replay(D, [step])
        low[step[0]] = low[step[1]] = None

    def col_op(i, j, p, q, u, v, rows):
        # columns i,j of D and V <- (p*ci + q*cj, u*ci + v*cj); rows holds every
        # row of D that the step can change
        ki, kj = key[i], key[j]
        for r in rows:
            row = D[r]
            if ki in row or kj in row:
                a, b = row.pop(ki, 0), row.pop(kj, 0)
                if x := p * a + q * b:
                    row[ki] = x
                if x := u * a + v * b:
                    row[kj] = x
                low[r] = None
        _combine(Vt, i, j, p, q, u, v)

    for t in range(min(m, n)):
        # the first least |entry| in row-major order; a unit ends the scan.  Rows
        # from t on are zero before column t, and cached minima stay valid as t
        # advances: column t - 1 is zero below row t - 1
        i, best = None, 0
        for r in range(t, m):
            if low[r] is None:
                low[r] = min(map(abs, D[r].values()), default=0)
            if low[r] and (i is None or low[r] < best):
                i, best = r, low[r]
                if best == 1:
                    break
        if i is None:
            break
        j = min(pos[k] for k, x in D[i].items() if abs(x) == best)
        if i != t:  # bring the pivot to (t, t)
            row_op(t, i, 0, 1, 1, 0)
        if j != t:  # D's columns swap keys, and V's columns move
            key[t], key[j] = key[j], key[t]
            pos[key[t]], pos[key[j]] = t, j
            Vt[t], Vt[j] = Vt[j], Vt[t]
        c, mixed = key[t], True
        while mixed:
            for i in [r for r in range(t + 1, m) if c in D[r]]:
                b, a = D[i][c], D[t][c]
                if b % a == 0:  # on D inline, in _combine's key order
                    u, rj = -(b // a), D[i]
                    for k, x in D[t].items():
                        if y := rj.get(k, 0) + u * x:
                            rj[k] = y
                        else:
                            del rj[k]
                    steps.append((t, i, 1, 0, u, 1))
                    low[i] = None
                else:
                    g, p, q = _egcd(a, b)
                    row_op(t, i, p, q, -(b // g), a // g)
            # now column t is clear below row t, and this pass clears row t; a
            # gcd step in it can make column t nonzero below row t again
            mixed, support = False, [t]
            for j in sorted(pos[k] for k in D[t] if k != c):
                b, a = D[t][key[j]], D[t][c]
                if b % a == 0:
                    col_op(t, j, 1, 0, -(b // a), 1, support)
                else:
                    g, p, q = _egcd(a, b)
                    col_op(t, j, p, q, -(b // g), a // g, range(t, m))
                    mixed, support = True, [r for r in range(t, m) if c in D[r]]
    D[:] = [{pos[k]: x for k, x in row.items()} for row in D]  # column j back at key j
    key[:] = range(n)

    r = min(m, n)
    for i in range(r):
        if D[i].get(i, 0) < 0:
            row_op(i, i)

    # enforce d_i | d_j for i < j (zeros last); it holds if each consecutive pair does
    diag = pairwise(D[i].get(i, 0) for i in range(r))
    changed = not all((b % a == 0) if a else b == 0 for a, b in diag)
    while changed:
        changed = False
        for i in range(r):
            if D[i].get(i) == 1:
                continue  # a unit divides every later entry and stays a unit
            for j in range(i + 1, r):
                a, b = D[i].get(i, 0), D[j].get(j, 0)
                if (b % a == 0) if a else b == 0:
                    continue
                changed = True
                col_op(j, i, 1, 0, 1, 1, range(m))  # col_i += col_j
                g, p, q = _egcd(D[i].get(i, 0), D[j][i])
                row_op(i, j, p, q, -(D[j][i] // g), D[i].get(i, 0) // g)
                if D[i].get(j):
                    col_op(i, j, 1, 0, -(D[i][j] // D[i][i]), 1, range(m))
                if D[j].get(j, 0) < 0:
                    row_op(j, j)

    # U^-1 @ D, the steps undone on a copy of D, must be M @ V; it is kept for U
    V = [{} for _ in range(n)]
    for j, col in enumerate(Vt):
        for i, x in col.items():
            V[i][j] = x
    MV = [dict(row) for row in D]
    _replay(MV, steps, undo=True)
    if any(row != d for row, d in zip(_product_rows(rows, V), MV, strict=True)):
        raise AssertionError("smith normal form internal check failed")
    return SmithDecomposition(D, Vt, steps, MV)


def _get(table, key):
    try:  # table.get(key); None without a table, and for a key with no hash (a list)
        return None if table is None else table.get(key)
    except TypeError:
        return None


class AbGroup:
    """Finitely generated abelian group as a tuple of cyclic orders (0 = Z).

    A finite group of order at most limits.ARITH_TABLE_ORDER shares its index
    tables per orders: its elements, their indices, and the index of every sum
    and negative.  Canonical input reads them; all else takes the formula.

    >>> A = AbGroup([2, 4])
    >>> A.add((1, 3), (1, 2))
    (0, 1)
    >>> str(A)
    'Z2 x Z4'
    """

    __slots__ = ("orders", "_elems", "_index", "_sums", "_negs")
    _tables = {}  # orders -> (elems, index, sums, negs)

    def __init__(self, orders):
        orders = tuple(map(index, orders))
        if any(d < 0 for d in orders):
            raise ValueError("orders must be non-negative")
        self.orders = orders
        self._elems = self._index = self._sums = self._negs = None
        if 0 not in orders and prod(orders) <= limits.ARITH_TABLE_ORDER:
            if orders not in self._tables:
                self._tables[orders] = self.index_tables()
            self._elems, self._index, self._sums, self._negs = self._tables[orders]

    def index_tables(self):
        """(elements, index of each, sums, negs) as element indices; finite groups only.

        Shared per orders up to the cap; above it built on the first call, for this group."""
        if self._elems is None:
            self.order()  # refuses an infinite group
            sums, elems = [[0]], tuple(product(*map(range, self.orders)))
            for d in self.orders:  # (g, a) + (h, b) has index sums_G[g][h] * d + (a + b) % d
                sums = [[k * d + (a + b) % d for k, b in product(row, range(d))]
                        for row, a in product(sums, range(d))]
            self._elems, self._index = elems, {e: i for i, e in enumerate(elems)}
            self._sums, self._negs = sums, [row.index(0) for row in sums]
        return self._elems, self._index, self._sums, self._negs

    @property
    def rank(self):
        return len(self.orders)

    def reduce(self, v):
        i = _get(self._index, v)
        if i is not None:
            return self._elems[i]
        if len(v) != len(self.orders):
            raise ValueError("element length mismatch")
        return tuple(int(x) % d if d else int(x) for x, d in zip(v, self.orders))

    def zero(self):
        return (0,) * len(self.orders)

    def add(self, u, v):
        i, j = _get(self._index, u), _get(self._index, v)
        if i is None or j is None:
            return self.reduce(tuple(a + b for a, b in zip(u, v)))
        return self._elems[self._sums[i][j]]

    def neg(self, u):
        i = _get(self._index, u)
        return self.reduce(tuple(-a for a in u)) if i is None else self._elems[self._negs[i]]

    def sub(self, u, v):
        i, j = _get(self._index, u), _get(self._index, v)
        if i is None or j is None:
            return self.reduce(tuple(a - b for a, b in zip(u, v)))
        return self._elems[self._sums[i][self._negs[j]]]

    def scale(self, k, u):
        return self.reduce(tuple(k * a for a in u))

    def is_finite(self):
        return all(d != 0 for d in self.orders)

    def order(self):
        if not self.is_finite():
            raise InfiniteGroupUnsupported("group has an infinite cyclic summand")
        return prod(self.orders)

    def elements(self):
        """All elements in lexicographic order; finite groups only."""
        if not self.is_finite():
            raise InfiniteGroupUnsupported("cannot enumerate an infinite group")
        return list(self._elems or product(*map(range, self.orders)))

    def element(self, i):
        """elements()[i], read off the table or off the mixed-radix digits of i."""
        if self._elems is not None:
            return self._elems[i]
        i, orders = range(self.order())[i], self.orders
        return tuple(i // prod(orders[k + 1:]) % d for k, d in enumerate(orders))

    def element_index(self, v):
        # mixed-radix index matching elements() order
        idx = 0
        for x, d in zip(v, self.orders):
            idx = idx * d + x
        return idx

    def __eq__(self, other):
        return isinstance(other, AbGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return f"AbGroup({list(self.orders)})"

    def __str__(self):
        return " x ".join("Z" if d == 0 else f"Z{d}" for d in self.orders if d != 1) or "0"


class AbHom:
    """Homomorphism between AbGroups as an integer matrix (target x source).

    Integer entries (bools count) are kept canonical modulo the target
    orders; well-definedness (order of each source generator killed in the
    target) is checked entry by entry when some pair of orders can fail it.
    """

    __slots__ = ("source", "target", "matrix", "_system", "_hash", "_indices")

    def __init__(self, source, target, matrix):
        rows = [tuple(map(index, row)) for row in matrix]
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise ValueError("matrix shape mismatch")
        canon = [tuple(map(d.__rmod__, row)) if d else row for row, d in zip(rows, target.orders)]
        if any(dj and (not di or dj % di) for di in set(target.orders) for dj in set(source.orders)):
            for j, dj in enumerate(source.orders):
                if dj == 0:
                    continue
                for i, di in enumerate(target.orders):
                    v = dj * canon[i][j]
                    if (v % di if di else v) != 0:
                        raise ValueError(f"not a well-defined homomorphism at entry ({i},{j})")
        self.source = source
        self.target = target
        self.matrix = tuple(canon)
        self._system = None
        self._hash = None
        self._indices = None

    def _factored(self):
        if self._system is None:
            self._system = _Factored(self.matrix, self.source.rank, self.target)
        return self._system

    @classmethod
    def identity(cls, group):
        return cls.scalar(group, 1)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, [[0] * source.rank for _ in range(target.rank)])

    @classmethod
    def scalar(cls, group, k):
        n = group.rank
        return cls(group, group, [[k if i == j else 0 for j in range(n)] for i in range(n)])

    def __call__(self, v):
        i = _get(self.source._index, v)
        if i is None or self.target._elems is None:
            return self.target.reduce(mat_vec(self.matrix, self.source.reduce(v)))
        return self.target._elems[self.indices()[i]]

    def indices(self):
        """The index of each image, in the order of source.elements(); built once, finite only."""
        if self._indices is None:
            t = self.target
            t.order()  # refuses an infinite target
            self._indices = tuple(t.element_index(t.reduce(mat_vec(self.matrix, v)))
                                  for v in self.source.elements())
        return self._indices

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        cols = [[r[j] for r in other.matrix] for j in range(other.source.rank)]
        return AbHom(other.source, self.target,
                     [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.matrix])

    def add(self, other):
        return AbHom(self.source, self.target,
                     [[a + b for a, b in zip(r1, r2)]
                      for r1, r2 in zip(self.matrix, other.matrix)])

    def neg(self):
        return AbHom(self.source, self.target, [[-a for a in r] for r in self.matrix])

    def sub(self, other):
        return self.add(other.neg())

    def is_zero(self):
        return all(all(x == 0 for x in row) for row in self.matrix)

    def is_identity(self):
        return self.source == self.target and self == AbHom.identity(self.source)

    def inverse(self):
        """Two-sided inverse hom, or None if this is not an isomorphism."""
        # a two-sided inverse forces unique solutions, so any particular
        # solution will do
        n = self.target.rank
        cols = [self._factored().solve(self.target.reduce(tuple(int(k == i) for k in range(n))))
                for i in range(n)]
        if None in cols:
            return None
        try:
            g = AbHom(self.target, self.source,
                      [[cols[j][i] for j in range(n)] for i in range(self.source.rank)])
        except ValueError:
            return None
        if g.compose(self).is_identity() and self.compose(g).is_identity():
            return g
        return None

    def __eq__(self, other):
        return isinstance(other, AbHom) and (self.source, self.target, self.matrix) == (
            other.source, other.target, other.matrix)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.matrix))
        return self._hash

    def __repr__(self):
        return f"AbHom({self.source!r} -> {self.target!r}, {[list(r) for r in self.matrix]})"


class _Factored:
    """The integer system [map columns | torsion columns of group], factored once.

    rows holds the map's matrix, one row per coordinate of group, with ncols
    entries each.  Appending the column d_i * e_i for every finite order d_i
    makes integer solutions of the stacked system exactly the solutions
    modulo the group.  kernel() reads the columns of V and the diagonal, so
    it never has U built; solve() reads U's rows too.  Both cut their answers
    down to the map's own ncols coordinates.  Smith normal form runs on first
    use only: a zero subgroup of a large ambient group has nothing to solve
    while it is built, and its torsion-only system can be as large as the
    ambient group.
    """

    __slots__ = ("ncols", "echelon", "_rows", "_snf", "_diag")

    def __init__(self, rows, ncols, group):
        torsion = [i for i, d in enumerate(group.orders) if d]
        self.ncols = ncols
        self.echelon = None  # abelian.solve's kernel basis, built on its first call
        self._rows = [[*row, *[0] * len(torsion)] for row in rows]
        for t, i in enumerate(torsion):  # d_i * e_i in torsion column t
            self._rows[i][ncols + t] = group.orders[i]
        self._snf = None

    def _factor(self):
        if self._snf is None:
            self._snf = (smith_normal_form(self._rows) if self._rows  # no rows: all solve, to 0
                         else SmithDecomposition([], _unit_rows(self.ncols), [], []))
            self._diag, self._rows = self._snf.diagonal(), None

    def kernel(self):
        """Basis of the integer kernel of the stacked system, on the map's columns."""
        self._factor()
        diag, ncols = self._diag, self.ncols
        return [tuple(col.get(i, 0) for i in range(ncols))
                for j, col in enumerate(self._snf._Vt) if j >= len(diag) or diag[j] == 0]

    def solve(self, b):
        """One integer x with rows @ x = b modulo the group, or None."""
        self._factor()
        diag, ncols = self._diag, self.ncols
        x = [0] * ncols
        for i, row in enumerate(self._snf._rows_of_U()):
            y = _dot(row, b)
            d = diag[i] if i < len(diag) else 0
            if (y % d if d else y) != 0:
                return None
            if y:  # x += V @ (y // d) e_i, on the map's columns
                for r, v in self._snf._Vt[i].items():
                    if r < ncols:
                        x[r] += v * (y // d)
        return tuple(x)


def _orient(group, v):
    # fix the sign so the first nonzero free coordinate is positive
    for x, d in zip(v, group.orders):
        if d == 0 and x:
            return group.neg(v) if x < 0 else v
    return v


def kernel(f):
    """Generators of ker f as canonical elements of f.source.

    The list may be empty (trivial kernel); zero vectors are dropped.
    """
    # source torsion relations project to zero, so nothing else is needed
    source = f.source
    gens = dict.fromkeys(_orient(source, source.reduce(v)) for v in f._factored().kernel())
    return [g for g in gens if g != source.zero()]


def image(f):
    """Generators of im f: the columns of the matrix, reduced in the target."""
    zero = f.target.zero()
    return [g for g in dict.fromkeys(map(f.target.reduce, zip(*f.matrix))) if g != zero]


def _echelon(group, gens):
    """Row-echelon basis of the integer lattice spanned by gens and each d_i * e_i.

    One (c, row) per leading column c, c increasing, with row[c] > 0 and zeros
    before c.  The pivot h_c = row[c] divides d_c, and the subgroup generated
    by gens is {sum k_c * row_c : 0 <= k_c < d_c / h_c}, each element once.
    Column c is cleared by Euclid steps from its least |entry|, and entries
    after it are reduced modulo their orders, so that entries stay small.
    """
    orders, n = group.orders, group.rank

    def reduced(row, c):
        return [x % d if d and j > c else x for j, (x, d) in enumerate(zip(row, orders))]

    pool = [list(g) for g in gens] + [[d if j == i else 0 for j in range(n)]
                                      for i, d in enumerate(orders) if d]
    basis = []
    for c in range(n):
        live = [row for row in pool if row[c]]
        pool = [row for row in pool if not row[c]]
        while len(live) > 1:
            piv = min(live, key=lambda row: abs(row[c]))
            rest = [reduced([y - row[c] // piv[c] * x for x, y in zip(piv, row)], c)
                    for row in live if row is not piv]
            pool += [row for row in rest if not row[c]]
            live = [piv] + [row for row in rest if row[c]]
        if live:
            piv = live[0] if live[0][c] > 0 else [-x for x in live[0]]
            basis.append((c, reduced(piv, c)))
    return basis


def subgroup_elements(group, gens, cap):
    """All elements of the subgroup generated by gens, sorted, or None if more than cap.

    The count prod d_c / h_c is read off the echelon pivots first, so an
    infinite or oversized subgroup is refused before anything is listed.
    """
    basis = _echelon(group, gens)
    sizes = [group.orders[c] // row[c] for c, row in basis]  # 0 at a pivot on a Z column
    if 0 in sizes or prod(sizes) > cap:
        return None
    out = [group.zero()]
    for (_, row), n in zip(basis, sizes):
        out = [group.reduce(tuple(x + k * y for x, y in zip(e, row))) for e in out for k in range(n)]
    return sorted(out)


def solve(f, b):
    """The canonical x with f(x) = b, or None; one rule at every size, no cap.

    A particular solution is reduced against the echelon basis of ker f (with
    the source relations), built once per map: each pivot coordinate c lands
    in [0, h_c).  On a finite source that is the lexicographically least
    solution; on any source it depends only on (f, b), not on the elimination.
    So the solution of -b is the reduction of the negated solution of b:

    >>> f = AbHom(AbGroup([4, 4]), AbGroup([4]), [[1, 2]])
    >>> x = solve(f, (1,))
    >>> x, solve(f, (3,)), _reduced(f, [-a for a in x], (3,))
    ((1, 0), (1, 1), (1, 1))
    """
    b = f.target.reduce(b)
    x = f._factored().solve(b)
    return None if x is None else _reduced(f, x, b)


def _reduced(f, x, b):
    # solve's reduction of any integer x with f(x) = b (b canonical), checked exactly
    system = f._factored()
    if system.echelon is None:
        system.echelon = _echelon(f.source, system.kernel())
    for c, row in system.echelon:
        k = x[c] // row[c]
        x = [a - k * r for a, r in zip(x, row)]
    v = f.source.reduce(tuple(x))
    if f(v) != b:
        raise AssertionError("solve internal check failed")
    return v


class Subquotient:
    """A subgroup-modulo-subgroup of an ambient AbGroup, presented canonically.

    project sends an ambient element of the subgroup to its class vector in
    the quotient group; section picks a representative, the relation steps
    undone on the class vector; project(section(w)) == w.
    """

    __slots__ = ("ambient", "sub_gens", "by_gens", "group", "_kept", "_snf", "_memb")

    def __init__(self, ambient, sub_gens, by_gens, _memb=None):
        self.ambient = ambient
        self.sub_gens = [ambient.reduce(g) for g in sub_gens]
        self.by_gens = [ambient.reduce(g) for g in by_gens]
        k = len(self.sub_gens)
        # membership system: sub-generator combinations in the ambient, unless _memb has it
        self._memb = _memb or _Factored(
            [[g[i] for g in self.sub_gens] for i in range(ambient.rank)], k, ambient)
        # coordinates of each by-generator in terms of the sub-generators
        by_coords = []
        for b in self.by_gens:
            u = self._memb.solve(b)
            if u is None:
                raise NotASubgroup("a by-generator is outside the subgroup")
            by_coords.append(u)
        # relations among the sub-generators inside the ambient group; with
        # no sub-generators there are none, and nothing more is factored
        rel_cols = self._memb.kernel() + by_coords if k else []
        self._snf = (smith_normal_form([[col[i] for col in rel_cols] for i in range(k)])
                     if rel_cols else SmithDecomposition([{}] * k, [], [], [{}] * k))  # k x 0
        diag = self._snf.diagonal()
        orders = [diag[i] if i < len(diag) else 0 for i in range(k)]
        self._kept = tuple(i for i, d in enumerate(orders) if d != 1)
        self.group = AbGroup(tuple(orders[i] for i in self._kept))

    def contains(self, element):
        """Membership of an ambient element in the subgroup (not the quotient)."""
        return self._memb.solve(self.ambient.reduce(element)) is not None

    def project(self, element):
        """Class of a subgroup element in the quotient group."""
        u = self._memb.solve(self.ambient.reduce(element))
        if u is None:
            raise NotASubgroup("element is outside the subgroup")
        U = self._snf._rows_of_U()
        return self.group.reduce(tuple(_dot(U[i], u) for i in self._kept))

    def section(self, class_vector):
        """A representative ambient element of the given class."""
        class_vector = self.group.reduce(class_vector)
        w = [0] * len(self.sub_gens)
        for pos, i in enumerate(self._kept):
            w[i] = class_vector[pos]
        # U is unimodular, so U @ u = w has one integer solution, U^-1 @ w
        rows = [{0: x} if x else {} for x in w]  # w as a column
        _replay(rows, self._snf._steps, undo=True)
        u = [row.get(0, 0) for row in rows]
        if any(_dot(row, u) != x for row, x in zip(self._snf._rows_of_U(), w, strict=True)):
            raise AssertionError("section internal check failed")
        total = self.ambient.zero()
        for coeff, g in zip(u, self.sub_gens):
            total = self.ambient.add(total, self.ambient.scale(coeff, g))
        return total


def quotient(ambient, sub_generators, by_generators):
    """Subquotient <sub>/<by> of the ambient group.

    >>> str(quotient(AbGroup([0, 0]), [(1, 0), (0, 1)], [(2, 0), (0, 2)]).group)
    'Z2 x Z2'
    """
    return Subquotient(ambient, sub_generators, by_generators)
