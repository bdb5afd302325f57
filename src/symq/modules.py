"""(X, rho)-modules: an abelian group A acted on by pair-indexed maps.

The structure maps are invertible phi_{x,y}, arbitrary psi_{x,y} and eta_x
in End(A), subject to axioms M1-M8 (M9 additionally on quandles):

    M1  phi_{x*y,z} phi_{x,y} = phi_{x*z,y*z} phi_{x,z}
    M2  phi_{x*y,z} psi_{x,y} = psi_{x*z,y*z} phi_{y,z}
    M3  eta_{rho(x)} eta_x = id
    M4  eta_{x*y} phi_{x,y} = phi_{rho(x),y} eta_x
    M5  psi_{rho(x),y} = eta_{x*y} psi_{x,y}
    M6  phi_{x inv* y,y} phi_{x,rho(y)} = id
    M7  psi_{x*y,z} = phi_{x*z,y*z} psi_{x,z} + psi_{x*z,y*z} psi_{y,z}
    M8  phi_{x inv* y,y} psi_{x,rho(y)} eta_y = -psi_{x*rho(y),y}
    M9  phi_{x,x} + psi_{x,x} = id        (quandles only)
"""

from .abelian import AbHom
from .cohomology import _complex
from .errors import Diagnostic, ValidationError
from .racks import QUANDLE

# each condition as an identity of the structure maps it reads, in report order
_IDENTITIES = {
    "phi-invertible": lambda f: f.inverse() is not None,
    "M1": lambda f1, f2, f3, f4: f1.compose(f2) == f3.compose(f4),
    "M2": lambda f1, p1, p2, f2: f1.compose(p1) == p2.compose(f2),
    "M3": lambda e1, e2: e1.compose(e2).is_identity(),
    "M4": lambda e1, f1, f2, e2: e1.compose(f1) == f2.compose(e2),
    "M5": lambda p1, e, p2: p1 == e.compose(p2),
    "M6": lambda f1, f2: f1.compose(f2).is_identity(),
    "M7": lambda p1, f, p2, p3, p4: p1 == f.compose(p2).add(p3.compose(p4)),
    "M8": lambda f, p1, e, p2: f.compose(p1).compose(e) == p2.neg(),
    "M9": lambda f, p: f.add(p).is_identity(),
}


_FIELDS = ("base", "A", "phi", "psi", "eta", "constant")


class RackModule:
    """Module data over a symmetric rack: dense tables of AbHoms on A.

    Read-only once built: the cochain complex that cohomology keeps in
    `_complex`, made on first use, is built from these fields; a passing
    validation verdict is kept there too.
    """

    __slots__ = _FIELDS + ("_complex",)

    def __init__(self, base, A, phi, psi, eta):
        n = base.size
        phi = tuple(tuple(row) for row in phi)
        psi = tuple(tuple(row) for row in psi)
        eta = tuple(eta)
        if len(phi) != n or any(len(r) != n for r in phi):
            raise ValueError("phi table must be size x size")
        if len(psi) != n or any(len(r) != n for r in psi):
            raise ValueError("psi table must be size x size")
        if len(eta) != n:
            raise ValueError("eta table must have one entry per element")
        for table in (phi, psi):
            for row in table:
                for h in row:
                    if h.source != A or h.target != A:
                        raise ValueError("structure maps must be endomorphisms of A")
        for h in eta:
            if h.source != A or h.target != A:
                raise ValueError("structure maps must be endomorphisms of A")
        self.base = base
        self.A = A
        self.phi = phi
        self.psi = psi
        self.eta = eta
        first_phi, first_psi, first_eta = phi[0][0], psi[0][0], eta[0]
        self.constant = (
            all(h == first_phi for row in phi for h in row)
            and all(h == first_psi for row in psi for h in row)
            and all(h == first_eta for h in eta)
        )
        self._complex = None

    def __setattr__(self, name, value):
        if name in _FIELDS and hasattr(self, name):
            raise AttributeError(f"RackModule.{name} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if name in _FIELDS:
            raise AttributeError(f"RackModule.{name} is read-only")
        object.__delattr__(self, name)

    def __repr__(self):
        return (
            f"RackModule(base_size={self.base.size}, A={self.A!r}, "
            f"constant={self.constant})"
        )


class ModuleCheck:
    """Validation outcome: the violated conditions with their witnesses."""

    __slots__ = ("diagnostics",)

    def __init__(self, diagnostics):
        self.diagnostics = diagnostics

    @property
    def ok(self):
        return not self.diagnostics

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"ModuleCheck(ok={self.ok}, diagnostics={self.diagnostics})"


def _check(memo, found, label, witness, *maps):
    # one evaluation per distinct (label, maps); equal AbHoms share a verdict
    key = (label, maps)
    holds = memo.get(key)
    if holds is None:
        holds = memo[key] = _IDENTITIES[label](*maps)
    if not holds:
        found.setdefault(label, []).append(witness)


def validate_module(m):
    """Check invertibility of every phi, M1-M8 and, on quandles, M9.

    Exhaustive at every size: every pair and every triple of the base is
    checked, and each identity is evaluated once per distinct tuple of the
    maps it reads.  A constant module reads the same tuple at every point,
    so it is decided at the point (0, 0, 0); the full walk runs only when
    that point fails, to list every witness.  Witnesses of each condition
    come in lexicographic order.
    """
    X = m.base
    rho, op, linv = X.rho, X.op, X.left_inverse_op
    phi, psi, eta = m.phi, m.psi, m.eta
    memo = {}
    for n in ((1, X.size) if m.constant else (X.size,)):
        found = {}
        for x in range(n):
            _check(memo, found, "M3", (x,), eta[rho[x]], eta[x])
            if X.kind == QUANDLE:
                _check(memo, found, "M9", (x,), phi[x][x], psi[x][x])
            for y in range(n):
                xy, u, ry = op(x, y), linv(x, y), rho[y]
                _check(memo, found, "phi-invertible", (x, y), phi[x][y])
                _check(memo, found, "M4", (x, y), eta[xy], phi[x][y], phi[rho[x]][y], eta[x])
                _check(memo, found, "M5", (x, y), psi[rho[x]][y], eta[xy], psi[x][y])
                _check(memo, found, "M6", (x, y), phi[u][y], phi[x][ry])
                _check(memo, found, "M8", (x, y), phi[u][y], psi[x][ry], eta[y], psi[op(x, ry)][y])
                for z in range(n):
                    xz, yz = op(x, z), op(y, z)
                    w = (x, y, z)
                    _check(memo, found, "M1", w, phi[xy][z], phi[x][y], phi[xz][yz], phi[x][z])
                    _check(memo, found, "M2", w, phi[xy][z], psi[x][y], psi[xz][yz], phi[y][z])
                    _check(memo, found, "M7", w,
                           psi[xy][z], phi[xz][yz], psi[x][z], psi[xz][yz], psi[y][z])
        if not found:
            break
    return ModuleCheck([Diagnostic(a, found[a]) for a in _IDENTITIES if a in found])


def constant_module(base, A, phi_matrix, psi_matrix, eta_matrix):
    """Module with a single (phi, psi, eta) triple repeated everywhere."""
    n = base.size
    phi = AbHom(A, A, phi_matrix)
    psi = AbHom(A, A, psi_matrix)
    eta = AbHom(A, A, eta_matrix)
    m = RackModule(
        base,
        A,
        [[phi] * n for _ in range(n)],
        [[psi] * n for _ in range(n)],
        [eta] * n,
    )
    check = validate_module(m)
    if not check.ok:
        raise ValidationError("constant maps do not form a module", check.diagnostics)
    _complex(m)._pieces[("module",)] = check  # kept where every extension build reads it
    return m


def dihedral_kamada_module(base, A):
    """The constant module (phi, psi, eta) = (id, 0, -id)."""
    r = A.rank
    ident = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    zero = [[0] * r for _ in range(r)]
    neg = [[-1 if i == j else 0 for j in range(r)] for i in range(r)]
    return constant_module(base, A, ident, zero, neg)
