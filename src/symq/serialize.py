"""JSON files for racks, groups, modules, cochains and dynamical data.

Schemas, all indices 0-based:

  rack      {"size": n, "table": [[..]], "rho": [..], "kind": "rack"|"quandle"}
  group     {"size": n, "mul": [[..]], "id": e}
  module    {"group": {"invariant_factors": [d1, .., dr]},
             "phi": {"constant": M} | {"by_pair": {"x,y": M, ..}},
             "psi": likewise,
             "eta": {"constant": M} | {"by_element": {"x": M, ..}}}
            where M is an r x r integer matrix, rows indexing the target
            coordinates, and invariant factor 0 means an infinite cyclic
            summand
  cochain   {"degree": k, "values": {"x1,..,xk": [r ints], ..}}
  dynamical {"fibers": {"x": size, ..}, "alpha": {"x,y": [[..]], ..},
             "beta": {"x": [..], ..}} with alpha["x,y"][s][t] in S_{x*y}

An object has exactly the fields shown, and a phi/psi/eta spec exactly one
of its two forms.  A keyed table has the key "x1,..,xk" (plain decimals)
for every k-tuple of base elements and no other key.  Loaders validate what
they build (rack axioms, group axioms, module axioms); parse problems raise
ValidationError naming the broken field or key.  A rack or group larger than
limits.TABLE_SIZE, or fibers gluing one, is refused before its table is parsed.
"""

import json
from importlib.resources import files
from itertools import product

from . import limits
from .abelian import AbGroup, AbHom
from .cohomology import Cochain, _complex
from .errors import ValidationError
from .groups import FiniteGroup
from .modules import RackModule, validate_module
from .racks import QUANDLE, RACK, validate_good_involution, validate_rack


def fixture_path(name):
    """Path of a bundled example file, e.g. fixture_path('rack_t2.json')."""
    return files("symq") / "fixtures" / name


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}"
        )


def save_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fields(obj, names, where):
    """The values of the named fields of an object that has no other field."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    for field in list(names) + list(obj):  # a missing field is named before a stray one
        if field not in obj:
            raise ValidationError(f"{where}: missing field '{field}'")
        if field not in names:
            raise ValidationError(f"{where}: unexpected field '{field}'")
    return [obj[field] for field in names]


def _int_value(v, where):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValidationError(f"{where}: expected an integer")
    return v


def _int_vector(v, where):
    if not isinstance(v, list):
        raise ValidationError(f"{where}: expected a list of integers")
    return [_int_value(x, where) for x in v]


def _table_size(v, where):
    if _int_value(v, where) > limits.TABLE_SIZE:
        raise ValidationError(f"{where}: {v} is above limits.TABLE_SIZE = {limits.TABLE_SIZE}")
    return v


def _int_matrix(v, where):
    if not isinstance(v, list):
        raise ValidationError(f"{where}: expected a list of rows")
    return [_int_vector(r, f"{where}[{i}]") for i, r in enumerate(v)]


def _key(tup):
    return ",".join(map(str, tup))


def _table(entries, arity, size, where, parse):
    """parse(value, where) of the entry at each arity-tuple over 0..size-1.

    Entries come back in lexicographic tuple order.  The first missing key
    is found without listing the keys first, so a huge arity fails at once;
    once every key is present, any other key is refused.
    """
    if not isinstance(entries, dict):
        raise ValidationError(f"{where}: expected an object")
    out = []
    for tup in product(range(size), repeat=arity):
        key = _key(tup)
        if key not in entries:
            raise ValidationError(f"{where}: missing key '{key}'")
        out.append(parse(entries[key], f"{where}['{key}']"))
    if len(entries) > len(out):
        keys = set(map(_key, product(range(size), repeat=arity)))
        stray = next(k for k in entries if k not in keys)
        raise ValidationError(f"{where}: unexpected key '{stray}'")
    return out


def _keyed(n, arity, value):
    return {_key(t): value(*t) for t in product(range(n), repeat=arity)}


def _rows(flat, n):
    return [flat[i:i + n] for i in range(0, n * n, n)]


def _lists(rows):
    return [list(r) for r in rows]


# ---------------------------------------------------------------- racks


def rack_from_dict(obj, where="rack"):
    size, table, rho, kind = _fields(obj, ("size", "table", "rho", "kind"), where)
    size = _table_size(size, f"{where}.size")
    table = _int_matrix(table, f"{where}.table")
    rho = _int_vector(rho, f"{where}.rho")
    if kind not in (RACK, QUANDLE):
        raise ValidationError(f"{where}.kind: must be 'rack' or 'quandle'")
    if len(table) != size:
        raise ValidationError(f"{where}.table: expected {size} rows")
    if len(rho) != size:
        raise ValidationError(f"{where}.rho: expected {size} entries")
    try:
        rack = validate_rack(table, kind)
        return validate_good_involution(rack, rho)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}")


def rack_to_dict(X):
    return {
        "size": X.size,
        "table": _lists(X.rack.table),
        "rho": list(X.rho),
        "kind": X.kind,
    }


def load_rack(path):
    return rack_from_dict(load_json(path), where=str(path))


def save_rack(X, path):
    save_json(rack_to_dict(X), path)


# ---------------------------------------------------------------- groups


def group_from_dict(obj, where="group"):
    size, mul, ident = _fields(obj, ("size", "mul", "id"), where)
    size = _table_size(size, f"{where}.size")
    mul = _int_matrix(mul, f"{where}.mul")
    ident = _int_value(ident, f"{where}.id")
    if len(mul) != size:
        raise ValidationError(f"{where}.mul: expected {size} rows")
    if ident < 0 or ident >= size:
        raise ValidationError(f"{where}.id: out of range")
    try:
        return FiniteGroup(mul, identity=ident)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}")


def group_to_dict(G):
    return {"size": G.size, "mul": _lists(G.mul), "id": G.identity}


def load_group(path):
    return group_from_dict(load_json(path), where=str(path))


def save_group(G, path):
    save_json(group_to_dict(G), path)


# ---------------------------------------------------------------- modules


def _hom(A, raw, where):
    try:
        return AbHom(A, A, _int_matrix(raw, where))
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}")


def _hom_table(A, spec, arity, n, where):
    """phi/psi (arity 2) or eta (arity 1): one constant map or a keyed table."""
    keyed = "by_pair" if arity == 2 else "by_element"
    form = "constant" if isinstance(spec, dict) and "constant" in spec else keyed
    (value,) = _fields(spec, (form,), where)
    if form == "constant":
        flat = [_hom(A, value, f"{where}.constant")] * n**arity
    else:
        flat = _table(value, arity, n, f"{where}.{keyed}", lambda v, w: _hom(A, v, w))
    return _rows(flat, n) if arity == 2 else flat


def module_from_dict(obj, base, where="module"):
    gspec, phi, psi, eta = _fields(obj, ("group", "phi", "psi", "eta"), where)
    (factors,) = _fields(gspec, ("invariant_factors",), f"{where}.group")
    factors = _int_vector(factors, f"{where}.group.invariant_factors")
    if any(d < 0 for d in factors):
        raise ValidationError(f"{where}.group.invariant_factors: must be >= 0")
    A = AbGroup(tuple(factors))
    n = base.size
    phi = _hom_table(A, phi, 2, n, f"{where}.phi")
    psi = _hom_table(A, psi, 2, n, f"{where}.psi")
    eta = _hom_table(A, eta, 1, n, f"{where}.eta")
    m = RackModule(base, A, phi, psi, eta)
    check = validate_module(m)
    if not check.ok:
        raise ValidationError("module axioms fail", check.diagnostics)
    _complex(m)._pieces[("module",)] = check  # kept where every extension build reads it
    return m


def module_to_dict(m):
    out = {"group": {"invariant_factors": list(m.A.orders)}}
    n = m.base.size
    if m.constant:
        out["phi"] = {"constant": _lists(m.phi[0][0].matrix)}
        out["psi"] = {"constant": _lists(m.psi[0][0].matrix)}
        out["eta"] = {"constant": _lists(m.eta[0].matrix)}
    else:
        out["phi"] = {"by_pair": _keyed(n, 2, lambda x, y: _lists(m.phi[x][y].matrix))}
        out["psi"] = {"by_pair": _keyed(n, 2, lambda x, y: _lists(m.psi[x][y].matrix))}
        out["eta"] = {"by_element": _keyed(n, 1, lambda x: _lists(m.eta[x].matrix))}
    return out


def load_module(path, base):
    return module_from_dict(load_json(path), base, where=str(path))


def save_module(m, path):
    save_json(module_to_dict(m), path)


# --------------------------------------------------------------- cochains


def cochain_from_dict(obj, size, group, where="cocycle"):
    degree, values = _fields(obj, ("degree", "values"), where)
    degree = _int_value(degree, f"{where}.degree")
    if degree < 0:
        raise ValidationError(f"{where}.degree: must be >= 0")

    def coordinates(v, w):
        vec = _int_vector(v, w)
        if len(vec) != group.rank:
            raise ValidationError(f"{w}: expected {group.rank} coordinates")
        return tuple(vec)

    values = _table(values, degree, size, f"{where}.values", coordinates)
    return Cochain(degree, size, group, values)


def cochain_to_dict(c):
    keys = map(_key, product(range(c.size), repeat=c.degree))
    return {"degree": c.degree, "values": dict(zip(keys, map(list, c.values)))}


def load_cochain(path, size, group):
    return cochain_from_dict(load_json(path), size, group, where=str(path))


def save_cochain(c, path):
    save_json(cochain_to_dict(c), path)


# -------------------------------------------------------------- dynamical


def _positive(v, where):
    if _int_value(v, where) <= 0:
        raise ValidationError(f"{where}: must be positive")
    return v


def dynamical_from_dict(obj, base, where="dynamical"):
    """Raw (sizes, alpha, beta) tables; validation is the caller's verb."""
    n = base.size
    sizes, alpha, beta = _fields(obj, ("fibers", "alpha", "beta"), where)
    sizes = _table(sizes, 1, n, f"{where}.fibers", _positive)
    _table_size(sum(sizes), f"{where}.fibers total")  # the glued table, before alpha is read
    alpha = _table(alpha, 2, n, f"{where}.alpha", _int_matrix)
    beta = _table(beta, 1, n, f"{where}.beta", _int_vector)
    return tuple(sizes), _rows(alpha, n), beta


def dynamical_to_dict(dc):
    n = dc.base.size
    return {
        "fibers": _keyed(n, 1, lambda x: dc.sizes[x]),
        "alpha": _keyed(n, 2, lambda x, y: _lists(dc.alpha[x][y])),
        "beta": _keyed(n, 1, lambda x: list(dc.beta[x])),
    }


def load_dynamical(path, base):
    return dynamical_from_dict(load_json(path), base, where=str(path))


def save_dynamical(dc, path):
    save_json(dynamical_to_dict(dc), path)
