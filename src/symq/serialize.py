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
  cochain   {"degree": k, "values": {"x1,..,xk": [r ints], ..}} with every
            tuple present
  dynamical {"fibers": {"x": size, ..}, "alpha": {"x,y": [[..]], ..},
             "beta": {"x": [..], ..}} with alpha["x,y"][s][t] in S_{x*y}

Loaders validate what they build (rack axioms, group axioms, module
axioms); parse problems raise ValidationError naming the broken field.
"""

import json
from importlib.resources import files
from itertools import product

from .abelian import AbGroup, AbHom
from .cohomology import Cochain
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


def _need(obj, field, where):
    if not isinstance(obj, dict):
        raise ValidationError(f"{where}: expected an object")
    if field not in obj:
        raise ValidationError(f"{where}: missing field '{field}'")
    return obj[field]


def _int_value(v, where):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValidationError(f"{where}: expected an integer")
    return v


def _int_vector(v, where):
    if not isinstance(v, list):
        raise ValidationError(f"{where}: expected a list of integers")
    return [_int_value(x, where) for x in v]


def _int_matrix(v, where):
    if not isinstance(v, list):
        raise ValidationError(f"{where}: expected a list of rows")
    return [_int_vector(r, f"{where}[{i}]") for i, r in enumerate(v)]


def _key_tuple(key, arity, size, where):
    parts = key.split(",") if key else []
    if len(parts) != arity:
        raise ValidationError(f"{where}: key '{key}' must have {arity} indices")
    try:
        tup = tuple(int(p) for p in parts)
    except ValueError:
        raise ValidationError(f"{where}: key '{key}' is not a tuple of integers")
    if any(v < 0 or v >= size for v in tup):
        raise ValidationError(f"{where}: key '{key}' out of range 0..{size - 1}")
    return tup


# ---------------------------------------------------------------- racks


def rack_from_dict(obj, where="rack"):
    size = _int_value(_need(obj, "size", where), f"{where}.size")
    table = _int_matrix(_need(obj, "table", where), f"{where}.table")
    rho = _int_vector(_need(obj, "rho", where), f"{where}.rho")
    kind = _need(obj, "kind", where)
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
        "table": [list(r) for r in X.rack.table],
        "rho": list(X.rho),
        "kind": X.kind,
    }


def load_rack(path):
    return rack_from_dict(load_json(path), where=str(path))


def save_rack(X, path):
    save_json(rack_to_dict(X), path)


# ---------------------------------------------------------------- groups


def group_from_dict(obj, where="group"):
    size = _int_value(_need(obj, "size", where), f"{where}.size")
    mul = _int_matrix(_need(obj, "mul", where), f"{where}.mul")
    ident = _int_value(_need(obj, "id", where), f"{where}.id")
    if len(mul) != size:
        raise ValidationError(f"{where}.mul: expected {size} rows")
    if ident < 0 or ident >= size:
        raise ValidationError(f"{where}.id: out of range")
    try:
        return FiniteGroup(mul, identity=ident)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}")


def group_to_dict(G):
    return {"size": G.size, "mul": [list(r) for r in G.mul], "id": G.identity}


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


def _pair_table(A, spec, n, where):
    if not isinstance(spec, dict):
        raise ValidationError(f"{where}: expected an object")
    if "constant" in spec:
        h = _hom(A, spec["constant"], f"{where}.constant")
        return [[h] * n for _ in range(n)]
    if "by_pair" in spec:
        entries = spec["by_pair"]
        table = []
        for x in range(n):
            row = []
            for y in range(n):
                key = f"{x},{y}"
                if not isinstance(entries, dict) or key not in entries:
                    raise ValidationError(f"{where}.by_pair: missing key '{key}'")
                row.append(_hom(A, entries[key], f"{where}.by_pair['{key}']"))
            table.append(row)
        for key in entries:
            _key_tuple(key, 2, n, f"{where}.by_pair")
        return table
    raise ValidationError(f"{where}: needs 'constant' or 'by_pair'")


def _element_table(A, spec, n, where):
    if not isinstance(spec, dict):
        raise ValidationError(f"{where}: expected an object")
    if "constant" in spec:
        h = _hom(A, spec["constant"], f"{where}.constant")
        return [h] * n
    if "by_element" in spec:
        entries = spec["by_element"]
        table = []
        for x in range(n):
            key = str(x)
            if not isinstance(entries, dict) or key not in entries:
                raise ValidationError(f"{where}.by_element: missing key '{key}'")
            table.append(_hom(A, entries[key], f"{where}.by_element['{key}']"))
        for key in entries:
            _key_tuple(key, 1, n, f"{where}.by_element")
        return table
    raise ValidationError(f"{where}: needs 'constant' or 'by_element'")


def module_from_dict(obj, base, where="module"):
    gspec = _need(obj, "group", where)
    factors = _int_vector(
        _need(gspec, "invariant_factors", f"{where}.group"),
        f"{where}.group.invariant_factors",
    )
    if any(d < 0 for d in factors):
        raise ValidationError(f"{where}.group.invariant_factors: must be >= 0")
    A = AbGroup(tuple(factors))
    n = base.size
    phi = _pair_table(A, _need(obj, "phi", where), n, f"{where}.phi")
    psi = _pair_table(A, _need(obj, "psi", where), n, f"{where}.psi")
    eta = _element_table(A, _need(obj, "eta", where), n, f"{where}.eta")
    m = RackModule(base, A, phi, psi, eta)
    check = validate_module(m)
    if not check.ok:
        raise ValidationError("module axioms fail", check.diagnostics)
    return m


def module_to_dict(m):
    out = {"group": {"invariant_factors": list(m.A.orders)}}
    n = m.base.size
    if m.constant:
        out["phi"] = {"constant": [list(r) for r in m.phi[0][0].matrix]}
        out["psi"] = {"constant": [list(r) for r in m.psi[0][0].matrix]}
        out["eta"] = {"constant": [list(r) for r in m.eta[0].matrix]}
    else:
        out["phi"] = {
            "by_pair": {
                f"{x},{y}": [list(r) for r in m.phi[x][y].matrix]
                for x in range(n)
                for y in range(n)
            }
        }
        out["psi"] = {
            "by_pair": {
                f"{x},{y}": [list(r) for r in m.psi[x][y].matrix]
                for x in range(n)
                for y in range(n)
            }
        }
        out["eta"] = {
            "by_element": {
                str(x): [list(r) for r in m.eta[x].matrix] for x in range(n)
            }
        }
    return out


def load_module(path, base):
    return module_from_dict(load_json(path), base, where=str(path))


def save_module(m, path):
    save_json(module_to_dict(m), path)


# --------------------------------------------------------------- cochains


def cochain_from_dict(obj, size, group, where="cocycle"):
    degree = _int_value(_need(obj, "degree", where), f"{where}.degree")
    if degree < 0:
        raise ValidationError(f"{where}.degree: must be >= 0")
    entries = _need(obj, "values", where)
    if not isinstance(entries, dict):
        raise ValidationError(f"{where}.values: expected an object")
    values = []
    for tup in product(range(size), repeat=degree):
        key = ",".join(str(v) for v in tup)
        if key not in entries:
            raise ValidationError(f"{where}.values: missing key '{key}'")
        vec = _int_vector(entries[key], f"{where}.values['{key}']")
        if len(vec) != group.rank:
            raise ValidationError(
                f"{where}.values['{key}']: expected {group.rank} coordinates"
            )
        values.append(tuple(vec))
    for key in entries:
        _key_tuple(key, degree, size, f"{where}.values")
    return Cochain(degree, size, group, values)


def cochain_to_dict(c):
    return {
        "degree": c.degree,
        "values": {
            ",".join(str(v) for v in tup): list(val)
            for tup, val in zip(product(range(c.size), repeat=c.degree), c.values)
        },
    }


def load_cochain(path, size, group):
    return cochain_from_dict(load_json(path), size, group, where=str(path))


def save_cochain(c, path):
    save_json(cochain_to_dict(c), path)


# -------------------------------------------------------------- dynamical


def dynamical_from_dict(obj, base, where="dynamical"):
    """Raw (sizes, alpha, beta) tables; validation is the caller's verb."""
    n = base.size
    fibers = _need(obj, "fibers", where)
    sizes = []
    for x in range(n):
        key = str(x)
        if not isinstance(fibers, dict) or key not in fibers:
            raise ValidationError(f"{where}.fibers: missing key '{key}'")
        sz = _int_value(fibers[key], f"{where}.fibers['{key}']")
        if sz <= 0:
            raise ValidationError(f"{where}.fibers['{key}']: must be positive")
        sizes.append(sz)
    alpha_spec = _need(obj, "alpha", where)
    alpha = []
    for x in range(n):
        row = []
        for y in range(n):
            key = f"{x},{y}"
            if not isinstance(alpha_spec, dict) or key not in alpha_spec:
                raise ValidationError(f"{where}.alpha: missing key '{key}'")
            row.append(_int_matrix(alpha_spec[key], f"{where}.alpha['{key}']"))
        alpha.append(row)
    beta_spec = _need(obj, "beta", where)
    beta = []
    for x in range(n):
        key = str(x)
        if not isinstance(beta_spec, dict) or key not in beta_spec:
            raise ValidationError(f"{where}.beta: missing key '{key}'")
        beta.append(_int_vector(beta_spec[key], f"{where}.beta['{key}']"))
    return tuple(sizes), alpha, beta


def dynamical_to_dict(dc):
    n = dc.base.size
    return {
        "fibers": {str(x): dc.sizes[x] for x in range(n)},
        "alpha": {
            f"{x},{y}": [list(r) for r in dc.alpha[x][y]]
            for x in range(n)
            for y in range(n)
        },
        "beta": {str(x): list(dc.beta[x]) for x in range(n)},
    }


def load_dynamical(path, base):
    return dynamical_from_dict(load_json(path), base, where=str(path))


def save_dynamical(dc, path):
    save_json(dynamical_to_dict(dc), path)
