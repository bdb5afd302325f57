"""Command-line front end for validation, enumeration, cohomology, extensions.

Every command prints a human-readable summary followed by a machine block;
--json restricts output to the JSON document alone.  Exit codes: 0 success,
1 usage error, 2 validation failure, 3 internal verification failure.
"""

import argparse
import functools
import json
import sys

from .abelian import AbHom
from .cohomology import THEORY_SQ, THEORY_SR, cohomology_presentation, is_cocycle
from .dynamical import (
    DynamicalCocycle,
    are_cohomologous_dynamical,
    build_extension,
    dynamical_diagnostics,
    from_group_extension,
)
from .errors import SymqError, ValidationError
from .racks import QUANDLE, cycle_notation, enumerate_automorphisms, enumerate_good_involutions
from .serialize import (
    _hom,
    _int_value,
    load_cochain,
    load_dynamical,
    load_group,
    load_module,
    load_rack,
    rack_to_dict,
)
from .wells import AutPair, build_abelian_extension, extend_pair, lambda_map, wells_report


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; validation problems exit 2 elsewhere
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_FLAGS = dict.fromkeys(("rack", "module", "cocycle", "group", "dynamical", "other"),
                       {"metavar": "FILE"})
_FLAGS.update({
    "theory": {"choices": (THEORY_SR, THEORY_SQ)},
    "degree": {"type": int, "choices": (1, 2), "default": 2},
    "basepoint": {"type": int, "default": 0},
    "sub": {"metavar": "ELEMS", "help": "comma-separated subgroup elements"},
    "flavor": {"choices": ("conj", "core", "core_z"), "default": "conj"},
    "n": {"type": int, "default": 1, "help": "conjugation power"},
    "z": {"type": int, "help": "central involution for core_z"},
    "zeta": {"metavar": "WORD", "help": "comma-separated permutation word"},
    "theta": {"metavar": "MATRIX", "help": "JSON matrix or scalar"},
})


@functools.cache
def _build_parser():
    # built on the first request, not at import; it costs more than many requests
    parser = _Parser(prog="symq", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="verb", parser_class=_Parser, required=True)

    def add(name, flags, help, actions=None, bound=None):
        # each verb takes exactly the flags its command reads; actions maps
        # each action to the flags that only it reads, checked in main
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        if actions:
            p.add_argument("action", nargs="?", default=next(iter(actions)), choices=actions)
            p.set_defaults(action_flags=actions)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        if bound:
            p.add_argument("--bound", type=int, help=bound)
        p.add_argument("--json", action="store_true", help="print only the JSON block")

    add("check", "rack module cocycle group theory basepoint",
        "validate rack/module/cocycle/group files")
    add("involutions", "rack", "enumerate good involutions of a rack",
        bound="candidate values of rho the search may try")
    add("aut", "rack", "enumerate symmetric rack automorphisms",
        bound="candidate images the search may try")
    add("from-group", "group sub flavor n z",
        "split a group extension into a dynamical cocycle")
    add("cohomology", "rack module cocycle theory degree basepoint",
        "cocycles, coboundaries and H in degree 1 or 2")
    add("dynamical", "rack dynamical other theory",
        "validate dynamical data, build its extension, test equivalence",
        actions={"validate": "", "extend": "", "equiv": "other bound"},
        bound="candidate images the gauge search may try")
    add("extension", "rack module cocycle theory",
        "build the affine extension of a module cocycle")
    add("wells", "rack module cocycle theory zeta theta",
        "symmetry sequence report, or lift one pair",
        actions={"report": "bound", "extend": "zeta theta"},
        bound="candidate rack images, candidate fiber maps and 1-cocycles, each")
    return parser


def _usage(message):
    print(f"symq: error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _require(args, flag):
    value = getattr(args, flag)
    if value is None:
        _usage(f"--{flag} is required for this command")
    return value


def _int_list(args, flag):
    raw = _require(args, flag)
    try:
        return [int(v) for v in raw.split(",")]
    except ValueError:
        _usage(f"--{flag} must be comma-separated integers")


def _emit(args, lines, data):
    text = json.dumps(data, indent=2, sort_keys=True)
    if args.json:
        print(text)
    else:
        for line in lines:
            print(line)
        print("--- json ---")
        print(text)


def _default_theory(args, X):
    if args.theory is not None:
        return args.theory
    return THEORY_SQ if X.kind == QUANDLE else THEORY_SR


def _load_triple(args):
    X = load_rack(_require(args, "rack"))
    m = load_module(_require(args, "module"), X)
    c = load_cochain(_require(args, "cocycle"), X.size, m.A)
    return X, m, c


def _perm_entry(word):
    return {"cycles": cycle_notation(word), "word": list(word)}


def cmd_check(args):
    lines, data = [], {}
    if args.rack is None and args.group is None:
        _usage("check needs --rack and/or --group")
    if args.module is not None and args.rack is None:
        _usage("--module needs --rack")
    if args.cocycle is not None and args.module is None:
        _usage("--cocycle needs --module")
    if args.rack is not None:
        X = load_rack(args.rack)
        lines.append(f"rack: ok ({X.kind}, size {X.size})")
        data["rack"] = {"ok": True, "kind": X.kind, "size": X.size}
        if args.module is not None:
            m = load_module(args.module, X)
            lines.append(f"module: ok ({m.A}, constant={m.constant})")
            data["module"] = {"ok": True, "group": str(m.A), "constant": m.constant}
            if args.cocycle is not None:
                theory = _default_theory(args, X)
                c = load_cochain(args.cocycle, X.size, m.A)
                ok, diags = is_cocycle(m, c, theory, args.basepoint)
                if not ok:
                    raise ValidationError("cocycle conditions fail", diags)
                lines.append(f"cocycle: ok (degree {c.degree}, theory {theory})")
                data["cocycle"] = {"ok": True, "degree": c.degree, "theory": theory}
    if args.group is not None:
        G = load_group(args.group)
        lines.append(f"group: ok (size {G.size}, id {G.identity})")
        data["group"] = {"ok": True, "size": G.size, "id": G.identity}
    _emit(args, lines, data)
    return 0


def _emit_words(args, key, label, words):
    lines = [f"{label}: {len(words)}"] + [f"{cycle_notation(w)} | {list(w)}" for w in words]
    _emit(args, lines, {"count": len(words), key: [_perm_entry(w) for w in words]})


def cmd_involutions(args):
    words = enumerate_good_involutions(load_rack(_require(args, "rack")).rack, args.bound)
    _emit_words(args, "involutions", "good involutions", words)
    return 0


def cmd_aut(args):
    words = enumerate_automorphisms(load_rack(_require(args, "rack")), args.bound)
    _emit_words(args, "automorphisms", "automorphisms", words)
    return 0


def cmd_from_group(args):
    G = load_group(_require(args, "group"))
    sub = _int_list(args, "sub")
    if args.flavor == "core_z" and args.z is None:
        _usage("--z is required for flavor core_z")
    split = from_group_extension(G, sub, flavor=args.flavor, n=args.n, z=args.z)
    fibers = list(split.cocycle.sizes)
    lines = [
        f"flavor: {split.flavor}",
        f"quotient size: {split.quotient.size}",
        f"fibers: {fibers}",
        f"section kappa: {list(split.kappa)}",
        "theta table:",
    ]
    theta = {f"{x},{y}": v for (x, y), v in sorted(split.theta.items())}
    lines += [f"  theta({k}) = {v}" for k, v in theta.items()]
    lines.append("isomorphism verified: true")
    data = {
        "flavor": split.flavor,
        "quotient_size": split.quotient.size,
        "coset_of": list(split.coset_of),
        "fibers": fibers,
        "kappa": list(split.kappa),
        "theta": theta,
        "verified": True,
    }
    _emit(args, lines, data)
    return 0


def cmd_cohomology(args):
    X = load_rack(_require(args, "rack"))
    m = load_module(_require(args, "module"), X)
    theory = _default_theory(args, X)
    pres = cohomology_presentation(m, args.degree, theory, args.basepoint)
    label = f"H{args.degree}_{theory.upper()}"
    z, b = pres.cocycle_group(), pres.coboundary_group()
    lines = [f"{label} = {pres.group}", f"Z{args.degree} = {z}", f"B{args.degree} = {b}"]
    data = {
        "degree": args.degree,
        "theory": theory,
        "basepoint": args.basepoint,
        "h": str(pres.group),
        "invariant_factors": list(pres.group.orders),
        "z": str(z),
        "b": str(b),
    }
    if args.cocycle is not None:
        c = load_cochain(args.cocycle, X.size, m.A)
        if c.degree != args.degree:
            raise ValidationError(
                f"cocycle degree {c.degree} does not match --degree {args.degree}"
            )
        ok, diags = is_cocycle(m, c, theory, args.basepoint)
        if not ok:
            raise ValidationError("cocycle conditions fail", diags)
        cls = pres.project(c)
        lines.append(f"class = {list(cls)}")
        data["class"] = list(cls)
    _emit(args, lines, data)
    return 0


def _quandle_flag(args):
    if args.theory is None:
        return None
    return args.theory == THEORY_SQ


def cmd_dynamical(args):
    X = load_rack(_require(args, "rack"))
    quandle = _quandle_flag(args)
    if args.action in ("validate", "extend"):
        sizes, alpha, beta = load_dynamical(_require(args, "dynamical"), X)
        if args.action == "validate":
            diags = dynamical_diagnostics(X, sizes, alpha, beta, quandle)
            if diags:
                raise ValidationError("dynamical conditions fail", diags)
            lines = [f"dynamical cocycle: ok (fibers {list(sizes)})"]
            _emit(args, lines, {"ok": True, "fibers": list(sizes)})
            return 0
        dc = DynamicalCocycle(X, sizes, alpha, beta, quandle)
        ext = build_extension(dc)
        lines = [
            f"total: size {ext.rack.size} ({ext.rack.kind})",
            f"labels: {[list(p) for p in ext.labels]}",
        ]
        data = {
            "size": ext.rack.size,
            "kind": ext.rack.kind,
            "labels": [list(p) for p in ext.labels],
            "rack": rack_to_dict(ext.rack),
        }
        _emit(args, lines, data)
        return 0
    dc1 = DynamicalCocycle(X, *load_dynamical(_require(args, "dynamical"), X), quandle=quandle)
    dc2 = DynamicalCocycle(X, *load_dynamical(_require(args, "other"), X), quandle=quandle)
    gauge = are_cohomologous_dynamical(dc1, dc2, args.bound)
    if gauge is None:
        _emit(args, ["NOT EQUIVALENT"], {"equivalent": False})
        return 0
    lines = ["EQUIVALENT"]
    lines += [f"  gamma_{x} = {list(p)}" for x, p in enumerate(gauge.perms)]
    _emit(args, lines, {"equivalent": True, "gauge": [list(p) for p in gauge.perms]})
    return 0


def cmd_extension(args):
    _, m, c = _load_triple(args)
    ext = build_abelian_extension(m, c, args.theory)
    if ext.extension is None:
        lines = ["total: infinite fiber group; table kept symbolic"]
        data = {"size": None, "kind": None, "theory": ext.theory}
        _emit(args, lines, data)
        return 0
    labels = [[x, list(m.A.element(s))] for x, s in ext.extension.labels]
    lines = [
        f"total: size {ext.rack.size} ({ext.rack.kind})",
        f"labels: {labels}",
    ]
    data = {
        "size": ext.rack.size,
        "kind": ext.rack.kind,
        "theory": ext.theory,
        "labels": labels,
        "rack": rack_to_dict(ext.rack),
    }
    _emit(args, lines, data)
    return 0


def _parse_pair(args, m):
    zeta = tuple(_int_list(args, "zeta"))
    try:
        spec = json.loads(_require(args, "theta"))
    except json.JSONDecodeError:
        _usage("--theta must be a JSON matrix or scalar")
    if isinstance(spec, list):
        return AutPair(zeta, _hom(m.A, spec, "--theta"))
    return AutPair(zeta, AbHom.scalar(m.A, _int_value(spec, "--theta")))


def cmd_wells(args):
    _, m, c = _load_triple(args)
    ext = build_abelian_extension(m, c, args.theory)
    if args.action == "extend":
        pair = _parse_pair(args, m)
        lift = extend_pair(ext, pair)
        if lift is None:
            cls = lambda_map(ext, pair)
            _emit(args, [f"OBSTRUCTED: class={list(cls)}"],
                  {"obstructed": True, "class": list(cls)})
            return 0
        lines = [
            f"zeta: {cycle_notation(pair.zeta)} | {list(pair.zeta)}",
            f"theta: {[list(r) for r in pair.theta.matrix]}",
            f"lambda: {[list(v) for v in lift.lam.values]}",
        ]
        data = {
            "obstructed": False,
            "zeta": _perm_entry(pair.zeta),
            "theta": [list(r) for r in pair.theta.matrix],
            "lambda": [list(v) for v in lift.lam.values],
        }
        if lift.perm is not None:
            lines.append(f"xi: {cycle_notation(lift.perm)} | {list(lift.perm)}")
            data["xi"] = _perm_entry(lift.perm)
        _emit(args, lines, data)
        return 0
    rep = wells_report(ext, args.bound)
    lines = [
        f"pairs: {len(rep.pairs)}",
        f"Z1: {rep.z1_size}",
        f"kernel: {rep.kernel_size}",
        f"image: {rep.image_size}",
        f"aut: {rep.aut_size}",
        f"exact: {rep.exact}",
        "Lambda:",
    ]
    for p, cls in zip(rep.pairs, rep.classes):
        theta = [list(r) for r in p.theta.matrix]
        lines.append(f"  zeta={cycle_notation(p.zeta)} theta={theta} class={list(cls)}")
    _emit(args, lines, rep.as_dict())
    return 0 if rep.exact else 3


_DISPATCH = {
    "check": cmd_check,
    "involutions": cmd_involutions,
    "aut": cmd_aut,
    "from-group": cmd_from_group,
    "cohomology": cmd_cohomology,
    "dynamical": cmd_dynamical,
    "extension": cmd_extension,
    "wells": cmd_wells,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    for action, flags in getattr(args, "action_flags", {}).items():
        for flag in flags.split():
            if action != args.action and getattr(args, flag) is not None:
                _usage(f"--{flag} is not read by '{args.verb} {args.action}'")
    try:
        return _DISPATCH[args.verb](args)
    except ValidationError as exc:
        print(exc.report(), file=sys.stderr)
        return 2
    except SymqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
