"""The benchmark's workloads: seeded inputs and checked tasks.

`build(workload, seed, workdir)` makes every input of one workload and
returns its fixed task list.  A task runs one public-API call (or one
in-process CLI request) and checks the answer against a value that does
not depend on the seed: group invariants, report orders, exactness flags,
verdicts, exit codes and invariant JSON fields.  Those values were computed
on unrelabelled inputs and are isomorphism invariants, so any relabelling
must reproduce them.
"""

import contextlib
import io
import json

import symq
import symq.cli

import relabel

WORKLOADS = ("presentation", "wells", "chain", "cli_mix")


class Task:
    __slots__ = ("name", "run", "check", "headline")

    def __init__(self, name, run, check, headline=False):
        self.name = name
        self.run = run  # () -> result
        self.check = check  # result -> None, or a description of the mismatch
        self.headline = headline


def _expect(label, got, want):
    return None if got == want else f"{label} {got!r}, expected {want!r}"


def _group_name(orders):
    return "x".join("Z" if d == 0 else f"Z{d}" for d in orders)


HEADLINE_COPIES = 3


def _copies(name, headline):
    """Task names for one instance: the headline runs on several relabellings,
    so that its time does not hang on a single relabelling."""
    if not headline:
        return [name]
    return [f"{name}#{k}" for k in range(1, HEADLINE_COPIES + 1)]


def _fixture_rack(name, seed, key=None):
    X = symq.load_rack(symq.fixture_path(f"rack_{name}.json"))
    return relabel.rack(X, relabel.permutation(seed, key or name, X.size))


# ---------------------------------------------------------------- presentation

# (n, A, theory, degree, invariant factors of H); the first is the headline
PRESENTATION = [
    (4, (4,), "sq", 2, (2, 2)),
    (4, (4,), "sr", 2, (2, 2, 2, 2)),
    (3, (4,), "sq", 2, ()),
    (3, (4,), "sr", 2, (2,)),
    (3, (2, 2), "sr", 2, (2, 2)),
    (5, (0,), "sq", 2, ()),
    (8, (4,), "sq", 1, (2, 2)),
]


def _presentation(seed, workdir):
    tasks = []
    for i, (n, orders, theory, degree, want) in enumerate(PRESENTATION):
        for name in _copies(f"t{n}/{_group_name(orders)}/{theory}/d{degree}", i == 0):
            X = relabel.rack(symq.takasaki(n), relabel.permutation(seed, name, n))
            m = symq.dihedral_kamada_module(X, symq.AbGroup(orders))
            tasks.append(Task(
                name,
                lambda m=m, degree=degree, theory=theory: symq.cohomology_presentation(m, degree, theory),
                lambda pres, want=want: _expect("H", tuple(pres.group.orders), want),
                headline=i == 0,
            ))
    return tasks


# ----------------------------------------------------------------------- wells

# (rack fixture, A, theory, cocycle, (pairs, z1, kernel, image, aut)); the first is the headline
WELLS = [
    ("takasaki3", (4,), "sr", "zero", (12, 2, 2, 12, 24)),
    ("takasaki3", (2,), "sq", "zero", (6, 2, 2, 6, 12)),
    ("t2", (4,), "sr", "fixture", (4, 4, 4, 2, 8)),
    ("t2", (3,), "sq", "zero", (4, 3, 3, 4, 12)),
]


def _wells(seed, workdir):
    tasks = []
    for i, (rack, orders, theory, cocycle, want) in enumerate(WELLS):
        A = symq.AbGroup(orders)
        X0 = symq.load_rack(symq.fixture_path(f"rack_{rack}.json"))
        if cocycle == "zero":
            sigma0 = symq.Cochain.zero(2, X0.size, A)
        else:
            sigma0 = symq.load_cochain(symq.fixture_path(f"cocycle_{rack}_z4.json"), X0.size, A)
        for name in _copies(f"{rack}/{_group_name(orders)}/{theory}/{cocycle}", i == 0):
            perm = relabel.permutation(seed, name, X0.size)
            m = symq.dihedral_kamada_module(relabel.rack(X0, perm), A)
            sigma = relabel.cochain(sigma0, perm)

            def run(m=m, sigma=sigma, theory=theory):
                ext = symq.build_abelian_extension(m, sigma, theory)
                return symq.wells_report(ext)

            def check(rep, want=want):
                got = (len(rep.pairs), rep.z1_size, rep.kernel_size, rep.image_size, rep.aut_size)
                flags = (rep.exact_at_cocycles, rep.exact_at_symmetries, rep.exact_at_pairs)
                return _expect("orders", got, want) or _expect("exactness", flags, (True,) * 3)

            tasks.append(Task(name, run, check, headline=i == 0))
    return tasks


# ----------------------------------------------------------------------- chain

CHAIN_RACKS = ("t2", "takasaki3", "t4", "core_z4")
CHAIN_MODULES = ("m0_z", "m0_z4", "tw_z3")
CHAIN_DEGREE4 = ("t2", "takasaki3", "t4")  # at basepoint 0
CHAIN_HEADLINE = ("t4", "tw_z3", 4, 0)  # rack, module, degree, basepoint


def _chain_holds(result):
    return _expect("verdict", result, (True, None))


def _control_broken(result):
    ok, witness = result
    return None if not ok and witness is not None else f"psi sign flip not caught: {result!r}"


def _module(mod, X):
    return symq.load_module(symq.fixture_path(f"module_{mod}.json"), X)


def _chain_task(X, m, n, bp, name, headline=False):
    return Task(
        name,
        lambda: symq.verify_chain_complex(X, m, n, bp),
        _chain_holds,
        headline=headline,
    )


def _chain(seed, workdir):
    tasks = []
    for rack in CHAIN_RACKS:
        X = _fixture_rack(rack, seed)
        for mod in CHAIN_MODULES:
            m = _module(mod, X)
            checks = [(3, bp) for bp in range(X.size)]
            if rack in CHAIN_DEGREE4:
                checks.append((4, 0))
            for n, bp in checks:
                if (rack, mod, n, bp) != CHAIN_HEADLINE:  # the headline runs on its own relabellings
                    tasks.append(_chain_task(X, m, n, bp, f"{rack}/{mod}/d{n}/bp{bp}"))
            # flipping psi breaks the complex unless psi is zero, when nothing changes
            tasks.append(Task(
                f"{rack}/{mod}/d3/psi-flip",
                lambda X=X, m=m: symq.verify_chain_complex(X, m, 3, 0, psi_sign=-1),
                _chain_holds if m.psi[0][0].is_zero() else _control_broken,
            ))
    rack, mod, n, bp = CHAIN_HEADLINE
    for name in _copies(f"{rack}/{mod}/d{n}/bp{bp}", True):
        X = _fixture_rack(rack, seed, name)
        tasks.append(_chain_task(X, _module(mod, X), n, bp, name, headline=True))
    return tasks


# --------------------------------------------------------------------- cli_mix

# takasaki(n): good involutions, symmetric automorphisms, H^1_sq over Z4
TAKASAKI = {
    3: (1, 6, (2,)),
    4: (4, 8, (2, 2)),
    5: (1, 20, (2,)),
    6: (2, 12, (2, 2)),
    7: (1, 42, (2,)),
    8: (4, 32, (2, 2)),
}
# (n, module file, invariant factors of H^2_sq)
CLI_H2 = [(3, "m_z4", ()), (3, "m_z", ()), (4, "m_z", ()), (5, "m_z", ())]


def cli(argv):
    """symq.cli.main in process: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = symq.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _cli_check(code_want, **fields):
    def check(result):
        code, out = result
        if code != code_want:
            return f"exit code {code}, expected {code_want}"
        if not fields:
            return None
        data = json.loads(out)
        for key, want in fields.items():
            problem = _expect(key, data.get(key), want)
            if problem:
                return problem
        return None
    return check


def _cli_mix(seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    path = {}

    def save(name, saver, obj):
        path[name] = str(workdir / f"{name}.json")
        saver(obj, path[name])

    for n in TAKASAKI:
        X = symq.takasaki(n)
        save(f"takasaki{n}", symq.save_rack, relabel.rack(X, relabel.permutation(seed, f"takasaki{n}", n)))
    t2 = symq.load_rack(symq.fixture_path("rack_t2.json"))
    t2_perm = relabel.permutation(seed, "t2", 2)
    save("t2", symq.save_rack, relabel.rack(t2, t2_perm))
    base = symq.takasaki(3)
    for name, orders in (("m_z4", (4,)), ("m_z", (0,))):
        save(name, symq.save_module, symq.dihedral_kamada_module(base, symq.AbGroup(orders)))
    cocycles = {}
    for name, orders in (("t2_z4", (4,)), ("t2_z", (0,))):
        cocycles[name] = symq.load_cochain(symq.fixture_path(f"cocycle_{name}.json"), 2, symq.AbGroup(orders))
        save(name, symq.save_cochain, relabel.cochain(cocycles[name], t2_perm))
    headline = _copies("wells-report/t2/Z4", True)
    for k, name in enumerate(headline):
        perm = relabel.permutation(seed, name, 2)
        save(f"t2_report{k}", symq.save_rack, relabel.rack(t2, perm))
        save(f"t2_z4_report{k}", symq.save_cochain, relabel.cochain(cocycles["t2_z4"], perm))
    G = symq.load_group(symq.fixture_path("group_s3.json"))
    g_perm = relabel.permutation(seed, "s3", G.size)
    save("s3", symq.save_group, relabel.group(G, g_perm))

    def elems(xs):
        return ",".join(str(g_perm[x]) for x in xs)

    def swap(w):
        return ",".join(map(str, relabel.word(w, t2_perm)))

    t2_z4 = ["--rack", path["t2"], "--module", path["m_z4"], "--cocycle", path["t2_z4"], "--theory", "sr"]
    t2_z = ["--rack", path["t2"], "--module", path["m_z"], "--cocycle", path["t2_z"], "--theory", "sr"]
    requests = []  # (name, argv, check)
    for n, (involutions, auts, h1) in TAKASAKI.items():
        rack = ["--rack", path[f"takasaki{n}"]]
        requests += [
            (f"check/t{n}", ["check", *rack, "--module", path["m_z4"]],
             _cli_check(0, rack={"ok": True, "kind": "quandle", "size": n},
                        module={"ok": True, "group": "Z4", "constant": True})),
            (f"involutions/t{n}", ["involutions", *rack], _cli_check(0, count=involutions)),
            (f"aut/t{n}", ["aut", *rack], _cli_check(0, count=auts)),
            (f"cohomology/t{n}/Z4/d1", ["cohomology", *rack, "--module", path["m_z4"], "--degree", "1"],
             _cli_check(0, invariant_factors=list(h1))),
        ]
    for n, module, h2 in CLI_H2:
        requests.append((
            f"cohomology/t{n}/{module}/d2",
            ["cohomology", "--rack", path[f"takasaki{n}"], "--module", path[module]],
            _cli_check(0, invariant_factors=list(h2)),
        ))
    requests += [
        ("check/t2/Z4/cocycle", ["check", *t2_z4],
         _cli_check(0, cocycle={"ok": True, "degree": 2, "theory": "sr"})),
        ("extension/t2/Z4", ["extension", *t2_z4], _cli_check(0, size=8, kind="rack")),
        ("extension/t2/Z", ["extension", *t2_z], _cli_check(0, size=None, kind=None)),
        ("wells-extend/t2/Z4/obstructed", ["wells", "extend", *t2_z4, "--zeta", swap((1, 0)), "--theta", "3"],
         _cli_check(0, obstructed=True)),
        ("wells-extend/t2/Z4/lifts", ["wells", "extend", *t2_z4, "--zeta", swap((1, 0)), "--theta", "1"],
         _cli_check(0, obstructed=False)),
        ("wells-extend/t2/Z/obstructed", ["wells", "extend", *t2_z, "--zeta", swap((0, 1)), "--theta", "-1"],
         _cli_check(0, obstructed=True)),
        ("from-group/s3/conj", ["from-group", "--group", path["s3"], "--sub", elems((0, 3, 4))],
         _cli_check(0, quotient_size=2, fibers=[3, 3], verified=True)),
        ("from-group/s3/core", ["from-group", "--group", path["s3"], "--sub", elems((0, 3, 4)), "--flavor", "core"],
         _cli_check(0, quotient_size=2, fibers=[3, 3], verified=True)),
        ("from-group/s3/not-normal", ["from-group", "--group", path["s3"], "--sub", elems((0, 1))],
         _cli_check(2)),
    ]
    for k, name in enumerate(headline):
        requests.append((
            name,
            ["wells", "report", "--rack", path[f"t2_report{k}"], "--module", path["m_z4"],
             "--cocycle", path[f"t2_z4_report{k}"], "--theory", "sr"],
            _cli_check(0, pairs=4, z1=4, kernel=4, image=2, aut=8, exact=[True, True, True]),
        ))
    return [
        Task(name, lambda argv=argv: cli(argv + ["--json"]), check, headline=name in headline)
        for name, argv, check in requests
    ]


_TASK_LISTS = {
    "presentation": _presentation,
    "wells": _wells,
    "chain": _chain,
    "cli_mix": _cli_mix,
}


def build(workload, seed, workdir):
    """The fixed task list of one workload, with inputs relabelled by the seed."""
    return _TASK_LISTS[workload](seed, workdir)
