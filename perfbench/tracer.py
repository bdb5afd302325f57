"""Per-layer tracing of symq from the outside, by rebinding its functions.

`Tracer.install()` replaces each measured function with a timing wrapper in
every `symq.*` namespace that holds it (a function imported with
`from .abelian import kernel` lives in two namespaces), and replaces each
measured method on its class.  `uninstall()` puts every original object
back.  Per key the tracer keeps top-level calls (calls made while another
call with the same key is active are not counted), busy time (wall time
inside the outermost call) and self time (busy time minus the time spent
in other measured calls made from it).
"""

import importlib
import sys
import time

# (symq submodule, function or Class.method, metric key)
MEASURED = [
    ("abelian", "smith_normal_form", "abelian.smith_normal_form"),
    ("abelian", "kernel", "abelian.kernel"),
    ("abelian", "solve", "abelian.solve"),
    ("abelian", "Subquotient.__init__", "abelian.Subquotient"),
    ("abelian", "Subquotient.project", "abelian.Subquotient.project"),
    ("abelian", "Subquotient.contains", "abelian.Subquotient.contains"),
    ("abelian", "AbHom.__init__", "abelian.AbHom"),
    ("cohomology", "cohomology_presentation", "cohomology.cohomology_presentation"),
    ("cohomology", "cochain_space", "cohomology.cochain_space"),
    ("cohomology", "coboundary_witness", "cohomology.coboundary_witness"),
    ("cohomology", "is_cocycle", "cohomology.is_cocycle"),
    ("cohomology", "delta", "cohomology.delta"),
    ("cohomology", "verify_chain_complex", "cohomology.verify_chain_complex"),
    ("cohomology", "boundary", "cohomology.boundary"),
    ("racks", "rack_diagnostics", "racks.rack_diagnostics"),
    ("racks", "enumerate_good_involutions", "racks.enumerate_good_involutions"),
    ("racks", "enumerate_automorphisms", "racks.enumerate_automorphisms"),
    ("racks", "is_isomorphism", "racks.is_isomorphism"),
    ("modules", "validate_module", "modules.validate_module"),
    ("dynamical", "from_cocycle", "dynamical.from_cocycle"),
    ("dynamical", "build_extension", "dynamical.build_extension"),
    ("wells", "build_abelian_extension", "wells.build_abelian_extension"),
    ("wells", "enumerate_autA_extension", "wells.enumerate_autA_extension"),
    ("wells", "wells_report", "wells.wells_report"),
    ("wells", "enumerate_aut_pairs", "wells.enumerate_aut_pairs"),
    ("wells", "lambda_map", "wells.lambda_map"),
    ("wells", "stabilizer", "wells.stabilizer"),
    ("wells", "extend_pair", "wells.extend_pair"),
    ("wells", "z1_elements", "wells.z1_elements"),
    ("wells", "validate_aut_pair", "wells.validate_aut_pair"),
    ("wells", "LiftedAutomorphism.__init__", "wells.LiftedAutomorphism"),
    ("wells", "LiftedAutomorphism.compose", "wells.LiftedAutomorphism.compose"),
    ("serialize", "load_json", "serialize.load"),
    ("serialize", "load_rack", "serialize.load"),
    ("serialize", "load_group", "serialize.load"),
    ("serialize", "load_module", "serialize.load"),
    ("serialize", "load_cochain", "serialize.load"),
    ("serialize", "load_dynamical", "serialize.load"),
    ("cli", "main", "cli.main"),
]

# the stats reported per key; "constructions" is the call count of a constructor
_STATS = {
    "abelian.smith_normal_form": ("calls", "busy_s", "cells", "nonzeros", "max_rows", "max_cols"),
    "abelian.kernel": ("calls", "busy_s"),
    "abelian.solve": ("calls", "busy_s"),
    "abelian.Subquotient": ("calls", "busy_s"),
    "abelian.Subquotient.project": ("calls", "busy_s"),
    "abelian.Subquotient.contains": ("calls",),
    "abelian.AbHom": ("constructions",),
    "cohomology.cohomology_presentation": ("calls", "busy_s", "self_s"),
    "cohomology.cochain_space": ("calls", "busy_s"),
    "cohomology.coboundary_witness": ("calls", "busy_s"),
    "cohomology.is_cocycle": ("calls", "busy_s"),
    "cohomology.delta": ("calls", "busy_s"),
    "cohomology.verify_chain_complex": ("calls", "busy_s", "self_s"),
    "cohomology.boundary": ("calls",),
    "racks.rack_diagnostics": ("calls", "busy_s"),
    "racks.enumerate_good_involutions": ("calls", "busy_s"),
    "racks.enumerate_automorphisms": ("calls", "busy_s"),
    "racks.is_isomorphism": ("calls", "busy_s"),
    "modules.validate_module": ("calls", "busy_s"),
    "dynamical.from_cocycle": ("calls", "busy_s"),
    "dynamical.build_extension": ("calls", "busy_s"),
    "wells.build_abelian_extension": ("calls", "busy_s", "self_s"),
    "wells.enumerate_autA_extension": ("calls", "busy_s", "self_s"),
    "wells.wells_report": ("calls", "busy_s", "self_s"),
    "wells.enumerate_aut_pairs": ("calls", "busy_s"),
    "wells.lambda_map": ("calls", "busy_s"),
    "wells.stabilizer": ("calls", "busy_s"),
    "wells.extend_pair": ("calls", "busy_s"),
    "wells.z1_elements": ("calls", "busy_s"),
    "wells.LiftedAutomorphism": ("constructions", "busy_s"),
    "wells.LiftedAutomorphism.compose": ("calls",),
    "wells.validate_aut_pair": ("calls",),
    "serialize.load": ("calls", "busy_s"),
    "cli.main": ("calls", "busy_s", "self_s"),
}

_UNITS = {"busy_s": "s", "self_s": "s"}

# (name, unit) of every per-layer metric, in report order
METRICS = [
    (f"{key}.{stat}", _UNITS.get(stat, "count"))
    for key, stats in _STATS.items()
    for stat in stats
] + [
    ("wells.lifts_per_aut", "ratio"),
    ("wells.snf_per_pair", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def _symq_namespaces():
    return [
        mod for name, mod in sys.modules.items()
        if mod is not None and (name == "symq" or name.startswith("symq."))
    ]


class Tracer:
    def __init__(self):
        self._undo = []
        self.reset()

    def reset(self):
        # per key: [top-level calls, busy, self, active depth]
        self.stats = {key: [0, 0.0, 0.0, 0] for key in _STATS}
        self.snf = {"cells": 0, "nonzeros": 0, "max_rows": 0, "max_cols": 0, "in_report": 0}
        self.reports = {"aut": 0, "pairs": 0}
        self._stack = []

    # ------------------------------------------------------------ patching

    def install(self):
        importlib.import_module("symq.cli")  # so its namespace is rebound too
        namespaces = _symq_namespaces()
        for module, path, key in MEASURED:
            owner = importlib.import_module(f"symq.{module}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, key))
                self._undo.append((cls, attr, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(original, key)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, name, wrapper)
                        self._undo.append((ns, name, original))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, key):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        pre = self._snf_shape if key == "abelian.smith_normal_form" else None
        post = self._report_sizes if key == "wells.wells_report" else None

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(*args)
            outer = stat[3] == 0
            stat[3] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[3] -= 1
                stat[2] += dt - frame[0]
                if outer:
                    stat[0] += 1
                    stat[1] += dt
                if stack:
                    stack[-1][0] += dt
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.trace_key = key
        return wrapper

    def _snf_shape(self, M):
        rows = len(M)
        cols = len(M[0]) if rows else 0
        s = self.snf
        s["cells"] += rows * cols
        s["nonzeros"] += sum(1 for row in M for x in row if x)
        s["max_rows"] = max(s["max_rows"], rows)
        s["max_cols"] = max(s["max_cols"], cols)
        if self.stats["wells.wells_report"][3]:
            s["in_report"] += 1

    def _report_sizes(self, report):
        self.reports["aut"] += report.aut_size
        self.reports["pairs"] += len(report.pairs)

    # ------------------------------------------------------------ results

    def metrics(self):
        """Every per-layer metric except trace.overhead_frac, as name -> value."""
        out = {}
        for key, stats in _STATS.items():
            calls, busy, self_s, _ = self.stats[key]
            values = {"calls": calls, "constructions": calls, "busy_s": busy, "self_s": self_s}
            values.update(self.snf if key == "abelian.smith_normal_form" else {})
            for stat in stats:
                out[f"{key}.{stat}"] = values[stat]
        lifts = self.stats["wells.LiftedAutomorphism"][0]
        aut, pairs = self.reports["aut"], self.reports["pairs"]
        out["wells.lifts_per_aut"] = lifts / aut if aut else 0.0
        out["wells.snf_per_pair"] = self.snf["in_report"] / pairs if pairs else 0.0
        return out
