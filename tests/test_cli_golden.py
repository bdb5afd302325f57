"""Byte-for-byte CLI output on the bundled fixtures, against recorded files.

`golden_cli.json` holds, for every case below, the exit code and the exact
stdout of `symq.cli.main`, in text and in --json form.  An argument
`fixture:NAME` names a bundled fixture file and `input:NAME` one of the
extra input files in INPUTS below, written to a temporary directory.  After an intended
output change, rewrite the recordings with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from symq.cli import main
from symq.serialize import fixture_path

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

T2_Z4 = ["--rack", "fixture:rack_t2.json", "--module", "fixture:module_m0_z4.json"]
T2_Z = ["--rack", "fixture:rack_t2.json", "--module", "fixture:module_m0_z.json"]
SHIFT_Z = ["--rack", "fixture:rack_core_z4_shift.json", "--module", "fixture:module_m0_z.json",
           "--cocycle", "input:sigma_core_z4_shift_z.json"]
WELLS_Z4 = ["wells"] + T2_Z4 + ["--cocycle", "fixture:cocycle_t2_z4.json", "--theory", "sr"]
WELLS_Z = ["wells"] + T2_Z + ["--cocycle", "fixture:cocycle_t2_z.json", "--theory", "sr"]
DYN_T2_Z4 = ["--rack", "fixture:rack_t2.json", "--dynamical", "fixture:dynamical_t2_z4.json",
             "--theory", "sr"]

INPUTS = {
    # a degree-1 cocycle of t2 over Z4
    "c1_t2_z4.json": {"degree": 1, "values": {"0": [1], "1": [3]}},
    # delta of an eta-compatible 1-cochain of core_z4_shift over Z
    "sigma_core_z4_shift_z.json": {
        "degree": 2,
        "values": {
            f"{x},{y}": [v]
            for (x, y), v in zip(
                [(x, y) for x in range(4) for y in range(4)],
                [0, 2, 0, 2, 0, 0, 0, 0, 0, -2, 0, -2, 0, 0, 0, 0],
            )
        },
    },
}

BASE_CASES = [
    WELLS_Z4,
    WELLS_Z4 + ["extend", "--zeta", "1,0", "--theta", "[[1]]"],
    WELLS_Z4 + ["extend", "--zeta", "0,1", "--theta", "3"],
    WELLS_Z + ["extend", "--zeta", "0,1", "--theta", "-1"],
    WELLS_Z + ["extend", "--zeta", "1,0", "--theta", "1"],
    ["wells"] + SHIFT_Z + ["extend", "--zeta", "1,0,3,2", "--theta", "1"],
    ["wells"] + SHIFT_Z + ["extend", "--zeta", "1,2,3,0", "--theta", "-1"],
    ["cohomology"] + T2_Z4 + ["--theory", "sr", "--degree", "2",
                              "--cocycle", "fixture:cocycle_t2_z4.json"],
    ["cohomology"] + T2_Z + ["--degree", "2", "--theory", "sr",
                             "--cocycle", "fixture:cocycle_t2_z.json"],
    ["cohomology"] + T2_Z4 + ["--degree", "1", "--cocycle", "input:c1_t2_z4.json"],
    ["cohomology"] + T2_Z4 + ["--degree", "1", "--theory", "sr", "--basepoint", "1",
                              "--cocycle", "input:c1_t2_z4.json"],
    ["extension"] + T2_Z4 + ["--cocycle", "fixture:cocycle_t2_z4.json", "--theory", "sr"],
    ["extension"] + SHIFT_Z,
    ["involutions", "--rack", "fixture:rack_core_z4.json"],
    ["involutions", "--rack", "fixture:rack_takasaki4.json"],
    ["aut", "--rack", "fixture:rack_core_z4.json"],
    ["aut", "--rack", "fixture:rack_takasaki4.json"],
    ["from-group", "--group", "fixture:group_s3.json", "--sub", "0,3,4", "--flavor", "conj"],
    ["from-group", "--group", "fixture:group_s3.json", "--sub", "0,3,4", "--flavor", "core"],
    ["check"] + T2_Z4 + ["--cocycle", "fixture:cocycle_t2_z4.json", "--theory", "sr",
                         "--group", "fixture:group_s3.json"],
    ["dynamical", "validate"] + DYN_T2_Z4,
    ["dynamical", "extend"] + DYN_T2_Z4,
    ["dynamical", "equiv"] + DYN_T2_Z4 + ["--other", "fixture:dynamical_t2_z4.json"],
    WELLS_Z,
]
CASES = [argv + extra for argv in BASE_CASES for extra in ([], ["--json"])]


def _resolve(argv, tmp):
    out = []
    for arg in argv:
        kind, _, name = arg.partition(":")
        if kind == "fixture":
            out.append(str(fixture_path(name)))
        elif kind == "input":
            out.append(str(tmp / name))
        else:
            out.append(arg)
    return out


def _write_inputs(tmp):
    for name, obj in INPUTS.items():
        (tmp / name).write_text(json.dumps(obj))


def _record(argv, tmp):
    # exit code and stdout of one in-process run
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(_resolve(argv, tmp))
    return {"argv": argv, "code": code, "stdout": out.getvalue()}


def _recorded():
    return {tuple(c["argv"]): c for c in json.loads(GOLDEN.read_text())}


def test_every_case_is_recorded():
    assert set(_recorded()) == {tuple(argv) for argv in CASES}


@pytest.mark.parametrize("argv", CASES, ids=[f"{i:02d}-{a[0]}" for i, a in enumerate(CASES)])
def test_output_matches_recording(argv, tmp_path):
    _write_inputs(tmp_path)
    assert _record(argv, tmp_path) == _recorded()[tuple(argv)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        tmp = pathlib.Path(d)
        _write_inputs(tmp)
        records = [_record(argv, tmp) for argv in CASES]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
