"""Command-line interface: verbs, exit codes, output formats."""

import json
import subprocess
import sys
import time

import pytest

from symq import limits
from symq.cli import _build_parser, main
from symq.racks import trivial_rack
from symq.serialize import fixture_path, load_json, save_rack

from test_cli_golden import CASES, _record, _recorded, _write_inputs

RACK = str(fixture_path("rack_t2.json"))
TAK3 = str(fixture_path("rack_takasaki3.json"))
CORE = str(fixture_path("rack_core_z4.json"))
MZ = str(fixture_path("module_m0_z.json"))
MZ4 = str(fixture_path("module_m0_z4.json"))
CZ = str(fixture_path("cocycle_t2_z.json"))
CZ4 = str(fixture_path("cocycle_t2_z4.json"))
DYN = str(fixture_path("dynamical_t2_z4.json"))
S3 = str(fixture_path("group_s3.json"))

WELLS = ["wells", "--rack", RACK, "--module", MZ4, "--cocycle", CZ4, "--theory", "sr"]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def json_block(stdout):
    head, _, tail = stdout.partition("--- json ---\n")
    return head, json.loads(tail)


class TestExitCodes:
    def test_unknown_verb_is_usage(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 1

    def test_missing_flag_is_usage(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["involutions"])
        assert e.value.code == 1
        assert "--rack" in capsys.readouterr().err

    def test_missing_file_is_validation(self, capsys):
        code, _, err = run(["check", "--rack", "/no/such.json"], capsys)
        assert code == 2
        assert "such.json" in err

    def test_invalid_input_is_validation(self, capsys):
        code, _, err = run(
            ["check", "--rack", RACK, "--module", MZ4,
             "--cocycle", CZ4, "--theory", "sq"],
            capsys,
        )
        assert code == 2
        assert "degenerate" in err

    def test_tables_above_the_size_cap_are_validation(self, capsys, tmp_path):
        # one past the cap, a trivial quandle and a cyclic group: both valid,
        # refused by size before any table check runs
        n = limits.TABLE_SIZE + 1
        rack_file, group_file = tmp_path / "rack.json", tmp_path / "group.json"
        rack_file.write_text(json.dumps({"size": n, "table": [[x] * n for x in range(n)],
                                         "rho": list(range(n)), "kind": "quandle"}))
        mul = [[(x + y) % n for y in range(n)] for x in range(n)]
        group_file.write_text(json.dumps({"size": n, "mul": mul, "id": 0}))
        for flag, path in (("--rack", rack_file), ("--group", group_file)):
            code, out, err = run(["check", flag, str(path)], capsys)
            assert code == 2 and out == ""
            assert f".size: {n} is above limits.TABLE_SIZE = {limits.TABLE_SIZE}" in err

    def test_dynamical_fibers_above_the_size_cap_are_validation(self, capsys, tmp_path):
        # two fibers of 120 over t2, alpha(s, t) = s and beta = id: valid data,
        # refused by the size of its glued table before alpha is read
        n = 120
        assert 2 * n > limits.TABLE_SIZE
        block = [[s] * n for s in range(n)]
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"fibers": {"0": n, "1": n},
                                    "alpha": {f"{x},{y}": block for x in "01" for y in "01"},
                                    "beta": {"0": list(range(n)), "1": list(range(n))}}))
        start = time.perf_counter()
        code, out, err = run(["dynamical", "validate", "--rack", RACK, "--dynamical", str(path)],
                             capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f".fibers total: {2 * n} is above limits.TABLE_SIZE = {limits.TABLE_SIZE}" in err

    def test_success_is_zero(self, capsys):
        code, _, _ = run(["check", "--rack", RACK], capsys)
        assert code == 0


class TestCohomologyVerb:
    def test_h2_line_format(self, capsys):
        code, out, _ = run(
            ["cohomology", "--rack", TAK3, "--module", MZ,
             "--degree", "2", "--theory", "sr"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "H2_SR = 0"

    def test_nontrivial_group_format(self, capsys):
        code, out, _ = run(
            ["cohomology", "--rack", RACK, "--module", MZ4, "--theory", "sr"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "H2_SR = Z4"

    def test_infinite_group_format(self, capsys):
        code, out, _ = run(
            ["cohomology", "--rack", RACK, "--module", MZ, "--theory", "sr"],
            capsys,
        )
        assert out.splitlines()[0] == "H2_SR = Z"

    @pytest.mark.parametrize("basepoint", ["99", "-1"])
    def test_basepoint_outside_the_base_is_validation(self, basepoint, capsys):
        # a negative index must not wrap round to the last element
        code, out, err = run(
            ["cohomology", "--rack", RACK, "--module", MZ4, "--degree", "1",
             "--basepoint", basepoint],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert f"basepoint {basepoint} is not an element of the base" in err

    @pytest.mark.parametrize("basepoint", ["99", "-3"])
    @pytest.mark.parametrize("verb", [
        ["cohomology", "--degree", "2"],
        ["check", "--cocycle", CZ4, "--theory", "sr"],
    ], ids=["cohomology", "check"])
    def test_basepoint_outside_the_base_is_validation_in_degree_2(self, verb, basepoint, capsys):
        # degree 2 never reads the basepoint, but an element outside the base is still refused
        code, out, err = run(verb + ["--rack", RACK, "--module", MZ4, "--basepoint", basepoint],
                             capsys)
        assert code == 2
        assert out == ""
        assert f"basepoint {basepoint} is not an element of the base" in err

    def test_class_of_cocycle(self, capsys):
        code, out, _ = run(
            ["cohomology", "--rack", RACK, "--module", MZ4,
             "--theory", "sr", "--cocycle", CZ4, "--json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["class"] == [3]


class TestWellsVerb:
    def test_report_numbers_and_exactness(self, capsys):
        code, out, _ = run(WELLS, capsys)
        assert code == 0
        human, data = json_block(out)
        assert "exact: True" in human
        assert (data["z1"], data["kernel"], data["image"], data["aut"]) == (4, 4, 2, 8)

    def test_obstructed_line(self, capsys):
        code, out, _ = run(WELLS + ["extend", "--zeta", "0,1", "--theta", "3"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "OBSTRUCTED: class=[2]"

    def test_unobstructed_lift(self, capsys):
        code, out, _ = run(
            WELLS + ["extend", "--zeta", "1,0", "--theta", "[[1]]", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["obstructed"] is False
        assert data["xi"]["word"] == [4, 5, 6, 7, 0, 1, 2, 3]

    def test_infinite_obstruction(self, capsys):
        code, out, _ = run(
            ["wells", "--rack", RACK, "--module", MZ, "--cocycle", CZ,
             "--theory", "sr", "extend", "--zeta", "0,1", "--theta", "-1"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "OBSTRUCTED: class=[2]"

    def test_infinite_z1_is_refused(self, capsys):
        code, out, err = run(
            ["wells", "--rack", RACK, "--module", MZ, "--cocycle", CZ, "--theory", "sr", "report"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: too many 1-cocycles to enumerate\n"

    def test_determinism(self, capsys):
        _, out1, _ = run(WELLS, capsys)
        _, out2, _ = run(WELLS, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("theta", ["[1]", "null", "[[1e400]]", "[[1.5]]", "true"])
    def test_malformed_theta_is_a_validation_failure(self, theta, capsys):
        code, out, err = run(WELLS + ["extend", "--zeta", "1,0", "--theta", theta], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("--theta")


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def by_pair_m0_z4():
    # module_m0_z4 written out pair by pair
    return {
        "group": {"invariant_factors": [4]},
        "phi": {"by_pair": {f"{x},{y}": [[1]] for x in range(2) for y in range(2)}},
        "psi": {"by_pair": {f"{x},{y}": [[0]] for x in range(2) for y in range(2)}},
        "eta": {"by_element": {"0": [[3]], "1": [[3]]}},
    }


def edit(obj, table, key, value):
    """obj with table[key] = value, or table[key] deleted when value is None."""
    obj = json.loads(json.dumps(obj))
    entries = obj
    for field in table:
        entries = entries[field]
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    return obj


class TestKeyedTables:
    """Each table keyed by tuples holds every tuple once and nothing else."""

    def check_module(self, tmp_path, capsys, obj):
        return run(["check", "--rack", RACK, "--module", write(tmp_path, "m.json", obj)], capsys)

    def check_cochain(self, tmp_path, capsys, obj):
        path = write(tmp_path, "c.json", obj)
        return run(["check", "--rack", RACK, "--module", MZ4, "--cocycle", path], capsys)

    def validate_dynamical(self, tmp_path, capsys, obj):
        path = write(tmp_path, "d.json", obj)
        return run(["dynamical", "validate", "--rack", RACK, "--dynamical", path,
                    "--theory", "sr"], capsys)

    def test_valid_tables_load(self, tmp_path, capsys):
        assert self.check_module(tmp_path, capsys, by_pair_m0_z4())[0] == 0
        c1 = {"degree": 1, "values": {"0": [1], "1": [3]}}
        assert self.check_cochain(tmp_path, capsys, c1)[0] == 0
        dyn = load_json(DYN)
        assert self.validate_dynamical(tmp_path, capsys, dyn)[0] == 0

    @pytest.mark.parametrize("table,key,value,message", [
        (("phi", "by_pair"), "01,0", [[3]], "unexpected key '01,0'"),
        (("psi", "by_pair"), "2,0", [[0]], "unexpected key '2,0'"),
        (("eta", "by_element"), "0,0", [[3]], "unexpected key '0,0'"),
        (("phi", "by_pair"), "1,0", None, "phi.by_pair: missing key '1,0'"),
        (("eta", "by_element"), "1", None, "eta.by_element: missing key '1'"),
    ], ids=["phi-padded", "psi-out-of-range", "eta-pair", "phi-missing", "eta-missing"])
    def test_module_keys(self, tmp_path, capsys, table, key, value, message):
        code, out, err = self.check_module(tmp_path, capsys, edit(by_pair_m0_z4(), table, key, value))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("key,value,message", [
        ("01", [2], "unexpected key '01'"),
        (" 1", [2], "unexpected key ' 1'"),
        ("1", None, "values: missing key '1'"),
    ], ids=["padded", "spaced", "missing"])
    def test_cochain_keys(self, tmp_path, capsys, key, value, message):
        c1 = {"degree": 1, "values": {"0": [1], "1": [3]}}
        code, out, err = self.check_cochain(tmp_path, capsys, edit(c1, ("values",), key, value))
        assert code == 2
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("table,key,value,message", [
        (("fibers",), "5", 4, "fibers: unexpected key '5'"),
        (("alpha",), "0,7", [[0, 1, 2, 3]] * 4, "alpha: unexpected key '0,7'"),
        (("beta",), "9", [0, 1, 2, 3], "beta: unexpected key '9'"),
        (("fibers",), "1", None, "fibers: missing key '1'"),
        (("alpha",), "1,1", None, "alpha: missing key '1,1'"),
        (("beta",), "0", None, "beta: missing key '0'"),
    ], ids=["fibers-stray", "alpha-stray", "beta-stray",
            "fibers-missing", "alpha-missing", "beta-missing"])
    def test_dynamical_keys(self, tmp_path, capsys, table, key, value, message):
        dyn = load_json(DYN)
        code, out, err = self.validate_dynamical(tmp_path, capsys, edit(dyn, table, key, value))
        assert code == 2
        assert out == ""
        assert message in err

    def test_huge_degree_fails_at_the_first_missing_key(self, tmp_path, capsys):
        # 2**40 keys: the reader must not list them before it finds a gap
        start = time.perf_counter()
        code, _, err = self.check_cochain(tmp_path, capsys, {"degree": 40, "values": {"0": [1]}})
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert f"missing key '{','.join(['0'] * 40)}'" in err


class TestUnknownFields:
    """An object in an input file has only the fields its schema names."""

    def check_module(self, tmp_path, capsys, obj):
        return run(["check", "--rack", RACK, "--module", write(tmp_path, "m.json", obj)], capsys)

    def refused(self, result, message):
        code, out, err = result
        assert code == 2
        assert out == ""
        assert message in err

    def test_module_with_an_extra_top_level_field(self, tmp_path, capsys):
        obj = dict(load_json(MZ4), ph1=7)
        self.refused(self.check_module(tmp_path, capsys, obj), "unexpected field 'ph1'")

    def test_map_spec_with_both_forms(self, tmp_path, capsys):
        obj = load_json(MZ4)
        obj["phi"]["by_pair"] = {"x": 1}
        self.refused(self.check_module(tmp_path, capsys, obj), "phi: unexpected field 'by_pair'")

    def test_cochain_with_an_extra_field(self, tmp_path, capsys):
        obj = dict(load_json(CZ4), extra=1)
        path = write(tmp_path, "c.json", obj)
        result = run(["check", "--rack", RACK, "--module", MZ4, "--cocycle", path], capsys)
        self.refused(result, "unexpected field 'extra'")

    @pytest.mark.parametrize("flag,fixture,field", [
        ("--rack", RACK, "name"),
        ("--group", S3, "order"),
    ], ids=["rack", "group"])
    def test_other_objects(self, tmp_path, capsys, flag, fixture, field):
        path = write(tmp_path, "x.json", dict(load_json(fixture), **{field: 1}))
        self.refused(run(["check", flag, path], capsys), f"unexpected field '{field}'")

    def test_dynamical_and_group_spec(self, tmp_path, capsys):
        path = write(tmp_path, "d.json", dict(load_json(DYN), gamma={}))
        result = run(["dynamical", "validate", "--rack", RACK, "--dynamical", path], capsys)
        self.refused(result, "unexpected field 'gamma'")
        obj = load_json(MZ4)
        obj["group"]["orders"] = [4]
        self.refused(self.check_module(tmp_path, capsys, obj), "group: unexpected field 'orders'")


# the flags each verb reads, --json included
VERB_FLAGS = {
    "check": {"rack", "module", "cocycle", "group", "theory", "basepoint", "json"},
    "involutions": {"rack", "bound", "json"},
    "aut": {"rack", "bound", "json"},
    "from-group": {"group", "sub", "flavor", "n", "z", "json"},
    "cohomology": {"rack", "module", "cocycle", "theory", "degree", "basepoint", "json"},
    "dynamical": {"rack", "dynamical", "other", "theory", "bound", "json"},
    "extension": {"rack", "module", "cocycle", "theory", "json"},
    "wells": {"rack", "module", "cocycle", "theory", "zeta", "theta", "bound", "json"},
}
# one acceptable value for every flag any verb has; None for a switch
FLAG_VALUES = {
    "rack": "f", "module": "f", "cocycle": "f", "group": "f", "dynamical": "f",
    "other": "f", "theory": "sr", "degree": "1", "basepoint": "0", "bound": "3",
    "sub": "0", "flavor": "core", "n": "2", "z": "1", "zeta": "0", "theta": "1",
    "json": None,
}


class TestFlags:
    def accepts(self, verb, flag):
        value = FLAG_VALUES[flag]
        try:
            _build_parser().parse_args([verb, f"--{flag}"] + ([value] if value else []))
        except SystemExit:
            return False
        return True

    def test_each_verb_accepts_exactly_the_flags_it_reads(self, capsys):
        accepted = {
            verb: {flag for flag in FLAG_VALUES if self.accepts(verb, flag)}
            for verb in VERB_FLAGS
        }
        assert accepted == VERB_FLAGS
        assert sum(map(len, accepted.values())) == 45

    @pytest.mark.parametrize("argv", [
        ["aut", "--rack", TAK3, "--theory", "sq"],
        WELLS + ["report", "--basepoint", "1"],
        ["cohomology", "--rack", RACK, "--module", MZ4, "--bound", "3"],
        ["check", "--rack", RACK, "--base", "1"],
    ], ids=["aut-theory", "wells-basepoint", "cohomology-bound", "check-abbreviated"])
    def test_a_flag_the_verb_does_not_read_is_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (WELLS + ["extend", "--zeta", "1,0", "--theta", "1", "--bound", "1"], "bound"),
        (WELLS + ["--zeta", "1,0"], "zeta"),
        (WELLS + ["report", "--theta", "1"], "theta"),
        (["dynamical", "validate", "--rack", RACK, "--dynamical", DYN, "--other", "X"], "other"),
        (["dynamical", "extend", "--rack", RACK, "--dynamical", DYN, "--bound", "3"], "bound"),
        (["dynamical", "--rack", RACK, "--dynamical", DYN, "--other", DYN], "other"),
    ], ids=["wells-extend-bound", "wells-default-zeta", "wells-report-theta",
            "dynamical-validate-other", "dynamical-extend-bound", "dynamical-default-other"])
    def test_a_flag_the_action_does_not_read_is_usage(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1
        assert f"--{flag} is not read by" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["from-group", "--group", S3, "--sub", "0,x"],
        WELLS + ["extend", "--zeta", "1,x", "--theta", "1"],
    ], ids=["sub", "zeta"])
    def test_comma_separated_integers(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 1
        assert "must be comma-separated integers" in capsys.readouterr().err


class TestDegreeZeroCheck:
    def degree_zero_file(self, tmp_path):
        p = tmp_path / "c0.json"
        p.write_text(json.dumps({"degree": 0, "values": {"": [1]}}))
        return str(p)

    def test_failing_delta0_is_validation(self, capsys, tmp_path):
        tw = str(fixture_path("module_tw_z3.json"))
        code, _, err = run(
            ["check", "--rack", RACK, "--module", tw, "--cocycle", self.degree_zero_file(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "cocycle: [(0,), (1,)]" in err

    def test_passing_delta0(self, capsys, tmp_path):
        code, out, _ = run(
            ["check", "--rack", RACK, "--module", MZ4, "--cocycle", self.degree_zero_file(tmp_path)],
            capsys,
        )
        assert code == 0
        assert "cocycle: ok (degree 0, theory sq)" in out


class TestOtherVerbs:
    def test_involutions(self, capsys):
        code, out, _ = run(["involutions", "--rack", CORE, "--json"], capsys)
        assert code == 0
        words = [tuple(e["word"]) for e in json.loads(out)["involutions"]]
        assert (0, 1, 2, 3) in words
        assert (2, 3, 0, 1) in words

    def test_aut(self, capsys):
        code, out, _ = run(["aut", "--rack", TAK3, "--json"], capsys)
        assert json.loads(out)["count"] == 6

    def test_aut_over_the_search_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "trivial7.json")
        save_rack(trivial_rack(7), path)
        monkeypatch.setattr(limits, "GAUGE_SEARCH", 5000)
        code, out, err = run(["aut", "--rack", path], capsys)
        assert code == 2
        assert out == ""
        assert "candidate images" in err

    def test_involutions_over_the_search_cap_exits_2(self, capsys, tmp_path, monkeypatch):
        # all 764 involutions of the trivial quandle on 8 points are good
        path = str(tmp_path / "trivial8.json")
        save_rack(trivial_rack(8), path)
        monkeypatch.setattr(limits, "GAUGE_SEARCH", 100)
        code, out, err = run(["involutions", "--rack", path], capsys)
        assert code == 2
        assert out == ""
        assert "candidate values" in err

    def test_no_environment_variable_moves_a_bound(self, capsys, monkeypatch):
        # SYMQ_MAX_ENUM once overrode every bound at once; it is not read
        monkeypatch.setenv("SYMQ_MAX_ENUM", "1")
        code, out, _ = run(["aut", "--rack", TAK3, "--json"], capsys)
        assert code == 0
        assert json.loads(out)["count"] == 6

    def test_from_group(self, capsys):
        code, out, _ = run(
            ["from-group", "--group", S3, "--sub", "0,3,4", "--json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["quotient_size"] == 2
        assert data["fibers"] == [3, 3]

    def test_from_group_reads_n_modulo_the_group_order(self, capsys):
        # n = 10**18 is 4 modulo |S3| = 6: the same output as --n 4, at once
        argv = ["from-group", "--group", S3, "--sub", "0,3,4", "--json", "--n"]
        t0 = time.perf_counter()
        code, out, _ = run(argv + [str(10**18)], capsys)
        assert time.perf_counter() - t0 < 1
        assert code == 0
        assert out == run(argv + ["4"], capsys)[1]

    def test_from_group_bad_sub(self, capsys):
        code, _, err = run(["from-group", "--group", S3, "--sub", "0,1"], capsys)
        assert code == 2
        assert "not normal" in err

    def test_extension(self, capsys):
        code, out, _ = run(
            ["extension", "--rack", RACK, "--module", MZ4,
             "--cocycle", CZ4, "--theory", "sr", "--json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["size"] == 8
        assert data["rack"]["kind"] == "rack"

    def test_dynamical_validate(self, capsys):
        code, out, _ = run(
            ["dynamical", "validate", "--rack", RACK,
             "--dynamical", DYN, "--theory", "sr", "--json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_dynamical_validate_defaults_to_quandle_and_fails(self, capsys):
        code, _, err = run(
            ["dynamical", "validate", "--rack", RACK, "--dynamical", DYN], capsys
        )
        assert code == 2
        assert "idempotence" in err

    def test_dynamical_extend(self, capsys):
        code, out, _ = run(
            ["dynamical", "extend", "--rack", RACK,
             "--dynamical", DYN, "--theory", "sr", "--json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["size"] == 8

    def test_dynamical_equiv_self(self, capsys):
        code, out, _ = run(
            ["dynamical", "equiv", "--rack", RACK, "--dynamical", DYN,
             "--other", DYN, "--theory", "sr"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "EQUIVALENT"

    def test_check_group(self, capsys):
        code, out, _ = run(["check", "--group", S3, "--json"], capsys)
        assert code == 0
        assert json.loads(out)["group"]["size"] == 6


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "symq.cli", "check", "--rack", RACK, "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rack"]["ok"] is True


class TestParserReuse:
    """One parser per process: built on the first request, then shared."""

    def test_one_parser(self):
        assert _build_parser() is _build_parser()

    def test_built_on_the_first_request_not_at_import(self):
        # count every ArgumentParser made, the verbs' subparsers included
        script = (
            "import argparse, contextlib, io\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    made.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import symq.cli\n"
            "counts = [len(made)]\n"
            "for _ in range(3):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        symq.cli.main(['involutions', '--rack', {CORE!r}])\n"
            "    counts.append(len(made))\n"
            "print(counts)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)
        assert counts[0] == 0
        assert counts[1] == counts[2] == counts[3] > 0

    def test_errors_leave_no_state_behind(self, tmp_path, capsys):
        # a usage error, a validation error, then every recorded case in
        # reverse order, all through the one shared parser
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as e:
                main(["involutions", "--rack", CORE, "--theory", "sq"])
            assert e.value.code == 1
            errors.append(capsys.readouterr().err)
            assert run(["check", "--rack", "/no/such.json"], capsys)[0] == 2
        assert errors[0] == errors[1]
        assert "unrecognized arguments: --theory sq" in errors[0]
        _write_inputs(tmp_path)
        recorded = _recorded()
        for argv in reversed(CASES):
            assert _record(argv, tmp_path) == recorded[tuple(argv)]
