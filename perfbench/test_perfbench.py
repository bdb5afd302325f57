"""Tests of the benchmark itself: tracer coverage, relabelling, contract.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import symq  # noqa: E402
import symq.cli  # noqa: E402

import relabel  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# tasks cheap enough to run here, per workload
CHEAP = {
    "presentation": ("t4/Z4/sr/d2", "t3/Z4/sq/d2", "t3/Z4/sr/d2", "t3/Z2xZ2/sr/d2", "t8/Z4/sq/d1"),
    "wells": ("t2/Z4/sr/fixture", "t2/Z3/sq/zero"),
    "chain": ("takasaki3/tw_z3/d4/bp0", "t2/m0_z4/d3/bp1", "t4/tw_z3/d3/psi-flip", "t4/m0_z/d3/psi-flip"),
    "cli_mix": None,  # every request
}


def _bindings():
    """Every (namespace, name) -> object in the symq modules and measured classes."""
    out = {}
    for ns in tracer._symq_namespaces():
        for name, value in vars(ns).items():
            out[(ns, name)] = value
    for module, path, _ in tracer.MEASURED:
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(getattr(symq, module), cls_name)
            out[(cls, attr)] = cls.__dict__[attr]
    return out


def _cheap_tasks(workload, seed, tmp_path):
    tasks = workloads.build(workload, seed, tmp_path / workload)
    keep = CHEAP[workload]
    return [t for t in tasks if keep is None or t.name in keep]


def test_tracer_rebinds_every_import_path():
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        after = _bindings()
        for module, path, key in tracer.MEASURED:
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(getattr(symq, module), cls_name)
                assert cls.__dict__[attr].trace_key == key
                continue
            original = getattr(getattr(symq, module), path).__wrapped__
            holders = [where for where, obj in before.items() if obj is original]
            assert len(holders) >= 1
            for where in holders:
                assert getattr(after[where], "trace_key", None) == key, where
    finally:
        tr.uninstall()


def test_calls_through_reexports_are_recorded(tmp_path):
    A = symq.AbGroup((4,))
    X = symq.load_rack(symq.fixture_path("rack_t2.json"))
    m = symq.dihedral_kamada_module(X, A)
    sigma = symq.load_cochain(symq.fixture_path("cocycle_t2_z4.json"), 2, A)
    tr = tracer.Tracer()
    tr.install()
    try:
        f = symq.AbHom(A, A, [[2]])
        calls = [
            ("abelian.kernel", lambda: symq.cohomology.kernel(f)),
            ("abelian.solve", lambda: symq.cohomology.solve(f, (2,))),
            ("abelian.Subquotient", lambda: symq.cohomology.Subquotient(A, [(1,)], [(2,)])),
            ("abelian.smith_normal_form", lambda: symq.smith_normal_form([[2, 4]])),
            ("cohomology.coboundary_witness",
             lambda: symq.wells.coboundary_witness(m, symq.Cochain.zero(2, 2, A), "sr")),
            ("wells.build_abelian_extension", lambda: symq.cli.build_abelian_extension(m, sigma, "sr")),
            ("wells.wells_report",
             lambda: symq.cli.wells_report(symq.build_abelian_extension(m, sigma, "sr"))),
        ]
        for key, call in calls:
            before = tr.stats[key][0]
            call()
            assert tr.stats[key][0] > before, key
        metrics = tr.metrics()
        assert metrics["wells.lifts_per_aut"] > 1
        assert metrics["abelian.smith_normal_form.cells"] > 0
    finally:
        tr.uninstall()


def test_untraced_code_sees_the_original_objects(tmp_path):
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [where for where, obj in before.items() if after[where] is not obj]
    assert changed == []


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in tracer.METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in tracer.METRICS]
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_seeds_relabel_differently():
    X = symq.takasaki(6)
    a = relabel.rack(X, relabel.permutation(1, "t6", 6))
    b = relabel.rack(X, relabel.permutation(2, "t6", 6))
    assert a.rack.table != b.rack.table
    assert relabel.permutation(1, "t6", 6) == relabel.permutation(1, "t6", 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_expected_answers_hold_for_two_seeds(workload, tmp_path):
    for seed in (1, 2):
        for task in _cheap_tasks(workload, seed, tmp_path / str(seed)):
            assert task.check(task.run()) is None, (seed, task.name)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_expected_answers_hold_unrelabelled(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(relabel, "permutation", lambda seed, name, n: tuple(range(n)))
    for task in _cheap_tasks(workload, 0, tmp_path):
        assert task.check(task.run()) is None, task.name


def test_checks_reject_wrong_answers(tmp_path):
    pres = next(t for t in _cheap_tasks("presentation", 1, tmp_path) if t.name == "t4/Z4/sr/d2")
    assert pres.check(symq.cohomology_presentation(
        symq.dihedral_kamada_module(symq.takasaki(4), symq.AbGroup((4,))), 2, "sq")) is not None
    flip = next(t for t in _cheap_tasks("chain", 1, tmp_path) if t.name == "t4/tw_z3/d3/psi-flip")
    assert flip.check((True, None)) is not None
    report = next(t for t in _cheap_tasks("cli_mix", 1, tmp_path) if t.name == "wells-report/t2/Z4#1")
    assert report.check((3, "")) is not None


@pytest.mark.parametrize("orders, name", [((4,), "t2_z4"), ((0,), "t2_z")])
def test_transported_cocycle_is_still_a_cocycle(orders, name):
    A = symq.AbGroup(orders)
    X = symq.load_rack(symq.fixture_path("rack_t2.json"))
    sigma = symq.load_cochain(symq.fixture_path(f"cocycle_{name}.json"), X.size, A)
    for seed in (1, 2, 3):
        perm = relabel.permutation(seed, "t2", X.size)
        Y = relabel.rack(X, perm)
        moved = relabel.cochain(sigma, perm)
        m = symq.dihedral_kamada_module(Y, A)
        assert symq.is_cocycle(m, moved, "sr")[0]
        for x in range(X.size):
            for y in range(X.size):
                assert moved.value(perm[x], perm[y]) == sigma.value(x, y)


def _child(tasks, durations, reference_s, setup_s=0.2, rss=20.0, headline=()):
    R = run.REFERENCE_S
    return {"tasks": tasks, "headline": list(headline), "durations": durations,
            "reference_s": [[R * x for x in refs] for refs in reference_s],
            "setup_s": setup_s, "setup_reference_s": 2 * R, "peak_rss_mb": rss}


def test_end_to_end_scales_and_takes_the_lower_quartile():
    tasks, headline = ["a", "b#1", "b#2"], ["b#1", "b#2"]
    children = [
        # the machine ran at half speed in the second pass
        _child(tasks, [[0.2, 1.0, 0.6], [0.4, 1.6, 1.4]], [[1, 1, 1], [2, 2, 2]], 0.5, 20.0, headline),
        _child(tasks, [[0.3, 0.9, 0.7], [0.3, 0.9, 0.7]], [[1, 1, 1], [1, 1, 1]], 0.2, 21.0, headline),
        # a pass whose reference runs were all slow scales its tasks far down
        _child(tasks, [[0.5, 1.0, 1.0]], [[10, 10, 10]], 0.3, 19.0, headline),
    ]
    metrics, info = run.end_to_end(children)
    # scaled times: a 0.2 0.2 0.3 0.3 0.05, b#1 1.0 0.8 0.9 0.9 0.1, b#2 0.6 0.7 0.7 0.7 0.1
    assert metrics["wall_s"][0] == pytest.approx(0.2 + 0.8 + 0.6)
    assert metrics["headline_s"][0] == pytest.approx((0.8 + 0.6) / 2)
    assert metrics["peak_rss_mb"][0] == 21.0
    # set-up ran at half speed, so its median is halved too
    assert metrics["setup_s"][0] == pytest.approx(0.15)
    assert info["passes"] == 5
    assert info["measured_wall_s"] == pytest.approx(0.3 + 0.9 + 0.7)
    assert info["measured_setup_s"] == pytest.approx(0.3)


def test_end_to_end_scales_by_the_reference_runs_near_each_task():
    tasks = [f"t{i}" for i in range(8)]
    # the machine slowed to half speed halfway through the pass
    child = _child(tasks, [[1, 1, 1, 1, 2, 2, 2, 2]], [[1, 1, 1, 1, 2, 2, 2, 2]], headline=["t0"])
    metrics, _ = run.end_to_end([child])
    # t4 and t5 still see a full-speed run within two places; t6 and t7 do not
    assert metrics["wall_s"][0] == pytest.approx(4 * 1 + 2 * 2 + 2 * 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_headline_runs_on_several_relabellings(workload, tmp_path):
    tasks = workloads.build(workload, 1, tmp_path)
    headline = [t.name for t in tasks if t.headline]
    assert len(headline) == workloads.HEADLINE_COPIES
    assert len({t.name for t in tasks}) == len(tasks)


def test_a_child_over_its_time_limit_is_killed(capsys):
    args = argparse.Namespace(seed=1, trace=0)
    assert run.run_child(ROOT, args, "cli_mix", 5.0, 0.05) is None
    assert "killed" in capsys.readouterr().err


def test_refuses_to_run_without_symq_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cli_mix", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
