"""JSON schemas: load/save round trips and failure reporting."""

import json
from importlib.resources import files

import pytest

from symq import limits
from symq.cohomology import THEORY_SR, Cochain
from symq.dynamical import DynamicalCocycle, from_cocycle
from symq.errors import ValidationError
from symq.groups import FiniteGroup
from symq.racks import takasaki, validate_rack
from symq.serialize import (
    cochain_from_dict,
    cochain_to_dict,
    dynamical_from_dict,
    dynamical_to_dict,
    fixture_path,
    group_from_dict,
    group_to_dict,
    load_cochain,
    load_dynamical,
    load_group,
    load_json,
    load_module,
    load_rack,
    module_from_dict,
    module_to_dict,
    rack_from_dict,
    rack_to_dict,
    save_cochain,
    save_dynamical,
    save_group,
    save_json,
    save_module,
    save_rack,
)

from conftest import cochain, module, rack

RACK_NAMES = [
    "t2", "t4", "takasaki3", "takasaki4", "takasaki5",
    "core_z4", "core_z4_shift", "conj_s3",
]


class TestRoundTrips:
    @pytest.mark.parametrize("name", RACK_NAMES)
    def test_racks(self, name, tmp_path):
        X = rack(name)
        p = tmp_path / "r.json"
        save_rack(X, p)
        assert load_rack(p) == X

    @pytest.mark.parametrize("name", ["z4", "s3"])
    def test_groups(self, name, tmp_path):
        G = load_group(fixture_path(f"group_{name}.json"))
        p = tmp_path / "g.json"
        save_group(G, p)
        assert load_group(p) == G

    @pytest.mark.parametrize("rname,mname", [
        ("t2", "m0_z"), ("t2", "m0_z2"), ("t2", "m0_z4"), ("takasaki3", "tw_z3"),
    ])
    def test_modules(self, rname, mname, tmp_path):
        X = rack(rname)
        m = module(mname, X)
        p = tmp_path / "m.json"
        save_module(m, p)
        back = load_module(p, X)
        assert back.phi == m.phi and back.psi == m.psi and back.eta == m.eta

    @pytest.mark.parametrize("cname,mname", [("t2_z", "m0_z"), ("t2_z4", "m0_z4")])
    def test_cochains(self, cname, mname, tmp_path):
        X = rack("t2")
        m = module(mname, X)
        c = cochain(cname, X, m)
        p = tmp_path / "c.json"
        save_cochain(c, p)
        assert load_cochain(p, X.size, m.A) == c

    def test_degree_zero_cochain(self, tmp_path):
        X = rack("t2")
        m = module("m0_z4", X)
        c = Cochain(0, X.size, m.A, [(1,)])
        p = tmp_path / "c0.json"
        save_cochain(c, p)
        assert load_cochain(p, X.size, m.A) == c

    def test_dynamical(self, tmp_path):
        X = rack("t2")
        m = module("m0_z4", X)
        dc = from_cocycle(m, cochain("t2_z4", X, m), THEORY_SR)
        p = tmp_path / "d.json"
        save_dynamical(dc, p)
        sizes, alpha, beta = load_dynamical(p, X)
        assert DynamicalCocycle(X, sizes, alpha, beta, quandle=False) == dc

    def test_bundled_dynamical_fixture(self):
        X = rack("t2")
        sizes, alpha, beta = load_dynamical(fixture_path("dynamical_t2_z4.json"), X)
        assert sizes == (4, 4)

    def test_every_bundled_dynamical_fixture_loads_under_the_size_cap(self):
        # fixtures are named dynamical_<base rack>_<fiber group>.json
        paths = [p for p in files("symq").joinpath("fixtures").iterdir()
                 if p.name.startswith("dynamical_")]
        assert paths
        for p in paths:
            X = load_rack(fixture_path(f"rack_{p.name.split('_')[1]}.json"))
            sizes, alpha, beta = load_dynamical(p, X)
            assert 0 < sum(sizes) <= limits.TABLE_SIZE


class TestErrors:
    def test_missing_file(self):
        with pytest.raises(ValidationError) as err:
            load_json("/nonexistent/nowhere.json")
        assert "nowhere.json" in str(err.value)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError) as err:
            load_json(p)
        assert "line" in str(err.value)

    def test_missing_field_cites_it(self):
        with pytest.raises(ValidationError) as err:
            rack_from_dict({"size": 2, "table": [[0, 0], [1, 1]], "kind": "quandle"})
        assert "rho" in str(err.value)

    def test_bad_kind(self):
        with pytest.raises(ValidationError) as err:
            rack_from_dict(
                {"size": 2, "table": [[0, 0], [1, 1]], "rho": [0, 1], "kind": "group"}
            )
        assert "kind" in str(err.value)

    def test_invalid_rack_rejected(self):
        with pytest.raises(ValidationError):
            rack_from_dict(
                {"size": 2, "table": [[0, 0], [0, 0]], "rho": [0, 1], "kind": "rack"}
            )

    def test_table_size_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(limits, "TABLE_SIZE", 3)
        assert rack_from_dict(rack_to_dict(takasaki(3))).size == 3
        assert group_from_dict(group_to_dict(FiniteGroup.cyclic(3))).size == 3
        with pytest.raises(ValidationError, match=r"rack.size: 4 is above limits.TABLE_SIZE = 3"):
            rack_from_dict(rack_to_dict(takasaki(4)))
        with pytest.raises(ValidationError, match=r"group.size: 4 is above limits.TABLE_SIZE = 3"):
            group_from_dict(group_to_dict(FiniteGroup.cyclic(4)))

    def test_fiber_total_cap_is_inclusive_and_read_before_alpha(self, monkeypatch):
        X = rack("t2")
        obj = load_json(fixture_path("dynamical_t2_z4.json"))  # two fibers of 4
        monkeypatch.setattr(limits, "TABLE_SIZE", 8)
        assert dynamical_from_dict(obj, X)[0] == (4, 4)
        monkeypatch.setattr(limits, "TABLE_SIZE", 7)
        obj["alpha"] = "never parsed"
        with pytest.raises(ValidationError,
                           match=r"dynamical.fibers total: 8 is above limits.TABLE_SIZE = 7"):
            dynamical_from_dict(obj, X)

    def test_the_library_is_not_capped(self, monkeypatch):
        monkeypatch.setattr(limits, "TABLE_SIZE", 2)
        assert validate_rack(takasaki(3).rack.table).size == 3
        assert FiniteGroup.cyclic(4).size == 4

    def test_bool_is_not_an_int(self):
        with pytest.raises(ValidationError):
            rack_from_dict(
                {"size": 2, "table": [[True, 0], [1, 1]], "rho": [0, 1], "kind": "rack"}
            )

    def test_module_requires_all_pairs(self, t2):
        obj = {
            "group": {"invariant_factors": [4]},
            "phi": {"by_pair": {"0,0": [[1]]}},
            "psi": {"constant": [[0]]},
            "eta": {"constant": [[-1]]},
        }
        with pytest.raises(ValidationError) as err:
            module_from_dict(obj, t2)
        assert "0,1" in str(err.value) or "by_pair" in str(err.value)

    def test_module_axioms_checked_on_load(self, t2):
        obj = {
            "group": {"invariant_factors": [5]},
            "phi": {"constant": [[2]]},
            "psi": {"constant": [[0]]},
            "eta": {"constant": [[4]]},
        }
        with pytest.raises(ValidationError) as err:
            module_from_dict(obj, t2)
        assert "M6" in err.value.report() or "M9" in err.value.report()

    @pytest.mark.parametrize("spec", [5, [[1]], {}, {"matrix": [[1]]}],
                             ids=["int", "list", "empty", "other-field"])
    def test_map_spec_must_be_one_form(self, t2, spec):
        obj = {
            "group": {"invariant_factors": [4]},
            "phi": spec,
            "psi": {"constant": [[0]]},
            "eta": {"constant": [[-1]]},
        }
        with pytest.raises(ValidationError) as err:
            module_from_dict(obj, t2)
        assert "module.phi:" in str(err.value)

    def test_cochain_requires_every_tuple(self, t2):
        m = module("m0_z4", t2)
        obj = {"degree": 2, "values": {"0,0": [0], "0,1": [0], "1,0": [0]}}
        with pytest.raises(ValidationError) as err:
            cochain_from_dict(obj, 2, m.A)
        assert "1,1" in str(err.value)

    def test_cochain_rank_mismatch(self, t2):
        m = module("m0_z4", t2)
        obj = {"degree": 1, "values": {"0": [0, 0], "1": [0]}}
        with pytest.raises(ValidationError):
            cochain_from_dict(obj, 2, m.A)

    def test_key_out_of_range(self, t2):
        m = module("m0_z4", t2)
        obj = {"degree": 1, "values": {"0": [0], "2": [0]}}
        with pytest.raises(ValidationError):
            cochain_from_dict(obj, 2, m.A)


class TestFormatting:
    def test_save_json_is_stable(self, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_json({"b": 1, "a": [2, 3]}, p1)
        save_json({"a": [2, 3], "b": 1}, p2)
        assert p1.read_text() == p2.read_text()
        assert p1.read_text().endswith("\n")

    def test_dict_forms_are_canonical(self):
        X = rack("t2")
        m = module("m0_z4", X)
        d = module_to_dict(m)
        assert "constant" in d["phi"]
        assert d["group"]["invariant_factors"] == [4]
        r = rack_to_dict(X)
        assert set(r) == {"size", "table", "rho", "kind"}
        c = cochain_to_dict(cochain("t2_z4", X, m))
        assert set(c["values"]) == {"0,0", "0,1", "1,0", "1,1"}
        G = load_group(fixture_path("group_s3.json"))
        assert group_to_dict(G)["size"] == 6
        dc = from_cocycle(m, cochain("t2_z4", X, m), THEORY_SR)
        dd = dynamical_to_dict(dc)
        assert set(dd) == {"fibers", "alpha", "beta"}
        assert set(dd["fibers"]) == {"0", "1"}
