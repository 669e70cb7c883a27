import contextlib
import copy
import hashlib
import io
import json
import os
import re
import tempfile
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from laddergroups import cli, splitting
from laddergroups.cli import CHECK_MODULES, main, render_report, run_scenario

MODULES = {
    "ordinal",
    "ladder",
    "group_core",
    "group_construction",
    "filtration_equiv",
    "whitehead",
}

OPTIONS = {"depth": 6, "seed": 0, "bound": 25, "stage": None, "kind": None}


def scenario_path(name: str) -> str:
    return str(resources.files("laddergroups.scenarios").joinpath(name))


BUNDLED = ["example14-pair.json", "parity-obstruction.json", "uniformize-roundtrip.json"]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_pass(name):
    report = run_scenario(scenario_path(name), dict(OPTIONS))
    assert report["ok"], report["first_failure"]
    assert report["passed"] == report["total"] > 0


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_cover_every_module(name):
    with open(scenario_path(name), encoding="utf-8") as fh:
        raw = json.load(fh)
    covered = set()
    for chk in raw["checks"]:
        covered.update(CHECK_MODULES[chk["check"]])
    assert covered == MODULES, f"{name} misses {MODULES - covered}"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", BUNDLED)
def test_reports_are_deterministic(name, fmt):
    first = render_report(run_scenario(scenario_path(name), dict(OPTIONS)), fmt)
    second = render_report(run_scenario(scenario_path(name), dict(OPTIONS)), fmt)
    assert first.encode() == second.encode()


# SHA-256 of each shipped report under the default options, as recorded in
# bench/digests.json: a refactor must leave every byte of them unchanged.
SHIPPED_DIGESTS = {
    ("example14-pair.json", "text"):
        "b6240b61d1d4c614b4c876692b4b0bbf34c95f2dae240b06216226c5662cee95",
    ("example14-pair.json", "json"):
        "fd8640a4de07f57d7e90e19fc54048a03d38934c12e35b14f941af44b983e076",
    ("parity-obstruction.json", "text"):
        "3641417cefea2a7bf6676a869ecf18e8a3ed0d25a40f94711dd0e4c4beae75dc",
    ("parity-obstruction.json", "json"):
        "602f4640b709cc4cb2074f6859344576db8cec87caedbfcdbb20be810bf4ca89",
    ("uniformize-roundtrip.json", "text"):
        "2ef823005703be3c5109859fa1c485ac243e51d0c31a7d1f5b920a0a78e70a08",
    ("uniformize-roundtrip.json", "json"):
        "601ae3f284f8f31cdead3c971140e03008938f6f91f6885d24d185f9f8bda345",
}


@pytest.mark.parametrize("name, fmt", sorted(SHIPPED_DIGESTS))
def test_shipped_reports_keep_their_digests(name, fmt):
    report = render_report(run_scenario(scenario_path(name), dict(OPTIONS)), fmt)
    assert hashlib.sha256(report.encode()).hexdigest() == SHIPPED_DIGESTS[(name, fmt)]


def test_shipped_scenarios_in_a_thread_pool_give_the_serial_reports():
    # the runs share the module-level prime list and the objects' cached
    # values; four workers interleaving them must not change a byte
    def run(name):
        return render_report(run_scenario(scenario_path(name), dict(OPTIONS)), "json").encode()

    serial = [run(name) for name in BUNDLED]
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(run, BUNDLED * 4)) == serial * 4


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["run", scenario_path("parity-obstruction.json"), "--out",
                 str(tmp_path / "r.txt")]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"systems": {', encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_single_verb_filters(tmp_path):
    out = tmp_path / "v.txt"
    assert main(["validate", scenario_path("example14-pair.json"), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "== validate" in text
    assert "== equiv" not in text


def test_malformed_ordinal_literal_is_reported(tmp_path, capsys):
    bad = {
        "systems": {"s": {"alpha": "w+w", "ladders": []}},
        "checks": [{"check": "validate", "system": "s"}],
    }
    path = tmp_path / "bad-ordinal.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    with pytest.raises(Exception, match="non-canonical"):
        run_scenario(str(path), dict(OPTIONS))
    assert main(["run", str(path)]) == 2
    assert "non-canonical" in capsys.readouterr().err


def test_unknown_reference_names_location(tmp_path):
    bad = {
        "systems": {},
        "checks": [{"check": "validate", "system": "nope"}],
    }
    path = tmp_path / "bad-ref.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    with pytest.raises(Exception, match=r"checks\[0\].system"):
        run_scenario(str(path), dict(OPTIONS))


def test_failing_check_yields_nonzero_exit(tmp_path):
    scenario = {
        "systems": {
            "nu": {
                "alpha": "w^2+1",
                "ladders": [{"delta": "w^2", "family": "blocks", "blocks": 6}],
            }
        },
        "colorings": {
            "z": {"palette": 2, "entries": [{"delta": "w^2", "colors": [0] * 12}]},
        },
        "checks": [
            {
                "check": "obstruct",
                "system": "nu",
                "depth": 6,
                "c1": "z",
                "c2": "z",
                "b": {"values": {"w^2": [[3, 6]] * 6}},
                "bounds": [2],
                "expect": "OBSTRUCTED",
            }
        ],
    }
    path = tmp_path / "expect-fail.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "o.txt")]) == 1
    report = run_scenario(str(path), dict(OPTIONS))
    assert not report["ok"]
    assert report["checks"][0]["status"] == "NOT_OBSTRUCTED"


def test_depth_exhaustion_hint(tmp_path):
    scenario = {
        "systems": {
            "s": {
                "alpha": "w^2+1",
                "ladders": [{"delta": "w^2", "family": "simple", "blocks": 3}],
            }
        },
        "groups": {"g": {"system": "s", "coeffs": "ones"}},
        "checks": [{"check": "build", "group": "g", "depth": 9}],
    }
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    report = run_scenario(str(path), dict(OPTIONS))
    assert not report["ok"]
    assert "increase depth" in report["checks"][0]["error"]


def test_short_psi_table_names_the_lowest_missing_entry(tmp_path):
    scenario = {
        "systems": {
            "s": {
                "alpha": "w^2+1",
                "ladders": [{"delta": "w^2", "family": "simple", "blocks": 6}],
            }
        },
        "groups": {"g": {"system": "s", "coeffs": "ones", "psi": [1, 2]}},
        "checks": [{"check": "build", "group": "g", "depth": 5}],
    }
    path = tmp_path / "short-psi.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["build", str(path), "--format", "json", "--out", str(out)]) == 1
    (chk,) = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert chk["error"] == "psi table has no entry for n = 2"


def test_obstruct_deeper_than_its_ladders_names_the_ladder(tmp_path):
    path = _obstruct_scenario(tmp_path, depth=12)
    report = run_scenario(str(path), dict(OPTIONS))
    (chk,) = [c for c in report["checks"] if c["kind"] == "obstruct"]
    assert chk["error"] == "ladder on w^2*1 explored to 8 blocks, need 12; increase depth"


def _two_ladder_obstruct(tmp_path, c1_high=16, c2_low=16, psi="factorial"):
    """An obstruct check at depth 6 on a w^2/w^2*2 system of 8 paired blocks
    per ladder, where c1 and c2 first differ at index 2 on w^2; c1 has c1_high
    colors on w^2*2, and c2 has c2_low on w^2."""
    def coloring(low, high, flip):
        return {"entries": [{"delta": "w^2", "colors": [0, 0, flip] + [0] * (low - 3)},
                            {"delta": "w^2*2", "colors": [0] * high}]}

    scenario = {
        "systems": {"s": {"alpha": "w^2*2+1", "ladders": [
            {"delta": "w^2", "family": "blocks", "blocks": 8},
            {"delta": "w^2*2", "family": "blocks", "blocks": 8}]}},
        "colorings": {"c1": coloring(16, c1_high, 1), "c2": coloring(c2_low, 16, 0)},
        "checks": [{"check": "obstruct", "system": "s", "depth": 6, "c1": "c1", "c2": "c2",
                    "psi": psi}],
    }
    path = tmp_path / "two-ladders.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return path


@pytest.mark.parametrize("fault,error", [
    ({"c1_high": 4}, "coloring on w^2*2 shallower than stage depth"),
    ({"c2_low": 4}, "coloring on w^2*1 shallower than stage depth"),
    ({"psi": [1, 2, 3]}, "psi table has no entry for n = 3"),
    # two faults: the colorings are checked before psi is read
    ({"c2_low": 4, "psi": [1, 2, 3]}, "coloring on w^2*1 shallower than stage depth"),
])
def test_obstruct_names_its_fault(tmp_path, fault, error):
    report = run_scenario(str(_two_ladder_obstruct(tmp_path, **fault)), dict(OPTIONS))
    (chk,) = report["checks"]
    assert not chk["ok"] and chk["error"] == error


def test_obstruct_check_builds_no_stage(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_stage called")

    for module in (cli, splitting):
        monkeypatch.setattr(module, "build_stage", refuse)
    report = run_scenario(str(_two_ladder_obstruct(tmp_path)), dict(OPTIONS))
    (chk,) = report["checks"]
    assert chk["ok"] and chk["status"] == "OBSTRUCTED"


def test_obstruct_stage_below_a_shallower_ladder_runs(tmp_path):
    # the lift is read on the stage's ladders only: w^2*2, above the stage
    # level, is explored to fewer blocks than the depth
    colors = {"z": [0] * 16, "f": [0, 0, 1] + [0] * 13}
    scenario = {
        "systems": {"s": {"alpha": "w^2*2+1", "ladders": [
            {"delta": "w^2", "family": "blocks", "blocks": 8},
            {"delta": "w^2*2", "family": "blocks", "blocks": 4}]}},
        "colorings": {name: {"entries": [{"delta": "w^2", "colors": c},
                                         {"delta": "w^2*2", "colors": [0] * 8}]}
                      for name, c in colors.items()},
        "checks": [{"check": "obstruct", "system": "s", "alpha": "w^2+1", "depth": 6,
                    "c1": "f", "c2": "z"}],
    }
    path = tmp_path / "stage-below.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    report = run_scenario(str(path), dict(OPTIONS))
    assert report["checks"][0]["status"] == "OBSTRUCTED"


def test_obstruct_verdict_reads_the_stage_deltas_only(tmp_path):
    # the colorings differ only on w^2*2, above the stage level: the stage
    # sees no color difference, and a section pair exists
    colors = {"z": [0] * 8, "f": [0, 0, 1] + [0] * 5}
    scenario = {
        "systems": {"s": {"alpha": "w^2*2+1", "ladders": [
            {"delta": "w^2", "family": "blocks", "blocks": 8},
            {"delta": "w^2*2", "family": "blocks", "blocks": 8}]}},
        "colorings": {name: {"entries": [{"delta": "w^2", "colors": [0] * 8},
                                         {"delta": "w^2*2", "colors": c}]}
                      for name, c in colors.items()},
        "checks": [{"check": "obstruct", "system": "s", "alpha": "w^2+1", "depth": 6,
                    "c1": "f", "c2": "z"}],
    }
    path = tmp_path / "stage-below-difference.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    (chk,) = run_scenario(str(path), dict(OPTIONS))["checks"]
    assert chk["ok"], chk
    assert chk["status"] == "NOT_OBSTRUCTED"
    assert chk["nstar"] is None
    assert list(chk["trace"]) == ["w^2*1"]
    assert [status for _, status, _ in chk["searches"]] == ["found"]


@pytest.mark.parametrize("depth", [-3, "6", 2.5, True])
@pytest.mark.parametrize("kind", ["build", "project", "equiv", "extend", "obstruct"])
def test_malformed_check_depth_exits_2(tmp_path, capsys, kind, depth):
    with open(scenario_path("example14-pair.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    for chk in raw["checks"]:
        if chk["check"] == kind:
            chk["depth"] = depth
    path = tmp_path / "bad-depth.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main([kind, str(path)]) == 2
    assert "depth: expected a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [5, "w^2+", ["w^2+1"], None])
@pytest.mark.parametrize("kind", ["build", "project", "equiv", "extend", "obstruct"])
def test_malformed_check_alpha_exits_2(tmp_path, capsys, kind, alpha):
    with open(scenario_path("example14-pair.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    for chk in raw["checks"]:
        if chk["check"] == kind:
            chk["alpha"] = alpha
    path = tmp_path / "bad-alpha.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main([kind, str(path)]) == 2
    err = capsys.readouterr().err
    assert ".alpha: " in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "levels, message",
    [("w", "levels: expected a list"), ([5], "levels[0]: expected an ordinal"),
     (["w*3", "w+w"], "levels[1]: non-canonical")],
)
def test_malformed_project_levels_exit_2(tmp_path, capsys, levels, message):
    with open(scenario_path("example14-pair.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    for chk in raw["checks"]:
        if chk["check"] == "project":
            chk["levels"] = levels
    path = tmp_path / "bad-levels.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["project", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw["systems"]["pair-src"].update(alpha=5), "systems[pair-src].alpha: expected"),
        (lambda raw: raw["systems"]["pair-src"]["ladders"][0].update(delta="w^1"),
         "systems[pair-src].ladders[0].delta: non-canonical"),
        (lambda raw: raw["colorings"]["c-flip"]["entries"][0].update(delta=2),
         "colorings[c-flip].entries[0].delta: expected"),
        (lambda raw: raw["colorings"]["c-flip"]["entries"][0].pop("colors"),
         "colorings[c-flip].entries[0]: missing required field 'colors'"),
        (lambda raw: raw["colorings"]["c-flip"]["entries"][0].update(colors=["0"] * 16),
         "colorings[c-flip].entries[0].colors: expected a list of non-negative"),
        (lambda raw: raw["colorings"]["c-flip"].update(palette="2"),
         "colorings[c-flip].palette: expected a positive integer or null"),
        (lambda raw: raw["checks"][7].update(b={"values": {}}),
         "checks[7].b.values[w^2*1]: expected a list of 8 block vectors"),
        (lambda raw: raw["checks"][7].update(b={"values": {"w^2": [[3, 6]] * 3}}),
         "checks[7].b.values[w^2*1]: expected a list of 8 block vectors"),
        (lambda raw: raw["checks"][7].update(b={"values": {"w^2": [[3, "6"]] * 8}}),
         "checks[7].b.values[w^2*1][0]: expected a list of 2 integers"),
        (lambda raw: raw["checks"][7].update(b=5), "checks[7].b: expected an object"),
        (lambda raw: raw["checks"][7]["b"]["values"].update({"w^2*5": [[3, 6]]}),
         "checks[7].b.values: no ladder on w^2*5"),
        (lambda raw: raw["checks"][7].update(b={"random": {"low": "a"}}),
         "checks[7].b.random: expected integers low <= high"),
        (lambda raw: raw["checks"][7].update(expect="MAYBE"),
         "checks[7].expect: expected one of OBSTRUCTED, NOT_OBSTRUCTED, INCONCLUSIVE"),
        (lambda raw: raw.update(checks=5), "checks: expected a list, got 5"),
        (lambda raw: raw["checks"].__setitem__(0, 5), "checks[0]: expected an object, got 5"),
        (lambda raw: raw["systems"]["pair-src"]["ladders"][0].update(blocks="x"),
         "systems[pair-src].ladders[0].blocks: expected a positive integer, got 'x'"),
        (lambda raw: raw["systems"]["pair-ext"]["ladders"][0].update(offsets=[["a"]]),
         "systems[pair-ext].ladders[0].offsets: expected a list of integer lists"),
        (lambda raw: raw["systems"]["pair-ext"]["ladders"][0].update(
            entries=["w*1+1", "w*1+2"], breakpoints="ab"),
         "systems[pair-ext].ladders[0].breakpoints: expected a list of non-negative integers"),
        (lambda raw: raw["systems"]["pair-src"].update(ladders={}),
         "systems[pair-src].ladders: expected a list, got {}"),
        (lambda raw: raw["systems"]["pair-src"].update(ladders=[]),
         "systems[pair-dst].block_sizes: no ladder on w^2*1 in the system"),
        (lambda raw: raw.update(systems=[]), "systems: expected an object, got []"),
        (lambda raw: raw["systems"].update({"pair-ext": 5}),
         "systems[pair-ext]: expected an object, got 5"),
        (lambda raw: raw["groups"]["g-dst"]["coeffs"]["w^2"].__setitem__(0, "ab"),
         "groups[g-dst].coeffs[w^2*1]: expected a list of integer lists"),
        (lambda raw: raw["colorings"]["c-flip"].update(entries=5),
         "colorings[c-flip].entries: expected a list, got 5"),
        (lambda raw: raw["checks"][0].update(name=5), "checks[0].name: expected a string, got 5"),
        (lambda raw: raw["checks"][6].update(seed="x"),
         "checks[6].seed: expected an integer, got 'x'"),
        (lambda raw: raw["checks"][6].update(target="bogus"),
         "checks[6].target: expected one of integers, marked, got 'bogus'"),
        (lambda raw: raw["checks"][7].update(zero_splits="no"),
         "checks[7].zero_splits: expected true or false, got 'no'"),
        (lambda raw: raw["checks"][6].update(phi={"random": {"low": "a"}}),
         "checks[6].phi.random: expected integers low <= high"),
        (lambda raw: raw["checks"][6].update(recover="yes"),
         "checks[6].recover: expected true or false, got 'yes'"),
        (lambda raw: raw["colorings"]["c-flip"]["entries"].append(
            dict(raw["colorings"]["c-flip"]["entries"][0])),
         "colorings[c-flip].entries[2].delta: delta w^2*1 given twice"),
        (lambda raw: raw["systems"]["pair-src"]["ladders"].append(
            {"delta": "w^2", "family": "simple", "blocks": 3}),
         "systems[pair-src].ladders[2].delta: delta w^2*1 given twice"),
        (lambda raw: raw["groups"]["g-dst"]["coeffs"].update({"w^2*1": [[1, -1]] * 8}),
         "groups[g-dst].coeffs: delta w^2*1 given twice"),
        (lambda raw: raw["systems"]["pair-dst"]["block_sizes"].update({"w^3": [1]}),
         "systems[pair-dst].block_sizes: no ladder on w^3*1 in the system"),
        (lambda raw: raw["groups"]["g-dst"]["coeffs"].update({"w^3": [[1]]}),
         "groups[g-dst].coeffs: no ladder on w^3*1 in the system"),
        (lambda raw: raw["checks"][6].update(phi={"values": {"w^3": [1]}}),
         "checks[6].phi.values: no ladder on w^3*1 in the system"),
        (lambda raw: raw["checks"][6].update(phi={"values": {"w^2": [1, 1]}}),
         "checks[6].phi.values[w^2*1]: expected a list of 6 integers, got [1, 1]"),
        (lambda raw: raw["checks"][6].update(phi={"values": {}}),
         "checks[6].phi.values[w^2*1]: expected a list of 6 integers, got None"),
        (lambda raw: raw["systems"]["pair-ext"]["ladders"][0].update(offsets=[[2, 1]]),
         "systems[pair-ext]: offsets must be strictly increasing positive integers"),
        (lambda raw: raw["colorings"]["c-flip"]["entries"][0]["colors"].__setitem__(2, 3),
         "colorings[c-flip]: color 3 at (w^2*1,2) outside palette"),
        (lambda raw: raw["systems"]["pair-src"].update(alpha="0"),
         "systems[pair-src]: w^2*1: not below alpha 0"),
        (lambda raw: raw["groups"]["g-dst"]["coeffs"]["w^2"].__setitem__(0, [2, 4]),
         "groups[g-dst]: coefficients (2, 4) for block 0 of w^2*1 do not have gcd 1"),
        (lambda raw: raw["groups"]["g-dst"]["coeffs"]["w^2"].__setitem__(0, [1]),
         "groups[g-dst]: block 0 of w^2*1 has size 2, got 1 coefficients"),
        (lambda raw: raw["checks"][6].update(target="marked"),
         "checks[6]: missing required field 'coloring'"),
        (lambda raw: raw["systems"]["pair-ext"]["ladders"][0].update(
            entries=["w*1+1"], breakpoints=[]),
         "w^2*1: need at least one explored block (two breakpoints)"),
    ],
)
def test_malformed_scenario_ordinal_exits_2(tmp_path, capsys, edit, message):
    with open(scenario_path("example14-pair.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    edit(raw)
    path = tmp_path / "bad-section.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1


@pytest.mark.parametrize("stage", ["w^", "w+w", "x"])
def test_malformed_stage_flag_exits_2(capsys, stage):
    assert main(["build", scenario_path("example14-pair.json"), "--stage", stage]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --stage: ") and err.count("\n") == 1


def test_negative_default_depth_exits_2(tmp_path, capsys):
    scenario = {
        "systems": {
            "s": {
                "alpha": "w^2+1",
                "ladders": [{"delta": "w^2", "family": "simple", "blocks": 3}],
            }
        },
        "groups": {"g": {"system": "s", "coeffs": "ones"}},
        "checks": [{"check": "build", "group": "g"}],
    }
    path = tmp_path / "default-depth.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["run", str(path), "--depth", "-3"]) == 2
    assert "got -3" in capsys.readouterr().err


def _obstruct_scenario(tmp_path, **fields):
    with open(scenario_path("parity-obstruction.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    for chk in raw["checks"]:
        if chk["check"] == "obstruct":
            chk.update(fields)
    path = tmp_path / "bad-obstruct.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.mark.parametrize("psi", [["2", 1, 2], [1, 0, 2], [1, -2], [True, 1], 2, "table"])
@pytest.mark.parametrize("where", ["groups", "obstruct"])
def test_malformed_psi_exits_2(tmp_path, capsys, where, psi):
    if where == "groups":
        with open(scenario_path("parity-obstruction.json"), encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["groups"]["g-nu"]["psi"] = psi
        path = tmp_path / "bad-psi.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
    else:
        path = _obstruct_scenario(tmp_path, psi=psi)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "psi: expected" in err and err.count("\n") == 1


@pytest.mark.parametrize("bounds", [[], 5, ["5"], [-5], [2.5], [True]])
def test_malformed_bounds_exit_2(tmp_path, capsys, bounds):
    path = _obstruct_scenario(tmp_path, bounds=bounds)
    assert main(["obstruct", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bounds: expected" in err and err.count("\n") == 1


def test_negative_default_bound_exits_2(tmp_path, capsys):
    with open(scenario_path("parity-obstruction.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    for chk in raw["checks"]:
        chk.pop("bounds", None)
    path = tmp_path / "default-bound.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["obstruct", str(path), "--bound", "-5"]) == 2
    assert "got [-5]" in capsys.readouterr().err


def _example14():
    with open(scenario_path("example14-pair.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_top_level_json_list_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([_example14()]), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: list.json: expected an object, got [") and err.count("\n") == 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        # a system name repeated in the JSON: the second would replace the first
        ('"pair-ext": {', '"pair-ext": {"alpha": "w^2+1", "ladders": []}, "pair-ext": {',
         "key 'pair-ext' given twice"),
        ('"depth": 6', '"depth": 6, "depth": 4', "key 'depth' given twice"),
    ],
)
def test_repeated_json_key_exits_2(tmp_path, capsys, old, new, message):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(_example14()).replace(old, new, 1), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: repeated.json: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("value", ["x", "-3", "2.5", ""])
def test_malformed_depth_env_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("LADDERGROUPS_DEPTH", value)
    assert main(["validate", scenario_path("example14-pair.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: LADDERGROUPS_DEPTH: expected a non-negative integer, got {value!r}\n"
    # the variable is read after the arguments, so --help works whatever it holds
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("verb", ["run", "build"])
def test_whole_scenario_is_parsed_before_any_check_runs(tmp_path, capsys, monkeypatch, verb):
    raw = _example14()
    checks = raw["checks"]
    raw["checks"] = [checks[2], *checks[:2], *checks[3:]]
    raw["checks"][-1]["expect"] = "MAYBE"
    path = tmp_path / "late-error.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    calls = []
    build = cli.build_stage
    monkeypatch.setattr(cli, "build_stage", lambda *a, **kw: calls.append(a) or build(*a, **kw))
    assert main([verb, str(path)]) == 2
    assert "checks[7].expect: expected one of" in capsys.readouterr().err
    assert calls == []


def test_unexpected_exception_in_a_check_names_its_type(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "level_iso_verify", broken)
    report = run_scenario(scenario_path("example14-pair.json"), dict(OPTIONS))
    failed = [(c["kind"], c["error"]) for c in report["checks"] if not c["ok"]]
    assert failed == [("equiv", "TypeError: unsupported operand")]
    assert (report["passed"], report["total"]) == (7, 8)
    assert main(["run", scenario_path("example14-pair.json")]) == 1
    captured = capsys.readouterr()
    assert '   error: "TypeError: unsupported operand"\n' in captured.out
    assert captured.err == ""


def test_readme_example_scenario_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Scenario files\s+```json\n(.*?)```", readme, re.S).group(1)
    assert {chk["check"] for chk in json.loads(block)["checks"]} == set(CHECK_MODULES)
    path = tmp_path / "readme.json"
    path.write_text(block, encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "report.txt")]) == 0


# ---------------------------------------------------------------------------
# the exit-code contract under mutation: 0, 1 or 2, and on 2 one line

SHIPPED = {}
for _name in BUNDLED:
    with open(scenario_path(_name), encoding="utf-8") as _fh:
        SHIPPED[_name] = json.load(_fh)

# Integers stay in [-3, 12]: large block counts or depths build huge ladders.
LEAVES = st.one_of(
    st.integers(-3, 12),
    st.booleans(),
    st.none(),
    st.just(2.5),
    st.sampled_from(["", "x", "0", "w*3", "w^2", "w^2*1", "w^2*2", "w^3", "factorial",
                     "ones", "unit", "marked", "blocks", "g-simple", "pair-src", "c-zero",
                     "OBSTRUCTED", "values", "random"]),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["values", "random", "low", "high", "delta", "w^2"]),
                      inner, max_size=2),
    max_leaves=5,
)


def _paths(node, prefix=()):
    """The path of every value below a JSON object or list."""
    if isinstance(node, (dict, list)):
        for key in node if isinstance(node, dict) else range(len(node)):
            yield prefix + (key,)
            yield from _paths(node[key], prefix + (key,))


@st.composite
def mutated_runs(draw):
    """A verb the scenario has checks for, and a shipped scenario with one or
    two values replaced or keys deleted."""
    raw = copy.deepcopy(SHIPPED[draw(st.sampled_from(BUNDLED))])
    verb = draw(st.sampled_from(["run", *sorted({chk["check"] for chk in raw["checks"]})]))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(raw))
        if not paths:
            break
        *head, key = draw(st.sampled_from(paths))
        parent = raw
        for step in head:
            parent = parent[step]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[key]
        elif type(parent[key]) is int and draw(st.booleans()):
            parent[key] = draw(st.integers(-3, 12))
        else:
            parent[key] = draw(VALUES)
    return verb, raw


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=mutated_runs())
def test_mutated_scenarios_exit_0_1_or_2(run):
    verb, raw = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb, path])
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
