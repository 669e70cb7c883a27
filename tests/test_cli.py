import json
from importlib import resources

import pytest

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
