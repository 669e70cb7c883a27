import json

import pytest

from laddergroups.cli import main, render_report, run_scenario


@pytest.fixture
def obstruct_scenario(tmp_path):
    scenario = {
        "systems": {
            "nu": {
                "alpha": "w^2+1",
                "ladders": [{"delta": "w^2", "family": "blocks", "blocks": 8}],
            }
        },
        "colorings": {
            "cz": {"palette": 2, "entries": [{"delta": "w^2", "colors": [0] * 16}]},
            "cf": {"palette": 2,
                   "entries": [{"delta": "w^2", "colors": [0, 0, 1] + [0] * 13}]},
        },
        "checks": [
            {"check": "obstruct", "system": "nu", "depth": 8, "c1": "cf", "c2": "cz",
             "b": {"random": {"low": -7, "high": 7}}, "expect": "OBSTRUCTED"}
        ],
    }
    path = tmp_path / "seeded.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return str(path)


def options(**kw):
    base = {"depth": 6, "seed": 0, "bound": 25, "stage": None, "kind": None}
    base.update(kw)
    return base


def test_seeded_random_lift_is_deterministic(obstruct_scenario):
    a = render_report(run_scenario(obstruct_scenario, options(seed=7)), "json")
    b = render_report(run_scenario(obstruct_scenario, options(seed=7)), "json")
    assert a == b
    report = run_scenario(obstruct_scenario, options(seed=7))
    assert report["ok"]
    # the annihilated lift keeps the verdict independent of the seed
    other = run_scenario(obstruct_scenario, options(seed=8))
    assert other["checks"][0]["status"] == "OBSTRUCTED"


def test_cli_bound_flag_feeds_default_bounds(obstruct_scenario, tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", obstruct_scenario, "--bound", "3", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["checks"][0]["searches"] == [[3, "exhausted", None]]


def test_depth_env_variable(tmp_path, monkeypatch):
    scenario = {
        "systems": {
            "s": {"alpha": "w^2+1",
                  "ladders": [{"delta": "w^2", "family": "simple", "blocks": 9}]}
        },
        "groups": {"g": {"system": "s", "coeffs": "ones"}},
        "checks": [{"check": "build", "group": "g"}],
    }
    path = tmp_path / "env.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = tmp_path / "o.json"
    monkeypatch.setenv("LADDERGROUPS_DEPTH", "8")
    assert main(["run", str(path), "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["checks"][0]["depth"] == 8
    assert report["options"]["depth"] == 8


def test_stage_flag_overrides_default_level(tmp_path):
    scenario = {
        "systems": {
            "s": {"alpha": "w^2*2+1",
                  "ladders": [{"delta": "w^2", "family": "simple", "blocks": 6}]}
        },
        "groups": {"g": {"system": "s", "coeffs": "ones"}},
        "checks": [{"check": "build", "group": "g", "depth": 4}],
    }
    path = tmp_path / "stage.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = tmp_path / "o.json"
    assert main(["run", str(path), "--stage", "w^2+1", "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["checks"][0]["alpha"] == "w^2*1+1"
    assert report["options"]["stage"] == "w^2*1+1"


def test_stage_zero_is_a_level_not_a_missing_one(tmp_path):
    scenario = {
        "systems": {
            "s": {"alpha": "w^2*2+1",
                  "ladders": [{"delta": "w^2", "family": "simple", "blocks": 6}]}
        },
        "groups": {"g": {"system": "s", "coeffs": "ones"}},
        "checks": [{"check": "build", "group": "g", "depth": 4},
                   {"check": "build", "group": "g", "depth": 4, "alpha": "0"}],
    }
    path = tmp_path / "stage0.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    out = tmp_path / "o.json"
    levels = {}
    for flags in ([], ["--stage", "0"]):
        assert main(["run", str(path), *flags, "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        levels[tuple(flags)] = (report["options"]["stage"],
                                [(c["alpha"], c["chain_basis"]) for c in report["checks"]])
    assert levels == {
        (): (None, [("w^2*2+1", 1), ("0", 0)]),
        ("--stage", "0"): ("0", [("0", 0), ("0", 0)]),
    }


def test_random_phi_extension_seeded(tmp_path):
    scenario = {
        "systems": {
            "s": {"alpha": "w^2+1",
                  "ladders": [{"delta": "w^2", "family": "blocks", "blocks": 6}]}
        },
        "groups": {"g": {"system": "s", "coeffs": "alternating"}},
        "checks": [
            {"check": "extend", "group": "g", "depth": 6,
             "phi": {"random": {"low": -30, "high": 30}}, "seed": 3}
        ],
    }
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    report = run_scenario(str(path), options())
    assert report["ok"]
    again = run_scenario(str(path), options(seed=99))  # check-level seed wins
    assert json.dumps(report["checks"], sort_keys=True) == json.dumps(
        again["checks"], sort_keys=True
    )


def test_reports_stable_across_hash_seeds(tmp_path):
    import os
    import subprocess
    import sys
    from importlib import resources

    path = str(resources.files("laddergroups.scenarios").joinpath("example14-pair.json"))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "laddergroups", "run", path, "--format", "json"],
            capture_output=True, env=env, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_prefix_exhaustion_surfaces_remediation_hint(tmp_path):
    # the second ladder is prefix-only and never clears the first delta, so
    # disjointification runs out of explored blocks
    scenario = {
        "systems": {
            "s": {
                "alpha": "w^2*2+1",
                "ladders": [
                    {"delta": "w^2", "family": "simple", "blocks": 6},
                    {"delta": "w^2*2",
                     "entries": ["w*1+2", "w*2+2", "w*3+2"],
                     "breakpoints": [0, 1, 2, 3]},
                ],
            }
        },
        "colorings": {
            "c": {"palette": 2, "entries": [
                {"delta": "w^2", "colors": [0] * 6},
                {"delta": "w^2*2", "colors": [0] * 6},
            ]},
        },
        "checks": [{"check": "uniformize", "system": "s", "coloring": "c"}],
    }
    path = tmp_path / "exhausted.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    report = run_scenario(str(path), options())
    assert not report["ok"]
    assert "(increase depth)" in report["checks"][0]["error"]


def test_unwritable_out_path_exits_2(obstruct_scenario, tmp_path, capsys):
    out = tmp_path / "missing" / "r.txt"
    assert main(["run", obstruct_scenario, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()
