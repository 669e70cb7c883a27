import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laddergroups import cli
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


@pytest.mark.parametrize("flags,message", [
    (["--stage", ""], "error: --stage: malformed ordinal literal ''\n"),
    (["--stage="], "error: --stage: malformed ordinal literal ''\n"),
    (["--out", ""], None),
    (["--out="], None),
])
def test_empty_stage_or_out_exits_2(obstruct_scenario, capsys, flags, message):
    # an empty value is a value: not a missing --stage, and not stdout
    assert main(["run", obstruct_scenario, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    if message is None:
        assert captured.err.startswith("error: --out: ")
    else:
        assert captured.err == message


# ---------------------------------------------------------------------------
# the command line, read without argparse; argparse is the oracle


def argparse_oracle() -> argparse.ArgumentParser:
    """The parser cli.main used before it read its own arguments."""
    parser = argparse.ArgumentParser(prog="laddergroups")
    parser.add_argument("verb", choices=list(cli.VERBS))
    parser.add_argument("scenario")
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--stage", type=str, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bound", type=int, default=25)
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--out", type=str, default=None)
    return parser


def parse_outcome(parse, argv):
    """(exit code, parsed values, stdout, stderr): code None and the values
    when parse returns."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            values = parse(argv)
    except SystemExit as exc:
        return exc.code, None, out.getvalue(), err.getvalue()
    return None, values, out.getvalue(), err.getvalue()


OPTION_WORDS = ["--depth", "--dep", "--d", "--stage", "--st", "--s", "--seed", "--se",
                "--bound", "--b", "--format", "--form", "--out", "--o", "--nope", "-x",
                "---depth", "-d"]
VALUE_WORDS = ["3", "-2", "0", " 4", "+5", "1_0", "x", "2.5", "-2.5", "", "-", "text", "json",
               "xml", "w^2", "s.json", "run", "build", "bogus"]
# An argument that starts with "-", is no option and holds a space is read as
# an unknown option here, where argparse reads it as a positional argument
# (see the usage-error cases below), so joined values hold no space.
ARGV_WORDS = st.one_of(
    st.sampled_from(OPTION_WORDS + VALUE_WORDS),
    st.builds("{}={}".format, st.sampled_from(OPTION_WORDS),
              st.sampled_from([v for v in VALUE_WORDS if " " not in v])),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(ARGV_WORDS, max_size=7), st.booleans())
def test_argument_parsing_matches_the_argparse_oracle(argv, with_help):
    if with_help:
        argv = argv[:len(argv) // 2] + [["-h", "--help", "--he"][len(argv) % 3]]
    code, values, out, err = parse_outcome(cli._parse_args, argv)
    oracle_code, oracle_ns, _, _ = parse_outcome(argparse_oracle().parse_args, argv)
    assert code == oracle_code, (argv, err)
    assert values == (None if oracle_ns is None else vars(oracle_ns)), argv
    if code == 2:
        usage, error = err.splitlines()
        assert usage == cli.USAGE and error.startswith("laddergroups: error: "), err
        assert out == ""
    elif code == 0:
        assert out.startswith(cli.USAGE + "\n") and err == ""


@pytest.mark.parametrize("argv, message", [
    ([], "expected the arguments VERB SCENARIO, got []"),
    (["run"], "expected the arguments VERB SCENARIO, got ['run']"),
    (["run", "a.json", "b.json"], "expected the arguments VERB SCENARIO, got ['run', 'a.json', 'b.json']"),
    (["run", "a.json", "--nope"], "unrecognized arguments: --nope"),
    (["run", "a.json", "--", "-b c.json"], "unrecognized arguments: -- -b c.json"),
    (["run", "a.json", "--s", "1"], "ambiguous option: --s could match --stage, --seed"),
    (["run", "a.json", "--depth"], "argument --depth: expected one argument"),
    (["run", "a.json", "--stage", "-x"], "argument --stage: expected one argument"),
    (["run", "a.json", "--bound=x"], "argument --bound: invalid int value: 'x'"),
    (["run", "a.json", "--form", "xml"],
     "argument --format: invalid choice: 'xml' (choose from text, json)"),
    (["bogus", "a.json", "--help"],
     "argument verb: invalid choice: 'bogus' (choose from run, validate, build, project, "
     "equiv, uniformize, extend, obstruct)"),
])
def test_usage_errors_exit_2_with_a_usage_line_and_one_error_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"{cli.USAGE}\nladdergroups: error: {message}\n"
    assert captured.out == ""


def test_help_lists_every_verb_and_option_with_its_help_and_default(capsys):
    for flag in ("-h", "--help", "--he"):
        with pytest.raises(SystemExit) as exc:
            main(["run", flag, "--depth", "x"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith(cli.USAGE + "\n")
        assert all(verb in text for verb in cli.VERBS)
        for name, (metavar, help_text, _, _) in cli.OPTIONS.items():
            assert f"--{name} {metavar}" in text and help_text in text
    assert "(default: env LADDERGROUPS_DEPTH, else 6)" in text
    assert "(default: 25)" in text and "(default: text)" in text


def test_abbreviated_and_joined_options_read_as_the_full_ones(obstruct_scenario, tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", obstruct_scenario, "--bound", "3", "--format", "json",
                 "--out", str(out)]) == 0
    full = out.read_text(encoding="utf-8")
    out.unlink()
    assert main(["--b=3", "run", "--form=json", obstruct_scenario, "--o", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == full


def test_importing_the_cli_leaves_argparse_unloaded():
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, laddergroups.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout == "[]\n"
