import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = (("ladders", "layer"), ("build_stage", "layer"), ("freeness", "layer"), ("deep_psi", "layer"),
        ("transitive", "layer"), ("verify", "layer"), ("invert", "layer"), ("obstruct", "e2e"),
        ("roundtrip", "e2e"))


def _scale(*args):
    subprocess.run([sys.executable, str(ROOT / "tools" / "scale.py"), *args],
                   check=True, capture_output=True, timeout=240)


def test_scale_tool_writes_every_row_under_its_label(tmp_path):
    out = tmp_path / "scale.json"
    src = str(ROOT / "src")
    _scale("--src", src, "--depths", "3", "4", "--runs", "1", "--label", "a", "--out", str(out))
    _scale("--src", src, "--src", src, "--depths", "3", "--runs", "2", "--label", "b",
           "--out", str(out))
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record) == ["a", "b"]
    one, two = record["a"], record["b"]
    assert len(one["commits"]) == 1 and len(two["commits"]) == 2
    assert [(r["name"], r["kind"], r["depth"]) for r in one["rows"]] == [
        (name, kind, depth) for name, kind in ROWS for depth in (3, 4)]
    assert [(r["name"], r["depth"]) for r in two["rows"]] == [(name, 3) for name, _ in ROWS]
    for r in one["rows"]:
        (side,) = r["sides"]
        assert len(side["runs"]) == 1 and side["median_s"] == side["runs"][0] >= 0
        assert side["iqr_s"] == 0 and "won" not in r
    for r in two["rows"]:
        assert len(r["sides"]) == 2
        for side in r["sides"]:
            assert len(side["runs"]) == 2 and side["iqr_s"] >= 0
            assert min(side["runs"]) <= side["median_s"] <= max(side["runs"])
        # each run is won by one tree or tied, so the shares sum to at most 1
        a, b = (side["runs"] for side in r["sides"])
        assert r["won"] == [sum(x < y for x, y in zip(a, b)) / 2,
                            sum(y < x for x, y in zip(a, b)) / 2]
        assert sum(r["won"]) <= 1


def test_scale_tool_measures_only_the_named_rows_in_record_order(tmp_path):
    out = tmp_path / "scale.json"
    _scale("--src", str(ROOT / "src"), "--rows", "roundtrip", "deep_psi", "--depths", "3",
           "--runs", "1", "--out", str(out))
    rows = json.loads(out.read_text(encoding="utf-8"))["run"]["rows"]
    assert [(r["name"], r["kind"], r["depth"]) for r in rows] == [
        ("deep_psi", "layer", 3), ("roundtrip", "e2e", 3)]
    assert all(r["sides"][0]["median_s"] >= 0 for r in rows)
