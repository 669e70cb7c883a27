import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_scale_tool_writes_every_row_under_its_label(tmp_path):
    out = tmp_path / "scale.json"
    for label in ("a", "b"):
        subprocess.run(
            [sys.executable, str(ROOT / "tools" / "scale.py"), "--src", str(ROOT / "src"),
             "--depths", "3", "4", "--runs", "1", "--label", label, "--out", str(out)],
            check=True, capture_output=True, timeout=120)
    record = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(record) == ["a", "b"]
    rows = record["b"]["rows"]
    assert [(r["name"], r["kind"], r["depth"]) for r in rows] == [
        (name, kind, depth)
        for name, kind in (("build_stage", "layer"), ("obstruct", "e2e"), ("roundtrip", "e2e"))
        for depth in (3, 4)]
    assert all(len(r["runs"]) == 1 and r["median_s"] == r["runs"][0] >= 0 for r in rows)
