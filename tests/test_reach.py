"""Smoke test of ``tools/reach.py``: one entry point, end to end, in seconds."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def files_of(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if "__pycache__" not in p.parts}


def test_one_example_splits_every_def_into_one_class(tmp_path):
    out = tmp_path / "REACH.md"
    before = files_of(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"),
         "--entry", "examples/quickstart.py", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert files_of(ROOT / "src") == before  # the hook went into a copy
    text = out.read_text()
    totals = dict(re.findall(r"^\| (entry point|tests only|never entered|total) \| (\d+) \|",
                             text, re.MULTILINE))
    assert int(totals["entry point"]) > 0
    assert int(totals["tests only"]) == 0  # tier-1 did not run
    assert int(totals["entry point"]) + int(totals["never entered"]) == int(totals["total"])
    # The example joins rectangles, and never serves them.
    listed = set(re.findall(r"^\| `([^`]+)` \|", text, re.MULTILINE))
    assert "repro/geometry/rect.py::Rect.intersects" not in listed
    assert "repro/cli.py::cmd_serve" in listed
