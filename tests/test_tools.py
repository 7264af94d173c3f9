"""The repository's helper scripts run from a checkout."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_line_counts_prints_code_lines_within_non_blank_lines():
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_counts.py")],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    match = re.search(r"^src/treeprotect: (\d+) non-blank, (\d+) code$", out, re.M)
    assert match, out
    non_blank, code = map(int, match.groups())
    assert 0 < code <= non_blank
    assert re.search(r"^tests: \d+ non-blank$", out, re.M), out
