"""tools/cli_digests.py: one digest per CLI surface, and its compare mode."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_digests.py"


def _digests(*roots):
    return subprocess.run([sys.executable, str(TOOL), *map(str, roots)],
                          capture_output=True, text=True, timeout=300)


def test_cli_digests_prints_one_line_per_surface():
    proc = _digests(ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 29, lines
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.* \(\d+ runs\)", line)
               for line in lines), lines
    assert len({line.split("  ", 1)[1] for line in lines}) == 29


def test_cli_digests_finds_no_difference_between_a_checkout_and_itself():
    proc = _digests(ROOT, ROOT)
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
