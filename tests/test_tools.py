"""tools/cli_digests.py: one digest per CLI surface, and its compare mode;
tools/import_cost.py: the import time of k3acm.cli per module."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_digests.py"
IMPORT_COST = ROOT / "tools" / "import_cost.py"


def _digests(*roots):
    return subprocess.run([sys.executable, str(TOOL), *map(str, roots)],
                          capture_output=True, text=True, timeout=300)


def test_cli_digests_prints_one_line_per_surface():
    proc = _digests(ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 30, lines
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.* \(\d+ runs\)", line)
               for line in lines), lines
    assert len({line.split("  ", 1)[1] for line in lines}) == 30


def test_cli_digests_finds_no_difference_between_a_checkout_and_itself():
    proc = _digests(ROOT, ROOT)
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr


def test_cli_digests_names_a_root_whose_run_fails(tmp_path):
    # a crashed root is not "surfaces differ" (exit 1): it exits 2 and the
    # child's traceback is shown, so the cause is not lost
    package = tmp_path / "broken" / "src" / "k3acm"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "raise RuntimeError('boom in package')\n")
    proc = _digests(tmp_path / "broken", ROOT)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert str(tmp_path / "broken") in proc.stderr
    assert "RuntimeError: boom in package" in proc.stderr


def test_import_cost_prints_the_cli_and_each_package_module():
    proc = subprocess.run([sys.executable, str(IMPORT_COST), "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r" *\d+ us  k3acm\.cli cumulative \(median of 1 "
                        r"runs\)", lines[0]), lines
    modules = [line.split()[2] for line in lines[1:-1]]
    assert {"k3acm", "k3acm.lattice", "k3acm.cli",
            "k3acm.casework.scripts"} <= set(modules), lines
    assert lines[-1].endswith(" us  k3acm modules' self, summed"), lines
