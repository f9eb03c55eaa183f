"""tools/cli_digests.py: one digest per CLI surface, and its compare mode;
tools/import_cost.py: the import time of k3acm.cli per module;
tools/cold_start.py: the wall time of a cold ``k3acm theorem``;
k3bench/tracing.py: the package names its tracer patches."""

import importlib
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_digests.py"
IMPORT_COST = ROOT / "tools" / "import_cost.py"
COLD_START = ROOT / "tools" / "cold_start.py"


def _digests(*roots):
    return subprocess.run([sys.executable, str(TOOL), *map(str, roots)],
                          capture_output=True, text=True, timeout=300)


def test_cli_digests_prints_one_line_per_surface():
    proc = _digests(ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 43, lines
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.* \(\d+ runs\)", line)
               for line in lines), lines
    assert len({line.split("  ", 1)[1] for line in lines}) == 43


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


def test_cli_digests_names_the_first_run_that_differs(tmp_path):
    # a root whose one changed line alters only the text lattice-info of
    # quartic_b2_4.json, the fifth of that surface's eight runs, and whose
    # one changed cite, which no command prints, alters only the gonality
    # row's script
    changed = tmp_path / "changed"
    for part in ("src", "k3bench"):
        shutil.copytree(ROOT / part, changed / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    for path, line, edited in (
            ("cli.py", '    print(f"ample: {lat.ample}")\n',
             '    print(f"ample: {lat.ample}"'
             ' + "!" * (lat.gram[1][1] == 4))\n'),
            ("casework/casebook.py", '"|B| restricted to a member',
             '"|B| cut on a member')):
        source = changed / "src" / "k3acm" / path
        text = source.read_text()
        assert text.count(line) == 1
        source.write_text(text.replace(line, edited))
    proc = _digests(ROOT, changed)
    assert proc.returncode == 1, proc.stderr
    info, info_first, scripts, scripts_first = proc.stdout.splitlines()
    assert re.fullmatch(r"lattice-info: [0-9a-f]{64} -> [0-9a-f]{64}", info)
    assert info_first == ("  first differing run: k3acm lattice-info -c "
                          "quartic_b2_4.json")
    assert re.fullmatch(r"scripts: [0-9a-f]{64} -> [0-9a-f]{64}", scripts)
    assert scripts_first == "  first differing run: script gonality-2B"
    # the single-root output is as before: one digest line per surface
    proc = _digests(changed)
    assert proc.returncode == 0 and len(proc.stdout.splitlines()) == 43


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


@pytest.mark.parametrize("argv", [
    ["--help"], ["/nonexistent"], ["a", "b", "c"],
    [str(ROOT), str(ROOT / "tools")],
], ids=["help", "no-such-root", "three-roots", "second-root-not-a-checkout"])
def test_cli_digests_refuses_bad_arguments_with_its_usage(argv):
    # exit 1 means "surfaces differ", so a bad command line exits 2
    proc = _digests(*argv)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("usage: python3 tools/cli_digests.py "), (
        proc.stderr)
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("argv", [
    ["--help"], ["0"], ["-1"], ["x"], ["1", "/nonexistent"],
    ["1", str(ROOT / "tools")], ["1", str(ROOT), "extra"],
], ids=["help", "zero-runs", "negative-runs", "not-a-number", "no-such-root",
        "root-not-a-checkout", "third-argument"])
def test_import_cost_refuses_bad_arguments_with_its_usage(argv):
    proc = subprocess.run([sys.executable, str(IMPORT_COST), *argv],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("usage: python3 tools/import_cost.py "), (
        proc.stderr)
    assert proc.stderr.count("\n") == 1, proc.stderr


def _cold_start(*argv):
    return subprocess.run([sys.executable, str(COLD_START), *argv],
                          capture_output=True, text=True, timeout=120)


def test_cold_start_prints_theorem_and_the_bare_interpreter():
    proc = _cold_start("1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3, lines
    for line, command in zip(lines, (
            r"python3 -m k3acm theorem \(median of 1 runs\)",
            r"python3 -c pass", r"python3 -S -c pass")):
        assert re.fullmatch(r" *\d+\.\d ms  " + command, line), lines


def test_cold_start_names_a_theorem_run_that_fails(tmp_path):
    package = tmp_path / "broken" / "src" / "k3acm"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise RuntimeError('boom')\n")
    proc = _cold_start("1", str(tmp_path / "broken"))
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert " -m k3acm theorem exited 1:" in proc.stderr
    assert "RuntimeError: boom" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["--help"], ["0"], ["-1"], ["x"], ["26"], ["1", "/nonexistent"],
    ["1", str(ROOT / "tools")], ["1", str(ROOT), "extra"],
], ids=["help", "zero-runs", "negative-runs", "not-a-number", "over-the-cap",
        "no-such-root", "root-not-a-checkout", "third-argument"])
def test_cold_start_refuses_bad_arguments_with_its_usage(argv):
    proc = _cold_start(*argv)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("usage: python3 tools/cold_start.py "), (
        proc.stderr)
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_every_traced_name_of_the_benchmark_still_exists():
    # the tracer patches these names when a benchmark run is traced; a
    # package name deleted or renamed must fail here, not in that run
    path = ROOT / "k3bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_k3bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANNED and tracing.COUNTED
    for module, attr, name in tracing.SPANNED + tracing.COUNTED:
        owner = importlib.import_module(module)
        if "." in attr:  # a method is patched on its class's own __dict__
            cls_name, attr = attr.split(".")
            owner = vars(owner)[cls_name].__dict__
            assert callable(owner.get(attr)), name
        else:
            assert callable(getattr(owner, attr, None)), name
