"""Print one sha256 per surface of the ``k3acm`` command line.

Usage: python3 tools/cli_digests.py [ROOT]
       python3 tools/cli_digests.py ROOT_A ROOT_B

ROOT is a checkout of this repository; it defaults to the one holding
this script.  The package is imported from ROOT/src and the destabilize
grid from ROOT/k3bench.  Each surface is a fixed list of command lines
run in-process through ``k3acm.cli.main``; its digest covers, for each
command line in order, the arguments (a config as its file name), the
exit code, stdout and stderr.  Equal digests mean byte-identical output
on that surface.  Given two roots, it digests each in its own interpreter
(one process never imports two ``k3acm`` packages), prints only the
surfaces whose digests differ, each with both digests, and exits 1 if
any does; a root whose own run fails is named with its stderr, and the
tool exits 2.

Surfaces: ``theorem`` in text and ``--json`` at boxes 16, 128 and 256;
``enumerate --preset P --json`` for each preset, without and with ``-c``
(the shipped config of the preset's presentation); ``classify`` and
``companions``, text and ``--json``, on the seven shipped quartic configs
for every class (s, t) with |s|, |t| <= 3; ``verify --script TAG --json``
and ``verify --script TAG`` (text) for each row of ``casebook.CASES``;
``verify --script TAG -c MUTANT --json`` for each row and each +/-1
change of one diagonal entry or one symmetric off-diagonal pair of its
Gram matrix, written as a ``k3: false`` config ``TAG.MUTANT.json`` in a
temporary directory;
``lattice-info``, text and ``--json``, on every shipped config;
``example-delpezzo``, text and ``--json``; the 630 queries of
``k3bench.workloads.destabilize_grid``, text and ``--json``; and one
surface that is not a command line, ``engine``: ``enumerate_destabilizing``
in-process, each record through ``elimination_to_json`` (a refusal as its
error class and text), on the seven ``classifier.WINDOWS`` presentations
under three fact sets, for C = (s, t) with |s| <= 6, |t| <= 4, C^2 >= 4
and 1 <= h.C <= 12, each d = 1..29 with d <= g + 7 - h.C, and every mode
(4,176 queries).  The fact sets are B effective alone;
``engine_assumptions(lat, ())``; and "asserted", which adds to the latter
every class (a, b) with |a|, |b| <= 2, positive degree and square >= -2,
asserted an irreducible curve at square -2, an elliptic pencil at 0 and
base point free from 2.  The command line always derives B's complement
and asserts no pencil or curve, so only this surface reaches what the
engine does with B alone or with asserted pencils and curves.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def _mutants(gram: list[list[int]]):
    """(name, gram) for every +/-1 change of one diagonal entry (dI+1) or
    one symmetric off-diagonal pair (oIJ+1), named as k3bench names them."""
    n = len(gram)
    for i in range(n):
        for j in range(i, n):
            for s in (1, -1):
                out = [list(row) for row in gram]
                out[i][j] += s
                out[j][i] = out[i][j]
                yield (f"d{i}{s:+d}" if i == j else f"o{i}{j}{s:+d}"), out


def _surfaces(root: Path, workdir: Path) -> dict[str, list]:
    from k3acm.casework.casebook import CASES
    from k3acm.casework.presets import PRESET_PRESENTATION
    from k3bench.workloads import _config_doc, destabilize_grid

    data = root / "src" / "k3acm" / "data"
    quartics = sorted(data.glob("quartic_*.json"))
    by_profile = {}
    for path in quartics:
        gram = json.loads(path.read_text())["gram"]
        by_profile[gram[1][1], gram[0][1]] = path
    classes = [f"--class={s},{t}" for s in range(-3, 4) for t in range(-3, 4)]
    out = {}
    for box in (16, 128, 256):
        out[f"theorem --box {box}"] = [["theorem", "--box", str(box)]]
        out[f"theorem --box {box} --json"] = [
            ["theorem", "--box", str(box), "--json"]]
    for pid, profile in PRESET_PRESENTATION.items():
        argv = ["enumerate", "--preset", pid, "--json"]
        out[f"enumerate --preset {pid} --json"] = [argv]
        out[f"enumerate --preset {pid} -c --json"] = [
            argv + ["-c", str(by_profile[profile])]]
    for command in ("classify", "companions"):
        for flags in ([], ["--json"]):
            out[" ".join([command, *flags])] = [
                [command, "-c", str(path), cls, *flags]
                for path in quartics for cls in classes]
    for flags in ([], ["--json"]):
        out[" ".join(["verify", *flags])] = [
            ["verify", "--script", case.tag, *flags] for case in CASES]
        out[" ".join(["lattice-info", *flags])] = [
            ["lattice-info", "-c", str(path), *flags]
            for path in sorted(data.glob("*.json"))]
        out[" ".join(["example-delpezzo", *flags])] = [
            ["example-delpezzo", *flags]]
    mutants = out["verify -c mutants --json"] = []
    for case in CASES:
        lat = case.script().lattice
        for name, gram in _mutants(lat.gram):
            path = workdir / f"{case.tag}.{name}.json"
            path.write_text(json.dumps(_config_doc(gram, lat, k3=False)))
            mutants.append(["verify", "--script", case.tag, "-c", str(path),
                            "--json"])
    for flags in ([], ["--json"]):
        out[" ".join(["destabilize grid", *flags])] = [
            ["destabilize", "-c", str(data / name), f"--class={s},{t}",
             "--d", str(d), "--mode", mode, *flags]
            for name, (s, t), d, mode in destabilize_grid(root)]
    out["engine"] = list(_engine_queries())
    return out


def _engine_queries():
    """(B^2, h.B, facts, s, t, d, mode) for the ``engine`` surface."""
    from k3acm.casework.destabilize import MODES
    from k3acm.classifier import WINDOWS

    for b2, hb in WINDOWS:
        for facts in ("B effective", "engine_assumptions", "asserted"):
            for s in range(-6, 7):
                for t in range(-4, 5):
                    c2 = 4 * s * s + 2 * hb * s * t + b2 * t * t
                    deg = 4 * s + hb * t
                    if c2 < 4 or not 1 <= deg <= 12:
                        continue
                    for d in range(1, min(29, c2 // 2 + 8 - deg) + 1):
                        for mode in MODES:
                            yield b2, hb, facts, s, t, d, mode


@functools.lru_cache(maxsize=None)
def _engine_input(b2: int, hb: int, facts: str):
    from k3acm import Assumption, AssumptionKind, DivClass
    from k3acm.casework import engine_assumptions, quartic_lattice

    lat = quartic_lattice(b2, hb)
    if facts == "B effective":
        return lat, (Assumption(DivClass((0, 1)), AssumptionKind.EFFECTIVE,
                                ""),)
    derived = engine_assumptions(lat, ())
    if facts == "engine_assumptions":
        return lat, derived
    kinds = {-2: AssumptionKind.IRREDUCIBLE_CURVE,
             0: AssumptionKind.ELLIPTIC_PENCIL}
    classes = [DivClass((a, b)) for a in range(-2, 3) for b in range(-2, 3)]
    return lat, derived + tuple(
        Assumption(p, kinds.get(lat.self_int(p),
                                AssumptionKind.BASE_POINT_FREE), "")
        for p in classes if lat.deg(p) > 0 and lat.self_int(p) >= -2)


def _engine(query: tuple) -> list:
    from k3acm import DivClass, WorkbenchError
    from k3acm.casework import elimination_to_json, enumerate_destabilizing

    b2, hb, facts, s, t, d, mode = query
    lat, assumptions = _engine_input(b2, hb, facts)
    try:
        records = enumerate_destabilizing(lat, DivClass((s, t)), d,
                                          assumptions, mode)
    except WorkbenchError as exc:
        return [list(query), type(exc).__name__, str(exc)]
    return [list(query), [elimination_to_json(rec) for rec in records]]


def _run(argv: list[str] | tuple) -> list:
    """One run of a surface: a list is a command line, a tuple an
    ``engine`` query."""
    from k3acm import cli

    if isinstance(argv, tuple):
        return _engine(argv)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    shown = [Path(a).name if a.endswith(".json") else a for a in argv]
    return [shown, code, out.getvalue(), err.getvalue()]


def _compare(root_a: str, root_b: str) -> int:
    """Print the surfaces whose digests differ between two checkouts; 2
    when a checkout's own run fails."""
    digests = []
    for root in (root_a, root_b):
        run = subprocess.run([sys.executable, __file__, root],
                             capture_output=True, text=True)
        if run.returncode != 0:
            print(f"{root}: the digest run failed with exit code "
                  f"{run.returncode}\n{run.stderr}", file=sys.stderr, end="")
            return 2
        digests.append(dict(line.split("  ", 1)[::-1]
                            for line in run.stdout.splitlines()))
    a, b = digests
    differ = [name for name in {**a, **b} if a.get(name) != b.get(name)]
    for name in differ:
        print(f"{name}: {a.get(name, '-')} -> {b.get(name, '-')}")
    return 1 if differ else 0


def main() -> int:
    if len(sys.argv) == 3:
        return _compare(*sys.argv[1:])
    root = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parents[1]).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    with tempfile.TemporaryDirectory() as workdir:
        for name, argvs in _surfaces(root, Path(workdir)).items():
            digest = hashlib.sha256()
            for argv in argvs:
                digest.update(json.dumps(_run(argv)).encode() + b"\n")
            print(f"{digest.hexdigest()}  {name} ({len(argvs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
