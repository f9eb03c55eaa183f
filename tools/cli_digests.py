"""Print one sha256 per surface of the ``k3acm`` command line.

Usage: python3 tools/cli_digests.py [ROOT]
       python3 tools/cli_digests.py ROOT_A ROOT_B

ROOT is a checkout of this repository; it defaults to the one holding
this script.  The package is imported from ROOT/src and the destabilize
grid from ROOT/k3bench.  Each surface but two is a fixed list of command
lines run in-process through ``k3acm.cli.main``; its digest covers, for
each command line in order, the arguments (a config as its file name),
the exit code, stdout and stderr.  Equal digests mean byte-identical
output on that surface.  Given two roots, it digests each in its own
interpreter (one process never imports two ``k3acm`` packages), prints
only the surfaces whose digests differ, each with both digests and the
first command line, ``engine`` query or script whose output differs, and
exits 1 if any does; a root whose own run fails is named with its
stderr, and the tool exits 2.  More than two arguments, or a ROOT that
holds no ``src/k3acm/__init__.py`` (``--help`` among them), print the
usage line to stderr and exit 2.

Surfaces: ``theorem`` in text and ``--json`` at boxes 16, 128 and 256;
``enumerate --preset P --json`` for each preset, without and with ``-c``
(the shipped config of the preset's presentation), and at ``--box 16``
and ``--box 256``, the smallest and largest box the solver accepts;
``enumerate --preset P --box B`` in text for each preset at boxes 16, 128
and 256; ``enumerate --preset P -c`` with each shipped quartic config of
another presentation, which it refuses;
``classify`` and ``companions``, text and ``--json``, on the seven
shipped quartic configs for every class (s, t) with |s|, |t| <= 3;
``verify --script TAG --json`` and ``verify --script TAG`` (text) for
each row of ``casebook.CASES``;
``verify --script TAG -c MUTANT --json`` for each row and each +/-1
change of one diagonal entry or one symmetric off-diagonal pair of its
Gram matrix, written as a ``k3: false`` config ``TAG.MUTANT.json`` in a
temporary directory, and the same command lines in text;
``verify -c`` with a config of the wrong rank: the rank-8
``delpezzo-cover`` on a quartic config and ``case-B24`` on the rank-8
one; ``classify`` and ``companions``, text and ``--json``, for every
class with |s|, |t| <= 3 on the (4, 6) config with its assumptions
removed, whose text names the facts B's classification needs;
``lattice-info``, text and ``--json``, on every shipped config and on a
degenerate ``k3: false`` config;
``example-delpezzo``, text and ``--json``; the 630 queries of
``k3bench.workloads.destabilize_grid``, text and ``--json``; ``usage``:
``--help`` of the top level and of each command, and the lines argparse
refuses or reads by its own rules (no arguments, ``-h verify``, an
unknown command, ``--``, missing, unknown and abbreviated options, extra
positionals, bad choices and ints, ``--class -1,2`` and its
abbreviations), none holding a path, as argparse echoes refused
arguments into stderr; help is wrapped at ``COLUMNS=80``, which the tool
sets; ``config refusals``: ``lattice-info -c`` and ``verify --script
case-B24 -c`` on each config the reader refuses (a missing file, a
directory, ``""``, ``/dev/zero``, an empty file, non-UTF-8 bytes, invalid
JSON, an unknown key, a bool in a Gram row, a float in ``ample``, a short
row, a non-int assumption subject, duplicate labels, an odd K3 diagonal,
the wrong signature, a nonpositive ample class), each written into the
temporary directory, whose path stderr shows as ``<workdir>``; and two
surfaces that are not command lines.  ``scripts``: for
each row of ``casebook.CASES`` in order, its builtin script's steps through
``step_to_json``, its conclusion and its description, which ``verify``
reports only as labels and values.  ``engine``: ``enumerate_destabilizing``
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
import itertools
import json
import os
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
        for box in ("16", "256"):
            out[f"enumerate --preset {pid} --box {box} --json"] = [
                argv + ["--box", box]]
    for box in ("16", "128", "256"):
        out[f"enumerate --box {box}"] = [
            ["enumerate", "--preset", pid, "--box", box]
            for pid in PRESET_PRESENTATION]
    out["enumerate -c other presentation"] = [
        ["enumerate", "--preset", pid, "-c", str(path)]
        for pid, profile in PRESET_PRESENTATION.items()
        for other, path in by_profile.items() if other != profile]
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
    mutants = out["verify -c mutants"] = []
    for case in CASES:
        lat = case.script().lattice
        for name, gram in _mutants(lat.gram):
            path = workdir / f"{case.tag}.{name}.json"
            path.write_text(json.dumps(_config_doc(gram, lat, k3=False)))
            mutants.append(["verify", "--script", case.tag, "-c", str(path)])
    out["verify -c mutants --json"] = [argv + ["--json"] for argv in mutants]
    out["verify -c rank mismatch"] = [
        ["verify", "--script", "delpezzo-cover", "-c", str(by_profile[-2, 1])],
        ["verify", "--script", "case-B24", "-c",
         str(data / "delpezzo_cover.json")]]
    ulrich = json.loads(by_profile[4, 6].read_text())
    bare = workdir / "quartic_b2_4.no-facts.json"
    bare.write_text(json.dumps({**ulrich, "assumptions": []}))
    out["classify and companions without facts"] = [
        [command, "-c", str(bare), cls, *flags]
        for command in ("classify", "companions")
        for flags in ([], ["--json"]) for cls in classes]
    degenerate = workdir / "degenerate.json"
    degenerate.write_text(json.dumps(
        {"rank": 2, "gram": [[2, 2], [2, 2]], "labels": ["h", "B"],
         "ample": [1, 0], "k3": False, "assumptions": []}))
    out["lattice-info degenerate"] = [
        ["lattice-info", "-c", str(degenerate), *flags]
        for flags in ([], ["--json"])]
    for flags in ([], ["--json"]):
        out[" ".join(["destabilize grid", *flags])] = [
            ["destabilize", "-c", str(data / name), f"--class={s},{t}",
             "--d", str(d), "--mode", mode, *flags]
            for name, (s, t), d, mode in destabilize_grid(root)]
    out["usage"] = list(_usage_lines())
    out["config refusals"] = [
        [*command, "-c", config] for config in _refused_configs(workdir)
        for command in (["lattice-info"], ["verify", "--script", "case-B24"])]
    out["scripts"] = [case.tag for case in CASES]
    out["engine"] = list(_engine_queries())
    return out


def _usage_lines():
    """The command lines of the ``usage`` surface."""
    commands = ("lattice-info", "classify", "companions", "enumerate",
                "destabilize", "verify", "theorem", "example-delpezzo")
    query = ["destabilize", "--class", "4,-2", "--d"]
    yield from ([], ["--help"], ["-h", "verify"], ["frobnicate"], ["--"],
                ["verify", "--", "--script", "case-B24"])
    for command in commands:
        yield [command, "--help"]
    yield from (
        ["verify"], ["verify", "--script"], ["enumerate"], ["classify"],
        query, ["verify", "--script", "case-B24", "--bogus"],
        ["theorem", "--bogus"], ["verify", "--script", "case-B24", "extra"],
        ["example-delpezzo", "extra"], ["enumerate", "--preset", "no-such"],
        query + ["2", "--mode", "wild"], query + ["two"],
        ["enumerate", "--preset", "i-a", "--box", "x"],
        ["verify", "--scr", "case-B24", "--json"], ["classify", "--cl", "0,1"],
        ["classify", "--cl", "-1,2"], ["classify", "--class", "-1,2"],
        ["companions", "--cla", "-1,2"],
        ["destabilize", "--clas", "-1,2", "--d", "2"],
        ["classify", "--c", "-1,2"])


def _refused_configs(workdir: Path):
    """The -c arguments of the ``config refusals`` surface, each malformed
    config written into workdir first."""
    base = {"rank": 2, "gram": [[4, 1], [1, -2]], "labels": ["h", "B"],
            "ample": [1, 0], "k3": True, "assumptions": []}
    edits = {
        "unknown-key": {"extra": 1},
        "bool-in-gram": {"gram": [[4, True], [1, -2]]},
        "float-in-ample": {"ample": [1.0, 0]},
        "short-row": {"gram": [[4, 1], [1]]},
        "non-int-subject": {"assumptions": [{"subject": [0, "1"],
                                             "kind": "Empty"}]},
        "duplicate-labels": {"labels": ["h", "h"]},
        "odd-k3-diagonal": {"gram": [[4, 1], [1, -3]]},
        "wrong-signature": {"gram": [[4, 0], [0, 2]]},
        "nonpositive-ample": {"ample": [0, 1]},
    }
    files = {"empty": b"", "not-utf8": b'{"labels": ["\xff"]}',
             "invalid-json": b'{"rank": 2,',
             **{name: json.dumps({**base, **edit}).encode()
                for name, edit in edits.items()}}
    (workdir / "directory.json").mkdir()
    yield from (str(workdir / "missing.json"),
                str(workdir / "directory.json"), "", "/dev/zero")
    for name, content in files.items():
        path = workdir / f"{name}.json"
        path.write_bytes(content)
        yield str(path)


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


def _script(tag: str) -> list:
    from k3acm.casework.casebook import script_by_tag
    from k3acm.casework.scripts import step_to_json

    script = script_by_tag(tag)
    return [tag, [step_to_json(st) for st in script.steps],
            list(script.conclusion), script.description]


def _run(argv: list[str] | tuple | str, workdir: str) -> list:
    """One run of a surface: a list is a command line, a tuple an
    ``engine`` query, a str a script tag.  Its first item names the run;
    a command line's stderr has workdir's path as ``<workdir>``."""
    from k3acm import cli

    if isinstance(argv, tuple):
        return _engine(argv)
    if isinstance(argv, str):
        return _script(argv)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    shown = [Path(a).name if a.endswith(".json") else a for a in argv]
    return [shown, code, out.getvalue(),
            err.getvalue().replace(workdir, "<workdir>")]


def _digests(root: str) -> dict[str, tuple[str, list]]:
    """surface -> (its digest, [(run name, the run's own digest), ...])."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    os.environ["COLUMNS"] = "80"  # help wraps at the terminal width
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, argvs in _surfaces(root, Path(workdir)).items():
            digest, runs = hashlib.sha256(), []
            for argv in argvs:
                ran = _run(argv, workdir)
                line = json.dumps(ran).encode() + b"\n"
                digest.update(line)
                runs.append((ran[0], hashlib.sha256(line).hexdigest()))
            out[name] = digest.hexdigest(), runs
    return out


# the compare mode's child: one root's digests with each run's, as JSON
_CHILD = ("import json, runpy, sys; print(json.dumps("
          "runpy.run_path(sys.argv[1])['_digests'](sys.argv[2])))")


def _compare(root_a: str, root_b: str) -> int:
    """Print the surfaces whose digests differ between two checkouts, each
    with its first differing run; 2 when a checkout's own run fails."""
    digests = []
    for root in (root_a, root_b):
        run = subprocess.run([sys.executable, "-c", _CHILD, __file__, root],
                             capture_output=True, text=True)
        if run.returncode != 0:
            print(f"{root}: the digest run failed with exit code "
                  f"{run.returncode}\n{run.stderr}", file=sys.stderr, end="")
            return 2
        digests.append(json.loads(run.stdout))
    a, b = digests
    differ = [name for name in {**a, **b} if a.get(name) != b.get(name)]
    for name in differ:
        (digest_a, runs_a), (digest_b, runs_b) = (
            side.get(name, ("-", [])) for side in (a, b))
        print(f"{name}: {digest_a} -> {digest_b}")
        first = next((ran_a or ran_b for ran_a, ran_b in itertools.zip_longest(
            runs_a, runs_b) if ran_a != ran_b), None)
        if first is not None:
            shown = (f"engine query {json.dumps(first[0])}" if name == "engine"
                     else f"script {first[0]}" if name == "scripts"
                     else " ".join(["k3acm", *first[0]]))
            print(f"  first differing run: {shown}")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    roots = argv or [Path(__file__).resolve().parents[1]]
    if len(roots) > 2 or not all(
            (Path(root) / "src" / "k3acm" / "__init__.py").is_file()
            for root in roots):
        print("usage: python3 tools/cli_digests.py [ROOT_A [ROOT_B]]  "
              "(a ROOT holds src/k3acm/__init__.py)", file=sys.stderr)
        return 2
    if len(roots) == 2:
        return _compare(*roots)
    for name, (digest, runs) in _digests(roots[0]).items():
        print(f"{digest}  {name} ({len(runs)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
