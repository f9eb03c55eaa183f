"""Seeded inputs, operations and output checks for the k3acm benchmark.

Each workload turns a seed into a fixed list of operations.  An operation
calls the package through the same public functions the ``k3acm`` CLI
calls, always looking them up on their module at call time, so that the
tracer in ``tracing.py`` can wrap them.  Every output is checked from
outside with the benchmark's own expectations and arithmetic; the program
is trusted only through its public ``evaluate`` and ``check_rel`` when a
destabilizing trace claim is re-checked.

Workloads (one client, closed loop):

* ``theorem-wide``: ``verify_necessity`` plus ``necessity_to_json`` on one
  of the seven shipped quartic configs at box 128; the seed shuffles the
  config order.  Dominated by the ``enumerate_case`` sweeps.
* ``verify-mutants``: ``k3acm.cli.main(["verify", "--script", TAG, "-c",
  CFG, "--json"])`` in-process, where CFG is the clean presentation of the
  script's lattice or a +/-1 Gram mutation of it written as a ``k3: false``
  config: all six on a rank-2 lattice, six seeded ones on the rank-8
  lattice.  Never enumerates.
* ``destabilize-grid``: what ``k3acm destabilize --json`` runs (classify
  B, ``derived_assumptions``, ``enumerate_destabilizing``,
  ``elimination_to_json``) over all 630 queries of a fixed grid, in a
  seeded order.  The 130 queries the engine fails on stay in the grid.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import k3acm.casework.casebook as casebook
import k3acm.casework.destabilize as destabilize
import k3acm.casework.necessity as necessity
import k3acm.classifier as classifier
import k3acm.cli as cli
import k3acm.config as config
from k3acm.casework import check_rel, evaluate
from k3acm.errors import BoxTooSmallError, WorkbenchError
from k3acm.lattice import DivClass

WORKLOADS = ("theorem-wide", "verify-mutants", "destabilize-grid")

THEOREM_BOX = 128
GRID_SIZE = 630
MUTANTS_PER_SCRIPT = 6  # all of them on a rank-2 lattice

# The preset solution sets the paper's classification proves.
PRESET_SURVIVORS = {
    "i-a": [[3, -2]],
    "i-b": [[2, 2], [4, -2]],
    "i-c": [[4, -2]],
    "ii": [[1, 2], [5, -2]],
    "iii": [[0, 2], [6, -2]],
}

# (B^2, h.B) of a presentation -> the preset its survivors come from; the
# (0, 3) and (2, 5) presentations reduce to (-2, 1) and (-2, 3).
PROFILE_PRESET = {
    (-2, 1): "i-a", (0, 3): "i-a",
    (-2, 2): "i-b",
    (-2, 3): "i-c", (2, 5): "i-c",
    (0, 4): "ii",
    (4, 6): "iii",
}

_B = DivClass((0, 1))


class CheckError(Exception):
    """An operation returned an output that is wrong."""


@dataclass(frozen=True)
class Op:
    """One operation: ``run`` calls the program, ``check`` judges its output.

    ``check`` raises CheckError on a wrong output and otherwise returns
    the canonical form of the output that the digest hashes.
    """

    key: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]


def quartic_config_paths(root: Path) -> list[Path]:
    paths = sorted((root / "src" / "k3acm" / "data").glob("quartic_*.json"))
    if len(paths) != 7:
        raise RuntimeError(f"expected 7 shipped quartic configs, found {len(paths)}")
    return paths


def build_ops(workload: str, seed: int, root: Path, workdir: Path) -> list[Op]:
    """The operation list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "theorem-wide":
        ops = _theorem_ops(root)
    elif workload == "verify-mutants":
        ops = _verify_ops(rng, workdir)
    elif workload == "destabilize-grid":
        ops = _destabilize_ops(root)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng.shuffle(ops)
    return ops


# ---- theorem-wide -----------------------------------------------------------

def _theorem_ops(root: Path) -> list[Op]:
    ops = []
    for path in quartic_config_paths(root):
        lat, assumptions = config.load_config(path)
        profile = (lat.gram[1][1], lat.gram[0][1])
        ops.append(Op(key=path.name,
                      run=_theorem_run(lat, assumptions),
                      check=_theorem_check(PROFILE_PRESET[profile])))
    return ops


def _theorem_run(lat, assumptions):
    def run():
        report = necessity.verify_necessity(lat, _B, assumptions, box=THEOREM_BOX)
        return necessity.necessity_to_json(report)
    return run


def _theorem_check(preset: str):
    want = PRESET_SURVIVORS[preset]

    def check(out):
        if out["status"] != "VERIFIED":
            raise CheckError(f"status {out['status']}, expected VERIFIED")
        if out["preset"] != preset:
            raise CheckError(f"preset {out['preset']}, expected {preset}")
        if sorted(out["survivors"]) != want:
            raise CheckError(f"survivors {out['survivors']}, expected {want}")
        if out["unmatched"]:
            raise CheckError(f"unmatched survivors {out['unmatched']}")
        if sorted(m["survivor"] for m in out["matches"]) != want:
            raise CheckError("matches do not cover exactly the survivors")
        reports = [m["report"] for m in out["matches"]] + out["supports"]
        if "substitution" in out:
            reports.append(out["substitution"]["report"])
        for rep in reports:
            if rep["status"] != "Success":
                raise CheckError(f"script {rep['tag']} reported {rep['status']}")
        return out
    return check


# ---- verify-mutants ---------------------------------------------------------

def _config_doc(gram, lat, k3: bool) -> dict:
    return {"rank": lat.rank, "gram": [list(row) for row in gram],
            "labels": list(lat.labels), "ample": list(lat.ample.coords),
            "k3": k3, "assumptions": []}


def _ample_square(gram, ample) -> int:
    return sum(a * gram[i][j] * b
               for i, a in enumerate(ample) for j, b in enumerate(ample))


def _mutations(rng: random.Random, rank: int) -> list[tuple[str, list]]:
    """Every +/-1 change of one diagonal entry or one symmetric off-diagonal
    pair; a larger lattice gets a seeded sample of three of each kind."""
    diag = [(f"d{i}{s:+d}", [(i, i, s)])
            for i in range(rank) for s in (1, -1)]
    off = [(f"o{i}{j}{s:+d}", [(i, j, s), (j, i, s)])
           for i in range(rank) for j in range(i + 1, rank) for s in (1, -1)]
    if len(diag) + len(off) > MUTANTS_PER_SCRIPT:
        diag, off = rng.sample(diag, 3), rng.sample(off, 3)
    return diag + off


def _verify_ops(rng: random.Random, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for tag, script in sorted(casebook.builtin_scripts().items()):
        lat = script.lattice
        n_steps = len(script.steps)
        variants = [("clean", [])] + _mutations(rng, lat.rank)
        for name, edits in variants:
            gram = [list(row) for row in lat.gram]
            for i, j, delta in edits:
                gram[i][j] += delta
            mutant = bool(edits)
            doc = _config_doc(gram, lat, k3=lat.k3 and not mutant)
            path = workdir / f"{tag}.{name}.json"
            path.write_text(json.dumps(doc))
            # a mutant is invalid input exactly when its ample square is <= 0
            if not mutant:
                expect = 0
            elif _ample_square(gram, lat.ample.coords) <= 0:
                expect = 2
            else:
                expect = 1
            argv = ["verify", "--script", tag, "-c", str(path), "--json"]
            ops.append(Op(key=f"{tag}.{name}", run=_cli_run(argv),
                          check=_verify_check(tag, expect, n_steps)))
    return ops


def _cli_run(argv: list[str]):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()
    return run


def _verify_check(tag: str, expect: int, n_steps: int):
    def check(result):
        code, stdout = result
        if code != expect:
            raise CheckError(f"{tag}: exit {code}, expected {expect}")
        if expect == 2:
            if stdout:
                raise CheckError(f"{tag}: invalid input printed a report")
            return {"exit": code}
        report = json.loads(stdout)
        if report["tag"] != tag or len(report["steps"]) != n_steps:
            raise CheckError(f"{tag}: report does not replay the script")
        failed = [s for s in report["steps"] if s["status"] == "FAILED"]
        if expect == 0 and (report["status"] != "Success" or failed):
            raise CheckError(f"{tag}: clean replay is not a Success")
        if expect == 1 and (report["status"] != "FAILED" or not failed):
            raise CheckError(f"{tag}: mutated lattice replayed as "
                             f"{report['status']} with {len(failed)} FAILED steps")
        return {"exit": code, "report": report}
    return check


# ---- destabilize-grid -------------------------------------------------------

def destabilize_grid(root: Path) -> list[tuple[str, tuple[int, int], int, str]]:
    """All (config, C, d, mode) queries of the grid, in a fixed order.

    C = (s, t) with |s| <= 4, |t| <= 3, C^2 >= 4 and deg C > 0; d runs
    over the c2 window max(1, g - 5) <= d <= g + 7 - deg C of an
    initialized aCM pencil bundle, with g = 1 + C^2 / 2.
    """
    queries = []
    for path in quartic_config_paths(root):
        gram = json.loads(path.read_text())["gram"]
        (hh, hb), (_, bb) = gram
        for s in range(-4, 5):
            for t in range(-3, 4):
                c2 = hh * s * s + 2 * hb * s * t + bb * t * t
                deg = hh * s + hb * t
                if c2 < 4 or deg <= 0:
                    continue
                g = 1 + c2 // 2
                for d in range(max(1, g - 5), g + 7 - deg + 1):
                    for mode in destabilize.MODES:
                        queries.append((path.name, (s, t), d, mode))
    if len(queries) != GRID_SIZE:
        raise RuntimeError(f"destabilize grid has {len(queries)} queries, "
                           f"expected {GRID_SIZE}")
    return queries


def _destabilize_ops(root: Path) -> list[Op]:
    data = root / "src" / "k3acm" / "data"
    loaded = {}
    ops = []
    for name, curve, d, mode in destabilize_grid(root):
        if name not in loaded:
            loaded[name] = config.load_config(data / name)
        lat, assumptions = loaded[name]
        ops.append(Op(key=f"{name}:{curve[0]},{curve[1]}:{d}:{mode}",
                      run=_destabilize_run(lat, assumptions, DivClass(curve),
                                           d, mode),
                      check=_destabilize_check(lat, list(curve), d, mode)))
    return ops


def _destabilize_run(lat, assumptions, c: DivClass, d: int, mode: str):
    def run():
        worklist = list(assumptions)
        try:
            cls = classifier.is_initialized_acm(lat, _B, assumptions)
            if cls.status in (classifier.AcmStatus.ACM,
                              classifier.AcmStatus.ACM_ULRICH):
                worklist = classifier.derived_assumptions(lat, _B, cls,
                                                          assumptions)
        except WorkbenchError:
            pass
        records = destabilize.enumerate_destabilizing(
            lat, c, d, tuple(worklist), mode=mode)
        return {
            "curve": list(c.coords), "d": d, "mode": mode,
            "resolved": all(r.resolved for r in records),
            "records": [destabilize.elimination_to_json(r) for r in records],
        }
    return run


def _destabilize_check(lat, curve: list[int], d: int, mode: str):
    def check(out):
        if (out["curve"], out["d"], out["mode"]) != (curve, d, mode):
            raise CheckError("payload does not echo the query")
        if not out["records"]:
            raise CheckError("no records")
        for rec in out["records"]:
            if rec["resolved"] != (rec["outcome"] != "unresolved"):
                raise CheckError(f"record {rec['outcome']} has resolved="
                                 f"{rec['resolved']}")
            for claim in rec["trace"]:
                lhs = evaluate(claim["lhs"], lat)
                rhs = evaluate(claim["rhs"], lat)
                if not check_rel(claim["rel"], lhs, rhs):
                    raise CheckError(f"false trace claim {claim['label']!r}: "
                                     f"{lhs} {claim['rel']} {rhs}")
        if out["resolved"] != all(r["resolved"] for r in out["records"]):
            raise CheckError("resolved flag disagrees with the records")
        return out
    return check


# ---- failure accounting and the output digest -------------------------------

def failure_kind(exc: BaseException) -> str:
    """How a raised exception counts as a failed operation."""
    if isinstance(exc, CheckError):
        return "check"
    if isinstance(exc, BoxTooSmallError):
        return "box-too-small"
    if isinstance(exc, WorkbenchError):
        if "false claim" in str(exc):
            return "engine-fault"
        return "workbench-error"
    return "exception"


class Digest:
    """Hash of every distinct input's output; also catches nondeterminism.

    The digest is over the set of inputs, not the order or number of
    times they ran, so runs of different length with the same seed agree.
    """

    def __init__(self):
        self.outputs: dict[str, str] = {}
        self.mismatches: list[str] = []

    def add(self, key: str, canonical: Any) -> None:
        text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        h = hashlib.sha256(text.encode()).hexdigest()
        seen = self.outputs.setdefault(key, h)
        if seen != h:
            self.mismatches.append(key)

    def hexdigest(self) -> str:
        text = json.dumps(sorted(self.outputs.items()))
        return hashlib.sha256(text.encode()).hexdigest()
