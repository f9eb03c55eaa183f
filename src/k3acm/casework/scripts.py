"""Replayable derivation scripts.

A DerivationScript is the machine-checkable skeleton of one prose
elimination argument: a sequence of steps, each either

  * an ArithClaim  -- an exact integer (in)equality whose sides are
    expressions over the lattice (pairings, genus, chi, Brill-Noether
    numbers, ...), re-evaluated and checked on every run; or
  * an AxiomUse    -- a citation of a registered cohomological fact,
    recorded but not checked.

A script concludes either in a Contradiction (its final step must be an
arithmetic claim that verifies while being flagged as impossible given a
named fact: the "P and not P" shape) or in an Established statement.

Expressions are JSON values (ints or {"op": ...} dicts), so scripts and
reports serialize losslessly.  Because claims recompute from the gram
matrix at run time, corrupting any lattice entry makes claims fail.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

from ..axioms import is_registered
from ..config import _is_int
from ..errors import MalformedScriptError, WorkbenchError
from ..invariants import (BundleInvariants, brill_noether, chi_bundle,
                          chi_line, genus_of, hodge_lower)
from ..lattice import DivClass, Lattice
from .constraints import _is_rel, check_rel

Expr = Any  # int, or a dict {"op": str, ...}


def _coords(value) -> Sequence[int]:
    """Class coordinates from JSON, which must all be ints."""
    if not isinstance(value, (list, tuple)) or not all(map(_is_int, value)):
        raise MalformedScriptError(
            f"class coordinates must be a list of ints, got {value!r}")
    return value


def _args(expr: dict) -> Sequence[Expr]:
    args = expr["args"]
    if not isinstance(args, (list, tuple)):
        raise MalformedScriptError(f"'args' must be a list, got {args!r}")
    return args


def _minimax(p: int, q: int) -> int:
    """min over integer a of max(a + p, q - a), computed exactly.

    The function is convex piecewise-linear with slopes -1 and +1, so the
    minimum sits at the crossing a ~ (q - p) / 2; evaluating both integer
    neighbours of the crossing is exact.
    """
    lo = (q - p) // 2
    candidates = (lo, lo + 1)
    return min(max(a + p, q - a) for a in candidates)


def evaluate(expr: Expr, lat: Lattice) -> int:
    """Evaluate an expression to an exact integer against a lattice.

    An expression that cannot be read (an unknown op, a missing key, a
    non-list args, non-int coordinates, a chi_bundle rank other than the
    int 2) raises MalformedScriptError.
    """
    if isinstance(expr, int):
        if isinstance(expr, bool):
            raise MalformedScriptError("boolean is not a valid expression")
        return expr
    if not isinstance(expr, dict) or "op" not in expr:
        raise MalformedScriptError(f"bad expression: {expr!r}")
    op = expr["op"]
    try:
        handler = _OPS[op]
    except (KeyError, TypeError):
        raise MalformedScriptError(f"unknown expression op {op!r}") from None
    # handlers read their keys directly; nested evaluate calls convert
    # their own, so a KeyError here is a key missing from this expression
    try:
        return handler(expr, lat)
    except KeyError as exc:
        raise MalformedScriptError(
            f"{op!r} expression has no key {exc}") from None


def _pair(e: dict, lat: Lattice) -> int:
    return lat.pair_coords(_coords(e["a"]), _coords(e["b"]))


def _self(e: dict, lat: Lattice) -> int:
    a = _coords(e["a"])
    return lat.pair_coords(a, a)


def _deg(e: dict, lat: Lattice) -> int:
    return lat.pair_coords(lat.ample.coords, _coords(e["a"]))


def _chi_bundle(e: dict, lat: Lattice) -> int:
    """chi of a rank-2 bundle; the JSON key "rank" must be the int 2."""
    rank = e["rank"]
    if not _is_int(rank) or rank != 2:
        raise MalformedScriptError(f"'rank' must be the int 2, got {rank!r}")
    inv = BundleInvariants(2, DivClass(_coords(e["c1"])),
                           evaluate(e["c2"], lat))
    return chi_bundle(inv, lat)


def _c2_twist(e: dict, lat: Lattice) -> int:
    c1, by = _coords(e["c1"]), _coords(e["by"])
    return (evaluate(e["c2"], lat) + lat.pair_coords(c1, by)
            + lat.pair_coords(by, by))


def _add(e: dict, lat: Lattice) -> int:
    return sum(evaluate(x, lat) for x in _args(e))


def _mul(e: dict, lat: Lattice) -> int:
    total = 1
    for x in _args(e):
        total *= evaluate(x, lat)
    return total


_OPS: dict[str, Callable[[dict, Lattice], int]] = {
    "pair": _pair,
    "self": _self,
    "deg": _deg,
    "genus": lambda e, lat: genus_of(_self(e, lat)),
    "chi_of": lambda e, lat: chi_line(evaluate(e["sq"], lat)),
    "chi_bundle": _chi_bundle,
    "c2_twist": _c2_twist,
    "brill_noether": lambda e, lat: brill_noether(
        evaluate(e["g"], lat), evaluate(e["r"], lat), evaluate(e["d"], lat)),
    "hodge_lower": lambda e, lat: hodge_lower(evaluate(e["a"], lat),
                                              evaluate(e["b"], lat)),
    "minimax": lambda e, lat: _minimax(evaluate(e["p"], lat),
                                       evaluate(e["q"], lat)),
    "add": _add,
    "mul": _mul,
    "sub": lambda e, lat: evaluate(e["x"], lat) - evaluate(e["y"], lat),
    "neg": lambda e, lat: -evaluate(e["x"], lat),
    "odd_diag": lambda e, lat: sum(lat.gram[i][i] % 2
                                   for i in range(lat.rank)),
    "sig_pos": lambda e, lat: lat.signature()[0],
    "sig_neg": lambda e, lat: lat.signature()[1],
}


# ---- helpers for writing expressions in builders ----------------------------

def pair_of(a: DivClass, b: DivClass) -> Expr:
    return {"op": "pair", "a": list(a.coords), "b": list(b.coords)}


def self_of(a: DivClass) -> Expr:
    return {"op": "self", "a": list(a.coords)}


def deg_of(a: DivClass) -> Expr:
    return {"op": "deg", "a": list(a.coords)}


def genus_expr(a: DivClass) -> Expr:
    return {"op": "genus", "a": list(a.coords)}


def add_expr(*args: Expr) -> Expr:
    return {"op": "add", "args": list(args)}


def mul_expr(*args: Expr) -> Expr:
    return {"op": "mul", "args": list(args)}


def sub_expr(x: Expr, y: Expr) -> Expr:
    return {"op": "sub", "x": x, "y": y}


def neg_expr(x: Expr) -> Expr:
    return {"op": "neg", "x": x}


def hodge_expr(a: Expr, b: Expr) -> Expr:
    return {"op": "hodge_lower", "a": a, "b": b}


def bn_expr(g: Expr, r: Expr, d: Expr) -> Expr:
    return {"op": "brill_noether", "g": g, "r": r, "d": d}


def chi_expr(sq: Expr) -> Expr:
    return {"op": "chi_of", "sq": sq}


def chi_bundle_expr(c1: DivClass, c2: Expr) -> Expr:
    """chi of a rank-2 bundle with first Chern class c1."""
    return {"op": "chi_bundle", "rank": 2, "c1": list(c1.coords), "c2": c2}


def c2_twist_expr(c2: Expr, c1: DivClass, by: DivClass) -> Expr:
    return {"op": "c2_twist", "c2": c2, "c1": list(c1.coords),
            "by": list(by.coords)}


def minimax_expr(p: Expr, q: Expr) -> Expr:
    return {"op": "minimax", "p": p, "q": q}


# ---- steps -------------------------------------------------------------------

@dataclass(frozen=True)
class ArithClaim:
    """label: short stable name; lhs rel rhs is checked exactly.

    ``contradicts``: when set, the claim is asserting something that the
    named fact forbids -- the verified claim plus the cited fact form the
    final "P and not P" of a contradiction script.
    """

    label: str
    lhs: Expr
    rel: str
    rhs: Expr
    cite: str = ""
    contradicts: str = ""

    kind = "arith"

    def __post_init__(self):
        if not _is_rel(self.rel):
            raise MalformedScriptError(f"unknown relation {self.rel!r}")


@dataclass(frozen=True)
class AxiomUse:
    axiom_id: str
    note: str = ""
    cite: str = ""

    kind = "axiom"

    def __post_init__(self):
        if not is_registered(self.axiom_id):
            raise MalformedScriptError(f"unregistered axiom id {self.axiom_id!r}")


Step = ArithClaim | AxiomUse


@dataclass(frozen=True)
class Conclusion:
    kind: str  # "contradiction" | "established"
    statement: str = ""

    def __post_init__(self):
        if self.kind not in ("contradiction", "established"):
            raise MalformedScriptError(f"unknown conclusion kind {self.kind!r}")
        if self.kind == "established" and not self.statement:
            raise MalformedScriptError("an established conclusion needs a statement")


CONTRADICTION = Conclusion("contradiction")


def established(statement: str) -> Conclusion:
    return Conclusion("established", statement)


@dataclass(frozen=True)
class DerivationScript:
    tag: str
    lattice: Lattice
    steps: tuple[Step, ...]
    conclusion: Conclusion
    description: str = ""

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        for st in self.steps:
            if not isinstance(st, (ArithClaim, AxiomUse)):
                raise MalformedScriptError(f"bad step {st!r}")
        if self.conclusion.kind == "contradiction":
            if not self.steps or not isinstance(self.steps[-1], ArithClaim) \
                    or not self.steps[-1].contradicts:
                raise MalformedScriptError(
                    "a contradiction script must end with an arithmetic claim "
                    "flagged with the fact it contradicts")

    def with_lattice(self, lat: Lattice) -> "DerivationScript":
        return replace(self, lattice=lat)


# ---- running -----------------------------------------------------------------

@dataclass(frozen=True)
class StepReport:
    index: int
    kind: str
    label: str
    status: str  # "Verified" | "AxiomUsed" | "FAILED"
    detail: str = ""


@dataclass(frozen=True)
class DerivationReport:
    tag: str
    success: bool
    conclusion: Conclusion
    steps: tuple[StepReport, ...]
    failed: tuple[int, ...] = field(default=())

    def summary(self) -> str:
        n_ax = sum(1 for s in self.steps if s.status == "AxiomUsed")
        n_ver = sum(1 for s in self.steps if s.status == "Verified")
        head = "Success" if self.success else "FAILED"
        return (f"{self.tag}: {head} "
                f"({n_ver} claims verified, {n_ax} axioms cited"
                + (f", {len(self.failed)} failed" if self.failed else "") + ")")


def run_script(script: DerivationScript) -> DerivationReport:
    """Re-check every arithmetic claim of a script against its lattice.

    Evaluation errors (odd squares after a corrupted gram entry, bad
    expressions, expressions nested past the recursion limit) count as
    FAILED steps, never escape as exceptions.
    Success requires zero FAILED steps; a contradiction conclusion
    additionally requires its final flagged claim to have verified.
    """
    reports: list[StepReport] = []
    failed: list[int] = []
    for i, st in enumerate(script.steps):
        if isinstance(st, AxiomUse):
            reports.append(StepReport(i, "axiom", st.axiom_id, "AxiomUsed", st.note))
            continue
        try:
            lhs = evaluate(st.lhs, script.lattice)
            rhs = evaluate(st.rhs, script.lattice)
        except (WorkbenchError, RecursionError) as exc:
            failed.append(i)
            reports.append(StepReport(i, "arith", st.label, "FAILED",
                                      f"evaluation error: {exc}"))
            continue
        if check_rel(st.rel, lhs, rhs):
            detail = f"{lhs} {st.rel} {rhs}"
            if st.contradicts:
                detail += f"; impossible given {st.contradicts}"
            reports.append(StepReport(i, "arith", st.label, "Verified", detail))
        else:
            failed.append(i)
            reports.append(StepReport(i, "arith", st.label, "FAILED",
                                      f"claim {lhs} {st.rel} {rhs} is false"))
    success = not failed
    if script.conclusion.kind == "contradiction" and success:
        success = reports[-1].status == "Verified"
    return DerivationReport(tag=script.tag, success=success,
                            conclusion=script.conclusion,
                            steps=tuple(reports), failed=tuple(failed))


# ---- JSON --------------------------------------------------------------------

def step_to_json(st: Step) -> dict:
    if isinstance(st, AxiomUse):
        return {"kind": "axiom", "id": st.axiom_id, "note": st.note, "cite": st.cite}
    out = {"kind": "arith", "label": st.label, "lhs": st.lhs, "rel": st.rel,
           "rhs": st.rhs, "cite": st.cite}
    if st.contradicts:
        out["contradicts"] = st.contradicts
    return out


_ARITH_KEYS = {"kind", "label", "lhs", "rel", "rhs", "cite", "contradicts"}
_AXIOM_KEYS = {"kind", "id", "note", "cite"}


def step_from_json(data: dict) -> Step:
    if not isinstance(data, dict) or "kind" not in data:
        raise MalformedScriptError(f"bad step: {data!r}")
    if data["kind"] == "axiom":
        extra = set(data) - _AXIOM_KEYS
        if extra:
            raise MalformedScriptError(f"unexpected step keys: {sorted(extra)}")
        return AxiomUse(axiom_id=data["id"], note=data.get("note", ""),
                        cite=data.get("cite", ""))
    if data["kind"] == "arith":
        extra = set(data) - _ARITH_KEYS
        if extra:
            raise MalformedScriptError(f"unexpected step keys: {sorted(extra)}")
        try:
            return ArithClaim(label=data["label"], lhs=data["lhs"],
                              rel=data["rel"], rhs=data["rhs"],
                              cite=data.get("cite", ""),
                              contradicts=data.get("contradicts", ""))
        except KeyError as exc:
            raise MalformedScriptError(f"arith step missing key {exc}") from None
    raise MalformedScriptError(f"unknown step kind {data['kind']!r}")


def script_to_json(script: DerivationScript) -> dict:
    """The script as JSON values the caller owns: the steps are deep
    copies, since builtin scripts and their expression dicts are shared."""
    return {
        "tag": script.tag,
        "description": script.description,
        "lattice": {
            "gram": [list(row) for row in script.lattice.gram],
            "labels": list(script.lattice.labels),
            "ample": list(script.lattice.ample.coords),
            "k3": script.lattice.k3,
        },
        "steps": [copy.deepcopy(step_to_json(st)) for st in script.steps],
        "conclusion": {"kind": script.conclusion.kind,
                       "statement": script.conclusion.statement},
    }


_SCRIPT_KEYS = {"tag", "description", "lattice", "steps", "conclusion"}
_SCRIPT_LATTICE_KEYS = {"gram", "labels", "ample", "k3"}


def script_from_json(data: dict) -> DerivationScript:
    if not isinstance(data, dict):
        raise MalformedScriptError("script JSON must be an object")
    extra = set(data) - _SCRIPT_KEYS
    if extra:
        raise MalformedScriptError(f"unexpected script keys: {sorted(extra)}")
    try:
        lat_data = data["lattice"]
        extra = set(lat_data) - _SCRIPT_LATTICE_KEYS
        if extra:
            raise MalformedScriptError(f"unexpected lattice keys: {sorted(extra)}")
        gram = lat_data["gram"]
        if not isinstance(gram, list) or not all(
                isinstance(row, list) and all(map(_is_int, row)) for row in gram):
            raise MalformedScriptError(
                f"lattice gram must be a list of rows of ints, got {gram!r}")
        lat = Lattice(gram=gram, labels=lat_data["labels"],
                      ample=_coords(lat_data["ample"]), k3=lat_data.get("k3", False))
        steps = tuple(step_from_json(st) for st in data["steps"])
        conc = data["conclusion"]
        conclusion = Conclusion(conc["kind"], conc.get("statement", ""))
        return DerivationScript(tag=data["tag"], lattice=lat, steps=steps,
                                conclusion=conclusion,
                                description=data.get("description", ""))
    except (KeyError, TypeError) as exc:
        raise MalformedScriptError(f"malformed script JSON: {exc}") from None


def report_to_json(report: DerivationReport) -> dict:
    return {
        "tag": report.tag,
        "status": "Success" if report.success else "FAILED",
        "conclusion": {"kind": report.conclusion.kind,
                       "statement": report.conclusion.statement},
        "steps": [
            {"index": s.index, "kind": s.kind, "label": s.label,
             "status": s.status, "detail": s.detail}
            for s in report.steps
        ],
    }
