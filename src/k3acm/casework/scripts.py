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

Expressions are JSON values (ints or {"op": ...} dicts), so steps and
reports serialize losslessly: a report is ``report_to_json``'s dict, and
``report_text`` writes, in one pass, the text ``json.dumps`` makes of it,
which ``k3acm verify --json`` prints.  Because claims recompute from the
gram matrix at run time, corrupting any lattice entry makes claims fail.

The language has seven ops: ``pair``, ``self``, ``deg`` and ``genus`` read
the lattice, and ``add``, ``mul`` and ``sub`` are ring arithmetic, so a
claim re-checks with no square root and no signature.

It has one walker, ``_walk``: it reads an expression once into its value,
if it reads no lattice, or else a closure over the lattice.  Literal
arithmetic folds as it is read: an exact int, and an ``add``, ``mul`` or
``sub`` whose operands are all values, is a value, and a node that mixes
values and closures carries the values as constants.  ``evaluate`` runs
the closure, if any, once.  An expression that cannot be read raises
MalformedScriptError at its first unreadable node, before any lattice
arithmetic, so the error is the same on every lattice.  Each op is defined
once, by its compiler in ``_COMPILERS`` (``add`` and ``mul`` through
``_FOLDS``); the bundle builders, such as ``bn_expr``, add no op.

A pairing of fixed classes (``pair``, ``self`` and ``genus``) reads the
coordinates once into terms (i, j, a[i]*b[j]), and every run sums
coef * gram[i][j] over them on the lattice it is given (``_pairing``);
``deg`` reads its class into terms (j, a[j]) and sums
ample[i] * a[j] * gram[i][j].  Each such kernel is built once per process
per coordinate tuple, in a cache of _KERNELS closures (never values) that
is looked up only after ``_coords`` has checked the node.  Only a lattice
of another rank goes to ``Lattice.pair_coords``, for its error.

A script's ``program``, the one place a claim's sides are read, is built
at its first replay or rebinding and handed on by ``with_lattice``: per
step, an axiom's finished StepReport, a claim's (lhs, rhs, index, label,
rel, tail), each side its int or its closure, and ``tail`` " rel rhs;
impossible given ..." if the rhs is an int, else that suffix alone, or the
FAILED StepReport of a claim whose sides cannot be read.  A claim edited
in place once its script has replayed is not seen; a script built anew
reads its claims again.  A value too long for ``str`` fails its step too.
"""

from __future__ import annotations

import functools
import json
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, NamedTuple, Sequence

from ..axioms import is_registered
from ..config import _is_int
from ..errors import MalformedScriptError, WorkbenchError
from ..invariants import genus_of
from ..lattice import _EXACT_INT, DivClass, Lattice
from .constraints import _is_rel, check_rel

Expr = Any  # int, or a dict {"op": str, ...}
Compiled = Callable[[Lattice], int]


def _coords(value) -> tuple[int, ...]:
    """Class coordinates from JSON, which must all be ints, as a tuple."""
    if type(value) not in (list, tuple) or not (
            _EXACT_INT.issuperset(map(type, value))
            or all(map(_is_int, value))):
        raise MalformedScriptError(
            f"class coordinates must be a list of ints, got {value!r}")
    return tuple(value)


def _args(expr: dict) -> Sequence[Expr]:
    args = expr["args"]
    if type(args) not in (list, tuple):
        raise MalformedScriptError(f"'args' must be a list, got {args!r}")
    return args


def evaluate(expr: Expr, lat: Lattice) -> int:
    """Evaluate an expression to an exact integer against a lattice: its
    folded value, or its closure run once.  An expression that cannot be
    read raises the MalformedScriptError of its first such node."""
    value = expr if type(expr) is int else _walk(expr)
    return value if type(value) is int else value(lat)


# ---- compiling expressions ---------------------------------------------------

def _walk(expr: Expr) -> int | Compiled:
    """The one walker: expr's value if it folds, else its closure."""
    if type(expr) is int:
        return expr
    if isinstance(expr, int):
        if isinstance(expr, bool):
            raise MalformedScriptError("boolean is not a valid expression")
        return lambda lat: expr  # an int subclass is returned as it is
    if not isinstance(expr, dict) or "op" not in expr:
        raise MalformedScriptError(f"bad expression: {expr!r}")
    op = expr["op"]
    try:
        compiler = _COMPILERS[op]
    except (KeyError, TypeError):
        raise MalformedScriptError(f"unknown expression op {op!r}") from None
    # compilers read this node's keys directly; nested _walk calls convert
    # their own, so a KeyError here is a key missing from this expression
    try:
        return compiler(expr)
    except KeyError as exc:
        raise MalformedScriptError(
            f"{op!r} expression has no key {exc}") from None


# ---- lattice ops: defined only by their compilers ----------------------------

_KERNELS = 1024  # per cache; the benchmark workloads read 53 and 10


@functools.lru_cache(maxsize=_KERNELS)
def _pairing(a: tuple[int, ...], b: tuple[int, ...]) -> Compiled:
    """The pairing of two fixed classes, as one shared kernel; a lattice of
    another rank goes to Lattice.pair_coords, for its error."""
    terms = tuple([(i, j, x * y) for i, x in enumerate(a) if x
                   for j, y in enumerate(b) if y])
    rank = len(a) if len(a) == len(b) else None

    def run(lat: Lattice) -> int:
        gram = lat.gram
        if len(gram) != rank:
            return lat.pair_coords(a, b)
        total = 0
        for i, j, c in terms:
            total += c * gram[i][j]
        return total
    return run


@functools.lru_cache(maxsize=_KERNELS)
def _ample_pairing(a: tuple[int, ...]) -> Compiled:
    """a paired with the ample class of the lattice, as one shared kernel."""
    terms = tuple([(j, y) for j, y in enumerate(a) if y])

    def run(lat: Lattice) -> int:
        gram = lat.gram
        if len(gram) != len(a):
            return lat.pair_coords(lat.ample.coords, a)
        total = 0
        for x, row in zip(lat.ample.coords, gram):
            if x:
                for j, y in terms:
                    total += x * y * row[j]
        return total
    return run


def _compile_self(e: dict) -> Compiled:
    a = _coords(e["a"])
    return _pairing(a, a)


def _compile_genus(e: dict) -> Compiled:
    square = _compile_self(e)
    return lambda lat: genus_of(square(lat))


# ---- arithmetic ops: sub, and add and mul through _FOLDS --------------------

def _compile_sub(e: dict) -> int | Compiled:
    """x - y; a value operand is carried as a constant.  It walks x before
    reading y, and a level of nesting costs two frames (_walk and this):
    the tests pin that a claim nested 400 deep evaluates."""
    x = _walk(e["x"])
    y = _walk(e["y"])
    if type(x) is int:
        if type(y) is int:
            return x - y
        return lambda lat: x - y(lat)
    if type(y) is int:
        return lambda lat: x(lat) - y
    return lambda lat: x(lat) - y(lat)


# op -> (binary fn, start) folded over the expressions in "args"
_FOLDS = {"add": (operator.add, 0), "mul": (operator.mul, 1)}


def _folded(fn: Callable[[int, int], int], start: int):
    """The compiler of an op that folds fn over its args from start: the
    values among them fold at once, into the start of the closures' fold
    (fn is commutative and associative)."""
    def compile_op(e: dict) -> int | Compiled:
        total, parts = start, []
        for x in _args(e):
            part = x if type(x) is int else _walk(x)  # skips a call per int
            if type(part) is int:
                total = fn(total, part)
            else:
                parts.append(part)
        if not parts:
            return total

        def run(lat: Lattice) -> int:
            acc = total
            for part in parts:
                acc = fn(acc, part(lat))
            return acc
        return run
    return compile_op


_COMPILERS: dict[str, Callable[[dict], int | Compiled]] = {
    "pair": lambda e: _pairing(_coords(e["a"]), _coords(e["b"])),
    "self": _compile_self,
    "deg": lambda e: _ample_pairing(_coords(e["a"])),
    "genus": _compile_genus,
    "sub": _compile_sub,
    **{op: _folded(*spec) for op, spec in _FOLDS.items()},
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
    return sub_expr(0, x)


def bn_expr(g: Expr, r: Expr, d: Expr) -> Expr:
    """Brill-Noether number rho(g, r, d) = g - (r + 1)(g - d + r)."""
    return sub_expr(g, mul_expr(add_expr(r, 1), add_expr(g, neg_expr(d), r)))


def chi_expr(d: DivClass) -> Expr:
    """chi(O(D)) = 2 + D^2/2 = genus(D) + 1 on a K3 surface."""
    return add_expr(genus_expr(d), 1)


def chi_bundle_expr(c1: DivClass, c2: Expr) -> Expr:
    """chi(E) = 4 + c1^2/2 - c2 = genus(c1) + 3 - c2 for E of rank 2."""
    return add_expr(genus_expr(c1), 3, neg_expr(c2))


def c2_twist_expr(c2: Expr, c1: DivClass, by: DivClass) -> Expr:
    """c2(E(L)) = c2 + c1.L + L^2 for E of rank 2 and L = by."""
    return add_expr(c2, pair_of(c1, by), self_of(by))


# ---- steps -------------------------------------------------------------------

@dataclass(frozen=True)
class ArithClaim:
    """label: short stable name; lhs rel rhs is checked exactly.

    ``contradicts``: when set, the claim is asserting something that the
    named fact forbids -- the verified claim plus the cited fact form the
    final "P and not P" of a contradiction script.  Only a script's
    ``program`` reads the sides: to change a claim, build a new one with
    ``dataclasses.replace`` and a new script of it.
    """

    label: str
    lhs: Expr
    rel: str
    rhs: Expr
    cite: str = ""
    contradicts: str = ""

    kind = "arith"

    # __dict__ filled key by key: no generated __setattr__, no kwargs dict
    def __init__(self, label: str, lhs: Expr, rel: str, rhs: Expr,
                 cite: str = "", contradicts: str = ""):
        if not _is_rel(rel):
            raise MalformedScriptError(f"unknown relation {rel!r}")
        d = self.__dict__
        d["label"], d["lhs"], d["rel"] = label, lhs, rel
        d["rhs"], d["cite"], d["contradicts"] = rhs, cite, contradicts


class AxiomUse(namedtuple("AxiomUse", "axiom_id note cite")):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # for _replace

    kind = "axiom"

    def __new__(cls, axiom_id: str, note: str = "", cite: str = ""):
        if not is_registered(axiom_id):
            raise MalformedScriptError(f"unregistered axiom id {axiom_id!r}")
        return tuple.__new__(cls, (axiom_id, note, cite))


Step = ArithClaim | AxiomUse


class Conclusion(namedtuple("Conclusion", "kind statement")):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # for _replace

    def __new__(cls, kind: str, statement: str = ""):
        if kind not in ("contradiction", "established"):
            raise MalformedScriptError(f"unknown conclusion kind {kind!r}")
        if kind == "established" and not statement:
            raise MalformedScriptError("an established conclusion needs a statement")
        return tuple.__new__(cls, (kind, statement))


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

    @cached_property
    def program(self) -> tuple:
        """One row per step, as the module docstring lays it out."""
        rows = []
        for i, st in enumerate(self.steps):
            if st.kind == "axiom":
                rows.append(_step(StepReport, (i, "axiom", st.axiom_id,
                                               "AxiomUsed", st.note)))
                continue
            try:
                lhs, rhs, why = _walk(st.lhs), _walk(st.rhs), st.contradicts
                tail = f"; impossible given {why}" if why else ""
                if type(rhs) is int:
                    tail = f" {st.rel} {rhs}{tail}"
            except (WorkbenchError, RecursionError, ValueError) as exc:
                rows.append(_step(StepReport, (i, "arith", st.label, "FAILED",
                                               f"evaluation error: {exc}")))
                continue
            rows.append((lhs, rhs, i, st.label, st.rel, tail))
        return tuple(rows)

    def with_lattice(self, lat: Lattice) -> "DerivationScript":
        """``dataclasses.replace(self, lattice=lat)``, steps not re-checked;
        the rebound script shares this one's program."""
        self.program  # built here once, so no rebound script builds it
        script = object.__new__(type(self))
        script.__dict__.update(self.__dict__, lattice=lat)
        return script


# ---- running -----------------------------------------------------------------

class StepReport(NamedTuple):
    index: int
    kind: str
    label: str
    status: str  # "Verified" | "AxiomUsed" | "FAILED"
    detail: str = ""


class DerivationReport(NamedTuple):
    tag: str
    success: bool
    conclusion: Conclusion
    steps: tuple[StepReport, ...]
    failed: tuple[int, ...] = ()

    def summary(self) -> str:
        n_ax = sum(1 for s in self.steps if s.status == "AxiomUsed")
        n_ver = sum(1 for s in self.steps if s.status == "Verified")
        head = "Success" if self.success else "FAILED"
        return (f"{self.tag}: {head} "
                f"({n_ver} claims verified, {n_ax} axioms cited"
                + (f", {len(self.failed)} failed" if self.failed else "") + ")")


# StepReport's generated __new__ is a Python function; building the tuple
# directly is one C call and gives the same StepReport
_step = tuple.__new__


def run_script(script: DerivationScript) -> DerivationReport:
    """Re-check every arithmetic claim of a script against its lattice.

    Each claim replays through its row of ``script.program``: its closure
    sides run on the script's lattice, then one ``check_rel`` and one
    StepReport, so no verdict is kept between calls.  Evaluation errors
    (odd squares after a corrupted gram entry, bad expressions, nesting
    past the recursion limit, values too long for ``str``) are FAILED
    steps, never exceptions.  Success requires zero FAILED steps and, for
    a contradiction, a verified final flagged claim.
    """
    lat = script.lattice
    reports: list[StepReport] = []
    add = reports.append
    failed: list[int] = []
    for row in script.program:
        if type(row) is StepReport:  # an axiom, or a claim it cannot read
            add(row)
            if row.status == "FAILED":
                failed.append(row.index)
            continue
        lhs, rhs_of, i, label, rel, tail = row
        try:
            if type(lhs) is not int:
                lhs = lhs(lat)
            rhs = rhs_of if type(rhs_of) is int else rhs_of(lat)
            if check_rel(rel, lhs, rhs):  # read off this module per call
                add(_step(StepReport, (i, "arith", label, "Verified",
                                       # rhs is rhs_of only when it folded
                                       f"{lhs}{tail}" if rhs is rhs_of
                                       else f"{lhs} {rel} {rhs}{tail}")))
                continue
            detail = f"claim {lhs} {rel} {rhs} is false"
        except (WorkbenchError, RecursionError, ValueError) as exc:
            detail = f"evaluation error: {exc}"
        failed.append(i)
        add(_step(StepReport, (i, "arith", label, "FAILED", detail)))
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


def report_text(report: DerivationReport) -> str:
    """``json.dumps(report_to_json(report))`` in one pass through its escaper,
    for a report as ``run_script`` builds it (str fields, int indexes)."""
    q = json.encoder.encode_basestring_ascii
    c = report.conclusion
    steps = ", ".join([
        f'{{"index": {i}, "kind": {q(kind)}, "label": {q(label)}, '
        f'"status": {q(status)}, "detail": {q(detail)}}}'
        for i, kind, label, status, detail in report.steps])
    return (f'{{"tag": {q(report.tag)}, "status": '
            f'{q("Success" if report.success else "FAILED")}, '
            f'"conclusion": {{"kind": {q(c.kind)}, "statement": '
            f'{q(c.statement)}}}, "steps": [{steps}]}}')
