"""Integer constraint systems in two unknowns (s, t) and their enumeration.

A CaseSpec packages a lattice, a list of constraints on the coefficients of
C = s*U + t*V for two fixed basis classes U, V, and a search box.
enumerate_case first bounds s: the linear kinds and |t| <= box are
half-planes a*s + b*t >= r, and eliminating t from them (Fourier-Motzkin)
gives the integer s-range in which any real t is left.  It then solves one
s of that range at a time: each constraint becomes integer t-intervals that
contain all of its solutions at that s (floor and ceiling division for the
linear kinds, math.isqrt roots for the quadratic one), and Constraint.holds
decides every point left in their intersection.  A survivor on the box
boundary raises BoxTooSmallError because it signals the solution set may
be truncated.

Constraints carry their justification (an axiom id plus a citation string
quoting the inequality being encoded) so every preset is auditable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from ..config import _is_int
from ..errors import BadParametersError, BoxTooSmallError
from ..invariants import hodge_lower
from ..lattice import DivClass, Lattice

_REL: dict[str, Callable[[int, int], bool]] = {
    "<=": lambda x, y: x <= y,
    "<": lambda x, y: x < y,
    "=": lambda x, y: x == y,
    ">=": lambda x, y: x >= y,
    ">": lambda x, y: x > y,
}


def _known_rel(rel: str) -> str:
    if rel not in _REL:
        raise BadParametersError(f"unknown relation {rel!r}")
    return rel


def check_rel(rel: str, lhs: int, rhs: int) -> bool:
    return _REL[_known_rel(rel)](lhs, rhs)


class ConstraintKind(enum.Enum):
    LINEAR = "LinearIneq"
    QUADRATIC = "QuadraticIneq"
    HODGE_LOWER = "HodgeLower"
    ABS_T_AT_LEAST = "AbsTAtLeast"


@dataclass(frozen=True)
class Constraint:
    """One machine-checkable condition on the integer pair (s, t).

    payload, by kind:
      LinearIneq:   (a, b, rel, c)            -> a*s + b*t rel c
      QuadraticIneq:(qss, qst, qtt, a, b, rel, c)
                                               -> quadratic form rel c
      HodgeLower:   (a, b, c2min, d2)          -> a*s + b*t >= hodge_lower(c2min, d2)
      AbsTAtLeast:  (n,)                       -> |t| >= n
    """

    kind: ConstraintKind
    payload: tuple
    axiom_id: str = ""
    cite: str = ""

    def holds(self, s: int, t: int) -> bool:
        p = self.payload
        if self.kind is ConstraintKind.LINEAR:
            a, b, rel, c = p
            return check_rel(rel, a * s + b * t, c)
        if self.kind is ConstraintKind.QUADRATIC:
            qss, qst, qtt, a, b, rel, c = p
            val = qss * s * s + qst * s * t + qtt * t * t + a * s + b * t
            return check_rel(rel, val, c)
        if self.kind is ConstraintKind.HODGE_LOWER:
            a, b, c2min, d2 = p
            return a * s + b * t >= hodge_lower(c2min, d2)
        if self.kind is ConstraintKind.ABS_T_AT_LEAST:
            (n,) = p
            return abs(t) >= n
        raise BadParametersError(f"unknown constraint kind {self.kind}")


def linear(a: int, b: int, rel: str, c: int, axiom_id: str = "", cite: str = "") -> Constraint:
    return Constraint(ConstraintKind.LINEAR, (a, b, _known_rel(rel), c),
                      axiom_id, cite)


def quadratic(qss: int, qst: int, qtt: int, a: int, b: int, rel: str, c: int,
              axiom_id: str = "", cite: str = "") -> Constraint:
    return Constraint(ConstraintKind.QUADRATIC,
                      (qss, qst, qtt, a, b, _known_rel(rel), c), axiom_id, cite)


def hodge_lower_bound(lat: Lattice, u: DivClass, v: DivClass, target: DivClass,
                      c2min: int, axiom_id: str = "", cite: str = "") -> Constraint:
    """(s*U + t*V).target >= hodge_lower(c2min, target^2), coefficients baked in."""
    a = lat.pair(u, target)
    b = lat.pair(v, target)
    d2 = lat.self_int(target)
    return Constraint(ConstraintKind.HODGE_LOWER, (a, b, c2min, d2), axiom_id, cite)


def abs_t_at_least(n: int, axiom_id: str = "", cite: str = "") -> Constraint:
    return Constraint(ConstraintKind.ABS_T_AT_LEAST, (n,), axiom_id, cite)


@dataclass(frozen=True)
class CaseSpec:
    """A bounded integer search: which (s, t) satisfy every constraint?

    The constraints have their coefficients already expressed in terms of
    pairings with the classes U and V multiplied by s and t.
    """

    lattice: Lattice
    constraints: tuple[Constraint, ...]
    box: int = 32
    tag: str = ""

    def __post_init__(self):
        if not 16 <= self.box <= 256:
            raise BadParametersError(
                f"box must be between 16 and 256, got {self.box}")
        object.__setattr__(self, "constraints", tuple(self.constraints))


# ---- the solver --------------------------------------------------------------
#
# Before the s loop, every LinearIneq and HodgeLower becomes half-planes
# a*s + b*t >= r, and eliminating t from them bounds s.  At a fixed s every
# constraint is a condition on t alone.  The helpers below turn it into a
# sorted list of disjoint closed intervals inside [-box, box] that contains
# every t satisfying it; the s-range and the intervals only prune, and
# Constraint.holds decides each point that survives them.

Intervals = list[tuple[int, int]]
Row = tuple[int, int, int]  # (a, b, r): a*s + b*t >= r

_FLIP = {"<=": ">=", "<": ">", "=": "=", ">=": "<=", ">": "<"}

# payload length and the position of its relation, by kind
_SHAPE = {ConstraintKind.LINEAR: (4, 2), ConstraintKind.QUADRATIC: (7, 5),
          ConstraintKind.HODGE_LOWER: (4, None),
          ConstraintKind.ABS_T_AT_LEAST: (1, None)}


def _checked_payload(con: Constraint) -> tuple:
    """con.payload once its length, relation and integer coefficients are
    checked; BadParametersError otherwise."""
    p, kind = con.payload, con.kind
    if kind not in _SHAPE:
        raise BadParametersError(f"unknown constraint kind {kind}")
    size, rel_at = _SHAPE[kind]
    if len(p) != size:
        raise BadParametersError(
            f"{kind.value} payload needs {size} entries, got {p!r}")
    nums = p
    if rel_at is not None:
        _known_rel(p[rel_at])
        nums = p[:rel_at] + p[rel_at + 1:]
    if not all(map(_is_int, nums)):
        raise BadParametersError(
            f"{kind.value} coefficients must be integers, got {p!r}")
    return p


def _rows(a: int, b: int, rel: str, c: int) -> list[Row]:
    """The integer points with a*s + b*t rel c as half-planes: a strict
    relation is tightened by one, an equation is two rows."""
    return {">=": [(a, b, c)], ">": [(a, b, c + 1)],
            "<=": [(-a, -b, -c)], "<": [(-a, -b, 1 - c)],
            "=": [(a, b, c), (-a, -b, -c)]}[rel]


def half_plane_bounds(rows: Iterable[tuple[int, int]], lo: int,
                      hi: int) -> tuple[int, int]:
    """The integers x in [lo, hi] with b*x >= r for every row (b, r), as
    (lo, hi); lo > hi when none is left (0 >= r > 0 holds nowhere).

    Plain comparisons instead of max and min: the destabilizing engine
    calls this once per h.N column.
    """
    for b, r in rows:
        if b > 0:
            x = -(-r // b)  # ceil(r / b)
            if x > lo:
                lo = x
        elif b < 0:
            x = r // b  # floor(r / b)
            if x < hi:
                hi = x
        elif r > 0:
            return lo, lo - 1
    return lo, hi


def feasible_range(rows: list[Row], lo: int, hi: int) -> range:
    """The integer s in [lo, hi] at which the rows leave some real t.

    t is eliminated Fourier-Motzkin style: each pair of a lower and an
    upper bound on t gives one condition on s, and a row without t bounds
    s directly.
    """
    lows = [row for row in rows if row[1] > 0]
    highs = [row for row in rows if row[1] < 0]
    s_rows = [(a, r) for a, b, r in rows if b == 0]
    s_rows += [(b1 * a2 - b2 * a1, b1 * r2 - b2 * r1)
               for a1, b1, r1 in lows for a2, b2, r2 in highs]
    lo, hi = half_plane_bounds(s_rows, lo, hi)
    return range(lo, hi + 1)


def _merged(intervals: Intervals, box: int) -> Intervals:
    """Clip to [-box, box], drop empty pieces, sort and join touching ones."""
    out: Intervals = []
    for lo, hi in sorted((max(lo, -box), min(hi, box)) for lo, hi in intervals):
        if lo > hi:
            continue
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return out


def _intersect(xs: Intervals, ys: Intervals) -> Intervals:
    return [(max(a, c), min(b, d)) for a, b in xs for c, d in ys
            if max(a, c) <= min(b, d)]


def _rows_t(rows: list[Row], s: int, box: int) -> Intervals:
    """Exactly the t in [-box, box] that meet every row at s."""
    lo, hi = half_plane_bounds([(b, r - a * s) for a, b, r in rows],
                               -box, box)
    return [(lo, hi)] if lo <= hi else []


def _quadratic_t(qa: int, qb: int, qc: int, rel: str, box: int) -> Intervals:
    """A superset of the t in [-box, box] with qa*t^2 + qb*t + qc rel 0."""
    if qa == 0:
        return _rows_t(_rows(0, qb, rel, -qc), 0, box)
    if qa < 0:
        qa, qb, qc, rel = -qa, -qb, -qc, _FLIP[rel]
    # on integers, f < 0 is f + 1 <= 0 and f > 0 is f - 1 >= 0
    if rel == "<":
        qc, rel = qc + 1, "<="
    elif rel == ">":
        qc, rel = qc - 1, ">="
    disc = qb * qb - 4 * qa * qc
    if disc < 0:
        return [(-box, box)] if rel == ">=" else []
    # the real roots lie in [(-qb - r - 1)/2qa, (-qb - r)/2qa] and
    # [(-qb + r)/2qa, (-qb + r + 1)/2qa]; each end is widened by one step
    r, den = math.isqrt(disc), 2 * qa
    lo1, hi1 = (-qb - r - 1) // den - 1, -((qb + r) // den) + 1
    lo2, hi2 = (-qb + r) // den - 1, -((qb - r - 1) // den) + 1
    if rel == "<=":
        return _merged([(lo1, hi2)], box)
    if rel == "=":
        return _merged([(lo1, hi1), (lo2, hi2)], box)
    return _merged([(-box, hi1), (lo2, box)], box)


def _t_solver(con: Constraint,
              box: int) -> tuple[list[Row], Callable[[int], Intervals]]:
    """The half-planes of con and s -> its t-intervals at s (those of the
    half-planes, if it has any).  Checks the payload first, so a bad
    payload is refused whatever the box."""
    p = _checked_payload(con)
    if con.kind is ConstraintKind.QUADRATIC:
        qss, qst, qtt, a, b, rel, c = p
        return [], lambda s: _quadratic_t(qtt, qst * s + b,
                                          qss * s * s + a * s - c, rel, box)
    if con.kind is ConstraintKind.ABS_T_AT_LEAST:
        (n,) = p
        rays = _merged([(-box, -n), (n, box)], box)
        return [], lambda s: rays
    if con.kind is ConstraintKind.LINEAR:
        rows = _rows(*p)
    else:
        a, b, c2min, d2 = p
        rows = _rows(a, b, ">=", hodge_lower(c2min, d2))
    return rows, lambda s: _rows_t(rows, s, box)


def _plan(spec: CaseSpec) -> tuple[range, list[Callable[[int], Intervals]]]:
    """Check every payload; the s-range and one t-solver per constraint."""
    box = spec.box
    rows: list[Row] = [(0, 1, -box), (0, -1, -box)]  # |t| <= box
    solvers = []
    for con in spec.constraints:
        con_rows, solve = _t_solver(con, box)
        rows += con_rows
        solvers.append(solve)
    return feasible_range(rows, -box, box), solvers


def s_range(spec: CaseSpec) -> range:
    """The s-values enumerate_case visits: those of the box at which the
    LinearIneq and HodgeLower constraints leave some real t.

    A superset of the s of every solution; the whole box when the spec
    has no linear constraint.
    """
    return _plan(spec)[0]


def enumerate_case(spec: CaseSpec) -> list[tuple[int, int]]:
    """All box points satisfying every constraint, lexicographically sorted.

    Deterministic and serial: s runs over s_range(spec), the s-values at
    which the linear constraints leave some real t, and for each s the
    t-intervals of all constraints are intersected and Constraint.holds
    checks every point left.  Raises BoxTooSmallError if any survivor
    touches the boundary |s| = box or |t| = box, since the true solution
    set might then extend past the box.
    """
    box = spec.box
    s_values, solvers = _plan(spec)
    out: list[tuple[int, int]] = []
    for s in s_values:
        ts: Intervals = [(-box, box)]
        for solve in solvers:
            ts = _intersect(ts, solve(s))
            if not ts:
                break
        for lo, hi in ts:
            for t in range(lo, hi + 1):
                if all(c.holds(s, t) for c in spec.constraints):
                    out.append((s, t))
    for s, t in out:
        if abs(s) == box or abs(t) == box:
            raise BoxTooSmallError(
                f"survivor ({s}, {t}) touches the box boundary {box}; "
                f"enlarge the box")
    return out
