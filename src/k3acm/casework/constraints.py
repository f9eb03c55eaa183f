"""Integer constraint systems in two unknowns (s, t) and their enumeration.

A CaseSpec packages a lattice, a list of constraints on the coefficients of
C = s*U + t*V for two fixed basis classes U, V, and a search box.
enumerate_case solves one s at a time: each constraint becomes integer
t-intervals that contain all of its solutions at that s (floor and ceiling
division for the linear kinds, math.isqrt roots for the quadratic one), and
Constraint.holds decides every point left in their intersection.  A
survivor on the box boundary raises BoxTooSmallError because it signals
the solution set may be truncated.

Constraints carry their justification (an axiom id plus a citation string
quoting the inequality being encoded) so every preset is auditable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    CUSTOM = "Custom"


# registry of named custom predicates; payload args are integers.
# congruence: (a*s + b*t + c) mod m == r
def _congruence(s: int, t: int, a: int, b: int, c: int, m: int, r: int) -> bool:
    if m == 0:
        raise BadParametersError("congruence needs a nonzero modulus")
    return (a * s + b * t + c) % m == r


CUSTOM_PREDICATES: dict[str, Callable[..., bool]] = {
    "congruence": _congruence,
}


def _custom_predicate(name: str) -> Callable[..., bool]:
    try:
        return CUSTOM_PREDICATES[name]
    except KeyError:
        raise BadParametersError(f"unknown custom predicate {name!r}") from None


@dataclass(frozen=True)
class Constraint:
    """One machine-checkable condition on the integer pair (s, t).

    payload, by kind:
      LinearIneq:   (a, b, rel, c)            -> a*s + b*t rel c
      QuadraticIneq:(qss, qst, qtt, a, b, rel, c)
                                               -> quadratic form rel c
      HodgeLower:   (a, b, c2min, d2)          -> a*s + b*t >= hodge_lower(c2min, d2)
      AbsTAtLeast:  (n,)                       -> |t| >= n
      Custom:       (name, arg, arg, ...)      -> registered predicate
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
        if self.kind is ConstraintKind.CUSTOM:
            name, *args = p
            return _custom_predicate(name)(s, t, *args)
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


def custom(name: str, *args: int, axiom_id: str = "", cite: str = "") -> Constraint:
    _custom_predicate(name)
    return Constraint(ConstraintKind.CUSTOM, (name, *args), axiom_id, cite)


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


# ---- the per-s solver ------------------------------------------------------
#
# At a fixed s every constraint is a condition on t alone.  The helpers below
# turn it into a sorted list of disjoint closed intervals inside [-box, box]
# that contains every t satisfying it; the intervals only prune, and
# Constraint.holds decides each point that survives them.

Intervals = list[tuple[int, int]]

_FLIP = {"<=": ">=", "<": ">", "=": "=", ">=": "<=", ">": "<"}


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


def _linear_t(b: int, rel: str, r: int, box: int) -> Intervals:
    """Exactly the t in [-box, box] with b*t rel r."""
    m = abs(b) * box  # b*t ranges over [-m, m] on the box
    lo, hi = {"<=": (-m, r), "<": (-m, r - 1), "=": (r, r),
              ">=": (r, m), ">": (r + 1, m)}[rel]
    if b == 0:
        return [(-box, box)] if lo <= 0 <= hi else []
    if b < 0:
        b, lo, hi = -b, -hi, -lo
    lo, hi = max(-(-lo // b), -box), min(hi // b, box)
    return [(lo, hi)] if lo <= hi else []


def _quadratic_t(qa: int, qb: int, qc: int, rel: str, box: int) -> Intervals:
    """A superset of the t in [-box, box] with qa*t^2 + qb*t + qc rel 0."""
    if qa == 0:
        return _linear_t(qb, rel, -qc, box)
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


def _t_solver(con: Constraint, box: int) -> Callable[[int], Intervals]:
    """s -> the t-intervals of con at s.  Checks the payload once, so a bad
    relation, predicate or Hodge argument is refused whatever the box."""
    p = con.payload
    if con.kind is ConstraintKind.LINEAR:
        a, b, rel, c = p
        _known_rel(rel)
        return lambda s: _linear_t(b, rel, c - a * s, box)
    if con.kind is ConstraintKind.QUADRATIC:
        qss, qst, qtt, a, b, rel, c = p
        _known_rel(rel)
        return lambda s: _quadratic_t(qtt, qst * s + b,
                                      qss * s * s + a * s - c, rel, box)
    if con.kind is ConstraintKind.HODGE_LOWER:
        a, b, c2min, d2 = p
        bound = hodge_lower(c2min, d2)
        return lambda s: _linear_t(b, ">=", bound - a * s, box)
    if con.kind is ConstraintKind.ABS_T_AT_LEAST:
        (n,) = p
        rays = _merged([(-box, -n), (n, box)], box)
        return lambda s: rays
    if con.kind is ConstraintKind.CUSTOM:
        _custom_predicate(p[0])
        whole = [(-box, box)]
        return lambda s: whole
    raise BadParametersError(f"unknown constraint kind {con.kind}")


def enumerate_case(spec: CaseSpec) -> list[tuple[int, int]]:
    """All box points satisfying every constraint, lexicographically sorted.

    Deterministic and serial: for each s, the t-intervals of all constraints
    are intersected and Constraint.holds checks every point left.  Raises
    BoxTooSmallError if any survivor touches the boundary |s| = box or
    |t| = box, since the true solution set might then extend past the box.
    """
    box = spec.box
    solvers = [_t_solver(c, box) for c in spec.constraints]
    out: list[tuple[int, int]] = []
    for s in range(-box, box + 1):
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
