"""Integer constraint systems in two unknowns (s, t) and their enumeration.

A CaseSpec packages a lattice, a list of constraints on the coefficients of
C = s*U + t*V for two fixed basis classes U, V, and a search box.
enumerate_case scans one half-plane region: the LinearIneq and HodgeLower
constraints and |t| <= box are half-planes a*s + b*t >= r, eliminating t
from them (Fourier-Motzkin) gives the integer s-range in which any real t
is left, and at each such s they give one integer t-interval.
Constraint.holds decides every point of that region, so the other kinds
only filter.  A survivor on the box boundary raises BoxTooSmallError
because it signals the solution set may be truncated.

Constraints carry their justification (an axiom id plus a citation string
quoting the inequality being encoded) so every preset is auditable.
"""

from __future__ import annotations

import enum
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
        if not _is_int(self.box) or not 16 <= self.box <= 256:
            raise BadParametersError(
                f"box must be between 16 and 256, got {self.box!r}")
        object.__setattr__(self, "constraints", tuple(self.constraints))


# ---- the solver --------------------------------------------------------------
#
# Every LinearIneq and HodgeLower, and |t| <= box, becomes half-planes
# a*s + b*t >= r.  Eliminating t from them bounds s, and at each such s
# they bound t.  The rows only prune: Constraint.holds decides every point
# they leave, so QuadraticIneq and AbsTAtLeast need no rows.

Row = tuple[int, int, int]  # (a, b, r): a*s + b*t >= r

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
    if not isinstance(p, (tuple, list)) or len(p) != size:
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


def _plan(spec: CaseSpec) -> list[Row]:
    """Check every payload; the rows of the LinearIneq and HodgeLower
    constraints and of |t| <= box."""
    box = spec.box
    rows: list[Row] = [(0, 1, -box), (0, -1, -box)]  # |t| <= box
    for con in spec.constraints:
        p = _checked_payload(con)
        if con.kind is ConstraintKind.LINEAR:
            rows += _rows(*p)
        elif con.kind is ConstraintKind.HODGE_LOWER:
            a, b, c2min, d2 = p
            rows += _rows(a, b, ">=", hodge_lower(c2min, d2))
    return rows


def s_range(spec: CaseSpec) -> range:
    """The s-values enumerate_case visits: those of the box at which the
    LinearIneq and HodgeLower rows leave some real t.

    A superset of the s of every solution; the whole box when the spec
    has no such row.
    """
    return feasible_range(_plan(spec), -spec.box, spec.box)


def enumerate_case(spec: CaseSpec) -> list[tuple[int, int]]:
    """All box points satisfying every constraint, lexicographically sorted.

    Deterministic and serial: s runs over s_range(spec), t over the
    interval the LinearIneq and HodgeLower rows leave at that s, and
    Constraint.holds decides every such point.  Raises BoxTooSmallError
    if any survivor touches the boundary |s| = box or |t| = box, since the
    true solution set might then extend past the box.
    """
    box = spec.box
    rows = _plan(spec)
    out: list[tuple[int, int]] = []
    for s in feasible_range(rows, -box, box):
        lo, hi = half_plane_bounds([(b, r - a * s) for a, b, r in rows],
                                   -box, box)
        for t in range(lo, hi + 1):
            if all(c.holds(s, t) for c in spec.constraints):
                out.append((s, t))
    for s, t in out:
        if abs(s) == box or abs(t) == box:
            raise BoxTooSmallError(
                f"survivor ({s}, {t}) touches the box boundary {box}; "
                f"enlarge the box")
    return out
