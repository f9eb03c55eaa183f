"""Integer constraint systems in two unknowns (s, t) and their enumeration.

A CaseSpec packages a lattice, a list of constraints on the coefficients of
C = s*U + t*V for two fixed basis classes U, V, and a search box.  Every
constraint has one form, an integer polynomial of degree at most 2:

    qss*s^2 + qst*s*t + qtt*t^2 + a*s + b*t  rel  c

scan walks one half-plane region column by column, narrowing each
column by every row through half_plane_bounds; enumerate_case and the
destabilizing engine's profile sweep run on it.  enumerate_case plans
the columns of |t| <= box and the linear constraints, and the holds
order, once per (system, box) and process; Constraint.holds decides
every point of every column on every call, quadratic constraints first,
as they reject most.  A survivor on the box boundary raises
BoxTooSmallError because it signals the solution set may be truncated.

Constraints carry their justification (an axiom id plus a citation string
quoting the inequality being encoded) so every preset is auditable.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from typing import Callable, Iterable, Iterator

from ..config import _is_int
from ..errors import BadParametersError, BoxTooSmallError
from ..lattice import Lattice, repr_text

_REL: dict[str, Callable[[int, int], bool]] = {
    "<=": operator.le, "<": operator.lt, "=": operator.eq,
    ">=": operator.ge, ">": operator.gt,
}


def _is_rel(rel) -> bool:
    """Whether rel names a relation; an unhashable rel is simply not one."""
    return isinstance(rel, str) and rel in _REL


def check_rel(rel: str, lhs: int, rhs: int) -> bool:
    """lhs rel rhs; a rel that _is_rel refuses is bad input."""
    if isinstance(rel, str):
        compare = _REL.get(rel)
        if compare is not None:
            return compare(lhs, rhs)
    raise BadParametersError(f"unknown relation {repr_text(rel)}")


class Constraint(namedtuple("Constraint", "coeffs rel c axiom_id cite")):
    """One machine-checkable condition on the integer pair (s, t):

        qss*s^2 + qst*s*t + qtt*t^2 + a*s + b*t rel c,

    coeffs = (qss, qst, qtt, a, b), then axiom_id and cite.  Checked when
    it is built, so every Constraint has five integer coefficients, an
    integer c and a known rel.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # for _replace

    def __new__(cls, coeffs: tuple[int, int, int, int, int], rel: str,
                c: int, axiom_id: str = "", cite: str = ""):
        if (not isinstance(coeffs, (tuple, list)) or len(coeffs) != 5
                or not all(map(_is_int, coeffs)) or not _is_int(c)):
            raise BadParametersError(
                f"a constraint needs 5 integer coefficients and an integer "
                f"bound, got {repr_text(coeffs)} and {repr_text(c)}")
        if not _is_rel(rel):
            raise BadParametersError(f"unknown relation {repr_text(rel)}")
        return tuple.__new__(cls, (tuple(coeffs), rel, c, axiom_id, cite))

    def holds(self, s: int, t: int) -> bool:
        qss, qst, qtt, a, b = self.coeffs
        return _REL[self.rel]((qss * s + qst * t + a) * s + (qtt * t + b) * t,
                              self.c)


def linear(a: int, b: int, rel: str, c: int, axiom_id: str = "", cite: str = "") -> Constraint:
    return Constraint((0, 0, 0, a, b), rel, c, axiom_id, cite)


def quadratic(qss: int, qst: int, qtt: int, a: int, b: int, rel: str, c: int,
              axiom_id: str = "", cite: str = "") -> Constraint:
    return Constraint((qss, qst, qtt, a, b), rel, c, axiom_id, cite)


def abs_t_at_least(n: int, axiom_id: str = "", cite: str = "") -> Constraint:
    """|t| >= n as t^2 >= n^2, or as t^2 >= 0 (true everywhere) for n <= 0;
    a non-integer n is passed on for Constraint to refuse."""
    return Constraint((0, 0, 1, 0, 0), ">=",
                      max(n, 0) ** 2 if _is_int(n) else n, axiom_id, cite)


class CaseSpec(namedtuple("CaseSpec", "lattice constraints box tag")):
    """A bounded integer search: which (s, t) satisfy every constraint?

    The constraints have their coefficients already expressed in terms of
    pairings with the classes U and V multiplied by s and t.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # for _replace

    def __new__(cls, lattice: Lattice, constraints: tuple[Constraint, ...],
                box: int = 32, tag: str = ""):
        if not _is_int(box) or not 16 <= box <= 256:
            raise BadParametersError(
                f"box must be between 16 and 256, got {repr_text(box)}")
        if (not isinstance(constraints, (tuple, list))
                or not all(isinstance(con, Constraint) for con in constraints)):
            raise BadParametersError(
                f"constraints must be a sequence of Constraints, got "
                f"{repr_text(constraints)}")
        return tuple.__new__(cls, (lattice, tuple(constraints), box, tag))


# ---- the solver (see the module docstring) ----------------------------------

Row = tuple[int, int, int]  # (a, b, r): a*x + b*y >= r, here (x, y) = (s, t)


def half_plane_bounds(rows: Iterable[Row], lo: int, hi: int,
                      x: int) -> tuple[int, int]:
    """The integers y in [lo, hi] with a*x + b*y >= r for every row
    (a, b, r), as (lo, hi); lo > hi when none is left.  Plain comparisons
    instead of max and min: scan calls it per column."""
    for a, b, r in rows:
        r -= a * x
        if b > 0:
            y = -(-r // b)  # ceil(r / b)
            if y > lo:
                lo = y
        elif b < 0:
            y = r // b  # floor(r / b)
            if y < hi:
                hi = y
        elif r > 0:  # 0 >= r > 0 holds nowhere
            return lo, lo - 1
    return lo, hi


def scan(rows: list[Row], lo: int, hi: int,
         column: Callable[[int], tuple[int, int]]
         ) -> Iterator[tuple[int, int, int]]:
    """Each nonempty column (x, y_lo, y_hi), lo <= x <= hi, of the integer
    y in column(x) with a*x + b*y >= r for each row (a, b, r): every x is
    narrowed by all rows, and a row without y empties a column it fails."""
    for x in range(lo, hi + 1):
        y_lo, y_hi = half_plane_bounds(rows, *column(x), x)
        if y_lo <= y_hi:
            yield x, y_lo, y_hi


@functools.lru_cache(maxsize=64)
def _case_plan(system: tuple, box: int) -> tuple[tuple, tuple]:
    """(holds order, columns) of a system of (coeffs, rel, c) and a box:
    the positions of the quadratic constraints then of the rest, and what
    scan leaves of the 2*box + 1 columns |t| <= box under the linear rows
    (a strict relation tightened by one, = as two rows).  At most 513
    columns (box 256, no linear row), about 60 KB; 64 kept, under 4 MB."""
    rows: list[Row] = []
    for (qss, qst, qtt, a, b), rel, c in system:
        if not (qss or qst or qtt):
            rows += {">=": [(a, b, c)], ">": [(a, b, c + 1)],
                     "<=": [(-a, -b, -c)], "<": [(-a, -b, 1 - c)],
                     "=": [(a, b, c), (-a, -b, -c)]}[rel]
    order = sorted(range(len(system)), key=lambda i: not any(system[i][0][:3]))
    return tuple(order), tuple(scan(rows, -box, box, lambda s: (-box, box)))


def enumerate_case(spec: CaseSpec) -> list[tuple[int, int]]:
    """All box points satisfying every constraint, lexicographically sorted.

    The plan of each constraint's (coeffs, rel, c) and the box gives the
    columns; holds decides each of their points on every call.  Raises
    BoxTooSmallError at the first survivor with |s| = box or |t| = box:
    the true solution set might extend past it.
    """
    box, cons = spec.box, spec.constraints
    order, columns = _case_plan(tuple(con[:3] for con in cons), box)
    cons = [cons[i] for i in order]
    out = []
    for s, t_lo, t_hi in columns:
        for t in range(t_lo, t_hi + 1):
            for con in cons:
                if not con.holds(s, t):
                    break
            else:
                if abs(s) == box or abs(t) == box:
                    raise BoxTooSmallError(
                        f"survivor ({s}, {t}) touches the box boundary "
                        f"{box}; enlarge the box")
                out.append((s, t))
    return out
