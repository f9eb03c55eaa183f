"""Integer constraint systems in two unknowns (s, t) and their enumeration.

A CaseSpec packages a lattice, a list of constraints on the coefficients of
C = s*U + t*V for two fixed basis classes U, V, and a search box.  Every
constraint has one form, an integer polynomial of degree at most 2:

    qss*s^2 + qst*s*t + qtt*t^2 + a*s + b*t  rel  c

scan walks one half-plane region: eliminating y from rows a*x + b*y >= r
(Fourier-Motzkin) gives the integer x-range in which any real y is left,
and at each such x the rows with a y-term narrow a given y-interval, both
through half_plane_bounds; enumerate_case and the destabilizing engine's
profile sweep run on it.  enumerate_case takes the constraints without a
quadratic part and |t| <= box as rows, and Constraint.holds decides every
point of that region, asking the quadratic constraints first since they
reject most points.  A survivor on the box boundary raises
BoxTooSmallError because it signals the solution set may be truncated.

Constraints carry their justification (an axiom id plus a citation string
quoting the inequality being encoded) so every preset is auditable.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from typing import Callable, Iterable, Iterator

from ..config import _is_int
from ..errors import BadParametersError, BoxTooSmallError
from ..lattice import Lattice

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
    raise BadParametersError(f"unknown relation {rel!r}")


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
                f"bound, got {coeffs!r} and {c!r}")
        if not _is_rel(rel):
            raise BadParametersError(f"unknown relation {rel!r}")
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
                f"box must be between 16 and 256, got {box!r}")
        if (not isinstance(constraints, (tuple, list))
                or not all(isinstance(con, Constraint) for con in constraints)):
            raise BadParametersError(
                f"constraints must be a sequence of Constraints, got "
                f"{constraints!r}")
        return tuple.__new__(cls, (lattice, tuple(constraints), box, tag))


# ---- the solver (see the module docstring) ----------------------------------

Row = tuple[int, int, int]  # (a, b, r): a*x + b*y >= r, here (x, y) = (s, t)


def half_plane_bounds(rows: Iterable[Row], lo: int, hi: int,
                      x: int = 0) -> tuple[int, int]:
    """The integers y in [lo, hi] with a*x + b*y >= r for every row
    (a, b, r), as (lo, hi); lo > hi when none is left.  feasible_range
    passes its rows in s alone as (0, coef, r), scan each column's x.
    Plain comparisons instead of max and min: scan calls it per column."""
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


def feasible_range(rows: list[Row], lo: int, hi: int) -> range:
    """The integer s in [lo, hi] at which the rows leave some real t.

    t is eliminated Fourier-Motzkin style: each pair of a lower and an
    upper bound on t gives one row coef*s >= r, and so does each row
    without t; half_plane_bounds reads them as rows (0, coef, r).
    """
    lows = [row for row in rows if row[1] > 0]
    highs = [row for row in rows if row[1] < 0]
    s_rows = [(0, a, r) for a, b, r in rows if b == 0]
    s_rows += [(0, b1 * a2 - b2 * a1, b1 * r2 - b2 * r1)
               for a1, b1, r1 in lows for a2, b2, r2 in highs]
    lo, hi = half_plane_bounds(s_rows, lo, hi)
    return range(lo, hi + 1)


def scan(rows: list[Row], lo: int, hi: int,
         column: Callable[[int], tuple[int, int]]
         ) -> Iterator[tuple[int, int]]:
    """Every integer (x, y) with lo <= x <= hi, y_lo <= y <= y_hi for
    (y_lo, y_hi) = column(x) and a*x + b*y >= r for each row (a, b, r),
    in x-then-y order.  Only the rows with b != 0 narrow a column: the
    rest hold at every x that feasible_range leaves."""
    y_rows = [row for row in rows if row[1]]
    for x in feasible_range(rows, lo, hi):
        y_lo, y_hi = half_plane_bounds(y_rows, *column(x), x)
        for y in range(y_lo, y_hi + 1):
            yield x, y


def _plan(spec: CaseSpec) -> list[Row]:
    """The rows of the constraints without a quadratic part and of
    |t| <= box: a strict relation is tightened by one, = is two rows."""
    box = spec.box
    rows: list[Row] = [(0, 1, -box), (0, -1, -box)]  # |t| <= box
    for con in spec.constraints:
        qss, qst, qtt, a, b = con.coeffs
        if not (qss or qst or qtt):
            c = con.c
            rows += {">=": [(a, b, c)], ">": [(a, b, c + 1)],
                     "<=": [(-a, -b, -c)], "<": [(-a, -b, 1 - c)],
                     "=": [(a, b, c), (-a, -b, -c)]}[con.rel]
    return rows


def enumerate_case(spec: CaseSpec) -> list[tuple[int, int]]:
    """All box points satisfying every constraint, lexicographically sorted.

    Deterministic and serial: scan runs s over the box values at which
    the rows of the constraints without a quadratic part leave some real t
    (the whole box when there is no such row), t over the interval those
    rows leave at that s, and Constraint.holds decides every such point,
    asking first the constraints with a quadratic part, which reject most.
    Raises BoxTooSmallError at the first survivor on the boundary
    |s| = box or |t| = box: the true solution set might extend past it.
    """
    box = spec.box
    cons = sorted(spec.constraints, key=lambda con: not any(con.coeffs[:3]))
    out = []
    for s, t in scan(_plan(spec), -box, box, lambda s: (-box, box)):
        for con in cons:
            if not con.holds(s, t):
                break
        else:
            if abs(s) == box or abs(t) == box:
                raise BoxTooSmallError(
                    f"survivor ({s}, {t}) touches the box boundary {box}; "
                    f"enlarge the box")
            out.append((s, t))
    return out
