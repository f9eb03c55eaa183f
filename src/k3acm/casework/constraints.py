"""Integer constraint systems in two unknowns (s, t) and their enumeration.

A CaseSpec packages a lattice, a list of constraints on the coefficients of
C = s*U + t*V for two fixed basis classes U, V, and a search box.
enumerate_case walks every integer point of the box and keeps those
satisfying all constraints; a survivor on the box boundary raises
BoxTooSmallError because it signals the solution set may be truncated.

Constraints carry their justification (an axiom id plus a citation string
quoting the inequality being encoded) so every preset is auditable.
"""

from __future__ import annotations

import enum
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


def check_rel(rel: str, lhs: int, rhs: int) -> bool:
    try:
        return _REL[rel](lhs, rhs)
    except KeyError:
        raise BadParametersError(f"unknown relation {rel!r}") from None


class ConstraintKind(enum.Enum):
    LINEAR = "LinearIneq"
    QUADRATIC = "QuadraticIneq"
    HODGE_LOWER = "HodgeLower"
    ABS_T_AT_LEAST = "AbsTAtLeast"
    CUSTOM = "Custom"


# registry of named custom predicates; payload args are integers.
# congruence: (a*s + b*t + c) mod m == r
def _congruence(s: int, t: int, a: int, b: int, c: int, m: int, r: int) -> bool:
    return (a * s + b * t + c) % m == r


CUSTOM_PREDICATES: dict[str, Callable[..., bool]] = {
    "congruence": _congruence,
}


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
            try:
                fn = CUSTOM_PREDICATES[name]
            except KeyError:
                raise BadParametersError(f"unknown custom predicate {name!r}") from None
            return fn(s, t, *args)
        raise BadParametersError(f"unknown constraint kind {self.kind}")


def linear(a: int, b: int, rel: str, c: int, axiom_id: str = "", cite: str = "") -> Constraint:
    if rel not in _REL:
        raise BadParametersError(f"unknown relation {rel!r}")
    return Constraint(ConstraintKind.LINEAR, (a, b, rel, c), axiom_id, cite)


def quadratic(qss: int, qst: int, qtt: int, a: int, b: int, rel: str, c: int,
              axiom_id: str = "", cite: str = "") -> Constraint:
    if rel not in _REL:
        raise BadParametersError(f"unknown relation {rel!r}")
    return Constraint(ConstraintKind.QUADRATIC, (qss, qst, qtt, a, b, rel, c),
                      axiom_id, cite)


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
    if name not in CUSTOM_PREDICATES:
        raise BadParametersError(f"unknown custom predicate {name!r}")
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


def enumerate_case(spec: CaseSpec) -> list[tuple[int, int]]:
    """All box points satisfying every constraint, lexicographically sorted.

    Deterministic serial sweep.  Raises BoxTooSmallError if any survivor
    touches the boundary |s| = box or |t| = box, since the true solution
    set might then extend past the box.
    """
    box = spec.box
    out: list[tuple[int, int]] = []
    for s in range(-box, box + 1):
        for t in range(-box, box + 1):
            if all(c.holds(s, t) for c in spec.constraints):
                out.append((s, t))
    for s, t in out:
        if abs(s) == box or abs(t) == box:
            raise BoxTooSmallError(
                f"survivor ({s}, {t}) touches the box boundary {box}; "
                f"enlarge the box")
    return sorted(out)
