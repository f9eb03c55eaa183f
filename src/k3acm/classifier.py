"""Classifier for initialized aCM line bundles on the quartic surface.

A nontrivial class B with nonempty linear system is initialized aCM
exactly when (B^2, H.B) falls in one of four windows:

    (a) B^2 = -2 and 1 <= H.B <= 3
    (b) B^2 =  0 and 3 <= H.B <= 4
    (c) B^2 =  2 and H.B = 5
    (d) B^2 =  4, H.B = 6, and both |B - H| and |2H - B| are empty.

WINDOWS maps the seven (B^2, H.B) of the windows to the window and the
k >= 1 for which kH - B is again initialized aCM; B -> kH - B is a change
of basis of <H, B> and an involution of the seven keys (``complement``).

Case (d) is the Ulrich window; its two emptiness conditions cannot be
decided by lattice data alone, so the classifier either certifies them
through the effectivity oracle (user assumptions included) or reports
exactly which facts are missing.  Everything is a pure function of
(B^2, H.B) and the assumption set; no geometry is consulted.

``is_initialized_acm`` and ``derived_assumptions`` are therefore cached
per (lattice, class, facts) for the life of the process.  That is safe
because every input is frozen (``Lattice``, ``DivClass``, ``Assumption``
and the facts, taken as a tuple) and hashes by value, the functions are
pure, and ``AcmClassification`` is frozen too, so callers can share it;
``derived_assumptions`` hands out a fresh list on every call.  An input
that raises is not cached, so it raises again on every call.
"""

from __future__ import annotations

import enum
import functools
from collections import namedtuple
from typing import NamedTuple, Sequence

from .errors import (
    BadParametersError,
    ConflictingAssumptionsError,
    NotAcmInputError,
    NotEffectiveCandidateError,
    TrivialClassError,
)
from .lattice import DivClass, Lattice, _Frozen


class AssumptionKind(enum.Enum):
    EFFECTIVE = "Effective"
    EMPTY = "Empty"
    IRREDUCIBLE_CURVE = "IrreducibleCurve"
    ELLIPTIC_PENCIL = "EllipticPencil"
    BASE_POINT_FREE = "BasePointFree"


# kinds that assert the linear system is nonempty: all but Empty
_NONEMPTY_KINDS = frozenset(AssumptionKind) - {AssumptionKind.EMPTY}


class Assumption(_Frozen):
    """A user-supplied geometric fact about one divisor class."""

    __slots__ = _fields = ("subject", "kind", "note")

    def __init__(self, subject: DivClass, kind: AssumptionKind, note: str = ""):
        if not isinstance(subject, DivClass):
            raise BadParametersError(
                f"a fact's subject must be a DivClass, got {subject!r}")
        if not isinstance(kind, AssumptionKind):
            raise BadParametersError(
                f"a fact's kind must be an AssumptionKind, got {kind!r}")
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "note", note)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.subject, self.kind, self.note)
                    == (other.subject, other.kind, other.note))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.subject, self.kind, self.note))


class Effectivity(enum.Enum):
    EFFECTIVE = "Effective"
    EMPTY = "Empty"
    UNKNOWN = "Unknown"


class Verdict(namedtuple("Verdict", "value reason")):
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # for _replace

    def __new__(cls, value: Effectivity, reason: str = ""):
        if value is not Effectivity.UNKNOWN and not reason:
            raise BadParametersError("decided verdicts must carry a reason")
        return tuple.__new__(cls, (value, reason))


class AcmStatus(enum.Enum):
    NOT_ACM = "NotAcm"
    ACM = "Acm"
    ACM_ULRICH = "AcmUlrich"
    NEEDS_ASSUMPTION = "NeedsAssumption"


class AcmClassification(NamedTuple):
    status: AcmStatus
    case_tag: str  # one of "a", "b", "c", "d", "none"
    missing: tuple[Assumption, ...] = ()


def _checked_class(b: DivClass, name: str = "B") -> None:
    """Refuse a class that is not a DivClass, before any cache lookup."""
    if not isinstance(b, DivClass):
        raise BadParametersError(f"{name} must be a DivClass, got {b!r}")


def _checked_facts(assumptions: Sequence[Assumption]
                   ) -> tuple[Assumption, ...]:
    """The facts as a tuple, refusing one that is not an Assumption.

    The entry points call it before any cache lookup, so an unhashable
    fact is refused as bad input, not as the cache's TypeError.
    """
    facts = tuple(assumptions)
    for a in facts:
        if not isinstance(a, Assumption):
            raise BadParametersError(f"a fact must be an Assumption, got {a!r}")
    return facts


def _conflict_check(assumptions: Sequence[Assumption]) -> None:
    """Refuse a class asserted empty and also of a _NONEMPTY_KINDS kind."""
    empty = {a.subject.coords for a in assumptions
             if a.kind is AssumptionKind.EMPTY}
    nonempty = {a.subject.coords for a in assumptions
                if a.kind in _NONEMPTY_KINDS}
    clash = empty & nonempty
    if clash:
        raise ConflictingAssumptionsError(
            f"classes asserted both effective and empty: {sorted(clash)}")


def effectivity(lat: Lattice, d: DivClass,
                assumptions: Sequence[Assumption] = ()) -> Verdict:
    """Decide |D| nonempty / empty / unknown from lattice data + assumptions.

    Decision rules, in order:
      Effective: D = 0; or an assumption asserts a member of |D|; or
                 D^2 >= -2 with positive ample degree (Riemann-Roch).
      Empty:     an Empty assumption; or D != 0 with nonpositive ample
                 degree (an effective class meets an ample class positively).
      Unknown otherwise.

    The Riemann-Roch rule outranks an Empty assumption, so bad assumptions
    can never make a provably effective class come out Empty.
    """
    _checked_class(d, "D")
    assumptions = _checked_facts(assumptions)
    _conflict_check(assumptions)
    if d.is_zero():
        return Verdict(Effectivity.EFFECTIVE, "zero-class")
    for a in assumptions:
        if a.subject == d and a.kind in _NONEMPTY_KINDS:
            return Verdict(Effectivity.EFFECTIVE, f"assumed-{a.kind.value}")
    if lat.self_int(d) >= -2 and lat.deg(d) > 0:
        return Verdict(Effectivity.EFFECTIVE, "riemann-roch-positive-degree")
    for a in assumptions:
        if a.subject == d and a.kind is AssumptionKind.EMPTY:
            return Verdict(Effectivity.EMPTY, "assumed-Empty")
    if lat.deg(d) <= 0:
        return Verdict(Effectivity.EMPTY, "nonpositive-ample-degree")
    return Verdict(Effectivity.UNKNOWN)


WINDOWS: dict[tuple[int, int], tuple[str, int]] = {
    (-2, 1): ("a", 1), (-2, 2): ("a", 1), (-2, 3): ("a", 2),
    (0, 3): ("b", 1), (0, 4): ("b", 2), (2, 5): ("c", 2), (4, 6): ("d", 3)}


def complement(b2: int, hb: int) -> tuple[int, int]:
    """(B'^2, H.B') of B' = kH - B, k from WINDOWS: as H^2 = 4, that is
    (4k^2 - 2k H.B + B^2, 4k - H.B), again a key with the same k."""
    if (b2, hb) not in WINDOWS:
        raise NotAcmInputError(f"({b2}, {hb}) is in no window")
    k = WINDOWS[b2, hb][1]
    return 4 * k * k - 2 * k * hb + b2, 4 * k - hb


def acm_window(b2: int, hb: int) -> str | None:
    """The window "a"-"d" of the module's case table that (B^2, H.B) is in.

    None outside all four.  In windows (a)-(c), H.B >= 1 and B^2 >= -2,
    so Riemann-Roch makes |B| nonempty and the window alone decides that
    B is initialized aCM.  Window (d) still needs |B - H| and |2H - B|
    empty, which only ``is_initialized_acm`` can settle.
    """
    return WINDOWS.get((b2, hb), (None,))[0]


# (lattice, class, facts) results kept per process, for each cached function
_CACHE_SIZE = 1024


def is_initialized_acm(lat: Lattice, b: DivClass,
                       assumptions: Sequence[Assumption] = ()) -> AcmClassification:
    """Classify B against the four-case window (pure in (B^2, H.B)); the
    windows hold for H^2 = 4 only, so any other ample class raises
    BadParametersError."""
    _checked_class(b)
    return _classify(lat, b, _checked_facts(assumptions))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _classify(lat: Lattice, b: DivClass,
              assumptions: tuple[Assumption, ...]) -> AcmClassification:
    if lat.self_int(lat.ample) != 4:
        raise BadParametersError(
            "the aCM windows are written for a quartic, h^2 = 4, but the "
            f"ample class has h^2 = {lat.self_int(lat.ample)}")
    if b.is_zero():
        raise TrivialClassError("the zero class is excluded from classification")
    verdict = effectivity(lat, b, assumptions)
    if verdict.value is Effectivity.EMPTY:
        raise NotEffectiveCandidateError(
            f"|B| is empty ({verdict.reason}); B = {b}")
    case = acm_window(lat.self_int(b), lat.deg(b))
    if case is None:
        return AcmClassification(AcmStatus.NOT_ACM, "none")
    if case != "d":
        return AcmClassification(AcmStatus.ACM, case)
    h = lat.ample
    need = (b - h, 2 * h - b)
    verdicts = [effectivity(lat, q, assumptions) for q in need]
    if any(v.value is Effectivity.EFFECTIVE for v in verdicts):
        # an Ulrich candidate with a section of B-H or 2H-B is not initialized aCM
        return AcmClassification(AcmStatus.NOT_ACM, "none")
    missing = tuple(
        Assumption(q, AssumptionKind.EMPTY,
                   "emptiness needed for the Ulrich window")
        for q, v in zip(need, verdicts)
        if v.value is Effectivity.UNKNOWN)
    if missing:
        return AcmClassification(AcmStatus.NEEDS_ASSUMPTION, "d", missing)
    return AcmClassification(AcmStatus.ACM_ULRICH, "d")


def acm_companions(lat: Lattice, b: DivClass, classification: AcmClassification,
                   assumptions: Sequence[Assumption] = ()) -> list[tuple[DivClass, str]]:
    """Companion aCM classes of a classified B.

    -B is always aCM (but never initialized: its system is empty), and the
    complement kH - B of WINDOWS, listed last, is again *initialized* aCM.
    It is re-classified here and must land back in the table; a failure,
    or a B outside the table, means corrupt input.
    """
    _checked_class(b)
    if classification.status not in (AcmStatus.ACM, AcmStatus.ACM_ULRICH):
        raise NotAcmInputError(
            f"companions need an Acm/AcmUlrich input, got {classification.status.value}")
    _, k = WINDOWS.get((lat.self_int(b), lat.deg(b)), (None, None))
    if k is None:
        raise NotAcmInputError(f"{b} is in no window: not its classification")
    comp = k * lat.ample - b
    redo = is_initialized_acm(lat, comp, assumptions)
    if redo.status not in (AcmStatus.ACM, AcmStatus.ACM_ULRICH):
        raise NotAcmInputError(
            f"companion {comp} failed re-classification "
            f"({redo.status.value}); lattice data is inconsistent")
    return [(-b, "dual-acm-not-initialized"),
            (comp, f"complement-in-{k if k > 1 else ''}h")]


def derived_assumptions(lat: Lattice, b: DivClass,
                        classification: AcmClassification,
                        assumptions: Sequence[Assumption] = ()) -> list[Assumption]:
    """Facts about B and its companions that follow from the case table.

    Used to seed the destabilizing-pair engine: B and its complement
    kH - B are effective; those with square >= 2 are base point free,
    and the square-0 ones have nonempty moving part (recorded as Effective
    plus BasePointFree for squares >= 2 only).
    """
    _checked_class(b)
    return list(_derive(lat, b, classification, _checked_facts(assumptions)))


# typed: a plain tuple equal to an AcmClassification is not a hit
@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def _derive(lat: Lattice, b: DivClass, classification: AcmClassification,
            assumptions: tuple[Assumption, ...]) -> tuple[Assumption, ...]:
    out = list(assumptions)

    def add(subject: DivClass, kind: AssumptionKind, note: str):
        for a in out:
            if a.subject == subject and a.kind is kind:
                return
        out.append(Assumption(subject, kind, note))

    add(b, AssumptionKind.EFFECTIVE, "classified initialized aCM")
    if lat.self_int(b) >= 2:
        add(b, AssumptionKind.BASE_POINT_FREE,
            "initialized aCM with square >= 2 is base point free")
    comp, rule = acm_companions(lat, b, classification, assumptions)[-1]
    add(comp, AssumptionKind.EFFECTIVE, f"companion ({rule})")
    if lat.self_int(comp) >= 2:
        add(comp, AssumptionKind.BASE_POINT_FREE,
            "companion with square >= 2 is base point free")
    return tuple(out)
