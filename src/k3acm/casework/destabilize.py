"""Elimination of destabilizing line-bundle pairs.

A non-simple rank-2 pencil bundle E with c1 = C, c2 = d sits in

    0 -> M -> E -> N (x) J_Z' -> 0,

with M, N movable, M + N = C, M.N + len(Z') = d and (after swapping)
M^2 >= N^2.  Every rule returns a verdict (outcome, claims, note) or
None, ``_record`` builds each record from the verdict that settled it,
and ``evaluate`` checks each claim as it is made.  QUERY_RULES maps the
outcome of each rule that settles a whole query, the self-dual twist and
the line restriction, to (rule, how a script it settles reads, premises
as AxiomUse); outside gonality mode its rows run in order before any
sweep, and casebook reads each row's how and premises from it.  The sweep
runs over n^2 = N^2 and each branch's profiles (h.N, B.N), and kills a
profile in one pass over the known classes planned once per (lattice,
facts, C) (``_plan``), then with ``_kill_fiber`` when n^2 = 0, which
tests N against the plan's square-0 known class P with C = h + 2P.

Modes:
  "exact"     the pencil-trick sequence: Z' is empty, M.N = d,
              h^1(M) = h^1(N) = 0, M - N is effective or zero, and E is
              an indecomposable initialized aCM bundle;
  "general"   the plain non-simple sequence: len(Z') >= 0, M.N <= d, E
              indecomposable initialized aCM;
  "gonality"  the pencil-degree floor: suppose a pencil of degree < d
              existed and force M.N >= d in every branch (E here is a
              pencil bundle with no indecomposability available).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

from ..classifier import (_CACHE_SIZE, _NONEMPTY_KINDS, AcmStatus,
                          Assumption, AssumptionKind, _checked_class,
                          _checked_facts, _conflict_check,
                          derived_assumptions, is_initialized_acm)
from ..config import _is_int
from ..errors import (BadParametersError, ConflictingAssumptionsError,
                      DimensionMismatchError, EngineError,
                      NotEffectiveCandidateError, PreconditionError,
                      TrivialClassError, WorkbenchError)
from ..invariants import genus_of, hodge_lower, lm_acm_bounds
from ..lattice import DivClass, Lattice, repr_text
from .constraints import Row, check_rel, scan
from .presets import _B, _H, presentation
from .scripts import (ArithClaim, AxiomUse, add_expr, c2_twist_expr,
                      chi_bundle_expr, deg_of, evaluate, mul_expr, neg_expr,
                      pair_of, self_of, step_to_json, sub_expr)

MODES = ("exact", "general", "gonality")


class PairElimination(NamedTuple):
    """One eliminated configuration of the destabilizing pair.

    profile is (h.N, B.N) for candidate records and None for the query
    and branch records.  ``_record`` builds each as a bare tuple.
    """

    c: DivClass
    d: int
    n_square: int
    len_zprime: int
    outcome: str
    trace: tuple[ArithClaim, ...]
    profile: tuple[int, int] | None = None
    note: str = ""

    @property
    def resolved(self) -> bool:
        return self.outcome != "unresolved"


class _KnownClass(NamedTuple):
    """An effective class known on X and what the rules may assume of it."""

    cls: DivClass
    square: int
    profile: tuple[int, int]  # (h.P, B.P)
    movable: bool             # h^0 >= 2, moving part nonempty
    bpf_positive: bool        # base point free, square >= 2
    acm: bool                 # h^1 vanishes in every twist

    def floor(self, n2: int) -> int:
        """The least P.N for a base-point-free, hence nef, N with N^2 = n2."""
        if n2 == 0:
            # N is a fiber multiple: base-point-free positive classes meet
            # it at least twice
            return 2 if self.bpf_positive else 0
        if self.square > 0:
            return hodge_lower(self.square, n2)
        # square-0 movable classes meet the 2-connected members of |N| in >= 2
        return 2 if self.movable and self.square == 0 else 0


_Known = tuple[_KnownClass, ...]  # the known-class table, by coordinates
_Rows = tuple[tuple[DivClass, int, int, int, int, str], ...]


class _Plan(NamedTuple):
    """What a sweep reads that depends on (lat, C, facts) alone, C's
    special classes split, half, line, fiber and multiples included, and
    the rows of the known classes that the class-like rules read."""

    known: _Known       # the fact classes and C, by coordinates
    curve: _KnownClass  # C's entry
    multiples: tuple[tuple[int, _KnownClass], ...]  # (k, P): C = k*P, P movable
    # per even n^2 <= C^2/4: the least h.N and P.N >= P.floor(n^2) for each P
    columns: tuple[tuple[int, tuple[Row, ...]], ...]
    split: DivClass | None  # C/2 when C is even
    half: DivClass | None   # K = C/2 with K - h zero or asserted nonempty
    line: DivClass | None   # L: C = 3h - 2L, L a known line
    fiber: DivClass | None  # P: C = h + 2P, P a known class of square 0
    rows: _Rows      # (P, p1, p2, P^2, h.P, str(P)) per known class, in order
    bpf_rows: _Rows  # the rows of the base-point-free positive classes
    acm_rows: _Rows  # the rows of the aCM classes


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _plan(lat: Lattice, c: DivClass, facts: tuple[Assumption, ...]) -> _Plan:
    """The known-class table of (lat, facts) plus C, and the sweep's floors.

    The facts are checked for conflicts first, as a classification of any
    class would; a conflict raises on every call, as nothing is cached
    then.  Each class P the facts assert nonempty (_NONEMPTY_KINDS), and
    C, which is always base point free (an irreducible member with
    C^2 >= 4), is read off the Gram rows: (h.P, B.P) and P^2 from them;
    its acm flag is whether ``is_initialized_acm`` finds P initialized aCM
    under the facts (False when |P| is empty).  The zero class, whose
    section says nothing of N, is left out; a nonzero one of ample degree
    <= 0 raises ConflictingAssumptionsError (AX-AMPLE-POSITIVE).  Every
    class C fixes is found here, once: split, half, line (degree 1,
    square -2), fiber (square 0) and multiples (C = kP, k = 2, 3, 4, P
    movable), as _Plan's fields say, and so is each known class's row,
    which ``_kill_classlike`` reads on every profile.  The plan is a pure
    function of the frozen (lat, C, facts), so every (d, mode) query on
    it shares it; callers check C first.  The gate fixes h^2 = 4.
    """
    _conflict_check(facts)
    bpf = {a.subject.coords for a in facts
           if a.kind is AssumptionKind.BASE_POINT_FREE} | {c.coords}
    pencil = {a.subject.coords for a in facts
              if a.kind is AssumptionKind.ELLIPTIC_PENCIL}
    nonempty = {a.subject.coords for a in facts
                if a.kind in _NONEMPTY_KINDS}
    known = []
    for coords in sorted(nonempty | {c.coords}):
        p = DivClass(coords)
        profile = _profile_of(lat, p)
        if p.is_zero():
            continue
        if profile[0] <= 0:
            raise ConflictingAssumptionsError(
                f"class {p} of ample degree {profile[0]} <= 0 asserted "
                "nonempty or base point free (AX-AMPLE-POSITIVE)")
        sq = _pairing(p, *profile)
        free = coords in bpf
        try:
            acm = is_initialized_acm(lat, p, facts).status in (
                AcmStatus.ACM, AcmStatus.ACM_ULRICH)
        except (TrivialClassError, NotEffectiveCandidateError):
            acm = False
        known.append(_KnownClass(
            p, sq, profile, movable=free or coords in pencil or sq == 0,
            bpf_positive=free and sq >= 2, acm=acm))
    curve = next(p for p in known if p.cls == c)
    multiples = tuple((k, p) for p in known if p.movable
                      for k in (2, 3, 4) if p.cls * k == c)
    columns = tuple(
        (3 if n2 == 0 else max(3, hodge_lower(4, n2)),
         tuple((*p.cls.coords, p.floor(n2)) for p in known))
        for n2 in range(0, curve.square // 4 + 1, 2))
    split = DivClass(co // 2 for co in c.coords)
    split = split if split * 2 == c else None
    half = split if split is not None and (
        split == _H or (split - _H).coords in nonempty) else None
    line = next((p.cls for p in known if p.profile[0] == 1
                 and p.square == -2 and _H * 3 - p.cls * 2 == c), None)
    fiber = next((p.cls for p in known
                  if p.square == 0 and _H + p.cls * 2 == c), None)
    rows = [(p.cls, *p.cls.coords, p.square, p.profile[0], str(p.cls))
            for p in known]
    return _Plan(tuple(known), curve, multiples, columns, split, half, line,
                 fiber, tuple(rows),
                 tuple(r for r, p in zip(rows, known) if p.bpf_positive),
                 tuple(r for r, p in zip(rows, known) if p.acm))


def _claim(lat: Lattice, label: str, lhs, rel: str, rhs, cite: str = "",
           contradicts: str = "") -> ArithClaim:
    claim = ArithClaim(label, lhs, rel, rhs, cite, contradicts)
    if not check_rel(rel, evaluate(lhs, lat), evaluate(rhs, lat)):
        raise EngineError(f"engine produced a false claim: {label}")
    return claim


def _pairing(p: DivClass, x: int, y: int) -> int:
    """P.N from the profile (h.N, B.N) = (x, y), for P = p1*h + p2*B."""
    return p.coords[0] * x + p.coords[1] * y


def _profile_of(lat: Lattice, p: DivClass) -> tuple[int, int]:
    """(h.P, B.P), read off the Gram rows of the (h, B) presentation."""
    if len(p.coords) != 2:
        raise DimensionMismatchError(
            f"class {p} has length {len(p.coords)} on a rank-2 lattice")
    (hh, hb), (_, b2) = lat.gram
    p1, p2 = p.coords
    return hh * p1 + hb * p2, hb * p1 + b2 * p2


def engine_assumptions(lat: Lattice, assumptions: Sequence[Assumption] = ()
                       ) -> tuple[Assumption, ...]:
    """The facts the sweep works from, as ``k3acm destabilize`` derives them.

    On a quartic presentation <h, B>, an initialized aCM class B adds what
    derived_assumptions records about B and its companions; otherwise, or
    when B does not classify, the given assumptions stand alone.
    """
    try:
        presentation(lat)
        cls = is_initialized_acm(lat, _B, assumptions)
        if cls.status in (AcmStatus.ACM, AcmStatus.ACM_ULRICH):
            return tuple(derived_assumptions(lat, _B, cls, assumptions))
    except WorkbenchError:
        pass
    return tuple(assumptions)


def enumerate_destabilizing(lat: Lattice, c: DivClass, d: int,
                            assumptions: Sequence[Assumption] = (),
                            mode: str = "exact") -> list[PairElimination]:
    """Sweep every destabilizing-pair branch for (C, d) and kill each one.

    Needs h^2 = 4: a lattice that is not a quartic presentation <h, B>
    (``presets.presentation``) raises BadParametersError, as the Hodge
    windows are written for h^2 = 4.  Needs a hyperbolic one,
    (h.B)^2 > 4 B^2 (AX-HODGE-INDEX), C^2 >= 4 and (C, d) in the c2
    window: 1 <= h.C <= 12 (AX-SECTIONS-BOUND) and 1 <= d <= g + 7 - h.C,
    else PreconditionError, which also bounds the work of one sweep.
    These checks and the facts' types run on every call, before the plan
    of (lat, C, facts) is looked up or built; conflicting facts then raise
    ConflictingAssumptionsError.  Outside gonality mode the QUERY_RULES
    rows run first, in order, and the first that fires is the one record.
    Otherwise returns one record per (n^2, profile) candidate plus a
    window-infeasible record for each empty branch and a closing beyond-cap
    record; "unresolved" marks a candidate no rule covers.  The records and
    their claims are built anew on every call.

    The rules are incomplete in every mode.  Over the shipped quartic
    configs with C = s h + t B, |s| <= 4, |t| <= 3, C^2 >= 4, h.C > 0 and
    max(1, g - 5) <= d <= g + 7 - h.C (210 queries per mode), the twist
    fires on 36 + 36 queries (exact + general), the line restriction on
    6 + 6, and a branch stays open on 40 queries in exact mode, 81 in
    general mode and 89 in gonality mode; the shipped scripts use only
    queries that close, and refuse to build otherwise.  The sweep presumes
    a non-simple bundle: on the 131 queries it closes with rho(g, 1, d) >= 0
    (d - 1 in gonality mode), ALL BRANCHES RESOLVED shows only that no
    destabilizing pair exists, not that no bundle exists, and the scripts
    refuse them too; the query rules need none, and 36 + 4 of theirs have
    rho >= 0.
    """
    if mode not in MODES:
        raise BadParametersError(f"unknown mode {repr_text(mode)}; choose from {MODES}")
    if not _is_int(d):
        raise BadParametersError(f"d must be an int, got {repr_text(d)}")
    _checked_class(c, "C")
    b2, hb = presentation(lat)
    if hb * hb <= 4 * b2:
        raise PreconditionError(
            f"(h.B)^2 = {repr_text(hb * hb)} <= 4 B^2 = {repr_text(4 * b2)}: "
            "the presentation is not hyperbolic (AX-HODGE-INDEX)")
    hc, bc = _profile_of(lat, c)
    c2 = _pairing(c, hc, bc)
    if c2 < 4:
        raise PreconditionError(f"C^2 = {repr_text(c2)} < 4: the curve class "
                                "must have genus at least 3")
    d_hi = lm_acm_bounds(genus_of(c2), hc).d_max
    if not (1 <= hc <= 12 and 1 <= d <= d_hi):
        raise PreconditionError(
            f"h.C = {repr_text(hc)}, d = {repr_text(d)} lies outside the c2 "
            "window: the sweep needs 1 <= h.C <= 12 (AX-SECTIONS-BOUND) and "
            f"1 <= d <= g + 7 - h.C = {repr_text(d_hi)}")
    plan = _plan(lat, c, _checked_facts(assumptions))
    for rule, _, _ in QUERY_RULES.values() if mode != "gonality" else ():
        verdict = rule(lat, plan, d)
        if verdict is not None:
            return [_record(c, d, 0, verdict)]
    out: list[PairElimination] = []
    for n2 in range(0, c2 // 4 + 1, 2):
        hits, window = _profiles(lat, plan, d, n2, mode)
        out.extend(_kill_profile(lat, plan, d, n2, mode, x, y, cn)
                   for x, y, cn in hits)
        if not hits:
            out.append(_record(c, d, n2, _infeasible(lat, plan, n2, *window)))
    n2 += 2  # the least even square beyond the cap C^2 // 4
    return out + [_record(c, d, n2, ("beyond-hodge-cap", (_claim(
        lat, "four times N^2 exceeds C^2", 4 * n2, ">", self_of(c),
        cite=f"M^2 >= N^2 >= {n2} and M.N >= N^2 give "
             f"C^2 = (M + N)^2 >= 4 N^2 = {4 * n2}",
        contradicts="the Hodge-index cap on the square of N"),),
        "all larger squares at once"))]


_Verdict = tuple[str, Sequence[ArithClaim], str]  # (outcome, claims, note)


def _record(c: DivClass, d: int, n2: int, verdict: _Verdict,
            profile: tuple[int, int] | None = None,
            len_zprime: int = 0) -> PairElimination:
    """The one place a record is built, from the verdict that settled it."""
    outcome, claims, note = verdict
    # one C call: the generated __new__ is a Python function
    return tuple.__new__(PairElimination, (
        c, d, n2, len_zprime, outcome, tuple(claims), profile, note))


def _self_dual_twist(lat: Lattice, plan: _Plan, d: int) -> _Verdict | None:
    """C = 2K, K - h zero or effective: E(-K) is self-dual with no
    sections, so h^1 = -chi = d - K^2 - 4 < 0 while d < K^2 + 4."""
    c, k, k2 = plan.curve.cls, plan.half, plan.curve.square // 4
    if k is None or d >= k2 + 4:
        return None
    c2 = c2_twist_expr(d, c, -k)
    chi = chi_bundle_expr(DivClass((0, 0)), c2)
    trace = (
        _claim(lat, "the twisted first Chern class squares to zero",
               add_expr(self_of(c), mul_expr(4, self_of(k)),
                        mul_expr(-4, pair_of(c, k))), "=", 0,
               cite=f"(C - 2K)^2 with K = {k} the half class"),
        _claim(lat, "second Chern class of the twist", c2, "=", d - k2,
               cite=f"c2(E(-K)) = d - C.K + K^2 = {d} - {k2}"),
        _claim(lat, "Euler characteristic of the twist", chi, "=",
               4 - d + k2),
        _claim(lat, "h^1 of the twist is negative", neg_expr(chi), "<", 0,
               cite="h^1 = h^0 + h^2 - chi = -chi",
               contradicts="AX-H1NONNEG: h^1 is a dimension"))
    return "self-dual-twist", trace, f"K - h = {k - _H}"


def _line_restriction(lat: Lattice, plan: _Plan, d: int) -> _Verdict | None:
    """C = 3h - 2L, L a line: F = h - L has square 0 and degree 3, so it
    is effective (AX-VA-DEGREE3).  c1(E(-h - F)) = -h has degree -1 on
    L = P^1 (AX-AMPLE-DEGREE1-IRREDUCIBLE), so a summand of the restriction
    has sections (AX-P1-SPLIT, AX-P1-SECTIONS).  One lifts, as
    h^1(E(-h - F - L)) = h^1(E(-2h)) = 0 (AX-ACM-VANISH, AX-LES), into
    E(-h - F), inside E(-h) as F is effective: against AX-INITIALIZED-CRIT.
    No d, non-simplicity or profile sweep is used."""
    c, line = plan.curve.cls, plan.line
    if line is None:
        return None
    f = _H - line
    e = sub_expr(pair_of(c, line), mul_expr(2, pair_of(_H + f, line)))
    trace = (
        _claim(lat, "the line has degree 1", deg_of(line), "=", 1),
        _claim(lat, "residual pencil squares to zero", self_of(f), "=", 0),
        _claim(lat, "residual pencil has degree 3", deg_of(f), "=", 3),
        _claim(lat, "degree of the twisted bundle on the line", e, "=", -1,
               cite="twisting by -(h + F) shifts c1 to C - 2(h + F) = -h"),
        _claim(lat, "one splitting summand is always effective",
               add_expr(e, 1), ">=", 0,
               cite="O(a) + O(e - a) has a summand of degree >= ceil(e/2), "
                    "and e + 1 >= 0 makes that >= 0, so the restricted "
                    "twist always has sections on the line",
               contradicts="AX-INITIALIZED-CRIT through AX-P1-SECTIONS and "
                           "AX-LES: a section on the line lifts to a section "
                           "of a negative twist of the initialized bundle"))
    return "line-restriction", trace, f"L = {line}"


# outcome -> (rule, how a script it settles reads, the premises it cites)
# for the rules that settle a whole query; 2K = 3h - 2L never, so one fires
QUERY_RULES = {
    "self-dual-twist": (
        _self_dual_twist, "through the self-dual twist with negative h^1", (
            AxiomUse("AX-TWIST-MONO",
                     note="C = 2K with K - h zero or effective, so the K-twist "
                          "has no sections once the h-twist has none"),
            AxiomUse("AX-RK2-SELFDUAL",
                     note="c1 of the twist vanishes: the twisted bundle is "
                          "self-dual, so h^2 = h^0 = 0 by AX-SERRE"))),
    "line-restriction": (
        _line_restriction, "by restricting the twisted bundle to a line", (
            AxiomUse("AX-VA-DEGREE3", note="h - L moves in an elliptic pencil"),
            AxiomUse("AX-AMPLE-DEGREE1-IRREDUCIBLE", note="L is a line"),
            AxiomUse("AX-P1-SPLIT", note="E(-h - F)|L is O(a) + O(-1-a)"))),
}


def _cn_window(d: int, n2: int, mode: str) -> tuple[int, int]:
    if mode == "exact":
        return d + n2, d + n2
    if mode == "general":
        return 1 + n2, d + n2
    return 1 + n2, d - 1 + n2  # gonality: a pencil of degree <= d-1 assumed


def _profiles(lat: Lattice, plan: _Plan, d: int, n2: int,
              mode: str) -> tuple[list[tuple[int, int, int]], tuple[int, int]]:
    """Window-passing (h.N, B.N, C.N) triples plus the C.N window.

    At each h.N = x the Hodge index on <h, B, N> (AX-HODGE-INDEX: its Gram
    determinant is >= 0) closes B.N = y: the determinant is >= 0 exactly
    when (4y - x h.B)^2 <= ((h.B)^2 - 4 B^2)(x^2 - 4 N^2), and 4y - x h.B is
    an integer, so isqrt gives the exact interval; x >= hodge_lower(4, N^2)
    keeps the right side >= 0; the gate guarantees these 4s are h^2.  Each further window is a half-plane
    a*h.N + b*B.N >= r: the degree budget
    cn_lo <= C.N <= min(cn_hi, C^2 // 2), capped by M^2 >= N^2, and
    P.N >= P.floor(n2) for every known class P, C included.  scan
    narrows the isqrt interval of each x in [xmin, xmax] by all of them
    and keeps it if nonempty.  M.N >= 1 needs no window, as C.N >= cn_lo
    implies it; nor does the Hodge index on (M, N): (M.N)^2 >= M^2 N^2
    expands to (C.N)^2 >= C^2 N^2, C's floor.
    """
    curve = plan.curve
    hc = curve.profile[0]
    cn_lo, cn_hi = _cn_window(d, n2, mode)
    xmin, floors = plan.columns[n2 // 2]
    xmax = hc - 3  # h.M >= 3: M is movable and nonzero too
    if mode == "exact":
        xmax = min(xmax, hc // 2)  # M - N effective or zero: h.N <= h.M
    s, t = curve.cls.coords
    halves = [(s, t, cn_lo), (-s, -t, -min(cn_hi, curve.square // 2)),
              *floors]
    hb, b2 = lat.gram[0][1], lat.gram[1][1]

    def column(x: int) -> tuple[int, int]:
        root = math.isqrt((hb * hb - 4 * b2) * (x * x - 4 * n2))
        return -((root - hb * x) // 4), (hb * x + root) // 4

    columns = scan(halves, xmin, xmax, column)
    return [(x, y, s * x + t * y) for x, y_lo, y_hi in columns
            for y in range(y_lo, y_hi + 1)], (cn_lo, cn_hi)


def _infeasible(lat: Lattice, plan: _Plan, n2: int, cn_lo: int,
                cn_hi: int) -> _Verdict:
    """No profile passed the windows; certify the binding clash."""
    c, c2 = plan.curve.cls, plan.curve.square
    budget = "the degree accounting M.N + len(Z') = c2"
    # C a multiple of one known movable class: its pairing floor scales
    for k, p in plan.multiples:
        floor = p.floor(n2)
        if k * floor > cn_hi:
            return "window-infeasible", (_claim(
                lat, "forced pairing exceeds the degree budget",
                k * floor, ">", cn_hi,
                cite=f"C = {k}({p.cls}) forces C.N >= {k}*{floor} with "
                     f"{p.cls}.N >= {floor}, but M.N + N^2 <= {cn_hi}",
                contradicts=budget),), (
                "pairing floor through the movable multiple")
    # (C.N)^2 >= C^2 N^2; n2 <= C^2/4 makes this floor >= 2 n2, so it
    # covers M.N >= N^2 too.  cn_hi >= 0, so comparing squares is exact
    if c2 * n2 > cn_hi * cn_hi:
        return "window-infeasible", (_claim(
            lat, "Hodge floor on C.N exceeds the degree budget",
            mul_expr(self_of(c), n2), ">", cn_hi * cn_hi,
            cite=f"C^2 = {c2} and N^2 = {n2} force "
                 f"C.N >= ceil(sqrt({c2 * n2}))",
            contradicts=budget),), "Hodge index against C"
    if cn_lo > cn_hi:
        return "window-infeasible", (_claim(
            lat, "empty degree budget", cn_lo, ">", cn_hi,
            cite=f"M.N >= 1 forces C.N >= {cn_lo}, but the assumed pencil "
                 f"degree leaves C.N <= {cn_hi}",
            contradicts=budget),), "empty degree budget"
    return "window-infeasible", (_claim(
        lat, "empty profile window", cn_lo, "<=", cn_hi,
        cite="no integer profile satisfies the nef, base-point-free "
             "and Hodge windows inside this degree budget"),), (
        "exhaustive window sweep")


def _kill_profile(lat: Lattice, plan: _Plan, d: int, n2: int, mode: str,
                  x: int, y: int, cn: int) -> PairElimination:
    mn = cn - n2
    base = _claim(lat, "profile bookkeeping", add_expr(mn, n2), "=", cn,
                  cite=f"M.N = C.N - N^2 = {cn} - {n2} at "
                       f"(h.N, B.N) = ({x}, {y})")
    killed = _kill_classlike(lat, plan, n2, mode, x, y)
    if killed is None and n2 == 0:
        killed = _kill_fiber(lat, plan, d, mode, x, y, cn)
    outcome, claims, note = killed or (
        "unresolved", (), "no registered elimination rule covers this profile")
    return _record(plan.curve.cls, d, n2, (outcome, (base, *claims), note),
                   (x, y), d - mn if mode == "general" else 0)


def _kill_classlike(lat: Lattice, plan: _Plan, n2: int, mode: str, x: int,
                    y: int) -> _Verdict | None:
    """Rules that only use effectivity and connectedness of known classes.

    One pass over the plan's rows reads P.N and, for Q = P - N, Q^2 and
    h.Q off the profile, firing the rules that hold for every class; the
    base-point-free and aCM rules then pass over their own rows.  Every
    rule asks q2 = -2 or |h.Q| >= 1, so none fires on Q = 0.
    """
    curve, split = plan.curve, plan.split
    if (split is not None and mode in ("exact", "general")
            and 4 * n2 == curve.square and (2 * x, 2 * y) == curve.profile):
        return "split-indecomposable", [_claim(
            lat, "the halved class matches the profile of N",
            self_of(split), "=", n2,
            cite=f"N and {split} = C/2 share square and basis pairings, so "
                 "N = C/2 by nondegeneracy and E is an extension of C/2 by "
                 "itself with Z' empty, i.e. decomposable",
            contradicts="AX-INDECOMP: E is indecomposable")], f"N = {split}"
    hc = curve.profile[0]
    if mode == "exact" and 2 * x == hc:
        # M - N is effective (or zero, excluded above) of degree 0
        return "effective-difference-degree-zero", [_claim(
            lat, "the difference M - N has ample degree zero",
            hc - 2 * x, "=", 0,
            cite="M - N is effective and nonzero here, yet h.(M - N) = 0",
            contradicts="AX-AMPLE-POSITIVE: ample degree of a nonzero "
                        "effective class is positive")], ""
    for p, p1, p2, p_sq, hp, name in plan.rows:
        pn = p1 * x + p2 * y
        q2 = p_sq - 2 * pn + n2
        hq = hp - x
        if hq == 0 and q2 == -2:
            return "ample-orthogonal-neg2", [_claim(
                lat, "a (-2)-class orthogonal to h",
                add_expr(self_of(p), -2 * pn, n2), "=", -2,
                cite=f"({name} - N)^2 = -2 while h.({name} - N) = 0; a "
                     "(-2)-class is effective up to sign",
                contradicts="AX-AMPLE-POSITIVE: ample degree of a nonzero "
                            "effective class is positive")], f"P = {name}"
        if q2 >= 0 and 1 <= abs(hq) <= 2:
            piece = f"{name} - N" if hq > 0 else f"N - ({name})"
            return "very-ample-degree-floor", [_claim(
                lat, "degree below the very ample floor",
                abs(hq), "<", 3,
                cite=f"({piece})^2 = {q2} >= 0 and h.({piece}) = {abs(hq)}; "
                     "a nonzero class of nonnegative square and positive "
                     "degree moves in a pencil",
                contradicts="AX-VA-DEGREE3: degree floor under a very ample "
                            "polarization")], f"P = {name}"
    for _, p1, p2, p_sq, hp, name in plan.bpf_rows:
        pn = p1 * x + p2 * y
        q2 = p_sq - 2 * pn + n2
        hq, nq = hp - x, pn - n2
        if q2 >= -2 and hq >= 1 and nq <= 1:
            return "two-connected-violation", [_claim(
                lat, "a piece meeting N at most once",
                nq, "<=", 1,
                cite=f"Q = {name} - N is effective (Q^2 = {q2} >= -2, "
                     f"h.Q = {hq} >= 1) and N.Q = {nq}",
                contradicts=f"AX-2CONNECTED: members of |{name}| are "
                            "2-connected")], f"P = {name}"
        if q2 >= -2 and hq <= -1 and n2 >= 2 and pn - p_sq <= 1:
            return "two-connected-violation", [_claim(
                lat, "a piece meeting its complement at most once",
                pn - p_sq, "<=", 1,
                cite=f"Q = N - ({name}) is effective and {name}.Q = "
                     f"{pn - p_sq}",
                contradicts="AX-2CONNECTED: members of |N| are "
                            "2-connected")], f"P = {name}"
    for _, p1, p2, p_sq, hp, name in plan.acm_rows:
        pn = p1 * x + p2 * y
        hq, nq = hp - x, pn - n2
        if p_sq - 2 * pn + n2 == -2 and hq >= 1 and nq <= 0:
            return "one-connected-h1", [_claim(
                lat, "a decomposition with nonpositive linking",
                nq, "<=", 0,
                cite=f"{name} = N + ({name} - N) with ({name} - N)^2 = -2, "
                     f"h.({name} - N) = {hq} and N.({name} - N) = {nq}",
                contradicts="AX-1CONNECTED-H1 with AX-ACM-VANISH: h^1 of "
                            "the aCM class vanishes")], f"P = {name}"
    return None


def _kill_fiber(lat: Lattice, plan: _Plan, d: int, mode: str, x: int, y: int,
                cn: int) -> _Verdict | None:
    """Rules for N^2 = 0: N = rF over an elliptic pencil F with h.F >= 3.
    r = 1 (h.N >= 3) names the outcome; in general mode each r >= 2 dividing
    (h.N, B.N, C.N) must fall too, and the outcome is then
    pencil-branches-exhausted (elsewhere h^1(N) = r - 1 = 0 forces r = 1).
    The restriction reads the plan's fiber P (square 0, hence movable);
    the twist rule's 4s are h^2 = 4, which the gate guarantees."""
    c, p = plan.curve.cls, plan.fiber
    pn = None if p is None else _pairing(p, x, y)
    if pn is not None and pn <= 1:
        outcome, claims = "pencil-restrict-degree", [_claim(
            lat, "the distinguished movable class meets the fiber at most "
                 "once", pn, "<=", 1,
            cite=f"{p}.N = {pn}: a fiber meeting the movable class of the "
                 "initialized pencil bundle fewer than twice forces either "
                 "h^0 <= 1 or a section of the negative twist",
            contradicts="AX-PENCIL-RESTRICT: the fiber pairing is >= 2")]
    else:
        m2 = plan.curve.square - 2 * cn
        hm = plan.curve.profile[0] - x
        mh2 = m2 - 2 * hm + 4
        # the twisted h^1 clash, available while E is initialized aCM
        if mode != "exact" or mh2 > -4 or x >= 4:
            return None
        outcome, claims = "twist-h1-vanishing", [
            _claim(lat, "square of the twisted kernel class",
                   add_expr(self_of(c), -2 * cn, -2 * hm, self_of(_H)),
                   "<=", -4,
                   cite=f"(M - h)^2 = {mh2}, so chi(M - h) = "
                        f"{2 + mh2 // 2} < 0 and h^1 of the twist M(-1) "
                        "is positive"),
            _claim(lat, "the quotient twist has negative degree",
                   x - 4, "<", 0,
                   cite=f"h.(N - h) = {x - 4} < 0 kills the sections of "
                        "N(-1)",
                   contradicts="AX-ACM-VANISH with AX-LES: h^1(M(-1)) "
                               "<= h^0(N(-1)) + h^1(E(-1)) = 0")]
    rs = [1]
    for r in range(2, x // 3 + 1) if mode == "general" else ():
        if x % r or y % r or cn % r:
            continue
        if cn != d:
            return None  # Z' nonempty: the h^1 forcing needs the plain sequence
        rs.append(r)
        outcome = "pencil-branches-exhausted"
        claims.append(_claim(
            lat, f"h^1 of the fiber multiple is r - 1 = {r - 1}",
            r - 1, ">=", 1,
            cite=f"M.N = C.N = {cn} = c2 leaves Z' empty, so the quotient is "
                 f"the line bundle of N = {r}F with h^1 = r - 1, while "
                 "h^1(E) = 0 and h^2(M) = 0 force h^1(N) = 0",
            contradicts="AX-ELLIPTIC-H1 against the AX-LES vanishing"))
    return outcome, claims, f"fiber multiplicities {rs} all eliminated"


def elimination_to_json(rec: PairElimination) -> dict:
    out = {
        "curve": list(rec.c.coords),
        "d": rec.d,
        "n_square": rec.n_square,
        "profile": list(rec.profile) if rec.profile is not None else None,
        "len_zprime": rec.len_zprime,
        "outcome": rec.outcome,
        "resolved": rec.outcome != "unresolved",
        "trace": [step_to_json(cl) for cl in rec.trace],
    }
    if rec.note:
        out["note"] = rec.note
    return out
