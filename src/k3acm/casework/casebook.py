"""Builtin derivation scripts for the rank-2 classification.

One script per eliminated survivor class, plus the degree-floor
computation, the two presentation reductions, and the rank-8
double-cover example.  Each script opens with presentation-pinning
claims (the squares and pairing of the basis), so that any mutation of
the gram matrix breaks at least one claim, and ends either in a flagged
contradiction or an established statement.

A row of CASES is plain data, (tag, presentation, curve, mode), and
Case.script() picks its builder from the row's shape.  Every row with a
curve, the eight survivors and the gonality floor, is one builder,
``_script_pencil``: a hand-written header (pins, the c2 window, the
cited facts and, for a sweep, the Brill-Noether numbers) and the
destabilizing-pair engine's records at every d of the window.  The
engine settles a row by its sweep, or by one of its query rules: the
self-dual twist for the two rows of C = 2(h + B') on (-2, 2), the
restriction to the line B for C = 3h - 2B on (-2, 1).  CASES is the one
table of what each script settles; verify_necessity reads it too.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from ..classifier import WINDOWS, complement
from ..errors import BadParametersError, EngineError, PreconditionError
from ..invariants import brill_noether, genus_of, lm_acm_bounds
from ..lattice import DivClass, Lattice
from .destabilize import (QUERY_RULES, engine_assumptions,
                          enumerate_destabilizing)
from .presets import (_B, _H, delpezzo_lattice, delpezzo_pencil_f,
                      delpezzo_pencil_fj, quartic_lattice, ulrich_assumptions)
from .scripts import (ArithClaim, AxiomUse, CONTRADICTION, DerivationScript,
                      add_expr, bn_expr, chi_expr, deg_of, established,
                      genus_expr, mul_expr, neg_expr, pair_of, self_of,
                      sub_expr)


class Case(NamedTuple):
    """One builtin script and what it settles in the replay.

    presentation is (B^2, h.B) of the script lattice, None for the rank-8
    example; a row that ``reduces`` (no curve) takes it to
    complement(presentation) by kh - B.  A row with a curve is a case
    analysis from the engine in its mode at every d of the curve's c2
    window (in gonality mode, at its top), and eliminates that survivor
    C = s h + t B, except the ``support`` row: a gonality sweep proves a
    pencil-degree floor, an established statement, which backs every
    replay of its presentation instead.  script() builds by this shape.
    """

    tag: str
    presentation: tuple[int, int] | None = None
    curve: DivClass | None = None
    mode: str | None = None

    @property
    def reduces(self) -> bool:
        return self.presentation is not None and self.curve is None

    @property
    def support(self) -> bool:
        return self.mode == "gonality"

    def script(self) -> DerivationScript:
        """This row's derivation script, built on its first use (never at
        import) and shared by every later call in the process.

        The script is a proof input, not a verdict: run_script still
        re-checks every claim of it on every replay.  Callers must not
        mutate it or its expression dicts: its program has read them once.
        To change a claim, build a new one and a new script of it.
        """
        script = _SCRIPTS.get(self)
        if script is None:
            build = (_script_delpezzo if self.presentation is None else
                     _script_reduction if self.curve is None else
                     _script_pencil)
            script = _SCRIPTS[self] = build(self)
        return script


_SCRIPTS: dict[Case, DerivationScript] = {}


def _pins(b2: int, hb: int) -> list:
    return [
        ArithClaim("presentation pin: square of h", self_of(_H), "=", 4,
                   cite="polarization of the quartic"),
        ArithClaim("presentation pin: square of B", self_of(_B), "=", b2),
        ArithClaim("presentation pin: pairing h.B", pair_of(_H, _B), "=", hb),
    ]


def _window(c: DivClass, g: int, ds) -> list:
    """Genus, degree cap and the second-Chern-class window at each d."""
    return [
        ArithClaim("sectional genus of the curve class", genus_expr(c), "=",
                   g),
        ArithClaim("polarized degree of the curve class", deg_of(c), "<=", 12,
                   cite="AX-SECTIONS-BOUND: h^0(E) = g - c2 + 3 <= 8 keeps "
                        "the degree window nonempty only while h.C <= 12"),
    ] + [claim for d in ds for claim in (
        ArithClaim("lower end of the c2 window", sub_expr(genus_expr(c), 5),
                   "<=", d, cite="h^0(E) <= 8 reads c2 >= g - 5"),
        ArithClaim("upper end of the c2 window",
                   add_expr(genus_expr(c), 7, neg_expr(deg_of(c))), ">=", d,
                   cite="initialization bounds c2 <= g + 7 - h.C"))]


# --- pencil bundles: hand-written header, case analysis from the engine ----

def _pencil_steps(case: Case, lat: Lattice) -> tuple[list, str]:
    """Header of a pencil-bundle script, the engine's records at each d of
    the c2 window [max(1, g - 5), g + 7 - h.C], and the description's how.

    An empty window raises PreconditionError before the engine runs.  The
    records come from the facts ``k3acm destabilize`` uses on the shipped
    config, and one that is unresolved raises EngineError.  In gonality
    mode only the window's top runs, as the bundle comes from an assumed
    pencil of degree d - 1.  The header cites the premises and the how of
    each query rule (``destabilize.QUERY_RULES``) that settled some d, and
    for a sweep a negative Brill-Noether number at each d it swept
    (rho >= 0 raises EngineError) and the sweep's premises; a d a query
    rule settled needs no non-simple bundle, so it gets neither.
    """
    c, mode = case.curve, case.mode
    g = genus_of(lat.self_int(c))
    low, top, _ = lm_acm_bounds(g, lat.deg(c))
    ds = [top] if mode == "gonality" else range(max(1, low), top + 1)
    if not ds:
        raise PreconditionError(
            f"the c2 window [{max(1, low)}, {top}] of C = {c} on "
            f"{case.presentation} is empty: no d to build a script for")
    facts = engine_assumptions(lat, ulrich_assumptions(lat))
    by_d = [enumerate_destabilizing(lat, c, d, facts, mode) for d in ds]
    records = [rec for recs in by_d for rec in recs]
    gaps = [r for r in records if not r.resolved]
    if gaps:  # a script with a gap must never ship
        raise EngineError(
            f"the destabilizing sweep leaves {len(gaps)} branch(es) of "
            f"C = {c}, d = {' or '.join(map(str, ds))} ({mode}) on "
            f"{case.presentation} open")
    # a query rule settles its d in one record; the others were swept
    swept = [d for d, recs in zip(ds, by_d)
             if recs[0].outcome not in QUERY_RULES]
    trace = [cl for rec in records for cl in rec.trace]
    steps = _pins(*case.presentation) + (
        _window(c, g, ())[:1] if mode == "gonality" else _window(c, g, ds))
    outcomes = {rec.outcome for rec in records}
    steps += [use for rule, (_, _, premises) in QUERY_RULES.items()
              if rule in outcomes for use in premises]
    if not swept:  # rho may be >= 0: no sweep premises
        return steps + trace, QUERY_RULES[records[-1].outcome][1]
    if mode == "gonality":  # the genus only; the cap is the aCM bundle's
        uses = [AxiomUse(
            "AX-LM-CONSTRUCT",
            note=f"a minimal pencil of degree d <= {top - 1} would give a "
                 "rank-2 bundle with c1 = C, c2 = d and a destabilizing "
                 f"pair with M.N <= {top - 1}")]
    else:
        each_d = " or ".join(map(str, swept))
        if lat.deg(c) == 12:
            steps.append(ArithClaim(
                "the c2 window is a single point",
                sub_expr(genus_expr(c), 5), "=", top,
                cite=f"g - 5 = g + 7 - h.C = {top} pins c2 = {top}"))
        uses = [
            AxiomUse("AX-NONSIMPLE-RHO",
                     note="negative Brill-Noether number: the bundle is not "
                          "simple and a destabilizing pair (M, N) exists"),
            AxiomUse("AX-DESTAB-SEQ",
                     note=(f"pencil sequence with Z' empty: M.N = {each_d} "
                           "and h^1(M) = h^1(N) = 0" if mode == "exact" else
                           "plain non-simple sequence: "
                           f"M.N + len(Z') = {each_d}")),
        ]
    for d in swept:
        degree = d - 1 if mode == "gonality" else d
        rho = brill_noether(g, 1, degree)
        if rho >= 0:
            raise EngineError(
                f"rho({g}, 1, {degree}) = {rho} >= 0: no script for "
                f"C = {c}, d = {d} ({mode}) on {case.presentation}, whose "
                "bundle need not be non-simple")
        steps.append(ArithClaim(
            f"Brill-Noether number of a degree-{degree} pencil",
            bn_expr(genus_expr(c), 1, degree), "=", rho))
    steps.append(AxiomUse(
        "AX-BPF-ACM",
        note="B and its initialized companions seed the sweep: those of "
             "square >= 2 are base point free, those of square 0 move"))
    steps.append(AxiomUse(
        "AX-HODGE-INDEX",
        note="the Gram determinant of <h, B, N> is >= 0, which bounds B.N "
             "on both sides at each h.N"))
    return steps + uses + trace, (
        f"by exhausting the destabilizing pairs of a degree-{top} pencil "
        "bundle")


def _script_pencil(case: Case) -> DerivationScript:
    b2, hb = case.presentation
    lat = quartic_lattice(b2, hb)
    c = case.curve
    top = lm_acm_bounds(genus_of(lat.self_int(c)), lat.deg(c)).d_max
    # a support row proves that |B| cut on a member of |2B| is a pencil
    # of the least degree the c2 window allows: C = 2B with B^2 its top
    if case.support and (c != 2 * _B or b2 != top):
        raise PreconditionError(
            f"support row {case.tag}: the pencil floor needs C = 2B with "
            f"B^2 = the c2 window top, not C = {c} with B^2 = {b2} and top "
            f"{top} on ({b2}, {hb})")
    steps, how = _pencil_steps(case, lat)
    conclusion, description = CONTRADICTION, (
        f"Eliminates C = {c} on the ({b2}, {hb}) configuration {how}.")
    if case.support:
        steps.append(ArithClaim(
            "the restriction pencil attains the floor", self_of(_B), "=", top,
            cite="|B| restricted to a member of |2B| moves in a pencil of "
                 f"degree B.(2B)/2 = {top}"))
        conclusion = established(
            "every pencil on a smooth member of |2B| has degree at least "
            f"{top}, and the restriction of |B| attains it")
        description = ("Degree floor for pencils on curves in |2B| on the "
                       f"({b2}, {hb}) configuration.")
    return DerivationScript(tag=case.tag, lattice=lat, steps=steps,
                            conclusion=conclusion, description=description)


# --- presentation reductions -------------------------------------------------

def _script_reduction(case: Case) -> DerivationScript:
    b2, hb = case.presentation
    k, target = WINDOWS[b2, hb][1], complement(b2, hb)
    sub, name = k * _H - _B, f"{k if k > 1 else ''}h - B"
    # the Gram determinants h^2 b^2 - (h.b)^2 of (h, B') and of (h, B)
    det_sub, det_b = (sub_expr(mul_expr(self_of(_H), self_of(b)),
                               mul_expr(pair_of(_H, b), pair_of(_H, b)))
                      for b in (sub, _B))
    steps = _pins(b2, hb) + [
        ArithClaim("square of the substituted class", self_of(sub), "=",
                   target[0]),
        ArithClaim("degree of the substituted class", deg_of(sub), "=",
                   target[1]),
        ArithClaim("the substitution is a change of basis", det_sub, "=",
                   det_b, cite="equal Gram determinants: (h, B') has index 1"),
    ]
    return DerivationScript(
        tag=case.tag, lattice=quartic_lattice(b2, hb), steps=steps,
        conclusion=established(
            f"the class {name} presents the same lattice with "
            f"(B'^2, h.B') = {target}"),
        description=f"Reduces the ({b2}, {hb}) presentation to the "
                    f"{target} one through the basis substitution "
                    f"B' = {name}.")


# --- rank-8 double-cover example ---------------------------------------------

def _script_delpezzo(case: Case) -> DerivationScript:
    lat = delpezzo_lattice()
    h = lat.ample
    f = delpezzo_pencil_f()
    # all 36 Gram entries of the basis (l, e1..e7): its squares, and its
    # 28 pairings through the sum of their squares
    basis = [DivClass([int(i == j) for j in range(8)]) for i in range(8)]
    pairings = [pair_of(a, b) for a, b in combinations(basis, 2)]
    steps = [ArithClaim(f"presentation pin: square of {name}", self_of(b),
                        "=", 2 if name == "l" else -2)
             for name, b in zip(lat.labels, basis)]
    steps += [
        ArithClaim("presentation pin: the basis is orthogonal",
                   add_expr(*(mul_expr(p, p) for p in pairings)), "=", 0,
                   cite="a sum of squares is 0 only if each pairing is, so "
                        "the Gram matrix is diag(2, -2, ..., -2): even, and "
                        "of signature (1, 7) by Sylvester's law of inertia"),
        ArithClaim("the polarization has square 4", self_of(h), "=", 4,
                   cite="h = 3l - e1 - ... - e7 embeds the double cover as "
                        "a quartic"),
        ArithClaim("the four-point conic class is isotropic", self_of(f),
                   "=", 0),
        ArithClaim("the conic pencil has degree 4", pair_of(h, f), "=", 4),
    ]
    for j in (5, 6, 7):
        fj = delpezzo_pencil_fj(j)
        diff = f - fj
        wedge = f + fj - h * 2
        steps += [
            ArithClaim(f"the line pencil through point {j} is isotropic",
                       self_of(fj), "=", 0),
            ArithClaim(f"the line pencil through point {j} has degree 4",
                       pair_of(h, fj), "=", 4),
            ArithClaim(f"difference of the two pencils at point {j}",
                       self_of(diff), "=", -8),
            ArithClaim(f"the co-difference class at point {j}",
                       self_of(wedge), "=", -8,
                       cite="f + f_j - 2h is the residual of the difference"),
        ]
    steps += [
        ArithClaim("chi of the square -8 classes",
                   chi_expr(f - delpezzo_pencil_fj(5)), "=", -2,
                   cite="chi = 2 + D^2/2 = -2 < 0, so h^1 of these classes "
                        "never vanishes and neither difference is "
                        "effective"),
        AxiomUse("AX-VA-DEGREE3",
                 note="each pencil class is isotropic of degree 4: its "
                      "moving part is an elliptic pencil"),
    ]
    return DerivationScript(
        tag=case.tag, lattice=lat, steps=steps,
        conclusion=established(
            "the rank-8 double-cover lattice is even of signature (1, 7), "
            "carries the degree-4 polarization h = 3l - e1 - ... - e7, and "
            "its two pencil families f and f_j pair as displayed with "
            "chi(f - f_j) = -2"),
        description="Checks the rank-8 double-cover lattice and the "
                    "displayed identities of its pencil classes.")


CASES = (
    Case("case-B2neg2-Bh1", (-2, 1), DivClass((3, -2)), "general"),
    Case("case-B2neg2-Bh2", (-2, 2), DivClass((2, 2)), "exact"),
    Case("case-B2neg2-Bh2-mirror", (-2, 2), DivClass((4, -2)), "exact"),
    Case("case-B2neg2-Bh3", (-2, 3), DivClass((4, -2)), "exact"),
    Case("case-B20-Bh4", (0, 4), DivClass((1, 2)), "general"),
    Case("case-B20-Bh4-mirror", (0, 4), DivClass((5, -2)), "general"),
    Case("case-B24", (4, 6), DivClass((0, 2)), "exact"),
    Case("case-B24-mirror", (4, 6), DivClass((6, -2)), "exact"),
    Case("gonality-2B", (4, 6), DivClass((0, 2)), "gonality"),
    Case("reduction-B20-Bh3", (0, 3)),
    Case("reduction-B22-Bh5", (2, 5)),
    Case("delpezzo-cover"),
)


_BY_TAG = {case.tag: case for case in CASES}


def builtin_scripts() -> dict[str, DerivationScript]:
    """All shipped derivation scripts, keyed by tag; each is its row's
    shared Case.script()."""
    return {case.tag: case.script() for case in CASES}


def script_by_tag(tag: str) -> DerivationScript:
    """The shipped derivation script with this tag, Case.script() of
    its row; builds no other row."""
    case = _BY_TAG.get(tag)
    if case is None:
        known = ", ".join(sorted(_BY_TAG))
        raise BadParametersError(f"unknown script tag {tag!r}; known: {known}")
    return case.script()
