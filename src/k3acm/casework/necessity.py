"""End-to-end replay of the rank-2 classification over a chosen lattice.

verify_necessity drives the whole argument for one polarized rank-2
presentation (h, B): classify B, reduce the presentation if it is one of
the two substitution cases, enumerate the bounded survivor classes of
the matching constraint system, run the elimination script attached to
every survivor, and resolve the three small-tail families |t| <= 1 that
the enumeration excludes by construction.  The result is VERIFIED only
if every piece succeeds.

The preset, reduction, survivor and support rows of a presentation come
from one index, read here from PRESET_PRESENTATION and CASES at import;
every call still classifies, enumerates and replays every script it
reports.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ..classifier import (AcmStatus, Assumption, _checked_class, complement,
                          is_initialized_acm)
from ..errors import BadParametersError, NotAcmInputError
from ..lattice import DivClass, Lattice
from .casebook import CASES
from .constraints import enumerate_case
from .presets import PRESET_PRESENTATION, lemma_case, presentation
from .scripts import DerivationReport, run_script, report_to_json


# presentation -> (reduction row or None, preset id, survivor coordinates
# -> eliminating row, support rows); a reduced presentation shares its
# complement's rows.  Read from the rows at import, it builds no script.
_INDEX = {
    p: (None, pid,
        {k.curve.coords: k for k in CASES
         if k.presentation == p and k.curve is not None and not k.support},
        tuple(k for k in CASES if k.presentation == p and k.support))
    for pid, p in PRESET_PRESENTATION.items()}
_INDEX.update({k.presentation: (k, *_INDEX[complement(*k.presentation)][1:])
               for k in CASES if k.reduces})


class SurvivorMatch(NamedTuple):
    survivor: tuple[int, int]
    script_tag: str
    report: DerivationReport


class ReductionRow(NamedTuple):
    """One small-tail family |t| <= 1, resolved without enumeration."""

    t: int
    rule: str
    note: str


class NecessityReport(NamedTuple):
    lattice: Lattice
    profile: tuple[int, int]
    classification: str
    substitution: tuple[str, tuple[int, int]] | None
    substitution_report: DerivationReport | None
    preset_id: str
    survivors: tuple[tuple[int, int], ...]
    matches: tuple[SurvivorMatch, ...]
    supports: tuple[DerivationReport, ...]
    reductions: tuple[ReductionRow, ...]
    unmatched: tuple[tuple[int, int], ...]
    status: str  # "VERIFIED" or "INCOMPLETE"

    @property
    def verified(self) -> bool:
        return self.status == "VERIFIED"


# the three small-tail families, the same rows in every report
_TAIL_ROWS = (
    ReductionRow(
        t=-1, rule="dual-twist",
        note="c1 = s h - B: the dual bundle twisted back has "
             "c1 = (2k - s) h + B, landing in the t = 1 family"),
    ReductionRow(
        t=0, rule="h-multiple",
        note="c1 = s h: twisting by h-multiples reduces to the split "
             "classification of c1 proportional to the polarization"),
    ReductionRow(
        t=1, rule="hypothesis-twist",
        note="c1 = s h + B: twisting by h-multiples reduces to the "
             "admitted pencil-bundle family with c1 = B or h + B"),
)


def verify_necessity(lat: Lattice, b: DivClass,
                     assumptions: Sequence[Assumption] = (),
                     box: int = 32) -> NecessityReport:
    """Replay the classification for the presentation (h, B) of lat.

    Needs the quartic presentation <h, B> (``presets.presentation``) and
    B = (0, 1).  Raises NotAcmInputError if B does not classify as an
    initialized aCM class under the given assumptions.
    """
    _checked_class(b)
    profile = presentation(lat)
    if b.coords != (0, 1):
        raise BadParametersError(
            "the distinguished class must be the second basis vector")
    cls = is_initialized_acm(lat, b, assumptions)
    if cls.status not in (AcmStatus.ACM, AcmStatus.ACM_ULRICH):
        raise NotAcmInputError(
            f"B classifies as {cls.status.value}; the replay needs an "
            "initialized aCM class"
            + (f" (missing: {', '.join(str(m) for m in cls.missing)})"
               if cls.missing else ""))
    # the classifier admits exactly the seven presentations of _INDEX
    reduction, preset_id, case_for, support_rows = _INDEX[profile]
    substitution = substitution_report = None
    if reduction is not None:
        substitution_report = run_script(reduction.script())
        substitution = (reduction.tag, complement(*profile))
    spec = lemma_case(preset_id, box=box)
    survivors = tuple(enumerate_case(spec))
    matches, unmatched = [], []
    for survivor in survivors:
        case = case_for.get(survivor)
        if case is None:
            unmatched.append(survivor)
            continue
        matches.append(SurvivorMatch(survivor=survivor, script_tag=case.tag,
                                     report=run_script(case.script())))
    supports = tuple(run_script(k.script()) for k in support_rows)
    ok = (not unmatched
          and all(m.report.success for m in matches)
          and all(s.success for s in supports)
          and (substitution_report is None or substitution_report.success))
    return NecessityReport(
        lattice=lat, profile=profile, classification=cls.status.value,
        substitution=substitution, substitution_report=substitution_report,
        preset_id=preset_id, survivors=survivors, matches=tuple(matches),
        supports=supports, reductions=_TAIL_ROWS,
        unmatched=tuple(unmatched),
        status="VERIFIED" if ok else "INCOMPLETE")


def necessity_to_json(report: NecessityReport) -> dict:
    out = {
        "profile": list(report.profile),
        "classification": report.classification,
        "preset": report.preset_id,
        "survivors": [list(s) for s in report.survivors],
        "matches": [
            {"survivor": list(m.survivor), "script": m.script_tag,
             "report": report_to_json(m.report)}
            for m in report.matches
        ],
        "supports": [report_to_json(s) for s in report.supports],
        "reductions": [
            {"t": r.t, "rule": r.rule, "note": r.note}
            for r in report.reductions
        ],
        "unmatched": [list(s) for s in report.unmatched],
        "status": report.status,
    }
    if report.substitution is not None:
        out["substitution"] = {
            "script": report.substitution[0],
            "target": list(report.substitution[1]),
            "report": report_to_json(report.substitution_report),
        }
    return out
