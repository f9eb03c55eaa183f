"""Bounded enumerations, derivation scripts and the classification replay."""

from .constraints import (CaseSpec, Constraint, abs_t_at_least, check_rel,
                          enumerate_case, linear, quadratic)
from .destabilize import (MODES, PairElimination, elimination_to_json,
                          engine_assumptions, enumerate_destabilizing)
from .casebook import builtin_scripts, script_by_tag
from .necessity import (NecessityReport, ReductionRow, SurvivorMatch,
                        necessity_to_json, verify_necessity)
from .presets import (PRESET_IDS, PRESET_PRESENTATION, delpezzo_lattice,
                      delpezzo_pencil_f, delpezzo_pencil_fj, lemma_case,
                      quartic_lattice, ulrich_assumptions)
from .scripts import (ArithClaim, AxiomUse, CONTRADICTION, Conclusion,
                      DerivationReport, DerivationScript, StepReport,
                      deg_of, established, evaluate, genus_expr, pair_of,
                      report_text, report_to_json, run_script, self_of)

__all__ = [
    "ArithClaim", "AxiomUse", "CONTRADICTION", "CaseSpec", "Conclusion",
    "Constraint", "DerivationReport", "DerivationScript", "MODES",
    "NecessityReport", "PRESET_IDS", "PRESET_PRESENTATION",
    "PairElimination", "ReductionRow", "StepReport", "SurvivorMatch",
    "abs_t_at_least", "builtin_scripts", "check_rel", "deg_of",
    "delpezzo_lattice", "delpezzo_pencil_f", "delpezzo_pencil_fj",
    "elimination_to_json", "engine_assumptions", "enumerate_case",
    "enumerate_destabilizing", "established", "evaluate", "genus_expr",
    "lemma_case", "linear", "necessity_to_json", "pair_of", "quadratic",
    "quartic_lattice", "report_text", "report_to_json", "run_script",
    "script_by_tag", "self_of", "ulrich_assumptions", "verify_necessity",
]
