"""Exact-arithmetic workbench for rank-2 aCM bundle numerology on
quartic K3 lattices: integral intersection forms, Riemann-Roch
bookkeeping, the initialized-aCM classifier, bounded constraint
enumerations and step-checked derivation replays.

Everything is integer arithmetic; there are no floats and no tolerances.
"""

from .axioms import AXIOMS, is_registered
from .classifier import (AcmClassification, AcmStatus, Assumption,
                         AssumptionKind, Effectivity, Verdict,
                         acm_companions, derived_assumptions, effectivity,
                         is_initialized_acm)
from .config import (assumption_from_json, assumption_to_json,
                     config_from_json, config_to_json, data_path,
                     load_config, loads_config, shipped_config_names,
                     shipped_quartic_names)
from .errors import (BadDimensionsError, BadParametersError, BoxTooSmallError,
                     ConfigError, ConflictingAssumptionsError,
                     DegenerateFormError, DimensionMismatchError, EngineError,
                     MalformedScriptError, NonPositiveAmpleError,
                     NonSymmetricError, NotAcmInputError,
                     NotEffectiveCandidateError, OddK3DiagonalError,
                     OddSquareError, PreconditionError, TrivialClassError,
                     UnsupportedRankError, WorkbenchError, WrongSignatureError)
from .invariants import (AcmDegreeWindow, BundleInvariants, LMInvariants,
                         chern_twist, chi_bundle, chi_line, genus_of,
                         hodge_lower, brill_noether, lm_acm_bounds,
                         lm_invariants, twist_chi)
from .lattice import DivClass, Lattice

__version__ = "0.1.0"

__all__ = [
    "AXIOMS", "AcmClassification", "AcmDegreeWindow", "AcmStatus",
    "Assumption", "AssumptionKind", "BadDimensionsError",
    "BadParametersError", "BoxTooSmallError", "BundleInvariants",
    "ConfigError", "ConflictingAssumptionsError", "DegenerateFormError",
    "DimensionMismatchError", "DivClass", "Effectivity", "EngineError",
    "LMInvariants", "Lattice", "MalformedScriptError",
    "NonPositiveAmpleError", "NonSymmetricError", "NotAcmInputError",
    "NotEffectiveCandidateError", "OddK3DiagonalError", "OddSquareError",
    "PreconditionError", "TrivialClassError", "UnsupportedRankError",
    "Verdict", "WorkbenchError", "WrongSignatureError", "acm_companions",
    "assumption_from_json", "assumption_to_json", "brill_noether",
    "chern_twist", "chi_bundle", "chi_line", "config_from_json",
    "config_to_json", "data_path", "derived_assumptions", "effectivity",
    "genus_of", "hodge_lower", "is_initialized_acm", "is_registered",
    "lm_acm_bounds", "lm_invariants", "load_config", "loads_config",
    "shipped_config_names", "shipped_quartic_names", "twist_chi",
    "__version__",
]
