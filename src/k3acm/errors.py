"""Exception hierarchy for the workbench.

Every error the public API can raise derives from WorkbenchError.  Only
EngineError marks a genuine bug, so callers (and the CLI) can tell it
apart from bad input.

The promise covers arguments of the documented types.  These wrongly
typed ones raise BadParametersError too: facts that are not Assumptions
(unhashable ones too), Assumptions built from other than a DivClass and
an AssumptionKind, a decided Verdict without a reason, and a class that
is not a DivClass given to effectivity, is_initialized_acm,
acm_companions, derived_assumptions, enumerate_destabilizing or
verify_necessity.  Other wrongly typed arguments may still raise
TypeError or AttributeError.
"""


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


# ---- lattice construction / arithmetic -------------------------------------

class NonSymmetricError(WorkbenchError):
    """Gram matrix is not symmetric."""


class BadDimensionsError(WorkbenchError):
    """Gram matrix, label list or coordinate vector has the wrong shape."""


class OddK3DiagonalError(WorkbenchError):
    """A lattice flagged as K3 must have an even diagonal."""


class WrongSignatureError(WorkbenchError):
    """A lattice flagged as K3 must have signature (1, rank-1)."""


class NonPositiveAmpleError(WorkbenchError):
    """The distinguished ample class must have positive self-intersection."""


class DimensionMismatchError(WorkbenchError):
    """Operands live in lattices of different rank."""


class DegenerateFormError(WorkbenchError):
    """The bilinear form is degenerate where a nondegenerate one is required."""


class PreconditionError(WorkbenchError):
    """An operation's documented precondition does not hold."""


# ---- numerology -------------------------------------------------------------

class OddSquareError(WorkbenchError):
    """A self-intersection number that must be even is odd."""


class UnsupportedRankError(WorkbenchError):
    """Operation is only implemented for rank-2 bundles."""


class BadParametersError(WorkbenchError):
    """Numeric parameters outside the documented domain."""


# ---- classifier --------------------------------------------------------------

class ConflictingAssumptionsError(WorkbenchError):
    """The same divisor class is assumed both effective and empty."""


class TrivialClassError(WorkbenchError):
    """The zero class was passed where a nontrivial class is required."""


class NotEffectiveCandidateError(WorkbenchError):
    """Candidate class has empty linear system, so it cannot be classified."""


class NotAcmInputError(WorkbenchError):
    """Operation requires a class already classified as aCM."""


# ---- casework ----------------------------------------------------------------

class BoxTooSmallError(WorkbenchError):
    """An enumeration survivor touches the search box boundary."""


class MalformedScriptError(WorkbenchError):
    """A derivation script violates the structural rules."""


class EngineError(WorkbenchError):
    """Internal fault: the engine produced a false claim or left a gap in a
    shipped script.  Never the caller's fault."""


# ---- configuration -----------------------------------------------------------

class ConfigError(WorkbenchError):
    """A configuration file is malformed."""
