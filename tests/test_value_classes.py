"""The value classes: NamedTuples and __slots__ classes with the repr, hash,
immutability and construction checks of the frozen dataclasses they were.

DivClass, Lattice and Assumption are __slots__ classes, since a NamedTuple
equals a plain tuple and the API refuses plain tuples in their place.
ArithClaim and DerivationScript stay frozen dataclasses: a claim is
changed with ``dataclasses.replace``.
"""

import copy
import dataclasses
import pickle
import pkgutil
import sys

import pytest

import k3acm
import k3acm.casework
import k3acm.cli  # noqa: F401  (imports every module of the package)
from k3acm import (AcmClassification, AcmDegreeWindow, AcmStatus, Assumption,
                   AssumptionKind, BadParametersError, BundleInvariants,
                   DivClass, Effectivity, LMInvariants, Lattice,
                   MalformedScriptError, Verdict, derived_assumptions,
                   is_initialized_acm)
from k3acm.casework import (AxiomUse, CaseSpec, Conclusion, Constraint,
                            DerivationReport, NecessityReport, ReductionRow,
                            StepReport, SurvivorMatch, enumerate_destabilizing,
                            evaluate, quartic_lattice, verify_necessity)
from k3acm.casework.casebook import Case
from k3acm.lattice import repr_text

B = DivClass((0, 1))
LAT = Lattice([[4, 2], [2, -2]], ("h", "B"), (1, 0), k3=True)
FACT = Assumption(B, AssumptionKind.EMPTY, "n")
CON = Constraint((0, 0, 0, 1, -1), ">=", 2, "AX-HODGE-INDEX", "c")
REPORT = DerivationReport("t", True, Conclusion("contradiction"),
                          (StepReport(0, "axiom", "AX-HODGE-INDEX",
                                      "AxiomUsed"),), ())

_LAT = ("Lattice(gram=((4, 2), (2, -2)), labels=('h', 'B'), "
        "ample=DivClass(coords=(1, 0)), k3=True)")
_FACT = ("Assumption(subject=DivClass(coords=(0, 1)), "
         "kind=<AssumptionKind.EMPTY: 'Empty'>, note='n')")
_CON = ("Constraint(coeffs=(0, 0, 0, 1, -1), rel='>=', c=2, "
        "axiom_id='AX-HODGE-INDEX', cite='c')")
_REPORT = ("DerivationReport(tag='t', success=True, conclusion=Conclusion("
           "kind='contradiction', statement=''), steps=(StepReport(index=0, "
           "kind='axiom', label='AX-HODGE-INDEX', status='AxiomUsed', "
           "detail=''),), failed=())")

# one instance of each public value class and the repr its frozen
# dataclass printed
REPRS = [
    (B, "DivClass(coords=(0, 1))"),
    (LAT, _LAT),
    (FACT, _FACT),
    (Verdict(Effectivity.EFFECTIVE, "zero-class"),
     "Verdict(value=<Effectivity.EFFECTIVE: 'Effective'>, "
     "reason='zero-class')"),
    (AcmClassification(AcmStatus.NEEDS_ASSUMPTION, "d", (FACT,)),
     "AcmClassification(status=<AcmStatus.NEEDS_ASSUMPTION: "
     f"'NeedsAssumption'>, case_tag='d', missing=({_FACT},))"),
    (BundleInvariants(2, B, 3),
     "BundleInvariants(rank=2, c1=DivClass(coords=(0, 1)), c2=3)"),
    (LMInvariants(g=3, r=1, d=2, h0=4, chi_end=-2, rho=2),
     "LMInvariants(g=3, r=1, d=2, h0=4, chi_end=-2, rho=2)"),
    (AcmDegreeWindow(d_min=1, d_max=3, feasible=True),
     "AcmDegreeWindow(d_min=1, d_max=3, feasible=True)"),
    (CON, _CON),
    (CaseSpec(LAT, (CON,), 16, "p"),
     f"CaseSpec(lattice={_LAT}, constraints=({_CON},), box=16, tag='p')"),
    (AxiomUse("AX-HODGE-INDEX", "n", "c"),
     "AxiomUse(axiom_id='AX-HODGE-INDEX', note='n', cite='c')"),
    (Conclusion("established", "s"),
     "Conclusion(kind='established', statement='s')"),
    (REPORT, _REPORT),
    (Case("t", (-2, 2), DivClass((2, 2)), "exact"),
     "Case(tag='t', presentation=(-2, 2), curve=DivClass(coords=(2, 2)), "
     "mode='exact')"),
    (SurvivorMatch((2, 2), "t", REPORT),
     f"SurvivorMatch(survivor=(2, 2), script_tag='t', report={_REPORT})"),
    (ReductionRow(0, "h-multiple", "n"),
     "ReductionRow(t=0, rule='h-multiple', note='n')"),
    (NecessityReport(LAT, (-2, 2), "Acm", None, None, "p", ((2, 2),),
                     (), (), (), (), "VERIFIED"),
     f"NecessityReport(lattice={_LAT}, profile=(-2, 2), classification="
     "'Acm', substitution=None, substitution_report=None, preset_id='p', "
     "survivors=((2, 2),), matches=(), supports=(), reductions=(), "
     "unmatched=(), status='VERIFIED')"),
]
_IDS = [type(obj).__name__ for obj, _ in REPRS]
SLOTS_CLASSES = (DivClass, Lattice, Assumption)


def _fields(obj) -> tuple:
    return tuple(getattr(obj, f) for f in type(obj)._fields)


@pytest.mark.parametrize("obj, text", REPRS, ids=_IDS)
def test_repr_hash_and_immutability_are_the_dataclasses(obj, text):
    assert repr(obj) == text
    assert hash(obj) == hash(_fields(obj))
    first = type(obj)._fields[0]
    for name in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, first)
    assert isinstance(obj, tuple) != isinstance(obj, SLOTS_CLASSES)
    # copies and pickles rebuild through the constructor
    for again in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(again) is type(obj) and again == obj


def test_slots_classes_equal_no_tuple_and_the_api_refuses_tuples():
    for obj in (B, LAT, FACT):
        assert obj == type(obj)(*_fields(obj))
        assert obj != _fields(obj) and _fields(obj) != obj
    assert B != (0, 1) and len(B) == 2  # len counts coordinates
    lat = quartic_lattice(-2, 2)
    with pytest.raises(BadParametersError, match=r"^B must be a DivClass, "
                                                 r"got \(0, 1\)$"):
        is_initialized_acm(lat, (0, 1))
    with pytest.raises(BadParametersError, match="^a fact must be an "
                                                 "Assumption, got"):
        is_initialized_acm(lat, B, [_fields(FACT)])
    with pytest.raises(BadParametersError, match="^C must be a DivClass"):
        enumerate_destabilizing(lat, (2, 1), 7)
    with pytest.raises(BadParametersError, match="^B must be a DivClass"):
        verify_necessity(lat, (0, 1))


def test_repr_names_an_int_past_the_digit_limit_by_its_size():
    limit = (getattr(sys, "get_int_max_str_digits", int)()
             or pytest.skip("this interpreter has no int-to-str digit limit"))
    big = 10 ** (limit + 700)
    bits = f"<an int of {big.bit_length()} bits>"
    assert repr(DivClass((big, 0))) == f"DivClass(coords=({bits}, 0))"
    assert repr(DivClass((big,))) == f"DivClass(coords=({bits},))"
    lat = Lattice([[4, big], [big, 4]], ("h", "B"), (1, 0))
    assert repr(lat) == (f"Lattice(gram=((4, {bits}), ({bits}, 4)), "
                         "labels=('h', 'B'), ample=DivClass(coords=(1, 0)), "
                         "k3=False)")
    assert repr(Assumption(DivClass((0, big)), AssumptionKind.EMPTY)) == (
        f"Assumption(subject=DivClass(coords=(0, {bits})), "
        "kind=<AssumptionKind.EMPTY: 'Empty'>, note='')")
    with pytest.raises(BadParametersError) as exc:
        CaseSpec(LAT, (), big)
    assert str(exc.value) == f"box must be between 16 and 256, got {bits}"
    with pytest.raises(BadParametersError) as exc:
        Constraint((0,) * 5, big, 0)
    assert str(exc.value) == f"unknown relation {bits}"
    assert repr_text([big, (big,), []]) == f"[{bits}, ({bits},), []]"
    # ordinary values print as repr() prints them
    assert repr(DivClass((3, -1))) == "DivClass(coords=(3, -1))"
    for value in (5, True, "x", (1,), [1, (2, "y")], AssumptionKind.EMPTY):
        assert repr_text(value) == repr(value)


def test_repr_text_passes_on_an_error_that_is_not_the_digit_limit():
    class Odd:
        def __repr__(self):
            raise ValueError("not a digit limit")

    for value in (Odd(), (1, Odd()), [Odd()]):
        with pytest.raises(ValueError, match="not a digit limit"):
            repr_text(value)


def test_no_record_passes_for_coordinates_or_a_cached_classification():
    # an LMInvariants is a tuple of six ints, but not class coordinates
    lm = LMInvariants(g=3, r=1, d=2, h0=4, chi_end=-2, rho=2)
    for expr in ({"op": "self", "a": lm}, {"op": "add", "args": lm}):
        with pytest.raises(MalformedScriptError):
            evaluate(expr, LAT)
    # a plain tuple equal to a classification is not its cache entry
    lat = quartic_lattice(-2, 2)
    cls = is_initialized_acm(lat, B)
    assert derived_assumptions(lat, B, cls)
    with pytest.raises(AttributeError):
        derived_assumptions(lat, B, tuple(cls))


BAD = [
    (lambda: DivClass((1.5, 0)), BadParametersError,
     "class coordinates must be ints, got (1.5, 0)"),
    (lambda: Assumption((0, 1), AssumptionKind.EMPTY), BadParametersError,
     "a fact's subject must be a DivClass, got (0, 1)"),
    (lambda: Assumption(B, "Empty"), BadParametersError,
     "a fact's kind must be an AssumptionKind, got 'Empty'"),
    (lambda: Verdict(Effectivity.EMPTY), BadParametersError,
     "decided verdicts must carry a reason"),
    (lambda: BundleInvariants(0, B, 1), BadParametersError,
     "rank must be >= 1, got 0"),
    (lambda: Constraint((1, 2), ">=", 0), BadParametersError,
     "a constraint needs 5 integer coefficients and an integer bound, "
     "got (1, 2) and 0"),
    (lambda: Constraint((0,) * 5, "!=", 0), BadParametersError,
     "unknown relation '!='"),
    (lambda: CaseSpec(LAT, (), 8), BadParametersError,
     "box must be between 16 and 256, got 8"),
    (lambda: CaseSpec(LAT, (1,)), BadParametersError,
     "constraints must be a sequence of Constraints, got (1,)"),
    (lambda: AxiomUse("AX-NOPE"), MalformedScriptError,
     "unregistered axiom id 'AX-NOPE'"),
    (lambda: Conclusion("maybe"), MalformedScriptError,
     "unknown conclusion kind 'maybe'"),
    (lambda: Conclusion("established"), MalformedScriptError,
     "an established conclusion needs a statement"),
    # _replace builds through the same checks
    (lambda: Verdict(Effectivity.EMPTY, "r")._replace(reason=""),
     BadParametersError, "decided verdicts must carry a reason"),
    (lambda: BundleInvariants(2, B, 3)._replace(rank=0), BadParametersError,
     "rank must be >= 1, got 0"),
    (lambda: CON._replace(rel="!="), BadParametersError,
     "unknown relation '!='"),
    (lambda: CaseSpec(LAT, (CON,))._replace(box=300), BadParametersError,
     "box must be between 16 and 256, got 300"),
    (lambda: AxiomUse("AX-HODGE-INDEX")._replace(axiom_id="AX-NOPE"),
     MalformedScriptError, "unregistered axiom id 'AX-NOPE'"),
    (lambda: Conclusion("established", "s")._replace(statement=""),
     MalformedScriptError, "an established conclusion needs a statement"),
]


@pytest.mark.parametrize("build, error, text", BAD)
def test_each_checked_constructor_raises_its_error_and_text(build, error,
                                                            text):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == text


def test_only_the_claim_and_the_script_are_dataclasses():
    # the guard on the import cost: a @dataclass costs about 0.5-1 ms to
    # build, so no value class is one without a need for dataclasses.replace
    listed = {name for pkg in (k3acm, k3acm.casework)
              for _, name, _ in pkgutil.iter_modules(pkg.__path__,
                                                     pkg.__name__ + ".")}
    walked = {name: module for name, module in list(sys.modules.items())
              if name.startswith("k3acm.") or name == "k3acm"}
    assert listed - {"k3acm.__main__"} <= set(walked)
    found = sorted(f"{cls.__module__}.{cls.__qualname__}"
                   for name, module in walked.items()
                   for cls in vars(module).values()
                   if isinstance(cls, type) and cls.__module__ == name
                   and dataclasses.is_dataclass(cls))
    assert found == ["k3acm.casework.scripts.ArithClaim",
                     "k3acm.casework.scripts.DerivationScript"]
