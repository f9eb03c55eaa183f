"""Derivation scripts: expression evaluation, replay and report JSON."""

import copy
import json
import operator
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from k3acm import DivClass, Lattice, MalformedScriptError, WorkbenchError
from k3acm.casework import (ArithClaim, AxiomUse, CONTRADICTION, Conclusion,
                            DerivationReport, DerivationScript,
                            builtin_scripts, deg_of,
                            engine_assumptions, enumerate_destabilizing,
                            established, evaluate, genus_expr, pair_of,
                            quartic_lattice, report_text, report_to_json,
                            run_script, script_by_tag, self_of,
                            ulrich_assumptions)
from k3acm.casework.scripts import (StepReport, _args, _coords, add_expr,
                                    bn_expr, c2_twist_expr, chi_bundle_expr,
                                    chi_expr, mul_expr, neg_expr, sub_expr)
from k3acm.errors import (BadParametersError, EngineError, OddSquareError,
                          PreconditionError)
from k3acm.invariants import (BundleInvariants, brill_noether, chi_bundle,
                              genus_of)

LAT = quartic_lattice(-2, 2)


def test_evaluate_atoms_and_lattice_ops():
    assert evaluate(7, LAT) == 7
    assert evaluate(self_of(DivClass((2, 2))), LAT) == 24
    assert evaluate(pair_of(DivClass((1, 0)), DivClass((0, 1))), LAT) == 2
    assert evaluate(deg_of(DivClass((2, 2))), LAT) == 12
    assert evaluate(genus_expr(DivClass((2, 2))), LAT) == 13
    # chi(O(D)) is written as genus(D) + 1: 2 + 24/2 and 2 - 8/2
    assert evaluate(chi_expr(DivClass((2, 2))), LAT) == 14
    assert evaluate(chi_expr(DivClass((0, 2))), LAT) == -2
    with pytest.raises(MalformedScriptError,
                       match="unknown expression op 'chi_of'"):
        evaluate({"op": "chi_of", "sq": -8}, LAT)


def test_evaluate_bundle_ops():
    assert evaluate(chi_bundle_expr(DivClass((2, 2)), 8), LAT) == 8
    assert evaluate(chi_bundle_expr(DivClass((0, 0)), 2), LAT) == 2
    # c2 of the twist: 8 + C.(-K) + K^2 with K = h + B
    assert evaluate(c2_twist_expr(8, DivClass((2, 2)), DivClass((-1, -1))),
                    LAT) == 2
    assert evaluate(bn_expr(5, 1, 2), LAT) == -3


def test_the_bundle_builders_match_the_invariants_they_abbreviate():
    # the builders write chi(E), c2(E(L)) and rho in the kept ops; the
    # closed forms of k3acm.invariants are their oracle, on the seven
    # quartic presentations, their +/-1 Gram mutants (where c1^2 can be
    # odd, and both sides must then raise OddSquareError) and the rank-8
    # lattice
    import random
    from k3acm.casework import delpezzo_lattice
    from k3acm.classifier import WINDOWS
    from k3acm.errors import OddSquareError
    from k3acm.invariants import chern_twist

    def outcome(fn):
        try:
            return fn()
        except WorkbenchError as exc:
            return type(exc)

    rng = random.Random(29)
    lattices = [variant for key in WINDOWS
                for variant in _gram_mutants(quartic_lattice(*key))]
    seen = set()
    for lat in lattices + [delpezzo_lattice()]:
        for _ in range(12):
            c1, by = (DivClass([rng.randint(-3, 3) for _ in range(lat.rank)])
                      for _ in range(2))
            c2, g, r, d = (rng.randint(-20, 20) for _ in range(4))
            bundle = BundleInvariants(2, c1, c2)
            for expr, oracle in (
                    (bn_expr(g, r, d), lambda: brill_noether(g, r, d)),
                    (bn_expr(genus_expr(c1), r, d), lambda: brill_noether(
                        genus_of(lat.self_int(c1)), r, d)),
                    (chi_bundle_expr(c1, c2), lambda: chi_bundle(bundle, lat)),
                    (c2_twist_expr(c2, c1, by),
                     lambda: chern_twist(bundle, by, lat).c2)):
                want = outcome(oracle)
                assert outcome(lambda: evaluate(expr, lat)) == want, expr
                seen.add(want if isinstance(want, type) else int)
    assert seen == {int, OddSquareError}, seen


def test_evaluate_arithmetic_ops():
    # neg is written as sub(0, x)
    assert neg_expr(4) == {"op": "sub", "x": 0, "y": 4}
    assert evaluate({"op": "add", "args": [1, 2, neg_expr(4)]}, LAT) == -1
    with pytest.raises(MalformedScriptError,
                       match="unknown expression op 'neg'"):
        evaluate({"op": "neg", "x": 4}, LAT)
    assert evaluate({"op": "mul", "args": [3, -2]}, LAT) == -6
    assert evaluate({"op": "sub", "x": 10, "y": 4}, LAT) == 6


def test_evaluate_rejects_bad_expressions():
    with pytest.raises(MalformedScriptError):
        evaluate(True, LAT)
    with pytest.raises(MalformedScriptError):
        evaluate({"no-op": 1}, LAT)
    with pytest.raises(MalformedScriptError):
        evaluate({"op": "frobnicate"}, LAT)
    with pytest.raises(MalformedScriptError):
        evaluate("3", LAT)


@pytest.mark.parametrize("expr", [
    # the deleted ops, with or without their old keys, are unknown ops
    {"op": "mod", "x": 7, "m": 0},
    {"op": "mod", "x": 7, "m": 2.9},
    {"op": "mod", "x": 7, "m": True},
    {"op": "mod", "x": 7},
    {"op": "linf", "a": [3, -5]},
    {"op": "genus_value", "sq": 16},
    {"op": "hodge_lower", "a": 8, "b": 2},
    {"op": "odd_diag"},
    {"op": "sig_pos"},
    {"op": "sig_neg"},
    {"op": "chi_line", "a": [0, 1]},
    {"op": "lm_h0", "g": 11, "r": 1, "d": 6},
    {"op": "twist_chi", "l": 2, "ch": 12, "g": 13, "d": 8},
    {"op": "add", "args": 5},
    {"op": "mul", "args": 5},
    {"op": "add"},
    {"op": "pair", "a": [1, 0]},
    {"op": "self"},
    {"op": "sub", "x": 1},
    {"op": "chi_bundle", "rank": 2.7, "c1": [0, 0], "c2": 2},
    {"op": "chi_bundle", "rank": True, "c1": [0, 0], "c2": 2},
    {"op": "chi_bundle", "rank": "2", "c1": [0, 0], "c2": 2},
    {"op": "chi_bundle", "rank": 3, "c1": [0, 0], "c2": 2},
    {"op": "c2_twist", "c2": 8, "c1": [2, 2]},
    {"op": "brill_noether", "g": 5, "r": 1, "d": 2},
    {"op": "neg", "x": 4},
    {"op": "chi_of", "sq": -8},
    {"op": "minimax", "p": -1, "q": 0},
    {"op": "neg", "x": {"op": "chi_of"}},
    {"op": ["pair"], "a": [1, 0], "b": [0, 1]},
], ids=lambda expr: json.dumps(expr))
def test_malformed_expressions_fail_their_step(expr):
    with pytest.raises(MalformedScriptError):
        evaluate(expr, LAT)
    claim = ArithClaim("malformed", expr, "=", 0)
    report = run_script(DerivationScript(tag="t", lattice=LAT, steps=(claim,),
                                         conclusion=established("nothing")))
    assert not report.success
    assert report.failed == (0,)
    assert report.steps[0].detail.startswith("evaluation error")


def test_step_validation():
    with pytest.raises(MalformedScriptError):
        ArithClaim("bad rel", 1, "!=", 2)
    with pytest.raises(MalformedScriptError):
        AxiomUse("AX-NOT-REGISTERED")
    with pytest.raises(MalformedScriptError):
        Conclusion("maybe")
    with pytest.raises(MalformedScriptError):
        established("")


_CLAIM_FIELDS = ["label", "lhs", "rel", "rhs", "cite", "contradicts"]


def _program_of(claims, lat=LAT):
    """The replay program of a script of these claims on lat."""
    return DerivationScript("pinned", lat, claims,
                            established("pinned")).program


def test_a_claim_is_still_a_frozen_dataclass():
    import dataclasses
    lhs = {"op": "self", "a": [1, 0]}
    claim = ArithClaim("square of h", lhs, "=", 4, cite="pin", contradicts="")
    assert dataclasses.is_dataclass(claim)
    assert [f.name for f in dataclasses.fields(ArithClaim)] == _CLAIM_FIELDS
    assert claim == ArithClaim(label="square of h", lhs=lhs, rel="=", rhs=4,
                               cite="pin")
    assert repr(claim) == (
        "ArithClaim(label='square of h', lhs={'op': 'self', 'a': [1, 0]}, "
        "rel='=', rhs=4, cite='pin', contradicts='')")
    assert hash(ArithClaim("x", 1, "<", 2)) == hash(ArithClaim("x", 1, "<", 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        claim.rhs = 5
    # a script's program reads the sides: the lhs reads the lattice, so it
    # is a closure, and the rhs folds; the claim keeps its six fields alone
    lat = Lattice(gram=[[4, 6], [6, 4]], labels=("h", "B"), ample=(1, 0))
    lhs_of, rhs, index, label, rel, tail = _program_of([claim], lat)[0]
    assert lhs_of(lat) == 4 and type(rhs) is int and rhs == 4
    assert (index, label, rel, tail) == (0, "square of h", "=", " = 4")
    assert list(vars(claim)) == _CLAIM_FIELDS
    # replace builds through the same check, and a script of the new claim
    # reads its sides anew
    moved = replace(claim, rhs=5)
    assert (moved.rhs, moved.cite, list(vars(moved))) == (5, "pin",
                                                          _CLAIM_FIELDS)
    assert _program_of([moved], lat)[0][1:] == (5, 0, "square of h", "=",
                                                 " = 5")
    with pytest.raises(MalformedScriptError, match="unknown relation '!='"):
        replace(claim, rel="!=")


def test_contradiction_scripts_need_a_flagged_final_claim():
    claim = ArithClaim("plain", 1, "=", 1)
    with pytest.raises(MalformedScriptError):
        DerivationScript(tag="t", lattice=LAT, steps=(claim,),
                         conclusion=CONTRADICTION)
    flagged = ArithClaim("flagged", 1, "=", 1, contradicts="the cited fact")
    script = DerivationScript(tag="t", lattice=LAT, steps=(claim, flagged),
                              conclusion=CONTRADICTION)
    assert run_script(script).success


def test_run_script_reports_failures_without_raising():
    good = ArithClaim("true claim", self_of(DivClass((0, 1))), "=", -2)
    bad = ArithClaim("false claim", deg_of(DivClass((0, 1))), "=", 99)
    script = DerivationScript(tag="t", lattice=LAT, steps=(good, bad),
                              conclusion=established("nothing"))
    report = run_script(script)
    assert not report.success
    assert report.failed == (1,)
    assert report.steps[0].status == "Verified"
    assert report.steps[1].status == "FAILED"
    assert "99" in report.steps[1].detail


def test_run_script_turns_evaluation_errors_into_failed_steps():
    odd = Lattice(gram=[[1]], labels=("x",), ample=DivClass((1,)))
    claim = ArithClaim("genus of an odd square", genus_expr(DivClass((1,))),
                       "=", 1)
    script = DerivationScript(tag="t", lattice=odd, steps=(claim,),
                              conclusion=established("nothing"))
    report = run_script(script)
    assert not report.success
    assert "evaluation error" in report.steps[0].detail


@pytest.mark.parametrize("rhs", ["lhs", 1], ids=["verified", "false"])
def test_a_claim_past_the_int_digit_limit_is_a_failed_step(rhs):
    # the detail of a claim whose values str() refuses (ValueError past
    # sys.get_int_max_str_digits) is an evaluation error, not a traceback;
    # so is the error of an odd square whose text would print the square,
    # and a literal rhs, whose text the replay program writes once
    limit = (getattr(sys, "get_int_max_str_digits", int)()
             or pytest.skip("this interpreter has no int-to-str digit limit"))
    big = 10 ** (limit // 2 + 1)
    lat = Lattice(gram=[[4, big], [big, 1]], labels=("h", "B"),
                  ample=DivClass((1, 0)), k3=False)
    hb = pair_of(DivClass((1, 0)), DivClass((0, 1)))
    wide = mul_expr(hb, hb, 2)  # 2 big^2: limit + 3 digits, even
    claims = (ArithClaim("wide", wide, "=", wide if rhs == "lhs" else rhs),
              ArithClaim("odd", genus_expr(DivClass((1, big))), "=", 0),
              ArithClaim("literal", 0, "<", big * big),
              ArithClaim("narrow", hb, "=", big))
    report = run_script(DerivationScript(
        tag="t", lattice=lat, steps=claims, conclusion=established("-")))
    assert report.failed == (0, 1, 2)
    for step in report.steps[:3]:
        assert step.status == "FAILED"
        assert step.detail.startswith("evaluation error: ")
        assert f"({limit} digits)" in step.detail
    assert report.steps[3].status == "Verified"
    assert report_text(report) == json.dumps(report_to_json(report))


def test_run_script_fails_an_expression_nested_past_the_recursion_limit():
    deep = 1
    for _ in range(5000):
        deep = {"op": "sub", "x": 0, "y": deep}
    claim = ArithClaim("deep", deep, "=", 1)
    report = run_script(DerivationScript(tag="t", lattice=LAT, steps=(claim,),
                                         conclusion=established("nothing")))
    assert report.failed == (0,)
    assert "recursion" in report.steps[0].detail


@pytest.mark.parametrize("wrap", [
    lambda x: {"op": "add", "args": [x, 1]},
    lambda x: {"op": "mul", "args": [x, -1]},
    lambda x: {"op": "sub", "x": x, "y": 1},
    # the lattice read keeps every level a closure, nested 400 deep at replay
    lambda x: {"op": "sub", "x": x, "y": {"op": "self", "a": [0, 0]}},
], ids=["add", "mul", "sub", "sub-closure"])
def test_run_script_replays_a_deep_claim_that_evaluate_reaches(wrap):
    deep = 4  # every wrapper keeps a valid value
    for _ in range(400):
        deep = wrap(deep)
    value = evaluate(deep, LAT)
    claim = ArithClaim("deep", deep, "=", value)
    report = run_script(DerivationScript(tag="t", lattice=LAT, steps=(claim,),
                                         conclusion=established("nothing")))
    assert report.success, report.steps[0].detail


def test_every_pm1_mutant_of_the_rank8_lattice_fails_its_own_pin():
    # 16 diagonal and 56 symmetric off-diagonal mutants: each is refused
    # at construction or fails the claim that pins the entry it moved
    script = script_by_tag("delpezzo-cover")
    lat, names = script.lattice, script.lattice.labels
    mutants = replayed = 0
    for i in range(8):
        for j in range(i, 8):
            for delta in (1, -1):
                gram = [list(row) for row in lat.gram]
                gram[i][j] += delta
                gram[j][i] = gram[i][j]
                mutants += 1
                try:
                    wrong = Lattice(gram=gram, labels=names,
                                    ample=lat.ample, k3=False)
                except WorkbenchError:
                    continue
                replayed += 1
                report = run_script(script.with_lattice(wrong))
                pin = (f"presentation pin: square of {names[i]}" if i == j
                       else "presentation pin: the basis is orthogonal")
                assert not report.success, (i, j, delta)
                assert pin in {report.steps[k].label for k in report.failed}
    assert mutants == 72 and replayed > 60, (mutants, replayed)


def test_axiom_steps_are_recorded_not_checked():
    steps = (AxiomUse("AX-SERRE", note="duality"),
             ArithClaim("pin", 1, "=", 1, contradicts="a fact"))
    report = run_script(DerivationScript(tag="t", lattice=LAT, steps=steps,
                                         conclusion=CONTRADICTION))
    assert report.steps[0].status == "AxiomUsed"
    assert report.success


def _with_steps(script, edit):
    """The script with every step replaced by edit(step); edit returns a
    new step (dataclasses.replace) and leaves the shared one alone."""
    return replace(script, steps=tuple(map(edit, script.steps)))


def test_script_json_rejects_non_integer_coordinates():
    # a float or bool must not be truncated into a valid-looking class
    for bad in (4.9, 4.0, True):
        for op in ("self", "deg", "genus"):
            with pytest.raises(MalformedScriptError, match="coordinates"):
                evaluate({"op": op, "a": [bad, 0]}, LAT)
        with pytest.raises(MalformedScriptError, match="coordinates"):
            evaluate({"op": "pair", "a": [1, 0], "b": [0, bad]}, LAT)
    with pytest.raises(MalformedScriptError, match="coordinates"):
        evaluate({"op": "self", "a": "10"}, LAT)
    assert evaluate({"op": "self", "a": [1, 0]}, LAT) == LAT.gram[0][0]


def test_script_with_a_float_class_fails_on_replay():
    tampered = []

    def float_class(step):
        side = getattr(step, "lhs", None)
        if not (isinstance(side, dict) and side.get("op") == "self"):
            return step
        tampered.append(step.label)
        return replace(step, lhs={**side, "a": [float(x) + 0.5
                                                for x in side["a"]]})

    script = _with_steps(script_by_tag("case-B2neg2-Bh2"), float_class)
    assert tampered
    report = run_script(script)
    assert not report.success
    assert len(report.failed) >= len(tampered)


def test_tampered_claim_fails_on_replay():
    script = script_by_tag("case-B2neg2-Bh2")
    assert run_script(script).success
    # flip one verified equality to a false one
    i = next(i for i, st in enumerate(script.steps)
             if isinstance(st, ArithClaim) and st.rel == "=")
    steps = list(script.steps)
    steps[i] = replace(steps[i], rhs=1000)
    report = run_script(replace(script, steps=steps))
    assert not report.success
    assert report.failed == (i,)


def test_report_json_shape():
    report = run_script(script_by_tag("case-B2neg2-Bh1"))
    data = json.loads(json.dumps(report_to_json(report)))
    assert data["status"] == "Success"
    assert data["conclusion"]["kind"] == "contradiction"
    assert all(s["status"] in ("Verified", "AxiomUsed") for s in data["steps"])
    assert len(data["steps"]) == len(report.steps)


# each awkward for JSON: a quote, a backslash, a newline, a control
# character, a non-ASCII, an astral character and a lone surrogate
_AWKWARD = ('"', "\\", "\n", "\x01\x1f\x7f", "\u00e9", "\U0001d4b3",
            "\ud800", 'a "b" \\c\nd\te\u00e9\U0001f600\udfff')


# (kind, label, status, detail) of three steps as run_script writes them
_PLAIN_STEPS = (("axiom", "AX-SERRE", "AxiomUsed", ""),
                ("arith", "pin", "Verified", "4 = 4"),
                ("arith", "", "FAILED", "claim 1 = 2 is false"))


def _awkward_reports():
    """Hand-built reports whose every str field holds an awkward text."""
    for text in _AWKWARD:
        steps = tuple(
            StepReport(i, kind + text, label + text, status + text,
                       text + detail)
            for i, (kind, label, status, detail) in enumerate(_PLAIN_STEPS))
        for success in (True, False):
            yield DerivationReport(
                text, success, Conclusion("established", text), steps, (2,))
            yield DerivationReport(text, success, CONTRADICTION, steps[:1])


def test_report_text_is_json_dumps_of_report_to_json():
    # the oracle: every builtin script on its own lattice and rebound to
    # each +/-1 Gram mutant that keeps an ample class (for the rank-8
    # script too, so every mutant the verify-mutants workload's seeded
    # samples replay), hand-built reports with awkward text in every str
    # field, and an empty step tuple
    reports = [run_script(script.with_lattice(variant))
               for script in builtin_scripts().values()
               for variant in _gram_mutants(script.lattice)]
    assert len(reports) > 140
    assert {r.success for r in reports} == {True, False}
    reports += _awkward_reports()
    reports.append(DerivationReport("empty", True, established("x"), ()))
    for report in reports:
        assert report_text(report) == json.dumps(report_to_json(report))


def test_all_builtin_scripts_replay_to_success():
    scripts = builtin_scripts()
    assert sorted(scripts) == [
        "case-B20-Bh4", "case-B20-Bh4-mirror", "case-B24", "case-B24-mirror",
        "case-B2neg2-Bh1", "case-B2neg2-Bh2", "case-B2neg2-Bh2-mirror",
        "case-B2neg2-Bh3", "delpezzo-cover", "gonality-2B",
        "reduction-B20-Bh3", "reduction-B22-Bh5"]
    for tag, script in scripts.items():
        report = run_script(script)
        assert report.success, f"{tag}: {report.summary()}"
        assert report.tag == tag == script.tag


def test_the_summary_counts_claims_and_axioms_of_the_script():
    cited = set()
    for tag, script in builtin_scripts().items():
        claims = sum(isinstance(st, ArithClaim) for st in script.steps)
        axioms = sum(isinstance(st, AxiomUse) for st in script.steps)
        cited.add(axioms)
        assert run_script(script).summary() == (
            f"{tag}: Success ({claims} claims verified, {axioms} axioms "
            "cited)")
    assert cited == {0, 1, 2, 3, 4}


# tag -> (presentation, curve class, pencil degree, engine mode)
ENGINE_CASES = {
    "case-B2neg2-Bh1": ((-2, 1), (3, -2), 6, "general"),
    "case-B2neg2-Bh2": ((-2, 2), (2, 2), 8, "exact"),
    "case-B2neg2-Bh2-mirror": ((-2, 2), (4, -2), 8, "exact"),
    "case-B2neg2-Bh3": ((-2, 3), (4, -2), 2, "exact"),
    "case-B20-Bh4": ((0, 4), (1, 2), 6, "general"),
    "case-B20-Bh4-mirror": ((0, 4), (5, -2), 6, "general"),
    "case-B24": ((4, 6), (0, 2), 4, "exact"),
    "case-B24-mirror": ((4, 6), (6, -2), 4, "exact"),
    "gonality-2B": ((4, 6), (0, 2), 4, "gonality"),
}


def test_pencil_scripts_close_with_the_engine_traces():
    scripts = builtin_scripts()
    for tag, (presentation, curve, d, mode) in ENGINE_CASES.items():
        lat = quartic_lattice(*presentation)
        base = ulrich_assumptions(lat) if presentation == (4, 6) else ()
        records = enumerate_destabilizing(lat, DivClass(curve), d,
                                          engine_assumptions(lat, base),
                                          mode=mode)
        flat = [cl for rec in records for cl in rec.trace]
        steps = list(scripts[tag].steps)
        if tag == "gonality-2B":
            assert steps.pop().label == "the restriction pencil attains the floor"
        header, body = steps[:-len(flat)], steps[-len(flat):]
        assert body == flat, tag
        assert [st.label for st in header[:3]] == [
            "presentation pin: square of h", "presentation pin: square of B",
            "presentation pin: pairing h.B"], tag
        assert any(isinstance(st, AxiomUse) for st in header), tag
        assert scripts[tag].lattice == lat


def test_the_twist_scripts_cite_its_premises_and_trace_alone():
    from k3acm.casework.casebook import _BY_TAG
    for tag in ("case-B2neg2-Bh2", "case-B2neg2-Bh2-mirror"):
        case, script = _BY_TAG[tag], script_by_tag(tag)
        assert case.curve is not None and not case.support
        report = run_script(script)
        assert report.summary() == (
            f"{tag}: Success (11 claims verified, 2 axioms cited)")
        assert [st.axiom_id for st in script.steps
                if isinstance(st, AxiomUse)] == ["AX-TWIST-MONO",
                                                 "AX-RK2-SELFDUAL"]
        assert "self-dual twist" in script.description
        assert "exhausting" not in script.description
        # the engine's four claims alone catch every +/-1 Gram mutant
        trace = replace(script, steps=script.steps[-4:])
        assert trace.steps[0].label == (
            "the twisted first Chern class squares to zero")
        assert run_script(trace).success
        clean, *mutants = _gram_mutants(script.lattice)
        assert len(mutants) == 6
        for wrong in mutants:
            assert not run_script(trace.with_lattice(wrong)).success, wrong
    from k3acm.casework import casebook
    assert not hasattr(casebook, "_script_twist_chain")


def test_the_line_script_cites_its_premises_and_trace_alone():
    from k3acm.casework import casebook
    from k3acm.config import data_path, load_config
    script = script_by_tag("case-B2neg2-Bh1")
    case = casebook._BY_TAG["case-B2neg2-Bh1"]
    assert case.curve is not None and not case.support
    assert run_script(script).summary() == (
        "case-B2neg2-Bh1: Success (26 claims verified, 3 axioms cited)")
    assert [st.axiom_id for st in script.steps
            if isinstance(st, AxiomUse)] == [
        "AX-VA-DEGREE3", "AX-AMPLE-DEGREE1-IRREDUCIBLE", "AX-P1-SPLIT"]
    assert "to a line" in script.description
    assert not any(word in script.description
                   for word in ("twist with", "exhausting"))
    assert not hasattr(casebook, "_script_line_restriction")
    # the engine's five claims alone catch every +/-1 Gram mutant, on
    # (-2, 1) with L = B and on its basis-change twin (0, 3) with L = h - B
    for name, curve in (("quartic_b2neg2_bh1.json", (3, -2)),
                        ("quartic_b20_bh3.json", (1, 2))):
        lat, raw = load_config(data_path(name))
        (rec,) = enumerate_destabilizing(lat, DivClass(curve), 6,
                                         engine_assumptions(lat, raw),
                                         mode="general")
        assert rec.outcome == "line-restriction"
        if curve == (3, -2):
            assert list(script.steps[-5:]) == list(rec.trace)
        trace = DerivationScript(tag="line", lattice=lat,
                                 steps=list(rec.trace),
                                 conclusion=CONTRADICTION)
        assert run_script(trace).success
        clean, *mutants = _gram_mutants(lat)
        assert len(mutants) == 6
        for wrong in mutants:
            assert not run_script(trace.with_lattice(wrong)).success, wrong


def test_every_survivor_row_is_an_engine_row(monkeypatch):
    # one way to eliminate a survivor: every row with a curve is built by
    # _script_pencil, and the one support among them is the gonality row
    from k3acm.casework import casebook
    built = []
    monkeypatch.setattr(casebook, "_SCRIPTS", {})
    monkeypatch.setattr(casebook, "_script_pencil",
                        lambda case: built.append(case.tag))
    pencils = [case for case in casebook.CASES if case.curve is not None]
    for case in casebook.CASES:
        case.script()
    assert built == [case.tag for case in pencils]
    assert [case.tag for case in casebook.CASES
            if case.support] == ["gonality-2B"]
    survivors = [case for case in pencils if not case.support]
    assert len(survivors) == 8
    for case in survivors:
        assert case.mode in ("exact", "general"), case.tag


def test_each_survivor_script_sweeps_its_whole_c2_window():
    # a survivor dies only if its bundle dies at every c2 = d of the window
    # max(1, g - 5) <= d <= g + 7 - h.C
    from k3acm.casework.casebook import CASES
    rows = [case for case in CASES if case.mode not in (None, "gonality")]
    for case in rows:
        lat, mode = quartic_lattice(*case.presentation), case.mode
        facts = engine_assumptions(lat, ulrich_assumptions(lat))
        c2, hc = lat.self_int(case.curve), lat.deg(case.curve)
        g = genus_of(c2)
        steps = list(case.script().steps)
        at = 0
        for d in range(max(1, g - 5), g + 7 - hc + 1):
            flat = [cl for rec in enumerate_destabilizing(
                lat, case.curve, d, facts, mode) for cl in rec.trace]
            hits = [i for i in range(at, len(steps) - len(flat) + 1)
                    if steps[i:i + len(flat)] == flat]
            assert hits, (case.tag, d)
            at = hits[0] + len(flat)
        assert at == len(steps), case.tag
    assert len(rows) == 8


def test_pencil_scripts_refuse_open_branches():
    from k3acm.casework import casebook
    # the general sweep of the Ulrich double class leaves two profiles open
    case = casebook.Case("gap", (4, 6), DivClass((0, 2)), "general")
    with pytest.raises(EngineError, match="open"):
        case.script()


def test_pencil_scripts_refuse_a_nonnegative_brill_noether_number():
    from k3acm.casework import casebook
    # C = h on (0, 3) with d = 3: g = 3 and rho(3, 1, 3) = 1, yet every
    # branch of the sweep closes; the header would cite a negative number
    case = casebook.Case("t", (0, 3), DivClass((1, 0)), "exact")
    lat = quartic_lattice(0, 3)
    records = enumerate_destabilizing(
        lat, case.curve, 3, engine_assumptions(lat, ()), mode="exact")
    assert all(rec.resolved for rec in records)
    with pytest.raises(EngineError, match=r"rho\(3, 1, 3\) = 1 >= 0"):
        case.script()


def test_pencil_scripts_check_rho_only_at_the_swept_d():
    from k3acm.casework import casebook
    # C = 2h on (0, 3), d = 4..8: the self-dual twist settles d = 4..7,
    # which needs no non-simple bundle, and only d = 8 is swept; the
    # refusal names rho(9, 1, 8) = 5 there, not rho(9, 1, 6) = 1 at a d
    # the twist settled
    case = casebook.Case("t", (0, 3), DivClass((2, 0)), "exact")
    lat = quartic_lattice(0, 3)
    facts = engine_assumptions(lat, ulrich_assumptions(lat))
    outcomes = [{rec.outcome for rec in enumerate_destabilizing(
                    lat, case.curve, d, facts, mode="exact")}
                for d in range(4, 9)]
    assert outcomes[:4] == [{"self-dual-twist"}] * 4
    assert "self-dual-twist" not in outcomes[4]
    with pytest.raises(EngineError) as raised:
        case.script()
    assert str(raised.value).startswith(
        "rho(9, 1, 8) = 5 >= 0: no script for C = (2, 0), d = 8 (exact)")


@pytest.mark.parametrize("mode", ["exact", "general"])
def test_pencil_scripts_refuse_an_empty_c2_window(mode, monkeypatch):
    from k3acm.casework import casebook
    # C = 4h on (0, 4): g = 33, h.C = 16, so [max(1, g - 5), g + 7 - h.C]
    # is [28, 24]; the row is refused by name before the engine runs
    def engine(*args):
        raise AssertionError("the engine ran on an empty window")

    monkeypatch.setattr(casebook, "enumerate_destabilizing", engine)
    case = casebook.Case("t", (0, 4), DivClass((4, 0)), mode)
    with pytest.raises(PreconditionError,
                       match=r"c2 window \[28, 24\] of C = \(4, 0\) on "
                             r"\(0, 4\) is empty"):
        case.script()



@pytest.mark.parametrize("presentation, curve, top", [
    ((0, 4), (1, 2), 6), ((4, 6), (6, -2), 4)])
def test_a_support_row_must_be_2b_at_the_window_top(presentation, curve,
                                                     top, monkeypatch):
    from k3acm.casework import casebook
    # a support row proves the floor that |B| attains on a member of |2B|:
    # another curve, or a B^2 below the window top, is refused by name
    # before the engine runs, not written up as the (4, 6) floor
    shipped = casebook.script_by_tag("gonality-2B")
    assert shipped.steps[-1].rhs == 4 and shipped.description == (
        "Degree floor for pencils on curves in |2B| on the (4, 6) "
        "configuration.")

    def engine(*args):
        raise AssertionError("the engine ran on a refused support row")

    monkeypatch.setattr(casebook, "enumerate_destabilizing", engine)
    case = casebook.Case("t", presentation, DivClass(curve), "gonality")
    with pytest.raises(PreconditionError) as raised:
        case.script()
    b2 = presentation[0]
    assert str(raised.value) == (
        "support row t: the pencil floor needs C = 2B with B^2 = the c2 "
        f"window top, not C = {DivClass(curve)} with B^2 = {b2} and top "
        f"{top} on {presentation}")


def test_the_reductions_prove_a_change_of_basis_on_every_mutant():
    # det Gram(h, kh - B) = det Gram(h, B) is an identity in the Gram
    # entries, so the claim holds on every +/-1 mutant (a pin fails there);
    # with kh - 2B, which is no basis partner of h, it fails wherever the
    # determinant is nonzero
    from k3acm.casework.casebook import CASES
    from k3acm.classifier import WINDOWS
    details = {"reduction-B20-Bh3": "-9 = -9", "reduction-B22-Bh5": "-17 = -17"}
    for case in [case for case in CASES if case.reduces]:
        script = case.script()
        (i,) = [i for i, st in enumerate(script.steps)
                if st.label == "the substitution is a change of basis"]
        k = WINDOWS[case.presentation][1]
        text, partner = json.dumps(script.steps[i].lhs), json.dumps([k, -1])
        assert text.count(partner) == 3  # B'^2 and both h.B'
        steps = list(script.steps)
        steps[i] = replace(steps[i], lhs=json.loads(
            text.replace(partner, json.dumps([k, -2]))))
        broken = replace(script, steps=steps)
        for n, variant in enumerate(_gram_mutants(script.lattice)):
            report = run_script(script.with_lattice(variant))
            assert report.steps[i].status == "Verified", (case.tag, n)
            assert report.success == (n == 0), (case.tag, n)
            if n == 0:
                assert report.steps[i].detail == details[case.tag]
            (a, b), (_, c) = variant.gram
            if a * c - b * b:
                assert run_script(broken.with_lattice(variant)).steps[
                    i].status == "FAILED", (case.tag, n)
    assert sorted(details) == sorted(c.tag for c in CASES if c.reduces)


def test_contradiction_scripts_end_flagged():
    for tag, script in builtin_scripts().items():
        if script.conclusion.kind == "contradiction":
            final = script.steps[-1]
            assert isinstance(final, ArithClaim) and final.contradicts, tag


def test_unknown_script_tag():
    with pytest.raises(BadParametersError) as err:
        script_by_tag("no-such-tag")
    tags = sorted(builtin_scripts())
    assert len(tags) == 12
    assert str(err.value) == ("unknown script tag 'no-such-tag'; known: "
                              + ", ".join(tags))


def test_script_by_tag_matches_the_all_rows_build(monkeypatch):
    from k3acm.casework import casebook
    scripts = builtin_scripts()
    for case in casebook.CASES:
        assert scripts[case.tag] is script_by_tag(case.tag) is case.script()
    monkeypatch.setattr(casebook, "_SCRIPTS", {})  # each row built anew
    for case in casebook.CASES:
        fresh = case.script()
        assert fresh is not scripts[case.tag], case.tag
        assert script_by_tag(case.tag) == fresh, case.tag
        assert scripts[case.tag] == fresh, case.tag


def _tamper(expr):
    """Change every value inside an expression in place."""
    if not isinstance(expr, dict):
        return 0
    changed = 0
    for key, value in expr.items():
        if key == "op":
            continue
        if isinstance(value, list) and key == "args":
            changed += sum(_tamper(x) for x in value)
            value.append(1000)
        elif isinstance(value, list):
            value[0] += 1000
        elif isinstance(value, dict):
            changed += _tamper(value)
            continue
        else:
            expr[key] = value + 1000
        changed += 1
    return changed


def test_script_json_is_a_copy_of_the_shared_scripts():
    for tag in sorted(builtin_scripts()):
        shared = script_by_tag(tag)
        assert run_script(shared).success, tag  # its program is built
        changed = [0]

        def tampered(step):
            if not isinstance(step, ArithClaim):
                return step
            lhs, rhs = copy.deepcopy(step.lhs), copy.deepcopy(step.rhs)
            changed[0] += _tamper(lhs) + _tamper(rhs)
            return replace(step, lhs=lhs, rhs=rhs)

        script = _with_steps(shared, tampered)
        assert changed[0], tag
        assert not run_script(script).success, tag
    for tag, script in builtin_scripts().items():
        report = run_script(script_by_tag(tag))
        assert report.success, f"{tag}: {report.summary()}"
        assert script is script_by_tag(tag)


def test_run_script_is_deterministic():
    script = script_by_tag("case-B24")
    assert run_script(script) == run_script(script)


# ---- the former if-chain evaluate, kept as the oracle of the op table ------

def _oracle_coords(value) -> DivClass:
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise MalformedScriptError(
            f"class coordinates must be a list of ints, got {value!r}")
    return DivClass(value)


def _oracle_evaluate(expr, lat):
    """The former scripts.evaluate, one if per op, verbatim but for names,
    on the ops the language keeps."""
    from k3acm.invariants import genus_of
    ev, co = _oracle_evaluate, _oracle_coords
    if isinstance(expr, bool):
        raise MalformedScriptError("boolean is not a valid expression")
    if isinstance(expr, int):
        return expr
    if not isinstance(expr, dict) or "op" not in expr:
        raise MalformedScriptError(f"bad expression: {expr!r}")
    op = expr["op"]
    if op == "pair":
        return lat.pair(co(expr["a"]), co(expr["b"]))
    if op == "self":
        return lat.self_int(co(expr["a"]))
    if op == "deg":
        return lat.deg(co(expr["a"]))
    if op == "genus":
        return genus_of(lat.self_int(co(expr["a"])))
    if op == "add":
        return sum(ev(x, lat) for x in expr["args"])
    if op == "mul":
        total = 1
        for x in expr["args"]:
            total *= ev(x, lat)
        return total
    if op == "sub":
        return ev(expr["x"], lat) - ev(expr["y"], lat)
    raise MalformedScriptError(f"unknown expression op {op!r}")


def _gram_mutants(lat):
    """lat and every lattice one +/-1 change of a diagonal entry or of a
    symmetric off-diagonal pair away from it that still has an ample class."""
    out = [lat]
    n = lat.rank
    for i in range(n):
        for j in range(i, n):
            for delta in (1, -1):
                gram = [list(row) for row in lat.gram]
                gram[i][j] += delta
                if i != j:
                    gram[j][i] += delta
                try:
                    out.append(Lattice(gram=gram, labels=lat.labels,
                                       ample=lat.ample, k3=False))
                except WorkbenchError:
                    pass  # the ample square went nonpositive
    return out


def _value_or_error(evaluate_fn, expr, lat):
    try:
        return evaluate_fn(expr, lat)
    except WorkbenchError as exc:
        return type(exc)


def test_op_table_matches_the_if_chain_on_every_claim_and_mutant():
    from test_destabilize import _grid
    from k3acm.errors import PreconditionError
    claims = {}  # lattice -> the distinct sides of its claims, as JSON text
    for script in builtin_scripts().values():
        claims.setdefault(script.lattice, set()).update(
            json.dumps(side) for st in script.steps
            if isinstance(st, ArithClaim) for side in (st.lhs, st.rhs))
    for lat, facts, c, d, mode in _grid():
        try:
            records = enumerate_destabilizing(lat, c, d, facts, mode=mode)
        except PreconditionError:
            continue
        claims.setdefault(lat, set()).update(
            json.dumps(side) for rec in records for cl in rec.trace
            for side in (cl.lhs, cl.rhs))
    compared = errors = 0
    for lat, sides in claims.items():
        exprs = [json.loads(text) for text in sorted(sides)]
        for variant in _gram_mutants(lat):
            for expr in exprs:
                want = _value_or_error(_oracle_evaluate, expr, variant)
                assert _value_or_error(evaluate, expr, variant) == want, expr
                compared += 1
                errors += isinstance(want, type)
    assert len(claims) == 8  # the seven quartic lattices and the rank-8 one
    assert compared > 5000 and errors >= 10, (compared, errors)


def _ops_of(expr):
    """The op names in one expression tree."""
    if not isinstance(expr, dict):
        return set()
    ops = {expr["op"]}
    for key, value in expr.items():
        if key == "args":
            ops.update(*map(_ops_of, value))
        elif isinstance(value, dict):
            ops |= _ops_of(value)
    return ops


def test_the_proof_uses_every_op_and_no_other():
    from test_destabilize import _grid
    from k3acm.casework.scripts import _COMPILERS
    from k3acm.errors import PreconditionError
    claims = [st for script in builtin_scripts().values()
              for st in script.steps if isinstance(st, ArithClaim)]
    for lat, facts, c, d, mode in _grid():
        try:
            records = enumerate_destabilizing(lat, c, d, facts, mode=mode)
        except PreconditionError:
            continue
        claims += [cl for rec in records for cl in rec.trace]
    sides = [_ops_of(side) for cl in claims for side in (cl.lhs, cl.rhs)]
    assert set().union(*sides) == set(_COMPILERS)
    assert len(_COMPILERS) == 7
    # a side that reads no lattice entry certifies nothing, so each op must
    # also occur in a side that does
    read = set().union(*(ops for ops in sides if ops & set(_LEAF_OPS)))
    assert read == set(_COMPILERS), set(_COMPILERS) - read


# ---- the former evaluate, one handler per op, kept as an oracle -------------
# evaluate now compiles an expression and runs the closure once, so it and
# the compiled sides are one walker; this copy of the former handlers is
# the second implementation they are checked against.

def _former_evaluate(expr, lat):
    """The former scripts.evaluate, verbatim but for names and annotations,
    on the ops the language keeps."""
    if isinstance(expr, int):
        if isinstance(expr, bool):
            raise MalformedScriptError("boolean is not a valid expression")
        return expr
    if not isinstance(expr, dict) or "op" not in expr:
        raise MalformedScriptError(f"bad expression: {expr!r}")
    op = expr["op"]
    try:
        handler = _FORMER_OPS[op]
    except (KeyError, TypeError):
        raise MalformedScriptError(f"unknown expression op {op!r}") from None
    # handlers read their keys directly; nested evaluate calls convert
    # their own, so a KeyError here is a key missing from this expression
    try:
        return handler(expr, lat)
    except KeyError as exc:
        raise MalformedScriptError(
            f"{op!r} expression has no key {exc}") from None


def _former_pair(e, lat):
    return lat.pair_coords(_coords(e["a"]), _coords(e["b"]))


def _former_self(e, lat):
    a = _coords(e["a"])
    return lat.pair_coords(a, a)


def _former_deg(e, lat):
    return lat.pair_coords(lat.ample.coords, _coords(e["a"]))


def _former_add(e, lat):
    total = 0
    for x in _args(e):
        total += _former_evaluate(x, lat)
    return total


def _former_mul(e, lat):
    total = 1
    for x in _args(e):
        total *= _former_evaluate(x, lat)
    return total


_fev = _former_evaluate

_FORMER_OPS = {
    "pair": _former_pair,
    "self": _former_self,
    "deg": _former_deg,
    "genus": lambda e, lat: genus_of(_former_self(e, lat)),
    "add": _former_add,
    "mul": _former_mul,
    "sub": lambda e, lat: _fev(e["x"], lat) - _fev(e["y"], lat),
}


def test_each_op_is_defined_once():
    from k3acm.casework import scripts
    arithmetic = {"sub"} | set(scripts._FOLDS)
    assert len(arithmetic) == 3 and arithmetic < set(scripts._COMPILERS)
    gone = {"_pair", "_self", "_deg", "_chi_bundle", "_c2_twist", "_add",
            "_mul", "_compile_add", "_compile_mul", "_degree",
            "_whole_lattice", "_OPS", "_on_lattice", "_evaluated",
            "_evaluated_fold", "_compile_chi_bundle", "_compile_c2_twist",
            "_raising", "_Missing", "_child", "_minimax", "minimax_expr",
            "_APPLIED", "_applied", "hodge_expr"}
    assert not {name for name in gone if hasattr(scripts, name)}


# ---- the program's sides, with the former evaluate as their oracle ----------

def _outcome(fn, lat):
    """A side's int, or the class and text of the error it raises."""
    try:
        return fn(lat)
    except WorkbenchError as exc:
        return type(exc), str(exc)


def _run_side(side):
    """A program side as a function of the lattice: its closure, or a
    folded int returned as it is."""
    return (lambda lat: side) if type(side) is int else side


def test_compiled_sides_match_evaluate_on_every_claim_and_mutant():
    # the sides each builtin script's program holds, run on every +/-1
    # Gram mutant of its lattice
    compared = errors = 0
    for script in builtin_scripts().values():
        rows = [row for row in script.program if type(row) is tuple]
        assert len(rows) == sum(
            isinstance(st, ArithClaim) for st in script.steps), script.tag
        for variant in _gram_mutants(script.lattice):
            for row in rows:
                claim = script.steps[row[2]]
                for side, compiled in zip((claim.lhs, claim.rhs), row):
                    want = _outcome(lambda v: _former_evaluate(side, v),
                                    variant)
                    assert _outcome(_run_side(compiled),
                                    variant) == want, claim.label
                    # a side that reads no lattice entry is kept as its int
                    assert (type(compiled) is int) == (
                        not _ops_of(side) & set(_LEAF_OPS)), claim.label
                    assert _outcome(lambda v: evaluate(side, v),
                                    variant) == want, claim.label
                    compared += 1
                    errors += isinstance(want, tuple)
    assert any(s.lattice.rank == 8 for s in builtin_scripts().values())
    assert compared > 5000 and errors >= 10, (compared, errors)


def test_verified_details_are_the_sides_and_the_suffix_formatted_once():
    # every builtin script on its lattice and on each +/-1 Gram mutant:
    # a Verified step reads "lhs rel rhs", its sides from evaluate, and
    # "; impossible given ..." after it when the claim contradicts a fact
    verified = suffixed = 0
    for tag, script in sorted(builtin_scripts().items()):
        for lat in _gram_mutants(script.lattice):
            report = run_script(script.with_lattice(lat))
            for st, step in zip(script.steps, report.steps):
                if step.status != "Verified":
                    continue
                want = (f"{evaluate(st.lhs, lat)} {st.rel} "
                        f"{evaluate(st.rhs, lat)}")
                if st.contradicts:
                    want += "; impossible given " + st.contradicts
                    suffixed += 1
                assert step.detail == want, (tag, lat.gram, step.label)
                verified += 1
    assert verified >= 1900 and suffixed >= 300, (verified, suffixed)


_LEAF_OPS = ("pair", "self", "deg", "genus")
# op -> its subexpression keys
_NODE_OPS = {"sub": ("x", "y")}


def _random_class(rng):
    return [rng.randint(-3, 3) for _ in range(2)]


def _random_tree(rng, depth, random_class=_random_class):
    """A random expression over the 7 ops, on the classes random_class
    draws (rank 2 by default)."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return rng.randint(-9, 12)
        op = rng.choice(_LEAF_OPS)
        expr = {"op": op}
        if op in ("pair", "self", "deg", "genus"):
            expr["a"] = random_class(rng)
        if op == "pair":
            expr["b"] = random_class(rng)
        return expr
    op = rng.choice(sorted(_NODE_OPS) + ["add", "mul"])
    expr = {"op": op}
    if op in ("add", "mul"):
        expr["args"] = [_random_tree(rng, depth - 1, random_class)
                        for _ in range(rng.randint(0, 3))]
        return expr
    for key in _NODE_OPS[op]:
        expr[key] = _random_tree(rng, depth - 1, random_class)
    return expr


def _kernel_class(rng, rank):
    """A class of the given rank: zero, sparse, dense or with big entries."""
    style = rng.choice(("zero", "sparse", "dense", "big"))
    if style == "zero":
        return [0] * rank
    if style == "sparse":
        coords = [0] * rank
        coords[rng.randrange(rank)] = rng.choice((-2, -1, 1, 3))
        return coords
    bound = 10 ** 30 if style == "big" else 4
    return [rng.randint(-bound, bound) for _ in range(rank)]


def _random_lattice(rng, rank):
    """A lattice of the given rank on a random symmetric Gram matrix,
    sparse or dense, with big entries one time in three."""
    bound = 10 ** 20 if rng.random() < 0.3 else 6
    fill = rng.choice((0.3, 1.0))
    while True:
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                if rng.random() < fill:
                    gram[i][j] = gram[j][i] = rng.randint(-bound, bound)
        try:
            return Lattice(gram, labels=[f"e{i}" for i in range(rank)],
                           ample=_kernel_class(rng, rank))
        except WorkbenchError:
            pass  # the ample square is not positive


_SUB_KEYS = {key for keys in _NODE_OPS.values() for key in keys}


def _nodes(expr):
    """Every subexpression below the root, as (holder, place, node): the
    dict or args list holding it and its key or index there."""
    if not isinstance(expr, dict):
        return []
    out = []
    for key, value in expr.items():
        if key == "args" and isinstance(value, list):
            for i, x in enumerate(value):
                out.append((value, i, x))
                out += _nodes(x)
        elif isinstance(value, dict) or (isinstance(value, int)
                                         and key in _SUB_KEYS):
            out.append((expr, key, value))
            out += _nodes(value)
    return out


def _inject(rng, expr):
    """Break one node of the tree, at a random depth, in one of seven ways."""
    holders = _nodes(expr)
    if not holders:
        return expr
    holder, where, node = rng.choice(holders)
    kind = rng.choice(("bool", "float", "missing", "unknown", "args",
                       "scalar", "length"))
    if kind == "bool" or not isinstance(node, dict):
        holder[where] = True
        return expr
    classes = [k for k in ("a", "b") if k in node]
    if kind == "float" and classes:
        node[rng.choice(classes)] = [1.0, 0]
    elif kind == "length" and classes:
        node[rng.choice(classes)] = [1, 0, 0]
    elif kind == "missing" and len(node) > 1:
        del node[rng.choice(sorted(set(node) - {"op"}))]
    elif kind == "unknown":
        node["op"] = "frobnicate"
    elif kind == "args":
        holder[where] = {"op": rng.choice(("add", "mul")), "args": 5}
    elif kind == "scalar":
        holder[where] = {"op": "genus", "a": 5}
    else:
        holder[where] = {"op": "frobnicate"}
    return expr


_CLASS_KEYS = {"pair": ("a", "b"), "self": ("a",), "deg": ("a",),
               "genus": ("a",)}


def _former_read(expr):
    """_former_evaluate's walk without its arithmetic: it raises the
    MalformedScriptError of the first node that walk cannot read, reading a
    node's own keys and coordinates before its subexpressions in key order."""
    if isinstance(expr, int):
        if isinstance(expr, bool):
            raise MalformedScriptError("boolean is not a valid expression")
        return
    if not isinstance(expr, dict) or "op" not in expr:
        raise MalformedScriptError(f"bad expression: {expr!r}")
    op = expr["op"]
    try:
        _FORMER_OPS[op]
    except (KeyError, TypeError):
        raise MalformedScriptError(f"unknown expression op {op!r}") from None
    try:
        for key in _CLASS_KEYS.get(op, ()):
            _coords(expr[key])
        for x in _args(expr) if op in ("add", "mul") else ():
            _former_read(x)
        for key in _NODE_OPS.get(op, ()):
            _former_read(expr[key])
    except KeyError as exc:
        raise MalformedScriptError(
            f"{op!r} expression has no key {exc}") from None


def test_compiled_random_trees_match_evaluate_with_malformed_nodes():
    from k3acm.casework.scripts import _walk
    import random
    rng = random.Random(20201)
    lattices = _gram_mutants(LAT) + [
        quartic_lattice(4, 6),
        Lattice([[4, 2], [2, 1]], labels="hB", ample=(1, 0)),  # degenerate
        Lattice([[2, 1, 0], [1, -2, 0], [0, 0, -2]], labels="xyz",
                ample=(1, 0, 0))]

    def cases():
        for n in range(600):
            expr = _random_tree(rng, rng.randint(1, 5))
            for _ in range(n % 3):
                expr = _inject(rng, expr)
            yield expr, lattices
        # the Gram-entry kernel of the pairing ops against
        # Lattice.pair_coords (through _former_evaluate): classes of rank
        # 1 to 8 on two random lattices of their rank and on one each of
        # rank one less and one more
        for rank in range(1, 9):
            near = [_random_lattice(rng, rank), _random_lattice(rng, rank)]
            near += [_random_lattice(rng, r) for r in (rank - 1, rank + 1)
                     if r]
            for n in range(40):
                expr = _random_tree(rng, rng.randint(1, 4),
                                    lambda r: _kernel_class(r, rank))
                for _ in range(n % 3):
                    expr = _inject(rng, expr)
                yield expr, near

    seen, split = set(), {"well-formed": 0, "malformed": 0, "fault first": 0}
    for expr, on in cases():
        # a malformed tree raises its first unreadable node's error when it
        # compiles; a well-formed one runs as the former evaluate did
        try:
            _former_read(expr)
        except MalformedScriptError as exc:
            malformed = (MalformedScriptError, str(exc))
            with pytest.raises(MalformedScriptError) as raised:
                _walk(expr)
            assert str(raised.value) == malformed[1], json.dumps(expr)
        else:
            malformed, compiled = None, _run_side(_walk(expr))
        for lat in on:
            former = _outcome(lambda v: _former_evaluate(expr, v), lat)
            want = malformed or former
            if malformed is None:
                assert _outcome(compiled, lat) == want, json.dumps(expr)
                split["well-formed"] += 1
            elif isinstance(former, tuple) and former[0] is MalformedScriptError:
                assert former == want, json.dumps(expr)
                split["malformed"] += 1
            else:  # the former walk met a runtime error before the node
                split["fault first"] += 1
            assert _outcome(lambda v: evaluate(expr, v),
                            lat) == want, json.dumps(expr)
            seen.add(want[0] if isinstance(want, tuple) else int)
    # a reading error, an odd square and a rank mismatch are all the
    # errors the seven ops can raise
    names = {cls.__name__ for cls in seen if cls is not int}
    assert int in seen and names == {"MalformedScriptError", "OddSquareError",
                                     "DimensionMismatchError"}, names
    assert sum(split.values()) > 7000 and min(split.values()) > 0, split


@pytest.mark.parametrize("expr, message, former_on_odd", [
    ({"op": "add", "args": [genus_expr(DivClass((1, 0))),
                            {"op": "frobnicate"}]},
     "unknown expression op 'frobnicate'", OddSquareError),
    # x is read before the missing y
    ({"op": "sub", "x": {"op": "frobnicate"}},
     "unknown expression op 'frobnicate'", MalformedScriptError),
    ({"op": "sub", "x": genus_expr(DivClass((1, 0)))},
     "'sub' expression has no key 'y'", OddSquareError),
], ids=["add-genus-unknown", "sub-unknown-x-no-y", "sub-genus-no-y"])
def test_a_malformed_node_raises_the_same_error_on_every_lattice(
        expr, message, former_on_odd):
    odd = Lattice([[1, 0], [0, -2]], labels="hB", ample=(1, 0))
    # the former walk met the odd square of h first where it is walked first
    assert _outcome(lambda v: _former_evaluate(expr, v), odd)[0] \
        is former_on_odd
    for lat in (odd, LAT):
        with pytest.raises(MalformedScriptError) as raised:
            evaluate(expr, lat)
        assert str(raised.value) == message
        claim = ArithClaim("malformed", expr, "=", 0)
        report = run_script(DerivationScript(
            tag="t", lattice=lat, steps=(claim,),
            conclusion=established("nothing")))
        assert report.failed == (0,)
        assert report.steps[0].status == "FAILED"
        assert report.steps[0].detail == f"evaluation error: {message}"


def _bench_workloads():
    """k3bench/workloads.py, loaded from the checkout by its path."""
    import importlib.util
    import sys
    path = Path(__file__).resolve().parents[1] / "k3bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_k3bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_evaluate_matches_the_former_evaluate_on_every_bench_grid_claim():
    # the engine self-checks each claim it emits through evaluate, and the
    # benchmark re-checks destabilize-grid's output through it; so on one
    # pass over that grid every claim side must give, from evaluate, the
    # former evaluate's int
    from k3acm.config import load_config
    workloads = _bench_workloads()
    root = Path(__file__).resolve().parents[1]
    loaded, claims, literal = {}, 0, 0
    for name, curve, d, mode in workloads.destabilize_grid(root):
        if name not in loaded:
            lat, facts = load_config(root / "src" / "k3acm" / "data" / name)
            loaded[name] = lat, engine_assumptions(lat, facts)
        lat, facts = loaded[name]
        try:
            records = enumerate_destabilizing(lat, DivClass(curve), d, facts,
                                              mode=mode)
        except WorkbenchError:
            continue
        for claim in (cl for rec in records for cl in rec.trace):
            claims += 1
            for side in (claim.lhs, claim.rhs):
                value = evaluate(side, lat)
                assert type(value) is int, (name, curve, d, mode, side)
                assert value == _former_evaluate(side, lat), (
                    name, curve, d, mode, side)
                literal += not _ops_of(side) & set(_LEAF_OPS)
    assert claims == 4811 and literal > 7000, (claims, literal)


def test_literal_arithmetic_folds_and_lattice_reads_stay_closures():
    from k3acm.casework import scripts
    h = DivClass((1, 0))
    assert scripts._walk(sub_expr(add_expr(5, mul_expr(3, 2)), 4)) == 7
    assert scripts._walk(bn_expr(9, 1, 8)) == 5
    assert scripts._walk({"op": "mul", "args": []}) == 1
    # a mixed node carries its values as constants
    mixed = scripts._walk(add_expr(5, self_of(h), sub_expr(2, 1)))
    assert callable(mixed) and mixed(LAT) == 10
    assert callable(scripts._walk(sub_expr(1, deg_of(h))))
    # a program side that folds is its int, not a closure
    folded = scripts._walk(add_expr(5, 2))
    assert type(folded) is int and folded == 7
    claim = ArithClaim("folded", add_expr(5, 2), "=", add_expr(5, self_of(h)))
    lhs, rhs, *_, tail = _program_of([claim])[0]
    assert lhs == 7 and callable(rhs) and rhs(LAT) == 9 and tail == ""


def test_coords_keeps_its_accepted_set():
    # exact ints pass the one-pass type test; an int subclass other than
    # bool passes too, through _is_int, and reads as the same class
    class Coefficient(int):
        pass

    one = Coefficient(1)
    assert _coords([one, 0]) == _coords((1, 0)) == (1, 0)
    for expr, plain in (
            ({"op": "self", "a": [one, 0]}, self_of(DivClass((1, 0)))),
            ({"op": "deg", "a": (0, one)}, deg_of(DivClass((0, 1)))),
            ({"op": "pair", "a": [one, one], "b": [0, one]},
             pair_of(DivClass((1, 1)), DivClass((0, 1))))):
        assert evaluate(expr, LAT) == evaluate(plain, LAT) == _oracle_evaluate(
            plain, LAT), expr
    # what the former check refused, it still refuses with the same text
    for value in ([True, 0], [1.0, 0], ["1", 0], {1, 0}):
        with pytest.raises(MalformedScriptError) as want:
            _oracle_coords(value)
        for read in (_coords, lambda v: evaluate({"op": "self", "a": v}, LAT)):
            with pytest.raises(MalformedScriptError) as got:
                read(value)
            assert str(got.value) == str(want.value), value


def test_folding_and_the_kernel_cache_keep_the_errors():
    from k3acm.casework import scripts
    from k3acm.errors import DimensionMismatchError
    # a rank-3 class raises only when its pairing runs on the rank-2 LAT
    bad = self_of(DivClass((1, 0, 2)))
    bogus = add_expr(bad, {"op": "bogus"})
    for read in (scripts._walk, lambda e: evaluate(e, LAT)):
        with pytest.raises(MalformedScriptError,
                           match="unknown expression op 'bogus'"):
            read(bogus)
    alone = scripts._walk(bad)
    for run in (alone, lambda lat: evaluate(bad, lat)):
        with pytest.raises(DimensionMismatchError):
            run(LAT)
    # [True, 0] hashes and compares as (1, 0), whose kernel is cached
    assert evaluate({"op": "self", "a": [1, 0]}, LAT) == 4
    for op in ("self", "deg", "genus"):
        with pytest.raises(MalformedScriptError, match="list of ints"):
            evaluate({"op": op, "a": [True, 0]}, LAT)
    with pytest.raises(MalformedScriptError, match="list of ints"):
        evaluate({"op": "pair", "a": [1, 0], "b": (True, 0)}, LAT)
    # a rank-3 class on a rank-2 lattice, before and after its kernel is
    # cached, raises what Lattice.pair_coords raises for it
    wide = [1, 0, 2]
    rank3 = Lattice([[2, 1, 0], [1, -2, 0], [0, 0, -2]], labels="xyz",
                    ample=(1, 0, 0))
    for expr, on_rank3 in ((self_of(DivClass(wide)), -6),
                           ({"op": "deg", "a": wide}, 2),
                           ({"op": "pair", "a": wide, "b": [1, 0]}, None)):
        xy = [wide, expr.get("b", wide)] if expr["op"] != "deg" else [
            LAT.ample.coords, wide]
        with pytest.raises(DimensionMismatchError) as want:
            LAT.pair_coords(*xy)
        for _ in range(2):
            with pytest.raises(DimensionMismatchError) as got:
                evaluate(expr, LAT)
            assert str(got.value) == str(want.value)
            if on_rank3 is not None:
                assert evaluate(expr, rank3) == on_rank3
    assert scripts._pairing.cache_info().maxsize == scripts._KERNELS
    assert scripts._ample_pairing.cache_info().maxsize == scripts._KERNELS


def _reference_replay(script):
    """run_script as one former evaluate per side and one check_rel per
    claim."""
    from k3acm.casework import DerivationReport, scripts
    steps, failed = [], []
    for i, st in enumerate(script.steps):
        if isinstance(st, AxiomUse):
            steps.append(StepReport(i, "axiom", st.axiom_id, "AxiomUsed",
                                    st.note))
            continue
        try:
            lhs = _former_evaluate(st.lhs, script.lattice)
            rhs = _former_evaluate(st.rhs, script.lattice)
        except WorkbenchError as exc:
            failed.append(i)
            steps.append(StepReport(i, "arith", st.label, "FAILED",
                                    f"evaluation error: {exc}"))
            continue
        if scripts.check_rel(st.rel, lhs, rhs):
            detail = f"{lhs} {st.rel} {rhs}" + (
                f"; impossible given {st.contradicts}" if st.contradicts else "")
            steps.append(StepReport(i, "arith", st.label, "Verified", detail))
        else:
            failed.append(i)
            steps.append(StepReport(i, "arith", st.label, "FAILED",
                                    f"claim {lhs} {st.rel} {rhs} is false"))
    success = not failed and (script.conclusion.kind != "contradiction"
                              or steps[-1].status == "Verified")
    return DerivationReport(script.tag, success, script.conclusion,
                            tuple(steps), tuple(failed))


def _per_claim_replay(script):
    """run_script as it was before the replay program: a loop over the
    steps that reads each claim's sides through _walk (a folded value
    kept as a closure that returns it), runs both, and calls check_rel,
    looked up on the scripts module, once per claim."""
    from k3acm.casework import DerivationReport, scripts

    def compiled(expr):
        value = scripts._walk(expr)
        return (lambda lat: value) if type(value) is int else value

    lat = script.lattice
    reports, failed = [], []
    for i, st in enumerate(script.steps):
        if st.kind == "axiom":
            reports.append(StepReport(i, "axiom", st.axiom_id, "AxiomUsed",
                                      st.note))
            continue
        try:
            lhs_of, rhs_of = compiled(st.lhs), compiled(st.rhs)
            lhs = lhs_of(lat)
            rhs = rhs_of(lat)
        except (WorkbenchError, RecursionError) as exc:
            failed.append(i)
            reports.append(StepReport(i, "arith", st.label, "FAILED",
                                      f"evaluation error: {exc}"))
            continue
        suffix = (f"; impossible given {st.contradicts}" if st.contradicts
                  else "")
        if scripts.check_rel(st.rel, lhs, rhs):
            reports.append(StepReport(i, "arith", st.label, "Verified",
                                      f"{lhs} {st.rel} {rhs}{suffix}"))
        else:
            failed.append(i)
            reports.append(StepReport(i, "arith", st.label, "FAILED",
                                      f"claim {lhs} {st.rel} {rhs} is false"))
    success = not failed
    if script.conclusion.kind == "contradiction" and success:
        success = reports[-1].status == "Verified"
    return DerivationReport(tag=script.tag, success=success,
                            conclusion=script.conclusion,
                            steps=tuple(reports), failed=tuple(failed))


class _Shown(int):
    """An int-subclass literal, printed so that its detail tells it apart."""

    def __str__(self):
        return f"shown {int(self)}"


def _with_side(script, index, key, side):
    """The script with the side named key of its claim at index replaced."""
    return _with_steps(script, lambda st: replace(st, **{key: side})
                       if st is script.steps[index] else st)


def _nest(bottom, depth=400):
    deep = bottom
    for _ in range(depth):
        deep = {"op": "sub", "x": deep, "y": 1}
    return deep


def _replay_cases():
    """(case, script) to replay: every builtin script clean and rebound to
    each +/-1 Gram mutant and to a lattice of another rank, and each with
    its first claim's lhs and its last claim's rhs replaced by a malformed
    side, a well-formed 400-deep nest or an int-subclass literal."""
    rank3 = Lattice([[2, 1, 0], [1, -2, 0], [0, 0, -2]], labels="xyz",
                    ample=(1, 0, 0))
    malformed = {"unknown op": {"op": "frobnicate"},
                 "bool class": {"op": "self", "a": [True, 0]},
                 "deep unknown op": _nest({"op": "frobnicate"}),
                 "deep": _nest(self_of(DivClass((1, 0))))}
    for tag, script in sorted(builtin_scripts().items()):
        for variant in _gram_mutants(script.lattice):
            yield "mutant", script.with_lattice(variant)
        yield "other rank", script.with_lattice(rank3 if script.lattice.rank
                                                != 3 else LAT)
        claims = [i for i, st in enumerate(script.steps)
                  if isinstance(st, ArithClaim)]
        for index, key in ((claims[0], "lhs"), (claims[-1], "rhs")):
            for case, side in malformed.items():
                yield case, _with_side(script, index, key, side)
            value = evaluate(getattr(script.steps[index], key),
                             script.lattice)
            yield "int subclass", _with_side(script, index, key,
                                             _Shown(value))


def test_run_script_matches_the_evaluate_replay_on_every_mutant(
        monkeypatch):
    # whole DerivationReports, statuses, details and failed indices, from
    # run_script, the former per-claim loop and the former evaluate
    from k3acm.casework import scripts
    seen, replays, failures = {}, 0, 0
    for case, script in _replay_cases():
        report = run_script(script)
        if case == "mutant":
            replays += 1
            failures += not report.success
        assert report == _per_claim_replay(script), (case, script.tag)
        assert report == _reference_replay(script), (case, script.tag)
        assert report_to_json(report) == report_to_json(
            _reference_replay(script))
        assert all(type(step) is StepReport for step in report.steps)
        seen.setdefault(case, set()).update(
            step.detail.split(":")[0].split(" ")[0] for step in report.steps
            if step.status != "AxiomUsed")
    assert replays >= 140 and failures > 100, (replays, failures)
    assert seen["mutant"] >= {"claim", "evaluation"}
    assert seen["other rank"] >= {"evaluation"}
    for case in ("unknown op", "bool class", "deep unknown op"):
        assert "evaluation" in seen[case], case
    assert "shown" in seen["int subclass"]
    with pytest.raises(AttributeError):
        report.steps[0].status = "Verified"
    # a relation that never holds fails every claim of every script
    monkeypatch.setattr(scripts, "check_rel", lambda rel, lhs, rhs: False)
    for tag, script in sorted(builtin_scripts().items()):
        report = run_script(script)
        assert report == _per_claim_replay(script) == _reference_replay(
            script), tag
        assert not report.success and report.failed == tuple(
            i for i, st in enumerate(script.steps)
            if isinstance(st, ArithClaim)), tag


def _fresh_scripts():
    """Copies of the builtin scripts, and of their claims, that have never
    been replayed: a fresh script has no program yet, and an AxiomUse is
    a NamedTuple."""
    return [_with_steps(s, lambda st: replace(st) if isinstance(
                st, ArithClaim) else st._replace())
            for _, s in sorted(builtin_scripts().items())]


def _count_walk_roots(monkeypatch):
    """Patch scripts._walk to record each expression it is called on from
    outside itself (a claim side, not a nested node); returns the list."""
    from k3acm.casework import scripts
    roots, depth, walk = [], [0], scripts._walk

    def counting_walk(expr):
        if not depth[0]:
            roots.append(expr)
        depth[0] += 1
        try:
            return walk(expr)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(scripts, "_walk", counting_walk)
    return roots


def test_replay_compiles_each_claim_side_once_and_never_interprets(
        monkeypatch):
    from k3acm.casework import scripts
    fresh = _fresh_scripts()
    sides = 2 * sum(isinstance(st, ArithClaim)
                    for s in fresh for st in s.steps)
    roots, interpreted = _count_walk_roots(monkeypatch), []
    evaluate_ = scripts.evaluate

    def counting_evaluate(expr, lat):
        interpreted.append(expr)
        return evaluate_(expr, lat)

    monkeypatch.setattr(scripts, "evaluate", counting_evaluate)
    for script in fresh:
        assert run_script(script).success, script.tag
        assert run_script(script).success, script.tag
        mutant = _gram_mutants(script.lattice)[1]
        assert not run_script(script.with_lattice(mutant)).success, script.tag
    assert interpreted == []
    assert len(roots) == sides


def test_the_program_is_built_once_per_base_script(monkeypatch):
    # every builtin script rebound to each of its +/-1 Gram mutants and
    # each rebound script replayed twice: with_lattice builds the base
    # script's program and hands it on, so no rebound script builds one and
    # no claim side is read twice
    import functools
    fresh = _fresh_scripts()
    sides = 2 * sum(isinstance(st, ArithClaim)
                    for s in fresh for st in s.steps)
    roots, built = _count_walk_roots(monkeypatch), []
    build = DerivationScript.program.func

    def counting_build(script):
        built.append(script)
        return build(script)

    program = functools.cached_property(counting_build)
    program.__set_name__(DerivationScript, "program")
    monkeypatch.setattr(DerivationScript, "program", program)
    replays = 0
    for script in fresh:
        assert "program" not in vars(script), script.tag
        for lat in _gram_mutants(script.lattice):
            rebound = script.with_lattice(lat)
            assert rebound.program is script.program, script.tag
            first = run_script(rebound)
            assert run_script(rebound) == first, script.tag
            replays += 2
        assert len(script.program) == len(script.steps), script.tag
    assert list(map(id, built)) == list(map(id, fresh))
    assert len(roots) == sides, (len(roots), sides)
    assert replays >= 280, replays


def test_with_lattice_is_replace_of_the_lattice_alone():
    # every builtin script on its own lattice and on each +/-1 mutant: the
    # rebound script equals dataclasses.replace's, replays to the same
    # report, shares the claims and the replay program (and so its sides),
    # and leaves the original as it was
    from dataclasses import FrozenInstanceError
    def compiled(script):
        return [side for row in script.program if type(row) is tuple
                for side in row[:2]]

    rebinds = 0
    for tag, script in sorted(builtin_scripts().items()):
        run_script(script)
        fields, sides = dict(vars(script)), compiled(script)
        for lat in _gram_mutants(script.lattice):
            rebound = script.with_lattice(lat)
            reference = replace(script, lattice=lat)
            assert type(rebound) is DerivationScript
            assert rebound == reference and repr(rebound) == repr(reference)
            assert rebound.lattice is lat and rebound.steps is script.steps
            assert vars(rebound) == {**fields, "lattice": lat}
            assert run_script(rebound) == run_script(reference), tag
            assert all(map(operator.is_, compiled(rebound), sides)), tag
            assert vars(rebound)["program"] is script.program, tag
            with pytest.raises(FrozenInstanceError):
                rebound.lattice = script.lattice
            rebinds += 1
        assert vars(script) == fields, tag
        assert all(vars(script)[k] is v for k, v in fields.items()), tag
    assert rebinds >= 140, rebinds


def test_a_replayed_claim_holds_only_its_fields():
    # the program is the one place a claim's sides are read: replaying a
    # script, on its lattice and rebound to each +/-1 mutant, leaves no
    # cache on any of its claims
    claims = 0
    for tag, script in sorted(builtin_scripts().items()):
        run_script(script)
        for lat in _gram_mutants(script.lattice):
            run_script(script.with_lattice(lat))
        for st in script.steps:
            if isinstance(st, ArithClaim):
                assert list(vars(st)) == _CLAIM_FIELDS, (tag, st.label)
                claims += 1
    assert claims >= 100, claims


def test_replayed_pairings_read_the_gram_matrix_without_pair_coords(
        monkeypatch):
    # every pair, self, deg and genus node reads the Gram entries of a
    # lattice of its classes' rank itself, so a compiler that falls back on
    # Lattice.pair_coords for a same-rank lattice moves this count
    scripts = sorted(builtin_scripts().values(), key=lambda s: s.tag)
    runs = [s for script in scripts
            for s in (script, script.with_lattice(
                _gram_mutants(script.lattice)[1]))]
    calls = []
    pair_coords = Lattice.pair_coords

    def counting(self, x, y):
        calls.append((x, y))
        return pair_coords(self, x, y)

    monkeypatch.setattr(Lattice, "pair_coords", counting)
    reports = [run_script(s) for s in runs]
    assert sum(r.success for r in reports) == 12
    assert len(calls) == 0, len(calls)
