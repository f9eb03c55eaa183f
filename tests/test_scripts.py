"""Derivation scripts: expression evaluation, replay and JSON round-trips."""

import json

import pytest

from k3acm import DivClass, Lattice, MalformedScriptError, WorkbenchError
from k3acm.casework import (ArithClaim, AxiomUse, CONTRADICTION, Conclusion,
                            DerivationScript, builtin_scripts, deg_of,
                            engine_assumptions, enumerate_destabilizing,
                            established, evaluate, genus_expr, pair_of,
                            quartic_lattice, report_to_json, run_script,
                            script_by_tag, script_from_json, script_to_json,
                            self_of, ulrich_assumptions)
from k3acm.errors import BadParametersError, EngineError

LAT = quartic_lattice(-2, 2)


def test_evaluate_atoms_and_lattice_ops():
    assert evaluate(7, LAT) == 7
    assert evaluate(self_of(DivClass((2, 2))), LAT) == 24
    assert evaluate(pair_of(DivClass((1, 0)), DivClass((0, 1))), LAT) == 2
    assert evaluate(deg_of(DivClass((2, 2))), LAT) == 12
    assert evaluate(genus_expr(DivClass((2, 2))), LAT) == 13
    assert evaluate({"op": "chi_of", "sq": -8}, LAT) == -2


def test_evaluate_bundle_ops():
    assert evaluate({"op": "chi_bundle", "rank": 2, "c1": [2, 2], "c2": 8},
                    LAT) == 8
    assert evaluate({"op": "chi_bundle", "rank": 2, "c1": [0, 0], "c2": 2},
                    LAT) == 2
    # c2 of the twist: 8 + C.(-K) + K^2 with K = h + B
    assert evaluate({"op": "c2_twist", "c2": 8, "c1": [2, 2], "by": [-1, -1]},
                    LAT) == 2
    assert evaluate({"op": "brill_noether", "g": 5, "r": 1, "d": 2}, LAT) == -3
    assert evaluate({"op": "hodge_lower", "a": 8, "b": 2}, LAT) == 4


def test_evaluate_arithmetic_ops():
    assert evaluate({"op": "add", "args": [1, 2, {"op": "neg", "x": 4}]},
                    LAT) == -1
    assert evaluate({"op": "mul", "args": [3, -2]}, LAT) == -6
    assert evaluate({"op": "sub", "x": 10, "y": 4}, LAT) == 6
    assert evaluate({"op": "odd_diag"}, LAT) == 0
    assert evaluate({"op": "sig_pos"}, LAT) == 1
    assert evaluate({"op": "sig_neg"}, LAT) == 1


def test_evaluate_minimax():
    # min over a of max(a + p, q - a); used for line-splitting degrees
    assert evaluate({"op": "minimax", "p": -1, "q": 0}, LAT) == 0
    assert evaluate({"op": "minimax", "p": 0, "q": 0}, LAT) == 0
    assert evaluate({"op": "minimax", "p": 3, "q": 5}, LAT) == 4
    for p in range(-4, 5):
        for q in range(-4, 5):
            want = min(max(a + p, q - a) for a in range(-20, 21))
            assert evaluate({"op": "minimax", "p": p, "q": q}, LAT) == want


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


def test_run_script_fails_an_expression_nested_past_the_recursion_limit():
    deep = 1
    for _ in range(5000):
        deep = {"op": "neg", "x": deep}
    claim = ArithClaim("deep", deep, "=", 1)
    report = run_script(DerivationScript(tag="t", lattice=LAT, steps=(claim,),
                                         conclusion=established("nothing")))
    assert report.failed == (0,)
    assert "recursion" in report.steps[0].detail


def test_axiom_steps_are_recorded_not_checked():
    steps = (AxiomUse("AX-SERRE", note="duality"),
             ArithClaim("pin", 1, "=", 1, contradicts="a fact"))
    report = run_script(DerivationScript(tag="t", lattice=LAT, steps=steps,
                                         conclusion=CONTRADICTION))
    assert report.steps[0].status == "AxiomUsed"
    assert report.success


def test_script_json_round_trip():
    for tag, script in builtin_scripts().items():
        blob = json.dumps(script_to_json(script))
        clone = script_from_json(json.loads(blob))
        assert clone == script, tag
        assert run_script(clone).success, tag


def test_script_json_rejects_unknown_keys_and_kinds():
    data = script_to_json(script_by_tag("gonality-2B"))
    data["surprise"] = 1
    with pytest.raises(MalformedScriptError):
        script_from_json(data)
    data = script_to_json(script_by_tag("gonality-2B"))
    data["steps"][0]["kind"] = "wish"
    with pytest.raises(MalformedScriptError):
        script_from_json(data)
    data = script_to_json(script_by_tag("gonality-2B"))
    data["steps"][0]["surprise"] = 1
    with pytest.raises(MalformedScriptError):
        script_from_json(data)


def test_script_json_rejects_non_integer_coordinates():
    # a float or bool must not be truncated into a valid-looking lattice
    for bad in (4.9, 4.0, True):
        data = script_to_json(script_by_tag("case-B2neg2-Bh2"))
        data["lattice"]["gram"][0][0] = bad
        with pytest.raises(MalformedScriptError, match="gram"):
            script_from_json(data)
        data = script_to_json(script_by_tag("case-B2neg2-Bh2"))
        data["lattice"]["ample"] = [bad, 0]
        with pytest.raises(MalformedScriptError, match="coordinates"):
            script_from_json(data)
        for op in ("self", "deg", "genus"):
            with pytest.raises(MalformedScriptError, match="coordinates"):
                evaluate({"op": op, "a": [bad, 0]}, LAT)
        with pytest.raises(MalformedScriptError, match="coordinates"):
            evaluate({"op": "pair", "a": [1, 0], "b": [0, bad]}, LAT)
    with pytest.raises(MalformedScriptError, match="coordinates"):
        evaluate({"op": "self", "a": "10"}, LAT)
    assert evaluate({"op": "self", "a": [1, 0]}, LAT) == LAT.gram[0][0]


def test_script_with_a_float_class_fails_on_replay():
    data = script_to_json(script_by_tag("case-B2neg2-Bh2"))
    tampered = 0
    for step in data["steps"]:
        side = step.get("lhs")
        if isinstance(side, dict) and side.get("op") == "self":
            side["a"] = [float(x) + 0.5 for x in side["a"]]
            tampered += 1
    assert tampered
    report = run_script(script_from_json(data))
    assert not report.success
    assert len(report.failed) >= tampered


def test_tampered_claim_fails_on_replay():
    data = script_to_json(script_by_tag("case-B2neg2-Bh2"))
    # flip one verified equality to a false one
    for step in data["steps"]:
        if step["kind"] == "arith" and step["rel"] == "=":
            step["rhs"] = 1000
            break
    report = run_script(script_from_json(data))
    assert not report.success
    assert report.failed


def test_report_json_shape():
    report = run_script(script_by_tag("case-B2neg2-Bh1"))
    data = json.loads(json.dumps(report_to_json(report)))
    assert data["status"] == "Success"
    assert data["conclusion"]["kind"] == "contradiction"
    assert all(s["status"] in ("Verified", "AxiomUsed") for s in data["steps"])
    assert len(data["steps"]) == len(report.steps)


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


# tag -> (presentation, curve class, pencil degree, engine mode)
ENGINE_CASES = {
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


def test_pencil_scripts_refuse_open_branches():
    from k3acm.casework import casebook
    # the general sweep of the Ulrich double class leaves two profiles open
    case = casebook.Case("gap", casebook._script_pencil, (4, 6),
                         curve=DivClass((0, 2)), pencil=(4, "general"))
    with pytest.raises(EngineError, match="open"):
        case.script()


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


def test_script_by_tag_matches_the_all_rows_build():
    from k3acm.casework.casebook import CASES
    scripts = builtin_scripts()
    for case in CASES:
        fresh = script_to_json(case.build(case))
        assert script_to_json(script_by_tag(case.tag)) == fresh, case.tag
        assert script_to_json(scripts[case.tag]) == fresh, case.tag
        assert scripts[case.tag] is script_by_tag(case.tag) is case.script()


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
        data = script_to_json(script_by_tag(tag))
        changed = sum(_tamper(step[side]) for step in data["steps"]
                      if step["kind"] == "arith" for side in ("lhs", "rhs"))
        assert changed, tag
        assert not run_script(script_from_json(data)).success, tag
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
    """The former scripts.evaluate, one if per op, verbatim but for names."""
    from k3acm.casework.scripts import _minimax
    from k3acm.invariants import (BundleInvariants, brill_noether, chi_bundle,
                                  chi_line, genus_of, hodge_lower)
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
    if op == "chi_of":
        return chi_line(ev(expr["sq"], lat))
    if op == "chi_bundle":
        inv = BundleInvariants(int(expr["rank"]), co(expr["c1"]),
                               ev(expr["c2"], lat))
        return chi_bundle(inv, lat)
    if op == "c2_twist":
        c1 = co(expr["c1"])
        by = co(expr["by"])
        return ev(expr["c2"], lat) + lat.pair(c1, by) + lat.self_int(by)
    if op == "brill_noether":
        return brill_noether(ev(expr["g"], lat), ev(expr["r"], lat),
                             ev(expr["d"], lat))
    if op == "hodge_lower":
        return hodge_lower(ev(expr["a"], lat), ev(expr["b"], lat))
    if op == "minimax":
        return _minimax(ev(expr["p"], lat), ev(expr["q"], lat))
    if op == "add":
        return sum(ev(x, lat) for x in expr["args"])
    if op == "mul":
        total = 1
        for x in expr["args"]:
            total *= ev(x, lat)
        return total
    if op == "sub":
        return ev(expr["x"], lat) - ev(expr["y"], lat)
    if op == "neg":
        return -ev(expr["x"], lat)
    if op == "odd_diag":
        return sum(lat.gram[i][i] % 2 for i in range(lat.rank))
    if op == "sig_pos":
        return lat.signature()[0]
    if op == "sig_neg":
        return lat.signature()[1]
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
    from k3acm.casework.scripts import _OPS
    from k3acm.errors import PreconditionError
    claims = [st for script in builtin_scripts().values()
              for st in script.steps if isinstance(st, ArithClaim)]
    for lat, facts, c, d, mode in _grid():
        try:
            records = enumerate_destabilizing(lat, c, d, facts, mode=mode)
        except PreconditionError:
            continue
        claims += [cl for rec in records for cl in rec.trace]
    used = set().union(*(_ops_of(side) for cl in claims
                         for side in (cl.lhs, cl.rhs)))
    assert used == set(_OPS)
    assert len(_OPS) == 17
