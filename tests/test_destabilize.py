"""The destabilizing-pair elimination engine on the four hard cases."""

import json
from collections import Counter

import pytest

from k3acm import (AcmStatus, Assumption, AssumptionKind, BadParametersError,
                   ConflictingAssumptionsError, DimensionMismatchError,
                   DivClass, NotEffectiveCandidateError, PreconditionError,
                   TrivialClassError, derived_assumptions, is_initialized_acm)
from k3acm.classifier import _NONEMPTY_KINDS, WINDOWS
from k3acm.casework import (MODES, PairElimination, elimination_to_json,
                            engine_assumptions, enumerate_destabilizing,
                            evaluate, quartic_lattice, ulrich_assumptions)
from k3acm.casework import destabilize
from k3acm.casework.scripts import add_expr, self_of
from k3acm.casework.constraints import check_rel
from k3acm.config import data_path, load_config, shipped_quartic_names
from k3acm.invariants import brill_noether, genus_of, hodge_lower

B = DivClass((0, 1))


def _facts(lat, base=()):
    cls = is_initialized_acm(lat, B, base)
    return tuple(derived_assumptions(lat, B, cls, base))


def _outcomes(records):
    return {(r.n_square, r.profile): r.outcome for r in records}


def _lens(records):
    return {(r.n_square, r.profile): r.len_zprime for r in records}


def _check_traces(lat, records):
    """Every claim the engine emitted must re-verify against the lattice."""
    for rec in records:
        assert rec.trace, (rec.n_square, rec.profile, rec.outcome)
        for cl in rec.trace:
            lhs = evaluate(cl.lhs, lat)
            rhs = evaluate(cl.rhs, lat)
            assert check_rel(cl.rel, lhs, rhs), cl.label


def test_degree2_pencil_case_exact():
    # square-8 curve class, pencil degree 2, Z' empty
    lat = quartic_lattice(-2, 3)
    records = enumerate_destabilizing(lat, DivClass((4, -2)), 2,
                                      _facts(lat), mode="exact")
    assert _outcomes(records) == {
        (0, None): "window-infeasible",
        (2, (5, 8)): "split-indecomposable",
        (4, None): "beyond-hodge-cap",
    }
    assert all(r.resolved for r in records)
    assert all(r.len_zprime == 0 for r in records)
    _check_traces(lat, records)
    # the fiber branch dies on 2 * 2 > 2: the doubled pairing bursts the budget
    fiber = next(r for r in records if r.n_square == 0)
    final = fiber.trace[-1]
    assert (evaluate(final.lhs, lat), final.rel,
            evaluate(final.rhs, lat)) == (4, ">", 2)


def test_degree6_pencil_case_general():
    # square-20 curve class, budget M.N + len(Z') = 6
    lat = quartic_lattice(0, 4)
    records = enumerate_destabilizing(lat, DivClass((1, 2)), 6,
                                      _facts(lat), mode="general")
    assert _outcomes(records) == {
        (0, (3, 0)): "very-ample-degree-floor",
        (0, (3, 1)): "pencil-restrict-degree",
        (0, (4, 0)): "pencil-restrict-degree",
        (0, (4, 1)): "ample-orthogonal-neg2",
        (0, (5, 0)): "very-ample-degree-floor",
        (0, (6, 0)): "very-ample-degree-floor",
        (2, (3, 2)): "one-connected-h1",
        (2, (4, 2)): "ample-orthogonal-neg2",
        (4, (5, 2)): "very-ample-degree-floor",
        (4, (6, 2)): "very-ample-degree-floor",
        (6, None): "beyond-hodge-cap",
    }
    lens = _lens(records)
    assert lens[(0, (3, 0))] == 3
    assert lens[(0, (3, 1))] == 1
    assert lens[(0, (4, 0))] == 2
    assert lens[(2, (3, 2))] == 1
    assert lens[(4, (5, 2))] == 1
    _check_traces(lat, records)
    # the square-4 survivor at C.N = 9: N - B is isotropic of degree 1
    x, y, n2 = 5, 2, 4
    cn = 1 * x + 2 * y
    assert cn == 9
    assert n2 - 2 * y + 0 == 0        # (N - B)^2
    assert x - 4 == 1                 # h.(N - B)


def test_ulrich_double_case_exact():
    lat = quartic_lattice(4, 6)
    base = ulrich_assumptions(lat)
    records = enumerate_destabilizing(lat, DivClass((0, 2)), 4,
                                      _facts(lat, base), mode="exact")
    assert _outcomes(records) == {
        (0, (3, 2)): "twist-h1-vanishing",
        (0, (4, 2)): "very-ample-degree-floor",
        (0, (5, 2)): "very-ample-degree-floor",
        (2, (4, 3)): "very-ample-degree-floor",
        (2, (5, 3)): "very-ample-degree-floor",
        (4, (6, 4)): "split-indecomposable",
        (6, None): "beyond-hodge-cap",
    }
    _check_traces(lat, records)
    # the split profile is the doubled class itself: N = C/2 = B
    split = next(r for r in records if r.outcome == "split-indecomposable")
    assert split.profile == (lat.deg(B), lat.self_int(B)) == (6, 4)


def test_gonality_floor_case():
    # assume a pencil of degree < 4 on the square-16 curve: every branch dies
    lat = quartic_lattice(4, 6)
    base = ulrich_assumptions(lat)
    records = enumerate_destabilizing(lat, DivClass((0, 2)), 4,
                                      _facts(lat, base), mode="gonality")
    assert _outcomes(records) == {
        (0, None): "window-infeasible",
        (2, None): "window-infeasible",
        (4, None): "window-infeasible",
        (6, None): "beyond-hodge-cap",
    }
    _check_traces(lat, records)
    wanted = [(4, ">", 3), (6, ">", 5), (8, ">", 7)]
    for rec, (lhs, rel, rhs) in zip(records[:3], wanted):
        final = rec.trace[-1]
        assert (evaluate(final.lhs, lat), final.rel,
                evaluate(final.rhs, lat)) == (lhs, rel, rhs)


def test_mode_and_precondition_guards():
    lat = quartic_lattice(-2, 3)
    assert MODES == ("exact", "general", "gonality")
    with pytest.raises(BadParametersError):
        enumerate_destabilizing(lat, DivClass((4, -2)), 2, (), mode="sloppy")
    with pytest.raises(PreconditionError):
        enumerate_destabilizing(lat, DivClass((1, 0)), 0, (), mode="exact")
    with pytest.raises(PreconditionError):
        # curve square below 4 never reaches the engine
        enumerate_destabilizing(lat, DivClass((0, 1)), 2, (), mode="exact")
    with pytest.raises(BadParametersError):
        from k3acm.casework import delpezzo_lattice
        enumerate_destabilizing(delpezzo_lattice(),
                                DivClass((3, -1, -1, -1, -1, -1, -1, -1)),
                                2, (), mode="exact")


@pytest.mark.parametrize("d", [1.5, "2", True],
                         ids=["float", "string", "bool"])
def test_a_non_int_d_is_bad_input(d):
    lat = quartic_lattice(-2, 3)
    with pytest.raises(BadParametersError, match="d must be an int"):
        enumerate_destabilizing(lat, DivClass((4, -2)), d, _facts(lat))


def test_a_plain_tuple_curve_is_bad_input():
    lat = quartic_lattice(-2, 3)
    before = destabilize._plan.cache_info()
    for facts in ((), _facts(lat)):
        with pytest.raises(BadParametersError, match="C must be a DivClass"):
            enumerate_destabilizing(lat, (4, -2), 2, facts)
    assert destabilize._plan.cache_info() == before


def test_a_fact_that_is_not_an_assumption_is_bad_input():
    lat = quartic_lattice(-2, 3)
    before = destabilize._plan.cache_info()
    for _ in range(2):
        with pytest.raises(BadParametersError, match="must be an Assumption"):
            enumerate_destabilizing(lat, DivClass((4, -2)), 2,
                                    _facts(lat) + ("x",))
    assert destabilize._plan.cache_info().currsize == before.currsize


def test_an_unhashable_fact_is_bad_input():
    lat = quartic_lattice(-2, 3)
    with pytest.raises(BadParametersError, match="must be an Assumption"):
        enumerate_destabilizing(lat, DivClass((4, -2)), 2, [{}])


def test_engine_refuses_queries_outside_the_c2_window():
    # C = h + 2B on (0, 4): C^2 = 20, g = 11, h.C = 12, so d <= 6
    lat = quartic_lattice(0, 4)
    facts = _facts(lat)
    assert enumerate_destabilizing(lat, DivClass((1, 2)), 6, facts,
                                   mode="general")
    for curve, d in (((1, 2), 7),        # one past the window end
                     ((-1, -2), 1),      # h.C = -12
                     ((4, 0), 1)):       # h.C = 16 > 12
        for mode in MODES:
            with pytest.raises(PreconditionError, match="c2 window"):
                enumerate_destabilizing(lat, DivClass(curve), d, facts,
                                        mode=mode)


def test_records_serialize_to_json():
    import json
    lat = quartic_lattice(0, 4)
    records = enumerate_destabilizing(lat, DivClass((1, 2)), 6,
                                      _facts(lat), mode="general")
    for rec in records:
        data = json.loads(json.dumps(elimination_to_json(rec)))
        assert data["outcome"] == rec.outcome
        assert data["resolved"] is True
        assert len(data["trace"]) == len(rec.trace)


def test_general_mode_weakens_exact_mode():
    # every exact-mode profile also appears in the general sweep
    lat = quartic_lattice(4, 6)
    base = ulrich_assumptions(lat)
    exact = enumerate_destabilizing(lat, DivClass((0, 2)), 4,
                                    _facts(lat, base), mode="exact")
    general = enumerate_destabilizing(lat, DivClass((0, 2)), 4,
                                      _facts(lat, base), mode="general")
    exact_profiles = {(r.n_square, r.profile) for r in exact
                      if r.profile is not None}
    general_profiles = {(r.n_square, r.profile) for r in general
                        if r.profile is not None}
    assert exact_profiles <= general_profiles


def _gram_det3(g):
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


def _windows_pass(lat, known, c, x, y, cn, n2):
    # Hodge index on <h, B, N>: signature (1, 2) or degenerate
    (hh, hb), (_, b2) = lat.gram
    if _gram_det3([[hh, hb, x], [hb, b2, y], [x, y, n2]]) < 0:
        return False
    # N is base point free, hence nef, and meets each known class (C too)
    # at least at its floor
    if any(destabilize._pairing(p.cls, x, y) < p.floor(n2) for p in known):
        return False
    mn = cn - n2
    if mn < 1:
        return False
    m2 = lat.self_int(c) - 2 * cn + n2
    if m2 < n2:  # normalization M^2 >= N^2
        return False
    if n2 > 0 and m2 > 0 and mn * mn < m2 * n2:  # Hodge index on (M, N)
        return False
    return True


def _scan_profiles(lat, env, c, d, n2, mode):
    """The original full B.N scan, kept as the oracle for _profiles."""
    hc = lat.deg(c)
    cn_lo, cn_hi = destabilize._cn_window(d, n2, mode)
    xmin = 3 if n2 == 0 else max(3, hodge_lower(4, n2))
    xmax = hc - 3
    if mode == "exact":
        xmax = min(xmax, hc // 2)
    s, t = c.coords
    ybox = abs(cn_hi) + 4 * (abs(s) + abs(t) + 1) * (hc + 4) + 16
    hits = []
    for x in range(xmin, xmax + 1):
        for y in range(-ybox, ybox + 1):
            cn = s * x + t * y
            if not cn_lo <= cn <= cn_hi:
                continue
            if not _windows_pass(lat, env, c, x, y, cn, n2):
                continue
            assert abs(y) < ybox, f"the oracle reached |B.N| = {ybox}"
            hits.append((x, y, cn))
    return hits, (cn_lo, cn_hi)


def _grid(s_max=3):
    """Shipped rank-2 configs, the curve box |s| <= s_max, |t| <= 3, the
    whole c2 window."""
    for name in shipped_quartic_names():
        lat, assumptions = load_config(data_path(name))
        facts = engine_assumptions(lat, assumptions)
        for s in range(-s_max, s_max + 1):
            for t in range(-3, 4):
                c = DivClass((s, t))
                c2, hc = lat.self_int(c), lat.deg(c)
                if c2 < 4 or hc <= 0:
                    continue
                g = 1 + c2 // 2
                for d in range(max(1, g - 5), g + 7 - hc + 1):
                    for mode in MODES:
                        yield lat, facts, c, d, mode


def test_engine_never_emits_a_false_claim():
    outcomes = set()
    for lat, facts, c, d, mode in _grid():
        try:
            records = enumerate_destabilizing(lat, c, d, facts, mode=mode)
        except PreconditionError as exc:
            outcomes.add(type(exc).__name__)
            continue
        assert records, (c, d, mode)
        _check_traces(lat, records)
        outcomes.add("records")
    assert "records" in outcomes


def test_solved_profiles_match_the_full_scan():
    # each grid query runs on the derived facts and on the raw config facts
    raw = dict(load_config(data_path(name))
               for name in shipped_quartic_names())
    compared = 0
    for lat, facts, c, d, mode in _grid():
        for fact_set in (facts, raw[lat]):
            plan = destabilize._plan(lat, c, tuple(fact_set))
            for n2 in range(0, lat.self_int(c) // 4 + 1, 2):
                want = _scan_profiles(lat, plan.known, c, d, n2, mode)
                assert destabilize._profiles(lat, plan, d, n2, mode) == want
                compared += 1
    assert compared > 1500


def _known_classes_oracle(lat, c, assumptions):
    """The former _known_classes, which classified every class, as the oracle."""
    bpf = {a.subject.coords for a in assumptions
           if a.kind is AssumptionKind.BASE_POINT_FREE}
    pencil = {a.subject.coords for a in assumptions
              if a.kind is AssumptionKind.ELLIPTIC_PENCIL}
    nonempty = {a.subject.coords for a in assumptions
                if a.kind in _NONEMPTY_KINDS}
    known = []
    for coords in sorted(nonempty | bpf | {c.coords}):
        p = DivClass(coords)
        sq = lat.self_int(p)
        free = coords in bpf or coords == c.coords
        try:
            acm = is_initialized_acm(lat, p, assumptions).status in (
                AcmStatus.ACM, AcmStatus.ACM_ULRICH)
        except (TrivialClassError, NotEffectiveCandidateError):
            acm = False
        profile = (lat.pair(DivClass((1, 0)), p), lat.pair(DivClass((0, 1)), p))
        known.append(destabilize._KnownClass(
            p, sq, profile, movable=free or coords in pencil or sq == 0,
            bpf_positive=free and sq >= 2, acm=acm))
    return tuple(known)


def test_known_classes_match_the_classifying_oracle():
    raw = dict(load_config(data_path(name))
               for name in shipped_quartic_names())
    compared = 0
    for lat, facts, c, d, mode in _grid():
        for fact_set in (facts, raw[lat]):
            want = _known_classes_oracle(lat, c, fact_set)
            assert destabilize._plan(lat, c, tuple(fact_set)).known == want
            compared += 1
    assert compared == 1188


def test_known_classes_on_the_ulrich_window():
    # B and its companion 3h - B both sit in window (d): (4, 6)
    lat = quartic_lattice(4, 6)
    h = DivClass((1, 0))
    comp = 3 * h - B

    def fact(cls, kind):
        return Assumption(cls, kind, "test")

    eff, empty = AssumptionKind.EFFECTIVE, AssumptionKind.EMPTY
    cases = (
        # both emptiness facts given: certified Ulrich
        (_facts(lat, ulrich_assumptions(lat)), True),
        # |2h - B| undecided, for B and its companion alike
        ((fact(B, eff), fact(comp, eff), fact(B - h, empty)), False),
        # |B - h| asserted nonempty: the companion is not initialized aCM
        ((fact(comp, eff), fact(B - h, eff)), False),
    )
    for facts, ulrich in cases:
        table = destabilize._plan(lat, DivClass((0, 2)), facts).known
        assert table == _known_classes_oracle(lat, DivClass((0, 2)), facts)
        flags = {p.cls: p.acm for p in table}
        assert flags[comp] is ulrich
    statuses = [is_initialized_acm(lat, comp, facts).status
                for facts, _ in cases]
    assert statuses == [AcmStatus.ACM_ULRICH, AcmStatus.NEEDS_ASSUMPTION,
                        AcmStatus.NOT_ACM]


def test_open_branches_match_the_documented_counts():
    # the grid the enumerate_destabilizing docstring counts on
    queries, left_open = Counter(), Counter()
    for lat, facts, c, d, mode in _grid(s_max=4):
        records = enumerate_destabilizing(lat, c, d, facts, mode=mode)
        queries[mode] += 1
        left_open[mode] += not all(r.resolved for r in records)
    assert queries == {mode: 210 for mode in MODES}
    assert left_open == {"exact": 40, "general": 81, "gonality": 89}


def _shipped_by_presentation():
    """(B^2, h.B) -> (lattice, engine_assumptions) of each shipped config."""
    out = {}
    for name in shipped_quartic_names():
        lat, raw = load_config(data_path(name))
        out[lat.gram[1][1], lat.gram[0][1]] = lat, engine_assumptions(lat, raw)
    return out


def _complement_basis(lat):
    """k of WINDOWS and the presentation (B'^2, h.B') of B' = kh - B.

    (h, B') is another basis of the same lattice, and C = s h + t B is
    (s + kt) h - t B' in it.
    """
    from test_theorem import _complement
    profile = lat.gram[1][1], lat.gram[0][1]
    return WINDOWS[profile][1], _complement(profile)


def _closed(lat, c, d, facts, mode):
    return all(r.resolved for r in
               enumerate_destabilizing(lat, c, d, facts, mode=mode))


def test_the_verdict_does_not_depend_on_the_basis():
    # C on p is closed exactly when its image is closed on complement(p):
    # sigma on (-2, 2), (0, 4) and (4, 6), and both reduction pairs
    shipped = _shipped_by_presentation()
    queries, disagree = 0, []
    for lat, facts, c, d, mode in _grid(s_max=4):
        k, image = _complement_basis(lat)
        s, t = c.coords
        lat2, facts2 = shipped[image]
        c2 = DivClass((s + k * t, -t))
        assert (lat2.self_int(c2), lat2.deg(c2)) == (lat.self_int(c),
                                                      lat.deg(c))
        queries += 1
        if _closed(lat, c, d, facts, mode) != _closed(lat2, c2, d, facts2,
                                                      mode):
            disagree.append((image, c.coords, d, mode))
    assert queries == 630
    assert disagree == []


def test_the_facts_do_not_depend_on_the_basis():
    shipped = _shipped_by_presentation()
    for lat, facts in shipped.values():
        k, image = _complement_basis(lat)
        moved = {((s + k * t, -t), a.kind)
                 for a in facts for s, t in [a.subject.coords]}
        assert moved == {(a.subject.coords, a.kind)
                         for a in shipped[image][1]}, image
        # B and its complement kh - B are both among the facts
        assert {((0, 1), AssumptionKind.EFFECTIVE),
                ((k, -1), AssumptionKind.EFFECTIVE)} <= moved, image


@pytest.mark.parametrize("name", ["quartic_b20_bh3.json",
                                  "quartic_b2neg2_bh1.json"])
def test_a_config_asserting_the_complement_empty_is_refused(name, tmp_path,
                                                            capsys):
    # h - B is the complement on both: the residual line on (0, 3), the
    # isotropic class of degree 3 on (-2, 1)
    from k3acm.cli import main
    doc = json.loads(data_path(name).read_text())
    doc["assumptions"] = [{"subject": [1, -1], "kind": "Empty",
                           "note": "asserted"}]
    cfg = tmp_path / name
    cfg.write_text(json.dumps(doc))
    lat, raw = load_config(cfg)
    with pytest.raises(ConflictingAssumptionsError):
        enumerate_destabilizing(lat, DivClass((2, 0)), 6,
                                engine_assumptions(lat, raw))
    assert main(["destabilize", "-c", str(cfg), "--class", "2,0",
                 "--d", "6"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "(1, -1)" in captured.err


def _q_data_oracle(p, x, y, n2):
    """The per-class helper the one-pass rules replaced, kept as written."""
    pn = destabilize._pairing(p.cls, x, y)
    q2 = p.square - 2 * pn + n2
    hq = p.profile[0] - x
    nq = pn - n2
    return pn, q2, hq, nq


def _kill_classlike_oracle(lat, plan, n2, mode, x, y, rec):
    """The class-like rules as they read before the one-pass rewrite: one
    helper call per class and rule family, each verdict through ``rec``;
    C/2 is decided from the profile, as the former _split_class did."""
    _claim = destabilize._claim
    known, curve = plan.known, plan.curve
    s, t = curve.cls.coords
    half = None
    if not (s % 2 or t % 2 or 4 * n2 != curve.square
            or (2 * x, 2 * y) != curve.profile):
        half = DivClass((s // 2, t // 2))
    if half is not None and mode in ("exact", "general"):
        return rec("split-indecomposable", [_claim(
            lat, "the halved class matches the profile of N",
            self_of(half), "=", n2,
            cite=f"N and {half} = C/2 share square and basis pairings, so "
                 "N = C/2 by nondegeneracy and E is an extension of C/2 by "
                 "itself with Z' empty, i.e. decomposable",
            contradicts="AX-INDECOMP: E is indecomposable")],
            note=f"N = {half}")
    hc = curve.profile[0]
    if mode == "exact" and 2 * x == hc:
        return rec("effective-difference-degree-zero", [_claim(
            lat, "the difference M - N has ample degree zero",
            hc - 2 * x, "=", 0,
            cite="M - N is effective and nonzero here, yet h.(M - N) = 0",
            contradicts="AX-AMPLE-POSITIVE: ample degree of a nonzero "
                        "effective class is positive")])
    for p in known:
        pn, q2, hq, nq = _q_data_oracle(p, x, y, n2)
        if hq == 0 and q2 == -2:
            return rec("ample-orthogonal-neg2", [_claim(
                lat, "a (-2)-class orthogonal to h",
                add_expr(self_of(p.cls), -2 * pn, n2), "=", -2,
                cite=f"({p.cls} - N)^2 = -2 while h.({p.cls} - N) = 0; a "
                     "(-2)-class is effective up to sign",
                contradicts="AX-AMPLE-POSITIVE: ample degree of a nonzero "
                            "effective class is positive")],
                note=f"P = {p.cls}")
        if q2 >= 0 and 1 <= abs(hq) <= 2:
            name = f"{p.cls} - N" if hq > 0 else f"N - ({p.cls})"
            return rec("very-ample-degree-floor", [_claim(
                lat, "degree below the very ample floor",
                abs(hq), "<", 3,
                cite=f"({name})^2 = {q2} >= 0 and h.({name}) = {abs(hq)}; a "
                     "nonzero class of nonnegative square and positive "
                     "degree moves in a pencil",
                contradicts="AX-VA-DEGREE3: degree floor under a very ample "
                            "polarization")], note=f"P = {p.cls}")
    for p in (p for p in known if p.bpf_positive):
        pn, q2, hq, nq = _q_data_oracle(p, x, y, n2)
        if q2 >= -2 and hq >= 1 and nq <= 1:
            return rec("two-connected-violation", [_claim(
                lat, "a piece meeting N at most once",
                pn - n2, "<=", 1,
                cite=f"Q = {p.cls} - N is effective (Q^2 = {q2} >= -2, "
                     f"h.Q = {hq} >= 1) and N.Q = {nq}",
                contradicts=f"AX-2CONNECTED: members of |{p.cls}| are "
                            "2-connected")], note=f"P = {p.cls}")
        if q2 >= -2 and hq <= -1 and n2 >= 2 and pn - p.square <= 1:
            return rec("two-connected-violation", [_claim(
                lat, "a piece meeting its complement at most once",
                pn - p.square, "<=", 1,
                cite=f"Q = N - ({p.cls}) is effective and {p.cls}.Q = "
                     f"{pn - p.square}",
                contradicts="AX-2CONNECTED: members of |N| are 2-connected")],
                note=f"P = {p.cls}")
    for p in (p for p in known if p.acm):
        pn, q2, hq, nq = _q_data_oracle(p, x, y, n2)
        if q2 == -2 and hq >= 1 and nq <= 0:
            return rec("one-connected-h1", [_claim(
                lat, "a decomposition with nonpositive linking",
                pn - n2, "<=", 0,
                cite=f"{p.cls} = N + ({p.cls} - N) with ({p.cls} - N)^2 = -2, "
                     f"h.({p.cls} - N) = {hq} and N.({p.cls} - N) = {nq}",
                contradicts="AX-1CONNECTED-H1 with AX-ACM-VANISH: h^1 of "
                            "the aCM class vanishes")], note=f"P = {p.cls}")
    return None


def test_one_pass_rules_match_the_per_rule_oracle(monkeypatch):
    def verdict(outcome, claims, note=""):
        return outcome, claims, note

    calls = []

    def oracle(lat, plan, n2, mode, x, y):
        calls.append(mode)
        return _kill_classlike_oracle(lat, plan, n2, mode, x, y, verdict)

    one_pass = destabilize._kill_classlike
    queries = list(_grid(s_max=4))
    new = [_payload(*q) for q in queries]
    monkeypatch.setattr(destabilize, "_kill_classlike", oracle)
    old = [_payload(*q) for q in queries]
    assert len(queries) == 630
    # the engine looks the rules up at call time, so the grid really ran
    # the oracle: a table that captured the one-pass rules would compare
    # the new code with itself
    assert len(calls) > 0
    for q, got, want in zip(queries, new, old):
        assert got == want, q[2:]
    labels = {rec["trace"][-1]["label"]
              for out in new for rec in out if rec["profile"]}
    # the rules alone, on a box of profiles around each plan's branches,
    # also reach the class-like rule that ends no grid record: "a piece
    # meeting its complement at most once"; an effective class that is
    # neither aCM nor base point free reaches the one-connected rule's
    # aCM test, which every shipped known class passes or never gets to;
    # it is asserted only where its ample degree is positive, as the plan
    # refuses a nonzero effective class of degree <= 0
    odd = Assumption(DivClass((1, -3)), AssumptionKind.EFFECTIVE, "")
    plans = {(lat, c, facts + extra) for lat, facts, c, d, mode in queries
             for extra in ((), (odd,))
             if not extra or lat.deg(odd.subject) > 0}
    for lat, c, facts in plans:
        plan = destabilize._plan(lat, c, facts)
        for n2 in range(0, plan.curve.square // 4 + 1, 2):
            for mode in MODES:
                for x in range(plan.curve.profile[0] + 1):
                    for y in range(-4, 5):
                        args = (lat, plan, n2, mode, x, y)
                        got = one_pass(*args)
                        assert got == oracle(*args), (c, n2, mode, x, y)
                        if got is not None:
                            labels.add(got[1][-1].label)
    # between them, every class-like rule fired
    assert labels >= {"the halved class matches the profile of N",
                      "the difference M - N has ample degree zero",
                      "a (-2)-class orthogonal to h",
                      "degree below the very ample floor",
                      "a piece meeting N at most once",
                      "a piece meeting its complement at most once",
                      "a decomposition with nonpositive linking"}


def _tool(name):
    """tools/NAME.py, loaded from the checkout by its path."""
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_tool_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _special_classes_oracle(lat, c, facts):
    """C's special classes as the engine found them before the plan held
    them: C/2 and K by halving, L by its degree and square, and P as
    _multiple_of and _kill_fiber's scan of the known classes found them."""
    h = DivClass((1, 0))
    known = destabilize._plan(lat, c, facts).known
    nonempty = {a.subject.coords for a in facts if a.kind in _NONEMPTY_KINDS}
    s, t = c.coords
    split = None if s % 2 or t % 2 else DivClass((s // 2, t // 2))
    half = split
    if split is None or (split != h and (split - h).coords not in nonempty):
        half = None
    line = None
    for p in known:  # a line L with C = 3h - 2L
        p1, p2 = p.cls.coords
        if p.profile[0] == 1 and p.square == -2 and (3 - 2 * p1, -2 * p2) == (
                s, t):
            line = p.cls
    fiber = None
    for p in known:  # the square-0 (hence movable) class P with C = h + 2P
        p1, p2 = p.cls.coords
        if p.square != 0 or (1 + 2 * p1, 2 * p2) != c.coords:
            continue
        fiber = p.cls
        break
    multiples = []
    for p in known:
        if not p.movable:
            continue
        for k in (2, 3, 4):
            if all(k * a == b for a, b in zip(p.cls.coords, c.coords)):
                multiples.append((k, p))
                break
    return split, half, line, fiber, tuple(multiples)


def test_the_plan_holds_the_special_classes_the_scans_found():
    # on the grid's 630 queries and on the engine digest surface's asserted
    # facts, which alone assert elliptic pencils and irreducible curves
    digests = _tool("cli_digests")
    plans = {(lat, c, facts) for lat, facts, c, d, mode in _grid(s_max=4)}
    asserted = {(b2, hb, s, t) for b2, hb, facts, s, t, d, mode
                in digests._engine_queries() if facts == "asserted"}
    for b2, hb, s, t in asserted:
        lat, facts = digests._engine_input(b2, hb, "asserted")
        plans.add((lat, DivClass((s, t)), facts))
    fields = ("split", "half", "line", "fiber", "multiples")
    reached = Counter()
    for lat, c, facts in plans:
        plan = destabilize._plan(lat, c, facts)
        got = tuple(getattr(plan, name) for name in fields)
        assert got == _special_classes_oracle(lat, c, facts), (lat.gram, c)
        reached.update(name for name, value in zip(fields, got)
                       if value is not None and value != ())
    assert (len(plans), len(asserted)) == (61 + 65, 65)
    assert set(reached) == set(fields), reached


def test_a_record_is_a_named_tuple():
    assert PairElimination._fields == (
        "c", "d", "n_square", "len_zprime", "outcome", "trace", "profile",
        "note")
    assert PairElimination._field_defaults == {"profile": None, "note": ""}
    c = DivClass((4, -2))
    rec = PairElimination(c, 2, 0, 0, "unresolved", ())
    assert (rec.profile, rec.note, rec.resolved) == (None, "", False)
    assert rec._replace(outcome="window-infeasible").resolved
    with pytest.raises(AttributeError):
        rec.outcome = "window-infeasible"
    # the engine's records, built as bare tuples, are the same records
    lat = quartic_lattice(-2, 3)
    for rec in enumerate_destabilizing(lat, c, 2, _facts(lat),
                                       mode="general"):
        assert type(rec) is PairElimination
        assert rec == PairElimination(**rec._asdict())
        if rec.profile is not None:  # the rule's claims follow this one
            assert rec.trace[0].label == "profile bookkeeping"


def test_conflicting_facts_are_refused():
    lat = quartic_lattice(-2, 3)
    c = DivClass((4, -2))
    for subject in (B, c, DivClass((5, 5))):
        facts = _facts(lat) + (
            Assumption(subject, AssumptionKind.EFFECTIVE, "asserted"),
            Assumption(subject, AssumptionKind.EMPTY, "asserted"))
        with pytest.raises(ConflictingAssumptionsError):
            _known_classes_oracle(lat, c, facts)
        for mode in MODES:
            with pytest.raises(ConflictingAssumptionsError):
                enumerate_destabilizing(lat, c, 2, facts, mode=mode)


def test_a_class_asserted_base_point_free_and_empty_is_refused():
    # the engine's facts on (-2, 2), plus (3, -1) asserted both base point
    # free and empty: the plan refuses them, as it refuses Effective + Empty
    lat = quartic_lattice(-2, 2)
    p = DivClass((3, -1))
    facts = engine_assumptions(lat, ()) + (
        Assumption(p, AssumptionKind.BASE_POINT_FREE, "asserted"),
        Assumption(p, AssumptionKind.EMPTY, "asserted"))
    for mode in MODES:
        with pytest.raises(ConflictingAssumptionsError,
                           match=r"both effective and empty"):
            enumerate_destabilizing(lat, DivClass((2, 1)), 7, facts, mode=mode)
    # engine_assumptions falls back on the facts as given, which conflict
    assert engine_assumptions(lat, facts[-2:]) == facts[-2:]


def _payload(lat, facts, c, d, mode):
    """The records of one query as JSON, or its error class and text."""
    try:
        return [elimination_to_json(r) for r in
                enumerate_destabilizing(lat, c, d, facts, mode=mode)]
    except PreconditionError as exc:
        return type(exc).__name__, str(exc)


def test_a_cold_and_a_warm_plan_give_the_same_records():
    for lat, facts, c, d, mode in _grid():
        destabilize._plan.cache_clear()
        cold = _payload(lat, facts, c, d, mode)
        assert _payload(lat, facts, c, d, mode) == cold, (c, d, mode)


def test_each_curve_is_planned_once_per_presentation():
    destabilize._plan.cache_clear()
    planned, queries = set(), 0
    for lat, facts, c, d, mode in _grid():
        if isinstance(_payload(lat, facts, c, d, mode), list):
            planned.add((lat, facts, c))
            queries += 1
    info = destabilize._plan.cache_info()
    # queries refused by the input checks build no plan
    assert info.misses == info.currsize == len(planned)
    assert info.hits == queries - len(planned) > 5 * len(planned)


def test_a_warm_plan_still_self_checks_every_claim(capsys, monkeypatch):
    from k3acm import EngineError
    from k3acm.cli import main
    cfg = str(data_path("quartic_b2neg2_bh3.json"))
    argv = ["destabilize", "-c", cfg, "--class", "4,-2", "--d", "2"]
    lat, _ = load_config(cfg)
    facts = _facts(lat)
    assert main(argv) == 0
    enumerate_destabilizing(lat, DivClass((4, -2)), 2, facts)
    capsys.readouterr()
    # the plan is warm: only the claims' self-checks can fail now
    monkeypatch.setattr(destabilize, "check_rel", lambda rel, lhs, rhs: False)
    before = destabilize._plan.cache_info()
    with pytest.raises(EngineError, match="false claim"):
        enumerate_destabilizing(lat, DivClass((4, -2)), 2, facts)
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "internal error: engine produced a false claim")
    after = destabilize._plan.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)


def test_refused_queries_cache_no_plan():
    lat = quartic_lattice(-2, 3)
    facts = _facts(lat) + (Assumption(B, AssumptionKind.EFFECTIVE, "asserted"),
                           Assumption(B, AssumptionKind.EMPTY, "asserted"))
    before = destabilize._plan.cache_info()
    for _ in range(2):
        with pytest.raises(ConflictingAssumptionsError):
            enumerate_destabilizing(lat, DivClass((4, -2)), 2, facts)
    assert destabilize._plan.cache_info().currsize == before.currsize
    # the input checks come first: conflicting facts never reach the plan
    before = destabilize._plan.cache_info()
    for curve, d in (((4, -2), 1000000), ((4, 0), 1), ((0, 1), 2)):
        with pytest.raises(PreconditionError):
            enumerate_destabilizing(lat, DivClass(curve), d, facts)
    assert destabilize._plan.cache_info() == before


def test_gonality_with_an_empty_budget_is_flagged():
    # d = 1 in gonality mode assumes a pencil of degree 0: M.N >= 1 > 0
    lat = quartic_lattice(-2, 3)
    records = enumerate_destabilizing(lat, DivClass((1, 1)), 1,
                                      _facts(lat), mode="gonality")
    _check_traces(lat, records)
    fiber = records[0]
    assert (fiber.n_square, fiber.outcome) == (0, "window-infeasible")
    final = fiber.trace[-1]
    assert (evaluate(final.lhs, lat), final.rel,
            evaluate(final.rhs, lat)) == (1, ">", 0)
    assert final.contradicts


def test_grid_outcomes_are_pinned():
    # a change to the rule order or to a pairing floor moves these counts
    outcomes, notes = Counter(), Counter()
    for lat, facts, c, d, mode in _grid():
        for rec in enumerate_destabilizing(lat, c, d, facts, mode=mode):
            outcomes[mode, rec.outcome] += 1
            if rec.outcome == "window-infeasible":
                notes[rec.note] += 1
    assert outcomes == Counter({
        ("exact", "ample-orthogonal-neg2"): 13,
        ("exact", "beyond-hodge-cap"): 160,
        ("exact", "effective-difference-degree-zero"): 133,
        ("exact", "line-restriction"): 6,
        ("exact", "one-connected-h1"): 2,
        ("exact", "self-dual-twist"): 32,
        ("exact", "split-indecomposable"): 2,
        ("exact", "twist-h1-vanishing"): 23,
        ("exact", "two-connected-violation"): 4,
        ("exact", "unresolved"): 72,
        ("exact", "very-ample-degree-floor"): 10,
        ("exact", "window-infeasible"): 202,
        ("general", "ample-orthogonal-neg2"): 92,
        ("general", "beyond-hodge-cap"): 160,
        ("general", "line-restriction"): 6,
        ("general", "one-connected-h1"): 15,
        ("general", "pencil-restrict-degree"): 2,
        ("general", "self-dual-twist"): 32,
        ("general", "split-indecomposable"): 9,
        ("general", "two-connected-violation"): 29,
        ("general", "unresolved"): 786,
        ("general", "very-ample-degree-floor"): 130,
        ("general", "window-infeasible"): 111,
        ("gonality", "ample-orthogonal-neg2"): 82,
        ("gonality", "beyond-hodge-cap"): 198,
        ("gonality", "one-connected-h1"): 19,
        ("gonality", "pencil-restrict-degree"): 8,
        ("gonality", "two-connected-violation"): 32,
        ("gonality", "unresolved"): 673,
        ("gonality", "very-ample-degree-floor"): 124,
        ("gonality", "window-infeasible"): 190,
    })
    assert notes == Counter({
        "exhaustive window sweep": 403,
        "Hodge index against C": 66,
        "empty degree budget": 21,
        "pairing floor through the movable multiple": 13,
    })


def _twist_oracle(lat, facts, c, d, mode):
    """The self-dual twist's hypotheses in plain Gram arithmetic: C = 2K,
    K - h zero or asserted nonempty, d < K^2 + 4, and not gonality mode."""
    s, t = c.coords
    if mode == "gonality" or s % 2 or t % 2:
        return False
    k1, k2 = s // 2, t // 2
    (hh, hb), (_, b2) = lat.gram
    nonempty = {a.subject.coords for a in facts if a.kind in _NONEMPTY_KINDS}
    return (((k1 - 1, k2) == (0, 0) or (k1 - 1, k2) in nonempty)
            and d < hh * k1 * k1 + 2 * hb * k1 * k2 + b2 * k2 * k2 + 4)


def test_the_self_dual_twist_fires_exactly_on_its_hypotheses(monkeypatch):
    fired, rho_free = Counter(), 0
    checks = []

    def counted(rel, lhs, rhs):
        checks.append(rel)
        return check_rel(rel, lhs, rhs)

    monkeypatch.setattr(destabilize, "check_rel", counted)
    for lat, facts, c, d, mode in _grid(s_max=4):
        del checks[:]
        records = enumerate_destabilizing(lat, c, d, facts, mode=mode)
        twist = records[0].outcome == "self-dual-twist"
        assert twist is _twist_oracle(lat, facts, c, d, mode), (c, d, mode)
        if not twist:
            assert all(r.outcome != "self-dual-twist" for r in records)
            continue
        fired[mode] += 1
        (rec,) = records  # before the sweep: no branch record
        assert len(checks) == len(rec.trace) == 4  # each claim self-checked
        _check_traces(lat, records)
        k = DivClass(tuple(x // 2 for x in c.coords))
        k2 = lat.self_int(k)
        assert (rec.profile, rec.n_square, rec.len_zprime) == (None, 0, 0)
        assert rec.resolved and rec.note == f"K - h = {k - DivClass((1, 0))}"
        assert [(cl.label, evaluate(cl.lhs, lat), cl.rel, cl.rhs)
                for cl in rec.trace] == [
            ("the twisted first Chern class squares to zero", 0, "=", 0),
            ("second Chern class of the twist", d - k2, "=", d - k2),
            ("Euler characteristic of the twist", 4 - d + k2, "=",
             4 - d + k2),
            ("h^1 of the twist is negative", d - k2 - 4, "<", 0)]
        assert rec.trace[0].lhs["op"] == "add"  # expanded, not self of 0
        assert rec.trace[-1].contradicts.startswith("AX-H1NONNEG")
        assert not any(cl.contradicts for cl in rec.trace[:-1])
        rho_free += brill_noether(genus_of(lat.self_int(c)), 1, d) >= 0
    assert fired == {"exact": 36, "general": 36}
    assert rho_free == 36


def test_the_documented_rho_counts():
    # the enumerate_destabilizing docstring: the sweep closes 131 queries
    # with rho >= 0 (d - 1 in gonality mode) that no script may use; the
    # query rules need no non-simple bundle, and 36 + 4 of theirs have it
    swept, ruled = Counter(), Counter()
    for lat, facts, c, d, mode in _grid(s_max=4):
        records = enumerate_destabilizing(lat, c, d, facts, mode=mode)
        degree = d - 1 if mode == "gonality" else d
        if (all(r.resolved for r in records)
                and brill_noether(genus_of(lat.self_int(c)), 1, degree) >= 0):
            if records[0].outcome in destabilize.QUERY_RULES:
                ruled[records[0].outcome] += 1
            else:
                swept[mode] += 1
    assert swept == {"exact": 72, "general": 34, "gonality": 25}
    assert sum(swept.values()) == 131
    assert ruled == {"self-dual-twist": 36, "line-restriction": 4}


def test_an_effective_zero_class_changes_no_record():
    # O has a section, which is true and bounds no pairing of N; it used
    # to enter the plan as a movable square-0 class with floor 2
    zero = Assumption(DivClass((0, 0)), AssumptionKind.EFFECTIVE, "O")
    changed = 0
    for lat, facts, c, d, mode in _grid(s_max=4):
        want = _payload(lat, facts, c, d, mode)
        changed += _payload(lat, facts + (zero,), c, d, mode) != want
    assert changed == 0
    lat, raw = load_config(data_path("quartic_b20_bh3.json"))
    facts = engine_assumptions(lat, raw)
    assert destabilize._plan(lat, DivClass((1, 2)), facts + (zero,)).known \
        == destabilize._plan(lat, DivClass((1, 2)), facts).known


@pytest.mark.parametrize("subject, kind", [
    ((-1, 0), AssumptionKind.BASE_POINT_FREE),
    ((0, -1), AssumptionKind.EFFECTIVE),
    ((1, -2), AssumptionKind.ELLIPTIC_PENCIL)])
def test_a_nonzero_class_of_nonpositive_degree_cannot_be_nonempty(subject,
                                                                  kind):
    # AX-AMPLE-POSITIVE: on (-2, 2) these have ample degree -4, -2 and 0
    lat = quartic_lattice(-2, 2)
    facts = _facts(lat) + (Assumption(DivClass(subject), kind, ""),)
    before = destabilize._plan.cache_info()
    for mode in MODES:
        with pytest.raises(ConflictingAssumptionsError,
                           match="AX-AMPLE-POSITIVE"):
            enumerate_destabilizing(lat, DivClass((2, 1)), 7, facts, mode)
    assert destabilize._plan.cache_info().currsize == before.currsize


def test_a_class_of_the_wrong_length_is_refused():
    lat = quartic_lattice(-2, 3)
    with pytest.raises(DimensionMismatchError, match="length 3"):
        enumerate_destabilizing(lat, DivClass((4, -2, 0)), 2, _facts(lat))
    wrong = Assumption(DivClass((0, 1, 0)), AssumptionKind.EFFECTIVE, "")
    for mode in MODES:
        with pytest.raises(DimensionMismatchError, match="length 3"):
            enumerate_destabilizing(lat, DivClass((4, -2)), 2,
                                    _facts(lat) + (wrong,), mode)


def _line_oracle(lat, facts, c, mode):
    """The line restriction's hypotheses in plain Gram arithmetic: L with
    C = 3h - 2L asserted nonempty, h.L = 1 and L^2 = -2, not in gonality
    mode; L or None."""
    s, t = c.coords
    if mode == "gonality" or (3 - s) % 2 or t % 2:
        return None
    l1, l2 = (3 - s) // 2, -t // 2
    (hh, hb), (_, b2) = lat.gram
    nonempty = {a.subject.coords for a in facts if a.kind in _NONEMPTY_KINDS}
    if ((l1, l2) in nonempty and hh * l1 + hb * l2 == 1
            and hh * l1 * l1 + 2 * hb * l1 * l2 + b2 * l2 * l2 == -2):
        return DivClass((l1, l2))
    return None


def test_the_line_restriction_fires_exactly_on_its_hypotheses(monkeypatch):
    fired, checks = [], []

    def counted(rel, lhs, rhs):
        checks.append(rel)
        return check_rel(rel, lhs, rhs)

    monkeypatch.setattr(destabilize, "check_rel", counted)
    for lat, facts, c, d, mode in _grid(s_max=4):
        del checks[:]
        records = enumerate_destabilizing(lat, c, d, facts, mode=mode)
        line = _line_oracle(lat, facts, c, mode)
        if line is None:
            assert all(r.outcome != "line-restriction" for r in records)
            continue
        (rec,) = records  # before the sweep: no branch record
        assert rec.outcome == "line-restriction", (c, d, mode)
        fired.append(((lat.gram[1][1], lat.gram[0][1]), c.coords, d, mode))
        assert len(checks) == len(rec.trace) == 5  # each claim self-checked
        _check_traces(lat, records)
        assert (rec.profile, rec.n_square, rec.len_zprime) == (None, 0, 0)
        assert rec.resolved and rec.note == f"L = {line}"
        assert [(cl.label, evaluate(cl.lhs, lat), cl.rel, cl.rhs)
                for cl in rec.trace] == [
            ("the line has degree 1", 1, "=", 1),
            ("residual pencil squares to zero", 0, "=", 0),
            ("residual pencil has degree 3", 3, "=", 3),
            ("degree of the twisted bundle on the line", -1, "=", -1),
            ("one splitting summand is always effective", 0, ">=", 0)]
        assert rec.trace[-1].contradicts.startswith("AX-INITIALIZED-CRIT")
        assert not any(cl.contradicts for cl in rec.trace[:-1])
    # C = 3h - 2B on (-2, 1) and its twin h + 2B = 3h - 2(h - B) on (0, 3),
    # at every d of the window, in exact and general mode only
    assert sorted(fired) == sorted(
        (presentation, curve, d, mode)
        for presentation, curve in (((-2, 1), (3, -2)), ((0, 3), (1, 2)))
        for d in (4, 5, 6) for mode in ("exact", "general"))


def test_the_line_restriction_needs_a_line_among_the_facts():
    lat, c = quartic_lattice(-2, 1), DivClass((3, -2))
    for d in (4, 5, 6):
        for mode in ("exact", "general"):
            assert [r.outcome for r in enumerate_destabilizing(
                lat, c, d, _facts(lat), mode)] == ["line-restriction"]
            assert all(r.outcome != "line-restriction" for r in
                       enumerate_destabilizing(lat, c, d, (), mode))
    # on (-2, 3), h - B has degree 1 but square -4: asserted effective it
    # is no line, so the rule stays off (F = B would not square to zero)
    lat, c = quartic_lattice(-2, 3), DivClass((1, 2))
    wrong = Assumption(DivClass((1, -1)), AssumptionKind.EFFECTIVE, "")
    for mode in ("exact", "general"):
        records = enumerate_destabilizing(lat, c, 1, _facts(lat) + (wrong,),
                                          mode)
        assert all(r.outcome != "line-restriction" for r in records)


def test_a_false_line_restriction_claim_is_an_engine_fault(capsys,
                                                           monkeypatch):
    from k3acm import EngineError
    from k3acm.cli import main
    cfg = str(data_path("quartic_b2neg2_bh1.json"))
    argv = ["destabilize", "-c", cfg, "--class", "3,-2", "--d", "6"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "  whole query: line-restriction"
    assert "n^2" not in out and "ALL BRANCHES RESOLVED" in out
    lat, raw = load_config(cfg)
    monkeypatch.setattr(destabilize, "check_rel", lambda rel, lhs, rhs: False)
    with pytest.raises(EngineError, match="false claim: the line has degree"):
        enumerate_destabilizing(lat, DivClass((3, -2)), 6,
                                engine_assumptions(lat, raw), "general")
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "internal error: engine produced a false claim")


def test_the_twist_reads_a_base_point_free_fact_as_nonempty():
    # K - h = B asserted only base point free is asserted nonempty, as the
    # conflict check reads it: the twist fires as with an Effective fact
    lat, c = quartic_lattice(-2, 2), DivClass((2, 2))
    records = {kind: enumerate_destabilizing(
        lat, c, 8, (Assumption(B, kind, ""),), "exact")
        for kind in (AssumptionKind.BASE_POINT_FREE, AssumptionKind.EFFECTIVE)}
    assert [r.outcome for r in records[AssumptionKind.BASE_POINT_FREE]] == [
        "self-dual-twist"]
    assert (records[AssumptionKind.BASE_POINT_FREE]
            == records[AssumptionKind.EFFECTIVE])


def test_a_fiber_and_its_double_are_eliminated_together():
    # general mode, N^2 = 0 at (h.N, B.N) = (6, 0): N = F or N = 2F over an
    # elliptic pencil F. For r = 1, N meets B (C = h + 2B, B^2 = 0) at most
    # once; for r = 2, h^1(2F) = 1 while Z' is empty. With B alone among
    # the facts, h - B is no known line and the line restriction stays
    # off, so the sweep reaches this record.
    lat = quartic_lattice(0, 3)
    effective = Assumption(B, AssumptionKind.EFFECTIVE, "")
    records = enumerate_destabilizing(lat, DivClass((1, 2)), 6, (effective,),
                                      "general")
    (rec,) = [r for r in records if (r.n_square, r.profile) == (0, (6, 0))]
    assert rec.outcome == "pencil-branches-exhausted"
    assert rec.note == "fiber multiplicities [1, 2] all eliminated"
    assert rec.len_zprime == 0
    assert [cl.label for cl in rec.trace] == [
        "profile bookkeeping",
        "the distinguished movable class meets the fiber at most once",
        "h^1 of the fiber multiple is r - 1 = 1"]
    _check_traces(lat, [rec])
