"""Constraint systems: the five preset enumerations and a brute-force oracle."""

import operator
import random
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest

from k3acm import (BadParametersError, BoxTooSmallError, MalformedScriptError,
                   invariants)
from k3acm.casework import (ArithClaim, CaseSpec, Constraint, PRESET_IDS,
                            abs_t_at_least, check_rel, enumerate_case,
                            lemma_case, linear, quadratic, quartic_lattice)
from k3acm.casework import constraints
from k3acm.casework.constraints import _case_plan, half_plane_bounds, scan

EXPECTED = {
    "i-a": [(3, -2)],
    "i-b": [(2, 2), (4, -2)],
    "i-c": [(4, -2)],
    "ii": [(1, 2), (5, -2)],
    "iii": [(0, 2), (6, -2)],
}


def test_check_rel():
    assert check_rel("<=", 2, 2)
    assert check_rel("<", 1, 2)
    assert check_rel("=", 3, 3)
    assert check_rel(">=", 3, 3)
    assert check_rel(">", 3, 2)
    assert not check_rel(">", 2, 2)
    with pytest.raises(BadParametersError):
        check_rel("!=", 1, 2)


def test_check_rel_takes_exactly_the_relations_is_rel_takes():
    from k3acm.casework.constraints import _REL, _is_rel

    class Rel(str):
        pass

    class LooksLikeLe:
        """Hashes and compares like "<=", but is not a str."""

        def __hash__(self):
            return hash("<=")

        def __eq__(self, other):
            return other == "<="

    for rel in [*_REL, *map(Rel, _REL), "!=", "", "==", "=<", LooksLikeLe(),
                b"<=", None, 1, ("<=",), ["<="], {"<=": 1}]:
        if _is_rel(rel):
            assert check_rel(rel, 1, 2) is _REL[rel](1, 2), rel
        else:
            with pytest.raises(BadParametersError) as err:
                check_rel(rel, 1, 2)
            assert str(err.value) == f"unknown relation {rel!r}"
    assert not _is_rel(LooksLikeLe())


def test_an_unhashable_relation_is_refused():
    with pytest.raises(BadParametersError, match="unknown relation"):
        linear(1, 1, ["<="], 0)
    with pytest.raises(BadParametersError, match="unknown relation"):
        check_rel(["<="], 1, 2)
    with pytest.raises(MalformedScriptError, match="unknown relation"):
        ArithClaim("unhashable", 1, ["<="], 2)


def test_constraint_kinds():
    assert linear(2, 3, "<=", 12).holds(3, 2)
    assert not linear(2, 3, "<=", 12).holds(4, 2)
    q = quadratic(1, 0, 1, 0, 0, "=", 25)
    assert q.holds(3, 4) and q.holds(5, 0) and not q.holds(3, 3)
    # on <h, B> with B^2 = -2, h.B = 3: (s h + t B).(2h - B) = 5s + 8t
    # must reach ceil(sqrt(8 * 2)) = 4
    hodge = linear(5, 8, ">=", 4)
    assert hodge.holds(4, -2)
    assert not hodge.holds(0, 0)
    assert abs_t_at_least(2).holds(0, -2)
    assert not abs_t_at_least(2).holds(0, 1)
    for n in range(-3, 4):
        assert all(abs_t_at_least(n).holds(0, t) == (abs(t) >= n)
                   for t in range(-5, 6)), n
    with pytest.raises(BadParametersError):
        linear(1, 1, "~", 0)
    with pytest.raises(BadParametersError):
        abs_t_at_least("3")


@pytest.mark.parametrize("box", [8, 257, "32", 32.5, 64.0],
                         ids=["8", "257", "str-32", "float-32.5", "float-64.0"])
def test_box_floor(box):
    with pytest.raises(BadParametersError,
                       match="box must be between 16 and 256"):
        CaseSpec(lattice=quartic_lattice(-2, 1), constraints=(), box=box)


def test_boundary_touch_raises():
    spec = CaseSpec(lattice=quartic_lattice(-2, 1),
                    constraints=(linear(1, 0, ">=", 30),
                                 linear(0, 1, "=", 0)),
                    box=32)
    with pytest.raises(BoxTooSmallError):
        enumerate_case(spec)


def test_preset_solution_sets():
    for pid in PRESET_IDS:
        assert enumerate_case(lemma_case(pid)) == EXPECTED[pid], pid


def test_preset_solutions_are_box_stable():
    for pid in PRESET_IDS:
        assert (enumerate_case(lemma_case(pid, box=64))
                == enumerate_case(lemma_case(pid, box=32)))


def test_presets_run_fast():
    start = time.perf_counter()
    for spec in [lemma_case(p, 32) for p in PRESET_IDS]:
        enumerate_case(spec)
    assert time.perf_counter() - start < 1.0


def test_unknown_preset_id():
    with pytest.raises(BadParametersError):
        lemma_case("no-such-case")


_OPS = {"<=": operator.le, "<": operator.lt, "=": operator.eq,
        ">=": operator.ge, ">": operator.gt}


def _oracle_holds(con: Constraint, s: int, t: int) -> bool:
    """Re-evaluate a constraint from its coefficients, independently of
    holds()."""
    qss, qst, qtt, a, b = con.coeffs
    value = qss * s * s + qst * s * t + qtt * t * t + a * s + b * t
    return _OPS[con.rel](value, con.c)


def _ceil_sqrt(n: int) -> int:
    """The least m >= 0 with m^2 >= n, by counting."""
    m = 0
    while m * m < n:
        m += 1
    return m


def _hodge_row(a: int, b: int, c2min: int, d2: int) -> Constraint:
    """a*s + b*t >= the Hodge index floor for C^2 >= c2min, D^2 = d2."""
    return linear(a, b, ">=", _ceil_sqrt(c2min * d2))


def _random_spec(rng: random.Random) -> CaseSpec:
    cons = []
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(4)
        if kind == 0:
            cons.append(linear(rng.randint(-3, 3), rng.randint(-3, 3),
                               rng.choice(["<=", "<", "=", ">=", ">"]),
                               rng.randint(-8, 8)))
        elif kind == 1:
            cons.append(quadratic(rng.randint(-2, 2), rng.randint(-2, 2),
                                  rng.randint(-2, 2), rng.randint(-2, 2),
                                  rng.randint(-2, 2),
                                  rng.choice(["<=", ">="]),
                                  rng.randint(-6, 6)))
        elif kind == 2:
            cons.append(_hodge_row(rng.randint(-2, 2), rng.randint(-2, 2),
                                   rng.randint(1, 6), rng.randint(1, 6)))
        else:
            cons.append(abs_t_at_least(rng.randint(0, 3)))
    return CaseSpec(lattice=quartic_lattice(-2, 1),
                    constraints=tuple(cons), box=16)


def test_enumerate_case_matches_brute_force_on_random_specs():
    rng = random.Random(41)
    for _ in range(100):
        spec = _random_spec(rng)
        expected = [(s, t)
                    for s in range(-spec.box, spec.box + 1)
                    for t in range(-spec.box, spec.box + 1)
                    if all(_oracle_holds(c, s, t) for c in spec.constraints)]
        touches = any(abs(s) == spec.box or abs(t) == spec.box
                      for s, t in expected)
        if touches:
            with pytest.raises(BoxTooSmallError):
                enumerate_case(spec)
        else:
            assert enumerate_case(spec) == sorted(expected)


# ---- the solver against the point sweep it replaced -------------------------

def _sweep_enumerate(spec: CaseSpec) -> list[tuple[int, int]]:
    """The former enumerate_case: test every integer point of the box."""
    box = spec.box
    out: list[tuple[int, int]] = []
    for s in range(-box, box + 1):
        for t in range(-box, box + 1):
            if all(c.holds(s, t) for c in spec.constraints):
                out.append((s, t))
    for s, t in out:
        if abs(s) == box or abs(t) == box:
            raise BoxTooSmallError(
                f"survivor ({s}, {t}) touches the box boundary {box}; "
                f"enlarge the box")
    return sorted(out)


def _outcome(enumerate_fn, spec: CaseSpec):
    """The survivors, or the text of the boundary touch."""
    try:
        return enumerate_fn(spec)
    except BoxTooSmallError as exc:
        return f"BoxTooSmallError: {exc}"


def test_solver_matches_the_sweep_on_the_presets():
    for pid in PRESET_IDS:
        for box in (16, 17, 32, 64):
            spec = lemma_case(pid, box=box)
            assert (_outcome(enumerate_case, spec)
                    == _outcome(_sweep_enumerate, spec)), (pid, box)


def _solver_edge_spec(rng: random.Random, hits: dict) -> CaseSpec:
    """A random spec aimed at the solver's edge cases, counted in hits."""
    box = rng.randint(16, 40)
    cons = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind == 0:
            # qtt > 0 with >= or >: t outside the roots, two rays
            rel = rng.choice([">=", ">"])
            cons.append(quadratic(rng.randint(-2, 2), rng.randint(-3, 3),
                                  rng.randint(1, 3), rng.randint(-3, 3),
                                  rng.randint(-3, 3), rel,
                                  rng.randint(-30, 60)))
            hits["two-rays"] += 1
        elif kind == 1:
            # an equation, through a chosen point (integer roots) or not
            qss, qst = rng.randint(-2, 2), rng.randint(-3, 3)
            qtt = rng.choice([-3, -2, -1, 1, 2, 3])
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if rng.random() < 0.5:
                s0, t0 = rng.randint(-box + 1, box - 1), rng.randint(-9, 9)
                c = qss * s0 * s0 + qst * s0 * t0 + qtt * t0 * t0 + a * s0 + b * t0
                hits["equation-through-a-point"] += 1
            else:
                c = rng.randint(-40, 40)
                hits["equation-random"] += 1
            cons.append(quadratic(qss, qst, qtt, a, b, "=", c))
        elif kind == 2:
            # b < 0 with a strict relation
            cons.append(linear(rng.randint(-3, 3), rng.randint(-4, -1),
                               rng.choice(["<", ">"]), rng.randint(-10, 10)))
            hits["negative-b-strict"] += 1
        elif kind == 3:
            # a = b = 0: the constraint is constant in (s, t)
            cons.append(linear(0, 0, rng.choice(["<=", "<", "=", ">=", ">"]),
                               rng.randint(-1, 1)))
            hits["constant"] += 1
        else:
            cons.append(_hodge_row(rng.randint(-2, 2), rng.randint(-3, 3),
                                   rng.randint(1, 6), rng.randint(1, 6)))
            hits["hodge"] += 1
    if rng.random() < 0.6:
        # a disc inside the box, so the comparison reaches the interior
        r2 = rng.randint(box * box // 4, (box - 1) ** 2)
        cons.append(quadratic(1, 0, 1, 0, 0, rng.choice(["<=", "<"]), r2))
    return CaseSpec(lattice=quartic_lattice(-2, 1), constraints=tuple(cons),
                    box=box)


def test_solver_matches_the_sweep_on_random_edge_specs():
    rng = random.Random(7)
    hits = {k: 0 for k in ("two-rays", "equation-through-a-point",
                           "equation-random", "negative-b-strict",
                           "constant", "hodge")}
    nonempty = touched = 0
    for _ in range(150):
        spec = _solver_edge_spec(rng, hits)
        got = _outcome(enumerate_case, spec)
        assert got == _outcome(_sweep_enumerate, spec), spec.constraints
        touched += isinstance(got, str)
        nonempty += isinstance(got, list) and bool(got)
    assert min(hits.values()) >= 20, hits
    assert nonempty >= 30 and touched >= 10, (nonempty, touched)


def test_the_holds_order_changes_no_outcome_and_no_spec(monkeypatch):
    # enumerate_case asks the constraints with a quadratic part first; in
    # any order of a spec's constraints it gives the sweep's survivors or
    # boundary text, holds is asked of every constraint at each survivor,
    # and the spec keeps its constraint tuple as it was
    rng = random.Random(4401)
    asked = {}
    holds = Constraint.holds

    def recorded(con, s, t):
        asked.setdefault((s, t), []).append(id(con))
        return holds(con, s, t)

    hits = {k: 0 for k in ("two-rays", "equation-through-a-point",
                           "equation-random", "negative-b-strict",
                           "constant", "hodge")}
    specs = [lemma_case(pid, box=box) for pid in PRESET_IDS
             for box in (16, 17, 32)]
    specs += [_solver_edge_spec(rng, hits) for _ in range(100)]
    permuted = touched = 0
    for spec in specs:
        want = _outcome(_sweep_enumerate, spec)  # its order cannot matter
        kept = spec.constraints
        cons = list(kept)
        for _ in range(4):
            rng.shuffle(cons)
            shuffled = spec._replace(constraints=tuple(cons))
            order = shuffled.constraints
            asked.clear()
            with monkeypatch.context() as patch:
                patch.setattr(Constraint, "holds", recorded)
                assert _outcome(enumerate_case, shuffled) == want, order
            for point in want if isinstance(want, list) else ():
                assert sorted(asked[point]) == sorted(map(id, order)), point
            assert shuffled.constraints is order
            assert order == tuple(cons)
            permuted += kept != order
        assert _outcome(enumerate_case, spec) == want
        assert spec.constraints is kept, spec.tag
        touched += isinstance(want, str)
    assert min(hits.values()) >= 10, hits
    assert permuted >= 200 and touched >= 5, (permuted, touched)


# ---- the plan, built once per (constraint system, box) -----------------------

def test_a_planned_enumeration_matches_the_sweep_on_every_call():
    # the first call builds each plan and the second walks the kept one;
    # both give the sweep's survivors or boundary text
    _case_plan.cache_clear()
    for pid in PRESET_IDS:
        for box in (16, 17, 32, 64, 128, 256):
            spec = lemma_case(pid, box=box)
            want = _outcome(_sweep_enumerate, spec)
            for _ in range(2):
                assert _outcome(enumerate_case, spec) == want, (pid, box)
            assert want == EXPECTED[pid], (pid, box)
    rng = random.Random(4811)
    hits = {k: 0 for k in ("two-rays", "equation-through-a-point",
                           "equation-random", "negative-b-strict",
                           "constant", "hodge")}
    shapes = {k: 0 for k in (">=", ">", "<=", "<", "=", "quadratic", "abs-t")}
    touched = nonempty = 0
    for _ in range(80):
        for spec in (_solver_edge_spec(rng, hits), _polygon_spec(rng, shapes)):
            want = _outcome(_sweep_enumerate, spec)
            for _ in range(2):
                assert _outcome(enumerate_case, spec) == want, spec.constraints
            for s, t_lo, t_hi in _plan_of(spec)[1]:
                assert -spec.box <= t_lo <= t_hi <= spec.box, spec.constraints
            touched += isinstance(want, str)
            nonempty += isinstance(want, list) and bool(want)
    assert min(hits.values()) >= 10 and min(shapes.values()) >= 10, hits
    assert touched >= 5 and nonempty >= 40, (touched, nonempty)


def test_a_repeated_call_asks_holds_at_every_point_as_the_first(monkeypatch):
    # the same constraints at the same points in the same order, and every
    # point of every planned column, unless a boundary touch stops the walk
    asked = []
    holds = Constraint.holds

    def recorded(con, s, t):
        asked.append((id(con), s, t))
        return holds(con, s, t)

    rng = random.Random(4812)
    hits = {k: 0 for k in ("two-rays", "equation-through-a-point",
                           "equation-random", "negative-b-strict",
                           "constant", "hodge")}
    specs = [lemma_case(pid, box=box) for pid in PRESET_IDS
             for box in (16, 128)]
    specs += [_solver_edge_spec(rng, hits) for _ in range(60)]
    _case_plan.cache_clear()
    monkeypatch.setattr(Constraint, "holds", recorded)
    walked = 0
    for spec in specs:
        calls = []
        for _ in range(2):
            asked.clear()
            got = _outcome(enumerate_case, spec)
            calls.append(list(asked))
        assert calls[0] == calls[1], spec.constraints
        if isinstance(got, list):
            points = {(s, t) for s, t_lo, t_hi in _plan_of(spec)[1]
                      for t in range(t_lo, t_hi + 1)}
            assert {(s, t) for _, s, t in calls[0]} == points
            walked += bool(points)
    assert walked >= 40, walked


def test_no_survivor_is_kept_between_calls(monkeypatch):
    for pid in PRESET_IDS:
        spec = lemma_case(pid, box=32)
        assert enumerate_case(spec) == EXPECTED[pid]
        with monkeypatch.context() as patch:
            patch.setattr(Constraint, "holds", lambda con, s, t: False)
            assert enumerate_case(spec) == []
        assert enumerate_case(spec) == EXPECTED[pid]


def test_another_order_or_box_gets_its_own_plan():
    _case_plan.cache_clear()
    keys = set()
    for pid in PRESET_IDS:
        spec = lemma_case(pid, box=32)
        turned = spec._replace(constraints=spec.constraints[::-1])
        assert turned.constraints != spec.constraints
        for other in (spec, turned, spec._replace(box=33),
                      turned._replace(box=64)):
            assert (_outcome(enumerate_case, other)
                    == _outcome(_sweep_enumerate, other) == EXPECTED[pid])
            order, _ = _plan_of(other)
            assert [other.constraints[i] for i in order] == sorted(
                other.constraints, key=lambda con: not any(con.coeffs[:3]))
            keys.add((other.constraints, other.box))
    assert len(keys) == 20 == _case_plan.cache_info().currsize


def test_a_spec_whose_citations_do_not_hash_still_enumerates():
    spec = CaseSpec(quartic_lattice(-2, 1),
                    [linear(1, 0, ">=", 0, cite=["x"]),
                     quadratic(1, 0, 1, 0, 0, "<=", 50, cite={"y": 1}),
                     abs_t_at_least(2, cite=["z"])], box=16)
    with pytest.raises(TypeError):
        hash(spec.constraints)
    want = _sweep_enumerate(spec)
    assert want and enumerate_case(spec) == want
    assert enumerate_case(spec) == want


def test_the_plan_cache_is_bounded():
    _case_plan.cache_clear()
    lat = quartic_lattice(-2, 1)
    size = _case_plan.cache_info().maxsize
    assert size == 64
    for c in range(size + 36):
        spec = CaseSpec(lat, (quadratic(1, 0, 1, 0, 0, "<=", c),), box=16)
        assert enumerate_case(spec) == _sweep_enumerate(spec)
    info = _case_plan.cache_info()
    assert info.currsize == size and info.misses == size + 36
    # the worst case the docstring counts: box 256 and no linear row
    spec = CaseSpec(lat, (quadratic(1, 0, 1, 0, 0, "<=", 100),), box=256)
    assert len(_plan_of(spec)[1]) == 513


# ---- the narrowing helper and the column loop --------------------------------

def _random_rows(rng: random.Random, hits: dict) -> list:
    """Rows (a, b, r) aimed at the narrowing helper's edge cases."""
    rows = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.randrange(4)
        a = rng.randint(-4, 4)
        if kind == 0:
            b = 0  # a row without y, failing at the x below r / a
            hits["b=0"] += 1
        elif kind == 1:
            b = rng.randint(-4, -1)
            hits["b<0"] += 1
        else:
            b = rng.randint(1, 4)
        if kind == 3:
            # through an integer point: r - a*x is divisible by b at x0
            x0, y0 = rng.randint(-10, 10), rng.randint(-10, 10)
            r = a * x0 + b * y0
            hits["through-a-point"] += 1
        else:
            r = rng.randint(-30, 30)
        rows.append((a, b, r))
    return rows


def _swept(rows, lo: int, hi: int, x: int) -> list[int]:
    """The y in [lo, hi] with a*x + b*y >= r for every row, by testing
    each."""
    return [y for y in range(lo, hi + 1)
            if all(a * x + b * y >= r for a, b, r in rows)]


def _real_y_left(rows, x: int) -> bool:
    """Whether some real y has a*x + b*y >= r for every row, by comparing
    each row's exact bound on y."""
    lows = [Fraction(r - a * x, b) for a, b, r in rows if b > 0]
    highs = [Fraction(r - a * x, b) for a, b, r in rows if b < 0]
    return (all(a * x >= r for a, b, r in rows if b == 0)
            and (not lows or not highs or max(lows) <= min(highs)))


def test_half_plane_bounds_and_scan_match_a_brute_force_sweep():
    rng = random.Random(4402)
    hits = {k: 0 for k in ("b=0", "b<0", "through-a-point", "divides",
                           "b=0-fails", "rows-narrow", "column-narrower",
                           "empty", "empty-range")}
    for _ in range(400):
        rows = _random_rows(rng, hits)
        lo, hi = rng.randint(-14, 10), rng.randint(-10, 14)
        hits["empty-range"] += lo > hi
        width, tilt = rng.choice([0, 1, 3, 8, 40]), rng.randint(-2, 2)
        # each column(x), some of them empty
        shapes = {x: (tilt * x - width,
                      tilt * x + width - rng.choice([0, 0, 1]))
                  for x in range(lo - 2, hi + 3)}
        for x, (y_lo, y_hi) in shapes.items():
            got = half_plane_bounds(rows, y_lo, y_hi, x)
            want = _swept(rows, y_lo, y_hi, x)
            if want:
                assert got == (want[0], want[-1]), (rows, x, y_lo, y_hi)
            else:
                assert got[0] > got[1], (rows, x, y_lo, y_hi)
                hits["empty"] += 1
            hits["b=0-fails"] += any(b == 0 and a * x < r
                                     for a, b, r in rows)
            wide = _swept(rows, y_lo - 60, y_hi + 60, x)
            hits["rows-narrow"] += bool(want) and (want[0] > y_lo
                                                  or want[-1] < y_hi)
            hits["column-narrower"] += bool(want) and (
                wide[0] < y_lo or wide[-1] > y_hi)
            hits["divides"] += any(b and (r - a * x) % b == 0
                                   for a, b, r in rows)
        asked = []
        got = [(x, y)
               for x, y_lo, y_hi in scan(rows, lo, hi,
                                         lambda x: asked.append(x) or shapes[x])
               for y in range(y_lo, y_hi + 1)]
        want = [(x, y) for x in range(lo, hi + 1)
                for y in _swept(rows, *shapes[x], x)]
        assert got == want, (rows, lo, hi, width, tilt)
        # scan asks for the columns at which the rows leave some real y
        assert asked == [x for x in range(lo, hi + 1)
                         if _real_y_left(rows, x)], (rows, lo, hi)
    assert min(hits.values()) >= 40, hits


# ---- the s-range -------------------------------------------------------------

def _polygon_spec(rng: random.Random, hits: dict) -> CaseSpec:
    """A random spec whose linear rows cut a small triangle strictly inside
    the box, mixed with quadratic and |t| >= n constraints."""
    box = rng.randint(16, 40)
    s0, t0 = rng.randint(-box + 8, box - 8), rng.randint(-box + 8, box - 8)
    while True:
        pts = [(s0 + rng.randint(-6, 6), t0 + rng.randint(-6, 6))
               for _ in range(3)]
        (ps, pt), (qs, qt), (rs, rt) = pts
        cross = (qs - ps) * (rt - pt) - (qt - pt) * (rs - ps)
        if cross:
            break
    if cross < 0:
        pts.reverse()
    cons = []
    for (ps, pt), (qs, qt) in zip(pts, pts[1:] + pts[:1]):
        # the triangle lies to the left of each edge: a*s + b*t >= c
        a, b = pt - qt, qs - ps
        c = a * ps + b * pt
        rel = rng.choice([">=", ">", "<=", "<", "="])
        hits[rel] += 1
        if rel in ("<=", "<"):
            cons.append(linear(-a, -b, rel, -c))
        else:
            cons.append(linear(a, b, rel, c))
    for _ in range(rng.randint(0, 2)):
        kind = rng.randrange(2)
        if kind == 0:
            cons.append(quadratic(rng.randint(-2, 2), rng.randint(-2, 2),
                                  rng.randint(-2, 2), rng.randint(-3, 3),
                                  rng.randint(-3, 3),
                                  rng.choice(["<=", "<", "=", ">=", ">"]),
                                  rng.randint(-40, 40)))
            hits["quadratic"] += 1
        else:
            cons.append(abs_t_at_least(rng.randint(0, 6)))
            hits["abs-t"] += 1
    rng.shuffle(cons)
    return CaseSpec(lattice=quartic_lattice(-2, 1), constraints=tuple(cons),
                    box=box)


def _plan_of(spec):
    """The (holds order, columns) plan enumerate_case walks for spec."""
    return _case_plan(tuple(con[:3] for con in spec.constraints), spec.box)


def _s_range(spec):
    """The s at which the plan of spec asks scan for a column: those at
    which its linear rows and |t| <= box leave some real t."""
    asked = []

    def recording(rows, lo, hi, column):
        return scan(rows, lo, hi, lambda s: asked.append(s) or column(s))
    with mock.patch.object(constraints, "scan", recording):
        _case_plan.__wrapped__(tuple(con[:3] for con in spec.constraints),
                               spec.box)
    return tuple(asked)


def test_s_range_solver_matches_the_sweep_on_bounded_polygons():
    rng = random.Random(23)
    hits = {k: 0 for k in (">=", ">", "<=", "<", "=", "quadratic", "abs-t")}
    narrowed = nonempty = 0
    for _ in range(150):
        spec = _polygon_spec(rng, hits)
        got = _outcome(enumerate_case, spec)
        assert got == _outcome(_sweep_enumerate, spec), spec.constraints
        assert all(s in _s_range(spec) for s, _ in got), spec.constraints
        narrowed += len(_s_range(spec)) < 2 * spec.box + 1
        nonempty += bool(got)
    assert min(hits.values()) >= 20, hits
    assert narrowed >= 140 and nonempty >= 60, (narrowed, nonempty)


@pytest.mark.parametrize("cons", [
    (quadratic(1, 0, 1, 0, 0, "<=", 100),),
    (quadratic(1, 0, -1, 0, 0, "=", 0), abs_t_at_least(3)),
    (abs_t_at_least(20),),
], ids=["quadratic", "quadratic-abs-t", "abs-t"])
def test_specs_without_linear_rows_walk_the_whole_box(cons):
    spec = CaseSpec(lattice=quartic_lattice(-2, 1), constraints=cons, box=21)
    assert _s_range(spec) == tuple(range(-21, 22))
    assert _outcome(enumerate_case, spec) == _outcome(_sweep_enumerate, spec)


def test_s_range_of_the_constant_rows():
    lat = quartic_lattice(-2, 1)
    never = CaseSpec(lattice=lat, constraints=(linear(0, 0, ">", 0),), box=16)
    assert _s_range(never) == tuple(range(0))
    strip = CaseSpec(lattice=lat, constraints=(linear(2, 0, ">", 3),
                                              linear(3, 0, "<=", 20)), box=16)
    assert _s_range(strip) == tuple(range(2, 7))


def test_preset_s_ranges_do_not_depend_on_the_box():
    for pid in PRESET_IDS:
        ranges = {box: _s_range(lemma_case(pid, box=box))
                  for box in (16, 17, 32, 64, 128, 256)}
        assert len(set(ranges.values())) == 1, (pid, ranges)
        columns = ranges[16]
        assert 0 < len(columns) <= 9, (pid, columns)
        assert all(s in columns for s, _ in EXPECTED[pid]), (pid, columns)


def _with(bad):
    """The constraints of a spec: a first constraint and then bad."""
    return lambda first: (first, bad())


@pytest.mark.parametrize("bad", [
    _with(lambda: Constraint((0, 0, 0, 1, 1), "!=", 0)),
    _with(lambda: Constraint((1, 0, 1, 0, 0), "~", 4)),
    _with(lambda: Constraint(("congruence", 1, 1, 0, 2), "=", 1)),
    _with(lambda: linear(1, 1, ">=", invariants.hodge_lower(0, 2))),
    _with(lambda: linear(1, 1, ">=", invariants.hodge_lower(4, -2))),
    _with(lambda: Constraint((1, 2), "<=", 0)),
    _with(lambda: Constraint((0, 0, 1, 1), ">=", 4)),
    _with(lambda: Constraint((0, 0, 1, 0, 0, 3), ">=", 4)),
    _with(lambda: Constraint((0, 0, 0, 1, 0.5), "<=", 3)),
    _with(lambda: Constraint((0, 0, 0, True, 0), ">=", 15)),
    _with(lambda: Constraint(None, ">=", 0)),
    _with(lambda: Constraint(5, ">=", 0)),
    lambda first: (first, None),
    lambda first: 5,
], ids=["linear-relation", "quadratic-relation", "custom-kind",
        "hodge-c2min", "hodge-d2", "linear-short", "hodge-short",
        "abs-t-long", "linear-float", "linear-bool", "none-payload",
        "int-payload", "none-constraint", "int-constraints"])
def test_bad_hand_built_constraint_is_bad_input(bad, capsys, monkeypatch):
    from k3acm import cli

    def spec(first):
        return CaseSpec(lattice=quartic_lattice(-2, 1),
                        constraints=bad(first), box=16)

    # whether or not another constraint already empties the box
    for first in (linear(1, 0, ">=", 0), linear(0, 0, ">", 0)):
        with pytest.raises(BadParametersError):
            enumerate_case(spec(first))
    monkeypatch.setattr(cli, "lemma_case", lambda pid, box: spec(first))
    assert cli.main(["enumerate", "--preset", "i-a"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err and not out


def test_preset_work_does_not_depend_on_the_box(monkeypatch):
    calls = 0
    holds = Constraint.holds

    def counted(con, s, t):
        nonlocal calls
        calls += 1
        return holds(con, s, t)

    monkeypatch.setattr(Constraint, "holds", counted)
    for pid in PRESET_IDS:
        counts = []
        for box in (16, 256):
            calls = 0
            assert enumerate_case(lemma_case(pid, box=box)) == EXPECTED[pid]
            counts.append(calls)
        assert counts[0] == counts[1] <= 50, (pid, counts)


def test_preset_enumeration_computes_no_hodge_floor(monkeypatch):
    # the Hodge floors are integers in the preset rows, computed when the
    # preset is built, not while its region is scanned
    calls = 0
    hodge_lower = invariants.hodge_lower

    def counted(c2min, d2):
        nonlocal calls
        calls += 1
        return hodge_lower(c2min, d2)

    specs = [lemma_case(pid, box=box) for pid in PRESET_IDS
             for box in (16, 256)]
    for name, module in list(sys.modules.items()):
        if name.startswith("k3acm") and getattr(
                module, "hodge_lower", None) is hodge_lower:
            monkeypatch.setattr(module, "hodge_lower", counted)
    for spec in specs:
        assert enumerate_case(spec) == EXPECTED[spec.tag]
    assert calls == 0


def test_presets_run_fast_at_the_largest_box():
    start = time.perf_counter()
    for spec in [lemma_case(p, 256) for p in PRESET_IDS]:
        enumerate_case(spec)
    assert time.perf_counter() - start < 0.5
    for pid in PRESET_IDS:
        assert all(enumerate_case(lemma_case(pid, box=box)) == EXPECTED[pid]
                   for box in (16, 32, 64, 128, 256)), pid
