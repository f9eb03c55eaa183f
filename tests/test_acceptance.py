"""Acceptance gate: one test per shipped guarantee.

Each test here restates one headline guarantee of the package end to end,
so ``pytest -v`` prints a single pass/fail line per guarantee.
"""

import json
import operator
import random
import time

import pytest

from k3acm import (Assumption, AssumptionKind, BundleInvariants, DivClass,
                   Lattice, NotEffectiveCandidateError, chern_twist,
                   chi_bundle, chi_line, genus_of, is_initialized_acm,
                   lm_invariants, twist_chi)
from k3acm.casework import (PRESET_IDS, CaseSpec, Constraint,
                            builtin_scripts, delpezzo_lattice,
                            delpezzo_pencil_f, delpezzo_pencil_fj,
                            enumerate_case, lemma_case, quartic_lattice,
                            run_script, script_by_tag)
from k3acm.casework.scripts import ArithClaim, evaluate
from k3acm.cli import main
from k3acm.config import data_path, load_config, shipped_config_names
from k3acm.errors import BoxTooSmallError, NonSymmetricError


def test_criterion_1_preset_enumerations_exact_and_fast():
    expected = {
        "i-a": [(3, -2)],
        "i-b": [(2, 2), (4, -2)],
        "i-c": [(4, -2)],
        "ii": [(1, 2), (5, -2)],
        "iii": [(0, 2), (6, -2)],
    }
    assert tuple(expected) == PRESET_IDS
    start = time.perf_counter()
    got = {pid: enumerate_case(lemma_case(pid, box=32)) for pid in PRESET_IDS}
    elapsed = time.perf_counter() - start
    assert got == expected
    assert elapsed < 1.0
    for pid in PRESET_IDS:
        assert enumerate_case(lemma_case(pid, box=64)) == expected[pid]


def test_criterion_2_classifier_matches_the_window_table():
    def closed_form(b2, hb):
        if hb == 0:
            return "NotAcm"  # degree zero leaves no sections to initialize
        if b2 == -2 and 1 <= hb <= 3:
            return "Acm"
        if b2 == 0 and 3 <= hb <= 4:
            return "Acm"
        if b2 == 2 and hb == 5:
            return "Acm"
        if b2 == 4 and hb == 6:
            return "NeedsAssumption"
        return "NotAcm"

    def classify(b2, hb, assumptions=()):
        lat = Lattice(gram=((4, hb), (hb, b2)), labels=("h", "B"),
                      ample=DivClass((1, 0)), k3=False)
        try:
            cls = is_initialized_acm(lat, DivClass((0, 1)), assumptions)
        except NotEffectiveCandidateError:
            return "NotAcm"
        return cls.status.value

    for b2 in range(-8, 9, 2):
        for hb in range(0, 13):
            assert classify(b2, hb) == closed_form(b2, hb), (b2, hb)

    # the Ulrich cell flips once the two emptiness facts are granted
    empties = (
        Assumption(DivClass((-1, 1)), AssumptionKind.EMPTY),
        Assumption(DivClass((2, -1)), AssumptionKind.EMPTY),
    )
    assert classify(4, 6, empties) == "AcmUlrich"
    bare = is_initialized_acm(quartic_lattice(4, 6), DivClass((0, 1)))
    assert {m.subject.coords for m in bare.missing} == {(-1, 1), (2, -1)}


def test_criterion_3_case_constants_come_out_of_the_scripts():
    # per script: genus, degree C.h, pencil degree d, Brill-Noether number
    table = {
        "case-B2neg2-Bh2": (13, 12, 8, None),
        "case-B2neg2-Bh3": (5, 10, 2,
                            ("Brill-Noether number of a degree-2 pencil", -3)),
        "case-B20-Bh4": (11, 12, 6,
                         ("Brill-Noether number of a degree-6 pencil", -1)),
        "case-B24": (9, 12, 4,
                     ("Brill-Noether number of a degree-4 pencil", -3)),
    }
    for tag, (g, ch, d, rho) in table.items():
        script = script_by_tag(tag)
        assert run_script(script).success, tag
        claims = {st.label: st for st in script.steps
                  if isinstance(st, ArithClaim)}

        def value(label, side="lhs"):
            return evaluate(getattr(claims[label], side), script.lattice)

        assert value("sectional genus of the curve class") == g
        assert value("polarized degree of the curve class") == ch
        assert value("lower end of the c2 window", "rhs") == d
        assert value("upper end of the c2 window", "rhs") == d
        if rho is None:
            assert not any(l.startswith("Brill-Noether") for l in claims)
        else:
            label, want = rho
            assert value(label) == want
            assert claims[label].rhs == want
        if d in (6, 4):
            single = claims["the c2 window is a single point"]
            assert single.rhs == d
            assert value("the c2 window is a single point") == d

    # the forced-degree-8 case dies through its twisted invariants instead
    script = script_by_tag("case-B2neg2-Bh2")
    claims = {st.label: st for st in script.steps
              if isinstance(st, ArithClaim)}
    lat = script.lattice
    twisted = {
        "the twisted first Chern class squares to zero": 0,
        "second Chern class of the twist": 2,
        "Euler characteristic of the twist": 2,
    }
    for label, want in twisted.items():
        assert evaluate(claims[label].lhs, lat) == want, label
    h1 = claims["h^1 of the twist is negative"]
    assert evaluate(h1.lhs, lat) == -2
    assert h1.rel == "<" and h1.rhs == 0
    assert h1.contradicts


def test_criterion_4_double_cover_lattice_identities():
    lat = delpezzo_lattice()
    assert lat.is_even()
    assert lat.signature() == (1, 7)
    h = lat.ample
    f = delpezzo_pencil_f()
    assert lat.self_int(h) == 4
    assert lat.self_int(f) == 0
    assert lat.pair(h, f) == 4
    for j in (5, 6, 7):
        fj = delpezzo_pencil_fj(j)
        assert lat.self_int(fj) == 0
        assert lat.pair(h, fj) == 4
        assert lat.self_int(f - fj) == -8
        assert lat.self_int(f + fj - 2 * h) == -8
        assert chi_line(lat.self_int(f - fj)) == -2
    report = run_script(script_by_tag("delpezzo-cover"))
    assert report.success
    assert report.failed == ()


def test_criterion_5_theorem_command_verifies_every_config(capsys):
    code = main(["theorem", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "VERIFIED"
    assert len(payload["configs"]) == 7
    for cfg in payload["configs"]:
        assert cfg["status"] == "VERIFIED"
        assert cfg["unmatched"] == []
        assert cfg["survivors"], cfg["config"]
        for match in cfg["matches"]:
            assert match["report"]["status"] == "Success"
        assert [row["t"] for row in cfg["reductions"]] == [-1, 0, 1]
        if cfg["profile"] in ([0, 3], [2, 5]):
            assert cfg["substitution"]["report"]["status"] == "Success"


def test_criterion_6_property_suites():
    rng = random.Random(20260814)

    # pairing properties: 1000 random vectors per shipped lattice
    lattices = [load_config(data_path(name))[0]
                for name in shipped_config_names()]
    assert len(lattices) == 8
    for lat in lattices:
        n = lat.rank
        for _ in range(1000):
            x = DivClass([rng.randint(-9, 9) for _ in range(n)])
            y = DivClass([rng.randint(-9, 9) for _ in range(n)])
            z = DivClass([rng.randint(-9, 9) for _ in range(n)])
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            assert lat.pair(x, y) == lat.pair(y, x)
            assert (lat.pair(a * x + b * y, z)
                    == a * lat.pair(x, z) + b * lat.pair(y, z))
            assert lat.self_int(x) % 2 == 0

    # Hodge index on 1000 positive-square pairs in the rank-8 lattice
    dp = delpezzo_lattice()

    def positive_vector():
        while True:
            coords = [rng.randint(1, 9)] + [rng.randint(-3, 3)
                                            for _ in range(7)]
            v = DivClass(coords)
            if dp.self_int(v) > 0:
                return v

    for _ in range(1000):
        d1, d2 = positive_vector(), positive_vector()
        assert dp.hodge_check(d1, d2)
        assert dp.self_int(d1) * dp.self_int(d2) <= dp.pair(d1, d2) ** 2

    # enumeration against an independent brute-force oracle
    ops = {"<=": operator.le, "<": operator.lt, "=": operator.eq,
           ">=": operator.ge, ">": operator.gt}

    def oracle_holds(con, s, t):
        qss, qst, qtt, a, b = con.coeffs
        return ops[con.rel](qss * s * s + qst * s * t + qtt * t * t
                            + a * s + b * t, con.c)

    def ceil_sqrt(n):
        m = 1
        while m * m < n:
            m += 1
        return m

    def random_constraint():
        roll = rng.randrange(4)
        if roll == 0:
            return Constraint((0, 0, 0, rng.randint(-3, 3), rng.randint(-3, 3)),
                              rng.choice(list(ops)), rng.randint(-10, 10))
        if roll == 1:
            return Constraint((rng.randint(-2, 2), rng.randint(-2, 2),
                               rng.randint(-2, 2), rng.randint(-2, 2),
                               rng.randint(-2, 2)), rng.choice(list(ops)),
                              rng.randint(-20, 40))
        if roll == 2:
            # a*s + b*t >= the Hodge floor for C^2 >= c2min, D^2 = d2
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            floor = ceil_sqrt(rng.randint(1, 9) * rng.randint(1, 6))
            return Constraint((0, 0, 0, a, b), ">=", floor)
        # |t| >= n as t^2 >= n^2
        return Constraint((0, 0, 1, 0, 0), ">=", rng.randint(0, 4) ** 2)

    lat2 = quartic_lattice(-2, 1)
    box = 16
    for _ in range(100):
        cons = tuple(random_constraint()
                     for _ in range(rng.randint(1, 4)))
        spec = CaseSpec(lattice=lat2, constraints=cons, box=box)
        brute = sorted(
            (s, t)
            for s in range(-box, box + 1)
            for t in range(-box, box + 1)
            if all(oracle_holds(c, s, t) for c in cons))
        touches = any(abs(s) == box or abs(t) == box for s, t in brute)
        if touches:
            with pytest.raises(BoxTooSmallError):
                enumerate_case(spec)
        else:
            assert enumerate_case(spec) == brute

    # gram-mutation sensitivity across the quartic presentations
    rank2 = [s for s in builtin_scripts().values() if s.lattice.rank == 2]
    assert {(s.lattice.gram[1][1], s.lattice.gram[0][1]) for s in rank2} == {
        (-2, 1), (-2, 2), (-2, 3), (0, 3), (0, 4), (2, 5), (4, 6)}
    for script in rank2:
        gram = [list(row) for row in script.lattice.gram]
        for i in range(2):
            for j in range(2):
                for delta in (1, -1):
                    rows = [row[:] for row in gram]
                    rows[i][j] += delta
                    mutated = tuple(tuple(row) for row in rows)
                    if i != j:
                        with pytest.raises(NonSymmetricError):
                            Lattice(gram=mutated,
                                    labels=script.lattice.labels,
                                    ample=script.lattice.ample, k3=False)
                        continue
                    wrong = Lattice(gram=mutated,
                                    labels=script.lattice.labels,
                                    ample=script.lattice.ample, k3=False)
                    report = run_script(script.with_lattice(wrong))
                    assert report.failed, (script.tag, i, delta)


def test_criterion_7_twist_and_pencil_identities():
    for g in range(3, 21):
        for d in range(1, 21):
            want = g - d + 3
            for ch in (0, 7, 19):
                assert twist_chi(0, ch, g, d) == want
            assert lm_invariants(g, 1, d).h0 == want

    cases = [
        (quartic_lattice(-2, 2), (2, 2), 8),
        (quartic_lattice(-2, 3), (4, -2), 2),
        (quartic_lattice(0, 4), (1, 2), 6),
        (quartic_lattice(4, 6), (0, 2), 4),
    ]
    twists = [(1, 0), (0, 1), (-1, 1), (2, -1), (-1, -1)]
    for lat, c1, c2 in cases:
        inv = BundleInvariants(rank=2, c1=DivClass(c1), c2=c2)
        for line in twists:
            ell = DivClass(line)
            there = chern_twist(inv, ell, lat)
            assert chern_twist(there, -ell, lat) == inv
            assert (chi_bundle(there, lat)
                    == 4 + lat.self_int(there.c1) // 2 - there.c2)
        # twisting down by l hyperplanes matches the closed pencil formula
        g = genus_of(lat.self_int(inv.c1))
        ch = lat.deg(inv.c1)
        for l in range(-3, 4):
            down = chern_twist(inv, DivClass((-l, 0)), lat)
            assert chi_bundle(down, lat) == twist_chi(l, ch, g, c2)


def test_every_exported_name_resolves():
    import k3acm
    import k3acm.casework
    for module in (k3acm, k3acm.casework):
        for name in module.__all__:
            assert getattr(module, name, None) is not None, (module, name)
    exported = set(k3acm.__all__) | set(k3acm.casework.__all__)
    gone = {"custom", "CUSTOM_PREDICATES", "hilbert_ideal_z",
            "NegativeDimensionError", "script_to_json", "script_from_json",
            "step_from_json", "PencilVerdict", "is_elliptic_pencil_class",
            "lemma51_presets", "QUARTIC_PRESENTATIONS", "axiom_statement",
            "dump_config", "basis"}
    assert not exported & gone
    import k3acm.axioms
    import k3acm.casework.presets
    import k3acm.casework.scripts
    import k3acm.classifier
    import k3acm.config
    for module in (k3acm, k3acm.casework, k3acm.axioms, k3acm.classifier,
                   k3acm.config, k3acm.casework.presets,
                   k3acm.casework.scripts, k3acm.Lattice):
        assert not {name for name in gone if hasattr(module, name)}, module
