"""Effectivity verdicts, the initialized-aCM window table and companions."""

import pytest

from k3acm import classifier
from k3acm import (AcmClassification, AcmStatus, Assumption, AssumptionKind,
                   BadParametersError, ConflictingAssumptionsError, DivClass,
                   Effectivity, Lattice, NotAcmInputError,
                   NotEffectiveCandidateError, TrivialClassError, Verdict,
                   acm_companions, derived_assumptions, effectivity,
                   is_initialized_acm)
from k3acm.casework import (quartic_lattice, ulrich_assumptions,
                            verify_necessity)
from k3acm.config import data_path, load_config, shipped_config_names
from k3acm.errors import WorkbenchError

H = DivClass((1, 0))
B = DivClass((0, 1))


def test_effectivity_rules():
    lat = quartic_lattice(-2, 1)
    assert effectivity(lat, DivClass((0, 0))).value is Effectivity.EFFECTIVE
    # square >= -2 and positive degree: Riemann-Roch gives a section
    assert effectivity(lat, B).value is Effectivity.EFFECTIVE
    # nonpositive degree and nonzero: no effective representative
    assert effectivity(lat, -B).value is Effectivity.EMPTY
    # square < -2, positive degree: undecidable from the lattice alone
    deep = DivClass((1, -3))
    assert lat.self_int(deep) < -2 and lat.deg(deep) > 0
    assert effectivity(lat, deep).value is Effectivity.UNKNOWN
    told = [Assumption(deep, AssumptionKind.EFFECTIVE, "told so")]
    assert effectivity(lat, deep, told).value is Effectivity.EFFECTIVE
    told = [Assumption(deep, AssumptionKind.EMPTY, "told so")]
    assert effectivity(lat, deep, told).value is Effectivity.EMPTY


def test_every_kind_but_empty_asserts_a_nonempty_system():
    # a base-point-free system has sections: asserted alone it decides
    # effectivity, as it does the conflict check
    assert classifier._NONEMPTY_KINDS == set(AssumptionKind) - {
        AssumptionKind.EMPTY}
    lat = quartic_lattice(-2, 1)
    deep = DivClass((1, -3))
    told = [Assumption(deep, AssumptionKind.BASE_POINT_FREE, "told so")]
    assert effectivity(lat, deep, told) == Verdict(
        Effectivity.EFFECTIVE, "assumed-BasePointFree")


def test_riemann_roch_outranks_an_empty_assumption():
    lat = quartic_lattice(-2, 1)
    bad = [Assumption(B, AssumptionKind.EMPTY, "wrong")]
    assert effectivity(lat, B, bad).value is Effectivity.EFFECTIVE


def test_conflicting_assumptions_are_rejected():
    lat = quartic_lattice(-2, 1)
    deep = DivClass((1, -3))
    clash = [Assumption(deep, AssumptionKind.EFFECTIVE, ""),
             Assumption(deep, AssumptionKind.EMPTY, "")]
    with pytest.raises(ConflictingAssumptionsError):
        effectivity(lat, deep, clash)


def test_a_class_asserted_base_point_free_and_empty_is_a_conflict():
    # a base-point-free system has sections, so Empty contradicts it
    lat = quartic_lattice(-2, 2)
    p = DivClass((3, -1))
    clash = (Assumption(p, AssumptionKind.BASE_POINT_FREE, ""),
             Assumption(p, AssumptionKind.EMPTY, ""))
    for facts in (clash, clash[::-1]):
        with pytest.raises(ConflictingAssumptionsError,
                           match=r"both effective and empty: \[\(3, -1\)\]"):
            is_initialized_acm(lat, B, facts)
        with pytest.raises(ConflictingAssumptionsError):
            effectivity(lat, p, facts)
    # each kind alone stands
    for fact in clash:
        assert is_initialized_acm(lat, B, (fact,)).status is AcmStatus.ACM


def test_classifier_windows():
    for hb in (1, 2, 3):
        cls = is_initialized_acm(quartic_lattice(-2, hb), B)
        assert (cls.status, cls.case_tag) == (AcmStatus.ACM, "a")
    for hb in (3, 4):
        cls = is_initialized_acm(quartic_lattice(0, hb), B)
        assert (cls.status, cls.case_tag) == (AcmStatus.ACM, "b")
    cls = is_initialized_acm(quartic_lattice(2, 5), B)
    assert (cls.status, cls.case_tag) == (AcmStatus.ACM, "c")
    assert is_initialized_acm(quartic_lattice(-2, 5), B).status is AcmStatus.NOT_ACM
    assert is_initialized_acm(quartic_lattice(0, 2), B).status is AcmStatus.NOT_ACM
    assert is_initialized_acm(quartic_lattice(2, 6), B).status is AcmStatus.NOT_ACM


def test_classifier_rejects_trivial_and_empty_classes():
    lat = quartic_lattice(-2, 1)
    with pytest.raises(TrivialClassError):
        is_initialized_acm(lat, DivClass((0, 0)))
    with pytest.raises(NotEffectiveCandidateError):
        is_initialized_acm(lat, -B)


def test_an_empty_class_past_the_int_digit_limit_is_named_by_its_size():
    # the refusal writes a coordinate that str() refuses as its bit length
    import sys
    limit = (getattr(sys, "get_int_max_str_digits", int)()
             or pytest.skip("this interpreter has no int-to-str digit limit"))
    big = 10 ** (limit + 100)
    with pytest.raises(NotEffectiveCandidateError) as exc:
        is_initialized_acm(quartic_lattice(-2, 1), DivClass((-big, 0)))
    assert str(exc.value).endswith(
        f"; B = (<an int of {big.bit_length()} bits>, 0)")


def test_an_int_past_the_digit_limit_as_b_is_bad_input():
    # the refusal names the int by its size, where repr() would raise
    import sys
    limit = (getattr(sys, "get_int_max_str_digits", int)()
             or pytest.skip("this interpreter has no int-to-str digit limit"))
    big = 10 ** (limit + 700)
    with pytest.raises(BadParametersError) as exc:
        is_initialized_acm(quartic_lattice(-2, 1), big)
    assert str(exc.value) == (
        f"B must be a DivClass, got <an int of {big.bit_length()} bits>")


def test_ulrich_window_needs_emptiness_facts():
    lat = quartic_lattice(4, 6)
    cls = is_initialized_acm(lat, B)
    assert cls.status is AcmStatus.NEEDS_ASSUMPTION
    assert cls.case_tag == "d"
    assert {a.subject for a in cls.missing} == {B - H, 2 * H - B}
    assert all(a.kind is AssumptionKind.EMPTY for a in cls.missing)

    cls = is_initialized_acm(lat, B, ulrich_assumptions(lat))
    assert (cls.status, cls.case_tag) == (AcmStatus.ACM_ULRICH, "d")

    # a section of B - h disqualifies the candidate outright
    witness = [Assumption(B - H, AssumptionKind.EFFECTIVE, "has a member")]
    assert is_initialized_acm(lat, B, witness).status is AcmStatus.NOT_ACM


def test_companions_table():
    def rules(b2, hb, assumptions=()):
        lat = quartic_lattice(b2, hb)
        cls = is_initialized_acm(lat, B, assumptions)
        return [(c.coords, rule)
                for c, rule in acm_companions(lat, B, cls, assumptions)]

    assert rules(-2, 1) == [((0, -1), "dual-acm-not-initialized"),
                            ((1, -1), "complement-in-h")]
    assert rules(-2, 2) == [((0, -1), "dual-acm-not-initialized"),
                            ((1, -1), "complement-in-h")]
    assert rules(-2, 3) == [((0, -1), "dual-acm-not-initialized"),
                            ((2, -1), "complement-in-2h")]
    assert rules(0, 3) == [((0, -1), "dual-acm-not-initialized"),
                           ((1, -1), "complement-in-h")]
    assert rules(0, 4) == [((0, -1), "dual-acm-not-initialized"),
                           ((2, -1), "complement-in-2h")]
    assert rules(2, 5) == [((0, -1), "dual-acm-not-initialized"),
                           ((2, -1), "complement-in-2h")]
    lat = quartic_lattice(4, 6)
    assert rules(4, 6, ulrich_assumptions(lat)) == [
        ((0, -1), "dual-acm-not-initialized"),
        ((3, -1), "complement-in-3h")]


def test_companion_complements_land_back_in_the_table():
    # h - B on (-2, 1) is isotropic of degree 3: window (b)
    lat = quartic_lattice(-2, 1)
    comp = H - B
    assert (lat.self_int(comp), lat.deg(comp)) == (0, 3)
    assert is_initialized_acm(lat, comp).status is AcmStatus.ACM
    assert is_initialized_acm(lat, comp).case_tag == "b"
    # 2h - B on (-2, 3) has square 2 and degree 5: window (c)
    lat = quartic_lattice(-2, 3)
    comp = 2 * H - B
    assert (lat.self_int(comp), lat.deg(comp)) == (2, 5)
    assert is_initialized_acm(lat, comp).status is AcmStatus.ACM


def test_companions_refuse_unclassified_input():
    lat = quartic_lattice(-2, 5)
    cls = is_initialized_acm(lat, B)
    with pytest.raises(NotAcmInputError):
        acm_companions(lat, B, cls)


def test_each_complement_of_the_table_is_initialized_acm():
    # k h - B has (4k^2 - 2k h.B + B^2, 4k - h.B); read k from the table
    # and classify the complement directly, not through acm_companions
    from k3acm.casework import PRESET_PRESENTATION
    from k3acm.casework.casebook import CASES
    complement = classifier.complement
    for (b2, hb), (_, k) in classifier.WINDOWS.items():
        assert k >= 1, (b2, hb)
        image = (4 * k * k - 2 * k * hb + b2, 4 * k - hb)
        assert image in classifier.WINDOWS, (b2, hb)
        assert complement(b2, hb) == image
        assert complement(*image) == (b2, hb)
        lat = quartic_lattice(b2, hb)
        comp = k * H - B
        assert (lat.self_int(comp), lat.deg(comp)) == image
        cls = is_initialized_acm(lat, comp, ulrich_assumptions(lat))
        assert cls.status in (AcmStatus.ACM, AcmStatus.ACM_ULRICH), (b2, hb)
        assert cls.case_tag == classifier.WINDOWS[image][0]
    for off in ((-2, 5), (0, 0), (4, 5)):
        with pytest.raises(NotAcmInputError, match="is in no window"):
            complement(*off)
    # the presets are one representative of each orbit {p, complement(p)}
    orbits = {frozenset((p, complement(*p))) for p in classifier.WINDOWS}
    presets = set(PRESET_PRESENTATION.values())
    assert len(orbits) == len(presets) == len(PRESET_PRESENTATION) == 5
    assert {frozenset((p, complement(*p))) for p in presets} == orbits
    # a reduction row reduces a non-preset key to its complement, which
    # is a preset
    reductions = [case.presentation for case in CASES if case.reduces]
    assert sorted(reductions) == sorted(set(classifier.WINDOWS) - presets)
    assert all(complement(*p) in presets for p in reductions)
    # a -mirror row's curve is sigma: (s, t) -> (s + kt, -t) of its
    # original's, on a presentation sigma fixes
    by_tag = {case.tag: case for case in CASES}
    mirrors = [case for case in CASES if case.tag.endswith("-mirror")]
    assert len(mirrors) == 3
    for mirror in mirrors:
        original = by_tag[mirror.tag.removesuffix("-mirror")]
        p = original.presentation
        assert mirror.presentation == p == complement(*p), mirror.tag
        k, (s, t) = classifier.WINDOWS[p][1], original.curve.coords
        assert mirror.curve == DivClass((s + k * t, -t)), mirror.tag


@pytest.mark.parametrize("lat, b", [
    (quartic_lattice(-2, 5), B),          # B^2 = -2 but h.B = 5
    (quartic_lattice(-2, 1), H + B),      # (4, 5) on an admitted lattice
    (quartic_lattice(2, 6), B)])          # B^2 = 2 but h.B = 6
def test_companions_refuse_a_forged_classification(lat, b):
    forged = AcmClassification(AcmStatus.ACM, "a")
    with pytest.raises(NotAcmInputError, match="is in no window"):
        acm_companions(lat, b, forged)


def test_derived_assumptions():
    lat = quartic_lattice(-2, 3)
    cls = is_initialized_acm(lat, B)
    facts = derived_assumptions(lat, B, cls)
    have = {(a.subject.coords, a.kind) for a in facts}
    assert (B.coords, AssumptionKind.EFFECTIVE) in have
    assert ((2, -1), AssumptionKind.EFFECTIVE) in have
    assert ((2, -1), AssumptionKind.BASE_POINT_FREE) in have
    # B itself has square -2, so no base-point-free fact for it
    assert (B.coords, AssumptionKind.BASE_POINT_FREE) not in have
    # the dual companion is never recorded as effective
    assert ((0, -1), AssumptionKind.EFFECTIVE) not in have


def test_classifier_is_pure_in_square_and_degree():
    # the same (B^2, h.B) through a different basis classifies identically
    lat = Lattice(gram=[[4, 7], [7, 10]], labels=("h", "x"),
                  ample=DivClass((1, 0)), k3=False)
    d = DivClass((-1, 1))   # square 10 - 14 + 4 = 0, degree 3
    assert (lat.self_int(d), lat.deg(d)) == (0, 3)
    assert is_initialized_acm(lat, d).status is AcmStatus.ACM


# ---- the per-process caches against the uncached originals -----------------------

_classify_oracle = classifier._classify.__wrapped__
_derive_oracle = classifier._derive.__wrapped__


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WorkbenchError as exc:
        return type(exc)


def test_cached_classifier_matches_the_uncached_original():
    from test_scripts import _gram_mutants
    hits = classifier._classify.cache_info().hits
    compared = derived = refused = 0
    for name in shipped_config_names():
        config_lat, raw = load_config(data_path(name))
        pad = (0,) * (config_lat.rank - 2)
        b = DivClass((0, 1) + pad)
        for lat in _gram_mutants(config_lat):
            fact_sets = [tuple(raw)]
            try:
                cls = is_initialized_acm(lat, b, raw)
                fact_sets.append(tuple(derived_assumptions(lat, b, cls, raw)))
            except BadParametersError:
                # a mutant of h^2 is no quartic: every class is refused
                assert lat.self_int(lat.ample) != 4
                refused += 1
            except WorkbenchError:
                pass  # B is not aCM here: the raw facts stand alone
            for facts in fact_sets:
                backwards = facts[::-1]
                for s in range(-3, 4):
                    for t in range(-3, 4):
                        p = DivClass((s, t) + pad)
                        want = _outcome(_classify_oracle, lat, p, facts)
                        # a miss, then a hit; the order of the facts is
                        # part of the key but not of the answer
                        assert _outcome(is_initialized_acm, lat, p,
                                        facts) == want
                        assert _outcome(is_initialized_acm, lat, p,
                                        list(facts)) == want
                        assert _outcome(is_initialized_acm, lat, p,
                                        backwards) == want
                        compared += 1
                        if isinstance(want, type):
                            continue
                        for order in (facts, backwards):
                            expect = _outcome(_derive_oracle, lat, p, want,
                                              order)
                            if not isinstance(expect, type):
                                expect = list(expect)
                            got = _outcome(derived_assumptions, lat, p, want,
                                           order)
                            assert got == expect
                            if isinstance(got, list):
                                # a caller's edit never reaches the cache
                                got.append(got[0])
                                got.clear()
                                assert derived_assumptions(
                                    lat, p, want, order) == expect
                                derived += 1
    assert classifier._classify.cache_info().hits > hits
    assert (compared, derived, refused) == (6272, 120, 78)


def test_a_plain_tuple_class_is_bad_input():
    lat = quartic_lattice(-2, 3)
    before = classifier._classify.cache_info().currsize
    for _ in range(2):
        with pytest.raises(BadParametersError, match="B must be a DivClass"):
            is_initialized_acm(lat, (0, 1))
    assert classifier._classify.cache_info().currsize == before


_LAT = quartic_lattice(-2, 3)
_CLS = is_initialized_acm(_LAT, B)


@pytest.mark.parametrize("probe", [
    lambda: verify_necessity(_LAT, (0, 1)),
    lambda: verify_necessity(_LAT, [0, 1]),
    lambda: is_initialized_acm(_LAT, [0, 1]),
    lambda: derived_assumptions(_LAT, [0, 1], _CLS),
    lambda: acm_companions(_LAT, (0, 1), _CLS),
    lambda: effectivity(_LAT, (0, 1)),
    lambda: Verdict(Effectivity.EFFECTIVE)],
    ids=["verify_necessity-tuple", "verify_necessity-list",
         "is_initialized_acm-list", "derived_assumptions-list",
         "acm_companions-tuple", "effectivity-tuple", "verdict-no-reason"])
def test_a_wrongly_typed_argument_is_bad_input(probe):
    before = (classifier._classify.cache_info().currsize,
              classifier._derive.cache_info().currsize)
    for _ in range(2):
        with pytest.raises(BadParametersError):
            probe()
    assert (classifier._classify.cache_info().currsize,
            classifier._derive.cache_info().currsize) == before


def test_a_fact_that_is_not_an_assumption_is_bad_input():
    lat = quartic_lattice(-2, 3)
    before = classifier._classify.cache_info().currsize
    for _ in range(2):
        with pytest.raises(BadParametersError, match="must be an Assumption"):
            is_initialized_acm(lat, B, ("x",))
    assert classifier._classify.cache_info().currsize == before


def test_an_assumption_refuses_a_subject_that_is_not_a_divclass():
    with pytest.raises(BadParametersError, match="must be a DivClass"):
        Assumption((0, 1), AssumptionKind.EFFECTIVE)


def test_an_assumption_refuses_a_kind_that_is_not_an_assumption_kind():
    with pytest.raises(BadParametersError, match="must be an AssumptionKind"):
        Assumption(B, "Empty")


def test_an_unhashable_fact_is_bad_input():
    lat = quartic_lattice(-2, 3)
    cls = is_initialized_acm(lat, B)
    with pytest.raises(BadParametersError, match="must be an Assumption"):
        is_initialized_acm(lat, B, [[]])
    with pytest.raises(BadParametersError, match="must be an Assumption"):
        derived_assumptions(lat, B, cls, [{}])
    with pytest.raises(BadParametersError, match="must be an Assumption"):
        effectivity(lat, B, [[]])


def test_cached_classifier_raises_on_every_call():
    lat = quartic_lattice(-2, 3)
    deep = DivClass((1, -3))
    clash = (Assumption(deep, AssumptionKind.EFFECTIVE, ""),
             Assumption(deep, AssumptionKind.EMPTY, ""))
    cls = is_initialized_acm(lat, B)
    for _ in range(3):
        with pytest.raises(TrivialClassError):
            is_initialized_acm(lat, DivClass((0, 0)))
        with pytest.raises(NotEffectiveCandidateError):
            is_initialized_acm(lat, -B)
        with pytest.raises(ConflictingAssumptionsError):
            is_initialized_acm(lat, B, clash)
        with pytest.raises(ConflictingAssumptionsError):
            derived_assumptions(lat, B, cls, clash)
