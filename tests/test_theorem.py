"""Full necessity replay: every admitted presentation survives end to end."""

import json
import subprocess
import sys
from collections import Counter

import pytest

from k3acm import BadParametersError, DivClass, NotAcmInputError
from k3acm.casework import (necessity_to_json, quartic_lattice,
                            ulrich_assumptions, verify_necessity)
from k3acm.config import data_path, load_config, shipped_quartic_names

B = DivClass((0, 1))

# (B^2, h.B) -> (preset, survivors, script tags, substitution target)
EXPECTED = {
    (-2, 1): ("i-a", ((3, -2),), ("case-B2neg2-Bh1",), None),
    (-2, 2): ("i-b", ((2, 2), (4, -2)),
              ("case-B2neg2-Bh2", "case-B2neg2-Bh2-mirror"), None),
    (-2, 3): ("i-c", ((4, -2),), ("case-B2neg2-Bh3",), None),
    (0, 3): ("i-a", ((3, -2),), ("case-B2neg2-Bh1",),
             ("reduction-B20-Bh3", (-2, 1))),
    (0, 4): ("ii", ((1, 2), (5, -2)),
             ("case-B20-Bh4", "case-B20-Bh4-mirror"), None),
    (2, 5): ("i-c", ((4, -2),), ("case-B2neg2-Bh3",),
             ("reduction-B22-Bh5", (-2, 3))),
    (4, 6): ("iii", ((0, 2), (6, -2)),
             ("case-B24", "case-B24-mirror"), None),
}


def _run(profile, box=32):
    lat = quartic_lattice(*profile)
    assumptions = ulrich_assumptions(lat) if profile == (4, 6) else ()
    return verify_necessity(lat, B, assumptions, box=box)


def test_every_presentation_verifies():
    shipped = [load_config(data_path(name))[0].gram
               for name in shipped_quartic_names()]
    assert sorted(EXPECTED) == sorted((g[1][1], g[0][1]) for g in shipped)
    for profile, (preset, survivors, tags, substitution) in EXPECTED.items():
        report = _run(profile)
        assert report.verified, profile
        assert report.status == "VERIFIED"
        assert report.profile == profile
        assert report.preset_id == preset
        assert report.survivors == survivors
        assert report.unmatched == ()
        assert tuple(m.script_tag for m in report.matches) == tags
        assert all(m.report.success for m in report.matches)
        if substitution is None:
            assert report.substitution is None
            assert report.substitution_report is None
        else:
            assert report.substitution == substitution
            assert report.substitution_report.success


def _complement(profile):
    """(B'^2, h.B') of B' = kh - B with h^2 = 4, k read from WINDOWS."""
    from k3acm.classifier import WINDOWS
    (b2, hb), k = profile, WINDOWS[profile][1]
    return 4 * k * k - 2 * k * hb + b2, 4 * k - hb


def test_the_seven_presentations_agree():
    # every (B^2, h.B) the classifier admits under the Hodge index bound
    # 4 B^2 <= (h.B)^2, with 1 <= h.B <= 12 (no window has B^2 < -2)
    from k3acm.casework import PRESET_PRESENTATION
    from k3acm.casework.casebook import CASES
    from k3acm.classifier import WINDOWS, acm_window
    admitted = {(b2, hb) for hb in range(1, 13) for b2 in range(-144, 37)
                if 4 * b2 <= hb * hb and acm_window(b2, hb) is not None}
    reduced = {case.presentation: _complement(case.presentation)
               for case in CASES if case.reduces}
    presets = set(PRESET_PRESENTATION.values())
    assert len(admitted) == 7
    assert set(WINDOWS) == admitted
    # the table against the windows' inequalities, over the same scan
    assert admitted == {
        (b2, hb) for hb in range(1, 13) for b2 in range(-144, 37)
        if (b2 == -2 and 1 <= hb <= 3) or (b2 == 0 and 3 <= hb <= 4)
        or (b2, hb) in ((2, 5), (4, 6))}
    assert set(reduced.values()) <= presets
    assert admitted == presets | set(reduced)
    shipped = [load_config(data_path(name))[0].gram
               for name in shipped_quartic_names()]
    profiles = [(g[1][1], g[0][1]) for g in shipped]
    assert len(profiles) == len(set(profiles))
    assert set(profiles) == admitted
    from k3acm.casework.necessity import _INDEX
    assert set(_INDEX) == admitted


def test_survivor_matches_pair_up():
    report = _run((0, 4))
    assert [m.survivor for m in report.matches] == [(1, 2), (5, -2)]
    for match in report.matches:
        assert match.report.tag == match.script_tag


def test_a_survivor_without_a_row_leaves_the_replay_incomplete(monkeypatch):
    from k3acm.casework import necessity
    reduction, preset_id, case_for, support_rows = necessity._INDEX[(0, 4)]
    case_for = {k: row for k, row in case_for.items() if k != (5, -2)}
    monkeypatch.setitem(necessity._INDEX, (0, 4),
                        (reduction, preset_id, case_for, support_rows))
    report = _run((0, 4))
    assert report.status == "INCOMPLETE"
    assert report.unmatched == ((5, -2),)
    assert [(m.survivor, m.script_tag) for m in report.matches] == [
        ((1, 2), "case-B20-Bh4")]
    assert all(m.report.success for m in report.matches)


def test_ulrich_case_carries_gonality_support():
    report = _run((4, 6))
    assert [s.tag for s in report.supports] == ["gonality-2B"]
    assert all(s.success for s in report.supports)
    for profile in ((-2, 1), (-2, 2), (-2, 3), (0, 3), (0, 4), (2, 5)):
        assert _run(profile).supports == ()


def test_small_tail_families_always_resolved():
    report = _run((-2, 1))
    assert [(r.t, r.rule) for r in report.reductions] == [
        (-1, "dual-twist"),
        (0, "h-multiple"),
        (1, "hypothesis-twist"),
    ]
    assert all(r.note for r in report.reductions)
    # the rows are built once, not per report
    assert _run((0, 4)).reductions is report.reductions


def test_box_64_is_stable():
    for profile in EXPECTED:
        small = _run(profile, box=32)
        large = _run(profile, box=64)
        assert small.survivors == large.survivors
        assert small.status == large.status == "VERIFIED"


def test_ulrich_presentation_needs_its_assumptions():
    lat = quartic_lattice(4, 6)
    with pytest.raises(NotAcmInputError):
        verify_necessity(lat, B, ())


def test_replay_guards():
    from k3acm.casework import delpezzo_lattice
    from k3acm.lattice import Lattice
    with pytest.raises(BadParametersError):
        verify_necessity(delpezzo_lattice(),
                         DivClass((0, 1, 0, 0, 0, 0, 0, 0)))
    with pytest.raises(BadParametersError):
        verify_necessity(quartic_lattice(-2, 1), DivClass((1, 0)))
    off_degree = Lattice(gram=((2, 1), (1, -2)), labels=("h", "B"),
                         ample=DivClass((1, 0)), k3=True)
    with pytest.raises(BadParametersError):
        verify_necessity(off_degree, B)


def test_report_serializes():
    plain = necessity_to_json(_run((0, 4)))
    reloaded = json.loads(json.dumps(plain))
    assert reloaded["status"] == "VERIFIED"
    assert reloaded["preset"] == "ii"
    assert reloaded["survivors"] == [[1, 2], [5, -2]]
    assert "substitution" not in reloaded

    reduced = necessity_to_json(_run((2, 5)))
    assert reduced["substitution"]["script"] == "reduction-B22-Bh5"
    assert reduced["substitution"]["target"] == [-2, 3]
    assert reduced["substitution"]["report"]["status"] == "Success"


def test_a_second_replay_builds_no_lattice_and_no_script(monkeypatch):
    from k3acm.casework import necessity
    from k3acm.casework.scripts import DerivationScript
    from k3acm.lattice import Lattice
    inputs = {}
    for profile in EXPECTED:
        lat = quartic_lattice(*profile)
        assumptions = ulrich_assumptions(lat) if profile == (4, 6) else ()
        inputs[profile] = (lat, assumptions)
        assert verify_necessity(lat, B, assumptions).verified  # warms up
    built, rows = [], []
    original = Lattice.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Lattice, "__init__", counting)
    post_init = DerivationScript.__post_init__

    def counting_script(self):
        rows.append(self.tag)
        post_init(self)

    # every script a row builds, or a with_lattice copy, passes here
    monkeypatch.setattr(DerivationScript, "__post_init__", counting_script)
    calls = Counter()
    for name in ("run_script", "enumerate_case", "is_initialized_acm"):
        def spy(*args, name=name, fn=getattr(necessity, name)):
            calls[name] += 1
            if name == "is_initialized_acm":
                calls["classified the caller's lattice"] += args[0] is lat
            return fn(*args)
        monkeypatch.setattr(necessity, name, spy)
    for profile, (lat, assumptions) in inputs.items():
        calls.clear()
        report = verify_necessity(lat, B, assumptions)
        assert report.verified, profile
        assert built == [] and rows == [], profile
        # the verdicts are not cached: each replay classifies, enumerates
        # and re-checks every script it reports
        scripts = (len(report.matches) + len(report.supports)
                   + (report.substitution_report is not None))
        assert calls == {"is_initialized_acm": 1,
                         "classified the caller's lattice": 1,
                         "enumerate_case": 1, "run_script": scripts}, profile


def test_shared_inputs_are_rechecked_on_every_call(monkeypatch, capsys):
    from k3acm import cli
    from k3acm.casework import scripts
    assert _run((4, 6)).verified
    assert cli.main(["verify", "--script", "case-B24"]) == 0
    monkeypatch.setattr(scripts, "check_rel", lambda rel, lhs, rhs: False)
    report = _run((4, 6))
    assert report.status == "INCOMPLETE"
    assert not any(m.report.success for m in report.matches)
    assert cli.main(["verify", "--script", "case-B24"]) == 1
    assert "VERIFICATION FAILED" in capsys.readouterr().out


def _scanned_rows(profile):
    """What verify_necessity once found by scanning CASES on every call:
    the reduction row, survivor -> script tag and the support tags."""
    from k3acm.casework.casebook import CASES
    reduction = None
    for case in CASES:
        if case.presentation == profile and case.reduces:
            reduction = case
    cases = [k for k in CASES if k.presentation == profile]
    case_for = {k.curve.coords: k.tag for k in cases
                if k.curve is not None and not k.support}
    return reduction, case_for, [k.tag for k in cases if k.support]


def test_the_cases_indexes_give_what_a_scan_of_cases_gives():
    from k3acm.casework import PRESET_PRESENTATION, necessity
    preset_for = {p: pid for pid, p in PRESET_PRESENTATION.items()}
    profiles = [*PRESET_PRESENTATION.values(), (0, 3), (2, 5)]
    for profile in profiles:
        reduction = _scanned_rows(profile)[0]
        # a reduced presentation replays its complement's rows
        work = profile if reduction is None else _complement(profile)
        _, case_for, supports = _scanned_rows(work)
        got, preset_id, by_survivor, support_rows = necessity._INDEX[profile]
        assert got is reduction, profile
        assert preset_id == preset_for[work], profile
        assert {s: k.tag for s, k in by_survivor.items()} == case_for, \
            profile
        assert [k.tag for k in support_rows] == supports, profile
    assert _scanned_rows((0, 3))[0].tag == "reduction-B20-Bh3"
    assert _complement((0, 3)) == (-2, 1)
    assert _scanned_rows((4, 6))[2] == ["gonality-2B"]
    # the index is read from the rows at import and builds no script
    built = subprocess.run(
        [sys.executable, "-c",
         "from k3acm.casework import casebook, necessity; "
         "print(len(casebook._SCRIPTS))"],
        capture_output=True, text=True, check=True).stdout
    assert built == "0\n"
