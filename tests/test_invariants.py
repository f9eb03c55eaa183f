"""Riemann-Roch bookkeeping: frozen values and structural identities."""

import pytest

from k3acm import (AcmDegreeWindow, BadParametersError, BundleInvariants,
                   DivClass, OddSquareError, UnsupportedRankError,
                   brill_noether, chern_twist, chi_bundle, chi_line, genus_of,
                   hodge_lower, lm_acm_bounds, lm_invariants, twist_chi)
from k3acm.casework import quartic_lattice


def test_chi_line():
    assert chi_line(-2) == 1
    assert chi_line(0) == 2
    assert chi_line(4) == 4
    assert chi_line(-8) == -2
    with pytest.raises(OddSquareError):
        chi_line(3)


def test_genus_of():
    assert genus_of(0) == 1
    assert genus_of(4) == 3
    assert genus_of(16) == 9
    assert genus_of(24) == 13
    assert genus_of(8) == 5
    assert genus_of(20) == 11
    with pytest.raises(OddSquareError):
        genus_of(-1)


def test_chi_bundle():
    lat = quartic_lattice(-2, 2)
    c = DivClass((2, 2))
    assert lat.self_int(c) == 24
    inv = BundleInvariants(rank=2, c1=c, c2=8)
    assert chi_bundle(inv, lat) == 8
    zero = BundleInvariants(rank=2, c1=DivClass((0, 0)), c2=2)
    assert chi_bundle(zero, lat) == 2
    with pytest.raises(BadParametersError):
        BundleInvariants(rank=0, c1=c, c2=0)


def test_chern_twist_matches_hand_computation():
    # the self-dual twist: c1 = 2h + 2B', twisted down by K = h + B'
    lat = quartic_lattice(-2, 2)
    c = DivClass((2, 2))
    k = DivClass((1, 1))
    inv = BundleInvariants(rank=2, c1=c, c2=8)
    tw = chern_twist(inv, -k, lat)
    assert tw.c1 == DivClass((0, 0))
    assert tw.c2 == 2
    assert chi_bundle(tw, lat) == 2
    with pytest.raises(UnsupportedRankError):
        chern_twist(BundleInvariants(rank=3, c1=c, c2=8), k, lat)


def test_chern_twist_round_trip():
    lat = quartic_lattice(0, 4)
    inv = BundleInvariants(rank=2, c1=DivClass((1, 2)), c2=6)
    for line in (DivClass((1, 0)), DivClass((0, 1)), DivClass((-2, 3))):
        assert chern_twist(chern_twist(inv, line, lat), -line, lat) == inv


def test_brill_noether():
    assert brill_noether(5, 1, 2) == -3
    assert brill_noether(11, 1, 6) == -1
    assert brill_noether(9, 1, 4) == -3
    assert brill_noether(9, 1, 3) == -5
    assert brill_noether(4, 1, 3) == 0


def test_lm_invariants():
    inv = lm_invariants(9, 1, 3)
    assert (inv.h0, inv.rho, inv.chi_end) == (9, -5, 12)
    assert lm_invariants(11, 1, 6).h0 == 8
    with pytest.raises(BadParametersError):
        lm_invariants(1, 1, 3)
    with pytest.raises(BadParametersError):
        lm_invariants(9, 0, 3)


def test_twist_chi():
    assert twist_chi(2, 12, 13, 8) == 0
    assert twist_chi(1, 12, 13, 8) == 0
    assert twist_chi(1, 10, 9, 4) == 2
    for gv in range(3, 21):
        for dv in range(1, 21):
            assert twist_chi(0, 7, gv, dv) == gv - dv + 3


def test_lm_acm_bounds():
    assert lm_acm_bounds(13, 12) == AcmDegreeWindow(8, 8, True)
    assert lm_acm_bounds(11, 12) == AcmDegreeWindow(6, 6, True)
    assert lm_acm_bounds(9, 12) == AcmDegreeWindow(4, 4, True)
    assert lm_acm_bounds(5, 10) == AcmDegreeWindow(0, 2, True)
    assert lm_acm_bounds(9, 10) == AcmDegreeWindow(4, 6, True)
    # a curve of degree 13 or more leaves no room at all
    assert not lm_acm_bounds(9, 13).feasible
    assert not lm_acm_bounds(20, 14).feasible


def test_hodge_lower():
    assert hodge_lower(2, 2) == 2
    assert hodge_lower(4, 2) == 3
    assert hodge_lower(8, 2) == 4
    assert hodge_lower(4, 4) == 4
    assert hodge_lower(4, 6) == 5
    assert hodge_lower(16, 4) == 8
    # exact squares are attained, not overshot
    assert hodge_lower(9, 4) == 6
    with pytest.raises(BadParametersError):
        hodge_lower(0, 2)
    with pytest.raises(BadParametersError):
        hodge_lower(4, -2)


def test_hodge_lower_is_minimal():
    for a in range(1, 30):
        for b in range(1, 30):
            m = hodge_lower(a, b)
            assert m * m >= a * b
            assert (m - 1) * (m - 1) < a * b
