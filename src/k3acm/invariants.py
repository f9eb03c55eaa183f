"""Riemann-Roch numerology for sheaves on a K3 surface.

Everything here is a closed-form integer computation: Euler characteristics
of line bundles and rank-2 bundles, arithmetic genus, Chern classes under
twisting, Brill-Noether numbers, the invariants of the rank-2 bundle
attached to a pencil of divisors on a curve, and the integer square-root
lower bounds the Hodge index theorem produces.

No floats anywhere; the square-root ceiling uses math.isqrt.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .errors import (
    BadParametersError,
    OddSquareError,
    UnsupportedRankError,
)
from .lattice import DivClass, Lattice


class BundleInvariants(namedtuple("BundleInvariants", "rank c1 c2")):
    """Chern data of a vector bundle: rank, c1 as a divisor class, c2."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # for _replace

    def __new__(cls, rank: int, c1: DivClass, c2: int):
        if rank < 1:
            raise BadParametersError(f"rank must be >= 1, got {rank}")
        return tuple.__new__(cls, (rank, c1, c2))


class LMInvariants(NamedTuple):
    """Invariants of the rank-2 bundle attached to a g^r_d on a genus-g curve.

    h0 = g - d + 1 + 2r, chi_end = chi(End) = 2(1 - rho) and
    rho = g - (r+1)(g - d + r); constructed through lm_invariants so the
    relations always hold.
    """

    g: int
    r: int
    d: int
    h0: int
    chi_end: int
    rho: int


def chi_line(d2: int) -> int:
    """chi(O(D)) = 2 + D^2/2 = genus_of(D^2) + 1; D^2 must be even."""
    return genus_of(d2) + 1


def genus_of(d2: int) -> int:
    """Arithmetic genus 1 + D^2/2 of a curve with self-intersection d2."""
    if d2 % 2 != 0:
        raise OddSquareError(f"self-intersection {d2} is odd")
    return 1 + d2 // 2


def chi_bundle(inv: BundleInvariants, lat: Lattice) -> int:
    """chi(E) = 2 rk(E) + c1(E)^2/2 - c2(E)."""
    sq = lat.self_int(inv.c1)
    if sq % 2 != 0:
        raise OddSquareError(f"c1^2 = {sq} is odd")
    return 2 * inv.rank + sq // 2 - inv.c2


def chern_twist(inv: BundleInvariants, line: DivClass, lat: Lattice) -> BundleInvariants:
    """Chern data of E(L) for rank-2 E: c1 += 2L, c2 += c1.L + L^2."""
    if inv.rank != 2:
        raise UnsupportedRankError(
            f"twist formula implemented for rank 2 only, got rank {inv.rank}")
    c1 = inv.c1 + 2 * line
    c2 = inv.c2 + lat.pair(inv.c1, line) + lat.self_int(line)
    return BundleInvariants(rank=2, c1=c1, c2=c2)


def brill_noether(g: int, r: int, d: int) -> int:
    """Brill-Noether number rho(g, r, d) = g - (r+1)(g - d + r)."""
    return g - (r + 1) * (g - d + r)


def lm_invariants(g: int, r: int, d: int) -> LMInvariants:
    """Invariants of the bundle attached to a base-point-free g^r_d.

    Requires g >= 2, r >= 1, d >= 1.
    """
    if g < 2 or r < 1 or d < 1:
        raise BadParametersError(f"need g >= 2, r >= 1, d >= 1; got {(g, r, d)}")
    rho = brill_noether(g, r, d)
    return LMInvariants(g=g, r=r, d=d,
                        h0=g - d + 1 + 2 * r,
                        chi_end=2 * (1 - rho),
                        rho=rho)


def twist_chi(l: int, ch: int, g: int, d: int) -> int:
    """chi(E(-l)) = 4 l^2 - l (C.H) + g + 3 - d for the pencil bundle.

    ch is the degree C.H of the curve against the hyperplane class of the
    quartic, g its genus and d the pencil degree.
    """
    return 4 * l * l - l * ch + g + 3 - d


class AcmDegreeWindow(NamedTuple):
    """The window of pencil degrees an initialized aCM rank-2 bundle allows."""

    d_min: int
    d_max: int
    feasible: bool


def lm_acm_bounds(g: int, ch: int) -> AcmDegreeWindow:
    """Degree window for the pencil of an initialized aCM rank-2 bundle.

    Sections bound: h0 = g - d + 3 <= 8 gives d >= g - 5.
    Positivity of chi(E(-1)) = 4 - ch + g + 3 - d gives d <= g + 7 - ch.
    The window is nonempty exactly when ch <= 12.
    """
    d_min = g - 5
    d_max = g + 7 - ch
    return AcmDegreeWindow(d_min=d_min, d_max=d_max, feasible=d_min <= d_max)


def hodge_lower(c2min: int, d2: int) -> int:
    """Smallest positive integer m with m^2 >= c2min * d2.

    This is the lower bound the Hodge index theorem gives for C.D when
    C^2 >= c2min and D^2 = d2, both positive.
    """
    if c2min <= 0 or d2 <= 0:
        raise BadParametersError(
            f"hodge_lower needs positive arguments, got {(c2min, d2)}")
    p = c2min * d2
    s = math.isqrt(p)
    return s if s * s >= p else s + 1
