"""Shipped lattices and the five bounded enumeration presets.

The quartic presentations are the rank-2 sublattices spanned by the
hyperplane class h (h^2 = 4) and one initialized aCM class B, one per
admissible (B^2, h.B) window.  The rank-8 lattice is the Picard lattice
of the quartic double cover of a degree-2 del Pezzo surface.

Each enumeration preset bounds the coefficients of C = s*h + t*B for a
smooth genus >= 3 curve class C carrying an initialized aCM pencil
bundle.  One rule builds all five: the genus floor, the degree cap, one
bound for B and one for its initialized aCM complement kh - B (h-B, 2h-B
or 3h-B, k read from classifier.WINDOWS), and the tail cut.
"""

from __future__ import annotations

import functools

from ..classifier import WINDOWS, Assumption, AssumptionKind, acm_window
from ..errors import BadParametersError
from ..invariants import hodge_lower
from ..lattice import DivClass, Lattice
from .constraints import (CaseSpec, Constraint, abs_t_at_least, linear,
                          quadratic)

_H = DivClass((1, 0))
_B = DivClass((0, 1))


def quartic_lattice(b2: int, hb: int) -> Lattice:
    """Rank-2 quartic sublattice <h, B> with h^2 = 4, B^2 = b2, h.B = hb."""
    return Lattice(gram=[[4, hb], [hb, b2]], labels=("h", "B"),
                   ample=_H, k3=True)


def presentation(lat: Lattice) -> tuple[int, int]:
    """(B^2, h.B) of lat, the one gate of the replay, the destabilizing
    sweep and ``k3acm enumerate -c``: rank 2, ample (1, 0) and h^2 = 4."""
    if lat.rank != 2 or lat.ample.coords != (1, 0) or lat.gram[0][0] != 4:
        raise BadParametersError(
            "needs the quartic presentation <h, B>: rank 2, ample "
            "h = (1, 0) and h^2 = 4")
    return lat.gram[1][1], lat.gram[0][1]


def ulrich_assumptions(lat: Lattice) -> tuple[Assumption, ...]:
    """The emptiness facts classifying B needs: |B-h| = |2h-B| = empty on
    the Ulrich window (B^2, h.B) = (4, 6), none on the other windows."""
    if acm_window(lat.self_int(_B), lat.deg(_B)) != "d":
        return ()
    h = lat.ample
    return (
        Assumption(_B - h, AssumptionKind.EMPTY,
                   "Ulrich window input: |B-h| is empty"),
        Assumption(2 * h - _B, AssumptionKind.EMPTY,
                   "Ulrich window input: |2h-B| is empty"),
    )


# ---- the double-cover example lattice ------------------------------------------

def delpezzo_lattice() -> Lattice:
    """Rank-8 Picard lattice of the quartic double cover of a degree-2 del Pezzo.

    Basis: the pullback l of a plane line (l^2 = 2) and the pullbacks
    e1..e7 of the exceptional curves (ei^2 = -2, mutually orthogonal).
    The polarization is h = 3l - e1 - ... - e7.
    """
    rank = 8
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 2
    for i in range(1, rank):
        gram[i][i] = -2
    labels = ("l",) + tuple(f"e{i}" for i in range(1, 8))
    ample = DivClass((3,) + (-1,) * 7)
    return Lattice(gram=gram, labels=labels, ample=ample, k3=True)


def delpezzo_pencil_f() -> DivClass:
    """f = 2l - e1 - e2 - e3 - e4, an elliptic pencil class."""
    return DivClass((2, -1, -1, -1, -1, 0, 0, 0))


def delpezzo_pencil_fj(j: int) -> DivClass:
    """f_j = l - e_j for 1 <= j <= 7, an elliptic pencil class."""
    if not 1 <= j <= 7:
        raise BadParametersError(f"exceptional index must be 1..7, got {j}")
    coords = [1] + [0] * 7
    coords[j] = -1
    return DivClass(coords)


# ---- the five enumeration presets -----------------------------------------------

# preset id -> (B^2, h.B) of the lattice it runs on
PRESET_PRESENTATION: dict[str, tuple[int, int]] = {
    "i-a": (-2, 1),
    "i-b": (-2, 2),
    "i-c": (-2, 3),
    "ii": (0, 4),
    "iii": (4, 6),
}
PRESET_IDS = tuple(PRESET_PRESENTATION)


def _companion_bound(lat: Lattice, p: DivClass, name: str) -> Constraint:
    """How the curve C meets B or an initialized companion P of B."""
    a, b, sq = lat.pair(_H, p), lat.pair(_B, p), lat.self_int(p)
    form = f"C.{name} = {a}s{b:+d}t"
    if sq < 0:
        return linear(a, b, ">=", 0, axiom_id="AX-NEF-BPF",
                      cite=f"{form} >= 0: the irreducible curve C meets "
                           f"the effective class {name} nonnegatively")
    if sq == 0:
        return linear(a, b, ">=", 1, axiom_id="AX-HODGE-INDEX",
                      cite=f"{form} > 0: {name} moves and C^2 > 0")
    m = hodge_lower(4, sq)
    return linear(a, b, ">=", m, axiom_id="AX-HODGE-INDEX",
                  cite=f"{form} >= {m} by the index bound with C^2 >= 4, "
                       f"{name}^2 = {sq}")


def lemma_case(preset_id: str, box: int = 32) -> CaseSpec:
    """One of the five bounded (s, t) searches.

    C has genus >= 3 and degree <= 12, meets B and its initialized aCM
    complement kh - B (k from classifier.WINDOWS) as their squares
    dictate, and has |t| >= 2.  The lattice and the constraints are built
    on the first call for each preset and shared by later calls; only the
    box goes into a fresh CaseSpec, and enumerate_case still solves it anew.
    """
    lat, cons = _preset_system(preset_id)
    return CaseSpec(lattice=lat, constraints=cons, box=box, tag=preset_id)


@functools.cache
def _preset_system(preset_id: str) -> tuple[Lattice, tuple[Constraint, ...]]:
    """The lattice and constraints of one preset.  An unknown id raises,
    so the cache only ever holds the ids of PRESET_IDS."""
    if preset_id not in PRESET_PRESENTATION:
        raise BadParametersError(
            f"unknown preset {preset_id!r}; choose from {PRESET_IDS}")
    b2, hb = PRESET_PRESENTATION[preset_id]
    lat, k = quartic_lattice(b2, hb), WINDOWS[b2, hb][1]
    return lat, (
        quadratic(4, 2 * hb, b2, 0, 0, ">=", 4,
                  cite="the curve has genus >= 3, i.e. C^2 >= 4"),
        linear(4, hb, "<=", 12, axiom_id="AX-SECTIONS-BOUND",
               cite=f"an initialized aCM pencil bundle forces "
                    f"C.H = 4s+{hb}t <= 12"),
        _companion_bound(lat, _B, "B"),
        _companion_bound(lat, k * _H - _B, f"({k if k > 1 else ''}h-B)"),
        abs_t_at_least(2, cite="|t| >= 2; the |t| <= 1 classes are settled "
                               "by the companion-closure reduction"))

