"""The derived enumeration presets against the hand-written systems, the
quartic gate at every entry point, and the axiom registry against the ids
the package cites."""

import json
import re
from pathlib import Path

import pytest

from k3acm import (AXIOMS, Assumption, AssumptionKind, BadParametersError,
                   DivClass, Lattice)
from k3acm.casework import (PRESET_IDS, delpezzo_lattice, engine_assumptions,
                            enumerate_destabilizing, lemma_case,
                            verify_necessity)
from k3acm.cli import main
from k3acm.config import config_to_json


def _ceil_sqrt(n: int) -> int:
    """The least m >= 0 with m^2 >= n, by counting."""
    m = 0
    while m * m < n:
        m += 1
    return m


# (coeffs, rel, c, axiom_id) of every constraint, written out literally so
# that a drift in the derived rule fails here even when the solution sets
# of the presets do not move.  A Hodge floor a*s + b*t >= ceil(sqrt(4 P^2))
# is ((0, 0, 0, a, b), ">=", _ceil_sqrt(4 * P^2)); |t| >= 2 is t^2 >= 2^2.
HAND_WRITTEN = {
    "i-a": [
        ((4, 2, -2, 0, 0), ">=", 4, ""),
        ((0, 0, 0, 4, 1), "<=", 12, "AX-SECTIONS-BOUND"),
        ((0, 0, 0, 1, -2), ">=", 0, "AX-NEF-BPF"),
        ((0, 0, 0, 3, 3), ">=", 1, "AX-HODGE-INDEX"),
        ((0, 0, 1, 0, 0), ">=", 2 ** 2, ""),
    ],
    "i-b": [
        ((4, 4, -2, 0, 0), ">=", 4, ""),
        ((0, 0, 0, 4, 2), "<=", 12, "AX-SECTIONS-BOUND"),
        ((0, 0, 0, 2, -2), ">=", 0, "AX-NEF-BPF"),
        ((0, 0, 0, 2, 4), ">=", 0, "AX-NEF-BPF"),
        ((0, 0, 1, 0, 0), ">=", 2 ** 2, ""),
    ],
    "i-c": [
        ((4, 6, -2, 0, 0), ">=", 4, ""),
        ((0, 0, 0, 4, 3), "<=", 12, "AX-SECTIONS-BOUND"),
        ((0, 0, 0, 3, -2), ">=", 0, "AX-NEF-BPF"),
        ((0, 0, 0, 5, 8), ">=", _ceil_sqrt(4 * 2), "AX-HODGE-INDEX"),
        ((0, 0, 1, 0, 0), ">=", 2 ** 2, ""),
    ],
    "ii": [
        ((4, 8, 0, 0, 0), ">=", 4, ""),
        ((0, 0, 0, 4, 4), "<=", 12, "AX-SECTIONS-BOUND"),
        ((0, 0, 0, 4, 0), ">=", 1, "AX-HODGE-INDEX"),
        ((0, 0, 0, 4, 8), ">=", 1, "AX-HODGE-INDEX"),
        ((0, 0, 1, 0, 0), ">=", 2 ** 2, ""),
    ],
    "iii": [
        ((4, 12, 4, 0, 0), ">=", 4, ""),
        ((0, 0, 0, 4, 6), "<=", 12, "AX-SECTIONS-BOUND"),
        ((0, 0, 0, 6, 4), ">=", _ceil_sqrt(4 * 4), "AX-HODGE-INDEX"),
        ((0, 0, 0, 6, 14), ">=", _ceil_sqrt(4 * 4), "AX-HODGE-INDEX"),
        ((0, 0, 1, 0, 0), ">=", 2 ** 2, ""),
    ],
}


def test_presets_match_the_hand_written_systems():
    assert set(HAND_WRITTEN) == set(PRESET_IDS)
    for pid in PRESET_IDS:
        got = [(c.coeffs, c.rel, c.c, c.axiom_id)
               for c in lemma_case(pid).constraints]
        assert got == HAND_WRITTEN[pid], pid
        assert all(c.cite for c in lemma_case(pid).constraints), pid


def test_every_registered_axiom_is_cited_and_every_cited_one_registered():
    src = Path(__file__).resolve().parents[1] / "src" / "k3acm"
    cited = set()
    for path in src.rglob("*.py"):
        if path.name != "axioms.py":
            cited |= set(re.findall(r"AX-[A-Z0-9]+(?:-[A-Z0-9]+)*",
                                    path.read_text()))
    assert cited == set(AXIOMS)


def _rank2(gram, ample=(1, 0)):
    return Lattice(gram=gram, labels=("h", "B"), ample=DivClass(ample),
                   k3=True)


# lattices that are not a quartic presentation <h, B>, each with a class C
# of its rank
NOT_QUARTIC = {
    "rank-8": (delpezzo_lattice(), (3, -1, -1, -1, -1, -1, -1, -1)),
    "ample-(0,1)": (_rank2([[4, 6], [6, 4]], ample=(0, 1)), (0, 2)),
    "h2-2": (_rank2([[2, 1], [1, -4]]), (3, 0)),
    "h2-6": (_rank2([[6, 1], [1, -2]]), (3, 0)),
}


@pytest.mark.parametrize("name", NOT_QUARTIC)
def test_the_quartic_gate_refuses_at_every_entry_point(name, capsys,
                                                       tmp_path):
    lat, curve = NOT_QUARTIC[name]
    b = DivClass((0, 1) + (0,) * (lat.rank - 2))
    with pytest.raises(BadParametersError, match="quartic presentation"):
        verify_necessity(lat, b)
    with pytest.raises(BadParametersError, match="quartic presentation"):
        enumerate_destabilizing(lat, DivClass(curve), 7, (), mode="exact")
    facts = (Assumption(b, AssumptionKind.EFFECTIVE, "given"),)
    assert engine_assumptions(lat, facts) == facts
    cfg = tmp_path / "lattice.json"
    cfg.write_text(json.dumps(config_to_json(lat)))
    for argv in (["destabilize", "-c", str(cfg), "--class",
                  ",".join(map(str, curve)), "--d", "7"],
                 ["enumerate", "--preset", "i-a", "-c", str(cfg)]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: needs the quartic presentation"), argv
