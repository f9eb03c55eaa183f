"""The derived enumeration presets against the hand-written systems, and
the axiom registry against the ids the package cites."""

import re
from pathlib import Path

from k3acm import AXIOMS
from k3acm.casework import PRESET_IDS, lemma_case

# (kind, payload, axiom_id) of every constraint, written out literally so
# that a drift in the derived rule fails here even when the solution sets
# of the presets do not move
HAND_WRITTEN = {
    "i-a": [
        ("QuadraticIneq", (4, 2, -2, 0, 0, ">=", 4), ""),
        ("LinearIneq", (4, 1, "<=", 12), "AX-SECTIONS-BOUND"),
        ("LinearIneq", (1, -2, ">=", 0), "AX-NEF-BPF"),
        ("LinearIneq", (3, 3, ">=", 1), "AX-HODGE-INDEX"),
        ("AbsTAtLeast", (2,), ""),
    ],
    "i-b": [
        ("QuadraticIneq", (4, 4, -2, 0, 0, ">=", 4), ""),
        ("LinearIneq", (4, 2, "<=", 12), "AX-SECTIONS-BOUND"),
        ("LinearIneq", (2, -2, ">=", 0), "AX-NEF-BPF"),
        ("LinearIneq", (2, 4, ">=", 0), "AX-NEF-BPF"),
        ("AbsTAtLeast", (2,), ""),
    ],
    "i-c": [
        ("QuadraticIneq", (4, 6, -2, 0, 0, ">=", 4), ""),
        ("LinearIneq", (4, 3, "<=", 12), "AX-SECTIONS-BOUND"),
        ("LinearIneq", (3, -2, ">=", 0), "AX-NEF-BPF"),
        ("HodgeLower", (5, 8, 4, 2), "AX-HODGE-INDEX"),
        ("AbsTAtLeast", (2,), ""),
    ],
    "ii": [
        ("QuadraticIneq", (4, 8, 0, 0, 0, ">=", 4), ""),
        ("LinearIneq", (4, 4, "<=", 12), "AX-SECTIONS-BOUND"),
        ("LinearIneq", (4, 0, ">=", 1), "AX-HODGE-INDEX"),
        ("LinearIneq", (4, 8, ">=", 1), "AX-HODGE-INDEX"),
        ("AbsTAtLeast", (2,), ""),
    ],
    "iii": [
        ("QuadraticIneq", (4, 12, 4, 0, 0, ">=", 4), ""),
        ("LinearIneq", (4, 6, "<=", 12), "AX-SECTIONS-BOUND"),
        ("HodgeLower", (6, 4, 4, 4), "AX-HODGE-INDEX"),
        ("HodgeLower", (6, 14, 4, 4), "AX-HODGE-INDEX"),
        ("AbsTAtLeast", (2,), ""),
    ],
}


def test_presets_match_the_hand_written_systems():
    assert set(HAND_WRITTEN) == set(PRESET_IDS)
    for pid in PRESET_IDS:
        got = [(c.kind.value, c.payload, c.axiom_id)
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
