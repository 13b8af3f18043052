"""Adjoint state sums are pinned: eval_state_sum of every chord diagram of
degree 1 to 4 on sl2 and D(2,1,2), and of degree 1 to 3 on D(2,1,1/3) and
symbolic D(2,1,alpha), and of the symmetrized triangle-inserted 4-wheel and
ladder(2)-inserted 2-wheel on sl2 and D(2,1,2), print exactly the strings
stored in tests/golden/statesum_values.json.

A diagram is named by its chord endpoints along the circle, "0-2 1-3".
A change that is meant to alter a value regenerates the file with

    PYTHONPATH=src python tests/test_statesum_golden.py

and the diff of tests/golden/statesum_values.json shows what changed.
"""

import json
from fractions import Fraction
from pathlib import Path

from weightsys.diagrams import (all_chord_diagrams, chi_bar, chord_endpoints, insert_at_vertex,
                                ladder, triangle, wheel)
from weightsys.evaluation import eval_state_sum
from weightsys.superalgebras import d21, sl2

GOLDEN = Path(__file__).resolve().parent / "golden" / "statesum_values.json"


def cases():
    """(label, algebra, largest degree) of each pinned adjoint representation."""
    return [("sl2", sl2(), 4),
            ("D(2,1,2)", d21(Fraction(2)), 4),
            ("D(2,1,1/3)", d21(Fraction(1, 3)), 3),
            ("D(2,1,alpha)", d21(), 3)]


def inserted(piece, k):
    """chi_bar of the k-wheel with the piece inserted at its first vertex."""
    (diag, c), = list(insert_at_vertex(wheel(k), 0, piece))
    return chi_bar(diag, c)


def values():
    out = {}
    for label, L, top in cases():
        out[label] = {" ".join(f"{p}-{q}" for p, q in chord_endpoints(d)): str(eval_state_sum(d, L))
                      for m in range(1, top + 1) for d in all_chord_diagrams(m)}
        if label in ("sl2", "D(2,1,2)"):
            out[label]["chi_bar(triangle in wheel(4))"] = str(eval_state_sum(inserted(triangle(), 4), L))
            out[label]["chi_bar(ladder(2) in wheel(2))"] = str(eval_state_sum(inserted(ladder(2), 2), L))
    return out


def test_state_sums_match_the_golden_file():
    assert values() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(values(), indent=1) + "\n")
