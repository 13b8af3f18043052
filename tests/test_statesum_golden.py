"""Adjoint state sums are pinned: eval_state_sum of every chord diagram of
degree 1 to 4 on sl2 and D(2,1,2), and of degree 1 to 3 on D(2,1,1/3) and
symbolic D(2,1,alpha), print exactly the strings stored in
tests/golden/statesum_values.json.

A diagram is named by its chord endpoints along the circle, "0-2 1-3".
A change that is meant to alter a value regenerates the file with

    PYTHONPATH=src python tests/test_statesum_golden.py

and the diff of tests/golden/statesum_values.json shows what changed.
"""

import json
from fractions import Fraction
from pathlib import Path

from weightsys.diagrams import all_chord_diagrams, chord_endpoints
from weightsys.evaluation import eval_state_sum
from weightsys.superalgebras import d21, sl2

GOLDEN = Path(__file__).resolve().parent / "golden" / "statesum_values.json"


def cases():
    """(label, algebra, largest degree) of each pinned adjoint representation."""
    return [("sl2", sl2(), 4),
            ("D(2,1,2)", d21(Fraction(2)), 4),
            ("D(2,1,1/3)", d21(Fraction(1, 3)), 3),
            ("D(2,1,alpha)", d21(), 3)]


def values():
    return {label: {" ".join(f"{p}-{q}" for p, q in chord_endpoints(d)): str(eval_state_sum(d, L))
                    for m in range(1, top + 1) for d in all_chord_diagrams(m)}
            for label, L, top in cases()}


def test_state_sums_match_the_golden_file():
    assert values() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(values(), indent=1) + "\n")
