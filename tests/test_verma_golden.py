"""Verma values are pinned: eval_verma of every chord diagram of degree 1 to 4
on sl2, D(2,1,2), D(2,1,1/3) and symbolic D(2,1,alpha), of the symmetrized
4-wheel on symbolic D(2,1,alpha), of the symmetrized triangle-inserted
4-wheel on all four, and of the symmetrized ladder(2)-inserted 2-wheel on
sl2 and D(2,1,2), print exactly the strings stored in
tests/golden/verma_values.json.

A diagram is named by its chord endpoints along the circle, "0-2 1-3".
A change that is meant to alter a value regenerates the file with

    PYTHONPATH=src python tests/test_verma_golden.py

and the diff of tests/golden/verma_values.json shows what changed.
"""

import json
from fractions import Fraction
from pathlib import Path

from oracles import chord_endpoints
from weightsys.diagrams import all_chord_diagrams, chi_bar, insert_at_vertex, ladder, triangle, wheel
from weightsys.evaluation import adjoint_weight, eval_verma
from weightsys.superalgebras import d21, sl2

GOLDEN = Path(__file__).resolve().parent / "golden" / "verma_values.json"


def cases():
    """(label, algebra, weight) of each pinned module."""
    D2 = d21(Fraction(2))
    return [("sl2 (2,)", sl2(), (2,)),
            ("D(2,1,2) adjoint", D2, adjoint_weight(D2)),
            ("D(2,1,1/3) (3,1,1)", d21(Fraction(1, 3)), (3, 1, 1)),
            ("D(2,1,alpha) (3,1,1)", d21(), (3, 1, 1))]


def inserted(piece, k):
    """chi_bar of the k-wheel with the piece inserted at its first vertex."""
    (diag, c), = list(insert_at_vertex(wheel(k), 0, piece))
    return chi_bar(diag, c)


def values():
    out = {}
    for label, L, weight in cases():
        out[label] = {" ".join(f"{p}-{q}" for p, q in chord_endpoints(d)): str(eval_verma(d, L, weight))
                      for m in range(1, 5) for d in all_chord_diagrams(m)}
        out[label]["chi_bar(triangle in wheel(4))"] = str(eval_verma(inserted(triangle(), 4), L, weight))
        if label in ("sl2 (2,)", "D(2,1,2) adjoint"):
            out[label]["chi_bar(ladder(2) in wheel(2))"] = str(eval_verma(inserted(ladder(2), 2), L, weight))
    # the last case is symbolic D(2,1,alpha)
    out[label]["chi_bar(wheel(4))"] = str(eval_verma(chi_bar(wheel(4)), L, weight))
    return out


def test_verma_values_match_the_golden_file():
    assert values() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(values(), indent=1) + "\n")
