"""Verma values are pinned: eval_verma of every chord diagram of degree 1 to 4
on sl2, D(2,1,2), D(2,1,1/3) and symbolic D(2,1,alpha), of the symmetrized
4-wheel on symbolic D(2,1,alpha), of the symmetrized triangle-inserted
4-wheel on all four, and of the symmetrized ladder(2)-inserted 2-wheel on
sl2 and D(2,1,2), print exactly the strings stored in
tests/golden/verma_values.json.

A diagram is named by its chord endpoints along the circle, "0-2 1-3".
The symbolic D(2,1,alpha) values at weight (3,1,1) are also checked to be
palindromic in alpha, p(n, alpha) = alpha^m p(n, 1/alpha) at degree m.
A change that is meant to alter a value regenerates the file with

    PYTHONPATH=src python tests/test_verma_golden.py

and the diff of tests/golden/verma_values.json shows what changed.
"""

import json
from fractions import Fraction
from pathlib import Path

from oracles import chord_endpoints
from weightsys.diagrams import (
    all_chord_diagrams,
    chi_bar,
    chord_diagram_from_word,
    insert_at_vertex,
    ladder,
    triangle,
    wheel,
)
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


def coefficients(text):
    """{(exponent of n, exponent of alpha): coefficient} of a value printed
    as a polynomial in n and alpha."""
    out = {}
    for term in text.replace(" - ", " + -").split(" + "):
        coeff, expo = Fraction(1), {"n": 0, "alpha": 0}
        if term.startswith("-"):
            coeff, term = -coeff, term[1:]
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name in expo:
                expo[name] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        if coeff:
            out[expo["n"], expo["alpha"]] = coeff
    return out


def palindromic(text, m):
    """Whether p(n, alpha) = alpha^m p(n, 1/alpha): the coefficient of
    n^i alpha^j is that of n^i alpha^(m-j)."""
    p = coefficients(text)
    return all(j <= m and p.get((i, m - j)) == c for (i, j), c in p.items())


def test_symbolic_values_at_3_1_1_are_palindromic_in_alpha():
    # swapping H* coordinates 2 and 3 turns D(2,1,alpha) into
    # D(2,1,1/alpha) with its form scaled, and fixes the weight (3,1,1), so
    # a degree-m value p satisfies p(n, alpha) = alpha^m p(n, 1/alpha): the
    # 26 chord diagrams of degree 1 to 4 (m chords), the symmetrized
    # 4-wheel, and the symmetrized triangle-inserted 4-wheel (degree 5, 0)
    golden = json.loads(GOLDEN.read_text())["D(2,1,alpha) (3,1,1)"]
    degree = {"chi_bar(wheel(4))": 4, "chi_bar(triangle in wheel(4))": 5}
    assert len(golden) == 28 and golden["chi_bar(triangle in wheel(4))"] == "0"
    for label, text in golden.items():
        m = degree.get(label, len(label.split()))
        assert palindromic(text, m), label
        assert text == "0" or max(j for _, j in coefficients(text)) == m, label


def test_a_weight_that_tells_coordinates_2_and_3_apart_breaks_the_symmetry():
    # the negative control: the two crossing chords at (3,1,2), which the
    # swap does not fix
    cross = chord_diagram_from_word([(0, 2), (1, 3)], 4)
    L = d21()
    assert palindromic(str(eval_verma(cross, L, (3, 1, 1))), 2)
    assert not palindromic(str(eval_verma(cross, L, (3, 1, 2))), 2)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(values(), indent=1) + "\n")
