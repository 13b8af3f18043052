"""Canonical forms are pinned: ``Diagram.canonical`` of 874 diagrams gives
exactly the encoding and sign stored in tests/golden/canonical_forms.json
(sign 0 when the diagram is zero by symmetry).

The corpus is the classes of ``enumerate_connected(d, l)`` for d <= 4, of
``all_chord_diagrams(m)`` for m <= 4, of ``one_vertex_diagrams(4)`` and
the support of ``chi_bar(wheel(6))``, three zero-by-symmetry diagrams (the
tripod and the 3- and 5-wheels), and last the 105 classes of
``all_chord_diagrams(5)``, which pin exact degree-5 chord encodings.  Each
comes with three seeded relabelings, and each relabeling also flipped at
one trivalent vertex when it has one.  New bases go at the end, so the
seeded relabelings of the earlier ones stay put.  An entry is keyed by its
input diagram, so the test rebuilds every input from its key and needs no
enumeration.

A change that is meant to alter canonical forms regenerates the file with

    PYTHONPATH=src python tests/test_canonical_golden.py

and the diff of tests/golden/canonical_forms.json shows what changed.
"""

import json
import random
from pathlib import Path

from oracles import enumerate_connected, word_diagram
from test_diagrams import flipped_at, relabeled
from weightsys.diagrams import (
    Diagram,
    _classes,
    _from_edges,
    all_chord_diagrams,
    chi_bar,
    chord_reduce,
    one_vertex_diagrams,
    wheel,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "canonical_forms.json"


def key(d):
    """One line naming a diagram: "nt nu; pairing; skeleton"."""
    skel = "none" if d.skel is None else " ".join(map(str, d.skel))
    return f"{d.nt} {d.nu}; {' '.join(map(str, d.pairing))}; {skel}"


def from_key(text):
    head, pairing, skel = text.split("; ")
    nt, nu = map(int, head.split())
    return Diagram(nt, nu, map(int, pairing.split()),
                   None if skel == "none" else map(int, skel.split()))


def odd_wheel(k):
    """The k-wheel for odd k, zero by its reflection symmetry."""
    edges = [(3 * i, 3 * k + i) for i in range(k)]
    edges += [(3 * i + 1, 3 * ((i + 1) % k) + 2) for i in range(k)]
    return _from_edges(k, k, edges)


def corpus():
    bases = [c for d in range(1, 5) for legs in range(2 * d + 1)
             for c in enumerate_connected(d, legs)]
    bases += [c for m in range(1, 5) for c in all_chord_diagrams(m)]
    bases += _classes(one_vertex_diagrams(4))
    bases += [c for c, _ in chi_bar(wheel(6))]
    bases += [_from_edges(1, 3, [(0, 3), (1, 4), (2, 5)]), odd_wheel(3), odd_wheel(5)]
    bases += all_chord_diagrams(5)
    rng = random.Random(10)
    out = []
    for base in bases:
        out.append(base)
        for _ in range(3):
            tp = list(range(base.nt))
            rng.shuffle(tp)
            up = list(range(base.nt, base.n_vertices))
            rng.shuffle(up)
            other = relabeled(base, tp, up, [rng.randrange(3) for _ in range(base.nt)])
            out.append(other)
            if base.nt:
                out.append(flipped_at(other, rng.randrange(base.nt)))
    return out


def forms(diagrams):
    out = {}
    for d in diagrams:
        canon, sign, zero = d.canonical()
        out[key(d)] = [key(canon), 0 if zero else sign]
    return out


def test_canonical_forms_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text())
    assert forms(from_key(k) for k in golden) == golden


def test_canonical_diagrams_are_their_own_canonical_forms():
    # a canonical diagram caches (itself, 1, zero flag); a fresh copy, whose
    # form is searched, must give the same encoding, sign and zero flag
    inputs = [from_key(k) for k in json.loads(GOLDEN.read_text())]
    inputs += [word_diagram(word) for word in chord_reduce(chi_bar(wheel(6)))]
    for d in inputs:
        canon, _, zero = d.canonical()
        cached = canon.canonical()
        assert cached[0] is canon and cached[1:] == (1, zero)
        fresh = Diagram(canon.nt, canon.nu, canon.pairing, canon.skel)
        again, sign, fresh_zero = fresh.canonical()
        assert (again._encoding(), sign, fresh_zero) == (canon._encoding(), 1, zero)


if __name__ == "__main__":
    entries = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in forms(corpus()).items())
    GOLDEN.write_text("{\n" + ",\n".join(entries) + "\n}\n")
