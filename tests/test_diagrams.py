"""Diagram combinatorics: canonical forms, STU/IHX/AS, insertion."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import weightsys.diagrams as diagrams
import weightsys.scalars as scalars
from oracles import (
    accumulate,
    chord_endpoints,
    diagram_text,
    empty_circle,
    enumerate_connected,
    ihx_relation,
    internal_edges,
    reduce_B,
    skeleton_swap,
    sort_skeleton_to,
    stu_rows_by_canonical_class,
    wheel_on_circle,
    word_diagram,
)
from weightsys.diagrams import (
    Diagram,
    DiagramError,
    InsertionPiece,
    LinComb,
    _classes,
    _from_edges,
    _pairings,
    _word_canonical,
    all_chord_diagrams,
    chi_bar,
    chord_diagram_from_word,
    chord_reduce,
    dim_A_by_four_term,
    dim_A_by_stu,
    insert_at_vertex,
    ladder,
    one_vertex_diagrams,
    stu_eligible_legs,
    stu_expand,
    triangle,
    wheel,
)


def relabeled(d, triv_perm, univ_perm, rotations):
    """Apply a vertex relabeling and per-vertex rotations (an isomorphism)."""
    def new_dart(old):
        if old < 3 * d.nt:
            v, s = old // 3, old % 3
            return 3 * triv_perm[v] + (s + rotations[v]) % 3
        return 3 * d.nt + (univ_perm[old - 3 * d.nt] - d.nt)

    pairing = [-1] * d.n_darts
    for a in range(d.n_darts):
        pairing[new_dart(a)] = new_dart(d.pairing[a])
    skel = None if d.skel is None else tuple(univ_perm[u - d.nt] for u in d.skel)
    return Diagram(d.nt, d.nu, pairing, skel)


def flipped_at(d, v):
    """Reverse the cyclic order at one trivalent vertex (an AS flip)."""
    def new_dart(old):
        if old // 3 == v and old < 3 * d.nt:
            s = old % 3
            return 3 * v + (0, 2, 1)[s]
        return old

    pairing = [-1] * d.n_darts
    for a in range(d.n_darts):
        pairing[new_dart(a)] = new_dart(d.pairing[a])
    return Diagram(d.nt, d.nu, pairing, d.skel)


def test_wheel_counts():
    w = wheel(2)
    assert w.n_vertices == 4 and w.nu == 2
    t = wheel_on_circle(2)
    assert len(t.skel) == 2
    for k in (2, 4, 6, 8):
        assert wheel(k).degree == k
    with pytest.raises(DiagramError):
        wheel(3)
    with pytest.raises(DiagramError):
        wheel(0)


def test_canonicalize_isomorphism_invariance():
    rng = random.Random(7)
    for base in (wheel(2), wheel(4), wheel_on_circle(4)):
        key = base.canonical_key()
        sign = base.canonical()[1]
        for _ in range(6):
            tp = list(range(base.nt))
            rng.shuffle(tp)
            up = list(range(base.nt, base.nt + base.nu))
            rng.shuffle(up)
            rot = [rng.randrange(3) for _ in range(base.nt)]
            other = relabeled(base, tp, up, rot)
            assert other.canonical_key() == key
            assert other.canonical()[1] == sign


def test_canonicalize_as_sign_and_idempotence():
    w = wheel(2)
    flip = flipped_at(w, 0)
    cw, sw, _ = w.canonical()
    cf, sf, _ = flip.canonical()
    assert cw.canonical_key() == cf.canonical_key()
    assert sw == -sf
    again, sign, _ = cw.canonical()
    assert sign == 1 and again._encoding() == cw._encoding()


def test_parallel_and_crossed_resolutions_are_distinct():
    parallel = chord_diagram_from_word([(0, 2), (1, 3)], 4)
    crossed = chord_diagram_from_word([(0, 1), (2, 3)], 4)
    assert parallel.canonical_key() != crossed.canonical_key()


def test_stu_on_wheel_on_circle():
    t2 = wheel_on_circle(2)
    legs = stu_eligible_legs(t2)
    assert len(legs) == 2
    exp = stu_expand(t2, legs[0])
    for diag, _ in exp:
        assert diag.nt == t2.nt - 1
    red = chord_reduce(t2)
    assert len(red) == 2
    coeffs = sorted(red.values())
    assert coeffs == [-2, 2]


def test_stu_rejects_chord_ends():
    cd = chord_diagram_from_word([(0, 1)], 2)
    with pytest.raises(DiagramError):
        stu_expand(cd, cd.skel[0])


def test_stu_termination_degree_4():
    red = chord_reduce(wheel_on_circle(4))
    assert all(diagrams._gap_word(word_diagram(word)) == word for word in red)
    assert len(red) >= 2


def test_chi_bar_of_smallest_wheel():
    cb = chi_bar(wheel(2))
    (diag, coeff), = list(cb)
    assert abs(coeff) == 2
    assert len(diag.skel) == 2


def test_chi_bar_rejects_bad_input():
    with pytest.raises(DiagramError):
        chi_bar(wheel_on_circle(2))
    closed = Diagram(2, 0, (3, 4, 5, 0, 1, 2), None)  # theta graph, no legs
    with pytest.raises(DiagramError):
        chi_bar(closed)


def test_chi_bar_scales_a_combination_by_its_coefficient():
    # coeff multiplies every glued term, given a diagram or a LinComb
    want = [(d.canonical_key(), 3 * c) for d, c in chi_bar(wheel(4))]
    assert [c for _, c in want] == [48, 24]
    for b in (wheel(4), LinComb.of(wheel(4))):
        assert [(d.canonical_key(), c) for d, c in chi_bar(b, 3)] == want


def _eq7_decomposition(k):
    w = wheel(k)
    target = tuple(range(k, 2 * k))
    total_sorted, total_lower = LinComb(), LinComb()
    for perm in itertools.permutations(range(k, 2 * k)):
        glued = Diagram(w.nt, w.nu, w.pairing, skel=perm)
        sorted_part, lower = sort_skeleton_to(glued, target)
        accumulate(total_sorted, sorted_part)
        accumulate(total_lower, lower)
    return total_sorted, total_lower


@pytest.mark.parametrize("k", [2, 4])
def test_symmetrized_wheel_filtration(k):
    # chi_bar(S_k) = k! T_k + terms with k-1 skeleton vertices, constructively
    srt, low = _eq7_decomposition(k)
    tk = wheel_on_circle(k)
    assert len(srt) == 1
    assert not accumulate(srt, LinComb.of(tk, math.factorial(k)), -1)
    assert all(len(d.skel) == k - 1 for d, _ in low)


def test_insertion_degree_bookkeeping():
    out = insert_at_vertex(wheel(6), 0, triangle())
    (diag, _), = list(out)
    assert diag.degree == 7 and diag.nu == 6
    # a piece of insertion degree r adds r to the host's degree
    for piece, r in ((triangle(), 1), (ladder(3), 3), (ladder(9), 9)):
        (diag, _), = list(insert_at_vertex(wheel(6), 0, piece))
        assert diag.degree == 6 + r
    with pytest.raises(DiagramError):
        insert_at_vertex(wheel(6), 6, triangle())  # vertex 6 is a leg


def test_what_is_no_insertion_piece_is_refused():
    with pytest.raises(DiagramError, match="skeleton-free"):
        InsertionPiece(wheel_on_circle(4), (4, 5, 6))
    with pytest.raises(DiagramError, match="exactly 3 legs"):
        InsertionPiece(wheel(4), (4, 5, 6))
    with pytest.raises(DiagramError, match="r >= 1"):
        ladder(0)


def test_caterpillar_realization():
    # t^3 x3 x9 . S6: degree 6 + 3*1 + 3 + 9 = 21 with 6 legs
    diag = wheel(6)
    for piece in (ladder(9), ladder(3), triangle(), triangle(), triangle()):
        (diag, _), = list(insert_at_vertex(diag, 0, piece))
    assert diag.degree == 21
    assert diag.nu == 6


def test_insertion_well_defined_on_classes():
    a = insert_at_vertex(wheel(2), 0, triangle())
    b = insert_at_vertex(wheel(2), 1, triangle())
    assert reduce_B(accumulate(a, b, -1)) == {}


def test_reduce_B_kills_relations():
    w4 = wheel(4)
    h = internal_edges(w4)[0]
    rel = ihx_relation(w4, h)
    assert reduce_B(rel) == {}
    # AS: c - c after a double flip
    twice = flipped_at(flipped_at(w4, 0), 0)
    lc = LinComb.of(w4).add(twice, -1)
    assert not lc
    # AS sign relation: d + flipped(d) reduces to zero
    lc2 = LinComb.of(w4).add(flipped_at(w4, 0), 1)
    assert reduce_B(lc2) == {}


def test_dim_of_two_leg_degree_two_piece():
    # the exhaustive enumeration finds one AS-class, and it is nonzero
    # modulo IHX: the 2-wheel spans a 1-dimensional piece
    classes = enumerate_connected(2, 2)
    assert len(classes) == 1
    assert reduce_B(classes[0]) != {}


def test_wheel_class_is_nonzero():
    assert reduce_B(wheel(2)) != {}
    # odd wheels die by the leg-swap symmetry when legs are anonymous
    assert enumerate_connected(3, 4) == []


def test_circle_space_dimensions(monkeypatch):
    # Bar-Natan's dimensions of the circle space in degrees 0 to 5 from both
    # oracles; the rows they rank are ints, and their fraction-free rank is
    # the field rank of echelon, in builder order and reversed
    captured = []
    rank = scalars.matrix_rank

    def capture(rows):
        rows = list(rows)
        captured.append(rows)
        return rank(rows)

    monkeypatch.setattr(scalars, "matrix_rank", capture)
    for oracle in (dim_A_by_stu, dim_A_by_four_term):
        assert [oracle(m) for m in range(6)] == [1, 1, 2, 3, 6, 10]
    assert len(captured) == 12
    for rows in captured:
        assert all(type(v) is int for r in rows for v in r.values())
        assert rank(rows) == rank(rows[::-1]) == len(scalars.echelon(rows))


def test_serialization_roundtrip_and_stability():
    for d in (wheel(4), wheel_on_circle(4), empty_circle(),
              chord_diagram_from_word([(0, 2), (1, 3)], 4)):
        back = Diagram.from_text(diagram_text(d))
        assert back.canonical_key() == d.canonical_key()
        canon = d.canonical()[0]
        assert Diagram.from_text(diagram_text(canon))._encoding() == canon._encoding()


_tokens = st.one_of(st.integers(-2, 9).map(str), st.integers().map(str),
                    st.sampled_from(["x", "none", "empty", "1.5", "#"]))
_lines = st.one_of(
    st.builds(lambda head, rest: " ".join([head, *rest]),
              st.sampled_from(["vertices", "edge", "skeleton"]),
              st.lists(_tokens, max_size=5)),
    st.text(max_size=12))


@settings(max_examples=300, deadline=None)
@given(st.lists(_lines, max_size=8))
def test_from_text_parses_or_raises_diagram_error(lines):
    try:
        d = Diagram.from_text("\n".join(lines))
    except DiagramError:
        return
    assert Diagram.from_text(diagram_text(d)) == d


@pytest.mark.parametrize("text, line", [
    ("vertices 0 2\nvertices 0 2\nedge 0 1\nskeleton 0 1\n", "second vertices line"),
    ("vertices 0 2\nedge 0 1\nskeleton 0 1\nskeleton none\n", "second skeleton line"),
])
def test_from_text_refuses_a_second_header_or_skeleton(text, line):
    with pytest.raises(DiagramError, match=line):
        Diagram.from_text(text)


@pytest.mark.parametrize("d", [Diagram(0, 2, (1, 0)), wheel(2)], ids=["strut", "wheel2"])
def test_stu_reduction_refuses_a_diagram_without_skeleton(d):
    with pytest.raises(DiagramError, match="needs a skeleton diagram"):
        chord_reduce(d)
    with pytest.raises(DiagramError, match="needs a skeleton diagram"):
        chord_reduce(LinComb.of(d))


def test_lincomb_collection_uses_signs():
    w = wheel(2)
    lc = LinComb.of(w).add(flipped_at(w, 0))
    assert not lc
    lc = LinComb.of(w, Fraction(3, 2)).add(w, Fraction(1, 2))
    (diag, coeff), = list(lc)
    assert abs(coeff) == 2


def test_chord_endpoints():
    d = chord_diagram_from_word([(0, 2), (1, 3)], 4)
    assert chord_endpoints(d.canonical()[0]) in ([(0, 2), (1, 3)], [(0, 1), (2, 3)])


def test_tadpole_is_zero_and_stu_cancels():
    # internal vertex with a self-loop hanging from the circle: zero by the
    # loop-swap symmetry, and its two STU resolutions cancel exactly
    tadpole = Diagram(1, 1, (3, 2, 1, 0), skel=(1,))
    assert tadpole.canonical()[2]
    assert not LinComb.of(tadpole)
    assert not stu_expand(tadpole, 1)
    # inserting at the looped vertex joins two glue darts: still zero, with
    # the leg at each of the vertex's three slots
    for rotation in range(3):
        assert not insert_at_vertex(relabeled(tadpole, [0], [1], [rotation]), 0, triangle())
    with pytest.raises(DiagramError):
        skeleton_swap(tadpole, 0)  # a one-leg skeleton has nothing to swap
    # every diagram with a self-loop is zero, so leg contraction never
    # meets one: vertex 0's last two darts pair, the other darts at random
    rng = random.Random(11)
    looped = 0
    while looped < 24:
        nt = rng.choice((3, 5))
        nu = rng.choice([m for m in (1, 3, 5) if m <= nt])
        rest = [0] + list(range(3, 3 * nt + nu))
        rng.shuffle(rest)
        pairing = [None] * (3 * nt + nu)
        for a, b in [(1, 2)] + list(zip(rest[::2], rest[1::2])):
            pairing[a], pairing[b] = b, a
        skel = list(range(nt, nt + nu))
        rng.shuffle(skel)
        try:
            d = Diagram(nt, nu, pairing, skel=skel)
        except DiagramError:  # disconnected
            continue
        assert d.canonical()[2]
        looped += 1


def test_swapping_the_ends_of_one_chord():
    # the two ends of an isolated chord: swapping them changes nothing, and
    # the Y term closes the chord into a loop at the new vertex (a tadpole)
    d = chord_diagram_from_word([(0, 1), (2, 3)], 4)
    for i in (0, 2):
        swapped, y_term = skeleton_swap(d, i)
        assert swapped.canonical_key() == d.canonical_key()
        assert y_term.canonical()[2]


def test_mixed_degree_combination_rejected():
    lc = LinComb.of(wheel(2))
    with pytest.raises(DiagramError):
        lc.add(wheel(4))


def test_chord_canonicalization_mod_rotation():
    rng = random.Random(42)
    for _ in range(20):
        m = rng.randrange(2, 5)
        pts = list(range(2 * m))
        rng.shuffle(pts)
        pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(m)]
        d = chord_diagram_from_word(pairs, 2 * m)
        key = d.canonical_key()
        r = rng.randrange(1, 2 * m)
        rotated = [((a + r) % (2 * m), (b + r) % (2 * m)) for a, b in pairs]
        assert chord_diagram_from_word(rotated, 2 * m).canonical_key() == key


def test_chord_classes_match_the_four_term_oracle():
    # every chord diagram of degree 1 to 5 as a matching of circle points,
    # and one seeded relabelling of each (permuted vertex labels, rotated
    # skeleton): equal canonical keys exactly when the oracle's
    # rotation-minimal words are equal
    rng = random.Random(20261018)
    word_of, key_of = {}, {}
    for m in range(1, 6):
        n = 2 * m
        for pairs in _pairings(list(range(n))):
            d = chord_diagram_from_word(pairs, n)
            other = relabeled(d, [], rng.sample(range(n), n), [])
            r = rng.randrange(n)
            other = Diagram(0, n, other.pairing, other.skel[r:] + other.skel[:r])
            word = _word_canonical(pairs, n)
            for case in (d, other):
                canon, sign, zero = case.canonical()
                assert (sign, zero) == (1, False)
                key = canon._encoding()
                assert word_of.setdefault(key, word) == word
                assert key_of.setdefault(word, key) == key
    assert len(key_of) == 1 + 2 + 5 + 18 + 105


def _form(d):
    canon, sign, zero = d.canonical()
    return canon._encoding(), sign, zero


def _many_chords():
    """A diagram of 130 chords, whose gap word has entries beyond 255."""
    rng = random.Random(130)
    pts = list(range(260))
    rng.shuffle(pts)
    pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(130)]
    return pairs, chord_diagram_from_word(pairs, 260)


def test_chord_forms_have_no_size_limit():
    pairs, d = _many_chords()
    assert max(diagrams._gap_word(d)) > 255
    word = _word_canonical(pairs, 260)
    assert chord_reduce(d) == {word: 1}
    assert _form(d) == _form(word_diagram(word))


def test_gap_words_try_only_rotations_from_the_least_entry():
    # the rotations starting at the least entry hold the least of all
    # rotations, which _word_canonical takes over every one of them: every
    # chord matching of degree 0 to 6, and the 130-chord diagram
    cases = [(pairs, 2 * m) for m in range(7) for pairs in _pairings(list(range(2 * m)))]
    pairs, d = _many_chords()
    cases.append((pairs, 260))
    assert len(cases) == 1 + 1 + 3 + 15 + 105 + 945 + 10395 + 1
    for pairs, n in cases:
        assert diagrams._gap_word(chord_diagram_from_word(pairs, n)) == _word_canonical(pairs, n)


def test_a_chord_class_and_its_mirror_get_different_forms():
    # reversing the circle of this degree-4 class gives another class, so a
    # word that forgot the circle's direction would merge the two
    d = chord_diagram_from_word([(0, 1), (2, 5), (3, 7), (4, 6)], 8)
    mirror = Diagram(0, 8, d.pairing, d.skel[::-1])
    assert diagrams._gap_word(d) != diagrams._gap_word(mirror)
    assert _form(d)[0] != _form(mirror)[0]
    assert _form(mirror) == _form(word_diagram(diagrams._gap_word(mirror)))


def test_the_stu_oracle_searches_no_diagram(monkeypatch):
    def refuse(d):
        raise AssertionError(f"searched {d!r}")

    monkeypatch.setattr(diagrams, "_canonicalize", refuse)
    assert dim_A_by_stu(5) == 10


def test_the_stu_rows_are_the_canonical_rows_up_to_column_names():
    # the rows built from gap words are the rows that stu_expand gives on
    # the same one-vertex diagrams, indexed by canonical chord class; every
    # resolution's word names one of the classes the oracle counts
    for m in range(6):
        columns, rows = diagrams._stu_relations(m)
        words = {diagrams._gap_word(d) for d in diagrams._chord_diagrams(m)}
        classes = all_chord_diagrams(m)
        assert set(columns) <= words and len(words) == len(classes)
        index = {c._encoding(): i for i, c in enumerate(classes)}
        rename = {col: index[word_diagram(word).canonical_key()]
                  for word, col in columns.items()}
        assert sorted(columns.values()) == list(range(len(columns)))
        assert len(set(rename.values())) == len(rename)
        renamed = [{rename[col]: c for col, c in row.items()} for row in rows]
        assert renamed == stu_rows_by_canonical_class(one_vertex_diagrams(m), m)


def test_four_term_relations_are_ranked_once(monkeypatch):
    captured = []
    rank = scalars.matrix_rank

    def capture(rows):
        rows = list(rows)
        captured.append(rows)
        return rank(rows)

    monkeypatch.setattr(scalars, "matrix_rank", capture)
    assert dim_A_by_four_term(4) == 6
    rows, = captured
    # the relation builder emits 76 nonzero rows at m = 4; 25 of them are
    # distinct up to sign
    assert len(rows) == 25
    keys = set()
    for row in rows:
        items = tuple(sorted((k, c) for k, c in row.items() if c))
        negated = tuple((k, -c) for k, c in items)
        assert items and items not in keys and negated not in keys
        keys.add(items)


def test_one_tripod_per_rotation_orbit():
    # one diagram per class of a tripod at any of the C(2m-1, 3) position
    # triples: the same classes, none twice, none zero by AS
    for m in range(6):
        n = 2 * m - 1
        full = []
        for tripod in itertools.combinations(range(n), 3):
            rest = [i for i in range(n) if i not in tripod]
            for pairs in _pairings(rest):
                edges = [(s, 3 + pos) for s, pos in enumerate(tripod)]
                edges += [(3 + a, 3 + b) for a, b in pairs]
                full.append(_from_edges(1, n, edges, skel=range(1, 1 + n)))
        classes = [c._encoding() for c in _classes(full)]
        ones = one_vertex_diagrams(m)
        assert [c._encoding() for c in _classes(ones)] == classes
        assert len(ones) == len(classes) == [0, 0, 1, 2, 15, 142][m]
        assert not any(d.canonical()[2] for d in ones)
    assert len(one_vertex_diagrams(6)) == 1575


def _four_term_rows_of_every_triple(m):
    """The four-term rows of every ordered triple of marked points, deduplicated
    up to sign in the order first met: the reference for the builder's
    triples (0, p2, p3)."""
    n = 2 * m - 1
    words = {}
    relations = {}
    for p1, p2, p3 in itertools.permutations(range(n), 3):
        rest = [i for i in range(n) if i not in (p1, p2, p3)]
        for pairs in _pairings(rest):
            row = {}
            for at, first, second, sgn in ((p1, p3, p2, 1), (p1, p2, p3, -1),
                                           (p2, p1, p3, -1), (p2, p3, p1, 1)):
                out = [(a + (a > at), b + (b > at)) for a, b in pairs]
                out += [(at, first + (first > at)), (at + 1, second + (second > at))]
                idx = words.setdefault(_word_canonical(out, 2 * m), len(words))
                row[idx] = row.get(idx, 0) + sgn
            items = sorted((k, c) for k, c in row.items() if c)
            if items:
                if items[0][1] < 0:
                    items = [(k, -c) for k, c in items]
                relations[tuple(items)] = None
    return [dict(items) for items in relations]


def test_four_term_relations_start_at_point_zero(monkeypatch):
    # marking (0, p2, p3) ranks the rows of every ordered triple: the same
    # rows, word indices and order
    captured = []
    monkeypatch.setattr(scalars, "matrix_rank", lambda rows: captured.append(list(rows)) or 0)
    for m in range(6):
        dim_A_by_four_term(m)
        assert captured.pop() == _four_term_rows_of_every_triple(m)


def test_four_term_dimension_at_degree_6():
    assert dim_A_by_four_term(6) == 19


def test_stu_dimension_at_degree_6():
    assert dim_A_by_stu(6) == 19


def test_oracles_reject_a_negative_degree():
    for oracle in (dim_A_by_stu, dim_A_by_four_term):
        assert oracle(0) == 1
        with pytest.raises(ValueError, match="degree must be at least 0"):
            oracle(-1)


def test_every_class_has_a_rotation_with_a_shortest_chord_at_zero():
    # the classes, in order, of every pairing of the 2m circle points
    for m in range(7):
        full = _classes(chord_diagram_from_word(pairs, 2 * m)
                        for pairs in _pairings(list(range(2 * m))))
        assert ([c._encoding() for c in all_chord_diagrams(m)]
                == [c._encoding() for c in full])


@pytest.mark.parametrize("args, message", [
    ((0, 2, (1,), (0, 1)), "pairing length mismatch"),
    ((0, 4, (1, 0, 2, 3), (0, 1, 2, 3)), "involution at dart 2"),
    ((0, 4, (1, 2, 3, 0), (0, 1, 2, 3)), "involution at dart 0"),
    ((0, 4, (1, 0, 4, 2), (0, 1, 2, 3)), "involution at dart 2"),
    ((0, 4, (1, 0, 3, 2), (0, 1, 2)), "every univalent vertex exactly once"),
    ((0, 4, (1, 0, 3, 2), (0, 1, 2, 2)), "every univalent vertex exactly once"),
    # an odd vertex count is an odd dart count (3nt + nu and nt + nu have one
    # parity), which no involution pairs: the pairing check fires first
    ((1, 2, (3, 4, 2, 0, 1), (1, 2)), "involution at dart 2"),
    # two chords with no skeleton: two components
    ((0, 4, (1, 0, 3, 2)), "must be connected"),
    # a chord on the circle and a detached theta (vertices 0 and 1)
    ((2, 2, (3, 4, 5, 0, 1, 2, 7, 6), (2, 3)), "must be connected"),
    # a circle with no legs and a detached theta
    ((2, 0, (3, 4, 5, 0, 1, 2), ()), "must be connected"),
])
def test_validate_names_what_is_wrong(args, message):
    with pytest.raises(DiagramError, match=message):
        Diagram(*args)


def test_a_skeleton_without_legs_is_only_the_bare_circle():
    theta_beside_circle = "vertices 2 0\nedge 0 3\nedge 1 4\nedge 2 5\nskeleton empty\n"
    with pytest.raises(DiagramError, match="must be connected"):
        Diagram.from_text(theta_beside_circle)
    assert Diagram.from_text("vertices 0 0\nskeleton empty\n") == empty_circle()


def test_a_diagram_may_be_connected_only_through_its_skeleton():
    # two chords side by side, and a theta on two legs beside a chord
    Diagram(0, 4, (1, 0, 3, 2), (0, 1, 2, 3))
    theta_legs = ((0, 6), (1, 4), (2, 5), (3, 7), (8, 9))
    _from_edges(2, 4, theta_legs, (2, 3, 4, 5))
