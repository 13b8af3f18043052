"""Weight-system evaluation: two methods, invariances, insertion ratios."""

import random
from fractions import Fraction

import pytest

from oracles import (
    PolyEndo,
    PolyVerma,
    corrupt,
    crossing_components,
    diagram_text,
    empty_circle,
    enumerate_connected,
    exact_ratio,
    poly_leg_tensor,
    poly_sweep_chords,
    poly_sweep_legs,
    ratio_character,
    sweep_cost,
    wheel_on_circle,
)
from test_characters import X3_PIECE
from test_golden import X3W4_TEXT
from weightsys.diagrams import (
    Diagram,
    InsertionPiece,
    LinComb,
    _word_canonical,
    all_chord_diagrams,
    chi_bar,
    chord_diagram_from_word,
    chord_endpoints,
    chord_reduce,
    insert_at_vertex,
    ladder,
    stu_eligible_legs,
    stu_expand,
    triangle,
    wheel,
)
from weightsys.evaluation import (
    EndoCarrier,
    SchurCheckError,
    VermaCarrier,
    adjoint_rep,
    adjoint_weight,
    eval_state_sum,
    eval_verma,
    leg_tensor,
    sweep_chords,
    sweep_legs,
)
from weightsys.scalars import MultiPoly, _poly
from weightsys.superalgebras import SuperAlgebra, d21, sl2, validate
import weightsys.evaluation as evaluation


@pytest.fixture(scope="module")
def L():
    return sl2()


@pytest.fixture(scope="module")
def D2():
    return d21(Fraction(2))


@pytest.fixture(scope="module")
def D_sym():
    return d21()


def test_bare_circle_is_one(L):
    assert eval_state_sum(empty_circle(), L) == 1
    assert eval_verma(empty_circle(), L, (2,)) == 1


def test_single_chord_sl2_two_methods(L):
    one = chord_diagram_from_word([(0, 1)], 2)
    v = eval_verma(one, L, adjoint_weight(L))
    n = MultiPoly.variable("n")
    assert v == 2 * n ** 2 + 2 * n
    assert eval_state_sum(one, L) == 4
    assert v.substitute({"n": Fraction(1)}) == 4


def test_single_chord_d21_adjoint_vanishes(D_sym):
    one = chord_diagram_from_word([(0, 1)], 2)
    assert eval_state_sum(one, D_sym) == 0
    v = eval_verma(one, D_sym, adjoint_weight(D_sym))
    assert v.substitute({"n": Fraction(1)}).is_zero()


def supertrace(A, x):
    diagonal = (col.get(j, 0) for j, col in enumerate(adjoint_rep(A)[x]))
    return sum(-c if odd else c for c, odd in zip(diagonal, A.parity))


def test_adjoint_rep_properties(L, D2):
    # the columns of ad x are the brackets [x, b_j], so [ad x, ad y] = ad [x, y]
    # is the super Jacobi identity that validate checks entry by entry
    for A in (L, D2):
        columns = adjoint_rep(A)
        assert columns == [[A.bracket(x, j) for j in range(A.dim)] for x in range(A.dim)]
        assert validate(A)["super_jacobi"]["ok"]
    h = L.basis_names.index("h")
    assert sorted(adjoint_rep(L)[h][j].get(j, 0) for j in range(3)) == [-2, 0, 2]
    assert supertrace(L, h) == 0
    assert supertrace(D2, D2.basis_names.index("H1")) == 0


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(3), Fraction(1, 2)])
def test_two_method_agreement_degree2(alpha):
    """The Verma value at n = 1 on the adjoint weight equals the adjoint
    state sum on every chord diagram of degree 1 and 2.

    On D(2,1,alpha) both sides are 0 for every diagram: the single chord's
    value is the Casimir eigenvalue of the adjoint representation, which is
    0 there.  So this checks only the vanishing and the Schur scalarity of
    the state sum; sl2 carries the nonzero comparisons
    (``test_single_chord_sl2_two_methods`` and criterion 4 of
    tests/test_acceptance.py).
    """
    D = d21(alpha)
    lam = adjoint_weight(D)
    for d in all_chord_diagrams(1) + all_chord_diagrams(2):
        v = eval_verma(d, D, lam).substitute({"n": Fraction(1)})
        assert v == eval_state_sum(d, D)


def test_stu_invariance_of_evaluation(D2):
    # eval(d) equals the evaluation of any one-step STU expansion of d
    lam = (3, 1, 1)
    t2 = wheel_on_circle(2)
    base = eval_verma(t2, D2, lam)
    for u in stu_eligible_legs(t2):
        total = MultiPoly.zero(("n",))
        for term, c in stu_expand(t2, u):
            total = total + eval_verma(term, D2, lam) * Fraction(c)
        assert total == base
    # degree 3: a glued triangle-insertion, expanded along each eligible leg
    (d3, c3), = list(insert_at_vertex(wheel(2), 0, triangle()))
    glued = next(iter(chi_bar(d3, c3)))[0]
    base = eval_verma(glued, D2, lam)
    for u in stu_eligible_legs(glued):
        total = MultiPoly.zero(("n",))
        for term, c in stu_expand(glued, u):
            total = total + eval_verma(term, D2, lam) * Fraction(c)
        assert total == base


def test_cut_rotation_invariance(D_sym):
    # moving the cut reorders the processing of the (odd) Casimir legs; the
    # three distinct cuts of this asymmetric diagram, each swept as given,
    # all give the value of the cut the plan picks
    carrier = VermaCarrier(D_sym, (3, 1, 1))
    chords, n = [(0, 2), (1, 4), (3, 5)], 6
    planned, _ = evaluation._plan_rotation(chords, n, len(carrier.terms))
    want = sweep_chords(carrier, planned)
    assert want
    cuts = {tuple(sorted(tuple(sorted(((p - r) % n, (q - r) % n))) for p, q in chords))
            for r in range(n)}
    assert len(cuts) == 3
    for cut in cuts:
        assert sweep_chords(carrier, list(cut)) == want


def test_degree_bound_is_asserted(monkeypatch):
    # a sweep returning n^9 for a one-chord diagram (two skeleton vertices)
    # must trip the bound; a fresh algebra keeps the fake value out of the
    # shared fixtures' carriers
    monkeypatch.setattr(evaluation, "sweep_chords",
                        lambda *args, **kwargs: MultiPoly.variable("n") ** 9)
    one = chord_diagram_from_word([(0, 1)], 2)
    with pytest.raises(AssertionError, match="degree bound violated"):
        eval_verma(one, d21(Fraction(2)), (3, 1, 1))


def test_state_sum_reuses_the_adjoint_carrier(monkeypatch):
    built = []

    def counting_adjoint_rep(alg):
        built.append(alg.name)
        return adjoint_rep(alg)

    monkeypatch.setattr(evaluation, "adjoint_rep", counting_adjoint_rep)
    L = sl2()
    one = chord_diagram_from_word([(0, 1)], 2)
    two = chord_diagram_from_word([(0, 2), (1, 3)], 4)
    assert [eval_state_sum(x, L) for x in (one, two, one)] == [4, 8, 4]
    assert built == ["sl2"]


def test_exact_ratio():
    n = MultiPoly.variable("n")
    a = MultiPoly.variable("alpha")
    num = (a + 1) * (n ** 2 + 2 * n)
    den = (n ** 2 + 2 * n).with_vars(("n", "alpha"))
    r = exact_ratio(num, den)
    assert r == a + 1
    assert exact_ratio(3 * n, 2 * n) == Fraction(3, 2)
    with pytest.raises(ValueError):
        exact_ratio(n ** 2, n + 1)
    # proportional, but by 1/(alpha + 1), which is not a polynomial
    with pytest.raises(ValueError):
        exact_ratio(den, num)


def test_triangle_ratio_constant_on_sl2(L):
    t = triangle()
    s2 = wheel(2)
    (s3, c3), = list(insert_at_vertex(s2, 0, t))
    probes = [(s2, L, "verma", (2,)), (s3, L, "verma", (2,)),
              (s2, L, "statesum", None)]
    value, report = ratio_character(t, probes)
    assert value == -2
    assert len(report) == 3


def test_triangle_kills_wheel_values_on_d21(D2):
    # chi(t) = 0 for this family: W(t.S4) = 0 while W(S4) != 0
    s4 = wheel(4)
    den = eval_verma(chi_bar(s4), D2, (3, 1, 1))
    assert not den.is_zero()
    (ins, c), = list(insert_at_vertex(s4, 0, triangle()))
    num = eval_verma(chi_bar(ins, c), D2, (3, 1, 1))
    assert num.is_zero()
    # ... and on the zero-value probes the multiplicative relation 0 = 0*W holds
    for base in (wheel(2),):
        w_base = eval_verma(chi_bar(base), D2, (3, 1, 1))
        (tins, tc), = list(insert_at_vertex(base, 0, triangle()))
        w_ins = eval_verma(chi_bar(tins, tc), D2, (3, 1, 1))
        assert w_ins == w_base * 0


def test_symmetrized_wheel_at_alpha_one():
    # coefficient of n^4 at alpha = 1 is 4! * 1728
    D1 = d21(Fraction(1))
    p = eval_verma(chi_bar(wheel(4)), D1, (3, 1, 1))
    assert p.coefficient_in("n", 4) == 41472


def test_triangle_character_vanishes_identically(D_sym):
    # the symbolic cross-check: the degree-1 component of Q[sigma2, sigma3]
    # is zero, so the measured triangle character must be zero identically
    s4 = wheel(4)
    (ins, c), = list(insert_at_vertex(s4, 0, triangle()))
    num = eval_verma(chi_bar(ins, c), D_sym, (3, 1, 1))
    assert num.is_zero()
    den = eval_verma(chi_bar(s4), D_sym, (3, 1, 1))
    assert not den.is_zero()


def test_ladder_acts_consistently(L, D2):
    # behavioral check of the x-family representative: insertion ratios are
    # probe independent on sl2, and zero values propagate multiplicatively
    # on D(2,1,2)
    from weightsys.diagrams import ladder

    x3 = ladder(3)
    s2 = wheel(2)
    (ts2, c1), = list(insert_at_vertex(s2, 0, triangle()))
    ratios = []
    for base, sgn in ((s2, 1), (ts2, c1)):
        (ins, ci), = list(insert_at_vertex(base, 0, x3))
        num = eval_verma(chi_bar(ins, ci * sgn), L, (2,))
        den = eval_verma(chi_bar(base, sgn), L, (2,))
        ratios.append(exact_ratio(num, den))
    assert ratios[0] == ratios[1] == -8
    (insd, cid), = list(insert_at_vertex(s2, 0, x3))
    assert eval_verma(chi_bar(insd, cid), D2, (3, 1, 1)).is_zero()


def test_schur_check_guards_the_state_sum(L):
    # corrupt one structure constant, [e, e] = h: ad e is then no longer a
    # representation, and the Schur check must catch the non-scalar result
    broken = corrupt(L, 0, 0, 1, 1)
    with pytest.raises(SchurCheckError):
        eval_state_sum(chord_diagram_from_word([(0, 1)], 2), broken)


def test_verma_carrier_rejects_an_odd_square():
    # twice an odd root of D(2,1,alpha) is not a root, so every odd lowering
    # operator squares to zero; a corrupted [v, v] = h is refused up front
    D = d21(Fraction(2))
    h = D.rootdata.cartan[0]
    odd = [v for v in D.rootdata.negative_order if D.parity[v]]
    assert odd
    VermaCarrier(D, (3, 1, 1))
    for v in odd:
        with pytest.raises(ValueError, match="nonzero square"):
            VermaCarrier(corrupt(D, v, v, h, 1), (3, 1, 1))


def test_each_corruption_gets_its_own_carrier():
    # each corrupted copy is a new algebra with no carriers of its own, so
    # the values follow its structure constants: [e, f] = 2h, then [e, f] = 3h
    two = chord_diagram_from_word([(0, 2), (1, 3)], 4)
    assert str(eval_verma(two, corrupt(sl2(), 0, 2, 1, 1), (2,))) == "4*n^4 + 16*n^3 + 16*n^2 - 16*n"
    assert str(eval_verma(two, corrupt(sl2(), 0, 2, 1, 2), (2,))) == "4*n^4 + 24*n^3 + 48*n^2 - 36*n"


def test_two_algebras_with_one_name_keep_their_own_values():
    # the same label with the Casimir doubled: the second algebra's carriers
    # are its own, so both values double rather than repeat the first's
    one = chord_diagram_from_word([(0, 1)], 2)
    L = sl2()
    assert str(eval_verma(one, L, (2,))) == "2*n^2 + 2*n"
    assert eval_state_sum(one, L) == 4
    doubled = SuperAlgebra("sl2", list(L.basis_names), L.parity, L.bracket_table,
                           [(i, j, 2 * c) for i, j, c in L.casimir], rootdata=L.rootdata)
    assert doubled.name == L.name and doubled != L
    assert str(eval_verma(one, doubled, (2,))) == "4*n^2 + 4*n"
    assert eval_state_sum(one, doubled) == 8
    assert str(eval_verma(one, L, (2,))) == "2*n^2 + 2*n"


def test_values_stay_in_the_carrier_ring(L, D2, D_sym):
    # no value leaves its ring: each carrier's sums stay in its own scalar ring,
    # zero values included
    one = chord_diagram_from_word([(0, 1)], 2)
    two = chord_diagram_from_word([(0, 2), (1, 3)], 4)
    for A in (L, D2):
        for d in (LinComb(), one, two):
            assert type(eval_state_sum(d, A)) is Fraction
    assert eval_state_sum(one, D_sym) == 0
    for d in (LinComb(), one, two):
        value = eval_state_sum(d, D_sym)
        assert isinstance(value, MultiPoly) and value.vars == ("alpha",)
    for A, weight, ring in ((L, (2,), ("n",)), (D2, (3, 1, 1), ("n",)),
                            (D_sym, (3, 1, 1), ("n", "alpha"))):
        for d in (LinComb(), one, two):
            value = eval_verma(d, A, weight)
            assert isinstance(value, MultiPoly) and value.vars == ring


def test_both_carriers_work_on_integers(L, D2, D_sym):
    # each bracket entry is scaled by one common factor and each Casimir
    # weight by another, and held as int entries ((key offset, int), ...),
    # alpha's exponent in its field of the key; the Verma Cartan action
    # n * lambda0 is scaled by the first.  A chord costs the square of the
    # first times the second.  Every D(2,1,alpha) chord value in the
    # adjoint is 0, so the value goldens alone cannot see these scales.
    for A in (L, D2, d21(Fraction(1, 3)), D_sym):
        weight = (2,) if A is L else (3, 1, 1)
        for carrier in (VermaCarrier(A, weight), EndoCarrier(A)):

            def ratios(pairs):
                out = set()
                for entries, true in pairs:
                    assert entries and all(type(off) is int and type(c) is int and c
                                           for off, c in entries)
                    if not A.symbolic:
                        assert [off for off, _ in entries] == [0]
                    scaled = _poly(carrier.vars, dict(entries), 1)
                    assert scaled.degree_in("n") <= 0
                    true = MultiPoly.zero(carrier.vars) + true
                    expo, c = next(iter(true.terms.items()))
                    scale = scaled.terms[expo] / c
                    assert scaled == true * scale
                    out.add(scale)
                return out

            da, = ratios((carrier.bracket[key][i], v) for key, row in A.bracket_table.items()
                         for i, v in row.items())
            dw, = ratios((lw, w) for (_, _, lw), (_, _, w) in zip(carrier.terms, A.casimir))
            assert da.denominator == dw.denominator == 1 and da > 0 and dw > 0
            assert carrier.degree_scale == da * da * dw
            if isinstance(carrier, VermaCarrier):
                assert carrier.cartan == {h: da * w for h, w in zip(A.rootdata.cartan, weight)}
            # every operator entry the sweep reads is a pair of ints
            sweep_chords(carrier, [(0, 2), (1, 3)])
            tables = [*carrier.tables, *(t for _, t in carrier.opening)]
            rows = [row for t in tables for row in (t.values() if isinstance(t, dict) else t)]
            assert rows and all(type(off) is int and type(c) is int and c
                                for row in rows for off, c in row)
    # sl2: integer brackets, a weight 1/2
    assert EndoCarrier(L).degree_scale == VermaCarrier(L, (2,)).degree_scale == 2


def test_state_sum_is_bounded_by_its_plan_not_its_vertex_count(D2):
    # seven chords in a chain on 14 points plan 3,502 on D(2,1,2), far
    # below the eval bound, however many vertices they have
    chain = chord_diagram_from_word([(0, 2), (1, 4), (3, 6), (5, 8), (7, 10), (9, 12), (11, 13)], 14)
    assert chain.n_vertices == 14 and sweep_cost(chain, D2) == 3502
    assert eval_state_sum(chain, D2) == sweep_chords(EndoCarrier(D2), chord_endpoints(chain))


def two_method_corpus():
    """(name, LinComb) of skeleton diagrams: every connected diagram of
    degree 1 to 4 with 2 or 4 legs, glued in two leg orders; the glued and
    the symmetrized 4-wheel; the triangle and ladder(2) inserted into the
    2- and 4-wheels, symmetrized."""
    out = []
    for deg in range(1, 5):
        for legs in (2, 4):
            for b in enumerate_connected(deg, legs):
                first, *rest = range(b.nt, b.nt + b.nu)
                for order in (rest, rest[::-1]):
                    glued = Diagram(b.nt, b.nu, b.pairing, skel=(first, *order))
                    out.append((f"connected {diagram_text(glued)}", LinComb.of(glued)))
    out += [("wheel_on_circle(4)", LinComb.of(wheel_on_circle(4))),
            ("chi_bar(wheel(4))", chi_bar(wheel(4)))]
    for name, piece in (("triangle", triangle()), ("ladder(2)", ladder(2))):
        for k in (2, 4):
            (diag, c), = list(insert_at_vertex(wheel(k), 0, piece))
            out.append((f"{name} in wheel({k})", chi_bar(diag, c)))
    return out


TWO_METHOD_CORPUS = two_method_corpus()
D21_DEGREE_4 = ("ladder(2) in wheel(2)", "wheel_on_circle(4)")


@pytest.mark.parametrize("alpha", [None, Fraction(2), Fraction(1, 3), "symbolic"])
def test_contraction_agrees_with_stu(alpha):
    # the two evaluations of a skeleton diagram, called directly: the leg
    # tensor swept along the circle, and the chord diagrams of the STU
    # reduction swept one by one (through eval_*, which memoizes them).
    # D(2,1,alpha) takes the diagrams of degree at most 3, and the ladder in
    # the 2-wheel and the glued 4-wheel with their Verma values only:
    # contraction costs 0.1-0.5 s for each other one there, and STU seconds
    # to a minute for the inserted 4-wheels.  The goldens pin those values,
    # and chi_bar(wheel(4))'s, from STU.  The weights are the Verma
    # golden's, so the chord values are swept once for both.
    L = sl2() if alpha is None else d21(None if alpha == "symbolic" else alpha)
    weight = {None: (2,), Fraction(2): adjoint_weight(L)}.get(alpha, (3, 1, 1))
    verma, adjoint = VermaCarrier(L, weight), EndoCarrier(L)
    nonzero = 0
    for name, d in TWO_METHOD_CORPUS:
        large = any(x.degree > 3 for x, _ in d)
        if L.dim > 3 and large and name not in D21_DEGREE_4:
            continue
        reduced = chord_reduce(d)
        methods = [(verma, eval_verma(reduced, L, weight))]
        if not large or L.dim == 3:
            methods.append((adjoint, eval_state_sum(reduced, L)))
        for carrier, want in methods:
            got = carrier.zero
            for x, c in d:
                got = got + sweep_legs(carrier, leg_tensor(carrier, x), x.degree) * Fraction(c)
            assert got == want, name
            nonzero += bool(want) and any(x.nt for x, _ in d)
    # most values vanish on D(2,1,alpha), where the adjoint Casimir is 0
    assert nonzero >= (60 if alpha is None else 1)


def test_more_vertices_than_legs_is_contracted_the_rest_reduced(monkeypatch):
    # the only dispatch: a skeleton diagram with more trivalent vertices than
    # legs is contracted, any other one goes through STU and the chord sweep;
    # a fresh algebra has no value of either diagram yet
    (tri, c), = list(insert_at_vertex(wheel(2), 0, triangle()))
    glued = next(iter(chi_bar(tri, c)))[0]
    assert glued.nt > glued.nu
    L = sl2()

    def refuse(*args):
        raise AssertionError("the other path ran")

    with monkeypatch.context() as m:
        m.setattr(evaluation, "chord_reduce", refuse)
        contracted = eval_verma(glued, L, (2,))
    assert contracted == eval_verma(chord_reduce(glued), L, (2,))
    with monkeypatch.context() as m:
        m.setattr(evaluation, "leg_tensor", refuse)
        assert eval_verma(wheel_on_circle(4), L, (2,))


def test_x3_insertion_scales_the_glued_4_wheel(D2):
    # the golden eval_d21_alpha2_x3w4: the X3 piece at vertex 0 of the glued
    # 4-wheel outnumbers its four legs with ten trivalent vertices, so its
    # value comes from a nonempty leg tensor; the glued 4-wheel's comes from
    # STU.  The piece multiplies the value by 12 * sigma3 = -12*alpha^2 -
    # 12*alpha, which is -72 at alpha = 2
    piece = InsertionPiece(Diagram.from_text(X3_PIECE), (7, 8, 9))
    (inserted, sign), = list(insert_at_vertex(wheel_on_circle(4), 0, piece))
    assert sign == 1 and diagram_text(inserted) == X3W4_TEXT
    value = eval_verma(inserted, D2, (3, 1, 1))
    assert str(value) == "-622080*n^4 + 1057536*n^3 - 497664*n^2 + 62208*n"
    assert len(leg_tensor(D2.carriers[(3, 1, 1)], inserted)) == 1947
    assert value == -72 * eval_verma(wheel_on_circle(4), D2, (3, 1, 1))


def test_each_prime_is_planned_once(monkeypatch):
    # the symmetrized 4-wheel's two classes reduce to 18 chord diagrams, 12
    # of them distinct, whose crossing components are 6 distinct primes:
    # one rotation search per distinct prime, and none once every prime's
    # value is memoized
    searches = []
    plan_rotation = evaluation._plan_rotation

    def counting(*args):
        searches.append(args)
        return plan_rotation(*args)

    monkeypatch.setattr(evaluation, "_plan_rotation", counting)
    L, sym = sl2(), chi_bar(wheel(4))
    parts = chord_reduce(sym)
    primes = {_word_canonical(comp, 2 * len(comp))
              for x, _ in parts for comp in crossing_components(chord_endpoints(x))}
    assert len(list(parts)) == 12 and len(primes) == 6
    first = eval_verma(sym, L, (2,))
    assert len(searches) == len(L.carriers[(2,)].values) == len(primes)
    searches.clear()
    assert eval_verma(sym, L, (2,)) == first
    assert searches == []


def connected_sum(rng, primes):
    """A chord diagram's endpoint pairs built as the connected sum of the
    given primes' endpoint pairs: each prime, turned by a seeded rotation,
    goes into a seeded gap of the diagram built so far."""
    pairs, n = [], 0
    for prime in primes:
        k, turn, gap = 2 * len(prime), rng.randrange(2 * len(prime)), rng.randrange(n + 1)
        pairs = [tuple(e + k if e >= gap else e for e in chord) for chord in pairs]
        pairs += [tuple(sorted(gap + (e + turn) % k for e in chord)) for chord in prime]
        n += k
    return sorted(pairs), n


def test_a_chord_diagram_factors_into_its_crossing_components():
    one = chord_diagram_from_word([(0, 1)], 2).canonical_key()
    nested = chord_diagram_from_word([(0, 3), (1, 2)], 4)
    assert [key for key, _ in evaluation._factors(nested)] == [one, one]
    cross4 = chord_diagram_from_word([(0, 4), (1, 5), (2, 6), (3, 7)], 8)
    assert [key for key, _ in evaluation._factors(cross4)] == [cross4.canonical_key()]
    # seeded composites of degree 6, of primes of degree 3, 2 and 1 drawn
    # from the prime classes: each splits into the primes it was built of
    rng = random.Random(6)
    prime_classes = {m: [chord_endpoints(d) for d in all_chord_diagrams(m)
                         if len(crossing_components(chord_endpoints(d))) == 1]
                     for m in (1, 2, 3)}
    assert [len(prime_classes[m]) for m in (1, 2, 3)] == [1, 1, 2]
    for _ in range(8):
        primes = [rng.choice(prime_classes[m]) for m in rng.sample((3, 2, 1), 3)]
        pairs, n = connected_sum(rng, primes)
        d = chord_diagram_from_word(pairs, n)
        assert d.degree == 6 and len(crossing_components(pairs)) == 3
        want = sorted(chord_diagram_from_word(p, 2 * len(p)).canonical_key() for p in primes)
        assert sorted(key for key, _ in evaluation._factors(d)) == want


@pytest.mark.parametrize("alpha, top", [(None, 5), (Fraction(2), 5), ("symbolic", 4)])
def test_a_composite_value_is_the_product_of_its_primes(alpha, top):
    # every chord diagram of degree at most top that factors: its evaluated
    # value, the product of its primes', equals the sweep of the whole
    # unfactored diagram, in the cut the plan picks for it.  Verma values
    # are nonzero; the adjoint ones vanish on D(2,1,2), so that comparison
    # checks the Schur check of each prime only, and 75 of the 90 on sl2 do
    # not
    L = sl2() if alpha is None else d21(None if alpha == "symbolic" else alpha)
    weight = (2,) if alpha is None else (3, 1, 1)
    composite = [d for m in range(top + 1) for d in all_chord_diagrams(m)
                 if len(crossing_components(chord_endpoints(d))) > 1]
    assert len(composite) == (16 if top == 4 else 90)
    methods = [(VermaCarrier(L, weight), lambda d: eval_verma(d, L, weight))]
    if alpha != "symbolic":
        methods.append((EndoCarrier(L), lambda d: eval_state_sum(d, L)))
    nonzero = []
    for carrier, evaluate in methods:
        for d in composite:
            ends = chord_endpoints(d)
            chords, _ = evaluation._plan_rotation(ends, 2 * len(ends), len(carrier.terms))
            value = evaluate(d)
            assert value == sweep_chords(carrier, chords), (type(carrier).__name__, ends)
            nonzero.append(bool(value))
    assert all(nonzero[:len(composite)])
    assert sum(nonzero[len(composite):]) == (75 if alpha is None else 0)


def test_splitting_a_prime_changes_its_value(monkeypatch):
    # the negative control: the two crossing chords evaluated as if they
    # were two single chords give the square of the one-chord value, which
    # is not the crossing's value on sl2.  (On D(2,1,alpha) the two differ
    # by a multiple of the adjoint Casimir eigenvalue t = 0, so they agree.)
    cross = chord_diagram_from_word([(0, 2), (1, 3)], 4)
    one = chord_diagram_from_word([(0, 1)], 2)
    factors = evaluation._factors
    monkeypatch.setattr(evaluation, "_factors",
                        lambda x: factors(one) * 2 if x == cross.canonical()[0] else factors(x))
    L = sl2()
    for carrier, evaluate in ((VermaCarrier(L, (2,)), lambda d: eval_verma(d, L, (2,))),
                              (EndoCarrier(L), lambda d: eval_state_sum(d, L))):
        split = evaluate(cross)
        assert split == evaluate(one) * evaluate(one)
        assert split != sweep_chords(carrier, [(0, 2), (1, 3)])
    monkeypatch.undo()
    assert eval_verma(cross, sl2(), (2,)) == sweep_chords(VermaCarrier(L, (2,)), [(0, 2), (1, 3)])


def test_the_library_bounds_the_sweep_before_sweeping(monkeypatch):
    # six pairwise crossing chords plan 51,292,332 on D(2,1,alpha), and a
    # leg trie over six legs 17 + 17^2 + ... + 17^6: both evaluations refuse
    # them before any sweep, unless the value is already known
    def refuse(*args):
        raise AssertionError("swept")

    monkeypatch.setattr(evaluation, "sweep_chords", refuse)
    monkeypatch.setattr(evaluation, "leg_tensor", refuse)
    D = d21()
    cross6 = chord_diagram_from_word([(i, i + 6) for i in range(6)], 12)
    (big, c), = list(insert_at_vertex(wheel(6), 0, triangle()))
    big = Diagram(big.nt, big.nu, big.pairing, skel=range(big.nt, big.nt + big.nu))
    assert big.nt > big.nu == 6
    for evaluate in (lambda d: eval_verma(d, D, (3, 1, 1)), lambda d: eval_state_sum(d, D)):
        with pytest.raises(evaluation.CostBoundError, match="plans cost 51292332"):
            evaluate(cross6)
        with pytest.raises(evaluation.CostBoundError, match="plans cost 51292332"):
            evaluate(LinComb.of(chord_diagram_from_word([(2 * i, 2 * i + 1) for i in range(6)], 12))
                     .add(cross6))
        with pytest.raises(evaluation.CostBoundError, match=f"plans cost {sum(17 ** k for k in range(1, 7))}"):
            evaluate(big)
    carrier = D.carriers[(3, 1, 1)]
    carrier.values[cross6.canonical_key()] = carrier.zero
    assert eval_verma(cross6, D, (3, 1, 1)).is_zero()


def breadth_first_sweep(carrier, chords):
    """The chord sweep breadth first, the reference for ``sweep_chords``:
    every layer, that of openings too, is stored as a map from pendings to
    states, the pendings as (chord, term) pairs, each sign counted from
    them.  The chords are swept in the cut they are given in."""
    terms = carrier.terms
    odd = [carrier.parity[x] for x, _, _ in terms]
    n_positions = 2 * len(chords)
    open_at = {q: ci for ci, (p, q) in enumerate(chords)}
    close_at = {p: ci for ci, (p, q) in enumerate(chords)}
    states = {(): carrier.start()}
    for pos in range(n_positions - 1, -1, -1):
        nxt = {}
        if pos in open_at:
            ci = open_at[pos]
            p_c = chords[ci][0]
            for pend, vec in states.items():
                odd_crossers = sum(1 for c2, t2 in pend if odd[t2] and chords[c2][0] > p_c)
                signed = {k: -c for k, c in vec.items()} if odd_crossers & 1 else vec
                for ti, (_, table) in enumerate(carrier.opening):
                    vec2 = carrier.apply(table, signed if odd[ti] else vec)
                    if vec2:
                        nxt[pend + ((ci, ti),)] = vec2
        else:
            ci = close_at[pos]
            for pend, vec in states.items():
                ti = next(t for c, t in pend if c == ci)
                rest = tuple((c, t) for c, t in pend if c != ci)
                if rest in nxt:
                    carrier.apply(carrier.tables[terms[ti][0]], vec, nxt[rest])
                else:
                    vec2 = carrier.apply(carrier.tables[terms[ti][0]], vec)
                    if vec2:
                        nxt[rest] = vec2
        states = nxt
        if not states:
            break
    return carrier.extract(states.get((), {}), len(chords))


def raw_casimir(L):
    """A copy of L whose Casimir weights are scaled by 1, 2, 3, ... term by
    term.  The terms then form no invariant tensor, so a final state is no
    scalar multiple of the identity, and values that vanish on D(2,1,alpha)
    by invariance do not vanish."""
    return SuperAlgebra(L.name, list(L.basis_names), L.parity, L.bracket_table,
                        [(x, y, w * (i + 1)) for i, (x, y, w) in enumerate(L.casimir)],
                        rootdata=L.rootdata)


class RawState:
    """A carrier on ``raw_casimir(L)`` whose ``extract`` hands out the final
    state itself.  With the true Casimir every adjoint state on
    D(2,1,alpha) ends empty, and comparing states would check little."""

    def __init__(self, L, *args):
        super().__init__(raw_casimir(L), *args)

    def extract(self, state, degree):
        return state


class RawVerma(RawState, VermaCarrier):
    pass


class RawEndo(RawState, EndoCarrier):
    def start(self):
        # two columns of the identity, an even basis element's and (on
        # D(2,1,alpha)) an odd one's: the sweep runs the columns alike, and
        # all 17 would take eight times as long
        return {k: c for k, c in super().start().items() if k >> self.shift in (0, self.dim - 1)}


@pytest.mark.parametrize("alpha, top", [(None, 4), (Fraction(2), 4), ("symbolic", 3)])
def test_the_sweep_agrees_with_its_breadth_first_reference(alpha, top):
    # one chord diagram per class up to the degree, on both carriers, each
    # in the cut the plan picks: equal final states, entry by entry and in
    # insertion order
    L = sl2() if alpha is None else d21(None if alpha == "symbolic" else alpha)
    carriers = (RawVerma(L, (2,) if alpha is None else (3, 1, 1)), RawEndo(L))
    nonzero = 0
    for carrier in carriers:
        for m in range(top + 1):
            for d in all_chord_diagrams(m):
                ends = chord_endpoints(d)
                chords, _ = evaluation._plan_rotation(ends, len(ends) * 2, len(carrier.terms))
                want = breadth_first_sweep(carrier, chords)
                got = sweep_chords(carrier, chords)
                assert list(got.items()) == list(want.items()), (type(carrier).__name__, chords)
                nonzero += bool(got)
    assert nonzero == 2 * sum(len(all_chord_diagrams(m)) for m in range(top + 1))


def test_the_sweep_stores_states_only_after_a_closing(D2, monkeypatch):
    # three pairwise crossing chords are all open at once after the third
    # opening: stored, that layer would hold 4,097 states on D(2,1,2).  Only
    # closings store, and the widest closing keeps at most one state per
    # pair of Casimir terms on the two chords still open.
    stored = []
    close = evaluation._close

    def counting_close(*args):
        states = close(*args)
        stored.append(len(states))
        return states

    monkeypatch.setattr(evaluation, "_close", counting_close)
    assert sweep_chords(EndoCarrier(D2), [(0, 3), (1, 4), (2, 5)]) == 0
    assert 17 < max(stored) <= 17 ** 2


@pytest.mark.parametrize("alpha, top", [(None, 4), (Fraction(2), 4), ("symbolic", 3)])
def test_the_int_sweep_agrees_with_the_multipoly_sweep(alpha, top):
    # the sweep on int states against the MultiPoly-state sweep it replaced,
    # on a fresh carrier of each kind: equal values on every chord diagram
    # class up to the degree.  Every Verma value is nonzero, so those are
    # not comparisons of zeros; the adjoint ones are on sl2 alone.
    L = sl2() if alpha is None else d21(None if alpha == "symbolic" else alpha)
    weight = (2,) if alpha is None else (3, 1, 1)
    diagrams = [chord_endpoints(d) for m in range(top + 1) for d in all_chord_diagrams(m)]
    for new, old in ((VermaCarrier(L, weight), PolyVerma(L, weight)),
                     (EndoCarrier(L), PolyEndo(L))):
        values = [sweep_chords(new, chords) for chords in diagrams]
        assert values == [poly_sweep_chords(old, chords) for chords in diagrams], type(new).__name__
        if isinstance(new, VermaCarrier):
            assert all(values)


@pytest.mark.parametrize("alpha", [None, Fraction(3, 2), "symbolic"])
def test_the_int_leg_sweep_agrees_with_the_multipoly_sweep(alpha):
    # the triangle-inserted 4-wheel, symmetrized, is three diagrams with more
    # trivalent vertices than legs: each one's leg tensor contracted and
    # swept on ints, and contracted and swept on MultiPoly coefficients.  On
    # D(2,1,alpha) its leg tensors are empty, so the Verma comparison runs
    # on the raw Casimir too, where no value is 0 (the adjoint's would fail
    # the Schur check there).
    L = sl2() if alpha is None else d21(None if alpha == "symbolic" else alpha)
    weight = (2,) if alpha is None else (3, 1, 1)
    (ins, c), = list(insert_at_vertex(wheel(4), 0, triangle()))
    diagrams = [x for x, _ in chi_bar(ins, c)]
    assert len(diagrams) == 3 and all(x.nt > x.nu for x in diagrams)
    raw = raw_casimir(L)
    for A, new, old in ((L, VermaCarrier(L, weight), PolyVerma(L, weight)),
                        (L, EndoCarrier(L), PolyEndo(L)),
                        (raw, VermaCarrier(raw, weight), PolyVerma(raw, weight))):
        values = [sweep_legs(new, leg_tensor(new, x), x.degree) for x in diagrams]
        assert values == [poly_sweep_legs(old, poly_leg_tensor(old, x), x.degree)
                          for x in diagrams]
        assert all(values) == (alpha is None or A is raw)
        assert any(values) == all(values)


def test_the_plan_bounds_the_leg_sweep(L, D2, monkeypatch):
    # a leg sweep stores only what its closings merge: after the closing at
    # leg j, at most dim**j label prefixes.  So the states it stores, summed
    # over its closings, stay within the plan's charge dim + ... + dim**nu,
    # on the X3-inserted 4-wheel (1,947 entries on D(2,1,2)) and on the
    # triangle-inserted 4-wheel's three diagrams on sl2
    stored = []
    close = evaluation._close

    def counting_close(*args):
        states = close(*args)
        stored.append(len(states))
        return states

    monkeypatch.setattr(evaluation, "_close", counting_close)
    (ins, c), = list(insert_at_vertex(wheel(4), 0, triangle()))
    for A, weight, diagrams in ((D2, (3, 1, 1), [Diagram.from_text(X3W4_TEXT)]),
                                (L, (2,), [x for x, _ in chi_bar(ins, c)])):
        for carrier in (VermaCarrier(A, weight), EndoCarrier(A)):
            for x in diagrams:
                stored.clear()
                sweep_legs(carrier, leg_tensor(carrier, x), x.degree)
                assert 0 < sum(stored) <= sweep_cost(x, A), (A.name, type(carrier).__name__)


def test_each_leg_step_table_is_built_once_per_shape(D2):
    # the X3-inserted 4-wheel and the three triangle-inserted ones: 18 of
    # their steps have 10 shapes.  Once they are contracted, the carrier
    # holds one table per shape, and each equals a fresh build for every
    # step that has that shape
    (ins, c), = list(insert_at_vertex(wheel(4), 0, triangle()))
    tri = [x for x, _ in chi_bar(ins, c)]
    steps = [what for x in tri for _, _, what in evaluation._leg_plan(x)[0]]
    assert len(steps) == 18 and len(set(steps)) == 10
    diagrams = [Diagram.from_text(X3W4_TEXT), *tri]
    for carrier in (VermaCarrier(D2, (3, 1, 1)), EndoCarrier(D2)):
        first = {x: (y, w) for x, y, w in carrier.terms}
        second = {y: (x, w) for x, y, w in carrier.terms}
        shapes = set()
        for x in diagrams:
            leg_tensor(carrier, x)
            for _, _, what in evaluation._leg_plan(x)[0]:
                shapes.add(what)
                table, signed = carrier.step_tables[what]
                fresh = evaluation._step_table(what, carrier, first, second)
                assert table == fresh
                assert signed == any(row[3] for rows in fresh.values() for row in rows)
        assert set(carrier.step_tables) == shapes


def test_a_nonempty_adjoint_leg_sweep_on_d21(D2):
    # the X3-inserted 4-wheel's adjoint leg tensor on D(2,1,2) has 1,947
    # entries, where the triangle-inserted ones are empty: swept, they end
    # on the zero endomorphism, which passes the Schur check, as the
    # MultiPoly-state sweep of the same tensor does
    x = Diagram.from_text(X3W4_TEXT)
    tensor = leg_tensor(EndoCarrier(D2), x)
    assert len(tensor) == 1947
    old = PolyEndo(D2)
    want = poly_sweep_legs(old, poly_leg_tensor(old, x), x.degree)
    assert sweep_legs(EndoCarrier(D2), tensor, x.degree) == want == 0


def test_leg_contraction_builds_no_multipoly(monkeypatch):
    # on symbolic D(2,1,alpha) with the raw Casimir the triangle-inserted
    # 4-wheel's leg tensors are not empty, and contracting and sweeping them
    # adds and multiplies no MultiPoly: alpha's exponent rides in the keys,
    # and only extract builds the value
    raw = raw_casimir(d21())
    carrier = VermaCarrier(raw, (3, 1, 1))
    (ins, c), = list(insert_at_vertex(wheel(4), 0, triangle()))
    diagrams = [x for x, _ in chi_bar(ins, c)]
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def counted(*args, fn=getattr(MultiPoly, name), name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(MultiPoly, name, counted)
    tensors = [leg_tensor(carrier, x) for x in diagrams]
    values = [sweep_legs(carrier, t, x.degree) for t, x in zip(tensors, diagrams)]
    monkeypatch.undo()
    assert all(tensors) and all(values)
    assert calls == []
