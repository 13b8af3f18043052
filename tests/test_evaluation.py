"""Weight-system evaluation: two methods, invariances, insertion ratios."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weightsys.diagrams import (
    LinComb,
    all_chord_diagrams,
    chi_bar,
    chord_diagram_from_word,
    empty_circle,
    insert_at_vertex,
    stu_eligible_legs,
    stu_expand,
    triangle,
    wheel,
    wheel_on_circle,
)
from weightsys.evaluation import (
    SchurCheckError,
    VermaCarrier,
    _IntPoly,
    adjoint_rep,
    adjoint_weight,
    eval_state_sum,
    eval_verma,
    exact_ratio,
    ratio_character,
    sweep_chords,
)
from weightsys.scalars import MultiPoly
from weightsys.superalgebras import corrupt, d21, sl2, validate
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
    h = L.index("h")
    assert sorted(adjoint_rep(L)[h][j].get(j, 0) for j in range(3)) == [-2, 0, 2]
    assert supertrace(L, h) == 0
    assert supertrace(D2, D2.index("H1")) == 0


@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(3), Fraction(1, 2)])
def test_two_method_agreement_degree2(alpha):
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


def test_cut_rotation_invariance(D_sym, monkeypatch):
    # moving the cut reorders the processing of the (odd) Casimir legs; the
    # three distinct cuts of this asymmetric diagram all give the planned value
    carrier = VermaCarrier(D_sym, (3, 1, 1))
    chords, n = [(0, 2), (1, 4), (3, 5)], 6
    want = sweep_chords(carrier, chords)
    assert want
    cuts = {tuple(sorted(tuple(sorted(((p - r) % n, (q - r) % n))) for p, q in chords))
            for r in range(n)}
    assert len(cuts) == 3
    for cut in cuts:
        monkeypatch.setattr(evaluation, "_plan_rotation", lambda *args, cut=cut: list(cut))
        assert sweep_chords(carrier, chords) == want


def test_degree_bound_is_asserted(D2, monkeypatch):
    # a sweep returning n^9 for a one-chord diagram (two skeleton vertices)
    # must trip the bound; fresh carriers keep the fake value out of the memos
    monkeypatch.setattr(evaluation, "_CARRIERS", {})
    monkeypatch.setattr(evaluation, "sweep_chords",
                        lambda *args, **kwargs: MultiPoly.variable("n") ** 9)
    one = chord_diagram_from_word([(0, 1)], 2)
    with pytest.raises(AssertionError, match="degree bound violated"):
        eval_verma(one, D2, (3, 1, 1))


def test_state_sum_reuses_the_adjoint_carrier(L, monkeypatch):
    built = []

    def counting_adjoint_rep(alg):
        built.append(alg.name)
        return adjoint_rep(alg)

    monkeypatch.setattr(evaluation, "_CARRIERS", {})
    monkeypatch.setattr(evaluation, "adjoint_rep", counting_adjoint_rep)
    one = chord_diagram_from_word([(0, 1)], 2)
    two = chord_diagram_from_word([(0, 2), (1, 3)], 4)
    assert [eval_state_sum(x, L) for x in (one, two, one)] == [4, 8, 4]
    assert built == ["sl2"]


def ring_polys(ring):
    coeffs = st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 2, 3, 8, 24]))
    monos = st.tuples(*[st.integers(0, 4)] * len(ring))
    return st.dictionaries(monos, coeffs, max_size=6).map(lambda t: MultiPoly(ring, t))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("n",), ("n", "alpha")]).flatmap(
    lambda ring: st.tuples(st.just(ring), ring_polys(ring), ring_polys(ring))))
def test_int_poly_follows_multipoly(case):
    # the sweep's int-coefficient values read back as the MultiPoly results,
    # and each value has one representation: den > 0, coprime to the numerators
    ring, a, b = case
    la, lb = _IntPoly.lift(a), _IntPoly.lift(b)
    # (a + b)(a - b): the cross terms cancel inside one product
    square_diff = (la + lb) * (la + (-lb))
    for got, want in ((la, a), (la + lb, a + b), (la * lb, a * b), (-la, -a),
                      (square_diff, a * a - b * b)):
        poly = got.to_poly(ring)
        assert poly.vars == ring and poly == want
        assert got.den > 0 and math.gcd(got.den, *got.terms.values()) == 1
        assert all(got.terms.values())
        again = _IntPoly.lift(want)
        assert (got.terms, got.den) == (again.terms, again.den)
    cancelled = la + lb + (-lb)
    assert (cancelled.terms, cancelled.den) == (la.terms, la.den)
    zero = la + (-la)
    assert not zero and zero.den == 1


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


def test_values_stay_in_the_carrier_ring(L, D2, D_sym):
    # nothing lifts values: each carrier's sums stay in its own scalar ring,
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


def test_statesum_cost_guard(D2):
    with pytest.raises(evaluation.CostBoundError):
        eval_state_sum(wheel_on_circle(8), D2)
