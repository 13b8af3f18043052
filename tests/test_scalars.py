"""Tests for the exact scalar tower and the linear solver."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weightsys.scalars import (
    MultiPoly,
    echelon,
    matrix_inverse,
    matrix_rank,
    rational_roots,
    reduce_by,
    solve_linear_system,
    sparse_rref,
    squarefree_part,
)


def P(name):
    return MultiPoly.variable(name)


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def small_polys(var_names=("x", "y")):
    monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(monos, rationals, max_size=4).map(
        lambda d: MultiPoly(var_names, d)
    )


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + (-p)).is_zero()
    assert p + q == q + p
    assert p * q == q * p


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys(), rationals, rationals)
def test_substitution_is_ring_hom(p, q, a, b):
    sub = {"x": a, "y": b}
    assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
    assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ring_terms(ring):
    coeffs = st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 2, 3, 8, 24]))
    return st.dictionaries(st.tuples(*[st.integers(0, 4)] * len(ring)), coeffs, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([("n",), ("n", "alpha")]).flatmap(
    lambda ring: st.tuples(st.just(ring), ring_terms(ring), ring_terms(ring))), rationals)
def test_multipoly_follows_a_fraction_reference(case, k):
    # +, *, negation and (a+b)(a-b) against exponent-tuple/Fraction dicts;
    # each value has one representation: den > 0 and coprime to the
    # numerators, no zero numerator, and the same packed data however built
    ring, ta, tb = case
    a, b = MultiPoly(ring, ta), MultiPoly(ring, tb)
    ra, rb = ({e: c for e, c in t.items() if c} for t in (ta, tb))
    neg_b = {e: -c for e, c in rb.items()}
    for got, want in ((a, ra), (a + b, _ref_add(ra, rb)), (a * b, _ref_mul(ra, rb)),
                      (-b, neg_b), (a * k, _ref_mul(ra, {(0,) * len(ring): k})),
                      ((a + b) * (a - b), _ref_mul(_ref_add(ra, rb), _ref_add(ra, neg_b)))):
        assert got.vars == ring and got.terms == want
        assert all(type(c) is Fraction for c in got.terms.values())
        assert got.den > 0 and math.gcd(got.den, *got.nums.values()) == 1
        assert all(got.nums.values())
        again = MultiPoly(ring, want)
        assert (got.nums, got.den) == (again.nums, again.den)
        assert MultiPoly(got.vars, got.terms) == got
    moved = a.with_vars(ring[::-1] + ("x",))
    assert moved == a
    cancelled = a + b - b
    assert (cancelled.nums, cancelled.den) == (a.nums, a.den)
    zero = a + (-a)
    assert not zero and zero.nums == {} and zero.den == 1


def test_constructor_rejects_exponents_outside_the_packed_field():
    # an exponent is 32 bits of the packed monomial; a wider one would
    # spill into the next variable's field
    for e in (-1, 2 ** 32, 2 ** 40):
        with pytest.raises(ValueError):
            MultiPoly(("n", "alpha"), {(e, 0): 1})
    top = MultiPoly(("n", "alpha"), {(2 ** 32 - 1, 0): 1})
    assert top.degree_in("n") == 2 ** 32 - 1 and top.degree_in("alpha") == 0
    with pytest.raises(ValueError):
        MultiPoly(("n", "alpha"), {(1,): 1})


def test_poly_eval_examples():
    alpha = P("alpha")
    # alpha^2 + alpha at alpha = 1
    p = alpha * alpha + alpha
    assert p.substitute({"alpha": Fraction(1)}) == 2

    # renaming-style substitution: sigma3 -> -alpha - alpha^2
    s3 = P("sigma3")
    image = -alpha - alpha * alpha
    assert s3.substitute({"sigma3": image}) == image

    # (1 + alpha) * n^k at alpha = 1, k = 2  ->  2 n^2
    n = P("n")
    p = (1 + alpha) * n ** 2
    assert p.substitute({"alpha": Fraction(1)}) == 2 * n ** 2


def test_partial_substitution_keeps_other_vars():
    a, n = P("alpha"), P("n")
    p = (a + 1) * n + a ** 3
    q = p.substitute({"alpha": Fraction(2)})
    assert q == 3 * n + 8


def test_degree_bookkeeping():
    a, n = P("alpha"), P("n")
    p = (a * n) ** 3 + n
    assert max(map(sum, p.terms)) == 6
    assert p.degree_in("n") == 3
    assert p.coefficient_in("n", 3) == a ** 3
    assert not MultiPoly.zero().terms


def test_canonical_str_is_deterministic():
    a, n = P("alpha"), P("n")
    p = 2 * n ** 2 - n * a + Fraction(1, 2)
    assert str(p) == "2*n^2 - n*alpha + 1/2"
    q = Fraction(1, 2) + 2 * n ** 2 - a * n
    assert str(q) == str(p)


def test_solver_identity_case():
    rows = [{0: 1}, {1: 1}, {2: 1}]
    sol = solve_linear_system(rows, [1, 0, 0])
    assert sol.consistent
    assert sol.particular == [1, 0, 0]
    assert sol.nullspace == []


def test_solver_symmetry_case():
    sol = solve_linear_system([{0: 1, 1: 1}], [0])
    assert sol.consistent
    assert len(sol.nullspace) == 1
    vec = sol.nullspace[0]
    assert vec[0] == -vec[1]


def test_solver_inconsistent_is_a_legal_return():
    sol = solve_linear_system([{0: 1}, {0: 1}], [1, 2])
    assert not sol.consistent
    assert sol.particular is None


def test_solver_rejects_a_column_outside_ncols():
    # the augmented column sits at ncols: a row reaching it must not be
    # silently overwritten by the right-hand side
    with pytest.raises(ValueError):
        solve_linear_system([{0: 1, 1: 1}], [5], ncols=1)
    with pytest.raises(ValueError):
        solve_linear_system([{0: 1}, {3: 2}], [1, 1], ncols=3)


def test_degree2_stu_consistency_system():
    # The three expansions of the one-internal-vertex degree-2 diagram, in
    # coordinates (noncrossing, crossing) of the two chord classes: each
    # expansion is (1, -1), so the system has rank 1 and the pairwise
    # differences have rank 0, consistent with the diagram-module dimension
    # #classes - 0 = 2 for the degree-2 piece.  Values frozen from the
    # brute-force expansion in the diagram tests.
    rows = [{0: 1, 1: -1}, {0: 1, 1: -1}, {0: 1, 1: -1}]
    assert matrix_rank(rows) == 1
    diffs = [{0: 0, 1: 0}, {0: 0, 1: 0}]
    assert matrix_rank(diffs) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3))
def test_solver_residuals_are_exactly_zero(mat, rhs):
    rows = [{j: v for j, v in enumerate(r) if v} for r in mat]
    sol = solve_linear_system(rows, rhs, ncols=3)
    if sol.consistent:
        for r, b in zip(rows, rhs):
            acc = sum((v * sol.particular[j] for j, v in r.items()), Fraction(0))
            assert acc == b
    for vec in sol.nullspace:
        for r in rows:
            acc = sum((v * vec.get(j, 0) for j, v in r.items()), Fraction(0))
            assert acc == 0


def _check_elimination(rows, order, scales):
    """The reduced form does not depend on the order or the scale of the
    rows; it has 1 at each pivot and 0 at the others; every row reduces to
    zero against the echelon form; the rank is the number of pivots."""
    pivots, rref = sparse_rref(rows)
    moved = [{c: v * scales[i] for c, v in rows[i].items()} for i in order]
    assert sparse_rref(moved) == (pivots, rref)
    for p, row in zip(pivots, rref):
        assert row[p] == 1
        assert not any(row.get(q) for q in pivots if q != p)
    ech = echelon(moved)
    assert sorted(ech) == pivots
    for r in rows:
        assert not reduce_by(r, ech)
    assert len(echelon(rows)) == len(pivots)


sparse_rows = st.lists(st.dictionaries(st.integers(0, 5), rationals, max_size=4), max_size=7)


@settings(max_examples=100, deadline=None)
@given(sparse_rows.flatmap(lambda rows: st.tuples(
    st.just(rows), st.permutations(range(len(rows))),
    st.lists(rationals.filter(bool), min_size=len(rows), max_size=len(rows)))))
def test_elimination_does_not_depend_on_row_order_or_scale(case):
    rows, order, scales = case
    _check_elimination([{c: v for c, v in r.items() if v} for r in rows], order, scales)


int_entries = st.one_of(st.integers(-2, 2), st.integers(-2 ** 70, 2 ** 70))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 7), int_entries, max_size=5), max_size=8),
       st.data())
def test_integer_rank_matches_the_field_rank(rows, data):
    # zero rows, zero entries, repeated rows, multiples and sums of rows
    if rows:
        pick = st.sampled_from(rows)
        for r in data.draw(st.lists(pick, max_size=3)):
            rows.append(dict(r))
        for r, k in data.draw(st.lists(st.tuples(pick, int_entries), max_size=2)):
            rows.append({c: k * v for c, v in r.items()})
        for r, t in data.draw(st.lists(st.tuples(pick, pick), max_size=2)):
            rows.append({c: r.get(c, 0) + t.get(c, 0) for c in {*r, *t}})
        rows = data.draw(st.permutations(rows))
    assert matrix_rank(rows) == len(echelon(rows))


def test_integer_rank_reduces_unscaled_where_the_pivot_entry_divides():
    # the first kept row has -1 at column 0, which divides the 3 and the 2
    # below it, so those rows lose a multiple of it unscaled: the third row
    # becomes {1: 3, 3: 1}, and the last, -2 times the first, becomes zero.
    # The second kept row has 2 at column 1 against that odd 3, so the third
    # row is doubled first and kept at column 2.
    rows = [{0: -1, 1: 1, 2: 2}, {1: 2, 2: 1}, {0: 3, 2: -6, 3: 1}, {0: 2, 1: -2, 2: -4}]
    assert matrix_rank(rows) == len(echelon(rows)) == 3


def test_integer_rank_does_not_depend_on_the_row_order(monkeypatch):
    # matrix_rank takes the rows shortest first; on seeded shuffles of the
    # rows dim_A_by_stu(5) ranks, the rank is still the field rank
    from weightsys import scalars
    from weightsys.diagrams import dim_A_by_stu

    captured = []
    monkeypatch.setattr(scalars, "matrix_rank", lambda rows: captured.append(list(rows)) or 0)
    dim_A_by_stu(5)
    monkeypatch.undo()
    rows, = captured
    rank = len(echelon(rows))
    assert rank == 95 and len({len(r) for r in rows}) > 1
    rng = random.Random(5)
    for _ in range(4):
        rng.shuffle(rows)
        assert matrix_rank(rows) == rank


def test_equal_values_are_equal_and_unhashable():
    # equal whatever the variable tuple or its order, and a constant equals
    # its Fraction; no program code keys on a polynomial, so none hashes
    a, x, y = P("alpha"), P("x"), P("y")
    pairs = [(x + y, (y + x).with_vars(("y", "x"))),
             (x * y + 1, (x * y + 1).with_vars(("y", "x", "alpha"))),
             (MultiPoly.const(6, ("x",)) * Fraction(1, 4), Fraction(3, 2)),
             ((a + 1) * a - a * a, a.with_vars(("x", "alpha"))),
             (a - a, 0)]
    for left, right in pairs:
        assert left == right
    with pytest.raises(TypeError):
        hash(MultiPoly.zero())


def _check_inverse(mat):
    """mat . N == D . I, with D nonzero."""
    N, D = matrix_inverse(mat)
    assert D
    n = len(mat)
    for i in range(n):
        for j in range(n):
            acc = sum((mat[i][k] * N[k][j] for k in range(n)), 0)
            assert acc == (D if i == j else 0)
    return N, D


def test_matrix_inverse_over_q():
    N, D = _check_inverse([[0, 2, 1], [Fraction(1, 2), 0, 0], [1, 1, 3]])
    assert [x / D for x in N[0]] == [0, 2, 0]
    _check_inverse([[Fraction(1, 3)]])


def test_matrix_inverse_over_polynomials_divides_nowhere():
    a = P("alpha")
    one = MultiPoly.const(1, ("alpha",))
    N, D = _check_inverse([[a, one], [0, a + 1]])
    assert all(isinstance(x, MultiPoly) for x in (D, *N[0], *N[1]))
    # a row swap and fill-in at the first column
    _check_inverse([[0, a, one], [a + 1, one, 0], [one, 0, a]])


@pytest.mark.parametrize("singular", [
    [[0, 0], [0, 1]],
    [[1, 2], [2, 4]],
    [[P("alpha"), 1], [P("alpha") ** 2, P("alpha")]],
])
def test_matrix_inverse_rejects_a_singular_matrix(singular):
    # validate's casimir_regular reads regularity from the inverse
    with pytest.raises(ValueError, match="singular"):
        matrix_inverse(singular)


def test_rational_roots_with_multiplicity():
    a = P("alpha")
    p = a ** 3 * (a + 1) ** 2 * (2 * a - 3) * (a ** 2 + 1)
    roots = rational_roots(p, "alpha")
    assert roots == [(Fraction(-1), 2), (Fraction(0), 3), (Fraction(3, 2), 1)]
    # a large content leaves the roots alone
    assert rational_roots(2 ** 40 * p, "alpha") == roots
    assert rational_roots(Fraction(7 ** 30, 3) * p, "alpha") == roots
    sq = squarefree_part(p, "alpha")
    assert rational_roots(sq, "alpha") == [(Fraction(-1), 1), (Fraction(0), 1), (Fraction(3, 2), 1)]
    assert sq.degree_in("alpha") == 5


# a*x^2 + n without rational roots: n > 0, or -a*n not a square
quadratics = st.tuples(st.integers(1, 9), st.integers(-40, 40)).filter(
    lambda t: t[1] > 0 or (t[1] < 0 and math.isqrt(-t[0] * t[1]) ** 2 != -t[0] * t[1]))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 50)),
                       st.integers(1, 2), max_size=4),
       st.lists(quadratics, max_size=2), rationals.filter(bool))
def test_rational_roots_of_products_with_known_roots(roots, quads, scale):
    x = P("alpha")
    p = MultiPoly.const(scale, ("alpha",))
    for r, m in roots.items():
        p = p * (r.denominator * x - r.numerator) ** m
    for a, n in quads:
        p = p * (a * x ** 2 + n)
    assert rational_roots(p, "alpha") == sorted(roots.items())


def test_rational_roots_with_large_end_coefficients():
    # the end coefficients have too many divisors to list in reasonable time
    x = P("alpha")
    p = (3 * x - 10 ** 8 + 7) * (x ** 2 + 10 ** 8 + 39)
    assert rational_roots(p, "alpha") == [(Fraction(10 ** 8 - 7, 3), 1)]
