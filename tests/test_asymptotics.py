"""Root-system leading coefficients and the nonvanishing search."""

from fractions import Fraction

import pytest

from weightsys.asymptotics import (
    DEFAULT_LAMBDA0,
    _root_pairings,
    _root_sum,
    closed_form_check,
    closed_form_value,
    find_n0,
    top_coefficient,
)
from weightsys.scalars import MultiPoly
from weightsys.superalgebras import d21


def test_seven_inner_products_at_alpha_one():
    rd = d21(Fraction(1)).rootdata
    lam0 = (3, 1, 1)
    values = sorted(rd.inner(lam0, coords) for coords, _ in rd.positive_roots)
    assert values == [-1, -1, 2, 3, 3, 4, 6]


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
def test_closed_form_reproduction(k):
    got = _root_sum(_root_pairings(DEFAULT_LAMBDA0, Fraction(1)), k)
    assert got == closed_form_value(k)


def test_known_values():
    assert closed_form_value(2) == 0
    assert closed_form_value(4) == 1728
    assert _root_sum(_root_pairings(DEFAULT_LAMBDA0, Fraction(1)), 4) == 1728


def test_range_check_to_40():
    rep = closed_form_check(range(2, 41, 2))
    assert rep["ok"]
    assert len(rep["rows"]) == 20
    assert all(row["positive"] for row in rep["rows"] if row["k"] >= 4)


def test_symbolic_k2_is_identically_zero():
    top = top_coefficient(2)
    assert isinstance(top, MultiPoly) and top.is_zero()


def test_odd_k_rejected():
    with pytest.raises(ValueError):
        top_coefficient(3)


def test_scaling_linearity():
    # scaling lambda0 by s scales the coefficient by s^k
    k = 4
    base = top_coefficient(k)
    scaled = _root_sum(_root_pairings((6, 2, 2), None), k)
    assert scaled == base * (2 ** k)


def test_odd_root_sign_symmetry():
    # swapping the last two H* coordinates turns D(2,1,alpha) into
    # D(2,1,1/alpha) with its form scaled and fixes lambda0 = (3, 1, 1), so
    # top(k)(alpha) = alpha^k top(k)(1/alpha): its k + 1 coefficients in
    # alpha read the same backwards
    for k in range(2, 13, 2):
        coeffs = top_coefficient(k).as_univariate("alpha")
        coeffs += [0] * (k + 1 - len(coeffs))
        assert coeffs == coeffs[::-1], k
        assert (k == 2) == (not any(coeffs))
    # at alpha = 1 the swap also exchanges an asymmetric weight's last two slots
    t1 = _root_sum(_root_pairings((3, 2, 1), Fraction(1)), 6)
    t2 = _root_sum(_root_pairings((3, 1, 2), Fraction(1)), 6)
    assert t1 == t2


def test_find_n0_for_k2_reports_honestly():
    rep = find_n0(2)
    assert rep["n0"] is None
    assert rep["certified"] is False
    assert rep["n_k_coefficient_equals_k_factorial_times_top"]
