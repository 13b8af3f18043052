"""Leading coefficients of weight-system polynomials from root data.

For a sequence of representations with highest weight n*lambda0, the value
of a skeleton diagram is polynomial in n of degree at most the number of
skeleton vertices.  For the k-legged wheel on the circle the coefficient of
n^k has the closed root-system expression

    2 * sum over positive roots beta of (-1)^{parity(beta)} <lambda0, beta>^k,

computed here exactly (symbolically in alpha for the D(2,1,alpha) family).
Combining with the k! relation between the wheel and the symmetrized wheel
gives the nonvanishing search implemented in :func:`find_n0`.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import rational_roots, squarefree_part
from .superalgebras import d21, d21_rootdata

DEFAULT_LAMBDA0 = (3, 1, 1)


def top_coefficient(k):
    """2 * sum_{beta in Delta+} (-1)^{deg beta} <lambda0, beta>^k, exact, over
    the positive roots of D(2,1,alpha), as a polynomial in alpha, for
    lambda0 = DEFAULT_LAMBDA0.  Raises ValueError unless k is even and >= 2.
    """
    return _root_sum(_root_pairings(DEFAULT_LAMBDA0, None), k)


def _root_pairings(lambda0, alpha):
    """[(<lambda0, beta>, parity of beta)] over the positive roots beta of
    D(2,1,alpha): the part of the root sum that does not depend on k."""
    rootdata = d21_rootdata(alpha)
    return [(rootdata.inner(lambda0, coords), parity)
            for coords, parity in rootdata.positive_roots]


def _root_sum(pairings, k):
    """top_coefficient's sum from the pairings of ``_root_pairings``."""
    if k % 2 or k < 2:
        raise ValueError("k must be even and >= 2")
    total = 0
    for ip, parity in pairings:
        term = ip ** k
        total = (-term if parity else term) + total
    return 2 * total


def closed_form_value(k):
    """2 (6^k + 2 - 4^k - 2*3^k - 2^k)."""
    return 2 * (6 ** k + 2 - 4 ** k - 2 * 3 ** k - 2 ** k)


def closed_form_check(ks=range(2, 41, 2)):
    """At alpha = 1 the root-system sum equals the closed form for every even
    k; the value is 0 at k = 2 and positive for k >= 4."""
    pairings = _root_pairings(DEFAULT_LAMBDA0, Fraction(1))
    rows = []
    ok = True
    for k in ks:
        computed = _root_sum(pairings, k)
        closed = closed_form_value(k)
        match = computed == closed
        positive = closed > 0
        row_ok = match and (closed == 0 if k == 2 else positive)
        ok = ok and row_ok
        rows.append({"k": k, "computed": str(computed), "closed_form": str(closed),
                     "match": match, "positive": positive})
    return {"ok": ok, "rows": rows}


def sun_verma_polynomial(k):
    """eval of the symmetrized k-wheel on the symbolic D(2,1,alpha) Verma
    module of weight n*DEFAULT_LAMBDA0: the expensive computation.  Each
    call builds d21() afresh, so a repeat in one process computes the value
    again."""
    from .diagrams import chi_bar, wheel
    from .evaluation import eval_verma

    return eval_verma(chi_bar(wheel(k)), d21(), DEFAULT_LAMBDA0)


def find_n0(k):
    """Nonvanishing certificate for the symmetrized k-wheel.

    Computes the full value polynomial p(n, alpha), verifies that its n^k
    coefficient equals k! times the root-system leading coefficient
    (identically in alpha), and returns the least n0 >= 1 at which
    p(n0, alpha) is not the zero polynomial, together with the finite
    exclusion set of rational alpha roots and a squarefree certificate.

    When the leading coefficient vanishes identically (k = 2) no n0 is
    certified and the report says so.
    """
    import math

    top = top_coefficient(k)
    p = sun_verma_polynomial(k)
    lead = p.coefficient_in("n", k)
    want = math.factorial(k) * top
    if lead != want:
        raise AssertionError("n^k coefficient disagrees with the root-system formula")

    report = {"k": k, "top_coefficient": str(top),
              "n_k_coefficient_equals_k_factorial_times_top": True}
    if not top:
        report.update({"n0": None,
                       "certified": False,
                       "note": "leading coefficient vanishes identically; "
                               "no n0 certified through it"})
        return report

    deg_n = p.degree_in("n")
    n0 = None
    for cand in range(1, deg_n + 2):
        at = p.substitute({"n": Fraction(cand)})
        if not at.is_zero():
            n0 = cand
            break
    assert n0 is not None  # nonzero polynomial has at most deg_n roots
    at = at.restrict_vars()
    roots = rational_roots(at, "alpha")
    report.update({
        "n0": n0,
        "certified": True,
        "value_at_n0": str(at),
        "excluded_rational_alpha": [[str(r), m] for r, m in roots],
        "squarefree_part": str(squarefree_part(at, "alpha")),
        "note": "value at n0 is nonzero for every alpha outside the root set "
                "of the squarefree part",
    })
    return report
