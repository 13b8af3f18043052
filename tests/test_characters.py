"""Symmetric-polynomial character calculus and the certificate."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weightsys.characters import (
    E,
    FACTOR_LABELS,
    LMN,
    _read_poly,
    build_D_element,
    build_P,
    chi0_image_test,
    chi_prime_D,
    from_elementary,
    is_symmetric,
    load_family_table,
    parse_Q,
    p_factors,
    q_degree_and_t_check,
    specialize_alpha,
    sym_vars,
    to_elementary,
    vanishing_table,
    weighted_degrees,
)
from weightsys.scalars import CostBoundError, MultiPoly


def e_vars():
    return tuple(MultiPoly.variable(v).with_vars(E) for v in E)


def read_names(text):
    return _read_poly(text, lambda name: (MultiPoly.variable(name), 1))


@pytest.fixture(scope="module")
def P():
    return build_P()


def test_P_degree_and_symmetry(P):
    assert P.vars == E and weighted_degrees(P) == {15}
    expanded = from_elementary(P)
    assert expanded.degree() == 15
    assert is_symmetric(expanded)
    assert len(p_factors()) == len(FACTOR_LABELS) == 15


def test_P_at_unit_point(P):
    # lam = mu = nu = 1: t=3; prod(t+a)=64, prod(t-a)=8, prod(a+2b)=729, prod(3a-2t)=-27
    assert P.evaluate({"e1": 3, "e2": 3, "e3": 1}) == -10077696


def test_P_equals_the_converted_product_of_its_factors(P):
    product = MultiPoly.const(1, LMN)
    for f in p_factors():
        product = product * f
    assert P == to_elementary(product)


def test_elementary_conversion_roundtrip():
    rng = random.Random(3)
    lam, mu, nu = sym_vars()
    for _ in range(5):
        q = MultiPoly(("e1", "e2", "e3"),
                      {(rng.randrange(3), rng.randrange(3), rng.randrange(2)):
                       Fraction(rng.randrange(-5, 6) or 1) for _ in range(4)})
        assert to_elementary(from_elementary(q)) == q


def test_image_membership():
    e1, e2, e3 = e_vars()
    member, f, g = chi0_image_test(e1 ** 5)
    assert member and f.degree() == 5 and g.is_zero()
    member, f, g = chi0_image_test(build_P() * e2)
    assert member
    # exhibited decomposition reassembles the input in lam, mu, nu
    lam, mu, nu = sym_vars()
    t = lam + mu + nu
    rebuilt = from_elementary(f) + (t + lam) * (t + mu) * (t + nu) * from_elementary(g)
    assert rebuilt == from_elementary(build_P() * e2)
    member, _, _ = chi0_image_test(e2)
    assert not member


def test_chi_prime_kills_t_multiples():
    e1, e2, e3 = e_vars()
    assert chi_prime_D(e1 * e2).is_zero()
    assert chi_prime_D(e1 ** 3).is_zero()


def test_chi_prime_of_P_matches_brute_force(P):
    s = chi_prime_D(P)
    s2 = MultiPoly.variable("sigma2").with_vars(("sigma2", "sigma3"))
    s3 = MultiPoly.variable("sigma3").with_vars(("sigma2", "sigma3"))
    assert s == -27 * s3 ** 3 * (4 * s2 ** 3 + 27 * s3 ** 2)
    assert weighted_degrees(s) == {15}
    # independent expansion: the squared Vandermonde equals -4 e2^3 - 27 e3^2
    # modulo e1
    lam, mu, nu = sym_vars()
    disc = ((lam - mu) * (mu - nu) * (nu - lam)) ** 2
    de = to_elementary(disc).substitute({"e1": Fraction(0)})
    want = MultiPoly(("e2", "e3"), {(3, 0): Fraction(-4), (0, 2): Fraction(-27)})
    assert de.restrict_vars() == want.restrict_vars()


def test_chi_prime_is_multiplicative():
    rng = random.Random(11)
    e1, e2, e3 = e_vars()
    gens = [e1, e2, e3, e2 + e3, e1 * e1 - 3 * e2]
    for _ in range(6):
        p = gens[rng.randrange(len(gens))] * gens[rng.randrange(len(gens))]
        q = gens[rng.randrange(len(gens))]
        lhs = chi_prime_D(p * q)
        rhs = chi_prime_D(p) * chi_prime_D(q)
        assert lhs == rhs


def test_alpha_specialization(P):
    sigma = chi_prime_D(P)
    poly, roots, sq = specialize_alpha(sigma)
    assert poly.degree_in("alpha") == 12
    assert not poly.is_zero()
    # full rational root multiset; alpha = 1 really is a root:
    # 4*sigma2^3 + 27*sigma3^2 at (-3, -2) is -108 + 108 = 0
    assert [(str(r), m) for r, m in roots] == [
        ("-2", 2), ("-1", 3), ("-1/2", 2), ("0", 3), ("1", 2)]
    assert poly.evaluate({"alpha": Fraction(2)}) == -2332800
    assert poly.evaluate({"alpha": Fraction(1)}) == 0
    assert sq.degree_in("alpha") == 5
    # sigma3 image alone vanishes exactly at the excluded parameters 0, -1
    s3 = MultiPoly.variable("sigma3")
    p3, roots3, _ = specialize_alpha(s3.with_vars(("sigma2", "sigma3")))
    assert [(str(r), m) for r, m in roots3] == [("-1", 1), ("0", 1)]


def test_vanishing_table_and_nondegeneracy(P):
    rep = vanishing_table(P)
    assert rep["ok"]
    families = {row["family"]: row for row in rep["rows"]}
    assert families["sl"]["vanishing_factors"] == ["t-nu"]
    assert families["so"]["vanishing_factors"] == ["mu+2*lam"]
    assert families["sp"]["vanishing_factors"] == ["lam+2*mu"]
    for name in ("exc", "g2", "f4", "e6", "e7", "e8"):
        assert families[name]["vanishing_factors"] == ["3*nu-2*t"]
    # multiplicativity: P*Q vanishes too
    e1, e2, e3 = e_vars()
    assert vanishing_table(P * e2)["ok"]
    assert vanishing_table(P * (e3 + e2 * e1))["ok"]


def _rows_in_lam_mu_nu(p, families):
    """vanishing_table's rows, computed by substituting each triple into p
    written out in lam, mu, nu."""
    p_lmn = from_elementary(p)
    rows = []
    for fam in families:
        sub = dict(zip(LMN, fam.triple))
        vanishes = p_lmn.substitute(sub).is_zero()
        zero = [i for i, f in enumerate(p_factors()) if f.substitute(sub).is_zero()]
        rows.append({
            "family": fam.name,
            "triple": [str(t) for t in fam.triple],
            "input_vanishes": vanishes,
            "vanishing_factors": [FACTOR_LABELS[i] for i in zero],
            "expected_factor": FACTOR_LABELS[fam.vanishing_factor],
            "ok": vanishes and zero == [fam.vanishing_factor],
        })
    return rows


@pytest.mark.parametrize("spec", ["1", "e2", "e3", "e2^2-3*e1*e3", "e1*e2-e3"])
def test_vanishing_table_matches_the_lam_mu_nu_substitution(P, spec):
    families = load_family_table()
    Q = parse_Q(spec)
    for p in (P * Q, Q):  # Q alone does not vanish on every family
        assert vanishing_table(p, families)["rows"] == _rows_in_lam_mu_nu(p, families)
    assert vanishing_table(P * Q, families)["ok"]


def test_q_parsing_and_constraints():
    e1, e2, e3 = e_vars()
    assert parse_Q("e2") == e2
    assert parse_Q("e2^2") == e2 * e2
    assert parse_Q("e2*e3") == e2 * e3
    assert q_degree_and_t_check(parse_Q("1")) == (0, False)
    assert q_degree_and_t_check(parse_Q("e2"))[0] == 2
    assert q_degree_and_t_check(parse_Q("t*e2")) == (3, True)
    for bad in ("e2--e3", "1/0", "N", "e2^", "1.5", ""):
        with pytest.raises(ValueError):
            parse_Q(bad)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="e123tNx+-*/^ 0123456789", max_size=16))
def test_typed_polynomials_parse_or_raise_value_error(text):
    # the two documented outcomes of unreadable or too costly input
    for read in (parse_Q, read_names):
        try:
            read(text)
        except (ValueError, CostBoundError):
            pass


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=4))
def test_typed_sums_read_as_built(terms):
    text = "".join(f"{'-' if c < 0 else '+'}{abs(c)}*e2^{i}*e3^{j}" for c, i, j in terms)
    _, e2, e3 = e_vars()
    x2, x3 = MultiPoly.variable("e2"), MultiPoly.variable("e3")
    q = parse_Q(text)
    assert q.vars == E
    assert q == sum((c * e2 ** i * e3 ** j for c, i, j in terms), MultiPoly.zero(E))
    assert read_names(text) == sum(c * x2 ** i * x3 ** j for c, i, j in terms)


def test_certificates():
    b15 = build_D_element(4, q_spec="1")
    assert b15["d"] == 15 and b15["character_level"]["ok"]
    b17 = build_D_element(4, q_spec="e2")
    assert b17["d"] == 17
    assert b17["character_level"]["alpha_specialization"]["degree"] == 12 + 2
    with pytest.raises(ValueError):
        build_D_element(4, q_spec="t*e2")
    # realizable insertion degrees skip 16
    degrees = {build_D_element(4, q_spec=q)["d"]
               for q in ("1", "e2", "e3", "e2^2", "e2*e3", "e3^2")}
    assert sorted(degrees) == [15, 17, 18, 19, 20, 21]


def test_every_shipped_family_parses():
    fams = load_family_table()
    assert [f.name for f in fams] == ["sl", "so", "sp", "exc", "g2", "f4", "e6", "e7", "e8"]
    assert all(len(f.triple) == 3 for f in fams)
