"""Symmetric-polynomial character calculus and the certificate."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    IMAGE_MODULUS,
    from_elementary,
    hand_p_factors,
    ratio_character,
    root_system_invariants,
    split_casimir_minimal_polynomial,
    vogel_invariants,
)
from weightsys.characters import (
    E,
    FACTOR_LABELS,
    LMN,
    SIGMA2_ALPHA,
    SIGMA3_ALPHA,
    _read_poly,
    build_D_element,
    build_P,
    chi0_image_test,
    chi_prime_D,
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
from weightsys.diagrams import Diagram, InsertionPiece, insert_at_vertex, wheel
from weightsys.scalars import CostBoundError, MultiPoly, rational_roots
from weightsys.superalgebras import d21, sl2


def e_vars():
    return tuple(MultiPoly.variable(v).with_vars(E) for v in E)


def read_names(text):
    return _read_poly(text, lambda name: (MultiPoly.variable(name), 1))


@pytest.fixture(scope="module")
def P():
    return build_P(p_factors())


def test_P_degree_and_symmetry(P):
    assert P.vars == E and weighted_degrees(P) == {15}
    expanded = from_elementary(P)
    assert max(map(sum, expanded.terms)) == 15
    assert to_elementary(expanded) == P
    assert len(p_factors()) == len(FACTOR_LABELS) == 15


def test_P_at_unit_point(P):
    # lam = mu = nu = 1: t=3; prod(t+a)=64, prod(t-a)=8, prod(a+2b)=729, prod(3a-2t)=-27
    assert P.substitute({"e1": 3, "e2": 3, "e3": 1}).constant_value() == -10077696


def test_P_equals_the_converted_product_of_its_factors(P):
    product = MultiPoly.const(1, LMN)
    for f in p_factors():
        product = product * f
    assert P == to_elementary(product)


def test_p_factors_are_their_labels():
    hand = hand_p_factors()
    assert len(p_factors()) == len(hand) == len(FACTOR_LABELS)
    for label, built, want in zip(FACTOR_LABELS, p_factors(), hand):
        assert built == want and built.vars == LMN, label


def test_the_image_test_divides_by_the_product_of_the_first_three_factors():
    e1, e2, e3 = e_vars()
    assert to_elementary(math.prod(p_factors()[:3])) == IMAGE_MODULUS
    # M * q decomposes with no t part and cofactor q
    for q in (MultiPoly.const(1, E), e2, e1 * e3 + 3 * e2 ** 2):
        member, f, g = chi0_image_test(IMAGE_MODULUS * q, p_factors())
        assert member and f.is_zero() and g == q


def test_to_elementary_rejects_a_non_symmetric_polynomial():
    lam, mu, nu = sym_vars()
    for p in (lam * mu ** 2, lam - mu, lam * mu * nu + lam ** 2):
        with pytest.raises(ValueError, match="not S3-symmetric"):
            to_elementary(p)


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
    member, f, g = chi0_image_test(e1 ** 5, p_factors())
    assert member and max(map(sum, f.terms)) == 5 and g.is_zero()
    member, f, g = chi0_image_test(build_P(p_factors()) * e2, p_factors())
    assert member
    # exhibited decomposition reassembles the input in lam, mu, nu
    lam, mu, nu = sym_vars()
    t = lam + mu + nu
    rebuilt = from_elementary(f) + (t + lam) * (t + mu) * (t + nu) * from_elementary(g)
    assert rebuilt == from_elementary(build_P(p_factors()) * e2)
    member, _, _ = chi0_image_test(e2, p_factors())
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
    assert poly.substitute({"alpha": Fraction(2)}).constant_value() == -2332800
    assert poly.substitute({"alpha": Fraction(1)}).is_zero()
    assert sq.degree_in("alpha") == 5
    # sigma3 image alone vanishes exactly at the excluded parameters 0, -1
    s3 = MultiPoly.variable("sigma3")
    p3, roots3, _ = specialize_alpha(s3.with_vars(("sigma2", "sigma3")))
    assert [(str(r), m) for r, m in roots3] == [("-1", 1), ("0", 1)]


SPLIT_CASIMIR_ALPHAS = ("2", "3", "1/2", "5/7", "-2/3")


def sigma_quintic(sigma2, sigma3, alpha):
    """x^2 (x^3 + 4 s2 x + 8 s3), s2 and s3 read from the texts at alpha."""
    x = MultiPoly.variable("x")
    s2, s3 = (read_names(text).substitute({"alpha": alpha}) for text in (sigma2, sigma3))
    return x ** 2 * (x ** 3 + 4 * s2 * x + 8 * s3)


@pytest.fixture(scope="module")
def split_casimirs():
    return {Fraction(a): split_casimir_minimal_polynomial(d21(Fraction(a)))
            for a in SPLIT_CASIMIR_ALPHAS}


def test_the_sigma_substitution_is_read_off_the_split_casimir(split_casimirs):
    # both coefficients have degree 2 in alpha, so five alpha pin them
    for alpha, poly in split_casimirs.items():
        assert poly == sigma_quintic(SIGMA2_ALPHA, SIGMA3_ALPHA, alpha), alpha
        assert poly != sigma_quintic("-1-alpha+alpha^2", SIGMA3_ALPHA, alpha), alpha


def test_the_split_casimir_of_sl2_has_the_sl_rows_parameters():
    # the roots are -2t, -t and -lam of the sl row at N = 2, (-2, 2, 2)
    sl, = (f for f in load_family_table(None) if f.name == "sl")
    lam, mu, nu = (p.with_vars(("N",)).substitute({"N": 2}).constant_value()
                   for p in sl.triple)
    t = lam + mu + nu
    roots = rational_roots(split_casimir_minimal_polynomial(sl2()), "x")
    assert roots == [(r, 1) for r in sorted({-2 * t, -t, -lam})] == [(-4, 1), (-2, 1), (2, 1)]


# a connected piece of insertion degree 3 with legs 7, 8, 9 in cyclic order
X3_PIECE = "vertices 7 3\n" + "".join(
    f"edge {a} {b}\n" for a, b in ((0, 3), (1, 6), (2, 12), (4, 9), (5, 15), (7, 10), (8, 18),
                                   (11, 21), (13, 16), (14, 22), (17, 19), (20, 23))) \
    + "skeleton none\n"


def test_sigma3_substitution_is_an_evaluated_character():
    # inserted at a vertex of the 4-wheel, the piece multiplies the Verma
    # value on symbolic D(2,1,alpha) by 12 times the image of sigma3
    piece = InsertionPiece(Diagram.from_text(X3_PIECE), (7, 8, 9))
    (inserted, _), = list(insert_at_vertex(wheel(4), 0, piece))
    assert inserted.degree == 4 + 3
    sigma3 = MultiPoly(("sigma2", "sigma3"), {(0, 1): 1})
    image, _, _ = specialize_alpha(sigma3)
    ratio, _ = ratio_character(piece, [(wheel(4), d21(), "verma", (3, 1, 1))])
    assert ratio == 12 * image and str(ratio) == "-12*alpha^2 - 12*alpha"
    ratio, _ = ratio_character(piece, [(wheel(4), sl2(), "verma", (2,))])
    assert ratio == -24


def test_vanishing_table_and_nondegeneracy(P):
    families = load_family_table(None)
    rep = vanishing_table(P, families, p_factors())
    assert rep["ok"]
    rows = {row["family"]: row for row in rep["rows"]}
    assert rows["sl"]["vanishing_factors"] == ["t-nu"]
    assert rows["so"]["vanishing_factors"] == ["mu+2*lam"]
    assert rows["sp"]["vanishing_factors"] == ["lam+2*mu"]
    for name in ("exc", "g2", "f4", "e6", "e7", "e8"):
        assert rows[name]["vanishing_factors"] == ["3*nu-2*t"]
    # multiplicativity: P*Q vanishes too
    e1, e2, e3 = e_vars()
    assert vanishing_table(P * e2, families, p_factors())["ok"]
    assert vanishing_table(P * (e3 + e2 * e1), families, p_factors())["ok"]


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
    families = load_family_table(None)
    Q = parse_Q(spec)
    for p in (P * Q, Q):  # Q alone does not vanish on every family
        assert vanishing_table(p, families, p_factors())["rows"] == _rows_in_lam_mu_nu(p, families)
    assert vanishing_table(P * Q, families, p_factors())["ok"]


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
    families = load_family_table(None)
    b15 = build_D_element(4, "1", families, False)
    assert b15["d"] == 15 and b15["character_level"]["ok"]
    b17 = build_D_element(4, "e2", families, False)
    assert b17["d"] == 17
    assert b17["character_level"]["alpha_specialization"]["degree"] == 12 + 2
    with pytest.raises(ValueError):
        build_D_element(4, "t*e2", families, False)
    # realizable insertion degrees skip 16
    degrees = {build_D_element(4, q, families, False)["d"]
               for q in ("1", "e2", "e3", "e2^2", "e2*e3", "e3^2")}
    assert sorted(degrees) == [15, 17, 18, 19, 20, 21]


def test_every_shipped_family_parses():
    fams = load_family_table(None)
    assert [f.name for f in fams] == ["sl", "so", "sp", "exc", "g2", "f4", "e6", "e7", "e8"]
    assert all(len(f.triple) == 3 for f in fams)


# the simple Lie algebras each family's row names, at sampled values of its
# parameter: sl(N) is A_{N-1}, so(N) is B_{(N-1)/2} or D_{N/2}, sp(2N) is
# C_N, and the exceptional line (-2, M, 2M-4) passes through g2, f4, e6, e7
# and e8 at M = 10/3, 5, 6, 8 and 12 (Landsberg and Manivel, Adv. Math.
# 171, 2002)
ROOT_SYSTEMS = {
    "sl": [(N, "A", N - 1) for N in range(2, 9)],
    "so": [(N, "DB"[N % 2], N // 2) for N in range(7, 15)],
    "sp": [(N, "C", N) for N in range(2, 8)],
    "exc": [(Fraction(10, 3), "G", 2), (5, "F", 4), (6, "E", 6), (8, "E", 7), (12, "E", 8)],
    "g2": [(None, "G", 2)], "f4": [(None, "F", 4)], "e6": [(None, "E", 6)],
    "e7": [(None, "E", 7)], "e8": [(None, "E", 8)],
}


def _matches_its_root_systems(family):
    for value, kind, rank in ROOT_SYSTEMS[family.name]:
        triple = [p.substitute({v: Fraction(value) for v in p.vars}).constant_value()
                  for p in family.triple]
        if vogel_invariants(triple) != root_system_invariants(kind, rank):
            return False
    return True


def test_the_family_table_matches_root_systems(tmp_path):
    # t = lam + mu + nu is h^vee and (lam-2t)(mu-2t)(nu-2t)/(lam mu nu) is
    # dim g on every sampled algebra of every shipped row
    assert all(_matches_its_root_systems(f) for f in load_family_table(None))
    # two wrong rows still vanish on their factors, since t - nu = lam + mu
    # is 0 whatever nu is and 3*nu - 2*t = 42 - 42, so the vanishing table
    # passes them; the root systems reject both
    wrong = tmp_path / "wrong.txt"
    wrong.write_text("sl; -2; 2; N+1; 5\ne7; -2; 9; 14; 14\n")
    families = load_family_table(wrong)
    assert vanishing_table(build_P(p_factors()), families, p_factors())["ok"]
    assert not any(map(_matches_its_root_systems, families))
