"""Symmetric-polynomial character calculus and the nonvanishing certificate.

The ring is Q[lam, mu, nu]^{S3} = Q[e1, e2, e3], and every symmetric
polynomial here -- the cofactor Q, the degree-15 product P of fifteen linear
forms and P*Q -- is a MultiPoly in the elementary symmetric functions e1,
e2, e3 (with t = e1; e_i has degree i in lam, mu, nu).  lam, mu and nu
appear only in the fifteen linear factors of P and in the parameter triples
of the Lie families.  P is the pivot of the construction: for every
homogeneous symmetric Q not divisible by t,

  * P*Q lies in the distinguished subring Q[t] + (t+lam)(t+mu)(t+nu)*Q[t,e2,e3],
  * P*Q specializes to zero at the parameter triple of every simple Lie
    algebra family (one recorded linear factor vanishes identically), and
  * the image of P*Q under t -> 0, rewritten in sigma2 = e2, sigma3 = e3
    and specialized along sigma2 -> -1-alpha-alpha^2, sigma3 -> -alpha-alpha^2,
    is a nonzero polynomial in alpha with an explicit finite root set.

Together with the nonvanishing of the symmetrized-wheel values (the
asymptotics module) this yields, for even k and d = 15 + deg Q, the
certificate that the degree-(k+d) element built by inserting a preimage of
P*Q into the k-wheel is nonzero while all simple-Lie-algebra weight systems
kill it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from pathlib import Path

from . import asymptotics
from .scalars import CostBoundError, MultiPoly, rational_roots, squarefree_part

LMN = ("lam", "mu", "nu")
E = ("e1", "e2", "e3")
WEIGHT = {"e1": 1, "e2": 2, "e3": 3, "sigma2": 2, "sigma3": 3}


def sym_vars():
    return tuple(MultiPoly.variable(v).with_vars(LMN) for v in LMN)


def elementary():
    lam, mu, nu = sym_vars()
    return lam + mu + nu, lam * mu + lam * nu + mu * nu, lam * mu * nu


def to_elementary(p):
    """Rewrite a symmetric polynomial in e1, e2, e3 (exact, by repeatedly
    stripping the lex-leading term against the matching e-monomial).

    Raises ValueError if p is not S3-symmetric.  Each step subtracts a
    symmetric polynomial, so a non-symmetric remainder never reaches 0 and
    meets a lex-leading exponent that is not non-increasing, which a
    symmetric one never has.
    """
    e1, e2, e3 = elementary()
    out = MultiPoly.zero(E)
    work = p.with_vars(LMN)
    while not work.is_zero():
        expo, c = max(work.terms.items())
        if list(expo) != sorted(expo, reverse=True):
            raise ValueError("polynomial is not S3-symmetric")
        a, b, cc = expo
        mono_e = (a - b, b - cc, cc)
        out = out + MultiPoly(E, {mono_e: c})
        sub = MultiPoly.const(c, LMN)
        for base, power in zip((e1, e2, e3), mono_e):
            if power:
                sub = sub * base ** power
        work = work - sub
    return out


def weighted_degrees(p):
    """Degrees in lam, mu, nu of the terms of p, a polynomial in e1, e2, e3
    or in sigma2, sigma3 (e_i and sigma_i count i)."""
    weights = [WEIGHT[v] for v in p.vars]
    return {sum(w * a for w, a in zip(weights, e)) for e in p.terms}


# --------------------------------------------------------------- the product P


FACTOR_LABELS = (
    "t+lam", "t+mu", "t+nu",
    "t-lam", "t-mu", "t-nu",
    "lam+2*mu", "lam+2*nu", "mu+2*lam", "mu+2*nu", "nu+2*lam", "nu+2*mu",
    "3*lam-2*t", "3*mu-2*t", "3*nu-2*t",
)


def p_factors():
    """The fifteen linear factors of P in lam, mu, nu, read from
    FACTOR_LABELS with t = lam + mu + nu."""
    lam, mu, nu = sym_vars()
    names = {"lam": lam, "mu": mu, "nu": nu, "t": lam + mu + nu}
    return [_read_poly(label, lambda v: (names[v], 1)).with_vars(LMN)
            for label in FACTOR_LABELS]


def build_P(factors):
    """P in e1, e2, e3 from its ``p_factors()``: the product of its four
    S3-orbits of factors, each orbit's product rewritten in e1, e2, e3 on
    its own."""
    p = MultiPoly.const(1, E)
    for orbit in (factors[0:3], factors[3:6], factors[6:12], factors[12:15]):
        p = p * to_elementary(math.prod(orbit))
    return p


# ------------------------------------------------------------- image membership


def chi0_image_test(p, factors):
    """Membership of p in e1, e2, e3 in Q[t] + (t+lam)(t+mu)(t+nu) Q[t, e2, e3],
    with the decomposition when it exists.

    In elementary coordinates the second summand is M * Q[e1, e2, e3] with
    M the product of the first three of P's ``factors`` (from
    ``p_factors()``), 2 e1^3 + e1 e2 + e3, monic and linear in e3;
    dividing out M leaves a remainder in Q[e1, e2], and membership holds
    iff that remainder is free of e2.  Returns (member, f, g) with p = f(t)
    + M*g when member.
    """
    m = to_elementary(math.prod(factors[:3]))
    quotient = MultiPoly.zero(E)
    work = p
    for power in range(p.degree_in("e3"), 0, -1):
        part = work.coefficient_in("e3", power) * MultiPoly(E, {(0, 0, power - 1): 1})
        quotient = quotient + part
        work = work - part * m
    member = work.degree_in("e2") <= 0
    f = work if member else None
    return member, f, (quotient if member else None)


# ----------------------------------------------------------- sigma specialization


def chi_prime_D(p):
    """Impose t = e1 = 0 on p in e1, e2, e3 and rename e2, e3 to sigma2,
    sigma3; the result is a MultiPoly in ("sigma2", "sigma3")."""
    return MultiPoly(("sigma2", "sigma3"),
                     {(b, c): v for (a, b, c), v in p.with_vars(E).terms.items() if not a})


SIGMA2_ALPHA = "-1-alpha-alpha^2"
SIGMA3_ALPHA = "-alpha-alpha^2"


def specialize_alpha(s):
    """sigma2 -> SIGMA2_ALPHA, sigma3 -> SIGMA3_ALPHA; returns the
    polynomial, its rational roots with multiplicity, and the squarefree
    part (the explicit finite exclusion set)."""
    s2, s3 = (_read_poly(text, lambda v: (MultiPoly.variable(v), 1))
              for text in (SIGMA2_ALPHA, SIGMA3_ALPHA))
    poly = s.substitute({"sigma2": s2, "sigma3": s3}).restrict_vars()
    if poly.is_zero():
        return poly, [], None
    return poly, rational_roots(poly, "alpha"), squarefree_part(poly, "alpha")


# ------------------------------------------------------------- parameter table


class LieParamFamily:
    def __init__(self, name, triple, vanishing_factor):
        self.name = name
        self.triple = triple    # three MultiPolys in the family parameter (or constants)
        self.vanishing_factor = vanishing_factor    # index into FACTOR_LABELS


_FACTOR = re.compile(r"(?:([0-9]+)(?:/([0-9]+))?|([A-Za-z_][A-Za-z0-9_]*))(?:\^([0-9]+))?")
POLY_DEGREE_LIMIT = 20  # degree of a typed term; Q = e2^10 certifies in about 1 s
LITERAL_BITS_LIMIT = 1024  # bits of a typed term's literal factors; Q = 7^300 certifies in 0.3 s


def _read_poly(text, lookup):
    """Read a polynomial typed by a user: a sum of signed terms, a term a
    ``*``-product of factors, a factor a rational literal (``2``, ``10/3``)
    or an identifier, optionally raised to ``^k`` (so ``10/3^2`` is
    (10/3)^2).  ``lookup`` turns an identifier into a pair (polynomial,
    degree).  Spaces are ignored; any other input raises ValueError.  A
    term of degree above POLY_DEGREE_LIMIT, or whose literal factors take
    more than LITERAL_BITS_LIMIT bits, raises CostBoundError before it is
    expanded; a literal a/b raised to ^k counts k times the bits of a*b."""
    signed = text.replace(" ", "")
    if not signed.startswith(("+", "-")):
        signed = "+" + signed
    parts = re.split(r"([+-])", signed)[1:]
    total = MultiPoly.zero()
    for sign, term in zip(parts[::2], parts[1::2]):
        value = MultiPoly.const(-1 if sign == "-" else 1)
        degree = bits = 0
        for factor in term.split("*"):
            m = _FACTOR.fullmatch(factor)
            if not m:
                raise ValueError(f"cannot read {text!r}: bad factor {factor!r}")
            num, den, name, power = m.groups()
            if den is not None and not int(den):
                raise ValueError(f"zero denominator in {text!r}")
            power = int(power or 1)
            if name:
                base, weight = lookup(name)
                degree += weight * power
            else:
                base = Fraction(int(num), int(den or 1))
                bits += (base.numerator * base.denominator).bit_length() * power
            if degree > POLY_DEGREE_LIMIT:
                raise CostBoundError(f"{text!r} has a term of degree {degree}, "
                                     f"above the bound {POLY_DEGREE_LIMIT}")
            if bits > LITERAL_BITS_LIMIT:
                raise CostBoundError(f"{text!r} has a term whose literals take more than "
                                     f"{LITERAL_BITS_LIMIT} bits")
            value = value * base ** power
        total = total + value
    return total


DEFAULT_TABLE = Path(__file__).parent / "data" / "lie_families.txt"


def _read_family_row(line):
    """One table row: name; lam; mu; nu; factor index."""
    fields = [x.strip() for x in line.split(";")]
    if len(fields) != 5 or not re.fullmatch(r"[+-]?[0-9]+", fields[4]):
        raise ValueError(f"{line!r} is not 5 ';'-separated fields "
                         "name; lam; mu; nu; integer factor index")
    name, lam, mu, nu, factor = fields
    triple = tuple(_read_poly(x, lambda v: (MultiPoly.variable(v), 1))
                   for x in (lam, mu, nu))
    if len({v for p in triple for v in p.vars if p.degree_in(v) > 0}) > 1:
        raise ValueError(f"family {name} uses more than one parameter")
    index = int(factor)
    if index not in range(len(FACTOR_LABELS)):
        raise ValueError(f"family {name}: factor index {index} is not in "
                         f"0..{len(FACTOR_LABELS) - 1}")
    return LieParamFamily(name, triple, index)


def load_family_table(path):
    if path == "":
        raise ValueError("the family table path is empty")
    path = DEFAULT_TABLE if path is None else Path(path)
    families = []
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            families.append(_read_family_row(line))
        except (ValueError, CostBoundError) as exc:
            raise type(exc)(f"{path}:{number}: {exc}") from None
    if not families:
        raise ValueError(f"{path}: the table has no family rows")
    return families


def vanishing_table(p, families, factors):
    """Substitute every family's parameter triple into a polynomial in e1,
    e2, e3 carrying the factor structure of P and report which of P's
    ``factors``, read from ``p_factors()``, kills it.

    The input must vanish identically for every family (a hard failure
    otherwise); the recorded factor of P must be identically zero and every
    other factor must be nonzero (nondegeneracy of the table).
    """
    report = []
    ok = True
    for fam in families:
        a, b, c = fam.triple
        p_zero = p.substitute({"e1": a + b + c, "e2": a * b + a * c + b * c,
                               "e3": a * b * c}).is_zero()
        factor_vals = [f.substitute(dict(zip(LMN, fam.triple))) for f in factors]
        zero_idx = [i for i, v in enumerate(factor_vals) if v.is_zero()]
        row_ok = (p_zero and zero_idx == [fam.vanishing_factor])
        ok = ok and row_ok
        report.append({
            "family": fam.name,
            "triple": [str(t) for t in fam.triple],
            "input_vanishes": p_zero,
            "vanishing_factors": [FACTOR_LABELS[i] for i in zero_idx],
            "expected_factor": FACTOR_LABELS[fam.vanishing_factor],
            "ok": row_ok,
        })
    return {"ok": ok, "rows": report}


# -------------------------------------------------------------- Q choices and d


def parse_Q(spec):
    """Q in e1, e2, e3 from a short spec: '1', 'e2', 'e3', 'e2^2', 'e2*e3',
    ... (sums of products of e1, e2, e3 and rationals; 't' = e1 is accepted
    for rejection tests).  e_i counts i toward the degree bound.  Any other
    name raises ValueError."""
    def lookup(name):
        v = "e1" if name == "t" else name
        if v not in E:
            raise ValueError(f"unknown name {name!r} in Q (use e1, e2, e3, t)")
        return MultiPoly.variable(v).with_vars(E), WEIGHT[v]

    return _read_poly(spec, lookup).with_vars(E)


def q_degree_and_t_check(Q):
    """(degree in lam, mu, nu, divisible_by_t) for a homogeneous Q in e1, e2, e3."""
    degs = weighted_degrees(Q)
    if len(degs) > 1:
        raise ValueError("Q must be homogeneous")
    deg = degs.pop() if degs else 0
    return deg, Q.coefficient_in("e1", 0).is_zero()


# ---------------------------------------------------------------- certificate


def build_D_element(k, q_spec, families, full):
    """Certificate bundle for the degree-(k+d) element built from Q and the
    k-wheel, d = 15 + deg Q.

    The character-level part is always produced: membership of P*Q in the
    distinguished subring, the nonzero sigma-image with its alpha
    specialization and explicit root set, and the per-family vanishing
    table.  ``full`` runs asymptotics.find_n0, once Q has been accepted, and
    attaches its report as the wheel side; for k = 2 the leading
    coefficient vanishes and the bundle records the honest caveat instead
    of a certificate.
    """
    if k % 2 or k < 2:
        raise ValueError("k must be even and >= 2")
    Q = parse_Q(q_spec)
    if Q.is_zero():  # zero would pass the degree check as degree 0
        raise ValueError("Q must be nonzero")
    deg_q, divisible = q_degree_and_t_check(Q)
    if divisible:
        raise ValueError("Q must not be divisible by t")
    d = 15 + deg_q
    sun_report = asymptotics.find_n0(k) if full else None

    factors = p_factors()
    P = build_P(factors)
    PQ = P * Q
    member, f_part, g_part = chi0_image_test(PQ, factors)
    sigma = chi_prime_D(PQ)
    sigma_degs = weighted_degrees(sigma)
    poly, roots, sq = specialize_alpha(sigma)
    table = vanishing_table(PQ, families, factors)

    character_ok = (member and not sigma.is_zero() and not poly.is_zero()
                    and table["ok"] and len(sigma_degs) <= 1)
    bundle = {
        "kind": "nonvanishing-certificate",
        "k": k,
        "q": q_spec,
        "d": d,
        "degree": k + d,
        "legs": k,
        "character_level": {
            "P_degree": max(weighted_degrees(P)),
            "PQ_degree": max(weighted_degrees(PQ)),
            "PQ_elementary": str(PQ),
            "PQ_in_image": member,
            "image_decomposition": {
                "t_part": str(f_part),
                "cofactor_of_t+lam_t+mu_t+nu": str(g_part),
            } if member else None,
            "sigma_image": str(sigma),
            "sigma_weighted_degree": max(sigma_degs, default=-1),
            "alpha_specialization": {
                "poly": str(poly),
                "degree": poly.degree_in("alpha"),
                "rational_roots": [[str(r), m] for r, m in roots],
                "squarefree_part": str(sq),
                "substitution": {"sigma2": SIGMA2_ALPHA, "sigma3": SIGMA3_ALPHA},
            },
            "vanishing_table": table,
            "ok": character_ok,
        },
    }
    if sun_report is not None:
        bundle["wheel_side"] = sun_report
        certified = character_ok and bool(sun_report.get("certified"))
    else:
        bundle["wheel_side"] = {
            "note": "leading-coefficient route: nonzero for k >= 4 by the "
                    "closed form; full value polynomial not attached"}
        certified = character_ok and k >= 4
    if k == 2:
        bundle["caveat"] = (
            "k = 2: the n^2 leading coefficient vanishes identically, so the "
            "wheel side is not certified by this route; the degree-2 case "
            "rests on the cited external result")
        certified = False
    bundle["certified"] = certified
    excluded = {"0", "-1"}
    excluded.update(r for r, _ in (bundle["character_level"]["alpha_specialization"]["rational_roots"]))
    if sun_report and sun_report.get("excluded_rational_alpha"):
        excluded.update(r for r, _ in sun_report["excluded_rational_alpha"])
    bundle["excluded_alpha_values"] = sorted(excluded, key=lambda s: Fraction(s))
    return bundle

