"""Output checkers for the benchmark.

Every checker compares a result of the program with a computation made here,
apart from the program, or with a property the method must have.  None of
them compares against a stored copy of earlier output.  Each returns a list
of error strings; an empty list means the result passed.

Polynomials are plain dicts {exponent tuple: Fraction} over an explicit
tuple of variable names, parsed from the program's printed form or from the
term lists the benchmark's child processes emit.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

# The degree-15 product P of the paper: fifteen linear forms in
# lam, mu, nu and t = lam + mu + nu.
P_FACTORS = (
    "t+lam", "t+mu", "t+nu",
    "t-lam", "t-mu", "t-nu",
    "lam+2*mu", "lam+2*nu", "mu+2*lam", "mu+2*nu", "nu+2*lam", "nu+2*mu",
    "3*lam-2*t", "3*mu-2*t", "3*nu-2*t",
)

# sigma2, sigma3 as polynomials in alpha (ascending coefficient lists)
SIGMA2_ALPHA = [Fraction(-1), Fraction(-1), Fraction(-1)]
SIGMA3_ALPHA = [Fraction(0), Fraction(-1), Fraction(-1)]

# dim of the degree-m chord-diagram space modulo 4T, m = 1..6 (Bar-Natan 1995)
DIM_A = (1, 2, 3, 6, 10, 19)


# ----------------------------------------------------------------- polynomials


def parse_poly(text, vars):
    """Parse the program's printed polynomial ("3/2*n^2*alpha - n + 4")."""
    text = text.replace(" ", "")
    out = {}
    if text == "0":
        return out
    for chunk in re.findall(r"[+-]?[^+-]+", text):
        sign = -1 if chunk[0] == "-" else 1
        chunk = chunk.lstrip("+-")
        coeff = Fraction(sign)
        expo = [0] * len(vars)
        for factor in chunk.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            if name not in vars:
                raise ValueError(f"unknown variable {name!r} in {text!r}")
            expo[vars.index(name)] += int(power) if power else 1
        key = tuple(expo)
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


def poly_from_terms(payload, vars):
    """A child's {"vars": [...], "terms": [[expo, "p/q"], ...]} on ``vars``."""
    src = payload["vars"]
    out = {}
    for expo, coeff in payload["terms"]:
        key = [0] * len(vars)
        for name, power in zip(src, expo):
            if power:
                if name not in vars:
                    raise ValueError(f"unexpected variable {name!r}")
                key[vars.index(name)] = power
        out[tuple(key)] = out.get(tuple(key), Fraction(0)) + Fraction(coeff)
    return {k: v for k, v in out.items() if v}


def degree_in(poly, idx):
    return max((e[idx] for e in poly), default=-1)


def coefficient_in(poly, idx, power):
    """Coefficient of var[idx]^power, with that variable's exponent zeroed."""
    out = {}
    for e, c in poly.items():
        if e[idx] == power:
            key = e[:idx] + (0,) + e[idx + 1:]
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def substitute(poly, idx, value):
    """Set var[idx] = value (a Fraction)."""
    out = {}
    for e, c in poly.items():
        key = e[:idx] + (0,) + e[idx + 1:]
        out[key] = out.get(key, Fraction(0)) + c * Fraction(value) ** e[idx]
    return {k: v for k, v in out.items() if v}


def univariate(poly, idx):
    """Ascending coefficient list in var[idx]; other exponents must be 0."""
    deg = degree_in(poly, idx)
    coeffs = [Fraction(0)] * (deg + 1)
    for e, c in poly.items():
        if any(p for i, p in enumerate(e) if i != idx):
            raise ValueError("polynomial is not univariate")
        coeffs[e[idx]] += c
    return coeffs


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def u_add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def u_scale(a, c):
    return _trim([Fraction(c) * x for x in a])


def u_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def u_pow(a, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = u_mul(out, a)
    return out


def u_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _divide_root(coeffs, r):
    """Synthetic division by (x - r); returns (quotient, remainder)."""
    out = []
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
        out.append(acc)
    rem = out.pop()
    return list(reversed(out)), rem


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_roots_of(coeffs):
    """All rational roots with multiplicity, by the rational root theorem."""
    coeffs = _trim(coeffs)
    roots = {}
    zeros = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zeros += 1
    if zeros:
        roots[Fraction(0)] = zeros
    if len(coeffs) <= 1:
        return roots
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            for r in (Fraction(p, q), Fraction(-p, q)):
                while len(coeffs) > 1:
                    quo, rem = _divide_root(coeffs, r)
                    if rem:
                        break
                    coeffs = quo
                    roots[r] = roots.get(r, 0) + 1
    return roots


# ---------------------------------------------------- leading coefficients


def top_d21(k):
    """2 * sum over positive roots of (-1)^parity <lambda0, beta>^k for
    D(2,1,alpha) at lambda0 = (3,1,1), as a coefficient list in alpha.

    The dual form on H* is diag((1+alpha)/2, -1/2, -alpha/2); the even
    positive roots are 2e1, 2e2, 2e3 and the odd ones e1 +- e2 +- e3.
    """
    even = ([Fraction(3), Fraction(3)], [Fraction(-1)], [Fraction(0), Fraction(-1)])
    total = []
    for lin in even:
        total = u_add(total, u_pow(lin, k))
    for s2, s3 in itertools.product((1, -1), repeat=2):
        lin = [Fraction(3 - s2, 2), Fraction(3 - s3, 2)]
        total = u_add(total, u_scale(u_pow(lin, k), -1))
    return u_scale(total, 2)


def closed_form(k):
    """Leading coefficient at alpha = 1: 2 (6^k + 2 - 4^k - 2*3^k - 2^k)."""
    return 2 * (6 ** k + 2 - 4 ** k - 2 * 3 ** k - 2 ** k)


# ----------------------------------------------------------------- checkers


def check_leading(report, kmax):
    """``leading --k kmax`` in alpha = 1 mode: every row is the closed form,
    zero at k = 2 and positive beyond."""
    errs = []
    rows = report.get("rows", [])
    if [r.get("k") for r in rows] != list(range(2, kmax + 1, 2)):
        errs.append(f"leading rows cover k={[r.get('k') for r in rows]}")
    for row in rows:
        k = row.get("k")
        want = closed_form(k)
        if Fraction(row["computed"]) != want or Fraction(row["closed_form"]) != want:
            errs.append(f"leading k={k}: {row['computed']} != {want}")
        if (want == 0) != (k == 2) or want < 0:
            errs.append(f"leading k={k}: sign of {want} is wrong")
    if report.get("status") != "pass":
        errs.append("leading status is not pass")
    return errs


def check_leading_symbolic(report, kmax):
    """Symbolic rows equal the root-system sum computed here, in alpha."""
    errs = []
    rows = report.get("rows", [])
    if [r.get("k") for r in rows] != list(range(2, kmax + 1, 2)):
        errs.append("symbolic leading rows cover the wrong k")
    for row in rows:
        want = top_d21(row["k"])
        text = row["computed"]
        got = [] if text.startswith("0") else _trim(univariate(parse_poly(text, ("alpha",)), 0))
        if got != want:
            errs.append(f"symbolic leading k={row['k']}: {text}")
    return errs


def check_wheel_value(poly, vars, k, top, symmetrized):
    """Verma value of a k-legged wheel on the circle: deg_n <= k and the
    n^k coefficient equals top (times k! for the symmetrized wheel).
    ``top`` is a coefficient list in alpha, or a number when alpha is absent."""
    errs = []
    n = vars.index("n")
    if degree_in(poly, n) > k:
        errs.append(f"deg_n {degree_in(poly, n)} exceeds {k} skeleton vertices")
    lead = coefficient_in(poly, n, k)
    scale = math.factorial(k) if symmetrized else 1
    if "alpha" in vars:
        got = _trim(univariate(lead, vars.index("alpha"))) if lead else []
        want = u_scale(top, scale)
    else:
        got = lead.get((0,) * len(vars), Fraction(0))
        want = scale * Fraction(top)
    if got != want:
        errs.append(f"n^{k} coefficient {got} != {want}")
    return errs


def check_zero(poly, what):
    return [] if not poly else [f"{what} is not zero: {len(poly)} terms"]


def check_substitution(symbolic, numeric, alpha):
    """A symbolic (n, alpha) value at alpha equals the numeric-alpha value."""
    at = substitute(symbolic, 1, alpha)
    at = {(e[0],): c for e, c in at.items()}
    return [] if at == numeric else [f"symbolic value at alpha={alpha} != numeric value"]


def check_dimensions(dims):
    want = list(DIM_A[:len(dims)])
    return [] if list(dims) == want else [f"dimensions {list(dims)} != {want}"]


def check_agreement(verma, statesum, what):
    """Verma value (a polynomial in n alone) at n = 1 equals the state sum."""
    at1 = sum(verma.values(), Fraction(0))
    return [] if at1 == statesum else [f"{what}: Verma(n=1) {at1} != state sum {statesum}"]


def brute_force_trace(chords, basis_dim, casimir, bracket):
    """(1/dim) tr of the chord diagram in the adjoint of an even Lie algebra,
    summing over every assignment of Casimir terms to chords.

    ``casimir`` is a list of (x, y, w); ``bracket[x][j]`` the column
    {i: c} of ad(x) on basis vector j.  Each chord (p, q) puts x at p and y
    at q; the operator at position 0 is leftmost in the product.  Entries
    and weights are scaled to integers, and the scale divided out at the end.
    """
    den_ad = math.lcm(*(Fraction(c).denominator for row in bracket for col in row
                        for c in col.values()))
    den_w = math.lcm(*(Fraction(w).denominator for _, _, w in casimir))
    ad = []
    for x in range(basis_dim):
        m = [[0] * basis_dim for _ in range(basis_dim)]
        for j in range(basis_dim):
            for i, c in bracket[x][j].items():
                m[i][j] = int(Fraction(c) * den_ad)
        ad.append(m)
    terms = [(x, y, int(Fraction(w) * den_w)) for x, y, w in casimir]
    npos = 2 * len(chords)
    rng = range(basis_dim)
    total = 0
    for choice in itertools.product(terms, repeat=len(chords)):
        ops = [None] * npos
        weight = 1
        for (p, q), (x, y, w) in zip(chords, choice):
            ops[p], ops[q] = x, y
            weight *= w
        prod = ad[ops[0]]
        for x in ops[1:]:
            m = ad[x]
            prod = [[sum(prod[i][k] * m[k][j] for k in rng) for j in rng] for i in rng]
        total += weight * sum(prod[i][i] for i in rng)
    return Fraction(total, den_w ** len(chords) * den_ad ** npos * basis_dim)


def check_vanishing_rows(rows):
    """Every parameter-table row makes the product of the fifteen factors of P
    vanish, re-evaluated here with Fractions.  A numeric row names exactly
    the factors that vanish; a row with a parameter is checked at three
    sample values, where its named factor must vanish every time."""
    errs = []
    for row in rows:
        triple = row["triple"]
        params = sorted({m for t in triple for m in re.findall(r"[A-Za-z]+", t)})
        if len(params) > 1:
            errs.append(f"{row['family']}: more than one parameter")
            continue
        named = list(row["vanishing_factors"])
        for val in ([Fraction(7), Fraction(11, 3), Fraction(-5, 2)] if params else [0]):
            env = {}
            for name, text in zip(("lam", "mu", "nu"), triple):
                poly = parse_poly(text, tuple(params) or ("_",))
                env[name] = sum((c * Fraction(val) ** e[0] for e, c in poly.items()),
                                Fraction(0))
            env["t"] = env["lam"] + env["mu"] + env["nu"]
            values = [_eval_linear(f, env) for f in P_FACTORS]
            zero = [f for f, v in zip(P_FACTORS, values) if v == 0]
            if math.prod(values) != 0:
                errs.append(f"{row['family']}: product of P's factors is {math.prod(values)}")
            elif not named or not set(named) <= set(zero) or (not params and zero != named):
                errs.append(f"{row['family']}: named factors {named}, vanishing {zero}")
    return errs


def _eval_linear(form, env):
    total = Fraction(0)
    for chunk in re.findall(r"[+-]?[^+-]+", form):
        sign = -1 if chunk[0] == "-" else 1
        coeff, _, name = chunk.lstrip("+-").rpartition("*")
        total += sign * Fraction(coeff or 1) * env[name]
    return total


def check_roots(coeffs, claimed, what):
    """``claimed`` [[root, multiplicity], ...] is the full rational root set."""
    want = rational_roots_of(coeffs)
    got = {Fraction(r): m for r, m in claimed}
    if got != want:
        return [f"{what}: rational roots {sorted(got.items())} != {sorted(want.items())}"]
    return []


def check_certificate(bundle, k, q_degree, validator, full):
    """A certificate bundle from ``certify``: schema, certified flag, the
    alpha specialization of the sigma image, its root set, the vanishing
    table and, in full mode, the wheel side."""
    errs = [f"schema: {e.message}" for e in validator.iter_errors(bundle)]
    if errs:
        return errs
    if bundle["k"] != k or bundle["d"] != 15 + q_degree or bundle["degree"] != k + 15 + q_degree:
        errs.append("k, d or degree is wrong")
    if k == 2:
        if bundle["certified"] or "caveat" not in bundle:
            errs.append("k = 2 must be uncertified with a caveat")
    elif not bundle["certified"]:
        errs.append(f"k = {k} is not certified")
    cl = bundle["character_level"]
    spec = cl["alpha_specialization"]
    sigma = parse_poly(cl["sigma_image"], ("sigma2", "sigma3"))
    want = []
    for (a, b), c in sigma.items():
        want = u_add(want, u_scale(u_mul(u_pow(SIGMA2_ALPHA, a), u_pow(SIGMA3_ALPHA, b)), c))
    got = _trim(univariate(parse_poly(spec["poly"], ("alpha",)), 0))
    if not want or got != want:
        errs.append("alpha specialization of the sigma image is wrong")
    errs += check_roots(got, spec["rational_roots"], "alpha specialization")
    errs += check_vanishing_rows(cl["vanishing_table"]["rows"])
    if full:
        ws = bundle["wheel_side"]
        top = _trim(univariate(parse_poly(ws["top_coefficient"], ("alpha",)), 0))
        if top != top_d21(k):
            errs.append(f"wheel side top coefficient {ws['top_coefficient']} is wrong")
        if k == 2:
            if ws.get("certified") is not False:
                errs.append("k = 2 wheel side must not be certified")
        else:
            at = _trim(univariate(parse_poly(ws["value_at_n0"], ("alpha",)), 0))
            if not at:
                errs.append("value at n0 is zero")
            errs += check_roots(at, ws["excluded_rational_alpha"], "value at n0")
    return errs


def check_validate(report):
    """``validate``: every row passes and every algebra and check is there."""
    errs = []
    rows = report.get("rows", [])
    algebras = {r["algebra"] for r in rows}
    for name in ("sl2", "d21_symbolic", "d21_alpha_2", "parameter-table"):
        if name not in algebras:
            errs.append(f"validate has no rows for {name}")
    bad = [f"{r['algebra']}/{r['check']}" for r in rows if not r["ok"]]
    if bad or report.get("status") != "pass":
        errs.append(f"validate failures: {bad}")
    return errs


def check_usage_error(returncode, stderr):
    """A malformed input must exit 2 with a one-line error."""
    lines = [ln for ln in stderr.splitlines() if ln.strip()]
    return returncode == 2 and len(lines) == 1
