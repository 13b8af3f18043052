"""Weight-system evaluation: state sums and Verma highest-weight values.

A skeleton diagram is first STU-reduced to chord diagrams; a chord diagram
is then contracted by a right-to-left sweep along the circle.  Each chord
carries one Casimir term (x, y, w): y acts at the later endpoint, x is held
pending until the earlier endpoint.  The sweep keeps a map from pending
assignments to module states, merging branches with equal pendings -- this
is exact sparse tensor contraction along a path, and the rotation of the
cut is chosen to keep the number of simultaneously open chords small.

Koszul signs: permuting the Casimir factors into circle order costs exactly
one factor of -1 per *crossing* pair of chords whose terms are both odd
(nested and disjoint pairs contribute nothing because the two legs of one
Casimir term always have equal parity).  The sign is applied when a chord
opens, against the already-open odd chords it crosses.

Both methods share one path.  A carrier is the sweep's whole interface: it
owns its scalar ring and the Casimir ``terms`` in it, and implements
``start``, ``apply`` and ``extract(state, n_chords)``, which turns the final
state of a sweep over n_chords chords into the chord diagram's scalar.
``_chord_sum`` sums those scalars over ``chord_reduce``; each carrier
memoizes them in ``carrier.values``, keyed by canonical chord diagram, and
one carrier per (algebra, weight) or algebra is kept for the process.  The
two carriers are independent:

- the Verma module of highest weight n*lambda0: PBW monomial states with
  coefficients in Q[n] or Q[n, alpha], held as ``_IntPoly`` values (int
  numerators over one int denominator, each monomial packed into one int),
  so the sweep does no Fraction arithmetic; ``extract`` converts the final
  coefficient to a MultiPoly, the type every caller sees;
- the adjoint representation: basis-vector states on ints, or on
  ``_IntPoly`` values in Q[alpha] for symbolic D(2,1,alpha).  The ad maps
  and the Casimir weights are scaled to integers once, so the sweep
  accumulates the full endomorphism times a known power of the scale;
  ``extract`` Schur-checks it to be an exact scalar and divides that power
  out, handing out a Fraction, or a MultiPoly in alpha.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .diagrams import DiagramError, LinComb, chord_endpoints, chord_reduce, chi_bar, insert_at_vertex
from .scalars import CostBoundError, MultiPoly, RationalFunction

STATE_SUM_VERTEX_LIMIT = 12  # cost guard for dim-17 contractions


class SchurCheckError(AssertionError):
    pass


# ------------------------------------------------------------- module carriers


def adjoint_rep(L):
    """rho(x) = ad x on the algebra itself: ``columns[x][j]`` is the sparse
    column {i: coeff} of [b_x, b_j]."""
    return [[L.bracket(x, j) for j in range(L.dim)] for x in range(L.dim)]


_FIELD = 32  # bits of one variable's exponent in a packed monomial
_MASK = (1 << _FIELD) - 1


class _IntPoly:
    """A polynomial with rational coefficients as int numerators over one
    positive int denominator, for the Verma sweep's inner loop.

    ``terms`` maps a packed monomial -- the exponent of the i-th variable in
    bits [32 i, 32 i + 32) of one int, so a monomial product is one int
    addition -- to a nonzero int numerator.  ``den`` is coprime to the
    numerators (1 for zero), so one value has one representation.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms, den):
        """``terms`` (nonzero numerators) is taken over; ``den`` is reduced."""
        if den != 1:
            g = math.gcd(den, *terms.values())
            if g != 1:
                terms = {k: c // g for k, c in terms.items()}
                den //= g
        self.terms = terms
        self.den = den

    @classmethod
    def lift(cls, poly):
        """The value of a MultiPoly, packed by the position of its variables."""
        den = math.lcm(*(c.denominator for c in poly.terms.values()))
        return cls({sum(e << (_FIELD * i) for i, e in enumerate(expo)):
                    c.numerator * (den // c.denominator) for expo, c in poly.terms.items()}, den)

    def to_poly(self, vars):
        """The MultiPoly in ``vars``, read by position."""
        return MultiPoly(vars, {tuple((k >> (_FIELD * i)) & _MASK for i in range(len(vars))):
                                Fraction(c, self.den) for k, c in self.terms.items()})

    def __bool__(self):
        return bool(self.terms)

    def __neg__(self):
        return _IntPoly({k: -c for k, c in self.terms.items()}, self.den)

    def __add__(self, other):
        da, db = self.den, other.den
        if da == db:
            out = dict(self.terms)
            for k, c in other.terms.items():
                out[k] = out.get(k, 0) + c
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            out = {k: c * fa for k, c in self.terms.items()}
            for k, c in other.terms.items():
                out[k] = out.get(k, 0) + c * fb
            da *= fa
        if not all(out.values()):
            out = {k: c for k, c in out.items() if c}
        return _IntPoly(out, da)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if len(b) > len(a):
            a, b = b, a
        if len(b) == 1:
            # no two products share a monomial, and ints have no zero divisors
            (kb, cb), = b.items()
            out = {k + kb: c * cb for k, c in a.items()}
        else:
            out = {}
            get = out.get
            for kb, cb in b.items():
                for ka, ca in a.items():
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
            if not all(out.values()):
                out = {k: c for k, c in out.items() if c}
        return _IntPoly(out, self.den * other.den)


class VermaCarrier:
    """PBW states of the Verma module of highest weight n * lambda0.

    Monomials are exponent tuples over the lowering operators in PBW order;
    odd exponents stay in {0, 1} (an odd square rewrites through [x,x]/2).
    Coefficients are ``_IntPoly`` values in Q[n] or Q[n, alpha]: the bracket
    table, the Casimir terms, lambda and 1/2 are lifted there once, here, so
    the sweep multiplies ints only.  ``extract`` hands the chord diagram's
    value out as a MultiPoly in the ring.
    """

    def __init__(self, L, lambda0):
        rd = L.rootdata
        self.parity = L.parity
        self.neg = rd.negative_order
        self.neg_index = {b: i for i, b in enumerate(self.neg)}
        self.cartan_index = {h: i for i, h in enumerate(rd.cartan)}
        self.ring = ("n", "alpha") if L.symbolic else ("n",)
        self.zero = MultiPoly.zero(self.ring)

        def lift(c):
            # adding a scalar to the ring's zero puts it in the ring's variables
            return _IntPoly.lift(self.zero + c)

        self.one = lift(1)
        self.half = lift(Fraction(1, 2))
        self.bracket = {key: {k: lift(c) for k, c in row.items()}
                        for key, row in L.bracket_table.items()}
        self.terms = [(x, y, lift(w), L.parity[x]) for x, y, w in L.casimir]
        n = MultiPoly.variable("n")
        self.lam = {h: lift(n * lambda0[i]) for h, i in self.cartan_index.items()}
        self.zero_mono = (0,) * len(self.neg)
        self._memo = {}
        self.values = {}

    def start(self):
        return {self.zero_mono: self.one}

    def extract(self, vec, n_chords):
        value = vec.get(self.zero_mono)
        return self.zero if value is None else value.to_poly(self.ring)

    def act(self, x, mono):
        """x . (mono v_lambda) as a normal-ordered state, memoized."""
        key = (x, mono)
        got = self._memo.get(key)
        if got is not None:
            return got
        out = {}
        first = next((i for i, e in enumerate(mono) if e), None)
        if first is None:
            if x in self.neg_index:
                m = list(mono)
                m[self.neg_index[x]] = 1
                out[tuple(m)] = self.one
            elif x in self.cartan_index:
                out[mono] = self.lam[x]
            # positive root vectors annihilate v_lambda
        else:
            xi = self.neg_index.get(x)
            if xi is not None and xi < first:
                m = list(mono)
                m[xi] = 1
                out[tuple(m)] = self.one
            elif xi == first:
                y = self.neg[first]
                if not self.parity[y]:
                    m = list(mono)
                    m[first] += 1
                    out[tuple(m)] = self.one
                else:
                    # odd square: x.x = [x,x]/2 (zero for our instances, but
                    # kept general)
                    rest = list(mono)
                    rest[first] -= 1
                    rest = tuple(rest)
                    for z, cz in self.bracket.get((x, x), {}).items():
                        czl = cz * self.half
                        for m2, c2 in self.act(z, rest).items():
                            _accum(out, m2, czl * c2)
            else:
                y = self.neg[first]
                rest = list(mono)
                rest[first] -= 1
                rest = tuple(rest)
                sgn = -1 if (self.parity[x] and self.parity[y]) else 1
                for m2, c2 in self.act(x, rest).items():
                    c2s = c2 if sgn == 1 else -c2
                    for m3, c3 in self.act(y, m2).items():
                        _accum(out, m3, c2s * c3)
                for z, cz in self.bracket.get((x, y), {}).items():
                    for m2, c2 in self.act(z, rest).items():
                        _accum(out, m2, cz * c2)
        self._memo[key] = out
        return out

    def apply(self, x, vec, scale=None):
        out = {}
        for mono, c in vec.items():
            if scale is not None:
                c = c * scale
            for m2, c2 in self.act(x, mono).items():
                _accum(out, m2, c * c2)
        return out


class EndoCarrier:
    """States (input column, basis index) of the adjoint representation, on
    ints, or on ``_IntPoly`` values in Q[alpha] for symbolic D(2,1,alpha).

    The ad columns are scaled by ``da``, the lcm of their denominators, and
    the Casimir weights by ``dw``, so every entry lifts to an integer
    (polynomial) once, here.  A chord applies one weight and two ad maps,
    so after m chords the final state is the full endomorphism times
    ``(da**2 * dw)**m``; ``extract`` Schur-checks it and divides once.
    """

    def __init__(self, L):
        columns = adjoint_rep(L)
        if L.symbolic:
            self.ring = ("alpha",)
            self.zero = MultiPoly.zero(self.ring)

            def den(v):
                return math.lcm(*(c.denominator for c in v.terms.values()))

            def lift(v):
                return _IntPoly.lift(self.zero + v)
        else:
            self.ring = None
            self.zero = Fraction(0)
            den, lift = (lambda v: v.denominator), int
        da = math.lcm(*(den(v) for row in columns for col in row for v in col.values()))
        dw = math.lcm(*(den(w) for _, _, w in L.casimir))
        self.columns = [[{i: lift(v * da) for i, v in col.items()} for col in row]
                        for row in columns]
        self.terms = [(x, y, lift(w * dw), L.parity[x]) for x, y, w in L.casimir]
        self.chord_scale = da * da * dw
        self.one = lift(1)
        self.dim = L.dim
        self.values = {}

    def start(self):
        return {(j, j): self.one for j in range(self.dim)}

    def extract(self, endo, n_chords):
        """The scalar of the final endomorphism: the Schur check (zero off
        the diagonal, one value on it) runs on the scaled entries, then one
        division by the scale of n_chords chords."""
        for col, idx in endo:
            if col != idx:
                raise SchurCheckError(f"off-diagonal entry at {(col, idx)}")
        symbolic = self.ring is not None
        diagonal = [endo.get((j, j)) for j in range(self.dim)]
        entries = [(v.terms if v else {}) if symbolic else (v or 0) for v in diagonal]
        for j, e in enumerate(entries):
            if e != entries[0]:
                raise SchurCheckError(f"diagonal mismatch at column {j}")
        unit = self.chord_scale ** n_chords
        if symbolic:
            return _IntPoly(dict(entries[0]), unit).to_poly(self.ring)
        return Fraction(entries[0], unit)

    def apply(self, x, vec, scale=None):
        out = {}
        cols = self.columns[x]
        for (col, idx), c in vec.items():
            if scale is not None:
                c = c * scale
            for i, v in cols[idx].items():
                _accum(out, (col, i), c * v)
        return out


def _accum(d, k, v):
    s = d.get(k)
    if s is None:
        if v:
            d[k] = v
    else:
        s = s + v
        if s:
            d[k] = s
        else:
            del d[k]


# --------------------------------------------------------------- the sweep


def _plan_rotation(chords, n, branch):
    """Rotate the cut to minimize the open-width cost of the sweep: the
    (rotated chords, cost), where each opening and each closing costs
    branch ** (the number of chords open there)."""
    best, best_cost = None, None
    for r in range(max(n, 1)):
        rot = sorted(tuple(sorted(((p - r) % n, (q - r) % n))) for p, q in chords)
        width = 0
        cost = 0
        opens = {q for _, q in rot}
        closes = {p for p, _ in rot}
        for pos in range(n - 1, -1, -1):
            if pos in opens:
                width += 1
                cost += branch ** width
            if pos in closes:
                cost += branch ** width
                width -= 1
        if best_cost is None or cost < best_cost:
            best, best_cost = rot, cost
    return best or [], best_cost


def sweep_chords(carrier, chords):
    """Contract a chord diagram, given as endpoint pairs on the positions
    0 .. 2*len(chords) - 1, into the carrier's scalar."""
    terms = carrier.terms
    n_positions = 2 * len(chords)
    chords, _ = _plan_rotation(chords, n_positions, len(terms))
    open_at = {q: ci for ci, (p, q) in enumerate(chords)}
    close_at = {p: ci for ci, (p, q) in enumerate(chords)}
    states = {(): carrier.start()}
    for pos in range(n_positions - 1, -1, -1):
        nxt = {}
        if pos in open_at:
            ci = open_at[pos]
            p_c = chords[ci][0]
            for pend, vec in states.items():
                odd_crossers = sum(1 for (c2, t2) in pend
                                   if terms[t2][3] and chords[c2][0] > p_c)
                for ti, (xi, yi, w, par) in enumerate(terms):
                    scale = w
                    if par and (odd_crossers & 1):
                        scale = -w
                    vec2 = carrier.apply(yi, vec, scale=scale)
                    if vec2:
                        _merge(nxt, pend + ((ci, ti),), vec2)
        elif pos in close_at:
            ci = close_at[pos]
            for pend, vec in states.items():
                ti = next(t for c, t in pend if c == ci)
                vec2 = carrier.apply(terms[ti][0], vec)
                pend2 = tuple((c, t) for c, t in pend if c != ci)
                if vec2:
                    _merge(nxt, pend2, vec2)
        else:
            raise DiagramError("position is neither a chord opening nor closing")
        states = nxt
        if not states:
            break
    return carrier.extract(states.get((), {}), len(chords))


def _merge(states, pend, vec):
    cur = states.get(pend)
    if cur is None:
        states[pend] = vec
    else:
        for k, v in vec.items():
            _accum(cur, k, v)


# ------------------------------------------------------------ public surface


_CARRIERS = {}  # (L.name, lambda0) or (L.name, "adjoint") -> carrier


def _chord_sum(d, carrier, check=None):
    """Value of a skeleton diagram, or a LinComb of them, on the carrier.

    Chord values come from ``carrier.values`` or from a fresh sweep;
    ``check(diagram, value)`` runs on the value of every diagram.
    """
    if isinstance(d, LinComb):
        total = carrier.zero
        for diag, c in d:
            total = total + _chord_sum(diag, carrier, check) * Fraction(c)
        return total
    if d.skel is None:
        raise DiagramError("weight systems evaluate skeleton diagrams")
    value = carrier.zero
    for chord_diag, c in chord_reduce(d):
        key = chord_diag.canonical_key()
        chord_value = carrier.values.get(key)
        if chord_value is None:
            chord_value = sweep_chords(carrier, chord_endpoints(chord_diag))
            carrier.values[key] = chord_value
        value = value + chord_value * Fraction(c)
    if check is not None:
        check(d, value)
    return value


def sweep_cost(d, L):
    """The largest planned cost of the sweeps that evaluating a skeleton
    diagram on L runs, one per chord diagram of its STU reduction; no sweep
    runs."""
    if d.skel is None:
        raise DiagramError("weight systems evaluate skeleton diagrams")
    return max((_plan_rotation(ends, 2 * len(ends), len(L.casimir))[1]
                for ends in (chord_endpoints(c) for c, _ in chord_reduce(d))), default=0)


def eval_verma(d, L, lambda0):
    """Scalar action of a skeleton diagram on the Verma module of weight
    n*lambda0, as an exact polynomial in n (and alpha, symbolically).

    The degree bound deg_n <= (number of skeleton vertices) is asserted on
    every diagram evaluated.
    """
    key = (L.name, tuple(lambda0))
    if key not in _CARRIERS:
        _CARRIERS[key] = VermaCarrier(L, lambda0)
    return _chord_sum(d, _CARRIERS[key], check=_assert_degree_bound)


def _assert_degree_bound(d, value):
    if value.degree_in("n") > len(d.skel):
        raise AssertionError(
            f"degree bound violated: deg_n={value.degree_in('n')} > {len(d.skel)} skeleton vertices")


def eval_state_sum(d, L):
    """Scalar by which a skeleton diagram acts in the adjoint representation.

    The full endomorphism is computed and Schur-checked to be an exact
    scalar multiple of the identity; the scalar is returned.
    """
    diagrams = [diag for diag, _ in d] if isinstance(d, LinComb) else [d]
    if L.dim > 8 and any(x.n_vertices > STATE_SUM_VERTEX_LIMIT for x in diagrams):
        raise CostBoundError(
            f"state sum over dim {L.dim} limited to {STATE_SUM_VERTEX_LIMIT} vertices")
    key = (L.name, "adjoint")
    if key not in _CARRIERS:
        _CARRIERS[key] = EndoCarrier(L)
    return _chord_sum(d, _CARRIERS[key])


def adjoint_weight(L):
    """Highest weight of the adjoint representation, in H* coordinates."""
    return L.rootdata.highest_root


# ------------------------------------------------------------- insertion ratios


def exact_ratio(num, den):
    """num / den for two polynomials that must be exactly proportional with a
    ratio free of n; returns the ratio (Fraction or RationalFunction in
    alpha), or raises ValueError if the proportionality fails."""
    num = num if isinstance(num, MultiPoly) else MultiPoly.const(num)
    den = den if isinstance(den, MultiPoly) else MultiPoly.const(den)
    num, den = num._aligned(den)
    if den.is_zero():
        raise ZeroDivisionError("zero denominator value")
    dn = max(num.degree_in("n"), den.degree_in("n")) if "n" in den.vars else 0
    num_coeffs = [num.coefficient_in("n", k) for k in range(dn + 1)] if "n" in num.vars else [num]
    den_coeffs = [den.coefficient_in("n", k) for k in range(dn + 1)] if "n" in den.vars else [den]
    ref = next(k for k in range(len(den_coeffs)) if den_coeffs[k])
    for i in range(len(den_coeffs)):
        lhs = num_coeffs[i] * den_coeffs[ref]
        rhs = num_coeffs[ref] * den_coeffs[i]
        if lhs != rhs:
            raise ValueError("values are not proportional by an n-free ratio")
    ratio = RationalFunction(num_coeffs[ref], den_coeffs[ref])
    if ratio.den.is_constant() and ratio.num.is_constant():
        return ratio.num.constant_value() / ratio.den.constant_value()
    return ratio


def ratio_character(piece, probes):
    """Measure the character value of an insertion piece from probe ratios.

    Each probe is (base_diagram, algebra, mode, weight): the base is
    a connected skeleton-free diagram of degree >= 2, the weight is None
    for the state sum; the measured ratio is
    W(chi_bar(piece . base)) / W(chi_bar(base)).  All ratios for one probe
    list must agree exactly; the common value and a report are returned.
    """
    ratios = []
    report = []
    for base, L, mode, weight in probes:
        if base.nt == 0:
            raise DiagramError("probe needs a trivalent vertex to insert at")
        inserted = insert_at_vertex(base, 0, piece)
        num_src = chi_bar(inserted)
        den_src = chi_bar(base)
        if mode == "verma":
            den = eval_verma(den_src, L, weight)
            num = eval_verma(num_src, L, weight)
        elif mode == "statesum":
            den = eval_state_sum(den_src, L)
            num = eval_state_sum(num_src, L)
        else:
            raise ValueError(f"unknown mode {mode}")
        if not den:
            raise ValueError("probe has zero weight-system value")
        r = exact_ratio(num, den)
        ratios.append(r)
        report.append({"base_degree": str(base.degree), "algebra": L.name,
                       "mode": mode, "ratio": str(r)})
    first = ratios[0]
    consistent = all(r == first for r in ratios[1:])
    if not consistent:
        raise ValueError(f"inconsistent insertion ratios: {[str(r) for r in ratios]}")
    return first, report
