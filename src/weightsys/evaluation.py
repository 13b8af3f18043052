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
``start``, ``apply`` and ``extract``, which turns the final state into the
chord diagram's scalar.  ``_chord_sum`` sums those scalars over
``chord_reduce``; each carrier memoizes them in ``carrier.values``, keyed by
canonical chord diagram, and one carrier per (algebra, weight) or algebra
is kept for the process.  The two carriers are independent: the Verma
module of highest weight n*lambda0 (PBW monomial states, coefficients in
Q[n] or Q[n, alpha]), and the adjoint representation (basis-vector states
in the algebra's own scalars; the full endomorphism is accumulated and
Schur-checked to be an exact scalar).
"""

from __future__ import annotations

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


class VermaCarrier:
    """PBW states of the Verma module of highest weight n * lambda0.

    Monomials are exponent tuples over the lowering operators in PBW order;
    odd exponents stay in {0, 1} (an odd square rewrites through [x,x]/2).
    Coefficients live in Q[n] or Q[n, alpha]; the bracket table, the Casimir
    terms and lambda are lifted there once, here.
    """

    def __init__(self, L, lambda0):
        rd = L.rootdata
        self.parity = L.parity
        self.neg = rd.negative_order
        self.neg_index = {b: i for i, b in enumerate(self.neg)}
        self.cartan_index = {h: i for i, h in enumerate(rd.cartan)}
        ring = ("n", "alpha") if L.symbolic else ("n",)
        self.one = MultiPoly.const(1, ring)
        self.zero = MultiPoly.zero(ring)
        # adding a scalar to the ring's zero lifts it into the ring
        self.bracket = {key: {k: self.zero + c for k, c in row.items()}
                        for key, row in L.bracket_table.items()}
        self.terms = [(x, y, self.zero + w, L.parity[x]) for x, y, w in L.casimir]
        n_mono = tuple(1 if v == "n" else 0 for v in ring)
        self.lam = {h: MultiPoly(ring, {n_mono: Fraction(lambda0[i])})
                    for h, i in self.cartan_index.items()}
        self.zero_mono = (0,) * len(self.neg)
        self._memo = {}
        self.values = {}

    def start(self):
        return {self.zero_mono: self.one}

    def extract(self, vec):
        return vec.get(self.zero_mono, self.zero)

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
                        czl = cz * Fraction(1, 2)
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
    """States (input column, basis index) of the adjoint representation, in
    the algebra's own scalars; the final state of the sweep is the full
    endomorphism."""

    def __init__(self, L):
        self.columns = adjoint_rep(L)
        self.dim = L.dim
        self.terms = [(x, y, w, L.parity[x]) for x, y, w in L.casimir]
        self.one = MultiPoly.const(1, ("alpha",)) if L.symbolic else Fraction(1)
        self.zero = MultiPoly.zero(("alpha",)) if L.symbolic else Fraction(0)
        self.values = {}

    def start(self):
        return {(j, j): self.one for j in range(self.dim)}

    def extract(self, endo):
        """The scalar of the final endomorphism, checked to be exactly scalar."""
        scalar = endo.get((0, 0), self.zero)
        for (col, idx), v in endo.items():
            if col != idx and v:
                raise SchurCheckError(f"off-diagonal entry at {(col, idx)}: {v}")
        for j in range(self.dim):
            if endo.get((j, j), self.zero) != scalar:
                raise SchurCheckError(f"diagonal mismatch at column {j}")
        return scalar

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
    """Rotate the cut to minimize the open-width cost of the sweep."""
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
    return best or []


def sweep_chords(carrier, chords):
    """Contract a chord diagram, given as endpoint pairs on the positions
    0 .. 2*len(chords) - 1, into the carrier's scalar."""
    terms = carrier.terms
    n_positions = 2 * len(chords)
    chords = _plan_rotation(chords, n_positions, len(terms))
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
    final = states.get((), {})
    return carrier.extract(final)


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
