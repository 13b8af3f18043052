"""Reference computations the tests check the package against.

The program never runs these: no CLI command and no benchmark operation
reaches them, so they live with the tests rather than in src/weightsys.

- the character space: exhaustive enumeration of connected skeleton-free
  diagrams (``enumerate_connected``) and reduction modulo AS/IHX over the
  IHX saturation of a combination's support (``reduce_B``), Vogel's
  relations checked by brute force;
- the circle space: sorting a skeleton by STU swaps (``sort_skeleton_to``),
  which decomposes the symmetrized wheel into k! times the glued wheel plus
  lower terms, and the STU oracle's relation rows indexed by canonical
  chord class (``stu_rows_by_canonical_class``), the path that naming
  resolutions by gap word replaced;
- insertion characters measured as exact probe ratios
  (``ratio_character``);
- the inverse of ``characters.to_elementary`` (``from_elementary``) and
  the bare skeleton circle (``empty_circle``);
- the chord diagram a gap word spells (``word_diagram``), the LinComb
  that ``chord_reduce``'s {gap word: coefficient} names (``chord_comb``),
  and the sum of two LinCombs (``accumulate``);
- the k-wheel glued to the circle (``wheel_on_circle``), and a diagram
  written in the text format that ``Diagram.from_text`` and eval's
  ``--diagram`` file read (``diagram_text``);
- the largest planned cost of the sweeps that evaluating a diagram runs
  (``sweep_cost``), read without sweeping, against which the eval cost
  bound is checked, a chord diagram's chords as endpoint pairs along the
  circle (``chord_endpoints``), which name the diagrams of the Verma and
  state-sum golden files, those pairs spelled as the unrotated gap word
  that ``sweep_chords`` reads (``chord_word``), and its crossing components
  (``crossing_components``), its prime factors found without the
  package's factoring;
- the evaluation sweep on MultiPoly states (``PolyVerma``, ``PolyEndo``,
  ``poly_sweep_chords``, ``poly_sweep_legs``), the path the int-state
  sweep of ``weightsys.evaluation`` replaced, and leg contraction on
  MultiPoly coefficients (``poly_leg_tensor``), the path its int leg
  contraction replaced;
- ``validate`` by dense loops over every basis triple (``dense_validate``,
  ``dense_jacobi_failures``), the path that the sums over nonzero
  structure constants of ``weightsys.superalgebras.validate`` replaced;
- an algebra's constructor fields (``algebra_fields``), which two builds
  of one algebra share: an algebra's own ``==`` is identity; and a copy of
  an algebra with one structure constant shifted (``corrupt``), the
  negative control of ``validate``.
- the dual Coxeter number and dimension of a simple Lie algebra from its
  root system (``root_system_invariants``), and the same two read off a
  Vogel parameter triple (``vogel_invariants``), which check the rows of
  the shipped Lie-family table;
- values the package reads from labels or builds from sl2 triples, written
  out by hand: P's fifteen linear factors (``hand_p_factors``), the modulus
  of the image test (``IMAGE_MODULUS``), and sl2's bracket table and
  Casimir (``sl2_transcription``);
- the minimal polynomial of the split Casimir on g (x) g
  (``split_casimir_minimal_polynomial``), whose roots are Vogel's
  parameters and so check the sigma substitution of ``certify``.

Import them as ``from oracles import ...``: pytest puts this directory on
the path, and so does running a test file as a script.
"""

import itertools
import math
import random
from fractions import Fraction

from weightsys.characters import E, LMN, elementary
from weightsys.diagrams import (
    Diagram,
    DiagramError,
    LinComb,
    _classes,
    _cut,
    _from_edges,
    all_chord_diagrams,
    chi_bar,
    chord_diagram_from_word,
    insert_at_vertex,
    stu_eligible_legs,
    stu_expand,
    wheel,
)
from weightsys.evaluation import (
    _leg_plan,
    SchurCheckError,
    _parts,
    _plan,
    _plan_rotation,
    adjoint_rep,
    eval_state_sum,
    eval_verma,
)
from weightsys.scalars import MultiPoly, _poly_divmod, echelon, reduce_by
from weightsys.superalgebras import SuperAlgebra


def empty_circle():
    """The bare skeleton circle (degree 0); evaluates to 1 everywhere."""
    return Diagram(0, 0, (), skel=())


def word_diagram(word):
    """The chord diagram that the gap word ``word`` spells: circle position
    i is joined to position i + word[i]."""
    n = len(word)
    return chord_diagram_from_word([(i, i + g) for i, g in enumerate(word) if i + g < n], n)


def chord_comb(reduced):
    """The LinComb of the chord diagrams that ``chord_reduce``'s
    {gap word: coefficient} names."""
    out = LinComb()
    for word, c in reduced.items():
        out.add(word_diagram(word), c)
    return out


def accumulate(total, comb, scale=1):
    """Add scale times each term of ``comb`` to the LinComb ``total``, and
    return ``total``."""
    for d, c in comb:
        total.add(d, c * scale)
    return total


def wheel_on_circle(k):
    """The k-wheel with its legs glued to an oriented skeleton circle in the
    matching cyclic order."""
    w = wheel(k)
    return Diagram(w.nt, w.nu, w.pairing, skel=tuple(range(k, 2 * k)))


def diagram_text(d):
    """d in the text format that ``Diagram.from_text`` parses."""
    lines = [f"vertices {d.nt} {d.nu}"]
    seen = set()
    for a in range(d.n_darts):
        b = d.pairing[a]
        if (b, a) in seen:
            continue
        seen.add((a, b))
        lines.append(f"edge {a} {b}")
    if d.skel is None:
        lines.append("skeleton none")
    elif not d.skel:
        lines.append("skeleton empty")
    else:
        lines.append("skeleton " + " ".join(str(u) for u in d.skel))
    return "\n".join(lines) + "\n"


def sweep_cost(d, L):
    """The largest planned cost of the sweeps that evaluating a skeleton
    diagram on L runs, one per prime factor of each part; nothing is swept
    or contracted."""
    return max((_plan(p, L)[0] for primes, _ in _parts(d) for _, p in primes), default=0)


def chord_endpoints(d):
    """Positions (i, j) along the skeleton of each chord of a chord diagram."""
    if d.skel is None or d.nt:
        raise DiagramError("not a chord diagram")
    posn = {u: i for i, u in enumerate(d.skel)}
    chords = []
    for i, u in enumerate(d.skel):
        # with no trivalent vertex, leg u's one dart is numbered u
        j = posn[d.pairing[u]]
        if i < j:
            chords.append((i, j))
    return chords


def chord_word(chords):
    """The gap word that ``sweep_chords`` reads for a chord diagram given as
    endpoint pairs on the positions 0 .. 2 * len(chords) - 1: position i is
    joined to i + word[i] mod the length.  The word is not rotated to its
    least, so the sweep runs the cut the pairs are given in."""
    n = 2 * len(chords)
    word = [0] * n
    for p, q in chords:
        word[p], word[q] = (q - p) % n, (p - q) % n
    return tuple(word)


def crossing_components(chords):
    """The chords of each connected component of a chord diagram's crossing
    graph, given as endpoint pairs, each component moved onto the positions
    0 .. 2k - 1 in circle order.  Two chords cross when exactly one end of
    one lies between the ends of the other; a walk from each chord not yet
    reached collects its component."""
    left, out = set(chords), []
    while left:
        stack, mine = [left.pop()], []
        while stack:
            a, b = stack.pop()
            mine.append((a, b))
            for c, d in sorted(left):
                if (a < c < b) != (a < d < b):
                    left.remove((c, d))
                    stack.append((c, d))
        at = {e: i for i, e in enumerate(sorted(e for chord in mine for e in chord))}
        out.append(sorted((at[a], at[b]) for a, b in mine))
    return sorted(out)


# -- skeleton-order sorting (the filtration decomposition) ---------------------------


def skeleton_swap(d, i):
    """Rewrite D[..., x, y, ...] = D[..., y, x, ...] - Y where x, y are the
    skeleton vertices at positions i, i+1 and Y fuses them into one leg
    attached to a new internal vertex (one fewer skeleton vertex).

    Returns (swapped diagram, y_term diagram)."""
    if d.skel is None or len(d.skel) < 2:
        raise DiagramError("need at least two skeleton vertices")
    n = len(d.skel)
    x, y = d.skel[i], d.skel[(i + 1) % n]
    skel2 = list(d.skel)
    skel2[i], skel2[(i + 1) % n] = y, x
    swapped = Diagram(d.nt, d.nu, d.pairing, skel=tuple(skel2))

    # Y term: fresh trivalent vertex nt with cyclic order (to-skeleton,
    # x-edge, y-edge); the fused leg takes the last univalent slot
    new_nt = d.nt + 1
    vmap, dmap, edges = _cut(d, (x, y), new_nt)
    t0 = 3 * d.nt
    leg = new_nt + d.nu - 2
    edges.append((t0, 3 * new_nt + d.nu - 2))
    px, py = (d.pairing[d.vertex_darts(v)[0]] for v in (x, y))
    if px in dmap:
        edges += [(t0 + 1, dmap[px]), (t0 + 2, dmap[py])]
    else:  # x and y were chorded together
        edges.append((t0 + 1, t0 + 2))
    skel = [leg if v == x else vmap[v] for v in d.skel if v != y]
    return swapped, _from_edges(new_nt, d.nu - 1, edges, skel)


def sort_skeleton_to(d, target_order):
    """Express d as (d with skeleton sorted to target cyclic order) plus
    lower-filtration terms, by repeated STU swaps.

    ``target_order`` is a tuple of d's univalent vertex labels.  Returns
    (sorted LinComb contribution, LinComb of emitted lower terms)."""
    rank = {}
    base = d.skel.index(target_order[0])
    rot = d.skel[base:] + d.skel[:base]
    for pos, v in enumerate(target_order):
        rank[v] = pos

    lower = LinComb()
    cur = Diagram(d.nt, d.nu, d.pairing, skel=rot)
    # bubble sort positions 1..n-1 by rank
    n = len(rot)
    changed = True
    while changed:
        changed = False
        for i in range(1, n - 1):
            if rank[cur.skel[i]] > rank[cur.skel[i + 1]]:
                swapped, y_term = skeleton_swap(cur, i)
                lower.add(y_term, -1)
                cur = swapped
                changed = True
    return LinComb.of(cur), lower


def stu_rows_by_canonical_class(one_vertex, m):
    """The STU relation rows of the degree-m one-vertex diagrams
    ``one_vertex``, built the way ``dim_A_by_stu`` built them before gap
    words named its columns: the resolutions along each leg are collected
    by ``stu_expand`` into a LinComb, and a column is the index of a
    canonical class among ``all_chord_diagrams(m)``."""
    index = {c._encoding(): i for i, c in enumerate(all_chord_diagrams(m))}
    rows = []
    for diag in one_vertex:
        first, *others = (stu_expand(diag, u) for u in stu_eligible_legs(diag))
        for exp in others:
            both = accumulate(accumulate(LinComb(), first), exp, -1)
            row = {index[t._encoding()]: c for t, c in both}
            if row:
                rows.append(row)
    return rows


# -- IHX saturation and reduction ---------------------------------------------------


def internal_edges(d):
    """Darts h < pairing[h], both ends trivalent, excluding self-loops."""
    out = []
    for h in range(3 * d.nt):
        p = d.pairing[h]
        if h < p < 3 * d.nt and p // 3 != h // 3:
            out.append(h)
    return out


def ihx_relation(d, h):
    """d - d1 - d2 for the internal edge with darts (h, pairing[h]).

    With cyclic orders (e, a, b) and (e', c, d) at the two endpoints,
    d1 rewires to (a, c, e)(e', b, d) and d2 to (b, c, f)(a, f', d).
    """
    p = d.pairing[h]
    u, w = h // 3, p // 3
    a, b = d.sigma(h), d.sigma(d.sigma(h))
    c, dd = d.sigma(p), d.sigma(d.sigma(p))
    rel = LinComb.of(d)
    rel.add(_rewire(d, u, w, (a, c, h), (p, b, dd)), -1)
    rel.add(_rewire(d, u, w, (b, c, h), (a, p, dd)), -1)
    return rel


def _rewire(d, u, w, triple_u, triple_w):
    """Rebuild d with the half-edge triples at trivalent u, w replaced (the
    entries name old darts whose partners are preserved)."""
    slots = (3 * u, 3 * u + 1, 3 * u + 2, 3 * w, 3 * w + 1, 3 * w + 2)
    move = dict(zip(triple_u + triple_w, slots))
    pairing = list(d.pairing)
    for old, new in move.items():
        partner = move.get(d.pairing[old], d.pairing[old])
        pairing[new], pairing[partner] = partner, new
    return Diagram(d.nt, d.nu, pairing, skel=d.skel)


def ihx_saturate(seed_diagrams):
    """Closure of a diagram set under IHX moves, plus the relations; raises
    DiagramError once the closure would exceed 4000 diagrams."""
    frontier = _classes(seed_diagrams)
    seen = {diag._encoding(): diag for diag in frontier}
    relations = []
    rel_keys = set()
    while frontier:
        diag = frontier.pop()
        for h in internal_edges(diag):
            rel = ihx_relation(diag, h)
            key = tuple(sorted((k, str(c)) for k, (_, c) in rel.terms.items()))
            if key in rel_keys:
                continue
            rel_keys.add(key)
            if rel:
                relations.append(rel)
            for term, _ in rel:
                k = term._encoding()
                if k not in seen:
                    if len(seen) >= 4000:
                        raise DiagramError("IHX saturation exceeded 4000 diagrams")
                    seen[k] = term
                    frontier.append(term)
    return list(seen.values()), relations


def reduce_B(c):
    """Coordinates of a LinComb of skeleton-free diagrams modulo AS/IHX.

    The relation span is computed on the IHX saturation of the support (the
    saturated set is relation-closed, so zero/equality tests are exact).
    Returns {canonical encoding: coefficient} after elimination; the zero
    map means the class is zero.
    """
    if isinstance(c, Diagram):
        c = LinComb.of(c)
    support = [diag for diag, _ in c]
    if not support:
        return {}
    diagrams, relations = ihx_saturate(support)
    encodings = sorted(diag._encoding() for diag in diagrams)
    index = {enc: i for i, enc in enumerate(encodings)}
    pivots = echelon({index[diag._encoding()]: coeff for diag, coeff in rel}
                     for rel in relations)
    vec = reduce_by({index[diag._encoding()]: Fraction(coeff) for diag, coeff in c}, pivots)
    return {encodings[i]: v for i, v in vec.items()}


def enumerate_connected(degree, legs):
    """All connected skeleton-free diagrams of the given degree and leg
    count, one canonical representative per nonzero AS-class, sorted by
    encoding."""
    nt = 2 * degree - legs
    if nt < 0 or (nt + legs) % 2:
        return []
    nd = 3 * nt + legs

    def backtrack(pairing, used):
        free = [i for i in range(nd) if pairing[i] < 0]
        if not free:
            try:
                diag = Diagram(nt, legs, pairing)
            except DiagramError:
                return
            yield diag
            return
        h = free[0]
        seen_fresh_triv = False
        seen_fresh_univ = False
        for p in free[1:]:
            v = p // 3 if p < 3 * nt else nt + (p - 3 * nt)
            if v not in used:
                # fresh vertices of the same kind are interchangeable
                if p < 3 * nt:
                    if seen_fresh_triv:
                        continue
                    seen_fresh_triv = True
                else:
                    if seen_fresh_univ:
                        continue
                    seen_fresh_univ = True
            pairing[h], pairing[p] = p, h
            vh = h // 3 if h < 3 * nt else nt + (h - 3 * nt)
            added = [w for w in (v, vh) if w not in used]
            used.update(added)
            yield from backtrack(pairing, used)
            for w in added:
                used.discard(w)
            pairing[h] = pairing[p] = -1

    return _classes(backtrack([-1] * nd, set()))


# -- insertion ratios ---------------------------------------------------------------


def exact_quotient(p, q):
    """p / q for a nonzero q dividing p, both univariate in one variable;
    ValueError when the quotient is not a polynomial."""
    if q.is_constant():
        return p * (1 / q.constant_value())
    name = next(v for v in q.vars if q.degree_in(v) > 0)
    quotient, rest = _poly_divmod(p.as_univariate(name), q.as_univariate(name))
    if any(rest):
        raise ValueError(f"{q} does not divide {p}")
    return MultiPoly.from_univariate(name, quotient)


def exact_ratio(num, den):
    """num / den for two polynomials that must be exactly proportional with a
    ratio free of n; returns the ratio (Fraction or MultiPoly in alpha), or
    raises ValueError if the proportionality fails or the ratio is not a
    polynomial."""
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
    ratio = exact_quotient(num_coeffs[ref], den_coeffs[ref])
    return ratio.constant_value() if ratio.is_constant() else ratio


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
    if any(r != ratios[0] for r in ratios):
        raise ValueError(f"inconsistent insertion ratios: {[str(r) for r in ratios]}")
    return ratios[0], report


# -- symmetric functions ------------------------------------------------------------


def from_elementary(q):
    """q, a polynomial in e1, e2, e3, written out in lam, mu, nu."""
    e1, e2, e3 = elementary()
    return q.substitute({"e1": e1, "e2": e2, "e3": e3}).with_vars(LMN)


# -- the sweep on MultiPoly states ------------------------------------------------------


class PolyVerma:
    """PBW states of the Verma module of highest weight n * lambda0, keyed
    by exponent tuples, with MultiPoly coefficients in Q[n] or Q[n, alpha]:
    the bracket table, the Casimir terms and lambda are put in the ring's
    variables once, unscaled.  ``extract`` hands out the final coefficient."""

    def __init__(self, L, lambda0):
        rd = L.rootdata
        self.parity = L.parity
        self.neg = rd.negative_order
        self.neg_index = {b: i for i, b in enumerate(self.neg)}
        self.cartan_index = {h: i for i, h in enumerate(rd.cartan)}
        zero = self.zero = MultiPoly.zero(("n", "alpha") if L.symbolic else ("n",))
        self.one = zero + 1
        self.bracket = {key: {k: zero + c for k, c in row.items()}
                        for key, row in L.bracket_table.items()}
        self.terms = [(x, y, zero + w, L.parity[x]) for x, y, w in L.casimir]
        n = MultiPoly.variable("n")
        self.lam = {h: zero + n * lambda0[i] for h, i in self.cartan_index.items()}
        self.zero_mono = (0,) * len(self.neg)
        self._memo = {}

    def start(self):
        return {self.zero_mono: self.one}

    def extract(self, vec, degree):
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
        else:
            xi = self.neg_index.get(x)
            if xi is not None and xi < first:
                m = list(mono)
                m[xi] = 1
                out[tuple(m)] = self.one
            elif xi == first:
                if not self.parity[x]:
                    m = list(mono)
                    m[first] += 1
                    out[tuple(m)] = self.one
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


class PolyEndo:
    """States {(input column, basis index): coefficient} of the adjoint
    representation, on ints, or on MultiPolys in Q[alpha] for symbolic
    D(2,1,alpha).  The ad columns are scaled by ``da``, the lcm of their
    denominators, and the Casimir weights by ``dw``; ``extract``
    Schur-checks the final endomorphism and divides by
    ``(da**2 * dw)**degree``."""

    def __init__(self, L):
        columns = adjoint_rep(L)
        if L.symbolic:
            self.zero = MultiPoly.zero(("alpha",))
            scaled, den = self.zero.__add__, (lambda v: (self.zero + v).den)
        else:
            self.zero = Fraction(0)
            scaled, den = int, (lambda v: v.denominator)
        da = math.lcm(*(den(v) for row in columns for col in row for v in col.values()))
        dw = math.lcm(*(den(w) for _, _, w in L.casimir))
        self.columns = [[{i: scaled(v * da) for i, v in col.items()} for col in row]
                        for row in columns]
        self.bracket = {(x, j): col for x, row in enumerate(self.columns)
                        for j, col in enumerate(row) if col}
        self.terms = [(x, y, scaled(w * dw), L.parity[x]) for x, y, w in L.casimir]
        self.degree_scale = da * da * dw
        self.one = scaled(1)
        self.dim = L.dim

    def start(self):
        return {(j, j): self.one for j in range(self.dim)}

    def extract(self, endo, degree):
        for col, idx in endo:
            if col != idx:
                raise SchurCheckError(f"off-diagonal entry at {(col, idx)}")
        diagonal = [endo.get((j, j), self.zero) for j in range(self.dim)]
        for j, e in enumerate(diagonal):
            if e != diagonal[0]:
                raise SchurCheckError(f"diagonal mismatch at column {j}")
        return diagonal[0] * Fraction(1, self.degree_scale ** degree)

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


def poly_sweep_chords(carrier, chords):
    """The chord sweep on MultiPoly states, pendings as (chord, term) pairs."""
    terms = carrier.terms
    n_positions = 2 * len(chords)
    word, _ = _plan_rotation(chord_word(chords), len(terms))
    chords = [(i, i + g) for i, g in enumerate(word) if i + g < n_positions]
    open_at = {q: ci for ci, (p, q) in enumerate(chords)}
    close_at = {p: ci for ci, (p, q) in enumerate(chords)}
    states = {(): carrier.start()}
    items = states.items()
    for pos in range(n_positions - 1, -1, -1):
        if pos in open_at:
            items = _poly_open(carrier, items, open_at[pos], chords)
        else:
            ci = close_at[pos]
            states = {}
            for pend, vec in items:
                ti = next(t for c, t in pend if c == ci)
                vec2 = carrier.apply(terms[ti][0], vec)
                pend2 = tuple((c, t) for c, t in pend if c != ci)
                if vec2:
                    _poly_merge(states, pend2, vec2)
            if not states:
                break
            items = states.items()
    return carrier.extract(states.get((), {}), len(chords))


def _poly_open(carrier, items, ci, chords):
    terms = carrier.terms
    p_c = chords[ci][0]
    for pend, vec in items:
        odd_crossers = sum(1 for (c2, t2) in pend
                           if terms[t2][3] and chords[c2][0] > p_c)
        for ti, (xi, yi, w, par) in enumerate(terms):
            scale = w
            if par and (odd_crossers & 1):
                scale = -w
            vec2 = carrier.apply(yi, vec, scale=scale)
            if vec2:
                yield pend + ((ci, ti),), vec2


def _poly_merge(states, pend, vec):
    cur = states.get(pend)
    if cur is None:
        states[pend] = vec
    else:
        for k, v in vec.items():
            _accum(cur, k, v)


def poly_sweep_legs(carrier, tensor, degree):
    """A leg tensor acted along the circle on MultiPoly states, depth first
    through the trie of label suffixes."""
    total = {}
    stack = [carrier.start()]
    prev = ()
    for labels, coeff in sorted(tensor.items(), key=lambda item: item[0][::-1]):
        n, shared = len(labels), 0
        while prev and shared < n - 1 and labels[n - 1 - shared] == prev[n - 1 - shared]:
            shared += 1
        del stack[shared + 1:]
        for x in labels[n - 1 - shared:0:-1]:
            stack.append(carrier.apply(x, stack[-1]))
        for k, v in carrier.apply(labels[0], stack[-1], scale=coeff).items():
            _accum(total, k, v)
        prev = labels
    return carrier.extract(total, degree)


def _poly_step_table(what, carrier, parity, first, second):
    """One step's entries by the labels it reads: (appended registers,
    coefficient with the sign its own labels give, mask of the kept
    registers whose odd parities each flip that sign)."""
    if what[0] == "chord":
        # a chord's ends sit side by side in the layout: no sign
        return {(): [((x, y), w, 0) for x, y, w, _ in carrier.terms]}
    table = {}
    _, root, checked, new, closing = what
    for (y, x), row in carrier.bracket.items():
        lab = (x, y)
        par = (parity[x], parity[y])
        for c, val in row.items():
            regs = []
            for spec in new:
                if spec[0] == "out":
                    regs.append(c)
                elif spec[0] == "pass":
                    regs.append(lab[spec[1]])
                else:
                    partner, weight = (first if spec[2] else second)[lab[spec[1]]]
                    regs.append(partner)
                    val = val * weight
            mask = sign = 0
            for w, kept, nx, ny in closing:
                if par[w]:
                    mask ^= kept
                    sign ^= (nx & par[0]) ^ (ny & par[1])
            index = ((c,) if not root else ()) + tuple(lab[w] for w in checked)
            table.setdefault(index, []).append((tuple(regs), -val if sign else val, mask))
    return table


def poly_leg_tensor(carrier, d):
    """Leg contraction on a ``PolyVerma`` or ``PolyEndo``: the tensor
    {labels of the legs in circle order: coefficient in the carrier's
    ring}, each state's coefficient a scalar of that ring."""
    steps, circle, swapped = _leg_plan(d)
    parity = {x: par for x, _, _, par in carrier.terms}
    # the Casimir relabels: a label at an edge's first (second) half gives
    # the other half's label and the weight
    first = {x: (y, w) for x, y, w, _ in carrier.terms}
    second = {y: (x, w) for x, y, w, _ in carrier.terms}
    if not len(first) == len(second) == len(carrier.terms):
        raise ValueError("leg contraction needs one Casimir partner per basis element")
    state = {(): 1}
    for lookup, keep, what in steps:
        table = _poly_step_table(what, carrier, parity, first, second)
        signed = any(mask for entries in table.values() for _, _, mask in entries)
        nxt = {}
        for key, coeff in state.items():
            entries = table.get(tuple([key[r] for r in lookup]))
            if not entries:
                continue
            base = tuple([key[j] for j in keep])
            odd = sum([parity[label] << j for j, label in enumerate(key)]) if signed else 0
            for regs, val, mask in entries:
                val = coeff * val   # nonzero: the rings have no zero divisors
                if odd & mask and (odd & mask).bit_count() & 1:
                    val = -val
                _accum(nxt, base + regs, val)
        state = nxt
    tensor = {}
    for key, coeff in state.items():
        labels = tuple(key[j] for j in circle)
        if sum(parity[labels[i]] & parity[labels[j]] for i, j in swapped) & 1:
            coeff = -coeff
        tensor[labels] = coeff
    return tensor


# -- validate by dense loops ------------------------------------------------------------


def _bracket_lc(L, lc1, lc2):
    """Bracket of two linear combinations {index: coeff}."""
    out = {}
    for i, a in lc1.items():
        for j, b in lc2.items():
            ab = a * b
            for k, c in L.bracket(i, j).items():
                s = out.get(k, 0) + ab * c
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
    return out


def _is_zero_lc(lc):
    return all(not v for v in lc.values())


def dense_jacobi_failures(L):
    """Every basis triple, in lexicographic order, whose super-Jacobiator
    [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]] is not zero."""
    n = L.dim
    par = L.parity
    failures = []
    for x in range(n):
        for y in range(n):
            bxy = L.bracket(x, y)
            for z in range(n):
                lhs = _bracket_lc(L, {x: 1}, L.bracket(y, z))
                rhs = _bracket_lc(L, bxy, {z: 1})
                sgn = -1 if (par[x] and par[y]) else 1
                for k, c in _bracket_lc(L, {y: 1}, L.bracket(x, z)).items():
                    rhs[k] = rhs.get(k, 0) + sgn * c
                diff = dict(lhs)
                for k, c in rhs.items():
                    diff[k] = diff.get(k, 0) - c
                if not _is_zero_lc(diff):
                    failures.append((L.basis_names[x], L.basis_names[y], L.basis_names[z]))
    return failures


def dense_validate(L):
    """``weightsys.superalgebras.validate`` with every check a loop over all
    basis pairs or triples: the super-Jacobiator as brackets of linear
    combinations (:func:`dense_jacobi_failures`), the form's invariance as
    two sums per triple."""
    n = L.dim
    par = L.parity
    report = {}

    failures = []
    for i in range(n):
        for j in range(n):
            sgn = -1 if (par[i] and par[j]) else 1
            # [x,y] + (-1)^{|x||y|} [y,x] = 0
            diff = dict(L.bracket(i, j))
            for k, c in L.bracket(j, i).items():
                diff[k] = diff.get(k, 0) + sgn * c
            if not _is_zero_lc(diff):
                failures.append((L.basis_names[i], L.basis_names[j]))
    report["super_antisymmetry"] = {"ok": not failures, "failures": failures[:5]}

    failures = dense_jacobi_failures(L)
    report["super_jacobi"] = {"ok": not failures, "failures": failures[:5]}

    # Casimir ad-invariance: [x (x) 1 + 1 (x) x, omega] = 0 with Koszul sign
    # (-1)^{|x||first leg|} on the second summand.
    failures = []
    for x in range(n):
        acc = {}
        for i, j, c in L.casimir:
            sgn = -1 if (par[x] and par[i]) else 1
            for k, v in L.bracket(x, i).items():
                acc[k, j] = acc.get((k, j), 0) + c * v
            for k, v in L.bracket(x, j).items():
                acc[i, k] = acc.get((i, k), 0) + sgn * c * v
        if not _is_zero_lc(acc):
            failures.append(L.basis_names[x])
    report["casimir_ad_invariance"] = {"ok": not failures, "failures": failures[:5]}

    try:
        N, D = L.form
    except ValueError:  # the Casimir matrix is singular: no form to check
        N = None
    report["casimir_regular"] = {"ok": N is not None, "failures": []}
    if N is None:
        for name in ("casimir_inverse_tensor", "form_supersymmetric", "form_invariant"):
            report[name] = {"ok": False, "failures": []}
        report["ok"] = False
        return report

    mat = L.casimir_matrix()
    failures = []
    for i in range(n):
        for k in range(n):
            acc = sum(mat[i][j] * N[j][k] for j in range(n) if mat[i][j])
            if acc != (D if i == k else 0):
                failures.append((i, k))
    report["casimir_inverse_tensor"] = {"ok": not failures, "failures": failures[:5]}

    failures = []
    for i in range(n):
        for j in range(n):
            sgn = -1 if (par[i] and par[j]) else 1
            if N[i][j] != (N[j][i] * sgn if sgn == -1 else N[j][i]):
                failures.append((L.basis_names[i], L.basis_names[j]))
            if par[i] != par[j] and N[i][j]:
                failures.append((L.basis_names[i], L.basis_names[j], "parity"))
    report["form_supersymmetric"] = {"ok": not failures, "failures": failures[:5]}

    # invariance <[x,y],z> = <x,[y,z]>
    failures = []
    for x in range(n):
        for y in range(n):
            bxy = L.bracket(x, y)
            for z in range(n):
                lhs = sum(c * N[k][z] for k, c in bxy.items())
                rhs = sum(c * N[x][k] for k, c in L.bracket(y, z).items())
                if lhs != rhs:
                    failures.append((L.basis_names[x], L.basis_names[y], L.basis_names[z]))
    report["form_invariant"] = {"ok": not failures, "failures": failures[:5]}

    report["ok"] = all(v["ok"] for k, v in report.items() if isinstance(v, dict))
    return report


def algebra_fields(L):
    """The six constructor fields of algebra L, its root data's by value:
    equal for two builds of one algebra.  Neither the cached ``form`` nor
    the ``carriers`` is among them."""
    return (L.name, L.basis_names, L.parity, L.bracket_table, L.casimir, vars(L.rootdata))


def corrupt(L, i, j, k, delta):
    """Copy of L with one structure constant shifted (negative control),
    labelled after the shift; it starts with no carriers of its own."""
    table = {key: dict(val) for key, val in L.bracket_table.items()}
    row = table.setdefault((i, j), {})
    row[k] = row.get(k, 0) + delta
    if not row[k]:
        del row[k]
    name = f"{L.name}_corrupt({i},{j},{k},{delta})"
    return SuperAlgebra(name, list(L.basis_names), L.parity,
                        table, list(L.casimir), L.rootdata)


def cartan_matrix(kind, rank):
    """The Cartan matrix ``A[i][j] = 2 (a_i, a_j) / (a_i, a_i)`` of the simple
    Lie algebra of type ``kind`` (one of "ABCDEFG") and ``rank``, its simple
    roots numbered as in Bourbaki."""
    if kind == "G":
        return [[2, -1], [-3, 2]]
    if kind == "F":
        return [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]]
    A = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    edges = [(i, i + 1) for i in range(rank - 1)]
    if kind == "D":
        edges[-1] = (rank - 3, rank - 1)
    elif kind == "E":
        edges = [(0, 2), (2, 3), (1, 3)] + edges[3:]
    for i, j in edges:
        A[i][j] = A[j][i] = -1
    if kind == "B":
        A[rank - 1][rank - 2] = -2   # a_rank is short
    elif kind == "C":
        A[rank - 2][rank - 1] = -2   # a_rank is long
    return A


def positive_roots(A):
    """The positive roots, as coordinate tuples over the simple roots, found
    by root strings height by height: r + a_i is a root iff p - <r, a_i^vee>
    > 0, where p counts the roots r - a_i, r - 2 a_i, ... and <r, a_i^vee>
    is the sum over j of r_j A[i][j]."""
    n = len(A)
    layer = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set(layer)
    while layer:
        higher = []
        for r in layer:
            for i in range(n):
                p = 0
                while r[i] > p and r[:i] + (r[i] - p - 1,) + r[i + 1:] in roots:
                    p += 1
                up = r[:i] + (r[i] + 1,) + r[i + 1:]
                if p - sum(r[j] * A[i][j] for j in range(n)) > 0 and up not in roots:
                    roots.add(up)
                    higher.append(up)
        layer = higher
    return roots


def root_system_invariants(kind, rank):
    """(h^vee, dim g) of the simple Lie algebra of type ``kind`` and
    ``rank``: the form is ``(a_i, a_j) = d_i A[i][j]`` with
    ``d_j = d_i A[i][j] / A[j][i]`` scaled so that long roots have squared
    length 2, ``h^vee = (theta, 2 rho) / 2 + 1`` with theta the highest
    root, and ``dim g = rank + 2 |Delta+|``."""
    A = cartan_matrix(kind, rank)
    d = [None] * rank
    d[0] = Fraction(1)
    pending = [0]
    while pending:
        i = pending.pop()
        for j in range(rank):
            if A[i][j] and d[j] is None:
                d[j] = d[i] * A[i][j] / A[j][i]
                pending.append(j)
    d = [x / max(d) for x in d]
    roots = positive_roots(A)
    theta = max(roots, key=sum)
    two_rho = [sum(r[j] for r in roots) for j in range(rank)]
    theta_two_rho = sum(theta[i] * two_rho[j] * d[i] * A[i][j]
                        for i in range(rank) for j in range(rank))
    return theta_two_rho / 2 + 1, rank + 2 * len(roots)


def vogel_invariants(triple):
    """(t, dim) of a Vogel parameter triple (lam, mu, nu) with lam = -2:
    ``t = lam + mu + nu`` and ``dim = (lam-2t)(mu-2t)(nu-2t) / (lam mu
    nu)``, which are h^vee and dim g when the triple is a simple Lie
    algebra's (Vogel, "The universal Lie algebra", 1999)."""
    lam, mu, nu = map(Fraction, triple)
    t = lam + mu + nu
    return t, (lam - 2 * t) * (mu - 2 * t) * (nu - 2 * t) / (lam * mu * nu)


def hand_p_factors():
    """P's fifteen linear factors in lam, mu, nu, built term by term in the
    order of ``characters.FACTOR_LABELS``: t+a and t-a for a = lam, mu, nu,
    a+2b over the ordered pairs of distinct a, b, and 3a-2t, with t = lam +
    mu + nu."""
    lam, mu, nu = (MultiPoly.variable(v).with_vars(LMN) for v in LMN)
    t = lam + mu + nu
    fs = [t + lam, t + mu, t + nu, t - lam, t - mu, t - nu]
    fs += [a + 2 * b for a, b in itertools.permutations((lam, mu, nu), 2)]
    fs += [3 * a - 2 * t for a in (lam, mu, nu)]
    return fs


# (t+lam)(t+mu)(t+nu) in e1, e2, e3: 2 e1^3 + e1 e2 + e3
IMAGE_MODULUS = MultiPoly(E, {(3, 0, 0): 2, (1, 1, 0): 1, (0, 0, 1): 1})


def sl2_transcription():
    """sl2's bracket table and Casimir written out entry by entry, basis
    (e, h, f) = (0, 1, 2): [h, e] = 2e, [h, f] = -2f, [e, f] = h, and omega
    = e (x) f + f (x) e + h (x) h / 2, rows and terms in the order
    ``superalgebras.sl2`` writes them."""
    e, h, f = 0, 1, 2
    one = Fraction(1)
    table = {(h, e): {e: 2 * one}, (e, h): {e: -2 * one}, (h, f): {f: -2 * one},
             (f, h): {f: 2 * one}, (e, f): {h: one}, (f, e): {h: -one}}
    casimir = [(e, f, one), (f, e, one), (h, h, Fraction(1, 2))]
    return table, casimir


def split_casimir_minimal_polynomial(L):
    """The minimal polynomial, in x, of the split Casimir Omega on g (x) g
    of an algebra L over Q, found by Krylov iteration from one seeded
    integer vector over Fractions.

    Omega is the sum over (x, y, c) in the Casimir of c ad(x) (x) ad(y),
    with the Koszul sign (-1)^(|y| |a|) on e_a (x) e_b.  In Vogel's
    normalization it acts by -2t on the invariant line, by -t on g and by
    -x on Y2(x) for x = lam, mu, nu (Vogel, "Algebraic structures on
    modules of diagrams", J. Pure Appl. Algebra 215 (2011)).  The vector's
    minimal polynomial divides Omega's and equals it for a generic vector;
    each new power of Omega applied to it is reduced against the earlier
    ones until it depends on them."""
    n, par = L.dim, L.parity
    rng = random.Random(0)
    vec = {(a, b): Fraction(rng.randrange(-9, 10)) for a in range(n) for b in range(n)}

    def omega(v):
        out = {}
        for (a, b), c in v.items():
            for x, y, w in L.casimir:
                sw = -w * c if par[y] and par[a] else w * c
                for k, u in L.bracket(x, a).items():
                    for m, z in L.bracket(y, b).items():
                        out[k, m] = out.get((k, m), 0) + sw * u * z
        return {key: c for key, c in out.items() if c}

    rows = []   # (pivot, row with 1 at its pivot, the row in the Krylov basis)
    power = 0
    while True:
        rest, comb = dict(vec), {power: Fraction(1)}
        for pivot, row, rcomb in rows:
            f = rest.get(pivot, 0)
            if f:
                for key, c in row.items():
                    rest[key] = rest.get(key, 0) - f * c
                for i, c in rcomb.items():
                    comb[i] = comb.get(i, 0) - f * c
        rest = {key: c for key, c in rest.items() if c}
        if not rest:
            return MultiPoly.from_univariate("x", [comb.get(i, 0) for i in range(power + 1)])
        pivot = min(rest)
        scale = rest[pivot]
        rows.append((pivot, {key: c / scale for key, c in rest.items()},
                     {i: c / scale for i, c in comb.items()}))
        vec = omega(vec)
        power += 1
