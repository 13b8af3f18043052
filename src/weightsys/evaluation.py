"""Weight-system evaluation: state sums and Verma highest-weight values.

A skeleton diagram is evaluated one of two ways, chosen by its shape alone:

- with more trivalent vertices than legs (``d.nt > d.nu``, as an insertion
  into a wheel), its internal graph is contracted into one sparse tensor on
  its legs (``leg_tensor``), which ``sweep_legs`` then applies along the
  circle;
- otherwise (chord diagrams, wheels) it is STU-reduced to chord diagrams,
  each contracted by ``sweep_chords``.

Each STU step doubles the terms at a trivalent vertex, so contraction wins
where vertices outnumber legs: the symmetrized triangle-inserted 4-wheel on
symbolic D(2,1,alpha) took 2.4 s through 41 chord diagrams and takes 0.07 s
as three leg tensors, all zero (2-core host, CPython 3.11).  Where they do
not, the leg tensor is large and STU wins on D(2,1,alpha): the symmetrized
4-wheel on symbolic D(2,1,alpha) takes 0.37 s through STU and 0.44 s by
contraction, and the 6-wheel on D(2,1,2) took 65 s and 121 s in a
prototype of this contraction, with a 290,159-entry tensor.

The chord sweep goes right to left along the circle.  Each chord carries
one Casimir term (x, y, w): y acts at the later endpoint, x is held pending
until the earlier endpoint.  A state is keyed by its pending assignments.
An opening gives each state one new key per term, so it merges nothing, and
a run of openings streams its states one at a time into the closing after
it.  A closing drops the closed chord's pending and merges branches with
equal pendings -- exact sparse tensor contraction along a path -- and only
a closing's map of states is stored.  So the widest stored map has one
open chord fewer than the widest point of the sweep: the four pairwise
crossing chords on D(2,1,2) store at most 4,097 adjoint states where the
widest point has 51,677.  The rotation of the cut is chosen to keep the
number of simultaneously open chords small.

Koszul signs: permuting the Casimir factors into circle order costs exactly
one factor of -1 per *crossing* pair of chords whose terms are both odd
(nested and disjoint pairs contribute nothing because the two legs of one
Casimir term always have equal parity).  The sweep applies the sign when a
chord opens, against the already-open odd chords it crosses; the leg
contraction applies the same rule to the Casimir edges of its layout.

Both methods share the carriers.  A carrier owns its scalar ring, the
Casimir ``terms`` and the ``bracket`` table in it, and implements
``start``, ``apply`` and ``extract(state, degree)``, which turns the final
state of a diagram of that degree into its scalar.  ``_evaluate`` plans
every sweep against ``EVAL_SWEEP_LIMIT`` before it runs any, and each
carrier memoizes the values in ``carrier.values``, keyed by canonical chord
diagram or canonical contracted diagram.  An algebra holds its own
carriers in ``L.carriers``, one per Verma weight and one for the adjoint,
built on first use and kept while the algebra lives; an algebra built
again starts with none.  The two carriers are independent:

- the Verma module of highest weight n*lambda0: PBW monomial states with
  MultiPoly coefficients in Q[n] or Q[n, alpha], whose packed int storage
  keeps Fraction arithmetic out of the sweep;
- the adjoint representation: basis-vector states on ints, or on
  MultiPolys in Q[alpha] for symbolic D(2,1,alpha).  The ad maps (the
  bracket table) and the Casimir weights are scaled to integers once, so
  the sweep accumulates the full endomorphism times a known power of the
  scale; ``extract`` Schur-checks it to be an exact scalar and divides that
  power out, handing out a Fraction, or a MultiPoly in alpha.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .diagrams import DiagramError, LinComb, chord_endpoints, chord_reduce
from .scalars import CostBoundError, MultiPoly

# the planned cost of one sweep (see sweep_cost): 3,017,194 on D(2,1,alpha)
# takes about 10 s, and the all-crossing degree-6 chord diagram plans 51,292,332
EVAL_SWEEP_LIMIT = 4_000_000


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
    odd exponents stay in {0, 1}: an odd x squares to [x, x]/2, and the
    constructor raises ValueError unless that is zero.
    Coefficients are MultiPolys in the ring Q[n] or Q[n, alpha]: the bracket
    table, the Casimir terms and lambda are put in the ring's variables
    once, here, so every product in the sweep takes MultiPoly's path for
    equal variables.  ``extract`` hands out the final coefficient.
    """

    def __init__(self, L, lambda0):
        rd = L.rootdata
        self.parity = L.parity
        self.neg = rd.negative_order
        for y in self.neg:
            if self.parity[y] and any(L.bracket_table.get((y, y), {}).values()):
                raise ValueError(f"odd lowering operator {L.basis_names[y]} "
                                 f"has a nonzero square in {L.name}")
        self.neg_index = {b: i for i, b in enumerate(self.neg)}
        self.cartan_index = {h: i for i, h in enumerate(rd.cartan)}
        zero = self.zero = MultiPoly.zero(("n", "alpha") if L.symbolic else ("n",))
        # adding a scalar to the ring's zero puts it in the ring's variables
        self.one = zero + 1
        self.bracket = {key: {k: zero + c for k, c in row.items()}
                        for key, row in L.bracket_table.items()}
        self.terms = [(x, y, zero + w, L.parity[x]) for x, y, w in L.casimir]
        n = MultiPoly.variable("n")
        self.lam = {h: zero + n * lambda0[i] for h, i in self.cartan_index.items()}
        self.zero_mono = (0,) * len(self.neg)
        self._memo = {}
        self.values = {}

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
            # positive root vectors annihilate v_lambda
        else:
            xi = self.neg_index.get(x)
            if xi is not None and xi < first:
                m = list(mono)
                m[xi] = 1
                out[tuple(m)] = self.one
            elif xi == first:
                # an odd x squares to [x, x]/2, which __init__ checks is 0
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


class EndoCarrier:
    """States (input column, basis index) of the adjoint representation, on
    ints, or on MultiPolys in Q[alpha] for symbolic D(2,1,alpha).

    The ad columns, which are the bracket table, are scaled by ``da``, the
    lcm of their denominators, and the Casimir weights by ``dw``, so every
    entry becomes an integer (polynomial) once, here.  A diagram of degree
    m has 2m trivalent vertices and legs, each applying the bracket or an ad
    map once, and m Casimir edges, so its final state is the full
    endomorphism times ``(da**2 * dw)**m``; ``extract`` Schur-checks it and
    divides once.
    """

    def __init__(self, L):
        columns = adjoint_rep(L)
        if L.symbolic:
            # adding a scalar to the ring's zero puts it in Q[alpha]
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
        self.values = {}

    def start(self):
        return {(j, j): self.one for j in range(self.dim)}

    def extract(self, endo, degree):
        """The scalar of the final endomorphism: the Schur check (zero off
        the diagonal, one value on it) runs on the scaled entries, then one
        division by the scale of the diagram's degree."""
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
    0 .. 2*len(chords) - 1, into the carrier's scalar.

    A run of openings is a chain of ``_open`` generators that the closing
    after it consumes, one (pendings, state) item at a time; only a closing,
    the one step that merges keys, stores its states.  Position 0 ends a
    chord, so the sweep ends on a closing."""
    terms = carrier.terms
    n_positions = 2 * len(chords)
    chords, _ = _plan_rotation(chords, n_positions, len(terms))
    open_at = {q: ci for ci, (p, q) in enumerate(chords)}
    close_at = {p: ci for ci, (p, q) in enumerate(chords)}
    states = {(): carrier.start()}
    items = states.items()
    for pos in range(n_positions - 1, -1, -1):
        if pos in open_at:
            items = _open(carrier, items, open_at[pos], chords)
        elif pos in close_at:
            ci = close_at[pos]
            states = {}
            for pend, vec in items:
                ti = next(t for c, t in pend if c == ci)
                vec2 = carrier.apply(terms[ti][0], vec)
                pend2 = tuple((c, t) for c, t in pend if c != ci)
                if vec2:
                    _merge(states, pend2, vec2)
            if not states:
                break
            items = states.items()
        else:
            raise DiagramError("position is neither a chord opening nor closing")
    return carrier.extract(states.get((), {}), len(chords))


def _open(carrier, items, ci, chords):
    """Chord ci opens on each (pendings, state) item: y of each Casimir term
    acts, with the sign of the open odd chords that ci crosses.  No two
    outputs share pendings, so nothing merges here."""
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


def _merge(states, pend, vec):
    cur = states.get(pend)
    if cur is None:
        states[pend] = vec
    else:
        for k, v in vec.items():
            _accum(cur, k, v)


# ------------------------------------------------------------ leg contraction
#
# Each trivalent vertex takes its label through one dart, its output: a root
# through the dart to a leg, any later vertex through the dart to an earlier
# one.  The output's label is a component of the bracket [y, x] of the
# labels of the two darts after it in the cyclic order, y on the second and
# x on the first: STU at a leg sends the vertex to D[.., y, x, ..] -
# D[.., x, y, ..], the bracket's expansion in the representation.  Every
# other edge, chords included, carries the Casimir.
#
# Signs.  Lay the legs out in a reference order: each connected internal
# part's root leg, then its other legs in the order they get labels, then
# each chord's two ends side by side.  Replacing the root leg by the root's
# arguments (y, x), and an argument fed by a later vertex by that vertex's
# arguments, recursively, turns the layout into a sequence of Casimir
# half-edges.  A term's sign is the Koszul sign of bringing each Casimir's
# halves together: -1 per crossing pair of odd edges.  A pair's sign is taken
# when the first of its two edges has both ends placed.  The other edge's
# parity is then a register's (one end placed), or is summed up through the
# registers that stand for unplaced subgraphs: a bracket is even, so such a
# register's parity is that of all the halves below it.  Each step's sign
# thus reads registers only, and states with equal registers merge.  Last,
# the legs are permuted from the reference order into circle order with the
# Koszul sign of their odd labels.  The bracket tensor is cyclic under this
# rule, so any vertex may take any output; the next vertex is the one with
# the most edges to vertices already placed, which keeps the registers few.


def _leg_plan(d):
    """The steps of ``leg_tensor`` for skeleton diagram d, with no labels.

    A state's registers hold the labels of the legs set so far and, for
    each edge from a placed to an unplaced vertex, the label its unplaced
    dart must take.  A step is (lookup, keep, what): the registers it reads,
    those it keeps, and ("chord",) or ("vertex", root, checked, new,
    closing).  A vertex reads the label its output must take (a root labels
    its leg instead), then those its inputs in ``checked`` must match, x
    being input 0 and y input 1.  ``new`` lists what it appends: ("out",)
    the root's leg, ("pass", input) an input's label for a later vertex's
    output, or ("edge", input, first) the other end's label of the input's
    Casimir edge, first when the input's half comes first in the layout.
    ``closing`` lists each edge that gets both ends placed, in order, as
    (the input whose parity is the edge's, the mask of kept registers and
    the counts of x and y parities that its sign reads).  Returns (steps,
    the register of each leg in circle order, the pairs of circle positions
    that the reference order has the other way round).
    """
    nt, nt3, pairing = d.nt, 3 * d.nt, d.pairing
    circle = [nt3 + u - nt for u in d.skel]   # leg darts

    def turn(x):
        return x - x % 3 + (x + 1) % 3

    def across(x):
        """The trivalent vertex at the other end of dart x's edge, if any."""
        return pairing[x] // 3 if pairing[x] < nt3 else None

    rank, out = {}, {}
    while len(rank) < nt:
        placed = {v: [x for x in range(3 * v, 3 * v + 3) if across(x) in rank]
                  for v in range(nt) if v not in rank}
        v = max(placed, key=lambda v: (len(placed[v]), -v))
        if placed[v]:
            out[v] = min(placed[v], key=lambda x: rank[across(x)])
        else:
            # a new component: its root takes the first free leg on the circle
            g = next((g for g in circle if across(g) is not None and across(g) not in rank), None)
            if g is None:
                raise DiagramError("internal part detached from the skeleton")
            v = across(g)
            out[v] = pairing[g]
        rank[v] = len(rank)
    order = list(rank)   # in the order placed
    fed = {pairing[o]: v for v, o in out.items()}   # dart -> vertex whose output it carries

    def halves(x):
        """The Casimir half-edges standing in for what dart x carries."""
        v = fed.get(x)
        if v is None:
            return [x]
        return halves(turn(turn(out[v]))) + halves(turn(out[v]))

    layout, legs = [], []   # the half-edges, and the legs, in reference order
    for v in order:
        o = out[v]
        if pairing[o] >= nt3:
            legs.append(pairing[o])
            layout += halves(pairing[o])
        for q in map(pairing.__getitem__, (turn(o), turn(turn(o)))):
            if q >= nt3:
                legs.append(q)
                layout.append(q)
    for g in circle:
        if across(g) is None and g not in legs:
            legs += [g, pairing[g]]
            layout += [g, pairing[g]]
    pos = {x: i for i, x in enumerate(layout)}

    def inside(a, b, span):
        # an open edge counts by its placed half, an unplaced subgraph whole
        return span is not None and a < span[0] and span[1] < b

    # each register's dart, and its span in the layout: an open edge's
    # placed half, an unplaced subgraph's halves, or None for a leg
    darts, spans, steps = [], [], []
    for v in order:
        o = out[v]
        ins = (turn(o), turn(turn(o)))
        lookup = [darts.index(t) for t in (o, *ins) if t in darts]
        checked = [w for w, t in enumerate(ins) if t in darts]
        keep = [j for j, t in enumerate(darts) if t not in (o, *ins)]
        spans, darts = [spans[j] for j in keep], [darts[j] for j in keep]
        root = pairing[o] >= nt3
        new, ends, fresh = [], [], []   # ends: (input, the edge's positions) of closing edges
        if root:
            new.append(("out",))
            spans.append(None)
            darts.append(pairing[o])
        for w, t in enumerate(ins):
            q = pairing[t]
            if w in checked:   # to a placed vertex
                ends.append((w, sorted((pos[t], pos[q]))))
            elif q < nt3 and out[q // 3] == q:
                block = [pos[x] for x in halves(t)]
                new.append(("pass", w))
                fresh.append((w, (block[0], block[-1])))
                spans.append(fresh[-1][1])
                darts.append(q)
            else:
                new.append(("edge", w, pos[t] < pos[q]))
                if q >= nt3:
                    ends.append((w, sorted((pos[t], pos[q]))))
                    spans.append(None)
                else:
                    fresh.append((w, (pos[t], pos[t])))
                    spans.append(fresh[-1][1])
                darts.append(q)
        closing = []
        for i, (w, (a, b)) in enumerate(ends):
            mask = sum(1 << keep[j] for j in range(len(keep)) if inside(a, b, spans[j]))
            counts = [0, 0]
            for w2, span in fresh:
                counts[w2] ^= inside(a, b, span)
            for w2, (a2, b2) in ends[i + 1:]:
                counts[w2] ^= (a < a2 < b) != (a < b2 < b)
            closing.append((w, mask, *counts))
        steps.append((lookup, keep, ("vertex", root, checked, new, closing)))
    for g in circle:
        if across(g) is None and pos[g] < pos[pairing[g]]:
            steps.append(([], list(range(len(darts))), ("chord",)))
            darts += [g, pairing[g]]
    ref = [legs.index(g) for g in circle]
    swapped = [(i, j) for j in range(len(circle)) for i in range(j) if ref[i] > ref[j]]
    return steps, [darts.index(g) for g in circle], swapped


def _step_table(what, carrier, parity, first, second):
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


def leg_tensor(carrier, d):
    """The internal graph of skeleton diagram d contracted into a sparse
    tensor on its legs: {labels of the legs in circle order: coefficient},
    the coefficients in the carrier's ring and at its scale.

    d has no self-loop.  A diagram with one is zero by AS (reversing the
    looped vertex and swapping its two loop darts is an odd automorphism),
    and ``_parts`` drops zero diagrams before any contraction.
    """
    steps, circle, swapped = _leg_plan(d)
    parity = {x: par for x, _, _, par in carrier.terms}
    # the Casimir relabels: a label at an edge's first (second) half gives
    # the other half's label and the weight
    first = {x: (y, w) for x, y, w, _ in carrier.terms}
    second = {y: (x, w) for x, y, w, _ in carrier.terms}
    if not len(first) == len(second) == len(carrier.terms):
        raise ValueError("leg contraction needs one Casimir partner per basis element")
    state = {(): carrier.one}
    for lookup, keep, what in steps:
        table = _step_table(what, carrier, parity, first, second)
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


def sweep_legs(carrier, tensor, degree):
    """Act with a leg tensor along the circle into the carrier's scalar of a
    diagram of the given degree.

    The entries are walked depth-first through the trie of their label
    suffixes, so each trie node is one ``carrier.apply`` and at most one
    state per leg is alive; an entry's coefficient scales its first leg.
    """
    total = {}
    stack = [carrier.start()]   # stack[k]: the state after the last k legs
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


# ------------------------------------------------------------ public surface


def _parts(d):
    """[(canonical diagram, coefficient)]: the diagrams whose values make
    up skeleton diagram d's.  That is d's canonical form when d has more
    trivalent vertices than legs, evaluated by contraction; otherwise the
    chord diagrams of its STU reduction, each swept."""
    if d.skel is None:
        raise DiagramError("weight systems evaluate skeleton diagrams")
    if d.nt > d.nu:
        canon, sign, zero = d.canonical()
        return [] if zero else [(canon, sign)]
    return list(chord_reduce(d))


def _cost(x, L):
    """The planned cost of evaluating one part: a chord diagram's sweep plan
    (``_plan_rotation``), or for a contracted diagram the size of the
    largest leg trie, a branch per basis element at each leg."""
    if x.is_chord_diagram():
        ends = chord_endpoints(x)
        return _plan_rotation(ends, 2 * len(ends), len(L.casimir))[1]
    return sum(L.dim ** k for k in range(1, x.nu + 1))


def sweep_cost(d, L):
    """The largest planned cost of the sweeps that evaluating a skeleton
    diagram on L runs; nothing is swept or contracted."""
    return max((_cost(x, L) for x, _ in _parts(d)), default=0)


def _evaluate(d, L, carrier, check=None):
    """Value of a skeleton diagram, or a LinComb of them, on L's carrier.

    Part values come from ``carrier.values`` or are computed fresh, after
    every part still to compute is planned within ``EVAL_SWEEP_LIMIT``;
    ``check(diagram, value)`` runs on the value of every diagram.
    """
    terms = d if isinstance(d, LinComb) else [(d, 1)]
    parts = [(diag, c, [(x.canonical_key(), x, cx) for x, cx in _parts(diag)])
             for diag, c in terms]
    for _, _, ps in parts:
        for key, x, _ in ps:
            if key not in carrier.values:
                cost = _cost(x, L)
                if cost > EVAL_SWEEP_LIMIT:
                    raise CostBoundError(f"a sweep of this diagram on {L.name} plans cost {cost}, "
                                         f"above the eval bound {EVAL_SWEEP_LIMIT}")
    values = []
    for diag, _, ps in parts:
        value = carrier.zero
        for key, x, cx in ps:
            part = carrier.values.get(key)
            if part is None:
                if x.is_chord_diagram():
                    part = sweep_chords(carrier, chord_endpoints(x))
                else:
                    part = sweep_legs(carrier, leg_tensor(carrier, x), x.degree)
                carrier.values[key] = part
            value = value + part * Fraction(cx)
        if check is not None:
            check(diag, value)
        values.append(value)
    if not isinstance(d, LinComb):
        return values[0]
    total = carrier.zero
    for (_, c, _), value in zip(parts, values):
        total = total + value * Fraction(c)
    return total


def eval_verma(d, L, lambda0):
    """Scalar action of a skeleton diagram on the Verma module of weight
    n*lambda0, as an exact polynomial in n (and alpha, symbolically).

    The degree bound deg_n <= (number of skeleton vertices) is asserted on
    every diagram evaluated.
    """
    key = tuple(lambda0)
    if key not in L.carriers:
        L.carriers[key] = VermaCarrier(L, lambda0)
    return _evaluate(d, L, L.carriers[key], check=_assert_degree_bound)


def _assert_degree_bound(d, value):
    if value.degree_in("n") > len(d.skel):
        raise AssertionError(
            f"degree bound violated: deg_n={value.degree_in('n')} > {len(d.skel)} skeleton vertices")


def eval_state_sum(d, L):
    """Scalar by which a skeleton diagram acts in the adjoint representation.

    The full endomorphism is computed and Schur-checked to be an exact
    scalar multiple of the identity; the scalar is returned.
    """
    if "adjoint" not in L.carriers:
        L.carriers["adjoint"] = EndoCarrier(L)
    return _evaluate(d, L, L.carriers["adjoint"])


def adjoint_weight(L):
    """Highest weight of the adjoint representation, in H* coordinates."""
    return L.rootdata.highest_root
