"""Weight-system evaluation: state sums and Verma highest-weight values.

A skeleton diagram is evaluated one of two ways, chosen by its shape alone:

- with more trivalent vertices than legs (``d.nt > d.nu``, as an insertion
  into a wheel), its internal graph is contracted into one sparse tensor on
  its legs (``leg_tensor``), which ``sweep_legs`` closes along the circle
  by the chord sweep's closing step;
- otherwise (chord diagrams, wheels) it is STU-reduced to chord diagrams,
  each contracted by ``sweep_chords``.

Each STU step doubles the terms at a trivalent vertex, so contraction wins
where vertices outnumber legs: the symmetrized triangle-inserted 4-wheel on
symbolic D(2,1,alpha) takes 0.56 s through 41 chord diagrams and 0.017 s
as three leg tensors, all empty (2-core host, CPython 3.11).  Where they do
not, the leg tensor is large and STU wins on D(2,1,alpha): the symmetrized
4-wheel on symbolic D(2,1,alpha) takes 0.05 s through STU and 0.13 s by
contraction, and the 6-wheel on D(2,1,2) took 65 s and 121 s in a
prototype of this contraction, with a 290,159-entry tensor.

The chord sweep goes right to left along the circle.  Each chord carries
one Casimir term (x, y, w): y acts at the later endpoint, and the label x
is held pending until the earlier endpoint.  Each branch's state is keyed
by its pending labels.  An opening gives each state one new key per term,
so it merges nothing, and a run of openings streams its states one at a
time into the closing after it.  A closing acts with the closed chord's
label and merges branches with equal pendings -- exact sparse tensor
contraction along a path -- and only a closing's map of states is stored.
So the widest stored map has one open chord fewer than the widest point of
the sweep: the four pairwise crossing chords on D(2,1,2) store at most
4,097 adjoint states where the widest point has 51,677.  The last opening
of a run is applied inside the closing after it: each entry of the
opening's table goes on through the closing label's table straight into
the merged state, so the opened states are never built.  ``_plan_rotation``
picks the cut that keeps few chords open at once, and the sweep runs it.
A leg tensor's entry is a branch pending on all its labels.

Prime factors.  Chords in different connected components of a chord
diagram's crossing graph do not cross, so each component lies in a single
gap of every other one, and the diagram is the connected sum of its
components, its primes.  A weight system maps a connected sum to the
product of its factors' values, which are central elements of U(g)
(Bar-Natan, "On the Vassiliev knot invariants", Topology 34 (1995)), and
the sum has no Koszul sign between factors, which do not cross.  So a
Verma value is the product of the primes' central characters, exactly,
and an adjoint endomorphism is the composite of the primes' scalar ones,
each Schur-checked.  ``_primes`` finds a chord class's primes once, keyed
by its gap word as ``diagrams._chord_form`` is, and a chord diagram is
swept only as a prime: 197 of wheel 6's 291 chord diagrams are composite.

Koszul signs: permuting the Casimir factors into circle order costs exactly
one factor of -1 per *crossing* pair of chords whose terms are both odd
(nested and disjoint pairs contribute nothing because the two legs of one
Casimir term always have equal parity).  The sweep applies the sign when a
chord opens, against the already-open odd chords it crosses; the leg
contraction applies the same rule to the Casimir edges of its layout.

Both methods share the carriers.  A carrier holds the bracket table and
the Casimir ``terms`` as int entries (below), which is what ``leg_tensor``
reads, and implements ``start``, ``apply`` and ``extract(state, degree)``,
which turns the final state of a diagram of that degree into its scalar.
``_evaluate`` plans each distinct prime once (``_plan``: how it runs and
its cost), checks every plan against ``EVAL_SWEEP_LIMIT`` before it runs
any, so the bound applies to each prime's sweep, and each carrier
memoizes the values in ``carrier.values``, keyed by canonical prime chord
diagram or contracted diagram.  An algebra holds its own carriers
in ``L.carriers``, one per Verma weight and one for the adjoint, built on
first use and kept while the algebra lives; an algebra built again starts
with none.

Both carriers run on one scaling rule and one int state.  The generators
(the bracket table, and on a Verma module the Cartan action n*lambda0) are
scaled by ``da``, the lcm of the bracket's denominators, and the Casimir
weights by ``dw``.  A diagram of degree m applies 2m generators (its legs
and trivalent vertices) and m Casimir weights, so its final state is the
true one times ``(da**2 * dw)**m``, which ``extract`` divides out once.
A state is one dict from an int key to a nonzero int.  The key packs the
basis element the operators act on above what they do not act on: the
exponents of n and alpha, in MultiPoly's own 32-bit fields, so ``extract``
hands them to MultiPoly as they are, and on the adjoint the input column.
An operator is a table from acted-on element to its entries ((key offset,
int), ...), and ``apply`` is the one kernel that runs either carrier's
tables.  Each scaled bracket entry and Casimir weight is held as such
entries, alpha's exponent as an offset, so leg contraction runs on the
same ints: its states map (registers, alpha offset) to an int.  The two
carriers:

- the Verma module of highest weight n*lambda0: the acted-on element is a
  PBW monomial, numbered as the sweep meets it, in the lowering operators
  scaled by ``da``, so every operator has integer entries; the value lies
  in Q[n] or Q[n, alpha];
- the adjoint representation: the acted-on element is a row of the
  endomorphism; ``extract`` Schur-checks the final endomorphism to be an
  exact scalar, a Fraction, or a MultiPoly in alpha.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .diagrams import (DiagramError, LinComb, _gap_word, chord_diagram_from_word, chord_endpoints,
                       chord_reduce)
from .scalars import _BITS, CostBoundError, MultiPoly, _poly

# the planned cost of one sweep (see _plan): 3,017,194 on D(2,1,alpha)
# takes about 10 s, and the all-crossing degree-6 chord diagram plans 51,292,332
EVAL_SWEEP_LIMIT = 4_000_000


class SchurCheckError(AssertionError):
    pass


# ------------------------------------------------------------- module carriers


def adjoint_rep(L):
    """rho(x) = ad x on the algebra itself: ``columns[x][j]`` is the sparse
    column {i: coeff} of [b_x, b_j]."""
    return [[L.bracket(x, j) for j in range(L.dim)] for x in range(L.dim)]


def _apply(carrier, op, state, out=None):
    """The operator table ``op`` applied to an int state, accumulated into
    ``out`` (a new state by default): each key's acted-on element, its bits
    from ``carrier.shift`` up, reads its entries, and each entry adds its
    offset to the key and multiplies the coefficient."""
    if out is None:
        out = {}
    shift = carrier.shift
    get = out.get
    for key, c in state.items():
        for off, v in op[key >> shift]:
            k = key + off
            s = get(k, 0) + c * v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


class _Table(dict):
    """An operator table filled on first read: ``fill(element)`` gives the
    entries of an element not read before."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, element):
        got = self[element] = self.fill(element)
        return got


def _times(entries, scalar):
    """An element's entries times a scalar's, as entries."""
    out = {}
    for off, v in entries:
        for off2, w in scalar:
            _accum(out, off + off2, v * w)
    return tuple(out.items())


class _Carrier:
    """What both carriers share: the bracket table (rows {(x, y): {z: c}})
    and the Casimir terms (x, y, w), each c and w scaled and held as the int
    entries that multiply by it, each element's parity, and a state key's
    layout below the acted-on element, the fields of ``vars``.  It keeps
    the values it has swept (``values``) and each leg contraction step's
    table by the step's shape (``step_tables``)."""

    def __init__(self, L, vars, bracket):
        # one form for either ring: a rational or a polynomial in alpha
        zero = MultiPoly.zero(("alpha",))
        rows = {key: {z: zero + v for z, v in row.items()} for key, row in bracket.items() if row}
        weights = [zero + w for _, _, w in L.casimir]
        da = math.lcm(*(p.den for row in rows.values() for p in row.values()))
        dw = math.lcm(*(p.den for p in weights))
        at = _BITS * vars.index("alpha") if "alpha" in vars else 0

        def entries(p, scale):
            return tuple((k << at, c * (scale // p.den)) for k, c in p.nums.items())

        self.bracket = {key: {z: entries(p, da) for z, p in row.items()}
                        for key, row in rows.items()}
        self.terms = [(x, y, entries(p, dw)) for (x, y, _), p in zip(L.casimir, weights)]
        self.parity = L.parity
        self.da = da
        self.degree_scale = da * da * dw
        self.vars = vars
        self.values = {}
        self.step_tables = {}

    def open_tables(self):
        """For each Casimir term (x, y, w), x and the table of w * y, which
        a chord opening reads."""
        return [(x, _Table(lambda e, t=self.tables[y], w=w: _times(t[e], w)))
                for x, y, w in self.terms]


class VermaCarrier(_Carrier):
    """PBW states of the Verma module of highest weight n * lambda0.

    Monomials are exponent tuples over the lowering operators in PBW order,
    numbered in ``monos`` as they first occur; odd exponents stay in
    {0, 1}: an odd x squares to [x, x]/2, and the constructor raises
    ValueError unless that is zero.  Every generator acts scaled by ``da``,
    and a monomial stands for the product of the scaled lowering operators,
    so normal ordering meets only the scaled bracket and the scaled Cartan
    action da * n * lambda0, all integral: every table entry is an int.
    ``tables[x]`` is x's operator, filled by ``act`` monomial by monomial.
    ``extract`` reads the final coefficient of the highest-weight vector.
    """

    apply = _apply   # one kernel for both carriers; each class holds it by name

    def __init__(self, L, lambda0):
        rd = L.rootdata
        for y in rd.negative_order:
            if L.parity[y] and any(L.bracket_table.get((y, y), {}).values()):
                raise ValueError(f"odd lowering operator {L.basis_names[y]} "
                                 f"has a nonzero square in {L.name}")
        super().__init__(L, ("n", "alpha") if L.symbolic else ("n",), L.bracket_table)
        self.neg = rd.negative_order
        self.neg_index = {b: i for i, b in enumerate(self.neg)}
        # n * lambda0 on each Cartan element, scaled: the entry of n**1
        self.cartan = {h: self.da * lambda0[i] for i, h in enumerate(rd.cartan)}
        self.zero = MultiPoly.zero(self.vars)
        self.shift = _BITS * len(self.vars)
        self.monos = [(0,) * len(self.neg)]
        self.ids = {self.monos[0]: 0}
        self.tables = [_Table(lambda mono, x=x: self.act(x, mono)) for x in range(L.dim)]
        self.opening = self.open_tables()

    def start(self):
        return {0: 1}

    def extract(self, state, degree):
        top = 1 << self.shift   # keys of the highest-weight vector, monomial 0
        return _poly(self.vars, {k: c for k, c in state.items() if k < top},
                     self.degree_scale ** degree)

    def key(self, expo):
        """The state key of a monomial's exponent tuple, n and alpha at 0."""
        mono = self.ids.get(expo)
        if mono is None:
            mono = self.ids[expo] = len(self.monos)
            self.monos.append(expo)
        return mono << self.shift

    def act(self, x, mono):
        """The entries of x on monomial number ``mono``, normal ordered:
        ``tables[x]`` calls this once per monomial and keeps the result."""
        expo = self.monos[mono]
        base = mono << self.shift
        out = {}
        first = next((i for i, e in enumerate(expo) if e), len(expo))
        xi = self.neg_index.get(x)
        if xi is not None and xi <= first:
            # an odd x squares to [x, x]/2, which __init__ checks is 0
            if xi < first or not self.parity[x]:
                m = list(expo)
                m[xi] += 1
                out[self.key(tuple(m))] = 1
        elif first == len(expo):
            # on v_lambda (key 0) a Cartan element gives n * its entry, at key
            # 1, and a positive root vector 0
            c = self.cartan.get(x)
            if c:
                out[1] = c
        else:
            y = self.neg[first]
            rest = list(expo)
            rest[first] -= 1
            rest = self.key(tuple(rest))
            sgn = -1 if (self.parity[x] and self.parity[y]) else 1
            shift, ty = self.shift, self.tables[y]
            for off, c in self.tables[x][rest >> shift]:
                k = rest + off
                c *= sgn
                for off2, c2 in ty[k >> shift]:
                    _accum(out, k + off2, c * c2)
            for z, cz in self.bracket.get((x, y), {}).items():
                for off, c in self.tables[z][rest >> shift]:
                    for off2, c2 in cz:
                        _accum(out, rest + off + off2, c * c2)
        return tuple((k - base, c) for k, c in out.items())


class EndoCarrier(_Carrier):
    """States of the adjoint representation: a key packs the basis index the
    ad maps act on above the input column, with alpha's exponent below for
    symbolic D(2,1,alpha).  Starting from the identity, the final state is
    the diagram's full endomorphism; ``extract`` Schur-checks it and divides
    by the scale once.
    """

    apply = _apply

    def __init__(self, L):
        columns = adjoint_rep(L)
        bracket = {(x, j): col for x, row in enumerate(columns) for j, col in enumerate(row)}
        super().__init__(L, ("alpha",) if L.symbolic else (), bracket)
        self.zero = MultiPoly.zero(self.vars) if L.symbolic else Fraction(0)
        self.dim = L.dim
        self.column_at = _BITS * len(self.vars)
        self.shift = self.column_at + L.dim.bit_length()
        shift = self.shift
        self.tables = [tuple(tuple((((i - j) << shift) + off, c)
                                   for i, v in self.bracket.get((x, j), {}).items()
                                   for off, c in v)
                             for j in range(L.dim))
                       for x in range(L.dim)]
        self.opening = self.open_tables()

    def start(self):
        return {(j << self.shift) + (j << self.column_at): 1 for j in range(self.dim)}

    def extract(self, state, degree):
        """The scalar of the final endomorphism: the Schur check (zero off
        the diagonal, one value on it) runs on the scaled entries, then one
        division by the scale of the diagram's degree."""
        diagonal = [{} for _ in range(self.dim)]
        for key, c in state.items():
            idx, low = divmod(key, 1 << self.shift)
            col, expo = divmod(low, 1 << self.column_at)
            if col != idx:
                raise SchurCheckError(f"off-diagonal entry at {(col, idx)}")
            diagonal[col][expo] = c
        for j, e in enumerate(diagonal):
            if e != diagonal[0]:
                raise SchurCheckError(f"diagonal mismatch at column {j}")
        value = _poly(self.vars, diagonal[0], self.degree_scale ** degree)
        return value if self.vars else value.constant_value()


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

    A state's pendings are the labels still to act, one per open chord, in
    the order the chords opened (``slots``).  A run of openings is a chain
    of ``_open`` generators that the closing after it consumes, one
    (pendings, state) item at a time; the run's last opening is applied
    inside that closing (``_close`` with its ``crossing``), so no state of
    it is built.  Only a closing, the one step that merges keys, stores its
    states.  Position 0 ends a chord, so the sweep ends on a closing and
    every opening is applied.  The chords come in the rotation ``_plan``
    chose."""
    n_positions = 2 * len(chords)
    open_at = {q: ci for ci, (p, q) in enumerate(chords)}
    close_at = {p: ci for ci, (p, q) in enumerate(chords)}
    slots = []
    states = {(): carrier.start()}
    items = states.items()
    crossing = None   # the crossed slots of an opening not yet applied
    for pos in range(n_positions - 1, -1, -1):
        if pos in open_at:
            if crossing is not None:
                items = _open(carrier, items, crossing)
            ci = open_at[pos]
            # an open chord crosses ci when it closes first, at a higher position
            crossing = [j for j, c in enumerate(slots) if chords[c][0] > chords[ci][0]]
            slots.append(ci)
        elif pos in close_at:
            j = slots.index(close_at[pos])
            del slots[j]
            states = _close(carrier, items, j, crossing)
            crossing = None
            if not states:
                break
            items = states.items()
        else:
            raise DiagramError("position is neither a chord opening nor closing")
    return carrier.extract(states.get((), {}), len(chords))


def _open(carrier, items, crossing):
    """A chord opens on each (pendings, state) item: y of each Casimir term
    (x, y, w) acts times its weight, and x joins the pendings.  Across an
    odd number of open odd chords, those in the slots ``crossing``, an odd
    term acts on the state negated.  Nothing merges here."""
    apply, parity = carrier.apply, carrier.parity
    for pend, vec in items:
        odd = sum([parity[pend[j]] for j in crossing]) & 1
        signed = {k: -c for k, c in vec.items()} if odd else vec
        for x, table in carrier.opening:
            vec2 = apply(table, signed if parity[x] else vec)
            if vec2:
                yield pend + (x,), vec2


def _close(carrier, items, j, crossing=None):
    """The label pending in slot j acts on each (pendings, state) item, and
    states with equal other pendings merge into one stored state.

    With ``crossing``, a chord opens on each item first, as ``_open`` opens
    it, and each entry of the opening goes straight on through the closing
    label's table into the merged state, signed as it goes: the opened
    state is never built.  Slot j is then the new chord's own when it
    closes next to where it opened."""
    tables = carrier.tables
    states = {}
    if crossing is None:
        apply = carrier.apply
        for pend, vec in items:
            op = tables[pend[j]]
            pend = pend[:j] + pend[j + 1:]
            cur = states.get(pend)
            if cur is None:
                vec = apply(op, vec)
                if vec:
                    states[pend] = vec
            else:
                apply(op, vec, cur)
        return states
    parity, shift = carrier.parity, carrier.shift
    for pend, vec in items:
        odd = sum([parity[pend[i]] for i in crossing]) & 1
        own = j == len(pend)
        if not own:
            op = tables[pend[j]]
            rest = pend[:j] + pend[j + 1:]
        for x, table in carrier.opening:
            if own:
                op, key = tables[x], pend
            else:
                key = rest + (x,)
            cur = states.get(key)
            out = {} if cur is None else cur
            get = out.get
            neg = odd and parity[x]
            for k, c in vec.items():
                if neg:
                    c = -c
                for off, v in table[k >> shift]:
                    k1 = k + off
                    cv = c * v
                    for off2, v2 in op[k1 >> shift]:
                        k2 = k1 + off2
                        s = get(k2, 0) + cv * v2
                        if s:
                            out[k2] = s
                        else:
                            del out[k2]
            if cur is None and out:
                states[key] = out
    return states


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
    that the reference order has the other way round).  ``what`` is a tuple,
    and a step's table depends on it and the carrier alone, so the carrier
    keeps each table by it.
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
        steps.append((lookup, keep, ("vertex", root, tuple(checked), tuple(new), tuple(closing))))
    for g in circle:
        if across(g) is None and pos[g] < pos[pairing[g]]:
            steps.append(([], list(range(len(darts))), ("chord",)))
            darts += [g, pairing[g]]
    ref = [legs.index(g) for g in circle]
    swapped = [(i, j) for j in range(len(circle)) for i in range(j) if ref[i] > ref[j]]
    return steps, [darts.index(g) for g in circle], swapped


def _step_table(what, carrier, first, second):
    """One step's rows by the labels it reads: (appended registers, alpha
    offset, int coefficient with the sign its own labels give, mask of the
    kept registers whose odd parities each flip that sign)."""
    if what[0] == "chord":
        # a chord's ends sit side by side in the layout: no sign
        return {(): [((x, y), off, v, 0) for x, y, w in carrier.terms for off, v in w]}
    table = {}
    _, root, checked, new, closing = what
    for (y, x), row in carrier.bracket.items():
        lab = (x, y)
        par = (carrier.parity[x], carrier.parity[y])
        mask = sign = 0
        for w, kept, nx, ny in closing:
            if par[w]:
                mask ^= kept
                sign ^= (nx & par[0]) ^ (ny & par[1])
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
                    val = _times(val, weight)
            index = ((c,) if not root else ()) + tuple(lab[w] for w in checked)
            regs = tuple(regs)
            table.setdefault(index, []).extend([(regs, off, -v if sign else v, mask)
                                                for off, v in val])
    return table


def leg_tensor(carrier, d):
    """The internal graph of skeleton diagram d contracted into a sparse
    tensor on its legs: {labels of the legs in circle order: entries of
    the coefficient}, at the carrier's scale.

    d has no self-loop.  A diagram with one is zero by AS (reversing the
    looped vertex and swapping its two loop darts is an odd automorphism),
    and ``_parts`` drops zero diagrams before any contraction.
    """
    steps, circle, swapped = _leg_plan(d)
    parity = carrier.parity
    # the Casimir relabels: a label at an edge's first (second) half gives
    # the other half's label and the weight
    first = {x: (y, w) for x, y, w in carrier.terms}
    second = {y: (x, w) for x, y, w in carrier.terms}
    if not len(first) == len(second) == len(carrier.terms):
        raise ValueError("leg contraction needs one Casimir partner per basis element")
    state = {((), 0): 1}
    for lookup, keep, what in steps:
        if what not in carrier.step_tables:
            table = _step_table(what, carrier, first, second)
            carrier.step_tables[what] = table, any(row[3] for rows in table.values() for row in rows)
        table, signed = carrier.step_tables[what]
        nxt = {}
        for (key, at), coeff in state.items():
            rows = table.get(tuple([key[r] for r in lookup]))
            if not rows:
                continue
            base = tuple([key[j] for j in keep])
            odd = sum([parity[label] << j for j, label in enumerate(key)]) if signed else 0
            for regs, off, val, mask in rows:
                val *= coeff
                if odd & mask and (odd & mask).bit_count() & 1:
                    val = -val
                _accum(nxt, (base + regs, at + off), val)
        state = nxt
    tensor = {}
    for (key, at), coeff in state.items():
        labels = tuple(key[j] for j in circle)
        if sum(parity[labels[i]] & parity[labels[j]] for i, j in swapped) & 1:
            coeff = -coeff
        tensor.setdefault(labels, []).append((at, coeff))
    return tensor


def sweep_legs(carrier, tensor, degree):
    """Act with a leg tensor along the circle into the carrier's scalar of a
    diagram of the given degree: the closing half of the chord sweep.

    Each entry starts as its coefficient times ``carrier.start()``, pending
    on its labels, and ``_close`` acts with the label at each leg position,
    last to first, merging the states of equal label prefixes.
    """
    start = carrier.start()
    items = ((labels, {k + off: c * v for k, c in start.items() for off, v in coeff})
             for labels, coeff in tensor.items())
    states = {}
    for j in range(len(next(iter(tensor), ())) - 1, -1, -1):
        states = _close(carrier, items, j)
        items = states.items()
    return carrier.extract(states.get((), {}), degree)


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


def _plan(x, L):
    """(cost, run) of one prime, where ``run(carrier)`` evaluates it: a chord
    diagram sweeps the rotation that ``_plan_rotation`` priced; a contracted
    diagram builds its leg tensor and sweeps it, priced dim + dim**2 + ...
    + dim**legs, which bounds the label prefixes its closings store: at
    most dim**j after the closing at leg j."""
    if x.is_chord_diagram():
        ends = chord_endpoints(x)
        chords, cost = _plan_rotation(ends, 2 * len(ends), len(L.casimir))
        return cost, lambda carrier: sweep_chords(carrier, chords)
    trie = sum(L.dim ** k for k in range(1, x.nu + 1))
    return trie, lambda carrier: sweep_legs(carrier, leg_tensor(carrier, x), x.degree)


@functools.cache
def _primes(word):
    """The prime factors of the chord diagram class with gap word ``word``:
    ((canonical key, canonical chord diagram), ...), one per connected
    component of its crossing graph, and none for the bare circle."""
    n = len(word)
    chords = [(i, i + g) for i, g in enumerate(word) if i + g < n]
    component = list(range(len(chords)))
    for b, (p, q) in enumerate(chords):
        for a in range(b):
            if chords[a][0] < p < chords[a][1] < q:
                old, new = component[a], component[b]
                component = [new if c == old else c for c in component]
    out = []
    for c in dict.fromkeys(component):
        mine = [chord for chord, c2 in zip(chords, component) if c2 == c]
        at = {e: i for i, e in enumerate(sorted(e for chord in mine for e in chord))}
        prime = chord_diagram_from_word([(at[p], at[q]) for p, q in mine], len(at)).canonical()[0]
        out.append((prime.canonical_key(), prime))
    return tuple(out)


def _factors(x):
    """((key, diagram), ...) of the primes whose values multiply to part x's:
    a chord diagram's prime factors, x itself for a prime, a contracted
    diagram or the bare circle."""
    primes = _primes(_gap_word(x)) if x.is_chord_diagram() else ()
    return primes or ((x.canonical_key(), x),)


def _evaluate(d, L, carrier, check=None):
    """Value of a skeleton diagram, or a LinComb of them, on L's carrier.

    A part's value is the product of its primes' values (``_factors``).
    Those come from ``carrier.values`` or from one plan per distinct prime
    (``_plan``), each checked against ``EVAL_SWEEP_LIMIT`` before any runs;
    ``check(diagram, value)`` runs on the value of every diagram.
    """
    terms = d if isinstance(d, LinComb) else [(d, 1)]
    parts = [(diag, c, [(_factors(x), cx) for x, cx in _parts(diag)]) for diag, c in terms]
    plans = {}
    for _, _, ps in parts:
        for primes, _ in ps:
            for key, x in primes:
                if key not in carrier.values and key not in plans:
                    cost, _ = plans[key] = _plan(x, L)
                    if cost > EVAL_SWEEP_LIMIT:
                        raise CostBoundError(f"a sweep of this diagram on {L.name} plans cost {cost}, "
                                             f"above the eval bound {EVAL_SWEEP_LIMIT}")
    for key, (_, run) in plans.items():
        carrier.values[key] = run(carrier)
    values = []
    for diag, _, ps in parts:
        value = carrier.zero
        for primes, cx in ps:
            first, *rest = [carrier.values[key] for key, _ in primes]
            value = value + math.prod(rest, start=first) * Fraction(cx)
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
