"""Unitrivalent diagrams and their relation calculus.

A diagram is a graph whose vertices are trivalent (with a cyclic order on
the three incident half-edges) or univalent, plus an optional oriented
skeleton circle through all univalent vertices.  Diagrams without skeleton
live in the character space (IHX/AS relations); diagrams with skeleton live
in the circle space (STU relations).  The degree is half the vertex count.

Half-edge ("dart") layout: trivalent vertex v owns darts 3v, 3v+1, 3v+2 and
its cyclic order is 3v -> 3v+1 -> 3v+2 -> 3v; univalent vertex u (labelled
nt + j) owns the single dart 3*nt + j.  ``pairing`` is the edge involution
on darts.  ``skel`` is None or the tuple of univalent vertex labels in
circle order (a cyclic sequence; rotations are isomorphic).  ``_from_edges``
builds every pairing from a list of dart pairs, and ``_cut`` does every
renumbering after vertices are removed: kept vertices keep their relative
order and fresh vertices take the labels after them.

Every diagram is validated when built, those from STU and the generators
included; only the canonical form ``_canonicalize`` reads back from a
validated diagram skips it.  ``_validate`` checks the pairing, the
skeleton and the vertex count, then walks the vertices once for
connectivity, starting from every skeleton leg at once.

Canonical forms: the minimal rooted-traversal encoding over all choices of
root dart and per-vertex orientation (reversing a cyclic order flips the
sign, so ``Diagram.canonical`` returns a sign along with the
representative, which holds itself as its own form).  A diagram admitting
an odd-parity self-encoding equals minus itself and is zero in the
quotient; LinComb drops such terms on insertion.  One search,
``_canonicalize``, serves every diagram: each traversal packs a dart's
step into one int, branches on the two orientations of a trivalent vertex
when it first reaches it, and stops as soon as its prefix exceeds the
least one reached so far.  Branches advance together, so a run of
orientation ties, as along a ladder, is settled as the branches go rather
than one whole branch after another.  A chord diagram has no orientation
to choose: its roots run one after another, its sign is 1 and it is never
zero.

A chord diagram's class has a second, cheaper name: its rotation-least gap
word (``_gap_word``), a complete invariant.  STU reduction and the STU
dimension oracle name every chord class by it, so neither searches a chord
diagram.  ``chord_reduce`` returns {gap word: coefficient}; it searches
only diagrams with a trivalent vertex, and reduces each such class once
(``_reduce_canonical``).  ``dim_A_by_stu`` searches no diagram at all:
``one_vertex_diagrams`` gives it one diagram per one-vertex class straight
from the tripod's least gap triple.
"""

from __future__ import annotations

import bisect
import functools
import itertools


class DiagramError(ValueError):
    pass


class Diagram:
    __slots__ = ("nt", "nu", "pairing", "skel", "_canon")

    def __init__(self, nt, nu, pairing, skel=None, check=True):
        self.nt = nt
        self.nu = nu
        self.pairing = tuple(pairing)
        self.skel = None if skel is None else tuple(skel)
        self._canon = None
        if check:
            self._validate()

    # -- structure ---------------------------------------------------------

    @property
    def n_darts(self):
        return 3 * self.nt + self.nu

    @property
    def n_vertices(self):
        return self.nt + self.nu

    @property
    def degree(self):
        return self.n_vertices // 2

    def vertex_darts(self, v):
        if v < self.nt:
            return (3 * v, 3 * v + 1, 3 * v + 2)
        return (3 * self.nt + (v - self.nt),)

    def sigma(self, d):
        """Next dart in the cyclic order at d's vertex (identity at legs)."""
        if d >= 3 * self.nt:
            return d
        base = 3 * (d // 3)
        return base + (d - base + 1) % 3

    def _validate(self):
        nd, pairing = self.n_darts, self.pairing
        if len(pairing) != nd:
            raise DiagramError("pairing length mismatch")
        for d, p in enumerate(pairing):
            if not (0 <= p < nd) or pairing[p] != d or p == d:
                raise DiagramError(f"pairing is not a fixed-point-free involution at dart {d}")
        if self.skel is not None:
            if sorted(self.skel) != list(range(self.nt, self.nt + self.nu)):
                raise DiagramError("skeleton must list every univalent vertex exactly once")
        if self.n_vertices and not self._connected():
            raise DiagramError("diagram must be connected (through the skeleton if present)")

    def _connected(self):
        """Whether edges, and the skeleton if present, join every vertex.

        The walk runs over vertices and ends once it has reached them all.
        The skeleton joins all legs, which ``_validate`` has checked it
        lists, so every leg starts the walk; a skeleton with no legs starts
        none, and joins only the bare circle."""
        nt, nt3, pairing = self.nt, 3 * self.nt, self.pairing
        stack = [0] if self.skel is None else list(self.skel)
        seen = bytearray(self.n_vertices)
        for v in stack:
            seen[v] = 1
        reached = len(stack)
        while stack and reached < len(seen):
            v = stack.pop()
            for p in pairing[3 * v:3 * v + 3] if v < nt else (pairing[v + 2 * nt],):
                w = p // 3 if p < nt3 else p - 2 * nt
                if not seen[w]:
                    seen[w] = 1
                    reached += 1
                    stack.append(w)
        return reached == len(seen)

    # -- canonicalization -----------------------------------------------------

    def canonical(self):
        """(canonical diagram, sign, zero_by_symmetry) -- cached.

        The canonical diagram comes with its own form cached: itself, sign
        1 and the class's zero flag, so a stored canonical diagram is never
        searched again.  STU reduction and evaluation name a chord diagram's
        class by its gap word and never ask for this form."""
        if self._canon is None:
            self._canon = _canonicalize(self)
        return self._canon

    def canonical_key(self):
        return self.canonical()[0]._encoding()

    def _encoding(self):
        return (self.nt, self.nu, self.pairing, self.skel)

    def __eq__(self, other):
        return isinstance(other, Diagram) and self._encoding() == other._encoding()

    def __hash__(self):
        return hash(self._encoding())

    # -- serialization -----------------------------------------------------------

    @classmethod
    def from_text(cls, text):
        """Parse one ``vertices nt nu`` line, ``edge a b`` per joined dart pair and at most one
        ``skeleton`` line with its vertices, ``none`` or ``empty``, skipping ``#`` lines; bad
        text, a second ``vertices`` or ``skeleton`` line included, raises DiagramError."""
        nt = nu = None
        pairs = []
        skel = None
        once = set()
        for line in text.strip().splitlines():
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] in ("vertices", "skeleton"):
                if parts[0] in once:
                    raise DiagramError(f"second {parts[0]} line: {line.strip()}")
                once.add(parts[0])
            try:
                if parts[0] == "vertices" and len(parts) == 3:
                    nt, nu = int(parts[1]), int(parts[2])
                    if nt < 0 or nu < 0:
                        raise ValueError
                elif parts[0] == "edge" and len(parts) == 3:
                    pairs.append((int(parts[1]), int(parts[2])))
                elif parts[0] == "skeleton" and parts[1:] == ["none"]:
                    skel = None
                elif parts[0] == "skeleton" and parts[1:] == ["empty"]:
                    skel = ()
                elif parts[0] == "skeleton" and len(parts) > 1:
                    skel = tuple(int(x) for x in parts[1:])
                else:
                    raise ValueError
            except ValueError:
                raise DiagramError(f"bad line: {line.strip()}") from None
        if nt is None:
            raise DiagramError("missing vertices line")
        nd = 3 * nt + nu
        if 2 * len(pairs) != nd:
            raise DiagramError(f"{len(pairs)} edge lines cannot pair {nd} darts once each")
        for a, b in pairs:
            if not (0 <= a < nd and 0 <= b < nd):
                raise DiagramError(f"edge {a} {b}: darts run from 0 to {nd - 1}")
        return _from_edges(nt, nu, pairs, skel)

    def __repr__(self):
        sk = "B" if self.skel is None else "A"
        return f"<Diagram {sk} deg={self.degree} nt={self.nt} legs={self.nu}>"


def _from_edges(nt, nu, edges, skel=None):
    """The diagram whose pairing joins the two darts of each pair in ``edges``."""
    pairing = [-1] * (3 * nt + nu)
    for a, b in edges:
        pairing[a], pairing[b] = b, a
    return Diagram(nt, nu, pairing, skel)


def _cut(d, drop, new_nt):
    """Renumber d's vertices outside ``drop`` for a diagram with new_nt
    trivalent vertices.

    Kept trivalent vertices take labels 0, 1, ... and kept univalent ones
    new_nt, new_nt + 1, ..., both in their old order, so fresh vertices
    take the labels after them.  Returns (new label of each kept vertex,
    new number of each kept dart, the edges between kept darts).
    """
    kept_t = [v for v in range(d.nt) if v not in drop]
    kept_u = [v for v in range(d.nt, d.n_vertices) if v not in drop]
    vmap, dmap = {}, {}
    for i, v in enumerate(kept_t):
        vmap[v] = i
        dmap.update(zip(d.vertex_darts(v), range(3 * i, 3 * i + 3)))
    for j, v in enumerate(kept_u):
        vmap[v] = new_nt + j
        dmap[3 * d.nt + v - d.nt] = 3 * new_nt + j
    edges = [(dmap[a], dmap[b]) for a, b in enumerate(d.pairing)
             if a < b and a in dmap and b in dmap]
    return vmap, dmap, edges


# -- canonical search ------------------------------------------------------------
#
# Minimal-encoding search.  A traversal fixes a root dart and labels darts in
# order of first appearance; labelled dart i emits one entry (tag, label of
# its edge partner, label of its successor), labelling the partner before the
# successor.  The tag is 0 at a trivalent dart, whose successor is the next
# dart in the chosen cyclic order, 1 at a free leg, which has none (a dart n
# labelled n stands in), and 2 at a skeleton leg, whose successor is the
# next leg's dart on the circle.  The entry is packed into the int
# (tag * n + partner) * (n + 1) + successor, which orders entries as the
# triples would, so streams compare entry by entry.
#
# On its first visit to a trivalent vertex a traversal keeps the vertex's
# cyclic order and sets the reversed order aside as a second traversal; the
# choice code, 1 at the root, gains a bit there, 1 when reversed.  Waiting
# traversals are kept sorted by the dart they stopped at, and one that
# reaches a new vertex more than _LEAD darts ahead of another stops there,
# so branches and roots advance nearly together; a chord diagram, which has
# no vertex, runs its roots one after another.  ``best`` is the least stream
# prefix any traversal has reached.  Every such prefix starts a full stream,
# so a traversal whose entry exceeds best's can never be least and stops;
# one that undercuts best at dart i cuts best there and drops the traversals
# waiting beyond dart i, whose prefixes hold the old entry.  The winner is
# the least (root, code) among traversals that finish on the final best:
# their codes have one bit per vertex, so that is the lowest root, then the
# kept order before the reversed one at each vertex in turn.  The diagram is
# zero when their codes have both parities.
#
# _LEAD changes no result, only the order of work.  With 0, traversals of
# ladder insertions (the 4-wheel with ladder(r) inserted at a vertex, r =
# 1..9, and with ladder(9), ladder(3) and one to six triangles, up to 40
# vertices) stop and restart at almost every vertex: five random
# relabellings of each canonicalize in 0.13-0.19 s with 8 and 0.18-0.26 s
# with 0 (CPython 3.11, 2-core host).
# Depth-first branching (the last branch set aside resumes first) is no
# option: along a ladder the first of two branches often proves the worse
# only after everything beyond it was explored, and a 32-vertex caterpillar
# took 12 s.

_LEAD = 8


def _canonicalize(d):
    """(canonical diagram, sign, zero_by_symmetry) from the minimal stream."""
    n, nt3 = d.n_darts, 3 * d.nt
    if n == 0:
        return d, 1, False
    pairing, skel = d.pairing, d.skel
    w = n + 1
    tagged = [0] * nt3 + [(1 if skel is None else 2) * n * w] * d.nu
    # each dart's successor with its vertex kept (index 1) or reversed (2)
    kept = [x + 1 - 3 * (x % 3 == 2) for x in range(nt3)] + [n] * d.nu
    for i, u in enumerate(skel or ()):
        kept[nt3 + u - d.nt] = nt3 + skel[i + 1 - len(skel)] - d.nt
    turn = (None, kept, [x + 2 - 3 * (x % 3 != 0) for x in range(nt3)])
    blank = [None] * n + [n]   # labels by dart; the stand-in dart n keeps n
    best, first, parities = [], None, 0
    # waiting traversals, sorted: (dart index, root, code, darts by label,
    # per-vertex orientation: 0 not yet chosen, 1 kept, 2 reversed); one
    # rebuilds its labels by dart when it runs again.  The roots not yet
    # started wait at dart 0 outside the list.
    waiting, next_root = [], 0
    while waiting or next_root < n:
        pos = blank.copy()
        if waiting and (waiting[0][0] == 0 or next_root == n):
            start, root, code, order, orient = waiting.pop(0)
            for lab, x in enumerate(order):
                pos[x] = lab
        else:
            start, root, code, order, orient = 0, next_root, 1, [next_root], bytearray(d.nt)
            pos[root] = 0
            next_root += 1
        limit = len(best)
        for i in range(start, n):
            dart = order[i]
            x = pairing[dart]
            p = pos[x]
            if p is None:
                p = pos[x] = len(order)
                order.append(x)
            if dart < nt3:
                v = dart // 3
                o = orient[v]
                if not o:
                    # a root not yet started, or a waiting traversal, is behind
                    if i > _LEAD and next_root < n or waiting and waiting[0][0] < i - _LEAD:
                        bisect.insort(waiting, (i, root, code, order, orient))
                        break
                    o = orient[v] = 1
                    flip = orient.copy()
                    flip[v] = 2
                    bisect.insort(waiting, (i, root, 2 * code + 1, order.copy(), flip))
                    code *= 2
                x = turn[o][dart]
            else:
                x = kept[dart]
            s = pos[x]
            if s is None:
                s = pos[x] = len(order)
                order.append(x)
            e = tagged[dart] + p * w + s
            if i < limit:
                b = best[i]
                if e != b:
                    if e > b:
                        break
                    best[i:] = [e]
                    limit = i
                    waiting = [t for t in waiting if t[0] <= i]
                    first, parities = None, 0
            else:
                best.append(e)
        else:
            parities |= 1 << code.bit_count() % 2
            if first is None or (root, code) < first:
                first = root, code
    # read the diagram back: trivalent vertices in label order, each with its
    # darts along the chosen cyclic order, then the legs in label order, and
    # the circle from the first leg
    entries = [divmod(e, w) for e in best]   # (tag * n + partner, successor)
    new = [-1] * n
    v, leg = 0, nt3
    for lab, (tp, s) in enumerate(entries):
        if tp >= n:
            new[lab] = leg
            leg += 1
        elif new[lab] < 0:
            new[lab], new[s], new[entries[s][1]] = 3 * v, 3 * v + 1, 3 * v + 2
            v += 1
    canon = [0] * n
    for lab, (tp, _) in enumerate(entries):
        canon[new[lab]] = new[tp % n]
    if skel is not None:
        skel, lab = [], new.index(nt3) if d.nu else 0
        for _ in range(d.nu):
            skel.append(new[lab] - nt3 + d.nt)
            lab = entries[lab][1]
    sign = (-1) ** (first[1].bit_count() - 1)
    out = Diagram(d.nt, d.nu, canon, skel, check=False)
    # out's traversal from dart 0 with no vertex reversed gives best and is
    # the least (root, code), so out is its own form with sign 1
    out._canon = out, 1, parities == 3
    return out, sign, parities == 3


def _gap_word(d):
    """The rotation-least gap word of a chord diagram: entry i is how far
    the partner of the leg at circle position i lies ahead of it.  Rotating
    the circle rotates the word, and the word fixes the pairing, so the
    least rotation is a complete invariant of the class."""
    skel, pairing = d.skel, d.pairing
    n = len(skel)
    at = [0] * n
    for i, u in enumerate(skel):
        at[u] = i
    return _least_rotation([(at[pairing[u]] - i) % n for i, u in enumerate(skel)])


def _least_rotation(gaps):
    """The least rotation of the gap word ``gaps``.  It starts at the word's
    least entry, so only the rotations starting there are tried."""
    n = len(gaps)
    least = min(gaps, default=0)
    twice = tuple(gaps) * 2
    return min((twice[r:r + n] for r in range(n) if gaps[r] == least), default=())


def _classes(diagrams):
    """One canonical representative per nonzero class, sorted by encoding."""
    found = {}
    for diag in diagrams:
        canon, _, zero = diag.canonical()
        if not zero:
            found.setdefault(canon._encoding(), canon)
    return [found[k] for k in sorted(found)]


# -- linear combinations ------------------------------------------------------------


class LinComb:
    """Exact linear combination of canonical diagrams.

    Keys are canonical encodings; adding a diagram canonicalizes it, applies
    the AS sign, and drops diagrams that equal their own negative.
    """

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = {}

    @classmethod
    def of(cls, diagram, coeff=1):
        lc = cls()
        lc.add(diagram, coeff)
        return lc

    def add(self, diagram, coeff=1):
        if not coeff:
            return self
        canon, sign, zero = diagram.canonical()
        if zero:
            return self
        if self.terms:
            ref = next(iter(self.terms.values()))[0]
            if ref.degree != canon.degree or (ref.skel is None) != (canon.skel is None):
                raise DiagramError("terms of one combination must share degree "
                                   "and skeleton presence")
        key = canon._encoding()
        cur = self.terms.get(key)
        val = (cur[1] if cur else 0) + sign * coeff
        if val:
            self.terms[key] = (canon, val)
        else:
            self.terms.pop(key, None)
        return self

    def __iter__(self):
        for key in sorted(self.terms):
            yield self.terms[key]

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return "LinComb(" + " + ".join(f"({c})*{d!r}" for d, c in self) + ")"


# -- generators -------------------------------------------------------------------


def wheel(k):
    """The k-legged wheel: an inner cycle of k trivalent vertices, one leg
    each, no skeleton.  Cyclic order at hub i: (leg, next, prev)."""
    if k < 2 or k % 2:
        raise DiagramError("wheel needs an even leg count >= 2")
    # darts at hub i: 3i = leg slot, 3i+1 = to next hub, 3i+2 = to previous hub
    edges = [(3 * i, 3 * k + i) for i in range(k)]
    edges += [(3 * i + 1, 3 * ((i + 1) % k) + 2) for i in range(k)]
    return _from_edges(k, k, edges)


def chi_bar(b, coeff=1):
    """Sum over all leg orderings of gluings into an oriented circle.

    Accepts a skeleton-free Diagram or a LinComb of them, either times
    ``coeff``; a diagram with k legs contributes the sum (not average) of
    its k! glued versions.  The k rotations of an order glue to one
    diagram, so the first leg stays put and each of the (k-1)! orders of
    the rest counts k times.
    """
    if isinstance(b, Diagram):
        b = LinComb.of(b)
    out = LinComb()
    for diag, c in b:
        if diag.skel is not None:
            raise DiagramError("chi_bar needs skeleton-free diagrams")
        if diag.nu == 0:
            raise DiagramError("chi_bar is not defined for diagrams without legs")
        first, *rest = range(diag.nt, diag.nt + diag.nu)
        for perm in itertools.permutations(rest):
            glued = Diagram(diag.nt, diag.nu, diag.pairing, skel=(first, *perm))
            out.add(glued, coeff * c * diag.nu)
    return out


# -- STU ---------------------------------------------------------------------------


def stu_eligible_legs(d):
    """Skeleton vertices whose edge runs to an internal trivalent vertex."""
    if d.skel is None:
        return []
    out = []
    for u in d.skel:
        dart = d.vertex_darts(u)[0]
        if d.pairing[dart] < 3 * d.nt:
            out.append(u)
    return out


def stu_expand(d, u):
    """Resolve the internal vertex attached to skeleton leg u: the signed
    sum of its two ``_resolutions``.  Applying repeatedly terminates in
    chord diagrams."""
    out = LinComb()
    for diag, sgn in _resolutions(d, u):
        out.add(diag, sgn)
    return out


def _resolutions(d, u):
    """The two STU resolutions of the internal vertex t attached to skeleton
    leg u, each a validated diagram with its sign.

    For cyclic order (edge-to-skeleton, x, y) at t they are D[..., y-end,
    x-end, ...] with sign 1 and D[..., x-end, y-end, ...] with sign -1: t
    and u are removed, once for both, and the two cut edges attach to two
    new skeleton legs at u's position.
    """
    if d.skel is None:
        raise DiagramError("stu_expand needs a skeleton")
    h = d.pairing[d.vertex_darts(u)[0]]
    if h >= 3 * d.nt:
        raise DiagramError(f"leg {u} is a chord end, not STU-eligible")
    px, py = d.pairing[d.sigma(h)], d.pairing[d.sigma(d.sigma(h))]
    new_nt = d.nt - 1
    vmap, dmap, edges = _cut(d, (h // 3, u), new_nt)
    # two fresh legs take the last two univalent slots, in circle order
    leg, dart = new_nt + d.nu - 1, 3 * new_nt + d.nu - 1
    skel = []
    for v in d.skel:
        skel.extend((leg, leg + 1) if v == u else (vmap[v],))
    if px not in dmap:  # both cut edges close onto each other: a chord between the new legs
        both = _from_edges(new_nt, d.nu + 1, edges + [(dart, dart + 1)], skel)
        return (both, 1), (both, -1)
    return tuple((_from_edges(new_nt, d.nu + 1, edges + [(dart, dmap[a]), (dart + 1, dmap[b])],
                              skel), sgn)
                 for a, b, sgn in ((py, px, 1), (px, py, -1)))


def chord_reduce(d):
    """Full STU reduction of a skeleton diagram, or of (diagram,
    coefficient) pairs such as a LinComb, to chord diagrams: {gap word:
    coefficient} with no zero coefficient.  A chord diagram is named by its
    gap word and never canonicalized; any other diagram is canonicalized,
    and its class is reduced once (``_reduce_canonical``)."""
    out = {}
    for diag, c in [(d, 1)] if isinstance(d, Diagram) else d:
        if diag.skel is None:
            raise DiagramError("STU reduction needs a skeleton diagram")
        if diag.nt == 0:
            terms = ((_gap_word(diag), c),)
        else:
            canon, sign, zero = diag.canonical()
            if zero:
                continue
            terms = ((word, sign * c * x) for word, x in _reduce_canonical(canon).items())
        for word, x in terms:
            x += out.pop(word, 0)
            if x:
                out[word] = x
    return out


@functools.cache
def _reduce_canonical(canon):
    """STU reduction of a canonical diagram with a trivalent vertex: its two
    resolutions at its first eligible leg, reduced.  The result is shared,
    never mutated."""
    return chord_reduce(_resolutions(canon, stu_eligible_legs(canon)[0]))


# -- insertion ------------------------------------------------------------------------


class InsertionPiece:
    """Connected skeleton-free diagram with 3 distinguished legs, cyclically
    ordered.

    The legs are marked: the stored representative is the canonical form of
    the diagram with its legs threaded on a directed cycle (leg order is
    defined up to rotation only, never transposition -- an anonymous-leg
    canonicalization would kill the triangle by the odd-wheel symmetry).
    """

    def __init__(self, diagram, legs_cyclic):
        if diagram.skel is not None:
            raise DiagramError("insertion pieces are built from skeleton-free diagrams")
        if diagram.nu != 3:
            raise DiagramError("insertion pieces have exactly 3 legs")
        marked = Diagram(diagram.nt, diagram.nu, diagram.pairing, skel=tuple(legs_cyclic))
        canon, sign, zero = marked.canonical()
        if zero:
            raise DiagramError("piece is zero by symmetry")
        self.diagram = canon
        self.sign = sign
        self.legs = canon.skel


def ladder(r):
    """Caterpillar segment: a path of 2r+1 trivalent vertices folded into two
    rails with r rungs, legs at the two rail starts and at the fold.

    ladder(1) is the triangle realizing the degree-1 insertion element t;
    ladder(d) has insertion degree d.
    """
    if r < 1:
        raise DiagramError("ladder needs r >= 1")
    nt = 2 * r + 1
    # path vertices 0..2r (vertex r is the fold); darts (3v, 3v+1, 3v+2) =
    # (path-prev, middle, path-next); middle = rung, or the fold leg at v=r
    edges = [(3 * v + 2, 3 * (v + 1)) for v in range(nt - 1)]
    edges += [(3 * i + 1, 3 * (2 * r - i) + 1) for i in range(r)]
    edges += [(0, 3 * nt),                  # rail A start
              (3 * (nt - 1) + 2, 3 * nt + 1),  # rail B start (path end)
              (3 * r + 1, 3 * nt + 2)]        # fold leg
    diag = _from_edges(nt, 3, edges)
    return InsertionPiece(diag, (nt, nt + 1, nt + 2))


def triangle():
    return ladder(1)


def insert_at_vertex(d, v, piece):
    """Replace trivalent vertex v of d by the piece, gluing the cut edge at
    each slot of v to the piece's leg in the same place of its cyclic order.

    Degree grows by the piece degree; leg count and skeleton are untouched.
    """
    if v >= d.nt:
        raise DiagramError("insertion needs a trivalent vertex")
    p = piece.diagram
    nt = d.nt - 1 + p.nt
    vmap, dmap, edges = _cut(d, (v,), nt)
    # the piece's trivalent vertices take the labels after the host's
    off = 3 * (d.nt - 1)
    edges += [(off + a, off + b) for a, b in enumerate(p.pairing[:3 * p.nt])
              if a < b < 3 * p.nt]
    glue = [off + p.pairing[p.vertex_darts(leg)[0]] for leg in piece.legs]
    for slot in range(3):
        host = d.pairing[3 * v + slot]
        if host in dmap:
            edges.append((dmap[host], glue[slot]))
        elif host % 3 > slot:  # a self-loop at v joins two glue darts
            edges.append((glue[slot], glue[host % 3]))
    skel = None if d.skel is None else [vmap[u] for u in d.skel]
    return LinComb.of(_from_edges(nt, d.nu, edges, skel), piece.sign)


# -- chord-diagram space (skeleton side) ----------------------------------------------


def chord_diagram_from_word(pairs, n):
    """Chord diagram on n circle positions from a pairing of positions."""
    return _from_edges(0, n, pairs, skel=range(n))


def all_chord_diagrams(m):
    """Canonical chord diagrams with m chords: the classes of
    ``_chord_diagrams(m)``."""
    return _classes(_chord_diagrams(m))


def _chord_diagrams(m):
    """Chord diagrams with m chords, at least one of each class.

    Rotating the circle keeps the diagram, so a rotation that takes one end
    of a shortest chord to 0 and its other end forward to g <= m reaches
    every class: only the pairings with chord (0, g) and every other chord
    at least g long around the circle are built, 1,456 rather than 10,395
    at m = 6.
    """
    n = 2 * m
    if not m:
        yield chord_diagram_from_word([], 0)
    for g in range(1, m + 1):
        for pairs in _pairings([i for i in range(1, n) if i != g], range(g, n - g + 1)):
            yield chord_diagram_from_word([(0, g), *pairs], n)


def _pairings(items, span=None):
    """Every matching of the increasing list ``items`` into pairs (a, b),
    a < b; with ``span``, only pairs whose b - a lies in it."""
    if not items:
        yield []
        return
    a = items[0]
    for i in range(1, len(items)):
        b = items[i]
        if span is not None and b - a not in span:
            continue
        rest = items[1:i] + items[i + 1:]
        for tail in _pairings(rest, span):
            yield [(a, b)] + tail


def one_vertex_diagrams(m):
    """Degree-m skeleton diagrams with exactly one internal vertex (a tripod
    plus m-2 chords): one validated diagram per class, in generation order
    and not put in canonical form.  None is zero, since a rotation of the
    circle keeps the tripod's cyclic order.

    Rotating the circle keeps the diagram, and the tripod's three legs keep
    their cyclic order when their positions are sorted again.  Taking
    another leg to 0 turns the gaps (a, b - a, n - b) of a tripod at
    (0, a, b) cyclically, so the tripods whose gap triple is least among
    its three turns reach every class: about a third of the C(2m-2, 2)
    positions (0, a, b), rather than C(2m-1, 3).  Two diagrams on one such
    tripod are of one class only through a rotation that keeps the tripod
    and so its gap triple.  A turn of the triple keeps it only when n = 3a;
    then the rotations by a and 2a turn the pairing of the other points, and
    only the least of its three turns is kept.
    """
    n = 2 * m - 1  # skeleton vertices

    def turned(pairs, s):
        return sorted(tuple(sorted(((x + s) % n, (y + s) % n))) for x, y in pairs)

    out = []
    for a, b in itertools.combinations(range(1, n), 2):
        gaps = (a, b - a, n - b)
        if gaps > gaps[1:] + gaps[:1] or gaps > gaps[2:] + gaps[:2]:
            continue
        legs = [(0, 3), (1, 3 + a), (2, 3 + b)]
        for pairs in _pairings([i for i in range(1, n) if i not in (a, b)]):
            if 3 * a == n and pairs > min(turned(pairs, a), turned(pairs, b)):
                continue
            edges = legs + [(3 + x, 3 + y) for x, y in pairs]
            out.append(_from_edges(1, n, edges, skel=range(1, 1 + n)))
    return out


def dim_A_by_stu(m):
    """dim of the degree-m circle space: chord classes modulo the relations
    induced by resolving one-internal-vertex diagrams along each of their
    three legs in turn.

    Nothing is canonicalized: the classes and the resolutions are named by
    their rotation-least gap words, and each one-vertex class comes once
    from ``one_vertex_diagrams``."""
    from .scalars import matrix_rank

    if m < 0:
        raise ValueError(f"degree must be at least 0, got {m}")
    classes = {_gap_word(d) for d in _chord_diagrams(m)}
    _, rows = _stu_relations(m)
    return len(classes) - matrix_rank(rows)


def _stu_relations(m):
    """(columns, rows) of the degree-m STU relations: ``columns`` numbers
    the resolutions' gap words in order of first appearance (``matrix_rank``
    says why that order), and each row is a dict column -> int."""
    columns, rows = {}, []
    for diag in one_vertex_diagrams(m):
        # resolving the one vertex leaves chord diagrams, and the relations
        # against the first resolution span those between any two
        first, *others = ([(columns.setdefault(_gap_word(r), len(columns)), sgn)
                           for r, sgn in _resolutions(diag, u)]
                          for u in stu_eligible_legs(diag))
        for other in others:
            row = {}
            for col, sgn in first + [(col, -sgn) for col, sgn in other]:
                row[col] = row.get(col, 0) + sgn
            row = {col: c for col, c in row.items() if c}
            if row:
                rows.append(row)
    return columns, rows


# independent four-term oracle, pure word surgery ------------------------------------


def _word_canonical(pairs, n):
    """Rotation-minimal encoding of a chord pairing on n circle points.

    Entry i of the gap word is how far point i's partner lies ahead of it,
    (partner - i) % n.  The gap word fixes the pairing, and rotating the
    pairing rotates the word, so the least of the word's n rotations names
    the class."""
    gaps = [0] * n
    for a, b in pairs:
        gaps[a], gaps[b] = (b - a) % n, (a - b) % n
    twice = tuple(gaps) * 2
    return min((twice[r:r + n] for r in range(n)), default=())


def dim_A_by_four_term(m):
    """dim of the degree-m circle space from the four-term relations, built
    by direct index surgery on chord words (independent of the Diagram
    machinery).

    A relation marks three of 2m - 1 points and pairs the rest.  Rotating
    the circle commutes with doubling a point and keeps every word's class,
    so the relations marked (0, p2, p3) are all of them, and they come
    first, in the same order, among those of every ordered triple."""
    from .scalars import matrix_rank

    if m < 0:
        raise ValueError(f"degree must be at least 0, got {m}")
    n = 2 * m - 1
    words = {}
    relations = {}  # each relation once: sorted nonzero items, first coefficient > 0

    def term(pairs, at, first, second):
        # double point `at` into two adjacent points, chorded to `first` and
        # then `second`; renumber to 2m points and index the word's class
        def shift(x):
            return x + 1 if x > at else x

        out = [(shift(a), shift(b)) for a, b in pairs]
        out += [(at, shift(first)), (at + 1, shift(second))]
        return words.setdefault(_word_canonical(out, 2 * m), len(words))

    for p2, p3 in itertools.permutations(range(1, n), 2):
        rest = [i for i in range(1, n) if i not in (p2, p3)]
        for pairs in _pairings(rest):
            row = {}
            # D[(P3,P2)@P1] - D[(P2,P3)@P1] - D[(P1,P3)@P2] + D[(P3,P1)@P2], P1 = 0
            for at, first, second, sgn in ((0, p3, p2, 1), (0, p2, p3, -1),
                                           (p2, 0, p3, -1), (p2, p3, 0, 1)):
                idx = term(pairs, at, first, second)
                row[idx] = row.get(idx, 0) + sgn
            items = sorted((k, c) for k, c in row.items() if c)
            if items:
                if items[0][1] < 0:
                    items = [(k, -c) for k, c in items]
                relations[tuple(items)] = None

    # count all chord classes with the same independent canonicalizer
    all_words = {_word_canonical(pairs, 2 * m) for pairs in _pairings(list(range(2 * m)))}
    rank = matrix_rank([dict(items) for items in relations])
    return len(all_words) - rank
