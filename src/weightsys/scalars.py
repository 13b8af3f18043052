"""Exact scalar tower and linear algebra.

Rationals are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator -- exactly the invariants we need, so we use the
stdlib type directly).  On top of that sit sparse multivariate polynomials
(:class:`MultiPoly`), the one other scalar type.
A MultiPoly packs each monomial into one int and keeps int numerators over
one reduced denominator, so its arithmetic runs on Python ints; ``terms``
reads it back as exponent tuples and Fractions.  Every operation is exact;
floating point never appears.

The linear algebra over Q works on Fractions.  One elimination serves the
solver and normal forms: :func:`echelon` reduces each row against the
pivots found so far and keeps a nonzero remainder as the row of its lowest
column, and :func:`reduce_by` gives a vector's normal form modulo those
rows, zero at every pivot column.  Back-substitution runs only in
:func:`sparse_rref`, whose reduced rows the solver reads.  Pivot columns,
normal forms and reduced rows depend on the row space alone, not on the
order of the rows.  :func:`matrix_rank` takes int rows only (the diagram
relations) and counts their pivots fraction-free, on Python ints with each
kept row primitive.  :func:`matrix_inverse` divides nowhere, so it inverts
a matrix over Q[alpha] as a pair (N, D) in that ring.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction


class CostBoundError(RuntimeError):
    """An input whose exact computation would exceed a stated cost bound."""


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a rational constant: {c!r}")


_BITS = 32  # bits of one variable's exponent in a packed monomial
_EXPONENT_MAX = (1 << _BITS) - 1  # all ones: masks one field


def _exponents(key, nv):
    """The exponent tuple of a packed monomial in nv variables."""
    return tuple((key >> (_BITS * i)) & _EXPONENT_MAX for i in range(nv))


def _poly(vars, nums, den):
    """The MultiPoly with nonzero int numerators ``nums`` (taken over) by
    packed monomial over the positive int ``den``, reduced to lowest terms."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
            den //= g
    p = object.__new__(MultiPoly)
    p.vars = vars
    p.nums = nums
    p.den = den
    return p


class MultiPoly:
    """Sparse polynomial over Q in an ordered tuple of named variables.

    A monomial is packed into one int, the exponent of the i-th variable in
    bits [32 i, 32 i + 32), so multiplying monomials is one int addition.
    ``nums`` maps each packed monomial to a nonzero int numerator over one
    positive int ``den``, coprime to the numerators and 1 for zero, so each
    value has exactly one representation.  ``terms`` reads the same value
    as a map from exponent tuples to nonzero Fractions.  Instances are
    treated as immutable and compare by value, but are not hashable;
    arithmetic aligns variable sets automatically, and values in one
    variable tuple skip the alignment at the cost of one comparison.
    """

    __slots__ = ("vars", "nums", "den")

    def __init__(self, vars, terms):
        """The polynomial with coefficient ``terms[e]`` (an int or Fraction)
        at exponent tuple e, one exponent in 0 .. 2**32 - 1 per variable."""
        vars = tuple(vars)
        nv = len(vars)
        coeffs = {}
        for expo, c in terms.items():
            if len(expo) != nv:
                raise ValueError(f"exponent arity {len(expo)} != {nv} variables")
            key = 0
            for i, e in enumerate(expo):
                if not 0 <= e <= _EXPONENT_MAX:
                    raise ValueError(f"exponent {e} is outside 0 .. 2**{_BITS} - 1")
                key |= e << (_BITS * i)
            coeffs[key] = coeffs.get(key, 0) + _as_fraction(c)
        coeffs = {k: c for k, c in coeffs.items() if c}
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.vars = vars
        self.nums = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()}
        self.den = den

    @property
    def terms(self):
        """{exponent tuple: nonzero Fraction}, built on each read."""
        nv, den = len(self.vars), self.den
        return {_exponents(k, nv): Fraction(c, den) for k, c in self.nums.items()}

    # -- construction -----------------------------------------------------

    @classmethod
    def const(cls, c, vars=()):
        c = _as_fraction(c)
        return _poly(tuple(vars), {0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, name):
        return _poly((name,), {1: 1}, 1)

    @classmethod
    def zero(cls, vars=()):
        return _poly(tuple(vars), {}, 1)

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def is_constant(self):
        return self.nums.keys() <= {0}

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.nums.get(0, 0), self.den)

    def degree_in(self, name):
        if not self.nums:
            return -1
        if name not in self.vars:
            return 0
        shift = _BITS * self.vars.index(name)
        return max((k >> shift) & _EXPONENT_MAX for k in self.nums)

    def coefficient_in(self, name, power):
        """Coefficient of name**power, a polynomial in the same variables."""
        shift = _BITS * self.vars.index(name)
        return _poly(self.vars, {k - (power << shift): c for k, c in self.nums.items()
                                 if (k >> shift) & _EXPONENT_MAX == power}, self.den)

    # -- variable-set plumbing ----------------------------------------------

    def with_vars(self, vars):
        """Re-express in a superset (or reordering) of the variables."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        shifts = []   # (field in self, field in vars) of each variable kept
        for i, v in enumerate(self.vars):
            if v in vars:
                shifts.append((_BITS * i, _BITS * vars.index(v)))
            elif self.degree_in(v) > 0:
                raise ValueError(f"cannot drop live variable {v}")
        nums = {}
        for k, c in self.nums.items():
            key = 0
            for old, new in shifts:
                key |= ((k >> old) & _EXPONENT_MAX) << new
            nums[key] = c
        return _poly(vars, nums, self.den)

    def restrict_vars(self):
        """Drop variables that never occur."""
        live = [v for v in self.vars if self.degree_in(v) > 0]
        return self.with_vars(tuple(live))

    def _aligned(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(other, self.vars)
        if not isinstance(other, MultiPoly):
            return NotImplemented, NotImplemented
        if self.vars == other.vars:
            return self, other
        merged = tuple(dict.fromkeys(self.vars + other.vars))
        return self.with_vars(merged), other.with_vars(merged)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        a = self
        if other.__class__ is not MultiPoly or other.vars != a.vars:
            a, other = a._aligned(other)
            if a is NotImplemented:
                return NotImplemented
        g = math.gcd(a.den, other.den)
        fa, fb = other.den // g, a.den // g
        out = {k: c * fa for k, c in a.nums.items()}
        for k, c in other.nums.items():
            c = out.pop(k, 0) + c * fb
            if c:
                out[k] = c
        return _poly(a.vars, out, a.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.vars, {k: -c for k, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, MultiPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self
        if other.__class__ is not MultiPoly or other.vars != a.vars:
            if isinstance(other, (int, Fraction)):
                if not other:
                    return MultiPoly.zero(a.vars)
                num = other.numerator
                return _poly(a.vars, {k: c * num for k, c in a.nums.items()},
                             a.den * other.denominator)
            a, other = a._aligned(other)
            if a is NotImplemented:
                return NotImplemented
        out = {}
        pop = out.pop
        for ky, cy in other.nums.items():
            for kx, cx in a.nums.items():
                k = kx + ky
                c = pop(k, 0) + cx * cy
                if c:
                    out[k] = c
        return _poly(a.vars, out, a.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(other)
        return a.nums == b.nums and a.den == b.den

    # -- substitution -----------------------------------------------------------

    def substitute(self, assignment):
        """Exact substitution of a subset of variables.

        Values may be Fractions, ints or MultiPolys; the result is a
        MultiPoly in the union of the surviving and the substituted-in
        variables.
        """
        for v in assignment:
            if v not in self.vars:
                raise KeyError(f"unknown variable {v}")
        keep = [v for v in self.vars if v not in assignment]
        extra = []
        values = {}
        for v, val in assignment.items():
            if isinstance(val, (int, Fraction)):
                values[v] = MultiPoly.const(val)
            elif isinstance(val, MultiPoly):
                values[v] = val
                extra.extend(x for x in val.vars if x not in extra)
            else:
                raise TypeError(f"bad substitution value for {v}: {val!r}")
        out_vars = tuple(dict.fromkeys(tuple(keep) + tuple(extra)))
        # the terms grouped by their substituted exponents, each group's
        # monomials repacked in out_vars
        fields = [(_BITS * i, v, _BITS * out_vars.index(v) if v in keep else None)
                  for i, v in enumerate(self.vars)]
        groups = {}
        for k, c in self.nums.items():
            mono, powers = 0, []
            for shift, v, new in fields:
                p = (k >> shift) & _EXPONENT_MAX
                if p and new is None:
                    powers.append((v, p))
                elif p:
                    mono |= p << new
            groups.setdefault(tuple(powers), {})[mono] = c
        total = MultiPoly.zero(out_vars)
        pow_cache = {}
        for powers, nums in groups.items():
            term = _poly(out_vars, nums, self.den)
            for key in powers:
                if key not in pow_cache:
                    pow_cache[key] = (values[key[0]] ** key[1]).with_vars(out_vars)
                term = term * pow_cache[key]
            total = total + term
        return total

    # -- univariate helpers ----------------------------------------------------

    def as_univariate(self, name):
        """Dense coefficient list [c0, c1, ...] in ``name``; other variables must be dead."""
        for v in self.vars:
            if v != name and self.degree_in(v) > 0:
                raise ValueError(f"not univariate in {name}: contains {v}")
        d = self.degree_in(name)
        if d < 0:
            return [Fraction(0)]
        shift = _BITS * self.vars.index(name) if name in self.vars else 0
        coeffs = [Fraction(0)] * (d + 1)
        for k, c in self.nums.items():
            coeffs[(k >> shift) & _EXPONENT_MAX] = Fraction(c, self.den)
        return coeffs

    @classmethod
    def from_univariate(cls, name, coeffs):
        return cls((name,), {(i,): c for i, c in enumerate(coeffs) if c})

    # -- printing ----------------------------------------------------------------

    def _sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        for expo, c in self._sorted_terms():
            factors = []
            for v, p in zip(self.vars, expo):
                if p == 1:
                    factors.append(v)
                elif p > 1:
                    factors.append(f"{v}^{p}")
            mono = "*".join(factors)
            if not mono:
                parts.append((c, str(abs(c))))
            elif abs(c) == 1:
                parts.append((c, mono))
            else:
                parts.append((c, f"{abs(c)}*{mono}"))
        out = ""
        for i, (c, text) in enumerate(parts):
            if i == 0:
                out = ("-" if c < 0 else "") + text
            else:
                out += (" - " if c < 0 else " + ") + text
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


# -- univariate polynomial utilities ---------------------------------------------


def squarefree_part(p, name):
    """p / gcd(p, p') for univariate p, normalized monic."""
    return MultiPoly.from_univariate(name, _squarefree(p.as_univariate(name)))


def _trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _gcd(a, b):
    """Monic gcd of two coefficient lists; [] when both are zero."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _trim(_poly_divmod(a, b)[1])
    return [c / a[-1] for c in a]


def _squarefree(coeffs):
    q, r = _poly_divmod(coeffs, _gcd(coeffs, [i * c for i, c in enumerate(coeffs)][1:]))
    assert not any(r), "gcd does not divide"
    return [c / q[-1] for c in q]


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        if not a[-1]:
            a.pop()
            continue
        f = a[-1] / lb
        shift = len(a) - 1 - db
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
    return q, a


def _value(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def rational_roots(p, name):
    """All rational roots of a univariate polynomial, with multiplicities.

    Returns a sorted list of (root, multiplicity).  Exact: a rational
    root's denominator divides the leading coefficient L of the primitive
    integer polynomial, and two such fractions lie at least 1/L^2 apart.  So
    each real root of the squarefree part, isolated by its Sturm sequence and
    narrowed below 1/(2 L^2) by bisection, has one candidate: the fraction
    with denominator at most L nearest the midpoint.  Exact division
    verifies it and counts its multiplicity.
    """
    coeffs = p.as_univariate(name)
    if not any(coeffs):
        raise ValueError("zero polynomial has every root")
    roots = []
    # multiplicity of the root 0 = valuation
    val = 0
    while not coeffs[val]:
        val += 1
    if val:
        roots.append((Fraction(0), val))
        coeffs = coeffs[val:]
    denlcm = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denlcm) for c in coeffs]
    lead = abs(ints[-1]) // math.gcd(*ints)
    width = Fraction(1, 2 * lead * lead)
    sq = _squarefree(coeffs)
    cur = coeffs
    for a, b in _isolate(sq):
        # the one root r is simple: sq has the sign of sq(b) on (r, b] only
        vb = _value(sq, b)
        while vb and b - a >= width:
            m = (a + b) / 2
            vm = _value(sq, m)
            if not vm or (vm > 0) == (vb > 0):
                b, vb = m, vm
            else:
                a = m
        cand = ((a + b) / 2).limit_denominator(lead) if vb else b
        mult = 0
        while len(cur) > 1:
            quotient, rem = _poly_divmod(cur, [-cand, 1])
            if any(rem):
                break
            cur, mult = quotient, mult + 1
        if mult:
            roots.append((cand, mult))
    return sorted(roots)


def _isolate(sq):
    """Intervals (a, b], each holding exactly one real root of the monic
    squarefree polynomial ``sq``, found by bisection on its Sturm sequence."""
    chain = [sq, [i * c for i, c in enumerate(sq)][1:]]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _trim(_poly_divmod(chain[-2], chain[-1])[1])])

    def changes(x):
        signs = [v > 0 for v in (_value(q, x) for q in chain) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in sq)
    out = []
    todo = [(-bound, changes(-bound), bound, changes(bound))]
    while todo:
        a, va, b, vb = todo.pop()
        if va - vb == 1:
            out.append((a, b))
        elif va - vb > 1:
            m = (a + b) / 2
            vm = changes(m)
            todo += [(a, va, m, vm), (m, vm, b, vb)]
    return out


# -- top-level operations -------------------------------------------------------


class LinearSolution:
    """Result of an exact linear solve: particular solution + nullspace.

    ``consistent`` is False iff the system has no solution; then
    ``particular`` is None.  The nullspace basis is in reduced form: each
    vector has 1 in its own free column and zeros in the other free columns.
    """

    def __init__(self, consistent, particular, nullspace, rank, pivots):
        self.consistent = consistent
        self.particular = particular    # list, or None when inconsistent
        self.nullspace = nullspace
        self.rank = rank
        self.pivots = pivots


def reduce_by(vec, pivots):
    """Normal form of sparse ``vec`` modulo the span of ``pivots``.

    ``pivots`` is an echelon form ``{pivot column: row}`` as :func:`echelon`
    returns it.  Rows are subtracted in increasing pivot order, so the
    result is zero at every pivot column; it depends only on ``vec`` and
    the span.
    """
    vec = dict(vec)
    for p in sorted(pivots):
        f = vec.get(p)
        if f:
            for c, v in pivots[p].items():
                s = vec.get(c, 0) - f * v
                if s:
                    vec[c] = s
                else:
                    vec.pop(c, None)
    return vec


def echelon(rows):
    """Echelon form of sparse rows (dicts col -> value): ``{pivot column:
    row}``, each row 1 at its pivot and 0 at the pivots found before it.

    Each row, its entries taken into Q as Fractions, is reduced against the
    pivots so far; a nonzero remainder becomes the row of its lowest
    column.  The pivot columns are those of the reduced row echelon form.
    """
    pivots = {}
    for r in rows:
        vec = reduce_by({c: Fraction(v) for c, v in r.items() if v}, pivots)
        if vec:
            p = min(vec)
            inv = vec[p]
            pivots[p] = {c: v / inv for c, v in vec.items()}
    return pivots


def sparse_rref(rows):
    """Reduced row echelon form of sparse rows (dicts col -> value).

    The :func:`echelon` rows with each tail reduced by :func:`reduce_by`,
    highest pivot first; returns (pivot_columns, rref_rows), pivots
    increasing.
    """
    pivots = echelon(rows)
    for p in sorted(pivots, reverse=True):
        tail = {c: v for c, v in pivots[p].items() if c != p}
        pivots[p] = {p: pivots[p][p], **reduce_by(tail, pivots)}
    order = sorted(pivots)
    return order, [pivots[p] for p in order]


def solve_linear_system(rows, rhs, ncols=None):
    """Solve rows . x = rhs exactly over a field.

    ``rows`` are sparse vectors (dicts col -> value) over the columns
    0 .. ncols - 1 (a column outside them raises ValueError); ``rhs`` is a
    dense list, one entry per row.  Inconsistency is a legal return, not an
    error.
    """
    rows = [dict(r) for r in rows]
    if ncols is None:
        ncols = 1 + max((max(r) for r in rows if r), default=-1)
    if len(rhs) != len(rows):
        raise ValueError("rhs length mismatch")
    if any(not 0 <= c < ncols for r in rows for c in r):
        raise ValueError(f"a row has a column outside 0 .. {ncols - 1}")
    RHS = ncols  # augmented column
    pivots, rref = sparse_rref({**r, RHS: b} for r, b in zip(rows, rhs))
    if RHS in pivots:
        return LinearSolution(False, None, _nullspace(pivots, rref, ncols, RHS),
                              rank=len([p for p in pivots if p != RHS]),
                              pivots=[p for p in pivots if p != RHS])
    particular = [0] * ncols
    for p, row in zip(pivots, rref):
        particular[p] = row.get(RHS, 0)
    return LinearSolution(True, particular, _nullspace(pivots, rref, ncols, RHS),
                          rank=len(pivots), pivots=list(pivots))


def _nullspace(pivots, rref, ncols, rhs_col):
    piv = [p for p in pivots if p != rhs_col]
    pivset = set(piv)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        vec = {free: Fraction(1)}
        for p, row in zip(pivots, rref):
            if p == rhs_col:
                continue
            c = row.get(free)
            if c:
                vec[p] = -c
        basis.append(vec)
    return basis


def matrix_rank(rows):
    """Rank over Q of sparse int rows (dicts col -> int) by fraction-free
    elimination.  Rows with Fraction entries have the rank
    ``len(echelon(rows))``.

    The rows are taken shortest first, in a stable sort, so that short
    rows, such as the two-entry relations of ``dim_A_by_stu``, become kept
    rows before long rows are reduced against them.  Each kept row is
    primitive (its content divided out) and keyed by its lowest column.  A
    new row is reduced at its own columns only, taken in increasing order
    from a heap.  At a kept row's column c, with ``a`` the kept row's entry
    there and ``f`` the new row's: when ``a`` divides ``f``, as the mostly
    +-1 entries of primitive rows usually do, the row becomes ``row - (f //
    a) * kept`` and is not scaled; otherwise it becomes ``a * row - f *
    kept`` with ``a`` and ``f`` over their gcd.  Its first nonzero column
    that keys no kept row makes it a kept row.  Scaling by nonzero ints
    keeps the rational span, so the kept rows are an echelon basis of it.

    The column order sets which columns key kept rows, and so the work.
    ``dim_A_by_stu`` numbers its columns in order of first appearance: at
    m = 6 its 3,041 rows rank in about 68 ms so, 66 ms with the columns in
    canonical class order and 222 ms in sorted gap-word order (CPython
    3.11, 2-core host).
    """
    pivots = {}
    for r in sorted(rows, key=len):
        vec = {c: v for c, v in r.items() if v}
        heap = list(vec)
        heapq.heapify(heap)
        while heap:
            c = heapq.heappop(heap)
            f = vec.get(c)
            if not f:
                continue
            piv = pivots.get(c)
            if piv is None:
                g = math.gcd(*vec.values())
                pivots[c] = {k: v // g for k, v in vec.items()}
                break
            a = piv[c]
            if f % a:
                g = math.gcd(a, f)
                a, f = a // g, f // g
                vec = {k: a * v for k, v in vec.items()}
            else:
                f //= a
            for k, v in piv.items():
                s = vec.get(k, 0) - f * v
                if s:
                    if k not in vec:
                        heapq.heappush(heap, k)
                    vec[k] = s
                else:
                    vec.pop(k, None)
    return len(pivots)


def matrix_inverse(mat):
    """The inverse of a dense square matrix over Q or Q[alpha] as a pair
    ``(N, D)`` with ``mat . N == D . I``: Gauss-Jordan elimination without
    division, so N and D stay in the ring of the entries.

    At each column c a row with a nonzero entry there becomes the pivot row
    ``pivot``, with ``p = pivot[c]``, and every other row ``row`` becomes
    ``p * row - row[c] * pivot``.  Row i ends as ``d_i`` at column i and 0
    elsewhere on the left, so ``D`` is the product of the ``d_i`` and row i
    of ``N`` is its right half times the other ``d_j``.  Raises ValueError
    on a singular matrix.
    """
    n = len(mat)
    rows = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(mat)]
    for c in range(n):
        r = next((k for k in range(c, n) if rows[k][c]), None)
        if r is None:
            raise ValueError("matrix is singular")
        rows[c], rows[r] = rows[r], rows[c]
        pivot = rows[c]
        p = pivot[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != c and f:
                rows[i] = [p * x - f * y for x, y in zip(row, pivot)]
    d = [rows[i][i] for i in range(n)]
    N = []
    for i, row in enumerate(rows):
        others = math.prod(d[:i] + d[i + 1:])
        N.append([others * x for x in row[n:]])
    return N, math.prod(d)
