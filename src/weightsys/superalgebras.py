"""Z/2-graded Lie algebras with invariant form and Casimir tensor.

Two exact instances are provided: sl2 over Q and the 17-dimensional family
D(2,1,alpha) over Q[alpha] (or over Q at a fixed rational alpha != 0, -1).
Both are built from sl2 triples: sl2 is one triple of weight 1, and
D(2,1,alpha) is three commuting triples of weights alpha+1, -1 and -alpha
plus an odd part; a triple's weight scales its Casimir terms and its entry
of the form on H*.  :func:`d21_rootdata` builds the family's Cartan data
alone, for the root-system formulas that read nothing else.
Structure constants are stored explicitly; :func:`validate` checks, exactly
and symbolically where applicable, every property the rest of the package
relies on: super-antisymmetry, the super Jacobi identity, supersymmetry /
invariance / regularity of the bilinear form, and the inverse-tensor and
ad-invariance identities for the Casimir.  The Jacobi and invariance
checks sum products of nonzero structure constants (and nonzero form
entries) rather than looping over every basis triple.

Conventions: parity is 0 (even) or 1 (odd); the bracket table stores
[b_i, b_j] for every ordered pair as a sparse map {k: coefficient}; the
Casimir is a list of (i, j, coefficient) triples for omega = sum c b_i (x) b_j.
The bilinear form g is the inverse matrix of the Casimir coefficient matrix
(regularity and ad-invariance of the Casimir make this the invariant form
that induces it; the validator checks all of this rather than assuming it).
It is held as g = N / D with N and D over the algebra's ring, Q or
Q[alpha]: the form of D(2,1,alpha) has entries such as 1/(alpha + 1), and
every check of it is linear in g, so it reads N and D directly.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .scalars import MultiPoly, matrix_inverse

EVEN, ODD = 0, 1


class RootData:
    """Cartan data: the Cartan basis, the form on its dual, and the positive
    roots with their parities.

    Roots are integer coordinate vectors in the basis dual to the chosen
    Cartan basis.  ``negative_order`` fixes the PBW order of the lowering
    operators (basis indices into the algebra).
    """

    def __init__(self, cartan, hstar_form, positive_roots, negative_order, highest_root):
        self.cartan = cartan                  # indices of the Cartan basis elements
        self.hstar_form = hstar_form          # matrix of the induced form on H*
        self.positive_roots = positive_roots  # list of (coords, parity)
        self.negative_order = negative_order  # basis indices of lowering operators, PBW order
        self.highest_root = highest_root      # coords of the highest root

    def inner(self, w1, w2):
        """<w1, w2> through the H* form matrix."""
        acc = 0
        n = len(self.cartan)
        for i in range(n):
            for j in range(n):
                acc = self.hstar_form[i][j] * w1[i] * w2[j] + acc
        return acc


class SuperAlgebra:
    """A Lie superalgebra given by its structure constants.  Its name is a
    label for reports; ``carriers`` holds the evaluation carriers built on
    it (see :mod:`weightsys.evaluation`), so each algebra object keeps its
    own values.  Equality is identity, as is the hash: an algebra built
    again is another object, with carriers of its own."""

    def __init__(self, name, basis_names, parity, bracket_table, casimir, rootdata):
        self.name = name
        self.basis_names = basis_names
        self.parity = parity
        self.bracket_table = bracket_table    # (i, j) -> {k: coeff}
        self.casimir = casimir                # [(i, j, coeff)]
        self.rootdata = rootdata
        self.carriers = {}

    @property
    def dim(self):
        return len(self.basis_names)

    @property
    def symbolic(self):
        """True iff the scalars are polynomials in alpha, as the Casimir's are."""
        return any(isinstance(c, MultiPoly) for _, _, c in self.casimir)

    def bracket(self, i, j):
        return self.bracket_table.get((i, j), {})

    def casimir_matrix(self):
        mat = [[0] * self.dim for _ in range(self.dim)]
        for i, j, c in self.casimir:
            mat[i][j] = mat[i][j] + c
        return mat

    @functools.cached_property
    def form(self):
        """The invariant bilinear form g = (casimir matrix)^-1 as the pair
        (N, D) with g = N / D, see :func:`weightsys.scalars.matrix_inverse`."""
        return matrix_inverse(self.casimir_matrix())


# ------------------------------------------------------------ sl2 triples ---


def _add(table, i, j, k, c):
    """Add c to the coefficient of b_k in [b_i, b_j], keeping rows sparse."""
    row = table.setdefault((i, j), {})
    row[k] = row.get(k, 0) + c
    if not row[k]:
        del row[k]


def _triples(table, weights, one):
    """Write the brackets of r commuting sl2 triples, E_i, H_i, F_i at basis
    indices i, r+i, 2r+i, into ``table``, and return their Casimir terms
    w_i * (E_i (x) F_i + F_i (x) E_i + H_i (x) H_i / 2) for the weights w_i."""
    r = len(weights)
    casimir = []
    for i, w in enumerate(weights):
        e, h, f = i, r + i, 2 * r + i
        _add(table, h, e, e, 2 * one)
        _add(table, e, h, e, -2 * one)
        _add(table, h, f, f, -2 * one)
        _add(table, f, h, f, 2 * one)
        _add(table, e, f, h, one)
        _add(table, f, e, h, -one)
        casimir += [(e, f, w), (f, e, w), (h, h, Fraction(1, 2) * w)]
    return casimir


def _rootdata(weights, zero, odd_roots, odd_lowering):
    """The Cartan data of the triples of :func:`_triples` plus an odd part:
    the H_i span the Cartan, the form on H* is diag(w_i / 2), the even
    positive roots are the 2 e_i (the first is the highest root), and the
    lowering operators are the F_i, then ``odd_lowering``."""
    r = len(weights)
    even = [tuple(2 if j == i else 0 for j in range(r)) for i in range(r)]
    return RootData(
        cartan=tuple(range(r, 2 * r)),
        hstar_form=[[Fraction(1, 2) * w if j == i else zero for j in range(r)]
                    for i, w in enumerate(weights)],
        positive_roots=[(root, EVEN) for root in even] + odd_roots,
        negative_order=tuple(range(2 * r, 3 * r)) + odd_lowering,
        highest_root=even[0],
    )


def sl2():
    """sl2 with basis (e, h, f), <h,h> = 2, <e,f> = 1: one triple of weight 1."""
    one = Fraction(1)
    table = {}
    casimir = _triples(table, [one], one)
    return SuperAlgebra("sl2", ["e", "h", "f"], (EVEN, EVEN, EVEN),
                        table, casimir, _rootdata([one], Fraction(0), [], ()))


# ------------------------------------------------------- D(2,1,alpha) --------

# Basis layout: E1 E2 E3 | H1 H2 H3 | F1 F2 F3 | v_eps for eps in {+1,-1}^3,
# listed with +1 first in each slot (v_{+++}, v_{++-}, ..., v_{---}).

_E, _H, _F = (0, 1, 2), (3, 4, 5), (6, 7, 8)
_EPS = [(e1, e2, e3) for e1 in (1, -1) for e2 in (1, -1) for e3 in (1, -1)]


def _vidx(eps):
    return 9 + _EPS.index(tuple(eps))


def _d21_weights(alpha):
    """(the weights alpha+1, -1, -alpha of D(2,1,alpha)'s three sl2 triples,
    the scalar of a rational): alpha=None gives polynomials over Q[alpha];
    a rational alpha must avoid 0 and -1, where the family degenerates."""
    if alpha is None:
        A, R = MultiPoly.variable("alpha"), lambda x: MultiPoly.const(x, ("alpha",))
    else:
        A, R = Fraction(alpha), Fraction
        if A in (0, -1):
            raise ValueError("alpha must avoid 0 and -1")
    return [A + 1, R(-1), -A], R


def d21_rootdata(alpha=None):
    """The Cartan data of D(2,1,alpha), built without the algebra; alpha as
    in :func:`d21`.  The form on H* is diag((1+alpha)/2, -1/2, -alpha/2)."""
    weights, R = _d21_weights(alpha)
    return _rootdata(weights, R(0),
                     [((1, e2, e3), ODD) for e2 in (1, -1) for e3 in (1, -1)],
                     tuple(_vidx(eps) for eps in _EPS if eps[0] < 0))


def d21(alpha=None):
    """The 17-dimensional superalgebra D(2,1,alpha): three commuting sl2
    triples of weights alpha+1, -1, -alpha and an odd part.

    alpha=None builds the symbolic instance over Q[alpha]; a Fraction
    builds the numeric instance (alpha in {0, -1} is rejected: the family
    degenerates there).
    """
    if alpha is not None:
        alpha = Fraction(alpha)   # the label prints it as a Fraction
    weights, R = _d21_weights(alpha)

    names = ([f"E{i}" for i in (1, 2, 3)] + [f"H{i}" for i in (1, 2, 3)]
             + [f"F{i}" for i in (1, 2, 3)]
             + ["v" + "".join("p" if e > 0 else "m" for e in eps) for eps in _EPS])
    parity = tuple([EVEN] * 9 + [ODD] * 8)

    table = {}
    one = R(1)
    casimir = _triples(table, weights, one)

    # even action on the odd part
    for eps in _EPS:
        v = _vidx(eps)
        for i in range(3):
            _add(table, _H[i], v, v, eps[i] * one)
            _add(table, v, _H[i], v, -eps[i] * one)
            if eps[i] == -1:
                w = list(eps)
                w[i] = 1
                _add(table, _E[i], v, _vidx(w), one)
                _add(table, v, _E[i], _vidx(w), -one)
            if eps[i] == 1:
                w = list(eps)
                w[i] = -1
                _add(table, _F[i], v, _vidx(w), one)
                _add(table, v, _F[i], _vidx(w), -one)

    # odd-odd bracket: the G_i two-argument table contracted with the
    # beta_i = eps_i * [gamma_i == -eps_i] prefactors, weighted by the
    # triples' weights.
    def G(i, a, b):
        if a == 1 and b == 1:
            return {_E[i]: -one}
        if a == -1 and b == -1:
            return {_F[i]: one}
        return {_H[i]: Fraction(1, 2) * one}

    for eps in _EPS:
        for gam in _EPS:
            beta = [eps[i] if gam[i] == -eps[i] else 0 for i in range(3)]
            pref = [beta[1] * beta[2], beta[0] * beta[2], beta[0] * beta[1]]
            for i in range(3):
                if not pref[i]:
                    continue
                for k, c in G(i, eps[i], gam[i]).items():
                    _add(table, _vidx(eps), _vidx(gam), k, weights[i] * (pref[i] * c))

    # Casimir: omega = (1+alpha) w1 - w2 - alpha w3 + pi, the triples' terms
    # w_i above and pi pairing v_eps with v_{-eps}.  Given the even part,
    # ad-invariance determines the odd block uniquely (the invariant tensor
    # space is one-dimensional); with the bracket conventions above that
    # forces the pairing sign -eps1*eps2*eps3, which the validator certifies.
    for eps in _EPS:
        sgn = -eps[0] * eps[1] * eps[2]
        casimir.append((_vidx(eps), _vidx(tuple(-e for e in eps)), sgn * one))

    label = "d21_symbolic" if alpha is None else f"d21_alpha_{alpha}"
    return SuperAlgebra(label, names, parity, table, casimir, d21_rootdata(alpha))


# ------------------------------------------------------------ validation -----


def _is_zero_lc(lc):
    return all(not v for v in lc.values())


def validate(L):
    """Run every structural check on a SuperAlgebra, exactly.

    Returns a report dict with one entry per check: {"ok": bool,
    "failures": [witness, ...]}.  All checks are polynomial identities in
    alpha for the symbolic instance.  Regularity is read from inverting the
    Casimir matrix C into the form g = N / D: on a singular matrix
    ``casimir_regular`` and the three checks of the form that does not exist
    (the inverse tensor, supersymmetry, invariance) report failure, and
    nothing is raised.  Each check of the form is linear in g, so it runs on
    N: the inverse tensor is ``C . N == D . I``, supersymmetry and invariance
    of g are those of N.
    """
    n = L.dim
    par = L.parity
    names = L.basis_names
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
                failures.append((names[i], names[j]))
    report["super_antisymmetry"] = {"ok": not failures, "failures": failures[:5]}

    # the nonzero rows [b_j, b_k] of each k: left[k] holds (j, row), right[j]
    # holds (k, row).  A sum below runs over nonzero structure constants only,
    # so a triple that no product reaches is exactly zero.
    table = L.bracket_table
    left, right = [[] for _ in range(n)], [[] for _ in range(n)]
    for (j, k), row in table.items():
        if row:
            left[k].append((j, row))
            right[j].append((k, row))

    # [x,[y,z]] - [[x,y],z] - (-1)^{|x||y|} [y,[x,z]] = 0, accumulated one x
    # at a time over (y, z, component)
    failures = []
    for x in range(n):
        acc = {}
        for (y, z), yz in table.items():        # [x,[y,z]]
            for k, c in yz.items():
                for m, v in L.bracket(x, k).items():
                    acc[y, z, m] = acc.get((y, z, m), 0) + c * v
        for y, xy in right[x]:                  # [[x,y],z]
            for k, c in xy.items():
                for z, kz in right[k]:
                    for m, v in kz.items():
                        acc[y, z, m] = acc.get((y, z, m), 0) - c * v
        for z, xz in right[x]:                  # [y,[x,z]]
            for k, c in xz.items():
                for y, yk in left[k]:
                    sc = c if par[x] and par[y] else -c
                    for m, v in yk.items():
                        acc[y, z, m] = acc.get((y, z, m), 0) + sc * v
        failures += [(names[x], names[y], names[z])
                     for y, z in sorted({(y, z) for (y, z, _), v in acc.items() if v})]
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
            failures.append(names[x])
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
    # inverse-tensor identity C . N == D . I (N is built so; recheck the
    # contraction explicitly as a guard against cache corruption)
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
                failures.append((names[i], names[j]))
            if par[i] != par[j] and N[i][j]:
                failures.append((names[i], names[j], "parity"))
    report["form_supersymmetric"] = {"ok": not failures, "failures": failures[:5]}

    # invariance <[x,y],z> = <x,[y,z]>, accumulated one x at a time over (y, z)
    nonzero = [[(z, v) for z, v in enumerate(row) if v] for row in N]
    failures = []
    for x in range(n):
        acc = {}
        for y, xy in right[x]:                  # <[x,y],z>
            for k, c in xy.items():
                for z, v in nonzero[k]:
                    acc[y, z] = acc.get((y, z), 0) + c * v
        for (y, z), yz in table.items():        # <x,[y,z]>
            for k, c in yz.items():
                if N[x][k]:
                    acc[y, z] = acc.get((y, z), 0) - c * N[x][k]
        failures += [(names[x], names[y], names[z])
                     for y, z in sorted(yz for yz, v in acc.items() if v)]
    report["form_invariant"] = {"ok": not failures, "failures": failures[:5]}

    report["ok"] = all(v["ok"] for k, v in report.items() if isinstance(v, dict))
    return report


def cartan_form_block(L):
    """Restriction of the invariant form N / D to the Cartan subalgebra, as
    the pair (Cartan block of N, D)."""
    N, D = L.form
    idx = L.rootdata.cartan
    return [[N[i][j] for j in idx] for i in idx], D

