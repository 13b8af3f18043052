"""Structural tests for sl2 and D(2,1,alpha)."""

import json
from fractions import Fraction

import pytest

from oracles import (
    algebra_fields,
    corrupt,
    dense_jacobi_failures,
    dense_validate,
    sl2_transcription,
)
from weightsys.scalars import MultiPoly
from weightsys.superalgebras import (
    SuperAlgebra,
    cartan_form_block,
    d21,
    sl2,
    validate,
)


@pytest.fixture(scope="module")
def D_sym():
    return d21()


@pytest.fixture(scope="module")
def D2():
    return d21(Fraction(2))


def test_sl2_defining_relations():
    L = sl2()
    e, h, f = map(L.basis_names.index, "ehf")
    assert L.bracket(h, e) == {e: 2}
    assert L.bracket(e, f) == {h: 1}
    rep = validate(L)
    assert rep["ok"], rep


def test_sl2_is_its_transcription():
    table, casimir = sl2_transcription()
    L = sl2()
    assert list(L.bracket_table.items()) == list(table.items())
    assert L.casimir == casimir


@pytest.mark.parametrize("alpha, weights", [
    (Fraction(2), (3, -1, -2)),
    (Fraction(1, 3), (Fraction(4, 3), -1, Fraction(-1, 3))),
])
def test_d21_holds_three_sl2_triples_of_its_weights(alpha, weights):
    # E_i, H_i, F_i bracket as sl2's e, h, f, and their Casimir terms, listed
    # first, are sl2's times alpha + 1, -1 and -alpha
    table, casimir = sl2_transcription()
    L = d21(alpha)
    for i, w in enumerate(weights):
        at = (i, 3 + i, 6 + i)
        for (a, b), row in table.items():
            assert L.bracket(at[a], at[b]) == {at[k]: c for k, c in row.items()}
        assert L.casimir[3 * i:3 * i + 3] == [(at[x], at[y], w * c) for x, y, c in casimir]


def test_dimension_counts(D_sym):
    assert D_sym.dim == 17
    assert sum(D_sym.parity) == 8
    assert D_sym.parity.count(0) == 9


def test_defining_bracket_entries(D_sym):
    # [H1, v_{1,-1,-1}] = v_{1,-1,-1}
    ix = D_sym.basis_names.index
    h1, v = ix("H1"), ix("vpmm")
    assert D_sym.bracket(h1, v) == {v: MultiPoly.const(1, ("alpha",))}
    # [E1, F1] = H1, [E1, F2] = 0
    assert D_sym.bracket(ix("E1"), ix("F1")) == {ix("H1"): MultiPoly.const(1, ("alpha",))}
    assert D_sym.bracket(ix("E1"), ix("F2")) == {}


def test_simple_generators_close_onto_h1(D_sym):
    # [e1, f1] = ((alpha+1) H1 + H2 + alpha H3) / 2
    a = MultiPoly.variable("alpha")
    ix = D_sym.basis_names.index
    got = D_sym.bracket(ix("vpmm"), ix("vmpp"))
    assert got[ix("H1")] == (a + 1) * Fraction(1, 2)
    assert got[ix("H2")] == MultiPoly.const(Fraction(1, 2), ("alpha",))
    assert got[ix("H3")] == a * Fraction(1, 2)


def test_degenerate_alpha_rejected():
    with pytest.raises(ValueError):
        d21(0)
    with pytest.raises(ValueError):
        d21(-1)


def test_full_validation_symbolic(D_sym):
    rep = validate(D_sym)
    assert rep["ok"], {k: v for k, v in rep.items() if isinstance(v, dict) and not v["ok"]}


def test_full_validation_numeric(D2):
    assert validate(D2)["ok"]


def test_corrupted_constant_reports_witness(D_sym):
    ix = D_sym.basis_names.index
    bad = corrupt(D_sym, ix("E1"), ix("F1"), ix("H2"), MultiPoly.const(1, ("alpha",)))
    rep = validate(bad)
    assert not rep["super_jacobi"]["ok"]
    assert rep["super_jacobi"]["failures"]


def _singular_casimir_sl2():
    """sl2 without its (h, h) Casimir term: the Casimir matrix has a zero row
    and column, so there is no form to check."""
    L = sl2()
    h = L.basis_names.index("h")
    return SuperAlgebra("sl2_without_hh", L.basis_names, L.parity, L.bracket_table,
                        [t for t in L.casimir if t[:2] != (h, h)], rootdata=L.rootdata)


def test_singular_casimir_is_reported_not_raised():
    rep = validate(_singular_casimir_sl2())
    assert rep["super_jacobi"]["ok"]
    assert not rep["casimir_regular"]["ok"]
    assert not rep["casimir_inverse_tensor"]["ok"]
    assert rep["ok"] is False


def _fe_doubled_sl2():
    """sl2 with its f (x) e Casimir weight doubled: the Casimir matrix is
    not symmetric, and neither is the form."""
    L = sl2()
    e, f = L.basis_names.index("e"), L.basis_names.index("f")
    return SuperAlgebra("sl2_fe_doubled", L.basis_names, L.parity, L.bracket_table,
                        [(i, j, 2 * c if (i, j) == (f, e) else c) for i, j, c in L.casimir],
                        rootdata=L.rootdata)


def _odd_partnered_d21():
    """D(2,1,2) with an extra Casimir term E1 (x) vppp: the form pairs an
    even element with an odd one."""
    L = d21(Fraction(2))
    ix = L.basis_names.index
    return SuperAlgebra("d21_odd_partnered", L.basis_names, L.parity, L.bracket_table,
                        L.casimir + [(ix("E1"), ix("vppp"), Fraction(1))], rootdata=L.rootdata)


def _wrong_form_sl2():
    """sl2 whose cached form holds a wrong N: one more at (e, f)."""
    L = sl2()
    N, D = L.form
    N = [list(row) for row in N]
    N[L.basis_names.index("e")][L.basis_names.index("f")] += 1
    L.form = (N, D)
    return L


def _mutant(alpha, i, j, k, delta):
    """d21(alpha) with the structure constant [i, j]_k shifted by delta."""
    L = d21(alpha)
    ix = L.basis_names.index
    if alpha is None:
        delta = MultiPoly.const(delta, ("alpha",))
    return corrupt(L, ix(i), ix(j), ix(k), delta)


# (builder, whether the dense Jacobi check finds more than five failing triples)
VALIDATE_CASES = {
    "sl2": (sl2, False),
    "d21_symbolic": (d21, False),
    "d21_alpha_2": (lambda: d21(Fraction(2)), False),
    "d21_alpha_1/3": (lambda: d21(Fraction(1, 3)), False),
    "sl2_singular_casimir": (_singular_casimir_sl2, False),
    # negative controls of the form's checks (FORM_CONTROLS)
    "sl2_fe_doubled": (_fe_doubled_sl2, False),
    "d21_odd_partnered": (_odd_partnered_d21, False),
    "sl2_wrong_form": (_wrong_form_sl2, False),
    "even_even_symbolic": (lambda: _mutant(None, "E1", "F1", "H2", 1), True),
    "even_odd_symbolic": (lambda: _mutant(None, "E1", "vmpp", "vppp", 1), True),
    "odd_odd_symbolic": (lambda: _mutant(None, "vpmm", "vmpp", "H1", 1), True),
    "even_even_numeric": (lambda: _mutant(2, "H1", "E1", "E1", 1), True),
    "even_odd_numeric": (lambda: _mutant(2, "vmpp", "F2", "vmmp", Fraction(1, 2)), True),
    "odd_odd_numeric": (lambda: _mutant(Fraction(1, 3), "vppp", "vmmm", "H2", -3), True),
}


VALID = {"sl2", "d21_symbolic", "d21_alpha_2", "d21_alpha_1/3"}
# the check each negative control of the form fails with witnesses
FORM_CONTROLS = {"sl2_fe_doubled": "form_supersymmetric",
                 "d21_odd_partnered": "form_supersymmetric",
                 "sl2_wrong_form": "casimir_inverse_tensor"}


@pytest.mark.parametrize("case", list(VALIDATE_CASES))
def test_validate_agrees_with_its_dense_reference(case):
    build, many = VALIDATE_CASES[case]
    L = build()
    # every check in order, with its ok and its witnesses in order
    report = validate(L)
    assert list(report.items()) == list(dense_validate(L).items())
    assert report["ok"] is (case in VALID)
    if case in FORM_CONTROLS:
        assert report[FORM_CONTROLS[case]]["failures"]
    if many:  # more failing triples than a report keeps: the first five, in order
        assert len(dense_jacobi_failures(L)) > 5


def test_caches_take_no_part_in_equality():
    # the form and the carriers filled on one side only: two builds keep
    # equal constructor fields, and neither cache is one of them.  An
    # algebra equals itself alone, so its hash agrees with ==
    for build in (sl2, lambda: d21(Fraction(2))):
        a, b = build(), build()
        assert a.form and a.form is a.form
        a.carriers["probe"] = object()
        assert algebra_fields(a) == algebra_fields(b) and "form" not in vars(b)
        assert not any(f is a.form or f is a.carriers for f in algebra_fields(a))
        assert a == a and a != b and hash(a) == hash(a)
        assert len({a, b, a}) == 2


@pytest.mark.parametrize("cache", [{"symbolic": True}, {"carriers": {}}])
def test_constructor_takes_no_cache_or_ring_flag(cache):
    L = sl2()
    with pytest.raises(TypeError):
        SuperAlgebra(L.name, L.basis_names, L.parity, L.bracket_table, L.casimir,
                     rootdata=L.rootdata, **cache)


def test_ring_is_read_from_the_casimir():
    assert d21().symbolic is True
    assert d21(Fraction(2)).symbolic is False
    assert sl2().symbolic is False


def test_cartan_form_block_matches_stated_matrix(D_sym):
    a = MultiPoly.variable("alpha")
    # the form is N / D: diag(2/(alpha + 1), -2, -2/alpha) on the Cartan block
    block, D = cartan_form_block(D_sym)
    assert block[0][0] * (a + 1) == 2 * D
    assert block[1][1] == -2 * D
    assert block[2][2] * a == -2 * D
    for i in range(3):
        for j in range(3):
            if i != j:
                assert block[i][j] == 0


def test_hstar_form_is_inverse_of_cartan_block(D_sym):
    # diag((1+alpha)/2, -1/2, -alpha/2)
    a = MultiPoly.variable("alpha")
    hs = D_sym.rootdata.hstar_form
    assert hs[0][0] == (a + 1) * Fraction(1, 2)
    assert hs[1][1] == MultiPoly.const(Fraction(-1, 2), ("alpha",))
    assert hs[2][2] == a * Fraction(-1, 2)


def test_positive_system_shape(D_sym):
    roots = D_sym.rootdata.positive_roots
    assert len(roots) == 7
    even = [r for r in roots if r[1] == 0]
    odd = [r for r in roots if r[1] == 1]
    assert sorted(r[0] for r in even) == [(0, 0, 2), (0, 2, 0), (2, 0, 0)]
    assert sorted(r[0] for r in odd) == [(1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1)]


def test_highest_root_in_simple_coordinates(D_sym):
    rd = D_sym.rootdata
    simple_roots = [(1, -1, -1), (0, 2, 0), (0, 0, 2)]
    positive = [coords for coords, _ in rd.positive_roots]
    assert all(root in positive for root in simple_roots)
    combo = [2 * simple_roots[0][i] + simple_roots[1][i] + simple_roots[2][i]
             for i in range(3)]
    assert tuple(combo) == rd.highest_root == (2, 0, 0)


def test_vogel_ring_specialization():
    a = MultiPoly.variable("a")
    b = MultiPoly.variable("b")
    c = MultiPoly.variable("c")
    al = MultiPoly.variable("alpha")
    # D(2,1,alpha) sits at Vogel parameters (a, b, c) = (-alpha-1, 1, alpha)
    vogel = {"a": -al - 1, "b": 1, "c": al}
    assert (a + b + c).substitute(vogel).is_zero()
    assert (a * b + a * c + b * c).substitute(vogel) == -1 - al - al ** 2
    assert (a * b * c).substitute(vogel) == -al - al ** 2


def test_validation_report_serializes_to_json(D2):
    rep = validate(D2)
    blob = json.dumps({k: (v if not isinstance(v, dict)
                           else {"ok": v["ok"], "failures": [list(map(str, w)) for w in v["failures"]]})
                       for k, v in rep.items()}, sort_keys=True)
    assert json.loads(blob)["super_jacobi"]["ok"]
