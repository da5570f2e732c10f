"""Germ container, Jacobian analysis, null field, translation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germlab.polyring import Poly, dir_deriv
from germlab.germ import (MapGerm, analyze, null_field, translate,
                          jacobian, jet_degree, prepared_form,
                          NotCorankOneError, jet_table, dense_jet, jet_terms,
                          jet_deriv, jet_det)
from germlab.morin import normal_form
from conftest import (change_coordinates, corpus_30, random_gl_pos,
                      random_rational_gl_pos)
import oracles
from oracles import gradient_at, rational_nullspace, rational_rank


def cusp2():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    return MapGerm([x1 ** 3 + x1 * x2, x2], src_dim=2)


def test_constant_terms_dropped():
    x1 = Poly.var(1, 1)
    f = MapGerm([x1 ** 2 + 5])
    assert f == MapGerm([x1 ** 2])
    assert f.components[0] == x1 ** 2


def test_equal_germs_hash_equal_and_each_hashes_once(monkeypatch):
    """Equal germs hash equal, and a germ hashes its components once: a
    lookup keyed by a germ is then a dict probe."""
    calls = []
    original = Poly.__hash__

    def counted(self):
        calls.append(self)
        return original(self)
    monkeypatch.setattr(Poly, "__hash__", counted)
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    f, g = cusp2(), MapGerm([x1 * x2 + 7 + x1 ** 3, x2 + 0], src_dim=2)
    assert f == g and f is not g
    assert hash(f) == hash(g)
    assert len(calls) == 4
    assert {f: "cusp"}[g] == "cusp" and hash(f) == hash(g)
    assert len(calls) == 4


def test_analyze_cusp():
    ana = analyze(cusp2())
    assert ana.rank0 == 1 and ana.corank0 == 1
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    assert ana.lam == 3 * x1 ** 2 + x2


def test_analyze_regular():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    ana = analyze(MapGerm([x1 + x2, x2]))
    assert ana.corank0 == 0
    assert ana.lam == Poly.one(2)


def test_jacobian_shape_nonsquare():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    f = MapGerm([x1 ** 2, x1 * x2, x2])
    J = jacobian(f)
    assert (J.rows, J.cols) == (3, 2)
    assert analyze(f).lam is None


def test_null_field_contract():
    """J * eta = lambda * e_j as a polynomial identity."""
    f = normal_form(3, 3, 1, 1)
    ana = analyze(f)
    eta = null_field(f)
    assert eta == ana.eta
    assert any(c.constant_term() != 0 for c in eta)
    J = ana.jacobian
    prods = []
    for i in range(3):
        acc = Poly.zero(3)
        for j in range(3):
            acc = acc + J.entry(i, j) * eta[j]
        prods.append(acc)
    hits = [i for i, p in enumerate(prods) if p == ana.lam]
    zeros = [i for i, p in enumerate(prods) if p.is_zero()]
    assert len(hits) == 1 and len(zeros) == 2


def _same_span(basis, reference):
    """The rows of ``basis`` are independent and span the same subspace
    as the rows of ``reference``."""
    return (len(basis) == len(reference) == rational_rank(basis)
            == rational_rank(basis + reference))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_prepared_form_reads_the_kernels_and_the_integer_components(n):
    """For square germs of corank 0 to 3 under rational coordinate
    changes, each of the prepared form's ``comps`` is a positive multiple
    c_i of the component f_i it was read from, so its J0 is diag(c) J(0).
    Its ``kernel`` spans the rational nullspace of J(0), and at corank
    one or two its ``left``, times diag(c), that of the transpose of J(0)
    (else it is None)."""
    rng = random.Random(1800 + n)
    x = [Poly.var(i, n) for i in range(1, n + 1)]
    for corank in range(min(n, 3) + 1):
        for _ in range(4):
            # rank n - corank, with a rational cubic term in each component
            f = MapGerm([(xi if i < n - corank else xi ** 2) +
                         (x[0] ** 2 * xi).scale(
                             Fraction(rng.randint(-5, 5), rng.randint(1, 5)))
                         for i, xi in enumerate(x)])
            g = change_coordinates(f, random_rational_gl_pos(rng, n),
                                   random_rational_gl_pos(rng, n))
            prep = prepared_form(g)
            scale = []
            for c, ints in zip(g.components, prep.comps):
                assert ints.keys() == c.terms.keys()
                ratios = {ints[e] / q for e, q in c.terms.items()}
                assert len(ratios) == 1 and min(ratios) > 0
                scale.append(ratios.pop())
            J0 = [gradient_at(c, g.origin()) for c in g.components]
            assert prep.corank == corank
            assert _same_span(prep.kernel, rational_nullspace(J0))
            left = rational_nullspace([list(col) for col in zip(*J0)])
            if corank in (1, 2):
                assert _same_span([[y * c for y, c in zip(vec, scale)]
                                   for vec in prep.left], left)
            else:
                assert prep.left is None


def _read(prep):
    return (prep.corank, prep.kernel, prep.left, prep.curve, prep.transverse)


def _dense_change(rng, f, bend):
    """f, its source first bent by x_j -> x_j + c_j x1^2 for j >= 2 when
    ``bend``, each component scaled by a positive rational, under random
    rational orientation-preserving changes on both sides."""
    n = f.src_dim
    if bend:
        x = [Poly.var(i, n) for i in range(1, n + 1)]
        bent = [x[0]] + [xi + x[0] ** 2 * rng.randint(-2, 2) for xi in x[1:]]
        f = MapGerm([c.subs(bent) for c in f.components], src_dim=n)
    f = MapGerm([c.scale(Fraction(rng.randint(1, 7), rng.randint(1, 7)))
                 for c in f.components], src_dim=n)
    return change_coordinates(f, random_rational_gl_pos(rng, n),
                              random_rational_gl_pos(rng, n))


def test_prepared_form_matches_the_dense_reference(monkeypatch):
    """The series stage reads only nonzero coefficients and gives the same
    integers as the dense one (``oracles.prepared_form_reference``) on
    signed k <= n forms in n = 1..5 variables, each component scaled by a
    positive rational, under random rational orientation-preserving
    changes on both sides.  Under linear changes alone the curve Gamma is
    0 to the degree read, so half the draws first bend the source,
    x_j -> x_j + c_j x1^2 for j >= 2, which makes it nonzero from degree 2
    on.  The draws include d = |det L| > 1 and k < n."""
    import germlab.germ as germ
    dets = []
    original = germ.integer_adjugate

    def recorded(mat):
        det, adj = original(mat)
        dets.append(abs(det))
        return det, adj
    monkeypatch.setattr(germ, "integer_adjugate", recorded)
    drawn = []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 5))
        k = data.draw(st.integers(1, n))
        e1, e2 = data.draw(st.sampled_from([(1, 1), (1, -1), (-1, 1),
                                            (-1, -1)]))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
        g = _dense_change(rng, normal_form(k, n, e1, e2),
                          data.draw(st.booleans()))
        del dets[:]
        assert _read(prepared_form(g)) == \
            _read(oracles.prepared_form_reference(g))
        drawn.append((k, n, dets[0]))

    check()
    assert any(d > 1 for _, _, d in drawn)
    assert any(k < n for k, n, _ in drawn)


@pytest.mark.parametrize("n, k, e1, e2", [(6, 6, -1, 1), (7, 3, 1, 1),
                                          (8, 4, 1, -1), (10, 2, -1, -1)])
def test_prepared_form_matches_the_dense_reference_past_n_5(n, k, e1, e2):
    """The same on one bent draw each past the n <= 5 of the random
    draws, where the keys y'^beta of the substituted rows mix up to n - 1
    places."""
    g = _dense_change(random.Random(3200 + n), normal_form(k, n, e1, e2),
                      True)
    assert _read(prepared_form(g)) == \
        _read(oracles.prepared_form_reference(g))


def test_series_product_is_truncated():
    """The dense reference's product of two series forms no term above
    its cap."""
    assert oracles._series_mul([1, 2, 3], [0, 1, 1], 3) == [0, 1, 3, 5]
    assert oracles._series_mul([1, 1], [1, 1], 0) == [1]
    assert oracles._series_mul([0, 0, 5], [0, 7], 2) == [0, 0, 0]


@pytest.mark.parametrize("index", range(30))
def test_prepared_form_matches_the_dense_reference_on_the_corpus(index):
    """The same on each corpus form, as given and under one rational
    change on each side."""
    f = corpus_30()[index]
    rng = random.Random(3100 + index)
    g = change_coordinates(f, random_rational_gl_pos(rng, f.src_dim),
                           random_rational_gl_pos(rng, f.tgt_dim))
    for h in (f, g):
        assert _read(prepared_form(h)) == \
            _read(oracles.prepared_form_reference(h))


def test_substitute_by_hand():
    """x1 = 3u (the column p = 0), x2 = y1 (a_2 = 0) and x3 = 2u - y2 in
    f = x1^2 x3 + x2 x3 + 5 x2^3 + x1 x3 - x3^2 + x1^4 at weight 3, in
    x3^2 + x2^2 at weight 2, and in x2^2 x3 + x3^2 at weight 6.  The
    room-0 terms are x1^2 x3 = 18 u^3 and 5 x2^3 = 0 (a_2 = 0), and
    x3^2 = 4 u^2 and x2^2 = 0; x1^4 is past the weight, and terms
    u^m y'^beta with m + 2|beta| > weight are dropped: x1 x3 - x3^2 =
    2u^2 + u y2 and x2 x3 = 2u y1 up to such terms.  At weight 6 nothing
    is dropped: x2^2 x3 = 2u y1^2 - y1^2 y2 and x3^2 = 4u^2 - 4u y2 + y2^2.
    y'^beta is keyed by its places, each repeated by its exponent."""
    from germlab.germ import _substitute
    f = {(2, 0, 1): 1, (0, 1, 1): 1, (0, 3, 0): 5, (1, 0, 1): 1,
         (0, 0, 2): -1, (4, 0, 0): 1}
    h = {(0, 0, 2): 1, (0, 2, 0): 1}
    g = {(0, 2, 1): 1, (0, 0, 2): 1}
    assert _substitute([(f, 3), (h, 2), (g, 6)], 3, 0, [3, 0, 2],
                       [1, -1]) == [
        {(): [(2, 2), (3, 18)], (0,): [(1, 2)], (1,): [(1, 1)]},
        {(): [(2, 4)]},
        {(0, 0): [(1, 2)], (0, 0, 1): [(0, -1)], (): [(2, 4)],
         (1,): [(1, -4)], (1, 1): [(0, 1)]}]


def test_null_field_requires_corank_one():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    with pytest.raises(NotCorankOneError):
        null_field(MapGerm([x1 ** 2, x2 ** 2]))  # corank 2
    with pytest.raises(NotCorankOneError):
        null_field(MapGerm([x1, x2]))  # corank 0


SQUARE_CORPUS = [f for f in corpus_30() if f.src_dim == f.tgt_dim]


@pytest.mark.parametrize("index", range(len(SQUARE_CORPUS)))
def test_one_adjugate_column_agrees_with_the_reference_route(index):
    """lambda from the Laplace expansion along the adjugate column equals
    the capped determinant, and eta equals the adjugate column of the first
    row of J(0) whose removal leaves rank n - 1, expanded at cap D - 1."""
    rng = random.Random(7000 + index)
    f = SQUARE_CORPUS[index]
    n = f.src_dim
    D = jet_degree(n)
    for _ in range(2):
        g = change_coordinates(f, random_gl_pos(rng, n), random_gl_pos(rng, n))
        J = jacobian(g)
        ana = analyze(g)
        assert ana.lam == J.det(cap=D)
        if ana.corank0 != 1:
            assert ana.eta is None
            continue
        J0 = J.eval(g.origin())
        j = next(j for j in range(n)
                 if rational_rank(J0[:j] + J0[j + 1:]) == n - 1)
        assert ana.eta == tuple(J.adjugate_column(j, D - 1))


def test_translate_recenter():
    x1 = Poly.var(1, 1)
    f = MapGerm([x1 ** 2])
    g = translate(f, [Fraction(1)])
    # (x+1)^2 - 1 = x^2 + 2x
    assert g.components[0] == x1 ** 2 + 2 * x1
    assert g.components[0].constant_term() == 0


def test_translate_round_trip():
    f = cusp2()
    p = [Fraction(1, 2), Fraction(-1, 3)]
    g = translate(translate(f, p), [-v for v in p])
    assert g == f


_COEFFICIENTS = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                          st.integers(1, 6))
_SHIFTS = st.sampled_from([Fraction(0), Fraction(0), Fraction(1),
                           Fraction(-2), Fraction(1, 2), Fraction(-5, 3),
                           Fraction(7, 4)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_translate_matches_the_subs_reference(data):
    """The integer Taylor shift equals x_i -> x_i + p_i by ``Poly.subs``
    (``oracles.translate``), for germs in 1 to 4 variables with rational
    coefficients, at points with some p_i = 0."""
    n = data.draw(st.integers(1, 4))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n),
                            _COEFFICIENTS, max_size=6)
    f = MapGerm([Poly(n, t) for t in data.draw(st.lists(terms, min_size=1,
                                                        max_size=3))],
                src_dim=n)
    p = data.draw(st.lists(_SHIFTS, min_size=n, max_size=n))
    assert translate(f, p) == oracles.translate(f, p)


def _integer_jets(n, cap):
    """Integer polynomials {exponent: int} in n variables with terms up to
    degree cap + 2, so that some lie above the cap."""
    def exponent(places):
        return tuple(places.count(v) for v in range(n))
    monomials = st.lists(st.integers(0, n - 1), max_size=cap + 2).map(exponent)
    return st.dictionaries(monomials, st.integers(-9, 9).filter(bool),
                           max_size=8)


@pytest.mark.parametrize("n, cap", [(2, 2), (2, 3), (4, 1), (4, 2)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dense_jets_match_the_dict_reference(n, cap, data):
    """The dense-jet kernel against ``Poly`` and the exponent-dict
    determinant ``oracles.jet_det_reference``, on integer jets with terms
    above the cap: a jet keeps exactly the terms of degree <= cap, a
    derivative along an integer vector is exact below the cap, and the
    determinants of 1 x 1 to 3 x 3 matrices agree mod m^(cap+1)."""
    table = jet_table(n, cap)
    terms = data.draw(_integer_jets(n, cap))
    assert jet_terms(dense_jet(terms, table), table) == {
        e: c for e, c in terms.items() if sum(e) <= cap}
    v = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    p = Poly(n, terms)
    along = Poly(n)
    for i, vi in enumerate(v):
        along = along + p.partial(i + 1).scale(vi)
    assert Poly(n, jet_terms(jet_deriv(dense_jet(terms, table), v, table),
                             table)) == along.truncate(cap - 1)
    size = data.draw(st.integers(1, 3))
    rows = [[data.draw(_integer_jets(n, cap)) for _ in range(size)]
            for _ in range(size)]
    dense = [[dense_jet(t, table) for t in row] for row in rows]
    assert (jet_terms(jet_det(dense, table), table) ==
            {e: c for e, c in oracles.jet_det_reference(rows, cap).items()
             if c})


def test_vecfield_apply_and_neg():
    """A field is a tuple of Polys: its negation and scaling are taken
    componentwise, and it acts on a Poly by ``dir_deriv``."""
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    v = (Poly.one(2), Poly.zero(2))
    p = x1 ** 2 * x2
    assert dir_deriv(p, v) == 2 * x1 * x2
    assert dir_deriv(p, tuple(-c for c in v)) == -(2 * x1 * x2)
    assert dir_deriv(p, tuple(Fraction(3) * c for c in v)) == 6 * x1 * x2
