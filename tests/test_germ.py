"""Germ container, Jacobian analysis, null field, translation."""

import random
from fractions import Fraction

import pytest

from germlab.polyring import Poly
from germlab.germ import (MapGerm, VecField, analyze, null_field, translate,
                          jacobian, jet_degree, prepared_form,
                          NotCorankOneError)
from germlab.morin import normal_form
from conftest import (change_coordinates, corpus_30, random_gl_pos,
                      random_rational_gl_pos)
from oracles import rational_nullspace, rational_rank


def cusp2():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    return MapGerm([x1 ** 3 + x1 * x2, x2], src_dim=2)


def test_constant_terms_dropped():
    x1 = Poly.var(1, 1)
    f = MapGerm([x1 ** 2 + 5])
    assert f == MapGerm([x1 ** 2])
    assert f.components[0] == x1 ** 2


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
    eta = null_field(f, ana)
    assert any(v != 0 for v in eta.at_zero())
    J = ana.jacobian
    prods = []
    for i in range(3):
        acc = Poly.zero(3)
        for j in range(3):
            acc = acc + J.entry(i, j) * eta.components[j]
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
            J0 = [c.gradient_at(g.origin()) for c in g.components]
            assert prep.corank == corank
            assert _same_span(prep.kernel, rational_nullspace(J0))
            left = rational_nullspace([list(col) for col in zip(*J0)])
            if corank in (1, 2):
                assert _same_span([[y * c for y, c in zip(vec, scale)]
                                   for vec in prep.left], left)
            else:
                assert prep.left is None


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
        assert null_field(g, ana).components == tuple(
            J.adjugate_column(j, D - 1))


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


def test_vecfield_apply_and_neg():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    v = VecField.constant([1, 0], 2)
    p = x1 ** 2 * x2
    assert v.apply(p) == 2 * x1 * x2
    assert (-v).apply(p) == -(2 * x1 * x2)
    assert v.scale(Fraction(3)).apply(p) == 6 * x1 * x2
