"""Germ container, Jacobian analysis, null field, translation."""

from fractions import Fraction

import pytest

from germlab.polyring import Poly
from germlab.germ import (MapGerm, VecField, analyze, null_field, translate,
                          jacobian, NotCorankOneError)
from germlab.morin import normal_form


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


def test_null_field_requires_corank_one():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    with pytest.raises(NotCorankOneError):
        null_field(MapGerm([x1 ** 2, x2 ** 2]))  # corank 2
    with pytest.raises(NotCorankOneError):
        null_field(MapGerm([x1, x2]))  # corank 0


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
