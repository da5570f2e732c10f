"""Corank-two (R^4 -> R^4) umbilic classification."""

import random

import pytest

from germlab.polyring import Poly
from germlab.germ import MapGerm, analyze, GermError
from germlab.sigma20 import (classify_sigma20, hyp_normal_form,
                             elli_normal_form, DegenerateSigmaError)
from conftest import (random_gl_pos, random_rational_gl_pos,
                      change_coordinates, non_integral_kernel_changes,
                      quadratic_change, add_high_terms, assert_labels_agree)
import oracles
from oracles import rational_det, target_normalize, kernel_frame


@pytest.mark.parametrize("eps1", [1, -1])
def test_hyperbolic_normal_forms(eps1):
    res = classify_sigma20(hyp_normal_form(eps1))
    assert res.family == "sigma20-hyp" and res.signs[0] == eps1
    assert res.witness["hess_det_sign"] == -1


@pytest.mark.parametrize("eps1,eps2",
                         [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_elliptic_normal_forms(eps1, eps2):
    res = classify_sigma20(elli_normal_form(eps1, eps2))
    assert res.family == "sigma20-elli"
    assert res.signs == (eps1, eps2)
    assert res.witness["hess_det_sign"] == 1


def test_hyperbolic_reference_values():
    """On the eps1 = +1 hyperbolic normal form the reference reads
    det hess lambda(0) = -16 and the 4x4 determinant = -4, exactly."""
    g, B = target_normalize(hyp_normal_form(1))
    ana = analyze(g)
    xi, eta = kernel_frame(g, ana)
    origin = g.origin()
    h11 = xi.apply(xi.apply(ana.lam)).eval(origin)
    h12 = xi.apply(eta.apply(ana.lam)).eval(origin)
    h21 = eta.apply(xi.apply(ana.lam)).eval(origin)
    h22 = eta.apply(eta.apply(ana.lam)).eval(origin)
    assert h11 * h22 - h12 * h21 == -16
    grads = []
    for field in (xi, eta):
        for comp in g.components[:2]:
            grads.append(field.apply(comp).gradient_at(origin))
    assert rational_det(grads) == -4


def test_class_counts():
    hyp = {classify_sigma20(hyp_normal_form(s)) for s in (1, -1)}
    elli = {classify_sigma20(elli_normal_form(e1, e2))
            for e1 in (1, -1) for e2 in (1, -1)}
    assert len(hyp) == 2
    assert len(elli) == 4
    assert not hyp & elli


def test_target_normalize_contract():
    f = hyp_normal_form(1)
    g, B = target_normalize(f)
    assert rational_det(B) > 0
    origin = g.origin()
    for comp in g.components[:2]:
        assert all(v == 0 for v in comp.gradient_at(origin))


def test_rank_requirement():
    x = [Poly.var(i, 4) for i in range(1, 5)]
    f = MapGerm([x[0], x[1], x[2], x[3]])
    for classify in (classify_sigma20, target_normalize):
        with pytest.raises(GermError, match="rank df"):
            classify(f)


def test_degenerate_rejected():
    x = [Poly.var(i, 4) for i in range(1, 5)]
    # lambda = 4 x1 x2 has det hess = -16 on the kernel, but the 4x4
    # determinant vanishes: xi f2 = 0 along xi = d/dx1
    f = MapGerm([x[0] ** 2, x[1] ** 2, x[2], x[3]])
    with pytest.raises(DegenerateSigmaError):
        classify_sigma20(f)


def test_labels_stable_under_changes():
    rng = random.Random(17)
    forms = [hyp_normal_form(s) for s in (1, -1)]
    forms += [elli_normal_form(e1, e2) for e1 in (1, -1) for e2 in (1, -1)]
    for f in forms:
        base = classify_sigma20(f)
        for _ in range(4):
            A = random_gl_pos(rng, 4)
            B = random_gl_pos(rng, 4)
            assert classify_sigma20(change_coordinates(f, A, B)) == base


def test_normalized_germ_analysis_is_derived_exactly():
    """The reference builds the analysis of g = B o f from f's: the same
    Jacobian, lambda jet and rank as analyzing g afresh."""
    from germlab.germ import jacobian
    rng = random.Random(29)
    for f in (hyp_normal_form(1), elli_normal_form(-1, 1)):
        f = change_coordinates(f, random_gl_pos(rng, 4), random_gl_pos(rng, 4))
        ana_f = analyze(f)
        g, B = target_normalize(f, ana_f)
        fresh = analyze(g)
        assert fresh.jacobian == jacobian(g)
        assert fresh.lam == ana_f.lam.scale(rational_det(B))
        assert fresh.rank0 == ana_f.rank0


# The label and witness of each umbilic form under rational changes, as the
# Fraction Gauss-Jordan kernels gave them (``oracles.rational_nullspace``
# and ``oracles.rational_det`` in place of the integer routines).
_RATIONAL_KERNEL_LABELS = [
    (hyp_normal_form(1), "sigma20-hyp", (1, None), ("bigdet", -1),
     {"hess_det_sign": -1, "big_det_sign": -1, "trace_sign": None}),
    (hyp_normal_form(-1), "sigma20-hyp", (-1, None), ("bigdet", 1),
     {"hess_det_sign": -1, "big_det_sign": 1, "trace_sign": None}),
    (elli_normal_form(1, 1), "sigma20-elli", (1, 1), ("bigdet-trace", (1, 1)),
     {"hess_det_sign": 1, "big_det_sign": 1, "trace_sign": 1}),
    (elli_normal_form(1, -1), "sigma20-elli", (1, -1),
     ("bigdet-trace", (1, -1)),
     {"hess_det_sign": 1, "big_det_sign": 1, "trace_sign": -1}),
    (elli_normal_form(-1, 1), "sigma20-elli", (-1, 1),
     ("bigdet-trace", (-1, -1)),
     {"hess_det_sign": 1, "big_det_sign": -1, "trace_sign": -1}),
    (elli_normal_form(-1, -1), "sigma20-elli", (-1, -1),
     ("bigdet-trace", (-1, 1)),
     {"hess_det_sign": 1, "big_det_sign": -1, "trace_sign": 1}),
]


@pytest.mark.parametrize("index", range(len(_RATIONAL_KERNEL_LABELS)))
def test_labels_where_the_kernels_are_not_integral(index):
    """Integer kernels are positive multiples of the RREF ones, so on
    germs whose RREF kernel vectors have fractional entries the label and
    every witness sign stay those of the rational route."""
    f, family, signs, invariant, witness = _RATIONAL_KERNEL_LABELS[index]
    for g in non_integral_kernel_changes(random.Random(index), f, 3):
        label = classify_sigma20(g)
        assert (label.family, label.signs, label.invariant,
                label.witness) == (family, signs, invariant, witness)


# ---- route agreement: the 2-jet reading against the cofactor reference --

_X = [Poly.var(i, 4) for i in range(1, 5)]
FORMS = [hyp_normal_form(s) for s in (1, -1)] + \
    [elli_normal_form(e1, e2) for e1 in (1, -1) for e2 in (1, -1)]
# a vanishing 4x4 determinant, a vanishing Hessian determinant, rank 3
DEGENERATE = [MapGerm([_X[0] ** 2, _X[1] ** 2, _X[2], _X[3]]),
              MapGerm([_X[0] ** 2, _X[0] * _X[1], _X[2], _X[3]]),
              MapGerm([_X[0] ** 2, _X[1], _X[2], _X[3]])]


@pytest.mark.parametrize("index", range(len(FORMS + DEGENERATE)))
def test_routes_agree_under_changes_and_higher_terms(index):
    """Dense, rational, non-integral-kernel and quadratic nonlinear
    changes, each also with terms of degree 3 and 4 added: the criteria
    read from the 2-jet are those of the whole germ."""
    rng = random.Random(5100 + index)
    f = (FORMS + DEGENERATE)[index]
    germs = [f,
             change_coordinates(f, random_gl_pos(rng, 4),
                                random_gl_pos(rng, 4)),
             change_coordinates(f, random_rational_gl_pos(rng, 4),
                                random_rational_gl_pos(rng, 4)),
             quadratic_change(rng, f, 4)]
    if index < len(FORMS):
        germs += non_integral_kernel_changes(rng, f, 1)
    for g in germs:
        assert_labels_agree(classify_sigma20, oracles.classify_sigma20, g)
        assert_labels_agree(classify_sigma20, oracles.classify_sigma20,
                            add_high_terms(rng, g, 3))


def test_target_change_is_eliminated_once(monkeypatch):
    """The completed target change B is eliminated once per germ: one
    determinant of the 4-row candidate gives both its rank (nonzero) and
    the sign that orients B."""
    import germlab.polyring as polyring
    from germlab.polyring import integer_kernel
    units = [tuple(int(i == j) for i in range(4)) for j in range(4)]
    firsts = []
    original = polyring._bareiss

    def recorded(mat, width):
        if len(mat) == 4:
            firsts.append([list(row[:4]) for row in mat[:2]])
        return original(mat, width)
    rng = random.Random(31)
    for f in FORMS:
        g = change_coordinates(f, random_gl_pos(rng, 4), random_gl_pos(rng, 4))
        # g has integer coefficients, so J0 holds its linear ones as they are
        assert all(x.denominator == 1 for c in g.components
                   for x in c.terms.values())
        J0 = [[int(c.terms.get(e, 0)) for e in units] for c in g.components]
        left = integer_kernel([list(col) for col in zip(*J0)])[1]
        expected = classify_sigma20(f)
        monkeypatch.setattr(polyring, "_bareiss", recorded)
        firsts.clear()
        assert classify_sigma20(g) == expected
        monkeypatch.setattr(polyring, "_bareiss", original)
        # B's first two rows are the left kernel of J0
        assert firsts.count(left) == 1
