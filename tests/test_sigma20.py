"""Corank-two (R^4 -> R^4) umbilic classification."""

import random

import pytest

from germlab.polyring import Poly
from germlab.germ import MapGerm, analyze, GermError
from germlab.sigma20 import (classify_sigma20, target_normalize,
                             hyp_normal_form, elli_normal_form,
                             DegenerateSigmaError)
from conftest import (random_gl_pos, change_coordinates,
                      non_integral_kernel_changes)
from oracles import rational_det


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
    """On the eps1 = +1 hyperbolic normal form: det hess lambda(0) = -16
    and the 4x4 determinant = -4, exactly."""
    from germlab.sigma20 import kernel_frame
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
    with pytest.raises(GermError):
        target_normalize(MapGerm([x[0], x[1], x[2], x[3]]))


def test_degenerate_rejected():
    x = [Poly.var(i, 4) for i in range(1, 5)]
    # hessian of lambda in the kernel directions vanishes identically
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
    """classify_sigma20 builds the analysis of g = B o f from f's: the
    same Jacobian, lambda jet and rank as analyzing g afresh."""
    from germlab.germ import GermAnalysis, jacobian
    rng = random.Random(29)
    for f in (hyp_normal_form(1), elli_normal_form(-1, 1)):
        f = change_coordinates(f, random_gl_pos(rng, 4), random_gl_pos(rng, 4))
        ana_f = analyze(f)
        g, B = target_normalize(f, ana_f)
        fresh = analyze(g)
        assert fresh.jacobian == jacobian(g)
        assert fresh.lam == ana_f.lam.scale(rational_det(B))
        assert fresh.rank0 == ana_f.rank0
        assert classify_sigma20(f, analysis=ana_f) == \
            classify_sigma20(f)


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
