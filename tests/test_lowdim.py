"""Plane-to-plane and plane-to-3-space classifiers."""

import random
import re
from fractions import Fraction

import pytest

from germlab.polyring import Poly
from germlab.germ import (MapGerm, GermError, DegenerateGermError,
                          NotCorankOneError, analyze, null_field)
from germlab.germparse import parse_map
from germlab.lowdim import (classify_plane, classify_degenerate_plane,
                            classify_surface, surface_w,
                            _plane_normal_form, _surface_normal_form)
from conftest import (random_gl_pos, random_rational_gl_pos,
                      change_coordinates, non_integral_kernel_changes,
                      quadratic_change, add_high_terms, assert_labels_agree)
import oracles


def g2(first, second):
    return MapGerm([first, second], src_dim=2)


X1, X2 = Poly.var(1, 2), Poly.var(2, 2)


# ---- plane germs -------------------------------------------------------

def test_plane_fold_and_cusp_delegate_to_morin():
    assert classify_plane(g2(X1 ** 2, X2)).family == "fold"
    c = classify_plane(g2(X1 ** 3 + X1 * X2, X2))
    assert c.family == "cusp" and c.signs == (1, 1)


def test_plane_regular():
    assert classify_plane(g2(X1 + X2, X2)).family == "regular"


@pytest.mark.parametrize("eps", [1, -1])
def test_lips(eps):
    f = _plane_normal_form("lips", eps)
    label = classify_plane(f)
    assert label.family == "lips" and label.signs[0] == eps


@pytest.mark.parametrize("eps", [1, -1])
def test_beaks(eps):
    f = _plane_normal_form("beaks", eps)
    label = classify_plane(f)
    assert label.family == "beaks" and label.signs[0] == eps


@pytest.mark.parametrize("eps", [1, -1])
def test_planar_swallowtail(eps):
    f = _plane_normal_form("planar-swallowtail", eps)
    label = classify_plane(f)
    assert label.family == "planar-swallowtail" and label.signs[0] == eps


def test_plane_sign_variants_are_distinct():
    for fam in ("lips", "beaks", "planar-swallowtail"):
        labels = {classify_plane(_plane_normal_form(fam, s)) for s in (1, -1)}
        assert len(labels) == 2


def test_plane_unrecognized():
    # lambda = x2^2: d lambda(0) = 0 but hess degenerate
    f = g2(X1 * X2 ** 2, X2)
    with pytest.raises(DegenerateGermError,
                       match="^no plane criterion matched$"):
        classify_plane(f)


def test_plane_labels_stable_under_changes():
    rng = random.Random(11)
    for fam in ("lips", "beaks", "planar-swallowtail"):
        for eps in (1, -1):
            f = _plane_normal_form(fam, eps)
            base = classify_plane(f)
            for _ in range(5):
                A = random_gl_pos(rng, 2)
                B = random_gl_pos(rng, 2)
                assert classify_plane(change_coordinates(f, A, B)) == base


def test_plane_eta_reversal():
    """On the reference, reversing or rescaling the null field keeps the
    label, which is the one the library reads."""
    for fam in ("lips", "beaks", "planar-swallowtail"):
        for eps in (1, -1):
            f = _plane_normal_form(fam, eps)
            ana = analyze(f)
            eta = null_field(f)
            base = classify_plane(f)
            assert classify_degenerate_plane(f) == base
            for v in (eta, [-c for c in eta],
                      [c.scale(Fraction(5, 2)) for c in eta]):
                assert oracles.classify_degenerate_plane(f, ana, v) == base


# ---- route agreement: the integer reading against the null-field one ----

PLANE_FORMS = [_plane_normal_form(fam, s)
               for fam in ("lips", "beaks", "planar-swallowtail")
               for s in (1, -1)]
# refused (lambda = x2^2), lips plus a cubic term, then refused:
# eta eta lambda(0) = 0, eta^3 lambda(0) = 0, a fold (eta lambda(0) != 0)
# and eta eta lambda(0) = 0 again
PLANE_DEGENERATE = [parse_map(t) for t in (
    "x1*x2^2 ; x2", "x1^3 + x1*x2^2 + x2^3 ; x2", "x1^2*x2 + x1^4 ; x2",
    "x1^5 + x1*x2 ; x2", "x1^2 + x1*x2 ; x2", "x1^2*x2 + x1*x2^3 ; x2")]


@pytest.mark.parametrize("index", range(len(PLANE_FORMS + PLANE_DEGENERATE)))
def test_plane_routes_agree_under_changes_and_higher_terms(index):
    """Dense, rational, non-integral-kernel and quadratic nonlinear
    changes, each also with terms of degree 3, 4 and 5 added: the 3-jet
    and prepared-form reading gives the label of lambda and the null
    field of ``analyze``."""
    rng = random.Random(6100 + index)
    f = (PLANE_FORMS + PLANE_DEGENERATE)[index]
    germs = [f,
             change_coordinates(f, random_gl_pos(rng, 2),
                                random_gl_pos(rng, 2)),
             change_coordinates(f, random_rational_gl_pos(rng, 2),
                                random_rational_gl_pos(rng, 2)),
             quadratic_change(rng, f, 5)] + \
        non_integral_kernel_changes(rng, f, 1)
    for g in germs:
        for h in [g] + [add_high_terms(rng, g, low) for low in (3, 4, 5)]:
            assert_labels_agree(classify_degenerate_plane,
                                oracles.classify_degenerate_plane, h)


@pytest.mark.parametrize("text,family", [
    ("x1*x2^2 ; x2", None), ("x1^3 + x1*x2^2 + x2^3 ; x2", "lips"),
    ("x1^2*x2 + x1^4 ; x2", None), ("x1^5 + x1*x2 ; x2", None),
    ("x1^2 + x1*x2 ; x2", "fold"), ("x1^2*x2 + x1*x2^3 ; x2", None)])
def test_plane_routes_refuse_by_raising(text, family):
    """Each germ of PLANE_DEGENERATE, also under a linear change, gets the
    label of a class or a DegenerateGermError, never a label of no class.
    The fold is a Morin germ, so only ``classify_plane`` labels it."""
    f = parse_map(text)
    rng = random.Random(19)
    for g in (f, change_coordinates(f, random_gl_pos(rng, 2),
                                    random_gl_pos(rng, 2))):
        for route, expected in ((classify_plane, family),
                                (classify_degenerate_plane,
                                 None if family == "fold" else family)):
            if expected is None:
                with pytest.raises(DegenerateGermError,
                                   match="^no plane criterion matched$"):
                    route(g)
            else:
                assert route(g).family == expected


@pytest.mark.parametrize("text", ["x1 ; x2", "x1^2 ; x2^2",
                                  "x1^2 + x2^2 ; x1*x2"])
def test_plane_criteria_refuse_a_corank_other_than_one(text):
    assert_labels_agree(classify_degenerate_plane,
                        oracles.classify_degenerate_plane, parse_map(text))


# ---- surface germs -----------------------------------------------------

def s3(mid):
    return MapGerm([X1 ** 2, mid, X2], src_dim=2)


def test_whitney_umbrella():
    label = classify_surface(s3(X1 * X2))
    assert label.family == "whitney-umbrella"


def test_surface_w_reference_values():
    """On (x1^2, x1(x1^2 + x2^2), x2): w = 6 x1^2 - 2 x2^2, so
    det hess w(0) = -48 and eta eta w(0) = 12, with eta = (1, 0).  Terms
    of degree 4 and more leave w mod m^3 as it is."""
    f = s3(X1 * (X1 ** 2 + X2 ** 2))
    w, v = surface_w(f)
    assert (w, v) == (6 * X1 ** 2 - 2 * X2 ** 2, [1, 0])
    assert surface_w(s3(X1 * (X1 ** 2 + X2 ** 2) + X1 ** 2 * X2 ** 2
                        - X2 ** 5)) == (w, v)
    origin = [Fraction(0), Fraction(0)]
    h11 = w.partial(1).partial(1).eval(origin)
    h22 = w.partial(2).partial(2).eval(origin)
    h12 = w.partial(1).partial(2).eval(origin)
    assert h11 * h22 - h12 * h12 == -48
    assert h11 * v[0] ** 2 == 12


@pytest.mark.parametrize("eps", [1, -1])
def test_s1_plus(eps):
    f = s3((X1 * (X1 ** 2 + X2 ** 2)).scale(eps))
    label = classify_surface(f)
    assert label.family == "S1+" and label.signs[0] == eps


@pytest.mark.parametrize("eps", [1, -1])
def test_s1_minus(eps):
    f = s3((X1 * (X1 ** 2 - X2 ** 2)).scale(eps))
    label = classify_surface(f)
    assert label.family == "S1-" and label.signs[0] == eps


def test_surface_class_counts():
    wu = {classify_surface(_surface_normal_form("whitney-umbrella"))}
    assert len(wu) == 1
    for fam in ("S1+", "S1-"):
        labels = {classify_surface(_surface_normal_form(fam, s))
                  for s in (1, -1)}
        assert len(labels) == 2


def test_surface_labels_stable_under_changes():
    rng = random.Random(13)
    forms = [_surface_normal_form("whitney-umbrella")]
    forms += [_surface_normal_form(fam, s)
              for fam in ("S1+", "S1-") for s in (1, -1)]
    for f in forms:
        base = classify_surface(f)
        for _ in range(5):
            A = random_gl_pos(rng, 2)
            B = random_gl_pos(rng, 3)
            assert classify_surface(change_coordinates(f, A, B)) == base


def test_surface_eta_reversal():
    """On the reference, reversing or rescaling the constant null field
    keeps the label, which is the one the library reads."""
    for fam in ("S1+", "S1-"):
        for s in (1, -1):
            f = _surface_normal_form(fam, s)
            _, _, eta = oracles.surface_w(f)
            base = oracles.classify_surface(f, eta=eta)
            assert classify_surface(f) == base
            assert oracles.classify_surface(f, eta=[-c for c in eta]) == base
            assert oracles.classify_surface(f, eta=[3 * c for c in eta]) \
                == base


# The label of each surface form under rational changes, as the Fraction
# Gauss-Jordan kernel gave it (``oracles.rational_nullspace``).
_RATIONAL_KERNEL_LABELS = [
    (("whitney-umbrella", 1), "whitney-umbrella", (None, None), ("none",)),
    (("S1+", 1), "S1+", (1, None), ("etaetaw", 1)),
    (("S1+", -1), "S1+", (-1, None), ("etaetaw", -1)),
    (("S1-", 1), "S1-", (1, None), ("etaetaw", 1)),
    (("S1-", -1), "S1-", (-1, None), ("etaetaw", -1)),
]


@pytest.mark.parametrize("index", range(len(_RATIONAL_KERNEL_LABELS)))
def test_surface_labels_where_the_kernel_is_not_integral(index):
    """The integer kernel vector is a positive multiple of the RREF one,
    so where that has fractional entries the label stays the rational
    route's."""
    form, family, signs, invariant = _RATIONAL_KERNEL_LABELS[index]
    f = _surface_normal_form(*form)
    for g in non_integral_kernel_changes(random.Random(index), f, 3):
        label = classify_surface(g)
        assert (label.family, label.signs, label.invariant,
                label.witness) == (family, signs, invariant, {})


# ---- route agreement: the 3-jet reading against the full-w reference ----

SURFACE_FORMS = [_surface_normal_form("whitney-umbrella")] + \
    [_surface_normal_form(fam, s) for fam in ("S1+", "S1-") for s in (1, -1)]
# refused (det hess w(0) = 0, twice), then rank 0 and rank 2
SURFACE_DEGENERATE = [s3(X1 ** 3), s3(X1 * X2 ** 2),
                      MapGerm([X1 ** 2, X2 ** 2, X1 * X2]),
                      MapGerm([X1, X2, X1 * X2])]


def assert_w_is_a_positive_multiple(g):
    """surface_w's w, read from integer jets, is a positive multiple of
    the full w of the reference mod m^3 (equal on integer germs)."""
    try:
        ref = oracles.surface_w(g)[0].truncate(2)
    except GermError:
        return      # the labels-agree check compares the errors
    w = surface_w(g)[0]
    ratio = next((w.terms.get(e, 0) / c for e, c in ref.terms.items()), 1)
    assert ratio > 0 and w == ref.scale(ratio)
    if all(c.denominator == 1 for p in g.components for c in p.terms.values()):
        assert ratio == 1


@pytest.mark.parametrize("index,error,message", [
    (0, DegenerateGermError, "no surface criterion matched"),
    (1, DegenerateGermError, "no surface criterion matched"),
    (2, NotCorankOneError, "not corank one at 0 (rank 0)"),
    (3, NotCorankOneError, "not corank one at 0 (rank 2)")])
def test_surface_route_refuses_by_raising(index, error, message):
    """The germs of SURFACE_DEGENERATE, also under a linear change, are
    refused with the reason: no criterion matched at rank 1, else the
    rank of df(0)."""
    f = SURFACE_DEGENERATE[index]
    rng = random.Random(19 + index)
    for g in (f, change_coordinates(f, random_gl_pos(rng, 2),
                                    random_gl_pos(rng, 3))):
        with pytest.raises(error, match="^%s$" % re.escape(message)):
            classify_surface(g)


@pytest.mark.parametrize("index",
                         range(len(SURFACE_FORMS + SURFACE_DEGENERATE)))
def test_surface_routes_agree_under_changes_and_higher_terms(index):
    """Dense, rational, non-integral-kernel and quadratic nonlinear
    changes, each also with terms of degree 3 and 4 added: w mod m^3
    from the 3-jet gives the label of the full w, and is a positive
    multiple of its w mod m^3."""
    rng = random.Random(5200 + index)
    f = (SURFACE_FORMS + SURFACE_DEGENERATE)[index]
    germs = [f,
             change_coordinates(f, random_gl_pos(rng, 2),
                                random_gl_pos(rng, 3)),
             change_coordinates(f, random_rational_gl_pos(rng, 2),
                                random_rational_gl_pos(rng, 3)),
             quadratic_change(rng, f, 5)]
    if index < len(SURFACE_FORMS):
        germs += non_integral_kernel_changes(rng, f, 1)
    for g in germs:
        for h in (g, add_high_terms(rng, g, 3)):
            assert_labels_agree(classify_surface, oracles.classify_surface, h)
            assert_w_is_a_positive_multiple(h)
