"""Classifiers for the low-dimensional codimension-one germs, read from
integer Taylor coefficients of f:

* plane-to-plane (n = m = 2): lips, beaks, planar swallowtail
  (folds and cusps are delegated to the Morin classifier), read from
  lambda mod m^3 and from the prepared form (``germ.prepared_form``);
* plane-to-3-space (n = 2, m = 3): Whitney umbrella and the S1+ / S1-
  singularities, recognized through w = det(xi f, eta f, eta eta f) mod
  m^3, with a constant eta read from the linear coefficients of f and
  only the 3-jet of f expanded.

Frame convention.  Given the kernel field eta with eta(0) = (a, b), the
partner field xi is the constant field with xi(0) = (-b, a) (eta rotated
by +90 degrees).  For the pre-normalized germs with eta = d/dx1 this
gives xi = d/dx2, which is exactly the choice the recognition formulas
are written in; flipping eta flips xi with it, so every emitted sign is
stable under eta-reversal.

Note on the S1 criteria: on the reference normal forms
(x1^2, eps*x1(x1^2 + x2^2), x2) one computes w = eps*(6x1^2 - 2x2^2),
hence det hess w(0) = -48 < 0 for S1+ and +48 > 0 for S1-.  We therefore
classify S1+ on det hess w(0) < 0 (with eta eta w(0) != 0) and S1- on
det hess w(0) > 0, which is the reading consistent with the normal forms
and with det hess w(0) = -24 h_{x2x2}(0) h_{x1}(0).
"""

import functools

from .polyring import Poly, PolyMatrix, dir_deriv, integer_kernel
from .germ import (MapGerm, prepared_form, _integer_components, GermError,
                   NotCorankOneError, DegenerateGermError)
from .morin import ClassLabel, recognize_morin, _sign


def _second_order(terms, v):
    """(det hess p(0), v^T hess p(0) v) for p in x1, x2 given by its
    ``terms`` {exponent: coefficient}."""
    c = terms.get
    a, b, d = 2 * c((2, 0), 0), c((1, 1), 0), 2 * c((0, 2), 0)
    return a * d - b * b, a * v[0] ** 2 + 2 * b * v[0] * v[1] + d * v[1] ** 2


@functools.cache
def _plane_normal_form(family, eps):
    x1 = Poly.var(1, 2)
    x2 = Poly.var(2, 2)
    if family == "lips":
        first = x1 * (x1 ** 2 + x2 ** 2)
    elif family == "beaks":
        first = x1 * (x1 ** 2 - x2 ** 2)
    else:  # planar swallowtail
        first = x1 * x2
    if eps == -1:
        first = -first
    if family == "planar-swallowtail":
        first = first + Poly.var(1, 2) ** 4
    return MapGerm([first, x2], src_dim=2)


def classify_plane(f):
    """Isotopy class of a corank-one plane-to-plane germ.

    Morin germs (fold, cusp) are delegated to the Morin classifier.
    Otherwise:
      lips:   d lambda(0) = 0, det hess lambda(0) > 0; eps = sign eta eta lambda
      beaks:  d lambda(0) = 0, det hess lambda(0) < 0, eta eta lambda(0) != 0;
              eps = sign eta eta lambda
      planar swallowtail: d lambda(0) != 0,
              eta lambda(0) = eta eta lambda(0) = 0, eta^3 lambda(0) != 0;
              eps = sign(xi lambda(0) * eta^3 lambda(0))
    """
    if f.src_dim != 2 or f.tgt_dim != 2:
        raise GermError("classify_plane needs a germ (R^2,0) -> (R^2,0)")
    try:
        return recognize_morin(f)
    except DegenerateGermError as e:
        return _degenerate_plane(f, e.prepared)


def _plane_lambda(comps):
    """lambda mod m^3 from the 3-jets of the integer components (c1, c2):
    d(x^a y^b, x^c y^d)/d(x, y) = (ad - bc) x^(a+c-1) y^(b+d-1)."""
    jets = [[(e, c) for e, c in comp.items() if sum(e) <= 3] for comp in comps]
    lam = {}
    for (a, b), p in jets[0]:
        for (c, d), q in jets[1]:
            if a + b + c + d <= 4 and a * d != b * c:
                e = (a + c - 1, b + d - 1)
                lam[e] = lam.get(e, 0) + (a * d - b * c) * p * q
    return lam


def classify_degenerate_plane(f):
    """The lips / beaks / planar-swallowtail criteria of ``classify_plane``
    for a corank-one plane germ that is not Morin.  Where dlambda(0) = 0,
    eta eta lambda(0) = v^T hess lambda(0) v, v the integer kernel vector
    of df(0).  Otherwise the prepared form, in the oriented frame (u, z),
    gives eta = d/du, xi = d/dz and the chain as coefficients."""
    return _degenerate_plane(f, None)


def _degenerate_plane(f, prep):
    """``classify_degenerate_plane`` given f's prepared form, or None."""
    comps, J0 = _integer_components(f)
    rank, kernel = integer_kernel(J0)
    if rank != 1:
        raise NotCorankOneError("not corank one at 0 (corank %d)" % (2 - rank))
    lam = _plane_lambda(comps)
    if not lam.get((1, 0)) and not lam.get((0, 1)):
        # det_h > 0 (lips): hess lambda(0) is definite, so eel0 != 0
        det_h, eel0 = _second_order(lam, kernel[0])
        if det_h and eel0:
            family = "lips" if det_h > 0 else "beaks"
            eps = _sign(eel0)
            return ClassLabel(family, (eps, None),
                              _plane_normal_form(family, eps), None,
                              ("etaetalam", eps))
        return ClassLabel("unrecognized")
    prep = prep or prepared_form(f)
    if prep.chain_value(1) == prep.chain_value(2) == 0 != prep.chain_value(3):
        eps = _sign(prep.chain_gradient(0)[1] * prep.chain_value(3))
        return ClassLabel("planar-swallowtail", (eps, None),
                          _plane_normal_form("planar-swallowtail", eps),
                          None, ("xilam-eta3lam", eps))
    return ClassLabel("unrecognized")


@functools.cache
def _surface_normal_form(family, eps=1):
    x1 = Poly.var(1, 2)
    x2 = Poly.var(2, 2)
    if family == "whitney-umbrella":
        mid = x1 * x2
    elif family == "S1+":
        mid = x1 * (x1 ** 2 + x2 ** 2)
    else:
        mid = x1 * (x1 ** 2 - x2 ** 2)
    if eps == -1:
        mid = -mid
    return MapGerm([x1 ** 2, mid, x2], src_dim=2)


def surface_w(f):
    """w = det(xi f, eta f, eta eta f) mod m^3, m the ideal of the origin,
    for a corank-one germ (R^2,0) -> (R^3,0): eta = v, the integer kernel
    vector of df(0) with its first nonzero entry positive, and xi = v
    rotated by +90 degrees.  eta f vanishes at 0, so w mod m^3 reads only
    f mod m^4.  Returns (w, v)."""
    if f.src_dim != 2 or f.tgt_dim != 3:
        raise GermError("needs a germ (R^2,0) -> (R^3,0)")
    rank, kernel = integer_kernel(_integer_components(f)[1])
    if rank != 1:
        raise NotCorankOneError("not corank one at 0 (rank %d)" % rank)
    v = kernel[0]
    if next(x for x in v if x) < 0:
        v = [-x for x in v]
    comps = [c.truncate(3) for c in f.components]
    xif = [dir_deriv(c, [-v[1], v[0]], 2) for c in comps]
    vf = [dir_deriv(c, v, 2) for c in comps]
    vvf = [dir_deriv(c, v, 2) for c in vf]
    w = PolyMatrix(3, 3, [e for row in zip(xif, vf, vvf) for e in row]).det(2)
    return w, v


def classify_surface(f):
    """Isotopy class of a corank-one germ (R^2,0) -> (R^3,0).

    Whitney umbrella: dw(0) != 0 (single class).
    S1+: dw(0) = 0, det hess w(0) < 0, eta eta w(0) != 0; eps = sign eta eta w.
    S1-: dw(0) = 0, det hess w(0) > 0; eps = sign eta eta w.
    """
    w, v = surface_w(f)
    if any(x != 0 for x in w.gradient_at(f.origin())):
        return ClassLabel("whitney-umbrella",
                          normal_form=_surface_normal_form("whitney-umbrella"))
    # eta = v is constant, so eta eta w(0) = v^T hess w(0) v
    det_h, eew0 = _second_order(w.terms, v)
    if det_h and eew0:
        family = "S1+" if det_h < 0 else "S1-"
        eps = _sign(eew0)
        return ClassLabel(family, (eps, None),
                          _surface_normal_form(family, eps), None,
                          ("etaetaw", eps))
    return ClassLabel("unrecognized")
