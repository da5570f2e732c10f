"""Classifiers for the low-dimensional codimension-one germs, read from
integer Taylor coefficients of f and the kernel of df(0) in its prepared form:

* plane-to-plane (n = m = 2): lips, beaks, planar swallowtail
  (folds and cusps are delegated to the Morin classifier), read from
  lambda mod m^3 and from the prepared form Morin recognition left on
  the germ (``germ.prepared_form``);
* plane-to-3-space (n = 2, m = 3): Whitney umbrella and the S1+ / S1-
  singularities, recognized through w = det(xi f, eta f, eta eta f) mod
  m^3, with a constant eta read from the linear coefficients of f and
  only the 3-jet of f read.

lambda mod m^3 and w mod m^3 are determinants of dense integer jets
(``germ.jet_det``) of the derivatives of the 3-jets of f
(``_derivatives_mod_m3``).

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

from .polyring import Poly
from .germ import (MapGerm, prepared_form, jet_table, dense_jet, jet_terms,
                   jet_deriv, jet_det, GermError, NotCorankOneError,
                   DegenerateGermError)
from .morin import ClassLabel, recognize_morin, _sign


def _second_order(terms, v):
    """(det hess p(0), v^T hess p(0) v) for p in x1, x2 given by its
    ``terms`` {exponent: coefficient}."""
    c = terms.get
    a, b, d = 2 * c((2, 0), 0), c((1, 1), 0), 2 * c((0, 2), 0)
    return a * d - b * b, a * v[0] ** 2 + 2 * b * v[0] * v[1] + d * v[1] ** 2


@functools.cache
def _plane_normal_form(family, eps):
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    first = {"lips": x1 * (x1 ** 2 + x2 ** 2), "beaks": x1 * (x1 ** 2 - x2 ** 2),
             "planar-swallowtail": x1 * x2}[family].scale(eps)
    if family == "planar-swallowtail":
        first = first + x1 ** 4
    return MapGerm([first, x2], src_dim=2)


def _derivatives_mod_m3(comps, vectors):
    """[[the derivative of c along a mod m^3 for a in ``vectors``] for c
    in ``comps``], the integer components of a germ in two variables:
    each taken on the 3-jet of c (table (2, 3)) and cut to its prefix of
    degree <= 2, a jet of the table (2, 2)."""
    cubic = jet_table(2, 3)
    size = len(jet_table(2, 2)[0])
    out = []
    for c in comps:
        jet = dense_jet(c, cubic)
        out.append([jet_deriv(jet, a, cubic)[:size] for a in vectors])
    return out


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
    Raises DegenerateGermError when no criterion matches.
    """
    if f.src_dim != 2 or f.tgt_dim != 2:
        raise GermError("classify_plane needs a germ (R^2,0) -> (R^2,0)")
    try:
        return recognize_morin(f)
    except DegenerateGermError:
        return classify_degenerate_plane(f)


def classify_degenerate_plane(f):
    """The lips / beaks / planar-swallowtail criteria of ``classify_plane``
    for a corank-one plane germ that is not Morin.  Where dlambda(0) = 0,
    eta eta lambda(0) = v^T hess lambda(0) v, v the integer kernel vector
    of df(0).  Otherwise the prepared form, in the oriented frame (u, z),
    gives eta = d/du, xi = d/dz and the chain as coefficients.  f, v and
    the chain are read from the form Morin recognition built.  Raises
    DegenerateGermError when no criterion matches."""
    prep = prepared_form(f)
    if prep.corank != 1:
        raise NotCorankOneError("not corank one at 0 (corank %d)"
                                % prep.corank)
    # lambda mod m^3: the determinant of the partials of the 3-jets
    quadratic = jet_table(2, 2)
    lam = jet_terms(jet_det(_derivatives_mod_m3(prep.comps, ((1, 0), (0, 1))),
                            quadratic), quadratic)
    if not lam.get((1, 0)) and not lam.get((0, 1)):
        # det_h > 0 (lips): hess lambda(0) is definite, so eel0 != 0
        det_h, eel0 = _second_order(lam, prep.kernel[0])
        if det_h and eel0:
            family = "lips" if det_h > 0 else "beaks"
            eps = _sign(eel0)
            return ClassLabel(family, (eps, None),
                              _plane_normal_form(family, eps), None,
                              ("etaetalam", eps))
    elif (prep.chain_value(1) == 0 and prep.chain_value(2) == 0 and
          prep.chain_value(3) != 0):
        eps = _sign(prep.transverse[1][0] * prep.chain_value(3))
        return ClassLabel("planar-swallowtail", (eps, None),
                          _plane_normal_form("planar-swallowtail", eps),
                          None, ("xilam-eta3lam", eps))
    raise DegenerateGermError("no plane criterion matched")


@functools.cache
def _surface_normal_form(family, eps=1):
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    mid = {"whitney-umbrella": x1 * x2, "S1+": x1 * (x1 ** 2 + x2 ** 2),
           "S1-": x1 * (x1 ** 2 - x2 ** 2)}[family].scale(eps)
    return MapGerm([x1 ** 2, mid, x2], src_dim=2)


def surface_w(f):
    """w = det(xi f, eta f, eta eta f) mod m^3, m the ideal of the origin,
    for a corank-one germ (R^2,0) -> (R^3,0): eta = v, the integer kernel
    vector of df(0) with its first nonzero entry positive, and xi = v
    rotated by +90 degrees.  eta f vanishes at 0, so w mod m^3 reads only
    f mod m^4.  w is read from the integer components of f that its
    prepared form keeps, so it is a positive multiple of the rational w
    (equal when f has integer coefficients).  Returns (w, v), w a Poly."""
    if f.src_dim != 2 or f.tgt_dim != 3:
        raise GermError("needs a germ (R^2,0) -> (R^3,0)")
    prep = prepared_form(f)
    if prep.corank != 1:
        raise NotCorankOneError("not corank one at 0 (rank %d)"
                                % (2 - prep.corank))
    v = prep.kernel[0]
    if next(x for x in v if x) < 0:
        v = [-x for x in v]
    quadratic = jet_table(2, 2)
    rows = [[xif, vf, jet_deriv(vf, v, quadratic)]
            for xif, vf in _derivatives_mod_m3(prep.comps, ([-v[1], v[0]], v))]
    return Poly(2, jet_terms(jet_det(rows, quadratic), quadratic)), v


def classify_surface(f):
    """Isotopy class of a corank-one germ (R^2,0) -> (R^3,0).

    Whitney umbrella: dw(0) != 0 (single class).
    S1+: dw(0) = 0, det hess w(0) < 0, eta eta w(0) != 0; eps = sign eta eta w.
    S1-: dw(0) = 0, det hess w(0) > 0; eps = sign eta eta w.
    Raises DegenerateGermError when no criterion matches.
    """
    w, v = surface_w(f)
    if w.terms.get((1, 0)) or w.terms.get((0, 1)):
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
    raise DegenerateGermError("no surface criterion matched")
