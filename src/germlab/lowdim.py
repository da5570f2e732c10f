"""Classifiers for the low-dimensional codimension-one germs:

* plane-to-plane (n = m = 2): lips, beaks, planar swallowtail
  (folds and cusps are delegated to the Morin classifier);
* plane-to-3-space (n = 2, m = 3): Whitney umbrella and the S1+ / S1-
  singularities, recognized through w = det(xi f, eta f, eta eta f).

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

from .polyring import Poly, PolyMatrix, clear_denominators, integer_kernel
from .germ import (MapGerm, VecField, analyze, null_field,
                   GermError, NotCorankOneError, DegenerateGermError)
from .morin import ClassLabel, recognize_morin, _sign


def _xi_partner(eta_at_zero, nvars):
    """Constant field xi with xi(0) = eta(0) rotated by +90 degrees."""
    a, b = eta_at_zero
    return VecField.constant([-b, a], nvars)


def _hessian_det_at_zero(p):
    """det of the 2x2 Hessian of p (in two variables) at the origin."""
    (a, b), (c, d) = [[p.partial(i).partial(j).constant_term()
                       for j in (1, 2)] for i in (1, 2)]
    return a * d - b * c


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


def classify_plane(f, eta=None, analysis=None):
    """Isotopy class of a corank-one plane-to-plane germ.

    Morin germs (fold, cusp) are delegated to the Morin classifier.
    Otherwise:
      lips:   d lambda(0) = 0, det hess lambda(0) > 0; eps = sign eta eta lambda
      beaks:  d lambda(0) = 0, det hess lambda(0) < 0, eta eta lambda(0) != 0;
              eps = sign eta eta lambda
      planar swallowtail: d lambda(0) != 0,
              eta lambda(0) = eta eta lambda(0) = 0, eta^3 lambda(0) != 0;
              eps = sign(xi lambda(0) * eta^3 lambda(0))
    ``analysis``, when given, is analyze(f); it and ``eta`` are read by
    the last three criteria only.
    """
    if f.src_dim != 2 or f.tgt_dim != 2:
        raise GermError("classify_plane needs a germ (R^2,0) -> (R^2,0)")
    try:
        return recognize_morin(f)
    except DegenerateGermError:
        ana = analysis or analyze(f)
        return classify_degenerate_plane(f, ana, eta or null_field(f, ana))


def classify_degenerate_plane(f, analysis, eta):
    """The lips / beaks / planar-swallowtail criteria of ``classify_plane``
    for a corank-one plane germ that is not Morin; ``analysis`` is
    analyze(f) and ``eta`` its null field."""
    lam = analysis.lam
    origin = f.origin()
    dlam0 = lam.gradient_at(origin)
    eel = eta.apply(eta.apply(lam))
    eel0 = eel.eval(origin)
    if all(v == 0 for v in dlam0):
        det_h = _hessian_det_at_zero(lam)
        if det_h > 0:
            eps = _sign(eel0)
            return ClassLabel("lips", (eps, None), _plane_normal_form("lips", eps),
                              None, ("etaetalam", eps))
        if det_h < 0 and eel0 != 0:
            eps = _sign(eel0)
            return ClassLabel("beaks", (eps, None), _plane_normal_form("beaks", eps),
                              None, ("etaetalam", eps))
        return ClassLabel("unrecognized")
    # d lambda(0) != 0
    el0 = eta.apply(lam).eval(origin)
    eeel0 = eta.apply(eel).eval(origin)
    if el0 == 0 and eel0 == 0 and eeel0 != 0:
        xi = _xi_partner(eta.at_zero(), 2)
        xil0 = xi.apply(lam).eval(origin)
        eps = _sign(xil0 * eeel0)
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


def surface_w(f, xi=None, eta=None):
    """w = det(xi f, eta f, eta eta f) for a corank-one germ
    (R^2,0) -> (R^3,0), with the deterministic constant frame.
    Returns (w, xi, eta)."""
    if f.src_dim != 2 or f.tgt_dim != 3:
        raise GermError("needs a germ (R^2,0) -> (R^3,0)")
    if eta is None:
        ana = analyze(f)
        if ana.rank0 != 1:
            raise NotCorankOneError("not corank one at 0 (rank %d)" % ana.rank0)
        J0 = ana.jacobian.eval(f.origin())
        vec = integer_kernel([clear_denominators(r) for r in J0])[1][0]
        # deterministic direction: first nonzero entry positive
        lead = next(v for v in vec if v != 0)
        if lead < 0:
            vec = [-v for v in vec]
        eta = VecField.constant(vec, 2)
    if xi is None:
        xi = _xi_partner(eta.at_zero(), 2)
    cols = []
    for field in (xi, eta):
        cols.append([field.apply(c) for c in f.components])
    cols.append([eta.apply(g) for g in cols[1]])  # eta eta f
    ents = []
    for i in range(3):
        for j in range(3):
            ents.append(cols[j][i])
    w = PolyMatrix(3, 3, ents).det()
    return w, xi, eta


def classify_surface(f, eta=None):
    """Isotopy class of a corank-one germ (R^2,0) -> (R^3,0).

    Whitney umbrella: dw(0) != 0 (single class).
    S1+: dw(0) = 0, det hess w(0) < 0, eta eta w(0) != 0; eps = sign eta eta w.
    S1-: dw(0) = 0, det hess w(0) > 0; eps = sign eta eta w.
    """
    w, xi, eta = surface_w(f, eta=eta)
    origin = f.origin()
    dw0 = w.gradient_at(origin)
    if any(v != 0 for v in dw0):
        return ClassLabel("whitney-umbrella",
                          normal_form=_surface_normal_form("whitney-umbrella"))
    det_h = _hessian_det_at_zero(w)
    eew0 = eta.apply(eta.apply(w)).eval(origin)
    if det_h < 0 and eew0 != 0:
        eps = _sign(eew0)
        return ClassLabel("S1+", (eps, None), _surface_normal_form("S1+", eps),
                          None, ("etaetaw", eps))
    if det_h > 0 and eew0 != 0:
        eps = _sign(eew0)
        return ClassLabel("S1-", (eps, None), _surface_normal_form("S1-", eps),
                          None, ("etaetaw", eps))
    return ClassLabel("unrecognized")
