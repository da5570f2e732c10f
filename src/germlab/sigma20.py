"""Classification of corank-two germs (R^4,0) -> (R^4,0) into signed
hyperbolic / elliptic umbilics.

Criteria (after a linear target change making d(f1)(0) = d(f2)(0) = 0 and
with constant fields xi, eta spanning ker df(0)):

  det hess_{(xi,eta)} lambda(0) < 0  ->  hyperbolic;  > 0  ->  elliptic.
  D = det(grad(xi f1), grad(xi f2), grad(eta f1), grad(eta f2))(0):
      hyperbolic: sign D = -eps1;
      elliptic:   sign D = eps1 and sign trace hess = eps1 * eps2.

Both quantities are insensitive (in sign) to the choice of kernel basis
and of the normalized target coordinates, so a single deterministic
choice suffices; the invariance is exercised by the tests.
"""

import functools

from .polyring import (Poly, clear_denominators, integer_adjugate,
                       integer_echelon, integer_kernel)
from .germ import (MapGerm, VecField, GermAnalysis, analyze, jacobian,
                   GermError)
from .morin import ClassLabel, _sign


class DegenerateSigmaError(GermError):
    """The second-order data is degenerate: not a stable umbilic."""


@functools.cache
def hyp_normal_form(eps1=1):
    x1, x2, x3, x4 = (Poly.var(i, 4) for i in range(1, 5))
    second = x2 ** 2 + (x1 * x4 if eps1 == 1 else -(x1 * x4))
    return MapGerm([x1 ** 2 + x2 * x3, second, x3, x4], src_dim=4)


@functools.cache
def elli_normal_form(eps1=1, eps2=1):
    x1, x2, x3, x4 = (Poly.var(i, 4) for i in range(1, 5))
    first = x1 ** 2 - x2 ** 2 + (x1 * x3).scale(eps1) + x2 * x4
    second = (x1 * x2).scale(eps1) + (x1 * x4).scale(eps1) - x2 * x3
    last = x4 if eps2 == 1 else -x4
    return MapGerm([first, second, x3, last], src_dim=4)


def target_normalize(f, analysis=None):
    """Orientation-preserving linear target change B, an integer matrix
    with det B > 0, so that the first two components of B o f have
    vanishing differential at 0.  Returns (B o f, B).  Requires rank
    df(0) = 2.  ``analysis``, when given, is analyze(f)."""
    if f.src_dim != 4 or f.tgt_dim != 4:
        raise GermError("needs a germ (R^4,0) -> (R^4,0)")
    ana = analysis or analyze(f)
    if ana.rank0 != 2:
        raise GermError("rank df(0) must be 2, got %d" % ana.rank0)
    J0 = ana.jacobian.eval(f.origin())
    # the left kernel of J0 is the right kernel of its transpose
    B = integer_kernel([clear_denominators(col) for col in zip(*J0)])[1]
    # complete with standard basis rows keeping the matrix invertible
    for i in range(4):
        cand = B + [[int(j == i) for j in range(4)]]
        if len(B) < 4 and len(integer_echelon(cand)[1]) == len(cand):
            B = cand
    if integer_adjugate(B)[0] < 0:
        B[3] = [-v for v in B[3]]
    comps = []
    for i in range(4):
        acc = Poly.zero(4)
        for j in range(4):
            if B[i][j] != 0:
                acc = acc + f.components[j].scale(B[i][j])
        comps.append(acc)
    return MapGerm(comps, src_dim=4), B


def kernel_frame(f, analysis=None):
    """Deterministic exact basis (xi, eta) of ker df(0) as constant
    fields: the primitive integer vectors of ``integer_kernel``, positive
    multiples of the RREF nullspace vectors."""
    ana = analysis or analyze(f)
    if ana.corank0 != 2:
        raise GermError("corank at 0 must be 2, got %d" % ana.corank0)
    J0 = ana.jacobian.eval(f.origin())
    basis = integer_kernel([clear_denominators(row) for row in J0])[1]
    return (VecField.constant(basis[0], 4), VecField.constant(basis[1], 4))


def classify_sigma20(f, analysis=None):
    """The ClassLabel of a rank-2 germ (R^4,0) -> (R^4,0): a signed
    hyperbolic or elliptic umbilic, with the signs of det hess lambda(0),
    of the 4x4 determinant and (elliptic only) of trace hess lambda(0) as
    its witness.  Raises DegenerateSigmaError if any criterion
    quantity vanishes.  ``analysis``, when given, is analyze(f).

    g = B o f is analyzed from f's analysis: J_g = B J_f, so the jet of
    lambda_g is det B times that of lambda_f and rank dg(0) = rank df(0)."""
    ana_f = analysis or analyze(f)
    g, B = target_normalize(f, ana_f)
    det_b = integer_adjugate(B)[0]
    ana = GermAnalysis(g, jacobian(g), ana_f.lam.scale(det_b), ana_f.rank0)
    xi, eta = kernel_frame(g, ana)
    lam = ana.lam
    origin = g.origin()
    h11 = xi.apply(xi.apply(lam)).eval(origin)
    h12 = xi.apply(eta.apply(lam)).eval(origin)
    h21 = eta.apply(xi.apply(lam)).eval(origin)
    h22 = eta.apply(eta.apply(lam)).eval(origin)
    hess_det = h11 * h22 - h12 * h21
    if hess_det == 0:
        raise DegenerateSigmaError("det hess lambda(0) = 0: degenerate germ")
    grads = []
    for field in (xi, eta):
        for comp in g.components[:2]:
            grads.append(field.apply(comp).gradient_at(origin))
    big_det = integer_adjugate([clear_denominators(r) for r in grads])[0]
    if big_det == 0:
        raise DegenerateSigmaError("the 4x4 determinant vanishes: not stable")
    hs = _sign(hess_det)
    bs = _sign(big_det)
    if hess_det < 0:
        return ClassLabel("sigma20-hyp", (-bs, None), hyp_normal_form(-bs),
                          None, ("bigdet", bs),
                          {"hess_det_sign": hs, "big_det_sign": bs,
                           "trace_sign": None})
    trace = h11 + h22
    ts = _sign(trace)
    if ts == 0:
        raise DegenerateSigmaError("trace hess lambda(0) = 0 in the elliptic case")
    eps1 = bs
    eps2 = eps1 * ts
    return ClassLabel("sigma20-elli", (eps1, eps2),
                      elli_normal_form(eps1, eps2), None,
                      ("bigdet-trace", (bs, ts)),
                      {"hess_det_sign": hs, "big_det_sign": bs,
                       "trace_sign": ts})
