"""Classification of corank-two germs (R^4,0) -> (R^4,0) into signed
hyperbolic / elliptic umbilics, read from the 2-jet of f on integers.

Criteria (for g = B o f, B a linear target change with det B > 0 making
d(g1)(0) = d(g2)(0) = 0, and with constant fields xi, eta spanning
ker df(0)):

  det hess_{(xi,eta)} lambda(0) < 0  ->  hyperbolic;  > 0  ->  elliptic.
  D = det(grad(xi g1), grad(xi g2), grad(eta g1), grad(eta g2))(0):
      hyperbolic: sign D = -eps1;
      elliptic:   sign D = eps1 and sign trace hess = eps1 * eps2.

With G_k = sum_i B_ki hess f_i(0) and r_k row k of B df(0), dg(x) =
[G1 x; G2 x; r3; r4] to first order: grad(a g_k)(0) = G_k a, and the
Hessian of lambda along a, b is det[G1 a; G2 b; r3; r4] + det[G1 b; G2 a;
r3; r4].  Each sign is insensitive to the choice of kernel basis and of
B, so one deterministic choice suffices; the tests exercise this.
On the integer components of f's prepared form, G_k a is the linear
part of the derivative along a (``germ._jet_deriv``) of the 2-jet of g_k,
r_k that of g_k; the form also holds (xi, eta) and B's first two rows.
"""

import functools

from .polyring import Poly, integer_det, integer_kernel
from .germ import (MapGerm, GermError, DegenerateGermError, prepared_form,
                   _jet_deriv)
from .morin import ClassLabel, _sign


class DegenerateSigmaError(DegenerateGermError):
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


def classify_sigma20(f):
    """The ClassLabel of a rank-2 germ (R^4,0) -> (R^4,0): a signed
    hyperbolic or elliptic umbilic, with the signs of det hess lambda(0),
    of the 4x4 determinant and (elliptic only) of trace hess lambda(0) as
    its witness.  Raises DegenerateSigmaError if any criterion
    quantity vanishes."""
    if f.src_dim != 4 or f.tgt_dim != 4:
        raise GermError("needs a germ (R^4,0) -> (R^4,0)")
    prep = prepared_form(f)
    if prep.corank != 2:
        raise GermError("rank df(0) must be 2, got %d" % (4 - prep.corank))
    # the left kernel of J0 (the prepared form's ``left``), completed
    # with the first standard basis rows that keep the rank full; the
    # 4-row candidate is eliminated once, for its determinant, which is
    # nonzero exactly at rank 4 and whose sign orients B
    B = prep.left
    for i in range(4):
        cand = B + [[int(j == i) for j in range(4)]]
        if len(B) == 2 and integer_kernel(cand)[0] == 3:
            B = cand
        elif len(B) == 3 and (det_b := integer_det(cand)):
            B = cand[:3] + [[_sign(det_b) * v for v in cand[3]]]
    # the 2-jets of g_k = sum_i B_ki f_i
    g = [{} for _ in B]
    for jet, row in zip(g, B):
        for bi, c in zip(row, prep.comps):
            for e, coef in c.items():
                if bi and sum(e) <= 2:
                    jet[e] = jet.get(e, 0) + bi * coef
    units = [tuple(int(i == j) for i in range(4)) for j in range(4)]
    # G_k a = grad(a g_k)(0) for a in the kernel basis (xi, eta)
    (p1, p2), (q1, q2) = [[[_jet_deriv(g[k], a, 1).get(e, 0) for e in units]
                           for k in (0, 1)] for a in prep.kernel]
    rest = [[g[k].get(e, 0) for e in units] for k in (2, 3)]
    h11 = 2 * integer_det([p1, p2] + rest)
    h22 = 2 * integer_det([q1, q2] + rest)
    h12 = integer_det([p1, q2] + rest) + integer_det([q1, p2] + rest)
    hess_det = h11 * h22 - h12 * h12
    if hess_det == 0:
        raise DegenerateSigmaError("det hess lambda(0) = 0: degenerate germ")
    big_det = integer_det([p1, p2, q1, q2])
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
