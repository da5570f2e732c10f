"""Reference implementations that tests compare the library against.

``eta_chain_label`` is the Morin recognition of the eta-chain route: lambda
and the null field eta from one adjugate column of the Jacobian
(``germ.analyze``), the chain lambda, eta lambda, ..., eta^n lambda as
polynomial jets, and its values and gradients at the origin.  It reads
the germ in its own coordinates, with any null field a test passes, and
shares with the library's prepared-form route only the invariant rule
``morin.morin_invariants``.

``classify_sigma20``, ``classify_surface`` and ``classify_degenerate_plane``
are the umbilic, surface and plane routes as they ran on the
cofactor/vector-field layer before they read integer coefficients of f.
The umbilic reference analyzes f (``germ.analyze``), builds B o f as
Polys (``target_normalize``) and takes second derivatives along the
constant fields of ``kernel_frame``; the surface reference expands w = det(xi f, eta f, eta eta f) in full,
along any constant null field a test passes; the plane reference applies
the null field of ``analyze`` (or any a test passes) to lambda up to
three times.

``sign_at_root`` is the refinement-based sign of a polynomial at a root of
a constraint: it bisects the isolating interval until g has no root left
in it, then reads g's sign at the ends.  It runs on rational arithmetic
throughout, with its own Sturm chain, count and bisection, so it shares no
code with the library's integer signs and Tarski queries.  This module's
``isolate_real_roots`` and ``refine_root`` are the Fraction bisections the
library ran before it bisected on integer numerator/denominator pairs, and
its ``rational_roots`` tests one candidate per interval refined by them.

``morin_points_reference`` enumerates the Morin points of a perturbation
as each request did before the curve criteria were cached per (family,
n[, l]): it builds the unfolding F with the parameters substituted, its
chain lambda, ..., eta^n lambda and the n x n determinant of the gradient
stack, restricts them to the curve by ``Poly.subs``, and checks that the
chain vanishes modulo the square-free constraint, on every request.  It
finds the roots with this module's bisections.

``rational_rref``, ``rational_rank``, ``rational_nullspace`` and
``rational_det`` are Gauss-Jordan elimination on Fractions, and
``up_divmod``, ``up_gcd`` and ``up_squarefree`` long division, gcd and
square-free part on Fraction coefficient lists: the rational layer the
library's integer linear algebra and integer univariate layer replaced.

``parse_map`` is the germ text parser with one method per grammar level
and a Fraction dict per factor, as germparse read text before its terms
were read in one loop on int coefficients."""

import re
from fractions import Fraction
from math import ceil, lcm
from operator import add

from germlab.germ import (GermError, NotCorankOneError, DegenerateGermError,
                          GermAnalysis, MapGerm, VecField, analyze, jacobian,
                          null_field, translate)
from germlab.morin import (ClassLabel, _sign, eta_lambda_chain,
                           morin_invariants, recognize_morin)
from germlab.polyring import (DimensionError, Poly, PolyMatrix, rat,
                              clear_denominators, integer_adjugate,
                              integer_kernel)
from germlab.lowdim import _plane_normal_form, _surface_normal_form
from germlab.sigma20 import (DegenerateSigmaError, elli_normal_form,
                             hyp_normal_form)
from germlab.germparse import (ParseError, MAX_TERM_PRODUCTS, MAX_POWER_BITS,
                               _EOF, _OTHER, _PUNCT, _TOKEN, _bits, _blocks)
from germlab.perturb import (DEFAULT_PRECISION_BITS, MorinPoint,
                             PerturbationReport, _classifier_invariant_on_curve,
                             _lambda_chain, _qbar_coeffs, build_unfolding,
                             eliminate_curve, table_invariant,
                             up_deg, up_deriv, up_neg, up_trim)


# ---- rational Gauss-Jordan elimination (plain lists of Fractions) --------

def rational_rref(mat):
    """Reduced row echelon form of a rational matrix.  Returns
    (rref_rows, pivot_columns).  Input is not modified."""
    rows = [[rat(x) for x in row] for row in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rational_rank(mat):
    if not mat:
        return 0
    return len(rational_rref(mat)[1])


def rational_nullspace(mat):
    """Deterministic basis of the right nullspace of a rational matrix.
    Each basis vector has a 1 in its free-variable slot (RREF convention)."""
    if not mat:
        return []
    ncols = len(mat[0])
    rref, pivots = rational_rref(mat)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][fc]
        basis.append(vec)
    return basis


def rational_det(mat):
    """Exact determinant of a square rational matrix (Gaussian elimination)."""
    rows = [[rat(x) for x in row] for row in mat]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionError("determinant needs a square matrix")
    det = Fraction(1)
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


# ---- univariate long division over Q (coefficient lists) -----------------

def up_eval(c, x):
    x = rat(x)
    total = Fraction(0)
    for coef in reversed(c):
        total = total * x + coef
    return total


def up_divmod(a, b):
    """Exact polynomial division over Q."""
    a = up_trim([rat(x) for x in a])
    b = up_trim([rat(x) for x in b])
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while r and len(r) >= len(b):
        f = r[-1] / b[-1]
        d = len(r) - len(b)
        q[d] = f
        for i, coef in enumerate(b):
            r[i + d] -= f * coef
        r = up_trim(r)
    return up_trim(q), r


def up_rem(a, b):
    return up_divmod(a, b)[1]


def up_monic(c):
    c = up_trim(c)
    if not c:
        return c
    lead = c[-1]
    return [x / lead for x in c]


def up_gcd(a, b):
    a, b = up_trim(a), up_trim(b)
    while b:
        a, b = b, up_rem(a, b)
    return up_monic(a)


def up_squarefree(c):
    """Square-free part c / gcd(c, c')."""
    c = up_trim(c)
    if up_deg(c) <= 0:
        return c
    g = up_gcd(c, up_deriv(c))
    if up_deg(g) <= 0:
        return c
    q, r = up_divmod(c, g)
    assert not r
    return q


def eta_chain_label(f, analysis=None, eta=None):
    """The ClassLabel of a Morin germ by the eta-chain route; ``analysis``
    is analyze(f) and ``eta`` a null field of f, each built when not
    given.  Raises as ``morin.recognize_morin`` does."""
    if f.src_dim != f.tgt_dim:
        raise NotCorankOneError("Morin recognition needs an equidimensional germ")
    n = f.src_dim
    ana = analysis or analyze(f)
    if ana.corank0 == 0:
        return ClassLabel("regular", k=0)
    if ana.corank0 >= 2:
        raise NotCorankOneError("not corank one at 0 (corank %d)"
                                % ana.corank0)
    eta = eta or null_field(f, ana)
    chain = eta_lambda_chain(ana.lam, eta, n)
    origin = f.origin()
    values = [c.eval(origin) for c in chain]
    k = next((j for j in range(1, n + 1) if values[j]), None)
    if k is None:
        raise DegenerateGermError("no k <= n with eta^k lambda(0) != 0")
    rows = [chain[j].gradient_at(origin) for j in range(k)]
    if rational_rank(rows) != k:
        raise DegenerateGermError("rank d(lambda,...,eta^{k-1} lambda)(0) < k")
    # each row times the positive lcm of its denominators: same det sign
    scaled = []
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        scaled.append([x.numerator * (m // x.denominator) for x in row])
    return morin_invariants(n, k, values[k], scaled)


# ---- the umbilic and surface routes on the cofactor/vector-field layer ----

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
        if len(B) < 4 and rational_rank(cand) == len(cand):
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


def classify_sigma20(f):
    """``sigma20.classify_sigma20`` on the cofactor layer: lambda of f
    from ``analyze`` (one adjugate column, to degree 4), g = B o f as
    Polys with the analysis derived from f's (J_g = B J_f, so lambda_g is
    det B times lambda_f), and the criteria as second derivatives along
    the constant fields of ``kernel_frame``."""
    ana_f = analyze(f)
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


def surface_w(f, xi=None, eta=None):
    """w = det(xi f, eta f, eta eta f) in full for a corank-one germ
    (R^2,0) -> (R^3,0), with the given fields or else the deterministic
    constant frame (rank and kernel from ``analyze``).  Returns (w, xi,
    eta)."""
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
        a, b = eta.at_zero()
        xi = VecField.constant([-b, a], 2)
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
    """``lowdim.classify_surface`` on the full w of ``surface_w``, along
    the given constant null field ``eta`` or the deterministic one."""
    w, xi, eta = surface_w(f, eta=eta)
    origin = f.origin()
    if any(v != 0 for v in w.gradient_at(origin)):
        return ClassLabel("whitney-umbrella",
                          normal_form=_surface_normal_form("whitney-umbrella"))
    (a, b), (c, d) = [[w.partial(i).partial(j).eval(origin) for j in (1, 2)]
                      for i in (1, 2)]
    det_h = a * d - b * c
    eew0 = eta.apply(eta.apply(w)).eval(origin)
    if det_h < 0 and eew0 != 0:
        eps = _sign(eew0)
        return ClassLabel("S1+", (eps, None), _surface_normal_form("S1+", eps),
                          None, ("etaetaw", eps))
    if det_h > 0 and eew0 != 0:
        eps = _sign(eew0)
        return ClassLabel("S1-", (eps, None), _surface_normal_form("S1-", eps),
                          None, ("etaetaw", eps))
    raise DegenerateGermError("no surface criterion matched")


def classify_degenerate_plane(f, analysis=None, eta=None):
    """``lowdim.classify_degenerate_plane`` on lambda and a null field:
    ``analysis`` is analyze(f) and ``eta`` a null field of f, each built
    when not given."""
    ana = analysis or analyze(f)
    eta = eta or null_field(f, ana)
    lam = ana.lam
    origin = f.origin()
    dlam0 = lam.gradient_at(origin)
    eel = eta.apply(eta.apply(lam))
    eel0 = eel.eval(origin)
    if all(v == 0 for v in dlam0):
        (a, b), (c, d) = [[lam.partial(i).partial(j).eval(origin)
                           for j in (1, 2)] for i in (1, 2)]
        det_h = a * d - b * c
        if det_h > 0:
            eps = _sign(eel0)
            return ClassLabel("lips", (eps, None),
                              _plane_normal_form("lips", eps), None,
                              ("etaetalam", eps))
        if det_h < 0 and eel0 != 0:
            eps = _sign(eel0)
            return ClassLabel("beaks", (eps, None),
                              _plane_normal_form("beaks", eps), None,
                              ("etaetalam", eps))
        raise DegenerateGermError("no plane criterion matched")
    el0 = eta.apply(lam).eval(origin)
    eeel0 = eta.apply(eel).eval(origin)
    if el0 == 0 and eel0 == 0 and eeel0 != 0:
        a, b = eta.at_zero()
        xi = VecField.constant([-b, a], 2)
        eps = _sign(xi.apply(lam).eval(origin) * eeel0)
        return ClassLabel("planar-swallowtail", (eps, None),
                          _plane_normal_form("planar-swallowtail", eps),
                          None, ("xilam-eta3lam", eps))
    raise DegenerateGermError("no plane criterion matched")


def sturm_chain(c):
    chain = [up_trim(c), up_trim(up_deriv(c))]
    while chain[-1]:
        r = up_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(up_neg(r))
    return [p for p in chain if p]


def _variations(values):
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def sturm_count(chain, lo, hi):
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    va = _variations([up_eval(p, lo) for p in chain])
    vb = _variations([up_eval(p, hi) for p in chain])
    return va - vb


def refine_root(c, lo, hi, width):
    """Bisect an isolating interval of a square-free c below ``width``.
    Returns (r, r) if an exact rational root is hit."""
    if lo == hi:
        return (lo, hi)
    flo = up_eval(c, lo)
    if flo == 0:
        return (lo, lo)
    if up_eval(c, hi) == 0:
        return (hi, hi)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = up_eval(c, mid)
        if fm == 0:
            return (mid, mid)
        if (flo > 0) != (fm > 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return (lo, hi)


def isolate_real_roots(c, width=None):
    """Isolating intervals for the distinct real roots of a square-free c,
    sorted (lo, hi) pairs with one root in (lo, hi], refined below
    ``width`` by ``refine_root``: Fraction bisection from the Cauchy
    bound, each split point nudged off the roots of c."""
    c = up_trim(c)
    if up_deg(c) <= 0:
        return []
    chain = sturm_chain(c)
    bound = 1 + Fraction(max(abs(x) for x in c[:-1])) / abs(c[-1])
    stack = [(-bound, bound)]
    found = []
    while stack:
        lo, hi = stack.pop()
        k = sturm_count(chain, lo, hi)
        if k == 0:
            continue
        if k == 1:
            found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        j = 3
        while up_eval(c, mid) == 0:
            mid = lo + (hi - lo) * Fraction(1, j)
            j += 1
        stack.append((lo, mid))
        stack.append((mid, hi))
    return sorted(refine_root(c, lo, hi, width) if width else (lo, hi)
                  for lo, hi in found)


def rational_roots(c, intervals):
    """The rational roots of c in its isolating ``intervals``, sorted.  A
    root p/q in lowest terms has q | A, the leading coefficient of c times
    the lcm of its denominators, so each interval refined below 1/(2A)
    holds one candidate on (1/A)Z, which is tested exactly."""
    c = up_trim([rat(x) for x in c])
    a = int(abs(c[-1] * lcm(*(x.denominator for x in c))))
    roots = []
    for lo, hi in intervals:
        lo, hi = refine_root(c, lo, hi, Fraction(1, 2 * a))
        cand = Fraction(ceil(lo * a), a)
        if cand <= hi and up_eval(c, cand) == 0:
            roots.append(cand)
    return sorted(roots)


def sign_at_root(g, constraint, root, max_iter=200):
    """Exact sign of the univariate polynomial g at a root of
    ``constraint`` given either exactly or by an isolating interval of the
    square-free constraint.  Returns +1, -1 or 0."""
    g = up_trim(g)
    if not g:
        return 0
    if isinstance(root, tuple):
        lo, hi = root
    else:
        return _sign(up_eval(g, root))
    if lo == hi:
        return _sign(up_eval(g, lo))
    # if g shares this root with the constraint the sign is 0
    common = up_gcd(g, constraint)
    if up_deg(common) > 0:
        chain_c = sturm_chain(common)
        if sturm_count(chain_c, lo, hi) > 0:
            return 0
    chain_g = sturm_chain(up_squarefree(g))
    for _ in range(max_iter):
        if sturm_count(chain_g, lo, hi) == 0 and up_eval(g, lo) != 0:
            s_lo = _sign(up_eval(g, lo))
            s_hi = _sign(up_eval(g, hi))
            if s_lo == s_hi and s_lo != 0:
                return s_lo
        lo, hi = refine_root(constraint, lo, hi, (hi - lo) / 2)
        if lo == hi:
            return _sign(up_eval(g, lo))
    raise GermError("sign isolation did not converge")  # pragma: no cover


# ---- reference Morin-point enumeration -----------------------------------

def poly_to_coeffs(p):
    """Univariate Poly (nvars == 1) -> coefficient list."""
    if p.nvars != 1:
        raise GermError("expected a univariate polynomial")
    out = [Fraction(0)] * (p.total_degree() + 1 if p.terms else 0)
    for (e,), coef in p.terms.items():
        out[e] = coef
    return up_trim(out)


def _curve_data(spec):
    """(sigma, constraint coefficients) with the parameters substituted
    into the cached symbolic curve by ``Poly.subs``."""
    n = spec.n
    if spec.family == "A":
        # t = x2 = ... = x_{n-1} = 0, xn = s (the qbar root parameter)
        sigma = [Poly.zero(1)] * (n - 1) + [Poly.var(1, 1)]
        return sigma, _qbar_coeffs(spec.l, spec.u)
    coords, constraint = eliminate_curve(spec.family, n)
    t = Poly.var(1, 1)
    reps = [t] + [Poly.const(v, 1) for v in spec.u]
    sigma = [t] + [x.subs(reps) for x in coords]
    return sigma, poly_to_coeffs(constraint.subs(reps))


def _curve_criteria(chain_n, sigma, n):
    """eta^n lambda and det grad(lambda, ..., eta^{n-1} lambda) of the
    substituted unfolding, restricted to sigma."""
    rows = [chain_n[j].partial(i) for j in range(n) for i in range(1, n + 1)]
    det_poly = PolyMatrix(n, n, rows).det()
    return (poly_to_coeffs(chain_n[n].subs(sigma)),
            poly_to_coeffs(det_poly.subs(sigma)))


def _vanishes_on_curve(sigma, constraint, chain_n, n):
    for j in range(n):
        comp = poly_to_coeffs(chain_n[j].subs(sigma))
        if comp and up_rem(comp, constraint):
            return False
    return True


def morin_points_reference(spec, precision_bits=DEFAULT_PRECISION_BITS):
    """The PerturbationReport of ``spec``, everything derived per request."""
    n = spec.n
    F = build_unfolding(spec)
    chain_n = _lambda_chain(F.components[0], n)
    sigma, constraint = _curve_data(spec)
    notes = []
    stable = True
    sf = up_squarefree(constraint)
    if up_deg(sf) < up_deg(constraint):
        stable = False
        notes.append("non-stable parameter: the constraint has repeated roots")
    if not _vanishes_on_curve(sigma, sf, chain_n, n):
        raise GermError("internal error: curve does not satisfy the equations")
    width = Fraction(1, 2 ** precision_bits)
    found = isolate_real_roots(sf)
    exact = rational_roots(sf, found)
    remaining = sf
    for r in exact:
        remaining, _ = up_divmod(remaining, [-r, Fraction(1)])
    if exact:
        intervals = isolate_real_roots(remaining, width=width)
    else:
        intervals = [refine_root(sf, lo, hi, width) for lo, hi in found]
    if spec.family in ("B", "C"):
        if 0 in exact:
            exact.remove(0)
            notes.append("root t=0 excluded (not a Morin point)")
        kept = []
        for lo, hi in intervals:
            while lo <= 0 <= hi:
                lo, hi = refine_root(remaining, lo, hi, (hi - lo) / 2)
            kept.append((lo, hi))
        intervals = kept
    points = []
    roots = exact + intervals
    if roots:
        criteria = _curve_criteria(chain_n, sigma, n)
    sequences = {}
    for root in roots:
        is_exact = not isinstance(root, tuple)
        inv = _classifier_invariant_on_curve(
            n, criteria, remaining, root, sequences)
        if inv is None:
            stable = False
            notes.append("degenerate point (a criterion quantity vanishes)")
            continue
        tbl = table_invariant(spec, root, remaining, sequences)
        verified = (inv == tbl)
        if is_exact:
            coords = [p.eval([root]) for p in sigma]
            res = recognize_morin(translate(F, coords))
            verified = verified and res.k == n and res.invariant == inv
            location = coords
        else:
            location = [root]
        points.append(MorinPoint(root, is_exact, location, n, inv, tbl,
                                 verified))
    return PerturbationReport(spec, points, stable, notes)


# ---- reference parser ----------------------------------------------------
#
# The germ text parser as it was before terms were read in one loop over
# their factors: one method per grammar level, one {exponent tuple:
# Fraction} dict per factor, terms added one by one into the first.  It
# shares with germparse only the token set, the budget constants and the
# budget's bit count (_bits, _blocks), and Poly's product loop.

_ONE = Fraction(1)      # the coefficient of a variable, shared


def _tokenize(text):
    """The token strings of ``text`` followed by _EOF.  Positions are
    worked out only for an error, by ``_position``."""
    tokens = re.findall(_TOKEN, text)
    if not text.isascii() or re.search(_OTHER, text):
        for k, t in enumerate(tokens):
            if t not in _PUNCT and not t[0].isdecimal() and \
                    not (t[0].isalpha() or t[0] == "_"):
                raise ParseError("unexpected character %r" % t[0],
                                 *_position(text, k))
    tokens.append(_EOF)
    return tokens


def _position(text, k):
    """1-based (line, column) of token k of ``text``; the end of the text
    for the _EOF token."""
    i = len(text)
    for j, m in enumerate(re.finditer(_TOKEN, text)):
        if j == k:
            i = m.start()
            break
    return text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)


def _shown(t):
    """What an error message quotes for token t."""
    if t.isdecimal():
        return int(t)
    return None if t == _EOF else t


class _Parser:
    """Recursive descent straight to {exponent tuple: Fraction} dicts.

    Every method returns a dict that no one else holds, so expr adds its
    terms in place.  Only a product or power with a multi-term operand
    goes through Poly's product loop."""

    def __init__(self, text, tokens, names):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars = len(names)
        self.zero = (0,) * nvars
        # variable name -> its exponent tuple
        self.units = {name: tuple(int(j == i) for j in range(nvars))
                      for i, name in enumerate(names)}
        self.term_products = 0
        self.power_bits = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def fail(self, message, at=None):
        """ParseError at token index ``at``, by default the next token."""
        raise ParseError(message, *_position(
            self.text, self.pos if at is None else at))

    def expect(self, kind):
        t = self.next()
        if not (t.isdecimal() if kind == "int" else t == kind):
            self.fail("expected %r, found %r" % (kind, _shown(t)),
                      self.pos - 1)
        return t

    def charge(self, term_products, power_bits, at):
        """Charge the work of the product or power at token index ``at``."""
        self.term_products += term_products
        self.power_bits += power_bits
        if self.term_products > MAX_TERM_PRODUCTS:
            self.fail("expansion too large: about %d term products, over "
                      "the budget of %d" % (self.term_products,
                                            MAX_TERM_PRODUCTS), at)
        if self.power_bits > MAX_POWER_BITS:
            self.fail("coefficients too large: about %d bits from powers, "
                      "over the budget of %d" % (self.power_bits,
                                                 MAX_POWER_BITS), at)

    def product(self, p, q, at):
        """p * q, of which one has several terms, by Poly's product loop,
        once its term products are charged at token index ``at``."""
        self.charge(len(p) * len(q) * _blocks(p) * _blocks(q), 0, at)
        return (Poly._trusted(self.nvars, p) *
                Poly._trusted(self.nvars, q)).terms

    # expr := term (("+" | "-") term)*
    def expr(self):
        if self.peek() == "+":  # allow a leading +
            self.pos += 1
        acc = self.term()
        get = acc.get
        while self.peek() in ("+", "-"):
            minus = self.next() == "-"
            for e, c in self.term().items():
                s = get(e, 0) - c if minus else get(e, 0) + c
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return acc

    # term := factor ("*" factor)*
    def term(self):
        p = self.factor()
        while self.peek() == "*":
            at = self.pos
            self.pos += 1
            q = self.factor()
            if len(p) == 1 and len(q) == 1:
                (e1, c1), = p.items()
                (e2, c2), = q.items()
                c = c1 if c2 is _ONE else c2 if c1 is _ONE else c1 * c2
                p = {tuple(map(add, e1, e2)): c}
            elif p and q:
                p = self.product(p, q, at)
            else:
                p = {}
        return p

    # factor := "-" factor | power
    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return {e: -c for e, c in self.factor().items()}
        return self.power()

    # power := atom ("^" nonnegative-integer)?
    def power(self):
        p = self.atom()
        if self.peek() != "^":
            return p
        at = self.pos
        self.pos += 1
        if not self.peek().isdecimal():
            self.fail("exponent must be a nonnegative integer literal")
        k = int(self.next())
        if k == 0:
            return {self.zero: _ONE}
        if k == 1 or not p:
            return p
        if len(p) == 1:
            (e, c), = p.items()
            if c is not _ONE:
                self.charge(0, k * _bits(c), at)
                c = c ** k
            return {tuple(k * i for i in e): c}
        # binary powering, so that each product is charged before it is made
        result = None
        while True:
            if k & 1:
                result = p if result is None else self.product(result, p, at)
            k >>= 1
            if not k:
                return result
            p = self.product(p, p, at)

    # atom := number | variable | "(" expr ")"
    def atom(self):
        t = self.next()
        if t.isdecimal():
            value = int(t)
            if self.peek() == "/":
                self.pos += 1
                d = int(self.expect("int"))
                if d == 0:
                    self.fail("zero denominator", self.pos - 1)
                return {self.zero: Fraction(value, d)} if value else {}
            return {self.zero: Fraction(value)} if value else {}
        if t == "(":
            p = self.expr()
            self.expect(")")
            return p
        if t not in _PUNCT and t != _EOF:
            unit = self.units.get(t)
            if unit is None:
                self.fail("unknown identifier %r" % t, self.pos - 1)
            return {unit: _ONE}
        self.fail("expected a number, variable or parenthesized expression",
                  self.pos - 1)


def _split_header(text):
    """Returns (var_names or None, body, body_line_offset)."""
    stripped = text.lstrip()
    if not stripped.lower().startswith("vars"):
        return None, text
    bar = text.index("|") if "|" in text else None
    if bar is None:
        raise ParseError("header must end with '|'", 1, 1)
    header = text[:bar]
    colon = header.index(":") if ":" in header else None
    if colon is None:
        raise ParseError("header must look like 'vars: x1,x2 | ...'", 1, 1)
    names = [s.strip() for s in header[colon + 1:].split(",")]
    if not names or any(not s for s in names):
        raise ParseError("empty variable name in header", 1, 1)
    for s in names:
        if not (s[0].isalpha() or s[0] == "_") or \
                not all(c.isalnum() or c == "_" for c in s):
            raise ParseError("invalid variable name %r" % s, 1, 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name in header", 1, 1)
    # keep the prefix so line/column positions stay correct
    body = " " * (bar + 1) + text[bar + 1:]
    return names, body


def _infer_vars(text, tokens):
    """Without a header every identifier must be x<k>; nvars = max k."""
    nvars = 0
    for k, t in enumerate(tokens):
        if t in _PUNCT or t == _EOF or t.isdecimal():
            continue
        if not (t.startswith("x") and t[1:].isdecimal() and
                not t[1:].startswith("0")):
            raise ParseError(
                "identifier %r needs a 'vars:' header (only x1, x2, ... "
                "can be inferred)" % t, *_position(text, k))
        nvars = max(nvars, int(t[1:]))
    if nvars == 0:
        # no variables at all; still need a positive dimension
        nvars = 1
    return nvars


def parse_map(text):
    """The MapGerm of ``text`` by the term-by-term parser."""
    if not isinstance(text, str):
        try:
            text = bytes(text).decode("utf-8")
        except (UnicodeDecodeError, TypeError, ValueError):
            raise ParseError("input is not valid UTF-8 text", 1, 1)
    names, body = _split_header(text)
    tokens = _tokenize(body)
    if names is None:
        names = ["x%d" % i for i in range(1, _infer_vars(body, tokens) + 1)]
    parser = _Parser(body, tokens, names)
    comps = []
    starts = []
    while True:
        starts.append(parser.pos)
        try:
            comps.append(parser.expr())
        except RecursionError:
            parser.fail("expression nested too deeply")
        t = parser.next()
        if t == _EOF:
            break
        if t != ";":
            parser.fail("expected ';' or end of input, found %r" % _shown(t),
                        parser.pos - 1)
    for i, (p, at) in enumerate(zip(comps, starts)):
        if parser.zero in p:
            parser.fail("nonzero constant term in component %d" % (i + 1), at)
    nvars = parser.nvars
    return MapGerm([Poly._trusted(nvars, p) for p in comps], src_dim=nvars)
