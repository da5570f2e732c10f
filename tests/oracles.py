"""Reference implementations that tests compare the library against.

``eta_chain_label`` is the Morin recognition of the eta-chain route: lambda
and the null field eta from one adjugate column of the Jacobian
(``germ.analyze``), the chain lambda, eta lambda, ..., eta^n lambda as
polynomial jets, and its values and gradients at the origin, whose rank
and determinant it takes by ``rational_rank`` and ``rational_det``.  It
reads the germ in its own coordinates, with any null field a test
passes, and shares with the library's prepared-form route only the sign
rule ``morin.morin_invariants``.

``prepared_form_reference`` is ``germ._prepare`` as it read the curve
and the transverse row from dense series: ``_substitute`` gives each
component as {beta: [coefficient of u^m y'^beta, m = 0..weight]},
``_read_prepared`` sums over every slot of these series and of Gamma^beta
at every degree, and keeps M[c] as a full (n-1) x (n-1) matrix.

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
library ran before it bisected on integer cells, and its
``rational_roots`` tests one candidate per interval refined by them.

``curve_criteria_reference`` derives what the lab reads from its printed
curve and criteria rows: for families B and C it eliminates lambda = ... =
eta^{n-1} lambda = 0 by back substitution (``eliminate_curve``), for
family A it builds qbar by Poly arithmetic (``family_a_curve``), checks
that the curve satisfies the equations, and restricts eta^n lambda and
det grad to it, all with the parameters symbolic.  It takes det grad by
``jet_det_reference``, the determinant of a square matrix of jets held
as {exponent: coefficient} dicts, which is also the reference for the
dense-jet kernel of ``germ`` (``jet_table``, ``jet_deriv``, ``jet_det``).

``translate`` re-centers a germ by ``Poly.subs`` of x_i + p_i, and
``build_unfolding`` puts the parameter values into the library's cached q
by ``Poly.subs``: the Poly-product bodies the library ran before its
integer Taylor shift and term-by-term parameter values.

``morin_points_reference`` enumerates the Morin points of a perturbation
as each request did before the curve criteria were cached per (family,
n[, l]): it builds the unfolding F with the parameters substituted, its
first component by Poly arithmetic (``q_poly``) rather than from the
library's printed rows, its chain lambda, ..., eta^n lambda and the n x n
determinant of the gradient stack, restricts them to the curve by
``Poly.subs``, and checks that the chain vanishes modulo the square-free
constraint, on every request.  It finds the roots with this module's
bisections, takes the criteria's signs with this module's
``sign_at_root``, and reads the table's invariant from
``table_invariant_reference``: the published inv rows as hand-coded
branches on (family, n), with qbar from ``qbar_coeffs`` and the signs
from the same ``sign_at_root``.  Exact points are re-centered by this
module's ``translate``.

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
from functools import cache
from math import ceil, comb, lcm
from operator import add

from germlab.germ import (GermError, NotCorankOneError, DegenerateGermError,
                          GermAnalysis, MapGerm, PreparedForm, analyze,
                          jacobian, jet_degree, null_field)
from germlab.morin import (ClassLabel, _sign, eta_lambda_chain,
                           invariant_kind, morin_invariants, recognize_morin)
from germlab.polyring import (DimensionError, Poly, PolyMatrix, rat,
                              clear_denominators, dir_deriv, integer_adjugate,
                              integer_kernel)
from germlab.lowdim import _plane_normal_form, _surface_normal_form
from germlab.sigma20 import (DegenerateSigmaError, elli_normal_form,
                             hyp_normal_form)
from germlab.germparse import (ParseError, MAX_TERM_PRODUCTS, MAX_POWER_BITS,
                               _EOF, _OTHER, _PUNCT, _TOKEN, _bits, _blocks)
from germlab.perturb import (DEFAULT_PRECISION_BITS, MorinPoint,
                             PerturbationReport, _classifier_invariant_on_curve,
                             _integer_terms, _inv_row, _q, up_deg, up_deriv,
                             up_neg, up_trim)


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


def gradient_at(p, point):
    """The exact values of the partial derivatives of the Poly p at a
    point, as a row."""
    return [p.partial(i).eval(point) for i in range(1, p.nvars + 1)]


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
    eta = eta or ana.eta
    chain = eta_lambda_chain(ana.lam, eta, n)
    origin = f.origin()
    values = [c.eval(origin) for c in chain]
    k = next((j for j in range(1, n + 1) if values[j]), None)
    if k is None:
        raise DegenerateGermError("no k <= n with eta^k lambda(0) != 0")
    rows = [gradient_at(chain[j], origin) for j in range(k)]
    if rational_rank(rows) != k:
        raise DegenerateGermError("rank d(lambda,...,eta^{k-1} lambda)(0) < k")
    s_det = _sign(rational_det(rows)) if k == n else None
    return morin_invariants(n, k, _sign(values[k]), s_det)


# ---- the prepared form's series stage on dense series --------------------

def prepared_form_reference(f):
    """The PreparedForm of f, on integers only, read no further than the
    kernels when n != m or the corank is not one.

    At corank one, v = kernel[0] spans ker df(0) and w = left[0] its left
    kernel; P = [v | e_j, j != p] and T = [w; e_i, i != q] put f in the
    shape T f(P y) = (f1, f'), where df1(0) = 0 and d'f'(0) = (0 | L).
    One complement column of P is negated if det L < 0, and then v or w,
    so that det P, det T and d = det L are positive.  L is eliminated once:
    the negated column takes d to -d and negates every row of adj L but
    the first.  With y1 = d u every coefficient below stays an integer:
      * the curve y' = Gamma(u) with f'(d u, Gamma(u)) = 0, solved one
        degree per step with the constant matrix L;
      * g(u, 0) = f1(d u, Gamma(u)), one degree per step as well: f1 has
        no linear part, so its coefficient of u^m reads Gamma below
        degree m.  The steps stop at the first m >= 2 with a nonzero
        coefficient, m = k + 1, or at m = t = jet_degree(n) + 1 =
        max(n + 1, 4);
      * the transverse row d * df1/dy' (df'/dy')^-1 at (d u, Gamma(u))
        to degree min(k, n) - 1, the derivative of g along z' = d * zeta'.
    Terms of f of degree above t never reach these coefficients.  A
    division by d that leaves a remainder raises GermError; by the
    construction it is always exact."""
    n = f.src_dim
    comps = [dict(zip(c.terms, clear_denominators(c.terms.values())))
             for c in f.components]
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    J0 = [[c.get(e, 0) for e in units] for c in comps]
    rank, kernel = integer_kernel(J0)
    left = (integer_kernel([list(col) for col in zip(*J0)])[1]
            if f.tgt_dim == n and rank in (n - 1, n - 2) else None)
    if rank != n - 1 or left is None:
        return PreparedForm(n - rank, comps, kernel, left)
    top = jet_degree(n) + 1
    v, w = kernel[0], left[0]
    p = min((abs(x), j) for j, x in enumerate(v) if x)[1]
    q = min((abs(x), i) for i, x in enumerate(w) if x)[1]
    cols = [j for j in range(n) if j != p]
    rows = [i for i in range(n) if i != q]
    L = [[J0[i][j] for j in cols] for i in rows]
    d, adj = integer_adjugate(L)
    signs = [1] * (n - 1)
    if d < 0:
        signs[0] = -1
        d = -d
        adj = adj[:1] + [[-x for x in row] for row in adj[1:]]
    if (-1) ** p * v[p] * (signs[0] if cols else 1) < 0:
        v = [-x for x in v]
    if (-1) ** q * w[q] < 0:
        w = [-x for x in w]
    f1 = {}
    for wi, c in zip(w, comps):
        if wi:
            for e, coef in c.items():
                f1[e] = f1.get(e, 0) + wi * coef
    # the rows of f' are read only below degree t: by the curve's steps
    # and, to degree min(k, n) - 2 <= t - 3, by the transverse row
    first, *rest = _substitute(
        [(f1, top)] + [(comps[i], top - 1) for i in rows],
        n, p, [x * d for x in v], signs)
    curve, transverse = _read_prepared(n, top, d, adj, first, rest)
    return PreparedForm(1, comps, kernel, left, curve, transverse)


def _substitute(polys, n, p, a, signs):
    """For each (terms, weight) of ``polys``, {beta: [coefficient of
    u^m y'^beta, m = 0..weight]} for the integer polynomial ``terms`` at
    x_j = a_j u + signs_k y'_k (k the place of j among the coordinates
    other than p) and x_p = a_p u.  The curve has y' = O(u^2), so a term
    u^m y'^beta enters the coefficients read at degree m + 2|beta|; only
    terms with m + 2|beta| <= weight are formed.  The expansion of each
    power x_j^e is built once for all of ``polys``."""
    place = {j: k for k, j in enumerate(j for j in range(n) if j != p)}
    base = max(weight for _, weight in polys) + 1
    expansions = {}
    found = []
    for terms, weight in polys:
        out = {}
        for alpha, coef in terms.items():
            deg = sum(alpha)
            if deg > weight:
                continue
            room = weight - deg         # the largest |beta| kept
            partial = [(coef, 0, 0)]    # (coefficient, |beta|, packed beta)
            for j, e in enumerate(alpha):
                if not e:
                    continue
                table = expansions.get((j, e))
                if table is None:
                    if j == p:
                        table = [(0, a[j] ** e, 0)]
                    else:
                        k = place[j]
                        table = [(b, comb(e, b) * a[j] ** (e - b) *
                                  signs[k] ** b, b * base ** k)
                                 for b in range(e + 1) if a[j] or b == e]
                    expansions[(j, e)] = table
                partial = [(c * t, size + b, key + packed)
                           for c, size, key in partial
                           for b, t, packed in table if size + b <= room]
            for c, size, key in partial:
                coefs = out.get(key)
                if coefs is None:
                    coefs = out[key] = [0] * (weight + 1)
                coefs[deg - size] += c
        unpacked = {}
        for key, coefs in out.items():
            beta = []
            for _ in range(n - 1):
                key, b = divmod(key, base)
                beta.append(b)
            unpacked[tuple(beta)] = coefs
        found.append(unpacked)
    return found


def _exact_div(x, d):
    quo, rem = divmod(x, d)
    if rem:
        raise GermError("inexact division in the prepared form")
    return quo


def _read_prepared(n, top, d, adj, first, rest):
    """(curve, transverse) from the substituted components: ``first`` is f1,
    {beta: series in u to degree ``top``}, and ``rest`` the rows of f', to
    degree top - 1 (see ``_substitute``); L = d'f'(0) has determinant
    d > 0 and adjugate ``adj``."""
    m1 = n - 1
    units = [tuple(int(i == k) for i in range(m1)) for k in range(m1)]
    # the powers Gamma^beta of the curve for every beta read and every
    # beta below one (the derivatives read Gamma^(beta - e_k)), all 0 for
    # now: Gamma = O(u^2) is found one degree at a time below
    powers = {(0,) * m1: [1] + [0] * top}
    stack = units + [beta for h in [first] + rest for beta in h]
    while stack:
        beta = stack.pop()
        if beta not in powers:
            powers[beta] = [0] * (top + 1)
            stack.extend(_lower(beta, k) for k, b in enumerate(beta) if b)
    # Gamma^beta = Gamma^(beta - e_k) Gamma_k, k the first place of beta
    products = []
    for beta, series in powers.items():
        size = sum(beta)
        if size >= 2:
            k = next(k for k, b in enumerate(beta) if b)
            products.append((series, 2 * (size - 1), powers[_lower(beta, k)],
                             powers[units[k]]))
    gamma = [powers[e] for e in units]
    # At degree m, Gamma^beta with |beta| >= 2 reads Gamma below degree
    # m - 1, and so does f1(d u, Gamma), which has no linear part;
    # f'(d u, Gamma) reads Gamma[m] only through L Gamma[m], left out
    # while Gamma[m] is still 0; so Gamma[m] = -L^-1 residual.
    curve = [0, 0]
    for m in range(2, top + 1):
        for series, low, below, gk in products:
            series[m] = sum(below[b] * gk[m - b] for b in range(low, m - 1))
        curve.append(sum(c * powers[beta][m - a] for beta, s in first.items()
                         for a, c in enumerate(s[:m + 1]) if c))
        if curve[m] or m == top:
            break
        residual = [sum(c * powers[beta][m - a] for beta, s in h.items()
                        for a, c in enumerate(s[:m + 1]) if c)
                    for h in rest]
        for k in range(m1):
            gamma[k][m] = _exact_div(
                -sum(x * r for x, r in zip(adj[k], residual)), d)
    # The routes read the gradient rows d(eta^j lambda)(0) for
    # j < min(k, n) - 1 (the plane route row 0 at k = 3 > n = 2), so the
    # transverse row to degree min(k, n) - 1; with no k, none of them.
    cap = min(m - 1, n) - 1 if curve[m] else 0
    # R = df1/dy' on the curve mod u^(cap+1), and L + M = df'/dy' on it
    # mod u^cap; every coefficient of M is a multiple of d.  The
    # transverse row B solves B (L + M) = d R one degree at a time:
    # B[m] = (R[m] - sum_c B[m-c] M[c] / d) adj, which reads M[c] for
    # c < m only.
    R = _gradient_on_curve(first, powers, m1, cap)
    rows = [_gradient_on_curve(h, powers, m1, cap - 1) for h in rest]
    M = [None] + [[[_exact_div(g[c], d) for g in row] for row in rows]
                  for c in range(1, cap)]
    transverse = [[0] * m1]
    for m in range(1, cap + 1):
        x = [R[k][m] for k in range(m1)]
        for c in range(1, m):
            prev = transverse[m - c]
            for k in range(m1):
                x[k] -= sum(prev[r] * M[c][r][k] for r in range(m1))
        transverse.append([sum(x[k] * adj[k][r] for k in range(m1))
                           for r in range(m1)])
    return curve, transverse


def _lower(beta, k):
    """beta - e_k."""
    return beta[:k] + (beta[k] - 1,) + beta[k + 1:]


def _series_mul(a, b, cap):
    """The product of two univariate series (coefficient lists, index =
    degree) truncated at degree ``cap``: terms above it are never formed."""
    out = [0] * (cap + 1)
    for i, x in enumerate(a[:cap + 1]):
        if x:
            for j, y in enumerate(b[:cap + 1 - i], i):
                if y:
                    out[j] += x * y
    return out


def _gradient_on_curve(h, powers, m1, cap):
    """[dh/dy'_k at y' = Gamma(u), mod u^(cap+1), for each k]."""
    out = [[0] * (cap + 1) for _ in range(m1)]
    for beta, s in h.items():
        for k, b in enumerate(beta):
            if b:
                acc = out[k]
                for a, c in enumerate(_series_mul(s, powers[_lower(beta, k)],
                                                  cap)):
                    acc[a] += b * c
    return out


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
    fields, lists of ints: the primitive integer vectors of
    ``integer_kernel``, positive multiples of the RREF nullspace
    vectors."""
    ana = analysis or analyze(f)
    if ana.corank0 != 2:
        raise GermError("corank at 0 must be 2, got %d" % ana.corank0)
    J0 = ana.jacobian.eval(f.origin())
    basis = integer_kernel([clear_denominators(row) for row in J0])[1]
    return basis[0], basis[1]


def classify_sigma20(f):
    """``sigma20.classify_sigma20`` on the cofactor layer: lambda of f
    from ``analyze`` (one adjugate column, to degree 4), g = B o f as
    Polys with the analysis derived from f's (J_g = B J_f, so lambda_g is
    det B times lambda_f), and the criteria as second derivatives along
    the constant fields of ``kernel_frame``."""
    ana_f = analyze(f)
    g, B = target_normalize(f, ana_f)
    det_b = integer_adjugate(B)[0]
    ana = GermAnalysis(jacobian(g), ana_f.lam.scale(det_b), ana_f.rank0)
    xi, eta = kernel_frame(g, ana)
    lam = ana.lam
    origin = g.origin()
    h11 = dir_deriv(dir_deriv(lam, xi), xi).eval(origin)
    h12 = dir_deriv(dir_deriv(lam, eta), xi).eval(origin)
    h21 = dir_deriv(dir_deriv(lam, xi), eta).eval(origin)
    h22 = dir_deriv(dir_deriv(lam, eta), eta).eval(origin)
    hess_det = h11 * h22 - h12 * h21
    if hess_det == 0:
        raise DegenerateSigmaError("det hess lambda(0) = 0: degenerate germ")
    grads = []
    for field in (xi, eta):
        for comp in g.components[:2]:
            grads.append(gradient_at(dir_deriv(comp, field), origin))
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
    (R^2,0) -> (R^3,0), with the given constant fields (pairs of
    rationals) or else the deterministic constant frame (rank and kernel
    from ``analyze``).  Returns (w, xi, eta)."""
    if f.src_dim != 2 or f.tgt_dim != 3:
        raise GermError("needs a germ (R^2,0) -> (R^3,0)")
    if eta is None:
        ana = analyze(f)
        if ana.rank0 != 1:
            raise NotCorankOneError("not corank one at 0 (rank %d)" % ana.rank0)
        J0 = ana.jacobian.eval(f.origin())
        eta = integer_kernel([clear_denominators(r) for r in J0])[1][0]
        # deterministic direction: first nonzero entry positive
        lead = next(v for v in eta if v != 0)
        if lead < 0:
            eta = [-v for v in eta]
    if xi is None:
        a, b = eta
        xi = [-b, a]
    cols = []
    for field in (xi, eta):
        cols.append([dir_deriv(c, field) for c in f.components])
    cols.append([dir_deriv(g, eta) for g in cols[1]])  # eta eta f
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
    if any(v != 0 for v in gradient_at(w, origin)):
        return ClassLabel("whitney-umbrella",
                          normal_form=_surface_normal_form("whitney-umbrella"))
    (a, b), (c, d) = [[w.partial(i).partial(j).eval(origin) for j in (1, 2)]
                      for i in (1, 2)]
    det_h = a * d - b * c
    eew0 = dir_deriv(dir_deriv(w, eta), eta).eval(origin)
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
    eta = eta or null_field(f)
    lam = ana.lam
    origin = f.origin()
    dlam0 = gradient_at(lam, origin)
    eel = dir_deriv(dir_deriv(lam, eta), eta)
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
    el0 = dir_deriv(lam, eta).eval(origin)
    eeel0 = dir_deriv(eel, eta).eval(origin)
    if el0 == 0 and eel0 == 0 and eeel0 != 0:
        a, b = [c.constant_term() for c in eta]
        eps = _sign(dir_deriv(lam, [-b, a]).eval(origin) * eeel0)
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


# ---- reference curve and criteria: the symbolic elimination -------------
#
# The derivation the lab ran once per (family, n[, l]) before it read its
# curve and criteria as printed rows (``CRITERIA_FORMULAS``): back
# substitution of lambda = ... = eta^{n-1} lambda = 0 with the parameters
# symbolic, the check that the curve satisfies the equations, and the
# criteria restricted to the curve, det grad by ``jet_det_reference``.

def jet_det_reference(rows, cap):
    """det of a square matrix of jets ({exponent: any exact rational})
    mod m^(cap+1), expanded along the first row: each nonzero entry meets
    its minor, already mod m^(cap+1), so no term of degree above ``cap``
    is formed.  It works on exponent dicts and shares no code with the
    dense kernel of ``germ``, which the tests check against it."""
    if len(rows) == 1:
        return {e: c for e, c in rows[0][0].items() if sum(e) <= cap}
    out = {}
    for j, entry in enumerate(rows[0]):
        if not entry:
            continue
        minor = jet_det_reference([row[:j] + row[j + 1:] for row in rows[1:]],
                                  cap)
        for e1, c1 in entry.items():
            for e2, c2 in minor.items():
                if sum(e1) + sum(e2) <= cap:
                    e = tuple(map(sum, zip(e1, e2)))
                    out[e] = out.get(e, 0) + (-1) ** j * c1 * c2
    return out


def _lambda_chain(q, n):
    """lambda = q_t and its t-derivatives up to order n (eta = d/dt)."""
    chain = [q.partial(1)]
    for _ in range(n):
        chain.append(chain[-1].partial(1))
    return chain


@cache
def eliminate_curve(family, n):
    """Back-substitute the system lambda = ... = eta^{n-1} lambda = 0 of
    family B or C with its parameters kept symbolic.

    Returns (coords, constraint), both in the variables (t, u0[, u1]):
    ``coords`` is the tuple of solutions x2(t, u), ..., xn(t, u), and
    ``constraint`` the single remaining equation.  Only families B and C
    have this one-curve structure."""
    if family == "A":
        raise GermError("family A points are not a one-parameter curve")
    q = _q(family, n, None)
    reps = [Poly.var(i, q.nvars) for i in range(1, q.nvars + 1)]
    constraint = None
    for eq in reversed(_lambda_chain(q, n - 1)):
        e = eq.subs(reps)
        present = [j for j in range(2, n + 1) if e.degree_in(j) > 0]
        if not present:
            if not e.is_zero():
                if constraint is not None:
                    raise GermError("elimination produced two constraints")
                constraint = e
            continue
        if len(present) != 1:
            raise GermError("equation involves several unknowns: %s" % present)
        j = present[0]
        reps[j - 1] = _solve_linear(e, j, "x%d" % j)
    if constraint is None:
        raise GermError("elimination produced no constraint")
    return (tuple(_drop_x_vars(x, n) for x in reps[1:n]),
            _drop_x_vars(constraint, n))


def _solve_linear(e, i, name):
    """The solution x_i = -b/a of e = a*x_i + b = 0 (i is 1-based), where
    a must be a nonzero constant."""
    if e.degree_in(i) != 1:
        raise GermError("equation not linear in %s" % name)
    a = e.partial(i)
    if not a.is_constant():
        raise GermError("coefficient of %s is not constant" % name)
    b = Poly(e.nvars, {expo: coef for expo, coef in e.terms.items()
                       if expo[i - 1] == 0})
    return b.scale(Fraction(-1) / a.constant_term())


def _drop_x_vars(p, n):
    """Re-express a Poly in (t, x2..xn, u...) that does not involve the
    x's as a Poly in (t, u...)."""
    out = {}
    for expo, coef in p.terms.items():
        assert all(e == 0 for e in expo[1:n]), "polynomial still involves x's"
        out[(expo[0],) + expo[n:]] = coef
    return Poly(p.nvars - n + 1, out)


def family_a_curve(n, l):
    """(sigma, constraint) of family A in (s, u0, ..., u_{l-2}): the
    curve t = x2 = ... = x_{n-1} = 0, xn = s, and qbar(s, u)."""
    s = Poly.var(1, l)
    qbar = s ** l
    for i in range(l - 1):
        qbar = qbar + Poly.var(i + 2, l) * s ** i
    return (Poly.zero(l),) * (n - 1) + (s,), qbar


def _vanishing_on_curve(on_curve, constraint):
    """True when every Poly of ``on_curve`` is 0 or a rational constant
    times ``constraint``: an identity in Q[t, u], so the curve satisfies
    the equations at every parameter value."""
    lead = max(constraint.terms)
    return all(p == constraint.scale(p.terms.get(lead, 0) /
                                     constraint.terms[lead])
               for p in on_curve)


@cache
def curve_criteria_reference(family, n, l):
    """The library's ``curve_criteria`` tuple (sigma, constraint, etak,
    detgrad, row), derived: the curve by ``eliminate_curve`` (or
    ``family_a_curve``), checked to satisfy the equations
    (``_vanishing_on_curve``), and eta^n lambda and det grad restricted
    to it.  The inv row is the library's, read from its printed text."""
    if family == "A":
        sigma, constraint = family_a_curve(n, l)
    else:
        coords, constraint = eliminate_curve(family, n)
        sigma = (Poly.var(1, constraint.nvars),) + coords
    m = constraint.nvars
    chain = _lambda_chain(_q(family, n, l), n)
    # x_i -> sigma_i, and the parameters stay themselves
    reps = list(sigma) + [Poly.var(i, m) for i in range(2, m + 1)]
    if not _vanishing_on_curve([p.subs(reps) for p in chain[:n]], constraint):
        raise GermError("internal error: curve does not satisfy the equations")
    # restricting each entry first gives the same determinant, smaller
    grad = [[chain[j].partial(i).subs(reps).terms for i in range(1, n + 1)]
            for j in range(n)]
    # no product in the expansion has a degree above the sum of each
    # row's largest entry degree, so the cap truncates nothing
    whole = sum(max((sum(e) for entry in row for e in entry), default=0)
                for row in grad)
    criteria = (constraint, chain[n].subs(reps),
                Poly(m, jet_det_reference(grad, whole)))
    return (sigma, *map(_integer_terms, criteria),
            tuple(map(_integer_terms, _inv_row(family, n, l))))


# ---- reference Morin-point enumeration -----------------------------------

def translate(f, p):
    """g(x) = f(x + p) - f(p), by ``Poly.subs`` of x_i + p_i for every
    x_i: the MapGerm constructor drops the constant terms f(p)."""
    n = f.src_dim
    if len(p) != n:
        raise DimensionError("translation point has wrong length")
    p = [rat(v) for v in p]
    reps = [Poly.var(i, n) + Poly.const(p[i - 1], n) for i in range(1, n + 1)]
    return MapGerm([c.subs(reps) for c in f.components], src_dim=n)


def build_unfolding(spec):
    """F_u = (q(t, x, u), x2, ..., xn), the parameter values put into the
    library's cached q by ``Poly.subs``."""
    n = spec.n
    xs = [Poly.var(i, n) for i in range(1, n + 1)]
    q = _q(spec.family, n, spec.l).subs(
        xs + [Poly.const(v, n) for v in spec.u])
    return MapGerm([q] + xs[1:], src_dim=n)


def poly_to_coeffs(p):
    """Univariate Poly (nvars == 1) -> coefficient list."""
    if p.nvars != 1:
        raise GermError("expected a univariate polynomial")
    out = [Fraction(0)] * (p.total_degree() + 1 if p.terms else 0)
    for (e,), coef in p.terms.items():
        out[e] = coef
    return up_trim(out)


def q_poly(family, n, l, u):
    """The first unfolding component q in the variables (x1=t, x2..xn,
    then any symbolic parameters), by Poly arithmetic; ``u`` holds one
    Poly per parameter, all in those variables.  The library reads q from
    its printed rows instead."""
    nvars = u[0].nvars
    t = Poly.var(1, nvars)
    xs = [None] + [Poly.var(i, nvars) for i in range(1, nvars + 1)]
    if family == "A":
        xn = xs[n]
        qbar = xn ** l + u[0]
        for i in range(1, l - 1):
            qbar = qbar + u[i] * xn ** i
        q = t ** (n + 1) + qbar * t ** (n - 1)
        for i in range(2, n):
            q = q + xs[i] * t ** (i - 1)
        return q
    if family == "B":
        q = t ** (n + 2) + u[0] * t ** n
        for i in range(2, n + 1):
            q = q + xs[i] * t ** (i - 1)
        return q
    # family C
    xn = xs[n]
    P = xn ** 2 + u[0] + u[1] * xn
    q = t ** (n + 2) + P * t ** (n - 1) + xn * t ** n
    for i in range(2, n):
        q = q + xs[i] * t ** (i - 1)
    return q


def _curve_data(spec):
    """(sigma, constraint coefficients) with the parameters substituted
    into the cached symbolic curve by ``Poly.subs``."""
    n = spec.n
    if spec.family == "A":
        # t = x2 = ... = x_{n-1} = 0, xn = s (the qbar root parameter)
        sigma = [Poly.zero(1)] * (n - 1) + [Poly.var(1, 1)]
        return sigma, qbar_coeffs(spec.l, spec.u)
    coords, constraint = eliminate_curve(spec.family, n)
    t = Poly.var(1, 1)
    reps = [t] + [Poly.const(v, 1) for v in spec.u]
    sigma = [t] + [x.subs(reps) for x in coords]
    return sigma, poly_to_coeffs(constraint.subs(reps))


def qbar_coeffs(l, u):
    """qbar(s) = s^l + u0 + u1 s + ... + u_{l-2} s^{l-2} as a coefficient
    list."""
    c = [Fraction(0)] * (l + 1)
    c[l] = Fraction(1)
    for i, ui in enumerate(u):
        c[i] += rat(ui)
    return up_trim(c)


def table_invariant_reference(spec, root, constraint):
    """The invariant tuple of the published inv rows at a root of the
    square-free ``constraint``, one hand-coded branch per (family, n).
    The n = 4 pairs of families A and B have their second slot negated,
    as the library's ``table_invariant`` documents."""
    n = spec.n
    kind = invariant_kind(n, n)

    def s(coeffs):
        return sign_at_root(coeffs, constraint, root)

    if spec.family == "A":
        dqbar = up_deriv(qbar_coeffs(spec.l, spec.u))
        if n == 2:
            return (kind, 1)
        if n == 4:
            return (kind, (1, -s(dqbar)))
        return (kind, s(dqbar))
    t = [Fraction(0), Fraction(1)]
    if spec.family == "B":
        if n == 3:
            return (kind, s([Fraction(0), Fraction(0), Fraction(1)]))
        if n == 4:
            st = s(t)
            return (kind, (st, -st))
        return (kind, s(t))
    u1 = spec.u[1]
    if n == 2:
        return (kind, s(t))
    if n == 3:
        return (kind, s([u1, Fraction(3), Fraction(-20)]))
    if n == 4:
        return (kind, (s(t), s([Fraction(0), -u1, Fraction(-4),
                                Fraction(30)])))
    return (kind, s([Fraction(0), u1, Fraction(5), Fraction(-42)]))


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
    q = q_poly(spec.family, n, spec.l, [Poly.const(v, n) for v in spec.u])
    F = MapGerm([q] + [Poly.var(i, n) for i in range(2, n + 1)], src_dim=n)
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
    for root in roots:
        is_exact = not isinstance(root, tuple)
        inv = _classifier_invariant_on_curve(
            n, criteria,
            lambda g: sign_at_root(g, remaining, root))
        if inv is None:
            stable = False
            notes.append("degenerate point (a criterion quantity vanishes)")
            continue
        tbl = table_invariant_reference(spec, root, remaining)
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
