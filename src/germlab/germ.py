"""Map-germ container and the shared geometric primitives:
Jacobian, the prepared form (the one integer reading of a germ that
every classify route reads, kept on the germ), integer jets, lambda
(= det Jacobian) and the null vector field eta from one adjugate
column, and point translation.

The values eta^j lambda(0) for j <= jet_degree(n) and the gradients at 0
of eta^j lambda for j < n are coefficients of the prepared form
(``prepared_form``), computed on integer series.  No classifier route
calls ``analyze`` or ``null_field``: they keep lambda mod m^(D+1) and eta
mod m^D, D = jet_degree(n), for the test references.
"""

from fractions import Fraction
from math import comb, factorial

from .polyring import (Poly, PolyMatrix, DimensionError, _Frozen, dir_deriv,
                       rat, _sum_of_products, clear_denominators,
                       integer_adjugate, integer_kernel, _series_mul)


def jet_degree(n):
    """D = max(n, 3): the Morin criteria read eta^j lambda(0) for j <= n,
    the planar-swallowtail criterion eta^3 lambda(0).  The prepared form
    reads g(u, 0) to degree D + 1; ``analyze`` keeps lambda mod m^(D+1)
    and eta mod m^D."""
    return max(n, 3)


class GermError(Exception):
    """Base class for classification-level errors."""


class NotCorankOneError(GermError):
    """The construction needs corank exactly one at the origin."""


class DegenerateGermError(GermError):
    """The germ fails the non-degeneracy (rank) part of the criteria."""


class VecField(_Frozen):
    """A polynomial vector field, e.g. the null field eta or the frame
    partner xi.  Components are Polys in the source variables."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if comps:
            nv = comps[0].nvars
            for c in comps:
                if c.nvars != nv:
                    raise DimensionError("vector field components disagree on nvars")
        object.__setattr__(self, "components", comps)

    @classmethod
    def constant(cls, values, nvars):
        return cls([Poly.const(v, nvars) for v in values])

    def __neg__(self):
        return VecField([-c for c in self.components])

    def scale(self, c):
        return VecField([comp.scale(c) for comp in self.components])

    def at_zero(self):
        n = len(self.components)
        origin = [Fraction(0)] * (self.components[0].nvars if n else 0)
        return [c.eval(origin) for c in self.components]

    def apply(self, p, cap=None):
        """Directional derivative of p along this field, truncated at
        degree ``cap`` when one is given."""
        return dir_deriv(p, self, cap)

    def __eq__(self, other):
        if not isinstance(other, VecField):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return "VecField(%r)" % (list(self.components),)


class MapGerm(_Frozen):
    """A polynomial map-germ (R^n, 0) -> (R^m, 0).

    The germ condition f(0) = 0 is enforced at construction: any constant
    terms are dropped (``translate`` relies on this).  ``prepared_form``
    writes the PreparedForm into the slot ``_prepared`` once.
    """

    __slots__ = ("src_dim", "tgt_dim", "components", "_prepared")

    def __init__(self, components, src_dim=None):
        comps = list(components)
        if not comps:
            raise DimensionError("a map-germ needs at least one component")
        n = comps[0].nvars if src_dim is None else src_dim
        fixed = []
        for c in comps:
            if c.nvars != n:
                raise DimensionError("component has %d variables, expected %d"
                                     % (c.nvars, n))
            ct = c.constant_term()
            if ct != 0:
                c = c - Poly.const(ct, n)
            fixed.append(c)
        object.__setattr__(self, "src_dim", n)
        object.__setattr__(self, "tgt_dim", len(fixed))
        object.__setattr__(self, "components", tuple(fixed))

    def __eq__(self, other):
        if not isinstance(other, MapGerm):
            return NotImplemented
        return (self.src_dim == other.src_dim and
                self.components == other.components)

    def __hash__(self):
        return hash((self.src_dim, self.components))

    def __repr__(self):
        return "MapGerm(%s)" % "; ".join(c.render() for c in self.components)

    def origin(self):
        return [Fraction(0)] * self.src_dim


class GermAnalysis(_Frozen):
    """Exact Jacobian and rank data at 0.  ``lam`` is the jet of
    lambda = det J at degree D = jet_degree(n), i.e. det J mod m^(D+1)
    (None when n != m); ``eta`` is null_field's eta (else None)."""

    __slots__ = ("germ", "jacobian", "lam", "rank0", "corank0", "eta")

    def __init__(self, germ, jacobian, lam, rank0, eta=None):
        object.__setattr__(self, "germ", germ)
        object.__setattr__(self, "jacobian", jacobian)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "rank0", rank0)
        object.__setattr__(self, "corank0", germ.src_dim - rank0)
        object.__setattr__(self, "eta", eta)


def jacobian(f):
    """m x n PolyMatrix of partial derivatives."""
    ents = []
    for comp in f.components:
        for i in range(1, f.src_dim + 1):
            ents.append(comp.partial(i))
    return PolyMatrix(f.tgt_dim, f.src_dim, ents)


def analyze(f):
    """Exact Jacobian, rank of df(0) and, when n = m, lambda and (at
    corank one) eta from one column j of adj(J): lambda is the Laplace
    expansion along row j, eta the column mod m^D.  At corank one j is the
    first row of J(0) whose removal leaves rank n - 1, the first nonzero
    entry of the left kernel vector; else j = 0.  The expansion reaches
    up to 2^(n-1) minors; no classifier route calls it, the test
    references do."""
    n = f.src_dim
    J = jacobian(f)
    J0 = [clear_denominators(row) for row in J.eval(f.origin())]
    rank0 = integer_kernel(J0)[0]
    lam = eta = None
    if n == f.tgt_dim:
        D = jet_degree(n)
        j = 0
        if rank0 == n - 1:
            w = integer_kernel(list(zip(*J0)))[1][0]
            j = next(i for i, x in enumerate(w) if x)
        col = J.adjugate_column(j, D)
        lam = _sum_of_products(n, list(zip(J.row(j), col)), D)
        if rank0 == n - 1:
            eta = VecField(c.truncate(D - 1) for c in col)
    return GermAnalysis(f, J, lam, rank0, eta)


def null_field(f, analysis=None):
    """Null vector field for an equidimensional corank-one germ: the
    adjugate column j of the Jacobian that ``analyze`` expands for lambda,
    kept mod m^D.  Column j of adj(J)(0) = adj(J(0)) holds the maximal
    minors of J(0) without row j, so it is nonzero, and J * eta =
    lambda * e_j mod m^D: eta(0) != 0 lies in ker df(0), and eta is exact
    wherever the classifiers read it."""
    if f.src_dim != f.tgt_dim:
        raise NotCorankOneError("null field needs an equidimensional germ")
    ana = analysis or analyze(f)
    if ana.corank0 != 1:
        raise NotCorankOneError("not corank one at 0 (corank %d)" % ana.corank0)
    return ana.eta


class PreparedForm(_Frozen):
    """The one integer reading of a germ, which every classify route reads.
    ``comps`` holds each component of f times the lcm of its denominators
    (a target change that keeps the orientation) as {exponent: int}, and
    J0 their linear coefficients; ``corank`` is n - rank J0, ``kernel``
    the ``integer_kernel`` basis of J0 and, for a square germ of corank
    one or two, ``left`` that of its transpose (else None).

    At corank one there are orientation-preserving changes of source
    coordinates (u, z_2, ..., z_n) and of target coordinates in which the
    square germ is (g, z_2, ..., z_n).  There eta = d/du is a null field
    and lambda = dg/du, so the Morin criteria read only the coefficients
    of u^a and of u^a z_i in g.  ``curve[a]`` is the integer coefficient
    of u^a in g for a <= max(n + 1, 4), and ``transverse[a][i]`` that of
    u^a z_(i+2) for a <= n.  Otherwise, or if n != m, both are None.
    """

    __slots__ = ("corank", "comps", "kernel", "left", "curve", "transverse")

    def __init__(self, corank, comps, kernel, left=None, curve=None,
                 transverse=None):
        object.__setattr__(self, "corank", corank)
        object.__setattr__(self, "comps", comps)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "transverse", transverse)

    def chain_value(self, j):
        """eta^j lambda(0) = (j+1)! * curve[j+1]."""
        return factorial(j + 1) * self.curve[j + 1]

    def chain_gradient(self, j):
        """d(eta^j lambda)(0) in the coordinates (u, z_2, ..., z_n):
        [(j+2)! curve[j+2], (j+1)! transverse[j+1][i] ...]."""
        f = factorial(j + 1)
        return [(j + 2) * f * self.curve[j + 2]] + \
            [f * b for b in self.transverse[j + 1]]


def _jet_deriv(jet, v, cap):
    """The derivative along the integer vector v of the integer jet
    ``jet`` ({exponent: int}) mod m^(cap+2), taken mod m^(cap+1)."""
    out = {}
    for e, c in jet.items():
        for i, (vi, ei) in enumerate(zip(v, e)):
            if vi and ei and sum(e) <= cap + 1:
                low = e[:i] + (ei - 1,) + e[i + 1:]
                out[low] = out.get(low, 0) + vi * ei * c
    return out


def _jet_det(rows, cap):
    """det mod m^(cap+1) of a square matrix of integer jets, expanded along
    the first row: each entry meets its minor, already mod m^(cap+1), and
    no term of degree above ``cap`` is formed."""
    if len(rows) == 1:
        return {e: c for e, c in rows[0][0].items() if sum(e) <= cap}
    out = {}
    for j, entry in enumerate(rows[0]):
        minor = _jet_det([row[:j] + row[j + 1:] for row in rows[1:]], cap)
        for e1, c1 in entry.items():
            for e2, c2 in minor.items():
                if sum(e1) + sum(e2) <= cap:
                    e = tuple(map(sum, zip(e1, e2)))
                    out[e] = out.get(e, 0) + (-1) ** j * c1 * c2
    return out


def prepared_form(f):
    """``_prepare(f)``, built on first use and kept on f: a MapGerm is
    immutable, so the form it keeps cannot go stale."""
    if getattr(f, "_prepared", None) is None:
        object.__setattr__(f, "_prepared", _prepare(f))
    return f._prepared


def _prepare(f):
    """The PreparedForm of f, on integers only, read no further than the
    kernels when n != m or the corank is not one.

    At corank one, v = kernel[0] spans ker df(0) and w = left[0] its left
    kernel; P = [v | e_j, j != p] and T = [w; e_i, i != q] put f in the
    shape T f(P y) = (f1, f'), where df1(0) = 0 and d'f'(0) = (0 | L).
    One complement column of P is negated if det L < 0, and then v or w,
    so that det P, det T and d = det L are positive.  L is eliminated once:
    the negated column takes d to -d and negates every row of adj L but
    the first.  With y1 = d u every coefficient below stays an integer:
      * the curve y' = Gamma(u) with f'(d u, Gamma(u)) = 0 mod u^t, t =
        jet_degree(n) + 1 = max(n + 1, 4), solved one degree per step with
        the constant matrix L;
      * g(u, 0) = f1(d u, Gamma(u)) mod u^(t+1);
      * the transverse row d * df1/dy' (df'/dy')^-1 at (d u, Gamma(u))
        mod u^(n+1), the derivative of g along z' = d * zeta'.
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
    series = [_substitute(c, n, top, p, [x * d for x in v], signs)
              for c in comps]
    first = {}
    for wi, h in zip(w, series):
        if wi:
            for beta, coefs in h.items():
                acc = first.setdefault(beta, [0] * (top + 1))
                for a, c in enumerate(coefs):
                    acc[a] += wi * c
    curve, transverse = _read_prepared(n, top, d, adj, first,
                                       [series[i] for i in rows])
    return PreparedForm(1, comps, kernel, left, curve, transverse)


def _substitute(terms, n, top, p, a, signs):
    """{beta: [coefficient of u^m y'^beta, m = 0..top]} for the integer
    polynomial ``terms`` at x_j = a_j u + signs_k y'_k (k the place of j
    among the coordinates other than p) and x_p = a_p u.  The curve has
    y' = O(u^2), so a term u^m y'^beta enters the coefficients read at
    degree m + 2|beta|; only terms with m + 2|beta| <= max(n + 2, top)
    are formed."""
    place = {j: k for k, j in enumerate(j for j in range(n) if j != p)}
    weight = max(n + 2, top)
    base = weight + 1
    expansions = {}
    out = {}
    for alpha, coef in terms.items():
        deg = sum(alpha)
        if deg > top:
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
                    table = [(b, comb(e, b) * a[j] ** (e - b) * signs[k] ** b,
                              b * base ** k)
                             for b in range(e + 1) if a[j] or b == e]
                expansions[(j, e)] = table
            partial = [(c * t, size + b, key + packed)
                       for c, size, key in partial
                       for b, t, packed in table if size + b <= room]
        for c, size, key in partial:
            coefs = out.get(key)
            if coefs is None:
                coefs = out[key] = [0] * (top + 1)
            coefs[deg - size] += c
    unpacked = {}
    for key, coefs in out.items():
        beta = []
        for _ in range(n - 1):
            key, b = divmod(key, base)
            beta.append(b)
        unpacked[tuple(beta)] = coefs
    return unpacked


def _exact_div(x, d):
    quo, rem = divmod(x, d)
    if rem:
        raise GermError("inexact division in the prepared form")
    return quo


def _read_prepared(n, top, d, adj, first, rest):
    """(curve, transverse) from the substituted components: ``first`` is f1
    and ``rest`` the rows of f', each {beta: series in u to degree
    ``top``} (see ``_substitute``); L = d'f'(0) has determinant d > 0 and
    adjugate ``adj``."""
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
    # m - 1, and f'(d u, Gamma) reads Gamma[m] only through L Gamma[m],
    # left out while Gamma[m] is still 0; so Gamma[m] = -L^-1 residual.
    for m in range(2, top + 1):
        for series, low, below, gk in products:
            series[m] = sum(below[b] * gk[m - b] for b in range(low, m - 1))
        if m == top:
            break
        residual = [sum(c * powers[beta][m - a] for beta, s in h.items()
                        for a, c in enumerate(s[:m + 1]) if c)
                    for h in rest]
        for k in range(m1):
            gamma[k][m] = _exact_div(
                -sum(x * r for x, r in zip(adj[k], residual)), d)
    curve = [0] * (top + 1)
    for beta, s in first.items():
        for a, c in enumerate(_series_mul(s, powers[beta], top)):
            curve[a] += c
    # R = df1/dy' and L + M = df'/dy' on the curve, mod u^(n+1); every
    # coefficient of M is a multiple of d.  The transverse row B solves
    # B (L + M) = d R one degree at a time: B[m] = (R[m] - sum_c B[m-c]
    # M[c] / d) adj.
    R = _gradient_on_curve(first, powers, m1, n)
    rows = [_gradient_on_curve(h, powers, m1, n) for h in rest]
    M = [None] + [[[_exact_div(g[c], d) for g in row] for row in rows]
                  for c in range(1, n + 1)]
    transverse = [[0] * m1]
    for m in range(1, n + 1):
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


def translate(f, p):
    """g(x) = f(x + p) - f(p): re-center the germ at the point p."""
    n = f.src_dim
    if len(p) != n:
        raise DimensionError("translation point has wrong length")
    p = [rat(v) for v in p]
    reps = [Poly.var(i, n) + Poly.const(p[i - 1], n) for i in range(1, n + 1)]
    # the MapGerm constructor subtracts f(p) (the constant terms)
    shifted = [c.subs(reps) for c in f.components]
    return MapGerm(shifted, src_dim=n)
