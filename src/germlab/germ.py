"""Map-germ container and the shared geometric primitives:
Jacobian, the prepared form (the one integer reading of a germ that
every classify route reads, kept on the germ), lambda (= det Jacobian)
and the null vector field eta from one adjugate column, and point
translation.

The plane, surface and corank-two routes read the prepared form's
integer components as dense jets, lists of ints over the monomials of
degree <= cap of a ``jet_table`` (n <= 4, cap <= 3), with ``jet_deriv``
and ``jet_det``; the Morin route reads the sparse prepared form.

The values eta^j lambda(0) up to the first that is not 0 (at most
j = jet_degree(n)) and the gradients at 0 of eta^j lambda below it are
coefficients of the prepared form (``prepared_form``), computed on
integer series.  No classifier route calls ``analyze`` or
``null_field``: they keep lambda mod m^(D+1) and eta mod m^D,
D = jet_degree(n), for the test references.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb, factorial, lcm, prod
from operator import add, mul

from .polyring import (Poly, PolyMatrix, DimensionError, _Frozen, rat,
                       _sum_of_products, clear_denominators,
                       integer_adjugate, integer_kernel)


def jet_degree(n):
    """D = max(n, 3): the Morin criteria read eta^j lambda(0) for j <= n,
    the planar-swallowtail criterion eta^3 lambda(0).  The prepared form
    reads g(u, 0) to degree D + 1 at most; ``analyze`` keeps lambda mod
    m^(D+1) and eta mod m^D."""
    return max(n, 3)


class GermError(Exception):
    """Base class for classification-level errors."""


class NotCorankOneError(GermError):
    """The construction needs corank exactly one at the origin."""


class DegenerateGermError(GermError):
    """The germ fails the non-degeneracy (rank) part of the criteria."""


class MapGerm(_Frozen):
    """A polynomial map-germ (R^n, 0) -> (R^m, 0).

    The germ condition f(0) = 0 is enforced at construction: any constant
    terms are dropped.  ``prepared_form`` writes the PreparedForm into the
    slot ``_prepared`` once, and ``__hash__`` its value into ``_hash``.
    """

    __slots__ = ("src_dim", "tgt_dim", "components", "_prepared", "_hash")

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
        _Frozen.__init__(self, n, len(fixed), tuple(fixed))

    def __eq__(self, other):
        if not isinstance(other, MapGerm):
            return NotImplemented
        return (self.src_dim == other.src_dim and
                self.components == other.components)

    def __hash__(self):
        return self._once("_hash", hash, (self.src_dim, self.components))

    def __repr__(self):
        return "MapGerm(%s)" % "; ".join(c.render() for c in self.components)

    def origin(self):
        return [Fraction(0)] * self.src_dim


class GermAnalysis(_Frozen):
    """Exact Jacobian and rank data at 0.  ``lam`` is the jet of
    lambda = det J at degree D = jet_degree(n), i.e. det J mod m^(D+1)
    (None when n != m); ``eta`` is null_field's eta, a tuple of Polys
    (else None)."""

    __slots__ = ("jacobian", "lam", "rank0", "corank0", "eta")

    def __init__(self, jacobian, lam, rank0, eta=None):
        _Frozen.__init__(self, jacobian, lam, rank0, jacobian.cols - rank0,
                         eta)


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
            eta = tuple(c.truncate(D - 1) for c in col)
    return GermAnalysis(J, lam, rank0, eta)


def null_field(f):
    """Null vector field for an equidimensional corank-one germ, a tuple
    of Polys: the adjugate column j of the Jacobian that ``analyze``
    expands for lambda, kept mod m^D.  Column j of adj(J)(0) = adj(J(0))
    holds the maximal minors of J(0) without row j, so it is nonzero, and
    J * eta = lambda * e_j mod m^D: eta(0) != 0 lies in ker df(0), and eta
    is exact wherever the classifiers read it."""
    if f.src_dim != f.tgt_dim:
        raise NotCorankOneError("null field needs an equidimensional germ")
    ana = analyze(f)
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
    of u^a in g, read up to the first a >= 2 with curve[a] != 0, which is
    a = k + 1 for the k with eta^k lambda(0) != 0 = eta^j lambda(0), j < k,
    or else up to max(n + 1, 4).  ``transverse[a][i]`` is that of
    u^a z_(i+2), read for a <= min(k, n) - 1 (only a = 0, a row of zeros,
    when no k was found).  Otherwise, or if n != m, both are None.  So
    eta^j lambda(0) = (j+1)! curve[j+1], and for j < k - 1 the gradient
    d(eta^j lambda)(0) is (j+1)! (0, transverse[j+1]): the Morin criteria
    read the rank and the sign of det of the block transverse[1:k].  The
    lengths of the two lists record how far the form was read, and
    ``chain_value`` raises GermError past the curve's.
    """

    __slots__ = ("corank", "comps", "kernel", "left", "curve", "transverse")

    def __init__(self, corank, comps, kernel, left=None, curve=None,
                 transverse=None):
        _Frozen.__init__(self, corank, comps, kernel, left, curve,
                         transverse)

    def chain_value(self, j):
        """eta^j lambda(0) = (j+1)! * curve[j+1]."""
        if j + 1 >= len(self.curve):
            raise GermError("eta^%d lambda(0) is past the degree read, %d"
                            % (j, len(self.curve) - 1))
        return factorial(j + 1) * self.curve[j + 1]


@cache
def jet_table(n, cap):
    """The dense-jet table of n variables to degree ``cap``, a tuple
    (monomials, index, products, derivatives).  A jet is a list of ints,
    the coefficients of ``monomials``: the exponents of degree <= cap,
    by degree, x_1, ..., x_n first among the linear ones, so a jet's
    terms of degree <= c are its prefix of comb(n + c, n) entries.
    ``index`` maps each exponent to its place; ``products[i]`` holds
    (j, k) for every monomial j whose product with monomial i has degree
    <= cap, k the place of that product; ``derivatives[v]`` holds
    (i, e, k) for every monomial i with e > 0 factors x_(v+1), k the
    place of its quotient by x_(v+1).  A table has comb(n + cap, n)
    monomials, so it suits small n and cap."""
    monomials = [tuple(places.count(v) for v in range(n))
                 for d in range(cap + 1)
                 for places in combinations_with_replacement(range(n), d)]
    index = {e: i for i, e in enumerate(monomials)}
    products = [[(j, index[tuple(map(add, a, b))])
                 for j, b in enumerate(monomials) if sum(a) + sum(b) <= cap]
                for a in monomials]
    derivatives = [[(i, e[v], index[e[:v] + (e[v] - 1,) + e[v + 1:]])
                    for i, e in enumerate(monomials) if e[v]]
                   for v in range(n)]
    return monomials, index, products, derivatives


def dense_jet(terms, table):
    """The jet in ``table`` of the integer polynomial ``terms``
    ({exponent: int}): its terms of degree above the cap are dropped."""
    index = table[1]
    jet = [0] * len(index)
    for e, c in terms.items():
        i = index.get(e)
        if i is not None:
            jet[i] = c
    return jet


def jet_terms(jet, table):
    """{exponent: coefficient} of the nonzero entries of a jet."""
    return {e: c for e, c in zip(table[0], jet) if c}


def jet_deriv(jet, v, table):
    """The derivative of a jet along the integer vector v.  The terms of
    degree cap contribute only below it, so of a jet mod m^(cap+1) it is
    exact mod m^cap: its entries of degree cap are 0."""
    out = [0] * len(jet)
    for vi, triples in zip(v, table[3]):
        if vi:
            for i, e, k in triples:
                c = jet[i]
                if c:
                    out[k] += vi * e * c
    return out


def jet_det(rows, table):
    """det of a square matrix of jets mod m^(cap+1), expanded along the
    first row: each nonzero entry meets its minor, already mod m^(cap+1),
    over the product table, so no term of degree above the cap is
    formed."""
    if len(rows) == 1:
        return list(rows[0][0])
    products = table[2]
    out = [0] * len(products)
    for j, entry in enumerate(rows[0]):
        if not any(entry):
            continue
        minor = jet_det([row[:j] + row[j + 1:] for row in rows[1:]], table)
        for i, x in enumerate(entry):
            if x:
                if j % 2:
                    x = -x
                for m, k in products[i]:
                    y = minor[m]
                    if y:
                        out[k] += x * y
    return out


def prepared_form(f):
    """``_prepare(f)``, built on first use and kept on f: a MapGerm is
    immutable, so the form it keeps cannot go stale."""
    return f._once("_prepared", _prepare, f)


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
    """For each (terms, weight) of ``polys``, {beta: [(m, coefficient of
    u^m y'^beta) for each nonzero one, m = 0..weight rising]} for the
    integer polynomial ``terms`` at x_j = a_j u + signs_k y'_k (k the
    place of j among the coordinates other than p) and x_p = a_p u, beta
    the sorted tuple of the places of y'^beta, each repeated by its
    exponent (y'_0^2 y'_3 is (0, 0, 3), 1 is ()); places rise with j, so
    keys are built sorted.  The curve has y' = O(u^2), so a term u^m y'^beta
    enters the coefficients read at degree m + 2|beta|; only terms with
    m + 2|beta| <= weight are formed.  A term of degree ``weight`` (room
    0) gives u^weight alone, evaluated once as coef * a^alpha.  The
    expansion of each power x_j^e is built once for all of ``polys``."""
    place = {j: k for k, j in enumerate(j for j in range(n) if j != p)}
    expansions = {}
    found = []
    for terms, weight in polys:
        out = {}
        for alpha, coef in terms.items():
            deg = sum(alpha)
            if deg > weight:
                continue
            room = weight - deg         # the largest |beta| kept
            if not room:
                partial = [(coef * prod(map(pow, a, alpha)), ())]
            else:
                partial = [(coef, ())]
                for j, e in enumerate(alpha):
                    if not e:
                        continue
                    table = expansions.get((j, e))
                    if table is None:
                        if j == p:
                            table = [(a[j] ** e, ())]
                        else:
                            k = place[j]
                            table = [(comb(e, b) * a[j] ** (e - b) *
                                      signs[k] ** b, (k,) * b)
                                     for b in range(e + 1) if a[j] or b == e]
                        expansions[(j, e)] = table
                    partial = [(c * t, beta + more)
                               for c, beta in partial
                               for t, more in table
                               if len(beta) + len(more) <= room]
            for c, beta in partial:
                coefs = out.get(beta)
                if coefs is None:
                    coefs = out[beta] = [0] * (weight + 1)
                coefs[deg - len(beta)] += c
        found.append({beta: [(m, c) for m, c in enumerate(coefs) if c]
                      for beta, coefs in out.items()})
    return found


def _exact_div(x, d):
    if d == 1:
        return x
    quo, rem = divmod(x, d)
    if rem:
        raise GermError("inexact division in the prepared form")
    return quo


def _read_prepared(n, top, d, adj, first, rest):
    """(curve, transverse) from the substituted components: ``first`` is f1
    and ``rest`` the rows of f', each {beta: nonzero (a, coefficient of
    u^a y'^beta)}, a <= ``top`` in f1 and a <= top - 1 in f', beta the
    sorted tuple of the places of y'^beta (see ``_substitute``);
    L = d'f'(0) has determinant d > 0 and adjugate ``adj``.  Every sum
    runs over these nonzero pairs only; at d = 1 nothing is divided."""
    m1 = n - 1
    units = [(k,) for k in range(m1)]
    # the powers Gamma^beta of the curve for every beta read and every
    # beta below one (the derivatives read Gamma^(beta - e_k)), all 0 for
    # now: Gamma = O(u^2) is found one degree at a time below
    powers = {(): [1] + [0] * top}
    stack = units + [beta for h in [first] + rest for beta in h]
    while stack:
        beta = stack.pop()
        if beta not in powers:
            powers[beta] = [0] * (top + 1)
            stack.extend(_lower(beta, k) for k in set(beta))
    # Gamma^beta = Gamma^(beta - e_k) Gamma_k, k = beta[0] the first place,
    # summed over the nonzero coefficients (degree, value) of Gamma_k
    nonzero = [[] for _ in units]
    products = [(series, powers[beta[1:]], nonzero[beta[0]])
                for beta, series in powers.items() if len(beta) >= 2]
    gamma = [powers[e] for e in units]
    # each nonzero term c u^a y'^beta of f1 and of the rows of f' enters
    # h(d u, Gamma) from degree a + 2|beta| on
    first_terms, *rest_terms = [
        [(a + 2 * len(beta), a, c, powers[beta])
         for beta, pairs in h.items() for a, c in pairs]
        for h in [first] + rest]
    # At degree m, Gamma^beta with |beta| >= 2 reads Gamma below degree
    # m - 1, and so does f1(d u, Gamma), which has no linear part;
    # f'(d u, Gamma) reads Gamma[m] only through L Gamma[m], left out
    # while Gamma[m] is still 0; so Gamma[m] = -L^-1 residual.
    curve = [0, 0]
    for m in range(2, top + 1):
        for series, below, found in products:
            series[m] = sum(g * below[m - j] for j, g in found)
        curve.append(sum(c * series[m - a]
                         for start, a, c, series in first_terms
                         if start <= m))
        if curve[m] or m == top:
            break
        residual = [sum(c * series[m - a]
                        for start, a, c, series in terms if start <= m)
                    for terms in rest_terms]
        for k, row in enumerate(adj):
            g = _exact_div(-sum(map(mul, row, residual)), d)
            if g:
                gamma[k][m] = g
                nonzero[k].append((m, g))
    # The routes read the transverse row to degree min(k, n) - 1: the
    # Morin block transverse[1:k], and xi lambda(0) = transverse[1][0]
    # at k = 3 > n = 2 (the plane route); with no k, none of it.
    cap = min(m - 1, n) - 1 if curve[m] else 0
    # R = df1/dy' on the curve mod u^(cap+1), and L + M = df'/dy' on it
    # mod u^cap; every coefficient of M is a multiple of d, and M[c] is
    # kept as its nonzero entries (r, k, M[c][r][k]).  The transverse row
    # B solves B (L + M) = d R one degree at a time:
    # B[m] = (R[m] - sum_c B[m-c] M[c] / d) adj, which reads M[c] for
    # c < m only, and costs the nonzero entries of M[c] plus one product
    # with each column of adj.
    R = _gradient_on_curve(first, powers, m1, cap)
    rows = [_gradient_on_curve(h, powers, m1, cap - 1) for h in rest]
    M = [None] + [[(r, k, _exact_div(g[c], d))
                   for r, row in enumerate(rows)
                   for k, g in enumerate(row) if g[c]]
                  for c in range(1, cap)]
    columns = list(zip(*adj))
    transverse = [[0] * m1]
    for m in range(1, cap + 1):
        x = [R[k][m] for k in range(m1)]
        for c in range(1, m):
            prev = transverse[m - c]
            for r, k, value in M[c]:
                x[k] -= prev[r] * value
        transverse.append([sum(map(mul, x, col)) for col in columns])
    return curve, transverse


def _lower(beta, k):
    """beta - e_k: beta with one occurrence of the place k dropped."""
    i = beta.index(k)
    return beta[:i] + beta[i + 1:]


def _gradient_on_curve(h, powers, m1, cap):
    """[dh/dy'_k at y' = Gamma(u), mod u^(cap+1), for each k], h as
    {beta: nonzero (a, coefficient of u^a y'^beta)}, beta the sorted
    tuple of its places: only the distinct places k of beta are visited,
    with exponent b = beta.count(k).  Gamma = O(u^2), so
    Gamma^(beta - e_k) starts at degree 2(|beta| - 1): a beta with
    2(|beta| - 1) > cap adds nothing and is skipped, and each term
    c u^a meets Gamma^(beta - e_k) from that degree to cap - a only."""
    out = [[0] * (cap + 1) for _ in range(m1)]
    for beta, pairs in h.items():
        low = 2 * (len(beta) - 1)
        if low > cap:
            continue
        for k in set(beta):
            b = beta.count(k)
            acc, below = out[k], powers[_lower(beta, k)]
            for a, c in pairs:
                bc = b * c
                for i in range(low, cap + 1 - a):
                    acc[a + i] += bc * below[i]
    return out


def translate(f, p):
    """g(x) = f(x + p) - f(p): re-center the germ at the point p, by an
    integer Taylor shift of each component (``_shift``)."""
    n = f.src_dim
    if len(p) != n:
        raise DimensionError("translation point has wrong length")
    p = [rat(v) for v in p]
    moved = [i for i in range(n) if p[i]]
    return MapGerm([_shift(c, p, moved) for c in f.components], src_dim=n)


def _shift(c, p, moved):
    """c(x + p) - c(p), x_i shifted for the i in ``moved`` only (p_i != 0).

    With L the lcm of c's denominators, p_i = a_i/d_i and D_i the degree
    of c in x_i, L prod d_i^D_i c(x + p) has integer coefficients: each
    d_i^D_i (x_i + p_i)^e expands to sum_k C(e, k) a_i^(e-k) d_i^(D_i-e+k)
    x_i^k.  The sums are taken on integers, and one Fraction is made per
    term of the result; its constant term, c(p), is left out."""
    if not c.terms:
        return c
    den = lcm(*(x.denominator for x in c.terms.values()))
    top = {i: max(e[i] for e in c.terms) for i in moved}
    rows = {}           # (i, e) -> [(k, coefficient of x_i^k)]
    out = {}
    for expo, coef in c.terms.items():
        partial = [(expo, coef.numerator * (den // coef.denominator))]
        for i in moved:
            e = expo[i]
            row = rows.get((i, e))
            if row is None:
                a, d = p[i].numerator, p[i].denominator
                row = rows[(i, e)] = [
                    (k, comb(e, k) * a ** (e - k) * d ** (top[i] - e + k))
                    for k in range(e + 1)]
            partial = [(x[:i] + (k,) + x[i + 1:], v * w)
                       for x, v in partial for k, w in row]
        for x, v in partial:
            out[x] = out.get(x, 0) + v
    out.pop((0,) * c.nvars, None)
    scale = den * prod(p[i].denominator ** top[i] for i in moved)
    return Poly._trusted(c.nvars, {x: Fraction(v, scale)
                                   for x, v in out.items() if v})
