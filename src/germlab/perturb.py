"""Perturbation lab: versal unfoldings of the three families of simple
corank-one germs, enumeration of the n-Morin points of their stable
perturbations, and verification of counts and invariant signs.

Families (q is the first component of F_u = (q, x2, ..., xn); the null
field is d/dt and lambda = q_t):

  A: qbar(xn, u) = xn^l + u0 + u1*xn + ... + u_{l-2}*xn^{l-2}
     n=2: t^3 + qbar(x2)t          n=3: t^4 + x2 t + qbar(x3) t^2
     n=4: t^5 + x2 t + x3 t^2 + qbar(x4) t^3
     n=5: t^6 + x2 t + x3 t^2 + x4 t^3 + qbar(x5) t^4
  B: n=2: t^4 + x2 t + u0 t^2 ... n=5: t^7 + x2 t + ... + x5 t^4 + u0 t^5
  C: like B but with (xn^2 + u0 + u1 xn) t^{n-1} + xn t^n in place of the
     last two terms.

Morin points are found exactly: for families B and C the defining
equations lambda = eta lambda = ... = eta^{n-1} lambda = 0 are eliminated
by back substitution into a one-parameter curve sigma(t) plus a single
constraint (``eliminate_curve``); family A's points lie on t = x2 = ... =
x_{n-1} = 0, xn = s with the constraint qbar(s, u).  ``curve_criteria``
works once per (family, n), or (n, l) for A, with the parameters
symbolic: it checks that the curve satisfies the equations, an identity
in Q[t, u], and restricts the classifier's criteria to it.  Each request
only puts in its parameter values (``curve_data``).  Real roots of the
constraint are isolated by Sturm sequences, and the rational ones found
exactly inside their isolating intervals (see ``rational_roots``).
Every point is verified against the Morin classifier (by Tarski queries
along the curve at irrational roots, see ``sign_at_root``; at rational
roots also by full recognition of the unfolding, built only then).

Everything after the parameters are put in runs on integer coefficient
lists, each a positive multiple of the rational polynomial it stands for
(``up_integer``): the square-free part by a primitive remainder sequence
(``up_gcd``), the division by each rational root p/q as the exact
quotient by q t - p (``up_quotient``), the Sturm and Tarski sequences,
and every sign.  A positive multiple has the same signs and the same
Cauchy root bound, so the isolating intervals are those of the rational
polynomial.  Both bisections run on integer pairs (num, den); Fractions
are made only for the interval ends they return.

The printed reference tables for families B and C contain a few
inconsistent entries; ``table_discrepancy_report`` compares every printed
constraint and coordinate formula with the same cached curve and lists
printed vs derived, so discrepancies are surfaced rather than silently
absorbed.
"""

from fractions import Fraction
from functools import cache
from math import ceil, gcd

from .polyring import (Poly, PolyMatrix, _Frozen, rat, _rat_str,
                       clear_denominators, _series_mul)
from .germ import MapGerm, translate, GermError
from .morin import recognize_morin, invariant_kind, invariant_value

DEFAULT_PRECISION_BITS = 40

# ---------------------------------------------------------------------------
# exact univariate polynomial helpers (coefficient lists, index = degree)
# ---------------------------------------------------------------------------

def up_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def up_deg(c):
    return len(c) - 1


def up_deriv(c):
    return [i * coef for i, coef in enumerate(c)][1:]


def up_neg(c):
    return [-coef for coef in c]


def up_mul(a, b):
    if not a or not b:
        return []
    return up_trim(_series_mul(a, b, len(a) + len(b) - 2))


# Signs, gcds and quotients are taken on integer polynomials.  Each one is
# the primitive integer multiple of a rational polynomial by a positive
# factor, so it has the same sign everywhere, and its sign at a/b is read
# off integers alone.

def up_integer(c):
    """The primitive integer polynomial that is a positive rational
    multiple of c (rational or integer coefficients)."""
    c = up_trim(c)
    if not c:
        return c
    ints = clear_denominators(c)
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def up_sign_at(c, x):
    """Sign of the integer polynomial c at the rational x (``_sign_at``)."""
    return _sign_at(c, x.numerator, x.denominator)


def _sign_at(c, a, b):
    """Sign of the integer polynomial c at a/b, b > 0, in any terms: that of
    sum c_i a^i b^(d-i) = b^d c(a/b), by Horner's rule on integers."""
    total, bpow = 0, 1
    for coef in reversed(c):
        total = total * a + coef * bpow
        bpow *= b
    return (total > 0) - (total < 0)


def _pseudo_rem(a, b):
    """A positive integer multiple of the remainder of the integer
    polynomial a by b: each step scales by |lead b| instead of dividing."""
    scale = abs(b[-1])
    sign = 1 if b[-1] > 0 else -1
    r = up_trim(a)
    while len(r) >= len(b):
        f = sign * r[-1]
        k = len(r) - len(b)
        r = [scale * x for x in r]
        for i, coef in enumerate(b):
            r[i + k] -= f * coef
        r = up_trim(r)
    return r


def up_quotient(a, b):
    """The quotient of the integer polynomial a by the primitive integer
    polynomial b, which must divide it over Q.  By Gauss's lemma the
    quotient has integer coefficients, so every step divides exactly."""
    r = up_trim(a)
    q = [0] * max(0, len(r) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = r[k + len(b) - 1] // b[-1]
        for i, coef in enumerate(b):
            r[i + k] -= q[k] * coef
    if any(r):
        raise ValueError("polynomial division with a remainder")
    return up_trim(q)


def up_gcd(a, b):
    """The gcd of a and b as a primitive integer polynomial with a
    positive leading coefficient: a primitive remainder sequence, each
    ``_pseudo_rem`` replaced by its primitive part."""
    a, b = up_integer(a), up_integer(b)
    while b:
        a, b = b, up_integer(_pseudo_rem(a, b))
    return up_neg(a) if a and a[-1] < 0 else a


def up_squarefree(c):
    """The square-free part c / gcd(c, c'), a primitive integer
    polynomial."""
    c = up_integer(c)
    if up_deg(c) <= 0:
        return c
    return up_quotient(c, up_gcd(c, up_deriv(c)))


def tarski_sequence(c, g):
    """Signed remainder sequence of (c, c' g mod c), every term replaced by
    the primitive integer polynomial it is a positive multiple of, so its
    signs at any point are unchanged.  Its sign variations at lo minus
    those at hi are the Tarski query of g at c on (lo, hi] when neither lo
    nor hi is a root of c: the number of roots of c there with g > 0 minus
    the number with g < 0 (Basu, Pollack, Roy, *Algorithms in Real
    Algebraic Geometry*, ch. 2).  c' g may be reduced mod c because that
    leaves the Cauchy index of c' g / c unchanged."""
    ci = up_integer(c)
    seq = [ci, up_integer(
        _pseudo_rem(up_mul(up_deriv(ci), up_integer(g)), ci))]
    while seq[-1]:
        r = _pseudo_rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append(up_integer(up_neg(r)))
    return [p for p in seq if p]


def sturm_chain(c):
    """Sturm sequence of a nonzero c on integers: the Tarski sequence of
    g = 1, whose query counts the roots."""
    return tarski_sequence(c, [1])


def _variations(signs):
    signs = [v for v in signs if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def up_root_bound(c):
    """Cauchy bound: all real roots lie in (-M, M)."""
    c = up_trim(c)
    if up_deg(c) <= 0:
        return Fraction(1)
    lead = abs(c[-1])
    m = max(abs(x) for x in c[:-1])
    return 1 + Fraction(m, lead)


def rational_roots(c, intervals=None):
    """All rational roots (each once, sorted) of a nonzero univariate
    polynomial.  A root p/q in lowest terms of the primitive integer
    multiple of the square-free part has q | A, its leading coefficient, so
    it lies on (1/A)Z: each Sturm isolating interval is refined below
    1/(2A), where it holds at most one such point, and that one candidate is
    tested exactly.  A caller that has already isolated a square-free c
    passes its ``isolate_real_roots(c)`` as ``intervals``."""
    c = up_trim(c)
    if up_deg(c) <= 0:
        return []
    if intervals is None:
        c = up_squarefree(c)
        intervals = isolate_real_roots(c)
    ci = up_integer(c)
    a = abs(ci[-1])
    roots = []
    for lo, hi in intervals:
        lo, hi = refine_root(ci, lo, hi, Fraction(1, 2 * a))
        cand = Fraction(ceil(lo * a), a)
        if cand <= hi and up_sign_at(ci, cand) == 0:
            roots.append(cand)
    return sorted(roots)


def isolate_real_roots(c, width=None):
    """Isolating intervals for the distinct real roots of c (assumed
    square-free).  Returns sorted (lo, hi) pairs, each containing exactly
    one root in (lo, hi], optionally refined below ``width``.  The stack
    holds (a/d, b/d] as integers, with the chain's variations at both ends."""
    c = up_trim(c)
    if up_deg(c) <= 0:
        return []
    chain = sturm_chain(c)

    def variations(a, d):
        return _variations([_sign_at(p, a, d) for p in chain])

    bound = up_root_bound(c)
    m, d = bound.numerator, bound.denominator
    stack = [(-m, m, d, variations(-m, d), variations(m, d))]
    found = []
    while stack:
        a, b, d, va, vb = stack.pop()
        if va == vb:
            continue
        if va - vb == 1:
            found.append((Fraction(a, d), Fraction(b, d)))
            continue
        # split at lo + (hi - lo)/j, the midpoint (j = 2) nudged off any root
        j = 2
        while _sign_at(chain[0], a * j + b - a, d * j) == 0:
            j += 1
        mid = a * j + b - a
        vm = variations(mid, d * j)
        stack.append((a * j, mid, d * j, va, vm))
        stack.append((mid, b * j, d * j, vm, vb))
    return sorted(refine_root(chain[0], lo, hi, width) if width else (lo, hi)
                  for lo, hi in found)


def refine_root(c, lo, hi, width):
    """Bisect an isolating interval of a square-free c below ``width``.
    Returns (r, r) if an exact rational root is hit.  After j of the k
    halvings, the least k with (hi - lo)/2^k <= width, the interval is
    (x/d, (x + w)/d], d the common denominator of lo and hi times 2^j."""
    if lo == hi:
        return (lo, hi)
    c = up_integer(c)
    slo = up_sign_at(c, lo)
    if slo == 0:
        return (lo, lo)
    if up_sign_at(c, hi) == 0:
        return (hi, hi)
    d = lo.denominator * hi.denominator
    x = lo.numerator * hi.denominator
    w = hi.numerator * lo.denominator - x
    ratio = -(-w * width.denominator // (d * width.numerator))
    for _ in range((ratio - 1).bit_length()):
        x, d = 2 * x, 2 * d
        mid = x + w
        sm = _sign_at(c, mid, d)
        if sm == 0:
            return (Fraction(mid, d),) * 2
        if sm == slo:
            x = mid
    return (Fraction(x, d), Fraction(x + w, d))


def sign_at_root(g, constraint, root, sequences=None):
    """Exact sign (+1, -1 or 0) of the univariate polynomial g at one real
    root of ``constraint``.  The root is either an exact rational, or an
    interval (lo, hi) such that the constraint has exactly one root in the
    half-open (lo, hi] and lo is not a root of it (as from
    ``isolate_real_roots``).  A root at hi is read exactly; otherwise the
    sign is the Tarski query of g on (lo, hi] (``tarski_sequence``).

    ``sequences``, a dict owned by the caller, keeps the Tarski sequence of
    each g with this one constraint, so that it serves every root."""
    g = up_integer(g)
    if not g:
        return 0
    if not isinstance(root, tuple):
        return up_sign_at(g, root)
    lo, hi = root
    if lo == hi:
        return up_sign_at(g, lo)
    if sequences is None:
        sequences = {}
    key = tuple(g)
    seq = sequences.get(key)
    if seq is None:
        seq = sequences[key] = tarski_sequence(constraint, g)
    at_hi = [up_sign_at(p, hi) for p in seq]
    if at_hi[0] == 0:
        return up_sign_at(g, hi)
    at_lo = [up_sign_at(p, lo) for p in seq]
    if at_lo[0] == 0:
        raise ValueError("interval end %s is a root of the constraint" % lo)
    return _variations(at_lo) - _variations(at_hi)


# ---------------------------------------------------------------------------
# unfolding construction
# ---------------------------------------------------------------------------

FAMILY_B_CN = {2: 6, 3: 10, 4: 15, 5: 21}


# The largest family A degree: a request at l = 64 takes seconds.
MAX_L = 32


def param_count(family, l):
    """Number of unfolding parameters of a family ('A', 'B' or 'C'):
    l - 1 for family A (2 <= l <= MAX_L), one for B, two for C."""
    if family == "A":
        if l is None or not 2 <= l <= MAX_L:
            raise ValueError("family A needs 2 <= l <= %d (the cap), "
                             "got l = %s" % (MAX_L, l))
        return l - 1
    return {"B": 1, "C": 2}[family]


class UnfoldingSpec(_Frozen):
    """family 'A' | 'B' | 'C'; n in 2..5; 2 <= l <= MAX_L (family A only);
    u = parameter values (length l-1 for A, 1 for B, 2 for C)."""

    __slots__ = ("family", "n", "l", "u")

    def __init__(self, family, n, u, l=None):
        family = family.upper()
        if family not in ("A", "B", "C"):
            raise ValueError("family must be A, B or C")
        if not 2 <= n <= 5:
            raise ValueError("n must be in 2..5")
        u = tuple(rat(v) for v in u)
        count = param_count(family, l)
        if len(u) != count:
            raise ValueError("family %s needs %d parameter(s), got %d"
                             % (family, count, len(u)))
        if family != "A":
            l = None
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "u", u)

    @property
    def genotype(self):
        degree = {"A": self.n + 1, "B": self.n + 2, "C": self.n + 2}[self.family]
        return "t^%d" % degree

    def c_f_bound(self):
        return {"A": self.l, "B": 2, "C": 4}[self.family]

    def __repr__(self):
        extra = " l=%d" % self.l if self.family == "A" else ""
        return "UnfoldingSpec(%s n=%d%s u=[%s])" % (
            self.family, self.n, extra, ", ".join(map(_rat_str, self.u)))


def _qbar_coeffs(l, u):
    """qbar(s) = s^l + u0 + u1 s + ... + u_{l-2} s^{l-2} as a coeff list."""
    c = [Fraction(0)] * (l + 1)
    c[l] = Fraction(1)
    for i, ui in enumerate(u):
        c[i] += rat(ui)
    return up_trim(c)


def _q_poly(family, n, l, u):
    """The first unfolding component q in the variables (x1=t, x2..xn,
    then any symbolic parameters); ``u`` holds one Poly per parameter,
    all in those variables."""
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


def build_unfolding(spec):
    """F_u = (q(t, x, u), x2, ..., xn) with the parameters substituted."""
    n = spec.n
    q = _q_poly(spec.family, n, spec.l, [Poly.const(v, n) for v in spec.u])
    comps = [q] + [Poly.var(i, n) for i in range(2, n + 1)]
    return MapGerm(comps, src_dim=n)


# ---------------------------------------------------------------------------
# elimination: Morin-point curve sigma(t) + univariate constraint
# ---------------------------------------------------------------------------

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
    have this one-curve structure.  Cached: each (family, n) is derived
    once per process and specialised per request by ``curve_data``.
    """
    if family == "A":
        raise GermError("family A points are not a one-parameter curve")
    npar = param_count(family, None)
    nvars = n + npar
    q = _q_poly(family, n, None,
                [Poly.var(n + 1 + i, nvars) for i in range(npar)])
    reps = [Poly.var(i, nvars) for i in range(1, nvars + 1)]
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


@cache
def curve_criteria(family, n, l):
    """What the Morin points of one (family, n[, l]) share, whatever the
    parameter values: (sigma, constraint, etak, detgrad), Polys in (t,
    u...) (t is s for family A).  ``sigma`` is the curve's n source
    coordinates, and etak and detgrad are eta^n lambda and det grad
    (lambda, ..., eta^{n-1} lambda) restricted to it.  Raises GermError
    unless the curve satisfies the equations (``_vanishing_on_curve``)."""
    if family == "A":
        sigma, constraint = family_a_curve(n, l)
    else:
        coords, constraint = eliminate_curve(family, n)
        sigma = (Poly.var(1, constraint.nvars),) + coords
    m = constraint.nvars
    q = _q_poly(family, n, l, [Poly.var(n + i, n + m - 1)
                               for i in range(1, m)])
    chain = _lambda_chain(q, n)
    # x_i -> sigma_i, and the parameters stay themselves
    reps = list(sigma) + [Poly.var(i, m) for i in range(2, m + 1)]
    if not _vanishing_on_curve([p.subs(reps) for p in chain[:n]], constraint):
        raise GermError("internal error: curve does not satisfy the equations")
    # restricting each entry first gives the same determinant, smaller
    grad = [chain[j].partial(i).subs(reps)
            for j in range(n) for i in range(1, n + 1)]
    return (sigma, constraint, chain[n].subs(reps),
            PolyMatrix(n, n, grad).det())


def _vanishing_on_curve(on_curve, constraint):
    """True when every Poly of ``on_curve`` is 0 or a rational constant
    times ``constraint``: an identity in Q[t, u], so the curve satisfies
    the equations at every parameter value."""
    lead = max(constraint.terms)
    return all(p == constraint.scale(p.terms.get(lead, 0) /
                                     constraint.terms[lead])
               for p in on_curve)


def _at_params(p, u):
    """The coefficient list in t of a Poly in (t, u0, u1, ...) at the
    parameter values ``u``."""
    if not p.terms:
        return []
    out = [Fraction(0)] * (p.degree_in(1) + 1)
    for (e, *ks), coef in p.terms.items():
        for ui, k in zip(u, ks):
            if k:
                coef *= ui ** k
        out[e] += coef
    return up_trim(out)


def curve_data(spec):
    """Numeric-parameter curve: (sigma, constraint_coeffs) where sigma is
    the list of n univariate Polys [t, x2(t), ..., xn(t)] and the
    constraint is a univariate coefficient list in t."""
    sigma, constraint, _, _ = curve_criteria(spec.family, spec.n, spec.l)
    return ([Poly._trusted(1, {(e,): c for e, c in
                               enumerate(_at_params(x, spec.u)) if c})
             for x in sigma],
            _at_params(constraint, spec.u))


# ---------------------------------------------------------------------------
# table invariant formulas (the "inv" rows of the reference tables)
# ---------------------------------------------------------------------------

# the published inv rows as printed, keyed by (family, n)
INV_FORMULAS = {
    ("A", 2): "1", ("A", 3): "qbar_x3", ("A", 4): "(1, qbar_x4)",
    ("A", 5): "qbar_x5",
    ("B", 2): "t", ("B", 3): "t^2", ("B", 4): "(t, t)", ("B", 5): "t",
    ("C", 2): "t", ("C", 3): "-20*t^2 + 3*t + u1",
    ("C", 4): "(t, t*(30*t^2 - 4*t - u1))",
    ("C", 5): "t*(-42*t^2 + 5*t + u1)",
}


def table_invariant(spec, root, constraint, sequences=None):
    """Expected invariant tuple at a root of the constraint, straight from
    the published inv rows (``INV_FORMULAS``); ``sequences`` is passed on
    to ``sign_at_root``.

    The published n=4 pairs for families A and B are (eps1*eps2, eps2);
    the classifier's pair is (sign eta^4 lambda, sign det grad) =
    (eps1*eps2, -eps2), so their second slot is negated before comparing.
    The family C n=4 row tracks sign det grad directly (verified on-curve
    against the classifier), so it is compared as printed.
    """
    n = spec.n
    kind = invariant_kind(n, n)

    def s(poly_coeffs):
        return sign_at_root(poly_coeffs, constraint, root, sequences)

    if spec.family == "A":
        dqbar = up_deriv(_qbar_coeffs(spec.l, spec.u))
        if n == 2:
            return (kind, 1)
        if n == 4:
            return (kind, (1, -s(dqbar)))
        return (kind, s(dqbar))
    t = [Fraction(0), Fraction(1)]
    if spec.family == "B":
        if n == 3:
            return (kind, s(up_mul(t, t)))
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
        inner = [Fraction(0), -u1, Fraction(-4), Fraction(30)]
        return (kind, (s(t), s(inner)))
    return (kind, s([Fraction(0), u1, Fraction(5), Fraction(-42)]))


# ---------------------------------------------------------------------------
# Morin point enumeration
# ---------------------------------------------------------------------------

class MorinPoint(_Frozen):
    """One n-Morin point of a stable perturbation.

    ``t`` is the curve parameter (exact Fraction, or an isolating
    (lo, hi) interval); ``location`` gives the source coordinates (exact
    when t is exact, else the coordinate polynomials evaluated on the
    interval endpoints are recoverable from sigma).  ``invariant_value``
    is the classifier's invariant tuple, ``table_value`` the published
    formula's, ``verified`` requires the two to agree (and, for exact
    points, the translated germ to pass full recognition with k = n).
    """

    __slots__ = ("t", "exact", "location", "k", "invariant_value",
                 "table_value", "verified")

    def __init__(self, t, exact, location, k, invariant_value, table_value,
                 verified):
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "invariant_value", tuple(invariant_value))
        object.__setattr__(self, "table_value", tuple(table_value))
        object.__setattr__(self, "verified", verified)


class PerturbationReport(_Frozen):
    __slots__ = ("spec", "points", "count", "c_f_bound", "stable", "notes")

    def __init__(self, spec, points, stable, notes):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "count", len(points))
        object.__setattr__(self, "c_f_bound", spec.c_f_bound())
        object.__setattr__(self, "stable", stable)
        object.__setattr__(self, "notes", tuple(notes))


def _classifier_invariant_on_curve(n, criteria, constraint, root, sequences):
    """Invariant tuple from the classifier's own quantities (``criteria``,
    eta^n lambda and det grad as coefficient lists), their signs taken
    exactly at a root of the constraint; None where either one vanishes."""
    etak, detgrad = criteria
    s_etak = sign_at_root(etak, constraint, root, sequences)
    s_det = sign_at_root(detgrad, constraint, root, sequences)
    if s_etak == 0 or s_det == 0:
        return None
    return invariant_value(invariant_kind(n, n), s_etak, s_det)


def morin_points(spec, precision_bits=DEFAULT_PRECISION_BITS):
    """Enumerate the n-Morin points of the perturbation described by
    ``spec``.  See the module docstring for the method."""
    n = spec.n
    sigma, constraint = curve_data(spec)
    notes = []
    stable = True
    sf = up_squarefree(constraint)
    if up_deg(sf) < up_deg(constraint):
        stable = False
        notes.append("non-stable parameter: the constraint has repeated roots")
    width = Fraction(1, 2 ** precision_bits)
    found = isolate_real_roots(sf)
    exact = rational_roots(sf, found)
    remaining = sf
    for r in exact:
        remaining = up_quotient(remaining, [-r.numerator, r.denominator])
    # isolating intervals come from ``remaining`` (rational roots divided
    # out), so all interval arithmetic below must use ``remaining`` too;
    # having no rational root, it never collapses an interval to a point.
    # Without rational roots ``remaining`` is sf, already isolated above.
    if exact:
        found = isolate_real_roots(remaining)
    intervals = [refine_root(remaining, lo, hi, width) for lo, hi in found]
    if spec.family in ("B", "C"):
        if 0 in exact:
            exact.remove(0)
            notes.append("root t=0 excluded (not a Morin point)")
        kept = []
        for lo, hi in intervals:
            # refine until the interval excludes 0 (0 is not a root here)
            while lo <= 0 <= hi:
                lo, hi = refine_root(remaining, lo, hi, (hi - lo) / 2)
            kept.append((lo, hi))
        intervals = kept
    points = []
    roots = exact + intervals
    if roots:
        _, _, etak, detgrad = curve_criteria(spec.family, n, spec.l)
        criteria = (_at_params(etak, spec.u), _at_params(detgrad, spec.u))
    # Tarski sequences with ``remaining``, one per polynomial, this request only
    sequences = {}
    F = None
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
            if F is None:
                F = build_unfolding(spec)
            res = recognize_morin(translate(F, coords))
            verified = verified and res.k == n and res.invariant == inv
            location = coords
        else:
            location = [root]
        points.append(MorinPoint(root, is_exact, location, n, inv, tbl, verified))
    return PerturbationReport(spec, points, stable, notes)


def sweep(family, n, grid, l=None, precision_bits=DEFAULT_PRECISION_BITS):
    """Run morin_points over a finite grid of parameter tuples.

    Returns (reports, summary); summary gives the max count observed and
    whether the family bound c(f) was attained.  Degenerate grid points
    are flagged in their reports, never fatal."""
    reports = []
    for u in grid:
        spec = UnfoldingSpec(family, n, u, l=l)
        reports.append(morin_points(spec, precision_bits=precision_bits))
    max_count = max((r.count for r in reports), default=0)
    bound = UnfoldingSpec(family, n, grid[0], l=l).c_f_bound() if grid else None
    summary = {
        "family": family,
        "n": n,
        "grid_size": len(grid),
        "max_count": max_count,
        "c_f_bound": bound,
        "attained": bound is not None and max_count == bound,
        "all_verified": all(p.verified for r in reports for p in r.points),
    }
    return reports, summary


# ---------------------------------------------------------------------------
# printed-table cross-check
# ---------------------------------------------------------------------------

def _parse_tu(entries, nvars):
    """A Poly in (t, u0[, u1]) from printed (coef, dt, du0[, du1]) rows."""
    return Poly(nvars, {tuple(e[1:]): rat(e[0]) for e in entries})


# the equations and coordinate rows exactly as printed in the source tables
_PRINTED_C = {
    2: {"constraint": [(36, 4, 0, 0), (-8, 3, 0, 0), (-6, 2, 0, 1), (1, 0, 1, 0)],
        "x2": [(-6, 2, 0, 0)]},
    3: {"constraint": [(100, 4, 0, 0), (-20, 3, 0, 0), (-10, 2, 0, 1), (1, 0, 1, 0)],
        "x2": [(25, 4, 0, 0), (-200, 5, 0, 0), (20, 3, 0, 1), (-2, 1, 1, 0)],
        "x3": [(-10, 2, 0, 0)]},
    4: {"constraint": [(255, 4, 0, 0), (-40, 3, 0, 0), (-15, 2, 0, 1), (1, 0, 1, 0)],
        "x2": [(675, 6, 0, 0), (-96, 5, 0, 0), (-45, 4, 0, 1), (3, 2, 1, 0)],
        "x3": [(-675, 5, 0, 0), (75, 4, 0, 0), (45, 3, 0, 1), (-3, 1, 1, 0)],
        "x4": [(-15, 2, 0, 0)]},
    5: {"constraint": [(441, 4, 0, 0), (-70, 3, 0, 0), (-21, 2, 0, 1), (1, 0, 1, 0)],
        "x2": [(-4, 3, 1, 0), (84, 5, 0, 1), (245, 6, 0, 0), (-1764, 7, 0, 0)],
        "x3": [(2640, 6, 0, 0), (-336, 5, 0, 0), (-126, 4, 0, 1), (6, 2, 1, 0)],
        "x4": [(-1764, 5, 0, 0), (175, 4, 0, 0), (84, 3, 0, 1), (-4, 1, 1, 0)],
        "x5": [(-21, 2, 0, 0)]},
}

# family B printed coordinate rows (pure polynomials in t, after t^2 = -u0/c_n)
_PRINTED_B = {
    2: {"x2": [(8, 3, 0)]},
    3: {"x2": [(105, 4, 0)], "x3": [(-40, 3, 0)]},
    4: {"x2": [(24, 5, 0)], "x3": [(-45, 4, 0)], "x4": [(40, 3, 0)]},
    5: {"x2": [(-35, 6, 0)], "x3": [(84, 5, 0)], "x4": [(-105, 4, 0)],
        "x5": [(70, 3, 0)]},
}


def table_discrepancy_report():
    """Compare every constraint equation and coordinate formula of the
    printed family B and C tables with the curve ``eliminate_curve``
    derives, the one the lab itself uses.  Coordinates are compared with
    u0 solved from the constraint.  Returns a list of entries
    {family, n, item, printed, derived, match}; mismatches are the
    published typos, surfaced rather than silently corrected."""
    entries = []
    for family, printed_all in (("B", _PRINTED_B), ("C", _PRINTED_C)):
        for n in (2, 3, 4, 5):
            coords, constraint = eliminate_curve(family, n)
            nvars = constraint.nvars
            printed = printed_all[n]
            if family == "C":
                entries.append(_compare(
                    family, n, "constraint",
                    _normalize_primitive(_parse_tu(printed["constraint"], nvars)),
                    _normalize_primitive(constraint)))
            reps = [Poly.var(i, nvars) for i in range(1, nvars + 1)]
            reps[1] = _solve_linear(constraint, 2, "u0")
            for j, x in enumerate(coords, start=2):
                item = "x%d" % j
                entries.append(_compare(
                    family, n, item, _parse_tu(printed[item], nvars).subs(reps),
                    x.subs(reps)))
    return entries


def _normalize_primitive(p):
    """Scale so the coefficients are coprime integers with the leading
    (lexicographically largest exponent) coefficient > 0."""
    q = Poly(p.nvars, dict(zip(p.terms, up_integer(list(p.terms.values())))))
    if q.terms and q.terms[max(q.terms)] < 0:
        q = -q
    return q


def _compare(family, n, item, printed, derived):
    return {
        "family": family,
        "n": n,
        "item": item,
        "printed": printed.render(_tu_names(printed.nvars)),
        "derived": derived.render(_tu_names(derived.nvars)),
        "match": printed == derived,
    }


def _tu_names(nvars):
    return ["t", "u0", "u1"][:nvars]


# ---------------------------------------------------------------------------
# report serialization (deterministic, JSON-compatible)
# ---------------------------------------------------------------------------

def _rat_decimal(x, places=12):
    """Fixed-precision decimal string of a rational (deterministic)."""
    x = rat(x)
    sign = "-" if x < 0 else ""
    x = abs(x)
    scaled = x * 10 ** places
    whole = scaled.numerator // scaled.denominator
    s = str(whole).rjust(places + 1, "0")
    return "%s%s.%s" % (sign, s[:-places], s[-places:])


def point_to_dict(p):
    if p.exact:
        t_field = {"exact": _rat_str(p.t), "approx": _rat_decimal(p.t)}
        loc = [_rat_str(v) for v in p.location]
    else:
        lo, hi = p.t
        t_field = {"interval": [_rat_str(lo), _rat_str(hi)],
                   "approx": _rat_decimal((lo + hi) / 2)}
        loc = None
    return {
        "t": t_field,
        "location": loc,
        "k": p.k,
        "invariant": inv_to_json(p.invariant_value),
        "table_invariant": inv_to_json(p.table_value),
        "verified": p.verified,
    }


def inv_to_json(inv):
    kind = inv[0]
    if kind == "none":
        return {"kind": "none"}
    value = inv[1]
    if isinstance(value, tuple):
        return {"kind": kind, "value": list(value)}
    return {"kind": kind, "value": value}


def report_to_dict(r):
    return {
        "spec": {
            "family": r.spec.family,
            "n": r.spec.n,
            "l": r.spec.l,
            "u": [_rat_str(v) for v in r.spec.u],
            "genotype": r.spec.genotype,
        },
        "count": r.count,
        "c_f_bound": r.c_f_bound,
        "stable": r.stable,
        "notes": list(r.notes),
        "points": [point_to_dict(p) for p in r.points],
    }
