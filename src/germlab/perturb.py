"""Perturbation lab: versal unfoldings of the three families of simple
corank-one germs, enumeration of the n-Morin points of their stable
perturbations, and verification of counts and invariant signs.

Families A, B and C (q is the first component of F_u = (q, x2, ..., xn);
the null field is d/dt and lambda = q_t): the rows of q are printed in
``Q_FORMULAS``, family A's with qbar(xn, u) = xn^l + u0 + u1*xn + ... +
u_{l-2}*xn^{l-2}.

Morin points are found exactly.  For families B and C the defining
equations lambda = eta lambda = ... = eta^{n-1} lambda = 0 reduce, by back
substitution, to a one-parameter curve sigma(t) plus a single constraint;
family A's points lie on t = x2 = ... = x_{n-1} = 0, xn = s with the
constraint qbar(s, u).  The curve, the constraint and the classifier's
criteria restricted to the curve are printed rows in the parameters kept
symbolic (``CRITERIA_FORMULAS``), read once per (family, n), or (n, l) for
A, and cleared of denominators (``curve_criteria``); the elimination that
derives them is a test reference (tests/oracles.py), compared with every
row.  Each request only puts in its parameter values, on integers
(``curve_data``).  Real roots of the constraint are isolated by Sturm
sequences (``isolate_real_roots``).  Each isolating interval is
refined once, by a bisection whose first halvings doubles may skip by
proposing the dyadic cell of the root, kept only where two exact signs
confirm it (``refine_root``), and the one rational candidate it holds is
tested exactly (``rational_roots``).  Every point is verified against
the Morin classifier: by the signs of its criteria along the curve
(``sign_at_root``), and at rational roots also by full recognition of
the unfolding, built only then.  A sign at an irrational root is
certified by one evaluation at the interval end and a bound on the
derivative (``_certified_sign``); only where that fails does a Tarski
query decide it, its sequence built once per polynomial and request.

Everything after the parameters are put in runs on integer coefficient
lists, each a positive multiple of the rational polynomial it stands for
(``up_integer``): the square-free part by the gcd that ends a Sturm
sequence (``up_squarefree``), whose chain also isolates the roots of a
square-free constraint, the division by each rational root p/q as the
exact quotient by q t - p (``up_quotient``), the Sturm and Tarski
sequences, and every sign.  A positive multiple has the same signs and
the same Cauchy root bound, so the isolating intervals are those of the
rational polynomial.  A root stays one integer cell (a, b, d), the root
in (a/d, b/d] or, when a == b, the exact root a/d, from its isolation
through refinement, the rational test and every sign; Fractions are made
of it only for the report's points.  At exact roots the unfolding is
built with its parameters put in term by term (``_with_params``) and
re-centered by an integer Taylor shift (``germ.translate``), with no
Poly product.

Every row the lab reads is read by ``parse_poly`` from the text it is
printed as: the q rows (``Q_FORMULAS``), the curve and criteria rows
(``CRITERIA_FORMULAS``), the inv rows (``INV_FORMULAS``), whose signs at
each root are the table's expected invariant, and the published B and C
tables' constraints and coordinates (``_PRINTED``).  Those tables contain
a few inconsistent entries; ``table_discrepancy_report`` compares each
with the lab's curve and lists printed vs derived, so discrepancies are
surfaced rather than silently absorbed.
"""

from fractions import Fraction
from functools import cache, partial
from math import floor, gcd, ldexp, log2, prod
from operator import getitem

from .polyring import Poly, _Frozen, rat, _rat_str, clear_denominators
from .germ import MapGerm, translate
from .germparse import parse_poly, parse_number, ParseError
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
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return up_trim(out)


# Signs, gcds and quotients are taken on integer polynomials.  Each one is
# the primitive integer multiple of a rational polynomial by a positive
# factor, so it has the same sign everywhere, and its sign at a/b is read
# off integers alone.

def up_integer(c):
    """The primitive integer polynomial that is a positive rational
    multiple of c (rational or integer coefficients)."""
    return _primitive(clear_denominators(up_trim(c)))


def _primitive(ints):
    """The trimmed integer list ``ints`` over the gcd of its entries."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _homogeneous(c, a, b):
    """sum c_i a^i b^(d-i) = b^d c(a/b), d = deg c, by Horner's rule on
    integers."""
    total, bpow = 0, 1
    for coef in reversed(c):
        total = total * a + coef * bpow
        bpow *= b
    return total


def _sign_at(c, a, b):
    """Sign of the integer polynomial c at a/b, b > 0, in any terms: that of
    ``_homogeneous(c, a, b)``."""
    total = _homogeneous(c, a, b)
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


def up_squarefree(c):
    """(sf, chain): the square-free part sf = c / gcd(c, c'), a primitive
    integer polynomial, and its Sturm chain.  The last term of c's Sturm
    chain is gcd(c, c') up to sign: a primitive remainder sequence of
    (c, c').  When that gcd is constant, sf is c and its chain is the one
    just built; only a c with repeated roots needs a second chain."""
    c = up_integer(c)
    if up_deg(c) <= 0:
        return c, [c] if c else []
    chain = sturm_chain(c)
    g = chain[-1]
    if up_deg(g) == 0:
        return c, chain
    sf = up_quotient(c, up_neg(g) if g[-1] < 0 else g)
    return sf, sturm_chain(sf)


def tarski_sequence(c, g):
    """Signed remainder sequence of the integer polynomials (c, c' g mod
    c), every remainder replaced by the primitive integer polynomial it is
    a positive multiple of, so its signs at any point are unchanged.  Its
    sign variations at lo minus those at hi are the Tarski query of g at c
    on (lo, hi] when neither lo nor hi is a root of c: the number of roots
    of c there with g > 0 minus the number with g < 0 (Basu, Pollack,
    Roy, *Algorithms in Real Algebraic Geometry*, ch. 2).  c' g may be
    reduced mod c because that leaves the Cauchy index of c' g / c
    unchanged."""
    seq = [c, up_integer(_pseudo_rem(up_mul(up_deriv(c), g), c))]
    while seq[-1]:
        r = _pseudo_rem(seq[-2], seq[-1])
        if not r:
            break
        seq.append(up_integer(up_neg(r)))
    return [p for p in seq if p]


def sturm_chain(c):
    """Sturm sequence of a nonzero integer c: the Tarski sequence of
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


# ---------------------------------------------------------------------------
# real roots on integer cells
# ---------------------------------------------------------------------------
#
# A root of a square-free integer polynomial is one cell (a, b, d) of
# integers, d > 0: the root is the one in (a/d, b/d], neither end a root,
# or the exact root a/d when a == b.  A halving doubles d.  Fractions are
# made of a cell only for a report (``morin_points``).

def _levels(cell, num, den):
    """The least k >= 0 with width / 2^k <= num/den, for a cell a < b."""
    a, b, d = cell
    return (-((a - b) * den // (d * num)) - 1).bit_length()


def isolate_real_roots(c, chain):
    """Isolating cells of the distinct real roots of the square-free
    integer polynomial c, degree >= 1, in increasing order, by bisection
    of (-M, M], M the Cauchy bound, on the variations of c's Sturm chain
    ``chain``.  The stack holds cells with the variations at both ends,
    the left half on top."""
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
            found.append((a, b, d))
            continue
        # split at lo + (hi - lo)/j, the midpoint (j = 2) nudged off any root
        j = 2
        while _sign_at(c, a * j + b - a, d * j) == 0:
            j += 1
        mid = a * j + b - a
        vm = variations(mid, d * j)
        stack.append((mid, b * j, d * j, vm, vb))
        stack.append((a * j, mid, d * j, va, vm))
    return found


def refine_root(c, cell, k):
    """The cell that k halvings of ``cell`` reach, c square-free, or the
    exact root a midpoint meets.  After j halvings the cell is (x/d,
    (x + w)/d], w its first width, d doubled at each.

    The first j halvings are skipped where doubles propose the level-j
    cell (``_float_cell``) and the exact signs at its two ends bracket the
    root: then it is the one cell of that level that holds the root, the
    cell the halvings reach.  A 0 at an end is the root itself, a point
    strictly inside the cell that bisection meets as a midpoint."""
    x, b, d = cell
    if x == b or not k:
        return cell
    w = b - x
    slo = _sign_at(c, x, d)
    j, m = _float_cell(c, x, b, d, slo, k)
    if j:
        left, dj = (x << j) + m * w, d << j
        signs = [_sign_at(c, end, dj) for end in (left, left + w)]
        if 0 in signs:
            end = left + signs.index(0) * w
            return (end, end, dj)
        if signs == [slo, -slo]:
            x, d, k = left, dj, k - j
    for _ in range(k):
        x, d = 2 * x, 2 * d
        mid = x + w
        sm = _sign_at(c, mid, d)
        if sm == 0:
            return (mid, mid, d)
        if sm == slo:
            x = mid
    return (x, x + w, d)


# The deepest dyadic cell doubles are asked for is 2^-FLOAT_CELL_BITS
# times the larger of 1 and the interval ends' magnitude: a double holds
# 53 bits, and the rest covers the rounding of the ends, of the root and
# of the division that places it, a few hundredths of a cell.
FLOAT_CELL_BITS = 44
# Float steps allowed: Newton converges in a few, and halvings alone
# reach the deepest cell in FLOAT_CELL_BITS + 4.
FLOAT_STEPS = 64


def _float_cell(c, a, b, d, slo, k):
    """(j, m): the level-j dyadic cell (lo + m (hi - lo)/2^j, lo + (m + 1)
    (hi - lo)/2^j] of (lo, hi] = (a/d, b/d] in which doubles put the root
    of the integer polynomial c (sign ``slo`` at lo), j <= k.  Newton
    steps from the midpoint, each one that leaves the bracket the float
    signs keep replaced by a halving (safeguarded Newton).  (0, 0) when
    doubles cannot tell: a level under 3, where two exact signs would save
    no halving, an overflow or NaN, or no convergence within FLOAT_STEPS.
    Only a proposal: ``refine_root`` keeps the cell if two exact signs
    confirm it."""
    try:
        base = left = a / d
        right = b / d
        span = right - left
        j = min(k, FLOAT_CELL_BITS +
                floor(log2(span / max(1.0, -left, right))))
        if j < 3:
            return 0, 0
        cf = [float(v) for v in reversed(c)]
        tolerance = ldexp(span, -j - 4)
        x = (left + right) / 2
        for _ in range(FLOAT_STEPS):
            f, df = cf[0], 0.0
            for v in cf[1:]:
                df = df * x + f
                f = f * x + v
            if (f > 0) == (slo > 0):
                left = x
            else:
                right = x
            step = f / df if df else span
            x -= step
            if not left <= x <= right:
                x = (left + right) / 2
            elif abs(step) <= tolerance:
                break
            if right - left <= tolerance:
                break
        else:
            return 0, 0
        m = floor(ldexp((x - base) / span, j))
    except (OverflowError, ValueError, ZeroDivisionError):
        return 0, 0
    return (j, m) if 0 <= m < 1 << j else (0, 0)


def rational_roots(c, chain, bits):
    """(exact, cells) for the square-free primitive integer c, degree >= 1,
    and its Sturm chain: the rational roots as exact cells (p, p, q), p/q
    in lowest terms, and every isolating cell refined below 2^-bits, both
    in increasing order.

    A root p/q has q | A, A = |lead c|, so it lies on (1/A)Z, and a cell
    no wider than 1/(2A) holds at most one such point: the least at or
    above its low end, tested exactly.  Each cell is refined once: to
    2^-bits, and on from there below 1/(2A) only where that is narrower
    (A > 2^(bits - 1)), where the candidate is read."""
    lead = abs(c[-1])
    exact, cells = [], []
    for cell in isolate_real_roots(c, chain):
        k = _levels(cell, 1, 1 << bits)
        fine = refine_root(c, cell, k)
        deeper = _levels(cell, 1, 2 * lead) - k
        a, b, d = refine_root(c, fine, deeper) if deeper > 0 else fine
        p = -(-a * lead // d)
        if p * d <= b * lead and _sign_at(c, p, lead) == 0:
            g = gcd(p, lead)
            exact.append((p // g, p // g, lead // g))
        cells.append(fine)
    return exact, cells


def _certified_sign(g, a, b, d):
    """The one sign of the integer polynomial g (degree >= 1) on all of
    [a/d, b/d], a < b, when one evaluation proves it; else None.

    G = d^deg g(b/d) (``_homogeneous``), and B = sum i |g_i| M^(i-1)
    d^(deg-i), with M = max(|a|, |b|), bounds d^(deg-1) |g'| there.  By
    the mean value theorem d^deg |g(x) - g(b/d)| <= (b - a) B, so
    |G| > (b - a) B keeps g off 0 on the interval, with the sign of G."""
    value = _homogeneous(g, b, d)
    bound = _homogeneous([i * abs(x) for i, x in enumerate(g)][1:],
                         max(abs(a), abs(b)), d)
    if abs(value) > (b - a) * bound:
        return 1 if value > 0 else -1
    return None


def sign_at_root(g, c, cell, sequences):
    """Exact sign (+1, -1 or 0) of the trimmed integer polynomial g at the
    root of the square-free integer c that ``cell`` holds.  At an exact
    root it is read off.  On a cell it is certified by one evaluation at
    the high end and a bound on g' (``_certified_sign``).  Where that
    fails, as when g vanishes at the root or its coefficients are large
    and cancel, a root at the high end is read exactly, and otherwise the
    sign is the Tarski query of g on the cell (``tarski_sequence``), which
    assumes neither end is a root.

    ``sequences``, a dict owned by the caller, keeps the Tarski sequence of
    each g with this one c, so that it serves every root; g and -g share
    one, as the query of -g is minus that of g."""
    if len(g) < 2:
        return (g[0] > 0) - (g[0] < 0) if g else 0
    a, b, d = cell
    if a == b:
        return _sign_at(g, a, d)
    certified = _certified_sign(g, a, b, d)
    if certified is not None:
        return certified
    if _sign_at(c, b, d) == 0:
        return _sign_at(g, b, d)
    lead = 1 if g[-1] > 0 else -1
    key = tuple(lead * v for v in g)
    seq = sequences.get(key)
    if seq is None:
        seq = sequences[key] = tarski_sequence(c, key)
    at_lo = [_sign_at(p, a, d) for p in seq]
    if at_lo[0] == 0:
        raise ValueError("interval end %s is a root of the constraint"
                         % Fraction(a, d))
    return lead * (_variations(at_lo) -
                   _variations([_sign_at(p, b, d) for p in seq]))


# ---------------------------------------------------------------------------
# unfolding construction
# ---------------------------------------------------------------------------

FAMILY_B_CN = {2: 6, 3: 10, 4: 15, 5: 21}


# The largest family A degree: a request at l = 64 takes seconds.
MAX_L = 32
# The largest size of a request's parameters, summed over all of them:
# each counts the bits of its numerator and of its denominator, less one
# (an integer counts its own bits).  Root isolation works on the
# constraint cleared of denominators, whose coefficients grow with this
# sum, so one bound on each parameter would not do.  At this bound the
# slowest request found (family A, l = MAX_L, n = 2..5, 4 to 16 of the
# parameters +-1/d with distinct odd d) ends within a second, and no
# printed integer nears the 4300 digits int() converts.
MAX_PARAM_BITS = 352


def param_count(family, l):
    """Number of unfolding parameters of a family ('A', 'B' or 'C'):
    l - 1 for family A (2 <= l <= MAX_L), one for B, two for C (no l)."""
    if family == "A":
        if l is None or not 2 <= l <= MAX_L:
            raise ValueError("family A needs 2 <= l <= %d (the cap), "
                             "got l = %s" % (MAX_L, l))
        return l - 1
    if l is not None:
        raise ValueError("family %s takes no l, got l = %s" % (family, l))
    return {"B": 1, "C": 2}[family]


def parse_rational(text):
    """The rational a parameter or grid bound spells, read as a constant
    of the germ format (``parse_number``), so its digit limit and power
    budget hold here too; decimals and exponents such as 1.5 or 1e5 are
    not numbers of it.  A refused value is a ValueError that quotes it."""
    try:
        return parse_number(text)
    except ParseError as e:
        raise ValueError("%s in %r" % (e.message, text)) from None


def _checked_count(family, n, l):
    """param_count(family, l) for a family 'A', 'B' or 'C' and n in 2..5;
    a ValueError names the first argument out of range."""
    if family not in ("A", "B", "C"):
        raise ValueError("family must be A, B or C")
    if not 2 <= n <= 5:
        raise ValueError("n must be in 2..5")
    return param_count(family, l)


class UnfoldingSpec(_Frozen):
    """family 'A' | 'B' | 'C'; n in 2..5; 2 <= l <= MAX_L (family A only);
    u = parameter values (length l-1 for A, 1 for B, 2 for C), of at most
    MAX_PARAM_BITS bits in all.  A value given as a str is read by
    ``parse_rational``, so an over-long one is refused before it is
    computed."""

    __slots__ = ("family", "n", "l", "u")

    def __init__(self, family, n, u, l=None):
        family = family.upper()
        count = _checked_count(family, n, l)
        u = tuple(parse_rational(v) if isinstance(v, str) else rat(v)
                  for v in u)
        bits = sum(v.numerator.bit_length() + v.denominator.bit_length() - 1
                   for v in u)
        if bits > MAX_PARAM_BITS:
            raise ValueError("parameters of %d bits in all, over the limit "
                             "of %d (numerators plus denominators)"
                             % (bits, MAX_PARAM_BITS))
        if len(u) != count:
            raise ValueError("family %s needs %d parameter(s), got %d"
                             % (family, count, len(u)))
        _Frozen.__init__(self, family, n, l, u)

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


# the rows of q as printed, keyed by (family, n); qbar is family A's
# qbar(xn, u), which depends on l
Q_FORMULAS = {
    ("A", 2): "t^3 + qbar*t",
    ("A", 3): "t^4 + x2*t + qbar*t^2",
    ("A", 4): "t^5 + x2*t + x3*t^2 + qbar*t^3",
    ("A", 5): "t^6 + x2*t + x3*t^2 + x4*t^3 + qbar*t^4",
    ("B", 2): "t^4 + x2*t + u0*t^2",
    ("B", 3): "t^5 + x2*t + x3*t^2 + u0*t^3",
    ("B", 4): "t^6 + x2*t + x3*t^2 + x4*t^3 + u0*t^4",
    ("B", 5): "t^7 + x2*t + x3*t^2 + x4*t^3 + x5*t^4 + u0*t^5",
    ("C", 2): "t^4 + (x2^2 + u0 + u1*x2)*t + x2*t^2",
    ("C", 3): "t^5 + x2*t + (x3^2 + u0 + u1*x3)*t^2 + x3*t^3",
    ("C", 4): "t^6 + x2*t + x3*t^2 + (x4^2 + u0 + u1*x4)*t^3 + x4*t^4",
    ("C", 5): "t^7 + x2*t + x3*t^2 + x4*t^3 + (x5^2 + u0 + u1*x5)*t^4"
              " + x5*t^5",
}


@cache
def _q(family, n, l):
    """The first unfolding component q, the row ``Q_FORMULAS[(family,
    n)]``, as a Poly in (t, x2, ..., xn, u0, ...).  A family A row names
    qbar, family A's constraint ``_qbar(l)`` at s = xn."""
    names = ["t"] + ["x%d" % i for i in range(2, n + 1)] + \
        ["u%d" % i for i in range(param_count(family, l))]
    if family != "A":
        return parse_poly(Q_FORMULAS[(family, n)], names)
    reps = [Poly.var(i, len(names)) for i in range(1, len(names) + 1)]
    reps.append(_qbar(l).subs(reps[n - 1:]))
    return parse_poly(Q_FORMULAS[(family, n)], names + ["qbar"]).subs(reps)


def build_unfolding(spec):
    """F_u = (q(t, x, u), x2, ..., xn): the parameter values put into the
    cached q (``_q``) term by term (``_with_params``), no Poly product."""
    n = spec.n
    q = {e: c for e, c in _with_params(_q(spec.family, n, spec.l),
                                       spec.u).items() if c}
    return MapGerm([Poly._trusted(n, q)] +
                   [Poly.var(i, n) for i in range(2, n + 1)], src_dim=n)


# ---------------------------------------------------------------------------
# the Morin-point curve and the criteria on it, as printed rows
# ---------------------------------------------------------------------------

# What the Morin points of one (family, n) share, as printed, in (t, u0[,
# u1]): the curve's source coordinates (t, x2, ..., xn), the constraint,
# and the classifier's criteria eta^n lambda and det grad(lambda, ...,
# eta^{n-1} lambda) restricted to the curve.  Family A's curve is t = x2 =
# ... = x_{n-1} = 0, xn = s, with t standing for s; its rows name qbar, the
# constraint qbar(s, u), and qbar_x<n>, its derivative d/ds (``_qbar``).
CRITERIA_FORMULAS = {
    ("A", 2): (("0", "t"), "qbar", "6", "-6*qbar_x2"),
    ("A", 3): (("0", "0", "t"), "qbar", "24", "48*qbar_x3"),
    ("A", 4): (("0", "0", "0", "t"), "qbar", "120", "-1440*qbar_x4"),
    ("A", 5): (("0", "0", "0", "0", "t"), "qbar", "720", "207360*qbar_x5"),
    ("B", 2): (("t", "-4*t^3 - 2*t*u0"), "12*t^2 + 2*u0", "24*t", "-24*t"),
    ("B", 3): (("t", "15*t^4 + 3*t^2*u0", "-10*t^3 - 3*t*u0"),
               "60*t^2 + 6*u0", "120*t", "240*t"),
    ("B", 4): (("t", "-36*t^5 - 4*t^3*u0", "45*t^4 + 6*t^2*u0",
                "-20*t^3 - 4*t*u0"),
               "360*t^2 + 24*u0", "720*t", "-8640*t"),
    ("B", 5): (("t", "70*t^6 + 5*t^4*u0", "-126*t^5 - 10*t^3*u0",
                "105*t^4 + 10*t^2*u0", "-35*t^3 - 5*t*u0"),
               "2520*t^2 + 120*u0", "5040*t", "1451520*t"),
    ("C", 2): (("t", "-6*t^2"),
               "36*t^4 - 8*t^3 - 6*t^2*u1 + u0", "24*t",
               "288*t^3 - 48*t^2 - 24*t*u1"),
    ("C", 3): (("t", "-200*t^5 + 25*t^4 + 20*t^3*u1 - 2*t*u0", "-10*t^2"),
               "200*t^4 - 40*t^3 - 20*t^2*u1 + 2*u0", "120*t",
               "-4800*t^3 + 720*t^2 + 240*t*u1"),
    ("C", 4): (("t", "675*t^6 - 96*t^5 - 45*t^4*u1 + 3*t^2*u0",
                "-675*t^5 + 75*t^4 + 45*t^3*u1 - 3*t*u0", "-15*t^2"),
               "1350*t^4 - 240*t^3 - 90*t^2*u1 + 6*u0", "720*t",
               "259200*t^3 - 34560*t^2 - 8640*t*u1"),
    ("C", 5): (("t", "-1764*t^7 + 245*t^6 + 84*t^5*u1 - 4*t^3*u0",
                "2646*t^6 - 336*t^5 - 126*t^4*u1 + 6*t^2*u0",
                "-1764*t^5 + 175*t^4 + 84*t^3*u1 - 4*t*u0", "-21*t^2"),
               "10584*t^4 - 1680*t^3 - 504*t^2*u1 + 24*u0", "5040*t",
               "-60963840*t^3 + 7257600*t^2 + 1451520*t*u1"),
}


def _qbar(l):
    """Family A's qbar(s, u) = s^l + u0 + u1*s + ... + u_{l-2}*s^{l-2}, a
    Poly in (s, u0, ..., u_{l-2})."""
    terms = {(l,) + (0,) * (l - 1): Fraction(1)}
    for i in range(l - 1):
        terms[(i,) + (0,) * i + (1,) + (0,) * (l - 2 - i)] = Fraction(1)
    return Poly._trusted(l, terms)


def _read_rows(family, n, l, texts):
    """The printed rows ``texts`` as Polys in (t, u0, u1, ...), each read by
    ``parse_poly``.  A family A row may name qbar and qbar_x<n>
    (``CRITERIA_FORMULAS``), which stand for ``_qbar(l)`` and its d/ds."""
    names = ["t"] + ["u%d" % i for i in range(param_count(family, l))]
    if family != "A":
        return tuple(parse_poly(text, names) for text in texts)
    qbar = _qbar(l)
    reps = [Poly.var(i, l) for i in range(1, l + 1)] + [qbar, qbar.partial(1)]
    names += ["qbar", "qbar_x%d" % n]
    return tuple(parse_poly(text, names).subs(reps) for text in texts)


@cache
def curve_criteria(family, n, l):
    """What the Morin points of one (family, n[, l]) share, whatever the
    parameter values: (sigma, constraint, etak, detgrad, row), the rows
    ``CRITERIA_FORMULAS[(family, n)]`` and ``INV_FORMULAS[(family, n)]``
    read once per key (``_read_rows``), all in (t, u...).  ``sigma`` is
    the curve's n source coordinates, as Polys; the constraint, eta^n
    lambda, det grad and each slot of the inv row (``_inv_row``) are
    cleared of denominators for ``_at_params`` (``_integer_terms``)."""
    coords, *criteria = CRITERIA_FORMULAS[(family, n)]
    return (_read_rows(family, n, l, coords),
            *map(_integer_terms, _read_rows(family, n, l, criteria)),
            tuple(map(_integer_terms, _inv_row(family, n, l))))


# No caller: the benchmark's tracer (bench/tracing.py) patches this name
# by lookup, so it stays until the tracer stops naming it.
def _vanishing_on_curve(on_curve, constraint):
    """True when every Poly of ``on_curve`` is 0 or a rational constant
    times ``constraint``: an identity in Q[t, u], so the curve satisfies
    the equations at every parameter value."""
    lead = max(constraint.terms)
    return all(p == constraint.scale(p.terms.get(lead, 0) /
                                     constraint.terms[lead])
               for p in on_curve)


def _with_params(p, u):
    """The terms of a Poly in (v..., u0, u1, ...) at the parameter values
    ``u``: {exponents in v: rational coefficient}, a zero sum kept.  Only
    the unfolding at an exact root (``build_unfolding``) is built this
    way; ``_at_params`` puts the parameters into the criteria."""
    k = p.nvars - len(u)
    out = {}
    for expo, coef in p.terms.items():
        for ui, e in zip(u, expo[k:]):
            if e:
                coef *= ui ** e
        head = expo[:k]
        out[head] = out.get(head, 0) + coef
    return out


def _integer_terms(p):
    """A Poly in (t, u0, u1, ...) cleared of denominators, a positive
    multiple, as (size, degrees, terms): ``size`` its length in t,
    ``degrees`` its degree D_i in each u_i, and ``terms`` one (power of
    t, int coefficient, exponents in u) per term, in the order of their
    exponents, so that equal Polys give equal forms."""
    expos = sorted(p.terms)
    degrees = tuple(max(e[i] for e in expos) if expos else 0
                    for i in range(1, p.nvars))
    return (p.degree_in(1) + 1, degrees,
            [(e[0], c, e[1:]) for e, c in
             zip(expos, clear_denominators([p.terms[e] for e in expos]))])


def _at_params(form, u):
    """The primitive integer coefficient list in t (``up_integer``) of a
    polynomial cleared by ``_integer_terms``, at the parameter values
    ``u``, on ints alone.  With u_i = a_i/b_i, b_i > 0, each u_i^e goes in
    as a_i^e b_i^(D_i - e): every term is scaled by the same product of
    the b_i^D_i, a positive multiple that the gcd takes out."""
    size, degrees, terms = form
    weights = [[v.numerator ** e * v.denominator ** (d - e)
                for e in range(d + 1)] for v, d in zip(u, degrees)]
    out = [0] * size
    for i, c, e in terms:
        out[i] += c * prod(map(getitem, weights, e))
    return _primitive(up_trim(out))


def curve_data(spec):
    """The parameters of a request put into what its points share
    (``curve_criteria``): (sigma, constraint, etak, detgrad, row).  sigma
    stays in (t, u...), for exact roots only; the others become primitive
    integer coefficient lists in t (``_at_params``), the inv row a tuple
    of them."""
    sigma, *criteria, row = curve_criteria(spec.family, spec.n, spec.l)
    return (sigma, *(_at_params(f, spec.u) for f in criteria),
            tuple(_at_params(f, spec.u) for f in row))


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


def _inv_row(family, n, l):
    """The slots of the printed row ``INV_FORMULAS[(family, n)]`` as Polys
    in (t, u0[, u1, ...]), each slot read by ``_read_rows``.  A family A
    row may name qbar_x<n>, d/ds of the family's constraint."""
    text = INV_FORMULAS[(family, n)]
    # a row with a comma is a pair "(a, b)": no polynomial holds a comma
    return _read_rows(family, n, l,
                      text[1:-1].split(",") if "," in text else [text])


def table_invariant(spec, row, sign):
    """Expected invariant tuple at a root of the constraint: the signs
    there, by ``sign`` (a function of a coefficient list), of the inv
    row's polynomials (``_inv_row``) at the request's parameters, ``row``
    as ``curve_data`` gives it.

    The published n=4 pairs for families A and B are (eps1*eps2, eps2);
    the classifier's pair is (sign eta^4 lambda, sign det grad) =
    (eps1*eps2, -eps2), so their second slot is negated before comparing.
    The family C n=4 row tracks sign det grad directly (verified on-curve
    against the classifier), so it is compared as printed.
    """
    signs = [sign(p) for p in row]
    if spec.n == 4 and spec.family != "C":
        signs[1] = -signs[1]
    return (invariant_kind(spec.n, spec.n),
            signs[0] if len(signs) == 1 else tuple(signs))


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
        _Frozen.__init__(self, t, exact, location, k, tuple(invariant_value),
                         tuple(table_value), verified)


class PerturbationReport(_Frozen):
    __slots__ = ("spec", "points", "count", "c_f_bound", "stable", "notes")

    def __init__(self, spec, points, stable, notes):
        _Frozen.__init__(self, spec, tuple(points), len(points),
                         spec.c_f_bound(), stable, tuple(notes))


def _classifier_invariant_on_curve(n, criteria, sign):
    """Invariant tuple from the classifier's own quantities (``criteria``,
    eta^n lambda and det grad as coefficient lists), their signs taken
    exactly at a root of the constraint by ``sign``; None where either one
    vanishes."""
    s_etak, s_det = map(sign, criteria)
    if s_etak == 0 or s_det == 0:
        return None
    return invariant_value(invariant_kind(n, n), s_etak, s_det)


def morin_points(spec, precision_bits=DEFAULT_PRECISION_BITS):
    """Enumerate the n-Morin points of the perturbation described by
    ``spec``.  See the module docstring for the method."""
    n = spec.n
    sigma, constraint, etak, detgrad, row = curve_data(spec)
    notes = []
    stable = True
    sf, chain = up_squarefree(constraint)
    if up_deg(sf) < up_deg(constraint):
        stable = False
        notes.append("non-stable parameter: the constraint has repeated roots")
    exact, cells = rational_roots(sf, chain, precision_bits)
    remaining = sf
    for p, _, q in exact:
        remaining = up_quotient(remaining, [-p, q])
    # the cells of irrational roots come from ``remaining`` (rational roots
    # divided out), so all cell arithmetic below must use ``remaining``
    # too; having no rational root, it never collapses a cell to a point.
    # Without rational roots ``remaining`` is sf, already refined above.
    if exact:
        cells = [refine_root(remaining, cell,
                             _levels(cell, 1, 1 << precision_bits))
                 for cell in isolate_real_roots(remaining,
                                                sturm_chain(remaining))]
    if spec.family in ("B", "C"):
        if (0, 0, 1) in exact:
            exact.remove((0, 0, 1))
            notes.append("root t=0 excluded (not a Morin point)")
        kept = []
        for cell in cells:
            # halve until the cell excludes 0 (0 is not a root here)
            while cell[0] <= 0 <= cell[1]:
                cell = refine_root(remaining, cell, 1)
            kept.append(cell)
        cells = kept
    points = []
    # Tarski sequences with ``remaining`` for the signs no evaluation
    # certifies, one per polynomial, this request only
    sequences = {}
    F = None
    for cell in exact + cells:
        sign = partial(sign_at_root, c=remaining, cell=cell,
                       sequences=sequences)
        inv = _classifier_invariant_on_curve(n, (etak, detgrad), sign)
        if inv is None:
            stable = False
            notes.append("degenerate point (a criterion quantity vanishes)")
            continue
        tbl = table_invariant(spec, row, sign)
        verified = (inv == tbl)
        a, b, d = cell
        t = Fraction(a, d)
        if a == b:
            location = [p.eval((t,) + spec.u) for p in sigma]
            if F is None:
                F = build_unfolding(spec)
            res = recognize_morin(translate(F, location))
            verified = verified and res.k == n and res.invariant == inv
        else:
            t = (t, Fraction(b, d))
            location = [t]
        points.append(MorinPoint(t, a == b, location, n, inv, tbl, verified))
    return PerturbationReport(spec, points, stable, notes)


def sweep(family, n, grid, l=None, precision_bits=DEFAULT_PRECISION_BITS):
    """Run morin_points over a finite grid of parameter tuples.

    Returns (reports, summary); summary gives the max count observed and
    whether the family bound c(f) was attained.  Degenerate grid points
    are flagged in their reports, never fatal.  family, n and l are
    checked as UnfoldingSpec checks them, also when the grid is empty."""
    family = family.upper()
    _checked_count(family, n, l)
    specs = [UnfoldingSpec(family, n, u, l=l) for u in grid]
    reports = [morin_points(spec, precision_bits=precision_bits)
               for spec in specs]
    max_count = max((r.count for r in reports), default=0)
    bound = specs[0].c_f_bound() if specs else None
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

# the equations (family C) and coordinate rows exactly as printed in the
# source tables, in (t, u0[, u1]); family B's rows are pure polynomials in
# t, after t^2 = -u0/c_n
_PRINTED = {
    ("B", 2): {"x2": "8*t^3"},
    ("B", 3): {"x2": "105*t^4", "x3": "-40*t^3"},
    ("B", 4): {"x2": "24*t^5", "x3": "-45*t^4", "x4": "40*t^3"},
    ("B", 5): {"x2": "-35*t^6", "x3": "84*t^5", "x4": "-105*t^4",
               "x5": "70*t^3"},
    ("C", 2): {"constraint": "36*t^4 - 8*t^3 - 6*t^2*u1 + u0",
               "x2": "-6*t^2"},
    ("C", 3): {"constraint": "100*t^4 - 20*t^3 - 10*t^2*u1 + u0",
               "x2": "25*t^4 - 200*t^5 + 20*t^3*u1 - 2*t*u0",
               "x3": "-10*t^2"},
    ("C", 4): {"constraint": "255*t^4 - 40*t^3 - 15*t^2*u1 + u0",
               "x2": "675*t^6 - 96*t^5 - 45*t^4*u1 + 3*t^2*u0",
               "x3": "-675*t^5 + 75*t^4 + 45*t^3*u1 - 3*t*u0",
               "x4": "-15*t^2"},
    ("C", 5): {"constraint": "441*t^4 - 70*t^3 - 21*t^2*u1 + u0",
               "x2": "-4*t^3*u0 + 84*t^5*u1 + 245*t^6 - 1764*t^7",
               "x3": "2640*t^6 - 336*t^5 - 126*t^4*u1 + 6*t^2*u0",
               "x4": "-1764*t^5 + 175*t^4 + 84*t^3*u1 - 4*t*u0",
               "x5": "-21*t^2"},
}


def table_discrepancy_report():
    """Compare every constraint equation and coordinate formula of the
    printed family B and C tables (``_PRINTED``) with the curve the lab
    itself uses (``CRITERIA_FORMULAS``).  Coordinates are compared with u0
    solved from the constraint, a*u0 + b with a constant.  Returns a list
    of entries {family, n, item, printed, derived, match}; mismatches are
    the published typos, surfaced rather than silently corrected."""
    entries = []
    for (family, n), printed in _PRINTED.items():
        coords, equation = CRITERIA_FORMULAS[(family, n)][:2]
        constraint, *sigma = _read_rows(family, n, None, (equation,) + coords)
        names = _tu_names(constraint.nvars)
        reps = [Poly.var(i, len(names)) for i in range(1, len(names) + 1)]
        reps[1] = reps[1] - constraint.scale(
            1 / constraint.partial(2).constant_term())
        for item, text in printed.items():
            p = parse_poly(text, names)
            if item == "constraint":
                pair = _normalize_primitive(p), _normalize_primitive(constraint)
            else:
                pair = p.subs(reps), sigma[int(item[1:]) - 1].subs(reps)
            entries.append(_compare(family, n, item, *pair))
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

def _rat_decimal(num, den):
    """num/den, den > 0, truncated to 12 decimals, on integers."""
    sign = "-" if num < 0 else ""
    s = str(abs(num) * 10 ** 12 // den).rjust(13, "0")
    return "%s%s.%s" % (sign, s[:-12], s[-12:])


def point_to_dict(p):
    if p.exact:
        t_field = {"exact": _rat_str(p.t),
                   "approx": _rat_decimal(p.t.numerator, p.t.denominator)}
        loc = [_rat_str(v) for v in p.location]
    else:
        lo, hi = p.t
        t_field = {"interval": [_rat_str(lo), _rat_str(hi)],
                   "approx": _rat_decimal(lo.numerator * hi.denominator +
                                          hi.numerator * lo.denominator,
                                          2 * lo.denominator * hi.denominator)}
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
