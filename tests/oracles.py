"""Reference implementations that tests compare the library against.

``eta_chain_label`` is the Morin recognition of the eta-chain route: lambda
and the null field eta from one adjugate column of the Jacobian
(``germ.analyze``), the chain lambda, eta lambda, ..., eta^n lambda as
polynomial jets, and its values and gradients at the origin.  It reads
the germ in its own coordinates, with any null field a test passes, and
shares with the library's prepared-form route only the invariant rule
``morin.morin_invariants``.

``sign_at_root`` is the refinement-based sign of a polynomial at a root of
a constraint: it bisects the isolating interval until g has no root left
in it, then reads g's sign at the ends.  It runs on rational arithmetic
throughout, with its own Sturm chain, count and bisection, so it shares no
code with the library's integer signs and Tarski queries."""

from math import lcm

from germlab.germ import (GermError, NotCorankOneError, DegenerateGermError,
                          analyze, null_field)
from germlab.morin import (ClassLabel, _sign, eta_lambda_chain,
                           morin_invariants)
from germlab.polyring import rational_rank
from germlab.perturb import (up_deg, up_deriv, up_eval, up_gcd, up_neg,
                             up_rem, up_squarefree, up_trim)


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
                                % ana.corank0, ana.corank0)
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

