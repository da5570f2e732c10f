"""Recognition of k-Morin singularities and their isotopy-class labels.

The classifier computes, exactly:
  * the unique k with lambda(0) = eta lambda(0) = ... = eta^{k-1} lambda(0) = 0
    and eta^k lambda(0) != 0,
  * the rank of d(lambda, eta lambda, ..., eta^{k-1} lambda)(0) (must be k),
  * the sign invariants that separate classes, which depend on k, n and
    n mod 4 (when k = n) or on the parity of k (when k < n).

Class equality is decided purely by comparing the invariant tuples; the
signed normal-form representative is attached for reference.
"""

from .polyring import Poly, _Frozen, rational_det, rational_rank
from .germ import (MapGerm, analyze, null_field,
                   NotCorankOneError, DegenerateGermError)


def _sign(x):
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class ClassLabel(_Frozen):
    """Singularity family + the sign invariants that pin the isotopy class.

    ``signs`` is the pair (eps1, eps2) of the attached normal-form
    representative; entries are +1/-1 or None when irrelevant.  Two labels
    are equal iff family, k and all relevant signs agree.  ``witness``
    holds the raw criterion signs the label was read from (e.g.
    ``eta_k_lambda_sign`` and ``grad_det_sign`` for a Morin germ); it takes
    no part in equality, hashing or the printed and JSON forms.
    """

    __slots__ = ("family", "signs", "normal_form", "k", "invariant",
                 "witness")

    def __init__(self, family, signs=(None, None), normal_form=None,
                 k=None, invariant=("none",), witness=None):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "signs", tuple(signs))
        object.__setattr__(self, "normal_form", normal_form)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "invariant", tuple(invariant))
        object.__setattr__(self, "witness", dict(witness or {}))

    def key(self):
        return (self.family, self.k, self.signs)

    def __eq__(self, other):
        if not isinstance(other, ClassLabel):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "ClassLabel(%s)" % self.describe()

    def describe(self):
        bits = [self.family]
        names = ("eps1", "eps2")
        for name, s in zip(names, self.signs):
            if s is not None:
                bits.append("%s=%+d" % (name, s))
        return " ".join(bits)


FAMILY_NAMES = {1: "fold", 2: "cusp", 3: "swallowtail", 4: "butterfly"}


def family_name(k):
    return FAMILY_NAMES.get(k, "morin-%d" % k)


def normal_form(k, n, eps1=1, eps2=1):
    """The signed k-Morin normal form in n variables.

    k = 1: (eps1*x1^2, x2, ..., xn).
    k >= 2: (eps1*(eps2*x2*x1 + x3*x1^2 + ... + xk*x1^{k-1} + x1^{k+1}),
             eps2*x2, x3, ..., xn).
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if eps1 not in (1, -1) or eps2 not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    x = [Poly.var(i, n) for i in range(1, n + 1)]
    if k == 1:
        comps = [x[0] ** 2 if eps1 == 1 else -(x[0] ** 2)] + x[1:]
        return MapGerm(comps, src_dim=n)
    first = x[1] * x[0]
    if eps2 == -1:
        first = -first
    for j in range(3, k + 1):
        first = first + x[j - 1] * x[0] ** (j - 1)
    first = first + x[0] ** (k + 1)
    if eps1 == -1:
        first = -first
    second = x[1] if eps2 == 1 else -x[1]
    comps = [first, second] + x[2:]
    return MapGerm(comps, src_dim=n)


def eta_lambda_chain(lam, eta, count):
    """[lambda, eta lambda, ..., eta^count lambda], link j kept to degree
    count - j.  Each application of eta lowers the degree by one, so link j
    is exact to that degree, and the values at 0 of every link and the
    gradients at 0 of links j < count are exact."""
    chain = [lam.truncate(count)]
    for j in range(1, count + 1):
        chain.append(eta.apply(chain[-1], count - j))
    return chain


def recognize_morin(f, analysis=None, eta=None):
    """The ClassLabel of a Morin germ: find k per the recognition criteria,
    then its invariants.  Raises DegenerateGermError if no k <= n works or
    the rank condition fails, NotCorankOneError for corank >= 2.  A regular
    germ (corank 0) yields k = 0 / family 'regular'."""
    ana = analysis or analyze(f)
    if f.src_dim != f.tgt_dim:
        raise NotCorankOneError("Morin recognition needs an equidimensional germ")
    n = f.src_dim
    if ana.corank0 == 0:
        return ClassLabel("regular", k=0)
    if ana.corank0 >= 2:
        raise NotCorankOneError("not corank one at 0 (corank %d)" % ana.corank0)
    eta = eta or null_field(f, ana)
    chain = eta_lambda_chain(ana.lam, eta, n)
    origin = f.origin()
    values = [c.eval(origin) for c in chain]
    k = None
    for j in range(1, n + 1):
        if values[j] != 0:
            k = j
            break
        # values[0] = lambda(0) = 0 is guaranteed by corank >= 1
    if k is None:
        raise DegenerateGermError(
            "no k <= n with eta^k lambda(0) != 0; not a Morin singularity")
    grad_rows = [chain[j].gradient_at(origin) for j in range(k)]
    if rational_rank(grad_rows) != k:
        raise DegenerateGermError(
            "rank d(lambda,...,eta^{k-1} lambda)(0) < k; not Morin (degenerate)")
    return morin_invariants(f, k, eta, chain)


def morin_invariants(f, k, eta, chain):
    """The ClassLabel of a recognized k-Morin germ: its invariant (see
    ``invariant_kind``) and the signed normal form that carries it."""
    n = f.src_dim
    origin = f.origin()
    s_etak = _sign(chain[k].eval(origin))
    s_det = None
    if k == n:
        rows = [chain[j].gradient_at(origin) for j in range(n)]
        s_det = _sign(rational_det(rows))
    kind = invariant_kind(k, n)
    if kind == "eta2f":
        # sign f''(0) as eta eta f1 at 0: unlike eta lambda it does not
        # flip with the orientation of eta
        f1 = f.components[0]
        invariant = (kind, _sign(eta.apply(eta.apply(f1)).eval(origin)))
    else:
        invariant = invariant_value(kind, s_etak, s_det)
    signs = _NORMAL_FORM_SIGNS[kind](invariant[-1])
    rep = normal_form(k, n, *(1 if e is None else e for e in signs))
    return ClassLabel(family_name(k), signs, rep, k, invariant,
                      {"eta_k_lambda_sign": s_etak, "grad_det_sign": s_det})


def invariant_kind(k, n):
    """Which invariant combination separates the classes of k-Morin germs
    in n variables:
      k < n:  k even -> 'etaklam' (sign eta^k lambda); k odd -> 'none'.
      k = n:  n = 1 -> 'eta2f' (sign of f''(0));
              n%4 == 0 -> 'pair' (sign eta^n lambda, sign det grad chain);
              n%4 == 1 -> 'detgrad' (sign det grad);
              n%4 == 2 -> 'etaklam' (sign eta^n lambda);
              n%4 == 3 -> 'prod' (sign(eta^n lambda * det grad))."""
    if k < n:
        return "etaklam" if k % 2 == 0 else "none"
    if n == 1:
        return "eta2f"
    return ("pair", "detgrad", "etaklam", "prod")[n % 4]


def invariant_value(kind, s_etak, s_det):
    """The invariant tuple of ``kind`` from s_etak = sign eta^k lambda and
    s_det = sign det grad(lambda, ..., eta^{k-1} lambda) ('eta2f' reads
    its own sign, see ``morin_invariants``)."""
    if kind == "none":
        return ("none",)
    if kind == "pair":
        return (kind, (s_etak, s_det))
    if kind == "detgrad":
        return (kind, s_det)
    if kind == "prod":
        return (kind, s_etak * s_det)
    return (kind, s_etak)


# invariant kind -> the (eps1, eps2) of the normal form whose invariant
# tuple ends in v (its value; 'none' has none and ignores v)
_NORMAL_FORM_SIGNS = {
    "none": lambda v: (None, None),
    "eta2f": lambda v: (v, None),
    "etaklam": lambda v: (v, 1),
    "detgrad": lambda v: (v, 1),
    "prod": lambda v: (1, v),
    "pair": lambda v: (-v[0] * v[1], -v[1]),
}


def class_count(k, n):
    """Number of isotopy classes for k-Morin germs in n variables."""
    return {"none": 1, "pair": 4}.get(invariant_kind(k, n), 2)
