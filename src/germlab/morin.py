"""Recognition of k-Morin singularities and their isotopy-class labels.

The classifier computes, exactly:
  * the unique k with lambda(0) = eta lambda(0) = ... = eta^{k-1} lambda(0) = 0
    and eta^k lambda(0) != 0,
  * the rank of d(lambda, eta lambda, ..., eta^{k-1} lambda)(0) (must be k),
  * the sign invariants that separate classes, which depend on k, n and
    n mod 4 (when k = n) or on the parity of k (when k < n).

All of these are read from the prepared form (``germ.prepared_form``), in
which eta = d/du and the chain is a list of coefficients.  Class equality
is decided purely by comparing the invariant tuples; the signed
normal-form representative is attached for reference.
"""

import functools

from .polyring import Poly, _Frozen, dir_deriv, integer_det, integer_kernel
from .germ import (MapGerm, prepared_form, NotCorankOneError,
                   DegenerateGermError)


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
    no part in equality, hashing or the printed and JSON forms.  A Morin
    germ's witness signs are read in the prepared coordinates of
    ``germ.prepared_form``, so they may differ from the signs in the
    germ's own coordinates by the orientation of eta; the label does not.
    """

    __slots__ = ("family", "signs", "normal_form", "k", "invariant",
                 "witness")

    def __init__(self, family, signs=(None, None), normal_form=None,
                 k=None, invariant=("none",), witness=None):
        _Frozen.__init__(self, family, tuple(signs), normal_form, k,
                         tuple(invariant), dict(witness or {}))

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


@functools.cache
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
    gradients at 0 of links j < count are exact.  ``recognize_morin``
    reads these values from the prepared form instead; the eta-chain
    reference route of the tests builds the chain here."""
    chain = [lam.truncate(count)]
    for j in range(1, count + 1):
        chain.append(dir_deriv(chain[-1], eta, count - j))
    return chain


def recognize_morin(f):
    """The ClassLabel of a Morin germ: find k per the recognition criteria,
    then its invariants, all read from ``prepared_form(f)``.  Raises
    DegenerateGermError if no k <= n works or the rank condition fails,
    NotCorankOneError for corank >= 2, whose corank the prepared form
    keeps.  A regular germ (corank 0) yields k = 0 / family 'regular'."""
    if f.src_dim != f.tgt_dim:
        raise NotCorankOneError("Morin recognition needs an equidimensional germ")
    n = f.src_dim
    prep = prepared_form(f)
    if prep.corank == 0:
        return ClassLabel("regular", k=0)
    if prep.corank >= 2:
        raise NotCorankOneError("not corank one at 0 (corank %d)"
                                % prep.corank)
    # lambda(0) = 0 is guaranteed by corank >= 1
    k = next((j for j in range(1, n + 1) if prep.chain_value(j)), None)
    if k is None:
        raise DegenerateGermError(
            "no k <= n with eta^k lambda(0) != 0; not a Morin singularity")
    # Row j < k - 1 of the gradients starts with (j+2)! curve[j+2] =
    # eta^(j+1) lambda(0) = 0, and row k - 1 with eta^k lambda(0): by a
    # Laplace expansion along that column, the rank and the determinant
    # are those of the rows j < k - 1 and (eta^k lambda(0), 0, ..., 0).
    eta_k_lambda = prep.chain_value(k)
    return morin_invariants(n, k, eta_k_lambda,
                            [prep.chain_gradient(j) for j in range(k - 1)] +
                            [[eta_k_lambda] + [0] * (n - 1)])


def morin_invariants(n, k, eta_k_lambda, grad_rows):
    """The ClassLabel of a k-Morin germ in n variables from its criterion
    values: eta_k_lambda = eta^k lambda(0) != 0 and ``grad_rows``, the
    integer rows d(eta^j lambda)(0) for j < k (positive multiples of them
    do as well: only signs are read).  Its invariant (see
    ``invariant_kind``) and the signed normal form that carries it.
    Raises DegenerateGermError if the rows have rank below k; at k = n
    that is det = 0, read from the one elimination that gives the sign."""
    s_etak = _sign(eta_k_lambda)
    s_det = _sign(integer_det(grad_rows)) if k == n else None
    if s_det == 0 or k < n and integer_kernel(grad_rows)[0] < k:
        raise DegenerateGermError(
            "rank d(lambda,...,eta^{k-1} lambda)(0) < k; not Morin (degenerate)")
    kind = invariant_kind(k, n)
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
    s_det = sign det grad(lambda, ..., eta^{k-1} lambda)."""
    if kind == "eta2f":
        # n = 1: lambda = f', so det grad = lambda'(0) = f''(0), whose sign
        # is that of eta eta f(0) = eta(0)^2 f''(0) whichever way eta points
        return (kind, s_det)
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
