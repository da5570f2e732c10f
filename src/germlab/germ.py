"""Map-germ container and the shared geometric primitives:
Jacobian, rank/corank at the origin, lambda (= det Jacobian) and the
null vector field eta from one adjugate column, and point translation.

lambda and eta are kept only as jets.  The classifiers read the values
eta^j lambda(0) for j <= n, the gradients at 0 of eta^j lambda for j < n,
eta^3 lambda(0) on the plane route and the Hessian of lambda at 0 on the
plane and corank-two routes.  Each derivative lowers the degree by one,
so all of these are exact given lambda mod m^(D+1) and eta mod m^D with
D = jet_degree(n) = max(n, 3), m the ideal of the origin.
"""

from fractions import Fraction

from .polyring import (Poly, PolyMatrix, DimensionError, _Frozen, dir_deriv,
                       rat, rational_rank, _sum_of_products)


def jet_degree(n):
    """D = max(n, 3): lambda is kept mod m^(D+1) and eta mod m^D.  Morin
    recognition reads lambda to degree n; the plane route reads
    eta^3 lambda(0), i.e. lambda to degree 3 and eta to degree 2."""
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

    def __len__(self):
        return len(self.components)

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
    terms are dropped (``translate`` relies on this).
    """

    __slots__ = ("src_dim", "tgt_dim", "components")

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
    first row of J(0) whose removal leaves rank n - 1, else j = 0."""
    n = f.src_dim
    J = jacobian(f)
    J0 = J.eval(f.origin())
    rank0 = rational_rank(J0)
    lam = eta = None
    if n == f.tgt_dim:
        D = jet_degree(n)
        j = 0
        if rank0 == n - 1:
            j = next(j for j in range(n)
                     if rational_rank(J0[:j] + J0[j + 1:]) == n - 1)
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
