"""Exact multivariate polynomial arithmetic over the rationals, and the
integer linear algebra below it.

Everything downstream (germ analysis, classifiers, the perturbation lab)
runs on these types.  Coefficients are `fractions.Fraction`, terms are
stored sparsely keyed by exponent vector.  Every rank, kernel,
determinant and adjugate of a scalar matrix comes from one fraction-free
(Bareiss) elimination on integers, each row scaled by the lcm of its
denominators: every sign and rank test is exact, with no tolerances.
"""

import operator
from bisect import bisect_right
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm


_ZERO = Fraction(0)     # the constant term of a Poly without one


def rat(x):
    """Coerce ints / strings / Fractions to an exact rational."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class DimensionError(ValueError):
    """Raised when operands disagree on the number of variables."""


class _Frozen:
    """Base of the immutable value types, and the one place that knows how
    a value is frozen.  A value type declares its fields once, in
    ``__slots__``, and hands their values to ``_Frozen.__init__`` in that
    order; a trailing slot left out holds None until ``_once`` writes it.
    Any other assignment raises.  Only ``Poly``, built far more often than
    any other value, writes its two slots itself."""

    __slots__ = ()

    def __init__(self, *values):
        """Writes ``values``, then None, into ``__slots__`` in order."""
        slots = self.__slots__
        any(map(object.__setattr__, repeat(self), slots,
                values + (None,) * (len(slots) - len(values))))

    def _once(self, name, make, arg):
        """The slot ``name``, written with ``make(arg)`` on first use."""
        if getattr(self, name) is None:
            object.__setattr__(self, name, make(arg))
        return getattr(self, name)

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)


class Poly(_Frozen):
    """A polynomial in ``nvars`` variables with exact rational coefficients.

    ``terms`` maps exponent tuples (length ``nvars``) to nonzero Fractions.
    Example: 3*x1^2*x2 in 2 variables is ``{(2, 1): Fraction(3)}``.
    Instances are treated as immutable; all operations return new Polys.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 0:
            raise DimensionError("nvars must be nonnegative")
        clean = {}
        for expo, coef in (terms or {}).items():
            if len(expo) != nvars:
                raise DimensionError(
                    "exponent vector %r has wrong length (nvars=%d)" % (expo, nvars))
            coef = rat(coef)
            if coef != 0:
                clean[tuple(expo)] = coef
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    # ---- constructors -------------------------------------------------
    @classmethod
    def const(cls, c, nvars):
        c = rat(c)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, i, nvars):
        """The variable x_i (1-based index)."""
        if not 1 <= i <= nvars:
            raise DimensionError("variable index %d out of range 1..%d" % (i, nvars))
        expo = [0] * nvars
        expo[i - 1] = 1
        return cls(nvars, {tuple(expo): Fraction(1)})

    @classmethod
    def _trusted(cls, nvars, terms):
        """A Poly on ``terms`` as given, unchecked: tuple exponents of
        length nvars and nonzero Fractions only."""
        p = object.__new__(cls)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls.const(1, nvars)

    # ---- predicates ---------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(e == 0 for e in expo) for expo in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, _ZERO)

    def total_degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i):
        """Degree in the variable x_i (1-based); -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(e[i - 1] for e in self.terms)

    # ---- ring arithmetic ----------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise DimensionError("nvars mismatch: %d vs %d"
                                     % (self.nvars, other.nvars))
            return other
        return Poly.const(other, self.nvars)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for expo, coef in other.terms.items():
            s = out.get(expo, Fraction(0)) + coef
            if s == 0:
                out.pop(expo, None)
            else:
                out[expo] = s
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return _sum_of_products(self.nvars, [(self, self._coerce(other))])

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.one(self.nvars)
        base = self
        while True:
            if k & 1:
                result = result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def scale(self, c):
        c = rat(c)
        return Poly(self.nvars, {e: coef * c for e, coef in self.terms.items()})

    def truncate(self, cap):
        """The terms of total degree <= ``cap``: self mod m^(cap+1)."""
        if cap is None or self.total_degree() <= cap:
            return self
        return Poly(self.nvars, {e: c for e, c in self.terms.items()
                                 if sum(e) <= cap})

    # ---- calculus / evaluation ----------------------------------------
    def partial(self, i):
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.nvars:
            raise DimensionError("variable index %d out of range 1..%d"
                                 % (i, self.nvars))
        j = i - 1
        out = {}
        for expo, coef in self.terms.items():
            if expo[j] == 0:
                continue
            new = list(expo)
            new[j] -= 1
            out[tuple(new)] = coef * expo[j]
        return Poly(self.nvars, out)

    def eval(self, point):
        """Exact value at a rational point (sequence of length nvars)."""
        if len(point) != self.nvars:
            raise DimensionError("point length %d != nvars %d"
                                 % (len(point), self.nvars))
        pt = [rat(p) for p in point]
        if not any(pt):
            return self.constant_term()
        total = Fraction(0)
        for expo, coef in self.terms.items():
            v = coef
            for p, e in zip(pt, expo):
                if e:
                    if not p:
                        break       # the term vanishes at this point
                    v *= p ** e
            else:
                total += v
        return total

    def subs(self, replacements):
        """Substitute x_i -> replacements[i-1] (Polys sharing one nvars)."""
        if len(replacements) != self.nvars:
            raise DimensionError("need %d replacement polynomials" % self.nvars)
        if not replacements:
            return Poly.const(self.constant_term(), 0)
        m = replacements[0].nvars
        for g in replacements:
            if g.nvars != m:
                raise DimensionError("replacement polynomials disagree on nvars")
        # powers[idx][e] is replacements[idx] ** e, grown as needed
        powers = [[Poly.one(m)] for _ in replacements]
        pairs = []
        for expo, coef in self.terms.items():
            monomial = None
            for idx, e in enumerate(expo):
                if e:
                    cache = powers[idx]
                    while len(cache) <= e:
                        cache.append(cache[-1] * replacements[idx])
                    factor = cache[e]
                    monomial = factor if monomial is None else monomial * factor
            pairs.append((Poly.const(coef, m),
                          Poly.one(m) if monomial is None else monomial))
        return _sum_of_products(m, pairs)

    # ---- comparisons / display ----------------------------------------
    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other, self.nvars)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return "Poly(%d, %s)" % (self.nvars, self.render())

    def render(self, names=None):
        """Human / parser-compatible text, deterministic term order."""
        if not self.terms:
            return "0"
        if names is None:
            names = ["x%d" % (i + 1) for i in range(self.nvars)]
        pieces = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coef = self.terms[expo]
            factors = []
            for name, e in zip(names, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            mag = abs(coef)
            body = "*".join(factors)
            if not factors:
                body = _rat_str(mag)
            elif mag != 1:
                body = "%s*%s" % (_rat_str(mag), body)
            sign = "-" if coef < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += " %s %s" % (sign, body)
        return text


def _packed_terms(p, weights):
    """(d, [(degree, packed exponent, integer coefficient)]) for d * p,
    with d the least common denominator of p's coefficients."""
    d = lcm(*(c.denominator for c in p.terms.values()))
    return d, [(sum(e), sum(map(operator.mul, e, weights)),
                c.numerator * (d // c.denominator))
               for e, c in p.terms.items()]


def _sum_of_products(nvars, pairs, cap=None):
    """The sum of a * b over the (a, b) pairs of Polys in ``nvars``
    variables; with a degree ``cap``, truncated at ``cap`` (terms above it
    are never formed).  Every product of two Polys goes through it.

    Each factor is scaled to integer coefficients, and each exponent
    vector e is packed into the int sum_i e_i * base^i.  No exponent of a
    product exceeds the sum of the factors' degrees, which is below
    ``base``, so packed vectors add without carries and the inner loop
    only adds and multiplies ints.  Each coefficient of the sum is
    divided by the common scale once, at the end."""
    base = max([2] + [a.total_degree() + b.total_degree() + 1
                      for a, b in pairs])
    weights = [base ** i for i in range(nvars)]
    scaled = []
    for a, b in pairs:
        da, left = _packed_terms(a, weights)
        db, right = _packed_terms(b, weights)
        right.sort()
        scaled.append((da * db, left, right, [t[0] for t in right]))
    d = lcm(*(t[0] for t in scaled))
    out = {}
    get = out.get
    for s, left, right, degrees in scaled:
        k = d // s
        for deg, p1, c1 in left:
            c1 *= k
            part = right
            if cap is not None:
                part = right[:bisect_right(degrees, cap - deg)]
            for _, p2, c2 in part:
                key = p1 + p2
                out[key] = get(key, 0) + c1 * c2
    terms = {}
    for key, c in out.items():
        if c:
            expo = []
            for _ in range(nvars):
                key, e = divmod(key, base)
                expo.append(e)
            terms[tuple(expo)] = Fraction(c) if d == 1 else Fraction(c, d)
    return Poly._trusted(nvars, terms)


def _series_mul(a, b, cap):
    """The product of two univariate series (coefficient lists, index =
    degree) truncated at degree ``cap``: terms above it are never formed.
    The prepared-form route multiplies its integer curve series with it,
    and ``perturb.up_mul`` takes it to full degree."""
    out = [0] * (cap + 1)
    for i, x in enumerate(a[:cap + 1]):
        if x:
            for j, y in enumerate(b[:cap + 1 - i], i):
                if y:
                    out[j] += x * y
    return out


def _rat_str(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def dir_deriv(p, v, cap=None):
    """Directional derivative sum_i v_i * dp/dx_i along the vector field
    v, a sequence of Polys in p's variables or rationals.  With a degree
    ``cap`` the result is truncated at ``cap``."""
    if len(v) != p.nvars:
        raise DimensionError("vector field has %d components, poly has %d vars"
                             % (len(v), p.nvars))
    pairs = []
    for i, vi in enumerate(v, start=1):
        vi = p._coerce(vi)
        if not vi.is_zero():
            pairs.append((vi, p.partial(i)))
    return _sum_of_products(p.nvars, pairs, cap)


class PolyMatrix(_Frozen):
    """A rows x cols matrix of Polys (row-major), a reference type: no
    command builds one, only ``germ.jacobian`` for ``analyze``."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = list(entries)
        if rows * cols != len(entries):
            raise DimensionError("expected %d entries, got %d"
                                 % (rows * cols, len(entries)))
        if entries:
            nv = entries[0].nvars
            for e in entries:
                if e.nvars != nv:
                    raise DimensionError("matrix entries disagree on nvars")
        _Frozen.__init__(self, rows, cols, entries)

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def _minor_det(self, rows, cols, memo, cap):
        """Determinant of the square submatrix on the last len(cols) of
        ``rows`` and on ``cols`` (both increasing tuples), by cofactor
        expansion along its first row.  Every minor it reaches has the
        same trailing rows, so ``memo`` keys it by its column set alone;
        a minor is reached only through a nonzero entry, and computed once."""
        got = memo.get(cols)
        if got is not None:
            return got
        if not cols:
            return Poly.one(self.entries[0].nvars if self.entries else 0)
        r = rows[len(rows) - len(cols)]
        if len(cols) == 1:
            total = self.entry(r, cols[0]).truncate(cap)
        else:
            pairs = []
            for idx, c in enumerate(cols):
                a = self.entry(r, c)
                if a.is_zero():
                    continue
                sub = self._minor_det(rows, cols[:idx] + cols[idx + 1:],
                                      memo, cap)
                if not sub.is_zero():
                    pairs.append((-a if idx % 2 else a, sub))
            total = _sum_of_products(self.entries[0].nvars, pairs, cap)
        memo[cols] = total
        return total

    def det(self, cap=None):
        """Exact determinant: cofactor expansion along the rows with each
        minor memoized by its column set, at most 2^n minors and far fewer
        for a sparse matrix.  With a degree ``cap`` every product is
        truncated at ``cap``, which gives det mod m^(cap+1)."""
        if self.rows != self.cols:
            raise DimensionError("determinant needs a square matrix")
        every = tuple(range(self.rows))
        return self._minor_det(every, every, {}, cap)

    def adjugate_column(self, j, cap=None):
        """Column j of the adjugate: (-1)^{i+j} det(M without row j and
        column i) for each i.  These minors all drop row j, so they share
        one memo.  ``cap`` truncates as in ``det``."""
        n = self.rows
        rows = tuple(i for i in range(n) if i != j)
        memo = {}
        column = []
        for i in range(n):
            cols = tuple(c for c in range(n) if c != i)
            cof = self._minor_det(rows, cols, memo, cap)
            column.append(-cof if (i + j) % 2 else cof)
        return column

    def adjugate(self):
        """Classical adjugate: adj(M)[i][j] = (-1)^{i+j} det(minor(j, i)).
        Satisfies M * adj(M) = det(M) * I as a polynomial identity."""
        if self.rows != self.cols:
            raise DimensionError("adjugate needs a square matrix")
        n = self.rows
        columns = [self.adjugate_column(j) for j in range(n)]
        return PolyMatrix(n, n, [columns[j][i] for i in range(n)
                                 for j in range(n)])

    def eval(self, point):
        """Rational matrix (list of rows) of exact values at a point."""
        return [[self.entry(i, j).eval(point) for j in range(self.cols)]
                for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == \
               (other.rows, other.cols, other.entries)

    def __repr__(self):
        return "PolyMatrix(%d, %d, %r)" % (self.rows, self.cols, self.entries)


# ---- exact integer linear algebra (plain lists of ints) ----------------

def clear_denominators(row):
    """The rationals of ``row`` (a sequence) times the least common
    multiple of their denominators, as ints: a positive multiple, so
    every sign, rank and kernel read from it stays the same."""
    d = lcm(*(x.denominator for x in row))
    return [x.numerator * (d // x.denominator) for x in row]


def _bareiss(mat, width):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer
    matrix on its first ``width`` columns, skipping those with no pivot:
    (rows, pivots, pivot).  A step takes each other row to (a * row -
    b * top) / prev, a the new pivot, b the row's entry in its column and
    prev the pivot before; every entry is a minor of the input
    (Sylvester's identity), so each division is exact.  Row r ends with
    its pivot in column pivots[r] and 0 in the other pivot columns; every
    pivot equals the last, ``pivot`` (1 if none).  A swap negates the row
    it moves up: a square matrix of full rank has determinant ``pivot``."""
    rows = [list(row) for row in mat]
    pivots = []
    prev = 1
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = [-x for x in rows[p]], rows[r]
        top = rows[r]
        a = top[c]
        for i, row in enumerate(rows):
            if i != r:
                b = row[c]
                rows[i] = [(a * x - b * y) // prev for x, y in zip(row, top)]
        prev = a
        pivots.append(c)
    return rows, pivots, prev


def integer_kernel(mat):
    """(rank, basis) for an integer matrix: one primitive integer vector
    per free column c of its echelon form, positive at c and 0 at the
    other free columns.  Each is a positive multiple of the reduced
    row echelon nullspace vector of c, which is 1 at c."""
    ncols = len(mat[0])
    rows, pivots, pivot = _bareiss(mat, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = pivot
        for row, c in zip(rows, pivots):
            vec[c] = -row[free]
        g = gcd(*vec) if pivot > 0 else -gcd(*vec)
        basis.append([x // g for x in vec])
    return len(pivots), basis


def integer_det(mat):
    """det M of a square integer matrix from one elimination of M itself,
    with no identity block: 0 when M is singular."""
    rows, pivots, det = _bareiss(mat, len(mat))
    return det if len(pivots) == len(mat) else 0


def integer_adjugate(mat):
    """(det M, adj M) of a square integer matrix from the elimination of
    [M | I]: the left block ends as det M * I and the right block as
    det M * M^-1 = adj M.  adj M is None when M is singular."""
    n = len(mat)
    rows, pivots, det = _bareiss(
        [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(mat)], n)
    if len(pivots) < n:
        return 0, None
    return det, [row[n:] for row in rows]
