"""Perturbation lab: univariate root machinery, family construction,
Morin-point enumeration, symbolic identities, table cross-checks."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from germlab import perturb as pt
from germlab.germ import GermError, translate
from germlab.morin import recognize_morin
from germlab.polyring import Poly
from conftest import monic_chebyshev_params
import fraction_view as fv
import oracles


F = Fraction


# ---- univariate machinery ----------------------------------------------

def test_up_basics():
    p = [F(-1), F(0), F(1)]  # x^2 - 1
    assert oracles.up_eval(p, 2) == 3
    assert pt.up_deriv(p) == [F(0), F(2)]
    q, r = oracles.up_divmod(p, [F(-1), F(1)])  # / (x - 1)
    assert q == [F(1), F(1)] and r == []


def test_up_gcd_and_squarefree():
    # (x - 1)^2 (x + 2)
    p = pt.up_mul(pt.up_mul([F(-1), F(1)], [F(-1), F(1)]), [F(2), F(1)])
    sf, _ = pt.up_squarefree(p)
    assert pt.up_deg(sf) == 2
    assert oracles.up_eval(sf, 1) == 0 and oracles.up_eval(sf, -2) == 0
    # p over its square-free part is gcd(p, p') = x - 1
    common, rest = oracles.up_divmod(p, sf)
    assert rest == [] and common == oracles.up_gcd(p, pt.up_deriv(p))


def test_rational_roots():
    # 6x^3 - x^2 - 4x - 1 = (x - 1)(2x + 1)(3x + 1)
    p = [F(-1), F(-4), F(-1), F(6)]
    assert fv.rational_roots(p) == [F(-1, 2), F(-1, 3), F(1)]
    assert fv.rational_roots([F(0), F(0), F(1)]) == [F(0)]


def test_isolate_real_roots_irrational():
    p = [F(-2), F(0), F(1)]  # x^2 - 2
    ivs = fv.isolate_real_roots(p, width=F(1, 2 ** 30))
    assert len(ivs) == 2
    for lo, hi in ivs:
        assert hi - lo <= F(1, 2 ** 30)
        assert oracles.up_eval(p, lo) * oracles.up_eval(p, hi) < 0


def test_sign_at_root_exact_and_interval():
    p = [F(-2), F(0), F(1)]  # roots +-sqrt(2)
    ivs = fv.isolate_real_roots(p, width=F(1, 1024))
    g = [F(-1), F(1)]  # x - 1
    signs = sorted(fv.sign_at_root(g, p, iv) for iv in ivs)
    assert signs == [-1, 1]
    # exact root
    assert fv.sign_at_root(g, p, F(3)) == 1
    # shared root -> 0
    assert fv.sign_at_root(p, p, ivs[0]) == 0
    # the one root of (x - 2)(x + 5) in (3/2, 2] is the end 2 itself
    c = [F(-10), F(3), F(1)]
    assert fv.sign_at_root([F(-3), F(1)], c, (F(3, 2), F(2))) == -1
    assert fv.sign_at_root([F(-2), F(1)], c, (F(3, 2), F(2))) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 6)),
                max_size=3, unique=True),
       st.sampled_from([2, 3]),
       st.lists(st.integers(-5, 5), min_size=1, max_size=5),
       st.integers(0, 4))
def test_sign_at_root_matches_refinement_oracle(roots, d, h, share):
    """Constraint: rational roots times x^2 - d.  g: a random integer
    polynomial of degree <= 4, times one factor of the constraint when
    ``share`` picks one, so that g sometimes vanishes at a root.  The
    Tarski-query sign equals the refinement-based reference at every
    isolating interval, unrefined and refined to 1/4 and 2^-40."""
    quadratic = [F(-d), F(0), F(1)]
    factors = [quadratic] + [[F(-r.numerator), F(r.denominator)] for r in roots]
    c = quadratic
    for f in factors[1:]:
        c = pt.up_mul(c, f)
    factor = factors[share] if share < len(factors) else [F(1)]
    g = pt.up_mul([F(x) for x in h[:6 - len(factor)]], factor)
    for width in (None, F(1, 4), F(1, 2 ** 40)):
        for iv in fv.isolate_real_roots(c, width=width):
            assert fv.sign_at_root(g, c, iv) == oracles.sign_at_root(g, c, iv)
            if width is None:
                assert fv.refine_root(c, *iv, F(1, 2 ** 40)) == \
                    oracles.refine_root(c, *iv, F(1, 2 ** 40))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=6),
       st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 6)),
                max_size=2, unique=True),
       st.sampled_from([2, 3, 5]),
       st.integers(20, 120))
def test_certified_sign_agrees_with_the_refinement_oracle(h, roots, d, bits):
    """g: a random integer polynomial.  Constraint: x^2 - d times rational
    factors, its roots isolated and refined below 2^-bits.  Wherever one
    evaluation certifies g's sign on an interval, that is g's sign at the
    root by the refinement oracle, and ``sign_at_root`` returns it."""
    g = pt.up_integer(h)
    c = [F(-d), F(0), F(1)]
    for r in roots:
        c = pt.up_mul(c, [-r, F(1)])
    if pt.up_deg(g) < 1:
        return
    for lo, hi in fv.isolate_real_roots(c, width=F(1, 2 ** bits)):
        if lo == hi:
            continue
        sign = pt._certified_sign(g, *fv.cell((lo, hi)))
        if sign is not None:
            assert sign == oracles.sign_at_root(g, c, (lo, hi))
            assert fv.sign_at_root(g, c, (lo, hi), {}) == sign


@pytest.mark.parametrize("g,interval,sign", [
    # g shares the root sqrt(2) of the constraint: its sign there is 0
    ([-2, 0, 1], None, 0),
    ([-2, -2, 1, 1], None, 0),
    # at the isolating interval (0, 3] of sqrt(2), unrefined, g has a root
    # inside: 100x - 141 is positive at sqrt(2), 1000x - 1417 negative
    # although it is positive at 3, x - 1 positive and 2x - 3 negative
    ([-141, 100], (F(0), F(3)), 1),
    ([-1417, 1000], (F(0), F(3)), -1),
    ([-1, 1], (F(0), F(3)), 1),
    ([-3, 2], (F(0), F(3)), -1),
])
def test_uncertified_sign_is_the_tarski_query(g, interval, sign):
    """Where g vanishes in the interval, one evaluation cannot certify its
    sign: the sign is the Tarski query's, built once under g's key."""
    c = [-2, 0, 1]
    if interval is None:
        interval = fv.isolate_real_roots(c, width=F(1, 2 ** 40))[1]
    lo, hi = interval
    assert lo ** 2 < 2 < hi ** 2
    assert pt._certified_sign(g, *fv.cell((lo, hi))) is None
    sequences = {}
    assert fv.sign_at_root(g, c, interval, sequences) == sign
    assert oracles.sign_at_root([F(x) for x in g], c, interval) == sign
    assert list(sequences) == [tuple(g)]


def test_a_root_the_constraint_keeps_its_sign_across_is_not_halved():
    """(x - 1)^2 has its one root in (0, 3] at 1 and is positive on both
    sides, so no bisection on its signs could find that root.  2x - 1 is
    negative on part of the interval, so one evaluation cannot certify
    its sign at 1: the sign is the Tarski query's."""
    g, c, interval = [-1, 2], [1, -2, 1], (F(0), F(3))
    assert pt._certified_sign(g, *fv.cell(interval)) is None
    sequences = {}
    assert fv.sign_at_root(g, c, interval, sequences) == 1
    assert list(sequences) == [tuple(g)]


@pytest.mark.parametrize("bits", [20, 40, 120])
def test_chebyshev_signs_take_one_evaluation_each(monkeypatch, bits):
    """Family A, n = 4, l = 32 at the monic Chebyshev parameters: 32
    interval roots, and two polynomials of degree 31 to sign at each, det
    grad and a slot of the inv row, whose large cancelling coefficients
    defeat the certificate at some roots.  Each of those 64 signs takes
    one evaluation, and a sign it cannot certify is the Tarski query,
    whose sequence is built at most once per polynomial."""
    spec = pt.UnfoldingSpec("A", 4, _params(monic_chebyshev_params(32)),
                            l=32)
    certified, built = [], []

    def certify(g, *cell, original=pt._certified_sign):
        certified.append(tuple(g))
        return original(g, *cell)

    def sequence(c, g, original=pt.tarski_sequence):
        built.append(tuple(g))
        return original(c, g)
    monkeypatch.setattr(pt, "_certified_sign", certify)
    monkeypatch.setattr(pt, "tarski_sequence", sequence)
    report = pt.morin_points(spec, bits)
    assert report.count == 32
    assert len(certified) == 64
    queried = [g for g in built if g != (1,)]
    assert len(queried) == len(set(queried))
    keys = {tuple(v if g[-1] > 0 else -v for v in g) for g in certified}
    assert keys >= set(queried)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 6)),
                min_size=1, max_size=4, unique=True),
       st.sampled_from([([F(1)], 0), ([F(-2), F(0), F(1)], 2),
                        ([F(1), F(0), F(1)], 0)]))
def test_isolation_finds_exactly_the_constructed_roots(roots, factor):
    """Rational roots p/q (q <= 6), times 1, x^2 - 2 or x^2 + 1 (with
    their number of irrational real roots)."""
    p, irrational = factor
    for r in roots:
        p = pt.up_mul(p, [-r, F(1)])
    assert fv.rational_roots(p) == sorted(roots)
    found = fv.isolate_real_roots(p, width=F(1, 256))
    assert len(found) == len(roots) + irrational


def test_sturm_count_interval():
    """The sign variations of the Sturm chain at the ends of (lo, hi]
    differ by the number of roots in it."""
    p = [0, -1, 0, 1]  # x^3 - x: roots -1, 0, 1

    def count(lo, hi):
        return (pt._variations([pt._sign_at(q, *lo) for q in chain]) -
                pt._variations([pt._sign_at(q, *hi) for q in chain]))
    chain = pt.sturm_chain(p)
    assert count((-2, 1), (2, 1)) == 3
    assert count((1, 2), (2, 1)) == 1


def test_integer_input_isolates_and_finds_roots():
    """Integer coefficient lists work as Fraction ones do: the Cauchy
    bound is a Fraction, the intervals of x^2 - 2 bracket -sqrt(2) and
    sqrt(2), and the rational roots of 4x^2 - 1 are found."""
    p = [-2, 0, 1]
    assert pt.up_root_bound(p) == 3
    assert isinstance(pt.up_root_bound(p), Fraction)
    for width in (None, F(1, 2 ** 20)):
        (lo1, hi1), (lo2, hi2) = fv.isolate_real_roots(p, width=width)
        assert lo1 < hi1 <= 0 and lo1 ** 2 > 2 >= hi1 ** 2
        assert 0 <= lo2 < hi2 and lo2 ** 2 < 2 <= hi2 ** 2
    assert fv.rational_roots([-1, 0, 4]) == [F(-1, 2), F(1, 2)]


def _same_intervals(got, want):
    """Equal Fractions with equal str, so exact hits (lo == hi) agree."""
    assert got == want
    assert all(isinstance(x, Fraction) for iv in got for x in iv)
    assert [tuple(map(str, iv)) for iv in got] == \
        [tuple(map(str, iv)) for iv in want]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 8)),
                max_size=4, unique=True),
       st.lists(st.integers(-6, 6), min_size=1, max_size=4),
       st.sampled_from([1, 2, -3]))
def test_integer_bisection_matches_the_fraction_bisection(roots, other,
                                                          scale):
    """A square-free integer polynomial of degree 1..6: the rational
    ``roots`` times the integer factor ``other`` and ``scale``, square-free
    part taken.  The integer isolation and refinement return the same
    intervals, exact hits included, as the Fraction bisections of
    ``oracles``: unrefined, below 1/2, 1/(2A) (A the leading coefficient,
    as in ``rational_roots``), 2^-20, 2^-40 and 2^-120, and at widths no
    smaller than the interval (no halving)."""
    c = [scale]
    for r in roots:
        c = pt.up_mul(c, [-r.numerator, r.denominator])
    c, _ = pt.up_squarefree(pt.up_mul(c, pt.up_trim(other)))
    if not 1 <= pt.up_deg(c) <= 6:
        return
    a = abs(c[-1])
    for width in (None, F(1, 2), F(1, 2 * a), F(1, 2 ** 20), F(1, 2 ** 40),
                  F(1, 2 ** 120)):
        _same_intervals(fv.isolate_real_roots(c, width),
                        oracles.isolate_real_roots(c, width))
    found = fv.isolate_real_roots(c)
    for lo, hi in found:
        for width in (F(1, 2 * a), F(1, 2 ** 40), hi - lo, 2 * (hi - lo)):
            _same_intervals([fv.refine_root(c, lo, hi, width)],
                            [oracles.refine_root(c, lo, hi, width)])
    exact = fv.rational_roots(c)
    assert exact == oracles.rational_roots(c, found)
    assert set(roots) <= set(exact)


def test_isolation_nudges_a_split_point_off_a_root():
    """x^3 - x: the Cauchy bound is 2 and the first midpoint 0 is a root,
    so the first split is at -2 + 4/3 = -2/3.  Refined to 1/4, every
    root is an exact hit."""
    c = [0, -1, 0, 1]
    _same_intervals(fv.isolate_real_roots(c),
                    [(F(-2), F(-2, 3)), (F(-2, 3), F(2, 3)), (F(2, 3), F(2))])
    _same_intervals(fv.isolate_real_roots(c), oracles.isolate_real_roots(c))
    _same_intervals(fv.isolate_real_roots(c, F(1, 4)),
                    [(F(-1), F(-1)), (F(0), F(0)), (F(1), F(1))])


def test_refine_root_exact_hit_and_integer_ends():
    """8x - 3 on (0, 1]: the third midpoint 3/8 is the root.  Integer
    ends given as int bisect as Fractions do and return Fractions; a
    width of at least the interval returns it unhalved."""
    _same_intervals([fv.refine_root([-3, 8], F(0), F(1), F(1, 2 ** 20))],
                    [(F(3, 8), F(3, 8))])
    c = [-2, 0, 1]
    _same_intervals([fv.refine_root(c, 1, 2, F(1, 2 ** 40))],
                    [oracles.refine_root(c, F(1), F(2), F(1, 2 ** 40))])
    _same_intervals([fv.refine_root([-3, 2], 1, 2, F(1, 8))],
                    [(F(3, 2), F(3, 2))])
    _same_intervals([fv.refine_root(c, 1, 2, 1)], [(F(1), F(2))])


# a coefficient past the largest double, about 1.8e308
_HUGE = 10 ** 310 + 7


@settings(max_examples=150, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 60),
       st.integers(0, 2 ** 60), st.sampled_from([[1, 0, 1], [_HUGE, 0, 1]]),
       st.integers(20, 120))
def test_refine_root_meets_a_root_on_the_dyadic_grid(start, scale, level,
                                                     numerator, other,
                                                     bits):
    """One real root on (lo, hi] = (start, start + 2^scale], at its level
    ``level`` dyadic grid point lo + m (hi - lo)/2^level (m odd, drawn from
    ``numerator``), times x^2 + 1 or x^2 + a coefficient past double
    range.  The float-proposed cell and exact bisection return the same
    interval or exact hit, whether the hit comes before, at or after the
    last halving, below widths 2^-20 to 2^-120."""
    lo, span = F(start), F(2) ** scale
    m = (numerator % 2 ** level) | 1
    root = lo + span * F(m, 2 ** level)
    c = pt.up_mul([-root.numerator, root.denominator], other)
    width = F(1, 2 ** bits)
    _same_intervals([fv.refine_root(c, lo, lo + span, width)],
                    [oracles.refine_root(c, lo, lo + span, width)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.builds(F, st.integers(-50, 50), st.sampled_from(
           [1, 2, 3, 7, 64, 2 ** 30])), min_size=1, max_size=3, unique=True),
       st.sampled_from([None, 2, 3, 10 ** 40 + 1]),
       st.lists(st.integers(1, 3), max_size=2, unique=True),
       st.integers(20, 60), st.booleans(), st.integers(20, 120))
@example([F(1)], None, [1, 2], 30, False, 120)
@example([F(-1, 3)], 2, [1, 3], 20, True, 40)
def test_refine_root_matches_the_fraction_bisection(roots, square, cluster,
                                                    gap, huge, bits):
    """Rational roots, the irrational roots of x^2 - ``square``, a cluster
    of roots 1/3 + i 2^-gap around 1/3, and, when ``huge``, a factor
    _HUGE x - (_HUGE + 1) whose coefficients no double holds: at every
    isolating interval, refined below 2^-bits, the float-proposed cell
    gives what exact bisection gives, exact hits included.  Near a
    cluster doubles cannot place a root to 2^-44, so there the exact
    signs refuse the proposed cell (both examples)."""
    factors = [[-r.numerator, r.denominator] for r in roots]
    if square is not None:
        factors.append([-square, 0, 1])
    factors += [[-(2 ** gap + 3 * i), 3 * 2 ** gap] for i in cluster]
    if huge:
        factors.append([-(_HUGE + 1), _HUGE])
    c = [1]
    for f in factors:
        c = pt.up_mul(c, f)
    c, _ = pt.up_squarefree(c)
    width = F(1, 2 ** bits)
    for lo, hi in fv.isolate_real_roots(c):
        _same_intervals([fv.refine_root(c, lo, hi, width)],
                        [oracles.refine_root(c, lo, hi, width)])


@pytest.mark.parametrize("bits", [20, 40, 120])
@settings(max_examples=25, deadline=None)
@given(st.lists(st.builds(F, st.integers(-2 ** 92, 2 ** 92),
                          st.integers(2 ** 62, 2 ** 90)),
                max_size=2, unique=True),
       st.one_of(st.just(1), st.integers(2 ** 62, 2 ** 80)))
@example([], 3 ** 40)
@example([F(1, 2 ** 70), F(-5, 3 ** 50)], 1)
def test_one_refinement_of_a_cell_wider_than_the_rational_grid(bits, roots,
                                                               scale):
    """Rational roots p/q with large q, times (scale x)^2 - 2: the leading
    coefficient A passes 2^(bits + 1), so a cell of width 2^-bits is wider
    than 1/(2A), and each is refined on from there for the rational test.
    The exact roots, and every cell at 2^-bits, are those the Fraction
    bisections of ``oracles`` give."""
    c = [-2, 0, scale ** 2]
    for r in roots:
        c = pt.up_mul(c, [-r.numerator, r.denominator])
    sf, chain = pt.up_squarefree(c)
    assume(abs(sf[-1]) > 2 ** (bits + 1))
    exact, cells = pt.rational_roots(sf, chain, bits)
    found = oracles.isolate_real_roots(sf)
    assert [F(p, q) for p, _, q in exact] == \
        oracles.rational_roots(sf, found) == sorted(roots)
    _same_intervals([fv.interval(x) for x in cells],
                    [oracles.refine_root(sf, lo, hi, F(1, 2 ** bits))
                     for lo, hi in found])


_int_factor = st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(
    lambda c: c[-1] != 0)


def _proportional(p, q):
    """p = c q for some rational c != 0 (p and q trimmed)."""
    return len(p) == len(q) and all(a * q[-1] == b * p[-1]
                                    for a, b in zip(p, q))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_int_factor, st.integers(1, 3)), min_size=1,
                max_size=3),
       st.integers(1, 6))
def test_integer_gcd_squarefree_and_quotient_match_the_fraction_ones(
        powers, den):
    """a: a product of integer factors, some repeated, divided by den.  The
    integer up_squarefree and up_quotient agree with the Fraction long
    division of ``oracles`` up to a nonzero constant: a over the
    square-free part is gcd(a, a'), and the square-free part is primitive
    with the sign of a's leading coefficient.  The chain returned with it
    is its Sturm chain, the one built for a when a is square-free."""
    a = [F(1)]
    for f, e in powers:
        for _ in range(e):
            a = pt.up_mul(a, f)
    a = [F(x) / den for x in a]
    sf, chain = pt.up_squarefree(a)
    assert chain == pt.sturm_chain(sf)
    assert _proportional(sf, oracles.up_squarefree(a))
    assert sf[-1] * a[-1] > 0 and math.gcd(*sf) == 1
    common, rest = oracles.up_divmod(a, sf)
    assert rest == []
    assert _proportional(common, oracles.up_gcd(a, pt.up_deriv(a)))
    divisor = pt.up_integer(powers[-1][0])
    quotient, rest = oracles.up_divmod(a, divisor)
    assert rest == []
    got = pt.up_quotient(pt.up_integer(a), divisor)
    assert _proportional(got, quotient)
    assert pt.up_mul(got, divisor) == pt.up_integer(a)


def test_up_quotient_refuses_a_remainder():
    assert pt.up_quotient([-1, 0, 1], [-1, 1]) == [1, 1]
    assert pt.up_quotient([6, 5, 1], [1]) == [6, 5, 1]
    with pytest.raises(ValueError):
        pt.up_quotient([1, 0, 1], [-1, 1])
    with pytest.raises(ValueError):
        pt.up_quotient([1, 2], [0, 2])


# ---- unfolding construction --------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        pt.UnfoldingSpec("D", 3, [0])
    with pytest.raises(ValueError):
        pt.UnfoldingSpec("A", 3, [0])  # missing l
    with pytest.raises(ValueError):
        pt.UnfoldingSpec("B", 3, [0, 0])
    with pytest.raises(ValueError):
        pt.UnfoldingSpec("C", 6, [0, 0])
    # only family A has a degree l: one given for B or C is refused
    for family, u in (("B", [0]), ("C", [0, 0])):
        with pytest.raises(ValueError, match="family %s takes no l" % family):
            pt.param_count(family, 5)
        with pytest.raises(ValueError, match="family %s takes no l" % family):
            pt.UnfoldingSpec(family, 3, u, l=5)
    s = pt.UnfoldingSpec("A", 3, [1, 2], l=3)
    assert s.c_f_bound() == 3
    assert pt.UnfoldingSpec("B", 4, [1]).c_f_bound() == 2
    assert pt.UnfoldingSpec("C", 4, [1, 1]).c_f_bound() == 4


def test_build_unfolding_shape():
    f = pt.build_unfolding(pt.UnfoldingSpec("B", 3, [F(-10)]))
    assert f.src_dim == 3 and f.tgt_dim == 3
    # components 2..n are the identity in x2..xn
    assert f.components[1] == Poly.var(2, 3)
    assert f.components[2] == Poly.var(3, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("family,l", [("A", l) for l in range(2, 7)] +
                         [("B", None), ("C", None)])
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_build_unfolding_matches_the_subs_reference(family, l, n, data):
    """Parameters put in term by term give the unfolding that
    ``Poly.subs`` gives (``oracles.build_unfolding``)."""
    count = pt.param_count(family, l)
    u = data.draw(st.lists(st.builds(F, st.integers(-9, 9),
                                     st.integers(1, 9)),
                           min_size=count, max_size=count))
    spec = pt.UnfoldingSpec(family, n, u, l=l)
    assert pt.build_unfolding(spec) == oracles.build_unfolding(spec)


def test_parameters_go_in_at_every_power():
    """Every printed row is linear in the parameters; the helpers that put
    them in also take powers, and keep a sum that cancels as 0.  On ints,
    u1 = -1/2 goes in as (-1)^e 2^(3 - e): the whole polynomial times 8."""
    t, u0, u1 = (Poly.var(i, 3) for i in (1, 2, 3))
    p = t ** 2 * u0 ** 2 - 4 * t ** 2 + t * u1 ** 3 + 3 * u0 * u1
    assert pt._with_params(p, (F(2), F(-1, 2))) == {
        (2,): 0, (1,): F(-1, 8), (0,): F(-3)}
    assert pt._at_params(pt._integer_terms(p), (F(2), F(-1, 2))) == [-24, -1]
    assert pt._at_params(pt._integer_terms(p.scale(F(1, 6))),
                         (F(1, 3), F(5))) == pt.up_integer([5, 125, F(-35, 9)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("family,l", [("A", l) for l in range(2, 7)] +
                         [("B", None), ("C", None)])
def test_q_rows_match_the_poly_arithmetic(family, l, n):
    """Each printed q row (``Q_FORMULAS``), read by ``_q`` with the
    parameters symbolic, equals q built by Poly arithmetic."""
    q = pt._q(family, n, l)
    assert q.nvars == n + pt.param_count(family, l)
    u = [Poly.var(i, q.nvars) for i in range(n + 1, q.nvars + 1)]
    assert q == oracles.q_poly(family, n, l, u)


def test_eliminate_curve_consistency():
    """For families B and C and n = 2..5, the curve specialised from the
    cached symbolic elimination satisfies the equations of the unfolding
    built independently with the parameters substituted: every lambda,
    ..., eta^{n-1} lambda restricted to sigma is 0 modulo the constraint,
    at stable and non-stable parameters alike."""
    params = {"B": [[F(-3)], [F(0)], [F(5, 2)]],
              "C": [[F(1, 4), F(2)], [F(-1), F(1, 2)], [F(0), F(0)]]}
    for family, grid in params.items():
        for n in (2, 3, 4, 5):
            for u in grid:
                spec = pt.UnfoldingSpec(family, n, u)
                sigma, con, *_ = pt.curve_data(spec)
                assert pt.up_deg(con) >= 1
                assert sigma[0] == Poly.var(1, 1 + len(u))
                # sigma is in (t, u...): put in t and the parameters
                at_u = [Poly.var(1, 1)] + [Poly.const(v, 1) for v in u]
                sigma = [x.subs(at_u) for x in sigma]
                q = pt.build_unfolding(spec).components[0]
                for eq in pt._lambda_chain(q, n - 1):
                    on_curve = oracles.poly_to_coeffs(eq.subs(sigma))
                    assert not oracles.up_rem(on_curve, con), (family, n, u)


def test_family_a_not_a_curve():
    with pytest.raises(GermError):
        pt.eliminate_curve("A", 3)


# ---- Morin point enumeration -------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_family_b_reference_points(n):
    rep = pt.morin_points(pt.UnfoldingSpec("B", n, [-pt.FAMILY_B_CN[n]]))
    assert rep.count == 2 and rep.stable
    ts = sorted(p.t for p in rep.points)
    assert ts == [F(-1), F(1)]
    assert all(p.verified for p in rep.points)
    # full classifier pass at both points
    f = pt.build_unfolding(pt.UnfoldingSpec("B", n, [-pt.FAMILY_B_CN[n]]))
    for p in rep.points:
        res = recognize_morin(translate(f, p.location))
        assert res.k == n
        assert res.invariant == p.invariant_value


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("l", [2, 3])
def test_family_a_counts(n, l):
    # qbar with l simple rational roots: x^2 - 1 or x^3 - x
    u = [F(-1)] if l == 2 else [F(0), F(-1)]
    rep = pt.morin_points(pt.UnfoldingSpec("A", n, u, l=l))
    assert rep.count == l == rep.c_f_bound
    assert all(p.verified for p in rep.points)
    assert all(p.k == n for p in rep.points)


def test_family_a_invariant_signs():
    # qbar = x^2 - 1: qbar' = 2x -> -2 at x=-1, +2 at x=1
    for n in (3, 5):
        rep = pt.morin_points(pt.UnfoldingSpec("A", n, [F(-1)], l=2))
        by_root = {p.t: p.invariant_value for p in rep.points}
        kind = "prod" if n == 3 else "detgrad"
        assert by_root[F(-1)] == (kind, -1)
        assert by_root[F(1)] == (kind, 1)
    # n = 2: invariant is always +1
    rep = pt.morin_points(pt.UnfoldingSpec("A", 2, [F(-1)], l=2))
    assert all(p.invariant_value == ("etaklam", 1) for p in rep.points)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_family_c_attains_four(n):
    rep = pt.morin_points(pt.UnfoldingSpec("C", n, [F(1, 4), F(2)]))
    assert rep.count == 4 == rep.c_f_bound
    assert all(p.verified for p in rep.points)


def test_family_c_table_agreement_across_grid():
    grid = [(F(-1), F(0)), (F(-1, 2), F(1, 3)), (F(-2), F(-1)),
            (F(1, 4), F(2)), (F(-1, 8), F(1, 2))]
    for n in (2, 3, 4, 5):
        for u in grid:
            rep = pt.morin_points(pt.UnfoldingSpec("C", n, u))
            for p in rep.points:
                assert p.invariant_value == p.table_value
                assert p.verified


def test_a_cell_straddling_zero_is_halved_until_it_excludes_zero():
    """Family C, n = 2 at u0 = 2^-100: two roots lie within 2^-50 of
    t = 0, on either side, so their cells straddle 0 until halved.  No
    printed cell may keep 0, which is not a Morin point."""
    spec = pt.UnfoldingSpec("C", 2, [F(1, 2 ** 100), F(1)])
    rep = pt.morin_points(spec)
    assert rep.count == 4 == spec.c_f_bound()
    assert all(p.verified and not p.exact for p in rep.points)
    assert all(lo * hi > 0 for lo, hi in (p.t for p in rep.points))
    near = [p.t for p in rep.points if max(map(abs, p.t)) < F(1, 2 ** 50)]
    assert [lo > 0 for lo, _ in near] == [False, True]


def test_degenerate_parameter_flagged():
    rep = pt.morin_points(pt.UnfoldingSpec("B", 2, [F(0)]))
    assert not rep.stable
    assert rep.count == 0
    assert any("non-stable" in note for note in rep.notes)


def test_sweep_summary():
    grid = [(F(-8),), (F(-5),), (F(-2),)]
    reports, summary = pt.sweep("B", 3, grid)
    assert summary["grid_size"] == len(grid)
    assert summary["c_f_bound"] == 2
    assert summary["max_count"] == 2
    assert summary["all_verified"]


@pytest.mark.parametrize("family,n,l", [("D", 9, 5), ("B", 9, None),
                                        ("B", 2, 5), ("A", 3, None)])
def test_sweep_checks_its_arguments_on_an_empty_grid(family, n, l):
    """An unknown family, an n out of range, an l given to family B or
    none to family A is refused with UnfoldingSpec's message, whether or
    not the grid has a point."""
    with pytest.raises(ValueError) as swept:
        pt.sweep(family, n, [], l=l)
    with pytest.raises(ValueError) as spec:
        pt.UnfoldingSpec(family, n, [], l=l)
    assert str(swept.value) == str(spec.value)
    reports, summary = pt.sweep("B", 2, [])
    assert reports == [] and summary["grid_size"] == 0
    assert summary["c_f_bound"] is None and not summary["attained"]


# ---- the cached curve criteria against the per-request reference ---------

def _params(text):
    return [F(v) for v in text.split(",")]


AGREEMENT_PARAMS = [("A", 3, "0,-1"), ("A", 3, "0,-2"), ("A", 2, "-2"),
                    ("A", 2, "0"), ("B", None, "-1"), ("B", None, "0"),
                    ("C", None, "1/4,2"), ("C", None, "-1,0"),
                    ("C", None, "0,1"), ("C", None, "-5/2,1/2"),
                    ("C", None, "-1,1/2")]


def _agree(spec, precision_bits):
    got = pt.report_to_dict(pt.morin_points(spec, precision_bits))
    assert got == pt.report_to_dict(
        oracles.morin_points_reference(spec, precision_bits)), spec
    return got


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_morin_points_agree_with_the_per_request_reference(n):
    """Exact roots, interval roots, both at once, a non-stable parameter,
    a degenerate point and a root at t = 0, at the ends and in the middle
    of the precision range, cold and warm."""
    pt.curve_criteria.cache_clear()
    seen = set()
    for family, l, params in AGREEMENT_PARAMS + [
            ("B", None, str(-pt.FAMILY_B_CN[n]))]:
        spec = pt.UnfoldingSpec(family, n, _params(params), l=l)
        for precision_bits in (20, 40, 120):
            d = _agree(spec, precision_bits)
            seen.update("exact" if p["t"].get("exact") else "interval"
                        for p in d["points"])
            seen.update(note.split()[0] for note in d["notes"])
    assert seen == {"exact", "interval", "non-stable", "degenerate", "root"}


@pytest.mark.parametrize("l,n,precision_bits", [
    (l, n, 40) for l in (2, 3, 4) for n in (2, 3, 4, 5)] + [
    (3, 4, 20), (4, 5, 120), (pt.MAX_L, 2, 20), (pt.MAX_L, 3, 120),
    (pt.MAX_L, 4, 40), (pt.MAX_L, 5, 20)])
def test_family_a_chebyshev_agrees_with_the_reference(l, n, precision_bits):
    spec = pt.UnfoldingSpec("A", n, _params(monic_chebyshev_params(l)), l=l)
    assert _agree(spec, precision_bits)["count"] == l


@pytest.mark.parametrize("family,n", [
    (family, n) for family in "ABC" for n in (2, 3, 4, 5)])
def test_a_corrupted_curve_is_an_internal_error(monkeypatch, family, n):
    """The once-per-key check rejects a curve that leaves an equation
    nonzero: t^(n+3) added to one coordinate of the B or C curve, or
    s^(l+1) to the family A constraint."""
    l = 3 if family == "A" else None
    if family == "A":
        def corrupted(n, l, original=pt.family_a_curve):
            sigma, constraint = original(n, l)
            s = Poly.var(1, constraint.nvars)
            return sigma, constraint + s ** (l + 1)
        monkeypatch.setattr(pt, "family_a_curve", corrupted)
        u = [F(0), F(-1)]
    else:
        def corrupted(family, n, original=pt.eliminate_curve):
            coords, constraint = original(family, n)
            t = Poly.var(1, constraint.nvars)
            j = n % len(coords)
            return (coords[:j] + (coords[j] + t ** (n + 3),)
                    + coords[j + 1:], constraint)
        monkeypatch.setattr(pt, "eliminate_curve", corrupted)
        u = [F(-1)] if family == "B" else [F(1, 4), F(2)]
    pt.curve_criteria.cache_clear()
    try:
        with pytest.raises(GermError, match="does not satisfy the equations"):
            pt.morin_points(pt.UnfoldingSpec(family, n, u, l=l))
    finally:
        pt.curve_criteria.cache_clear()

# ---- symbolic identities and table cross-check -------------------------

def family_b_symbolic_identity(n):
    """Symbolic check of the family B curve: the whole chain lambda, ...,
    eta^{n-1} lambda of the unfolding with u0 kept symbolic, composed with
    the cached solved coordinates, vanishes identically once
    u0 = -c_n t^2 is substituted, and so does the constraint."""
    coords, constraint = pt.eliminate_curve("B", n)
    t = Poly.var(1, 2)
    u0 = (t * t).scale(-pt.FAMILY_B_CN[n])
    on_curve = [t] + [x.subs([t, u0]) for x in coords] + [u0]
    q = pt._q("B", n, None)
    return constraint.subs([t, u0]).is_zero() and all(
        eq.subs(on_curve).is_zero() for eq in pt._lambda_chain(q, n - 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_family_b_symbolic_identity(n):
    assert family_b_symbolic_identity(n)


def test_table_discrepancy_report_flags_known_typos():
    entries = pt.table_discrepancy_report()
    mismatches = {(e["family"], e["n"], e["item"])
                  for e in entries if not e["match"]}
    assert mismatches == {
        ("B", 3, "x2"), ("B", 3, "x3"),
        ("C", 4, "constraint"), ("C", 5, "x3"),
    }
    # the C4 constraint discrepancy is precisely 255 vs 225 t^4
    c4 = next(e for e in entries
              if (e["family"], e["n"], e["item"]) == ("C", 4, "constraint"))
    assert "255*t^4" in c4["printed"] and "225*t^4" in c4["derived"]


# (family, l, parameter tuples): for each family, roots of both kinds
TABLE_PARAMS = [
    ("A", 3, [[0, -1], [0, -2], [1, -3], [F(1, 8), F(-3, 4)]]),
    ("A", 5, [[0, 4, 0, -5], [F(-1, 2), 3, F(5, 2), -4]]),
    ("B", None, [[-1], [-3], [F(-7, 2)]]),   # and u0 = -c_n, -4 c_n
    ("C", None, [[F(1, 4), 2], [-1, F(1, 2)], [1, -3]]),  # and t = 1 a root
]


def _roots(spec):
    """The constraint with its rational roots divided out, and every root
    of the square-free constraint as morin_points takes it: exact, or an
    isolating interval of that quotient."""
    sf, _ = pt.up_squarefree(pt.curve_data(spec)[1])
    exact = fv.rational_roots(sf)
    remaining = sf
    for r in exact:
        remaining = pt.up_quotient(remaining, [-r.numerator, r.denominator])
    return remaining, exact + fv.isolate_real_roots(remaining)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_table_invariant_matches_the_hand_coded_rows(n):
    """The inv rows read from their printed text give, at every root,
    the signs of the hand-coded reference rows."""
    for family, l, grid in TABLE_PARAMS:
        seen = set()
        if family == "B":
            grid = grid + [[-pt.FAMILY_B_CN[n]], [-4 * pt.FAMILY_B_CN[n]]]
        if family == "C":   # the constraint is linear in u0
            con = pt.eliminate_curve("C", n)[1]
            at = con.eval([1, 0, 1])
            grid = grid + [[-at / (con.eval([1, 1, 1]) - at), 1]]
        for u in grid:
            spec = pt.UnfoldingSpec(family, n, u, l=l)
            remaining, roots = _roots(spec)
            row = pt.curve_data(spec)[-1]
            sequences = {}
            for root in roots:
                seen.add(isinstance(root, tuple))
                def sign(g, root=root):
                    return fv.sign_at_root(g, remaining, root, sequences)
                assert pt.table_invariant(spec, row, sign) \
                    == oracles.table_invariant_reference(
                        spec, root, remaining), (spec, root)
        assert seen == {True, False}, (family, n)


def test_inv_rows_parse_from_their_printed_text():
    assert set(pt.INV_FORMULAS) == {
        (f, n) for f in "ABC" for n in (2, 3, 4, 5)}
    t, u0, u1 = (Poly.var(i, 3) for i in (1, 2, 3))
    assert pt._inv_row("C", 4, None) == (t, t * (30 * t * t - 4 * t - u1))
    assert pt._inv_row("B", 4, None) == (Poly.var(1, 2),) * 2
    # qbar_x4 is d/ds of family A's constraint s^3 + u1 s + u0
    s, v0, v1 = (Poly.var(i, 3) for i in (1, 2, 3))
    assert pt._inv_row("A", 4, 3) == (Poly.one(3), 3 * s * s + v1)


def test_string_parameters_are_read_as_germ_numbers():
    """A str parameter is read by parse_poly, as --params is: 1e10000000
    is refused at its token, before 10^(10^7) is computed."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="expected end of input, found "
                       "'e10000000' in '1e10000000'"):
        pt.UnfoldingSpec("B", 3, ["1e10000000"])
    assert time.perf_counter() - start < 1
    assert pt.UnfoldingSpec("C", 3, ["-1/2", "3"]).u == (F(-1, 2), F(3))
    with pytest.raises(ValueError, match="over the limit"):
        pt.UnfoldingSpec("B", 3, [str(2 ** pt.MAX_PARAM_BITS)])


def test_parameter_size_is_bounded():
    """Parameters of more than MAX_PARAM_BITS bits in all are refused
    when the spec is made; at the bound a request completes."""
    big = 2 ** pt.MAX_PARAM_BITS
    for family, n, u, l in (("B", 3, [-big], None),
                            ("C", 4, [2 ** 200, F(-1, 2 ** 160)], None),
                            ("A", 2, [1] * 30 + [F(1, big // 2 ** 29)], 32)):
        with pytest.raises(ValueError, match="over the limit of %d"
                           % pt.MAX_PARAM_BITS):
            pt.UnfoldingSpec(family, n, u, l=l)
    # an integer counts its own bits, and 1/2^k counts k + 1
    at_bound = [-(big - 1)]
    assert pt.morin_points(pt.UnfoldingSpec("B", 3, at_bound)).count == 2
    with pytest.raises(ValueError):
        pt.sweep("B", 2, [[-1], [-big]])


def test_report_serialization_deterministic():
    import json
    spec = pt.UnfoldingSpec("C", 2, [F(1, 4), F(2)])
    a = json.dumps(pt.report_to_dict(pt.morin_points(spec)), sort_keys=True)
    b = json.dumps(pt.report_to_dict(pt.morin_points(spec)), sort_keys=True)
    assert a == b
    d = pt.report_to_dict(pt.morin_points(spec))
    assert d["count"] == 4 and d["c_f_bound"] == 4
    for p in d["points"]:
        assert "approx" in p["t"]


@given(st.builds(F, st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 9)),
       st.builds(F, st.integers(0, 10 ** 30), st.integers(1, 10 ** 20)),
       st.booleans())
@example(F(-1, 3), F(2, 3), False)          # midpoint 0
@example(F(-1, 10 ** 13), F(0), True)       # -0.000000000000
@example(F(-3, 10 ** 13), F(1, 10 ** 13), False)
def test_point_approx_is_the_fraction_midpoint(lo, width, exact):
    """A point's ``approx``, taken on the integers of its ends, is the
    Fraction formula's: the digits of floor(|x| 10^12), x = (lo + hi) / 2
    (x = t for an exact point), with the sign of x."""
    hi = lo if exact else lo + width
    t = lo if exact else (lo, hi)
    p = pt.MorinPoint(t, exact, [lo], 2, ("none",), ("none",), True)
    x = (lo + hi) / 2
    digits = str(math.floor(abs(x) * 10 ** 12)).rjust(13, "0")
    want = "%s%s.%s" % ("-" if x < 0 else "", digits[:-12], digits[-12:])
    assert pt.point_to_dict(p)["t"]["approx"] == want


def test_precision_controls_interval_width():
    spec = pt.UnfoldingSpec("C", 2, [F(-1), F(0)])
    rep = pt.morin_points(spec, precision_bits=60)
    for p in rep.points:
        if not p.exact:
            lo, hi = p.t
            assert hi - lo <= F(1, 2 ** 60)
