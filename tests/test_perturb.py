"""Perturbation lab: univariate root machinery, family construction,
Morin-point enumeration, symbolic identities, table cross-checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from germlab import perturb as pt
from germlab.germ import GermError, translate
from germlab.morin import recognize_morin
from germlab.polyring import Poly
from conftest import monic_chebyshev_params
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
    sf = pt.up_squarefree(p)
    assert pt.up_deg(sf) == 2
    assert oracles.up_eval(sf, 1) == 0 and oracles.up_eval(sf, -2) == 0


def test_rational_roots():
    # 6x^3 - x^2 - 4x - 1 = (x - 1)(2x + 1)(3x + 1)
    p = [F(-1), F(-4), F(-1), F(6)]
    assert pt.rational_roots(p) == [F(-1, 2), F(-1, 3), F(1)]
    assert pt.rational_roots([F(0), F(0), F(1)]) == [F(0)]


def test_isolate_real_roots_irrational():
    p = [F(-2), F(0), F(1)]  # x^2 - 2
    ivs = pt.isolate_real_roots(p, width=F(1, 2 ** 30))
    assert len(ivs) == 2
    for lo, hi in ivs:
        assert hi - lo <= F(1, 2 ** 30)
        assert oracles.up_eval(p, lo) * oracles.up_eval(p, hi) < 0


def test_sign_at_root_exact_and_interval():
    p = [F(-2), F(0), F(1)]  # roots +-sqrt(2)
    ivs = pt.isolate_real_roots(p, width=F(1, 1024))
    g = [F(-1), F(1)]  # x - 1
    signs = sorted(pt.sign_at_root(g, p, iv) for iv in ivs)
    assert signs == [-1, 1]
    # exact root
    assert pt.sign_at_root(g, p, F(3)) == 1
    # shared root -> 0
    assert pt.sign_at_root(p, p, ivs[0]) == 0
    # the one root of (x - 2)(x + 5) in (3/2, 2] is the end 2 itself
    c = [F(-10), F(3), F(1)]
    assert pt.sign_at_root([F(-3), F(1)], c, (F(3, 2), F(2))) == -1
    assert pt.sign_at_root([F(-2), F(1)], c, (F(3, 2), F(2))) == 0


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
        for iv in pt.isolate_real_roots(c, width=width):
            assert pt.sign_at_root(g, c, iv) == oracles.sign_at_root(g, c, iv)
            if width is None:
                assert pt.refine_root(c, *iv, F(1, 2 ** 40)) == \
                    oracles.refine_root(c, *iv, F(1, 2 ** 40))


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
    assert pt.rational_roots(p) == sorted(roots)
    found = pt.isolate_real_roots(p, width=F(1, 256))
    assert len(found) == len(roots) + irrational


def test_sturm_count_interval():
    """The sign variations of the Sturm chain at the ends of (lo, hi]
    differ by the number of roots in it."""
    p = [F(0), F(-1), F(0), F(1)]  # x^3 - x: roots -1, 0, 1

    def count(lo, hi):
        return (pt._variations([pt.up_sign_at(q, lo) for q in chain]) -
                pt._variations([pt.up_sign_at(q, hi) for q in chain]))
    chain = pt.sturm_chain(p)
    assert count(F(-2), F(2)) == 3
    assert count(F(1, 2), F(2)) == 1


def test_integer_input_isolates_and_finds_roots():
    """Integer coefficient lists work as Fraction ones do: the Cauchy
    bound is a Fraction, the intervals of x^2 - 2 bracket -sqrt(2) and
    sqrt(2), and the rational roots of 4x^2 - 1 are found."""
    p = [-2, 0, 1]
    assert pt.up_root_bound(p) == 3
    assert isinstance(pt.up_root_bound(p), Fraction)
    for width in (None, F(1, 2 ** 20)):
        (lo1, hi1), (lo2, hi2) = pt.isolate_real_roots(p, width=width)
        assert lo1 < hi1 <= 0 and lo1 ** 2 > 2 >= hi1 ** 2
        assert 0 <= lo2 < hi2 and lo2 ** 2 < 2 <= hi2 ** 2
    assert pt.rational_roots([-1, 0, 4]) == [F(-1, 2), F(1, 2)]


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
    c = pt.up_squarefree(pt.up_mul(c, pt.up_trim(other)))
    if not 1 <= pt.up_deg(c) <= 6:
        return
    a = abs(c[-1])
    for width in (None, F(1, 2), F(1, 2 * a), F(1, 2 ** 20), F(1, 2 ** 40),
                  F(1, 2 ** 120)):
        _same_intervals(pt.isolate_real_roots(c, width),
                        oracles.isolate_real_roots(c, width))
    found = pt.isolate_real_roots(c)
    for lo, hi in found:
        for width in (F(1, 2 * a), F(1, 2 ** 40), hi - lo, 2 * (hi - lo)):
            _same_intervals([pt.refine_root(c, lo, hi, width)],
                            [oracles.refine_root(c, lo, hi, width)])
    exact = pt.rational_roots(c)
    assert exact == oracles.rational_roots(c, found)
    assert set(roots) <= set(exact)


def test_isolation_nudges_a_split_point_off_a_root():
    """x^3 - x: the Cauchy bound is 2 and the first midpoint 0 is a root,
    so the first split is at -2 + 4/3 = -2/3.  Refined to 1/4, every
    root is an exact hit."""
    c = [0, -1, 0, 1]
    _same_intervals(pt.isolate_real_roots(c),
                    [(F(-2), F(-2, 3)), (F(-2, 3), F(2, 3)), (F(2, 3), F(2))])
    _same_intervals(pt.isolate_real_roots(c), oracles.isolate_real_roots(c))
    _same_intervals(pt.isolate_real_roots(c, F(1, 4)),
                    [(F(-1), F(-1)), (F(0), F(0)), (F(1), F(1))])


def test_refine_root_exact_hit_and_integer_ends():
    """8x - 3 on (0, 1]: the third midpoint 3/8 is the root.  Integer
    ends given as int bisect as Fractions do and return Fractions; a
    width of at least the interval returns it unhalved."""
    _same_intervals([pt.refine_root([-3, 8], F(0), F(1), F(1, 2 ** 20))],
                    [(F(3, 8), F(3, 8))])
    c = [-2, 0, 1]
    _same_intervals([pt.refine_root(c, 1, 2, F(1, 2 ** 40))],
                    [oracles.refine_root(c, F(1), F(2), F(1, 2 ** 40))])
    _same_intervals([pt.refine_root([-3, 2], 1, 2, F(1, 8))],
                    [(F(3, 2), F(3, 2))])
    _same_intervals([pt.refine_root(c, 1, 2, 1)], [(F(1), F(2))])


_int_factor = st.lists(st.integers(-4, 4), min_size=2, max_size=3).filter(
    lambda c: c[-1] != 0)


def _proportional(p, q):
    """p = c q for some rational c != 0 (p and q trimmed)."""
    return len(p) == len(q) and all(a * q[-1] == b * p[-1]
                                    for a, b in zip(p, q))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_int_factor, st.integers(1, 3)), min_size=1,
                max_size=3),
       st.lists(_int_factor, max_size=2), st.integers(1, 6))
def test_integer_gcd_squarefree_and_quotient_match_the_fraction_ones(
        powers, others, den):
    """a: a product of integer factors, some repeated, divided by den;
    b: a's first factor times others.  The integer up_gcd, up_squarefree
    and up_quotient agree with the Fraction long division of ``oracles``
    up to a nonzero constant, and the gcd is primitive with a positive
    leading coefficient."""
    a = [F(1)]
    for f, e in powers:
        for _ in range(e):
            a = pt.up_mul(a, f)
    a = [F(x) / den for x in a]
    b = [F(x) for x in powers[0][0]]
    for f in others:
        b = pt.up_mul(b, f)
    g = pt.up_gcd(a, b)
    assert _proportional(g, oracles.up_gcd(a, b))
    assert g[-1] > 0 and math.gcd(*g) == 1
    assert _proportional(pt.up_squarefree(a), oracles.up_squarefree(a))
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
                sigma, con = pt.curve_data(spec)
                assert pt.up_deg(con) >= 1
                assert sigma[0] == Poly.var(1, 1)
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
    q = pt._q_poly("B", n, None, [Poly.var(n + 1, n + 1)])
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


def test_precision_controls_interval_width():
    spec = pt.UnfoldingSpec("C", 2, [F(-1), F(0)])
    rep = pt.morin_points(spec, precision_bits=60)
    for p in rep.points:
        if not p.exact:
            lo, hi = p.t
            assert hi - lo <= F(1, 2 ** 60)
