"""Exact polynomial arithmetic: examples, ring axioms, calculus, linear
algebra, and a float finite-difference bridge for the formal derivative."""

import gc
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from germlab.polyring import (Poly, PolyMatrix, rat, dir_deriv,
                              DimensionError, clear_denominators,
                              integer_adjugate, integer_kernel,
                              _series_mul)
from germlab.germ import MapGerm, VecField, analyze, prepared_form
from germlab.morin import ClassLabel
from germlab.perturb import UnfoldingSpec, morin_points
from conftest import compose_linear
from oracles import (rational_det, rational_nullspace, rational_rank,
                     rational_rref)


def P(nvars, terms):
    return Poly(nvars, terms)


# ---- direct examples ----------------------------------------------------

def test_construction_prunes_zero_terms():
    p = P(2, {(1, 0): Fraction(0), (0, 1): 3})
    assert p.terms == {(0, 1): Fraction(3)}


def test_var_and_const():
    x1 = Poly.var(1, 2)
    assert x1.terms == {(1, 0): Fraction(1)}
    assert Poly.const(0, 3).is_zero()
    assert Poly.const("2/3", 1).constant_term() == Fraction(2, 3)


def test_basic_arithmetic():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 ** 2 - x2 ** 2
    assert (x1 + 1) * (x1 - 1) == x1 ** 2 - 1


def test_pow_matches_repeated_multiplication():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    p = x1 + 2 * x2
    q = Poly.one(2)
    for _ in range(5):
        q = q * p
    assert p ** 5 == q


def test_partial_derivative_values():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    p = x1 ** 3 * x2 + x2 ** 2
    assert p.partial(1) == 3 * x1 ** 2 * x2
    assert p.partial(2) == x1 ** 3 + 2 * x2


def test_eval_exact():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    p = x1 ** 2 + x1 * x2
    assert p.eval([Fraction(1, 2), Fraction(1, 3)]) == \
        Fraction(1, 4) + Fraction(1, 6)


def test_subs_composition():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    p = x1 * x2
    # x1 -> x1 + x2, x2 -> x2^2
    q = p.subs([x1 + x2, x2 ** 2])
    assert q == x1 * x2 ** 2 + x2 ** 3


def test_subs_leaves_no_reference_cycle():
    """Garbage from one ``subs`` call is freed by reference counting alone,
    so memory does not wait for the cyclic collector."""
    x, y = Poly.var(1, 2), Poly.var(2, 2)
    p = (x + y) ** 3
    gc.disable()
    try:
        gc.collect()
        p.subs([x + y, x * y])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compose_linear():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    p = x1 ** 2
    A = [[0, 1], [1, 0]]  # swap variables
    assert compose_linear(p, A) == x2 ** 2
    assert compose_linear(x1 + x2, [[2, 1], [0, -1]]) == x1 * 2


def _value_instances():
    f = MapGerm([Poly.var(1, 1) ** 2])
    spec = UnfoldingSpec("B", 2, [-6])
    report = morin_points(spec)
    return {
        "Poly": Poly.var(1, 1),
        "PolyMatrix": PolyMatrix(1, 1, [Poly.var(1, 1)]),
        "VecField": VecField([Poly.one(1)]),
        "MapGerm": f,
        "GermAnalysis": analyze(f),
        "PreparedForm": prepared_form(f),
        "ClassLabel": ClassLabel("fold"),
        "UnfoldingSpec": spec,
        "MorinPoint": report.points[0],
        "PerturbationReport": report,
    }


@pytest.mark.parametrize("name", ["Poly", "PolyMatrix", "VecField", "MapGerm",
                                  "GermAnalysis", "PreparedForm", "ClassLabel",
                                  "UnfoldingSpec", "MorinPoint",
                                  "PerturbationReport"])
def test_value_types_are_immutable(name):
    obj = _value_instances()[name]
    assert type(obj).__name__ == name
    slot = type(obj).__slots__[0]
    before = getattr(obj, slot)
    with pytest.raises(AttributeError, match="^%s is immutable$" % name):
        setattr(obj, slot, None)
    with pytest.raises(AttributeError, match="^%s is immutable$" % name):
        obj.extra = 1
    assert getattr(obj, slot) is before


def test_dimension_errors():
    with pytest.raises(DimensionError):
        Poly.var(1, 2) + Poly.var(1, 3)
    with pytest.raises(DimensionError):
        Poly.var(3, 2)
    with pytest.raises(DimensionError):
        Poly.var(1, 2).eval([1])


def test_dir_deriv():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    p = x1 ** 2 * x2
    # field (x2, 1): x2 * dp/dx1 + dp/dx2
    v = [x2, Poly.one(2)]
    assert dir_deriv(p, v) == 2 * x1 * x2 ** 2 + x1 ** 2


def test_render_round_data():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    p = x1 ** 2 - Poly.const(Fraction(1, 2), 2) * x2
    assert p.render() == "x1^2 - 1/2*x2"
    assert Poly.zero(2).render() == "0"


# ---- hypothesis ring axioms --------------------------------------------

coef = st.fractions(min_value=-50, max_value=50, max_denominator=10)
expo = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(expo, coef, max_size=5).map(lambda d: Poly(2, d))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Poly.zero(2) == p
    assert p * Poly.one(2) == p
    assert p - p == Poly.zero(2)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_derivative_is_linear_and_leibniz(p, q):
    for i in (1, 2):
        assert (p + q).partial(i) == p.partial(i) + q.partial(i)
        assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_mixed_partials_commute(p):
    assert p.partial(1).partial(2) == p.partial(2).partial(1)


@settings(max_examples=40, deadline=None)
@given(polys,
       st.fractions(min_value=-5, max_value=5, max_denominator=5),
       st.fractions(min_value=-5, max_value=5, max_denominator=5))
def test_eval_is_ring_homomorphism(p, a, b):
    q = p * p + p
    assert q.eval([a, b]) == p.eval([a, b]) ** 2 + p.eval([a, b])


# ---- finite-difference bridge ------------------------------------------

def test_formal_derivative_matches_finite_difference():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    p = x1 ** 3 * x2 - 2 * x1 * x2 ** 2 + Fraction(1, 3) * x2
    pt = [0.37, -0.81]
    h = 1e-6
    for i, e in ((1, [h, 0.0]), (2, [0.0, h])):
        num = (p.eval([Fraction(pt[j] + e[j]) for j in range(2)]) -
               p.eval([Fraction(pt[j] - e[j]) for j in range(2)])) / Fraction(2 * h)
        exact = p.partial(i).eval([Fraction(v) for v in pt])
        assert abs(float(num) - float(exact)) <= 1e-6 * max(1.0, abs(float(exact)))


# ---- matrices ----------------------------------------------------------

def test_det_2x2():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    M = PolyMatrix(2, 2, [x1, x2, x2, x1])
    assert M.det() == x1 ** 2 - x2 ** 2


@settings(max_examples=25, deadline=None)
@given(st.lists(st.dictionaries(expo, coef, max_size=3), min_size=9, max_size=9))
def test_adjugate_identity(term_dicts):
    M = PolyMatrix(3, 3, [Poly(2, d) for d in term_dicts])
    adj = M.adjugate()
    d = M.det()
    # M * adj(M) = det(M) * I
    for i in range(3):
        for j in range(3):
            acc = Poly.zero(2)
            for k in range(3):
                acc = acc + M.entry(i, k) * adj.entry(k, j)
            assert acc == (d if i == j else Poly.zero(2))


def test_rational_linear_algebra():
    mat = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rational_rank(mat) == 2
    ns = rational_nullspace(mat)
    assert len(ns) == 1
    for row in mat:
        assert sum(r * v for r, v in zip(row, ns[0])) == 0
    rref, pivots = rational_rref(mat)
    assert pivots == [0, 1]
    assert rational_det([[2, 1], [1, 1]]) == 1
    assert rational_det([[1, 2], [2, 4]]) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_rational_det_matches_cofactor(rows):
    M = PolyMatrix(3, 3, [Poly.const(v, 1) for row in rows for v in row])
    assert M.det().constant_term() == rational_det(rows)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=2, max_size=4))
def test_nullspace_vectors_annihilate(rows):
    for v in rational_nullspace(rows):
        for row in rows:
            assert sum(rat(a) * b for a, b in zip(row, v)) == 0
    assert rational_rank(rows) + len(rational_nullspace(rows)) == 4


# ---- memoized expansion and truncated products ---------------------------

def _rational_minor(mat, drop_i, drop_j):
    return [[v for j, v in enumerate(row) if j != drop_j]
            for i, row in enumerate(mat) if i != drop_i]


def _sparse_poly_matrix(rng, n):
    """n x n matrix of Polys in 2 variables, about half of its entries
    zero, whose determinant is not identically zero."""
    while True:
        ents = []
        for _ in range(n * n):
            terms = {}
            if rng.random() < 0.5:
                for _ in range(rng.randint(1, 3)):
                    expo = (rng.randint(0, 2), rng.randint(0, 2))
                    terms[expo] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            ents.append(Poly(2, terms))
        M = PolyMatrix(n, n, ents)
        if rational_det(M.eval([Fraction(1, 3), Fraction(-2, 7)])) != 0:
            return M


@pytest.mark.parametrize("n", [4, 5, 6])
def test_det_and_adjugate_match_rational_values(n):
    """det() and adjugate() of sparse polynomial matrices, evaluated at
    random rational points, against Gaussian elimination of the values."""
    rng = random.Random(n)
    for _ in range(4):
        M = _sparse_poly_matrix(rng, n)
        d, adj = M.det(), M.adjugate()
        for _ in range(3):
            pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(2)]
            vals = M.eval(pt)
            assert d.eval(pt) == rational_det(vals)
            for i in range(n):
                for j in range(n):
                    cof = rational_det(_rational_minor(vals, j, i))
                    assert adj.entry(i, j).eval(pt) == \
                        (-cof if (i + j) % 2 else cof)


@settings(max_examples=60, deadline=None)
@given(polys, polys, st.integers(0, 7))
def test_capped_product_is_truncated_product(p, q, cap):
    assert p.mul(q, cap) == (p * q).truncate(cap)
    assert all(sum(e) <= cap for e in p.mul(q, cap).terms)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.dictionaries(expo, coef, max_size=3), min_size=9, max_size=9),
       st.integers(0, 6))
def test_capped_det_is_truncated_det(term_dicts, cap):
    M = PolyMatrix(3, 3, [Poly(2, d) for d in term_dicts])
    assert M.det(cap) == M.det().truncate(cap)
    for j in range(3):
        adj = M.adjugate()
        assert M.adjugate_column(j, cap) == \
            [adj.entry(i, j).truncate(cap) for i in range(3)]


def _value_by_definition(p, point):
    """sum of c * prod(x_i^e_i), with 0^0 = 1."""
    total = Fraction(0)
    for expo, c in p.terms.items():
        for x, e in zip(point, expo):
            c *= Fraction(x) ** e
        total += c
    return total


@settings(max_examples=80, deadline=None)
@given(polys, st.lists(st.integers(-3, 3), min_size=2, max_size=2))
def test_eval_and_gradient_at_origin_match_the_general_path(p, point):
    origin = [Fraction(0)] * 2
    assert p.eval(origin) == _value_by_definition(p, origin)
    assert p.eval(point) == _value_by_definition(p, point)
    assert p.gradient_at([0, 0]) == p.gradient_at(origin) == [
        _value_by_definition(p.partial(i), origin) for i in (1, 2)]
    assert p.gradient_at(point) == [
        _value_by_definition(p.partial(i), point) for i in (1, 2)]


def _random_integer_matrix(rng, nrows, ncols):
    """An integer matrix whose later rows are sometimes combinations of
    its first ones and whose columns are sometimes zero, in random row
    order: every rank from 0 to min(nrows, ncols) occurs."""
    mat = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.5:
        rank = rng.randint(0, nrows - 1)
        for i in range(rank, nrows):
            coefs = [rng.randint(-2, 2) for _ in range(rank)]
            mat[i] = [sum(c * row[j] for c, row in zip(coefs, mat))
                      for j in range(ncols)]
    if rng.random() < 0.2:
        zero = rng.randrange(ncols)
        for row in mat:
            row[zero] = 0
    rng.shuffle(mat)
    return mat


def test_integer_linear_algebra_matches_the_rational_routines():
    """The one fraction-free elimination below integer_kernel and
    integer_adjugate, on square, tall and wide matrices of every rank:
    the kernel has the rank of the rational elimination and is the
    primitive positive multiple of its nullspace; det M is the rational
    determinant, and adj M satisfies M adj M = det M * I or is None when
    M is singular.  M with column 0 negated is M diag(-1, 1, ...), with
    determinant -det M and adjugate diag(1, -1, ...) adj M: the prepared
    form reads it so rather than eliminating L again when det L < 0."""
    rng = random.Random(77)
    for _ in range(400):
        n = rng.randint(1, 6)
        M = _random_integer_matrix(rng, n, n)
        d, adj = integer_adjugate(M)
        assert d == rational_det(M)
        flipped = integer_adjugate([[-row[0]] + row[1:] for row in M])
        if d:
            for i in range(n):
                for j in range(n):
                    assert sum(M[i][k] * adj[k][j] for k in range(n)) == \
                        (d if i == j else 0)
            assert flipped == (-d, adj[:1] + [[-x for x in row]
                                              for row in adj[1:]])
        else:
            assert adj is None and flipped == (0, None)
        for mat in (M, _random_integer_matrix(rng, rng.randint(1, 6), n)):
            rank, basis = integer_kernel(mat)
            reference = rational_nullspace(mat)
            assert rank == rational_rank(mat)
            assert len(basis) == len(reference) == n - rank
            for v, w in zip(basis, reference):
                c = v[w.index(1)]
                assert c > 0 and v == [c * x for x in w]
                assert math.gcd(*v) == 1
    assert integer_adjugate([]) == (1, [])
    assert integer_adjugate([[0, 0], [0, 0]]) == (0, None)


_nonzero_rat = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1),
                        st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_kernel_is_a_positive_multiple_of_the_rref_nullspace(data):
    """At every corank 0..n of an n-column matrix with rational entries,
    the rows scaled by clear_denominators have the rank of the rational
    elimination, and each integer_kernel vector is primitive and a
    positive multiple of the matching rational_nullspace vector."""
    n = data.draw(st.integers(1, 5), label="n")
    corank = data.draw(st.integers(0, n), label="corank")
    rank = n - corank
    rows = [data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
            for _ in range(rank)]
    assume(rational_rank(rows) == rank)
    # rational multiples of the independent rows, and combinations of them
    mat = [[c * x for x in row]
           for row, c in zip(rows, data.draw(st.lists(
               _nonzero_rat, min_size=rank, max_size=rank)))]
    for _ in range(data.draw(st.integers(0 if rank else 1, 2))):
        coefs = data.draw(st.lists(_nonzero_rat, min_size=rank,
                                   max_size=rank))
        mat.append([sum((c * row[j] for c, row in zip(coefs, rows)),
                        Fraction(0)) for j in range(n)])
    mat = data.draw(st.permutations(mat))
    ints = [clear_denominators(row) for row in mat]
    assert all(type(x) is int for row in ints for x in row)
    got, basis = integer_kernel(ints)
    reference = rational_nullspace(mat)
    assert got == rank == rational_rank(mat)
    assert len(basis) == len(reference) == corank
    for v, w in zip(basis, reference):
        c = v[w.index(1)]
        assert c > 0 and v == [c * x for x in w]
        assert math.gcd(*v) == 1


def test_clear_denominators_scales_by_the_lcm():
    assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 5]) == \
        [3, -4, 30]
    assert clear_denominators([]) == []


def test_series_product_is_truncated():
    assert _series_mul([1, 2, 3], [0, 1, 1], 3) == [0, 1, 3, 5]
    assert _series_mul([1, 1], [1, 1], 0) == [1]
    assert _series_mul([0, 0, 5], [0, 7], 2) == [0, 0, 0]
