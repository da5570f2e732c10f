"""Shared corpus and helpers for the test suite."""

import random
import re
from fractions import Fraction

import pytest

from germlab.polyring import Poly, DimensionError
from germlab.germ import MapGerm, GermError
from germlab.morin import normal_form
from germlab.lowdim import _plane_normal_form, _surface_normal_form
from germlab.sigma20 import hyp_normal_form, elli_normal_form
from oracles import rational_det, rational_nullspace


def signed_morin_forms(n):
    """All signed k=n normal forms in n variables."""
    if n == 1:
        return [normal_form(1, 1, s) for s in (1, -1)]
    return [normal_form(n, n, e1, e2) for e1 in (1, -1) for e2 in (1, -1)]


def corpus_30():
    """Exactly 30 normal forms spanning every classifier route."""
    germs = []
    germs += signed_morin_forms(1)                      # 2
    germs += signed_morin_forms(2)                      # 4
    germs += signed_morin_forms(3)                      # 4
    germs += signed_morin_forms(4)                      # 4
    germs.append(normal_form(1, 2))                     # fold, n=2
    germs += [normal_form(2, 3, s, 1) for s in (1, -1)]  # cusp in 3 vars
    for fam in ("lips", "beaks", "planar-swallowtail"):
        germs += [_plane_normal_form(fam, s) for s in (1, -1)]  # 6
    germs.append(_surface_normal_form("whitney-umbrella"))
    germs += [_surface_normal_form("S1+", s) for s in (1, -1)]
    germs += [_surface_normal_form("S1-", s) for s in (1, -1)]  # 5
    germs.append(hyp_normal_form(1))
    germs.append(elli_normal_form(1, 1))                # 2
    assert len(germs) == 30
    return germs


def random_gl_pos(rng, n):
    """Random rational matrix with det > 0, entries in [-3, 3]."""
    while True:
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(n)]
        d = rational_det(A)
        if d == 0:
            continue
        if d < 0:
            A[0] = [-v for v in A[0]]
        return A


def random_rational_gl_pos(rng, n):
    """random_gl_pos with each row divided by a random integer 1..5, so
    det > 0 still."""
    return [[x / d for x in row]
            for row, d in zip(random_gl_pos(rng, n),
                              [rng.randint(1, 5) for _ in range(n)])]


def non_integral_kernel_changes(rng, f, count):
    """``count`` germs B o f o A, A and B from random_rational_gl_pos,
    for which ker df(0) or its left kernel has a reduced row echelon
    basis vector with an entry that is not an integer."""
    out = []
    while len(out) < count:
        g = change_coordinates(f, random_rational_gl_pos(rng, f.src_dim),
                               random_rational_gl_pos(rng, f.tgt_dim))
        J0 = [c.gradient_at(g.origin()) for c in g.components]
        vectors = rational_nullspace(J0) + \
            rational_nullspace([list(col) for col in zip(*J0)])
        if any(x.denominator != 1 for v in vectors for x in v):
            out.append(g)
    return out


def sparse_gl_pos(rng, n):
    """Random cyclic shear with det > 0: the identity plus one entry +-1
    per row, at column i+1 (mod n)."""
    while True:
        A = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for i in range(n):
            A[i][(i + 1) % n] += rng.choice([-1, 1])
        d = rational_det(A)
        if d == 0:
            continue
        if d < 0:
            A[0] = [-v for v in A[0]]
        return A


def compose_linear(p, A):
    """p(A x) for a square rational matrix A of size p.nvars."""
    n = p.nvars
    if len(A) != n or any(len(row) != n for row in A):
        raise DimensionError("matrix must be %dx%d" % (n, n))
    reps = [Poly(n, {tuple(int(k == j) for k in range(n)): c
                     for j, c in enumerate(row) if c != 0}) for row in A]
    return p.subs(reps)


def change_coordinates(f, A, B):
    """B o f o A for linear A (source, n x n) and B (target, m x m)."""
    comps = [compose_linear(c, A) for c in f.components]
    out = []
    for i in range(f.tgt_dim):
        acc = Poly.zero(f.src_dim)
        for j in range(f.tgt_dim):
            if B[i][j] != 0:
                acc = acc + comps[j].scale(B[i][j])
        out.append(acc)
    return MapGerm(out, src_dim=f.src_dim)


def random_quadratic_diffeo(rng, n):
    """x -> A x + Q(x): det A > 0 and two random quadratic monomials per
    component, so orientation-preserving at 0."""
    A = random_gl_pos(rng, n)
    comps = []
    for row in A:
        p = Poly(n, {tuple(int(k == j) for k in range(n)): c
                     for j, c in enumerate(row) if c != 0})
        for _ in range(2):
            expo = [0] * n
            expo[rng.randrange(n)] += 1
            expo[rng.randrange(n)] += 1
            p = p + Poly(n, {tuple(expo): rng.choice([-2, -1, 1, 2])})
        comps.append(p)
    return comps


def quadratic_change(rng, f, cap):
    """psi o f o phi for random_quadratic_diffeo phi and psi (drawn in
    that order), kept to degree ``cap``."""
    phi = random_quadratic_diffeo(rng, f.src_dim)
    psi = random_quadratic_diffeo(rng, f.tgt_dim)
    inner = [c.subs(phi).truncate(cap) for c in f.components]
    return MapGerm([c.subs(inner).truncate(cap) for c in psi],
                   src_dim=f.src_dim)


def assert_labels_agree(classify, reference, g):
    """classify(g) and reference(g) give the same family, signs, invariant
    and witness, or raise the same error class with the same message."""
    try:
        expected = reference(g)
    except GermError as e:
        with pytest.raises(type(e), match=re.escape(str(e))):
            classify(g)
        return
    got = classify(g)
    assert (got.family, got.signs, got.invariant, got.witness) == \
        (expected.family, expected.signs, expected.invariant,
         expected.witness)


def random_monomial(rng, n, degree):
    expo = [0] * n
    for _ in range(degree):
        expo[rng.randrange(n)] += 1
    return Poly(n, {tuple(expo): rng.choice([-2, -1, 1, 2])})


def add_high_terms(rng, f, lowest):
    """f plus two random monomials of degree lowest..lowest+1: one with a
    factor x1 in the first component, one in a random component.  For the
    forms below, the first one gives lambda a term of degree lowest - 1."""
    n = f.src_dim
    comps = list(f.components)
    x1 = Poly.var(1, n)
    comps[0] = comps[0] + x1 * random_monomial(
        rng, n, rng.randint(lowest - 1, lowest))
    i = rng.randrange(len(comps))
    comps[i] = comps[i] + random_monomial(rng, n,
                                          rng.randint(lowest, lowest + 1))
    return MapGerm(comps, src_dim=n)


def monic_chebyshev_params(l):
    """u for which qbar = x^l + u_{l-2} x^(l-2) + ... + u_0 is T_l / 2^(l-1),
    with l real roots in (-1, 1)."""
    prev, cur = [Fraction(1)], [Fraction(0), Fraction(1)]
    for _ in range(l - 1):
        nxt = [Fraction(0)] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return ",".join(str(c / cur[l]) for c in cur[:l - 1])


@pytest.fixture(scope="session")
def corpus():
    return corpus_30()
