"""The classifier keeps lambda, eta and the eta-chain only as jets.

An oracle in sympy recomputes the exact lambda of random germs and checks
that germlab's jets agree with the exact objects wherever the criteria
read them; a determinacy check adds terms of high degree and compares
the CLI output byte for byte."""

import random
from fractions import Fraction

import pytest

from germlab.cli import main
from germlab.germ import analyze, jet_degree, null_field
from germlab.germparse import render_map
from germlab.lowdim import _plane_normal_form
from germlab.morin import eta_lambda_chain, normal_form
from germlab.polyring import Poly
from germlab.sigma20 import elli_normal_form, hyp_normal_form
from conftest import add_high_terms, change_coordinates, random_gl_pos
from oracles import rational_det

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ                     # noqa: E402
from sympy.polys.matrices import DomainMatrix          # noqa: E402
from sympy.polys.rings import ring                     # noqa: E402


def _qq(c):
    return QQ(c.numerator, c.denominator)


def exact_lambda(F, A, B):
    """Exact lambda of B o F o A, computed in sympy only.

    By the chain rule J(B o F o A)(x) = B J_F(Ax) A, so its determinant is
    det B * det A * lambda_F(Ax); lambda_F is the determinant of F's own
    Jacobian, which is sparse where the Jacobian of B o F o A is dense."""
    n = F.src_dim
    R, *xs = ring(["x%d" % i for i in range(1, n + 1)], QQ)
    comps = [R.from_dict({e: _qq(c) for e, c in p.terms.items()})
             for p in F.components]
    J = DomainMatrix([[c.diff(x) for x in xs] for c in comps], (n, n),
                     R.to_domain())
    lam = J.det()
    images = [sum((_qq(A[i][j]) * xs[j] for j in range(n)), R.zero)
              for i in range(n)]
    lam = lam.compose(list(zip(xs, images)))
    lam = lam * _qq(rational_det(A) * rational_det(B))
    return Poly(n, {e: Fraction(int(c.numerator), int(c.denominator))
                    for e, c in lam.terms()})


def oracle_germs():
    """(name, F, A, B): k = n and k = n - 1 Morin forms for n = 2..5,
    the plane germs and both corank-two umbilics, each with random terms
    above the jet degree, under random orientation-preserving changes."""
    rng = random.Random(20261018)
    cases = []
    for n in (2, 3, 4, 5):
        cases.append(("morin k=n=%d" % n, normal_form(
            n, n, rng.choice([1, -1]), rng.choice([1, -1]))))
        cases.append(("morin k=%d n=%d" % (n - 1, n),
                      normal_form(n - 1, n, rng.choice([1, -1]))))
    for fam in ("lips", "beaks", "planar-swallowtail"):
        cases.append((fam, _plane_normal_form(fam, rng.choice([1, -1]))))
    cases.append(("sigma20-hyp", hyp_normal_form(-1)))
    cases.append(("sigma20-elli", elli_normal_form(1, -1)))
    out = []
    for name, f in cases:
        n = f.src_dim
        F = add_high_terms(rng, f, jet_degree(n) + 2)
        out.append((name, F, random_gl_pos(rng, n), random_gl_pos(rng, n)))
    return out


ORACLE_GERMS = oracle_germs()
# Beyond this degree the untruncated chain of a dense germ grows past
# 100 000 terms and takes about a minute; the n = 5 label tests cover D = 5.
UNTRUNCATED_CHAIN_MAX_D = 4


@pytest.mark.parametrize("name,F,A,B", ORACLE_GERMS,
                         ids=[case[0] for case in ORACLE_GERMS])
def test_jets_match_exact_objects(name, F, A, B):
    g = change_coordinates(F, A, B)
    n = g.src_dim
    D = jet_degree(n)
    ana = analyze(g)
    exact = exact_lambda(F, A, B)
    assert exact.total_degree() > D      # the truncation drops something
    assert ana.lam == exact.truncate(D)
    if ana.corank0 != 1:
        return
    # J * eta = lambda * e_j mod m^D, for exactly one j
    eta = null_field(g, ana)
    J = ana.jacobian
    rows = []
    for i in range(n):
        acc = Poly.zero(n)
        for k in range(n):
            acc = acc + J.entry(i, k) * eta.components[k]
        rows.append(acc.truncate(D - 1))
    lam_jet = exact.truncate(D - 1)
    assert sum(1 for p in rows if p == lam_jet) == 1
    assert sum(1 for p in rows if p.is_zero()) == n - 1
    if D > UNTRUNCATED_CHAIN_MAX_D:
        return
    # the truncated chain reads as the untruncated chain from exact lambda
    chain = eta_lambda_chain(ana.lam, eta, D)
    full = [exact]
    for _ in range(D):
        full.append(eta.apply(full[-1]))
    origin = g.origin()
    for j in range(D + 1):
        assert chain[j].eval(origin) == full[j].eval(origin), j
        assert chain[j].total_degree() <= D - j
    for j in range(D):
        assert chain[j].gradient_at(origin) == full[j].gradient_at(origin), j


def classify_json(capsys, f):
    assert main(["classify", "--json", render_map(f)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_terms_above_determinacy_degree_change_nothing(capsys, n):
    """A k-Morin germ is (k+1)-determined: terms of degree >= n + 2 added
    to a changed k = n form leave the classify --json output unchanged."""
    rng = random.Random(100 + n)
    f = normal_form(n, n, rng.choice([1, -1]), rng.choice([1, -1]))
    g = change_coordinates(f, random_gl_pos(rng, n), random_gl_pos(rng, n))
    base = classify_json(capsys, g)
    assert '"route":"morin"' in base
    for _ in range(2):
        assert classify_json(capsys, add_high_terms(rng, g, n + 2)) == base
