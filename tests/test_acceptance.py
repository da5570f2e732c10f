"""Acceptance gate: eleven end-to-end criteria, one test (and one
pass/fail line under ``pytest -v``) per criterion."""

import random
from fractions import Fraction

from germlab.polyring import Poly, dir_deriv
from germlab.germ import MapGerm, analyze, translate
from germlab.morin import recognize_morin, normal_form, class_count
from germlab.lowdim import (classify_plane, classify_surface,
                            _plane_normal_form, _surface_normal_form)
from germlab.sigma20 import (classify_sigma20, hyp_normal_form,
                             elli_normal_form)
from germlab import perturb as pt
from germlab.germparse import parse_map, render_map, ParseError
from germlab.cli import classify_any

from conftest import corpus_30, random_gl_pos, change_coordinates
import fraction_view as fv
import oracles
from oracles import eta_chain_label, gradient_at
from test_perturb import family_b_symbolic_identity

F = Fraction


def _signed(k, n):
    if k == 1 and n == 1:
        return [(normal_form(1, 1, s), s, 1) for s in (1, -1)]
    return [(normal_form(k, n, e1, e2), e1, e2)
            for e1 in (1, -1) for e2 in (1, -1)]


def test_criterion_01_class_counts_k_equals_n():
    """Classifying every signed k = n normal form, n = 1..6, yields
    exactly 2, 2, 2, 4, 2, 2 distinct labels."""
    expected = {1: 2, 2: 2, 3: 2, 4: 4, 5: 2, 6: 2}
    for n in range(1, 7):
        labels = {recognize_morin(f) for f, _, _ in _signed(n, n)}
        assert len(labels) == expected[n], \
            "n=%d: got %d classes, want %d" % (n, len(labels), expected[n])
    print("ACCEPTANCE 1: PASS - k=n class counts 2,2,2,4,2,2")


def test_criterion_02_class_counts_k_below_n_and_folds():
    """For k < n <= 6: 2 classes for even k, 1 for odd k; every signed
    fold with n > 1 labels identically to (x1^2, x2, ..., xn)."""
    for n in range(2, 7):
        for k in range(1, n):
            labels = {recognize_morin(f) for f, _, _ in _signed(k, n)}
            want = 2 if k % 2 == 0 else 1
            assert len(labels) == want, (k, n, len(labels))
    for n in range(2, 7):
        base = recognize_morin(normal_form(1, n, 1))
        assert recognize_morin(normal_form(1, n, -1)) == base
    print("ACCEPTANCE 2: PASS - k<n counts and fold collapse")


def test_criterion_03_sign_identities():
    """sign eta^n lambda(0) = eps1 eps2 and sign det grad chain(0) =
    (-1)^(n-1) eps1^n eps2^(n+1) for every sign choice and n <= 6, with
    the kernel field oriented as +d/dx1 (the orientation the identities
    are stated in; the class labels themselves are orientation-robust).
    The signs are read by the eta-chain reference, which takes that field."""
    for n in range(1, 7):
        eta = [1] + [0] * (n - 1)
        for f, e1, e2 in _signed(n, n):
            res = eta_chain_label(f, eta=eta)
            assert res == recognize_morin(f)
            assert res.k == n
            assert res.witness["eta_k_lambda_sign"] == e1 * e2, (n, e1, e2)
            if n > 1:
                assert res.witness["grad_det_sign"] == \
                    (-1) ** (n - 1) * e1 ** n * e2 ** (n + 1), (n, e1, e2)
    print("ACCEPTANCE 3: PASS - sign identities for all signed forms, n<=6")


def test_criterion_04_invariance_200_changes():
    """200 random orientation-preserving rational linear changes (source
    and target) over the 30-germ corpus leave every label unchanged."""
    corpus = corpus_30()
    rng = random.Random(0xA15C)
    baselines = [classify_any(f)[0] for f in corpus]
    checked = 0
    while checked < 200:
        f = corpus[checked % len(corpus)]
        base = baselines[checked % len(corpus)]
        A = random_gl_pos(rng, f.src_dim)
        B = random_gl_pos(rng, f.tgt_dim)
        g = change_coordinates(f, A, B)
        label, _ = classify_any(g)
        assert label == base, (checked, base.describe(), label.describe())
        checked += 1
    print("ACCEPTANCE 4: PASS - 200/200 coordinate changes label-stable")


def test_criterion_05_family_b():
    """Family B at u0 = -c_n: 2 points at t = +-1, classifier-verified,
    invariant signs matching the published inv row; plus the symbolic
    curve identities."""
    # published rows, in their own convention: n=4 pair is (eps1*eps2, eps2)
    published = {
        2: {("etaklam", 1), ("etaklam", -1)},
        3: {("prod", 1)},
        4: {("pair", (1, 1)), ("pair", (-1, -1))},
        5: {("detgrad", 1), ("detgrad", -1)},
    }
    for n in (2, 3, 4, 5):
        rep = pt.morin_points(pt.UnfoldingSpec("B", n, [-pt.FAMILY_B_CN[n]]))
        assert rep.count == 2
        assert sorted(p.t for p in rep.points) == [F(-1), F(1)]
        f = pt.build_unfolding(pt.UnfoldingSpec("B", n, [-pt.FAMILY_B_CN[n]]))
        got = set()
        for p in rep.points:
            assert p.verified
            res = recognize_morin(translate(f, p.location))
            assert res.k == n and res.invariant == p.invariant_value
            kind, val = p.invariant_value
            if kind == "pair":
                val = (val[0], -val[1])  # classifier pair -> published pair
            got.add((kind, val))
        assert got == published[n], (n, got)
        assert family_b_symbolic_identity(n)
    print("ACCEPTANCE 5: PASS - family B points, signs and symbolic identities")


def test_criterion_06_family_a():
    """Family A, l in {2, 3}, n in {2..5}, qbar with l simple rational
    roots: exactly l points, all classifier-verified, invariant =
    sign qbar'(root) for n >= 3 and +1 for n = 2."""
    for l, u in ((2, [F(-1)]), (3, [F(0), F(-1)])):
        qbar = oracles.qbar_coeffs(l, u)
        dqbar = pt.up_deriv(qbar)
        roots = fv.rational_roots(qbar)
        assert len(roots) == l
        for n in (2, 3, 4, 5):
            rep = pt.morin_points(pt.UnfoldingSpec("A", n, u, l=l))
            assert rep.count == l == rep.c_f_bound, (l, n, rep.count)
            for p in rep.points:
                assert p.verified and p.k == n
                s = 1 if oracles.up_eval(dqbar, p.t) > 0 else -1
                kind, val = p.invariant_value
                if n == 2:
                    assert val == 1
                elif n == 4:
                    assert val == (1, -s)  # classifier pair = (1, -eps2)
                else:
                    assert val == s
    print("ACCEPTANCE 6: PASS - family A attains c(f)=l with table signs")


def test_criterion_07_family_c():
    """Family C: c(f) = 4 attained for each n; 100% agreement between the
    table inv formulas and the classifier at every point of a parameter
    grid; the printed-vs-derived discrepancies are surfaced by name."""
    grid = [(F(-1), F(0)), (F(-1, 2), F(1, 3)), (F(-2), F(-1)),
            (F(1, 4), F(2)), (F(-1, 8), F(1, 2))]
    for n in (2, 3, 4, 5):
        counts = []
        for u in grid:
            rep = pt.morin_points(pt.UnfoldingSpec("C", n, u))
            counts.append(rep.count)
            for p in rep.points:
                assert p.invariant_value == p.table_value, (n, u, p.t)
                assert p.verified
        assert max(counts) == 4, (n, counts)
    entries = pt.table_discrepancy_report()
    mismatches = {(e["family"], e["n"], e["item"])
                  for e in entries if not e["match"]}
    assert ("C", 4, "constraint") in mismatches
    assert ("C", 5, "x3") in mismatches
    print("ACCEPTANCE 7: PASS - family C c(f)=4, full inv agreement; "
          "discrepancy report flags %s" % sorted(mismatches))


def test_criterion_08_sigma20():
    """2 hyperbolic + 4 elliptic signed classes, each normal form
    recovering its own signs; hyperbolic reference values hess det = -16
    and 4x4 det = -4."""
    hyp = set()
    for s in (1, -1):
        res = classify_sigma20(hyp_normal_form(s))
        assert res.family == "sigma20-hyp" and res.signs[0] == s
        hyp.add(res)
    elli = set()
    for e1 in (1, -1):
        for e2 in (1, -1):
            res = classify_sigma20(elli_normal_form(e1, e2))
            assert res.family == "sigma20-elli" and res.signs == (e1, e2)
            elli.add(res)
    assert len(hyp) == 2 and len(elli) == 4
    # the values, as the cofactor reference reads them
    g, _ = oracles.target_normalize(hyp_normal_form(1))
    ana = analyze(g)
    xi, eta = oracles.kernel_frame(g, ana)
    o = g.origin()
    h = [[dir_deriv(dir_deriv(ana.lam, f2), f1).eval(o) for f2 in (xi, eta)]
         for f1 in (xi, eta)]
    assert h[0][0] * h[1][1] - h[0][1] * h[1][0] == -16
    from oracles import rational_det
    grads = [gradient_at(dir_deriv(c, fld), o)
             for fld in (xi, eta) for c in g.components[:2]]
    assert rational_det(grads) == -4
    print("ACCEPTANCE 8: PASS - sigma20 2+4 classes, hess det -16, det -4")


def test_criterion_09_lowdim_suite():
    """The named plane and surface germs classify to their families;
    sign variants give 2 classes each (1 for the Whitney umbrella)."""
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    plane_cases = [
        (MapGerm([x1 ** 2, x2]), "fold"),
        (MapGerm([x1 ** 3 + x1 * x2, x2]), "cusp"),
        (MapGerm([x1 * (x1 ** 2 + x2 ** 2), x2]), "lips"),
        (MapGerm([x1 * (x1 ** 2 - x2 ** 2), x2]), "beaks"),
        (MapGerm([x1 * x2 + x1 ** 4, x2]), "planar-swallowtail"),
    ]
    for f, family in plane_cases:
        assert classify_plane(f).family == family, family
    surface_cases = [
        (MapGerm([x1 ** 2, x1 * x2, x2]), "whitney-umbrella"),
        (MapGerm([x1 ** 2, x1 * (x1 ** 2 + x2 ** 2), x2]), "S1+"),
        (MapGerm([x1 ** 2, x1 * (x1 ** 2 - x2 ** 2), x2]), "S1-"),
    ]
    for f, family in surface_cases:
        assert classify_surface(f).family == family, family
    for fam in ("lips", "beaks", "planar-swallowtail"):
        labels = {classify_plane(_plane_normal_form(fam, s)) for s in (1, -1)}
        assert len(labels) == 2, fam
    for fam in ("S1+", "S1-"):
        labels = {classify_surface(_surface_normal_form(fam, s))
                  for s in (1, -1)}
        assert len(labels) == 2, fam
    assert len({classify_surface(_surface_normal_form("whitney-umbrella"))}) == 1
    print("ACCEPTANCE 9: PASS - lowdim suite families and class counts")


def test_criterion_10_eta_invariance():
    """Reversing eta or rescaling it by a positive constant never changes
    an emitted label, across the corank-one corpus.  Morin labels are read
    by the eta-chain reference, plane labels by the null-field plane
    reference and surface labels by the full-w reference, each of which
    takes a null field; the library routes read integer coefficients, and
    must agree."""
    corpus = corpus_30()
    checked = 0
    for f in corpus:
        if f.src_dim == f.tgt_dim:
            ana = analyze(f)
            if ana.corank0 != 1:
                continue
            eta = ana.eta
            variants = [[-c for c in eta], [c.scale(F(7, 3)) for c in eta]]
            if f.src_dim == 2 and classify_plane(f).k is None:
                reference = oracles.classify_degenerate_plane
                base = reference(f, ana, eta)
                assert classify_plane(f) == base
                for v in variants:
                    assert reference(f, ana, v) == base
            else:
                base = eta_chain_label(f, ana, eta)
                assert recognize_morin(f) == base
                for v in variants:
                    assert eta_chain_label(f, ana, v) == base
            checked += 1
        elif f.src_dim == 2 and f.tgt_dim == 3:
            _, _, eta = oracles.surface_w(f)
            base = oracles.classify_surface(f, eta=eta)
            assert classify_surface(f) == base
            for v in ([-c for c in eta], [c * F(7, 3) for c in eta]):
                assert oracles.classify_surface(f, eta=v) == base
            checked += 1
    assert checked >= 20
    print("ACCEPTANCE 10: PASS - eta reversal/rescaling stable on %d germs"
          % checked)


def test_criterion_11_parser():
    """Round-trip on 1000 generated germs; 10^5-byte-string fuzz with
    zero crashes."""
    rng = random.Random(0x5EED)
    for i in range(1000):
        n = rng.randint(1, 4)
        comps = []
        for _ in range(rng.randint(1, 4)):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                e = tuple(rng.randint(0, 3) for _ in range(n))
                if not any(e):
                    continue
                terms[e] = F(rng.randint(-20, 20), rng.randint(1, 9))
            comps.append(Poly(n, terms))
        f = MapGerm(comps, src_dim=n)
        g = parse_map(render_map(f))
        assert g.src_dim == f.src_dim and g.components == f.components, i
    alphabet = b"x12 +-*/^();,:|vars\n\t.\\'\"@\x00\xc3\xa9"
    for i in range(100000):
        length = rng.randint(0, 24)
        data = bytes(rng.choice(alphabet) for _ in range(length))
        try:
            parse_map(data)
        except ParseError:
            pass
    print("ACCEPTANCE 11: PASS - 1000 round-trips, 100000 fuzz inputs")
