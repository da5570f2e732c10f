"""Morin recognition: sign identities on the signed normal forms, class
counts, degeneracy detection, and invariance of labels."""

import random
from fractions import Fraction
from math import factorial

import pytest

from germlab.polyring import Poly
from germlab.germ import (MapGerm, analyze, null_field, translate, jet_degree,
                          prepared_form, GermError, NotCorankOneError,
                          DegenerateGermError)
from germlab.morin import (recognize_morin, normal_form, class_count,
                           invariant_kind, eta_lambda_chain)
from germlab.lowdim import _plane_normal_form, _surface_normal_form
from germlab.sigma20 import elli_normal_form, hyp_normal_form
from conftest import (signed_morin_forms, random_gl_pos, sparse_gl_pos,
                      random_rational_gl_pos, change_coordinates, corpus_30,
                      quadratic_change)
from oracles import eta_chain_label


def all_signed(k, n):
    if k == 1 and n == 1:
        return [(normal_form(1, 1, s), s, 1) for s in (1, -1)]
    return [(normal_form(k, n, e1, e2), e1, e2)
            for e1 in (1, -1) for e2 in (1, -1)]


# ---- the two sign identities on every signed k = n normal form ---------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
def test_sign_identities_k_equals_n(n):
    """sign eta^n lambda(0) = eps1*eps2 and
    sign det grad(lambda, ..., eta^{n-1} lambda)(0) =
    (-1)^(n-1) * eps1^n * eps2^(n+1), for every sign choice, with the
    kernel field oriented as +d/dx1 (read by the eta-chain reference)."""
    eta = [1] + [0] * (n - 1)
    for f, e1, e2 in all_signed(n, n):
        res = eta_chain_label(f, eta=eta)
        assert res.k == n
        if n == 1:
            assert res.witness["eta_k_lambda_sign"] == e1 * e2
            continue
        assert res.witness["eta_k_lambda_sign"] == e1 * e2
        expected_det = (-1) ** (n - 1) * e1 ** n * e2 ** (n + 1)
        assert res.witness["grad_det_sign"] == expected_det


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 2), (3, 2), (4, 4),
                                        (5, 2), (6, 2), (7, 2), (8, 4)])
def test_class_counts_k_equals_n(n, expected):
    labels = {recognize_morin(f) for f, _, _ in all_signed(n, n)}
    assert len(labels) == expected
    assert class_count(n, n) == expected


@pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 9)
                                 for k in range(1, n)])
def test_class_counts_k_less_than_n(k, n):
    labels = {recognize_morin(f) for f, _, _ in all_signed(k, n)}
    expected = 2 if k % 2 == 0 else 1
    assert len(labels) == expected
    assert class_count(k, n) == expected


def test_all_folds_isotopic_for_n_above_1():
    for n in (2, 3, 4, 5):
        base = recognize_morin(normal_form(1, n, 1))
        for s in (1, -1):
            f = normal_form(1, n, s)
            assert recognize_morin(f) == base
            # also under a source/target change
            rng = random.Random(7 * n + s)
            A = random_gl_pos(rng, n)
            B = random_gl_pos(rng, n)
            assert recognize_morin(change_coordinates(f, A, B)) == base


def test_fold_n1_has_two_classes():
    plus = recognize_morin(normal_form(1, 1, 1))
    minus = recognize_morin(normal_form(1, 1, -1))
    assert plus != minus
    assert plus.signs[0] == 1 and minus.signs[0] == -1


def test_label_round_trip_through_normal_form():
    """The attached normal-form representative classifies to the same
    label (self-consistency of the sign recovery)."""
    for n in range(1, 7):
        for f, _, _ in all_signed(n, n):
            label = recognize_morin(f)
            assert recognize_morin(label.normal_form) == label
    for n in range(2, 6):
        for k in range(1, n):
            for f, _, _ in all_signed(k, n):
                label = recognize_morin(f)
                assert recognize_morin(label.normal_form) == label


def test_regular_germ():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    res = recognize_morin(MapGerm([x1 + x2 ** 2, x2]))
    assert res.k == 0 and res.family == "regular"


def test_corank_two_rejected():
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    with pytest.raises(NotCorankOneError):
        recognize_morin(MapGerm([x1 ** 2, x2 ** 2]))


def test_degenerate_germ_rejected():
    # lips germ: the whole chain vanishes / rank drops -> not Morin; with
    # a third variable k = 2 < n = 3 and dlambda(0) = 0, so the rank of
    # the gradient rows drops below k
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    f = MapGerm([x1 * (x1 ** 2 + x2 ** 2), x2])
    with pytest.raises(DegenerateGermError):
        recognize_morin(f)
    x1, x2, x3 = (Poly.var(i, 3) for i in (1, 2, 3))
    with pytest.raises(DegenerateGermError):
        recognize_morin(MapGerm([x1 * (x1 ** 2 + x2 ** 2), x2, x3]))


def test_eta_chain_lengths():
    f = normal_form(2, 2, 1, 1)
    ana = analyze(f)
    chain = eta_lambda_chain(ana.lam, null_field(f), 4)
    assert len(chain) == 5
    assert chain[0] == ana.lam


def test_invariant_kind_table():
    assert invariant_kind(1, 1) == "eta2f"
    assert invariant_kind(4, 4) == "pair"
    assert invariant_kind(5, 5) == "detgrad"
    assert invariant_kind(2, 2) == "etaklam"
    assert invariant_kind(3, 3) == "prod"
    assert invariant_kind(2, 5) == "etaklam"
    assert invariant_kind(3, 5) == "none"


def test_eta_reversal_and_rescaling_stability():
    for n in (2, 3, 4):
        for f, _, _ in all_signed(n, n):
            ana = analyze(f)
            eta = null_field(f)
            base = eta_chain_label(f, ana, eta)
            assert eta_chain_label(f, ana, [-c for c in eta]) == base
            assert eta_chain_label(f, ana, [c.scale(3) for c in eta]) == base
            assert recognize_morin(f) == base


def test_witness_takes_no_part_in_equality():
    """Reversing eta flips eta^3 lambda(0) and det grad on a swallowtail,
    so the raw signs differ, but the label (sign of their product) and
    its hash and description do not."""
    f = normal_form(3, 3, 1, -1)
    ana = analyze(f)
    eta = null_field(f)
    a = eta_chain_label(f, ana, eta)
    b = eta_chain_label(f, ana, [-c for c in eta])
    assert a.witness["eta_k_lambda_sign"] == -b.witness["eta_k_lambda_sign"]
    assert a.witness["grad_det_sign"] == -b.witness["grad_det_sign"]
    assert a == b and hash(a) == hash(b) and a.describe() == b.describe()


def test_label_stable_under_coordinate_changes():
    rng = random.Random(20260823)
    for n in (2, 3, 4):
        for f, _, _ in all_signed(n, n):
            base = recognize_morin(f)
            for _ in range(3):
                A = random_gl_pos(rng, n)
                B = random_gl_pos(rng, n)
                assert recognize_morin(change_coordinates(f, A, B)) == base


def test_generic_n5_forms_get_their_labels():
    """All four signed k = n = 5 forms under dense changes on both sides."""
    rng = random.Random(5)
    for f in signed_morin_forms(5):
        g = change_coordinates(f, random_gl_pos(rng, 5), random_gl_pos(rng, 5))
        assert recognize_morin(g) == recognize_morin(f)


@pytest.mark.parametrize("n", [6, 7])
def test_sparse_changed_forms_beyond_5_get_their_labels(n):
    rng = random.Random(n)
    f = normal_form(n, n, -1, -1)
    g = change_coordinates(f, sparse_gl_pos(rng, n), sparse_gl_pos(rng, n))
    assert recognize_morin(g) == recognize_morin(f)


def test_recognition_away_from_origin():
    """Translating a Morin normal form to a nearby fold point yields a
    fold there."""
    f = normal_form(2, 2, 1, 1)  # (x1^3 + x1 x2, x2)
    # singular set: 3 x1^2 + x2 = 0; at x1 = 1, x2 = -3 lambda' != 0
    g = translate(f, [1, -3])
    res = recognize_morin(g)
    assert res.k == 1


# ---- route agreement: the prepared form against the eta-chain reference --

def assert_routes_agree(g):
    """recognize_morin (the prepared form) and the eta-chain reference give
    equal labels, k and invariants, or both raise DegenerateGermError."""
    try:
        expected = eta_chain_label(g)
    except DegenerateGermError:
        with pytest.raises(DegenerateGermError):
            recognize_morin(g)
        return
    got = recognize_morin(g)
    assert (got, got.k, got.invariant) == \
        (expected, expected.k, expected.invariant)


CORANK_ONE = [f for f in corpus_30()
              if f.src_dim == f.tgt_dim and analyze(f).corank0 == 1]


@pytest.mark.parametrize("index", range(len(CORANK_ONE)))
def test_routes_agree_under_dense_and_nonlinear_changes(index):
    rng = random.Random(4400 + index)
    f = CORANK_ONE[index]
    n = f.src_dim
    cap = jet_degree(n) + 3
    for _ in range(2):
        assert_routes_agree(change_coordinates(f, random_gl_pos(rng, n),
                                               random_gl_pos(rng, n)))
        assert_routes_agree(quadratic_change(rng, f, cap))


@pytest.mark.parametrize("n", range(1, 7))
def test_routes_agree_on_every_signed_form(n):
    for k in range(1, n + 1):
        for e1 in (1, -1):
            for e2 in (1, -1):
                assert_routes_agree(normal_form(k, n, e1, e2))


def test_routes_agree_on_rational_germs_with_inexact_curves(monkeypatch):
    """Rational coefficients and changes with det L != +-1, where the
    curve and the transverse row divide by d = det L: the divisions are
    exact and the labels agree."""
    import germlab.germ as germ
    dets = []
    original = germ.integer_adjugate

    def recorded(mat):
        det, adj = original(mat)
        dets.append(det)
        return det, adj
    monkeypatch.setattr(germ, "integer_adjugate", recorded)
    rng = random.Random(20261018)
    forms = [normal_form(k, n, e1, e2) for n in (2, 3, 4)
             for k in range(1, n + 1) for e1 in (1, -1) for e2 in (1, -1)]
    forms += [f for f in CORANK_ONE if f.src_dim == 2]
    for f in forms:
        n = f.src_dim
        scaled = MapGerm([c.scale(Fraction(rng.randint(1, 7),
                                           rng.randint(1, 7)))
                          for c in f.components], src_dim=n)
        assert_routes_agree(change_coordinates(
            scaled, random_rational_gl_pos(rng, n),
            random_rational_gl_pos(rng, n)))
    assert sum(1 for d in dets if abs(d) > 1) > len(forms) // 2


def test_prepared_form_eliminates_l_once(monkeypatch):
    """At det L < 0 the prepared form negates a column of L and reads -d
    and adj L with every row but the first negated from the one
    elimination of L."""
    import germlab.germ as germ
    from germlab.germparse import parse_map
    dets = []
    original = germ.integer_adjugate

    def recorded(mat):
        det, adj = original(mat)
        dets.append(det)
        return det, adj
    monkeypatch.setattr(germ, "integer_adjugate", recorded)
    prep = prepared_form(parse_map("x1^3 + x1*x2 ; -x2"))
    assert dets == [-1]
    assert prep.chain_value(2) == -6 and prep.transverse[1] == [1]


def test_recognize_morin_eliminates_each_matrix_once(monkeypatch):
    """One integer elimination each for J(0), its transpose, L and, at
    k >= 2, the transverse block, at every k <= n and either sign of
    det L: at k = n one elimination gives both the rank check and the
    sign of det.  At k = 1 the one gradient row starts with
    eta lambda(0) != 0, so nothing is eliminated for it."""
    import germlab.polyring as polyring
    pivots = []
    original = polyring._bareiss

    def recorded(mat, width):
        got = original(mat, width)
        pivots.append(got[2])
        return got
    monkeypatch.setattr(polyring, "_bareiss", recorded)
    rng = random.Random(20261019)
    flipped = 0
    for n in range(1, 5):
        for k in range(1, n + 1):
            for f, _, _ in all_signed(k, n):
                g = change_coordinates(f, random_gl_pos(rng, n),
                                       random_gl_pos(rng, n))
                pivots.clear()
                label = recognize_morin(g)
                assert len(pivots) == (3 if k == 1 else 4)
                flipped += pivots[2] < 0    # the third is L, with det L
                assert label == recognize_morin(f)
    assert flipped > 0


def test_gradient_elimination_is_the_transverse_block(monkeypatch):
    """Past the prepared form, recognition eliminates the block
    transverse[1:k] itself, (k-1) x (n-1), with no factorials and no u
    column, and nothing at k = 1: at k = n its determinant gives the
    sign of det grad."""
    import germlab.polyring as polyring
    seen = []
    original = polyring._bareiss

    def recorded(mat, width):
        seen.append(([list(row) for row in mat], width))
        return original(mat, width)
    rng = random.Random(33)
    for n in range(1, 6):
        for k in range(1, n + 1):
            for f, _, _ in all_signed(k, n):
                g = change_coordinates(f, random_gl_pos(rng, n),
                                       random_gl_pos(rng, n))
                prep, label = prepared_form(g), recognize_morin(f)
                monkeypatch.setattr(polyring, "_bareiss", recorded)
                seen.clear()
                assert recognize_morin(g) == label
                monkeypatch.setattr(polyring, "_bareiss", original)
                assert seen == ([(prep.transverse[1:k], n - 1)] if k > 1
                                else [])


@pytest.mark.parametrize("n", range(1, 7))
def test_grad_det_sign_is_the_eta_chain_determinant(n):
    """The witness sign of det grad read from the transverse block is the
    sign of the eta-chain reference's own ``rational_det`` of the
    gradient rows, under bent source changes x -> A x + Q(x) (det A > 0,
    the target kept, so the reference's null field points as d/du does).
    At n = 2 mod 4 the label carries sign eta^n lambda(0) alone, so only
    this witness shows a wrong sign of det there."""
    from conftest import random_quadratic_diffeo
    rng = random.Random(3300 + n)
    cap = jet_degree(n) + 1
    for f, _, _ in all_signed(n, n):
        phi = random_quadratic_diffeo(rng, n)
        g = MapGerm([c.subs(phi).truncate(cap) for c in f.components])
        got, expected = recognize_morin(g), eta_chain_label(g)
        assert got == expected
        assert got.witness == expected.witness
        assert got.witness["grad_det_sign"] in (1, -1)


def test_an_inexact_division_raises():
    from germlab.germ import GermError, _exact_div
    assert _exact_div(-12, 4) == -3
    with pytest.raises(GermError):
        _exact_div(7, 2)


def test_prepared_form_of_the_signed_forms():
    """In prepared coordinates a k = n form reads eta^n lambda(0) =
    (n+1)! eps1 (eps2 = 1) or (n+1)! eps1 (-1)^(n+1) (eps2 = -1: x1 and
    x2 are both reversed to keep the orientation); the corank is 0, 1 or
    n for the regular germ, the forms and the zero germ.  A germ with
    n != m has its corank and kernel read, and no curve."""
    for n in range(1, 7):
        for f, e1, e2 in all_signed(n, n):
            prep = prepared_form(f)
            assert prep.corank == 1
            sign = e1 if e2 == 1 else e1 * (-1) ** (n + 1)
            assert prep.chain_value(n) == factorial(n + 1) * sign
            assert all(prep.chain_value(j) == 0 for j in range(n))
    x = [Poly.var(i, 3) for i in (1, 2, 3)]
    assert prepared_form(MapGerm(x)).corank == 0
    assert prepared_form(MapGerm([Poly.zero(3)] * 3)).corank == 3
    assert prepared_form(MapGerm(x)).curve is None
    y1, y2 = Poly.var(1, 2), Poly.var(2, 2)
    for comps, corank, kernel in (([y1, y2, y1 * y2], 0, []),
                                  ([y1 ** 2, y1 * y2, y2], 1, [[1, 0]])):
        prep = prepared_form(MapGerm(comps))
        assert (prep.corank, prep.kernel) == (corank, kernel)
        assert prep.left is prep.curve is prep.transverse is None


@pytest.mark.parametrize("n", range(1, 7))
def test_prepared_form_is_read_to_degree_k_plus_one(n):
    """A changed k-Morin form is read to curve degree k + 1 and transverse
    degree k - 1 (k <= n): every chain value and transverse row the
    criteria read is there, and chain_value(k + 1), past the degree read,
    raises GermError rather than give a wrong 0."""
    rng = random.Random(2020 + n)
    for k in range(1, n + 1):
        g = change_coordinates(normal_form(k, n), random_gl_pos(rng, n),
                               random_gl_pos(rng, n))
        prep = prepared_form(g)
        assert (len(prep.curve), len(prep.transverse)) == (k + 2, k)
        assert [prep.chain_value(j) != 0 for j in range(k + 1)] == \
            [False] * k + [True]
        assert all(len(row) == n - 1 for row in prep.transverse)
        with pytest.raises(GermError):
            prep.chain_value(k + 1)


def test_prepared_form_of_germs_that_are_not_morin():
    """k = 3 > n = 2 (the planar swallowtail) reads the transverse row to
    degree n - 1 = 1; with no nonzero chain value the curve is read to
    max(n + 1, 4) and no transverse row past degree 0."""
    prep = prepared_form(_plane_normal_form("planar-swallowtail", 1))
    assert (len(prep.curve), len(prep.transverse)) == (5, 2)
    assert prep.chain_value(3) and prep.transverse[1] != [0]
    y = [Poly.var(i, 3) for i in (1, 2, 3)]
    prep = prepared_form(MapGerm([y[0] ** 9, y[1], y[2]]))
    assert (prep.curve, prep.transverse) == ([0] * 5, [[0, 0]])
    assert prep.chain_value(3) == 0
    with pytest.raises(GermError):
        prep.chain_value(4)


@pytest.mark.parametrize("make,args", [
    (normal_form, (3, 4, -1, 1)),
    (_plane_normal_form, ("lips", -1)),
    (_surface_normal_form, ("S1+", 1)),
    (hyp_normal_form, (-1,)),
    (elli_normal_form, (1, -1)),
], ids=["morin", "plane", "surface", "hyp", "elli"])
def test_normal_forms_are_built_once(make, args):
    assert make(*args) is make(*args)
    assert make(*args) == make.__wrapped__(*args)
