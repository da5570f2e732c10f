"""Parser: grammar examples, round-trip property, fuzz robustness."""

import importlib.util
import os
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import change_coordinates, sparse_gl_pos
from germlab import germparse
from germlab.morin import normal_form
from germlab.polyring import Poly
from germlab.germparse import parse_map, parse_poly, render_map, ParseError
from germlab.germ import MapGerm


def test_cusp_example():
    f = parse_map("vars: x1,x2 | x1^3 + x1*x2 ; x2")
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    assert f.components == (x1 ** 3 + x1 * x2, x2)


def test_nonzero_constant_rejected():
    with pytest.raises(ParseError, match="constant term"):
        parse_map("vars: x1,x2 | x1^2 + 1 ; x2")


def test_rational_exponent_rejected():
    with pytest.raises(ParseError, match="exponent"):
        parse_map("vars: x1,x2 | x1^(1/2) ; x2")


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_map("vars: x1 | x1^-2")


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_map("vars: x1 | y1")


def test_error_carries_position():
    try:
        parse_map("vars: x1,x2 | x1 ;\n x2 + @")
    except ParseError as e:
        assert e.line == 2
        assert e.col > 0
    else:
        pytest.fail("expected ParseError")


def test_rational_literals():
    f = parse_map("vars: x1 | 1/2*x1^2 - 3/7*x1")
    x1 = Poly.var(1, 1)
    assert f.components[0] == \
        x1 ** 2 * Fraction(1, 2) - x1 * Fraction(3, 7)


def test_parentheses_and_unary_minus():
    f = parse_map("vars: x1,x2 | -(x1 + x2)*x1 ; x2")
    x1, x2 = Poly.var(1, 2), Poly.var(2, 2)
    assert f.components[0] == -(x1 + x2) * x1


def test_precedence_power_over_minus():
    f = parse_map("vars: x1 | -x1^2 + x1^2 + x1")  # -(x1^2) cancels
    assert f.components[0] == Poly.var(1, 1)


def test_header_inference():
    f = parse_map("x1*x3 ; x2 ; x3")
    assert f.src_dim == 3


def test_inference_rejects_foreign_names():
    with pytest.raises(ParseError, match="header"):
        parse_map("t^2")


def test_whitespace_insensitive():
    a = parse_map("vars: x1,x2 |x1^3+x1*x2;x2")
    b = parse_map("vars: x1, x2 |  x1^3 + x1 * x2 ;  x2")
    assert a.components == b.components


def test_custom_names_round_trip():
    f = parse_map("vars: u,v | u^2 - v*u ; v")
    text = render_map(f, names=["u", "v"])
    assert parse_map(text).components == f.components


# ---- round-trip property -----------------------------------------------

# every nonzero p/q with q <= 12 and |p/q| <= 30, drawn as a denominator
# and then a numerator: the same values as st.fractions(-30, 30,
# max_denominator=12), whose rejection sampling took seconds per run
coef = st.integers(1, 12).flatmap(
    lambda q: st.integers(-30 * q, 30 * q).map(lambda p: Fraction(p, q))
).filter(lambda c: c != 0)
expo3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


def _poly_without_constant(d):
    d = {e: c for e, c in d.items() if any(e)}
    return Poly(3, d)


germs = st.lists(
    st.dictionaries(expo3, coef, min_size=0, max_size=6).map(_poly_without_constant),
    min_size=1, max_size=4,
).map(lambda comps: MapGerm(comps, src_dim=3))


@settings(max_examples=250, deadline=None)
@given(germs)
def test_round_trip(f):
    g = parse_map(render_map(f))
    assert g.src_dim == f.src_dim
    assert g.components == f.components


# ---- fuzz ---------------------------------------------------------------

FUZZ_ALPHABET = b"x123 +-*/^();,:|vars.\n\t\\\"'@#~\x00\xff"


def test_fuzz_never_crashes():
    """Random byte strings: every failure is a structured ParseError."""
    rng = random.Random(0xBEEF)
    alphabet = FUZZ_ALPHABET
    n_ok = 0
    for _ in range(2000):
        length = rng.randint(0, 40)
        data = bytes(rng.choice(alphabet) for _ in range(length))
        try:
            parse_map(data)
            n_ok += 1
        except ParseError:
            pass
    # a few random strings should even parse
    assert n_ok >= 0


# ---- exact errors -------------------------------------------------------

# (text, message, line, column), recorded before the parser was rewritten
# to build terms directly; the rewrite must report each one unchanged.
MALFORMED = [
    ("", "expected a number, variable or parenthesized expression", 1, 1),
    ("x1 +", "expected a number, variable or parenthesized expression",
     1, 5),
    ("x1 ^ x2", "exponent must be a nonnegative integer literal", 1, 6),
    ("x1^(1/2) ; x2", "exponent must be a nonnegative integer literal",
     1, 4),
    ("x1^-2", "exponent must be a nonnegative integer literal", 1, 4),
    ("vars: x1 | y1", "unknown identifier 'y1'", 1, 12),
    ("t^2", "identifier 't' needs a 'vars:' header (only x1, x2, ... "
     "can be inferred)", 1, 1),
    ("x0 ; x1", "identifier 'x0' needs a 'vars:' header (only x1, x2, "
     "... can be inferred)", 1, 1),
    ("x1 ;\n x2 + @", "unexpected character '@'", 2, 7),
    ("1/0*x1", "zero denominator", 1, 3),
    ("x1 * * x2", "expected a number, variable or parenthesized expression",
     1, 6),
    ("(x1 + x2 ; x2", "expected ')', found ';'", 1, 10),
    ("x1 + x2) ; x2", "expected ';' or end of input, found ')'", 1, 8),
    ("x1^2 + 1 ; x2", "nonzero constant term in component 1", 1, 1),
    ("x1 ; x2 ; 3/4", "nonzero constant term in component 3", 1, 11),
    ("vars x1 | x1", "header must look like 'vars: x1,x2 | ...'", 1, 1),
    ("vars: x1,,x2 | x1", "empty variable name in header", 1, 1),
    ("vars: a,a | a", "duplicate variable name in header", 1, 1),
    ("vars: x1 x1", "header must end with '|'", 1, 1),
    ("x1 x2", "expected ';' or end of input, found 'x2'", 1, 4),
    ("x1 / x2", "expected ';' or end of input, found '/'", 1, 4),
    ("x1 ^ 2 ^ 3", "expected ';' or end of input, found '^'", 1, 8),
    ("2/x1", "expected 'int', found 'x1'", 1, 3),
    ("x1 +\n\t(x2 ; x2", "expected ')', found ';'", 2, 6),
]


@pytest.mark.parametrize("text,message,line,col", MALFORMED)
def test_malformed_input_reports_exact_position(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_map(text)
    assert (info.value.message, info.value.line, info.value.col) == \
        (message, line, col)


@pytest.mark.parametrize("text,message,line,col", [
    # the first bad identifier is reported at its first occurrence
    ("x1 + t*x2 ; t^2 + x2", "identifier 't' needs a 'vars:' header "
     "(only x1, x2, ... can be inferred)", 1, 6),
    ("x1 ;\n x2 + x0 - x0*y ; y", "identifier 'x0' needs a 'vars:' header "
     "(only x1, x2, ... can be inferred)", 2, 7),
])
def test_repeated_bad_identifier_reports_its_first_place(text, message,
                                                         line, col):
    with pytest.raises(ParseError) as info:
        parse_map(text)
    assert (info.value.message, info.value.line, info.value.col) == \
        (message, line, col)


def test_parse_poly_allows_a_constant_term():
    t, u = Poly.var(1, 2), Poly.var(2, 2)
    assert parse_poly("1", ["t", "u"]) == Poly.one(2)
    assert parse_poly("-20*t^2 + 3*t + u - 1/2", ["t", "u"]) == \
        -20 * t * t + 3 * t + u - Fraction(1, 2)
    assert parse_poly("t*(30*t^2 - u)", ["t", "u"]) == t * (30 * t * t - u)
    assert parse_poly("qbar_x3 + 2", ["qbar_x3"]) == \
        Poly.var(1, 1) + 2


@pytest.mark.parametrize("text,message,line,col", [
    ("t +", "expected a number, variable or parenthesized expression",
     1, 4),
    ("t ;\n u", "expected end of input, found ';'", 1, 3),
    ("t*(u + 1", "expected ')', found None", 1, 9),
    ("t +\n v", "unknown identifier 'v'", 2, 2),
    ("(" * 5000 + "t" + ")" * 5000, "expression nested too deeply", None,
     None),
])
def test_parse_poly_errors_carry_their_position(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_poly(text, ["t", "u"])
    assert info.value.message == message
    assert line is None or (info.value.line, info.value.col) == (line, col)


@pytest.mark.parametrize("text,message,col", [
    ("²", "unexpected character '²'", 1),      # a digit, not decimal
    ("x1 ; 3*½x2", "unexpected character '½'", 8),
    ("x² ; x1", "identifier 'x²' needs a 'vars:' header (only x1, x2, ... "
     "can be inferred)", 1),
    ("-" * 5000 + "x1", "expression nested too deeply", None),
    ("(" * 5000 + "x1" + ")" * 5000, "expression nested too deeply", None),
])
def test_odd_input_is_a_parse_error(text, message, col):
    with pytest.raises(ParseError) as info:
        parse_map(text)
    assert info.value.message == message
    assert col is None or info.value.col == col


# ---- expression trees: the parse equals the Poly computation ------------

def _trees(nvars):
    """(text, Poly, precedence) for random expression trees over x1..x<nvars>.
    Precedence: 0 sum, 1 product, 2 negation, 3 power, 4 atom."""
    def var(i):
        return ("x%d" % i, Poly.var(i, nvars), 4)

    def integer(k):
        return (str(k), Poly.const(k, nvars), 4)

    def ratio(pq):
        p, q = pq
        return ("%d/%d" % (p, q), Poly.const(Fraction(p, q), nvars), 4)

    leaves = st.one_of(st.integers(1, nvars).map(var),
                       st.integers(0, 12).map(integer),
                       st.tuples(st.integers(0, 12),
                                 st.integers(1, 9)).map(ratio))

    def wrap(node, level):
        text, _, prec = node
        return text if prec >= level else "(%s)" % text

    def grow(children):
        add = st.tuples(children, children, st.sampled_from("+-")).map(
            lambda t: ("%s %s %s" % (wrap(t[0], 0), t[2], wrap(t[1], 1)),
                       t[0][1] + t[1][1] if t[2] == "+" else t[0][1] - t[1][1],
                       0))
        mul = st.tuples(children, children).map(
            lambda t: ("%s*%s" % (wrap(t[0], 1), wrap(t[1], 2)),
                       t[0][1] * t[1][1], 1))
        neg = children.map(lambda c: ("-" + wrap(c, 2), -c[1], 2))
        power = st.tuples(children, st.integers(0, 4)).map(
            lambda t: ("%s^%d" % (wrap(t[0], 4), t[1]), t[0][1] ** t[1], 3))
        paren = children.map(lambda c: ("(+%s)" % c[0], c[1], 4))
        # a*(b + c)*d: a sum between one-term factors, which a parser that
        # reads a term's factors in one loop must restart its product after
        sandwich = st.tuples(leaves, children, children, leaves).map(
            lambda t: ("%s*(%s + %s)*%s" % (t[0][0], wrap(t[1], 0),
                                            wrap(t[2], 1), t[3][0]),
                       t[0][1] * (t[1][1] + t[2][1]) * t[3][1], 1))
        return st.one_of(add, mul, neg, power, paren, sandwich)

    return st.recursive(leaves, grow, max_leaves=8)


_TREES = {nvars: _trees(nvars) for nvars in (1, 2, 3)}


@st.composite
def _germ_texts(draw):
    """(text, source dimension, component Polys), with or without a
    'vars:' header."""
    nvars = draw(st.integers(1, 3))
    comps = draw(st.lists(_TREES[nvars], min_size=1, max_size=3))
    body = " ; ".join(text for text, _, _ in comps)
    values = [p for _, p, _ in comps]
    if draw(st.booleans()):
        names = ",".join("x%d" % i for i in range(1, nvars + 1))
        return "vars: %s | %s" % (names, body), nvars, values
    # without a header the dimension is the largest x<k> in the text, and
    # the variables above it appear in no Poly
    dim = max([i for i in range(1, nvars + 1) if "x%d" % i in body],
              default=1)
    return body, dim, [Poly(dim, {e[:dim]: c for e, c in p.terms.items()})
                       for p in values]


@settings(max_examples=300, deadline=None)
@given(_germ_texts())
def test_expression_trees_parse_to_the_poly_they_denote(case):
    text, dim, values = case
    bad = [i for i, p in enumerate(values, 1) if p.constant_term() != 0]
    if bad:
        with pytest.raises(ParseError,
                           match="nonzero constant term in component %d"
                           % bad[0]):
            parse_map(text)
        return
    f = parse_map(text)
    assert f.src_dim == dim
    assert f.components == tuple(values)


# ---- expansion budgets --------------------------------------------------

@pytest.mark.parametrize("text,column", [
    ("(x1+x2+x3+x4)^40 + x1 ; x2 ; x3 ; x4", 14),
    ("(x1+x2)^3000 ; x2", 8),
    ("((3^9999)^9999)^9999*x1 ; x2", 10),
    ("(x1+x2+x3)^30*(x1+x2+x3)^30*(x1+x2+x3)^30 ; x2", 28),
])
def test_expansion_over_budget_is_a_quick_parse_error(text, column):
    from germlab.cli import main
    start = time.perf_counter()
    with pytest.raises(ParseError, match="too large") as info:
        parse_map(text)
    assert info.value.col == column
    assert main(["classify", text]) == 2
    assert time.perf_counter() - start < 2


def test_long_coefficients_count_per_block():
    """Squaring 961 terms of about 10^5 bits each is 923 521 term products,
    under the budget, but each one multiplies 98 * 98 blocks of 1024 bits:
    rejected at once rather than run for minutes."""
    terms = " + ".join("x1^%d*x2^%d" % (i, j)
                       for i in range(1, 32) for j in range(1, 32))
    text = "(2^99999*(%s))^2 ; x2" % terms
    start = time.perf_counter()
    with pytest.raises(ParseError, match="expansion too large") as info:
        parse_map(text)
    assert time.perf_counter() - start < 2
    assert info.value.col == text.rindex("^") + 1


def test_cheap_nested_powers_are_within_budget():
    """Nested powers whose terms collide are charged what they cost, not
    what their term counts alone would suggest."""
    x = [Poly.var(i, 4) for i in range(1, 5)]
    f = parse_map("vars: x1,x2,x3,x4 | ((x3 - x1)^42)^4 ; "
                  "((x3^3 + 7*x4^3*x2 + 2*x1)^3)^10")
    assert f.components == (
        ((x[2] - x[0]) ** 42) ** 4,
        ((x[2] ** 3 + 7 * x[3] ** 3 * x[1] + 2 * x[0]) ** 3) ** 10)


def test_bench_inputs_stay_ten_times_below_the_budgets(monkeypatch):
    """Every classify input of the benchmark (corpus and Morin ladder up to
    n = 7, two seeds) parses with each budget cut to a tenth."""
    path = os.path.join(os.path.dirname(__file__), "..", "bench",
                        "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    monkeypatch.setattr(germparse, "MAX_TERM_PRODUCTS",
                        germparse.MAX_TERM_PRODUCTS // 10)
    monkeypatch.setattr(germparse, "MAX_POWER_BITS",
                        germparse.MAX_POWER_BITS // 10)
    texts = []
    for seed in (1, 2):
        texts += [r["argv"][-1] for r in inputs.classify_corpus(seed)]
        for rung in inputs.morin_ladder(seed).values():
            texts += [r["argv"][-1] for r in rung]
    assert len(texts) > 300
    for text in texts:
        parse_map(text)


# ---- the reference parser -----------------------------------------------

def _outcome(parse, text):
    """What ``parse`` makes of ``text``: a germ, or the error's message
    and position."""
    try:
        return parse(text)
    except ParseError as e:
        return e.message, e.line, e.col


def _assert_parses_as_the_reference(text):
    got = _outcome(parse_map, text)
    assert got == _outcome(oracles.parse_map, text)
    if isinstance(got, MapGerm):
        assert all(type(c) is Fraction
                   for p in got.components for c in p.terms.values())


@settings(max_examples=300, deadline=None)
@given(_germ_texts())
def test_expression_trees_parse_as_the_reference(case):
    _assert_parses_as_the_reference(case[0])


# factors for each branch of a term: numbers, p/q, zero, powers, signs,
# parenthesized single terms, sums, sums that cancel, powers of sums
_FACTORS = ["x1", "x2^3", "x1^0", "2", "3/2", "0", "2^5", "0^0", "-x2", "--3",
            "(x1)", "(-2*x2)^3", "(x1 - x1)", "(x1 + x2)", "(1 + x2)^2",
            "(x1 - 2*x2)^0", "-(x2 + 3/4*x1)", "(x1 + x2)^1"]
_SUMS_OF_PRODUCTS = st.lists(
    st.tuples(st.sampled_from("+-"),
              st.lists(st.sampled_from(_FACTORS), min_size=1, max_size=5)),
    min_size=1, max_size=4,
).map(lambda terms: " ".join("%s %s" % (sign, "*".join(factors))
                             for sign, factors in terms) + " ; x2")


@settings(max_examples=300, deadline=None)
@given(_SUMS_OF_PRODUCTS)
def test_sums_of_products_parse_as_the_reference(text):
    _assert_parses_as_the_reference(text)


@pytest.mark.parametrize("text", [
    "x1*(x1+x2)*x2 ; 2*(x1+x2)*3",
    "2*x1*(x1+x2)^30*x2*(x2+x1)^30*3*(x1-x2)^30 ; x2",
    "(x1+x2+x3+x4)^40 + x1 ; x2 ; x3 ; x4",
    "((3^9999)^9999)^9999*x1 ; x2",
    "(x1+x2+x3)^30*(x1+x2+x3)^30*(x1+x2+x3)^30 ; x2",
    "(2^999*(x1+x2)^20)^2*x1 ; (x1 - x2)^50*2^99999*x2",
])
def test_products_and_budgets_parse_as_the_reference(text):
    """Each product is charged what the reference charged for it, so
    over-budget errors quote the same count at the same token."""
    _assert_parses_as_the_reference(text)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(FUZZ_ALPHABET), max_size=40).map(bytes))
def test_fuzz_strings_parse_as_the_reference(data):
    _assert_parses_as_the_reference(data)


def test_bench_inputs_parse_as_the_reference():
    path = os.path.join(os.path.dirname(__file__), "..", "bench",
                        "inputs.py")
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    texts = []
    for seed in (1, 2):
        texts += [r["argv"][-1] for r in inputs.classify_corpus(seed)]
        for rung in inputs.morin_ladder(seed).values():
            texts += [r["argv"][-1] for r in rung]
    assert len(texts) > 300
    for text in texts:
        _assert_parses_as_the_reference(text)


def test_integer_germ_parses_without_fraction_arithmetic(monkeypatch):
    """An integer-coefficient Morin germ in 5 variables is read on ints:
    no Fraction is added or subtracted, and each distinct coefficient
    becomes a Fraction once."""
    rng = random.Random(5)
    f = change_coordinates(normal_form(5, 5, 1, -1), sparse_gl_pos(rng, 5),
                           sparse_gl_pos(rng, 5))
    coefficients = {c for p in f.components for c in p.terms.values()}
    assert all(c.denominator == 1 for c in coefficients)
    assert sum(len(p.terms) for p in f.components) > 3 * len(coefficients)
    text = render_map(f)
    counts = {}
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        original = getattr(Fraction, name)

        def counted(a, b, _name=name, _original=original):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    original_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        counts["new"] = counts.get("new", 0) + 1
        return original_new(cls, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    g = parse_map(text)
    monkeypatch.undo()
    assert g == f
    assert counts.get("new", 0) <= len(coefficients)
    assert set(counts) <= {"new"}
