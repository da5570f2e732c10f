"""Textual format for polynomial map-germs.

Format: an optional header ``vars: x1,x2 | `` followed by the components
separated by ``;``.  Components are polynomial expressions over the
declared variables with integer or rational (p/q) literals, the
operators + - * ^ and parentheses.  ``^`` binds a single nonnegative
integer literal (so ``x1^(1/2)`` is a syntax error, by design).
Implicit multiplication is not supported; whitespace is ignored.

Without a header the variables are inferred: every identifier must be of
the form x<k> and the source dimension is the largest k mentioned.

The constant term of every component must vanish (germ condition); a
nonzero constant term is reported with its component index.

All failures raise ParseError with a line/column position -- the parser
never escapes with anything else, whatever the input bytes.

Each term is read in one loop over its factors, on int coefficients
(see _Parser); only a p/q literal or an expanded product makes a
Fraction, and parse_map makes one Fraction per distinct coefficient left.
"""

import re
from fractions import Fraction
from itertools import islice

from .polyring import Poly
from .germ import MapGerm


class ParseError(ValueError):
    """Structured parse failure with 1-based line/column position."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.message, self.line, self.col = message, line, col


# A token is a run of decimal digits, a run of word characters, or any
# other character but a blank; newlines only separate tokens.
_TOKEN = r"\d+|\w+|[^ \t\r\n]"
_PUNCT = frozenset("+-*^();,:/|")
# in ASCII text, the characters that start no token
_OTHER = r"[^\w \t\r\n+\-*^();,:/|]"
_EOF = ""


def _tokenize(text):
    """The token strings of ``text`` followed by _EOF.  Positions are
    worked out only for an error, by ``_position``."""
    tokens = re.findall(_TOKEN, text)
    if not text.isascii() or re.search(_OTHER, text):
        for k, t in enumerate(tokens):
            if t not in _PUNCT and not t[0].isdecimal() and \
                    not (t[0].isalpha() or t[0] == "_"):
                raise ParseError("unexpected character %r" % t[0],
                                 *_position(text, k))
    tokens.append(_EOF)
    return tokens


def _position(text, k):
    """1-based (line, column) of token k of ``text``; the end of the text
    for the _EOF token."""
    m = next(islice(re.finditer(_TOKEN, text), k, None), None)
    i = len(text) if m is None else m.start()
    return text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)


def _shown(t):
    """What an error message quotes for token t."""
    return int(t) if t.isdecimal() else None if t == _EOF else t


# Expansion budgets, per parse_map call.  Products of single terms take
# time linear in the text; what can outgrow it is expanding a product
# with a multi-term operand (a power of one by repeated squaring) and
# raising a coefficient to a power.  Each is charged before it is done,
# and over budget is a ParseError at the '*' or '^' token.
#
# MAX_TERM_PRODUCTS bounds the coefficient products of expansion: a
# product a*b with |a|, |b| terms costs |a|*|b|, counted once per pair of
# COEFFICIENT_BITS-bit blocks of the largest coefficients of a and b.
# MAX_POWER_BITS bounds the sum over the powers c*x^e ^ k of a single
# term of k * log2 |c|, the bits they can make, with log2 |c| counted as
# numerator plus denominator bits.  Products of single terms only add
# coefficient sizes, and the block count keeps expansion from multiplying
# coefficients of more than COEFFICIENT_BITS * sqrt(MAX_TERM_PRODUCTS)
# bits, so no coefficient outgrows the text by more than these bounds.
MAX_TERM_PRODUCTS = 10 ** 6
MAX_POWER_BITS = 10 ** 5
COEFFICIENT_BITS = 1024


def _bits(c):
    """An upper bound on log2 of |numerator| plus log2 of denominator."""
    return (abs(c.numerator) - 1).bit_length() + \
        (c.denominator - 1).bit_length()


def _blocks(p):
    """COEFFICIENT_BITS-bit blocks of the largest coefficient of p."""
    return 1 + max(map(_bits, p.values())) // COEFFICIENT_BITS


class _Parser:
    """Recursive descent straight to {exponent tuple: coefficient} dicts.

    A term is one loop over its factors: numbers, variables and their
    powers multiply into one coefficient (an int until a p/q literal) and
    one exponent list, made a tuple once per term.  A factor of several
    terms, and each factor after it, goes through product().  expr adds
    a term only under an exponent tuple it already holds."""

    def __init__(self, text, tokens, names):
        self.text, self.tokens, self.pos = text, tokens, 0
        self.nvars = len(names)
        self.zero = (0,) * self.nvars
        self.index = {name: i for i, name in enumerate(names)}
        self.term_products = self.power_bits = 0

    def next(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def fail(self, message, at=None):
        """ParseError at token index ``at``, by default the next token."""
        raise ParseError(message, *_position(
            self.text, self.pos if at is None else at))

    def expect(self, kind):
        t = self.next()
        if not (t.isdecimal() if kind == "int" else t == kind):
            self.fail("expected %r, found %r" % (kind, _shown(t)),
                      self.pos - 1)
        return t

    def charge(self, term_products, power_bits, at):
        """Charge the work of the product or power at token index ``at``."""
        self.term_products += term_products
        self.power_bits += power_bits
        if self.term_products > MAX_TERM_PRODUCTS:
            self.fail("expansion too large: about %d term products, over "
                      "the budget of %d" % (self.term_products,
                                            MAX_TERM_PRODUCTS), at)
        if self.power_bits > MAX_POWER_BITS:
            self.fail("coefficients too large: about %d bits from powers, "
                      "over the budget of %d" % (self.power_bits,
                                                 MAX_POWER_BITS), at)

    def product(self, p, q, at):
        """p * q, of which one has several terms, by Poly's product loop,
        once its term products are charged at token index ``at``."""
        self.charge(len(p) * len(q) * _blocks(p) * _blocks(q), 0, at)
        return (Poly._trusted(self.nvars, p) *
                Poly._trusted(self.nvars, q)).terms

    def exponent(self):
        """The k of the '^' k at the next token."""
        self.pos += 1
        if not self.tokens[self.pos].isdecimal():
            self.fail("exponent must be a nonnegative integer literal")
        return int(self.next())

    def negated(self):
        """Reads a run of unary '-', one call deep per sign as parentheses
        nest, and tells whether the run is odd."""
        self.pos += 1
        return self.tokens[self.pos] != "-" or not self.negated()

    # expr := "+"? term (("+" | "-") term)*
    def expr(self):
        tokens, acc, minus = self.tokens, {}, False
        self.pos += tokens[self.pos] == "+"     # a leading '+' is allowed
        while True:
            self.term(acc, minus)
            t = tokens[self.pos]
            if t != "+" and t != "-":
                return acc
            minus = t == "-"
            self.pos += 1

    # term := factor ("*" factor)*; factor := "-" factor | atom ("^" int)?
    # atom := number | variable | "(" expr ")"
    def term(self, acc, minus):
        """Adds the next term, negated if ``minus``, into ``acc``."""
        tokens = self.tokens
        coef, expo, poly, star = 1, [0] * self.nvars, None, None
        while True:
            if tokens[self.pos] == "-":
                minus ^= self.negated()
            t = self.next()
            i, q = self.index.get(t), None
            if i is not None:
                expo[i] += self.exponent() if tokens[self.pos] == "^" else 1
            elif t.isdecimal():
                c = int(t)
                if tokens[self.pos] == "/":
                    self.pos += 1
                    d = int(self.expect("int"))
                    if d == 0:
                        self.fail("zero denominator", self.pos - 1)
                    c = Fraction(c, d)
                if tokens[self.pos] == "^":
                    q = {self.zero: c} if c else {}
                else:
                    coef *= c
            elif t == "(":
                q = self.expr()
                self.expect(")")
            else:
                self.fail("unknown identifier %r" % t
                          if t not in _PUNCT and t != _EOF else
                          "expected a number, variable or parenthesized "
                          "expression", self.pos - 1)
            if q is not None:   # a parenthesized factor or a number's power
                if tokens[self.pos] == "^":
                    q = self.power(q)
                if len(q) < 2:  # one term or none joins coef and expo
                    (e, c), = q.items() or [(self.zero, 0)]
                    coef *= c
                    expo = [a + b for a, b in zip(expo, e)]
                    q = None
            # from a factor of several terms on, each factor is charged
            if poly is not None or q is not None:
                p = {tuple(expo): coef} if coef else {}
                if poly is not None:
                    p, q = poly, p if q is None else q
                poly = q if star is None else \
                    self.product(p, q, star) if p and q else {}
                coef, expo = 1, [0] * self.nvars
            if tokens[self.pos] != "*":
                break
            star = self.pos
            self.pos += 1
        for e, c in poly.items() if poly is not None else \
                ((tuple(expo), coef),) if coef else ():
            if minus:
                c = -c
            s = acc.get(e)
            if s is None:
                acc[e] = c
            elif s := s + c:
                acc[e] = s
            else:
                del acc[e]

    def power(self, p):
        """p ^ k for the '^' k at the next token, charged there."""
        at = self.pos
        k = self.exponent()
        if k < 2 or not p:
            return p if k else {self.zero: 1}
        if len(p) == 1:
            (e, c), = p.items()
            self.charge(0, k * _bits(c), at)
            return {tuple(k * i for i in e): c ** k}
        # binary powering, so that each product is charged before it is made
        result = None
        while True:
            if k & 1:
                result = p if result is None else self.product(result, p, at)
            k >>= 1
            if not k:
                return result
            p = self.product(p, p, at)


def _split_header(text):
    """Returns (var_names or None, body)."""
    if not text.lstrip().lower().startswith("vars"):
        return None, text
    header, bar, _ = text.partition("|")
    if not bar:
        raise ParseError("header must end with '|'", 1, 1)
    _, colon, names = header.partition(":")
    if not colon:
        raise ParseError("header must look like 'vars: x1,x2 | ...'", 1, 1)
    names = [s.strip() for s in names.split(",")]
    if not names or any(not s for s in names):
        raise ParseError("empty variable name in header", 1, 1)
    for s in names:
        if not (s[0].isalpha() or s[0] == "_") or \
                not all(c.isalnum() or c == "_" for c in s):
            raise ParseError("invalid variable name %r" % s, 1, 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name in header", 1, 1)
    # keep the prefix so line/column positions stay correct
    body = " " * (len(header) + 1) + text[len(header) + 1:]
    return names, body


def _infer_vars(text, tokens):
    """Without a header every identifier must be x<k>; nvars = max k."""
    nvars = 0
    for k, t in enumerate(tokens):
        if t in _PUNCT or t == _EOF or t.isdecimal():
            continue
        if not (t.startswith("x") and t[1:].isdecimal() and
                not t[1:].startswith("0")):
            raise ParseError(
                "identifier %r needs a 'vars:' header (only x1, x2, ... "
                "can be inferred)" % t, *_position(text, k))
        nvars = max(nvars, int(t[1:]))
    return max(nvars, 1)    # a positive dimension even without variables


def parse_map(text):
    """Parse the textual format into an exact MapGerm."""
    if not isinstance(text, str):
        try:
            text = bytes(text).decode("utf-8")
        except (UnicodeDecodeError, TypeError, ValueError):
            raise ParseError("input is not valid UTF-8 text", 1, 1)
    names, body = _split_header(text)
    tokens = _tokenize(body)
    if names is None:
        names = ["x%d" % i for i in range(1, _infer_vars(body, tokens) + 1)]
    parser = _Parser(body, tokens, names)
    comps, starts = [], []
    while True:
        starts.append(parser.pos)
        try:
            comps.append(parser.expr())
        except RecursionError:
            parser.fail("expression nested too deeply")
        t = parser.next()
        if t == _EOF:
            break
        if t != ";":
            parser.fail("expected ';' or end of input, found %r" % _shown(t),
                        parser.pos - 1)
    shared = {}     # one Fraction per distinct coefficient
    for i, (p, at) in enumerate(zip(comps, starts)):
        if parser.zero in p:
            parser.fail("nonzero constant term in component %d" % (i + 1), at)
        for e, c in p.items():
            p[e] = shared.get(c) or shared.setdefault(c, Fraction(c))
    nvars = parser.nvars
    return MapGerm([Poly._trusted(nvars, p) for p in comps], src_dim=nvars)


def render_map(f, names=None):
    """Textual form of a MapGerm that parse_map round-trips exactly."""
    if names is None:
        names = ["x%d" % i for i in range(1, f.src_dim + 1)]
    header = "vars: %s | " % ",".join(names)
    return header + " ; ".join(c.render(names) for c in f.components)
