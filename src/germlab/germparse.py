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
"""

import re
from fractions import Fraction
from operator import add

from .polyring import Poly
from .germ import MapGerm


class ParseError(ValueError):
    """Structured parse failure with 1-based line/column position."""

    def __init__(self, message, line, col):
        super().__init__("%s (line %d, column %d)" % (message, line, col))
        self.message = message
        self.line = line
        self.col = col


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
    i = len(text)
    for j, m in enumerate(re.finditer(_TOKEN, text)):
        if j == k:
            i = m.start()
            break
    return text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i)


def _shown(t):
    """What an error message quotes for token t."""
    if t.isdecimal():
        return int(t)
    return None if t == _EOF else t


# Expansion budgets, per parse_map call.  Products of one-term operands
# take time linear in the text; the work that can outgrow the text is
# expanding a product with a multi-term operand (powers of one expand by
# repeated squaring) and raising a coefficient to a power.  Each is
# charged before it is done, and going over budget is a ParseError at the
# '*' or '^' token.
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

_ONE = Fraction(1)      # the coefficient of a variable, shared


def _bits(c):
    """An upper bound on log2 of |numerator| plus log2 of denominator."""
    return (abs(c.numerator) - 1).bit_length() + \
        (c.denominator - 1).bit_length()


def _blocks(p):
    """COEFFICIENT_BITS-bit blocks of the largest coefficient of p."""
    return 1 + max(map(_bits, p.values())) // COEFFICIENT_BITS


class _Parser:
    """Recursive descent straight to {exponent tuple: Fraction} dicts.

    Every method returns a dict that no one else holds, so expr adds its
    terms in place.  Only a product or power with a multi-term operand
    goes through Poly's product loop."""

    def __init__(self, text, tokens, names):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars = len(names)
        self.zero = (0,) * nvars
        # variable name -> its exponent tuple
        self.units = {name: tuple(int(j == i) for j in range(nvars))
                      for i, name in enumerate(names)}
        self.term_products = 0
        self.power_bits = 0

    def peek(self):
        return self.tokens[self.pos]

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

    # expr := term (("+" | "-") term)*
    def expr(self):
        if self.peek() == "+":  # allow a leading +
            self.pos += 1
        acc = self.term()
        get = acc.get
        while self.peek() in ("+", "-"):
            minus = self.next() == "-"
            for e, c in self.term().items():
                s = get(e, 0) - c if minus else get(e, 0) + c
                if s:
                    acc[e] = s
                else:
                    del acc[e]
        return acc

    # term := factor ("*" factor)*
    def term(self):
        p = self.factor()
        while self.peek() == "*":
            at = self.pos
            self.pos += 1
            q = self.factor()
            if len(p) == 1 and len(q) == 1:
                (e1, c1), = p.items()
                (e2, c2), = q.items()
                c = c1 if c2 is _ONE else c2 if c1 is _ONE else c1 * c2
                p = {tuple(map(add, e1, e2)): c}
            elif p and q:
                p = self.product(p, q, at)
            else:
                p = {}
        return p

    # factor := "-" factor | power
    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return {e: -c for e, c in self.factor().items()}
        return self.power()

    # power := atom ("^" nonnegative-integer)?
    def power(self):
        p = self.atom()
        if self.peek() != "^":
            return p
        at = self.pos
        self.pos += 1
        if not self.peek().isdecimal():
            self.fail("exponent must be a nonnegative integer literal")
        k = int(self.next())
        if k == 0:
            return {self.zero: _ONE}
        if k == 1 or not p:
            return p
        if len(p) == 1:
            (e, c), = p.items()
            if c is not _ONE:
                self.charge(0, k * _bits(c), at)
                c = c ** k
            return {tuple(k * i for i in e): c}
        # binary powering, so that each product is charged before it is made
        result = None
        while True:
            if k & 1:
                result = p if result is None else self.product(result, p, at)
            k >>= 1
            if not k:
                return result
            p = self.product(p, p, at)

    # atom := number | variable | "(" expr ")"
    def atom(self):
        t = self.next()
        if t.isdecimal():
            value = int(t)
            if self.peek() == "/":
                self.pos += 1
                d = int(self.expect("int"))
                if d == 0:
                    self.fail("zero denominator", self.pos - 1)
                return {self.zero: Fraction(value, d)} if value else {}
            return {self.zero: Fraction(value)} if value else {}
        if t == "(":
            p = self.expr()
            self.expect(")")
            return p
        if t not in _PUNCT and t != _EOF:
            unit = self.units.get(t)
            if unit is None:
                self.fail("unknown identifier %r" % t, self.pos - 1)
            return {unit: _ONE}
        self.fail("expected a number, variable or parenthesized expression",
                  self.pos - 1)


def _split_header(text):
    """Returns (var_names or None, body, body_line_offset)."""
    stripped = text.lstrip()
    if not stripped.lower().startswith("vars"):
        return None, text
    bar = text.index("|") if "|" in text else None
    if bar is None:
        raise ParseError("header must end with '|'", 1, 1)
    header = text[:bar]
    colon = header.index(":") if ":" in header else None
    if colon is None:
        raise ParseError("header must look like 'vars: x1,x2 | ...'", 1, 1)
    names = [s.strip() for s in header[colon + 1:].split(",")]
    if not names or any(not s for s in names):
        raise ParseError("empty variable name in header", 1, 1)
    for s in names:
        if not (s[0].isalpha() or s[0] == "_") or \
                not all(c.isalnum() or c == "_" for c in s):
            raise ParseError("invalid variable name %r" % s, 1, 1)
    if len(set(names)) != len(names):
        raise ParseError("duplicate variable name in header", 1, 1)
    # keep the prefix so line/column positions stay correct
    body = " " * (bar + 1) + text[bar + 1:]
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
    if nvars == 0:
        # no variables at all; still need a positive dimension
        nvars = 1
    return nvars


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
    comps = []
    starts = []
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
    for i, (p, at) in enumerate(zip(comps, starts)):
        if parser.zero in p:
            parser.fail("nonzero constant term in component %d" % (i + 1), at)
    nvars = parser.nvars
    return MapGerm([Poly._trusted(nvars, p) for p in comps], src_dim=nvars)


def render_map(f, names=None):
    """Textual form of a MapGerm that parse_map round-trips exactly."""
    if names is None:
        names = ["x%d" % i for i in range(1, f.src_dim + 1)]
    header = "vars: %s | " % ",".join(names)
    return header + " ; ".join(c.render(names) for c in f.components)
