"""The perturbation lab's root functions seen on rational intervals.

``germlab.perturb`` keeps a root as one integer cell (a, b, d): the root
in (a/d, b/d], or the exact root a/d when a == b.  These views take and
return what the Fraction bisections of ``oracles`` do, rational
coefficient lists and Fraction intervals (lo, hi), (r, r) for a root met
exactly, so the tests compare the two directly."""

from fractions import Fraction

from germlab import perturb as pt


def cell(root):
    """The cell of a rational root, or of an interval (lo, hi] of
    rationals, over the product of their denominators."""
    lo, hi = root if isinstance(root, tuple) else (root, root)
    return (lo.numerator * hi.denominator, hi.numerator * lo.denominator,
            lo.denominator * hi.denominator)


def interval(root):
    """The Fractions (lo, hi) of a cell; (r, r) for an exact root r."""
    a, b, d = root
    lo = Fraction(a, d)
    return (lo, lo if a == b else Fraction(b, d))


def _refined(c, root, width):
    return pt.refine_root(c, root, pt._levels(root, width.numerator,
                                              width.denominator))


def isolate_real_roots(c, width=None):
    """Sorted isolating intervals of the square-free c, refined below
    ``width`` when one is given."""
    c = pt.up_integer(c)
    if pt.up_deg(c) <= 0:
        return []
    cells = pt.isolate_real_roots(c, pt.sturm_chain(c))
    return [interval(_refined(c, x, width) if width else x) for x in cells]


def refine_root(c, lo, hi, width):
    """(lo, hi] refined below ``width``; an end that is a root of c is
    returned as that root."""
    c = pt.up_integer(c)
    a, b, d = root = cell((lo, hi))
    if a != b:
        for end in (a, b):
            if pt._sign_at(c, end, d) == 0:
                return interval((end, end, d))
        root = _refined(c, root, width)
    return interval(root)


def rational_roots(c):
    """The rational roots of c, sorted."""
    sf, chain = pt.up_squarefree(c)
    if pt.up_deg(sf) <= 0:
        return []
    return [Fraction(p, q) for p, _, q in pt.rational_roots(sf, chain, 0)[0]]


def sign_at_root(g, constraint, root, sequences=None):
    """The sign of g at a root of the constraint, given as a rational or
    an isolating interval."""
    return pt.sign_at_root(pt.up_integer(g), pt.up_integer(constraint),
                           cell(root), {} if sequences is None else sequences)
