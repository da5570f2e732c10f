"""The lab's printed curve and criteria rows (``CRITERIA_FORMULAS``)
checked in sympy.  The check shares no code with the package: it reads
the text of the q rows (``Q_FORMULAS``) and of the rows under test, and
builds everything else itself.

For each key, q is the printed q row with family A's qbar(xn, u) = xn^l +
u0 + u1*xn + ... + u_{l-2}*xn^{l-2} put in, and lambda, eta lambda, ...
are its t-derivatives (the null field is d/dt).  On the printed curve,
lambda, ..., eta^{n-1} lambda must be constant multiples of the printed
constraint (an identity in t and the parameters), and eta^n lambda and
the determinant of the gradient rows (``Matrix.det``) positive constant
multiples of the printed eta^n lambda and det grad: the lab reads only
their signs at the roots of the constraint."""

import pytest

sympy = pytest.importorskip("sympy")

from germlab.perturb import CRITERIA_FORMULAS, Q_FORMULAS  # noqa: E402

KEYS = [(family, n, None) for family in "BC" for n in (2, 3, 4, 5)] + \
    [("A", n, l) for n in (2, 3, 4, 5) for l in (2, 3, 8, 32)]


def _constant_ratio(p, q):
    """p / q when it is a constant, else None."""
    r = sympy.cancel(p / q)
    return r if not r.free_symbols else None


def _positive_multiple(p, q):
    r = _constant_ratio(p, q)
    return r is not None and r > 0


@pytest.mark.parametrize("family,n,l", KEYS)
def test_printed_rows_restrict_the_chain_of_the_q_row(family, n, l):
    t = sympy.Symbol("t")
    xs = sympy.symbols("x2:%d" % (n + 1))
    us = sympy.symbols("u0:%d" % (l - 1 if family == "A" else
                                  {"B": 1, "C": 2}[family]))
    names = {str(v): v for v in (t,) + xs + us}

    def qbar(s):
        return s ** l + sum(u * s ** i for i, u in enumerate(us))

    q_names = dict(names, qbar=qbar(xs[-1])) if family == "A" else names
    q = sympy.sympify(Q_FORMULAS[(family, n)], locals=q_names)
    chain = [sympy.diff(q, t, j + 1) for j in range(n + 1)]

    # on family A's curve t stands for s = xn, and qbar_x<n> is d/ds qbar
    row_names = dict(names)
    if family == "A":
        row_names.update({"qbar": qbar(t),
                          "qbar_x%d" % n: sympy.diff(qbar(t), t)})
    coords, *rows = CRITERIA_FORMULAS[(family, n)]
    sigma = [sympy.sympify(text, locals=row_names) for text in coords]
    constraint, etak, detgrad = (sympy.sympify(text, locals=row_names)
                                 for text in rows)
    on_curve = dict(zip((t,) + xs, sigma))

    def restrict(p):
        return sympy.expand(p.xreplace(on_curve))

    assert constraint.free_symbols >= {t}
    for j in range(n):
        assert _constant_ratio(restrict(chain[j]), constraint) is not None, j
    assert _positive_multiple(restrict(chain[n]), etak)
    grad = sympy.Matrix([[restrict(sympy.diff(chain[j], v))
                          for v in (t,) + xs] for j in range(n)])
    # Berkowitz's division-free determinant: Bareiss's exact divisions take
    # minutes on these entries in 31 parameters at l = 32
    assert _positive_multiple(sympy.expand(grad.det(method="berkowitz")),
                              detgrad)
