"""Seeded input generator for the germlab benchmark.

Everything here is independent of the germlab package: germs are built
with a small integer polynomial type of their own, changed by seeded
orientation-preserving linear coordinate changes, and rendered to the
germ text format.  The package only ever sees the resulting argv lists.

A request is a dict:
    {"argv": [...], "kind": "classify" | "perturb" | "tables",
     "expect": {...}, "tag": "<short description>"}
The same seed always yields the same list of requests.
"""

import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# integer polynomials: {exponent tuple: int}, zero coefficients dropped
# ---------------------------------------------------------------------------


def var(i, n):
    """x_i (1-based) in n variables."""
    return {tuple(1 if j == i - 1 else 0 for j in range(n)): 1}


def add(*polys):
    out = {}
    for p in polys:
        for e, c in p.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def scale(p, c):
    return {e: v * c for e, v in p.items()} if c else {}


def mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def power(p, k, n):
    out = {(0,) * n: 1}
    for _ in range(k):
        out = mul(out, p)
    return out


def monomial(n, *factors):
    """Product of variables, e.g. monomial(4, 1, 1, 3) = x1^2*x3."""
    e = [0] * n
    for i in factors:
        e[i - 1] += 1
    return {tuple(e): 1}


def substitute_linear(p, A):
    """p(A x): x_i -> sum_j A[i][j] x_j."""
    n = len(A)
    images = [{tuple(1 if k == j else 0 for k in range(n)): A[i][j]
               for j in range(n) if A[i][j]} for i in range(n)]
    out = {}
    for e, c in p.items():
        term = {(0,) * n: c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = mul(term, images[i])
        out = add(out, term)
    return out


def change_coordinates(comps, A, B):
    """B o f o A for a germ given by its component list."""
    moved = [substitute_linear(c, A) for c in comps]
    return [add(*(scale(moved[j], B[i][j]) for j in range(len(moved))))
            for i in range(len(B))]


def render(comps, n):
    """Germ text 'vars: x1,..,xn | c1 ; c2 ; ...', deterministic."""
    names = ["x%d" % i for i in range(1, n + 1)]
    parts = []
    for p in comps:
        if not p:
            parts.append("0")
            continue
        text = ""
        for e in sorted(p, key=lambda e: (sum(e), e), reverse=True):
            c = p[e]
            factors = ["%s^%d" % (nm, k) if k > 1 else nm
                       for nm, k in zip(names, e) if k]
            body = "*".join(factors) if factors else str(abs(c))
            if factors and abs(c) != 1:
                body = "%d*%s" % (abs(c), body)
            if not text:
                text = ("-" if c < 0 else "") + body
            else:
                text += (" - " if c < 0 else " + ") + body
        parts.append(text)
    return "vars: %s | %s" % (",".join(names), " ; ".join(parts))


# ---------------------------------------------------------------------------
# normal forms and their known labels
# ---------------------------------------------------------------------------

MORIN_NAMES = {1: "fold", 2: "cusp", 3: "swallowtail", 4: "butterfly"}


def morin_form(k, n, e1=1, e2=1):
    """Signed k-Morin normal form in n variables (see germlab.morin)."""
    x = [var(i, n) for i in range(1, n + 1)]
    if k == 1:
        return [scale(power(x[0], 2, n), e1)] + x[1:]
    first = scale(mul(x[1], x[0]), e2)
    for j in range(3, k + 1):
        first = add(first, mul(x[j - 1], power(x[0], j - 1, n)))
    first = scale(add(first, power(x[0], k + 1, n)), e1)
    return [first, scale(x[1], e2)] + x[2:]


def morin_label(k, n, e1=1, e2=1):
    """Expected (route, describe) of the signed normal form.

    k < n: sign eta^k lambda for even k, nothing for odd k.  k = n: the
    invariant combination depends on n mod 4 (see germlab.morin), which
    on the normal forms reduces to the signs below."""
    family = MORIN_NAMES.get(k, "morin-%d" % k)
    if k < n:
        signs = (e1, 1) if k % 2 == 0 else ()
    elif n == 1:
        signs = (e1,)
    else:
        signs = {0: (e1, e2), 1: (e1, 1), 2: (e1 * e2, 1),
                 3: (1, e2)}[n % 4]
    return "morin", describe(family, signs)


def describe(family, signs):
    bits = [family] + ["%s=%+d" % (nm, s)
                       for nm, s in zip(("eps1", "eps2"), signs)]
    return " ".join(bits)


def plane_form(family, eps):
    x1, x2 = var(1, 2), var(2, 2)
    if family == "lips":
        first = mul(x1, add(power(x1, 2, 2), power(x2, 2, 2)))
    elif family == "beaks":
        first = mul(x1, add(power(x1, 2, 2), scale(power(x2, 2, 2), -1)))
    else:
        first = mul(x1, x2)
    first = scale(first, eps)
    if family == "planar-swallowtail":
        first = add(first, power(x1, 4, 2))
    return [first, x2]


def surface_form(family, eps=1):
    x1, x2 = var(1, 2), var(2, 2)
    if family == "whitney-umbrella":
        mid = mul(x1, x2)
    else:
        sq = power(x2, 2, 2) if family == "S1+" else scale(power(x2, 2, 2), -1)
        mid = mul(x1, add(power(x1, 2, 2), sq))
    return [power(x1, 2, 2), scale(mid, eps), x2]


def hyp_form():
    m = lambda *f: monomial(4, *f)
    return [add(m(1, 1), m(2, 3)), add(m(2, 2), m(1, 4)), m(3), m(4)]


def elli_form():
    m = lambda *f: monomial(4, *f)
    return [add(m(1, 1), scale(m(2, 2), -1), m(1, 3), m(2, 4)),
            add(m(1, 2), m(1, 4), scale(m(2, 3), -1)), m(3), m(4)]


def corpus():
    """The 30 normal forms spanning every classifier route, as
    (tag, components, n, (route, describe)) tuples."""
    out = []

    def morin(k, n, e1, e2=1):
        out.append(("morin k=%d n=%d %+d%+d" % (k, n, e1, e2),
                    morin_form(k, n, e1, e2), n, morin_label(k, n, e1, e2)))

    for s in (1, -1):
        morin(1, 1, s)
    for n in (2, 3, 4):
        for e1 in (1, -1):
            for e2 in (1, -1):
                morin(n, n, e1, e2)
    morin(1, 2, 1)
    for s in (1, -1):
        morin(2, 3, s)
    for fam in ("lips", "beaks", "planar-swallowtail"):
        for s in (1, -1):
            out.append((fam + " %+d" % s, plane_form(fam, s), 2,
                        ("plane", describe(fam, (s,)))))
    out.append(("whitney-umbrella", surface_form("whitney-umbrella"), 2,
                ("surface", "whitney-umbrella")))
    for fam in ("S1+", "S1-"):
        for s in (1, -1):
            out.append((fam + " %+d" % s, surface_form(fam, s), 2,
                        ("surface", describe(fam, (s,)))))
    out.append(("sigma20-hyp", hyp_form(), 4,
                ("sigma20", describe("sigma20-hyp", (1,)))))
    out.append(("sigma20-elli", elli_form(), 4,
                ("sigma20", describe("sigma20-elli", (1, 1)))))
    assert len(out) == 30
    return out


# ---------------------------------------------------------------------------
# seeded orientation-preserving linear changes
# ---------------------------------------------------------------------------


def det(M):
    """Exact determinant by Fraction elimination."""
    M = [[Fraction(v) for v in row] for row in M]
    n, d = len(M), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            d = -d
        d *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return d


def cyclic_shear(rng, n):
    """I plus one +-1 entry per row at column i+1 (mod n), det > 0.

    The sparsity pattern is fixed and only the signs are seeded, so the
    cost of classifying the changed germ varies little between seeds."""
    if n == 1:
        return [[rng.randint(1, 3)]]
    while True:
        A = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            A[i][(i + 1) % n] = rng.choice((-1, 1))
        d = det(A)
        if d:
            if d < 0:
                A[0] = [-v for v in A[0]]
            return A


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

CORPUS_CHANGES = 4          # K changes per corpus germ: 120 requests
# n -> changes per signed form.  An n=5 germ takes 0.4-1 s depending on
# the change, so that rung takes 16 germs, which averages that out; the
# rung sizes (4, 4, 12, 16) put p50 inside the n=4 rung and p90 inside
# the n=5 rung.
LADDER_RUNGS = {2: 1, 3: 1, 4: 3, 5: 4}
LADDER_PROBE = (6, 7)       # rungs climbed only while the previous fit


def classify_request(tag, comps, n, expect, rng):
    """'classify --json' of the germ after a seeded change on each side."""
    src = cyclic_shear(rng, n)
    tgt = cyclic_shear(rng, len(comps))
    text = render(change_coordinates(comps, src, tgt), n)
    route, label = expect
    return {"argv": ["classify", "--json", text], "kind": "classify",
            "tag": tag, "n": n,
            "expect": {"route": route, "describe": label}}


def classify_corpus(seed):
    """30 germs x K changes (cyclic shear on both sides), shuffled."""
    rng = random.Random("classify_corpus:%d" % seed)
    reqs = [classify_request(tag, comps, n, expect, rng)
            for _ in range(CORPUS_CHANGES)
            for tag, comps, n, expect in corpus()]
    rng.shuffle(reqs)
    return reqs


def ladder_rung(n, count, rng):
    """Signed k=n forms, each under ``count`` changes."""
    signs = [(e1, e2) for e1 in (1, -1) for e2 in (1, -1)]
    return [classify_request("morin k=n=%d %+d%+d" % (n, e1, e2),
                             morin_form(n, n, e1, e2), n,
                             morin_label(n, n, e1, e2), rng)
            for _ in range(count) for e1, e2 in signs]


def morin_ladder(seed):
    """{n: [requests]} for the fixed rungs and the probe rungs."""
    rng = random.Random("morin_ladder:%d" % seed)
    rungs = {n: ladder_rung(n, c, rng) for n, c in LADDER_RUNGS.items()}
    for n in LADDER_PROBE:
        rungs[n] = ladder_rung(n, 1, rng)
    return rungs


def _q(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else \
        "%d/%d" % (x.numerator, x.denominator)


def perturb_request(family, n, params, l=None):
    argv = ["perturb", "--json", "--family", family, "--n", str(n)]
    if l is not None:
        argv += ["--l", str(l)]
    argv.append("--params=" + ",".join(_q(p) for p in params))
    tag = "%s n=%d%s" % (family, n, " l=%d" % l if l else "")
    return {"argv": argv, "kind": "perturb", "tag": tag, "n": n,
            "expect": {"c_f_bound": {"A": l, "B": 2, "C": 4}[family]}}


QUARTERS = [Fraction(k, 4) for k in range(-16, 17)]
# integers give family A exact rational roots at about one point in five
INTEGERS = list(range(-6, 7))
# (family, n, l, number of parameters, parameter grid, requests per pass)
PERTURB_MIX = [
    ("C", 4, None, 2, QUARTERS, 48),
    ("C", 5, None, 2, QUARTERS, 48),
    ("A", 5, 3, 2, INTEGERS, 24),
    ("A", 5, 4, 3, INTEGERS, 24),
    ("B", 2, None, 1, QUARTERS, 12),
    ("B", 3, None, 1, QUARTERS, 12),
    ("B", 4, None, 1, QUARTERS, 12),
    ("B", 5, None, 1, QUARTERS, 12),
]


def stratified(rng, grid, count):
    """``count`` values from ``grid``, each taken as evenly often as
    ``count`` allows, in seeded order.  Every seed then draws the same
    spread of values, so a seed moves the cost of a pass little."""
    values = []
    while len(values) < count:
        values += rng.sample(grid, len(grid))
    return values[:count]


def perturb_sweep(seed):
    """Single-point perturb requests over the fixed mix plus one
    ``tables --json`` request, shuffled."""
    rng = random.Random("perturb_sweep:%d" % seed)
    reqs = []
    for family, n, l, npar, grid, count in PERTURB_MIX:
        columns = [stratified(rng, grid, count) for _ in range(npar)]
        for params in zip(*columns):
            reqs.append(perturb_request(family, n, params, l))
    reqs.append(tables_request())
    rng.shuffle(reqs)
    return reqs


# sha256 of the stdout of fixed requests.  The JSON output is promised
# byte-identical, so these must hold in every process and every version.
TABLES_SHA256 = \
    "22bf6d27773470afb9c51c7f366c02e41dda8a64b93b36cc3a1da44198898f26"
WARMUP_SHA256 = [
    "3596afb865fa5e1538cd56f0dcd5185b2b06852eabdb4e300ea3785d18e62205",
    "9f90343a5044a66f38739b030c62de2c28b752f35505ae1e3882398ee4a4c139",
]


def tables_request():
    return {"argv": ["tables", "--json"], "kind": "tables", "tag": "tables",
            "n": 0, "expect": {"stdout_sha256": TABLES_SHA256}}


def warmup_requests():
    """Small fixed requests run during set-up, one per command type, each
    with its recorded stdout digest."""
    cusp = morin_form(2, 2, 1, 1)
    reqs = [
        {"argv": ["classify", "--json", render(cusp, 2)], "kind": "classify",
         "tag": "warm-up cusp", "n": 2,
         "expect": {"route": "morin", "describe": morin_label(2, 2)[1]}},
        perturb_request("B", 2, [Fraction(-1)]),
    ]
    for req, digest in zip(reqs, WARMUP_SHA256):
        req["expect"]["stdout_sha256"] = digest
    return reqs
