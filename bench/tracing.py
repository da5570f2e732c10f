"""Outside-in tracing of germlab layers.

No source file of the package is touched.  ``Tracer.enable`` replaces
module attributes in every ``germlab.*`` namespace that holds the traced
function (``germlab.cli.analyze``, ``germlab.perturb.recognize_morin``,
...) and wraps the class methods ``PolyMatrix.det``, ``PolyMatrix.adjugate``
and ``Poly.__mul__`` (the last for counts only); ``Tracer.disable`` puts the
originals back.

Each span is [name, start, end, parent index, request id].  Spans stay in
memory until the run ends.  Self time is a span's duration minus the time
covered by its direct child spans.
"""

import functools
import sys
import time

# (module, function) pairs traced as spans named "<module>.<function>"
FUNCTIONS = [
    ("germparse", "parse_map"),
    ("cli", "classify_any"),
    ("germ", "analyze"),
    ("germ", "null_field"),
    ("germ", "translate"),
    ("morin", "recognize_morin"),
    ("morin", "eta_lambda_chain"),
    ("morin", "morin_invariants"),
    ("lowdim", "classify_plane"),
    ("lowdim", "classify_surface"),
    ("sigma20", "classify_sigma20"),
    ("perturb", "morin_points"),
    ("perturb", "build_unfolding"),
    ("perturb", "curve_data"),
    ("perturb", "up_squarefree"),
    ("perturb", "rational_roots"),
    ("perturb", "isolate_real_roots"),
    ("perturb", "refine_root"),
    ("perturb", "sign_at_root"),
    ("perturb", "_classifier_invariant_on_curve"),
    ("perturb", "_vanishing_on_curve"),
    ("perturb", "table_invariant"),
]
METHODS = [("PolyMatrix", "det"), ("PolyMatrix", "adjugate")]
# spans the benchmark opens itself around each request
OUTER = ["cli.main"]
# translate + recognize_morin called from morin_points: the exact-point check
VERIFY_EXACT = "perturb.verify_exact"

SPAN_NAMES = OUTER + ["%s.%s" % f for f in FUNCTIONS] + \
    ["polyring.%s" % m for _, m in METHODS]

COUNTS = ["polyring.mul.calls", "polyring.mul.term_products",
          "perturb.points_exact", "perturb.points_interval"]
MAXIMA = ["germ.lambda_terms_max", "germ.eta_terms_max",
          "morin.chain_terms_max", "morin.chain_degree_max",
          "perturb.constraint_degree_max"]


def _nterms(p):
    return len(getattr(p, "terms", ()))


def _sizes(tracer, name, result):
    """Record the size of what a layer made, where the layer makes one.
    A result of another shape than expected is skipped, not an error."""
    try:
        _record_sizes(tracer, name, result)
    except (AttributeError, TypeError, IndexError, ValueError):
        pass


def _record_sizes(tracer, name, result):
    if name == "germ.analyze" and getattr(result, "lam", None) is not None:
        tracer.maximum("germ.lambda_terms_max", _nterms(result.lam))
    elif name == "germ.null_field":
        tracer.maximum("germ.eta_terms_max",
                       sum(_nterms(c) for c in result.components))
    elif name == "morin.eta_lambda_chain":
        tracer.maximum("morin.chain_terms_max",
                       max(_nterms(p) for p in result))
        tracer.maximum("morin.chain_degree_max",
                       max(p.total_degree() for p in result))
    elif name == "perturb.curve_data":
        coeffs = list(result[1])
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        tracer.maximum("perturb.constraint_degree_max", len(coeffs) - 1)
    elif name == "perturb.morin_points":
        exact = sum(1 for p in result.points if p.exact)
        tracer.count("perturb.points_exact", exact)
        tracer.count("perturb.points_interval", len(result.points) - exact)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.maxima = dict.fromkeys(MAXIMA, 0)
        self.request = None
        self._patches = []      # (owner, attribute, original, wrapper)

    # -- recording ---------------------------------------------------------

    def count(self, name, k=1):
        self.counts[name] += k

    def maximum(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def wrap(self, name, fn):
        """fn wrapped so that each call records one span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   tracer.request]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = tracer.clock()
                stack.pop()
            _sizes(tracer, name, result)
            return result
        return traced

    def _count_mul(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, b):
            tracer.counts["polyring.mul.calls"] += 1
            tracer.counts["polyring.mul.term_products"] += \
                _nterms(a) * (_nterms(b) if hasattr(b, "terms") else 1)
            return fn(a, b)
        return counted

    # -- patching ----------------------------------------------------------

    def prepare(self):
        """Build the patch list from the loaded germlab modules."""
        mods = {name: m for name, m in sys.modules.items()
                if name.startswith("germlab.") and m is not None}
        patches = []
        for modname, fname in FUNCTIONS:
            original = getattr(mods["germlab." + modname], fname)
            wrapper = self.wrap("%s.%s" % (modname, fname), original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original, wrapper))
        polyring = mods["germlab.polyring"]
        for cls, meth in METHODS:
            owner = getattr(polyring, cls)
            original = owner.__dict__[meth]
            patches.append((owner, meth, original,
                            self.wrap("polyring.%s" % meth, original)))
        poly = polyring.Poly
        for meth in ("__mul__", "__rmul__"):
            original = poly.__dict__[meth]
            patches.append((poly, meth, original, self._count_mul(original)))
        self._patches = patches

    def enable(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def self_times(spans):
    """{name: [calls, self seconds]} from span records."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        agg = out.setdefault(name, [0, 0.0])
        agg[0] += 1
        agg[1] += (end - start) - covered[i]
    return out


def verify_exact(spans):
    """(calls, seconds) of translate + recognize_morin called directly from
    morin_points: the full classifier check of exact Morin points."""
    calls, seconds = 0, 0.0
    for name, start, end, parent, _ in spans:
        if parent >= 0 and spans[parent][0] == "perturb.morin_points":
            if name == "morin.recognize_morin":
                calls += 1
                seconds += end - start
            elif name == "germ.translate":
                seconds += end - start
    return calls, seconds


def layer_metrics(tracer, passes=1):
    """Every per-layer metric of the traced requests, per pass."""
    agg = self_times(tracer.spans)
    out = {}
    for name in SPAN_NAMES:
        calls, self_s = agg.get(name, (0, 0.0))
        out[name + ".calls"] = (calls / passes, "count")
        out[name + ".self_s"] = (self_s / passes, "s")
    calls, seconds = verify_exact(tracer.spans)
    out[VERIFY_EXACT + ".calls"] = (calls / passes, "count")
    out[VERIFY_EXACT + ".total_s"] = (seconds / passes, "s")
    for name in COUNTS:
        out[name] = (tracer.counts[name] / passes, "count")
    for name in MAXIMA:
        out[name] = (tracer.maxima[name], "count")
    return out
