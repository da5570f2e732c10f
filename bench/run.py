"""germlab benchmark: one workload, untimed or traced, one process.

    python3 bench/run.py --workload classify_corpus --seed 1 --seconds 20 --trace 0

Drives the package in process through ``germlab.cli.main(argv)`` with
stdout captured and checked.  One client, one thread, closed loop: the
next request starts only after the previous one returned.  Prints every
metric by name with its unit, writes ``bench/results/BENCH_<label>.json``
(and, traced, the spans as ``SPANS_<label>.jsonl``), and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  Their latencies are in
reference milliseconds (see ``reference_s``), which a shared machine's
slow phases move far less than wall time; the wall-time figures are in
the printout and the BENCH file.  --trace 1 runs every request
twice in a row, untraced then traced, and reports the per-layer metrics
of the traced runs plus the tracing overhead (fastest traced - fastest
untraced repeat, summed over the requests).
"""

import argparse
import collections
import contextlib
import fractions
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
# Every run compiles germlab from source, so set-up is alike in a fresh
# checkout and in a working tree: no bytecode is written, and cached
# bytecode is looked up only under a directory that is never made, so a
# __pycache__ left by a test run is not read either.
sys.dont_write_bytecode = True
sys.pycache_prefix = os.path.join(RESULTS, "no-pycache")
sys.path[:0] = [HERE, SRC]

import inputs   # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5           # set-ups at the start of a run
SETUP_EVERY_S = 1.5         # and one more between requests this often
LADDER_BUDGET_S = 4.0

# The reference computation: a fixed product of sparse polynomials with
# Fraction coefficients, the kind of work germlab does, in the
# benchmark's own code.  Its time is one "reference millisecond"
# (ref_ms; about 0.9 ms on a 2-vCPU Xeon VM when the host is quiet).
_F = fractions.Fraction
REFERENCE_FACTOR = {(1, 0, 0): _F(1, 3), (0, 1, 0): _F(-2, 5),
                    (0, 0, 1): _F(1), (0, 0, 0): _F(7, 2), (1, 1, 0): _F(3, 4)}
REFERENCE_POWER = 4
REFERENCE_EVERY_S = 0.1     # CPU seconds between references inside a request

# What each workload sends per pass.  Why it is there is its "why" in
# BENCHMARK.json.
COMPOSITION = {
    "classify_corpus":
        "30-germ corpus (Morin n=1..4, fold and cusp in more variables, "
        "lips/beaks/planar swallowtail, umbrella/S1+-, sigma20 hyp/elli) "
        "x %d changes, cyclic shear on both sides; 'classify --json'"
        % inputs.CORPUS_CHANGES,
    "morin_ladder":
        "signed k=n forms, changes per sign %s, cyclic shear on both sides; "
        "probe rungs %s; budget %.1f s per germ"
        % (inputs.LADDER_RUNGS, list(inputs.LADDER_PROBE), LADDER_BUDGET_S),
    "perturb_sweep":
        "single-point 'perturb --json' requests %s and one 'tables --json'"
        % ["%s n=%d%s x%d" % (f, n, " l=%d" % l if l else "", c)
           for f, n, l, _, _, c in inputs.PERTURB_MIX],
}

END_TO_END = [("setup_s", "s"), ("requests_per_ref_s", "1/ref_s"),
              ("p50_ref_ms", "ref_ms"), ("p90_ref_ms", "ref_ms"),
              ("peak_rss_mb", "MB")]

# Layers that every workload exercises report their self time; the rest
# report call counts here (a layer a workload never calls would read 0 s
# on every run) and their self time in the BENCH file.
SHARED_LAYERS = ["cli.main", "germ.analyze", "germ.null_field",
                 "morin.recognize_morin", "morin.eta_lambda_chain",
                 "morin.morin_invariants", "polyring.det", "polyring.adjugate"]
PER_LAYER = (
    [(n + ".self_s", "s") for n in SHARED_LAYERS] +
    [(n + ".calls", "count") for n in tracing.SPAN_NAMES] +
    [(tracing.VERIFY_EXACT + ".calls", "count")] +
    [(n, "count") for n in tracing.COUNTS + tracing.MAXIMA] +
    [("trace.overhead_s", "s")])


class BudgetExceeded(Exception):
    """Raised by the interval timer when a request runs over budget."""


def _alarm(signum, frame):
    raise BudgetExceeded()


Outcome = collections.namedtuple(
    "Outcome", "rc seconds stdout stderr over_budget crash")


def execute(main, argv, budget=None):
    """Run one request; ``budget`` seconds arms the interval timer."""
    out, err = io.StringIO(), io.StringIO()
    rc, over, crash = None, False, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if budget:
                signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                rc = main(list(argv))
            finally:
                if budget:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        over = True
    except SystemExit as e:         # argparse rejects the argv
        rc = e.code
    except Exception:               # a crash in the package fails the request
        crash = traceback.format_exc(limit=3)
    return Outcome(rc, time.perf_counter() - start, out.getvalue(),
                   err.getvalue(), over, crash)


def reference_s():
    """Seconds taken by one reference computation.

    The host slows all pure-Python work alike, by up to 2x for seconds to
    minutes, so a request's latency divided by the mean reference time
    measured around and during it is nearly free of those phases."""
    start = time.perf_counter()
    p = {(0, 0, 0): _F(1)}
    for _ in range(REFERENCE_POWER):
        p = inputs.mul(p, REFERENCE_FACTOR)
    return time.perf_counter() - start


def execute_referenced(main, argv, budget, before):
    """execute() with the reference computation timed right after the
    request and, from a SIGPROF handler, every REFERENCE_EVERY_S of CPU
    time inside it.  ``before`` is the reference time measured right
    before.  Returns the outcome, whose seconds exclude the references
    run inside, the mean of all the reference times, and the one after."""
    inside = []

    def sample(signum, frame):
        inside.append(reference_s())

    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S,
                     REFERENCE_EVERY_S)
    try:
        outcome = execute(main, argv, budget)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
    after = reference_s()
    refs = [before] + inside + [after]
    outcome = outcome._replace(seconds=outcome.seconds - sum(inside))
    return outcome, sum(refs) / len(refs), after


def check(req, outcome):
    """None when the output is right, else a one-line reason."""
    if outcome.crash:
        return "crash: " + outcome.crash.strip().splitlines()[-1]
    if outcome.rc != 0:
        return "exit %r: %s" % (outcome.rc, outcome.stderr.strip()[:200])
    try:
        payload = json.loads(outcome.stdout)
    except ValueError:
        return "stdout is not one JSON document"
    expect = req["expect"]
    if "stdout_sha256" in expect and \
            sha256(outcome.stdout) != expect["stdout_sha256"]:
        return "stdout differs from the recorded bytes"
    if req["kind"] == "classify":
        got = (payload.get("route"), payload.get("label", {}).get("describe"))
        if got != (expect["route"], expect["describe"]):
            return "label %r, expected %r" % (
                got, (expect["route"], expect["describe"]))
    elif req["kind"] == "perturb":
        points = payload.get("points", [])
        if payload.get("count") != len(points):
            return "count %r but %d points" % (payload.get("count"),
                                               len(points))
        if payload.get("c_f_bound") != expect["c_f_bound"] or \
                len(points) > expect["c_f_bound"]:
            return "%d points, bound c(f)=%r" % (len(points),
                                                 payload.get("c_f_bound"))
        if not all(p.get("verified") is True for p in points):
            return "a Morin point is not verified"
    return None


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Samples, over-budget marks, output digests and failures per request."""

    def __init__(self, reqs):
        self.reqs = reqs
        self.latency = [[] for _ in reqs]
        self.traced = [[] for _ in reqs]
        self.relative = [[] for _ in reqs]    # latency in ref_ms
        self.reference = []                    # reference times, s
        self.over = [0] * len(reqs)
        self.digest = [None] * len(reqs)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, i, outcome, traced=False, reference=None):
        """``reference``: the reference time measured around the request."""
        self.attempted += 1
        (self.traced if traced else self.latency)[i].append(outcome.seconds)
        if reference:
            self.relative[i].append(outcome.seconds / reference)
            self.reference.append(reference)
        if outcome.over_budget:
            self.over[i] += 1
            return
        err = check(self.reqs[i], outcome)
        if err is None:
            digest = sha256(outcome.stdout)
            if self.digest[i] is None:
                self.digest[i] = digest
            elif self.digest[i] != digest:
                err = "stdout differs between repeats of one request"
        if err is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append("%s: %s" % (self.reqs[i]["tag"], err))

    def fastest(self):
        """Each request's fastest untraced repeat.  The work repeats
        exactly and noise on a shared machine only ever adds time."""
        return [min(s) for s in self.latency]

    def typical_relative(self):
        """Each request's median latency in ref_ms over its repeats."""
        return [statistics.median(r) for r in self.relative]

    def stdout_sha256(self):
        return sha256("".join(d or "-" for d in self.digest))


def compare_earlier(results, workload, seed, digests):
    """Compare each request's stdout digest with those of the earlier runs
    of this workload and seed whose BENCH files are in ``results``, traced
    or not.  Returns (runs compared, one error per run that differs).  A
    request without a checked output in either run is skipped."""
    compared, errors = 0, []
    for trace in (0, 1):
        name = "BENCH_%s_seed%d_trace%d.json" % (workload, seed, trace)
        try:
            with open(os.path.join(results, name)) as fh:
                earlier = json.load(fh)["request_sha256"]
        except (OSError, ValueError, KeyError):
            continue
        compared += 1
        differ = [i for i, (a, b) in enumerate(zip(earlier, digests))
                  if a and b and a != b]
        if differ or len(earlier) != len(digests):
            errors.append("stdout differs from %s at %d requests"
                          % (name, len(differ)))
    return compared, errors


def closed_loop(main, reqs, seconds, tracer=None, budget=None, between=None):
    """Passes over ``reqs`` until ``seconds`` have elapsed; the first pass
    always completes.  Untraced, the loop stops at the deadline, mid-pass;
    traced, each request runs untraced and then traced, and the loop stops
    only after a whole pass so that per-pass counts stay exact.
    ``between()`` is called between requests every SETUP_EVERY_S seconds.
    Every untraced request is bracketed by reference computations, and
    two requests in a row share the one between them."""
    tally = Tally(reqs)
    traced_main = tracer.wrap("cli.main", main) if tracer else None
    deadline = time.perf_counter() + seconds
    next_between = time.perf_counter() + SETUP_EVERY_S
    passes = 0
    before = None
    while True:
        for i, req in enumerate(reqs):
            now = time.perf_counter()
            if passes and not tracer and now >= deadline:
                return tally, passes
            if between and now >= next_between:
                between()
                next_between = time.perf_counter() + SETUP_EVERY_S
                before = None
            if before is None:
                before = reference_s()
            outcome, ref, before = execute_referenced(
                main, req["argv"], budget, before)
            tally.record(i, outcome, reference=ref)
            if tracer:
                before = None
                tracer.request = "%d/%d" % (passes, i)
                tracer.enable()
                try:
                    outcome = execute(traced_main, req["argv"], budget)
                finally:
                    tracer.disable()
                    tracer.stack.clear()    # a budget alarm can cut a span
                tally.record(i, outcome, traced=True)
        passes += 1
        if time.perf_counter() >= deadline:
            return tally, passes


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def relative_metrics(relative):
    """The end-to-end latency metrics from per-request ref_ms values."""
    q = statistics.quantiles(relative, n=100)
    return {"requests_per_ref_s": (1e3 * len(relative) / sum(relative),
                                   "1/ref_s"),
            "p50_ref_ms": (q[49], "ref_ms"),
            "p90_ref_ms": (q[89], "ref_ms")}


def latency_metrics(latencies):
    q = statistics.quantiles(latencies, n=100)
    return {"requests_per_s": (len(latencies) / sum(latencies), "1/s"),
            "p50_ms": (q[49] * 1e3, "ms"),
            "p90_ms": (q[89] * 1e3, "ms")}


# ---------------------------------------------------------------------------
# workloads: each returns (tally, passes, workload-specific metrics)
# ---------------------------------------------------------------------------

def run_classify_corpus(main, reqs, seconds, tracer, between=None):
    tally, passes = closed_loop(main, reqs, seconds, tracer, between=between)
    m = latency_metrics(tally.fastest())
    extra = {"classify_germs_per_s": m["requests_per_s"],
             "classify_p50_ms": m["p50_ms"],
             "classify_p90_ms": m["p90_ms"]}
    return tally, passes, m, extra


def ladder_n_max(rungs, fixed_over, probe):
    """Largest n whose rung, and every rung below it, finished within
    budget.  ``fixed_over`` maps a fixed rung to its over-budget count;
    ``probe(n)`` runs a probe rung and says whether it fit."""
    n_max = 1
    for n in sorted(fixed_over):
        if fixed_over[n]:
            return n_max
        n_max = n
    for n in sorted(set(rungs) - set(fixed_over)):
        if not probe(n):
            break
        n_max = n
    return n_max


def run_morin_ladder(main, rungs, seconds, tracer, between=None):
    fixed = [r for n in sorted(inputs.LADDER_RUNGS) for r in rungs[n]]
    tally, passes = closed_loop(main, fixed, seconds, tracer,
                                budget=LADDER_BUDGET_S, between=between)
    fixed_over = {n: sum(o for r, o in zip(fixed, tally.over) if r["n"] == n)
                  for n in inputs.LADDER_RUNGS}
    rss = peak_rss_mb()     # before the probe, whose last germ is cut short
    probe_tally = Tally([r for n in inputs.LADDER_PROBE for r in rungs[n]])

    def probe(n):
        for i, req in enumerate(probe_tally.reqs):
            if req["n"] != n:
                continue
            outcome = execute(main, req["argv"], LADDER_BUDGET_S)
            probe_tally.record(i, outcome)
            if outcome.over_budget:
                return False
        return True

    n_max = ladder_n_max(rungs, fixed_over, probe)
    tally.attempted += probe_tally.attempted
    tally.failed += probe_tally.failed
    tally.errors += probe_tally.errors
    fastest = tally.fastest()
    m = latency_metrics(fastest)
    extra = {"peak_rss_mb": (rss, "MB"),
             "ladder_n_max": (n_max, "n"),
             "ladder_n4_s": (sum(s for r, s in zip(fixed, fastest)
                                 if r["n"] == 4), "s"),
             "ladder_over_budget": (sum(tally.over) + sum(probe_tally.over),
                                    "count")}
    return tally, passes, m, extra


def run_perturb_sweep(main, reqs, seconds, tracer, between=None):
    tally, passes = closed_loop(main, reqs, seconds, tracer, between=between)
    fastest = tally.fastest()
    m = latency_metrics(fastest)
    lab = [s for r, s in zip(reqs, fastest) if r["kind"] == "perturb"]
    tables = [s for r, s in zip(reqs, fastest) if r["kind"] == "tables"]
    extra = dict(("perturb_" + k, v)
                 for k, v in latency_metrics(lab).items())
    extra["tables_ms"] = (tables[0] * 1e3, "ms")
    return tally, passes, m, extra


RUNNERS = {"classify_corpus": (inputs.classify_corpus, run_classify_corpus),
           "morin_ladder": (inputs.morin_ladder, run_morin_ladder),
           "perturb_sweep": (inputs.perturb_sweep, run_perturb_sweep)}


# ---------------------------------------------------------------------------
# set-up, reporting, entry point
# ---------------------------------------------------------------------------

def germlab_modules():
    return {name: m for name, m in sys.modules.items()
            if name == "germlab" or name.startswith("germlab.")}


def import_cli():
    """Fresh import of germlab.cli from this checkout's src/."""
    for name in germlab_modules():
        del sys.modules[name]
    cli = importlib.import_module("germlab.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError("germlab imported from %s, not %s"
                          % (cli.__file__, SRC))
    return cli


class Setup:
    """Timed set-ups: a fresh import, input generation and the warm-up,
    whose outputs are checked.  ``setup_s`` is the fastest of them.  The
    work repeats exactly and noise only ever adds time; and since a shared
    machine has slow phases lasting seconds, set-ups are also sampled
    during the run, so that the fastest is taken over all of it."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.warm = Tally(inputs.warmup_requests())
        self.times = []

    def once(self):
        gc.collect()            # the modules of an earlier set-up are garbage
        start = time.perf_counter()
        cli = import_cli()
        reqs = RUNNERS[self.workload][0](self.seed)
        for i, req in enumerate(self.warm.reqs):
            self.warm.record(i, execute(cli.main, req["argv"]))
        self.times.append(time.perf_counter() - start)
        return cli, reqs

    def first(self):
        """The set-ups before the run; the last one's cli and requests."""
        for _ in range(SETUP_REPEATS):
            cli, reqs = self.once()
        return cli, reqs

    def resample(self):
        """One more set-up; the germlab modules in use are put back after."""
        in_use = germlab_modules()
        try:
            self.once()
        finally:
            for name in germlab_modules():
                del sys.modules[name]
            sys.modules.update(in_use)

    def seconds(self):
        return min(self.times)


def workload_why(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {w["name"]: w["why"] for w in spec["workloads"]}[workload]


def write_json(path, obj):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_spans(path, spans):
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(COMPOSITION))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    why = workload_why(args.workload)
    os.environ.pop("GERMLAB_PRECISION", None)
    signal.signal(signal.SIGALRM, _alarm)
    setup = Setup(args.workload, args.seed)
    try:
        cli, reqs = setup.first()
    except ImportError as e:
        sys.stderr.write("cannot import germlab from %s: %s\n" % (SRC, e))
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.prepare()
    runner = RUNNERS[args.workload][1]
    wall = time.perf_counter()
    tally, passes, e2e, extra = runner(cli.main, reqs, args.seconds, tracer,
                                       setup.resample)
    warm = setup.warm
    wall = time.perf_counter() - wall

    compared, differ = compare_earlier(RESULTS, args.workload, args.seed,
                                       tally.digest)
    attempted = tally.attempted + warm.attempted + compared
    failed = tally.failed + warm.failed + len(differ)
    metrics = {"setup_s": (setup.seconds(), "s")}
    metrics.update(e2e)
    metrics.update(relative_metrics(tally.typical_relative()))
    metrics["reference_ms"] = (statistics.median(tally.reference) * 1e3, "ms")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics.update(extra)
    metrics["ops_failed_frac"] = (failed / attempted, "ratio")
    if tracer:
        layers = tracing.layer_metrics(tracer, passes)
        untraced = sum(tally.fastest())
        traced = sum(min(s) for s in tally.traced)
        layers["trace.overhead_s"] = (traced - untraced, "s")
        layers["trace.overhead_frac"] = ((traced - untraced) / untraced,
                                         "ratio")
        metrics.update(layers)
        wanted = PER_LAYER
    else:
        wanted = END_TO_END

    label = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "why": why,
        "composition": COMPOSITION[args.workload],
        "load": "closed loop, 1 client, 1 thread, in process",
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(), "passes": passes, "requests": len(tally.reqs),
        "wall_s": wall, "setup_samples": len(setup.times),
        "attempted": attempted, "failed": failed,
        "errors": warm.errors + tally.errors + differ,
        "stdout_sha256": tally.stdout_sha256(),
        "request_sha256": tally.digest,
        "latency_s": {"tags": [r["tag"] for r in tally.reqs],
                      "untraced": tally.latency, "traced": tally.traced,
                      "untraced_ref_ms": tally.relative},
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    write_json(os.path.join(RESULTS, "BENCH_%s.json" % label), report)
    if tracer:
        write_spans(os.path.join(RESULTS, "SPANS_%s.jsonl" % label),
                    tracer.spans)

    for name, (value, unit) in sorted(metrics.items()):
        print("%-44s %16.6f %s" % (name, value, unit))
    for err in report["errors"]:
        print("FAILED %s" % err)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": u}
                    for k, u in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
