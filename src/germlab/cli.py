"""Command line front end.

Commands:
  classify  -- isotopy class of a germ (Morin first, then the plane /
               surface / corank-2 criteria)
  perturb   -- Morin points of a family A/B/C perturbation, single
               parameter tuple or a sweep grid
  tables    -- machine-readable class-count and family-invariant tables
  verify    -- classify and compare against a claimed label

Exit codes: 0 success, 1 verify mismatch, 2 parse error or unreadable
--input, 3 unrecognized germ.  JSON output is deterministic (sorted keys,
fixed separators) so identical inputs give byte-identical bytes.
"""

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .polyring import _rat_str
from .germ import (NotCorankOneError, DegenerateGermError, GermError,
                   prepared_form)
from .morin import recognize_morin, class_count
from .lowdim import classify_plane, classify_surface
from .sigma20 import classify_sigma20
from .germparse import parse_map, render_map, ParseError
from . import perturb as pt

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 1
EXIT_PARSE_ERROR = 2
EXIT_UNRECOGNIZED = 3

# The largest sweep grid ``perturb --grid`` accepts, in points.
MAX_GRID_POINTS = 10000


class UnrecognizedError(Exception):
    pass


class InputError(Exception):
    """The --input path cannot be read (exit 2, like a parse error)."""


def _emit(payload, as_json, human_lines):
    if as_json:
        sys.stdout.write(json.dumps(payload, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")


def _unrecognized(e, as_json):
    """One line for an unrecognized germ, the same for every command."""
    _emit({"error": str(e), "family": "unrecognized"}, as_json,
          ["unrecognized: %s" % e])
    return EXIT_UNRECOGNIZED


@functools.cache
def _rendered(normal_form):
    """A class's normal form (one cached MapGerm) as text, once a process."""
    return render_map(normal_form)


def _label_dict(label):
    return {
        "family": label.family,
        "k": label.k,
        "signs": list(label.signs),
        "invariant": pt.inv_to_json(label.invariant),
        "normal_form": (_rendered(label.normal_form)
                        if label.normal_form is not None else None),
        "describe": label.describe(),
    }


def classify_any(f):
    """Dispatch to the one route that applies, read from (n, m) and, for
    a square germ, the corank of df(0): ``classify_surface`` (n=2, m=3),
    ``classify_sigma20`` (corank two at n=4), and ``classify_plane``
    (n=2) or ``recognize_morin`` (corank at most one).  Returns (label,
    route), route "morin" for a label with a k.  Raises
    UnrecognizedError for any other germ before a route runs, and with
    the route's reason when the route refuses the germ.

    Every route reads f's prepared form, built once and kept on f: its
    integer jets, and the rank and kernels of df(0).  No route expands
    the Jacobian's cofactors."""
    n, m = f.src_dim, f.tgt_dim
    reason = None       # a route's refusal is shown with its own message
    if (n, m) == (2, 3):
        route, classify = "surface", classify_surface
    elif n != m:
        raise UnrecognizedError(
            "no classifier for a germ (R^%d,0) -> (R^%d,0)" % (n, m))
    else:
        corank = prepared_form(f).corank
        if corank == 2 and n == 4:
            route, classify = "sigma20", classify_sigma20
        elif corank > 1:
            raise UnrecognizedError("corank %d at the origin: out of scope"
                                    % corank)
        else:
            route = "plane"
            classify = classify_plane if n == 2 else recognize_morin
            reason = "degenerate germ: no criterion matched"
    try:
        label = classify(f)
    except (DegenerateGermError, NotCorankOneError) as e:
        raise UnrecognizedError(reason or str(e))
    return label, route if label.k is None else "morin"


def _read_input(args):
    """The germ: the bytes of the --input file or of stdin's buffer ("-"),
    which ``parse_map`` decodes, or the inline text."""
    if args.input:
        try:
            if args.input == "-":
                return getattr(sys.stdin, "buffer", sys.stdin).read()
            with open(args.input, "rb") as fh:
                return fh.read()
        except OSError as e:
            raise InputError("cannot read %r: %s" % (args.input, e.strerror))
    if args.germ:
        return args.germ
    raise ParseError("no germ given (use --input or an inline argument)", 1, 1)


def cmd_classify(args):
    label, route = classify_any(parse_map(_read_input(args)))
    # the human lines reuse the payload's text: one render of the normal form
    shown = _label_dict(label)
    payload = {"route": route, "label": shown}
    human = ["class: %s" % shown["describe"],
             "route: %s" % route,
             "invariant: %s" % (label.invariant,)]
    if shown["normal_form"] is not None:
        human.append("normal form: %s" % shown["normal_form"])
    _emit(payload, args.json, human)
    return EXIT_OK


def _parse_claim(claim):
    """'butterfly eps1=-1 eps2=-1' -> (family, {eps1: -1, eps2: -1})."""
    bits = claim.split()
    if not bits:
        raise ValueError("empty claimed label")
    family = bits[0]
    signs = {}
    for b in bits[1:]:
        if "=" not in b:
            raise ValueError("bad sign clause %r" % b)
        name, val = b.split("=", 1)
        if name not in ("eps1", "eps2"):
            raise ValueError("unknown sign name %r" % name)
        if val not in ("1", "+1", "-1"):
            raise ValueError("sign %s must be +1 or -1, got %r" % (name, val))
        signs[name] = int(val)
    return family, signs


def cmd_verify(args):
    label, route = classify_any(parse_map(_read_input(args)))
    family, signs = _parse_claim(args.claim)
    got = dict(zip(("eps1", "eps2"), label.signs))
    ok = (label.family == family and
          all(got.get(k) == v for k, v in signs.items()))
    human = ["claimed: %s" % args.claim,
             "actual:  %s" % label.describe(),
             "match: %s" % ("yes" if ok else "no")]
    if not ok:
        human.append("invariant diff: actual %s" % (label.invariant,))
    # only the JSON label carries the normal form, so only it renders one
    payload = ({"claimed": args.claim, "actual": _label_dict(label),
                "match": ok} if args.json else None)
    _emit(payload, args.json, human)
    return EXIT_OK if ok else EXIT_VERIFY_MISMATCH


def _rational(text):
    """The Fraction a parameter or grid bound spells; a zero denominator
    is a bad value like any other (ValueError, exit 3)."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def _parse_params(text):
    if not text:
        return ()
    return tuple(_rational(p.strip()) for p in text.split(","))


def _parse_grid(text, nparams):
    """--grid 'lo:hi:step[,lo:hi:step...]' -> list of parameter tuples.
    The number of points is computed from lo/hi/step first, and a grid of
    more than MAX_GRID_POINTS is rejected before any list is built."""
    ranges = []
    for chunk in text.split(","):
        bounds = chunk.split(":")
        if len(bounds) != 3:
            raise ValueError("grid range %r is not of the form lo:hi:step"
                             % chunk)
        lo, hi, step = (_rational(v) for v in bounds)
        if step <= 0:
            raise ValueError("grid step must be positive")
        ranges.append((lo, step, max(0, (hi - lo) // step + 1)))
    while len(ranges) < nparams:
        ranges.append(ranges[-1])
    ranges = ranges[:nparams]
    size = math.prod(count for _, _, count in ranges)
    if size > MAX_GRID_POINTS:
        raise ValueError("grid has %d points, more than the cap of %d"
                         % (size, MAX_GRID_POINTS))
    grid = [()]
    for lo, step, count in ranges:
        grid = [g + (lo + i * step,) for g in grid for i in range(count)]
    return grid


def cmd_perturb(args):
    family = args.family.upper()
    if args.grid:
        grid = _parse_grid(args.grid, pt.param_count(family, args.l))
        reports, summary = pt.sweep(family, args.n, grid, l=args.l,
                                    precision_bits=args.precision)
        payload = {"summary": summary,
                   "reports": [pt.report_to_dict(r) for r in reports]}
        human = ["sweep %s n=%d: %d grid points, max count %d (c(f)=%s%s)" %
                 (family, args.n, summary["grid_size"], summary["max_count"],
                  summary["c_f_bound"],
                  ", attained" if summary["attained"] else ""),
                 "all points verified: %s" % summary["all_verified"]]
        _emit(payload, args.json, human)
        return EXIT_OK
    spec = pt.UnfoldingSpec(family, args.n, _parse_params(args.params),
                            l=args.l)
    rep = pt.morin_points(spec, precision_bits=args.precision)
    payload = pt.report_to_dict(rep)
    human = ["%r: %d Morin point(s), bound c(f)=%d, stable=%s" %
             (spec, rep.count, rep.c_f_bound, rep.stable)]
    for note in rep.notes:
        human.append("note: %s" % note)
    for d in payload["points"]:
        human.append("  t ~ %s  invariant=%s  table=%s  verified=%s" %
                     (d["t"]["approx"], d["invariant"], d["table_invariant"],
                      d["verified"]))
    _emit(payload, args.json, human)
    return EXIT_OK


_REFERENCE_SPECS = {
    "A": lambda n: pt.UnfoldingSpec("A", n, [0, -1], l=3),  # roots 0, +-1
    "B": lambda n: pt.UnfoldingSpec("B", n, [-pt.FAMILY_B_CN[n]]),
    "C": lambda n: pt.UnfoldingSpec("C", n, [Fraction(1, 4), 2]),
}


def cmd_tables(args):
    t1 = [{"k": n, "n": n, "count": class_count(n, n)} for n in range(1, 7)]
    t2 = [{"k": k, "n": n, "count": class_count(k, n)}
          for n in range(2, 7) for k in range(1, n)]
    families = []
    for fam in ("A", "B", "C"):
        for n in (2, 3, 4, 5):
            spec = _REFERENCE_SPECS[fam](n)
            rep = pt.morin_points(spec, precision_bits=args.precision)
            families.append({
                "family": fam,
                "n": n,
                "u": [_rat_str(v) for v in spec.u],
                "l": spec.l,
                "count": rep.count,
                "c_f_bound": rep.c_f_bound,
                "inv_formula": pt.INV_FORMULAS[(fam, n)],
                "invariants": [pt.inv_to_json(p.invariant_value)
                               for p in rep.points],
                "all_verified": all(p.verified for p in rep.points),
            })
    payload = {"class_counts_k_eq_n": t1, "class_counts_k_lt_n": t2,
               "families": families}
    human = ["class counts (k = n): " +
             ", ".join("n=%d:%d" % (r["n"], r["count"]) for r in t1),
             "class counts (k < n): 2 for even k, 1 for odd k"]
    for row in families:
        human.append("%s n=%d: %d/%d points, inv %s, verified=%s" %
                     (row["family"], row["n"], row["count"], row["c_f_bound"],
                      row["inv_formula"], row["all_verified"]))
    _emit(payload, args.json, human)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built on first use and then shared.  It holds
    no per-call state: ``--precision`` defaults to None, and ``main``
    resolves that from GERMLAB_PRECISION on every call."""
    ap = argparse.ArgumentParser(
        prog="germlab",
        description="Exact classification of polynomial map-germs up to "
                    "orientation-preserving A-equivalence.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, germ_arg=False):
        p.add_argument("--json", action="store_true",
                       help="deterministic JSON output")
        p.add_argument("--precision", type=int, default=None,
                       help="root isolation precision exponent (bits, 20-120)")
        if germ_arg:
            p.add_argument("germ", nargs="?", help="inline germ text")
            p.add_argument("--input", "-i",
                           help="germ file, or - for stdin")

    pc = sub.add_parser("classify", help="classify a germ")
    common(pc, germ_arg=True)

    pv = sub.add_parser("verify", help="classify and compare with a claim")
    common(pv, germ_arg=True)
    pv.add_argument("--claim", required=True,
                    help="claimed label, e.g. 'butterfly eps1=-1 eps2=-1'")

    pp = sub.add_parser("perturb", help="Morin points of a perturbation")
    common(pp)
    pp.add_argument("--family", required=True, choices=["A", "B", "C",
                                                        "a", "b", "c"])
    pp.add_argument("--n", type=int, required=True, choices=[2, 3, 4, 5])
    pp.add_argument("--l", type=int,
                    help="family A degree (2 <= l <= %d)" % pt.MAX_L)
    pp.add_argument("--params", help="comma-separated rational parameters")
    pp.add_argument("--grid", help="sweep grid 'lo:hi:step[,lo:hi:step...]'")

    pts = sub.add_parser("tables", help="machine-readable golden tables")
    common(pts)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.precision is None:
        env = os.environ.get("GERMLAB_PRECISION")
        if env is None:
            args.precision = pt.DEFAULT_PRECISION_BITS
        else:
            try:
                args.precision = int(env)
            except ValueError:
                ap.error("GERMLAB_PRECISION must be an integer, got %r" % env)
    if not 20 <= args.precision <= 120:
        ap.error("--precision must be in [20, 120]")
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "perturb":
            return cmd_perturb(args)
        return cmd_tables(args)
    except ParseError as e:
        sys.stderr.write("parse error: %s\n" % e)
        return EXIT_PARSE_ERROR
    except InputError as e:
        sys.stderr.write("input error: %s\n" % e)
        return EXIT_PARSE_ERROR
    except UnrecognizedError as e:
        return _unrecognized(e, args.json)
    except (GermError, ValueError) as e:
        sys.stderr.write("error: %s\n" % e)
        return EXIT_UNRECOGNIZED


if __name__ == "__main__":
    sys.exit(main())
