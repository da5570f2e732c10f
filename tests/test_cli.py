"""CLI: dispatch, exit codes, deterministic JSON, tables."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from germlab.cli import (main, classify_any, UnrecognizedError, _parse_grid,
                         MAX_GRID_POINTS)
from germlab.germ import MapGerm, jet_degree
from germlab.germparse import parse_map, render_map
from germlab.lowdim import _plane_normal_form, _surface_normal_form
from germlab.morin import class_count, normal_form
from germlab import perturb as pt
from germlab.perturb import MAX_L
from germlab.polyring import Poly
from germlab.sigma20 import elli_normal_form, hyp_normal_form
from conftest import (add_high_terms, change_coordinates, corpus_30,
                      monic_chebyshev_params, random_gl_pos,
                      quadratic_change)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---- classify ----------------------------------------------------------

def test_classify_cusp(capsys):
    code, out, _ = run(capsys, "classify", "x1^3 + x1*x2 ; x2")
    assert code == 0
    assert "cusp eps1=+1 eps2=+1" in out


def test_classify_regular(capsys):
    code, out, _ = run(capsys, "classify", "x1 ; x2")
    assert code == 0
    assert "regular" in out


def test_classify_sigma20(capsys):
    text = "vars: x1,x2,x3,x4 | x1^2 + x2*x3 ; x2^2 + x1*x4 ; x3 ; x4"
    code, out, _ = run(capsys, "classify", text)
    assert code == 0
    assert "sigma20-hyp eps1=+1" in out


def test_classify_surface(capsys):
    code, out, _ = run(capsys, "classify", "x1^2 ; x1*x2 ; x2")
    assert code == 0
    assert "whitney-umbrella" in out


def test_classify_plane_lips(capsys):
    code, out, _ = run(capsys, "classify", "x1^3 + x1*x2^2 ; x2")
    assert code == 0
    assert "lips eps1=+1" in out


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "classify", "x1^2 + 1 ; x2")
    assert code == 2
    assert "parse error" in err


def test_unrecognized_exit_3(capsys):
    # corank 2 equidimensional in R^2: no classifier route
    code, _, _ = run(capsys, "classify", "x1^2 ; x2^2")
    assert code == 3


def test_degenerate_plane_exit_3(capsys):
    code, out, _ = run(capsys, "classify", "x1*x2^2 ; x2")
    assert code == 3


# ---- verify ------------------------------------------------------------

def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "fold", "x1^2 ; x2")
    assert code == 0
    assert "match: yes" in out


def test_verify_signed_pass(capsys):
    text = "x1*x2 - x1^2*x3 - x1^3*x4 - x1^5 ; -x2 ; x3 ; x4"
    code, out, _ = run(capsys, "verify", "--claim",
                       "butterfly eps1=-1 eps2=-1", text)
    assert code == 0, out


def test_verify_mismatch_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "fold",
                       "x1^3 + x1*x2 ; x2")
    assert code == 1
    assert "match: no" in out
    assert "invariant diff" in out


# ---- json determinism --------------------------------------------------

def test_json_byte_identical(capsys):
    _, a, _ = run(capsys, "classify", "--json", "x1^3 + x1*x2 ; x2")
    _, b, _ = run(capsys, "classify", "--json", "x1^3 + x1*x2 ; x2")
    assert a == b
    payload = json.loads(a)
    assert payload["label"]["family"] == "cusp"
    assert payload["route"] == "morin"


def test_perturb_json_deterministic(capsys):
    args = ("perturb", "--family", "C", "--n", "2",
            "--params", "1/4,2", "--json")
    _, a, _ = run(capsys, *args)
    _, b, _ = run(capsys, *args)
    assert a == b
    payload = json.loads(a)
    assert payload["count"] == 4


# ---- perturb / tables --------------------------------------------------

@pytest.mark.parametrize("as_json", [False, True])
def test_perturb_serializes_each_point_once(capsys, monkeypatch, as_json):
    """``perturb`` builds each point's dict once, for the JSON payload, and
    the human lines read it there; their text is as it was built from
    each point, for every reference spec of ``tables``."""
    import germlab.cli as cli
    original = pt.point_to_dict
    for family in ("A", "B", "C"):
        for n in (2, 3, 4, 5):
            spec = cli._REFERENCE_SPECS[family](n)
            argv = ["perturb", "--family", family, "--n", str(n),
                    "--params", ",".join(str(v) for v in spec.u)]
            if spec.l is not None:
                argv += ["--l", str(spec.l)]
            rep = pt.morin_points(spec)
            human = ["%r: %d Morin point(s), bound c(f)=%d, stable=%s" %
                     (spec, rep.count, rep.c_f_bound, rep.stable)]
            human += ["note: %s" % note for note in rep.notes]
            for p in rep.points:
                d = original(p)
                human.append("  t ~ %s  invariant=%s  table=%s  verified=%s"
                             % (d["t"]["approx"], d["invariant"],
                                d["table_invariant"], p.verified))
            calls = _count_calls(monkeypatch, original)
            code, out, _ = run(capsys, *argv + ["--json"] * as_json)
            monkeypatch.undo()
            assert code == 0
            assert len(calls) == rep.count > 0
            if as_json:
                assert json.loads(out) == pt.report_to_dict(rep)
            else:
                assert out == "".join(line + "\n" for line in human)


def test_perturb_single(capsys):
    code, out, _ = run(capsys, "perturb", "--family", "B", "--n", "3",
                       "--params", "-10")
    assert code == 0
    assert "2 Morin point(s)" in out


def test_perturb_sweep(capsys):
    code, out, _ = run(capsys, "perturb", "--family", "A", "--n", "2",
                       "--l", "2", "--grid=-2:2:1")
    assert code == 0
    assert "attained" in out


def test_perturb_header_prints_rational_parameters(capsys):
    code, out, _ = run(capsys, "perturb", "--family", "C", "--n", "4",
                       "--params", "1/4,2")
    assert code == 0
    assert out.startswith("UnfoldingSpec(C n=4 u=[1/4, 2]): ")


def test_perturb_grid_range_of_two_bounds_is_a_bad_value(capsys):
    code, out, err = run(capsys, "perturb", "--family", "B", "--n", "3",
                         "--grid", "0:1")
    assert (code, out) == (3, "")
    assert err == "error: grid range '0:1' is not of the form lo:hi:step\n"


@pytest.mark.parametrize("sign", ["x", "2", "0", "+2", "-1/1"])
def test_verify_claim_sign_other_than_one_is_a_bad_value(capsys, sign):
    code, out, err = run(capsys, "verify", "--claim", "cusp eps1=%s" % sign,
                         "x1^3 + x1*x2 ; x2")
    assert (code, out) == (3, "")
    assert err == "error: sign eps1 must be +1 or -1, got '%s'\n" % sign


def test_parse_grid_points():
    half = Fraction(1, 2)
    assert _parse_grid("-1:1:1/2", 1) == [(v,) for v in
                                          (-2 * half, -half, 0, half, 1)]
    assert _parse_grid("0:1:1,5:6:1", 2) == [(0, 5), (0, 6), (1, 5), (1, 6)]
    assert _parse_grid("0:1:1", 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert _parse_grid("1:0:1", 1) == []
    assert len(_parse_grid("1:100:1,1:100:1", 2)) == MAX_GRID_POINTS


def test_perturb_grid_over_cap_rejected_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "perturb", "--family", "B", "--n", "3",
                       "--grid=0:1:1/100000000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert "100000001 points" in err and "cap of 10000" in err
    code, _, err = run(capsys, "perturb", "--family", "C", "--n", "3",
                       "--grid=0:100:1")
    assert code == 3 and "10201 points" in err


def test_perturb_family_a_degree_over_cap_rejected_at_once(capsys):
    for extra in (["--params", "0"], ["--grid=-1:-1:1"]):
        start = time.perf_counter()
        code, _, err = run(capsys, "perturb", "--family", "A", "--n", "3",
                           "--l", "3000", *extra)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "l <= %d (the cap), got l = 3000" % MAX_L in err


def test_perturb_family_a_at_the_degree_cap_ends_quickly(capsys):
    pt.curve_criteria.cache_clear()
    start = time.perf_counter()
    code, out, _ = run(capsys, "perturb", "--family", "A", "--n", "3",
                       "--l", str(MAX_L), "--params",
                       monic_chebyshev_params(MAX_L), "--precision", "120",
                       "--json")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert json.loads(out)["count"] == MAX_L


def test_warm_perturb_request_builds_no_unfolding_and_no_determinant(
        capsys, monkeypatch):
    """With its (family, n) cached, a request whose roots are all
    irrational only puts its parameters into the cached criteria."""
    argv = ["perturb", "--json", "--family", "C", "--n", "4",
            "--params=-1,1/2"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert not any(p["t"].get("exact") for p in json.loads(out)["points"])
    unfoldings = _count_calls(monkeypatch, pt.build_unfolding)
    cofactors = _count_cofactor_calls(monkeypatch)
    assert run(capsys, *argv) == (code, out, "")
    assert unfoldings == [] and all(name != "det" for name, _ in cofactors)


@pytest.mark.parametrize("family,n,params", [
    ("B", "3", "-123456789012345678"),
    ("C", "4", "-98765432109876543/7,3"),
])
def test_perturb_huge_parameter_ends_quickly(capsys, family, n, params):
    start = time.perf_counter()
    code, out, _ = run(capsys, "perturb", "--json", "--family", family,
                       "--n", n, "--params=" + params)
    assert time.perf_counter() - start < 2
    assert code == 0
    points = json.loads(out)["points"]
    assert len(points) == 2 and all(p["verified"] for p in points)


def test_perturb_family_a_needs_l(capsys):
    code, _, err = run(capsys, "perturb", "--family", "A", "--n", "2",
                       "--params", "-1")
    assert code == 3


@pytest.mark.parametrize("values", [["--params", "1/0"],
                                    ["--grid=0:1:1/0"],
                                    ["--grid=1/0:1:1"]])
def test_perturb_zero_denominator_is_a_bad_value(capsys, values):
    code, out, err = run(capsys, "perturb", "--family", "B", "--n", "3",
                         *values)
    assert (code, out) == (3, "")
    assert err == "error: zero denominator in '1/0'\n"


def test_tables(capsys):
    code, out, _ = run(capsys, "tables", "--json")
    assert code == 0
    payload = json.loads(out)
    counts = {(r["k"], r["n"]): r["count"]
              for r in payload["class_counts_k_eq_n"]}
    assert counts == {(1, 1): 2, (2, 2): 2, (3, 3): 2, (4, 4): 4,
                      (5, 5): 2, (6, 6): 2}
    for r in payload["class_counts_k_lt_n"]:
        assert r["count"] == (2 if r["k"] % 2 == 0 else 1)
    rows = {(r["family"], r["n"]): r for r in payload["families"]}
    assert rows[("C", 5)]["inv_formula"] == "t*(-42*t^2 + 5*t + u1)"
    assert all(r["all_verified"] for r in payload["families"])
    assert rows[("B", 4)]["count"] == 2
    assert rows[("A", 3)]["count"] == 3


def test_precision_flag_validation(capsys):
    with pytest.raises(SystemExit):
        main(["classify", "--precision", "5", "x1^2 ; x2"])


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("x1^2 ; x2"))
    code, out, _ = run(capsys, "classify", "--input", "-")
    assert code == 0
    assert "fold" in out


def test_file_input(capsys, tmp_path):
    p = tmp_path / "germ.germ"
    p.write_text("vars: x1,x2 | x1^3 - x1*x2 ; x2")
    code, out, _ = run(capsys, "classify", "-i", str(p))
    assert code == 0
    assert "cusp" in out


@pytest.mark.parametrize("name", ["missing.germ", "."])
def test_unreadable_input_path_exit_2(capsys, tmp_path, name):
    """A missing path or a directory is one stderr line and exit 2."""
    path = str(tmp_path / name)
    code, out, err = run(capsys, "classify", "--json", "--input", path)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("input error: cannot read %r" % path)


def test_input_file_of_invalid_utf8_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.germ"
    p.write_bytes(b"x1^2 ; x2 \xff\xfe")
    code, out, err = run(capsys, "classify", "-i", str(p))
    assert (code, out) == (2, "")
    assert err == "parse error: input is not valid UTF-8 text " \
        "(line 1, column 1)\n"


def test_stdin_bytes_not_utf8_exit_2(capsys, monkeypatch):
    """Invalid bytes on stdin are refused the same way whatever the
    locale: stdin's byte buffer is read, not its decoded text."""
    import io
    stdin = io.TextIOWrapper(io.BytesIO(b"x1^2 ; \xc3x2"), encoding="latin-1")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "classify", "--input", "-")
    assert (code, out) == (2, "")
    assert err == "parse error: input is not valid UTF-8 text " \
        "(line 1, column 1)\n"


@pytest.mark.parametrize("text,rank", [("x1^2 ; x2^2 ; x1*x2", 0),
                                       ("x1 ; x2 ; 0", 2)])
def test_surface_germ_of_rank_other_than_one_prints_json(capsys, text, rank):
    """A germ (R^2,0) -> (R^3,0) with rank df(0) != 1 is unrecognized like
    any other: one JSON line on stdout, the same for classify and verify,
    exit 3."""
    error = "not corank one at 0 (rank %d)" % rank
    code, out, err = run(capsys, "classify", "--json", text)
    assert (code, err) == (3, "")
    assert json.loads(out) == {"error": error, "family": "unrecognized"}
    code, out, err = run(capsys, "verify", "--json", "--claim", "S1+", text)
    assert (code, err) == (3, "")
    assert json.loads(out) == {"error": error, "family": "unrecognized"}
    code, out, err = run(capsys, "classify", text)
    assert (code, out, err) == (3, "unrecognized: %s\n" % error, "")


def test_classify_any_dispatch_errors():
    # (R^3, 0) -> (R^2, 0): no classifier route
    with pytest.raises(UnrecognizedError):
        classify_any(parse_map("x1 ; x2*x3"))


# the seven ways classify refuses a germ, each with its reason
REFUSALS = [
    ("x1*x2^2 ; x2", "degenerate germ: no criterion matched"),
    ("x1^5 ; x2 ; x3", "degenerate germ: no criterion matched"),
    ("x1^2 ; x1^3 ; x2", "no surface criterion matched"),
    ("x1^2 ; x2^2 ; x1*x2", "not corank one at 0 (rank 0)"),
    ("x1^2 ; x2^2 ; x3", "corank 2 at the origin: out of scope"),
    ("vars: x1,x2,x3,x4 | x1^2 + x2*x3 ; x2^2 ; x3 ; x4",
     "the 4x4 determinant vanishes: not stable"),
    ("x1 ; x2*x3", "no classifier for a germ (R^3,0) -> (R^2,0)"),
]


@pytest.mark.parametrize("command", [["classify"],
                                     ["verify", "--claim", "cusp"]])
@pytest.mark.parametrize("text,error", REFUSALS)
def test_refused_germs_print_one_line_and_exit_3(capsys, text, error,
                                                 command):
    """A refusal is one line on stdout, JSON or human, the same for
    classify and verify, and exit 3."""
    assert run(capsys, *command, "--json", text) == (
        3, '{"error":"%s","family":"unrecognized"}\n' % error, "")
    assert run(capsys, *command, text) == (3, "unrecognized: %s\n" % error,
                                           "")


@pytest.mark.parametrize("f,family", [
    (parse_map("x1^2 ; x2^2"), "unrecognized"),
    (parse_map("x1^2 ; x2^2 ; x3"), "unrecognized"),
    (MapGerm([v ** 2 for v in (Poly.var(i, 4) for i in (1, 2, 3))] +
             [Poly.var(4, 4)]), "unrecognized"),
    (hyp_normal_form(1), "sigma20-hyp"),
    (elli_normal_form(1, -1), "sigma20-elli"),
], ids=["corank-2-n-2", "corank-2-n-3", "corank-3-n-4", "sigma20-hyp",
        "sigma20-elli"])
def test_corank_two_or_more_runs_no_corank_one_route(capsys, monkeypatch, f,
                                                     family):
    """classify_any reads the corank from the prepared form and calls
    neither Morin recognition nor the plane criteria on a square germ of
    corank two or more."""
    import germlab.lowdim as lowdim
    import germlab.morin as morin
    morin_calls = _count_calls(monkeypatch, morin.recognize_morin)
    plane_calls = _count_calls(monkeypatch, lowdim.classify_plane)
    code, out, _ = run(capsys, "classify", "--json", render_map(f))
    assert _classified_family(code, out) == family
    assert (morin_calls, plane_calls) == ([], [])


def test_no_route_returns_a_label_of_no_class(monkeypatch):
    """Every route returns the label of a class or raises: over the corpus
    and the refused germs, no route returns the family "unrecognized"."""
    import sys
    import germlab.lowdim as lowdim
    import germlab.morin as morin
    import germlab.sigma20 as sigma20
    families = []
    for original in (morin.recognize_morin, lowdim.classify_plane,
                     lowdim.classify_degenerate_plane, lowdim.classify_surface,
                     sigma20.classify_sigma20):
        def recorded(f, _original=original):
            label = _original(f)
            families.append(label.family)
            return label
        for name, mod in list(sys.modules.items()):
            if name.startswith("germlab") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, recorded)
    refused = 0
    for f in CORPUS + [parse_map(text) for text, _ in REFUSALS]:
        try:
            classify_any(f)
        except UnrecognizedError:
            refused += 1
    assert refused == len(REFUSALS)
    assert len(families) > len(CORPUS)
    assert "unrecognized" not in families


# ---- GERMLAB_PRECISION and the shared parser -----------------------------

def _record_precision(monkeypatch):
    """Replace cmd_classify by a stub that records args.precision."""
    import germlab.cli as cli
    seen = []

    def stub(args):
        seen.append(args.precision)
        return 0
    monkeypatch.setattr(cli, "cmd_classify", stub)
    return seen


def test_precision_env_read_on_every_call(monkeypatch):
    seen = _record_precision(monkeypatch)
    monkeypatch.delenv("GERMLAB_PRECISION", raising=False)
    assert main(["classify", "x1 ; x2"]) == 0
    monkeypatch.setenv("GERMLAB_PRECISION", "30")
    assert main(["classify", "x1 ; x2"]) == 0
    monkeypatch.setenv("GERMLAB_PRECISION", "90")
    assert main(["classify", "x1 ; x2"]) == 0
    assert main(["classify", "--precision", "50", "x1 ; x2"]) == 0
    assert seen == [40, 30, 90, 50]


@pytest.mark.parametrize("value,message", [
    ("abc", "GERMLAB_PRECISION must be an integer, got 'abc'"),
    ("", "GERMLAB_PRECISION must be an integer, got ''"),
    ("500", "--precision must be in [20, 120]"),
    ("19", "--precision must be in [20, 120]"),
])
def test_bad_precision_env_is_a_usage_error(capsys, monkeypatch, value,
                                            message):
    monkeypatch.setenv("GERMLAB_PRECISION", value)
    with pytest.raises(SystemExit) as info:
        main(["tables"])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_help_text_does_not_depend_on_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for env in (None, "90", "abc"):
        if env is None:
            monkeypatch.delenv("GERMLAB_PRECISION", raising=False)
        else:
            monkeypatch.setenv("GERMLAB_PRECISION", env)
        with pytest.raises(SystemExit) as info:
            main(["classify", "--help"])
        assert info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == texts[2]
    assert texts[0].startswith(
        "usage: germlab classify [-h] [--json] [--precision PRECISION]")
    assert "root isolation precision exponent (bits, 20-120)\n" in texts[0]
    assert "None" not in texts[0]


# ---- no cofactor layer on any classify request --------------------------

def _count_calls(monkeypatch, original):
    """Wrap ``original`` in every germlab module that holds it; return the
    list of the first arguments it is called with."""
    import sys
    calls = []

    def counted(first, *args):
        calls.append(first)
        return original(first, *args)
    for name, mod in list(sys.modules.items()):
        if name.startswith("germlab") and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _classified_family(code, out):
    """The family of a ``classify --json`` line: the label's, or
    "unrecognized" with exit 3."""
    payload = json.loads(out)
    assert code == (3 if "error" in payload else 0)
    return payload["label"]["family"] if code == 0 else payload["family"]


@pytest.mark.parametrize("text,family", [
    ("x1^3 + x1*x2^2 ; x2", "lips"),
    ("x1^3 - x1*x2^2 ; x2", "beaks"),
    ("x1*x2 + x1^4 ; x2", "planar-swallowtail"),
    ("x1*x2 - x1^2*x3 - x1^3*x4 - x1^5 ; -x2 ; x3 ; x4", "butterfly"),
    ("vars: x1,x2,x3,x4 | x1^2 + x2*x3 ; x2^2 + x1*x4 ; x3 ; x4",
     "sigma20-hyp"),
    ("x1^2 - x2^2 + x1*x3 + x2*x4 ; x1*x2 + x1*x4 - x2*x3 ; x3 ; x4",
     "sigma20-elli"),
    ("x1^2 ; x1^3 + x1*x2^2 ; x2", "S1+"),
    ("x1^2 ; x1*x2 ; x2", "whitney-umbrella"),
    ("x1^2 ; x2^2 ; x3^2 ; x4", "unrecognized"),
])
def test_classify_analyzes_the_germ_once(capsys, monkeypatch, text, family):
    """No germ is analyzed or gets an eta-chain.  Every route reads the
    prepared form, built once: when Morin recognition rejects a planar
    swallowtail or a corank-two germ, the plane and corank-two criteria
    read the form it left on the germ, and so does the out-of-scope
    message of a corank-three germ."""
    import germlab.germ as germ
    import germlab.morin as morin
    calls = _count_calls(monkeypatch, germ.analyze)
    chains = _count_calls(monkeypatch, morin.eta_lambda_chain)
    prepared = _count_calls(monkeypatch, germ._prepare)
    code, out, _ = run(capsys, "classify", "--json", text)
    assert _classified_family(code, out) == family
    assert len(calls) == 0
    assert len(chains) == 0
    assert len(prepared) == 1


ROUTE_GERMS = [
    (normal_form(2, 2), "cusp"),
    (_plane_normal_form("lips", 1), "lips"),
    (_plane_normal_form("beaks", -1), "beaks"),
    (_plane_normal_form("planar-swallowtail", 1), "planar-swallowtail"),
    (_surface_normal_form("S1+", 1), "S1+"),
    (_surface_normal_form("whitney-umbrella"), "whitney-umbrella"),
    (hyp_normal_form(1), "sigma20-hyp"),
    (elli_normal_form(1, -1), "sigma20-elli"),
    (MapGerm([v ** 2 for v in (Poly.var(i, 4) for i in (1, 2, 3))] +
             [Poly.var(4, 4)]), "unrecognized"),
]


@pytest.mark.parametrize("f,family", ROUTE_GERMS,
                         ids=[family for _, family in ROUTE_GERMS])
def test_classify_eliminates_df0_once(capsys, monkeypatch, f, family):
    """Each classify request eliminates J(0) once, and its transpose at
    most once, whichever route reads them.  The germs are sheared by
    integer changes, so J(0) is their linear part, and so that it differs
    from its transpose."""
    import germlab.polyring as polyring
    rng = random.Random(18)
    n, m = f.src_dim, f.tgt_dim
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    while True:
        g = change_coordinates(f, random_gl_pos(rng, n), random_gl_pos(rng, m))
        J0 = [[int(c.terms.get(e, 0)) for e in units] for c in g.components]
        transpose = [list(col) for col in zip(*J0)]
        if J0 != transpose:
            break
    seen = []
    original = polyring._bareiss

    def recorded(mat, width):
        seen.append([list(row) for row in mat])
        return original(mat, width)
    monkeypatch.setattr(polyring, "_bareiss", recorded)
    code, out, _ = run(capsys, "classify", "--json", render_map(g))
    assert _classified_family(code, out) == family
    assert seen.count(J0) == 1
    assert seen.count(transpose) <= 1


def _count_cofactor_calls(monkeypatch):
    """The (method, positional arguments) of each PolyMatrix.det and
    PolyMatrix.adjugate_column call, in order."""
    from germlab.polyring import PolyMatrix
    calls = []
    for name in ("adjugate_column", "det"):
        original = getattr(PolyMatrix, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, args))
            return _original(self, *args, **kwargs)
        monkeypatch.setattr(PolyMatrix, name, counted)
    return calls


@pytest.mark.parametrize("text,family", [
    ("x1^3 + x1*x2 ; x2", "cusp"),
    ("x1*x2 - x1^2*x3 - x1^3*x4 - x1^5 ; -x2 ; x3 ; x4", "butterfly"),
    ("x1^3 + x1*x2^2 ; x2", "lips"),
    ("vars: x1,x2,x3,x4 | x1^2 + x2*x3 ; x2^2 + x1*x4 ; x3 ; x4",
     "sigma20-hyp"),
    ("x1^2 ; x1^3 + x1*x2^2 ; x2", "S1+"),
])
def test_classify_expands_the_cofactors_once(capsys, monkeypatch, text,
                                             family):
    """No route expands a determinant of Polys: the surface route reads its
    3 x 3 determinant from integer jets, like the plane and corank-two
    routes, and Morin germs read the prepared form."""
    calls = _count_cofactor_calls(monkeypatch)
    code, out, _ = run(capsys, "classify", "--json", text)
    assert code == 0
    assert json.loads(out)["label"]["family"] == family
    assert calls == []


@pytest.mark.parametrize("command", [["classify"], ["classify", "--json"],
                                     ["verify", "--claim", "cusp"],
                                     ["verify", "--json", "--claim", "cusp"]])
def test_normal_form_is_rendered_once_per_request(capsys, monkeypatch,
                                                  command):
    """The human lines of classify reuse the JSON label's text of the
    normal form; those of verify do not show it, so render none.  The
    text is kept, so a repeat request renders nothing."""
    import germlab.cli as cli
    calls = []

    def counted(f, names=None):
        calls.append(f)
        return render_map(f, names)
    cli._rendered.cache_clear()
    monkeypatch.setattr(cli, "render_map", counted)
    first = run(capsys, *command, "x1^3 + x1*x2 ; x2")
    code, out, _ = first
    assert code == 0
    assert len(calls) == (0 if command == ["verify", "--claim", "cusp"]
                          else 1)
    if "--json" not in command and command[0] == "classify":
        assert "normal form: %s" % render_map(calls[0]) in out
    rendered = len(calls)
    assert run(capsys, *command, "x1^3 + x1*x2 ; x2") == first
    assert len(calls) == rendered


@pytest.mark.parametrize("n", [3, 5])
def test_classify_expands_no_cofactors_outside_n_2_and_4(capsys, monkeypatch,
                                                         n):
    """Corank-one germs with n not in {2, 4}, Morin or not, regular germs
    and corank-two germs all end without a cofactor expansion."""
    calls = _count_cofactor_calls(monkeypatch)
    xs = ["x%d" % i for i in range(1, n + 1)]
    cases = [
        (" ; ".join(["x1^3 + x1*x2"] + xs[1:]), 0),                  # cusp
        (" ; ".join(["x1^2*x2 + x1^%d" % (n + 3)] + xs[1:]), 3),    # degenerate
        (" ; ".join(["x1 + x2^2"] + xs[1:]), 0),                     # regular
        (" ; ".join(["x1^2", "x2^2"] + xs[2:]), 3),                  # corank 2
    ]
    for text, code in cases:
        assert run(capsys, "classify", text)[0] == code, text
    assert calls == []


# ---- A-isotopy oracles: reflection orbits, nonlinear invariance ---------

def _reflections(n):
    """id, x1 -> -x1 and xn -> -xn as n x n diagonal matrices."""
    out = []
    for flip in (None, 0, n - 1):
        out.append([[Fraction(-1 if i == j == flip else int(i == j))
                     for j in range(n)] for i in range(n)])
    return out


def _reflection_orbit(f):
    """The labels of f under every source x target reflection pair."""
    return {classify_any(change_coordinates(f, A, B))[0]
            for A in _reflections(f.src_dim)
            for B in _reflections(f.tgt_dim)}


@pytest.mark.parametrize("n", range(1, 9))
def test_reflection_orbits_of_morin_forms_are_the_class_counts(n):
    """An A-equivalence class splits into class_count(k, n) A-isotopy
    classes, and the reflections reach all of them."""
    for k in range(1, n + 1):
        assert len(_reflection_orbit(normal_form(k, n))) == class_count(k, n)


@pytest.mark.parametrize("f,size", [
    (_plane_normal_form("lips", 1), 2),
    (_plane_normal_form("beaks", 1), 2),
    (_plane_normal_form("planar-swallowtail", 1), 2),
    (_surface_normal_form("whitney-umbrella"), 1),
    (_surface_normal_form("S1+"), 2),
    (_surface_normal_form("S1-"), 2),
    (hyp_normal_form(1), 2),
    (elli_normal_form(1, 1), 4),
], ids=["lips", "beaks", "planar-swallowtail", "whitney-umbrella", "S1+",
        "S1-", "sigma20-hyp", "sigma20-elli"])
def test_reflection_orbits_of_the_other_families(f, size):
    assert len(_reflection_orbit(f)) == size


CORPUS = corpus_30()


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_classify_reaches_no_cofactor_layer(capsys, monkeypatch, index):
    """No corpus germ reaches analyze, null_field, dir_deriv, a Poly
    determinant, an adjugate column or a VecField: every route reads
    integer coefficients of f."""
    import germlab.germ as germ
    import germlab.polyring as polyring
    calls = [_count_calls(monkeypatch, germ.analyze),
             _count_calls(monkeypatch, germ.null_field),
             _count_calls(monkeypatch, polyring.dir_deriv)]
    cofactors = _count_cofactor_calls(monkeypatch)
    fields = []
    original = germ.VecField.__init__

    def counted(self, components):
        fields.append(self)
        original(self, components)
    monkeypatch.setattr(germ.VecField, "__init__", counted)
    assert run(capsys, "classify", "--json", render_map(CORPUS[index]))[0] == 0
    assert calls == [[], [], []]
    assert cofactors == []
    assert fields == []


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_label_invariant_under_nonlinear_changes(index):
    """psi o f o phi for quadratic orientation-preserving phi, psi, kept to
    degree D + 3 (every corpus germ is (D + 1)-determined), has f's label."""
    rng = random.Random(9100 + index)
    f = CORPUS[index]
    cap = jet_degree(f.src_dim) + 3
    expected = classify_any(f)
    for _ in range(3):
        assert classify_any(quadratic_change(rng, f, cap)) == expected


# ---- determinacy of the plane, surface and corank-two routes -------------

@pytest.mark.parametrize("f,degree", [
    (_plane_normal_form("lips", 1), 3),
    (_plane_normal_form("beaks", -1), 3),
    (_plane_normal_form("planar-swallowtail", 1), 4),
    (_surface_normal_form("whitney-umbrella"), 2),
    (_surface_normal_form("S1+", -1), 3),
    (_surface_normal_form("S1-", 1), 3),
    (hyp_normal_form(-1), 3),
    (elli_normal_form(1, -1), 3),
], ids=["lips", "beaks", "planar-swallowtail", "whitney-umbrella", "S1+",
        "S1-", "sigma20-hyp", "sigma20-elli"])
def test_terms_above_the_determinacy_degree_change_nothing(capsys, f, degree):
    """Each normal form is ``degree``-determined: terms of higher degree
    added to it after a change of coordinates leave the classify --json
    output unchanged."""
    rng = random.Random(degree * 31 + f.src_dim + f.tgt_dim)
    g = change_coordinates(f, random_gl_pos(rng, f.src_dim),
                           random_gl_pos(rng, f.tgt_dim))
    code, base, _ = run(capsys, "classify", "--json", render_map(g))
    assert code == 0
    for _ in range(3):
        h = add_high_terms(rng, g, degree + 1)
        assert run(capsys, "classify", "--json", render_map(h)) == \
            (0, base, "")


# ---- budgets of the classifier core (regular, cusp, dense Morin form) ----

def _timed_classify(capsys, text):
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--json", text)
    return code, out, err, time.perf_counter() - start


def _dense(f, seed):
    rng = random.Random(seed)
    n = f.src_dim
    return render_map(change_coordinates(f, random_gl_pos(rng, n),
                                         random_gl_pos(rng, n)))


def regular_germ_text(n, seed):
    """sum_j a_ij x_j + x_i^2 with a_ij from random.Random(seed) in [-3, 3]
    (the text the CI step builds for n = 14, seed 14)."""
    r = random.Random(seed)
    return " ; ".join(" + ".join(
        ["%d*x%d" % (r.randint(-3, 3), j + 1) for j in range(n)] +
        ["x%d^2" % (i + 1)]) for i in range(n))


def test_regular_germ_in_14_variables_is_quick(capsys):
    code, out, _, seconds = _timed_classify(capsys, regular_germ_text(14, 14))
    assert code == 0
    assert json.loads(out)["label"]["family"] == "regular"
    assert seconds < 0.5


def test_dense_cusp_in_12_variables_is_quick(capsys):
    text = _dense(normal_form(2, 12, -1, 1), 12)
    code, out, _, seconds = _timed_classify(capsys, text)
    assert code == 0
    assert json.loads(out)["label"]["describe"] == "cusp eps1=-1 eps2=+1"
    assert seconds < 5


def test_dense_morin_form_in_7_variables_is_quick(capsys):
    f = normal_form(7, 7, -1, 1)
    text = _dense(f, 7)
    code, out, _, seconds = _timed_classify(capsys, text)
    assert code == 0
    label = json.loads(out)["label"]
    assert (label["family"], label["k"]) == ("morin-7", 7)
    assert label["describe"] == classify_any(f)[0].describe()
    assert seconds < 5


LONG_TAIL = "x1^2*(x1 + x2 + x1*x2)^60"


@pytest.mark.parametrize("text,describe,route", [
    ("x1^2 ; x1^3 + x1*x2^2 + %s ; x2" % LONG_TAIL, "S1+ eps1=+1", "surface"),
    ("x1^3 + x1*x2^2 + %s ; x2" % LONG_TAIL, "lips eps1=+1", "plane"),
])
def test_germs_with_a_long_high_degree_tail_are_quick(capsys, text, describe,
                                                      route):
    """A component of 1893 terms, all but two of degree 62 or more: the
    integer-jet determinants differentiate and pair only the terms of
    degree at most 3, never products of the long entries."""
    code, out, _, seconds = _timed_classify(capsys, text)
    assert code == 0
    payload = json.loads(out)
    assert (payload["label"]["describe"], payload["route"]) == (describe,
                                                                route)
    assert seconds < 1


def test_corank_8_in_14_variables_is_refused_without_cofactors(
        capsys, monkeypatch):
    from germlab.polyring import PolyMatrix
    calls = []
    original = PolyMatrix.adjugate_column

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(PolyMatrix, "adjugate_column", counted)
    n = 14
    x = [Poly.var(i, n) for i in range(1, n + 1)]
    f = MapGerm([v ** 2 for v in x[:8]] + x[8:])
    code, out, _, seconds = _timed_classify(capsys, _dense(f, 8))
    assert code == 3
    assert "corank 8 at the origin" in out
    assert calls == []
    assert seconds < 5


# ---- no runtime dependencies -----------------------------------------------

BARE_RUN = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
from germlab.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["classify", "--json", "x1^3 + x1*x2 ; x2"],
                 ["perturb", "--family", "B", "--n", "3", "--params", "-10"],
                 ["tables", "--json"]):
        codes.append(main(argv))
tops = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({"codes": codes, "foreign": sorted(
    tops - {"germlab"} - set(sys.stdlib_module_names))}))
"""


def test_cli_runs_on_the_bare_standard_library():
    """Without site-packages (-S) or the environment (-I), the CLI imports
    nothing outside germlab and the standard library."""
    import germlab
    src = os.path.dirname(os.path.dirname(os.path.abspath(germlab.__file__)))
    done = subprocess.run([sys.executable, "-I", "-S", "-c", BARE_RUN, src],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0, 0, 0], "foreign": []}
