"""CLI: dispatch, exit codes, deterministic JSON, tables."""

import json
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from germlab.cli import (main, build_parser, classify_any, UnrecognizedError,
                         _parse_grid, MAX_GRID_POINTS)
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


def test_perturb_family_is_read_in_either_case(capsys):
    """--family c prints the bytes of --family C, and the help lists the
    three families once each."""
    args = ("--n", "4", "--params=-1,1/2", "--json")
    _, lower, _ = run(capsys, "perturb", "--family", "c", *args)
    _, upper, _ = run(capsys, "perturb", "--family", "C", *args)
    assert lower == upper
    assert "{A,B,C}" in build_parser()[1]["perturb"].format_help()


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


@pytest.mark.parametrize("argv,code,err", [
    (("classify",), 2, "parse error: no germ given (use --input or an "
     "inline argument) (line 1, column 1)"),
    (("verify", "--claim", "", "x1^3 + x1*x2 ; x2"), 3,
     "error: empty claimed label"),
    (("verify", "--claim", "cusp eps1", "x1^3 + x1*x2 ; x2"), 3,
     "error: bad sign clause 'eps1'"),
    (("verify", "--claim", "cusp eps3=1", "x1^3 + x1*x2 ; x2"), 3,
     "error: unknown sign name 'eps3'"),
    (("perturb", "--family", "B", "--n", "3", "--grid", "0:1:0"), 3,
     "error: grid step must be positive"),
    (("perturb", "--family", "B", "--n", "3", "--grid", "0:1:-1/2"), 3,
     "error: grid step must be positive"),
    (("perturb", "--family", "B", "--n", "2", "--l", "5", "--params", "-1"),
     3, "error: family B takes no l, got l = 5"),
    (("perturb", "--family", "C", "--n", "4", "--l", "7", "--grid=0:1:1"),
     3, "error: family C takes no l, got l = 7"),
    (("perturb", "--family", "B", "--n", "3", "--l", "2", "--grid", "1:0:1"),
     3, "error: family B takes no l, got l = 2"),
], ids=["no-germ", "empty-claim", "bad-sign-clause", "unknown-sign-name",
        "grid-step-zero", "grid-step-negative", "l-for-B", "l-for-C-grid",
        "l-for-B-empty-grid"])
def test_a_refused_request_is_one_error_line(capsys, argv, code, err):
    """Each refusal ends before any work with its exit code and one
    stderr line; an l given for family B or C is refused, not dropped."""
    assert run(capsys, *argv) == (code, "", err + "\n")


@pytest.mark.parametrize("sign", ["x", "2", "0", "+2", "-1/1"])
def test_verify_claim_sign_other_than_one_is_a_bad_value(capsys, sign):
    code, out, err = run(capsys, "verify", "--claim", "cusp eps1=%s" % sign,
                         "x1^3 + x1*x2 ; x2")
    assert (code, out) == (3, "")
    assert err == "error: sign eps1 must be +1 or -1, got '%s'\n" % sign


@pytest.mark.parametrize("text", ["x1*x2^2 ; x2", "x1^3 + x1*x2 ; x2"],
                         ids=["refused", "cusp"])
def test_verify_reads_the_claim_before_classifying(capsys, monkeypatch,
                                                   text):
    """A malformed claim is the one error, for a germ that would be
    refused and for one that classifies, and no germ is classified."""
    import germlab.cli as cli
    classified = []
    monkeypatch.setattr(cli, "classify_any", classified.append)
    code, out, err = run(capsys, "verify", "--claim", "cusp eps1=x", text)
    assert (code, out, classified) == (3, "", [])
    assert err == "error: sign eps1 must be +1 or -1, got 'x'\n"


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
    # a count of 5001 digits is named by its size, not printed
    start = time.perf_counter()
    code, out, err = run(capsys, "perturb", "--family", "B", "--n", "3",
                         "--grid=0:10^5000:1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == "error: grid has over 2^16609 points, more than the cap " \
        "of 10000\n"


def test_perturb_grid_with_more_ranges_than_parameters_refused(capsys):
    """A range past the family's parameter count is refused, like a
    range of two bounds (``test_parse_grid_points`` has fewer ranges)."""
    for grid in ("0:1:1/2,0:1:1/2,0:1:1/2", "0:1:1/2,0:1"):
        code, out, err = run(capsys, "perturb", "--family", "A", "--n", "2",
                             "--l", "3", "--grid=" + grid)
        assert (code, out) == (3, ""), grid
        assert err.count("\n") == 1 and err.startswith("error: grid "), grid
    assert "3 ranges for 2 parameter(s)" in run(
        capsys, "perturb", "--family", "A", "--n", "2", "--l", "3",
        "--grid=0:1:1/2,0:1:1/2,0:1:1/2")[2]


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


def test_perturb_parameters_past_the_bit_limit_refused_at_once(capsys):
    """Parameters of more than MAX_PARAM_BITS bits in all end at once with
    one error line (exit 3), whether by --params or --grid; a 4000-digit
    P once computed for seconds and then failed to print its result."""
    p4000 = "7" * 4000
    just_past = str(2 ** pt.MAX_PARAM_BITS)     # MAX_PARAM_BITS + 1 bits
    for argv in (["--family", "A", "--n", "2", "--l", "3",
                  "--params=%s,-%s" % (p4000, p4000)],
                 ["--family", "B", "--n", "3", "--params=-" + just_past],
                 ["--family", "C", "--n", "4",
                  "--params=1/%s,1" % just_past],
                 ["--family", "B", "--n", "2", "--grid=-%s:0:%s"
                  % (just_past, just_past)]):
        start = time.perf_counter()
        code, out, err = run(capsys, "perturb", "--json", *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 3 and out == "", argv
        assert err.count("\n") == 1 and err.startswith("error: parameters "
                                                         "of "), argv
        assert "over the limit of %d" % pt.MAX_PARAM_BITS in err


def test_perturb_parameters_at_the_bit_limit_complete(capsys):
    """At the limit a request ends with its count, every point verified."""
    at_bound = 2 ** pt.MAX_PARAM_BITS - 1
    for argv in (["--family", "B", "--n", "5", "--params=-%d" % at_bound],
                 ["--family", "A", "--n", "4", "--l", str(MAX_L),
                  "--params=-1/%d" % at_bound + ",0" * (MAX_L - 2)]):
        code, out, _ = run(capsys, "perturb", "--json", *argv)
        assert code == 0
        d = json.loads(out)
        assert d["count"] == 2 and all(p["verified"] for p in d["points"])


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


def test_warm_perturb_request_builds_one_chain_and_no_poly_product(
        capsys, monkeypatch):
    """Warm, a request with irrational roots builds one remainder sequence,
    its constraint's Sturm chain: every sign is certified without a
    Tarski query.  A request with three exact points builds its unfolding
    and re-centers it at each without one Poly product."""
    chains = ["perturb", "--json", "--family", "C", "--n", "4",
              "--params=-1,1/2"]
    exact = ["perturb", "--json", "--family", "A", "--n", "5", "--l", "3",
             "--params", "0,-1"]
    outs = [run(capsys, *argv) for argv in (chains, exact)]
    points = json.loads(outs[1][1])["points"]
    assert len(points) == 3 and all(p["t"].get("exact") for p in points)
    sequences = _count_calls(monkeypatch, pt.tarski_sequence)
    assert run(capsys, *chains) == outs[0] and len(sequences) == 1
    products = []
    for name in ("__mul__", "__rmul__"):
        original = getattr(Poly, name)

        def counted(a, b, _original=original):
            products.append(b)
            return _original(a, b)
        monkeypatch.setattr(Poly, name, counted)
    assert run(capsys, *exact) == outs[1] and products == []


def test_warm_perturb_request_refines_each_root_once(capsys, monkeypatch):
    """Warm, a request whose roots are all irrational refines each
    isolating interval once: one call of the cell refiner, and one of the
    doubles' proposal, per interval, where the rational test and the
    report's width each took one."""
    argv = ["perturb", "--json", "--family", "C", "--n", "4",
            "--params=-1,1/2"]
    warm = run(capsys, *argv)
    points = json.loads(warm[1])["points"]
    assert points and not any(p["t"].get("exact") for p in points)
    refined = _count_calls(monkeypatch, pt.refine_root)
    proposed = _count_calls(monkeypatch, pt._float_cell)
    assert run(capsys, *argv) == warm
    assert len(refined) == len(proposed) == len(points)


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


@pytest.mark.parametrize("values", [
    ["--params", "1e10000000"], ["--params", "1.5"],
    ["--params", "7" * 5000], ["--grid=-2:2:1e-10000000"]],
    ids=["exponent", "decimal", "5000-digits", "grid-exponent"])
def test_perturb_number_outside_the_germ_format_refused_at_once(capsys,
                                                                values):
    """--params and --grid read numbers as germ text does: a decimal, an
    exponent or a literal past the digit limit is one error line."""
    start = time.perf_counter()
    code, out, err = run(capsys, "perturb", "--family", "B", "--n", "3",
                         *values)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and err.startswith("error: ")


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
    """``perturb --precision`` outside [20, 120], or not an integer, is a
    usage error of the perturb parser: exit 2, one line naming the flag
    and its range."""
    for value in ("19", "121", "abc", "5", "", "7" * 5000):
        with pytest.raises(SystemExit) as info:
            main(["perturb", "--precision", value, "--family", "B", "--n",
                  "3", "--params=-1"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        named = [line for line in err.splitlines() if "[20, 120]" in line]
        assert named == ["germlab perturb: error: argument --precision: "
                         "must be an integer in [20, 120], got %r" % value]
        assert err.endswith(named[0] + "\n")


@pytest.mark.parametrize("argv", [
    ["classify", "x1^2 ; x2"],
    ["verify", "--claim", "fold", "x1^2 ; x2"],
    ["tables"],
])
def test_only_perturb_takes_precision(capsys, argv):
    """``--precision`` sets the width of perturb's intervals, and only
    perturb has it: any other command's own parser refuses it."""
    with pytest.raises(SystemExit) as info:
        main(argv[:1] + ["--precision", "40"] + argv[1:])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "germlab %s: error: unrecognized arguments: --precision" % argv[0])


def test_perturb_params_and_grid_are_exclusive(capsys):
    """One perturb request is a parameter tuple or a grid, never both."""
    with pytest.raises(SystemExit) as info:
        main(["perturb", "--family", "B", "--n", "3", "--params=-1",
              "--grid=-1:1:1"])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "germlab perturb: error: argument --grid: not allowed with "
        "argument --params")


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


@pytest.fixture
def digit_limit():
    """The interpreter's default limit on the digits int() reads from text
    (Python 3.10.7 and later), whatever the environment set."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


LONG = "7" * 5000


@pytest.mark.parametrize("text,what,line,column", [
    (LONG + "*x1^2 ; x2", "number", 1, 1),             # a coefficient
    ("1/" + LONG + "*x1^2 ; x2", "number", 1, 3),      # a denominator
    ("x1^" + LONG + " ; x2", "number", 1, 4),          # an exponent
    ("x1^2 ;\n  x2 " + LONG, "number", 2, 6),          # quoted in a message
    ("x" + LONG + " ; x1", "variable index", 1, 1),    # the dimension
])
def test_over_long_literal_is_a_parse_error(capsys, digit_limit, text, what,
                                            line, column):
    """A literal too long for int() is one parse error line at its token,
    exit 2, not the interpreter's ValueError."""
    code, out, err = run(capsys, "classify", text)
    assert (code, out) == (2, "")
    assert err == "parse error: %s too long: 5000 digits, over the limit of " \
        "%d (line %d, column %d)\n" % (what, digit_limit, line, column)


def test_literal_at_the_digit_limit_classifies(capsys, digit_limit):
    code, out, _ = run(capsys, "classify", "7" * digit_limit + "*x1^2 ; x2")
    assert code == 0
    assert "class: fold" in out
    # a blank text longer than the limit has no token to measure
    code, _, err = run(capsys, "classify", " " * (digit_limit + 1))
    assert code == 2
    assert err.startswith("parse error: expected a number")


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


# ---- the environment and the shared parser ------------------------------

def test_perturb_ignores_the_precision_environment(capsys, monkeypatch):
    """Precision is read from argv alone: a ``GERMLAB_PRECISION`` in the
    environment leaves perturb's bytes as they are without it."""
    argv = ["perturb", "--json", "--family", "C", "--n", "4",
            "--params=-1,1/2"]
    monkeypatch.delenv("GERMLAB_PRECISION", raising=False)
    assert main(argv) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("GERMLAB_PRECISION", "20")
    assert main(argv) == 0
    assert capsys.readouterr().out == unset
    assert main(argv + ["--precision", "20"]) == 0
    assert capsys.readouterr().out != unset


def test_help_text_does_not_depend_on_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = {}
    for command in ("classify", "perturb"):
        for env in (None, "90", "abc"):
            if env is None:
                monkeypatch.delenv("GERMLAB_PRECISION", raising=False)
            else:
                monkeypatch.setenv("GERMLAB_PRECISION", env)
            with pytest.raises(SystemExit) as info:
                main([command, "--help"])
            assert info.value.code == 0
            texts.setdefault(command, set()).add(capsys.readouterr().out)
    (classify,), (perturb,) = texts["classify"], texts["perturb"]
    assert classify.startswith(
        "usage: germlab classify [-h] [--json] [--input INPUT] [germ]")
    assert "--precision" not in classify
    words = " ".join(perturb.split())
    assert words.startswith("usage: germlab perturb [-h] [--json] --family")
    assert "[--precision PRECISION] [--params PARAMS | --grid GRID]" in words
    assert "(bits, 20-120, default 40)" in words
    assert "None" not in classify + perturb



@pytest.mark.parametrize("argv", [
    ["classify", "x1^3 + x1*x2 ; x2"],
    ["classify", "--json", "x1^3 + x1*x2 ; x2"],
    ["perturb", "--json", "--family", "C", "--n", "4", "--params=-1,1/2"],
    ["perturb", "--family", "A", "--n", "3", "--l", "3", "--params", "0,-1"],
])
def test_argv_is_parsed_once(capsys, monkeypatch, argv):
    """A request's argv is parsed by its command's parser alone: one
    ``parse_known_args`` call, where the top-level parser would hand the
    rest to the subparser for a second."""
    import argparse
    calls = []
    original = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return original(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run(capsys, *argv)[0] == 0
    assert calls == ["germlab %s" % argv[0]]


@pytest.mark.parametrize("argv,message", [
    (["classify", "--bogus", "x1^2 ; x2"],
     "germlab classify: error: unrecognized arguments: --bogus"),
    (["perturb", "--family", "B", "--n", "3", "--params=-1", "extra"],
     "germlab perturb: error: unrecognized arguments: extra"),
    ([], "germlab: error: the following arguments are required: command"),
    (["bogus"], "germlab: error: argument command: invalid choice: 'bogus'"),
])
def test_usage_errors_exit_2_naming_the_parser(capsys, argv, message):
    """An extra argument is refused by the command's own parser, a missing
    or unknown command by the top-level one: exit 2, the message last."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[-1].startswith(message)


def _readme_cli_examples():
    """The ``germlab ...`` lines of the first sh block of README's CLI
    section, backslash continuations joined, each as its argv."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as handle:
        section = handle.read().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("germlab ")]


def test_every_readme_cli_example_exits_0(capsys):
    """Each command line README shows under "CLI" runs through
    ``cli.main`` with exit code 0."""
    examples = _readme_cli_examples()
    assert len(examples) == 8
    for argv in examples:
        assert main(argv) == 0, argv
        capsys.readouterr()


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


def _reference_layer_calls(monkeypatch):
    """The calls of analyze, null_field, dir_deriv, and of PolyMatrix.det
    and adjugate_column, one list each, as they come."""
    import germlab.germ as germ
    import germlab.polyring as polyring
    return [_count_calls(monkeypatch, germ.analyze),
            _count_calls(monkeypatch, germ.null_field),
            _count_calls(monkeypatch, polyring.dir_deriv),
            _count_cofactor_calls(monkeypatch)]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_classify_reaches_no_cofactor_layer(capsys, monkeypatch, index):
    """No corpus germ reaches analyze, null_field, dir_deriv, a Poly
    determinant or an adjugate column: every route reads integer
    coefficients of f."""
    calls = _reference_layer_calls(monkeypatch)
    assert run(capsys, "classify", "--json", render_map(CORPUS[index]))[0] == 0
    assert calls == [[], [], [], []]


@pytest.mark.parametrize("argv", [
    ("verify", "--claim", "cusp eps1=1 eps2=1", "x1^3 + x1*x2 ; x2"),
    ("perturb", "--json", "--family", "A", "--n", "5", "--l", "3",
     "--params", "0,-1"),
    ("perturb", "--json", "--family", "C", "--n", "4", "--grid=-1:1:1,1:2:1"),
    ("tables", "--json"),
], ids=["verify", "perturb-exact", "perturb-grid", "tables"])
def test_commands_reach_no_cofactor_layer(capsys, monkeypatch, argv):
    """No other command reaches the reference layer either: a cold
    perturbation key reads its criteria from printed rows, and the exact
    points (t = -1, 0, 1 here) are checked by the integer classify
    route."""
    pt.curve_criteria.cache_clear()
    calls = _reference_layer_calls(monkeypatch)
    assert run(capsys, *argv)[0] == 0
    assert calls == [[], [], [], []]


def test_every_name_the_traced_benchmark_patches_resolves():
    """The benchmark's tracer (bench/tracing.py) looks up the names it
    patches with a bare getattr: each must still resolve, and after
    enable() and disable() every patched attribute is the original
    object again."""
    import importlib.util
    path = os.path.join(os.path.dirname(__file__), "..", "bench",
                        "tracing.py")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.prepare()
    patches = tracer._patches
    assert len(patches) >= len(tracing.FUNCTIONS) + len(tracing.METHODS) + 2
    tracer.enable()
    tracer.disable()
    for owner, attr, original, _ in patches:
        assert vars(owner)[attr] is original, (owner, attr)


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


def sheared_cusp_text(n):
    """The cusp (x1^3 + x1*x2, x2, ..., xn), n even, under the cyclic shear
    y_i = x_i + x_(i+1), y_n = x_n - x_1 of the source and the same shear
    of the target, each of determinant 2 (the text the CI step builds for
    n = 100)."""
    y = ["(x%d + x%d)" % (i, i + 1) for i in range(1, n)] + ["(x%d - x1)" % n]
    g = ["%s^3 + %s*%s" % (y[0], y[0], y[1])] + y[1:]
    return " ; ".join(["%s + %s" % (g[i], g[i + 1]) for i in range(n - 1)] +
                      ["%s - (%s)" % (g[n - 1], g[0])])


def test_sheared_cusp_in_100_variables_is_quick(capsys):
    """A cusp is read to degree k + 1 = 3 whatever n is, and its
    transverse row to degree k - 1 = 1."""
    code, out, _, seconds = _timed_classify(capsys, sheared_cusp_text(100))
    assert code == 0
    assert json.loads(out)["label"]["describe"] == "cusp eps1=+1 eps2=+1"
    assert seconds < 2


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


def test_cold_cli_loads_no_dataclasses():
    """Importing ``dataclasses`` would add 8-14 ms to a cold start of the
    CLI, so the value types freeze themselves through ``_Frozen``."""
    import germlab
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(germlab.__file__))))
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c",
         "import sys; sys.path.insert(0, 'src'); import germlab.cli; "
         "sys.exit('dataclasses' in sys.modules)"],
        cwd=root, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
