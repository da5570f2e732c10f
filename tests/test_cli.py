"""CLI: dispatch, exit codes, deterministic JSON, tables."""

import json
import time
from fractions import Fraction

import pytest

from germlab.cli import (main, classify_any, UnrecognizedError, _parse_grid,
                         MAX_GRID_POINTS)
from germlab.germparse import parse_map


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


def test_classify_any_dispatch_errors():
    # (R^3, 0) -> (R^2, 0): no classifier route
    with pytest.raises(UnrecognizedError):
        classify_any(parse_map("x1 ; x2*x3"))


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


# ---- one analyze per germ ------------------------------------------------

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


@pytest.mark.parametrize("text,family", [
    ("x1^3 + x1*x2^2 ; x2", "lips"),
    ("x1^3 - x1*x2^2 ; x2", "beaks"),
    ("x1*x2 + x1^4 ; x2", "planar-swallowtail"),
    ("x1*x2 - x1^2*x3 - x1^3*x4 - x1^5 ; -x2 ; x3 ; x4", "butterfly"),
    ("vars: x1,x2,x3,x4 | x1^2 + x2*x3 ; x2^2 + x1*x4 ; x3 ; x4",
     "sigma20-hyp"),
    ("x1^2 - x2^2 + x1*x3 + x2*x4 ; x1*x2 + x1*x4 - x2*x3 ; x3 ; x4",
     "sigma20-elli"),
])
def test_classify_analyzes_the_germ_once(capsys, monkeypatch, text, family):
    import germlab.germ as germ
    import germlab.morin as morin
    calls = _count_calls(monkeypatch, germ.analyze)
    chains = _count_calls(monkeypatch, morin.eta_lambda_chain)
    code, out, _ = run(capsys, "classify", "--json", text)
    assert code == 0
    assert json.loads(out)["label"]["family"] == family
    assert len(calls) == 1
    # the corank-two umbilics have no eta-chain
    assert len(chains) == (0 if family.startswith("sigma20") else 1)
