"""Golden outputs: the bytes of ``classify --json`` over the 30-germ
corpus, of ``tables --json``, of ``perturb --json`` over a fixed list of
requests and of the printed-table cross-check are pinned by their sha256,
so a refactor that changes any label, invariant, normal form, table row,
isolating interval or derived curve formula fails here."""

import hashlib
import json

from germlab.cli import main
from germlab.germparse import render_map
from germlab.perturb import (FAMILY_B_CN, curve_criteria, eliminate_curve,
                             table_discrepancy_report)
from conftest import corpus_30

CLASSIFY_CORPUS_SHA256 = \
    "cdb23e926d591d716e41a2297bb0b5a0ed96a934820059a01cd89dc321c9bd6f"
TABLES_SHA256 = \
    "22bf6d27773470afb9c51c7f366c02e41dda8a64b93b36cc3a1da44198898f26"
PERTURB_SHA256 = \
    "983318304fc2916f6b03d14fd12893e384268737d1d14dc6743414b794b62eda"
DISCREPANCY_REPORT_SHA256 = \
    "4d3a847c96a66315bb0ac1534483fb1e6bd72900db2b653814ca44e59450c554"


def _stdout_sha256(capsys, argvs):
    digest = hashlib.sha256()
    for argv in argvs:
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


def test_classify_json_over_corpus_is_golden(capsys):
    argvs = [["classify", "--json", render_map(f)] for f in corpus_30()]
    assert _stdout_sha256(capsys, argvs) == CLASSIFY_CORPUS_SHA256


def test_tables_json_is_golden(capsys):
    assert _stdout_sha256(capsys, [["tables", "--json"]]) == TABLES_SHA256


def perturb_argvs():
    """Families A, B and C for n = 2..5 at parameters giving exact points,
    interval points, both at once, a non-stable parameter and a root at
    t = 0; one request at each end of the precision range; one sweep."""
    argvs = []
    for n in (2, 3, 4, 5):
        for family, l, params in [
                ("A", 3, "0,-1"), ("A", 3, "0,-2"), ("A", 2, "-2"),
                ("A", 2, "0"), ("B", None, "-%d" % FAMILY_B_CN[n]),
                ("B", None, "-1"), ("B", None, "0"), ("C", None, "1/4,2"),
                ("C", None, "-1,0"), ("C", None, "0,1")]:
            argv = ["perturb", "--json", "--family", family, "--n", str(n)]
            if l is not None:
                argv += ["--l", str(l)]
            argvs.append(argv + ["--params=" + params])
    argvs.append(["perturb", "--json", "--family", "C", "--n", "3",
                  "--params=-5/2,1/2"])
    for precision in ("20", "120"):
        argvs.append(["perturb", "--json", "--precision", precision,
                      "--family", "C", "--n", "4", "--params=-1,1/2"])
    argvs.append(["perturb", "--json", "--family", "C", "--n", "3",
                  "--grid=-1:1:1/2,0:2:1"])
    return argvs


def test_perturb_json_is_golden(capsys):
    assert _stdout_sha256(capsys, perturb_argvs()) == PERTURB_SHA256


def test_table_discrepancy_report_is_golden():
    text = json.dumps(table_discrepancy_report(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        DISCREPANCY_REPORT_SHA256


def test_perturb_json_same_cold_and_warm(capsys):
    """The first request after the cached curve and criteria are dropped
    derives them afresh; its bytes equal those of the request that reuses
    them."""
    for argv in (["perturb", "--json", "--family", "B", "--n", "5",
                  "--params=-1"],
                 ["perturb", "--json", "--family", "C", "--n", "4",
                  "--params=-1,1/2"],
                 ["perturb", "--json", "--family", "A", "--n", "4",
                  "--l", "3", "--params=0,-2"]):
        eliminate_curve.cache_clear()
        curve_criteria.cache_clear()
        cold = _stdout_sha256(capsys, [argv])
        assert curve_criteria.cache_info().currsize == 1
        assert eliminate_curve.cache_info().currsize == \
            (0 if "A" in argv else 1)
        assert _stdout_sha256(capsys, [argv]) == cold
