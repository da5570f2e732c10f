"""Golden outputs: the bytes of ``classify --json`` over the 30-germ
corpus, of ``tables --json``, of ``perturb --json`` over a fixed list of
requests and of the printed-table cross-check are pinned by their sha256,
so a refactor that changes any label, invariant, normal form, table row,
isolating interval or derived curve formula fails here.  Family A is pinned
at every degree l = 4..MAX_L as well, one digest per request."""

import hashlib
import json
from fractions import Fraction

import pytest

from germlab.cli import main
from germlab.germparse import render_map
from germlab.perturb import (FAMILY_B_CN, curve_criteria,
                             table_discrepancy_report)
from conftest import corpus_30, monic_chebyshev_params
from oracles import curve_criteria_reference

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


# perturb --json for family A at n = 2 + l mod 4 and the parameters of
# ``family_a_params(l)``, one digest per degree l
FAMILY_A_SHA256 = {
    4: "f322ce5dcc750debf1c46659caef693a3e3885c4f86056c409b53f94cbfbcdce",
    5: "2471d5af4aeb475a3e42194f44e8a11d1d98988aa822970cd1bb4e8329bc3797",
    6: "a7bd1431eabcdd6a20023301a73166be3af9ad8abd4a41cdfcfca11388b971d1",
    7: "c97bb71e0f8cc12f3cf0153940f9453da4d6c6ba817f10e85343c98b84f7ad2e",
    8: "649a073a71bab16ff1a2263095160802b0213e08d1b90dba7baed8ca0ab79bb4",
    9: "18062f64090a50c43cf676e6cbfefa64b424cd7ef97a9eaf177b93e70af66a57",
    10: "d3d7992a010c0280df2d525d8ab054a91ab5b8ccdcd50e63f966df43dcd238e3",
    11: "94f737297647e43a5e4dba163bf2fa35c927c5a911ba94bd2ba7d06cb5e1d9c7",
    12: "0ea315c3c33ace2a683d99b177f451eba4ad5be3aa04b92ee8695870a931b15f",
    13: "deb6ad254981a347979315a7eb7fd5f60b9f5767acce402633fc75af44666d15",
    14: "690c3b44546ed807e7cff1adcac1d7884740577606fec1248922613fc44c5cc7",
    15: "fc40363f4423d7a89a6c1d74770aa7bff2134120f3a208deca13301e1095ef97",
    16: "d3f273de00e36b03fa0068e8206db95d820515511ff45729bf180a0e9e485fc7",
    17: "73fd49fe8fa70465a3c0e07438e947eda1d24a53cffbb9ff88e7a0a621016128",
    18: "4134e5fb0144dcd44ebdfa65ffbfda52f4da62f0aab4a0e6ac030dcbcc7035ed",
    19: "c7324f7b115a3782ef7c3f87af9be279dad209ce3d2540fa8bef275b8fa8013b",
    20: "8fb0a6e265a1eabd2b19d3183d6994fdebefbfa490312fabf947e2adae7b4498",
    21: "c109100eef5cd58b271849386a88836aff5df6e678489c4ba0de6fb3d42920e4",
    22: "85dfbd7d82648f54fac9b5147f777d67535431f0b074a8b3505c176c88129e45",
    23: "f2c2d6b632af287f300a8f6cc530a2b5c4c224fa80f272f5188b8f5c4da27e70",
    24: "ddff58e02cb6a3ee6313efbb94d7713cdd4c107a91f3d3c290a12d927dfc434b",
    25: "0a25c2e1f28d6005f8b0b577e3d8cee57813452879ec423624d22975c8439f0b",
    26: "368524a4ed68567a7e8e7a08e55cf44b91e6475a5d1dccb74a932b84df529678",
    27: "190a23209c785af2f552f9fe96e45e21a12731951401f442dc2a20ebbb0403aa",
    28: "a6121dec2eb890323d6d903cecc32bc37ed05e50349252834063b0300e5033ec",
    29: "c4e0508d315eb48e86985a94e66b61ff4d7f7d46dc813ff41c9fd13a7c720942",
    30: "ab65d69d5bde4fa7a9b0a745f09da568207bd9d3cb5641a8eec1df6a4ae92c93",
    31: "c47877e45fa40e43aa06cca3b1dd99bff1734b2a08bdd7f288ee16c09641d8c1",
    32: "996af38ed58629f57af8b4a8572e504392f757d40daf712da664d188a83ca5f3",
}


def family_a_params(l):
    """The monic Chebyshev parameters, qbar = T_l / 2^(l-1) with l real
    roots in (-1, 1).  At l = 29, 30 and 31 these pass MAX_PARAM_BITS
    (373, 410 and 425 bits), so there qbar is 2 T_l(s/2), the same roots
    doubled, whose coefficients are integers.  Odd l has the exact root 0
    and l - 1 irrational roots; even l has l irrational roots."""
    u = [Fraction(v) for v in monic_chebyshev_params(l).split(",")]
    if l in (29, 30, 31):
        u = [v * 2 ** (l - k) for k, v in enumerate(u)]
    return ",".join(map(str, u))


@pytest.mark.parametrize("n,l", [(2 + l % 4, l)
                                 for l in sorted(FAMILY_A_SHA256)])
def test_family_a_perturb_json_is_golden(capsys, n, l):
    argv = ["perturb", "--json", "--family", "A", "--n", str(n), "--l", str(l),
            "--params=" + family_a_params(l)]
    assert _stdout_sha256(capsys, [argv]) == FAMILY_A_SHA256[l]


def test_table_discrepancy_report_is_golden():
    text = json.dumps(table_discrepancy_report(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        DISCREPANCY_REPORT_SHA256


def test_perturb_json_same_cold_and_warm(capsys):
    """The first request after the cached curve and criteria are dropped
    reads them afresh; its bytes equal those of the request that reuses
    them, and the one key it read equals the reference derivation."""
    for argv, key in (
            (["perturb", "--json", "--family", "B", "--n", "5",
              "--params=-1"], ("B", 5, None)),
            (["perturb", "--json", "--family", "C", "--n", "4",
              "--params=-1,1/2"], ("C", 4, None)),
            (["perturb", "--json", "--family", "A", "--n", "4",
              "--l", "3", "--params=0,-2"], ("A", 4, 3))):
        curve_criteria.cache_clear()
        cold = _stdout_sha256(capsys, [argv])
        assert curve_criteria.cache_info().currsize == 1
        assert curve_criteria(*key) == curve_criteria_reference(*key)
        assert curve_criteria.cache_info().currsize == 1
        assert _stdout_sha256(capsys, [argv]) == cold
