"""Golden outputs: the bytes of ``classify --json`` over the 30-germ
corpus and of ``tables --json`` are pinned by their sha256, so a refactor
that changes any label, invariant, normal form or table row fails here."""

import hashlib

from germlab.cli import main
from germlab.germparse import render_map
from conftest import corpus_30

CLASSIFY_CORPUS_SHA256 = \
    "cdb23e926d591d716e41a2297bb0b5a0ed96a934820059a01cd89dc321c9bd6f"
TABLES_SHA256 = \
    "22bf6d27773470afb9c51c7f366c02e41dda8a64b93b36cc3a1da44198898f26"


def _stdout_sha256(capsys, argvs):
    digest = hashlib.sha256()
    for argv in argvs:
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode())
    return digest.hexdigest()


def test_classify_json_over_corpus_is_golden(capsys, monkeypatch):
    monkeypatch.delenv("GERMLAB_PRECISION", raising=False)
    argvs = [["classify", "--json", render_map(f)] for f in corpus_30()]
    assert _stdout_sha256(capsys, argvs) == CLASSIFY_CORPUS_SHA256


def test_tables_json_is_golden(capsys, monkeypatch):
    monkeypatch.delenv("GERMLAB_PRECISION", raising=False)
    assert _stdout_sha256(capsys, [["tables", "--json"]]) == TABLES_SHA256
