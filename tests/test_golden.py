"""Byte-for-byte CLI output of the report printers, pinned to committed files.

The files under tests/data/ are the stdout of each command as the CLI printed
it before the report layer (verify, splitting, counting.audit_lemmas and the
CLI's report printer) was last simplified; a refactor of perms, catalog,
verify, splitting or that printer must reproduce them exactly, exit codes
included.  The audit files come from the model snapshot with two planted
violations, so their witness lines are pinned too.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from conftest import persist_to
from octicount.catalog import LABELS
from octicount.cli import run
from octicount.nfdata import Snapshot

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, name, rc", [
    (["verify-groups"], "verify_groups.txt", 0),
    (["verify-groups", "--json", "-"], "verify_groups.json", 0),
    # exits 1 on the 8T40 index_set subcheck only
    (["verify-splitting", "--json", "-"], "verify_splitting.json", 1),
    (["verify-splitting", "--group", "8T23"], "verify_splitting_8T23.txt", 0),
    (["verify-splitting", "--group", "8T40"], "verify_splitting_8T40.txt", 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_verifier_output_matches_golden(argv, name, rc, capsys):
    assert run(argv) == rc
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()


def _with_extra_prime(rec, q: int):
    """The record with |disc| multiplied by the prime q, q not yet a factor."""
    factors = tuple(sorted(rec.disc_factors + ((q, 1),)))
    return dataclasses.replace(rec, disc=rec.disc * q, disc_factors=factors)


@pytest.fixture(scope="module")
def violating_store(model_snapshot, tmp_path_factory):
    # 7 divides no discriminant of the model, so it lands in n1 of the 8T23
    # octic (not a fourth power) and makes the 8T39 octic's |disc| and norm
    # non-squares.
    records = dict(model_snapshot.records)
    for label in ("8T23.L0", "8T39.L0"):
        records[label] = _with_extra_prime(records[label], 7)
    path = tmp_path_factory.mktemp("audit") / "store.jsonl"
    persist_to(Snapshot(records=records, provenance="model-towers-violated", ingest_time=""),
               str(path))
    return str(path)


@pytest.mark.parametrize("argv, name", [
    (["audit"], "audit_violations.txt"),
    (["audit", "--json", "-"], "audit_violations.json"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_audit_output_matches_golden(argv, name, violating_store, capsys):
    assert run(argv + ["--store", violating_store]) == 1
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()


MALLE_ALPHA = {"8T14": "1/4", "8T23": "1/3", "8T24": "1/2",
               "8T39": "1/2", "8T40": "1/2", "8T44": "1"}


def test_golden_labels_cover_the_catalog():
    assert sorted(MALLE_ALPHA) == sorted(LABELS)


@pytest.mark.parametrize("label", sorted(MALLE_ALPHA))
def test_malle_alpha_output_matches_golden(label, capsys):
    assert run(["malle-alpha", "--label", label]) == 0
    assert capsys.readouterr().out == MALLE_ALPHA[label] + "\n"
