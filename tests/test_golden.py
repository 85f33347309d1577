"""Byte-for-byte CLI output of the report printers, pinned to committed files.

The files under tests/data/ are the stdout of each command as the CLI printed
it before the report layer (verify, splitting, counting.audit_lemmas and the
CLI's report printer) was last simplified; a refactor of perms, catalog,
verify, splitting or that printer must reproduce them exactly, exit codes
included.  The audit files come from the model snapshot with two planted
violations, so their witness lines are pinned too.

The data-command files (`model_store.jsonl`, `constant.*`, `fit.*`,
`count.txt`, `query.csv`, `tail.txt`) are the outputs of `ingest`, `constant`,
`fit`, `count`, `query` and `tail` on the model 8T23 tower records, ingested
with a fixed provenance, as the CLI printed them before the result types
behind `constant` and `fit` were last trimmed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import model_tower_records, persist_to, record_json_line
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
    return rec._replace(disc=rec.disc * q, disc_factors=factors)


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


@pytest.fixture(scope="module")
def model_store(tmp_path_factory):
    """The model 8T23 tower records (19 quartics, 19 octics), ingested with a
    fixed provenance so that no temporary path reaches the output bytes."""
    records, _ = model_tower_records("8T23", 1, 500)
    tmp = tmp_path_factory.mktemp("model")
    infile = tmp / "in.jsonl"
    infile.write_text("\n".join(record_json_line(r) for r in records) + "\n")
    store = tmp / "store.jsonl"
    assert run(["ingest", "--in", str(infile), "--out", str(store),
                "--provenance", "model-towers-8T23"]) == 0
    return store


def test_ingested_store_matches_golden(model_store):
    assert model_store.read_bytes() == (DATA / "model_store.jsonl").read_bytes()


# Z = 10^13 keeps 17 of the 19 quartics; fit takes its checkpoints from the
# octic discriminants when --checkpoints is absent.
CONSTANT = ["constant", "--max-disc", "10000000000000", "--prime-bound", "1000"]
FIT = ["fit", "--max-disc", "10000000000000", "--prime-bound", "1000"]


@pytest.mark.parametrize("argv, name", [
    (CONSTANT, "constant.txt"),
    (CONSTANT + ["--json", "-"], "constant.json"),
    (FIT, "fit.txt"),
    (FIT + ["--json", "-"], "fit.json"),
    (["count", "--checkpoints", "1:1e30:7"], "count.txt"),
    (["query", "--csv"], "query.csv"),
    (["tail", "--Z", "3650", "--X", "10000000000000"], "tail.txt"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_data_command_output_matches_golden(argv, name, model_store, capsys):
    capsys.readouterr()
    assert run(argv + ["--store", str(model_store)]) == 0
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()


def test_constant_terms_match_golden(model_store, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "terms.csv"
    assert run(CONSTANT + ["--store", str(model_store), "--emit-terms", str(out)]) == 0
    assert capsys.readouterr().out.encode() == (DATA / "constant.txt").read_bytes()
    assert out.read_bytes() == (DATA / "constant_terms.csv").read_bytes()
