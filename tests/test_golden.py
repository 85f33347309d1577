"""Byte-for-byte CLI output of the group verifiers, pinned to committed files.

The files under tests/data/ are the stdout of each command as the CLI printed
it before the group engine was last simplified; a refactor of perms, catalog,
verify or splitting must reproduce them exactly, exit codes included.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from octicount.catalog import LABELS
from octicount.cli import run

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, name, rc", [
    (["verify-groups", "--json", "-"], "verify_groups.json", 0),
    # exits 1 on the 8T40 index_set subcheck only
    (["verify-splitting", "--json", "-"], "verify_splitting.json", 1),
    (["verify-splitting", "--group", "8T23"], "verify_splitting_8T23.txt", 0),
    (["verify-splitting", "--group", "8T40"], "verify_splitting_8T40.txt", 1),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_verifier_output_matches_golden(argv, name, rc, capsys):
    assert run(argv) == rc
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()


MALLE_ALPHA = {"8T14": "1/4", "8T23": "1/3", "8T24": "1/2",
               "8T39": "1/2", "8T40": "1/2", "8T44": "1"}


def test_golden_labels_cover_the_catalog():
    assert sorted(MALLE_ALPHA) == sorted(LABELS)


@pytest.mark.parametrize("label", sorted(MALLE_ALPHA))
def test_malle_alpha_output_matches_golden(label, capsys):
    assert run(["malle-alpha", "--label", label]) == 0
    assert capsys.readouterr().out == MALLE_ALPHA[label] + "\n"
