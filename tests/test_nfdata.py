"""Snapshot ingest/validate/persist/query behavior."""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from sympy import Poly

from conftest import (
    OCTIC_COEFFS,
    QUARTIC_COEFFS,
    REG12,
    octic_record,
    quartic_record,
    record_json_line,
)
from octicount.analytic import factor_mod_p
from octicount.arith import primes_up_to
from octicount.nfdata import (
    FieldRecord,
    IngestError,
    Snapshot,
    _is_irreducible,
    ingest_lines,
    load,
    persist,
    query,
)

GOOD_QUARTIC = json.dumps({
    "label": "4.1",
    "degree": "4",
    "coeffs": ["-1", "-1", "0", "0", "1"],
    "disc": "-283",
    "disc_factors": [["283", "1"]],
    "galois": "4T5",
    "r1": "2",
    "r2": "1",
    "h": "1",
    "reg": "0.430630128702",
    "w": "2",
})


class TestIngest:
    def test_accepts_documented_example(self):
        snap = ingest_lines([GOOD_QUARTIC])
        rec = snap.records["4.1"]
        assert rec.disc == -283 and rec.r1 == 2 and rec.r2 == 1
        # Independent oracle: disc(x^4 + px + q) = -27 p^4 + 256 q^3.
        p, q = -1, -1
        assert -27 * p ** 4 + 256 * q ** 3 == rec.disc

    def test_rejects_factor_mismatch(self):
        bad = json.loads(GOOD_QUARTIC)
        bad["disc"] = "12"
        bad["disc_factors"] = [["2", "2"]]
        with pytest.raises(IngestError, match="disc_factors"):
            ingest_lines([json.dumps(bad)])

    def test_rejects_dangling_parent(self):
        rec = octic_record("8.1", 283 ** 2, [(283, 2)], "8T23", "nowhere")
        with pytest.raises(IngestError, match="parent"):
            Snapshot(records={"8.1": rec})

    def test_rejects_non_square_parent_divisibility(self):
        parent = quartic_record("K", 283, [(283, 1)])
        bad = octic_record("L", 283 * 7, [(7, 1), (283, 1)], "8T23", "K")
        with pytest.raises(IngestError, match="squared"):
            Snapshot(records={"K": parent, "L": bad})

    def test_rejects_reducible_polynomial(self):
        bad = json.loads(GOOD_QUARTIC)
        bad["coeffs"] = ["0", "0", "0", "0", "1"]  # x^4
        bad["disc"] = "-283"
        with pytest.raises(IngestError, match="reducible"):
            ingest_lines([json.dumps(bad)])

    def test_identical_duplicates_deduplicated(self):
        snap = ingest_lines([GOOD_QUARTIC, GOOD_QUARTIC])
        assert len(snap) == 1

    def test_conflicting_duplicates_rejected(self):
        other = json.loads(GOOD_QUARTIC)
        other["h"] = "2"
        with pytest.raises(IngestError, match="conflicting duplicate"):
            ingest_lines([GOOD_QUARTIC, json.dumps(other)])

    def test_all_or_nothing_with_line_numbers(self):
        with pytest.raises(IngestError, match="line 2"):
            ingest_lines([GOOD_QUARTIC, "{not json"])

    def test_signature_validated(self):
        bad = json.loads(GOOD_QUARTIC)
        bad["r1"], bad["r2"] = "1", "1"
        with pytest.raises(IngestError, match="signature"):
            ingest_lines([json.dumps(bad)])

    def test_regulator_precision_required(self):
        bad = json.loads(GOOD_QUARTIC)
        bad["reg"] = "0.43"
        with pytest.raises(IngestError, match="significant digits"):
            ingest_lines([json.dumps(bad)])


# Minimal polynomial of sqrt2 + sqrt3 + sqrt5; its Galois group C2^3 has
# only the cycle types 1^8 and 2^4.
C2_CUBED_OCTIC = (576, 0, -960, 0, 352, 0, -40, 0, 1)


class TestIrreducibility:
    def test_octic_the_prescreen_cannot_settle(self, monkeypatch):
        # Mod every unramified prime the factor degrees are all 1 or all 2,
        # so the sub-sums 2, 4 and 6 survive and only the exact
        # factorization proves the octic irreducible.
        for p in primes_up_to(199):
            pattern = factor_mod_p(C2_CUBED_OCTIC, p)
            if all(m == 1 for _, m in pattern):
                assert len({d for d, _ in pattern}) == 1
        exact = []
        factor_list = Poly.factor_list
        monkeypatch.setattr(Poly, "factor_list",
                            lambda poly: exact.append(poly) or factor_list(poly))
        assert _is_irreducible.__wrapped__(C2_CUBED_OCTIC)
        assert len(exact) == 1
        rec = octic_record("L.c2cubed", 283 ** 2, [(283, 2)], "8T23", None)
        replace(rec, coeffs=C2_CUBED_OCTIC).validate()

    def test_reducible_octic_rejected_by_name(self):
        # (x^4 - x - 1)(x^4 + x + 1) = x^8 - x^2 - 2x - 1
        rec = octic_record("L.product", 283 ** 2, [(283, 2)], "8T23", None)
        with pytest.raises(IngestError, match="L.product: polynomial is reducible"):
            replace(rec, coeffs=(-1, -2, -1, 0, 0, 0, 0, 0, 1)).validate()


class TestQuery:
    def make_snapshot(self):
        # Three octics with |disc| 10, 20, 30 built from synthetic factored data.
        parent = quartic_record("K", 283, [(283, 1)])
        records = {"K": parent}
        for name, d, factors, gal in (
            ("A", 10, [(2, 1), (5, 1)], "8T44"),
            ("B", -20, [(2, 2), (5, 1)], "8T39"),
            ("C", 30, [(2, 1), (3, 1), (5, 1)], "8T44"),
        ):
            records[name] = octic_record(name, d, factors, gal, None)
        return Snapshot(records=records)

    def test_empty(self):
        assert query(Snapshot(records={})) == []

    def test_threshold(self):
        out = query(self.make_snapshot(), degree=8, max_abs_disc=25)
        assert [r.label for r in out] == ["A", "B"]

    def test_label_filter(self):
        out = query(self.make_snapshot(), galois_filter=["8T39"])
        assert [r.label for r in out] == ["B"]

    def test_sorted_by_disc_then_label(self):
        out = query(self.make_snapshot(), degree=8)
        assert [r.label for r in out] == ["A", "B", "C"]


class TestPersistence:
    def test_round_trip_identity(self, tmp_path, thousand_quartics):
        snap = Snapshot(
            records={r.label: r for r in thousand_quartics},
            provenance="fixture",
        )
        path = str(tmp_path / "store.jsonl")
        persist(snap, path)
        loaded = load(path)
        assert loaded.records == snap.records
        assert loaded.provenance == snap.provenance

    def test_persist_deterministic_and_order_independent(self, tmp_path, thousand_quartics):
        lines = [record_json_line(r) for r in thousand_quartics]
        shuffled = lines[:]
        random.Random(5).shuffle(shuffled)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        persist(ingest_lines(lines, provenance="x"), a)
        persist(ingest_lines(shuffled, provenance="x"), b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_truncated_store_rejected(self, tmp_path, thousand_quartics):
        snap = Snapshot(records={r.label: r for r in thousand_quartics[:10]})
        path = str(tmp_path / "store.jsonl")
        persist(snap, path)
        with open(path) as fh:
            content = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(content[:-2])
        with pytest.raises(IngestError, match="truncated"):
            load(path)

    def test_missing_file_error_has_path(self, tmp_path):
        with pytest.raises(IngestError, match="no-such"):
            load(str(tmp_path / "no-such.jsonl"))

