"""Snapshot ingest/validate/persist/query behavior."""

from __future__ import annotations

import json
import random

import pytest
from sympy import Poly, isprime

from conftest import (
    OCTIC_COEFFS,
    QUARTIC_COEFFS,
    REG12,
    octic_record,
    persist_to,
    quartic_record,
    record_json_line,
)
import octicount.analytic
from octicount import nfdata
from octicount.analytic import factor_mod_p
from octicount.arith import primes_up_to
from octicount.catalog import LABELS
from octicount.cli import run
from octicount.nfdata import (
    FieldRecord,
    IngestError,
    Snapshot,
    _is_irreducible,
    ingest_lines,
    load,
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
            Snapshot(records={"8.1": rec}, provenance="", ingest_time="")

    def test_rejects_non_square_parent_divisibility(self):
        parent = quartic_record("K", 283, [(283, 1)])
        bad = octic_record("L", 283 * 7, [(7, 1), (283, 1)], "8T23", "K")
        with pytest.raises(IngestError, match="squared"):
            Snapshot(records={"K": parent, "L": bad}, provenance="", ingest_time="")

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

    @pytest.mark.parametrize("reg", [
        "1e999999999999",  # 14 characters, float() gives inf
        "4.30630128702e-1",
        "infinity0000",
        "1" + "0" * 400 + ".0",  # plain, but float() overflows to inf
        " 0.430630128702",
        "0.430_630_128_702",
        "\u0660.430630128702",  # ARABIC-INDIC DIGIT ZERO
    ], ids=repr)
    def test_regulator_must_be_finite_plain_decimal(self, reg):
        bad = json.loads(GOOD_QUARTIC)
        bad["reg"] = reg
        with pytest.raises(IngestError, match="not a finite plain decimal"):
            ingest_lines([json.dumps(bad)])


# Minimal polynomial of sqrt2 + sqrt3 + sqrt5; its Galois group C2^3 has
# only the cycle types 1^8 and 2^4.
C2_CUBED_OCTIC = (576, 0, -960, 0, 352, 0, -40, 0, 1)


def _with(**changes) -> str:
    obj = json.loads(GOOD_QUARTIC)
    obj.update(changes)
    return json.dumps(obj)


class TestBatchedIngest:
    """Ingest parses every line, checks all records in one batch, then reports
    their failures in line order: the error text is as it was line by line."""

    LINES = [
        _with(label="4.2", disc="-287", disc_factors=[["287", "1"]]),
        "# a comment line",
        GOOD_QUARTIC,
        '{"label": "4.3", "degree": ',
        "",
        _with(label="4.4", degree="5"),
        _with(label="4.5", coeffs=["-1", "0", "0", "0", "1"]),
        _with(reg="0.430630128703"),
        GOOD_QUARTIC,
        _with(label="4.6", coeffs=["-1", "0", "0", "0", "1"], disc="-287",
              disc_factors=[["287", "1"]]),
        _with(label="4.7", coeffs=["1", "0", "0", "0", "0", "0", "0", "0", "1"], degree="8",
              galois="8T23", r1="0", r2="4"),
        _with(label="4.5", coeffs=["-1", "0", "0", "0", "1"]),
        _with(label="8.1", degree="8", coeffs=["-1", "-2", "-1", "0", "0", "0", "0", "0", "1"],
              galois="8T23", r1="2", r2="3", disc="80089", disc_factors=[["283", "2"]],
              h=None, reg=None, w=None),
    ]

    def test_mixed_errors_keep_their_text_and_order(self):
        # Pinned from the line-by-line ingest that came before the batch.
        with pytest.raises(IngestError) as info:
            ingest_lines(self.LINES)
        assert str(info.value) == (
            "line 1: 4.2: disc factor 287 is not prime; "
            "line 4: Expecting value: line 1 column 27 (char 26); "
            "line 6: 4.4: degree must be 4 or 8; "
            "line 7: 4.5: polynomial is reducible over the rationals; "
            "line 8: conflicting duplicate for label '4.1'; "
            "line 9: conflicting duplicate for label '4.1'; "
            "line 10: 4.6: disc factor 287 is not prime; "
            "line 12: 4.5: polynomial is reducible over the rationals; "
            "line 13: 8.1: polynomial is reducible over the rationals")

    def test_lines_that_pass_are_the_line_by_line_records(self):
        kept = [ln for i, ln in enumerate(self.LINES, start=1) if i in (3, 11)]
        assert ingest_lines(kept).records == {
            **ingest_lines([kept[0]]).records, **ingest_lines([kept[1]]).records}

    def test_every_record_is_validated_against_one_batch(self, monkeypatch):
        # One `_irreducibility` call decides each ingest, over the records
        # that pass their structural checks (`FieldRecord.validate`); every
        # parsed record is checked and reported in line order, and no state
        # outlives the call: a second ingest makes one new batch and fails
        # with the same message.
        batches, validated, messages = [], [], []
        irreducibility, validate = nfdata._irreducibility, FieldRecord.validate
        monkeypatch.setattr(nfdata, "_irreducibility",
                            lambda polys: batches.append(polys) or irreducibility(polys))
        monkeypatch.setattr(FieldRecord, "validate",
                            lambda rec: validated.append(rec.label) or validate(rec))
        for runs in (1, 2):
            with pytest.raises(IngestError) as info:
                ingest_lines(self.LINES)
            messages.append(str(info.value))
            assert len(batches) == runs
        parsed = []
        for line in self.LINES:
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError:
                pass
        labels = [obj["label"] for obj in parsed]
        assert labels == ["4.2", "4.1", "4.4", "4.5", "4.1", "4.1", "4.6", "4.7", "4.5", "8.1"]
        assert validated == 2 * labels
        structural = [tuple(map(int, obj["coeffs"])) for obj in parsed if obj["label"] != "4.4"]
        assert len(structural) == 9 and batches == [structural, structural]
        reported = [int(error.split(":")[0].removeprefix("line "))
                    for error in messages[0].split("; ")]
        assert reported == sorted(reported) and len(reported) == 9
        assert messages[1] == messages[0]

    def test_persist_reports_the_first_failure_in_label_order(self, tmp_path):
        # "K.1" fails only the irreducibility check, "K.2" the structural one.
        reducible = quartic_record("K.1", 283, [(283, 1)])._replace(coeffs=(-1, 0, 0, 0, 1))
        unsigned = quartic_record("K.2", 283, [(283, 1)])._replace(r1=3)
        snap = Snapshot(records={"K.2": unsigned, "K.1": reducible}, provenance="", ingest_time="")
        with pytest.raises(IngestError, match="^K.1: polynomial is reducible"):
            persist_to(snap, str(tmp_path / "store.jsonl"))

    def test_only_the_c2_cubed_octic_reaches_sympy(self, monkeypatch):
        _is_irreducible.cache_clear()
        exact = []
        factor_list = Poly.factor_list
        monkeypatch.setattr(Poly, "factor_list",
                            lambda poly: exact.append(poly) or factor_list(poly))
        polys = [QUARTIC_COEFFS, OCTIC_COEFFS, C2_CUBED_OCTIC,
                 tuple(c for a in QUARTIC_COEFFS[:-1] for c in (a, 0)) + (1,)]
        assert nfdata._irreducibility(polys) == dict.fromkeys(polys, True)
        assert [poly.all_coeffs()[::-1] for poly in exact] == [list(C2_CUBED_OCTIC)]


class TestStrictParsing:
    @pytest.mark.parametrize("changes, field", [
        ({"coeffs": "10001"}, "coeffs"),  # once read digit by digit as x^4 + 1
        ({"coeffs": ["-1", "-1", "0", "0", 1.0]}, "coeffs"),
        ({"coeffs": ["-1", "-1", "0", "0", True]}, "coeffs"),
        ({"degree": 4.7}, "degree"),  # once truncated to 4
        ({"degree": "4.7"}, "degree"),
        ({"degree": "+4"}, "degree"),
        ({"degree": " 4"}, "degree"),
        ({"degree": "4_0"}, "degree"),
        ({"degree": "\u0664"}, "degree"),  # ARABIC-INDIC DIGIT FOUR
        ({"disc": "-0x11b"}, "disc"),
        ({"r1": True}, "r1"),
        ({"h": False}, "h"),
        ({"w": "two"}, "w"),
        ({"disc_factors": "283"}, "disc_factors"),
        ({"disc_factors": [283, 1]}, "disc_factors"),
        ({"disc_factors": [["283"]]}, "disc_factors"),
        ({"disc_factors": [["283", "1", "1"]]}, "disc_factors"),
        ({"disc_factors": [["283", 1.0]]}, "disc_factors"),
        ({"label": 41}, "label"),
        ({"reg": 0.430630128702}, "reg"),
    ], ids=repr)
    def test_rejects_by_field(self, changes, field):
        with pytest.raises(IngestError, match=f"line 1: {field}: expected"):
            ingest_lines([_with(**changes)])

    def test_json_integers_accepted(self):
        snap = ingest_lines([_with(degree=4, coeffs=[-1, -1, 0, 0, 1], disc=-283,
                                   disc_factors=[[283, 1]], r1=2, r2=1, h=1, w=2)])
        assert snap.records["4.1"] == ingest_lines([GOOD_QUARTIC]).records["4.1"]

    def test_sealed_load_parses_strictly(self, tmp_path):
        # A store whose seal matches its (bad) record lines still gets the
        # strict parse: the seal skips arithmetic checks only.
        path = tmp_path / "store.jsonl"
        persist_to(ingest_lines([GOOD_QUARTIC]), str(path))
        header, line = path.read_text().splitlines(keepends=True)
        bad = line.replace('"coeffs":["-1","-1","0","0","1"]', '"coeffs":"10001"')
        header = json.loads(header)
        header["seal"] = nfdata._seal([bad])
        path.write_text(json.dumps(header) + "\n" + bad)
        with pytest.raises(IngestError, match="coeffs: expected a list"):
            load(str(path))


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
        rec = rec._replace(coeffs=C2_CUBED_OCTIC)
        assert nfdata._failures([rec], arithmetic=True) == {rec: None}

    def test_reducible_octic_rejected_by_name(self):
        # (x^4 - x - 1)(x^4 + x + 1) = x^8 - x^2 - 2x - 1
        rec = octic_record("L.product", 283 ** 2, [(283, 2)], "8T23", None)
        rec = rec._replace(coeffs=(-1, -2, -1, 0, 0, 0, 0, 0, 1))
        [failure] = nfdata._failures([rec], arithmetic=True).values()
        assert str(failure) == "L.product: polynomial is reducible over the rationals"


def test_record_labels_cover_the_catalog():
    assert nfdata.OCTIC_LABELS == set(LABELS)
    assert nfdata.GALOIS_LABELS == {*LABELS, "4T5"}


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
        return Snapshot(records=records, provenance="", ingest_time="")

    def test_empty(self):
        assert query(Snapshot(records={}, provenance="", ingest_time=""),
                     degree=None, galois_filter=None, max_abs_disc=None) == []

    def test_threshold(self):
        out = query(self.make_snapshot(), degree=8, galois_filter=None, max_abs_disc=25)
        assert [r.label for r in out] == ["A", "B"]

    def test_label_filter(self):
        out = query(self.make_snapshot(), degree=None, galois_filter=["8T39"], max_abs_disc=None)
        assert [r.label for r in out] == ["B"]

    def test_sorted_by_disc_then_label(self):
        out = query(self.make_snapshot(), degree=8, galois_filter=None, max_abs_disc=None)
        assert [r.label for r in out] == ["A", "B", "C"]


class TestPersistence:
    def test_round_trip_identity(self, tmp_path, thousand_quartics):
        snap = Snapshot(
            records={r.label: r for r in thousand_quartics},
            provenance="fixture",
            ingest_time="",
        )
        path = str(tmp_path / "store.jsonl")
        persist_to(snap, path)
        loaded = load(path)
        assert loaded.records == snap.records
        assert loaded.provenance == snap.provenance

    def test_persist_deterministic_and_order_independent(self, tmp_path, thousand_quartics):
        lines = [record_json_line(r) for r in thousand_quartics]
        shuffled = lines[:]
        random.Random(5).shuffle(shuffled)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        persist_to(ingest_lines(lines, provenance="x"), a)
        persist_to(ingest_lines(shuffled, provenance="x"), b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_truncated_store_rejected(self, tmp_path, thousand_quartics):
        snap = Snapshot(records={r.label: r for r in thousand_quartics[:10]},
                        provenance="", ingest_time="")
        path = str(tmp_path / "store.jsonl")
        persist_to(snap, path)
        with open(path) as fh:
            content = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(content[:-2])
        with pytest.raises(IngestError, match="truncated"):
            load(path)

    @pytest.mark.parametrize("count", ["two", None, 2.5])
    def test_malformed_header_count_named(self, tmp_path, count):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps({"format": "octic-snapshot/1", "count": count}) + "\n")
        with pytest.raises(IngestError, match="store.jsonl: header count: expected"):
            load(str(path))

    def test_negative_header_count_named(self, tmp_path, capsys):
        # Once reported as "truncated store (0 records, header says -2)".
        path = tmp_path / "store.jsonl"
        path.write_text('{"count":"-2","format":"octic-snapshot/1"}\n')
        with pytest.raises(IngestError) as caught:
            load(str(path))
        assert str(caught.value) == f"{path}: header count -2 is negative"
        assert run(["audit", "--store", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: header count -2 is negative\n"

    def test_header_without_count_named(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps({"format": "octic-snapshot/1"}) + "\n")
        with pytest.raises(IngestError) as caught:
            load(str(path))
        assert str(caught.value) == f"{path}: header has no record count"

    @pytest.mark.parametrize("field", ["provenance", "ingest_time"])
    def test_non_string_header_text_named(self, tmp_path, field):
        # persist writes both as strings; a list once came back as "['x']".
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps({"format": "octic-snapshot/1", "count": "0",
                                    field: ["x"]}) + "\n")
        with pytest.raises(IngestError) as caught:
            load(str(path))
        assert str(caught.value) == f"{path}: header {field}: expected a string, got ['x']"

    def test_missing_file_error_has_path(self, tmp_path):
        with pytest.raises(IngestError, match="no-such"):
            load(str(tmp_path / "no-such.jsonl"))

    def test_deeply_nested_line_is_a_line_error(self):
        with pytest.raises(IngestError, match="^line 2: maximum recursion depth exceeded"):
            ingest_lines([GOOD_QUARTIC, "[" * 100_000 + "]" * 100_000])

    def test_deeply_nested_header_is_a_bad_header(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(IngestError,
                           match="store.jsonl: bad header: maximum recursion depth exceeded"):
            load(str(path))

    def test_non_utf8_input_names_its_path(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        path.write_bytes(GOOD_QUARTIC.encode() + b"\n\xff\n")
        with pytest.raises(IngestError, match="latin1.jsonl: 'utf-8' codec can't decode byte 0xff"):
            nfdata.ingest(str(path), "", "")

    @pytest.mark.parametrize("blank_lines", [0, 2])
    def test_bad_record_is_named_by_store_and_file_line(self, tmp_path, thousand_quartics,
                                                        blank_lines):
        # Lines count in the file, the header and any blank lines included.
        path = tmp_path / "store.jsonl"
        persist_to(Snapshot(records={r.label: r for r in thousand_quartics[:3]},
                            provenance="", ingest_time=""), path)
        header, *body = path.read_text().splitlines(keepends=True)
        body[2] = body[2].replace('"coeffs":[', '"coeffs":[,')
        path.write_text(header + "\n" * blank_lines + "".join(body))
        line = 4 + blank_lines
        with pytest.raises(IngestError) as caught:
            load(str(path))
        assert str(caught.value).startswith(f"{path}: line {line}: Expecting value: line 1")



def _count_prescreen_work(monkeypatch) -> list:
    """Clear the irreducibility cache and record the prime of every factor_mod_p
    call and, for each polynomial of a call of the batched prescreen
    (`_frobenius_lanes`), every prime of that call."""
    calls = []
    factor, lanes = octicount.analytic.factor_mod_p, octicount.analytic._frobenius_lanes
    monkeypatch.setattr(octicount.analytic, "factor_mod_p",
                        lambda f, p: calls.append(p) or factor(f, p))
    monkeypatch.setattr(octicount.analytic, "_frobenius_lanes",
                        lambda polys, primes: calls.extend(p for _ in polys for p in primes)
                        or lanes(polys, primes))
    _is_irreducible.cache_clear()
    return calls


class TestSeal:
    def persisted(self, tmp_path, records):
        path = tmp_path / "store.jsonl"
        persist_to(Snapshot(records={r.label: r for r in records}, provenance="fixture",
                            ingest_time=""), path)
        return path

    def edit_record(self, path, label, old, new):
        lines = path.read_text().splitlines(keepends=True)
        [i] = [i for i, ln in enumerate(lines) if f'"label":"{label}"' in ln]
        assert old in lines[i]
        lines[i] = lines[i].replace(old, new)
        path.write_text("".join(lines))

    def test_sealed_load_makes_no_factor_mod_p_calls(self, tmp_path, monkeypatch,
                                                     thousand_quartics):
        path = self.persisted(tmp_path, thousand_quartics[:50])
        calls = _count_prescreen_work(monkeypatch)
        loaded = load(str(path))
        assert calls == []
        assert loaded.records == {r.label: r for r in thousand_quartics[:50]}

    def test_flipped_digit_makes_factor_composite(self, tmp_path, thousand_quartics):
        rec = thousand_quartics[0]
        [(p, _)] = rec.disc_factors
        digits = str(p)
        composite = next(digits[:-1] + d for d in "0123456789"
                         if not isprime(int(digits[:-1] + d)))
        path = self.persisted(tmp_path, thousand_quartics[:20])
        # The same digit flipped in disc and disc_factors keeps the product
        # check satisfied, so only the primality check can catch it.
        self.edit_record(path, rec.label, f'"{digits}"', f'"{composite}"')
        with pytest.raises(IngestError,
                           match=f"{rec.label}: disc factor {composite} is not prime"):
            load(str(path))

    def test_flipped_digit_makes_polynomial_reducible(self, tmp_path, thousand_quartics):
        path = self.persisted(tmp_path, thousand_quartics[:20])
        # x^4 - x - 1 becomes x^4 - 1.
        label = thousand_quartics[7].label
        self.edit_record(path, label, '"coeffs":["-1","-1",', '"coeffs":["-1","-0",')
        with pytest.raises(IngestError, match=f"{label}: polynomial is reducible"):
            load(str(path))

    def test_store_without_seal_is_fully_validated(self, tmp_path, monkeypatch,
                                                   thousand_quartics):
        path = self.persisted(tmp_path, thousand_quartics[:20])
        header, *body = path.read_text().splitlines(keepends=True)
        header = json.loads(header)
        del header["seal"]
        path.write_text(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
                        + "".join(body))
        calls = _count_prescreen_work(monkeypatch)
        loaded = load(str(path))
        assert calls
        assert loaded.records == {r.label: r for r in thousand_quartics[:20]}

    def test_changed_validator_version_forces_full_validation(self, tmp_path, monkeypatch,
                                                              thousand_quartics):
        path = self.persisted(tmp_path, thousand_quartics[:20])
        monkeypatch.setattr(nfdata, "_VALIDATOR_VERSION", "a stricter validator")
        calls = _count_prescreen_work(monkeypatch)
        load(str(path))
        assert calls

    def test_persist_does_not_recheck_ingested_records(self, tmp_path, monkeypatch,
                                                       thousand_quartics):
        snap = ingest_lines([record_json_line(r) for r in thousand_quartics[:20]])
        calls = _count_prescreen_work(monkeypatch)
        original = nfdata.is_prime
        monkeypatch.setattr(nfdata, "is_prime", lambda n: calls.append(n) or original(n))
        persist_to(snap, str(tmp_path / "store.jsonl"))
        assert calls == []
        assert load(str(tmp_path / "store.jsonl")).records == snap.records

    def test_persist_refuses_to_seal_unchecked_records(self, tmp_path):
        # Snapshot checks only parents; persist runs the full validation.
        reducible = quartic_record("K", 283, [(283, 1)])._replace(coeffs=(-1, 0, 0, 0, 1))
        composite = quartic_record("K", 287, [(287, 1)])
        path = tmp_path / "store.jsonl"
        for rec, message in ((reducible, "K: polynomial is reducible"),
                             (composite, "K: disc factor 287 is not prime")):
            with pytest.raises(IngestError, match=message):
                persist_to(Snapshot(records={"K": rec}, provenance="", ingest_time=""), str(path))
        assert list(tmp_path.iterdir()) == []

    def test_file_differs_from_unsealed_format_only_by_seal(self, tmp_path,
                                                            thousand_quartics):
        records = thousand_quartics[:30]
        path = self.persisted(tmp_path, records)
        header, *body = path.read_text().splitlines(keepends=True)
        header = json.loads(header)
        assert len(header.pop("seal")) == 64
        assert header == {"format": "octic-snapshot/1", "provenance": "fixture",
                          "ingest_time": "", "count": "30"}
        expected = [json.dumps(json.loads(record_json_line(r)), sort_keys=True,
                               separators=(",", ":")) + "\n"
                    for r in sorted(records, key=lambda r: r.label)]
        assert body == expected
