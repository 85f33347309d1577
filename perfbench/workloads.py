"""The benchmark's workloads: seeded inputs, command lines and output checks.

Each workload builder writes its inputs into a work directory and returns
the octicount commands to time, in order.  Every command carries the exit
code it must return and a check of its stdout against values the benchmark
computed on its own (fields.py), never against octicount's own answers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import fields

LABELS = ("8T14", "8T23", "8T24", "8T39", "8T40", "8T44")
GROUP_CLAIMS = ("groups.a8_containment", "groups.classification", "groups.converse",
                "groups.s4_unique_octic", "groups.table1")
SPLITTING_CLAIMS = ("splitting.lemma_81.8T40", "splitting.lemma_splitting.8T23",
                    "splitting.lemma_vpn.8T23")
ENCLOSURE_PRIME_BOUND = 10 ** 4


class CheckError(Exception):
    """A command's output disagrees with the benchmark's expectation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Command:
    metric: str                 # end-to-end metric name, e.g. "verify_groups_s"
    args: list[str]             # octicount arguments
    exit_code: int
    check: Callable[[str], None]


# ---------------------------------------------------------------------------
# groups: the fixed catalog, no seeded input


def check_verify_groups(out: str) -> None:
    reports = json.loads(out)
    expect(sorted(reports) == list(GROUP_CLAIMS), f"claims {sorted(reports)}")
    for claim, rep in reports.items():
        expect(rep["status"] == "pass" and rep["witnesses"] == [], f"{claim} failed")
    details = reports["groups.classification"]["details"]
    expect(details["transitive_isomorphism_types"] == 32, "expected 32 isomorphism types")
    expect(details["classes_with_s4_quotient"] == 6, "expected 6 S4-quotient classes")
    expect(details["catalog_matches"] == {label: 1 for label in LABELS},
           f"catalog matches {details['catalog_matches']}")


def check_verify_splitting(out: str) -> None:
    """Exit code 1 is right only for the documented 8T40 index-set failure."""
    reports = json.loads(out)
    expect(sorted(reports) == list(SPLITTING_CLAIMS), f"claims {sorted(reports)}")
    for claim, rep in reports.items():
        if claim != "splitting.lemma_81.8T40":
            expect(rep["status"] == "pass" and rep["witnesses"] == [], f"{claim} failed")
    rep = reports["splitting.lemma_81.8T40"]
    parts = rep["details"]["parts"]
    expect(rep["status"] == "fail" and len(rep["witnesses"]) == 1
           and rep["witnesses"][0].startswith("index_set:"), "unexpected 8T40 witnesses")
    expect({k for k, v in parts.items() if v != "pass"} == {"index_set"},
           f"8T40 parts {parts}")
    expect(rep["details"]["computed_index_set"] == [2, 3, 4, 5, 6, 7],
           f"8T40 index set {rep['details']['computed_index_set']}")


def groups(seed: int, workdir: str, prepare) -> list[Command]:
    return [
        Command("verify_groups_s", ["verify-groups", "--json", "-"], 0, check_verify_groups),
        Command("verify_splitting_s", ["verify-splitting", "--json", "-"], 1,
                check_verify_splitting),
    ]


# ---------------------------------------------------------------------------
# euler: genuine S4 quartics, a quarter of them presented with index 2^6


def euler(seed: int, workdir: str, prepare, n_fields: int = 100,
          n_constant: int = 2) -> list[Command]:
    data = fields.euler_store(seed, n_fields=n_fields, n_constant=n_constant)
    fields.write_records(os.path.join(workdir, "euler.jsonl"), data.records)
    prepare(["ingest", "--in", "euler.jsonl", "--out", "euler.store"])
    lo, hi = fields.constant_enclosure(data.quartics, data.constant_Z, ENCLOSURE_PRIME_BOUND)

    def check_constant(out: str) -> None:
        res = json.loads(out)
        expect(res["terms"] == data.constant_terms,
               f"terms {res['terms']} != {data.constant_terms}")
        expect(res["Z"] == data.constant_Z and res["prime_bound"] == 10 ** 5, "echoed inputs")
        v, e = res["value"], res["error_bound"]
        expect(v - e <= hi and lo <= v + e,
               f"C = {v} +/- {e} misses the enclosure [{lo}, {hi}]")

    def check_fit(out: str) -> None:
        res = json.loads(out)
        expect(res["C"]["terms"] == n_fields, f"fit terms {res['C']['terms']}")
        expect(res["checkpoints"] == data.checkpoints
               and len(res["residuals"]) == len(data.checkpoints), "fit checkpoints")
        c = res["C"]["value"]
        counts = [r + c * x for r, x in zip(res["residuals"], data.checkpoints)]
        expect(all(abs(n - m) < 1e-6 for n, m in zip(counts, data.counts)),
               f"fit counts {counts} != {data.counts}")

    checkpoints = ",".join(map(str, data.checkpoints))
    return [
        Command("constant_s", ["constant", "--store", "euler.store", "--max-disc",
                               str(data.constant_Z), "--json", "-"], 0, check_constant),
        Command("fit_s", ["fit", "--store", "euler.store", "--max-disc", str(data.fit_Z),
                          "--prime-bound", "1000", "--galois", "4T5",
                          "--checkpoints", checkpoints, "--json", "-"], 0, check_fit),
    ]


# ---------------------------------------------------------------------------
# store: genuine quartics plus repeated model towers, every polynomial distinct


def store(seed: int, workdir: str, prepare, n_quartics: int = 1200,
          repeats: int = 3) -> list[Command]:
    data = fields.tower_store(seed, n_quartics=n_quartics, repeats=repeats)
    fields.write_records(os.path.join(workdir, "store.jsonl"), data.records)
    n_records = len(data.records)

    def check_ingest(out: str) -> None:
        expect(out == f"ingested {n_records} records -> store.snapshot\n", f"ingest said {out!r}")

    def check_audit(out: str) -> None:
        res = json.loads(out)
        expect(res["status"] == "pass" and res["witnesses"] == [], "audit failed")
        expect(res["details"]["octics_audited"] == data.octics,
               f"audited {res['details']['octics_audited']} != {data.octics}")
        expect(res["details"]["sibling_multiplicity_diagnostic"] == 0, "sibling count")

    def check_count(out: str) -> None:
        res = json.loads(out)
        expect(res["labels"] == list(LABELS), f"labels {res['labels']}")
        expect(res["checkpoints"] == data.checkpoints, "count checkpoints")
        expect(res["counts"] == data.counts, f"counts {res['counts']} != {data.counts}")

    checkpoints = ",".join(map(str, data.checkpoints))
    return [
        Command("ingest_s", ["ingest", "--in", "store.jsonl", "--out", "store.snapshot"], 0,
                check_ingest),
        Command("audit_s", ["audit", "--store", "store.snapshot", "--json", "-"], 0,
                check_audit),
        Command("count_s", ["count", "--store", "store.snapshot", "--checkpoints",
                            checkpoints, "--json", "-"], 0, check_count),
    ]


WORKLOADS = {"groups": groups, "euler": euler, "store": store}
