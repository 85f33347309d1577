"""Shared fixtures: synthetic snapshots built from the tame configuration model."""

from __future__ import annotations

import json

import pytest
from sympy import prime, primerange

from octicount.catalog import catalog_group, octic_action, quartic_action
from octicount.cli import _output_opened_first
from octicount.nfdata import FieldRecord, Snapshot, persist
from octicount.splitting import enumerate_tame_configs, valuation_profile

QUARTIC_COEFFS = (-1, -1, 0, 0, 1)          # x^4 - x - 1
OCTIC_COEFFS = (-1, -1, 0, 0, 0, 0, 0, 0, 1)  # x^8 - x - 1
REG12 = "1.00000000000000"


def quartic_record(label: str, disc: int, factors, h: int = 1) -> FieldRecord:
    return FieldRecord(
        label=label,
        degree=4,
        coeffs=QUARTIC_COEFFS,
        disc=disc,
        disc_factors=tuple(factors),
        galois="4T5",
        r1=0,
        r2=2,
        h=h,
        reg=REG12,
        w=2,
        parent_label=None,
    )


def octic_record(label: str, disc: int, factors, galois: str, parent: str) -> FieldRecord:
    return FieldRecord(
        label=label,
        degree=8,
        coeffs=OCTIC_COEFFS,
        disc=disc,
        disc_factors=tuple(factors),
        galois=galois,
        r1=0,
        r2=4,
        h=None,
        reg=None,
        w=None,
        parent_label=parent,
    )


def model_tower_records(group_label: str, base_exp: int, start_prime_index: int):
    """One synthetic quartic/octic pair per tame configuration of a group.

    Each configuration contributes a fresh odd prime p with the valuations
    the configuration prescribes: |disc K| = 283^base_exp * p^vK and
    |disc L| = disc K^2 * p^v_norm.  By construction such data realizes the
    tame model exactly, so every audited valuation pattern must hold.
    """
    G = catalog_group(group_label)
    octic = octic_action(group_label)
    quartic = quartic_action(group_label)
    records = []
    idx = start_prime_index
    for n, cfg in enumerate(enumerate_tame_configs(G)):
        prof = valuation_profile(cfg, octic, quartic)
        p = int(prime(idx))
        idx += 1
        k_factors = [(283, base_exp)]
        if prof.v_disc_K:
            k_factors.append((p, prof.v_disc_K))
        k_factors.sort()
        dk = 1
        for q, e in k_factors:
            dk *= q ** e
        l_val = 2 * prof.v_disc_K + prof.v_norm
        l_factors = [(283, 2 * base_exp)]
        if l_val:
            l_factors.append((p, l_val))
        l_factors.sort()
        dl = dk * dk * p ** prof.v_norm
        klabel = f"{group_label}.K{n}"
        records.append(quartic_record(klabel, dk, k_factors))
        records.append(octic_record(f"{group_label}.L{n}", dl, l_factors, group_label, klabel))
    return records, idx


@pytest.fixture(scope="session")
def model_snapshot() -> Snapshot:
    """Snapshot realizing every tame configuration of the audited towers."""
    records = []
    idx = 100  # start away from the small primes 2, 3, 5, ...
    for label, base_exp in (("8T23", 1), ("8T39", 1), ("8T40", 2)):
        recs, idx = model_tower_records(label, base_exp, idx)
        records.extend(recs)
    return Snapshot(records={r.label: r for r in records}, provenance="model-towers",
                    ingest_time="")


def persist_to(snapshot: Snapshot, path) -> None:
    """`nfdata.persist` into the file at `path`, opened the way `ingest --out`
    opens it: through a temporary file that replaces `path` only on success."""
    with _output_opened_first(str(path)) as fh:
        persist(snapshot, fh)


def record_obj(rec: FieldRecord) -> dict:
    """A record as the JSON object a store line holds, every integer a decimal string."""
    obj = {
        "label": rec.label,
        "degree": str(rec.degree),
        "coeffs": [str(c) for c in rec.coeffs],
        "disc": str(rec.disc),
        "disc_factors": [[str(p), str(e)] for p, e in rec.disc_factors],
        "galois": rec.galois,
        "r1": str(rec.r1),
        "r2": str(rec.r2),
    }
    if rec.h is not None:
        obj["h"] = str(rec.h)
    if rec.reg is not None:
        obj["reg"] = rec.reg
    if rec.w is not None:
        obj["w"] = str(rec.w)
    if rec.parent_label is not None:
        obj["parent_label"] = rec.parent_label
    return obj


def record_json_line(rec: FieldRecord) -> str:
    return json.dumps(record_obj(rec))


@pytest.fixture(scope="session")
def thousand_quartics() -> list[FieldRecord]:
    """1000 distinct synthetic quartic records with prime discriminants."""
    # The 1000th to the 1999th primes, 7919 to 17387, in one sieve.
    primes = [int(p) for p in primerange(7919, 17388)]
    assert len(primes) == 1000
    return [quartic_record(f"Q{i:04d}", -p if i % 2 else p, [(p, 1)])
            for i, p in enumerate(primes)]
