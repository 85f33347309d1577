"""Number-field record snapshots: ingest, validate, query, persist.

Snapshots are line-delimited JSON with all integers written as decimal
strings (discriminants can exceed 64-bit range).  Ingest is all-or-nothing:
either every line parses and validates, or the whole ingest fails with the
offending line numbers.  A persisted store carries a seal over its record
lines, so loading it again skips only the arithmetic checks already paid.
"""

from __future__ import annotations

import json
import math
import os
import re
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterable, Iterator, Optional

from .arith import is_prime, primes_up_to

__all__ = [
    "FieldRecord",
    "Snapshot",
    "IngestError",
    "ingest",
    "ingest_lines",
    "query",
    "persist",
    "load",
]

OCTIC_LABELS = {"8T14", "8T23", "8T24", "8T39", "8T40", "8T44"}
QUARTIC_LABEL = "4T5"
# Every Galois label a record can carry.
GALOIS_LABELS = frozenset(OCTIC_LABELS | {QUARTIC_LABEL})


class IngestError(ValueError):
    """Raised when a snapshot fails to parse or validate."""


# A regulator string: optional sign, ASCII digits, at most one decimal point.
_PLAIN_DECIMAL = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)")


@dataclass(frozen=True)
class FieldRecord:
    """One number field: defining polynomial, factored discriminant, invariants.

    Analytic invariants (h, reg, w) are carried for quartic records only;
    they are ingested data, never computed here.  The regulator is kept as
    the original decimal string (at least 12 significant digits) alongside
    a binary float cache.
    """

    label: str
    degree: int
    coeffs: tuple[int, ...]
    disc: int
    disc_factors: tuple[tuple[int, int], ...]
    galois: str
    r1: int
    r2: int
    h: Optional[int] = None
    reg: Optional[str] = None
    w: Optional[int] = None
    parent_label: Optional[str] = None

    @property
    def reg_float(self) -> float:
        if self.reg is None:
            raise ValueError(f"{self.label}: no regulator present")
        return float(self.reg)

    @property
    def abs_disc(self) -> int:
        return abs(self.disc)

    def validate(self) -> None:
        """Every check a record must pass: the structure, then the arithmetic."""
        self.validate_structure()
        self.validate_arithmetic()

    def validate_structure(self) -> None:
        """The cheap checks, run on every record a store holds, sealed or not."""
        if not self.label:
            raise IngestError("empty label")
        if self.degree not in (4, 8):
            raise IngestError(f"{self.label}: degree must be 4 or 8")
        if len(self.coeffs) != self.degree + 1 or self.coeffs[-1] != 1:
            raise IngestError(f"{self.label}: polynomial must be monic of the stated degree")
        if self.disc == 0:
            raise IngestError(f"{self.label}: zero discriminant")
        prod = 1
        last_p = 0
        for p, e in self.disc_factors:
            if p <= last_p or e < 1:
                raise IngestError(f"{self.label}: disc_factors must be sorted primes with e >= 1")
            prod *= p ** e
            last_p = p
        if prod != abs(self.disc):
            raise IngestError(
                f"{self.label}: disc_factors product {prod} != |disc| {abs(self.disc)}"
            )
        if self.r1 < 0 or self.r2 < 0 or self.r1 + 2 * self.r2 != self.degree:
            raise IngestError(f"{self.label}: signature r1 + 2 r2 != degree")
        if self.degree == 4:
            if self.galois != QUARTIC_LABEL:
                raise IngestError(f"{self.label}: quartic records must be {QUARTIC_LABEL}")
            if self.h is None or self.reg is None or self.w is None:
                raise IngestError(f"{self.label}: quartic records need h, reg, w")
            if self.h < 1 or self.w < 1:
                raise IngestError(f"{self.label}: h and w must be positive")
            if not _PLAIN_DECIMAL.fullmatch(self.reg) or not math.isfinite(float(self.reg)):
                raise IngestError(
                    f"{self.label}: regulator {self.reg!r} is not a finite plain decimal"
                )
            if len(self.reg.replace("-", "").replace(".", "").lstrip("0")) < 12:
                raise IngestError(f"{self.label}: regulator needs >= 12 significant digits")
            if float(self.reg) <= 0:
                raise IngestError(f"{self.label}: regulator must be positive")
        else:
            if self.galois not in OCTIC_LABELS:
                raise IngestError(f"{self.label}: unknown octic Galois label {self.galois}")

    def validate_arithmetic(self) -> None:
        """The expensive checks, which a matching store seal lets `load` skip."""
        for p, _ in self.disc_factors:
            if not is_prime(p):
                raise IngestError(f"{self.label}: disc factor {p} is not prime")
        if not _is_irreducible(self.coeffs):
            raise IngestError(f"{self.label}: polynomial is reducible over the rationals")


# The irreducibility prescreen reads the primes max(5, n + 1) <= p below this
# that do not divide disc(f), this many more per round for each polynomial
# it has not yet settled.
_PRESCREEN_PRIME_BOUND = 200
_PRESCREEN_PRIMES_PER_ROUND = 4


@lru_cache(maxsize=None)
def _sub_sums(degrees: tuple[int, ...]) -> frozenset[int]:
    """Every sum of a sub-multiset of the factor degrees, the empty one included."""
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return frozenset(sums)


def _irreducibility(polys: list[tuple[int, ...]]) -> dict[tuple[int, ...], bool]:
    """Irreducibility over Q of each monic integer polynomial, by coefficient tuple.

    Prescreen: a rational factor of degree k reduces, mod every prime p not
    dividing disc(f), to a product of some of f's irreducible factors mod p, so
    k is a sub-sum of their degrees.  Once the primes leave no common k, f is
    irreducible.  Each round takes the next few primes of every polynomial
    still open, and the factor degrees of all of them, one degree at a time,
    from one call of the Frobenius-trace kernel `analytic._frobenius_lanes`.
    A polynomial whose primes below 200 leave a common k, or of degree above
    8, goes to sympy's exact factorization.
    """
    from .analytic import _frobenius_lanes, _on_lane, _poly_disc

    small_primes = primes_up_to(_PRESCREEN_PRIME_BOUND - 1)
    verdicts: dict[tuple[int, ...], bool] = {}
    unsettled: dict[tuple[int, ...], tuple] = {}  # f -> (primes to come, disc, candidate k)
    exact: list[tuple[int, ...]] = []
    for f in dict.fromkeys(polys):
        n = len(f) - 1
        if n <= 1:
            verdicts[f] = True
        elif f[-1] == 1:
            # The kernel's lanes for f; a degree above 8 has none, so goes to sympy.
            disc, on_lane = _poly_disc(f), _on_lane(n)
            unsettled[f] = ((p for p in small_primes if on_lane(p, disc)), disc, set(range(1, n)))
        else:
            exact.append(f)
    while unsettled:
        lanes: dict[int, list[tuple]] = {}  # degree -> (f, p, disc) of this round
        for f, (primes, disc, _) in list(unsettled.items()):
            batch = list(islice(primes, _PRESCREEN_PRIMES_PER_ROUND))
            if not batch:
                exact.append(f)
                del unsettled[f]
                continue
            lanes.setdefault(len(f), []).extend((f, p, disc) for p in batch)
        for group in lanes.values():
            fs, ps, discs = zip(*group)
            for f, degrees in zip(fs, _frobenius_lanes(fs, ps, discs)):
                if f in unsettled:
                    candidates = unsettled[f][2]
                    candidates &= _sub_sums(degrees)
                    if not candidates:
                        verdicts[f] = True
                        del unsettled[f]
    if exact:
        from sympy import Poly, Symbol

        x = Symbol("x")
        for f in exact:
            _, factors = Poly(list(reversed(f)), x).factor_list()
            verdicts[f] = len(factors) == 1 and factors[0][1] == 1
    return verdicts


# The verdicts `_irreducibility_decided` reached for the batch of records
# whose `validate` calls run inside it.
_BATCH_VERDICTS: dict[tuple[int, ...], bool] = {}


@lru_cache(maxsize=4096)
def _is_irreducible(coeffs: tuple[int, ...]) -> bool:
    """Irreducibility over Q of one monic integer polynomial (see `_irreducibility`),
    read from the batch being validated when it is part of one."""
    verdict = _BATCH_VERDICTS.get(coeffs)
    return _irreducibility([coeffs])[coeffs] if verdict is None else verdict


@contextmanager
def _irreducibility_decided(records: list[FieldRecord]) -> Iterator[None]:
    """Decide irreducibility, in one batch, for every record that passes its
    structural checks, for the `validate` calls made inside the block."""
    polys = []
    for rec in records:
        try:
            rec.validate_structure()
        except IngestError:
            continue
        polys.append(rec.coeffs)
    _BATCH_VERDICTS.update(_irreducibility(polys))
    try:
        yield
    finally:
        _BATCH_VERDICTS.clear()


@dataclass(frozen=True)
class Snapshot:
    """Immutable label-indexed collection of validated field records."""

    records: dict[str, FieldRecord]
    provenance: str = ""
    ingest_time: str = ""

    def __post_init__(self):
        for rec in self.records.values():
            if rec.parent_label is not None:
                parent = self.records.get(rec.parent_label)
                if parent is None:
                    raise IngestError(
                        f"{rec.label}: parent {rec.parent_label!r} not in snapshot"
                    )
                if parent.degree != 4 or parent.galois != QUARTIC_LABEL:
                    raise IngestError(
                        f"{rec.label}: parent {parent.label} is not an S4-quartic"
                    )
                if rec.degree == 8:
                    q, r = divmod(abs(rec.disc), parent.disc * parent.disc)
                    if r != 0 or q < 1:
                        raise IngestError(
                            f"{rec.label}: |disc| is not parent disc squared times a positive integer"
                        )

    def __len__(self) -> int:
        return len(self.records)

    def parent_of(self, rec: FieldRecord) -> Optional[FieldRecord]:
        if rec.parent_label is None:
            return None
        return self.records[rec.parent_label]


_REQUIRED = ("label", "degree", "coeffs", "disc", "disc_factors", "galois", "r1", "r2")
_ALL_KEYS = set(_REQUIRED) | {"h", "reg", "w", "parent_label"}


def _int(value, field: str) -> int:
    """A decimal string of ASCII digits with an optional '-', or a JSON integer."""
    if type(value) is str:
        if value.isascii() and (value.isdigit() or value[:1] == "-" and value[1:].isdigit()):
            try:
                return int(value)
            except ValueError as exc:  # beyond the interpreter's digit limit
                raise IngestError(f"{field}: {exc}") from exc
    elif type(value) is int:  # not bool, which subclasses int
        return value
    raise IngestError(f"{field}: expected a decimal integer string, got {value!r}")


def _str(value, field: str) -> str:
    if type(value) is not str:
        raise IngestError(f"{field}: expected a string, got {value!r}")
    return value


def _list(value, field: str) -> list:
    if type(value) is not list:
        raise IngestError(f"{field}: expected a list, got {value!r}")
    return value


def _factor(pair, field: str) -> tuple[int, int]:
    if type(pair) is not list or len(pair) != 2:
        raise IngestError(f"{field}: expected a [prime, exponent] pair, got {pair!r}")
    return _int(pair[0], field), _int(pair[1], field)


# Parsed records, by value, that passed `validate` and are still alive.
# `persist` checks every record in full before it seals a store; a record
# `ingest` has just read is looked up here instead of checked twice.
_VALIDATED: "weakref.WeakSet[FieldRecord]" = weakref.WeakSet()


def _record_from_obj(obj: dict) -> FieldRecord:
    """Parse one record strictly; `validate` checks it."""
    if not isinstance(obj, dict):
        raise IngestError("record is not an object")
    unknown = set(obj) - _ALL_KEYS
    if unknown:
        raise IngestError(f"unknown keys {sorted(unknown)}")
    missing = [k for k in _REQUIRED if k not in obj]
    if missing:
        raise IngestError(f"missing keys {missing}")
    rec = FieldRecord(
        label=_str(obj["label"], "label"),
        degree=_int(obj["degree"], "degree"),
        coeffs=tuple([_int(c, "coeffs") for c in _list(obj["coeffs"], "coeffs")]),
        disc=_int(obj["disc"], "disc"),
        disc_factors=tuple([_factor(pe, "disc_factors")
                            for pe in _list(obj["disc_factors"], "disc_factors")]),
        galois=_str(obj["galois"], "galois"),
        r1=_int(obj["r1"], "r1"),
        r2=_int(obj["r2"], "r2"),
        h=None if obj.get("h") is None else _int(obj["h"], "h"),
        reg=None if obj.get("reg") is None else _str(obj["reg"], "reg"),
        w=None if obj.get("w") is None else _int(obj["w"], "w"),
        parent_label=(None if obj.get("parent_label") is None
                      else _str(obj["parent_label"], "parent_label")),
    )
    return rec


def _record_to_obj(rec: FieldRecord) -> dict:
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


def ingest_lines(lines: Iterable[str], provenance: str = "", ingest_time: str = "") -> Snapshot:
    return _snapshot_from_lines(lines, provenance, ingest_time, arithmetic=True)


def _snapshot_from_lines(lines: Iterable[str], provenance: str, ingest_time: str,
                         arithmetic: bool) -> Snapshot:
    """Parse every line, decide irreducibility for all parsed records in one
    batch, then validate the records in line order.

    `arithmetic=False` checks only the structure; only `load` passes it, and
    only for a store whose seal matches.
    """
    parsed: list[tuple[int, object]] = []  # (line number, record or parse error)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parsed.append((lineno, _record_from_obj(json.loads(line))))
        except (json.JSONDecodeError, IngestError) as exc:
            parsed.append((lineno, exc))
    records: dict[str, FieldRecord] = {}
    errors: list[str] = []
    batch = [rec for _, rec in parsed if isinstance(rec, FieldRecord)] if arithmetic else []
    with _irreducibility_decided(batch):
        for lineno, rec in parsed:
            if isinstance(rec, FieldRecord):
                try:
                    if arithmetic:
                        rec.validate()
                        _VALIDATED.add(rec)
                    else:
                        rec.validate_structure()
                except IngestError as exc:
                    rec = exc
            if not isinstance(rec, FieldRecord):
                errors.append(f"line {lineno}: {rec}")
                continue
            prev = records.get(rec.label)
            if prev is not None and prev != rec:
                errors.append(f"line {lineno}: conflicting duplicate for label {rec.label!r}")
            records[rec.label] = rec
    if errors:
        raise IngestError("; ".join(errors))
    return Snapshot(records=records, provenance=provenance, ingest_time=ingest_time)


def ingest(path: str, provenance: str = "", ingest_time: str = "") -> Snapshot:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    return ingest_lines(lines, provenance=provenance or path, ingest_time=ingest_time)


def query(
    snapshot: Snapshot,
    degree: Optional[int] = None,
    galois_filter: Optional[Iterable[str]] = None,
    max_abs_disc: Optional[int] = None,
) -> list[FieldRecord]:
    labels = set(galois_filter) if galois_filter is not None else None
    out = [
        rec
        for rec in snapshot.records.values()
        if (degree is None or rec.degree == degree)
        and (labels is None or rec.galois in labels)
        and (max_abs_disc is None or rec.abs_disc <= max_abs_disc)
    ]
    out.sort(key=lambda r: (r.abs_disc, r.label))
    return out


_HEADER_TAG = "octic-snapshot/1"
# Part of every seal.  Change it whenever `validate` starts to reject records
# it accepted before, so that stores sealed under the old rules are checked
# in full again.
_VALIDATOR_VERSION = "nfdata-validate/2"


def _seal(body: list[str]) -> str:
    """sha256 over the format tag, the validator version and the record lines."""
    from hashlib import sha256  # here, so that `import octicount.cli` does not pay for it

    digest = sha256(f"{_HEADER_TAG}\n{_VALIDATOR_VERSION}\n".encode())
    for line in body:  # one line at a time: no copy of the whole body
        digest.update(line.encode())
    return digest.hexdigest()


def persist(snapshot: Snapshot, path: str) -> None:
    """Write the snapshot; deterministic, canonical label order, atomic.

    Every record is validated in full before anything is written, so the
    header's seal only ever vouches for records that passed every check.
    """
    body = []
    with _irreducibility_decided([r for r in snapshot.records.values() if r not in _VALIDATED]):
        for label in sorted(snapshot.records):
            rec = snapshot.records[label]
            if rec not in _VALIDATED:
                rec.validate()
            body.append(json.dumps(_record_to_obj(rec), sort_keys=True,
                                   separators=(",", ":")) + "\n")
    header = {
        "format": _HEADER_TAG,
        "provenance": snapshot.provenance,
        "ingest_time": snapshot.ingest_time,
        "count": str(len(snapshot.records)),
        "seal": _seal(body),
    }
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
            fh.writelines(body)
        os.replace(tmp, path)
    except OSError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def load(path: str) -> Snapshot:
    """Read a persisted snapshot; refuses truncated or malformed stores.

    Records are parsed strictly and checked structurally, and the snapshot's
    parent checks run, always.  The arithmetic checks (primality of the
    discriminant factors, irreducibility) run unless the header's seal
    matches the record lines, which means `persist` already ran them.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IngestError(f"{path}: {exc}") from exc
    if not lines:
        raise IngestError(f"{path}: empty store")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise IngestError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _HEADER_TAG:
        raise IngestError(f"{path}: not a snapshot store")
    expected = _int(header.get("count", "-1"), f"{path}: header count")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != expected:
        raise IngestError(
            f"{path}: truncated store ({len(body)} records, header says {expected})"
        )
    return _snapshot_from_lines(
        body,
        provenance=str(header.get("provenance", "")),
        ingest_time=str(header.get("ingest_time", "")),
        arithmetic=header.get("seal") != _seal(body),
    )
