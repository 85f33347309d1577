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
import re
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Iterable, NamedTuple, Optional, TextIO

from .arith import is_prime, primes_up_to
from .labels import LABELS

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

OCTIC_LABELS = frozenset(LABELS)
QUARTIC_LABEL = "4T5"
# Every Galois label a record can carry.
GALOIS_LABELS = OCTIC_LABELS | {QUARTIC_LABEL}


class IngestError(ValueError):
    """Raised when a snapshot fails to parse or validate."""


# A regulator string: optional sign, ASCII digits, at most one decimal point.
_PLAIN_DECIMAL = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)")


class FieldRecord(NamedTuple):
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
    h: Optional[int]
    reg: Optional[str]
    w: Optional[int]
    parent_label: Optional[str]

    @property
    def reg_float(self) -> float:
        if self.reg is None:
            raise ValueError(f"{self.label}: no regulator present")
        return float(self.reg)

    @property
    def abs_disc(self) -> int:
        return abs(self.disc)

    def validate(self) -> None:
        """The structural checks, which every record a store holds passes, sealed
        or not.  Not the whole check: `_failures` adds the arithmetic ones."""
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


# The irreducibility prescreen reads the primes 5 <= p below this (the kernel
# takes no lane at 2 or 3), this many more per round, the same ones for every
# polynomial it has not yet settled.
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
    """Irreducibility over Q of each integer polynomial, by coefficient tuple.

    Prescreen: a rational factor of degree k reduces, mod every prime p not
    dividing disc(f), to a product of some of f's irreducible factors mod p, so
    k is a sub-sum of their degrees.  Once the primes leave no common k, f is
    irreducible, and one of degree at most 1 has no k to begin with.  Each
    round hands the polynomials still open and the next few primes to one
    call of the Frobenius-trace kernel `analytic._frobenius_lanes`, which
    answers its lanes and leaves the other pairs None.  A polynomial whose
    lanes below 200 leave a common k (one that is not monic, or of degree
    above 8, has no lanes) is decided by `_is_irreducible`.
    """
    from .analytic import _frobenius_lanes

    prescreen_primes = primes_up_to(_PRESCREEN_PRIME_BOUND - 1)[2:]
    verdicts: dict[tuple[int, ...], bool] = {}
    # Each open f -> the degrees its rational factors can still have.
    candidates = {f: set(range(1, len(f) - 1)) for f in polys}
    for start in range(0, len(prescreen_primes), _PRESCREEN_PRIMES_PER_ROUND):
        if not candidates:
            break
        batch = prescreen_primes[start:start + _PRESCREEN_PRIMES_PER_ROUND]
        open_polys = list(candidates)
        for f, lanes in zip(open_polys, _frobenius_lanes(open_polys, batch)):
            for degrees in filter(None, lanes):
                candidates[f] &= _sub_sums(degrees)
            if not candidates[f]:
                verdicts[f] = True
                del candidates[f]
    for f in candidates:
        verdicts[f] = _is_irreducible(f)
    return verdicts


@lru_cache(maxsize=4096)
def _is_irreducible(coeffs: tuple[int, ...]) -> bool:
    """Irreducibility over Q of one integer polynomial, by sympy's exact
    factorization: the decision `_irreducibility` falls back to."""
    from sympy import Poly, Symbol

    _, factors = Poly(list(reversed(coeffs)), Symbol("x")).factor_list()
    return len(factors) == 1 and factors[0][1] == 1


def _failures(records: list[FieldRecord],
              arithmetic: bool) -> dict[FieldRecord, Optional[IngestError]]:
    """The first check each record fails, or None if it passes them all.

    The structure (`FieldRecord.validate`) runs once per record.  With
    `arithmetic`, the primality of each discriminant factor follows, each
    distinct factor proved once, then irreducibility, decided by one
    `_irreducibility` call over the records whose structure passed.
    """
    failures: dict[FieldRecord, Optional[IngestError]] = {}
    for rec in records:
        try:
            rec.validate()
            failures[rec] = None
        except IngestError as exc:
            failures[rec] = exc
    if arithmetic:
        irreducible = _irreducibility([rec.coeffs for rec in records if failures[rec] is None])
        passed = [rec for rec, failure in failures.items() if failure is None]
        composites = {p for p in {p for rec in passed for p, _ in rec.disc_factors}
                      if not is_prime(p)}
        for rec in passed:
            composite = next((p for p, _ in rec.disc_factors if p in composites), None)
            if composite is not None:
                failures[rec] = IngestError(f"{rec.label}: disc factor {composite} is not prime")
            elif not irreducible[rec.coeffs]:
                failures[rec] = IngestError(
                    f"{rec.label}: polynomial is reducible over the rationals")
    return failures


class Snapshot:
    """Label-indexed collection of field records, with each parent checked."""

    def __init__(self, records: dict[str, FieldRecord], provenance: str, ingest_time: str):
        for rec in records.values():
            if rec.parent_label is not None:
                parent = records.get(rec.parent_label)
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
        self.records = records
        self.provenance = provenance
        self.ingest_time = ingest_time
        # The records, by value, that `ingest` has just checked in full;
        # `persist` checks only the others before it seals a store.
        self._checked: frozenset[FieldRecord] = frozenset()

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


def _record_from_obj(obj: dict) -> FieldRecord:
    """Parse one record strictly; `_failures` checks it."""
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


def _record_line(rec: FieldRecord) -> str:
    """The canonical line of a record: what `json.dumps(obj, sort_keys=True,
    separators=(",", ":"))` writes for its object, every integer a decimal
    string and the optional fields only when present, then a newline."""
    quote = encode_basestring_ascii
    coeffs = ",".join([f'"{c}"' for c in rec.coeffs])
    factors = ",".join([f'["{p}","{e}"]' for p, e in rec.disc_factors])
    h = "" if rec.h is None else f',"h":"{rec.h}"'
    parent = "" if rec.parent_label is None else f',"parent_label":{quote(rec.parent_label)}'
    reg = "" if rec.reg is None else f',"reg":{quote(rec.reg)}'
    w = "" if rec.w is None else f',"w":"{rec.w}"'
    return (f'{{"coeffs":[{coeffs}],"degree":"{rec.degree}","disc":"{rec.disc}",'
            f'"disc_factors":[{factors}],"galois":{quote(rec.galois)}{h},'
            f'"label":{quote(rec.label)}{parent},"r1":"{rec.r1}","r2":"{rec.r2}"{reg}{w}}}\n')


def ingest_lines(lines: Iterable[str], provenance: str = "", ingest_time: str = "") -> Snapshot:
    return _snapshot_from_lines(enumerate(lines, start=1), provenance, ingest_time,
                                arithmetic=True)


def _snapshot_from_lines(numbered: Iterable[tuple[int, str]], provenance: str,
                         ingest_time: str, arithmetic: bool) -> Snapshot:
    """Parse every (line number, line), check all parsed records in one
    `_failures` call, then report the failures in line order.

    `arithmetic=False` checks only the structure; only `load` passes it, and
    only for a store whose seal matches.
    """
    parsed: list[tuple[int, object]] = []  # (line number, record or parse error)
    for lineno, line in numbered:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parsed.append((lineno, _record_from_obj(json.loads(line))))
        except (json.JSONDecodeError, RecursionError, IngestError) as exc:
            parsed.append((lineno, exc))
    failures = _failures([rec for _, rec in parsed if isinstance(rec, FieldRecord)], arithmetic)
    records: dict[str, FieldRecord] = {}
    errors: list[str] = []
    for lineno, rec in parsed:
        failure = failures[rec] if isinstance(rec, FieldRecord) else rec
        if failure is not None:
            errors.append(f"line {lineno}: {failure}")
            continue
        prev = records.get(rec.label)
        if prev is not None and prev != rec:
            errors.append(f"line {lineno}: conflicting duplicate for label {rec.label!r}")
        records[rec.label] = rec
    if errors:
        raise IngestError("; ".join(errors))
    snapshot = Snapshot(records=records, provenance=provenance, ingest_time=ingest_time)
    if arithmetic:
        snapshot._checked = frozenset(records.values())
    return snapshot


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"{path}: {exc}") from exc


def ingest(path: str, provenance: str, ingest_time: str) -> Snapshot:
    return ingest_lines(_read_lines(path), provenance, ingest_time)


def query(
    snapshot: Snapshot,
    degree: Optional[int],
    galois_filter: Optional[Iterable[str]],
    max_abs_disc: Optional[int],
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
# Part of every seal.  Change it whenever `_failures` starts to reject records
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


def persist(snapshot: Snapshot, fh: TextIO) -> None:
    """Write the snapshot into an open text file, deterministic and in
    canonical label order.  Atomicity is the caller's: `ingest --out` writes
    into a temporary file that replaces the store only when this returns.

    Every record is validated in full before anything is written, so the
    header's seal only ever vouches for records that passed every check.
    """
    failures = _failures([r for r in snapshot.records.values() if r not in snapshot._checked],
                         arithmetic=True)
    body = []
    for label in sorted(snapshot.records):
        rec = snapshot.records[label]
        if failures.get(rec) is not None:
            raise failures[rec]
        body.append(_record_line(rec))
    header = {
        "format": _HEADER_TAG,
        "provenance": snapshot.provenance,
        "ingest_time": snapshot.ingest_time,
        "count": str(len(snapshot.records)),
        "seal": _seal(body),
    }
    fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
    fh.writelines(body)


def load(path: str) -> Snapshot:
    """Read a persisted snapshot; refuses truncated or malformed stores.

    Records are parsed strictly and checked structurally, and the snapshot's
    parent checks run, always.  The arithmetic checks (primality of the
    discriminant factors, irreducibility) run unless the header's seal
    matches the record lines, which means `persist` already ran them.  A bad
    record is reported as `PATH: line N: ...`, N counted in the file.
    """
    lines = _read_lines(path)
    if not lines:
        raise IngestError(f"{path}: empty store")
    try:
        header = json.loads(lines[0])
    except (json.JSONDecodeError, RecursionError) as exc:
        raise IngestError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _HEADER_TAG:
        raise IngestError(f"{path}: not a snapshot store")
    if "count" not in header:
        raise IngestError(f"{path}: header has no record count")
    expected = _int(header["count"], f"{path}: header count")
    if expected < 0:
        raise IngestError(f"{path}: header count {expected} is negative")
    numbered = [(n, ln) for n, ln in enumerate(lines[1:], start=2) if ln.strip()]
    body = [ln for _, ln in numbered]
    if len(body) != expected:
        raise IngestError(
            f"{path}: truncated store ({len(body)} records, header says {expected})"
        )
    provenance = _str(header.get("provenance", ""), f"{path}: header provenance")
    ingest_time = _str(header.get("ingest_time", ""), f"{path}: header ingest_time")
    try:
        return _snapshot_from_lines(
            numbered,
            provenance=provenance,
            ingest_time=ingest_time,
            arithmetic=header.get("seal") != _seal(body),
        )
    except IngestError as exc:
        raise IngestError(f"{path}: {exc}") from exc
