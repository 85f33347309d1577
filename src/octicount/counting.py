"""Empirical counting: discriminant splits, lemma audits, tail and fit reports."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from math import gcd
from typing import Iterable, Optional, Sequence

from .analytic import PartialConstant
from .nfdata import FieldRecord, Snapshot, query
from .verify import VerificationReport, _checked_report

__all__ = [
    "THETA_TARGET",
    "RelDiscSplit",
    "CountSeries",
    "FitReport",
    "split_rel_disc",
    "count_series",
    "audit_lemmas",
    "tail_count",
    "fit_error",
]

# Error exponent of the main counting theorem for the full wreath tower.
THETA_TARGET = 3.0 / 4.0 - 1.0 / 30.0


def _is_kth_power(n: int, k: int) -> bool:
    """Is n a perfect square (k = 2) or fourth power (k = 4)?"""
    if k not in (2, 4):
        raise ValueError(f"only squares and fourth powers are tested, not k = {k}")
    if n < 0:
        return False
    root = math.isqrt(n)
    if k == 4:
        root = math.isqrt(root)
    return root ** k == n


def _rad(factors: Iterable[tuple[int, int]]) -> int:
    out = 1
    for p, _ in factors:
        out *= p
    return out


@dataclass(frozen=True)
class RelDiscSplit:
    """Support-based factorization of Nm and |disc K| for one octic/parent pair.

    norm = n0 n1 n2 with n2 the {2,3}-part, n0 carrying the primes shared
    with disc K, n1 the rest; |disc K| = d0 d1 d2 symmetrically with d0
    carrying the primes shared with norm.
    """

    norm: int
    n0: int
    n1: int
    n2: int
    d0: int
    d1: int
    d2: int
    norm_factors: tuple[tuple[int, int], ...]
    k_factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n0 * self.n1 * self.n2 != self.norm:
            raise ValueError("norm split does not recombine")
        if gcd(self.n0, 6) != 1 or gcd(self.n1, 6) != 1:
            raise ValueError("n0, n1 must be coprime to 6")
        if gcd(self.d0, 6) != 1 or gcd(self.d1, 6) != 1:
            raise ValueError("d0, d1 must be coprime to 6")


def split_rel_disc(octic: FieldRecord, parent: FieldRecord) -> RelDiscSplit:
    """Unique support split of the relative discriminant norm and |disc K|."""
    if octic.parent_label != parent.label:
        raise ValueError(f"{octic.label}: parent is not {parent.label}")
    dk = abs(parent.disc)
    norm, r = divmod(abs(octic.disc), dk * dk)
    if r != 0 or norm < 1:
        raise ValueError(
            f"{octic.label}/{parent.label}: parent disc squared does not divide |disc|"
        )
    k_vals = dict(parent.disc_factors)
    # Valuations of the norm derive from the two factored discriminants.
    n_vals: dict[int, int] = {}
    for p, e in octic.disc_factors:
        v = e - 2 * k_vals.get(p, 0)
        if v < 0:
            raise ValueError(f"{octic.label}: negative norm valuation at p={p}")
        if v:
            n_vals[p] = v
    n0 = n1 = n2 = 1
    for p, v in sorted(n_vals.items()):
        if p in (2, 3):
            n2 *= p ** v
        elif p in k_vals:
            n0 *= p ** v
        else:
            n1 *= p ** v
    d0 = d1 = d2 = 1
    for p, e in parent.disc_factors:
        if p in (2, 3):
            d2 *= p ** e
        elif n_vals.get(p, 0) > 0:
            d0 *= p ** e
        else:
            d1 *= p ** e
    return RelDiscSplit(
        norm=norm,
        n0=n0,
        n1=n1,
        n2=n2,
        d0=d0,
        d1=d1,
        d2=d2,
        norm_factors=tuple(sorted(n_vals.items())),
        k_factors=tuple(sorted(k_vals.items())),
    )


@dataclass(frozen=True)
class CountSeries:
    """Step-function counts N(X) at increasing checkpoints."""

    checkpoints: tuple[int, ...]
    counts: tuple[int, ...]
    group_filter: tuple[str, ...]

    def __post_init__(self):
        if len(self.checkpoints) != len(self.counts):
            raise ValueError("checkpoints and counts length mismatch")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ValueError("checkpoints must be strictly increasing")
        if any(b < a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be nondecreasing")


def count_series(
    snapshot: Snapshot,
    labels: Iterable[str],
    checkpoints: Sequence[int],
    degree: Optional[int] = None,
) -> CountSeries:
    labels = tuple(sorted(set(labels)))
    discs = sorted(
        rec.abs_disc
        for rec in snapshot.records.values()
        if rec.galois in labels and (degree is None or rec.degree == degree)
    )
    counts = []
    for X in checkpoints:
        lo, hi = 0, len(discs)
        while lo < hi:
            mid = (lo + hi) // 2
            if discs[mid] <= X:
                lo = mid + 1
            else:
                hi = mid
        counts.append(lo)
    return CountSeries(
        checkpoints=tuple(int(x) for x in checkpoints),
        counts=tuple(counts),
        group_filter=labels,
    )


def audit_lemmas(snapshot: Snapshot) -> VerificationReport:
    """Audit every octic-with-parent record against the valuation patterns.

    Per Galois label: the 8T23 tower needs n1 to be a fourth power with
    v_p(n0) <= v_p(disc K) and v_p(disc K) = 3 forcing p | n0; the 8T39
    tower needs both discriminant and norm to be perfect squares; the 8T40
    tower needs d1 = rad(d1)^2 and d0, n0 within cubes of each other.
    Prime-level checks skip p | 6 throughout.
    """

    def body(report: VerificationReport) -> None:
        audited = 0
        sib_diag: dict[tuple[int, str], int] = {}
        for label in sorted(snapshot.records):
            rec = snapshot.records[label]
            if rec.degree != 8 or rec.parent_label is None:
                continue
            parent = snapshot.parent_of(rec)
            try:
                split = split_rel_disc(rec, parent)
            except ValueError as exc:
                report.fail(f"{label}: {exc}")
                continue
            audited += 1
            sib_key = (rec.abs_disc, parent.label)
            sib_diag[sib_key] = sib_diag.get(sib_key, 0) + 1
            k_vals = dict(split.k_factors)
            n_vals = dict(split.norm_factors)
            if rec.galois == "8T23":
                if not _is_kth_power(split.n1, 4):
                    report.fail(f"{label}: n1={split.n1} is not a fourth power")
                for p, v in n_vals.items():
                    if p in (2, 3) or p not in k_vals:
                        continue
                    if v > k_vals[p]:
                        report.fail(f"{label}: v_{p}(n0)={v} exceeds v_{p}(disc K)={k_vals[p]}")
                for p, e in k_vals.items():
                    if p in (2, 3):
                        continue
                    if e == 3 and n_vals.get(p, 0) < 1:
                        report.fail(f"{label}: v_{p}(disc K)=3 but p does not divide n0")
            elif rec.galois == "8T39":
                if not _is_kth_power(abs(rec.disc), 2):
                    report.fail(f"{label}: |disc| is not a perfect square")
                if not _is_kth_power(split.norm, 2):
                    report.fail(f"{label}: norm {split.norm} is not a perfect square")
            elif rec.galois == "8T40":
                d1_factors = [(p, e) for p, e in split.k_factors
                              if p not in (2, 3) and split.d1 % p == 0]
                if split.d1 != _rad(d1_factors) ** 2:
                    report.fail(f"{label}: d1={split.d1} is not rad(d1)^2")
                if not (split.d0 <= split.n0 ** 3 and split.n0 <= split.d0 ** 3):
                    report.fail(
                        f"{label}: (d0, n0)=({split.d0}, {split.n0}) violates the cube bounds"
                    )
        report.details["octics_audited"] = audited
        report.details["sibling_multiplicity_diagnostic"] = sum(
            1 for v in sib_diag.values() if v > 1
        )

    return _checked_report(body, "counting.audit_lemmas")


def tail_count(snapshot: Snapshot, Z: int, X: int) -> int:
    """Quartic fields with |disc| <= X whose largest squarefull support exceeds Z.

    For each 4T5 record, q is the product of the primes appearing in the
    discriminant with exponent at least 2 (the largest squarefree q with
    q^2 | disc); the record is counted when q > Z.
    """
    n = 0
    for rec in query(snapshot, degree=4, galois_filter=["4T5"], max_abs_disc=X):
        q = 1
        for p, e in rec.disc_factors:
            if e >= 2:
                q *= p
        if q > Z:
            n += 1
    return n


@dataclass(frozen=True)
class FitReport:
    """Empirical comparison of a count series against the C*X main term."""

    theta_target: float
    sup_ratio: float
    slope: Optional[float]
    checkpoints: tuple[int, ...]
    residuals: tuple[float, ...]
    caveat_band: tuple[float, ...] = field(default=())
    provenance: str = ""


def fit_error(
    series: CountSeries,
    C: PartialConstant,
    provenance: str = "",
    theta: float = THETA_TARGET,
) -> FitReport:
    """Sup-ratio and log-log slope of the residuals N(X) - C*X."""
    if len(series.checkpoints) < 3:
        raise ValueError("need at least 3 checkpoints")
    residuals = tuple(
        n - C.value * x for x, n in zip(series.checkpoints, series.counts)
    )
    sup_ratio = max(
        abs(r) / x ** theta for x, r in zip(series.checkpoints, residuals)
    )
    pts = [
        (math.log(x), math.log(abs(r)))
        for x, r in zip(series.checkpoints, residuals)
        if abs(r) > 0
    ]
    slope: Optional[float] = None
    if len(pts) >= 3:
        slope = statistics.linear_regression(
            [u for u, _ in pts], [v for _, v in pts]
        ).slope
    band = tuple(C.error_bound * x for x in series.checkpoints)
    return FitReport(
        theta_target=theta,
        sup_ratio=sup_ratio,
        slope=slope,
        checkpoints=series.checkpoints,
        residuals=residuals,
        caveat_band=band,
        provenance=provenance,
    )
