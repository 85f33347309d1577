"""Seeded number-field records for the benchmark stores.

Everything here is computed with sympy, independently of octicount, so the
benchmark can check the program's answers against it.

* Genuine quartics: random monic quartics that sympy proves irreducible and
  whose polynomial discriminant is squarefree.  A squarefree discriminant is
  then the field discriminant (the ring index is 1) and forces the Galois
  group S4.  r1 is the exact number of real roots.  h, reg and w are
  placeholders: nothing the benchmark runs depends on their true values.
* Scaled presentations: 16 f(x/2) defines the same field as f with index
  2^6, so its polynomial discriminant is 2^12 times the field's and the
  program must treat p = 2 as untrusted.
* Model towers: quartic/octic pairs whose discriminants realise one tame
  configuration of 8T23, 8T39 or 8T40 at a fresh prime, following the
  synthetic tower model of the test suite.  Their polynomials are genuine
  (an S4 quartic f and the octic f(x^2), both proved irreducible), but the
  discriminants are model data unrelated to the polynomials, so these
  records break the rule that disc(poly) / disc(field) is a square.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Optional

from sympy import Poly, Symbol, factorint, nextprime, primerange
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor

X = Symbol("x")
REG_PLACEHOLDER = "1.00000000000000"
COEFF_BOUND = 9
BASE_PRIME = 283

# (v_disc_K, v_norm) of every tame configuration, in the order
# octicount.splitting.enumerate_tame_configs lists them, with the exponent of
# the base prime in |disc K|.  Frozen here so that building a store does not
# run the code under test; selftest.py re-derives them from octicount.
TOWER_BASE_EXP = {"8T23": 1, "8T39": 1, "8T40": 2}
TAME_PROFILES = {
    "8T23": "11 04 11 04 04 04 04 20 20 20 20 22 22 22 22 22 22 31 31",
    "8T39": "02 10 04 12 20 20 02 02 02 02 02 02 02 10 10 10 10 10 10 10 04 04 04 04 04 "
            "12 12 12 12 12 12 12 20 20 20 20 20 20 20 20 20 20 20 20 20 20 04 02 02 04 "
            "04 04 20 20 20 20 20 20 20 20 12 22 30 30 12 12 12 22 22 22 22 22 22 22 30 "
            "30 30 30 30 30 22 22",
    "8T40": "02 11 04 20 02 02 02 02 02 02 02 11 11 11 04 04 04 04 04 20 20 20 04 02 02 "
            "04 04 04 20 20 20 20 20 11 13 22 22 11 11 11 13 13 13 22 22 22 22 22 22 22 "
            "22 22 22 22 22 22 22 11 13 22 22 22 22 22 22 31 31 31 31 31 31 31 31",
}


def tame_profiles(label: str) -> list[tuple[int, int]]:
    return [(int(tok[0]), int(tok[1])) for tok in TAME_PROFILES[label].split()]


@dataclass(frozen=True)
class Record:
    """One field record in the ingest format (coefficients ascending)."""

    label: str
    coeffs: tuple[int, ...]
    disc: int
    disc_factors: tuple[tuple[int, int], ...]
    galois: str
    r1: int
    parent_label: Optional[str] = None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def as_json(self) -> str:
        obj = {
            "label": self.label,
            "degree": str(self.degree),
            "coeffs": [str(c) for c in self.coeffs],
            "disc": str(self.disc),
            "disc_factors": [[str(p), str(e)] for p, e in self.disc_factors],
            "galois": self.galois,
            "r1": str(self.r1),
            "r2": str((self.degree - self.r1) // 2),
        }
        if self.degree == 4:
            obj.update(h="1", reg=REG_PLACEHOLDER, w="2")
        if self.parent_label is not None:
            obj["parent_label"] = self.parent_label
        return json.dumps(obj, sort_keys=True)


def poly(coeffs) -> Poly:
    return Poly(list(reversed(coeffs)), X)


def poly_disc(coeffs) -> int:
    return int(poly(coeffs).discriminant())


@dataclass(frozen=True)
class Quartic:
    """A genuine S4 quartic field given by a monic f of index 1."""

    coeffs: tuple[int, ...]
    disc: int
    disc_factors: tuple[tuple[int, int], ...]
    r1: int

    def scaled(self) -> tuple[int, ...]:
        """Coefficients of 16 f(x/2), the same field with index 2^6."""
        return tuple(c * 2 ** (4 - i) for i, c in enumerate(self.coeffs))


def random_quartic(rng: random.Random, seen: set) -> Quartic:
    while True:
        coeffs = tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(4)) + (1,)
        if coeffs in seen:
            continue
        disc = poly_disc(coeffs)
        if disc == 0:
            continue
        factors = factorint(abs(disc))
        if any(e > 1 for e in factors.values()):
            continue
        f = poly(coeffs)
        if not f.is_irreducible:
            continue
        seen.add(coeffs)
        return Quartic(coeffs, disc, tuple(sorted(factors.items())), int(f.count_roots()))


def quartic_record(label: str, q: Quartic, scaled: bool = False) -> Record:
    coeffs = q.scaled() if scaled else q.coeffs
    return Record(label, coeffs, q.disc, q.disc_factors, "4T5", q.r1)


def tower_records(label: str, galois: str, q: Quartic, p: int, v_k: int, v_norm: int):
    """A quartic/octic pair realising one tame configuration at the prime p.

    |disc K| = 283^b p^v_k and |disc L| = disc K^2 p^v_norm, with signs from
    the signatures (Brill).  The octic is f(x^2) for the quartic f; the
    caller has checked that it is irreducible.
    """
    b = TOWER_BASE_EXP[galois]
    k_factors = sorted([(BASE_PRIME, b)] + ([(p, v_k)] if v_k else []))
    dk = math.prod(q_ ** e for q_, e in k_factors)
    l_exp = 2 * v_k + v_norm
    l_factors = sorted([(BASE_PRIME, 2 * b)] + ([(p, l_exp)] if l_exp else []))
    dl = dk * dk * p ** v_norm
    r2_k = (4 - q.r1) // 2
    octic = octic_coeffs(q.coeffs)
    r1_l = 2 * int(poly(q.coeffs).count_roots(0))  # x^2 = theta for each root theta > 0
    r2_l = (8 - r1_l) // 2
    k = Record(f"{label}.K", q.coeffs, (-1) ** r2_k * dk, tuple(k_factors), "4T5", q.r1)
    l_ = Record(f"{label}.L", octic, (-1) ** r2_l * dl, tuple(l_factors), galois, r1_l,
                parent_label=k.label)
    return k, l_


def octic_coeffs(quartic: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for c in quartic:
        out += [c, 0]
    return tuple(out[:-1])


# ---------------------------------------------------------------------------
# Stores


@dataclass
class EulerStore:
    records: list[Record]
    quartics: list[Quartic]        # parallel to records
    constant_Z: int                # picks the handful of smallest fields
    constant_terms: int
    fit_Z: int
    checkpoints: list[int]
    counts: list[int]              # quartic fields with |disc| <= X


def euler_store(seed: int, n_fields: int = 100, n_constant: int = 2) -> EulerStore:
    rng = random.Random(f"euler-{seed}")
    seen: set = set()
    quartics = [random_quartic(rng, seen) for _ in range(n_fields)]
    order = sorted(range(n_fields), key=lambda i: (abs(quartics[i].disc), i))
    constant_Z = abs(quartics[order[n_constant - 1]].disc)
    # A seeded quarter of the fields, and always the smallest one, come as
    # 16 f(x/2) so that p = 2 takes the untrusted path in both commands.
    scaled = {i for i in range(n_fields) if rng.random() < 0.25} | {order[0]}
    records = [quartic_record(f"E{i:03d}", q, i in scaled) for i, q in enumerate(quartics)]
    discs = sorted(abs(q.disc) for q in quartics)
    checkpoints = geometric_checkpoints(discs[0], discs[-1], 12)
    return EulerStore(
        records=records,
        quartics=quartics,
        constant_Z=constant_Z,
        constant_terms=sum(1 for d in discs if d <= constant_Z),
        fit_Z=discs[-1],
        checkpoints=checkpoints,
        counts=[sum(1 for d in discs if d <= x) for x in checkpoints],
    )


@dataclass
class TowerStore:
    records: list[Record]
    octics: int
    checkpoints: list[int]
    counts: list[int]              # octic fields with |disc| <= X


def tower_store(seed: int, n_quartics: int = 1200, repeats: int = 3) -> TowerStore:
    """Genuine quartics plus `repeats` model towers per tame configuration."""
    rng = random.Random(f"store-{seed}")
    seen: set = set()
    records = [quartic_record(f"Q{i:05d}", random_quartic(rng, seen))
               for i in range(n_quartics)]
    p = int(nextprime(500 + rng.randrange(5000)))
    octic_discs = []
    n = 0
    for _ in range(repeats):
        for galois in TOWER_BASE_EXP:
            for v_k, v_norm in tame_profiles(galois):
                while True:
                    q = random_quartic(rng, seen)
                    if poly(octic_coeffs(q.coeffs)).is_irreducible:
                        break
                k, l_ = tower_records(f"T{n:05d}", galois, q, p, v_k, v_norm)
                records += [k, l_]
                octic_discs.append(abs(l_.disc))
                p = int(nextprime(p))
                n += 1
    octic_discs.sort()
    checkpoints = geometric_checkpoints(octic_discs[0], octic_discs[-1], 12)
    return TowerStore(
        records=records,
        octics=len(octic_discs),
        checkpoints=checkpoints,
        counts=[sum(1 for d in octic_discs if d <= x) for x in checkpoints],
    )


def geometric_checkpoints(lo: int, hi: int, n: int) -> list[int]:
    out: list[int] = []
    for i in range(n):
        x = int(round(math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) * i / (n - 1))))
        x = max(x, out[-1] + 1) if out else x
        out.append(x)
    out[-1] = max(out[-1], hi)
    return out


def write_records(path: str, records: list[Record]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.as_json() + "\n")


# ---------------------------------------------------------------------------
# Independent enclosure of the partial constant


def zeta2_enclosure(q: Quartic, prime_bound: int) -> tuple[float, float]:
    """Bounds on zeta_K(2) from sympy's factorization of f over GF(p).

    f has index 1, so for every p its factorization mod p gives the residue
    degrees exactly.  The omitted primes contribute a factor between 1 and
    exp(4 sum_{n > P} n^-2 / (1 - P^-2)) <= exp(4 / (P - 1) / (1 - P^-2)).
    The product is widened by 1e-9 relative for floating-point rounding.
    """
    value = 1.0
    coeffs = list(reversed(q.coeffs))
    for p in primerange(2, prime_bound + 1):
        _, factors = gf_factor([c % p for c in coeffs], p, ZZ)
        for g, _mult in factors:
            value /= 1.0 - float(p) ** (-2.0 * (len(g) - 1))
    P = prime_bound
    tail = math.exp(4.0 / (P - 1) / (1.0 - P ** -2.0))
    return value * (1 - 1e-9), value * tail * (1 + 1e-9)


def constant_enclosure(quartics: list[Quartic], Z: int, prime_bound: int) -> tuple[float, float]:
    """Bounds on C(Z) = sum of res_K / (zeta_K(2) 2^r2 disc^2) over |disc| <= Z."""
    lo = hi = 0.0
    for q in quartics:
        if abs(q.disc) > Z:
            continue
        r2 = (4 - q.r1) // 2
        resid = 2.0 ** q.r1 * (2.0 * math.pi) ** r2 * 1.0 / (2.0 * math.sqrt(abs(q.disc)))
        z_lo, z_hi = zeta2_enclosure(q, prime_bound)
        denom = 2.0 ** r2 * float(q.disc) ** 2
        lo += resid * (1 - 1e-9) / (z_hi * denom)
        hi += resid * (1 + 1e-9) / (z_lo * denom)
    return lo, hi
