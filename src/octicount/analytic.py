"""Per-field analytic quantities: zeta residues, zeta at 2, the constant C.

Every operation returns a value together with a finite, rigorously
accumulated error bound; no bare floats leave this module.  Euler products
are driven by polynomial factorization over prime fields, of which only
factor degrees and multiplicities matter.  The general path is squarefree
decomposition plus distinct-degree factorization (`factor_mod_p`).  One
rule, `_on_lane`, sends a monic f of degree n <= 8 at a prime
max(5, n + 1) <= p <= MAX_PRIME_BOUND not dividing disc(f) to the
Frobenius-trace kernel instead, one numpy lane per (polynomial, prime) pair:
the traces give the pattern, and Stickelberger's theorem,
(disc f / p) = (-1)^(n - number of factors), checks it against the integer
discriminant on every lane.  A field's Euler product takes all of its lane
primes in one pass, and the irreducibility prescreen of `nfdata` all the
records of an ingest.  `factor_mod_p` keeps the rest: the primes below
max(5, n + 1), the primes dividing disc(f), and those above MAX_PRIME_BOUND.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from typing import Callable, Iterator, Sequence

from .arith import is_prime, primes_up_to
from .nfdata import Snapshot, query

__all__ = [
    "KAPPA",
    "MAX_PRIME_BOUND",
    "LocalFactorData",
    "ZetaValue",
    "PartialConstant",
    "factor_mod_p",
    "local_factor_data",
    "zeta_K_at_2",
    "zeta_residue",
    "partial_constant",
]

# 2-torsion class group bound exponent; used only to annotate reports.
KAPPA = 0.2784

# Largest prime bound P of an Euler product; its sieve is a P-byte bytearray.
MAX_PRIME_BOUND = 10 ** 7


@dataclass(frozen=True)
class LocalFactorData:
    """Residue degrees of the primes above p, with trust bookkeeping."""

    p: int
    residue_degrees: tuple[int, ...]
    ramified: bool
    trusted: bool


@dataclass(frozen=True)
class ZetaValue:
    value: float
    error_bound: float

    def __post_init__(self):
        if not (math.isfinite(self.error_bound) and self.error_bound >= 0):
            raise ValueError("error bound must be finite and nonnegative")
        if not (self.value > 0):
            raise ValueError("zeta values here are positive")

    def contains(self, x: float) -> bool:
        return abs(x - self.value) <= self.error_bound


@dataclass(frozen=True)
class PartialConstant:
    """Partial sum C(Z) of the leading-constant series over quartic fields."""

    Z: int
    value: float
    error_bound: float
    terms: int
    prime_bound: int
    term_list: tuple[tuple[str, float, float], ...] = field(default=())


# ---------------------------------------------------------------------------
# Polynomial arithmetic over F_p (dense, ascending coefficients)


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _polymulmod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _polyrem(a: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    """a mod the monic g over F_p, trimmed."""
    a = list(a)
    db, low = len(g) - 1, g[:-1]
    while len(a) > db:
        c = a.pop()
        if c:
            k = len(a) - db
            a[k:] = [(ai - c * bi) % p for ai, bi in zip(a[k:], low)]
    return _trim(a)


def _polygcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd over F_p of two trimmed polynomials, by Euclid on monic divisors."""
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _polyrem(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _polydiv(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a = list(a)
    db, inv, low = len(b) - 1, pow(b[-1], -1, p), b[:-1]
    q = []
    while len(a) > db:
        c = a.pop() * inv % p
        q.append(c)
        if c:
            k = len(a) - db
            a[k:] = [(ai - c * bi) % p for ai, bi in zip(a[k:], low)]
    if any(a):
        raise ArithmeticError("non-exact polynomial division")
    q.reverse()
    return _trim(q)


def _derivative(a: Sequence[int], p: int) -> list[int]:
    return _trim([(i * a[i]) % p for i in range(1, len(a))])


def _pth_root(a: Sequence[int], p: int) -> list[int]:
    """p-th root of a polynomial in F_p[x^p] (coefficientwise, Frobenius fixes F_p)."""
    return _trim([a[i] for i in range(0, len(a), p)])


def _squarefree_parts(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Squarefree decomposition over F_p: list of (monic squarefree part, multiplicity)."""
    out: list[tuple[list[int], int]] = []
    df = _derivative(f, p)
    if not df:
        for g, m in _squarefree_parts(_pth_root(f, p), p):
            out.append((g, m * p))
        return out
    c = _polygcd(f, df, p)
    if len(c) == 1:
        # gcd(f, f') = 1 exactly when p does not divide disc(f): f is
        # already squarefree, the common case, and needs no split.
        return [(f, 1)]
    w = _polydiv(f, c, p)
    i = 1
    while len(w) > 1:
        y = _polygcd(w, c, p)
        z = _polydiv(w, y, p)
        if len(z) > 1:
            out.append((z, i))
        w, c = y, _polydiv(c, y, p)
        i += 1
    if len(c) > 1:
        for g, m in _squarefree_parts(_pth_root(c, p), p):
            out.append((g, m * p))
    return out


def _distinct_degree(g: list[int], p: int) -> list[tuple[int, list[int]]]:
    """Distinct-degree factorization of a monic squarefree g over F_p.

    Returns (d, product of the irreducible factors of degree d) pairs.  h runs
    through x^(p^d) modulo the part of g not yet split off, one p-th power
    per degree.
    """
    out: list[tuple[int, list[int]]] = []
    rest, h = g, [0, 1]
    d = 1
    while len(rest) - 1 >= 2 * d:
        base = h  # h^p by left-to-right square-and-multiply
        for bit in bin(p)[3:]:
            h = _polyrem(_polymulmod(h, h, p), rest, p)
            if bit == "1":
                h = _polyrem(_polymulmod(h, base, p), rest, p)
        sub = h + [0] * (2 - len(h))
        sub[1] = (sub[1] - 1) % p  # x^(p^d) - x
        gd = _polygcd(_trim(sub), rest, p)
        if len(gd) > 1:
            if (len(gd) - 1) % d:
                raise RuntimeError(
                    f"distinct-degree factorization mod {p}: a factor of "
                    f"degree {len(gd) - 1} is not a product of degree-{d} factors")
            out.append((d, gd))
            rest = _polydiv(rest, gd, p)
        d += 1
    if len(rest) > 1:
        out.append((len(rest) - 1, rest))
    return out


def _check_prime(p: int) -> None:
    if p >= 2 ** 61 or not is_prime(p):
        raise ValueError(f"{p} is not a prime below 2^61")


def factor_mod_p(coeffs: Sequence[int], p: int) -> tuple[tuple[int, int], ...]:
    """Degrees-with-multiplicities of the irreducible factors of a monic poly mod p.

    Squarefree decomposition followed by distinct-degree factorization; the
    reassembled product is checked against the input before returning.  One
    output entry per irreducible factor, as a sorted (degree, multiplicity)
    multiset.
    """
    _check_prime(p)
    if coeffs[-1] % p != 1:
        raise ValueError("polynomial must be monic")
    if len(coeffs) - 1 > 8:
        raise ValueError("degree capped at 8")
    f = _trim([c % p for c in coeffs])
    if len(f) == 1:
        return ()
    out: list[tuple[int, int]] = []
    # Re-multiplication check: the product of all pieces with multiplicity
    # must reproduce the input mod p.
    check = [1]
    for g, mult in _squarefree_parts(f, p):
        for d, gd in _distinct_degree(g, p):
            out.extend([(d, mult)] * ((len(gd) - 1) // d))
            for _ in range(mult):
                check = _polymulmod(check, gd, p)
    if check != f:
        raise RuntimeError(f"re-multiplication check failed in factor_mod_p mod {p}")
    return tuple(sorted(out))


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts <= largest, each as an ascending tuple."""
    if n == 0:
        yield ()
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield rest + (k,)


@lru_cache(maxsize=None)
def _patterns_by_traces(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Residue degrees of a squarefree f of degree n mod a prime p > n, keyed by traces.

    The key is (Tr Q, ..., Tr Q^(n//2)) for Q the Frobenius matrix, and
    Tr Q^k = sum over d | k of d n_d exactly, with n_d the number of factors
    of degree d.  The traces give every n_d with d <= n/2, and the degrees
    left over form at most one factor.  The check below proves the table
    injective for this n.
    """
    table = {tuple(sum(d for d in parts if k % d == 0) for k in range(1, n // 2 + 1)): parts
             for parts in _partitions(n, n)}
    if len(table) != sum(1 for _ in _partitions(n, n)):
        raise RuntimeError(f"Frobenius traces do not determine the factor degrees of degree {n}")
    return table


def _on_lane(n: int) -> Callable[[int, int], bool]:
    """Which (f, p) lanes the Frobenius-trace kernel takes, for f of degree n.

    The returned test of a prime p and disc = disc(f) holds when 2 <= n <= 8,
    max(5, n + 1) <= p <= MAX_PRIME_BOUND and p does not divide disc.  Then
    f is squarefree mod p, the traces, at most n < p, are exact mod p, and
    int64 never wraps (see `_frobenius_traces`).  On the Euler path every
    other pair goes to `factor_mod_p`; the irreducibility prescreen skips it.
    """
    low = max(5, n + 1) if 2 <= n <= 8 else MAX_PRIME_BOUND + 1
    return lambda p, disc: low <= p <= MAX_PRIME_BOUND and disc % p != 0


# Lanes per numpy pass: the largest array is (n, n, 4096) int64 for degree n.
_LANE_CHUNK = 4096


def _frobenius_traces(polys: Sequence[Sequence[int]],
                      primes: Sequence[int]) -> list[tuple[int, ...]]:
    """(Tr Q, ..., Tr Q^(n//2)) mod p for each lane (f, p), Q the Frobenius matrix of F_p[x]/(f).

    One int64 lane per (polynomial, prime) pair; every f is monic of one
    degree 2 <= n <= 8.  Q has the rows x^(ip) mod f, i < n, with x^p by
    left-to-right square-and-multiply: every lane takes the same steps and
    multiplies by x only where its own bit of p is set.  Tr Q^3 and Tr Q^4
    come from Q^2.  Coefficients are < p <= MAX_PRIME_BOUND = 10^7.  A
    product's unreduced coefficient is at most n(p-1)^2 and the n - 1 folds
    through x^n mod f add at most (n-1)(p-1)^2; a trace sums n^2 products of
    residues.  So every value stays below n^2 p^2 <= 6.4e15 < 2^63, and int64
    never wraps.
    """
    import numpy as np

    n = len(polys[0]) - 1
    p = np.array(primes, np.int64)
    g = np.array([[-f[i] % q for f, q in zip(polys, primes)] for i in range(n)],
                 np.int64)  # x^n mod f

    def mul(a, b):
        c = np.zeros((2 * n - 1, len(primes)), np.int64)
        for i in range(n):
            c[i:i + n] += a[i] * b
        for k in range(2 * n - 2, n - 1, -1):
            c[k - n:k] += c[k] % p * g
        return c[:n] % p

    def times_x(a):
        c = a[n - 1] * g
        c[1:] += a[:n - 1]
        return c % p

    xp = one = np.eye(n, 1, dtype=np.int64).repeat(len(primes), axis=1)
    for bit in reversed(range(max(primes).bit_length())):
        xp = mul(xp, xp)
        xp = np.where((p >> bit) & 1 == 1, times_x(xp), xp)
    rows = [one, xp]
    while len(rows) < n:
        rows.append(mul(rows[-1], xp))
    q = np.stack(rows)
    traces = [np.einsum("iil->l", q), np.einsum("ijl,jil->l", q, q)]
    if n >= 6:
        q2 = np.einsum("ijl,jkl->ikl", q, q) % p
        traces += [np.einsum("ijl,jil->l", q2, q), np.einsum("ijl,jil->l", q2, q2)]
    return list(zip(*((t % p).tolist() for t in traces[:n // 2])))


def _frobenius_lanes(polys: Sequence[Sequence[int]], primes: Sequence[int],
                     discs: Sequence[int]) -> list[tuple[int, ...]]:
    """Residue degrees of each polys[i] mod primes[i], a numpy pass per chunk of lanes.

    Every polynomial is monic of one degree n, every p prime, and discs[i] is
    the discriminant of polys[i]; every lane must pass `_on_lane`, so f is
    squarefree mod p and the Frobenius traces, exact as they are at most n < p,
    give its pattern.  Each polynomial and each prime is checked once, the
    lane rule once per lane.  Stickelberger's theorem checks every lane:
    (disc / p) = (-1)^(n - #factors), by Euler's criterion.  A trace tuple
    outside the table, or a mismatch, raises RuntimeError.
    """
    if not primes:
        return []
    n = len(polys[0]) - 1
    for p in set(primes):
        _check_prime(p)
    distinct = set(map(tuple, polys))
    ns = {len(f) - 1 for f in distinct}
    if len(ns) > 1:
        raise ValueError(f"need polynomials of one degree, got degrees {sorted(ns)}")
    # Monic mod p: only a leading coefficient other than 1 needs its primes.
    if any(f[-1] != 1 for f in distinct) and any(f[-1] % p != 1 for f, p in zip(polys, primes)):
        raise ValueError("polynomial must be monic")
    on_lane = _on_lane(n)
    for p, disc in zip(primes, discs):
        if not on_lane(p, disc):
            raise ValueError(f"need polynomials of one degree 2 <= n <= 8 and a prime "
                             f"{max(5, n + 1)} <= p <= {MAX_PRIME_BOUND} not dividing {disc}, "
                             f"got p = {p}")
    table = _patterns_by_traces(n)
    out = []
    for start in range(0, len(primes), _LANE_CHUNK):
        chunk = slice(start, start + _LANE_CHUNK)
        for p, disc, traces in zip(primes[chunk], discs[chunk],
                                   _frobenius_traces(polys[chunk], primes[chunk])):
            degrees = table.get(traces)
            chi = 1 if pow(disc, (p - 1) // 2, p) == 1 else -1
            if degrees is None or chi != (-1) ** (n - len(degrees)):
                raise RuntimeError(
                    f"degree {n} mod {p}: Frobenius traces {traces} do not match the "
                    f"Legendre symbol {chi} of the discriminant (Stickelberger)")
            out.append(degrees)
    return out


# ---------------------------------------------------------------------------
# Euler products and residues


@lru_cache(maxsize=4096)
def _poly_disc(coeffs: tuple[int, ...]) -> int:
    """disc(f) from the Newton power sums s_k of the roots, once per coefficient tuple.

    For monic F of degree n, disc(F) = prod over i < j of (r_i - r_j)^2 is the
    determinant of the Hankel matrix [s_(i+j)], 0 <= i, j < n, which Newton's
    identities give in integers.  It is taken by fraction-free (Bareiss)
    elimination: every division is exact, so every intermediate entry is an
    integer minor.  A leading coefficient a goes through F(y) = a^(n-1) f(y/a),
    which is monic with integer coefficients and disc(F) = a^((n-1)(n-2)) disc(f).
    """
    n = len(coeffs) - 1
    if n == 1:
        return 1
    lead = coeffs[-1]
    # e[j] is the coefficient of y^(n-1-j) in F.
    e = [c * lead ** j for j, c in enumerate(coeffs[-2::-1])]
    s = [n]
    for k in range(1, 2 * n - 1):
        t = sum(map(operator.mul, e[:k - 1], s[k - 1::-1]))  # e_j s_(k-1-j), j < min(k-1, n)
        s.append(-t - k * e[k - 1] if k <= n else -t)
    m = [s[i:i + n] for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        row_k, pivot = m[k], m[k][k]
        for row in m[k + 1:]:
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - c * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1] // lead ** ((n - 1) * (n - 2))


def _local_factors(record, primes: Sequence[int]) -> Iterator[LocalFactorData]:
    """`local_factor_data` at each of primes in turn, the kernel lanes in one pass."""
    coeffs = tuple(record.coeffs)
    disc_poly = _poly_disc(coeffs)
    q, r = divmod(disc_poly, record.disc)
    on_lane = _on_lane(len(coeffs) - 1)
    mask = [on_lane(p, disc_poly) for p in primes]
    lane_primes = list(compress(primes, mask))
    k = len(lane_primes)
    lanes = iter(_frobenius_lanes([coeffs] * k, lane_primes, [disc_poly] * k))
    for p, lane in zip(primes, mask):
        if lane:
            degrees, ramified = next(lanes), False
        else:
            pattern = factor_mod_p(coeffs, p)
            degrees = tuple(sorted(d for d, _ in pattern))
            ramified = any(mult > 1 for _, mult in pattern)
        yield LocalFactorData(p, degrees, ramified, trusted=(r == 0) and (q % p != 0))


def local_factor_data(record, p: int) -> LocalFactorData:
    """Residue degrees above p, trusted iff p cannot divide the ring index.

    Trust rule: p is trusted iff p does not divide disc(poly)/disc(field);
    for trusted p the factorization of the polynomial mod p gives the exact
    splitting (one prime per irreducible factor, residue degree = factor
    degree) including the ramified case.

    A pair that `_on_lane` admits (degree n <= 8, a prime
    max(5, n + 1) <= p <= MAX_PRIME_BOUND not dividing disc(poly)) is
    unramified and takes `_frobenius_lanes` with one lane, checked against the
    Legendre symbol of disc(poly) mod p.  Every other case, the smallest
    primes and p | disc(poly) included, goes through `factor_mod_p`.
    """
    return next(_local_factors(record, (p,)))


def _checked_prime_bound(prime_bound: int) -> int:
    P = int(prime_bound)
    if not 100 <= P <= MAX_PRIME_BOUND:
        raise ValueError(
            f"need 100 <= prime bound <= MAX_PRIME_BOUND = {MAX_PRIME_BOUND}, got {P}")
    return P


def zeta_K_at_2(record, prime_bound: int = 10 ** 5) -> ZetaValue:
    """Dedekind zeta at s = 2 by a truncated Euler product with rigorous bounds.

    Local factors at trusted primes are those of `local_factor_data`: every
    prime p <= P that `_on_lane` admits in one `_frobenius_lanes` call, and
    otherwise the factorization of the defining polynomial mod p.  Untrusted
    primes contribute a bracket between 1 and (1 - p^-2)^(-degree).  The
    truncation tail is bounded via sum_{p > P} p^-2 <= 1/(P - 1).  Needs
    100 <= P <= MAX_PRIME_BOUND.
    """
    P = _checked_prime_bound(prime_bound)
    degree = len(record.coeffs) - 1
    lower = upper = 1.0
    # One sieve per prime bound, shared by every field of the run.
    for data in _local_factors(record, primes_up_to(P)):
        p = data.p
        if data.trusted:
            factor = 1.0
            for f in data.residue_degrees:
                factor /= 1.0 - p ** (-2.0 * f)
            lower *= factor
            upper *= factor
        else:
            upper *= (1.0 - p ** -2.0) ** (-degree)
    # Multiplicative tail bound over the omitted primes.
    tail = math.exp(degree * (1.0 / (P - 1)) / (1.0 - P ** -2.0))
    upper *= tail
    value = 0.5 * (lower + upper)
    err = 0.5 * (upper - lower)
    # One ulp of slack per multiplication keeps the bound honestly directed.
    err += 8e-16 * value * (P / math.log(max(P, 3)))
    return ZetaValue(value=value, error_bound=err)


_REG_REL_ERR = 1e-11  # regulators carry >= 12 significant digits


def zeta_residue(record) -> ZetaValue:
    """Residue at s = 1 of zeta_K via the class number formula."""
    missing = [
        name
        for name in ("h", "reg", "w")
        if getattr(record, name, None) is None
    ]
    if missing:
        raise ValueError(f"{record.label}: missing invariants {missing}")
    value = (
        2.0 ** record.r1
        * (2.0 * math.pi) ** record.r2
        * record.h
        * record.reg_float
        / (record.w * math.sqrt(abs(record.disc)))
    )
    return ZetaValue(value=value, error_bound=value * _REG_REL_ERR)


def partial_constant(
    snapshot: Snapshot,
    Z: int,
    prime_bound: int = 10 ** 5,
    emit_terms: bool = False,
) -> PartialConstant:
    """Partial sum C(Z) over the quartic S4 fields with |disc| <= Z."""
    _checked_prime_bound(prime_bound)
    value = 0.0
    err = 0.0
    term_list: list[tuple[str, float, float]] = []
    fields = query(snapshot, degree=4, galois_filter=["4T5"], max_abs_disc=Z)
    for rec in fields:  # already sorted by (|disc|, label)
        try:
            resid = zeta_residue(rec)
            z2 = zeta_K_at_2(rec, prime_bound)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"constant evaluation failed at {rec.label}: {exc}") from exc
        denom = 2.0 ** rec.r2 * float(rec.disc) ** 2
        t_lo = (resid.value - resid.error_bound) / ((z2.value + z2.error_bound) * denom)
        t_up = (resid.value + resid.error_bound) / ((z2.value - z2.error_bound) * denom)
        t_mid = 0.5 * (t_lo + t_up)
        t_err = 0.5 * (t_up - t_lo)
        value += t_mid
        err += t_err
        if emit_terms:
            term_list.append((rec.label, t_mid, t_err))
    return PartialConstant(
        Z=Z,
        value=value,
        error_bound=err,
        terms=len(fields),
        prime_bound=prime_bound,
        term_list=tuple(term_list),
    )
