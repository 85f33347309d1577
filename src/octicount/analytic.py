"""Per-field analytic quantities: zeta residues, zeta at 2, the constant C.

Every operation returns a value together with a finite, rigorously
accumulated error bound; no bare floats leave this module.  Euler products
are driven by polynomial factorization over prime fields, of which only
factor degrees and multiplicities matter.  The general path is squarefree
decomposition plus distinct-degree factorization (`factor_mod_p`).  The
Frobenius-trace kernel `_frobenius_lanes` takes polynomials and one list of
ascending primes, and decides itself which pairs (f, p) are its lanes: for
f monic of degree 2 <= n <= 8, the primes max(5, n + 1) <= p <= MAX_PRIME_BOUND
that do not divide disc(f), one numpy lane each.  Its Python runs once per
polynomial; every step per lane runs on numpy int64 arrays.  The traces give
the pattern, and Stickelberger's theorem, (disc f / p) = (-1)^(n - number of
factors), checks it against the integer discriminant on every lane.  A
partial constant hands the kernel its fields and the sieve primes, 16 lane
chunks of fields per call at most, and the irreducibility prescreen of
`nfdata` its open polynomials and the next few primes, once per round.
Every other prime of a field goes to `factor_mod_p` on the Euler path: p below
max(5, n + 1), p | disc(f), p > MAX_PRIME_BOUND, and every p when f is not
monic.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import compress, repeat
from typing import Iterator, NamedTuple, Optional, Sequence

from .arith import is_prime, is_prime_lanes, powmod_lanes, primes_up_to
from .nfdata import QUARTIC_LABEL, Snapshot, query

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


class LocalFactorData(NamedTuple):
    """Residue degrees of the primes above p, with trust bookkeeping."""

    p: int
    residue_degrees: tuple[int, ...]
    ramified: bool
    trusted: bool


class ZetaValue(tuple):
    """A positive value with a finite error bound: the tuple (value, error_bound)."""

    __slots__ = ()

    def __new__(cls, value: float, error_bound: float):
        if not (math.isfinite(error_bound) and error_bound >= 0):
            raise ValueError("error bound must be finite and nonnegative")
        if not (value > 0):
            raise ValueError("zeta values here are positive")
        return tuple.__new__(cls, (value, error_bound))

    value = property(operator.itemgetter(0))
    error_bound = property(operator.itemgetter(1))


class PartialConstant(NamedTuple):
    """Partial sum C(Z) of the leading-constant series over quartic fields."""

    value: float
    error_bound: float
    term_list: tuple[tuple[str, float, float], ...]


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


def _polydivmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p, b trimmed and nonzero, both trimmed."""
    a = list(a)
    db, inv, low = len(b) - 1, pow(b[-1], -1, p), b[:-1]
    q = []
    while len(a) > db:
        c = a.pop() * inv % p
        q.append(c)
        if c:
            k = len(a) - db
            a[k:] = [(ai - c * bi) % p for ai, bi in zip(a[k:], low)]
    q.reverse()
    return _trim(q), _trim(a)


def _polygcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd over F_p of two trimmed polynomials, by Euclid."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _polydivmod(a, b, p)[1]
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _polydiv(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """a / b over F_p, where the division must be exact."""
    q, r = _polydivmod(a, b, p)
    if r:
        raise ArithmeticError("non-exact polynomial division")
    return q


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
            h = _polydivmod(_polymulmod(h, h, p), rest, p)[1]
            if bit == "1":
                h = _polydivmod(_polymulmod(h, base, p), rest, p)[1]
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


def factor_mod_p(coeffs: Sequence[int], p: int) -> tuple[tuple[int, int], ...]:
    """Degrees-with-multiplicities of the irreducible factors of a monic poly mod p.

    Squarefree decomposition followed by distinct-degree factorization; the
    reassembled product is checked against the input before returning.  One
    output entry per irreducible factor, as a sorted (degree, multiplicity)
    multiset.
    """
    if p >= 2 ** 61 or not is_prime(p):
        raise ValueError(f"{p} is not a prime below 2^61")
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


# Lanes per numpy pass: the largest array is (n, n, 4096) int64 for degree n.
_LANE_CHUNK = 4096


def _residues(values: Sequence[Sequence[int]], p):
    """values[i][c] mod p[j] for each column c, kernel row i and prime j, as an array [c, i, j].

    values holds one tuple of integers of any size per kernel row; the Python
    work is per value, never per prime.  Horner's rule runs over the 31-bit
    limbs of |value|, most significant first, and the sign comes last.  Every
    r < p <= MAX_PRIME_BOUND < 2^24, so r 2^31 + limb < 2^55: int64 never wraps.
    """
    import numpy as np

    columns = list(zip(*values))
    mags = [list(map(abs, col)) for col in columns]
    top = max(1, *(max(col).bit_length() for col in mags))
    r = 0
    for shift in range((top - 1) // 31 * 31, -1, -31):
        limbs = np.array([[m >> shift & 0x7FFFFFFF for m in col] for col in mags], np.int64)
        r = (r << 31 | limbs[:, :, None]) % p
    signs = np.array([[(v > 0) - (v < 0) for v in col] for col in columns], np.int64)
    return r * signs[:, :, None] % p


def _frobenius_traces(g, p):
    """(Tr Q, ..., Tr Q^(n//2)) mod p on each lane, Q the Frobenius matrix of F_p[x]/(f).

    g is the (n, lanes) int64 array of x^n mod f, for f monic of one degree
    2 <= n <= 8, and p the lane primes; returns an (n//2, lanes) array.  Q has
    the rows x^(ip) mod f, i < n, with x^p by left-to-right square-and-multiply:
    every lane takes the same steps and multiplies by x only where its own bit
    of p is set.  Tr Q^3 and Tr Q^4 come from Q^2.  Coefficients are
    < p <= MAX_PRIME_BOUND = 10^7.  A product's unreduced coefficient is at
    most n(p-1)^2 and the n - 1 folds through x^n mod f add at most
    (n-1)(p-1)^2; a trace sums n^2 products of residues.  So every value stays
    below n^2 p^2 <= 6.4e15 < 2^63, and int64 never wraps.
    """
    import numpy as np

    n, lanes = g.shape

    def mul(a, b):
        c = np.zeros((2 * n - 1, lanes), np.int64)
        for i in range(n):
            c[i:i + n] += a[i] * b
        for k in range(2 * n - 2, n - 1, -1):
            c[k - n:k] += c[k] % p * g
        return c[:n] % p

    def times_x(a):
        c = a[n - 1] * g
        c[1:] += a[:n - 1]
        return c % p

    xp = one = np.eye(n, 1, dtype=np.int64).repeat(lanes, axis=1)
    for bit in reversed(range(int(p.max()).bit_length())):
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
    return np.stack(traces[:n // 2]) % p


def _frobenius_lanes(polys: Sequence[Sequence[int]], primes: Sequence[int]
                     ) -> list[list[Optional[tuple[int, ...]]]]:
    """Residue degrees of each f of polys mod each of the primes, None off the lanes.

    The primes ascend, or ValueError.  A lane is a pair (f, p) with f monic of
    degree 2 <= n <= 8, max(5, n + 1) <= p <= MAX_PRIME_BOUND and p not
    dividing disc(f).  Then f is squarefree mod p, its Frobenius traces, exact
    as they are at most n < p, give its pattern, and int64 never wraps (see
    `_residues` and `_frobenius_traces`).  The polynomials of one degree and
    the primes of its range form a grid, one row per polynomial.  The Python
    work is per row, disc(f) once, and two bisections of the primes per call.
    Everything per pair runs on int64 arrays: disc(f) mod p and x^n mod f over
    the limbs of any integer size, then one trace pass per chunk of lanes.
    Every check runs on every lane: each lane prime is proved prime once
    (ValueError), a trace tuple outside the table raises RuntimeError, and so
    does a lane where Stickelberger's theorem fails:
    (disc / p) = (-1)^(n - #factors), by Euler's criterion.
    """
    if any(map(operator.ge, primes, primes[1:])):
        raise ValueError("the kernel's primes must ascend")
    out: list[list[Optional[tuple[int, ...]]]] = [[None] * len(primes) for _ in polys]
    rows: dict[int, list[int]] = {}  # degree -> the indices of its monic polynomials
    for i, f in enumerate(polys):
        if 2 <= len(f) - 1 <= 8 and f[-1] == 1:
            rows.setdefault(len(f) - 1, []).append(i)
    start, stop = bisect_left(primes, 5), bisect_right(primes, MAX_PRIME_BOUND)
    if not rows or start == stop:
        return out
    import numpy as np

    span = np.array(primes[start:stop], np.int64)  # every prime that can be a lane
    proved = np.zeros(len(span), bool)  # which of them are a lane of some row
    grids = {}  # degree -> (its rows, where its primes start in span, its lanes, ...)
    for n, group in rows.items():
        lo = int(np.searchsorted(span, n + 1))
        columns = span[lo:]  # the primes max(5, n + 1) <= p <= MAX_PRIME_BOUND
        disc = _residues([(_poly_disc(tuple(polys[i])),) for i in group], columns)[0]
        keep = disc != 0
        proved[lo:] |= keep.any(axis=0)
        g = _residues([[-c for c in polys[i][:n]] for i in group], columns)[:, keep]
        p = np.broadcast_to(columns, keep.shape)[keep]
        grids[n] = group, lo, keep, p, g, disc[keep]  # g = x^n mod f
    lane_primes = span[proved]
    for begin in range(0, len(lane_primes), _LANE_CHUNK):
        chunk = lane_primes[begin:begin + _LANE_CHUNK]
        for p in chunk[~is_prime_lanes(chunk)][:1].tolist():
            raise ValueError(f"{p} is not a prime below 2^61")
    for n, (group, lo, keep, p, g, disc) in grids.items():
        # A lane's traces t_k, clipped to n + 1, key `index` as the sum of
        # t_k (n + 2)^(k - 1); traces outside the table, clipped or not, find -1.
        table = _patterns_by_traces(n)
        patterns = tuple(table.values())
        keys = [sum(t * (n + 2) ** k for k, t in enumerate(traces)) for traces in table]
        index = np.full((n + 2) ** (n // 2), -1)
        index[keys] = range(len(keys))
        parity = np.array([(n - len(degrees)) % 2 for degrees in patterns])
        found = np.empty(len(p), np.int64)
        for begin in range(0, len(p), _LANE_CHUNK):
            part = slice(begin, begin + _LANE_CHUNK)
            traces = _frobenius_traces(g[:, part], p[part])
            at = index[(n + 2) ** np.arange(n // 2) @ np.minimum(traces, n + 1)]
            odd = powmod_lanes(disc[part], (p[part] - 1) // 2, p[part]) != 1
            for k in np.flatnonzero(at < 0)[:1].tolist():
                raise RuntimeError(f"degree {n} mod {p[part][k]}: Frobenius traces "
                                   f"{tuple(traces[:, k].tolist())} fit no factorization")
            for k in np.flatnonzero(odd != parity[at])[:1].tolist():
                raise RuntimeError(
                    f"degree {n} mod {p[part][k]}: Frobenius traces "
                    f"{tuple(traces[:, k].tolist())} do not match the Legendre symbol "
                    f"{-1 if odd[k] else 1} of the discriminant (Stickelberger)")
            found[part] = at
        number = np.full(keep.shape, len(patterns))  # the number of None, for p | disc
        number[keep] = found
        degrees_of = (*patterns, None).__getitem__
        for i, row in zip(group, number.tolist()):
            out[i][start + lo:stop] = map(degrees_of, row)
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


def _local_factors(records: Sequence, primes: Sequence[int]
                   ) -> Iterator[tuple[list[tuple[int, ...]], list[bool], list[bool]]]:
    """Each record's residue degrees, ramified flags and trusted flags at primes, in turn.

    The primes ascend.  One `_frobenius_lanes` call takes the polynomials of
    up to 16 lane chunks of records (one at least) and all the primes.  A
    prime is trusted when it does not divide q = disc(f)/disc(K), and q = 0
    when disc(K) does not divide disc(f), so that no prime is trusted.  A lane
    prime does not divide disc(f) = q disc(K), so it is trusted whenever
    q != 0.  The primes that are no lane go to `factor_mod_p`, and to the
    test q mod p, at their record's turn, so its errors name their record.
    Its answer depends on f mod p alone, so one answer per (p, f mod p)
    serves every record of the call.
    """
    known: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, int], ...]] = {}
    step = max(1, 16 * _LANE_CHUNK // len(primes))
    for start in range(0, len(records), step):
        batch = records[start:start + step]
        polys = [tuple(rec.coeffs) for rec in batch]
        quotients = []
        for rec, f in zip(batch, polys):
            q, r = divmod(_poly_disc(f), rec.disc)
            quotients.append(0 if r else q)
        lanes = _frobenius_lanes(polys, primes)
        for f, q, degrees in zip(polys, quotients, lanes):
            ramified, trusted = [False] * len(primes), [q != 0] * len(primes)
            for k in list(compress(range(len(primes)), map(operator.is_, degrees, repeat(None)))):
                p = primes[k]
                key = (p, tuple(c % p for c in f))
                if key not in known:
                    known[key] = factor_mod_p(f, p)
                pattern = known[key]
                degrees[k] = tuple(sorted(d for d, _ in pattern))
                ramified[k] = any(mult > 1 for _, mult in pattern)
                trusted[k] = q % p != 0
            yield degrees, ramified, trusted


def local_factor_data(record, p: int) -> LocalFactorData:
    """Residue degrees above p, trusted iff p cannot divide the ring index.

    Trust rule: p is trusted iff p does not divide disc(poly)/disc(field);
    for trusted p the factorization of the polynomial mod p gives the exact
    splitting (one prime per irreducible factor, residue degree = factor
    degree) including the ramified case.

    A lane of `_frobenius_lanes` is unramified and checked by Stickelberger's
    theorem; every other prime goes through `factor_mod_p`.
    """
    return LocalFactorData(p, *(flags[0] for flags in next(_local_factors([record], (p,)))))


def _checked_prime_bound(prime_bound: int) -> int:
    P = int(prime_bound)
    if not 100 <= P <= MAX_PRIME_BOUND:
        raise ValueError(
            f"need 100 <= prime bound <= MAX_PRIME_BOUND = {MAX_PRIME_BOUND}, got {P}")
    return P


def zeta_K_at_2(record, prime_bound: int) -> ZetaValue:
    """Dedekind zeta at s = 2 by a truncated Euler product with rigorous bounds.

    Local factors at trusted primes are those of `local_factor_data`, from
    the same path.  Untrusted primes contribute a bracket between 1 and
    (1 - p^-2)^(-degree).  The truncation tail is bounded via
    sum_{p > P} p^-2 <= 1/(P - 1).  Needs 100 <= P <= MAX_PRIME_BOUND.
    """
    return next(_zetas_at_2([record], prime_bound))


def _zetas_at_2(records: Sequence, prime_bound: int) -> Iterator[ZetaValue]:
    """`zeta_K_at_2` of each record in turn, all from one `_local_factors` pass."""
    P = _checked_prime_bound(prime_bound)
    primes = primes_up_to(P)  # one sieve per prime bound, shared by every field of the run
    for record, (degrees_at, _, trusted_at) in zip(records, _local_factors(records, primes)):
        degree = len(record.coeffs) - 1
        lower = upper = 1.0
        for p, degrees, trusted in zip(primes, degrees_at, trusted_at):
            if trusted:
                factor = 1.0
                for f in degrees:
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
        yield ZetaValue(value=value, error_bound=err)


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


def partial_constant(snapshot: Snapshot, Z: int, prime_bound: int) -> PartialConstant:
    """Partial sum C(Z) over the quartic S4 fields with |disc| <= Z."""
    _checked_prime_bound(prime_bound)
    value = 0.0
    err = 0.0
    term_list: list[tuple[str, float, float]] = []
    fields = query(snapshot, degree=4, galois_filter=[QUARTIC_LABEL], max_abs_disc=Z)
    zetas = _zetas_at_2(fields, prime_bound)
    for rec in fields:  # already sorted by (|disc|, label)
        try:
            resid = zeta_residue(rec)
            z2 = next(zetas)
        except (ValueError, ArithmeticError) as exc:
            raise ValueError(f"constant evaluation failed at {rec.label}: {exc}") from exc
        denom = 2.0 ** rec.r2 * float(rec.disc) ** 2
        t_lo = (resid.value - resid.error_bound) / ((z2.value + z2.error_bound) * denom)
        t_up = (resid.value + resid.error_bound) / ((z2.value - z2.error_bound) * denom)
        t_mid = 0.5 * (t_lo + t_up)
        t_err = 0.5 * (t_up - t_lo)
        value += t_mid
        err += t_err
        term_list.append((rec.label, t_mid, t_err))
    return PartialConstant(value=value, error_bound=err, term_list=tuple(term_list))
