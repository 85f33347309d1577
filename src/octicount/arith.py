"""Exact integer primitives: primality and the primes up to a bound."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress

__all__ = ["is_prime", "is_prime_lanes", "powmod_lanes", "primes_up_to"]

# (base a_k, psi_k): psi_k is the smallest strong pseudoprime to all of the
# first k prime bases, so Miller-Rabin on those bases proves n < psi_k prime.
# Pomerance, Selfridge & Wagstaff (Math. Comp. 35, 1980) and Jaeschke (Math.
# Comp. 61, 1993) up to k = 8, Jiang & Deng (Math. Comp. 83, 2014) up to
# k = 11, Sorenson & Webster (Math. Comp. 86, 2017) for k = 12 and 13.
_MR_BOUNDS = (
    (2, 2047),
    (3, 1_373_653),
    (5, 25_326_001),
    (7, 3_215_031_751),
    (11, 2_152_302_898_747),
    (13, 3_474_749_660_383),
    (17, 341_550_071_728_321),
    (19, 341_550_071_728_321),
    (23, 3_825_123_056_546_413_051),
    (29, 3_825_123_056_546_413_051),
    (31, 3_825_123_056_546_413_051),
    (37, 318_665_857_834_031_151_167_461),
    (41, 3_317_044_064_679_887_385_961_981),
)


def is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below psi_13, sympy above."""
    if n < 2:
        return False
    for q, _ in _MR_BOUNDS:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # no prime factor <= 41 and below 43^2
        return True
    if n >= _MR_BOUNDS[-1][1]:
        from sympy import isprime

        return bool(isprime(n))
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a, psi in _MR_BOUNDS:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return True


def powmod_lanes(base, exp, mod):
    """base^exp mod mod on int64 numpy lanes; base, mod < 3,037,000,499 keep products < 2^63."""
    x = mod ** 0  # ones
    for bit in reversed(range(int(exp.max()).bit_length())):
        factor = (exp >> bit & 1) * (base - 1) + 1  # base where the bit is set, else 1
        x = x * x % mod * factor % mod
    return x


def is_prime_lanes(ns):
    """`is_prime` of each 5 <= n <= 3,037,000,499 of ns (n^2 < 2^63), as a numpy bool array.

    Miller-Rabin on int64 lanes, on the bases `is_prime` takes for the largest n.
    """
    import numpy as np

    n = np.asarray(ns, np.int64)
    k = 1 + sum(psi <= n.max() for _, psi in _MR_BOUNDS)
    bases = np.array([a for a, _ in _MR_BOUNDS[:k]])[:, None]  # one row per base
    low = (n - 1) & (1 - n)  # 2^s, with n - 1 = 2^s d and d odd
    x = powmod_lanes(bases, (n - 1) // low, n)
    passed = (x == 1) | (x == n - 1) | (n == bases)
    while (low > 2).any():  # x^(2^r d) for 0 < r < s
        low = low >> 1
        x = x * x % n
        passed |= (low > 1) & (x == n - 1)
    return (n % 2 == 1) & passed.all(axis=0)


@lru_cache(maxsize=8)
def primes_up_to(n: int) -> tuple[int, ...]:
    """The primes p <= n in ascending order (sieve of Eratosthenes)."""
    if n < 2:
        return ()
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, n + 1, i)))
    return tuple(compress(range(n + 1), flags))
