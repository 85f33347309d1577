"""Analytic desk-scale checks against independent oracles."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, Poly, Symbol, isprime, nextprime, prevprime, primerange
from sympy.utilities.iterables import partitions as sympy_partitions

from conftest import quartic_record
from octicount import analytic, arith
from octicount.arith import is_prime, primes_up_to
from octicount.analytic import (
    KAPPA,
    MAX_PRIME_BOUND,
    ZetaValue,
    factor_mod_p,
    local_factor_data,
    partial_constant,
    zeta_K_at_2,
    zeta_residue,
)
from octicount.nfdata import Snapshot


@dataclass(frozen=True)
class MinimalField:
    """Bare-bones stand-in for a FieldRecord in analytic test scaffolding.

    A length-2 coefficient list denotes the rationals themselves (degree-1
    convention, not an arithmetic field of the catalog).
    """

    label: str
    coeffs: tuple[int, ...]
    disc: int
    r1: int = 0
    r2: int = 0
    h: Optional[int] = None
    reg: Optional[str] = None
    w: Optional[int] = None

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def reg_float(self) -> float:
        if self.reg is None:
            raise ValueError(f"{self.label}: no regulator present")
        return float(self.reg)


QFIELD = MinimalField(label="Q", coeffs=(0, 1), disc=1, r1=1, r2=0, h=1,
                      reg="1.00000000000000", w=2)
QI = MinimalField(label="Qi", coeffs=(1, 0, 1), disc=-4, r1=0, r2=1,
                  h=1, reg="1.00000000000000", w=4)
QSQRT2 = MinimalField(label="Qsqrt2", coeffs=(-2, 0, 1), disc=8, r1=2, r2=0,
                      h=1, reg="0.881373587019543", w=2)


def dirichlet_zeta_qi_2(terms: int = 200000) -> float:
    """Independent oracle: zeta_{Q(i)}(2) = zeta(2) * L(2, chi_-4) by series."""
    zeta2 = sum(1.0 / n ** 2 for n in range(1, terms))
    chi = [0, 1, 0, -1]
    L2 = sum(chi[n % 4] / n ** 2 for n in range(1, terms))
    return zeta2 * L2


class TestFactorModP:
    def test_split_quadratic(self):
        assert factor_mod_p((1, 0, 1), 5) == ((1, 1), (1, 1))

    def test_inert_quadratic(self):
        assert factor_mod_p((1, 0, 1), 3) == ((2, 1),)

    def test_quartic_mod_2_exhaustive_oracle(self):
        # x^4 - x - 1 has no root mod 2 and is not divisible by the single
        # irreducible quadratic x^2 + x + 1, so it is irreducible mod 2.
        f = lambda x: (x ** 4 - x - 1) % 2
        assert f(0) == f(1) == 1
        #  (x^2+x+1)^2 = x^4 + x^2 + 1 != x^4 + x + 1 mod 2
        assert factor_mod_p((-1, -1, 0, 0, 1), 2) == ((4, 1),)

    def test_ramified_multiplicity(self):
        # (x - 1)^2 (x + 1) mod anything
        coeffs = (1, -1, -1, 1)  # x^3 - x^2 - x + 1
        assert factor_mod_p(coeffs, 7) == ((1, 1), (1, 2))

    def test_degree_sum_and_sympy_agreement(self):
        x = Symbol("x")
        rng = random.Random(11)
        for _ in range(60):
            deg = rng.randint(1, 8)
            coeffs = [rng.randint(-50, 50) for _ in range(deg)] + [1]
            p = rng.choice([2, 3, 5, 7, 13, 97, 65537])
            mine = factor_mod_p(tuple(coeffs), p)
            assert sum(d * m for d, m in mine) == deg
            fl = Poly(list(reversed(coeffs)), x, modulus=p, symmetric=False).factor_list()[1]
            assert mine == tuple(sorted((f.degree(), m) for f, m in fl))

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            factor_mod_p((1, 0, 1), 6)

    def test_failed_remultiplication_raises(self, monkeypatch):
        real = analytic._distinct_degree
        monkeypatch.setattr(analytic, "_distinct_degree", lambda g, p: real(g, p)[:-1])
        with pytest.raises(RuntimeError, match="re-multiplication"):
            factor_mod_p((1, 0, 1), 5)

    def test_ddf_degree_divisibility_checked(self, monkeypatch):
        # (x^2 + 1)(x^2 + x + 2) mod 3: no roots, so the degree-2 gcd is all
        # of f; a gcd of degree 3 there cannot be a product of quadratics.
        real = analytic._polygcd

        def gcd_of_degree_3_at_d_2(a, b, p):
            g = real(a, b, p)
            return [0, 0, 0, 1] if len(g) == 5 else g

        monkeypatch.setattr(analytic, "_polygcd", gcd_of_degree_3_at_d_2)
        with pytest.raises(RuntimeError, match="degree 3"):
            factor_mod_p((2, 1, 0, 1, 1), 3)


def sympy_pattern(coeffs, p) -> tuple[tuple[int, int], ...]:
    fl = Poly(list(reversed(coeffs)), Symbol("x"), modulus=p,
              symmetric=False).factor_list()[1]
    return tuple(sorted((f.degree(), m) for f, m in fl))


# Small primes, primes near 10^5, and 2^61 - 1, the largest prime factor_mod_p takes.
PRIMES = (2, 3, 5, 7, 97, 65537, 99989, 99991, 2 ** 61 - 1)
monic = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=8).map(
    lambda low: tuple(low) + (1,))


class TestFactorModPDifferential:
    """factor_mod_p against sympy's factorization over GF(p)."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(coeffs=monic, p=st.sampled_from(PRIMES))
    def test_random_monic(self, coeffs, p):
        assert factor_mod_p(coeffs, p) == sympy_pattern(coeffs, p)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(g=st.lists(st.integers(-50, 50), min_size=1, max_size=2),
           h=st.lists(st.integers(-50, 50), max_size=4),
           k=st.lists(st.integers(-50, 50), max_size=7),
           p=st.sampled_from(PRIMES[:-1]))
    def test_primes_dividing_the_discriminant(self, g, h, k, p):
        # f = g^2 h + p k with g, h monic and deg k < deg f is monic and
        # congruent to g^2 h mod p, so p divides disc(f).
        base = _intmul(_intmul(g + [1], g + [1]), h + [1])
        coeffs = tuple(c + p * kc for c, kc in zip(base[:-1], k + [0] * 8)) + (1,)
        assert Poly(list(reversed(coeffs)), Symbol("x")).discriminant() % p == 0
        assert factor_mod_p(coeffs, p) == sympy_pattern(coeffs, p)


# 2, 3, every prime below 2000, the largest primes of the int64 lanes (up to
# 9,999,991 < MAX_PRIME_BOUND) and the first above them, primes either side of
# 2^31, and 2^61 - 1.
QUARTIC_PATH_PRIMES = ((2, 3) + tuple(primerange(5, 2000))
                       + (prevprime(9_999_971), 9_999_971, 9_999_973, 9_999_991,
                          nextprime(MAX_PRIME_BOUND))
                       + (prevprime(2 ** 31 - 1), 2 ** 31 - 1, nextprime(2 ** 31), 2 ** 61 - 1))
random_quartic = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=4, max_size=4).map(
    lambda low: tuple(low) + (1,))
# (x + a)^2 (x^2 + b x + c) and (x^2 + b x + c)^2: disc(f) = 0.
square_quartic = st.one_of(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50)).map(
        lambda t: tuple(_intmul(_intmul([t[0], 1], [t[0], 1]), [t[2], t[1], 1]))),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)).map(
        lambda t: tuple(_intmul([t[1], t[0], 1], [t[1], t[0], 1]))),
)


def quartic_rec(coeffs) -> "MinimalField":
    # The field discriminant only feeds the trust flag, which is not compared.
    return MinimalField(label="K", coeffs=tuple(coeffs), disc=1, r2=2)


def degrees_of(pattern) -> tuple[int, ...]:
    return tuple(sorted(d for d, _ in pattern))


class TestQuarticPath:
    """The quartic lanes, through local_factor_data, against factor_mod_p and sympy."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(coeffs=st.one_of(random_quartic, square_quartic,
                            st.just((1, 0, 2, 0, 1))),  # (x^2 + 1)^2
           p=st.sampled_from(QUARTIC_PATH_PRIMES))
    def test_agrees_with_factor_mod_p(self, coeffs, p):
        assert len(coeffs) == 5 and coeffs[-1] == 1
        data = local_factor_data(quartic_rec(coeffs), p)
        pattern = factor_mod_p(coeffs, p)
        assert data.residue_degrees == degrees_of(pattern)
        assert data.ramified == any(m > 1 for _, m in pattern)

    @pytest.mark.parametrize("coeffs, p", [
        ((-1, -1, 0, 0, 1), 7), ((1, 1, 0, 0, 1), 7), ((3, 1, 4, 1, 1), 7),
        ((24, -50, 35, -10, 1), 7), ((2, -3, 3, -3, 1), 7), ((-16, -8, 0, 0, 1), 97),
        ((1, 0, 2, 0, 1), 3), ((1, 0, 2, 0, 1), 2), ((-1, -1, 0, 0, 1), 283),
        ((-1, -1, 0, 0, 1), 2 ** 31 - 1), ((3, 1, 4, 1, 1), 2 ** 61 - 1),
        ((-1, -1, 0, 0, 1), 9_999_991), ((16, 0, 0, -2, 1), 9_999_991),
    ])
    def test_fixed_cases_against_sympy(self, coeffs, p):
        data = local_factor_data(quartic_rec(coeffs), p)
        pattern = sympy_pattern(coeffs, p)
        assert data.residue_degrees == degrees_of(pattern)
        assert data.ramified == any(m > 1 for _, m in pattern)

    def test_odd_unramified_primes_skip_factor_mod_p(self, monkeypatch):
        calls = []
        real = analytic.factor_mod_p
        monkeypatch.setattr(analytic, "factor_mod_p",
                            lambda coeffs, p: calls.append(p) or real(coeffs, p))
        rec = quartic_rec((-16, -8, 0, 0, 1))  # disc = -283 * 2^12
        for p in primerange(2, 400):
            local_factor_data(rec, p)
        assert calls == [2, 3, 283]

    # One case per pattern mod 7, two of them without a root: (2, 2) and (4).
    @pytest.mark.parametrize("coeffs, degrees", [
        ((3, 1, 4, 1, 1), (2, 2)),         # (x^2 + 1)(x^2 + x + 3)
        ((1, 1, 0, 0, 1), (4,)),           # x^4 + x + 1
        ((-1, -1, 0, 0, 1), (1, 3)),       # x^4 - x - 1
        ((2, -3, 3, -3, 1), (1, 1, 2)),    # (x - 1)(x - 2)(x^2 + 1)
        ((24, -50, 35, -10, 1), (1, 1, 1, 1)),  # (x - 1)(x - 2)(x - 3)(x - 4)
    ])
    def test_flipped_legendre_symbol_raises(self, coeffs, degrees):
        disc = analytic._poly_disc(coeffs)
        assert degrees_of(factor_mod_p(coeffs, 7)) == degrees
        assert analytic._frobenius_lanes([coeffs], [7], [disc]) == [degrees]
        # 3 is not a square mod 7, so 3 * disc has the opposite symbol.
        with pytest.raises(RuntimeError, match="Stickelberger"):
            analytic._frobenius_lanes([coeffs], [7], [3 * disc])

    # (n1, n2) = (3, 0): three roots leave a linear fourth factor; (1, 1): one
    # root and a quadratic leave a linear fourth factor that was not counted.
    @pytest.mark.parametrize("n1, n2", [(3, 0), (1, 1)])
    def test_impossible_traces_raise(self, monkeypatch, n1, n2):
        coeffs = (24, -50, 35, -10, 1)  # four roots mod 7
        disc = analytic._poly_disc(coeffs)
        assert analytic._frobenius_traces([coeffs], [7]) == [(4, 4)]
        monkeypatch.setattr(analytic, "_frobenius_traces",
                            lambda polys, primes: [(n1, n1 + 2 * n2)] * len(primes))
        with pytest.raises(RuntimeError, match="Frobenius traces"):
            analytic._frobenius_lanes([coeffs], [7], [disc])

    @pytest.mark.parametrize("p", [3, nextprime(MAX_PRIME_BOUND), 283])
    def test_lanes_reject_primes_off_the_int64_path(self, p):
        # 3 cannot tell (1, 1, 1, 1) from (1, 3) by traces, 10,000,019 is past
        # the int64 bound, and 283 divides disc(x^4 - x - 1) = -283.
        coeffs = (-1, -1, 0, 0, 1)
        with pytest.raises(ValueError, match="5 <= p <= "):
            analytic._frobenius_lanes([coeffs] * 3, [5, p, 7], [analytic._poly_disc(coeffs)] * 3)

    @pytest.mark.parametrize("p", [2 ** 31 - 1, 2 ** 61 - 1])
    def test_large_primes_route_to_factor_mod_p(self, monkeypatch, p):
        calls = []
        real = analytic.factor_mod_p
        monkeypatch.setattr(analytic, "factor_mod_p",
                            lambda coeffs, q: calls.append(q) or real(coeffs, q))
        for coeffs in ((-1, -1, 0, 0, 1), (3, 1, 4, 1, 1), (16, 0, 0, -2, 1)):
            data = local_factor_data(quartic_rec(coeffs), p)
            pattern = sympy_pattern(coeffs, p)
            assert data.residue_degrees == degrees_of(pattern)
            assert data.ramified == any(m > 1 for _, m in pattern)
        assert calls == [p] * 3

    def test_batch_of_several_chunks_matches_per_prime(self):
        coeffs = (16, 0, 0, -2, 1)  # 16 f(x/2), f = x^4 - x^3 + 1
        disc = analytic._poly_disc(coeffs)
        lanes = [p for p in primerange(5, 45000) if disc % p]
        assert analytic._LANE_CHUNK < len(lanes) < 2 * analytic._LANE_CHUNK
        batch = analytic._frobenius_lanes([coeffs] * len(lanes), lanes, [disc] * len(lanes))
        assert batch == [degrees_of(factor_mod_p(coeffs, p)) for p in lanes]
        # Lanes either side of the chunk boundary, and a sample, one at a time.
        rec = quartic_rec(coeffs)
        edge = analytic._LANE_CHUNK
        for i in [*range(edge - 3, edge + 3), *range(0, len(lanes), 97)]:
            assert local_factor_data(rec, lanes[i]).residue_degrees == batch[i]

    @pytest.mark.parametrize("p", [9, 15, nextprime(2 ** 61), 2 ** 61 + 1])
    def test_bad_primes_rejected(self, p):
        rec = quartic_rec((-1, -1, 0, 0, 1))
        assert analytic._poly_disc(rec.coeffs) % p != 0
        with pytest.raises(ValueError, match="not a prime below 2"):
            local_factor_data(rec, p)

    def test_non_monic_rejected(self):
        coeffs = (-1, -1, 0, 0, 2)
        assert analytic._poly_disc(coeffs) % 5 != 0
        with pytest.raises(ValueError, match="monic"):
            local_factor_data(quartic_rec(coeffs), 5)


def _intmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def sympy_disc(coeffs) -> int:
    return int(Poly(list(reversed(coeffs)), Symbol("x")).discriminant())


def kernel_polys(rng: random.Random, n: int, count: int) -> list[tuple[int, ...]]:
    """Random monic polynomials of degree n, with products of lower-degree ones
    and, for n = 8, f(x^2) of quartics f: the benchmark's octic towers."""
    def monic(k):
        return [rng.randint(-60, 60) for _ in range(k)] + [1]

    polys = [tuple(monic(n)) for _ in range(count)]
    for _ in range(count):
        k = rng.randint(1, n - 1)
        polys.append(tuple(_intmul(monic(k), monic(n - k))))
    if n == 8:
        for _ in range(count):
            f = monic(4)
            polys.append(tuple(c for a in f[:-1] for c in (a, 0)) + (1,))
        polys.append(tuple(_intmul(_intmul(monic(2), monic(2)), _intmul(monic(2), monic(2)))))
    return polys


class TestFrobeniusKernel:
    """The batched Frobenius-trace kernel against `factor_mod_p` and sympy."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_trace_table_is_injective(self, n):
        table = analytic._patterns_by_traces(n)
        parts = {tuple(sorted(d for d, m in part.items() for _ in range(m)))
                 for part in sympy_partitions(n)}
        # One key per partition of n, so no two patterns share their traces.
        assert len(table) == len(parts) == {4: 5, 8: 22}[n]
        assert set(table.values()) == parts
        for traces, degrees in table.items():
            assert traces == tuple(sum(d for d in degrees if k % d == 0)
                                   for k in range(1, n // 2 + 1))

    @pytest.mark.parametrize("n", [4, 8])
    def test_patterns_match_factor_mod_p(self, n):
        rng = random.Random(n)
        polys = kernel_polys(rng, n, 12)
        primes = [p for p in primerange(max(5, n + 1), 200)] + [
            prevprime(MAX_PRIME_BOUND + 1), nextprime(10 ** 6), prevprime(5 * 10 ** 6)]
        lanes = [(f, p, analytic._poly_disc(f)) for f in polys for p in primes
                 if analytic._poly_disc(f) % p]
        rng.shuffle(lanes)  # every lane its own polynomial and prime, in one call
        fs, ps, discs = zip(*lanes)
        got = analytic._frobenius_lanes(fs, ps, discs)
        assert got == [degrees_of(factor_mod_p(f, p)) for f, p in zip(fs, ps)]
        # Every pattern occurs, bar the full split of an octic.
        assert set(analytic._patterns_by_traces(n).values()) - set(got) <= {(1,) * 8}

    def test_patterns_match_sympy_near_the_int64_bound(self):
        rng = random.Random(10 ** 7)
        for f in kernel_polys(rng, 8, 2):
            disc = analytic._poly_disc(f)
            primes = [p for p in (prevprime(MAX_PRIME_BOUND + 1), prevprime(9 * 10 ** 6))
                      if disc % p]
            got = analytic._frobenius_lanes([f] * len(primes), primes, [disc] * len(primes))
            assert got == [degrees_of(sympy_pattern(f, p)) for p in primes]

    @pytest.mark.parametrize("coeffs", [
        (-1, 0, -1, 0, 0, 0, 0, 0, 1),  # f(x^2), f = x^4 - x - 1: disc = -2^8 * 283^2
        (-1, -1, 0, 0, 0, 0, 0, 0, 1),  # x^8 - x - 1: disc = -11 * 1600069
    ])
    def test_octic_record_takes_the_lanes(self, monkeypatch, coeffs):
        calls = []
        real = analytic.factor_mod_p
        monkeypatch.setattr(analytic, "factor_mod_p",
                            lambda c, p: calls.append(p) or real(c, p))
        disc = analytic._poly_disc(coeffs)
        rec = MinimalField(label="L", coeffs=coeffs, disc=disc, r2=4)
        primes = list(primerange(2, 400))
        for p in primes:
            data = local_factor_data(rec, p)
            pattern = real(coeffs, p)
            assert data.residue_degrees == degrees_of(pattern)
            assert data.ramified == any(m > 1 for _, m in pattern)
        assert calls == [p for p in primes if p < 9 or disc % p == 0]

    @pytest.mark.parametrize("p", [5, 7])
    def test_octic_lanes_need_p_above_the_degree(self, p):
        # Mod 5 or 7 a trace of 8 reads as 3 or 1: the kernel refuses the lane.
        f = (-1, -1, 0, 0, 0, 0, 0, 0, 1)
        disc = analytic._poly_disc(f)
        with pytest.raises(ValueError, match="a prime 9 <= p <= "):
            analytic._frobenius_lanes([f, f], [11, p], [disc, disc])


def strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2 ** r, n) == n - 1 for r in range(1, s))


class TestIntegerPrimitives:
    """The integer discriminant, primality test and sieve against sympy."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(low=st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=1, max_size=8))
    def test_disc_of_random_monic(self, low):
        coeffs = tuple(low) + (1,)
        assert analytic._poly_disc(coeffs) == sympy_disc(coeffs)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(g=st.lists(st.integers(-50, 50), min_size=1, max_size=2),
           h=st.lists(st.integers(-50, 50), max_size=4))
    def test_disc_of_repeated_roots_is_zero(self, g, h):
        coeffs = tuple(_intmul(_intmul(g + [1], g + [1]), h + [1]))
        assert analytic._poly_disc(coeffs) == sympy_disc(coeffs) == 0

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(coeffs=st.lists(st.integers(-30, 30), min_size=3, max_size=9).filter(
        lambda c: c[-1] not in (0, 1)))
    def test_disc_of_non_monic(self, coeffs):
        # The Hankel determinant goes through a^(n-1) f(x/a), a = lead(f).
        assert analytic._poly_disc(tuple(coeffs)) == sympy_disc(coeffs)

    def test_disc_of_sparse_octics(self):
        # Zero pivots in the Hankel matrix force row swaps (x^8 - 2) or end at 0 (x^4).
        for coeffs in ((576, 0, -960, 0, 352, 0, -40, 0, 1), (-2, 0, 0, 0, 0, 0, 0, 0, 1),
                       (0, 0, 0, 0, 1), (-1, -1, 0, 0, 0, 0, 0, 0, 1)):
            assert analytic._poly_disc(coeffs) == sympy_disc(coeffs)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(0, 30).flatmap(lambda k: st.integers(0, 10 ** k)))
    def test_is_prime_on_random_integers(self, n):
        assert is_prime(n) == isprime(n)
        assert is_prime(nextprime(n))

    def test_is_prime_on_strong_pseudoprimes(self):
        for n in (3215031751, 3825123056546413051):
            assert not is_prime(n) and not isprime(n)
        # Each psi_k is composite and a strong probable prime to the first k
        # bases, so the test must go on to base k + 1 to reject it.
        bases = [a for a, _ in arith._MR_BOUNDS]
        for k, (_, psi) in enumerate(arith._MR_BOUNDS, start=1):
            assert all(strong_probable_prime(psi, a) for a in bases[:k])
            assert not is_prime(psi) and not isprime(psi)

    def test_is_prime_either_side_of_the_deterministic_bound(self):
        psi_13 = arith._MR_BOUNDS[-1][1]
        window = range(psi_13 - 300, psi_13 + 300)
        assert any(isprime(n) for n in window if n < psi_13)
        assert any(isprime(n) for n in window if n > psi_13)
        for n in window:
            assert is_prime(n) == isprime(n), n

    @pytest.mark.parametrize("P", [100, 1000, 10 ** 5])
    def test_sieve_matches_primerange(self, P):
        assert primes_up_to(P) == tuple(primerange(2, P + 1))


class TestZetaAt2:
    def test_riemann_zeta_2(self):
        z = zeta_K_at_2(QFIELD, 10 ** 5)
        assert abs(z.value - math.pi ** 2 / 6) < 1e-4
        assert abs(z.value - math.pi ** 2 / 6) <= z.error_bound

    def test_gaussian_field_against_dirichlet_oracle(self):
        z = zeta_K_at_2(QI, 10 ** 4)
        oracle = dirichlet_zeta_qi_2()
        assert abs(z.value - oracle) <= z.error_bound + 1e-8

    def test_bounds_monotone_and_consistent(self):
        vals = [zeta_K_at_2(QFIELD, P) for P in (10 ** 3, 10 ** 4, 10 ** 5)]
        for a, b in zip(vals, vals[1:]):
            assert b.error_bound <= a.error_bound
            assert abs(a.value - b.value) <= max(a.error_bound, b.error_bound)

    def test_error_bound_small_at_1e5_degree4(self):
        rec = quartic_record("K", -283, [(283, 1)])
        z = zeta_K_at_2(rec, 10 ** 5)
        assert z.error_bound < 1e-4

    @pytest.mark.parametrize("rec", [
        quartic_record("K", -283, [(283, 1)]),
        # The benchmark's presentation 16 f(x/2) of f = x^4 - x^3 + 1, index 2^6.
        MinimalField(label="E", coeffs=(16, 0, 0, -2, 1), disc=229, r2=2),
    ], ids=["conftest", "scaled"])
    def test_residue_degrees_match_factor_mod_p_on_the_whole_sieve(self, monkeypatch, rec):
        seen = []
        real = analytic._local_factors

        def spy(record, primes):
            for data in real(record, primes):
                seen.append(data)
                yield data

        monkeypatch.setattr(analytic, "_local_factors", spy)
        zeta_K_at_2(rec, 10 ** 4)
        assert [data.p for data in seen] == list(primerange(2, 10 ** 4 + 1))
        for data in seen:
            pattern = factor_mod_p(rec.coeffs, data.p)
            assert data.residue_degrees == degrees_of(pattern), data.p
            assert data.ramified == any(m > 1 for _, m in pattern)

    def test_all_bounds_finite(self):
        for rec in (QFIELD, QI, QSQRT2):
            z = zeta_K_at_2(rec, 10 ** 3)
            assert math.isfinite(z.error_bound) and z.value > 0

    def test_low_prime_bound_rejected(self):
        with pytest.raises(ValueError):
            zeta_K_at_2(QFIELD, 50)

    def test_high_prime_bound_rejected_before_the_sieve(self, monkeypatch):
        monkeypatch.setattr(analytic, "primes_up_to", lambda n: pytest.fail("sieve built"))
        with pytest.raises(ValueError, match="MAX_PRIME_BOUND"):
            zeta_K_at_2(QFIELD, MAX_PRIME_BOUND + 1)


class TestLocalFactorData:
    def test_trusted_unramified(self):
        data = local_factor_data(QI, 5)
        assert data.trusted and not data.ramified
        assert data.residue_degrees == (1, 1)

    def test_ramified_prime(self):
        data = local_factor_data(QI, 2)
        assert data.ramified
        assert data.residue_degrees == (1,)

    def test_agrees_with_factor_mod_p_on_index_64_presentation(self):
        # 16 f(x/2) for f = x^4 - x - 1 (disc -283, index 1): the same field
        # with polynomial discriminant 2^12 * -283, so only p = 2 is untrusted.
        scaled = (-16, -8, 0, 0, 1)
        rec = MinimalField(label="K", coeffs=scaled, disc=-283, r2=2)
        assert Poly(list(reversed(scaled)), Symbol("x")).discriminant() == -283 * 2 ** 12
        for p in primerange(2, 2001):
            data = local_factor_data(rec, p)
            pattern = factor_mod_p(scaled, p)
            assert data.p == p and data.trusted == (p != 2)
            assert data.residue_degrees == tuple(sorted(d for d, _ in pattern))
            assert data.ramified == any(m > 1 for _, m in pattern)


class TestZetaResidue:
    def test_gaussian_residue_is_pi_over_4(self):
        r = zeta_residue(QI)
        assert abs(r.value - math.pi / 4) < 1e-9

    def test_real_quadratic_oracle(self):
        # Independent residue value: 2^2 * log(1 + sqrt 2) / (2 sqrt 8).
        r = zeta_residue(QSQRT2)
        oracle = 4 * math.log(1 + math.sqrt(2)) / (2 * math.sqrt(8))
        assert abs(r.value - oracle) < 1e-12
        assert abs(r.value - 0.6232) < 1e-4

    def test_relative_error_bound(self):
        r = zeta_residue(QI)
        assert r.error_bound <= r.value * 1e-10

    def test_missing_invariants_named(self):
        rec = MinimalField(label="nohw", coeffs=(1, 0, 1), disc=-4, r2=1)
        with pytest.raises(ValueError, match="nohw"):
            zeta_residue(rec)


class TestPartialConstant:
    def test_empty_snapshot(self):
        pc = partial_constant(Snapshot(records={}), 10 ** 6, 10 ** 3)
        assert pc.value == 0.0 and pc.error_bound == 0.0 and pc.terms == 0

    def test_monotone_in_Z(self):
        records = {}
        for i, (d, f) in enumerate([(-283, [(283, 1)]), (-331, [(331, 1)]), (-491, [(491, 1)])]):
            rec = quartic_record(f"K{i}", d, f)
            records[rec.label] = rec
        snap = Snapshot(records=records)
        c1 = partial_constant(snap, 300, 10 ** 3)
        c2 = partial_constant(snap, 500, 10 ** 3)
        assert 0 < c1.value <= c2.value
        assert c1.terms == 1 and c2.terms == 3

    def test_term_formula_instantiation(self):
        # Single field with all invariants 1 and |disc| = 10, r2 = 2:
        # the term is residue / (4 * zeta_K(2) * 100) and both factors are
        # within their bounds of the reported value.
        rec = quartic_record("K", 10, [(2, 1), (5, 1)])
        snap = Snapshot(records={"K": rec})
        pc = partial_constant(snap, 100, 10 ** 3, emit_terms=True)
        resid = zeta_residue(rec)
        z2 = zeta_K_at_2(rec, 10 ** 3)
        expected = resid.value / (4 * z2.value * 100)
        assert abs(pc.value - expected) <= pc.error_bound + 1e-12
        assert len(pc.term_list) == 1

    def test_kappa_annotation_constant(self):
        assert abs(KAPPA - 0.2784) < 1e-9
