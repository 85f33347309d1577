"""Analytic desk-scale checks against independent oracles."""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, replace
from types import CodeType
from typing import Optional

import numpy as np
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
    def test_flipped_legendre_symbol_raises(self, monkeypatch, coeffs, degrees):
        disc = analytic._poly_disc(coeffs)
        assert degrees_of(factor_mod_p(coeffs, 7)) == degrees
        assert analytic._frobenius_lanes([coeffs], (7,)) == [[degrees]]
        # 3 is not a square mod 7, so 3 * disc has the opposite symbol.
        monkeypatch.setattr(analytic, "_poly_discs", lambda polys: [3 * disc] * len(polys))
        with pytest.raises(RuntimeError, match="Stickelberger"):
            analytic._frobenius_lanes([coeffs], (7,))

    # (n1, n2) = (3, 0): three roots leave a linear fourth factor; (1, 1): one
    # root and a quadratic leave a linear fourth factor that was not counted.
    @pytest.mark.parametrize("n1, n2", [(3, 0), (1, 1)])
    def test_impossible_traces_raise(self, monkeypatch, n1, n2):
        coeffs = (24, -50, 35, -10, 1)  # four roots mod 7
        p = np.array([7])
        g = np.array([[-c % 7] for c in coeffs[:4]])  # x^4 mod f
        assert analytic._frobenius_traces(g, p).T.tolist() == [[4, 4]]
        monkeypatch.setattr(analytic, "_frobenius_traces",
                            lambda g, p: np.array([[n1], [n1 + 2 * n2]]).repeat(len(p), axis=1))
        with pytest.raises(RuntimeError, match="Frobenius traces"):
            analytic._frobenius_lanes([coeffs], (7,))

    @pytest.mark.parametrize("p", [3, nextprime(MAX_PRIME_BOUND), 283])
    def test_lanes_reject_primes_off_the_int64_path(self, p):
        # 3 cannot tell (1, 1, 1, 1) from (1, 3) by traces, 10,000,019 is past
        # the int64 bound, and 283 divides disc(x^4 - x - 1) = -283: no lane.
        coeffs = (-1, -1, 0, 0, 1)
        primes = sorted((5, p, 7))
        assert analytic._frobenius_lanes([coeffs], primes) == [
            [None if q == p else degrees_of(factor_mod_p(coeffs, q)) for q in primes]]

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
        [batch] = analytic._frobenius_lanes([coeffs], lanes)
        assert batch == [degrees_of(factor_mod_p(coeffs, p)) for p in lanes]
        # Lanes either side of the chunk boundary, and a sample, one at a time.
        rec = quartic_rec(coeffs)
        edge = analytic._LANE_CHUNK
        for i in [*range(edge - 3, edge + 3), *range(0, len(lanes), 97)]:
            assert local_factor_data(rec, lanes[i]).residue_degrees == batch[i]

    # After 9 and 15, base-2 strong pseudoprimes and Carmichael numbers, the
    # smallest strong pseudoprimes to bases 2 and 3 (psi_2), to 2 and 5, and to
    # 2, 3 and 7: all lanes.  Then a prime and a composite above 2^61.
    @pytest.mark.parametrize("p", [9, 15, 2047, 3277, 4033, 4681, 8321, 561, 1105, 1729, 2465,
                                   2821, 6601, 8911, 1_373_653, 1_907_851, 2_284_453,
                                   nextprime(2 ** 61), 2 ** 61 + 1])
    def test_bad_primes_rejected(self, p):
        rec = quartic_rec((-1, -1, 0, 0, 1))
        assert analytic._poly_disc(rec.coeffs) % p != 0
        with pytest.raises(ValueError, match="not a prime below 2"):
            local_factor_data(rec, p)

    def test_composite_past_the_first_chunk_rejected(self):
        coeffs = (-1, -1, 0, 0, 1)  # disc -283
        lanes = [p for p in primerange(5, 45000) if p != 283] + [2_284_453]
        assert len(lanes) > analytic._LANE_CHUNK
        with pytest.raises(ValueError, match="^2284453 is not a prime below 2"):
            analytic._frobenius_lanes([coeffs], lanes)

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
        # The polynomials come in random order, all in one call with all the
        # primes, and then with a few of them.
        rng.shuffle(polys)
        primes.sort()
        got = analytic._frobenius_lanes(polys, primes)
        # The primes with p | disc(f) are no lanes.
        assert got == [[degrees_of(factor_mod_p(f, p)) if analytic._poly_disc(f) % p else None
                        for p in primes] for f in polys]
        few = sorted(rng.sample(range(len(primes)), 5))
        assert analytic._frobenius_lanes(polys, [primes[k] for k in few]) == [
            [row[k] for k in few] for row in got]
        found = [degrees for row in got for degrees in row]
        assert None in found
        # Every pattern occurs, bar the full split of an octic.
        assert set(analytic._patterns_by_traces(n).values()) - set(found) <= {(1,) * 8}

    def test_patterns_match_sympy_near_the_int64_bound(self):
        rng = random.Random(10 ** 7)
        for f in kernel_polys(rng, 8, 2):
            disc = analytic._poly_disc(f)
            primes = [p for p in (prevprime(9 * 10 ** 6), prevprime(MAX_PRIME_BOUND + 1))
                      if disc % p]
            got = analytic._frobenius_lanes([f], primes)
            assert got == [[degrees_of(sympy_pattern(f, p)) for p in primes]]

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
        # Mod 5 or 7 a trace of 8 reads as 3 or 1: the kernel takes no lane.
        f = (-1, -1, 0, 0, 0, 0, 0, 0, 1)  # disc = -11 * 1600069
        assert analytic._frobenius_lanes([f], (p, 13)) == [
            [None, degrees_of(factor_mod_p(f, 13))]]

    def test_mixed_degrees_match_the_per_degree_calls(self):
        rng = random.Random(2024)
        primes = (2, 7, 11, 97, 283)
        by_degree = {n: kernel_polys(rng, n, 2) for n in range(2, 9)}
        separate = {n: analytic._frobenius_lanes(polys, primes)
                    for n, polys in by_degree.items()}
        mixed = [(n, i, f) for n, polys in by_degree.items() for i, f in enumerate(polys)]
        rng.shuffle(mixed)
        got = analytic._frobenius_lanes([f for _, _, f in mixed], primes)
        assert got == [separate[n][i] for n, i, _ in mixed]
        degrees = {len(f) - 1 for (_, _, f), row in zip(mixed, got) if any(row)}
        assert degrees == set(range(2, 9))

    @pytest.mark.parametrize("primes", [(7, 5), (5, 5), (5, 7, 3), (11, 2 ** 64, 13)])
    def test_primes_that_do_not_ascend_are_refused(self, primes):
        # One list serves every polynomial of a call, so the whole list is
        # checked, off the lanes too (3 and 2^64 are none), with or without
        # a polynomial that has lanes.
        for polys in ([(-1, -1, 0, 0, 1)], [], [(-1, -1, 0, 0, 2)]):
            with pytest.raises(ValueError, match="^the kernel's primes must ascend$"):
                analytic._frobenius_lanes(polys, primes)

    def test_off_lane_pairs_never_reach_the_traces(self, monkeypatch):
        seen = []
        real = analytic._frobenius_traces
        monkeypatch.setattr(analytic, "_frobenius_traces",
                            lambda g, p: seen.extend(zip([len(g)] * len(p), p.tolist()))
                            or real(g, p))
        quartic = (-1, -1, 0, 0, 1)  # disc = -283
        octic = (-1, -1, 0, 0, 0, 0, 0, 0, 1)  # disc = -11 * 1600069
        nonic = (-1, -1, 0, 0, 0, 0, 0, 0, 0, 1)
        eights = (-1, -1, 0, 0, 8)  # 8 is 1 mod 7, but only a leading 1 makes lanes
        primes = (2, 3, 5, 7, 11, 13, 283, nextprime(MAX_PRIME_BOUND))
        got = analytic._frobenius_lanes([quartic, octic, nonic, eights], primes)
        # Each row lists the primes its polynomial takes as lanes.
        lanes = [(5, 7, 11, 13), (13, 283), (), ()]
        assert got == [[degrees_of(factor_mod_p(f, p)) if p in ps else None for p in primes]
                       for f, ps in zip((quartic, octic, nonic, eights), lanes)]
        assert sorted(seen) == [(4, 5), (4, 7), (4, 11), (4, 13), (8, 13), (8, 283)]



# Rows that reach the limb path: a coefficient of each sign beyond int64, and
# discriminants of each sign beyond it, from quartics and octics.
EDGE_POLYS = [
    (-1, -1, 0, 0, 1),                       # disc -283
    (-1, -1, 0, 0, 0, 1),                    # x^5 - x - 1: no lane at p = n = 5
    (-1, -1, 0, 0, 0, 0, 0, 1),              # x^7 - x - 1: no lane at p = n = 7
    (1, -(2 ** 64 + 3), 0, 0, 1),            # disc 256 - 27 (2^64 + 3)^4 < -2^63
    (2 ** 63 + 5, 1, 0, 0, 1),               # disc 256 (2^63 + 5)^3 - 27 > 2^63
    (-1, 0, -1, 0, 0, 0, 0, 0, 1),           # disc -2^8 * 283^2
    (-1, -1, 0, 0, 0, 0, 0, 0, 1),           # disc -11 * 1600069
    (7, -3, 0, 5, -2, 0, 1, -4, 1),          # small coefficients, |disc| > 2^63
    (2 ** 70 + 1, -1, 0, 0, 0, 0, 0, 0, 1),  # x^8 - x + 2^70 + 1
]


def is_lane(f, p) -> bool:
    """The lane rule, restated from its definition."""
    n = len(f) - 1
    return (2 <= n <= 8 and f[-1] == 1 and max(5, n + 1) <= p <= MAX_PRIME_BOUND
            and analytic._poly_disc(f) % p != 0)


class TestRowKernel:
    """The kernel's per-lane integer steps and its work per row, one row per polynomial."""

    def test_limb_residues_match_python(self):
        rng = random.Random(63)
        values = [[0, 1, -1, 2 ** 31 - 1, -2 ** 31, 2 ** 62, -(2 ** 63), 2 ** 63 + 1]]
        values += [[rng.choice((-1, 1)) * rng.getrandbits(rng.choice((5, 31, 32, 64, 200)))
                    for _ in range(8)] for _ in range(20)]
        primes = [5, 7, 2 ** 23 - 15, prevprime(MAX_PRIME_BOUND + 1)] + [
            prevprime(rng.randint(6, MAX_PRIME_BOUND)) for _ in range(30)]
        assert max(abs(v) for vs in values for v in vs).bit_length() > 190  # seven 31-bit limbs
        got = analytic._residues(values, np.array(primes))
        assert got.tolist() == [[[v % q for q in primes] for v in column]
                                for column in zip(*values)]

    def test_rows_match_factor_mod_p_at_every_edge(self):
        # The lane range starts at max(5, n + 1): at 5 for quartics, 7 for the
        # quintic (5 = n is no lane) and 11 for the septic and octics (7 is
        # none).  It ends at 9,999,991 <= MAX_PRIME_BOUND, and the next prime
        # is no lane; nor is any prime that divides disc(f).  The primes are
        # the union of the edges, every polynomial's discriminant divisors
        # below 2000, and the primes from 1000 to 1100.
        discs = [analytic._poly_disc(f) for f in EDGE_POLYS]
        assert any(d < -2 ** 63 for d in discs) and any(d > 2 ** 63 for d in discs)
        assert max(map(max, EDGE_POLYS)) >= 2 ** 63 and min(map(min, EDGE_POLYS)) < -2 ** 63
        edges = {2, 3, 5, 7, 11, 13, prevprime(MAX_PRIME_BOUND + 1), nextprime(MAX_PRIME_BOUND)}
        primes = sorted(edges | {p for d in discs for p in primerange(5, 2000) if d % p == 0}
                        | set(primerange(1000, 1100)))
        got = analytic._frobenius_lanes(EDGE_POLYS, primes)
        assert got == [[degrees_of(factor_mod_p(f, p)) if is_lane(f, p) else None for p in primes]
                       for f in EDGE_POLYS]
        assert all(row[-2] is not None and row[-1] is None for row in got)
        divisors = [(f, p) for f in EDGE_POLYS for p in primes
                    if 11 <= p <= 2000 and analytic._poly_disc(f) % p == 0]
        assert {p for _, p in divisors} >= {11, 283}

    def test_kernel_work_is_per_row(self, monkeypatch):
        # One batched discriminant call per degree computes one discriminant
        # per row, the primes are bisected twice per call, and each degree
        # takes ceil(lanes / _LANE_CHUNK) trace passes.
        rng = random.Random(13)
        polys = kernel_polys(rng, 4, 15) + kernel_polys(rng, 8, 1)
        assert len(set(polys)) == len(polys)
        counts = Counter()
        for name in ("bisect_left", "bisect_right"):
            real = getattr(analytic, name)
            monkeypatch.setattr(analytic, name, lambda *args, name=name, real=real:
                                counts.update([name]) or real(*args))
        rows = []
        hankel = analytic._hankel_discs
        monkeypatch.setattr(analytic, "_hankel_discs",
                            lambda fs: counts.update([f"degree {len(fs[0]) - 1}"])
                            or rows.extend(fs) or hankel(fs))
        analytic._DISCS.clear()
        passes = Counter()
        traces = analytic._frobenius_traces
        monkeypatch.setattr(analytic, "_frobenius_traces",
                            lambda g, p: passes.update([len(g)]) or traces(g, p))
        got = analytic._frobenius_lanes(polys, primes_up_to(1000))
        assert counts == {"bisect_left": 1, "bisect_right": 1, "degree 4": 1, "degree 8": 1}
        assert sorted(rows) == sorted(polys)
        lanes = Counter(len(f) - 1 for f, row in zip(polys, got) for d in row if d)
        assert lanes[4] > analytic._LANE_CHUNK and lanes[8]
        assert passes == {n: -(-k // analytic._LANE_CHUNK) for n, k in lanes.items()}

    def test_kernel_python_does_not_grow_with_the_primes(self, monkeypatch):
        # No Python loop runs over the primes: the kernel's own lines
        # run as often for 108 primes a row as for 1,229.  The numpy trace
        # pass and the primality proof loop over the bits of the primes, not
        # over the primes, and are left out of the count.
        monkeypatch.setattr(analytic, "_LANE_CHUNK", 10 ** 6)  # one chunk either way
        rng = random.Random(5)
        polys = kernel_polys(rng, 4, 3) + kernel_polys(rng, 8, 1)

        def nested(code):  # a function's code and that of its comprehensions
            return [code] + [c for const in code.co_consts if isinstance(const, CodeType)
                             for c in nested(const)]

        own = {code for f in (analytic._frobenius_lanes, analytic._residues)
               for code in nested(f.__code__)}

        def lines_run(primes):
            analytic._frobenius_lanes(polys, primes)  # warm the caches
            count = Counter()

            def local(frame, event, arg):
                if event == "line":
                    count[frame.f_code] += 1
                return local

            def calls(frame, event, arg):
                return local if frame.f_code in own else None

            previous = sys.gettrace()
            sys.settrace(calls)
            try:
                analytic._frobenius_lanes(polys, primes)
            finally:
                sys.settrace(previous)
            return count

        few, many = lines_run(primes_up_to(600)), lines_run(primes_up_to(10 ** 4))
        assert few == many and few[analytic._frobenius_lanes.__code__] > 0


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

    def test_batched_discs_match_sympy(self):
        # Degrees 2 to 8, monic and not; x^4 + cx + d and x^8 + cx + d, whose
        # power sums s_1 = s_2 = 0 leave the first pivots 0 and force row
        # swaps; and repeated roots, disc 0.  One batch per kind and degree,
        # one batch mixing every kind, and each polynomial alone.
        rng = random.Random(39)

        def low(k):
            return [rng.randint(-40, 40) for _ in range(k)]

        kinds = [
            [tuple(low(n)) + (1,) for n in range(2, 9) for _ in range(5)],
            [tuple(low(n)) + (rng.choice((-7, -2, 2, 3, 12)),) for n in range(2, 9)
             for _ in range(5)],
            [tuple(low(2)) + (0,) * (n - 2) + (1,) for n in (4, 8) for _ in range(8)]
            + [(0, 0, 0, 0, 1), (-2,) + (0,) * 7 + (1,), (0, 1) + (0,) * 6 + (1,)],
            [tuple(_intmul(_intmul(g, g), low(n - 2 * len(g) + 2) + [1]))
             for g in ([1, 1], low(1) + [1], low(2) + [1]) for n in range(4, 9)],
        ]
        polys = [f for kind in kinds for f in kind]
        expected = {f: sympy_disc(f) for f in polys}
        assert 0 in expected.values() and sum(v == 0 for v in expected.values()) >= 15
        for kind in kinds:
            for n in range(2, 9):
                batch = [f for f in kind if len(f) - 1 == n]
                if batch:
                    assert analytic._hankel_discs(batch) == [expected[f] for f in batch]
        rng.shuffle(polys)
        analytic._DISCS.clear()
        mixed = analytic._poly_discs(polys)
        assert mixed == [expected[f] for f in polys]
        assert all(analytic._hankel_discs([f]) == [d] for f, d in zip(polys, mixed))

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

    def test_lane_primality_agrees_with_is_prime(self):
        ns = range(5, 200_001)
        assert arith.is_prime_lanes(ns).tolist() == [is_prime(n) for n in ns]

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

        def spy(records, primes):
            for degrees, ramified, trusted in real(records, primes):
                seen.extend(zip(primes, degrees, ramified))
                yield degrees, ramified, trusted

        monkeypatch.setattr(analytic, "_local_factors", spy)
        zeta_K_at_2(rec, 10 ** 4)
        assert [p for p, _, _ in seen] == list(primerange(2, 10 ** 4 + 1))
        for p, degrees, ramified in seen:
            pattern = factor_mod_p(rec.coeffs, p)
            assert degrees == degrees_of(pattern), p
            assert ramified == any(m > 1 for _, m in pattern)

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

    def test_trust_quotient_beyond_int64(self):
        # 216^4 f(x/216) for f = x^4 - x - 1: disc(poly)/disc(field) = 216^12,
        # about 10^28, goes to the trust test's lanes as limbs.
        scaled = (-216 ** 4, -216 ** 3, 0, 0, 1)
        rec = MinimalField(label="K", coeffs=scaled, disc=-283, r2=1)
        assert analytic._poly_disc(scaled) == -283 * 216 ** 12 and 216 ** 12 > 2 ** 63
        primes = primes_up_to(2000)
        [(degrees, ramified, trusted)] = analytic._local_factors([rec], primes)
        assert trusted == [p not in (2, 3) for p in primes]
        for p, d, r in zip(primes, degrees, ramified):
            pattern = factor_mod_p(scaled, p)
            assert d == degrees_of(pattern) and r == any(m > 1 for _, m in pattern)
        # A field discriminant that does not divide the polynomial's trusts no prime.
        [(_, _, trusted)] = analytic._local_factors([replace(rec, disc=-5 * 283)], primes)
        assert not any(trusted)

    def test_small_primes_take_one_answer_per_residue_class(self, monkeypatch):
        # Mod 2 and 3 there are only 16 and 81 monic quartics: one call of
        # `_local_factors` asks `factor_mod_p`, re-multiplication check and
        # all, once for each f mod p, and every record gets its answer.
        calls = Counter()
        real = analytic.factor_mod_p
        monkeypatch.setattr(analytic, "factor_mod_p", lambda f, p: calls.update(
            [(p, tuple(c % p for c in f))] if p <= 3 else []) or real(f, p))
        rng = random.Random(3)
        polys = {tuple(rng.randint(-60, 60) for _ in range(4)) + (1,) for _ in range(300)}
        records = [quartic_rec(f) for f in sorted(polys)]
        got = list(analytic._local_factors(records, primes_up_to(100)))
        assert set(calls.values()) == {1} and len(calls) <= 16 + 81 < len(records)
        for rec, (degrees, ramified, _) in zip(records, got):
            for k, p in enumerate((2, 3)):
                pattern = real(rec.coeffs, p)
                assert degrees[k] == degrees_of(pattern)
                assert ramified[k] == any(m > 1 for _, m in pattern)


class TestZetaValue:
    @pytest.mark.parametrize("error_bound", [-1e-300, math.inf, math.nan])
    def test_refuses_a_negative_or_non_finite_error_bound(self, error_bound):
        with pytest.raises(ValueError, match="^error bound must be finite and nonnegative$"):
            ZetaValue(value=1.0, error_bound=error_bound)

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, math.nan])
    def test_refuses_a_value_not_above_zero(self, value):
        with pytest.raises(ValueError, match="^zeta values here are positive$"):
            ZetaValue(value=value, error_bound=0.0)

    def test_keeps_what_it_accepts(self):
        z = ZetaValue(value=math.pi, error_bound=0.0)
        assert (z.value, z.error_bound) == (math.pi, 0.0)


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
        empty = Snapshot(records={}, provenance="", ingest_time="")
        pc = partial_constant(empty, 10 ** 6, 10 ** 3)
        assert pc.value == 0.0 and pc.error_bound == 0.0 and pc.term_list == ()

    def test_monotone_in_Z(self):
        records = {}
        for i, (d, f) in enumerate([(-283, [(283, 1)]), (-331, [(331, 1)]), (-491, [(491, 1)])]):
            rec = quartic_record(f"K{i}", d, f)
            records[rec.label] = rec
        snap = Snapshot(records=records, provenance="", ingest_time="")
        c1 = partial_constant(snap, 300, 10 ** 3)
        c2 = partial_constant(snap, 500, 10 ** 3)
        assert 0 < c1.value <= c2.value
        assert len(c1.term_list) == 1 and len(c2.term_list) == 3

    def test_term_formula_instantiation(self):
        # Single field with all invariants 1 and |disc| = 10, r2 = 2:
        # the term is residue / (4 * zeta_K(2) * 100) and both factors are
        # within their bounds of the reported value.
        rec = quartic_record("K", 10, [(2, 1), (5, 1)])
        snap = Snapshot(records={"K": rec}, provenance="", ingest_time="")
        pc = partial_constant(snap, 100, 10 ** 3)
        resid = zeta_residue(rec)
        z2 = zeta_K_at_2(rec, 10 ** 3)
        expected = resid.value / (4 * z2.value * 100)
        assert abs(pc.value - expected) <= pc.error_bound + 1e-12
        assert len(pc.term_list) == 1

    # A good field ahead of two bad ones: one fails `zeta_residue` (no h), the
    # other the Euler product (non-monic), in both (|disc|, label) orders.
    @pytest.mark.parametrize("no_h_disc, non_monic_disc", [(331, 491), (491, 331)])
    def test_failure_names_the_first_bad_field(self, no_h_disc, non_monic_disc):
        good = quartic_record("G", -283, [(283, 1)])
        no_h = quartic_record("H", -no_h_disc, [(no_h_disc, 1)])._replace(h=None)
        non_monic = quartic_record("M", -non_monic_disc, [(non_monic_disc, 1)])._replace(
            coeffs=(-1, -1, 0, 0, 2))
        snap = Snapshot(records={r.label: r for r in (good, no_h, non_monic)},
                        provenance="", ingest_time="")
        first = "constant evaluation failed at H: H: missing invariants \\['h'\\]"
        if non_monic_disc < no_h_disc:
            first = "constant evaluation failed at M: polynomial must be monic"
        with pytest.raises(ValueError, match=f"^{first}$"):
            partial_constant(snap, 10 ** 3, 10 ** 3)

    def test_fit_shaped_call_takes_one_kernel_call(self, monkeypatch):
        # 100 fields at P = 1000, as `fit` has them: one `_frobenius_lanes`
        # call over every field and the primes, one trace pass per chunk of
        # lanes, one proof per lane prime.
        rng = random.Random(1000)
        polys = [tuple(rng.randint(-60, 60) for _ in range(4)) + (1,) for _ in range(100)]
        records = [quartic_record(f"K{i:03d}", analytic._poly_disc(f), [])._replace(coeffs=f)
                   for i, f in enumerate(polys)]
        assert all(rec.disc for rec in records)
        snap = Snapshot(records={rec.label: rec for rec in records}, provenance="", ingest_time="")
        lanes = [(f, p) for f in polys for p in primerange(5, 1001) if analytic._poly_disc(f) % p]
        calls, passes, proved = [], [], []
        kernel, traces, proof = (analytic._frobenius_lanes, analytic._frobenius_traces,
                                 analytic.is_prime_lanes)
        monkeypatch.setattr(analytic, "_frobenius_lanes",
                            lambda polys, primes: calls.append(len(polys)) or kernel(polys, primes))
        monkeypatch.setattr(analytic, "_frobenius_traces",
                            lambda g, p: passes.append(len(p)) or traces(g, p))
        monkeypatch.setattr(analytic, "is_prime_lanes",
                            lambda ns: proved.extend(map(int, ns)) or proof(ns))
        pc = partial_constant(snap, 10 ** 12, 1000)
        assert len(pc.term_list) == 100 and calls == [100]
        assert len(passes) == -(-len(lanes) // analytic._LANE_CHUNK) and sum(passes) == len(lanes)
        assert sorted(proved) == sorted({p for _, p in lanes})
        # Smaller chunks split the fields over several calls, and change no number.
        calls.clear()
        monkeypatch.setattr(analytic, "_LANE_CHUNK", 64)  # 16 chunks hold 6 fields
        assert partial_constant(snap, 10 ** 12, 1000) == pc
        assert calls == [6] * 16 + [4]

    def test_kappa_annotation_constant(self):
        assert abs(KAPPA - 0.2784) < 1e-9
