"""Counting-side property suites: splits, series, audits, tails, fits."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import integer_nthroot

from conftest import octic_record, quartic_record
from octicount.analytic import PartialConstant
from octicount.counting import (
    THETA_TARGET,
    _is_kth_power,
    CountSeries,
    RelDiscSplit,
    audit_lemmas,
    count_series,
    fit_error,
    split_rel_disc,
    tail_count,
)
from octicount.nfdata import Snapshot


def make_pair(k_factors, n_factors, galois="8T23"):
    """Build a synthetic parent/octic pair from factored |disc K| and norm."""
    k_factors = tuple(sorted(k_factors))
    dk = 1
    for p, e in k_factors:
        dk *= p ** e
    n_vals = dict(n_factors)
    l_vals = {p: 2 * e for p, e in k_factors}
    for p, v in n_vals.items():
        l_vals[p] = l_vals.get(p, 0) + v
    dl = 1
    for p, e in l_vals.items():
        dl *= p ** e
    parent = quartic_record("K", dk, k_factors)
    octic = octic_record("L", dl, sorted(l_vals.items()), galois, "K")
    return octic, parent


class TestKthPower:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(root=st.integers(0, 10 ** 20), delta=st.integers(-2, 2),
           k=st.sampled_from([2, 4]))
    def test_agrees_with_integer_nthroot(self, root, delta, k):
        for n in (root ** k + delta, root, root * 10 ** 9 + delta):
            assert _is_kth_power(n, k) == (n >= 0 and integer_nthroot(n, k)[1])

    def test_only_squares_and_fourth_powers(self):
        with pytest.raises(ValueError, match="k = 3"):
            _is_kth_power(8, 3)


class TestSplitRelDisc:
    def test_unramified_in_K(self):
        octic, parent = make_pair([(283, 1)], [(7, 4)])
        s = split_rel_disc(octic, parent)
        assert (s.norm, s.n0, s.n1, s.n2) == (2401, 1, 2401, 1)
        assert (s.d0, s.d1, s.d2) == (1, 283, 1)

    def test_two_three_part(self):
        octic, parent = make_pair([(283, 1)], [(2, 6)])
        s = split_rel_disc(octic, parent)
        assert (s.norm, s.n0, s.n1, s.n2) == (64, 1, 1, 64)

    def test_shared_support(self):
        octic, parent = make_pair([(283, 1)], [(283, 1), (5, 4)])
        s = split_rel_disc(octic, parent)
        assert (s.n0, s.n1, s.n2) == (283, 625, 1)
        assert (s.d0, s.d1, s.d2) == (283, 1, 1)

    def test_non_divisible_rejected(self):
        parent = quartic_record("K", 283, [(283, 1)])
        octic = octic_record("L", 283 * 7, [(7, 1), (283, 1)], "8T23", "K")
        with pytest.raises(ValueError, match="L"):
            split_rel_disc(octic, parent)

    def test_recombination_identity_random(self):
        rng = random.Random(42)
        small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 283]
        for _ in range(10 ** 4):
            k_primes = rng.sample(small_primes, rng.randint(1, 4))
            k_factors = [(p, rng.randint(1, 3)) for p in k_primes]
            n_primes = rng.sample(small_primes, rng.randint(0, 4))
            n_factors = [(p, rng.randint(1, 4)) for p in n_primes]
            octic, parent = make_pair(k_factors, n_factors)
            s = split_rel_disc(octic, parent)
            assert s.n0 * s.n1 * s.n2 == s.norm
            assert s.d0 * s.d1 * s.d2 == abs(parent.disc)
            assert s.norm * parent.disc ** 2 == abs(octic.disc)

    # A valid split of norm 5^4 * 7 * 2^3 and |disc K| = 5 * 11 * 3, with
    # one part changed at a time.
    VALID = dict(norm=5 ** 4 * 7 * 8, n0=625, n1=7, n2=8, d0=5, d1=11, d2=3,
                 norm_factors=((2, 3), (5, 4), (7, 1)))

    @pytest.mark.parametrize("changed, message", [
        ({"n1": 11}, "norm split does not recombine"),
        ({"norm": 5 ** 4 * 7 * 8 + 1}, "norm split does not recombine"),
        ({"n0": 625 * 2, "n2": 4}, "n0, n1 must be coprime to 6"),
        ({"n1": 7 * 3, "n2": 8, "norm": 5 ** 4 * 7 * 3 * 8}, "n0, n1 must be coprime to 6"),
        ({"d0": 5 * 2}, "d0, d1 must be coprime to 6"),
        ({"d1": 11 * 3}, "d0, d1 must be coprime to 6"),
    ], ids=["n1", "norm", "n0-even", "n1-by-3", "d0-even", "d1-by-3"])
    def test_refuses_a_bad_split(self, changed, message):
        RelDiscSplit(**self.VALID)
        with pytest.raises(ValueError, match=f"^{message}$"):
            RelDiscSplit(**{**self.VALID, **changed})

    def test_invariant_under_factor_reordering(self):
        octic, parent = make_pair([(283, 1), (5, 2)], [(7, 4), (5, 1)])
        s1 = split_rel_disc(octic, parent)
        # disc_factors are canonically sorted at construction, so a permuted
        # build yields identical records and an identical split.
        octic2, parent2 = make_pair([(5, 2), (283, 1)], [(5, 1), (7, 4)])
        assert split_rel_disc(octic2, parent2) == s1


def snapshot_of_octics(discs, galois="8T44"):
    records = {}
    for i, d in enumerate(discs):
        fac = []
        n = d
        for p in (2, 3, 5, 7, 11, 13):
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e:
                fac.append((p, e))
        assert n == 1, "pick {2,...,13}-smooth fixture discs"
        records[f"L{i}"] = octic_record(f"L{i}", d, fac, galois, None)
    return Snapshot(records=records, provenance="", ingest_time="")


class TestCountSeries:
    def test_direct_count(self):
        snap = snapshot_of_octics([10, 20, 30])
        s = count_series(snap, ["8T44"], [15, 25, 35])
        assert s.counts == (1, 2, 3)

    def test_empty_label_set(self):
        snap = snapshot_of_octics([10, 20, 30])
        s = count_series(snap, [], [15, 25, 35])
        assert s.counts == (0, 0, 0)

    def test_additive_over_disjoint_labels(self):
        a = snapshot_of_octics([10, 30], "8T44").records
        b = snapshot_of_octics([20], "8T39").records
        merged = dict(a)
        for k, v in b.items():
            merged[k + "b"] = v
        # relabel to avoid collision
        merged = {f"{i}": rec for i, rec in enumerate(list(a.values()) + list(b.values()))}
        snap = Snapshot(records=merged, provenance="", ingest_time="")
        cps = [15, 25, 35]
        union = count_series(snap, ["8T44", "8T39"], cps)
        parts = [count_series(snap, [lab], cps) for lab in ("8T44", "8T39")]
        assert union.counts == tuple(
            x + y for x, y in zip(parts[0].counts, parts[1].counts)
        )

    def test_monotone_enforced(self):
        with pytest.raises(ValueError):
            CountSeries(checkpoints=(1, 2), counts=(2, 1), group_filter=())


class TestTailCount:
    def test_squarefree_not_counted(self):
        snap = Snapshot(records={"K": quartic_record("K", -283, [(283, 1)])},
                        provenance="", ingest_time="")
        assert tail_count(snap, 1, 10 ** 6) == 0

    def test_boundary_strict(self):
        d = 2 ** 2 * 5 ** 3 * 7
        snap = Snapshot(records={"K": quartic_record("K", d, [(2, 2), (5, 3), (7, 1)])},
                        provenance="", ingest_time="")
        assert tail_count(snap, 9, 10 ** 6) == 1   # q = 10 > 9
        assert tail_count(snap, 10, 10 ** 6) == 0  # strict >

    def test_monotone_in_Z_and_X(self):
        rng = random.Random(3)
        records = {}
        for i in range(50):
            e2, e5, e7 = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2)
            d = 2 ** e2 * 5 ** e5 * 7 ** e7 * 283
            fac = [(p, e) for p, e in ((2, e2), (5, e5), (7, e7), (283, 1)) if e]
            records[f"K{i}"] = quartic_record(f"K{i}", d, sorted(fac))
        snap = Snapshot(records=records, provenance="", ingest_time="")
        Zs, Xs = [1, 5, 20, 100], [10 ** 2, 10 ** 4, 10 ** 6]
        for X in Xs:
            counts = [tail_count(snap, Z, X) for Z in Zs]
            assert counts == sorted(counts, reverse=True)
        for Z in Zs:
            counts = [tail_count(snap, Z, X) for X in Xs]
            assert counts == sorted(counts)


def unit_constant():
    return PartialConstant(value=1.0, error_bound=0.0, term_list=())


class TestFitError:
    def geometric_checkpoints(self):
        return [int(round(10 ** 3 * (10 ** 3) ** (i / 19))) for i in range(20)]

    def test_synthetic_slope(self):
        cps = self.geometric_checkpoints()
        counts = [math.floor(x - 3 * x ** 0.7) for x in cps]
        series = CountSeries(tuple(cps), tuple(counts), ("synthetic",))
        report = fit_error(series, unit_constant())
        assert report.slope is not None
        assert 0.68 <= report.slope <= 0.72

    def test_exact_main_term_rounding_only(self):
        cps = self.geometric_checkpoints()
        counts = [math.floor(1.0 * x) for x in cps]
        series = CountSeries(tuple(cps), tuple(counts), ("synthetic",))
        report = fit_error(series, unit_constant())
        assert report.sup_ratio <= cps[0] ** (-THETA_TARGET) * 1.0 + 1e-12

    def test_theta_target_value(self):
        assert abs(THETA_TARGET - (3 / 4 - 1 / 30)) < 1e-15

    def test_too_few_checkpoints(self):
        series = CountSeries((10, 20), (1, 2), ())
        with pytest.raises(ValueError):
            fit_error(series, unit_constant())

    def test_checkpoints_below_one(self):
        series = CountSeries((0, 5, 100), (0, 0, 0), ())
        with pytest.raises(ValueError, match="checkpoints >= 1"):
            fit_error(series, unit_constant())


class TestAuditLemmas:
    def test_model_snapshot_has_zero_violations(self, model_snapshot):
        report = audit_lemmas(model_snapshot)
        assert report.passed, report.witnesses[:5]
        assert report.details["octics_audited"] > 100

    def test_synthetic_8T23_fourth_power_pass(self):
        octic, parent = make_pair([(283, 1)], [(7, 4)])
        snap = Snapshot(records={"K": parent, "L": octic}, provenance="", ingest_time="")
        assert audit_lemmas(snap).passed

    def test_synthetic_8T39_nonsquare_fails_with_witness(self):
        octic, parent = make_pair([(283, 1)], [(7, 3)], galois="8T39")
        snap = Snapshot(records={"K": parent, "L": octic}, provenance="", ingest_time="")
        report = audit_lemmas(snap)
        assert not report.passed
        assert any("square" in w for w in report.witnesses)

    def test_synthetic_8T40_d1_violation(self):
        # 283 appears to exponent 1 in disc K and misses the norm: d1 != rad^2.
        octic, parent = make_pair([(283, 1)], [(7, 2)], galois="8T40")
        snap = Snapshot(records={"K": parent, "L": octic}, provenance="", ingest_time="")
        report = audit_lemmas(snap)
        assert any("rad" in w for w in report.witnesses)
