"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure) and
asserts the criterion.  Criterion 2 asserts the 8T23 and 8T40 index sets
exactly as an independent sympy.combinatorics oracle computes them from the
catalog generators; for 8T40 that set is {2, 3, 4, 5, 6, 7}.  The documented
8T40 set {2, 4, 8} cannot be attained by any group of degree 8, since
ind(g) = 8 - #orbits(g) <= 7.
"""

from __future__ import annotations

import json
import math
import random
import time

import pytest

from conftest import model_tower_records, record_json_line

ACCEPT = "ACCEPTANCE {n}: {status} - {text}"


def _line(n: int, ok: bool, text: str) -> None:
    print(ACCEPT.format(n=n, status="PASS" if ok else "FAIL", text=text))


def test_criterion_1_verify_groups_within_60s():
    from octicount.verify import run_all_group_verifiers

    start = time.perf_counter()
    reports = {r.claim_id: r for r in run_all_group_verifiers()}
    elapsed = time.perf_counter() - start
    cls = reports["groups.classification"]
    ok = (
        all(r.passed for r in reports.values())
        and cls.details["transitive_isomorphism_types"] == 32
        and cls.details["classes_with_s4_quotient"] == 6
        and reports["groups.a8_containment"].passed
        and reports["groups.table1"].passed
        and elapsed < 60.0
    )
    _line(1, ok, f"verify-groups all pass in {elapsed:.1f}s "
                 f"(32 isomorphism types, 6 catalog matches)")
    assert all(r.passed for r in reports.values())
    assert cls.details["transitive_isomorphism_types"] == 32
    assert cls.details["classes_with_s4_quotient"] == 6
    assert elapsed < 60.0


def _sympy_index_set(label: str) -> set[int]:
    """Index set of a catalog group, computed by sympy.

    The group is rebuilt from the frozen catalog generators as a
    sympy.combinatorics.PermutationGroup, independently of octicount.perms;
    ind(g) = 8 - #cycles(g), fixed points counted as 1-cycles.
    """
    from sympy.combinatorics import Permutation, PermutationGroup

    from octicount.catalog import catalog_group

    G = PermutationGroup(
        [Permutation([i - 1 for i in g]) for g in catalog_group(label).generators]
    )
    assert G.degree == 8 and G.is_transitive()
    assert G.order() == catalog_group(label).order
    return {8 - len(g.full_cyclic_form) for g in G.elements if not g.is_Identity}


def test_criterion_2_index_and_order_sets():
    from octicount.catalog import catalog_group
    from octicount.perms import index_set
    from test_perms import cyclic_subgroup_orders
    from octicount.splitting import verify_lemma_81

    set23 = index_set(catalog_group("8T23"))
    oracle23 = _sympy_index_set("8T23")
    set40 = index_set(catalog_group("8T40"))
    oracle40 = _sympy_index_set("8T40")
    sub23 = set23 <= {3, 4, 6, 7}
    orders23 = cyclic_subgroup_orders(catalog_group("8T23")) == {1, 2, 3, 4, 6, 8}
    n0_never_4 = verify_lemma_81("8T40").details["parts"]["n0_never_4"]
    ok = (
        sub23
        and orders23
        and set23 == oracle23
        and set40 == oracle40 == {2, 3, 4, 5, 6, 7}
        and n0_never_4 == "pass"
    )
    _line(2, ok, f"8T23 indices within {{3,4,6,7}}: {sub23}; "
                 f"8T23 cyclic orders exact: {orders23}; "
                 f"8T23 index set computed {sorted(set23)} vs sympy {sorted(oracle23)}; "
                 f"8T40 index set computed {sorted(set40)} vs sympy {sorted(oracle40)}; "
                 f"v_p(N0) != 4 for p ramified in K: {n0_never_4}")
    assert sub23
    assert orders23
    assert set23 == oracle23
    # The index set proven by the sympy oracle.  The documented 8T40 set
    # {2, 4, 8} cannot be attained: every permutation of 8 points has at least
    # one orbit, so ind(g) = 8 - #orbits(g) <= 7 in degree 8.
    assert set40 == oracle40 == {2, 3, 4, 5, 6, 7}
    for computed in (set23, set40):
        assert 8 not in computed and max(computed) <= 7
    # The consequence the documented set was used for still holds:
    # v_p(N0) != 4 whenever p ramifies in K.
    assert n0_never_4 == "pass"


def test_criterion_3_verify_splitting_within_5min():
    from octicount.splitting import (
        verify_lemma_81,
        verify_lemma_splitting,
        verify_lemma_vpn,
    )

    start = time.perf_counter()
    r51 = verify_lemma_splitting("8T23")
    r52 = verify_lemma_vpn("8T23")
    r81 = verify_lemma_81("8T40")
    elapsed = time.perf_counter() - start
    p81 = r81.details["parts"]
    ok = (
        r51.passed
        and r52.passed
        and p81["part1_valuation"] == "pass"
        and p81["part2_valuation"] == "pass"
        and elapsed < 300.0
    )
    _line(3, ok, f"splitting and valuation verifiers (all parts): "
                 f"zero counterexamples in {elapsed:.1f}s")
    assert r51.passed, r51.witnesses
    assert r52.passed, r52.witnesses
    assert p81["part1_valuation"] == "pass"
    assert p81["part2_valuation"] == "pass"
    assert elapsed < 300.0


def test_criterion_4_splitting_oracle_agreement():
    from octicount.catalog import LABELS, catalog_group, octic_action, quartic_action
    from octicount.perms import PermGroup, coset_action
    from octicount.splitting import TameConfig, enumerate_tame_configs, splitting_symbol
    from test_perms import symmetric
    from test_splitting import all_configs_naive, naive_symbol

    total = mismatches = 0
    for degree in (3, 4):
        G = symmetric(degree)
        act = coset_action(G, G.stabilizer(1))
        for tau, D, sigma in all_configs_naive(G):
            cfg = TameConfig(group=G, inertia_gen=tau, frobenius=sigma)
            total += 1
            oracle = naive_symbol(
                list(PermGroup([tau], degree=degree).elements),
                list(D.elements), degree,
            )
            if tuple(splitting_symbol(cfg, act)) != oracle:
                mismatches += 1
    sums_ok = True
    for label in LABELS:
        G = catalog_group(label)
        for cfg in enumerate_tame_configs(G):
            for act in (octic_action(label), quartic_action(label)):
                sym = splitting_symbol(cfg, act)
                if sym.degree() != act.induced_degree:
                    sums_ok = False
                if sym.disc_valuation() != act.act(cfg.inertia_gen).index:
                    sums_ok = False
    ok = mismatches == 0 and sums_ok and total > 0
    _line(4, ok, f"oracle agreement on {total} S3/S4 configurations "
                 f"({mismatches} mismatches); sum rules hold on all catalog configs")
    assert mismatches == 0 and total > 0
    assert sums_ok


def test_criterion_5_analytic_desk_checks():
    from octicount.analytic import zeta_K_at_2, zeta_residue
    from test_analytic import QFIELD, QI, dirichlet_zeta_qi_2

    z_q = zeta_K_at_2(QFIELD, 10 ** 5)
    c1 = abs(z_q.value - math.pi ** 2 / 6) < 1e-4
    z_qi = zeta_K_at_2(QI, 10 ** 4)
    oracle = dirichlet_zeta_qi_2()
    c2 = abs(z_qi.value - oracle) <= z_qi.error_bound + 1e-8
    resid = zeta_residue(QI)
    c3 = abs(resid.value - math.pi / 4) < 1e-9
    vals = [zeta_K_at_2(QFIELD, P) for P in (10 ** 3, 10 ** 4, 10 ** 5)]
    c4 = all(math.isfinite(v.error_bound) for v in vals) and all(
        b.error_bound <= a.error_bound
        and abs(a.value - b.value) <= max(a.error_bound, b.error_bound)
        for a, b in zip(vals, vals[1:])
    )
    ok = c1 and c2 and c3 and c4
    _line(5, ok, f"zeta_Q(2) within 1e-4: {c1}; zeta_Qi(2) within bound of "
                 f"Dirichlet oracle: {c2}; residue pi/4 within 1e-9: {c3}; "
                 f"bounds finite and monotone through P: {c4}")
    assert c1 and c2 and c3 and c4


def test_criterion_6_property_suites(tmp_path, thousand_quartics):
    from test_counting import make_pair

    from octicount.counting import CountSeries, count_series, split_rel_disc, tail_count
    from conftest import persist_to
    from octicount.nfdata import Snapshot, ingest_lines, load

    rng = random.Random(42)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 283]
    recombine_ok = True
    for _ in range(10 ** 4):
        k = [(p, rng.randint(1, 3)) for p in rng.sample(primes, rng.randint(1, 4))]
        nf = [(p, rng.randint(1, 4)) for p in rng.sample(primes, rng.randint(0, 4))]
        octic, parent = make_pair(k, nf)
        s = split_rel_disc(octic, parent)
        if s.n0 * s.n1 * s.n2 != s.norm or s.d0 * s.d1 * s.d2 != abs(parent.disc):
            recombine_ok = False
    snap = Snapshot(records={r.label: r for r in thousand_quartics}, provenance="", ingest_time="")
    series = count_series(snap, ["4T5"], [10 ** 4, 10 ** 5, 10 ** 6])
    mono_ok = list(series.counts) == sorted(series.counts)
    tails = [tail_count(snap, Z, 10 ** 6) for Z in (1, 10, 100)]
    tail_ok = tails == sorted(tails, reverse=True)
    lines = [record_json_line(r) for r in thousand_quartics]
    shuffled = lines[:]
    rng.shuffle(shuffled)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    persist_to(ingest_lines(lines, provenance="p"), a)
    persist_to(ingest_lines(shuffled, provenance="p"), b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        bytes_ok = fa.read() == fb.read()
    round_ok = load(a).records == snap.records
    ok = recombine_ok and mono_ok and tail_ok and bytes_ok and round_ok
    _line(6, ok, f"recombination on 10^4 inputs: {recombine_ok}; count monotone: "
                 f"{mono_ok}; tail monotone: {tail_ok}; ingest order-independent "
                 f"byte-identity: {bytes_ok}; round-trip: {round_ok}")
    assert ok


def test_criterion_7_synthetic_fit_slope():
    from octicount.analytic import PartialConstant
    from octicount.counting import CountSeries, fit_error

    cps = [int(round(10 ** 3 * (10 ** 3) ** (i / 19))) for i in range(20)]
    counts = [math.floor(x - 3 * x ** 0.7) for x in cps]
    series = CountSeries(tuple(cps), tuple(counts), ("synthetic",))
    C = PartialConstant(value=1.0, error_bound=0.0, term_list=())
    report = fit_error(series, C)
    ok = report.slope is not None and 0.68 <= report.slope <= 0.72
    _line(7, ok, f"synthetic fitted slope {report.slope:.4f} in [0.68, 0.72]")
    assert ok


def test_criterion_8_audit_and_fit_on_real_shaped_data(tmp_path, model_snapshot, capsys):
    """Headline numbers are not asserted; audit must be clean and fit must
    emit sup_ratio/slope with provenance on ingested data."""
    from conftest import persist_to
    from octicount.cli import run

    store = str(tmp_path / "store.jsonl")
    persist_to(model_snapshot, store)
    rc_audit = run(["audit", "--store", store, "--json", "-"])
    audit_payload = json.loads(capsys.readouterr().out)
    rc_fit = run(["fit", "--store", store, "--max-disc", str(10 ** 9),
                  "--prime-bound", "1000", "--json", "-"])
    fit_payload = json.loads(capsys.readouterr().out)
    audit_ok = rc_audit == 0 and audit_payload["status"] == "pass"
    fit_ok = (
        rc_fit == 0
        and "sup_ratio" in fit_payload
        and "slope" in fit_payload
        and fit_payload["provenance"] == "model-towers"
        and abs(fit_payload["theta_target"] - (3 / 4 - 1 / 30)) < 1e-12
    )
    ok = audit_ok and fit_ok
    with capsys.disabled():
        _line(8, ok, f"audit zero violations ({audit_payload['details']['octics_audited']} "
                     f"octics): {audit_ok}; fit emits sup_ratio/slope with provenance: {fit_ok}")
    assert audit_ok and fit_ok
