"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest perfbench/selftest.py -q

They check that the generated inputs are valid octicount data with the
promised arithmetic, that the output checks reject wrong answers, that the
per-layer counts repeat exactly, and that the metric names agree with
BENCHMARK.json.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import fields  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from octicount import nfdata  # noqa: E402


@pytest.fixture(scope="module")
def euler_data():
    return fields.euler_store(7, n_fields=30)


@pytest.fixture(scope="module")
def tower_data():
    return fields.tower_store(7, n_quartics=30, repeats=1)


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def test_generated_stores_ingest(euler_data, tower_data):
    for data in (euler_data, tower_data):
        snap = nfdata.ingest_lines([r.as_json() for r in data.records])
        assert len(snap) == len(data.records)


def test_stores_repeat_per_seed():
    a = fields.tower_store(3, n_quartics=10, repeats=1)
    b = fields.tower_store(3, n_quartics=10, repeats=1)
    c = fields.tower_store(4, n_quartics=10, repeats=1)
    assert a.records == b.records and a.records != c.records


def test_every_polynomial_is_distinct(euler_data, tower_data):
    for data in (euler_data, tower_data):
        coeffs = [r.coeffs for r in data.records]
        assert len(set(coeffs)) == len(coeffs)


def genuine_quartics(euler_data, tower_data):
    return list(euler_data.records) + [r for r in tower_data.records if r.label.startswith("Q")]


def test_genuine_quartics_satisfy_field_invariants(euler_data, tower_data):
    scaled = 0
    for rec in genuine_quartics(euler_data, tower_data):
        r2 = (4 - rec.r1) // 2
        assert (rec.disc > 0) == (r2 % 2 == 0), f"{rec.label}: Brill's sign rule"
        assert rec.disc % 4 in (0, 1), f"{rec.label}: Stickelberger"
        q, r = divmod(fields.poly_disc(rec.coeffs), rec.disc)
        assert r == 0 and is_square(q), f"{rec.label}: squared index"
        assert q in (1, 2 ** 12)
        scaled += q != 1
        assert fields.poly(rec.coeffs).count_roots() == rec.r1, f"{rec.label}: r1"
    assert scaled > 0


def test_model_towers_break_the_squared_index_rule(tower_data):
    towers = [r for r in tower_data.records if r.label.startswith("T")]
    assert towers
    for rec in towers:
        q, r = divmod(fields.poly_disc(rec.coeffs), rec.disc)
        assert r != 0 or not is_square(q), f"{rec.label} unexpectedly consistent"


def test_frozen_tame_profiles_match_octicount():
    from octicount.catalog import catalog_group, octic_action, quartic_action
    from octicount.splitting import enumerate_tame_configs, valuation_profile

    for label in fields.TOWER_BASE_EXP:
        octic, quartic = octic_action(label), quartic_action(label)
        profiles = [valuation_profile(c, octic, quartic)
                    for c in enumerate_tame_configs(catalog_group(label))]
        assert fields.tame_profiles(label) == [(p.v_disc_K, p.v_norm) for p in profiles]


def test_enclosure_contains_a_finer_one(euler_data):
    q = min(euler_data.quartics, key=lambda q: abs(q.disc))
    coarse = fields.zeta2_enclosure(q, 200)
    fine = fields.zeta2_enclosure(q, 2000)
    assert coarse[0] <= fine[0] <= fine[1] <= coarse[1]


def test_checks_reject_wrong_outputs():
    splitting = {claim: {"status": "pass", "witnesses": [],
                         "details": {"parts": {"index_set": "pass"},
                                     "computed_index_set": [2, 3, 4, 5, 6, 7]}}
                 for claim in workloads.SPLITTING_CLAIMS}
    with pytest.raises(workloads.CheckError):
        workloads.check_verify_splitting(json.dumps(splitting))
    groups = {claim: {"status": "pass", "witnesses": [], "details": {}}
              for claim in workloads.GROUP_CLAIMS}
    groups["groups.classification"]["details"] = {
        "transitive_isomorphism_types": 31, "classes_with_s4_quotient": 6,
        "catalog_matches": {label: 1 for label in workloads.LABELS}}
    with pytest.raises(workloads.CheckError):
        workloads.check_verify_groups(json.dumps(groups))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture
def runner(tmp_path):
    return run.Runner(str(tmp_path), perf_counter() + 600)


@pytest.fixture
def sampler():
    sampler = speed.SpeedSampler()
    yield sampler
    sampler.close()


def test_reference_speed_scales_by_kernel_time(sampler):
    sampler.close()
    assert len(sampler.samples) > 0 and sampler.proc.returncode == 0
    ref = speed.REFERENCE_KERNEL_S
    sampler.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, ref)]
    assert sampler.at_reference(0.5, 3.0) == pytest.approx(2.5 / 2)
    assert sampler.at_reference(0.0, 4.0) == pytest.approx(4.0 * 0.75)
    assert sampler.at_reference(3.1, 3.2) == pytest.approx(0.1)  # nearest kernel


def test_small_store_measures_and_checks(runner, sampler):
    commands = workloads.store(5, runner.workdir, runner.prepare, n_quartics=20, repeats=1)
    ledger = run.Ledger()
    metrics = run.measure(runner, commands, 0.0, ledger, sampler)
    assert ledger.failures == [] and ledger.attempted == 3
    assert list(metrics) == list(run.END_TO_END)
    assert all(value > 0 for value, _ in metrics.values())


def test_traced_counts_repeat_exactly(runner):
    commands = workloads.store(5, runner.workdir, runner.prepare, n_quartics=20, repeats=1)
    commands.append(workloads.Command(
        "splitting_8t23", ["verify-splitting", "--group", "8T23", "--json", "-"], 0,
        lambda out: None))
    results = []
    for _ in range(2):
        ledger = run.Ledger()
        sampler = speed.SpeedSampler()
        try:
            metrics = run.trace(runner, commands, ledger, sampler)
        finally:
            sampler.close()
        assert ledger.failures == []
        results.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert results[0] == results[1]
    assert results[0]["perms.mul.count"] > 0 and results[0]["nfdata.validate.calls"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "groups", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
