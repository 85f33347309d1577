"""Splitting symbols vs. a naive independent oracle, plus the lemma verifiers."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from octicount.catalog import CATALOG, LABELS, catalog_group, octic_action, quartic_action
from octicount.perms import (
    Perm,
    PermGroup,
    coset_action,
    parse_cycle_string,
)
from octicount import splitting
from test_perms import action_kernel, brute_force_subgroups, conjugate
from octicount.splitting import (
    SplittingSymbol,
    TameConfig,
    enumerate_tame_configs,
    splitting_symbol,
    valuation_profile,
    verify_lemma_81,
    verify_lemma_splitting,
    verify_lemma_vpn,
)


def P(degree, text):
    return parse_cycle_string(degree, text)


def naive_symbol(I_elems, D_elems, degree) -> tuple:
    """Independent oracle: list orbits point by point, no group machinery."""
    points = set(range(1, degree + 1))
    pairs = []
    while points:
        x = min(points)
        d_orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in D_elems:
                z = g(y)
                if z not in d_orbit:
                    d_orbit.add(z)
                    frontier.append(z)
        i_orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in I_elems:
                z = g(y)
                if z not in i_orbit:
                    i_orbit.add(z)
                    frontier.append(z)
        e = len(i_orbit)
        pairs.append((e, len(d_orbit) // e))
        points -= d_orbit
    return tuple(sorted(pairs))


def all_configs_naive(G: PermGroup):
    """Every (tau, D, sigma) with <tau> normal in D and D/<tau> generated by
    a coset: a double loop over elements and subgroups, no dedup."""
    subs = [PermGroup.from_elements(s, G.degree) for s in brute_force_subgroups(G)]
    for tau in sorted(G.elements, key=lambda p: p.images):
        I = PermGroup([tau], degree=G.degree)
        for D in subs:
            if not I.is_subgroup_of(D) or not I.is_normal_in(D):
                continue
            for sigma in sorted(D.elements, key=lambda p: p.images):
                gen = PermGroup(list(I.elements) + [sigma], degree=G.degree)
                if gen.order == D.order:
                    yield tau, D, sigma


class TestOracleAgreement:
    @pytest.mark.parametrize("degree", [3, 4])
    def test_all_subgroup_configurations(self, degree):
        G = PermGroup.symmetric(degree)
        act = coset_action(G, G.stabilizer(1))
        n = 0
        for tau, D, sigma in all_configs_naive(G):
            cfg = TameConfig(
                group=G, inertia_gen=tau, decomposition=D, frobenius=sigma,
            )
            sym = splitting_symbol(cfg, act)
            oracle = naive_symbol(
                list(PermGroup([tau], degree=degree).elements),
                list(D.elements),
                degree,
            )
            assert sym.pairs == oracle, (tau, D, sigma)
            n += 1
        assert n > 0

    def test_catalog_sum_rules(self):
        for entry in CATALOG:
            G = catalog_group(entry.label)
            octic = octic_action(entry.label)
            quartic = quartic_action(entry.label)
            for cfg in enumerate_tame_configs(G):
                for act in (octic, quartic):
                    sym = splitting_symbol(cfg, act)
                    assert sym.degree() == act.induced_degree
                    assert sym.disc_valuation() == act.act(cfg.inertia_gen).index


class TestSymbolExamples:
    def test_s3_ramified_transposition(self):
        G = PermGroup.symmetric(3)
        tau = P(3, "(1,2)")
        cfg = TameConfig(
            group=G,
            inertia_gen=tau,
            decomposition=PermGroup([tau]),
            frobenius=Perm.identity(3),
        )
        sym = splitting_symbol(cfg, coset_action(G, G.stabilizer(1)))
        assert sym.pairs == ((1, 1), (2, 1))

    def test_inert_cubic(self):
        G = PermGroup.symmetric(3)
        sigma = P(3, "(1,2,3)")
        cfg = TameConfig(
            group=G,
            inertia_gen=Perm.identity(3),
            decomposition=PermGroup([sigma]),
            frobenius=sigma,
        )
        sym = splitting_symbol(cfg, coset_action(G, G.stabilizer(1)))
        assert sym.pairs == ((1, 3),)

    def test_totally_ramified_8cycle(self):
        G = PermGroup.symmetric(8)
        tau = P(8, "(1,2,3,4,5,6,7,8)")
        cfg = TameConfig(
            group=G,
            inertia_gen=tau,
            decomposition=PermGroup([tau]),
            frobenius=Perm.identity(8),
        )
        sym = splitting_symbol(cfg, coset_action(G, G.stabilizer(1)))
        assert sym.pairs == ((8, 1),)


class TestConfigChecks:
    @pytest.mark.parametrize("decomposition, frobenius", [
        ("(1,2)", "(1,3)"),  # sigma outside D, though <sigma> has the order of D
        ("(1,2) (1,2,3)", "(1,2,3)"),  # sigma in D, but <sigma> is a proper subgroup
    ])
    def test_frobenius_must_generate_d_mod_inertia(self, decomposition, frobenius):
        G = PermGroup.symmetric(3)
        with pytest.raises(ValueError, match="Frobenius coset"):
            TameConfig(
                group=G,
                inertia_gen=Perm.identity(3),
                decomposition=PermGroup([P(3, g) for g in decomposition.split()]),
                frobenius=P(3, frobenius),
            )

    @pytest.mark.parametrize("inertia, decomposition", [
        ("(1,2)", "(1,2) (1,2,3)"),  # <(1,2)> is not normal in S3
        ("(1,3)", "(1,2)"),          # tau outside D
    ])
    def test_inertia_must_be_normal_in_d(self, inertia, decomposition):
        gens = [P(3, g) for g in decomposition.split()]
        with pytest.raises(ValueError, match="not normal"):
            TameConfig(
                group=PermGroup.symmetric(3),
                inertia_gen=P(3, inertia),
                decomposition=PermGroup(gens),
                frobenius=gens[-1],
            )


class TestValuationProfiles:
    def test_unramified_config_is_zero(self):
        lab = "8T23"
        G = catalog_group(lab)
        sigma = next(g for g in G.elements if g.order() == 8)
        cfg = TameConfig(
            group=G,
            inertia_gen=Perm.identity(8),
            decomposition=PermGroup([sigma]),
            frobenius=sigma,
        )
        prof = valuation_profile(cfg, octic_action(lab), quartic_action(lab))
        assert (prof.v_disc_L, prof.v_disc_K, prof.v_norm) == (0, 0, 0)

    def test_8T23_center(self):
        lab = "8T23"
        G = catalog_group(lab)
        center = [
            g for g in G.elements
            if g.order() == 2 and all(g * h == h * g for h in G.generators)
        ]
        assert len(center) == 1
        tau = center[0]
        cfg = TameConfig(
            group=G,
            inertia_gen=tau,
            decomposition=PermGroup([tau]),
            frobenius=Perm.identity(8),
        )
        prof = valuation_profile(cfg, octic_action(lab), quartic_action(lab))
        assert (prof.v_disc_L, prof.v_disc_K, prof.v_norm) == (4, 0, 4)

    def test_8T40_quartic_kernel_elements(self):
        """Inertia inside the kernel of the quartic action: v_disc_K = 0 and
        v_norm >= 2.  The kernel is elementary abelian of order 8, so every
        such inertia generator has order 2 (no order-4 element exists in it)."""
        lab = "8T40"
        G = catalog_group(lab)
        kernel = action_kernel(quartic_action(lab))
        assert len(kernel) == 8
        assert {g.order() for g in kernel} == {1, 2}
        for tau in kernel:
            if tau.order() != 2:
                continue
            cfg = TameConfig(
                group=G,
                inertia_gen=tau,
                decomposition=PermGroup([tau]),
                frobenius=Perm.identity(8),
            )
            prof = valuation_profile(cfg, octic_action(lab), quartic_action(lab))
            assert prof.v_disc_K == 0
            assert prof.v_norm >= 2


class TestEnumeration:
    def test_s3_transposition_config(self):
        G = PermGroup.symmetric(3)
        configs = enumerate_tame_configs(G)
        trans = [c for c in configs if c.inertia_gen.order() == 2]
        # One class of transpositions; N(I) = I, so D = I and Frobenius
        # lies in the inertia coset.
        assert len(trans) == 1
        assert trans[0].decomposition.order == 2
        assert trans[0].f == 1

    def test_all_tame_compatible_by_construction(self):
        # sigma normalizes <tau>, so sigma tau sigma^-1 is a generator of <tau>.
        for entry in CATALOG:
            for cfg in enumerate_tame_configs(catalog_group(entry.label)):
                tau, sigma = cfg.inertia_gen, cfg.frobenius
                conj = sigma * tau * sigma.inverse()
                assert conj in PermGroup([tau], degree=8).elements
                assert conj.order() == tau.order()

    def test_invariants_on_returned_configs(self):
        for cfg in enumerate_tame_configs(catalog_group("8T23")):
            I = PermGroup([cfg.inertia_gen], degree=8)
            assert I.is_normal_in(cfg.decomposition)
            assert cfg.decomposition.order % I.order == 0

    @pytest.mark.parametrize("name", ["S3", "S4", "S5", *LABELS])
    def test_configs_match_pinned_list(self, name):
        # [tau images, sigma images, |D|] of every configuration, in order,
        # pinned in tame_configs.json from the enumeration by Perm products.
        pinned = json.loads((Path(__file__).parent / "data" / "tame_configs.json").read_text())
        G = PermGroup.symmetric(int(name[1:])) if name[0] == "S" else catalog_group(name)
        assert [
            [list(c.inertia_gen.images), list(c.frobenius.images), c.decomposition.order]
            for c in enumerate_tame_configs(G)
        ] == pinned[name]

    def test_regression_count_8T23(self):
        # Regression constant, recounted once with the naive double loop
        # oracle (collapsing conjugates and Frobenius-coset equivalence).
        assert len(enumerate_tame_configs(catalog_group("8T23"))) == 19

    def test_symbol_conjugation_invariance(self):
        lab = "8T23"
        G = catalog_group(lab)
        octic = octic_action(lab)
        g0 = sorted(G.elements, key=lambda p: p.images)[7]
        g0inv = g0.inverse()
        for cfg in enumerate_tame_configs(G)[:6]:
            conj = TameConfig(
                group=G,
                inertia_gen=g0 * cfg.inertia_gen * g0inv,
                decomposition=conjugate(cfg.decomposition, g0),
                frobenius=g0 * cfg.frobenius * g0inv,
            )
            assert splitting_symbol(conj, octic) == splitting_symbol(cfg, octic)


class TestLemmaVerifiers:
    def test_lemma_splitting_passes(self):
        r = verify_lemma_splitting("8T23")
        assert r.passed
        assert r.details["parts"] == {"part1": "pass", "part2": "pass", "part3": "pass"}

    def test_lemma_vpn_passes(self):
        r = verify_lemma_vpn("8T23")
        assert r.passed
        assert r.details["holds_including_nontame"] is True

    def test_lemma_81_valuation_forms_pass(self):
        r = verify_lemma_81("8T40")
        parts = r.details["parts"]
        assert parts["part1_valuation"] == "pass"
        assert parts["part2_valuation"] == "pass"
        assert parts["n0_never_4"] == "pass"

    def test_lemma_81_reports_computed_index_set(self):
        r = verify_lemma_81("8T40")
        assert r.details["computed_index_set"] == [2, 3, 4, 5, 6, 7]

    def test_verifiers_deterministic(self):
        a = verify_lemma_vpn("8T23")
        b = verify_lemma_vpn("8T23")
        assert a.details == b.details and a.witnesses == b.witnesses


class TestOnePassPerGroup:
    def test_two_symbols_per_configuration(self, monkeypatch):
        degrees = []
        original = splitting.splitting_symbol

        def counted(cfg, action):
            degrees.append(action.induced_degree)
            return original(cfg, action)

        monkeypatch.setattr(splitting, "splitting_symbol", counted)
        splitting._tame_profiles.cache_clear()
        reports = splitting.run_all_splitting_verifiers()
        configs = {r.details["group"]: r.details["configs_checked"] for r in reports}
        assert configs == {"8T23": 19, "8T40": 73}
        assert len(degrees) == 184
        assert degrees.count(8) == degrees.count(4) == 92

    def test_profiles_carry_the_checked_symbols(self):
        octic, quartic = octic_action("8T23"), quartic_action("8T23")
        for cfg in enumerate_tame_configs(catalog_group("8T23")):
            prof = valuation_profile(cfg, octic, quartic)
            assert prof.octic_symbol == splitting_symbol(cfg, octic)
            assert prof.quartic_symbol == splitting_symbol(cfg, quartic)

    def test_one_group_enumerates_only_that_group(self, monkeypatch):
        groups = []
        original = splitting.enumerate_tame_configs

        def recorded(G):
            groups.append(G)
            return original(G)

        monkeypatch.setattr(splitting, "enumerate_tame_configs", recorded)
        splitting._tame_profiles.cache_clear()
        reports = splitting.run_all_splitting_verifiers(["8T23"])
        assert groups == [catalog_group("8T23")]
        assert [r.claim_id for r in reports] == [
            "splitting.lemma_splitting.8T23",
            "splitting.lemma_vpn.8T23",
        ]
