"""Tame ramification configurations and splitting symbols.

A tamely ramified rational prime is modeled by a pair: an inertia generator
tau and a Frobenius sigma normalizing I = <tau>.  They determine the
decomposition group D = <tau, sigma>, with I normal in D and D/I cyclic,
which is never built.  The prime itself never appears: a configuration
stands for every tame prime realizing it, which is the right level of
generality for the verified lemmas.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .catalog import catalog_group, octic_action, quartic_action
from .perms import (
    CosetAction,
    Perm,
    PermGroup,
    coset_class_minima,
    index_set,
    subgroup_classes,
)
from .labels import SPLITTING_LEMMAS
from .report import VerificationReport

__all__ = [
    "TameConfig",
    "SplittingSymbol",
    "ValuationProfile",
    "enumerate_tame_configs",
    "splitting_symbol",
    "valuation_profile",
    "verify_lemma_splitting",
    "verify_lemma_vpn",
    "verify_lemma_81",
    "run_all_splitting_verifiers",
]


class TameConfig:
    """One (inertia generator, Frobenius) configuration up to conjugacy.

    The powers of tau, listed once, give the ramification index e = |I| of
    the Galois closure and its residue degree f, the order of sigma modulo
    I, which is |D| / |I| because sigma normalizes I.
    """

    def __init__(self, group: PermGroup, inertia_gen: Perm, frobenius: Perm):
        self.group = group
        self.inertia_gen = inertia_gen
        self.frobenius = frobenius
        inertia, g = set(), inertia_gen
        while g not in inertia:
            inertia.add(g)
            g = g * inertia_gen
        if frobenius * inertia_gen * frobenius.inverse() not in inertia:
            raise ValueError("inertia subgroup is not normal in the decomposition group")
        f, g = 1, frobenius
        while g not in inertia:
            f, g = f + 1, g * frobenius
        self.e, self.f = len(inertia), f


class SplittingSymbol(tuple):
    """Multiset of (e, f) pairs, one per prime above p in the acting field:
    the tuple of the pairs, sorted."""

    __slots__ = ()

    def __new__(cls, pairs: Iterable[tuple[int, int]]):
        return tuple.__new__(cls, sorted(pairs))

    def degree(self) -> int:
        return sum(e * f for e, f in self)

    def disc_valuation(self) -> int:
        """Tame discriminant valuation: sum of (e - 1) f."""
        return sum((e - 1) * f for e, f in self)

    def e_values(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self)


class ValuationProfile(NamedTuple):
    """Discriminant valuations at one tame prime, with the checked symbols they are read off."""

    v_disc_L: int
    v_disc_K: int
    octic_symbol: SplittingSymbol
    quartic_symbol: SplittingSymbol

    @property
    def v_norm(self) -> int:
        """Valuation of the relative discriminant's norm: v_L - 2 v_K."""
        return self.v_disc_L - 2 * self.v_disc_K


def enumerate_tame_configs(G: PermGroup) -> list[TameConfig]:
    """All tame configurations of G up to G-conjugacy.

    For each class of nontrivial cyclic subgroups I = <tau>, read from the
    subgroup lattice, every decomposition group arises as D = <I, sigma> for
    sigma in the normalizer N = N_G(I); two Frobenius cosets sigma I are
    identified when conjugate under N, so the configurations over I are the
    conjugacy classes of N/I.  The Frobenius representative of a class is the
    least element, in image order, of all its cosets.
    """
    configs: list[TameConfig] = []
    for cls in subgroup_classes(G):
        I = cls.representative
        if I.order == 1 or len(I.generators) != 1:
            continue
        tau = I.generators[0]
        configs += (TameConfig(group=G, inertia_gen=tau, frobenius=sigma)
                    for sigma in coset_class_minima(G, I, cls.normalizer))
    configs.sort(key=lambda c: (c.e, c.f, c.inertia_gen, c.frobenius))
    return configs


def splitting_symbol(cfg: TameConfig, action: CosetAction) -> SplittingSymbol:
    """One (e, f) pair per decomposition-group orbit on the coset space.

    tau and sigma are acted on once each.  The orbits of D = <tau, sigma>
    are read from their images, and each orbit's e is the length of the
    tau-cycle through its least point, since the <tau>-orbits are the
    cycles of tau.  The symbol is returned only after its orbit formula
    sum (e-1) f equals the index formula ind(tau) in the same action.
    """
    if action.group != cfg.group:
        raise ValueError("action does not belong to the configuration's group")
    tau, sigma = action.act(cfg.inertia_gen), action.act(cfg.frobenius)
    e_at = {c[0]: len(c) for c in tau.cycles()}  # each cycle starts at its least point
    pairs = []
    for orbit in PermGroup([tau, sigma]).orbits():
        e = e_at[min(orbit)]
        if len(orbit) % e:
            raise RuntimeError("inertia orbit length does not divide the D-orbit length")
        pairs.append((e, len(orbit) // e))
    sym = SplittingSymbol(pairs)
    if sym.disc_valuation() != tau.index:
        raise RuntimeError(
            f"orbit formula gives {sym.disc_valuation()}, index formula gives {tau.index}"
        )
    return sym


def valuation_profile(
    cfg: TameConfig, octic: CosetAction, quartic: CosetAction
) -> ValuationProfile:
    """Tame discriminant valuations in L (octic action) and K (quartic action),
    read off the two splitting symbols, each checked where it is made."""
    if octic.induced_degree != 8 or quartic.induced_degree != 4:
        raise ValueError("expected a degree-8 and a degree-4 action")
    sym_L, sym_K = splitting_symbol(cfg, octic), splitting_symbol(cfg, quartic)
    return ValuationProfile(sym_L.disc_valuation(), sym_K.disc_valuation(), sym_L, sym_K)


@lru_cache(maxsize=None)
def _tame_profiles(label: str) -> tuple[tuple[TameConfig, ValuationProfile], ...]:
    """Every tame configuration of a catalog group with its valuation profile.

    Built once per label and shared by the lemma verifiers.  Each Frobenius
    sigma normalizes <tau>, so every configuration is tame-compatible.
    """
    octic = octic_action(label)
    quartic = quartic_action(label)
    return tuple(
        (cfg, valuation_profile(cfg, octic, quartic))
        for cfg in enumerate_tame_configs(catalog_group(label))
    )


def _cfg_desc(cfg: TameConfig) -> str:
    return (
        f"I=<{cfg.inertia_gen.cycle_string()}> (order {cfg.e}), "
        f"|D|={cfg.e * cfg.f}, sigma={cfg.frobenius.cycle_string()}"
    )


# Lemma 8.1's valuation parts, whose witnesses say "part1:" and "part2:".
_WITNESS_PREFIX = {"part1_valuation": "part1", "part2_valuation": "part2"}


def _part_statuses(report: VerificationReport, *parts: str) -> dict[str, str]:
    """A part fails exactly when a witness starts with its prefix and a colon."""
    failed = {w.split(":", 1)[0] for w in report.witnesses}
    return {p: "fail" if _WITNESS_PREFIX.get(p, p) in failed else "pass" for p in parts}


def verify_lemma_splitting(label: str) -> VerificationReport:
    """Ramification constraints for the GL2(F3) tower, over all tame configs.

    Part 1: |I| lies in {2,3,4,6,8}.  Part 2: if |I| = 2 and the quartic
    ramification indices are not all equal, the residue degree |D|/|I| is at
    most 2.  Part 3: if every octic ramification index is at most 2 and the
    quartic indices are not all equal, then |I| = 2 and |D|/|I| <= 2.
    Part statuses are read from the witnesses.
    """
    report = VerificationReport(f"splitting.lemma_splitting.{label}")
    profiles = _tame_profiles(label)
    for cfg, prof in profiles:
        mixed_quartic = len(set(prof.quartic_symbol.e_values())) > 1
        if cfg.e not in {2, 3, 4, 6, 8}:
            report.fail(f"part1: e={cfg.e} at {_cfg_desc(cfg)}")
        if cfg.e == 2 and mixed_quartic and cfg.f > 2:
            report.fail(f"part2: f={cfg.f} at {_cfg_desc(cfg)}")
        if max(prof.octic_symbol.e_values()) <= 2 and mixed_quartic:
            if cfg.e != 2 or cfg.f > 2:
                report.fail(f"part3: e={cfg.e}, f={cfg.f} at {_cfg_desc(cfg)}")
    report.details["group"] = label
    report.details["configs_checked"] = len(profiles)
    report.details["parts"] = _part_statuses(report, "part1", "part2", "part3")
    return report


def verify_lemma_vpn(label: str) -> VerificationReport:
    """Relative-discriminant valuations for the GL2(F3) tower.

    Part 1: primes unramified in the quartic have v_norm = 4.  Part 2: primes
    ramified in the quartic have v_norm <= v_disc_K.  Part 3: v_disc_K = 3
    forces v_norm >= 1.  Part statuses are read from the witnesses.  The
    diagnostic `holds_including_nontame` records whether the same checks hold
    with non-tame-compatible configurations included; there are none, so it
    agrees with the verdict.
    """
    report = VerificationReport(f"splitting.lemma_vpn.{label}")
    profiles = _tame_profiles(label)
    for cfg, prof in profiles:
        if prof.v_disc_K == 0 and prof.v_norm != 4:
            report.fail(f"part1: v_norm={prof.v_norm} at {_cfg_desc(cfg)}")
        if prof.v_disc_K >= 1 and prof.v_norm > prof.v_disc_K:
            report.fail(
                f"part2: v_norm={prof.v_norm} > v_K={prof.v_disc_K} at {_cfg_desc(cfg)}"
            )
        if prof.v_disc_K == 3 and prof.v_norm < 1:
            report.fail(f"part3: v_norm=0 with v_K=3 at {_cfg_desc(cfg)}")
    report.details["group"] = label
    report.details["configs_checked"] = len(profiles)
    report.details["parts"] = _part_statuses(report, "part1", "part2", "part3")
    report.details["holds_including_nontame"] = not report.witnesses
    return report


def verify_lemma_81(label: str) -> VerificationReport:
    """Valuation comparisons for the order-192 tower with quaternion kernels.

    Part 1 (valuation form): if both v_disc_K >= 1 and v_norm >= 1 then each
    bounds the other within a factor of 3.  Part 2 (valuation form):
    v_disc_K in {1, 3} forces v_norm >= 1.  A separate subcheck asserts the
    documented expectation index_set = {2, 4, 8}; the computed index set is
    reported alongside (indices of degree-8 permutations never exceed 7, so
    this expectation cannot hold for any group and the subcheck records an
    honest failure).  The valuation conclusion the expectation was used for
    - v_norm never equals 4 when v_disc_K >= 1 - is checked directly.  Part
    statuses are read from the witnesses.
    """
    report = VerificationReport(f"splitting.lemma_81.{label}")
    profiles = _tame_profiles(label)
    for cfg, prof in profiles:
        vK, vN = prof.v_disc_K, prof.v_norm
        if vK >= 1 and vN >= 1 and not (vK <= 3 * vN and vN <= 3 * vK):
            report.fail(f"part1: (v_K, v_norm)=({vK},{vN}) at {_cfg_desc(cfg)}")
        if vK in (1, 3) and vN < 1:
            report.fail(f"part2: v_norm=0 with v_K={vK} at {_cfg_desc(cfg)}")
        if vK >= 1 and vN == 4:
            report.fail(f"n0_never_4: v_norm=4 with v_K={vK} at {_cfg_desc(cfg)}")
    computed = index_set(catalog_group(label))
    report.details["computed_index_set"] = sorted(computed)
    if computed != {2, 4, 8}:
        report.fail(
            f"index_set: computed {sorted(computed)}, documented expectation {{2, 4, 8}}"
        )
    report.details["group"] = label
    report.details["configs_checked"] = len(profiles)
    report.details["parts"] = _part_statuses(
        report, "part1_valuation", "part2_valuation", "n0_never_4", "index_set")
    return report


# (verifier, catalog label) in claim_id order, from the one table in `labels`.
SPLITTING_VERIFIERS = tuple((globals()[name], label) for name, label in SPLITTING_LEMMAS)


def run_all_splitting_verifiers(labels: Optional[Iterable[str]]) -> list[VerificationReport]:
    """The lemma verifiers of the requested catalog groups (all when None)."""
    wanted = set(labels) if labels else None
    return [
        verify(label)
        for verify, label in SPLITTING_VERIFIERS
        if wanted is None or label in wanted
    ]
