"""Permutation engine tests, with brute-force oracles at small scale."""

from __future__ import annotations

import ast
import json
import inspect
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from octicount import catalog, perms
from octicount.catalog import LABELS, catalog_group
from octicount.verify import run_all_group_verifiers
from octicount.perms import (
    MAX_DEGREE,
    SUBGROUP_ORDER_CAP,
    GroupTooLargeError,
    Perm,
    PermGroup,
    abstract_isomorphic,
    coset_action,
    coset_class_minima,
    index_set,
    malle_alpha,
    normal_subgroups,
    parse_cycle_string,
    perm_isomorphic,
    quotient_as_perm,
    small_generating_set,
    subgroup_classes,
    wreath_c2_s4,
)


DATA = Path(__file__).parent / "data"


def P(degree, text):
    return parse_cycle_string(degree, text)


def conjugate(H: PermGroup, g: Perm) -> PermGroup:
    """g H g^-1, on the conjugated generators of H."""
    ginv = g.inverse()
    return PermGroup([g * h * ginv for h in H.generators], degree=H.degree)


def normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """N_G(H) by testing every g in G against the generators of H."""
    elems = [g for g in G.elements
             if all(g * h * g.inverse() in H.elements for h in H.generators)]
    return PermGroup.from_elements(elems, G.degree)


def conjugates(G: PermGroup, H: PermGroup) -> frozenset[frozenset[Perm]]:
    """Every g H g^-1 for g in G, scanning all of G.

    g H g^-1 depends only on the left coset gH, so each coset is conjugated
    once; that keeps S8 over A8 at two conjugations.
    """
    found, covered = set(), set()
    for g in G.elements:
        if g not in covered:
            covered.update(g * h for h in H.elements)
            ginv = g.inverse()
            found.add(frozenset(g * h * ginv for h in H.elements))
    return frozenset(found)


def normal_core(G: PermGroup, H: PermGroup) -> PermGroup:
    """Largest normal subgroup of G inside H: the intersection of the conjugates."""
    return PermGroup.from_elements(frozenset.intersection(*conjugates(G, H)), G.degree)


def cyclic_subgroup_orders(G: PermGroup) -> set[int]:
    """Orders of the cyclic subgroups of G: the element orders."""
    return {g.order() for g in G.elements}


class TestPermBasics:
    def test_compose_and_inverse(self):
        a = P(4, "(1,2,3)")
        b = P(4, "(3,4)")
        assert (a * b) * (a * b).inverse() == Perm.identity(4)
        # (a*b)(x) = a(b(x))
        assert (a * b)(3) == a(4)

    def test_associative(self):
        a, b, c = P(5, "(1,2)"), P(5, "(2,3,4)"), P(5, "(1,5)(2,4)")
        assert (a * b) * c == a * (b * c)

    def test_index_examples(self):
        assert P(8, "(1,2)").index == 1
        assert Perm.identity(8).index == 0
        assert P(8, "(1,2,3,4,5,6,7,8)").index == 7

    def test_index_conjugation_invariant(self):
        g = P(8, "(1,2,3)(4,5)")
        for h in PermGroup.symmetric(8).generators:
            assert (h * g * h.inverse()).index == g.index

    def test_cycle_string_round_trip(self):
        g = P(8, "(1,3,5)(2,4)(6,8)")
        assert parse_cycle_string(8, g.cycle_string()) == g

    def test_repeated_point_rejected(self):
        # Each of these still gives a bijection if the repeat is ignored.
        for text, point in (("(1,1)", 1), ("(1,2)(2,1)", 2), ("(1,2)(1,2)", 1)):
            with pytest.raises(ValueError, match=f"point {point} appears twice"):
                parse_cycle_string(3, text)

    def test_catalog_generator_strings_parse_and_round_trip(self):
        source = ast.parse(inspect.getsource(catalog))
        texts = [arg.value for node in ast.walk(source)
                 if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_gens"
                 for arg in node.args]
        assert len(texts) == sum(len(catalog_group(label).generators) for label in LABELS) > 0
        for text in texts:
            g = parse_cycle_string(8, text)
            assert parse_cycle_string(8, g.cycle_string()) == g

    def test_public_constructors_still_validate(self):
        # Products and inverses skip the bijection check; the boundary keeps it.
        with pytest.raises(ValueError):
            Perm((1, 1, 2))
        with pytest.raises(ValueError):
            Perm.from_cycles(3, [(1, 4)])


class TestPermGroup:
    def test_order_cross_check(self):
        for G in (PermGroup.symmetric(4), wreath_c2_s4()):
            assert G.order == _sympy_perm_group(G.generators).order()

    def test_closure(self):
        G = PermGroup([P(4, "(1,2)"), P(4, "(1,2,3,4)")])
        elems = G.elements
        assert all(a * b in elems for a in G.generators for b in elems)
        assert all(a.inverse() in elems for a in elems)

    def test_conjugacy_class_sizes(self):
        G = PermGroup.symmetric(4)
        assert sorted(len(c) for c in G.conjugacy_classes) == [1, 3, 6, 6, 8]

    @pytest.mark.parametrize("label", LABELS)
    def test_conjugacy_class_order_is_total(self, label):
        # Classes tied on (cycle type, size) are ordered by their least image
        # tuple, so the list depends on the element set, not the generators.
        G = catalog_group(label)
        classes = G.conjugacy_classes
        keys = [(min(p.cycle_type() for p in c), len(c), min(p.images for p in c))
                for c in classes]
        assert keys == sorted(set(keys))
        regenerated = PermGroup(list(reversed(small_generating_set(G))))
        assert regenerated == G and regenerated.conjugacy_classes == classes


class TestMalle:
    def test_alpha_examples(self):
        assert malle_alpha(wreath_c2_s4()) == Fraction(1)
        assert malle_alpha(PermGroup.symmetric(8)) == Fraction(1)

    def test_trivial_group_rejected(self):
        with pytest.raises(ValueError):
            malle_alpha(PermGroup.trivial(4))

    def test_conjugation_invariant(self):
        G = wreath_c2_s4()
        g = P(8, "(1,5)(2,6,3,7)")
        assert malle_alpha(conjugate(G, g)) == malle_alpha(G)


class TestWreath:
    def test_order_and_transitivity(self):
        W = wreath_c2_s4()
        assert W.order == 384
        assert W.is_transitive()

    def test_not_in_a8(self):
        W = wreath_c2_s4()
        assert any(not g.is_even() for g in W.elements)


def brute_force_subgroups(G: PermGroup, max_gens: int = 3) -> set[frozenset]:
    """Independent oracle: subgroups generated by <= max_gens elements, by
    plain closure.  <a, b, ...> depends only on <a>, <b>, ..., so one
    generator of each cyclic subgroup stands for all of its generators."""
    cyclic = {}  # element set of <g> -> its least generator g
    for g in sorted(G.elements, key=lambda p: p.images):
        cyclic.setdefault(frozenset(PermGroup([g]).elements), g)
    found = {frozenset([G.identity])}
    for k in range(1, max_gens + 1):
        for gens in combinations(cyclic.values(), k):
            found.add(frozenset(PermGroup(gens, degree=G.degree).elements))
    return found


def lattice_census(G: PermGroup) -> list[list]:
    """Sorted [order, class size, is cyclic] of every subgroup class of G."""
    return sorted(
        [c.order, c.class_size,
         max(g.order() for g in c.representative.elements) == c.order]
        for c in subgroup_classes(G)
    )


def lattice_fields(classes) -> list[tuple]:
    """Each class's representative, its generators, its conjugates and its
    normalizer, in lattice order."""
    return [(c.representative.elements, c.representative.generators, c.conjugates,
             c.normalizer.elements) for c in classes]


@pytest.fixture
def fresh_lattices():
    """Forget every lattice, before the test, when called, and after it."""
    def forget():
        subgroup_classes.cache_clear()
        perms._LATTICES.clear()

    forget()
    yield forget
    forget()


class TestSubgroupLattice:
    def test_s3_classes(self):
        classes = subgroup_classes(PermGroup.symmetric(3))
        assert len(classes) == 4
        assert sorted(c.order for c in classes) == [1, 2, 3, 6]

    def test_class_size_equals_normalizer_index(self):
        D4 = PermGroup([P(4, "(1,2,3,4)"), P(4, "(1,3)")])
        groups = [PermGroup.symmetric(4), PermGroup.symmetric(5), D4]
        for G in groups + [catalog_group(label) for label in LABELS]:
            for cls in subgroup_classes(G):
                H = cls.representative
                assert cls.normalizer == normalizer(G, H)
                assert cls.conjugates == conjugates(G, H)
                assert cls.class_size == G.order // cls.normalizer.order

    def test_catalog_normalizers_match_reclosure(self):
        for label in LABELS:
            for cls in subgroup_classes(catalog_group(label)):
                assert cls.normalizer == reclosed(cls.normalizer)

    def test_catalog_lattices_match_pinned_census(self):
        # (order, class size, cyclic) of every class, pinned in lattice.json
        # from the lattice computed by joining every cyclic subgroup.
        pinned = json.loads((DATA / "lattice.json").read_text())
        assert sorted(pinned) == sorted(LABELS)
        for label in LABELS:
            assert lattice_census(catalog_group(label)) == pinned[label], label

    def test_s5_brute_force(self):
        # S5 has cyclic subgroups of order 6, which no join step adds: they
        # come from the cyclic seeds alone.  Every subgroup of S5 is 2-generated.
        S5 = PermGroup.symmetric(5)
        classes = subgroup_classes(S5)
        assert len(classes) == 19
        assert sum(c.class_size for c in classes) == len(
            brute_force_subgroups(S5, max_gens=2)
        ) == 156

    def test_cyclic_representatives_are_least_conjugates(self):
        for label in LABELS:
            G = catalog_group(label)
            for cls in subgroup_classes(G):
                H = cls.representative
                if len(H.generators) != 1 or H.order == 1:
                    continue
                least = min(sorted(p.images for p in c) for c in conjugates(G, H))
                assert sorted(p.images for p in H.elements) == least
                gens = [g for g in H.elements if g.order() == H.order]
                assert H.generators[0] == min(gens, key=lambda p: p.images)

    def test_8T23_brute_force(self):
        # GL(2,3) has order 2^4 3, so its lattice takes the solvable route,
        # which joins H only with cyclic subgroups inside N(H).  All 55 of
        # its subgroups are 2-generated.
        G = catalog_group("8T23")
        found = {conj for c in subgroup_classes(G) for conj in c.conjugates}
        assert found == brute_force_subgroups(G, max_gens=2)
        assert len(found) == 55

    def test_three_prime_solvable_brute_force(self):
        # S3 x D5 has order 2^2 3 5, so its lattice joins with every cyclic
        # subgroup, like S5's.  By Goursat's lemma each subgroup is A x B or
        # an index-2 subgroup of one with A and B cyclic or dihedral, so
        # each is 2-generated.
        G = PermGroup([P(8, "(1,2,3)"), P(8, "(1,2)"), P(8, "(4,5,6,7,8)"), P(8, "(5,8)(6,7)")])
        assert G.order == 60
        found = {conj for c in subgroup_classes(G) for conj in c.conjugates}
        assert found == brute_force_subgroups(G, max_gens=2)
        assert len(found) == 72

    def test_wreath_lattice_close_count(self, monkeypatch, fresh_lattices):
        # A work bound, not a timing.  Joining every representative with every
        # cyclic subgroup took 39,420 coset enumerations on C2 wr S4; prime-power
        # joins, one per normalizer orbit, took 6,829.  Joining only inside the
        # normalizer (|W| = 2^7 3) takes 2,255 joins; the 384 cyclic subgroups
        # are walked as powers of their generators and take none (closing
        # them made 3,117 in all).  The normalizers of the 192 nontrivial
        # representatives take one each.  Choosing the generators of the 193
        # representatives takes 286 more, since each first generator spans a
        # cyclic subgroup already found; closing it again made 478.
        calls = Counter()
        close = PermGroup._close

        def counted(self, base, gens):
            calls["close"] += 1
            return close(self, base, gens)

        monkeypatch.setattr(PermGroup, "_close", counted)
        assert len(subgroup_classes(wreath_c2_s4())) == 193
        assert calls["close"] <= 2733

    def test_orbit_stabilizer_normalizers_match_brute_force(self, monkeypatch, fresh_lattices):
        # Each normalizer is the closure of the representative with the
        # Schreier generators of its conjugacy orbit: one coset enumeration,
        # and no scan of G.
        calls = Counter()
        close = PermGroup._close

        def counted(self, base, gens):
            calls["close"] += 1
            return close(self, base, gens)

        monkeypatch.setattr(PermGroup, "_close", counted)
        for G in [wreath_c2_s4()] + [catalog_group(label) for label in LABELS]:
            for cls in subgroup_classes(G):
                calls.clear()
                assert cls.normalizer == normalizer(G, cls.representative)
                assert calls["close"] <= 1

    @pytest.mark.parametrize("fault", ["transversal", "schreier"])
    def test_corrupt_orbit_raises(self, monkeypatch, fresh_lattices, fault):
        # A transversal built from the wrong generator numbers, or a Schreier
        # generator outside the normalizer, closes to a group whose order is
        # not |G| over the orbit length.  The check is no assert, so it holds
        # under python -O too.
        W = wreath_c2_s4()
        if fault == "transversal":
            tables = perms._conjugation_tables
            monkeypatch.setattr(perms, "_conjugation_tables", lambda A, gens: [
                (g, conj) for (_, conj), (g, _) in zip(tables(A, gens), tables(A, gens)[::-1])])
        else:
            orbit = perms._conjugacy_orbit
            monkeypatch.setattr(perms, "_conjugacy_orbit", lambda A, members, tables: (
                orbit(A, members, tables)[0], set(range(A.order))))
        with pytest.raises(RuntimeError, match=re.escape(f"normalizer in {W!r}")):
            subgroup_classes(W)

    def test_restricted_lattices_equal_direct_ones(self, fresh_lattices):
        # Every catalog group and every transitive class of W whose order 24
        # divides (the S8-class heads whose lattices the classification
        # reads), each computed alone, then read off W's lattice.
        W = wreath_c2_s4()
        groups = [catalog_group(label) for label in LABELS] + [
            c.representative for c in subgroup_classes(W)
            if c.representative.is_transitive() and c.order % 24 == 0]
        assert len(groups) == 16
        direct = {}
        for G in groups:
            fresh_lattices()
            direct[G] = lattice_fields(subgroup_classes(G))
        wreath = lattice_fields(subgroup_classes(W))
        fresh_lattices()
        assert lattice_fields(subgroup_classes(W)) == wreath
        for G in groups:
            assert lattice_fields(subgroup_classes(G)) == direct[G], G

    def test_verify_groups_computes_two_lattices(self, monkeypatch, fresh_lattices):
        # W and the C6 control of verify_s4_unique_octic; every other lattice
        # is read off W's.
        computed = []
        compute = perms._compute_lattice
        monkeypatch.setattr(perms, "_compute_lattice", lambda G: computed.append(G) or compute(G))
        assert all(r.passed for r in run_all_group_verifiers())
        assert computed == [wreath_c2_s4(), PermGroup([P(6, "(1,2,3,4,5,6)")])]

    def test_coset_class_minima_on_s3(self):
        S3 = PermGroup.symmetric(3)
        assert coset_class_minima(S3, PermGroup([P(3, "(1,2,3)")]), S3) == [
            Perm.identity(3), P(3, "(2,3)")
        ]
        with pytest.raises(ValueError, match="not normal"):
            coset_class_minima(S3, PermGroup([P(3, "(1,2)")]), S3)

    def test_total_count_vs_brute_force(self):
        # Every subgroup of S4 needs at most 2 generators; use 3 for margin.
        G = PermGroup.symmetric(4)
        oracle = brute_force_subgroups(G)
        classes = subgroup_classes(G)
        assert sum(c.class_size for c in classes) == len(oracle) == 30

    def test_d4_brute_force(self):
        D4 = PermGroup([P(4, "(1,2,3,4)"), P(4, "(1,3)")])
        assert sum(c.class_size for c in subgroup_classes(D4)) == len(
            brute_force_subgroups(D4)
        ) == 10

    def test_transitive_classes_of_s4(self):
        classes = subgroup_classes(PermGroup.symmetric(4))
        transitive = [c for c in classes if c.representative.is_transitive()]
        assert len(transitive) == 5


class TestPermIsomorphic:
    def test_transposition_conjugate(self):
        A = PermGroup([P(4, "(1,2)")])
        B = PermGroup([P(4, "(3,4)")])
        c = perm_isomorphic(A, B)
        assert c is not None
        assert conjugate(A, c) == B

    def test_c4_vs_v4(self):
        C4 = PermGroup([P(4, "(1,2,3,4)")])
        V4 = PermGroup([P(4, "(1,2)(3,4)"), P(4, "(1,3)(2,4)")])
        assert perm_isomorphic(C4, V4) is None

    def test_census_is_computed_once_per_group(self, monkeypatch):
        # C4 and V4 differ in their cycle-type census alone, so a second
        # comparison decides with no cycle type computed.
        C4 = PermGroup([P(4, "(1,2,3,4)")])
        V4 = PermGroup([P(4, "(1,2)(3,4)"), P(4, "(1,3)(2,4)")])
        assert perm_isomorphic(C4, V4) is None
        calls = Counter()
        cycle_type = Perm.cycle_type
        monkeypatch.setattr(Perm, "cycle_type",
                            lambda p: calls.update(["cycle_type"]) or cycle_type(p))
        assert perm_isomorphic(V4, C4) is None
        assert calls["cycle_type"] == 0

    def test_relabeled_group(self):
        from octicount.catalog import catalog_group

        G = catalog_group("8T39")
        H = conjugate(G, P(8, "(1,2)"))
        c = perm_isomorphic(G, H)
        assert c is not None and conjugate(G, c) == H

    def test_bad_witness_is_rejected(self, monkeypatch):
        A = PermGroup([P(4, "(1,2)")])
        B = PermGroup([P(4, "(3,4)")])
        monkeypatch.setattr(perms, "_conjugators", lambda g, b: iter([Perm.identity(4)]))
        with pytest.raises(RuntimeError, match="does not map A into B"):
            perm_isomorphic(A, B)

    def test_witness_maps_generators(self):
        A = PermGroup([P(6, "(1,2,3)"), P(6, "(4,5)")])
        B = conjugate(A, P(6, "(1,4)(2,5)(3,6)"))
        c = perm_isomorphic(A, B)
        assert all(c * g * c.inverse() in B.elements for g in A.generators)


def action_kernel(act) -> frozenset:
    """Elements of the acting group that fix every coset."""
    return frozenset(g for g in act.group.elements if act.act(g).is_identity())


def reclosed(H: PermGroup) -> PermGroup:
    """H rebuilt by closure from a greedy generating subset of its element set."""
    return PermGroup(small_generating_set(H), degree=H.degree)


def _a8() -> PermGroup:
    return PermGroup([P(8, "(1,2,3)"), P(8, "(2,3,4,5,6,7,8)")])


class TestSeededElementSets:
    """Subgroups built from a known element set equal their re-closed versions."""

    @pytest.mark.parametrize("label", LABELS + ("S8",))
    def test_seeded_constructors_match_reclosure(self, label):
        if label == "S8":
            G = PermGroup.symmetric(8)
            H = _a8()
        else:
            G = catalog_group(label)
            # setwise stabilizer of the block {1, 2}; its core is the block kernel
            H = PermGroup(
                [g for g in G.elements if {g(1), g(2)} == {1, 2}], degree=8
            )
        stab = G.stabilizer(1)
        assert stab == reclosed(stab)
        assert stab.order * len(G.orbit(1)) == G.order

        cyc = PermGroup([G.generators[0]], degree=8)
        norm = normalizer(G, cyc)
        assert norm == reclosed(norm)
        assert cyc.is_normal_in(norm)

        core = normal_core(G, H)
        assert core == reclosed(core)
        assert core.is_normal_in(G) and core.is_subgroup_of(H)

        assert action_kernel(coset_action(G, H)) == core.elements

    def test_s8_normalizer_of_8_cycle(self):
        S8 = PermGroup.symmetric(8)
        C8 = PermGroup([P(8, "(1,2,3,4,5,6,7,8)")])
        # the holomorph C8 : Aut(C8), of order 8 * 4
        assert normalizer(S8, C8).order == 32


class TestCosetAction:
    def test_s3_natural(self):
        G = PermGroup.symmetric(3)
        act = coset_action(G, PermGroup([P(3, "(2,3)")]))
        assert act.induced_degree == 3
        assert perm_isomorphic(act.image(), G) is not None

    def test_point_stabilizer_gives_natural_action(self):
        for G in (wreath_c2_s4(), PermGroup.symmetric(4)):
            act = coset_action(G, G.stabilizer(1))
            assert act.induced_degree == G.degree
            assert perm_isomorphic(act.image(), G) is not None

    def test_block_action_kernel(self):
        W = wreath_c2_s4()
        blocks = PermGroup(
            [g for g in W.elements if {g(1), g(2)} == {1, 2}], degree=8
        )
        act = coset_action(W, blocks)
        assert act.induced_degree == 4
        kernel = action_kernel(act)
        assert len(kernel) == 16
        assert {g.order() for g in kernel} == {1, 2}

    def test_kernel_is_normal_core(self):
        G = PermGroup.symmetric(4)
        H = PermGroup([P(4, "(1,2)")])
        act = coset_action(G, H)
        assert action_kernel(act) == normal_core(G, H).elements

    def test_unclosed_subgroup_fails_coset_count(self):
        # A seeded set that is not a group passes the subset test but cannot
        # give |G|/|H| cosets.
        G = PermGroup.symmetric(3)
        H = PermGroup.from_elements([Perm.identity(3), P(3, "(1,2)"), P(3, "(1,3)")], 3)
        with pytest.raises(RuntimeError, match="cosets"):
            coset_action(G, H)


class TestQuotient:
    def test_wreath_mod_base(self):
        W = wreath_c2_s4()
        base = PermGroup(
            [P(8, "(1,2)"), P(8, "(3,4)"), P(8, "(5,6)"), P(8, "(7,8)")]
        )
        Q = quotient_as_perm(W, base)
        assert Q.order == 24
        assert abstract_isomorphic(Q, PermGroup.symmetric(4))

    def test_s4_mod_v4(self):
        G = PermGroup.symmetric(4)
        V4 = PermGroup([P(4, "(1,2)(3,4)"), P(4, "(1,3)(2,4)")])
        Q = quotient_as_perm(G, V4)
        assert Q.order == 6
        assert abstract_isomorphic(Q, PermGroup.symmetric(3))

    def test_full_quotient_trivial(self):
        G = PermGroup.symmetric(3)
        assert quotient_as_perm(G, G).order == 1

    def test_non_normal_rejected(self):
        G = PermGroup.symmetric(3)
        with pytest.raises(ValueError):
            quotient_as_perm(G, PermGroup([P(3, "(1,2)")]))

    def test_quotient_above_the_degree_cap_is_refused(self):
        # W / 1 would act on 384 cosets, but a Perm has at most MAX_DEGREE
        # points: the cap is named before any coset is built.
        W = wreath_c2_s4()
        with pytest.raises(GroupTooLargeError, match=f"coset index 384 exceeds cap {MAX_DEGREE}"):
            quotient_as_perm(W, PermGroup.trivial(8))


class TestElementSets:
    def test_cyclic_orders_s4(self):
        assert cyclic_subgroup_orders(PermGroup.symmetric(4)) == {1, 2, 3, 4}

    def test_index_set_of_8_cycle(self):
        C8 = PermGroup([P(8, "(1,2,3,4,5,6,7,8)")])
        assert index_set(C8) == {4, 6, 7}

    @pytest.mark.parametrize("compute", [subgroup_classes, lambda G: normal_subgroups(G, G.order)],
                             ids=["subgroup_classes", "normal_subgroups"])
    def test_subgroup_cap(self, compute):
        S7 = PermGroup.symmetric(7)
        assert S7.order == 5040 > SUBGROUP_ORDER_CAP
        with pytest.raises(GroupTooLargeError, match="capped at order"):
            compute(S7)

    def test_normal_subgroups_of_s4(self):
        G = PermGroup.symmetric(4)
        orders = sorted(N.order for N in normal_subgroups(G, G.order))
        assert orders == [1, 4, 12, 24]


def _sympy_perm_group(gens):
    """sympy.combinatorics group on the given generators, points shifted to 0.."""
    from sympy.combinatorics import Permutation, PermutationGroup

    return PermutationGroup([Permutation([i - 1 for i in g.images]) for g in gens])


def _sympy_group(G: PermGroup):
    """G for sympy, on a greedy small generating set: sympy's isomorphism
    search grows with the number of generators of its first argument."""
    return _sympy_perm_group(reclosed(G).generators)


@lru_cache(maxsize=None)
def _wreath_elements() -> tuple[Perm, ...]:
    return tuple(sorted(wreath_c2_s4().elements, key=lambda p: p.images))


class TestSympyDifferential:
    """Subgroups of C2 wr S4 on 1-3 drawn generators, against sympy."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(picks=st.lists(st.integers(0, 383), min_size=1, max_size=3))
    def test_invariants_agree(self, picks):
        W = wreath_c2_s4()
        gens = [_wreath_elements()[i] for i in picks]
        H = PermGroup(gens, degree=8)
        sH = _sympy_perm_group(gens)
        assert H.order == sH.order()
        assert H.is_transitive() == sH.is_transitive()
        assert H.stabilizer(1).order == sH.stabilizer(0).order()
        assert len(H.conjugacy_classes) == len(sH.conjugacy_classes())

        # sympy's is_normal answers True for an abelian subgroup, normal or
        # not, once is_abelian has been computed on it (seen in sympy 1.14),
        # so each normality query gets fresh sympy groups.
        fresh = lambda: _sympy_perm_group(gens)
        sW = lambda: _sympy_perm_group(W.generators)
        assert H.is_normal_in(W) == fresh().is_normal(sW())
        closure = sW().normal_closure(fresh())
        N = PermGroup(
            [Perm([i + 1 for i in g.array_form]) for g in closure.generators], degree=8
        )
        assert N.order == closure.order()
        assert N.is_normal_in(W)
        assert H.is_normal_in(N) == fresh().is_normal(_sympy_perm_group(N.generators))


def _c2_x_q8() -> PermGroup:
    return PermGroup(
        [P(10, "(1,2,3,4)(5,6,7,8)"), P(10, "(1,5,3,7)(2,8,4,6)"), P(10, "(9,10)")]
    )


def _c4_semidirect_c4() -> PermGroup:
    """<a, b | a^4 = b^4 = 1, b a b^-1 = a^-1>, regular on a^i b^j -> 1 + i + 4j."""
    point = lambda i, j: 1 + i % 4 + 4 * (j % 4)
    a = Perm([point(i + 1, j) for j in range(4) for i in range(4)])
    b = Perm([point(-i, j + 1) for j in range(4) for i in range(4)])
    return PermGroup([a, b])


def _subgroup_counts(G: PermGroup) -> Counter:
    """Number of subgroups of each order, from brute-force generation."""
    return Counter(len(s) for s in brute_force_subgroups(G))


def _sympy_invariants(g) -> tuple:
    """Isomorphism invariants of a sympy group, each computed by sympy: the
    order, the centre order, the derived-series orders, the element-order
    counts and whether the group is abelian."""
    return (g.order(), g.center().order(), tuple(d.order() for d in g.derived_series()),
            sorted(Counter(e.order() for e in g.elements).items()), g.is_abelian)


class TestAbstractIsomorphic:
    def test_agrees_with_sympy_on_small_transitive_classes(self):
        from sympy.combinatorics.homomorphisms import is_isomorphic

        from octicount.verify import transitive_degree8_classes

        small = [c.representative for c in transitive_degree8_classes() if c.order <= 16]
        assert len(small) == 15
        groups = [_sympy_group(A) for A in small]
        invariants = [_sympy_invariants(g) for g in groups]
        searched = 0
        for (A, sa, ia), (B, sb, ib) in combinations(zip(small, groups, invariants), 2):
            # sympy decides every pair: unequal invariants rule it out, and
            # its isomorphism search decides the rest.
            if ia != ib:
                expected = False
            else:
                searched += 1
                if len(sa.generators) > len(sb.generators):
                    sa, sb = sb, sa
                expected = bool(is_isomorphic(sa, sb))
            assert abstract_isomorphic(A, B) == expected
        assert 0 < searched < 105

    def test_negative_verdict_past_the_invariant_prefilter(self):
        # Same (element order, class size) multiset and centre of order 4,
        # but C2 x Q8 has quaternion subgroups and C4 : C4 has none.
        A, B = _c2_x_q8(), _c4_semidirect_c4()
        assert A.order == B.order == 16
        assert Counter(A._class_invariants.values()) == Counter(B._class_invariants.values())
        assert _subgroup_counts(A) != _subgroup_counts(B)
        assert not abstract_isomorphic(A, B)
        assert abstract_isomorphic(A, conjugate(A, P(10, "(1,9)(2,10)")))

    def test_positive_verdict_is_reverified(self, monkeypatch):
        A = PermGroup([P(4, "(1,2)")])
        B = PermGroup([P(4, "(3,4)")])
        assert abstract_isomorphic(A, B)
        # A search that returns a non-bijective map must not yield True.
        monkeypatch.setattr(
            perms, "_extend_hom", lambda phi, pairs: {a: B.identity for a in A.elements}
        )
        with pytest.raises(RuntimeError, match="not a bijection"):
            abstract_isomorphic(A, B)
