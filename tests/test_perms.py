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
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from octicount import catalog, perms, verify
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
    subgroup_classes,
    subgroup_classes_of_order,
    wreath_c2_s4,
)


DATA = Path(__file__).parent / "data"


def P(degree, text):
    return parse_cycle_string(degree, text)


def symmetric(n: int) -> PermGroup:
    """S_n, generated by (1,2) and (1,...,n)."""
    return PermGroup([P(n, "(1,2)"), Perm.from_cycles(n, [range(1, n + 1)])])


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
        for h in symmetric(8).generators:
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

    @pytest.mark.parametrize("images", [(1, 1, 2), (2, 3), (0, 1), (), range(1, MAX_DEGREE + 2)])
    def test_constructor_refuses_non_bijections_and_bad_degrees(self, images):
        with pytest.raises(ValueError, match="not a bijection|degree must be in"):
            Perm(images)

    def test_perm_is_its_image_tuple(self):
        g, images = P(4, "(1,3)(2,4)"), (3, 4, 1, 2)
        assert isinstance(g, tuple) and tuple(g) == images and g.degree == 4
        assert g == images and hash(g) == hash(images)
        assert images in {g} and {g: "g"}[images] == "g"
        gs = [P(3, "(1,2,3)"), P(3, "(2,3)"), Perm.identity(3), P(3, "(1,3)")]
        assert sorted(gs) == sorted(gs, key=tuple)
        assert len(Perm(range(1, MAX_DEGREE + 1))) == MAX_DEGREE

    def test_elements_sort_in_image_order(self):
        G = symmetric(4)
        assert sorted(G.elements) == sorted(G.elements, key=tuple)
        assert sorted(G.elements) == sorted(permutations(range(1, 5)))

    def test_perm_is_immutable(self):
        g = P(3, "(1,2)")
        for name in ("degree", "images", "anything"):
            with pytest.raises(AttributeError):
                setattr(g, name, (1, 2, 3))
        assert g == (2, 1, 3)

    def test_products_take_perms_only(self):
        a, b = P(3, "(1,2)"), P(3, "(2,3)")
        assert type(a * b) is Perm and a * b == (2, 3, 1)
        assert type(a.inverse()) is Perm
        with pytest.raises(TypeError):
            a * 3
        with pytest.raises(ValueError, match="degree mismatch"):
            a * Perm.identity(4)


class TestPermGroup:
    def test_order_cross_check(self):
        for G in (symmetric(4), wreath_c2_s4()):
            assert G.order == _sympy_perm_group(G.generators).order()

    def test_closure(self):
        G = PermGroup([P(4, "(1,2)"), P(4, "(1,2,3,4)")])
        elems = G.elements
        assert all(a * b in elems for a in G.generators for b in elems)
        assert all(a.inverse() in elems for a in elems)

    def test_closure_is_capped(self, monkeypatch):
        monkeypatch.setattr(perms, "MAX_ELEMENTS", 23)
        with pytest.raises(GroupTooLargeError, match="group exceeds 23 elements"):
            symmetric(4).elements


class TestMalle:
    def test_alpha_examples(self):
        assert malle_alpha(wreath_c2_s4()) == Fraction(1)
        assert malle_alpha(symmetric(8)) == Fraction(1)

    def test_trivial_group_rejected(self):
        with pytest.raises(ValueError):
            malle_alpha(PermGroup.trivial(4))

    def test_conjugation_invariant(self):
        G = wreath_c2_s4()
        g = P(8, "(1,5)(2,6,3,7)")
        assert malle_alpha(conjugate(G, g)) == malle_alpha(G)


# C2 wr S4 on its four block flips and the two block lifts.
WREATH_SIX = PermGroup([P(8, "(1,2)"), P(8, "(3,4)"), P(8, "(5,6)"), P(8, "(7,8)"),
                        P(8, "(1,3)(2,4)"), P(8, "(1,3,5,7)(2,4,6,8)")])


class TestWreath:
    def test_order_and_transitivity(self):
        W = wreath_c2_s4()
        assert W.order == 384
        assert W.is_transitive()

    def test_not_in_a8(self):
        W = wreath_c2_s4()
        assert any(not g.is_even() for g in W.elements)

    def test_three_generators_give_the_six_generator_group(self):
        # The flip (7,8) and the two block lifts; the lifts conjugate the
        # flip onto the other three, which the six-generator form listed.
        W = wreath_c2_s4()
        assert len(W.generators) == 3
        assert W.elements == WREATH_SIX.elements and len(W.elements) == 384


def cycle_data(g: Perm) -> tuple:
    """Cycle type, index, order and parity of g, read off its cycles."""
    lengths = [len(c) for c in g.cycles()]
    return (tuple(sorted(lengths, reverse=True)), sum(lengths) - len(lengths),
            lcm(*lengths), sum(length - 1 for length in lengths) % 2 == 0)


class TestCycleData:
    def test_cached_cycle_data_match_the_cycles(self):
        for G in (symmetric(6), wreath_c2_s4()):
            for g in G.elements:
                assert (g.cycle_type(), g.index, g.order(), g.is_even()) == cycle_data(g), g

    def test_catalog_censuses_match_the_cycles(self):
        for label in LABELS:
            G = catalog_group(label)
            assert G._census == sorted(cycle_data(g)[0] for g in G.elements), label

    def test_element_orders_match_the_powers(self):
        for G in (symmetric(6), wreath_c2_s4()):
            orders = Counter()
            for g in G.elements:
                x, k = g, 1
                while not x.is_identity():
                    x, k = x * g, k + 1
                orders[k] += 1
            assert G._element_orders == orders


def brute_force_subgroups(G: PermGroup, max_gens: int = 3) -> set[frozenset]:
    """Independent oracle: subgroups generated by <= max_gens elements, by
    plain closure.  <a, b, ...> depends only on <a>, <b>, ..., so one
    generator of each cyclic subgroup stands for all of its generators."""
    cyclic = {}  # element set of <g> -> its least generator g
    for g in sorted(G.elements, key=tuple):
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


def member_sets(cls) -> frozenset[frozenset[Perm]]:
    """The element set of every member of a subgroup class."""
    return frozenset(frozenset(map(cls.numbering._elems.__getitem__, member))
                     for member in cls.members)


def lattice_fields(classes) -> list[tuple]:
    """Each class's representative, its generators, its conjugates and its
    normalizer, in lattice order."""
    return [(c.representative.elements, c.representative.generators, member_sets(c),
             c.normalizer.elements) for c in classes]


@pytest.fixture
def fresh_lattices():
    """Forget every lattice, before the test, when called, and after it."""
    def forget():
        subgroup_classes.cache_clear()
        subgroup_classes_of_order.cache_clear()
        perms._LATTICES.clear()
        verify.transitive_degree8_classes.cache_clear()

    forget()
    yield forget
    forget()


class TestSubgroupLattice:
    def test_s3_classes(self):
        classes = subgroup_classes(symmetric(3))
        assert len(classes) == 4
        assert sorted(c.order for c in classes) == [1, 2, 3, 6]

    def test_class_size_equals_normalizer_index(self):
        D4 = PermGroup([P(4, "(1,2,3,4)"), P(4, "(1,3)")])
        groups = [symmetric(4), symmetric(5), D4]
        for G in groups + [catalog_group(label) for label in LABELS]:
            for cls in subgroup_classes(G):
                H = cls.representative
                assert cls.normalizer == normalizer(G, H)
                assert member_sets(cls) == conjugates(G, H)
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
        S5 = symmetric(5)
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
                least = min(sorted(map(tuple, c)) for c in conjugates(G, H))
                assert sorted(map(tuple, H.elements)) == least
                gens = [g for g in H.elements if g.order() == H.order]
                assert H.generators[0] == min(gens, key=tuple)

    def test_8T23_brute_force(self):
        # GL(2,3) has order 2^4 3, so its lattice takes the solvable route,
        # which joins H only with cyclic subgroups inside N(H).  All 55 of
        # its subgroups are 2-generated.
        G = catalog_group("8T23")
        found = {conj for c in subgroup_classes(G) for conj in member_sets(c)}
        assert found == brute_force_subgroups(G, max_gens=2)
        assert len(found) == 55

    def test_three_prime_solvable_brute_force(self):
        # S3 x D5 has order 2^2 3 5, so its lattice joins with every cyclic
        # subgroup, like S5's.  By Goursat's lemma each subgroup is A x B or
        # an index-2 subgroup of one with A and B cyclic or dihedral, so
        # each is 2-generated.
        G = PermGroup([P(8, "(1,2,3)"), P(8, "(1,2)"), P(8, "(4,5,6,7,8)"), P(8, "(5,8)(6,7)")])
        assert G.order == 60
        found = {conj for c in subgroup_classes(G) for conj in member_sets(c)}
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

    def test_wreath_lattice_does_not_depend_on_its_generators(self, fresh_lattices):
        # The classes, their order, representatives, generators and member
        # numbers are read off element sets alone.
        def fields(classes):
            return [(c.representative.elements, c.representative.generators,
                     c.class_size, c.members) for c in classes]

        six = fields(subgroup_classes(WREATH_SIX))
        fresh_lattices()
        three = fields(subgroup_classes(wreath_c2_s4()))
        assert len(three) == 193
        for i, (new, old) in enumerate(zip(three, six)):
            assert new == old, i
        assert len(three) == len(six)

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

    @staticmethod
    def restricted_groups() -> list[PermGroup]:
        """Every catalog group and every transitive class of W whose order 24
        divides: the S8-class heads whose lattices the classification reads."""
        return [catalog_group(label) for label in LABELS] + [
            c.representative for c in subgroup_classes(wreath_c2_s4())
            if c.representative.is_transitive() and c.order % 24 == 0]

    def test_restricted_lattices_equal_direct_ones(self, fresh_lattices):
        # Each group computed alone, then read off W's lattice.
        W = wreath_c2_s4()
        groups = self.restricted_groups()
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

    def test_classes_of_one_order_equal_the_filtered_lattice(self, fresh_lattices):
        # For every order k that divides |G|: the classes of order k, read on
        # G's own fresh lattice (the first k computes it), then read off W's.
        # The catalog groups are among the 16, and some of the 16 have one
        # element set, so W, S4 and the 16 make 13 groups.
        W = wreath_c2_s4()
        groups = list(dict.fromkeys([W, symmetric(4)] + self.restricted_groups()))
        assert len(groups) == 13
        orders = {G: [k for k in range(1, G.order + 1) if G.order % k == 0] for G in groups}
        expected = {}
        for G in groups:
            fresh_lattices()
            expected[G] = [lattice_fields(c for c in subgroup_classes(G) if c.order == k)
                           for k in orders[G]]
            fresh_lattices()
            assert [lattice_fields(subgroup_classes_of_order(G, k))
                    for k in orders[G]] == expected[G], G
            assert [lat.group for lat in perms._LATTICES] == [G]
        fresh_lattices()
        subgroup_classes(W)
        for G in groups:
            assert [lattice_fields(subgroup_classes_of_order(G, k))
                    for k in orders[G]] == expected[G], G
        assert [lat.group for lat in perms._LATTICES] == [W, symmetric(4)]

    @pytest.mark.parametrize("k", [0, -8, 5, 7, 385])
    def test_an_order_that_does_not_divide_computes_no_lattice(self, monkeypatch,
                                                               fresh_lattices, k):
        monkeypatch.setattr(perms, "_compute_lattice", lambda G: pytest.fail("computed"))
        assert subgroup_classes_of_order(wreath_c2_s4(), k) == ()
        assert list(perms._LATTICES) == []

    def test_verify_groups_computes_one_lattice(self, monkeypatch, fresh_lattices):
        # W alone: every other lattice is read off W's, and the C6 control of
        # verify_s4_unique_octic, with no index-8 subgroup, reads none.
        computed = []
        compute = perms._compute_lattice
        monkeypatch.setattr(perms, "_compute_lattice", lambda G: computed.append(G) or compute(G))
        assert all(r.passed for r in run_all_group_verifiers())
        assert computed == [wreath_c2_s4()]

    def test_coset_class_minima_on_s3(self):
        S3 = symmetric(3)
        assert coset_class_minima(S3, PermGroup([P(3, "(1,2,3)")]), S3) == [
            Perm.identity(3), P(3, "(2,3)")
        ]
        with pytest.raises(ValueError, match="not normal"):
            coset_class_minima(S3, PermGroup([P(3, "(1,2)")]), S3)

    def test_total_count_vs_brute_force(self):
        # Every subgroup of S4 needs at most 2 generators; use 3 for margin.
        G = symmetric(4)
        oracle = brute_force_subgroups(G)
        classes = subgroup_classes(G)
        assert sum(c.class_size for c in classes) == len(oracle) == 30

    def test_d4_brute_force(self):
        D4 = PermGroup([P(4, "(1,2,3,4)"), P(4, "(1,3)")])
        assert sum(c.class_size for c in subgroup_classes(D4)) == len(
            brute_force_subgroups(D4)
        ) == 10

    def test_transitive_classes_of_s4(self):
        classes = subgroup_classes(symmetric(4))
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


def small_generating_set(G: PermGroup) -> list[Perm]:
    """Greedy small generating set, highest element orders first."""
    elems = sorted(G.elements, key=lambda p: (-p.order(), tuple(p)))
    gens: list[Perm] = []
    span = {G.identity}
    for p in elems:
        if p in span:
            continue
        gens.append(p)
        span = set(PermGroup(gens, degree=G.degree).elements)
        if len(span) == G.order:
            break
    return gens or [G.identity]


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
            G = symmetric(8)
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
        S8 = symmetric(8)
        C8 = PermGroup([P(8, "(1,2,3,4,5,6,7,8)")])
        # the holomorph C8 : Aut(C8), of order 8 * 4
        assert normalizer(S8, C8).order == 32


class TestCosetAction:
    def test_s3_natural(self):
        G = symmetric(3)
        act = coset_action(G, PermGroup([P(3, "(2,3)")]))
        assert act.induced_degree == 3
        assert perm_isomorphic(act.image(), G) is not None

    def test_point_stabilizer_gives_natural_action(self):
        for G in (wreath_c2_s4(), symmetric(4)):
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
        G = symmetric(4)
        H = PermGroup([P(4, "(1,2)")])
        act = coset_action(G, H)
        assert action_kernel(act) == normal_core(G, H).elements

    def test_unclosed_subgroup_fails_coset_count(self):
        # A seeded set that is not a group passes the subset test but cannot
        # give |G|/|H| cosets.
        G = symmetric(3)
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
        assert sympy_isomorphic(Q, symmetric(4))

    def test_s4_mod_v4(self):
        G = symmetric(4)
        V4 = PermGroup([P(4, "(1,2)(3,4)"), P(4, "(1,3)(2,4)")])
        Q = quotient_as_perm(G, V4)
        assert Q.order == 6
        assert sympy_isomorphic(Q, symmetric(3))

    def test_full_quotient_trivial(self):
        G = symmetric(3)
        assert quotient_as_perm(G, G).order == 1

    def test_non_normal_rejected(self):
        G = symmetric(3)
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
        assert cyclic_subgroup_orders(symmetric(4)) == {1, 2, 3, 4}

    def test_index_set_of_8_cycle(self):
        C8 = PermGroup([P(8, "(1,2,3,4,5,6,7,8)")])
        assert index_set(C8) == {4, 6, 7}

    @pytest.mark.parametrize("compute", [subgroup_classes, lambda G: normal_subgroups(G, G.order)],
                             ids=["subgroup_classes", "normal_subgroups"])
    def test_subgroup_cap(self, compute):
        S7 = symmetric(7)
        assert S7.order == 5040 > SUBGROUP_ORDER_CAP
        with pytest.raises(GroupTooLargeError, match="capped at order"):
            compute(S7)

    def test_normal_subgroups_of_s4(self):
        G = symmetric(4)
        orders = sorted(N.order for N in normal_subgroups(G, G.order))
        assert orders == [1, 4, 12, 24]


def _sympy_perm_group(gens):
    """sympy.combinatorics group on the given generators, points shifted to 0.."""
    from sympy.combinatorics import Permutation, PermutationGroup

    return PermutationGroup([Permutation([i - 1 for i in g]) for g in gens])


@lru_cache(maxsize=None)
def _sympy_group(G: PermGroup):
    """G for sympy, on a greedy small generating set: sympy's isomorphism
    search grows with the number of generators of its first argument.  One
    object per group, so sympy computes each presentation once."""
    return _sympy_perm_group(reclosed(G).generators)


def sympy_isomorphic(A: PermGroup, B: PermGroup) -> bool:
    """sympy's `is_isomorphic` verdict on A and B, made exhaustive.

    sympy (seen in 1.14) maps the generators of its first argument only onto
    tuples of generators of its second: its search iterates the group, and
    iterating a sympy group yields its generators.  So the group with fewer
    generators, then the smaller degree, goes first, and a False is asked
    again with every element of the other as a generator.  A True comes with
    an isomorphism that sympy has checked.
    """
    from sympy.combinatorics.homomorphisms import is_isomorphic

    (_, first), (other, second) = sorted(
        ((G, _sympy_group(G)) for G in (A, B)),
        key=lambda pair: (len(pair[1].generators), pair[0].degree))
    everything = _sympy_perm_group(sorted(other.elements, key=tuple))
    return bool(is_isomorphic(first, second) or is_isomorphic(first, everything))


@lru_cache(maxsize=None)
def _wreath_elements() -> tuple[Perm, ...]:
    return tuple(sorted(wreath_c2_s4().elements, key=tuple))


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


def _sympy_invariants(g) -> tuple:
    """Isomorphism invariants of a sympy group, each computed by sympy: the
    order, the centre order, the derived-series orders, the element-order
    counts and whether the group is abelian."""
    return (g.order(), g.center().order(), tuple(d.order() for d in g.derived_series()),
            sorted(Counter(e.order() for e in g.elements).items()), g.is_abelian)


def element_orders(G: PermGroup) -> Counter:
    return Counter(g.order() for g in G.elements)


@lru_cache(maxsize=None)
def s8_heads() -> tuple[PermGroup, ...]:
    """The first representative of each S8 class among the transitive
    classes of C2 wr S4, as the classification fuses them."""
    from octicount.verify import _fuse, transitive_degree8_classes

    reps = [c.representative for c in transitive_degree8_classes()]
    return tuple(b[0] for b in _fuse(reps, lambda a, b: perm_isomorphic(a, b) is not None))


def prefiltered_head_pairs() -> list[tuple[PermGroup, PermGroup]]:
    """The pairs of S8-class heads that agree in order and element orders:
    the pairs whose verdict the coset-action search decides."""
    return [(A, B) for A, B in combinations(s8_heads(), 2)
            if A.order == B.order and element_orders(A) == element_orders(B)]


def count_coset_actions(monkeypatch) -> Counter:
    calls = Counter()
    act = perms.coset_action
    monkeypatch.setattr(perms, "coset_action",
                        lambda G, H: calls.update(["coset_action"]) or act(G, H))
    return calls


class TestAbstractIsomorphic:
    def test_agrees_with_sympy_on_small_transitive_classes(self):
        from octicount.verify import transitive_degree8_classes

        small = [c.representative for c in transitive_degree8_classes() if c.order <= 16]
        assert len(small) == 15
        invariants = [_sympy_invariants(_sympy_group(A)) for A in small]
        searched = 0
        for (A, ia), (B, ib) in combinations(zip(small, invariants), 2):
            # sympy decides every pair: unequal invariants rule it out, and
            # its isomorphism search decides the rest.
            if ia != ib:
                expected = False
            else:
                searched += 1
                expected = sympy_isomorphic(A, B)
            assert (abstract_isomorphic(A, B) is not None) == expected
        assert 0 < searched < 105

    def test_head_pairs_past_the_element_order_prefilter(self):
        # 75 pairs of the 36 heads have equal order; 7 of them also have
        # equal element orders.  Each isomorphic pair is an S8 class pair
        # that the abstract count merges.
        heads = s8_heads()
        assert len(heads) == 36
        assert sum(A.order == B.order for A, B in combinations(heads, 2)) == 75
        pairs = prefiltered_head_pairs()
        assert sorted(A.order for A, _ in pairs) == [16, 32, 32, 32, 32, 64, 64]
        assert sum(abstract_isomorphic(A, B) is not None for A, B in pairs) == 5

    def test_negative_verdict_past_the_invariant_prefilter(self, monkeypatch):
        # The order-16 head pair: every core-free index-8 class of A is tried.
        [(A, B)] = [(A, B) for A, B in prefiltered_head_pairs() if A.order == 16]
        core_free = [c for c in subgroup_classes(A)
                     if c.order * 8 == A.order and c.core_order == 1]
        calls = count_coset_actions(monkeypatch)
        assert abstract_isomorphic(A, B) is None
        assert calls["coset_action"] == len(core_free) == 2
        assert not sympy_isomorphic(A, B)

    def test_point_stabilizer_orbits_decide_before_the_conjugator_search(self, monkeypatch):
        # The negative order-32 head pair: A's 8 core-free index-8 classes
        # give images with B's cycle-type census, but the orbits of a point
        # stabilizer have lengths 1,1,1,1,4 there and 1,1,2,2,2 in B.
        [(A, B)] = [(A, B) for A, B in prefiltered_head_pairs()
                    if A.order == 32 and abstract_isomorphic(A, B) is None]
        images = [coset_action(A, c.representative).image() for c in subgroup_classes(A)
                  if c.order * 8 == A.order and c.core_order == 1]
        assert len(images) == 8 and all(im._census == B._census for im in images)
        monkeypatch.setattr(perms, "_conjugators", lambda g, b: pytest.fail("searched"))
        assert all(perm_isomorphic(im, B) is None for im in images)
        assert abstract_isomorphic(A, B) is None

    def test_positive_verdict_past_the_invariant_prefilter(self, monkeypatch):
        # The two order-64 head pairs are isomorphic.
        pairs = [(A, B) for A, B in prefiltered_head_pairs() if A.order == 64]
        assert len(pairs) == 2
        calls = count_coset_actions(monkeypatch)
        for A, B in pairs:
            calls.clear()
            assert abstract_isomorphic(A, B) is not None
            assert calls["coset_action"] >= 1

    def test_positive_verdict_is_reverified(self):
        # Each witness (K, c) is checked here again: K is a core-free
        # subgroup of A of index deg(B), and c conjugates A's image on the
        # cosets of K onto B.  Besides the head pairs: S4 acting regularly
        # against S4 on 4 points, and S4 on 4 points against S4 on the 6
        # cosets of a 4-cycle.
        S4 = symmetric(4)
        regular = coset_action(S4, PermGroup.trivial(4)).image()
        on_six = coset_action(S4, PermGroup([P(4, "(1,2,3,4)")])).image()
        pairs = prefiltered_head_pairs() + [(regular, S4), (S4, on_six)]
        found = [(A, B, abstract_isomorphic(A, B)) for A, B in pairs]
        witnessed = [(A, B, witness) for A, B, witness in found if witness is not None]
        assert len(witnessed) == 7
        for A, B, (K, c) in witnessed:
            assert K.is_subgroup_of(A) and A.order == K.order * B.degree
            assert normal_core(A, K).order == 1
            assert conjugate(coset_action(A, K).image(), c) == B

    def test_intransitive_b_is_refused(self):
        A = PermGroup([P(4, "(1,2)(3,4)")])
        B = PermGroup([P(4, "(1,2)")])
        with pytest.raises(ValueError, match="needs a transitive B"):
            abstract_isomorphic(A, B)
