"""Catalog integrity and the five group-theoretic verifiers."""

from __future__ import annotations

from fractions import Fraction

import pytest

from octicount.catalog import (
    LABELS,
    catalog_group,
    quartic_action,
    quartic_subgroups,
)
from octicount.perms import (
    Perm,
    PermGroup,
    coset_action,
    index_set,
    malle_alpha,
    normal_subgroups,
    parse_cycle_string,
    perm_isomorphic,
    quotient_as_perm,
    abstract_isomorphic,
    subgroup_classes,
    wreath_c2_s4,
)
from octicount import catalog, verify
from octicount.report import VerificationReport
from octicount.verify import (
    _core_free_octic_classes,
    run_all_group_verifiers,
    verify_a8_containment,
    verify_classification,
    verify_converse,
    verify_s4_unique_octic,
    verify_table1,
)
from test_perms import (conjugate, cyclic_subgroup_orders, member_sets, symmetric,
                        sympy_isomorphic)


class TestCatalogIntegrity:
    def test_orders(self):
        assert [catalog_group(label).order for label in LABELS] == [
            24, 48, 48, 192, 192, 384,
        ]

    def test_transitive(self):
        for label in LABELS:
            assert catalog_group(label).is_transitive()

    def test_inside_wreath(self):
        W = wreath_c2_s4()
        for label in LABELS:
            assert catalog_group(label).is_subgroup_of(W)

    def test_alpha_column(self):
        assert [malle_alpha(catalog_group(label)) for label in LABELS] == [
            Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
            Fraction(1, 2), Fraction(1, 2), Fraction(1),
        ]

    def test_self_isomorphism_witness_is_identity_compatible(self):
        for label in LABELS:
            G = catalog_group(label)
            c = perm_isomorphic(G, G)
            assert c is not None and conjugate(G, c) == G

    def test_signatures_separate_all_but_order48_pair(self):
        sig = {
            label: (
                catalog_group(label).order,
                tuple(sorted(index_set(catalog_group(label)))),
                tuple(sorted(cyclic_subgroup_orders(catalog_group(label)))),
                all(g.is_even() for g in catalog_group(label).elements),
            )
            for label in LABELS
        }
        labels = list(sig)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                if {a, b} == {"8T23", "8T24"}:
                    continue
                assert sig[a] != sig[b], (a, b)
        # The order-48 pair is separated by the isomorphism test itself.
        assert perm_isomorphic(catalog_group("8T23"), catalog_group("8T24")) is None
        assert abstract_isomorphic(catalog_group("8T23"), catalog_group("8T24")) is None

    def test_8T23_cyclic_orders(self):
        assert cyclic_subgroup_orders(catalog_group("8T23")) == {1, 2, 3, 4, 6, 8}

    def test_8T23_index_set(self):
        assert index_set(catalog_group("8T23")) <= {3, 4, 6, 7}

    def test_quaternion_kernel_of_8T40(self):
        """A normal order-8 subgroup with S4 quotient and a unique involution
        (the quaternion kernel of the abstract semidirect decomposition) has
        cyclic subgroup orders {1, 2, 4}."""
        G = catalog_group("8T40")
        s4 = symmetric(4)
        q8s = [
            N
            for N in normal_subgroups(G, max_order=8)
            if N.order == 8
            and sum(1 for x in N.elements if x.order() == 2) == 1
            and sympy_isomorphic(quotient_as_perm(G, N), s4)
        ]
        assert len(q8s) == 2
        for N in q8s:
            assert cyclic_subgroup_orders(N) == {1, 2, 4}

    def test_unknown_label_is_named(self):
        with pytest.raises(KeyError, match=r"unknown catalog label '8T99'; expected one of "
                                           r"\('8T14', '8T23', '8T24', '8T39', '8T40', '8T44'\)"):
            catalog_group("8T99")

    @pytest.mark.parametrize("label, orders", [
        ("8T14", [1, 4, 12, 24]),
        ("8T23", [1, 2, 8, 24, 48]),
        ("8T24", [1, 2, 4, 8, 12, 24, 24, 24, 48]),
        ("8T39", [1, 2, 8, 8, 8, 32, 96, 192]),
        ("8T40", [1, 2, 8, 8, 8, 32, 96, 192]),
        ("8T44", [1, 2, 8, 16, 32, 64, 96, 192, 192, 192, 384]),
    ])
    def test_normal_subgroup_orders(self, label, orders):
        G = catalog_group(label)
        normals = normal_subgroups(G, G.order)
        assert [N.order for N in normals] == orders
        assert all(N.is_normal_in(G) for N in normals)
        assert [N.order for N in normal_subgroups(G, 8)] == [n for n in orders if n <= 8]

    def test_quartic_image_order_is_read_from_the_core(self):
        # The kernel of G's action on the cosets of an index-4 subgroup is its
        # core, so the coset image has order |G| / |core|, and is S4 exactly
        # when |G| = 24 |core|.  8T24 and 8T44 have index-4 classes of both kinds.
        images = {}
        for label in LABELS:
            G = catalog_group(label)
            for cls in subgroup_classes(G):
                if cls.order * 4 == G.order:
                    image = coset_action(G, cls.representative).image().order
                    assert image * cls.core_order == G.order
                    images.setdefault(label, set()).add(image == 24)
        assert images["8T24"] == images["8T44"] == {True, False}

    def test_quartic_action_unique_and_faithful_on_four_points(self):
        for label in LABELS:
            G = catalog_group(label)
            assert len(quartic_subgroups(G, G.stabilizer(1))) == 1
            act = quartic_action(label)
            assert act.induced_degree == 4
            assert act.image().order == 24


def gl23_on_nonzero_vectors() -> PermGroup:
    """GL(2,3) acting on the 8 nonzero vectors of F_3^2."""
    points = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

    def act(m):
        (p, q), (r, s) = m
        return Perm(points.index(((p * a + q * b) % 3, (r * a + s * b) % 3)) + 1
                    for a, b in points)

    return PermGroup([act(((1, 1), (0, 1))), act(((1, 0), (1, 1))), act(((2, 0), (0, 1)))])


class TestCatalogNames:
    """The group named in the comment on each line of the catalog."""

    def test_8T23_is_gl23_on_nonzero_vectors(self):
        G = gl23_on_nonzero_vectors()
        assert G.order == 48
        assert perm_isomorphic(G, catalog_group("8T23")) is not None
        assert perm_isomorphic(G, catalog_group("8T24")) is None

    def test_8T24_is_s4_times_c2(self):
        G = PermGroup([parse_cycle_string(6, c) for c in ("(1,2)", "(1,2,3,4)", "(5,6)")])
        assert G.order == 48
        assert abstract_isomorphic(G, catalog_group("8T24")) is not None
        assert abstract_isomorphic(G, catalog_group("8T23")) is None

    def test_8T14_is_s4(self):
        assert abstract_isomorphic(symmetric(4), catalog_group("8T14")) is not None

    def test_8T44_is_the_wreath_product(self):
        assert catalog_group("8T44").elements == wreath_c2_s4().elements


def quartic_by_least_conjugator(G: PermGroup, H_L: PermGroup) -> list[PermGroup]:
    """quartic_subgroups by the least-conjugator rule: for each index-4 class
    with representative R, g R g^-1 for the least g in image order with
    H_L <= g R g^-1, kept when its coset image has order 24."""
    found = []
    for cls in subgroup_classes(G):
        if cls.order * 4 != G.order:
            continue
        R = cls.representative.elements
        for g in sorted(G.elements, key=tuple):
            ginv = g.inverse()
            H_K = frozenset(g * h * ginv for h in R)
            if H_L.elements <= H_K:
                H_K = PermGroup.from_elements(H_K, G.degree)
                if coset_action(G, H_K).image().order == 24:
                    found.append(H_K)
                break
    return found


class TestQuarticChoice:
    @pytest.mark.parametrize("label", LABELS)
    def test_least_conjugate_matches_least_conjugator(self, label):
        G = catalog_group(label)
        points = [G.stabilizer(1)]
        octics = [c.representative for c in _core_free_octic_classes(G)]
        assert octics
        quartics = [c for c in subgroup_classes(G) if c.order * 4 == G.order]
        for H_L in points + octics:
            assert quartic_subgroups(G, H_L) == quartic_by_least_conjugator(G, H_L)
            # Each class has at most one member over these H_L, so the two
            # rules cannot differ here; on smaller H_L they can.
            for cls in quartics:
                assert sum(H_L.elements <= c for c in member_sets(cls)) <= 1


class TestS4ImageRule:
    """A group maps onto S4 exactly when some index-4 class has |G| = 24 |core|:
    the classification reads this from quartic_subgroups over the trivial group."""

    @pytest.fixture(scope="class")
    def transitive(self):
        return [c.representative for c in verify.transitive_degree8_classes()]

    def test_core_rule_agrees_with_the_quotient_route(self, transitive):
        s4, trivial = symmetric(4), PermGroup.trivial(8)
        verdicts = []
        for H in transitive:
            by_core = bool(quartic_subgroups(H, trivial))
            by_quotient = any(
                H.order // N.order == 24 and sympy_isomorphic(quotient_as_perm(H, N), s4)
                for N in normal_subgroups(H, H.order // 24)
            )
            assert by_core == by_quotient, H.order
            verdicts.append(by_core)
        assert len(verdicts) == 40 and verdicts.count(True) == 6

    def test_s8_classes_without_an_s4_quotient(self, transitive):
        # The S8 classes whose order 24 divides but that have no S4 quotient:
        # their lattices are built, and no index-4 class passes the core rule.
        buckets = verify._fuse(transitive, lambda a, b: perm_isomorphic(a, b) is not None)
        trivial = PermGroup.trivial(8)
        orders = [b[0].order for b in buckets
                  if b[0].order % 24 == 0 and not quartic_subgroups(b[0], trivial)]
        assert sorted(orders) == [24, 24, 96, 192]

    def test_no_lattice_unless_24_divides_the_order(self, monkeypatch):
        asked = []
        monkeypatch.setattr(catalog, "subgroup_classes",
                            lambda G: asked.append(G.order) or subgroup_classes(G))
        trivial = PermGroup.trivial(8)
        c8 = PermGroup([parse_cycle_string(8, "(1,2,3,4,5,6,7,8)")])
        assert quartic_subgroups(c8, trivial) == []
        assert quartic_subgroups(wreath_c2_s4(), trivial) != []
        assert asked == [384]


class TestVerifiers:
    def test_status_cannot_disagree_with_witnesses(self):
        # The status is read from the witnesses: it can be neither set nor
        # passed in, so a failed report without a witness cannot be built.
        report = VerificationReport("test.claim")
        assert report.status == "pass" and report.passed
        with pytest.raises(AttributeError):
            report.status = "fail"
        with pytest.raises(TypeError, match="status"):
            VerificationReport("test.claim", status="fail")
        report.witnesses.append("unreported")
        assert report.status == "fail" and not report.passed
        assert report.as_dict() == {"claim_id": "test.claim", "status": "fail",
                                    "witnesses": ["unreported"], "details": {}}

    def test_all_pass(self):
        reports = run_all_group_verifiers()
        assert len(reports) == 5
        assert all(r.passed for r in reports), [
            (r.claim_id, r.witnesses) for r in reports if not r.passed
        ]

    def test_classification_counts(self):
        r = verify_classification()
        assert r.passed
        assert r.details["transitive_isomorphism_types"] == 32
        assert r.details["classes_with_s4_quotient"] == 6
        assert r.details["catalog_matches"] == {label: 1 for label in LABELS}
        # The finer conjugacy counts are reported for audit.
        assert (
            r.details["transitive_classes_wreath_conjugacy"]
            >= r.details["transitive_classes_s8_conjugacy"]
            >= 32
        )

    def test_classification_deterministic(self):
        a, b = verify_classification(), verify_classification()
        assert a.details == b.details and a.witnesses == b.witnesses

    def test_a8_report(self):
        r = verify_a8_containment()
        assert r.passed
        profile = r.details["parity_profile"]
        assert profile["8T39"] == "all even"
        assert profile["8T44"] == "contains odd elements"

    def test_converse_has_quartic_overgroup_everywhere(self):
        r = verify_converse()
        assert r.passed
        for label, counts in r.details["quartic_overgroup_counts"].items():
            assert counts and all(c >= 1 for c in counts)

    def test_table1(self):
        r = verify_table1()
        assert r.passed
        assert r.details["alpha"] == {
            "8T14": "1/4", "8T23": "1/3", "8T24": "1/2",
            "8T39": "1/2", "8T40": "1/2", "8T44": "1",
        }

    def test_table1_fails_on_a_wrong_alpha(self, monkeypatch):
        # The computed alpha is compared with the one documented table; the
        # catalog carries no second copy of it.
        real = verify.malle_alpha
        monkeypatch.setattr(verify, "malle_alpha", lambda G: Fraction(1, 2)
                            if G is catalog_group("8T23") else real(G))
        r = verify_table1()
        assert r.witnesses == ["8T23: alpha computed 1/2, expected 1/3"]
        assert r.details["alpha"]["8T23"] == "1/2" and r.details["alpha"]["8T14"] == "1/4"

    def test_unique_octic(self):
        r = verify_s4_unique_octic()
        assert r.passed
        assert r.details["octic_classes_8T14"] == 1
        assert r.details["octic_classes_degenerate_C6"] == 0
        assert r.details["octic_classes_8T44"] >= 1

    @pytest.mark.parametrize("found", [0, 2])
    def test_unique_octic_needs_exactly_one_quartic_class(self, monkeypatch, found):
        # A missing or a second quartic class is a named witness, not a crash.
        monkeypatch.setattr(verify, "quartic_subgroups",
                            lambda G, H_L: [H_L] * found)
        r = verify_s4_unique_octic()
        assert r.witnesses == [
            f"{label}: expected a unique quartic subgroup class, found {found}"
            for label in ("8T14", "8T44")
        ]
        assert r.details == {"octic_classes_degenerate_C6": 0}

    def test_reports_wellformed(self):
        for r in run_all_group_verifiers():
            assert (r.status == "pass") == (not r.witnesses)
            payload = r.as_dict()
            assert payload["claim_id"] == r.claim_id
