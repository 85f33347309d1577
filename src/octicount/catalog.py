"""The six degree-8 tower groups and their fixed quartic actions.

The generator constants below were produced once by the group engine in
:mod:`octicount.perms` (enumerating the transitive subgroup classes of
C2 wr S4 that admit an S4 quotient) and then frozen as source constants.
Nothing trusts them: the verification suite re-derives order, transitivity
and the Malle invariant from scratch every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .perms import (
    CosetAction,
    Perm,
    PermGroup,
    coset_action,
    parse_cycle_string,
    subgroup_classes,
)

__all__ = [
    "GroupCatalogEntry",
    "CATALOG",
    "LABELS",
    "catalog_entry",
    "catalog_group",
    "octic_action",
    "quartic_subgroups",
    "quartic_action",
]


@dataclass(frozen=True)
class GroupCatalogEntry:
    """One row of the catalog: a transitive degree-8 group with an S4 quotient."""

    label: str
    name: str
    generators: tuple[Perm, ...]
    expected_order: int
    expected_alpha: Fraction
    notes: str = field(default="", compare=False)


def _gens(*cycle_strings: str) -> tuple[Perm, ...]:
    return tuple(parse_cycle_string(8, s) for s in cycle_strings)


# Labels follow the standard transitive-group numbering of degree-8 groups;
# entries are listed in ascending label order.  All six sit inside the
# imprimitive copy of C2 wr S4 with blocks {1,2},{3,4},{5,6},{7,8}.
CATALOG: tuple[GroupCatalogEntry, ...] = (
    GroupCatalogEntry(
        label="8T14",
        name="S4",
        generators=_gens("(1,4,5,7)(2,3,6,8)", "(1,4,8,6)(2,3,7,5)"),
        expected_order=24,
        expected_alpha=Fraction(1, 4),
        notes="S4 acting on 8 points; the octic is cut out inside the quartic closure.",
    ),
    GroupCatalogEntry(
        label="8T23",
        name="GL(2,3)",
        generators=_gens("(1,3,6,8,2,4,5,7)", "(1,3,8,5,2,4,7,6)"),
        expected_order=48,
        expected_alpha=Fraction(1, 3),
        notes="GL2(F3); has a unique normal subgroup of order 2 (its center).",
    ),
    GroupCatalogEntry(
        label="8T24",
        name="S4 x C2",
        generators=_gens(
            "(1,2)(3,5,8,4,6,7)", "(1,3,5,2,4,6)(7,8)", "(1,3,5,8)(2,4,6,7)"
        ),
        expected_order=48,
        expected_alpha=Fraction(1, 2),
        notes="Direct product; S4 quotient by projection onto the first factor.",
    ),
    GroupCatalogEntry(
        label="8T39",
        name="C2^3 : S4",
        generators=_gens(
            "(1,2)(3,5,7,4,6,8)",
            "(1,2)(3,5,8,4,6,7)",
            "(1,3,5,2,4,6)(7,8)",
            "(3,4)(5,7,6,8)",
        ),
        expected_order=192,
        expected_alpha=Fraction(1, 2),
        notes="Even subgroup: every element is an even permutation of the 8 points.",
    ),
    GroupCatalogEntry(
        label="8T40",
        name="Q8 : S4",
        generators=_gens(
            "(1,3,5,7,2,4,6,8)", "(1,3,5,8,2,4,6,7)", "(1,3,7,6,2,4,8,5)"
        ),
        expected_order=192,
        expected_alpha=Fraction(1, 2),
        notes=(
            "Has two normal quaternion subgroups of order 8, each with S4 "
            "quotient; the kernel of the quartic coset action is elementary "
            "abelian of order 8."
        ),
    ),
    GroupCatalogEntry(
        label="8T44",
        name="C2 wr S4",
        generators=_gens(
            "(1,3,5,7,2,4,6,8)",
            "(1,3,5,8,2,4,6,7)",
            "(1,3,7,6,2,4,8,5)",
            "(3,5,7,4,6,8)",
        ),
        expected_order=384,
        expected_alpha=Fraction(1, 1),
        notes="The full wreath product; the ambient group of the classification.",
    ),
)

LABELS: tuple[str, ...] = tuple(entry.label for entry in CATALOG)

_BY_LABEL = {entry.label: entry for entry in CATALOG}


def catalog_entry(label: str) -> GroupCatalogEntry:
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise KeyError(f"unknown catalog label {label!r}; expected one of {LABELS}")


@lru_cache(maxsize=None)
def catalog_group(label: str) -> PermGroup:
    entry = catalog_entry(label)
    return PermGroup(entry.generators, degree=8)


@lru_cache(maxsize=None)
def octic_action(label: str) -> CosetAction:
    """The natural degree-8 action, presented as the coset action on Stab(1)."""
    G = catalog_group(label)
    return coset_action(G, G.stabilizer(1))


def quartic_subgroups(G: PermGroup, H_L: Optional[PermGroup] = None) -> list[PermGroup]:
    """Index-4 subgroups H_K >= H_L whose coset image is all of S4.

    Up to conjugacy there is one candidate class per catalog group; the list
    contains one concrete subgroup per qualifying class: the least member of
    the class, in sorted image order, that contains H_L (default: Stab(1)).
    """
    if H_L is None:
        H_L = G.stabilizer(1)
    found = []
    for cls in subgroup_classes(G):
        if cls.order * 4 != G.order:
            continue
        over = [c for c in cls.conjugates if H_L.elements <= c]
        if over:
            H_K = PermGroup.from_elements(
                min(over, key=lambda c: sorted(p.images for p in c)), G.degree
            )
            if coset_action(G, H_K).image().order == 24:
                found.append(H_K)
    return found


@lru_cache(maxsize=None)
def quartic_action(label: str) -> CosetAction:
    """The degree-4 action on the cosets of the distinguished quartic subgroup.

    Every catalog group has exactly one conjugacy class of index-4 subgroups
    containing the point stabilizer with full symmetric image on 4 points;
    this pins the quartic subfield action once per group.
    """
    G = catalog_group(label)
    subs = quartic_subgroups(G)
    if len(subs) != 1:
        raise RuntimeError(
            f"{label}: expected a unique quartic subgroup class, found {len(subs)}"
        )
    return coset_action(G, subs[0])
