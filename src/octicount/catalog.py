"""The six degree-8 tower groups and their fixed quartic actions.

The generator constants below were produced once by the group engine in
:mod:`octicount.perms` (enumerating the transitive subgroup classes of
C2 wr S4 that admit an S4 quotient) and then frozen as source constants.
The catalog is one mapping, label to generators.  Nothing trusts them: every
run re-derives order, transitivity and the Malle invariant (tabled once, in
:func:`octicount.verify.verify_table1`) from scratch.
"""

from __future__ import annotations

from functools import lru_cache

from .labels import LABELS
from .perms import (
    CosetAction,
    Perm,
    PermGroup,
    coset_action,
    parse_cycle_string,
    subgroup_classes,
)

__all__ = [
    "LABELS",
    "catalog_group",
    "octic_action",
    "quartic_subgroups",
    "quartic_action",
]


def _gens(*cycle_strings: str) -> tuple[Perm, ...]:
    return tuple(parse_cycle_string(8, s) for s in cycle_strings)


# Labels follow the standard transitive-group numbering of degree-8 groups;
# entries are listed in ascending label order.  All six sit inside the
# imprimitive copy of C2 wr S4 with blocks {1,2},{3,4},{5,6},{7,8}.
_GENERATORS: dict[str, tuple[Perm, ...]] = {
    "8T14": _gens("(1,4,5,7)(2,3,6,8)", "(1,4,8,6)(2,3,7,5)"),  # S4
    "8T23": _gens("(1,3,6,8,2,4,5,7)", "(1,3,8,5,2,4,7,6)"),  # GL(2,3)
    "8T24": _gens(  # S4 x C2
        "(1,2)(3,5,8,4,6,7)", "(1,3,5,2,4,6)(7,8)", "(1,3,5,8)(2,4,6,7)"
    ),
    "8T39": _gens(  # C2^3 : S4
        "(1,2)(3,5,7,4,6,8)",
        "(1,2)(3,5,8,4,6,7)",
        "(1,3,5,2,4,6)(7,8)",
        "(3,4)(5,7,6,8)",
    ),
    "8T40": _gens(  # Q8 : S4
        "(1,3,5,7,2,4,6,8)", "(1,3,5,8,2,4,6,7)", "(1,3,7,6,2,4,8,5)"
    ),
    "8T44": _gens(  # C2 wr S4
        "(1,3,5,7,2,4,6,8)",
        "(1,3,5,8,2,4,6,7)",
        "(1,3,7,6,2,4,8,5)",
        "(3,5,7,4,6,8)",
    ),
}

if tuple(_GENERATORS) != LABELS:  # a raise, so that it holds under `python -O`
    raise RuntimeError(f"catalog labels {tuple(_GENERATORS)} differ from {LABELS}")


@lru_cache(maxsize=None)
def catalog_group(label: str) -> PermGroup:
    try:
        generators = _GENERATORS[label]
    except KeyError:
        raise KeyError(f"unknown catalog label {label!r}; expected one of {LABELS}")
    return PermGroup(generators, degree=8)


@lru_cache(maxsize=None)
def octic_action(label: str) -> CosetAction:
    """The natural degree-8 action, presented as the coset action on Stab(1)."""
    G = catalog_group(label)
    return coset_action(G, G.stabilizer(1))


def quartic_subgroups(G: PermGroup, H_L: PermGroup) -> list[PermGroup]:
    """Index-4 subgroups H_K >= H_L whose coset image is all of S4.

    The kernel of G's action on the 4 cosets of H_K is the core of H_K, so
    the image is S4 exactly when |G| = 24 |core|, and none is when 24 does
    not divide |G|.  The list contains one concrete subgroup per qualifying
    class: the least member of the class, in sorted image order, that
    contains H_L.  Over H_L = Stab(1) there is one such class per catalog
    group; H_L = 1 yields every such class, so G maps onto S4 exactly when
    the list over 1 is non-empty.
    """
    if G.order % 24:
        return []
    found = []
    for cls in subgroup_classes(G):
        if cls.order * 4 != G.order or cls.core_order * 24 != G.order:
            continue
        below = cls.element_numbers(H_L)
        over = [m for m in cls.members if below <= m]
        if over:
            found.append(cls.member_group(min(over, key=sorted)))  # number order is image order
    return found


@lru_cache(maxsize=None)
def quartic_action(label: str) -> CosetAction:
    """The degree-4 action on the cosets of the distinguished quartic subgroup.

    Every catalog group has exactly one conjugacy class of index-4 subgroups
    containing the point stabilizer with full symmetric image on 4 points;
    this pins the quartic subfield action once per group.
    """
    G = catalog_group(label)
    subs = quartic_subgroups(G, G.stabilizer(1))
    if len(subs) != 1:
        raise RuntimeError(
            f"{label}: expected a unique quartic subgroup class, found {len(subs)}"
        )
    return coset_action(G, subs[0])
