"""Exact permutation-group engine for small degrees.

Permutations act on {1..degree}.  A `Perm` is the tuple of its images, so
it hashes, compares and sorts as that tuple: image order is tuple order.
Groups are given by generators; element sets (closed by the same
breadth-first search as point orbits) and the subgroup lattice are computed
lazily and cached.  The subgroup lattice (the normal subgroups are its
one-member classes) and the classes of Frobenius cosets run on a group's
element index, an integer multiplication table built once per group; `Perm`
and `PermGroup` are what goes in and out.  A lattice is computed by cyclic
extension, inside normalizers when Burnside's p^a q^b theorem makes the
group solvable, and kept for the process: the lattice of a subgroup of the
same degree is read off it, on the larger group's element index.  Each
normalizer comes from the conjugacy orbit of its subgroup by
orbit-stabilizer, with Schreier generators, never from a scan of the group.
A class keeps its members as element numbers, and turns them into `Perm`
sets only when they are read.  Everything is exact integer arithmetic,
sized for groups of order a few hundred (the largest group this project
cares about has order 384).
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict, deque
from functools import cached_property, lru_cache
from math import factorial, lcm
from typing import Callable, Iterable, NamedTuple, Optional

MAX_DEGREE = 24
MAX_ELEMENTS = 10**6
SUBGROUP_ORDER_CAP = 2048  # a group's element index is an order x order table
ISO_DEGREE_CAP = 12


class GroupTooLargeError(ValueError):
    """Raised when an enumeration would exceed a hard size cap."""


class Perm(tuple):
    """A permutation of {1..degree}, which is the tuple of its images.
    Products and inverses are bijections by construction and build the tuple
    directly; only the public constructor checks."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if not 1 <= n <= MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {n}")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {images}")
        return tuple.__new__(cls, images)

    @property
    def degree(self) -> int:
        return len(self)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(1, degree + 1))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Iterable[int]]) -> "Perm":
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle in cycles:
            cycle = list(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                if not 1 <= a <= degree:
                    raise ValueError(f"point {a} outside 1..{degree}")
                if a in seen:
                    raise ValueError(f"point {a} appears twice in the cycles")
                seen.add(a)
                images[a - 1] = b
        return cls(images)

    def __call__(self, point: int) -> int:
        return self[point - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # (p * q)(x) = p(q(x))
        if len(self) != len(other):
            raise ValueError("degree mismatch")
        return tuple.__new__(Perm, [self[i - 1] for i in other])

    def inverse(self) -> "Perm":
        inv = [0] * len(self)
        for i, y in enumerate(self):
            inv[y - 1] = i + 1
        return tuple.__new__(Perm, inv)

    def cycles(self) -> list[tuple[int, ...]]:
        """Every cycle, fixed points included, each starting at its least
        point, in order of those points."""
        seen, out = set(), []
        for start in range(1, len(self) + 1):
            if start not in seen:
                cyc, x = [start], self[start - 1]
                while x != start:
                    cyc.append(x)
                    x = self[x - 1]
                seen.update(cyc)
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths, fixed points included, sorted descending.  Computed
        once per image tuple in the process (`_cycle_type`), which `index`
        and `order` read too."""
        return _cycle_type(self)

    @property
    def index(self) -> int:
        """degree minus the number of orbits; drives tame discriminant valuations.
        It shadows `tuple.index`, which a `Perm` never needs."""
        return len(self) - len(_cycle_type(self))

    def order(self) -> int:
        return lcm(*_cycle_type(self))

    def is_even(self) -> bool:
        return self.index % 2 == 0

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self, 1))

    def cycle_string(self) -> str:
        return "".join("(" + ",".join(map(str, c)) + ")"
                       for c in self.cycles() if len(c) > 1) or "()"

    def __repr__(self) -> str:
        return f"Perm{self.degree}[{self.cycle_string()}]"


@lru_cache(maxsize=4096)
def _cycle_type(p: Perm) -> tuple[int, ...]:
    """p's cycle type, once per image tuple: a lattice run asks for the same
    few hundred elements' types thousands of times."""
    return tuple(sorted(map(len, p.cycles()), reverse=True))


def parse_cycle_string(degree: int, text: str) -> Perm:
    """Inverse of Perm.cycle_string, e.g. "(1,2)(3,4)" -> a Perm."""
    text = text.strip()
    if text in ("()", ""):
        return Perm.identity(degree)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        cycles.append([int(tok) for tok in chunk.split(",")])
    return Perm.from_cycles(degree, cycles)


class PermGroup:
    """Group generated by permutations of a common degree.

    Immutable; the element list, order and cycle-type census are computed
    once on first use.  Equality is equality of element sets.
    """

    def __init__(self, generators: Iterable[Perm], degree: Optional[int] = None):
        gens = tuple(generators)
        if not gens:
            if degree is None:
                raise ValueError("need generators or an explicit degree")
            gens = (Perm.identity(degree),)
        if degree is None:
            degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators must share one degree")
        self.degree = degree
        self.generators = gens

    @classmethod
    def from_elements(
        cls, elements: Iterable[Perm], degree: int, generators: Iterable[Perm] = ()
    ) -> "PermGroup":
        """Group whose complete element set is already known.

        `elements` must be closed under multiplication; this is not checked.
        The set seeds the `elements` cache, so the group is never re-closed.
        The generators default to the elements themselves.
        """
        elems = frozenset(elements)
        group = cls(tuple(generators) or elems, degree=degree)
        group.__dict__["elements"] = elems
        return group

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls((), degree=degree)

    @cached_property
    def elements(self) -> frozenset[Perm]:
        moves = [lambda x, g=g: x * g for g in self.generators]
        return frozenset(_orbit(self.identity, moves))

    @cached_property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def __contains__(self, g: Perm) -> bool:
        return g in self.elements  # a Perm of another degree is a longer or shorter tuple

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def __repr__(self) -> str:
        gens = " ".join(g.cycle_string() for g in self.generators)
        return f"PermGroup(degree={self.degree}, <{gens}>)"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self.elements <= other.elements

    def is_normal_in(self, other: "PermGroup") -> bool:
        if not self.is_subgroup_of(other):
            return False
        elems = self.elements
        return all(
            g * h * g.inverse() in elems for g in other.generators for h in self.generators
        )

    def orbit(self, point: int) -> frozenset[int]:
        return frozenset(_orbit(point, self.generators))

    def orbits(self) -> list[frozenset[int]]:
        remaining = set(range(1, self.degree + 1))
        out = []
        while remaining:
            orb = self.orbit(min(remaining))
            out.append(orb)
            remaining -= orb
        return out

    def is_transitive(self) -> bool:
        return self._transitive

    @cached_property
    def _transitive(self) -> bool:
        """Whether the orbit of point 1 is every point, computed once per group."""
        return len(self.orbit(1)) == self.degree

    @cached_property
    def _census(self) -> list[tuple[int, ...]]:
        """The sorted cycle types of the elements, a conjugacy invariant."""
        return sorted(map(_cycle_type, self.elements))

    @cached_property
    def _element_orders(self) -> Counter:
        """How many elements have each order, an isomorphism invariant."""
        return Counter(lcm(*t) for t in self._census)

    def stabilizer(self, point: int) -> "PermGroup":
        """Point stabilizer, by element scan (fine at this scale)."""
        elems = [g for g in self.elements if g(point) == point]
        return PermGroup.from_elements(elems, self.degree)

    # The element index behind the subgroup computations, private to this
    # module and built on first use, once per group object.  Elements are
    # numbered in ascending order of their image tuples, so comparing sorted
    # number lists compares sorted image lists, and the identity is number 0.
    # `_right[j][i]` is the number of elems[i] * elems[j], and `_inv[j]` that
    # of elems[j]^-1; so g x g^-1 is `_right[_inv[g]][_right[x][g]]`.

    @cached_property
    def _elems(self) -> list[Perm]:
        if self.order > SUBGROUP_ORDER_CAP:
            raise GroupTooLargeError(
                f"subgroup computations capped at order {SUBGROUP_ORDER_CAP}"
            )
        return sorted(self.elements)

    @cached_property
    def _num(self) -> dict[Perm, int]:
        return {p: i for i, p in enumerate(self._elems)}

    @cached_property
    def _inv(self) -> list[int]:
        return [self._num[p.inverse()] for p in self._elems]

    @cached_property
    def _right(self) -> list[list[int]]:
        elems, num = self._elems, self._num
        gen_maps = []  # right multiplication by each generator, on image tuples
        for g in self.generators:
            shift = [x - 1 for x in g]
            gen_maps.append([num[tuple(map(p.__getitem__, shift))] for p in elems])
        # Every element is t * g for an earlier t in breadth-first order, and
        # x * (t * g) = (x * t) * g, so each column is a generator map applied
        # to an earlier column.
        right: list[Optional[list[int]]] = [None] * len(elems)
        right[0] = list(range(len(elems)))
        reached = [0]
        for t in reached:
            col = right[t]
            for gmap in gen_maps:
                j = gmap[t]
                if right[j] is None:
                    right[j] = list(map(gmap.__getitem__, col))
                    reached.append(j)
        return right

    def _close(self, base: frozenset[int], gens: tuple[int, ...]) -> frozenset[int]:
        """Numbers of <base, gens> for a closed subgroup `base`, by coset
        enumeration: the result is a union of right cosets of base."""
        elems = set(base)
        right = self._right
        queue = [0]
        while queue:
            t = queue.pop()
            for g in gens:
                u = right[g][t]
                if u not in elems:
                    elems.update(map(right[u].__getitem__, base))
                    queue.append(u)
        return frozenset(elems)


def _orbit(seed, moves) -> set:
    """Closure of {seed} under the maps in `moves`, by breadth-first search.

    When the maps are a group's generators acting on some set, this is the
    orbit under the whole group: a finite group is generated as a monoid by
    any set of group generators.  More than MAX_ELEMENTS points raise.
    """
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for move in moves:
                y = move(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > MAX_ELEMENTS:
                        raise GroupTooLargeError(f"group exceeds {MAX_ELEMENTS} elements")
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# Malle invariants


def malle_alpha(G: PermGroup) -> Fraction:
    """1 / min{ind(g) : g in G, g != e}, as an exact rational."""
    from fractions import Fraction  # here: verify-splitting never reads it
    indices = index_set(G)
    if not indices:
        raise ValueError("no nonidentity element")
    return Fraction(1, min(indices))


def index_set(G: PermGroup) -> set[int]:
    return {g.index for g in G.elements if not g.is_identity()}


def wreath_c2_s4() -> PermGroup:
    """The imprimitive wreath product on 8 points, blocks {1,2},{3,4},{5,6},{7,8}.

    Generators: the flip (7,8) of one block and lifts of the S4 generators
    (1 2) and (1 2 3 4) permuting the blocks.  The powers of the block
    4-cycle conjugate (7,8) onto the other three flips, so these three
    generate the flips' C2^4 and, with the lifts, all 384 elements.  Fewer
    generators make every search over them cheaper: closure, the element
    index and the conjugacy orbits of subgroups each cost in proportion to
    their number.
    """
    flip = Perm.from_cycles(8, [(7, 8)])
    swap_blocks = Perm.from_cycles(8, [(1, 3), (2, 4)])  # lift of (1 2)
    cycle_blocks = Perm.from_cycles(8, [(1, 3, 5, 7), (2, 4, 6, 8)])  # lift of (1 2 3 4)
    return PermGroup([flip, swap_blocks, cycle_blocks])


class SubgroupClass:
    """One conjugacy class of subgroups of `group`: a representative, every
    member of the class and N_G(representative).

    A member is the set of its element numbers in the index of `numbering`:
    `group` itself, or the larger group whose lattice the class was read off.
    The members stay numbers, and `element_numbers` numbers a subgroup of
    `group` the same way, so callers compare members without building `Perm`
    sets.

    The representative is the least member of the class in image order (the
    least sorted list of element images).  Its generators are chosen from its
    elements alone: walk them by descending element order, then image order,
    and keep each one not yet generated by those kept.  So a cyclic class is
    generated by its least generator in image order, and any other class by
    two or more elements.
    """

    def __init__(self, representative: PermGroup, members: frozenset[frozenset[int]],
                 group: PermGroup, numbering: PermGroup):
        self.representative = representative
        self.members = members
        self.group = group
        self.numbering = numbering

    @cached_property
    def normalizer(self) -> PermGroup:
        """N_G(representative), by orbit-stabilizer on G's own index, computed
        on first read."""
        G = self.group
        members = frozenset(map(G._num.__getitem__, self.representative.elements))
        orbit = _conjugacy_orbit(G, members, _conjugation_tables(G, G.generators))
        return PermGroup.from_elements(
            map(G._elems.__getitem__, _normalizer(G, members, orbit)), G.degree)

    @property
    def order(self) -> int:
        return self.representative.order

    @property
    def class_size(self) -> int:
        return len(self.members)

    @property
    def core_order(self) -> int:
        """Order of the core, the intersection of the conjugates: the largest
        normal subgroup of G inside them, and the kernel of G's action on the
        cosets of the representative."""
        return len(frozenset.intersection(*self.members))

    def element_numbers(self, H: PermGroup) -> frozenset[int]:
        """The numbers of the elements of H, a subgroup of `group`, as the
        members number them."""
        return frozenset(map(self.numbering._num.__getitem__, H.elements))

    def member_group(self, member: frozenset[int]) -> PermGroup:
        """The subgroup whose element numbers are `member`."""
        return PermGroup.from_elements(map(self.numbering._elems.__getitem__, member),
                                       self.group.degree)


def _prime_divisors(k: int) -> set[int]:
    """The distinct primes dividing k >= 1."""
    primes, p = set(), 2
    while k > 1:
        if k % p:
            p += 1
        else:
            primes.add(p)
            k //= p
    return primes


class _Lattice(NamedTuple):
    """Every subgroup of `group`, as sets of its element numbers, and the
    cyclic subgroup that each element generates."""

    group: PermGroup
    members: tuple[frozenset[int], ...]
    cyclic_of: tuple[frozenset[int], ...]

    def contains(self, G: PermGroup) -> bool:
        A = self.group
        return G.degree == A.degree and all(g in A.elements for g in G.generators)


# The lattices computed from scratch in this process, newest last.  Every
# other lattice is read off one of these.
_LATTICES: deque[_Lattice] = deque(maxlen=8)


@lru_cache(maxsize=64)
def subgroup_classes(G: PermGroup) -> tuple[SubgroupClass, ...]:
    """All subgroups of G up to G-conjugacy, ordered by (order, sorted
    element images of the representative).

    When this process has computed the lattice of a group A >= G of the same
    degree, G's lattice is read off A's: G's subgroups are A's subgroups
    inside G, and G's classes are their orbits under G's generators.  Else
    it is computed by iterative cyclic extension (`_compute_lattice`).  Both
    routes end in `_classes`, so a result does not depend on which lattices
    were computed before it.  Each class keeps its members as element
    numbers; their `Perm` sets and the normalizer are built when first read.
    Results are cached per group (groups are immutable and hash by element
    set).  `subgroup_classes_of_order` reads the classes of one order alone.
    """
    if not any(lat.contains(G) for lat in _LATTICES):
        lattice, orbits = _compute_lattice(G)
        _LATTICES.append(lattice)
        return _classes(lattice, G, orbits)
    return _read_off(G, lambda members: True)


@lru_cache(maxsize=64)
def subgroup_classes_of_order(G: PermGroup, k: int) -> tuple[SubgroupClass, ...]:
    """The classes of `subgroup_classes(G)` of order k, in its order.  A lattice
    that holds G gives them with no orbit of another order; else G's is computed
    in full.  A k that does not divide |G| gives none, and no lattice."""
    if k < 1 or G.order % k:
        return ()
    if not any(lat.contains(G) for lat in _LATTICES):
        return tuple(c for c in subgroup_classes(G) if c.order == k)
    return _read_off(G, lambda members: len(members) == k)


def _read_off(G: PermGroup, keep: Callable[[frozenset[int]], bool]) -> tuple[SubgroupClass, ...]:
    """G's classes of the members `keep` takes, off the newest lattice holding G."""
    lattice = next(lat for lat in reversed(_LATTICES) if lat.contains(G))
    A = lattice.group
    inside = frozenset(map(A._num.__getitem__, G.elements))
    tables = _conjugation_tables(A, G.generators)
    orbits, seen = [], set()
    for members in lattice.members:
        if keep(members) and members <= inside and members not in seen:
            orbits.append(_conjugacy_orbit(A, members, tables)[0])
            seen.update(orbits[-1])
    return _classes(lattice, G, orbits)


def _conjugation_tables(A: PermGroup, generators: Iterable[Perm]) -> list[tuple[int, list[int]]]:
    """For each generator g, its number and the table x -> g x g^-1 on A's
    element numbers."""
    right, inv = A._right, A._inv
    return [(g, [right[inv[g]][right[x][g]] for x in range(A.order)])
            for g in map(A._num.__getitem__, generators)]


def _conjugacy_orbit(A: PermGroup, members: frozenset[int],
                     tables: list[tuple[int, list[int]]]) -> tuple[dict, set[int]]:
    """The orbit of the subgroup `members` under conjugation by the
    generators in `tables`, by breadth-first search, and its Schreier
    generators.

    The orbit is a transversal: it maps each member S to an element t, found
    as a product of generators, with t `members` t^-1 = S.  An edge g from S
    to a member already found, with element u, gives the Schreier generator
    u^-1 g t, which fixes `members`; by Schreier's lemma these generate its
    stabilizer, the normalizer in the group that the generators generate.
    """
    right, inv = A._right, A._inv
    transversal = {members: 0}
    schreier: set[int] = set()
    queue = [members]
    for S in queue:
        t = transversal[S]
        for g, conj in tables:
            image = frozenset(map(conj.__getitem__, S))
            gt = right[t][g]
            u = transversal.get(image)
            if u is None:
                transversal[image] = gt
                queue.append(image)
            else:
                schreier.add(right[gt][inv[u]])
    return transversal, schreier


def _normalizer(G: PermGroup, members: frozenset[int],
                orbit: tuple[dict, set[int]]) -> frozenset[int]:
    """The numbers of N_G(S), for the subgroup S with element numbers
    `members` and `orbit` its `_conjugacy_orbit` under G's generators: S
    closed with the Schreier generators, in one coset enumeration.

    By orbit-stabilizer |N_G(S)| is |G| over the orbit length; a closure of
    any other order means a wrong transversal or Schreier generator, and
    raises.
    """
    transversal, schreier = orbit
    normalizer = G._close(members, tuple(sorted(schreier - members)))
    if len(normalizer) * len(transversal) != G.order:
        raise RuntimeError(
            f"normalizer in {G!r}: closure of order {len(normalizer)}, but the "
            f"conjugacy orbit has length {len(transversal)}")
    return normalizer


def _compute_lattice(G: PermGroup) -> tuple[_Lattice, list[dict]]:
    """Every subgroup of G, and its classes as orbits, by iterative cyclic
    extension.

    Seed with every cyclic subgroup, then join each class representative H
    with cyclic subgroups C of prime-power order not inside H, taking one C
    per N_G(H)-orbit, and dedup by element set.  No class is missed: every
    subgroup K is generated by its elements of prime-power order, so adding
    them one at a time climbs from 1 to K through joins with such C, and a
    join whose base is conjugate to H is conjugate to a join with H itself.
    For n in N_G(H), <H, nCn^-1> = n<H, C>n^-1 is in the class of <H, C>,
    so one C per N_G(H)-orbit reaches every class.  N_G(H) comes from the
    orbit of H by orbit-stabilizer (`_normalizer`), and the N_G(H)-orbits of
    the C from its generators.

    When |G| has at most two prime divisors, G is solvable (Burnside's
    p^a q^b theorem), and H is joined only with C inside N_G(H).  Still no
    class is missed.  A subgroup K != 1 of a solvable group is solvable, so
    K/K' is a nontrivial abelian group and K has a normal subgroup M of some
    prime index p.  Take c in K \\ M; with ord(c) = p^a m and p not dividing
    m, c^m is a p-element outside M, because K/M has order p.  So K =
    M<c^m>, and c^m normalizes M.  By induction on |K|, M = g^-1 H g for a
    class representative H, and then g K g^-1 = <H, C> with C = <g c^m
    g^-1> of prime-power order, inside N_G(H) and not inside H.

    Element numbers are G's own (image order); a member set is a frozenset
    of them.  Each orbit maps its members to a transversal.
    """
    right, inv, n = G._right, G._inv, G.order  # builds G's index, once
    trivial = frozenset([0])
    cyclics: dict[frozenset[int], int] = {}
    cyclic_of: list[frozenset[int]] = []  # element number -> the subgroup it generates
    for i in range(n):
        powers, x = [0], i  # i, i^2, ... back to the identity, by right multiplication
        while x:
            powers.append(x)
            x = right[i][x]
        members = frozenset(powers)
        cyclics.setdefault(members, i)
        cyclic_of.append(members)

    seen: set[frozenset[int]] = set()  # every member of every class found
    reps: list[frozenset[int]] = []
    rep_gens: list[tuple[int, ...]] = []
    orbits: list[tuple[dict, set[int]]] = []
    tables = _conjugation_tables(G, G.generators)

    def add_class(members: frozenset[int], gens: tuple[int, ...]) -> None:
        if members not in seen:
            orbits.append(_conjugacy_orbit(G, members, tables))
            seen.update(orbits[-1][0])
            reps.append(members)
            rep_gens.append(gens)

    add_class(trivial, ())
    cyclic_items = sorted(cyclics.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    for members, gen in cyclic_items:
        add_class(members, (gen,))

    solvable = len(_prime_divisors(n)) <= 2
    joinable = [(c, g) for c, g in cyclic_items if len(_prime_divisors(len(c))) == 1]
    cursor = 1  # joins with the trivial group are the cyclic seeds
    while cursor < len(reps):
        members = reps[cursor]
        gens = rep_gens[cursor]
        normalizer = _normalizer(G, members, orbits[cursor])
        moves = gens + tuple(sorted(orbits[cursor][1] - members))  # generate N_G(H)
        joined_orbits: set[frozenset[int]] = set()
        for cyc, cgen in joinable:
            if (cyc in joined_orbits or cyc <= members
                    or (solvable and cgen not in normalizer)):
                continue
            joined_orbits.add(cyc)
            frontier = [cgen]
            for x in frontier:
                for m in moves:
                    y = right[inv[m]][right[x][m]]
                    if cyclic_of[y] not in joined_orbits:
                        joined_orbits.add(cyclic_of[y])
                        frontier.append(y)
            add_class(G._close(members, gens + (cgen,)), gens + (cgen,))
        cursor += 1

    return _Lattice(G, tuple(seen), tuple(cyclic_of)), [orbit for orbit, _ in orbits]


def _classes(lattice: _Lattice, G: PermGroup, orbits: list[dict]) -> tuple[SubgroupClass, ...]:
    """G's classes from their orbits, each with the representative and
    generators that `SubgroupClass` states.  A representative's first
    generator spans a cyclic subgroup the lattice already holds."""
    A, cyclic_of = lattice.group, lattice.cyclic_of
    perm_of = A._elems.__getitem__
    ranked = sorted(((min(map(sorted, orbit)), orbit) for orbit in orbits),
                    key=lambda item: (len(item[0]), item[0]))
    out = []
    for least, orbit in ranked:
        gens, span = (), frozenset([0])
        for x in sorted(least, key=lambda x: (-len(cyclic_of[x]), x)):
            if len(span) == len(least):
                break
            if x not in span:
                gens += (x,)
                span = A._close(span, gens) if len(gens) > 1 else cyclic_of[x]
        out.append(SubgroupClass(
            PermGroup.from_elements(map(perm_of, least), A.degree, map(perm_of, gens)),
            frozenset(orbit), G, A,
        ))
    return tuple(out)


def normal_subgroups(G: PermGroup, max_order: int) -> list[PermGroup]:
    """Normal subgroups of G with order <= max_order (G.order for all of them):
    the one-member classes of the lattice, in its order."""
    return [c.representative for c in subgroup_classes(G)
            if c.class_size == 1 and c.order <= max_order]


def coset_class_minima(G: PermGroup, I: PermGroup, N: PermGroup) -> list[Perm]:
    """One element per N-conjugacy class of the cosets sigma I, for I <= N <= G
    with I normal in N (the classes of N/I): its least element in image order.

    The class of sigma I covers the cosets (n sigma n^-1) I for n in N.  N is
    walked in image order, marking every element of each class met.  An
    unmarked sigma is the least element of its class, since any smaller one
    was walked first and marked the class; so sigma itself is returned.
    """
    num, right, inv = G._num, G._right, G._inv
    members = [num[p] for p in I.elements]
    walk = sorted(num[p] for p in N.elements)  # number order is image order
    if any(right[inv[x]][right[num[t]][x]] not in members for x in walk for t in I.generators):
        raise ValueError("I is not normal in N")
    marked: set[int] = set()
    minima = []
    for s in walk:
        if s not in marked:
            minima.append(G._elems[s])
            for c in {right[inv[x]][right[s][x]] for x in walk}:
                marked.update(map(right[c].__getitem__, members))  # I c = c I
    return minima


# ---------------------------------------------------------------------------
# Coset actions and quotients


class CosetAction:
    """Transitive action of `group` on the left cosets of a subgroup."""

    def __init__(self, group: PermGroup, induced_degree: int,
                 coset_of: dict[Perm, int], reps: tuple[Perm, ...]):
        self.group = group
        self.induced_degree = induced_degree
        self._coset_of = coset_of  # Perm -> coset index (1-based)
        self._reps = reps          # coset representatives, reps[0] = identity

    def act(self, g: Perm) -> Perm:
        """Image of g as a permutation of the coset space."""
        if g not in self.group:
            raise ValueError("element not in the acting group")
        coset_of = self._coset_of
        return Perm(coset_of[g * r] for r in self._reps)

    def image(self) -> PermGroup:
        return PermGroup(
            [self.act(g) for g in self.group.generators], degree=self.induced_degree
        )


def coset_action(G: PermGroup, H: PermGroup) -> CosetAction:
    """Action of G on the left cosets gH; the index is a degree, so at most MAX_DEGREE."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    index = G.order // H.order
    if index > MAX_DEGREE:
        raise GroupTooLargeError(f"coset index {index} exceeds cap {MAX_DEGREE}")
    h_elems = list(H.elements)
    coset_of: dict[Perm, int] = dict.fromkeys(h_elems, 1)
    reps = [G.identity]
    for r in reps:  # breadth-first: reps grows as it is walked
        for g in G.generators:
            x = g * r
            if x not in coset_of:
                reps.append(x)
                for h in h_elems:
                    coset_of[x * h] = len(reps)
    if len(reps) != index:
        raise RuntimeError(
            f"found {len(reps)} cosets, expected |G|/|H| = {index}: H is not closed"
        )
    return CosetAction(G, index, coset_of, tuple(reps))


def quotient_as_perm(G: PermGroup, N: PermGroup) -> PermGroup:
    """G/N as a permutation group via the regular action on cosets of N.

    Raises GroupTooLargeError when |G/N| exceeds MAX_DEGREE.
    """
    if not N.is_normal_in(G):
        raise ValueError("N is not normal in G")
    return coset_action(G, N).image()


# ---------------------------------------------------------------------------
# Isomorphism testing


def _centralizer_order_in_sym(cycle_type: tuple[int, ...]) -> int:
    out = 1
    for length, mult in Counter(cycle_type).items():
        out *= length**mult * factorial(mult)
    return out


def _conjugators(g: Perm, b: Perm) -> Iterable[Perm]:
    """All c in S_degree with c g c^-1 = b.

    Such c are exactly the maps sending the cycles of g onto same-length
    cycles of b, with arbitrary cycle matching and rotation; there are
    |centralizer(g)| of them.
    """
    n = g.degree
    by_len_g: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    by_len_b: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for cyc in g.cycles():
        by_len_g[len(cyc)].append(cyc)
    for cyc in b.cycles():
        by_len_b[len(cyc)].append(cyc)
    lengths = sorted(by_len_g)

    def assignments(k: int, mapping: list[int]):
        if k == len(lengths):
            yield tuple(mapping)
            return
        length = lengths[k]
        gcycs = by_len_g[length]
        for perm_b in itertools.permutations(by_len_b[length]):
            for rots in itertools.product(range(length), repeat=len(gcycs)):
                m = list(mapping)
                for gc, bc, r in zip(gcycs, perm_b, rots):
                    for i, x in enumerate(gc):
                        m[x - 1] = bc[(i + r) % length]
                yield from assignments(k + 1, m)

    for m in assignments(0, [0] * n):
        yield Perm(m)


def perm_isomorphic(A: PermGroup, B: PermGroup) -> Optional[Perm]:
    """Search for c with c A c^-1 = B; None when no conjugator exists.

    Invariant prefilters (order, cycle-type census, orbit lengths and, for
    transitive groups, the orbit lengths of a point stabilizer: all point
    stabilizers of a transitive group are conjugate in it), then exact
    enumeration of the conjugators of one well-chosen generator.  Each group
    computes its census once and keeps it.
    The returned witness is re-verified before being handed back.
    """
    if A.degree != B.degree:
        raise ValueError("degrees differ")
    n = A.degree
    if n > ISO_DEGREE_CAP:
        raise GroupTooLargeError(f"degree capped at {ISO_DEGREE_CAP}")
    if A.order != B.order:
        return None
    if A._census != B._census:
        return None
    if sorted(map(len, A.orbits())) != sorted(map(len, B.orbits())):
        return None
    if A.is_transitive() and (sorted(map(len, A.stabilizer(1).orbits()))
                              != sorted(map(len, B.stabilizer(1).orbits()))):
        return None

    gens = sorted(
        A.generators, key=lambda g: _centralizer_order_in_sym(g.cycle_type())
    )
    b_set = B.elements
    if gens[0].is_identity():
        # A (hence B) is trivial; any permutation conjugates
        return Perm.identity(n)
    g1 = gens[0]
    rest = gens[1:]
    t1 = g1.cycle_type()
    for b1 in sorted(b_set):
        if b1.cycle_type() != t1:
            continue
        for c in _conjugators(g1, b1):
            cinv = c.inverse()
            if all(c * g * cinv in b_set for g in rest):
                # verify the full witness, never trust the search
                if not all(c * g * cinv in b_set for g in A.generators):
                    raise RuntimeError(
                        f"conjugator {c.cycle_string()} does not map A into B"
                    )
                return c
    return None


def abstract_isomorphic(A: PermGroup, B: PermGroup) -> Optional[tuple[PermGroup, Perm]]:
    """Abstract group isomorphism onto a transitive B, through A's coset actions.

    A is isomorphic to B, of degree n, exactly when A acting on the left
    cosets of some core-free subgroup K of index n is S_n-conjugate to B.
    An isomorphism pulls B's point stabilizer back to such a K, and A's
    action on the cosets of K is then equivalent to B's on its points;
    conversely, a core-free K makes that action faithful.  Conjugate
    subgroups give conjugate actions, so one K per class of index n is
    tried.  Groups of unequal order or element-order multiset are rejected
    first, the multisets cached per group.

    Returns (K, c) with c image c^-1 = B for the image of A on the cosets of
    K, or None.  Both parts are checked where they are made: `coset_action`
    counts its cosets and `perm_isomorphic` re-verifies c.  Degrees may
    differ; B's may not exceed ISO_DEGREE_CAP.
    """
    if not B.is_transitive():
        raise ValueError(f"abstract_isomorphic needs a transitive B, got {B!r}")
    if A.order != B.order or A._element_orders != B._element_orders:
        return None
    for cls in subgroup_classes_of_order(A, A.order // B.degree):
        if cls.core_order == 1:
            K = cls.representative
            c = perm_isomorphic(coset_action(A, K).image(), B)
            if c is not None:
                return K, c
    return None
