"""Finite group engine on one dense multiplication table.

Elements are indices 0..n-1 with 0 always the identity; every higher layer
works with indices only. Groups are immutable after construction.

The multiplication table has one representation: `FiniteGroup.table`, the
read-only, C-contiguous (n, n) int32 array that `build_group` validates,
with table[a, b] = a b. This module does every walk over it. `catalog`
builds and saves tables; `spectra`, `chartable` and `classify` never read
the table itself but ask for powers, products, conjugacy classes, centres
and commutators here. Nothing returned from here is a numpy scalar:
elements are Python ints, and the gathers that `spectra` and `chartable`
need come back as int32 arrays.

Every group carries one generating set, `FiniteGroup.gens`, which Light's
associativity test runs over: the greedy one that `build_group` finds,
each generator the least element outside the closure of those before it,
drawn from the generators its constructor knows (the catalog families'
standard generators, the factors' generators embedded in a direct
product, the permutations of a `perms` file) or else from every element. A
walk that only has to hold for all of G checks the generators alone,
because the elements it holds for form a subgroup, so the walks cost
O(|gens| n) rows, not n^2 products or n rounds:

- Light's test: the a with (x a) y = x (a y) for all x, y are closed
  under the product, so a runs over the generators only.
- `center`, `is_abelian`: the centraliser of z is a subgroup, so z is
  central when it commutes with every generator, and G is abelian when
  the generators commute pairwise. `conjugacy_classes` makes the central
  elements singleton classes and gathers each other class in one walk.
  It builds the unit power maps on the classes (`ConjugacyPartition.powers`)
  once, and every rationality route, criterion and Galois check reads them.
  A function on G is constant on the classes when conjugation by every
  generator fixes it (`conjugation_invariant`), which needs no partition.
- `is_nilpotent`: the s whose image commutes with z Z_i in G / Z_i form a
  subgroup, so z lies in Z_(i+1) when [z, s] lies in Z_i for every
  generator s.
- `_closure`: a mask closed under right multiplication by the generators
  holds every word in them; products of members are members, so it may
  also square a small frontier, which takes a cyclic closure from n
  rounds to about log n.
- Element orders: one walk g, g^2, ... per cyclic subgroup not yet seen,
  since g^j has order o / gcd(j, o).

`FiniteGroup.commutators` is the one all-pairs walk left, because it needs
the whole commutator set. The classes of the generators
(`generator_classes`) also lead the character tables' eigenspace
splitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

import numpy as np

_BLOCK_CELLS = 1 << 20  # cells per block of rows in the O(n^2) scans, so their temporaries stay small


class NotAGroup(ValueError):
    """Table fails a group axiom; carries a violating witness where possible."""

    def __init__(self, reason: str, witness: tuple | None = None):
        super().__init__(reason if witness is None else f"{reason} (witness {witness})")
        self.reason = reason
        self.witness = witness


class NotNormal(ValueError):
    """Subset is not conjugation-invariant; carries (g, x, conjugate)."""

    def __init__(self, witness: tuple[int, int, int]):
        g, x, y = witness
        super().__init__(f"not normal: {g}*{x}*{g}^-1 = {y} escapes the subset")
        self.witness = witness


class FiniteGroup:
    """Finite group on its multiplication table; identity is element 0.

    `table` is the read-only, C-contiguous (n, n) int32 array of products,
    table[a, b] = a b; it is the only copy of the product. `inv` and `ord`
    are tuples of Python ints, and `gens` is the generating set that
    `build_group` was given or chose, ascending. Only `groups` and
    `catalog` read `table` and `gens`; every other module goes through the
    methods and functions of `groups`.
    """

    __slots__ = ("n", "table", "inv", "ord", "gens", "name")

    def __init__(
        self,
        table: np.ndarray,
        inv: tuple[int, ...],
        ord_map: tuple[int, ...],
        gens: tuple[int, ...],
        name: str,
    ):
        self.n = table.shape[0]
        self.table = table
        self.inv = inv
        self.ord = ord_map
        self.gens = gens
        self.name = name

    def mul(self, a: int, b: int) -> int:
        return self.table.item(a, b)

    def conjugate(self, x: int, g: int) -> int:
        """x g x^-1."""
        t = self.table
        return t.item(t.item(x, g), self.inv[x])

    def power(self, g: int, k: int) -> int:
        o = self.ord[g]
        k %= o
        t = self.table
        acc, base = 0, g
        while k:
            if k & 1:
                acc = t.item(acc, base)
            base = t.item(base, base)
            k >>= 1
        return acc

    def powers(self, g: int) -> tuple[int, ...]:
        """g^0, g^1, ..., g^(o-1) for o the order of g."""
        t = self.table
        out, y = [0], g
        while y:
            out.append(y)
            y = t.item(y, g)
        return tuple(out)

    def products(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """The int32 array of products r c, r in `rows` down, c in `cols` across."""
        return self.table[np.ix_(np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp))]

    def same_table(self, other: FiniteGroup) -> bool:
        return np.array_equal(self.table, other.table)

    def elements(self) -> range:
        return range(self.n)

    def exponent(self) -> int:
        return lcm(*self.ord) if self.n else 1

    def is_abelian(self) -> bool:
        """The generators commute pairwise."""
        p = self.products(self.gens, self.gens)
        return bool((p == p.T).all())

    def commutators(self) -> tuple[int, ...]:
        """Every commutator a b a^-1 b^-1, ascending, each once."""
        seen = np.zeros(self.n, dtype=bool)
        for block in _commutators(self):
            seen[block] = True
        return tuple(np.flatnonzero(seen).tolist())

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, n={self.n})"


def _row_blocks(n: int, width: int) -> Iterator[slice]:
    """Consecutive slices of 0..n-1 covering about _BLOCK_CELLS cells of rows `width` wide."""
    step = max(1, _BLOCK_CELLS // max(1, width))
    for lo in range(0, n, step):
        yield slice(lo, min(lo + step, n))


def _closure(t: np.ndarray, gens: Sequence[int], inside: np.ndarray | None = None) -> np.ndarray:
    """Mask of the subgroup generated by `gens`, given `inside`, a mask of
    members of that subgroup holding the identity (default: the identity
    alone).

    Each round multiplies the frontier, the members new in the last round,
    on the right by every generator, and while it is small (|frontier|^2 at
    most 4n) also by itself. Every product of members is a member, so the
    mask never leaves the subgroup. The loop ends only when no product is
    new, so every member has been multiplied on the right by every
    generator: the mask holds the identity and is closed under right
    multiplication by the generators, so it holds every product of
    generators, which in a finite group is the whole subgroup. The self
    products make a cyclic closure take about log n rounds instead of n.
    """
    n = t.shape[0]
    if inside is None:
        inside = _identity_mask(n)
    gens = np.asarray(gens, dtype=np.intp)
    frontier = np.flatnonzero(inside)
    while frontier.size:
        factors = np.concatenate([gens, frontier]) if frontier.size**2 <= 4 * n else gens
        products = np.unique(t[np.ix_(frontier, factors)])
        frontier = products[~inside[products]]
        inside[frontier] = True
    return inside


def _identity_mask(n: int) -> np.ndarray:
    """Mask of the trivial subgroup."""
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    return inside


def _generating_set(
    t: np.ndarray, candidates: Sequence[int] | None = None
) -> tuple[tuple[int, ...], np.ndarray]:
    """Greedy generators, ascending: the least of `candidates` (default:
    every element) outside the closure so far joins them. Each one at least
    doubles the closure, so there are at most log2 n of them, however many
    candidates there are. Returns them and the mask of their closure."""
    n = t.shape[0]
    pool = np.arange(n) if candidates is None else np.unique(np.asarray(candidates, dtype=np.intp))
    inside = _identity_mask(n)
    gens: list[int] = []
    while (outside := pool[~inside[pool]]).size:
        gens.append(int(outside[0]))
        inside = _closure(t, gens, inside)
    return tuple(gens), inside


def _check_associativity(arr: np.ndarray, gens: Sequence[int]) -> tuple | None:
    """Light's test: a witness (x, a, y) with (x a) y != x (a y), or None.

    Only the middle factor a runs over the generating set `gens`. That is
    exact: the elements a with (x a) y = x (a y) for all x, y are closed
    under the product, so if they include a generating set they are
    everything.
    """
    n = arr.shape[0]
    for a in gens:
        col_a, row_a = arr[:, a], arr[a, :]
        for rows in _row_blocks(n, n):
            left = arr[col_a[rows]]          # (x, y) -> (x a) y
            right = arr[rows][:, row_a]      # (x, y) -> x (a y)
            if (left != right).any():
                x, y = map(int, np.argwhere(left != right)[0])
                return rows.start + x, a, y
    return None


def build_group(
    table: Sequence[Sequence[int]] | np.ndarray, name: str = "G", gens: Sequence[int] | None = None
) -> FiniteGroup:
    """Validate a multiplication table and wrap it as a FiniteGroup.

    `table` is a list of rows or an (n, n) integer array; an int32 array is
    kept, not copied, and becomes read-only. Every axiom is checked exactly
    at every order; associativity by Light's test over a generating set.
    `gens` is a generating set the caller knows, as element indices of a
    table whose identity is element 0: the greedy set is drawn from it, so
    a generator in the closure of smaller ones is dropped and Light's test
    makes at most log2 n passes; ValueError says when it does not generate.
    Without it the greedy set is drawn from every element. The identity is
    relocated to index 0 if found elsewhere. Each failure names the first
    violating element, as a scan in index order would.
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    try:
        arr = np.asarray(table)
    except ValueError:  # ragged rows
        arr = None
    if arr is None or arr.shape != (n, n) or not ((arr >= 0) & (arr < n)).all():
        # find the first faulty row, as a scan in row order would
        for g, row in enumerate(table):
            if len(row) != n:
                raise NotAGroup("table is not square", (g, len(row), n))
            if min(row) < 0 or max(row) >= n:
                h = next(h for h, v in enumerate(row) if not 0 <= v < n)
                raise NotAGroup("entry out of range", (g, h, int(row[h])))
    arr = np.ascontiguousarray(arr, dtype=np.int32)
    idx = np.arange(n, dtype=np.int32)

    two_sided = (arr == idx).all(axis=1) & (arr == idx[:, None]).all(axis=0)
    if not two_sided.any():
        raise NotAGroup("no two-sided identity")
    ident = int(np.argmax(two_sided))
    if ident != 0:
        # swap labels 0 and ident: the relabelled product of perm[a], perm[b] is perm[a b]
        perm = idx.copy()
        perm[0], perm[ident] = ident, 0
        arr = perm[arr[np.ix_(perm, perm)]]

    is_e = arr == 0
    inv = np.argmax(is_e, axis=1)  # the first h with g h = e
    good = is_e.any(axis=1) & (arr[inv, idx] == 0)
    if not good.all():
        raise NotAGroup("missing two-sided inverse", (int(np.argmin(good)),))

    supplied = gens
    gens, spanned = _generating_set(arr, supplied)
    if not spanned.all():
        raise ValueError(f"elements {sorted({int(x) for x in supplied})} do not generate the group {name}")
    witness = _check_associativity(arr, gens)
    if witness is not None:
        raise NotAGroup("associativity fails", witness)

    ords = _element_orders(arr)
    arr.flags.writeable = False
    return FiniteGroup(arr, tuple(inv.tolist()), ords, gens, name)


def _element_orders(arr: np.ndarray) -> tuple[int, ...]:
    """Every element's order, by one walk g, g^2, ... per cyclic subgroup.

    The least element g whose order is not yet known is walked, at most n
    scalar steps, until its powers return to e; with o its order, g^j has
    order o / gcd(j, o), so the walk settles all of <g> and no later walk
    starts inside it. Each order is checked against Lagrange as its walk
    ends: when o divides n so does every o / gcd(j, o), so the first walk
    that fails names the least element whose order does not divide n, as a
    scan in index order would. After Light's test the table is a group and
    neither check can fail; they back the test up.
    """
    n = arr.shape[0]
    ords = [0] * n
    ords[0] = 1
    for g in range(1, n):
        if ords[g]:
            continue
        powers, x = [0, g], arr.item(g, g)
        while x and len(powers) <= n:
            powers.append(x)
            x = arr.item(x, g)
        if x:
            raise NotAGroup("powers of an element never return to the identity", (g,))
        o = len(powers)
        if n % o:
            raise NotAGroup("element order does not divide group order", (g, o))
        for j in range(1, o):
            ords[powers[j]] = o // gcd(j, o)
    return tuple(ords)


# ---------------------------------------------------------------------------
# Conjugacy structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugacyPartition:
    """Conjugacy classes, ordered by least member; class 0 is the identity's.

    `units` are the units h mod e, e the exponent, ascending from 1, and
    `powers` is the read-only (units, k) int32 array whose row i, column j
    is the class of rep_j^(h_i), so column j holds the classes of
    Atom(rep_j). As x^h depends only on h mod e, and e and |G| have the
    same prime divisors, the first unit in [2, |G|) whose power map has a
    given property is one of these. `==` leaves out `powers`, which the
    classes determine.
    """

    class_of: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    inverse_class: tuple[int, ...]
    real_classes: tuple[tuple[int, ...], ...]  # orbits of class indices under inversion
    units: tuple[int, ...]
    powers: np.ndarray = field(compare=False, repr=False)

    @property
    def k(self) -> int:
        return len(self.classes)

    def reps(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.classes)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def conjugacy_classes(g: FiniteGroup) -> ConjugacyPartition:
    """The classes, each gathered in one walk, and the unit power maps on them."""
    n, t = g.n, g.table
    inv = np.asarray(g.inv, dtype=np.intp)
    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    central = _central(g).tolist()
    for a in range(n):
        if class_of[a] >= 0:
            continue
        orbit = [a] if central[a] else np.unique(t[t[:, a], inv]).tolist()  # x a x^-1 for every x
        for y in orbit:
            class_of[y] = len(classes)
        classes.append(tuple(orbit))
    inverse_class = tuple(class_of[g.inv[c[0]]] for c in classes)
    seen = [False] * len(classes)
    real: list[tuple[int, ...]] = []
    for j in range(len(classes)):
        if not seen[j]:
            orbit_j = tuple(sorted({j, inverse_class[j]}))
            for x in orbit_j:
                seen[x] = True
            real.append(orbit_j)
    units, powers = _unit_power_classes(g, [c[0] for c in classes], class_of)
    return ConjugacyPartition(tuple(class_of), tuple(classes), inverse_class, tuple(real), units, powers)


def conjugation_invariant(g: FiniteGroup, values: Sequence) -> bool:
    """values[s x s^-1] = values[x] for every element x and generator s, so
    for every element s: the elements whose conjugation fixes the values
    form a subgroup. `values` is indexed by element."""
    conj = g.table[g.table[list(g.gens)], [[g.inv[s]] for s in g.gens]]  # s x s^-1, s down
    return all(values[y] == values[x] for row in conj.tolist() for x, y in enumerate(row))


def class_count(g: FiniteGroup) -> int:
    """The number of conjugacy classes, with no partition: by Burnside's
    count, the commuting pairs (a, b) number k |G|. One all-pairs scan, in
    blocks of rows."""
    t = g.table
    return sum(int(np.count_nonzero(t[rows] == t[:, rows].T)) for rows in _row_blocks(g.n, g.n)) // g.n


def generator_classes(g: FiniteGroup, part: ConjugacyPartition) -> tuple[int, ...]:
    """The classes of the generating set `g.gens`, ascending, each once."""
    return tuple(sorted({part.class_of[x] for x in g.gens}))


def _unit_power_classes(g: FiniteGroup, reps: list[int], class_of: list[int]) -> tuple[tuple[int, ...], np.ndarray]:
    """`ConjugacyPartition.units` and `powers` for the classes of `reps`."""
    e = g.exponent()
    reps, class_of = np.asarray(reps, dtype=np.intp), np.asarray(class_of, dtype=np.int32)
    # unit -> class map. Power maps compose: a unit not yet reached is powered by squaring
    # and multiplies the units so far into their next cosets.
    maps = {1: np.arange(len(reps), dtype=np.int32)}
    for h in range(2, e):
        if gcd(h, e) != 1 or h in maps:
            continue
        power, base, bits = np.zeros_like(reps), reps, h
        while bits:
            if bits & 1:
                power = g.table[power, base]
            base, bits = g.table[base, base], bits >> 1
        coset, step = list(maps.items()), class_of[power]
        while (coset := [(u * h % e, step[m]) for u, m in coset])[0][0] not in maps:
            maps.update(coset)
    units = tuple(sorted(maps))
    powers = np.array([maps[h] for h in units], dtype=np.int32)
    powers.flags.writeable = False
    return units, powers


@dataclass(frozen=True)
class Atom:
    """The generators of <g>: every g^k with k coprime to the order of g."""

    generator: int
    members: tuple[int, ...]


def atom(g: FiniteGroup, x: int) -> Atom:
    powers = g.powers(x)
    o = len(powers)
    members = sorted({powers[k % o] for k in range(1, o + 1) if gcd(k, o) == 1})
    return Atom(x, tuple(members))


# ---------------------------------------------------------------------------
# Subgroups, quotients, products
# ---------------------------------------------------------------------------


def generated_subgroup(g: FiniteGroup, gens: list[int] | set[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Closure of a nonempty generating set; returns (subgroup, embedding).

    embedding[i] is the parent index of subgroup element i; element 0 of the
    subgroup is the identity because the parent identity has least index.
    """
    if not gens:
        raise ValueError("generating set must be nonempty")
    order = np.flatnonzero(_closure(g.table, sorted(set(gens))))
    pos = np.zeros(g.n, dtype=np.int32)
    pos[order] = np.arange(order.size, dtype=np.int32)
    sub = pos[g.products(order, order)]
    return build_group(sub, name=f"<{len(gens)} gens in {g.name}>"), tuple(order.tolist())


def _central(g: FiniteGroup) -> np.ndarray:
    """Mask of the centre: z is central when it commutes with every
    generator, since the elements commuting with z form a subgroup."""
    gens = np.asarray(g.gens, dtype=np.intp)
    return (g.table[:, gens] == g.table[gens].T).all(axis=1)


def center(g: FiniteGroup) -> tuple[int, ...]:
    return tuple(np.flatnonzero(_central(g)).tolist())


def _first_escape(members: list[int], n: int, blocks: Iterable[tuple[slice, np.ndarray]]) -> tuple | None:
    """The first (row, column) whose entry lies outside `members`, over row
    blocks in order, as (row index, column index, entry); None if none."""
    inside = np.zeros(n, dtype=bool)
    inside[members] = True
    for rows, block in blocks:
        bad = np.argwhere(~inside[block])
        if bad.size:
            i, j = map(int, bad[0])
            return rows.start + i, j, int(block[i, j])
    return None


def _check_subgroup(g: FiniteGroup, members: frozenset[int]) -> None:
    if 0 not in members:
        raise NotAGroup("subset does not contain the identity")
    m = list(members)
    escape = _first_escape(m, g.n, [(slice(0, len(m)), g.products(m, m))])
    if escape is not None:
        i, j, p = escape
        raise NotAGroup("subset is not closed", (m[i], m[j], p))


def quotient(g: FiniteGroup, normal: set[int] | frozenset[int], name: str | None = None) -> FiniteGroup:
    """Quotient by a normal subgroup; cosets are labelled by their least member."""
    members = frozenset(normal)
    _check_subgroup(g, members)
    m = list(members)
    t = g.table
    inv = np.asarray(g.inv, dtype=np.intp)
    conjugates = (  # x a x^-1, x down and a across
        (rows, t[t[rows][:, m], inv[rows, None]]) for rows in _row_blocks(g.n, len(m))
    )
    escape = _first_escape(m, g.n, conjugates)
    if escape is not None:
        x, j, y = escape
        raise NotNormal((x, m[j], y))
    # x lies in its coset x N, so the least of x N labels x
    coset_rep = np.concatenate([t[rows][:, m].min(axis=1) for rows in _row_blocks(g.n, len(m))])
    reps = np.unique(coset_rep)
    pos = np.zeros(g.n, dtype=np.int32)
    pos[reps] = np.arange(reps.size, dtype=np.int32)
    return build_group(pos[coset_rep[g.products(reps, reps)]], name=name or f"{g.name}/N{len(members)}")


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    """Componentwise product on pairs, encoded as i*|b| + j."""
    n = a.n * b.n
    table = a.table[:, None, :, None] * b.n + b.table[None, :, None, :]
    gens = [x * b.n for x in a.gens] + list(b.gens)  # (x, e) and (e, y)
    return build_group(table.reshape(n, n), name=name or f"{a.name}x{b.name}", gens=gens)


def _commutators(g: FiniteGroup) -> Iterator[np.ndarray]:
    """The commutators z x z^-1 x^-1, z down and x across, in blocks of rows z."""
    t = g.table
    inv = np.asarray(g.inv, dtype=np.intp)
    for rows in _row_blocks(g.n, g.n):
        yield t[t[rows], t[inv[rows]][:, inv]]


def is_nilpotent(g: FiniteGroup) -> bool:
    """Upper central series reaches the whole group.

    z lies in the next term Z_(i+1) when z Z_i is central in G / Z_i, that
    is when [z, s] lies in Z_i for every generator s: the elements whose
    image commutes with z Z_i form a subgroup.
    """
    t, gens = g.table, np.asarray(g.gens, dtype=np.intp)
    inv = np.asarray(g.inv, dtype=np.intp)
    comm = t[t[:, gens], t[np.ix_(inv, inv[gens])]]  # [z, s] = z s z^-1 s^-1, z down and s across
    current = _identity_mask(g.n)
    while True:
        nxt = current[comm].all(axis=1)
        if nxt.all():
            return True
        if (nxt == current).all():
            return False
        current = nxt
