"""Differential tests: the array code in `cayint.groups` against the scalar
table loops it replaced (`tests/oracle.py`), on the whole small catalog,
on relabelled tables whose identity is not at index 0, on
hypothesis-built direct products of catalog factors, and on
hypothesis-generated permutation groups read through the `perms` file
form."""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from cayint.catalog import _cycle, catalog, cyclic_group, dicyclic_group, dihedral_group, load_group, symmetric_group
from cayint.chartable import class_matrices
from cayint.classify import _cyclic_subgroups_all_normal
from cayint.groups import (
    FiniteGroup,
    NotAGroup,
    NotNormal,
    build_group,
    center,
    conjugacy_classes,
    conjugation_invariant,
    direct_product,
    generated_subgroup,
    is_nilpotent,
    quotient,
)
from cayint.spectra import ConnectionFunction, adjacency
from conftest import MEDIUM_EXTRA, SMALL_CATALOG, load_perm_group, perm_generators, relabel, small_products


def _all_ints(values) -> bool:
    return all(type(v) is int for v in values)


def assert_table_array(g: FiniteGroup) -> None:
    t = g.table
    assert isinstance(t, np.ndarray) and t.dtype == np.int32 and t.shape == (g.n, g.n)
    assert t.flags.c_contiguous
    assert not t.flags.writeable
    assert _all_ints(g.inv) and _all_ints(g.ord)


def assert_same_group(got: FiniteGroup, want: FiniteGroup) -> None:
    assert_table_array(got)
    assert got.table.tolist() == want.table.tolist()
    assert (got.inv, got.ord, got.name) == (want.inv, want.ord, want.name)


def _raised(fn, *args):
    try:
        return fn(*args), None
    except (NotAGroup, NotNormal) as exc:
        return None, (type(exc), str(exc), exc.witness)


def assert_agrees(g: FiniteGroup, seed: int = 0) -> None:
    """Every array kernel of `groups` (and the gathers of `spectra` and
    `chartable`) against its oracle loop on one group."""
    rng = random.Random(seed)
    assert_table_array(g)
    assert g.inv == oracle.inverses(g)
    assert g.ord == oracle.element_orders(g.table)
    assert list(g.gens) == sorted(g.gens) and oracle.closure(g.table, g.gens).all()

    part, want = conjugacy_classes(g), oracle.conjugacy_classes(g)
    assert part == want
    # `==` leaves the power maps out
    assert part.powers.dtype == np.int32 and not part.powers.flags.writeable
    assert part.powers.tolist() == want.powers.tolist()
    assert _all_ints(part.class_of) and all(_all_ints(c) for c in part.classes) and _all_ints(part.units)
    z = center(g)
    assert z == oracle.center(g) and _all_ints(z)
    assert g.is_abelian() is oracle.is_abelian(g)
    assert is_nilpotent(g) is oracle.is_nilpotent(g)
    comm = g.commutators()
    assert comm == tuple(sorted(oracle.commutators(g))) and _all_ints(comm)
    assert _cyclic_subgroups_all_normal(g, part) is oracle.cyclic_subgroups_all_normal(g)

    picks = sorted(rng.sample(range(g.n), min(g.n, 4)))
    for gens in [[x] for x in picks] + [picks, list(z), list(comm)]:
        sub, emb = generated_subgroup(g, gens)
        want_sub, want_emb = oracle.generated_subgroup(g, gens)
        assert emb == want_emb and _all_ints(emb)
        assert_same_group(sub, want_sub)

    derived = oracle.generated_subgroup(g, oracle.commutators(g))[1]
    for normal in (set(z), set(derived)):
        assert_same_group(quotient(g, normal), oracle.quotient(g, normal))
    # rejections: the same reason and witness as the loops, in the same order
    subsets = [set(oracle.generated_subgroup(g, [x])[1]) for x in picks]
    subsets += [{0} | set(picks), set(picks)]
    for subset in subsets:
        got, got_err = _raised(quotient, g, subset)
        want, want_err = _raised(oracle.quotient, g, subset)
        assert got_err == want_err
        if got_err is None:
            assert_same_group(got, want)
        else:
            assert _all_ints(got_err[2] or ())

    z2 = cyclic_group(2)
    assert_same_group(direct_product(g, z2), oracle.direct_product(g, z2))
    assert_same_group(direct_product(z2, g), oracle.direct_product(z2, g))

    assert [m.tolist() for m in class_matrices(g, part)] == oracle.class_matrices(g, part)

    values = [rng.randint(-9, 9) for _ in g.elements()]
    values[rng.randrange(g.n)] = 10**30  # beyond int64: the gather must stay exact
    f = ConnectionFunction(g, values)
    got = adjacency(g, f)
    assert got == oracle.adjacency(g, f)
    assert got.entries.dtype == object  # the 10^30 value puts it beyond int64
    assert f.class_function is oracle.class_function_scan(g, f.values)
    on_classes = [10**30 * (part.class_of[x] % 3) + part.class_of[x] % 2 for x in g.elements()]
    assert ConnectionFunction(g, on_classes).class_function is oracle.class_function_scan(g, on_classes) is True
    moved = list(on_classes)
    moved[max(part.classes, key=len)[-1]] += 1  # one member of a largest class
    assert ConnectionFunction(g, moved).class_function is oracle.class_function_scan(g, moved)

    orbits = [{x for j in orbit for x in part.classes[j]} for orbit in part.real_classes[1:]]
    pairs = [{x, g.inv[x]} for x in picks if x]
    for elems in orbits[:3] + pairs:
        s = frozenset(elems)
        assert conjugation_invariant(g, [x in s for x in g.elements()]) is oracle.is_normal_set(g, s)


@pytest.mark.parametrize("label", [label for label, _ in SMALL_CATALOG + MEDIUM_EXTRA])
def test_catalog_group_agrees_with_oracle(groups, label):
    assert_agrees(groups[label])


@pytest.mark.parametrize("label", ["S3", "Q8", "Dic12", "A4", "S4", "Q8xZ3"])
def test_relabelled_table_agrees_with_oracle(groups, label):
    g = groups[label]
    rng = random.Random(label)
    perm = list(range(g.n))
    while perm[0] == 0:
        rng.shuffle(perm)
    h = build_group(relabel(g, perm), name=label)
    assert h.n == g.n and sorted(h.ord) == sorted(g.ord)
    assert_agrees(h, seed=1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 12, 30])
def test_arithmetic_constructors_match_scalar_tables(m):
    for build, scalar in (
        (cyclic_group, oracle.cyclic_table),
        (dihedral_group, oracle.dihedral_table),
    ):
        g = build(m)
        assert_table_array(g)
        assert g.table.tolist() == scalar(m)
    if m >= 2:
        g = dicyclic_group(m)
        assert_table_array(g)
        assert g.table.tolist() == oracle.dicyclic_table(m)


@given(small_products(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_products_agree_with_oracle(g, seed):
    assert_agrees(g, seed)


@given(perm_generators(), st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_permutation_groups_agree_with_oracle(gens, seed):
    table = oracle.perm_closure_table(gens)
    g = load_perm_group(gens, len(table))
    assert g.table.tolist() == table
    assert_agrees(g, seed)


def test_cap_sized_symmetric_group():
    g = symmetric_group(7)
    assert g.n == 5040
    assert len(g.gens) == 2  # (0 1) and the 7-cycle: two passes of Light's test
    assert conjugacy_classes(g).k == 15
    assert g.ord == oracle.element_orders(g.table)
    assert not is_nilpotent(g) and center(g) == (0,)


@pytest.mark.parametrize(
    "tokens, want",
    [
        (("cyclic", 12), (1,)),
        (("cyclic", 1), ()),
        (("dihedral", 7), (1, 7)),
        (("dihedral", 1), (1,)),
        (("dicyclic", 3), (1, 6)),
        (("q8z3",), (3, 12, 1)),
        (("z2z3", 1, 1), (3, 1)),
    ],
)
def test_catalog_families_hand_over_their_generators(tokens, want):
    # the standard generators, and for products each factor's embedded
    g = catalog(*tokens)
    assert g.gens == tuple(sorted(want))
    assert oracle.closure(g.table, g.gens).all()


def test_supplied_generators_must_generate():
    table = cyclic_group(6).table
    with pytest.raises(ValueError, match="do not generate"):
        build_group(table, gens=[2])
    with pytest.raises(ValueError, match="do not generate"):
        build_group(table, gens=[0])
    assert build_group(table, gens=[0, 5, 5]).gens == (5,)
    assert build_group(table, gens=[5, 3, 2, 1]).gens == (1,)


def test_redundant_perms_are_dropped(tmp_path):
    # all 15 transpositions of S6: each generator kept at least doubles the
    # closure, so Light's test makes at most log2 720 < 10 passes, not 15
    perms = [_cycle(6, [a, b]) for a, b in combinations(range(6), 2)]
    path = tmp_path / "s6.grp"
    path.write_text("group S6 720\nperms 6\n" + "\n".join(" ".join(map(str, q)) for q in perms) + "\n")
    g = load_group(path)
    assert g.n == 720 and len(g.gens) <= 9
    assert oracle.closure(g.table, g.gens).all()


def test_every_construction_keeps_a_read_only_array(tmp_path):
    from cayint.catalog import load_group, save_group

    g = catalog("q8z3")
    path = tmp_path / "g.grp"
    save_group(g, path)
    built = [
        g,
        catalog("z2z4", 1, 1),
        catalog("s4"),
        load_group(path),
        build_group([[0, 1], [1, 0]]),
        generated_subgroup(g, [1])[0],
        quotient(g, set(center(g))),
        direct_product(g, cyclic_group(2)),
    ]
    for h in built:
        assert_table_array(h)
        with pytest.raises(ValueError):
            h.table[0, 0] = 1
