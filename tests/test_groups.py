"""Group engine checks: table validation, conjugacy, atoms, constructions."""

from __future__ import annotations

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayint.catalog import catalog
from cayint.groups import (
    NotAGroup,
    NotNormal,
    atom,
    build_group,
    center,
    class_count,
    conjugacy_classes,
    direct_product,
    generated_subgroup,
    is_nilpotent,
    quotient,
)
from oracle import element_orders, power_map


class TestBuildGroup:
    def test_z2(self):
        g = build_group([[0, 1], [1, 0]])
        assert g.n == 2 and g.ord == (1, 2) and g.inv == (0, 1)

    def test_z3(self):
        g = build_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
        assert g.ord == (1, 3, 3)
        assert g.inv == (0, 2, 1)

    def test_identity_relocated(self):
        # Z3 with identity at index 2
        g = build_group([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
        assert g.table[0].tolist() == [0, 1, 2]
        assert g.ord == (1, 3, 3)
        assert g.table[1, g.inv[1]] == 0 == g.table[2, g.inv[2]]

    def test_non_associative_rejected(self):
        # latin square with two-sided identity that is not a group table
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAGroup) as err:
            build_group(table)
        assert err.value.witness is not None
        a, b, c = err.value.witness
        t = table
        assert t[t[a][b]][c] != t[a][t[b][c]]

    def test_missing_inverse_rejected(self):
        with pytest.raises(NotAGroup) as err:
            build_group([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
        assert (err.value.reason, err.value.witness) == ("missing two-sided inverse", (1,))

    def test_out_of_range_rejected(self):
        with pytest.raises(NotAGroup) as err:
            build_group([[0, 1], [1, 7]])
        assert (err.value.reason, err.value.witness) == ("entry out of range", (1, 1, 7))

    @pytest.mark.parametrize(
        "table, reason, witness",
        [
            ([], "empty table", None),
            ([[0, 1], [1]], "table is not square", (1, 1, 2)),
            ([[0, -1, 0], [3], [0, 0, 0]], "entry out of range", (0, 1, -1)),
            ([[1, 0], [0, 0]], "no two-sided identity", None),
            ([[0, 1, 2], [1, 1, 1], [2, 2, 2]], "missing two-sided inverse", (1,)),
        ],
    )
    def test_rejection_reason_and_witness(self, table, reason, witness):
        with pytest.raises(NotAGroup) as err:
            build_group(table)
        assert (err.value.reason, err.value.witness) == (reason, witness)

    def test_element_order_check_backs_up_associativity(self, monkeypatch):
        # A loop passes every other check; with Light's test switched off the
        # order check still rejects it, since 1 * 1 = 0 gives an element of
        # order 2 in a table of order 5.
        monkeypatch.setattr("cayint.groups._check_associativity", lambda arr, gens: None)
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAGroup) as err:
            build_group(table)
        assert err.value.reason == "element order does not divide group order"
        assert err.value.witness == (1, 2)

    def test_large_non_associative_loop_rejected(self):
        # Z2400 with one intercalate swapped: still a loop with two-sided
        # inverses, but (1*2)*5 != 1*(2*5); random triples almost never see it
        n = 2400
        t = [[(a + b) % n for b in range(n)] for a in range(n)]
        for r in (3, 1203):
            t[r][5], t[r][1205] = t[r][1205], t[r][5]
        assert t[t[1][2]][5] != t[1][t[2][5]]
        with pytest.raises(NotAGroup) as err:
            build_group(t)
        a, b, c = err.value.witness
        assert t[t[a][b]][c] != t[a][t[b][c]]


class TestConjugacy:
    def test_s3_brute_force_oracle(self, groups):
        g = groups["S3"]
        part = conjugacy_classes(g)
        # oracle: conjugate every element by every element, directly
        seen = {}
        for a in g.elements():
            orbit = frozenset(g.mul(g.mul(x, a), g.inv[x]) for x in g.elements())
            seen.setdefault(orbit, set()).add(a)
        assert {frozenset(c) for c in part.classes} == set(seen)
        assert sorted(len(c) for c in part.classes) == [1, 2, 3]

    def test_q8_classes(self, groups, partitions):
        part = partitions["Q8"]
        assert part.sizes() == (1, 2, 1, 2, 2)
        assert len(part.classes) == 5

    def test_abelian_singletons(self):
        g = catalog("cyclic", 9)
        part = conjugacy_classes(g)
        assert part.k == 9
        assert all(len(c) == 1 for c in part.classes)

    def test_partition_consistency(self, groups, partitions):
        for label, g in groups.items():
            part = partitions[label]
            assert sorted(x for c in part.classes for x in c) == list(g.elements())
            for j, c in enumerate(part.classes):
                assert all(part.class_of[x] == j for x in c)
            # conjugation never leaves a class
            for a in g.elements():
                for x in range(0, g.n, max(1, g.n // 7)):
                    y = g.mul(g.mul(x, a), g.inv[x])
                    assert part.class_of[y] == part.class_of[a]

    def test_inverse_class_involution_and_real_classes(self, groups, partitions):
        for label in groups:
            part = partitions[label]
            for j in range(part.k):
                assert part.inverse_class[part.inverse_class[j]] == j
            covered = sorted(j for orbit in part.real_classes for j in orbit)
            assert covered == list(range(part.k))
            g = groups[label]
            for orbit in part.real_classes:
                members = {x for j in orbit for x in part.classes[j]}
                assert {g.inv[x] for x in members} == members

    def test_real_class_is_class_union_inverse_class(self, groups, partitions):
        for label, g in groups.items():
            part = partitions[label]
            for rep in part.reps():
                j = part.class_of[rep]
                expected = set(part.classes[j]) | set(part.classes[part.inverse_class[j]])
                orbit = next(o for o in part.real_classes if j in o)
                got = {x for i in orbit for x in part.classes[i]}
                assert got == expected

    def test_order_constant_on_classes(self, groups, partitions):
        for label, g in groups.items():
            for c in partitions[label].classes:
                assert len({g.ord[x] for x in c}) == 1


class TestAtomsAndPowerMaps:
    def test_identity_atom(self, groups):
        assert atom(groups["Q8"], 0).members == (0,)

    def test_z12_generator(self):
        g = catalog("cyclic", 12)
        assert atom(g, 1).members == (1, 5, 7, 11)

    def test_prime_order(self):
        g = catalog("cyclic", 5)
        assert atom(g, 1).members == (1, 2, 3, 4)

    def test_atom_members_share_order_and_subgroup(self, groups):
        for g in groups.values():
            for x in range(0, g.n, max(1, g.n // 9)):
                a = atom(g, x)
                assert {g.ord[y] for y in a.members} == {g.ord[x]}
                sub, emb = generated_subgroup(g, [x])
                for y in a.members:
                    sub_y, emb_y = generated_subgroup(g, [y])
                    assert emb_y == emb

    def test_power_map_trivial_and_inverse(self):
        g = catalog("cyclic", 12)
        assert power_map(g, 1).images == tuple(g.elements())
        assert power_map(g, 11).images == g.inv
        pm = power_map(g, 5)
        assert pm.images[1] == 5 and pm.is_permutation

    def test_power_map_non_unit_is_not_permutation(self):
        g = catalog("cyclic", 12)
        pm = power_map(g, 2)
        assert not pm.is_permutation
        assert len(set(pm.images)) < g.n

    def test_atoms_fixed_by_unit_power_maps(self, groups):
        for g in groups.values():
            n = g.n
            units = [h for h in range(1, n) if gcd(h, n) == 1]
            for x in range(0, n, max(1, n // 6)):
                members = set(atom(g, x).members)
                for h in units:
                    assert {g.power(y, h) for y in members} == members


class TestSubgroupsQuotientsProducts:
    def test_generated_cyclic(self, groups):
        dic = groups["Dic12"]
        sub, emb = generated_subgroup(dic, [1])  # a, order 6
        assert sub.n == 6
        assert emb == (0, 1, 2, 3, 4, 5)

    def test_generated_trivial(self, groups):
        sub, emb = generated_subgroup(groups["Q8"], [0])
        assert sub.n == 1 and emb == (0,)

    def test_generated_whole_q8(self, groups):
        q8 = groups["Q8"]
        # i (index 1) and j (index 4) generate: closure oracle by direct loop
        sub, emb = generated_subgroup(q8, [1, 4])
        closure = {0, 1, 4}
        changed = True
        while changed:
            changed = False
            for a in list(closure):
                for b in list(closure):
                    c = q8.mul(a, b)
                    if c not in closure:
                        closure.add(c)
                        changed = True
        assert set(emb) == closure == set(range(8))

    def test_center_q8(self, groups):
        assert center(groups["Q8"]) == (0, 2)

    def test_center_is_abelian_and_normal(self, groups):
        for g in groups.values():
            z = center(g)
            assert all(g.mul(a, b) == g.mul(b, a) for a in z for b in z)
            zs = set(z)
            assert all(g.conjugate(x, a) in zs for a in z for x in g.elements())

    def test_quotient_z4(self):
        q = quotient(catalog("cyclic", 4), {0, 2})
        assert q.n == 2 and q.ord == (1, 2)

    def test_quotient_order_product(self, groups):
        dic = groups["Dic12"]
        n = {0, 3}  # the center
        q = quotient(dic, n)
        assert q.n * len(n) == dic.n

    def test_quotient_rejects_non_normal(self, groups):
        s3 = groups["S3"]
        with pytest.raises(NotNormal) as err:
            quotient(s3, {0, 1})
        x, a, y = err.value.witness
        assert s3.conjugate(x, a) == y and y not in {0, 1}

    def test_quotient_rejects_non_subgroup(self, groups):
        with pytest.raises(NotAGroup):
            quotient(groups["S3"], {0, 3})  # 3-cycle alone: not closed

    def test_direct_product_q8_z3(self, groups):
        dp = direct_product(groups["Q8"], catalog("cyclic", 3))
        assert dp.n == 24
        assert dp.exponent() == 12
        assert sorted(set(dp.ord)) == [1, 2, 3, 4, 6, 12]

    def test_nilpotent(self, groups):
        assert is_nilpotent(groups["Q8xZ3"])
        assert not is_nilpotent(groups["S3"])
        assert is_nilpotent(catalog("cyclic", 12))
        assert is_nilpotent(catalog("cyclic", 1))
        assert not is_nilpotent(groups["S4"])
        assert is_nilpotent(groups["D8"])  # 2-group

    @given(st.integers(min_value=1, max_value=24))
    @settings(max_examples=24, deadline=None)
    def test_cyclic_orders(self, m):
        g = catalog("cyclic", m)
        for x in g.elements():
            o = g.ord[x]
            assert g.power(x, o) == 0
            assert all(g.power(x, k) != 0 for k in range(1, o))
            assert m % o == 0


def _scan_failure(t: list[list[int]]) -> tuple[str, tuple | None] | None:
    """The reason and witness of the first failing axiom among range,
    identity and inverses, by a plain scan of every cell in index order;
    None when all three hold."""
    n = len(t)
    for g, row in enumerate(t):
        if len(row) != n:
            return "table is not square", (g, len(row), n)
        for h, v in enumerate(row):
            if not 0 <= v < n:
                return "entry out of range", (g, h, v)
    idents = [e for e in range(n) if all(t[e][x] == x and t[x][e] == x for x in range(n))]
    if not idents:
        return "no two-sided identity", None
    perm = list(range(n))
    perm[0], perm[idents[0]] = idents[0], 0
    u = [[perm[t[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
    for g in range(n):
        right = [h for h in range(n) if u[g][h] == 0]
        if not right or u[right[0]][g] != 0:
            return "missing two-sided inverse", (g,)
    return None


def _moved(m: int, ident: int) -> list[list[int]]:
    """Z_m's table with its identity at index `ident`: labels 0 and ident swapped."""
    perm = list(range(m))
    perm[0], perm[ident] = ident, 0
    return [[perm[(perm[a] + perm[b]) % m] for b in range(m)] for a in range(m)]


class TestBlockedScans:
    """The scans that run in blocks of rows, or without (n, n) temporaries,
    give the witness of a plain scan in index order."""

    @staticmethod
    def _rejection(table) -> tuple[str, tuple | None]:
        with pytest.raises(NotAGroup) as err:
            build_group(table)
        return err.value.reason, err.value.witness

    def test_identity_elsewhere_with_several_zeros_in_column_0(self):
        t = _moved(7, 4)
        t[1] = list(range(7))  # a left identity, not a right one: 1 * 0 = 0
        t[2][0] = 0
        assert [e for e in range(7) if t[e][0] == 0] == [1, 2, 4]
        want = _scan_failure(t)
        assert want is not None and self._rejection(t) == want

    def test_least_two_sided_identity_is_taken(self):
        g = build_group(_moved(9, 5))
        assert g.table[0].tolist() == list(range(9)) and g.table[:, 0].tolist() == list(range(9))
        assert g.ord == tuple(element_orders(g.table))

    def test_row_without_identity(self):
        t = _moved(6, 0)
        t[3] = [3, 4, 5, 1, 2, 1]  # 3 is its own inverse in Z6, so no other row's check fails first
        assert self._rejection(t) == _scan_failure(t) == ("missing two-sided inverse", (3,))

    @pytest.mark.parametrize(
        "dtype, value",
        [
            (dtype, value)
            for dtype in (None, np.int64, np.int32)
            for value in (-1, 6, 2**31, -(2**40), 10**30)
            if dtype is None or np.iinfo(dtype).min <= value <= np.iinfo(dtype).max
        ],
    )
    def test_out_of_range(self, dtype, value):
        t = _moved(6, 0)
        t[4][2], t[5][0] = value, -1
        table = t if dtype is None else np.array(t, dtype=dtype)
        assert self._rejection(table) == _scan_failure(t) == ("entry out of range", (4, 2, value))

    @pytest.mark.parametrize(
        "table",
        [
            [[0, 1, 2], [1, 2, 0], [2, 0]],
            [[0, 1, 2], [1, 2, 0, 1], [2, 0, 1]],
            [[0, 1], [1, 0], [0, 1]],
            [[0, 1, 2], [1, 2, 9], [2, 0]],
        ],
    )
    def test_ragged(self, table):
        assert self._rejection(table) == _scan_failure(table)

    def test_associativity_witness_in_a_later_block(self, monkeypatch):
        # Z240 with one intercalate swapped: a loop with two-sided inverses
        # whose first violation of Light's test lies past the first rows
        n, r, c = 240, 200, 5
        t = np.add.outer(np.arange(n), np.arange(n)).astype(np.int32) % n
        for row in (r, (r + n // 2) % n):
            t[row, [c, c + n // 2]] = t[row, [c + n // 2, c]]
        whole = self._rejection(t.copy())
        monkeypatch.setattr("cayint.groups._BLOCK_CELLS", 2 * n)
        blocked = self._rejection(t.copy())
        assert blocked == whole and whole[0] == "associativity fails"
        x, a, y = whole[1]
        assert x >= 2 and t[t[x, a], y] != t[x, t[a, y]]

    @pytest.mark.parametrize("label", ["S4", "D8", "Q8xZ3"])
    def test_blocked_scans_match_one_block(self, groups, monkeypatch, label):
        g = groups[label]
        part = conjugacy_classes(g)
        normal = set(center(g))
        whole = (class_count(g), g.commutators(), quotient(g, normal).table.tolist())
        monkeypatch.setattr("cayint.groups._BLOCK_CELLS", 7)
        assert (class_count(g), g.commutators(), quotient(g, normal).table.tolist()) == whole
        assert whole[0] == part.k
