"""Adjacency construction, dual-route spectra, criterion, Eulerian sets,
and the spectral engines against their oracles on hypothesis-generated
permutation groups."""

from __future__ import annotations

import random
from math import gcd

import pytest
from conftest import FUNCTION_KINDS, colour_function, load_perm_group, perm_generators, small_products
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle import (
    Cyclotomic,
    berkowitz,
    eigenvalue_sum,
    eulerian_check,
    expand_character_coeffs,
    expand_character_poly,
    is_normal_set,
    perm_closure_table,
    power,
    routes_agree,
    save_function,
)

from cayint.catalog import catalog
from cayint.chartable import CharacterTable, VerificationFailed
from cayint.groups import conjugacy_classes, conjugation_invariant
from cayint.linalg import IntMatrix, IntPolynomial, cayley_charpoly, charpoly, integer_spectrum
from cayint.spectra import (
    ConnectionFunction,
    ConnectionSet,
    NotAClassFunction,
    NotSymmetricFunction,
    adjacency,
    integrality_by_criterion,
    load_function,
    parse_set_tokens,
    spectrum_characters,
    spectrum_matrix,
)

ALPHA = (0, 3, 7, 1, 1, 4)
BETA = (0, 1, 7, 8, 7, 1, 3, 4, 5, 3, 4, 5)


class TestConnectionFunction:
    def test_flags_recomputed(self, groups, partitions):
        s3 = groups["S3"]
        f = ConnectionFunction(s3, ALPHA)
        assert f.symmetric and not f.class_function
        assert not f.in_f
        g = ConnectionFunction.from_class_values(s3, partitions["S3"], [0, 2, -3])
        assert g.symmetric and g.class_function and g.in_f

    def test_delta(self, groups):
        q8 = groups["Q8"]
        f = ConnectionFunction.delta(q8, [1, 3])
        assert f.values == (0, 1, 0, 1, 0, 0, 0, 0)
        assert f.symmetric

    def test_connection_set_validation(self, groups):
        q8 = groups["Q8"]
        with pytest.raises(ValueError):
            ConnectionSet(q8, [0, 1, 3])  # identity forbidden
        dic = groups["Dic12"]
        with pytest.raises(ValueError):
            ConnectionSet(dic, [1])  # a^-1 = a^5 missing

    def test_normal_flag(self, groups):
        # a set is normal when its indicator is constant on classes
        s3 = groups["S3"]
        trans = [x for x in s3.elements() if s3.ord[x] == 2]
        for elems in (trans, trans[:1]):
            normal = conjugation_invariant(s3, [x in elems for x in s3.elements()])
            assert normal is is_normal_set(s3, frozenset(elems)) is (elems == trans)


class TestAdjacency:
    def test_six_cycle(self):
        z6 = catalog("cyclic", 6)
        m = adjacency(z6, ConnectionFunction.delta(z6, [1, 5]))
        assert m == IntMatrix.from_rows(
            [[1 if (a - b) % 6 in (1, 5) else 0 for b in range(6)] for a in range(6)]
        )

    def test_q8_matching(self, groups):
        q8 = groups["Q8"]
        minus_one = next(x for x in q8.elements() if q8.ord[x] == 2)
        rep = spectrum_matrix(q8, ConnectionFunction.delta(q8, [minus_one]))
        assert rep.integer_eigenvalues == ((1, 4), (-1, 4))

    def test_alpha_row_sums(self, groups):
        m = adjacency(groups["S3"], ConnectionFunction(groups["S3"], ALPHA))
        assert [sum(r) for r in m.entries] == [16] * 6
        assert m.trace() == 0
        assert m.is_symmetric()


class TestMatrixSpectra:
    def test_gamma_alpha(self, groups):
        rep = spectrum_matrix(groups["S3"], ConnectionFunction(groups["S3"], ALPHA))
        assert not rep.is_integral
        assert rep.integer_eigenvalues == ((16, 1), (-12, 1))
        assert rep.residual == power(IntPolynomial((-12, 2, 1)), 2)

    def test_gamma_beta(self, groups):
        rep = spectrum_matrix(groups["Dic12"], ConnectionFunction(groups["Dic12"], BETA))
        assert not rep.is_integral
        assert rep.integer_eigenvalues == ((48, 1), (4, 2), (0, 1), (-14, 4))
        assert rep.residual == power(IntPolynomial((-12, 0, 1)), 2)

    def test_zero_function(self, groups):
        q8 = groups["Q8"]
        rep = spectrum_matrix(q8, ConnectionFunction(q8, [0] * 8))
        assert rep.is_integral and rep.integer_eigenvalues == ((0, 8),)

    def test_rejects_asymmetric(self, groups):
        dic = groups["Dic12"]
        vals = [0] * 12
        vals[1] = 1  # a but not a^-1
        with pytest.raises(NotSymmetricFunction):
            spectrum_matrix(dic, ConnectionFunction(dic, vals))

    def test_trace_consistency(self, groups):
        # eigenvalue sum equals n * f(identity)
        rng = random.Random(7)
        for label in ("S3", "Q8", "Dic12"):
            g = groups[label]
            pair_value = {min(x, g.inv[x]): rng.randint(-5, 5) for x in g.elements()}
            f = ConnectionFunction(g, [pair_value[min(x, g.inv[x])] for x in g.elements()])
            rep = spectrum_matrix(g, f)
            assert eigenvalue_sum(rep) == g.n * f.values[0]

    def test_diagonal_shift(self, groups):
        g = groups["Q8"]
        base = ConnectionFunction.delta(g, [1, 3, 2])
        shifted_vals = list(base.values)
        shifted_vals[0] += 5
        shifted = ConnectionFunction(g, shifted_vals)
        a = spectrum_matrix(g, base)
        b = spectrum_matrix(g, shifted)
        assert b.integer_eigenvalues == tuple((v + 5, m) for v, m in a.integer_eigenvalues)
        assert a.is_integral == b.is_integral


class TestMatrixSpectraAgainstHessenberg:
    """`spectrum_matrix` runs on the power-sum engine; its report must equal
    the one the Hessenberg kernel's charpoly gives."""

    @staticmethod
    def check(g, f) -> None:
        m = adjacency(g, f)
        assert spectrum_matrix(g, f) == integer_spectrum(charpoly(m), bound=m.gershgorin_bound())

    @given(small_products(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_products_and_relabellings_every_kind(self, g, seed):
        rng = random.Random(seed)
        part = conjugacy_classes(g)
        for kind in FUNCTION_KINDS:
            self.check(g, ConnectionFunction(g, colour_function(kind, g, part, rng)))

    @pytest.mark.parametrize("label", ["D8", "A5", "S5"])
    def test_medium_groups(self, groups, partitions, label):
        # on S5 (n = 120), the kind of the CCI witness search's candidates only
        g, part = groups[label], partitions[label]
        rng = random.Random(label)
        for kind in ("colour",) if label == "S5" else FUNCTION_KINDS:
            self.check(g, ConnectionFunction(g, colour_function(kind, g, part, rng)))


@given(
    perm_generators(),
    st.sampled_from(["set01", "colour", "signed"]),
    st.sampled_from(["class01", "classint"]),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_permutation_groups_spectra_match_oracles(gens, kind, class_kind, seed):
    # groups of order at most 48 read through the `perms` file form: the
    # power-sum engine against Berkowitz on a symmetric colour function, and
    # the matrix spectrum of a class function against the power-map criterion
    n = len(perm_closure_table(gens))
    assume(n <= 48)
    g = load_perm_group(gens, n)
    part = conjugacy_classes(g)
    rng = random.Random(seed)
    m = adjacency(g, ConnectionFunction(g, colour_function(kind, g, part, rng)))
    assert cayley_charpoly(m) == berkowitz(m)
    f = ConnectionFunction(g, colour_function(class_kind, g, part, rng))
    assert spectrum_matrix(g, f).is_integral == integrality_by_criterion(g, f, part)[0]


class TestCharacterRoute:
    def test_trivial_character_gives_set_size(self, groups, tables, partitions):
        g, t, part = groups["S4"], tables["S4"], partitions["S4"]
        s = [x for x in g.elements() if g.ord[x] == 2]
        f = ConnectionFunction.delta(g, s)
        pairs = spectrum_characters(g, f, t)
        one = (1,) + (0,) * (t.coeffs.shape[2] - 1)  # coordinates of 1 in Z[zeta_e]
        row_idx = next(r for r in range(t.k) if all(tuple(v) == one for v in t.coeffs[r].tolist()))
        assert pairs[row_idx][0] == (len(s),) + one[1:]

    def test_triangle(self):
        z3 = catalog("cyclic", 3)
        t = __import__("cayint.chartable", fromlist=["character_table"]).character_table(z3)
        f = ConnectionFunction.delta(z3, [1, 2])
        pairs = spectrum_characters(z3, f, t)
        # coordinates over 1, zeta_3: every eigenvalue is rational
        assert sorted(lam for lam, _ in pairs) == [(-1, 0), (-1, 0), (2, 0)]

    def test_q8_pm_i(self, groups, tables):
        q8, t = groups["Q8"], tables["Q8"]
        f = ConnectionFunction.delta(q8, [1, 3])
        pairs = spectrum_characters(q8, f, t)
        # coordinates over 1, zeta_4: every eigenvalue is rational
        assert sorted(pairs) == [((-2, 0), 1), ((-2, 0), 1), ((0, 0), 4), ((2, 0), 1), ((2, 0), 1)]
        # and the matrix route sees the same multiset
        rep = spectrum_matrix(q8, f)
        assert rep.integer_eigenvalues == ((2, 2), (0, 4), (-2, 2))

    def test_multiplicities_sum_to_order(self, groups, tables):
        for label in ("S3", "Q8", "A4", "Dic12"):
            g = groups[label]
            f = ConnectionFunction.delta(g, [x for x in range(1, g.n) if g.ord[x] == 2])
            pairs = spectrum_characters(g, f, tables[label])
            assert sum(m for _, m in pairs) == g.n

    def test_rejects_non_class_function(self, groups, tables):
        with pytest.raises(NotAClassFunction):
            spectrum_characters(groups["S3"], ConnectionFunction(groups["S3"], ALPHA), tables["S3"])

    def test_rejects_table_with_indivisible_row_sum(self, groups, tables, partitions):
        # a hand-built table whose degree-2 row of S3 reads 1 at the transpositions:
        # the weighted sum 3 * 1 over that class is not divisible by the degree 2
        g, t, part = groups["S3"], tables["S3"], partitions["S3"]
        x = t.coeffs.copy()
        trans = part.class_of[next(y for y in g.elements() if g.ord[y] == 2)]
        assert t.degrees[2] == 2 and not x[2, trans].any()
        x[2, trans, 0] = 1
        bad = CharacterTable(g, part, t.conductor, t.prime, t.degrees, x)
        f = ConnectionFunction.delta(g, part.classes[trans])
        with pytest.raises(VerificationFailed):
            spectrum_characters(g, f, bad)

    def test_expand_character_poly(self):
        pairs = ((Cyclotomic.rational(2), 1), (Cyclotomic.rational(-1), 2))
        coeffs = expand_character_poly(pairs)
        assert [c.to_rational() for c in coeffs] == [int(c) for c in (IntPolynomial((-2, 1)) * power(IntPolynomial((1, 1)), 2)).coeffs]

    @pytest.mark.parametrize("label, count", [("S3", None), ("Q8xZ3", 16), ("Z5", None), ("Z12", None)])
    def test_integer_expansion_matches_cyclotomic(self, groups, tables, partitions, label, count):
        # the Cyclotomic product checks the integer one, on every 0/1 class function of S3
        # and on the first 16 of Q8xZ3, in the probe's order; on Z5 and Z12 the
        # eigenvalues are irrational, so products leave the power basis and are reduced
        g, t, part = groups[label], tables[label], partitions[label]
        orbits = part.real_classes
        for take in range(count or 1 << len(orbits)):
            class_values = [0] * part.k
            for i, orbit in enumerate(orbits):
                if take >> i & 1:
                    for j in orbit:
                        class_values[j] = 1
            pairs = spectrum_characters(g, ConnectionFunction.from_class_values(g, part, class_values), t)
            cyclotomic = [(Cyclotomic(t.conductor, lam), m) for lam, m in pairs]
            want = [c.lift(t.conductor).coeffs for c in expand_character_poly(cyclotomic)]
            assert expand_character_coeffs(pairs, t.conductor).tolist() == [list(c) for c in want]

    def test_dual_route_exhaustive_small(self, groups, tables, partitions):
        for label in ("S3", "Q8", "Z5", "Z12"):
            g, t, part = groups[label], tables[label], partitions[label]
            orbits = part.real_classes
            for take in range(1 << len(orbits)):
                class_values = [0] * part.k
                for i, orbit in enumerate(orbits):
                    if take >> i & 1:
                        for j in orbit:
                            class_values[j] = 1
                f = ConnectionFunction.from_class_values(g, part, class_values)
                assert routes_agree(g, f, t)


class TestCriterion:
    def test_exponent_four(self, groups):
        g = groups["Z2xZ4"]
        rng = random.Random(3)
        for _ in range(10):
            vals = [rng.randint(-9, 9) for _ in range(g.n)]
            f = ConnectionFunction(g, [vals[min(x, g.inv[x])] for x in g.elements()])
            ok, witness = integrality_by_criterion(g, f)
            assert ok and witness is None

    def test_z12_failure_witness(self):
        z12 = catalog("cyclic", 12)
        f = ConnectionFunction.delta(z12, [1, 11])
        ok, witness = integrality_by_criterion(z12, f)
        assert not ok
        assert witness == (1, 5)

    def test_constant_function(self, groups):
        g = groups["Dic12"]
        f = ConnectionFunction(g, [0] + [4] * (g.n - 1))
        ok, _ = integrality_by_criterion(g, f)
        assert ok

    def test_rejects_non_class(self, groups):
        with pytest.raises(NotAClassFunction):
            integrality_by_criterion(groups["S3"], ConnectionFunction(groups["S3"], ALPHA))

    def test_criterion_equals_matrix_integrality(self, groups, partitions):
        rng = random.Random(11)
        for label in ("Z6", "Z12", "S3", "Q8", "A4"):
            g, part = groups[label], partitions[label]
            for _ in range(25):
                class_values = [0] * part.k
                for orbit in part.real_classes:
                    v = rng.randint(-9, 9)
                    for j in orbit:
                        class_values[j] = v
                f = ConnectionFunction.from_class_values(g, part, class_values)
                ok, _ = integrality_by_criterion(g, f)
                assert ok == spectrum_matrix(g, f).is_integral


class TestEulerian:
    def test_single_atom(self, groups):
        for g in (groups["Q8"], groups["Dic12"]):
            from cayint.groups import atom

            a = atom(g, 1)
            ok, decomposition = eulerian_check(g, a.members)
            assert ok
            assert [d.members for d in decomposition] == [a.members]

    def test_z6_units(self):
        z6 = catalog("cyclic", 6)
        ok, decomposition = eulerian_check(z6, {1, 5})
        assert ok and len(decomposition) == 1

    def test_z12_offender(self):
        z12 = catalog("cyclic", 12)
        ok, offender = eulerian_check(z12, {1, 11})
        assert not ok
        assert offender.members == (1, 5, 7, 11)

    def test_godsil_spiga_on_normal_sets(self, groups, partitions, surveys):
        # Eulerian <=> integral over every union of real classes, certified
        for label, survey in surveys.items():
            assert survey.mismatches == () and not survey.undecided, f"mismatch on {label}"


class TestSerialization:
    def test_function_round_trip(self, groups, tmp_path):
        g = groups["Dic12"]
        f = ConnectionFunction(g, BETA)
        path = tmp_path / "beta.fn"
        save_function(f, path)
        f2 = load_function(path, g)
        assert f2.values == f.values

    def test_fixture_files_load(self, groups):
        from importlib import resources

        for name, label in (("alpha", "S3"), ("beta", "Dic12")):
            ref = resources.files("cayint").joinpath(f"fixtures/{name}.fn")
            with resources.as_file(ref) as path:
                f = load_function(path, groups[label])
            assert f.symmetric and not f.class_function

    def test_wrong_size_rejected(self, groups, tmp_path):
        path = tmp_path / "f.fn"
        path.write_text("f 3\n1 2 1\n")
        from cayint.catalog import ParseError

        with pytest.raises(ParseError):
            load_function(path, groups["Q8"])

    def test_parse_set(self, groups):
        s = parse_set_tokens("1,3", groups["Q8"])
        assert s.elements == frozenset({1, 3})
        with pytest.raises(ValueError):
            parse_set_tokens("1,99", groups["Q8"])
