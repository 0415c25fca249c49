"""Adjacency construction, dual-route spectra, criterion, Eulerian sets,
and the spectral engines against their oracles on hypothesis-generated
permutation groups."""

from __future__ import annotations

import random
from itertools import islice
from math import gcd

import numpy as np
import pytest
from conftest import (
    FUNCTION_KINDS,
    MEDIUM_EXTRA,
    SMALL_CATALOG,
    colour_function,
    load_perm_group,
    perm_generators,
    small_products,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle import (
    Cyclotomic,
    NotAClassFunction,
    berkowitz,
    eigenvalue_sum,
    eulerian_check,
    expand_character_coeffs,
    expand_character_poly,
    from_class_values,
    integrality_by_criterion,
    is_normal_set,
    newton_report,
    perm_closure_table,
    power,
    routes_agree,
    save_function,
    spectrum_characters,
)

from cayint import linalg
from cayint.catalog import catalog
from cayint.chartable import CharacterTable, VerificationFailed
from cayint.classify import cci_report
from cayint.groups import build_group, class_count, conjugacy_classes, conjugation_invariant
from cayint.linalg import (
    IntMatrix,
    IntPolynomial,
    SpectrumReport,
    cayley_charpoly,
    charpoly,
    integer_spectrum,
    minpoly_spectrum,
    squarefree_factorization,
)
from cayint.spectra import (
    ConnectionFunction,
    ConnectionSet,
    NotSymmetricFunction,
    adjacency,
    load_function,
    pair_quotient,
    parse_set_tokens,
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
        g = from_class_values(s3, partitions["S3"], [0, 2, -3])
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


def check_minpoly_read_out(g, f) -> SpectrumReport:
    """The minimal-polynomial read-out, forced on f whatever its degree
    bound, must give the Newton read-out's report (`oracle.newton_report`)
    and the squarefree parts of that report's residual."""

    def no_newton(m):
        raise AssertionError("the Newton read-out ran")

    want = newton_report(g, f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("cayint.spectra._MINPOLY_SHARE", 0)
        mp.setattr("cayint.spectra.cayley_charpoly", no_newton)
        got = spectrum_matrix(g, f)
    assert got == want
    assert got.residual_factors() == (squarefree_factorization(want.residual) if want.residual.degree > 0 else ())
    return got


class TestMatrixSpectraAgainstHessenberg:
    """`spectrum_matrix` runs on the power-sum engine; its report must equal
    the one the Hessenberg kernel's charpoly gives, and so must the
    minimal-polynomial read-out's, forced."""

    @staticmethod
    def check(g, f) -> None:
        m = adjacency(g, f)
        assert spectrum_matrix(g, f) == integer_spectrum(charpoly(m), bound=m.gershgorin_bound())
        check_minpoly_read_out(g, f)

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
    # power-sum engine against Berkowitz on a symmetric colour function, the
    # matrix spectrum of a class function against the power-map criterion,
    # and the minimal-polynomial read-out, forced, against the Newton one on both
    n = len(perm_closure_table(gens))
    assume(n <= 48)
    g = load_perm_group(gens, n)
    part = conjugacy_classes(g)
    rng = random.Random(seed)
    colour = ConnectionFunction(g, colour_function(kind, g, part, rng))
    m = adjacency(g, colour)
    assert cayley_charpoly(m) == berkowitz(m)
    f = ConnectionFunction(g, colour_function(class_kind, g, part, rng))
    assert spectrum_matrix(g, f).is_integral == integrality_by_criterion(g, f, part)[0]
    for h in (colour, f):
        check_minpoly_read_out(g, h)


class TestMinpolyReadOut:
    """The minimal-polynomial read-out of the Krylov sequence on the
    inverse-pair quotient (`linalg.minpoly_spectrum`) against the Newton
    read-out, its oracle, and the work it saves."""

    @pytest.mark.parametrize("kind", FUNCTION_KINDS)
    @pytest.mark.parametrize("label", [label for label, _ in SMALL_CATALOG + MEDIUM_EXTRA])
    def test_catalog_every_kind(self, groups, partitions, label, kind):
        g = groups[label]
        vals = colour_function(kind, g, partitions[label], random.Random(label + kind))
        check_minpoly_read_out(g, ConnectionFunction(g, vals))

    def test_zero_function_and_order_one(self, groups):
        # rho = 0: mu = x from the first prime alone
        for label, _ in SMALL_CATALOG + MEDIUM_EXTRA:
            g = groups[label]
            assert check_minpoly_read_out(g, ConnectionFunction(g, [0] * g.n)).integer_eigenvalues == ((0, g.n),)
        trivial = build_group([[0]])
        for v in (0, 7, -300):
            assert check_minpoly_read_out(trivial, ConnectionFunction(trivial, [v])).integer_eigenvalues == ((v, 1),)

    @pytest.mark.parametrize("label", ["S3", "Q8", "Dic12", "S4", "Q8xZ3", "A5"])
    def test_eigenvalue_zero(self, groups, partitions, label):
        # f(e) shifted so that an integer eigenvalue becomes 0, a root of mu at x = 0
        g = groups[label]
        rng = random.Random(label)
        for kind in ("colour", "signed", "classint"):
            vals = colour_function(kind, g, partitions[label], rng)
            lam = newton_report(g, ConnectionFunction(g, vals)).integer_eigenvalues[-1][0]
            vals[0] -= lam
            got = check_minpoly_read_out(g, ConnectionFunction(g, vals))
            assert 0 in dict(got.integer_eigenvalues)

    @pytest.mark.parametrize("label, scale", [("S3", 2**70), ("Q8", 2**40), ("A4", 2**26)])
    def test_minimal_polynomial_beyond_the_primes(self, groups, partitions, label, scale):
        # entries from the smallest prime up, Python ints from 2^62, are
        # reduced modulo each prime; mu is the charpoly's squarefree part and
        # s_k = (A^k)[0, 0], both exact (no root screen, whose range is rho)
        g = groups[label]
        rng = random.Random(label)
        vals = [v * scale + rng.randint(-9, 9) for v in colour_function("signed", g, partitions[label], rng)]
        f = ConnectionFunction(g, [vals[min(x, g.inv[x])] for x in g.elements()])
        a = adjacency(g, f)
        mu, s = linalg._minimal_polynomial(*pair_quotient(g, f), sum(map(abs, f.values)), 2)
        want = IntPolynomial((1,))
        for q, _ in squarefree_factorization(cayley_charpoly(a)):
            want = want * q
        assert IntPolynomial(tuple(mu)) == want
        rows = a.entries.astype(object)
        column = np.eye(g.n, dtype=np.int64)[:, 0].astype(object)
        for k, got in enumerate(s):
            assert got == column[0]
            column = rows @ column

    @pytest.mark.parametrize(
        "tokens, values, stages",
        [
            # Z2, f(1) = q0: the eigenvalues +-q0 meet mod the first prime q0,
            # so mu_q0 = x; q1 fails its certificate, and q2 starts afresh
            (("cyclic", 2), lambda q: [0, q[0]], [([0], 2), ([1], 1), ([2], 2), ([3, 4], 2)]),
            # Z2, f(1) = q1: they meet mod q1, a CRT prime, whose certified mu
            # has degree 1 < 2; q3 replaces it
            (("cyclic", 2), lambda q: [0, q[1]], [([0], 2), ([1, 2], 2), ([3], 2)]),
            # Z4, eigenvalues q0 + q1, 2, 2 and q1 - 3 q0: the first and last
            # meet mod q0, so the first prime finds degree 2; the first two
            # meet mod q1, which certifies degree 2 and is kept; q2 and then
            # q3 fail their certificates, and q3's batch, which keeps no
            # prime, restarts the search on q4
            (
                ("cyclic", 4),
                lambda q: [0, q[0], q[1] - q[0], q[0]],
                [([0], 3), ([1, 2], 2), ([3], 2), ([4], 3), ([5, 6, 7], 3)],
            ),
            # Z2^2, eigenvalues -77753, 36795 and 20479 twice, whose differences
            # are 4 * 7 * 4091, 2^3 * 3 * 4093 and 4 * 4079: each of q0, q1, q2
            # merges a different pair, so all three certify degree 2, and only
            # the coefficient bound rejects their lift
            (
                ("z2z4", 2, 0),
                lambda q: [0, -28637, -20479, -28637],
                [([0], 4), ([1, 2], 2), ([3], 4), ([4, 5, 6, 7], 3)],
            ),
        ],
    )
    def test_unlucky_primes_are_replaced(self, tokens, values, stages):
        # the primes are capped at 2^12, so that eigenvalues that meet modulo
        # a prime keep the integer root screen short; each stage is one call
        # of `_certified_minpolys`: its primes, by place in the stream, and steps
        g = catalog(*tokens)
        seen = []
        real = linalg._certified_minpolys

        def spy(quotient, weights, ps, steps):
            seen.append((ps.tolist(), steps))
            return real(quotient, weights, ps, steps)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_PRIME_CAP", 2**12)
            q = list(islice(linalg._prime_stream(2 * g.n + 1), 8))
            assert q[:3] == [4093, 4091, 4079]
            f = ConnectionFunction(g, values(q))
            mp.setattr(linalg, "_certified_minpolys", spy)
            got = minpoly_spectrum(*pair_quotient(g, f), sum(map(abs, f.values)), g.n)
        want = newton_report(g, f)
        assert got == want and got.residual_factors() == want.residual_factors()
        assert seen == [([q[i] for i in places], steps) for places, steps in stages]

    def test_uncertified_crt_prime_is_dropped(self):
        # S3 with f = 72 and 23 on two transpositions, 0 on the third, 2 on
        # the 3-cycles and 5 at e: the 2-dimensional block is 3 I + B with
        # B traceless and det B = -(72^2 - 72 * 23 + 23^2) = -4057, so mod
        # q1 = 4057 B is nilpotent and A has a Jordan block. There the
        # scalar sequence's minimal polynomial has degree 3 and the vector
        # sequence's 4 = deg mu_A: q1 fails its certificate though the first
        # prime is lucky, and is dropped, with no restart
        g = catalog("s3")
        transpositions = [x for x in g.elements() if g.ord[x] == 2]
        values = [5 if x == 0 else 2 for x in g.elements()]
        for x, v in zip(transpositions, (72, 23, 0)):
            values[x] = v
        f = ConnectionFunction(g, values)
        seen = []
        real = linalg._certified_minpolys

        def spy(quotient, weights, ps, steps):
            seen.append((ps.tolist(), steps))
            return real(quotient, weights, ps, steps)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_PRIME_CAP", 4074)
            q = list(islice(linalg._prime_stream(2 * g.n + 1), 4))
            assert q == [4073, 4057, 4051, 4049]
            mp.setattr(linalg, "_certified_minpolys", spy)
            got = minpoly_spectrum(*pair_quotient(g, f), sum(map(abs, f.values)), 4)
        want = newton_report(g, f)
        assert got == want and got.residual_factors() == want.residual_factors()
        assert seen == [([4073], 4), ([4057, 4051], 4), ([4049], 4)]

    @pytest.mark.parametrize("label", ["S3", "S4"])
    def test_search_ends_on_an_operator_of_no_cayley_graph(self, groups, partitions, label):
        # the weights of the pairs replaced by 1: no prime certifies, and the
        # restarts stop once they outnumber the unlucky primes a Cayley
        # colour graph's Hankel determinant can have
        g = groups[label]
        f = ConnectionFunction(g, colour_function("colour", g, partitions[label], random.Random(label)))
        quotient, weights = pair_quotient(g, f)
        with pytest.raises(ArithmeticError, match="restarts"):
            minpoly_spectrum(quotient, np.ones_like(weights), sum(f.values), len(weights))

    def test_s5_candidate_work(self, groups, partitions):
        # CCI's first candidate on S5: mu has degree 26 = sum chi(1); the
        # first prime runs D = isqrt(7 * 120) = 28 steps, then 13 primes 26,
        # where the Newton read-out runs 60 steps on 41 primes
        g = groups["S5"]
        calls: list[tuple[int, int]] = []
        real = linalg._krylov

        def spy(a, ps, steps):
            calls.append((len(ps), steps))
            return real(a, ps, steps)

        def no_count(g):
            raise AssertionError("k counted again; cci_report holds the partition")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_krylov", spy)
            mp.setattr("cayint.spectra.class_count", no_count)
            report = cci_report(g, partitions["S5"])
            assert report.candidates_tried == 1 and report.witness_found
            assert calls == [(1, 28), (13, 26)]
            calls.clear()
            cayley_charpoly(adjacency(g, ConnectionFunction(g, report.witness_values)))
            assert calls == [(41, 60)]

    def test_route_rule(self, groups, partitions):
        # 4 D <= n or n >= 96 takes the minimal polynomial: D = k for a
        # class function, min(m, isqrt(k n)) otherwise
        routes = []
        larger = {"Z95": ("cyclic", 95), "Z96": ("cyclic", 96), "D48": ("dihedral", 48)}

        def read_out(name, fn):
            def spy(*args):
                routes.append(name)
                return fn(*args)

            return spy

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cayint.spectra.minpoly_spectrum", read_out("minpoly", minpoly_spectrum))
            mp.setattr("cayint.spectra.cayley_charpoly", read_out("newton", cayley_charpoly))
            for label, kind, route in [
                ("S5", "colour", "minpoly"),  # D = min(73, 28), 112 <= 120
                ("S5", "classint", "minpoly"),  # D = k = 7
                ("A5", "classint", "minpoly"),  # D = 5, 20 <= 60
                ("A5", "colour", "newton"),  # D = min(38, 17), 68 > 60
                ("S4", "classint", "minpoly"),  # D = 5, 20 <= 24
                ("S4", "colour", "newton"),  # D = min(17, 10), 40 > 24
                ("Z12", "classint", "newton"),  # abelian: D = k = n
                ("Z96", "classint", "minpoly"),  # D = n, but n >= 96
                ("D48", "set01", "minpoly"),  # D = min(73, isqrt(27 * 96)) = 50, but n >= 96
                ("Z95", "classint", "newton"),
            ]:
                g = groups[label] if label in groups else catalog(*larger[label])
                routes.clear()
                part = partitions[label] if label in partitions else conjugacy_classes(g)
                spectrum_matrix(g, ConnectionFunction(g, colour_function(kind, g, part, random.Random(1))))
                assert routes == [route], (label, kind)


class TestPairQuotient:
    @pytest.mark.parametrize("label", ["S3", "Q8", "Dic12", "A4", "Q8xZ3"])
    def test_krylov_vectors_read_at_the_least_members(self, groups, partitions, label):
        g = groups[label]
        f = ConnectionFunction(g, colour_function("signed", g, partitions[label], random.Random(label)))
        quotient, weights = pair_quotient(g, f)
        firsts = [x for x in g.elements() if x <= g.inv[x]]
        assert weights.tolist() == [1 + (x != g.inv[x]) for x in firsts] and weights.sum() == g.n
        a = adjacency(g, f).entries
        full = np.eye(g.n, dtype=np.int64)[0]
        v = np.eye(len(firsts), dtype=np.int64)[0]
        for _ in range(4):
            assert (full[firsts] == v).all() and (full[list(g.inv)] == full).all()
            full, v = a @ full, v @ quotient

    def test_class_count_is_burnside(self, groups, partitions):
        for label, g in groups.items():
            assert class_count(g) == partitions[label].k


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
            pairs = spectrum_characters(g, from_class_values(g, part, class_values), t)
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
                f = from_class_values(g, part, class_values)
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
                f = from_class_values(g, part, class_values)
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
