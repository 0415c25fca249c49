"""Exact polynomial, spectrum, and cyclotomic arithmetic checks."""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from conftest import SMALL_CATALOG
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import berkowitz, integer_roots_scan

from cayint.chartable import _find_prime, class_matrices
from cayint.linalg import (
    Cyclotomic,
    IntMatrix,
    IntPolynomial,
    NotAUnit,
    NotRational,
    charpoly,
    charpoly_mod,
    cyclotomic_polynomial,
    euler_phi,
    integer_spectrum,
    squarefree_factorization,
)
from cayint.spectra import ConnectionFunction, adjacency


def circulant(n: int, offsets: set[int]) -> IntMatrix:
    return IntMatrix.from_rows(
        [[1 if (i - j) % n in offsets else 0 for j in range(n)] for i in range(n)]
    )


class TestCharpoly:
    def test_zero_matrix(self):
        p = charpoly(IntMatrix.from_rows([[0, 0, 0]] * 3))
        assert p == IntPolynomial((0, 0, 0, 1))

    def test_six_cycle(self):
        # eigenvalues 2 cos(pi k / 3): 2, 1, 1, -1, -1, -2
        p = charpoly(circulant(6, {1, 5}))
        assert p == IntPolynomial((-4, 0, 9, 0, -6, 0, 1))

    def test_five_cycle(self):
        # frozen from expanding (x - 2)(x^2 + x - 1)^2 symbolically
        p = charpoly(circulant(5, {1, 4}))
        assert p == IntPolynomial((-2, 5, 0, -5, 0, 1))
        expected = IntPolynomial((-2, 1)) * (IntPolynomial((-1, 1, 1)) ** 2)
        assert p == expected

    def test_empty_and_one(self):
        assert charpoly(IntMatrix.from_rows([])) == IntPolynomial((1,))
        assert charpoly(IntMatrix.from_rows([[7]])) == IntPolynomial((-7, 1))

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_independent_oracle(self, rows):
        ours = charpoly(IntMatrix.from_rows(rows))
        lam = sympy.symbols("lam")
        theirs = sympy.Matrix(rows).charpoly(lam).all_coeffs()
        assert list(reversed(ours.coeffs)) == [int(c) for c in theirs]

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_trace_and_determinant_coefficients(self, rows):
        m = IntMatrix.from_rows(rows)
        p = charpoly(m)
        n = m.n
        assert p.coeffs[n] == 1
        assert p.coeffs[n - 1] == -m.trace()
        det = int(sympy.Matrix(rows).det())
        assert p.coeffs[0] == (-1) ** n * det


# the multi-modular kernel's first prime: the largest prime below 2^26
FIRST_PRIME = sympy.prevprime(2**26)

ENTRIES = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-(2**70), max_value=2**70),
)


def square_matrices(max_n: int):
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def block_diagonal(*blocks: list[list[int]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at : at + len(row)] = row
        at += len(b)
    return rows


def _edge_matrices() -> list[list[list[int]]]:
    rng = random.Random(7)
    out = []
    for n in (1, 2, 3, 5, 8, 12):
        # strictly triangular: every pivot column is zero
        out.append([[rng.randint(-9, 9) if j > i else 0 for j in range(n)] for i in range(n)])
        out.append([[rng.randint(-9, 9) if j < i else 0 for j in range(n)] for i in range(n)])
        perm = list(range(n))
        rng.shuffle(perm)
        out.append([[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)])
        # multiples of the first prime vanish under it, but not under the others
        out.append([[FIRST_PRIME * rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        out.append(
            [[FIRST_PRIME * rng.randint(-3, 3) + (i == j) for j in range(n)] for i in range(n)]
        )
    out.append(block_diagonal([[0, 1], [1, 0]], [[0]], [[2, 3, 0], [0, 0, 1], [5, 0, 0]]))
    out.append(block_diagonal([[0] * 3] * 3, [[1, 2], [3, 4]], [[0] * 2] * 2))
    out.append(block_diagonal([[7]], [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[-7]]))
    return out


class TestCharpolyAgainstBerkowitz:
    """The multi-modular kernel must equal the Berkowitz oracle exactly."""

    @given(square_matrices(12))
    @settings(max_examples=150, deadline=None)
    def test_random_signed_matrices(self, rows):
        m = IntMatrix.from_rows(rows)
        assert charpoly(m) == berkowitz(m)

    @pytest.mark.parametrize("rows", _edge_matrices())
    def test_zero_pivots_and_prime_multiples(self, rows):
        m = IntMatrix.from_rows(rows)
        assert charpoly(m) == berkowitz(m)

    @pytest.mark.parametrize("d", [1, 3, 2**20, 2**61, 2**62, 2**100])
    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_scalar_matrix_meets_the_bound(self, n, d):
        # every coefficient of (x - d)^n reaches its Hadamard bound binom(n, k) d^k
        for s in (d, -d):
            m = IntMatrix.from_rows([[s if i == j else 0 for j in range(n)] for i in range(n)])
            assert charpoly(m) == IntPolynomial((-s, 1)) ** n == berkowitz(m)

    def test_colour_functions_on_small_catalog(self, groups):
        rng = random.Random(2024)
        for label, _ in SMALL_CATALOG:
            g = groups[label]
            for symmetric in (True, False):
                vals = [rng.randint(-9, 9) for _ in g.elements()]
                if symmetric:
                    vals = [vals[min(x, g.inv[x])] for x in g.elements()]
                m = adjacency(g, ConnectionFunction(g, vals))
                assert charpoly(m) == berkowitz(m), (label, vals)

    @given(square_matrices(10), st.sampled_from([7, 13, 97, 65537, 999983]))
    @settings(max_examples=80, deadline=None)
    def test_mod_p_kernel(self, rows, p):
        m = IntMatrix.from_rows(rows)
        assert charpoly_mod(m, p) == tuple(c % p for c in berkowitz(m).coeffs)

    def test_mod_p_kernel_on_class_matrices(self, groups, partitions):
        # the prime and the matrices the character tables split eigenspaces with
        for label, g in groups.items():
            p = _find_prime(g.exponent(), g.n, 1_000_000)
            for mat in class_matrices(g, partitions[label]):
                m = IntMatrix.from_rows(mat)
                assert charpoly_mod(m, p) == tuple(c % p for c in berkowitz(m).coeffs)

    def test_mod_p_rejects_unsafe_modulus(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            charpoly_mod(m, 2**26 + 15)


class TestIntegerSpectrum:
    def test_alpha_shaped_polynomial(self):
        # oracle: exact 6x6 charpoly of the S3 alpha adjacency matrix
        # (see test_spectra); expanded here from its known factors
        p = IntPolynomial((-16, 1)) * IntPolynomial((12, 1)) * (IntPolynomial((-12, 2, 1)) ** 2)
        rep = integer_spectrum(p)
        assert rep.integer_eigenvalues == ((16, 1), (-12, 1))
        assert rep.residual == IntPolynomial((-12, 2, 1)) ** 2
        assert not rep.is_integral

    def test_pure_power(self):
        rep = integer_spectrum(IntPolynomial((0, 0, 0, 1)))
        assert rep.integer_eigenvalues == ((0, 3),)
        assert rep.is_integral

    def test_beta_shaped_polynomial(self):
        p = (
            IntPolynomial((-48, 1))
            * (IntPolynomial((-4, 1)) ** 2)
            * IntPolynomial((0, 1))
            * (IntPolynomial((14, 1)) ** 4)
            * (IntPolynomial((-12, 0, 1)) ** 2)
        )
        rep = integer_spectrum(p)
        assert rep.integer_eigenvalues == ((48, 1), (4, 2), (0, 1), (-14, 4))
        assert rep.residual == IntPolynomial((-12, 0, 1)) ** 2
        assert not rep.is_integral

    def test_reconstruction_and_residual_has_no_integer_roots(self):
        p = IntPolynomial((-3, 1)) * IntPolynomial((5, 0, 1)) * IntPolynomial((-3, 1))
        rep = integer_spectrum(p)
        assert rep.reconstruct() == p
        assert rep.integer_eigenvalues == ((3, 2),)
        res = rep.residual
        for r in range(-10, 11):
            assert res(r) != 0

    def test_bound_path_equals_divisor_path(self):
        p = IntPolynomial((-6, 11, -6, 1))  # (x-1)(x-2)(x-3)
        assert integer_spectrum(p).integer_eigenvalues == ((3, 1), (2, 1), (1, 1))
        assert integer_spectrum(p, bound=3).integer_eigenvalues == ((3, 1), (2, 1), (1, 1))

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            integer_spectrum(IntPolynomial((1, 2)))

    @given(
        st.lists(st.integers(min_value=-40, max_value=40), max_size=6),
        st.lists(
            st.tuples(st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20)),
            max_size=2,
        ),
        st.integers(min_value=40, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_large_bound_matches_unfiltered_scan(self, roots, quads, bound):
        p = IntPolynomial((1,))
        for r in roots:
            p = p * IntPolynomial((-r, 1))
        for b, c in quads:
            p = p * IntPolynomial((c, b, 1))
        rep = integer_spectrum(p, bound=bound)
        assert rep.integer_eigenvalues == integer_roots_scan(p, bound)
        assert rep.reconstruct() == p

    def test_gershgorin_bound_far_above_the_roots(self):
        # a bound of 20000 against roots of size at most 360: most candidates
        # do not divide the constant term and are skipped
        p = (
            IntPolynomial((-360, 1))
            * IntPolynomial((360, 1))
            * (IntPolynomial((-1, 1)) ** 3)
            * IntPolynomial((0, 1))
            * IntPolynomial((-7, 0, 1))
        )
        rep = integer_spectrum(p, bound=20000)
        assert rep.integer_eigenvalues == integer_roots_scan(p, 20000)
        assert rep.integer_eigenvalues == ((360, 1), (1, 3), (0, 1), (-360, 1))
        assert rep.residual == IntPolynomial((-7, 0, 1))


class TestSquarefree:
    def test_structure(self):
        p = (IntPolynomial((-12, 2, 1)) ** 2) * IntPolynomial((1, 1))
        fac = squarefree_factorization(p)
        assert fac == ((IntPolynomial((1, 1)), 1), (IntPolynomial((-12, 2, 1)), 2))

    def test_squarefree_input(self):
        p = IntPolynomial((-12, 2, 1))
        assert squarefree_factorization(p) == ((p, 1),)

    @given(
        st.dictionaries(st.integers(-20, 20), st.integers(1, 3), max_size=4),
        st.dictionaries(
            st.integers(-30, 30).filter(lambda k: k < 0 or isqrt(k) ** 2 != k),
            st.integers(1, 3),
            max_size=3,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_recovers_known_parts(self, roots, quads):
        # distinct x - r and irreducible x^2 - k are squarefree and pairwise
        # coprime, so the part of multiplicity i is the product of those given i
        parts = {i: IntPolynomial((1,)) for i in (1, 2, 3)}
        for r, i in roots.items():
            parts[i] = parts[i] * IntPolynomial((-r, 1))
        for k, i in quads.items():
            parts[i] = parts[i] * IntPolynomial((-k, 0, 1))
        p = IntPolynomial((1,))
        for i, q in parts.items():
            p = p * q**i
        want = tuple((q, i) for i, q in parts.items() if q.degree > 0)
        assert squarefree_factorization(p) == want


class TestCyclotomic:
    def test_phi_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_zeta3_relation(self):
        z = Cyclotomic.zeta(3)
        assert (z + Cyclotomic.zeta(3, 2)).to_rational() == -1

    def test_conj_zeta4(self):
        z = Cyclotomic.zeta(4)
        assert z.conj() == -z

    def test_golden_ratio_not_rational(self):
        v = Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4)
        assert not v.is_rational()
        with pytest.raises(NotRational):
            v.to_rational()

    def test_galois_moves_golden_ratio(self):
        v = Cyclotomic.zeta(5) + Cyclotomic.zeta(5, 4)
        w = v.galois(2)
        assert w == Cyclotomic.zeta(5, 2) + Cyclotomic.zeta(5, 3)
        assert w != v

    def test_galois_identity_and_unit_check(self):
        v = Cyclotomic.zeta(12, 5) + 3
        assert v.galois(1) == v
        with pytest.raises(NotAUnit):
            v.galois(4)

    def test_conductor_coercion(self):
        z6 = Cyclotomic.zeta(6)
        z3 = Cyclotomic.zeta(3)
        # zeta6 = -zeta3^2
        assert z6 == -(z3 * z3)
        assert (z6 * z3).e == 6

    def test_full_orbit_sum_is_rational(self):
        from math import gcd

        for e in (5, 7, 8, 12):
            z = Cyclotomic.zeta(e)
            total = Cyclotomic.rational(0)
            for h in range(1, e):
                if gcd(h, e) == 1:
                    total = total + z.galois(h)
            assert total.is_rational()

    @given(st.integers(min_value=1, max_value=15), st.integers(), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_galois_composition(self, e, h1, h2):
        from math import gcd

        units = [h for h in range(1, e + 1) if gcd(h, e) == 1]
        a, b = units[h1 % len(units)], units[h2 % len(units)]
        v = Cyclotomic.zeta(e) + Fraction(1, 3) * Cyclotomic.zeta(e, min(2, e - 1))
        assert v.galois(a).galois(b) == v.galois(a * b % e if e > 1 else 1)

    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_ring_axioms_on_powers(self, e, ks):
        a = Cyclotomic.zeta(e, ks[0] % e)
        b = Cyclotomic.zeta(e, ks[1] % e) + 2
        c = Cyclotomic.zeta(e, ks[2] % e) - 1
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)

    def test_conj_is_involutive_automorphism(self):
        a = Cyclotomic.zeta(12, 7) + Fraction(2, 5)
        b = Cyclotomic.zeta(12, 2) - 3
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()

    def test_euler_phi(self):
        assert [euler_phi(e) for e in (1, 2, 3, 4, 6, 12, 60)] == [1, 1, 2, 2, 2, 4, 16]
