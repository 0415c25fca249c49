"""Exact polynomial, spectrum, and cyclotomic arithmetic checks."""

from __future__ import annotations

import random
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
import sympy
from conftest import FUNCTION_KINDS, SMALL_CATALOG, colour_function, small_products
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    Cyclotomic,
    NotRational,
    berkowitz,
    integer_roots_scan,
    kernel_mod,
    massey_scalar,
    power,
    reconstruct,
    roots_mod_scan,
    rref_mod,
    squarefree_sympy,
)

from cayint import linalg
from cayint.chartable import _find_prime, class_matrices
from cayint.groups import build_group, conjugacy_classes
from cayint.linalg import (
    _SCREEN_PRIME,
    _STACK_CELLS,
    _context,
    _primes_for,
    IntMatrix,
    IntPolynomial,
    NotAUnit,
    cayley_charpoly,
    cayley_charpoly_mod,
    charpoly,
    charpoly_mod,
    cyclotomic_polynomial,
    eliminate_mod,
    integer_spectrum,
    integral_spectra,
    is_prime,
    primitive_root,
    roots_mod,
    squarefree_factorization,
)
from cayint.spectra import ConnectionFunction, adjacency, adjacency_stack, spectrum_matrix


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
        expected = IntPolynomial((-2, 1)) * power(IntPolynomial((-1, 1, 1)), 2)
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
            assert charpoly(m) == power(IntPolynomial((-s, 1)), n) == berkowitz(m)

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
        stack = np.array(rows, dtype=object).reshape(1, m.n, m.n)
        assert charpoly_mod(stack, p)[0].tolist() == [c % p for c in berkowitz(m).coeffs]

    def test_mod_p_kernel_on_class_matrices(self, groups, partitions):
        # the prime and the matrices the character tables split eigenspaces with
        for label, g in groups.items():
            p = _find_prime(g.exponent(), g.n, 1_000_000)
            mats = class_matrices(g, partitions[label])
            want = [[c % p for c in berkowitz(IntMatrix.from_rows(mat)).coeffs] for mat in mats]
            assert charpoly_mod(np.stack(mats), p).tolist() == want

    def test_mod_p_rejects_unsafe_modulus(self):
        with pytest.raises(ValueError):
            charpoly_mod(np.array([[[1, 2], [3, 4]]]), 2**26 + 15)


class TestCharpolysBatch:
    """`charpoly`, one `charpoly_mod` per prime and a CRT lift, equals
    Berkowitz on each matrix of a batch, whatever the sizes and magnitudes;
    `charpoly_mod` on a stack equals Berkowitz mod p on each matrix, across
    stack boundaries."""

    @staticmethod
    def check(batch: list[IntMatrix]) -> None:
        assert [charpoly(m) for m in batch] == [berkowitz(m) for m in batch]

    @staticmethod
    def check_stacked(batch: list[IntMatrix], p: int) -> None:
        for n in {m.n for m in batch}:
            same = [m for m in batch if m.n == n]
            got = charpoly_mod(np.stack([m.entries for m in same]), p).tolist()
            assert got == [[c % p for c in berkowitz(m).coeffs] for m in same]

    @given(st.lists(square_matrices(6), max_size=12), st.integers(min_value=1, max_value=80))
    @settings(max_examples=80, deadline=None)
    def test_mixed_batches_across_small_stacks(self, batch, cells):
        # a cap of a few cells puts one or a few matrices in each stack
        mats = [IntMatrix.from_rows(rows) for rows in batch]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cayint.linalg._STACK_CELLS", cells)
            self.check(mats)
            self.check_stacked(mats, FIRST_PRIME)
            self.check_stacked(mats, 7)

    def test_edge_shapes_and_wide_entries(self):
        mats = [IntMatrix.from_rows(rows) for rows in _edge_matrices()]
        mats += [
            IntMatrix.from_rows([]),
            IntMatrix.from_rows([[0]]),
            IntMatrix.from_rows([[-(2**63)]]),
            IntMatrix.from_rows([[0] * 4] * 4),
            IntMatrix.from_rows([[2**62, 1], [-1, 2**62]]),
            IntMatrix.from_rows([[2**70 * (i == j) - 5 for j in range(3)] for i in range(3)]),
            IntMatrix.from_rows([]),
        ]
        assert any(m.entries.dtype == object for m in mats)
        self.check(mats)
        self.check_stacked([m for m in mats if m.n], FIRST_PRIME)

    def test_batch_beyond_one_stack(self):
        # 300 matrices of 15 x 15 fill several stacks at the default cap
        rng = random.Random(11)
        n = 15
        mats = [IntMatrix.from_rows([[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]) for _ in range(300)]
        assert len(mats) > _STACK_CELLS // (n * n)
        self.check_stacked(mats, FIRST_PRIME)
        self.check(mats[:5])


class TestCayleyCharpoly:
    """The power-sum engine must equal the Hessenberg kernel and the
    Berkowitz oracle on Cayley colour graph adjacency matrices, whatever the
    group, its labelling, the function kind and the magnitude of the values."""

    @staticmethod
    def check(m: IntMatrix) -> None:
        assert cayley_charpoly(m) == charpoly(m) == berkowitz(m)

    @pytest.mark.parametrize("kind", FUNCTION_KINDS)
    def test_every_kind_on_small_catalog(self, groups, partitions, kind):
        rng = random.Random(kind)
        for label, _ in SMALL_CATALOG:
            g, part = groups[label], partitions[label]
            vals = colour_function(kind, g, part, rng)
            self.check(adjacency(g, ConnectionFunction(g, vals)))

    @given(small_products(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    def test_products_and_relabellings_with_signed_values(self, g, seed):
        vals = colour_function("signed", g, conjugacy_classes(g), random.Random(seed))
        self.check(adjacency(g, ConnectionFunction(g, vals)))

    @pytest.mark.parametrize("scale", [2**26, 2**40, 2**62, 2**80])
    @pytest.mark.parametrize("label", ["S3", "Q8", "A4"])
    def test_values_beyond_the_smallest_prime(self, groups, label, scale):
        # from 2^26 the entries are reduced modulo each prime, and from 2^62
        # they are Python ints; a small stack puts a few primes in each chunk
        g = groups[label]
        rng = random.Random(scale)
        vals = colour_function("signed", g, conjugacy_classes(g), rng)
        vals = [v * scale + rng.randint(-9, 9) for v in vals]
        vals = [vals[min(x, g.inv[x])] for x in g.elements()]
        m = adjacency(g, ConnectionFunction(g, vals))
        assert m.entries.dtype == (object if scale >= 2**62 else np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cayint.linalg._STACK_CELLS", 3 * g.n * g.n)
            self.check(m)
        self.check(m)

    def test_order_one_and_the_zero_function(self, groups):
        trivial = build_group([[0]])
        for v in (0, 5, -(2**70)):
            m = adjacency(trivial, ConnectionFunction(trivial, [v]))
            assert cayley_charpoly(m) == IntPolynomial((-v, 1)) == berkowitz(m)
        for label, _ in SMALL_CATALOG:
            g = groups[label]
            m = adjacency(g, ConnectionFunction(g, [0] * g.n))
            assert cayley_charpoly(m) == IntPolynomial((0,) * g.n + (1,))
        assert cayley_charpoly(IntMatrix.from_rows([])) == IntPolynomial((1,))

    def test_rejects_non_symmetric_and_non_constant_diagonal(self, groups):
        with pytest.raises(ValueError, match="symmetric"):
            cayley_charpoly(IntMatrix.from_rows([[0, 1], [2, 0]]))
        with pytest.raises(ValueError, match="diagonal"):
            cayley_charpoly(IntMatrix.from_rows([[0, 1], [1, 3]]))
        g = groups["Dic12"]
        vals = [0] * g.n
        vals[1] = 1  # a but not a^-1
        with pytest.raises(ValueError, match="symmetric"):
            cayley_charpoly(adjacency(g, ConnectionFunction(g, vals)))


class TestIntegralSpectraOnCayleyStacks:
    """The one-prime decision on a stack of Cayley colour graph adjacency
    matrices must give every matrix's `spectrum_matrix` verdict, on any
    prime above n, also one so small that the candidates collide."""

    @staticmethod
    def stack_and_verdicts(g, part, kind, rng, count):
        values = np.array([colour_function(kind, g, part, rng) for _ in range(count)], dtype=np.int64)
        stack = adjacency_stack(g, values)
        want = []
        for row, m in zip(values.tolist(), stack):
            f = ConnectionFunction(g, row)
            assert adjacency(g, f) == IntMatrix(m)
            want.append(spectrum_matrix(g, f).is_integral)
        return stack, tuple(want)

    @pytest.mark.parametrize("kind", FUNCTION_KINDS)
    def test_matches_spectrum_matrix(self, groups, partitions, kind):
        rng = random.Random(f"stack:{kind}")
        seen = set()
        for label, _ in SMALL_CATALOG:
            g, part = groups[label], partitions[label]
            stack, want = self.stack_and_verdicts(g, part, kind, rng, 6)
            seen.update(want)
            bounds = np.abs(stack).sum(axis=1).max(axis=1).tolist()
            (big,), _ = _primes_for(g.n, max(bounds))
            least = sympy.nextprime(g.n)
            for p in (big, least):
                assert integral_spectra(stack, cayley_charpoly_mod(stack, p), bounds, p) == want, (label, p)
        if kind.endswith("01"):
            assert seen == {True, False}

    @given(small_products(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=20, deadline=None)
    def test_matches_on_products_with_the_least_prime(self, g, seed):
        part = conjugacy_classes(g)
        stack, want = self.stack_and_verdicts(g, part, "set01", random.Random(seed), 4)
        bounds = stack.sum(axis=1).max(axis=1).tolist()
        p = sympy.nextprime(g.n)
        assert integral_spectra(stack, cayley_charpoly_mod(stack, p), bounds, p) == want

    def test_residues_equal_the_exact_charpoly(self, groups, partitions):
        rng = random.Random(7)
        for label, _ in SMALL_CATALOG:
            g, part = groups[label], partitions[label]
            values = np.array([colour_function("signed", g, part, rng) for _ in range(3)], dtype=np.int64)
            stack = adjacency_stack(g, values)
            for p in (sympy.nextprime(g.n), _SCREEN_PRIME):
                got = cayley_charpoly_mod(stack, p)
                want = [[c % p for c in cayley_charpoly(IntMatrix(m)).coeffs] for m in stack]
                assert got.tolist() == want, (label, p)

    def test_rejects_a_prime_not_above_n(self, groups):
        g = groups["Z12"]
        stack = adjacency_stack(g, np.zeros((1, g.n), dtype=np.int64))
        with pytest.raises(ValueError, match="range"):
            cayley_charpoly_mod(stack, 11)


@st.composite
def massey_rows(draw):
    """A (k, T) stack of sequences, row i modulo ps[i]: each from a random
    recurrence of length 0 .. T on random initial terms, so that rows take
    their own lengths and branches, zero discrepancies included."""
    width, k = draw(st.integers(1, 14)), draw(st.integers(1, 4))
    rows, ps = [], []
    for _ in range(k):
        p = draw(st.sampled_from([2, 3, 5, 7, 4093, _SCREEN_PRIME]))
        order = draw(st.integers(0, width))
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=order, max_size=order))
        seq = draw(st.lists(st.integers(0, p - 1), min_size=order, max_size=order))
        while len(seq) < width:
            seq.append(-sum(c * seq[-1 - i] for i, c in enumerate(coeffs)) % p)
        rows.append(seq[:width])
        ps.append(p)
    return np.array(rows, dtype=np.int64), np.array(ps, dtype=np.int64)


class TestMassey:
    """`linalg._massey`, every row on its own branches in one pass, against
    Massey's scalar loop on each row (`oracle.massey_scalar`)."""

    @given(massey_rows())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_scalar_loop(self, rows_ps):
        seq, ps = rows_ps
        c, length = linalg._massey(seq, ps)
        width = seq.shape[1] + 1
        for row, p, got, got_length in zip(seq.tolist(), ps.tolist(), c.tolist(), length.tolist()):
            want, want_length = massey_scalar(row, p)
            assert got_length == want_length
            assert got == (want + [0] * width)[:width] and not any(want[width:])
            for r in range(got_length, len(row)):
                assert sum(got[i] * row[r - i] for i in range(got_length + 1)) % p == 0

    def test_known_lengths(self):
        # Fibonacci has length 2 (1 - z - z^2), a geometric sequence 1, a zero sequence 0
        p = 4093
        fib = [1, 1]
        while len(fib) < 10:
            fib.append((fib[-1] + fib[-2]) % p)
        seq = np.array([fib, [3**i % p for i in range(10)], [0] * 10], dtype=np.int64)
        c, length = linalg._massey(seq, np.full(3, p, dtype=np.int64))
        assert length.tolist() == [2, 1, 0]
        assert c[:, :3].tolist() == [[1, p - 1, p - 1], [1, p - 3, 0], [1, 0, 0]]


class TestIntMatrixDtype:
    """`IntMatrix.entries` is int64 below 2^62 in magnitude and Python ints
    otherwise, whatever numpy would have inferred; charpolys stay exact."""

    @staticmethod
    def check(m: IntMatrix, wide: bool) -> None:
        assert isinstance(m.entries, np.ndarray) and m.entries.ndim == 2
        assert m.entries.dtype == (object if wide else np.int64)
        assert not m.entries.flags.writeable
        if wide:
            assert all(type(x) is int for x in m.entries.flat)
        assert charpoly(m) == berkowitz(m)

    @pytest.mark.parametrize("values", [(-1, 2**63), (-(2**63),), (10**30,)])
    def test_colour_functions_beyond_int64(self, groups, values):
        # np.array([-1, 2**63]) is float64 and np.array([2**63]) uint64
        g = groups["S3"]
        vals = [values[min(x, g.inv[x]) % len(values)] for x in g.elements()]
        m = adjacency(g, ConnectionFunction(g, vals))
        self.check(m, wide=True)
        assert m.gershgorin_bound() == max(sum(abs(vals[g.mul(a, g.inv[b])]) for b in g.elements()) for a in g.elements())

    @pytest.mark.parametrize("big", [2**31, 2**62, 2**63])
    def test_entries_at_word_boundaries(self, big):
        rows = [[big, -1, 0, 1], [1, -big, big, 0], [0, big, 0, 2], [big, 0, 0, big]]
        for data in (rows, np.array(rows, dtype=object)):
            m = IntMatrix.from_rows(data)
            self.check(m, wide=big >= 2**62)
            assert m == IntMatrix(rows)
            assert m.trace() == big and type(m.trace()) is int
            assert m.gershgorin_bound() == 2 * big + 1 and type(m.gershgorin_bound()) is int
        if big < 2**63:
            self.check(IntMatrix(np.array(rows, dtype=np.int64)), wide=big >= 2**62)
        self.check(IntMatrix(np.array([[big, 1], [0, big]], dtype=np.uint64)), wide=big >= 2**62)

    def test_int64_sums_do_not_overflow(self):
        # every entry is int64, but a row sum and a sum of squares are not
        top = 2**62 - 1
        m = IntMatrix.from_rows([[top, top, -top], [top, 0, top], [1, 2, 3]])
        assert m.entries.dtype == np.int64
        assert m.gershgorin_bound() == 3 * top
        assert charpoly(m) == berkowitz(m)

    def test_rejects_non_square_and_non_integers(self):
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            IntMatrix(np.zeros((2, 3), dtype=np.int64))
        with pytest.raises(TypeError):
            IntMatrix(np.array([[0.5]]))
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1.0]])

    def test_equality_by_value(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert a == IntMatrix(np.array([[1, 2], [3, 4]], dtype=np.int32))
        assert a != IntMatrix.from_rows([[1, 2], [3, 5]])
        assert a != IntMatrix.from_rows([[1]])
        assert IntMatrix.from_rows([]) == IntMatrix(np.zeros((0, 0), dtype=np.int64))


class TestIntegerSpectrum:
    def test_alpha_shaped_polynomial(self):
        # oracle: exact 6x6 charpoly of the S3 alpha adjacency matrix
        # (see test_spectra); expanded here from its known factors
        p = IntPolynomial((-16, 1)) * IntPolynomial((12, 1)) * power(IntPolynomial((-12, 2, 1)), 2)
        rep = integer_spectrum(p, bound=16)
        assert rep.integer_eigenvalues == ((16, 1), (-12, 1))
        assert rep.residual == power(IntPolynomial((-12, 2, 1)), 2)
        assert not rep.is_integral

    def test_pure_power(self):
        rep = integer_spectrum(IntPolynomial((0, 0, 0, 1)), bound=0)
        assert rep.integer_eigenvalues == ((0, 3),)
        assert rep.is_integral

    def test_beta_shaped_polynomial(self):
        p = (
            IntPolynomial((-48, 1))
            * power(IntPolynomial((-4, 1)), 2)
            * IntPolynomial((0, 1))
            * power(IntPolynomial((14, 1)), 4)
            * power(IntPolynomial((-12, 0, 1)), 2)
        )
        rep = integer_spectrum(p, bound=48)
        assert rep.integer_eigenvalues == ((48, 1), (4, 2), (0, 1), (-14, 4))
        assert rep.residual == power(IntPolynomial((-12, 0, 1)), 2)
        assert not rep.is_integral

    def test_reconstruction_and_residual_has_no_integer_roots(self):
        p = IntPolynomial((-3, 1)) * IntPolynomial((5, 0, 1)) * IntPolynomial((-3, 1))
        rep = integer_spectrum(p, bound=10)
        assert reconstruct(rep) == p
        assert rep.integer_eigenvalues == ((3, 2),)
        res = rep.residual
        for r in range(-10, 11):
            assert res(r) != 0

    def test_bound_path_equals_divisor_path(self):
        p = IntPolynomial((-6, 11, -6, 1))  # (x-1)(x-2)(x-3)
        assert integer_spectrum(p, bound=3).integer_eigenvalues == ((3, 1), (2, 1), (1, 1))

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            integer_spectrum(IntPolynomial((1, 2)), bound=1)

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
        # modulo 5 a fifth of the points pass the screen, most of them not
        # roots: the exact division still decides each one
        for screen in (_SCREEN_PRIME, 5):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr("cayint.linalg._SCREEN_PRIME", screen)
                rep = integer_spectrum(p, bound=bound)
            assert rep.integer_eigenvalues == integer_roots_scan(p, bound)
            assert reconstruct(rep) == p

    def test_screen_prime_is_the_largest_below_the_cap(self):
        assert _SCREEN_PRIME == sympy.prevprime(2**26)

    @pytest.mark.parametrize("screen", [_SCREEN_PRIME, 5])
    def test_screen_across_chunks(self, screen):
        # a bound past _STACK_CELLS screens [-bound, bound] in several chunks;
        # the roots sit at the ends and on both sides of a chunk boundary
        bound = _STACK_CELLS + 1000
        edge = -bound + _STACK_CELLS
        roots = (bound, edge, edge - 1, 0, -bound)
        p = IntPolynomial((1,))
        for r in roots + (edge,):
            p = p * IntPolynomial((-r, 1))
        p = p * IntPolynomial((-7, 0, 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cayint.linalg._SCREEN_PRIME", screen)
            rep = integer_spectrum(p, bound=bound)
        assert rep.integer_eigenvalues == ((bound, 1), (0, 1), (edge, 2), (edge - 1, 1), (-bound, 1))
        assert rep.residual == IntPolynomial((-7, 0, 1))

    def test_gershgorin_bound_far_above_the_roots(self):
        # a bound of 20000 against roots of size at most 360: most candidates
        # do not divide the constant term and are skipped
        p = (
            IntPolynomial((-360, 1))
            * IntPolynomial((360, 1))
            * power(IntPolynomial((-1, 1)), 3)
            * IntPolynomial((0, 1))
            * IntPolynomial((-7, 0, 1))
        )
        rep = integer_spectrum(p, bound=20000)
        assert rep.integer_eigenvalues == integer_roots_scan(p, 20000)
        assert rep.integer_eigenvalues == ((360, 1), (1, 3), (0, 1), (-360, 1))
        assert rep.residual == IntPolynomial((-7, 0, 1))



def _pairs(owner: np.ndarray, x: np.ndarray) -> list[tuple[int, int]]:
    return list(zip(owner.tolist(), x.tolist()))


def _with_roots(roots: list[int], p: int) -> list[int]:
    """Ascending residues mod p of (x^2 + 1) times the product of x - r."""
    poly = IntPolynomial((1, 0, 1))
    for r in roots:
        poly = poly * IntPolynomial((-r, 1))
    return [c % p for c in poly.coeffs]


@st.composite
def _residue_rows(draw) -> tuple[int, np.ndarray, list[int], list[int]]:
    """A prime, a stack of rows of ascending residues of one degree, and each row's
    [lo, hi], possibly empty; a row is drawn at random or planted with
    roots in and around its range."""
    p = draw(st.sampled_from([_SCREEN_PRIME, 2, 3, 5, 7]))
    degree = draw(st.integers(0, 6))
    rows, lo, hi = [], [], []
    for _ in range(draw(st.integers(0, 5))):
        a, w = draw(st.integers(-40, 40)), draw(st.integers(0, 60))
        if degree >= 2 and draw(st.booleans()):
            roots = draw(st.lists(st.integers(a - 5, a + w + 5), min_size=degree - 2, max_size=degree - 2))
            rows.append(_with_roots(roots, p))
        else:
            rows.append(draw(st.lists(st.integers(0, p - 1), min_size=degree + 1, max_size=degree + 1)))
        lo.append(a)
        hi.append(a + w - 1)
    return p, np.array(rows, dtype=np.int64).reshape(len(rows), degree + 1), lo, hi


class TestRootsMod:
    @given(_residue_rows(), st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_matches_a_per_point_horner_loop(self, case, cells):
        # chunks of 1 to 40 points split the rows
        p, stack, lo, hi = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cayint.linalg._STACK_CELLS", cells)
            got = _pairs(*roots_mod(stack, lo, hi, p))
        assert got == roots_mod_scan(stack.tolist(), lo, hi, p)

    def test_no_rows(self):
        owner, x = roots_mod(np.zeros((0, 3), dtype=np.int64), [], [], _SCREEN_PRIME)
        assert owner.shape == x.shape == (0,)

    @pytest.mark.parametrize("p", [_SCREEN_PRIME, 5])
    def test_negative_lo_and_a_split_row(self, p):
        # three rows laid end to end over chunks of 7 points
        coeffs = [_with_roots(roots, p) for roots in ([-9, -3, 2], [0, 4, 5], [-20])]
        lo, hi = [-10, 0, -25], [3, 9, -15]
        stack = np.array([row + [0] * (6 - len(row)) for row in coeffs], dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("cayint.linalg._STACK_CELLS", 7)
            got = _pairs(*roots_mod(stack, lo, hi, p))
        assert got == roots_mod_scan(coeffs, lo, hi, p)
        if p == _SCREEN_PRIME:  # x^2 + 1 has no root mod a prime = 3 (mod 4)
            assert got == [(0, -9), (0, -3), (0, 2), (1, 0), (1, 4), (1, 5), (2, -20)]

    @pytest.mark.parametrize("p", [_SCREEN_PRIME, 5])
    def test_row_wider_than_one_chunk(self, p):
        # one row over [-_STACK_CELLS, _STACK_CELLS] takes three chunks, the
        # first ending at -1, and a second row starts inside the last one
        roots = [-_STACK_CELLS, -1, 0, 17, _STACK_CELLS]
        coeffs = [_with_roots(roots, p), _with_roots([3], p)]
        lo, hi = [-_STACK_CELLS, 0], [_STACK_CELLS, 5]
        stack = np.array([row + [0] * (len(coeffs[0]) - len(row)) for row in coeffs], dtype=np.int64)
        got = _pairs(*roots_mod(stack, lo, hi, p))
        assert got == roots_mod_scan(coeffs, lo, hi, p)
        if p == _SCREEN_PRIME:
            assert got == [(0, r) for r in sorted(roots)] + [(1, 3)]

MONIC = st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=6).map(lambda c: IntPolynomial((*c, 1)))


@st.composite
def powers_products(draw):
    """Pairs (q, i) of random monic factors of degree 1-6 and multiplicities
    1-5, some factors drawn twice, so that their parts merge."""
    pairs = draw(st.lists(st.tuples(MONIC, st.integers(1, 5)), min_size=1, max_size=3))
    repeats = draw(st.lists(st.sampled_from([q for q, _ in pairs]), max_size=2))
    return pairs + [(q, draw(st.integers(1, 5))) for q in repeats]


@contextmanager
def counted_gcd():
    """`linalg._gcd_cofactors` with the base of every round recorded (0 for
    the default first base), and failing above 2^16 bits, so that a retry
    loop that never certifies a candidate fails instead of hanging."""
    bases: list[int] = []
    inner = linalg._gcd_cofactors

    def counted(a, b, k=0):
        bases.append(k)
        if k > 2**16:
            raise AssertionError(f"no gcd certified below base 2^{k}")
        return inner(a, b, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_gcd_cofactors", counted)
        yield bases


def rebuild(parts) -> IntPolynomial:
    out = IntPolynomial((1,))
    for q, i in parts:
        out = out * power(q, i)
    return out


class TestSquarefree:
    """Musser's loop over heuristic gcds against sympy's decomposition,
    `oracle.squarefree_sympy`."""

    def check(self, p: IntPolynomial) -> tuple[tuple[IntPolynomial, int], ...]:
        with counted_gcd():
            got = squarefree_factorization(p)
        assert got == squarefree_sympy(p)
        assert rebuild(got) == p
        return got

    def test_structure(self):
        p = power(IntPolynomial((-12, 2, 1)), 2) * IntPolynomial((1, 1))
        fac = self.check(p)
        assert fac == ((IntPolynomial((1, 1)), 1), (IntPolynomial((-12, 2, 1)), 2))

    def test_squarefree_input(self):
        p = IntPolynomial((-12, 2, 1))
        assert self.check(p) == ((p, 1),)

    @pytest.mark.parametrize("p", [IntPolynomial((5, 1)), IntPolynomial((0, 1)), IntPolynomial((-(2**70), 1))])
    def test_degree_one(self, p):
        assert self.check(p) == ((p, 1),)

    @pytest.mark.parametrize(
        "q, i", [(IntPolynomial((0, 1)), 5), (IntPolynomial((-12, 2, 1)), 4), (IntPolynomial((3, -(2**40), 0, 1)), 3)]
    )
    def test_perfect_power(self, q, i):
        assert self.check(power(q, i)) == ((q, i),)

    def test_constant_and_requires_monic(self):
        assert squarefree_factorization(IntPolynomial((1,))) == ()
        with pytest.raises(ValueError):
            squarefree_factorization(IntPolynomial((1, 2)))

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
        p = rebuild((q, i) for i, q in parts.items())
        want = tuple((q, i) for i, q in parts.items() if q.degree > 0)
        assert self.check(p) == want

    @given(powers_products())
    @settings(max_examples=60, deadline=None)
    def test_products_of_powers_match_sympy(self, pairs):
        got = self.check(rebuild(pairs))
        assert all(q.is_monic for q, _ in got)

    def test_cofactors_even_at_every_integer(self):
        # x(x+1) and x^2 + x + 2 are coprime but even at every integer: the
        # primitive-part step drops the 2 at once
        a, b = [0, 1, 1], [2, 1, 1]
        with counted_gcd() as bases:
            assert linalg._gcd_cofactors(a, b) == ([1], a, b)
        assert bases == [0]
        # times x + 100, from a first base 2^8 (still above twice the least
        # height, 101): the digits of 2 (x + 100) overflow at 2^8, so the
        # first candidate fails, and the round at 2^16 finds x + 100
        g = IntPolynomial((100, 1))
        ga, gb = (list((g * IntPolynomial(tuple(c))).coeffs) for c in (a, b))
        with counted_gcd() as bases:
            assert linalg._gcd_cofactors(ga, gb, 8) == ([100, 1], a, b)
        assert bases == [8, 16]

    def test_retry_from_the_default_base(self):
        # x - 4 and x + 8 are both 0 mod 12 at 2^8, the first base for
        # (x + 11)(x - 4) and (x + 11)(x + 8): 12 (x + 11) overflows there
        ga, gb = [-44, 7, 1], [88, 19, 1]
        with counted_gcd() as bases:
            assert linalg._gcd_cofactors(ga, gb) == ([11, 1], [-4, 1], [8, 1])
        assert bases == [0, 16]

    def test_quotient_refuses_a_candidate_that_divides_neither(self):
        # at 2^8 the digits of gcd((x + 11)(x - 4), (x + 11)(x + 8)) read
        # 13x - 124, which divides neither; `_quotient` refuses it
        pa, pb = (sum(c << 8 * i for i, c in enumerate(x)) for x in ([-44, 7, 1], [88, 19, 1]))
        pg = 13 * 2**8 - 124
        assert linalg._quotient(pa, pg, [-44, 7, 1], [-124, 13], 8) is None
        assert linalg._quotient(pb, pg, [88, 19, 1], [-124, 13], 8) is None


class TestPrimeHelpers:
    """`is_prime` and `primitive_root`, which serve every prime below 2^26,
    against sympy."""

    def test_is_prime_below_2_16(self):
        assert [n for n in range(2**16) if is_prime(n)] == list(sympy.primerange(2**16))

    def test_is_prime_at_random_below_2_26(self):
        rng = random.Random(26)
        for n in [rng.randrange(2**26) for _ in range(50_000)]:
            assert is_prime(n) == sympy.isprime(n), n

    def test_is_prime_on_squares_of_the_largest_trial_divisors(self):
        # the composites below 2^26 whose least factor is largest
        for q in sympy.primerange(8000, 2**13):
            assert not is_prime(q * q), q
        assert is_prime(_SCREEN_PRIME)

    @pytest.mark.parametrize("n", [-1, 2**26, 2**26 + 1])
    def test_is_prime_rejects_what_it_cannot_decide(self, n):
        with pytest.raises(ValueError):
            is_prime(n)

    def test_primitive_root_below_3000(self):
        for p in sympy.primerange(3000):
            assert primitive_root(p) == sympy.primitive_root(p), p

    def test_primitive_root_near_2_26(self):
        p = 2**26
        for _ in range(300):
            p = sympy.prevprime(p)
            assert primitive_root(p) == sympy.primitive_root(p), p


class TestCyclotomic:
    def test_phi_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_against_sympy(self):
        x = sympy.Symbol("x")
        for e in [*range(1, 601), 2310, 5040]:
            want = tuple(int(c) for c in reversed(sympy.cyclotomic_poly(e, x, polys=True).all_coeffs()))
            got = cyclotomic_polynomial(e)
            assert got == want and all(type(c) is int for c in got), e

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

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=59),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=60, max_size=60),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=60, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_maps_match_cyclotomic_arithmetic(self, e, h, a, b):
        # conj, Galois and product reduction as integer matrices on coefficient rows
        from math import gcd

        ctx = _context(e)
        phi = ctx.phi
        x, y = np.array(a[:phi]), np.array(b[:phi])
        u, v = Cyclotomic(e, a[:phi]), Cyclotomic(e, b[:phi])
        assert Cyclotomic(e, (x @ ctx.conj_map).tolist()) == u.conj()
        if gcd(h, e) == 1:
            assert Cyclotomic(e, (x @ ctx.galois_map(h)).tolist()) == u.galois(h)
        else:
            with pytest.raises(NotAUnit):
                ctx.galois_map(h)
        assert Cyclotomic(e, (np.convolve(x, y) @ ctx.power_array[: 2 * phi - 1]).tolist()) == u * v


@st.composite
def residue_stacks(draw):
    """A prime and a (b, r, c) stack of residues mod it, each matrix a
    product (r x t)(t x c) of random residues, so its rank is at most t:
    zero, 1 x 1, wide, tall and mixed-rank matrices all come up."""
    p = draw(st.sampled_from([2, 3, 7, 61, 241]))
    b, r, c = draw(st.integers(1, 4)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    mats = []
    for _ in range(b):
        t = draw(st.integers(0, 6))
        left = draw(st.lists(st.integers(0, p - 1), min_size=r * t, max_size=r * t))
        right = draw(st.lists(st.integers(0, p - 1), min_size=t * c, max_size=t * c))
        mats.append(np.array(left, dtype=np.int64).reshape(r, t) @ np.array(right, dtype=np.int64).reshape(t, c) % p)
    return p, np.array(mats, dtype=np.int64).reshape(b, r, c)


class TestEliminateMod:
    """The stacked elimination against the pure-Python oracle: the reduced
    row echelon form is unique, so rank, pivots, rows and kernel all match."""

    @given(residue_stacks())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle(self, case):
        p, stack = case
        reduced, pivots = eliminate_mod(stack, p)
        assert reduced.shape == stack.shape and pivots.shape == (stack.shape[0], stack.shape[2])
        for mat, red, piv in zip(stack, reduced, pivots):
            want_rows, want_pivots = rref_mod(mat.tolist(), p)
            rank = len(want_pivots)
            assert np.flatnonzero(piv).tolist() == want_pivots
            assert red[:rank].tolist() == want_rows and not red[rank:].any()
            # the kernel: e_f minus column f of the reduced rows, placed at their pivot columns
            kernel = []
            for f in np.flatnonzero(~piv).tolist():
                v = [0] * mat.shape[1]
                v[f] = 1
                for row, col in zip(red[:rank].tolist(), want_pivots):
                    v[col] = -row[f] % p
                kernel.append(v)
            assert not (mat @ np.array(kernel, dtype=np.int64).reshape(len(kernel), mat.shape[1]).T % p).any()
            if mat.shape[0]:
                assert kernel == kernel_mod(mat.tolist(), p)

    def test_chunks_agree_with_one_stack(self, monkeypatch):
        rng = np.random.default_rng(0)
        stack = rng.integers(0, 7, size=(9, 5, 6)) * (rng.integers(0, 2, size=(9, 1, 6)))
        want = eliminate_mod(stack, 7)
        monkeypatch.setattr("cayint.linalg._STACK_CELLS", 2 * 5 * 6)
        got = eliminate_mod(stack, 7)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_rejects_unsafe_modulus(self):
        with pytest.raises(ValueError):
            eliminate_mod(np.zeros((1, 2, 2), dtype=np.int64), 2**31 + 11)
