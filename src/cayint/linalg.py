"""Exact linear algebra over the integers and the cyclotomic fields Q(zeta_e).

Everything here is exact: characteristic polynomials come from one
multi-modular kernel (Hessenberg reduction modulo word-size primes in
batched int64 numpy arrays, with every product kept below 2^63), lifted to
the integers by the Chinese remainder theorem under Hadamard's bound; the
character tables call the same kernel on their own prime. Integer
eigenvalues are split off by synthetic division against a sound candidate
set, the non-integral residual is split into squarefree parts by sympy, and
cyclotomic numbers are kept in canonical form (reduced modulo the e-th
cyclotomic polynomial) so equality and rationality tests are decidable.
No floating point enters any code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from operator import mul as _mul
from typing import Iterable, Sequence

import numpy as np
import sympy


class NotRational(ValueError):
    """A cyclotomic number whose canonical form has positive degree."""

    def __init__(self, value: "Cyclotomic"):
        super().__init__(f"not rational: {value!r}")
        self.value = value


class NotAUnit(ValueError):
    """Galois exponent is not a unit modulo the conductor."""


# ---------------------------------------------------------------------------
# Integer matrices and polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of exact (arbitrary precision) integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError(f"matrix is not square: row of length {len(row)}, expected {n}")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.entries)

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.n))

    def is_symmetric(self) -> bool:
        m = self.entries
        return all(m[i][j] == m[j][i] for i in range(self.n) for j in range(i))

    def gershgorin_bound(self) -> int:
        """Max absolute row sum; bounds every real eigenvalue in magnitude."""
        if self.n == 0:
            return 0
        return max(sum(abs(x) for x in row) for row in self.entries)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending (coeffs[k] is the x^k term)."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = self.coeffs
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", tuple(int(x) for x in c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __pow__(self, k: int) -> "IntPolynomial":
        out = IntPolynomial((1,))
        for _ in range(k):
            out = out * self
        return out

    def shift_root(self, r: int) -> tuple["IntPolynomial", int]:
        """Synthetic division by (x - r): returns (quotient, remainder)."""
        c = self.coeffs
        if not c:
            return IntPolynomial(()), 0
        q: list[int] = [0] * (len(c) - 1)
        acc = c[-1]
        for k in range(len(c) - 2, -1, -1):
            q[k] = acc
            acc = c[k] + r * acc
        return IntPolynomial(tuple(q)), acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                term = xs if mag == 1 else f"{mag}{xs}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


# Word-size primes for the multi-modular kernel. Below 2^26 every product of
# two residues fits in 52 bits; the prime limit also keeps n * p^2 < 2^63, so
# a dot product of n such products cannot overflow int64.
_PRIME_CAP = 2**26
_INT64 = 2**63
_CHUNK = 4  # primes per batched (k, n, n) stack; bounds the work arrays
_PRIMES: dict[int, list[int]] = {}  # prime limit -> primes below it, descending


def _primes_beyond(limit: int, bound: int) -> tuple[list[int], int]:
    """The fewest largest primes below `limit` whose product exceeds `bound`."""
    cached = _PRIMES.setdefault(limit, [])
    primes: list[int] = []
    modulus = 1
    while modulus <= bound:
        if len(primes) == len(cached):
            cached.append(sympy.prevprime(cached[-1] if cached else limit))
        primes.append(cached[len(primes)])
        modulus *= primes[-1]
    return primes, modulus


def _charpoly_stack(a: np.ndarray, ps: np.ndarray, prod: np.ndarray, polys: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a (k, n, n) int64 stack, a[i] reduced mod ps[i].

    Reduces every a[i] to upper Hessenberg form by similarity mod ps[i]
    (pivot: the first nonzero entry below the subdiagonal, swapped into
    place by row and column; an all-zero column is left as it is), then
    runs the Hessenberg recurrence for the leading principal charpolys p_m.
    `a` is overwritten; `prod` (k, n, n) and `polys` (k, n+1, n+1) are work
    buffers. Returns (k, n+1) ascending coefficients, each in [0, ps[i]).
    Every intermediate is below n * p^2 < 2^63 in magnitude.
    """
    k, n, _ = a.shape
    plist = ps.tolist()
    pcol = ps.reshape(k, 1)
    pmat = ps.reshape(k, 1, 1)
    for j in range(n - 2):
        pivots = a[:, j + 1, j].tolist()
        if not all(pivots):
            nonzero = a[:, j + 1 :, j] != 0
            below = nonzero.argmax(axis=1) + (j + 1)
            for i in np.flatnonzero(nonzero.any(axis=1) & (below != j + 1)).tolist():
                r = int(below[i])
                a[i, [j + 1, r], :] = a[i, [r, j + 1], :]
                a[i, :, [j + 1, r]] = a[i, :, [r, j + 1]]
            pivots = a[:, j + 1, j].tolist()
        inv = np.array([pow(v, -1, p) if v else 0 for v, p in zip(pivots, plist)], dtype=np.int64)
        mult = a[:, j + 2 :, j] * inv[:, None]
        mult %= pcol
        # row i -= mult_i * row (j+1) for every i > j+1, which zeroes column j below j+1
        lower = a[:, j + 2 :, j:]
        step = prod[:, : n - j - 2, : n - j]
        np.multiply(mult[:, :, None], a[:, j + 1 : j + 2, j:], out=step)
        np.subtract(lower, step, out=lower)
        np.remainder(lower, pmat, out=lower)
        # the inverse column operation: column (j+1) += sum_i mult_i * column i
        column = a[:, :, j + 1]
        column += np.matmul(a[:, :, j + 2 :], mult[:, :, None])[:, :, 0]
        column %= pcol
    # p_m = x p_(m-1) - sum_(i<=m) h_im t_i p_(i-1), where t_i is the product of
    # the subdiagonal entries h_(i+1,i) ... h_(m,m-1), kept incrementally (t_m = 1)
    polys.fill(0)
    polys[:, 0, 0] = 1
    suffix = np.ones((k, n), dtype=np.int64)
    for m in range(1, n + 1):
        if m > 1:
            tail = suffix[:, : m - 1]
            tail *= a[:, m - 1, m - 2 : m - 1]
            tail %= pcol
        weights = a[:, :m, m - 1] * suffix[:, :m]
        weights %= pcol
        cur = polys[:, m, : m + 1]
        cur[:, 1:] = polys[:, m - 1, :m]
        cur[:, :m] -= np.matmul(weights[:, None, :], polys[:, :m, :m])[:, 0, :]
        np.remainder(cur, pcol, out=cur)
    return polys[:, n, :]


def charpoly(m: IntMatrix) -> IntPolynomial:
    """Exact monic characteristic polynomial det(xI - M), by multi-modular
    Hessenberg reduction and the Chinese remainder theorem.

    Bound: with r_i the ceiling of the Euclidean norm of row i, Hadamard's
    inequality on the principal minors gives |c_k| <= e_k(r) <= B =
    prod(1 + r_i) for every coefficient c_k. The kernel runs modulo the
    fewest primes below 2^26 whose product exceeds 2B, taken in descending
    order, in int64 stacks of a few primes at a time (see `_charpoly_stack`),
    and the residues are lifted by CRT into the symmetric range. Overflow:
    the prime limit is chosen from n so that n * p^2 < 2^63, which bounds
    every int64 dot product. Entries that may reach 2^62 in magnitude are
    reduced mod each prime with Python integers first. No float is used.
    """
    rows = m.entries
    n = m.n
    if n == 0:
        return IntPolynomial((1,))
    bound, max_sq = 1, 0
    for row in rows:
        sq = sum(map(_mul, row, row))
        r = isqrt(sq)
        bound *= 1 + r + (r * r != sq)
        max_sq = max(max_sq, sq)
    primes, modulus = _primes_beyond(min(_PRIME_CAP, isqrt((_INT64 - 1) // n)), 2 * bound)
    assert n * primes[0] ** 2 < _INT64, "prime too large for int64 dot products"
    if max_sq < 2**124:  # then every entry is below 2^62 in magnitude
        entries = np.array(rows, dtype=np.int64)
    else:
        entries = np.array(rows, dtype=object)
    chunk = min(_CHUNK, len(primes))
    work = np.empty((chunk, n, n), dtype=np.int64)
    prod = np.empty((chunk, n, n), dtype=np.int64)
    polys = np.empty((chunk, n + 1, n + 1), dtype=np.int64)
    residues: list[list[int]] = []
    for start in range(0, len(primes), chunk):
        ps = np.array(primes[start : start + chunk], dtype=np.int64)
        k = len(ps)
        a = work[:k]
        if entries.dtype == object:
            for i, p in enumerate(ps.tolist()):
                a[i] = (entries % p).astype(np.int64)
        else:
            np.remainder(entries, ps.reshape(k, 1, 1), out=a)
        residues.extend(_charpoly_stack(a, ps, prod[:k], polys[:k]).tolist())
    basis = [(modulus // p) * pow(modulus // p, -1, p) for p in primes]
    half = modulus // 2
    coeffs = []
    for column in zip(*residues):
        c = sum(map(_mul, column, basis)) % modulus
        coeffs.append(c - modulus if c > half else c)
    return IntPolynomial(tuple(coeffs))


def charpoly_mod(m: IntMatrix, p: int) -> tuple[int, ...]:
    """Ascending coefficients of det(xI - M) modulo a prime p, each in [0, p).

    Same kernel as `charpoly`, on one prime; p must be below 2^26 and satisfy
    n * p^2 < 2^63.
    """
    n = m.n
    if not (1 < p < _PRIME_CAP and n * p * p < _INT64):
        raise ValueError(f"modulus {p} outside the int64 kernel's range for n={n}")
    ps = np.array([p], dtype=np.int64)
    a = np.array([[x % p for x in row] for row in m.entries], dtype=np.int64).reshape(1, n, n)
    prod = np.empty((1, n, n), dtype=np.int64)
    polys = np.empty((1, n + 1, n + 1), dtype=np.int64)
    return tuple(_charpoly_stack(a, ps, prod, polys)[0].tolist())


@dataclass(frozen=True)
class SpectrumReport:
    """Integer eigenvalues with multiplicity plus the leftover non-integer factor."""

    degree: int
    integer_eigenvalues: tuple[tuple[int, int], ...]  # (value, multiplicity), descending
    residual: IntPolynomial
    is_integral: bool

    def __post_init__(self) -> None:
        total = sum(m for _, m in self.integer_eigenvalues) + max(self.residual.degree, 0)
        if total != self.degree:
            raise ValueError(f"multiplicities {total} do not account for degree {self.degree}")

    def eigenvalue_sum(self) -> int:
        return sum(v * m for v, m in self.integer_eigenvalues) - (
            self.residual.coeffs[-2] if self.residual.degree >= 1 else 0
        )

    def reconstruct(self) -> IntPolynomial:
        out = self.residual
        for v, m in self.integer_eigenvalues:
            out = out * (IntPolynomial((-v, 1)) ** m)
        return out

    def residual_factors(self) -> tuple[tuple[IntPolynomial, int], ...]:
        if self.residual.degree <= 0:
            return ()
        return squarefree_factorization(self.residual)

    def describe(self) -> str:
        parts = [f"{v}" if m == 1 else f"{v}(x{m})" for v, m in self.integer_eigenvalues]
        s = ", ".join(parts) if parts else "(none)"
        if self.is_integral:
            return f"integral: {s}"
        fac = " ".join(
            f"({p})" if m == 1 else f"({p})^{m}" for p, m in self.residual_factors()
        )
        return f"not integral: integer part {s}; residual {fac}"


def _divisor_candidates(constant: int, limit: int) -> list[int]:
    # any integer root of a monic integer polynomial divides the constant term
    ds = [d for d in sympy.divisors(abs(constant)) if d <= limit]
    return sorted({s * d for d in ds for s in (1, -1)}, reverse=True)


def integer_spectrum(p: IntPolynomial, bound: int | None = None) -> SpectrumReport:
    """Split all integer roots (with multiplicity) off a monic polynomial.

    With `bound` given (e.g. a Gershgorin row bound from the source matrix)
    candidates are every integer in [-bound, bound]; otherwise the divisors
    of the constant term, capped by the Cauchy root bound. Both candidate
    sets provably contain every integer root, so the residual is certified
    to have none. Candidates that do not divide the current constant term
    are skipped without a division.
    """
    if not p.is_monic:
        raise ValueError("integer_spectrum requires a monic polynomial")
    degree = p.degree
    found: dict[int, int] = {}
    work = p
    while work.degree > 0 and work.coeffs[0] == 0:
        work = IntPolynomial(work.coeffs[1:])
        found[0] = found.get(0, 0) + 1
    if work.degree > 0:
        if bound is not None:
            candidates: Iterable[int] = range(bound, -bound - 1, -1)
        else:
            cauchy = 1 + max(abs(c) for c in work.coeffs)
            candidates = _divisor_candidates(work.coeffs[0], cauchy)
        for r in candidates:
            # an integer root divides the constant term, nonzero once zero roots are gone
            if r == 0 or work.coeffs[0] % r:
                continue
            while work.degree > 0:
                q, rem = work.shift_root(r)
                if rem != 0:
                    break
                work = q
                found[r] = found.get(r, 0) + 1
            if work.degree == 0:
                break
    eigen = tuple(sorted(found.items(), key=lambda kv: -kv[0]))
    return SpectrumReport(
        degree=degree,
        integer_eigenvalues=eigen,
        residual=work,
        is_integral=work.degree <= 0,
    )


# ---------------------------------------------------------------------------
# Squarefree parts of integer polynomials (for the residual factors in reports)
# ---------------------------------------------------------------------------

_X = sympy.Symbol("x")


def squarefree_factorization(p: IntPolynomial) -> tuple[tuple[IntPolynomial, int], ...]:
    """Squarefree decomposition of a monic integer polynomial.

    Returns (q_i, i) for every nonconstant part, ascending in i, so that p is
    the product of the q_i^i with each q_i squarefree and the q_i pairwise
    coprime. sympy's squarefree decomposition over ZZ does the work; by
    Gauss's lemma the parts of a monic integer polynomial are monic.
    """
    if not p.is_monic:
        raise ValueError("squarefree_factorization requires a monic polynomial")
    _, parts = sympy.Poly(list(reversed(p.coeffs)), _X, domain="ZZ").sqf_list()
    return tuple(
        (IntPolynomial(tuple(int(c) for c in reversed(q.all_coeffs()))), m) for q, m in parts
    )


# ---------------------------------------------------------------------------
# Cyclotomic arithmetic
# ---------------------------------------------------------------------------


def euler_phi(e: int) -> int:
    out, m, q = 1, e, 2
    while q * q <= m:
        if m % q == 0:
            out *= q - 1
            m //= q
            while m % q == 0:
                out *= q
                m //= q
        q += 1
    if m > 1:
        out *= m - 1
    return out


_PHI_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the e-th cyclotomic polynomial, cached."""
    got = _PHI_CACHE.get(e)
    if got is not None:
        return got
    poly = [-1] + [0] * (e - 1) + [1]  # x^e - 1
    for d in range(1, e):
        if e % d == 0:
            div = cyclotomic_polynomial(d)
            # exact division of integer polynomials, divisor monic
            q = [0] * (len(poly) - len(div) + 1)
            r = list(poly)
            for k in range(len(q) - 1, -1, -1):
                f = r[k + len(div) - 1]
                q[k] = f
                if f:
                    for i, c in enumerate(div):
                        r[k + i] -= f * c
            assert not any(r), f"cyclotomic division left a remainder for e={e}"
            poly = q
    result = tuple(poly)
    _PHI_CACHE[e] = result  # idempotent fill; safe under concurrent init
    return result


class _CycloContext:
    """Per-conductor data: Phi_e and the canonical vectors of zeta^j."""

    __slots__ = ("e", "phi", "modulus", "powers")

    def __init__(self, e: int):
        self.e = e
        self.modulus = cyclotomic_polynomial(e)
        self.phi = len(self.modulus) - 1
        top = [-c for c in self.modulus[: self.phi]]  # x^phi mod Phi_e
        powers: list[tuple[int, ...]] = []
        vec = [1] + [0] * (self.phi - 1)
        for _ in range(max(e, 2 * self.phi - 1)):
            powers.append(tuple(vec))
            carry = vec[-1]
            vec = [0] + vec[:-1]
            if carry:
                vec = [v + carry * t for v, t in zip(vec, top)]
        self.powers = tuple(powers)


_CONTEXTS: dict[int, _CycloContext] = {}


def _context(e: int) -> _CycloContext:
    ctx = _CONTEXTS.get(e)
    if ctx is None:
        ctx = _CycloContext(e)
        _CONTEXTS[e] = ctx
    return ctx


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


class Cyclotomic:
    """Element of Q(zeta_e) in canonical form: a length-phi(e) rational vector
    over the power basis 1, zeta, ..., zeta^(phi(e)-1), reduced mod Phi_e."""

    __slots__ = ("e", "coeffs")

    def __init__(self, e: int, coeffs: Sequence[Fraction | int]):
        ctx = _context(e)
        if len(coeffs) != ctx.phi:
            raise ValueError(f"conductor {e} needs {ctx.phi} coefficients, got {len(coeffs)}")
        self.e = e
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def zeta(cls, e: int, k: int = 1) -> "Cyclotomic":
        ctx = _context(e)
        return cls(e, ctx.powers[k % e])

    @classmethod
    def rational(cls, x: Fraction | int, e: int = 1) -> "Cyclotomic":
        ctx = _context(e)
        return cls(e, (Fraction(x),) + (Fraction(0),) * (ctx.phi - 1))

    def lift(self, big: int) -> "Cyclotomic":
        """Re-express in Q(zeta_big) for a conductor multiple."""
        if big == self.e:
            return self
        if big % self.e != 0:
            raise ValueError(f"cannot lift conductor {self.e} into {big}")
        ctx = _context(big)
        step = big // self.e
        acc = [Fraction(0)] * ctx.phi
        for m, c in enumerate(self.coeffs):
            if c:
                for i, t in enumerate(ctx.powers[m * step]):
                    if t:
                        acc[i] += c * t
        return Cyclotomic(big, acc)

    def _pair(self, other: "Cyclotomic | int | Fraction") -> tuple["Cyclotomic", "Cyclotomic"]:
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(other)
        e = _lcm(self.e, other.e)
        return self.lift(e), other.lift(e)

    def __add__(self, other: "Cyclotomic | int | Fraction") -> "Cyclotomic":
        a, b = self._pair(other)
        return Cyclotomic(a.e, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.e, [-x for x in self.coeffs])

    def __sub__(self, other: "Cyclotomic | int | Fraction") -> "Cyclotomic":
        return self + (-other if isinstance(other, Cyclotomic) else -Fraction(other))

    def __rsub__(self, other: "int | Fraction") -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other: "Cyclotomic | int | Fraction") -> "Cyclotomic":
        if not isinstance(other, Cyclotomic):
            f = Fraction(other)
            return Cyclotomic(self.e, [c * f for c in self.coeffs])
        a, b = self._pair(other)
        ctx = _context(a.e)
        conv = [Fraction(0)] * (2 * ctx.phi - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        acc = list(conv[: ctx.phi])
        for j in range(ctx.phi, len(conv)):
            c = conv[j]
            if c:
                for i, t in enumerate(ctx.powers[j]):
                    if t:
                        acc[i] += c * t
        return Cyclotomic(a.e, acc)

    __rmul__ = __mul__

    def galois(self, h: int) -> "Cyclotomic":
        """Image under the field automorphism zeta -> zeta^h, h a unit mod e."""
        if gcd(h, self.e) != 1:
            raise NotAUnit(f"{h} is not a unit modulo {self.e}")
        ctx = _context(self.e)
        acc = [Fraction(0)] * ctx.phi
        for m, c in enumerate(self.coeffs):
            if c:
                for i, t in enumerate(ctx.powers[(m * h) % self.e]):
                    if t:
                        acc[i] += c * t
        return Cyclotomic(self.e, acc)

    def conj(self) -> "Cyclotomic":
        if self.e <= 2:
            return self
        return self.galois(self.e - 1)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRational(self)
        return self.coeffs[0]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # equality coerces across conductors; do not hash

    def __repr__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for m, c in enumerate(self.coeffs):
            if c:
                base = "1" if m == 0 else (f"z{self.e}" if m == 1 else f"z{self.e}^{m}")
                terms.append(f"{c}*{base}" if m else str(c))
        return " + ".join(terms)
