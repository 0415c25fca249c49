"""Exact linear algebra over the integers and the cyclotomic fields Q(zeta_e).

Everything here is symbolic: characteristic polynomials come from a
division-free Berkowitz recurrence on arbitrary-precision integers (the
character tables reduce its result mod p), integer eigenvalues are split
off by synthetic division against a sound candidate set, the non-integral
residual is split into squarefree parts by sympy, and cyclotomic numbers
are kept in canonical form (reduced modulo the e-th cyclotomic polynomial)
so equality and rationality tests are decidable.
No floating point enters any code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul as _mul
from typing import Iterable, Sequence

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


def charpoly(m: IntMatrix) -> IntPolynomial:
    """Exact monic characteristic polynomial det(xI - M), by Berkowitz.

    The recurrence extends the characteristic vector of each leading
    principal submatrix by a lower-triangular Toeplitz multiply whose
    column entries are -R A^j S for the new border row R and column S.
    Division-free, so all intermediates stay integers.
    """
    rows = m.entries
    n = m.n
    if n == 0:
        return IntPolynomial((1,))
    # c holds coefficients of the leading r x r charpoly, descending powers.
    c = [1, -rows[0][0]]
    for r in range(1, n):
        border = rows[r]
        t = [1, -border[r]]
        u = [rows[i][r] for i in range(r)]
        for _ in range(r - 1):
            # map/zip truncate at len(u) == r, giving the leading-submatrix action
            t.append(-sum(map(_mul, border, u)))
            u = [sum(map(_mul, rows[i], u)) for i in range(r)]
        t.append(-sum(map(_mul, border, u)))
        out = [0] * (r + 2)
        for j, cj in enumerate(c):
            if cj:
                for i in range(min(len(t), r + 2 - j)):
                    out[i + j] += t[i] * cj
        c = out
    return IntPolynomial(tuple(reversed(c)))


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
    to have none.
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
            if r == 0:
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
