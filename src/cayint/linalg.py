"""Exact linear algebra over the integers and the cyclotomic fields Q(zeta_e).

An integer matrix is an `IntMatrix`: one read-only ndarray, int64 when every
entry is below 2^62 in magnitude and Python ints otherwise (`exact_array`).

Everything here is exact. Characteristic polynomials are computed modulo
word-size primes in int64 numpy arrays, with every product kept below 2^63,
by one of two engines:

- the Hessenberg kernel, reduction by similarity modulo one prime
  (`_charpoly_stack`), for any square matrix, behind one entry point,
  `charpoly_mod`, on a stack of matrices: the character tables split
  their eigenspaces and the normal-set survey finds its candidate
  eigenvalues with it. `charpoly`, the test oracle of the other engine,
  runs it on a few primes and lifts the residues to the integers by one
  Chinese remainder step (`_crt_lift`) under Hadamard's bound;
- the power-sum engine for the adjacency matrix A of a Cayley colour
  graph, which commutes with right translations, so that the diagonal
  entry (A^t)[0, 0] = s_t gives every power sum tr(A^t) = n s_t. It runs
  one Krylov sequence of e_0 (`_krylov`), v_t = e_0 A^t modulo each prime,
  and s_(i+j) = <v_i, v_j> (`_diagonal`), and reads it out in one of two
  ways. The Newton read-out (`cayley_charpoly`) takes ceil(n/2) steps on
  the primes of Hadamard's bound and the charpoly's coefficients by
  Newton's identities, in about n^3 / 2 multiply-adds per prime against
  the kernel's several n^3, lifted like `charpoly`'s; `cayley_charpoly_mod`
  runs it on one prime for a stack of matrices. The minimal-polynomial
  read-out (`minpoly_spectrum`) runs on the inverse-pair quotient, where
  the vectors A^t e_0 = f^(*t) need one coordinate per pair {x, x^-1}: it
  finds d = deg mu_A by Berlekamp-Massey (`_massey`) on a first prime,
  certified by e_0 mu(A) = 0 there, runs d steps on the primes of
  2 (2 rho + 1)^d, rho = sum |f|, and lifts mu_A and s_0 .. s_(d-1), which
  give the multiplicities; when d is far below n, as for most colour
  functions on a non-abelian group, that is far fewer steps and primes.
  `spectra.spectrum_matrix` picks the read-out by n and an a-priori bound
  on d.

The roots mod a prime of such residue polynomials, each over its own
integer range, are one Horner pass, `roots_mod`, for three screens: the
character tables' eigenvalues in F_p; `integral_spectra`, which decides
the survey's and the CI brute force's matrices by their roots and one
exact product, with no integer charpoly; and `integer_spectrum`, which
splits off the integer roots within a bound by synthetic division, from
the charpoly or from mu_A. The non-integral residual of a charpoly splits
into its squarefree parts by heuristic gcds on polynomials packed into
Python ints (`squarefree_factorization`); the minimal-polynomial read-out
reads them off mu_A and the power sums with the same gcds.

A cyclotomic integer of Z[zeta_e] is one integer vector of power-basis
coordinates; the conductor's context (`_context`) holds the powers of
zeta_e on that basis and the fixed integer maps on such vectors: complex
conjugation and the Galois twists. Gaussian elimination over a prime field
has one routine, `eliminate_mod`, on a stack of matrices at once; it
splits the character tables' eigenspaces and ranks the normal-set survey's
certificate. No floating point enters any code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, gcd, isqrt, prod
from operator import index as _index, mul as _mul
from typing import Iterable, Iterator, Sequence

import numpy as np


class NotAUnit(ValueError):
    """Galois exponent is not a unit modulo the conductor."""


# ---------------------------------------------------------------------------
# Integer matrices and polynomials
# ---------------------------------------------------------------------------


_INT64 = 2**63
_SMALL = 2**62  # entries below this in magnitude are stored as int64


def exact_array(values) -> np.ndarray:
    """`values`, an integer ndarray or an iterable of ints, as an exact array.

    The dtype rule: int64 when every |x| < 2^62, object (Python ints)
    otherwise; numpy is never left to infer it. Non-integers raise TypeError.
    """
    is_array = isinstance(values, np.ndarray)
    if is_array and values.dtype.kind in "iu":
        small = values.size == 0 or (-_SMALL < int(values.min()) and int(values.max()) < _SMALL)
        return values.astype(np.int64 if small else object)
    flat = [_index(x) for x in (values.flat if is_array else values)]
    small = all(-_SMALL < x < _SMALL for x in flat)
    out = np.array(flat, dtype=np.int64 if small else object)
    return out.reshape(values.shape) if is_array else out


def _summable(a: np.ndarray, terms: int, magnitude: int) -> np.ndarray:
    """`a`, as Python ints if a sum of `terms` values of up to `magnitude`
    could leave int64."""
    return a.astype(object) if a.dtype != object and terms * magnitude >= _INT64 else a


@dataclass(frozen=True, eq=False)
class IntMatrix:
    """Square matrix of exact integers on one read-only 2-D ndarray.

    `entries` is int64 when every |x| < 2^62, which the charpoly engines
    reduce mod their primes directly, and object (Python ints) otherwise;
    this module alone reads it and makes that choice. Built from an
    integer ndarray (copied) or from rows of ints. Equality is by value.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        data = self.entries
        if isinstance(data, np.ndarray):
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise ValueError(f"matrix is not square: shape {data.shape}")
            arr = exact_array(data)
        else:
            rows = [list(row) for row in data]
            n = len(rows)
            if any(len(row) != n for row in rows):
                raise ValueError(f"matrix is not square: {n} rows of lengths {sorted({len(r) for r in rows})}")
            arr = exact_array([x for row in rows for x in row]).reshape(n, n)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]] | np.ndarray) -> "IntMatrix":
        return cls(rows)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    __hash__ = None

    def trace(self) -> int:
        return sum(self.entries.diagonal().tolist())

    def is_symmetric(self) -> bool:
        return np.array_equal(self.entries, self.entries.T)

    def gershgorin_bound(self) -> int:
        """Max absolute row sum; bounds every real eigenvalue in magnitude."""
        if self.n == 0:
            return 0
        a = np.abs(self.entries)
        return int(_summable(a, self.n, int(a.max())).sum(axis=1).max())


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


# Word-size primes for both charpoly engines. Below 2^26 every product of
# two residues fits in 52 bits; the prime limit also keeps n * p^2 < 2^63, so
# a dot product of n such products cannot overflow int64.
_PRIME_CAP = 2**26
_STACK_CELLS = 2**16  # matrix cells per batched (k, n, n) stack; bounds the work arrays
_PRIMES: dict[tuple[int, int], list[int]] = {}  # (limit, e) -> primes = 1 (mod e) below limit, descending
_SCREEN_PRIME = 67108859  # the largest prime below 2^26, for `integer_spectrum`'s screen
_COMPOSITE = np.zeros(2**13, dtype=bool)
for _m in range(2, 91):  # every composite below 2^13 has a factor m below 91 and is at least 2m
    _COMPOSITE[2 * _m :: _m] = True
_SMALL_PRIMES = np.flatnonzero(~_COMPOSITE)[2:]  # every prime factor of n < 2^26 but one is below 2^13


def is_prime(n: int) -> bool:
    """Whether 0 <= n < 2^26 is prime: trial division by the primes below 2^13."""
    if not 0 <= n < _PRIME_CAP:
        raise ValueError(f"is_prime needs 0 <= n < 2^26, got {n}")
    return n > 1 and bool((n % _SMALL_PRIMES[_SMALL_PRIMES < n]).all())


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of 0 < n < 2^26, ascending: those below 2^13,
    then the rest of n, 1 or a prime, as no exponent in n reaches 26."""
    small = _SMALL_PRIMES[n % _SMALL_PRIMES == 0].tolist()
    rest = n // gcd(n, prod(small) ** 26)
    return small + [rest] * (rest > 1)


def primitive_root(p: int) -> int:
    """The least primitive root modulo a prime p < 2^26 (1 for p = 2)."""
    qs = _prime_factors(p - 1)
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in qs))


def _charpoly_stack(a: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomials of a (k, n, n) int64 stack reduced mod p.

    Reduces every a[i] to upper Hessenberg form by similarity mod p (pivot:
    the first nonzero entry below the subdiagonal, swapped into place by
    row and column; an all-zero column is left as it is), then runs the
    Hessenberg recurrence for the leading principal charpolys p_m. `a` is
    overwritten. Returns (k, n+1) ascending coefficients, each in [0, p).
    Every intermediate is below n * p^2 < 2^63 in magnitude.
    """
    k, n, _ = a.shape
    prod = np.empty_like(a)
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
        inv = np.array([pow(v, -1, p) if v else 0 for v in pivots], dtype=np.int64)
        mult = a[:, j + 2 :, j] * inv[:, None]
        mult %= p
        # row i -= mult_i * row (j+1) for every i > j+1, which zeroes column j below j+1
        lower = a[:, j + 2 :, j:]
        step = prod[:, : n - j - 2, : n - j]
        np.multiply(mult[:, :, None], a[:, j + 1 : j + 2, j:], out=step)
        lower -= step
        lower %= p
        # the inverse column operation: column (j+1) += sum_i mult_i * column i
        column = a[:, :, j + 1]
        column += np.matmul(a[:, :, j + 2 :], mult[:, :, None])[:, :, 0]
        column %= p
    # p_m = x p_(m-1) - sum_(i<=m) h_im t_i p_(i-1), where t_i is the product of
    # the subdiagonal entries h_(i+1,i) ... h_(m,m-1), kept incrementally (t_m = 1)
    polys = np.zeros((k, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    suffix = np.ones((k, n), dtype=np.int64)
    for m in range(1, n + 1):
        if m > 1:
            tail = suffix[:, : m - 1]
            tail *= a[:, m - 1, m - 2 : m - 1]
            tail %= p
        weights = a[:, :m, m - 1] * suffix[:, :m]
        weights %= p
        cur = polys[:, m, : m + 1]
        cur[:, 1:] = polys[:, m - 1, :m]
        cur[:, :m] -= np.matmul(weights[:, None, :], polys[:, :m, :m])[:, 0, :]
        cur %= p
    return polys[:, n, :]


def _hadamard_bound(entries: np.ndarray) -> int:
    """prod(1 + r_i), r_i the ceiling of the Euclidean norm of row i."""
    n = entries.shape[0]
    big = int(np.abs(entries).max())
    wide = _summable(entries, n, big * big)
    bound = 1
    for sq in (wide * wide).sum(axis=1).tolist():
        r = isqrt(sq)
        bound *= 1 + r + (r * r != sq)
    return bound


def _prime_stream(n: int, e: int = 1) -> Iterator[int]:
    """The primes p = 1 (mod e) below a limit that keeps n * p^2 < 2^63,
    largest first and without end, cached per (limit, e)."""
    limit = min(_PRIME_CAP, isqrt((_INT64 - 1) // n))
    cached = _PRIMES.setdefault((limit, e), [])
    i = 0
    while True:
        if i == len(cached):
            below = cached[-1] if cached else limit
            p = below - 1 - (below - 2) % e  # the largest p = 1 (mod e) below it
            while not is_prime(p):
                p -= e
            cached.append(p)
        yield cached[i]
        i += 1


def _primes_for(n: int, bound: int, e: int = 1) -> tuple[list[int], int]:
    """The primes for integers at most `bound` in magnitude, such as the
    charpoly coefficients of n x n matrices, and their product: the fewest
    first primes of `_prime_stream(n, e)` whose product exceeds 2 * bound."""
    primes: list[int] = []
    modulus = 1
    stream = _prime_stream(n, e)
    while modulus <= 2 * bound:
        primes.append(next(stream))
        modulus *= primes[-1]
    return primes, modulus


def _crt_lift(residues: np.ndarray, primes: list[int], modulus: int) -> list[int]:
    """The integers whose residues modulo primes[i] are the columns of
    residues[i], lifted by the Chinese remainder theorem into the symmetric
    range (-modulus/2, modulus/2]."""
    basis = [(modulus // p) * pow(modulus // p, -1, p) for p in primes]
    half = modulus // 2
    lifted = []
    for column in residues.T.tolist():
        c = sum(map(_mul, column, basis)) % modulus
        lifted.append(c - modulus if c > half else c)
    return lifted


def charpoly(m: IntMatrix) -> IntPolynomial:
    """Exact monic characteristic polynomial det(xI - M), by `charpoly_mod`
    modulo each of `_primes_for`'s primes and the Chinese remainder theorem.

    With r_i the ceiling of the Euclidean norm of row i, Hadamard's
    inequality on the principal minors gives |c_k| <= e_k(r) <= prod(1 + r_i)
    for every coefficient c_k, and the primes' product exceeds twice that.
    Entries from 2^62 up are Python ints (see `IntMatrix`), reduced mod each
    prime first. No float is used.
    """
    if m.n == 0:
        return IntPolynomial((1,))
    primes, modulus = _primes_for(m.n, _hadamard_bound(m.entries))
    residues = np.concatenate([charpoly_mod(m.entries[None], p) for p in primes])
    return IntPolynomial(tuple(_crt_lift(residues, primes, modulus)))


def charpoly_mod(stack: np.ndarray, p: int) -> np.ndarray:
    """Ascending coefficients of det(xI - M) modulo a prime p, each in [0, p),
    for every matrix M of a (b, n, n) integer stack, as a (b, n+1) array.

    The one Hessenberg kernel, `_charpoly_stack`, in stacks of at most
    _STACK_CELLS cells (or one matrix); p must be below 2^26 and satisfy
    n * p^2 < 2^63.
    """
    b, n, _ = stack.shape
    if not (1 < p < _PRIME_CAP and n * p * p < _INT64):
        raise ValueError(f"modulus {p} outside the int64 kernel's range for n={n}")
    out = np.empty((b, n + 1), dtype=np.int64)
    step = max(1, _STACK_CELLS // max(1, n * n))
    for start in range(0, b, step):
        out[start : start + step] = _charpoly_stack((stack[start : start + step] % p).astype(np.int64), p)
    return out


def roots_mod(coeffs: np.ndarray, lo: Sequence[int], hi: Sequence[int], p: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (owner, x) with lo[i] <= x <= hi[i] at which row i of the (m,
    n+1) ascending residues `coeffs` vanishes mod p < 2^26, sorted by owner,
    then x: one Horner pass over all rows' points laid end to end, in chunks
    of _STACK_CELLS points that may split a row, every value below p^2 + p."""
    lo = np.asarray(lo, dtype=np.int64)
    width = np.maximum(np.asarray(hi, dtype=np.int64) - lo + 1, 0)
    ends = width.cumsum()  # row i's points end at place ends[i] of the line
    total = int(ends[-1]) if len(ends) else 0
    owners, xs = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.int64)]
    for start in range(0, total, _STACK_CELLS):
        stop = min(start + _STACK_CELLS, total)
        # each row's overlap with the chunk: [ends - width, ends) clipped to it
        overlap = width if stop - start == total else np.clip(ends, start, stop) - np.clip(ends - width, start, stop)
        owner = np.repeat(np.arange(len(width)), overlap)
        x = np.arange(start, stop) + (lo + width - ends)[owner]
        at = x % p
        # a chunk inside one row takes that row's coefficients as scalars
        terms = coeffs[owner[0], ::-1].tolist() if owner[0] == owner[-1] else (co[owner] for co in coeffs[:, ::-1].T)
        vals = np.zeros(len(x), dtype=np.int64)
        for co in terms:
            vals *= at
            vals += co
            vals %= p
        hit = vals == 0
        owners.append(owner[hit])
        xs.append(x[hit])
    # with no chunk or one, the last pair of arrays is the result as it is
    return (owners[-1], xs[-1]) if len(owners) < 3 else (np.concatenate(owners), np.concatenate(xs))


def eliminate_mod(stack: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms over F_p of a (b, r, c) int64 stack of
    residues in [0, p), for a prime p below 2^31.

    Returns (reduced, pivots): reduced[i] is the reduced form of stack[i],
    its rank(i) nonzero rows first, and pivots[i] the (c,) mask of its pivot
    columns, so rank(i) = pivots[i].sum() and row t of reduced[i] has its
    leading 1 in the t-th pivot column. The kernel of stack[i] is spanned,
    for each free column f, by e_f minus the column f of the reduced rows
    placed at their pivot columns.

    One pass over the columns serves the whole stack: at column j every
    matrix with a nonzero entry there below its rank swaps the first such
    row up, scales it to a leading 1 and clears column j from its other
    rows, all in one step for all matrices. The stack runs in chunks of at
    most _STACK_CELLS cells (or one matrix). Overflow: an update x - f y of
    residues x, f, y lies strictly between -p^2 and p, below p + p^2 in
    magnitude, so int64 never wraps.
    """
    b, r, c = stack.shape
    if not 1 < p < 2**31:
        raise ValueError(f"modulus {p} outside the int64 elimination's range")
    reduced = stack.astype(np.int64)  # a copy, reduced in place chunk by chunk
    pivots = np.zeros((b, c), dtype=bool)
    step = max(1, _STACK_CELLS // max(1, r * c))
    for start in range(0, b, step):
        _eliminate_chunk(reduced[start : start + step], pivots[start : start + step], p)
    return reduced, pivots


def _eliminate_chunk(a: np.ndarray, pivots: np.ndarray, p: int) -> None:
    """`eliminate_mod` on one chunk, in place: `a` becomes the reduced
    forms and `pivots` (all False on entry) their pivot masks."""
    b, r, c = a.shape
    rank = np.zeros(b, dtype=np.intp)
    rows = np.arange(r)
    for j in range(c):
        if rank.min() == r:
            break
        candidates = (a[:, :, j] != 0) & (rows >= rank[:, None])
        hit = np.flatnonzero(candidates.any(axis=1))
        if not hit.size:
            continue
        src = candidates[hit].argmax(axis=1)
        dst = rank[hit]
        lead = a[hit, src, j:]
        a[hit, src, j:] = a[hit, dst, j:]
        lead *= np.array([pow(v, -1, p) for v in lead[:, 0].tolist()], dtype=np.int64)[:, None]
        lead %= p
        # row i -= a[i, j] * lead for every row; the pivot row then becomes lead
        whole = hit.size == b
        block = a[:, :, j:] if whole else a[hit, :, j:]
        block -= block[:, :, :1] * lead[:, None, :]
        block %= p
        block[np.arange(hit.size), dst] = lead
        if not whole:
            a[hit, :, j:] = block
        pivots[hit, j] = True
        rank[hit] += 1


def _krylov(a: np.ndarray, ps: np.ndarray, steps: int) -> np.ndarray:
    """The Krylov sequence of e_0: v[i, t] = e_0 a^t modulo ps[i] for t = 0 ..
    `steps`, as a (k, steps + 1, m) array, for a row operator `a` of every
    power-sum read-out. `a` is one exact (m, m) matrix for all k primes, used
    as it is when every |entry| is below min(ps) and reduced modulo each
    prime otherwise, in chunks of at most _STACK_CELLS cells; or a (k, m, m)
    int64 stack, row i already reduced modulo ps[i]. Every product sum stays
    below m p^2."""
    k, m = len(ps), a.shape[-1]
    if a.ndim == 2 and (a.dtype == object or int(np.abs(a).max()) >= ps.min()):
        v = np.empty((k, steps + 1, m), dtype=np.int64)
        chunk = max(1, _STACK_CELLS // (m * m))
        for start in range(0, k, chunk):
            sub = ps[start : start + chunk]
            v[start : start + chunk] = _krylov(np.stack([(a % p).astype(np.int64) for p in sub.tolist()]), sub, steps)
        return v
    pcol = ps.reshape(k, 1)
    v = np.zeros((k, steps + 1, m), dtype=np.int64)
    v[:, 0, 0] = 1
    for t in range(steps):
        v[:, t + 1] = np.matmul(v[:, t : t + 1], a)[:, 0] % pcol  # a (m, m) broadcasts over the primes
    return v


def _diagonal(v: np.ndarray, ps: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """s_0 .. s_(2h) modulo ps[i], as a (k, 2h + 1) array, from the Krylov
    vectors v_0 .. v_h of a symmetric operator (`_krylov`): s_(i+j) =
    <v_i, v_j>, so <v_i, v_i> at 2i and <v_i, v_(i+1)> at 2i + 1. On a
    quotient, the inner product weighs coordinate o by weights[o], the size
    of its cell; the weights sum to n and n p^2 < 2^63."""
    k, h = v.shape[0], v.shape[1] - 1
    w = v if weights is None else v * weights
    diag = np.empty((k, 2 * h + 1), dtype=np.int64)
    diag[:, 0::2] = np.einsum("kij,kij->ki", w, v)
    diag[:, 1::2] = np.einsum("kij,kij->ki", w[:, :-1], v[:, 1:])
    diag %= ps.reshape(k, 1)
    return diag


def _massey(seq: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Berlekamp-Massey on each row of the (k, T) residues `seq` modulo
    ps[i], every row on its own branches in one pass: (c, length), c[i] the
    ascending coefficients (padded to T + 1) of the least connection
    polynomial 1 + c_1 z + ... + c_L z^L of row i, L = length[i], with
    s_r + c_1 s_(r-1) + ... + c_L s_(r-L) = 0 mod ps[i] for L <= r < T.

    `shifted` is Massey's z^m B(z): B the polynomial before the last change
    of length, m the steps since, and `b_inv` the inverse of that change's
    discrepancy. c has degree at most L, so a discrepancy sums at most
    L + 1 <= T products below p^2.
    """
    k, width = seq.shape[0], seq.shape[1] + 1
    pcol = ps.reshape(k, 1)
    c = np.zeros((k, width), dtype=np.int64)
    c[:, 0] = 1
    shifted = np.zeros_like(c)
    shifted[:, 1] = 1
    length = np.zeros(k, dtype=np.int64)
    b_inv = np.ones(k, dtype=np.int64)
    for r in range(width - 1):
        disc = np.einsum("kt,kt->k", c[:, : r + 1], seq[:, r::-1]) % ps
        grow = (disc != 0) & (2 * length <= r)
        update = c - (disc * b_inv % ps)[:, None] * shifted
        update %= pcol
        if grow.any():
            shifted[grow] = c[grow]
            for i in np.flatnonzero(grow).tolist():
                b_inv[i] = pow(int(disc[i]), -1, int(ps[i]))
            length[grow] = r + 1 - length[grow]
        shifted[:, 1:] = shifted[:, :-1].copy()
        shifted[:, 0] = 0
        c = update
    return c, length


def _certified_minpolys(
    quotient: np.ndarray, weights: np.ndarray, ps: np.ndarray, steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`steps` Krylov steps of e_0 on `quotient` modulo each prime of ps,
    and Berlekamp-Massey on s_0 .. s_(2 steps - 1): (length, mu, s, certified),
    mu[i] the ascending coefficients (padded to steps + 1) of the reversed
    connection polynomial, monic of degree length[i], s[i] = s_0 .. s_(2 steps),
    and certified[i] whether length[i] <= steps and e_0 mu(A) = sum_j mu_j v_j
    vanishes mod ps[i], the annihilation certificate."""
    k = len(ps)
    v = _krylov(quotient, ps, steps)
    s = _diagonal(v, ps, weights)
    c, length = _massey(s[:, : 2 * steps], ps)
    back = length[:, None] - np.arange(steps + 1)  # mu_j = c_(L - j)
    mu = np.where(back >= 0, np.take_along_axis(c, back.clip(0), axis=1), 0)
    residue = np.einsum("kj,kjm->km", mu, v) % ps.reshape(k, 1)
    return length, mu, s, (length <= steps) & ~residue.any(axis=1)


_INVERSES: dict[int, np.ndarray] = {}  # p -> j^-1 mod p for j = 0, 1, ... (0 at j = 0)


def _inverses(p: int, width: int) -> np.ndarray:
    if len(_INVERSES.get(p, ())) < width:
        _INVERSES[p] = np.array([0] + [pow(j, -1, p) for j in range(1, width)], dtype=np.int64)
    return _INVERSES[p][:width]


def _newton_mod(power_sums: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the monic degree-n polynomial whose roots
    have power sums power_sums[i, 1..n] modulo ps[i], each prime above n.

    Newton's identities for the coefficients c_j of x^(n-j) (c_0 = 1):
    j c_j = -sum_(t<j) c_t p_(j-t), with j^-1 from `_inverses`.
    """
    k, width = power_sums.shape
    primes, row = np.unique(ps, return_inverse=True)
    inv = np.stack([_inverses(p, width) for p in primes.tolist()])[row.reshape(k)]
    c = np.zeros((k, width), dtype=np.int64)
    c[:, 0] = 1
    for j in range(1, width):
        acc = np.einsum("kt,kt->k", c[:, :j], power_sums[:, j:0:-1]) % ps
        c[:, j] = (ps - acc) * inv[:, j] % ps
    return c[:, ::-1]


def cayley_charpoly(m: IntMatrix) -> IntPolynomial:
    """Exact monic characteristic polynomial of a Cayley colour graph's
    adjacency matrix M = [f(a b^-1)] (`spectra.adjacency`), from one Krylov
    sequence on e_0 and Newton's identities, lifted to the integers like
    `charpoly`.

    Soundness:
    - Right translation invariance: M[a g, b g] = f(a g g^-1 b^-1) = M[a, b],
      so M commutes with every right translation, and so does M^m. Hence
      (M^m)[a, a] = (M^m)[e, e] = f^(*m)(e) for every a, and
      tr(M^m) = n (M^m)[0, 0]: the power sums of the eigenvalues are n s_m.
    - Symmetry (f(g) = f(g^-1)): s_(i+j) = <M^i e_0, M^j e_0>, so s_0 .. s_n
      need only the ceil(n/2) matvecs M^i e_0, i <= ceil(n/2).
    - Newton's identities determine the coefficients from p_1 .. p_n over
      any field in which 1 .. n are invertible; every prime used exceeds n.
    - The coefficients are bounded by `_hadamard_bound`, and the primes
      (`_primes_for`, as in `charpoly`) have a product above twice it.
    - Overflow: residues are below p and n p^2 < 2^63, so no int64 dot
      product overflows. M is used as it is when every |entry| is below the
      smallest prime; otherwise (or when the entries are Python ints) it is
      reduced modulo each prime, in chunks of at most _STACK_CELLS cells.

    Only the symmetry and a constant diagonal, cheap necessary conditions,
    are checked: a matrix that fails either raises ValueError. No float is
    used.
    """
    n = m.n
    if not m.is_symmetric():
        raise ValueError("cayley_charpoly needs a symmetric matrix")
    diagonal = m.entries.diagonal()
    if (diagonal != diagonal[:1]).any():
        raise ValueError("cayley_charpoly needs a constant diagonal")
    if n == 0:
        return IntPolynomial((1,))
    primes, modulus = _primes_for(n, _hadamard_bound(m.entries))
    assert primes[-1] > n, "Newton's identities need every prime above n"
    ps = np.array(primes, dtype=np.int64)
    power_sums = _diagonal(_krylov(m.entries, ps, (n + 1) // 2), ps)[:, : n + 1] * n % ps[:, None]
    return IntPolynomial(tuple(_crt_lift(_newton_mod(power_sums, ps), primes, modulus)))


def cayley_charpoly_mod(stack: np.ndarray, p: int) -> np.ndarray:
    """Ascending coefficients of det(xI - M) modulo a prime p, each in [0, p),
    for every Cayley colour graph adjacency matrix M of a (b, n, n) integer
    stack, as a (b, n+1) array: `cayley_charpoly`'s Krylov sequence and
    Newton's identities on one prime, n < p < 2^26, for the whole stack."""
    b, n, _ = stack.shape
    if not (n < p < _PRIME_CAP and n * p * p < _INT64):
        raise ValueError(f"modulus {p} outside the power-sum engine's range for n={n}")
    ps = np.full(b, p, dtype=np.int64)
    diag = _diagonal(_krylov((stack % p).astype(np.int64), ps, (n + 1) // 2), ps)[:, : n + 1]
    return _newton_mod(diag * n % p, ps)


def integral_spectra(stack: np.ndarray, residues: np.ndarray, bounds: list[int], p: int) -> tuple[bool, ...]:
    """Whether e_0 q(M) = 0 over Z for each M of a (b, n, n) integer stack,
    q the product of x - lambda over the lambda in [-b, b] (b = bounds[i])
    that are roots of its charpoly mod the prime p (`residues`), all found
    by one `roots_mod`: M's integrality when M is diagonalizable, e_0 q(M)
    = 0 gives q(M) = 0 and b bounds its eigenvalues and absolute column
    sums, as each caller shows. Any p will do; a spurious candidate only
    adds a factor. A step v -> v M - lambda v stays below max|v| (b +
    |lambda|): int64 while that is below 2^63, Python ints after."""
    b, n, _ = stack.shape
    owner, lam = roots_mod(residues, [-x for x in bounds], bounds, p)
    roots = np.split(lam, np.cumsum(np.bincount(owner, minlength=b))[:-1])
    verdicts = []
    for m, bound, candidates in zip(stack, bounds, roots):
        v = np.zeros(n, dtype=np.int64)
        v[0] = 1
        for x in candidates.tolist():
            if v.dtype != object and int(np.abs(v).max()) * (bound + abs(x)) >= _INT64:
                v = v.astype(object)
            v = v @ m - x * v
        verdicts.append(not v.any())
    return tuple(verdicts)


@dataclass(frozen=True)
class SpectrumReport:
    """Integer eigenvalues with multiplicity plus the leftover non-integer factor."""

    degree: int
    integer_eigenvalues: tuple[tuple[int, int], ...]  # (value, multiplicity), descending
    residual: IntPolynomial
    is_integral: bool
    # the residual's squarefree parts, when the read-out that made the report already has them
    squarefree_parts: tuple[tuple[IntPolynomial, int], ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        total = sum(m for _, m in self.integer_eigenvalues) + max(self.residual.degree, 0)
        if total != self.degree:
            raise ValueError(f"multiplicities {total} do not account for degree {self.degree}")

    def residual_factors(self) -> tuple[tuple[IntPolynomial, int], ...]:
        if self.residual.degree <= 0:
            return ()
        return self.squarefree_parts if self.squarefree_parts is not None else squarefree_factorization(self.residual)

    def factored_residual(self) -> str:
        """The residual as its space-joined squarefree parts, `(q)` or
        `(q)^m`; empty when the spectrum is integral."""
        return " ".join(f"({p})" if m == 1 else f"({p})^{m}" for p, m in self.residual_factors())

    def describe(self) -> str:
        parts = [f"{v}" if m == 1 else f"{v}(x{m})" for v, m in self.integer_eigenvalues]
        s = ", ".join(parts) if parts else "(none)"
        if self.is_integral:
            return f"integral: {s}"
        return f"not integral: integer part {s}; residual {self.factored_residual()}"


def integer_spectrum(p: IntPolynomial, bound: int) -> SpectrumReport:
    """Split all integer roots (with multiplicity) off a monic polynomial
    whose roots are at most `bound` in magnitude (e.g. a Gershgorin row
    bound from the source matrix).

    The candidates are the integers in [-bound, bound] that are roots mod
    one prime, `_SCREEN_PRIME` (`roots_mod`, in time linear in the bound),
    tried in descending order. They provably contain every integer root,
    so the residual is certified to have none. There is no bound-free path:
    the divisors of the constant term, which it would scan, number about
    3.8 * 10^12 for the degree-120 charpoly of the audit's S5 colour
    function. Candidates that do not divide the current constant term are
    skipped without a division.
    """
    if not p.is_monic:
        raise ValueError("integer_spectrum requires a monic polynomial")
    degree = p.degree
    found: dict[int, int] = {}
    work = list(p.coeffs)  # ascending, as a plain list; one IntPolynomial for the residual
    while len(work) > 1 and work[0] == 0:
        del work[0]
        found[0] = found.get(0, 0) + 1
    if len(work) > 1:
        _, roots = roots_mod(np.array([[c % _SCREEN_PRIME for c in work]]), [-bound], [bound], _SCREEN_PRIME)
        for r in roots[::-1].tolist():
            # an integer root divides the constant term, nonzero once zero roots are gone
            if r == 0 or work[0] % r:
                continue
            while len(work) > 1:
                # synthetic division by (x - r): the quotient's coefficients are the running sums
                quotient = work[1:]
                acc = quotient[-1]
                for j in range(len(quotient) - 2, -1, -1):
                    acc = quotient[j] = quotient[j] + r * acc
                if work[0] + r * acc != 0:
                    break
                work = quotient
                found[r] = found.get(r, 0) + 1
    eigen = tuple(sorted(found.items(), key=lambda kv: -kv[0]))
    return SpectrumReport(
        degree=degree,
        integer_eigenvalues=eigen,
        residual=IntPolynomial(tuple(work)),
        is_integral=len(work) == 1,
    )


# ---------------------------------------------------------------------------
# Squarefree parts of integer polynomials (for the residual factors in reports)
# ---------------------------------------------------------------------------


def _width(m: int) -> int:
    """The least multiple k of 8 with 2^k > m."""
    return -(-m.bit_length() // 8) * 8


def _pack(c: list[int], k: int) -> int:
    """c(2^k) for ascending coefficients c, the Kronecker substitution: by
    halves, as a sum of shifts within each short run of coefficients."""
    if len(c) <= 32:
        return sum(x << k * i for i, x in enumerate(c))
    mid = len(c) // 2
    return _pack(c[:mid], k) + (_pack(c[mid:], k) << k * mid)


def _unpack(v: int, k: int) -> list[int]:
    """The polynomial c with coefficients in [-2^(k-1), 2^(k-1)) and c(2^k) = v,
    k a multiple of 8: v plus 2^(k-1) in every digit, read in bytes."""
    n, w = v.bit_length() // k + 2, k // 8
    raw = (v + int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")).to_bytes(w * n, "little")
    c = [int.from_bytes(raw[i : i + w], "little") - (1 << k - 1) for i in range(0, w * n, w)]
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _quotient(pa: int, pg: int, a: list[int], g: list[int], k: int) -> list[int] | None:
    """a / g from pa = a(2^k) and pg = g(2^k), or None if g does not divide a:
    q read off at 2^k, certified by g q = a in one product packed at a base above
    twice every coefficient of both sides (injective): 2^k itself if wide enough."""
    v, r = divmod(pa, pg)
    q = _unpack(v, k)
    w = _width(2 * max(max(map(abs, a)), min(len(g), len(q)) * max(map(abs, g)) * max(map(abs, q))))
    if w <= k:
        return None if r else q
    return q if _pack(g, w) * _pack(q, w) == _pack(a, w) else None


def _gcd_cofactors(a: list[int], b: list[int], k: int = 0) -> tuple[list[int], list[int], list[int]]:
    """(g, a / g, b / g) for the primitive gcd g of a and b with a positive
    leading coefficient, heuristically at 2^k (see `squarefree_factorization`),
    k by default the least multiple of 8 with 2^k >= 2 max(|a|, |b|) + 2."""
    k = k or _width(2 * max(map(abs, a + b)) + 1)
    pa, pb = _pack(a, k), _pack(b, k)
    h = _unpack(gcd(pa, pb), k)
    content = gcd(*h) if h[-1] > 0 else -gcd(*h)
    g = [c // content for c in h]
    if len(g) == 1:
        return g, a, b
    pg = _pack(g, k)
    if (qa := _quotient(pa, pg, a, g, k)) is not None and (qb := _quotient(pb, pg, b, g, k)) is not None:
        return g, qa, qb
    return _gcd_cofactors(a, b, 2 * k)


def squarefree_factorization(p: IntPolynomial) -> tuple[tuple[IntPolynomial, int], ...]:
    """Squarefree decomposition of a monic integer polynomial.

    Returns (q_i, i) for every nonconstant part, ascending in i, so that p is
    the product of the q_i^i with each q_i squarefree and the q_i pairwise
    coprime; by Gauss's lemma the parts are monic. Musser's loop: g = gcd(p, p'),
    w = p / g, then y = gcd(w, g), q_i = w / y, g = g / y and w = y until w = 1.

    Each gcd of a and b is heuristic (Char, Geddes and Gonnet). At xi = 2^k
    >= 2c + 2, c the largest |coefficient| of a or b, the candidate G' is the
    primitive part of the H whose coefficients are the digits of
    gcd(a(xi), b(xi)) in [-xi/2, xi/2); `_quotient` certifies a / G', b / G'.
    Soundness: G' divides the gcd G = G' C, and G(xi) divides cont(H) G'(xi),
    so C(xi) divides cont(H), at most xi/2. The roots of C are roots of a,
    below 1 + c <= xi/2 in absolute value (Cauchy), so C = 1, as otherwise
    |C(xi)| > xi/2. Termination: with a = G A and b = G B, gcd(a(xi), b(xi))
    is G(xi) d, and the extra factor d = gcd(A(xi), B(xi)) of the cofactors
    (2 for x(x+1) and x^2 + x + 2) divides their resultant s A + t B. Once xi
    exceeds 2 d |G| the digits are those of d G, whose primitive part is G,
    and once it exceeds twice every coefficient of A and B the quotients
    unpack exactly. Each failed candidate doubles k.
    """
    if not p.is_monic:
        raise ValueError("squarefree_factorization requires a monic polynomial")
    g, w, _ = _gcd_cofactors(list(p.coeffs), [i * c for i, c in enumerate(p.coeffs)][1:])
    parts = []
    while len(w) > 1:
        w, part, g = _gcd_cofactors(w, g)
        parts.append(part)
    return tuple((IntPolynomial(tuple(q)), i) for i, q in enumerate(parts, 1) if len(q) > 1)


# ---------------------------------------------------------------------------
# Cayley spectra from the minimal polynomial
# ---------------------------------------------------------------------------


def _minimal_polynomial(quotient: np.ndarray, weights: np.ndarray, rho: int, steps: int) -> tuple[list[int], list[int]]:
    """mu_A, ascending, and s_0 .. s_(d-1), d = deg mu_A, for
    `minpoly_spectrum`: the first prime's degree, the CRT primes' residues
    and the lift, each prime dropped or the search restarted as that
    function's docstring says. Every prime comes from `_prime_stream(2 n + 1)`,
    so a sum of up to 2 n + 1 products of residues stays in int64."""
    m = len(weights)
    stream = _prime_stream(2 * int(weights.sum()) + 1)
    # bits of m^(m/2) rho^(3m(m-1)/2), above the Hankel determinant that every unlucky prime divides
    unlucky_bits = m * m.bit_length() // 2 + 3 * m * (m - 1) // 2 * max(rho, 1).bit_length()
    restarts = 0
    while True:
        low = next(stream)  # the last prime drawn, the smallest so far
        first = np.array([low], dtype=np.int64)
        t = steps
        while True:
            length, mu, s, certified = _certified_minpolys(quotient, weights, first, t)
            if certified[0] or t == m:
                break
            t = min(2 * t, m)
        if certified[0]:
            d = int(length[0])
            primes, rows = [low], [np.concatenate([mu[0, : d + 1], s[0, :d]])]
            modulus, bound = low, (2 * rho + 1) ** d
            while modulus <= 2 * bound:
                batch, reach = [], modulus
                while reach <= 2 * bound:
                    batch.append(next(stream))
                    reach *= batch[-1]
                low = batch[-1]
                length, mu, s, certified = _certified_minpolys(quotient, weights, np.array(batch, dtype=np.int64), d)
                kept = np.flatnonzero(certified & (length == d)).tolist()
                if not kept:
                    break  # q or the first prime unlucky, for every q of the batch
                for i in kept:
                    primes.append(batch[i])
                    rows.append(np.concatenate([mu[i, : d + 1], s[i, :d]]))
                    modulus *= batch[i]
            else:
                lifted = _crt_lift(np.array(rows), primes, modulus)
                if all(abs(c) <= comb(d, j) * rho ** (d - j) for j, c in enumerate(lifted[: d + 1])):
                    return lifted[: d + 1], lifted[d + 1 :]
        restarts += 1  # each restart spends a distinct unlucky prime, at least `low`
        if restarts * (low.bit_length() - 1) > unlucky_bits:
            raise ArithmeticError(f"{restarts} restarts: more unlucky primes than a Cayley colour graph has")


def _power_product(parts: list[tuple[list[int], int]]) -> list[int]:
    """The ascending coefficients of prod q^j over (q, j) in `parts`, by
    Kronecker substitution at a base above twice prod |q|_1^j, a bound on
    every coefficient of the product."""
    k = _width(2 * prod(sum(map(abs, q)) ** j for q, j in parts))
    return _unpack(prod(_pack(q, k) ** j for q, j in parts), k)


def minpoly_spectrum(quotient: np.ndarray, weights: np.ndarray, rho: int, degree_bound: int) -> SpectrumReport:
    """Exact spectrum of a Cayley colour graph's adjacency matrix A = [f(a b^-1)],
    f symmetric on a group of order n, read from its minimal polynomial
    mu = mu_A and its power sums: the power-sum engine's second read-out,
    run on the inverse-pair quotient.

    The Krylov vectors A^t e_0 = f^(*t) are constant on each pair {x, x^-1}
    (f(x^-1) = f(x) gives f^(*t)(x^-1) = f^(*t)(x)), so they need one
    coordinate per pair: `quotient` is the exact (m, m) row operator with
    e_0 quotient^t = A^t e_0 on the pairs, coordinate 0 the identity's
    (`spectra.pair_quotient`), and weights[o] the size of pair o, so that
    s_t = (A^t)[0, 0] is the weighted <v_i, v_j>, i + j = t. rho = sum |f|
    bounds every |eigenvalue| and every |(A^t e_0)[x]| by rho^t;
    `degree_bound`, a bound on deg mu, sets the first prime's step count.

    Soundness:
    - Translation invariance: q(A) commutes with every right translation,
      so its column q(A) e_0 determines it, and q(A) e_0 = 0 gives q(A) = 0.
      So mu is the minimal polynomial of the vector sequence A^t e_0.
    - BM minimality on the first prime p: Berlekamp-Massey on s_0 ..
      s_(2t-1) mod p gives a monic mu_p of degree L at most the degree of
      the scalar sequence's minimal polynomial mod p. The annihilation
      certificate e_0 mu_p(A) = 0 mod p makes mu_p a multiple of the vector
      sequence's minimal polynomial mod p, which the scalar one divides; so
      mu_p is that polynomial, and it divides mu mod p: d = L <= deg mu.
      The step count t starts at `degree_bound` and doubles up to m; a
      prime that fails at m restarts the search on the next.
    - Lucky primes: over Q the scalar sequence s_k = sum_lambda
      |P_lambda e_0|^2 lambda^k has minimal polynomial mu, as its weights
      are positive, so the Hankel determinant H = det [s_(i+j)], i, j <
      deg mu, is not 0. A prime that does not divide H admits no shorter
      recurrence, so there mu mod p is the scalar sequence's minimal
      polynomial: a first prime meets the certificate with d = deg mu once
      t >= deg mu, and a CRT prime certifies mu mod q of degree d. Every
      unlucky prime divides H.
    - The other primes run d steps. A certified mu_q of degree d is the
      vector sequence's minimal polynomial mod q, so mu mod q when the
      first prime is lucky. An uncertified mu_q, or a certified one of
      lower degree, shows that q or the first prime is unlucky: q is
      dropped, and a batch that keeps no prime restarts the search on a
      new first prime.
    - The coefficient bound and the CRT step: the primes' product M exceeds
      2 (2 rho + 1)^d, above twice every |s_k| <= rho^k, k < d, and twice
      every C(d, k) rho^(d-k), which bounds |mu_k| since mu = prod (x - lambda)
      over distinct eigenvalues. A lift that meets |mu_k| <= C(d, k) rho^(d-k)
      has |(e_0 mu(A))[x]| <= sum_k C(d, k) rho^(d-k) rho^k = (2 rho)^d < M,
      and e_0 mu(A) = 0 mod M, so e_0 mu(A) = 0 over Z: mu_A divides the
      lift, of degree d <= deg mu_A, so the lift is mu_A. A lift that fails
      the bound restarts the search on a new first prime.
    - Termination: each restart comes from an unlucky first prime or from
      a batch of unlucky primes, so it spends a distinct prime that divides
      H. By Hadamard's inequality with |s_k| <= rho^k, |H| is below
      m^(m/2) rho^(3m(m-1)/2), so fewer than log of that over log p of them
      lie above p. A search with more restarts than that, p the last prime
      drawn, raises ArithmeticError: only an operator that is not a Cayley
      colour graph's quotient can make one.
    - Multiplicities: A is symmetric, so chi_A = prod (x - lambda)^m_lambda
      and chi_A'/chi_A = sum m_lambda/(x - lambda) = sum_k p_k x^(-k-1),
      p_k = tr(A^k) = n s_k. N = mu chi_A'/chi_A = sum m_lambda mu/(x - lambda)
      is a polynomial of degree d - 1, the polynomial part of
      mu sum_(k<d) p_k x^(-k-1), and N(lambda) = m_lambda mu'(lambda), with
      mu'(lambda) != 0 as mu is squarefree. So an integer root has
      multiplicity N(lambda)/mu'(lambda), and the part of multiplicity j of
      the residual is h_j = gcd(r, N - j mu'), r the product of the
      non-integer linear factors of mu: for j = 1, 2, ... until the
      multiplicities left equal j deg r, and then h_j = r.

    The integer roots are screened on mu, of degree d, by `integer_spectrum`.
    The report keeps the squarefree parts it found, and its residual is
    their product prod h_j^j. No float is used.
    """
    n = int(weights.sum())
    mu, s = _minimal_polynomial(quotient, weights, rho, min(degree_bound, len(weights)))
    d = len(mu) - 1
    sums = [n * x for x in s]
    numer = [sum(mu[j + k + 1] * sums[k] for k in range(d - j)) for j in range(d)]
    deriv = [i * c for i, c in enumerate(mu)][1:]
    linear = integer_spectrum(IntPolynomial(tuple(mu)), bound=rho)
    at_numer, at_deriv = IntPolynomial(tuple(numer)), IntPolynomial(tuple(deriv))
    eigen = []
    for lam, _ in linear.integer_eigenvalues:
        mult, rem = divmod(at_numer(lam), at_deriv(lam))
        if rem or mult < 1:
            raise ArithmeticError(f"N({lam}) / mu'({lam}) is not a multiplicity")
        eigen.append((lam, mult))
    parts, rest, left, j = [], list(linear.residual.coeffs), n - sum(m for _, m in eigen), 0
    while len(rest) > 1:
        j += 1
        if left <= j * (len(rest) - 1):
            if left < j * (len(rest) - 1):
                raise ArithmeticError(f"{left} multiplicities left for {len(rest) - 1} roots of multiplicity >= {j}")
            parts.append((rest, j))
            left = 0
            break
        h, cofactor, _ = _gcd_cofactors(rest, [a - j * b for a, b in zip(numer, deriv)])
        if len(h) > 1:
            parts.append((h, j))
            rest, left = cofactor, left - j * (len(h) - 1)
    if left:
        raise ArithmeticError(f"{left} multiplicities left over")
    return SpectrumReport(
        degree=n,
        integer_eigenvalues=tuple(eigen),
        residual=IntPolynomial(tuple(_power_product(parts))),
        is_integral=not parts,
        squarefree_parts=tuple((IntPolynomial(tuple(q)), j) for q, j in parts),
    )


# ---------------------------------------------------------------------------
# Algebraic integers of Q(zeta_e) as power-basis coordinate vectors
# ---------------------------------------------------------------------------


def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the e-th cyclotomic polynomial, 0 < e < 2^26, in
    Python ints: the product of (x^d - 1)^mu(e/d) over d | e, each numerator factor a
    shift and a subtraction, each denominator one a running sum with stride d."""
    primes = _prime_factors(e)
    factors = [(e // prod(s), r % 2) for r in range(len(primes) + 1) for s in combinations(primes, r)]
    f = np.ones(1, dtype=object)
    for d, odd in sorted(factors, key=lambda t: t[1]):  # numerator first, so every division is exact
        zeros = np.zeros(d, dtype=object)
        if odd:
            f = -np.cumsum(np.concatenate([f, zeros[: -len(f) % d]]).reshape(-1, d), axis=0).ravel()[: len(f) - d]
        else:
            f = np.concatenate([zeros, f]) - np.concatenate([f, zeros])
    return tuple(f.tolist())


class _CycloContext:
    """Per-conductor data: Phi_e, `power_array` (row j the power-basis
    coordinates of zeta^j, for j below max(e, 2 phi - 1); its first
    2 phi - 1 rows take the coefficients of a product of two vectors back
    onto phi) and the fixed integer maps on power-basis coefficient vectors
    (row vectors, applied on the right): `conj_map` (row m is zeta^-m) and
    `galois_map(h)` (row m is zeta^(m h)). The arrays follow the
    `exact_array` dtype rule."""

    __slots__ = ("e", "phi", "modulus", "power_array", "conj_map")

    def __init__(self, e: int):
        self.e = e
        self.modulus = cyclotomic_polynomial(e)
        self.phi = len(self.modulus) - 1
        top = [-c for c in self.modulus[: self.phi]]  # x^phi mod Phi_e
        count = max(e, 2 * self.phi - 1)
        flat: list[int] = []
        vec = [1] + [0] * (self.phi - 1)
        for _ in range(count):
            flat.extend(vec)
            carry = vec[-1]
            vec = [0] + vec[:-1]
            if carry:
                vec = [v + carry * t for v, t in zip(vec, top)]
        self.power_array = exact_array(flat).reshape(count, self.phi)
        self.power_array.flags.writeable = False
        self.conj_map = self.galois_map(-1)

    def galois_map(self, h: int) -> np.ndarray:
        """The phi x phi matrix of zeta -> zeta^h, h a unit mod e."""
        if gcd(h, self.e) != 1:
            raise NotAUnit(f"{h} is not a unit modulo {self.e}")
        return self.power_array[np.arange(self.phi) * h % self.e]


_CONTEXTS: dict[int, _CycloContext] = {}


def _context(e: int) -> _CycloContext:
    ctx = _CONTEXTS.get(e)
    if ctx is None:
        ctx = _CycloContext(e)
        _CONTEXTS[e] = ctx
    return ctx
