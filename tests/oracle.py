"""Reference implementations that the production kernels are tested against.

`Cyclotomic` is the reference arithmetic of Q(zeta_e): a number as a
vector of `Fraction`s over the power basis, reduced mod Phi_e, with field
operations done one coordinate at a time. It lived in `cayint.linalg` until
the integer power-basis arrays became the only form of a cyclotomic number
in `cayint`; `cyclotomic_rows` wraps a table's coefficient cells in it, and
its `str` is the cell text that `CharacterTable.cell_strings` prints.
`berkowitz` is the division-free Berkowitz recurrence on Python integers that
`linalg.charpoly` used before the multi-modular kernel; `integer_roots_scan`
is `integer_spectrum`'s candidate scan without the divisibility filter;
`power`, `eigenvalue_sum` and `reconstruct` are the test-only
`IntPolynomial.__pow__`, `SpectrumReport.eigenvalue_sum` and
`SpectrumReport.reconstruct` that left `cayint`, as did
`spectrum_characters` (the character route of a class function's
spectrum), `integrality_by_criterion` (the power-map criterion on one
colour function, with its `NotAClassFunction`) and `from_class_values`,
which only the tests read; `squarefree_sympy` is
`squarefree_factorization` as it ran on sympy's `sqf_list`;
`massey_scalar` is Berlekamp-Massey on one prime in Python ints, the
reference of the minimal-polynomial read-out's `linalg._massey`, and
`newton_report` the Newton read-out that every colour function's spectrum
took before that read-out, its oracle;
`fcci_spectra_direct` is FCCI's exhaustive spectral route as it ran before
it was read off the normal-set survey; `normal_set_survey_rows` is the
survey as it ran before it was decided orbit by orbit, every one of the 2^r
unions of real-class orbits on its own exact k x k class-algebra charpoly
and the scan of `integer_spectrum`, `orbit_verdicts` the same decision on
each orbit alone, as the survey ran before it decided on one prime with
an exact check, with `charpolys`, the multi-modular batch that ran it, and
`normal_set_survey_matrix` the same rows as they ran before the class
algebra, one |G| x |G| charpoly per row; `ci_brute_scan` is the CI brute
force as it ran before it decided its sets in batches on one prime, each
set on its own exact spectrum; `class_function_scan` and
`is_normal_set` loop over every conjugate, the references for
`groups.conjugation_invariant`; `criterion_scan`,
`fcci_criterion_scan` and `semi_rational_scan` are the element-by-element
power-map loops, and `rational_scan` and `inverse_semi_rational_scan` the
atom walks, that the partition's unit power maps
(`ConjugacyPartition.powers`) replaced; `routes_agree`
compares the matrix route of a class function's spectrum with its
character route, expanded by `expand_character_coeffs` on power-basis
integer coordinates in Z[zeta_e][x], which `expand_character_poly`, the
same product in `Cyclotomic` arithmetic, checks; `verify_table_fraction` is the
character-table verifier that cell-by-cell `Cyclotomic` arithmetic in
`Fraction`s ran before `chartable._verify_table` became integer contractions;
`verify_table_integer` is those contractions, both orthogonality relations
as exact sums in Z[zeta_e] (`_pair_sums`), as they ran before the verifier
worked modulo primes through the table's Galois-equivariant embeddings.
`galois_on_characters` is the exact Galois check of one unit that the
verifier's equivariance step now covers for every unit; `eulerian_check`
(the atom decomposition of a set), `save_function` and `power_map` are
reference code that no verdict reads.
`rref_mod` and `kernel_mod` are the pure-Python eliminations over F_p that
`linalg.eliminate_mod` replaced, and `split_eigenspaces` is the character
tables' eigenspace splitting as it ran on them before they split vectors
by Krylov projections: every subspace reduced
again before every class matrix, and every restriction, scalar or not,
split by its charpoly's roots, found by a scan of F_p.

The group-table oracles below are the scalar loops over a tuple-of-tuples
table that the array code in `cayint.groups` replaced. Each reads the table
as nested lists (`g.table.tolist()`) and otherwise runs as it did. Two are
array code: `closure`, the subgroup closure as it ran before it squared
small frontiers, one round of right multiplication by the generators per
word length, and `element_orders`, the orders as `build_group` found them
before it walked one cyclic subgroup at a time, one round for all elements
per power; `inverses` is the scalar scan for each element's inverse.
`conjugacy_classes` also builds the unit power maps, one `g.power` per
unit and class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from operator import mul as _mul
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from cayint.chartable import CharacterTable, VerificationFailed, _absmax, _apply
from cayint.classify import (
    CI_EXHAUSTIVE_MAX_ORDER,
    CI_SAMPLED_MAX_ORDER,
    CI_SAMPLES,
    _inverse_pairs,
    _lift_unit,
    _subsets,
)
from cayint.groups import Atom, ConjugacyPartition, FiniteGroup, NotAGroup, NotNormal, atom, build_group, conjugacy_classes
from cayint.linalg import (
    _INT64,
    IntMatrix,
    IntPolynomial,
    NotAUnit,
    SpectrumReport,
    _context,
    _crt_lift,
    _hadamard_bound,
    _primes_for,
    cayley_charpoly,
    charpoly,
    charpoly_mod,
    exact_array,
    integer_spectrum,
)
from cayint.spectra import (
    ConnectionFunction,
    NotSymmetricFunction,
    _asym_witness,
    adjacency as _adjacency,
    spectrum_matrix,
)


class NotRational(ValueError):
    """A cyclotomic number whose canonical form has positive degree."""

    def __init__(self, value: "Cyclotomic"):
        super().__init__(f"not rational: {value!r}")
        self.value = value


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
        return cls(e, ctx.power_array[k % e].tolist())

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
                for i, t in enumerate(ctx.power_array[m * step].tolist()):
                    if t:
                        acc[i] += c * t
        return Cyclotomic(big, acc)

    def _pair(self, other: "Cyclotomic | int | Fraction") -> tuple["Cyclotomic", "Cyclotomic"]:
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(other)
        e = lcm(self.e, other.e)
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
                for i, t in enumerate(ctx.power_array[j].tolist()):
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
                for i, t in enumerate(ctx.power_array[(m * h) % self.e].tolist()):
                    if t:
                        acc[i] += c * t
        return Cyclotomic(self.e, acc)

    def conj(self) -> "Cyclotomic":
        if self.e <= 2:
            return self
        return self.galois(self.e - 1)

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


def cyclotomic_rows(e: int, x: np.ndarray) -> list[list[Cyclotomic]]:
    """Every cell of a (k, k, phi(e)) coefficient array, such as a character
    table's `coeffs`, as a `Cyclotomic` of conductor e."""
    return [[Cyclotomic(e, cell) for cell in row] for row in x.tolist()]


def berkowitz(m: IntMatrix) -> IntPolynomial:
    """Exact monic characteristic polynomial det(xI - M), by Berkowitz.

    The recurrence extends the characteristic vector of each leading
    principal submatrix by a lower-triangular Toeplitz multiply whose
    column entries are -R A^j S for the new border row R and column S.
    Division-free, so all intermediates stay integers.
    """
    rows = m.entries.tolist()
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


def shift_root(p: IntPolynomial, r: int) -> tuple[IntPolynomial, int]:
    """Synthetic division by (x - r): returns (quotient, remainder)."""
    c = p.coeffs
    if not c:
        return IntPolynomial(()), 0
    q: list[int] = [0] * (len(c) - 1)
    acc = c[-1]
    for k in range(len(c) - 2, -1, -1):
        q[k] = acc
        acc = c[k] + r * acc
    return IntPolynomial(tuple(q)), acc


def power(p: IntPolynomial, k: int) -> IntPolynomial:
    """p^k by k products; `IntPolynomial.__pow__` before it left `cayint`."""
    out = IntPolynomial((1,))
    for _ in range(k):
        out = out * p
    return out


def eigenvalue_sum(rep: SpectrumReport) -> int:
    """The sum of a report's eigenvalues with multiplicity, its integer
    eigenvalues' plus the residual's root sum (minus its x^(d-1) coefficient)."""
    return sum(v * m for v, m in rep.integer_eigenvalues) - (
        rep.residual.coeffs[-2] if rep.residual.degree >= 1 else 0
    )


def reconstruct(rep: SpectrumReport) -> IntPolynomial:
    """The polynomial a report splits: its residual times (x - v)^m for each
    integer eigenvalue v of multiplicity m."""
    out = rep.residual
    for v, m in rep.integer_eigenvalues:
        out = out * power(IntPolynomial((-v, 1)), m)
    return out


def squarefree_sympy(p: IntPolynomial) -> tuple[tuple[IntPolynomial, int], ...]:
    """`linalg.squarefree_factorization` as it ran on sympy's squarefree
    decomposition over ZZ."""
    import sympy

    if not p.is_monic:
        raise ValueError("squarefree_factorization requires a monic polynomial")
    _, parts = sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"), domain="ZZ").sqf_list()
    return tuple(
        (IntPolynomial(tuple(int(c) for c in reversed(q.all_coeffs()))), m) for q, m in parts
    )


def massey_scalar(seq: Sequence[int], p: int) -> tuple[list[int], int]:
    """Berlekamp-Massey on one sequence modulo p in Python ints, as Massey
    (1969) states it: the least connection polynomial's ascending
    coefficients, trailing zeros kept, and its length."""
    c, b, length, shift, last = [1], [1], 0, 1, 1
    for r, x in enumerate(seq):
        disc = (x + sum(c[i] * seq[r - i] for i in range(1, min(len(c), r + 1)))) % p
        if disc == 0:
            shift += 1
            continue
        coef = disc * pow(last, -1, p) % p
        new = c + [0] * max(0, len(b) + shift - len(c))
        for i, y in enumerate(b):
            new[i + shift] = (new[i + shift] - coef * y) % p
        if 2 * length <= r:
            b, length, last, shift = c, r + 1 - length, disc, 1
        else:
            shift += 1
        c = new
    return c, length


def newton_report(g: FiniteGroup, f: ConnectionFunction) -> SpectrumReport:
    """`spectrum_matrix`'s Newton read-out, which every colour function took
    before the minimal-polynomial read-out: the exact charpoly from all n
    power sums, then `integer_spectrum`."""
    m = _adjacency(g, f)
    return integer_spectrum(cayley_charpoly(m), bound=m.gershgorin_bound())


def integer_roots_scan(p: IntPolynomial, bound: int) -> tuple[tuple[int, int], ...]:
    """Integer roots of a monic p with multiplicity, descending, by trying
    every integer in [-bound, bound] with synthetic division."""
    found: dict[int, int] = {}
    work = p
    for r in range(bound, -bound - 1, -1):
        while work.degree > 0:
            q, rem = shift_root(work, r)
            if rem != 0:
                break
            work = q
            found[r] = found.get(r, 0) + 1
    return tuple(sorted(found.items(), key=lambda kv: -kv[0]))


def roots_mod_scan(coeffs: list[list[int]], lo: list[int], hi: list[int], p: int) -> list[tuple[int, int]]:
    """`linalg.roots_mod` point by point: every (i, x) with lo[i] <= x <= hi[i]
    at which row i of the ascending coefficients vanishes mod p, by a Horner
    loop on Python ints, row after row and x ascending."""
    out = []
    for i, (row, a, b) in enumerate(zip(coeffs, lo, hi)):
        for x in range(a, b + 1):
            acc = 0
            for c in reversed(row):
                acc = (acc * x + c) % p
            if acc == 0:
                out.append((i, x))
    return out


def expand_character_poly(pairs: Sequence[tuple[Cyclotomic, int]]) -> list[Cyclotomic]:
    """Expand prod (x - lambda)^mult as ascending coefficients in Q(zeta)."""
    coeffs: list[Cyclotomic] = [Cyclotomic.rational(1)]
    for lam, mult in pairs:
        for _ in range(mult):
            nxt = [(-lam) * coeffs[0]]
            for i in range(1, len(coeffs)):
                nxt.append(coeffs[i - 1] + (-lam) * coeffs[i])
            nxt.append(coeffs[-1])
            coeffs = nxt
    return coeffs


def expand_character_coeffs(pairs: Sequence[tuple[Sequence[int], int]], e: int) -> np.ndarray:
    """`expand_character_poly` on integers: prod (x - lambda)^mult as a
    (degree + 1, phi(e)) array of Python ints, row i the power-basis
    coordinates of the x^i coefficient in Z[zeta_e]. Each lambda is given by
    its integer power-basis coordinates in Z[zeta_e], as
    `spectrum_characters` returns them; each product of coordinate vectors
    is reduced by the first 2 phi - 1 rows of `_context(e).power_array`."""
    ctx = _context(e)
    phi = ctx.phi
    reduction = ctx.power_array[: 2 * phi - 1].astype(object)
    coeffs = np.zeros((1, phi), dtype=object)
    coeffs[0, 0] = 1
    for lam, mult in pairs:
        for _ in range(mult):
            # (x - lambda) * c: c shifted up one degree, minus lambda * c
            conv = np.zeros((len(coeffs), 2 * phi - 1), dtype=object)
            for t, a in enumerate(lam):
                if a:
                    conv[:, t : t + phi] += a * coeffs
            nxt = np.zeros((len(coeffs) + 1, phi), dtype=object)
            nxt[1:] = coeffs
            nxt[:-1] -= conv.dot(reduction)
            coeffs = nxt
    return coeffs


def routes_agree(g: FiniteGroup, f: ConnectionFunction, table: CharacterTable) -> bool:
    """Exact dual-route check: the character-route product polynomial must
    equal the matrix-route characteristic polynomial coefficient by coefficient."""
    expanded = expand_character_coeffs(spectrum_characters(g, f, table), table.conductor)
    p = charpoly(_adjacency(g, f))
    if len(expanded) != len(p.coeffs) or expanded[:, 1:].any():
        return False
    return expanded[:, 0].tolist() == list(p.coeffs)


def verify_table_fraction(
    g: FiniteGroup,
    part: ConjugacyPartition,
    degrees: Sequence[int],
    rows: Sequence[Sequence[Cyclotomic]],
) -> None:
    """The degree equation, chi(g^-1) = conj(chi(g)) and both orthogonality
    relations, one `Cyclotomic` product at a time; raises VerificationFailed."""
    n = g.n
    k = part.k
    sizes = part.sizes()
    inv_cls = part.inverse_class
    if sum(d * d for d in degrees) != n:
        raise VerificationFailed(f"degree equation failed: {degrees} for |G|={n}")
    for d in degrees:
        if n % d != 0:
            raise VerificationFailed(f"degree {d} does not divide |G|={n}")
    conj_rows = [[v.conj() for v in row] for row in rows]
    for r, row in enumerate(rows):
        for j in range(k):
            if row[inv_cls[j]] != conj_rows[r][j]:
                raise VerificationFailed(f"chi(g^-1) != conj(chi(g)) at row {r}, class {j}")
    for r in range(k):
        for s in range(r, k):
            acc = Cyclotomic.rational(0)
            for j in range(k):
                acc = acc + sizes[j] * (rows[r][j] * conj_rows[s][j])
            want = n if r == s else 0
            if acc != want:
                raise VerificationFailed(f"row orthogonality failed at ({r},{s})")
    for i in range(k):
        for j in range(i, k):
            acc = Cyclotomic.rational(0)
            for r in range(k):
                acc = acc + rows[r][i] * conj_rows[r][j]
            want = Fraction(n, sizes[i]) if i == j else Fraction(0)
            if acc != Cyclotomic.rational(want):
                raise VerificationFailed(f"column orthogonality failed at ({i},{j})")


def _first_mismatch(got: np.ndarray, want: np.ndarray) -> tuple[int, int] | None:
    bad = np.argwhere((got != want).any(axis=2))
    return tuple(bad[0].tolist()) if len(bad) else None


def _pair_sums(left: np.ndarray, right: np.ndarray, reduction: np.ndarray) -> np.ndarray:
    """out[i, j] = sum_t left[t, i] * right[t, j] in Z[zeta_e], for (t, ., phi)
    coefficient arrays: a convolution accumulated one coefficient of `left`
    at a time, so no intermediate exceeds O(k^2 phi) entries, then reduced
    onto the power basis. The caller picks the dtype (see
    `verify_table_integer`)."""
    t, ni, phi = left.shape
    nj = right.shape[1]
    flat = right.reshape(t, nj * phi)
    conv = np.zeros((ni, nj, 2 * phi - 1), dtype=left.dtype)
    for a in range(phi):
        conv[:, :, a : a + phi] += (left[:, :, a].T @ flat).reshape(ni, nj, phi)
    return conv @ reduction


def verify_table_integer(
    g: FiniteGroup,
    part: ConjugacyPartition,
    degrees: Sequence[int],
    x: np.ndarray,
) -> None:
    """The degree equation, chi(g^-1) = conj(chi(g)) and both orthogonality
    relations exactly on the (k, k, phi) coefficient array x, as sums in
    Z[zeta_e] in O(k^3 phi^2) time; raises VerificationFailed.

    The dtype of the orthogonality sums is chosen before any product: each
    output coordinate is a sum of at most (2 phi - 1) phi |G| products
    |x| |conj x| |reduction|, and with |conj x| <= phi max|x| max|conj_map|
    the bound 2 |G| phi^2 max|x| (phi max|x| max|conj_map|) max|reduction|
    decides between int64 and Python ints.
    """
    n = g.n
    k = part.k
    sizes = np.array(part.sizes(), dtype=np.int64)
    if sum(d * d for d in degrees) != n:
        raise VerificationFailed(f"degree equation failed: {degrees} for |G|={n}")
    for d in degrees:
        if n % d != 0:
            raise VerificationFailed(f"degree {d} does not divide |G|={n}")
    ctx = _context(g.exponent())
    phi = ctx.phi
    reduction = ctx.power_array[: 2 * phi - 1]
    big = _absmax(x)
    bound = 2 * n * phi * phi * big * (phi * big * _absmax(ctx.conj_map)) * _absmax(reduction)
    if bound >= _INT64:
        x = x.astype(object)
    conj = _apply(x, ctx.conj_map)
    bad = _first_mismatch(x[:, part.inverse_class], conj)
    if bad is not None:
        raise VerificationFailed("chi(g^-1) != conj(chi(g)) at row {}, class {}".format(*bad))
    want = np.zeros((k, k, phi), dtype=x.dtype)
    want[:, :, 0] = np.diag(np.full(k, n))
    weighted = (x * sizes[:, None]).transpose(1, 0, 2)  # |C_j| chi_r(j), j first
    bad = _first_mismatch(_pair_sums(weighted, conj.transpose(1, 0, 2), reduction), want)
    if bad is not None:
        raise VerificationFailed("row orthogonality failed at ({},{})".format(*bad))
    want[:, :, 0] = np.diag(n // sizes)
    bad = _first_mismatch(_pair_sums(x, conj, reduction), want)
    if bad is not None:
        raise VerificationFailed("column orthogonality failed at ({},{})".format(*bad))


class GaloisMismatch(RuntimeError):
    """A Galois-twisted row disagreed with the power-mapped row."""


def galois_on_characters(table: CharacterTable, h: int) -> tuple[int, ...]:
    """Verify that twisting values by zeta -> zeta^h, h a unit, equals reading
    each row at power-mapped classes; returns that class permutation."""
    part, e = table.partition, table.conductor
    twist = _context(e).galois_map(h)  # NotAUnit for a non-unit h
    perm = tuple(part.powers[part.units.index(h % e or 1)].tolist())  # mod 1, every h is the unit 1
    x = table.coeffs
    bad = _first_mismatch(_apply(x, twist), x[:, perm])
    if bad is not None:
        raise GaloisMismatch("row {}, class {}, twist {}".format(*bad, h))
    return perm


def eulerian_check(g: FiniteGroup, subset: Iterable[int]) -> tuple[bool, tuple[Atom, ...] | Atom]:
    """Is the subset a union of atoms? Returns the atom decomposition, or the
    first atom that escapes the subset."""
    elems = set(subset)
    seen: set[int] = set()
    decomposition: list[Atom] = []
    for s in sorted(elems):
        if s in seen:
            continue
        a = atom(g, s)
        if any(x not in elems for x in a.members):
            return False, a
        seen.update(a.members)
        decomposition.append(a)
    return True, tuple(decomposition)


def save_function(f: ConnectionFunction, path: str | Path) -> None:
    """The `f <n>` format that `spectra.load_function` reads."""
    body = "\n".join(str(v) for v in f.values)
    Path(path).write_text(f"f {f.group.n}\n{body}\n", encoding="utf-8")


@dataclass(frozen=True)
class PowerMap:
    """The map g -> g^h; a permutation exactly when gcd(h, exponent) = 1."""

    h: int
    images: tuple[int, ...]
    is_permutation: bool


def power_map(g: FiniteGroup, h: int) -> PowerMap:
    images = tuple(g.power(x, h) for x in g.elements())
    return PowerMap(h, images, gcd(h, g.exponent()) == 1)


def fcci_spectra_direct(
    g: FiniteGroup, part: ConjugacyPartition
) -> tuple[bool, int, list[int] | None]:
    """Every 0/1 function on real classes, the identity's included, by
    ascending bitmask (bit i selects `part.real_classes[i]`), until the first
    non-integral spectrum: (all integral, spectra computed, that function's
    values)."""
    orbits = part.real_classes
    for take in range(1 << len(orbits)):
        class_values = [0] * part.k
        for i, orbit in enumerate(orbits):
            if take >> i & 1:
                for j in orbit:
                    class_values[j] = 1
        f = from_class_values(g, part, class_values)
        if not spectrum_matrix(g, f).is_integral:
            return False, take + 1, list(f.values)
    return True, 1 << len(orbits), None


@dataclass(frozen=True)
class NormalSetRow:
    class_indices: tuple[int, ...]  # non-identity real-class orbits used
    size: int
    eulerian: bool
    integral: bool

    @property
    def match(self) -> bool:
        return self.eulerian == self.integral


@dataclass(frozen=True)
class NormalSetRows:
    rows: tuple[NormalSetRow, ...]
    mismatches: tuple[NormalSetRow, ...]

    @property
    def all_integral(self) -> bool:
        return all(r.integral for r in self.rows)

    def first_non_integral(self) -> int | None:
        """Index of the first non-integral row, in ascending mask order."""
        return next((i for i, r in enumerate(self.rows) if not r.integral), None)


def _orbit_unions(part: ConjugacyPartition) -> list[tuple[int, ...]]:
    """The classes of every union of non-identity real-class orbits, by
    ascending mask: bit i selects orbit i."""
    orbits = [rc for rc in part.real_classes if rc != (0,)]
    return [
        tuple(j for i, orbit in enumerate(orbits) if take >> i & 1 for j in orbit)
        for take in range(1 << len(orbits))
    ]


def _row(g: FiniteGroup, part: ConjugacyPartition, classes: tuple[int, ...], integral: bool) -> NormalSetRow:
    members = [x for j in classes for x in part.classes[j]]
    eulerian = eulerian_check(g, members)[0] if members else True
    return NormalSetRow(classes, len(members), eulerian, integral)


def _rows(rows: list[NormalSetRow]) -> NormalSetRows:
    return NormalSetRows(tuple(rows), tuple(r for r in rows if not r.match))


def charpolys(stack: np.ndarray) -> list[IntPolynomial]:
    """Exact charpolys of a (b, n, n) int64 stack, n >= 1: `charpoly_mod`
    on the whole stack modulo each of `charpoly`'s primes for the largest
    Hadamard bound, and one CRT lift per matrix."""
    primes, modulus = _primes_for(stack.shape[1], max(_hadamard_bound(m) for m in stack))
    residues = np.stack([charpoly_mod(stack, p) for p in primes], axis=1)
    return [IntPolynomial(tuple(_crt_lift(r, primes, modulus))) for r in residues]


def _integral_unions(g: FiniteGroup, part: ConjugacyPartition, unions: list[tuple[int, ...]]) -> list[bool]:
    """Whether each union of classes S is integral, decided on the
    class-algebra matrix B_S = sum_(j in S) M_j, whose eigenvalues are the
    distinct ones of the adjacency matrix, bounded by |S|, by its exact
    charpoly and the scan of `integer_spectrum`; one multi-prime batch
    (`charpolys`)."""
    if not unions:
        return []
    mats = np.stack(class_matrices(g, part))
    polys = charpolys(np.stack([mats[list(c)].sum(axis=0) for c in unions]))
    sizes = part.sizes()
    return [integer_spectrum(poly, bound=sum(sizes[j] for j in c)).is_integral for c, poly in zip(unions, polys)]


SURVEY_ROWS_MAX_ORBITS = 12  # 2^12 k x k matrices at most; 2^19 of Q8xZ3xZ2 would need about 3.8 GB


def normal_set_survey_rows(g: FiniteGroup, part: ConjugacyPartition) -> NormalSetRows:
    """Every normal inverse-closed subset of G minus the identity, with its
    Eulerian and integrality verdicts (`_integral_unions`). Raises
    ValueError, before it builds anything, above SURVEY_ROWS_MAX_ORBITS
    orbits."""
    r = len(part.real_classes) - 1
    if r > SURVEY_ROWS_MAX_ORBITS:
        raise ValueError(f"{r} real-class orbits: 2^{r} unions exceed the oracle's {SURVEY_ROWS_MAX_ORBITS}")
    unions = _orbit_unions(part)
    return _rows([_row(g, part, c, ok) for c, ok in zip(unions, _integral_unions(g, part, unions))])


def orbit_verdicts(g: FiniteGroup, part: ConjugacyPartition) -> tuple[bool, ...]:
    """The integrality of each non-identity real-class orbit alone, decided
    as `normal_set_survey_rows` decides its rows: the survey's `integral`,
    on groups with too many orbits for every union."""
    return tuple(_integral_unions(g, part, [rc for rc in part.real_classes if rc != (0,)]))


def class_function_scan(g: FiniteGroup, values: Sequence[int]) -> bool:
    """`ConnectionFunction.class_function`: every conjugate x s x^-1 of every
    element s carries the value of s."""
    t, inv = g.table.tolist(), g.inv
    return all(values[t[t[x][s]][inv[x]]] == values[s] for s in g.elements() for x in g.elements())


def normal_set_survey_matrix(g: FiniteGroup, part: ConjugacyPartition) -> NormalSetRows:
    """`normal_set_survey_rows` with each row decided by the spectrum of its
    |G| x |G| adjacency matrix."""
    rows = []
    for c in _orbit_unions(part):
        f = ConnectionFunction.delta(g, [x for j in c for x in part.classes[j]])
        rows.append(_row(g, part, c, spectrum_matrix(g, f).is_integral))
    return _rows(rows)


def ci_brute_scan(g: FiniteGroup, seed: int = 0) -> tuple[str, bool | None, int, list[int] | None]:
    """`classify.ci_report`'s brute force as it ran before it decided its
    sets in batches on one prime: (mode, verdict, sets tried, witness set),
    every set drawn in the same order and decided alone by
    `spectrum_matrix`."""
    pairs = _inverse_pairs(g)
    if g.n <= CI_EXHAUSTIVE_MAX_ORDER:
        mode, subsets = "exhaustive", _subsets(pairs)
    elif g.n <= CI_SAMPLED_MAX_ORDER:
        rng = random.Random(f"{seed}:{g.name}:ci")
        mode, subsets = "sampled", ([p for p in pairs if rng.random() < 0.5] for _ in range(CI_SAMPLES))
    else:
        return "skipped", None, 0, None
    for tried, chosen in enumerate(subsets, start=1):
        members = [x for pair in chosen for x in pair]
        if not spectrum_matrix(g, ConnectionFunction.delta(g, members)).is_integral:
            return mode, False, tried, sorted(members)
    return mode, True, tried, None


class NotAClassFunction(ValueError):
    """Colour function is not constant on conjugacy classes."""


def from_class_values(g: FiniteGroup, part: ConjugacyPartition, class_values: Sequence[int]) -> ConnectionFunction:
    """The colour function that takes the value class_values[j] on class j."""
    return ConnectionFunction(g, [class_values[j] for j in part.class_of])


def spectrum_characters(
    g: FiniteGroup, f: ConnectionFunction, table: CharacterTable
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Closed-form eigenvalues for a class function: one per irreducible
    character chi, the power-basis coordinates in Z[zeta_conductor] of
    omega_chi(f) = (1/chi(1)) sum_g f(g) chi(g), with multiplicity chi(1)^2.

    The division by chi(1) is exact: omega_chi(f) is a sum of central
    characters, so an algebraic integer, and the power basis is a Z-basis of
    Z[zeta_e]. A remainder means a wrong table and raises VerificationFailed.
    """
    if not f.class_function:
        raise NotAClassFunction("character-route spectrum needs a class function")
    if table.group is not g and not g.same_table(table.group):
        raise ValueError("character table does not belong to this group")
    part = table.partition
    weights = exact_array([f.values[rep] * size for rep, size in zip(part.reps(), part.sizes())])
    # power-basis coordinates of sum_j w_j chi(g_j), in Python ints, one row per character
    sums = (table.coeffs.astype(object).transpose(0, 2, 1) @ weights).tolist()
    out = []
    for r, (d, row) in enumerate(zip(table.degrees, sums)):
        if any(c % d for c in row):
            raise VerificationFailed(f"character {r}: weighted sum {row} is not divisible by its degree {d}")
        out.append((tuple(c // d for c in row), d * d))
    return tuple(out)


def integrality_by_criterion(
    g: FiniteGroup, f: ConnectionFunction, part: ConjugacyPartition | None = None
) -> tuple[bool, tuple[int, int] | None]:
    """Power-map fixedness test: the colour graph of an integer symmetric
    class function is integral iff f(g^h) = f(g) for every unit h mod |G|.
    Returns (verdict, witness (g, h)) with the first failing pair, h first;
    g is the least member of the first failing class, since classes are
    ordered by least member (`part.units` gives h)."""
    if not f.class_function:
        raise NotAClassFunction("criterion applies to class functions")
    if not f.symmetric:
        raise NotSymmetricFunction(f"f({_asym_witness(f)}) differs on an inverse pair")
    part = part or conjugacy_classes(g)
    vals = exact_array(f.values)[list(part.reps())]
    moved = vals[part.powers] != vals
    first, j = divmod(int(moved.argmax()), part.k)  # row-major: the first unit, then the first class
    return (True, None) if not moved.any() else (False, (part.reps()[j], part.units[first]))


def _units(n: int) -> list[int]:
    return [h for h in range(2, n) if gcd(h, n) == 1]


def criterion_scan(g: FiniteGroup, f: ConnectionFunction) -> tuple[bool, tuple[int, int] | None]:
    """`integrality_by_criterion`'s verdict and witness: every unit
    h in [2, |G|), then every element x, until f(x^h) != f(x)."""
    for h in _units(g.n):
        for x in g.elements():
            if f.values[g.power(x, h)] != f.values[x]:
                return False, (x, h)
    return True, None


def fcci_criterion_scan(g: FiniteGroup, part: ConjugacyPartition) -> tuple[bool, tuple[int, int] | None]:
    """FCCI's criterion route: the first (rep, h) whose power leaves the
    real class of rep."""
    for h in _units(g.n):
        for rep in part.reps():
            allowed = part.class_of[rep], part.inverse_class[part.class_of[rep]]
            if part.class_of[g.power(rep, h)] not in allowed:
                return False, (rep, h)
    return True, None


def rational_scan(g: FiniteGroup, part: ConjugacyPartition) -> tuple[bool, int | None]:
    """`classify.is_rational`: the first representative whose atom leaves its class."""
    for rep in part.reps():
        cls = set(part.classes[part.class_of[rep]])
        if any(x not in cls for x in atom(g, rep).members):
            return False, rep
    return True, None


def inverse_semi_rational_scan(g: FiniteGroup, part: ConjugacyPartition) -> tuple[bool, Atom | None]:
    """`classify.is_inverse_semi_rational`: the first representative's atom
    that leaves its class and the inverse class."""
    for rep in part.reps():
        allowed = part.class_of[rep], part.inverse_class[part.class_of[rep]]
        a = atom(g, rep)
        if any(part.class_of[x] not in allowed for x in a.members):
            return False, a
    return True, None


def semi_rational_scan(
    g: FiniteGroup, part: ConjugacyPartition
) -> tuple[bool, dict[int, int] | None, int | None]:
    """`classify.is_semi_rational` by atoms and one power per exponent k."""
    e = g.exponent()
    r_map: dict[int, int] = {}
    for rep in part.reps():
        own = part.class_of[rep]
        extra = {part.class_of[x] for x in atom(g, rep).members} - {own}
        if not extra:
            r_map[rep] = 1
            continue
        if len(extra) > 1:
            return False, None, rep
        target = extra.pop()
        o = g.ord[rep]
        k = next(
            k for k in range(1, o + 1)
            if gcd(k, o) == 1 and part.class_of[g.power(rep, k)] == target
        )
        r_map[rep] = _lift_unit(k, o, e)
    return True, r_map, None


# ---------------------------------------------------------------------------
# Group-table loops
# ---------------------------------------------------------------------------


def cyclic_table(m: int) -> list[list[int]]:
    return [[(a + b) % m for b in range(m)] for a in range(m)]


def dihedral_table(m: int) -> list[list[int]]:
    """<a, b | a^m = b^2 = 1, b a b = a^-1>, order 2m; index = i + m*j for a^i b^j."""
    n = 2 * m

    def mul(x: int, y: int) -> int:
        i, j = x % m, x // m
        k, l = y % m, y // m
        return ((i + k) % m if j == 0 else (i - k) % m) + m * ((j + l) % 2)

    return [[mul(x, y) for y in range(n)] for x in range(n)]


def dicyclic_table(m: int) -> list[list[int]]:
    """<a, b | a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1>, order 4m; index = i + 2m*j."""
    mm = 2 * m
    n = 2 * mm

    def mul(x: int, y: int) -> int:
        i, j = x % mm, x // mm
        k, l = y % mm, y // mm
        i2 = (i + k) % mm if j == 0 else (i - k) % mm
        j2 = j + l
        if j2 == 2:
            return (i2 + m) % mm
        return i2 + mm * j2

    return [[mul(x, y) for y in range(n)] for x in range(n)]


def closure(t: np.ndarray, gens: Sequence[int], inside: np.ndarray | None = None) -> np.ndarray:
    """Mask of the subgroup generated by `gens` and the members of `inside`
    (default: the identity alone), which already holds a subgroup: its
    closure under right multiplication by the generators."""
    if inside is None:
        inside = np.zeros(t.shape[0], dtype=bool)
        inside[0] = True
    frontier = np.flatnonzero(inside)
    while frontier.size:
        products = np.unique(t[np.ix_(frontier, gens)])
        frontier = products[~inside[products]]
        inside[frontier] = True
    return inside


def element_orders(t: np.ndarray) -> tuple[int, ...]:
    """Every element's order: x holds g^k for every g at once, and an
    element stays live until its power is e."""
    n = t.shape[0]
    idx = np.arange(n)
    ords = np.ones(n, dtype=np.int64)
    x, live = idx, idx != 0
    while live.any():
        x = t[x, idx]
        ords += live
        live &= x != 0
    return tuple(ords.tolist())


def inverses(g: FiniteGroup) -> tuple[int, ...]:
    t = g.table.tolist()
    return tuple(next(h for h in g.elements() if t[x][h] == 0) for x in g.elements())


def conjugacy_classes(g: FiniteGroup) -> ConjugacyPartition:
    n, t, inv = g.n, g.table.tolist(), g.inv
    class_of = [-1] * n
    classes: list[tuple[int, ...]] = []
    for a in range(n):
        if class_of[a] >= 0:
            continue
        orbit = sorted({t[t[x][a]][inv[x]] for x in range(n)})
        idx = len(classes)
        for y in orbit:
            class_of[y] = idx
        classes.append(tuple(orbit))
    inverse_class = tuple(class_of[inv[c[0]]] for c in classes)
    seen = [False] * len(classes)
    real: list[tuple[int, ...]] = []
    for j in range(len(classes)):
        if not seen[j]:
            orbit_j = tuple(sorted({j, inverse_class[j]}))
            for x in orbit_j:
                seen[x] = True
            real.append(orbit_j)
    e = g.exponent()
    units = tuple(h for h in range(1, max(e, 2)) if gcd(h, e) == 1)
    powers = np.array(
        [[class_of[g.power(c[0], h)] for c in classes] for h in units], dtype=np.int32
    )
    return ConjugacyPartition(tuple(class_of), tuple(classes), inverse_class, tuple(real), units, powers)


def is_abelian(g: FiniteGroup) -> bool:
    t = g.table.tolist()
    return all(t[a][b] == t[b][a] for a in range(g.n) for b in range(a))


def center(g: FiniteGroup) -> tuple[int, ...]:
    t = g.table.tolist()
    return tuple(z for z in g.elements() if all(t[z][x] == t[x][z] for x in g.elements()))


def generated_subgroup(g: FiniteGroup, gens: list[int] | set[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    if not gens:
        raise ValueError("generating set must be nonempty")
    t = g.table.tolist()
    elems = {0} | set(gens)
    frontier = list(elems)
    while frontier:
        fresh = []
        for a in list(elems):
            for b in frontier:
                for p in (t[a][b], t[b][a]):
                    if p not in elems:
                        elems.add(p)
                        fresh.append(p)
        frontier = fresh
    order = sorted(elems)
    pos = {e: i for i, e in enumerate(order)}
    sub = [[pos[t[a][b]] for b in order] for a in order]
    return build_group(sub, name=f"<{len(gens)} gens in {g.name}>"), tuple(order)


def _check_subgroup(g: FiniteGroup, members: frozenset[int]) -> None:
    if 0 not in members:
        raise NotAGroup("subset does not contain the identity")
    t = g.table.tolist()
    for a in members:
        for b in members:
            if t[a][b] not in members:
                raise NotAGroup("subset is not closed", (a, b, t[a][b]))


def quotient(g: FiniteGroup, normal: set[int] | frozenset[int], name: str | None = None) -> FiniteGroup:
    members = frozenset(normal)
    _check_subgroup(g, members)
    t, inv = g.table.tolist(), g.inv
    for x in g.elements():
        for a in members:
            y = t[t[x][a]][inv[x]]
            if y not in members:
                raise NotNormal((x, a, y))
    coset_rep: dict[int, int] = {}
    reps: list[int] = []
    for x in g.elements():
        if x in coset_rep:
            continue
        coset = sorted(t[x][a] for a in members)
        for y in coset:
            coset_rep[y] = coset[0]
        reps.append(coset[0])
    reps.sort()
    pos = {r: i for i, r in enumerate(reps)}
    table = [[pos[coset_rep[t[a][b]]] for b in reps] for a in reps]
    return build_group(table, name=name or f"{g.name}/N{len(members)}")


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str | None = None) -> FiniteGroup:
    nb = b.n
    ta, tb = a.table.tolist(), b.table.tolist()
    table = [
        [ta[i][k] * nb + tb[j][l] for k in range(a.n) for l in range(nb)]
        for i in range(a.n)
        for j in range(nb)
    ]
    return build_group(table, name=name or f"{a.name}x{b.name}")


def is_nilpotent(g: FiniteGroup) -> bool:
    t, inv = g.table.tolist(), g.inv
    current: set[int] = {0}
    while True:
        nxt = {
            z
            for z in g.elements()
            if all(t[t[z][x]][t[inv[z]][inv[x]]] in current for x in g.elements())
        }
        if len(nxt) == g.n:
            return True
        if nxt == current:
            return False
        current = nxt


def commutators(g: FiniteGroup) -> set[int]:
    """The commutator set of `hierarchy_audit`'s derived-subgroup check."""
    t, inv = g.table.tolist(), g.inv
    return {t[t[a][b]][t[inv[a]][inv[b]]] for a in g.elements() for b in g.elements()}


def is_normal_set(g: FiniteGroup, elems: frozenset[int]) -> bool:
    """`groups.conjugation_invariant` on a set's indicator: every conjugate
    of every member is a member."""
    t, inv = g.table.tolist(), g.inv
    return all(t[t[x][s]][inv[x]] in elems for s in elems for x in g.elements())


def cyclic_subgroups_all_normal(g: FiniteGroup) -> bool:
    t, inv = g.table.tolist(), g.inv
    for x in range(1, g.n):
        powers = set()
        y = x
        while y != 0:
            powers.add(y)
            y = t[y][x]
        if any(t[t[a][x]][inv[a]] not in powers for a in g.elements()):
            return False
    return True


def adjacency(g: FiniteGroup, f: ConnectionFunction) -> IntMatrix:
    t, inv, vals = g.table.tolist(), g.inv, f.values
    return IntMatrix(tuple(tuple(vals[t[a][inv[b]]] for b in g.elements()) for a in g.elements()))


def class_matrices(g: FiniteGroup, part: ConjugacyPartition) -> list[list[list[int]]]:
    k = part.k
    reps = part.reps()
    class_of = part.class_of
    t, inv = g.table.tolist(), g.inv
    out = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i, cls in enumerate(part.classes):
        mat = out[i]
        for x in cls:
            row = t[inv[x]]
            for tt in range(k):
                mat[class_of[row[reps[tt]]]][tt] += 1
    return out


# ---------------------------------------------------------------------------
# Elimination over F_p and eigenspace splitting
# ---------------------------------------------------------------------------


def rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p; returns (rows, pivot columns)."""
    rows = [r[:] for r in rows]
    cols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [row for row in rows[:r]], pivots


def kernel_mod(mat: list[list[int]], p: int) -> list[list[int]]:
    d = len(mat[0]) if mat else 0
    red, pivots = rref_mod(mat, p)
    free = [c for c in range(d) if c not in pivots]
    out = []
    for c in free:
        v = [0] * d
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][c]) % p
        out.append(v)
    return out


def split_eigenspaces(mats: list[np.ndarray], k: int, p: int) -> list[list[int]]:
    """Common eigenvectors of commuting int64 matrices reduced mod p, by
    splitting each subspace with each matrix in ascending index order."""
    spaces: list[list[list[int]]] = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for mat in mats[1:]:
        if all(len(b) == 1 for b in spaces):
            break
        nxt: list[list[list[int]]] = []
        for basis in spaces:
            d = len(basis)
            if d == 1:
                nxt.append(basis)
                continue
            basis, pivots = rref_mod(basis, p)
            vecs = np.array(basis, dtype=np.int64)
            imgs = vecs @ mat.T % p
            restr = imgs[:, pivots].T
            if not np.array_equal(restr.T @ vecs % p, imgs):
                raise VerificationFailed("class matrix does not stabilize a split subspace")
            cp = list(reversed(charpoly_mod(restr[None], p)[0].tolist()))
            found = 0
            for lam in range(p):
                acc = 0
                for co in cp:
                    acc = (acc * lam + co) % p
                if acc:
                    continue
                ker = kernel_mod(((restr - lam * np.eye(d, dtype=np.int64)) % p).tolist(), p)
                if not ker:
                    continue
                nxt.append((np.array(ker, dtype=np.int64) @ vecs % p).tolist())
                found += len(ker)
                if found == d:
                    break
            if found != d:
                raise VerificationFailed("restricted class matrix is not diagonalizable")
        spaces = nxt
    if any(len(b) != 1 for b in spaces):
        raise VerificationFailed("class matrices failed to separate all characters")
    return [b[0] for b in spaces]


# ---------------------------------------------------------------------------
# Permutation-group tables
# ---------------------------------------------------------------------------


def _compose_table(order: list[tuple[int, ...]]) -> list[list[int]]:
    d = len(order[0])
    pos = {p: i for i, p in enumerate(order)}
    return [[pos[tuple(p[q[i]] for i in range(d))] for q in order] for p in order]


def symmetric_table(m: int) -> list[list[int]]:
    return _compose_table(list(permutations(range(m))))


def alternating_table(m: int) -> list[list[int]]:
    def parity(p: tuple[int, ...]) -> int:
        seen, out = [False] * len(p), 0
        for i in range(len(p)):
            if not seen[i]:
                j, ln = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = p[j]
                    ln += 1
                out += ln - 1
        return out % 2

    return _compose_table([p for p in permutations(range(m)) if parity(p) == 0])


def perm_closure_table(gens: list[tuple[int, ...]]) -> list[list[int]]:
    """The `perms` file form: closure of the generators, elements sorted."""
    d = len(gens[0])
    ident = tuple(range(d))
    elems, frontier = {ident}, [ident]
    while frontier:
        fresh = []
        for p in frontier:
            for q in gens:
                r = tuple(p[q[i]] for i in range(d))
                if r not in elems:
                    elems.add(r)
                    fresh.append(r)
        frontier = fresh
    return _compose_table(sorted(elems))
