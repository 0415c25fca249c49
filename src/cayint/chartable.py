"""Exact irreducible character tables via class matrices over a prime field.

The method is the classical Dixon-Burnside one: the structure constants of
the class-sum algebra give k commuting integer matrices whose simultaneous
eigenvectors over a suitable prime field F_p are the central characters
omega(K_j) = |C_j| chi(g_j) / chi(1) mod p. Degrees are recovered from the
second orthogonality relation (with a modular square root), character
values mod p follow, and each value is lifted to its exact cyclotomic form
by a discrete Fourier inversion over F_p of the root-of-unity multiplicity
vector. The finished table is verified against both orthogonality relations
before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import sympy

from .catalog import ParseError, _content_lines
from .groups import ConjugacyPartition, FiniteGroup, conjugacy_classes
from .linalg import Cyclotomic, IntMatrix, _context, charpoly_mod


class PrimeSearchFailed(RuntimeError):
    """No usable prime found below PRIME_BOUND."""


class VerificationFailed(RuntimeError):
    """Internal bug guard: a produced table failed an exact identity."""


class GaloisMismatch(RuntimeError):
    """Bug guard: a Galois-twisted row disagreed with the power-mapped row."""


# The one character-table cap: `character_table` refuses larger groups and
# `classify_group` skips the table above it (CLI `--cap-chartable`).
DEFAULT_ORDER_CAP = 2000
PRIME_BOUND = 1_000_000  # the prime search gives up above this


@dataclass(frozen=True)
class CharacterTable:
    """Rows are irreducible characters, columns are conjugacy classes."""

    group: FiniteGroup
    partition: ConjugacyPartition
    conductor: int
    prime: int
    degrees: tuple[int, ...]
    values: tuple[tuple[Cyclotomic, ...], ...]

    @property
    def k(self) -> int:
        return len(self.degrees)

    def class_sizes(self) -> tuple[int, ...]:
        return self.partition.sizes()

    def reps(self) -> tuple[int, ...]:
        return self.partition.reps()


def class_matrices(g: FiniteGroup, part: ConjugacyPartition) -> list[np.ndarray]:
    """Structure constants of the class-sum algebra, one (k, k) int64 array
    per class.

    With K_i the sum of class i in the group algebra, K_i K_j =
    sum_t a[i][j][t] K_t; matrix i is (a[i][j][t])_{j,t}, computed as the
    number of x in class i with x^-1 * rep_t in class j. All constants are
    nonnegative integers.
    """
    k = part.k
    # cell (class of x^-1 rep_t, t) of matrix i, for x down and t across
    cells = np.array(part.class_of)[g.products(g.inv, part.reps())] * k + np.arange(k)
    return [
        np.bincount(cells[list(cls)].ravel(), minlength=k * k).reshape(k, k)
        for cls in part.classes
    ]


# ---------------------------------------------------------------------------
# Prime-field helpers
# ---------------------------------------------------------------------------


def _find_prime(exponent: int, order: int, bound: int) -> int:
    # need p = 1 mod e and p > 2*sqrt(|G|), i.e. p^2 > 4|G|
    p = exponent + 1
    while p <= bound:
        if p * p > 4 * order and sympy.isprime(p):
            return p
        p += exponent
    raise PrimeSearchFailed(f"no prime = 1 mod {exponent} with square above {4 * order}, below {bound}")


def _primitive_root_of_unity(p: int, e: int) -> int:
    """theta = g^((p-1)/e) for g the least primitive root mod p."""
    return pow(sympy.primitive_root(p), (p - 1) // e, p)


def _sqrt_mod(a: int, p: int) -> int:
    root = sympy.sqrt_mod(a, p)
    if root is None:
        raise VerificationFailed(f"{a} is not a square mod {p}")
    return root


def _rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
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


def _kernel_mod(mat: list[list[int]], p: int) -> list[list[int]]:
    d = len(mat)
    red, pivots = _rref_mod(mat, p)
    free = [c for c in range(d) if c not in pivots]
    out = []
    for c in free:
        v = [0] * d
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][c]) % p
        out.append(v)
    return out


def _split_eigenspaces(mats: list[np.ndarray], k: int, p: int) -> list[list[int]]:
    """Common eigenvectors of commuting matrices over F_p, via iterative
    splitting by each matrix in ascending index order. The matrices are
    int64 arrays reduced mod p, and p <= PRIME_BOUND = 10^6: a product of
    two residues is below 10^12, so the k-term dot products of the matmuls
    below stay under k * p^2 <= 5040 * 10^12 < 2^63 for any group under the
    element cap, and are exact."""
    spaces: list[list[list[int]]] = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for mat in mats[1:]:  # matrix of the identity class is the identity
        if all(len(b) == 1 for b in spaces):
            break
        nxt: list[list[list[int]]] = []
        for basis in spaces:
            d = len(basis)
            if d == 1:
                nxt.append(basis)
                continue
            basis, pivots = _rref_mod(basis, p)
            vecs = np.array(basis, dtype=np.int64)
            imgs = vecs @ mat.T % p  # row j: mat applied to basis vector j
            # coordinates in an RREF basis can be read off the pivot columns
            restr = imgs[:, pivots].T
            if not np.array_equal(restr.T @ vecs % p, imgs):
                raise VerificationFailed("class matrix does not stabilize a split subspace")
            # descending coefficients of the characteristic polynomial mod p
            cp = list(reversed(charpoly_mod(IntMatrix(restr), p)))
            found = 0
            for lam in range(p):
                acc = 0
                for co in cp:
                    acc = (acc * lam + co) % p
                if acc:
                    continue
                ker = _kernel_mod(((restr - lam * np.eye(d, dtype=np.int64)) % p).tolist(), p)
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
# Table construction
# ---------------------------------------------------------------------------


def _lift_value(
    c_row: list[int],
    rep: int,
    g: FiniteGroup,
    class_of: tuple[int, ...],
    e: int,
    p: int,
    theta: int,
    degree: int,
) -> Cyclotomic:
    """Exact chi(rep) from its residues at all powers of rep.

    chi(rep) = sum_m a_m zeta_o^m where a_m counts eigenvalue zeta_o^m of a
    representing matrix, o = ord(rep); the a_m are recovered by an inverse
    DFT over F_p and are exact because 0 <= a_m <= degree < p.
    """
    o = g.ord[rep]
    theta_o = pow(theta, e // o, p)
    inv_o = pow(o, p - 2, p)
    # residues[s] = chi(rep^s) mod p, s = 0..o-1
    residues = [c_row[class_of[x]] for x in g.powers(rep)]
    ctx = _context(e)
    coeffs = [0] * ctx.phi
    for m in range(o):
        tm = pow(theta_o, (-m) % (p - 1), p) if o > 1 else 1
        acc, w = 0, 1
        for s in range(o):
            acc = (acc + residues[s] * w) % p
            w = w * tm % p
        a_m = acc * inv_o % p
        if a_m > degree:
            raise VerificationFailed(f"root-of-unity multiplicity {a_m} exceeds degree {degree}")
        if a_m:
            for i, t in enumerate(ctx.powers[(m * (e // o)) % e]):
                if t:
                    coeffs[i] += a_m * t
    return Cyclotomic(e, [Fraction(c) for c in coeffs])


def _verify_table(
    g: FiniteGroup,
    part: ConjugacyPartition,
    degrees: list[int],
    rows: list[list[Cyclotomic]],
) -> None:
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


def character_table(
    g: FiniteGroup,
    part: ConjugacyPartition | None = None,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> CharacterTable:
    """Exact character table; deterministic for a given group."""
    if g.n > order_cap:
        raise ValueError(f"|G| = {g.n} exceeds the character-table cap {order_cap}")
    part = part or conjugacy_classes(g)
    k = part.k
    e = g.exponent()
    p = _find_prime(e, g.n, PRIME_BOUND)
    theta = _primitive_root_of_unity(p, e)
    vecs = _split_eigenspaces([m % p for m in class_matrices(g, part)], k, p)

    sizes = part.sizes()
    inv_cls = part.inverse_class
    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    n_mod = g.n % p
    rows: list[list[Cyclotomic]] = []
    degrees: list[int] = []
    sqrt_cap = isqrt(g.n)
    for v in vecs:
        if v[0] % p == 0:
            raise VerificationFailed("eigenvector vanishes at the identity class")
        norm = pow(v[0], p - 2, p)
        u = [x * norm % p for x in v]
        s = sum(u[t] * u[inv_cls[t]] % p * inv_sizes[t] for t in range(k)) % p
        if s == 0:
            raise VerificationFailed("degenerate norm in degree recovery")
        d2 = n_mod * pow(s, p - 2, p) % p
        d = _sqrt_mod(d2, p)
        d = min(d, p - d)
        if not (1 <= d <= sqrt_cap):
            raise VerificationFailed(f"recovered degree {d} outside 1..sqrt(|G|)")
        c_row = [d * u[t] % p * inv_sizes[t] % p for t in range(k)]
        lifted = [
            _lift_value(c_row, rep, g, part.class_of, e, p, theta, d)
            for rep in part.reps()
        ]
        degrees.append(d)
        rows.append(lifted)

    order = sorted(
        range(k),
        key=lambda r: (degrees[r], [tuple(v.coeffs) for v in rows[r]]),
    )
    degrees = [degrees[r] for r in order]
    rows = [rows[r] for r in order]
    _verify_table(g, part, degrees, rows)
    return CharacterTable(
        group=g,
        partition=part,
        conductor=e,
        prime=p,
        degrees=tuple(degrees),
        values=tuple(tuple(row) for row in rows),
    )


# ---------------------------------------------------------------------------
# Galois action and rationality scans
# ---------------------------------------------------------------------------


def galois_on_characters(table: CharacterTable, h: int) -> tuple[int, ...]:
    """Verify that twisting values by zeta -> zeta^h equals reading each row at
    power-mapped classes; returns the induced class permutation."""
    g = table.group
    part = table.partition
    perm = tuple(part.class_of[g.power(rep, h)] for rep in part.reps())
    for r, row in enumerate(table.values):
        for j in range(table.k):
            if row[j].galois(h) != row[perm[j]]:
                raise GaloisMismatch(f"row {r}, class {j}, twist {h}")
    return perm


def is_rational_class(table: CharacterTable, j: int) -> bool:
    return all(row[j].is_rational() for row in table.values)


def chi_plus_conj_integral(table: CharacterTable) -> tuple[tuple[bool, ...], ...]:
    """Entrywise rationality of chi(g) + conj(chi(g)).

    Rational here implies integer, because the sum is an algebraic integer.
    """
    out = []
    for row in table.values:
        out.append(tuple((v + v.conj()).is_rational() for v in row))
    return tuple(out)


# ---------------------------------------------------------------------------
# Dump / load (cache format for expensive tables)
# ---------------------------------------------------------------------------


def save_table(table: CharacterTable, path: str | Path) -> None:
    """Text dump: header, class data, then one row per character with each
    value as comma-joined rationals over the power basis of Q(zeta_e)."""
    lines = [
        f"chartable {table.group.name.replace(' ', '_')} {table.k} {table.conductor}",
        "sizes " + " ".join(str(s) for s in table.class_sizes()),
        "reps " + " ".join(str(r) for r in table.reps()),
    ]
    for d, row in zip(table.degrees, table.values):
        vals = " ".join(",".join(str(c) for c in v.coeffs) for v in row)
        lines.append(f"row {d} {vals}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_table(path: str | Path, g: FiniteGroup) -> CharacterTable:
    """Reload a dump produced by save_table; re-verifies before returning.

    A malformed dump, or one of another group, raises ParseError, a
    ValueError that names the line; a well-formed table that fails an exact
    identity raises VerificationFailed.
    """
    lines = _content_lines(Path(path).read_text(encoding="utf-8"))
    part = conjugacy_classes(g)
    ln, degrees, rows = 1, [], []
    try:
        if not lines:
            raise ValueError("empty file")
        ln, header = lines[0]
        head = header.split()
        if len(head) != 4 or head[0] != "chartable":
            raise ValueError(f"expected 'chartable <name> <k> <conductor>', got {header!r}")
        k, e = int(head[2]), int(head[3])
        if (k, e) != (part.k, g.exponent()):
            raise ValueError("dump does not match the supplied group")
        if len(lines) != k + 3:
            ln = lines[-1][0]
            raise ValueError(f"expected sizes, reps and {k} rows, found {len(lines) - 1} lines")
        for (ln, line), tag in zip(lines[1:], ["sizes", "reps"] + ["row"] * k):
            fields = line.split()
            want = k + 1 + (tag == "row")
            if fields[0] != tag or len(fields) != want:
                raise ValueError(f"expected {tag!r} and {want - 1} fields, got {len(fields) - 1}")
            if tag == "row":
                degrees.append(int(fields[1]))
                if degrees[-1] < 1:
                    raise ValueError(f"degree {degrees[-1]} is not positive")
                rows.append([Cyclotomic(e, [Fraction(c) for c in v.split(",")]) for v in fields[2:]])
            elif tuple(map(int, fields[1:])) != (part.sizes() if tag == "sizes" else part.reps()):
                raise ValueError("dump does not match the supplied group")
    except (ValueError, ZeroDivisionError) as err:
        raise ParseError(ln, str(err)) from None
    _verify_table(g, part, degrees, rows)
    return CharacterTable(
        group=g,
        partition=part,
        conductor=e,
        prime=0,
        degrees=tuple(degrees),
        values=tuple(tuple(r) for r in rows),
    )
