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

import sympy

from .groups import ConjugacyPartition, FiniteGroup, conjugacy_classes
from .linalg import Cyclotomic, IntMatrix, _context, charpoly_mod


class PrimeSearchFailed(RuntimeError):
    """No usable prime found below the configured bound."""


class VerificationFailed(RuntimeError):
    """Internal bug guard: a produced table failed an exact identity."""


class GaloisMismatch(RuntimeError):
    """Bug guard: a Galois-twisted row disagreed with the power-mapped row."""


DEFAULT_ORDER_CAP = 2000


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


def class_matrices(g: FiniteGroup, part: ConjugacyPartition) -> list[list[list[int]]]:
    """Structure constants of the class-sum algebra.

    With K_i the sum of class i in the group algebra, K_i K_j =
    sum_t a[i][j][t] K_t; matrix i is (a[i][j][t])_{j,t}, computed as the
    number of x in class i with x^-1 * rep_t in class j. All constants are
    nonnegative integers.
    """
    k = part.k
    reps = part.reps()
    class_of = part.class_of
    t, inv = g.table, g.inv
    out = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i, cls in enumerate(part.classes):
        mat = out[i]
        for x in cls:
            row = t[inv[x]]
            for tt in range(k):
                mat[class_of[row[reps[tt]]]][tt] += 1
    return out


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
    factors = list(sympy.factorint(p - 1))
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            break
        g += 1
    return pow(g, (p - 1) // e, p)


def _sqrt_mod(a: int, p: int) -> int:
    """Tonelli-Shanks; p an odd prime, a a quadratic residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise VerificationFailed(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


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


def _split_eigenspaces(mats: list[list[list[int]]], k: int, p: int) -> list[list[int]]:
    """Common eigenvectors of commuting matrices over F_p, via iterative
    splitting by each matrix in ascending index order."""
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
            imgs = [
                [sum(mat[i][j] * v[j] for j in range(k)) % p for i in range(k)]
                for v in basis
            ]
            # coordinates in an RREF basis can be read off the pivot columns
            restr = [[imgs[j][pivots[l]] for j in range(d)] for l in range(d)]
            for j in range(d):
                recon = [0] * k
                for l in range(d):
                    f = restr[l][j]
                    if f:
                        recon = [(x + f * y) % p for x, y in zip(recon, basis[l])]
                if recon != imgs[j]:
                    raise VerificationFailed("class matrix does not stabilize a split subspace")
            # descending coefficients of the characteristic polynomial mod p
            cp = list(reversed(charpoly_mod(IntMatrix.from_rows(restr), p)))
            found = 0
            for lam in range(p):
                acc = 0
                for co in cp:
                    acc = (acc * lam + co) % p
                if acc:
                    continue
                shifted = [
                    [(restr[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                    for i in range(d)
                ]
                ker = _kernel_mod(shifted, p)
                if not ker:
                    continue
                amb = []
                for coord in ker:
                    v = [0] * k
                    for l, f in enumerate(coord):
                        if f:
                            v = [(x + f * y) % p for x, y in zip(v, basis[l])]
                    amb.append(v)
                nxt.append(amb)
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
    residues = []
    x = 0
    for _ in range(o):
        residues.append(c_row[class_of[x]])
        x = g.table[x][rep]
    # residues[s] = chi(rep^s) mod p, s = 0..o-1
    coeffs = [0] * _context(e).phi
    ctx = _context(e)
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
    prime_bound: int = 1_000_000,
) -> CharacterTable:
    """Exact character table; deterministic for a given group."""
    if g.n > order_cap:
        raise ValueError(f"|G| = {g.n} exceeds the character-table cap {order_cap}")
    part = part or conjugacy_classes(g)
    k = part.k
    e = g.exponent()
    p = _find_prime(e, g.n, prime_bound)
    theta = _primitive_root_of_unity(p, e)
    mats = class_matrices(g, part)
    mats_p = [[[v % p for v in row] for row in m] for m in mats]
    vecs = _split_eigenspaces(mats_p, k, p)

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
    """Reload a dump produced by save_table; re-verifies before returning."""
    lines = [
        l.strip()
        for l in Path(path).read_text(encoding="utf-8").splitlines()
        if l.strip() and not l.strip().startswith("#")
    ]
    head = lines[0].split()
    if head[0] != "chartable":
        raise ValueError(f"not a character table dump: {lines[0]!r}")
    k, e = int(head[2]), int(head[3])
    part = conjugacy_classes(g)
    if part.k != k or part.sizes() != tuple(int(x) for x in lines[1].split()[1:]):
        raise ValueError("dump does not match the supplied group")
    degrees: list[int] = []
    rows: list[list[Cyclotomic]] = []
    for line in lines[3:]:
        fields = line.split()
        degrees.append(int(fields[1]))
        rows.append(
            [Cyclotomic(e, [Fraction(c) for c in entry.split(",")]) for entry in fields[2:]]
        )
    _verify_table(g, part, degrees, rows)
    return CharacterTable(
        group=g,
        partition=part,
        conductor=e,
        prime=0,
        degrees=tuple(degrees),
        values=tuple(tuple(r) for r in rows),
    )
