"""Exact irreducible character tables via class matrices over a prime field.

The method is the classical Dixon-Burnside one: the structure constants of
the class-sum algebra give k commuting integer matrices whose simultaneous
eigenvectors over a suitable prime field F_p are the central characters
omega(K_j) = |C_j| chi(g_j) / chi(1) mod p. Degrees are recovered from the
second orthogonality relation (d^2 mod p, looked up among the squares of
1..sqrt(|G|), which p^2 > 4|G| keeps distinct mod p), character
values mod p follow, and each value is lifted to its exact cyclotomic form
by a discrete Fourier inversion over F_p of the root-of-unity multiplicity
vector. The finished table is verified before it is returned.

Integer format: a character value is an algebraic integer of Q(zeta_e), e
the group exponent, and the power basis 1, zeta_e, ..., zeta_e^(phi-1) is a
Z-basis of Z[zeta_e], so a table is exactly one (k, k, phi) integer array of
power-basis coefficients, rows indexed by characters and columns by classes.
Complex conjugation and the Galois twists are fixed integer matrices of the
conductor's context (`linalg._context`). Overflow rule: the array is int64
when every coefficient is below 2^62 in magnitude and Python ints otherwise
(`linalg.exact_array`); every product is bounded in Python ints before it is
taken, and runs on Python ints when the bound reaches 2^63, so int64 never
wraps.

Verification (`_verify_table`) runs modulo a few primes p = 1 (mod e). There
Phi_e splits into distinct linear factors, so with theta of order e mod p
the embeddings zeta -> theta^h, one per unit h mod e, identify Z[zeta_e]/p
with F_p^phi. Per prime it maps the table through all of them, one
(k^2, phi)(phi, phi) product, and checks Galois equivariance, that the
image of chi(j) under embedding h is the image of chi(j^h) under embedding
1 (the unit -1 is chi(g^-1) = conj(chi(g))), and then both orthogonality
relations under embedding 1 alone, two k^3 products: O(k^2 phi^2 + k^3)
per prime, in int64 with max(k, phi) p^2 < 2^63.

Soundness. Equivariance on every embedding makes sigma_h chi(j) = chi(j^h)
coordinatewise mod p: embedding h' of the difference is embedding 1 of
sigma_h'h chi(j) - sigma_h' chi(j^h), and by the check both terms are
embedding 1 of the value at class j^(h'h). The primes' product exceeds
twice a bound on every coordinate of such a difference and of every
orthogonality sum minus its target, so equivariance is exact.
Embedding h of an orthogonality sum is then embedding 1 of the same sum
over the classes permuted by j -> j^h, which have the same sizes, so every
embedding of sum minus target vanishes mod p, every coordinate is 0 modulo
the product, and the bound makes it 0. The check is stronger than the two
relations: it also rejects a table that satisfies both but is not
Galois-equivariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from pathlib import Path

import numpy as np

from .catalog import ParseError, _content_lines
from .groups import ConjugacyPartition, FiniteGroup, conjugacy_classes, generator_classes
from .linalg import _STACK_CELLS, _context, _primes_for, _summable, charpoly_mod, eliminate_mod, exact_array
from .linalg import is_prime, primitive_root, roots_mod


class PrimeSearchFailed(RuntimeError):
    """No usable prime found below PRIME_BOUND."""


class VerificationFailed(RuntimeError):
    """Internal bug guard: a produced table failed an exact identity."""


# The character-table caps, on |G| (CLI `--cap-chartable`) and on the int64
# cells of `table_cells`: `character_table` refuses a group above either and
# `classify_group` skips its table.
DEFAULT_ORDER_CAP = 2000
CELL_CAP = 2**27
PRIME_BOUND = 1_000_000  # the prime search gives up above this


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Rows are irreducible characters, columns are conjugacy classes.

    `coeffs[r, j]` is chi_r(rep_j) over the power basis of Z[zeta_conductor]:
    one read-only (k, k, phi) array, int64 or Python ints by the module's
    overflow rule. `cell_strings` prints it.
    """

    group: FiniteGroup
    partition: ConjugacyPartition
    conductor: int
    prime: int
    degrees: tuple[int, ...]
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs.flags.writeable = False

    @property
    def k(self) -> int:
        return len(self.degrees)

    def cell_strings(self) -> tuple[tuple[str, ...], ...]:
        """Each cell as text: the integer c_0 when every other coordinate is
        0, else the `" + "`-joined terms `c_0`, `c_1*zE`, `c_m*zE^m` of its
        nonzero coordinates, E the conductor."""
        z = f"z{self.conductor}"
        bases = ["", f"*{z}"] + [f"*{z}^{m}" for m in range(2, self.coeffs.shape[2])]

        def text(cell: list[int]) -> str:
            if not any(cell[1:]):
                return str(cell[0])
            return " + ".join(f"{c}{b}" for c, b in zip(cell, bases) if c)

        return tuple(tuple(map(text, row)) for row in self.coeffs.tolist())

    def class_sizes(self) -> tuple[int, ...]:
        return self.partition.sizes()

    def reps(self) -> tuple[int, ...]:
        return self.partition.reps()


def table_cells(part: ConjugacyPartition) -> int:
    """max(k^3, k^2 phi(e)): the cells of the k class matrices and of the table."""
    return part.k**2 * max(part.k, len(part.units))


def class_matrices(
    g: FiniteGroup, part: ConjugacyPartition, unions: list[tuple[int, ...]] | None = None
) -> list[np.ndarray]:
    """Structure constants of the class-sum algebra: for each union U of
    classes, the (k, k) int64 matrix of multiplication by sum_(j in U) K_j,
    K_j the sum of class j in the group algebra; by default each class
    alone.

    K_U K_j = sum_t a[j][t] K_t, and the matrix is (a[j][t])_{j,t}, the
    number of x in U with x^-1 * rep_t in class j: one `bincount` over the
    elements of U. All constants are nonnegative integers, and the matrices
    of two unions add to the matrix of their sum.
    """
    k = part.k
    # cell (class of x^-1 rep_t, t) for x down and t across
    cells = np.array(part.class_of)[g.products(g.inv, part.reps())] * k + np.arange(k)
    return [
        np.bincount(cells[[x for j in union for x in part.classes[j]]].ravel(), minlength=k * k).reshape(k, k)
        for union in (unions if unions is not None else [(j,) for j in range(k)])
    ]


# ---------------------------------------------------------------------------
# Prime-field helpers
# ---------------------------------------------------------------------------


def _find_prime(exponent: int, order: int, bound: int) -> int:
    # need p = 1 mod e and p > 2*sqrt(|G|), i.e. p^2 > 4|G|
    p = exponent + 1
    while p <= bound:
        if p * p > 4 * order and is_prime(p):
            return p
        p += exponent
    raise PrimeSearchFailed(f"no prime = 1 mod {exponent} with square above {4 * order}, below {bound}")


def _primitive_root_of_unity(p: int, e: int) -> int:
    """theta = g^((p-1)/e) for g the least primitive root mod p."""
    return pow(primitive_root(p), (p - 1) // e, p)


def _split_eigenspaces(mats: list[np.ndarray], k: int, p: int) -> list[list[int]]:
    """Common eigenvectors of commuting matrices over F_p, by splitting F_p^k
    with each matrix in turn; the matrices are int64 arrays reduced mod p,
    and the first is the identity.

    The subspaces are blocks of consecutive rows of one (k, k) basis array,
    with a pivot column per row: a block's rows are the identity on its
    pivot columns, so the coordinates of a vector of its span are its
    entries there, and the restriction of a matrix to a block is read off
    the pivot columns of its images (`_restrictions`). A block of one row
    is a common eigenvector already.

    A block on which a matrix is scalar, lambda I, is one eigenspace of that
    matrix, so there is nothing to split; it stays whole on every later
    refinement too. The matrices are therefore screened in stacks of at
    most _STACK_CELLS image cells, each checked to stabilise every block,
    and only the first one that is not scalar on some block splits those
    blocks (`_eigenspaces`); the screen resumes after it.

    Overflow: entries stay in int64. Residues are below p <= PRIME_BOUND =
    10^6, each elimination update is below p + p^2, and every dot product
    has at most k terms, each below p^2: k * p^2 <= 5040 * 10^12 < 2^63 for
    any group under the element cap.
    """
    basis = np.eye(k, dtype=np.int64)
    pivots = np.arange(k)
    block = np.zeros(k, dtype=np.intp)  # block index of each row; a block's rows are consecutive
    stack = max(1, _STACK_CELLS // (k * k))
    i = 1  # matrix of the identity class is the identity
    while i < len(mats):
        size = np.bincount(block)[block]
        if size.max() == 1:
            break
        screened = np.stack(mats[i : i + stack])
        first = len(screened)  # the first screened matrix that is not scalar on some block
        groups = []
        for d in np.unique(size[size > 1]).tolist():
            rows = np.flatnonzero(size == d).reshape(-1, d)  # one block per line
            coords, ragged = _restrictions(basis[rows], pivots[rows], screened, p)
            hit = np.flatnonzero(ragged.any(axis=1))
            if hit.size:
                first = min(first, int(hit[0]))
            groups.append((rows, coords, ragged))
        if first == len(screened):
            i += first
            continue
        i += first + 1
        kept = np.ones(k, dtype=bool)
        new_rows, new_piv, new_ids = [], [], []
        last = block[-1]
        for rows, coords, ragged in groups:
            which = np.flatnonzero(ragged[first])
            if which.size:
                split = rows[which]
                fresh, piv, pair = _eigenspaces(coords[first, which], basis[split], pivots[split], p)
                kept[split] = False
                new_rows.append(fresh)
                new_piv.append(piv)
                new_ids.append(last + 1 + pair)
                last = new_ids[-1][-1]
        basis = np.concatenate([basis[kept], *new_rows])
        pivots = np.concatenate([pivots[kept], *new_piv])
        block = np.unique(np.concatenate([block[kept], *new_ids]), return_inverse=True)[1]
    if np.bincount(block).max() != 1:
        raise VerificationFailed("class matrices failed to separate all characters")
    return basis.tolist()


def _restrictions(
    vecs: np.ndarray, piv: np.ndarray, mats: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """The restrictions of a (b, k, k) stack of matrices to blocks of d basis
    rows each, `vecs` (nb, d, k) with pivot columns `piv` (nb, d), as the
    (b, nb, d, d) coordinates of the images of the rows, and the (b, nb)
    mask of the restrictions that are not scalar. One product gives the
    images and one checks that each block is stabilised."""
    d = vecs.shape[1]
    imgs = vecs @ mats.transpose(0, 2, 1)[:, None] % p  # row j: the matrix applied to basis row j
    coords = np.take_along_axis(imgs, piv[None, :, None, :], axis=3)
    if not np.array_equal(coords @ vecs % p, imgs):
        raise VerificationFailed("class matrix does not stabilize a split subspace")
    return coords, (coords != coords[..., :1, :1] * np.eye(d, dtype=np.int64)).any(axis=(2, 3))


def _eigenspaces(
    coords: np.ndarray, vecs: np.ndarray, piv: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split m blocks of d basis rows, `vecs` (m, d, k) with pivot columns
    `piv` (m, d), into the eigenspaces of a matrix whose restrictions to
    them, none scalar, have the image coordinates `coords` (m, d, d).

    - The eigenvalues: the roots of each restriction's charpoly, from one
      stack of charpolys and one `roots_mod` over every lambda in F_p. Every
      central character lies in F_p, because p = 1 (mod e), so a
      restriction whose eigenspaces do not fill its block is not
      diagonalizable, a bug.
    - `eliminate_mod` on the stack of R - lambda I over every (block,
      root) pair gives the eigenspaces. A kernel basis is the identity
      on its free columns, so each new block is the identity on the old
      pivot columns there and is reduced with no further step.

    Returns the new rows, block after block and eigenvalue after
    eigenvalue, their pivot columns, and the index of each row's (block,
    eigenvalue) pair.
    """
    m, d, k = vecs.shape
    restr = coords.transpose(0, 2, 1)  # R[a, b]: coordinate a of the image of row b
    owner, root = roots_mod(charpoly_mod(restr, p), [0] * m, [p - 1] * m, p)

    # kernel rows of R - lambda I, pair by pair, in coordinates over the block's rows
    eigen, place, pair = [coords[:0, 0]], [owner[:0]], [owner[:0]]
    eye = np.eye(d, dtype=np.int64)
    step = max(1, _STACK_CELLS // (d * d))
    for start in range(0, len(owner), step):
        blk = owner[start : start + step]
        reduced, pivot = eliminate_mod((restr[blk] - root[start : start + step, None, None] * eye) % p, p)
        # placed[c]: the reduced row whose leading 1 is in column c, zero for a free c
        placed = np.zeros_like(reduced)
        placed[np.arange(len(blk))[:, None], np.argsort(~pivot, axis=1, kind="stable")] = reduced
        j, f = np.nonzero(~pivot)
        kernel = -placed[j, :, f] % p  # e_f minus column f of the placed rows
        kernel[np.arange(len(j)), f] = 1
        eigen.append(kernel)
        place.append(f)
        pair.append(start + j)
    pair = np.concatenate(pair)
    if (np.bincount(owner[pair], minlength=m) != d).any():
        raise VerificationFailed("restricted class matrix is not diagonalizable")
    fresh = np.concatenate(eigen).reshape(m, d, d) @ vecs % p
    return fresh.reshape(m * d, k), piv.ravel()[owner[pair] * d + np.concatenate(place)], pair


# ---------------------------------------------------------------------------
# Table construction
# ---------------------------------------------------------------------------


def _lift_values(
    c_rows: np.ndarray,
    degrees: np.ndarray,
    g: FiniteGroup,
    part: ConjugacyPartition,
    e: int,
    p: int,
    theta: int,
) -> np.ndarray:
    """Exact chi_r(rep_j) for every row r and class j, as a (k, k, phi) int64
    array of power-basis coefficients, from the residues c_rows[r, t] =
    chi_r(rep_t) mod p.

    chi(rep) = sum_m a_m zeta_o^m where a_m counts eigenvalue zeta_o^m of a
    representing matrix, o = ord(rep). For each class the a_m of all rows
    come from one inverse DFT over F_p: the (k x o) residues chi_r(rep^s)
    times F[s, m] = theta_o^(-m s) / o mod p. They are exact because
    0 <= a_m <= degree < p, and the matmul is exact in int64 because its
    entries are below p <= PRIME_BOUND = 10^6 and o <= |G| <= 5040, the
    element cap, so every dot product is below o * p^2 <= 5040 * 10^12 <
    2^63. A second (k x o)(o x phi) matmul maps the multiplicities onto the
    power basis.
    """
    k = part.k
    ctx = _context(e)
    out = np.empty((k, k, ctx.phi), dtype=np.int64)
    inverse_dft: dict[int, np.ndarray] = {}
    for j, rep in enumerate(part.reps()):
        orbit = g.powers(rep)
        o = len(orbit)
        if o not in inverse_dft:
            theta_o = pow(theta, e // o, p)
            twiddle = [1] * o
            for t in range(1, o):
                twiddle[t] = twiddle[t - 1] * theta_o % p
            s = np.arange(o)
            dft = np.array(twiddle, dtype=np.int64)[np.outer(s, -s) % o]
            inverse_dft[o] = dft * pow(o, -1, p) % p
        residues = c_rows[:, [part.class_of[x] for x in orbit]]
        mult = residues @ inverse_dft[o] % p
        over = np.argwhere(mult > degrees[:, None])
        if len(over):
            r, m = over[0].tolist()
            raise VerificationFailed(f"root-of-unity multiplicity {mult[r, m]} exceeds degree {degrees[r]}")
        out[:, j] = mult @ ctx.power_array[np.arange(o) * (e // o)]
    return out


def _absmax(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _apply(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m over the last axis of x, in Python ints if a dot product could
    reach 2^63."""
    return _summable(x, m.shape[0], _absmax(x) * _absmax(m)) @ m


# (p, e) -> `_embeddings(p, e, units)`, so that a table of a known conductor
# looks up its theta instead of searching for a primitive root again
_EMBEDDINGS: dict[tuple[int, int], np.ndarray] = {}


def _embeddings(p: int, e: int, units: tuple[int, ...]) -> np.ndarray:
    """The (phi, phi) int64 matrix V[a, u] = theta^(a h_u) mod p, theta of
    order e mod p and h_u the units mod e: a vector of power-basis
    coordinates times V is its image under each embedding zeta -> theta^h_u
    of Z[zeta_e] into F_p."""
    v = _EMBEDDINGS.get((p, e))
    if v is None:
        theta = _primitive_root_of_unity(p, e)
        powers = [1] * e
        for m in range(1, e):
            powers[m] = powers[m - 1] * theta % p
        v = _EMBEDDINGS[(p, e)] = np.array(powers, dtype=np.int64)[np.outer(np.arange(len(units)), units) % e]
    return v


def _verify_table(
    g: FiniteGroup,
    part: ConjugacyPartition,
    degrees: list[int],
    x: np.ndarray,
) -> None:
    """Check the degree equation and the degrees' divisibility, then Galois
    equivariance and both orthogonality relations exactly on the (k, k, phi)
    coefficient array x, modulo the primes p = 1 (mod e) of the module
    docstring.

    The bound, with c = max|power_array|, which bounds every Galois map and
    the reduction of a product: a twisted cell minus a cell has coordinates
    at most (phi c + 1) max|x|. A product of a cell and a conjugated cell
    has 2 phi - 1 convolution coordinates of at most phi max|x| (phi c
    max|x|) each, reduced with weights up to c, and an orthogonality sum
    adds at most |G| of them, counted with the class sizes; its target is
    at most |G|. Every difference the check rules out is therefore at most
    B = 2 |G| phi^3 c^2 max|x|^2 + |G|, and the primes' product exceeds 2 B.
    """
    n, k = g.n, part.k
    if sum(d * d for d in degrees) != n:
        raise VerificationFailed(f"degree equation failed: {degrees} for |G|={n}")
    for d in degrees:
        if n % d != 0:
            raise VerificationFailed(f"degree {d} does not divide |G|={n}")
    e = g.exponent()
    ctx = _context(e)
    phi = ctx.phi
    big, c = _absmax(x), _absmax(ctx.power_array)
    primes, _ = _primes_for(max(k, phi), 2 * n * phi**3 * c * c * big * big + n, e)
    sizes = np.array(part.sizes(), dtype=np.int64)
    image = part.powers.T  # image[j, u]: the class of rep_j^(h_u)
    conj = part.units.index(-1 % e or 1)
    flat = x.reshape(k * k, phi)
    for p in primes:
        emb = ((flat % p).astype(np.int64, copy=False) @ _embeddings(p, e, part.units) % p).reshape(k, k, phi)
        bad = np.argwhere(emb != emb[:, image, 0])
        if len(bad):
            r, j, u = bad[0].tolist()
            raise VerificationFailed(
                f"twist by {part.units[u]} of row {r} at class {j} is not its value at class {image[j, u]}"
            )
        y, ybar = emb[:, :, 0], emb[:, :, conj]
        for name, got, want in (
            ("row", y * sizes % p @ ybar.T, np.diag(np.full(k, n))),
            ("column", y.T @ ybar, np.diag(n // sizes)),
        ):
            bad = np.argwhere(got % p != want % p)
            if len(bad):
                raise VerificationFailed("{} orthogonality failed at ({},{})".format(name, *bad[0].tolist()))


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
    if table_cells(part) > CELL_CAP:
        raise ValueError(f"|G| = {g.n} needs {table_cells(part)} table cells, above the cap {CELL_CAP}")
    k = part.k
    e = g.exponent()
    p = _find_prime(e, g.n, PRIME_BOUND)
    theta = _primitive_root_of_unity(p, e)
    mats = class_matrices(g, part)
    # The common eigenvectors do not depend on the order of the matrices. The
    # classes of a generating set go first: on an abelian group their class
    # sums generate the group algebra, so they alone separate every character.
    lead = generator_classes(g, part)
    order = [0, *lead, *sorted(set(range(1, k)) - set(lead))]
    vecs = _split_eigenspaces([mats[j] % p for j in order], k, p)

    sizes = part.sizes()
    inv_cls = part.inverse_class
    inv_sizes = [pow(s, p - 2, p) for s in sizes]
    n_mod = g.n % p
    c_rows: list[list[int]] = []
    degrees: list[int] = []
    # p^2 > 4|G|, so d -> d^2 mod p is one-to-one on the possible degrees 1..sqrt(|G|)
    degree_of = {d * d % p: d for d in range(1, isqrt(g.n) + 1)}
    for v in vecs:
        if v[0] % p == 0:
            raise VerificationFailed("eigenvector vanishes at the identity class")
        norm = pow(v[0], p - 2, p)
        u = [x * norm % p for x in v]
        s = sum(u[t] * u[inv_cls[t]] % p * inv_sizes[t] for t in range(k)) % p
        d = degree_of.get(n_mod * pow(s, p - 2, p) % p)  # s = 0 gives 0, which no d^2 is
        if d is None:
            raise VerificationFailed(f"recovered squared degree is not d^2 mod {p} for any d in 1..sqrt(|G|)")
        c_rows.append([d * u[t] % p * inv_sizes[t] % p for t in range(k)])
        degrees.append(d)
    x = _lift_values(
        np.array(c_rows, dtype=np.int64), np.array(degrees, dtype=np.int64), g, part, e, p, theta
    )

    order = sorted(range(k), key=lambda r: (degrees[r], x[r].ravel().tolist()))
    degrees = [degrees[r] for r in order]
    x = x[order]
    _verify_table(g, part, degrees, x)
    return CharacterTable(
        group=g,
        partition=part,
        conductor=e,
        prime=p,
        degrees=tuple(degrees),
        coeffs=x,
    )


# ---------------------------------------------------------------------------
# Rationality scans
# ---------------------------------------------------------------------------


def chi_plus_conj(table: CharacterTable) -> np.ndarray:
    """The (k, k, phi) coefficients of chi(g) + conj(chi(g)) for every cell."""
    x = table.coeffs
    return x + _apply(x, _context(table.conductor).conj_map)


# ---------------------------------------------------------------------------
# Dump / load (cache format for expensive tables)
# ---------------------------------------------------------------------------


def save_table(table: CharacterTable, path: str | Path) -> None:
    """Text dump: header, class data, then one row per character with each
    value as comma-joined integers over the power basis of Q(zeta_e)."""
    lines = [
        f"chartable {table.group.name.replace(' ', '_')} {table.k} {table.conductor}",
        "sizes " + " ".join(str(s) for s in table.class_sizes()),
        "reps " + " ".join(str(r) for r in table.reps()),
    ]
    for d, row in zip(table.degrees, table.coeffs.tolist()):
        vals = " ".join(",".join(map(str, cell)) for cell in row)
        lines.append(f"row {d} {vals}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_value(field: str, phi: int) -> list[int]:
    coeffs = field.split(",")
    if len(coeffs) != phi:
        raise ValueError(f"value {field!r} needs {phi} coefficients, got {len(coeffs)}")
    try:
        return [int(c) for c in coeffs]
    except ValueError:
        raise ValueError(f"value {field!r} has a non-integer coefficient; character values are algebraic integers") from None


def load_table(path: str | Path, g: FiniteGroup) -> CharacterTable:
    """Reload a dump produced by save_table; re-verifies before returning.

    A malformed dump (including a coefficient that is not an integer), or
    one of another group, raises ParseError, a ValueError that names the
    line; a well-formed table that fails an exact identity raises
    VerificationFailed. That includes a table that satisfies both
    orthogonality relations but is not Galois-equivariant, such as a true
    table with its columns permuted by a map that commutes with inversion
    but is not a power map. The coefficients take their dtype by the
    overflow rule, and are reduced mod each prime in Python ints when they
    are, so a huge coefficient is checked exactly.
    """
    lines = _content_lines(Path(path).read_text(encoding="utf-8"))
    part = conjugacy_classes(g)
    ln, degrees, cells = 1, [], []
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
        phi = _context(e).phi
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
                for v in fields[2:]:
                    cells.extend(_parse_value(v, phi))
            elif tuple(map(int, fields[1:])) != (part.sizes() if tag == "sizes" else part.reps()):
                raise ValueError("dump does not match the supplied group")
    except ValueError as err:
        raise ParseError(ln, str(err)) from None
    x = exact_array(cells).reshape(k, k, phi)
    _verify_table(g, part, degrees, x)
    return CharacterTable(
        group=g,
        partition=part,
        conductor=e,
        prime=0,
        degrees=tuple(degrees),
        coeffs=x,
    )
