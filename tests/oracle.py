"""Reference implementations that the production kernels are tested against.

`berkowitz` is the division-free Berkowitz recurrence on Python integers that
`linalg.charpoly` used before the multi-modular kernel; `integer_roots_scan`
is `integer_spectrum`'s candidate scan without the divisibility filter.
"""

from __future__ import annotations

from operator import mul as _mul

from cayint.linalg import IntMatrix, IntPolynomial


def berkowitz(m: IntMatrix) -> IntPolynomial:
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


def integer_roots_scan(p: IntPolynomial, bound: int) -> tuple[tuple[int, int], ...]:
    """Integer roots of a monic p with multiplicity, descending, by trying
    every integer in [-bound, bound] with synthetic division."""
    found: dict[int, int] = {}
    work = p
    for r in range(bound, -bound - 1, -1):
        while work.degree > 0:
            q, rem = work.shift_root(r)
            if rem != 0:
                break
            work = q
            found[r] = found.get(r, 0) + 1
    return tuple(sorted(found.items(), key=lambda kv: -kv[0]))
