"""The one exact integer layer: polynomials and linear systems over Z.  The lattice
modules use it without loading `exactnum`, `realroots` or, until `_solve` runs, `fractions`."""

from math import gcd


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _pdivmod(a, b) -> tuple[list[int], list[int], int]:
    """(q, r, m) with m*a == q*b + r, an integer m > 0 and deg r < deg b.

    Each step scales the running remainder by lead(b)/g (g the gcd with the
    coefficient being cancelled), negated if need be so that m stays
    positive: r is then a positive multiple of the remainder over Q."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    q = [0] * max(0, len(a) - db)
    m = 1
    for k in range(len(a) - 1 - db, -1, -1):
        c = r.pop()
        if not c:
            continue
        g = gcd(c, lead)
        s, t = lead // g, c // g  # s*c == t*lead
        if s < 0:
            s, t = -s, -t
        if s != 1:
            m *= s
            r = [s * x for x in r]
            q = [s * x for x in q]
        q[k] = t
        for j in range(db):
            r[k + j] -= t * b[j]
    while r and r[-1] == 0:
        r.pop()
    return q, r, m


def _echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Nonzero echelon rows of an integer matrix and their pivot columns.

    Fraction-free elimination (Bareiss 1968): each step divides by the
    previous pivot exactly, so the entries stay minors of the input and
    never leave the integers.
    """
    rows = [list(r) for r in rows]
    pivots = []
    prev = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top, p = rows[r], rows[r][c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots


def _solve(mat, rhs_columns) -> list[list] | None:
    """One exact solution x of mat x = b per column b, as Fractions, free unknowns 0.

    None when any of the systems is inconsistent.
    """
    from fractions import Fraction

    ncols = len(mat[0])
    rows, pivots = _echelon([list(r) + [b[i] for b in rhs_columns] for i, r in enumerate(mat)])
    if pivots and pivots[-1] >= ncols:
        return None
    sols = []
    for k in range(ncols, ncols + len(rhs_columns)):
        x = [Fraction(0)] * ncols
        for row, c in zip(reversed(rows), reversed(pivots)):
            x[c] = (row[k] - sum(row[j] * x[j] for j in range(c + 1, ncols))) / Fraction(row[c])
        sols.append(x)
    return sols
