"""Exact rational and integer linear algebra used by the polyhedral kernel.

Vectors are tuples, matrices are tuples of row tuples.  Entries are ints or
`fractions.Fraction`; nothing in here touches floating point.
"""

from fractions import Fraction
from math import gcd, lcm


def frac(x):
    """Coerce ints, strings like '3/4' or '0.25', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


def fracvec(v):
    return tuple(frac(x) for x in v)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum(a * b for a, b in zip(u, v))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def is_zero_vec(v):
    return all(a == 0 for a in v)


def primitive(v):
    """Smallest positive integer multiple of a rational vector, same direction."""
    ints = _integral(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(a // g for a in ints)


def _integral(v):
    """An integer vector with the direction of v: v itself when its entries
    are ints, else v times the lcm of its denominators."""
    if all(type(a) is int for a in v):
        return tuple(v)
    return cleared(fracvec(v))[0]


def cleared(v):
    """(N, e) with v_i = N_i / e, e the lcm of the denominators of rationals v."""
    e = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (e // x.denominator) for x in v), e


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def rref(m):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    rows = [list(fracvec(r)) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(m):
    if not m:
        return 0
    rows = [_integral(r) for r in m]
    return len(independent_rows(rows, len(rows[0])))


def independent_rows(rows, limit):
    """Indices of the integer rows independent of the rows before them, at
    most `limit` of them: the pivot columns of rref(transpose(rows)).

    Fraction-free (Bareiss 1968) echelon: each kept row is reduced by the
    kept rows before it, dividing exactly by the previous pivot, so every
    entry is a minor of the input and nothing leaves the integers.
    """
    basis = []  # (pivot column, reduced row)
    kept = []
    for i, row in enumerate(rows):
        v = row
        prev = 1
        for c, b in basis:
            v = [(b[c] * x - v[c] * y) // prev for x, y in zip(v, b)]
            prev = b[c]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is not None:
            basis.append((c, v))
            kept.append(i)
            if len(kept) == limit:
                break
    return kept


def nullspace(m):
    """Rational basis of {x : m x = 0}; empty matrix means the full space."""
    if not m:
        raise ValueError("nullspace needs the ambient dimension; pass a row of zeros")
    ncols = len(m[0])
    red, pivots = rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def solve(m, b):
    """One solution of m x = b, or None if inconsistent."""
    aug = [list(fracvec(row)) + [frac(bb)] for row, bb in zip(m, b)]
    red, pivots = rref(aug)
    ncols = len(m[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


def adjugate(m):
    """Integer adjugate of a nonsingular square integer matrix:
    adj(m) m = m adj(m) = det(m) I.

    Fraction-free Gauss-Jordan (Bareiss 1968) on [m | I]: after the last
    step the left block is +/- det(m) I and the right block +/- adj(m).
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    sign = 1
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            raise ValueError("singular matrix")
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pv = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = pv
    return tuple(tuple(sign * x for x in row[n:]) for row in a)


def int_det(m):
    """Determinant of a square integer matrix.

    Fraction-free Gaussian elimination (Bareiss 1968): after step k every
    entry below row k is a (k+1)-minor of m, so the division by the previous
    pivot is exact and the last pivot is +/- det(m).
    """
    a = [list(row) for row in m]
    if not all(type(x) is int for row in a for x in row):
        if not all(frac(x).denominator == 1 for row in a for x in row):
            raise ValueError("matrix is not integral")
        a = [[int(x) for x in row] for row in a]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        pv = a[k][k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i][k + 1 :] = [(pv * x - f * y) // prev for x, y in zip(a[i][k + 1 :], a[k][k + 1 :])]
        prev = pv
    return sign * prev


def hermite(m):
    """Row Hermite form of an integer matrix by row operations only.

    Returns (H, U) with U unimodular and U m = H: H is in row echelon form,
    each pivot is positive and the entries above it lie in [0, pivot).  The
    nonzero rows of H are a canonical basis of the lattice m's rows span,
    and the rows of U beside H's zero rows a basis of the integer left
    kernel {y : y m = 0}.  Each column is cleared by a Euclid loop: the
    smallest entry is the pivot, each other entry is reduced by it, and a
    nonzero remainder is promoted to be the next pivot.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    a = [[int(x) for x in row] for row in m]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    t = 0
    for c in range(ncols):
        live = [i for i in range(t, nrows) if a[i][c]]
        if not live:
            continue
        swap(t, min(live, key=lambda i: abs(a[i][c])))
        done = False
        while not done:
            done = True
            for i in range(t + 1, nrows):
                if a[i][c]:
                    row_op(i, t, a[i][c] // a[t][c])
                    if a[i][c]:  # remainder smaller than the pivot; promote it
                        swap(t, i)
                        done = False
        if a[t][c] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        for i in range(t):
            row_op(i, t, a[i][c] // a[t][c])
        t += 1
        if t == nrows:
            break
    return tuple(map(tuple, a)), tuple(map(tuple, u))
