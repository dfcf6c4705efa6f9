"""Exact rational and integer linear algebra used by the polyhedral kernel.

Vectors are tuples, matrices are tuples of row tuples.  Entries are ints or
`fractions.Fraction`; nothing in here touches floating point.  Every rational
question (rank, independent rows, nullspace, solve, adjugate, determinant)
is read off one fraction-free elimination over integer rows (`_eliminate`);
the lattice questions are read off one row Hermite reduction (`hermite`).
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


def _eliminate(a, reduce_above=False):
    """Fraction-free (Bareiss 1968) elimination of the integer rows a, in
    place.  Returns (pivots, sign, d): the pivot columns, the parity of the
    row swaps (+1 or -1) and the last pivot (1 when there is none).

    Row k ends with pivot k and every entry is a minor of the input, so each
    division by the previous pivot is exact and d is the determinant of the
    rows' pivot block.  Without `reduce_above` the rows stop at echelon form
    and only the columns after each pivot are updated.  With it the rows
    above each pivot are cleared too, so pivot row k ends as d times row k of
    the reduced row echelon form.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        pv = a[r][c]
        if reduce_above:
            for i in range(nrows):
                if i != r:
                    f = a[i][c]
                    a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], a[r])]
        else:
            for i in range(r + 1, nrows):
                f = a[i][c]
                a[i][c + 1 :] = [(pv * x - f * y) // prev for x, y in zip(a[i][c + 1 :], a[r][c + 1 :])]
        pivots.append(c)
        prev = pv
    return pivots, sign, prev


def rank(m):
    return len(_eliminate([list(_integral(r)) for r in m])[0])


def independent_rows(rows):
    """Indices of the integer rows independent of the rows before them: the
    pivot columns of their transpose.

    The first n rows (n the row length), the head, are eliminated first, as
    their transpose, whose pivot columns are the head's part of the answer.
    An independent head spans the space, so the later rows are dependent.
    Otherwise the head's independent rows and the later rows are eliminated
    together; the head's dependent rows enter no second elimination.
    """
    n = len(rows[0]) if rows else 0
    start = _eliminate([list(col) for col in zip(*rows[:n])])[0]
    if len(start) == n or len(rows) <= n:
        return start
    r = len(start)
    kept = [rows[i] for i in start] + list(rows[n:])
    return start + [n + c - r for c in _eliminate([list(col) for col in zip(*kept)])[0][r:]]


def nullspace(m):
    """Rational basis of {x : m x = 0}, one vector per free column of the
    reduced row echelon form; empty matrix means the full space."""
    if not m:
        raise ValueError("nullspace needs the ambient dimension; pass a row of zeros")
    ncols = len(m[0])
    a = [list(_integral(r)) for r in m]
    pivots, _, d = _eliminate(a, reduce_above=True)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = Fraction(-a[r][fc], d)
            basis.append(tuple(v))
    return tuple(basis)


def solve(m, b):
    """The solution of m x = b whose free variables are 0, or None if the
    system is inconsistent.  Each row [m_i | b_i] is cleared of denominators
    first, which leaves the solution set as it is."""
    ncols = len(m[0])
    a = [list(_integral(list(row) + [bb])) for row, bb in zip(m, b)]
    pivots, _, d = _eliminate(a, reduce_above=True)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(a[r][ncols], d)
    return tuple(x)


def adjugate(m):
    """Integer adjugate of a nonsingular square integer matrix:
    adj(m) m = m adj(m) = det(m) I.

    Reduces [m | I]: the left block ends as d I with d = +/- det(m), and the
    right block as d m^-1 = +/- adj(m).
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    pivots, sign, _ = _eliminate(a, reduce_above=True)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(sign * x for x in row[n:]) for row in a)


def int_det(m):
    """Determinant of a square integer matrix: +/- the last pivot of its
    echelon form, or 0 when a column has no pivot."""
    a = [list(row) for row in m]
    if not all(type(x) is int for row in a for x in row):
        if not all(frac(x).denominator == 1 for row in a for x in row):
            raise ValueError("matrix is not integral")
        a = [[int(x) for x in row] for row in a]
    pivots, sign, d = _eliminate(a)
    return sign * d if len(pivots) == len(a) else 0


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
