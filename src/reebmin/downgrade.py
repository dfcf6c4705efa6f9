"""Subtorus downgrades of affine space and binomial hypersurface helpers.

Given the weight matrix F of a rank-r subtorus acting on C^N, complete it to
an exact sequence 0 -> Z^r -F-> Z^N -P-> Z^(N-r) -> 0 with an integer section
s (s F = id), read off the cone sigma = {xi : F xi >= 0}, and compute the
coefficient polyhedra s({y >= 0, P y = p}) of the induced polyhedral divisor.
Binomial hypersurfaces z^a = z^b are converted to toric data through the
saturated character-lattice quotient Z^N / Z(a - b).

Every lattice question is read off one row Hermite reduction U F = H
(`_exact.hermite`): coker(F) is torsion free iff the top r rows of H are
the identity, and then the top r rows of U are a section and the others a
basis of the left kernel {y : y F = 0}, which P must span.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _exact as ex
from .errors import (
    EmptyFiber,
    Inconsistent,
    InfeasibleSystem,
    NonInvariant,
    RankDeficient,
    TorsionCokernel,
)
from .polyhedral import Polyhedron, VCone, _extreme_cone, dual_cone, vertex_enumeration
from .toricvol import ReebVector, ToricData


@dataclass(frozen=True)
class WeightMatrix:
    """Integer N x r matrix whose row i is the torus weight of coordinate z_i."""

    rows: tuple
    N: int
    r: int

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if not rows:
            raise ValueError("empty weight matrix")
        r = len(rows[0])
        if any(len(row) != r for row in rows):
            raise ValueError("ragged weight matrix")
        if ex.rank(rows) != r:
            raise RankDeficient("torus action is not effective: rank(F) < r")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "N", len(rows))
        object.__setattr__(self, "r", r)

    def column_sums(self):
        return tuple(sum(row[j] for row in self.rows) for j in range(self.r))


@dataclass(frozen=True)
class DowngradeData:
    """Exact-sequence data (F, P, s) with P F = 0 and s F = id."""

    F: WeightMatrix
    P: tuple
    s: tuple

    def __init__(self, F, P, s):
        P = tuple(tuple(int(x) for x in row) for row in P)
        s = tuple(tuple(int(x) for x in row) for row in s)
        prod = ex.mat_mul(P, F.rows) if P else ()
        if any(x != 0 for row in prod for x in row):
            raise ValueError("P F != 0")
        sf = tuple(tuple(Fraction(x) for x in row) for row in ex.mat_mul(s, F.rows))
        if sf != ex.identity(F.r):
            raise ValueError("s F != id")
        u = _reduction(F)
        if P and _lattice(P) != _lattice(u[F.r :]):
            raise ValueError("rows of P do not generate the saturated cokernel lattice")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "s", s)


def _reduction(F):
    """U from the Hermite form U F = H, checked to have H = (I; 0): its top
    r rows are a section of F and the others span the left kernel."""
    h, u = ex.hermite(F.rows)
    order = math.prod(h[i][i] for i in range(F.r))  # |det| of H's top block; F has rank r
    if order != 1:
        raise TorsionCokernel(f"coker(F) has torsion of order {order}")
    return u


def _lattice(m):
    """The nonzero rows of m's Hermite form: one basis per row lattice."""
    return tuple(row for row in ex.hermite(m)[0] if any(row))


def complete_sequence(F: WeightMatrix) -> DowngradeData:
    """Canonical cokernel map P and integer section s of F.

    Both come from one Hermite reduction U F = (I; 0): P is the Hermite form
    of U's kernel rows, and s is U's top r rows, each reduced against P's
    pivots into [0, pivot).  Every section is one of these plus a vector
    in P's row lattice, so P and s depend only on F.
    """
    u = _reduction(F)
    p = _lattice(u[F.r :])
    s = []
    for row in u[: F.r]:
        for prow in p:
            c = next(j for j, x in enumerate(prow) if x)
            q = row[c] // prow[c]
            row = tuple(x - q * y for x, y in zip(row, prow))
        s.append(row)
    return DowngradeData(F, p, tuple(s))


def downgrade_sigma(d: DowngradeData):
    """The cone sigma = {xi : F xi >= 0} and its dual, in one pass.

    The rows of F generate the dual.  When their cone is pointed (sigma is
    full dimensional), its sorted extreme rays are what `dual_cone(sigma)`
    returns, and the two cones are recorded as each other's `_dual`, with
    the incidence of that pass; otherwise the dual contains a line, which
    takes a second pass.
    """
    f_cone = VCone([row for row in d.F.rows if any(row)], d.F.r)
    sigma = dual_cone(f_cone)
    if not f_cone.is_pointed():
        return sigma, dual_cone(sigma)
    return sigma, _extreme_cone(f_cone)


def downgrade_coefficient(d: DowngradeData, p) -> Polyhedron:
    """Coefficient polyhedron s({y >= 0 : P y = p}) with tail cone sigma.

    Any rational solution y0 of P y = p will do: ker P = im F over Q, so the
    fiber is {y0 + F xi : F xi + y0 >= 0} and its image under s is the vertex
    enumeration of {xi : F xi + y0 >= 0} translated by s(y0).  An empty
    fiber is an infeasible system.  When F is square, P has no rows and
    y0 = 0, so the answer is sigma itself.
    """
    p = [ex.frac(x) for x in p]
    if len(p) != d.F.N - d.F.r:
        raise ValueError("fiber point has the wrong dimension")
    y0 = ex.solve(d.P, p) if d.P else (Fraction(0),) * d.F.N
    try:
        poly = vertex_enumeration(zip(d.F.rows, y0), d.F.r)
    except InfeasibleSystem:
        raise EmptyFiber(f"no y >= 0 with P y = {p}") from None
    sy0 = ex.mat_vec(d.s, y0)
    return poly.translate(sy0)


@dataclass(frozen=True)
class BinomialHypersurface:
    """The hypersurface z^a = z^b with disjoint supports."""

    a: tuple
    b: tuple

    def __init__(self, a, b):
        a = tuple(int(x) for x in a)
        b = tuple(int(x) for x in b)
        if len(a) != len(b):
            raise ValueError("exponent vectors of different length")
        if any(x < 0 for x in a + b):
            raise ValueError("exponents must be nonnegative")
        if a == b:
            raise ValueError("a == b defines the zero polynomial")
        if any(x > 0 and y > 0 for x, y in zip(a, b)):
            raise ValueError("supports of a and b must be disjoint")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def N(self):
        return len(self.a)


def binomial_to_toric(h: BinomialHypersurface) -> ToricData:
    """Toric data of the binomial hypersurface via the character quotient.

    The quotient by the primitive c = (a - b) / gcd is saturated: the
    Hermite reduction U c = (1, 0, ..., 0) makes the rows of U after the
    first a projection onto it.  Coordinate characters map to the
    weight-cone rays and u0 is the image of (1, ..., 1) - a.
    """
    c = ex.primitive([x - y for x, y in zip(h.a, h.b)])
    _h, u = ex.hermite(tuple((x,) for x in c))
    q = u[1:]  # (N-1) x N projection onto the saturated quotient
    images = [tuple(row[i] for row in q) for i in range(h.N)]
    if any(all(x == 0 for x in img) for img in images):
        raise ValueError("a coordinate character dies in the quotient")
    sigma_dual = VCone(images, h.N - 1)
    one_minus_a = tuple(1 - x for x in h.a)
    u0 = ex.mat_vec(q, one_minus_a)
    return ToricData(sigma_dual, u0)


def induced_reeb(F: WeightMatrix, ambient_weight) -> ReebVector:
    """The unique xi with <F_i, xi> = ambient_weight_i for every coordinate."""
    w = list(ambient_weight)
    if len(w) != F.N:
        raise ValueError("ambient weight has the wrong length")
    exact = all(isinstance(x, (int, Fraction, str)) for x in w)
    if exact:
        sol = ex.solve(F.rows, w)
        if sol is None:
            raise Inconsistent("weight not in the row space (no exact solution)")
        return ReebVector.rational(sol)
    a = np.asarray(F.rows, dtype=float)
    wf = np.asarray([float(x) for x in w])
    sol, *_ = np.linalg.lstsq(a, wf, rcond=None)
    resid = a @ sol - wf
    if np.max(np.abs(resid)) > 1e-9 * (1 + np.max(np.abs(wf))):
        raise Inconsistent(f"weight not in the row space (residual {np.max(np.abs(resid)):.3g})")
    return ReebVector.real(sol)


def hypersurface_u0(F: WeightMatrix, monomials=None):
    """Log-discrepancy functional (sum of weight rows) - (weight of f).

    The weight of f is read off the exponent vectors of its monomials, which
    must all share one torus weight; with no equation it is 0.
    """
    if monomials is not None:
        weights = []
        for mono in monomials:
            mono = tuple(int(x) for x in mono)
            if len(mono) != F.N:
                raise ValueError("monomial exponent length mismatch")
            weights.append(tuple(sum(m * row[j] for m, row in zip(mono, F.rows)) for j in range(F.r)))
        if any(w != weights[0] for w in weights):
            raise NonInvariant(f"monomial weights differ: {sorted(set(weights))}")
        f_weight = weights[0]
    else:
        f_weight = (0,) * F.r
    cols = F.column_sums()
    return tuple(Fraction(c - w) for c, w in zip(cols, f_weight))
