"""One closed-form volume kernel for toric and complexity-one data.

Both volumes are sums over simplicial cells c of the weight cone,

    vol(xi) = sum_c t_c w_c,    t_c = |det c| / prod_{i in c} p_i,    p_i = <u_i, xi>,

where w_c = 1 for a toric cone, and w_c = sum_{i in c} a_ci / p_i with
a_ci = <ell_c, u_i> for a complexity-one divisor whose degree function is the
linear functional ell_c on the cell.  With s = sum u_i / p_i,
q = sum a_ci u_i / p_i^2, W = sum u_i u_i^T / p_i^2 and
R = sum a_ci u_i u_i^T / p_i^3 (sums over the rays of the cell),

    grad vol = -sum_c t_c (w_c s + q),
    hess vol =  sum_c t_c [w_c (s s^T + W) + s q^T + q s^T + 2 R].

Each call forms u_i / p_i once per ray and computes only the order it is
asked for; toric cells skip the weight terms.  Plain Python arithmetic
carries float, Fraction, mpf and mpi values through the same code, so the
exact path is the float path.  A rational weight a_ci enters through its
numerator and denominator, because a Fraction meets an mpf only as
a * (1 / p) (Fraction / mpf raises TypeError) and an mpi not at all.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import _exact as ex
from .errors import NotInReebCone


@dataclass(frozen=True)
class ReebVector:
    """A vector in the open Reeb cone, exact-rational or floating point."""

    xi: tuple
    exact: bool

    @classmethod
    def rational(cls, values):
        return cls(ex.fracvec(values), True)

    @classmethod
    def real(cls, values):
        return cls(tuple(float(v) for v in values), False)

    def __iter__(self):
        return iter(self.xi)

    def __len__(self):
        return len(self.xi)

    def as_float(self):
        return tuple(float(v) for v in self.xi)


def check_length(name, v, dim):
    if len(v) != dim:
        raise ValueError(f"{name} has {len(v)} entries but the weight cone lies in dimension {dim}")


def sine(g, u0):
    """Sine of the angle between -g and u0: zero exactly when g is parallel to
    u0, NaN when g = 0.  Exact up to the final square root for Fractions."""
    gg = sum(x * x for x in g)
    if gg == 0:
        return float("nan")
    uu = sum(x * x for x in u0)
    gu = sum(x * y for x, y in zip(g, u0))
    ratio = 1 - (gu * gu) / (gg * uu)
    if isinstance(ratio, Fraction):
        return 0.0 if ratio == 0 else math.sqrt(float(ratio))
    if isinstance(ratio, mpmath.mpf):
        return mpmath.sqrt(max(ratio, mpmath.mpf(0)))
    return math.sqrt(max(float(ratio), 0.0))


class CellSum:
    """Ray table plus simplicial cells (ray indices, |det|, weights a_ci or None)."""

    def __init__(self, weight_rays, cells, dim):
        """weight_rays: the weight cone's rays; cells: (SimplicialPiece, ell)
        pairs, ell None for a toric cell.  Cell rays that are not weight-cone
        rays are appended to the ray table."""
        rays = list(weight_rays)
        index = {u: i for i, u in enumerate(rays)}
        table = []
        for piece, ell in cells:
            for u in piece.rays:
                if u not in index:
                    index[u] = len(rays)
                    rays.append(u)
            weights = None
            if ell is not None:
                weights = tuple(ex.dot(ell, u) for u in piece.rays)
            table.append((tuple(index[u] for u in piece.rays), piece.det_abs, weights))
        self.rays = tuple(rays)
        self.cells = tuple(table)
        self.dim = dim

    def pairings(self, xi):
        """<u_i, xi> for every ray of the table; raises off the Reeb cone.

        The test is `not p > 0`: an mpi that straddles 0 compares as None
        either way, and such a box is not inside the open cone."""
        vals = tuple(Fraction(v) if isinstance(v, int) else v for v in xi)
        check_length("Reeb vector", vals, self.dim)
        out = []
        for u in self.rays:
            p = sum(a * b for a, b in zip(u, vals))
            if not p > 0:
                raise NotInReebCone(f"<{u}, xi> = {p} is not positive")
            out.append(p)
        return out

    def evaluate(self, xi, order=0):
        """(vol,), (vol, grad) or (vol, grad, hess) at xi, for order 0, 1 or 2."""
        p = self.pairings(xi)
        n = self.dim
        if order:
            v = [[x / pi for x in u] for u, pi in zip(self.rays, p)]  # u_i / p_i
            grad = [0] * n
        if order == 2:
            h = [[0] * n for _ in range(n)]
        vol = 0
        for idx, det, a in self.cells:
            prod = 1
            for i in idx:
                prod = prod * p[i]
            t = det / prod
            if a is None:
                vol = vol + t
            else:
                b = [ai.numerator * (1 / p[i]) / ai.denominator for ai, i in zip(a, idx)]  # a_ci / p_i
                w = sum(b)
                vol = vol + t * w
            if not order:
                continue
            vs = [v[i] for i in idx]
            s = [sum(col) for col in zip(*vs)]
            if a is None:
                grad = [gk - t * sk for gk, sk in zip(grad, s)]
            else:
                q = [sum([bi * vk for bi, vk in zip(b, col)]) for col in zip(*vs)]
                grad = [gk - t * (w * sk + qk) for gk, sk, qk in zip(grad, s, q)]
            if order < 2:
                continue
            for k in range(n):
                row = h[k]
                for l in range(k, n):
                    ww = sum([vi[k] * vi[l] for vi in vs])
                    if a is None:
                        val = t * (s[k] * s[l] + ww)
                    else:
                        rr = sum([bi * vi[k] * vi[l] for bi, vi in zip(b, vs)])
                        val = t * (w * (s[k] * s[l] + ww) + s[k] * q[l] + q[k] * s[l] + 2 * rr)
                    row[l] = row[l] + val
        if not order:
            return (vol,)
        if order == 1:
            return vol, tuple(grad)
        for k in range(n):
            for l in range(k + 1, n):
                h[l][k] = h[k][l]
        return vol, tuple(grad), tuple(tuple(row) for row in h)
