"""One closed-form volume kernel for toric and complexity-one data.

Both volumes are sums over cells c of one form, a constant over a product
of pairings, a ray's index allowed to occur more than once in a cell:

    vol(xi) = sum_c t_c,    t_c = c / (den prod_{i in c} p_i),    p_i = <u_i, xi>.

A toric cone's cells are its simplicial pieces, c = |det| and den = 1.  On
a simplicial piece of a complexity-one divisor the degree function is a
linear functional ell, and

    |det| / prod_j p_j * sum_i <ell, u_i> / p_i = sum_i |det| <ell, u_i> / (p_i prod_j p_j),

so the piece becomes one cell per ray u_i with <ell, u_i> != 0 that takes
u_i twice, with c / den = |det| <ell, u_i> and den the lcm of the ells'
denominators (a zero-weight ray drops out, which is exact).  A cell's
length is vol's homogeneity degree n, given by the data: dim for a toric
cone, dim + 1 for a divisor.  With s = sum u_i / p_i and W = sum u_i
u_i^T / p_i^2 over the cell's entries,

    grad vol = -sum_c t_c s,    hess vol = sum_c t_c (s s^T + W).

Each call computes only the order it is asked for.  All three paths read
the one table of (ray indices, c) over den; `evaluate` picks a path by the
type of xi:

- rational xi (ints and Fractions): the integer path.  xi's denominators
  are cleared once, every cell's terms are integers over powers of the
  product of its pairings, and `_integer_sums` sums each order's
  numerators over one denominator; `evaluate` makes each entry one
  Fraction, and `certificate` reads the integers themselves.
- all-float xi: the array path, which Newton also calls directly on
  ndarrays.  The ray matrix, the cells' ray indices and c / den (rounded
  once) are gathered into numpy arrays when the sum is built; a call forms
  the pairings p = R xi once, each summed left to right as the generic path
  sums it, and every other sum as an array reduction in another order, so
  the two paths agree to a few ulps of each result's largest entry, not
  bitwise.
- everything else (mpf, mpi, mixed input, and Fractions when the tests ask
  for it): the generic path, plain Python arithmetic on u_i / p_i, which
  carries any ordered field and stays the tests' reference for the other
  two.

`certificate` is the one exact first-order certificate at a rational
point, read off the integer sums; Newton's answer, `sine` at rational
points and `is_rational_minimizer` all read it.  Over no cells each path
sums to zeros of its own arithmetic, with no case of its own.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

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


def _combination(coeffs, vectors):
    """sum_i coeffs[i] * vectors[i], entrywise."""
    return [sum(col) for col in zip(*[[a * x for x in v] for a, v in zip(coeffs, vectors)])]


def _is_rational(v):
    return all(isinstance(x, (int, Fraction)) for x in v)


class CellSum:
    """Ray table plus one table of cells (ray indices, c) over one integer
    den: a cell adds c / (den prod_{i in cell} <u_i, xi>)."""

    def __init__(self, weight_rays, cells, degree):
        """weight_rays: the weight cone's rays; cells: (SimplicialPiece, ell)
        pairs, ell None for every cell of a toric cone and a vector for every
        cell of a divisor; degree: vol's homogeneity degree n, every cell's
        length.  Cell rays that are not weight-cone rays join the ray table."""
        rays = list(weight_rays)
        dim = len(rays[0])
        index = {u: i for i, u in enumerate(rays)}
        den = math.lcm(*(x.denominator for _, ell in cells if ell is not None for x in ell))
        table = []
        for piece, ell in cells:
            for u in piece.rays:
                if u not in index:
                    index[u] = len(rays)
                    rays.append(u)
            idx = tuple(index[u] for u in piece.rays)
            if ell is None:
                table.append((idx, piece.det_abs))
                continue
            big = [x.numerator * (den // x.denominator) for x in ell]  # den ell, integers
            for i, u in zip(idx, piece.rays):
                a = sum([x * y for x, y in zip(big, u)])  # den <ell, u_i>
                if a:
                    table.append((idx + (i,), piece.det_abs * a))
        self.rays = tuple(rays)
        self.cells = tuple(table)
        self.den = den
        self.dim = dim
        self.degree = m = degree
        self._powers = [0] * len(rays)  # per ray: its most entries in one cell, its pairing's power in B
        for idx, _ in table:
            for i in idx:
                self._powers[i] = max(self._powers[i], idx.count(i))
        self._pairs = tuple((k, l) for k in range(dim) for l in range(k, dim))
        self._squares = tuple(tuple(u[k] * u[l] for k, l in self._pairs) for u in self.rays)  # per ray: u u^T, upper triangle
        # the array path's tables: rays R (one per row), each cell's rays
        # R[idx] (cells x degree x dim), ray indices and c / den, rounded once
        flat = chain.from_iterable
        self._ray_matrix = np.fromiter(flat(self.rays), float, len(self.rays) * dim).reshape(-1, dim)
        self._cell_index = np.fromiter(flat(idx for idx, _ in table), np.intp, len(table) * m).reshape(-1, m)
        self._cell_rays = self._ray_matrix[self._cell_index]
        self._coef = np.array([c / den for _, c in table], dtype=float)

    def evaluate(self, xi, order=0):
        """(vol,), (vol, grad) or (vol, grad, hess) at xi, for order 0, 1 or 2."""
        xi = tuple(xi)
        if _is_rational(xi):
            return self._evaluate_rational(xi, order)
        if not all(isinstance(x, float) for x in xi):
            return self._evaluate_generic(xi, order)
        check_length("Reeb vector", xi, self.dim)
        out = self._evaluate_array(np.array(xi), order)
        if not order:
            return (float(out[0]),)
        if order == 1:
            return float(out[0]), tuple(out[1].tolist())
        h = (out[2] + out[2].T) * 0.5
        return float(out[0]), tuple(out[1].tolist()), tuple(map(tuple, h.tolist()))

    def _pairings_array(self, x):
        """p = R x for a float ndarray x of the right length; raises off
        the Reeb cone, naming the first ray whose pairing is not positive.

        Each p_i is summed left to right, as the generic path sums it: a
        pairing can cancel, and then 1/p_i carries its rounding into every
        term, so the two paths round the pairings alike (`R @ x` sums in
        another order, which put the paths up to 344 ulps apart on seeded
        6-dim cones)."""
        p = (self._ray_matrix * x).cumsum(axis=1)[:, -1]
        if not p.min() > 0:
            i = int(np.flatnonzero(~(p > 0))[0])
            raise NotInReebCone(f"<{self.rays[i]}, xi> = {float(p[i])} is not positive")
        return p

    def _evaluate_array(self, x, order):
        """The sums at a float ndarray x as array reductions: vol a numpy
        float, grad an n-vector, hess an n x n matrix, symmetric up to the
        rounding of its two triangles (Newton's eigh reads one of them).

        With P the cells' pairings and V the cells' rays over them (cells x
        degree x dim), s = sum_i V_i; the Hessian's W terms are one product
        of V's rows, weighted per row by t_c, and its s s^T terms one
        product of the cells' s.
        """
        p = self._pairings_array(x)
        pc = p[self._cell_index]
        t = self._coef / pc.prod(axis=1)
        vol = t.sum()
        if not order:
            return (vol,)
        v = self._cell_rays / pc[:, :, None]  # u_i / p_i
        s = v.sum(axis=1)
        grad = 0.0 - t @ s  # from +0.0, as the generic path sums: no -0.0 over no cells
        if order < 2:
            return vol, grad
        rows = v.reshape(-1, self.dim)
        h = (s.T * t) @ s
        h += (rows.T * np.repeat(t, self.degree)) @ rows
        return vol, grad, h

    def _integer_sums(self, xi, order):
        """The sums at rational xi in Python integers: ((X, D), sums) with
        xi = X / D and, per order k <= order, sums[k] = (unreduced numerators
        of vol, grad or the Hessian's upper triangle by rows, their one
        denominator).

        With P_i = <u_i, X> and, per cell, Pi = prod P_i and c_i = Pi / P_i
        over its entries, S = sum c_i u_i and C = sum c_i^2 u_i u_i^T, a cell
        adds c / Pi to vol, -c S / Pi^2 to grad and c (S S^T + C) / Pi^3 to
        the Hessian, each over den.  Every Pi divides B = prod_i P_i^(m_i),
        m_i the most entries ray i has in one cell, so order k sums its
        numerators over den B^(k+1), a cell's scaled by f^(k+1) for f = B /
        Pi.  Homogeneity puts D back: order k scales by D^(degree + k).
        """
        check_length("Reeb vector", xi, self.dim)
        big, dx = ex.cleared(xi)
        pair = []
        for u in self.rays:
            p = sum([a * b for a, b in zip(u, big)])
            if p <= 0:
                raise NotInReebCone(f"<{u}, xi> = {Fraction(p, dx)} is not positive")
            pair.append(p)
        rays, pairs, n = self.rays, self._pairs, self.dim
        b = math.prod([p**k for p, k in zip(pair, self._powers) if k])
        vol, grad, hess = 0, [0] * n, [0] * len(pairs)
        for idx, c in self.cells:
            ps = [pair[i] for i in idx]
            prod = math.prod(ps)
            f = b // prod
            w = c * f
            vol += w
            if not order:
                continue
            w *= f
            cs = [prod // p for p in ps]
            us = [rays[i] for i in idx]
            s = _combination(cs, us)
            grad = [g - w * x for g, x in zip(grad, s)]
            if order < 2:
                continue
            w *= f
            uus = [self._squares[i] for i in idx]
            cc = _combination([ci * ci for ci in cs], uus)
            hess = [h + w * (s[k] * s[l] + x) for h, x, (k, l) in zip(hess, cc, pairs)]
        sums = ([vol], grad, hess)[: order + 1]
        m = self.degree
        return (big, dx), [([x * dx ** (m + k) for x in nums], self.den * b ** (k + 1)) for k, nums in enumerate(sums)]

    def _evaluate_rational(self, xi, order):
        """`_integer_sums` at rational xi, one Fraction per entry."""
        _, sums = self._integer_sums(xi, order)
        out = [[Fraction(x, d) for x in nums] for nums, d in sums]
        if not order:
            return (out[0][0],)
        if order == 1:
            return out[0][0], tuple(out[1])
        n = self.dim
        hess = [[None] * n for _ in range(n)]
        for (k, l), x in zip(self._pairs, out[2]):
            hess[k][l] = hess[l][k] = x
        return out[0][0], tuple(out[1]), tuple(tuple(row) for row in hess)

    def _evaluate_generic(self, xi, order):
        """The sums in plain Python arithmetic on u_i / p_i: float, mpf, mpi
        and any ordered field.  On Fractions it is the tests' reference for
        the integer path.

        A pairing is tested as `not p > 0`: an mpi that straddles 0 compares
        as None either way, and such a box is not inside the open cone."""
        vals = tuple(Fraction(v) if isinstance(v, int) else v for v in xi)
        check_length("Reeb vector", vals, self.dim)
        p = [sum(a * b for a, b in zip(u, vals)) for u in self.rays]
        for u, pi in zip(self.rays, p):
            if not pi > 0:
                raise NotInReebCone(f"<{u}, xi> = {pi} is not positive")
        n = self.dim
        vol = 0 * p[0]  # a zero of xi's arithmetic, which the sums over no cells stay
        if order:
            v = [[x / pi for x in u] for u, pi in zip(self.rays, p)]  # u_i / p_i
            grad = [vol] * n
        if order == 2:
            h = [[vol] * n for _ in range(n)]
        for idx, c in self.cells:
            prod = self.den
            for i in idx:
                prod = prod * p[i]
            t = c / prod
            vol = vol + t
            if not order:
                continue
            vs = [v[i] for i in idx]
            s = [sum(col) for col in zip(*vs)]
            grad = [gk - t * sk for gk, sk in zip(grad, s)]
            if order < 2:
                continue
            for k in range(n):
                row = h[k]
                for l in range(k, n):
                    row[l] = row[l] + t * (s[k] * s[l] + sum([vi[k] * vi[l] for vi in vs]))
        if not order:
            return (vol,)
        if order == 1:
            return vol, tuple(grad)
        for k in range(n):
            for l in range(k + 1, n):
                h[l][k] = h[k][l]
        return vol, tuple(grad), tuple(tuple(row) for row in h)

    def certificate(self, xi, u0):
        """(nvol, grad_norm, sine, minimizer) at rational xi and u0 from one
        order-1 `_integer_sums` call, no Fraction formed.  With grad vol = G /
        D and u0 = U / E: nvol = <u0, xi>^degree vol, grad_norm^2 =
        |proj|^2 = (<G, G> <U, U> - <G, U>^2) / (D^2 <U, U>) for proj grad
        vol projected off u0, and the sine between -grad vol and u0 has
        sine^2 = 1 - <G, U>^2 / (<G, G> <U, U>), NaN when G = 0 (so (0.0,
        0.0, NaN, False) without cells); each is one quotient of two ints,
        rounded once.  minimizer (proj = 0 and <G, U> < 0: by strict
        convexity, xi is on the minimizer's ray) is, by Cauchy-Schwarz, <G,
        G> <U, U> = <G, U>^2 and <G, U> < 0."""
        (xs, dx), (((vol,), vden), (g, gden)) = self._integer_sums(xi, 1)
        n = self.degree
        us, e = ex.cleared(u0)
        uu = sum([x * x for x in us])
        gu = sum([x * y for x, y in zip(g, us)])
        gg = sum([x * x for x in g])
        rest = gg * uu - gu * gu
        a = sum([x * y for x, y in zip(us, xs)])  # <u0, xi> = a / (e dx)
        nvol = a**n * vol / ((e * dx) ** n * vden)
        grad_norm = math.sqrt(rest / (gden * gden * uu))
        sine = float("nan") if gg == 0 else math.sqrt(rest / (gg * uu))
        return nvol, grad_norm, sine, rest == 0 and gu < 0

    def sine(self, xi, u0):
        """The sine between -grad vol and u0 at xi, NaN when grad vol = 0: the
        certificate's at a rational xi, else |proj| / |grad vol| in xi's own
        arithmetic (float or mpf).  An interval entry (one with an `_mpi_`
        pair, such as an mpmath mpi) raises TypeError before the kernel
        runs: u0's Fractions cannot multiply it."""
        xi = tuple(xi)
        if _is_rational(xi):
            return self.certificate(xi, u0)[2]
        for x in xi:
            if hasattr(x, "_mpi_"):
                raise TypeError(f"the sine takes rational, float or mpf points, not {type(x).__name__}")
        _, g = self.evaluate(xi, 1)
        c = sum(x * y for x, y in zip(g, u0)) / sum(x * x for x in u0)
        proj = [x - c * y for x, y in zip(g, u0)]
        gg = sum(x * x for x in g)
        if gg == 0:
            return float("nan")
        # sine^2 = |proj|^2 / |grad|^2, which rounds to a few ulps; the equal
        # 1 - <grad, u0>^2 / (|grad|^2 |u0|^2) cancels near a minimizer and
        # resolves the sine only to sqrt(ulp(1)) = 1.5e-8
        return math.sqrt(max(float(sum(x * x for x in proj) / gg), 0.0))

    def is_rational_minimizer(self, xi, u0):
        """Exact test at a rational xi: grad vol(xi) is a negative multiple of u0."""
        return self.certificate(ex.fracvec(xi), ex.fracvec(u0))[3]
