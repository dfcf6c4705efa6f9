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

Each call computes only the order it is asked for; toric cells skip the
weight terms.  All three paths read one cell table of (ray indices, |det|,
A, e), with weights a_ci = A_i / e (A None for a toric cell).  `evaluate`
picks a path by the type of xi:

- rational xi (ints and Fractions): the integer path.  xi's denominators
  are cleared once, every cell's terms are integers over powers of the
  product of its pairings, and `_integer_sums` sums each order's
  numerators over one denominator; `evaluate` makes each entry one
  Fraction, and `certificate` reads the integers themselves.
- all-float xi: the array path, which Newton also calls directly on
  ndarrays.  The ray matrix, the cells' ray indices, |det| and the weights
  A_i / e (rounded once) are gathered into numpy arrays when the sum is
  built; a call forms the pairings p = R xi once, each summed left to
  right as the generic path sums it, and every other sum as an array
  reduction in another order, so the two paths agree to a few ulps of each
  result's largest entry, not bitwise.
- everything else (mpf, mpi, mixed input, and Fractions when the tests ask
  for it): the generic path, plain Python arithmetic on u_i / p_i, which
  carries any ordered field and stays the tests' reference for the other
  two.  There a weight enters as A_i * (1 / p_i) / e, ints and the field's
  own 1 / p_i: a Fraction weight would meet an mpf only as a * (1 / p)
  (Fraction / mpf raises TypeError) and an mpi not at all.

`certificate` is the one exact first-order certificate at a rational
point, read off the integer sums; Newton's answer, `sine` at rational
points and `is_rational_minimizer` all read it.
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


def _combine(terms, scale):
    """sum over terms (den, f, nums) of f nums / den, times scale: the
    numerators over the lcm of the denominators, and that lcm."""
    lcm = math.lcm(*(d for d, _, _ in terms))
    acc = None
    for d, f, nums in terms:
        m = f * (lcm // d)
        acc = [m * x for x in nums] if acc is None else [a + m * x for a, x in zip(acc, nums)]
    return [a * scale for a in acc], lcm


def _is_rational(v):
    return all(isinstance(x, (int, Fraction)) for x in v)


def _zero_sums(n, order):
    """The sums over no cells: int 0 entries, as the generic path leaves them."""
    return ((0,), (0, (0,) * n), (0, (0,) * n, ((0,) * n,) * n))[order]


class CellSum:
    """Ray table plus one table of simplicial cells (ray indices, |det|, A, e):
    the weights a_ci are A_i / e, and A is None (e = 1) for a toric cell."""

    def __init__(self, weight_rays, cells, dim):
        """weight_rays: the weight cone's rays; cells: (SimplicialPiece, ell)
        pairs, ell None for every cell of a toric cone and a vector for every
        cell of a divisor.  Cell rays that are not weight-cone rays are
        appended to the ray table."""
        rays = list(weight_rays)
        index = {u: i for i, u in enumerate(rays)}
        table = []
        cleared = {}  # ell -> (L, e0) with ell = L / e0: the cells of a region share ell
        for piece, ell in cells:
            for u in piece.rays:
                if u not in index:
                    index[u] = len(rays)
                    rays.append(u)
            a, e = None, 1
            if ell is not None:  # <ell, u_i> = A_i / e, e the lcm of their denominators
                if ell not in cleared:
                    cleared[ell] = ex.cleared(ell)
                big, e = cleared[ell]
                a = [sum([x * y for x, y in zip(big, u)]) for u in piece.rays]
                g = math.gcd(e, *a)
                a, e = tuple(x // g for x in a), e // g
            table.append((tuple(index[u] for u in piece.rays), piece.det_abs, a, e))
        self.rays = tuple(rays)
        self.cells = tuple(table)
        self.dim = dim
        self._pairs = tuple((k, l) for k in range(dim) for l in range(k, dim))
        self._squares = tuple(tuple(u[k] * u[l] for k, l in self._pairs) for u in self.rays)  # per ray: u u^T, upper triangle
        # the array path's tables: rays R (one per row), each cell's rays
        # R[idx] (cells x dim x dim), ray indices, |det| and, for a divisor,
        # the weights A_i / e, each rounded once
        ncells = len(self.cells)
        flat = chain.from_iterable
        self._ray_matrix = np.fromiter(flat(self.rays), float, len(self.rays) * dim).reshape(-1, dim)
        self._cell_index = np.fromiter(flat(cell[0] for cell in self.cells), np.intp, ncells * dim).reshape(-1, dim)
        self._cell_rays = self._ray_matrix[self._cell_index]
        self._det = np.array([cell[1] for cell in self.cells], dtype=float)
        self._weights = None
        if any(a is not None for _, _, a, _ in self.cells):
            self._weights = np.array([[x / e for x in a] for _, _, a, e in self.cells])

    def evaluate(self, xi, order=0):
        """(vol,), (vol, grad) or (vol, grad, hess) at xi, for order 0, 1 or 2."""
        xi = tuple(xi)
        if _is_rational(xi):
            return self._evaluate_rational(xi, order)
        if not all(isinstance(x, float) for x in xi):
            return self._evaluate_generic(xi, order)
        check_length("Reeb vector", xi, self.dim)
        out = self._evaluate_array(np.array(xi), order)
        if not self.cells:
            return _zero_sums(self.dim, order)
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
        dim x dim), s = sum_i V_i; the Hessian's u u^T terms are one product
        of V's rows, weighted per row by t_c w_c (plus 2 t_c a_ci / p_i for
        a divisor's cell), and its s s^T and s q^T terms one product of the
        cells' s and q each.
        """
        p = self._pairings_array(x)
        pc = p[self._cell_index]
        t = self._det / pc.prod(axis=1)
        if self._weights is None:
            tw = t
        else:
            b = self._weights / pc  # a_ci / p_i
            tw = t * b.sum(axis=1)
        vol = tw.sum()
        if not order:
            return (vol,)
        v = self._cell_rays / pc[:, :, None]  # u_i / p_i
        s = v.sum(axis=1)
        grad = -(tw @ s)
        if self._weights is not None:
            q = (b[:, :, None] * v).sum(axis=1)
            grad -= t @ q
        if order < 2:
            return vol, grad
        rows = v.reshape(-1, self.dim)
        row_weights = np.repeat(tw, self.dim)
        h = (s.T * tw) @ s
        if self._weights is not None:
            row_weights += 2 * (t[:, None] * b).ravel()
            sq = (s.T * t) @ q
            h += sq + sq.T
        h += (rows.T * row_weights) @ rows
        return vol, grad, h

    def _integer_sums(self, xi, order):
        """The sums at rational xi in Python integers: ((X, D), sums) with
        xi = X / D and, per order k <= order, sums[k] = (unreduced numerators
        of vol, grad or the Hessian's upper triangle by rows, their one
        denominator); sums is () without cells.

        With P_i = <u_i, X> and, per cell, Pi_c = prod P_i and c_i = Pi_c /
        P_i, every term is an integer over a power of Pi_c (times the cell's
        weight denominator e_c): with S = sum c_i u_i, C = sum c_i^2 u_i u_i^T
        and, for weights a_ci = A_i / e_c, W = sum A_i c_i, Q = sum A_i c_i^2
        u_i, R = sum A_i c_i^3 u_i u_i^T,

            toric:  vol det / Pi,           grad -det S / Pi^2,
                    hess det (S S^T + C) / Pi^3;
            weighted: vol det W / (e Pi^2),  grad -det (W S + Q) / (e Pi^3),
                    hess det (W (S S^T + C) + S Q^T + Q S^T + 2 R) / (e Pi^4).

        Homogeneity puts D back: order k scales by D^(dim + k), a weighted
        cell by one more D.  The cells are summed over the lcm of their
        denominators.
        """
        check_length("Reeb vector", xi, self.dim)
        big, den = ex.cleared(xi)
        pair = []
        for u in self.rays:
            p = sum([a * b for a, b in zip(u, big)])
            if p <= 0:
                raise NotInReebCone(f"<{u}, xi> = {Fraction(p, den)} is not positive")
            pair.append(p)
        if not self.cells:
            return (big, den), ()
        rays, pairs = self.rays, self._pairs
        terms = [[] for _ in range(order + 1)]  # per order: (denominator, scale, numerators)
        for idx, det, weights, e in self.cells:
            ps = [pair[i] for i in idx]
            prod = math.prod(ps)
            c = [prod // p for p in ps]
            if weights is None:
                f, d = det, prod
                terms[0].append((d, f, (1,)))
            else:
                f, d = det * den, e * prod * prod
                w = sum([a * ci for a, ci in zip(weights, c)])
                terms[0].append((d, f, (w,)))
            if not order:
                continue
            d *= prod
            us = [rays[i] for i in idx]
            s = _combination(c, us)
            if weights is None:
                terms[1].append((d, -f, s))
            else:
                ac2 = [a * ci * ci for a, ci in zip(weights, c)]
                q = _combination(ac2, us)
                terms[1].append((d, -f, [w * sk + qk for sk, qk in zip(s, q)]))
            if order < 2:
                continue
            d *= prod
            uus = [self._squares[i] for i in idx]
            h = [s[k] * s[l] + x for x, (k, l) in zip(_combination([ci * ci for ci in c], uus), pairs)]
            if weights is not None:
                r = _combination([b * ci for b, ci in zip(ac2, c)], uus)
                h = [w * hk + s[k] * q[l] + q[k] * s[l] + 2 * rk for hk, rk, (k, l) in zip(h, r, pairs)]
            terms[2].append((d, f, h))
        return (big, den), [_combine(t, den ** (self.dim + k)) for k, t in enumerate(terms)]

    def _evaluate_rational(self, xi, order):
        """`_integer_sums` at rational xi, one Fraction per entry."""
        _, sums = self._integer_sums(xi, order)
        if not sums:
            return _zero_sums(self.dim, order)
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
        if order:
            v = [[x / pi for x in u] for u, pi in zip(self.rays, p)]  # u_i / p_i
            grad = [0] * n
        if order == 2:
            h = [[0] * n for _ in range(n)]
        vol = 0
        for idx, det, a, e in self.cells:
            prod = 1
            for i in idx:
                prod = prod * p[i]
            t = det / prod
            if a is None:
                vol = vol + t
            else:
                b = [ai * (1 / p[i]) / e for ai, i in zip(a, idx)]  # a_ci / p_i
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

    def certificate(self, xi, u0, n):
        """(nvol, grad_norm, sine, minimizer) at rational xi and u0 from one
        order-1 `_integer_sums` call, no Fraction formed.  With grad vol = G /
        D and u0 = U / E: nvol = <u0, xi>^n vol, grad_norm^2 = |proj|^2 =
        (<G, G> <U, U> - <G, U>^2) / (D^2 <U, U>) for proj grad vol projected
        off u0, and the sine between -grad vol and u0 has sine^2 = 1 - <G,
        U>^2 / (<G, G> <U, U>), NaN when G = 0; each is one quotient of two
        ints, rounded once.  minimizer (proj = 0 and <G, U> < 0: by strict
        convexity, xi is on the minimizer's ray) is, by Cauchy-Schwarz, <G,
        G> <U, U> = <G, U>^2 and <G, U> < 0."""
        (xs, dx), sums = self._integer_sums(xi, 1)
        if not sums:  # vol = 0 and grad vol = 0
            return 0.0, 0.0, float("nan"), False
        ((vol,), vden), (g, gden) = sums
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
            return self.certificate(xi, u0, self.dim)[2]
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
        return self.certificate(ex.fracvec(xi), ex.fracvec(u0), self.dim)[3]
