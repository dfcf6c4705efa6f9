"""Brute-force Hilbert-function counting for volume validation.

These counters enumerate lattice points of truncated weight cones (and, for
complexity-one divisors, weight them by section counts over the base curve)
to produce independent volume estimates n! * count / m^n.  They validate the
closed-form volumes computed elsewhere and share no code path with them.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import mul

import numpy as np

from . import _exact as ex
from .errors import NotInReebCone, TooLarge

DEFAULT_BUDGET = 10**8
_REL_MARGIN = 1e-7


def _xi_enclosure(xi):
    """Per-coordinate rational (lo, hi) enclosure plus a float midpoint."""
    lo, hi, mid = [], [], []
    for v in getattr(xi, "xi", xi):
        if hasattr(v, "lo") and hasattr(v, "hi"):
            a, b = ex.frac(v.lo), ex.frac(v.hi)
        elif isinstance(v, float):
            a = b = Fraction(v)
        else:
            a = b = ex.frac(v)
        lo.append(a)
        hi.append(b)
        mid.append(float((a + b) / 2))
    return lo, hi, mid


def _pair_bound(u, lo, hi):
    """Exact lower bound of <u, xi> given the coordinate enclosure; with lo and
    hi swapped, the upper bound."""
    return sum(c * (lo[i] if c > 0 else hi[i]) for i, c in enumerate(u))


def _box_from_cone(dual_rays, lo, hi, m, pad):
    """Vertices of {u in cone : <u, xi> <= m} and their integer bounding box.

    The vertices are 0 and m u / <u, xi> for the dual rays u, with the
    enclosure's lower pairing bound, so their hull holds the truncated cone
    of every xi in the enclosure.
    """
    verts = [[0.0] * len(lo)]
    for u in dual_rays:
        plo = _pair_bound(u, lo, hi)
        if plo <= 0:
            raise NotInReebCone(f"<{u}, xi> <= 0: truncated cone is unbounded")
        scale = float(m) / float(plo)
        verts.append([c * scale for c in u])
    verts = np.asarray(verts)
    box_lo = [int(np.floor(x - pad)) for x in verts.min(axis=0)]
    return verts, box_lo, [int(np.ceil(x + pad)) for x in verts.max(axis=0)]


def _shadow_range(verts, j, a, pad):
    """Range of coordinate j over the truncated cone where coordinate j-1 is a.

    The cone's shadow on the two coordinates is the hull of the projected
    vertices, so its fiber over a is swept by the vertex pairs that meet the
    strip |u_{j-1} - a| <= pad; the strip absorbs the rounding of the
    crossings, however steep a pair is.
    """
    x, y = verts[:, j - 1], verts[:, j]
    p, q = np.nonzero(x[:, None] < x[None, :])
    meets = (x[p] <= a + pad) & (x[q] >= a - pad)
    p, q = p[meets], q[meets]
    t = np.clip((np.array([[a - pad], [a + pad]]) - x[p]) / (x[q] - x[p]), 0.0, 1.0)
    ys = y[p] + t * (y[q] - y[p])
    if not ys.size:
        return range(0)
    return range(int(np.floor(ys.min() - pad)), int(np.ceil(ys.max() + pad)) + 1)


def _heads(verts, box_lo, box_hi, pad, head=()):
    """Heads of the slabs: u_0 over its box range and each later coordinate over
    its shadow range above the previous one; one empty head when d <= 2."""
    j = len(head)
    if j >= len(box_lo) - 2:
        yield head
        return
    coords = _shadow_range(verts, j, head[-1], pad) if j else range(box_lo[0], box_hi[0] + 1)
    for c in coords:
        yield from _heads(verts, box_lo, box_hi, pad, head + (c,))


def _slab_points(head, sigma_rays, xf, mf, delta, box_lo, box_hi):
    """Integer points of one slab of {sigma pairings >= 0, <u, xi> < m + delta}.

    The first d-2 coordinates are fixed to head, coordinate d-2 (y) runs over
    its box range and coordinate d-1 (z) gets exact column bounds; a
    1-dimensional cone is a single column with no y.  The integer cone
    constraints are applied exactly through ceil/floor divisions, so only the
    float truncation constraint needs the later border recheck.  Returns an
    (N, d) int64 array (possibly empty).
    """
    d, h = len(box_lo), len(head)
    flat = d == 1
    ylo, yhi, yf = (0, 0, 0.0) if flat else (box_lo[h], box_hi[h], xf[h])
    columns = []
    for r in sigma_rays:
        c = sum(map(mul, r, head))
        ry, rz = (0, r[0]) if flat else r[h:]
        if rz != 0:
            columns.append((c, ry, rz))
        elif ry > 0:  # c + ry y >= 0 bounds y directly
            ylo = max(ylo, -(c // ry))
        elif ry < 0:
            yhi = min(yhi, c // (-ry))
        elif c < 0:
            return np.empty((0, d), dtype=np.int64)
    if ylo > yhi:
        return np.empty((0, d), dtype=np.int64)
    y = np.arange(ylo, yhi + 1, dtype=np.int64)
    zlo = np.full(y.shape, box_lo[-1], dtype=np.int64)
    zhi = np.full(y.shape, box_hi[-1], dtype=np.int64)
    for c, ry, rz in columns:
        num = -c - ry * y  # rz * z >= num
        if rz > 0:
            np.maximum(zlo, -((-num) // rz), out=zlo)
        else:
            np.minimum(zhi, num // rz, out=zhi)
    rest = mf + delta - sum(map(mul, xf, head)) - yf * y
    zf = xf[-1]
    if abs(zf) > 1e-300:
        bound = rest / zf
        if zf > 0:
            np.minimum(zhi, np.floor(bound).astype(np.int64), out=zhi)
        else:
            np.maximum(zlo, np.ceil(bound).astype(np.int64), out=zlo)
    else:
        keep = rest > 0
        y, zlo, zhi = y[keep], zlo[keep], zhi[keep]
    lens = np.maximum(zhi - zlo + 1, 0)
    total = int(lens.sum())
    if total == 0:
        return np.empty((0, d), dtype=np.int64)
    idx = np.repeat(np.arange(len(y)), lens)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
    pts = np.empty((total, d), dtype=np.int64)
    pts[:, :h] = head
    if not flat:
        pts[:, h] = y[idx]
    pts[:, -1] = zlo[idx] + offsets
    return pts


def _enumerate(sigma_rays, dual_rays, xi, m, weight_fn, budget):
    """Sum weight_fn over {u in Z^d : sigma pairings >= 0, <u, xi> < m}, slab by slab.

    The budget charges each slab its candidate points, and at least the width
    of its y range, so slabs without points still count towards it.
    """
    lo, hi, mid = _xi_enclosure(xi)
    mf = float(m)
    pad = 1e-9 * (1.0 + abs(mf))
    verts, box_lo, box_hi = _box_from_cone(dual_rays, lo, hi, m, pad)
    rays = [tuple(int(c) for c in r) for r in sigma_rays]
    xf = np.asarray(mid, dtype=float)
    delta = _REL_MARGIN * (1.0 + abs(mf))
    width = box_hi[-2] - box_lo[-2] + 1 if len(mid) > 1 else 1
    total = 0
    cells = 0
    for head in _heads(verts, box_lo, box_hi, pad):
        points = _slab_points(head, rays, xf, mf, delta, box_lo, box_hi)
        cells += max(len(points), width)
        if cells > budget:
            raise TooLarge(f"enumeration exceeded the {budget} cell budget")
        if not len(points):
            continue
        tf = points @ xf
        for p in points[np.abs(tf - mf) <= delta]:
            if _pair_bound(p.tolist(), hi, lo) < m:
                total += int(weight_fn(p.reshape(1, -1))[0])
        total += int(weight_fn(points[tf < mf - delta]).sum())
    return total


def count_toric(t, xi, m, budget=DEFAULT_BUDGET):
    """#{u in weight cone lattice : <u, xi> < m} by bounded enumeration."""

    def ones(pts):
        return np.ones(len(pts), dtype=np.int64)

    return _enumerate(t.sigma.rays, t.sigma_dual.rays, xi, m, ones, budget)


def count_cxone(d, xi, m, budget=DEFAULT_BUDGET):
    """Sum of section counts h0(u) over weights with <u, xi> < m.

    h0(u) = max(deg floor(D(u)) + 1, 0) over a rational base curve, where the
    divisor is rounded down pointwise before taking degrees.
    """
    coeffs = []
    for _label, poly in d.points:
        den = 1
        for v in poly.compact_vertices:
            for c in v:
                den = den * c.denominator // np.gcd(den, c.denominator)
        nums = np.asarray(
            [[int(c * den) for c in v] for v in poly.compact_vertices], dtype=np.int64
        )
        coeffs.append((nums, int(den)))

    def weights(pts):
        deg = np.zeros(len(pts), dtype=np.int64)
        for nums, den in coeffs:
            pairings = pts @ nums.T
            deg += np.min(pairings // den, axis=1)
        return np.maximum(deg + 1, 0)

    return _enumerate(d.sigma.rays, d.sigma_dual.rays, xi, m, weights, budget)


@dataclass(frozen=True)
class CountSeries:
    """Truncation counts at increasing m with the derived volume estimates."""

    truncations: tuple
    n: int
    estimates: tuple

    @classmethod
    def from_counts(cls, n, pairs):
        pairs = tuple((float(m), int(c)) for m, c in pairs)
        est = tuple(factorial(n) * c / m**n for m, c in pairs)
        return cls(truncations=pairs, n=n, estimates=est)


def count_series_toric(t, xi, ms, budget=DEFAULT_BUDGET):
    return CountSeries.from_counts(
        t.n, [(m, count_toric(t, xi, m, budget)) for m in ms]
    )


def count_series_cxone(d, xi, ms, budget=DEFAULT_BUDGET):
    return CountSeries.from_counts(
        d.n, [(m, count_cxone(d, xi, m, budget)) for m in ms]
    )


def vol_estimate(series: CountSeries):
    """Extrapolated limit of n! count / m^n with a convergence diagnostic.

    Fits estimate(m) = c0 + c1/m + c2/m^2 through the largest truncations and
    reports c0.  Needs at least three truncations.
    """
    if len(series.truncations) < 3:
        raise ValueError("need at least three truncations to extrapolate")
    ms = [m for m, _ in series.truncations]
    order = sorted(range(len(ms)), key=lambda i: ms[i])
    ms = [ms[i] for i in order]
    es = [series.estimates[i] for i in order]
    x = np.asarray([1.0 / m for m in ms[-3:]])
    y = np.asarray(es[-3:])
    v = np.vander(x, 3, increasing=True)  # columns 1, 1/m, 1/m^2
    coeff = np.linalg.solve(v, y)
    counts = [c for _, c in series.truncations]
    diagnostic = {
        "raw_estimates": list(series.estimates),
        "monotone_counts": all(a <= b for a, b in zip(counts, counts[1:])),
        "correction": float(abs(coeff[0] - es[-1])),
    }
    return float(coeff[0]), diagnostic
