"""Brute-force Hilbert-function counting for volume validation.

These counters sum over the lattice points of truncated weight cones (for
complexity-one divisors, weighted by section counts over the base curve) to
produce independent volume estimates n! * count / m^n.  They validate the
closed-form volumes computed elsewhere and share no code path with them.
The sum runs column by column: the lattice points with all but the last
coordinate fixed, summed in closed form, with the few points near the
truncation rechecked in integers, one array product per block of columns.
Array work goes only where it changes the sum: columns without an interior
run form no heads for it, and columns without a border run no points.  A
lattice count adds run lengths.  Along a column each divisor point's
coefficient is the lower envelope of one line per distinct slope, each an
elementwise min of its vertices' lines, so the closed form is one floor sum
per envelope piece, n (a // den) for a flat one.  It needs h0 = deg
floor(D(u)) + 1 on the run, which one exact test per count proves for
the whole weight cone when it holds (`_sure_everywhere`), and a per-column
bound decides otherwise.  The columns run along the weight cone's ray of
least pairing with xi where that beats the last axis (`_column_basis`).
xi is read once, at the entry of `_enumerate`, as its cleared integers
x_n over one integer scale, with the exact integer pairings <u, x_n> of
the weight cone's rays; every later step reads those, and nothing is kept
between counts.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import factorial, inf, isfinite, lcm
from operator import mul

import numpy as np

from . import _exact as ex
from .errors import NotInReebCone, TooLarge

DEFAULT_BUDGET = 10**8
_REL_MARGIN = 1e-7
_PAD = 1e-9  # relative slack of the float box and shadow bounds
_BLOCK = 2**15  # box columns (heads times y width) per block of heads formed in one array pass
_INT64 = 2**62  # magnitudes below this leave room for one more int64 addition


def _exact_xi(xi):
    """xi's coordinates as exact rationals; a float is the rational it
    stores, and a non-finite one raises ValueError."""
    x = tuple(getattr(xi, "xi", xi))
    if not all(isfinite(v) for v in x if isinstance(v, float)):
        raise ValueError(f"the Reeb vector xi must be finite, got xi = {x}")
    return tuple(Fraction(v) if isinstance(v, float) else ex.frac(v) for v in x)


def _pairing(u, x):
    """Exact <u, x>."""
    return sum(c * v for c, v in zip(u, x))


def _reeb_pairings(dual_rays, x_n):
    """The integer pairings <u, x_n> of the weight cone's rays u with xi's
    cleared integers, all positive, or NotInReebCone naming the first ray
    that is not."""
    pairings = tuple(_pairing(u, x_n) for u in dual_rays)
    for u, p in zip(dual_rays, pairings):
        if p <= 0:
            raise NotInReebCone(f"<{u}, xi> <= 0: truncated cone is unbounded")
    return pairings


def _box_from_cone(dual_rays, pairings, scale, m_num, m_den, pad):
    """Vertices of {u in cone : <u, xi> <= m} and their integer bounding box,
    for m = m_num / m_den and the pairings <u, x_n> = scale <u, xi>.

    The vertices are 0 and m u / <u, xi> for the dual rays u, the factor
    m / <u, xi> = m_num scale / (m_den <u, x_n>) one correctly rounded
    integer division; a vertex past float range raises TooLarge.
    """
    verts = [[0.0] * len(dual_rays[0])]
    try:
        for u, p in zip(dual_rays, pairings):
            factor = m_num * scale / (m_den * p)
            verts.append([c * factor for c in u])
    except OverflowError:  # the factor, or an entry of u, past float range
        verts.append([inf] * len(u))
    verts = np.asarray(verts)
    if not np.isfinite(verts).all():
        raise TooLarge("the truncated cone's vertices are past float range")
    box_lo = [int(np.floor(x - pad)) for x in verts.min(axis=0)]
    return verts, box_lo, [int(np.ceil(x + pad)) for x in verts.max(axis=0)]


def _shadow_range(verts, j, a, pad):
    """Integer bounds (lo, hi) of coordinate j over the truncated cone where
    coordinate j-1 is a, for each entry of the array a; lo > hi where the
    fiber is empty.

    The cone's shadow on the two coordinates is the hull of the projected
    vertices, so its fiber over a is swept by the vertex pairs that meet the
    strip |u_{j-1} - a| <= pad; the strip absorbs the rounding of the
    crossings, however steep a pair is.
    """
    x, y = verts[:, j - 1], verts[:, j]
    p, q = np.nonzero(x[:, None] < x[None, :])
    a = np.asarray(a, dtype=float)[:, None]
    meets = (x[p] <= a + pad) & (x[q] >= a - pad)
    t = np.clip((np.stack([a - pad, a + pad]) - x[p]) / (x[q] - x[p]), 0.0, 1.0)
    ys = y[p] + t * (y[q] - y[p])
    none = ~meets.any(axis=1)
    lo = np.where(none, 1.0, np.where(meets, ys, np.inf).min(axis=(0, 2)) - pad)
    hi = np.where(none, 0.0, np.where(meets, ys, -np.inf).max(axis=(0, 2)) + pad)
    return np.floor(lo).astype(np.int64), np.ceil(hi).astype(np.int64)


def _heads(verts, box_lo, box_hi, pad, size):
    """Heads of the slabs in lexicographic order, as int64 arrays of at most
    `size` rows: u_0 over its box range and each later coordinate over its
    shadow range above the previous one; one empty head when d <= 2.

    A stack holds the runs left to expand, each a block of prefixes with the
    range lo..hi of the next coordinate over each.  A step takes the front of
    the top run, whole prefixes up to `size` children or `size` children of
    its first prefix, so no array outgrows a block.
    """
    h = len(box_lo) - 2
    if not h:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    todo = [(np.zeros((1, 0), dtype=np.int64), np.array([box_lo[0]]), np.array([box_hi[0]]))]
    while todo:
        prefix, lo, hi = todo.pop()
        n = np.maximum(hi + 1 - np.maximum(lo, hi - size), 0)  # children, capped at size + 1
        k = int(np.searchsorted(np.cumsum(n), size, side="right"))
        if not k:  # the first prefix has more than size children
            k, n = 1, n[:1] - 1
            todo.append((prefix, np.concatenate([lo[:1] + size, lo[1:]]), hi))
        elif k < len(n):
            todo.append((prefix[k:], lo[k:], hi[k:]))
        children = np.column_stack([np.repeat(prefix[:k], n[:k], axis=0), _runs(lo[:k], n[:k])])
        if children.shape[1] == h:
            if len(children):
                yield children
        elif len(children):
            todo.append((children, *_shadow_range(verts, children.shape[1], children[:, -1], pad)))


def _runs(starts, lens):
    """start, start + 1, ..., start + len - 1 for each run in turn, as one int64 array."""
    return np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(starts - (np.cumsum(lens) - lens), lens)


def _columns(block, rays, xf, top, box_lo, box_hi, verts, pad):
    """Columns of the slabs of {sigma pairings >= 0, <u, xi> < top} for a block of heads.

    Slab k fixes the first d-2 coordinates to block[k], a row of the int64
    array block; its y (coordinate d-2) runs over the box range, cut by the
    shadow of verts' hull (the truncated cone at m: a candidate past it
    fails the exact recheck) above the last head coordinate and by the rays
    that do not involve z, and each of its columns gets exact integer z
    bounds from the cone and the float truncation bound top.  Returns the
    head array and, per column, its slab, y, zlo, zhi (empty when zhi < zlo)
    and rest = top - <(head, y), xi>.
    """
    h = len(box_lo) - 2
    ylo = np.full(len(block), box_lo[h], dtype=np.int64)
    yhi = np.full(len(block), box_hi[h], dtype=np.int64)
    if h:
        shadow_lo, shadow_hi = _shadow_range(verts, h, block[:, -1], pad)
        np.maximum(ylo, shadow_lo, out=ylo)
        np.minimum(yhi, shadow_hi, out=yhi)
    zrays = []
    for r in rays:
        c = block @ np.array(r[:h], dtype=np.int64)
        ry, rz = r[h:]
        if rz != 0:
            zrays.append((c, ry, rz))
        elif ry > 0:  # c + ry y >= 0 bounds y directly
            np.maximum(ylo, -(c // ry), out=ylo)
        elif ry < 0:
            np.minimum(yhi, c // (-ry), out=yhi)
        else:
            yhi[c < 0] = box_lo[h] - 1
    ny = np.maximum(yhi - ylo + 1, 0)
    slab = np.repeat(np.arange(len(block)), ny)
    y = _runs(ylo, ny)
    zlo = np.full(y.shape, box_lo[-1], dtype=np.int64)
    zhi = np.full(y.shape, box_hi[-1], dtype=np.int64)
    for c, ry, rz in zrays:
        s = c[slab] + ry * y  # rz * z >= -s
        if rz > 0:
            np.maximum(zlo, -(s // rz), out=zlo)
        else:
            np.minimum(zhi, s // -rz, out=zhi)
    head_pairing = np.zeros(len(block))
    for i in range(h):
        head_pairing += block[:, i] * xf[i]
    rest = top - head_pairing[slab] - xf[h] * y
    zf = xf[-1]
    if abs(zf) > 1e-300:
        bound = np.clip(rest / zf, box_lo[-1] - 1, box_hi[-1] + 1)
        if zf > 0:
            np.minimum(zhi, np.floor(bound).astype(np.int64), out=zhi)
        else:
            np.maximum(zlo, np.ceil(bound).astype(np.int64), out=zlo)
    else:
        zhi[rest <= 0] = box_lo[-1] - 1
    return block, slab, y, zlo, zhi, rest


def _split(zlo, zhi, rest, zf, delta, box_lo, box_hi):
    """Interior run (t < m - delta) and border run of each column, as (ia, ib, ba, bb).

    t = <u, xi> is monotone in z along a column, so the border, the points
    within delta of m, is a run at one end.  Both runs are empty on a column
    with zhi < zlo.
    """
    if abs(zf) <= 1e-300:  # t is constant along the column
        inner = rest > 2 * delta
        return zlo, np.where(inner, zhi, zlo - 1), zlo, np.where(inner, zlo - 1, zhi)
    q = np.clip((rest - 2 * delta) / zf, box_lo - 1, box_hi + 1)  # t(q) = m - delta
    if zf > 0:
        cut = np.ceil(q).astype(np.int64)
        return zlo, np.minimum(zhi, cut - 1), np.maximum(zlo, cut), zhi
    cut = np.floor(q).astype(np.int64)
    return np.maximum(zlo, cut + 1), zhi, zlo, np.minimum(zhi, cut)


def _slab_points(heads, y, zlo, zhi):
    """Integer points of the columns (head, y, z) with zlo <= z <= zhi, as an (N, d)
    int64 array; the walk materializes only border runs and fallback columns."""
    lens = np.maximum(zhi - zlo + 1, 0)
    idx = np.repeat(np.arange(len(y)), lens)
    return np.column_stack([heads[idx], y[idx], _runs(zlo, lens)])


def _h0(pts, coeffs):
    """Section counts max(deg floor(D(u)) + 1, 0), point by point."""
    return np.maximum(1 + sum(reduce(np.minimum, (nums @ pts.T) // den) for nums, den in coeffs), 0)


def _floor_sum(n, den, a, b):
    """Sum over the entries of sum_{i < n} floor((a i + b) / den), for arrays
    n >= 0 and b, and ints a and den > 0.

    The Euclid-like reduction of floor sums: reduce a and b mod den, then
    count the lattice points under the line by swapping the roles of den
    and a.  Entries leave once the line stays below den, so an entry with
    n = 0 adds 0 whatever its b.  Each remainder is x - (x // den) den:
    numpy divides an int64 array by a scalar quickly, but its % and divmod
    divide entry by entry in hardware.
    """
    total = 0
    while len(n):
        qa, a = divmod(a, den)
        qb = b // den
        if qa:
            total += qa * ((int(n @ n) - int(n.sum())) // 2)
        total += int(n @ qb)
        if not a:  # the line stays below den
            return total
        top = a * n + (b - qb * den)
        top = top[top >= den]
        n = top // den
        b = top - n * den
        a, den = den, a
    return total


def _envelopes(coeffs):
    """Each divisor point's vertex rows merged by slope, the last coordinate:
    (rows, bounds, slopes, den), the rows an int64 array sorted by slope,
    rows bounds[s]:bounds[s + 1] of slopes[s], the slopes distinct ints,
    ascending."""
    out = []
    for rows, den in coeffs:
        rows = np.array(rows, dtype=np.int64)
        rows = rows[np.argsort(rows[:, -1], kind="stable")]
        slopes, starts = np.unique(rows[:, -1], return_index=True)
        out.append((rows, [*starts.tolist(), len(rows)], slopes.tolist(), den))
    return out


def _sure_everywhere(dual_rays, coeffs):
    """Whether the closed form holds on every point of the weight cone.

    floor(x / den) >= (x - den + 1) / den gives deg floor(D(u)) + 1 >= B(u) =
    B(0) + deg(u), B(0) = 1 - sum_P (den_P - 1) / den_P and deg(u) = sum_P
    min_v <v, u>.  deg is superadditive and positively homogeneous, so on
    u = sum_i l_i r_i with l_i >= 0 and r_i the weight cone's rays,
    deg(u) >= sum_i l_i deg(r_i).  Hence B(0) >= 0 and deg(r_i) >= 0 for
    every ray make h0 = deg floor(D(u)) + 1 everywhere; both tests are exact,
    in integers over the lcm of the denominators.
    """
    common = lcm(*(den for _, den in coeffs))
    if common < sum((den - 1) * (common // den) for _, den in coeffs):
        return False
    return all(
        sum(min(_pairing(v, r) for v in rows) * (common // den) for rows, den in coeffs) >= 0
        for r in dual_rays
    )


def _interior_sums(heads, y, z0, z1, envelopes, sure):
    """Sum of h0 over the runs z0..z1 of the columns, in closed form where it is sure.

    Along a column each divisor point P contributes floor(min_s L_Ps(z) /
    den_P), one line L_Ps(z) = a_s + s z per distinct slope s, a_s the
    elementwise min of the vertices of that slope.  Unless `sure` says the
    closed form holds on the whole weight cone (`_sure_everywhere`), a column
    is sure where the concave lower bound sum_P (min_s L_Ps - den_P + 1) /
    den_P of deg stays >= -1 at both ends of the run.  On a sure run h0 =
    deg + 1, and the sum is the run's length plus, for each P and each slope
    s, a floor sum over the interval on which L_Ps attains the min (ties to
    the lowest slope), in closed form n (a_s // den_P) for s = 0.  On a
    nonempty interval z0 <= lo <= hi <= z1, so a_s + s lo stays within
    `_layout`'s int64 bound; an empty one's lo is unbounded and a_s + s lo
    may wrap in int64, harmlessly, since `_floor_sum` adds 0 for a run of
    length 0 whatever its start.  Returns the sum and the mask of the
    columns left to count point by point.
    """
    cols = [*heads.T, y]

    def pairing(row):  # <row, (head, y)> per column, with no work for a zero coefficient
        terms = [v if c == 1 else c * v for c, v in zip(row, cols) if c]
        return reduce(np.add, terms) if terms else np.zeros(len(y), dtype=np.int64)

    lines = []
    for rows, bounds, slopes, den in envelopes:
        a = [pairing(row) for row in rows[:, :-1].tolist()]
        lines.append(([reduce(np.minimum, a[i:j]) for i, j in zip(bounds, bounds[1:])], slopes, den))
    unsure = np.zeros(len(y), dtype=bool)
    if not sure:
        common = lcm(*(den for _, _, den in lines))
        for z in (z0, z1):  # the bound, checked in integers scaled by common
            bound = np.full(len(y), common, dtype=np.int64)
            for a, c, den in lines:
                low = reduce(np.minimum, [av + cv * z for av, cv in zip(a, c)])
                bound += (low - den + 1) * (common // den)
            unsure |= bound < 0
        keep = ~unsure
        z0, z1 = z0[keep], z1[keep]
        lines = [([av[keep] for av in a], c, den) for a, c, den in lines]
    length = z1 - z0 + 1
    total = int(length.sum())
    for a, c, den in lines:
        for v, cv in enumerate(c):
            lo, hi = z0, z1
            for w, cw in enumerate(c):  # L_v(z) < L_w(z) for w < v, <= for w > v
                if w < v:  # cv > cw
                    hi = np.minimum(hi, (a[w] - a[v] - 1) // (cv - cw))
                elif w > v:  # cv < cw
                    lo = np.maximum(lo, -((a[w] - a[v]) // (cw - cv)))
            n = length if len(c) == 1 else np.maximum(hi - lo + 1, 0)
            if cv == 0:
                total += int(n @ (a[v] // den))
            else:
                total += _floor_sum(n, den, cv, a[v] + cv * lo)
    return total, unsure


def _column_basis(rays, dual_rays, x_n, coeffs, pairings):
    """The data in a unimodular basis whose last axis is the weight cone's ray
    v of least <v, xi>, or None where the last axis serves as well.

    The walk forms about <v, xi> vol(top facet) / |xi| columns along a
    primitive v of the weight cone, so v replaces the last axis e_d when e_d
    lies in the weight cone (every ray of sigma has a nonnegative last entry)
    and v pairs strictly lower than xi_d, both read exactly off xi's cleared
    integers x_n and their pairings.  The Hermite form of v as a column
    gives a unimodular A with A v = e_d; the weight cone's rays map by A, and
    sigma's rays, x_n (over the same scale) and the divisor points' vertex
    rows by A^-T, which keeps every pairing.  Returns (rays, dual_rays, x_n,
    coeffs) of the image.
    """
    if len(x_n) < 2 or any(r[-1] < 0 for r in rays):
        return None
    low = min(range(len(pairings)), key=pairings.__getitem__)
    if not pairings[low] < x_n[-1]:
        return None
    _, u = ex.hermite([[c] for c in ex.primitive(dual_rays[low])])  # u v = e_1
    a = u[1:] + u[:1]  # a v = e_d
    adj = ex.adjugate(a)
    det = sum(p * row[0] for p, row in zip(adj[0], a))  # adj(a) a = det(a) I, det(a) = +-1
    inv_t = [[det * c for c in col] for col in zip(*adj)]  # a^-T

    def image(m, v):
        return tuple([sum(map(mul, row, v)) for row in m])

    return (
        tuple(image(inv_t, r) for r in rays),
        tuple(image(a, r) for r in dual_rays),
        image(inv_t, x_n),
        tuple((tuple(image(inv_t, row) for row in rows), den) for rows, den in coeffs),
    )


def _layout(rays, dual_rays, x_n, coeffs, pairings, scale, m_num, m_den, budget):
    """The walk's box and data in one basis, checked against int64:
    (verts, box_lo, box_hi, rays, x_n, coeffs, envelopes, wide), with coeffs
    as int64 arrays and their `_envelopes`, or as object arrays and None
    where `wide` says the column sums may leave int64.  xi = x_n / scale,
    the pairings are those of dual_rays with x_n, and m = m_num / m_den.
    Raises TooLarge when the cone's pairings over the box leave int64.
    """
    pad = _PAD * (1.0 + m_num / m_den)
    verts, box_lo, box_hi = _box_from_cone(dual_rays, pairings, scale, m_num, m_den, pad)
    if len(x_n) == 1:  # a 1-dimensional cone is one slab with the single y = 0
        rays = tuple((0, *r) for r in rays)
        x_n, box_lo, box_hi = (0, *x_n), [0, *box_lo], [0, *box_hi]
        coeffs = tuple((tuple((0, *v) for v in rows), den) for rows, den in coeffs)
    reach = [max(-a, b) + 1 for a, b in zip(box_lo, box_hi)]  # |u_i| < reach_i one step past the box

    def pairing_bound(v):
        return sum(abs(c) * r for c, r in zip(v, reach))

    if max(map(pairing_bound, rays)) >= _INT64:
        raise TooLarge("cone pairings over the box leave int64")
    # the column sums add per point at most per_point in magnitude, and a walk
    # within the budget has at most budget points; past int64, count exactly
    nz = box_hi[-1] - box_lo[-1] + 2
    reaches = [(max(map(pairing_bound, rows)), den) for rows, den in coeffs]
    per_point = 1 + sum(2 * r // den + nz + 4 for r, den in reaches)
    common = lcm(*(den for _, den in coeffs))
    wide = (
        budget * per_point >= _INT64
        or common * (sum(r // den + 2 for r, den in reaches) + 1) >= _INT64
        or any(2 * r + 2 >= _INT64 or den * nz >= _INT64 for r, den in reaches)
    )
    if wide:
        coeffs, envelopes = [(np.array(rows, dtype=object), den) for rows, den in coeffs], None
    else:
        envelopes = _envelopes(coeffs)
        coeffs = [(rows, den) for rows, _, _, den in envelopes]
    return verts, box_lo, box_hi, rays, x_n, coeffs, envelopes, wide


def _enumerate(sigma_rays, dual_rays, xi, m, coeffs, budget):
    """Sum h0 over {u in Z^d : sigma pairings >= 0, <u, xi> < m}, column by column.

    coeffs holds each divisor point's vertices as integer rows over a common
    denominator, (rows, den); with none, h0 = 1 and the sum is the lattice
    count.  Whether the closed form holds on the whole weight cone, which
    dual_rays generate, is decided once per count (`_sure_everywhere`).
    xi is read here alone, as its cleared integers x_n over one scale and
    the pairings <u, x_n> of the weight cone's rays u.  The columns run
    along the weight cone's ray of least pairing with xi where that beats
    the last axis (`_column_basis`).  The input's own basis is walked
    instead where the image's pairings or sums could leave int64 or its
    walk exceeds the budget, so a count that finishes along the last axis
    still finishes, and errors name the input's own rays.  At m <= 0 the
    sum is 0: on the weight cone only the apex pairs to 0 with an xi of the
    Reeb cone.  An m past float range raises TooLarge.  Where m ||u||_inf <
    <u, xi> for every ray u of the weight cone, the truncated cone lies in
    the open unit cube: the sum is h0(0) = 1, with no float box, which an m
    whose float is 0 or subnormal collapses.
    """
    if m != m or abs(m) == inf:
        raise ValueError(f"the truncation m must be finite, got m = {m}")
    x = _exact_xi(xi)
    dual_rays = tuple(dual_rays)
    dim = len(dual_rays[0])
    if len(x) != dim:
        raise ValueError(f"Reeb vector has {len(x)} entries but the weight cone lies in dimension {dim}")
    x_n, scale = ex.cleared(x)
    if m <= 0:
        _reeb_pairings(dual_rays, x_n)  # NotInReebCone off the Reeb cone
        return 0
    try:
        float(m)
    except OverflowError:
        raise TooLarge("the truncation m is past float range") from None
    pairings = _reeb_pairings(dual_rays, x_n)
    m_num, m_den = Fraction(m).as_integer_ratio()
    if all(m_num * scale * max(map(abs, u)) < m_den * p for u, p in zip(dual_rays, pairings)):
        return 1  # the truncated cone lies in the open unit cube: the apex alone, h0(0) = 1
    rays = tuple(tuple(int(c) for c in r) for r in sigma_rays)
    sure = _sure_everywhere(dual_rays, coeffs)
    truncation = (scale, m_num, m_den)
    turned = _column_basis(rays, dual_rays, x_n, coeffs, pairings)
    if turned is not None:
        try:
            *layout, wide = _layout(*turned, pairings, *truncation, budget)
            if not wide:  # else its sums may leave int64
                return _walk(*layout, *truncation, sure, budget)
        except TooLarge:  # past int64 or the budget
            pass
    *layout, _ = _layout(rays, dual_rays, x_n, coeffs, pairings, *truncation, budget)
    return _walk(*layout, *truncation, sure, budget)


def _walk(verts, box_lo, box_hi, rays, x_n, coeffs, envelopes, scale, m_num, m_den, sure, budget):
    """The sum of `_enumerate` over one basis's `_layout`, for xi = x_n / scale
    and m = m_num / m_den.

    Each block of heads forms its columns (`_columns`) and splits every one
    into an interior and a border run (`_split`); a column outside the cone
    has both empty.  The interior runs are summed in closed form
    (`_interior_sums`, with the heads gathered only for the columns that
    have one), and counted point by point only where neither `sure` nor the
    per-column bound makes them sure, or, without envelopes, where the sums
    may leave int64.  Points are formed only for nonempty border runs, and
    rechecked against the exact xi in integers, one product with x_n per
    block: in int64 where the pairings over the box stay below 2^62, else
    in Python integers.  A lattice count adds the interior runs' lengths.
    The budget charges each slab its candidate points, and at least the
    width of its y range, so slabs without points still count towards it;
    it is checked before each block's work.
    """
    mf = m_num / m_den
    pad = _PAD * (1.0 + mf)
    delta = _REL_MARGIN * (1.0 + mf)
    xf = np.asarray([c / scale for c in x_n])  # the floats of xi, each rounded once
    width = box_hi[-2] - box_lo[-2] + 1
    limit = -(-m_num * scale // m_den)  # <u, x_n> < limit exactly when <u, xi> < m
    if sum(abs(c) * (max(-a, b) + 1) for c, a, b in zip(x_n, box_lo, box_hi)) < _INT64:
        x_n, limit = np.array(x_n, dtype=np.int64), min(limit, _INT64)
    else:
        x_n = np.array(x_n, dtype=object)
    total = 0
    cells = 0
    for block in _heads(verts, box_lo, box_hi, pad, max(1, _BLOCK // width)):
        if cells + len(block) * width > budget:  # each slab is charged at least width
            raise TooLarge(f"enumeration exceeded the {budget} cell budget")
        _, slab, y, zlo, zhi, rest = _columns(block, rays, xf, mf + delta, box_lo, box_hi, verts, pad)
        # float64: int64 wraps near the cone's boundary; exact below 2^53 >> budget
        charge = np.bincount(slab, weights=np.maximum(zhi - zlo + 1, 0), minlength=len(block))
        cells += int(np.maximum(charge, width).sum())
        if cells > budget:
            raise TooLarge(f"enumeration exceeded the {budget} cell budget")
        ia, ib, ba, bb = _split(zlo, zhi, rest, xf[-1], delta, box_lo[-1], box_hi[-1])
        edge = np.flatnonzero(ba <= bb)
        border = _slab_points(block[slab[edge]], y[edge], ba[edge], bb[edge])
        border = border[np.asarray(border @ x_n < limit, dtype=bool)]
        if not coeffs:  # h0 = 1
            total += len(border) + int(np.maximum(ib - ia + 1, 0).sum())
            continue
        total += int(_h0(border, coeffs).sum())
        inner = np.flatnonzero(ia <= ib)
        if envelopes is not None:
            sums, unsure = _interior_sums(block[slab[inner]], y[inner], ia[inner], ib[inner], envelopes, sure)
            total += sums
            inner = inner[unsure]
        points = _slab_points(block[slab[inner]], y[inner], ia[inner], ib[inner])
        total += int(_h0(points, coeffs).sum())
    return total


def count_toric(t, xi, m, budget=DEFAULT_BUDGET):
    """#{u in weight cone lattice : <u, xi> < m} by bounded enumeration."""
    return _enumerate(t.sigma.rays, t.sigma_dual.rays, xi, m, (), budget)


def count_cxone(d, xi, m, budget=DEFAULT_BUDGET):
    """Sum of section counts h0(u) over weights with <u, xi> < m.

    h0(u) = max(deg floor(D(u)) + 1, 0) over a rational base curve, where the
    divisor is rounded down pointwise before taking degrees.
    """
    coeffs = []
    for _label, poly in d.points:
        verts = poly.compact_vertices
        nums, den = ex.cleared([c for v in verts for c in v])
        it = iter(nums)
        coeffs.append((tuple(tuple(next(it) for _ in v) for v in verts), den))
    return _enumerate(d.sigma.rays, d.sigma_dual.rays, xi, m, tuple(coeffs), budget)


@dataclass(frozen=True)
class CountSeries:
    """Truncation counts at increasing m with the derived volume estimates."""

    truncations: tuple
    n: int
    estimates: tuple

    @classmethod
    def from_counts(cls, n, pairs):
        pairs = tuple((float(m), int(c)) for m, c in pairs)
        if not all(m > 0 and m**n > 0 for m, _ in pairs):
            raise ValueError(f"truncations must be positive, with m^n positive in float, got {[m for m, _ in pairs]}")
        est = tuple(factorial(n) * c / m**n for m, c in pairs)
        if not all(map(isfinite, est)):
            raise ValueError(f"n! count / m^n must be finite in float, got truncations {[m for m, _ in pairs]}")
        return cls(truncations=pairs, n=n, estimates=est)


def vol_estimate(series: CountSeries):
    """Extrapolated limit of n! count / m^n with a convergence diagnostic.

    Fits estimate(m) = c0 + c1/m + c2/m^2 through the largest truncations and
    reports c0.  Needs at least three truncations, the largest three distinct.
    `monotone_counts` reads the counts in order of increasing m.
    """
    if len(series.truncations) < 3:
        raise ValueError("need at least three truncations to extrapolate")
    ms = [m for m, _ in series.truncations]
    order = sorted(range(len(ms)), key=lambda i: ms[i])
    ms = [ms[i] for i in order]
    es = [series.estimates[i] for i in order]
    if len(set(ms[-3:])) < 3:
        raise ValueError(f"need three distinct truncations to extrapolate, got {ms[-3:]}")
    x = np.asarray([1.0 / m for m in ms[-3:]])
    y = np.asarray(es[-3:])
    v = np.vander(x, 3, increasing=True)  # columns 1, 1/m, 1/m^2
    coeff = np.linalg.solve(v, y)
    counts = [series.truncations[i][1] for i in order]
    diagnostic = {
        "raw_estimates": list(series.estimates),
        "monotone_counts": all(a <= b for a, b in zip(counts, counts[1:])),
        "correction": float(abs(coeff[0] - es[-1])),
    }
    return float(coeff[0]), diagnostic
