"""Seeded problem families for the four benchmark workloads.

`build(name, seed)` returns a list of rounds; each round is a fixed mix of
problems whose inputs are drawn from the seed.  A problem takes one input to
a checked answer: it calls the program, then checks the answer with code of
its own (exact rationals, or mpmath at 200 bits), never with the routine
under test.  The program is always reached through module attributes at call
time, so the tracer's wrappers and a test's stand-ins are the ones called.
"""

import argparse
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

import reebmin
from reebmin import approx, cli, cxonevol, downgrade, errors, futaki, toricvol

PREC = 200  # bits for the benchmark's own mpmath checks
# residuals (sines) a minimizer must meet: converged toric, converged
# complexity-one (finite-difference Newton), and unconverged either way
TORIC_TOL, C1_TOL, STALL_TOL = 1e-8, 1e-6, 1e-5


class Stall(Exception):
    """The program stopped without claiming convergence."""


class Wrong(Exception):
    """An answer failed the benchmark's check."""


@dataclass
class Problem:
    kind: str
    solve: object  # callable () -> None; raises Stall or Wrong
    # a baseline defect: the cause this problem fails with today, and the
    # ROADMAP item that should make it pass
    known: tuple = ()
    # calibrated seconds before the problem fails as "timeout"; far above the
    # slowest stall (200 Newton iterations on a seeded divisor take up to 6 s)
    cap: float = 20.0


# ---------------------------------------------------------------- checks


def _mp(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _sine(a, b):
    """Sine of the angle between two vectors: zero exactly when parallel."""
    aa = sum(x * x for x in a)
    bb = sum(x * x for x in b)
    ab = sum(x * y for x, y in zip(a, b))
    return mpmath.sqrt(max(1 - ab * ab / (aa * bb), 0))


def _rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank, col = 0, 0
    ncols = len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def _det(m):
    m = [[Fraction(x) for x in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def _minor_gcd(rows):
    """gcd of the maximal minors of a k x N integer matrix (k <= N)."""
    k, n = len(rows), len(rows[0])
    g = 0
    for cols in itertools.combinations(range(n), k):
        g = math.gcd(g, int(_det([[row[c] for c in cols] for row in rows])))
    return g


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def toric_mp(pieces, u0, xi):
    """Normalized volume and barycenter sine residual of toric data at xi."""
    with mpmath.workprec(PREC):
        x = [_mp(v) for v in xi]
        n = len(x)
        den = 0
        num = [0] * n
        for rays, det in pieces:
            p = [_dot(u, x) for u in rays]
            vol = det / math.prod(p)
            den += vol
            for k in range(n):
                num[k] += vol * sum(u[k] / pu for u, pu in zip(rays, p)) / n
        a = _dot([_mp(c) for c in u0], x)
        return a**n * den, _sine(num, [_mp(c) for c in u0])


def check_minimum(res, nv, resid, ref_nvol, converged_tol):
    """Check a minimizer whatever its convergence flag, then score a stall.

    The answer is wrong if nvol_star is not the normalized volume at xi_star,
    if that volume misses the stored reference, or if the residual is over
    STALL_TOL, a bound that a minimizer which merely stopped short still
    meets.  A converged one must meet converged_tol.  Only an answer that
    checks out and was not converged is a stall.
    """
    if not abs(res.nvol_star - nv) <= 1e-9 * nv:
        raise Wrong(f"nvol_star {res.nvol_star!r} but nvol(xi_star) = {float(nv)!r}")
    if ref_nvol is not None and not abs(nv - mpmath.mpf(ref_nvol)) <= 1e-9 * nv:
        raise Wrong(f"nvol {float(nv)!r} differs from the reference {ref_nvol}")
    if not resid <= (converged_tol if res.converged else STALL_TOL):
        state = "converged" if res.converged else "stalled"
        raise Wrong(f"residual {float(resid):.3g} at a {state} minimizer")
    if not res.converged:
        raise Stall(f"stopped after {res.iterations} iterations at residual {float(resid):.3g}")


def check_toric_minimum(t, res, ref_nvol=None):
    """Barycenter residual (sine against u0) and volume, recomputed in mpmath."""
    pieces = [(p.rays, p.det_abs) for p in t.pieces]
    nv, resid = toric_mp(pieces, t.u0, res.xi_star.xi)
    check_minimum(res, nv, resid, ref_nvol, TORIC_TOL)


def check_scan_at_minimum(res, scan):
    """Every Futaki invariant vanishes at the minimizer, relative to its scale,
    to 100 times the residual its convergence flag allows."""
    xi = res.xi_star.xi
    xn = math.sqrt(sum(x * x for x in xi))
    tol = 100 * (TORIC_TOL if res.converged else STALL_TOL)
    for eta, fut, _ in scan.entries:
        en = math.sqrt(sum(float(e) ** 2 for e in eta))
        if not abs(float(fut)) * xn <= tol * res.nvol_star * en:
            raise Wrong(f"Futaki invariant {float(fut):.3g} along {eta} at the minimizer")


def c1_mp(cells, u0, xi):
    """Normalized volume, gradient of vol and their sine residual against u0."""
    with mpmath.workprec(PREC):
        x = [_mp(v) for v in xi]
        r = len(x)
        vol = 0
        grad = [0] * r
        for piece, ell in cells:
            p = [_dot(u, x) for u in piece.rays]
            lin = [_dot([_mp(c) for c in ell], u) for u in piece.rays]
            tp = piece.det_abs / math.prod(p)
            ls = sum(li / pi for li, pi in zip(lin, p))
            vol += tp * ls
            for k in range(r):
                s1 = sum(u[k] / pi for u, pi in zip(piece.rays, p))
                s2 = sum(li * u[k] / pi**2 for u, li, pi in zip(piece.rays, lin, p))
                grad[k] += -tp * s1 * ls - tp * s2
        um = [_mp(c) for c in u0]
        a = _dot(um, x)
        return a ** (r + 1) * vol, _sine([-g for g in grad], um)


def check_c1_minimum(d, u0, res, ref_nvol=None):
    """Sine between -grad vol and u0, and the volume, recomputed in mpmath."""
    nv, resid = c1_mp(d.cells().cells, u0, res.xi_star.xi)
    check_minimum(res, nv, resid, ref_nvol, C1_TOL)


def check_sequence(F, P, s):
    """P F = 0, s F = id, and the rows of P span a saturated lattice."""
    n, r = len(F), len(F[0])
    if len(P) != n - r:
        raise Wrong(f"P has {len(P)} rows, expected {n - r}")
    if any(_dot(row, [F[i][j] for i in range(n)]) != 0 for row in P for j in range(r)):
        raise Wrong("P F != 0")
    for a, row in enumerate(s):
        for j in range(r):
            if _dot(row, [F[i][j] for i in range(n)]) != int(a == j):
                raise Wrong("s F != id")
    if P and _minor_gcd(P) != 1:
        raise Wrong("rows of P do not span a saturated lattice")


def check_same_row_lattice(a, b):
    """Rows of a and b generate the same integer lattice (both full row rank)."""
    k, n = len(b), len(b[0])
    for cols in itertools.combinations(range(n), k):
        sub = [[row[c] for c in cols] for row in b]
        d = _det(sub)
        if d != 0:
            break
    inv = _inverse(sub)
    u = [[sum(Fraction(row[c]) * inv[i][j] for i, c in enumerate(cols)) for j in range(k)] for row in a]
    if any(x.denominator != 1 for row in u for x in row) or abs(_det(u)) != 1:
        raise Wrong("P generates a different lattice than the stored P")
    for row, urow in zip(a, u):
        if tuple(row) != tuple(sum(x * b[j][c] for j, x in enumerate(urow)) for c in range(n)):
            raise Wrong("P generates a different lattice than the stored P")


def _inverse(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def check_extreme_rays(rays, normals):
    """Each ray satisfies every inequality and spans an edge (active rank r-1)."""
    r = len(normals[0])
    if len(rays) < r:
        raise Wrong(f"{len(rays)} rays cannot span an {r}-dimensional cone")
    for ray in rays:
        pairs = [_dot(a, ray) for a in normals]
        if min(pairs) < 0:
            raise Wrong(f"ray {ray} violates an inequality")
        if _rank([a for a, p in zip(normals, pairs) if p == 0]) != r - 1:
            raise Wrong(f"ray {ray} is not extreme")


def check_fiber(poly, F, s, y, sigma_rays):
    """Vertices x of s({y' >= 0 : P y' = P y}): y + F (x - s y) >= 0 at a vertex."""
    r = len(F[0])
    sy = [_dot(row, y) for row in s]
    if not poly.compact_vertices:
        raise Wrong("coefficient polyhedron has no vertex")
    for x in poly.compact_vertices:
        z = [Fraction(a) - b for a, b in zip(x, sy)]
        yy = [yi + _dot(row, z) for yi, row in zip(y, F)]
        if min(yy) < 0:
            raise Wrong(f"vertex {x} lies outside the fiber")
        if _rank([row for row, v in zip(F, yy) if v == 0]) != r:
            raise Wrong(f"point {x} is not a vertex of the fiber")
    if set(poly.tail.rays) != set(sigma_rays):
        raise Wrong("coefficient tail cone differs from sigma")


def check_cone_approx(ca, eps):
    for vec, q in ca.vectors:
        if any((x * q).denominator != 1 for x in vec):
            raise Wrong("approximation vector is not integral after scaling by q")
        for x, enc in zip(vec, ca.target):
            if not max(abs(x - enc.lo), abs(x - enc.hi)) < eps / q:
                raise Wrong("approximation vector is too far from the target")
    if len(ca.hull_coefficients) != len(ca.vectors) or any(a <= 0 for a in ca.hull_coefficients):
        raise Wrong("hull coefficients are not positive")
    for j, enc in enumerate(ca.target):
        combo = sum(a * vec[j] for a, (vec, _) in zip(ca.hull_coefficients, ca.vectors))
        if not enc.lo <= combo <= enc.hi:
            raise Wrong("positive hull misses the target")


def check_signed(sa, eps):
    for p, enc, sign in zip(sa.p, sa.target, sa.signs):
        x = Fraction(p, sa.q)
        gap = (x - enc.hi, x - enc.lo) if sign == 1 else (enc.lo - x, enc.hi - x)
        if not (gap[0] > 0 and gap[1] <= eps / sa.q):
            raise Wrong(f"signed approximation {p}/{sa.q} fails its sign or gap")


# ----------------------------------------------------------- generators


def lattice_cone(rng, dim, k, box):
    """Rays (p, 1) over k distinct lattice points of [-box, box]^(dim-1).

    u0 is the sum of the rays, an interior point of the weight cone.
    """
    while True:
        pts = set()
        while len(pts) < k:
            pts.add(tuple(rng.randint(-box, box) for _ in range(dim - 1)))
        rays = [p + (1,) for p in sorted(pts)]
        if np.linalg.matrix_rank(np.asarray(rays, dtype=float)) == dim:
            return rays, tuple(sum(col) for col in zip(*rays))


def cross_polytope_cone(rng, dim, scale=3, jitter=1):
    """Rays (p, 1) over the vertices of a jittered cross-polytope in dim-1 variables.

    Small jitter keeps the combinatorial type (2^(dim-1) facets), so the cost
    of building the cone varies little from seed to seed.
    """
    rays = []
    for i in range(dim - 1):
        for sign in (1, -1):
            p = [rng.randint(-jitter, jitter) for _ in range(dim - 1)]
            p[i] += sign * scale
            rays.append(tuple(p) + (1,))
    return rays, tuple(sum(col) for col in zip(*rays))


def polygon_cone(rng, k, radius):
    """Rays (p, 1) over a lattice k-gon: a regular one at a random phase, rounded.

    The number of triangulation pieces stays near k - 2 for every seed.
    """
    phase = rng.uniform(0, 2 * math.pi)
    pts = {
        (round(radius * math.cos(phase + 2 * math.pi * j / k)), round(radius * math.sin(phase + 2 * math.pi * j / k)))
        for j in range(k)
    }
    rays = [p + (1,) for p in sorted(pts)]
    return rays, tuple(sum(col) for col in zip(*rays))


def reeb_point(rng, sigma_rays):
    """Rational interior point of the Reeb cone: a positive mix of its rays."""
    coeff = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in sigma_rays]
    return tuple(sum(c * ray[k] for c, ray in zip(coeff, sigma_rays)) for k in range(len(sigma_rays[0])))


def weight_matrix(rng, n, r):
    """Rows pair positively with (1,..,1), so sigma is full dimensional;
    the maximal minors are coprime, so the cokernel is torsion free."""
    while True:
        rows = [tuple(rng.randint(-2, 3) for _ in range(r)) for _ in range(n)]
        if all(sum(row) > 0 for row in rows) and _minor_gcd([list(c) for c in zip(*rows)]) == 1:
            return rows


# tail cone rays with their dual rays, written out so generation needs no kernel
TAILS = (
    (((1, 0), (0, 1)), ((1, 0), (0, 1))),
    (((1, 0), (1, 3)), ((0, 1), (3, -1))),
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    (((0, 1, 0), (2, 1, 0), (2, 1, 1), (0, 1, 1)), ((1, 0, 0), (0, 0, 1), (-1, 2, 0), (0, 1, -1))),
)


def divisor_points(rng, tail, npts, nverts):
    """Coefficient vertices for a proper divisor with the given tail.

    Point p's vertices are c_p g / <w, g> plus distinct offsets d with
    <w, d> = 0, where g is the sum of the tail rays and w the sum of the dual
    rays: on one hyperplane {<w, v> = c_p}, so no vertex dominates another.
    The offsets are halved until the degree is positive on every dual ray,
    which makes the divisor proper and its volume positive.
    """
    rays, duals = tail
    r = len(rays[0])
    w = [sum(u[k] for u in duals) for k in range(r)]
    g = [sum(ray[k] for ray in rays) for k in range(r)]
    wg = _dot(w, g)
    centers, offsets = [], []
    for _ in range(npts):
        c = Fraction(rng.randint(1, 6), rng.choice((1, 2)))
        centers.append([c * x / wg for x in g])
        ds = set()
        while len(ds) < nverts:
            d = [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(r)]
            shift = Fraction(_dot(w, d)) / wg
            ds.add(tuple(x - shift * y for x, y in zip(d, g)))
        offsets.append(sorted(ds))
    scale = Fraction(1)
    while True:
        pts = [
            (str(i), [tuple(a + scale * x for a, x in zip(center, d)) for d in ds])
            for i, (center, ds) in enumerate(zip(centers, offsets))
        ]
        if all(sum(min(_dot(u, v) for v in vs) for _, vs in pts) > 0 for u in duals):
            return pts
        scale /= 2


# ------------------------------------------------------------- problems

STALL_RAYS = ((17, 0, 1), (6, 10, 1), (-9, 7, 1), (-9, -7, 1), (4, -10, 1))
STALL_U0 = (0, 0, 1)
STALL_NVOL = "688.75610875359844404437"  # mpmath root of the gradient, 200 bits


def toric_problem(kind, rays, u0, ref_nvol=None, **problem):
    """Build, minimize at tol 1e-9, scan Futaki along the Reeb cone rays."""

    def solve():
        t = toricvol.ToricData.from_dual_cone(rays, u0)
        res = toricvol.minimize(t, tolerance=1e-9)
        scan = futaki.semistable_scan(t, res.xi_star, list(t.sigma.rays))
        check_scan_at_minimum(res, scan)
        check_toric_minimum(t, res, ref_nvol)

    return Problem(kind, solve, **problem)


DK_F = ((1, 0, 0), (-1, 2, 0), (0, 1, 0), (0, 0, 1), (0, 2, -2))
DK_P = ((-1, -1, 0, 2, 1), (-1, -1, 2, 0, 0))
DK_S = ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0))
DK_MONOMIALS = ((1, 1, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 2, 1))
DK_FIBERS = (("0", (1, 0)), ("1", (0, 1)), ("inf", (-1, -1)))
DK_SIGMA = {(0, 1, 0), (0, 1, 1), (2, 1, 0), (2, 1, 1)}
DK_SIGMA_DUAL = {(1, 0, 0), (0, 0, 1), (-1, 2, 0), (0, 1, -1)}
DK_COEFF = {
    "0": {(0, 0, 0), (0, 0, Fraction(1, 2))},
    "1": {(0, Fraction(1, 2), 0)},
    "inf": {(0, 0, 0), (1, 0, 0)},
}
DK_U0 = (0, 3, -1)
DK_ALPHA = "0.68614066163450716496265286705473233"  # (-3 + sqrt 33) / 4
DK_NVOL = "133.10660458484684110942"  # nvol at (1, 1, alpha), 200 bits


def dk_chain_problem():
    """complete_sequence -> downgrade_sigma -> coefficients -> divisor -> minimize_c1."""

    def solve():
        F = downgrade.WeightMatrix(DK_F)
        seq = downgrade.complete_sequence(F)
        check_sequence(DK_F, seq.P, seq.s)
        check_same_row_lattice(seq.P, DK_P)
        data = downgrade.DowngradeData(F, DK_P, DK_S)
        sigma, sigma_dual = downgrade.downgrade_sigma(data)
        pts = [(label, downgrade.downgrade_coefficient(data, p)) for label, p in DK_FIBERS]
        u0 = downgrade.hypersurface_u0(F, monomials=DK_MONOMIALS)
        d = cxonevol.PolyhedralDivisor(sigma, pts)
        res = cxonevol.minimize_c1(d, u0, tolerance=1e-7)
        if set(sigma.rays) != DK_SIGMA or set(sigma_dual.rays) != DK_SIGMA_DUAL:
            raise Wrong("dk cones differ from the stored exact rays")
        for label, poly in pts:
            if set(poly.compact_vertices) != DK_COEFF[label]:
                raise Wrong(f"dk coefficient at {label} differs from the stored vertices")
        if tuple(u0) != DK_U0:
            raise Wrong(f"dk u0 {u0} differs from {DK_U0}")
        check_c1_minimum(d, u0, res, DK_NVOL)
        xi = res.xi_star.xi
        target = (1.0, 1.0, float(DK_ALPHA))
        if max(abs(x / xi[0] - e) for x, e in zip(xi, target)) > 1e-6:
            raise Wrong("dk minimizer direction misses (1, 1, (-3+sqrt 33)/4)")

    return Problem("dk_chain", solve)


def weight_matrix_problem(rows, ys):
    """Downgrade a seeded weight matrix and check fibers p = P y, y >= 0."""

    def solve():
        data = downgrade.complete_sequence(downgrade.WeightMatrix(rows))
        sigma, sigma_dual = downgrade.downgrade_sigma(data)
        polys = [downgrade.downgrade_coefficient(data, [_dot(row, y) for row in data.P]) for y in ys]
        check_sequence(rows, data.P, data.s)
        check_extreme_rays(sigma.rays, rows)
        check_extreme_rays(sigma_dual.rays, sigma.rays)
        for poly, y in zip(polys, ys):
            check_fiber(poly, rows, data.s, y, sigma.rays)

    return Problem(f"weights {len(rows)}x{len(rows[0])}", solve)


def divisor_problem(tail, pts):
    sigma_rays, duals = tail
    u0 = tuple(sum(u[k] for u in duals) for k in range(len(duals[0])))

    def solve():
        d = cxonevol.PolyhedralDivisor.from_vertex_lists(sigma_rays, pts)
        res = cxonevol.minimize_c1(d, u0)
        check_c1_minimum(d, u0, res)

    verts = max(len(v) for _, v in pts)
    return Problem(f"divisor r{len(u0)} {len(pts)}x{verts}", solve)


def zero_volume_problem():
    """Divisor with no cells: only a typed error or converged=False is right."""

    def solve():
        try:
            d = cxonevol.PolyhedralDivisor.from_vertex_lists([(1, 0), (0, 1)], [("0", [(-1, -1)])])
            res = cxonevol.minimize_c1(d, (1, 1))
        except errors.ReebminError:
            return
        if res.converged:
            raise Wrong(f"zero-volume divisor reported converged with nvol {res.nvol_star}")

    return Problem("zero_volume", solve, known=("wrong", "ROADMAP item 4 (zero-volume divisor)"))


CLI_OPTIONS = argparse.Namespace(tol=1e-9, max_iter=200, precision=53, threads=1, m_list=None)

# lattice counts at m_list [50, 100, 200] and the closed-form volume at the spec's xi
ORACLE_BUNDLED = (
    ("c_n.json", (1275, 5050, 20100), "1"),
    ("a1.json", (625, 2500, 10000), "0.5"),
    ("spp.json", (8772, 67080, 524828), str(2 * mpmath.sqrt(3) / 9)),
    ("dk_4dim.json", (1324452, 20257327, 316789998), "4.6435677693908451875490"),
)
ORACLE_MS = [50, 100, 200]
SEEDED_MS = [60, 120, 200]


def oracle_problem(kind, doc, closed, counts=None):
    """cli.run('oracle') on one spec; counts and the volume estimate are checked.

    The tolerances are acceptance criterion 6's: the estimate at the largest
    m within 5% for every spec, and the extrapolated volume within 2% for a
    complexity-one spec.  A toric spec at an irrational xi counts a
    quasi-polynomial, which the 1/m fit need not extrapolate to 2%.
    """

    def solve():
        out = cli.run("oracle", doc, CLI_OPTIONS)
        if counts is not None and tuple(out["counts"]) != counts:
            raise Wrong(f"{kind}: counts {out['counts']} differ from the stored {counts}")
        if any(a > b for a, b in zip(out["counts"], out["counts"][1:])):
            raise Wrong(f"{kind}: counts are not monotone")
        ref = float(closed)
        if doc["kind"] != "toric" and abs(float(out["extrapolated"]) - ref) > 0.02 * ref:
            raise Wrong(f"{kind}: extrapolated volume {out['extrapolated']} vs closed form {ref}")
        if abs(float(out["estimates"][-1]) - ref) > 0.05 * ref:
            raise Wrong(f"{kind}: estimate at the largest m misses the closed form by over 5%")

    return Problem(kind, solve)


def certify_problem(t, points):
    """Float minimize, then the exact path at seeded rational Reeb vectors."""

    def solve():
        res = toricvol.minimize(t, tolerance=1e-9)
        for xq, etas in points:
            v = toricvol.vol_xi(t, xq)
            g = toricvol.grad_vol(t, xq)
            h = toricvol.hessian_vol(t, xq)
            resid = toricvol.certify_barycenter(t, xq)
            is_min = toricvol.is_rational_minimizer(t, xq)
            scan = futaki.semistable_scan(t, xq, etas)
            check_exact_point(t, xq, etas, v, g, h, resid, is_min, scan)
        check_toric_minimum(t, res)

    return Problem(f"certify d{t.n}", solve)


def check_exact_point(t, xq, etas, v, g, h, resid, is_min, scan):
    n = t.n
    own = sum(Fraction(p.det_abs) / math.prod(_dot(u, xq) for u in p.rays) for p in t.pieces)
    if not isinstance(v, Fraction) or v != own:
        raise Wrong(f"exact vol {v} differs from the piece sum {own}")
    if _dot(g, xq) != -n * v:
        raise Wrong("gradient fails Euler's identity <grad, xi> = -n vol")
    if any(_dot(row, xq) != -(n + 1) * gk for row, gk in zip(h, g)):
        raise Wrong("Hessian fails Euler's identity H xi = -(n+1) grad")
    _, own_resid = toric_mp([(p.rays, p.det_abs) for p in t.pieces], t.u0, xq)
    if abs(resid - own_resid) > 1e-12 + 1e-9 * own_resid:
        raise Wrong(f"barycenter residual {resid} vs {float(own_resid)}")
    ratios = {Fraction(gk) / uk for gk, uk in zip(g, t.u0) if uk != 0}
    parallel = all(gk == 0 for gk, uk in zip(g, t.u0) if uk == 0) and len(ratios) == 1
    if is_min != (parallel and min(ratios) < 0):
        raise Wrong("is_rational_minimizer disagrees with the exact gradient")
    a = _dot(t.u0, xq)
    for eta, (scan_eta, fut, _) in zip(etas, scan.entries):
        expect = n * a ** (n - 1) * (-_dot(t.u0, eta)) * v + a**n * -_dot(g, eta)
        if not isinstance(fut, Fraction) or fut != expect:
            raise Wrong(f"Futaki invariant along {eta} is {fut}, expected {expect}")
    if scan.entries[-1][1] != 0:
        raise Wrong("Futaki invariant along xi itself is not zero")


def _enclosure(text):
    return approx.Enclosure.from_decimal(text, radius=Fraction(1, 10**30))


SPP_TAIL = ("0.732050807568877293527446341505872", "0.535898384862245412945107316988384")


def approx_problem():
    """Certified approximations of the bundled minimizers' directions."""

    def solve():
        dk = approx.cone_rational_approx([1, 1, _enclosure(DK_ALPHA)], Fraction(1, 2))
        spp = approx.cone_rational_approx([_enclosure(x) for x in SPP_TAIL], Fraction(1, 10))
        signed = approx.dirichlet_signed([_enclosure(x) for x in SPP_TAIL], [1, -1], Fraction(1, 3))
        check_cone_approx(dk, Fraction(1, 2))
        check_cone_approx(spp, Fraction(1, 10))
        check_signed(signed, Fraction(1, 3))

    return Problem("approx", solve)


# ------------------------------------------------------------- families

TORIC_SLOTS = ((3, 8, 6), (3, 10, 5), (3, 16, 8), (3, 30, 10), (4, 8, 4), (4, 12, 4))
POLYGON_SLOTS = ((3, 6, 10**4), (3, 8, 10**4), (3, 10, 10**4))
DIM6 = (6, 12, 2)
DIM6_CAP_S = 5.0  # the dim-6 build runs far past any cap today; this one bounds what it costs a run
DIVISOR_SLOTS = ((0, 2, 2), (1, 6, 1), (2, 3, 3), (3, 3, 3), (3, 4, 2), (2, 4, 3), (3, 4, 3))
TORIC_ROUNDS = 40
CXONE_ROUNDS = 40
ORACLE_ROUNDS = 8
CERTIFY_ROUNDS = 200
CERTIFY_POINTS = 3


def toric_family(rng):
    rounds = []
    for i in range(TORIC_ROUNDS):
        rnd = []
        if i == 0:
            rnd.append(toric_problem("toric d6 k12", *lattice_cone(rng, *DIM6),
                                     known=("timeout", "ROADMAP item 2 (dim-6 cone build)"), cap=DIM6_CAP_S))
        for dim, k, box in TORIC_SLOTS:
            rnd.append(toric_problem(f"toric d{dim} k{k}", *lattice_cone(rng, dim, k, box)))
        rnd.append(toric_problem("toric d5 k8 cross", *cross_polytope_cone(rng, 5)))
        for dim, k, box in POLYGON_SLOTS:
            rnd.append(toric_problem(f"polygon k{k} large", *lattice_cone(rng, dim, k, box)))
        rnd.append(toric_problem("stall reproducer", STALL_RAYS, STALL_U0, STALL_NVOL))
        rounds.append(rnd)
    return rounds


def cxone_family(rng):
    rounds = []
    for _ in range(CXONE_ROUNDS):
        rnd = [dk_chain_problem()]
        for n, r in ((5, 3), (4, 2)):
            rows = weight_matrix(rng, n, r)
            ys = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(3)]
            rnd.append(weight_matrix_problem(rows, ys))
        for tail, npts, nverts in DIVISOR_SLOTS:
            rnd.append(divisor_problem(TAILS[tail], divisor_points(rng, TAILS[tail], npts, nverts)))
        rnd.append(zero_volume_problem())
        rounds.append(rnd)
    return rounds


def _bundled_doc(name):
    with open(reebmin.bundled_spec(name)) as fh:
        doc = json.load(fh)
    doc["m_list"] = ORACLE_MS
    return doc


def oracle_check(rng):
    bundled = [oracle_problem(name, _bundled_doc(name), closed, counts) for name, counts, closed in ORACLE_BUNDLED]
    rounds = []
    for _ in range(ORACLE_ROUNDS):
        rays, u0 = lattice_cone(rng, 3, rng.randint(5, 8), 3)
        t = toricvol.ToricData.from_dual_cone(rays, u0)
        pieces = [(p.rays, p.det_abs) for p in t.pieces]
        xi = toricvol.minimize(t, tolerance=1e-9).xi_star.xi
        # rescale xi to unit volume so every seeded cone counts about m^3/6 points
        vol = toric_mp(pieces, u0, xi)[0] / _dot(u0, [mpmath.mpf(x) for x in xi]) ** 3
        xi = [float(x * vol ** (mpmath.mpf(1) / 3)) for x in xi]
        closed = toric_mp(pieces, u0, xi)[0] / _dot(u0, [mpmath.mpf(x) for x in xi]) ** 3
        doc = {
            "schema": "reebmin/1",
            "kind": "toric",
            "sigma_dual_rays": [list(r) for r in rays],
            "u0": list(u0),
            "xi": [repr(x) for x in xi],
            "m_list": SEEDED_MS,
        }
        rounds.append(bundled + [oracle_problem("seeded d3 at minimizer", doc, float(closed))])
    return rounds


def toric_certify(rng):
    # cones of fixed combinatorial type, so the cost per problem varies little by seed
    specs = [polygon_cone(rng, 8, rng.randint(25, 40)), polygon_cone(rng, 12, rng.randint(25, 40)),
             cross_polytope_cone(rng, 4, scale=5, jitter=2), cross_polytope_cone(rng, 4, scale=5, jitter=2)]
    cones = [toricvol.ToricData.from_dual_cone(rays, u0) for rays, u0 in specs]
    rounds = []
    for _ in range(CERTIFY_ROUNDS):
        rnd = []
        for t in cones:
            points = []
            for _ in range(CERTIFY_POINTS):
                xq = reeb_point(rng, t.sigma.rays)
                points.append((xq, [rng.choice(t.sigma.rays), rng.choice(t.sigma.rays), xq]))
            rnd.append(certify_problem(t, points))
        rnd.append(approx_problem())
        rounds.append(rnd)
    return rounds


FAMILIES = {
    "toric_family": toric_family,
    "cxone_family": cxone_family,
    "oracle_check": oracle_check,
    "toric_certify": toric_certify,
}
WORKLOADS = tuple(FAMILIES)


def build(name, seed):
    """The workload's rounds for this seed; same seed, same inputs."""
    if name not in FAMILIES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return FAMILIES[name](random.Random(f"{name}:{seed}"))
