import argparse
import ast
import itertools
import json
import math
import random
from fractions import Fraction
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from reebmin import (
    CountSeries,
    NotInReebCone,
    PolyhedralDivisor,
    TooLarge,
    ToricData,
    bundled_spec,
    cli,
    count_cxone,
    count_toric,
    minimize,
    polyhedron_min,
    vol_estimate,
    vol_xi,
    vol_xi_c1,
)
from reebmin import _exact as ex

from conftest import random_interior_reeb

SQRT3 = math.sqrt(3)
XI0_SPP = ((3 + SQRT3) / 2, (3 + SQRT3) / 2, SQRT3)


def brute_count(t, xi, m, box=300):
    """Reference counter: plain loop over the box [-box, box]^d, no vectorization shared."""
    count = 0
    for u in itertools.product(range(-box, box + 1), repeat=len(xi)):
        if any(sum(a * b for a, b in zip(u, r)) < 0 for r in t.sigma.rays):
            continue
        if sum(a * b for a, b in zip(u, xi)) < m:
            count += 1
    return count


def brute_count_cxone(d, xi, m, box):
    """Reference counter: h0(u) = max(sum_P floor(polyhedron_min(D_P, u)) + 1, 0), summed
    point by point over the box [-box, box]^d."""
    total = 0
    for u in itertools.product(range(-box, box + 1), repeat=len(xi)):
        if any(sum(a * b for a, b in zip(u, r)) < 0 for r in d.sigma.rays):
            continue
        if sum(a * b for a, b in zip(u, xi)) < m:
            deg = sum(math.floor(polyhedron_min(poly, u)) for _, poly in d.points)
            total += max(deg + 1, 0)
    return total


def box_of(data, xi, m):
    """Half-width of a box holding the truncated weight cone: its vertices are
    0 and m u / <u, xi> for the weight cone's rays u."""
    scale = max(m / sum(a * b for a, b in zip(u, xi)) for u in data.sigma_dual.rays)
    return math.ceil(scale * max(abs(c) for u in data.sigma_dual.rays for c in u)) + 1


def integer_and_irrational_xi(rays):
    """The sum of the rays, and a combination of them with irrational weights."""
    integer = tuple(sum(r[k] for r in rays) for k in range(len(rays[0])))
    weights = [1 + math.sqrt(2 + i) / 3 for i in range(len(rays))]
    return integer, tuple(sum(w * r[k] for w, r in zip(weights, rays)) for k in range(len(rays[0])))


# integer truncations put whole layers of points on <u, xi> = m at integer xi,
# which the border recheck drops; m just above an integer keeps those layers
# inside delta of m, where the recheck must count them
TRUNCATIONS = (6, Fraction(13, 2), Fraction(6 * 10**9 + 1, 10**9))

# lattice counts of the bundled specs at their own xi, as bench/workloads.py
# stores them; the larger truncations are pinned in acceptance criterion 6
PINNED_COUNTS = (
    ("c_n.json", (50, 100), (1275, 5050)),
    ("a1.json", (50, 100), (625, 2500)),
    ("spp.json", (50, 100), (8772, 67080)),
    ("dk_4dim.json", (50,), (1324452,)),
)


class TestCountToric:
    def test_smooth_surface_small(self, c2):
        assert count_toric(c2, (1, 1), 3) == 6

    def test_float_xi_is_the_rational_it_stores(self, c2):
        # 0.3 stores 0.29999999999999998889..., so the four points with
        # u_1 + u_2 = 3 pair below 9/10 at the float xi and on it at 3/10
        m = Fraction(9, 10)
        assert count_toric(c2, (0.3, 0.3), m) == count_toric(c2, (Fraction(0.3),) * 2, m) == 10
        assert count_toric(c2, (Fraction(3, 10),) * 2, m) == 6

    def test_a1_hand_enumeration(self, a1):
        # {(u1, u2): 0 <= u2 <= 2 u1, 2 u1 < 4} has 1 + 3 elements
        assert count_toric(a1, (2, 0), 4) == 4

    def test_matches_reference_counter(self, c2, a1, rng):
        for t in (c2, a1):
            for m in (7, 13.5):
                xi = tuple(float(x) for x in random_interior_reeb(t, rng, max_num=3))
                assert count_toric(t, xi, m) == brute_count(t, xi, m, box=200)

    @pytest.mark.parametrize("n", [1, 4])
    def test_smooth_point_counts_binomial(self, n):
        # #{u in N^n : u_1 + ... + u_n < m} = C(m + n - 1, n) at integer m
        t = ToricData.smooth_point(n)
        for m in (1, 2, 7, 20):
            assert count_toric(t, (1,) * n, m) == math.comb(m + n - 1, n)

    def test_four_dim_cone_matches_reference_counter(self):
        # a cone over a lattice pyramid in a skewed basis: no ray is a coordinate
        # vector, and the integer xi puts many points exactly on <u, xi> = m
        rays = [(1, 0, -1, 1), (0, 1, 1, 1), (-1, 1, 0, 1), (1, 1, 1, 2), (0, -1, 1, 1)]
        t = ToricData.from_dual_cone(rays, [sum(c) for c in zip(*rays)])
        xi = tuple(sum(r[k] for r in t.sigma.rays) for k in range(4))
        # and Newton's float minimizer, the kind of point oracle_check counts
        # at, times 8 (exactly, in float); the reference counts at the
        # rational it stores
        xf = tuple(8 * x for x in minimize(t).xi_star.xi)
        # the truncated cone's vertices m u / <u, xi> lie in [-8, 8]^4 for m <= 24
        for m in (24, Fraction(47, 2), 21.3):
            assert count_toric(t, xi, m) == brute_count(t, xi, m, box=8)
            assert count_toric(t, xf, m) == brute_count(t, tuple(map(Fraction, xf)), m, box=8)

    def test_skewed_four_dim_orthant_counts_binomial(self):
        # the orthant of Z^4 in a skewed basis u -> U u: its truncated cone is a
        # thin simplex whose bounding box has 33069 heads, 1763 of them over the
        # cone's shadow; the count is the orthant's, C(m + 3, 4) at integer m
        rays, xi = self._skewed_orthant()
        t = ToricData.from_dual_cone(rays, [sum(c) for c in zip(*rays)])
        assert count_toric(t, xi, 10) == math.comb(13, 4)
        assert count_toric(t, xi, Fraction(21, 2)) == math.comb(14, 4)

    def test_budget_charges_slabs_without_points(self):
        # 715 points, but the heads over the shadow scan 1763 slabs of 733 y
        # values each, so the walk alone exceeds the budget
        rays, xi = self._skewed_orthant()
        t = ToricData.from_dual_cone(rays, [sum(c) for c in zip(*rays)])
        with pytest.raises(TooLarge):
            count_toric(t, xi, 10, budget=10**5)

    @staticmethod
    def _skewed_orthant():
        lower = [[1, 0, 0, 0], [7, 1, 0, 0], [-5, 6, 1, 0], [3, -8, 4, 1]]
        upper = [[1, 3, -4, 2], [0, 1, 5, -3], [0, 0, 1, 6], [0, 0, 0, 1]]
        u = ex.mat_mul(lower, upper)  # det 1, so its adjugate is its inverse
        rays = ex.transpose(u)  # the images U e_j of the orthant's rays
        return rays, tuple(ex.mat_vec(ex.transpose(ex.adjugate(u)), [1, 1, 1, 1]))

    @pytest.mark.parametrize("rays", [
        [(1,)],
        [(1, 0), (1, 3)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 2)],
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 3)],
    ])
    def test_integer_xi_matches_reference_counter(self, rays):
        t = ToricData.from_cone(rays, [1] * len(rays[0]))
        xi = integer_and_irrational_xi(rays)[0]
        for m in TRUNCATIONS:
            assert count_toric(t, xi, m) == brute_count(t, xi, m, box=box_of(t, xi, m))

    def test_ray_with_zero_z_bounds_y_from_above(self):
        # sigma's ray (1, -1, 0) has no z and a negative y coefficient, so it
        # caps y in each slab instead of entering the z range
        t = ToricData.from_cone([(1, -1, 0), (0, 1, 0), (0, 0, 1)], (2, 1, 1))
        xi = (2, 1.5, 1)
        counts = [count_toric(t, xi, m) for m in (5, 7.5, 12)]
        assert counts == [11, 27, 78] == [brute_count(t, xi, m, box=box_of(t, xi, m)) for m in (5, 7.5, 12)]

    @pytest.mark.parametrize("name, ms, counts", PINNED_COUNTS)
    def test_bundled_counts_pinned(self, name, ms, counts):
        doc = json.loads(Path(bundled_spec(name)).read_text())
        doc["m_list"] = list(ms)
        out = cli.run("oracle", doc, argparse.Namespace(threads=1))
        assert tuple(out["counts"]) == counts

    def test_monotone_in_m(self, spp):
        counts = [count_toric(spp, XI0_SPP, m) for m in (10, 20, 40, 80)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_unimodular_invariance(self, spp):
        from reebmin import ToricData
        from reebmin import _exact as ex

        u = ((1, 1, 0), (0, 1, 0), (0, 1, 1))  # det 1, so its adjugate is its inverse
        uinv_t = ex.transpose(ex.adjugate(u))
        rays = [ex.mat_vec(uinv_t, r) for r in spp.sigma_dual.rays]
        t2 = ToricData.from_dual_cone(rays, ex.mat_vec(uinv_t, spp.u0))
        xi2 = tuple(float(x) for x in ex.mat_vec([[Fraction(x) for x in row] for row in u],
                                                 [Fraction(2), Fraction(3), Fraction(1)]))
        assert count_toric(spp, (2.0, 3.0, 1.0), 60) == count_toric(t2, xi2, 60)

    def test_budget(self, spp):
        with pytest.raises(TooLarge):
            count_toric(spp, XI0_SPP, 200, budget=1000)

    def test_budget_charged_after_the_block_precheck(self):
        # the smooth surface at m = 50 holds 1275 points; a block of slabs
        # passes the width pre-check, and then its own charge passes the budget
        with pytest.raises(TooLarge, match="exceeded the 100 cell budget"):
            count_toric(ToricData.smooth_point(2), (1.0, 1.0), 50, budget=100)
        # 1e-18 off a wall of the Reeb cone, a block's charge passes 2^63: it
        # must still count against the budget rather than wrap negative
        xi = (1.9753475433857417, 2.024652456614258, 1.439939549104333e-18)
        d = PolyhedralDivisor.from_vertex_lists(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [("0", [(0, 0, 0)]), ("1", [(1, 0, 0), (0, 1, 0)]), ("inf", [(-1, 0, -1)])]
        )
        for count in (lambda: count_toric(ToricData.smooth_point(3), xi, 5, budget=2 * 10**6),
                      lambda: count_cxone(d, xi, 5, budget=2 * 10**6)):
            with pytest.raises(TooLarge, match="exceeded the 2000000 cell budget"):
                count()

    def test_convergence_to_closed_form(self, spp):
        c = count_toric(spp, XI0_SPP, 200)
        est = math.factorial(3) * c / 200**3
        closed = float(vol_xi(spp, XI0_SPP))
        assert abs(est - closed) / closed < 0.05

    def test_conifold_five_percent_at_m200(self):
        from reebmin import BinomialHypersurface, binomial_to_toric

        t = binomial_to_toric(BinomialHypersurface((1, 1, 0, 0), (0, 0, 1, 1)))
        res = minimize(t)
        xi = res.xi_star.xi
        closed = float(vol_xi(t, xi))
        est = math.factorial(3) * count_toric(t, xi, 200) / 200**3
        assert abs(est - closed) / closed < 0.05

    def test_spp_pinned_within_one_percent_at_m400(self, spp):
        # raw estimate at 400 sits at ~1.13%; the module's extrapolation over
        # truncations up to m = 400 pins the value well inside 1%
        series = CountSeries.from_counts(spp.n, [(m, count_toric(spp, XI0_SPP, m)) for m in [100, 200, 400]])
        est, _ = vol_estimate(series)
        closed = float(vol_xi(spp, XI0_SPP))
        assert abs(est - closed) / closed < 0.01


class TestCountCxone:
    def test_trivial_divisor_counts_lattice_points(self, c2):
        d = PolyhedralDivisor.from_vertex_lists([(1, 0), (0, 1)], [("p", [(0, 0)])])
        # deg = 0 everywhere: h0 = 1 per point, so the count equals the plain
        # lattice count of the matching toric cone
        assert count_cxone(d, (1.0, 1.0), 9) == count_toric(c2, (1.0, 1.0), 9)

    def test_one_point_divisor_hand_count(self):
        d = PolyhedralDivisor.from_vertex_lists([(1, 0), (0, 1)], [("p", [(1, 0)])])
        # h0(u) = u1 + 1 on the orthant; sum over u1 + u2 < 3
        expected = sum(u1 + 1 for u1 in range(3) for u2 in range(3) if u1 + u2 < 3)
        assert count_cxone(d, (1.0, 1.0), 3) == expected

    def test_floor_kills_half_integers(self, dk_divisor):
        # the divisor is rounded down pointwise: the weight (0,1,-1) has
        # coefficient values (-1/2, +1/2, 0) whose floors sum to -1, so it
        # contributes no sections even though its degree sum is 0
        from itertools import product

        from reebmin import polyhedron_min

        xi = (1.0, 1.0, 0.5)
        total = 0
        for u in product(range(-3, 3), repeat=3):
            if any(sum(a * b for a, b in zip(u, r)) < 0 for r in dk_divisor.sigma.rays):
                continue
            if sum(a * b for a, b in zip(u, xi)) < 0.6:
                deg_floor = sum(
                    math.floor(polyhedron_min(poly, u)) for _, poly in dk_divisor.points
                )
                total += max(deg_floor + 1, 0)
        assert total == 2  # (0,0,0) and (0,0,1) count; (0,1,-1) floors away
        assert count_cxone(dk_divisor, xi, 0.6) == total

    @pytest.mark.parametrize("tail", [
        [(1,)],
        [(1, 0), (1, 3)],
        [(0, 1, 0), (2, 1, 0), (2, 1, 1), (0, 1, 1)],
    ])
    def test_matches_reference_counter(self, tail):
        # seeded divisors with vertex denominators 2 and 3; the negative shift
        # makes deg + 1 < 0 on part of the weight cone, so some columns fall
        # back to point-by-point weights
        rng = random.Random(len(tail))
        rank = len(tail[0])
        for shift in (0, -2):
            points = [
                (str(p), [
                    tuple(Fraction(rng.randint(-2, 2) + shift * (k == 0), rng.choice((2, 3)))
                          for k in range(rank))
                    for _ in range(rng.randint(1, 3))
                ])
                for p in range(rng.randint(2, 3))
            ]
            d = PolyhedralDivisor.from_vertex_lists(tail, points)
            for xi in integer_and_irrational_xi(tail):
                for m in TRUNCATIONS:
                    assert count_cxone(d, xi, m) == brute_count_cxone(d, xi, m, box_of(d, xi, m))

    def test_pairings_past_int64_count_exactly(self):
        # <u, nums> reaches 41 (2^61 - 1) over the box: the integer rows of
        # the vertex over its denominator 3 (2^61 - 1) leave int64
        d = PolyhedralDivisor.from_vertex_lists(
            [(1, 0), (0, 1)], [("p", [(Fraction(1, 2**61 - 1), Fraction(1, 3))])]
        )
        assert count_cxone(d, (1.0, 1.0), 40) == 4109 == brute_count_cxone(d, (1, 1), 40, 41)

    def test_convergence_dk(self, dk_divisor):
        alpha = (-3 + math.sqrt(33)) / 4
        xi = (1.0, 1.0, alpha)
        closed = float(vol_xi_c1(dk_divisor, xi))
        c = count_cxone(dk_divisor, xi, 150)
        est = math.factorial(4) * c / 150**4
        assert abs(est - closed) / closed < 0.05


def equal_slope_divisor(tail, rng, shift):
    """Seeded divisor whose points pair vertices of equal last coordinate, the
    slope along the oracle's columns.

    A vertex v = sum c_i t_i over the tail rays t_i comes with v + t_j - t_k
    for two rays of equal last coordinate (v itself on a 1-dim tail): the two
    lines tie wherever <t_j - t_k, u> = 0.  With shift 0 every vertex lies in
    the tail and only the first point has denominator 2, so B(0) >= 0 and
    deg >= 0 on the weight cone; a negative shift moves the first coordinate
    of every vertex down and mixes in denominator 3.
    """
    pairs = [(j, k) for j, tj in enumerate(tail) for k, tk in enumerate(tail) if j != k and tj[-1] == tk[-1]]
    points = []
    for p in range(rng.randint(2, 3)):
        den = 2 if p == 0 else (rng.choice((1, 3)) if shift else 1)
        verts = []
        for _ in range(rng.randint(1, 2)):
            c = [Fraction(rng.randint(0, 2 * den), den) for _ in tail]
            j, k = rng.choice(pairs) if pairs else (0, 0)
            c[k] += 1
            partner = list(c)
            partner[j] += 1
            partner[k] -= 1
            for cs in (c, partner):
                v = [sum(ci * t[i] for ci, t in zip(cs, tail)) for i in range(len(tail[0]))]
                v[0] += shift
                verts.append(tuple(v))
        points.append((str(p), verts))
    return PolyhedralDivisor.from_vertex_lists(tail, points)


def sure_everywhere(d):
    """B(0) = 1 - sum_P (den_P - 1) / den_P >= 0 and deg >= 0 on the weight cone's rays."""
    dens = [math.lcm(*(c.denominator for v in poly.compact_vertices for c in v)) for _, poly in d.points]
    b0 = 1 - sum(Fraction(den - 1, den) for den in dens)
    return b0 >= 0 and all(sum(polyhedron_min(poly, r) for _, poly in d.points) >= 0 for r in d.sigma_dual.rays)


def has_equal_slopes(d):
    return any(
        len({v[-1] for v in poly.compact_vertices}) < len(poly.compact_vertices) for _, poly in d.points
    )


@pytest.fixture
def interior_spy(monkeypatch):
    """Records (sure, number of columns left to count point by point) per
    `_interior_sums` call."""
    from reebmin import oracle

    calls = []
    inner = oracle._interior_sums

    def spy(heads, y, z0, z1, envelopes, sure):
        total, unsure = inner(heads, y, z0, z1, envelopes, sure)
        calls.append((sure, int(unsure.sum())))
        return total, unsure

    monkeypatch.setattr(oracle, "_interior_sums", spy)
    return calls


class TestSlopeEnvelopes:
    # a point's vertices of equal slope merge into one line, the pointwise
    # min; the closed form then sums one floor sum per distinct slope
    @pytest.mark.parametrize("tail", [
        [(1,)],
        [(1, 1), (-1, 1)],
        [(0, 1, 0), (2, 1, 0), (2, 1, 1), (0, 1, 1)],
    ])
    def test_equal_slopes_match_reference_counter(self, tail):
        rng = random.Random(100 + len(tail[0]))
        divisors = [equal_slope_divisor(tail, rng, shift) for shift in (0, 0, -2)]
        assert [sure_everywhere(d) for d in divisors] == [True, True, False]
        assert len(tail[0]) == 1 or all(map(has_equal_slopes, divisors))
        for d in divisors:
            for xi in integer_and_irrational_xi(tail):
                for m in TRUNCATIONS:
                    assert count_cxone(d, xi, m) == brute_count_cxone(d, xi, m, box_of(d, xi, m))

    def test_four_dim_tail_matches_reference_counter(self):
        tail = [(0, 1, 0, 0), (2, 1, 0, 0), (2, 1, 1, 0), (0, 1, 1, 0), (0, 1, 0, 1)]
        rng = random.Random(4)
        for d in (equal_slope_divisor(tail, rng, 0), equal_slope_divisor(tail, rng, -1)):
            assert has_equal_slopes(d)
            xi = tuple(sum(r[k] for r in tail) for k in range(4))
            for m in (3, Fraction(7, 2)):
                assert count_cxone(d, xi, m) == brute_count_cxone(d, xi, m, box_of(d, xi, m))

    @pytest.mark.parametrize("points", [
        # proper, but B(0) = 1 - 3/2 < 0: three points of denominator 2
        [("0", [(Fraction(1, 2), 0)]), ("1", [(0, Fraction(1, 2))]), ("2", [(Fraction(1, 2), Fraction(1, 2))])],
        # improper: deg(0, 1) = -1 on a ray of the weight cone
        [("0", [(0, -1), (1, -1)]), ("1", [(Fraction(1, 3), 0)])],
    ])
    def test_per_column_bound_when_not_sure_everywhere(self, points, interior_spy):
        d = PolyhedralDivisor.from_vertex_lists([(1, 0), (0, 1)], points)
        for xi in ((1, 1), (1.0, 1.0 + math.sqrt(2))):
            for m in TRUNCATIONS:
                assert count_cxone(d, xi, m) == brute_count_cxone(d, xi, m, box_of(d, xi, m))
        assert not any(sure for sure, _ in interior_spy)
        assert sum(n for _, n in interior_spy) > 0

    def test_dk_is_sure_everywhere(self, dk_divisor, interior_spy):
        # B(0) = 1 - 1/2 - 1/2 = 0 and deg >= 0 on sigma's dual rays, so no
        # column of dk_4dim falls back to point-by-point counting
        assert count_cxone(dk_divisor, (1.0, 1.0, 0.6861406616345072), 50) == 1324452
        assert interior_spy and all(sure and n == 0 for sure, n in interior_spy)


def plain_floor_sum(n, den, a, b):
    return sum((a * i + bk) // den for nk, bk in zip(n, b) for i in range(nk))


def test_floor_sum_matches_plain_loop():
    # negative a and b, empty runs and empty arrays, den up to 60
    from reebmin import oracle

    rng = random.Random(26)
    for _ in range(400):
        k = rng.randint(0, 6)
        den, a = rng.randint(1, 60), rng.randint(-150, 150)
        n = [rng.choice((0, rng.randint(0, 40))) for _ in range(k)]
        b = [rng.randint(-400, 400) for _ in range(k)]
        got = oracle._floor_sum(np.array(n, dtype=np.int64), den, a, np.array(b, dtype=np.int64))
        assert got == plain_floor_sum(n, den, a, b)


TAIL3 = [(0, 1, 0), (2, 1, 0), (2, 1, 1), (0, 1, 1)]


def one_slope_divisor(rng, shift):
    """Seeded divisor over TAIL3 whose first point has at least three vertices
    of one last coordinate c, drawn in the plane z = c until three survive as
    vertices; a negative shift moves the first coordinate of every vertex down."""
    while True:
        den = rng.choice((1, 2, 3))
        c = Fraction(rng.randint(-2, 2), den)
        first = [(Fraction(rng.randint(-4, 4), den) + shift, Fraction(rng.randint(-4, 4), den), c)
                 for _ in range(6)]
        others = [
            (str(p), [tuple(Fraction(rng.randint(-2, 2) + shift * (k == 0), rng.choice((1, 2, 3))) for k in range(3))
                      for _ in range(rng.randint(1, 2))])
            for p in range(1, rng.randint(2, 3))
        ]
        d = PolyhedralDivisor.from_vertex_lists(TAIL3, [("0", first), *others])
        if sum(v[-1] == c for v in d.points[0][1].compact_vertices) >= 3:
            return d


def test_slope_groups_of_three_where_columns_are_not_sure(monkeypatch):
    # the min over a slope group of three or more vertex rows, in the walked
    # basis, feeds both the closed form and the per-column bound
    from reebmin import oracle

    seen = []
    inner = oracle._interior_sums

    def spy(heads, y, z0, z1, envelopes, sure):
        total, unsure = inner(heads, y, z0, z1, envelopes, sure)
        group = max(int(np.unique(rows[:, -1], return_counts=True)[1].max()) for rows, *_ in envelopes)
        seen.append((group, sure, int(unsure.sum()), len(y)))
        return total, unsure

    monkeypatch.setattr(oracle, "_interior_sums", spy)
    rng = random.Random(2026)
    for shift in (0, -1, -2):
        d = one_slope_divisor(rng, shift)
        for xi in integer_and_irrational_xi(TAIL3):
            for m in TRUNCATIONS:
                assert count_cxone(d, xi, m) == brute_count_cxone(d, xi, m, box_of(d, xi, m))
    # some columns of a block are left to count point by point, the others summed in closed form
    assert any(group >= 3 and not sure and 0 < n < cols for group, sure, n, cols in seen)


def seeded_unimodular(rng, d):
    """A seeded integer matrix of determinant +-1: elementary row additions,
    then one row negated."""
    a = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-2, -1, 1, 2))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
    k = rng.randrange(d)
    a[k] = [-x for x in a[k]]
    return a


def seeded_rays(rng, d):
    """Rays (p, 1) over d to d + 2 distinct points p of [-2, 2]^(d-1), of full rank."""
    while True:
        pts = set()
        while len(pts) < rng.randint(d, d + 2):
            pts.add(tuple(rng.randint(-2, 2) for _ in range(d - 1)))
        rays = [p + (1,) for p in sorted(pts)]
        if ex.rank(rays) == d:
            return rays


def three_xis(rng, sigma_rays):
    """An integer, a rational and an irrational point of sigma's interior."""
    d = len(sigma_rays[0])
    weights = (
        [1] * len(sigma_rays),
        [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in sigma_rays],
        [1 + math.sqrt(2 + rng.randint(0, 20)) / 3 for _ in sigma_rays],
    )
    return [tuple(sum(w * r[k] for w, r in zip(ws, sigma_rays)) for k in range(d)) for ws in weights]


@pytest.fixture
def basis_spy(monkeypatch):
    """Records, per `_column_basis` call, whether the walk turned its columns."""
    from reebmin import oracle

    turned = []
    inner = oracle._column_basis

    def spy(*args):
        out = inner(*args)
        turned.append(out is not None)
        return out

    monkeypatch.setattr(oracle, "_column_basis", spy)
    return turned


@pytest.fixture
def column_spy(monkeypatch):
    """Records the sigma rays each `_columns` call walks and the columns it forms."""
    from reebmin import oracle

    calls = []
    inner = oracle._columns

    def spy(block, rays, *args):
        out = inner(block, rays, *args)
        calls.append((tuple(rays), len(out[2])))
        return out

    monkeypatch.setattr(oracle, "_columns", spy)
    return calls


class TestColumnDirection:
    # lattice counts do not change under a unimodular change of basis, so the
    # walk may run its columns along any primitive direction; it takes the
    # weight cone's ray of least pairing with xi where that beats the last axis

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_toric_count_equals_image_count(self, dim, basis_spy):
        # weight cone rays r and u0 map by U^-T, sigma's rays and xi by U
        rng = random.Random(240 + dim)
        for _ in range(3):
            dual = seeded_rays(rng, dim)
            t = ToricData.from_dual_cone(dual, [sum(c) for c in zip(*dual)])
            u = seeded_unimodular(rng, dim)
            det = ex.int_det(u)  # +-1, so U^-T = det adj(U)^T
            inv_t = [[det * x for x in row] for row in ex.transpose(ex.adjugate(u))]
            image = ToricData.from_dual_cone([ex.mat_vec(inv_t, r) for r in dual], ex.mat_vec(inv_t, t.u0))
            for xi in three_xis(rng, t.sigma.rays):
                xi_image = ex.mat_vec(u, [Fraction(x) for x in xi])  # a float xi is the rational it stores
                for m in TRUNCATIONS:
                    count = count_toric(t, xi, m)
                    assert count_toric(image, xi_image, m) == count
                    box = box_of(t, xi, m)
                    if (2 * box + 1) ** dim <= 30000:
                        assert count == brute_count(t, tuple(map(Fraction, xi)), m, box)
        assert any(basis_spy) and not all(basis_spy)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_cxone_count_equals_image_count(self, dim, basis_spy):
        # tail rays, vertices and xi map by U
        rng = random.Random(340 + dim)
        for shift in (0, -2, 0):
            tail = seeded_rays(rng, dim)
            points = [
                (str(p), [
                    tuple(Fraction(rng.randint(-2, 2) + shift * (k == 0), rng.choice((1, 2, 3))) for k in range(dim))
                    for _ in range(rng.randint(1, 3))
                ])
                for p in range(rng.randint(1, 3))
            ]
            d = PolyhedralDivisor.from_vertex_lists(tail, points)
            u = seeded_unimodular(rng, dim)
            image = PolyhedralDivisor.from_vertex_lists(
                [ex.mat_vec(u, r) for r in tail],
                [(label, [ex.mat_vec(u, v) for v in verts]) for label, verts in points],
            )
            for xi in three_xis(rng, tail):
                xi_image = ex.mat_vec(u, [Fraction(x) for x in xi])
                for m in TRUNCATIONS:
                    count = count_cxone(d, xi, m)
                    assert count_cxone(image, xi_image, m) == count
                    box = box_of(d, xi, m)
                    if (2 * box + 1) ** dim <= 30000:
                        assert count == brute_count_cxone(d, tuple(map(Fraction, xi)), m, box)
        assert any(basis_spy) and not all(basis_spy)

    def test_dk_walk_forms_under_half_the_last_axis_columns(self, dk_divisor, column_spy, monkeypatch):
        # dk_4dim's weight cone ray (0, 1, -1) pairs 0.314 with xi, e_3 0.686
        from reebmin import oracle

        xi = (1.0, 1.0, 0.6861406616345072)
        assert count_cxone(dk_divisor, xi, 200) == 316789998
        turned = sum(n for _, n in column_spy)
        column_spy.clear()
        monkeypatch.setattr(oracle, "_column_basis", lambda *args: None)
        assert count_cxone(dk_divisor, xi, 200) == 316789998
        assert turned < sum(n for _, n in column_spy) / 2

    @pytest.mark.parametrize("trip", ["pairings", "sums"])
    def test_image_past_int64_walks_the_last_axis(self, dk_divisor, column_spy, monkeypatch, trip):
        # the image's int64 guards, tripped by hand: its pairings over the box
        # (TooLarge) or its column sums (wide); the walk takes the last axis
        from reebmin import oracle

        layouts = []
        inner = oracle._layout

        def tripped(*args):
            layouts.append(args[0])
            out = inner(*args)
            if len(layouts) == 1:
                if trip == "pairings":
                    raise TooLarge("cone pairings over the box leave int64")
                out = (*out[:-1], True)
            return out

        monkeypatch.setattr(oracle, "_layout", tripped)
        assert count_cxone(dk_divisor, (1.0, 1.0, 0.6861406616345072), 50) == 1324452
        own = tuple(dk_divisor.sigma.rays)
        assert len(layouts) == 2 and tuple(layouts[0]) != own and tuple(layouts[1]) == own
        assert column_spy and all(rays == own for rays, _ in column_spy)

    def test_budget_overrun_of_the_image_walks_the_last_axis(self, spp, basis_spy):
        # spp at m = 50 finishes along the last axis on a budget of 9061 cells
        # and along its turned direction on 9196: on 9100 the turned walk runs
        # out and the last axis still counts
        xi = ((3 + SQRT3) / 2, (3 + SQRT3) / 2, SQRT3)
        assert count_toric(spp, xi, 50, budget=9100) == 8772
        assert basis_spy == [True]
        with pytest.raises(TooLarge):
            count_toric(spp, xi, 50, budget=9060)

    def test_no_turn_off_the_weight_cone_or_without_gain(self, c2, a1, basis_spy):
        # c_n: e_2 pairs 1 like every ray; a1: e_2 lies outside the weight cone
        count_toric(c2, (1, 1), 50)
        count_toric(a1, (2, 0), 50)
        assert basis_spy == [False, False]


def multi_slope_divisor(tail, rng):
    """Seeded divisor whose first point has vertices of two or three distinct
    last coordinates, so its envelope has a piece per slope along the columns."""
    rank = len(tail[0])
    first = [tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3))) for _ in range(rank - 1)) + (Fraction(s, 2),)
             for s in (-1, 0, 1)]
    other = [tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(rank))]
    return PolyhedralDivisor.from_vertex_lists(tail, [("0", first), ("1", other)])


def spy_on(monkeypatch, name, record):
    """Replace oracle.<name> by a wrapper that passes its arguments and result to record."""
    from reebmin import oracle

    inner = getattr(oracle, name)

    def spy(*args):
        out = inner(*args)
        record(args, out)
        return out

    monkeypatch.setattr(oracle, name, spy)


class TestWalkSkipsAndShares:
    # the walk splits every formed column, forms heads only for the columns
    # with an interior run and points only for those with a border run, and
    # computes what depends on the data and xi alone once per series

    RAYS3 = [(1, 0, 0), (0, 1, 0), (1, 1, 2)]

    def test_dead_columns_inside_a_block(self, monkeypatch):
        # the y range of a slab is its shadow's, so some of its columns have
        # no z inside the cone while others in the same block do
        seen = []
        spy_on(monkeypatch, "_columns", lambda args, out: seen.append(
            (int((out[4] < out[3]).sum()), int((out[4] >= out[3]).sum()))))
        t = ToricData.from_cone(self.RAYS3, [1, 1, 1])
        d = multi_slope_divisor(self.RAYS3, random.Random(28))
        for xi in integer_and_irrational_xi(self.RAYS3):
            for m in TRUNCATIONS:
                box = box_of(t, xi, m)
                assert count_toric(t, xi, m) == brute_count(t, xi, m, box)
                assert count_cxone(d, xi, m) == brute_count_cxone(d, xi, m, box_of(d, xi, m))
        assert any(dead and live for dead, live in seen)

    @pytest.mark.parametrize("name, xi", [("c2", (1, 1)), ("a1", (2, 0))])
    def test_border_runs_at_integer_xi(self, name, xi, request, monkeypatch):
        # at an integer m the layer <u, xi> = m lies within the margin of m:
        # its points form border runs and the exact recheck drops them; just
        # above the integer it keeps them
        t = request.getfixturevalue(name)
        seen = []
        spy_on(monkeypatch, "_split", lambda args, out: seen.append(int((out[3] >= out[2]).sum())))
        counts = []
        for m in TRUNCATIONS:
            counts.append(count_toric(t, xi, m))
            assert counts[-1] == brute_count(t, xi, m, box_of(t, xi, m))
        assert counts[0] < counts[2]
        assert any(seen)

    def test_slope_pieces_empty_on_some_columns(self, monkeypatch):
        # a slope's piece of the envelope covers part of some runs and none
        # of others: a run of length 0 adds 0 whatever its start
        seen = []
        spy_on(monkeypatch, "_floor_sum", lambda args, out: seen.append(
            bool((args[0] == 0).any() and (args[0] > 0).any())))
        rng = random.Random(280)
        for tail in (self.RAYS3, TAIL3):
            d = multi_slope_divisor(tail, rng)
            for xi in integer_and_irrational_xi(tail):
                for m in (20, Fraction(41, 2)):
                    assert count_cxone(d, xi, m) == brute_count_cxone(d, xi, m, box_of(d, xi, m))
        assert any(seen)

    def test_no_layout_goes_stale(self):
        # the same data at two xi and two data sets at one xi, interleaved:
        # each count equals the reference count and a count from nothing kept
        from reebmin import oracle

        rng = random.Random(2828)
        divisors = [multi_slope_divisor(self.RAYS3, rng) for _ in range(2)]
        xis = integer_and_irrational_xi(self.RAYS3)
        t = ToricData.from_cone(self.RAYS3, [1, 1, 1])
        calls = [(count_cxone, d, xi) for xi in xis for d in divisors] + [(count_toric, t, xi) for xi in xis]
        for count, data, xi in calls + calls[::-1]:
            got = count(data, xi, 13)
            oracle._kept.clear()
            assert got == count(data, xi, 13)
            reference = brute_count if count is count_toric else brute_count_cxone
            assert got == reference(data, xi, 13, box_of(data, xi, 13))

    def test_series_lays_its_data_out_once(self, monkeypatch):
        # three truncations of one spec and one xi: one column basis, one
        # closed-form test, one set of envelopes and one set of exact pairings
        calls = {name: 0 for name in ("_column_basis", "_sure_everywhere", "_envelopes", "_reeb_pairings")}
        for name in calls:
            spy_on(monkeypatch, name, lambda args, out, name=name: calls.__setitem__(name, calls[name] + 1))
        doc = json.loads(Path(bundled_spec("dk_4dim.json")).read_text())
        doc["m_list"] = [50, 100, 200]
        out = cli.run("oracle", doc, argparse.Namespace(threads=1))
        assert out["counts"] == [1324452, 20257327, 316789998]
        assert calls == {name: 1 for name in calls}

    @pytest.mark.parametrize("size", [1, 2, 3, 50, 10**6])
    def test_heads_come_in_order_in_blocks_of_at_most_size(self, size):
        from reebmin import oracle

        rays, xi = TestCountToric._skewed_orthant()
        t = ToricData.from_dual_cone(rays, [sum(c) for c in zip(*rays)])
        x = [Fraction(c) for c in xi]
        pad = oracle._PAD * 11
        verts, box_lo, box_hi = oracle._box_from_cone(t.sigma_dual.rays, [sum(map(mul, u, x)) for u in
                                                                          t.sigma_dual.rays], 10, pad)

        def heads(head):  # the recursive enumeration, one shadow range per head
            if len(head) == len(box_lo) - 2:
                yield head
                return
            if head:
                lo, hi = (int(v[0]) for v in oracle._shadow_range(verts, len(head), [head[-1]], pad))
            else:
                lo, hi = box_lo[0], box_hi[0]
            for c in range(lo, hi + 1):
                yield from heads(head + (c,))

        blocks = list(oracle._heads(verts, box_lo, box_hi, pad, size))
        assert all(1 <= len(b) <= size for b in blocks)
        assert [tuple(h) for b in blocks for h in b.tolist()] == list(heads(()))


class TestTruncationChecks:
    @pytest.mark.parametrize("m", [0, -1, Fraction(-1, 2), -0.5, 0.0])
    def test_non_positive_truncation_counts_nothing(self, dk_divisor, m):
        # on the weight cone only the apex pairs to 0 with xi in the Reeb cone
        assert count_toric(ToricData.smooth_point(3), (1, 1, 1), m) == 0
        assert count_toric(ToricData.smooth_point(2), (1, 1), m) == 0
        assert count_cxone(dk_divisor, (1.0, 1.0, 0.6861406616345072), m) == 0

    def test_non_positive_truncation_off_the_reeb_cone(self, c2):
        with pytest.raises(NotInReebCone):
            count_toric(c2, (1, -1), 0)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_non_finite_truncation(self, c2, dk_divisor, m):
        with pytest.raises(ValueError, match=f"m = {m}"):
            count_toric(c2, (1, 1), m)
        with pytest.raises(ValueError, match=f"m = {m}"):
            count_cxone(dk_divisor, (1, 1, Fraction(7, 10)), m)


    @pytest.mark.parametrize("m", [10**400, Fraction(10**400), Fraction(10**401, 3)], ids=["int", "fraction", "ratio"])
    def test_truncation_past_float_range_is_too_large(self, dk_divisor, m):
        # float(m) overflows: the parent raised OverflowError from the float box
        with pytest.raises(TooLarge, match="float range"):
            count_toric(ToricData.smooth_point(3), (1, 1, 1), m)
        with pytest.raises(TooLarge, match="float range"):
            count_cxone(dk_divisor, (1, 1, Fraction(7, 10)), m)

    def test_vertices_past_float_range_are_too_large(self, dk_divisor):
        # m is a float, but m u / <u, xi> is not: the parent raised ValueError on a NaN
        with pytest.raises(TooLarge, match="float range"):
            count_toric(ToricData.smooth_point(3), (Fraction(1, 1000), 1, 1), 1e306)
        with pytest.raises(TooLarge, match="float range"):
            count_cxone(dk_divisor, (Fraction(1, 10**6), 1, Fraction(7, 10)), 1e304)

    @staticmethod
    def apex_bound(data, xi):
        """min <u, xi> / ||u||_inf over the weight cone's rays u: below it the
        truncated cone lies in the open unit cube."""
        return min(ex.dot(u, xi) / max(map(abs, u)) for u in data.sigma_dual.rays)

    @pytest.mark.parametrize("m", [Fraction(1, 10**400), 5e-324, 1e-320, 1e-300, Fraction(1, 2), 1, Fraction(11, 10)])
    def test_tiny_truncation_counts_the_apex(self, dk_divisor, m):
        # a positive m whose float is 0 or subnormal collapsed the float hull:
        # the parent raised numpy's zero-size-reduction ValueError, or warned
        # of an overflow in a divide
        t = ToricData.smooth_point(3)
        assert count_toric(t, (1, 1, 1), m) == brute_count(t, (1, 1, 1), m, 2)
        xi = (1, 1, Fraction(7, 10))
        assert count_cxone(dk_divisor, xi, m) == brute_count_cxone(dk_divisor, xi, m, box_of(dk_divisor, xi, m))

    def test_apex_bound_either_side(self, dk_divisor):
        eps = Fraction(1, 10**9)
        t = ToricData.from_cone([(1, 0, 0), (0, 1, 0), (1, 1, 3)], [1, 1, 1])
        for data, xi, reference in ((t, (1, Fraction(1, 2), Fraction(1, 3)), brute_count),
                                    (dk_divisor, (1, 1, Fraction(7, 10)), brute_count_cxone)):
            bound = self.apex_bound(data, xi)
            for m in (bound - eps, bound, bound + eps, 3 * bound):
                box = box_of(data, xi, m)
                got = (count_toric if data is t else count_cxone)(data, xi, m)
                assert got == reference(data, xi, m, box), m


class TestLengthChecks:
    # a short xi used to raise IndexError in the pairing bound and a long one
    # numpy's inhomogeneous-shape ValueError
    @pytest.mark.parametrize("xi", [(1.0,), (1.0, 1.0, 1.0)])
    def test_toric_xi_of_wrong_length(self, c2, xi):
        with pytest.raises(ValueError, match=f"Reeb vector has {len(xi)} entries .* dimension 2"):
            count_toric(c2, xi, 5)

    @pytest.mark.parametrize("xi", [(1, 1), (1, 1, Fraction(1, 3), 1)])
    def test_cxone_xi_of_wrong_length(self, dk_divisor, xi):
        with pytest.raises(ValueError, match=f"Reeb vector has {len(xi)} entries .* dimension 3"):
            count_cxone(dk_divisor, xi, 5)


class TestVolEstimate:
    def test_smooth_surface_extrapolates_to_one(self, c2):
        series = CountSeries.from_counts(c2.n, [(m, count_toric(c2, (1.0, 1.0), m)) for m in [100, 200, 400]])
        est, diag = vol_estimate(series)
        assert abs(est - 1.0) < 1e-3
        assert diag["monotone_counts"]

    def test_a1_extrapolates_to_half(self, a1):
        series = CountSeries.from_counts(a1.n, [(m, count_toric(a1, (2.0, 0.0), m)) for m in [100, 200, 400]])
        est, _ = vol_estimate(series)
        assert abs(est - 0.5) < 1e-2

    def test_needs_three_truncations(self, c2):
        series = CountSeries.from_counts(2, [(100, 5151), (200, 20301)])
        with pytest.raises(ValueError):
            vol_estimate(series)

    def test_monotone_counts_read_in_order_of_m(self):
        # spp's counts at m = 50, 100, 200, given largest first
        _, diag = vol_estimate(CountSeries.from_counts(3, [(200, 524828), (100, 67080), (50, 8772)]))
        assert diag["monotone_counts"] is True
        _, diag = vol_estimate(CountSeries.from_counts(3, [(200, 67080), (100, 524828), (50, 8772)]))
        assert diag["monotone_counts"] is False

    def test_needs_distinct_truncations(self):
        series = CountSeries.from_counts(2, [(100, 5151), (100, 5151), (200, 20301)])
        with pytest.raises(ValueError, match="three distinct truncations"):
            vol_estimate(series)

    @pytest.mark.parametrize("m", [0, -5])
    def test_series_rejects_non_positive_truncations(self, m):
        with pytest.raises(ValueError, match="positive"):
            CountSeries.from_counts(2, [(m, 0), (10, 66), (20, 231)])

    @pytest.mark.parametrize("m, what", [(1e-300, "m\\^n positive"), (1e-160, "finite")])
    def test_series_rejects_truncations_past_float_range(self, m, what):
        # m^2 underflows to 0.0 at 1e-300, and 2 / m^2 overflows at 1e-160
        with pytest.raises(ValueError, match=what):
            CountSeries.from_counts(2, [(m, 1), (10, 66), (20, 231)])

    def test_estimates_recorded(self, c2):
        series = CountSeries.from_counts(c2.n, [(m, count_toric(c2, (1.0, 1.0), m)) for m in [10, 20, 40]])
        assert len(series.estimates) == 3
        assert series.truncations[0] == (10.0, count_toric(c2, (1.0, 1.0), 10))


def test_oracle_imports_only_exact_and_errors():
    # the oracle is the independent check of the closed forms, so it may share
    # the exact arithmetic and the error types with them but no other code
    from reebmin import oracle

    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is None:
                imported.update(alias.name for alias in node.names)
            else:
                imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "reebmin":
            rest = node.module.split(".")[1:]
            imported.update(rest[:1] if rest else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "reebmin":
                    imported.add(parts[1] if len(parts) > 1 else "reebmin")
    assert imported <= {"_exact", "errors"}
