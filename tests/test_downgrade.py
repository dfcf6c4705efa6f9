import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from reebmin import (
    BinomialHypersurface,
    DowngradeData,
    EmptyFiber,
    Inconsistent,
    NonInvariant,
    PolyhedralDivisor,
    RankDeficient,
    TorsionCokernel,
    VCone,
    WeightMatrix,
    binomial_to_toric,
    complete_sequence,
    downgrade_coefficient,
    downgrade_sigma,
    hypersurface_u0,
    induced_reeb,
    minimize,
    nvol,
)
from reebmin import _exact as ex
from reebmin import downgrade, polyhedral

from conftest import DK_F, DK_P, DK_S, DK_SIGMA_RAYS, DK_U0, assert_incidence_recorded

SQRT3 = math.sqrt(3)
SQRT33 = math.sqrt(33)


def assert_canonical_sequence(f, d):
    """P F = 0, s F = I, P in Hermite form, and P's rows a saturated lattice:
    the Hermite form of P^T is the identity over zeros."""
    assert all(x == 0 for row in ex.mat_mul(d.P, f.rows) for x in row)
    assert ex.mat_mul(d.s, f.rows) == tuple(tuple(int(i == j) for j in range(f.r)) for i in range(f.r))
    assert len(d.P) == f.N - f.r
    assert ex.hermite(d.P)[0] == d.P
    h, _ = ex.hermite(ex.transpose(d.P))
    assert h[: len(d.P)] == tuple(tuple(int(i == j) for j in range(len(d.P))) for i in range(len(d.P)))


@pytest.fixture(scope="module")
def dk_weights():
    return WeightMatrix(DK_F)


@pytest.fixture(scope="module")
def dk_explicit_data(dk_weights):
    return DowngradeData(dk_weights, DK_P, DK_S)


class TestCompleteSequence:
    def test_identity(self):
        d = complete_sequence(WeightMatrix([(1, 0), (0, 1)]))
        assert d.P == ()
        assert d.s == ((1, 0), (0, 1))

    def test_dk_row_lattice(self, dk_weights):
        d = complete_sequence(dk_weights)
        assert downgrade._lattice(d.P) == downgrade._lattice(DK_P)
        assert d.P == ((1, 1, 0, -2, -1), (0, 0, 2, -2, -1))
        assert d.s == ((0, -1, 0, 2, 1), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0))

    def test_section_property(self, dk_weights):
        d = complete_sequence(dk_weights)
        sf = ex.mat_mul(d.s, dk_weights.rows)
        assert tuple(tuple(Fraction(x) for x in r) for r in sf) == ex.identity(3)

    def test_torsion_cokernel(self):
        with pytest.raises(TorsionCokernel, match="order 2"):
            complete_sequence(WeightMatrix([(2,)]))
        with pytest.raises(TorsionCokernel, match="order 3"):
            complete_sequence(WeightMatrix([(1, 1), (1, -2), (2, -1)]))

    def test_lattice_check(self, dk_weights):
        rng = random.Random(53)
        for _ in range(20):
            q = rng.randint(-3, 3)
            e = ((1, q), (0, 1)) if rng.random() < 0.5 else ((0, 1), (-1, q))
            DowngradeData(dk_weights, ex.mat_mul(e, DK_P), DK_S)  # same lattice
        doubled = (DK_P[0], tuple(2 * x for x in DK_P[1]))
        summed = (ex.vec_add(*DK_P), tuple(x - 2 * y for x, y in zip(DK_P[0], DK_P[1])))  # index 3
        for p in (doubled, DK_P[:1], summed):
            with pytest.raises(ValueError, match="saturated cokernel lattice"):
                DowngradeData(dk_weights, p, DK_S)
        # three rows spanning the kernel lattice are accepted
        DowngradeData(dk_weights, (*DK_P, ex.vec_add(*DK_P)), DK_S)

    def test_reproducer_returns_canonical(self):
        # the Smith form this replaced grew its entries without bound here
        f = WeightMatrix(
            [(-2, -1, 3), (-2, 0, -3), (-1, -1, -3), (3, -2, 3), (1, -1, -2), (-2, -2, 2), (-1, 2, 1)]
        )
        d = complete_sequence(f)
        assert_canonical_sequence(f, d)
        assert max(abs(x) for row in d.P + d.s for x in row) <= 18

    def test_seeded_sequences_canonical(self):
        rng = random.Random(1979)
        done = 0
        while done < 300:
            n, r = rng.randint(4, 8), rng.randint(2, 5)
            rows = [tuple(rng.randint(-3, 3) for _ in range(r)) for _ in range(n)]
            try:
                f = WeightMatrix(rows)
            except RankDeficient:
                continue
            t = time.perf_counter()
            try:
                d = complete_sequence(f)
            except TorsionCokernel:
                continue
            assert time.perf_counter() - t < 1.0
            assert_canonical_sequence(f, d)
            done += 1

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            WeightMatrix([(1, 2), (2, 4)])

    def test_random_exactness(self, rng):
        count = 0
        while count < 30:
            rows = [
                tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(4)
            ]
            try:
                f = WeightMatrix(rows)
                d = complete_sequence(f)
            except (RankDeficient, TorsionCokernel):
                continue
            prod = ex.mat_mul(d.P, f.rows)
            assert all(x == 0 for row in prod for x in row)
            sf = ex.mat_mul(d.s, f.rows)
            assert tuple(tuple(Fraction(x) for x in r) for r in sf) == ex.identity(2)
            count += 1


class TestDowngradeSigma:
    def test_dk_cones(self, dk_explicit_data):
        sigma, sigma_dual = downgrade_sigma(dk_explicit_data)
        assert sigma.is_equivalent(VCone(DK_SIGMA_RAYS))
        assert sigma_dual.is_equivalent(VCone([(1, 0, 0), (0, 0, 1), (-1, 2, 0), (0, 1, -1)]))

    def test_identity_orthant(self):
        d = complete_sequence(WeightMatrix([(1, 0), (0, 1)]))
        sigma, _ = downgrade_sigma(d)
        assert set(sigma.rays) == {(1, 0), (0, 1)}

    def test_double_dual(self, dk_explicit_data):
        from reebmin import dual_cone

        sigma, sigma_dual = downgrade_sigma(dk_explicit_data)
        assert dual_cone(sigma_dual).is_equivalent(sigma)

    def test_one_pass(self, dk_explicit_data, monkeypatch):
        from reebmin import dual_cone, polyhedral

        calls = [0]
        kernel = polyhedral._dd_pass

        def counting(*args):
            calls[0] += 1
            return kernel(*args)

        monkeypatch.setattr(polyhedral, "_dd_pass", counting)
        sigma, sigma_dual = downgrade_sigma(dk_explicit_data)
        assert calls[0] == 1
        assert sigma._dual is sigma_dual and sigma_dual._dual is sigma
        assert sigma_dual.rays == ((-1, 2, 0), (0, 0, 1), (0, 1, -1), (1, 0, 0))
        assert sigma_dual == dual_cone(VCone(sigma.rays))

    def test_recorded_incidence(self, dk_explicit_data):
        # sigma is re-paired with the extreme rays of F's cone: the masks it
        # holds must index those rays, not the rows of F it was first paired with
        sigma, sigma_dual = downgrade_sigma(dk_explicit_data)
        assert sigma._dual is sigma_dual
        assert_incidence_recorded(sigma)
        rng = random.Random(110)
        redundant_rows = line = 0
        while redundant_rows < 10 or line < 5:
            n, r = rng.randint(3, 6), rng.randint(2, 3)
            rows = [tuple(rng.randint(-2, 3) for _ in range(r)) for _ in range(n)]
            try:
                data = complete_sequence(WeightMatrix(rows))
            except (RankDeficient, TorsionCokernel):
                continue
            sigma, sigma_dual = downgrade_sigma(data)
            assert sigma._dual is sigma_dual
            for cone in (sigma, sigma_dual):
                assert_incidence_recorded(cone)
            redundant_rows += len(sigma_dual.rays) < len({row for row in rows if any(row)})
            line += not sigma.is_full_dimensional()

    def test_dual_with_a_line(self):
        # the rows 1 and -1 span a line, so sigma = {0} is not full dimensional
        from reebmin import dual_cone

        sigma, sigma_dual = downgrade_sigma(complete_sequence(WeightMatrix([(1,), (-1,)])))
        assert sigma.rays == ()
        assert sigma_dual == dual_cone(VCone((), 1)) and set(sigma_dual.rays) == {(1,), (-1,)}


class TestDowngradeCoefficient:
    def test_dk_all_three(self, dk_explicit_data):
        sigma, _ = downgrade_sigma(dk_explicit_data)
        d0 = downgrade_coefficient(dk_explicit_data, (1, 0))
        d1 = downgrade_coefficient(dk_explicit_data, (0, 1))
        d2 = downgrade_coefficient(dk_explicit_data, (-1, -1))
        assert set(d0.compact_vertices) == {(0, 0, 0), (0, 0, Fraction(1, 2))}
        # this fiber's half-space description {x>=0, y>=0, z>=0,
        # -x+2y-1>=0, 2y-2z-1>=0} has a single vertex: the origin violates
        # -x+2y-1 >= 0, so no segment appears
        assert set(d1.compact_vertices) == {(0, Fraction(1, 2), 0)}
        assert set(d2.compact_vertices) == {(0, 0, 0), (1, 0, 0)}
        for poly in (d0, d1, d2):
            assert poly.tail.is_equivalent(sigma)

    def test_divisor_makes_no_homogenization_pass(self, dk_explicit_data, monkeypatch):
        # a downgraded coefficient holds the vertices its vertex enumeration
        # found, so the divisor makes no pass in dimension r + 1; each
        # coefficient's tail is compared with sigma through sigma's own dual,
        # so no pass runs over the tails either
        sigma, _ = downgrade_sigma(dk_explicit_data)
        pts = [(label, downgrade_coefficient(dk_explicit_data, p))
               for label, p in (("0", (1, 0)), ("1", (0, 1)), ("inf", (-1, -1)))]
        dims = []
        kernel = polyhedral._dd_pass
        monkeypatch.setattr(polyhedral, "_dd_pass", lambda normals, n: dims.append(n) or kernel(normals, n))
        d = PolyhedralDivisor(sigma, pts)
        assert dims == []
        assert [poly.compact_vertices for _, poly in d.points] == [poly.compact_vertices for _, poly in pts]

    def test_empty_fiber(self):
        d = complete_sequence(WeightMatrix([(1,), (0,)]))
        with pytest.raises(EmptyFiber):
            downgrade_coefficient(d, (-1,))

    def test_square_weight_matrix_gives_sigma(self):
        # F square: P has no rows, the fiber is the whole orthant
        d = complete_sequence(WeightMatrix([(1, 0), (0, 1)]))
        assert d.P == ()
        sigma, _ = downgrade_sigma(d)
        poly = downgrade_coefficient(d, ())
        assert poly.compact_vertices == ((0, 0),)
        assert poly.tail.is_equivalent(sigma)

    def test_s_choice_independent_volume(self, dk_weights, dk_explicit_data):
        # two different valid (P, s) choices give unimodularly matched divisors
        # with identical minimized normalized volume
        from reebmin import PolyhedralDivisor, minimize_c1

        auto = complete_sequence(dk_weights)

        def divisor(data, fibers):
            sigma, _ = downgrade_sigma(data)
            pts = [
                (str(i), downgrade_coefficient(data, p).compact_vertices)
                for i, p in enumerate(fibers)
            ]
            return PolyhedralDivisor.from_vertex_lists(sigma.rays, pts)

        explicit_div = divisor(dk_explicit_data, [(1, 0), (0, 1), (-1, -1)])
        # fan rays of the auto P: primitive column directions
        cols = sorted(set(ex.primitive(c) for c in zip(*auto.P)))
        auto_div = divisor(auto, cols)
        r1 = minimize_c1(explicit_div, DK_U0, tolerance=1e-7)
        r2 = minimize_c1(auto_div, DK_U0, tolerance=1e-7)
        assert abs(r1.nvol_star - r2.nvol_star) < 1e-8 * abs(r1.nvol_star)


class TestBinomialToToric:
    def test_pinned_toric_data(self):
        # (a, b) -> (sigma_dual rays, sigma rays, u0), as the Smith form gave them
        pins = {
            ((1, 1, 0), (0, 0, 2)): (((-1, 2), (1, 0), (0, 1)), ((0, 1), (2, 1)), (0, 1)),
            ((1, 1, 0, 0), (0, 0, 2, 1)): (
                ((-1, 2, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
                ((0, 0, 1), (0, 1, 0), (1, 0, 1), (2, 1, 0)),
                (0, 1, 1),
            ),
            ((1, 1, 0, 0), (0, 0, 1, 1)): (
                ((-1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)),
                ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)),
                (0, 1, 1),
            ),
        }
        for (a, b), (dual_rays, rays, u0) in pins.items():
            t = binomial_to_toric(BinomialHypersurface(a, b))
            assert (t.sigma_dual.rays, t.sigma.rays, t.u0) == (dual_rays, rays, u0)
            assert all(type(x) is Fraction for x in t.u0)

    def test_a1_pipeline(self):
        t = binomial_to_toric(BinomialHypersurface((1, 1, 0), (0, 0, 2)))
        res = minimize(t)
        assert res.converged and abs(res.nvol_star - 2) < 1e-10

    def test_spp_matches_direct_presentation(self, spp):
        t = binomial_to_toric(BinomialHypersurface((1, 1, 0, 0), (0, 0, 2, 1)))
        assert t.n == 3
        res = minimize(t)
        ref = minimize(spp)
        assert abs(res.nvol_star - ref.nvol_star) < 1e-10
        assert abs(res.nvol_star - 6 * SQRT3) < 1e-9

    def test_conifold_symmetric_minimizer(self):
        t = binomial_to_toric(BinomialHypersurface((1, 1, 0, 0), (0, 0, 1, 1)))
        res = minimize(t)
        assert res.converged
        assert abs(res.nvol_star - 16) < 1e-9

    def test_permutation_stability(self, rng):
        base = (1, 1, 0, 0), (0, 0, 2, 1)
        ref = minimize(binomial_to_toric(BinomialHypersurface(*base))).nvol_star
        perms = list(itertools.permutations(range(4)))
        rng.shuffle(perms)
        for perm in perms[:6]:
            a = tuple(base[0][i] for i in perm)
            b = tuple(base[1][i] for i in perm)
            val = minimize(binomial_to_toric(BinomialHypersurface(a, b))).nvol_star
            assert abs(val - ref) < 1e-10 * abs(ref)

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            BinomialHypersurface((1, 0), (1, 0))  # a == b
        with pytest.raises(ValueError):
            BinomialHypersurface((1, 1), (0, 2))  # supports overlap in slot 2
        with pytest.raises(ValueError):
            BinomialHypersurface((2, 1), (1, 0))  # supports overlap in slot 1


class TestInducedReeb:
    def test_dk_weight_recovery(self, dk_weights):
        alpha = (-3 + SQRT33) / 4
        beta = (7 - SQRT33) / 2
        xi = induced_reeb(dk_weights, (1.0, 1.0, 1.0, alpha, beta))
        assert max(abs(a - b) for a, b in zip(xi.xi, (1.0, 1.0, alpha))) < 1e-12

    def test_exact_solution(self):
        f = WeightMatrix([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -2)])
        xi = induced_reeb(f, ("3/2", "3/2", 1, 1))
        assert xi.exact and xi.xi == (Fraction(3, 2), Fraction(3, 2), Fraction(1))

    def test_inconsistent(self):
        f = WeightMatrix([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -2)])
        with pytest.raises(Inconsistent, match=r"^weight not in the row space \(no exact solution\)$"):
            induced_reeb(f, (1, 1, 1, 7))


class TestHypersurfaceU0:
    DK_MONOMIALS = [(1, 1, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 2, 1)]  # z1 z2 + z3^2 + z4^2 z5

    def test_dk(self, dk_weights):
        u0 = hypersurface_u0(dk_weights, monomials=self.DK_MONOMIALS)
        assert u0 == (0, 3, -1)

    def test_consistency_with_induced_reeb(self, dk_weights):
        alpha = (-3 + SQRT33) / 4
        beta = (7 - SQRT33) / 2
        w = (1.0, 1.0, 1.0, alpha, beta)
        xi = induced_reeb(dk_weights, w)
        u0 = hypersurface_u0(dk_weights, monomials=self.DK_MONOMIALS)
        lhs = sum(float(u) * x for u, x in zip(u0, xi.xi))
        rhs = sum(w) - 2.0
        assert abs(lhs - rhs) < 1e-12
        assert abs(lhs - (15 - SQRT33) / 4) < 1e-12

    def test_smooth_point_convention(self):
        f = WeightMatrix([(1, 0), (0, 1)])
        assert hypersurface_u0(f) == (1, 1)

    def test_non_invariant(self, dk_weights):
        with pytest.raises(NonInvariant):
            hypersurface_u0(dk_weights, monomials=[(1, 1, 0, 0, 0), (0, 0, 0, 0, 3)])
