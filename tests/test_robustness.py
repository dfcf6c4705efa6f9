"""Fuzzed cones and divisors, plus concurrency smoke tests."""

import concurrent.futures
import math
import random
from fractions import Fraction

import pytest

from reebmin import (
    DowngradeData,
    Inconsistent,
    NotStrictlyConvex,
    PolyhedralDivisor,
    ToricData,
    VCone,
    WeightMatrix,
    certify_barycenter,
    downgrade_coefficient,
    dual_cone,
    futaki_invariant,
    induced_reeb,
    minimize,
    minimize_c1,
    nvol,
    nvol_c1,
    semistable_scan,
    vol_xi,
    vol_xi_c1,
)
from reebmin import _exact as ex

from conftest import DK_F, DK_P, DK_S


def random_pointed_cone(rng, dim, nrays, low=-3, high=4):
    """Rays strictly inside an open halfspace generate a pointed cone."""
    while True:
        rays = []
        for _ in range(nrays):
            while True:
                r = tuple(rng.randint(low, high) for _ in range(dim))
                if sum(r) > 0 and any(x != 0 for x in r):
                    break
            rays.append(r)
        if ex.rank(rays) == dim:
            return VCone(rays, dim)


class TestRandomToricCones:
    def test_minimize_on_fuzzed_cones(self):
        rng = random.Random(123)
        solved = 0
        while solved < 20:
            sigma_dual = random_pointed_cone(rng, 3, rng.randint(3, 6))
            sigma = dual_cone(sigma_dual)
            if not sigma_dual.is_full_dimensional() or not sigma.is_full_dimensional():
                continue
            u0 = tuple(sum(col) for col in zip(*sigma_dual.extreme_rays()))
            t = ToricData(sigma_dual, u0)
            res = minimize(t, tolerance=1e-8, max_iter=200)
            assert res.converged, (sigma_dual.rays, res)
            assert res.barycenter_residual <= 1e-8
            for j in range(3):
                eta = tuple(int(i == j) for i in range(3))
                assert abs(futaki_invariant(t, res.xi_star, eta)) <= 1e-6
            # the minimum actually beats nearby points on the slice
            rngf = [0.97, 1.03]
            a0 = sum(float(u) * x for u, x in zip(t.u0, res.xi_star.xi))
            for f1 in rngf:
                probe = list(res.xi_star.xi)
                probe[0] *= f1
                a = sum(float(u) * x for u, x in zip(t.u0, probe))
                assert nvol(t, tuple(probe)) >= res.nvol_star * (1 - 1e-9)
            solved += 1

    def test_minimize_on_fuzzed_cones_of_realistic_size(self):
        # with ray entries up to 20 Newton often reaches the rounding floor
        # of f before |grad| passes an absolute tolerance; it must stop
        # there rather than run to max_iter, whatever its converged flag
        rng = random.Random(2024)
        solved = 0
        while solved < 60:
            sigma_dual = random_pointed_cone(rng, 3, rng.randint(3, 6), -20, 20)
            sigma = dual_cone(sigma_dual)
            if not sigma_dual.is_full_dimensional() or not sigma.is_full_dimensional():
                continue
            u0 = tuple(sum(col) for col in zip(*sigma_dual.extreme_rays()))
            res = minimize(ToricData(sigma_dual, u0), tolerance=1e-8, max_iter=200)
            assert res.iterations <= 30, (sigma_dual.rays, res)
            assert res.barycenter_residual <= 1e-8, (sigma_dual.rays, res)
            solved += 1

    def test_conifold_symmetric_pairings(self):
        from reebmin import BinomialHypersurface, binomial_to_toric

        t = binomial_to_toric(BinomialHypersurface((1, 1, 0, 0), (0, 0, 1, 1)))
        res = minimize(t)
        pairings = [
            sum(a * b for a, b in zip(u, res.xi_star.xi))
            for u in t.sigma_dual.extreme_rays()
        ]
        assert max(pairings) - min(pairings) < 1e-9


class TestRandomDivisors:
    def test_minimize_c1_on_fuzzed_divisors(self):
        # Minimization needs properness: the degree function must be strictly
        # positive at every extreme weight-cone ray, otherwise the infimum
        # can sit on the Reeb-cone boundary and nothing converges (the
        # library then correctly reports converged=False).  The generator
        # filters to proper instances: one strictly positive translated
        # coefficient plus mixed-sign two-vertex coefficients.
        from reebmin import deg_D

        rng = random.Random(321)
        solved = 0
        for _ in range(400):
            if solved >= 8:
                break
            sigma = random_pointed_cone(rng, 2, rng.randint(2, 4))
            sigma_dual = dual_cone(sigma)
            if not sigma_dual.is_full_dimensional():
                continue
            shift = (Fraction(rng.randint(1, 3), 2), Fraction(rng.randint(1, 3), 2))
            coeffs = [("0", [shift])]
            for label in ("1", "inf"):
                verts = [(0, 0)]
                if rng.random() < 0.8:
                    verts.append(
                        (Fraction(rng.randint(-2, 2), 2), Fraction(rng.randint(-2, 2), 2))
                    )
                coeffs.append((label, verts))
            d = PolyhedralDivisor.from_vertex_lists(sigma.rays, coeffs)
            if any(deg_D(d, u) <= 0 for u in sigma_dual.extreme_rays()):
                continue  # improper: boundary infimum possible
            u0 = tuple(sum(col) for col in zip(*sigma_dual.extreme_rays()))
            res = minimize_c1(d, u0, tolerance=1e-6, max_iter=300)
            assert res.converged, (sigma.rays, coeffs)
            solved += 1
        assert solved >= 8

    def test_improper_divisor_reports_not_converged(self):
        # boundary infimum: deg vanishes on part of the weight cone, the
        # iterates drift toward the boundary, and the best iterate comes
        # back flagged converged=False rather than raising
        d = PolyhedralDivisor.from_vertex_lists(
            [(3, 4), (1, 4)], [("0", [(Fraction(3, 2), 1)])]
        )
        res = minimize_c1(d, (0, 2), tolerance=1e-6, max_iter=80)
        assert not res.converged
        assert res.grad_norm > 1e-6


class TestTypedInputErrors:
    """Inputs outside the theory raise a typed error with a fixed message."""

    def test_weight_cone_in_a_proper_subspace(self):
        with pytest.raises(NotStrictlyConvex, match="^weight cone spans a proper subspace$"):
            ToricData(VCone([(1, 0, 0), (0, 1, 0)], 3), (1, 1, 1))

    def test_weight_cone_with_a_line(self):
        with pytest.raises(NotStrictlyConvex, match="^weight cone contains a line$"):
            ToricData(VCone([(1, 0), (-1, 0), (0, 1)]), (0, 1))

    def test_u0_off_the_interior(self):
        with pytest.raises(ValueError, match="^u0 does not lie in the interior of the weight cone$"):
            ToricData(VCone([(1, 0), (0, 1)]), (1, 0))

    def test_lower_dimensional_tail(self):
        with pytest.raises(NotStrictlyConvex, match="^tail cone must be full dimensional$"):
            PolyhedralDivisor.from_vertex_lists([(1, 0, 0), (0, 1, 0)], [("0", [(0, 0, 0)])])

    def test_u0_not_positive_on_a_tail_ray(self, dk_divisor):
        # every function that takes a divisor's u0 checks it: on dk at this
        # xi nvol_c1 used to return 2048/9 and futaki_invariant 0
        d = PolyhedralDivisor.from_vertex_lists([(1, 0), (0, 1)], [("0", [(0, 0)])])
        xi, u0 = (1, 1, Fraction(1, 3)), (0, -3, 1)
        for f in (lambda: minimize_c1(d, (1, 0)), lambda: minimize_c1(dk_divisor, u0),
                  lambda: nvol_c1(dk_divisor, u0, xi),
                  lambda: futaki_invariant(dk_divisor, xi, (1, 0, 0), u0=u0),
                  lambda: semistable_scan(dk_divisor, xi, [], u0=u0)):
            with pytest.raises(ValueError, match="^u0 must pair positively with the tail cone$"):
                f()

    def test_p_f_not_zero(self):
        p = ((1, 0, 0, 0, 0), DK_P[1])
        with pytest.raises(ValueError, match="^P F != 0$"):
            DowngradeData(WeightMatrix(DK_F), p, DK_S)

    def test_s_f_not_identity(self):
        s = (DK_S[0], DK_S[1], (0, 0, 0, 0, 1))
        with pytest.raises(ValueError, match="^s F != id$"):
            DowngradeData(WeightMatrix(DK_F), DK_P, s)

    def test_fibre_point_of_the_wrong_length(self):
        d = DowngradeData(WeightMatrix(DK_F), DK_P, DK_S)
        with pytest.raises(ValueError, match="^fiber point has the wrong dimension$"):
            downgrade_coefficient(d, (1,))

    def test_ambient_weight_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^ambient weight has the wrong length$"):
            induced_reeb(WeightMatrix(DK_F), (1, 1))

    def test_inconsistent_float_weight(self):
        f = WeightMatrix([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -2)])
        with pytest.raises(Inconsistent, match=r"^weight not in the row space \(residual 2\)$"):
            induced_reeb(f, (1.0, 1.0, 1.0, 7.0))


class TestConcurrency:
    def test_parallel_volume_evaluations(self, spp):
        xis = [
            (2.0 + 0.01 * k, 2.0 + 0.02 * k, 1.0 + 0.005 * k) for k in range(64)
        ]
        serial = [float(vol_xi(spp, xi)) for xi in xis]
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(lambda xi: float(vol_xi(spp, xi)), xis))
        assert serial == parallel

    def test_parallel_minimize_same_result(self, spp):
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: minimize(spp).xi_star.xi, range(4)))
        assert all(r == results[0] for r in results)
