import math
from fractions import Fraction

import mpmath
import pytest
import sympy

from reebmin import (
    NotInReebCone,
    ReebVector,
    ToricData,
    certify_barycenter,
    grad_vol,
    hessian_vol,
    is_rational_minimizer,
    log_discrepancy,
    minimize,
    nvol,
    vol_xi,
)
from reebmin import polyhedral
from reebmin.polyhedral import VCone

from conftest import random_interior_reeb

SQRT3 = math.sqrt(3)
XI0_SPP = ((3 + SQRT3) / 2, (3 + SQRT3) / 2, SQRT3)


def a1_symbolic():
    """Independent closed form for the A1 cone: single piece, |det| = 2."""
    x, y = sympy.symbols("x y", positive=True)
    return x, y, 2 / (x * (x + 2 * y))


class TestLogDiscrepancy:
    def test_spp_at_minimizer(self, spp):
        assert abs(log_discrepancy(spp, XI0_SPP) - 3) < 1e-12

    def test_smooth_point(self, c2):
        assert log_discrepancy(c2, (Fraction(1), Fraction(1))) == 2

    def test_a1(self, a1):
        assert log_discrepancy(a1, (Fraction(2), Fraction(0))) == 2


class TestVolXi:
    def test_unit_simplex(self, c2):
        assert vol_xi(c2, (Fraction(1), Fraction(1))) == 1

    def test_a1_closed_form(self, a1, rng):
        x, y, vol = a1_symbolic()
        assert vol_xi(a1, (Fraction(2), Fraction(0))) == Fraction(1, 2)
        for _ in range(25):
            xi = random_interior_reeb(a1, rng)
            expected = Fraction(str(vol.subs({x: sympy.Rational(xi[0]), y: sympy.Rational(xi[1])})))
            assert vol_xi(a1, xi) == expected

    def test_reeb_cone_violation(self, a1):
        with pytest.raises(NotInReebCone):
            vol_xi(a1, (Fraction(0), Fraction(1)))

    def test_straddling_interval_leaves_the_reeb_cone(self, c2):
        # mpi(-0.5, 1) <= 0 is None, which used to let the box through and
        # return vol = [-inf, +inf]
        with pytest.raises(NotInReebCone):
            vol_xi(c2, (mpmath.mpi(-0.5, 1), mpmath.mpi(1, 2)))

    def test_interval_point_has_no_sine(self, c2, monkeypatch):
        # u0's Fractions met the interval inside the sine and raised mpmath's
        # bare NotImplementedError; the type is named before the kernel runs
        monkeypatch.setattr(c2._cellsum, "evaluate", lambda *args: pytest.fail("kernel ran"))
        with pytest.raises(TypeError, match="ivmpf"):
            certify_barycenter(c2, (mpmath.mpi(1, 2), mpmath.mpi(1, 2)))

    @pytest.mark.parametrize("xi", [(1, 1, 1, 5), (1, 1)])
    def test_wrong_length_names_both_lengths(self, xi):
        # zip used to truncate (1, 1, 1, 5) to (1, 1, 1) and return 1
        t = ToricData.from_dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 1, 1))
        for f in (vol_xi, grad_vol, hessian_vol, certify_barycenter, log_discrepancy, nvol):
            with pytest.raises(ValueError, match=f"has {len(xi)} entries .* dimension 3"):
                f(t, xi)

    def test_u0_of_wrong_length(self):
        with pytest.raises(ValueError, match="u0 has 2 entries .* dimension 3"):
            ToricData.from_dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 1))


class TestDualPair:
    def test_weight_cone_given_directly_keeps_its_ray_order(self):
        # sigma is the cone the pass paired with the given weight cone
        sigma_dual = VCone([(1, 2), (1, 0)])
        t = ToricData(sigma_dual, (1, 1))
        assert t.sigma_dual is sigma_dual and t.sigma_dual.rays == ((1, 2), (1, 0))
        assert t.sigma is sigma_dual._dual and set(t.sigma.rays) == {(0, 1), (2, -1)}

    def test_constructors_skip_the_self_comparison(self, monkeypatch):
        # from_cone and from_dual_cone record each cone as the other's dual:
        # one double-description pass each, none to compare them
        passes = []
        dd_pass = polyhedral._dd_pass
        monkeypatch.setattr(polyhedral, "_dd_pass", lambda *args: passes.append(args) or dd_pass(*args))
        ToricData.from_dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -2)], (1, 1, -1))
        assert len(passes) == 1
        ToricData.from_cone([(0, 1), (2, -1)], (1, 1))
        assert len(passes) == 2


class TestNvol:
    def test_smooth_surface(self, c2):
        assert nvol(c2, (Fraction(1), Fraction(1))) == 4

    def test_a1_value(self, a1):
        assert nvol(a1, (Fraction(2), Fraction(0))) == 2

    def test_smooth_threefold(self, c3):
        assert nvol(c3, (Fraction(1), Fraction(1), Fraction(1))) == 27


class TestGradVol:
    def test_smooth_surface(self, c2):
        # vol = 1/(x y), so both partials at (1,1) equal -1
        assert grad_vol(c2, (Fraction(1), Fraction(1))) == (Fraction(-1), Fraction(-1))

    def test_a1_symbolic_partials(self, a1, rng):
        x, y, vol = a1_symbolic()
        gx = sympy.diff(vol, x)
        gy = sympy.diff(vol, y)
        assert grad_vol(a1, (Fraction(2), Fraction(0))) == (Fraction(-1, 2), Fraction(-1, 2))
        for _ in range(25):
            xi = random_interior_reeb(a1, rng)
            subs = {x: sympy.Rational(xi[0]), y: sympy.Rational(xi[1])}
            expected = (Fraction(str(gx.subs(subs))), Fraction(str(gy.subs(subs))))
            assert grad_vol(a1, xi) == expected

    def test_euler_radial(self, spp, rng):
        for _ in range(25):
            xi = random_interior_reeb(spp, rng)
            g = grad_vol(spp, xi)
            assert sum(a * b for a, b in zip(g, xi)) == -spp.n * vol_xi(spp, xi)


class TestHessianVol:
    def test_smooth_surface(self, c2):
        # second partials of 1/(x y) at (1, 1)
        assert hessian_vol(c2, (Fraction(1), Fraction(1))) == (
            (Fraction(2), Fraction(1)),
            (Fraction(1), Fraction(2)),
        )

    def test_a1_symbolic(self, a1, rng):
        x, y, vol = a1_symbolic()
        h_sym = [[sympy.diff(vol, a, b) for b in (x, y)] for a in (x, y)]
        for _ in range(10):
            xi = random_interior_reeb(a1, rng)
            subs = {x: sympy.Rational(xi[0]), y: sympy.Rational(xi[1])}
            expected = tuple(
                tuple(Fraction(str(entry.subs(subs))) for entry in row) for row in h_sym
            )
            assert hessian_vol(a1, xi) == expected

    def test_symmetry(self, spp, rng):
        for _ in range(20):
            xi = tuple(float(x) for x in random_interior_reeb(spp, rng))
            h = hessian_vol(spp, xi)
            for i in range(3):
                for j in range(3):
                    assert abs(h[i][j] - h[j][i]) < 1e-12

    def test_euler_quadratic(self, spp, rng):
        n = spp.n
        for _ in range(20):
            xi = random_interior_reeb(spp, rng)
            h = hessian_vol(spp, xi)
            quad = sum(xi[i] * h[i][j] * xi[j] for i in range(n) for j in range(n))
            assert quad == n * (n + 1) * vol_xi(spp, xi)


class TestMinimize:
    def test_smooth_threefold(self, c3):
        res = minimize(c3)
        assert res.converged
        assert max(abs(x - 1) for x in res.xi_star.xi) < 1e-12
        assert abs(res.nvol_star - 27) < 1e-10

    def test_suspended_pinch_point(self, spp):
        res = minimize(spp, tolerance=1e-9)
        assert res.converged
        assert max(abs(a - b) for a, b in zip(res.xi_star.xi, XI0_SPP)) < 1e-8
        assert abs(log_discrepancy(spp, res.xi_star) - 3) < 1e-12
        assert res.barycenter_residual < 1e-8

    def test_a1_direction(self, a1):
        res = minimize(a1)
        assert res.converged
        assert abs(res.nvol_star - 2) < 1e-10
        direction = tuple(x / res.xi_star.xi[0] for x in res.xi_star.xi)
        assert abs(direction[1]) < 1e-9  # closed-form optimum sits at s = y/x = 0
        assert is_rational_minimizer(a1, (Fraction(1), Fraction(0)))


class TestCertifyBarycenter:
    def test_smooth_points_residual_zero(self):
        for n in (2, 3, 4):
            t = ToricData.smooth_point(n)
            assert certify_barycenter(t, tuple(Fraction(1) for _ in range(n))) == 0

    def test_spp_at_minimizer(self, spp):
        assert certify_barycenter(spp, XI0_SPP) < 1e-8

    def test_a1_away_from_minimizer(self, a1):
        assert certify_barycenter(a1, (Fraction(1), Fraction(1))) > 0.05


class TestReebVector:
    def test_rational_flag(self):
        v = ReebVector.rational(["3/2", 1])
        assert v.exact and v.xi == (Fraction(3, 2), Fraction(1))

    def test_real_flag(self):
        v = ReebVector.real([1.5, 2.0])
        assert not v.exact and v.as_float() == (1.5, 2.0)
