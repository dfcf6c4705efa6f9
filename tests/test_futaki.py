import math
from fractions import Fraction

import pytest
import sympy

from reebmin import (
    ToricData,
    futaki_invariant,
    minimize,
    minimize_c1,
    normalized_direction,
    semistable_scan,
)

from conftest import DK_U0


def c2_symbolic_futaki():
    """Independent derivation: vhat(x, y) = (x+y)^2 / (x y) for the smooth
    surface point, differentiated along (2, 1) - eps (1, 0)."""
    eps = sympy.symbols("eps")
    x, y = 2 - eps, 1
    vhat = (x + y) ** 2 / (x * y)
    return sympy.Rational(sympy.diff(vhat, eps).subs(eps, 0))


class TestFutakiInvariant:
    def test_radial_direction_vanishes(self, spp, rng):
        from conftest import random_interior_reeb

        for _ in range(20):
            xi = random_interior_reeb(spp, rng)
            assert futaki_invariant(spp, xi, xi) == 0

    def test_first_order_condition_at_minimizers(self, c3, spp):
        for t in (c3, spp):
            res = minimize(t)
            for j in range(t.n):
                eta = tuple(int(i == j) for i in range(t.n))
                assert abs(futaki_invariant(t, res.xi_star, eta)) <= 1e-6

    def test_c2_non_minimizer_symbolic_value(self, c2):
        # the derivative of (3-eps)^2 / (2-eps) at 0; the normalization is
        # pinned by vhat = n^n at the smooth-point minimizer
        expected = c2_symbolic_futaki()
        assert expected == Fraction(-3, 4)
        got = futaki_invariant(c2, (Fraction(2), Fraction(1)), (Fraction(1), Fraction(0)))
        assert got == expected

    def test_matches_forward_difference_slope(self, spp, rng):
        from reebmin import nvol
        from conftest import random_interior_reeb

        for _ in range(10):
            xi = tuple(float(x) for x in random_interior_reeb(spp, rng))
            eta = tuple(rng.uniform(-0.3, 0.3) for _ in range(3))
            analytic = float(futaki_invariant(spp, xi, eta))

            def f(s):
                return float(nvol(spp, tuple(x - s * e for x, e in zip(xi, eta))))

            h = 1e-5
            d1 = (f(h) - f(0)) / h
            d2 = (f(h / 2) - f(0)) / (h / 2)
            slope = 2 * d2 - d1  # Richardson-extrapolated forward difference
            assert abs(slope - analytic) <= 1e-6 * max(1.0, abs(analytic))


class TestLengthChecks:
    # zip used to truncate eta, or pad a short one with zeros: on the smooth
    # surface at xi = (2, 1) both etas below gave -3/4, the value for (1, 0)
    @pytest.mark.parametrize("eta", [(1, 0, 9), (1,)])
    def test_toric_eta_of_wrong_length(self, c2, eta):
        xi = (Fraction(2), Fraction(1))
        for f in (lambda: futaki_invariant(c2, xi, eta), lambda: normalized_direction(c2.u0, xi, eta),
                  lambda: semistable_scan(c2, xi, [eta])):
            with pytest.raises(ValueError, match=f"eta has {len(eta)} entries .* dimension 2"):
                f()

    @pytest.mark.parametrize("eta", [(1, 0, 0, 9), (1, 0)])
    def test_complexity_one_eta_of_wrong_length(self, dk_divisor, eta):
        xi = (1, 1, Fraction(1, 3))
        for f in (lambda: futaki_invariant(dk_divisor, xi, eta, u0=DK_U0),
                  lambda: semistable_scan(dk_divisor, xi, [eta], u0=DK_U0)):
            with pytest.raises(ValueError, match=f"eta has {len(eta)} entries .* dimension 3"):
                f()

    def test_xi_of_wrong_length_without_directions(self):
        with pytest.raises(ValueError, match="Reeb vector has 3 entries .* dimension 2"):
            semistable_scan(ToricData.smooth_point(2), (1, 2, 3), [])

    def test_every_eta_is_checked_before_the_kernel_runs(self, c2):
        # xi0 lies outside the Reeb cone, which the kernel would report first
        with pytest.raises(ValueError, match="eta has 3 entries .* dimension 2"):
            semistable_scan(c2, (1, -2), [(1, 0), (1, 0, 0)])

    def test_normalized_direction_xi_of_wrong_length(self):
        with pytest.raises(ValueError, match="Reeb vector has 3 entries .* dimension 2"):
            normalized_direction((1, 1), (1, 1, 5), (1, 0))


class TestToricU0:
    # a u0 given with toric data used to be dropped: this call returned 0
    def test_a_different_u0_is_rejected(self):
        t = ToricData.smooth_point(3)
        for f in (lambda: futaki_invariant(t, (1, 1, 1), (1, 0, 0), u0=(5, -7, 2)),
                  lambda: semistable_scan(t, (1, 1, 1), [(1, 0, 0)], u0=(5, -7, 2))):
            with pytest.raises(ValueError, match="differs from the toric data's u0"):
                f()

    def test_its_own_u0_is_accepted(self, c2):
        xi, eta = (Fraction(2), Fraction(1)), (1, 0)
        for u0 in (c2.u0, (1, 1)):
            assert futaki_invariant(c2, xi, eta, u0=u0) == futaki_invariant(c2, xi, eta) == Fraction(-3, 4)
            assert semistable_scan(c2, xi, [eta], u0=u0) == semistable_scan(c2, xi, [eta])


class TestNormalizedDirection:
    def test_eta_equals_xi(self):
        out = normalized_direction((1, 1), (Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))
        assert out == (0, 0)

    def test_worked_example(self):
        out = normalized_direction((1, 1), (Fraction(1), Fraction(1)), (Fraction(1), Fraction(0)))
        assert out == (Fraction(1, 4), Fraction(-1, 4))

    def test_slice_membership_random(self, rng):
        for _ in range(100):
            u0 = tuple(Fraction(rng.randint(1, 9)) for _ in range(3))
            xi = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3))
            eta = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
            out = normalized_direction(u0, xi, eta)
            assert sum(a * b for a, b in zip(u0, out)) == 0


class TestSemistableScan:
    def test_spp_minimizer_scan(self, spp):
        res = minimize(spp)
        etas = []
        for j in range(3):
            e = [0, 0, 0]
            e[j] = 1
            etas.append(tuple(e))
            etas.append(tuple(-x for x in e))
        report = semistable_scan(spp, res.xi_star, etas, tolerance=1e-6)
        assert report.all_nonnegative
        assert max(abs(f) for _, f, _ in report.entries) <= 1e-6

    def test_c2_non_minimizer_fails_scan(self, c2):
        report = semistable_scan(c2, (Fraction(2), Fraction(1)), [(1, 0)])
        assert not report.all_nonnegative
        assert report.min_fut == -0.75

    def test_empty_scan_vacuous(self, spp):
        res = minimize(spp)
        report = semistable_scan(spp, res.xi_star, [])
        assert report.all_nonnegative
        assert report.min_fut == float("inf")

    @pytest.mark.parametrize("etas", [[(1, 0, 0)], []])
    def test_complexity_one_scan_without_u0(self, dk_divisor, etas):
        # the scan used to fail in ex.fracvec(None) with a TypeError
        with pytest.raises(ValueError, match="u0 is required"):
            semistable_scan(dk_divisor, (1, 1, Fraction(1, 3)), etas)

    def test_dk_minimizer_scan(self, dk_divisor):
        res = minimize_c1(dk_divisor, DK_U0, tolerance=1e-7)
        etas = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
        report = semistable_scan(dk_divisor, res.xi_star, etas, u0=DK_U0)
        assert report.tolerance == 1e-9  # one default for both kinds of data
        assert report.all_nonnegative
        assert max(abs(f) for _, f, _ in report.entries) <= 1e-6
