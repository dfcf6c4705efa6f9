"""Newton's stopping rules (the gradient test, the rounding floor of f,
max_iter) and its one step rule, -Q (Q^T g / |lambda|).

The literals are copies of seeded inputs on which Newton used to spin at the
rounding floor of f until max_iter, or to stop far from the minimizer.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from reebmin import PolyhedralDivisor, ToricData, _newton, minimize, minimize_c1

from conftest import SPP_DUAL_RAYS, SPP_U0

# dual rays of a pentagon cone; Newton reached the floor by iteration 6 and
# then ran to max_iter with converged=False
STALL_RAYS = ((17, 0, 1), (6, 10, 1), (-9, 7, 1), (-9, -7, 1), (4, -10, 1))
STALL_U0 = (0, 0, 1)
STALL_NVOL = 688.75610875359844404437  # mpmath root of the gradient, 200 bits

# a lattice hexagon with coordinates near 1e4; f ~ 1e-12, so |grad| cannot
# reach an absolute tolerance, and Newton ran to max_iter
POLYGON_RAYS = ((-9943, -7083, 1), (-3932, 3013, 1), (-3471, 7804, 1),
                (-2258, -3526, 1), (559, -4755, 1), (7268, 4145, 1))
POLYGON_U0 = (-11777, -402, 6)

# a lattice hexagon whose projected Hessian has condition number above 1e12 at
# the start; a steepest-descent step taken there found no decrease in 60
# halvings, and Newton stopped at a sine of 0.9975
ILL_RAYS = ((-8431, 7683, 1), (2560, 2568, 1), (4508, 9247, 1),
            (5404, 3258, 1), (8430, -9283, 1), (9945, 9980, 1))
ILL_U0 = (22416, 23453, 6)

# a seeded proper divisor over the dk tail; 200 iterations at a predicted
# decrease of 1.2e-19 against ulp(f) = 9.1e-13
DIVISOR_TAIL = ((0, 1, 0), (2, 1, 0), (2, 1, 1), (0, 1, 1))
DIVISOR_U0 = (0, 3, 0)
DIVISOR_POINTS = [
    ("0", [(F(1, 12), F(1, 3), F(-1, 3)), (F(5, 12), F(1, 3), F(19, 48))]),
    ("1", [(F(23, 24), F(4, 3), F(2, 3)), (F(37, 24), F(4, 3), F(13, 48))]),
    ("2", [(F(5, 24), F(1, 3), F(1, 24)), (F(5, 12), F(1, 3), F(1, 12))]),
    ("3", [(F(35, 24), F(4, 3), F(5, 12)), (F(3, 2), F(4, 3), F(5, 16))]),
]


@pytest.fixture(scope="module")
def stall():
    return ToricData.from_dual_cone(STALL_RAYS, STALL_U0)


class TestStopReason:
    def test_gradient(self):
        res = minimize(ToricData.from_dual_cone(SPP_DUAL_RAYS, SPP_U0), tolerance=1e-8)
        assert res.stop_reason == "gradient"
        assert res.converged

    def test_rounding_floor(self, stall):
        res = minimize(stall, tolerance=1e-9)
        assert res.stop_reason == "rounding_floor"
        assert res.converged
        assert res.iterations <= 10
        assert abs(res.nvol_star / STALL_NVOL - 1) <= 1e-12

    def test_max_iter(self, stall):
        res = minimize(stall, max_iter=1)
        assert res.stop_reason == "max_iter"
        assert res.iterations == 1
        assert not res.converged


class TestBadInputs:
    """A negative max_iter, or a tolerance that is NaN, negative or infinite,
    raises ValueError before Newton runs: they used to report -5 iterations,
    converged=True at the start point (tolerance inf) or a spurious stall."""

    @pytest.mark.parametrize("tolerance", [float("nan"), -1.0, float("inf"), -float("inf")])
    def test_tolerance(self, tolerance):
        spp = ToricData.from_dual_cone(SPP_DUAL_RAYS, SPP_U0)
        d = PolyhedralDivisor.from_vertex_lists(DIVISOR_TAIL, DIVISOR_POINTS)
        for run in (lambda: minimize(spp, tolerance=tolerance), lambda: minimize_c1(d, DIVISOR_U0, tolerance=tolerance)):
            with pytest.raises(ValueError, match="^tolerance must be a finite number >= 0"):
                run()

    def test_negative_max_iter(self):
        spp = ToricData.from_dual_cone(SPP_DUAL_RAYS, SPP_U0)
        d = PolyhedralDivisor.from_vertex_lists(DIVISOR_TAIL, DIVISOR_POINTS)
        for run in (lambda: minimize(spp, max_iter=-5), lambda: minimize_c1(d, DIVISOR_U0, max_iter=-1)):
            with pytest.raises(ValueError, match="^max_iter must be >= 0, got -"):
                run()

    def test_zero_tolerance_and_max_iter_are_accepted(self):
        spp = ToricData.from_dual_cone(SPP_DUAL_RAYS, SPP_U0)
        res = minimize(spp, max_iter=0)
        assert (res.iterations, res.stop_reason, res.converged) == (0, "max_iter", False)
        assert minimize(spp, tolerance=0.0).stop_reason in _newton.NEWTON_STOPS


class TestRoundingFloor:
    def test_large_polygon_cone(self):
        t = ToricData.from_dual_cone(POLYGON_RAYS, POLYGON_U0)
        res = minimize(t, tolerance=1e-9)
        assert res.stop_reason == "rounding_floor"
        assert res.iterations <= 15
        assert res.barycenter_residual <= 1e-12

    def test_seeded_divisor(self):
        d = PolyhedralDivisor.from_vertex_lists(DIVISOR_TAIL, DIVISOR_POINTS)
        res = minimize_c1(d, DIVISOR_U0)
        assert res.converged
        assert res.stop_reason in ("gradient", "rounding_floor")


def test_ill_conditioned_polygon(monkeypatch):
    # the eigen-step reaches the minimizer's ray, and f, read from Newton's
    # order-2 kernel calls, never increases on the way
    t = ToricData.from_dual_cone(ILL_RAYS, ILL_U0)
    fs = []
    evaluate = t._cellsum._evaluate_array  # Newton's kernel calls

    def recording(xi, order=0):
        out = evaluate(xi, order)
        if order == 2:
            fs.append(float(out[0]))
        return out

    monkeypatch.setattr(t._cellsum, "_evaluate_array", recording)
    res = minimize(t, tolerance=1e-9)
    assert res.stop_reason in _newton.NEWTON_STOPS
    assert res.barycenter_residual <= 1e-12
    assert len(fs) > 1
    assert all(b <= a for a, b in zip(fs, fs[1:])), fs


@pytest.mark.parametrize(
    "hp, gp",
    [
        # eigenvalues 3 and -1; -hp^-1 gp = (1/3, -2/3) points uphill
        (np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([1.0, 0.0])),
        (np.diag([1e10, 1e-10]), np.array([1.0, 1.0])),  # condition number 1e20
    ],
    ids=["indefinite", "condition_1e20"],
)
def test_step_descends(hp, gp):
    assert gp @ _newton._newton_step(hp, gp) < 0
