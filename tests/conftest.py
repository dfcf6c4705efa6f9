import random
from fractions import Fraction

import pytest

from reebmin import PolyhedralDivisor, ToricData
from reebmin import _exact as ex


SPP_DUAL_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -2)]
SPP_U0 = (1, 1, -1)
DK_SIGMA_RAYS = [(0, 1, 0), (2, 1, 0), (2, 1, 1), (0, 1, 1)]
DK_U0 = (0, 3, -1)
DK_F = ((1, 0, 0), (-1, 2, 0), (0, 1, 0), (0, 0, 1), (0, 2, -2))
DK_P = ((-1, -1, 0, 2, 1), (-1, -1, 2, 0, 0))
DK_S = ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0))


@pytest.fixture(scope="session")
def c2():
    return ToricData.smooth_point(2)


@pytest.fixture(scope="session")
def c3():
    return ToricData.smooth_point(3)


@pytest.fixture(scope="session")
def a1():
    return ToricData.from_cone([(0, 1), (2, -1)], [1, 1])


@pytest.fixture(scope="session")
def spp():
    return ToricData.from_dual_cone(SPP_DUAL_RAYS, SPP_U0)


@pytest.fixture(scope="session")
def dk_divisor():
    return PolyhedralDivisor.from_vertex_lists(
        DK_SIGMA_RAYS,
        [
            ("0", [(0, 0, 0), (0, 0, Fraction(1, 2))]),
            ("1", [(0, Fraction(1, 2), 0)]),
            ("inf", [(0, 0, 0), (1, 0, 0)]),
        ],
    )


def random_interior_rational(cone, rng, max_num=9):
    """Random rational point in the interior: positive combination of all rays."""
    point = [Fraction(0)] * cone.ambient_dim
    for ray in cone.rays:
        c = Fraction(rng.randint(1, max_num), rng.randint(1, max_num))
        point = [p + c * r for p, r in zip(point, ray)]
    return tuple(point)


def random_interior_reeb(t, rng, max_num=9):
    """Random rational Reeb vector: interior point of sigma."""
    return random_interior_rational(t.sigma, rng, max_num)


@pytest.fixture
def rng():
    return random.Random(20250810)


def assert_incidence_recorded(cone):
    """cone and its dual hold each other as `_dual`, and the masks each
    holds equal its incidence with the other recomputed by dot products."""
    dual = cone._dual
    assert dual._dual is cone

    def incidence(rays, others):
        return tuple(sum(1 << j for j, y in enumerate(others) if ex.dot(x, y) == 0) for x in rays)

    assert cone._tight == incidence(cone.rays, dual.rays)
    assert dual._tight == incidence(dual.rays, cone.rays)
