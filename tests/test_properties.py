"""Randomized invariant suites for the volume functions (100+ cases each)."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from reebmin import (
    ToricData,
    futaki_invariant,
    grad_vol,
    hessian_vol,
    log_discrepancy,
    minimize,
    normalized_direction,
    nvol,
    vol_xi,
)

from conftest import SPP_DUAL_RAYS, SPP_U0, random_interior_reeb

CASES = 100


def _cones():
    return [
        ToricData.smooth_point(2),
        ToricData.from_cone([(0, 1), (2, -1)], [1, 1]),
        ToricData.from_dual_cone(SPP_DUAL_RAYS, SPP_U0),
    ]


def _spread(rng, cones, cases=CASES):
    per = cases // len(cones) + 1
    for t in cones:
        for _ in range(per):
            yield t, random_interior_reeb(t, rng)


def test_rescaling_invariance_exact(rng):
    for t, xi in _spread(rng, _cones()):
        base = nvol(t, xi)
        for lam in (Fraction(1, 3), Fraction(2), Fraction(17)):
            assert nvol(t, tuple(lam * x for x in xi)) == base


def test_rescaling_invariance_float(rng):
    for t, xi in _spread(rng, _cones()):
        xf = tuple(float(x) for x in xi)
        base = nvol(t, xf)
        for lam in (1 / 3, 2.0, 17.0):
            scaled = nvol(t, tuple(lam * x for x in xf))
            assert abs(scaled - base) <= 1e-12 * abs(base)


def test_homogeneity_exact(rng):
    for t, xi in _spread(rng, _cones()):
        for lam in (Fraction(1, 3), Fraction(2), Fraction(17)):
            assert vol_xi(t, tuple(lam * x for x in xi)) == lam ** (-t.n) * vol_xi(t, xi)


def test_gradient_matches_finite_differences(rng):
    for t, xi in _spread(rng, _cones()):
        xf = np.asarray([float(x) for x in xi])
        g = np.asarray([float(v) for v in grad_vol(t, tuple(xf))])
        fd = np.zeros_like(xf)
        for i in range(len(xf)):
            h = 1e-5 * (1 + abs(xf[i]))
            e = np.zeros_like(xf)
            e[i] = h

            def f(p):
                return float(vol_xi(t, tuple(p)))

            d1 = (f(xf + e) - f(xf - e)) / (2 * h)
            d2 = (f(xf + e / 2) - f(xf - e / 2)) / h
            fd[i] = (4 * d2 - d1) / 3
        assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, np.max(np.abs(g)))


def test_hessian_positive_definite(rng):
    for t, xi in _spread(rng, _cones()):
        h = np.asarray([[float(v) for v in row] for row in hessian_vol(t, xi)])
        np.linalg.cholesky(h)  # raises LinAlgError if not positive definite


def test_euler_identities(rng):
    for t, xi in _spread(rng, _cones()):
        xf = tuple(float(x) for x in xi)
        vol = vol_xi(t, xf)
        g = grad_vol(t, xf)
        radial = sum(a * b for a, b in zip(g, xf))
        assert abs(radial + t.n * vol) <= 1e-10 * abs(t.n * vol)
        h = hessian_vol(t, xf)
        quad = sum(xf[i] * h[i][j] * xf[j] for i in range(t.n) for j in range(t.n))
        expected = t.n * (t.n + 1) * vol
        assert abs(quad - expected) <= 1e-10 * abs(expected)


def test_midpoint_strict_convexity_on_slice(rng):
    for t, xi1 in _spread(rng, _cones()):
        xi2 = random_interior_reeb(t, rng)
        a1 = log_discrepancy(t, xi1)
        a2 = log_discrepancy(t, xi2)
        s1 = tuple(x / a1 for x in xi1)
        s2 = tuple(x / a2 for x in xi2)
        mid = tuple((a + b) / 2 for a, b in zip(s1, s2))
        lhs = vol_xi(t, mid)
        rhs = (vol_xi(t, s1) + vol_xi(t, s2)) / 2
        proportional = all(
            s1[i] * s2[j] == s1[j] * s2[i] for i in range(t.n) for j in range(t.n)
        )
        if proportional:
            assert lhs == rhs
        else:
            assert lhs < rhs


def _random_unimodular(n, rng):
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(row) for row in m)


def test_unimodular_invariance_exact(rng):
    from reebmin import _exact as ex

    for t, xi in _spread(rng, _cones(), 34):
        n = t.n
        u = _random_unimodular(n, rng)
        uinv_t = ex.transpose(ex.adjugate([[int(x) for x in row] for row in u]))  # det u = 1
        sigma_dual_rays = [ex.mat_vec(uinv_t, r) for r in t.sigma_dual.rays]
        u0_new = ex.mat_vec(uinv_t, t.u0)
        t2 = ToricData.from_dual_cone(sigma_dual_rays, u0_new)
        xi_new = ex.mat_vec(u, xi)
        assert nvol(t2, xi_new) == nvol(t, xi)


def test_futaki_linearity_and_radial(rng):
    for t, xi in _spread(rng, _cones()):
        eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(t.n))
        base = futaki_invariant(t, xi, eta)
        for lam in (Fraction(3), Fraction(-2), Fraction(1, 4)):
            assert futaki_invariant(t, xi, tuple(lam * e for e in eta)) == lam * base
        assert futaki_invariant(t, xi, xi) == 0


def test_futaki_renormalization_identity(rng):
    # derivative at xi0 equals <grad vol at the slice point, -normalized eta>
    for t, xi in _spread(rng, _cones()):
        eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(t.n))
        a = log_discrepancy(t, xi)
        xi_hat = tuple(x / a for x in xi)
        that = normalized_direction(t.u0, xi, eta)
        lhs = futaki_invariant(t, xi, eta)
        rhs = sum(g * (-d) for g, d in zip(grad_vol(t, xi_hat), that))
        assert lhs == rhs  # identity is exact in rational arithmetic
        assert abs(float(lhs) - float(rhs)) <= 1e-8 * max(1.0, abs(float(lhs)))


def test_normalized_direction_lands_on_slice(rng):
    for t, xi in _spread(rng, _cones()):
        eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(t.n))
        that = normalized_direction(t.u0, xi, eta)
        assert sum(a * b for a, b in zip(t.u0, that)) == 0


def test_minimizer_direction_ignores_u0_scale(spp):
    res1 = minimize(spp)
    scaled = ToricData(spp.sigma_dual, tuple(3 * x for x in spp.u0))
    res2 = minimize(scaled)
    d1 = np.asarray(res1.xi_star.xi) / res1.xi_star.xi[0]
    d2 = np.asarray(res2.xi_star.xi) / res2.xi_star.xi[0]
    assert np.max(np.abs(d1 - d2)) < 1e-9


def test_midpoint_convexity_along_slice_paths(spp, rng):
    # The convex function behind the ray sign test is vol restricted to the
    # affine path through the normalized points, not vhat in the raw ray
    # parameter (that one is a monotone reparametrization of it).
    checked = 0
    while checked < 50:
        xi0 = random_interior_reeb(spp, rng)
        eta = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3))
        a0 = log_discrepancy(spp, xi0)
        xi_hat = tuple(x / a0 for x in xi0)
        step = normalized_direction(spp.u0, xi0, eta)
        if all(x == 0 for x in step):
            continue
        try:
            f0 = vol_xi(spp, xi_hat)
            p1 = tuple(x - Fraction(1, 20) * d for x, d in zip(xi_hat, step))
            p2 = tuple(x - Fraction(1, 10) * d for x, d in zip(xi_hat, step))
            fm = vol_xi(spp, p1)
            f1 = vol_xi(spp, p2)
        except Exception:
            continue
        assert fm < (f0 + f1) / 2  # strict: the path directions are never radial
        checked += 1


def test_ray_sign_contract_at_minimizer(spp, rng):
    # Nonnegative derivative in every direction at the minimizer forces
    # vhat(xi* - s eta) >= vhat(xi*) along each ray inside the cone.
    res = minimize(spp)
    xi_star = res.xi_star.xi
    base = nvol(spp, xi_star)
    for _ in range(50):
        eta = tuple(rng.uniform(-1, 1) for _ in range(3))
        for s in (0.01, 0.1, 0.3):
            point = tuple(x - s * e for x, e in zip(xi_star, eta))
            try:
                val = nvol(spp, point)
            except Exception:
                continue
            assert val >= base - 1e-9 * abs(base)
