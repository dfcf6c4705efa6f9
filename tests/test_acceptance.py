"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines.
Tolerances are fixed here, not configurable.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from reebmin import (
    BinomialHypersurface,
    CountSeries,
    DowngradeData,
    Enclosure,
    PolyhedralDivisor,
    ToricData,
    VCone,
    WeightMatrix,
    binomial_to_toric,
    bundled_spec,
    count_cxone,
    count_toric,
    dirichlet_signed,
    downgrade_coefficient,
    downgrade_sigma,
    futaki_invariant,
    grad_vol,
    hessian_vol,
    hypersurface_u0,
    is_rational_minimizer,
    log_discrepancy,
    minimize,
    minimize_c1,
    normalized_direction,
    nvol,
    semistable_scan,
    verify_cone,
    verify_signed,
    vol_estimate,
    vol_xi,
    vol_xi_c1,
    cone_rational_approx,
)
from reebmin import _exact as ex

from conftest import (
    DK_F,
    DK_P,
    DK_S,
    DK_SIGMA_RAYS,
    DK_U0,
    SPP_DUAL_RAYS,
    SPP_U0,
    random_interior_reeb,
)

SQRT3 = math.sqrt(3)
SQRT33 = math.sqrt(33)
XI0_SPP = ((3 + SQRT3) / 2, (3 + SQRT3) / 2, SQRT3)
ALPHA = (-3 + SQRT33) / 4
BETA = (7 - SQRT33) / 2


def _load(name):
    with open(bundled_spec(name)) as fh:
        return json.load(fh)


def _toric_from_doc(doc):
    rays = [[Fraction(str(x)) for x in r] for r in doc["sigma_dual_rays"]]
    return ToricData.from_dual_cone(rays, [Fraction(str(x)) for x in doc["u0"]])


def _divisor_from_doc(doc):
    pts = [
        (p["label"], [[Fraction(str(x)) for x in v] for v in p["vertices"]])
        for p in doc["points"]
    ]
    return PolyhedralDivisor.from_vertex_lists(
        [[int(x) for x in r] for r in doc["tail_rays"]], pts
    )


def test_criterion_1_suspended_pinch_point_minimizer():
    t0 = time.perf_counter()
    t = _toric_from_doc(_load("spp.json"))
    res = minimize(t, tolerance=1e-9)
    elapsed = time.perf_counter() - t0
    err = max(abs(a - b) for a, b in zip(res.xi_star.xi, XI0_SPP))
    assert res.converged
    assert abs(log_discrepancy(t, res.xi_star) - 3) < 1e-12
    assert err <= 1e-8
    assert res.barycenter_residual <= 1e-8
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 1 PASS: spp minimizer err {err:.2e}, "
        f"residual {res.barycenter_residual:.2e}, {elapsed:.2f}s"
    )


def test_criterion_2_downgrade_exact_data():
    t0 = time.perf_counter()
    doc = _load("dk_downgrade.json")
    data = DowngradeData(WeightMatrix(doc["F"]), doc["P"], doc["s"])
    sigma, sigma_dual = downgrade_sigma(data)
    assert sigma.is_equivalent(VCone(DK_SIGMA_RAYS))
    assert sigma_dual.is_equivalent(VCone([(1, 0, 0), (0, 0, 1), (-1, 2, 0), (0, 1, -1)]))
    d0 = downgrade_coefficient(data, (1, 0))
    d1 = downgrade_coefficient(data, (0, 1))
    d2 = downgrade_coefficient(data, (-1, -1))
    assert set(d0.compact_vertices) == {(0, 0, 0), (0, 0, Fraction(1, 2))}
    # the fiber over (0,1) is {x>=0, y>=0, z>=0, -x+2y-1>=0, 2y-2z-1>=0},
    # whose only vertex is (0,1/2,0): the origin violates -x+2y-1 >= 0
    assert set(d1.compact_vertices) == {(0, Fraction(1, 2), 0)}
    assert set(d2.compact_vertices) == {(0, 0, 0), (1, 0, 0)}
    for poly in (d0, d1, d2):
        assert poly.tail.is_equivalent(sigma)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: downgrade data exact, {elapsed:.2f}s")


def test_criterion_3_complexity_one_minimizer():
    doc = _load("dk_4dim.json")
    d = _divisor_from_doc(doc)
    res = minimize_c1(d, DK_U0, tolerance=1e-7)
    assert res.converged
    direction = tuple(x / res.xi_star.xi[0] for x in res.xi_star.xi)
    expected = (1.0, 1.0, ALPHA)
    err = max(abs(a - b) for a, b in zip(direction, expected))
    assert err <= 1e-10
    weights = [sum(a * b for a, b in zip(row, res.xi_star.xi)) for row in DK_F]
    scale = weights[0]
    target = (1.0, 1.0, 1.0, ALPHA, BETA)
    werr = max(abs(w / scale - t) for w, t in zip(weights, target))
    assert werr <= 1e-10
    print(f"\nACCEPTANCE 3 PASS: direction err {err:.2e}, ambient weight err {werr:.2e}")


def test_criterion_4_smooth_points_exact():
    lines = []
    for n in range(2, 6):
        t0 = time.perf_counter()
        t = ToricData.smooth_point(n)
        res = minimize(t)
        assert res.converged
        assert max(abs(x - 1) for x in res.xi_star.xi) < 1e-9
        snapped = tuple(
            Fraction(x).limit_denominator(10**6) for x in res.xi_star.xi
        )
        assert is_rational_minimizer(t, snapped)
        exact = nvol(t, snapped)
        assert exact == Fraction(n) ** n  # exact rational equality
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        lines.append(f"n={n}: {exact}={n}^{n} in {elapsed:.2f}s")
    print("\nACCEPTANCE 4 PASS: " + "; ".join(lines))


def test_criterion_5_a1_pipeline():
    t = binomial_to_toric(BinomialHypersurface((1, 1, 0), (0, 0, 2)))
    res = minimize(t)
    assert res.converged
    assert abs(res.nvol_star - 2) <= 1e-10
    # invariant form of the closed-form s=0 optimum: the minimizer pairs
    # equally with the two extreme weight-cone rays (Z_2 symmetry)
    extreme = t.sigma_dual.extreme_rays()
    pairings = [sum(a * b for a, b in zip(u, res.xi_star.xi)) for u in extreme]
    assert abs(pairings[0] - pairings[1]) < 1e-9
    # same optimum in the standard presentation: direction (1, 0)
    std = ToricData.from_dual_cone([(1, 0), (1, 2)], [1, 1])
    res_std = minimize(std)
    assert abs(res_std.nvol_star - 2) <= 1e-10
    assert abs(res_std.xi_star.xi[1] / res_std.xi_star.xi[0]) < 1e-9
    assert is_rational_minimizer(std, (Fraction(1), Fraction(0)))
    print(f"\nACCEPTANCE 5 PASS: pipeline nvol {res.nvol_star!r}, direction s=0 certified")


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    lines = []
    # the counts are pinned: bench/workloads.py stores the same values
    for name, pinned in (("c_n.json", 20100), ("a1.json", 10000), ("spp.json", 524828)):
        doc = _load(name)
        t = _toric_from_doc(doc)
        xi = tuple(float(x) for x in doc["xi"])
        closed = float(vol_xi(t, xi))
        count = count_toric(t, xi, 200)
        assert count == pinned, f"{name}: count {count}"
        est = math.factorial(t.n) * count / 200**t.n
        rel = abs(est - closed) / closed
        assert rel <= 0.05, f"{name}: {rel}"
        lines.append(f"{name} {rel:.1%}")
    doc = _load("dk_4dim.json")
    d = _divisor_from_doc(doc)
    xi = tuple(float(x) for x in doc["xi"])
    closed = float(vol_xi_c1(d, xi))
    budget = int(doc["budget"])
    series = CountSeries.from_counts(d.n, [(m, count_cxone(d, xi, m, budget)) for m in [100, 200, 300]])
    assert [c for _, c in series.truncations] == [20257327, 316789998, 1591500867]
    est, _diag = vol_estimate(series)
    rel = abs(est - closed) / closed
    assert rel <= 0.02, f"dk_4dim: {rel}"
    lines.append(f"dk_4dim.json {rel:.2%} (extrapolated)")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 6 PASS: {'; '.join(lines)}; total {elapsed:.1f}s")


def test_criterion_7_property_suites():
    rng = random.Random(7)
    cones = [
        ToricData.smooth_point(2),
        ToricData.from_cone([(0, 1), (2, -1)], [1, 1]),
        ToricData.from_dual_cone(SPP_DUAL_RAYS, SPP_U0),
    ]

    def cases(count=102):
        per = count // len(cones) + 1
        for t in cones:
            for _ in range(per):
                yield t, random_interior_reeb(t, rng)

    checked = {}

    # rescaling invariance of nvol at 1e-12 relative (float path)
    k = 0
    for t, xi in cases():
        xf = tuple(map(float, xi))
        base = nvol(t, xf)
        for lam in (1 / 3, 2.0, 17.0):
            assert abs(nvol(t, tuple(lam * x for x in xf)) - base) <= 1e-12 * abs(base)
        k += 1
    checked["rescaling"] = k

    # midpoint strict convexity on the slice (exact rational comparisons)
    k = 0
    for t, xi1 in cases():
        xi2 = random_interior_reeb(t, rng)
        a1, a2 = log_discrepancy(t, xi1), log_discrepancy(t, xi2)
        s1 = tuple(x / a1 for x in xi1)
        s2 = tuple(x / a2 for x in xi2)
        mid = tuple((a + b) / 2 for a, b in zip(s1, s2))
        lhs = vol_xi(t, mid)
        rhs = (vol_xi(t, s1) + vol_xi(t, s2)) / 2
        if s1 == s2:
            assert lhs == rhs
        else:
            assert lhs < rhs
        k += 1
    checked["midpoint"] = k

    # analytic gradient vs Richardson finite differences at 1e-6 relative
    k = 0
    for t, xi in cases():
        xf = np.asarray([float(x) for x in xi])
        g = np.asarray([float(v) for v in grad_vol(t, tuple(xf))])
        fd = np.zeros_like(xf)
        for i in range(len(xf)):
            h = 1e-5 * (1 + abs(xf[i]))
            e = np.zeros_like(xf)
            e[i] = h
            f = lambda p: float(vol_xi(t, tuple(p)))
            d1 = (f(xf + e) - f(xf - e)) / (2 * h)
            d2 = (f(xf + e / 2) - f(xf - e / 2)) / h
            fd[i] = (4 * d2 - d1) / 3
        assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(g))))
        k += 1
    checked["gradient_fd"] = k

    # Hessian symmetric positive definite (Cholesky)
    k = 0
    for t, xi in cases():
        h = np.asarray([[float(v) for v in row] for row in hessian_vol(t, xi)])
        assert np.max(np.abs(h - h.T)) <= 1e-12 * max(1.0, float(np.max(np.abs(h))))
        np.linalg.cholesky(h)
        k += 1
    checked["hessian_spd"] = k

    # Euler identities at 1e-10 relative
    k = 0
    for t, xi in cases():
        xf = tuple(map(float, xi))
        vol = vol_xi(t, xf)
        g = grad_vol(t, xf)
        assert abs(sum(a * b for a, b in zip(g, xf)) + t.n * vol) <= 1e-10 * abs(t.n * vol)
        h = hessian_vol(t, xf)
        quad = sum(xf[i] * h[i][j] * xf[j] for i in range(t.n) for j in range(t.n))
        target = t.n * (t.n + 1) * vol
        assert abs(quad - target) <= 1e-10 * abs(target)
        k += 1
    checked["euler"] = k

    # unimodular invariance, exact
    k = 0
    for t, xi in cases():
        n = t.n
        u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(5):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for col in range(n):
                u[i][col] += c * u[j][col]
        uinv_t = ex.transpose(ex.adjugate([[int(x) for x in row] for row in u]))  # det u = 1
        t2 = ToricData.from_dual_cone(
            [ex.mat_vec(uinv_t, r) for r in t.sigma_dual.rays],
            ex.mat_vec(uinv_t, t.u0),
        )
        assert nvol(t2, ex.mat_vec(tuple(map(tuple, u)), xi)) == nvol(t, xi)
        k += 1
    checked["unimodular"] = k

    # Futaki linearity in eta and radial vanishing at 1e-10
    k = 0
    for t, xi in cases():
        eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(t.n))
        base = futaki_invariant(t, xi, eta)
        for lam in (Fraction(3), Fraction(-2)):
            got = futaki_invariant(t, xi, tuple(lam * e for e in eta))
            assert got == lam * base
            if base != 0:
                assert abs(float(got) - float(lam * base)) <= 1e-10 * abs(float(base))
        assert futaki_invariant(t, xi, xi) == 0
        k += 1
    checked["futaki_linear"] = k

    # renormalization identity at 1e-8 relative
    k = 0
    for t, xi in cases():
        eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(t.n))
        a = log_discrepancy(t, xi)
        that = normalized_direction(t.u0, xi, eta)
        lhs = float(futaki_invariant(t, xi, eta))
        rhs = float(
            sum(g * (-d) for g, d in zip(grad_vol(t, tuple(x / a for x in xi)), that))
        )
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
        k += 1
    checked["renormalization"] = k

    assert all(v >= 100 for v in checked.values())
    summary = ", ".join(f"{name} x{v}" for name, v in checked.items())
    print(f"\nACCEPTANCE 7 PASS: {summary}")


def test_criterion_8_futaki_first_order_and_scan():
    minimizers = []
    for t in (
        ToricData.smooth_point(3),
        ToricData.from_dual_cone(SPP_DUAL_RAYS, SPP_U0),
        ToricData.from_cone([(0, 1), (2, -1)], [1, 1]),
        binomial_to_toric(BinomialHypersurface((1, 1, 0, 0), (0, 0, 1, 1))),
    ):
        res = minimize(t)
        worst = 0.0
        for j in range(t.n):
            eta = tuple(int(i == j) for i in range(t.n))
            worst = max(worst, abs(futaki_invariant(t, res.xi_star, eta)))
        assert worst <= 1e-6
        minimizers.append(worst)
    d = PolyhedralDivisor.from_vertex_lists(
        DK_SIGMA_RAYS,
        [
            ("0", [(0, 0, 0), (0, 0, Fraction(1, 2))]),
            ("1", [(0, Fraction(1, 2), 0)]),
            ("inf", [(0, 0, 0), (1, 0, 0)]),
        ],
    )
    res = minimize_c1(d, DK_U0, tolerance=1e-7)
    worst_c1 = max(
        abs(futaki_invariant(d, res.xi_star, tuple(int(i == j) for i in range(3)), u0=DK_U0))
        for j in range(3)
    )
    assert worst_c1 <= 1e-6

    # deliberately non-minimizing scan: with vhat = (x+y)^2/(x y), the
    # derivative of (3-eps)^2/(2-eps) at eps = 0 is exactly -3/4
    c2 = ToricData.smooth_point(2)
    report = semistable_scan(c2, (Fraction(2), Fraction(1)), [(1, 0)])
    assert not report.all_nonnegative
    assert abs(report.min_fut - (-0.75)) <= 1e-8
    print(
        f"\nACCEPTANCE 8 PASS: first-order max {max(minimizers + [worst_c1]):.1e}; "
        f"non-minimizer scan value {report.min_fut}"
    )


def test_criterion_9_approx_certificates():
    sq2 = Enclosure.from_decimal("1.414213562373095048801688724209698", radius=Fraction(1, 10**30))
    sa = dirichlet_signed([sq2], [1], Fraction(1, 2), 10**6)
    assert sa.q <= 10
    assert verify_signed(sa)
    more = dirichlet_signed(
        [sq2, Enclosure.from_decimal("1.732050807568877293527446341505872", radius=Fraction(1, 10**30))],
        [1, -1],
        Fraction(1, 3),
        10**6,
    )
    assert verify_signed(more)
    tail = [
        Enclosure.from_decimal("0.732050807568877293527446341505872", radius=Fraction(1, 10**30)),
        Enclosure.from_decimal("0.535898384862245412945107316988384", radius=Fraction(1, 10**30)),
    ]
    ca = cone_rational_approx(tail, Fraction(1, 10), 10**6)
    assert verify_cone(ca)
    rational = cone_rational_approx([Fraction(1, 3), Fraction(1, 2)], Fraction(1, 100))
    assert verify_cone(rational)
    print(f"\nACCEPTANCE 9 PASS: sqrt2 q={sa.q} <= 10; all certificates re-verified")
