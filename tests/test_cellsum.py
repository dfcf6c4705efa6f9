"""The cell-sum kernel's integer path for rational Reeb vectors, checked
against the generic path on Fractions: equal values of equal types.  Its
array path for float Reeb vectors is checked against the generic path on
floats, to a few ulps.  The first-order certificate Newton reports is
checked against the same reference at Newton's point."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from reebmin import (
    NotInReebCone,
    PolyhedralDivisor,
    ToricData,
    futaki_invariant,
    minimize,
    minimize_c1,
    normalized_direction,
    semistable_scan,
)
from reebmin import _cellsum, _newton
from reebmin import _exact as ex

from conftest import DK_U0, random_interior_rational

CONES = ((3, 6, 3), (3, 9, 5), (4, 7, 2), (4, 9, 2), (5, 7, 1), (5, 8, 2), (6, 7, 1), (6, 8, 1))
POLYGONS = (5, 7, 9)
TAILS = (
    [(1, 0), (0, 1)],
    [(1, 0), (1, 3)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    [(0, 1, 0), (2, 1, 0), (2, 1, 1), (0, 1, 1)],
)


def same(a, b):
    """== and the same type, entry by entry through nested tuples."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def assert_paths_agree(cs, xi):
    for order in (0, 1, 2):
        fast = cs.evaluate(xi, order)
        assert same(fast, cs._evaluate_generic(xi, order)), (xi, order)
        assert same(fast, cs._evaluate_rational(xi, order))


def assert_degree(data):
    """The kernel's degree is the data's n, and every cell is that long."""
    cs = data._cellsum
    assert cs.degree == data.n
    assert all(len(idx) == cs.degree for idx, _ in cs.cells)


def lattice_cone(rng, dim, k, box):
    """Rays (p, 1) over k distinct lattice points of [-box, box]^(dim-1)."""
    while True:
        pts = set()
        while len(pts) < k:
            pts.add(tuple(rng.randint(-box, box) for _ in range(dim - 1)))
        rays = [p + (1,) for p in sorted(pts)]
        if ex.rank(rays) == dim:
            return ToricData.from_dual_cone(rays, tuple(sum(col) for col in zip(*rays)))


def points(rng, cone):
    """Rational interior points: small, integral, and with denominators near 1e12."""
    yield random_interior_rational(cone, rng)
    for coeffs in ([rng.randint(1, 5) for _ in cone.rays],
                   [Fraction(rng.randint(1, 10**12), rng.randint(1, 10**12)) for _ in cone.rays]):
        yield tuple(sum(c * r[k] for c, r in zip(coeffs, cone.rays)) for k in range(cone.ambient_dim))


def seeded_divisor(rng, rays):
    """3-4 coefficients of 2-3 vertices with coordinates in (1/6) Z."""
    pts = []
    for p in range(rng.randint(3, 4)):
        verts = [tuple(Fraction(rng.randint(-4, 8), rng.choice((1, 2, 3))) for _ in rays[0])
                 for _ in range(rng.randint(2, 3))]
        pts.append((str(p), verts))
    return PolyhedralDivisor.from_vertex_lists(rays, pts)


class TestToric:
    def test_cones_dims_3_to_6(self):
        rng = random.Random(61)
        for dim, k, box in CONES:
            for _ in range(3):
                t = lattice_cone(rng, dim, k, box)
                assert_degree(t)
                for xi in points(rng, t.sigma):
                    assert_paths_agree(t._cellsum, xi)

    def test_polygons_with_1e4_coordinates(self):
        rng = random.Random(62)
        for k in POLYGONS:
            t = lattice_cone(rng, 3, k, 10**4)
            assert_degree(t)
            for _ in range(2):
                for xi in points(rng, t.sigma):
                    assert_paths_agree(t._cellsum, xi)


class TestComplexityOne:
    def test_weight_denominators_2_and_3(self):
        rng = random.Random(63)
        denominators = set()
        empty = 0
        for k in range(24):
            d = seeded_divisor(rng, TAILS[k % len(TAILS)])
            assert_degree(d)  # also for a table without cells
            cs = d._cellsum
            empty += not cs.cells
            denominators |= {Fraction(c, cs.den).denominator for _, c in cs.cells}
            for xi in points(rng, d.sigma):
                assert_paths_agree(cs, xi)
        assert any(e % 2 == 0 for e in denominators) and any(e % 3 == 0 for e in denominators)
        assert empty

    def test_weights_are_the_pairings_with_ell(self):
        # each (piece, ell) of the cell complex yields, in order, the cells
        # idx + (i,), one per ray u_i of the piece with <ell, u_i> != 0, whose
        # coefficient over den is |det| <ell, u_i>
        rng = random.Random(68)
        dropped = 0
        for k in range(24):
            d = seeded_divisor(rng, TAILS[k % len(TAILS)])
            cs = d._cellsum
            expected = []
            for piece, ell in d.cells().cells:
                idx = tuple(cs.rays.index(u) for u in piece.rays)
                for i, u in zip(idx, piece.rays):
                    weight = piece.det_abs * ex.dot(ell, u)
                    if weight:
                        expected.append((idx + (i,), weight))
                    dropped += not weight
            assert [(idx, Fraction(c, cs.den)) for idx, c in cs.cells] == expected
            assert all(type(c) is int and len(idx) == d.n for idx, c in cs.cells)
        assert dropped

    def test_dk_divisor(self, dk_divisor):
        rng = random.Random(64)
        assert_degree(dk_divisor)
        for _ in range(5):
            for xi in points(rng, dk_divisor.sigma):
                assert_paths_agree(dk_divisor._cellsum, xi)

    def test_rational_minimizer(self):
        # deg(u) = u_1 + u_2 on the orthant: the minimizer for u0 = (1, 1) is (1, 1) by symmetry
        d = PolyhedralDivisor.from_vertex_lists([(1, 0), (0, 1)], [("0", [(1, 1)])])
        assert d._cellsum.is_rational_minimizer((1, 1), (1, 1))
        assert d._cellsum.is_rational_minimizer((Fraction(1, 3), Fraction(1, 3)), (1, 1))
        assert not d._cellsum.is_rational_minimizer((1, 2), (1, 1))
        assert not d._cellsum.is_rational_minimizer((1, 1), (1, 2))


def test_rational_minimizer_with_a_zero_entry_in_u0():
    # vol = 2 / (x^2 - y^2) on the cone over (1, 1), (1, -1): grad vol is
    # (-4, 0) at (1, 0), a negative multiple of u0 = (1, 0), and has a nonzero
    # second entry wherever y != 0
    t = ToricData.from_dual_cone([(1, 1), (1, -1)], (1, 0))
    assert t._cellsum.is_rational_minimizer((1, 0), t.u0)
    assert t._cellsum.is_rational_minimizer((Fraction(2, 7), 0), (1, 0))
    assert not t._cellsum.is_rational_minimizer((2, 1), t.u0)
    assert not t._cellsum.is_rational_minimizer((1, 0), (0, 1))  # grad vol is orthogonal to (0, 1)
    # grad vol = (-8/9, -4/9) at (2, -1) pairs negatively with (0, 1), but its
    # first entry is nonzero where u0's is zero
    assert not t._cellsum.is_rational_minimizer((2, -1), (0, 1))
    assert not t._cellsum.is_rational_minimizer((1, 0), (-1, 0))  # a positive multiple


def test_cell_less_sum_returns_int_zeros():
    # without cells every path sums to zeros of xi's arithmetic, and the
    # certificate reads (0.0, 0.0, NaN, False) off them; deg < 0 on the whole
    # orthant, then deg = 0 on it
    for vertex in ((-1, -1), (0, 0)):
        d = PolyhedralDivisor.from_vertex_lists([(1, 0), (0, 1)], [("0", [vertex])])
        cs = d._cellsum
        assert not cs.cells
        assert_degree(d)
        for xi in ((1, 2), (Fraction(1, 3), Fraction(5, 2))):
            assert_paths_agree(cs, xi)
            assert type(cs.evaluate(xi)[0]) is Fraction
            assert not cs.is_rational_minimizer(xi, (1, 1))
            nvol, grad_norm, sine, minimizer = cs.certificate(xi, (1, 1))
            assert same((nvol, grad_norm, minimizer), (0.0, 0.0, False)) and math.isnan(sine)
            assert math.copysign(1.0, nvol) == math.copysign(1.0, grad_norm) == 1.0
        for xi in ((1.0, 2.0), (mpmath.mpf(1) / 3, mpmath.mpf(5) / 2)):
            zero = 0 * xi[0]
            for order in (0, 1, 2):
                out = cs.evaluate(xi, order)
                assert same(out, cs._evaluate_generic(xi, order))
                assert same(out, ((zero,), (zero, (zero,) * 2), (zero, (zero,) * 2, ((zero,) * 2,) * 2))[order])
                assert "-" not in repr(out)  # no -0.0 for a report to print as "-0"


@pytest.mark.parametrize("xi", [(-1, 2, 1), (Fraction(-3, 2), Fraction(1, 7), 1), (0, 0, 1), (1, -Fraction(1, 3), -2),
                                (-1.0, 2.0, 1.0), (-1.5, 0.125, 1.0), (0.0, 0.0, 1.0), (1.0, -1 / 3, -2.0),
                                (float("nan"), 1.0, 1.0)])
def test_first_nonpositive_ray_names_the_same_pairing(xi, spp):
    # rational points take the integer path, float points the array path
    cs = spp._cellsum
    with pytest.raises(NotInReebCone) as generic:
        cs._evaluate_generic(xi, 1)
    with pytest.raises(NotInReebCone) as rational:
        cs.evaluate(xi, 1)
    assert str(rational.value) == str(generic.value)


@pytest.mark.parametrize("xi", [(1, 1), (Fraction(1, 2), 1, 1, 1), (), (1.0, 1.0), (0.5, 1.0, 1.0, 1.0)])
def test_wrong_length_same_message(xi, dk_divisor):
    cs = dk_divisor._cellsum
    with pytest.raises(ValueError) as generic:
        cs._evaluate_generic(xi, 0)
    with pytest.raises(ValueError) as rational:
        cs.evaluate(xi, 0)
    assert str(rational.value) == str(generic.value)


ULPS = 16  # array path against generic path, in ulps of a result's largest entry


def assert_close_to_generic(cs, xi):
    """The array path's vol, grad and Hessian at float xi against the
    generic path's: the same nesting of Python floats, every entry within
    ULPS ulps of the largest entry of its vector or matrix, and an exactly
    symmetric Hessian."""
    for order in (0, 1, 2):
        fast, ref = cs.evaluate(xi, order), cs._evaluate_generic(xi, order)
        assert types(fast) == types(ref)
        for a, b in zip(fast, ref):
            a, b = np.array(a), np.array(b)
            tol = ULPS * math.ulp(float(np.abs(b).max()))
            assert float(np.abs(a - b).max()) <= tol, (xi, order, a, b)
    assert fast[2] == tuple(zip(*fast[2]))


def types(a):
    """The types of a's entries, nested as a is."""
    return tuple(types(x) for x in a) if isinstance(a, tuple) else type(a)


def float_points(rng, cone):
    """`points` rounded to float, which the kernel then takes as exact."""
    for xi in points(rng, cone):
        yield tuple(float(x) for x in xi)


class TestArrayPath:
    """The array path on float Reeb vectors against the generic path."""

    def test_toric_cones_dims_3_to_6(self):
        rng = random.Random(71)
        for dim, k, box in CONES:
            for _ in range(4):
                t = lattice_cone(rng, dim, k, box)
                for xi in float_points(rng, t.sigma):
                    assert_close_to_generic(t._cellsum, xi)

    def test_polygons_with_1e4_coordinates(self):
        rng = random.Random(72)
        for k in POLYGONS:
            for _ in range(3):
                t = lattice_cone(rng, 3, k, 10**4)
                for xi in float_points(rng, t.sigma):
                    assert_close_to_generic(t._cellsum, xi)

    def test_divisors(self, dk_divisor):
        rng = random.Random(73)
        checked = 0
        for k in range(32):
            d = seeded_divisor(rng, TAILS[k % len(TAILS)])
            checked += bool(d._cellsum.cells)
            for xi in float_points(rng, d.sigma):
                assert_close_to_generic(d._cellsum, xi)
        for xi in float_points(rng, dk_divisor.sigma):
            assert_close_to_generic(dk_divisor._cellsum, xi)
        assert checked >= 20

    def test_cell_less_sum_returns_int_zeros(self):
        cs = PolyhedralDivisor.from_vertex_lists([(1, 0), (0, 1)], [("0", [(-1, -1)])])._cellsum
        for order in (0, 1, 2):
            assert same(cs.evaluate((1.0, 2.0), order), cs._evaluate_generic((1.0, 2.0), order))

    def test_newton_and_float_scans_skip_the_generic_path(self, spp, dk_divisor, monkeypatch):
        calls = []
        generic = _cellsum.CellSum._evaluate_generic
        monkeypatch.setattr(_cellsum.CellSum, "_evaluate_generic",
                            lambda *args: calls.append(args) or generic(*args))
        res = minimize(spp)
        semistable_scan(spp, res.xi_star, list(spp.sigma.rays))
        res = minimize_c1(dk_divisor, DK_U0)
        semistable_scan(dk_divisor, res.xi_star, list(dk_divisor.sigma.rays), u0=DK_U0)
        assert calls == []
        spp._cellsum.evaluate((2.0, 2.0, 1), 0)  # mixed input still takes the generic path
        assert len(calls) == 1


def bitwise(a, b):
    """`same`, with floats compared by float.hex, through nested tuples."""
    if isinstance(a, tuple) or isinstance(b, tuple):
        return type(a) is type(b) and len(a) == len(b) and all(bitwise(x, y) for x, y in zip(a, b))
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    return same(a, b)


class TestScanFromOneGradient:
    def test_toric(self, spp):
        rng = random.Random(65)
        xf = minimize(spp).xi_star.xi
        etas = [(1, 0, 0), (0, 1, 0), (1, 1, -2), (Fraction(1, 3), 2, 1)]
        for xi in [xf, tuple(x * 1.5 for x in xf)] + [random_interior_rational(spp.sigma, rng) for _ in range(4)]:
            scan = semistable_scan(spp, xi, etas + [xi])
            for eta, (scan_eta, fut, _) in zip(etas + [xi], scan.entries):
                assert scan_eta == tuple(eta)
                assert bitwise(fut, futaki_invariant(spp, xi, eta))

    def test_complexity_one(self, dk_divisor):
        rng = random.Random(66)
        xf = (1.0, 1.0, 0.6861406616345072)
        etas = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0), (Fraction(1, 2), 1, 1)]
        for xi in [xf] + [random_interior_rational(dk_divisor.sigma, rng) for _ in range(4)]:
            scan = semistable_scan(dk_divisor, xi, etas, u0=DK_U0)
            for eta, (_, fut, _) in zip(etas, scan.entries):
                assert bitwise(fut, futaki_invariant(dk_divisor, xi, eta, u0=DK_U0))

    def test_one_kernel_evaluation_per_scan(self, spp, dk_divisor, monkeypatch):
        # a scan enters the kernel once: `_integer_sums` at a rational xi0
        # (no `evaluate`, so no Fraction of vol or grad vol), `evaluate` on
        # the array path at a float xi0
        for data, u0, xi in ((spp, None, (2, 2, 1)), (spp, None, minimize(spp).xi_star.xi),
                             (dk_divisor, DK_U0, (1, 1, Fraction(1, 3))),
                             (dk_divisor, DK_U0, (1.0, 1.0, 0.6861406616345072))):
            cs, calls = data._cellsum, []
            for name in ("_integer_sums", "evaluate", "_evaluate_array"):
                method = getattr(cs, name)
                monkeypatch.setattr(cs, name, lambda *args, name=name, method=method:
                                    calls.append(name) or method(*args))
            semistable_scan(data, xi, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.5, 1, 1)], u0=u0)
            monkeypatch.undo()
            rational = all(type(x) is not float for x in xi)
            assert calls == (["_integer_sums"] if rational else ["evaluate", "_evaluate_array"]), xi

    def test_entries_match_invariant_and_direction(self, spp, dk_divisor):
        # each entry has the value, type and float bits that
        # `futaki_invariant` and `normalized_direction` form on their own
        rng = random.Random(67)
        for data, u0, xf in ((spp, spp.u0, minimize(spp).xi_star.xi),
                             (dk_divisor, ex.fracvec(DK_U0), (1.0, 1.0, 0.6861406616345072))):
            etas = list(data.sigma.rays) + [(Fraction(1, 3), 2, 1), xf, (0.5, 1, Fraction(1, 2))]
            for xi in (xf, random_interior_rational(data.sigma, rng)):
                scan = semistable_scan(data, xi, etas, u0=u0)
                for eta, (_, fut, direction) in zip(etas, scan.entries):
                    assert bitwise(fut, futaki_invariant(data, xi, eta, u0=u0))
                    assert bitwise(direction, normalized_direction(u0, xi, eta))


def reference_certificate(cs, u0, n, xi):
    """(nvol, |grad vol projected off u0|, sine between -grad vol and u0) at
    a rational xi, from the generic path on Fractions: |proj|^2 = gg - gu^2 /
    uu and sine^2 = 1 - gu^2 / (gg uu), each rounded to float before its
    square root."""
    vol, g = cs._evaluate_generic(xi, 1)
    uu = sum(Fraction(x) ** 2 for x in u0)
    gu = sum(x * y for x, y in zip(g, u0))
    gg = sum(x * x for x in g)
    a = sum(x * y for x, y in zip(u0, xi))
    sine_sq = 1 - gu * gu / (gg * uu)
    return float(a**n * vol), math.sqrt(gg - gu * gu / uu), 0.0 if sine_sq == 0 else math.sqrt(sine_sq)


class TestNewtonCertificate:
    """nvol_star, grad_norm and barycenter_residual are exact at the float
    point Newton returns, from one integer-path call on Fractions after
    Newton."""

    def check(self, monkeypatch, cs, u0, n, run):
        calls, newton_points = [], []
        integer_sums, newton = cs._integer_sums, _newton._newton

        def spy(*args):
            out = newton(*args)
            newton_points.append((out[0], len(calls)))
            return out

        monkeypatch.setattr(cs, "_integer_sums", lambda *args: calls.append(args) or integer_sums(*args))
        monkeypatch.setattr(_newton, "_newton", spy)
        res = run()
        monkeypatch.undo()
        [(xi_hat, seen)] = newton_points
        [(xq, order)] = calls[seen:]  # one call after Newton, on Fractions
        assert order == 1 and all(type(x) is Fraction for x in xq)
        assert xq == tuple(Fraction(float(x)) for x in xi_hat)
        nvol, grad_norm, sine = reference_certificate(cs, u0, n, xq)
        assert (res.nvol_star, res.grad_norm, res.barycenter_residual) == (nvol, grad_norm, sine)
        return res

    def test_seeded_toric_cones(self, monkeypatch):
        rng = random.Random(67)
        for dim, k, box in CONES[:6]:
            t = lattice_cone(rng, dim, k, box)
            self.check(monkeypatch, t._cellsum, t.u0, t.n, lambda: minimize(t))
        for k in POLYGONS:
            t = lattice_cone(rng, 3, k, 10**4)
            self.check(monkeypatch, t._cellsum, t.u0, t.n, lambda: minimize(t))

    def test_seeded_divisors(self, monkeypatch):
        rng = random.Random(68)
        checked = empty = 0
        for k in range(24):
            d = seeded_divisor(rng, TAILS[k % len(TAILS)])
            u0 = tuple(sum(col) for col in zip(*d.sigma_dual.rays))
            if not d._cellsum.cells:
                # vol = 0 and grad vol = 0: Newton stops at its start, the
                # sum of sigma's rays rescaled to <u0, xi> = n
                res = minimize_c1(d, u0)
                assert (res.stop_reason, res.iterations, res.converged) == ("zero_volume", 0, False)
                assert same((res.nvol_star, res.grad_norm), (0.0, 0.0)) and math.isnan(res.barycenter_residual)
                total = [sum(col) for col in zip(*d.sigma.rays)]
                scale = d.n / sum(x * y for x, y in zip(u0, total))
                assert all(math.isclose(x, scale * t, rel_tol=1e-15) for x, t in zip(res.xi_star.xi, total))
                empty += 1
                continue
            self.check(monkeypatch, d._cellsum, ex.fracvec(u0), d.n, lambda: minimize_c1(d, u0))
            checked += 1
        assert checked >= 16 and empty >= 4

    def test_dk_divisor(self, monkeypatch, dk_divisor):
        res = self.check(monkeypatch, dk_divisor._cellsum, ex.fracvec(DK_U0), dk_divisor.n,
                         lambda: minimize_c1(dk_divisor, DK_U0))
        assert res.converged


@pytest.mark.parametrize("module", [_cellsum, _newton])
def test_certificate_modules_import_no_mpmath(module):
    # Newton's certificate is exact on the kernel's integer path; no
    # multiprecision re-evaluation is left in the kernel or the minimizer
    imported = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "mpmath" not in imported


def term_by_term_first_order(cs, xi, u0):
    """(vol, grad, proj, sine) as plain arithmetic on the order-1 values, in
    xi's own arithmetic: proj is grad vol projected off u0, and sine the sine
    between -grad vol and u0.  The reference for `CellSum.sine` and, at
    rational xi, for the certificate's integer form."""
    vol, g = cs.evaluate(xi, 1)
    uu = sum(x * x for x in u0)
    gu = sum(x * y for x, y in zip(g, u0))
    c = gu / uu
    proj = tuple(x - c * y for x, y in zip(g, u0))
    gg = sum(x * x for x in g)
    if gg == 0:
        return vol, g, proj, float("nan")
    ratio = sum(x * x for x in proj) / gg
    if isinstance(ratio, Fraction):
        return vol, g, proj, 0.0 if ratio == 0 else math.sqrt(float(ratio))
    return vol, g, proj, math.sqrt(max(float(ratio), 0.0))


def term_by_term_scan(data, u0, xi, etas):
    """(Fut, normalized eta) per eta in Fractions, every A(v) a sum of u0_k
    v_k on the Fraction u0: the reference for the scan's exact entries."""
    vol, grad = data._cellsum.evaluate(xi, 1)
    a = sum(x * y for x, y in zip(u0, xi))
    inv = 1 / (a * a)
    out = []
    for eta in etas:
        a_eta = sum(x * y for x, y in zip(u0, eta))
        d_vol = sum(gk * (-ek) for gk, ek in zip(grad, eta))
        fut = data.n * a ** (data.n - 1) * (-a_eta) * vol + a**data.n * d_vol
        out.append((tuple(eta), fut, tuple((a * e - a_eta * x) * inv for e, x in zip(eta, xi))))
    return tuple(out)


def one_gradient_scan(data, u0, xi, etas):
    """(Fut, normalized eta) per eta from grad F = n A^(n-1) vol u0 + A^n
    grad vol, formed once in xi's arithmetic (u0 in floats at an all-float
    xi; at a rational xi exact, each entry rounded once for a float eta),
    then Fut = -<grad F, eta>: the reference for the scan's float entries."""
    vol, grad = data._cellsum.evaluate(xi, 1)
    if all(isinstance(x, float) for x in xi):
        u0 = tuple(map(float, u0))
    n, a = data.n, sum(x * y for x, y in zip(u0, xi))
    lead, inv = n * a ** (n - 1) * vol, 1 / (a * a)
    grad_f = [lead * u + a**n * g for u, g in zip(u0, grad)]
    if _cellsum._is_rational(xi):
        grad_f = [float(g) for g in grad_f]
    out = []
    for eta in etas:
        a_eta = sum(x * y for x, y in zip(u0, eta))
        fut = sum(-g * e for g, e in zip(grad_f, eta))
        out.append((tuple(eta), fut, tuple((a * e - a_eta * x) * inv for e, x in zip(eta, xi))))
    return tuple(out)


class TestSameBitsAsTermByTerm:
    """The integer first-order certificate and the scan's pairings give the
    values, the types and the float bits of term-by-term arithmetic."""

    @staticmethod
    def cases():
        """(data, u0, float minimizer, rational points): seeded toric cones,
        1e4-coordinate polygons and seeded divisors with cells."""
        rng = random.Random(69)
        cones = [lattice_cone(rng, dim, k, box) for dim, k, box in CONES[:6]]
        cones += [lattice_cone(rng, 3, k, 10**4) for k in POLYGONS]
        for t in cones:
            yield t, t.u0, minimize(t).xi_star.xi, list(points(rng, t.sigma))
        for k in range(8):
            d = seeded_divisor(rng, TAILS[k % len(TAILS)])
            if d._cellsum.cells:
                u0 = ex.fracvec(tuple(sum(col) for col in zip(*d.sigma_dual.rays)))
                yield d, u0, minimize_c1(d, u0).xi_star.xi, list(points(rng, d.sigma))

    def test_first_order(self):
        for data, u0, xf, rational in self.cases():
            cs = data._cellsum
            for xi in [tuple(Fraction(x) for x in xf), xf] + rational:
                _, _, proj, sine = term_by_term_first_order(cs, xi, u0)
                assert bitwise(cs.sine(xi, u0), sine), xi
                if xi is not xf:  # rational: |proj| is the certificate's grad_norm
                    norm = math.sqrt(sum(x * x for x in proj))
                    assert bitwise(cs.certificate(xi, u0)[1], norm), xi

    def test_scan_and_invariants(self):
        # exact entries (rational xi and eta) as term-by-term Fractions,
        # float entries bit for bit as grad F formed once
        for data, u0, xf, rational in self.cases():
            mixed = (Fraction(xf[0]),) + tuple(xf[1:])
            etas = list(data.sigma.rays) + [(Fraction(1, 3),) + (2,) * (len(xf) - 1), xf, rational[0]]
            for xi in [xf, tuple(1.5 * x for x in xf), mixed] + rational:
                scan = semistable_scan(data, xi, etas, u0=u0)
                exact, real = term_by_term_scan(data, u0, xi, etas), one_gradient_scan(data, u0, xi, etas)
                for entry, eta, a, b in zip(scan.entries, etas, exact, real):
                    both = _cellsum._is_rational(xi) and _cellsum._is_rational(eta)
                    assert bitwise(entry, a if both else b), (xi, eta)
                for eta, fut, _ in scan.entries:
                    assert bitwise(futaki_invariant(data, xi, eta, u0=u0), fut)

    def test_float_entries_within_16_ulps(self):
        # every float Fut within 16 ulps of s(eta) of the exact Fut at the
        # rationals the floats store, at the float minimizer and off it.
        # s(eta) = sum_k |eta_k| (n A^(n-1) vol |u0_k| + A^n max |grad vol|)
        # is the size of the terms summed: n A^n vol |eta| / |xi| is not,
        # since the two terms of grad F can be |u0| |xi| / A times larger
        # than grad F (about 1e4 on the 1e4-coordinate polygons)
        for data, u0, xf, rational in self.cases():
            etas = list(data.sigma.rays) + [(Fraction(1, 3),) + (2,) * (len(xf) - 1), xf, rational[0]]
            for xi in (xf, tuple(float(x) for x in rational[0])):
                xq = ex.fracvec(Fraction(x) for x in xi)
                vol, g = data._cellsum.evaluate(xq, 1)
                n, a = data.n, sum(x * y for x, y in zip(u0, xq))
                lead, top = n * a ** (n - 1) * vol, a**n * max(abs(x) for x in g)
                for eta, fut, _ in semistable_scan(data, xi, etas, u0=u0).entries:
                    assert type(fut) is float
                    eq = ex.fracvec(Fraction(e) for e in eta)
                    exact = futaki_invariant(data, xq, eq, u0=u0)
                    size = sum(abs(e) * (abs(lead * u) + top) for e, u in zip(eq, u0))
                    assert abs(Fraction(fut) - exact) <= 16 * Fraction(math.ulp(float(size))), (xi, eta)
