import itertools
import math
import random
from fractions import Fraction

import pytest

from reebmin import (
    NotInReebCone,
    NotStrictlyConvex,
    PolyhedralDivisor,
    UnboundedCoefficient,
    VCone,
    deg_D,
    futaki_invariant,
    minimize_c1,
    nvol_c1,
    vol_xi_c1,
)
from reebmin import _exact as ex
from reebmin import cxonevol
from reebmin.cxonevol import CellComplex, _integer_vertices, build_cells
from reebmin.polyhedral import Polyhedron, dual_cone, triangulate_cone

from conftest import DK_SIGMA_RAYS, DK_U0, assert_incidence_recorded, random_interior_rational

ALPHA = (-3 + math.sqrt(33)) / 4  # third coordinate of the known minimizer direction


def orthant_divisor(r, vertex):
    rays = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    return PolyhedralDivisor.from_vertex_lists(rays, [("0", [vertex])])


class TestPolyhedralDivisor:
    def test_half_plane_tail_not_strictly_convex(self):
        with pytest.raises(NotStrictlyConvex):
            PolyhedralDivisor.from_vertex_lists([(1, 0), (-1, 0), (0, 1)], [("0", [(0, 0)])])


class TestDegD:
    def test_dk_mixed_weight(self, dk_divisor):
        # Delta0 gives -1/2, Delta1 gives +1/2 (its single vertex is (0,1/2,0)),
        # Delta2 gives 0; the admissibility weight sums to zero.
        assert deg_D(dk_divisor, (0, 1, -1)) == 0

    def test_zero_weight(self, dk_divisor):
        assert deg_D(dk_divisor, (0, 0, 0)) == 0

    def test_dk_interior_ray(self, dk_divisor):
        assert deg_D(dk_divisor, (0, 1, 0)) == Fraction(1, 2)

    def test_unbounded_outside_weight_cone(self, dk_divisor):
        with pytest.raises(UnboundedCoefficient):
            deg_D(dk_divisor, (0, -1, 0))


class TestBuildCells:
    def test_trivial_divisor_single_zero_cell(self):
        rays = [(1, 0), (0, 1)]
        d = PolyhedralDivisor.from_vertex_lists(
            rays, [("0", [(0, 0)]), ("1", [(0, 0)]), ("inf", [(0, 0)])]
        )
        cells = d.cells().cells
        assert len(cells) == 1
        piece, ell = cells[0]
        assert ell == (0, 0)
        assert vol_xi_c1(d, (Fraction(1), Fraction(1))) == 0

    def test_single_translate_one_cell(self):
        d = orthant_divisor(3, (1, 0, 0))
        cells = d.cells().cells
        assert len(cells) == 1
        assert cells[0][1] == (1, 0, 0)

    def test_dk_cell_functionals_match_deg(self, dk_divisor, rng):
        for piece, ell in dk_divisor.cells().cells:
            cone = VCone(piece.rays)
            for _ in range(250):
                u = random_interior_rational(cone, rng)
                assert deg_D(dk_divisor, u) == ex.dot(ex.fracvec(ell), ex.fracvec(u))

    def test_cells_cover_weight_cone_volume(self, dk_divisor, rng):
        # total truncated euclidean volume of cells equals that of the weight
        # cone wherever deg >= 0 covers it (true for this divisor)
        pairsets = dk_divisor.cells().cells
        from reebmin import triangulate_cone

        full = triangulate_cone(dk_divisor.sigma_dual)
        for _ in range(20):
            xi = random_interior_rational(dk_divisor.sigma, rng)

            def tri_vol(pieces):
                total = Fraction(0)
                for p in pieces:
                    prod = Fraction(1)
                    for u in p.rays:
                        prod *= ex.dot(ex.fracvec(u), ex.fracvec(xi))
                    total += Fraction(p.det_abs) / prod
                return total

            assert tri_vol([p for p, _ in pairsets]) == tri_vol(full)


def product_loop_cells(d):
    """The cell construction that build_cells replaced: one region pass per
    element of the product of vertex choices.  Also returns the choices whose
    region is full dimensional before the cut {deg >= 0}."""
    vertex_lists = [poly.compact_vertices for _, poly in d.points]
    cells = []
    full_before_cut = []
    for choice in itertools.product(*[range(len(vl)) for vl in vertex_lists]):
        normals = [tuple(map(Fraction, ray)) for ray in d.sigma.rays]
        ell = tuple(Fraction(0) for _ in range(d.r))
        for vl, ci in zip(vertex_lists, choice):
            ell = ex.vec_add(ell, vl[ci])
            normals += [ex.vec_sub(w, vl[ci]) for j, w in enumerate(vl) if j != ci]
        nonzero = [a for a in normals if not ex.is_zero_vec(a)]
        if dual_cone(VCone(nonzero, d.r)).is_full_dimensional():
            full_before_cut.append(choice)
        region = dual_cone(VCone(nonzero + ([ell] if any(ell) else []), d.r))
        if region.is_full_dimensional():
            cells += [(piece, ell) for piece in triangulate_cone(region)]
    return CellComplex(cells=tuple(cells)), full_before_cut


TAILS = (
    [(1, 0), (0, 1)],
    [(1, 0), (1, 3)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    DK_SIGMA_RAYS,
)


def seeded_divisor(rng, rays):
    points = []
    for p in range(rng.randint(3, 4)):
        verts = [tuple(Fraction(rng.randint(-2, 4), rng.choice((1, 2))) for _ in rays[0])
                 for _ in range(rng.randint(2, 3))]
        points.append((str(p), verts))
    return PolyhedralDivisor.from_vertex_lists(rays, points)


def lattice_divisor(rng, rays):
    """2-3 coefficients of 2-3 vertices in {-1, 0, 1}^r: differences repeat
    across coefficients, and the chosen vertices often sum to 0."""
    points = []
    for p in range(rng.randint(2, 3)):
        verts = {tuple(rng.randint(-1, 1) for _ in rays[0]) for _ in range(rng.randint(2, 3))}
        points.append((str(p), sorted(verts)))
    return PolyhedralDivisor.from_vertex_lists(rays, points)


class TestCellsFromMinkowskiVertices:
    def test_equal_to_product_loop(self):
        rng = random.Random(1993)
        cut_to_lower_dimension = with_cells = 0
        for k in range(56):
            d = seeded_divisor(rng, TAILS[k % len(TAILS)])
            cells, full_before_cut = product_loop_cells(d)
            assert build_cells(d) == cells
            # distinct vertices of the sum have distinct functionals ell
            cut_to_lower_dimension += len({ell for _, ell in cells.cells}) < len(full_before_cut)
            with_cells += bool(cells.cells)
        assert cut_to_lower_dimension >= 10 and with_cells >= 20

    def test_repeated_normals_and_zero_ell(self, monkeypatch):
        # a difference w - v that repeats an earlier one, or an ell along a
        # sigma ray, enters the walk once and a zero ell adds no normal, as in
        # a fresh pass per choice (a difference is never along a sigma ray:
        # then one of v, w would lie in the other plus sigma); each region
        # triangulated is paired with its distinct primitive normals
        regions = []
        triangulate = cxonevol.triangulate_cone

        def spy(region):
            regions.append(region)
            return triangulate(region)

        monkeypatch.setattr(cxonevol, "triangulate_cone", spy)
        rng = random.Random(1953)
        seen = {"earlier": 0, "ell_on_sigma": 0, "zero_ell": 0}
        for k in range(100):
            d = lattice_divisor(rng, TAILS[k % len(TAILS)])
            cells, full_before_cut = product_loop_cells(d)
            del regions[:]
            assert build_cells(d) == cells
            for region in regions:
                assert VCone(region._dual.rays, d.r).rays == region._dual.rays
                assert_incidence_recorded(region)
            vertex_lists = [p.compact_vertices for _, p in d.points]
            for choice in full_before_cut:
                chosen = [vl[ci] for vl, ci in zip(vertex_lists, choice)]
                diffs = [ex.primitive(ex.vec_sub(w, v)) for vl, v in zip(vertex_lists, chosen) for w in vl if w != v]
                ell = tuple(map(sum, zip(*chosen)))
                seen["earlier"] += len(set(diffs)) < len(diffs)
                seen["ell_on_sigma"] += any(ell) and ex.primitive(ell) in d.sigma.rays
                seen["zero_ell"] += not any(ell)
        assert min(seen.values()) >= 5, seen

    def test_sigma_paired_with_redundant_dual(self):
        # dual_cone of a cone with a redundant ray pairs sigma with that
        # cone: the walk must start from its extreme rays only.  On the
        # quadrant with dual (1, 0), (1, 1), (0, 1), the normal (1, -2) cuts
        # out the cell cone((1, 0), (2, 1))
        sigma = dual_cone(VCone([(1, 0), (1, 1), (0, 1)]))
        d = PolyhedralDivisor(sigma, [("0", Polyhedron([(0, 0), (1, -2)], sigma))])
        assert (1, 1) in sigma._dual.rays
        assert [p.rays for p, _ in build_cells(d).cells] == [((1, 0), (2, 1))]
        rng = random.Random(1978)
        with_cells = 0
        for k in range(40):
            rays = TAILS[k % len(TAILS)]
            redundant = [ex.vec_add(a, b) for a, b in zip(rays, rays[1:])]
            sigma = dual_cone(VCone(list(rays) + redundant))
            points = seeded_divisor(rng, sigma.rays).points
            d = PolyhedralDivisor(sigma, [(label, Polyhedron(p.compact_vertices, sigma)) for label, p in points])
            assert len(d.sigma_dual.extreme_rays()) < len(d.sigma_dual.rays)
            cells = build_cells(d)
            assert cells == product_loop_cells(d)[0]
            with_cells += bool(cells.cells)
        assert with_cells >= 20

    def test_one_vertex_coefficients_only_translate(self):
        d = PolyhedralDivisor.from_vertex_lists(
            DK_SIGMA_RAYS, [("0", [(0, 1, 0)]), ("1", [(1, 0, 0)]), ("2", [(0, 0, 1)])]
        )
        vertex_lists, den = _integer_vertices([p.compact_vertices for _, p in d.points])
        assert vertex_lists == [[(0, 1, 0)], [(1, 0, 0)], [(0, 0, 1)]] and den == 1
        assert build_cells(d) == product_loop_cells(d)[0]


class TestVolC1:
    def test_trivial_divisor_zero(self):
        rays = [(1, 0), (0, 1)]
        d = PolyhedralDivisor.from_vertex_lists(rays, [("p", [(0, 0)])])
        assert vol_xi_c1(d, (Fraction(2), Fraction(3))) == 0

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_orthant_translate_closed_form(self, r):
        # deg(u) = u_1 over the orthant: n! * integral over the unit simplex
        # of u_1 equals 1 at xi = (1, ..., 1)
        d = orthant_divisor(r, tuple(int(i == 0) for i in range(r)))
        xi = tuple(Fraction(1) for _ in range(r))
        assert vol_xi_c1(d, xi) == 1

    def test_exact_rational_value_dk(self, dk_divisor):
        xi = (Fraction(1), Fraction(1), Fraction(2, 3))
        val = vol_xi_c1(dk_divisor, xi)
        assert isinstance(val, Fraction)
        # cross-check against a float evaluation
        assert abs(float(val) - float(vol_xi_c1(dk_divisor, tuple(map(float, xi))))) < 1e-12

    def test_not_in_reeb_cone(self, dk_divisor):
        with pytest.raises(NotInReebCone):
            vol_xi_c1(dk_divisor, (Fraction(1), Fraction(0), Fraction(0)))

    @pytest.mark.parametrize("xi", [(1, 1, Fraction(1, 3), 7), (1, 1)])
    def test_wrong_length_names_both_lengths(self, dk_divisor, xi):
        # zip used to truncate (1, 1, 1/3, 7) to (1, 1, 1/3) and return 9/2
        with pytest.raises(ValueError, match=f"has {len(xi)} entries .* dimension 3"):
            vol_xi_c1(dk_divisor, xi)
        with pytest.raises(ValueError, match=f"has {len(xi)} entries .* dimension 3"):
            futaki_invariant(dk_divisor, xi, (1, 0, 0), u0=DK_U0)
        with pytest.raises(ValueError, match=f"has {len(xi)} entries .* dimension 3"):
            nvol_c1(dk_divisor, DK_U0, xi)


class TestExactDerivativesC1:
    def test_euler_identities_in_fractions(self, dk_divisor, rng):
        # vol is homogeneous of degree -n: <grad, xi> = -n vol, H xi = -(n+1) grad
        n = dk_divisor.n
        for _ in range(25):
            xi = random_interior_rational(dk_divisor.sigma, rng)
            vol, grad, hess = dk_divisor._cellsum.evaluate(xi, 2)
            assert all(isinstance(x, Fraction) for x in (vol,) + grad + sum(hess, ()))
            assert vol == vol_xi_c1(dk_divisor, xi)
            assert ex.dot(grad, xi) == -n * vol
            for row, g in zip(hess, grad):
                assert ex.dot(row, xi) == -(n + 1) * g
            assert all(hess[k][l] == hess[l][k] for k in range(3) for l in range(3))

    def test_derivatives_match_exact_difference_quotients(self, dk_divisor, rng):
        h = Fraction(1, 10**6)
        for _ in range(5):
            xi = random_interior_rational(dk_divisor.sigma, rng)
            _, grad, hess = dk_divisor._cellsum.evaluate(xi, 2)
            for j in range(3):
                up = tuple(x + h * (k == j) for k, x in enumerate(xi))
                down = tuple(x - h * (k == j) for k, x in enumerate(xi))
                quotient = (vol_xi_c1(dk_divisor, up) - vol_xi_c1(dk_divisor, down)) / (2 * h)
                assert abs(quotient - grad[j]) <= Fraction(1, 10**8) * (1 + abs(grad[j]))
                g_up = dk_divisor._cellsum.evaluate(up, 1)[1]
                g_down = dk_divisor._cellsum.evaluate(down, 1)[1]
                for k in range(3):
                    quotient = (g_up[k] - g_down[k]) / (2 * h)
                    assert abs(quotient - hess[k][j]) <= Fraction(1, 10**8) * (1 + abs(hess[k][j]))

    def test_interval_arithmetic_encloses_exact_values(self, dk_divisor):
        import mpmath

        xi = (Fraction(1), Fraction(1), Fraction(2, 3))
        vol, grad, hess = dk_divisor._cellsum.evaluate(xi, 2)
        box = tuple(mpmath.iv.mpf(x.numerator) / x.denominator for x in xi)
        ivol, igrad, ihess = dk_divisor._cellsum.evaluate(box, 2)
        exact = (vol,) + grad + sum(hess, ())
        enclosed = (ivol,) + igrad + sum(ihess, ())
        for x, iv in zip(exact, enclosed):
            assert float(mpmath.mpf(iv.a)) <= x <= float(mpmath.mpf(iv.b))

    def test_futaki_invariant_exact(self, dk_divisor, rng):
        for _ in range(10):
            xi = random_interior_rational(dk_divisor.sigma, rng)
            eta = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3))
            fut = futaki_invariant(dk_divisor, xi, eta, u0=DK_U0)
            assert isinstance(fut, Fraction)
            assert futaki_invariant(dk_divisor, xi, tuple(3 * e for e in eta), u0=DK_U0) == 3 * fut
            assert futaki_invariant(dk_divisor, xi, xi, u0=DK_U0) == 0


class TestNvolC1:
    def test_rescaling_invariance(self, dk_divisor, rng):
        for _ in range(100):
            xi = random_interior_rational(dk_divisor.sigma, rng)
            base = nvol_c1(dk_divisor, DK_U0, xi)
            assert nvol_c1(dk_divisor, DK_U0, tuple(3 * x for x in xi)) == base
            xf = tuple(map(float, xi))
            rel = abs(
                nvol_c1(dk_divisor, DK_U0, tuple(3 * x for x in xf))
                - nvol_c1(dk_divisor, DK_U0, xf)
            )
            assert rel <= 1e-12 * abs(nvol_c1(dk_divisor, DK_U0, xf))

    def test_homogeneity(self, dk_divisor, rng):
        for _ in range(100):
            xi = random_interior_rational(dk_divisor.sigma, rng)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert vol_xi_c1(dk_divisor, tuple(lam * x for x in xi)) == lam ** (
                -dk_divisor.n
            ) * vol_xi_c1(dk_divisor, xi)

    def test_midpoint_convexity_on_slice(self, dk_divisor, rng):
        for _ in range(100):
            xi1 = random_interior_rational(dk_divisor.sigma, rng)
            xi2 = random_interior_rational(dk_divisor.sigma, rng)
            a1 = ex.dot(ex.fracvec(DK_U0), ex.fracvec(xi1))
            a2 = ex.dot(ex.fracvec(DK_U0), ex.fracvec(xi2))
            s1 = tuple(x / a1 for x in xi1)
            s2 = tuple(x / a2 for x in xi2)
            mid = tuple((a + b) / 2 for a, b in zip(s1, s2))
            lhs = vol_xi_c1(dk_divisor, mid)
            rhs = (vol_xi_c1(dk_divisor, s1) + vol_xi_c1(dk_divisor, s2)) / 2
            if s1 == s2:
                assert lhs == rhs
            else:
                assert lhs < rhs


class TestMinimizeC1:
    def test_dk_matches_known_direction(self, dk_divisor):
        res = minimize_c1(dk_divisor, DK_U0, tolerance=1e-7)
        assert res.converged
        assert res.grad_norm <= 1e-7
        direction = tuple(x / res.xi_star.xi[0] for x in res.xi_star.xi)
        expected = (1.0, 1.0, ALPHA)
        assert max(abs(a - b) for a, b in zip(direction, expected)) < 1e-10
        # log discrepancy rescaled to n
        a = sum(u * x for u, x in zip(DK_U0, res.xi_star.xi))
        assert abs(a - dk_divisor.n) < 1e-10

    def test_log_discrepancy_at_known_direction(self, dk_divisor):
        xi = (1.0, 1.0, ALPHA)
        a = sum(u * x for u, x in zip(DK_U0, xi))
        assert abs(a - (15 - math.sqrt(33)) / 4) < 1e-12

    def test_orthant_translate_minimizer_symmetry(self):
        # deg(u) = u_1 on the orthant with u0 = (1,...,1): the last r-1
        # coordinates of the minimizer coincide by symmetry
        d = orthant_divisor(3, (1, 0, 0))
        res = minimize_c1(d, (1, 1, 1), tolerance=1e-7)
        assert res.converged
        assert abs(res.xi_star.xi[1] - res.xi_star.xi[2]) < 1e-7

    def test_zero_volume_divisor_not_converged(self, monkeypatch):
        # no cells, so vol = 0 and grad vol = 0: minimize stops at once,
        # evaluating nothing, and the sine residual is NaN
        d = PolyhedralDivisor.from_vertex_lists([(1, 0), (0, 1)], [("0", [(-1, -1)])])
        assert d.cells().cells == ()

        def no_evaluation(*args):
            raise AssertionError("the volume kernel was evaluated")

        monkeypatch.setattr(d._cellsum, "evaluate", no_evaluation)
        res = minimize_c1(d, (1, 1))
        assert not res.converged
        assert res.stop_reason == "zero_volume"
        assert res.iterations == 0
        assert res.nvol_star == 0 and res.grad_norm == 0
        assert math.isnan(res.barycenter_residual)
        assert res.xi_star.xi == (1.5, 1.5)  # the start, rescaled to <u0, xi> = n

    def test_zero_degree_divisor_stops_with_zero_volume(self):
        # deg = 0 on the whole orthant: its one cell has weight 0 on every
        # ray, so the kernel's table is empty and minimize stops at once,
        # where it used to stop on the gradient test with a NaN residual
        d = PolyhedralDivisor.from_vertex_lists([(1, 0), (0, 1)], [("0", [(0, 0)])])
        assert [ell for _, ell in d.cells().cells] == [(0, 0)]
        assert d._cellsum.cells == ()
        res = minimize_c1(d, (1, 1))
        assert (res.converged, res.stop_reason, res.iterations) == (False, "zero_volume", 0)
        assert res.nvol_star == 0 and math.isnan(res.barycenter_residual)

    def test_u0_of_wrong_length(self, dk_divisor):
        # nvol_c1 and futaki_invariant used to pair a short u0 by zip
        xi = (1, 1, Fraction(1, 3))
        for f in (lambda u0: minimize_c1(dk_divisor, u0), lambda u0: nvol_c1(dk_divisor, u0, xi),
                  lambda u0: futaki_invariant(dk_divisor, xi, (1, 0, 0), u0=u0)):
            with pytest.raises(ValueError, match="u0 has 2 entries .* dimension 3"):
                f((3, -1))


class TestRiemannCrossCheck:
    def test_closed_form_matches_grid_integration(self, dk_divisor):
        # coarse Riemann sum of max(deg, 0) over the truncated weight cone;
        # entirely independent of the cell decomposition and of the counters
        import numpy as np

        a = (-3 + math.sqrt(33)) / 4
        xi = np.array([1.0, 1.0, a])
        closed = float(vol_xi_c1(dk_divisor, tuple(xi)))
        rays = np.array(dk_divisor.sigma_dual.rays, float)
        verts = rays / (rays @ xi)[:, None]
        lo = np.minimum(verts.min(0), 0) - 0.01
        hi = np.maximum(verts.max(0), 0) + 0.01
        n_grid = 180
        axes = [np.linspace(lo[i], hi[i], n_grid) for i in range(3)]
        cell = np.prod([(hi[i] - lo[i]) / (n_grid - 1) for i in range(3)])
        mx, my, mz = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([mx.ravel(), my.ravel(), mz.ravel()], 1)
        sig = np.array(dk_divisor.sigma.rays, float)
        mask = (pts @ sig.T >= 0).all(1) & (pts @ xi <= 1.0)
        pts = pts[mask]
        deg = np.minimum(0, pts[:, 2] / 2) + pts[:, 1] / 2 + np.minimum(0, pts[:, 0])
        riemann = math.factorial(4) * float(np.maximum(deg, 0).sum() * cell)
        assert abs(riemann - closed) / closed < 0.01
