import math
from fractions import Fraction

import pytest

from reebmin import (
    NotInReebCone,
    NotStrictlyConvex,
    PolyhedralDivisor,
    UnboundedCoefficient,
    VCone,
    deg_D,
    minimize_c1,
    nvol_c1,
    vol_xi_c1,
)
from reebmin import _exact as ex

from conftest import DK_SIGMA_RAYS, DK_U0, random_interior_rational

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
        assert max(abs(a - b) for a, b in zip(direction, expected)) < 1e-6
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
