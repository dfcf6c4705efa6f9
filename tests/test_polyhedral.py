import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from reebmin import (
    MINUS_INFINITY,
    InfeasibleSystem,
    NotFullDimensional,
    NotPointed,
    PolyhedralDivisor,
    Polyhedron,
    ToricData,
    VCone,
    dual_cone,
    polyhedron_min,
    triangulate_cone,
    vertex_enumeration,
)
from reebmin import _exact as ex
from reebmin import cxonevol, polyhedral
from reebmin.cxonevol import build_cells
from reebmin.polyhedral import _dd_pass

from conftest import DK_F, DK_SIGMA_RAYS, SPP_DUAL_RAYS, SPP_U0, assert_incidence_recorded, random_interior_rational


class TestDualCone:
    def test_orthant_self_dual(self):
        c = VCone([(1, 0), (0, 1)])
        assert set(dual_cone(c).rays) == {(1, 0), (0, 1)}

    def test_suspended_pinch_point_dual(self):
        sigma = VCone([(1, 0, 0), (0, 1, 0), (2, 0, 1), (0, 2, 1)])
        assert set(dual_cone(sigma).rays) == set(SPP_DUAL_RAYS)

    def test_a1_by_inequality_solve(self):
        assert set(dual_cone(VCone([(0, 1), (2, -1)])).rays) == {(1, 0), (1, 2)}

    def test_zero_cone_dual_is_full_space(self):
        rays = dual_cone(VCone([], ambient_dim=2)).rays
        assert set(rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_double_dual_identity(self):
        cones = [
            VCone([(1, 0), (0, 1)]),
            VCone([(0, 1), (2, -1)]),
            VCone(SPP_DUAL_RAYS),
            VCone(DK_SIGMA_RAYS),
            VCone([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]),
        ]
        for c in cones:
            assert dual_cone(dual_cone(c)).is_equivalent(c)


class TestConeQueries:
    HALF_PLANE = [(1, 0), (-1, 0), (0, 1)]

    def test_half_plane_not_pointed(self):
        assert not VCone(self.HALF_PLANE).is_pointed()

    def test_single_ray_pointed(self):
        assert VCone([(1, 0)], 2).is_pointed()

    def test_contains_with_line(self):
        c = VCone(self.HALF_PLANE)
        assert c.contains((-5, 2)) and c.contains((3, 0))
        assert not c.contains((0, -1))

    def test_extreme_rays_drop_redundant_generator(self):
        # not full dimensional: the dual carries a lineality line
        assert VCone([(1, 0, 0), (1, 1, 0), (0, 1, 0)]).extreme_rays() == ((1, 0, 0), (0, 1, 0))

    def test_extreme_rays_of_cone_with_line(self):
        with pytest.raises(NotPointed):
            VCone([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]).extreme_rays()

    def test_equivalent_cones(self):
        quadrant = VCone([(1, 0), (0, 1)])
        assert VCone([(0, 3), (1, 1), (2, 0)]).is_equivalent(quadrant)  # scaled, redundant
        assert not VCone([(1, 0), (1, 1)]).is_equivalent(quadrant)  # a proper subcone
        assert not VCone([(1, 0), (0, 1), (-1, 1)]).is_equivalent(quadrant)  # a larger cone
        assert not VCone([(1, 0, 0), (0, 1, 0)]).is_equivalent(quadrant)
        with pytest.raises(NotPointed):
            quadrant.is_equivalent(VCone(self.HALF_PLANE))


def brute_force_rays(rows, n):
    """Independent oracle: every extreme ray spans the kernel of the lineality
    basis plus t - 1 of the rows (t their rank) and satisfies every row."""
    lin = list(ex.nullspace(rows + [(0,) * n]))
    found = set()
    for subset in itertools.combinations(rows, max(n - len(lin) - 1, 0)):
        null = ex.nullspace(lin + list(subset) + [(0,) * n])
        if len(null) == 1:
            for w in (null[0], tuple(-x for x in null[0])):
                if all(ex.dot(a, w) >= 0 for a in rows):
                    found.add(ex.primitive(w))
    return sorted(found)


class TestKernelProperties:
    def random_rows(self, rng, n):
        rows = []
        for _ in range(rng.randint(0, 9)):
            kind = rng.random()
            if rows and kind < 0.1:
                rows.append(rng.choice(rows))  # repeated normal
            elif rows and kind < 0.2:
                rows.append(tuple(-x for x in rng.choice(rows)))  # opposite normal
            elif kind < 0.25:
                rows.append((0,) * n)
            elif kind < 0.35:
                rows.append(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)))
            else:
                bound = rng.choice((3, 10**4))
                rows.append(tuple(rng.randint(-bound, bound) for _ in range(n)))
        return rows

    def test_rays_feasible_primitive_extreme_sorted_and_complete(self):
        rng = random.Random(2017)
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = self.random_rows(rng, n)
            pairs, lin = _dd_pass(rows, n)
            rays = [r for r, _ in pairs]
            normals = [r for r in rows if not ex.is_zero_vec(r)]
            assert all(ex.dot(a, b) == 0 for a in normals for b in lin)
            assert len(lin) == n - (ex.rank(normals) if normals else 0)
            for r in rays:
                assert all(isinstance(x, int) for x in r) and ex.primitive(r) == r
                assert all(ex.dot(a, r) >= 0 for a in normals)
                tight = [a for a in normals if ex.dot(a, r) == 0]
                assert ex.rank(list(lin) + tight) == n - 1
            assert list(rays) == sorted(rays)
            assert list(rays) == brute_force_rays(normals, n), rows

    def test_dual_cone_records_incidence(self):
        # the masks that full dimension, pointedness, extreme rays and the
        # triangulation read are the pass's incidence, on both cones; the
        # dual's rays are primitive and distinct as VCone would make them
        rng = random.Random(1996)
        seen = {"full": 0, "not_full": 0, "pointed": 0, "with_line": 0}
        for _ in range(300):
            n = rng.randint(1, 5)
            rows = [r for r in self.random_rows(rng, n) if not ex.is_zero_vec(r)]
            cone = VCone(rows, n)
            dual = dual_cone(cone)
            assert_incidence_recorded(cone)
            assert VCone(dual.rays, n).rays == dual.rays
            full = ex.rank(cone.rays) == n
            assert cone.is_full_dimensional() == full
            assert cone.is_pointed() == (ex.rank(dual.rays) == n)
            seen["full" if full else "not_full"] += 1
            seen["pointed" if cone.is_pointed() else "with_line"] += 1
        assert min(seen.values()) >= 40, seen


def sympy_rref(m):
    """(rows, pivot_columns) of the reduced row echelon form, by sympy: a
    reference independent of `_exact`."""
    red, pivots = sympy.Matrix(m).rref()
    return [[Fraction(int(x.p), int(x.q)) for x in red.row(i)] for i in range(red.rows)], pivots


def fraction_setup_rays(normals, n):
    """`_dd_pass` with the Fraction setup it had before the integer one:
    sympy's rref picks the start normals, a rational inverse of the Gram matrix
    gives the start rays, and nullspace runs on every normal."""
    rows = [ex.primitive(a) for a in normals if not ex.is_zero_vec(a)]
    if not rows:
        return [], tuple(ex.primitive(b) for b in ex.identity(n))
    lin = ex.nullspace(rows)
    start = sympy_rref(ex.transpose(rows))[1]
    t = len(start)
    basis_t = ex.transpose([rows[i] for i in start])
    gram = ex.mat_mul(ex.transpose(basis_t), basis_t)
    red, _ = sympy_rref([list(row) + list(e) for row, e in zip(gram, ex.identity(t))])
    g_inv = [row[t:] for row in red]
    rays = []
    for k in range(t):
        r = ex.primitive(ex.mat_vec(basis_t, g_inv[k]))
        rays.append((r, sum(1 << i for j, i in enumerate(start) if j != k)))
    for i, a in enumerate(rows):
        if i in start:
            continue
        bit = 1 << i
        vals = [ex.dot(a, r) for r, _ in rays]
        new = [(r, mask | bit if v == 0 else mask) for (r, mask), v in zip(rays, vals) if v >= 0]
        for p, (rp, mp) in enumerate(rays):
            if vals[p] <= 0:
                continue
            for q, (rq, mq) in enumerate(rays):
                if vals[q] >= 0:
                    continue
                shared = mp & mq
                if shared.bit_count() < t - 2:
                    continue
                if any(mask & shared == shared for k, (_, mask) in enumerate(rays) if k != p and k != q):
                    continue
                w = [vals[p] * y - vals[q] * x for x, y in zip(rp, rq)]
                g = math.gcd(*w)
                new.append((tuple(c // g for c in w), shared | bit))
        rays = new
    return sorted(rays), tuple(ex.primitive(b) for b in lin)


class TestIntegerSetup:
    """The fraction-free setup of the double description."""

    @staticmethod
    def seeded_system(rng, n):
        # rows drawn from a random subspace of dimension k; k < n gives lineality
        k = rng.randint(1, n)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        rows = []
        for _ in range(rng.randint(1, 10)):
            kind = rng.random()
            if kind < 0.1:
                rows.append((0,) * n)
            elif rows and kind < 0.2:
                rows.append(tuple(-x for x in rng.choice(rows)))
            else:
                co = [Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in gens]
                rows.append(tuple(sum(c * g[j] for c, g in zip(co, gens)) for j in range(n)))
        return rows

    def test_matches_the_fraction_setup(self):
        rng = random.Random(1968)
        seen = {"full": 0, "deficient": 0, "lineality": 0, "zero_row": 0}
        for _ in range(600):
            n = rng.randint(1, 6)
            rows = self.seeded_system(rng, n)
            pairs, lin = _dd_pass(rows, n)
            assert (pairs, lin) == fraction_setup_rays(rows, n), rows
            rank = ex.rank(rows)
            seen["full" if rank == n else "deficient"] += 1
            seen["lineality"] += bool(lin)
            seen["zero_row"] += (0,) * n in rows
        assert min(seen.values()) >= 50, seen

    def test_ranks_of_deficient_matrices(self):
        half = Fraction(1, 2)
        assert ex.rank([(1, 2, 3), (2, 4, 6), (1, 0, 1)]) == 2
        assert ex.rank([(half, 1, Fraction(3, 2)), (1, 2, 3), (0, 0, 0)]) == 1
        assert ex.rank([(0, 0), (0, 0)]) == 0
        assert ex.rank([(half, 0, 1), (0, Fraction(1, 3), 1), (half, Fraction(1, 3), 2)]) == 2
        assert ex.rank(VCone([(1, 0, 0), (0, 1, 0), (1, 1, 0)]).rays) == 2
        assert ex.rank(VCone([(1, -1, 0, 2), (-2, 2, 0, -4)], 4).rays) == 1
        rng = random.Random(7)
        for _ in range(200):
            n, k = rng.randint(1, 6), rng.randint(1, 6)
            m = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)] for _ in range(k)]
            m += [[sum(c * row[j] for c, row in zip((1, -2), m)) for j in range(n)]]
            ints = [[int(x * 2) for x in row] for row in m]
            assert ex.rank(m) == ex.rank(ints) == len(sympy_rref(m)[1]) <= k

    def test_primitive(self):
        assert ex.primitive((-4, 6, -2)) == (-2, 3, -1)
        assert ex.primitive((0, -7)) == (0, -1)
        assert ex.primitive((Fraction(1, 2), 3, Fraction(-3, 4))) == (2, 12, -3)
        assert ex.primitive((2, Fraction(4, 6))) == (3, 1)
        for zero in ((0, 0, 0), (0, Fraction(0))):
            with pytest.raises(ValueError):
                ex.primitive(zero)

    def test_adjugate(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) if rng.random() < 0.7 else 0 for _ in range(n)] for _ in range(n)]
            d = ex.int_det(m)
            if d == 0:
                continue
            a = ex.adjugate(m)
            scaled = tuple(tuple(d * int(i == j) for j in range(n)) for i in range(n))
            assert ex.mat_mul(a, m) == ex.mat_mul(m, a) == scaled
        assert ex.adjugate([(0, 1), (1, 0)]) == ((0, -1), (-1, 0))  # needs a row swap
        with pytest.raises(ValueError):
            ex.adjugate([(1, 2), (2, 4)])

    def test_int_det_against_cofactor_expansion(self):
        def cofactor(m):
            if not m:
                return 1
            return sum((-1) ** j * m[0][j] * cofactor([row[:j] + row[j + 1 :] for row in m[1:]])
                       for j in range(len(m)) if m[0][j])

        rng = random.Random(13)
        kinds = {"singular": 0, "swap": 0}
        for _ in range(300):
            n = rng.randint(1, 6)
            bound = rng.choice((3, 10**4))
            m = [[rng.randint(-bound, bound) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.2 and n > 1:  # a repeated row or column
                i, j = rng.sample(range(n), 2)
                m[i] = list(m[j]) if rng.random() < 0.5 else m[i]
                for row in m:
                    row[i] = row[j]
            d = ex.int_det(m)
            assert type(d) is int and d == cofactor(m)
            kinds["singular"] += d == 0
            kinds["swap"] += m[0][0] == 0 and d != 0
        assert kinds["singular"] >= 30 and kinds["swap"] >= 30
        assert ex.int_det([]) == 1
        assert ex.int_det([(0, 2), (3, 0)]) == -6
        assert ex.int_det([(Fraction(4, 2), 1), (1, 1)]) == 1
        with pytest.raises(ValueError, match="not integral"):
            ex.int_det([(Fraction(1, 2), 0), (0, 2)])


def sympy_fraction(x):
    return Fraction(int(x.p), int(x.q))


class TestEliminationAgainstSympy:
    """Each read of `_exact`'s one fraction-free elimination gives sympy's
    canonical answer: rank, the first independent rows, the reduced row
    echelon nullspace basis, the solution with free parameters 0 (or None),
    the adjugate and the determinant."""

    @staticmethod
    def entry(rng, kind):
        if kind == "small":
            return rng.randint(-3, 3)
        if kind == "fraction":
            return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        return rng.choice((-1, 1)) * rng.randint(10**6 - 100, 10**6 + 100)

    def system(self, rng):
        n = rng.randint(1, 5)
        k = n if rng.random() < 0.4 else rng.randint(1, 5)
        kind = rng.choice(("small", "fraction", "near_1e6"))
        m = []
        for _ in range(k):
            roll = rng.random()
            if roll < 0.1:
                m.append([0] * n)
            elif m and roll < 0.35:  # a combination of the rows so far
                co = [rng.randint(-2, 2) for _ in m]
                m.append([sum(c * row[j] for c, row in zip(co, m)) for j in range(n)])
            else:
                m.append([self.entry(rng, kind) if rng.random() < 0.8 else 0 for _ in range(n)])
        return m, kind

    def test_reads_match_sympy(self):
        rng = random.Random(1968)
        seen = dict.fromkeys(("deficient", "zero_row", "inconsistent", "consistent", "singular", "nonsingular"), 0)
        for _ in range(1000):
            m, kind = self.system(rng)
            k, n = len(m), len(m[0])
            ref = sympy.Matrix(m)
            rank = ex.rank(m)
            assert type(rank) is int and rank == ref.rank(), m
            seen["deficient"] += rank < min(k, n)
            seen["zero_row"] += [0] * n in m

            scale = math.lcm(*(Fraction(x).denominator for row in m for x in row))
            ints = [[int(x * scale) for x in row] for row in m]
            assert ex.independent_rows(ints) == list(sympy.Matrix(ints).T.rref()[1]), m

            null = tuple(tuple(sympy_fraction(x) for x in v) for v in ref.nullspace())
            assert ex.nullspace(m) == null, m

            if rng.random() < 0.5:  # a right side in the column space
                x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                b = [sum(a * y for a, y in zip(row, x)) for row in m]
            else:
                b = [self.entry(rng, kind) for _ in range(k)]
            try:
                sol, params = ref.gauss_jordan_solve(sympy.Matrix(b))
            except ValueError:
                expected = None
            else:
                expected = tuple(sympy_fraction(x) for x in sol.subs({p: 0 for p in params}))
            assert ex.solve(m, b) == expected, (m, b)
            seen["inconsistent" if expected is None else "consistent"] += 1

            if k == n:
                ref_ints = sympy.Matrix(ints)
                det = ex.int_det(ints)
                assert type(det) is int and det == ref_ints.det(), ints
                if det:
                    adj = tuple(tuple(int(x) for x in ref_ints.adjugate().row(i)) for i in range(n))
                    assert ex.adjugate(ints) == adj, ints
                else:
                    with pytest.raises(ValueError, match="singular"):
                        ex.adjugate(ints)
                seen["singular" if det == 0 else "nonsingular"] += 1
        assert min(seen.values()) >= 100, seen


class TestVertexEnumeration:
    def test_triangle(self):
        p = vertex_enumeration([((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)], 2)
        assert set(p.compact_vertices) == {(0, 0), (1, 0), (0, 1)}
        assert p.tail.rays == ()

    def test_dk_coefficient_segment(self, dk_divisor):
        # half-space description of the third coefficient polyhedron
        rows = [
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((0, 0, 1), 0),
            ((-1, 2, 0), 1),
            ((0, 2, -2), 0),
        ]
        p = vertex_enumeration(rows, 3)
        assert set(p.compact_vertices) == {(0, 0, 0), (1, 0, 0)}
        assert p.tail.is_equivalent(VCone(DK_SIGMA_RAYS))

    def test_halfline(self):
        p = vertex_enumeration([((1,), 0)], 1)
        assert p.compact_vertices == ((Fraction(0),),)
        assert p.tail.rays == ((1,),)

    def test_infeasible(self):
        with pytest.raises(InfeasibleSystem):
            vertex_enumeration([((1,), 0), ((-1,), -1)], 1)

    def test_infeasible_checked_before_line(self):
        with pytest.raises(InfeasibleSystem):
            vertex_enumeration([((1, 0), 0), ((-1, 0), -1)], 2)

    def test_line_not_pointed(self):
        with pytest.raises(NotPointed):
            vertex_enumeration([((1, 0), 0)], 2)

    def test_zero_normal_rows(self):
        # 0 + c >= 0 holds for c >= 0 and adds nothing; for c < 0 no x solves it
        triangle = [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)]
        p = vertex_enumeration(triangle, 2)
        for c in (0, 1, Fraction(1, 2)):
            assert vertex_enumeration(triangle + [((0, 0), c)], 2) == p
            assert vertex_enumeration([((0, 0), c)] + triangle, 2) == p
        for c in (-1, Fraction(-1, 3)):
            with pytest.raises(InfeasibleSystem):
                vertex_enumeration(triangle + [((0, 0), c)], 2)
            with pytest.raises(InfeasibleSystem):
                vertex_enumeration([((0, 0), c), ((1, 0), 0)], 2)  # also before the line

    def test_scaled_duplicate_rows(self):
        triangle = [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)]
        scaled = [((3, 0), 0), ((Fraction(-1, 2), Fraction(-1, 2)), Fraction(1, 2)), ((0, "2/3"), 0)]
        assert vertex_enumeration(triangle + scaled, 2) == vertex_enumeration(triangle, 2)

    def test_row_of_wrong_dimension(self):
        with pytest.raises(ValueError, match="inequality dimension mismatch"):
            vertex_enumeration([((1, 0), 0), ((1, 0, 0), 0)], 2)


def truncated_volume(pieces, xi):
    total = Fraction(0)
    for piece in pieces:
        prod = Fraction(1)
        for u in piece.rays:
            prod *= sum(Fraction(a) * b for a, b in zip(u, xi))
        total += Fraction(piece.det_abs) / prod
    return total


class TestTriangulate:
    def test_orthant_single_piece(self):
        pieces = triangulate_cone(VCone([(1, 0), (0, 1)]))
        assert len(pieces) == 1 and pieces[0].det_abs == 1

    def test_spp_dual_two_pieces(self):
        pieces = triangulate_cone(VCone(SPP_DUAL_RAYS))
        assert len(pieces) == 2

    def test_cone_over_square_two_pieces(self):
        # each diagonal triangle of the square [-1,1]^2 has area 2, so the
        # primitive ray determinant of either piece is 3! * (2/3!) * 2 = 4
        pieces = triangulate_cone(VCone([(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]))
        assert len(pieces) == 2
        assert [p.det_abs for p in pieces] == [4, 4]

    def test_not_full_dimensional(self):
        with pytest.raises(NotFullDimensional):
            triangulate_cone(VCone([(1, 0, 0), (0, 1, 0)]))

    def test_not_full_dimensional_with_line(self):
        with pytest.raises(NotFullDimensional):
            triangulate_cone(VCone([(1, 0, 0), (-1, 0, 0), (0, 1, 0)]))

    def test_volume_functional_order_independent(self, rng):
        base = list(SPP_DUAL_RAYS)
        orders = [base, [base[2], base[0], base[3], base[1]]]
        cones = [VCone(o) for o in orders]
        piece_sets = [triangulate_cone(c) for c in cones]
        interior_source = dual_cone(cones[0])
        for _ in range(100):
            xi = random_interior_rational(interior_source, rng)
            vals = [truncated_volume(ps, xi) for ps in piece_sets]
            assert vals[0] == vals[1]


def cube_cone(d):
    """Cone over the unit d-cube: rays (v, 1) for v in {0, 1}^d."""
    return [v + (1,) for v in itertools.product((0, 1), repeat=d)]


class TestIncidence:
    """Extreme rays and the triangulation are read off the dual's incidence."""

    @pytest.mark.parametrize("d, pieces", [(3, 6), (4, 24)])
    def test_cube_cones_with_non_simplicial_faces(self, d, pieces, rng):
        rays = cube_cone(d)
        shuffled = rays[:]
        rng.shuffle(shuffled)
        tris = [triangulate_cone(VCone(order)) for order in (rays, shuffled)]
        for tri in tris:
            assert len(tri) == pieces and all(p.det_abs == 1 for p in tri)
        reeb = dual_cone(VCone(rays))
        for _ in range(20):
            xi = random_interior_rational(reeb, rng)
            vals = [truncated_volume(tri, xi) for tri in tris]
            assert vals[0] == vals[1]

    def test_redundant_rays_in_interior_and_facet_dropped(self):
        rays = cube_cone(3)
        interior, in_facet = (1, 1, 1, 2), (2, 1, 1, 2)  # (1/2,1/2,1/2) and (1,1/2,1/2)
        c = VCone([interior] + rays[:4] + [in_facet] + rays[4:])
        assert c.extreme_rays() == tuple(rays)

    def test_redundant_normals_match_a_fresh_dual(self):
        # the 4-cube-cone's dual has 8 facets x_i >= 0, t - x_i >= 0; add
        # t >= 0, x_0 + x_1 >= 0 and a multiple of x_0 >= 0, all redundant
        n = 4
        e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        normals = e[:3] + [ex.vec_sub(e[3], v) for v in e[:3]]
        normals += [e[3], ex.vec_add(e[0], e[1]), (2, 0, 0, 0)]
        region = dual_cone(VCone(normals))
        fresh = VCone(region.rays)
        assert set(region.rays) == set(cube_cone(3))
        assert region.extreme_rays() == fresh.extreme_rays() == region.rays
        assert triangulate_cone(region) == triangulate_cone(fresh)


class TestKernelCalls:
    """One double-description pass per cone."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        kernel = polyhedral._dd_pass

        def counting(*args):
            count[0] += 1
            return kernel(*args)

        monkeypatch.setattr(polyhedral, "_dd_pass", counting)
        return count

    def test_toric_data_from_dual_cone(self, calls):
        ToricData.from_dual_cone(SPP_DUAL_RAYS, SPP_U0)
        assert calls[0] == 1

    def test_toric_data_from_cone(self, calls):
        ToricData.from_cone([(1, 0, 0), (0, 1, 0), (2, 0, 1), (0, 2, 1)], SPP_U0)
        assert calls[0] == 1

    @staticmethod
    def build_cells_regions(calls, monkeypatch, d):
        """(full passes, regions triangulated) of one build_cells call."""
        regions = [0]
        triangulate = cxonevol.triangulate_cone

        def counting(region):
            regions[0] += 1
            return triangulate(region)

        monkeypatch.setattr(cxonevol, "triangulate_cone", counting)
        calls[0] = 0
        build_cells(d)
        return calls[0], regions[0]

    # build_cells makes no full pass: one depth-first walk adds each
    # choice's normals as steps on its parent's rays, and triangulates every
    # full-dimensional region it reaches

    def test_build_cells_dk_4dim(self, calls, monkeypatch, dk_divisor):
        # 2 coefficients with 2 vertices; all 4 choices give vertices
        assert self.build_cells_regions(calls, monkeypatch, dk_divisor) == (0, 4)

    def test_build_cells_orthant_3x2x2(self, calls, monkeypatch):
        half = Fraction(1, 2)
        d = PolyhedralDivisor.from_vertex_lists(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [
                ("0", [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                ("1", [(half, 0, 0), (0, -half, half)]),
                ("inf", [(0, 0, 0), (-1, 1, 1)]),
            ],
        )
        # 7 of the 12 choices sum to vertices
        assert self.build_cells_regions(calls, monkeypatch, d) == (0, 7)

    def test_build_cells_orthant_4x3(self, calls, monkeypatch):
        # two triangles and two inverted ones in the planes x + y + z = c: the
        # sum is a hexagon, so 6 of the 81 choices reach a region
        d = PolyhedralDivisor.from_vertex_lists(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            [
                ("0", [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                ("1", [(1, 1, 0), (0, 1, 1), (1, 0, 1)]),
                ("2", [(2, 0, 0), (0, 2, 0), (0, 0, 2)]),
                ("3", [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]),
            ],
        )
        assert self.build_cells_regions(calls, monkeypatch, d) == (0, 6)

    def test_divisor_one_pass_per_coefficient(self, calls):
        # one pass for sigma's dual, one per coefficient's homogenization
        d = PolyhedralDivisor.from_vertex_lists(
            [(1, 0), (0, 1)],
            [
                ("0", [(0, 0), (1, 1), (2, 0), (0, 2), (1, 0)]),
                ("1", [(0, 1), (1, 0), (1, 1), (2, -1)]),
                ("inf", [(3, 3)]),
            ],
        )
        assert calls[0] == 4
        assert [poly.compact_vertices for _, poly in d.points] == [
            ((0, 0),),
            ((0, 1), (2, -1)),
            ((3, 3),),
        ]

    def test_polyhedron_reads_its_vertices(self, calls):
        # one pass on the homogenized cone drops repeated and inner points
        sigma = VCone([(1, 0), (0, 1)])
        half = Fraction(1, 2)
        p = Polyhedron([(1, 1), (0, 2), (2, 0), (0, 2), (1, half), (half, 3)], sigma)
        assert calls[0] == 1
        assert p.compact_vertices == ((0, 2), (1, half), (2, 0))
        assert p.translate((1, -half)).compact_vertices == ((1, Fraction(3, 2)), (2, 0), (3, -half))
        assert calls[0] == 1

    def test_divisor_empty_coefficient_infeasible(self):
        with pytest.raises(InfeasibleSystem):
            PolyhedralDivisor.from_vertex_lists([(1, 0), (0, 1)], [("0", [(0, 0)]), ("1", [])])

    def test_divisor_coefficient_with_other_tail(self):
        sigma = VCone([(1, 0), (0, 1)])
        other = Polyhedron([(0, 0)], VCone([(1, 0), (1, 1)]))
        with pytest.raises(ValueError, match="different tail cone"):
            PolyhedralDivisor(sigma, [("0", other)])
        same = Polyhedron([(0, 0)], VCone([(0, 1), (1, 0)]))
        assert PolyhedralDivisor(sigma, [("0", same)]).points[0][1].tail is sigma

    def test_divisor_accepts_a_tail_with_a_redundant_ray(self):
        sigma = VCone([(1, 0), (0, 1)])
        redundant = Polyhedron([(0, 0)], VCone([(1, 0), (1, 1), (0, 1)]))
        assert PolyhedralDivisor(sigma, [("0", redundant)]).points[0][1].tail is sigma

    def test_divisor_rejects_a_larger_tail(self):
        # the tail holds every ray of sigma and one outside it
        sigma = VCone([(1, 0), (0, 1)])
        larger = Polyhedron([(0, 0)], VCone([(1, 0), (0, 1), (-1, 2)]))
        with pytest.raises(ValueError, match="different tail cone"):
            PolyhedralDivisor(sigma, [("0", larger)])
        other_dim = Polyhedron([(0, 0, 0)], VCone([(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
        with pytest.raises(ValueError, match="different tail cone"):
            PolyhedralDivisor(sigma, [("0", other_dim)])

    def test_divisor_from_vertex_lists_compares_no_tails(self, monkeypatch):
        # every coefficient of from_vertex_lists has sigma itself as its tail
        calls = []
        compare = VCone.is_equivalent
        monkeypatch.setattr(VCone, "is_equivalent", lambda self, other: calls.append(1) or compare(self, other))
        PolyhedralDivisor.from_vertex_lists(
            [(1, 0), (0, 1)], [("0", [(0, 0), (1, 0)]), ("1", [(0, Fraction(1, 2))])]
        )
        assert calls == []


class TestHermite:
    @staticmethod
    def unimodular(rng, n):
        """A seeded unimodular n x n matrix: a product of elementary row
        operations, swaps and sign changes."""
        e = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
            kind = rng.randint(0, 2)
            if kind == 0 and i != j:
                q = rng.randint(-3, 3)
                e[i] = [x + q * y for x, y in zip(e[i], e[j])]
            elif kind == 1:
                e[i], e[j] = e[j], e[i]
            else:
                e[i] = [-x for x in e[i]]
        return tuple(map(tuple, e))

    @staticmethod
    def assert_hermite(h):
        last = -1
        zero = False
        for t, row in enumerate(h):
            c = next((j for j, x in enumerate(row) if x), None)
            if c is None:
                zero = True
                continue
            assert not zero, "a nonzero row below a zero row"
            assert c > last, "pivots must move right"
            assert row[c] > 0
            assert all(0 <= h[i][c] < row[c] for i in range(t))
            last = c

    def test_identity(self):
        assert ex.hermite(((1, 0), (0, 1))) == (((1, 0), (0, 1)), ((1, 0), (0, 1)))
        assert ex.hermite(()) == ((), ())

    def test_spp_binomial_column(self):
        m = ((1,), (1,), (-2,), (-1,))
        h, u = ex.hermite(m)
        assert h == ((1,), (0,), (0,), (0,))
        assert ex.mat_mul(u, m) == h

    def test_one_by_one(self):
        assert ex.hermite(((2,),)) == (((2,),), ((1,),))
        assert ex.hermite(((-2,),)) == (((2,),), ((-1,),))

    def test_reduces_above_pivots(self):
        h, u = ex.hermite(((2, 3), (0, 5)))
        assert h == ((2, 3), (0, 5))
        h, u = ex.hermite(((1, 7), (0, 3)))
        assert h == ((1, 1), (0, 3))
        assert ex.mat_mul(u, ((1, 7), (0, 3))) == h

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    def test_decomposition_properties(self, rows):
        m = tuple(tuple(r) for r in rows)
        h, u = ex.hermite(m)
        assert ex.mat_mul(u, m) == h
        assert abs(ex.int_det(u)) == 1
        self.assert_hermite(h)

    def test_canonical_under_unimodular_rows(self):
        rng = random.Random(515)
        for _ in range(200):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(ncols)) for _ in range(nrows))
            e = self.unimodular(rng, nrows)
            h, u = ex.hermite(m)
            h2, u2 = ex.hermite(ex.mat_mul(e, m))
            self.assert_hermite(h)
            assert [row for row in h if any(row)] == [row for row in h2 if any(row)]
            assert ex.mat_mul(u, m) == h and abs(ex.int_det(u)) == 1


class TestPolyhedronMin:
    def test_dk_first_coefficient(self, dk_divisor):
        d0 = dk_divisor.points[0][1]
        assert polyhedron_min(d0, (0, 1, -1)) == Fraction(-1, 2)

    def test_zero_functional(self, dk_divisor):
        for _, poly in dk_divisor.points:
            assert polyhedron_min(poly, (0, 0, 0)) == 0

    def test_dk_third_coefficient(self, dk_divisor):
        d2 = dk_divisor.points[2][1]
        assert polyhedron_min(d2, (1, 0, 0)) == 0

    def test_unbounded(self, dk_divisor):
        d0 = dk_divisor.points[0][1]
        assert polyhedron_min(d0, (0, -1, 0)) is MINUS_INFINITY
