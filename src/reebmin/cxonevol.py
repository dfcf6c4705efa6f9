"""Normalized volume for complexity-one torus actions over a rational curve.

A polyhedral divisor assigns to finitely many points of the base curve a
coefficient polyhedron with common tail cone sigma.  The section-count degree

    deg(u) = sum_p min_{v in Delta_p} <u, v>

is piecewise linear on the weight cone; we refine the weight cone into
simplicial cones on which it is a single linear functional ell and integrate
the truncation {<u, xi> <= 1} in closed form,

    vol(xi) = sum_cells |det(u_1..u_r)| / prod_j <u_j, xi>
                      * sum_i <ell, u_i> / <u_i, xi>,

which matches the n!-normalized Hilbert asymptotics with n = r + 1.  The
cell-sum kernel shared with toric data (`_cellsum`) splits each cell into
one cell of n pairings per ray u_i with <ell, u_i> != 0, the constant
|det| <ell, u_i> over the product with <u_i, xi> taken twice, and gives
the sum, its gradient and its Hessian in closed form, exact when xi is
rational; minimization runs the shared damped Newton method (`_newton`)
on the slice {<u0, xi> = 1}.

Building a divisor costs one double-description pass for the dual of sigma.
Its coefficients are `Polyhedron`s, which hold their irredundant vertices:
`from_vertex_lists` pays one pass per coefficient to read them off the
homogenized cone over the given points and sigma, and a downgraded
coefficient has them from its vertex enumeration.  Its cells cost no
further pass: a depth-first walk over the choices of vertices continues
from the extreme rays of sigma's recorded dual and their masks, one step
per normal.  The normals a choice shares with its siblings are added
once, by their parent, and a branch is cut where its region becomes lower
dimensional, so choices whose sum is not a vertex of the Minkowski sum of
the coefficients are never finished.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _exact as ex
from . import _newton
from ._cellsum import CellSum, check_length
from ._newton import MinimizeResult
from .errors import InfeasibleSystem, NotStrictlyConvex, UnboundedCoefficient
from .polyhedral import (
    MINUS_INFINITY,
    Polyhedron,
    VCone,
    _Pass,
    polyhedron_min,
    triangulate_cone,
)


@dataclass(frozen=True)
class PolyhedralDivisor:
    """Tail cone plus per-point coefficient polyhedra over the base curve."""

    sigma: VCone
    sigma_dual: VCone
    points: tuple
    r: int
    n: int

    def __init__(self, sigma, points):
        _check_tail(sigma)
        canon = []
        for label, poly in points:
            if poly.tail is not sigma and not poly.tail.is_equivalent(sigma):
                raise ValueError(f"coefficient at {label!r} has a different tail cone")
            if not poly.compact_vertices:
                raise InfeasibleSystem(f"coefficient at {label!r} is empty")
            canon.append((str(label), Polyhedron._of(poly.compact_vertices, sigma)))
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma_dual", sigma._dual)
        object.__setattr__(self, "points", tuple(canon))
        object.__setattr__(self, "r", sigma.ambient_dim)
        object.__setattr__(self, "n", sigma.ambient_dim + 1)

    @classmethod
    def from_vertex_lists(cls, sigma_rays, coefficients):
        """coefficients: iterable of (label, list of rational vertices)."""
        sigma = VCone(sigma_rays)
        _check_tail(sigma)  # before the polyhedra, whose homogenization needs a pointed tail
        pts = [(label, Polyhedron(verts, sigma)) for label, verts in coefficients]
        return cls(sigma, pts)

    def cells(self):
        return self._cell_complex

    @cached_property
    def _cell_complex(self):
        return build_cells(self)

    @cached_property
    def _cellsum(self):
        return CellSum(self.sigma_dual.rays, self.cells().cells, self.n)


def _check_tail(sigma):
    if not sigma.is_full_dimensional():
        raise NotStrictlyConvex("tail cone must be full dimensional")
    if not sigma.is_pointed():
        raise NotStrictlyConvex("tail cone contains a line")


@dataclass(frozen=True)
class CellComplex:
    """Simplicial cones with the linear functional equal to deg on each."""

    cells: tuple  # of (SimplicialPiece, ell)


def deg_D(d: PolyhedralDivisor, u):
    """Exact degree sum over the base points; finite on the weight cone."""
    u = ex.fracvec(u)
    total = Fraction(0)
    for label, poly in d.points:
        m = polyhedron_min(poly, u)
        if m is MINUS_INFINITY:
            raise UnboundedCoefficient(f"coefficient at {label!r} unbounded along {u}")
        total += m
    return total


def build_cells(d: PolyhedralDivisor) -> CellComplex:
    """Refine the weight cone so deg is linear and nonnegative per cell.

    One region per choice of attaining vertex for every coefficient: the
    weight cone cut by the normals w - v, v the chosen and w another vertex
    of a coefficient, and by the half-space {deg >= 0}, whose normal ell is
    the sum of the chosen vertices; regions of full dimension are
    triangulated.  The choices are walked depth first in itertools.product
    order on one double-description pass (`_Pass`): it starts from the
    extreme rays of sigma's dual with their recorded masks, each level adds
    its choice's normals as steps on its parent's pass, and each leaf adds
    ell.  Normals are scaled to integers by den, made primitive, and each
    enters once, at its first occurrence along the path.  A partial region
    that is lower dimensional, a bit test on the rays' masks, has no
    full-dimensional refinement, so its branch is cut: the leaves reached
    are the choices whose sum is a vertex of the Minkowski sum (Gritzmann &
    Sturmfels, "Minkowski addition of polytopes", 1993).
    """
    vertex_lists, den = _integer_vertices([poly.compact_vertices for _, poly in d.points])
    cells = []

    def walk(k, dd, ell):
        if k < len(vertex_lists):
            vl = vertex_lists[k]
            for ci, v in enumerate(vl):
                sub = dd
                for w in vl[:ci] + vl[ci + 1 :]:
                    sub = sub.add(ex.vec_sub(w, v))
                if sub.spans():
                    walk(k + 1, sub, ex.vec_add(ell, v))
            return
        dd = dd.add(ell)
        if dd.spans():
            ell = tuple(Fraction(x, den) for x in ell)
            cells.extend((piece, ell) for piece in triangulate_cone(dd.cone()))

    walk(0, _Pass.dual_of(d.sigma), (0,) * d.r)
    return CellComplex(cells=tuple(cells))


def _integer_vertices(vertex_lists):
    """(lists, den): every rational vertex times den, the lcm of all their
    denominators, as an integer vector."""
    nums, den = ex.cleared([x for vl in vertex_lists for v in vl for x in v])
    it = iter(nums)
    return [[tuple(next(it) for _ in v) for v in vl] for vl in vertex_lists], den


def vol_xi_c1(d: PolyhedralDivisor, xi):
    """Closed-form truncated integral of max(deg, 0), n!-normalized."""
    return d._cellsum.evaluate(xi)[0]


def _checked_u0(d: PolyhedralDivisor, u0):
    """u0 as Fractions, of d's dimension and positive on every ray of the tail cone."""
    u0 = ex.fracvec(u0)
    check_length("u0", u0, d.r)
    if any(ex.dot(u0, ray) <= 0 for ray in d.sigma.rays):
        raise ValueError("u0 must pair positively with the tail cone")
    return u0


def nvol_c1(d: PolyhedralDivisor, u0, xi):
    """Normalized volume <u0, xi>^n vol(xi); rescaling invariant."""
    u0 = _checked_u0(d, u0)
    check_length("Reeb vector", xi, d.r)
    a = sum(x * y for x, y in zip(u0, xi))
    return a**d.n * vol_xi_c1(d, xi)


def minimize_c1(d: PolyhedralDivisor, u0, tolerance=1e-7, max_iter=_newton.MAX_ITER) -> MinimizeResult:
    """Minimize the normalized volume over the Reeb cone of the tail.

    Newton on the slice {<u0, xi> = 1} with closed-form derivatives, stopped
    by the gradient test or at the rounding floor of f (`stop_reason`);
    strict convexity makes the converged point global.  Certificates are
    exact at Newton's point; the sine of the angle between -grad vol and u0
    plays the role of the barycenter residual.  A divisor with no cells, or
    with deg = 0 on all of them, has vol = 0 and grad vol = 0: Newton stops
    at its start after 0 iterations, and the result has stop_reason
    "zero_volume", nvol_star 0, a NaN residual and converged=False.
    """
    u0 = _checked_u0(d, u0)
    return _newton.minimize(d._cellsum, u0, d.sigma.rays, tolerance, max_iter)
