"""Normalized volume of toric cone singularities.

The weight cone sigma_dual is triangulated once; the volume of the truncated
body {u in sigma_dual : <u, xi> <= 1} is then a closed-form sum over pieces,

    vol(xi) = sum_p |det(u_1..u_n)| / prod_i <u_i, xi>,

with the n! normalization folded in so that vol(C^n, ord_0) = 1 and the
normalized volume of a smooth point is n^n.  The sum, its gradient and its
Hessian come from the cell-sum kernel shared with complexity-one data
(`_cellsum`), which stays exact when xi is rational.  Minimization runs the
shared damped Newton method (`_newton`) on the slice {A(xi) = 1} and
certifies Newton's point with one exact evaluation.
"""

from dataclasses import dataclass
from functools import cached_property

from . import _exact as ex
from . import _newton
from ._cellsum import CellSum, ReebVector, check_length  # ReebVector is re-exported
from ._newton import MinimizeResult
from .errors import NotStrictlyConvex
from .polyhedral import VCone, dual_cone, triangulate_cone


@dataclass(frozen=True)
class ToricData:
    """A toric singularity: weight cone sigma_dual, functional u0.

    sigma is `sigma_dual._dual`, the cone that the double-description pass
    paired with sigma_dual: `from_cone` keeps sigma's rays as given, and a
    weight cone, given directly or through `from_dual_cone`, keeps its own.
    """

    n: int
    sigma: VCone
    sigma_dual: VCone
    u0: tuple
    pieces: tuple

    def __init__(self, sigma_dual, u0):
        n = sigma_dual.ambient_dim
        u0 = ex.fracvec(u0)
        check_length("u0", u0, n)
        if not sigma_dual.is_full_dimensional():
            raise NotStrictlyConvex("weight cone spans a proper subspace")
        sigma = sigma_dual._dual  # the cone the pass paired with sigma_dual
        if not sigma.is_full_dimensional():
            raise NotStrictlyConvex("weight cone contains a line")
        us, _ = ex.cleared(u0)
        for r in sigma.rays:
            if ex.dot(us, r) <= 0:
                raise ValueError("u0 does not lie in the interior of the weight cone")
        pieces = tuple(triangulate_cone(sigma_dual))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma_dual", sigma_dual)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "pieces", pieces)

    @classmethod
    def from_dual_cone(cls, sigma_dual_rays, u0):
        return cls(VCone(sigma_dual_rays), u0)

    @classmethod
    def from_cone(cls, sigma_rays, u0):
        return cls(dual_cone(VCone(sigma_rays)), u0)

    @classmethod
    def smooth_point(cls, n):
        rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        return cls.from_dual_cone(rays, [1] * n)

    @cached_property
    def _cellsum(self):
        return CellSum(self.sigma_dual.rays, [(p, None) for p in self.pieces], self.n)


def log_discrepancy(t: ToricData, xi):
    """A(xi) = <u0, xi>; exact when xi is exact."""
    check_length("Reeb vector", xi, t.n)
    return sum(a * b for a, b in zip(t.u0, xi))


def vol_xi(t: ToricData, xi):
    """Volume of the truncated weight cone, n!-normalized."""
    return t._cellsum.evaluate(xi)[0]


def nvol(t: ToricData, xi):
    """Normalized volume A(xi)^n vol(xi); invariant under rescaling of xi."""
    return log_discrepancy(t, xi) ** t.n * vol_xi(t, xi)


def grad_vol(t: ToricData, xi):
    """Analytic gradient of vol_xi."""
    return t._cellsum.evaluate(xi, 1)[1]


def hessian_vol(t: ToricData, xi):
    """Analytic Hessian of vol_xi; symmetric positive definite on the Reeb cone."""
    return t._cellsum.evaluate(xi, 2)[2]


def certify_barycenter(t: ToricData, xi):
    """Projective residual between the cross-section barycenter and u0.

    Returns sin of the angle between them, that is between -grad vol and u0:
    zero exactly at a minimizer on its ray, computed exactly when xi is
    rational; xi may also be float or mpf, and an interval raises TypeError.
    """
    return t._cellsum.sine(xi, t.u0)


def minimize(t: ToricData, tolerance=1e-9, max_iter=_newton.MAX_ITER) -> MinimizeResult:
    """Global minimizer of the normalized volume over the Reeb cone.

    Newton iteration on the slice {A(xi) = 1} with analytic derivatives,
    stopped by the gradient test or at the rounding floor of f
    (`stop_reason`); strict convexity and properness make the converged
    point the unique global minimizer.  The result is rescaled so that
    A(xi_star) = n; the reported certificates are exact at Newton's point.
    """
    return _newton.minimize(t._cellsum, t.u0, t.sigma.rays, tolerance, max_iter)


def is_rational_minimizer(t: ToricData, xi) -> bool:
    """Exact first-order certificate: grad vol(xi) is a negative multiple of u0.

    With strict convexity this certifies the global minimizer on its ray;
    xi must be rational.
    """
    return t._cellsum.is_rational_minimizer(xi, t.u0)
