"""The one minimizer: damped projected Newton on the slice {<u0, xi> = 1}.

Toric and complexity-one data both minimize a `CellSum` volume, which is
strictly convex on the slice; only their normalized volumes differ.  Newton
stops on the gradient test, or at the rounding floor of f: once the squared
Newton decrement (twice the predicted decrease) is a few ulps of f, f no
longer resolves the decrease, so the last Newton step is taken without a
line search and no further iteration can improve the point.  Newton runs in
float64 on ndarray points, through the kernel's array path, and steps by
-Q (Q^T g / |lambda|) from one symmetric eigendecomposition of the projected
Hessian: the Newton step, however ill-conditioned, since strict convexity
makes every lambda positive, and a descent direction even if rounding does
not.  Its certificate is exact: every float64 point is rational, so
`CellSum.certificate` sums vol and grad vol at Newton's point on the
kernel's integer path and reads the normalized volume, the projected
gradient's norm and the sine off those integer sums (no Fraction formed),
each a quotient of two ints rounded once.  The start point is formed from
cleared integers too.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _exact as ex
from ._cellsum import ReebVector
from .errors import NotInReebCone

ARMIJO = 1e-4
MAX_BACKTRACK = 60
ROUNDING_FLOOR = 4  # ulps of f: a smaller squared Newton decrement does not show in f
NEWTON_STOPS = ("gradient", "rounding_floor")
MAX_ITER = 200  # default of minimize, minimize_c1 and the CLI's --max-iter


@dataclass(frozen=True)
class MinimizeResult:
    xi_star: ReebVector
    nvol_star: float
    grad_norm: float
    barycenter_residual: float
    iterations: int
    converged: bool
    stop_reason: str  # "gradient", "rounding_floor", "line_search", "max_iter" or "zero_volume"


def check_tolerance(tolerance):
    """Raise ValueError unless tolerance is a finite number >= 0 (NaN is not)."""
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")


def slice_basis(u0):
    """Orthonormal float basis of the direction space {<u0, .> = 0}."""
    u = np.asarray(u0, dtype=float)
    _, _, vh = np.linalg.svd(u.reshape(1, -1))
    return vh[1:].T  # rows 2..n of V^T span the orthogonal complement


def minimize(cs, u0, sigma_rays, tolerance, max_iter) -> MinimizeResult:
    """Global minimizer of <u0, xi>^n vol(xi) over the Reeb cone, n the
    kernel's `CellSum.degree`, rescaled so that <u0, xi> = n.

    Starts at the sum of the Reeb cone's rays on the slice, each entry one
    correctly rounded quotient of ints.  nvol_star, grad_norm and
    barycenter_residual are `CellSum.certificate` at Newton's float point
    xi_hat, taken as a rational point: A^n vol, the norm of the gradient's
    projection off u0 and the sine between -grad vol and u0 (NaN when grad
    vol = 0), each exact up to its rounding to float.  It is converged when
    Newton stopped on the gradient test or at the rounding floor of f and
    both grad_norm and the sine are at most the tolerance.  xi_star is
    xi_hat rescaled in float so that <u0, xi_star> = n.  `stop_reason` says
    why Newton stopped.  Without cells vol = 0 and grad vol = 0 everywhere:
    Newton stops at the start on its first gradient test, and the result,
    labelled "zero_volume", is not converged.  A tolerance that is not a
    finite number >= 0 or a negative max_iter raises ValueError.
    """
    check_tolerance(tolerance)
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    total = [sum(col) for col in zip(*sigma_rays)]
    us, e = ex.cleared(u0)
    a0 = sum([a * b for a, b in zip(us, total)])  # e <u0, total>
    x0 = np.array([x * e / a0 for x in total])
    u0f = np.array([x / e for x in us])
    xi_hat, iters, stop_reason = _newton(cs, u0f, x0, tolerance, max_iter)
    if not cs.cells:
        stop_reason = "zero_volume"

    nvol_star, grad_norm, residual, _ = cs.certificate(tuple(Fraction(x) for x in xi_hat.tolist()), u0)
    a = float(sum(x * y for x, y in zip(u0f, xi_hat.tolist())))
    return MinimizeResult(
        xi_star=ReebVector.real(xi_hat * (cs.degree / a)),
        nvol_star=nvol_star,
        grad_norm=grad_norm,
        barycenter_residual=residual,
        iterations=iters,
        converged=bool(stop_reason in NEWTON_STOPS and grad_norm <= tolerance and residual <= tolerance),
        stop_reason=stop_reason,
    )


def _newton(cs, u0, x0, tol, max_iter):
    """Damped Newton in an orthonormal basis of the slice, staying in the open cone.

    Points are float ndarrays, on the kernel's array path.  Each iteration
    makes one order-2 kernel call, plus one volume call per line-search
    step.  With the step s of `_newton_step`, lam2 = -<grad, s> is the
    squared Newton decrement; when it is at most ROUNDING_FLOOR ulps of f,
    Armijo cannot judge the step, so it is taken once without a line search,
    kept only if it stays in the open cone, and Newton stops.  A failed
    eigendecomposition stops Newton with "line_search" at the current point,
    as do 60 halvings without an Armijo decrease.  Returns (xi, iterations,
    stop_reason).
    """
    v = slice_basis(u0)
    xi = np.asarray(x0, dtype=float)
    for it in range(1, max_iter + 1):
        f0, g, h = cs._evaluate_array(xi, 2)
        gp = v.T @ g
        if math.sqrt(gp @ gp) <= tol:  # np.linalg.norm's value, without its overhead
            return xi, it - 1, "gradient"
        try:
            step = _newton_step(v.T @ h @ v, gp)
        except np.linalg.LinAlgError:
            return xi, it, "line_search"
        slope = float(gp @ step)
        f0 = float(f0)
        if -slope <= ROUNDING_FLOOR * math.ulp(f0):
            cand = xi + v @ step
            try:
                cs._pairings_array(cand)
                xi = cand
            except NotInReebCone:
                pass
            return xi, it, "rounding_floor"
        alpha, d = 1.0, v @ step
        for _ in range(MAX_BACKTRACK):
            cand = xi + alpha * d
            try:
                fc = float(cs._evaluate_array(cand, 0)[0])
            except NotInReebCone:
                fc = None
            if fc is not None and fc <= f0 + ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            return xi, it, "line_search"
        xi = cand
    return xi, max_iter, "max_iter"


def _newton_step(hp, gp):
    """-Q (Q^T gp / |lambda|) from one symmetric eigendecomposition of hp:
    -hp^-1 gp when hp is positive definite, a descent direction whenever no
    eigenvalue is zero.  Raises LinAlgError when the decomposition fails."""
    w, q = np.linalg.eigh(hp)
    return -(q @ ((q.T @ gp) / np.abs(w)))
