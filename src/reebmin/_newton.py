"""The one minimizer: damped projected Newton on the slice {<u0, xi> = 1}.

Toric and complexity-one data both minimize a `CellSum` volume, which is
strictly convex on the slice; only their normalized volumes differ.  Newton
stops on the gradient test, or at the rounding floor of f: once the squared
Newton decrement (twice the predicted decrease) is a few ulps of f, f no
longer resolves the decrease, so the last Newton step is taken without a
line search and no further iteration can improve the point.  Newton runs in
float64; the certificates are re-evaluated from the kernel in mpmath at
CERTIFICATE_PRECISION bits.
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from ._cellsum import ReebVector, sine
from .errors import NotInReebCone

ARMIJO = 1e-4
MAX_BACKTRACK = 60
ILL_CONDITIONED = 1e12
ROUNDING_FLOOR = 4  # ulps of f: a smaller squared Newton decrement does not show in f
NEWTON_STOPS = ("gradient", "rounding_floor")
CERTIFICATE_PRECISION = 106  # bits: twice float64's 53


@dataclass(frozen=True)
class MinimizeResult:
    xi_star: ReebVector
    nvol_star: float
    grad_norm: float
    barycenter_residual: float
    iterations: int
    converged: bool
    stop_reason: str  # "gradient", "rounding_floor", "line_search", "max_iter" or "zero_volume"


def slice_basis(u0):
    """Orthonormal float basis of the direction space {<u0, .> = 0}."""
    u = np.asarray(u0, dtype=float)
    _, _, vh = np.linalg.svd(u.reshape(1, -1))
    return vh[1:].T  # rows 2..n of V^T span the orthogonal complement


def minimize(cs, u0, sigma_rays, n, tolerance, max_iter) -> MinimizeResult:
    """Global minimizer of <u0, xi>^n vol(xi) over the Reeb cone, rescaled so
    that <u0, xi> = n.

    Starts at the sum of the Reeb cone's rays on the slice.  It is converged
    when Newton stopped on the gradient test or at the rounding floor of f
    and, at CERTIFICATE_PRECISION, both the projected gradient norm and the
    sine between -grad vol and u0 are at most the tolerance (the sine is NaN,
    so never, when grad vol = 0).  `stop_reason` says why Newton stopped.
    Without cells vol = 0 and grad vol = 0 everywhere: it returns the start
    at once, with stop_reason "zero_volume", and runs neither Newton nor the
    certificates.
    """
    total = [sum(Fraction(c) for c in col) for col in zip(*sigma_rays)]
    a0 = sum(a * b for a, b in zip(u0, total))
    x0 = np.asarray([float(x / a0) for x in total])
    if not cs.cells:
        a = float(sum(x * y for x, y in zip(u0, x0)))
        return MinimizeResult(
            xi_star=ReebVector.real(x0 * (n / a)),
            nvol_star=0.0,
            grad_norm=0.0,
            barycenter_residual=float("nan"),
            iterations=0,
            converged=False,
            stop_reason="zero_volume",
        )
    u0f = np.asarray([float(x) for x in u0])
    xi_hat, iters, stop_reason = _newton(cs, u0f, x0, tolerance, max_iter)

    with mpmath.workprec(CERTIFICATE_PRECISION):
        _, g = cs.evaluate(tuple(mpmath.mpf(float(x)) for x in xi_hat), 1)
        u0m = tuple(mpmath.mpf(x.numerator) / x.denominator for x in u0)
        uu = sum(x * x for x in u0m)
        gu = sum(a * b for a, b in zip(g, u0m))
        proj = [gi - gu / uu * ui for gi, ui in zip(g, u0m)]
        grad_norm = float(mpmath.sqrt(sum(x * x for x in proj)))
        residual = float(sine(g, u0m))

    a = float(sum(x * y for x, y in zip(u0, xi_hat)))
    xi_star = ReebVector.real(np.asarray(xi_hat) * (n / a))
    return MinimizeResult(
        xi_star=xi_star,
        nvol_star=float(sum(x * y for x, y in zip(u0, xi_star)) ** n * cs.evaluate(xi_star)[0]),
        grad_norm=grad_norm,
        barycenter_residual=residual,
        iterations=iters,
        converged=bool(stop_reason in NEWTON_STOPS and grad_norm <= tolerance and residual <= tolerance),
        stop_reason=stop_reason,
    )


def _newton(cs, u0, x0, tol, max_iter):
    """Damped Newton in an orthonormal basis of the slice, staying in the open cone.

    Each iteration makes one order-2 kernel call, plus one volume call per
    line-search step.  With the Newton step s, lam2 = -<grad, s> is the
    squared Newton decrement; when it is at most ROUNDING_FLOOR ulps of f,
    Armijo cannot judge the step, so it is taken once without a line search,
    kept only if it stays in the open cone, and Newton stops.  Returns
    (xi, iterations, stop_reason).
    """
    v = slice_basis(u0)
    xi = np.asarray(x0, dtype=float)
    for it in range(1, max_iter + 1):
        f0, g, h = cs.evaluate(tuple(float(x) for x in xi), 2)
        gp = v.T @ np.asarray(g, dtype=float)
        if float(np.linalg.norm(gp)) <= tol:
            return xi, it - 1, "gradient"
        hp = v.T @ np.asarray(h, dtype=float) @ v
        step = None
        try:
            if np.linalg.cond(hp) <= ILL_CONDITIONED:
                step = np.linalg.solve(hp, -gp)
        except np.linalg.LinAlgError:
            step = None
        newton = step is not None and gp @ step < 0
        if not newton:
            step = -gp
        slope = float(gp @ step)
        f0 = float(f0)
        if newton and -slope <= ROUNDING_FLOOR * np.spacing(abs(f0)):
            cand = xi + v @ step
            try:
                cs.pairings(tuple(float(x) for x in cand))
                xi = cand
            except NotInReebCone:
                pass
            return xi, it, "rounding_floor"
        alpha = 1.0
        for _ in range(MAX_BACKTRACK):
            cand = xi + alpha * (v @ step)
            try:
                fc = float(cs.evaluate(tuple(float(x) for x in cand))[0])
            except NotInReebCone:
                fc = None
            if fc is not None and fc <= f0 + ARMIJO * alpha * slope:
                break
            alpha *= 0.5
        else:
            return xi, it, "line_search"
        xi = cand
    return xi, max_iter, "max_iter"
