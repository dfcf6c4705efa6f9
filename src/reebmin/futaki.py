"""Futaki invariants as directional derivatives of the normalized volume.

For toric and complexity-one data alike the derivative is assembled from the
closed-form volume and gradient of the cell-sum kernel,

    Fut(xi0; eta) = n A(xi0)^(n-1) A(-eta) vol(xi0) + A(xi0)^n <grad vol(xi0), -eta>,

exact when xi0 and eta are rational.  A scan over supplied directions
evaluates the kernel once, at xi0, and reads every direction's invariant off
that volume and gradient.  It reports per-direction signs only: it certifies
nothing beyond the tested degenerations.
"""

from dataclasses import dataclass

from . import _exact as ex
from ._cellsum import check_length
from .cxonevol import PolyhedralDivisor
from .toricvol import ToricData

SCAN_DISCLAIMER = (
    "nonnegative along all tested directions; no statement about untested degenerations"
)


@dataclass(frozen=True)
class FutakiReport:
    entries: tuple  # (eta, fut, normalized_eta)
    min_fut: float
    all_nonnegative: bool
    tolerance: float
    note: str = SCAN_DISCLAIMER


def _weight(data, u0):
    """The functional u0 of the data: toric data carry their own, which a
    given u0 must equal; a divisor needs it given."""
    if isinstance(data, ToricData):
        if u0 is not None and tuple(u0) != data.u0:
            shown = ", ".join(map(str, data.u0))
            raise ValueError(f"u0 {tuple(u0)} differs from the toric data's u0 ({shown})")
        return data.u0
    if isinstance(data, PolyhedralDivisor):
        if u0 is None:
            raise ValueError("u0 is required for complexity-one data")
        return ex.fracvec(u0)
    raise TypeError(f"unsupported data object {type(data).__name__}")


def futaki_invariant(data, xi0, eta, u0=None):
    """Derivative of the normalized volume at xi0 in direction -eta."""
    return next(_invariants(data, _weight(data, u0), xi0, [eta]))


def _invariants(data, u0, xi0, etas):
    """Fut(xi0; eta) for each eta in turn, from one evaluation of vol and
    grad vol at xi0, made when the first eta has passed its length check."""
    xi = tuple(xi0)
    n, dim = data.n, data._cellsum.dim
    check_length("u0", u0, dim)
    check_length("Reeb vector", xi, dim)
    grad = None
    for eta in etas:
        eta = tuple(eta)
        check_length("eta", eta, dim)
        if grad is None:
            a = sum(x * y for x, y in zip(u0, xi))
            vol, grad = data._cellsum.evaluate(xi, 1)
            lead, a_n = n * a ** (n - 1), a**n
        a_eta = sum(x * y for x, y in zip(u0, eta))
        d_vol = sum(gk * (-ek) for gk, ek in zip(grad, eta))
        yield lead * (-a_eta) * vol + a_n * d_vol


def normalized_direction(u0, xi0, eta):
    """Projection (A(xi0) eta - A(eta) xi0) / A(xi0)^2 onto the slice {A = 0}."""
    u0 = ex.fracvec(u0)
    xi = tuple(xi0)
    eta = tuple(eta)
    check_length("Reeb vector", xi, len(u0))
    check_length("eta", eta, len(u0))
    return next(_directions(u0, xi, [eta]))


def _directions(u0, xi, etas):
    """normalized_direction for each eta in turn, with A(xi0) formed once;
    u0 rational, xi and each eta tuples of its length."""
    a0 = sum(x * y for x, y in zip(u0, xi))
    if not a0 > 0:
        raise ValueError("A(xi0) must be positive")
    inv = 1 / (a0 * a0)
    for eta in etas:
        ae = sum(x * y for x, y in zip(u0, eta))
        yield tuple((a0 * e - ae * x) * inv for e, x in zip(eta, xi))


def semistable_scan(data, xi0, etas, tolerance=None, u0=None) -> FutakiReport:
    """Evaluate the Futaki invariant along each direction and report signs.

    The verdict covers only the supplied directions.  The default sign
    tolerance is 1e-9 for both kinds of data, whose invariants are closed
    forms.
    """
    if tolerance is None:
        tolerance = 1e-9
    weight = _weight(data, u0)
    xi = tuple(xi0)
    etas = [tuple(eta) for eta in etas]
    futs = _invariants(data, weight, xi, etas)
    entries = list(zip(etas, futs, _directions(weight, xi, etas)))
    min_fut = min((float(f) for _, f, _ in entries), default=float("inf"))
    return FutakiReport(
        entries=tuple(entries),
        min_fut=min_fut,
        all_nonnegative=bool(min_fut >= -tolerance),
        tolerance=float(tolerance),
    )
