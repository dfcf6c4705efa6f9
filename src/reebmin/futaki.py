"""Futaki invariants as directional derivatives of the normalized volume.

For toric and complexity-one data alike the derivative is assembled from the
closed-form volume and gradient of the cell-sum kernel,

    Fut(xi0; eta) = n A(xi0)^(n-1) A(-eta) vol(xi0) + A(xi0)^n <grad vol(xi0), -eta>,

exact when xi0 and eta are rational.  A scan over supplied directions
reports per-direction signs only: it certifies nothing beyond the tested
degenerations.
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
    """The functional u0 of the data: toric data carry their own, a divisor
    needs it given."""
    if isinstance(data, ToricData):
        return data.u0
    if isinstance(data, PolyhedralDivisor):
        if u0 is None:
            raise ValueError("u0 is required for complexity-one data")
        return ex.fracvec(u0)
    raise TypeError(f"unsupported data object {type(data).__name__}")


def futaki_invariant(data, xi0, eta, u0=None):
    """Derivative of the normalized volume at xi0 in direction -eta."""
    u0 = _weight(data, u0)
    xi = tuple(xi0)
    eta = tuple(eta)
    for name, v in (("u0", u0), ("Reeb vector", xi), ("eta", eta)):
        check_length(name, v, data._cellsum.dim)
    a = sum(x * y for x, y in zip(u0, xi))
    a_eta = sum(x * y for x, y in zip(u0, eta))
    vol, g = data._cellsum.evaluate(xi, 1)
    n = data.n
    d_vol = sum(gk * (-ek) for gk, ek in zip(g, eta))
    return n * a ** (n - 1) * (-a_eta) * vol + a**n * d_vol


def normalized_direction(u0, xi0, eta):
    """Projection (A(xi0) eta - A(eta) xi0) / A(xi0)^2 onto the slice {A = 0}."""
    u0 = ex.fracvec(u0)
    xi = tuple(xi0)
    eta = tuple(eta)
    check_length("Reeb vector", xi, len(u0))
    check_length("eta", eta, len(u0))
    a0 = sum(x * y for x, y in zip(u0, xi))
    ae = sum(x * y for x, y in zip(u0, eta))
    if not a0 > 0:
        raise ValueError("A(xi0) must be positive")
    return tuple((a0 * e - ae * x) * (1 / (a0 * a0)) for e, x in zip(eta, xi))


def semistable_scan(data, xi0, etas, tolerance=None, u0=None) -> FutakiReport:
    """Evaluate the Futaki invariant along each direction and report signs.

    The verdict covers only the supplied directions.  The default sign
    tolerance is 1e-9 for both kinds of data, whose invariants are closed
    forms.
    """
    if tolerance is None:
        tolerance = 1e-9
    weight = _weight(data, u0)
    entries = []
    for eta in etas:
        fut = futaki_invariant(data, xi0, eta, u0=u0)
        entries.append((tuple(eta), fut, normalized_direction(weight, xi0, eta)))
    min_fut = min((float(f) for _, f, _ in entries), default=float("inf"))
    return FutakiReport(
        entries=tuple(entries),
        min_fut=min_fut,
        all_nonnegative=bool(min_fut >= -tolerance),
        tolerance=float(tolerance),
    )
