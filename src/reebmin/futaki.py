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
from fractions import Fraction

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
    u0 = _weight(data, u0)
    pair = _pairing(u0)
    eta = tuple(eta)
    return next(_invariants(data, u0, pair, xi0, [(eta, pair(eta))]))


def _pairing(u0):
    """v -> A(v) = <u0, v> for a rational u0, with A's value and type as
    term-by-term arithmetic gives them: one Fraction for an int v; for a
    float v each term float(u0_k) * v_k, as Fraction * float computes it,
    from floats formed once; term by term otherwise."""
    us, e = ex.cleared(u0)
    uf = [float(x) for x in u0]

    def pair(v):
        if all(type(x) is float for x in v):
            return sum([a * b for a, b in zip(uf, v)])
        if all(type(x) is int for x in v):
            return Fraction(sum([a * b for a, b in zip(us, v)]), e)
        return sum(x * y for x, y in zip(u0, v))

    return pair


def _invariants(data, u0, pair, xi0, paired):
    """Fut(xi0; eta) for each (eta, A(eta)) in turn, from one evaluation of
    vol and grad vol at xi0, made when the first eta has passed its length
    check.

    A float A(xi0) meets each exact A(eta) as its float, which is what
    Fraction * float computes."""
    xi = tuple(xi0)
    n, dim = data.n, data._cellsum.dim
    check_length("u0", u0, dim)
    check_length("Reeb vector", xi, dim)
    grad = None
    for eta, a_eta in paired:
        check_length("eta", eta, dim)
        if grad is None:
            a = pair(xi)
            vol, grad = data._cellsum.evaluate(xi, 1)
            lead, a_n = n * a ** (n - 1), a**n
        if type(lead) is float and type(a_eta) is Fraction:
            a_eta = float(a_eta)
        d_vol = sum(gk * (-ek) for gk, ek in zip(grad, eta))
        yield lead * (-a_eta) * vol + a_n * d_vol


def normalized_direction(u0, xi0, eta):
    """Projection (A(xi0) eta - A(eta) xi0) / A(xi0)^2 onto the slice {A = 0}."""
    u0 = ex.fracvec(u0)
    xi = tuple(xi0)
    eta = tuple(eta)
    check_length("Reeb vector", xi, len(u0))
    check_length("eta", eta, len(u0))
    pair = _pairing(u0)
    return next(_directions(pair, xi, [(eta, pair(eta))]))


def _directions(pair, xi, paired):
    """normalized_direction for each (eta, A(eta)) in turn, with A(xi0)
    formed once; xi and each eta tuples of u0's length.  At a float xi0
    each A(eta) enters as its float, which is what Fraction * float
    computes."""
    a0 = pair(xi)
    if not a0 > 0:
        raise ValueError("A(xi0) must be positive")
    inv = 1 / (a0 * a0)
    floats = all(type(x) is float for x in xi)
    for eta, ae in paired:
        if floats and type(ae) is Fraction:
            ae = float(ae)
        yield tuple((a0 * e - ae * x) * inv for e, x in zip(eta, xi))


def semistable_scan(data, xi0, etas, tolerance=1e-9, u0=None) -> FutakiReport:
    """Evaluate the Futaki invariant along each direction and report signs.

    The verdict covers only the supplied directions.  The default sign
    tolerance is 1e-9 for both kinds of data, whose invariants are closed
    forms.
    """
    weight = _weight(data, u0)
    pair = _pairing(weight)
    xi = tuple(xi0)
    etas = [tuple(eta) for eta in etas]
    paired = [(eta, pair(eta)) for eta in etas]  # each A(eta) formed once, for both generators
    futs = _invariants(data, weight, pair, xi, paired)
    entries = list(zip(etas, futs, _directions(pair, xi, paired)))
    min_fut = min((float(f) for _, f, _ in entries), default=float("inf"))
    return FutakiReport(
        entries=tuple(entries),
        min_fut=min_fut,
        all_nonnegative=bool(min_fut >= -tolerance),
        tolerance=float(tolerance),
    )
