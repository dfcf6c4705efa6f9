"""Futaki invariants as directional derivatives of the normalized volume.

For toric and complexity-one data alike the derivative is assembled from the
closed-form volume and gradient of the cell-sum kernel,

    Fut(xi0; eta) = n A(xi0)^(n-1) A(-eta) vol(xi0) + A(xi0)^n <grad vol(xi0), -eta>,

exact when xi0 and eta are rational.  A scan checks u0, xi0 and every
direction first; then, if there is a direction, it evaluates the kernel once,
at xi0, and forms each direction's invariant and normalized direction in one
loop; at a rational xi0 a rational direction's are read off integers that
the scan clears once, one Fraction per entry.  It reports per-direction
signs only: it certifies nothing beyond the tested degenerations.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import _exact as ex
from ._cellsum import _is_rational, check_length
from .cxonevol import PolyhedralDivisor, _checked_u0
from .toricvol import ToricData

SCAN_DISCLAIMER = (
    "covers the tested directions only; no statement about untested degenerations"
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
    given u0 must equal; a divisor needs it given, checked against it."""
    if isinstance(data, ToricData):
        if u0 is not None and tuple(u0) != data.u0:
            shown = ", ".join(map(str, data.u0))
            raise ValueError(f"u0 {tuple(u0)} differs from the toric data's u0 ({shown})")
        return data.u0
    if isinstance(data, PolyhedralDivisor):
        if u0 is None:
            raise ValueError("u0 is required for complexity-one data")
        return _checked_u0(data, u0)
    raise TypeError(f"unsupported data object {type(data).__name__}")


def futaki_invariant(data, xi0, eta, u0=None):
    """Derivative of the normalized volume at xi0 in direction -eta."""
    return semistable_scan(data, xi0, [eta], u0=u0).entries[0][1]


def _pairing(u0):
    """v -> A(v) = <u0, v> for a rational u0, with A's value and type as
    term-by-term arithmetic gives them: one Fraction from cleared integers
    for a rational v (u0's alone for an int v), term by term otherwise."""
    us, e = ex.cleared(u0)

    def pair(v):
        if all(type(x) is int for x in v):
            return Fraction(sum([a * b for a, b in zip(us, v)]), e)
        if _is_rational(v):
            hs, k = ex.cleared(v)
            return Fraction(sum([a * b for a, b in zip(us, hs)]), e * k)
        return sum(x * y for x, y in zip(u0, v))

    return pair


def _slice(pair, xi):
    """(A(xi0), f) with f(eta, A(eta)) = (A(xi0) eta - A(eta) xi0) / A(xi0)^2,
    the projection onto the slice {A = 0}; A(xi0) must be positive."""
    a = pair(xi)
    if not a > 0:
        raise ValueError("A(xi0) must be positive")
    inv = 1 / (a * a)
    return a, lambda eta, a_eta: tuple((a * e - a_eta * x) * inv for e, x in zip(eta, xi))


def normalized_direction(u0, xi0, eta):
    """Projection (A(xi0) eta - A(eta) xi0) / A(xi0)^2 onto the slice {A = 0}."""
    u0, xi, eta = ex.fracvec(u0), tuple(xi0), tuple(eta)
    check_length("Reeb vector", xi, len(u0))
    check_length("eta", eta, len(u0))
    pair = _pairing(u0)
    return _slice(pair, xi)[1](eta, pair(eta))


def _exact_entries(n, vol, grad, a_xi, xi):
    """eta, A(eta) -> (Fut, normalized eta) at a rational xi0 for a rational
    eta, from integers cleared once per scan: one Fraction per entry.

    With vol = V / W, grad = G / D, A(xi0) = a / b, xi0 = X / F, eta = H / K
    and A(eta) = c / d,

        Fut = -a^(n-1) (n V b D K c + a W d <G, H>) / (b^n W D K d),
        normalized eta_k = b (a F d H_k - c b K X_k) / (a^2 F K d).
    """
    vv, ww = vol.numerator, vol.denominator
    gs, dd = ex.cleared(grad)
    xs, f = ex.cleared(xi)
    a, b = a_xi.numerator, a_xi.denominator
    scale, lead, mixed, den = -(a ** (n - 1)), n * vv * b * dd, a * ww, b**n * ww * dd

    def entry(eta, a_eta):
        hs, k = ex.cleared(eta)
        c, d = a_eta.numerator, a_eta.denominator
        gh = sum([x * y for x, y in zip(gs, hs)])
        fut = Fraction(scale * (lead * k * c + mixed * d * gh), den * k * d)
        p, q = a * f * d, c * b * k
        return fut, tuple(Fraction(b * (p * h - q * x), a * a * f * k * d) for h, x in zip(hs, xs))

    return entry


def semistable_scan(data, xi0, etas, tolerance=1e-9, u0=None) -> FutakiReport:
    """Evaluate the Futaki invariant along each direction and report signs.

    u0, xi0 and every eta are checked before anything is evaluated.  With at
    least one direction the kernel runs once, at xi0, and A(xi0) must be
    positive; one loop then forms each eta's A(eta), invariant and
    normalized direction.  At a rational xi0 a rational eta's are one
    Fraction per entry over integers cleared once per scan
    (`_exact_entries`), with the values term-by-term arithmetic gives.  At a
    float xi0 an exact A(eta) enters as its float, which is what Fraction *
    float computes.  The verdict covers only the supplied directions.  The
    default sign tolerance is 1e-9 for both kinds of data, whose invariants
    are closed forms.
    """
    u0, xi, etas = _weight(data, u0), tuple(xi0), [tuple(eta) for eta in etas]
    check_length("Reeb vector", xi, len(u0))
    for eta in etas:
        check_length("eta", eta, len(u0))
    entries = []
    if etas:
        vol, grad = data._cellsum.evaluate(xi, 1)
        pair = _pairing(u0)
        a, direction = _slice(pair, xi)
        n, floats = data.n, all(type(x) is float for x in xi)
        lead, a_n = n * a ** (n - 1), a**n
        exact = _is_rational(xi) and _exact_entries(n, vol, grad, a, xi)
        for eta in etas:
            a_eta = pair(eta)
            if exact and _is_rational(eta):
                entries.append((eta, *exact(eta, a_eta)))
                continue
            if floats and type(a_eta) is Fraction:
                a_eta = float(a_eta)
            d_vol = sum(gk * (-ek) for gk, ek in zip(grad, eta))
            entries.append((eta, lead * (-a_eta) * vol + a_n * d_vol, direction(eta, a_eta)))
    min_fut = min((float(f) for _, f, _ in entries), default=float("inf"))
    return FutakiReport(
        entries=tuple(entries),
        min_fut=min_fut,
        all_nonnegative=bool(min_fut >= -tolerance),
        tolerance=float(tolerance),
    )
