"""Futaki invariants as directional derivatives of the normalized volume.

On the torus the Futaki invariant is the derivative of the normalized
volume F(xi) = A(xi)^n vol(xi) (Martelli-Sparks-Yau), for toric and
complexity-one data alike.  A scan forms its gradient at xi0 once,

    grad F(xi0) = n A(xi0)^(n-1) vol(xi0) u0 + A(xi0)^n grad vol(xi0),

from one kernel call, and then gives each direction eta one dot product,
Fut(xi0; eta) = -<grad F(xi0), eta>, and its normalized direction.  At a
rational xi0 grad F is read off the kernel's integer sums; an entry is
exact iff xi0 and eta are both rational, and float otherwise.  A scan
checks u0, xi0 and every direction first.  It reports per-direction signs
only: it certifies nothing beyond the tested degenerations.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import _exact as ex
from ._cellsum import _is_rational, check_length
from ._newton import check_tolerance
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


def normalized_direction(u0, xi0, eta):
    """Projection (A(xi0) eta - A(eta) xi0) / A(xi0)^2 onto the slice {A = 0}."""
    u0, xi, eta = ex.fracvec(u0), tuple(xi0), tuple(eta)
    check_length("Reeb vector", xi, len(u0))
    check_length("eta", eta, len(u0))
    return _entries(None, u0, xi)(eta)[1]


def _positive(a):
    if not a > 0:
        raise ValueError("A(xi0) must be positive")


def _real_entries(u0, xi, a, inv, grad):
    """eta -> (-<grad, eta>, (a eta - A(eta) xi) inv) in the arithmetic of
    the given values.  The sum starts at int 0, so it is never -0.0."""

    def entry(eta):
        a_eta = sum([u * e for u, e in zip(u0, eta)])
        direction = tuple((a * e - a_eta * x) * inv for e, x in zip(eta, xi))
        return sum([-g * e for g, e in zip(grad, eta)]), direction

    return entry


def _entries(data, u0, xi):
    """eta -> (Fut, normalized eta) at xi0, from grad F formed once; data
    None stands for vol = 0 and grad vol = 0, which leaves the directions.

    Rational xi0: one order-1 `_integer_sums` call.  With xi0 = X / F, u0 =
    U / E, A(xi0) = a / b (b = E F), vol = V / W and grad vol = G / D, grad F
    = N / M with N = a^(n-1) (n b V D U + a W E G) and M = b^n W D E; a
    rational eta = H / K gets Fut = -<N, H> / (M K) and the direction b (a H
    - <U, H> X) / (K a^2), and a float eta the floats N_k / M, a / b, X_k / F
    and U_k / E, each one correctly rounded int division.  Any other xi0:
    one `evaluate` call (the array path for an all-float xi0, with u0 in
    floats) and grad F in xi0's arithmetic.
    """
    n, dim = data.n if data else 1, len(xi)
    if not _is_rational(xi):
        vol, grad = data._cellsum.evaluate(xi, 1) if data else (0, (0,) * dim)
        if all(type(x) is float for x in xi):
            u0 = tuple(map(float, u0))
        a = sum([u * x for u, x in zip(u0, xi)])
        _positive(a)
        lead, a_n = n * a ** (n - 1) * vol, a**n
        return _real_entries(u0, xi, a, 1 / (a * a), [lead * u + a_n * g for u, g in zip(u0, grad)])
    (xs, f), sums = data._cellsum._integer_sums(xi, 1) if data else (ex.cleared(xi), ())
    ((v,), w), (g, d) = sums or (((0,), 1), ((0,) * dim, 1))
    us, e = ex.cleared(u0)
    a, b = sum([u * x for u, x in zip(us, xs)]), e * f
    _positive(a)
    scale, lead, mixed = a ** (n - 1), n * b * v * d, a * w * e
    big, den = [scale * (lead * u + mixed * gk) for u, gk in zip(us, g)], b**n * w * d * e
    real = _real_entries([u / e for u in us], [x / f for x in xs], a / b, b * b / (a * a), [x / den for x in big])

    def entry(eta):
        if not _is_rational(eta):
            return real(eta)
        hs, k = ex.cleared(eta)
        c, q = sum([u * h for u, h in zip(us, hs)]), k * a * a
        fut = Fraction(-sum([x * h for x, h in zip(big, hs)]), den * k)
        return fut, tuple(Fraction(b * (a * h - c * x), q) for h, x in zip(hs, xs))

    return entry


def semistable_scan(data, xi0, etas, tolerance=1e-9, u0=None) -> FutakiReport:
    """Evaluate the Futaki invariant along each direction and report signs.

    u0, xi0 and every eta are checked before anything is evaluated.  With at
    least one direction the kernel runs once, at xi0, A(xi0) must be
    positive, and grad F is formed once (`_entries`): each eta then costs
    one dot product with it and one normalized direction.  An entry is exact
    (Fractions) iff xi0 and eta are both rational; otherwise it is float (or
    in xi0's own arithmetic), a few ulps of the size of the terms of <grad
    F, eta> from the exact value at the rationals the floats store.  The
    verdict covers only the supplied directions.  The default sign
    tolerance is 1e-9 for both kinds of data, whose invariants are closed
    forms; a tolerance that is not a finite number >= 0 raises ValueError.
    """
    check_tolerance(tolerance)
    u0, xi, etas = _weight(data, u0), tuple(xi0), [tuple(eta) for eta in etas]
    check_length("Reeb vector", xi, len(u0))
    for eta in etas:
        check_length("eta", eta, len(u0))
    entries = []
    if etas:
        entry = _entries(data, u0, xi)
        entries = [(eta, *entry(eta)) for eta in etas]
    min_fut = min((float(f) for _, f, _ in entries), default=float("inf"))
    return FutakiReport(
        entries=tuple(entries),
        min_fut=min_fut,
        all_nonnegative=bool(min_fut >= -tolerance),
        tolerance=float(tolerance),
    )
