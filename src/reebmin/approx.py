"""Signed simultaneous rational approximation and cone approximation.

Irrational targets enter as rational interval enclosures; every certificate
is checked with outward rounding against the enclosure, never against a
float.  Searches scan denominators in increasing order and fail explicitly
when the configured bound is exhausted.  One integer-relation search (PSLQ,
height 12) splits rationally dependent coordinates off the cone search and
names a relation when the signed search is exhausted; its hits are only
hypotheses until a certificate verifies.
"""

import decimal
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _exact as ex
from .errors import InfeasibleSystem, SearchExhausted
from .polyhedral import vertex_enumeration

DEFAULT_QMAX = 10**6
# Integer relations are searched up to this height and accepted within the
# enclosure widths plus this slack.
_HEIGHT = 12
_SLACK = Fraction(1, 10**9)


@dataclass(frozen=True)
class Enclosure:
    """A rational interval [lo, hi] certified to contain the target number."""

    lo: Fraction
    hi: Fraction

    def __init__(self, lo, hi):
        lo = ex.frac(lo)
        hi = ex.frac(hi)
        if lo > hi:
            raise ValueError("empty enclosure")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def from_decimal(cls, text, radius=None):
        """Decimal string; the default radius is half a unit in the last place ("1.5e3": 50)."""
        center = Fraction(text)
        if radius is None:
            radius = Fraction(10) ** decimal.Decimal(text).as_tuple().exponent / 2
        else:
            radius = ex.frac(radius)
        return cls(center - radius, center + radius)

    @classmethod
    def exact(cls, value):
        value = ex.frac(value)
        return cls(value, value)

    @property
    def mid(self):
        return (self.lo + self.hi) / 2

    @property
    def width(self):
        return self.hi - self.lo

    def is_exact(self):
        return self.lo == self.hi


def _coerce(value):
    if isinstance(value, Enclosure):
        return value
    if isinstance(value, float):
        return Enclosure.exact(Fraction(value))
    if isinstance(value, str):
        if "/" in value:
            return Enclosure.exact(Fraction(value))
        return Enclosure.from_decimal(value)
    return Enclosure.exact(value)


@dataclass(frozen=True)
class SignedApprox:
    """p/q approximating target with prescribed sign pattern and gap <= eps/q."""

    p: tuple
    q: int
    target: tuple  # of Enclosure
    signs: tuple
    epsilon: Fraction


def verify_signed(sa: SignedApprox) -> bool:
    """Outward-rounded re-check of 0 < sign * (p/q - alpha) <= eps/q."""
    if not len(sa.p) == len(sa.target) == len(sa.signs):
        return False
    for p, enc, sign in zip(sa.p, sa.target, sa.signs):
        if sign == 1:
            if not (Fraction(p, sa.q) > enc.hi and Fraction(p, sa.q) <= enc.lo + sa.epsilon / sa.q):
                return False
        else:
            if not (Fraction(p, sa.q) < enc.lo and Fraction(p, sa.q) >= enc.hi - sa.epsilon / sa.q):
                return False
    return True


def dirichlet_signed(alpha, signs, epsilon, q_max=DEFAULT_QMAX) -> SignedApprox:
    """Smallest q <= q_max whose multiples land in the per-sign target boxes.

    For sign +1 the numerator is forced to ceil just above q*alpha, for -1
    just below; acceptance uses the enclosure endpoints so the returned
    certificate is valid for every number inside the enclosure.
    """
    encls = tuple(_coerce(a) for a in alpha)
    signs = tuple(int(s) for s in signs)
    if any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    if len(signs) != len(encls):
        raise ValueError("signs and targets differ in length")
    epsilon = ex.frac(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    for q in range(1, q_max + 1):
        ps = []
        for enc, sign in zip(encls, signs):
            if sign == 1:
                p = math.floor(q * enc.hi) + 1
                if not p < q * enc.lo + epsilon:
                    break
            else:
                p = math.ceil(q * enc.lo) - 1
                if not p > q * enc.hi - epsilon:
                    break
            ps.append(p)
        else:
            return SignedApprox(
                p=tuple(ps), q=q, target=encls, signs=signs, epsilon=epsilon
            )
    hint = _relation(encls)
    extra = f"; possible rational dependence {hint}" if hint else ""
    raise SearchExhausted(f"no denominator q <= {q_max} works for epsilon={epsilon}{extra}")


@dataclass(frozen=True)
class ConeApprox:
    """Rational vectors whose positive hull provably contains the target."""

    vectors: tuple  # of (RatVec, q)
    target: tuple  # of Enclosure
    epsilon: Fraction
    hull_coefficients: tuple


def verify_cone(ca: ConeApprox) -> bool:
    """Re-check integrality, per-vector distance, and hull containment."""
    r = len(ca.target)
    for vec, q in ca.vectors:
        if len(vec) != r or any((x * q).denominator != 1 for x in vec):
            return False
        for x, enc in zip(vec, ca.target):
            if not max(abs(x - enc.lo), abs(x - enc.hi)) < ca.epsilon / q:
                return False
    if len(ca.hull_coefficients) != len(ca.vectors):
        return False
    if any(a <= 0 for a in ca.hull_coefficients):
        return False
    for j in range(r):
        combo = sum(a * vec[j] for a, (vec, _) in zip(ca.hull_coefficients, ca.vectors))
        if not ca.target[j].lo <= combo <= ca.target[j].hi:
            return False
    return True


def _relation(encls):
    """Integer relation (k0, k1, ..., kr) with k0 + sum k_i alpha_i ~ 0, or None.

    `mpmath.pslq` (Ferguson-Bailey-Arno) proposes a relation between 1 and the
    midpoints' fractional parts, so an unbounded k0 stays inside its coefficient
    bound; the proposal is kept only if |k_i| <= _HEIGHT for i >= 1 and it holds
    exactly within the enclosure widths plus _SLACK.
    """
    import mpmath  # only here, so importing reebmin leaves mpmath unloaded

    mids = [e.mid for e in encls]
    for i, (m, e) in enumerate(zip(mids, encls)):
        if abs(m - round(m)) <= e.width + _SLACK:  # pslq rejects a (near) zero entry
            return (-round(m), *(int(j == i) for j in range(len(mids))))
    floors = [math.floor(m) for m in mids]
    widths = float(sum(e.width for e in encls))
    with mpmath.workprec(128):
        fracs = [mpmath.mpf((m - f).numerator) / m.denominator for m, f in zip(mids, floors)]
        # The data's own precision first: at the looser _SLACK, pslq can stop on
        # a chance near-relation above _HEIGHT before it reaches the true one.
        for floor in (2.0**-100, float(_SLACK)):
            ks = mpmath.pslq([1] + fracs, tol=widths + floor, maxcoeff=len(mids) * _HEIGHT + 1)
            if ks is not None and max(abs(k) for k in ks[1:]) <= _HEIGHT:
                break
        else:
            return None
    ks = (ks[0] - sum(k * f for k, f in zip(ks[1:], floors)), *ks[1:])
    total = ks[0] + sum(k * m for k, m in zip(ks[1:], mids))
    slack = sum(abs(k) * e.width for k, e in zip(ks[1:], encls)) + _SLACK
    return ks if abs(total) <= slack else None


def _affine_relations(encls):
    """Split coordinates into a Q-independent block and affine relations.

    Returns (block_indices, relations) where relations[i] = (c0, {j: c_j})
    expresses coordinate i as c0 + sum_j c_j * alpha_j over block indices.
    """
    block = []
    relations = {}
    for i, enc in enumerate(encls):
        if enc.is_exact():
            relations[i] = (enc.lo, {})
            continue
        ks = _relation([encls[j] for j in block] + [enc])
        if ks is None or ks[-1] == 0:
            block.append(i)
        else:
            cs = {j: Fraction(-k, ks[-1]) for k, j in zip(ks[1:-1], block) if k != 0}
            relations[i] = (Fraction(-ks[0], ks[-1]), cs)
    return block, relations


def _block_point(encls, block, relations):
    """Block coordinates whose reconstructed coordinates all lie in their enclosures.

    The block midpoint when it qualifies; otherwise the vertex centroid of
    {x in the block's box : every relation's value in its enclosure}.
    """
    mid = [encls[j].mid for j in block]
    pos = {j: k for k, j in enumerate(block)}
    rows = []
    for i, (c0, cs) in relations.items():
        a = [Fraction(0)] * len(block)
        for j, c in cs.items():
            a[pos[j]] = c
        rows += [(a, c0 - encls[i].lo), ([-x for x in a], encls[i].hi - c0)]
    if all(ex.dot(a, mid) + c >= 0 for a, c in rows):
        return mid
    for j, k in pos.items():
        e = [int(k == m) for m in range(len(block))]
        rows += [(e, -encls[j].lo), ([-x for x in e], encls[j].hi)]
    try:
        verts = vertex_enumeration(rows, len(block)).compact_vertices
    except InfeasibleSystem:
        raise SearchExhausted("the accepted relations contradict the enclosures") from None
    return [sum(col) / len(verts) for col in zip(*verts)]


def cone_rational_approx(v, epsilon, q_max=DEFAULT_QMAX) -> ConeApprox:
    """Rational vectors near v that positively span v, built per sign pattern.

    A maximal Q-independent coordinate block is approximated by the signed
    search over all its sign patterns; rationally dependent coordinates are
    reconstructed through their affine relations, which shrinks the working
    epsilon and scales the denominators accordingly.  A subset with exact
    positive hull coefficients for a block point whose reconstruction lies in
    every enclosure (`_block_point`) is then selected.
    Exactly-known rational targets short-circuit to {v} itself.
    """
    encls = tuple(_coerce(x) for x in v)
    epsilon = ex.frac(epsilon)
    r = len(encls)
    if all(e.is_exact() for e in encls):
        vec = tuple(e.lo for e in encls)
        return ConeApprox(
            vectors=((vec, math.lcm(*(x.denominator for x in vec))),),
            target=encls,
            epsilon=epsilon,
            hull_coefficients=(Fraction(1),),
        )
    block, relations = _affine_relations(encls)
    if not block:
        raise SearchExhausted("every coordinate looks rational but enclosures are inexact")
    point = _block_point(encls, block, relations)
    denom = 1
    stretch = Fraction(1)
    for c0, cs in relations.values():
        denom = math.lcm(denom, c0.denominator, *(c.denominator for c in cs.values()))
        stretch = max(stretch, sum(abs(c) for c in cs.values()))
    eps_block = epsilon / (denom * (stretch + 1))

    sub_target = [encls[j] for j in block]
    candidates = []
    for pattern in itertools.product((1, -1), repeat=len(block)):
        sa = dirichlet_signed(sub_target, pattern, eps_block, q_max)
        blockvals = {j: Fraction(p, sa.q) for j, p in zip(block, sa.p)}
        full = []
        for i in range(r):
            if i in blockvals:
                full.append(blockvals[i])
            else:
                c0, cs = relations[i]
                full.append(c0 + sum(c * blockvals[j] for j, c in cs.items()))
        candidates.append((tuple(full), sa.q * denom))

    full_rank = len(block) == r
    size = r if full_rank else len(block) + 1
    for subset in itertools.combinations(range(len(candidates)), size):
        cols = [candidates[i][0] for i in subset]
        matrix = [[cols[j][i] for j in range(size)] for i in block]
        rhs = point
        if not full_rank:  # affine combination pins the dependent coordinates too
            matrix.append([Fraction(1)] * size)
            rhs = point + [Fraction(1)]
        coeffs = ex.solve(matrix, rhs)  # a free variable is 0, so dependent columns fail too
        if coeffs is None or any(a <= 0 for a in coeffs):
            continue
        out = ConeApprox(
            vectors=tuple(candidates[i] for i in subset),
            target=encls,
            epsilon=epsilon,
            hull_coefficients=tuple(coeffs),
        )
        if verify_cone(out):
            return out
    raise SearchExhausted(
        "signed approximations found, but no subset positively spans the target"
    )
