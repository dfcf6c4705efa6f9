"""Exact rational polyhedral kernel.

Cones are generated by primitive integer rays (`VCone`), and unbounded
polyhedra are stored as their sorted irredundant vertices plus a tail cone
(`Polyhedron`).  This module is the one place that normalizes polyhedral
input: `VCone` makes rays primitive and distinct, `Polyhedron` reads its
vertices off the homogenized cone over its points and tail, and
`vertex_enumeration` takes plain (normal, offset) rows.  Inequalities become
generators by double description, split into an integer start (`_dd_start`)
and a step that adds one normal (`_dd_step`); each ray carries the bitmask
of the normals it is tight on.  The full pass, `_dd_pass`, runs once per
cone (`dual_cone`, cached as `VCone._dual`), which covers a `Polyhedron`'s
homogenized cone, and once per vertex enumeration, on the homogenized rows.
The kernel's own polyhedra (`vertex_enumeration`, `translate`) skip the
constructor's pass.  A search that adds normals one at a time, as the
complexity-one cell refinement does, extends a `_Pass` started from a
cone's recorded dual.  The start works in integers too: the start normals,
the integer cofactors that give the start rays and the lineality basis of a
rank-deficient system are all read off the one fraction-free elimination
of `_exact`, so no `Fraction` row reduction runs here.

A cone and its dual are recorded as each other's `_dual` together with the
pass's incidence, one bitmask per ray over the other cone's rays
(`VCone._tight`).  Containment reads the dual's generators, and equality
with a pointed cone that cone's extreme rays too; full dimension,
pointedness, extreme rays and the pulling triangulation read the bitmasks.
Everything here is exact: no floating point enters this module.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd
from operator import and_

from . import _exact as ex
from .errors import InfeasibleSystem, NotFullDimensional, NotPointed


class _MinusInfinity:
    """Sentinel for an unbounded-below support value."""

    def __repr__(self):
        return "MinusInfinity"

    def __lt__(self, other):
        return other is not MINUS_INFINITY


MINUS_INFINITY = _MinusInfinity()


@dataclass(frozen=True)
class VCone:
    """Cone generated by rays, stored as primitive integer vectors in order."""

    rays: tuple
    ambient_dim: int

    def __init__(self, rays, ambient_dim=None):
        rays = list(rays)
        if ambient_dim is None:
            if not rays:
                raise ValueError("ambient_dim required for a cone with no rays")
            ambient_dim = len(rays[0])
        seen = set()
        prim = []
        for r in rays:
            if len(r) != ambient_dim:
                raise ValueError("ray dimension mismatch")
            p = ex.primitive(r)
            if p not in seen:
                seen.add(p)
                prim.append(p)
        object.__setattr__(self, "rays", tuple(prim))
        object.__setattr__(self, "ambient_dim", ambient_dim)

    @classmethod
    def _of(cls, rays, ambient_dim):
        """A cone on rays the kernel has already made primitive and distinct."""
        c = object.__new__(cls)
        object.__setattr__(c, "rays", tuple(rays))
        object.__setattr__(c, "ambient_dim", ambient_dim)
        return c

    @cached_property
    def _dual(self):
        """The dual cone, computed once per cone."""
        return dual_cone(self)

    @cached_property
    def _tight(self):
        """Per ray, the bitmask of the rays of `_dual` it pairs to 0 with."""
        self._dual  # every pairing records the masks of both cones (`_pair`)
        return self.__dict__["_tight"]

    def contains(self, v):
        """Whether v pairs nonnegatively with every generator of the dual."""
        return all(ex.dot(y, v) >= 0 for y in self._dual.rays)

    def is_equivalent(self, other):
        """Set equality with the pointed cone `other`.  Every generating set
        of a pointed cone holds each of its extreme rays (primitive, as the
        rays here are), so self's rays must contain them and lie in other.
        Reads other's dual only: no pass runs over self."""
        return (
            self.ambient_dim == other.ambient_dim
            and set(other.extreme_rays()) <= set(self.rays)
            and all(map(other.contains, self.rays))
        )

    def is_full_dimensional(self):
        """Whether no generator of the dual pairs to 0 with every ray."""
        return _spans(self._tight)

    def is_pointed(self):
        """Whether the cone contains no line, i.e. its dual is full dimensional."""
        return self._dual.is_full_dimensional()

    def extreme_rays(self):
        """Irredundant generating subset, preserving stored order.

        A stored ray is extreme when no other stored ray lies on every dual
        generator it lies on (any generating set of the dual will do).  A cone
        that contains a line has no extreme rays.
        """
        if not self.is_pointed():
            raise NotPointed("cone contains a line; it has no extreme rays")
        masks = self._tight
        return tuple(
            r for i, (r, m) in enumerate(zip(self.rays, masks))
            if not any(o & m == m for j, o in enumerate(masks) if j != i)
        )


@dataclass(frozen=True)
class Polyhedron:
    """conv(compact_vertices) + tail cone, with sorted irredundant vertices.

    The constructor takes any points and reads the vertices off the extreme
    rays (v, s), s > 0, of the homogenized cone over (point, 1) and
    (tail ray, 0), one double-description pass; the tail must be pointed.
    """

    compact_vertices: tuple
    tail: VCone

    def __init__(self, points, tail):
        n = tail.ambient_dim
        # (N, e) with v = N / e is primitive: e is the lcm of v's denominators
        hom = VCone([(*nums, e) for nums, e in map(ex.cleared, map(ex.fracvec, points))]
                    + [(*u, 0) for u in tail.rays], n + 1)
        verts = [tuple(Fraction(x, h[n]) for x in h[:n]) for h in hom.extreme_rays() if h[n] > 0]
        object.__setattr__(self, "compact_vertices", tuple(sorted(verts)))
        object.__setattr__(self, "tail", tail)

    @classmethod
    def _of(cls, vertices, tail):
        """A polyhedron on vertices the kernel has already made sorted and irredundant."""
        p = object.__new__(cls)
        object.__setattr__(p, "compact_vertices", tuple(vertices))
        object.__setattr__(p, "tail", tail)
        return p

    def translate(self, v):
        v = ex.fracvec(v)
        return Polyhedron._of([ex.vec_add(w, v) for w in self.compact_vertices], self.tail)


@dataclass(frozen=True)
class SimplicialPiece:
    """One simplicial subcone of a triangulation: n primitive rays, |det| != 0."""

    rays: tuple
    det_abs: int


def _spans(masks):
    """Whether rays with these tight masks generate a full-dimensional cone:
    there is a ray and no dual generator is tight on all of them."""
    return reduce(and_, masks, -1) == 0


def _dd_start(rows, n):
    """(rays, start, lineality_basis): the start of double description over
    nonzero primitive integer rows in R^n.

    The fraction-free elimination of `_exact` picks the first t independent
    rows, t the rank, indexed by `start`; call them B.  Start ray k is column
    k of B^T adj(B B^T), which pairs positively with row k of B and to 0 with
    the others, so its mask holds the bits of the other start rows.  The
    lineality basis is the nullspace of B, needed only when t < n; B and all
    the rows have the same reduced row echelon form, so it is the nullspace
    of all of them.
    """
    start = ex.independent_rows(rows)
    basis = [rows[i] for i in start]
    lin = ex.nullspace(basis) if len(start) < n else ()
    adj = ex.adjugate([[ex.dot(a, b) for b in basis] for a in basis])  # symmetric
    rays = []
    for k in range(len(start)):
        r = ex.primitive([sum(c * b[j] for c, b in zip(adj[k], basis)) for j in range(n)])
        rays.append((r, sum(1 << i for j, i in enumerate(start) if j != k)))
    return rays, start, tuple(ex.primitive(b) for b in lin)


def _dd_step(rays, a, i, t):
    """The (ray, mask) list after adding the primitive integer normal a as
    bit i, in a pass of rank t.

    Rays on the nonnegative side stay, in order, and gain bit i where they
    pair to 0.  A ray on the positive side and one on the negative side span
    a 2-face, and are combined, exactly when they share at least t - 2 tight
    normals and no third ray is tight on all of them; the combinations
    follow in order of the positive, then the negative ray.
    """
    bit = 1 << i
    vals = [sum([x * y for x, y in zip(a, r)]) for r, _ in rays]
    new = [(r, mask | bit if v == 0 else mask) for (r, mask), v in zip(rays, vals) if v >= 0]
    for p, (rp, mp) in enumerate(rays):
        if vals[p] <= 0:
            continue
        for q, (rq, mq) in enumerate(rays):
            if vals[q] >= 0:
                continue
            shared = mp & mq
            if shared.bit_count() < t - 2:
                continue
            if any(mask & shared == shared for k, (_, mask) in enumerate(rays) if k != p and k != q):
                continue
            w = [vals[p] * y - vals[q] * x for x, y in zip(rp, rq)]
            g = gcd(*w)
            new.append((tuple(c // g for c in w), shared | bit))
    return new


def _dd_pass(normals, n):
    """(pairs, lineality_basis) of { y : <a, y> >= 0 for a in normals }.

    The cone equals cone(pointed rays) + span(lineality_basis).  The pairs
    are (ray, mask), sorted: each pointed ray, primitive and in the row space
    of the normals, with the bitmask of the nonzero normals it is tight on.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): start
    from the simplicial cone that t independent normals cut out of the row
    space (`_dd_start`), then add the other normals one at a time
    (`_dd_step`), all in integer arithmetic.
    """
    rows = [ex.primitive(a) for a in normals if not ex.is_zero_vec(a)]
    if not rows:
        return [], tuple(ex.primitive(b) for b in ex.identity(n))
    rays, start, lin = _dd_start(rows, n)
    for i, a in enumerate(rows):
        if i not in start:
            rays = _dd_step(rays, a, i, len(start))
    rays.sort()
    return rays, lin


class _Pass:
    """A double-description pass that a search extends one normal at a time.

    `normals` are the distinct primitive normals added so far and `pairs`
    the (ray, mask) pairs of the pointed cone they cut out, each mask over
    the normals.  The normals span R^n, so every step has rank n.  Extending
    a pass returns a new one and leaves the old one as it was, so a search
    can branch from any pass.
    """

    __slots__ = ("normals", "pairs")

    def __init__(self, normals, pairs):
        self.normals = normals
        self.pairs = pairs

    @classmethod
    def dual_of(cls, c):
        """The pass whose normals are the rays of the full-dimensional cone c:
        the extreme rays of c's dual with their recorded masks.  Redundant
        rays of the recorded dual are left out, since a step's adjacency
        test holds only among extreme rays."""
        dual = c._dual
        ext = set(dual.extreme_rays())
        return cls(c.rays, [(y, m) for y, m in zip(dual.rays, dual._tight) if y in ext])

    def add(self, a):
        """The pass after the integer normal a; a zero normal, or one whose
        primitive is already a normal, adds nothing."""
        if any(a):
            a = ex.primitive(a)
            if a not in self.normals:
                return _Pass(self.normals + (a,), _dd_step(self.pairs, a, len(self.normals), len(a)))
        return self

    def spans(self):
        """Whether the cone cut out so far is full dimensional."""
        return _spans([m for _, m in self.pairs])

    def cone(self):
        """The cone on the sorted rays, paired with the cone on the normals."""
        pairs = sorted(self.pairs)
        n = len(self.normals[0])
        cone = VCone._of([u for u, _ in pairs], n)
        _pair(VCone._of(self.normals, n), cone, [m for _, m in pairs])
        return cone


def _pair(c, dual, masks):
    """Record c and dual as each other's `_dual`, with the incidence both
    read: masks[j] is the bitmask of the rays of c that pair to 0 with
    dual.rays[j].  Every pairing goes through here, so the masks a cone
    holds always index the rays of the `_dual` it holds."""
    tight = tuple(sum(1 << j for j, m in enumerate(masks) if m >> i & 1) for i in range(len(c.rays)))
    c.__dict__.update(_dual=dual, _tight=tight)
    dual.__dict__.update(_dual=c, _tight=tuple(masks))


def dual_cone(c: VCone) -> VCone:
    """Generators of { y : <y, r> >= 0 for every ray r of c }.

    If c is not full dimensional the dual contains the orthogonal complement
    of span(c); it is returned through +/- basis ray pairs, which pair to 0
    with every ray of c.  The two cones are recorded as each other's `_dual`
    with the pass's incidence.
    """
    pairs, lin = _dd_pass(c.rays, c.ambient_dim)
    rays = [r for r, _ in pairs]
    masks = [m for _, m in pairs]
    everything = (1 << len(c.rays)) - 1
    for b in lin:
        rays += [b, tuple(-x for x in b)]
        masks += [everything, everything]
    dual = VCone._of(rays, c.ambient_dim)
    _pair(c, dual, masks)
    return dual


def _extreme_cone(c: VCone) -> VCone:
    """The cone on the sorted extreme rays of the pointed cone c, recorded
    as the dual of c's dual in place of c."""
    ext = sorted(c.extreme_rays())
    tight = dict(zip(c.rays, c._tight))
    irredundant = VCone._of(ext, c.ambient_dim)
    _pair(c._dual, irredundant, [tight[y] for y in ext])
    return irredundant


def vertex_enumeration(inequalities, n) -> Polyhedron:
    """Irredundant vertices plus tail cone of the pointed system
    { x in R^n : <a, x> + c >= 0 for (a, c) in inequalities }.

    One kernel call on the homogenization {<a, x> + c s >= 0, s >= 0}, each
    row made primitive and entered once: its rays with s > 0 are the
    vertices x / s, those with s = 0 span the tail.  A zero a with c >= 0
    adds nothing, and one with c < 0 forces s = 0, so no vertex.
    """
    rows = {}
    for a, c in inequalities:
        if len(a) != n:
            raise ValueError("inequality dimension mismatch")
        hat = ex.fracvec((*a, c))
        if not ex.is_zero_vec(hat):
            rows[ex.primitive(hat)] = None
    rows[(0,) * n + (1,)] = None
    pairs, lin = _dd_pass(list(rows), n + 1)
    vertices = sorted(tuple(Fraction(x, r[n]) for x in r[:n]) for r, _ in pairs if r[n] > 0)
    if not vertices:
        raise InfeasibleSystem("inequality system has no solution")
    if lin:
        raise NotPointed("solution set contains a line; no vertex description")
    return Polyhedron._of(vertices, VCone._of([r[:n] for r, _ in pairs if r[n] == 0], n))


def triangulate_cone(c: VCone):
    """Pulling triangulation into simplicial subcones using only rays of c.

    Faces are bitmasks over the extreme rays in stored order.  The facets of
    a face are the inclusion-maximal proper sets among its intersections with
    the facets of c, in the order of sorted(c._dual.rays); each face is the
    union of its earliest extreme ray coned over, in that order, the facets it
    does not lie on.  Pieces and their order depend only on the stored order.
    """
    n = c.ambient_dim
    if not c.is_full_dimensional():
        raise NotFullDimensional("cone rays span a proper subspace")
    ext = c.extreme_rays()
    keep = [c.rays.index(r) for r in ext]
    dual = c._dual
    facets = [
        sum(1 << k for k, i in enumerate(keep) if dual._tight[j] >> i & 1)
        for j in sorted(range(len(dual.rays)), key=dual.rays.__getitem__)
    ]

    def tri(face, dim):
        if face.bit_count() == dim:
            return [face]
        apex = face & -face
        subs = list(dict.fromkeys(face & f for f in facets if face & f != face))
        sub_facets = [g for g in subs if not any(h != g and h & g == g for h in subs)]
        return [apex | cell for g in sub_facets if not g & apex for cell in tri(g, dim - 1)]

    pieces = []
    for cell in tri((1 << len(ext)) - 1, n):
        rays = tuple(r for i, r in enumerate(ext) if cell >> i & 1)
        pieces.append(SimplicialPiece(rays=rays, det_abs=abs(ex.int_det(rays))))
    return pieces


def polyhedron_min(p: Polyhedron, u):
    """min_{v in p} <u, v>: finite iff u pairs >= 0 with every tail ray."""
    u = ex.fracvec(u)
    if any(ex.dot(u, r) < 0 for r in p.tail.rays):
        return MINUS_INFINITY
    return min(ex.dot(u, v) for v in p.compact_vertices)
