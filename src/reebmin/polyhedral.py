"""Exact rational polyhedral kernel.

Cones are generated by primitive integer rays (`VCone`), inequality systems
are `HRep` objects, and unbounded polyhedra are stored as a compact vertex
list plus a tail cone (`Polyhedron`).  One double-description pass, the
module-private `_rays_from_inequalities`, turns inequalities into generators:
it runs once per cone (`dual_cone`, cached as `VCone._dual`) and once per
vertex enumeration (by homogenization).  The pass works in integers
throughout, its setup included: a fraction-free echelon picks the start
normals and integer cofactors give the start rays, so `Fraction` row
reduction runs only for the lineality basis of a rank-deficient system.
Containment and pointedness read the dual's generators; extreme rays and
the pulling triangulation read their incidence with the dual's generators
as integer bitmasks.  Everything here is exact: no floating point enters
this module.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

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

    @cached_property
    def _dual(self):
        """The dual cone, computed once per cone."""
        return dual_cone(self)

    def contains(self, v):
        """Whether v pairs nonnegatively with every generator of the dual."""
        return all(ex.dot(y, v) >= 0 for y in self._dual.rays)

    def is_equivalent(self, other):
        """Set equality of the generated cones (mutual ray containment)."""
        if self.ambient_dim != other.ambient_dim:
            return False
        return all(other.contains(r) for r in self.rays) and all(
            self.contains(r) for r in other.rays
        )

    def span_rank(self):
        return ex.rank(self.rays) if self.rays else 0

    def is_full_dimensional(self):
        return self.span_rank() == self.ambient_dim

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
        masks = [_incidence(r, self._dual.rays) for r in self.rays]
        return tuple(
            r for i, (r, m) in enumerate(zip(self.rays, masks))
            if not any(o & m == m for j, o in enumerate(masks) if j != i)
        )


@dataclass(frozen=True)
class HRep:
    """Inequality system { x : <normal, x> + offset >= 0 }."""

    inequalities: tuple
    ambient_dim: int

    def __init__(self, inequalities, ambient_dim):
        rows = []
        seen = set()
        for normal, offset in inequalities:
            normal = ex.fracvec(normal)
            offset = ex.frac(offset)
            if len(normal) != ambient_dim:
                raise ValueError("inequality dimension mismatch")
            if ex.is_zero_vec(normal):
                if offset >= 0:
                    continue  # trivially true
                row = (tuple([0] * ambient_dim), Fraction(-1))  # canonical absurd row
            else:
                p = ex.primitive(normal)
                scale = next(Fraction(int(pc), 1) / nc for pc, nc in zip(p, normal) if nc != 0)
                row = (p, offset * scale)
            if row not in seen:
                seen.add(row)
                rows.append(row)
        object.__setattr__(self, "inequalities", tuple(rows))
        object.__setattr__(self, "ambient_dim", ambient_dim)


@dataclass(frozen=True)
class Polyhedron:
    """conv(compact_vertices) + tail cone.

    The constructor only sorts and deduplicates the vertices; the list is
    irredundant when it comes from `vertex_enumeration` or a
    `PolyhedralDivisor`.
    """

    compact_vertices: tuple
    tail: VCone

    def __init__(self, compact_vertices, tail):
        verts = sorted(set(ex.fracvec(v) for v in compact_vertices))
        object.__setattr__(self, "compact_vertices", tuple(verts))
        object.__setattr__(self, "tail", tail)

    @property
    def ambient_dim(self):
        return self.tail.ambient_dim

    def translate(self, v):
        v = ex.fracvec(v)
        return Polyhedron([ex.vec_add(w, v) for w in self.compact_vertices], self.tail)


@dataclass(frozen=True)
class SimplicialPiece:
    """One simplicial subcone of a triangulation: n primitive rays, |det| != 0."""

    rays: tuple
    det_abs: int


def _incidence(v, vectors):
    """Bitmask of the vectors that pair to 0 with v."""
    return sum(1 << i for i, w in enumerate(vectors) if ex.dot(v, w) == 0)


def _rays_from_inequalities(normals, n):
    """Extreme rays and lineality basis of { y : <a, y> >= 0 for a in normals }.

    Returns (pointed_rays, lineality_basis); the cone equals
    cone(pointed_rays) + span(lineality_basis).  The pointed rays lie in the
    row space of the normals and come out primitive and sorted.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996): start
    from the simplicial cone that t independent normals cut out of the row
    space, t the rank, and add the other normals one at a time in integer
    arithmetic.  Each ray carries the normals it is tight on as a bitmask.  A
    ray on the positive side of the new normal and one on the negative side
    span a 2-face, and are combined, exactly when they share at least t - 2
    tight normals and no third ray is tight on all of them.

    The setup stays in the integers too.  A fraction-free echelon picks the
    first t independent normals, the rows B; start ray k is column k of
    B^T adj(B B^T), which pairs positively with row k of B and to 0 with the
    others.  The lineality basis is the nullspace of B, needed only when
    t < n; B and all the normals have the same reduced row echelon form, so
    it is the nullspace of all of them.
    """
    rows = [ex.primitive(a) for a in normals if not ex.is_zero_vec(a)]
    if not rows:
        return (), tuple(ex.primitive(b) for b in ex.identity(n))
    start = ex.independent_rows(rows, n)
    t = len(start)
    basis = [rows[i] for i in start]
    lin = ex.nullspace(basis) if t < n else ()
    adj = ex.adjugate([[ex.dot(a, b) for b in basis] for a in basis])  # symmetric
    rays = []
    for k in range(t):
        r = ex.primitive([sum(c * b[j] for c, b in zip(adj[k], basis)) for j in range(n)])
        rays.append((r, sum(1 << i for j, i in enumerate(start) if j != k)))
    for i, a in enumerate(rows):
        if i in start:
            continue
        bit = 1 << i
        vals = [ex.dot(a, r) for r, _ in rays]
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
        rays = new
    return tuple(sorted(r for r, _ in rays)), tuple(ex.primitive(b) for b in lin)


def dual_cone(c: VCone) -> VCone:
    """Generators of { y : <y, r> >= 0 for every ray r of c }.

    If c is not full dimensional the dual contains the orthogonal complement
    of span(c); it is returned through +/- basis ray pairs.  The two cones
    are recorded as each other's `_dual`: the rays of c generate the dual of
    the result, which is all that `contains`, `is_pointed`, `extreme_rays`
    and `triangulate_cone` read.
    """
    pointed, lin = _rays_from_inequalities(c.rays, c.ambient_dim)
    rays = list(pointed)
    for b in lin:
        rays.append(b)
        rays.append(tuple(-x for x in b))
    dual = VCone(rays, c.ambient_dim)
    dual.__dict__["_dual"] = c
    c.__dict__["_dual"] = dual
    return dual


def vertex_enumeration(h: HRep) -> Polyhedron:
    """Irredundant vertices plus tail cone of a pointed inequality system.

    One kernel call on the homogenization {<a, x> + c s >= 0, s >= 0}: its
    rays with s > 0 are the vertices x / s, those with s = 0 span the tail.
    """
    n = h.ambient_dim
    hats = [a + (c,) for a, c in h.inequalities] + [(0,) * n + (1,)]
    rays, lin = _rays_from_inequalities(hats, n + 1)
    vertices = [tuple(Fraction(x, r[n]) for x in r[:n]) for r in rays if r[n] > 0]
    if not vertices:
        raise InfeasibleSystem("inequality system has no solution")
    if lin:
        raise NotPointed("solution set contains a line; no vertex description")
    return Polyhedron(vertices, VCone([r[:n] for r in rays if r[n] == 0], n))


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
    facets = [_incidence(y, ext) for y in sorted(c._dual.rays)]

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
