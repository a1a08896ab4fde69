"""Exact convex geometry for rational polytopes in dimension <= 4.

Polytopes are carried in vertex form.  Hulls, volumes, Minkowski sums,
halfspace clips and containment tests are all computed in exact rational
arithmetic.  Every dimension shares one facet hull (_facets): an
incremental beneath-beyond construction that inserts the farthest outside
point first, as Quickhull does (Edelsbrunner, Algorithms in Combinatorial
Geometry, 1987; Barber, Dobkin and Huhdanpaa, ACM TOMS 1996).  It runs on
the points scaled to integers and returns simplicial facets with integer
inner normals.  A point set that does not span its space is projected onto
coordinates that are injective on its affine hull and handled one
dimension down.  The facet hull that finds a polytope's vertices stays
with it and answers all its volume and containment queries; a polytope
built directly from its vertices hulls them once, on first use.

Every hull enters through one integer entry (_hull_ints): integer points
over one common denominator.  `hull` scales its rational
input to it; `minkowski_sum` adds the two vertex sets as integers over
one denominator; okounkov hands it a body's extreme feet and their ray
points as integers over lcm(1..cutoff), so no point of a large input is
ever a Fraction.

The module also holds the package's one covolume algorithm.  The region
of the positive orthant under a Newton polyhedron conv(G) + orthant is
star-shaped with respect to the origin, so its volume is the sum of the
cones from the origin over simplices that triangulate the bounded faces.
_covolume_form folds integer point sets G_j into their unit-weight sums,
keeps those above no other one with the package's one antichain kernel
(_minimal; monomial imports it for minimal generators and plane products),
and triangulates the bounded faces once: the kept sums are a sorted
antichain, so dimension 1 keeps its one point, dimension 2 the convex
turns of its staircase (_staircase_chain), and dimensions 3 and 4 read
them off one facet hull of the kept points and one far point per axis.
_form_covolume then reads covol(sum_j n_j*P_j) at any weights n >= 0,
zeros included.  orthant_covolume is the one-set form at weight 1, and the
exact growth in multiplicity reads one form per part.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial, lcm
from operator import add, mul
from typing import Iterable, Sequence

from .linalg import int_det

RationalPoint = tuple[Fraction, ...]

DIM_CAP = 4

_RATIONAL = (int, Fraction)


@dataclass(frozen=True)
class RationalPolytope:
    """Vertex representation of a bounded convex polytope (possibly empty)."""

    dim: int
    vertices: tuple[RationalPoint, ...]

    def volume(self) -> Fraction:
        return volume(self)

    def contains_point(self, point: Sequence[Fraction]) -> bool:
        return contains_point(self, point)

    def contains_body(self, other: "RationalPolytope") -> bool:
        return contains_body(self, other)

    def is_empty(self) -> bool:
        return not self.vertices

    @cached_property
    def _hull(self) -> tuple:
        """The facet hull of the (nonempty) vertices, for a polytope built
        directly from them; _hull_ints places it on every other polytope.
        See _hull_ints for its form."""
        return _hull_ints(self.dim, *_scaled(self.vertices))._hull


@dataclass(frozen=True)
class Halfspace:
    """The region normal . x <= bound."""

    normal: tuple[Fraction, ...]
    bound: Fraction


def hull(dim: int, points: Iterable[Sequence]) -> RationalPolytope:
    """Convex hull: the polytope on the extreme points of the input set."""
    # ints and Fractions carry their own numerator and denominator, so only
    # other coordinates (floats, strings) are converted, and each only once.
    pts = [tuple(c if type(c) in _RATIONAL else Fraction(c) for c in p) for p in points]
    if any(len(p) != dim for p in pts):
        raise ValueError("point length does not match dimension")
    den, ints = _scaled(pts)
    return _hull_ints(dim, den, set(ints))


def _hull_ints(dim: int, den: int, ints: Iterable[tuple[int, ...]]) -> RationalPolytope:
    """Convex hull of the points ints / den, for integer points ints.

    Scaling by 1/den keeps the lexicographic order, so the vertices come
    out sorted, as reduced Fractions, whatever common denominator is used.
    Every hull comes through here, so this is where the dimension cap holds.

    The facet hull that finds the vertices stays on the polytope as its
    cached _hull, (den, base, cols, facets), for all its volume and
    containment queries.  base holds the points at an affine basis of
    their affine hull and cols coordinates injective on it.  facets is the
    points' _facets, which triangulate the whole boundary, when they span
    the space; otherwise it is the hull of their projection onto cols,
    whose vertices are the images of the vertices (None for one point).
    """
    if dim < 1 or dim > DIM_CAP:
        raise ValueError(f"dimension must be between 1 and {DIM_CAP}")
    ints = sorted(ints)
    if not ints:
        return RationalPolytope(dim, ())
    frame, cols = _frame(ints)
    if len(cols) == dim:
        facets = _facets(ints, frame)
        verts = [ints[i] for i in sorted(_vertex_indices(facets, dim, len(ints)))]
    elif cols:
        lift = {tuple(p[c] for c in cols): p for p in ints}
        facets = _hull_ints(len(cols), den, lift)
        verts = sorted(lift[tuple(int(c * den) for c in v)] for v in facets.vertices)
    else:
        facets, verts = None, ints[:1]
    p = RationalPolytope(dim, tuple(tuple(Fraction(c, den) for c in v) for v in verts))
    # cached_property reads the instance dict first
    p.__dict__["_hull"] = den, [ints[i] for i in frame], cols, facets
    return p


def volume(p: RationalPolytope) -> Fraction:
    """Exact volume; zero for empty or lower-dimensional polytopes."""
    if len(p.vertices) <= p.dim:
        return Fraction(0)
    den, base, cols, facets = p._hull
    if len(cols) < p.dim:
        return Fraction(0)
    # Cones from one vertex over every facet.  A facet's normal is the
    # cofactor vector of its edges, so normal . apex - offset is the
    # determinant of the cone; it is zero for facets through the apex.
    apex = base[0]
    total = sum(_dot(normal, apex) - offset for normal, offset, _ in facets)
    return Fraction(total, factorial(p.dim) * den**p.dim)


def _normal_through(points: Sequence[Sequence], dim: int):
    """Normal of the affine hyperplane through dim integer points, or None
    if degenerate.

    The cofactors of the difference matrix, so the normal is an integer
    vector: in dimension 3 the cross product of the two differences, in
    the others one closed-form or Bareiss minor per coordinate.
    """
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(dim)] for p in points[1:]]
    if dim == 3:
        (a0, a1, a2), (b0, b1, b2) = diffs
        normal = [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]
        return normal if any(normal) else None
    normal = []
    sign = 1
    for k in range(dim):
        minor = [[row[i] for i in range(dim) if i != k] for row in diffs]
        normal.append(sign * int_det(minor))
        sign = -sign
    if all(x == 0 for x in normal):
        return None
    return normal


def _dot(a: Sequence, b: Sequence):
    return sum(map(mul, a, b))


def _scaled(points: Sequence[Sequence]) -> tuple[int, list[tuple[int, ...]]]:
    """The points times the lcm of their coordinate denominators, as ints."""
    den = lcm(*(c.denominator for p in points for c in p))
    return den, [tuple(c.numerator * (den // c.denominator) for c in p) for p in points]


def _frame(pts: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """An affine basis of the integer points, and coordinates that see it.

    Returns (indices, cols): indices starts at 0, the points there are
    affinely independent and span the affine hull of all points, and cols
    holds one coordinate per dimension of that hull (the pivot columns of
    the differences), so projecting onto cols is injective on it.
    Fraction-free elimination; stops once the points span the space.
    """
    d = len(pts[0])
    base = pts[0]
    basis: list[tuple[int, list[int]]] = []
    indices = [0]
    for i in range(1, len(pts)):
        row = [a - b for a, b in zip(pts[i], base)]
        for c, b in basis:
            k = row[c]
            if k:
                row = [x * b[c] - k * y for x, y in zip(row, b)]
        pivot = next((c for c, x in enumerate(row) if x), None)
        if pivot is not None:
            basis.append((pivot, row))
            indices.append(i)
            if len(basis) == d:
                break
    return indices, sorted(c for c, _ in basis)


def _facets(pts: Sequence[Sequence[int]], frame: Sequence[int]) -> list[tuple]:
    """Triangulated boundary of the hull of integer points spanning R^d.

    Starts from the simplex on the d+1 affinely independent points at
    frame.  Every facet keeps the points strictly beyond it; the farthest
    point beyond some facet is inserted by replacing all facets it sees
    with cones from it over their horizon ridges (the ridges seen from one
    side only).  The points those facets kept move to the first new facet
    they see; a point that sees none lies in the hull of the points so far
    and is dropped.  A point on a facet's hyperplane is not beyond it, so
    coplanar and collinear inputs need no special case: adjacent facets
    may be coplanar, and _vertex_indices tells the hull's vertices from
    the other points of the triangulation.

    Returns (normal, offset, indices) triples with normal . x >= offset on
    every point and equality on the d points at the sorted indices.
    """
    d = len(pts[0])
    inner = [sum(pts[i][k] for i in frame) for k in range(d)]  # (d+1) x an interior point

    def facet(idx):
        normal = _normal_through([pts[i] for i in idx], d)
        offset = _dot(normal, pts[idx[0]])
        if _dot(normal, inner) < (d + 1) * offset:
            normal = [-x for x in normal]
            offset = -offset
        return normal, offset, idx, []

    def assign(facets, indices):
        for i in indices:
            for f in facets:
                if _dot(f[0], pts[i]) < f[1]:
                    f[3].append(i)
                    break

    live = [facet(tuple(j for j in frame if j != i)) for i in frame]
    assign(live, [i for i in range(len(pts)) if i not in frame])
    while True:
        top = next((f for f in live if f[3]), None)
        if top is None:
            return [f[:3] for f in live]
        normal, offset, _, outside = top
        apex = max(outside, key=lambda i: offset - _dot(normal, pts[i]))
        seen = [_dot(f[0], pts[apex]) < f[1] for f in live]
        visible = [f for f, s in zip(live, seen) if s]
        ridges = Counter(r for f in visible for r in combinations(f[2], d - 1))
        new = [facet(tuple(sorted(r + (apex,)))) for r, n in ridges.items() if n == 1]
        live = [f for f, s in zip(live, seen) if not s] + new
        assign(new, [i for f in visible for i in f[3] if i != apex])


def _vertex_indices(facets: list[tuple], d: int, n: int) -> list[int]:
    """Indices below n of the triangulation's points that are vertices of
    the hull: those where the normals of the facets through the point have
    rank d.  A point inside a face of dimension >= 1 fails, since every
    facet through it contains that face."""
    normals = defaultdict(list)
    for normal, _, idx in facets:
        for i in idx:
            if i < n:
                normals[i].append(normal)
    origin = (0,) * d
    # the normals have rank d iff they and the origin span R^d affinely
    return [i for i, ns in normals.items() if len(_frame([origin, *ns])[1]) == d]


def minkowski_sum(p: RationalPolytope, q: RationalPolytope) -> RationalPolytope:
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    if p.is_empty() or q.is_empty():
        return RationalPolytope(p.dim, ())
    den, ints = _scaled(p.vertices + q.vertices)
    us, vs = ints[: len(p.vertices)], ints[len(p.vertices) :]
    return _hull_ints(p.dim, den, {tuple(map(add, u, v)) for u in us for v in vs})


def clip(p: RationalPolytope, h: Halfspace) -> RationalPolytope:
    """Intersection with the halfspace normal . x <= bound.

    Candidate vertices are the kept vertices plus every crossing of the
    boundary hyperplane with a segment between an inner and an outer vertex;
    the hull of the candidates is the clipped polytope (crossings on
    non-edge segments land inside and are discarded by the hull).
    """
    if len(h.normal) != p.dim:
        raise ValueError("halfspace dimension mismatch")
    vals = [sum(Fraction(n) * c for n, c in zip(h.normal, v)) for v in p.vertices]
    bound = Fraction(h.bound)
    inside = [v for v, s in zip(p.vertices, vals) if s <= bound]
    outside = [(v, s) for v, s in zip(p.vertices, vals) if s > bound]
    if not outside:
        return p
    candidates = list(inside)
    for v, s in zip(p.vertices, vals):
        if s >= bound:
            continue
        for w, sw in outside:
            t = (bound - s) / (sw - s)
            candidates.append(tuple(a + t * (b - a) for a, b in zip(v, w)))
    if not candidates:
        return RationalPolytope(p.dim, ())
    return hull(p.dim, candidates)


def contains_point(p: RationalPolytope, point: Sequence) -> bool:
    x = tuple(Fraction(c) for c in point)
    if len(x) != p.dim:
        raise ValueError("point dimension mismatch")
    if p.is_empty():
        return False
    den, base, cols, facets = p._hull
    xden, (y,) = _scaled([x])  # x = y / xden, the vertices are ints / den
    if len(cols) < p.dim:
        # Flat: x must lie in the affine hull, then test one dimension down.
        span = [tuple(c * xden for c in b) for b in base] + [tuple(c * den for c in y)]
        if len(_frame(span)[1]) > len(cols):
            return False
        # facets holds the hull of the projection onto cols here
        return not cols or contains_point(facets, tuple(x[c] for c in cols))
    return all(_dot(normal, y) * den >= offset * xden for normal, offset, _ in facets)


def contains_body(p: RationalPolytope, q: RationalPolytope) -> bool:
    """True when every vertex of q lies in p (hence q subset of p by convexity)."""
    return all(contains_point(p, v) for v in q.vertices)


def orthant_extremes(points: Iterable[Sequence]) -> list[tuple]:
    """Extreme points of conv(points) + positive orthant, sorted.

    Only the points above no other one can be extreme, and they span the
    same polyhedron, so the antichain kernel (_minimal) runs first; in
    dimension 1 the one point it keeps is the answer.  Dimension 2 then
    keeps the convex turns of that staircase (_staircase_chain, which
    every dim-2 Newton polyhedron and exact covolume runs through): the
    facet path below is 15 to 60 times slower per call on 7 to 5000 point
    staircases (6 ms against 0.09 s at 5000 points), so the sweep stays.
    Dimensions 3 and 4 read the vertices off the facet hull Q of the kept
    points and their far points, below.

    With P = conv(kept) + orthant, the hull Q of kept and the far points
    t + e_k (t in kept, k an axis, after scaling to integers) lies in P.
    A far point is never on a face of Q whose inner normal u is strictly
    positive, as u.(t + e_k) > u.t, so those faces are the bounded faces
    of P.  A point s of kept that is not a vertex of P is none of Q either:
    if s = t + r with t in conv(kept) and 0 != r >= 0, then s lies inside
    the segment from t to s + c*r, a point of the hull of s and its far
    points for small c > 0; otherwise r = 0 is forced and s lies inside a
    segment of conv(kept).  So the vertices of P are the points of kept
    that are vertices of Q.  Every point needs its own far points for this:
    with only one far point per axis (as _covolume_form uses), a point
    above a segment of P, such as (1, 2, 0) above the segment from
    (2, 0, 0) to (0, 3, 0), can be a vertex of Q.
    """
    pts = sorted({tuple(p) for p in points})
    if not pts:
        return []
    dim = len(pts[0])
    kept = _minimal(pts, dim)
    if dim == 1:
        return list(kept)
    if dim == 2:
        return _staircase_chain(kept)
    _, ints = _scaled(kept)
    n = len(ints)
    ints += [tuple(c + (j == k) for j, c in enumerate(p)) for p in ints[:n] for k in range(dim)]
    facets = _facets(ints, [0] + [n + k for k in range(dim)])
    return sorted(kept[i] for i in _vertex_indices(facets, dim, n))


def _staircase_chain(stair: Sequence[tuple]) -> list[tuple]:
    """Vertices of conv(stair) + positive orthant, for a plane staircase:
    points sorted by x rising with y strictly falling, as _minimal leaves
    them and as a level's minimal generators come.  A monotone chain keeps
    the strictly convex turns; every point is a candidate, so it needs no
    sort and no dominance pass."""
    stack: list[tuple] = []
    for p in stair:
        x, y = p
        # pop the last point while it is not a strict left turn from its
        # predecessor to p
        while len(stack) >= 2:
            (ox, oy), (ax, ay) = stack[-2], stack[-1]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break
            stack.pop()
        stack.append(p)
    return stack


def _minimal(pts: list[tuple], dim: int) -> tuple[tuple, ...]:
    """Antichain kernel: the points of pts that lie above no other one.

    pts are sorted, deduplicated points of length dim with int or Fraction
    coordinates: monomial exponents, or the points spanning a Newton
    polyhedron.  Lexicographic order puts every dominator before its
    victims, which each sweep relies on.  The result keeps that order.
    """
    if not pts:
        return ()
    if dim == 1:
        return (pts[0],)
    if dim == 2:
        # x ascending, y ascending within equal x: a point survives iff its
        # y is strictly below every kept y so far.
        kept2: list[tuple] = []
        best_y: int | None = None
        for p in pts:
            if best_y is None or p[1] < best_y:
                kept2.append(p)
                best_y = p[1]
        return tuple(kept2)
    if dim == 3:
        return _minimalize3(pts)
    return _minimal_bits(pts, dim)


def _minimal_bits(pts: list[tuple], dim: int) -> tuple[tuple, ...]:
    """Dominance by bitsets, for four and more dimensions.

    Bit i stands for pts[i].  For each axis and each value v on it, the
    prefix mask holds the points whose coordinate there is <= v; the AND
    of a point's d masks is the set of points below it, so the point is
    minimal iff that AND is its own bit.  The masks take
    sum(distinct values per axis) * n bits.
    """
    masks = []
    for k in range(dim):
        at: dict[int, int] = {}
        for i, p in enumerate(pts):
            at[p[k]] = at.get(p[k], 0) | (1 << i)
        acc = 0
        for v in sorted(at):
            acc |= at[v]
            at[v] = acc
        masks.append(at)
    kept = []
    for i, p in enumerate(pts):
        below = -1
        for mask, c in zip(masks, p):
            below &= mask[c]
        if below == 1 << i:
            kept.append(p)
    return tuple(kept)


def _minimalize3(pts: list[tuple]) -> tuple[tuple, ...]:
    """Linear-logarithmic antichain filter for three dimensions.

    Points arrive lexicographically sorted, so a dominator always precedes
    its victim.  The survivors' (y, z) profile is kept as a front with y
    ascending and z strictly decreasing; the rightmost entry with y' <= y
    then carries the least z among all candidates, so one lookup decides
    dominance.
    """
    kept: list[tuple] = []
    fy: list[int] = []
    fz: list[int] = []
    for p in pts:
        y, z = p[1], p[2]
        i = bisect.bisect_right(fy, y) - 1
        if i >= 0 and fz[i] <= z:
            continue
        kept.append(p)
        j = bisect.bisect_left(fy, y)
        k = j
        while k < len(fy) and fz[k] >= z:
            k += 1
        fy[j:k] = [y]
        fz[j:k] = [z]
    return tuple(kept)


def _covolume_form(point_sets: Iterable[Iterable[tuple]], dim: int) -> tuple[tuple, tuple]:
    """The simplices from which covol(sum_j n_j*P_j) is read at every n >= 0,
    for P_j = conv(G_j) + positive orthant and the integer point sets G_j.

    Lemma.  Let P_j = conv(G_j) + R^d_{>=0}, for G_j the generators of
    the level I_j, let P(n) = sum_j n_j*P_j, and let every n_j > 0.  For
    each inner normal nu > 0 the face of P(n) where nu is least is
    sum_j n_j*P_j^nu, so the normal fan of P(n) does not depend on n.
    Hence:
    - each point g = sum_j g_j (g_j in G_j) on a bounded face P(1)^nu has
      every g_j in P_j^nu, since nu.g = sum_j nu.g_j and each term is at
      least the least value of nu on P_j;
    - g -> phi_n(g) = sum_j n_j*g_j therefore sends every simplex of one
      triangulation of the bounded faces of P(1) into the same face of
      P(n), and each vertex of P(1) (one decomposition, vertex by vertex)
      to the matching vertex of P(n);
    - the cone volume from the origin over a chain that lies in a
      hyperplane depends only on the chain's boundary (Stokes), so, face
      dimension by face dimension, the images of the simplices on a
      bounded face of P(1) cover the matching face of P(n) exactly once,
      counted with orientation;
    - the unbounded faces of P(n) lie in coordinate hyperplanes, as every
      level holds a pure power of every variable, and add no volume.
    So covol(P(n)) = sum_sigma eps_sigma*det(phi_n(sigma))/d!, where
    eps_sigma is the sign of sigma's determinant at n = 1.

    That sum F(n) is a polynomial in n, and it holds where some n_j = 0
    too.  For n0 >= 0 with an entry > 0, Q = sum_j P_j (in the orthant) and
    q0 in Q, P(n0) + t*q0 lies in P(n0) + t*Q = P(n0 + t*1), inside P(n0),
    for t > 0; the translate's covolume tends to covol(P(n0)) as t -> 0+,
    so F(n0) = lim F(n0 + t*1) = covol(P(n0)).  At n = 0 every image is
    the origin and F(0) = 0.  So one form answers every n >= 0.

    The sets are folded in one at a time, keeping one decomposition per
    distinct sum and only the sums above no other one (_minimal): a sum
    above another lies on no bounded face, and neither does any sum built
    on it.  The kept sums are a sorted antichain, so the simplices are the
    one kept sum (dimension 1) or the segments of _staircase_chain
    (dimension 2).  In dimensions 3 and 4 they are the facets
    with a strictly positive inner normal of the hull Q' of the n kept
    sums and d far points T + e_k, where T is one more than the largest
    coordinate of the sums on each axis: n + d points in all.
    - Each far point is >= every sum, so Q' lies in
      P = conv(sums) + R^d_{>=0}, and Q' contains every sum.
    - So for every nu > 0 the least value of nu on Q' equals its least
      value on P, which conv(sums) attains, and only sums attain it on
      Q', since nu.(T + e_k) > nu.g for every sum g.  Hence the face of
      Q' where nu is least is the face of P where nu is least.
    - The faces of P where some nu > 0 is least are its bounded faces,
      so the facets of Q' with a strictly positive inner normal are
      exactly the bounded facets of P.
    - Q' is full-dimensional: every sum lies strictly below the
      hyperplane through the far points, which are affinely independent.
      For the same reason the first sum and the far points are a frame
      for _facets.
    Every set must hold a pure power of every axis; the origin alone (no
    sets, or the unit ideal) spans no simplex of nonzero volume.

    Returns (decompositions, simplices): the decomposition (g_1, ..., g_r)
    of each point of the simplices, and per simplex (eps, indices of its d
    points).
    """
    sums: dict[tuple[int, ...], tuple] = {(0,) * dim: ()}
    for gens in point_sets:
        grown: dict[tuple[int, ...], tuple] = {}
        for u, dec in sums.items():
            for g in gens:
                key = tuple(map(add, u, g))
                if key not in grown:
                    grown[key] = dec + (g,)
        sums = {p: grown[p] for p in _minimal(sorted(grown), dim)}
    if dim <= 2:
        chain = _staircase_chain(list(sums)) if dim == 2 else list(sums)
        simplices = [(p,) for p in chain] if dim == 1 else list(zip(chain, chain[1:]))
    else:
        pts = list(sums)
        n = len(pts)
        top = [max(c) + 1 for c in zip(*pts)]
        pts += [tuple(t + (j == k) for j, t in enumerate(top)) for k in range(dim)]
        facets = _facets(pts, [0] + [n + k for k in range(dim)])
        simplices = [
            tuple(pts[i] for i in idx) for normal, _, idx in facets if all(x > 0 for x in normal)
        ]
    index = {p: i for i, p in enumerate(dict.fromkeys(p for sim in simplices for p in sim))}
    signed = tuple(
        (1 if int_det(sim) > 0 else -1, tuple(index[p] for p in sim)) for sim in simplices
    )
    return tuple(sums[p] for p in index), signed


def _form_covolume(form: tuple[tuple, tuple], weights: Sequence[int], dim: int) -> Fraction:
    """covol(sum_j w_j*P_j) from the covolume form of the P_j (see
    _covolume_form): each point's image sum_j w_j*g_j, then the signed cone
    determinants of the simplices over d!."""
    decs, simplices = form
    images = [
        [sum(w * g[k] for w, g in zip(weights, dec)) for k in range(dim)] for dec in decs
    ]
    total = sum(eps * int_det([images[i] for i in idx]) for eps, idx in simplices)
    return Fraction(total, factorial(dim))


def orthant_covolume(gens: Sequence[tuple], dim: int) -> Fraction:
    """Volume between the positive orthant boundary and the Newton polyhedron.

    gens must contain a pure power of every coordinate axis so that the
    region is bounded.  It is the one-set covolume form (_covolume_form)
    read at weight 1, where each signed determinant is its absolute value.
    """
    pts = {tuple(g) for g in gens}
    if any(len(p) != dim for p in pts):
        raise ValueError("point length does not match dimension")
    den, ints = _scaled(pts)
    return _form_covolume(_covolume_form([ints], dim), (1,), dim) / den**dim
