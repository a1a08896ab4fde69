"""Exact convex geometry for rational polytopes in dimension <= 4.

Polytopes are carried in vertex form.  Hulls, volumes, Minkowski sums,
halfspace clips and containment tests are all computed in exact rational
arithmetic: dimension 1 and 2 have direct sweeps, dimension 3 and 4 use
linear-programming extreme-point filters and brute-force facet enumeration
over vertex subsets, which is entirely adequate at the vertex counts that
occur here.

The module also computes `orthant_covolume`: the volume of the region of
the positive orthant lying under the Newton polyhedron spanned by a set of
integer exponents.  That region is star-shaped with respect to the origin,
so its volume is the sum of pyramids over the bounded facets (the facets
whose inner normal is strictly positive).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd
from typing import Iterable, Sequence

from .linalg import frac_det, int_det, lp_feasible, matrix_rank

RationalPoint = tuple[Fraction, ...]

DIM_CAP = 4


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


@dataclass(frozen=True)
class Halfspace:
    """The region normal . x <= bound."""

    normal: tuple[Fraction, ...]
    bound: Fraction


def _as_points(points: Iterable[Sequence]) -> list[RationalPoint]:
    return sorted({tuple(Fraction(c) for c in p) for p in points})


def hull(dim: int, points: Iterable[Sequence]) -> RationalPolytope:
    """Convex hull: the polytope on the extreme points of the input set."""
    if dim < 1 or dim > DIM_CAP:
        raise ValueError(f"dimension must be between 1 and {DIM_CAP}")
    pts = _as_points(points)
    for p in pts:
        if len(p) != dim:
            raise ValueError("point length does not match dimension")
    if len(pts) <= 1:
        return RationalPolytope(dim, tuple(pts))
    if dim == 1:
        return RationalPolytope(1, (min(pts), max(pts)))
    if dim == 2:
        return RationalPolytope(2, tuple(sorted(_chain_hull(pts))))
    ext = [p for p in pts if not _in_hull_of_others(p, pts)]
    return RationalPolytope(dim, tuple(sorted(ext)))


def _cross(o: Sequence, a: Sequence, b: Sequence):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain_hull(pts: list) -> list:
    """Andrew's monotone chain; pts pre-sorted lexicographically.

    Returns the hull in counterclockwise order, collinear points dropped.
    """
    if len(pts) <= 2:
        return list(pts)
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _in_hull_of_others(p: RationalPoint, pts: list[RationalPoint]) -> bool:
    others = [q for q in pts if q != p]
    if not others:
        return False
    d = len(p)
    a = [[q[i] for q in others] for i in range(d)]
    a.append([Fraction(1)] * len(others))
    b = list(p) + [Fraction(1)]
    return lp_feasible(a, b)


def volume(p: RationalPolytope) -> Fraction:
    """Exact volume; zero for empty or lower-dimensional polytopes."""
    verts = list(p.vertices)
    if len(verts) <= p.dim:
        return Fraction(0)
    if p.dim == 1:
        return max(v[0] for v in verts) - min(v[0] for v in verts)
    base = verts[0]
    diffs = [[v[i] - base[i] for i in range(p.dim)] for v in verts[1:]]
    if matrix_rank(diffs) < p.dim:
        return Fraction(0)
    if p.dim == 2:
        ring = _chain_hull(sorted(verts))
        return _shoelace(ring)
    total = Fraction(0)
    for simplex in _triangulate(verts, p.dim):
        rows = [[simplex[k][i] - simplex[0][i] for i in range(p.dim)] for k in range(1, p.dim + 1)]
        total += abs(_det(rows))
    return total / factorial(p.dim)


def _shoelace(ring: list) -> Fraction:
    s = Fraction(0)
    n = len(ring)
    for i in range(n):
        x0, y0 = ring[i][0], ring[i][1]
        x1, y1 = ring[(i + 1) % n][0], ring[(i + 1) % n][1]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2


def _normal_through(points: Sequence[Sequence], dim: int):
    """Normal of the affine hyperplane through dim points, or None if degenerate.

    Computed by cofactor expansion of the difference matrix, so integer
    inputs give an integer normal.
    """
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(dim)] for p in points[1:]]
    normal = []
    sign = 1
    for k in range(dim):
        minor = [[row[i] for i in range(dim) if i != k] for row in diffs]
        normal.append(sign * _det(minor))
        sign = -sign
    if all(x == 0 for x in normal):
        return None
    return normal


def _det(rows: list[list]):
    if all(isinstance(x, int) for row in rows for x in row):
        return int_det(rows)
    return frac_det(rows)


def _primitive(normal: Sequence, offset) -> tuple[tuple, object]:
    """Scale (normal, offset) to a primitive integer form, preserving orientation."""
    den = 1
    for x in list(normal) + [offset]:
        f = Fraction(x)
        den = den * f.denominator // gcd(den, f.denominator)
    ints = [int(Fraction(x) * den) for x in normal]
    off = int(Fraction(offset) * den)
    g = 0
    for x in ints + [off]:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
        off = off // g
    return tuple(ints), off


def _supporting_facets(verts: list, dim: int):
    """All facets of conv(verts), assumed full-dimensional.

    Yields (normal, offset, indices) with normal . v >= offset for every
    vertex and equality exactly on the facet.  Brute force over dim-subsets;
    fine for the small vertex counts this kernel is used at.
    """
    seen: set = set()
    out = []
    n = len(verts)
    for combo in combinations(range(n), dim):
        normal = _normal_through([verts[i] for i in combo], dim)
        if normal is None:
            continue
        vals = [sum(normal[i] * v[i] for i in range(dim)) for v in verts]
        ref = vals[combo[0]]
        if all(v >= ref for v in vals):
            pass
        elif all(v <= ref for v in vals):
            normal = [-x for x in normal]
            vals = [-v for v in vals]
            ref = -ref
        else:
            continue
        key = _primitive(normal, ref)
        if key in seen:
            continue
        seen.add(key)
        idxs = tuple(i for i in range(n) if vals[i] == ref)
        out.append((tuple(normal), ref, idxs))
    return out


def _triangulate(verts: list, dim: int) -> list[list]:
    """Triangulate a full-dimensional polytope given by its vertices.

    Returns simplices as (dim+1)-tuples of vertex coordinates.  Cones from
    the first vertex over triangulated facets that do not contain it.
    """
    verts = sorted(verts)
    if len(verts) == dim + 1:
        return [verts]
    if dim == 1:
        return [[verts[0], verts[-1]]]
    if dim == 2:
        ring = _chain_hull(verts)
        return [[ring[0], ring[i], ring[i + 1]] for i in range(1, len(ring) - 1)]
    base = verts[0]
    simplices = []
    for normal, ref, idxs in _supporting_facets(verts, dim):
        if sum(normal[i] * base[i] for i in range(dim)) == ref:
            continue
        face_pts = [verts[i] for i in idxs]
        for face_simplex in _triangulate_facet(face_pts, normal, dim):
            simplices.append([base] + face_simplex)
    return simplices


def _triangulate_facet(face_pts: list, normal: Sequence, dim: int) -> list[list]:
    """Triangulate a (dim-1)-face embedded in R^dim by projecting out one axis."""
    axis = max(range(dim), key=lambda k: abs(normal[k]))
    proj = [tuple(p[i] for i in range(dim) if i != axis) for p in face_pts]
    index_of = {}
    for i, q in enumerate(proj):
        index_of.setdefault(q, i)
    sub = _triangulate(sorted(set(proj)), dim - 1)
    return [[face_pts[index_of[q]] for q in simplex] for simplex in sub]


def minkowski_sum(p: RationalPolytope, q: RationalPolytope) -> RationalPolytope:
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    if p.is_empty() or q.is_empty():
        return RationalPolytope(p.dim, ())
    sums = {tuple(a + b for a, b in zip(u, v)) for u in p.vertices for v in q.vertices}
    return hull(p.dim, sums)


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
        return RationalPolytope(p.dim, p.vertices)
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
    if len(p.vertices) == 1:
        return p.vertices[0] == x
    if p.dim == 1:
        lo = min(v[0] for v in p.vertices)
        hi = max(v[0] for v in p.vertices)
        return lo <= x[0] <= hi
    if p.dim == 2:
        ring = _chain_hull(sorted(p.vertices))
        if len(ring) <= 2:
            return _on_segment(ring, x)
        return all(
            _cross(ring[i], ring[(i + 1) % len(ring)], x) >= 0 for i in range(len(ring))
        )
    a = [[v[i] for v in p.vertices] for i in range(p.dim)]
    a.append([Fraction(1)] * len(p.vertices))
    b = list(x) + [Fraction(1)]
    return lp_feasible(a, b)


def _on_segment(ring: list, x: RationalPoint) -> bool:
    a, b = ring[0], ring[-1]
    if _cross(a, b, x) != 0:
        return False
    return all(min(a[i], b[i]) <= x[i] <= max(a[i], b[i]) for i in range(len(x)))


def contains_body(p: RationalPolytope, q: RationalPolytope) -> bool:
    """True when every vertex of q lies in p (hence q subset of p by convexity)."""
    return all(contains_point(p, v) for v in q.vertices)


def orthant_extremes(points: Iterable[Sequence]) -> list[tuple]:
    """Extreme points of conv(points) + positive orthant.

    A point survives iff it is not in the convex hull of the others fattened
    by the orthant.  Dominance and segment prefilters handle the bulk; the
    exact LP settles the rest.
    """
    pts = sorted({tuple(p) for p in points})
    if not pts:
        return []
    dim = len(pts[0])
    if dim == 1:
        return [min(pts)]
    # Dominance filter: anything above another point is never extreme.
    chain: list[tuple] = []
    if dim == 2:
        best_y = None
        for p in pts:
            if best_y is None or p[1] < best_y:
                chain.append(p)
                best_y = p[1]
        stack: list[tuple] = []
        for p in chain:
            while len(stack) >= 2 and _cross(stack[-2], stack[-1], p) <= 0:
                stack.pop()
            stack.append(p)
        return stack
    kept = []
    by_degree = sorted(pts, key=lambda p: (sum(p), p))
    for p in by_degree:
        if not any(all(q[i] <= p[i] for i in range(dim)) and q != p for q in kept):
            kept.append(p)
    survivors = []
    for p in kept:
        others = [q for q in kept if q != p]
        if _pair_covers(p, others, dim):
            continue
        if not others or not _orthant_lp(p, others, dim):
            survivors.append(p)
    return sorted(survivors)


def _pair_covers(p: tuple, others: list[tuple], dim: int) -> bool:
    # Cheap certificate: p above a segment between two other points.
    n = len(others)
    for i in range(n):
        a = others[i]
        for j in range(i + 1, n):
            b = others[j]
            lo, hi = Fraction(0), Fraction(1)
            ok = True
            for k in range(dim):
                coef = a[k] - b[k]
                rhs = p[k] - b[k]
                if coef == 0:
                    if rhs < 0:
                        ok = False
                        break
                elif coef > 0:
                    hi = min(hi, Fraction(rhs) / Fraction(coef))
                else:
                    lo = max(lo, Fraction(rhs) / Fraction(coef))
                if lo > hi:
                    ok = False
                    break
            if ok and lo <= hi:
                return True
    return False


def _orthant_lp(p: tuple, others: list[tuple], dim: int) -> bool:
    # Feasibility of: sum(l_q * q) <= p, sum(l_q) = 1, l >= 0 (slacks added).
    ncols = len(others)
    a = []
    for i in range(dim):
        row = [Fraction(q[i]) for q in others]
        row.extend(Fraction(1 if j == i else 0) for j in range(dim))
        a.append(row)
    a.append([Fraction(1)] * ncols + [Fraction(0)] * dim)
    b = [Fraction(c) for c in p] + [Fraction(1)]
    return lp_feasible(a, b)


def orthant_covolume(gens: Sequence[tuple], dim: int) -> Fraction:
    """Volume between the positive orthant boundary and the Newton polyhedron.

    gens must contain a pure power of every coordinate axis so that the
    region is bounded.  Exact; integer arithmetic throughout except the
    final division.
    """
    if dim == 1:
        return Fraction(min(g[0] for g in gens))
    ext = orthant_extremes(gens)
    if len(ext) == 1:
        # Single extreme point e: region is the box below it only when e has
        # a zero coordinate pattern... a lone extreme generator with all
        # coordinates positive cannot be primary unless dim == 1, so the only
        # legal case here is the unit ideal.
        return Fraction(0)
    if dim == 2:
        total = Fraction(0)
        for a, b in zip(ext, ext[1:]):
            total += abs(a[0] * b[1] - b[0] * a[1])
        return Fraction(total, 2)
    total = Fraction(0)
    for normal, ref, idxs in _supporting_facets(ext, dim):
        if len(idxs) == len(ext) and all(x < 0 for x in normal):
            # Degenerate hull: every extreme point lies on this hyperplane, so
            # both orientations support it; use the inner (positive) one.
            normal = tuple(-x for x in normal)
            ref = -ref
        if any(x <= 0 for x in normal):
            continue
        face_pts = [ext[i] for i in idxs]
        for simplex in _triangulate_facet(face_pts, normal, dim):
            total += abs(_det([list(p) for p in simplex]))
    return total / factorial(dim)
