"""Shared oracles for the property suites.

Everything here is deliberately naive: box enumeration instead of
slicing, pairwise domination scans instead of sorted sweeps, one exact LP
per point, a monotone chain in the plane and a scan over every vertex
subset instead of a facet hull.  Slow and obviously correct is the point.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from filtmult import filtration as ft
from filtmult import polytope
from filtmult.linalg import int_det
from filtmult.monomial import ideal


def brute_colength(gens, dim):
    """Count monomials outside the ideal by walking the bounding box.

    The box is closed at the per-axis pure-power exponents, which must
    exist (primary ideal); anything outside the box is inside the ideal.
    """
    bounds = []
    for ax in range(dim):
        pures = [
            g[ax]
            for g in gens
            if all(c == 0 for j, c in enumerate(g) if j != ax)
        ]
        bounds.append(min(pures))
    count = 0
    for pt in itertools.product(*(range(b) for b in bounds)):
        if not any(all(g[i] <= pt[i] for i in range(dim)) for g in gens):
            count += 1
    return count


def naive_is_primary(gens, dim):
    """A pure power of every variable among gens: one scan per axis."""
    if not gens:
        return False
    return all(
        any(all(c == 0 for j, c in enumerate(g) if j != i) for g in gens)
        for i in range(dim)
    )


def naive_pure_power(gens, axis):
    """Least exponent among the generators supported on the axis alone."""
    return min(
        g[axis] for g in gens if all(c == 0 for j, c in enumerate(g) if j != axis)
    )


def naive_minimalize(pts, dim):
    pts = set(map(tuple, pts))
    kept = []
    for p in pts:
        dominated = any(
            q != p and all(q[i] <= p[i] for i in range(dim)) for q in pts
        )
        if not dominated:
            kept.append(p)
    return tuple(sorted(kept))


def matrix_rank(a):
    """Rank of a rational matrix, by fraction-exact elimination."""
    if not a:
        return 0
    m = [[Fraction(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0])
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(rows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def det(a):
    """Determinant of a square rational matrix, by fraction-exact elimination."""
    m = [[Fraction(x) for x in row] for row in a]
    total = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            total = -total
        total *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return total


def fit_affine(xs, ys):
    """Exact least-squares fit of y = c0 + c1*x. Returns (c0, c1).

    The closed form of the normal equations: with two points this is
    interpolation, and a dataset lying exactly on a line is reproduced
    with zero residual.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two points")
    n = len(xs)
    sx = sum(xs, Fraction(0))
    sxx = sum((x * x for x in xs), Fraction(0))
    sy = sum(ys, Fraction(0))
    sxy = sum((x * y for x, y in zip(xs, ys)), Fraction(0))
    denom = n * sxx - sx * sx
    if denom == 0:
        raise ValueError("degenerate abscissae")
    c1 = (n * sxy - sx * sy) / denom
    c0 = (sy - c1 * sx) / n
    return c0, c1


def reaches(scale, total, n):
    """Exact test of total >= n*scale for total >= 0, by squaring both
    sides when the scalar is a root."""
    if not scale.is_root:
        return total * scale.q >= n * scale.p
    return total * total * scale.q >= n * n * scale.p


def level_contains(sem, a, i):
    """x^a lies in level i of a value semigroup: within the degree cap and
    above some stored generator, by a scan of every one."""
    return (
        all(c >= 0 for c in a)
        and sum(a) <= sem.bound * i
        and any(all(x >= y for x, y in zip(a, g)) for g in sem._levels[i].gens)
    )


def points_at(sem, i):
    """Every exponent of level i of a value semigroup in lexicographic
    order, by a walk of the degree-cap box; for small levels."""
    cap = sem.bound * i
    for a in itertools.product(range(cap + 1), repeat=sem.dim):
        if level_contains(sem, a, i):
            yield a


def quotient_points(sem):
    """The distinct points a/i whose hull is the semigroup's body, sorted:
    per level i, every generator g with |g| <= cap = bound*i and its ray
    points g + (cap - |g|)*e_k.  okounkov.body hulls only the extreme ones."""
    den = math.lcm(*range(1, sem.cutoff + 1))
    pts = set()
    for i in range(1, sem.cutoff + 1):
        scale, cap = den // i, sem.bound * i
        for g in sem._levels[i].gens:
            slack = cap - sum(g)
            if slack >= 0:
                foot = tuple(c * scale for c in g)
                pts.add(foot)
                for k in range(sem.dim):
                    pts.add(foot[:k] + (foot[k] + slack * scale,) + foot[k + 1 :])
    return [tuple(Fraction(c, den) for c in p) for p in sorted(pts)]


def random_primary_gens(rng: random.Random, dim: int, max_exp: int):
    """Pure powers on every axis plus a few interior points."""
    gens = []
    for ax in range(dim):
        e = [0] * dim
        e[ax] = rng.randint(1, max_exp)
        gens.append(tuple(e))
    for _ in range(rng.randint(0, dim + 1)):
        gens.append(tuple(rng.randint(0, max_exp) for _ in range(dim)))
    return gens


def random_primary_ideal(rng: random.Random, dim: int, max_exp: int):
    I = ideal(dim, random_primary_gens(rng, dim, max_exp))
    if I.is_unit():
        # a stray all-zero interior point makes the whole ring; redraw
        return random_primary_ideal(rng, dim, max_exp)
    return I


@pytest.fixture
def rng():
    return random.Random(1729)


FILTRATION_KINDS = ("adic", "fixed-plus-adic", "rounded-rational", "rounded-root", "rescaled")


def small_primary_ideal(rng: random.Random, dim: int):
    """Pure powers 1..2 on every axis and at most one 0/1 generator inside."""
    gens = [tuple(rng.randint(1, 2) if i == ax else 0 for i in range(dim)) for ax in range(dim)]
    inner = tuple(rng.randint(0, 1) for _ in range(dim))
    if any(inner):
        gens.append(inner)
    return ideal(dim, gens)


def random_filtration(rng: random.Random, dim: int, kind: str):
    """A small filtration of the given kind: adic, fixed-plus-adic,
    rounded-valuation with a rational or a sqrt(2) scale, or a stride-2
    rescale of one of those."""
    if kind == "adic":
        return ft.adic(small_primary_ideal(rng, dim))
    if kind == "fixed-plus-adic":
        fixed = ideal(dim, [tuple(rng.randint(0, 1) for _ in range(dim - 1)) + (1,)])
        return ft.fixed_plus_adic(fixed, small_primary_ideal(rng, dim))
    weights = [rng.randint(1, 2) for _ in range(dim)]
    if kind == "rounded-rational":
        return ft.rounded_valuation(weights, ft.rational_scale(rng.randint(1, 3), 2))
    if kind == "rounded-root":
        return ft.rounded_valuation(weights, ft.root_scale(2))
    if kind == "rescaled":
        return ft.rescale(random_filtration(rng, dim, rng.choice(FILTRATION_KINDS[:4])), 2)
    raise ValueError(f"unknown kind {kind!r}")


# -- geometry oracles ---------------------------------------------------------
#
# The exact LP, Andrew's monotone chain in the plane and brute-force facet
# enumeration.  An LP per point, a Fraction sweep and a scan over every
# d-subset of the vertices: slow, and independent of the hull kernel.


def lp_feasible(a, b):
    """Decide whether {x >= 0 : a x = b} is nonempty, exactly.

    Phase-one simplex with Bland's rule, rational pivots throughout.
    """
    m = len(a)
    if m == 0:
        return True
    n = len(a[0])
    rows = []
    rhs = []
    for i in range(m):
        bi = Fraction(b[i])
        if bi < 0:
            rows.append([-Fraction(x) for x in a[i]])
            rhs.append(-bi)
        else:
            rows.append([Fraction(x) for x in a[i]])
            rhs.append(bi)
    # Tableau columns: n structural vars, m artificials, rhs.
    tab = [rows[i] + [Fraction(1 if j == i else 0) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    ncols = n + m
    # Objective: minimize the sum of artificials; the reduced-cost row
    # starts as the column sums of the constraint rows.
    obj = [sum(tab[i][j] for i in range(m)) for j in range(ncols + 1)]
    for j in range(n, ncols):
        obj[j] = Fraction(0)
    while True:
        enter = next((j for j in range(n) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][ncols] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return False
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [v - f * w for v, w in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [v - f * w for v, w in zip(obj, tab[leave])]
        basis[leave] = enter
    return obj[ncols] == 0


def lp_in_hull(x, pts):
    """Is x a convex combination of pts?"""
    if not pts:
        return False
    d = len(x)
    a = [[Fraction(q[i]) for q in pts] for i in range(d)]
    a.append([Fraction(1)] * len(pts))
    return lp_feasible(a, [Fraction(c) for c in x] + [Fraction(1)])


def lp_hull_vertices(points):
    """Sorted extreme points: those outside the hull of the others."""
    pts = sorted({tuple(Fraction(c) for c in p) for p in points})
    return tuple(p for p in pts if not lp_in_hull(p, [q for q in pts if q != p]))


def lp_orthant_extremes(points):
    """Sorted extreme points of conv(points) + positive orthant: those not in
    the hull of the others fattened by the orthant (slack columns)."""
    pts = sorted({tuple(p) for p in points})
    out = []
    for p in pts:
        others = [q for q in pts if q != p]
        d = len(p)
        a = [
            [Fraction(q[i]) for q in others] + [Fraction(int(j == i)) for j in range(d)]
            for i in range(d)
        ]
        a.append([Fraction(1)] * len(others) + [Fraction(0)] * d)
        if not others or not lp_feasible(a, [Fraction(c) for c in p] + [Fraction(1)]):
            out.append(p)
    return out


def _primitive(normal, offset):
    """(normal, offset) scaled to a primitive integer form, same orientation."""
    vals = [Fraction(x) for x in list(normal) + [offset]]
    den = math.lcm(*(v.denominator for v in vals))
    ints = [int(v * den) for v in vals]
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def _normal_through(points, dim):
    """Cofactor normal of the hyperplane through dim rational points, or
    None if they are affinely dependent."""
    diffs = [[p[i] - points[0][i] for i in range(dim)] for p in points[1:]]
    normal = [
        (-1) ** k * det([[row[i] for i in range(dim) if i != k] for row in diffs])
        for k in range(dim)
    ]
    return None if all(x == 0 for x in normal) else normal


def brute_facets(verts, dim):
    """All facets of conv(verts), assumed full-dimensional, by a scan over
    every dim-subset: (inner normal, offset, indices on the facet)."""
    seen = set()
    out = []
    n = len(verts)
    for combo in itertools.combinations(range(n), dim):
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
        out.append((tuple(normal), ref, tuple(i for i in range(n) if vals[i] == ref)))
    return out


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def chain_hull(pts):
    """Andrew's monotone chain; pts pre-sorted lexicographically.

    Returns the hull in counterclockwise order, collinear points dropped.
    """
    if len(pts) <= 2:
        return list(pts)
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def brute_triangulate(verts, dim):
    """Simplices tiling conv(verts), assumed full-dimensional: cones from
    the first vertex over the triangulated facets that miss it."""
    verts = sorted(verts)
    if len(verts) == dim + 1:
        return [verts]
    if dim == 1:
        return [[verts[0], verts[-1]]]
    if dim == 2:
        ring = chain_hull(verts)
        return [[ring[0], ring[i], ring[i + 1]] for i in range(1, len(ring) - 1)]
    base = verts[0]
    simplices = []
    for normal, ref, idxs in brute_facets(verts, dim):
        if sum(normal[i] * base[i] for i in range(dim)) == ref:
            continue
        for face in _triangulate_facet([verts[i] for i in idxs], normal, dim):
            simplices.append([base] + face)
    return simplices


def _triangulate_facet(face_pts, normal, dim):
    """Triangulate a (dim-1)-face of R^dim by projecting out one axis."""
    axis = max(range(dim), key=lambda k: abs(normal[k]))
    proj = [tuple(p[i] for i in range(dim) if i != axis) for p in face_pts]
    index_of = {}
    for i, q in enumerate(proj):
        index_of.setdefault(q, i)
    sub = brute_triangulate(sorted(set(proj)), dim - 1)
    return [[face_pts[index_of[q]] for q in simplex] for simplex in sub]


def brute_volume(points, dim):
    """Volume of conv(points) from the brute-force triangulation."""
    verts = list(lp_hull_vertices(points))
    if len(verts) <= dim or matrix_rank(
        [[v[i] - verts[0][i] for i in range(dim)] for v in verts[1:]]
    ) < dim:
        return Fraction(0)
    total = Fraction(0)
    for s in brute_triangulate(verts, dim):
        total += abs(det([[s[k][i] - s[0][i] for i in range(dim)] for k in range(1, dim + 1)]))
    return total / math.factorial(dim)


def brute_orthant_covolume(gens, dim):
    """Cones from the origin over the facets of the LP extreme points with a
    strictly positive inner normal (the bounded facets of the Newton
    polyhedron); a flat set of extreme points counts its own hyperplane
    once when that hyperplane has a positive normal."""
    ext = lp_orthant_extremes(gens)
    total = Fraction(0)
    seen = set()
    for normal, ref, idxs in brute_facets(ext, dim):
        if len(idxs) == len(ext) and all(x < 0 for x in normal):
            # both orientations support a flat set; keep the positive one
            normal, ref = tuple(-x for x in normal), -ref
        if any(x <= 0 for x in normal) or _primitive(normal, ref) in seen:
            continue
        seen.add(_primitive(normal, ref))
        for s in _triangulate_facet([ext[i] for i in idxs], normal, dim):
            total += abs(det([list(p) for p in s]))
    return total / math.factorial(dim)


def far_point_covolume(points, dim):
    """Covolume of conv(points) + positive orthant from the hull of the
    points and d far points t + e_k of each point t, scaled to integers:
    cones from the origin over its facets with a strictly positive inner
    normal.  Every point keeps its own far points, so this does not rest on
    the single far point per axis of polytope._covolume_form; it shares
    only polytope._facets, polytope._frame and linalg.int_det with it.
    Dominated points may stay; dropping them first only makes the hull
    smaller."""
    pts = {tuple(map(Fraction, p)) for p in points}
    den = math.lcm(*(c.denominator for p in pts for c in p))
    ints = [tuple(int(c * den) for c in p) for p in pts]
    ints += [tuple(c + (j == k) for j, c in enumerate(p)) for p in list(ints) for k in range(dim)]
    facets = polytope._facets(ints, polytope._frame(ints)[0])
    total = sum(
        abs(int_det([ints[i] for i in idx]))
        for normal, _, idx in facets
        if all(x > 0 for x in normal)
    )
    return Fraction(total, math.factorial(dim) * den**dim)


def covolume_certificate(point_sets, form, dim, tries=20):
    """Problems with the covolume form of the integer point sets G_j at
    n = 1, or [] when it is certified.  Shares nothing with the hull: no
    polytope._facets, _frame, _normal_through or _minimal, only int_det.

    1. Local: each simplex has a nonzero determinant of sign eps, the
       cofactor normal nu of its hyperplane is strictly positive (up to its
       sign), and its offset is sum_j min over G_j of nu.g, so no point of
       P = sum_j conv(G_j) + orthant lies below it.  Each point is one
       point of each G_j summed.
    2. Closed: the (d-2)-faces, oriented by eps, cancel, except faces
       inside a coordinate hyperplane.
    3. Degree 1: exactly one simplex cone holds a generic positive
       direction; a direction on some face's plane is redrawn.
    Together the simplices tile the bounded boundary of P once under
    radial projection, so sum eps*det/d! is covol(P).
    """
    sets = [list(g) for g in point_sets]
    decs, simplices = form
    problems = []
    pts = []
    for dec in decs:
        if len(dec) != len(sets) or any(g not in gs for g, gs in zip(dec, sets)):
            problems.append(f"{dec} is not one point of each set")
        pts.append(tuple(sum(c) for c in zip(*dec)) if dec else (0,) * dim)
    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    chain = {}
    for eps, idx in simplices:
        sim = [pts[i] for i in idx]
        if eps * int_det(sim) <= 0:
            problems.append(f"simplex {sim}: determinant {int_det(sim)} against eps {eps}")
        diffs = [[a - b for a, b in zip(p, sim[0])] for p in sim[1:]]
        nu = [(-1) ** k * int_det([row[:k] + row[k + 1 :] for row in diffs]) for k in range(dim)]
        nu = [-x for x in nu] if nu[0] < 0 else nu
        if any(x <= 0 for x in nu):
            problems.append(f"simplex {sim}: normal {nu} is not positive")
        elif dot(nu, sim[0]) != sum(min(dot(nu, g) for g in gs) for gs in sets):
            problems.append(f"simplex {sim}: points of P lie below its plane")
        for i in range(dim):
            face = sim[:i] + sim[i + 1 :]
            inversions = sum(a > b for a, b in itertools.combinations(face, 2))
            key = tuple(sorted(face))
            chain[key] = chain.get(key, 0) + eps * (-1) ** (i + inversions)
    for face, c in chain.items():
        if c and not any(all(p[k] == 0 for p in face) for k in range(dim)):
            problems.append(f"face {face} is left open ({c})")
    rng = random.Random(0)
    for _ in range(tries):
        w = [rng.randint(1, 10**6) for _ in range(dim)]
        held = 0
        for _, idx in simplices:
            sim = [pts[i] for i in idx]
            # Cramer: w = sum_i (cramer[i] / det) * sim[i]
            cramer = [int_det(sim[:i] + [w] + sim[i + 1 :]) for i in range(dim)]
            if 0 in cramer:
                break
            held += all(c * int_det(sim) > 0 for c in cramer)
        else:
            if held != 1:
                problems.append(f"{held} simplex cones hold the direction {w}")
            return problems
    problems.append(f"no generic direction in {tries} tries")
    return problems


@pytest.fixture
def covolume_forms(monkeypatch):
    """Every covolume form the test builds, as (point sets, dim, form)."""
    built = []
    make = polytope._covolume_form

    def recorded(point_sets, dim):
        sets = [list(g) for g in point_sets]
        form = make(sets, dim)
        built.append((sets, dim, form))
        return form

    monkeypatch.setattr(polytope, "_covolume_form", recorded)
    return built


# -- growth oracles -----------------------------------------------------------


def vertex_sum_growth(fs, n, s):
    """Exact growth at n from sums of one vertex per level Newton polyhedron.

    The vertices of sum_j n_j*NP(I_j) lie among the sums sum_j n_j*v_j of
    one vertex v_j of each level-s NP(I_j), so the orthant covolume of
    those sums, over s^d, is the growth.  The running sums are cut to
    their orthant extremes from the third factor on.  One hull of fresh
    sums per call, independent of the covolume forms (polytope._covolume_form)
    of the exact backend; the final covolume reads a one-set form at weight 1.
    """
    d = fs[0].dim
    levels = [(f.ideal_at(s), nj) for f, nj in zip(fs, n) if nj]
    if all(level.is_unit() for level, _ in levels):
        return Fraction(0)
    sums = [(0,) * d]
    for k, (level, nj) in enumerate(levels):
        if k >= 2:
            sums = polytope.orthant_extremes(sums)
        verts = polytope.orthant_extremes(level.gens)
        sums = [tuple(a + nj * b for a, b in zip(u, v)) for u in sums for v in verts]
    return polytope.orthant_covolume(sums, d) / s**d
