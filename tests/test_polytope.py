import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    brute_orthant_covolume,
    brute_volume,
    far_point_covolume,
    lp_hull_vertices,
    lp_in_hull,
    lp_orthant_extremes,
    random_primary_gens,
)
from filtmult import polytope
from filtmult.monomial import ideal, unit_ideal
from filtmult.polytope import Halfspace, RationalPolytope, clip, hull, minkowski_sum

F = Fraction


def box2(a, b):
    return hull(2, [(0, 0), (a, 0), (0, b), (a, b)])


class TestHull:
    def test_interior_point_dropped(self):
        h = hull(2, [(0, 0), (3, 0), (1, 1), (0, 2)])
        # 2*1 + 3*1 < 6 puts (1, 1) strictly inside the triangle
        assert h.vertices == ((0, 0), (0, 2), (3, 0))
        assert h.volume() == 3

    @pytest.mark.xfail(
        strict=True,
        reason="5/2 is the shoelace value of the non-convex traversal of the"
        " four listed points, not the volume of their hull",
    )
    def test_interior_point_quoted_volume(self):
        assert hull(2, [(0, 0), (3, 0), (1, 1), (0, 2)]).volume() == F(5, 2)

    def test_idempotent(self):
        pts = [(0, 0), (4, 0), (0, 3), (2, 2), (1, 1), (4, 3)]
        once = hull(2, pts)
        twice = hull(2, once.vertices)
        assert once.vertices == twice.vertices

    def test_collinear_points_dropped(self):
        h = hull(2, [(0, 0), (1, 1), (2, 2)])
        assert h.vertices == ((0, 0), (2, 2))
        assert h.volume() == 0

    def test_single_point(self):
        h = hull(2, [(1, 1)])
        assert h.vertices == ((F(1), F(1)),)
        assert h.volume() == 0

    def test_empty(self):
        h = hull(2, [])
        assert h.is_empty()
        assert h.volume() == 0

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            hull(5, [(0,) * 5])

    def test_three_dimensional(self):
        cube = hull(3, [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
        assert len(cube.vertices) == 8
        assert cube.volume() == 1
        simplex = hull(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert simplex.volume() == F(1, 6)

    def test_four_dimensional_simplex(self):
        pts = [(0, 0, 0, 0)] + [
            tuple(1 if i == ax else 0 for i in range(4)) for ax in range(4)
        ]
        assert hull(4, pts).volume() == F(1, 24)

    def test_interior_point_dropped_in_3d(self):
        pts = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
        # the last point is the centroid-ish face midpoint, not extreme
        assert (F(1), F(1), F(1)) not in hull(3, pts).vertices


class TestVolume:
    def test_scaling(self):
        base = hull(2, [(0, 0), (3, 0), (0, 2)])
        for k in (2, 3):
            scaled = hull(2, [tuple(k * c for c in v) for v in base.vertices])
            assert scaled.volume() == k ** 2 * base.volume()
        tetra = hull(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        for k in (2, 3):
            scaled = hull(3, [tuple(k * c for c in v) for v in tetra.vertices])
            assert scaled.volume() == k ** 3 * tetra.volume()

    def test_translation_invariance(self):
        base = hull(2, [(0, 0), (3, 0), (0, 2)])
        moved = hull(2, [(v[0] + 7, v[1] - 5) for v in base.vertices])
        assert moved.volume() == base.volume()

    def test_segment_in_plane_has_zero_volume(self):
        assert hull(2, [(0, 1), (1, 0)]).volume() == 0

    def test_flat_triangle_in_space_has_zero_volume(self):
        assert hull(3, [(0, 0, 1), (1, 0, 0), (0, 1, 0)]).volume() == 0


class TestMinkowskiSum:
    def test_segments_make_a_parallelogram(self):
        a = hull(2, [(1, 0), (0, 1)])
        b = hull(2, [(2, 0), (0, 1)])
        s = minkowski_sum(a, b)
        # all four pairwise sums are extreme; the area is |det| of the
        # two direction vectors (-1,1) and (-2,1), which is 1
        assert s.vertices == ((0, 2), (1, 1), (2, 1), (3, 0))
        assert s.volume() == 1

    @pytest.mark.xfail(
        strict=True,
        reason="the quoted three-vertex sum omits (2,1); a triangle of"
        " area 1/2 cannot be the sum of two non-parallel segments",
    )
    def test_segments_quoted_triangle(self):
        a = hull(2, [(1, 0), (0, 1)])
        b = hull(2, [(2, 0), (0, 1)])
        assert minkowski_sum(a, b).vertices == ((0, 2), (1, 1), (3, 0))

    def test_sum_with_point_translates(self):
        t = hull(2, [(5, 7)])
        base = hull(2, [(0, 0), (1, 0), (0, 1)])
        s = minkowski_sum(base, t)
        assert s.vertices == ((5, 7), (5, 8), (6, 7))

    def test_plane_volume_identity(self):
        # vol(A+B) = vol A + vol B + 2 * mixed area; for two axis-aligned
        # boxes the mixed area is (a1*b2 + a2*b1)/2
        a = box2(2, 3)
        b = box2(5, 1)
        s = minkowski_sum(a, b)
        mixed = F(2 * 1 + 3 * 5, 2)
        assert s.volume() == a.volume() + b.volume() + 2 * mixed

    def test_unlike_denominators_sum_exactly(self):
        # The vertex sets share no denominator, so both are scaled to 15
        # before they are added as integers.
        a = hull(3, [(0, 0, 0), (F(1, 3), 0, 0), (0, F(2, 3), 0), (0, 0, F(1, 3))])
        b = hull(3, [(F(1, 5), 0, 0), (0, F(1, 5), F(2, 5)), (F(3, 5), F(1, 5), 0)])
        sums = [tuple(x + y for x, y in zip(u, v)) for u in a.vertices for v in b.vertices]
        s = minkowski_sum(a, b)
        assert s.vertices == hull(3, sums).vertices
        assert (F(1, 5), F(2, 3), 0) in s.vertices
        assert minkowski_sum(b, a) == s

    def test_empty_absorbs(self):
        empty = RationalPolytope(2, ())
        assert minkowski_sum(empty, box2(1, 1)).is_empty()


class TestClip:
    def test_clip_square_to_triangle(self):
        sq = box2(2, 2)
        h = Halfspace((F(1), F(1)), F(2))
        c = clip(sq, h)
        assert c.vertices == ((0, 0), (0, 2), (2, 0))
        # removed cap is the complementary triangle
        assert c.volume() == sq.volume() - 2

    def test_clip_no_effect(self):
        tri = hull(2, [(0, 0), (1, 0), (0, 1)])
        c = clip(tri, Halfspace((F(1), F(1)), F(5)))
        assert c.vertices == tri.vertices

    def test_clip_to_empty(self):
        tri = hull(2, [(1, 1), (2, 1), (1, 2)])
        c = clip(tri, Halfspace((F(1), F(0)), F(0)))
        assert c.is_empty()
        assert c.volume() == 0

    def test_clip_introduces_vertices(self):
        tri = hull(2, [(0, 0), (4, 0), (0, 4)])
        c = clip(tri, Halfspace((F(1), F(0)), F(2)))
        assert (F(2), F(0)) in c.vertices
        assert (F(2), F(2)) in c.vertices
        assert c.volume() == tri.volume() - 2

    def test_clip_three_dimensional(self):
        cube = hull(3, [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])
        c = clip(cube, Halfspace((F(1), F(1), F(1)), F(2)))
        # corner simplex of leg 2
        assert c.volume() == F(8, 6)


class TestContainment:
    def test_point_inside(self):
        tri = hull(2, [(0, 0), (2, 0), (0, 2)])
        assert polytope.contains_point(tri, (F(1, 2), F(1, 2)))
        assert polytope.contains_point(tri, (1, 1))  # boundary
        assert not polytope.contains_point(tri, (2, 2))

    def test_point_on_segment(self):
        seg = hull(2, [(0, 0), (2, 2)])
        assert polytope.contains_point(seg, (1, 1))
        assert not polytope.contains_point(seg, (1, 0))

    def test_empty_contains_nothing(self):
        assert not polytope.contains_point(RationalPolytope(2, ()), (0, 0))

    def test_body_containment(self):
        outer = box2(3, 3)
        inner = hull(2, [(1, 1), (2, 1), (1, 2)])
        assert polytope.contains_body(outer, inner)
        assert not polytope.contains_body(inner, outer)

    def test_three_dimensional_membership(self):
        tetra = hull(3, [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
        assert polytope.contains_point(tetra, (F(1, 2), F(1, 2), F(1, 2)))
        assert not polytope.contains_point(tetra, (2, 2, 2))

    def test_repeated_vertex_in_space(self):
        point = RationalPolytope(3, ((F(1), F(2), F(3)),) * 2)
        assert polytope.contains_point(point, (1, 2, 3))
        assert not polytope.contains_point(point, (1, 2, 4))


class TestOrthantGeometry:
    def test_extremes_drop_dominated(self):
        ext = polytope.orthant_extremes([(3, 0), (1, 1), (2, 1), (0, 2)])
        assert sorted(ext) == [(0, 2), (1, 1), (3, 0)]

    def test_extremes_drop_convex_orthant_combination(self):
        # (1, 1) is the midpoint of (2, 0) and (0, 2)
        ext = polytope.orthant_extremes([(2, 0), (1, 1), (0, 2)])
        assert sorted(ext) == [(0, 2), (2, 0)]

    def test_staircase_chain_matches_orthant_extremes(self):
        # The chain takes a staircase as it is, with no sort and no
        # dominance pass; on one it agrees with the full sweep.
        rng = random.Random(23)
        powers = [ideal(2, [(1, 0), (0, 1)]), ideal(2, [(2, 0), (0, 1)])]
        stairs = [[(3, 5)], [(0, 2), (1, 0)], [(0, 4), (1, 2), (2, 0)]]
        stairs += [list(I.power(k).gens) for I in powers for k in (1, 2, 7)]
        while len(stairs) < 300:
            n = rng.randint(1, 14)
            pts = {(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(n)}
            if rng.random() < 0.3:
                # collinear runs: ties in the turn test
                a, b = rng.randint(0, 3), rng.randint(1, 3)
                pts |= {(a + b * t, 3 * b - t) for t in range(4)}
            stairs.append(list(polytope._minimal(sorted(pts), 2)))
        for stair in stairs:
            assert polytope._staircase_chain(stair) == polytope.orthant_extremes(stair)

    def test_covolume_staircase(self):
        assert polytope.orthant_covolume(((1, 0), (0, 1)), 2) == F(1, 2)
        assert polytope.orthant_covolume(((2, 0), (0, 1)), 2) == 1
        assert polytope.orthant_covolume(((3, 0), (1, 1), (0, 2)), 2) == F(5, 2)

    def test_covolume_dimension_three(self):
        assert polytope.orthant_covolume(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3
        ) == F(1, 6)
        assert polytope.orthant_covolume(
            ((2, 0, 0), (0, 2, 0), (0, 0, 2)), 3
        ) == F(8, 6)

    def test_covolume_rejects_points_of_another_length(self):
        # too long used to read 0, too short raised an IndexError
        for gens, dim in [([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2), ([(2, 0), (0, 3)], 3)]:
            with pytest.raises(ValueError, match="point length does not match dimension"):
                polytope.orthant_covolume(gens, dim)

    def test_extremes_keep_per_point_far_points(self):
        # (1, 2, 0) lies above the segment from (2, 0, 0) to (0, 3, 0); a
        # hull with one far point per axis would make it a vertex
        gens = [(0, 0, 1), (0, 3, 0), (1, 2, 0), (2, 0, 0)]
        ext = polytope.orthant_extremes(gens)
        assert (1, 2, 0) not in ext
        assert ext == lp_orthant_extremes(gens)


def _weighted_sums(sets, n, dim):
    """The sums of n_j times one point of each set that lie above no other
    one, sorted.  Lexicographic order puts every sum after the sums below
    it, so each is checked against the kept ones only."""
    sums = [(0,) * dim]
    for nj, gens in zip(n, sets):
        kept = []
        for p in sorted({tuple(a + nj * b for a, b in zip(u, g)) for u in sums for g in gens}):
            if not any(all(a <= b for a, b in zip(q, p)) for q in kept):
                kept.append(p)
        sums = kept
    return sums


def _random_points(rng, dim, n, top=3):
    """n random points of the box [0, top]^dim, some coordinates halves or
    thirds."""
    pts = []
    for _ in range(n):
        den = rng.choice((1, 1, 1, 2, 3))
        pts.append(tuple(F(rng.randint(0, top * den), den) for _ in range(dim)))
    return pts


def _degenerate_sets(rng, dim):
    """Duplicates, coplanar, collinear and lower-dimensional point sets,
    a single point, a simplex with points on its faces, and points with
    denominators up to 96, as the semigroup bodies' quotient points have."""
    base = _random_points(rng, dim, 5)
    yield base + base[:3]  # duplicates
    if dim > 1:
        # coplanar: every point on the hyperplane x_0 + x_1 = 2
        yield [(F(a), F(2) - a) + p[2:] for a, p in zip((0, 1, 2, F(1, 2), F(3, 2)), base)]
    # collinear: a + t*b
    a, b = base[0], tuple(F(rng.randint(-2, 2)) for _ in range(dim))
    yield [tuple(ai + t * bi for ai, bi in zip(a, b)) for t in (0, F(1, 3), 1, 2, 5)]
    # lower-dimensional: the last coordinate is the sum of (at most) the first two
    yield [p[:-1] + (sum(p[: min(2, dim - 1)]),) for p in base]
    yield [base[0]]
    simplex = [tuple(F(3 * (i == k)) for i in range(dim)) for k in range(dim)]
    simplex.append(tuple(F(0) for _ in range(dim)))
    yield simplex + [tuple(F(1) for _ in range(dim - 1)) + (F(0),), (F(1),) + (F(0),) * (dim - 1)]
    dens = rng.sample(range(2, 97), 6)
    yield [tuple(F(rng.randint(0, 3 * k), k) for _ in range(dim)) for k in dens]


def _retyped(pts):
    """pts with their coordinates written, in turn, as an int, a Fraction,
    a float and a str of the same value; a float only where it is exact."""
    kinds = itertools.cycle((int, F, float, str))
    out = []
    for p in pts:
        q = []
        for c in map(F, p):
            kind = next(kinds)
            den = c.denominator
            if (kind is int and den != 1) or (kind is float and den & (den - 1)):
                kind = str
            q.append(kind(c))
        out.append(tuple(q))
    return out


def _cases(dim, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        yield _random_points(rng, dim, rng.randint(1, 9))
    yield from _degenerate_sets(rng, dim)


class TestFacetHullAgainstOracles:
    """The facet hull against the exact LP, the monotone chain and the
    brute-force facet scans of conftest, on seeded random and degenerate
    inputs in every dimension."""

    @pytest.mark.parametrize("dim,count", [(1, 20), (2, 30), (3, 30), (4, 12)])
    def test_hull_vertices_and_volume(self, dim, count):
        for pts in _cases(dim, count, 11 * dim):
            h = hull(dim, pts)
            assert h.vertices == lp_hull_vertices(pts), pts
            want = brute_volume(pts, dim)
            assert h.volume() == want, pts
            # non-extreme vertices in the list do not change the volume
            assert polytope.volume(RationalPolytope(dim, tuple(pts))) == want, pts
            # int, Fraction, float and str coordinates give the hull of
            # their Fractions
            assert hull(dim, _retyped(pts)) == h, pts

    @pytest.mark.parametrize("dim,count", [(1, 20), (2, 25), (3, 25), (4, 10)])
    def test_contains_point(self, dim, count):
        rng = random.Random(5 + dim)
        for pts in _cases(dim, count, 7 * dim):
            body = hull(dim, pts)
            verts = body.vertices
            probes = list(verts)  # boundary
            probes += [tuple((a + b) / 2 for a, b in zip(u, v)) for u in verts for v in verts if u < v]
            centroid = tuple(sum(c) / len(verts) for c in zip(*verts))
            probes.append(centroid)  # inside, or on a flat body
            probes.append(tuple(c + 1 for c in max(verts)))  # outside
            probes += _random_points(rng, dim, 6)
            for x in probes:
                assert body.contains_point(x) == lp_in_hull(x, verts), (pts, x)

    @pytest.mark.parametrize("dim,count", [(1, 10), (2, 30), (3, 30), (4, 12)])
    def test_orthant_extremes_and_covolume(self, dim, count):
        rng = random.Random(3 * dim)
        for _ in range(count):
            gens = random_primary_gens(rng, dim, 3)
            gens += [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(rng.randint(0, 4))]
            assert polytope.orthant_extremes(gens) == lp_orthant_extremes(gens), gens
            assert polytope.orthant_covolume(gens, dim) == brute_orthant_covolume(gens, dim), gens
        for pts in _cases(dim, count // 3, 13 * dim):
            pts = [tuple(c + 2 for c in p) for p in pts]  # off the axes, some collinear
            assert polytope.orthant_extremes(pts) == lp_orthant_extremes(pts), pts
            assert polytope.orthant_covolume(pts, dim) == brute_orthant_covolume(pts, dim), pts

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_origin_spans_no_volume(self, dim):
        # no unit-ideal shortcut: the origin alone spans no bounded simplex
        # of nonzero volume, and neither does an empty list of sets
        assert polytope.orthant_covolume([(0,) * dim], dim) == 0
        assert unit_ideal(dim).covolume() == 0
        assert polytope._form_covolume(polytope._covolume_form([], dim), (), dim) == 0

    @pytest.mark.parametrize("dim,count", [(1, 10), (2, 10), (3, 8), (4, 4)])
    def test_covolume_form_matches_minkowski_sums(self, dim, count):
        # one form serves every weight vector: at each n it must equal the
        # covolume of the sums of n_j times one point of each set, read off
        # one fresh per-point far-point hull of those sums (the LP oracle is
        # too slow for them).  Weights of 0 drop their sets from the sums.
        rng = random.Random(41 * dim)
        zeros = random.Random(43 * dim)
        for _ in range(count):
            sets = [random_primary_gens(rng, dim, 3) for _ in range(rng.randint(1, 3))]
            form = polytope._covolume_form(sets, dim)
            ns = [[rng.randint(1, 3) for _ in sets] for _ in range(3)]
            while len(ns) < 6:
                n = [zeros.randint(0, 3) for _ in sets]
                if any(n):
                    ns.append(n)
            for n in ns:
                on = [(g, nj) for g, nj in zip(sets, n) if nj]
                sums = _weighted_sums([g for g, _ in on], [nj for _, nj in on], dim)
                want = far_point_covolume(sums, dim)
                assert polytope._form_covolume(form, n, dim) == want, (sets, n)

    def test_covolume_form_on_seeded_powers(self):
        # 120 forms in dims 3 and 4 of up to three sets, about a quarter of
        # the sets squares of an ideal, each read at 5 weights against the
        # per-point far-point hull of the weighted sums; the first few small
        # dim-3 sums are checked against the brute-force facet scan too
        rng = random.Random(2021)
        brute = 0
        for _ in range(120):
            dim = rng.choice((3, 4))
            sets = []
            for _ in range(rng.randint(1, 3)):
                gens = random_primary_gens(rng, dim, 2)
                if rng.random() < 0.25:
                    gens = ideal(dim, gens).power(2).gens
                sets.append(gens)
            form = polytope._covolume_form(sets, dim)
            for _ in range(5):
                n = [rng.randint(1, 2) for _ in sets]
                sums = _weighted_sums(sets, n, dim)
                got = polytope._form_covolume(form, n, dim)
                assert got == far_point_covolume(sums, dim), (sets, n)
                if dim == 3 and len(sums) <= 20 and brute < 3:
                    brute += 1
                    assert got == brute_orthant_covolume(sums, dim), (sets, n)
        assert brute == 3

    def test_covolume_form_hulls_kept_sums_and_one_far_point_per_axis(self, monkeypatch):
        calls = []
        facets = polytope._facets

        def counted(pts, frame):
            calls.append(len(pts))
            return facets(pts, frame)

        monkeypatch.setattr(polytope, "_facets", counted)
        rng = random.Random(7)
        for dim in (3, 4):
            sets = [random_primary_gens(rng, dim, 3) for _ in range(2)]
            polytope._covolume_form(sets, dim)
            kept = _weighted_sums(sets, [1, 1], dim)
            assert calls == [len(kept) + dim]
            calls.clear()

    @pytest.mark.parametrize(
        "gens",
        [
            [(1, 1, 0)],  # (xy)
            [(2, 0, 0), (1, 1, 0)],  # (x^2, xy)
            [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 1)],
            [(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 1, 0)],
            # four extreme points on x + y + z = 3: one bounded facet, counted once
            [(0, 1, 2), (0, 2, 1), (1, 2, 0), (1, 1, 1), (1, 0, 2)],
        ],
    )
    def test_non_primary_newton_vertices(self, gens):
        dim = len(gens[0])
        got = ideal(dim, gens).newton_vertices().vertices
        assert got == tuple(tuple(map(F, v)) for v in lp_orthant_extremes(gens))
        assert polytope.orthant_covolume(gens, dim) == brute_orthant_covolume(gens, dim)
