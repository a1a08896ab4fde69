"""Value semigroups, bodies, and the volume and containment checks."""

import itertools
import random
import re
import time
from fractions import Fraction as F

import pytest

from conftest import points_at, random_primary_ideal
from filtmult import filtration as ft
from filtmult import monomial as mo
from filtmult import okounkov as ok
from filtmult import polytope as pt
from filtmult.multiplicity import product_ideal_at


def maximal_adic():
    return ft.adic(mo.maximal_ideal(2))


def parabola_adic():
    return ft.adic(mo.ideal(2, [(2, 0), (0, 1)]))


def line_plus_powers():
    return ft.fixed_plus_adic(mo.ideal(2, [(1, 0)]), mo.maximal_ideal(2))


def sqrt2_filtration():
    return ft.rounded_valuation((1,), ft.root_scale(2))


class TestDegreeBound:
    def test_builtin_bounds(self):
        assert ok.degree_bound([maximal_adic()], (1,)) == 1
        assert ok.degree_bound([sqrt2_filtration()], (1,)) == 2
        assert ok.degree_bound([parabola_adic()], (1,)) == 2
        assert ok.degree_bound([line_plus_powers()], (1,)) == 1

    def test_unit_product_floors_at_one(self):
        assert ok.degree_bound([maximal_adic()], (0,)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ok.degree_bound([maximal_adic()], (1, 1))
        with pytest.raises(ValueError):
            ok.degree_bound([maximal_adic()], (-1,))

    def test_non_primary_product_is_refused_at_once(self):
        # no power of m lies in (x^n), so a search for one would never end
        class PowersOfX(ft.Filtration):
            kind = "powers-of-x"

            def _level(self, n):
                return mo.ideal(2, [(n, 0)])

        t0 = time.monotonic()
        with pytest.raises(ValueError, match=re.escape("at sigma (1, 1) is not m-primary")):
            ok.degree_bound([maximal_adic(), PowersOfX(2)], (1, 1))
        assert time.monotonic() - t0 < 1.0
        assert ok.degree_bound([maximal_adic(), PowersOfX(2)], (1, 0)) == 1

    def test_shared_bound_doubles_the_max(self):
        got = ok.shared_degree_bound([maximal_adic()], [(1,), (2,), (3,)])
        assert got == 2 * ok.degree_bound([maximal_adic()], (3,)) == 6


def count_powers(monkeypatch):
    """Record (ideal, exponent) for every MonomialIdeal.power call."""
    calls = []
    power = mo.MonomialIdeal.power

    def counted(self, k):
        calls.append((self, k))
        return power(self, k)

    monkeypatch.setattr(mo.MonomialIdeal, "power", counted)
    return calls


def count_products(monkeypatch):
    """Record every MonomialIdeal product of two non-unit factors."""
    calls = []
    mul = mo.MonomialIdeal.__mul__

    def counted(self, other):
        if not (self.is_unit() or other.is_unit()):
            calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(mo.MonomialIdeal, "__mul__", counted)
    return calls


class TestValueSemigroup:
    def test_adic_levels_take_one_product_each(self, monkeypatch):
        # Levels 1..cutoff are read in order, so past level 1 each is built
        # from the level below with one product, never a fresh power.
        J = mo.ideal(2, [(3, 0), (1, 1), (0, 2)])
        for f in (ft.adic(J), ft.fixed_plus_adic(mo.ideal(2, [(2, 1)]), J)):
            calls = count_products(monkeypatch)
            sem = ok.value_semigroup([f], (1,), 3, 12)
            assert len(calls) == 11
            monkeypatch.undo()
            for i in range(1, 13):
                want = J.power(i) if f.kind == "adic" else f.fixed + J.power(i)
                assert sem._levels[i] == want

    def test_fresh_adic_levels_square_memoized_ones(self, monkeypatch):
        # Level 8 from nothing squares levels 1, 2 and 4; levels 16 and 32
        # then square the deepest memoized level, never running power(n).
        J = mo.ideal(2, [(3, 0), (1, 1), (0, 2)])
        f = ft.adic(J)
        powers = count_powers(monkeypatch)
        products = count_products(monkeypatch)
        counts = []
        for n in (8, 16, 32):
            before = len(products)
            f.ideal_at(n)
            counts.append(len(products) - before)
        assert counts == [3, 1, 1] and powers == []
        monkeypatch.undo()
        assert f.ideal_at(32) == J.power(32)

    def test_maximal_adic_levels(self):
        sem = ok.value_semigroup([maximal_adic()], (1,), 1, 4)
        assert sorted(points_at(sem, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert sem.level_contains((2, 0), 2)
        assert not sem.level_contains((1, 0), 2)
        # above the degree cap, even though inside the ideal
        assert not sem.level_contains((3, 0), 2)

    def test_level_range_checked(self):
        sem = ok.value_semigroup([maximal_adic()], (1,), 1, 4)
        with pytest.raises(ValueError):
            sem.level_contains((1, 1), 0)
        with pytest.raises(ValueError):
            sem.level_contains((1, 1), 5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ok.value_semigroup([maximal_adic()], (1,), 1, 0)
        with pytest.raises(ValueError):
            ok.value_semigroup([maximal_adic()], (1,), 0, 4)

    def test_closed_under_addition(self):
        cutoff = 8
        rng = random.Random(99)
        for f in (parabola_adic(), line_plus_powers()):
            bound = ok.degree_bound([f], (1,))
            sem = ok.value_semigroup([f], (1,), bound, cutoff)
            pools = {i: list(points_at(sem, i)) for i in range(1, cutoff + 1)}
            for _ in range(100):
                i = rng.randint(1, cutoff - 1)
                j = rng.randint(1, cutoff - i)
                a = rng.choice(pools[i])
                b = rng.choice(pools[j])
                s = tuple(x + y for x, y in zip(a, b))
                if sum(s) <= bound * (i + j):
                    assert sem.level_contains(s, i + j)

    def test_three_variables_stored_explicitly(self):
        sem = ok.value_semigroup([ft.adic(mo.maximal_ideal(3))], (1,), 1, 3)
        assert sorted(points_at(sem, 2)) == [
            (0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0),
        ]
        assert sem.level_contains((1, 1, 0), 2)
        assert not sem.level_contains((1, 0, 0), 2)


class TestBody:
    def test_maximal_adic_body_is_flat(self):
        sem = ok.value_semigroup([maximal_adic()], (1,), 1, 4)
        b = ok.body(sem)
        assert b.volume() == F(0)
        assert sorted(b.body.vertices) == [(F(0), F(1)), (F(1), F(0))]
        assert b.inner

    def test_zero_sigma_fills_the_simplex(self):
        sem = ok.value_semigroup([maximal_adic()], (0,), 1, 2)
        assert ok.body(sem).volume() == F(1, 2)
        assert ok.full_simplex_body(2, 1).volume() == F(1, 2)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_simplex_needs_no_hull(self, dim):
        # the vertices come in hull's order, and the volume is bound^d/d!
        for bound in range(1, 7):
            corners = [tuple(bound * (j == k) for j in range(dim)) for k in range(dim)]
            want = pt.hull(dim, [(0,) * dim, *corners])
            assert ok.full_simplex_body(dim, bound) == want
            assert ok._simplex_volume(dim, bound) == pt.volume(want)

    def test_sqrt2_interval_at_depth_64(self):
        sem = ok.value_semigroup([sqrt2_filtration()], (1,), 2, 64)
        b = ok.body(sem)
        assert b.body.vertices == ((F(58, 41),), (F(2),))
        assert b.volume() == F(24, 41)

    @pytest.mark.xfail(
        reason="the left endpoint at depth 64 is attained at level 41, where"
        " the rounded slope is 58/41, not at level 64 with slope 91/64",
        strict=True,
    )
    def test_sqrt2_left_endpoint_from_deepest_level(self):
        sem = ok.value_semigroup([sqrt2_filtration()], (1,), 2, 64)
        assert ok.body(sem).body.vertices[0] == (F(91, 64),)

    def test_deeper_cutoff_only_grows(self):
        for f in (sqrt2_filtration(), line_plus_powers()):
            bound = ok.degree_bound([f], (1,))
            small = ok.body(ok.value_semigroup([f], (1,), bound, 8))
            large = ok.body(ok.value_semigroup([f], (1,), bound, 16))
            for v in small.body.vertices:
                assert pt.contains_point(large.body, v)


KINDS = ("adic", "fixed-plus-adic", "rounded-valuation", "truncated", "rescaled")


def random_filtration(rng, kind, dim, max_exp):
    """A filtration of the given kind whose levels need exponents of at
    most about max_exp per step."""
    if kind == "adic":
        return ft.adic(random_primary_ideal(rng, dim, max_exp))
    if kind == "fixed-plus-adic":
        fixed = mo.ideal(dim, [tuple(rng.randint(0, max_exp) for _ in range(dim))])
        if fixed.is_unit():
            fixed = mo.ideal(dim, [(1,) + (0,) * (dim - 1)])
        return ft.fixed_plus_adic(fixed, random_primary_ideal(rng, dim, max_exp))
    if kind == "rounded-valuation":
        weights = tuple(F(rng.randint(1, max_exp), rng.randint(1, 2)) for _ in range(dim))
        scale = rng.choice([ft.root_scale(2), ft.root_scale(3), ft.rational_scale(3, 2)])
        return ft.rounded_valuation(weights, scale)
    base = random_filtration(rng, rng.choice(("adic", "rounded-valuation")), dim, max_exp)
    if kind == "truncated":
        return ft.truncate(base, rng.randint(1, 2))
    return ft.rescale(base, rng.randint(1, 2))


def brute_body(fs, sigma, bound, cutoff):
    """Slow oracle: the hull of every lattice point a/i of every level,
    and per level the point of least largest coordinate, lexicographically
    first.

    A level point that is the midpoint of two others along a unit step or
    a step e_j - e_k is never a vertex, so it is dropped before the hull
    only to keep the exact hull affordable.
    """
    dim = fs[0].dim
    units = [tuple(int(j == k) for j in range(dim)) for k in range(dim)]
    steps = units + [tuple(p - q for p, q in zip(u, v)) for u, v in itertools.combinations(units, 2)]
    pts, smallest = [], []
    for i in range(1, cutoff + 1):
        level_ideal = product_ideal_at(fs, [i * s for s in sigma])
        cap = bound * i
        level = [
            a
            for a in itertools.product(range(cap + 1), repeat=dim)
            if sum(a) <= cap and level_ideal.contains(a)
        ]
        members = set(level)
        pts += [
            tuple(F(c, i) for c in a)
            for a in level
            if not any(
                tuple(x + y for x, y in zip(a, v)) in members
                and tuple(x - y for x, y in zip(a, v)) in members
                for v in steps
            )
        ]
        smallest.append(min(level, key=max, default=None))
    return (pt.hull(dim, pts).vertices if pts else ()), smallest


def _oracle_rows():
    """(kind, dim, sigma, cutoff) rows, with ids kind-dim for one filtration
    at the default cutoff: 8 up to dim 2, 2 from dim 3, where brute_body
    walks a 4-dimensional box."""
    for dim in (1, 2, 3, 4):
        for kind in KINDS:
            yield pytest.param(kind, dim, (1,), 8 if dim < 3 else 2, id=f"{kind}-{dim}")
    for sigma in ((1, 0), (0, 1), (1, 1)):
        for kind in KINDS:
            tag = "".join(map(str, sigma))
            yield pytest.param(kind, 2, sigma, 8, id=f"{kind}-2-sigma{tag}")
    # lcm(1..48) > 2**64: the body's integer points run past 64 bits
    for kind in KINDS:
        yield pytest.param(kind, 2, (1,), 48, id=f"{kind}-2-cutoff48")
    yield pytest.param("empty", 2, (1,), 8, id="empty-2")


class TestBodyOracle:
    @pytest.mark.parametrize("kind, dim, sigma, cutoff", list(_oracle_rows()))
    def test_body_is_hull_of_every_level_point(self, request, kind, dim, sigma, cutoff):
        rng = random.Random(request.node.callspec.id)
        draws, max_exp = (4, 3) if dim < 3 else (1, 2)
        if kind == "empty":
            # no level has a foot at bound 1: every generator of
            # (x^2, y^2)^i has degree 2i > i
            families = [[ft.adic(mo.ideal(2, [(2, 0), (0, 2)]))]]
        else:
            families = [
                [random_filtration(rng, kind, dim, max_exp) for _ in sigma]
                for _ in range(draws)
            ]
        for fs in families:
            b = ok.degree_bound(fs, sigma)
            for bound in sorted({1, b, b + 1}):
                sem = ok.value_semigroup(fs, sigma, bound, cutoff)
                got = ok.body(sem).body.vertices
                if cutoff > 8:
                    # the walk of every level's box is too slow this deep
                    assert got == pt.hull(dim, sem.quotient_points()).vertices
                    continue
                verts, smallest = brute_body(fs, sigma, bound, cutoff)
                assert got == verts
                if kind == "empty" and bound == 1:
                    assert got == ()
                least = [ok._smallest_point(sem, i) for i in range(1, cutoff + 1)]
                assert least == smallest


def with_rays(points, cap, dim):
    """The points and, for each, its ray points p + (cap - |p|)*e_k."""
    out = set(points)
    for p in points:
        for k in range(dim):
            out.add(p[:k] + (p[k] + cap - sum(p),) + p[k + 1 :])
    return out


class TestExtremeFeet:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_extreme_feet_and_their_rays_span_the_hull(self, dim):
        # conv(F and rays(F)) = (conv F + orthant) cut by |x| <= cap, so any
        # E with the same orthant hull as F gives the same polytope
        rng = random.Random(dim)
        for _ in range(40):
            feet = {
                tuple(rng.randint(0, 6) for _ in range(dim))
                for _ in range(rng.randint(1, 12))
            }
            cap = max(map(sum, feet)) + rng.randint(0, 3)
            want = pt.hull(dim, with_rays(feet, cap, dim)).vertices
            for ext in (pt.orthant_extremes(feet), pt._minimal(sorted(feet), dim)):
                assert pt.hull(dim, with_rays(ext, cap, dim)).vertices == want

    def test_plane_levels_reach_the_final_sweep_as_their_vertices(self, monkeypatch):
        # Each level of adic(m) is a segment: its 2 end feet stand for all
        # i + 1 of them, so the final sweep sees 2 points per level at most.
        # Scaling every foot first handed it 2,807 distinct points.
        sem = ok.value_semigroup([maximal_adic()], (1,), 1, 96)
        assert sum(len(sem._feet(i)) for i in range(1, 97)) == 4752
        seen = []
        extremes = pt.orthant_extremes

        def counted(points):
            seen.append(len(points))
            return extremes(points)

        monkeypatch.setattr(pt, "orthant_extremes", counted)
        b = ok.body(sem)
        assert len(seen) == 1 and seen[0] <= 2 * 96
        assert b.body.vertices == ((F(0), F(1)), (F(1), F(0)))

    @pytest.mark.parametrize("cutoff", [96, 192])
    @pytest.mark.parametrize(
        "f",
        [
            maximal_adic(),
            parabola_adic(),
            ft.rounded_valuation((1,), ft.root_scale(5)),
            line_plus_powers(),
        ],
        ids=["maximal", "parabola", "surd", "line"],
    )
    def test_deep_body_is_hull_of_every_quotient_point(self, f, cutoff):
        sem = ok.value_semigroup([f], (1,), ok.degree_bound([f], (1,)), cutoff)
        assert ok.body(sem).body.vertices == pt.hull(f.dim, sem.quotient_points()).vertices


class TestVolumeIdentity:
    def test_exact_for_noetherian_examples(self):
        for f in (maximal_adic(), parabola_adic()):
            rep = ok.volume_identity_report(f, 16)
            assert rep.discrepancy == F(0)

    def test_sqrt2_discrepancies_frozen(self):
        got = [ok.volume_identity_report(sqrt2_filtration(), N).discrepancy for N in (16, 32, 64)]
        assert got == [F(1, 96), F(1, 96), F(11, 1312)]

    def test_degenerate_gap_halves_with_cutoff(self):
        for N in (16, 32):
            rep = ok.volume_identity_report(line_plus_powers(), N)
            assert rep.discrepancy == F(1, 2 * N)
            assert rep.hat_volume == F(1, 2)
            assert rep.limit.value == F(0)

    def test_discrepancy_not_increasing_along_cutoffs(self):
        seq = [ok.volume_identity_report(sqrt2_filtration(), N).discrepancy for N in (16, 32, 64)]
        assert all(b <= a for a, b in zip(seq, seq[1:]))


class TestOriginCollapse:
    def test_degenerate_filtration_triggers(self):
        rep = ok.origin_collapse_check(line_plus_powers(), 8, F(1, 4))
        assert rep.triggered
        assert rep.witness == ((1, 0), 4)
        assert rep.gap_at_half == F(1, 8)
        assert rep.gap_at_full == F(1, 16)
        assert rep.gap_decreasing

    def test_half_cutoff_body_reuses_the_semigroup(self, monkeypatch):
        calls = []
        build = ok.value_semigroup

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(ok, "value_semigroup", counted)
        rep = ok.origin_collapse_check(line_plus_powers(), 8, F(1, 4))
        assert rep.triggered
        assert len(calls) == 1

    def test_positive_multiplicity_does_not_trigger(self):
        rep = ok.origin_collapse_check(maximal_adic(), 8, F(1, 4))
        assert not rep.triggered
        assert rep.witness is None
        assert rep.gap_at_half is None and rep.gap_at_full is None


class TestContainmentBound:
    def test_positive_builtins_found_at_one(self):
        for f, bound in ((maximal_adic(), 1), (parabola_adic(), 2), (sqrt2_filtration(), 2)):
            got = ok.containment_bound_search(f, 32)
            assert got.found and got.b == 1
            assert got.bound == bound
            assert got.verified_through == 32

    def test_certificate_meaning(self):
        got = ok.containment_bound_search(parabola_adic(), 8)
        f, mx = parabola_adic(), mo.maximal_ideal(2)
        step = got.b * got.bound
        for i in range(1, 9):
            assert mx.power(i).contains_ideal(f.ideal_at(i * step))

    def test_degenerate_search_fails_honestly(self):
        got = ok.containment_bound_search(line_plus_powers(), 2, b_cap=3)
        assert not got.found
        assert got.b is None

    def test_maximal_ideal_powers_built_once(self, monkeypatch):
        # (x) + (x^2, y)^n = (x, y^n) never lands in m^2, so all eight
        # stretch factors run; the bulk is not the maximal ideal, so every
        # power of m counted here comes from the bound and the search.
        f = ft.fixed_plus_adic(mo.ideal(2, [(1, 0)]), mo.ideal(2, [(2, 0), (0, 1)]))
        calls = count_powers(monkeypatch)
        got = ok.containment_bound_search(f, 4, b_cap=8)
        assert not got.found
        mx = mo.maximal_ideal(2)
        assert len([k for ideal, k in calls if ideal == mx]) <= 4


class TestMinkowski:
    def test_positive_pair(self):
        rep = ok.minkowski_checks([maximal_adic(), parabola_adic()], (1, 0), (0, 1), 16)
        assert rep.containment_pass
        assert rep.unresolved_vertices == ()
        assert rep.collapse_proxy == F(1)
        assert not rep.collapse_triggered
        assert rep.tolerance == F(1, 16)
        assert rep.sum_volume is None and rep.volume_agreement is None

    def test_degenerate_pair_volume_agreement(self):
        rep = ok.minkowski_checks([line_plus_powers(), maximal_adic()], (1, 0), (0, 1), 32)
        assert rep.bound == 4
        assert rep.collapse_triggered
        assert rep.sum_volume == F(957, 128)
        assert rep.tau_volume == F(15, 2)
        assert rep.volume_agreement
        assert rep.containment_pass

    def test_builds_each_facet_hull_once(self, monkeypatch):
        # One hull each for the three semigroup bodies, the Minkowski sum
        # and its clip, plus the hull of body_both's vertices, which every
        # containment test reads.  The simplex's vertices are known, so it
        # needs none.
        calls = []
        facets = pt._facets

        def counted(pts, frame):
            calls.append(tuple(sorted(pts)))
            return facets(pts, frame)

        monkeypatch.setattr(pt, "_facets", counted)
        fs = [
            ft.adic(mo.ideal(3, [(2, 0, 0), (0, 1, 0), (0, 0, 2), (1, 0, 1)])),
            ft.adic(mo.maximal_ideal(3)),
        ]
        rep = ok.minkowski_checks(fs, (1, 0), (0, 1), 3)
        assert rep.contained_vertices > 1
        assert len(calls) == 6
        assert len(set(calls)) == len(calls)

    def test_zero_sigma_collapses_trivially(self):
        rep = ok.minkowski_checks([maximal_adic(), parabola_adic()], (0, 0), (0, 1), 8)
        assert rep.collapse_triggered
        assert rep.sum_volume == rep.tau_volume
        assert rep.volume_agreement
        assert rep.containment_pass
