"""Growth limits, mixed multiplicities, truncation ladders, positivity."""

import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest

from filtmult import components as cp
from filtmult import filtration as ft
from filtmult import linalg
from filtmult import monomial as mo
from filtmult import multiplicity as mu
from filtmult import polytope as pt

from conftest import FILTRATION_KINDS, fit_affine, random_filtration, vertex_sum_growth


def maximal_adic():
    return ft.adic(mo.maximal_ideal(2))


def parabola_adic():
    return ft.adic(mo.ideal(2, [(2, 0), (0, 1)]))


def line_plus_powers():
    return ft.fixed_plus_adic(mo.ideal(2, [(1, 0)]), mo.maximal_ideal(2))


def sqrt2_filtration():
    return ft.rounded_valuation((1,), ft.root_scale(2))


class TestLengthSequence:
    def test_maximal_adic_values(self):
        assert mu.length_sequence([maximal_adic()], (1,), [4]) == [(4, F(5, 8))]

    def test_zero_weight_gives_zero(self):
        seq = mu.length_sequence([maximal_adic()], (0,), [2, 4, 8])
        assert [v for _, v in seq] == [F(0), F(0), F(0)]

    def test_weight_count_must_match(self):
        with pytest.raises(ValueError):
            mu.length_sequence([maximal_adic()], (1, 1), [2, 4, 8])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            mu.length_sequence([maximal_adic()], (-1,), [2, 4, 8])

    def test_ladder_must_increase(self):
        with pytest.raises(ValueError):
            mu.length_sequence([maximal_adic()], (1,), [4, 4, 8])
        with pytest.raises(ValueError):
            mu.length_sequence([maximal_adic()], (1,), [0, 2, 4])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mu.length_sequence(
                [maximal_adic(), ft.adic(mo.ideal(1, [(2,)]))], (1, 1), [2, 4]
            )


class TestWeightChecks:
    """Both backends, and the bare growth functions, refuse a bad weight
    vector with the same message."""

    @pytest.mark.parametrize(
        "n, message",
        [
            ((1,), "one level weight per filtration required"),
            ((1, 1, 1), "one level weight per filtration required"),
            ((-1, 2), "level weights must be nonnegative"),
        ],
    )
    def test_every_entry_refuses(self, n, message):
        pair = [maximal_adic(), parabola_adic()]
        model = cp.model([(1, pair)])
        calls = [
            lambda: mu.length_sequence(pair, n, mu.DEFAULT_LADDER),
            lambda: mu.exact_growth(pair, n, 1),
            lambda: cp.component_growth(model, n, backend=mu.DIRECT),
            lambda: cp.component_growth(model, n, backend=mu.TRUNCATION_EXACT, trunc_level=1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    def test_no_filtrations(self):
        calls = [
            lambda: mu.length_sequence([], (), mu.DEFAULT_LADDER),
            lambda: mu.exact_growth([], (), 1),
            lambda: mu.mixed_multiplicities([], mu.DIRECT),
            lambda: mu.mixed_multiplicities([], mu.TRUNCATION_EXACT, trunc_level=1),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="at least one filtration required"):
                call()


class TestLimitEstimate:
    def test_exact_on_affine_tails(self):
        seq = [(m, F(7) - F(2, m)) for m in (3, 6, 12)]
        est = mu.limit_estimate(seq)
        assert est.value == F(7)
        assert est.lower_evidence == seq[-1][1]
        assert est.method == mu.DIRECT
        assert est.tail == tuple(seq)

    def test_higher_order_interpolation(self):
        seq = [(m, F(5) + F(1, m) + F(3, m * m)) for m in (2, 4, 8)]
        assert mu.limit_estimate(seq, order=3).value == F(5)
        assert mu.limit_estimate(seq, order=2).value != F(5)

    def test_requires_enough_terms(self):
        with pytest.raises(ValueError):
            mu.limit_estimate([(2, F(1)), (4, F(1))])
        with pytest.raises(ValueError):
            mu.limit_estimate([(2, F(1)), (4, F(1)), (8, F(1))], order=4)

    def test_order_floor(self):
        seq = [(m, F(1)) for m in (2, 4, 8)]
        with pytest.raises(ValueError):
            mu.limit_estimate(seq, order=1)


class TestCachedFits:
    """The fits read weights found once per point set; each must give exactly
    the Fractions of a direct solve on its own values."""

    LADDERS = ((8, 16, 32, 64, 128), (6, 8, 10, 12, 14), (3, 5, 7, 11, 13), (2, 4, 8, 16, 32))

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_limit_matches_direct_solve(self, order):
        rng = random.Random(order)
        for _ in range(3):
            values = [F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(5)]
            for ladder in self.LADDERS:  # the same values on every ladder
                seq = list(zip(ladder, values))
                tail = seq[-3:] if order == 2 else seq[-order:]
                xs = [F(1, m) for m, _ in tail]
                ys = [v for _, v in tail]
                if order == 2:
                    want = fit_affine(xs, ys)[0]
                else:
                    rows = [[u**j for j in range(order)] for u in xs]
                    want = linalg.solve_linear(rows, ys)[0]
                got = mu.limit_estimate(seq, order).value
                assert got == want
                assert type(got) is F

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_fit_matches_direct_solve(self, d, r):
        # the fit runs on integers over one denominator; the oracle is the
        # Fraction solve, for Fraction values and for ints
        grid = mu.sample_grid(d, r)
        tvs = mu.type_vectors(d, r)
        rows = [[math.prod(p[i] ** t[i] for i in range(r)) for t in tvs] for p in grid]
        rng = random.Random(10 * d + r)
        for _ in range(3):
            fracs = [F(rng.randint(-99, 99), rng.randint(1, 20)) for _ in grid]
            ints = [rng.randint(-(10**12), 10**12) for _ in grid]
            for values in fracs, ints:
                want = dict(zip(tvs, linalg.solve_linear(rows, values)))
                got = mu.fit_homogeneous(grid, values, d, r)
                assert got == want
                assert all(type(c) is F for c in got.values())

    def test_warm_fits_solve_nothing(self, monkeypatch):
        grid = mu.sample_grid(3, 2)
        seq = [(m, F(7) - F(2, m)) for m in (6, 8, 10, 12)]
        mu.fit_homogeneous(grid, [1, 2, 3, 4], 3, 2)
        mu.limit_estimate(seq, 4)
        mu.limit_estimate(seq, 2)

        def refuse(*args):
            raise AssertionError("a warm fit solved a system")

        monkeypatch.setattr(linalg, "solve_linear", refuse)
        monkeypatch.setattr(linalg, "inverse", refuse)
        values = [F(5), F(-1, 3), F(2), F(9, 7)]
        got = mu.fit_homogeneous(grid, values, 3, 2)
        for p, v in zip(grid, values):
            assert sum(c * p[0] ** t[0] * p[1] ** t[1] for t, c in got.items()) == v
        assert mu.limit_estimate(seq, 4).value == F(7)
        assert mu.limit_estimate(seq, 2).value == F(7)

    def test_singular_point_sets_raise(self):
        # twice each: a failed solve leaves nothing cached
        for _ in range(2):
            with pytest.raises(ValueError):
                mu.fit_homogeneous([(1, 1), (2, 2), (1, 3)], [1, 2, 3], 2, 2)
            with pytest.raises(ValueError):
                mu.fit_homogeneous([(1, 3), (2, 2), (1, 3)], [1, 2, 3], 2, 2)
            with pytest.raises(ValueError):
                mu.limit_estimate([(4, F(1)), (4, F(2)), (8, F(3))], order=3)
            with pytest.raises(ValueError):
                mu.limit_estimate([(4, F(1)), (4, F(2)), (4, F(3))], order=2)

    def test_value_count_checked(self):
        with pytest.raises(ValueError):
            mu.fit_homogeneous(mu.sample_grid(2, 2), [F(1), F(2)], 2, 2)


class TestExactGrowth:
    def test_single_filtration(self):
        assert mu.exact_growth([maximal_adic()], (1,), 1) == F(1, 2)

    def test_period_scaling_consistent(self):
        assert mu.exact_growth([maximal_adic()], (1,), 2) == F(1, 2)

    def test_pair_growth(self):
        pair = [maximal_adic(), parabola_adic()]
        assert mu.exact_growth(pair, (1, 1), 1) == F(5, 2)

    def test_homogeneous_of_degree_d(self):
        pair = [maximal_adic(), parabola_adic()]
        base = mu.exact_growth(pair, (1, 1), 1)
        for k in (2, 3):
            assert mu.exact_growth(pair, (k, k), 1) == k**2 * base


def product_covolume_growth(fs, n, s):
    """Slow oracle: covolume of the product of level-s ideal powers."""
    d = fs[0].dim
    prod = mo.unit_ideal(d)
    for f, nj in zip(fs, n):
        prod = prod * f.ideal_at(s).power(nj)
    return prod.covolume() / s**d


# (dim, kinds, largest truncation level).  The oracle's product ideals grow
# fast in dims 3 and 4, so those cases keep to few, small factors.
_HEAVY_CASES = [
    (3, ("adic",), 2),
    (3, ("fixed-plus-adic",), 2),
    (3, ("rounded-rational",), 2),
    (3, ("rounded-root",), 2),
    (3, ("rescaled",), 1),
    (3, ("adic", "rounded-root"), 1),
    (3, ("adic", "fixed-plus-adic", "rounded-rational"), 1),
    (4, ("adic",), 1),
]
_LIGHT_CASES = [
    (d, tuple(FILTRATION_KINDS[(k + j) % 5] for j in range(r)), 3)
    for d in (1, 2)
    for r in (1, 2, 3)
    for k in range(5)
]


class TestMinkowskiGrowthOracle:
    """The exact backend reads each grid point off a covolume form; the slow
    path multiplies the level ideals out.  Both must agree everywhere."""

    @pytest.mark.parametrize(
        "case",
        list(enumerate(_LIGHT_CASES + _HEAVY_CASES)),
        ids=lambda c: f"d{c[1][0]}-{'+'.join(c[1][1])}-a{c[1][2]}-{c[0]}",
    )
    def test_every_grid_point_matches_product_covolume(self, case):
        seed, (d, kinds, amax) = case
        rng = random.Random(9000 + seed)
        fs = [ft.truncate(random_filtration(rng, d, k), rng.randint(1, amax)) for k in kinds]
        pipe = mu._WeightedGrowth([(1, fs)], mu.TRUNCATION_EXACT)
        (_, _, s), = pipe.parts
        for n in mu.sample_grid(d, len(fs)):
            assert pipe.growth(n).value == product_covolume_growth(fs, n, s), n
        if len(fs) > 1:
            # the reduced fit reads the same form with the others at level 0
            keep = sorted(rng.sample(range(len(fs)), rng.randint(1, len(fs) - 1)))
            fresh = mu._WeightedGrowth([(1, [fs[j] for j in keep])], mu.TRUNCATION_EXACT)
            for n in mu.sample_grid(d, len(keep)):
                at = dict(zip(keep, n))
                embedded = tuple(at.get(j, 0) for j in range(len(fs)))
                assert pipe.growth(embedded).value == fresh.growth(n).value, (keep, n)
            got = {t: e.value for t, e in pipe.mixed(keep).coeffs.items()}
            assert got == {t: e.value for t, e in fresh.mixed().coeffs.items()}, keep

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_reduced_fits_leave_the_parent_growth_right(self, d):
        # One form per part serves every n >= 0.  The reduced fits over
        # filtrations (1, 2) and (0,) compute first, reading the form with the
        # others at level 0; the parent must then still read its own
        # filtrations right at every support, unit vectors included, in
        # every weighted part, and each reduced fit must equal a pipeline
        # built on its filtrations alone.
        rng = random.Random(4100 + d)
        kinds = rng.sample(FILTRATION_KINDS, 3)
        amax = 2 if d < 3 else 1
        parts = [
            (w, [ft.truncate(random_filtration(rng, d, k), rng.randint(1, amax)) for k in kinds])
            for w in (2, 3)
        ]
        pipe = mu._WeightedGrowth(parts, mu.TRUNCATION_EXACT)
        reduced = {keep: pipe.mixed(keep) for keep in ((1, 2), (0,))}

        def want(n):
            return sum(w * product_covolume_growth(fs, n, s) for w, fs, s in pipe.parts)

        supports = [c for k in (1, 2, 3) for c in itertools.combinations(range(3), k)]
        for support in supports:
            n = tuple(j + 1 if j in support else 0 for j in range(3))
            assert pipe.growth(n).value == want(n), n
        for n in mu.sample_grid(d, 3):
            assert pipe.growth(n).value == want(n), n
        units = [tuple(int(i == j) for i in range(3)) for j in range(3)]
        got = [e.value for e in pipe.multiplicities()]
        assert got == [math.factorial(d) * want(n) for n in units]
        for keep, rep in reduced.items():
            fresh = mu._WeightedGrowth(
                [(w, [fs[j] for j in keep]) for w, fs in parts], mu.TRUNCATION_EXACT
            )
            assert rep.r == len(keep)
            want_coeffs = {t: e.value for t, e in fresh.mixed().coeffs.items()}
            assert {t: e.value for t, e in rep.coeffs.items()} == want_coeffs, keep

    def test_one_form_serves_the_report_and_the_multiplicities(self, monkeypatch):
        # Every grid point and unit vector reads the one form of the part,
        # built over all three levels.
        calls = []
        build = pt._covolume_form

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(pt, "_covolume_form", counted)
        m = mo.maximal_ideal(2)
        fs = [
            ft.adic(m),
            ft.fixed_plus_adic(mo.ideal(2, [(1, 0)]), m),
            ft.adic(mo.ideal(2, [(2, 0), (0, 1)])),
        ]
        pipe = mu._WeightedGrowth([(1, fs)], mu.TRUNCATION_EXACT, trunc_level=1)
        pipe.mixed()
        pipe.multiplicities()
        assert len(calls) == 1

    def test_zero_weights_give_zero(self):
        f = ft.truncate(maximal_adic(), 1)
        assert mu.exact_growth([f, f], (0, 0), 1) == 0


def _grid_and_supports(rng, d, r):
    """The sample grid plus six random weights in 0..3 with some entry > 0."""
    ns = list(mu.sample_grid(d, r))
    while len(ns) < len(mu.sample_grid(d, r)) + 6:
        n = tuple(rng.randint(0, 3) for _ in range(r))
        if any(n):
            ns.append(n)
    return ns


class TestGrowthForm:
    """One covolume form per part, read at every support, against sums of
    level vertices (one fresh hull per value) and, where small, product
    ideals."""

    @pytest.mark.parametrize("d,r", [(d, r) for d in (1, 2, 3, 4) for r in (1, 2, 3)])
    def test_random_filtrations_match_vertex_sums(self, d, r):
        rng = random.Random(7100 + 10 * d + r)
        for _ in range(6 if d <= 2 else 3):
            kinds = [rng.choice(FILTRATION_KINDS) for _ in range(r)]
            amax = 3 if d <= 2 else 2 if d == 3 else 1
            fs = [ft.truncate(random_filtration(rng, d, k), rng.randint(1, amax)) for k in kinds]
            pipe = mu._WeightedGrowth([(1, fs)], mu.TRUNCATION_EXACT)
            (_, _, s), = pipe.parts
            for n in _grid_and_supports(rng, d, r):
                want = vertex_sum_growth(fs, n, s)
                assert pipe.growth(n).value == want, (kinds, n)
                assert mu.exact_growth(fs, n, s) == want, (kinds, n)
                if d <= 2:
                    assert product_covolume_growth(fs, n, s) == want, (kinds, n)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_coplanar_powers_of_the_maximal_ideal(self, d):
        # Every generator of m^a lies on one hyperplane, so the facet hull
        # meets many coplanar points; covol(k*NP(m)) = k^d/d! in closed form.
        m = mo.maximal_ideal(d)
        for exps in ((6, 3), (3, 2), (2, 1, 1)):
            fs = [ft.truncate(ft.adic(m.power(a)), 1) for a in exps]
            pipe = mu._WeightedGrowth([(1, fs)], mu.TRUNCATION_EXACT)
            for n in _grid_and_supports(random.Random(d), d, len(exps)):
                want = F(sum(a * nj for a, nj in zip(exps, n)) ** d, math.factorial(d))
                assert pipe.growth(n).value == want, (exps, n)
                assert vertex_sum_growth(fs, n, 1) == want, (exps, n)
        # a product of two such ideals is one more power: m^3 * m^2 = m^5
        prod = ft.truncate(ft.adic(m.power(3) * m.power(2)), 1)
        assert mu.exact_growth([prod], (2,), 1) == F(10**d, math.factorial(d))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_unit_level_among_the_factors(self, d):
        # The unit ideal's Newton polyhedron is the orthant: its weight
        # changes nothing, and a support of unit levels alone grows by 0.
        rng = random.Random(7300 + d)
        unit = ft.truncate(ft.adic(mo.unit_ideal(d)), 1)
        f = ft.truncate(random_filtration(rng, d, "adic"), 1)
        g = ft.truncate(random_filtration(rng, d, "rounded-rational"), 1)
        fs = [f, unit, g]
        pipe = mu._WeightedGrowth([(1, fs)], mu.TRUNCATION_EXACT)
        (_, _, s), = pipe.parts
        for n in _grid_and_supports(rng, d, 3):
            want = vertex_sum_growth([f, g], (n[0], n[2]), s)
            assert pipe.growth(n).value == want, n
            assert vertex_sum_growth(fs, n, s) == want, n
        assert pipe.growth((0, 2, 0)).value == 0
        assert mu.exact_growth([unit, unit], (1, 3), 1) == 0

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_truncation_periods_above_one(self, d):
        # The sqrt(2) valuation truncated at 2 keeps levels that need period
        # 2; every value divides the covolume of level 2 sums by 2^d.
        root = ft.truncate(ft.rounded_valuation((1,) * d, ft.root_scale(2)), 2)
        fs = [root, ft.truncate(ft.adic(mo.maximal_ideal(d)), 1)]
        pipe = mu._WeightedGrowth([(1, fs)], mu.TRUNCATION_EXACT)
        (_, _, s), = pipe.parts
        assert s > 1
        for n in _grid_and_supports(random.Random(7400 + d), d, 2):
            want = vertex_sum_growth(fs, n, s)
            assert pipe.growth(n).value == want, n
            if d <= 3:
                assert product_covolume_growth(fs, n, s) == want, n


class TestExactErrorPaths:
    """The checks covolume() makes on a product ideal apply to each level."""

    def test_dimension_five_is_refused(self):
        f = ft.adic(mo.maximal_ideal(5))
        with pytest.raises(ValueError, match="geometric operations are limited to dimension 4"):
            mu.mixed_multiplicities([f], trunc_level=1)
        # every level is read, one at weight 0 too
        with pytest.raises(ValueError, match="geometric operations are limited to dimension 4"):
            mu.exact_growth([f], (0,), 1)

    def test_non_primary_level_is_refused(self):
        class PowersOfX(ft.Filtration):
            def _level(self, n):
                return mo.ideal(2, [(n, 0)])

        pair = [maximal_adic(), PowersOfX(2)]
        with pytest.raises(ValueError, match="covolume is finite only for primary ideals"):
            mu.mixed_multiplicities(pair, trunc_level=1)
        with pytest.raises(ValueError, match="covolume is finite only for primary ideals"):
            mu.exact_growth(pair, (1, 1), 1)
        # every level is read, one at weight 0 too
        with pytest.raises(ValueError, match="covolume is finite only for primary ideals"):
            mu.exact_growth(pair, (1, 0), 1)


class TestCommonPeriod:
    def test_lcm_and_bound(self):
        # periods 1 and 2, each proved for every i, so their lcm is too
        a = ft.truncate(ft.adic(mo.ideal(1, [(2,)])), 3)
        b = ft.truncate(sqrt2_filtration(), 2)
        assert [ft.noetherian_period(f) for f in (a, b)] == [1, 2]
        rep = mu.mixed_multiplicities([a, b], mu.TRUNCATION_EXACT)
        for est in rep.coeffs.values():
            assert est.error_note == "exact along period 2, certified for i <= 16"


class TestGrid:
    def test_type_vectors_sorted_and_counted(self):
        assert mu.type_vectors(2, 2) == ((2, 0), (1, 1), (0, 2))
        assert len(mu.type_vectors(2, 3)) == 6
        assert len(mu.type_vectors(3, 2)) == 4

    def test_grid_is_shifted_types(self):
        assert mu.sample_grid(2, 2) == ((3, 1), (2, 2), (1, 3))

    def test_requires_a_filtration(self):
        with pytest.raises(ValueError):
            mu.type_vectors(2, 0)

    def test_fit_recovers_known_polynomial(self):
        # f(x, y) = x^2 + 3xy + 2y^2 over the degree-2 grid
        grid = mu.sample_grid(2, 2)
        vals = [x * x + 3 * x * y + 2 * y * y for x, y in grid]
        got = mu.fit_homogeneous(grid, vals, 2, 2)
        assert got == {(2, 0): F(1), (1, 1): F(3), (0, 2): F(2)}

    def test_fit_point_count_checked(self):
        with pytest.raises(ValueError):
            mu.fit_homogeneous([(1, 1)], [F(1)], 2, 2)


class TestMixedMultiplicities:
    def test_known_pair_exact(self):
        rep = mu.mixed_multiplicities(
            [maximal_adic(), parabola_adic()], trunc_level=2
        )
        assert {t: e.value for t, e in rep.coeffs.items()} == {
            (2, 0): F(1),
            (1, 1): F(1),
            (0, 2): F(2),
        }
        assert rep.backend == mu.TRUNCATION_EXACT
        assert all(e.method == mu.TRUNCATION_EXACT for e in rep.coeffs.values())

    def test_direct_backend_agrees_here(self):
        rep = mu.mixed_multiplicities(
            [maximal_adic(), parabola_adic()], backend=mu.DIRECT, ladder=(8, 16, 32)
        )
        assert {t: e.value for t, e in rep.coeffs.items()} == {
            (2, 0): F(1),
            (1, 1): F(1),
            (0, 2): F(2),
        }

    def test_symmetry_under_permutation(self):
        ab = mu.mixed_multiplicities([maximal_adic(), parabola_adic()], trunc_level=2)
        ba = mu.mixed_multiplicities([parabola_adic(), maximal_adic()], trunc_level=2)
        for (s, t), e in ab.coeffs.items():
            assert ba.coeffs[(t, s)].value == e.value

    def test_single_input_matches_multiplicity(self):
        rep = mu.mixed_multiplicities([maximal_adic()], trunc_level=1)
        est = mu.multiplicity_estimate(
            maximal_adic(), backend=mu.TRUNCATION_EXACT, trunc_level=1
        )
        assert rep.coeffs[(2,)].value == est.value == F(1)

    def test_three_copies_all_ones(self):
        fs = [maximal_adic() for _ in range(3)]
        rep = mu.mixed_multiplicities(fs, trunc_level=1)
        assert len(rep.coeffs) == 6
        assert all(e.value == F(1) for e in rep.coeffs.values())

    def test_exact_backend_needs_truncation(self):
        with pytest.raises(ValueError):
            mu.mixed_multiplicities([maximal_adic(), parabola_adic()])

    def test_pretruncated_inputs_accepted(self):
        fs = [ft.truncate(maximal_adic(), 1), ft.truncate(parabola_adic(), 1)]
        rep = mu.mixed_multiplicities(fs)
        assert rep.coeffs[(1, 1)].value == F(1)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            mu.mixed_multiplicities([maximal_adic()], backend="montecarlo")


class TestMultiplicityEstimate:
    def test_direct_on_adic(self):
        est = mu.multiplicity_estimate(maximal_adic())
        assert est.value == F(1)
        assert est.error_note.endswith("; growth scaled by 2!")
        assert est.tail[-1][1] == est.lower_evidence  # tail in the value's units

    def test_exact_on_truncated_sqrt2(self):
        est = mu.multiplicity_estimate(
            ft.truncate(sqrt2_filtration(), 8),
            backend=mu.TRUNCATION_EXACT,
        )
        assert est.value == F(10, 7)
        assert est.method == mu.TRUNCATION_EXACT

    @pytest.mark.parametrize("a", [1, 4, 16, 20])
    def test_note_label(self, a):
        # every period holds for every i; the label reads max(16, a)
        est = mu.multiplicity_estimate(
            ft.truncate(ft.rounded_valuation((1,), ft.root_scale(2)), a), mu.TRUNCATION_EXACT
        )
        assert f"certified for i <= {max(16, a)};" in est.error_note

    def test_exact_needs_truncation(self):
        with pytest.raises(ValueError):
            mu.multiplicity_estimate(maximal_adic(), backend=mu.TRUNCATION_EXACT)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            mu.multiplicity_estimate(maximal_adic(), backend="guess")


class TestTruncationLadder:
    def test_adic_ladder_is_constant(self):
        tl = mu.truncation_ladder([maximal_adic()], [1, 2, 4])
        assert all(d == F(0) for d in tl.differences[(2,)])
        assert all(rep.coeffs[(2,)].value == F(1) for _, rep in tl.entries)

    def test_sqrt2_ladder_descends(self):
        tl = mu.truncation_ladder([sqrt2_filtration()], [1, 2, 4, 8])
        vals = [rep.coeffs[(1,)].value for _, rep in tl.entries]
        assert vals == [F(2), F(3, 2), F(3, 2), F(10, 7)]
        assert all(d <= 0 for d in tl.differences[(1,)])

    def test_line_plus_powers_ladder_descends(self):
        tl = mu.truncation_ladder([line_plus_powers()], [1, 2, 4])
        vals = [rep.coeffs[(2,)].value for _, rep in tl.entries]
        assert vals == [F(1), F(1, 2), F(1, 4)]

    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            mu.truncation_ladder([maximal_adic()], [2, 2])


class TestPositivityReport:
    def test_degenerate_pair_direct_is_exact_here(self):
        # the colength of (x) + m^(a+b) at scaled levels is affine in the
        # scale, so even the order-2 fit lands the limits exactly
        rep = mu.positivity_report(
            [line_plus_powers(), maximal_adic()],
            backend=mu.DIRECT,
            ladder=(16, 32, 64),
        )
        assert {t: e.value for t, e in rep.report.coeffs.items()} == {
            (2, 0): F(0),
            (1, 1): F(0),
            (0, 2): F(1),
        }
        assert rep.positive_indices == (1,)
        assert rep.ok
        assert all(c.passed for c in rep.checks)

    def test_degenerate_pair_higher_order(self):
        rep = mu.positivity_report(
            [line_plus_powers(), maximal_adic()],
            backend=mu.DIRECT,
            ladder=(16, 32, 64),
            order=3,
        )
        assert rep.ok
        assert rep.report.coeffs[(1, 1)].value == F(0)

    def test_two_positive_filtrations(self):
        rep = mu.positivity_report(
            [maximal_adic(), parabola_adic()], trunc_level=2
        )
        assert rep.positive_indices == (0, 1)
        assert rep.ok
        assert [c.name for c in rep.checks] == [
            "nonnegative",
            "vanishing-with-zero-weight",
            "survivors-match-reduced",
            "survivors-positive",
        ]

    def test_all_zero_single(self):
        rep = mu.positivity_report(
            [line_plus_powers()], backend=mu.DIRECT, ladder=(16, 32, 64)
        )
        assert rep.positive_indices == ()
        assert rep.ok

    def test_threshold_recorded(self):
        rep = mu.positivity_report(
            [maximal_adic(), parabola_adic()], trunc_level=1, zero_threshold=F(1, 50)
        )
        assert rep.zero_threshold == F(1, 50)
        assert mu.DEFAULT_ZERO_THRESHOLD == F(1, 1000)


class StubPipeline:
    """What the positivity report reads of a growth pipeline: a backend and
    mixed(keep): with no keep a report with crafted coefficients, with one
    the reduced report, each such call recorded."""

    def __init__(self, backend, d, values, reduced=None):
        self.backend = backend
        self.d = d
        self.values = values
        self.reduced = reduced
        self.kept = []

    def mixed(self, keep=None):
        values = self.values
        if keep is not None:
            self.kept.append(list(keep))
            values = self.reduced
        r = len(next(iter(values)))
        assert list(values) == list(mu.type_vectors(self.d, r))
        coeffs = {
            t: mu.LimitEstimate(F(v), F(v), self.backend, "crafted")
            for t, v in values.items()
        }
        return mu.MixedMultiplicityReport(r=r, d=self.d, coeffs=coeffs, backend=self.backend)


BOTH_BACKENDS = pytest.mark.parametrize("backend", [mu.TRUNCATION_EXACT, mu.DIRECT])


def stub_positivity(pipe, zero_threshold=F(1, 10)):
    rep = mu._positivity(pipe, zero_threshold)
    return rep, [(c.name, c.passed, c.detail) for c in rep.checks]


class TestPositivityDetails:
    """Every check's detail string, passing and failing, on crafted reports
    with no, all and some surviving indices, and the reduced instance is
    fitted only when some but not all indices survive."""

    @BOTH_BACKENDS
    def test_no_survivors(self, backend):
        pipe = StubPipeline(backend, 2, {(2, 0): -1, (1, 1): 3, (0, 2): 0})
        rep, checks = stub_positivity(pipe)
        assert checks == [
            ("nonnegative", False, "negative at (2, 0): -1"),
            ("vanishing-with-zero-weight", False, "nonzero at (2, 0): -1"),
            ("survivors-match-reduced", True, "no surviving indices"),
            ("survivors-positive", True, "no surviving indices"),
        ]
        assert rep.single == ((0, F(-1), False), (1, F(0), False))
        assert rep.positive_indices == ()
        assert not rep.ok
        assert pipe.kept == []

    @BOTH_BACKENDS
    def test_all_survive_passing(self, backend):
        pipe = StubPipeline(backend, 2, {(2, 0): 1, (1, 1): 1, (0, 2): 2})
        rep, checks = stub_positivity(pipe)
        assert checks == [
            ("nonnegative", True, "all coefficients >= 0"),
            (
                "vanishing-with-zero-weight",
                True,
                "0 coefficients weight a zero-multiplicity filtration; all vanish",
            ),
            ("survivors-match-reduced", True, "all indices survive"),
            ("survivors-positive", True, "all coefficients positive"),
        ]
        assert rep.positive_indices == (0, 1)
        assert rep.ok
        assert pipe.kept == []

    @BOTH_BACKENDS
    def test_all_survive_failing(self, backend):
        pipe = StubPipeline(backend, 2, {(2, 0): 1, (1, 1): -2, (0, 2): 2})
        rep, checks = stub_positivity(pipe)
        assert checks == [
            ("nonnegative", False, "negative at (1, 1): -2"),
            (
                "vanishing-with-zero-weight",
                True,
                "0 coefficients weight a zero-multiplicity filtration; all vanish",
            ),
            ("survivors-match-reduced", True, "all indices survive"),
            ("survivors-positive", False, "not positive at (1, 1): -2"),
        ]
        assert not rep.ok
        assert pipe.kept == []

    @BOTH_BACKENDS
    def test_some_survive_passing(self, backend):
        full = {(2, 0, 0): 1, (1, 1, 0): 0, (1, 0, 1): 3, (0, 2, 0): 0, (0, 1, 1): 0, (0, 0, 2): 2}
        pipe = StubPipeline(backend, 2, full, {(2, 0): 1, (1, 1): 3, (0, 2): 2})
        rep, checks = stub_positivity(pipe)
        assert checks == [
            ("nonnegative", True, "all coefficients >= 0"),
            (
                "vanishing-with-zero-weight",
                True,
                "3 coefficients weight a zero-multiplicity filtration; all vanish",
            ),
            (
                "survivors-match-reduced",
                True,
                "3 surviving coefficients equal the reduced instance",
            ),
            ("survivors-positive", True, "surviving coefficients positive"),
        ]
        assert rep.single == ((0, F(1), True), (1, F(0), False), (2, F(2), True))
        assert rep.positive_indices == (0, 2)
        assert rep.ok
        assert pipe.kept == [[0, 2]]

    @BOTH_BACKENDS
    def test_some_survive_failing(self, backend):
        full = {(2, 0, 0): 1, (1, 1, 0): 4, (1, 0, 1): -3, (0, 2, 0): 0, (0, 1, 1): 0, (0, 0, 2): 2}
        pipe = StubPipeline(backend, 2, full, {(2, 0): 1, (1, 1): 5, (0, 2): 7})
        rep, checks = stub_positivity(pipe)
        assert checks == [
            ("nonnegative", False, "negative at (1, 0, 1): -3"),
            ("vanishing-with-zero-weight", False, "nonzero at (1, 1, 0): 4"),
            ("survivors-match-reduced", False, "mismatch at (1, 0, 1): -3 vs 5"),
            ("survivors-positive", False, "not positive at (1, 0, 1): -3"),
        ]
        assert rep.positive_indices == (0, 2)
        assert not rep.ok
        assert pipe.kept == [[0, 2]]

    @pytest.mark.parametrize(
        "backend, checks",
        [
            (
                mu.TRUNCATION_EXACT,
                [
                    ("nonnegative", False, "negative at (0, 1, 1): -1/20"),
                    ("vanishing-with-zero-weight", False, "nonzero at (1, 1, 0): 1/20"),
                    ("survivors-match-reduced", False, "mismatch at (0, 0, 2): 2 vs 41/20"),
                    ("survivors-positive", True, "surviving coefficients positive"),
                ],
            ),
            (
                mu.DIRECT,
                [
                    ("nonnegative", True, "all coefficients >= 0"),
                    (
                        "vanishing-with-zero-weight",
                        True,
                        "3 coefficients weight a zero-multiplicity filtration; all vanish",
                    ),
                    (
                        "survivors-match-reduced",
                        True,
                        "3 surviving coefficients equal the reduced instance",
                    ),
                    ("survivors-positive", True, "surviving coefficients positive"),
                ],
            ),
        ],
    )
    def test_threshold_only_for_direct_estimates(self, backend, checks):
        # 1/20 is below the 1/10 threshold: zero for a ladder estimate, not
        # for an exact value
        full = {
            (2, 0, 0): 1, (1, 1, 0): F(1, 20), (1, 0, 1): 3,
            (0, 2, 0): 0, (0, 1, 1): F(-1, 20), (0, 0, 2): 2,
        }
        pipe = StubPipeline(backend, 2, full, {(2, 0): 1, (1, 1): 3, (0, 2): F(41, 20)})
        rep, got = stub_positivity(pipe)
        assert got == checks
        assert rep.positive_indices == (0, 2)
        assert pipe.kept == [[0, 2]]
