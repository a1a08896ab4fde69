"""Filtration level computation, truncation, periods, submultiplicativity."""

import contextlib
import itertools
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F

import pytest

from conftest import FILTRATION_KINDS, random_filtration, reaches, small_primary_ideal
from filtmult import filtration as ft
from filtmult import monomial as mo
from filtmult import multiplicity as mu


def sqrt2_filtration():
    return ft.rounded_valuation((1,), ft.root_scale(2))


def line_plus_powers():
    return ft.fixed_plus_adic(mo.ideal(2, [(1, 0)]), mo.maximal_ideal(2))


class TestSurdScalar:
    def test_sqrt2_ceiling_table(self):
        s = ft.root_scale(2)
        expected = [2, 3, 5, 6, 8, 9, 10, 12, 13, 15, 16, 17]
        assert [s.scaled_ceiling(n) for n in range(1, 13)] == expected

    def test_rational_ceiling(self):
        s = ft.rational_scale(3, 2)
        assert [s.scaled_ceiling(n) for n in range(0, 6)] == [0, 2, 3, 5, 6, 8]

    def test_ceiling_with_unit(self):
        # smallest k with k/2 >= 3*sqrt(2) = 4.2426..: k = 9
        assert ft.root_scale(2).scaled_ceiling(3, F(1, 2)) == 9

    def test_root_of_perfect_square_normalizes(self):
        s = ft.root_scale(4)
        assert not s.is_root
        assert (s.p, s.q) == (2, 1)
        assert ft.root_scale(9, 4) == ft.rational_scale(3, 2)

    def test_ceiling_is_exact_near_the_threshold(self):
        # 3 >= 2*sqrt(2) since 9 >= 8, but 14/5 = 2.8 falls short
        assert ft.root_scale(2).scaled_ceiling(2, F(1, 5)) == 15
        # 2*(3/2) = 3 is met exactly, and 3 - 1/10^9 falls short
        assert ft.rational_scale(3, 2).scaled_ceiling(2, F(1, 10**9)) == 3 * 10**9

    def test_validation(self):
        with pytest.raises(ValueError):
            ft.SurdScalar(0, 1, is_root=False)
        with pytest.raises(ValueError):
            ft.SurdScalar(2, -1, is_root=True)
        with pytest.raises(ValueError):
            ft.root_scale(2).scaled_ceiling(-1)
        with pytest.raises(ValueError):
            ft.root_scale(2).scaled_ceiling(1, F(0))

    @pytest.mark.parametrize("seed", range(4))
    def test_offset_ceiling_matches_bisection(self, seed):
        # the closed form against the least k with offset + k*unit >= n*s
        rng = random.Random(seed)
        for _ in range(500):
            make = rng.choice([ft.rational_scale, ft.root_scale])
            s = make(rng.randint(1, 40), rng.randint(1, 20))
            n = rng.randint(0, 30)
            unit = F(rng.randint(1, 9), rng.randint(1, 7))
            offset = F(rng.randint(0, 60), rng.randint(1, 7))
            hi = 1
            while not reaches(s, offset + hi * unit, n):
                hi *= 2
            lo = 0
            while lo < hi:
                mid = (lo + hi) // 2
                if reaches(s, offset + mid * unit, n):
                    hi = mid
                else:
                    lo = mid + 1
            assert s.scaled_ceiling(n, unit, offset) == lo, (s, n, unit, offset)

    def test_scales_reduce_to_lowest_terms(self):
        assert ft.root_scale(8, 4) == ft.SurdScalar(2, 1, is_root=True)
        assert ft.rational_scale(6, 4) == ft.SurdScalar(3, 2, is_root=False)


class TestLevels:
    def test_level_zero_is_unit(self):
        for f in (ft.adic(mo.maximal_ideal(2)), sqrt2_filtration(), line_plus_powers()):
            assert f.ideal_at(0).is_unit()

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            ft.adic(mo.maximal_ideal(2)).ideal_at(-1)

    def test_adic_levels_are_powers(self):
        m = mo.maximal_ideal(2)
        f = ft.adic(m)
        assert f.ideal_at(3).gens == ((0, 3), (1, 2), (2, 1), (3, 0))
        assert all(f.ideal_at(n) == m.power(n) for n in range(1, 8))

    def test_sqrt2_levels(self):
        f = sqrt2_filtration()
        assert f.ideal_at(2).gens == ((3,),)
        assert [f.ideal_at(n).gens[0][0] for n in range(1, 13)] == [
            2, 3, 5, 6, 8, 9, 10, 12, 13, 15, 16, 17,
        ]

    def test_fixed_plus_adic_levels(self):
        f = line_plus_powers()
        assert f.ideal_at(2).gens == ((0, 2), (1, 0))
        assert f.ideal_at(5) == mo.ideal(2, [(1, 0), (0, 5)])

    def test_rounded_valuation_weighted(self):
        f = ft.rounded_valuation((1, F(3, 2)), ft.rational_scale(1))
        assert f.ideal_at(1).gens == ((0, 1), (1, 0))
        assert f.ideal_at(3).gens == ((0, 2), (2, 1), (3, 0))

    def test_unit_weights_match_adic_maximal(self):
        f = ft.rounded_valuation((1, 1), ft.rational_scale(1))
        m = mo.maximal_ideal(2)
        assert all(f.ideal_at(n) == m.power(n) for n in range(0, 7))

    def test_chains_descend(self):
        for f in (
            ft.adic(mo.ideal(2, [(2, 0), (0, 1)])),
            sqrt2_filtration(),
            line_plus_powers(),
            ft.truncate(sqrt2_filtration(), 3),
        ):
            for n in range(0, 10):
                assert f.ideal_at(n).contains_ideal(f.ideal_at(n + 1))

    def test_builtins_submultiplicative(self):
        for f in (
            ft.adic(mo.ideal(2, [(2, 0), (0, 1)])),
            sqrt2_filtration(),
            line_plus_powers(),
        ):
            report = ft.check_submultiplicative(f, 8)
            assert report.ok and report.first_violation is None

    def test_memo_returns_same_object(self):
        f = sqrt2_filtration()
        assert f.ideal_at(5) is f.ideal_at(5)

    def test_concurrent_reads_agree(self):
        # Deep levels scan the shared memo while other threads add to it.
        # Scanning it in place raised "dictionary changed size during
        # iteration" in about a quarter of the plane rounds, so 40 fresh
        # rounds catch it all but surely.
        plane = ft.rounded_valuation((1, 2), ft.root_scale(2))
        levels = list(range(24, 0, -1)) * 8
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for base, a, rounds in ((sqrt2_filtration(), 4, 1), (plane, 3, 40)):
                expected = {n: ft.truncate(base, a).ideal_at(n) for n in range(1, 25)}
                for _ in range(rounds):
                    f = ft.truncate(base, a)
                    with ThreadPoolExecutor(max_workers=8) as pool:
                        got = list(pool.map(f.ideal_at, levels))
                    assert all(g == expected[n] for g, n in zip(got, levels))
        finally:
            sys.setswitchinterval(saved)


def whole_box_level(f, n):
    """Level n of a rounded-valuation filtration from every box point."""
    bounds = [f.scale.scaled_ceiling(n, w) for w in f.weights]
    hits = [
        a
        for a in itertools.product(*(range(b + 1) for b in bounds))
        if reaches(f.scale, sum((w * c for w, c in zip(f.weights, a)), F(0)), n)
    ]
    return mo.ideal(f.dim, hits)


class TestRoundedValuationOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize(
        "scale",
        [ft.rational_scale(1), ft.rational_scale(7, 4), ft.root_scale(2), ft.root_scale(5, 3)],
        ids=["1", "7/4", "sqrt2", "sqrt5/3"],
    )
    def test_levels_match_whole_box(self, dim, scale):
        weight_sets = {
            1: [(F(1),), (F(3, 2),), (F(2, 3),)],
            2: [(F(1), F(3, 2)), (F(5, 4), F(2, 3)), (F(3), F(1))],
            3: [(F(1), F(1), F(1)), (F(3, 2), F(1), F(5, 4)), (F(2), F(4, 3), F(1))],
        }[dim]
        for weights in weight_sets:
            f = ft.rounded_valuation(weights, scale)
            for n in range(1, 9):
                assert f.ideal_at(n) == whole_box_level(f, n), (weights, n)


class TestConstructorValidation:
    def test_adic_needs_primary(self):
        with pytest.raises(ValueError):
            ft.adic(mo.ideal(2, [(1, 0)]))

    def test_fixed_plus_adic_rejects_unit_fixed(self):
        with pytest.raises(ValueError):
            ft.fixed_plus_adic(mo.unit_ideal(2), mo.maximal_ideal(2))

    def test_fixed_plus_adic_rejects_non_primary_bulk(self):
        with pytest.raises(ValueError):
            ft.fixed_plus_adic(mo.ideal(2, [(1, 0)]), mo.ideal(2, [(0, 1)]))

    def test_fixed_plus_adic_dim_mismatch(self):
        with pytest.raises(ValueError):
            ft.fixed_plus_adic(mo.ideal(1, [(1,)]), mo.maximal_ideal(2))

    def test_rounded_valuation_weights(self):
        with pytest.raises(ValueError):
            ft.rounded_valuation((), ft.rational_scale(1))
        with pytest.raises(ValueError):
            ft.rounded_valuation((1, -1), ft.rational_scale(1))

    def test_truncate_and_rescale_bounds(self):
        f = ft.adic(mo.maximal_ideal(2))
        with pytest.raises(ValueError):
            ft.truncate(f, 0)
        with pytest.raises(ValueError):
            ft.rescale(f, 0)

    def test_constructor_types(self):
        m = mo.maximal_ideal(2)
        assert isinstance(ft.adic(m), ft.AdicFiltration)
        assert isinstance(line_plus_powers(), ft.FixedPlusAdicFiltration)
        assert isinstance(sqrt2_filtration(), ft.RoundedValuationFiltration)
        assert isinstance(ft.truncate(ft.adic(m), 2), ft.TruncatedFiltration)
        assert isinstance(ft.rescale(ft.adic(m), 2), ft.RescaledFiltration)


class TwoLevelBase(ft.Filtration):
    """Prescribes the first two levels; deeper reads fall back to powers."""

    def _level(self, n):
        if n == 1:
            return mo.maximal_ideal(2)
        if n == 2:
            return mo.ideal(2, [(2, 0), (0, 1)])
        return mo.maximal_ideal(2).power(n)


class SkippingBase(ft.Filtration):
    """Levels (x, y), (x^3, y^3), (x^4, y^4), then m^(4n): level one
    squared is not inside level two, so this is no filtration."""

    def _level(self, n):
        k = {1: 1, 2: 3, 3: 4}.get(n)
        if k is None:
            return mo.maximal_ideal(2).power(4 * n)
        return mo.ideal(2, [(k, 0), (0, k)])


class TestTruncation:
    def test_truncating_adic_changes_nothing(self):
        m = mo.maximal_ideal(2)
        f, t = ft.adic(m), ft.truncate(ft.adic(m), 3)
        assert all(t.ideal_at(n) == f.ideal_at(n) for n in range(0, 12))

    def test_level_one_truncation_gives_powers(self):
        f = sqrt2_filtration()
        t = ft.truncate(sqrt2_filtration(), 1)
        first = f.ideal_at(1)
        assert all(t.ideal_at(n) == first.power(n) for n in range(1, 10))

    @pytest.mark.parametrize("a", [2, 3])
    def test_rejects_a_base_that_is_no_filtration_below_a(self, a):
        with pytest.raises(ValueError, match=f"below {a}: levels 1 and 1 multiply outside level 2"):
            ft.truncate(SkippingBase(2), a)

    def test_level_one_takes_any_base(self):
        t = ft.truncate(SkippingBase(2), 1)
        assert t.ideal_at(3) == mo.ideal(2, [(1, 0), (0, 1)]).power(3)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind", FILTRATION_KINDS)
    def test_builtin_kinds_pass_the_base_check(self, dim, kind):
        rng = random.Random(dim)
        base = random_filtration(rng, dim, kind)
        for a in range(1, 5):
            # a truncation is a filtration too, so it truncates again
            assert ft.truncate(ft.truncate(base, a), a + 1).a == a + 1

    def test_regeneration_from_two_levels(self):
        t = ft.truncate(TwoLevelBase(2), 2)
        assert t.ideal_at(3).gens == ((0, 2), (1, 1), (3, 0))
        assert t.ideal_at(4).gens == ((0, 2), (2, 1), (4, 0))

    def test_agrees_with_base_up_to_cutoff(self):
        f = sqrt2_filtration()
        for a in (1, 2, 5):
            t = ft.truncate(sqrt2_filtration(), a)
            assert all(t.ideal_at(n) == f.ideal_at(n) for n in range(0, a + 1))

    def test_monotone_in_cutoff_and_below_base(self):
        f = sqrt2_filtration()
        trunc = {a: ft.truncate(sqrt2_filtration(), a) for a in range(1, 9)}
        for n in range(1, 17):
            for a in range(1, 8):
                finer = trunc[a + 1].ideal_at(n)
                assert finer.contains_ideal(trunc[a].ideal_at(n))
            assert f.ideal_at(n).contains_ideal(trunc[8].ideal_at(n))

    def test_exposes_base_and_cutoff(self):
        base = sqrt2_filtration()
        t = ft.truncate(base, 4)
        assert t.a == 4 and t.base is base

    def test_deep_level_reads_few_levels(self, monkeypatch):
        # a fresh deep read halves its way down, so it touches a few levels
        # near n/2, n/4, ... instead of every level below the target
        calls = []
        real = ft.Filtration.ideal_at

        def counted(self, n):
            calls.append(n)
            return real(self, n)

        monkeypatch.setattr(ft.Filtration, "ideal_at", counted)
        base = mo.ideal(2, [(2, 0), (1, 1), (0, 3)])
        deep = ft.truncate(ft.adic(base), 2).ideal_at(192)
        assert len(calls) < 200
        assert deep == base.power(192)

    def test_dimension_one_matches_generic_recurrence(self):
        # the exponent fast path must agree with the ideal-level recurrence
        t = ft.truncate(sqrt2_filtration(), 3)
        exps = [t.ideal_at(n).gens[0][0] for n in range(1, 20)]
        table = {1: 2, 2: 3, 3: 5}
        for n in range(4, 20):
            table[n] = min(table[i] + table[n - i] for i in range(1, min(3, n - 1) + 1))
        assert exps == [table[n] for n in range(1, 20)]


def truncation_by_recurrence(base, a, top):
    """Levels 1..top of truncate(base, a), built in order by the sum over
    1 <= i <= a of level(i) * level(n - i)."""
    levels = {n: base.ideal_at(n) for n in range(1, a + 1)}
    for n in range(a + 1, top + 1):
        terms = [levels[i] * levels[n - i] for i in range(1, a + 1)]
        levels[n] = sum(terms[1:], terms[0])
    return levels


@contextlib.contextmanager
def default_recursion_limit():
    """Run the block under CPython's default recursion limit of 1000."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


class TestLevelRuleOracle:
    """Adic, fixed-plus-adic and truncated levels share one rule whose
    split point depends on what is memoized; every read order must give
    the same levels as an order-free oracle."""

    TOP = {1: 24, 2: 14, 3: 8}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_adic_and_fixed_plus_adic_in_any_order(self, dim, seed):
        rng = random.Random(seed)
        top = self.TOP[dim]
        bulk = small_primary_ideal(rng, dim)
        fixed = mo.ideal(dim, [tuple(rng.randint(0, 1) for _ in range(dim - 1)) + (1,)])
        order = list(range(1, top + 1))
        rng.shuffle(order)
        f, g = ft.adic(bulk), ft.fixed_plus_adic(fixed, bulk)
        for n in order:
            assert f.ideal_at(n) == bulk.power(n)
            assert g.ideal_at(n) == fixed + bulk.power(n)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_truncated_in_any_order(self, dim, a, seed):
        rng = random.Random(100 * dim + 10 * a + seed)
        top = self.TOP[dim]
        base = random_filtration(rng, dim, rng.choice(["rounded-rational", "rounded-root"]))
        want = truncation_by_recurrence(base, a, top)
        order = list(range(1, top + 1))
        rng.shuffle(order)
        t = ft.truncate(base, a)
        assert [t.ideal_at(n) for n in order] == [want[n] for n in order]

    def test_deep_fresh_reads_stay_shallow(self, monkeypatch):
        # a fresh level n nests about log2(n) reads deep, whatever a is
        depth = {"now": 0, "max": 0}
        real = ft.Filtration.ideal_at

        def nested(self, n):
            depth["now"] += 1
            depth["max"] = max(depth["max"], depth["now"])
            try:
                return real(self, n)
            finally:
                depth["now"] -= 1

        monkeypatch.setattr(ft.Filtration, "ideal_at", nested)
        line = mo.ideal(1, [(2,)])
        base = mo.ideal(2, [(2, 0), (1, 1), (0, 3)])
        cases = [(ft.adic(line), 3000, line), (ft.truncate(ft.adic(base), 3), 400, base)]
        for f, n, gen in cases:
            depth["max"] = 0
            with default_recursion_limit():
                got = f.ideal_at(n)
            assert depth["max"] <= 2 * n.bit_length()
            assert got == gen.power(n)


def truncation_by_compositions(base, a, n):
    """Level n of truncate(base, a) as the sum, over every composition of n
    with parts <= a, of the product of the base levels at its parts."""
    products = {}
    total = None
    for cut in itertools.product((False, True), repeat=n - 1):
        parts, run = [], 1
        for c in cut:
            if c:
                parts.append(run)
                run = 0
            run += 1
        parts.append(run)
        if max(parts) > a:
            continue
        key = tuple(sorted(parts))
        if key not in products:
            prod = mo.unit_ideal(base.dim)
            for p in key:
                prod = prod * base.ideal_at(p)
            products[key] = prod
        total = products[key] if total is None else total + products[key]
    return total


class TestLeastGeneratingLevel:
    """A truncation regenerates from its largest level a* <= a that is not
    the sum of the products of the levels below it."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_truncated_adic_regenerates_from_level_one(self, dim, a):
        rng = random.Random(10 * dim + a)
        for _ in range(3):
            base = small_primary_ideal(rng, dim)
            t = ft.truncate(ft.adic(base), a)
            assert t._least == 1
            assert all(t.ideal_at(n) == base.power(n) for n in range(1, 3 * a + 2))

    def test_sqrt2_at_four_keeps_level_two(self):
        # exponents 2, 3, 5, 6: level 2 is not level 1 squared, while
        # 5 = 2 + 3 and 6 = 3 + 3
        t = ft.truncate(sqrt2_filtration(), 4)
        assert t._least == 2 and t.a == 4
        assert [t.ideal_at(n).gens[0][0] for n in range(1, 9)] == [2, 3, 5, 6, 8, 9, 11, 12]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_levels_match_every_composition(self, dim, a):
        rng = random.Random(1000 + 10 * dim + a)
        bases = [random_filtration(rng, dim, kind) for kind in FILTRATION_KINDS]
        bases.append(ft.rounded_valuation((1,) * dim, ft.root_scale(2)))
        least = set()
        for base in bases:
            t = ft.truncate(base, a)
            least.add(t._least)
            for n in range(1, 13):
                assert t.ideal_at(n) == truncation_by_compositions(base, a, n), (type(base).__name__, n)
        # a > 1 meets bases that regenerate from below a and ones that do not
        assert a == 1 or len(least) > 1

    def test_user_level_stays_everywhere_else(self):
        t = ft.truncate(ft.adic(mo.ideal(1, [(2,)])), 20)
        assert t._least == 1 and t.a == 20
        est = mu.multiplicity_estimate(t, mu.TRUNCATION_EXACT)
        assert "exact along period 1, certified for i <= 20" in est.error_note

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_constructor_forms_only_the_base_checks_products(self, dim, monkeypatch):
        count = [0]
        real = mo.MonomialIdeal.__mul__

        def counted(self, other):
            count[0] += 1
            return real(self, other)

        monkeypatch.setattr(mo.MonomialIdeal, "__mul__", counted)
        for kind in FILTRATION_KINDS:
            for a in (1, 3, 5):
                base = random_filtration(random.Random(dim), dim, kind)
                for n in range(1, a + 1):
                    base.ideal_at(n)
                count[0] = 0
                ft.check_submultiplicative(base, a)
                checked = count[0]
                count[0] = 0
                ft.truncate(base, a)
                assert count[0] == checked, (kind, a)

    def test_levels_read_in_order_take_one_product_each(self, monkeypatch):
        # a* = 1, so past a each level is the one below it times level one
        count = [0]
        real = mo.MonomialIdeal.__mul__

        def counted(self, other):
            count[0] += 1
            return real(self, other)

        base = mo.ideal(2, [(2, 0), (1, 1), (0, 3)])
        t = ft.truncate(ft.adic(base), 4)
        for n in range(1, 5):
            t.ideal_at(n)
        monkeypatch.setattr(mo.MonomialIdeal, "__mul__", counted)
        for n in range(5, 25):
            t.ideal_at(n)
        assert count[0] == 20
        assert t.ideal_at(24) == base.power(24)


class TestRescaling:
    def test_rescaled_adic_is_adic_of_power(self):
        base = mo.ideal(2, [(2, 0), (0, 1)])
        r = ft.rescale(ft.adic(base), 3)
        g = ft.adic(base.power(3))
        assert all(r.ideal_at(n) == g.ideal_at(n) for n in range(0, 6))

    def test_rescaled_reads_strided_levels(self):
        f = sqrt2_filtration()
        r = ft.rescale(sqrt2_filtration(), 2)
        assert all(r.ideal_at(n) == f.ideal_at(2 * n) for n in range(0, 9))

    def test_rescaling_truncation_still_descends(self):
        r = ft.rescale(ft.truncate(sqrt2_filtration(), 2), 3)
        for n in range(0, 6):
            assert r.ideal_at(n).contains_ideal(r.ideal_at(n + 1))


class TestNoetherianPeriod:
    def test_truncated_adic_has_period_one(self):
        t = ft.truncate(ft.adic(mo.ideal(2, [(2, 0), (0, 1)])), 4)
        assert ft.noetherian_period(t) == 1

    def test_sqrt2_period_table(self):
        for a, s in {1: 1, 2: 2, 4: 2, 8: 7, 16: 12}.items():
            t = ft.truncate(sqrt2_filtration(), a)
            assert ft.noetherian_period(t) == s

    def test_certified_period_satisfies_defining_equality(self):
        t = ft.truncate(sqrt2_filtration(), 8)
        s = ft.noetherian_period(t)
        block = t.ideal_at(s)
        assert all(t.ideal_at(s * i) == block.power(i) for i in range(1, 9))

    def test_gives_up_at_candidate_cap(self):
        t = ft.truncate(sqrt2_filtration(), 8)
        with pytest.raises(ft.PeriodNotCertified) as exc:
            ft.noetherian_period(t, candidate_cap=1)
        assert exc.value.best_candidate == 1
        assert exc.value.first_failure == 2

    def test_rejects_untracked_kinds(self):
        with pytest.raises(TypeError):
            ft.noetherian_period(ft.adic(mo.maximal_ideal(2)))


def full_bound_period(f, bound, candidate_cap=10_000):
    """noetherian_period with every candidate checked at every i up to
    bound, as it ran before its checks stopped at the truncation level."""
    ell = math.lcm(*range(1, f.a + 1))
    best_s, best_depth = 1, 0
    examined = 0
    for s in range(1, min(ell, 1_000_000) + 1):
        if ell % s:
            continue
        examined += 1
        block = f.ideal_at(s)
        failed_at = next(
            (i for i in range(1, bound + 1) if f.ideal_at(s * i) != block.power(i)),
            None,
        )
        if failed_at is None:
            return s
        if failed_at > best_depth:
            best_s, best_depth = s, failed_at
        if examined >= candidate_cap:
            break
    raise ft.PeriodNotCertified(best_s, best_depth)


def period_outcome(search, *args, candidate_cap):
    try:
        return search(*args, candidate_cap=candidate_cap)
    except ft.PeriodNotCertified as exc:
        return ("not certified", exc.best_candidate, exc.first_failure, str(exc))


def seeded_truncations(dim, a_max, count):
    rng = random.Random(dim)
    for _ in range(count):
        a = rng.randint(1, a_max)
        yield ft.truncate(random_filtration(rng, dim, rng.choice(FILTRATION_KINDS)), a)


class TestPeriodFromFirstLevels:
    """Equality at every i <= a gives it at every i, so the period search
    checks exactly the first a levels and agrees with a search that checks
    every i up to any bound B >= a."""

    CASES = ((1, 5, 16), (2, 4, 16), (3, 3, 10))

    @pytest.mark.parametrize("dim,a_max,count", CASES)
    def test_first_failure_is_never_past_a(self, dim, a_max, count):
        for t in seeded_truncations(dim, a_max, count):
            ell = math.lcm(*range(1, t.a + 1))
            for s in (s for s in range(1, ell + 1) if ell % s == 0):
                failed_at = ft._holds_up_to(t, s, 3 * t.a)
                assert failed_at is None or failed_at <= t.a, (t.a, s, failed_at)

    @pytest.mark.parametrize("dim,a_max,count", CASES)
    def test_matches_the_full_bound_search(self, dim, a_max, count):
        certified = set()
        for t in seeded_truncations(dim, a_max, count):
            for cap in (1, 2, 10_000):
                got = period_outcome(ft.noetherian_period, t, candidate_cap=cap)
                certified.add(isinstance(got, int))
                for bound in sorted({t.a, t.a + 1, 16}):
                    want = period_outcome(full_bound_period, t, bound, candidate_cap=cap)
                    assert got == want, (t.a, bound, cap)
        assert certified == {True, False}

    def test_level_one_truncation_multiplies_nothing(self, monkeypatch):
        t = ft.truncate(ft.adic(mo.ideal(2, [(2, 0), (1, 1), (0, 3)])), 1)
        calls = []
        product = mo.MonomialIdeal.__mul__

        def counted(self, other):
            calls.append(1)
            return product(self, other)

        monkeypatch.setattr(mo.MonomialIdeal, "__mul__", counted)
        assert ft.noetherian_period(t) == 1
        assert not calls


class NotSubmultiplicative(ft.Filtration):
    """Level two is too deep for the product of two level ones."""

    def _level(self, n):
        m = mo.maximal_ideal(2)
        return m if n == 1 else m.power(n + 1)


class TestSubmultiplicativity:
    def test_violation_located(self):
        report = ft.check_submultiplicative(NotSubmultiplicative(2), 4)
        assert not report.ok
        assert report.first_violation == (1, 1)
        assert report.bound == 4

    def test_truncations_stay_submultiplicative(self):
        for a in (1, 2, 3):
            t = ft.truncate(sqrt2_filtration(), a)
            assert ft.check_submultiplicative(t, 10).ok
