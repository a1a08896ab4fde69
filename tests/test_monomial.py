"""Ideal arithmetic against brute-force oracles and known staircases."""

import itertools
import random
from fractions import Fraction

import pytest

from filtmult import monomial, polytope
from filtmult.monomial import (
    MonomialIdeal,
    _pure_power,
    _undominated_pairs,
    ideal,
    maximal_ideal,
    minimalize,
    unit_ideal,
)
from filtmult.multiplicity import limit_estimate

from conftest import (
    brute_colength,
    naive_is_primary,
    naive_minimalize,
    naive_pure_power,
    random_primary_ideal,
)


class TestConstruction:
    def test_minimalizes_and_sorts(self):
        I = ideal(2, [(2, 0), (1, 1), (2, 1), (3, 3), (0, 2)])
        assert I.gens == ((0, 2), (1, 1), (2, 0))

    def test_unit_ideal(self):
        u = unit_ideal(3)
        assert u.gens == ((0, 0, 0),)
        assert u.is_unit()

    def test_maximal_ideal(self):
        assert maximal_ideal(2).gens == ((0, 1), (1, 0))

    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            ideal(0, [(1,)])

    def test_rejects_mismatched_exponent(self):
        with pytest.raises(ValueError):
            ideal(2, [(1, 0), (1,)])

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            ideal(1, [(-1,)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ideal(2, [])

    @pytest.mark.parametrize(
        "bad", [2.7, 2.0, Fraction(5, 2), Fraction(2), "3", True, False, None]
    )
    def test_rejects_non_int_exponent(self, bad):
        # exponents are ints, never coerced: 2.7 must not become 2
        with pytest.raises(ValueError, match="non-integer exponent"):
            ideal(2, [(bad, 1), (0, 3)])
        with pytest.raises(ValueError, match="non-integer exponent"):
            minimalize([(0, 3), (1, bad)], 2)


class TestMinimalize:
    def test_antichain_output(self):
        gens = minimalize([(1, 2), (2, 1), (1, 1)], 2)
        assert gens == ((1, 1),)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_naive_filter(self, dim):
        rng = random.Random(400 + dim)
        for _ in range(200):
            pts = [
                tuple(rng.randint(0, 6) for _ in range(dim))
                for _ in range(rng.randint(1, 25))
            ]
            assert minimalize(pts, dim) == naive_minimalize(pts, dim)

    def test_dimension_three_dense(self):
        # the sweep keeps a (y, z) front; hammer it with collisions
        rng = random.Random(77)
        for _ in range(60):
            pts = [
                (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
                for _ in range(40)
            ]
            assert minimalize(pts, 3) == naive_minimalize(pts, 3)


def compositions(k, dim):
    """Every exponent vector of total degree k: an antichain."""
    return [c for c in itertools.product(range(k + 1), repeat=dim) if sum(c) == k]


class TestMinimalizeLarge:
    """The dim >= 4 bitset kernel against the naive filter on big sets."""

    @pytest.mark.parametrize("dim,k", [(4, 12), (5, 8)])
    def test_equal_degree_antichain_survives_whole(self, dim, k):
        pts = compositions(k, dim)
        assert len(pts) >= 300
        rng = random.Random(1729)
        rng.shuffle(pts)
        got = minimalize(pts, dim)
        assert got == naive_minimalize(pts, dim) == tuple(sorted(pts))

    @pytest.mark.parametrize("dim", [4, 5])
    def test_heavy_coordinate_ties(self, dim):
        rng = random.Random(1729 + dim)
        for _ in range(3):
            pts = [tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(400)]
            pts += [tuple(rng.choice((0, 5)) for _ in range(dim)) for _ in range(40)]
            assert minimalize(pts, dim) == naive_minimalize(pts, dim)

    @pytest.mark.parametrize("dim", [4, 5])
    def test_heavily_dominated_cloud(self, dim):
        # a few low points under a large random cloud: most points fall
        rng = random.Random(2729 + dim)
        for _ in range(3):
            pts = [tuple(rng.randint(0, 30) for _ in range(dim)) for _ in range(350)]
            pts += [tuple(rng.randint(0, 8) for _ in range(dim)) for _ in range(10)]
            got = minimalize(pts, dim)
            assert got == naive_minimalize(pts, dim)
            assert len(got) < len(set(pts)) // 2


class TestProductKernels:
    """Products and powers against the naive filter of all pairwise sums."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_product_matches_naive_pairwise_sums(self, dim):
        rng = random.Random(1729 + dim)
        cap = {1: 9, 2: 9, 3: 5, 4: 3}[dim]
        for trial in range(40):
            I = random_primary_ideal(rng, dim, cap)
            J = random_primary_ideal(rng, dim, cap)
            if trial % 8 == 0:
                I = unit_ideal(dim)
            elif trial % 8 == 1:
                J = unit_ideal(dim)
            sums = [tuple(a + b for a, b in zip(g, h)) for g in I.gens for h in J.gens]
            assert (I * J).gens == naive_minimalize(sums, dim)
            assert (I + J).gens == naive_minimalize(I.gens + J.gens, dim)

    def test_unit_factor_returns_other_factor(self):
        I = ideal(3, [(2, 0, 0), (0, 1, 1), (0, 0, 3), (0, 2, 0)])
        assert I * unit_ideal(3) is I
        assert unit_ideal(3) * I is I

    def test_dimension_four_power_matches_repeated_product(self):
        rng = random.Random(1729)
        for _ in range(4):
            I = random_primary_ideal(rng, 4, 2)
            prod = unit_ideal(4)
            for k in range(5):
                assert I.power(k) == prod
                prod = MonomialIdeal(
                    4,
                    naive_minimalize(
                        [tuple(a + b for a, b in zip(g, h)) for g in prod.gens for h in I.gens],
                        4,
                    ),
                )


def naive_product(I, J):
    sums = [tuple(a + b for a, b in zip(g, h)) for g in I.gens for h in J.gens]
    return naive_minimalize(sums, I.dim)


def packed_path(I, J):
    """Whether I * J runs the packed sweep: its front fits in the pair count."""
    top = max(map(max, I.gens)) + max(map(max, J.gens))
    return top <= len(I.gens) * len(J.gens)


def jittered_slice(rng, k):
    """The degree-k exponents in three variables, z raised by up to 2 at random."""
    return ideal(3, [(a, b, k - a - b + rng.randint(0, 2))
                     for a in range(k + 1) for b in range(k + 1 - a)])


def plane_staircase(rng, count, step):
    """A staircase of count plane points whose steps right and down are
    each drawn from 1..step: a small step bound repeats and ties steps
    often, a large one makes them irregular."""
    x, y = rng.randint(0, 3), rng.randint(0, 3) + count * step
    pts = []
    for _ in range(count):
        pts.append((x, y))
        x, y = x + rng.randint(1, step), y - rng.randint(1, step)
    return ideal(2, pts)


class TestPlaneProduct:
    """The plane product, which skips the sums a neighbouring pair's sum
    lies under, against the naive filter of all pairwise sums."""

    FLOOR = monomial._PRUNE_FLOOR

    def check(self, I, J):
        want = naive_product(I, J)
        assert (I * J).gens == want
        assert (J * I).gens == want

    def test_homogeneous_powers_tie_every_step(self):
        # every step of m^k is (1, 1): each neighbouring sum ties, so the
        # rule's "at or below" and "strictly below" sides both come up
        m = maximal_ideal(2)
        sizes = set()
        for a in range(1, 14):
            for b in range(1, 14):
                self.check(m.power(a), m.power(b))
                sizes.add(min(a, b) + 1 >= self.FLOOR)
        assert sizes == {True, False}

    @pytest.mark.parametrize("s,t", [(1, 2), (2, 1), (3, 1), (2, 3), (1, 5), (3, 3)])
    def test_near_linear_powers_of_unequal_slopes(self, s, t):
        I = ideal(2, [(1, 0), (0, s)])
        J = ideal(2, [(t, 0), (0, 1)])
        for a in range(1, 12):
            for b in (1, a, a + 3):
                self.check(I.power(a), J.power(b))
        # a bent staircase: two slopes in one factor
        bent = ideal(2, [(0, 5), (1, 2), (3, 1), (6, 0)])
        for a in range(1, 6):
            self.check(bent.power(a), I.power(a + 2))

    def test_random_irregular_staircases(self):
        rng = random.Random(2203)
        sizes = set()
        for _ in range(300):
            I, J = (plane_staircase(rng, rng.randint(1, 16), rng.choice((2, 3, 9))) for _ in range(2))
            sizes.add(min(len(I.gens), len(J.gens)) >= self.FLOOR)
            self.check(I, J)
        assert sizes == {True, False}

    def test_powers_of_random_primary_ideals(self):
        rng = random.Random(2204)
        for _ in range(40):
            I = random_primary_ideal(rng, 2, 4)
            J = random_primary_ideal(rng, 2, 4)
            for a, b in ((2, 3), (4, 1), (5, 6)):
                self.check(I.power(a), J.power(b))

    def test_non_primary_antichains(self):
        # no pure power on either axis, on one axis, or a single generator
        rng = random.Random(2205)
        for _ in range(200):
            I = ideal(2, [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(rng.randint(1, 20))])
            J = ideal(2, [(0, rng.randint(5, 30))] +
                      [(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(rng.randint(0, 20))])
            assert not I.is_primary() and not J.is_primary()
            self.check(I, J)
            self.check(I, I)

    def test_kept_columns_of_homogeneous_powers(self):
        # m^40 * m^30: every middle row keeps one column and only the last
        # keeps them all, so at most p + q of the p * q sums are formed
        I, J = maximal_ideal(2).power(40), maximal_ideal(2).power(30)
        blocks = _undominated_pairs(I.gens, J.gens)
        assert sorted(g for rows, _ in blocks for g in rows) == list(I.gens)
        assert len(blocks) == 3
        assert sum(len(rows) * len(cols) for rows, cols in blocks) <= len(I.gens) + len(J.gens)
        assert (I * J) == maximal_ideal(2).power(70)

    def test_small_factors_build_no_step_table(self, monkeypatch):
        calls = []
        real = monomial._undominated_pairs

        def counted(gens, others):
            calls.append((len(gens), len(others)))
            return real(gens, others)

        monkeypatch.setattr(monomial, "_undominated_pairs", counted)
        m = maximal_ideal(2)
        small, big = m.power(self.FLOOR - 2), m.power(self.FLOOR - 1)
        assert small * big == m.power(2 * self.FLOOR - 3) and calls == []
        assert big * big == m.power(2 * self.FLOOR - 2)
        assert calls == [(self.FLOOR, self.FLOOR)]


class TestSpaceProduct:
    """The packed dimension-3 product against the naive filter of all pairwise sums."""

    def test_small_non_primary_factors(self):
        # many small factors, most without a pure power on some axis: the
        # sums that reach the top of y in a later slab are rare, so it takes
        # hundreds of draws to meet them
        rng = random.Random(5)
        paths = {True: 0, False: 0}
        non_primary = 0
        for _ in range(1000):
            cap = rng.randint(1, 3)
            I, J = (
                ideal(3, [tuple(rng.randint(0, cap) for _ in range(3))
                          for _ in range(rng.randint(2, 6))])
                for _ in range(2)
            )
            paths[packed_path(I, J)] += 1
            non_primary += not I.is_primary()
            assert (I * J).gens == naive_product(I, J)
        assert min(paths.values()) > 100 and non_primary > 500

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("top", ["2^k - 1", "2^k"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_sums_at_the_bit_width_edge(self, k, top, axis):
        # s = top.bit_length() bits per coordinate: 2^k - 1 fills k bits
        # exactly, and 2^k is the first sum that needs k + 1
        top = 2**k - (top == "2^k - 1")
        rng = random.Random(k * 10 + axis)
        factors = []
        for cap in (top - top // 2, top // 2):
            pure = tuple(cap * (i == axis) for i in range(3))
            # every other generator is off the axis, so none divides the
            # pure power, and cap stays the factor's largest exponent
            others = [tuple(rng.randint(0, cap) for _ in range(3)) for _ in range(40)]
            others = [p for p in others if any(c for i, c in enumerate(p) if i != axis)]
            factors.append(ideal(3, [pure] + others))
        I, J = factors
        assert max(map(max, I.gens)) + max(map(max, J.gens)) == top
        assert packed_path(I, J)
        prod = (I * J).gens
        assert prod == naive_product(I, J)
        assert tuple(top * (i == axis) for i in range(3)) in prod

    def test_exponents_near_a_thousand(self):
        # two 55-generator staircases at x + y = 2004, one extra generator
        # each: 12 bits a coordinate, and sums blocked by an earlier slab
        rng = random.Random(7)
        I, J = (
            ideal(3, [(975 + i, 1029 - i, rng.choice(zs)) for i in range(55)] + [extra])
            for zs, extra in (((1000, 1003), (1000, 1000, 990)), ((1000, 1004), (1010, 1010, 995)))
        )
        assert packed_path(I, J)
        assert (I * J).gens == naive_product(I, J)

    def test_far_generators_take_the_generic_path(self):
        big = 2**40
        I = ideal(3, [(big, 0, 0), (0, big + 1, 0), (0, 0, 1), (3, 3, 0)])
        J = ideal(3, [(1, 0, 0), (0, big, 0), (0, 0, big - 1)])
        assert not packed_path(I, J)
        assert (I * J).gens == naive_product(I, J)

    def test_principal_factor_shifts_every_generator(self, rng):
        I = jittered_slice(rng, 6)
        J = ideal(3, [(1, 2, 3)])
        assert packed_path(I, J)
        assert (I * J).gens == tuple(tuple(a + b for a, b in zip(g, (1, 2, 3))) for g in I.gens)
        assert (J * I) == (I * J) and (I * J).gens == naive_product(I, J)

    def test_unequal_generator_counts(self, rng):
        for k in range(4, 9):
            I = random_primary_ideal(rng, 3, 2)
            J = jittered_slice(rng, k)
            assert len(J.gens) > 3 * len(I.gens)
            assert packed_path(I, J)
            assert (I * J).gens == naive_product(I, J)
            assert (J * I).gens == naive_product(I, J)

    def test_unit_and_zero_shortcuts(self, rng):
        I = random_primary_ideal(rng, 3, 4)
        zero = MonomialIdeal(3, ())
        assert I * unit_ideal(3) is I
        assert unit_ideal(3) * I is I
        assert (I * zero).gens == () and (zero * I).gens == ()
        assert (zero * unit_ideal(3)).gens == ()


class TestArithmetic:
    def test_product_example(self):
        m = maximal_ideal(2)
        x2y = ideal(2, [(2, 0), (0, 1)])
        assert (m * x2y).gens == ((0, 2), (1, 1), (3, 0))

    def test_sum_minimalizes(self):
        I = ideal(2, [(3, 0)])
        J = ideal(2, [(1, 1)])
        assert (I + J).gens == ((1, 1), (3, 0))

    def test_power_matches_repeated_product(self):
        I = ideal(2, [(2, 0), (1, 1), (0, 3)])
        prod = unit_ideal(2)
        for k in range(5):
            assert I.power(k) == prod
            prod = prod * I

    def test_power_negative_raises(self):
        with pytest.raises(ValueError):
            maximal_ideal(2).power(-1)

    def test_product_commutes(self, rng):
        for _ in range(30):
            I = random_primary_ideal(rng, 2, 5)
            J = random_primary_ideal(rng, 2, 5)
            assert I * J == J * I

    def test_product_associates(self, rng):
        for _ in range(15):
            I = random_primary_ideal(rng, 3, 3)
            J = random_primary_ideal(rng, 3, 3)
            K = random_primary_ideal(rng, 3, 3)
            assert (I * J) * K == I * (J * K)

    def test_membership_multiplies(self, rng):
        # x^a in I and x^b in J force x^(a+b) into IJ
        for _ in range(30):
            I = random_primary_ideal(rng, 2, 5)
            J = random_primary_ideal(rng, 2, 5)
            a = I.gens[rng.randrange(len(I.gens))]
            b = J.gens[rng.randrange(len(J.gens))]
            assert (I * J).contains(tuple(u + v for u, v in zip(a, b)))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            maximal_ideal(2) * maximal_ideal(3)


class TestMembership:
    def test_contains(self):
        I = ideal(2, [(2, 0), (0, 1)])
        assert I.contains((2, 0))
        assert I.contains((5, 3))
        assert not I.contains((1, 0))

    def test_contains_ideal(self):
        m = maximal_ideal(2)
        assert m.contains_ideal(m.power(2))
        assert not m.power(2).contains_ideal(m)

    def test_contains_wrong_length(self):
        with pytest.raises(ValueError):
            maximal_ideal(2).contains((1, 2, 3))


class TestPrimary:
    def test_maximal_is_primary(self):
        assert maximal_ideal(3).is_primary()

    def test_principal_in_plane_is_not(self):
        assert not ideal(2, [(1, 0)]).is_primary()

    def test_pure_powers_required_per_axis(self):
        assert ideal(2, [(2, 0), (1, 1), (0, 3)]).is_primary()
        assert not ideal(2, [(2, 0), (1, 1)]).is_primary()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_matches_per_axis_scan(self, dim):
        rng = random.Random(dim)
        seen = {True: 0, False: 0}
        ideals = [unit_ideal(dim), maximal_ideal(dim)]
        for _ in range(300):
            # each axis gets a pure power with probability 3/4
            gens = [
                tuple(rng.randint(1, 4) if j == ax else 0 for j in range(dim))
                for ax in range(dim)
                if rng.random() < 0.75
            ]
            gens += [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
            ideals.append(ideal(dim, gens))
        for I in ideals:
            want = naive_is_primary(I.gens, dim)
            assert I.is_primary() == want
            seen[want] += 1
            if want:
                for ax in range(dim):
                    assert _pure_power(I.gens, ax) == naive_pure_power(I.gens, ax)
        assert unit_ideal(dim).is_primary()
        if dim > 1:  # every nonzero ideal of one variable is primary
            assert min(seen.values()) > 50


class TestColength:
    def test_known_plane_staircases(self):
        m = maximal_ideal(2)
        # l(R/m^n) = n(n+1)/2
        for n in range(1, 9):
            assert m.power(n).colength() == n * (n + 1) // 2
        assert ideal(2, [(2, 0), (0, 1)]).colength() == 2
        assert ideal(2, [(3, 0), (1, 1), (0, 2)]).colength() == 4

    def test_known_space_staircase(self):
        m3 = maximal_ideal(3)
        # l(R/m^n) = C(n+2, 3)
        for n in range(1, 7):
            assert m3.power(n).colength() == n * (n + 1) * (n + 2) // 6

    def test_dimension_one(self):
        assert ideal(1, [(7,)]).colength() == 7

    def test_unit_has_colength_zero(self):
        assert unit_ideal(2).colength() == 0

    def test_non_primary_raises(self):
        with pytest.raises(ValueError):
            ideal(2, [(1, 0)]).colength()

    def test_matches_box_oracle(self, rng):
        for _ in range(150):
            dim = rng.randint(1, 3)
            I = random_primary_ideal(rng, dim, 6)
            assert I.colength() == brute_colength(I.gens, dim)

    def test_dimension_four_matches_box_oracle(self, rng):
        for _ in range(60):
            I = random_primary_ideal(rng, 4, 3)
            assert I.colength() == brute_colength(I.gens, 4)
        J = random_primary_ideal(rng, 4, 3).power(2)
        assert J.colength() == brute_colength(J.gens, 4)


class TestCovolume:
    def test_known_values(self):
        assert maximal_ideal(2).covolume() == Fraction(1, 2)
        assert maximal_ideal(2).power(2).covolume() == 2
        assert ideal(2, [(2, 0), (0, 1)]).covolume() == 1
        assert ideal(2, [(3, 0), (1, 1), (0, 2)]).covolume() == Fraction(5, 2)
        assert unit_ideal(2).covolume() == 0

    def test_space_simplex(self):
        assert maximal_ideal(3).covolume() == Fraction(1, 6)

    def test_growth_approaches_covolume(self, rng):
        # colength(I^n)/n^d settles on the covolume; the extrapolated
        # value of the n = 8, 16, 32 ladder lands within 2% relative
        for _ in range(8):
            dim = rng.randint(1, 2)
            I = random_primary_ideal(rng, dim, 3)
            seq = [
                (n, Fraction(I.power(n).colength(), n ** dim))
                for n in (8, 16, 32)
            ]
            target = I.covolume()
            est = limit_estimate(seq)
            assert abs(est.value - target) <= Fraction(2, 100) * target
            diffs = [abs(v - target) for _, v in seq]
            tol = Fraction(2, 100) * target
            assert all(
                b <= a + tol for a, b in zip(diffs, diffs[1:])
            ), "ladder should be monotone within tolerance"

    def test_geometry_dim_cap(self):
        m5 = maximal_ideal(5)
        with pytest.raises(ValueError):
            m5.covolume()


class TestNewtonPolyhedron:
    def test_vertices_are_extreme_generators(self):
        I = ideal(2, [(3, 0), (1, 1), (0, 2)])
        assert polytope.orthant_extremes(I.gens) == [(0, 2), (1, 1), (3, 0)]

    def test_interior_generator_dropped(self):
        # (2, 2) sits inside the hull spanned by the axis powers
        I = ideal(2, [(3, 0), (2, 2), (0, 3)])
        assert (2, 2) not in polytope.orthant_extremes(I.gens)

    def test_product_matches_minkowski_sum(self, rng):
        # polyhedra agree modulo the orthant recession cone, so compare
        # orthant extremes rather than finite hulls (a sum vertex can be
        # extreme in the polytope yet swallowed by the cone)
        for _ in range(20):
            I = random_primary_ideal(rng, 2, 4)
            J = random_primary_ideal(rng, 2, 4)
            lhs = polytope.orthant_extremes((I * J).gens)
            summed = polytope.minkowski_sum(
                polytope.hull(2, polytope.orthant_extremes(I.gens)),
                polytope.hull(2, polytope.orthant_extremes(J.gens)),
            )
            rhs = polytope.orthant_extremes(summed.vertices)
            assert lhs == rhs
