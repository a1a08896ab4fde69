"""End-to-end acceptance checks, one test per criterion.

Each test enforces a wall-clock budget and prints the measured values it
gates on, so a verbose run shows one pass/fail line per criterion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from filtmult import components as cp
from filtmult import filtration as ft
from filtmult import linalg as la
from filtmult import monomial as mo
from filtmult import multiplicity as mu
from filtmult import okounkov as ok
from filtmult import polytope as pt

from conftest import (
    brute_colength,
    brute_volume,
    lp_hull_vertices,
    quotient_points,
    random_primary_ideal,
)


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    print(f"elapsed {elapsed:.2f}s of {seconds}s budget")
    assert elapsed < seconds


def maximal_adic():
    return ft.adic(mo.maximal_ideal(2))


def parabola_adic():
    return ft.adic(mo.ideal(2, [(2, 0), (0, 1)]))


def line_plus_powers():
    return ft.fixed_plus_adic(mo.ideal(2, [(1, 0)]), mo.maximal_ideal(2))


def sqrt2_filtration():
    return ft.rounded_valuation((1,), ft.root_scale(2))


def test_1_sqrt2_direct_and_truncation_ladders():
    with budget(1.0):
        f = sqrt2_filtration()
        est = mu.multiplicity_estimate(f, ladder=(128, 256, 512, 1024))
        print(f"direct estimate {est.value} = {float(est.value):.8f}")
        assert est.value == F(181, 128)
        assert abs(float(est.value) - 1.41421356) <= 1e-3

        tl = mu.truncation_ladder([sqrt2_filtration()], [1, 2, 4, 8, 16, 32, 64])
        vals = [rep.coeffs[(1,)].value for _, rep in tl.entries]
        print("truncation ladder", [str(v) for v in vals])
        assert vals == [F(2), F(3, 2), F(3, 2), F(10, 7), F(17, 12), F(17, 12), F(58, 41)]
        assert all(d <= 0 for d in tl.differences[(1,)])
        assert abs(float(vals[-1]) - 2**0.5) <= 1e-3


@pytest.mark.xfail(
    reason="rounding the slope only at the cutoff level overstates the"
    " truncated multiplicity once an interior split wins; at cutoff 8 the"
    " best split of the level recurrence gives 10/7, not 12/8",
    strict=True,
)
def test_1_companion_cutoff_slope_alone():
    tl = mu.truncation_ladder([sqrt2_filtration()], [1, 2, 4, 8, 16, 32, 64])
    s = ft.root_scale(2)
    for a, rep in tl.entries:
        assert rep.coeffs[(1,)].value == F(s.scaled_ceiling(a), a)


def test_2_degenerate_plane_filtration_direct():
    with budget(1.0):
        ladder = (16, 32, 64, 128)
        seq = mu.length_sequence([line_plus_powers()], (1,), ladder)
        # the d!-scaled rungs are exactly 2/m
        assert [(m, 2 * v) for m, v in seq] == [(m, F(2, m)) for m in ladder]
        est = mu.multiplicity_estimate(line_plus_powers(), ladder=ladder)
        print(f"estimate {est.value}, last rung {2 * seq[-1][1]}")
        assert est.value == F(0)
        assert abs(est.value) <= F(1, 100)


def test_3_two_branch_worked_example():
    with budget(10.0):
        tb = cp.two_branch_model()
        ladder = (32, 64, 128)
        for unit in ((1, 0), (0, 1)):
            e = 2 * cp.component_growth(tb, unit, ladder=ladder).value
            assert e == F(1)
        rep = cp.component_mixed(tb, ladder=ladder, order=3)
        assert rep.coeffs[(1, 1)].value == F(0)
        g11 = cp.component_growth(tb, (1, 1), ladder=ladder).value
        print(f"multiplicities 1, 1; mixed term 0; G(1,1) = {g11}")
        assert g11 == F(1)

        expected = {
            (1, 0): (F(1, 2), F(0)),
            (0, 1): (F(0), F(1, 2)),
            (1, 1): (F(1, 2), F(1, 2)),
        }
        for n, want in expected.items():
            got = tuple(e.value for e in cp.component_limits(tb, n, ladder=ladder))
            assert all(abs(g - w) <= F(1, 100) for g, w in zip(got, want))
            assert got == want

        first = tb.components[0]
        for n in range(1, 65):
            ell = mu.product_ideal_at(first.filtrations, (n, n)).colength()
            assert ell == (n + 1) * (n + 2) // 2 + (n - 1)


def test_4_volume_identity_family():
    with budget(30.0):
        cutoffs = (16, 32, 64, 128)
        frozen = [
            (maximal_adic(), [F(0)] * 4),
            (parabola_adic(), [F(0)] * 4),
            (sqrt2_filtration(), [F(1, 96), F(1, 96), F(11, 1312), F(9, 1120)]),
            (line_plus_powers(), [F(1, 32), F(1, 64), F(1, 128), F(1, 256)]),
        ]
        for f, want in frozen:
            discs = [ok.volume_identity_report(f, N).discrepancy for N in cutoffs]
            print(type(f).__name__, [str(x) for x in discs])
            assert discs == want
            assert all(b <= a for a, b in zip(discs, discs[1:]))
            assert discs[2] <= max(F(1, 100), F(4, 64))

        flat = ok.volume_identity_report(maximal_adic(), 64)
        assert flat.hat_volume == F(1, 2)
        assert flat.body_volume == F(0)


def test_5_pair_multiplicities_vs_interpolated_lengths():
    with budget(5.0):
        m = mo.maximal_ideal(2)
        para = mo.ideal(2, [(2, 0), (0, 1)])

        def ell(a, b):
            return (m.power(a) * para.power(b)).colength()

        pts = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)]
        rows = [[F(a * a), F(a * b), F(b * b), F(a), F(b), F(1)] for a, b in pts]
        c = la.solve_linear(rows, [F(ell(a, b)) for a, b in pts])
        print("interpolated length polynomial", [str(x) for x in c])
        assert c == [F(1, 2), F(1), F(1), F(1, 2), F(1), F(0)]
        for a in range(1, 13):
            for b in range(1, 13):
                val = c[0] * a * a + c[1] * a * b + c[2] * b * b + c[3] * a + c[4] * b + c[5]
                assert val == ell(a, b)

        oracle = (2 * c[0], c[1], 2 * c[2])
        rep = mu.mixed_multiplicities([ft.adic(m), ft.adic(para)], trunc_level=2)
        got = tuple(rep.coeffs[t].value for t in ((2, 0), (1, 1), (0, 2)))
        assert got == oracle == (F(1), F(1), F(2))


def _random_primary(rng, dim, cap):
    gens = []
    for ax in range(dim):
        e = [0] * dim
        e[ax] = rng.randint(1, cap)
        gens.append(tuple(e))
    for _ in range(rng.randint(0, 2)):
        gens.append(tuple(rng.randint(0, cap) for _ in range(dim)))
    I = mo.ideal(dim, gens)
    if I.is_unit():
        return mo.ideal(
            dim, [tuple(2 if i == ax else 0 for i in range(dim)) for ax in range(dim)]
        )
    return I


def _instance_pool(rng):
    instances = []
    for d, count in [(1, 20), (2, 22), (3, 8)]:
        for _ in range(count):
            r = rng.randint(1, 3) if d <= 2 else 1
            cap = 3 if d <= 2 else 2
            fs = []
            for _ in range(r):
                base = ft.adic(_random_primary(rng, d, cap))
                if rng.random() < 0.4:
                    fs.append(ft.truncate(base, rng.randint(1, 3)))
                else:
                    fs.append(base)
            instances.append((d, r, fs))
    return instances


def test_6_random_instances_positivity_and_vanishing():
    ladders = {1: ((8, 16, 32), 2), 2: ((16, 32, 64), 3), 3: ((6, 8, 10, 12), 4)}
    with budget(30.0):
        instances = _instance_pool(random.Random(20260819))
        assert len(instances) == 50
        worst_touch = F(0)
        worst_survivor = F(0)
        for k, (d, r, fs) in enumerate(instances):
            rep = mu.mixed_multiplicities(fs, backend=mu.TRUNCATION_EXACT, trunc_level=2)
            for t, est in rep.coeffs.items():
                assert est.value > 0, (k, d, r, t)
            for f in fs:
                e = mu.multiplicity_estimate(f, backend=mu.TRUNCATION_EXACT, trunc_level=2)
                assert e.value > 0

            # append a filtration of zero multiplicity: coefficients that
            # weight it must vanish, the rest must keep their values
            fixed = mo.ideal(d, [tuple(2 if i == 0 else 0 for i in range(d))])
            degen = ft.fixed_plus_adic(fixed, mo.maximal_ideal(d))
            ladder, order = ladders[d]
            rep2 = mu.mixed_multiplicities(
                fs + [degen], backend=mu.DIRECT, ladder=ladder, order=order
            )
            for t, est in rep2.coeffs.items():
                if t[-1] > 0:
                    worst_touch = max(worst_touch, abs(est.value))
                    assert abs(est.value) <= F(1, 100), (k, d, r, t, str(est.value))
                else:
                    gap = abs(est.value - rep.coeffs[t[:-1]].value)
                    worst_survivor = max(worst_survivor, gap)
                    assert est.value == rep.coeffs[t[:-1]].value, (k, d, r, t)
        print(
            f"worst vanishing residue {worst_touch},"
            f" worst surviving-coefficient gap {worst_survivor}"
        )

        # a degenerate pair with a closed colength formula
        pair = [line_plus_powers(), maximal_adic()]
        for a in range(1, 9):
            for b in range(1, 9):
                got = mu.product_ideal_at(pair, (a, b)).colength()
                assert got == (b + 1) * (b + 2) // 2 + (a - 1)
        rep = mu.positivity_report(
            pair, backend=mu.DIRECT, ladder=(16, 32, 64), order=3
        )
        assert {t: e.value for t, e in rep.report.coeffs.items()} == {
            (2, 0): F(0),
            (1, 1): F(0),
            (0, 2): F(1),
        }
        assert rep.ok


def test_7_containment_search_and_minkowski():
    with budget(60.0):
        for f, want_bound in (
            (maximal_adic(), 1),
            (parabola_adic(), 2),
            (sqrt2_filtration(), 2),
        ):
            got = ok.containment_bound_search(f, 32)
            assert got.found and got.b == 1
            assert got.bound == want_bound
            assert got.verified_through == 32
        print("containment stretch 1 for all three positive examples")

        mk = ok.minkowski_checks([maximal_adic(), parabola_adic()], (1, 0), (0, 1), 16)
        assert mk.containment_pass
        assert not mk.collapse_triggered
        assert mk.collapse_proxy == F(1)

        degen = ok.minkowski_checks([line_plus_powers(), maximal_adic()], (1, 0), (0, 1), 32)
        print(
            f"degenerate volumes {degen.sum_volume} vs {degen.tau_volume},"
            f" tolerance {degen.tolerance}"
        )
        assert degen.collapse_triggered
        assert degen.tolerance == F(1, 32)
        assert degen.sum_volume == F(957, 128)
        assert degen.tau_volume == F(15, 2)
        assert abs(degen.sum_volume - degen.tau_volume) <= degen.tolerance
        assert degen.volume_agreement
        assert degen.containment_pass


def test_8_random_primary_colengths_match_box_count():
    with budget(30.0):
        rng = random.Random(500)
        for _ in range(500):
            dim = rng.choice((1, 2, 3))
            I = random_primary_ideal(rng, dim, 6)
            assert I.colength() == brute_colength(I.gens, dim)
        print("500 random primary ideals agree with the box count")


def test_9_dimension_four_exact_multiplicity():
    with budget(5.0):
        pure = mo.ideal(4, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)])
        est = mu.multiplicity_estimate(
            ft.adic(pure), backend=mu.TRUNCATION_EXACT, trunc_level=1
        )
        print(f"dim-4 multiplicity of (x^2, y^2, z^2, w^2): {est.value}")
        assert est.method == mu.TRUNCATION_EXACT
        assert est.value == 16


def test_10_exact_mixed_multiplicities_from_minkowski_sums():
    # The exact backend reads every grid point off one facet hull of the
    # report instead of multiplying ideal powers out; both values are exact.
    with budget(3.0):
        I = mo.ideal(3, [(3, 0, 0), (0, 2, 0), (0, 0, 3), (1, 1, 0), (0, 1, 1), (1, 0, 1)])
        J = mo.ideal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)])
        x = mo.ideal(3, [(1, 0, 0)])
        rep = mu.mixed_multiplicities(
            [ft.adic(I), ft.fixed_plus_adic(x, J)], mu.TRUNCATION_EXACT, trunc_level=2
        )
        got = {t: e.value for t, e in rep.coeffs.items()}
        print(f"dim-3 pair: {got}")
        assert got == {(3, 0): 10, (2, 1): F(5, 2), (1, 2): 2, (0, 3): 3}
    with budget(5.0):
        # NP(K) = NP(m^2), so the coefficients are 2^(4-i) for i copies of m
        K = mo.ideal(
            4,
            [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
             (1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)],
        )
        rep = mu.mixed_multiplicities(
            [ft.adic(K), ft.adic(mo.maximal_ideal(4))], mu.TRUNCATION_EXACT, trunc_level=1
        )
        got = [rep.coeffs[(4 - i, i)].value for i in range(5)]
        print(f"dim-4 pair: {got}")
        assert got == [16, 8, 4, 2, 1]


def test_11_dim3_body_from_facet_hull():
    # The semigroup body of adic((x^2, y, z^2, xz)) at degree bound 2 is one
    # facet hull of 507 distinct quotient points at cutoff 8.
    f = ft.adic(mo.ideal(3, [(2, 0, 0), (0, 1, 0), (0, 0, 2), (1, 0, 1)]))
    assert ok.degree_bound([f], (1,)) == 2
    want = lp_hull_vertices(quotient_points(ok.value_semigroup([f], (1,), 2, 3)))
    with budget(3.0):
        sem = ok.value_semigroup([f], (1,), 2, 8)
        b = ok.body(sem)
        vol = b.volume()
    print(f"cutoff 8: {len(quotient_points(sem))} points, vertices {b.body.vertices}, volume {vol}")
    assert b.body.vertices == want
    # the degree-2 simplex (4/3) less the covolume of NP(I) (2/3)
    assert vol == F(2, 3) == brute_volume(want, 3)
    assert b.body.contains_body(ok.body(ok.value_semigroup([f], (1,), 2, 4)).body)


def test_12_large_newton_polyhedra_share_the_antichain_kernel():
    # The minimal generators of a power are already an antichain, so the
    # covolume's dominance step must not be quadratic in them: I^24 has
    # 2582 generators.  NP(I^n) = n*NP(I), so the covolume scales by n^d.
    I = mo.ideal(3, [(3, 0, 0), (0, 4, 0), (0, 0, 5), (1, 1, 1), (2, 0, 1), (0, 2, 1)])
    J = mo.ideal(
        4,
        [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 3), (1, 1, 1, 0), (0, 1, 1, 1)],
    )
    with budget(1.5):
        I24, J10 = I.power(24), J.power(10)
        print(f"{len(I24.gens)} and {len(J10.gens)} generators")
        assert I24.covolume() == 24**3 * I.covolume()
        assert J10.covolume() == 10**4 * J.covolume()


def test_13_deep_plane_bodies_hull_their_extreme_feet():
    # At cutoff 384 the two bodies have about 74,000 feet each.  Each level
    # is cut to its own Newton polygon's vertices before it is scaled by
    # L/i, and the hull runs on the few extreme ones and their ray points
    # only.  Scaling every foot first took 0.45 to 0.75 s for the two.
    fs = [maximal_adic(), parabola_adic()]
    sems = [ok.value_semigroup([f], (1,), ok.degree_bound([f], (1,)), 384) for f in fs]
    with budget(0.25):
        bodies = [ok.body(sem) for sem in sems]
    for sem, b in zip(sems, bodies):
        print(f"{len(b.body.vertices)} vertices, volume {b.volume()}")
        assert b.body.vertices == pt.hull(2, quotient_points(sem)).vertices


def test_14_dim4_three_filtration_exact_report_from_one_form_per_part():
    # The report's one part builds one covolume form over its three levels,
    # and every point of the 15-point dim-4 grid reads its growth off it; a
    # facet hull per grid point took about 0.37 s for this report.
    gens = [
        [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 0, 0), (0, 1, 1, 1)],
        [(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1), (0, 1, 1, 0)],
        [(3, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 4), (1, 0, 0, 1)],
    ]
    fs = [ft.adic(mo.ideal(4, g)) for g in gens]
    with budget(0.1):
        rep = mu.mixed_multiplicities(fs, mu.TRUNCATION_EXACT, trunc_level=1)
    got = {t: e.value for t, e in rep.coeffs.items()}
    print(f"dim-4 triple: {got}")
    assert got == {
        (4, 0, 0): 20, (3, 1, 0): 10, (3, 0, 1): 8, (2, 2, 0): 6, (2, 1, 1): 4,
        (2, 0, 2): 4, (1, 3, 0): 4, (1, 2, 1): 2, (1, 1, 2): 2, (1, 0, 3): 4,
        (0, 4, 0): 5, (0, 3, 1): 2, (0, 2, 2): 1, (0, 1, 3): 2, (0, 0, 4): 7,
    }
