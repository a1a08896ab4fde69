"""Metamorphic identities and paper invariants of the exact backend.

Seeded dim-3 instances of every filtration kind.  Each test checks a
relation the mixed multiplicities satisfy whatever their values are:
scaling under powers and rescaling, symmetry under permuting variables or
filtrations, monotonicity along truncation ladders, the Teissier
inequalities, and the paper's positivity theorem on one analytically
irreducible component and on a sum of two.
"""

import random

import pytest

from filtmult import components as co
from filtmult import filtration as ft
from filtmult import monomial as mo
from filtmult import multiplicity as mu

from conftest import FILTRATION_KINDS, random_filtration, random_primary_ideal, small_primary_ideal

D = 3
SEEDS = range(5)


class Permuted(ft.Filtration):
    """The base filtration with its variables permuted."""

    def __init__(self, base, perm):
        super().__init__(base.dim)
        self.base = base
        self.perm = perm

    def _level(self, n):
        gens = self.base.ideal_at(n).gens
        return mo.ideal(self.dim, [tuple(g[i] for i in self.perm) for g in gens])


def truncated_pair(seed):
    """Two truncations at levels 1..2 of kinds chosen by the seed."""
    rng = random.Random(seed)
    kinds = (FILTRATION_KINDS[seed % 5], FILTRATION_KINDS[(seed + 2) % 5])
    return [ft.truncate(random_filtration(rng, D, k), rng.randint(1, 2)) for k in kinds]


def coeffs(fs, **kw):
    rep = mu.mixed_multiplicities(fs, mu.TRUNCATION_EXACT, **kw)
    return {t: e.value for t, e in rep.coeffs.items()}


def multiplicity(f, **kw):
    return mu.multiplicity_estimate(f, mu.TRUNCATION_EXACT, **kw).value


@pytest.mark.parametrize("seed", SEEDS)
def test_power_scales_multiplicity_by_k_to_the_d(seed):
    base = small_primary_ideal(random.Random(seed), D)
    e = multiplicity(ft.adic(base), trunc_level=1)
    for k in (2, 3):
        assert multiplicity(ft.adic(base.power(k)), trunc_level=1) == k**D * e


@pytest.mark.parametrize("kind", FILTRATION_KINDS)
def test_rescale_scales_multiplicity_by_s_to_the_d(kind):
    rng = random.Random(kind)
    f = ft.truncate(random_filtration(rng, D, kind), rng.randint(1, 2))
    p = ft.noetherian_period(f)
    # g = rescale(f, 2) has g_pk = f_2pk = f_p^2k = g_p^k, so g agrees with
    # its truncation at p along multiples of p
    assert multiplicity(ft.rescale(f, 2), trunc_level=p) == 2**D * multiplicity(f)


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_variables_leaves_coefficients(seed):
    fs = truncated_pair(seed)
    perm = random.Random(seed).sample(range(D), D)
    moved = [ft.truncate(Permuted(f, perm), f.a) for f in fs]
    assert coeffs(moved) == coeffs(fs)


@pytest.mark.parametrize("seed", range(3))
def test_permuting_filtrations_permutes_types(seed):
    rng = random.Random(seed)
    fs = [ft.truncate(random_filtration(rng, D, k), 1) for k in rng.sample(FILTRATION_KINDS, 3)]
    order = rng.sample(range(3), 3)
    base = coeffs(fs)
    moved = coeffs([fs[j] for j in order])
    assert moved == {tuple(t[j] for j in order): v for t, v in base.items()}


@pytest.mark.parametrize("seed", SEEDS)
def test_truncation_ladder_never_increases(seed):
    rng = random.Random(seed)
    kinds = (FILTRATION_KINDS[seed % 5], FILTRATION_KINDS[(seed + 1) % 5])
    fs = [random_filtration(rng, D, k) for k in kinds]
    ladder = mu.truncation_ladder(fs, [1, 2, 4])
    for t, diffs in ladder.differences.items():
        assert all(step <= 0 for step in diffs), (t, diffs)


@pytest.mark.parametrize("seed", SEEDS)
def test_teissier_inequalities(seed):
    c = coeffs(truncated_pair(seed))
    e = [c[(D - i, i)] for i in range(D + 1)]
    for i in range(1, D):
        assert e[i] ** 2 <= e[i - 1] * e[i + 1], e


@pytest.mark.parametrize("seed", SEEDS)
def test_single_component_coefficients_positive(seed):
    # Analytically irreducible ring: every coefficient is positive as soon
    # as every filtration has positive multiplicity.
    fs = truncated_pair(seed)
    assert all(multiplicity(f) > 0 for f in fs)
    assert all(v > 0 for v in coeffs(fs).values())
    assert mu.positivity_report(fs).ok


MODULE_SEEDS = range(12)
MODULE_LADDER = dict(ladder=(16, 32, 64), order=3)


def two_component_model(seed):
    """Two plane components; each filtration is the adic filtration of a
    random primary ideal (positive multiplicity) or F + m^n for a random F
    (multiplicity zero)."""
    rng = random.Random(seed)
    m = mo.maximal_ideal(2)

    def draw():
        if rng.random() < 0.5:
            return ft.adic(random_primary_ideal(rng, 2, 3))
        return ft.fixed_plus_adic(random_primary_ideal(rng, 2, 3), m)

    return co.model([(rng.randint(1, 2), [draw(), draw()]) for _ in range(2)])


def test_module_positivity_characterization():
    # On a sum of analytically irreducible components the type-t coefficient
    # is positive iff some component has positive multiplicity at every j
    # with t_j > 0, and vanishes otherwise.
    outcomes = []
    for seed in MODULE_SEEDS:
        model = two_component_model(seed)
        positive = [
            [
                2 * est.value > mu.DEFAULT_ZERO_THRESHOLD
                for est in co.component_limits(model, unit, **MODULE_LADDER)
            ]
            for unit in ((1, 0), (0, 1))
        ]  # positive[j][c]: filtration j has positive multiplicity on component c
        rep = co.component_mixed(model, **MODULE_LADDER)
        for t, est in rep.coeffs.items():
            want = any(
                all(positive[j][c] for j in range(2) if t[j]) for c in range(2)
            )
            if want:
                assert est.value > mu.DEFAULT_ZERO_THRESHOLD, (seed, t, est.value)
            else:
                assert abs(est.value) <= mu.DEFAULT_ZERO_THRESHOLD, (seed, t, est.value)
            outcomes.append(want)
    assert set(outcomes) == {True, False}
