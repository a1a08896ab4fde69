"""Shared oracles for the property suites.

Everything here is deliberately naive: box enumeration instead of
slicing, pairwise domination scans instead of sorted sweeps.  Slow and
obviously correct is the point.
"""

from __future__ import annotations

import itertools
import random

import pytest

from filtmult import filtration as ft
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
