"""Value semigroups of filtration products and their convex bodies.

A monomial valuation with Q-linearly independent weights sends each
monomial to a distinct value, so graded pieces are one-dimensional and
semigroup membership reduces to monomial-ideal membership; no irrational
arithmetic ever happens.  Levels are stored compressed: dimension one
keeps the minimal exponent, dimension two keeps one staircase height per
first coordinate, higher dimensions fall back to explicit point sets
under a size guard.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import monomial, polytope
from .filtration import Filtration
from .monomial import MonomialIdeal
from .multiplicity import (
    DEFAULT_LADDER,
    LimitEstimate,
    length_sequence,
    limit_estimate,
    product_ideal_at,
)

_POINT_GUARD = 2_000_000


def degree_bound(fs, sigma) -> int:
    """Smallest c with m^c inside the product of the sigma-level ideals,
    floored at one.

    Every exponent of the level-i product ideal then has total degree at
    most c*i, which is the bookkeeping the semigroup cutoff needs.
    """
    fs = list(fs)
    sigma = tuple(sigma)
    if len(sigma) != len(fs):
        raise ValueError("one sigma entry per filtration required")
    if any(s < 0 for s in sigma):
        raise ValueError("sigma entries must be nonnegative")
    prod = product_ideal_at(fs, sigma)
    if prod.is_unit():
        return 1
    d = prod.dim
    mx = monomial.maximal_ideal(d)
    c = 1
    while not prod.contains_ideal(mx.power(c)):
        c += 1
    return c


def shared_degree_bound(fs, sigmas) -> int:
    """One bound valid across several sigma vectors: twice the largest
    single bound, so sums of two semigroup points stay in range."""
    return 2 * max(degree_bound(fs, s) for s in sigmas)


@dataclass(frozen=True)
class ValueSemigroup:
    """Levels i <= cutoff of the semigroup {(a, i) : x^a in the level-i
    product ideal, |a| <= bound*i}."""

    dim: int
    sigma: tuple[int, ...]
    bound: int
    cutoff: int
    _levels: dict = field(repr=False)

    def level_contains(self, a, i: int) -> bool:
        if i < 1 or i > self.cutoff:
            raise ValueError("level outside stored range")
        a = tuple(a)
        if any(c < 0 for c in a) or sum(a) > self.bound * i:
            return False
        data = self._levels[i]
        if self.dim == 1:
            return a[0] >= data
        if self.dim == 2:
            u = a[0]
            if u >= len(data) or data[u] is None:
                return False
            return a[1] >= data[u]
        return a in data

    def points_at(self, i: int):
        """All stored exponents of one level; intended for small levels."""
        data = self._levels[i]
        cap = self.bound * i
        if self.dim == 1:
            yield from (((a,)) for a in range(data, cap + 1))
            return
        if self.dim == 2:
            for u, vm in enumerate(data):
                if vm is not None:
                    for v in range(vm, cap - u + 1):
                        yield (u, v)
            return
        yield from sorted(data)

    def quotient_points(self):
        """The points a/i whose closure the body is, one list for all levels.

        Dimension two contributes only the staircase foot and the simplex
        edge point per first coordinate; interior points never affect the
        hull.
        """
        pts: list[tuple[Fraction, ...]] = []
        for i in range(1, self.cutoff + 1):
            data = self._levels[i]
            cap = self.bound * i
            if self.dim == 1:
                if data <= cap:
                    pts.append((Fraction(data, i),))
                    pts.append((Fraction(cap, i),))
            elif self.dim == 2:
                for u, vm in enumerate(data):
                    if vm is None:
                        continue
                    pts.append((Fraction(u, i), Fraction(vm, i)))
                    pts.append((Fraction(u, i), Fraction(cap - u, i)))
            else:
                pts.extend(tuple(Fraction(c, i) for c in a) for a in data)
        return pts


def value_semigroup(fs, sigma, bound: int, cutoff: int) -> ValueSemigroup:
    """Enumerate semigroup levels 1..cutoff for the given sigma weights."""
    fs = list(fs)
    sigma = tuple(sigma)
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    if bound < 1:
        raise ValueError("degree bound must be positive")
    d = fs[0].dim
    levels: dict[int, object] = {}
    budget = _POINT_GUARD
    for i in range(1, cutoff + 1):
        ideal = product_ideal_at(fs, [i * s for s in sigma])
        cap = bound * i
        if d == 1:
            levels[i] = min(g[0] for g in ideal.gens)
        elif d == 2:
            by_u = sorted(ideal.gens)
            vmin: list[int | None] = [None] * (cap + 1)
            best: int | None = None
            gi = 0
            for u in range(cap + 1):
                while gi < len(by_u) and by_u[gi][0] <= u:
                    gy = by_u[gi][1]
                    best = gy if best is None else min(best, gy)
                    gi += 1
                if best is not None and u + best <= cap:
                    vmin[u] = best
            levels[i] = tuple(vmin)
        else:
            pts = set()
            for a in itertools.product(*(range(cap + 1) for _ in range(d))):
                if sum(a) <= cap and ideal.contains(a):
                    pts.add(a)
            budget -= len(pts)
            if budget < 0:
                raise ValueError("semigroup too large to enumerate explicitly")
            levels[i] = frozenset(pts)
    return ValueSemigroup(
        dim=d,
        sigma=sigma,
        bound=bound,
        cutoff=cutoff,
        _levels=levels,
    )


@dataclass(frozen=True)
class OkounkovBody:
    """Inner (cutoff-truncated) approximation of the semigroup's body."""

    body: polytope.RationalPolytope
    sigma: tuple[int, ...]
    bound: int
    cutoff: int
    inner: bool = True

    def volume(self) -> Fraction:
        return polytope.volume(self.body)


def body(sem: ValueSemigroup) -> OkounkovBody:
    pts = sem.quotient_points()
    if not pts:
        empty = polytope.RationalPolytope(sem.dim, ())
        return OkounkovBody(empty, sem.sigma, sem.bound, sem.cutoff)
    hull = polytope.hull(sem.dim, pts)
    return OkounkovBody(hull, sem.sigma, sem.bound, sem.cutoff)


def full_simplex_body(dim: int, bound: int) -> polytope.RationalPolytope:
    """The simplex {x >= 0, sum x <= bound}: the body of the unconstrained
    semigroup."""
    verts = [tuple(Fraction(0) for _ in range(dim))]
    for ax in range(dim):
        v = [Fraction(0)] * dim
        v[ax] = Fraction(bound)
        verts.append(tuple(v))
    return polytope.hull(dim, verts)


@dataclass(frozen=True)
class VolumeIdentityReport:
    """Growth limit versus the volume difference of the two bodies."""

    cutoff: int
    bound: int
    limit: LimitEstimate
    hat_volume: Fraction
    body_volume: Fraction
    volume_difference: Fraction
    discrepancy: Fraction


def volume_identity_report(
    f: Filtration, cutoff: int, ladder=None
) -> VolumeIdentityReport:
    """Compare the direct growth estimate of one filtration against the
    volume drop its semigroup body carves out of the full simplex."""
    bound = degree_bound([f], (1,))
    sem = value_semigroup([f], (1,), bound, cutoff)
    hat_sem = value_semigroup([f], (0,), bound, min(cutoff, max(f.dim, 2)))
    hat_vol = polytope.volume(body(hat_sem).body)
    body_vol = body(sem).volume()
    diff = hat_vol - body_vol
    est = limit_estimate(length_sequence([f], (1,), ladder or DEFAULT_LADDER))
    return VolumeIdentityReport(
        cutoff=cutoff,
        bound=bound,
        limit=est,
        hat_volume=hat_vol,
        body_volume=body_vol,
        volume_difference=diff,
        discrepancy=abs(est.value - diff),
    )


@dataclass(frozen=True)
class OriginCollapseReport:
    """Whether quotient points approach the origin, and what that does to
    the volume gap."""

    cutoff: int
    tolerance: Fraction
    triggered: bool
    witness: tuple | None
    gap_at_half: Fraction | None
    gap_at_full: Fraction | None
    gap_decreasing: bool | None


def origin_collapse_check(
    f: Filtration, cutoff: int, tolerance: Fraction
) -> OriginCollapseReport:
    """If some quotient point has every coordinate at most the tolerance,
    the body must fill the whole simplex in the limit; report how the
    volume gap behaves when the cutoff doubles to its full value."""
    bound = degree_bound([f], (1,))
    sem = value_semigroup([f], (1,), bound, cutoff)
    witness = None
    for i in range(1, cutoff + 1):
        candidate = _smallest_point(sem, i)
        if candidate is not None and all(
            Fraction(c, i) <= tolerance for c in candidate
        ):
            witness = (candidate, i)
            break
    if witness is None:
        return OriginCollapseReport(
            cutoff, tolerance, False, None, None, None, None
        )
    hat = full_simplex_body(f.dim, bound)
    half_cut = max(1, cutoff // 2)
    gap_half = polytope.volume(hat) - body(
        value_semigroup([f], (1,), bound, half_cut)
    ).volume()
    gap_full = polytope.volume(hat) - body(sem).volume()
    return OriginCollapseReport(
        cutoff=cutoff,
        tolerance=tolerance,
        triggered=True,
        witness=witness,
        gap_at_half=gap_half,
        gap_at_full=gap_full,
        gap_decreasing=gap_full <= gap_half,
    )


def _smallest_point(sem: ValueSemigroup, i: int):
    """A stored level-i exponent minimizing the largest coordinate scaled
    by the level, or None."""
    data = sem._levels[i]
    cap = sem.bound * i
    if sem.dim == 1:
        return (data,) if data <= cap else None
    if sem.dim == 2:
        best = None
        for u, vm in enumerate(data):
            if vm is None:
                continue
            if best is None or max(u, vm) < max(best):
                best = (u, vm)
        return best
    best = None
    for a in data:
        if best is None or max(a) < max(best):
            best = a
    return best


@dataclass(frozen=True)
class ContainmentBound:
    """Certificate that deep filtration levels land in powers of the
    maximal ideal: level(i*b*bound) inside m^i for all checked i."""

    found: bool
    b: int | None
    bound: int
    verified_through: int


def containment_bound_search(
    f: Filtration, i_bound: int, b_cap: int = 64
) -> ContainmentBound:
    """Search the smallest stretch factor b <= b_cap making every checked
    deep level collapse into the matching power of the maximal ideal.

    Meaningful when the filtration's multiplicity is positive; a failed
    search is evidence of nothing and is reported, not raised.
    """
    bound = degree_bound([f], (1,))
    mx = monomial.maximal_ideal(f.dim)
    for b in range(1, b_cap + 1):
        if all(
            mx.power(i).contains_ideal(f.ideal_at(i * b * bound))
            for i in range(1, i_bound + 1)
        ):
            return ContainmentBound(True, b, bound, i_bound)
    return ContainmentBound(False, None, bound, i_bound)


@dataclass(frozen=True)
class MinkowskiReport:
    """Sum-body containment and degenerate-pair volume agreement."""

    bound: int
    cutoff: int
    contained_vertices: int
    unresolved_vertices: tuple
    containment_pass: bool
    collapse_triggered: bool
    collapse_proxy: Fraction
    tolerance: Fraction
    sum_volume: Fraction | None
    tau_volume: Fraction | None
    volume_agreement: bool | None


def minkowski_checks(
    fs, sigma, tau, cutoff: int, tolerance: Fraction | None = None
) -> MinkowskiReport:
    """Check that the clipped Minkowski sum of two sigma-bodies sits inside
    the body of the summed sigma, and, when the first body already fills
    the simplex, that adding it does not change volumes.

    All bodies are inner approximations, so a vertex that fails the
    containment test is only unresolved, never a refutation; the filled-
    simplex trigger uses a vertex-to-vertex distance proxy that can only
    overestimate the true gap.
    """
    fs = list(fs)
    sigma = tuple(sigma)
    tau = tuple(tau)
    both = tuple(s + t for s, t in zip(sigma, tau))
    bound = shared_degree_bound(fs, [sigma, tau, both])
    tol = tolerance if tolerance is not None else Fraction(1, cutoff)
    body_sigma = body(value_semigroup(fs, sigma, bound, cutoff))
    body_tau = body(value_semigroup(fs, tau, bound, cutoff))
    body_both = body(value_semigroup(fs, both, bound, 2 * cutoff))
    summed = polytope.minkowski_sum(body_sigma.body, body_tau.body)
    clipped = polytope.clip(
        summed,
        polytope.Halfspace(tuple(Fraction(1) for _ in range(fs[0].dim)), Fraction(bound)),
    )
    unresolved = []
    contained = 0
    for v in clipped.vertices:
        if polytope.contains_point(body_both.body, v):
            contained += 1
        else:
            unresolved.append(v)
    hat = full_simplex_body(fs[0].dim, bound)
    proxy = _vertex_distance_proxy(hat, body_sigma.body)
    triggered = proxy <= tol
    sum_vol = tau_vol = None
    agreement = None
    if triggered:
        sum_vol = body_both.volume()
        tau_vol = body_tau.volume()
        agreement = abs(sum_vol - tau_vol) <= tol
    return MinkowskiReport(
        bound=bound,
        cutoff=cutoff,
        contained_vertices=contained,
        unresolved_vertices=tuple(unresolved),
        containment_pass=not unresolved,
        collapse_triggered=triggered,
        collapse_proxy=proxy,
        tolerance=tol,
        sum_volume=sum_vol,
        tau_volume=tau_vol,
        volume_agreement=agreement,
    )


def _vertex_distance_proxy(outer: polytope.RationalPolytope, inner: polytope.RationalPolytope) -> Fraction:
    """Max over outer vertices of the min max-norm distance to an inner
    vertex.  An upper bound for the Hausdorff distance when inner is
    contained in outer, because distance-to-a-convex-set is maximized at
    vertices and only shrinks when measured to the full body."""
    if not inner.vertices:
        return Fraction(10**9)
    worst = Fraction(0)
    for q in outer.vertices:
        best = min(
            max(abs(a - b) for a, b in zip(q, v)) for v in inner.vertices
        )
        worst = max(worst, best)
    return worst
