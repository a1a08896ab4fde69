"""Value semigroups of filtration products and their convex bodies.

A monomial valuation with Q-linearly independent weights sends each
monomial to a distinct value, so graded pieces are one-dimensional and
semigroup membership reduces to monomial-ideal membership; no irrational
arithmetic ever happens.  Each level is kept as its product ideal, in
every dimension, and a body is the exact hull of the generators under
the degree cap and their ray points, the hull of every point of every
level.  The hull runs on integers a*(L/i) over L = lcm(1..cutoff), only
on the feet with the orthant hull of all feet, and their ray points
toward the common cap bound*L (see body).  In the plane each
level is first cut to the vertices of its own Newton polygon, on its
small unscaled feet, so only a few points per level meet L.  The full
simplex needs no hull: its vertices and its volume bound^d/d! are
written down.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import factorial, lcm

from . import monomial, polytope
from .filtration import Filtration
from .monomial import MonomialIdeal
from .multiplicity import DIRECT, LimitEstimate, _WeightedGrowth, product_ideal_at


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
    if not prod.is_primary():
        # no power of m lies in it, so the search below would never end
        raise ValueError(f"the product of the levels at sigma {sigma} is not m-primary")
    d = prod.dim
    mx = monomial.maximal_ideal(d)
    c, power = 1, mx
    while not prod.contains_ideal(power):
        c += 1
        power = power * mx
    return c


def shared_degree_bound(fs, sigmas) -> int:
    """One bound valid across several sigma vectors: twice the largest
    single bound, so sums of two semigroup points stay in range."""
    return 2 * max(degree_bound(fs, s) for s in sigmas)


@dataclass(frozen=True)
class ValueSemigroup:
    """Levels i <= cutoff of the semigroup {(a, i) : x^a in the level-i
    product ideal, |a| <= bound*i}, each level kept as that ideal."""

    dim: int
    sigma: tuple[int, ...]
    bound: int
    cutoff: int
    _levels: dict[int, MonomialIdeal] = field(repr=False)

    def _feet(self, i: int) -> list[tuple[int, ...]]:
        """Minimal generators of level i within the degree cap, in
        lexicographic order."""
        cap = self.bound * i
        return [g for g in self._levels[i].gens if sum(g) <= cap]


def value_semigroup(fs, sigma, bound: int, cutoff: int) -> ValueSemigroup:
    """Semigroup levels 1..cutoff for the given sigma weights, each the
    product ideal at i*sigma."""
    fs = list(fs)
    sigma = tuple(sigma)
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    if bound < 1:
        raise ValueError("degree bound must be positive")
    levels = {
        i: product_ideal_at(fs, [i * s for s in sigma]) for i in range(1, cutoff + 1)
    }
    return ValueSemigroup(
        dim=fs[0].dim,
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
    """The exact hull of the semigroup's quotient points; empty when no
    level has a foot.

    Level i, with cap = bound*i, gives its feet g (minimal generators
    with |g| <= cap) and their ray points g + (cap - |g|)*e_k, over i.
    These span the hull of all of the level's points, for any bound: a
    point a lies above a minimal generator g, a foot as |g| <= |a| <= cap,
    so a is in the right side of the lemma below, taken on that level.

    The hull runs on integers over L = lcm(1..cutoff).  Level i is scaled
    by L/i: its feet g become the points f = g*(L/i) of a set F, each with
    |f| <= C = bound*L, and their ray points become f + (C - |f|)*e_k.
    Nearly all of those are interior, and the hull needs only a few feet:

    Lemma.  conv(F and rays(F)) = (conv F + R^d_>=0) cut by |x| <= C,
    where rays(F) holds f + (C - |f|)*e_k for f in F and every axis k.
    Proof.  Each point of F and rays(F) lies in the right side.  Conversely
    take p = q + c with q = sum lambda_f*f a convex combination, c >= 0
    and |p| <= C, and let s = C - |q| >= |c|.  If s = 0 then p = q.
    Otherwise p = (1 - |c|/s)*q + sum_k (c_k/s)*(q + s*e_k), and
    q + s*e_k = sum lambda_f*(f + (C - |f|)*e_k) since
    s = sum lambda_f*(C - |f|).

    So any E inside F with conv E + R^d_>=0 = conv F + R^d_>=0 gives the
    same hull from E and rays(E), and a polytope's vertices are unique.
    Dimensions 1 and 2 take E to be the vertices of that polyhedron, which
    polytope.orthant_extremes finds with sweeps.  Dimensions 3 and 4 take
    the feet above no other foot (polytope._minimal): orthant_extremes
    runs a facet hull of its own there, which costs more than it saves.

    Per level.  F is the union of the scaled levels F_i, and the convex
    hull of a union is the hull of the union of the parts' hulls, so
    conv F + R^d_>=0 does not change when each F_i is replaced by any
    E_i with conv E_i + R^d_>=0 = conv F_i + R^d_>=0.  Scaling by L/i is
    linear and maps the orthant onto itself, so E_i may be found on the
    level's own feet, before scaling.  In the plane E_i is the vertex
    chain of the level's staircase (polytope._staircase_chain), on small
    integers, and only those few points are scaled; a level of dimension
    1 has one foot at most.
    """
    d = sem.dim
    den = lcm(*range(1, sem.cutoff + 1))
    feet = set()
    for i in range(1, sem.cutoff + 1):
        level = sem._feet(i)
        if d == 2:
            level = polytope._staircase_chain(level)
        scale = den // i
        feet.update(tuple([c * scale for c in g]) for g in level)
    if d <= 2:
        ext = polytope.orthant_extremes(feet)
    else:
        ext = polytope._minimal(sorted(feet), d)
    cap = sem.bound * den
    pts = set(ext)
    for f in ext:
        slack = cap - sum(f)
        if slack:
            for k in range(d):
                pts.add(f[:k] + (f[k] + slack,) + f[k + 1 :])
    hull = polytope._hull_ints(d, den, pts)
    return OkounkovBody(hull, sem.sigma, sem.bound, sem.cutoff)


def full_simplex_body(dim: int, bound: int) -> polytope.RationalPolytope:
    """The simplex {x >= 0, sum x <= bound}: the body of the unconstrained
    semigroup.  Its d+1 vertices are known, so no hull runs; they come in
    the lexicographic order polytope.hull gives, the origin first and the
    corner on the last axis next."""
    zero = (Fraction(0),) * dim
    corners = [zero[:k] + (Fraction(bound),) + zero[k + 1 :] for k in reversed(range(dim))]
    return polytope.RationalPolytope(dim, (zero, *corners))


def _simplex_volume(dim: int, bound: int) -> Fraction:
    """Volume of the simplex {x >= 0, sum x <= bound}: bound^d/d!."""
    return Fraction(bound**dim, factorial(dim))


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
    return _volume_identity(f, value_semigroup([f], (1,), bound, cutoff), ladder)


def _volume_identity(f: Filtration, sem: ValueSemigroup, ladder) -> VolumeIdentityReport:
    """volume_identity_report on the semigroup of f at sigma (1,)."""
    hat_vol = _simplex_volume(f.dim, sem.bound)
    body_vol = body(sem).volume()
    diff = hat_vol - body_vol
    est = _WeightedGrowth([(1, [f])], DIRECT, ladder=ladder).growth((1,))
    return VolumeIdentityReport(
        cutoff=sem.cutoff,
        bound=sem.bound,
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
    return _origin_collapse(f, value_semigroup([f], (1,), bound, cutoff), tolerance)


def _origin_collapse(
    f: Filtration, sem: ValueSemigroup, tolerance: Fraction
) -> OriginCollapseReport:
    """origin_collapse_check on the semigroup of f at sigma (1,)."""
    bound, cutoff = sem.bound, sem.cutoff
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
    hat_vol = _simplex_volume(f.dim, bound)
    half_cut = max(1, cutoff // 2)
    # The half-cutoff semigroup is a prefix of sem's levels.
    gap_half = hat_vol - body(replace(sem, cutoff=half_cut)).volume()
    gap_full = hat_vol - body(sem).volume()
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
    """A level-i exponent minimizing the largest coordinate, or None.

    Every level point lies above a foot whose largest coordinate is no
    larger, so the lexicographically first minimizing foot is returned.
    """
    return min(sem._feet(i), key=max, default=None)


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
    for b in range(1, b_cap + 1):
        # a level lies in m^i iff each of its minimal generators has degree >= i
        if all(
            min(map(sum, f.ideal_at(i * b * bound).gens)) >= i
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
