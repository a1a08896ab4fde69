"""Filtrations of m-primary monomial ideals, built level by level.

Five kinds are provided: powers of a fixed ideal, a fixed ideal plus
powers of another, levels cut out by a weighted valuation with an exactly
rounded (possibly irrational quadratic) threshold, truncations that
regenerate high levels from their least generating level, and index
rescalings.  Levels are memoized per filtration.  A truncation's period
is one integer s, proved from its first a levels to give
level(s*i) = level(s)^i for every i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import monomial
from .monomial import MonomialIdeal


@dataclass(frozen=True)
class SurdScalar:
    """Exact positive scalar, either p/q or the square root of p/q.

    Square roots of perfect squares normalize to the rational kind, so
    is_root implies the value is irrational.  Comparisons and ceilings
    stay in integer arithmetic throughout.
    """

    p: int
    q: int
    is_root: bool

    def __post_init__(self) -> None:
        if self.p <= 0 or self.q <= 0:
            raise ValueError("scalar requires positive p and q")

    def scaled_ceiling(
        self, n: int, unit: Fraction = Fraction(1), offset: Fraction = Fraction(0)
    ) -> int:
        """Smallest integer k >= 0 with offset + k*unit >= n*(this scalar)."""
        if n < 0:
            raise ValueError("level must be nonnegative")
        if unit <= 0:
            raise ValueError("unit must be positive")
        offset, unit = Fraction(offset), Fraction(unit)
        if not self.is_root or n == 0:
            k = (Fraction(n * self.p, self.q) - offset) / unit
        else:
            # With m clearing both denominators, m*(offset + k*unit) is an
            # integer and m*n*sqrt(p/q) is irrational with floor f, so the
            # former reaches the latter exactly when it reaches f + 1.
            m = math.lcm(offset.denominator, unit.denominator)
            f = math.isqrt(m * m * n * n * self.p // self.q)
            k = (f + 1 - m * offset) / (m * unit)
        return max(0, math.ceil(k))


def rational_scale(p: int, q: int = 1) -> SurdScalar:
    g = math.gcd(p, q)
    return SurdScalar(p // g, q // g, is_root=False)


def root_scale(p: int, q: int = 1) -> SurdScalar:
    g = math.gcd(p, q)
    p, q = p // g, q // g
    rp, rq = math.isqrt(p), math.isqrt(q)
    if rp * rp == p and rq * rq == q:
        return SurdScalar(rp, rq, is_root=False)
    return SurdScalar(p, q, is_root=True)


class Filtration:
    """Descending chain of m-primary monomial ideals indexed by level.

    Subclasses implement _level; ideal_at validates, memoizes and returns
    the unit ideal at level 0.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._cache: dict[int, MonomialIdeal] = {}

    def ideal_at(self, n: int) -> MonomialIdeal:
        if n < 0:
            raise ValueError("filtration level must be nonnegative")
        if n == 0:
            return monomial.unit_ideal(self.dim)
        got = self._cache.get(n)
        if got is None:
            got = self._cache[n] = self._level(n)
        return got

    def _level(self, n: int) -> MonomialIdeal:
        raise NotImplementedError

    def _from_levels_up_to(self, a: int, n: int) -> MonomialIdeal:
        """Level n > a of a filtration that keeps its levels up to a: the
        sum of the products I_{p_1}...I_{p_m} with all p_i <= a and sum n,
        which is sum(I_j * I_{n-j} for k-a < j <= k) for any a <= k < n.

        Each I_j * I_{n-j} is a sum of such products.  Conversely the
        partial sums of p_1, p_2, ... climb from 0 to n by at most a, so one
        of them, j, lies in (k-a, k]; there the product splits into one
        inside I_j and one inside I_{n-j} (kept levels hold the products of
        kept levels below them, so this holds for indices up to a too).

        k is n-1 when levels n-a..n-1 are memoized, so levels read in order
        cost one step each; otherwise the deepest memoized level k >= n/2
        with k-a+1..k memoized, else max(n//2, a), so fresh reads recurse
        only logarithmically deep and never call power.
        """
        memo = self._cache
        k = n - 1
        if not all(map(memo.__contains__, range(n - a, n))):
            # a snapshot of the levels: other threads may add some meanwhile
            tops = [t for t in list(memo) if n <= 2 * t < 2 * n]
            tops = [t for t in tops if all(map(memo.__contains__, range(t - a + 1, t)))]
            k = max(tops, default=max(n // 2, a))
        acc = self.ideal_at(k) * self.ideal_at(n - k)
        for j in range(k - a + 1, k):
            acc = acc + self.ideal_at(j) * self.ideal_at(n - j)
        return acc


class AdicFiltration(Filtration):
    """Levels are powers of one fixed m-primary ideal.

    Past level 1 the levels follow the rule of Filtration._from_levels_up_to
    with a = 1: level n is level(k) * level(n-k).
    """

    def __init__(self, base: MonomialIdeal) -> None:
        if not base.is_primary():
            raise ValueError("adic filtration requires an m-primary base")
        super().__init__(base.dim)
        self.base = base

    def _level(self, n: int) -> MonomialIdeal:
        return self.base if n == 1 else self._from_levels_up_to(1, n)


class FixedPlusAdicFiltration(Filtration):
    """Levels are a fixed proper ideal F plus powers of an m-primary one B.

    Past level 1, level n is F plus the a = 1 rule of
    Filtration._from_levels_up_to: for 1 <= k < n the product
    (F + B^k)(F + B^(n-k)) lies in F + B^n and contains B^n.
    """

    def __init__(self, fixed: MonomialIdeal, bulk: MonomialIdeal) -> None:
        if fixed.dim != bulk.dim:
            raise ValueError("dimension mismatch between summands")
        if fixed.is_unit() or not fixed.gens:
            raise ValueError("fixed part must be a proper nonzero ideal")
        if not bulk.is_primary():
            raise ValueError("varying part must be m-primary")
        super().__init__(fixed.dim)
        self.fixed = fixed
        self.bulk = bulk

    def _level(self, n: int) -> MonomialIdeal:
        return self.fixed + (self.bulk if n == 1 else self._from_levels_up_to(1, n))


class RoundedValuationFiltration(Filtration):
    """Level n collects exponents whose weighted sum reaches n times an
    exact scale.

    Minimal generators of level n live in the box with per-axis bound
    min{k : k*w_i >= n*scale}, because lowering any larger coordinate to
    that bound still qualifies.  Only the box over the first d-1 axes is
    walked: each column gets one candidate, its least qualifying last
    coordinate, the one exact threshold ``scale.scaled_ceiling`` gives
    with the column's weighted sum as offset.  Every other qualifying
    point lies above its column's candidate, so the candidates generate
    the level.
    """

    def __init__(self, weights: tuple[Fraction, ...], scale: SurdScalar) -> None:
        ws = tuple(Fraction(w) for w in weights)
        if not ws or any(w <= 0 for w in ws):
            raise ValueError("weights must be positive")
        super().__init__(len(ws))
        self.weights = ws
        self.scale = scale

    def _level(self, n: int) -> MonomialIdeal:
        *head, last = self.weights
        bounds = [self.scale.scaled_ceiling(n, w) for w in head]
        hits = []
        for a in itertools.product(*(range(b + 1) for b in bounds)):
            base = sum((w * c for w, c in zip(head, a)), Fraction(0))
            hits.append(a + (self.scale.scaled_ceiling(n, last, base),))
        return monomial.ideal(self.dim, hits)


class TruncatedFiltration(Filtration):
    """Keeps levels up to a, then regenerates: level n > a is the sum of
    all products of kept levels whose indices sum to n, built by the rule
    of Filtration._from_levels_up_to.  The rule needs the kept levels to
    multiply into one another (I_i * I_j inside I_{i+j} for i + j <= a),
    so a base that is not a filtration below a is rejected.

    Levels past a are regenerated from the least generating level a*: the
    largest j <= a with I_j != sum(I_i * I_{j-i} for 0 < i < j), or 1 if
    there is none.  Truncating at a* gives the same levels J_n.  Past a*,
    J_n is the sum over compositions of n with parts <= a*; splitting each
    after its first part i gives sum(J_i * J_{n-i} for 0 < i < n).  So by
    induction on j, I_j = J_j for every j <= a: for j <= a* both are the
    base level, and past a* I_j is that same sum of products of lower,
    equal levels.  A truncation of an adic filtration thus regenerates
    like the adic one, with one product per level.  The user's a stays
    the filtration's a everywhere else (period search, the exact
    backend's note).
    """

    def __init__(self, base: Filtration, a: int) -> None:
        if a < 1:
            raise ValueError("truncation level must be positive")
        # the sums of the base check's own products find a*
        sums: dict[int, MonomialIdeal] = {}
        for i, j, prod in _level_products(base, a):
            if not base.ideal_at(i + j).contains_ideal(prod):
                raise ValueError(
                    f"truncation base is not a filtration below {a}: "
                    f"levels {i} and {j} multiply outside level {i + j}"
                )
            got = sums.get(i + j)
            sums[i + j] = prod if got is None else got + prod
        super().__init__(base.dim)
        self.base = base
        self.a = a
        self._least = max((n for n, s in sums.items() if s != base.ideal_at(n)), default=1)
        self._exponents: dict[int, int] | None = None

    def _level(self, n: int) -> MonomialIdeal:
        if n <= self.a:
            return self.base.ideal_at(n)
        if self.dim == 1:
            # Kept beside the shared rule: one generator per level lets the
            # recurrence run on bare ints, which makes the sqrt(2)
            # truncation ladder to a = 64 about twenty times faster.
            return monomial.ideal(1, [(self._exponent_level(n),)])
        return self._from_levels_up_to(self._least, n)

    def _exponent_level(self, n: int) -> int:
        # One generator per level in dimension one, so the recurrence can
        # run on bare exponents: g(n) = min over parts of g(i) + g(n-i).
        if self._exponents is None:
            self._exponents = {
                k: self.base.ideal_at(k).gens[0][0] for k in range(1, self.a + 1)
            }
        table = self._exponents
        for k in range(max(table) + 1, n + 1):
            table[k] = min(
                table[i] + table[k - i] for i in range(1, min(self._least, k - 1) + 1)
            )
        return table[n]


class RescaledFiltration(Filtration):
    """Reads the base filtration at multiples of a fixed stride."""

    def __init__(self, base: Filtration, s: int) -> None:
        if s < 1:
            raise ValueError("rescaling stride must be positive")
        super().__init__(base.dim)
        self.base = base
        self.s = s

    def _level(self, n: int) -> MonomialIdeal:
        return self.base.ideal_at(self.s * n)


def adic(base: MonomialIdeal) -> AdicFiltration:
    return AdicFiltration(base)


def fixed_plus_adic(fixed: MonomialIdeal, bulk: MonomialIdeal) -> FixedPlusAdicFiltration:
    return FixedPlusAdicFiltration(fixed, bulk)


def rounded_valuation(weights, scale: SurdScalar) -> RoundedValuationFiltration:
    return RoundedValuationFiltration(tuple(Fraction(w) for w in weights), scale)


def truncate(f: Filtration, a: int) -> TruncatedFiltration:
    return TruncatedFiltration(f, a)


def rescale(f: Filtration, s: int) -> RescaledFiltration:
    return RescaledFiltration(f, s)


class PeriodNotCertified(ValueError):
    """No candidate period verified; carries the deepest-surviving candidate."""

    def __init__(self, best_candidate: int, first_failure: int) -> None:
        super().__init__(
            f"no candidate period verified; candidate {best_candidate} "
            f"survived longest, failing first at i={first_failure}"
        )
        self.best_candidate = best_candidate
        self.first_failure = first_failure


def _holds_up_to(f: TruncatedFiltration, s: int, bound: int) -> int | None:
    """First i <= bound where level(s*i) != level(s)^i, or None."""
    block = f.ideal_at(s)
    power = block
    for i in range(1, bound + 1):
        if i > 1:
            power = power * block
        if f.ideal_at(s * i) != power:
            return i
    return None


def noetherian_period(f: TruncatedFiltration, *, candidate_cap: int = 10_000) -> int:
    """Smallest s with level(s*i) = level(s)^i for every i.

    Only i <= a is checked: equality for i <= a gives it for all i.
    level(s)^n always lies in level(s*n).  Conversely level(s*n) is the sum
    of the products of kept levels (indices <= a) with index sum s*n.  Any
    s parts hold a nonempty run summing to 0 mod s (two of their
    s + 1 prefix sums agree mod s); removing such runs while s parts remain
    leaves fewer than s parts, whose sum is also a multiple of s.  So the
    parts fall into groups with index sums s*i', 1 <= i' <= a, each inside
    level(s*i') = level(s)^i' (by the truncation rule above a, the base
    check below), and the product lies in level(s)^n.

    Candidates are the divisors of lcm(1..a) in ascending order (every
    level index up to a divides that lcm), walked lazily so huge lcm
    values cost nothing.  After candidate_cap divisors the search gives
    up and reports the deepest-surviving candidate.  At a = 1 the one
    candidate s = 1 is level 1 against itself, and no product is formed.
    """
    if not isinstance(f, TruncatedFiltration):
        raise TypeError("period detection applies to truncated filtrations")
    ell = math.lcm(*range(1, f.a + 1))
    best_s, best_depth = 1, 0
    examined = 0
    # The integer walk is capped independently of the divisor count so a
    # fruitless search over a huge lcm still terminates.
    for s in range(1, min(ell, 1_000_000) + 1):
        if ell % s:
            continue
        examined += 1
        failed_at = _holds_up_to(f, s, f.a)
        if failed_at is None:
            return s
        if failed_at > best_depth:
            best_s, best_depth = s, failed_at
        if examined >= candidate_cap:
            break
    raise PeriodNotCertified(best_s, best_depth)


@dataclass(frozen=True)
class SubmultiplicativityReport:
    """Outcome of checking level(i)*level(j) inside level(i+j)."""

    bound: int
    ok: bool
    first_violation: tuple[int, int] | None


def check_submultiplicative(f: Filtration, bound: int) -> SubmultiplicativityReport:
    """Verify products of levels land in the level of the summed index,
    for all i + j <= bound with i, j >= 1.  First violation is reported,
    never raised.
    """
    for i, j, prod in _level_products(f, bound):
        if not f.ideal_at(i + j).contains_ideal(prod):
            return SubmultiplicativityReport(bound, False, (i, j))
    return SubmultiplicativityReport(bound, True, None)


def _level_products(
    f: Filtration, bound: int
) -> Iterator[tuple[int, int, MonomialIdeal]]:
    """Yield (i, j, level(i) * level(j)) for 1 <= i <= j, i + j <= bound,
    by rising i + j."""
    for total in range(2, bound + 1):
        for i in range(1, total // 2 + 1):
            yield i, total - i, f.ideal_at(i) * f.ideal_at(total - i)
