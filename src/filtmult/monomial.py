"""Monomial ideals in a polynomial ring, represented by generator exponents.

An ideal is stored as the antichain of its minimal generators: a finite set
of exponent vectors in N^d, none componentwise below another, sorted.
Membership, sums, products and powers are pure set combinatorics on that
antichain.  Exponents are validated once, where they enter (:func:`ideal`,
:func:`minimalize`); sums, and products in dimension one, from four on
and of a few far generators in three, hand sorted, deduplicated tuples
straight to the antichain kernel, which sweeps in dimensions one to three
and tests dominance with bitsets from four on.  The kernel lives in
:mod:`polytope`, whose Newton-polyhedron geometry starts with the same
step, and is bound here by name.  Plane products skip each pairwise sum
g_i + h_j that g_{i+1} + h_{j-1} or g_{i-1} + h_{j+1} lies under (a chain
of such skips cannot cycle, so it ends at a kept sum), keep the least y
per x over the rest and hand that staircase to the kernel's plane sweep.
Space products pack each exponent into one int, wide enough that sums
never carry, so the pairwise sums are one set of ints in lexicographic
order; one sweep over slabs of equal x, against a dense front of the
least z per y, keeps the minimal sums and unpacks only those.
Colengths (the number of standard monomials) are computed exactly by
coordinate slicing; the covolume of the Newton polyhedron is delegated
to the polytope kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from . import polytope
from .polytope import DIM_CAP, _minimal

Exponent = tuple[int, ...]


def minimalize(gens: Iterable[Sequence[int]], dim: int) -> tuple[Exponent, ...]:
    """Reduce a generating set to the antichain of minimal exponents.

    Validates every exponent (length ``dim``, each entry a nonnegative
    ``int``, never a ``bool``) and keeps exactly the generators not
    componentwise dominated by another, deduplicated and sorted.  Dimensions
    one to three use sorted sweeps; four and more use one bitset dominance
    test per point.
    """
    pts = set()
    for g in gens:
        p = tuple(g)
        if len(p) != dim:
            raise ValueError(f"exponent {p} does not have length {dim}")
        for c in p:
            if isinstance(c, bool) or not isinstance(c, int):
                raise ValueError(f"non-integer exponent {c!r} in {p}")
            if c < 0:
                raise ValueError(f"negative exponent in {p}")
        pts.add(p)
    return _minimal(sorted(pts), dim)


# Below this many generators on either side a plane product takes every
# sum: the step table would cost more than the sums it skips.  Timed on the
# plane products of one pass of bench/'s ladder and bodies workloads
# (Python 3.11, 2-core VM): a floor of 2 took 26 and 17 ms, floors 4 to 8
# about 22 and 8 ms, and taking every sum 55 and 9 ms.
_PRUNE_FLOOR = 6


def _staircase_product(
    gens: Sequence[Exponent], others: Sequence[Exponent]
) -> tuple[Exponent, ...]:
    """Minimal generators of a product of two plane ideals.

    Keeps the least y per x over the pairwise sums that
    :func:`_undominated_pairs` keeps, as ints, then the antichain
    kernel's plane sweep keeps the strictly falling staircase.  Below
    _PRUNE_FLOOR generators on either side every sum is taken, in one
    block, so small products run the plain double loop.
    """
    if min(len(gens), len(others)) < _PRUNE_FLOOR:
        blocks: Sequence[tuple[Sequence[Exponent], Sequence[Exponent]]] = ((gens, others),)
    else:
        blocks = _undominated_pairs(gens, others)
    least: dict[int, int] = {}
    get = least.get
    for rows, cols in blocks:
        for gx, gy in rows:
            for hx, hy in cols:
                x = gx + hx
                y = gy + hy
                b = get(x)
                if b is None or y < b:
                    least[x] = y
    return _minimal([(x, least[x]) for x in sorted(least)], 2)


def _undominated_pairs(
    gens: Sequence[Exponent], others: Sequence[Exponent]
) -> list[tuple[list[Exponent], list[Exponent]]]:
    """Blocks (rows, cols) of gens and others whose sums g + h, for g in
    rows and h in cols, are the pairwise sums a product must take.

    Both antichains are sorted, x rising and y falling.  The sum
    g_i + h_j is skipped when
      (a) g_{i+1} + h_{j-1} lies at or below it: the step into h_j is at
          least as wide as the step out of g_i and no taller; or
      (b) g_{i-1} + h_{j+1} lies strictly below it: the step out of h_j is
          at most as wide as the step into g_i and at least as tall, and
          not the same step.
    Every skipped sum lies at or above another pair sum.  Following such
    moves never cycles: along a cycle every sum would be equal, so it
    would hold no (b) move, and (a) moves alone raise i.  So each chain
    ends at a kept sum, and the kept sums generate the product.

    The tests read only the steps around g_i and h_j, so the kept columns
    are found once per distinct (step into g_i, step out of g_i), and the
    rows with that key form one block; a power of a near-linear ideal
    such as (x, y^3)^k has three blocks.
    """
    def steps(pts: Sequence[Exponent]) -> list[tuple[int, int]]:
        return [(x1 - x0, y0 - y1) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]

    g_steps = steps(gens)
    h_steps = steps(others)
    columns = list(zip(others, [None, *h_steps], [*h_steps, None]))
    blocks: dict[tuple, tuple[list[Exponent], list[Exponent]]] = {}
    for g, key in zip(gens, zip([None, *g_steps], [*g_steps, None])):
        block = blocks.get(key)
        if block is None:
            step_in, step_out = key
            cols = [
                h
                for h, h_in, h_out in columns
                if not (
                    step_out
                    and h_in
                    and step_out[0] <= h_in[0]
                    and h_in[1] <= step_out[1]
                )
                and not (
                    step_in
                    and h_out
                    and h_out[0] <= step_in[0]
                    and step_in[1] <= h_out[1]
                    and h_out != step_in
                )
            ]
            block = blocks[key] = ([], cols)
        block[0].append(g)
    return list(blocks.values())


def _packed_product(
    gens: Sequence[Exponent], others: Sequence[Exponent], top: int
) -> tuple[Exponent, ...]:
    """Minimal generators of a product of two space ideals.

    top bounds every coordinate of every pairwise sum.  Each exponent is
    packed into one int, s bits per coordinate with 2^s > top.  Sums then
    never carry, so adding packed ints adds exponents, and int order is
    lexicographic order.  One sweep over the sorted distinct sums takes
    them in slabs of equal x: front[y] is the least z kept in an earlier
    slab at some y' <= y, and low the least z met so far in this slab
    (every earlier point of the slab has y' <= y).  A sum is minimal iff
    its z lies below both, and only the kept sums are unpacked.
    """
    s = top.bit_length()
    s2 = 2 * s
    mask = (1 << s) - 1
    left = [(a << s2) | (b << s) | c for a, b, c in gens]
    right = [(a << s2) | (b << s) | c for a, b, c in others]
    sums = sorted({p + q for p in left for q in right})
    front = [top + 1] * (top + 1)
    kept: list[Exponent] = []
    slab: list[tuple[int, int]] = []  # this slab's kept (y, z), z falling
    x = -1
    low = 0
    for v in sums:
        if v >> s2 != x:
            _lower_front(front, slab)
            slab = []
            x = v >> s2
            low = top + 1
        z = v & mask
        if z < low:
            low = z
            y = (v >> s) & mask
            if z < front[y]:
                kept.append((x, y, z))
                slab.append((y, z))
    return tuple(kept)


def _lower_front(front: list[int], slab: list[tuple[int, int]]) -> None:
    """Fold one slab's kept (y, z), y rising and z falling, into front.

    front stays non-increasing, so each stretch [y, next y) is lowered
    from its left end until it meets an entry already at or below z.
    """
    ends = [y for y, _ in slab[1:]] + [len(front)]
    for (y, z), end in zip(slab, ends):
        while y < end and front[y] > z:
            front[y] = z
            y += 1


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal generator antichain.

    Instances are immutable; all operations return new ideals.  Construct
    through :func:`ideal`, which minimalizes and validates the input.
    """

    dim: int
    gens: tuple[Exponent, ...]

    def contains(self, exponent: Sequence[int]) -> bool:
        """Monomial membership: some generator divides x^exponent."""
        e = tuple(exponent)
        if len(e) != self.dim:
            raise ValueError("exponent length does not match ambient dimension")
        return any(all(g[i] <= e[i] for i in range(self.dim)) for g in self.gens)

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        """True when other is a subideal, i.e. every generator of other lies here."""
        self._check_same_dim(other)
        return all(self.contains(g) for g in other.gens)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_same_dim(other)
        merged = sorted(set(self.gens + other.gens))
        return MonomialIdeal(self.dim, _minimal(merged, self.dim))

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check_same_dim(other)
        if not self.gens or not other.gens:
            return MonomialIdeal(self.dim, ())
        if other.is_unit():
            return self
        if self.is_unit():
            return other
        if self.dim == 2:
            return MonomialIdeal(2, _staircase_product(self.gens, other.gens))
        if self.dim == 3:
            top = max(map(max, self.gens)) + max(map(max, other.gens))
            # the sweep's dense front has top + 1 slots: past the pair
            # count (a few far generators), the generic path costs less
            if top <= len(self.gens) * len(other.gens):
                return MonomialIdeal(3, _packed_product(self.gens, other.gens, top))
        prods = {tuple(map(add, g, h)) for g in self.gens for h in other.gens}
        return MonomialIdeal(self.dim, _minimal(sorted(prods), self.dim))

    def power(self, k: int) -> "MonomialIdeal":
        """k-th power, by binary exponentiation with minimalization at each step."""
        if k < 0:
            raise ValueError("negative power")
        result = unit_ideal(self.dim)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.dim,)

    def is_primary(self) -> bool:
        """True when a pure power of every variable appears among the generators.

        Equivalent to the quotient ring having finite length.
        """
        if self.is_unit():
            return True
        # A pure power has dim - 1 zeros; its largest entry marks its axis.
        zeros = self.dim - 1
        axes = {g.index(max(g)) for g in self.gens if g.count(0) == zeros}
        return len(axes) == self.dim

    def colength(self) -> int:
        """Number of monomials outside the ideal, exact.

        Only defined for primary ideals; raises ValueError otherwise.
        """
        if not self.is_primary():
            raise ValueError("colength is finite only for primary ideals")
        return _colength(self.gens, self.dim)

    def covolume(self) -> Fraction:
        """Volume of the orthant complement of the Newton polyhedron, exact.

        This is the normalized limit of colength(I^n)/n^d; the multiplicity
        is d! times this value.
        """
        self._check_covolume()
        return polytope.orthant_covolume(self.gens, self.dim)

    def _check_covolume(self) -> None:
        """Raise unless the covolume is defined: dimension <= 4, primary."""
        if self.dim > DIM_CAP:
            raise ValueError(f"geometric operations are limited to dimension {DIM_CAP}")
        if not self.is_primary():
            raise ValueError("covolume is finite only for primary ideals")

    def _check_same_dim(self, other: "MonomialIdeal") -> None:
        if self.dim != other.dim:
            raise ValueError("ambient dimensions differ")


def ideal(dim: int, gens: Iterable[Sequence[int]]) -> MonomialIdeal:
    """Build a MonomialIdeal from any generating set."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    reduced = minimalize(gens, dim)
    if not reduced:
        raise ValueError("the zero ideal is not representable; give at least one generator")
    return MonomialIdeal(dim, reduced)


def unit_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ((0,) * dim,))


def maximal_ideal(dim: int) -> MonomialIdeal:
    """The ideal generated by all variables."""
    eye = []
    for i in range(dim):
        row = [0] * dim
        row[i] = 1
        eye.append(tuple(row))
    # Routed through minimalize so the generator order is canonical and
    # equality with independently built copies holds.
    return ideal(dim, eye)


def _pure_power(gens: Sequence[Exponent], axis: int) -> int:
    """Exponent of the minimal generator supported on the given axis alone."""
    # zero off the axis: len(g) - 1 zeros and g[axis] != 0, or all zeros
    best = min(
        (g[axis] for g in gens if g.count(0) + (g[axis] != 0) == len(g)),
        default=None,
    )
    if best is None:
        raise ValueError("no pure power on axis; ideal is not primary")
    return best


def _colength(gens: Sequence[Exponent], dim: int) -> int:
    if dim == 1:
        return min(g[0] for g in gens)
    if dim == 2:
        return _colength_2d(gens)
    # Slice along the last coordinate.  The slice ideal at height t is
    # generated by the projections of generators with last coordinate <= t;
    # it only changes at heights where new generators are admitted, so the
    # inner colength is recomputed only when the slice antichain changes.
    bound = _pure_power(gens, dim - 1)
    if bound == 0:
        return 0
    order = sorted(gens, key=lambda g: g[-1])
    kept: tuple[Exponent, ...] = ()
    total = 0
    idx = 0
    t = 0
    current = 0
    while t < bound:
        new = set(kept)
        while idx < len(order) and order[idx][-1] <= t:
            new.add(order[idx][:-1])
            idx += 1
        slice_gens = _minimal(sorted(new), dim - 1)
        if slice_gens != kept:
            kept = slice_gens
            current = _colength(kept, dim - 1)
        nxt = order[idx][-1] if idx < len(order) else bound
        nxt = min(nxt, bound)
        total += (nxt - t) * current
        t = nxt
    return total


def _colength_2d(gens: Sequence[Exponent]) -> int:
    # gens form an antichain with pure powers on both axes, so sorting by x
    # gives strictly descending y starting from (0, y_max).
    pts = sorted(gens)
    total = 0
    for (x0, y0), (x1, _) in zip(pts, pts[1:]):
        total += (x1 - x0) * y0
    return total
