"""Growth of colengths along filtration products.

Direct ladders estimate the normalized limit of ell(R/product)/m^d from
the tail of a ladder of rungs m; certified periods turn truncated
filtrations into exact covolume computations.  The exact growth at n is
the covolume of the Minkowski sum sum_j n_j*NP(I_j) of the level-s Newton
polyhedra, since NP(IJ) = NP(I) + NP(J) and NP(I^k) = k*NP(I).  This
module only resolves the levels: the generators of every filtration's
level go to polytope._covolume_form, whose one form per part serves every
n >= 0, zero weights included.  No product ideal is formed.
Sampling the growth function on a unisolvent grid and solving the exact
Vandermonde system extracts mixed multiplicities.  Both fits are linear in
the sampled values, with weights fixed by the sample points alone: the
ladder limit is a weighted sum of the tail, and the grid fit a product
with the inverse evaluation matrix.  Those weights are found once per
point set, in bounded caches, so each fit is a dot product: the ladder
limit's in exact Fractions, the grid fit's in integers over one common
denominator.  The positivity report checks the sign and vanishing
structure those coefficients must satisfy.  Multiplicities and mixed
multiplicities, of a filtration list or of a weighted component model,
all come from one weighted growth pipeline.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, monomial, polytope
from .filtration import Filtration, TruncatedFiltration, noetherian_period, truncate
from .monomial import MonomialIdeal

DEFAULT_LADDER = (8, 16, 32)
DEFAULT_ZERO_THRESHOLD = Fraction(1, 1000)

DIRECT = "direct"
TRUNCATION_EXACT = "truncation-exact"

# The exact note's "certified for i <= N" label.  Every period holds for every
# i, so any N >= a is true; N = max(16, a) keeps the notes of the shipped
# outputs until the note is reworded.
_NOTE_BOUND = 16


@dataclass(frozen=True)
class LimitEstimate:
    """A limit value together with how it was obtained.

    Exact values (method truncation-exact) are authoritative; direct
    values carry the ladder tail they were extrapolated from and make no
    convergence-rate claim.
    """

    value: Fraction
    lower_evidence: Fraction
    method: str
    error_note: str
    tail: tuple[tuple[int, Fraction], ...] = ()


@dataclass(frozen=True)
class MixedMultiplicityReport:
    r: int
    d: int
    coeffs: dict[tuple[int, ...], LimitEstimate]
    backend: str


def _common_dim(fs) -> int:
    dims = {f.dim for f in fs}
    if not dims:
        raise ValueError("at least one filtration required")
    if len(dims) != 1:
        raise ValueError("filtrations must share one ambient dimension")
    return dims.pop()


def _weights(n, r: int) -> tuple[int, ...]:
    """The level weights n as a tuple: one per filtration, all nonnegative."""
    n = tuple(n)
    if len(n) != r:
        raise ValueError("one level weight per filtration required")
    if any(v < 0 for v in n):
        raise ValueError("level weights must be nonnegative")
    return n


def product_ideal_at(fs, levels) -> MonomialIdeal:
    """Product of each filtration's ideal at its own level."""
    d = _common_dim(fs)
    prod = monomial.unit_ideal(d)
    for f, lv in zip(fs, levels):
        if lv:
            prod = prod * f.ideal_at(lv)
    return prod


def length_sequence(fs, n, ladder) -> list[tuple[int, Fraction]]:
    """Normalized colengths of the product at levels m*n, one per ladder m."""
    fs = list(fs)
    n = _weights(n, len(fs))
    msteps = list(ladder)
    if any(b <= a for a, b in zip(msteps, msteps[1:])) or any(m < 1 for m in msteps):
        raise ValueError("ladder must be strictly increasing and positive")
    d = _common_dim(fs)
    out = []
    for m in msteps:
        ell = product_ideal_at(fs, [m * v for v in n]).colength()
        out.append((m, Fraction(ell, m**d)))
    return out


def limit_estimate(seq, order: int = 2) -> LimitEstimate:
    """Last term plus an extrapolated refinement from the tail of the ladder.

    The default fits c0 + c1/m over the last three terms; c0 is the
    reported value, exact whenever the tail is exactly affine in 1/m.
    order k >= 3 interpolates c0 + c1/m + ... + c_{k-1}/m^{k-1} through
    the last k terms instead, which recovers the limit exactly whenever
    the scaled lengths are polynomial of degree below k in 1/m along the
    sampled rungs.
    """
    terms = list(seq)
    if order < 2:
        raise ValueError("order must be at least 2")
    need = 3 if order == 2 else order
    if len(terms) < need:
        raise ValueError(f"at least {need} ladder terms required")
    tail = terms[-need:]
    weights = _limit_weights(tuple(m for m, _ in tail), order)
    c0 = sum((w * v for w, (_, v) in zip(weights, tail)), Fraction(0))
    ms = ", ".join(str(m) for m, _ in tail)
    if order == 2:
        note = f"fit c0 + c1/m over m in {{{ms}}}; no certified rate"
    else:
        note = f"interpolated through m in {{{ms}}} at order {order}; no certified rate"
    return LimitEstimate(
        value=c0,
        lower_evidence=terms[-1][1],
        method=DIRECT,
        error_note=note,
        tail=tuple(tail),
    )


@functools.lru_cache(maxsize=256)
def _limit_weights(ms: tuple[int, ...], order: int) -> tuple[Fraction, ...]:
    """Weights w with c0 = sum_k w_k*y_k for limit_estimate on the rungs ms.

    c0 is the least-squares fit of c0 + c1*x + ... + c_{order-1}*x^(order-1)
    through the points (x_k, y_k), x_k = 1/m_k: with A the Vandermonde
    matrix [x_k^j], c = (A^T A)^-1 A^T y, so c0 = w . y for w = A u and
    (A^T A) u = e_0.  The weights depend on the rungs alone, so they are
    found once per rung tuple.  When A is square (order k >= 3 through the
    last k rungs) the fit is interpolation.
    """
    a = [[Fraction(1, m) ** j for j in range(order)] for m in ms]
    gram = [[sum(row[i] * row[j] for row in a) for j in range(order)] for i in range(order)]
    u = linalg.solve_linear(gram, [1] + [0] * (order - 1))
    return tuple(sum(map(operator.mul, row, u)) for row in a)


def exact_growth(fs, n, s: int) -> Fraction:
    """Exact limit of ell(product at m*n)/m^d along multiples of s.

    Requires s to be a certified period of every filtration: the level-s
    ideal I_j then generates all deeper levels, and the limit is the
    covolume of the Newton polyhedron of prod_j I_j^{n_j}, scaled by s^d.
    No product ideal is formed.  Newton polyhedra turn products into
    Minkowski sums, NP(IJ) = NP(I) + NP(J) and NP(I^k) = k*NP(I), so that
    polyhedron is sum_j n_j*NP(I_j), a mixed covolume of the levels, read
    off the covolume form of all the levels (_level_form), zeros included.
    """
    fs = list(fs)
    n = _weights(n, len(fs))
    d = _common_dim(fs)
    return polytope._form_covolume(_level_form(fs, s, d), n, d) / s**d


def _level_form(fs, s: int, d: int) -> tuple[tuple, tuple]:
    """The covolume form of the level-s ideals, each checked to have a
    finite covolume."""
    levels = [f.ideal_at(s) for f in fs]
    for level in levels:
        level._check_covolume()
    return polytope._covolume_form([level.gens for level in levels], d)


def sample_grid(d: int, r: int) -> tuple[tuple[int, ...], ...]:
    """Evaluation points: compositions of d into r parts, shifted by one.

    Exactly as many points as a homogeneous degree-d polynomial in r
    variables has coefficients, and the shifted principal lattice keeps
    the evaluation matrix nonsingular.
    """
    return tuple(tuple(t + 1 for t in tv) for tv in type_vectors(d, r))


def type_vectors(d: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree d in r variables, sorted with
    the weight-on-first-filtration vectors first."""
    if r < 1:
        raise ValueError("at least one filtration required")
    vs = []
    for bars in itertools.combinations(range(d + r - 1), r - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(d + r - 2 - prev)
        vs.append(tuple(parts))
    return tuple(sorted(vs, reverse=True))


def fit_homogeneous(points, values, d: int, r: int) -> dict[tuple[int, ...], Fraction]:
    """Exact coefficients of the degree-d homogeneous polynomial matching
    the given values at the given points."""
    tvs = type_vectors(d, r)
    pts = tuple(map(tuple, points))
    ys = [Fraction(v) for v in values]
    if len(pts) != len(tvs) or len(ys) != len(tvs):
        raise ValueError("point and value counts must match coefficient count")
    den, inv = _fit_inverse(pts, d, r)
    scale = math.lcm(*(y.denominator for y in ys))
    nums = [y.numerator * (scale // y.denominator) for y in ys]
    den *= scale
    return {t: Fraction(sum(map(operator.mul, row, nums)), den) for t, row in zip(tvs, inv)}


@functools.lru_cache(maxsize=64)
def _fit_inverse(points, d: int, r: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Inverse of the evaluation matrix of the type-vector monomials at
    points, found once per point set, as (den, rows): den is the lcm of its
    denominators and rows the integer matrix den * inverse.  A fit on it
    is then one integer matrix-vector product over one denominator."""
    tvs = type_vectors(d, r)
    rows = [[math.prod(p[i] ** t[i] for i in range(r)) for t in tvs] for p in points]
    inv = linalg.inverse(rows)
    den = math.lcm(*(c.denominator for row in inv for c in row))
    return den, tuple(tuple(c.numerator * (den // c.denominator) for c in row) for row in inv)


def _factorial_product(t) -> int:
    return math.prod(math.factorial(v) for v in t)


class _WeightedGrowth:
    """Growth of a weighted sum of filtration tuples, n -> LimitEstimate.

    parts is [(weight, filtrations), ...], every part carrying the same
    number of filtrations in one ambient dimension.  Lengths over a product
    of rings add up, so the growth at n is the weight-sum of the parts'
    growth at n; a bare list of filtrations is the single part of weight
    one.  Setup happens once per instance: the exact backend resolves every
    input under one rule (truncated at trunc_level when it is given,
    otherwise required to be truncated already), certifies each part's
    common period and builds the part's one covolume form, which serves
    every n >= 0; the direct backend sums the parts' ladders rung by rung
    and extrapolates the sum.  Mixed reports are memoized per instance, so
    each is fitted once.  Growth values are not memoized, since mixed() (the
    grid, every weight >= 1), mixed(keep) (0 off keep) and multiplicities()
    (unit vectors) share no point.
    """

    def __init__(
        self,
        parts,
        backend: str,
        trunc_level: int | None = None,
        ladder=None,
        order: int = 2,
    ) -> None:
        parts = [(w, list(fs)) for w, fs in parts]
        self.d = _common_dim([f for _, fs in parts for f in fs])
        counts = {len(fs) for _, fs in parts}
        if len(counts) != 1:
            raise ValueError("every part must carry the same number of filtrations")
        self.r = counts.pop()
        self.backend = backend
        self._mixed: dict[tuple[int, ...], MixedMultiplicityReport] = {}
        if backend == TRUNCATION_EXACT:
            self.parts, self._forms, notes = [], [], []
            for w, fs in parts:
                if trunc_level is not None:
                    fs = [truncate(f, trunc_level) for f in fs]
                elif not all(isinstance(f, TruncatedFiltration) for f in fs):
                    raise ValueError(
                        "truncation-exact backend requires truncated inputs or trunc_level"
                    )
                # every multiple of a period is one too
                s = math.lcm(*(noetherian_period(f) for f in fs))
                self.parts.append((w, fs, s))
                self._forms.append(_level_form(fs, s, self.d))
                bound = max(_NOTE_BOUND, min(f.a for f in fs))
                notes.append(f"exact along period {s}, certified for i <= {bound}")
            self.note = "; ".join(dict.fromkeys(notes))
        elif backend == DIRECT:
            self.parts = parts
            self.ladder = tuple(ladder) if ladder is not None else DEFAULT_LADDER
            self.order = order
        else:
            raise ValueError(f"unknown backend {backend!r}")

    def growth(self, n) -> LimitEstimate:
        """Limit of the weight-summed ell(R/product at m*n)/m^d."""
        n = _weights(n, self.r)
        if self.backend == TRUNCATION_EXACT:
            value = Fraction(0)
            for (w, _, s), form in zip(self.parts, self._forms):
                value += w * polytope._form_covolume(form, n, self.d) / s**self.d
            return LimitEstimate(
                value=value,
                lower_evidence=value,
                method=TRUNCATION_EXACT,
                error_note=self.note,
            )
        total = None
        for w, fs in self.parts:
            seq = [(m, w * v) for m, v in length_sequence(fs, n, self.ladder)]
            total = seq if total is None else [
                (m, acc + v) for (m, acc), (_, v) in zip(total, seq)
            ]
        return limit_estimate(total, self.order)

    def mixed(self, keep=None) -> MixedMultiplicityReport:
        """Fit the growth polynomial on the sample grid, value and lower
        evidence alike, and scale the coefficient of type t by prod(t_j!);
        memoized.  Over the filtrations at the indices in keep (all by
        default): each grid point of len(keep) filtrations is read with the
        others at level 0."""
        keep = tuple(range(self.r)) if keep is None else tuple(keep)
        if keep not in self._mixed:
            d, r = self.d, len(keep)
            grid = sample_grid(d, r)
            at = [dict(zip(keep, p)) for p in grid]
            ests = [self.growth([a.get(j, 0) for j in range(self.r)]) for a in at]
            values = fit_homogeneous(grid, [e.value for e in ests], d, r)
            lower = fit_homogeneous(grid, [e.lower_evidence for e in ests], d, r)
            note = "; ".join(dict.fromkeys(e.error_note for e in ests))
            coeffs = {
                t: LimitEstimate(
                    value=values[t] * _factorial_product(t),
                    lower_evidence=lower[t] * _factorial_product(t),
                    method=self.backend,
                    error_note=note,
                )
                for t in values
            }
            self._mixed[keep] = MixedMultiplicityReport(
                r=r, d=d, coeffs=coeffs, backend=self.backend
            )
        return self._mixed[keep]

    def multiplicities(self) -> tuple[LimitEstimate, ...]:
        """Multiplicity of each filtration: d! times the growth at its unit
        vector, with the ladder tail in the same units as the value."""
        k = math.factorial(self.d)
        out = []
        for j in range(self.r):
            est = self.growth(tuple(int(i == j) for i in range(self.r)))
            out.append(
                LimitEstimate(
                    value=est.value * k,
                    lower_evidence=est.lower_evidence * k,
                    method=est.method,
                    error_note=f"{est.error_note}; growth scaled by {self.d}!",
                    tail=tuple((m, v * k) for m, v in est.tail),
                )
            )
        return tuple(out)


def mixed_multiplicities(
    fs,
    backend: str = TRUNCATION_EXACT,
    trunc_level: int | None = None,
    ladder=None,
    order: int = 2,
) -> MixedMultiplicityReport:
    """Normalized coefficients of the growth polynomial, one per type vector.

    The exact backend certifies a common period for (truncations of) the
    inputs and evaluates growth by covolume; the direct backend estimates
    growth at each grid point from a ladder of colengths.  Either way the
    homogeneous polynomial is recovered by an exact linear solve and the
    coefficient of type t is scaled by prod(t_j!).
    """
    return _WeightedGrowth([(1, fs)], backend, trunc_level, ladder, order).mixed()


def multiplicity_estimate(
    f: Filtration,
    backend: str = DIRECT,
    ladder=None,
    trunc_level: int | None = None,
) -> LimitEstimate:
    """Multiplicity of a single filtration: d! times the growth limit."""
    return _WeightedGrowth([(1, [f])], backend, trunc_level, ladder).multiplicities()[0]


@dataclass(frozen=True)
class TruncationLadder:
    """Mixed multiplicities of successive truncations, with differences."""

    entries: tuple[tuple[int, MixedMultiplicityReport], ...]
    differences: dict[tuple[int, ...], tuple[Fraction, ...]]


def truncation_ladder(fs, levels) -> TruncationLadder:
    """Exact mixed multiplicities of the a-truncations for each a in levels.

    Successive differences per type vector are attached as convergence
    evidence; no rate is claimed.
    """
    steps = list(levels)
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError("truncation levels must be strictly increasing")
    entries = [(a, mixed_multiplicities(fs, TRUNCATION_EXACT, a)) for a in steps]
    diffs: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    if entries:
        for t in entries[0][1].coeffs:
            vals = [rep.coeffs[t].value for _, rep in entries]
            diffs[t] = tuple(b - a for a, b in zip(vals, vals[1:]))
    return TruncationLadder(entries=tuple(entries), differences=diffs)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PositivityReport:
    """Signs and vanishing structure of a mixed-multiplicity report.

    positive_indices lists the filtrations whose own multiplicity is
    positive, in their original order; the checks assert nonnegativity of
    everything, vanishing of coefficients weighting a zero-multiplicity
    filtration, and agreement plus positivity of the surviving
    coefficients against the reduced instance.
    """

    backend: str
    zero_threshold: Fraction
    single: tuple[tuple[int, Fraction, bool], ...]
    positive_indices: tuple[int, ...]
    report: MixedMultiplicityReport
    checks: tuple[Check, ...]
    ok: bool


def positivity_report(
    fs,
    backend: str = TRUNCATION_EXACT,
    trunc_level: int | None = None,
    ladder=None,
    zero_threshold: Fraction = DEFAULT_ZERO_THRESHOLD,
    order: int = 2,
) -> PositivityReport:
    growth = _WeightedGrowth([(1, fs)], backend, trunc_level, ladder, order)
    return _positivity(growth, zero_threshold)


def _positivity(growth: _WeightedGrowth, zero_threshold: Fraction) -> PositivityReport:
    """Positivity report of one pipeline's mixed multiplicities.

    The survivors are the types t whose every t_j > 0 has a filtration j of
    positive multiplicity.  On an analytically irreducible ring the
    coefficient of type t is positive iff t survives, and vanishes
    otherwise; the surviving coefficients are those of the reduced
    instance, the same growth read with the other filtrations at level 0
    (mixed(positives)), which is fitted only when some but not all indices
    are positive.  Exact values are compared with 0; ladder estimates
    within zero_threshold of a value count as equal to it."""
    tol = Fraction(0) if growth.backend == TRUNCATION_EXACT else zero_threshold
    report = growth.mixed()
    d, r = report.d, report.r
    values = {t: e.value for t, e in report.coeffs.items()}
    units = [values[tuple(d * (i == j) for i in range(r))] for j in range(r)]
    single = tuple((j, v, v > tol) for j, v in enumerate(units))
    positives = [j for j, _, pos in single if pos]
    survivors, touching = [], []
    for t, v in values.items():
        survives = all(j in positives for j, k in enumerate(t) if k)
        (survivors if survives else touching).append((t, v))
    mismatches = []
    if not positives:
        matched = positive = "no surviving indices"
    elif len(positives) == r:
        matched, positive = "all indices survive", "all coefficients positive"
    else:
        # Embedding a sub-type into the full type (zeros at the dropped
        # indices) keeps the reverse-lex order of type_vectors, so the
        # reduced coefficients pair with the survivors in order.
        sub = growth.mixed(positives).coeffs.values()
        mismatches = [
            (t, v, e.value)
            for (t, v), e in zip(survivors, sub, strict=True)
            if abs(v - e.value) > tol
        ]
        matched = f"{len(sub)} surviving coefficients equal the reduced instance"
        positive = "surviving coefficients positive"
    negative = [(t, v) for t, v in values.items() if v < -tol]
    nonzero = [(t, v) for t, v in touching if abs(v) > tol]
    weak = [(t, v) for t, v in survivors if v <= tol]
    vanish = f"{len(touching)} coefficients weight a zero-multiplicity filtration; all vanish"
    rules = (  # name, offending (type, values...), passing detail, failing template
        ("nonnegative", negative, "all coefficients >= 0", "negative at {}: {}"),
        ("vanishing-with-zero-weight", nonzero, vanish, "nonzero at {}: {}"),
        ("survivors-match-reduced", mismatches, matched, "mismatch at {}: {} vs {}"),
        ("survivors-positive", weak, positive, "not positive at {}: {}"),
    )
    checks = tuple(
        Check(name, not bad, template.format(*bad[0]) if bad else detail)
        for name, bad, detail, template in rules
    )
    return PositivityReport(
        backend=growth.backend,
        zero_threshold=zero_threshold,
        single=single,
        positive_indices=tuple(positives),
        report=report,
        checks=checks,
        ok=all(c.passed for c in checks),
    )
