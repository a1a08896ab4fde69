"""Workload generators, item runners and output checks.

Every workload is a sequence of passes; a pass is a list of items and an
item is one top-level call into the package.  Inputs are plain data (lists
of exponent tuples, scales, argv lists) drawn from the seed, so the package
receives only generated inputs, and each item builds its filtrations afresh
so no level memo carries over from one item to the next.

Why these workloads (self-time shares from the traced run at the commit
that introduced this benchmark, bench/BASELINE.json):

* ladder: direct-backend mixed multiplicities of random adic bases plus a
  degenerate factor (the recipe of acceptance test 6).  Ideal product and
  minimalization take about 90% of the time and colength 8%; nothing is
  certified and no geometry runs.  A faster product or staircase kernel
  must move it.
* exact: truncation-exact mixed multiplicities of dim-3 pairs and a dim-4
  multiplicity.  The dim-3 items are 90% orthant extreme points and exact
  LP; the dim-4 item is almost all minimalization inside the period
  certificate's level products.  It moves with geometry and with
  certification, and not with colength.
* bodies: volume-identity reports of four filtration kinds over a range of
  cutoffs, plus one Minkowski check.  Hull takes about 70%, and it takes
  many shallow level products where ladder takes few deep ones.
* cli: every command on every shipped config, plus example1, in process.
  The only workload that runs serialize, components and cli.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

# Passes generated up front; a run that outlasts them starts again at 0.
MAX_PASSES = 64

# ladder and exact draw one pass of instances once, from this fixed
# catalogue seed, and every pass repeats it.  Each instance is run with its
# variables permuted (in all of its ideals at once): --seed picks where in
# the list of permutations each instance starts, and pass p takes the p-th
# one after that, so a run sees every instance under nearly every
# permutation whatever the seed.  --seed also shuffles the order of each
# pass.  Multiplicities do not change under a permutation of the variables,
# so every seed and pass has the same answers and every output is checked
# against the recorded table, while the work itself (sort orders, slicing
# axis, pivot order) differs; it can cost twice as much under one
# permutation as under another.  Drawing fresh instances per seed or per
# pass made the pass time differ by about 15%, which is more than the
# bounds can absorb.
CATALOGUE = "catalogue"


@dataclass
class Item:
    tag: str  # item kind, used to split the traced run
    key: str  # names the item across passes: golden-table key, groups its repeats
    run: Callable  # run(fm) -> output
    check: Callable  # check(output) -> (list of problems, canonical text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _canon_coeffs(coeffs) -> str:
    return ";".join(f"{','.join(map(str, t))}={v}" for t, v in sorted(coeffs.items()))


def _rng(*parts) -> random.Random:
    return random.Random(":".join(map(str, parts)))


def _permute(gens, perm):
    return [tuple(g[i] for i in perm) for g in gens]


def _perm_cycles(rng, dims):
    """For each dimension in dims, a function from pass index to permutation."""
    out = []
    for d in dims:
        perms = list(itertools.permutations(range(d)))
        start = rng.randrange(len(perms))
        out.append(lambda p, perms=perms, start=start: perms[(start + p) % len(perms)])
    return out


# -- ladder ------------------------------------------------------------------

LADDERS = {1: ((8, 16, 32), 2), 2: ((16, 32, 64), 3), 3: ((6, 8, 10, 12), 4)}

# (dim, filtration count, instances).  The cheap dim-1 items are about two
# thirds of a pass, so a run holds the hundred items the 90th percentile
# needs to have ten beyond it; the median falls inside the largest dim-1
# group rather than between two groups.
LADDER_STRATA = ((1, 1, 4), (1, 2, 4), (1, 3, 7), (2, 1, 4), (2, 2, 2), (2, 3, 1), (3, 1, 1))


def _random_primary(rng, dim, cap):
    """Pure powers on every axis plus up to two random generators."""
    gens = []
    for ax in range(dim):
        e = [0] * dim
        e[ax] = rng.randint(1, cap)
        gens.append(tuple(e))
    for _ in range(rng.randint(0, 2)):
        gens.append(tuple(rng.randint(0, cap) for _ in range(dim)))
    if any(not any(g) for g in gens):  # a zero exponent would give the unit ideal
        gens = [tuple(2 if i == ax else 0 for i in range(dim)) for ax in range(dim)]
    return gens


def _ladder_instance(rng, d, r):
    cap = 3 if d <= 2 else 2
    bases = []
    for _ in range(r):
        gens = _random_primary(rng, d, cap)
        trunc = rng.randint(1, 3) if rng.random() < 0.4 else None
        bases.append((gens, trunc))
    return d, bases


def _run_ladder(d, bases, perm):
    lad, order = LADDERS[d]

    def run(fm):
        fs = []
        for gens, trunc in bases:
            f = fm.adic(fm.ideal(d, _permute(gens, perm)))
            fs.append(fm.truncate(f, trunc) if trunc else f)
        fixed = fm.ideal(d, _permute([tuple(2 if i == 0 else 0 for i in range(d))], perm))
        fs.append(fm.fixed_plus_adic(fixed, fm.maximal_ideal(d)))
        rep = fm.mixed_multiplicities(fs, backend=fm.DIRECT, ladder=lad, order=order)
        return {t: e.value for t, e in rep.coeffs.items()}

    return run


def _check_ladder(coeffs):
    problems = []
    for t, v in coeffs.items():
        if t[-1] > 0 and abs(v) > Fraction(1, 100):
            problems.append(f"coefficient {t} weights the degenerate factor but is {v}")
        if t[-1] == 0 and v <= 0:
            problems.append(f"surviving coefficient {t} is not positive: {v}")
    return problems, _canon_coeffs(coeffs)


def ladder_passes(seed):
    cat = _rng("ladder", CATALOGUE)
    catalogue = [_ladder_instance(cat, d, r) for d, r, count in LADDER_STRATA for _ in range(count)]
    perms = _perm_cycles(_rng("ladder", seed), [d for d, _ in catalogue])
    passes = []
    for p in range(MAX_PASSES):
        rng = _rng("ladder", seed, p)
        items = [
            Item(f"d{d}", str(k), _run_ladder(d, bases, perm(p)), _check_ladder)
            for k, ((d, bases), perm) in enumerate(zip(catalogue, perms))
        ]
        rng.shuffle(items)
        passes.append(items)
    return passes


# -- exact -------------------------------------------------------------------

# Four dim-3 pairs and one dim-4 item per pass: a short pass, so that each
# item repeats several times in a run.  The dim-4 item takes about two
# thirds of a pass and is its 90th percentile; a run has too few items for
# ten samples beyond it.
EXACT_PAIRS = 4


def _exact_ideal(rng, dim):
    """Pure powers 1..2 on every axis and one 0/1 generator inside the box.

    Larger exponents gave a heavy-tailed cost, and the times of a few
    items then decided the pass time."""
    gens = []
    for ax in range(dim):
        e = [0] * dim
        e[ax] = rng.randint(1, 2)
        gens.append(tuple(e))
    inner = tuple(rng.randint(0, 1) for _ in range(dim))
    if any(inner):
        gens.append(inner)
    return gens


def _run_exact_pair(gi, gj, perm):
    def run(fm):
        fs = [fm.adic(fm.ideal(3, _permute(gi, perm))), fm.adic(fm.ideal(3, _permute(gj, perm)))]
        rep = fm.mixed_multiplicities(fs, backend=fm.TRUNCATION_EXACT, trunc_level=1)
        return {t: e.value for t, e in rep.coeffs.items()}

    return run


def _check_exact_pair(coeffs):
    problems = [f"coefficient {t} = {v} is not a positive integer"
                for t, v in coeffs.items() if v <= 0 or v.denominator != 1]
    # Teissier: e_i^2 <= e_{i-1} e_{i+1} along e_i = e(I^[3-i], J^[i]).
    e = [coeffs.get((3 - i, i), Fraction(0)) for i in range(4)]
    for i in (1, 2):
        if e[i] * e[i] > e[i - 1] * e[i + 1]:
            problems.append(f"Teissier inequality fails at i={i}: {e}")
    return problems, _canon_coeffs(coeffs)


def _run_exact_dim4(pure):
    gens = [tuple(pure[i] if i == ax else 0 for i in range(4)) for ax in range(4)]

    def run(fm):
        est = fm.multiplicity_estimate(
            fm.adic(fm.ideal(4, gens)), backend=fm.TRUNCATION_EXACT, trunc_level=1
        )
        return est.value

    def check(value):
        want = pure[0] * pure[1] * pure[2] * pure[3]
        problems = [] if value == want else [f"dim-4 multiplicity {value}, expected {want}"]
        return problems, str(value)

    return run, check


def exact_passes(seed):
    cat = _rng("exact", CATALOGUE)
    pairs = [(_exact_ideal(cat, 3), _exact_ideal(cat, 3)) for _ in range(EXACT_PAIRS)]
    perms = _perm_cycles(_rng("exact", seed), [3] * len(pairs))
    # The multiplicity of (x^2, y^2, z^2, w^2) is 16.  The cost is set by
    # the check_bound=16 level products in dim 4; with unequal exponents it
    # would differ by up to 30% between permutations.
    run4, check4 = _run_exact_dim4((2, 2, 2, 2))
    passes = []
    for p in range(MAX_PASSES):
        rng = _rng("exact", seed, p)
        items = [
            Item("d3", str(k), _run_exact_pair(gi, gj, perm(p)), _check_exact_pair)
            for k, ((gi, gj), perm) in enumerate(zip(pairs, perms))
        ]
        items.append(Item("d4", "dim4", run4, check4))
        rng.shuffle(items)
        passes.append(items)
    return passes


# -- bodies ------------------------------------------------------------------

# Cutoffs stop at 96: at 128 the four reports alone took about 4 s, and a
# pass must be short enough that a run repeats every item several times.
BODY_CUTOFFS = (16, 20, 24, 32, 40, 48, 64, 96)
# Scales sqrt(p) whose reports cost about the same; sqrt(2) and sqrt(3)
# were about half as costly at the largest cutoff.
SURDS = (5, 6, 7, 10, 11, 13)


def _body_filtration(fm, kind, p):
    if kind == "maximal":
        return fm.adic(fm.maximal_ideal(2))
    if kind == "parabola":
        return fm.adic(fm.ideal(2, [(2, 0), (0, 1)]))
    if kind == "surd":
        return fm.rounded_valuation((1,), fm.root_scale(p))
    return fm.fixed_plus_adic(fm.ideal(2, [(1, 0)]), fm.maximal_ideal(2))


def _identity_item(kind, cutoff, p):
    def run(fm):
        rep = fm.volume_identity_report(_body_filtration(fm, kind, p), cutoff)
        return rep.hat_volume, rep.body_volume, rep.discrepancy, rep.limit.value

    def check(out):
        hat, body, disc, limit = out
        problems = []
        if not 0 <= body <= hat:
            problems.append(f"body volume {body} outside [0, {hat}]")
        if disc > max(Fraction(1, 100), Fraction(4, cutoff)):
            problems.append(f"volume identity discrepancy {disc} at cutoff {cutoff}")
        return problems, f"{hat} {body} {disc} {limit}"

    key = f"{kind}:{cutoff}" + (f":{p}" if kind == "surd" else "")
    return Item("identity", key, run, check)


def _minkowski_item(cutoff=16):
    def run(fm):
        pair = [_body_filtration(fm, "maximal", 0), _body_filtration(fm, "parabola", 0)]
        rep = fm.minkowski_checks(pair, (1, 0), (0, 1), cutoff)
        return rep.containment_pass, rep.volume_agreement, rep.contained_vertices

    def check(out):
        passed, agreement, contained = out
        problems = [] if passed and agreement is not False else [f"minkowski check failed: {out}"]
        return problems, f"{passed} {agreement} {contained}"

    return Item("minkowski", "minkowski", run, check)


def bodies_passes(seed):
    surd = _rng("bodies", seed).choice(SURDS)
    passes = []
    for p in range(MAX_PASSES):
        rng = _rng("bodies", seed, p)
        items = [
            _identity_item(kind, cutoff, surd)
            for kind in ("maximal", "parabola", "surd", "line")
            for cutoff in BODY_CUTOFFS
        ]
        items.append(_minkowski_item())
        rng.shuffle(items)
        passes.append(items)
    return passes


# -- cli ---------------------------------------------------------------------

CLI_COMMANDS = ("colength", "multiplicity", "mixed", "okounkov", "verify")


def cli_argvs():
    """(key, argv) for every command on every shipped config, plus example1."""
    configs = sorted(CONFIG_DIR.glob("*.json"))
    if not configs:
        raise FileNotFoundError(f"no shipped configs under {CONFIG_DIR}")
    argvs = []
    for path in configs:
        json.loads(path.read_text(encoding="utf-8"))  # fail early on a broken config
        for cmd in CLI_COMMANDS:
            argvs.append((f"{cmd} {path.name}", [cmd, "--config", str(path), "--no-timestamp"]))
    argvs.append(("example1", ["example1", "--no-timestamp"]))
    return argvs


def _cli_item(key, argv):
    def run(fm):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = fm.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(res):
        code, out, err = res
        problems = [] if code == 0 else [f"exit {code}: {err.strip()}"]
        return problems, out

    return Item(argv[0], key, run, check)


def cli_passes(seed):
    argvs = cli_argvs()
    passes = []
    for p in range(MAX_PASSES):
        order = list(argvs)
        _rng("cli", seed, p).shuffle(order)
        passes.append([_cli_item(key, argv) for key, argv in order])
    return passes


WORKLOADS = {
    "ladder": ladder_passes,
    "exact": exact_passes,
    "bodies": bodies_passes,
    "cli": cli_passes,
}

