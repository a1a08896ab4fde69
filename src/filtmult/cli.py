"""Command line interface: JSON job descriptions in, reports out.

Exit codes: 0 on success, 1 for input problems (bad config, bad flags),
2 when a verification check fails.  Reports are emitted with sorted keys
so two runs on the same job are byte-identical once the timestamp is
suppressed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import okounkov, serialize
from .components import (
    ComponentModel,
    _parts,
    component_mixed,
    component_multiplicities,
    two_branch_model,
)
from .filtration import check_submultiplicative
from .multiplicity import (
    DEFAULT_LADDER,
    DEFAULT_ZERO_THRESHOLD,
    DIRECT,
    TRUNCATION_EXACT,
    _positivity,
    _WeightedGrowth,
    product_ideal_at,
    truncation_ladder,
)

_PARAM_KEYS = {
    "levels",
    "backend",
    "ladder",
    "trunc_level",
    "truncation_levels",
    "order",
    "sigma",
    "tau",
    "cutoff",
    "tolerance",
    "zero_threshold",
    "submult_bound",
    "expected",
}

# Largest cutoff per ring dimension 1, 2, 3, 4; a larger dimension takes
# the last.  A body reads every level up to the cutoff, so its cost grows
# like cutoff^d.  At these caps `okounkov` on a pair of adic filtrations
# (2 to 5 generators each, sigma all ones) took under 2 s on a 2-core VM
# with Python 3.11.
_CUTOFF_CAPS = (16384, 1024, 32, 12)

# Deepest level a command may read, per ring dimension 1, 2, 3, 4, the last
# for larger ones: max(ladder) for `multiplicity`, (d+1)*max(ladder), the
# grid point (d+1, 1, ..., 1), for a mixed report, and the largest entry of
# a `colength` levels row or of a key of verify's expected colengths.  At
# these caps `mixed` on a pair of adic, fixed-plus-adic, truncated or
# rounded-valuation filtrations took under 2 s on a 2-core VM with Python
# 3.11, and `colength` on plane_pair.json at [[8192, 8192]] took 0.3 s.
_LADDER_CAPS = (524288, 8192, 64, 20)

# Largest submult_bound per ring dimension 1, 2, 3, 4, the last for larger
# ones: verify multiplies each pair of levels i + j <= bound, per filtration.
# At these caps one adic filtration (1 to 5 generators) or rounded valuation
# took under 1.5 s on a 2-core VM with Python 3.11.
_SUBMULT_CAPS = (512, 32, 16, 8)

# Expected-value sections and the keys each one takes.
_EXPECTED_KEYS = {
    "coefficients": "{r} comma-separated nonnegative integers summing to {d}",
    "colength": "{r} comma-separated nonnegative integers",
    "multiplicity": "a filtration index in [0, {r})",
}


class CliError(Exception):
    """Input problem; rendered to stderr and mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """A bad command line is an input problem: exit 1, not argparse's 2."""

    def error(self, message):
        raise CliError(message)


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CliError("config must be a JSON object")
    return obj


def _is_int(value) -> bool:
    """serialize.parse_int's rule: a JSON integer, never a bool."""
    try:
        serialize.parse_int(value)
    except ValueError:
        return False
    return True


def _expected_key_ok(section: str, key: str, r: int, d: int) -> bool:
    """Whether an expected-table key names a value of the model, read with
    serialize.parse_type_key as the verify checks read it."""
    try:
        t = serialize.parse_type_key(key)
    except ValueError:
        return False
    if section == "multiplicity":
        return len(t) == 1 and t[0] < r
    return len(t) == r and (section == "colength" or sum(t) == d)


def validate(
    config: dict, model: ComponentModel | None = None
) -> tuple[ComponentModel | None, list[str]]:
    """The config's model, parsed once (None if it cannot be), or the given
    model in its place, and the configuration problems, collected without
    running anything."""
    problems = []
    unknown = set(config) - {"model", "params"}
    if unknown:
        problems.append(f"unknown config keys: {sorted(unknown)}")
    if model is None:
        if "model" not in config:
            problems.append("config needs a model")
            return None, problems
        try:
            model = serialize.model_from_json(config["model"])
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"bad model: {exc}")
            return None, problems
    params = config.get("params", {})
    if not isinstance(params, dict):
        problems.append("params must be an object")
        return model, problems
    unknown = set(params) - _PARAM_KEYS
    if unknown:
        problems.append(f"unknown params: {sorted(unknown)}")
    r = model.r

    def is_row(v):
        """A list of r integers: sigma, tau and each levels row."""
        return isinstance(v, list) and len(v) == r and all(_is_int(c) for c in v)

    def is_ladder(v, shortest):
        """Strictly increasing positive integers: ladder, truncation_levels."""
        return (
            isinstance(v, list)
            and len(v) >= shortest
            and all(_is_int(c) and c > 0 for c in v)
            and all(a < b for a, b in zip(v, v[1:]))
        )

    for key in ("sigma", "tau"):
        if key in params and not is_row(params[key]):
            problems.append(f"{key} must be a list of {r} integers")
        elif key in params and any(c < 0 for c in params[key]):
            problems.append(f"{key} entries must be nonnegative")
    if "levels" in params:
        rows = params["levels"]
        if not isinstance(rows, list) or not rows:
            problems.append("levels must be a nonempty list of level vectors")
        else:
            bad = [row for row in rows if not is_row(row) or any(c < 0 for c in row)]
            if bad:
                problems.append(f"levels row must be {r} nonnegative integers: {bad[0]!r}")
    if "ladder" in params and not is_ladder(params["ladder"], 3):
        problems.append("ladder must be a strictly increasing list of >= 3 positive integers")
    if "truncation_levels" in params and not is_ladder(params["truncation_levels"], 1):
        problems.append("truncation_levels must be strictly increasing positive integers")
    for key in ("trunc_level", "cutoff", "submult_bound"):
        if key in params and (not _is_int(params[key]) or params[key] < 1):
            problems.append(f"{key} must be a positive integer")
    if "order" in params and (not _is_int(params["order"]) or params["order"] < 2):
        problems.append("order must be an integer of at least 2")
    if "backend" in params and params["backend"] not in (DIRECT, TRUNCATION_EXACT):
        problems.append(f"backend must be {DIRECT!r} or {TRUNCATION_EXACT!r}")
    for key in ("tolerance", "zero_threshold"):
        if key in params:
            try:
                if serialize.parse_frac(params[key]) <= 0:
                    problems.append(f"{key} must be positive")
            except ValueError as exc:
                problems.append(str(exc))
    if "expected" in params:
        exp = params["expected"]
        if not isinstance(exp, dict):
            problems.append("expected must be an object")
        else:
            for section, table in exp.items():
                if section not in _EXPECTED_KEYS:
                    problems.append(f"unknown expected section: {section!r}")
                    continue
                if not isinstance(table, dict):
                    problems.append(f"expected {section} must be an object")
                    continue
                for k, v in table.items():
                    if not _expected_key_ok(section, k, r, model.dim):
                        shape = _EXPECTED_KEYS[section].format(r=r, d=model.dim)
                        problems.append(f"expected {section} key must be {shape}: {k!r}")
                    try:
                        serialize.parse_frac(v)
                    except ValueError:
                        problems.append(f"expected {section}[{k}] is not a rational: {v!r}")
    return model, problems


def _knobs(model: ComponentModel, params: dict, command: str) -> dict:
    """Every knob as command reads it, for a config validate passed: the
    given value, else its default, written nowhere else; None for `order`
    off the direct backend and `cutoff` where no body is built, unless
    given.  `single` holds the filtrations of a one-component, weight-1 model."""
    r, get, comp = model.r, params.get, model.components[0]
    single = list(comp.filtrations) if len(model.components) == comp.weight == 1 else None
    backend = get("backend", DIRECT)
    e1 = [int(j == 0) for j in range(r)]
    body = command == "okounkov" or (command == "verify" and single is not None)
    return {
        "single": single,
        "backend": backend,
        "ladder": tuple(get("ladder", DEFAULT_LADDER)),
        "order": get("order", 2 if backend == DIRECT else None),
        "trunc_level": get("trunc_level"),
        "truncation_levels": get("truncation_levels"),
        "levels": get("levels", [[1] * r]),
        "sigma": tuple(get("sigma", [1] * r if command == "okounkov" else e1)),
        "tau": tuple(get("tau", [1 - c for c in e1])),
        # verify's Minkowski check builds a summed body at twice the cutoff
        "cutoff": get("cutoff", 8 if command == "verify" and r >= 2 else 16) if body else None,
        "submult_bound": get("submult_bound", 8),
        "tolerance": serialize.parse_frac(get("tolerance", "1/100")),
        "zero_threshold": serialize.parse_frac(get("zero_threshold", str(DEFAULT_ZERO_THRESHOLD))),
        "expected": get("expected", {}),
    }


def _knob_problems(model: ComponentModel, k: dict, command: str) -> list[str]:
    """The rules on command's resolved knobs, defaults included: the model
    shape a body or truncation ladder needs, no knob the backend never
    reads, and the caps on ladder and level depth, body level and
    submult_bound."""
    d, problems = model.dim, []
    # dimensions past a table take its last entry
    ladder_cap, cutoff_cap, submult_cap = (
        caps[min(d, len(caps)) - 1] for caps in (_LADDER_CAPS, _CUTOFF_CAPS, _SUBMULT_CAPS)
    )
    single = k["single"] is not None
    if not single and command == "okounkov":
        problems.append("semigroup bodies need a single component of weight 1")
    if not single and k["truncation_levels"] is not None:
        problems.append("truncation ladders need a single component of weight 1")
    # a knob the backend never reads would silently do nothing
    for key, unread_by in (("trunc_level", DIRECT), ("order", TRUNCATION_EXACT)):
        if k[key] is not None and k["backend"] == unread_by:
            problems.append(f"{key} is not read by the {unread_by!r} backend")
    ladder = list(k["ladder"])
    if k["backend"] == DIRECT:
        # from order 3 on, the direct fit interpolates through that many last rungs
        if k["order"] > len(ladder):
            problems.append(f"order {k['order']} exceeds the {len(ladder)} ladder rungs")
        reach = {"multiplicity": 1, "mixed": d + 1, "verify": d + 1, "example1": d + 1}
        depth = reach.get(command, 0) * max(ladder)
    else:  # only verify's volume identity reads a ladder on the exact backend
        depth = max(ladder) if command == "verify" and single and model.r == 1 else 0
    if depth > ladder_cap:
        problems.append(
            f"ladder {ladder} reads level {depth} for {command}, above the cap {ladder_cap}"
            f" in dimension {d}"
        )
    # a colength row reads its product ideal at the row's deepest level, as a rung does
    if command == "colength":
        rows = [(f"levels row {row}", row) for row in k["levels"]]
    elif command == "verify":
        keys = k["expected"].get("colength", {})
        rows = [(f"expected colength key {key!r}", serialize.parse_type_key(key)) for key in keys]
    else:
        rows = []
    for name, row in rows:
        if max(row) > ladder_cap:
            problems.append(
                f"{name} reads level {max(row)}, above the cap {ladder_cap} in dimension {d}"
            )
            break
    cutoff, summed = k["cutoff"], command == "verify" and model.r >= 2
    if cutoff is not None and (2 * cutoff if summed else cutoff) > cutoff_cap:
        what = f"builds verify's summed body at level {2 * cutoff}, above" if summed else "exceeds"
        problems.append(f"cutoff {cutoff} {what} the cap {cutoff_cap} in dimension {d}")
    bound = k["submult_bound"]
    if command == "verify" and bound > submult_cap:
        problems.append(f"submult_bound {bound} exceeds the cap {submult_cap} in dimension {d}")
    return problems


def _backend_args(k: dict) -> dict:
    return {key: k[key] for key in ("backend", "trunc_level", "ladder", "order")}


def _colengths(model: ComponentModel, levels) -> list[int]:
    """Each component's weighted colength of its product ideal at levels."""
    return [
        comp.weight * product_ideal_at(comp.filtrations, levels).colength()
        for comp in model.components
    ]


def run_colength(model: ComponentModel, k: dict):
    rows = []
    for levels in k["levels"]:
        per = _colengths(model, levels)
        rows.append(
            {"levels": list(levels), "per_component": per, "colength": sum(per)}
        )
    payload = {"kind": "colength", "rows": rows}
    return payload, serialize._csv(
        ["levels", "colength"],
        ([" ".join(map(str, r["levels"])), r["colength"]] for r in rows),
    )


def run_multiplicity(model: ComponentModel, k: dict):
    ests = component_multiplicities(model, **_backend_args(k))
    per = [
        {"index": j, "multiplicity": serialize.estimate_to_json(est)}
        for j, est in enumerate(ests)
    ]
    payload = {"kind": "multiplicity", "per_filtration": per}
    return payload, serialize._csv(
        ["index", "multiplicity"],
        ([j, serialize.frac_str(est.value)] for j, est in enumerate(ests)),
    )


def run_mixed(model: ComponentModel, k: dict):
    entries, tl = {}, None
    if k["truncation_levels"] is not None:
        tl = truncation_ladder(k["single"], k["truncation_levels"])
        if k["backend"] == TRUNCATION_EXACT:
            entries = dict(tl.entries)  # the model's own report may be one of them
    rep = entries.get(k["trunc_level"]) or component_mixed(model, **_backend_args(k))
    payload = {"kind": "mixed", "mixed": serialize.mixed_report_to_json(rep)}
    if tl is None:
        return payload, serialize._csv(
            ["type", "value"],
            (
                [" ".join(map(str, t)), serialize.frac_str(rep.coeffs[t].value)]
                for t in sorted(rep.coeffs, reverse=True)
            ),
        )
    payload["ladder"] = serialize.ladder_to_json(tl)
    return payload, serialize.ladder_to_csv(tl)


def run_okounkov(model: ComponentModel, k: dict):
    fs, sigma = k["single"], k["sigma"]
    bound = okounkov.degree_bound(fs, sigma)
    sem = okounkov.value_semigroup(fs, sigma, bound, k["cutoff"])
    b = okounkov.body(sem)
    payload = {
        "kind": "okounkov",
        "degree_bound": bound,
        "body": serialize.body_to_json(b),
    }
    return payload, serialize.body_to_csv(b)


def run_verify(model: ComponentModel, k: dict):
    """Run the model's verification checks in order; each returns (passed,
    detail, report or None), and a check that raises fails on its own."""
    entries = []
    failed = []

    def check(name, fn, *args):
        try:
            ok, detail, extra = fn(*args)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail, extra = False, f"check raised {type(exc).__name__}: {exc}", None
        entry = {"name": name, "passed": ok, "detail": detail}
        if extra is not None:
            entry["report"] = extra
        entries.append(entry)
        if not ok:
            failed.append(name)

    fs = k["single"]
    # One growth pipeline for every check that reads it, built on first use;
    # a failed setup is not cached, so each of those checks fails on its own.
    pipeline = functools.cache(lambda: _WeightedGrowth(_parts(model), **_backend_args(k)))
    mults = functools.cache(lambda: pipeline().multiplicities())

    def submult(f):
        rep = check_submultiplicative(f, k["submult_bound"])
        detail = (
            f"levels multiply into deeper levels through {rep.bound}"
            if rep.ok
            else f"violated at {rep.first_violation}"
        )
        return rep.ok, detail, serialize.report_to_json(rep)

    for ci, comp in enumerate(model.components):
        for j, f in enumerate(comp.filtrations):
            check(f"submultiplicative[c{ci}.f{j}]", submult, f)

    def positivity():
        if fs is not None:
            rep = _positivity(pipeline(), k["zero_threshold"])
            failing = [c.name for c in rep.checks if not c.passed]
            detail = "all sign checks hold" if rep.ok else f"failing: {failing}"
            return rep.ok, detail, serialize.positivity_report_to_json(rep)
        rep = pipeline().mixed()
        bad = [t for t, est in rep.coeffs.items() if est.value < 0]
        return (
            not bad,
            "all coefficients nonnegative" if not bad else f"negative at {bad[0]}",
            serialize.mixed_report_to_json(rep),
        )

    check("positivity", positivity)

    cutoff = k["cutoff"]
    if fs is not None and model.r == 1:
        # One value semigroup for both checks that read it, built on first use.
        semigroup = functools.cache(
            lambda: okounkov.value_semigroup(fs, (1,), okounkov.degree_bound(fs, (1,)), cutoff)
        )

        def identity():
            rep = okounkov._volume_identity(fs[0], semigroup(), k["ladder"])
            tol = max(Fraction(1, 100), Fraction(4, cutoff))
            ok = rep.discrepancy <= tol
            detail = f"discrepancy {serialize.frac_str(rep.discrepancy)} vs tolerance {tol}"
            return ok, detail, serialize.report_to_json(rep)

        check("volume-identity", identity)

        def collapse():
            rep = okounkov._origin_collapse(fs[0], semigroup(), Fraction(1, 8))
            ok = (not rep.triggered) or bool(rep.gap_decreasing)
            detail = (
                "no quotient point near the origin"
                if not rep.triggered
                else f"gap {rep.gap_at_half} -> {rep.gap_at_full}"
            )
            return ok, detail, serialize.origin_collapse_to_json(rep)

        check("origin-collapse", collapse)

    if fs is not None and model.r >= 2:

        def minkowski():
            rep = okounkov.minkowski_checks(fs, k["sigma"], k["tau"], cutoff)
            ok = rep.containment_pass and rep.volume_agreement is not False
            detail = (
                f"{rep.contained_vertices} sum-body vertices contained"
                if ok
                else "unresolved vertices or volume disagreement"
            )
            return ok, detail, serialize.report_to_json(rep)

        check("minkowski", minkowski)

    fit_tol = Fraction(0) if k["backend"] == TRUNCATION_EXACT else k["tolerance"]

    def expect(table, lookup, tol, label, noun):
        for key, want in sorted(table.items()):
            got = lookup(key)
            if abs(got - serialize.parse_frac(want)) > tol:
                return (
                    False,
                    f"{label.format(key)}: got {serialize.frac_str(got)}, expected {want}",
                    None,
                )
        return True, f"{len(table)} expected {noun} match", None

    def coefficient(key):
        return pipeline().mixed().coeffs[serialize.parse_type_key(key)].value

    def colength(key):
        return sum(_colengths(model, serialize.parse_type_key(key)))

    def multiplicity(key):
        (j,) = serialize.parse_type_key(key)
        return mults()[j].value

    rows = (  # section, value at a key, tolerance, label of a key, plural noun
        ("coefficients", coefficient, fit_tol, "coefficient {}", "coefficients"),
        ("colength", colength, 0, "colength at [{}]", "colengths"),
        ("multiplicity", multiplicity, fit_tol, "multiplicity[{}]", "multiplicities"),
    )
    for section, lookup, tol, label, noun in rows:
        if section in k["expected"]:
            check(f"expected-{section}", expect, k["expected"][section], lookup, tol, label, noun)

    payload = {"kind": "verify", "checks": entries, "failed": failed, "ok": not failed}
    return payload, None


def run_example1(model: ComponentModel, k: dict):
    pipeline = _WeightedGrowth(_parts(model), **_backend_args(k))
    rep = pipeline.mixed()
    coeffs = {
        ",".join(map(str, t)): serialize.frac_str(est.value)
        for t, est in rep.coeffs.items()
    }
    growth = {
        label: serialize.frac_str(pipeline.growth(n).value)
        for label, n in (("1,0", (1, 0)), ("0,1", (0, 1)), ("1,1", (1, 1)))
    }
    closed_form_ok = all(
        product_ideal_at(model.components[0].filtrations, (n, n)).colength()
        == (n + 1) * (n + 2) // 2 + (n - 1)
        for n in range(1, 17)
    )
    payload = {
        "kind": "example1",
        "mixed": serialize.mixed_report_to_json(rep),
        "coefficients": coeffs,
        "growth": growth,
        "diagonal_length_closed_form_holds": closed_form_ok,
    }
    return payload, None


def _emit(payload, csv_text, ns, command):
    if ns.format == "csv":
        if csv_text is None:
            raise CliError(f"{command} has no csv form")
        text = csv_text
    else:
        envelope = {"schema_version": serialize.SCHEMA_VERSION, "command": command}
        if not ns.no_timestamp:
            envelope["generated_at"] = datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            )
        envelope.update(payload)
        text = json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    runners = {
        "colength": run_colength,
        "multiplicity": run_multiplicity,
        "mixed": run_mixed,
        "okounkov": run_okounkov,
        "verify": run_verify,
        "example1": run_example1,
    }
    parser = _Parser(
        prog="filtmult",
        description="Exact multiplicities and convex bodies of monomial ideal filtrations.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="""commands:
  colength      lengths of quotient rings at requested levels
  multiplicity  multiplicity of each filtration in the model
  mixed         mixed multiplicities, optionally along a truncation ladder
  okounkov      semigroup body of the model at a sigma vector
  verify        run the model's verification checks
  example1      built-in two-component worked example""",
    )
    parser.add_argument(
        "command", choices=runners, metavar="command", help="one of the commands below"
    )
    parser.add_argument("--config", help="path to a JSON job description")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the generation time for byte-stable output",
    )
    try:
        ns = parser.parse_args(argv)
        if not ns.config and ns.command != "example1":
            raise CliError(f"{ns.command} requires --config")
        config = load_config(ns.config) if ns.config else {}
        # example1's built-in model replaces any given one; params are checked against it
        builtin = two_branch_model() if ns.command == "example1" else None
        model, problems = validate(config, builtin)
        if not problems:
            knobs = _knobs(model, config.get("params", {}), ns.command)
            problems = _knob_problems(model, knobs, ns.command)
        if problems:
            for p in problems:
                print(f"config error: {p}", file=sys.stderr)
            return 1
        payload, csv_text = runners[ns.command](model, knobs)
        _emit(payload, csv_text, ns, ns.command)
        failed = payload.get("failed", [])
        for name in failed:
            print(f"verify failed: {name}", file=sys.stderr)
        return 2 if failed else 0
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
