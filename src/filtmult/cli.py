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

# Deepest level a ladder may read, per ring dimension 1, 2, 3, 4, the last
# for larger ones: max(ladder) for `multiplicity`, and (d+1)*max(ladder),
# the grid point (d+1, 1, ..., 1), for a mixed report.  At these caps `mixed`
# on a pair of adic, fixed-plus-adic, truncated or rounded-valuation
# filtrations took under 2 s on a 2-core VM with Python 3.11.
_LADDER_CAPS = (524288, 8192, 64, 20)

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


def validate(config: dict) -> tuple[ComponentModel | None, list[str]]:
    """The config's model, parsed once (None if it cannot be), and the
    configuration problems, collected without running anything."""
    problems = []
    unknown = set(config) - {"model", "params"}
    if unknown:
        problems.append(f"unknown config keys: {sorted(unknown)}")
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
        if params.get(key) is None:
            continue
        if not is_row(params[key]):
            problems.append(f"{key} must be a list of {r} integers")
        elif any(c < 0 for c in params[key]):
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
    if "truncation_levels" in params:
        if not is_ladder(params["truncation_levels"], 1):
            problems.append("truncation_levels must be strictly increasing positive integers")
        if _single_component(model) is None:
            problems.append("truncation ladders need a single component of weight 1")
    for key in ("trunc_level", "cutoff", "submult_bound"):
        if key in params and (not _is_int(params[key]) or params[key] < 1):
            problems.append(f"{key} must be a positive integer")
    cap = _CUTOFF_CAPS[min(model.dim, len(_CUTOFF_CAPS)) - 1]
    if _is_int(params.get("cutoff")) and params["cutoff"] > cap:
        problems.append(f"cutoff {params['cutoff']} exceeds the cap {cap} in dimension {model.dim}")
    if "order" in params and (not _is_int(params["order"]) or params["order"] < 2):
        problems.append("order must be an integer of at least 2")
    elif params.get("backend", DIRECT) == DIRECT and "order" in params:
        # the direct fit at order k >= 3 interpolates through the last k rungs
        lad = params.get("ladder", DEFAULT_LADDER)
        rungs = len(lad) if isinstance(lad, list) else len(DEFAULT_LADDER)
        if params["order"] > rungs:
            problems.append(f"order {params['order']} exceeds the {rungs} ladder rungs")
    if "backend" in params and params["backend"] not in (DIRECT, TRUNCATION_EXACT):
        problems.append(f"backend must be {DIRECT!r} or {TRUNCATION_EXACT!r}")
    # a knob the backend never reads would silently do nothing
    backend = params.get("backend", DIRECT)
    for key, unread_by in (("trunc_level", DIRECT), ("order", TRUNCATION_EXACT)):
        if key in params and backend == unread_by:
            problems.append(f"{key} is not read by the {backend!r} backend")
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


def _command_problems(model: ComponentModel, params: dict, command: str) -> list[str]:
    """The size rules that depend on the command, for a config validate
    passed: the deepest level a ladder reads (on the exact backend only
    verify's volume identity reads one), and the level of the summed body
    of verify's Minkowski check."""
    d, problems = model.dim, []
    ladder = params.get("ladder", list(DEFAULT_LADDER))
    single = _single_component(model) is not None
    if params.get("backend", DIRECT) == DIRECT:
        reach = {"multiplicity": 1, "mixed": d + 1, "verify": d + 1, "example1": d + 1}
        depth = reach.get(command, 0) * max(ladder)
    else:
        depth = max(ladder) if command == "verify" and single and model.r == 1 else 0
    cap = _LADDER_CAPS[min(d, len(_LADDER_CAPS)) - 1]
    if depth > cap:
        problems.append(
            f"ladder {ladder} reads level {depth} for {command}, above the cap {cap}"
            f" in dimension {d}"
        )
    cutoff = params.get("cutoff", 0)
    cap = _CUTOFF_CAPS[min(d, len(_CUTOFF_CAPS)) - 1]
    if command == "verify" and single and model.r >= 2 and 2 * cutoff > cap:
        problems.append(
            f"cutoff {cutoff} builds verify's summed body at level {2 * cutoff},"
            f" above the cap {cap} in dimension {d}"
        )
    return problems


def _single_component(model: ComponentModel):
    if len(model.components) != 1 or model.components[0].weight != 1:
        return None
    return list(model.components[0].filtrations)


def _backend_args(params):
    return {
        "backend": params.get("backend", DIRECT),
        "trunc_level": params.get("trunc_level"),
        "ladder": tuple(params["ladder"]) if "ladder" in params else None,
        "order": params.get("order", 2),
    }


def _colengths(model: ComponentModel, levels) -> list[int]:
    """Each component's weighted colength of its product ideal at levels."""
    return [
        comp.weight * product_ideal_at(comp.filtrations, levels).colength()
        for comp in model.components
    ]


def run_colength(model: ComponentModel, params: dict):
    rows = []
    for levels in params.get("levels", [[1] * model.r]):
        per = _colengths(model, levels)
        rows.append(
            {"levels": list(levels), "per_component": per, "colength": sum(per)}
        )
    payload = {"kind": "colength", "rows": rows}
    return payload, serialize._csv(
        ["levels", "colength"],
        ([" ".join(map(str, r["levels"])), r["colength"]] for r in rows),
    )


def run_multiplicity(model: ComponentModel, params: dict):
    ests = component_multiplicities(model, **_backend_args(params))
    per = [
        {"index": j, "multiplicity": serialize.estimate_to_json(est)}
        for j, est in enumerate(ests)
    ]
    payload = {"kind": "multiplicity", "per_filtration": per}
    return payload, serialize._csv(
        ["index", "multiplicity"],
        ([j, serialize.frac_str(est.value)] for j, est in enumerate(ests)),
    )


def run_mixed(model: ComponentModel, params: dict):
    args = _backend_args(params)
    entries, tl = {}, None
    if "truncation_levels" in params:
        # validate has checked that the model is one component of weight 1
        tl = truncation_ladder(_single_component(model), params["truncation_levels"])
        if args["backend"] == TRUNCATION_EXACT:
            entries = dict(tl.entries)  # the model's own report may be one of them
    rep = entries.get(args["trunc_level"]) or component_mixed(model, **args)
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


def run_okounkov(model: ComponentModel, params: dict):
    fs = _single_component(model)
    if fs is None:
        raise CliError("semigroup bodies need a single component of weight 1")
    sigma = tuple(params.get("sigma", [1] * model.r))
    cutoff = params.get("cutoff", 16)
    bound = okounkov.degree_bound(fs, sigma)
    sem = okounkov.value_semigroup(fs, sigma, bound, cutoff)
    b = okounkov.body(sem)
    payload = {
        "kind": "okounkov",
        "degree_bound": bound,
        "body": serialize.body_to_json(b),
    }
    return payload, serialize.body_to_csv(b)


def run_verify(model: ComponentModel, params: dict):
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

    args = _backend_args(params)
    fs = _single_component(model)
    # One growth pipeline for every check that reads it, built on first use;
    # a failed setup is not cached, so each of those checks fails on its own.
    pipeline = functools.cache(lambda: _WeightedGrowth(_parts(model), **args))
    mults = functools.cache(lambda: pipeline().multiplicities())

    def submult(f):
        rep = check_submultiplicative(f, params.get("submult_bound", 8))
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
            threshold = (
                serialize.parse_frac(params["zero_threshold"])
                if "zero_threshold" in params
                else DEFAULT_ZERO_THRESHOLD
            )
            rep = _positivity(pipeline(), threshold)
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

    if fs is not None and model.r == 1:
        cutoff = params.get("cutoff", 16)
        # One value semigroup for both checks that read it, built on first use.
        semigroup = functools.cache(
            lambda: okounkov.value_semigroup(fs, (1,), okounkov.degree_bound(fs, (1,)), cutoff)
        )

        def identity():
            rep = okounkov._volume_identity(fs[0], semigroup(), args["ladder"])
            tol = (
                serialize.parse_frac(params["tolerance"])
                if "tolerance" in params
                else max(Fraction(1, 100), Fraction(4, cutoff))
            )
            ok = rep.discrepancy <= tol
            detail = f"discrepancy {serialize.frac_str(rep.discrepancy)} vs tolerance {tol}"
            return ok, detail, serialize.report_to_json(rep)

        check("volume-identity", identity)

        def collapse():
            tol = serialize.parse_frac(params.get("tolerance", "1/8"))
            rep = okounkov._origin_collapse(fs[0], semigroup(), tol)
            ok = (not rep.triggered) or bool(rep.gap_decreasing)
            detail = (
                "no quotient point near the origin"
                if not rep.triggered
                else f"gap {rep.gap_at_half} -> {rep.gap_at_full}"
            )
            return ok, detail, serialize.origin_collapse_to_json(rep)

        check("origin-collapse", collapse)

    if fs is not None and model.r >= 2:
        cutoff = params.get("cutoff", 8)
        sigma = tuple(params.get("sigma", [1 if j == 0 else 0 for j in range(model.r)]))
        tau = tuple(params.get("tau", [0 if j == 0 else 1 for j in range(model.r)]))

        def minkowski():
            rep = okounkov.minkowski_checks(fs, sigma, tau, cutoff)
            ok = rep.containment_pass and rep.volume_agreement is not False
            detail = (
                f"{rep.contained_vertices} sum-body vertices contained"
                if ok
                else "unresolved vertices or volume disagreement"
            )
            return ok, detail, serialize.report_to_json(rep)

        check("minkowski", minkowski)

    fit_tol = (
        Fraction(0)
        if args["backend"] == TRUNCATION_EXACT
        else serialize.parse_frac(params.get("tolerance", "1/100"))
    )

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
    expected = params.get("expected", {})
    for section, lookup, tol, label, noun in rows:
        if section in expected:
            check(f"expected-{section}", expect, expected[section], lookup, tol, label, noun)

    payload = {"kind": "verify", "checks": entries, "failed": failed, "ok": not failed}
    return payload, None


def run_example1(model: ComponentModel, params: dict):
    pipeline = _WeightedGrowth(_parts(model), **_backend_args(params))
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
        if ns.command == "example1":
            # the built-in model replaces any given one; params are checked against it
            config["model"] = serialize.model_to_json(two_branch_model())
        model, problems = validate(config)
        if not problems:
            problems = _command_problems(model, config.get("params", {}), ns.command)
        if problems:
            for p in problems:
                print(f"config error: {p}", file=sys.stderr)
            return 1
        payload, csv_text = runners[ns.command](model, config.get("params", {}))
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
