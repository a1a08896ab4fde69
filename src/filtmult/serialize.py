"""JSON and CSV forms for reports, and the JSON reader of model specs
(ideals, scales, filtrations, models).

Rationals travel as "p/q" strings so nothing is rounded on the way out;
floats appear only as explicit companions to an exact value.  Parsing is
strict: unknown kinds, malformed fractions and integers given as anything
but JSON integers raise ValueError with the offending value named.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from fractions import Fraction

from . import okounkov
from .components import Component, ComponentModel
from .filtration import (
    Filtration,
    SubmultiplicativityReport,
    SurdScalar,
    adic,
    fixed_plus_adic,
    rational_scale,
    rescale,
    root_scale,
    rounded_valuation,
    truncate,
)
from .monomial import MonomialIdeal, ideal
from .multiplicity import (
    TRUNCATION_EXACT,
    LimitEstimate,
    MixedMultiplicityReport,
    PositivityReport,
    TruncationLadder,
)

SCHEMA_VERSION = 1


def frac_str(x) -> str:
    return str(Fraction(x))


def parse_frac(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def parse_int(value) -> int:
    """A JSON integer; bools, strings and floats are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"not an integer: {value!r}")
    return value


def _check_keys(obj, what: str, keys=(), optional=(), one_of=()) -> None:
    """Raise ValueError unless obj is an object holding every one of keys,
    exactly one of one_of (if given) and nothing else but some of optional;
    missing keys are named."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} spec must be an object: {obj!r}")
    unknown = sorted(set(obj) - {*keys, *optional, *one_of})
    if unknown:
        raise ValueError(f"{what} spec has unknown keys {unknown}")
    missing = [k for k in keys if k not in obj]
    if one_of and sum(k in obj for k in one_of) != 1:
        missing.append("one of " + " or ".join(one_of))
    if missing:
        raise ValueError(f"{what} spec needs {', '.join(missing)}: {obj!r}")


def _list(value, what: str, length: int | None = None) -> list:
    """value, which must be a JSON list (of the given length, if any)."""
    if not isinstance(value, list) or length not in (None, len(value)):
        shape = "a list" if length is None else f"a list of {length} entries"
        raise ValueError(f"{what} must be {shape}: {value!r}")
    return value


def estimate_to_json(est: LimitEstimate) -> dict:
    if est.method == TRUNCATION_EXACT:
        return {"exact": frac_str(est.value), "method": est.method, "note": est.error_note}
    return {
        "approx": float(est.value),
        "fit": frac_str(est.value),
        "lower_evidence": frac_str(est.lower_evidence),
        "method": est.method,
        "note": est.error_note,
        "tail": [[m, frac_str(v)] for m, v in est.tail],
    }


def ideal_from_json(obj) -> MonomialIdeal:
    _check_keys(obj, "ideal", ("dim", "gens"))
    dim = parse_int(obj["dim"])
    gens = _list(obj["gens"], "gens")
    return ideal(dim, [tuple(parse_int(c) for c in _list(g, "generator")) for g in gens])


def scale_from_json(obj) -> SurdScalar:
    _check_keys(obj, "scale", one_of=("sqrt", "rat"))
    kind = "sqrt" if "sqrt" in obj else "rat"
    p, q = _list(obj[kind], kind, 2)
    return (root_scale if kind == "sqrt" else rational_scale)(parse_int(p), parse_int(q))


# The keys of each filtration kind's spec, besides its kind.
_FILTRATION_KEYS = {
    "adic": ("ideal",),
    "fixed-plus-adic": ("fixed", "bulk"),
    "rounded-valuation": ("weights", "scale"),
    "truncated": ("base", "level"),
    "rescaled": ("base", "stride"),
}


def filtration_from_json(obj) -> Filtration:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"filtration spec needs a kind: {obj!r}")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _FILTRATION_KEYS:
        raise ValueError(f"unknown filtration kind: {kind!r}")
    _check_keys(obj, f"{kind} filtration", ("kind", *_FILTRATION_KEYS[kind]))
    if kind == "adic":
        return adic(ideal_from_json(obj["ideal"]))
    if kind == "fixed-plus-adic":
        return fixed_plus_adic(ideal_from_json(obj["fixed"]), ideal_from_json(obj["bulk"]))
    if kind == "rounded-valuation":
        return rounded_valuation(
            [parse_frac(w) for w in _list(obj["weights"], "weights")],
            scale_from_json(obj["scale"]),
        )
    if kind == "truncated":
        return truncate(filtration_from_json(obj["base"]), parse_int(obj["level"]))
    return rescale(filtration_from_json(obj["base"]), parse_int(obj["stride"]))


def _filtrations_from_json(value) -> tuple[Filtration, ...]:
    return tuple(filtration_from_json(f) for f in _list(value, "filtrations"))


def model_from_json(obj) -> ComponentModel:
    """A model spec holds either filtrations (one component of weight one)
    or components, each with filtrations and an optional weight."""
    _check_keys(obj, "model", one_of=("filtrations", "components"))
    if "filtrations" in obj:
        return ComponentModel((Component(1, _filtrations_from_json(obj["filtrations"])),))
    comps = []
    for c in _list(obj["components"], "components"):
        _check_keys(c, "component", ("filtrations",), ("weight",))
        comps.append(
            Component(parse_int(c.get("weight", 1)), _filtrations_from_json(c["filtrations"]))
        )
    return ComponentModel(tuple(comps))


def _type_key(t) -> str:
    return ",".join(str(c) for c in t)


def parse_type_key(key: str) -> tuple[int, ...]:
    """Read "2,0,1" as (2, 0, 1): ASCII digits only, where int() takes signs, spaces, "_"."""
    if not all(c.isascii() and c.isdigit() for c in key.split(",")):
        raise ValueError(f"not a comma-separated list of nonnegative integers: {key!r}")
    return tuple(map(int, key.split(",")))


def mixed_report_to_json(rep: MixedMultiplicityReport) -> dict:
    return {
        "kind": "mixed-multiplicities",
        "d": rep.d,
        "r": rep.r,
        "backend": rep.backend,
        "coefficients": {
            _type_key(t): estimate_to_json(est) for t, est in rep.coeffs.items()
        },
    }


def positivity_report_to_json(rep: PositivityReport) -> dict:
    return {
        "kind": "positivity",
        "backend": rep.backend,
        "zero_threshold": frac_str(rep.zero_threshold),
        "single": [
            {"index": i, "value": frac_str(v), "positive": pos}
            for i, v, pos in rep.single
        ],
        "positive_indices": list(rep.positive_indices),
        "mixed": mixed_report_to_json(rep.report),
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in rep.checks
        ],
        "ok": rep.ok,
    }


def ladder_to_json(tl: TruncationLadder) -> dict:
    return {
        "kind": "truncation-ladder",
        "entries": [
            {"level": a, "mixed": mixed_report_to_json(rep)} for a, rep in tl.entries
        ],
        "differences": {
            _type_key(t): [frac_str(v) for v in diffs]
            for t, diffs in tl.differences.items()
        },
    }


def _csv(header, rows) -> str:
    """The CSV text of a header row and then rows; every table goes through
    here."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


def ladder_to_csv(tl: TruncationLadder) -> str:
    """One row per truncation level, one exact column per type vector."""
    types = sorted(tl.entries[0][1].coeffs, reverse=True)
    return _csv(
        ["level"] + [f"e[{_type_key(t)}]" for t in types],
        ([a] + [frac_str(rep.coeffs[t].value) for t in types] for a, rep in tl.entries),
    )


def body_to_json(b: okounkov.OkounkovBody) -> dict:
    return {
        "kind": "okounkov-body",
        "sigma": list(b.sigma),
        "bound": b.bound,
        "cutoff": b.cutoff,
        "inner": b.inner,
        "vertices": [[frac_str(c) for c in v] for v in b.body.vertices],
        "volume": frac_str(b.volume()),
    }


def body_to_csv(b: okounkov.OkounkovBody) -> str:
    """Vertex table with float companions, for plotting."""
    d = b.body.dim
    return _csv(
        [f"x{i+1}" for i in range(d)] + [f"x{i+1}_float" for i in range(d)],
        ([frac_str(c) for c in v] + [float(c) for c in v] for v in b.body.vertices),
    )


def origin_collapse_to_json(rep: okounkov.OriginCollapseReport) -> dict:
    return {
        "kind": "origin-collapse",
        "cutoff": rep.cutoff,
        "tolerance": frac_str(rep.tolerance),
        "triggered": rep.triggered,
        "witness": (
            None
            if rep.witness is None
            else {"exponent": list(rep.witness[0]), "level": rep.witness[1]}
        ),
        "gap_at_half": None if rep.gap_at_half is None else frac_str(rep.gap_at_half),
        "gap_at_full": None if rep.gap_at_full is None else frac_str(rep.gap_at_full),
        "gap_decreasing": rep.gap_decreasing,
    }


# The reports whose JSON is their fields: each field under its own name, plus
# the kind named here.  estimate_to_json, mixed_report_to_json,
# positivity_report_to_json, ladder_to_json, body_to_json and
# origin_collapse_to_json keep their own code, because their JSON renames
# fields or computes them.
_REPORT_KINDS = {
    okounkov.VolumeIdentityReport: "volume-identity",
    okounkov.ContainmentBound: "containment-bound",
    okounkov.MinkowskiReport: "minkowski-checks",
    SubmultiplicativityReport: "submultiplicativity",
}


def _field_json(value):
    if isinstance(value, LimitEstimate):
        return estimate_to_json(value)
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, tuple):
        return [_field_json(v) for v in value]
    return value


def report_to_json(rep) -> dict:
    """A report of _REPORT_KINDS as its kind and its fields, a Fraction as
    "p/q", a tuple as a list and a LimitEstimate by estimate_to_json."""
    obj = {"kind": _REPORT_KINDS[type(rep)]}
    for f in dataclasses.fields(rep):
        obj[f.name] = _field_json(getattr(rep, f.name))
    return obj
