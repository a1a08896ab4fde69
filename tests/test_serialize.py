"""Reading model specs, and the JSON and CSV forms of every report."""

import copy
import json
from fractions import Fraction as F

import pytest

from filtmult import components as cp
from filtmult import filtration as ft
from filtmult import monomial as mo
from filtmult import multiplicity as mu
from filtmult import okounkov as ok
from filtmult import serialize as se
from test_filtration import NotSubmultiplicative


def maximal_adic():
    return ft.adic(mo.maximal_ideal(2))


def line_plus_powers():
    return ft.fixed_plus_adic(mo.ideal(2, [(1, 0)]), mo.maximal_ideal(2))


def sqrt2_filtration():
    return ft.rounded_valuation((1,), ft.root_scale(2))


# Literal specs of the three filtrations above.
MAXIMAL_SPEC = {"kind": "adic", "ideal": {"dim": 2, "gens": [[1, 0], [0, 1]]}}
LINE_PLUS_SPEC = {
    "kind": "fixed-plus-adic",
    "fixed": {"dim": 2, "gens": [[1, 0]]},
    "bulk": {"dim": 2, "gens": [[1, 0], [0, 1]]},
}
SQRT2_SPEC = {"kind": "rounded-valuation", "weights": ["1"], "scale": {"sqrt": [2, 1]}}


class TestFractions:
    def test_round_trip(self):
        for x in (F(0), F(5, 3), F(-7, 2), F(10**12, 7)):
            assert se.parse_frac(se.frac_str(x)) == x

    def test_integers_accepted(self):
        assert se.parse_frac(4) == F(4)

    def test_rejections(self):
        for bad in (True, False, 1.5, "1/0", "tau", None, [1, 2]):
            with pytest.raises(ValueError):
                se.parse_frac(bad)


class TestIdealsAndScales:
    def test_ideal_read(self):
        got = se.ideal_from_json({"dim": 2, "gens": [[3, 0], [1, 1], [0, 2]]})
        assert got == mo.ideal(2, [(3, 0), (1, 1), (0, 2)])

    def test_ideal_spec_validated(self):
        with pytest.raises(ValueError):
            se.ideal_from_json({"dim": 2})
        with pytest.raises(ValueError):
            se.ideal_from_json([1, 2])

    def test_scale_read(self):
        for spec, want in (
            ({"sqrt": [2, 1]}, ft.root_scale(2)),
            ({"rat": [3, 2]}, ft.rational_scale(3, 2)),
            ({"sqrt": [9, 4]}, ft.root_scale(9, 4)),
        ):
            assert se.scale_from_json(spec) == want

    def test_scale_spec_validated(self):
        with pytest.raises(ValueError):
            se.scale_from_json({"cbrt": [2, 1]})


class TestFiltrations:
    @pytest.mark.parametrize(
        "spec, build",
        [
            (MAXIMAL_SPEC, maximal_adic),
            (LINE_PLUS_SPEC, line_plus_powers),
            (SQRT2_SPEC, sqrt2_filtration),
            (
                {"kind": "truncated", "base": SQRT2_SPEC, "level": 3},
                lambda: ft.truncate(sqrt2_filtration(), 3),
            ),
            (
                {
                    "kind": "rescaled",
                    "base": {"kind": "truncated", "base": MAXIMAL_SPEC, "level": 2},
                    "stride": 4,
                },
                lambda: ft.rescale(ft.truncate(maximal_adic(), 2), 4),
            ),
        ],
        ids=["adic", "fixed-plus-adic", "rounded-valuation", "truncated", "rescaled"],
    )
    def test_every_kind_reads_as_its_constructor_builds(self, spec, build):
        got, want = se.filtration_from_json(spec), build()
        assert type(got) is type(want)
        assert all(got.ideal_at(n) == want.ideal_at(n) for n in range(0, 8))

    def test_nested_structure_read(self):
        spec = {
            "kind": "rescaled",
            "base": {"kind": "truncated", "base": SQRT2_SPEC, "level": 3},
            "stride": 2,
        }
        f = se.filtration_from_json(spec)
        assert isinstance(f, ft.RescaledFiltration) and f.s == 2
        assert isinstance(f.base, ft.TruncatedFiltration) and f.base.a == 3
        assert isinstance(f.base.base, ft.RoundedValuationFiltration)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            se.filtration_from_json({"kind": "integral-closure"})
        with pytest.raises(ValueError):
            se.filtration_from_json({"level": 3})


# A one-component model whose specs hold every integer field: ideal dim and
# exponents, truncated level, rescaled stride, sqrt and rat scale pairs.
INTEGER_FIELDS_MODEL = {
    "components": [
        {
            "weight": 1,
            "filtrations": [
                MAXIMAL_SPEC,
                {"kind": "truncated", "base": LINE_PLUS_SPEC, "level": 2},
                {
                    "kind": "rescaled",
                    "base": {
                        "kind": "rounded-valuation",
                        "weights": ["1", "1"],
                        "scale": {"sqrt": [2, 1]},
                    },
                    "stride": 2,
                },
                {"kind": "rounded-valuation", "weights": ["1", "1"], "scale": {"rat": [3, 2]}},
            ],
        }
    ]
}


class TestModels:
    def test_component_model_read(self):
        spec = {
            "components": [
                {"weight": 1, "filtrations": [MAXIMAL_SPEC, LINE_PLUS_SPEC]},
                {"weight": 1, "filtrations": [LINE_PLUS_SPEC, MAXIMAL_SPEC]},
            ]
        }
        got, tb = se.model_from_json(spec), cp.two_branch_model()
        assert got.dim == 2 and got.r == 2
        assert [c.weight for c in got.components] == [1, 1]
        for cg, ct in zip(got.components, tb.components):
            for fg, fint in zip(cg.filtrations, ct.filtrations):
                assert type(fg) is type(fint)
                assert fg.ideal_at(3) == fint.ideal_at(3)

    def test_bare_filtration_list_shorthand(self):
        got = se.model_from_json({"filtrations": [MAXIMAL_SPEC, LINE_PLUS_SPEC]})
        assert len(got.components) == 1
        assert got.components[0].weight == 1
        assert got.r == 2

    def test_default_weight_is_one(self):
        obj = {"components": [{"filtrations": [MAXIMAL_SPEC]}]}
        assert se.model_from_json(obj).components[0].weight == 1

    def test_model_spec_validated(self):
        with pytest.raises(ValueError):
            se.model_from_json({"weights": [1]})
        with pytest.raises(ValueError):
            se.model_from_json("model")

    @pytest.mark.parametrize("bad", ["2", 2.0, True])
    @pytest.mark.parametrize(
        "path",
        [
            ("components", 0, "weight"),
            ("components", 0, "filtrations", 0, "ideal", "dim"),
            ("components", 0, "filtrations", 0, "ideal", "gens", 0, 0),
            ("components", 0, "filtrations", 1, "level"),
            ("components", 0, "filtrations", 2, "stride"),
            ("components", 0, "filtrations", 2, "base", "scale", "sqrt", 1),
            ("components", 0, "filtrations", 3, "scale", "rat", 0),
        ],
    )
    def test_integer_fields_must_be_json_integers(self, path, bad):
        obj = copy.deepcopy(INTEGER_FIELDS_MODEL)
        se.model_from_json(obj)  # the unaltered spec parses
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        with pytest.raises(ValueError, match="not an integer"):
            se.model_from_json(obj)


class TestTypeKeys:
    def test_round_trip(self):
        for t in ((2, 0), (1, 1), (0, 0, 3)):
            assert se.parse_type_key(",".join(str(c) for c in t)) == t

    @pytest.mark.parametrize("key", ["", "1,", "-1", "+1", " 1", "1 ", "0_0", "\uff11", "1.0"])
    def test_ascii_digits_only(self, key):
        with pytest.raises(ValueError, match="comma-separated list of nonnegative integers"):
            se.parse_type_key(key)


class TestReportSerializers:
    def test_estimate_shapes(self):
        exact = mu.multiplicity_estimate(
            maximal_adic(), backend=mu.TRUNCATION_EXACT, trunc_level=1
        )
        obj = se.estimate_to_json(exact)
        assert set(obj) == {"exact", "method", "note"}
        assert obj["exact"] == "1"

        direct = mu.multiplicity_estimate(maximal_adic())
        obj = se.estimate_to_json(direct)
        assert set(obj) == {"approx", "fit", "lower_evidence", "method", "note", "tail"}
        assert obj["approx"] == 1.0
        assert len(obj["tail"]) == 3

    def test_mixed_report_json(self):
        rep = mu.mixed_multiplicities(
            [maximal_adic(), ft.adic(mo.ideal(2, [(2, 0), (0, 1)]))], trunc_level=2
        )
        obj = se.mixed_report_to_json(rep)
        json.dumps(obj)
        assert obj["kind"] == "mixed-multiplicities"
        assert obj["coefficients"]["1,1"]["exact"] == "1"

    def test_positivity_json(self):
        rep = mu.positivity_report(
            [line_plus_powers(), maximal_adic()], backend=mu.DIRECT, ladder=(16, 32, 64)
        )
        obj = se.positivity_report_to_json(rep)
        json.dumps(obj)
        assert obj["ok"] is True
        assert obj["positive_indices"] == [1]
        assert {c["name"] for c in obj["checks"]} >= {"nonnegative"}

    def test_ladder_json_and_csv(self):
        tl = mu.truncation_ladder([sqrt2_filtration()], [1, 2, 4])
        obj = se.ladder_to_json(tl)
        json.dumps(obj)
        assert [e["level"] for e in obj["entries"]] == [1, 2, 4]
        assert obj["differences"]["1"] == ["-1/2", "0"]

        text = se.ladder_to_csv(tl)
        lines = text.splitlines()
        assert lines[0] == "level,e[1]"
        assert lines[1] == "1,2"
        assert lines[3] == "4,3/2"

    def test_body_json_and_csv(self):
        sem = ok.value_semigroup([sqrt2_filtration()], (1,), 2, 8)
        b = ok.body(sem)
        obj = se.body_to_json(b)
        json.dumps(obj)
        assert obj["inner"] is True
        assert obj["vertices"][0] == ["10/7"]

        text = se.body_to_csv(b)
        lines = text.splitlines()
        assert lines[0] == "x1,x1_float"
        assert lines[1].startswith("10/7,")

    def test_identity_collapse_containment_minkowski(self):
        ident = ok.volume_identity_report(sqrt2_filtration(), 8)
        obj = se.report_to_json(ident)
        json.dumps(obj)
        assert set(obj) >= {"hat_volume", "body_volume", "discrepancy"}

        col = ok.origin_collapse_check(line_plus_powers(), 8, F(1, 4))
        obj = se.origin_collapse_to_json(col)
        json.dumps(obj)
        assert obj["triggered"] is True
        assert obj["witness"] == {"exponent": [1, 0], "level": 4}

        none_col = ok.origin_collapse_check(maximal_adic(), 8, F(1, 4))
        assert se.origin_collapse_to_json(none_col)["witness"] is None

        cb = ok.containment_bound_search(maximal_adic(), 8)
        obj = se.report_to_json(cb)
        json.dumps(obj)
        assert obj["found"] is True and obj["b"] == 1

        mk = ok.minkowski_checks(
            [maximal_adic(), ft.adic(mo.ideal(2, [(2, 0), (0, 1)]))], (1, 0), (0, 1), 8
        )
        obj = se.report_to_json(mk)
        json.dumps(obj)
        assert obj["containment_pass"] is True
        assert obj["sum_volume"] is None

    def test_submultiplicativity(self):
        rep = ft.check_submultiplicative(maximal_adic(), 6)
        obj = se.report_to_json(rep)
        json.dumps(obj)
        assert obj == {
            "kind": "submultiplicativity",
            "bound": 6,
            "ok": True,
            "first_violation": None,
        }


class TestFieldReportJson:
    """The whole JSON of each field-for-field report, recorded before the
    reports shared one encoder."""

    def test_volume_identity(self):
        rep = ok.volume_identity_report(maximal_adic(), 8)
        assert se.report_to_json(rep) == {
            "kind": "volume-identity",
            "cutoff": 8,
            "bound": 1,
            "limit": {
                "approx": 0.5,
                "fit": "1/2",
                "lower_evidence": "33/64",
                "method": "direct",
                "note": "fit c0 + c1/m over m in {8, 16, 32}; no certified rate",
                "tail": [[8, "9/16"], [16, "17/32"], [32, "33/64"]],
            },
            "hat_volume": "1/2",
            "body_volume": "0",
            "volume_difference": "1/2",
            "discrepancy": "0",
        }

    def test_containment_bound(self):
        found = ok.containment_bound_search(maximal_adic(), 8)
        assert se.report_to_json(found) == {
            "kind": "containment-bound",
            "found": True,
            "b": 1,
            "bound": 1,
            "verified_through": 8,
        }
        missed = ok.containment_bound_search(line_plus_powers(), 4, b_cap=3)
        assert se.report_to_json(missed) == {
            "kind": "containment-bound",
            "found": False,
            "b": None,
            "bound": 1,
            "verified_through": 4,
        }

    def test_minkowski(self):
        pair = [maximal_adic(), ft.adic(mo.ideal(2, [(2, 0), (0, 1)]))]
        plain = {
            "kind": "minkowski-checks",
            "bound": 6,
            "cutoff": 8,
            "contained_vertices": 5,
            "unresolved_vertices": [],
            "containment_pass": True,
            "collapse_triggered": False,
            "collapse_proxy": "1",
            "tolerance": "1/8",
            "sum_volume": None,
            "tau_volume": None,
            "volume_agreement": None,
        }
        assert se.report_to_json(ok.minkowski_checks(pair, (1, 0), (0, 1), 8)) == plain
        triggered = ok.minkowski_checks(pair, (1, 0), (0, 1), 8, F(2))
        assert se.report_to_json(triggered) == {
            **plain,
            "collapse_triggered": True,
            "tolerance": "2",
            "sum_volume": "31/2",
            "tau_volume": "17",
            "volume_agreement": True,
        }

    def test_minkowski_unresolved_vertices(self):
        rep = ok.MinkowskiReport(
            3, 4, 1, ((F(1, 2), F(3)), (F(0), F(5, 4))),
            False, False, F(1), F(1, 4), None, None, None,
        )
        obj = se.report_to_json(rep)
        assert obj["unresolved_vertices"] == [["1/2", "3"], ["0", "5/4"]]
        assert obj["containment_pass"] is False

    def test_submultiplicativity(self):
        assert se.report_to_json(ft.check_submultiplicative(maximal_adic(), 6)) == {
            "kind": "submultiplicativity",
            "bound": 6,
            "ok": True,
            "first_violation": None,
        }
        bad = ft.check_submultiplicative(NotSubmultiplicative(2), 6)
        assert se.report_to_json(bad) == {
            "kind": "submultiplicativity",
            "bound": 6,
            "ok": False,
            "first_violation": [1, 1],
        }
