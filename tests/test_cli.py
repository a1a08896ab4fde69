"""End-to-end command line behavior, in process through main()."""

import hashlib
import json
import re
import time
from pathlib import Path

import pytest

from filtmult import cli, okounkov, serialize
from filtmult import multiplicity as mu
from filtmult.components import component_mixed, two_branch_model
from filtmult.filtration import PeriodNotCertified

PLANE_PAIR = "configs/plane_pair.json"
LINE_PLUS = "configs/line_plus_powers.json"
SQRT2 = "configs/sqrt2.json"
SQRT2_TRUNC = "configs/sqrt2_truncations.json"


def adic(ideal):
    return {"kind": "adic", "ideal": ideal}


def valuation(weights=None, scale=None):
    """A rounded-valuation spec, by default of weight 1 and scale sqrt(2)."""
    return {
        "kind": "rounded-valuation",
        "weights": ["1"] if weights is None else weights,
        "scale": {"sqrt": [2, 1]} if scale is None else scale,
    }


def one(spec):
    """A model of the single filtration spec."""
    return {"filtrations": [spec]}


ADIC = adic({"dim": 2, "gens": [[1, 0], [0, 1]]})
LINE_PLUS_SPEC = {
    "kind": "fixed-plus-adic",
    "fixed": {"dim": 2, "gens": [[1, 0]]},
    "bulk": {"dim": 2, "gens": [[1, 0], [0, 1]]},
}

# The spec of components.two_branch_model(), example1's built-in model.
TWO_BRANCH = {
    "components": [
        {"weight": 1, "filtrations": [ADIC, LINE_PLUS_SPEC]},
        {"weight": 1, "filtrations": [LINE_PLUS_SPEC, ADIC]},
    ]
}

# Models that are not a single component of weight 1: two components, and
# one component of weight 2.
NOT_WEIGHT_ONE = [
    TWO_BRANCH,
    {"components": [{"weight": 2, "filtrations": [valuation()]}]},
]


def run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_config(tmp_path, obj, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def read_config(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def knob_problems(model, params, command):
    """What main checks on command's knobs once their defaults are filled in."""
    return cli._knob_problems(model, cli._knobs(model, params, command), command)


def unit_gens(dim):
    """The generators of the maximal ideal in dimension dim."""
    return [[int(j == k) for j in range(dim)] for k in range(dim)]


class TestInputProblems:
    def test_missing_config(self, capsys):
        rc, _, err = run(capsys, ["multiplicity"])
        assert rc == 1
        assert "requires --config" in err

    def test_unreadable_config(self, capsys):
        rc, _, err = run(capsys, ["mixed", "--config", "no/such/file.json"])
        assert rc == 1
        assert "cannot read config" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        rc, _, err = run(capsys, ["mixed", "--config", str(path)])
        assert rc == 1
        assert "not valid JSON" in err

    def test_non_object_config(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        rc, _, err = run(capsys, ["mixed", "--config", str(path)])
        assert rc == 1
        assert "JSON object" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = read_config(PLANE_PAIR)
        cfg["extras"] = {}
        rc, _, err = run(capsys, ["mixed", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        assert "config error: unknown config keys" in err

    def test_order_must_be_at_least_two(self, capsys, tmp_path):
        cfg = read_config(LINE_PLUS)
        cfg["params"]["order"] = 1
        rc, _, err = run(capsys, ["mixed", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        assert "order must be an integer of at least 2" in err

    def test_integers_must_be_json_integers(self, capsys, tmp_path):
        # int() would read this ideal as (x^2, y) and report multiplicity 2
        cfg = {
            "model": {
                "filtrations": [
                    {"kind": "adic", "ideal": {"dim": "2", "gens": [[2.7, 0], [0, "1"]]}}
                ]
            }
        }
        rc, out, err = run(capsys, ["multiplicity", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        assert out == ""
        assert "config error: bad model: not an integer: '2'" in err

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"trunc_level": True}, "trunc_level must be a positive integer"),
            ({"check_bound": True}, "unknown params: ['check_bound']"),
            ({"cutoff": True}, "cutoff must be a positive integer"),
            ({"submult_bound": True}, "submult_bound must be a positive integer"),
            ({"order": True}, "order must be an integer of at least 2"),
            ({"sigma": None}, "sigma must be a list of 2 integers"),
            ({"tau": None}, "tau must be a list of 2 integers"),
            ({"backend": "direct", "ladder": [True, 2, 3]}, "ladder must be"),
            ({"truncation_levels": [True]}, "truncation_levels must be"),
            ({"i_bound": 2}, "unknown params: ['i_bound']"),
            ({"b_cap": 64}, "unknown params: ['b_cap']"),
            (
                {"expected": {"multiplicity": {"x": "1"}}},
                "expected multiplicity key must be a filtration index in [0, 2): 'x'",
            ),
            (
                {"expected": {"multiplicity": {"2": "1"}}},
                "expected multiplicity key must be a filtration index in [0, 2): '2'",
            ),
            *(
                (
                    {"expected": {"multiplicity": {key: "1"}}},
                    f"expected multiplicity key must be a filtration index in [0, 2): {key!r}",
                )
                # int() reads each of these as an index
                for key in ("0_0", " 1", "+1", "\uff11")
            ),
            (
                {"expected": {"colength": {"1, 1": "4"}}},
                "expected colength key must be 2 comma-separated nonnegative integers: '1, 1'",
            ),
            (
                {"expected": {"coefficients": {"+1,1": "1"}}},
                "expected coefficients key must be 2 comma-separated nonnegative"
                " integers summing to 2: '+1,1'",
            ),
            (
                {"expected": {"colength": {"1,a": "4"}}},
                "expected colength key must be 2 comma-separated nonnegative integers: '1,a'",
            ),
            (
                {"expected": {"colength": {"1,-1": "4"}}},
                "expected colength key must be 2 comma-separated nonnegative integers: '1,-1'",
            ),
            (
                {"expected": {"coefficients": {"z": "1"}}},
                "expected coefficients key must be 2 comma-separated nonnegative"
                " integers summing to 2: 'z'",
            ),
            (
                {"expected": {"coefficients": {"1,0": "1"}}},
                "expected coefficients key must be 2 comma-separated nonnegative"
                " integers summing to 2: '1,0'",
            ),
            (
                {"expected": {"coefficients": {"1,1,0": "1"}}},
                "expected coefficients key must be 2 comma-separated nonnegative"
                " integers summing to 2: '1,1,0'",
            ),
            ({"backend": "direct", "order": 4}, "order 4 exceeds the 3 ladder rungs"),
            # a knob the backend never reads would silently do nothing
            ({"backend": "direct"}, "trunc_level is not read by the 'direct' backend"),
            ({"order": 7}, "order is not read by the 'truncation-exact' backend"),
            ({"backend": "direct", "trunc_level": True}, "trunc_level must be a positive integer"),
            (
                {"backend": "direct", "ladder": [8, 16, 32, 64], "order": 5},
                "order 5 exceeds the 4 ladder rungs",
            ),
        ],
    )
    def test_bad_params_are_config_errors(self, capsys, tmp_path, params, message):
        # a bool is not an integer, and an expected key must name a model value
        cfg = read_config(PLANE_PAIR)
        cfg["params"].update(params)
        rc, out, err = run(capsys, ["verify", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        assert out == ""
        assert f"config error: {message}" in err

    @pytest.mark.parametrize(
        "model, message",
        [
            (one(valuation("12")), "weights must be a list: '12'"),
            (one(valuation({"3": 0})), "weights must be a list: {'3': 0}"),
            (one(valuation(scale={"sqrt": [2, 1, 3]})), "sqrt must be a list of 2 entries"),
            (
                one(valuation(scale={"sqrt": [2, 1], "rat": [1, 1]})),
                "scale spec needs one of sqrt or rat: ",
            ),
            (one({"kind": "adic"}), "adic filtration spec needs ideal: "),
            (one({"kind": "truncated", "base": ADIC}), "truncated filtration spec needs level: "),
            (one(dict(ADIC, gens=[[1]])), "adic filtration spec has unknown keys ['gens']"),
            (one(adic({"dim": 2})), "ideal spec needs gens: "),
            (one(adic({"dim": 2, "gens": 5})), "gens must be a list: 5"),
            (one(adic({"dim": 2, "gens": [5]})), "generator must be a list: 5"),
            ({"filtrations": ADIC}, "filtrations must be a list: "),
            (dict(one(ADIC), weight=2), "model spec has unknown keys ['weight']"),
            (
                dict(one(ADIC), components=[{"filtrations": [ADIC]}]),
                "model spec needs one of filtrations or components: ",
            ),
            (
                {"components": [{"wieght": 2, "filtrations": [ADIC]}]},
                "component spec has unknown keys ['wieght']",
            ),
            ({"components": [{"weight": 1}]}, "component spec needs filtrations: "),
        ],
    )
    def test_model_specs_are_strict(self, model, message):
        got = cli.validate({"model": model})[1]
        assert len(got) == 1 and got[0].startswith(f"bad model: {message}"), got

    def test_order_up_to_the_ladder_rungs_is_accepted(self, capsys, tmp_path):
        cfg = read_config(PLANE_PAIR)
        cfg["params"] = {"backend": "direct", "ladder": [2, 4, 8, 16], "order": 4}
        assert cli.validate(cfg)[1] == []
        rc, _, err = run(capsys, ["mixed", "--config", write_config(tmp_path, cfg)])
        assert rc == 0 and err == ""

    def test_verify_has_no_csv(self, capsys):
        rc, _, err = run(
            capsys, ["verify", "--config", PLANE_PAIR, "--format", "csv"]
        )
        assert rc == 1
        assert "verify has no csv form" in err

    def test_unknown_command_exits_one(self, capsys):
        rc, out, err = run(capsys, ["frobnicate"])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: argument command: invalid choice: 'frobnicate'")

    def test_unknown_flag_exits_one(self, capsys):
        rc, out, err = run(capsys, ["mixed", "--config", PLANE_PAIR, "--verbose"])
        assert rc == 1
        assert out == ""
        assert err == "error: unrecognized arguments: --verbose\n"

    def test_missing_command_exits_one(self, capsys):
        rc, out, err = run(capsys, ["--no-timestamp"])
        assert rc == 1
        assert out == ""
        assert err == "error: the following arguments are required: command\n"

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.split("commands:\n", 1)[1].splitlines()]
        assert listed == ["colength", "multiplicity", "mixed", "okounkov", "verify", "example1"]

    @pytest.mark.parametrize("model", NOT_WEIGHT_ONE, ids=["two", "weight2"])
    def test_okounkov_needs_single_component(self, capsys, tmp_path, model):
        cfg = {"model": model}
        rc, out, err = run(capsys, ["okounkov", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        assert out == ""
        assert err == "config error: semigroup bodies need a single component of weight 1\n"

    @pytest.mark.parametrize("model", NOT_WEIGHT_ONE, ids=["two", "weight2"])
    def test_truncation_ladder_needs_single_component(
        self, capsys, tmp_path, monkeypatch, model
    ):
        # a config error, found before the mixed report is computed
        def never(*args, **kwargs):
            raise AssertionError("component_mixed ran")

        monkeypatch.setattr(cli, "component_mixed", never)
        cfg = {
            "model": model,
            "params": {"truncation_levels": [1, 2]},
        }
        rc, out, err = run(capsys, ["mixed", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        assert out == ""
        assert err == "config error: truncation ladders need a single component of weight 1\n"


class TestValidateDiagnostics:
    def base(self):
        return read_config(PLANE_PAIR)

    def test_missing_model(self):
        assert cli.validate({})[1] == ["config needs a model"]

    def test_bad_model(self):
        got = cli.validate({"model": {"kind": "nope"}})[1]
        assert len(got) == 1 and got[0].startswith("bad model")

    def test_params_must_be_object(self):
        cfg = self.base()
        cfg["params"] = [1]
        assert cli.validate(cfg)[1] == ["params must be an object"]

    def test_unknown_param(self):
        cfg = self.base()
        cfg["params"]["fuel"] = 3
        assert any("unknown params" in p for p in cli.validate(cfg)[1])

    def test_sigma_shape(self):
        cfg = self.base()
        cfg["params"]["sigma"] = [1]
        assert any("sigma must be a list of 2 integers" in p for p in cli.validate(cfg)[1])
        cfg["params"]["sigma"] = [1, True]
        assert any("sigma" in p for p in cli.validate(cfg)[1])

    def test_levels_rows(self):
        cfg = self.base()
        cfg["params"]["levels"] = [[1, 2], [3]]
        assert any("levels row" in p for p in cli.validate(cfg)[1])
        cfg["params"]["levels"] = []
        assert any("nonempty" in p for p in cli.validate(cfg)[1])

    def test_ladder_shape(self):
        cfg = self.base()
        cfg["params"]["ladder"] = [4, 8]
        assert any("ladder" in p for p in cli.validate(cfg)[1])
        cfg["params"]["ladder"] = [8, 8, 16]
        assert any("ladder" in p for p in cli.validate(cfg)[1])

    def test_truncation_levels_shape(self):
        cfg = self.base()
        cfg["params"]["truncation_levels"] = [2, 2]
        assert any("truncation_levels" in p for p in cli.validate(cfg)[1])

    def test_scalar_params(self):
        cfg = self.base()
        cfg["params"]["cutoff"] = 0
        cfg["params"]["trunc_level"] = "four"
        got = cli.validate(cfg)[1]
        assert any("cutoff" in p for p in got)
        assert any("trunc_level" in p for p in got)

    def test_backend_names(self):
        cfg = self.base()
        cfg["params"]["backend"] = "magic"
        assert any("backend must be" in p for p in cli.validate(cfg)[1])

    def test_tolerance_positive(self):
        cfg = self.base()
        cfg["params"]["tolerance"] = "0"
        assert any("tolerance must be positive" in p for p in cli.validate(cfg)[1])

    def test_expected_sections(self):
        cfg = self.base()
        cfg["params"]["expected"] = {"volumes": {}}
        assert any("unknown expected section" in p for p in cli.validate(cfg)[1])
        cfg["params"]["expected"] = {"coefficients": {"2,0": "a/b"}}
        assert any("not a rational" in p for p in cli.validate(cfg)[1])

    def test_clean_config_has_no_problems(self):
        assert cli.validate(self.base())[1] == []

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_cutoff_cap_per_dimension(self, dim):
        cap = cli._CUTOFF_CAPS[min(dim, 4) - 1]
        model = serialize.model_from_json(one(adic({"dim": dim, "gens": unit_gens(dim)})))
        assert knob_problems(model, {"cutoff": cap}, "okounkov") == []
        want = f"cutoff {cap + 1} exceeds the cap {cap} in dimension {dim}"
        assert knob_problems(model, {"cutoff": cap + 1}, "okounkov") == [want]
        # colength builds no body, so it never reads the cutoff
        assert knob_problems(model, {"cutoff": cap + 1}, "colength") == []

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_submult_cap_per_dimension(self, dim):
        # a component of weight 2 builds no body and, on the exact backend,
        # reads no ladder, so only submult_bound is priced
        cap = cli._SUBMULT_CAPS[min(dim, 4) - 1]
        spec = adic({"dim": dim, "gens": unit_gens(dim)})
        model = serialize.model_from_json({"components": [{"weight": 2, "filtrations": [spec]}]})
        params = {"backend": "truncation-exact", "trunc_level": 1, "submult_bound": cap}
        assert knob_problems(model, params, "verify") == []
        params["submult_bound"] = cap + 1
        want = f"submult_bound {cap + 1} exceeds the cap {cap} in dimension {dim}"
        assert knob_problems(model, params, "verify") == [want]
        # only verify reads submult_bound
        assert knob_problems(model, params, "mixed") == []

    @pytest.mark.parametrize(
        "command, want",
        [
            ("okounkov", "cutoff 1000000 exceeds the cap 1024"),
            (
                "verify",
                "cutoff 1000000 builds verify's summed body at level 2000000, above the cap 1024",
            ),
        ],
    )
    def test_oversized_cutoff_exits_at_once(self, capsys, tmp_path, command, want):
        # a plane adic body at cutoff 10^6 used to run for minutes
        cfg = self.base()
        cfg["params"]["cutoff"] = 10**6
        path = write_config(tmp_path, cfg)
        t0 = time.monotonic()
        rc, out, err = run(capsys, [command, "--config", path])
        assert time.monotonic() - t0 < 1.0
        assert (rc, out) == (1, "")
        assert err == f"config error: {want} in dimension 2\n"

    def test_oversized_submult_bound_exits_at_once(self, capsys, tmp_path):
        # plane_pair's submultiplicativity checks ran for over 20 s at 10^5
        cfg = self.base()
        cfg["params"]["submult_bound"] = 100000
        path = write_config(tmp_path, cfg)
        t0 = time.monotonic()
        rc, out, err = run(capsys, ["verify", "--config", path])
        assert time.monotonic() - t0 < 1.0
        assert (rc, out) == (1, "")
        assert err == "config error: submult_bound 100000 exceeds the cap 32 in dimension 2\n"

    def test_shipped_configs_stay_under_the_caps(self):
        # every command, at its defaults or the config's values
        paths = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
        assert len(paths) == 4
        for path in paths:
            model, problems = cli.validate(read_config(path))
            assert problems == []
            for command in ("colength", "multiplicity", "mixed", "okounkov", "verify"):
                assert knob_problems(model, read_config(path)["params"], command) == [], path
        assert knob_problems(two_branch_model(), {}, "example1") == []

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("command", ["multiplicity", "mixed", "verify", "example1"])
    def test_ladder_cap_per_dimension(self, dim, command):
        # multiplicity reads max(ladder); a mixed report reads (d+1)*max(ladder).
        # cutoff 4 keeps verify's summed body under its cap in every dimension.
        cap = cli._LADDER_CAPS[min(dim, 4) - 1]
        spec = adic({"dim": dim, "gens": unit_gens(dim)})
        model = serialize.model_from_json({"filtrations": [spec] * 2})
        reach = 1 if command == "multiplicity" else dim + 1
        top = cap // reach
        assert knob_problems(model, {"ladder": [1, 2, top], "cutoff": 4}, command) == []
        want = (
            f"ladder [1, 2, {top + 1}] reads level {reach * (top + 1)} for {command},"
            f" above the cap {cap} in dimension {dim}"
        )
        assert knob_problems(model, {"ladder": [1, 2, top + 1], "cutoff": 4}, command) == [want]
        # the exact backend reads a ladder only for the volume identity of
        # verify on one filtration, never for a pair
        exact = {"backend": "truncation-exact", "ladder": [1, 2, 10 * cap], "cutoff": 4}
        assert knob_problems(model, exact, command) == []

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_level_cap_per_dimension(self, dim):
        # colength reads each levels row, and verify each expected colength
        # key, at its deepest entry, under the ladder cap; the exact backend
        # and cutoff 4 keep verify's other knobs under their caps
        cap = cli._LADDER_CAPS[min(dim, 4) - 1]
        spec = adic({"dim": dim, "gens": unit_gens(dim)})
        model = serialize.model_from_json({"filtrations": [spec] * 2})
        exact = {"backend": "truncation-exact", "trunc_level": 1, "cutoff": 4}
        rows = [[1, 1], [cap, 0], [0, cap]]
        assert knob_problems(model, {"levels": rows}, "colength") == []
        table = {"colength": {f"{a},{b}": "1" for a, b in rows}}
        assert knob_problems(model, {**exact, "expected": table}, "verify") == []
        # the first row over the cap is named
        rows += [[0, cap + 1], [cap + 2, 1]]
        want = f"reads level {cap + 1}, above the cap {cap} in dimension {dim}"
        assert knob_problems(model, {"levels": rows}, "colength") == [
            f"levels row [0, {cap + 1}] {want}"
        ]
        table = {"colength": {f"{a},{b}": "1" for a, b in rows}}
        assert knob_problems(model, {**exact, "expected": table}, "verify") == [
            f"expected colength key '0,{cap + 1}' {want}"
        ]
        # no other command reads levels or expected colengths
        for command in ("multiplicity", "mixed", "okounkov"):
            assert knob_problems(model, {**exact, "levels": rows}, command) == []
        assert knob_problems(model, {**exact, "levels": rows}, "verify") == []
        assert knob_problems(model, {"expected": table}, "colength") == []

    @pytest.mark.parametrize(
        "command, params, want",
        [
            ("colength", {"levels": [[1, 1], [10**6, 10**6]]}, "levels row [1000000, 1000000]"),
            (
                "verify",
                {"expected": {"colength": {"1,1": "4", "1000000,1000000": "1"}}},
                "expected colength key '1000000,1000000'",
            ),
        ],
    )
    def test_oversized_levels_exit_at_once(self, capsys, tmp_path, command, params, want):
        # plane_pair's colength at levels [10^6, 10^6] ran for 8 s
        cfg = self.base()
        cfg["params"].update(params)
        path = write_config(tmp_path, cfg)
        t0 = time.monotonic()
        rc, out, err = run(capsys, [command, "--config", path])
        assert time.monotonic() - t0 < 1.0
        assert (rc, out) == (1, "")
        cap = "reads level 1000000, above the cap 8192 in dimension 2"
        assert err == f"config error: {want} {cap}\n"

    @pytest.mark.parametrize(
        "command, dim, count, params, want",
        [
            # a dim-3 pair read level 128 at the default ladder in 15 to 17 s
            ("mixed", 3, 2, {}, ["ladder [8, 16, 32] reads level 128 for mixed, above the cap 64"]),
            (
                "verify", 3, 2, {},
                ["ladder [8, 16, 32] reads level 128 for verify, above the cap 64"],
            ),
            (
                "multiplicity", 4, 2, {},
                ["ladder [8, 16, 32] reads level 32 for multiplicity, above the cap 20"],
            ),
            (
                "verify", 4, 1, {"backend": "truncation-exact", "trunc_level": 1},
                [
                    "ladder [8, 16, 32] reads level 32 for verify, above the cap 20",
                    "cutoff 16 exceeds the cap 12",
                ],
            ),
        ],
    )
    def test_oversized_ladder_exits_at_once(
        self, capsys, tmp_path, command, dim, count, params, want
    ):
        model = {"filtrations": [adic({"dim": dim, "gens": unit_gens(dim)})] * count}
        path = write_config(tmp_path, {"model": model, "params": params})
        t0 = time.monotonic()
        rc, out, err = run(capsys, [command, "--config", path])
        assert time.monotonic() - t0 < 1.0
        assert (rc, out) == (1, "")
        assert err == "".join(f"config error: {w} in dimension {dim}\n" for w in want)

    def test_verify_summed_body_is_capped(self, capsys, tmp_path):
        # verify builds a pair's summed body at twice the cutoff: a dim-3
        # pair at cutoff 32, the okounkov cap, built a level-64 body in 36 s
        pair = {"filtrations": [adic({"dim": 3, "gens": unit_gens(3)})] * 2}
        params = {"backend": "truncation-exact", "trunc_level": 1, "cutoff": 20}
        path = write_config(tmp_path, {"model": pair, "params": params})
        t0 = time.monotonic()
        rc, out, err = run(capsys, ["verify", "--config", path])
        assert time.monotonic() - t0 < 1.0
        assert (rc, out) == (1, "")
        assert err == (
            "config error: cutoff 20 builds verify's summed body at level 40,"
            " above the cap 32 in dimension 3\n"
        )
        # okounkov builds no summed body, and cutoff 16 keeps it at the cap
        model = serialize.model_from_json(pair)
        assert knob_problems(model, params, "okounkov") == []
        assert knob_problems(model, {**params, "cutoff": 16}, "verify") == []


class TestDefaultsMeetTheCaps:
    """A default is checked against its cap exactly as a given value is.
    The model is the dim-4 pair adic((x², y, z², w, xz)), adic(m) on the
    exact backend, where okounkov at the default cutoff 16 ran for 7 s."""

    MODEL = {
        "filtrations": [
            adic(
                {
                    "dim": 4,
                    "gens": [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1], [1, 0, 1, 0]],
                }
            ),
            adic({"dim": 4, "gens": unit_gens(4)}),
        ]
    }
    PARAMS = {"backend": "truncation-exact", "trunc_level": 1}

    @pytest.mark.parametrize(
        "command, want",
        [
            ("okounkov", "cutoff 16 exceeds the cap 12 in dimension 4"),
            (
                "verify",
                "cutoff 8 builds verify's summed body at level 16, above the cap 12 in dimension 4",
            ),
        ],
    )
    def test_default_cutoff_over_its_cap_exits_at_once(self, capsys, tmp_path, command, want):
        path = write_config(tmp_path, {"model": self.MODEL, "params": self.PARAMS})
        t0 = time.monotonic()
        rc, out, err = run(capsys, [command, "--config", path])
        assert time.monotonic() - t0 < 1.0
        assert (rc, out, err) == (1, "", f"config error: {want}\n")

    @pytest.mark.parametrize("command", ["colength", "mixed"])
    def test_commands_without_a_body_still_run(self, capsys, tmp_path, command):
        path = write_config(tmp_path, {"model": self.MODEL, "params": self.PARAMS})
        rc, _, err = run(capsys, [command, "--config", path, "--no-timestamp"])
        assert (rc, err) == (0, "")


class TestCommandsOnShippedConfigs:
    def test_colength(self, capsys):
        rc, out, _ = run(capsys, ["colength", "--config", PLANE_PAIR, "--no-timestamp"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["schema_version"] == 1
        assert obj["command"] == "colength"
        assert "generated_at" not in obj
        assert obj["rows"][0] == {
            "levels": [1, 1],
            "per_component": [4],
            "colength": 4,
        }

    def test_colength_with_levels(self, capsys, tmp_path):
        cfg = read_config(PLANE_PAIR)
        cfg["params"] = {"levels": [[1, 1], [2, 2]]}
        rc, out, _ = run(
            capsys,
            ["colength", "--config", write_config(tmp_path, cfg), "--no-timestamp"],
        )
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert [r["colength"] for r in rows] == [4, 13]

    def test_multiplicity_json_and_csv(self, capsys):
        rc, out, _ = run(
            capsys, ["multiplicity", "--config", PLANE_PAIR, "--no-timestamp"]
        )
        assert rc == 0
        per = json.loads(out)["per_filtration"]
        assert [p["multiplicity"]["exact"] for p in per] == ["1", "2"]

        rc, out, _ = run(
            capsys, ["multiplicity", "--config", PLANE_PAIR, "--format", "csv"]
        )
        assert rc == 0
        assert out.splitlines() == ["index,multiplicity", "0,1", "1,2"]

    def test_mixed_json_and_csv(self, capsys):
        rc, out, _ = run(capsys, ["mixed", "--config", PLANE_PAIR, "--no-timestamp"])
        assert rc == 0
        coeffs = json.loads(out)["mixed"]["coefficients"]
        assert coeffs["2,0"]["exact"] == "1"
        assert coeffs["1,1"]["exact"] == "1"
        assert coeffs["0,2"]["exact"] == "2"

        rc, out, _ = run(capsys, ["mixed", "--config", PLANE_PAIR, "--format", "csv"])
        assert rc == 0
        assert out.splitlines() == ["type,value", "2 0,1", "1 1,1", "0 2,2"]

    def test_mixed_truncation_ladder(self, capsys):
        rc, out, _ = run(capsys, ["mixed", "--config", SQRT2_TRUNC, "--no-timestamp"])
        assert rc == 0
        obj = json.loads(out)
        assert [e["level"] for e in obj["ladder"]["entries"]] == [1, 2, 4]
        assert obj["ladder"]["differences"]["1"] == ["-1/2", "0"]

        rc, out, _ = run(capsys, ["mixed", "--config", SQRT2_TRUNC, "--format", "csv"])
        assert rc == 0
        assert out.splitlines() == ["level,e[1]", "1,2", "2,3/2", "4,3/2"]

    def test_okounkov_csv_headers(self, capsys):
        rc, out, _ = run(capsys, ["okounkov", "--config", SQRT2, "--format", "csv"])
        assert rc == 0
        assert out.splitlines()[0] == "x1,x1_float"

        rc, out, _ = run(capsys, ["okounkov", "--config", PLANE_PAIR, "--format", "csv"])
        assert rc == 0
        assert out.splitlines()[0] == "x1,x2,x1_float,x2_float"

    def test_okounkov_json(self, capsys):
        rc, out, _ = run(capsys, ["okounkov", "--config", SQRT2, "--no-timestamp"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["degree_bound"] == 2
        assert obj["body"]["vertices"][0] == ["17/12"]

    def test_verify_all_shipped_configs_pass(self, capsys):
        for cfg in (PLANE_PAIR, LINE_PLUS, SQRT2, SQRT2_TRUNC):
            rc, out, err = run(capsys, ["verify", "--config", cfg, "--no-timestamp"])
            assert rc == 0, (cfg, err)
            assert json.loads(out)["ok"] is True

    def test_sqrt2_direct_multiplicity_close(self, capsys):
        rc, out, _ = run(capsys, ["multiplicity", "--config", SQRT2, "--no-timestamp"])
        assert rc == 0
        approx = json.loads(out)["per_filtration"][0]["multiplicity"]["approx"]
        assert abs(approx - 2**0.5) < 1e-3

    def test_example1_payload(self, capsys):
        rc, out, _ = run(capsys, ["example1", "--no-timestamp"])
        assert rc == 0
        obj = json.loads(out)
        assert obj["coefficients"] == {"2,0": "1", "1,1": "0", "0,2": "1"}
        assert obj["growth"] == {"1,0": "1/2", "0,1": "1/2", "1,1": "1"}
        assert obj["diagonal_length_closed_form_holds"] is True


class TestExample1Config:
    """example1 params are validated against the built-in model like any
    config; a given model is ignored."""

    @pytest.mark.parametrize(
        "cfg, messages",
        [
            (
                {"params": {"ladder": [True, 2, 3]}},
                ["ladder must be a strictly increasing list of >= 3 positive integers"],
            ),
            (
                {"params": {"ladder": 7}},
                ["ladder must be a strictly increasing list of >= 3 positive integers"],
            ),
            (
                {"params": {"ladder": [4, 8, 16], "bogus": 1}, "junk": 2},
                ["unknown config keys: ['junk']", "unknown params: ['bogus']"],
            ),
        ],
    )
    def test_bad_params_are_config_errors(self, capsys, tmp_path, cfg, messages):
        rc, out, err = run(capsys, ["example1", "--config", write_config(tmp_path, cfg)])
        assert rc == 1
        assert out == ""
        assert err.splitlines() == [f"config error: {m}" for m in messages]

    def test_default_ladder_config_matches_plain_run(self, capsys, tmp_path):
        cfg = {"params": {"ladder": [8, 16, 32]}}
        rc, plain, _ = run(capsys, ["example1", "--no-timestamp"])
        assert rc == 0
        rc, configured, _ = run(
            capsys, ["example1", "--no-timestamp", "--config", write_config(tmp_path, cfg)]
        )
        assert rc == 0
        assert configured == plain

    def test_backend_params_are_honoured(self, capsys, tmp_path):
        cfg = {"params": {"backend": "truncation-exact", "trunc_level": 1}}
        rc, out, _ = run(
            capsys, ["example1", "--no-timestamp", "--config", write_config(tmp_path, cfg)]
        )
        assert rc == 0
        want = component_mixed(two_branch_model(), backend=mu.TRUNCATION_EXACT, trunc_level=1)
        assert {t: e.value for t, e in want.coeffs.items()} == {(2, 0): 2, (1, 1): 2, (0, 2): 2}
        obj = json.loads(out)
        assert obj["coefficients"] == {"2,0": "2", "1,1": "2", "0,2": "2"}
        assert obj["mixed"] == serialize.mixed_report_to_json(want)


class TestTruncLevelRule:
    def test_multiplicity_and_mixed_agree_on_pretruncated_input(self, capsys, tmp_path):
        # trunc_level truncates every input, an already truncated one too,
        # so both commands see the 2-truncation of the sqrt(2) filtration
        sqrt2 = {"kind": "rounded-valuation", "weights": ["1"], "scale": {"sqrt": [2, 1]}}
        cfg = {
            "model": {"filtrations": [{"kind": "truncated", "base": sqrt2, "level": 8}]},
            "params": {"backend": "truncation-exact", "trunc_level": 2},
        }
        path = write_config(tmp_path, cfg)
        rc, out, _ = run(capsys, ["multiplicity", "--config", path, "--no-timestamp"])
        assert rc == 0
        mult = json.loads(out)["per_filtration"][0]["multiplicity"]["exact"]
        rc, out, _ = run(capsys, ["mixed", "--config", path, "--no-timestamp"])
        assert rc == 0
        coeff = json.loads(out)["mixed"]["coefficients"]["1"]["exact"]
        assert mult == coeff == "3/2"


class TestReadme:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def config_section_misses(self, names):
        """The names that README's "Config format" section does not quote."""
        readme = self.README.read_text(encoding="utf-8")
        section = readme.split("### Config format", 1)[1].split("\n## ", 1)[0]
        return [n for n in sorted(names) if f"`{n}`" not in section and f'"{n}"' not in section]

    def test_config_section_names_every_param(self):
        missing = self.config_section_misses(cli._PARAM_KEYS)
        assert not missing, f"README config section does not name {missing}"

    def test_config_section_names_every_filtration_kind_and_key(self):
        kinds = serialize._FILTRATION_KEYS
        missing = self.config_section_misses({*kinds, *(k for ks in kinds.values() for k in ks)})
        assert not missing, f"README config section does not name {missing}"

    def test_knob_list_is_the_params(self):
        # the list after "selects the backend and its knobs", both ways
        readme = " ".join(self.README.read_text(encoding="utf-8").split())
        knobs = readme.split("selects the backend and its knobs (", 1)[1].split(")", 1)[0]
        assert set(re.findall(r"`(\w+)`", knobs)) == cli._PARAM_KEYS - {"backend", "expected"}

    def test_knob_table_lists_the_cutoff_caps(self):
        caps = cli._CUTOFF_CAPS
        listed = ", ".join(map(str, caps[:-1])) + f" and {caps[-1]}"
        assert f"at most {listed} in dimensions 1, 2, 3 and 4" in self.knob_rows("okounkov")

    def test_knob_table_lists_the_submult_caps(self):
        caps = cli._SUBMULT_CAPS
        listed = ", ".join(map(str, caps[:-1])) + f" and {caps[-1]}"
        row = self.knob_rows("verify")
        assert f"`submult_bound`: 8, at most {listed} in dimensions 1, 2, 3 and 4" in row

    def test_knob_table_lists_the_ladder_caps(self):
        caps = cli._LADDER_CAPS
        listed = ", ".join(map(str, caps[:-1])) + f" and {caps[-1]}"
        row = self.knob_rows("multiplicity")
        assert f"the ladder reads, at most {listed} in dimensions 1, 2, 3 and 4" in row
        # the same caps bound colength's levels rows
        row = self.knob_rows("colength")
        assert f"deepest entry at most {listed} in dimensions 1, 2, 3 and 4" in row

    def test_python_blocks_print_what_their_comments_state(self, capsys):
        # Each block runs in one shared namespace, as a reader would paste
        # them.  A comment line states the next printed line; a comment
        # after a print states its output, up to the first comma.
        readme = self.README.read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        namespace, stated = {}, []
        for block in blocks:
            for line in block.splitlines():
                if line.startswith("# "):
                    stated.append(line[2:])
                elif line.startswith("print(") and "#" in line:
                    stated.append(line.split("#", 1)[1].split(",", 1)[0].strip())
            exec(compile(block, "README.md", "exec"), namespace)
        assert stated == ["(2, 0) 1", "(1, 1) 1", "(0, 2) 2", "181/128", "58/41"]
        assert capsys.readouterr().out.splitlines() == stated

    def knob_rows(self, command):
        """The rows of README's knob table whose first cell names command."""
        section = self.README.read_text(encoding="utf-8").split("### Config format", 1)[1]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        return "\n".join(row for row in rows if f"`{command}`" in row.split(" | ")[0])

    @pytest.mark.parametrize(
        "command, config, key, value, documented",
        [
            pytest.param(*case, id=f"{case[0]}-{case[2]}-{Path(case[1]).stem}")
            for case in (
                ("colength", PLANE_PAIR, "levels", [[1, 1]], "`levels`: `[[1, …, 1]]`"),
                ("multiplicity", LINE_PLUS, "backend", "direct", '`backend`: `"direct"`'),
                ("multiplicity", LINE_PLUS, "ladder", [8, 16, 32], "`ladder`: `[8, 16, 32]`"),
                ("multiplicity", LINE_PLUS, "order", 2, "`order`: 2"),
                ("okounkov", PLANE_PAIR, "sigma", [1, 1], "`sigma`: all ones"),
                ("okounkov", PLANE_PAIR, "cutoff", 16, "`cutoff`: 16"),
                ("verify", PLANE_PAIR, "submult_bound", 8, "`submult_bound`: 8"),
                (
                    "verify", LINE_PLUS, "zero_threshold", "1/1000",
                    '`zero_threshold`: `"1/1000"`',
                ),
                ("verify", SQRT2, "cutoff", 16, "`cutoff`: 16 when r = 1"),
                ("verify", PLANE_PAIR, "cutoff", 8, "8 when r ≥ 2"),
                ("verify", PLANE_PAIR, "sigma", [1, 0], "`sigma`: e₁ `[1, 0, …, 0]`"),
                ("verify", PLANE_PAIR, "tau", [0, 1], "`tau`: the rest, `[0, 1, …, 1]`"),
            )
        ],
    )
    def test_default_is_the_documented_value(
        self, capsys, tmp_path, command, config, key, value, documented
    ):
        assert documented in self.knob_rows(command)
        cfg = read_config(config)
        cfg["params"].pop(key, None)
        outs = []
        for name in ("without.json", "with.json"):
            path = write_config(tmp_path, cfg, name)
            rc, out, err = run(capsys, [command, "--config", path, "--no-timestamp"])
            assert (rc, err) == (0, "")
            outs.append(out)
            cfg["params"][key] = value
        assert outs[0] == outs[1]


class TestCheckBound:
    def test_the_period_needs_no_bound(self, capsys, tmp_path):
        # the 4-truncation's period is 2; period 1 holds at i = 1 only
        cfg = read_config(SQRT2)
        cfg["params"] = {"backend": "truncation-exact", "trunc_level": 4}
        path = write_config(tmp_path, cfg)
        rc, out, _ = run(capsys, ["multiplicity", "--config", path, "--no-timestamp"])
        assert rc == 0
        mult = json.loads(out)["per_filtration"][0]["multiplicity"]
        assert mult["exact"] == "3/2"
        assert "exact along period 2, certified for i <= 16;" in mult["note"]


class TestVerifyFailures:
    def test_wrong_expected_coefficient(self, capsys, tmp_path):
        cfg = read_config(PLANE_PAIR)
        cfg["params"]["expected"]["coefficients"]["1,1"] = "7"
        rc, out, err = run(
            capsys, ["verify", "--config", write_config(tmp_path, cfg), "--no-timestamp"]
        )
        assert rc == 2
        assert "verify failed: expected-coefficients" in err
        obj = json.loads(out)
        assert obj["ok"] is False
        assert "expected-coefficients" in obj["failed"]

    def test_wrong_expected_colength(self, capsys, tmp_path):
        cfg = read_config(PLANE_PAIR)
        cfg["params"]["expected"]["colength"]["1,1"] = "5"
        rc, _, err = run(
            capsys, ["verify", "--config", write_config(tmp_path, cfg), "--no-timestamp"]
        )
        assert rc == 2
        assert "verify failed: expected-colength" in err

    @pytest.mark.parametrize("want, rc", [("181/128", 0), ("363/256", 2)])
    def test_tolerance_sets_only_the_expected_match(self, capsys, tmp_path, want, rc):
        # the direct ladder reads 181/128; 363/256 is 1/256 away, beyond
        # tolerance 1/1000, while the body checks keep their own thresholds
        cfg = read_config(SQRT2)
        cfg["params"]["expected"] = {"multiplicity": {"0": want}}
        cfg["params"]["tolerance"] = "1/1000"
        got, out, _ = run(
            capsys, ["verify", "--config", write_config(tmp_path, cfg), "--no-timestamp"]
        )
        assert got == rc
        obj = json.loads(out)
        assert obj["failed"] == ([] if rc == 0 else ["expected-multiplicity"])
        checks = {c["name"]: c for c in obj["checks"]}
        assert checks["volume-identity"]["detail"] == "discrepancy 1/384 vs tolerance 1/4"
        assert checks["origin-collapse"]["report"]["tolerance"] == "1/8"

    def test_expected_multiplicity_index_out_of_range(self, capsys, tmp_path):
        cfg = read_config(PLANE_PAIR)
        cfg["params"]["expected"]["multiplicity"] = {"-1": "2"}
        rc, out, err = run(
            capsys, ["verify", "--config", write_config(tmp_path, cfg), "--no-timestamp"]
        )
        assert rc == 1
        assert out == ""
        assert (
            "config error: expected multiplicity key must be a filtration index in [0, 2): '-1'"
            in err
        )


class TestSharedPipeline:
    """verify builds one growth pipeline and every check that needs it reads
    that one, so each filtration is certified once per run."""

    def test_each_filtration_certified_once(self, capsys, monkeypatch):
        calls = []
        real = mu.noetherian_period

        def counted(f, *args):
            calls.append(f)
            return real(f, *args)

        monkeypatch.setattr(mu, "noetherian_period", counted)
        rc, _, _ = run(capsys, ["verify", "--config", PLANE_PAIR, "--no-timestamp"])
        assert rc == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("config, fits", [(PLANE_PAIR, 2), (LINE_PLUS, 4)])
    def test_each_report_fitted_once(self, capsys, monkeypatch, config, fits):
        # a mixed report fits twice (value and lower evidence); line plus
        # powers also fits its reduced instance
        calls = []
        real = mu.fit_homogeneous

        def counted(*args):
            calls.append(args[2:])
            return real(*args)

        monkeypatch.setattr(mu, "fit_homogeneous", counted)
        rc, _, _ = run(capsys, ["verify", "--config", config, "--no-timestamp"])
        assert rc == 0
        assert len(calls) == fits

    def test_failed_setup_fails_each_dependent_check(self, capsys, monkeypatch):
        def uncertified(f, *args):
            raise PeriodNotCertified(1, 1)

        monkeypatch.setattr(mu, "noetherian_period", uncertified)
        rc, out, _ = run(capsys, ["verify", "--config", PLANE_PAIR, "--no-timestamp"])
        assert rc == 2
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        dependent = ["positivity", "expected-coefficients", "expected-multiplicity"]
        assert json.loads(out)["failed"] == dependent
        for name in dependent:
            assert checks[name]["detail"].startswith("check raised PeriodNotCertified")
        for name in (
            "submultiplicative[c0.f0]",
            "submultiplicative[c0.f1]",
            "minkowski",
            "expected-colength",
        ):
            assert checks[name]["passed"] is True


class TestSharedWork:
    """Work that two parts of one command need is done once."""

    @pytest.mark.parametrize(
        "argv, parses",
        [
            (["colength", "--config", PLANE_PAIR], 1),
            (["multiplicity", "--config", PLANE_PAIR], 1),
            (["mixed", "--config", SQRT2_TRUNC], 1),
            (["okounkov", "--config", SQRT2], 1),
            (["verify", "--config", PLANE_PAIR], 1),
            # the built-in model is built, never read from a spec
            (["example1"], 0),
        ],
    )
    def test_each_command_parses_its_model_once(self, capsys, monkeypatch, argv, parses):
        calls = []
        real = serialize.model_from_json

        def counted(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(serialize, "model_from_json", counted)
        rc, _, _ = run(capsys, argv + ["--no-timestamp"])
        assert rc == 0
        assert len(calls) == parses

    def test_verify_builds_one_value_semigroup(self, capsys, monkeypatch):
        # volume-identity and origin-collapse read the same semigroup
        calls = []
        real = okounkov.value_semigroup

        def counted(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(okounkov, "value_semigroup", counted)
        rc, _, _ = run(capsys, ["verify", "--config", SQRT2, "--no-timestamp"])
        assert rc == 0
        assert calls == [((1,), 2, 16)]

    def test_mixed_certifies_trunc_level_once(self, capsys, monkeypatch):
        # trunc_level 4 is also a rung of truncation_levels [1, 2, 4]; the
        # ladder runs first and the model's report is its last entry
        levels = []
        real = mu.noetherian_period

        def counted(f, *args):
            levels.append(f.a)
            return real(f, *args)

        monkeypatch.setattr(mu, "noetherian_period", counted)
        rc, out, _ = run(capsys, ["mixed", "--config", SQRT2_TRUNC, "--no-timestamp"])
        assert rc == 0
        assert levels == [1, 2, 4]
        payload = json.loads(out)
        assert payload["ladder"]["entries"][-1]["mixed"] == payload["mixed"]


class TestDeterminism:
    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, ["mixed", "--config", PLANE_PAIR, "--no-timestamp"])
        _, second, _ = run(capsys, ["mixed", "--config", PLANE_PAIR, "--no-timestamp"])
        assert first == second

    def test_timestamp_present_by_default(self, capsys):
        rc, out, _ = run(capsys, ["mixed", "--config", PLANE_PAIR])
        assert rc == 0
        assert "generated_at" in json.loads(out)

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = run(
            capsys,
            ["mixed", "--config", PLANE_PAIR, "--no-timestamp", "--out", str(target)],
        )
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["command"] == "mixed"


def two_branch_config():
    """The built-in two-component model on a short direct ladder, with an
    expected value in each section; its positivity check takes the
    multi-component branch."""
    return {
        "model": TWO_BRANCH,
        "params": {
            "ladder": [16, 32, 64],
            "order": 3,
            "expected": {
                "coefficients": {"2,0": "1", "1,1": "0", "0,2": "1"},
                "colength": {"1,1": "6", "2,2": "14"},
                "multiplicity": {"0": "1", "1": "1"},
            },
        },
    }


def plane_pair_wrong_coefficient():
    cfg = read_config(PLANE_PAIR)
    cfg["params"]["expected"]["coefficients"]["1,1"] = "7"
    return cfg


EXACT_EXAMPLE1 = {"params": {"backend": "truncation-exact", "trunc_level": 1}}


class TestPinnedOutputs:
    """Full stdout bytes of runs that tests/cli_golden.json (shipped configs
    only) does not cover, as sha256 digests."""

    @pytest.mark.parametrize(
        "command, config, rc, digest",
        [
            (
                "verify",
                two_branch_config,
                0,
                "8cd5688a0f7d6dc4d3a4b3d1e6cc1adcc03915e72b586ede7d357c0ad7e503aa",
            ),
            (
                "multiplicity",
                two_branch_config,
                0,
                "49060a74f2c470a9699a824f485f45c0038c22cce84cc642d20f8754fe2a3313",
            ),
            (
                "mixed",
                two_branch_config,
                0,
                "d69b2cfb940323c0d4400b4c2dcde3ea4ad77eff5279454a5dc112b4f0d2aafa",
            ),
            (
                "verify",
                plane_pair_wrong_coefficient,
                2,
                "44ac48459211fc6456ca80e43e29633931773e8d2598429141618c7d4666917b",
            ),
            (
                "example1",
                lambda: EXACT_EXAMPLE1,
                0,
                "4db4374a51c8a378656eb4f06baf97d3b15eaaf27382585001812d542a552376",
            ),
        ],
    )
    def test_stdout_digest(self, capsys, tmp_path, command, config, rc, digest):
        path = write_config(tmp_path, config())
        got_rc, out, _ = run(capsys, [command, "--config", path, "--no-timestamp"])
        assert got_rc == rc
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_example1_builds_one_pipeline(self, capsys, tmp_path, monkeypatch):
        # two components of two filtrations: one certification each
        calls = []
        real = mu.noetherian_period

        def counted(f, *args):
            calls.append(f)
            return real(f, *args)

        monkeypatch.setattr(mu, "noetherian_period", counted)
        path = write_config(tmp_path, EXACT_EXAMPLE1)
        rc, _, _ = run(capsys, ["example1", "--config", path, "--no-timestamp"])
        assert rc == 0
        assert len(calls) == 4

