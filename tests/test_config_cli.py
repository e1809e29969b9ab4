"""Config parsing and the command-line front end (exit codes, output formats)."""
import dataclasses
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dirichlet_bandits import (
    BanditState,
    ConfigError,
    SolverOptions,
    load_instance,
    point_mass,
    value_one_armed,
)
from dirichlet_bandits import cli, config
from dirichlet_bandits.cli import main
from dirichlet_bandits.solver import (
    MEMO_CAP_ENV,
    Action,
    BanditSolver,
    PolicyNode,
    StateKey,
    ValueReport,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "demos" / "configs"
WORKED = str(CONFIG_DIR / "coin_vs_known_half.json")
ONE_ARMED = str(CONFIG_DIR / "coin_one_armed.json")
THREE_ATOM = str(CONFIG_DIR / "three_atom_two_armed.json")


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(p)


class TestConfig:
    def test_known_desugars_to_point_mass(self):
        cfg = load_instance(WORKED)
        assert cfg.arm2_known
        assert cfg.arm2.atoms == ((0.5, 1.0),)
        assert cfg.discount.values == (1.0, 1.0)

    def test_absent_arm2(self):
        cfg = load_instance(ONE_ARMED)
        assert cfg.arm2 is None and not cfg.arm2_known
        with pytest.raises(ConfigError):
            cfg.state()

    def test_exact_mode_parses_decimals_losslessly(self, tmp_path):
        path = write(
            tmp_path,
            "d.json",
            {
                "arm1": {"atoms": [{"location": 0.1, "weight": 1}]},
                "discount": {"values": [0.3]},
                # Unknown option keys, such as "parallel", are ignored.
                "options": {"mode": "exact", "parallel": True},
            },
        )
        cfg = load_instance(path)
        assert cfg.arm1.atoms[0][0] == Fraction(1, 10)
        assert cfg.discount.values[0] == Fraction(3, 10)
        assert cfg.options == SolverOptions(mode="exact")

    def test_fraction_strings(self, tmp_path):
        path = write(
            tmp_path,
            "f.json",
            {
                "arm1": {"atoms": [{"location": "2/3", "weight": "1/2"}]},
                "discount": {"family": "geometric", "n": 3, "beta": "1/2"},
            },
        )
        cfg = load_instance(path)
        assert cfg.arm1.atoms[0][0] == pytest.approx(2 / 3)
        assert cfg.discount.values == (1.0, 0.5, 0.25)

    def test_force_mode_overrides_config(self):
        cfg = load_instance(WORKED, force_mode="exact")
        assert cfg.options.exact
        assert cfg.arm2.atoms[0][0] == Fraction(1, 2)

    def test_json_error_carries_position(self, tmp_path):
        path = write(tmp_path, "broken.json", '{"arm1": [}')
        with pytest.raises(ConfigError) as exc:
            load_instance(path)
        assert exc.value.line == 1
        assert exc.value.column is not None

    @pytest.mark.parametrize(
        "doc",
        [
            {"discount": {"values": [1]}},
            {"arm1": {"atoms": []}, "discount": {"values": [1]}},
            {"arm1": {"atoms": [{"location": 0}]}, "discount": {"values": [1]}},
            {"arm1": {"atoms": [{"location": 0, "weight": 1}]}},
            {"arm1": {"atoms": [{"location": 0, "weight": 1}]}, "discount": {}},
            {"arm1": {"atoms": [{"location": 0, "weight": -1}]}, "discount": {"values": [1]}},
            {"arm1": {"atoms": [{"location": 0, "weight": 1}]}, "discount": {"values": [1]}, "options": {"mode": "weird"}},
        ],
    )
    def test_schema_errors(self, tmp_path, doc):
        path = write(tmp_path, "bad.json", doc)
        with pytest.raises(ConfigError):
            load_instance(path)

    @pytest.mark.parametrize("patch, message", [
        ({"arm1": {"atoms": [{"location": None, "weight": 1}]}},
         "arm1.atoms[0]: expected a number, got None"),
        ({"arm1": 3}, "arm1: expected an object"),
        ({"arm1": {}}, "arm1: needs 'atoms' or 'known'"),
        ({"discount": 5}, "discount: expected an object"),
        ({"discount": {"values": []}}, "discount.values must be a nonempty list"),
        ({"discount": {"family": "uniform"}}, "discount: missing field 'n'"),
        ({"discount": {"family": "geometric", "n": 3}}, "discount: missing field 'beta'"),
        ({"options": 5}, "options: expected an object"),
        (None, "top level must be an object"),
    ], ids=["null-location", "arm-number", "arm-empty", "discount-number", "values-empty",
            "uniform-without-n", "geometric-without-beta", "options-number", "top-level-list"])
    def test_each_refusal_exits_2_with_its_message(self, patch, message, tmp_path, capsys):
        doc = [] if patch is None else {
            "arm1": {"atoms": [{"location": 0, "weight": 1}, {"location": 1, "weight": 1}]},
            "discount": {"values": [1, 1]}, **patch,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["lambda", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"


class TestCliValue:
    def test_float_output(self, capsys):
        assert main(["value", WORKED]) == 0
        out = capsys.readouterr().out
        fields = dict(
            line.split(" = ") for line in out.strip().splitlines() if " = " in line
        )
        assert float(fields["W"]) == pytest.approx(13 / 12, abs=1e-9)
        assert float(fields["W2"]) == pytest.approx(1.0)
        assert fields["action"] == "arm1"

    def test_exact_output_prints_fractions(self, capsys):
        assert main(["value", WORKED, "--exact"]) == 0
        out = capsys.readouterr().out
        assert "W = 13/12" in out

    def test_policy_flag_prints_tree(self, capsys):
        assert main(["value", WORKED, "--policy", "2"]) == 0
        out = capsys.readouterr().out
        assert "stage=0" in out and "obs" in out and "action=arm" in out

    def test_policy_deeper_than_the_recursion_limit_prints(self, capsys):
        # A one-atom arm against a known arm makes a chain, one node a stage.
        depth = sys.getrecursionlimit() + 100
        node = None
        for stage in reversed(range(depth)):
            report = ValueReport(float(depth - stage), 1.0, 0.0, Action.ARM1)
            branches = () if node is None else ((0.5, node),)
            node = PolicyNode(StateKey((stage,), (0,), stage), Action.ARM1, report, branches)
        cli._print_policy(node)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == depth
        assert lines[0] == f"stage=0 counts=[0]/[0] action=arm1 w={depth}"
        assert lines[-1] == (
            f"{'  ' * (depth - 1)}obs 0.5 -> stage={depth - 1} counts=[{depth - 1}]/[0] action=arm1 w=1"
        )

    def test_three_atom_instance_runs(self, capsys):
        assert main(["value", THREE_ATOM]) == 0
        out = capsys.readouterr().out
        assert out.startswith("W = ")

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["value", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_file_exits_2(self):
        assert main(["value", "/nonexistent/x.json"]) == 2

    def test_unexpected_exception_exits_6(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "value", boom)
        assert main(["value", WORKED]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: boom\n"

    def test_memo_cap_env_exits_3(self, capsys, monkeypatch):
        monkeypatch.setenv(MEMO_CAP_ENV, "2")
        assert main(["value", THREE_ATOM]) == 3
        monkeypatch.delenv(MEMO_CAP_ENV)

    def test_policy_tree_over_the_node_budget_exits_3(self, tmp_path, capsys):
        doc = {
            "arm1": {"atoms": [{"location": 0, "weight": 1}, {"location": 1, "weight": 1}]},
            "arm2": {"atoms": [{"location": 0.25, "weight": 1}, {"location": 0.75, "weight": 2}]},
            "discount": {"family": "uniform", "n": 40},
        }
        t0 = time.perf_counter()
        assert main(["value", write(tmp_path, "deep.json", doc), "--policy", "30"]) == 3
        assert time.perf_counter() - t0 < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "solver resource error: policy tree to depth 30 with up to 2 branches a node "
            "exceeds the cap of 50000000 nodes\n"
        )

    def test_known_arm_is_budgeted_on_the_unknown_arm_alone(self, tmp_path, capsys):
        # A coin against a known 1/2 at n = 1200 is solved in stopping form
        # over the coin's 720,600 lattice states; the two-armed lattice holds
        # 288,720,400, over the default cap, and a non-regular sequence takes it.
        doc = {**json.loads(Path(WORKED).read_text()), "discount": {"family": "uniform", "n": 1200}}
        assert main(["value", write(tmp_path, "long.json", doc)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "W = 747.3124842"
        doc["discount"] = {"values": [1, 0] + [1] * 1198}
        assert main(["value", write(tmp_path, "long.json", doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "solver resource error: lattice of 288720400 states exceeds the cap of 50000000\n"
        )

    def test_negative_memo_cap_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(MEMO_CAP_ENV, "-5")
        assert main(["value", THREE_ATOM]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {MEMO_CAP_ENV} must be nonnegative, got -5\n"

    def test_malformed_memo_cap_env_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv(MEMO_CAP_ENV, "12k")
        assert main(["value", THREE_ATOM]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad {MEMO_CAP_ENV} value '12k'\n"

    @pytest.mark.parametrize("tie_tol", [-1, "-1e-300"])
    def test_negative_tie_tolerance_in_config_exits_2(self, tie_tol, tmp_path, capsys):
        doc = {**json.loads(Path(WORKED).read_text()), "options": {"tie_tol": tie_tol}}
        assert main(["value", write(tmp_path, "tie.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: options.tie_tol must be finite and nonnegative")
        assert captured.err.count("\n") == 1

    def test_negative_memo_cap_in_config_exits_2(self, tmp_path, capsys):
        doc = {**json.loads(Path(WORKED).read_text()), "options": {"memo_cap": -1}}
        assert main(["value", write(tmp_path, "cap.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: options.memo_cap must be nonnegative, got -1\n"

    @pytest.mark.parametrize(
        "field, parts",
        [
            # The loader reads a bare 1e999 literal as the text "1e999".
            ("arm1.atoms[0]", {"arm1": {"atoms": [{"location": "1e999", "weight": 1}]}}),
            ("arm1.atoms[0]", {"arm1": {"atoms": [{"location": 0, "weight": "1e999"}]}}),
            ("arm1.atoms[0]", {"arm1": {"atoms": [{"location": -math.inf, "weight": 1}]}}),
            ("arm1.atoms[0]", {"arm1": {"atoms": [{"location": 0, "weight": math.inf}]}}),
            ("arm2", {"arm2": {"known": math.inf}}),
            ("discount.values", {"discount": {"values": [1, "1e999"]}}),
            ("discount.values", {"discount": {"values": [math.inf]}}),
            ("discount", {"discount": {"family": "uniform", "n": math.inf}}),
            ("options.tie_tol", {"options": {"tie_tol": "1e999"}}),
            ("options", {"options": {"memo_cap": math.inf}}),
        ],
    )
    def test_overflowing_number_exits_2(self, field, parts, tmp_path, capsys):
        doc = {**json.loads(Path(WORKED).read_text()), **parts}
        assert main(["value", write(tmp_path, "big.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"config error: {field}")

    @pytest.mark.parametrize(
        "field, parts",
        [
            ("discount.n", {"discount": {"family": "uniform", "n": True}}),
            ("discount.n", {"discount": {"family": "geometric", "n": True, "beta": 0.5}}),
            ("discount.n", {"discount": {"family": "uniform", "n": False}}),
            ("options.memo_cap", {"options": {"memo_cap": True}}),
        ],
    )
    def test_boolean_integer_exits_2(self, field, parts, tmp_path, capsys):
        doc = {**json.loads(Path(WORKED).read_text()), **parts}
        assert main(["value", write(tmp_path, "bool.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"config error: {field}: expected an integer")

    @pytest.mark.parametrize(
        "field, parts",
        [
            # 2.5 used to solve two stages, and "3" was read as 3.
            ("discount.n", {"discount": {"family": "uniform", "n": 2.5}}),
            ("discount.n", {"discount": {"family": "uniform", "n": "3"}}),
            ("discount.n", {"discount": {"family": "geometric", "n": "3", "beta": 0.5}}),
            ("options.memo_cap", {"options": {"memo_cap": 1000.5}}),
            ("options.memo_cap", {"options": {"memo_cap": "1000"}}),
        ],
    )
    def test_fractional_or_text_integer_exits_2(self, field, parts, tmp_path, capsys):
        doc = {**json.loads(Path(WORKED).read_text()), **parts}
        assert main(["value", write(tmp_path, "int.json", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"config error: {field}: expected an integer")


class TestCliIndices:
    @pytest.mark.parametrize("command, key, want", [("lambda", "lambda", "0.5555555556"),
                                                    ("breakeven", "b", "0.6666666667")])
    def test_coin_index_to_ten_digits(self, command, key, want, capsys):
        assert main([command, ONE_ARMED]) == 0
        assert capsys.readouterr().out.splitlines()[0] == f"{key} = {want}"

    @pytest.mark.parametrize("command", ["lambda", "breakeven"])
    def test_memo_cap_in_config_exits_3(self, command, tmp_path, capsys):
        doc = {**json.loads(Path(ONE_ARMED).read_text()), "options": {"memo_cap": 1}}
        assert main([command, write(tmp_path, "cap.json", doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "solver resource error: lattice of 3 states exceeds the cap of 1\n"
        )

    @pytest.mark.parametrize("command, key, want", [("lambda", "lambda", "5/9"),
                                                    ("breakeven", "b", "2/3")])
    def test_exact_mode_in_config_prints_the_rational_root(
        self, command, key, want, tmp_path, capsys
    ):
        doc = {**json.loads(Path(ONE_ARMED).read_text()), "options": {"mode": "exact"}}
        assert main([command, write(tmp_path, "exact.json", doc)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{key} = {want}", f"bracket = [{want}, {want}]", "iterations = 2", "residual = 0"
        ]

    def test_lambda(self, capsys):
        assert main(["lambda", ONE_ARMED]) == 0
        out = capsys.readouterr().out
        lam = float(out.splitlines()[0].split(" = ")[1])
        assert lam == pytest.approx(5 / 9, abs=1e-8)
        assert "residual =" in out and "iterations =" in out

    def test_lambda_accepts_known_arm2(self, capsys):
        assert main(["lambda", WORKED]) == 0

    def test_lambda_long_horizon(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "long.json",
            {"arm1": {"atoms": [{"location": 0, "weight": 1}, {"location": 1, "weight": 1}]},
             "discount": {"family": "uniform", "n": 600}},
        )
        assert main(["lambda", path]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("lambda = ")
        assert captured.err == ""

    def test_breakeven(self, capsys):
        assert main(["breakeven", ONE_ARMED]) == 0
        out = capsys.readouterr().out
        b = float(out.splitlines()[0].split(" = ")[1])
        assert b == pytest.approx(2 / 3, abs=1e-8)

    def test_non_regular_exits_4(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "nr.json",
            {
                "arm1": {"atoms": [{"location": 0, "weight": 1}, {"location": 1, "weight": 1}]},
                "discount": {"values": [1, 0, 1]},
            },
        )
        assert main(["lambda", path]) == 4

    def test_non_regular_with_small_weights_exits_4(self, tmp_path, capsys):
        # Tails of 1e-7 used to pass the regularity test: lambda printed
        # 0.6280788177 and exited 0, where the same sequence times 1e7 exits 4.
        doc = {
            "arm1": {"atoms": [{"location": 0, "weight": 1}, {"location": 1, "weight": 1}]},
            "discount": {"values": [1e-7, 0, 1e-7, 1e-7, 0, 1e-7]},
        }
        assert main(["lambda", write(tmp_path, "small.json", doc)]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "regular" in captured.err
        cfg = load_instance(write(tmp_path, "small.json", doc))
        one_armed = value_one_armed(cfg.arm1, 0.3, cfg.discount)
        state = BanditState(cfg.arm1, point_mass(0.3), cfg.discount)
        assert one_armed == BanditSolver(state, keep=1).report()

    @pytest.mark.parametrize("command", ["lambda", "breakeven"])
    def test_nan_tolerance_exits_2(self, command, capsys):
        assert main([command, ONE_ARMED, "--tol", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "tolerance" in captured.err

    def test_two_armed_config_exits_5(self, capsys):
        assert main(["lambda", THREE_ATOM]) == 5
        assert "one-armed" in capsys.readouterr().err

    def test_breakeven_short_horizon_exits_5(self, tmp_path):
        path = write(
            tmp_path,
            "short.json",
            {"arm1": {"atoms": [{"location": 0, "weight": 1}]}, "discount": {"values": [1]}},
        )
        assert main(["breakeven", path]) == 5

    def test_breakeven_zero_weight_exits_5(self, tmp_path):
        path = write(
            tmp_path,
            "zw.json",
            {
                "arm1": {"atoms": [{"location": 0, "weight": 1}, {"location": 1, "weight": 1}]},
                "discount": {"values": [1, 1, 0]},
            },
        )
        assert main(["breakeven", path]) == 5


class TestCliFloatRange:
    """A float solve whose values can pass the float range is refused
    before its pass runs, rather than printing inf or nan.  Any numpy
    overflow warning would fail these tests (pyproject.toml)."""

    HUGE = {"atoms": [{"location": 1e307, "weight": 1}, {"location": 0, "weight": 1}]}
    COIN = {"atoms": [{"location": 0, "weight": 1}, {"location": 1, "weight": 1}]}

    @pytest.mark.parametrize("argv, doc, total", [
        (["value"], {"arm1": HUGE, "arm2": COIN}, 30),
        (["value"], {"arm1": COIN, "arm2": {"known": 1e307}}, 30),
        (["lambda"], {"arm1": HUGE}, 100),
        (["breakeven"], {"arm1": HUGE}, 100),
        (["sweep", "--param", "mass", "--grid", "1,2"], {"arm1": HUGE}, 100),
    ], ids=["value", "value-known-rate", "lambda", "breakeven", "sweep"])
    def test_out_of_range_float_solve_exits_2(self, argv, doc, total, tmp_path, capsys):
        doc = {**doc, "discount": {"family": "uniform", "n": total}}
        path = write(tmp_path, "huge.json", doc)
        assert main(argv[:1] + [path] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: a float solve with |locations| up to 1e+307 under discounts totalling "
            f"{total} leaves the float range; solve it in exact mode\n"
        )
        # Exact arithmetic has no range to leave.
        if argv == ["value"]:
            assert main(["value", path, "--exact"]) == 0

    def test_locations_within_range_still_solve(self, tmp_path, capsys):
        atoms = [{"location": 1e306, "weight": 1}, {"location": 0, "weight": 1}]
        path = write(tmp_path, "large.json",
                     {"arm1": {"atoms": atoms}, "discount": {"family": "uniform", "n": 100}})
        assert main(["lambda", path]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "lambda = 8.684566588e+305"
        assert captured.err == ""


class TestCliRefusalOrder:
    """A stopping solve checks regularity, then the lattice budget, then the
    float range: a config with several faults exits with the first one's code."""

    HUGE = TestCliFloatRange.HUGE

    @pytest.mark.parametrize("command", ["lambda", "breakeven"])
    def test_non_regular_over_the_cap_and_out_of_range_exits_4(
        self, command, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(MEMO_CAP_ENV, "1")
        doc = {"arm1": self.HUGE, "discount": {"values": [28, 1, 1]}}
        assert main([command, write(tmp_path, "nr.json", doc)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the stopping form and break-even quantities require a regular "
            "discount sequence\n"
        )

    @pytest.mark.parametrize("argv, arm2", [
        (["lambda"], None), (["breakeven"], None), (["value"], {"known": "1/2"}),
    ], ids=["lambda", "breakeven", "value"])
    def test_over_the_cap_and_out_of_range_exits_3_and_within_the_cap_2(
        self, argv, arm2, tmp_path, capsys, monkeypatch
    ):
        doc = {"arm1": self.HUGE, "discount": {"values": [1] * 30}}
        if arm2 is not None:
            doc["arm2"] = arm2
        path = write(tmp_path, "huge.json", doc)
        monkeypatch.setenv(MEMO_CAP_ENV, "1")
        assert main(argv + [path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "solver resource error: lattice of 465 states exceeds the cap of 1\n"
        monkeypatch.delenv(MEMO_CAP_ENV)
        assert main(argv + [path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: a float solve with |locations| up to 1e+307 under discounts totalling "
            "30 leaves the float range; solve it in exact mode\n"
        )


class TestCliFamilyHorizonBudget:
    """A family's horizon is budgeted when the config is loaded, before its
    sequence is built, against the smallest lattice a command walks."""

    COIN = TestCliFloatRange.COIN

    @pytest.mark.parametrize("family", [{"family": "uniform"},
                                        {"family": "geometric", "beta": "9/10"}],
                             ids=["uniform", "geometric"])
    @pytest.mark.parametrize("argv", [
        ["value"], ["lambda"], ["breakeven"], ["sweep", "--param", "mass", "--grid", "1,2"],
    ], ids=["value", "lambda", "breakeven", "sweep"])
    def test_a_horizon_far_past_the_budget_exits_3_before_building_it(
        self, argv, family, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the sequence was built before the budget check")

        monkeypatch.setattr(config, "make_uniform", refuse)
        monkeypatch.setattr(config, "make_truncated_geometric", refuse)
        doc = {"arm1": self.COIN, "arm2": {"known": "1/2"},
               "discount": {**family, "n": 10**12}}
        assert main(argv[:1] + [write(tmp_path, "huge_n.json", doc)] + argv[1:]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "solver resource error: lattice of 500000000000500000000000 states exceeds "
            "the cap of 50000000\n"
        )

    def test_the_larger_of_the_config_and_default_caps_applies(self, tmp_path, capsys):
        # sweep solves under the default cap, so a config cap of 1 loads the
        # coin at n = 100 (5050 states); lambda then refuses it when it solves.
        doc = {"arm1": self.COIN, "discount": {"family": "uniform", "n": 100},
               "options": {"memo_cap": 1}}
        path = write(tmp_path, "small_cap.json", doc)
        assert main(["sweep", path, "--param", "mass", "--grid", "1,2"]) == 0
        capsys.readouterr()
        assert main(["lambda", path]) == 3
        assert capsys.readouterr().err == (
            "solver resource error: lattice of 5050 states exceeds the cap of 1\n"
        )

    def test_a_spread_sweep_that_merges_atoms_still_solves(self, tmp_path, capsys, monkeypatch):
        # Splitting the middle atom by 1/2 lands its halves on the other two:
        # the sweep walks a 2-atom lattice (210 states at n = 20) where lambda
        # walks arm 1's 3-atom one (1540).
        monkeypatch.setenv(MEMO_CAP_ENV, "1000")
        atoms = [{"location": 0, "weight": 1}, {"location": "1/2", "weight": 2},
                 {"location": 1, "weight": 1}]
        doc = {"arm1": {"atoms": atoms}, "discount": {"family": "uniform", "n": 20}}
        path = write(tmp_path, "spread.json", doc)
        assert main(["sweep", path, "--param", "spread", "--grid", "0.5"]) == 0
        capsys.readouterr()
        assert main(["lambda", path]) == 3
        assert capsys.readouterr().err == (
            "solver resource error: lattice of 1540 states exceeds the cap of 1000\n"
        )
        doc["discount"]["n"] = 50
        assert main(["sweep", write(tmp_path, "spread.json", doc),
                     "--param", "spread", "--grid", "0.5"]) == 3
        assert capsys.readouterr().err == (
            "solver resource error: lattice of 1275 states exceeds the cap of 1000\n"
        )


class TestCliVerify:
    def test_single_suite_with_report_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["verify", "oracle", "--seed", "7", "--trials", "10",
                     "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert len(doc["suites"]) == 1
        assert doc["suites"][0]["suite"] == "oracle"
        assert doc["suites"][0]["violations"] == []
        table = capsys.readouterr().out
        assert "oracle" in table

    def test_all_runs_nine_sections(self, capsys):
        assert main(["verify", "all", "--seed", "1", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        for name in ("lemma1", "thm1", "thm2", "lemma3", "lemma4",
                     "prop1", "strictness", "oracle", "montecarlo"):
            assert name in out

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nosuch"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trial_count_below_one_exits_2(self, trials, capsys):
        assert main(["verify", "lemma3", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "trials" in captured.err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, jobs, capsys):
        assert main(["verify", "lemma3", "--trials", "2", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "jobs" in captured.err

    def test_negative_seed_exits_2(self, capsys):
        assert main(["verify", "lemma3", "--seed", "-1", "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "seed" in captured.err

    def test_unwritable_report_file_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "report.json"
        assert main(["verify", "oracle", "--trials", "2", "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(out_path) in captured.err

    def test_report_files_are_identical_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["verify", "thm2", "--seed", "3", "--trials", "5", "--out", str(p1)])
        main(["verify", "thm2", "--seed", "3", "--trials", "5", "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()


class TestCliOutFile:
    """An unwritable --out file fails before any work runs."""

    @pytest.mark.parametrize("argv, work", [
        (["verify", "all"], "run_suites"),
        (["sweep", ONE_ARMED, "--param", "mass", "--grid", "1,2"], "index_sweep"),
    ], ids=["verify", "sweep"])
    def test_no_work_runs(self, argv, work, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{work} ran before the --out file was opened")

        monkeypatch.setattr(cli, work, refuse)
        out_path = tmp_path / "missing" / "out"
        assert main(argv + ["--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write --out file: ")
        assert captured.err.count("\n") == 1 and str(out_path) in captured.err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["verify", "lemma3", "--trials", "1"],
        ["sweep", ONE_ARMED, "--param", "mass", "--grid", "1,2"],
    ], ids=["verify", "sweep"])
    def test_a_failed_write_exits_2(self, argv, capsys):
        # The write fails on flush; closing the file must not flush it again.
        assert main(argv + ["--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --out file: ") and err.count("\n") == 1


class TestCliSweep:
    def test_mass_sweep_csv(self, capsys):
        assert main(["sweep", ONE_ARMED, "--param", "mass", "--grid", "1,2,4,8"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "param,lambda,residual,iterations"
        lams = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(a > b for a, b in zip(lams, lams[1:]))

    def test_shift_sweep_moves_lambda_by_one(self, capsys):
        assert main(["sweep", ONE_ARMED, "--param", "shift", "--grid", "0,1"]) == 0
        out = capsys.readouterr().out
        lams = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        assert lams[1] - lams[0] == pytest.approx(1.0, abs=1e-8)

    def test_spread_sweep(self, capsys):
        assert main(["sweep", ONE_ARMED, "--param", "spread", "--grid", "0,0.1,0.2"]) == 0
        out = capsys.readouterr().out
        lams = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        assert all(a <= b + 1e-8 for a, b in zip(lams, lams[1:]))

    def test_out_file_and_clean_stdout(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        assert main(["sweep", ONE_ARMED, "--param", "mass", "--grid", "1,2",
                     "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        assert out_path.read_text().startswith("param,lambda")

    def test_unwritable_out_file_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "sweep.csv"
        assert main(["sweep", ONE_ARMED, "--param", "mass", "--grid", "1,2",
                     "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(out_path) in captured.err

    def test_bad_grid_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", ONE_ARMED, "--param", "mass", "--grid", "1,abc"])
        assert exc.value.code == 2

    def test_grid_without_values_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", ONE_ARMED, "--param", "mass", "--grid", ","])
        assert exc.value.code == 2
        assert "grid must contain at least one value" in capsys.readouterr().err

    def test_nonpositive_mass_grid_exits_2(self, capsys):
        assert main(["sweep", ONE_ARMED, "--param", "mass", "--grid", "0,1"]) == 2

    @pytest.mark.parametrize("param, grid", [("shift", "0,nan"), ("mass", "1,inf")])
    def test_non_finite_grid_value_exits_2(self, param, grid, capsys):
        assert main(["sweep", ONE_ARMED, "--param", param, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "non-finite" in captured.err

    def test_shift_past_the_float_range_exits_2(self, capsys):
        # The mean, 1e308, is finite, but its weighted sum, 2e308, is not.
        assert main(["sweep", ONE_ARMED, "--param", "shift", "--grid", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "float range" in captured.err
        assert main(["sweep", ONE_ARMED, "--param", "shift", "--grid", "1e300"]) == 0

    def test_jobs_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", ONE_ARMED, "--param", "mass", "--grid", "1,2", "--jobs", "2"])
        assert exc.value.code == 2

    def test_flagged_pair_warns_on_stderr(self, capsys, monkeypatch):
        argv = ["sweep", ONE_ARMED, "--param", "mass", "--grid", "1,2"]
        assert main(argv) == 0
        csv = capsys.readouterr().out
        real = cli.index_sweep
        monkeypatch.setattr(
            cli, "index_sweep",
            lambda *a, **k: dataclasses.replace(real(*a, **k), flags=((1.0, 2.0, 0.25),)),
        )
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == csv
        assert captured.err == (
            "warning: lambda moves +0.25 against the expected nonincreasing "
            "direction between param=1 and param=2\n"
        )
