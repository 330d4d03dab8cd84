"""Serialization round-trips and the command-line surface."""

import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pipeopt as po
from pipeopt.cli import main
from pipeopt.errors import InputError
from pipeopt.oracle import GridPlanTable
from pipeopt.serialize import (
    instance_from_dict,
    instance_to_dict,
    mixture_from_dict,
    mixture_to_dict,
    plan_from_dict,
    plan_to_dict,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestSerialization:
    def test_instance_round_trip(self):
        inst = po.random_instance(5, 3, 3, 0.6, 0.8)
        again = instance_from_dict(instance_to_dict(inst))
        assert again.layer_sizes == inst.layer_sizes
        for a, b in zip(again.initial_matrices, inst.initial_matrices):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(again.malleable, inst.malleable):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(again.rewards, inst.rewards)
        assert again.budget == inst.budget

    def test_weighted_cost_model_round_trip(self):
        weights = tuple(np.full_like(m, 2.0) for m in
                        po.fairness_price_instance(2, 0.2, 1.0).initial_matrices)
        inst = po.fairness_price_instance(2, 0.2, 1.0)
        inst = po.make_instance(
            inst.layer_sizes, inst.initial_matrices, inst.rewards,
            inst.initial_distribution, inst.budget, inst.malleable,
            cost_model=po.CostModel("weighted_l1", weights),
        )
        again = instance_from_dict(instance_to_dict(inst))
        assert again.cost_model.kind == "weighted_l1"
        np.testing.assert_array_equal(again.cost_model.weights[0], weights[0])

    def test_omitted_mask_means_all_true(self):
        data = instance_to_dict(po.fairness_price_instance(2, 0.2, 1.0))
        del data["malleable"]
        del data["cost_model"]
        inst = instance_from_dict(data)
        assert inst.all_malleable()
        assert inst.cost_model.kind == "l1"

    def test_invalid_instance_rejected_with_location(self):
        data = instance_to_dict(po.fairness_price_instance(2, 0.2, 1.0))
        data["transitions"][0][0][0] = 0.4  # break column 0 of layer 0
        with pytest.raises(InputError, match="column 0"):
            instance_from_dict(data)

    def test_plan_and_mixture_round_trip(self):
        inst = po.random_instance(5, 2, 3, 1.0, 1.0)
        _, plan = po.solve_social_welfare(inst, 0.25)
        again = plan_from_dict(plan_to_dict(plan))
        for a, b in zip(again.matrices, plan.matrices):
            np.testing.assert_array_equal(a, b)
        mixture, _, _ = po.solve_exante_maximin(inst, 0.2, rounds=8)
        again = mixture_from_dict(mixture_to_dict(mixture))
        assert len(again.support) == len(mixture.support)
        assert po.mixed_violations(inst, again) == []

    def test_malformed_mixture_weight_refused(self):
        plan = plan_to_dict(po.zero_budget_plan(po.random_instance(5, 2, 3, 1.0, 1.0)))
        with pytest.raises(InputError, match="malformed mixture"):
            mixture_from_dict({"support": [{"weight": "x", "plan": plan}]})


@pytest.fixture()
def contrast_file(tmp_path):
    path = tmp_path / "contrast.json"
    po.save_instance(po.fairness_price_instance(3, 0.1, 1.0), str(path))
    return str(path)


class TestCli:
    def test_validate_ok(self, capsys, contrast_file):
        code, out = run_cli(capsys, "validate", "--instance", contrast_file)
        assert code == 0
        assert out["valid"] is True

    def test_validate_bad_column_exits_2(self, capsys, tmp_path, contrast_file):
        data = json.load(open(contrast_file))
        data["transitions"][0][1][0] = 0.7
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["validate", "--instance", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert "column 0" in err

    def test_solve_welfare_report(self, capsys, contrast_file, tmp_path):
        plan_path = str(tmp_path / "plan.json")
        csv_path = str(tmp_path / "rewards.csv")
        code, out = run_cli(
            capsys, "solve-welfare", "--instance", contrast_file,
            "--epsilon", "0.05", "--out", plan_path, "--csv", csv_path,
        )
        assert code == 0
        assert out["objective"] == pytest.approx(0.40, abs=1e-6)
        plan = plan_from_dict(json.load(open(plan_path)))
        assert len(plan.matrices) == 1
        lines = open(csv_path).read().strip().splitlines()
        assert lines[0] == "population,expected_reward"
        assert len(lines) == 4

    def test_solve_maximin_report(self, capsys, contrast_file):
        code, out = run_cli(
            capsys, "solve-maximin", "--instance", contrast_file,
            "--epsilon", "0.05",
        )
        assert code == 0
        assert out["objective"] == pytest.approx(1 / 6, abs=1e-6)

    def test_solve_exante_report(self, capsys, contrast_file):
        code, out = run_cli(
            capsys, "solve-exante", "--instance", contrast_file,
            "--epsilon", "0.1", "--rounds", "40",
        )
        assert code == 0
        assert out["meta"]["rounds"] == 40
        assert out["objective"] <= 1 / 6 + 1e-7

    def test_deterministic_reports(self, capsys, contrast_file):
        _, a = run_cli(capsys, "solve-welfare", "--instance", contrast_file,
                       "--epsilon", "0.05")
        _, b = run_cli(capsys, "solve-welfare", "--instance", contrast_file,
                       "--epsilon", "0.05")
        a["meta"].pop("wall_ms")
        b["meta"].pop("wall_ms")
        assert a == b

    def test_deterministic_exante_reports(self, capsys, contrast_file, tmp_path):
        # The double oracle follows the LP dual, whose ties HiGHS must break
        # the same way on every run.
        reports, mixtures = [], []
        for i in range(2):
            path = tmp_path / f"mixture{i}.json"
            code, out = run_cli(capsys, "solve-exante", "--instance", contrast_file,
                                "--epsilon", "0.1", "--out", str(path))
            assert code == 0
            out["meta"].pop("wall_ms")
            reports.append(out)
            mixtures.append(path.read_bytes())
        assert reports[0] == reports[1]
        assert mixtures[0] == mixtures[1]

    def test_gen_then_oracle_pipeline(self, capsys, tmp_path):
        sep = str(tmp_path / "sep.json")
        code, out = run_cli(capsys, "gen", "--family", "separation",
                            "--B", "0.6", "--out", sep)
        assert code == 0
        code, out = run_cli(capsys, "oracle", "--instance", sep,
                            "--grid", "0.05")
        assert code == 0
        # Mixtures dominate deterministic plans; here the randomized grid
        # optimum hits the coin-flip construction value exactly.
        assert out["exante_maximin"]["value"] >= out["expost_maximin"]["value"] - 1e-9
        assert out["exante_maximin"]["value"] == pytest.approx(0.1705, abs=1e-9)
        assert out["welfare"]["value"] >= out["expost_maximin"]["value"] - 1e-9

    @pytest.mark.parametrize("objective", ["welfare", "maximin"])
    def test_oracle_out_without_mixture_exits_2(self, capsys, tmp_path, objective):
        # Refused before the (missing) instance is read.
        out = tmp_path / "plan.json"
        code = main(["oracle", "--instance", "/nonexistent.json", "--grid", "0.1",
                     "--objective", objective, "--out", str(out)])
        assert code == 2
        assert "--out" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_cap_exit_3(self, capsys, tmp_path):
        sep = str(tmp_path / "sep.json")
        run_cli(capsys, "gen", "--family", "separation", "--B", "0.6",
                "--out", sep)
        code = main(["oracle", "--instance", sep, "--grid", "0.025"])
        assert code == 3

    @pytest.mark.parametrize("command", ["solve-welfare", "solve-maximin"])
    def test_tiny_epsilon_exit_3(self, capsys, contrast_file, command):
        # The cell cap refuses before any budget grid is allocated.
        code = main([command, "--instance", contrast_file, "--epsilon", "1e-300"])
        assert code == 3
        assert "refused" in capsys.readouterr().err

    def test_exante_budget_grid_overflow_names_epsilon(self, capsys, tmp_path,
                                                      contrast_file):
        # The best-response step is derived from --epsilon; the refusal
        # names both, not only a step the user never passed.
        path = _mutate(contrast_file, tmp_path, lambda d: d.update(budget=1e308))
        code = main(["solve-exante", "--instance", path, "--epsilon", "0.5"])
        assert code == 3
        err = capsys.readouterr().err
        assert "epsilon=0.5" in err and "best-response step" in err

    def test_epsilon_above_net_diameter(self, capsys, tmp_path):
        path = str(tmp_path / "budget3.json")
        po.save_instance(po.random_instance(1, 2, 3, 1.0, 3.0), path)
        code, out = run_cli(capsys, "solve-welfare", "--instance", path,
                            "--epsilon", "3")
        assert code == 0
        assert out["objective"] >= po.initial_welfare(po.parse_instance(path)) - 1e-12

    def test_gen_cover_reduction(self, capsys, tmp_path):
        graph = tmp_path / "triangle.txt"
        graph.write_text("0 1\n0 2\n1 2\n")
        out_path = str(tmp_path / "cover.json")
        code, out = run_cli(capsys, "gen", "--family", "cover-reduction",
                            "--graph", str(graph), "--kappa", "2",
                            "--h-eps", "0.25", "--out", out_path)
        assert code == 0
        assert out["layers"] == [3, 3] + [4] * 14 + [2]
        assert out["budget"] == pytest.approx(15.0)
        inst = po.parse_instance(out_path)
        assert po.validate_instance(inst) == []

    def test_gen_fairness_price_matches_library(self, capsys, tmp_path):
        path = str(tmp_path / "fp.json")
        run_cli(capsys, "gen", "--family", "fairness-price", "--w", "3",
                "--pop-eps", "0.1", "--B", "1.0", "--out", path)
        inst = po.parse_instance(path)
        ref = po.fairness_price_instance(3, 0.1, 1.0)
        for a, b in zip(inst.initial_matrices, ref.initial_matrices):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(inst.initial_distribution,
                                   ref.initial_distribution)

    def test_missing_file_exits_2(self, capsys):
        assert main(["validate", "--instance", "/nonexistent.json"]) == 2

    def test_bounds_command(self, capsys, contrast_file):
        code, out = run_cli(capsys, "bounds", "--instance", contrast_file,
                            "--epsilon", "0.05")
        assert code == 0
        assert out["welfare_upper_bound"] == pytest.approx(0.5)
        assert out["maximin_lower_bound"] == pytest.approx(1 / 6)
        assert out["fairness_price"]["upper"] == pytest.approx(4.0)

    def test_bounds_command_weighted(self, capsys, tmp_path, contrast_file):
        # Weights 1 and one 2: the ceiling prices change at the cheapest
        # edge, the floor at the dearest.  The fairness-price bracket is for
        # unit costs, so it is left out with a note.
        path = _mutate(contrast_file, tmp_path, lambda d: _weighted(d, 2.0))
        code, out = run_cli(capsys, "bounds", "--instance", path,
                            "--epsilon", "0.05")
        assert code == 0
        assert out["welfare_upper_bound"] == pytest.approx(0.5)
        assert out["maximin_lower_bound"] == pytest.approx(1 / 12)
        assert "fairness_price" not in out
        assert "unit" in out["note"]

    def test_oracle_builds_one_table(self, capsys, tmp_path, monkeypatch):
        # All three objectives read one table, and report what the library
        # oracles, each on its own table, return.
        inst = po.separation_instance(0.6)
        sep = str(tmp_path / "sep.json")
        po.save_instance(inst, sep)
        builds = []
        init = GridPlanTable.__init__

        def counted(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GridPlanTable, "__init__", counted)
        code, out = run_cli(capsys, "oracle", "--instance", sep, "--grid", "0.1")
        assert code == 0 and len(builds) == 1
        value, plan = po.oracle_welfare(inst, 0.1)
        assert out["welfare"] == {"value": value,
                                  "budget_used": plan.total_cost(inst)}
        value, plan = po.oracle_expost_maximin(inst, 0.1)
        assert out["expost_maximin"] == {"value": value,
                                         "budget_used": plan.total_cost(inst)}
        value, mixture = po.oracle_exante_maximin(inst, 0.1)
        assert out["exante_maximin"] == {"value": value,
                                         "support_size": len(mixture.support)}

    def test_threads_flag_rejected(self, capsys, contrast_file):
        # The solvers are sequential; a flag that changed nothing is gone.
        with pytest.raises(SystemExit) as exc:
            main(["solve-welfare", "--instance", contrast_file,
                  "--epsilon", "0.05", "--threads", "4"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_maximin_reports_step_paths(self, capsys, contrast_file):
        _, out = run_cli(capsys, "solve-maximin", "--instance", contrast_file,
                         "--epsilon", "0.25")
        # Three populations price their steps with the game step.
        assert out["meta"]["step_calls"]["dual"] == 0
        assert out["meta"]["step_calls"]["game"] > 0


def _mutate(path, tmp_path, edit):
    data = json.load(open(path))
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))  # writes NaN / Infinity literals
    return str(bad)


def _weighted(data, value):
    data["cost_model"] = {"kind": "weighted_l1",
                          "weights": [[[1.0] * len(row) for row in t]
                                      for t in data["transitions"]]}
    data["cost_model"]["weights"][0][1][0] = value


NON_FINITE = {
    "reward_nan": lambda d: d["rewards"].__setitem__(0, float("nan")),
    "reward_inf": lambda d: d["rewards"].__setitem__(1, float("inf")),
    "transition_nan": lambda d: d["transitions"][0][1].__setitem__(0, float("nan")),
    "initial_nan": lambda d: d["initial_distribution"].__setitem__(0, float("nan")),
    "budget_nan": lambda d: d.__setitem__("budget", float("nan")),
    "budget_inf": lambda d: d.__setitem__("budget", float("inf")),
    "weight_nan": lambda d: _weighted(d, float("nan")),
    "weight_inf": lambda d: _weighted(d, float("inf")),
}


MALFORMED = {
    # A misspelled kind was once read as unit costs.
    "unknown_kind": (lambda d: d.__setitem__("cost_model", {
        "kind": "weighted-l1", "weights": [[[2, 2, 2], [2, 2, 2]]]}),
        "cost_model kind 'weighted-l1'"),
    "top_level_array": (lambda d: [d], "instance must be a JSON object"),
    "cost_model_string": (lambda d: d.__setitem__("cost_model", "l1"),
                          "cost_model must be a JSON object"),
    # A fractional layer size was once truncated.
    "fractional_layer": (lambda d: d.__setitem__("layers", [3.7, 2]),
                         "layers[0] = 3.7 is not an integer"),
    # These three were once accepted: a boolean read as size 1, a string
    # budget read as its number, and an empty mask list that then crashed
    # the solvers.
    "boolean_layer": (lambda d: d.__setitem__("layers", [3, True]),
                      "layers[1] = True is not an integer"),
    "string_budget": (lambda d: d.__setitem__("budget", "1"),
                      "budget = '1' is not a number"),
    "empty_malleable": (lambda d: d.__setitem__("malleable", []),
                        "malleable has 0 masks, expected 1"),
    # Mask entries other than booleans were once read as their truth value:
    # 2, "yes" and 0.5 as true, null as false.
    "mask_number": (lambda d: d["malleable"][0][1].__setitem__(0, 2),
                    "malleable[0][1][0] = 2 is not a boolean"),
    "mask_string": (lambda d: d["malleable"][0][0].__setitem__(1, "yes"),
                    "malleable[0][0][1] = 'yes' is not a boolean"),
    "mask_fraction": (lambda d: d["malleable"][0][0].__setitem__(2, 0.5),
                      "malleable[0][0][2] = 0.5 is not a boolean"),
    "mask_null": (lambda d: d["malleable"][0][1].__setitem__(1, None),
                  "malleable[0][1][1] = None is not a boolean"),
}


# Fields no solver reads, each once accepted and dropped: a misspelled mask
# then solved as if every entry were malleable.
IGNORED = {
    "misspelled_malleable": (lambda d: d.__setitem__("maleable", d.pop("malleable")),
                             "unknown instance field 'maleable'"),
    "unknown_cost_model_field": (
        lambda d: d.__setitem__("cost_model", {"kind": "l1", "scale": 2.0}),
        "unknown cost_model field 'scale'"),
    "unit_cost_weights": (lambda d: d.__setitem__("cost_model", {
        "kind": "l1", "weights": [[[2.0] * len(row) for row in t]
                                  for t in d["transitions"]]}),
        "cost_model kind 'l1' takes no weights"),
}


def test_no_lp_no_scipy_optimize(tmp_path):
    # No command solves an LP, so none needs scipy: with every scipy import
    # blocked, a weighted welfare solve, a three-population maximin solve
    # (the game step), the grid oracles on the separation network and a
    # game above the support cap all run.
    code = (
        "import sys\n"
        "class BlockScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, BlockScipy())\n"
        "import math\n"
        "import numpy as np\n"
        "import pipeopt.cli\n"
        "import pipeopt as po\n"
        "from pipeopt.oracle import _SUPPORT_CAP, mixture_game\n"
        "inst = po.random_instance(7, 2, 3, 1.0, 1.0)\n"
        "weights = tuple(np.full_like(m, 1.5) for m in inst.initial_matrices)\n"
        "inst = po.make_instance(inst.layer_sizes, inst.initial_matrices,\n"
        "    inst.rewards, inst.initial_distribution, inst.budget, inst.malleable,\n"
        "    cost_model=po.CostModel('weighted_l1', weights))\n"
        "po.solve_social_welfare(inst, 0.1)\n"
        "po.save_instance(po.fairness_price_instance(3, 0.1, 1.0), 'contrast.json')\n"
        "po.save_instance(po.separation_instance(0.6), 'sep.json')\n"
        "main = pipeopt.cli.main\n"
        "assert main(['solve-maximin', '--instance', 'contrast.json',\n"
        "             '--epsilon', '0.25']) == 0\n"
        "assert main(['oracle', '--instance', 'sep.json', '--grid', '0.075']) == 0\n"
        "values = np.random.default_rng(3).random((60, 3))\n"
        "assert math.comb(60 + 3, 3) - 1 > _SUPPORT_CAP\n"
        "mixture_game(values)\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    )
    src = Path(po.__file__).resolve().parent.parent
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


class TestInputRefusal:
    """Bad input exits 2 before any solver runs, never NaN or a traceback."""

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    @pytest.mark.parametrize("command", ["validate", "solve-welfare",
                                         "solve-maximin"])
    def test_non_finite_instance_exits_2(self, capsys, tmp_path, contrast_file,
                                         case, command):
        bad = _mutate(contrast_file, tmp_path, NON_FINITE[case])
        argv = [command, "--instance", bad]
        if command != "validate":
            argv += ["--epsilon", "0.25"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not finite" in captured.err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("command", ["validate", "solve-welfare"])
    def test_malformed_instance_exits_2(self, tmp_path, contrast_file, case,
                                        command):
        edit, message = MALFORMED[case]
        data = json.load(open(contrast_file))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(data) or data))
        argv = [command, "--instance", str(bad)]
        if command != "validate":
            argv += ["--epsilon", "0.05"]
        src = Path(po.__file__).resolve().parent.parent
        run = subprocess.run([sys.executable, "-m", "pipeopt.cli", *argv],
                             cwd=tmp_path, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert run.returncode == 2
        assert run.stdout == ""
        assert message in run.stderr
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("case", sorted(IGNORED))
    @pytest.mark.parametrize("argv", [
        ["validate"], ["solve-welfare", "--epsilon", "0.25"],
        ["solve-maximin", "--epsilon", "0.25"], ["solve-exante", "--epsilon", "0.25"],
        ["oracle", "--grid", "0.5"], ["bounds"]], ids=lambda argv: argv[0])
    def test_ignored_field_exits_2(self, capsys, tmp_path, case, argv):
        edit, message = IGNORED[case]
        path = tmp_path / "instance.json"
        po.save_instance(po.random_instance(1, 2, 3, 0.5, 1.0), str(path))
        bad = _mutate(path, tmp_path, edit)
        code = main([argv[0], "--instance", bad, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_integral_float_layer_sizes_accepted(self, capsys, tmp_path,
                                                 contrast_file):
        data = json.load(open(contrast_file))
        data["layers"] = [3.0, 2.0]
        path = tmp_path / "float_layers.json"
        path.write_text(json.dumps(data))
        code, out = run_cli(capsys, "validate", "--instance", str(path))
        assert code == 0
        assert out["valid"] is True

    def test_gen_non_finite_budget_exits_2(self, capsys, tmp_path):
        out = tmp_path / "sep.json"
        code = main(["gen", "--family", "separation", "--B", "nan",
                     "--out", str(out)])
        assert code == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_negative_vertex_exits_2(self, capsys, tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text("-1 0\n1 2\n")
        out = tmp_path / "cover.json"
        code = main(["gen", "--family", "cover-reduction", "--graph", str(graph),
                     "--kappa", "2", "--h-eps", "0.25", "--out", str(out)])
        assert code == 2
        assert "line 1: negative vertex id" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve-welfare", "--epsilon", "0"],
        ["solve-maximin", "--epsilon", "-0.1"],
        ["solve-exante", "--epsilon", "nan"],
        ["solve-welfare", "--epsilon", "inf"],
        ["bounds", "--epsilon", "0"],
        ["oracle", "--grid", "0"],
        ["oracle", "--grid", "nan"],
        ["solve-exante", "--epsilon", "0.1", "--rounds", "0"],
        ["solve-exante", "--epsilon", "0.1", "--rounds", "-3"],
    ], ids=lambda a: "_".join(a).replace("--", ""))
    def test_out_of_range_option_exits_2(self, capsys, contrast_file, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--instance", contrast_file, *argv[1:]])
        assert exc.value.code == 2
        assert "expected" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,expected", [
        (["solve-welfare", "--epsilon", "0.5"], 3),
        (["solve-maximin", "--epsilon", "0.5"], 3),
        (["solve-exante", "--epsilon", "0.5"], 3),
        (["bounds", "--epsilon", "0.5"], 3),
        (["oracle", "--grid", "0.5"], 0),
    ], ids=lambda a: a[0] if isinstance(a, list) else str(a))
    def test_budget_grid_overflow(self, capsys, tmp_path, contrast_file, argv,
                                  expected):
        # A finite budget whose budget / eps overflows once ended in an
        # OverflowError: the DPs refuse its grid by name, and the oracle
        # clips the budget to what its dearest plan can spend.
        path = _mutate(contrast_file, tmp_path, lambda d: d.__setitem__("budget", 1e308))
        assert main(["validate", "--instance", path]) == 0
        code = main([argv[0], "--instance", path, *argv[1:]])
        err = capsys.readouterr().err
        assert code == expected
        if expected == 3:
            assert "budget grid" in err

    @pytest.mark.parametrize("argv", [
        ["--w", "0"],
        ["--k", "1"],
        ["--malleable-fraction", "1.5"],
        ["--malleable-fraction", "nan"],
    ], ids=lambda a: "_".join(a).replace("--", ""))
    def test_gen_out_of_range_size_exits_2(self, capsys, tmp_path, argv):
        out = tmp_path / "rand.json"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "random", *argv, "--out", str(out)])
        assert exc.value.code == 2
        assert "expected" in capsys.readouterr().err
        assert not out.exists()


def _weighted_masked_instance():
    inst = po.random_instance(5, 2, 3, 0.7, 0.8)
    rng = np.random.default_rng(5)
    weights = tuple(rng.uniform(0.5, 2.0, m.shape) for m in inst.initial_matrices)
    return po.make_instance(inst.layer_sizes, inst.initial_matrices, inst.rewards,
                            inst.initial_distribution, inst.budget, inst.malleable,
                            cost_model=po.CostModel("weighted_l1", weights))


FUZZ_BASES = [
    instance_to_dict(po.fairness_price_instance(3, 0.1, 1.0)),
    instance_to_dict(po.random_instance(4, 2, 3, 0.6, 0.5)),
    instance_to_dict(_weighted_masked_instance()),
]
FUZZ_LEAVES = ["x", True, False, None, float("nan"), [], {}, -1, 0, 1e308]
FUZZ_SOLVES = [["solve-welfare", "--epsilon", "0.5"],
               ["solve-maximin", "--epsilon", "0.5"],
               ["oracle", "--grid", "0.5"]]


def _nodes(obj, path=()):
    """Every (path, value) of a JSON document, the root first."""
    yield path, obj
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _nodes(value, path + (key,))


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


def _fuzz_cases(rng, draws):
    """(document, description) pairs: each base's budget set to each
    replacement leaf, then `draws` random mutations.  A mutation drops a
    key, truncates or extends a list at any depth, or replaces a leaf."""
    for data in FUZZ_BASES:
        for leaf in FUZZ_LEAVES:
            yield {**data, "budget": leaf}, f"budget = {leaf!r}"
    for _ in range(draws):
        data = json.loads(json.dumps(rng.choice(FUZZ_BASES)))
        nodes = list(_nodes(data))
        kind = rng.choice(["drop", "list", "leaf"])
        if kind == "drop":
            path = rng.choice([p for p, _ in nodes
                               if p and isinstance(_parent(data, p), dict)])
            del _parent(data, path)[path[-1]]
            yield data, f"drop {path}"
        elif kind == "list":
            path, items = rng.choice([(p, v) for p, v in nodes
                                      if isinstance(v, list) and v])
            if rng.random() < 0.5:
                del items[rng.randrange(len(items)):]
                yield data, f"truncate {path} to {len(items)}"
            else:
                items.append(json.loads(json.dumps(rng.choice(items))))
                yield data, f"extend {path}"
        else:
            path = rng.choice([p for p, v in nodes
                               if p and not isinstance(v, (dict, list))])
            leaf = rng.choice(FUZZ_LEAVES)
            _parent(data, path)[path[-1]] = leaf
            yield data, f"{path} = {leaf!r}"


def _objectives(report):
    if "objective" in report:
        return [report["objective"]]
    return [v["value"] for v in report.values() if isinstance(v, dict)]


def _fuzz_run(capsys, argv, path, what):
    """(exit code, stdout) of one command; every exit is 0, 2 or 3."""
    try:
        code = main([argv[0], "--instance", str(path), *argv[1:]])
    except Exception as exc:  # any escape is what the fuzz looks for
        pytest.fail(f"{what}: {argv[0]} raised {exc!r}")
    assert code in (0, 2, 3), f"{what}: {argv[0]} exited {code}"
    return code, capsys.readouterr().out


def test_mutated_instance_fuzz(capsys, tmp_path):
    """Every command on a mutated instance file exits 0, 2 or 3 with no
    exception escaping, and a file `validate` accepts never ends in a
    solver error or a non-finite objective."""
    path = tmp_path / "mutated.json"
    for data, what in _fuzz_cases(random.Random(20), draws=400):
        path.write_text(json.dumps(data))  # writes NaN literals
        valid = _fuzz_run(capsys, ["validate"], path, what)[0] == 0
        for argv in FUZZ_SOLVES:
            code, out = _fuzz_run(capsys, argv, path, what)
            if valid:
                assert code != 1, f"{what}: {argv[0]} exited 1"
                assert code != 0 or all(
                    math.isfinite(v) for v in _objectives(json.loads(out))
                ), f"{what}: {argv[0]} reported {out}"


PLAN_FUZZ_LEAVES = [float("nan"), float("inf"), float("-inf"), -0.25, "x", "nan", None]


def _plan_fuzz_cases(rng, draws):
    """(instance, plan document, description) triples: a solved welfare plan
    of a fuzz base, as JSON, with one leaf replaced, a matrix row dropped or
    the budget split scaled."""
    bases = []
    for data in FUZZ_BASES:
        inst = instance_from_dict(data)
        bases.append((inst, plan_to_dict(po.solve_social_welfare(inst, 0.5)[1])))
    for _ in range(draws):
        inst, base = rng.choice(bases)
        doc = json.loads(json.dumps(base))
        kind = rng.choice(["leaf", "row", "split"])
        if kind == "leaf":
            path = rng.choice([p for p, v in _nodes(doc)
                               if p and not isinstance(v, (dict, list))])
            leaf = rng.choice(PLAN_FUZZ_LEAVES)
            _parent(doc, path)[path[-1]] = leaf
            yield inst, doc, f"{path} = {leaf!r}"
        elif kind == "row":
            t = rng.randrange(len(doc["matrices"]))
            del doc["matrices"][t][rng.randrange(len(doc["matrices"][t]))]
            yield inst, doc, f"drop a row of matrix {t}"
        else:
            scale = rng.choice([-1.0, 0.5, 2.0, float("nan"), float("inf")])
            doc["budget_split"] = [b * scale for b in doc["budget_split"]]
            yield inst, doc, f"budget split * {scale}"


def test_mutated_plan_fuzz():
    """A mutated plan is refused when read (InputError), or `plan_violations`
    reports it and `check_plan_bounds` refuses it with ValueError, or it
    audits clean and every bound check reads finite; nothing else raises or
    warns."""
    outcomes = {"read": 0, "reported": 0, "clean": 0}
    for inst, doc, what in _plan_fuzz_cases(random.Random(23), draws=300):
        try:
            plan = plan_from_dict(doc)
        except InputError:
            outcomes["read"] += 1
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if po.plan_violations(inst, plan):
                outcomes["reported"] += 1
                with pytest.raises(ValueError, match="infeasible plan"):
                    po.check_plan_bounds(inst, plan)
            else:
                outcomes["clean"] += 1
                checks = po.check_plan_bounds(inst, plan)
                assert all(math.isfinite(c.lhs) for c in checks), what
    assert outcomes["read"] and outcomes["reported"], outcomes
