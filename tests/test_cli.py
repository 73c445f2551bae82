import json

import pytest
from click.testing import CliRunner

from crtoptim import Cell, DesignSpace, ExperimentalUnit, standard_space
from crtoptim.cli import config_digest, main, write_design_grid


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=1))
    return str(path)


def base_config(tmp_path, **overrides):
    cfg = {
        "space": {"standard": {"T": 4, "maxReplication": 4, "count": 5}},
        "covariance": {"kind": "EXC2", "icc": 0.05, "cac": 0.5},
        "algorithm": "local",
        "m": 6,
        "restarts": 5,
        "seed": 3,
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return cfg


EXPLICIT_SPACE = {"T": 2, "units": [
    {"cells": [{"period": 1, "treated": 0}, {"period": 2, "treated": 1}]},
    {"cells": [{"period": 1, "treated": 0}, {"period": 2, "treated": 0}]}]}


class TestOptimize:
    def test_local_search_bundle(self, tmp_path, runner):
        cfg_path = write_json(tmp_path / "cfg.json", base_config(tmp_path))
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        assert summary["algorithm"] == "local"
        assert summary["criterion_value"] > 0
        assert summary["seed"] == 3
        grid = (out / "design_grid.csv").read_text().splitlines()
        assert grid[0] == "cluster,source,period_1,period_2,period_3,period_4"
        assert len(grid) == 1 + 6  # m realised cluster rows

    def test_summary_reproducible_modulo_wall_time(self, tmp_path, runner):
        cfg_path = write_json(tmp_path / "cfg.json", base_config(tmp_path))
        runner.invoke(main, ["optimize", "--config", cfg_path])
        first = json.loads((tmp_path / "out" / "summary.json").read_text())
        runner.invoke(main, ["optimize", "--config", cfg_path])
        second = json.loads((tmp_path / "out" / "summary.json").read_text())
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert first == second

    def test_weights_algorithm_writes_weights(self, tmp_path, runner):
        cfg = base_config(tmp_path, algorithm="simplex-weights")
        cfg.pop("m")
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "weights.csv").read_text().splitlines()
        assert lines[0] == "unit,weight"
        weights = [float(line.split(",")[1]) for line in lines[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-8)

    def test_mixed_model_weights_with_rounding(self, tmp_path, runner):
        cfg = base_config(tmp_path, algorithm="mixed-model-weights", m=8)
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["rounding_scheme"] in {"hamilton", "adams", "floor-greedy"}
        assert sum(summary["design_counts"]) == 8

    def test_closed_form_algorithm(self, tmp_path, runner):
        cfg = base_config(tmp_path, algorithm="closed-form", m=6)
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 0, result.output
        grid = (tmp_path / "out" / "design_grid.csv").read_text().splitlines()
        assert len(grid) == 1 + 6
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert sum(summary["design_counts"]) == 6
        assert max(summary["design_counts"]) <= 4

    def test_closed_form_respects_replication_cap(self, tmp_path, runner):
        # six clusters cannot be drawn from five sequences used at most once
        cfg = base_config(tmp_path, algorithm="closed-form", m=6)
        cfg["space"]["standard"]["maxReplication"] = 1
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 3, result.output

    def test_grid_mode(self, tmp_path, runner):
        cfg = base_config(tmp_path, restarts=3)
        cfg.pop("covariance")
        cfg["grid"] = {"kind": "EXC2", "icc": [0.01, 0.1], "cac": [0.5, 1.0]}
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 0, result.output
        index = (tmp_path / "out" / "grid_index.csv").read_text().splitlines()
        assert index[0] == "icc,cac,criterion_value,directory"
        assert len(index) == 1 + 4

    def test_exc1_grid_sweeps_icc_alone(self, tmp_path, runner):
        cfg = base_config(tmp_path, restarts=3)
        cfg.pop("covariance")
        cfg["grid"] = {"kind": "EXC1", "icc": [0.05, 0.1]}
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out"
        index = (out / "grid_index.csv").read_text().splitlines()
        assert index[0] == "icc,criterion_value,directory"
        assert [row.split(",")[-1] for row in index[1:]] == ["icc0.05", "icc0.1"]
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == [
            "icc0.05", "icc0.1"]

    def test_simplex_descent_stall_exits_three(self, tmp_path, runner):
        # no step can lower the residual to 1e-17 in double precision
        cfg = base_config(tmp_path, algorithm="simplex-weights", tolerance=1e-17)
        cfg.pop("m")
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 3, result.output
        assert "stalled" in result.output

    def test_observation_weights_bundle(self, tmp_path, runner):
        cfg = {
            "space": {"standard": {"T": 3, "maxReplication": 10,
                                   "granularity": "observation"}},
            "covariance": {"kind": "EXC2", "tau2": 0.16, "omega2": 0.04},
            "algorithm": "mixed-model-weights",
            "n_obs": 40,
            "out": str(tmp_path / "out"),
        }
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "weights.csv").read_text().splitlines()
        assert lines[0] == "cluster,period,weight"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert sum(summary["design_counts"]) == 40
        grid = (tmp_path / "out" / "design_grid.csv").read_text().splitlines()
        assert len(grid) > 1

    def test_robust_class_config(self, tmp_path, runner):
        cfg = base_config(tmp_path, restarts=5)
        cfg.pop("covariance")
        cfg["robust"] = {
            "form": "linear-average",
            "entries": [
                {"covariance": {"kind": "EXC2", "icc": 0.05, "cac": 0.5},
                 "prior": 0.5},
                {"covariance": {"kind": "AR1", "icc": 0.05, "decay": 0.8},
                 "prior": 0.5},
            ],
        }
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["criterion_value"] > 0

    def test_robust_priors_validated(self, tmp_path, runner):
        cfg = base_config(tmp_path)
        cfg["robust"] = {"entries": [
            {"covariance": {"kind": "EXC1", "icc": 0.05}, "prior": 0.9}]}
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 2
        assert "robust" in result.output

    def test_malformed_json_names_location(self, tmp_path, runner):
        bad = tmp_path / "bad.json"
        bad.write_text('{"space": }')
        result = runner.invoke(main, ["optimize", "--config", str(bad)])
        assert result.exit_code == 2
        assert "line 1" in result.output

    def test_missing_field_named(self, tmp_path, runner):
        cfg = base_config(tmp_path)
        cfg.pop("space")
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 2
        assert "space" in result.output

    def test_bad_algorithm_exits_two(self, tmp_path, runner):
        cfg = base_config(tmp_path, algorithm="annealing")
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 2

    @pytest.mark.parametrize("overrides, keys, bad, field", [
        ({}, ("restarts",), "5", "restarts"),
        ({}, ("seed",), "x", "seed"),
        ({}, ("seed",), 1.5, "seed"),
        ({"algorithm": "mixed-model-weights"}, ("n_obs",), "40", "n_obs"),
        ({"algorithm": "simplex-weights"}, ("tolerance",), "1e-6", "tolerance"),
        ({}, ("space", "standard", "maxReplication"), "2",
         "space.standard.maxReplication"),
        ({}, ("space", "standard", "count"), "5", "space.standard.count"),
        ({"space": EXPLICIT_SPACE}, ("space", "maxReplication"), "2",
         "space.maxReplication"),
        ({"space": EXPLICIT_SPACE}, ("space", "units", 0, "cells", 0, "count"),
         "5", "space.units[0].cells[0].count"),
        ({}, ("covariance", "cac"), "0.5", "covariance.cac"),
        ({}, ("covariance", "sigma2"), "1", "covariance.sigma2"),
        ({"covariance": {"kind": "AR1", "tau2": 0.05}}, ("covariance", "decay"),
         "0.5", "covariance.decay"),
        ({"covariance": {"kind": "EXC2", "tau2": 0.05}}, ("covariance", "omega2"),
         "0.01", "covariance.omega2"),
        ({"model": {"family": "binomial-logit", "beta": [0, 0, 0, 0, 0]}},
         ("model", "beta"), 3, "model.beta"),
        ({"model": {"family": "binomial-logit", "beta": [0, 0, 0, 0, 0]}},
         ("model", "beta"), ["a", 0, 0, 0, 0], "model.beta"),
        ({"grid": {"kind": "EXC2", "icc": [0.05], "cac": [0.5]}},
         ("grid", "icc"), ["a"], "grid.icc"),
        ({"grid": {"kind": "EXC2", "icc": [0.05], "cac": [0.5]}},
         ("grid", "cac"), [0.5, True], "grid.cac"),
        ({"grid": {"kind": "AR1", "icc": [0.05], "decay": [0.8]}},
         ("grid", "decay"), ["0.8"], "grid.decay"),
        # decay is AR1-only; an EXC1 grid cannot sweep it
        ({"grid": {"kind": "EXC1", "icc": [0.05], "decay": [1]}},
         ("grid", "decay"), [0.3, 0.9], "grid"),
        # the closed form holds for Gaussian outcomes only
        ({"algorithm": "closed-form"}, ("model",),
         {"family": "binomial-logit", "beta": [-1.0, -0.5, 0.0, 0.5, 0.5]},
         "model"),
        # a boolean is not an integer budget
        ({"algorithm": "closed-form"}, ("m",), True, "m"),
        ({"algorithm": "mixed-model-weights"}, ("m",), True, "m"),
    ])
    def test_mistyped_optional_field_exits_two(self, tmp_path, runner,
                                                overrides, keys, bad, field):
        cfg = json.loads(json.dumps(base_config(tmp_path, **overrides)))
        *parents, last = keys
        node = cfg
        for key in parents:
            node = node[key]
        node[last] = bad
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 2, result.output
        assert f"'{field}'" in result.output

    @pytest.mark.parametrize("via_flag", [False, True])
    def test_negative_seed_exits_two(self, tmp_path, runner, via_flag):
        cfg = base_config(tmp_path, **({} if via_flag else {"seed": -1}))
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        args = ["optimize", "--config", cfg_path] + (["--seed", "-1"] if via_flag else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "'seed'" in result.output

    @pytest.mark.parametrize("field", ["tau2", "omega2", "sigma2"])
    def test_non_finite_variance_component_exits_two(self, tmp_path, runner,
                                                      field):
        cov = {"kind": "EXC2", "tau2": 0.04, "omega2": 0.01}
        cov[field] = float("nan")
        cfg_path = write_json(tmp_path / "cfg.json",
                              base_config(tmp_path, covariance=cov))
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 2, result.output
        assert field in result.output

    @pytest.mark.parametrize("algorithm", ["mixed-model-weights", "simplex-weights"])
    def test_non_positive_tolerance_exits_two(self, tmp_path, runner, algorithm):
        cfg = base_config(tmp_path, algorithm=algorithm, tolerance=0)
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 2, result.output
        assert "tolerance must be positive" in result.output

    def test_infeasible_budget_exits_three(self, tmp_path, runner):
        cfg = base_config(tmp_path, m=1000)
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 3


class TestDesignGrid:
    def test_sequence_replicates_get_their_own_rows(self, tmp_path):
        space = standard_space(3, max_replication=3, cells_per_period=2)
        write_design_grid(tmp_path / "grid.csv", space,
                          space.design_from_counts([2, 0, 1, 1]))
        assert (tmp_path / "grid.csv").read_text().splitlines() == [
            "cluster,source,period_1,period_2,period_3",
            "cluster_0,seq_0,0:2,0:2,0:2",
            "cluster_1,seq_0,0:2,0:2,0:2",
            "cluster_2,seq_2,0:2,0:2,1:2",
            "cluster_3,seq_3,1:2,1:2,1:2",
        ]

    def test_cluster_period_cells_merge_per_cluster(self, tmp_path):
        units = [ExperimentalUnit(5, (Cell(1, 0, 2),)),
                 ExperimentalUnit(2, (Cell(1, 0, 2),)),
                 ExperimentalUnit(5, (Cell(2, 1, 2),)),
                 ExperimentalUnit(2, (Cell(3, 1, 2),)),
                 ExperimentalUnit(7, (Cell(1, 1, 1),))]
        space = DesignSpace(3, tuple(units), max_replication=4,
                            granularity="cluster-period")
        write_design_grid(tmp_path / "grid.csv", space,
                          space.design_from_counts([3, 1, 2, 4, 0]))
        assert (tmp_path / "grid.csv").read_text().splitlines() == [
            "cluster,source,period_1,period_2,period_3",
            "cluster_2,cluster_2,0:2,,1:8",
            "cluster_5,cluster_5,0:6,1:4,",
        ]


class TestEvaluate:
    def test_all_control_reports_infinite(self, tmp_path, runner):
        cfg_path = write_json(tmp_path / "cfg.json", base_config(tmp_path))
        design_path = write_json(tmp_path / "d.json",
                                 {"counts": [4, 0, 0, 0, 0]})
        result = runner.invoke(main, ["evaluate", "--config", cfg_path,
                                      "--design", design_path])
        assert result.exit_code == 0, result.output
        assert "infinite" in result.output

    def test_two_sample_value(self, tmp_path, runner):
        cfg = {
            "space": {"T": 1, "units": [
                {"cells": [{"period": 1, "treated": 0, "count": 10}]},
                {"cells": [{"period": 1, "treated": 1, "count": 10}]},
            ], "maxReplication": 1},
            "covariance": {"kind": "EXC1", "tau2": 0.0, "sigma2": 1.0},
        }
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        design_path = write_json(tmp_path / "d.json", {"counts": [1, 1]})
        result = runner.invoke(main, ["evaluate", "--config", cfg_path,
                                      "--design", design_path])
        assert result.exit_code == 0, result.output
        assert "criterion value: 0.2" in result.output

    def test_closed_form_cross_check_printed(self, tmp_path, runner):
        cfg_path = write_json(tmp_path / "cfg.json", base_config(tmp_path))
        design_path = write_json(tmp_path / "d.json",
                                 {"selection": [0, 1, 2, 3, 4, 4]})
        result = runner.invoke(main, ["evaluate", "--config", cfg_path,
                                      "--design", design_path])
        assert result.exit_code == 0, result.output
        assert "closed-form cross-check" in result.output
        rel = float(result.output.split("relative discrepancy")[1].strip())
        assert rel <= 1e-8

    @pytest.mark.parametrize("design, field", [
        ({"selection": "ab"}, "selection"),
        ({"selection": [0, 1.5]}, "selection"),
        ({"counts": [True, 1, 0, 1, 0]}, "counts"),
    ])
    def test_mistyped_design_field_exits_two(self, tmp_path, runner, design,
                                             field):
        cfg_path = write_json(tmp_path / "cfg.json", base_config(tmp_path))
        design_path = write_json(tmp_path / "d.json", design)
        result = runner.invoke(main, ["evaluate", "--config", cfg_path,
                                      "--design", design_path])
        assert result.exit_code == 2, result.output
        assert f"'{field}'" in result.output

    def test_missing_design_fields(self, tmp_path, runner):
        cfg_path = write_json(tmp_path / "cfg.json", base_config(tmp_path))
        design_path = write_json(tmp_path / "d.json", {"rows": []})
        result = runner.invoke(main, ["evaluate", "--config", cfg_path,
                                      "--design", design_path])
        assert result.exit_code == 2


class TestDigest:
    def test_digest_ignores_key_order_and_out(self):
        a = {"m": 10, "space": {"standard": {"T": 6}}, "out": "x"}
        b = {"out": "elsewhere", "space": {"standard": {"T": 6}}, "m": 10}
        assert config_digest(a) == config_digest(b)

    def test_digest_changes_with_semantics(self):
        a = {"m": 10, "space": {"standard": {"T": 6}}}
        b = {"m": 11, "space": {"standard": {"T": 6}}}
        assert config_digest(a) != config_digest(b)
