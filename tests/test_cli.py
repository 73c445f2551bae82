import json

import pytest
from click.testing import CliRunner

from crtoptim import (Cell, CovarianceSpec, DesignCriterion, DesignSpace,
                      ExperimentalUnit, mixed_model_weights, reverse_greedy,
                      standard_space)
from crtoptim import cli
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


ROBUST = {"entries": [
    {"covariance": {"kind": "EXC1", "icc": 0.05}, "prior": 0.5,
     "model": {"family": "binomial-logit", "beta": [0, 0, 0, 0, 0]}},
    {"covariance": {"kind": "EXC2", "icc": 0.05, "cac": 0.5}, "prior": 0.5}]}


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

    @pytest.mark.parametrize("granularity", ["sequence", "cluster-period"])
    def test_reverse_greedy_bundle(self, tmp_path, runner, granularity):
        cfg = base_config(tmp_path, algorithm="reverse-greedy", m=12)
        cfg["space"]["standard"]["granularity"] = granularity
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        space = standard_space(4, max_replication=4, cells_per_period=5,
                               granularity=granularity)
        expected = reverse_greedy(space, DesignCriterion(
            space, CovarianceSpec.from_icc("EXC2", 0.05, cac=0.5)), 12)
        assert summary["algorithm"] == "reverse-greedy"
        assert summary["criterion_value"] == expected.value
        assert summary["design_counts"] == list(expected.design.counts)

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

    def test_nan_robust_prior_exits_two(self, tmp_path, runner):
        cfg = base_config(tmp_path)
        cfg["robust"] = {"form": "log-average", "entries": [
            {"covariance": {"kind": "EXC1", "icc": 0.05}, "prior": float("nan")},
            {"covariance": {"kind": "EXC1", "icc": 0.2}, "prior": 1.0}]}
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 2, result.output
        assert "priors" in result.output

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
        # a container that is not a JSON object
        ({}, ("space", "standard"), 5, "space.standard"),
        ({"space": EXPLICIT_SPACE}, ("space", "units"), [5], "space.units[0]"),
        ({"space": EXPLICIT_SPACE}, ("space", "units", 0, "cells"), [5],
         "space.units[0].cells[0]"),
        # cluster ids are hashed and ordered at cluster-period granularity
        ({"space": dict(EXPLICIT_SPACE, granularity="cluster-period")},
         ("space", "units", 0, "clusterId"), [1], "space.units[0].clusterId"),
        ({"space": dict(EXPLICIT_SPACE, granularity="cluster-period")},
         ("space", "units", 1, "clusterId"), "a", "space.units[1].clusterId"),
        # a string or a number is truthy, but not a JSON boolean
        ({"model": {"family": "binomial-logit", "beta": [0, 0, 0, 0, 0]}},
         ("model", "attenuate"), "false", "model.attenuate"),
        ({"model": {"family": "binomial-logit", "beta": [0, 0, 0, 0, 0]}},
         ("model", "attenuate"), 1, "model.attenuate"),
        # an empty axis leaves nothing to run
        ({"grid": {"kind": "EXC2", "icc": [0.05], "cac": [0.5]}},
         ("grid", "icc"), [], "grid.icc"),
        ({"grid": {"kind": "EXC2", "icc": [0.05], "cac": [0.5]}},
         ("grid", "cac"), [], "grid.cac"),
        ({}, ("out",), 5, "out"),
        # errors inside a robust entry name the entry
        ({"robust": ROBUST}, ("robust", "entries", 1, "covariance", "icc"), "x",
         "robust.entries[1].covariance.icc"),
        ({"robust": ROBUST}, ("robust", "entries", 1, "covariance", "icc"), 2.0,
         "robust.entries[1].covariance"),
        ({"robust": ROBUST}, ("robust", "entries", 0, "covariance"), 5,
         "robust.entries[0].covariance"),
        ({"robust": ROBUST}, ("robust", "entries", 0, "model", "attenuate"), "false",
         "robust.entries[0].model.attenuate"),
        ({"robust": ROBUST}, ("robust", "entries", 0, "model", "beta"), ["a"],
         "robust.entries[0].model.beta"),
        ({"robust": ROBUST}, ("robust", "entries", 0, "model", "family"), "probit",
         "robust.entries[0].model"),
        ({"robust": ROBUST}, ("robust", "entries", 1, "model"), 5,
         "robust.entries[1].model"),
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

    def test_unknown_grid_kind_exits_two(self, tmp_path, runner):
        cfg = base_config(tmp_path, grid={"kind": "foo", "icc": [0.05]})
        cfg.pop("covariance")
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 2, result.output
        assert "field 'grid.kind' must be one of EXC1, EXC2, AR1" in result.output

    @pytest.mark.parametrize("grid", [False, True], ids=["single", "grid"])
    @pytest.mark.parametrize("overrides, code", [
        ({"m": None}, 2),
        ({"restarts": 0}, 2),
        ({"algorithm": "simplex-weights", "space": {"standard": {
            "T": 4, "maxReplication": 4, "granularity": "cluster-period"}}}, 2),
        ({"algorithm": "closed-form", "covariance": {"kind": "EXC1", "icc": 0.05}}, 2),
        ({"m": 1000}, 3),
    ], ids=["missing-m", "no-restarts", "simplex-cluster-period", "closed-form-exc1",
            "over-capacity"])
    def test_failed_run_leaves_no_output(self, tmp_path, runner, overrides, code, grid):
        # an override of None leaves the field out
        cfg = {key: v for key, v in base_config(tmp_path, **overrides).items()
               if v is not None}
        if grid:
            cov = cfg.pop("covariance")
            cfg["grid"] = {key: v if key == "kind" else [v] for key, v in cov.items()}
            cfg["grid"]["icc"] = [0.05, 0.1]
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == code, result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid, out, file", [
        (False, "out", "out"), (False, "out/sub", "out"),
        (True, "out", "out"), (True, "out", "out/icc0.1")],
        ids=["single", "single-below-file", "grid", "grid-cell"])
    def test_out_path_through_a_file_exits_two(self, tmp_path, runner, monkeypatch,
                                               grid, out, file):
        cfg = base_config(tmp_path, out=str(tmp_path / out))
        if grid:
            cfg.pop("covariance")
            cfg["grid"] = {"kind": "EXC1", "icc": [0.05, 0.1]}
        file = tmp_path / file
        file.parent.mkdir(exist_ok=True)
        file.write_text("kept")
        searches = []
        monkeypatch.setattr(cli, "local_search", lambda *args, **kw: searches.append(args))
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 2, result.output
        assert f"field 'out': {file} is not a directory" in result.output
        assert searches == []
        assert sorted(tmp_path.rglob("*")) == sorted(
            {tmp_path / "cfg.json", tmp_path / "out", file})
        assert file.read_text() == "kept"

    @pytest.mark.parametrize("grid, name, algorithm", [
        (False, "summary.json", "local"), (False, "design_grid.csv", "local"),
        (False, "weights.csv", "mixed-model-weights"),
        (True, "summary.json", "local"), (True, "design_grid.csv", "local"),
        (True, "weights.csv", "mixed-model-weights"), (True, "grid_index.csv", "local")],
        ids=["single-summary", "single-design", "single-weights", "grid-summary",
             "grid-design", "grid-weights", "grid-index"])
    def test_bundle_file_that_is_a_directory_exits_two(self, tmp_path, runner, grid,
                                                       name, algorithm):
        cfg = base_config(tmp_path, algorithm=algorithm)
        blocked = tmp_path / "out" / name
        if grid:
            cfg.pop("covariance")
            cfg["grid"] = {"kind": "EXC1", "icc": [0.05, 0.1]}
            if name != "grid_index.csv":
                blocked = tmp_path / "out" / "icc0.1" / name
        blocked.mkdir(parents=True)
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 2, result.output
        assert f"field 'out': {blocked} is a directory, not a file" in result.output
        # nothing written: only the config and the directories made above
        assert sorted(tmp_path.rglob("*")) == sorted(
            {tmp_path / "cfg.json", blocked,
             *(path for path in blocked.parents if tmp_path in path.parents)})

    @pytest.mark.parametrize("via_flag", [False, True])
    def test_negative_seed_exits_two(self, tmp_path, runner, via_flag):
        cfg = base_config(tmp_path, **({} if via_flag else {"seed": -1}))
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        args = ["optimize", "--config", cfg_path] + (["--seed", "-1"] if via_flag else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "'seed'" in result.output

    @pytest.mark.parametrize("via_flag", [False, True])
    @pytest.mark.parametrize("restarts", [0, -3])
    def test_restarts_below_one_exits_two(self, tmp_path, runner, monkeypatch,
                                          via_flag, restarts):
        cfg = base_config(tmp_path, **({} if via_flag else {"restarts": restarts}))
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        searches = []
        monkeypatch.setattr(cli, "local_search", lambda *args, **kw: searches.append(args))
        args = ["optimize", "--config", cfg_path] + (
            ["--restarts", str(restarts)] if via_flag else [])
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert "field 'restarts' must be at least 1" in result.output
        assert searches == []
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "cfg.json"]

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


class TestConfigErrors:
    """Configuration errors that no other test reaches: each exits 2, names
    its field and leaves no out directory."""

    @pytest.mark.parametrize("overrides, field", [
        (None, "cannot read config"),
        ("[1]", "config must be a JSON object"),
        ({"space": {"standard": {"T": 1}}}, "'space'"),
        ({"robust": 5}, "'robust'"),
        ({"algorithm": "closed-form", "m": None}, "'m'"),
        ({"algorithm": "closed-form", "space": {"standard": {
            "T": 4, "maxReplication": 4, "granularity": "cluster-period"}}}, "'algorithm'"),
        ({"m": 0}, "'m'"),
        ({"covariance": None, "robust": ROBUST,
          "grid": {"kind": "EXC1", "icc": [0.05]}}, "'grid'"),
        ({"covariance": None, "grid": 5}, "'grid'"),
    ], ids=["unreadable", "not-object", "space", "robust-not-object", "closed-form-no-m",
            "closed-form-cluster-period", "m-zero", "grid-with-robust", "grid-not-object"])
    def test_exits_two_and_writes_nothing(self, tmp_path, runner, overrides, field):
        # overrides of the base config, an override of None leaving the field
        # out; or the config file's text, or None for no file
        path = tmp_path / "cfg.json"
        if isinstance(overrides, dict):
            write_json(path, {key: v for key, v in base_config(tmp_path, **overrides).items()
                              if v is not None})
        elif overrides is not None:
            path.write_text(overrides)
        result = runner.invoke(main, ["optimize", "--config", str(path),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, result.output
        assert field in result.output
        assert not (tmp_path / "out").exists()


class TestUnreadFields:
    """A top-level field that a block beside it makes the run ignore is a
    configuration error: a covariance or model beside a robust class,
    whose entries carry their own, and a covariance beside a grid, whose
    cells carry their own."""

    UNFINISHED = {"family": "binomial-logit"}

    @pytest.mark.parametrize("command", ["optimize", "evaluate"])
    @pytest.mark.parametrize("field, value", [
        ("covariance", "x"), ("model", UNFINISHED)])
    def test_beside_robust(self, tmp_path, runner, command, field, value):
        cfg = base_config(tmp_path, robust=ROBUST)
        cfg.pop("covariance")
        cfg[field] = value
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        args = ["--design", write_json(tmp_path / "d.json", {"counts": [1, 1, 1, 1, 2]})]
        result = runner.invoke(main, [command, "--config", cfg_path,
                                      *(args if command == "evaluate" else [])])
        assert result.exit_code == 2, result.output
        assert f"field '{field}' cannot be combined with 'robust'" in result.output
        assert not (tmp_path / "out").exists()

    def test_covariance_beside_grid(self, tmp_path, runner):
        cfg = base_config(tmp_path, covariance="x", grid={"kind": "EXC1", "icc": [0.05, 0.1]})
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 2, result.output
        assert "field 'covariance' cannot be combined with 'grid'" in result.output
        assert not (tmp_path / "out").exists()

    def test_model_beside_grid_is_read(self, tmp_path, runner):
        # every cell runs under the top-level model
        model = {"family": "binomial-logit", "beta": [-1.0, -0.5, 0.0, 0.5, 0.5]}
        grid = {"kind": "EXC1", "icc": [0.05]}
        for name, extra in (("plain", {}), ("logit", {"model": model})):
            cfg = base_config(tmp_path, covariance=None, grid=grid, out=str(tmp_path / name),
                              **extra)
            cfg = {key: v for key, v in cfg.items() if v is not None}
            result = runner.invoke(main, ["optimize", "--config",
                                          write_json(tmp_path / f"{name}.json", cfg)])
            assert result.exit_code == 0, result.output
        values = [json.loads((tmp_path / name / "icc0.05" / "summary.json").read_text())
                  ["criterion_value"] for name in ("plain", "logit")]
        assert values[0] != values[1]


class TestWeightsGrid:
    """A ``mixed-model-weights`` grid solves its cells' weights in
    lockstep; each cell's bundle, under every algorithm, is that of a run
    of the cell alone."""

    ICC, CAC = [0.0431, 0.0567], [0.4612, 0.5388]

    def config(self, tmp_path, icc=None, cac=None):
        return {
            "space": {"standard": {"T": 6, "maxReplication": 10, "count": 1,
                                   "granularity": "cluster-period"}},
            "algorithm": "mixed-model-weights",
            "n_obs": 60,
            "grid": {"kind": "EXC2", "icc": icc or self.ICC, "cac": cac or self.CAC},
            "seed": 9,
            "out": str(tmp_path / "out"),
        }

    SEQUENCE = {"standard": {"T": 4, "maxReplication": 4, "count": 5}}
    # what each algorithm changes in the cluster-period weights config
    OVERRIDES = {
        "mixed-model-weights": {},
        "simplex-weights": {"space": SEQUENCE, "m": 8},
        "local": {"space": SEQUENCE, "m": 6, "restarts": 5},
        "reverse-greedy": {"space": {"standard": {
            "T": 4, "maxReplication": 4, "granularity": "cluster-period"}}, "m": 20},
        "closed-form": {"space": SEQUENCE, "m": 6},
    }

    @pytest.mark.parametrize("algorithm", list(OVERRIDES))
    def test_cells_match_single_runs(self, tmp_path, runner, algorithm):
        cfg = dict(self.config(tmp_path), algorithm=algorithm, **self.OVERRIDES[algorithm])
        result = runner.invoke(main, ["optimize", "--config",
                                      write_json(tmp_path / "cfg.json", cfg)])
        assert result.exit_code == 0, result.output
        for icc in self.ICC:
            for cac in self.CAC:
                name = f"icc{icc}_cac{cac}"
                single_cfg = {key: v for key, v in cfg.items() if key != "grid"}
                single_cfg["covariance"] = {"kind": "EXC2", "icc": icc, "cac": cac}
                single = tmp_path / "single" / name
                result = runner.invoke(main, [
                    "optimize", "--config", write_json(tmp_path / f"{name}.json", single_cfg),
                    "--out", str(single)])
                assert result.exit_code == 0, result.output
                cell = tmp_path / "out" / name
                files = sorted(p.name for p in cell.iterdir())
                assert files == sorted(p.name for p in single.iterdir())
                for bundle in set(files) - {"summary.json"}:
                    assert (cell / bundle).read_bytes() == (single / bundle).read_bytes()
                # the digests differ: the configs do
                summaries = [{key: v for key, v in json.loads(
                    (d / "summary.json").read_text()).items()
                              if key not in ("wall_time_s", "config_digest")}
                             for d in (cell, single)]
                assert summaries[0] == summaries[1]

    def test_invalid_point_runs_no_cell(self, tmp_path, runner):
        cfg = self.config(tmp_path, icc=[0.05, 0.1, 1.5], cac=[0.5])
        result = runner.invoke(main, ["optimize", "--config",
                                      write_json(tmp_path / "cfg.json", cfg)])
        assert result.exit_code == 2, result.output
        assert "invalid field 'grid'" in result.output
        out = tmp_path / "out"
        assert not out.exists() or not any(p.is_dir() for p in out.iterdir())

    def test_failing_cell_keeps_earlier_bundles(self, tmp_path, runner, monkeypatch):
        cfg = self.config(tmp_path)
        space = cli.parse_space(cfg)
        names = [f"icc{icc}_cac{cac}" for icc in self.ICC for cac in self.CAC]
        iterations = [mixed_model_weights(space, CovarianceSpec.from_icc(
            "EXC2", icc, cac=cac), total_obs=60).iterations
                      for icc in self.ICC for cac in self.CAC]
        # one evaluation short of the slowest cell, which is not the first
        cap = max(iterations) - 1
        first_failure = next(k for k, n in enumerate(iterations) if n > cap)
        assert first_failure > 0
        lockstep = cli._lockstep_weights
        monkeypatch.setattr(cli, "_lockstep_weights",
                            lambda *args, **kwargs: lockstep(*args, max_iter=cap, **kwargs))
        result = runner.invoke(main, ["optimize", "--config",
                                      write_json(tmp_path / "cfg.json", cfg)])
        assert result.exit_code == 3, result.output
        assert f"no convergence in {cap} criterion evaluations" in result.output
        out = tmp_path / "out"
        for name in names[:first_failure]:
            assert sorted(p.name for p in (out / name).iterdir()) == [
                "design_grid.csv", "summary.json", "weights.csv"]
        assert not (out / names[first_failure]).exists()
        assert not any((out / name).exists() for name in names[first_failure + 1:])
        assert not (out / "grid_index.csv").exists()

    @pytest.mark.parametrize("grid", [True, False], ids=["grid", "single"])
    def test_over_capacity_total_solves_nothing(self, tmp_path, runner, monkeypatch,
                                                grid):
        # 20 cluster-period units at a cap of 4 hold 80 observations
        cfg = {"space": {"standard": {"T": 4, "maxReplication": 4,
                                      "granularity": "cluster-period"}},
               "algorithm": "mixed-model-weights", "n_obs": 1000,
               "out": str(tmp_path / "out")}
        if grid:
            cfg["grid"] = {"kind": "EXC2", "icc": [0.05], "cac": [0.5, 0.6]}
        else:
            cfg["covariance"] = {"kind": "EXC2", "icc": 0.05, "cac": 0.5}
        solves = []
        solve = cli._lockstep_weights
        monkeypatch.setattr(cli, "_lockstep_weights", lambda *args, **kw:
                            solves.append(solve.__name__) or solve(*args, **kw))
        result = runner.invoke(main, ["optimize", "--config",
                                      write_json(tmp_path / "cfg.json", cfg)])
        assert result.exit_code == 3, result.output
        assert "total 1000 exceeds the space capacity 80" in result.output
        assert solves == []
        out = tmp_path / "out"
        assert not out.exists() or not any(p.is_file() for p in out.rglob("*"))

    def test_repeated_value_runs_twice(self, tmp_path, runner):
        cfg = self.config(tmp_path, icc=[0.05, 0.05], cac=[0.5])
        result = runner.invoke(main, ["optimize", "--config",
                                      write_json(tmp_path / "cfg.json", cfg)])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        index = (tmp_path / "out" / "grid_index.csv").read_text().splitlines()
        assert index[1] == index[2] and index[1].endswith(",icc0.05_cac0.5")
        assert [p.name for p in (tmp_path / "out").iterdir() if p.is_dir()] == [
            "icc0.05_cac0.5"]


class TestRobustEveryAlgorithm:
    """A ``robust`` block runs with every algorithm but the closed form, and
    a class of one model writes the bundle of that model's plain run."""

    CLUSTER_PERIOD = {"standard": {"T": 6, "maxReplication": 10,
                                   "granularity": "cluster-period"}}
    TWO_MODELS = {"form": "log-average", "entries": [
        {"covariance": {"kind": "EXC2", "icc": 0.05, "cac": 0.5}, "prior": 0.5},
        {"covariance": {"kind": "AR1", "icc": 0.05, "decay": 0.8}, "prior": 0.5}]}

    def run(self, tmp_path, runner, name, cfg):
        cfg = dict(cfg, out=str(tmp_path / name))
        return runner.invoke(main, ["optimize", "--config",
                                    write_json(tmp_path / f"{name}.json", cfg)])

    @pytest.mark.parametrize("algorithm,overrides,total", [
        ("mixed-model-weights", {"space": CLUSTER_PERIOD, "n_obs": 60}, 60),
        ("simplex-weights", {"m": 8}, 8),
    ], ids=["mixed-model-weights", "simplex-weights"])
    def test_weight_algorithms_run_a_class(self, tmp_path, runner, algorithm,
                                           overrides, total):
        cfg = base_config(tmp_path, algorithm=algorithm, robust=self.TWO_MODELS,
                          **overrides)
        cfg.pop("covariance")
        result = self.run(tmp_path, runner, "out", cfg)
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "out" / "weights.csv").read_text().splitlines()
        assert sum(float(line.split(",")[-1]) for line in lines[1:]) == pytest.approx(1.0)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert sum(summary["design_counts"]) == total

    @pytest.mark.parametrize("algorithm,overrides", [
        ("mixed-model-weights", {"space": CLUSTER_PERIOD, "n_obs": 60}),
        ("mixed-model-weights", {"m": 8}),
        ("simplex-weights", {"m": 8}),
    ], ids=["mixed-cluster-period", "mixed-sequence", "simplex-sequence"])
    def test_class_of_one_writes_the_plain_bundle(self, tmp_path, runner, algorithm,
                                                   overrides):
        cfg = base_config(tmp_path, algorithm=algorithm, **overrides)
        # one period effect per period, then the treatment effect
        n_periods = cfg["space"]["standard"]["T"]
        cfg["model"] = {"family": "binomial-logit",
                        "beta": [-2] + [-1] * (n_periods - 1) + [0.5]}
        assert self.run(tmp_path, runner, "plain", cfg).exit_code == 0
        one = {key: v for key, v in cfg.items() if key not in ("covariance", "model")}
        one["robust"] = {"entries": [
            {"covariance": cfg["covariance"], "model": cfg["model"], "prior": 1}]}
        result = self.run(tmp_path, runner, "one", one)
        assert result.exit_code == 0, result.output
        for name in ("weights.csv", "design_grid.csv"):
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())
        summaries = [{key: v for key, v in json.loads(
            (tmp_path / d / "summary.json").read_text()).items()
                      if key not in ("wall_time_s", "config_digest")}
                     for d in ("plain", "one")]
        assert summaries[0] == summaries[1]

    def test_closed_form_rejects_a_class(self, tmp_path, runner):
        cfg = base_config(tmp_path, algorithm="closed-form")
        cfg["robust"] = {"entries": [{"covariance": cfg.pop("covariance"), "prior": 1}]}
        result = self.run(tmp_path, runner, "out", cfg)
        assert result.exit_code == 2, result.output
        assert "'robust'" in result.output
        assert not (tmp_path / "out").exists()


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

    def test_robust_class_scores_what_optimize_reported(self, tmp_path, runner):
        cfg = base_config(tmp_path)
        cfg.pop("covariance")
        cfg["robust"] = {"form": "log-average", "entries": [
            {"covariance": {"kind": "EXC2", "icc": 0.02, "cac": 0.7}, "prior": 0.5},
            {"covariance": {"kind": "AR1", "icc": 0.1, "decay": 0.6}, "prior": 0.5}]}
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        result = runner.invoke(main, ["optimize", "--config", cfg_path])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        design_path = write_json(tmp_path / "d.json", {"counts": summary["design_counts"]})
        result = runner.invoke(main, ["evaluate", "--config", cfg_path,
                                      "--design", design_path])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[0] == f"criterion value: {summary['criterion_value']:.12g}"
        # one eigenvalue line per model, and no closed-form check of a class
        assert [line.split(" information")[0] for line in lines[1:]] == [
            "robust.entries[0]", "robust.entries[1]"]

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
