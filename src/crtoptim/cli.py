"""Command-line front end.

``crtoptim optimize`` reads a JSON run configuration, dispatches one of
the optimisers, and writes a result bundle: a design grid CSV (rows are
clusters or sequences, columns are periods, each cell ``treated:count``),
a weights CSV for the weighting algorithms, and a JSON summary carrying
the criterion value, seed, wall time, and a digest of the canonicalised
configuration. ``crtoptim evaluate`` scores an explicit design against a
configuration and cross-checks the closed form where it applies.

Exit codes: 2 for configuration problems, 3 for optimiser infeasibility
or non-convergence.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import sys
import time
from pathlib import Path

import click
import numpy as np

from .apportion import best_rounding
from .covariance import CovarianceSpec, ModelSpec
from .designspace import (Cell, Design, DesignSpace, ExperimentalUnit, expand_design,
                          standard_space)
from .errors import (ConvergenceError, EnumerationLimitError, InfeasibleError,
                     NumericDomainError, ValidationError)
from .exact import CellMeanParams, optimal_switch_ordering, treatment_precision
from .glscore import DesignCriterion
from .robust import ModelClass, ModelEntry, RobustCriterion
from .search import local_search, reverse_greedy
from .weights import mixed_model_weights, simplex_weight_descent

ALGORITHMS = ("local", "reverse-greedy", "mixed-model-weights",
              "simplex-weights", "closed-form")


class ConfigError(Exception):
    """Configuration rejected; message names the offending field."""


def _is_number(value, kind) -> bool:
    """A JSON number (``kind`` float) or integer (``kind`` int); a boolean
    is neither."""
    return (isinstance(value, (int, float) if kind is float else int)
            and not isinstance(value, bool))


def _require(cfg: dict, field: str, kind, where: str):
    if field not in cfg:
        raise ConfigError(f"missing field '{where}{field}'")
    value = cfg[field]
    if kind in (float, int):
        if not _is_number(value, kind):
            noun = "a number" if kind is float else "an integer"
            raise ConfigError(f"field '{where}{field}' must be {noun}")
        return float(value) if kind is float else value
    if not isinstance(value, kind):
        raise ConfigError(f"field '{where}{field}' has the wrong type")
    return value


def _require_list(cfg: dict, field: str, kind, where: str) -> list:
    """A list whose entries are all ``kind`` (float or int), as written."""
    values = _require(cfg, field, object, where)
    if not isinstance(values, list) or not all(_is_number(v, kind) for v in values):
        noun = "numbers" if kind is float else "integers"
        raise ConfigError(f"field '{where}{field}' must be a list of {noun}")
    return values


def _optional(cfg: dict, field: str, kind, where: str, default):
    """``_require`` for a field that may be left out."""
    return _require(cfg, field, kind, where) if field in cfg else default


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def parse_space(cfg: dict) -> DesignSpace:
    spec = _require(cfg, "space", dict, "")
    try:
        if "standard" in spec:
            std = spec["standard"]
            return standard_space(
                _require(std, "T", int, "space.standard."),
                style=std.get("style", "no-reversibility"),
                max_replication=_optional(std, "maxReplication", int,
                                          "space.standard.", 1),
                cells_per_period=_optional(std, "count", int, "space.standard.", 1),
                granularity=std.get("granularity", "sequence"))
        n_periods = _require(spec, "T", int, "space.")
        unit_specs = _require(spec, "units", list, "space.")
        units = []
        for i, u in enumerate(unit_specs):
            cells = _require(u, "cells", list, f"space.units[{i}].")
            parsed = []
            for k, cell in enumerate(cells):
                where = f"space.units[{i}].cells[{k}]."
                parsed.append(Cell(_require(cell, "period", int, where),
                                   _require(cell, "treated", int, where),
                                   _optional(cell, "count", int, where, 1)))
            units.append(ExperimentalUnit(u.get("clusterId", i), tuple(parsed)))
        return DesignSpace(n_periods, tuple(units),
                           max_replication=_optional(spec, "maxReplication", int,
                                                     "space.", 1),
                           granularity=spec.get("granularity", "sequence"))
    except ValidationError as exc:
        raise ConfigError(f"invalid field 'space': {exc}") from exc


def parse_covariance(cfg: dict, key: str = "covariance") -> CovarianceSpec:
    spec = _require(cfg, key, dict, "")
    where = f"{key}."
    kind = _require(spec, "kind", str, where)
    decay = _optional(spec, "decay", float, where, 1.0)
    sigma2 = _optional(spec, "sigma2", float, where, 1.0)
    try:
        if "icc" in spec:
            return CovarianceSpec.from_icc(
                kind, _require(spec, "icc", float, where),
                cac=_optional(spec, "cac", float, where, None), decay=decay,
                sigma2=sigma2)
        return CovarianceSpec(kind, tau2=_require(spec, "tau2", float, where),
                              omega2=_optional(spec, "omega2", float, where, 0.0),
                              decay=decay, sigma2=sigma2)
    except ValidationError as exc:
        raise ConfigError(f"invalid field '{key}': {exc}") from exc


def parse_model(cfg: dict, key: str = "model") -> ModelSpec:
    if key not in cfg:
        return ModelSpec()
    spec = cfg[key]
    if not isinstance(spec, dict):
        raise ConfigError(f"field '{key}' must be an object")
    beta = (_require_list(spec, "beta", float, f"{key}.")
            if spec.get("beta") is not None else None)
    try:
        return ModelSpec(family=spec.get("family", "gaussian-identity"),
                         beta=beta,
                         attenuate=spec.get("attenuate", False))
    except ValidationError as exc:
        raise ConfigError(f"invalid field '{key}': {exc}") from exc


def parse_robust(cfg: dict, space: DesignSpace) -> RobustCriterion | None:
    if "robust" not in cfg:
        return None
    spec = cfg["robust"]
    if not isinstance(spec, dict):
        raise ConfigError("field 'robust' must be an object")
    entries_cfg = _require(spec, "entries", list, "robust.")
    entries = []
    for i, entry in enumerate(entries_cfg):
        where = f"robust.entries[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"field '{where}' must be an object")
        cov = parse_covariance(entry, "covariance")
        model = parse_model(entry, "model")
        prior = _require(entry, "prior", float, f"{where}.")
        entries.append(ModelEntry(covariance=cov, prior=prior, model=model))
    try:
        model_class = ModelClass(tuple(entries),
                                 form=spec.get("form", "linear-average"))
        return RobustCriterion(space, model_class)
    except ValidationError as exc:
        raise ConfigError(f"invalid field 'robust': {exc}") from exc


def config_digest(cfg: dict) -> str:
    semantic = {k: v for k, v in cfg.items() if k != "out"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _design_grid_rows(space: DesignSpace, design: Design) -> list[list[str]]:
    """One row per realised cluster of ``expand_design``, in cluster-id
    order; cells formatted ``treated:count``."""
    lay = expand_design(space, design)
    rows: dict[int, list[str]] = {}
    for cid, period, treated, n, j in zip(
            lay.cell_cluster.tolist(), lay.cell_period.tolist(),
            lay.cell_treated.tolist(), lay.cell_n.tolist(), lay.cell_unit.tolist()):
        source = f"seq_{j}" if space.granularity == "sequence" else f"cluster_{cid}"
        row = rows.setdefault(cid, [f"cluster_{cid}", source] + [""] * space.n_periods)
        row[period + 1] = f"{treated}:{n}"
    return [rows[cid] for cid in sorted(rows)]


def write_design_grid(path, space: DesignSpace, design: Design) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster", "source"] +
                        [f"period_{t}" for t in range(1, space.n_periods + 1)])
        writer.writerows(_design_grid_rows(space, design))


def write_weights_csv(path, space: DesignSpace, weights: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if space.granularity == "sequence":
            writer.writerow(["unit", "weight"])
            for j, w in enumerate(weights):
                writer.writerow([f"seq_{j}", repr(float(w))])
        else:
            writer.writerow(["cluster", "period", "weight"])
            for j, w in enumerate(weights):
                unit = space.units[j]
                writer.writerow([unit.cluster_id, unit.cells[0].period,
                                 repr(float(w))])


def _run_single(cfg: dict, space, cov, model, robust, algorithm, m, restarts,
                seed, out_dir: Path) -> float:
    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"algorithm": algorithm, "seed": seed,
               "config_digest": config_digest(cfg)}
    design = None

    if algorithm in ("local", "reverse-greedy"):
        if m is None:
            raise ConfigError("missing field 'm'")
        criterion = robust if robust is not None else DesignCriterion(
            space, cov, model=model)
        if algorithm == "local":
            result = local_search(space, criterion, m, restarts=restarts, seed=seed)
            summary["restarts"] = restarts
        else:
            result = reverse_greedy(space, criterion, m)
        value, design = result.value, result.design
    elif algorithm in ("mixed-model-weights", "simplex-weights"):
        n_obs = _optional(cfg, "n_obs", int, "", None)
        tolerance = _optional(cfg, "tolerance", float, "",
                              1e-6 if algorithm == "mixed-model-weights" else 1e-8)
        if algorithm == "mixed-model-weights":
            wd = mixed_model_weights(space, cov, model=model, total_obs=n_obs,
                                     tolerance=tolerance)
        else:
            wd = simplex_weight_descent(space, cov, model=model, tolerance=tolerance)
        write_weights_csv(out_dir / "weights.csv", space, wd.weights)
        summary["iterations"] = wd.iterations
        value = wd.value
        if m is not None or (space.granularity != "sequence" and n_obs):
            budget = m if space.granularity == "sequence" else n_obs
            rounded = best_rounding(space, cov, wd.weights, budget, model=model)
            summary["rounding_scheme"] = rounded.scheme
            value, design = rounded.value, rounded.design
    else:
        value, design = _closed_form_design(
            space, _closed_form_params(space, cov, model, m))

    if design is not None:
        write_design_grid(out_dir / "design_grid.csv", space, design)
        summary["design_counts"] = list(design.counts)
    summary["criterion_value"] = None if math.isinf(value) else value
    summary["wall_time_s"] = round(time.perf_counter() - started, 6)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return value


def _closed_form_params(space: DesignSpace, cov, model,
                        n_clusters: int | None) -> CellMeanParams:
    """The cluster-mean model of the closed form, which needs EXC2, a Gaussian
    model, ``n_clusters`` and a sequence space of equal cells; else
    :class:`ConfigError`."""
    if cov.kind != "EXC2":
        raise ConfigError("field 'algorithm': closed-form needs an EXC2 covariance")
    if not model.is_gaussian:
        raise ConfigError(
            "field 'model': closed-form needs a gaussian-identity model")
    if n_clusters is None:
        raise ConfigError("missing field 'm'")
    counts = {c.count for u in space.units for c in u.cells}
    if space.granularity != "sequence" or len(counts) != 1:
        raise ConfigError(
            "field 'algorithm': closed-form needs a sequence space with "
            "equal cell counts")
    return CellMeanParams(n_clusters, space.n_periods, counts.pop(), cov.tau2,
                          cov.omega2, cov.sigma2)


def _closed_form_design(space: DesignSpace,
                        params: CellMeanParams) -> tuple[float, Design]:
    """Variance and design of the most precise switch ordering, over all
    treated-cell budgets, whose rows are units of the space."""
    best = None
    for budget in range(params.n_clusters * space.n_periods + 1):
        treat = optimal_switch_ordering(params.n_clusters, space.n_periods,
                                        params.cluster_mean_correlation, budget)
        prec = treatment_precision(params, treat)
        if prec > 0 and (best is None or prec > best[0]):
            counts = _sequence_counts(space, treat)
            if counts is not None:
                best = (prec, counts)
    if best is None:
        raise InfeasibleError(
            "no budget yields a finite-variance design within the design space")
    precision, counts = best
    return 1.0 / precision, space.design_from_counts(counts)


def _unit_pattern(space: DesignSpace, unit: ExperimentalUnit) -> tuple[int, ...] | None:
    """A unit's treatment indicators over the study periods; ``None`` unless
    it has a cell in every period."""
    pattern = [0] * space.n_periods
    for cell in unit.cells:
        pattern[cell.period - 1] = cell.treated
    return tuple(pattern) if len(unit.cells) == space.n_periods else None


def _sequence_counts(space: DesignSpace, treat: np.ndarray) -> list[int] | None:
    """Unit multiplicities realising each row of a treatment matrix as a
    complete unit of the space; ``None`` when a row has no such unit left
    within the replication cap."""
    units: dict[tuple[int, ...] | None, list[int]] = {}
    for j, unit in enumerate(space.units):  # incomplete units go under None
        units.setdefault(_unit_pattern(space, unit), []).append(j)
    counts = [0] * space.n_units
    for row in treat:
        free = [j for j in units.get(tuple(int(v) for v in row), [])
                if counts[j] < space.max_replication]
        if not free:
            return None
        counts[free[0]] += 1
    return counts


def _exit_codes(command):
    """Run a command, exiting with code 2 on a configuration problem and 3
    on an infeasible or non-converging optimisation."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (ConfigError, ValidationError, NumericDomainError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (InfeasibleError, ConvergenceError, EnumerationLimitError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
    return run


@click.group()
def main():
    """Optimal cluster randomised trial designs."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--algorithm", type=click.Choice(ALGORITHMS), default=None)
@click.option("--m", "m_override", type=int, default=None)
@click.option("--restarts", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_override", type=click.Path(), default=None)
@_exit_codes
def optimize(config_path, algorithm, m_override, restarts, seed, out_override):
    """Run an optimiser described by a JSON configuration."""
    cfg = load_config(config_path)
    algorithm = algorithm or cfg.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"field 'algorithm' must be one of {', '.join(ALGORITHMS)}")
    space = parse_space(cfg)
    model = parse_model(cfg)
    robust = parse_robust(cfg, space)
    m = m_override if m_override is not None else _optional(cfg, "m", int, "", None)
    if m is not None and m < 1:
        raise ConfigError("field 'm' must be a positive integer")
    if restarts is None:
        restarts = _optional(cfg, "restarts", int, "", 100)
    if seed is None:
        seed = _optional(cfg, "seed", int, "", 0)
    if seed < 0:
        raise ConfigError("field 'seed' must be a non-negative integer")
    out_dir = Path(out_override or cfg.get("out", "."))

    grid = cfg.get("grid")
    if robust is not None:
        if grid is not None:
            raise ConfigError("field 'grid' cannot be combined with 'robust'")
        if algorithm not in ("local", "reverse-greedy"):
            raise ConfigError(
                "field 'robust' only applies to the combinatorial "
                "algorithms (local, reverse-greedy)")
    if grid is not None:
        _run_grid(cfg, space, model, grid, algorithm, m, restarts, seed, out_dir)
    else:
        cov = parse_covariance(cfg) if robust is None else None
        value = _run_single(cfg, space, cov, model, robust, algorithm, m,
                            restarts, seed, out_dir)
        label = "inf" if math.isinf(value) else f"{value:.10g}"
        click.echo(f"{algorithm}: criterion value {label}")


def _run_grid(cfg, space, model, grid, algorithm, m, restarts, seed,
              out_dir: Path):
    if not isinstance(grid, dict):
        raise ConfigError("field 'grid' must be an object")
    kind = _require(grid, "kind", str, "grid.")
    axes = {"icc": _require_list(grid, "icc", float, "grid.")}
    second_key = "cac" if kind == "EXC2" else "decay"
    if kind != "EXC1" or second_key in grid:  # EXC1 has no second parameter
        axes[second_key] = _require_list(grid, second_key, float, "grid.")
    out_dir.mkdir(parents=True, exist_ok=True)
    index_rows = []
    for point in itertools.product(*axes.values()):
        params = dict(zip(axes, point))
        try:
            cov = CovarianceSpec.from_icc(kind, **params)
        except ValidationError as exc:
            raise ConfigError(f"invalid field 'grid': {exc}") from exc
        cell_dir = out_dir / "_".join(f"{key}{v}" for key, v in params.items())
        value = _run_single(cfg, space, cov, model, None, algorithm, m,
                            restarts, seed, cell_dir)
        index_rows.append([*point, value, str(cell_dir.name)])
        label = "inf" if math.isinf(value) else f"{value:.10g}"
        click.echo(" ".join(f"{key}={v}" for key, v in params.items())
                   + f": {label}")
    with open(out_dir / "grid_index.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*axes, "criterion_value", "directory"])
        writer.writerows(index_rows)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--design", "design_path", required=True, type=click.Path())
@_exit_codes
def evaluate(config_path, design_path):
    """Report the criterion value of an explicit design."""
    cfg = load_config(config_path)
    space = parse_space(cfg)
    cov = parse_covariance(cfg)
    model = parse_model(cfg)
    try:
        design_cfg = load_config(design_path)
        if "counts" in design_cfg:
            design = space.design_from_counts(
                _require_list(design_cfg, "counts", int, ""))
        elif "selection" in design_cfg:
            design = space.design_from_indices(
                _require_list(design_cfg, "selection", int, ""))
        else:
            raise ConfigError("needs 'counts' or 'selection'")
    except ConfigError as exc:
        raise ConfigError(f"design file: {exc}") from exc

    criterion = DesignCriterion(space, cov, model=model)
    info = criterion.information(np.asarray(design.counts))
    value = criterion.value(np.asarray(design.counts))
    if math.isinf(value):
        click.echo("criterion value: infinite (design does not identify "
                   "the treatment effect)")
    else:
        click.echo(f"criterion value: {value:.12g}")
    eigs = np.linalg.eigvalsh(info)
    cond = eigs[-1] / eigs[0] if eigs[0] > 0 else math.inf
    click.echo(f"information matrix eigenvalues: min {eigs[0]:.6g} "
               f"max {eigs[-1]:.6g} condition {cond:.6g}")
    _closed_form_check(space, cov, model, design, value)


def _closed_form_check(space, cov, model, design, value):
    """Cross-check against the cluster-mean precision formula when the
    design is an equal-cell complete EXC2 layout."""
    try:
        params = _closed_form_params(space, cov, model, design.size)
    except ConfigError:
        return
    patterns = [_unit_pattern(space, unit) for unit in space.units]
    if None in patterns:
        return
    rows = [patterns[j] for j, mult in enumerate(design.counts) for _ in range(mult)]
    precision = treatment_precision(params, np.array(rows))
    if precision <= 0 or math.isinf(value):
        agree = precision <= 0 and math.isinf(value)
        click.echo(f"closed-form cross-check: degenerate design "
                   f"({'consistent' if agree else 'INCONSISTENT'})")
        return
    rel = abs(1.0 / value - precision) / precision
    click.echo(f"closed-form cross-check: relative discrepancy {rel:.3e}")


if __name__ == "__main__":
    main()
