"""Command-line front end.

``crtoptim optimize`` reads a JSON run configuration, dispatches one of
the optimisers, and writes a result bundle: a design grid CSV (rows are
clusters or sequences, columns are periods, each cell ``treated:count``),
a weights CSV for the weighting algorithms, and a JSON summary carrying
the criterion value, seed, wall time, and a digest of the canonicalised
configuration. ``crtoptim evaluate`` scores an explicit design against a
configuration, under the criterion ``optimize`` would run (a ``robust``
block's model class included), and cross-checks the closed form where it
applies.

An ``optimize`` run is a list of cells, one for a single run and one per
``grid`` point, each with one criterion: a ``robust`` block's model class,
or the plain criterion of the cell's covariance, built in the timed solve
stage. Every algorithm runs that criterion as it is, except the closed
form, which needs one covariance and rejects a class (exit 2); a
``robust`` block cannot be combined with ``grid``. A top-level field the
run would not read is a configuration error: a ``covariance`` or
``model`` beside ``robust``, whose entries carry their own, and a
``covariance`` beside ``grid``, whose cells do. :func:`_solve` runs
over the whole list, then one write
loop writes each cell's whole bundle and makes its directory only then (a
single run writes at the top of the output directory). A configuration
error writes nothing; an output directory, or a cell directory under it,
that runs through an existing file is one, found before any cell is
solved. An optimiser error stops the run at its cell, after the earlier
cells' bundles. A cell's ``wall_time_s`` is an equal share of the solve
stage plus its own writes.

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

from .apportion import _check_total, _lockstep_rounding
from .covariance import COVARIANCE_KINDS, CovarianceSpec, ModelSpec
from .designspace import (Cell, Design, DesignSpace, ExperimentalUnit, expand_design,
                          standard_space)
from .errors import (ConvergenceError, EnumerationLimitError, InfeasibleError,
                     NumericDomainError, ValidationError)
from .exact import CellMeanParams, optimal_switch_ordering, treatment_precision
from .glscore import DesignCriterion
from .robust import ModelClass, ModelEntry, RobustCriterion
from .search import local_search, reverse_greedy
from .weights import _lockstep_weights, simplex_weight_descent

ALGORITHMS = ("local", "reverse-greedy", "mixed-model-weights",
              "simplex-weights", "closed-form")


class ConfigError(Exception):
    """Configuration rejected; message names the offending field."""


def _is_number(value, kind) -> bool:
    """A JSON number (``kind`` float) or integer (``kind`` int); a boolean
    is neither."""
    return (isinstance(value, (int, float) if kind is float else int)
            and not isinstance(value, bool))


def _object(cfg, where: str) -> dict:
    """``cfg``, the JSON object at path ``where`` (written with a trailing
    dot), or :class:`ConfigError` when it is some other value."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"field '{where[:-1]}' must be an object")
    return cfg


def _require(cfg: dict, field: str, kind, where: str):
    if field not in _object(cfg, where):
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
    return _require(cfg, field, kind, where) if field in _object(cfg, where) else default


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
            units.append(ExperimentalUnit(
                _optional(u, "clusterId", int, f"space.units[{i}].", i), tuple(parsed)))
        return DesignSpace(n_periods, tuple(units),
                           max_replication=_optional(spec, "maxReplication", int,
                                                     "space.", 1),
                           granularity=spec.get("granularity", "sequence"))
    except ValidationError as exc:
        raise ConfigError(f"invalid field 'space': {exc}") from exc


def parse_covariance(cfg: dict, where: str = "") -> CovarianceSpec:
    """The ``covariance`` object of ``cfg``, the JSON object at path
    ``where`` (empty at the top level, else written with a trailing dot)."""
    spec = _require(cfg, "covariance", dict, where)
    field = f"{where}covariance"
    inner = f"{field}."
    kind = _require(spec, "kind", str, inner)
    decay = _optional(spec, "decay", float, inner, 1.0)
    sigma2 = _optional(spec, "sigma2", float, inner, 1.0)
    try:
        if "icc" in spec:
            return CovarianceSpec.from_icc(
                kind, _require(spec, "icc", float, inner),
                cac=_optional(spec, "cac", float, inner, None), decay=decay,
                sigma2=sigma2)
        return CovarianceSpec(kind, tau2=_require(spec, "tau2", float, inner),
                              omega2=_optional(spec, "omega2", float, inner, 0.0),
                              decay=decay, sigma2=sigma2)
    except ValidationError as exc:
        raise ConfigError(f"invalid field '{field}': {exc}") from exc


def parse_model(cfg: dict, where: str = "") -> ModelSpec:
    """The optional ``model`` object of ``cfg``, the JSON object at path
    ``where`` (as in :func:`parse_covariance`)."""
    if "model" not in cfg:
        return ModelSpec()
    spec = cfg["model"]
    field = f"{where}model"
    if not isinstance(spec, dict):
        raise ConfigError(f"field '{field}' must be an object")
    beta = (_require_list(spec, "beta", float, f"{field}.")
            if spec.get("beta") is not None else None)
    try:
        return ModelSpec(family=spec.get("family", "gaussian-identity"),
                         beta=beta,
                         attenuate=_optional(spec, "attenuate", bool, f"{field}.", False))
    except ValidationError as exc:
        raise ConfigError(f"invalid field '{field}': {exc}") from exc


def parse_robust(cfg: dict, space: DesignSpace) -> RobustCriterion | None:
    """The class of the ``robust`` block of ``cfg``, or ``None`` without
    one; its entries carry their own covariances and models, so a top-level
    ``covariance`` or ``model`` beside it, which the run would not read, is
    a :class:`ConfigError` too."""
    if "robust" not in cfg:
        return None
    spec = cfg["robust"]
    if not isinstance(spec, dict):
        raise ConfigError("field 'robust' must be an object")
    entries_cfg = _require(spec, "entries", list, "robust.")
    entries = []
    for i, entry in enumerate(entries_cfg):
        where = f"robust.entries[{i}]."
        cov = parse_covariance(_object(entry, where), where)
        model = parse_model(entry, where)
        prior = _require(entry, "prior", float, where)
        entries.append(ModelEntry(covariance=cov, prior=prior, model=model))
    try:
        robust = RobustCriterion(space, ModelClass(tuple(entries),
                                                   form=spec.get("form", "linear-average")))
    except ValidationError as exc:
        raise ConfigError(f"invalid field 'robust': {exc}") from exc
    for field in ("covariance", "model"):
        if field in cfg:
            raise ConfigError(f"field '{field}' cannot be combined with 'robust'")
    return robust


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


def _until_failure(solve, criteria) -> list:
    """``solve(criterion)`` of each cell's criterion in turn, stopping at the
    first cell that raises :class:`InfeasibleError` or
    :class:`ConvergenceError`, whose error then ends the list."""
    results = []
    for criterion in criteria:
        try:
            results.append(solve(criterion))
        except (InfeasibleError, ConvergenceError) as exc:
            results.append(exc)
            break
    return results


def _solve(cfg: dict, space, algorithm, m, restarts, seed, criteria) -> list:
    """The solve stage of a run over ``criteria``, one criterion per cell
    (a plain one, or the model class of a ``robust`` block): per cell, in
    order, ``(value, design, fields, weights)`` (``design`` and ``weights``
    may be None, ``fields`` holds the cell's extra summary entries) or the
    optimiser error that stops the run there; the list ends at the first
    error. Every algorithm runs the cell's criterion as it is, but the
    closed form, which needs one covariance and rejects a class. The
    searches, the closed form and the simplex descent run cell by cell; the
    mixed-model fixed points of all cells run in lockstep, and the solved
    weights of all cells are rounded in lockstep."""
    if algorithm in ("local", "reverse-greedy"):
        if m is None:
            raise ConfigError("missing field 'm'")
        fields = {"restarts": restarts} if algorithm == "local" else {}

        def search(criterion):
            result = (local_search(space, criterion, m, restarts=restarts, seed=seed)
                      if algorithm == "local" else reverse_greedy(space, criterion, m))
            return result.value, result.design, fields, None
        return _until_failure(search, criteria)
    if algorithm == "closed-form":
        return _until_failure(lambda criterion: (*_closed_form_design(
            space, _closed_form_params(space, criterion, m)), {}, None), criteria)

    n_obs = _optional(cfg, "n_obs", int, "", None)
    # the rounding total, None for continuous weights; checked before the
    # solve, so that a total beyond the space's capacity solves nothing
    budget = m if space.granularity == "sequence" else n_obs or None
    if budget is not None:
        _check_total(space, budget)
    # the solvers' own default tolerance applies unless the config sets one
    tolerance = ({"tolerance": _require(cfg, "tolerance", float, "")}
                 if "tolerance" in cfg else {})
    if algorithm == "mixed-model-weights":
        weighted = _lockstep_weights(space, criteria, n_obs, **tolerance)
    else:
        weighted = _until_failure(lambda criterion: simplex_weight_descent(
            space, criterion, **tolerance), criteria)
    solved = list(itertools.takewhile(lambda wd: not isinstance(wd, Exception), weighted))
    rounded = []
    if budget is not None and solved:
        rounded = _lockstep_rounding(space, criteria[:len(solved)],
                                     [wd.weights for wd in solved], budget)
    results = []
    for wd, result in itertools.zip_longest(weighted, rounded):
        error = wd if isinstance(wd, Exception) else result
        if isinstance(error, Exception):
            return results + [error]
        fields = {"iterations": wd.iterations}
        value, design = wd.value, None
        if result is not None:
            fields["rounding_scheme"] = result.scheme
            value, design = result.value, result.design
        results.append((value, design, fields, wd.weights))
    return results


def _closed_form_params(space: DesignSpace, criterion: DesignCriterion,
                        n_clusters: int | None) -> CellMeanParams:
    """The cluster-mean model of the closed form, read from the criterion's
    ``covariance`` and ``model``: it needs one covariance, not a model
    class, EXC2, a Gaussian model, ``n_clusters`` and a sequence space of
    equal cells; else :class:`ConfigError`."""
    if isinstance(criterion, RobustCriterion):
        raise ConfigError(
            "field 'robust': closed-form needs one covariance, not a model class")
    cov, model = criterion.covariance, criterion.model
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
    robust = parse_robust(cfg, space)
    model = parse_model(cfg)
    m = m_override if m_override is not None else _optional(cfg, "m", int, "", None)
    if m is not None and m < 1:
        raise ConfigError("field 'm' must be a positive integer")
    if restarts is None:
        restarts = _optional(cfg, "restarts", int, "", 100)
    if restarts < 1:
        raise ConfigError("field 'restarts' must be at least 1")
    if seed is None:
        seed = _optional(cfg, "seed", int, "", 0)
    if seed < 0:
        raise ConfigError("field 'seed' must be a non-negative integer")
    out_dir = Path(out_override or _optional(cfg, "out", str, "", "."))

    grid = cfg.get("grid")
    if robust is not None and grid is not None:
        raise ConfigError("field 'grid' cannot be combined with 'robust'")
    if grid is not None:
        axes, cells = _grid_cells(grid)
        if "covariance" in cfg:  # each cell has its own
            raise ConfigError("field 'covariance' cannot be combined with 'grid'")
    else:
        # one cell without parameters, whose directory is ``out_dir`` itself
        axes, cells = None, [((), {}, parse_covariance(cfg) if robust is None else None)]

    cell_dirs = [out_dir / "_".join(f"{key}{v}" for key, v in params.items())
                 for _, params, _ in cells]
    # every file a cell's bundle may hold, and the grid's index
    names = ["summary.json", "design_grid.csv"]
    if algorithm in ("mixed-model-weights", "simplex-weights"):
        names.append("weights.csv")
    files = [cell_dir / name for cell_dir in cell_dirs for name in names]
    if axes is not None:
        files.append(out_dir / "grid_index.csv")
    _check_directories(cell_dirs, files)
    started = time.perf_counter()
    # one criterion per cell: a robust block's class, built as it was parsed,
    # or a plain criterion per cell, built here in the timed solve stage
    criteria = [robust or DesignCriterion(space, cov, model=model) for _, _, cov in cells]
    results = _solve(cfg, space, algorithm, m, restarts, seed, criteria)
    share = (time.perf_counter() - started) / len(cells)
    digest = config_digest(cfg)
    index_rows = []
    for (point, params, _), cell_dir, result in zip(cells, cell_dirs, results):
        if isinstance(result, Exception):
            raise result
        started = time.perf_counter() - share
        value, design, fields, weights = result
        cell_dir.mkdir(parents=True, exist_ok=True)
        summary = {"algorithm": algorithm, "seed": seed, "config_digest": digest,
                   **fields, "criterion_value": None if math.isinf(value) else value}
        if weights is not None:
            write_weights_csv(cell_dir / "weights.csv", space, weights)
        if design is not None:
            write_design_grid(cell_dir / "design_grid.csv", space, design)
            summary["design_counts"] = list(design.counts)
        summary["wall_time_s"] = round(time.perf_counter() - started, 6)
        with open(cell_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
        label = "inf" if math.isinf(value) else f"{value:.10g}"
        if axes is None:
            click.echo(f"{algorithm}: criterion value {label}")
        else:
            index_rows.append([*point, value, cell_dir.name])
            click.echo(" ".join(f"{key}={v}" for key, v in params.items())
                       + f": {label}")
    if axes is not None:
        with open(out_dir / "grid_index.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([*axes, "criterion_value", "directory"])
            writer.writerows(index_rows)


def _check_directories(paths, files) -> None:
    """:class:`ConfigError` unless every path in ``paths`` is a directory
    or can be made one (the nearest of it and its parents that exists
    must be a directory) and no path in ``files`` is a directory, so that
    a run writes every file of its bundle or none."""
    for path in paths:
        existing = next((p for p in (path, *path.parents) if p.exists()), None)
        if existing is not None and not existing.is_dir():
            raise ConfigError(f"field 'out': {existing} is not a directory")
    for path in files:
        if path.is_dir():
            raise ConfigError(f"field 'out': {path} is a directory, not a file")


def _grid_cells(grid) -> tuple[list[str], list]:
    """The axes of a ``grid`` block and its cells ``(point, params, cov)``
    in product order, every point checked before any cell runs."""
    if not isinstance(grid, dict):
        raise ConfigError("field 'grid' must be an object")
    kind = _require(grid, "kind", str, "grid.")
    if kind not in COVARIANCE_KINDS:
        raise ConfigError(
            f"field 'grid.kind' must be one of {', '.join(COVARIANCE_KINDS)}")
    axes = {"icc": _require_list(grid, "icc", float, "grid.")}
    second_key = "cac" if kind == "EXC2" else "decay"
    if kind != "EXC1" or second_key in grid:  # EXC1 has no second parameter
        axes[second_key] = _require_list(grid, second_key, float, "grid.")
    for key, values in axes.items():
        if not values:
            raise ConfigError(f"field 'grid.{key}' must not be empty")
    cells = []
    for point in itertools.product(*axes.values()):
        params = dict(zip(axes, point))
        try:
            cells.append((point, params, CovarianceSpec.from_icc(kind, **params)))
        except ValidationError as exc:
            raise ConfigError(f"invalid field 'grid': {exc}") from exc
    return list(axes), cells


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--design", "design_path", required=True, type=click.Path())
@_exit_codes
def evaluate(config_path, design_path):
    """Report the criterion value of an explicit design."""
    cfg = load_config(config_path)
    space = parse_space(cfg)
    robust = parse_robust(cfg, space)
    cov = parse_covariance(cfg) if robust is None else None
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

    # the criterion optimize runs: a robust block's class, or the plain
    # criterion of the covariance and model
    criterion = robust or DesignCriterion(space, cov, model=model)
    counts = np.asarray(design.counts)
    value = criterion.value(counts)
    if math.isinf(value):
        click.echo("criterion value: infinite (design does not identify "
                   "the treatment effect)")
    else:
        click.echo(f"criterion value: {value:.12g}")
    # one line per model the value scores, a class's named by its entry
    names = ([""] if robust is None else
             [f"robust.entries[{i}] " for i, entry in enumerate(robust.model_class.entries)
              if entry.prior > 0.0])
    for name, information in zip(names, criterion._model_information(counts)):
        eigs = np.linalg.eigvalsh(information)
        cond = eigs[-1] / eigs[0] if eigs[0] > 0 else math.inf
        click.echo(f"{name}information matrix eigenvalues: min {eigs[0]:.6g} "
                   f"max {eigs[-1]:.6g} condition {cond:.6g}")
    _closed_form_check(space, criterion, design, value)


def _closed_form_check(space, criterion, design, value):
    """Cross-check against the cluster-mean precision formula when the
    design is an equal-cell complete EXC2 layout."""
    try:
        params = _closed_form_params(space, criterion, design.size)
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
