"""The benchmark's workloads, driven only through crtoptim's public calls.

Each workload is built from a seed (its set-up), then runs operations one
after another (a closed loop with one client). After the timed loop the
workload computes its reference values and checks every operation's
output; neither of those is timed.

Every output check re-evaluates the returned design through the dense
observation-level path, ``information_matrix(build_x, build_sigma)`` with
``c_optimality``, which shares no code with the aggregated block criterion
the optimisers use.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crtoptim as ct
from crtoptim import apportion, cli, glscore, robust, search, validate, weights

# Relative agreement required between a reported value and the dense
# re-evaluation of the same design.
VALUE_RTOL = 1e-9
# A weights file must sum to one within this.
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Size:
    """Problem size of a workload: full for measurement, tiny for the smoke test."""

    m: int
    restarts: int
    grid: int = 2          # grid points per axis (cp-weights-cli)
    n_obs: int = 60        # observation budget (cp-weights-cli)


SIZES = {
    "seq-local": {"full": Size(m=10, restarts=100), "tiny": Size(m=4, restarts=3)},
    "robust-local": {"full": Size(m=10, restarts=5), "tiny": Size(m=4, restarts=1)},
    "cp-weights-cli": {"full": Size(m=0, restarts=0),
                       "tiny": Size(m=0, restarts=0, grid=1, n_obs=20)},
}


@dataclass
class Check:
    """Outcome of one operation's output check."""

    ok: bool
    efficiency: float = math.nan
    problems: list[str] = field(default_factory=list)


def _readme_space():
    return ct.standard_space(6, max_replication=5, cells_per_period=10)


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class _DenseOracle:
    """Dense observation-level criterion, memoised per (model, design).

    ``c' M^-1 c`` comes from a direct solve; ``c_optimality`` on the same
    dense ``M`` must agree with it, or the value is ``inf`` (unverified), so
    a fault in the library's final eigen step cannot hide in both paths.
    """

    def __init__(self, space):
        self.space = space
        self._memo: dict[tuple, float] = {}

    def value(self, key, cov, counts) -> float:
        counts = tuple(int(v) for v in counts)
        memo_key = (key, counts)
        if memo_key not in self._memo:
            design = ct.Design(counts)
            x = ct.build_x(self.space, design)
            sigma = ct.build_sigma(self.space, design, cov)
            m = ct.information_matrix(x, sigma)
            c = ct.treatment_contrast(x.shape[1])
            try:
                direct = float(c @ np.linalg.solve(m, c))
            except np.linalg.LinAlgError:
                direct = math.inf
            agree = _rel_err(ct.c_optimality(m, c), direct) <= VALUE_RTOL
            self._memo[memo_key] = direct if agree else math.inf
        return self._memo[memo_key]


def _check_counts(space, counts, size, problems) -> bool:
    """Size and cap checks; True when the design passed them."""
    counts = list(counts)
    if len(counts) != space.n_units:
        problems.append(f"design has {len(counts)} entries for {space.n_units} units")
        return False
    ok = True
    if sum(counts) != size:
        problems.append(f"design size {sum(counts)} != {size}")
        ok = False
    if any(c < 0 or c > space.max_replication for c in counts):
        problems.append(f"design {counts} breaks the cap {space.max_replication}")
        ok = False
    return ok


def _check_value(reported, dense, reference, problems) -> float:
    """Value agreement and optimality; returns the design efficiency."""
    if not (math.isfinite(dense) and _rel_err(reported, dense) <= VALUE_RTOL):
        problems.append(f"reported value {reported!r} != dense {dense!r}")
        return math.nan
    if reported < reference * (1.0 - VALUE_RTOL):
        problems.append(f"value {reported!r} beats the reference {reference!r}")
    return reference / reported


class SeqLocal:
    """README search: ``local_search`` then ``reverse_greedy`` at sequence
    granularity under EXC2, one of eight ICC/CAC draws per operation.

    The draw range is narrow because the number of evaluations a search
    makes depends on the optimum's structure: over ICC 0.04-0.06 and CAC
    0.70-0.85 it stays within 15-17k, so the seed moves the work little.
    """

    N_SETTINGS = 8

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.seed = seed
        self.size = size
        rng = np.random.default_rng([seed, 1])
        self.space = _readme_space()
        self.covs = [ct.CovarianceSpec.from_icc("EXC2", icc=float(icc), cac=float(cac))
                     for icc, cac in zip(rng.uniform(0.04, 0.06, self.N_SETTINGS),
                                         rng.uniform(0.7, 0.85, self.N_SETTINGS))]
        self.crits = [ct.DesignCriterion(self.space, cov) for cov in self.covs]

    def operation(self, i: int):
        k = i % self.N_SETTINGS
        crit = self.crits[k]
        found = search.local_search(self.space, crit, self.size.m,
                                    restarts=self.size.restarts,
                                    seed=self.seed * 100_000 + i)
        stripped = search.reverse_greedy(self.space, crit, self.size.m)
        return k, found, stripped

    def check_all(self, outputs) -> list[Check]:
        oracle = _DenseOracle(self.space)
        refs = {}
        checks = []
        for k, found, stripped in outputs:
            if k not in refs:
                refs[k] = validate.brute_force_optimum(
                    self.space, self.crits[k], self.size.m).value
            problems: list[str] = []
            effs = []
            for result in (found, stripped):
                counts = result.design.counts
                if not _check_counts(self.space, counts, self.size.m, problems):
                    continue
                dense = oracle.value(k, self.covs[k], counts)
                effs.append(_check_value(result.value, dense, refs[k], problems))
            checks.append(Check(not problems, min(effs, default=math.nan), problems))
        return checks


def robust_model_class() -> ct.ModelClass:
    """The equal-prior 18-model class: EXC2 and AR1, three ICCs each with
    three CACs or decays."""
    specs = []
    for icc in (0.01, 0.05, 0.2):
        for cac in (0.2, 0.5, 0.8):
            specs.append(ct.CovarianceSpec.from_icc("EXC2", icc, cac=cac))
        for decay in (0.2, 0.5, 0.8):
            specs.append(ct.CovarianceSpec.from_icc("AR1", icc, decay=decay))
    return ct.ModelClass.equal_priors(specs)


class RobustLocal:
    """``local_search`` against the 18-model robust criterion."""

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.seed = seed
        self.size = size
        self.space = _readme_space()
        self.model_class = robust_model_class()
        self.crit = robust.RobustCriterion(self.space, self.model_class)

    def operation(self, i: int):
        return search.local_search(self.space, self.crit, self.size.m,
                                   restarts=self.size.restarts,
                                   seed=self.seed * 100_000 + i)

    def check_all(self, outputs) -> list[Check]:
        oracle = _DenseOracle(self.space)
        reference = validate.brute_force_optimum(self.space, self.crit, self.size.m).value
        checks = []
        for result in outputs:
            problems: list[str] = []
            counts = result.design.counts
            eff = math.nan
            if _check_counts(self.space, counts, self.size.m, problems):
                dense = sum(e.prior * oracle.value(j, e.covariance, counts)
                            for j, e in enumerate(self.model_class.entries))
                eff = _check_value(result.value, dense, reference, problems)
            checks.append(Check(not problems, eff, problems))
        return checks


class CpWeightsCli:
    """One in-process ``crtoptim optimize`` run: mixed-model weights at
    cluster-period granularity over a seeded 2x2 ICC x CAC grid, each grid
    cell rounded to an integer design and written as a result bundle.

    Operations cycle through eight grids drawn from the seed, because the
    weight solver's iteration count varies by up to 2x between nearby
    grid cells: with four grids the per-run median still followed the
    seed's total iteration count (spread 7% over five seeds).
    """

    MAX_REPLICATION = 10
    N_GRIDS = 8

    def __init__(self, seed: int, size: Size, work_dir: Path):
        self.size = size
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 3])
        self.config_paths = []
        self.cells = set()
        for g in range(self.N_GRIDS):
            iccs = sorted(round(float(v), 4) for v in rng.uniform(0.04, 0.06, size.grid))
            cacs = sorted(round(float(v), 4) for v in rng.uniform(0.45, 0.55, size.grid))
            config = {
                "space": {"standard": {"T": 6, "maxReplication": self.MAX_REPLICATION,
                                       "count": 1, "granularity": "cluster-period"}},
                "algorithm": "mixed-model-weights",
                "n_obs": size.n_obs,
                "grid": {"kind": "EXC2", "icc": iccs, "cac": cacs},
                "seed": seed,
            }
            path = work_dir / f"config{g}.json"
            path.write_text(json.dumps(config, indent=1))
            self.config_paths.append(path)
            self.cells.update((icc, cac) for icc in iccs for cac in cacs)
        self.space = cli.parse_space(cli.load_config(str(self.config_paths[0])))

    def operation(self, i: int):
        out_dir = self.work_dir / f"op{i}"
        echoed = io.StringIO()
        with contextlib.redirect_stdout(echoed):
            try:
                cli.main(["optimize", "--config", str(self.config_paths[i % self.N_GRIDS]),
                          "--out", str(out_dir)], standalone_mode=False)
            except SystemExit as exc:
                if exc.code:
                    raise RuntimeError(f"crtoptim optimize exited {exc.code}") from exc
        return out_dir

    def check_all(self, outputs) -> list[Check]:
        oracle = _DenseOracle(self.space)
        refs = {}
        for icc, cac in sorted(self.cells):
            cov = ct.CovarianceSpec.from_icc("EXC2", icc, cac=cac)
            refs[(icc, cac)] = (cov, weights.mixed_model_weights(
                self.space, cov, total_obs=self.size.n_obs).value)
        checks = []
        for out_dir in outputs:
            problems: list[str] = []
            effs = []
            try:
                index = _read_csv(out_dir / "grid_index.csv")
                if len(index) != self.size.grid ** 2:
                    problems.append(f"grid_index.csv has {len(index)} rows")
                for row in index:
                    key = (float(row["icc"]), float(row["cac"]))
                    cov, ref = refs[key]
                    effs.append(self._check_cell(out_dir / row["directory"], cov, ref,
                                                 float(row["criterion_value"]),
                                                 oracle, key, problems))
            except (OSError, KeyError, ValueError) as exc:
                problems.append(f"unreadable result bundle: {exc!r}")
            checks.append(Check(not problems, min(effs, default=math.nan), problems))
            shutil.rmtree(out_dir, ignore_errors=True)
        return checks

    def _check_cell(self, cell_dir, cov, reference, indexed, oracle, key, problems):
        summary = json.loads((cell_dir / "summary.json").read_text())
        counts = summary["design_counts"]
        value = summary["criterion_value"]
        if value != indexed:
            problems.append(f"{cell_dir.name}: grid_index value {indexed!r} != {value!r}")
        weight_rows = _read_csv(cell_dir / "weights.csv")
        if len(weight_rows) != self.space.n_units:
            problems.append(f"{cell_dir.name}: {len(weight_rows)} weight rows")
        total = math.fsum(float(r["weight"]) for r in weight_rows)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            problems.append(f"{cell_dir.name}: weights sum to {total!r}")
        if _grid_cells(cell_dir / "design_grid.csv") != self._cells_of(counts):
            problems.append(f"{cell_dir.name}: design_grid.csv disagrees with summary.json")
        if not _check_counts(self.space, counts, self.size.n_obs, problems):
            return math.nan
        return _check_value(value, oracle.value(key, cov, counts), reference, problems)

    def _cells_of(self, counts) -> dict[tuple[int, int], tuple[int, int]]:
        cells = {}
        for unit, mult in zip(self.space.units, counts):
            if mult:
                for cell in unit.cells:
                    cells[(unit.cluster_id, cell.period)] = (cell.treated, mult * cell.count)
        return cells


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _grid_cells(path: Path) -> dict[tuple[int, int], tuple[int, int]]:
    """(cluster id, period) -> (treated, count) as written in a design grid."""
    cells = {}
    for row in _read_csv(path):
        cluster = int(row["cluster"].removeprefix("cluster_"))
        for col, text in row.items():
            if col.startswith("period_") and text:
                treated, count = text.split(":")
                cells[(cluster, int(col.removeprefix("period_")))] = (int(treated), int(count))
    return cells


WORKLOADS = {"seq-local": SeqLocal, "robust-local": RobustLocal,
             "cp-weights-cli": CpWeightsCli}


def build(name: str, seed: int, size: str, work_dir: Path):
    """Set up a workload: everything that happens before its first operation.
    Files it writes go under ``work_dir``."""
    return WORKLOADS[name](seed, SIZES[name][size], work_dir)


# Layers the traced run wraps: (module, attribute, span name). Methods are
# wrapped on their class; functions wherever crtoptim re-exports them.
TRACE_POINTS = (
    (glscore.DesignCriterion, "__init__", "glscore.build"),
    (glscore.DesignCriterion, "value", "glscore.value"),
    (glscore.DesignCriterion, "information", "glscore.information"),
    (glscore, "contrast_variance", "glscore.contrast_variance"),
    (robust.RobustCriterion, "value", "robust.value"),
    (search, "local_search", "search.local_search"),
    (search, "reverse_greedy", "search.reverse_greedy"),
    (weights, "mixed_model_weights", "weights.mixed_model_weights"),
    (apportion, "best_rounding", "apportion.best_rounding"),
    (cli, "main", "cli.main"),
)
